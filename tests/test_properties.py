import numpy as np
import pytest

from hjhom import (
    ConfigurationError,
    DomainError,
    UnreachableError,
    build_lagrangian,
    compute_metric_table,
    cosine_spec,
)
from hjhom.effective import build_effective_model
from hjhom.properties import (
    _pair_map,
    check_linear_growth,
    check_subadditivity,
    extract_approximate_geodesic,
    gap_vs_log_envelope,
    lemma_gaps,
)
from hjhom.util import grid_points

FREE = build_lagrangian(cosine_spec(1, 1.0))
OSC = build_lagrangian(cosine_spec(1, 2.0, (1.0, (1,))))


def free_table(horizon=4.0, **kw):
    kw.setdefault("dt", 0.25)
    kw.setdefault("dx", 0.25)
    kw.setdefault("vmax", 4.0)
    return compute_metric_table(FREE, horizon=horizon, **kw)


def test_subadditivity_no_violation():
    table = free_table()
    rng = np.random.default_rng(7)
    worst = check_subadditivity(table, sample_size=400, rng=rng)
    assert worst <= 1e-9


def test_subadditivity_oscillatory_no_violation():
    table = compute_metric_table(OSC, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)
    worst = check_subadditivity(table, sample_size=400,
                                rng=np.random.default_rng(1))
    assert worst <= 1e-9


def test_subadditivity_detects_corruption():
    table = compute_metric_table(OSC, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)
    # lower one interior integer node: concatenations through it now beat
    # the stored value at the doubled point
    pos = int(np.searchsorted(table.layer_times, 4))
    reach = table.layers[pos].shape[0] // 2
    table.layers[pos][reach + 4] -= 1.5  # z = 1.0 at t = 1... k=4 -> t=1
    worst = check_subadditivity(table, sample_size=2000,
                                rng=np.random.default_rng(2))
    assert worst > 0.5


def test_linear_growth_free_case_bound():
    table = free_table(horizon=4.0)
    k = check_linear_growth(table)
    assert np.isfinite(k)
    assert 1.0 <= k <= 5.0


def test_linear_growth_lower_bound_witness():
    # f >= t makes the lower bound hold with K ~ cone constant
    table = compute_metric_table(OSC, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)
    k = check_linear_growth(table)
    assert np.isfinite(k) and k >= 1.0


def test_linear_growth_mesh_stability():
    k1 = check_linear_growth(free_table(horizon=4.0, dt=0.25, dx=0.25))
    k2 = check_linear_growth(free_table(horizon=4.0, dt=0.125, dx=0.0625))
    assert abs(k2 - k1) <= 0.1 * k1


def test_geodesic_free_case_straight_line():
    table = free_table(horizon=4.0)
    geo = extract_approximate_geodesic(table, 4.0, 4.0)
    np.testing.assert_array_equal(geo.nodes[:, 0], np.arange(5))
    np.testing.assert_array_equal(geo.nodes[:, 1], np.arange(5))
    assert geo.defect <= 1e-9
    assert geo.step_bound == pytest.approx(1.0)


def test_geodesic_stationary():
    table = free_table(horizon=4.0)
    geo = extract_approximate_geodesic(table, 4.0, 0.0)
    np.testing.assert_array_equal(geo.nodes[:, 1], 0)
    assert geo.defect <= 1e-9


def test_geodesic_increments_in_cone():
    table = compute_metric_table(OSC, horizon=8.0, dt=0.125, dx=0.125, vmax=6.0)
    geo = extract_approximate_geodesic(table, 8.0, 16.0)
    inc = np.diff(geo.nodes, axis=0)
    assert np.all(inc[:, 0] == 1)
    assert np.max(np.abs(inc[:, 1])) <= table.vmax + 1e-9


def test_geodesic_defect_non_growing():
    table = compute_metric_table(OSC, horizon=8.0, dt=0.125, dx=0.125, vmax=6.0)
    defects = []
    for t, x in [(1.0, 4.0), (2.0, 8.0), (4.0, 16.0), (8.0, 32.0)]:
        if abs(x) <= table.vmax * t:
            defects.append(extract_approximate_geodesic(table, t, x).defect)
    assert len(defects) >= 3
    assert max(defects[1:]) <= 1.25 * max(defects[0], 0.1) + 0.2


def test_geodesic_unreached_chain_difference_raises():
    # vmax = 1.5: the only path to x = 3 at t = 2 runs at full speed, its
    # node 1.5 at t = 1 rounds toward zero to 1, and the chain difference
    # (1, 2) lies past the reach 1.5 of one time unit
    table = free_table(horizon=2.0, dt=0.25, dx=0.125, vmax=1.5)
    with pytest.raises(UnreachableError, match=r"chain difference \[1, 2\]"):
        extract_approximate_geodesic(table, 2.0, 3.0)


def _defect_triple_loop(table, nodes):
    """The chain's additivity defect from one-point reads of every chain
    difference in a triple loop: the bitwise reference for the one array
    read of extract_approximate_geodesic."""
    def f(dz):
        return table.value_at(float(dz[0]), dz[1:].astype(float))

    defect = 0.0
    n = len(nodes)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                val = f(nodes[k] - nodes[i]) - f(nodes[k] - nodes[j]) - f(nodes[j] - nodes[i])
                defect = max(defect, abs(val))
    return defect


@pytest.mark.parametrize("lagr, kw, ends", [
    (OSC, dict(horizon=8.0, dt=0.125, dx=0.125, vmax=6.0),
     [(1, [4]), (2, [-8]), (4, [16]), (8, [32]), (8, [-5]), (3, [0])]),
    (build_lagrangian(cosine_spec(2, 3.0, (1.0, (1, 0)), (0.7, (1, -2)))),
     dict(horizon=4.0, dt=0.25, dx=0.125, vmax=5.0),
     [(2, [3, -1]), (4, [6, 5]), (4, [-2, 0]), (1, [1, 1])]),
])
def test_geodesic_defect_is_the_triple_loop_bitwise(lagr, kw, ends):
    table = compute_metric_table(lagr, **kw)
    defects = []
    for t, x in ends:
        geo = extract_approximate_geodesic(table, t, x)
        want = _defect_triple_loop(table, geo.nodes)
        assert np.float64(geo.defect).tobytes() == np.float64(want).tobytes()
        defects.append(want)
    assert max(defects) > 0.0


def test_integer_times_end_at_the_last_stored_integer_layer():
    # horizon 3.5: the pairs and the rays used to run to the layer
    # int(round(3.5)) = 4, past the table, and raise "layer k=16 not stored"
    table = compute_metric_table(OSC, horizon=3.5, dt=0.25, dx=0.25, vmax=4.0)
    assert check_subadditivity(table, sample_size=400, rng=np.random.default_rng(3)) <= 1e-9
    model = build_effective_model(OSC, v_box_half=1.0, v_step=1.0, n_max=2, dt=0.25,
                                  dx=0.25, vmax=4.0, table=table)
    rep = gap_vs_log_envelope(table, model, [[1.0], [-1.0]])
    assert [(e, s) for e, s, _ in rep.samples] == [((1.0,), 1), ((1.0,), 2),
                                                   ((-1.0,), 1), ((-1.0,), 2)]
    with pytest.raises(ConfigurationError, match="layer k=16 not stored: the table "
                       "keeps 15 layers, t = 0 to its horizon 3.5"):
        table.value_at(4.0, 0.0)


def _lemma_gaps_box_loop(table, t):
    """Every integer x with 0 < |x| <= 2t and m(2t, 0, 2x) finite, from a box
    of integer points in lexicographic order, and 2 m(t, 0, x) - m(2t, 0, 2x)
    at each from one-point reads: the reference for lemma_gaps."""
    box = grid_points([np.arange(-2 * t, 2 * t + 1)] * table.dimension)
    box = box[box.any(axis=1) & (np.linalg.norm(box, axis=1) <= 2 * t)]
    ends = np.array([x for x in box if np.isfinite(table.value_at(2 * t, 2 * x))])
    gaps = [2 * table.value_at(t, x) - table.value_at(2 * t, 2 * x) for x in ends]
    return ends, np.array(gaps)


OSC2 = build_lagrangian(cosine_spec(2, 3.0, (1.0, (1, 0)), (1.0, (0, 1))))


@pytest.mark.parametrize("lagr, kw, times", [
    # the configs/properties_2d.cfg lattice
    (OSC2, dict(horizon=8.0, dt=0.25, dx=0.125, vmax=5.0), (1.0, 2.0, 4.0)),
    (OSC, dict(horizon=8.0, dt=0.125, dx=0.125, vmax=6.0), (1.0, 2.0, 3.0, 4.0)),
])
def test_lemma_gaps_is_the_box_loop_bitwise(lagr, kw, times):
    table = compute_metric_table(lagr, **kw)
    for t in times:
        ends, gaps = lemma_gaps(table, t)
        want_ends, want_gaps = _lemma_gaps_box_loop(table, t)
        assert len(ends) > 0
        np.testing.assert_array_equal(ends, want_ends)
        assert gaps.tobytes() == want_gaps.tobytes()


def test_lemma_gaps_without_an_endpoint_are_empty():
    # vmax = 0.5 reaches |z| <= 1 at t = 2, and no 2x with 0 < |x| <= 2 lies
    # there (the table of test_config_cli.py's SURGERY_CFG)
    table = compute_metric_table(OSC2, horizon=2.0, dt=0.25, dx=0.125, vmax=0.5)
    ends, gaps = lemma_gaps(table, 1.0)
    assert ends.shape == (0, 2) and gaps.shape == (0,)


def _gap_samples_loop(table, model, directions):
    """Ray gaps from one-point reads at s = 1, 2, 4, ... up to the last
    integer layer: the reference for gap_vs_log_envelope's one array read."""
    last = max(k for k in table.layer_times * table.dt if k == int(k))
    samples = []
    for e in directions:
        e = np.atleast_1d(np.asarray(e, dtype=float))
        s = 1
        while s <= last:
            fval = table.value_at(float(s), s * e)
            if np.isfinite(fval):
                samples.append((tuple(e), s, float(fval - s * model.lagrangian_bar(e))))
            s *= 2
    return samples


def test_gap_envelope_free_case_zero():
    table = free_table(horizon=4.0)
    model = build_effective_model(FREE, v_box_half=3.0, v_step=0.25, n_max=4,
                                  dt=0.25, dx=0.125, vmax=5.0)
    rep = gap_vs_log_envelope(table, model, [[0.0], [1.0], [2.0]])
    assert max(g for *_, g in rep.samples) <= 0.05
    assert rep.min_gap >= -0.05


def test_gap_envelope_nonnegative_oscillatory():
    table = compute_metric_table(OSC, horizon=8.0, dt=0.125, dx=0.0625,
                                 vmax=5.0, keep="all")
    model = build_effective_model(OSC, v_box_half=3.0, v_step=0.25, n_max=8,
                                  dt=0.125, dx=0.0625, vmax=5.0)
    rep = gap_vs_log_envelope(table, model, [[0.0], [1.0], [2.0]])
    # f >= f-bar pointwise up to extrapolation tolerance
    assert rep.min_gap >= -0.06
    assert rep.samples == _gap_samples_loop(table, model, [[0.0], [1.0], [2.0]])


OSC2 = build_lagrangian(cosine_spec(2, 3.0, (1.0, (1, 0)), (1.0, (0, 1))))


def _integer_cone_points(table):
    """Reference: the cone |z| <= vmax t enumerated point by point, layer by
    layer, keeping the points with a finite value."""
    for pos, k in enumerate(table.layer_times):
        t = k * table.dt
        if abs(t - round(t)) > 1e-9 or round(t) == 0:
            continue
        m = int(np.floor(table.layers[pos].shape[0] // 2 * table.dx + 1e-9))
        for j in np.ndindex(*(2 * m + 1,) * table.dimension):
            z = np.asarray(j) - m
            if np.linalg.norm(z) <= table.vmax * t + 1e-9 and \
                    np.isfinite(table.value_at(t, z.astype(float))):
                yield int(round(t)), z


def _linear_growth_loop(table):
    """Reference: K from per-point norms over the finite cone values."""
    k_req = 1.0
    for k, z in _integer_cone_points(table):
        f = table.value_at(float(k), z.astype(float))
        norm = float(np.linalg.norm((k,) + tuple(int(c) for c in z)))
        k_req = max(k_req, f / (norm + 1.0))
        k_req = max(k_req, (-f + np.sqrt(f * f + 4.0 * norm)) / 2.0)
    return float(k_req)


@pytest.mark.parametrize("lagr, kw", [
    (OSC, dict(horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)),
    (OSC, dict(horizon=3.0, dt=0.125, dx=0.0625, vmax=5.0, keep="integers")),
    (OSC, dict(horizon=3.0, dt=0.5, dx=1 / 3, vmax=3.0)),
    (OSC2, dict(horizon=3.0, dt=0.25, dx=0.25, vmax=4.0)),
    (OSC2, dict(horizon=2.0, dt=0.25, dx=0.125, vmax=3.0, keep="integers")),
    # step radius 6.6: the reach polygon leaves integer cone points +inf
    (OSC2, dict(horizon=4.0, dt=0.25, dx=0.125, vmax=3.3, keep="integers")),
])
def test_integer_cone_and_growth_match_pointwise_reference(lagr, kw):
    table = compute_metric_table(lagr, **kw)
    ks, zs, vals = table.integer_cone()
    ref = list(_integer_cone_points(table))
    assert ks.tolist() == [k for k, _ in ref]
    assert zs.tolist() == [z.tolist() for _, z in ref]
    want = [table.value_at(float(k), z.astype(float)) for k, z in ref]
    np.testing.assert_array_equal(vals, want)
    assert check_linear_growth(table) == _linear_growth_loop(table)


def test_subadditivity_raises_when_no_pair_fits():
    # horizon 1: every pair of cone points has k1 + k2 = 2 > 1
    table = free_table(horizon=1.0)
    with pytest.raises(DomainError, match="no pair to sample: 0 pairs"):
        check_subadditivity(table, sample_size=50)


# step radius 6.6: the reach polygon leaves integer cone points +inf
REACH_POLYGON = dict(horizon=3.0, dt=0.25, dx=0.125, vmax=3.3, keep="integers")


def test_subadditivity_pair_map_is_a_bijection_onto_admissible_pairs():
    table = compute_metric_table(OSC2, **REACH_POLYGON)
    ks, _, _ = table.integer_cone()
    count, pairs = _pair_map(ks, 3)
    i, j = pairs(np.arange(count))
    want = [(a, b) for a in range(len(ks)) for b in range(len(ks)) if ks[a] + ks[b] <= 3]
    assert list(zip(i.tolist(), j.tolist())) == want


def test_subadditivity_pairs_reach_their_sum():
    # every pair the sampler can draw has z + w reached at k1 + k2, also where
    # the reach polygon leaves cone points unreached
    table = compute_metric_table(OSC2, **REACH_POLYGON)
    ks, zs, vals = table.integer_cone()
    cone = [(k, a, b) for k in (1, 2, 3) for a in range(-9, 10) for b in range(-9, 10)
            if a * a + b * b <= (3.3 * k) ** 2]
    assert len(ks) < len(cone)
    count, pairs = _pair_map(ks, 3)
    i, j = pairs(np.arange(count))
    fzw = [table.value_at(float(k), z.astype(float))
           for k, z in zip(ks[i] + ks[j], zs[i] + zs[j])]
    assert np.all(np.isfinite(fzw))
    assert check_subadditivity(table, 500, np.random.default_rng(4)) <= 1e-9
