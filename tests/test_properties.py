import numpy as np
import pytest

from hjhom import Cone, DomainError, build_lagrangian, compute_metric_table, cosine_spec
from hjhom.effective import build_effective_model
from hjhom.properties import (
    check_linear_growth,
    check_subadditivity,
    extract_approximate_geodesic,
    gap_vs_log_envelope,
)

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
    reach = table.reaches[pos]
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
    assert np.max(np.abs(inc[:, 1])) <= table.cone.speed + 1e-9


def test_geodesic_defect_non_growing():
    table = compute_metric_table(OSC, horizon=8.0, dt=0.125, dx=0.125, vmax=6.0)
    defects = []
    for t, x in [(1.0, 4.0), (2.0, 8.0), (4.0, 16.0), (8.0, 32.0)]:
        if abs(x) <= table.cone.speed * t:
            defects.append(extract_approximate_geodesic(table, t, x).defect)
    assert len(defects) >= 3
    assert max(defects[1:]) <= 1.25 * max(defects[0], 0.1) + 0.2


def test_gap_envelope_free_case_zero():
    table = free_table(horizon=4.0)
    model = build_effective_model(FREE, v_box_half=3.0, v_step=0.25, n_max=4,
                                  dt=0.25, dx=0.125, vmax=5.0)
    rep = gap_vs_log_envelope(table, model, [[0.0], [1.0], [2.0]])
    assert max(g for *_, g in rep.samples) <= 0.05
    assert rep.min_gap >= -0.05
    assert rep.envelope_constant <= 0.1


def test_gap_envelope_nonnegative_oscillatory():
    table = compute_metric_table(OSC, horizon=8.0, dt=0.125, dx=0.0625,
                                 vmax=5.0, keep="all")
    model = build_effective_model(OSC, v_box_half=3.0, v_step=0.25, n_max=8,
                                  dt=0.125, dx=0.0625, vmax=5.0)
    rep = gap_vs_log_envelope(table, model, [[0.0], [1.0], [2.0]])
    # f >= f-bar pointwise up to extrapolation tolerance
    assert rep.min_gap >= -0.06
    assert np.isfinite(rep.envelope_constant)


OSC2 = build_lagrangian(cosine_spec(2, 3.0, (1.0, (1, 0)), (1.0, (0, 1))))


def _integer_cone_points(table):
    """Reference: the cone enumerated point by point, layer by layer."""
    for pos, k in enumerate(table.layer_times):
        t = k * table.dt
        if abs(t - round(t)) > 1e-9 or round(t) == 0:
            continue
        m = int(np.floor(table.reaches[pos] * table.dx + 1e-9))
        for j in np.ndindex(*(2 * m + 1,) * table.dimension):
            z = np.asarray(j) - m
            if np.linalg.norm(z) <= table.cone.speed * t + 1e-9:
                yield int(round(t)), z


def _linear_growth_loop(table):
    """Reference: K from per-point norms over the finite cone values."""
    k_req = 1.0
    for k, z in _integer_cone_points(table):
        f = table.value_at(float(k), z.astype(float))
        if not np.isfinite(f):
            continue
        norm = float(np.linalg.norm((k,) + tuple(int(c) for c in z)))
        k_req = max(k_req, f / (norm + 1.0))
        k_req = max(k_req, (-f + np.sqrt(f * f + 4.0 * norm)) / 2.0)
    return float(k_req)


@pytest.mark.parametrize("lagr, kw", [
    (OSC, dict(horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)),
    (OSC, dict(horizon=3.0, dt=0.125, dx=0.0625, vmax=5.0, keep="integers")),
    (OSC, dict(horizon=3.0, dt=0.5, dx=1 / 3, vmax=3.0, cone=Cone(2.5))),
    (OSC2, dict(horizon=3.0, dt=0.25, dx=0.25, vmax=4.0)),
    (OSC2, dict(horizon=2.0, dt=0.25, dx=0.125, vmax=3.0, cone=Cone(2.2),
                keep="integers")),
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
    with pytest.raises(DomainError, match="no sampled cone pair"):
        check_subadditivity(table, sample_size=50)
