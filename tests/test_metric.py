import contextlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjhom import (
    ConfigurationError,
    DomainError,
    UnreachableError,
    build_effective_model,
    build_lagrangian,
    compute_metric_table,
    cosine_spec,
    extract_minimizing_path,
)
from hjhom.effective import cell_problem_oracle
import hjhom.metric as metric
from hjhom.metric import _aligned_empty as aligned_empty
from hjhom.metric import _row_buffer as row_buffer
from hjhom.metric import path_cost
from hjhom.util import grid_points
from metric_reference import brute_metric


def max_speed(path):
    return float(np.max(np.linalg.norm(np.diff(path.nodes, axis=0), axis=1)) / path.dt)


def gather_kernel_layers(table, n_layers, keep):
    """The gather form of the metric DP, kept as the bitwise reference.

    Every layer gathers, per step o, a full cost array costs[o][j mod M] at
    the targets j, adds it to the previous layer and min-es it into the
    shifted target slice.  Returns the stored (layer_times, layers) as
    compute_metric_table keeps them, and the reach each layer was built with.
    """
    d = table.dimension
    big_m = round(1.0 / table.dx)
    per_unit = round(1.0 / table.dt)
    s_max = int(np.max(np.abs(table.offsets)))
    reach_final = s_max * n_layers
    layer_times, layers, reaches = [0], [np.zeros((1,) * d)], [0]
    prev, prev_reach = layers[0], 0
    for k in range(1, n_layers + 1):
        new_reach = min(prev_reach + s_max, reach_final)
        new = np.full((2 * new_reach + 1,) * d, np.inf)
        for o, costs in zip(table.offsets, table.costs):
            # the targets j = w + o of the sources w in [-prev_reach, prev_reach]
            ax_idx = [np.mod(np.arange(-prev_reach, prev_reach + 1) + c, big_m) for c in o]
            cand = prev + costs[np.ix_(*ax_idx)]
            sl = tuple(
                slice(new_reach - prev_reach + o[ax], new_reach + prev_reach + o[ax] + 1)
                for ax in range(d))
            np.minimum(new[sl], cand, out=new[sl])
        if keep == "all" or k % per_unit == 0 or k == n_layers:
            layer_times.append(k)
            layers.append(new)
            reaches.append(new_reach)
        prev, prev_reach = new, new_reach
    return layer_times, layers, reaches


FREE = build_lagrangian(cosine_spec(1, 1.0))
OSC = build_lagrangian(cosine_spec(1, 2.0, (1.0, (1,))))
FREE2 = build_lagrangian(cosine_spec(2, 1.0))
OSC2 = build_lagrangian(cosine_spec(2, 3.0, (1.0, (1, 0)), (1.0, (0, 1))))
OSC3 = build_lagrangian(cosine_spec(3, 3.0, (1.0, (1, 0, 0)), (0.5, (0, 1, 1))))
OSC_BY_DIMENSION = {1: OSC, 2: OSC2, 3: OSC3}


def closed_form_free(t, x):
    return np.linalg.norm(x) ** 2 / (4.0 * t) + t


def test_matches_brute_force_1d_oscillatory():
    table = compute_metric_table(OSC, horizon=1.0, dt=0.5, dx=0.5, vmax=2.0)
    ref = brute_metric(OSC, 2, 0.5, 0.5, 2.0)
    for j, want in ref.items():
        got = table.value_at(1.0, np.asarray(j) * 0.5)
        assert got == pytest.approx(want, abs=1e-12), f"j={j}"


def test_matches_brute_force_2d_oscillatory():
    table = compute_metric_table(OSC2, horizon=1.0, dt=0.5, dx=0.5, vmax=2.0)
    ref = brute_metric(OSC2, 2, 0.5, 0.5, 2.0)
    for j, want in ref.items():
        got = table.value_at(1.0, np.asarray(j) * 0.5)
        assert got == pytest.approx(want, abs=1e-12), f"j={j}"


def test_free_case_exact_on_aligned_velocities():
    # v = 2 is a lattice velocity, so the straight line is representable and
    # the DP value is exactly x^2/(4t) + t
    table = compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.25, vmax=4.0)
    assert table.value_at(1.0, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_free_case_closed_form_within_tolerance():
    # dv = dx/dt = 0.5 keeps the velocity-mixing excess below 2 percent
    table = compute_metric_table(FREE, horizon=2.0, dt=0.25, dx=0.125, vmax=4.0)
    for t in (1.0, 2.0):
        for x in np.arange(-2 * t, 2 * t + 0.5, 0.5):
            want = closed_form_free(t, x)
            got = table.value_at(t, x)
            assert got == pytest.approx(want, rel=0.02), (t, x)
            assert got >= want - 1e-12  # DP minimizes over a path subset


def test_stationary_value_equals_time():
    table = compute_metric_table(FREE, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)
    for t in (1.0, 2.0, 4.0):
        assert table.value_at(t, 0.0) == pytest.approx(t, abs=1e-12)


def test_subadditivity_equality_free_case():
    table = compute_metric_table(FREE, horizon=2.0, dt=0.25, dx=0.25, vmax=4.0)
    m1 = table.value_at(1.0, 2.0)
    m2 = table.value_at(2.0, 4.0)
    assert m2 == pytest.approx(2 * m1, abs=1e-12)


def test_values_nonnegative_and_at_least_t():
    table = compute_metric_table(OSC, horizon=2.0, dt=0.25, dx=0.25, vmax=4.0)
    ks, _, vals = table.integer_cone()
    assert len(ks) and np.all(vals >= ks - 1e-12)


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        compute_metric_table(FREE, horizon=1.0, dt=0.1, dx=0.5, vmax=2.0)
    with pytest.raises(ConfigurationError):
        compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.3, vmax=4.0)


def test_path_extraction_straight_line():
    table = compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.25, vmax=4.0)
    path = extract_minimizing_path(table, 1.0, 2.0)
    assert path.nodes[0] == pytest.approx(0.0)
    assert path.nodes[-1] == pytest.approx(2.0)
    np.testing.assert_allclose(np.diff(path.nodes[:, 0]), 0.5)  # speed 2
    assert path.cost == pytest.approx(table.value_at(1.0, 2.0), abs=0)
    assert path_cost(FREE, path.dt, path.nodes, np.diff(path.nodes, axis=0)) == \
        pytest.approx(path.cost, abs=1e-10)


def test_path_extraction_stationary():
    table = compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.25, vmax=4.0)
    path = extract_minimizing_path(table, 1.0, 0.0)
    np.testing.assert_allclose(path.nodes, 0.0)
    assert path.cost == pytest.approx(1.0)


def test_path_speed_limit_measured():
    table = compute_metric_table(OSC, horizon=2.0, dt=0.125, dx=0.125, vmax=6.0)
    for t, x in [(1.0, 2.0), (2.0, 3.0), (1.0, -1.0)]:
        path = extract_minimizing_path(table, t, x)
        c = 4.0  # measured bound constant for this family
        assert max_speed(path) <= c + c * abs(x) / t
    # the cap never binds for these targets
    assert max(max_speed(extract_minimizing_path(table, t, x))
               for t, x in [(1.0, 2.0), (2.0, 3.0)]) < table.vmax


def test_unreachable_point_raises():
    table = compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.25, vmax=2.0)
    with pytest.raises(UnreachableError):
        extract_minimizing_path(table, 0.25, 1.0)  # needs speed 4 > vmax


def test_refinement_convergence_free_case():
    # refining the velocity granularity dv = dx/dt drives free-case values to
    # the closed form (halving dt and dx alone keeps dv and stalls)
    errs = []
    for dt, dx in [(0.25, 0.25), (0.125, 0.0625)]:
        table = compute_metric_table(FREE, horizon=1.0, dt=dt, dx=dx, vmax=4.0)
        worst = 0.0
        for x in np.arange(-2, 2.01, 0.25):
            worst = max(worst, abs(table.value_at(1.0, x) - closed_form_free(1.0, x)))
        errs.append(worst)
    assert errs[1] <= 0.6 * errs[0] + 1e-9


def test_periodicity_of_metric_exact():
    # m(t, x, x + z) = m(t, 0, z) for integer x: a DP started at x that reads
    # L at the unreduced positions reproduces the origin-based table's layer
    for lagr, sources, n_steps, dt, dx, vmax in [
            (OSC, [-2.0, 1.0, 3.0], 4, 0.25, 0.25, 4.0),
            (OSC2, [(1.0, -2.0)], 2, 0.5, 0.5, 2.0)]:
        table = compute_metric_table(lagr, horizon=n_steps * dt, dt=dt, dx=dx,
                                     vmax=vmax)
        for x in sources:
            ref = brute_metric(lagr, n_steps, dt, dx, vmax, source=np.asarray(x))
            for j, want in ref.items():
                got = table.value_at(n_steps * dt, np.asarray(j) * dx)
                assert got == pytest.approx(want, abs=1e-12), (x, j)


def test_interpolate_reads_stored_layers_only():
    # a time between layers, or a layer the table did not keep, is an error,
    # not a blend of the neighbouring layers
    table = compute_metric_table(OSC, horizon=2.0, dt=0.25, dx=0.25, vmax=4.0)
    layer, reach = table.layer(1.25)
    assert table.value_at(1.25, 0.5) == layer[reach + 2]
    with pytest.raises(ConfigurationError):
        table.value_at(1.1, 0.5)
    kept = compute_metric_table(OSC, horizon=2.0, dt=0.25, dx=0.25, vmax=4.0,
                                keep="integers")
    assert kept.value_at(2.0, 0.5) == table.value_at(2.0, 0.5)
    with pytest.raises(ConfigurationError):
        kept.value_at(1.5, 0.5)
    with pytest.raises(ConfigurationError):
        kept.layer(1.5)


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2]), a0=st.floats(1.0, 3.0), amp=st.floats(-1.0, 1.0),
       vmax=st.sampled_from([1.0, 2.0]), n_steps=st.integers(1, 3), data=st.data())
def test_value_at_arrays_match_point_reads_and_brute_force(d, a0, amp, vmax, n_steps, data):
    # random small tables: an (n, d) read, at one time or a time per point,
    # equals n one-point reads and the reference DP, +inf beyond the reach; a
    # point off the lattice or a time the table does not store raises
    wave = (1,) + (0,) * (d - 1)
    lagr = build_lagrangian(cosine_spec(d, a0, (amp, wave)))
    dt = dx = 0.25
    table = compute_metric_table(lagr, horizon=n_steps * dt, dt=dt, dx=dx, vmax=vmax)
    k = data.draw(st.integers(1, n_steps))
    ref = brute_metric(lagr, k, dt, dx, vmax)
    span = int(vmax) * k + 2
    j = np.array(data.draw(st.lists(st.lists(st.integers(-span, span), min_size=d, max_size=d),
                                    min_size=1, max_size=12)))
    got = table.value_at(k * dt, j * dx)
    assert got.shape == (len(j),)
    assert got.tolist() == [table.value_at(k * dt, jj * dx) for jj in j]
    for jj, value in zip(j, got):
        want = ref.get(tuple(int(c) for c in jj), np.inf)
        assert value == pytest.approx(want, abs=1e-12) if np.isfinite(want) else value == np.inf
    if d == 1:
        assert isinstance(table.value_at(k * dt, float(j[0, 0] * dx)), float)
    # a time per point: the one-point reads, bitwise; a time the table does
    # not store raises
    ks = np.array(data.draw(st.lists(st.integers(0, n_steps), min_size=len(j),
                                     max_size=len(j))))
    got = table.value_at(ks * dt, j * dx)
    assert got.tobytes() == np.array(
        [table.value_at(kk * dt, jj * dx) for kk, jj in zip(ks, j)]).tobytes()
    bad = ks * dt
    bad[data.draw(st.integers(0, len(j) - 1))] = data.draw(
        st.sampled_from([(n_steps + 1) * dt, (n_steps + 0.5) * dt, -dt]))
    with pytest.raises(ConfigurationError, match="not stored|t/dt"):
        table.value_at(bad, j * dx)
    off = j * dx
    off[-1, -1] += dx / 2
    with pytest.raises(ConfigurationError, match="z/dx"):
        table.value_at(k * dt, off)


@pytest.mark.parametrize("d, z", [
    (2, 0.5), (2, [0.5]), (2, [0.5, 0.0, 0.5]), (2, [[0.5, 0.0, 0.5]]),
    (2, [[[0.5, 0.0]]]), (1, [0.5, 0.0]), (1, [[0.5, 0.0]]),
])
def test_value_at_rejects_points_of_another_width(d, z):
    # a scalar on a d = 2 table used to raise a bare TypeError and (1, 3)
    # points an IndexError; a d = 1 table reads one point per row
    table = compute_metric_table(OSC_BY_DIMENSION[d], horizon=1.0, dt=0.25, dx=0.25,
                                 vmax=2.0)
    with pytest.raises(DomainError, match=f"points of shape .* on a d = {d} table"):
        table.value_at(1.0, z)
    point = [0.5] * d
    assert table.value_at(1.0, point) == table.value_at(1.0, [point])[0]
    assert table.value_at(1.0, np.zeros((0, d))).shape == (0,)


@pytest.mark.parametrize("t, z", [
    ([1.0, 2.0], np.zeros((3, 1))), ([1.0, 2.0], 0.5), ([[1.0, 2.0]], np.zeros((2, 1))),
])
def test_value_at_rejects_times_of_another_length(t, z):
    # a time per point or one time: these raised a bare numpy ValueError
    table = compute_metric_table(OSC, horizon=2.0, dt=0.25, dx=0.25, vmax=2.0)
    with pytest.raises(DomainError, match=r"times of shape .* for points of shape"):
        table.value_at(t, z)
    assert table.value_at([1.0, 2.0], np.zeros((2, 1))).tobytes() == np.array(
        [table.value_at(1.0, 0.0), table.value_at(2.0, 0.0)]).tobytes()
    assert table.value_at([1.0], np.zeros((3, 1))).shape == (3,)


def test_keep_rejects_other_modes_and_options_are_keywords():
    # any keep but "all" used to store integer layers silently
    with pytest.raises(ConfigurationError, match="keep"):
        compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.25, vmax=4.0,
                             keep="integer")
    with pytest.raises(TypeError):
        compute_metric_table(FREE, 1.0, 0.25)


def test_integer_layers_mode_saves_paths_error():
    table = compute_metric_table(FREE, horizon=2.0, dt=0.25, dx=0.25, vmax=4.0,
                                 keep="integers")
    assert table.value_at(2.0, 0.0) == pytest.approx(2.0)
    with pytest.raises(ConfigurationError):
        extract_minimizing_path(table, 2.0, 0.0)
    # with dt = 1 the integer layers are every layer, so backtracking works
    unit = compute_metric_table(FREE, horizon=2.0, dt=1.0, dx=0.25, vmax=4.0,
                                keep="integers")
    path = extract_minimizing_path(unit, 2.0, 1.0)
    assert path.cost == unit.value_at(2.0, 1.0)
    assert path.nodes[0] == 0.0 and path.nodes[-1] == 1.0


def test_csv_export_roundtrip(tmp_path):
    table = compute_metric_table(FREE, horizon=1.0, dt=0.5, dx=0.5, vmax=2.0)
    out = tmp_path / "metric.csv"
    table.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# schema=hjhom.metric.v1")
    assert lines[1] == "k,z1,value"
    assert any(line.startswith("2,0.0,") for line in lines)


# (d, M = 1/dx, step radius s = vmax dt / dx, layers at dt = 1/4, keep):
# s below and above M; reaches from under M (first layers) to many times M.
# A d >= 2 layer is relaxed over rows of pitch = 8 ceil(width / 8) cells; the
# width 2 reach + 1 is odd, and the last d = 2 layers' reach mod 8 takes each
# value 0..7 over these cases and NON_SEPARABLE_CASES, so their width mod 8
# takes each of 1, 3, 5, 7 (7, 5, 3, 1 pad cells)
EQUIVALENCE_CASES = [
    (1, 2, 1.0, 24, "all"), (1, 3, 2.0, 24, "integers"),
    (1, 6, 2.0, 24, "all"), (1, 8, 3.0, 24, "integers"),
    (1, 2, 5.0, 8, "integers"), (1, 3, 7.0, 8, "all"),
    (1, 6, 9.0, 8, "integers"), (1, 8, 11.0, 8, "all"),
    (2, 2, 1.5, 16, "all"), (2, 3, 1.5, 16, "integers"),
    (2, 6, 2.5, 12, "all"), (2, 8, 2.5, 12, "integers"),
    (2, 2, 3.0, 4, "integers"), (2, 3, 4.5, 4, "all"),
    (2, 6, 7.0, 4, "integers"), (2, 8, 9.0, 4, "all"),
    (3, 2, 1.5, 6, "all"), (3, 2, 1.5, 6, "integers"), (3, 2, 2.0, 4, "all"),
    (1, 3, 1.0, 24, "all"), (1, 7, 5.0, 8, "integers"),
    (2, 4, 1.5, 13, "all"), (2, 3, 2.0, 9, "integers"), (2, 2, 3.5, 5, "all"),
    (3, 2, 1.5, 7, "all"),
    (1, 5, 1.0, 24, "all"), (1, 6, 1.0, 24, "integers"), (1, 5, 2.0, 24, "integers"),
    (1, 3, 3.0, 24, "all"),
]

# the d = 1 chunk budget in the equivalence test: chunks of L = 20 (M = 2,
# s = 1) and 21 (M = 3, s = 1) cells meet a half of L - 1, L and L + 1
# cells; every d = 1 case ends with several chunks per layer, and M = 6, 7
# and 8 at s >= 5 hold more sums per block than the budget (one-block
# chunks).  The ufunc buffer is sized from L, which numpy takes only in
# multiples of 16: L is 20 (M = 5, s = 1), 18 (M = 6, s = 1), 10 (M = 5,
# s = 2) and 9 (M = 3, s = 3) cells in the last four d = 1 cases
SMALL_CHUNK_CELLS = 64


def chunk_width(big_m, s, budget):
    """L, the cells of a d = 1 chunk at M = 1/dx, step radius s and a budget
    of `budget` sums."""
    n_steps = 2 * int(s) + 1
    return big_m * max(1, budget // (n_steps * big_m))


def assert_equals_gather_kernel(monkeypatch, lagr, big_m, s, n_layers, keep):
    """Every layer of the table at threads 1, 2 and 3 (one in d = 1) is the
    gather form's and its own flip, bitwise, and a C-contiguous array of
    shape (2 reach + 1,)^d; returns the reaches."""
    # d >= 2: every layer in runs of row blocks, one per thread, the first
    # ones with fewer blocks than threads; a d = 1 table takes one thread
    monkeypatch.setattr("hjhom.metric.SPLIT_MIN_CELLS", 0)
    monkeypatch.setattr("hjhom.metric.CHUNK_CELLS", SMALL_CHUNK_CELLS)
    d = lagr.dimension
    dt, dx = 0.25, 1.0 / big_m
    tables = [compute_metric_table(lagr, horizon=n_layers * dt, dt=dt, dx=dx,
                                   vmax=s * dx / dt, keep=keep, threads=threads)
              for threads in ((1,) if d == 1 else (1, 2, 3))]
    times, layers, reaches = gather_kernel_layers(tables[0], n_layers, keep)
    for table in tables:
        assert table.layer_times.tolist() == times
        assert [layer.shape[0] // 2 for layer in table.layers] == reaches
        for got, ref, reach in zip(table.layers, layers, reaches):
            assert got.shape == (2 * reach + 1,) * d and got.flags.c_contiguous
            assert got.tobytes() == ref.tobytes()
            assert got.tobytes() == np.flip(got).tobytes()
    return reaches


@pytest.mark.parametrize("d,big_m,s,n_layers,keep", EQUIVALENCE_CASES)
def test_frame_kernel_bitwise_equals_gather_kernel(monkeypatch, d, big_m, s, n_layers,
                                                   keep):
    reaches = assert_equals_gather_kernel(monkeypatch, OSC_BY_DIMENSION[d], big_m, s,
                                          n_layers, keep)
    assert reaches[-1] >= 3 * big_m
    if d == 1:
        assert reaches[-1] + 1 > chunk_width(big_m, s, SMALL_CHUNK_CELLS)


# V = 4 + cos 2 pi x1 + cos 2 pi x2 + cos 2 pi (x1 + x2): its tiles are not
# sums of per-axis tiles
NON_SEPARABLE = build_lagrangian(cosine_spec(2, 4.0, (1.0, (1, 0)), (1.0, (0, 1)),
                                             (1.0, (1, 1))))

# (M, s, layers, keep) in d = 2: integer s, where the groups c0 = +-s hold
# one step each, and s between lattice radii; the last layer's rows z1 >= 0
# are never a whole number of blocks of M
NON_SEPARABLE_CASES = [
    (4, 3.0, 8, "all"), (8, 2.0, 14, "integers"), (6, 2.5, 10, "all"),
    (3, 4.0, 6, "integers"), (8, 9.0, 4, "all"), (2, 1.0, 20, "all"),
    (4, 1.5, 17, "integers"), (3, 2.5, 11, "all"), (5, 3.0, 9, "integers"),
]


@pytest.mark.parametrize("big_m,s,n_layers,keep", NON_SEPARABLE_CASES)
def test_group_kernel_bitwise_equals_gather_kernel_off_the_separable_family(
        monkeypatch, big_m, s, n_layers, keep):
    reaches = assert_equals_gather_kernel(monkeypatch, NON_SEPARABLE, big_m, s, n_layers,
                                          keep)
    assert reaches[-1] >= 3 * big_m
    assert (reaches[-1] + 1) % big_m != 0


# V = 4 - 3 cos 2 pi x, a deep well at the origin: targets j > 0 of most
# layers at M = 8, s = 3 take their minimum from a source w < 0, which the
# d = 1 kernel reads from the frame cells that mirror the sources -w > 0
DEEP_WELL = build_lagrangian(cosine_spec(1, 4.0, (-3.0, (1,))))


def test_chunk_kernel_reads_sources_across_the_origin(monkeypatch):
    assert_equals_gather_kernel(monkeypatch, DEEP_WELL, 8, 3.0, 12, "all")


@settings(max_examples=20, deadline=None)
@given(big_m=st.sampled_from([2, 3, 4, 6, 8]), s=st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]),
       amplitudes=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       threads=st.sampled_from([1, 2, 3]))
def test_group_kernel_equals_gather_kernel_on_drawn_potentials(big_m, s, amplitudes,
                                                                threads):
    # enough layers that the rows z1 >= 0 span at least two blocks of M
    waves = [(1, 0), (0, 1), (1, 1)]
    lagr = build_lagrangian(cosine_spec(2, 4.0, *zip(amplitudes, waves)))
    n_layers = -(-2 * big_m // int(s)) + 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("hjhom.metric.SPLIT_MIN_CELLS", 0)
        table = compute_metric_table(lagr, horizon=n_layers * 0.25, dt=0.25,
                                     dx=1.0 / big_m, vmax=s * 4.0 / big_m, threads=threads)
    _, layers, _ = gather_kernel_layers(table, n_layers, "all")
    for got, ref in zip(table.layers, layers):
        assert got.tobytes() == ref.tobytes()


class RecordingNumpy:
    """numpy as hjhom.metric sees it, recording the arrays its np.empty and
    np.full calls make, the `out` of its np.add and np.minimum.reduce calls,
    and, at each np.add, np.minimum and np.minimum.reduce that writes into an
    `out` (every kernel call does; the cost set-up does not), the calling
    thread, the ufunc buffer size it runs with and the out's last-axis
    cells."""

    def __init__(self):
        self.made, self.outs, self.sized = [], [], []
        self.minimum = RecordingNumpy.Minimum(self)

    @property
    def bufsizes(self):
        return [size for _, size, _ in self.sized]

    def record_size(self, kind, out):
        if out is not None:
            self.sized.append(((kind, threading.get_ident()), np.getbufsize(),
                               out.shape[-1]))

    class Minimum:
        def __init__(self, recording):
            self.recording = recording

        def __call__(self, *args, **kwargs):
            self.recording.record_size("minimum", kwargs.get("out"))
            return np.minimum(*args, **kwargs)

        def reduce(self, *args, **kwargs):
            self.recording.outs.append(kwargs.get("out"))
            self.recording.record_size("minimum.reduce", kwargs.get("out"))
            return np.minimum.reduce(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        self.made.append(np.empty(*args, **kwargs))
        return self.made[-1]

    def full(self, *args, **kwargs):
        self.made.append(np.full(*args, **kwargs))
        return self.made[-1]

    def add(self, *args, **kwargs):
        self.outs.append(kwargs.get("out"))
        self.record_size("add", kwargs.get("out"))
        return np.add(*args, **kwargs)


@pytest.mark.parametrize("threads, d, big_m, s", [(1, 1, 6, 2.0), (1, 2, 6, 2.5),
                                                 (3, 2, 6, 2.5), (2, 3, 2, 1.5)])
def test_kernel_buffers_are_cache_line_aligned(monkeypatch, d, big_m, s, threads):
    # every buffer a kernel adds into starts on a 64-byte boundary, whatever
    # offset malloc gave the allocation under it
    monkeypatch.setattr("hjhom.metric.SPLIT_MIN_CELLS", 0)
    buffers = []

    def recorded(n):
        buf = aligned_empty(n)
        buffers.append(buf)
        return buf

    def build(horizon):
        recording = RecordingNumpy()
        with monkeypatch.context() as patch:
            patch.setattr("hjhom.metric.np", recording)
            compute_metric_table(OSC_BY_DIMENSION[d], horizon=horizon, dt=0.25,
                                 dx=1.0 / big_m, vmax=s / big_m / 0.25, threads=threads)
        return recording

    monkeypatch.setattr("hjhom.metric._aligned_empty", recorded)
    recording = build(2.0)
    # d = 1: the chunk costs and one sums buffer, once per table;
    # d >= 2: per thread, a sums, a scratch-row and a widened-tile buffer,
    # once per table
    assert len(buffers) == (2 if d == 1 else 3 * threads)
    assert all(buf.ctypes.data % 64 == 0 for buf in buffers)
    # two frames per table, not one per layer: 2 layers allocate as much as 16
    assert len(build(0.5).made) == len(build(4.0).made)
    if d >= 2:
        # every row added into or reduced into starts on a 64-byte boundary:
        # the last axis holds a multiple of 8 cells, and the widths 2 reach + 1
        # of the layers are odd
        assert recording.outs
        assert all(out.ctypes.data % 64 == 0 and all(st % 64 == 0 for st in out.strides[:-1])
                   for out in recording.outs)


# (M, s, chunk budget, layers): chunks of L = 1920 cells (M = 128, s = 16,
# the default budget, as on the rate sweep's main table: numpy's default
# buffer of 8192 cells holds two of its rows), of 144, of 21 and 18 (not
# multiples of 16), of 10 and 9 (below 16) and of 8 cells
@pytest.mark.parametrize("big_m, s, budget, n_layers", [
    (128, 16.0, None, 160), (8, 3.0, 1024, 64), (3, 1.0, 64, 24), (6, 1.0, 64, 24),
    (5, 2.0, 64, 24), (3, 3.0, 64, 24), (8, 11.0, 64, 8)])
def test_chunk_kernel_reads_its_window_in_place(monkeypatch, big_m, s, budget, n_layers):
    # every d = 1 kernel add runs with a ufunc buffer below two rows of its
    # window operand, so numpy does not copy the window into the buffer;
    # 16 cells, the least numpy takes, is two rows of a chunk of 8
    if budget is not None:
        monkeypatch.setattr("hjhom.metric.CHUNK_CELLS", budget)
    cells = chunk_width(big_m, s, metric.CHUNK_CELLS)
    recording = RecordingNumpy()
    monkeypatch.setattr("hjhom.metric.np", recording)
    caller = np.getbufsize()
    compute_metric_table(OSC, horizon=n_layers * 0.25, dt=0.25, dx=1.0 / big_m,
                         vmax=s / big_m / 0.25, keep="integers")
    assert np.getbufsize() == caller
    assert len(recording.bufsizes) > n_layers
    assert all(size < 2 * cells or size == 16 == 2 * cells for size in recording.bufsizes)


def row_buffer_size(cells):
    """The ufunc buffer _row_buffer sets for rows of `cells` cells under a
    caller's buffer of at least that size: numpy takes multiples of 16."""
    return max(16, -(-cells // 16) * 16)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("d, big_m, s, n_layers", [(2, 6, 2.5, 12), (2, 8, 9.0, 4),
                                                   (3, 2, 1.5, 6)])
def test_group_kernel_reads_its_windows_in_place(monkeypatch, d, big_m, s, n_layers,
                                                 threads):
    # every d >= 2 kernel add, cross-group minimum and min-reduce, on the
    # calling thread and on every pool thread, runs with a ufunc buffer below
    # two rows of its layer's pitch, or at numpy's floor of 16 cells, so
    # numpy reads the row-strided window operands in place; numpy's default
    # of 8192 cells holds many rows of every layer here
    monkeypatch.setattr("hjhom.metric.SPLIT_MIN_CELLS", 0)
    recording = RecordingNumpy()
    monkeypatch.setattr("hjhom.metric.np", recording)
    caller = np.getbufsize()
    compute_metric_table(OSC_BY_DIMENSION[d], horizon=n_layers * 0.25, dt=0.25,
                         dx=1.0 / big_m, vmax=s / big_m / 0.25, threads=threads)
    assert np.getbufsize() == caller
    calls = {call for call, _, _ in recording.sized}
    assert {kind for kind, _ in calls} == {"add", "minimum", "minimum.reduce"}
    assert (len({thread for _, thread in calls}) > 1) == (threads > 1)
    for _, size, cells in recording.sized:
        # the add and the min-reduce write a pitch of cells per row, the
        # minimum a layer's width, which the pitch rounds up to 8
        pitch = -(-cells // 8) * 8
        assert 2 * pitch < caller
        assert size < 2 * pitch or size == 16


class KernelFault(Exception):
    pass


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("fail", [False, True])
def test_table_gives_back_the_callers_buffer_size(monkeypatch, d, fail):
    # after the table, or after a kernel's min-reduce raises at layer 2 inside
    # its sized scope, the calling thread has its own ufunc buffer size back
    # (saved and set again explicitly: numpy before 2.0 keeps no context for
    # it); every min-reduce ran at one row: of a chunk in d = 1, of its
    # layer's pitch in d >= 2, on every thread
    monkeypatch.setattr("hjhom.metric.SPLIT_MIN_CELLS", 0)
    kernel = "_relax_chunks" if d == 1 else "_group_layer"
    relax = getattr(metric, kernel)

    def layer(*args):
        layers.append(len(layers) + 1)
        return relax(*args)

    def recording_with_fault():
        recording = RecordingNumpy()
        reduce = recording.minimum.reduce

        def faulty_reduce(*args, **kwargs):
            result = reduce(*args, **kwargs)
            if fail and len(layers) == 2:
                raise KernelFault
            return result

        recording.minimum.reduce = faulty_reduce
        return recording

    monkeypatch.setattr(f"hjhom.metric.{kernel}", layer)
    # d = 1 chunks of 90 cells: the table shrinks the buffer to 96
    monkeypatch.setattr("hjhom.metric.CHUNK_CELLS", 1024)
    for threads in (1,) if d == 1 else (1, 2):
        layers, recording = [], recording_with_fault()
        monkeypatch.setattr("hjhom.metric.np", recording)
        old = np.setbufsize(4096)
        try:
            with pytest.raises(KernelFault) if fail else contextlib.nullcontext():
                compute_metric_table(OSC_BY_DIMENSION[d], horizon=2.0, dt=0.25, dx=1.0 / 6,
                                     vmax=2.5 * 6 / 4, threads=threads)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(old)
        assert len(layers) == (2 if fail else 8)
        seen = [(size, cells) for (kind, _), size, cells in recording.sized
                if kind == "minimum.reduce"]
        # d >= 2: the min-reduce writes a pitch of cells per row, 16 at
        # layer 1 up to 88 at layer 8
        assert all(size == (96 if d == 1 else row_buffer_size(cells)) for size, cells in seen)
        assert {size for size, _ in seen} == ({96} if d == 1 else
                                              {16, 32} if fail else {16, 32, 48, 64, 80, 96})


@pytest.mark.parametrize("row, size", [(1, 16), (8, 16), (9, 16), (16, 16), (17, 32),
                                       (1920, 1920), (1930, 1936), (4100, 4096),
                                       (10 ** 8, 4096)])
def test_row_buffer_rounds_up_to_sixteen_and_never_grows(row, size):
    # numpy takes only multiples of 16 (ValueError otherwise), and at most
    # 10**7 cells: a row past the caller's size keeps the caller's size
    old = np.setbufsize(4096)
    try:
        with row_buffer(row):
            assert np.getbufsize() == size
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 1000])
def test_aligned_empty_shape_and_alignment(n):
    # eight live allocations, at whatever offsets malloc gives them, all give
    # an aligned view of n writable cells
    bufs = [aligned_empty(n) for _ in range(8)]
    for buf in bufs:
        assert buf.shape == (n,) and buf.dtype == np.float64
        assert buf.ctypes.data % 64 == 0
        buf[:] = 1.0
        assert buf.sum() == n


def _plain_costs(lagrangian, offsets, big_m, dx, dt):
    """Every offset's costs by target residue from their own midpoints, with no
    mirror: cos 2 pi (1 - y) is not bitwise cos 2 pi y, so the costs of o and
    -o are not each other's flip."""
    d = offsets.shape[1]
    res = grid_points([np.arange(big_m)] * d).reshape((big_m,) * d + (d,))
    return np.stack([dt * lagrangian(np.mod(2 * res - o, 2 * big_m) / (2.0 * big_m),
                                     np.broadcast_to(o * dx / dt, res.shape))
                     for o in offsets])


@pytest.mark.parametrize("d, big_m, s", [(1, 6, 2.0), (2, 5, 1.5), (3, 4, 1.5)])
def test_costs_are_the_target_midpoint_formula(d, big_m, s):
    # cell (o, r) of the first half of the steps is dt L(((2 r - o) mod 2M)
    # / (2M), o dx / dt) bitwise, and the zero step keeps the lesser of its
    # values at r and (-r) mod M; the mirror test below covers the others
    table = compute_metric_table(OSC_BY_DIMENSION[d], horizon=0.25, dt=0.25,
                                 dx=1.0 / big_m, vmax=s / big_m / 0.25)
    plain = _plain_costs(table.lagrangian, table.offsets, big_m, table.dx, table.dt)
    half = len(plain) // 2
    assert table.costs[:half].tobytes() == plain[:half].tobytes()
    zero = plain[half]
    assert table.costs[half].tobytes() == \
        np.minimum(zero, zero[np.ix_(*[-np.arange(big_m) % big_m] * d)]).tobytes()


def _loop_costs(lagrangian, offsets, big_m, dx, dt):
    """The step costs as one L call per step up to the zero step, the others
    mirrored: the loop that _cost_tiles's one broadcast call replaces."""
    n, d = offsets.shape
    res = grid_points([np.arange(big_m)] * d).reshape((big_m,) * d + (d,))
    costs = np.empty((n,) + (big_m,) * d)
    for o, cost in zip(offsets[:n // 2 + 1], costs):
        mid = np.mod(2 * res - o, 2 * big_m) / (2.0 * big_m)
        cost[...] = dt * lagrangian(mid, np.broadcast_to(o * dx / dt, mid.shape))
    flip = np.ix_(*[-np.arange(big_m) % big_m] * d)
    costs[n // 2] = np.minimum(costs[n // 2], costs[n // 2][flip])
    costs[n // 2 + 1:] = costs[n // 2 - 1::-1][(slice(None),) + flip]
    return costs


@pytest.mark.parametrize("d, big_m", [(d, big_m) for d in (1, 2, 3)
                                      for big_m in (2, 4, 6, 8, 12, 16, 128, 256)
                                      if d < 3 or big_m <= 16])
def test_broadcast_costs_equal_the_per_step_loop(d, big_m):
    # random cosine series with wave components in [-2, 2], non-separable
    # ones included, at step radii 1 to 3.5 and three time steps
    rng = np.random.default_rng(100 * d + big_m)
    for s, dt in [(1.0, 0.25), (2.5, 0.125), (3.5, 1 / 6)]:
        waves = rng.integers(-2, 3, size=(3, d))
        lagr = build_lagrangian(cosine_spec(d, rng.uniform(2.0, 4.0), *[
            (amp, tuple(int(c) for c in k)) for amp, k in zip(rng.uniform(-1, 1, 3), waves)]))
        dx = 1.0 / big_m
        offsets, costs = metric._step_graph(lagr, dt, dx, s * dx / dt)
        assert costs.tobytes() == _loop_costs(lagr, offsets, big_m, dx, dt).tobytes()


@pytest.mark.parametrize("d, big_m, s", [(1, 6, 2.0), (2, 6, 2.5)])
def test_half_frame_needs_the_mirrored_tiles(monkeypatch, d, big_m, s):
    # the half-frame layers equal the full gather DP only because the costs
    # mirror: with plain costs the flipped half differs from the full DP
    monkeypatch.setattr("hjhom.metric._cost_tiles", _plain_costs)
    lagr = OSC if d == 1 else OSC2
    table = compute_metric_table(lagr, horizon=2.0, dt=0.25, dx=1.0 / big_m,
                                 vmax=s / big_m / 0.25)
    _, layers, _ = gather_kernel_layers(table, 8, "all")
    assert any(got.tobytes() != ref.tobytes() for got, ref in zip(table.layers, layers))


WAVES = st.lists(st.integers(-2, 2), min_size=2, max_size=2)


@settings(max_examples=25, deadline=None)
@example(d=2, big_m=4, s=1.5, n_steps=3, a0=2.0, terms=[(0.75, [1, 1])])
@given(d=st.sampled_from([1, 2]), big_m=st.sampled_from([2, 3, 4, 6]),
       s=st.sampled_from([1.0, 1.5, 2.0]), n_steps=st.integers(1, 3),
       a0=st.floats(1.0, 3.0),
       terms=st.lists(st.tuples(st.floats(-1.0, 1.0), WAVES), min_size=1, max_size=2))
def test_random_cosine_potentials_give_even_tables(d, big_m, s, n_steps, a0, terms):
    # every cosine series V is even, non-separable wave vectors such as
    # (1, 1) included: the costs of o and -o mirror bitwise by target residue,
    # costs[-o][(-r) mod M] = costs[o][r], every layer equals its flip
    # bitwise, and the table is the reference DP
    lagr = build_lagrangian(cosine_spec(d, a0, *[(amp, k[:d]) for amp, k in terms]))
    dt, dx = 0.25, 1.0 / big_m
    vmax = s * dx / dt
    table = compute_metric_table(lagr, horizon=n_steps * dt, dt=dt, dx=dx, vmax=vmax)
    flip = np.ix_(*[-np.arange(big_m) % big_m] * d)
    assert table.costs.shape == (len(table.offsets),) + (big_m,) * d
    for costs, partner in zip(table.costs, table.costs[::-1]):
        assert costs.tobytes() == partner[flip].tobytes()
    for layer in table.layers:
        assert layer.tobytes() == np.flip(layer).tobytes()
    ref = brute_metric(lagr, n_steps, dt, dx, vmax)
    layer, reach = table.layer(n_steps * dt)
    assert np.isfinite(layer).sum() == len(ref)
    for j, want in ref.items():
        assert layer[tuple(np.add(j, reach))] == pytest.approx(want, abs=1e-12), j


def test_threads_rejects_fewer_than_one():
    with pytest.raises(ConfigurationError, match="threads"):
        compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.25, vmax=4.0, threads=0)


@pytest.mark.parametrize("threads", [2.0, 1.5])
def test_threads_rejects_a_count_that_is_not_an_integer(threads):
    # 2.0 used to pass the check and fail with TypeError once a layer was
    # split between threads
    with pytest.raises(ConfigurationError, match="integer"):
        compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.25, vmax=4.0,
                             threads=threads)


def test_one_dimensional_table_takes_one_thread():
    # splitting a d = 1 layer's chunks between threads was measured no
    # faster than one thread, so a count above 1 is refused, not ignored
    with pytest.raises(ConfigurationError, match="threads = 2: a d = 1 table"):
        compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.25, vmax=4.0, threads=2)


@pytest.mark.parametrize("vmax", [np.nan, np.inf, -np.inf, 0.0])
def test_speed_cap_must_be_finite_and_positive(vmax):
    # nan used to pass the reach check, and then the table and the cell
    # oracle failed with a bare ValueError; inf failed with OverflowError
    with pytest.raises(ConfigurationError, match="vmax"):
        compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.25, vmax=vmax)
    with pytest.raises(ConfigurationError, match="vmax"):
        cell_problem_oracle(FREE, [0.0], t_long=4.0, dt=0.25, dx=0.25, vmax=vmax)


@pytest.mark.parametrize("dt, dx", [(0.25, 0.0), (0.25, -0.25), (0.25, np.nan),
                                    (0.25, np.inf), (0.0, 0.25), (-0.25, 0.25),
                                    (np.nan, 0.25)])
def test_grid_steps_must_be_finite_and_positive(dt, dx):
    # dx = 0 raised a bare ZeroDivisionError in all three; dx < 0 raised
    # ValueError in the cell oracle and "empty reachable set" in the others
    with pytest.raises(ConfigurationError, match=r"d[tx] = \S+ must be finite and > 0"):
        compute_metric_table(FREE, horizon=1.0, dt=dt, dx=dx, vmax=4.0)
    with pytest.raises(ConfigurationError, match=r"d[tx] = \S+ must be finite and > 0"):
        cell_problem_oracle(FREE, [0.0], t_long=4.0, dt=dt, dx=dx, vmax=4.0)
    with pytest.raises(ConfigurationError, match=r"d[tx] = \S+ must be finite and > 0"):
        build_effective_model(FREE, v_box_half=1.0, v_step=0.5, n_max=2, dt=dt, dx=dx,
                              vmax=4.0)


def test_split_table_equals_serial_under_thread_switches(monkeypatch):
    # more threads than cores, switching every microsecond: a lost or
    # doubled write into a shared layer would change its bytes; the last
    # layer's width 2 * 49 + 1 = 99 leaves 5 pad cells in each row's pitch
    monkeypatch.setattr("hjhom.metric.SPLIT_MIN_CELLS", 0)
    kw = dict(horizon=1.75, dt=0.25, dx=0.125, vmax=3.5, keep="all")
    serial = compute_metric_table(OSC2, **kw)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = compute_metric_table(OSC2, threads=5, **kw)
    finally:
        sys.setswitchinterval(interval)
    assert [a.tobytes() for a in split.layers] == [a.tobytes() for a in serial.layers]
    for t, x in [(1.0, (1.0, -0.5)), (1.75, (2.5, 1.25)), (1.5, (-0.625, 0.0))]:
        want = extract_minimizing_path(serial, t, x)
        got = extract_minimizing_path(split, t, x)
        assert np.array_equal(got.nodes, want.nodes)
        assert got.cost == want.cost


def loop_backtrack(table, t, x):
    """The per-offset loop form of path backtracking, kept as the reference:
    the first offset whose sum equals the table value, else the first
    minimum.  Returns (lattice nodes, cost)."""
    big_m = round(1.0 / table.dx)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cur = np.round(x / table.dx).astype(int)
    nodes = [cur.copy()]
    for k in range(round(t / table.dt), 0, -1):
        arr_prev = table.layers[k - 1]
        reach_prev = arr_prev.shape[0] // 2
        target_val = table.layers[k][tuple(cur + table.layers[k].shape[0] // 2)]
        best = best_off = None
        for o, costs in zip(table.offsets, table.costs):
            src = cur - o
            if np.any(np.abs(src) > reach_prev):
                continue
            pv = arr_prev[tuple(src + reach_prev)]
            if not np.isfinite(pv):
                continue
            cand = pv + costs[tuple(np.mod(cur, big_m))]
            if cand == target_val:
                best_off = o
                break
            if best is None or cand < best:
                best, best_off = cand, o
        cur = cur - best_off
        nodes.append(cur.copy())
    nodes.reverse()
    return np.asarray(nodes), table.value_at(t, x)


# (lagrangian, horizon, dt, dx, vmax, targets); every case backtracks through
# steps where several increments reach the minimum
BACKTRACK_CASES = [
    (FREE, 1.0, 0.25, 0.25, 4.0, [(1.0, 2.0), (1.0, 0.0), (0.75, -1.25)]),
    (OSC, 2.0, 0.125, 0.125, 6.0, [(1.0, 2.0), (2.0, 3.0), (1.0, -1.0), (2.0, 0.375)]),
    (FREE2, 1.0, 0.25, 0.25, 4.0, [(1.0, (1.0, 0.5)), (1.0, (0.0, 0.0))]),
    (OSC2, 2.0, 0.25, 0.125, 4.0, [(1.0, (1.0, -0.5)), (2.0, (2.5, 1.25)),
                                   (1.5, (-0.625, 0.0))]),
]


@pytest.mark.parametrize("case", range(len(BACKTRACK_CASES)))
def test_vectorised_backtracking_equals_loop(case):
    lagr, horizon, dt, dx, vmax, targets = BACKTRACK_CASES[case]
    table = compute_metric_table(lagr, horizon=horizon, dt=dt, dx=dx, vmax=vmax)
    for t, x in targets:
        path = extract_minimizing_path(table, t, x)
        nodes, cost = loop_backtrack(table, t, x)
        assert np.array_equal(path.nodes, nodes * dx)
        assert path.cost == cost
        assert path_cost(lagr, dt, path.nodes, np.diff(path.nodes, axis=0)) == \
            pytest.approx(cost, abs=1e-10)


def _csv_per_cell(table, path):
    """Reference: the export with a cone norm test |z| <= vmax t and a finite
    test per cell; equal bytes pin that every reached cell lies in the cone."""
    from hjhom.util import format_float
    with open(path, "w") as fh:
        fh.write(
            "# schema=hjhom.metric.v1 "
            f"dt={format_float(table.dt)} dx={format_float(table.dx)} "
            f"vmax={format_float(table.vmax)} cone={format_float(table.vmax)} "
            f"spec={table.lagrangian.spec.content_hash()}\n")
        cols = ["k"] + [f"z{i+1}" for i in range(table.dimension)] + ["value"]
        fh.write(",".join(cols) + "\n")
        for pos, k in enumerate(table.layer_times):
            arr = table.layers[pos]
            reach = arr.shape[0] // 2
            lim = table.vmax * (k * table.dt)
            for j in np.ndindex(arr.shape):
                z = (np.asarray(j) - reach) * table.dx
                if np.linalg.norm(z) <= lim + 1e-9 and np.isfinite(arr[j]):
                    row = [str(int(k))] + [format_float(c) for c in z]
                    fh.write(",".join(row + [format_float(arr[j])]) + "\n")


@pytest.mark.parametrize("lagr, kw", [
    (OSC, dict(horizon=2.0, dt=0.25, dx=0.125, vmax=3.0)),
    (OSC2, dict(horizon=1.5, dt=0.25, dx=0.25, vmax=4.0)),
    # step radius 6.6: the reach polygon leaves cone cells +inf
    (OSC2, dict(horizon=1.5, dt=0.25, dx=0.125, vmax=3.3)),
])
def test_csv_export_matches_per_cell_reference(tmp_path, lagr, kw):
    table = compute_metric_table(lagr, **kw)
    table.to_csv(tmp_path / "a.csv")
    _csv_per_cell(table, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
