import itertools

import numpy as np
import pytest

from hjhom import (
    Cone,
    ConfigurationError,
    DomainError,
    UnreachableError,
    build_lagrangian,
    compute_metric_table,
    cosine_spec,
    extract_minimizing_path,
    metric_point,
)
from hjhom.metric import path_cost


def max_speed(path):
    return float(np.max(np.linalg.norm(np.diff(path.nodes, axis=0), axis=1)) / path.dt)


def brute_metric(lagrangian, n_steps, dt, dx, vmax):
    """Reference DP over a dict of integer lattice indices (independent of the
    array/tile implementation)."""
    d = lagrangian.dimension
    s = int(np.floor(vmax * dt / dx + 1e-9))
    offs = [o for o in itertools.product(range(-s, s + 1), repeat=d)
            if np.linalg.norm(o) <= vmax * dt / dx + 1e-9]
    vals = {(0,) * d: 0.0}
    for _ in range(n_steps):
        new = {}
        for j, val in vals.items():
            for o in offs:
                tgt = tuple(np.add(j, o))
                mid = np.mod((np.asarray(j) + np.asarray(o) / 2.0) * dx, 1.0)
                v = np.asarray(o) * dx / dt
                cost = val + dt * float(lagrangian(mid, v))
                if cost < new.get(tgt, np.inf):
                    new[tgt] = cost
        vals = new
    return vals


def gather_kernel_layers(table, n_layers, keep):
    """The gather form of the metric DP, kept as the bitwise reference.

    Every layer gathers a full cost array from the residue tiles, adds it to
    the previous layer and min-es it into the shifted target slice.  Returns
    (layer_times, layers, reaches) as compute_metric_table stores them.
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
        ax_idx = [np.mod(np.arange(-prev_reach, prev_reach + 1), big_m)] * d
        for o, tile in zip(table.offsets, table.tiles):
            cost = tile[np.ix_(*ax_idx)] if d > 1 else tile[ax_idx[0]]
            cand = prev + cost
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
    table = compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.25, vmax=2.0,
                                 cone=Cone(4.0))
    with pytest.raises(UnreachableError):
        extract_minimizing_path(table, 0.25, 1.0)  # needs speed 4 > vmax


# metric_point with off-integer x rounds both endpoints (ties toward 0) and
# pulls the difference into the cone at time ceil t

def test_round_into_cone_examples():
    table = compute_metric_table(FREE2, horizon=3.0, dt=0.25, dx=0.25, vmax=4.0)
    half = np.array([0.5, 0.5])                        # rounds to (0, 0)
    assert metric_point(table, 3.0, half, half + [2.0, 1.0]) == \
        table.value_at(3.0, [2.0, 1.0])
    assert metric_point(table, 2.2, half, half + [0.6, -0.2]) == \
        table.value_at(3.0, [1.0, 0.0])
    assert metric_point(table, 1.0, half, half + [4.0, 0.0]) == \
        table.value_at(1.0, [4.0, 0.0])
    with pytest.raises(DomainError):
        metric_point(table, 0.5, half, half + [3.0, 0.0])


def test_round_into_cone_pulls_inward():
    table = compute_metric_table(FREE2, horizon=2.0, dt=0.25, dx=0.25, vmax=4.0,
                                 cone=Cone(1.0))
    half = np.array([0.5, 0.5])
    # [y] - [x] = (2, 2) leaves the cone |z| <= 2: pulled to (1, 1)
    got = metric_point(table, 2.0, half, half + [1.6, 1.2])
    assert got == table.value_at(2.0, [1.0, 1.0])
    assert got != table.value_at(2.0, [2.0, 2.0])


def test_metric_point_integer_translation():
    table = compute_metric_table(OSC, horizon=1.0, dt=0.25, dx=0.25, vmax=4.0)
    assert metric_point(table, 1.0, 5.0, 7.0) == table.value_at(1.0, 2.0)
    assert metric_point(table, 1.0, 0.3, 0.3 + 2.0) == table.value_at(1.0, 2.0)


def test_metric_point_free_case_translation():
    table = compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.25, vmax=4.0)
    got = metric_point(table, 1.0, 0.5, 2.5)
    assert got == pytest.approx(2.0, rel=0.02)


def test_metric_point_outside_cone():
    table = compute_metric_table(FREE, horizon=1.0, dt=0.25, dx=0.25, vmax=2.0)
    with pytest.raises(DomainError):
        metric_point(table, 1.0, 0.0, 5.0)


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
    table = compute_metric_table(OSC, horizon=1.0, dt=0.25, dx=0.25, vmax=4.0)
    for k in (-2.0, 1.0, 3.0):
        assert metric_point(table, 1.0, k, k + 1.0) == table.value_at(1.0, 1.0)


def test_interpolate_reads_stored_layers_only():
    # a time between layers, or a layer the table did not keep, is an error,
    # not a blend of the neighbouring layers
    table = compute_metric_table(OSC, horizon=2.0, dt=0.25, dx=0.25, vmax=4.0)
    assert table.interpolate(1.25, 0.5) == table.value_at(1.25, 0.5)
    with pytest.raises(ConfigurationError):
        table.interpolate(1.1, 0.5)
    kept = compute_metric_table(OSC, horizon=2.0, dt=0.25, dx=0.25, vmax=4.0,
                                keep="integers")
    assert kept.interpolate(2.0, 0.5) == table.interpolate(2.0, 0.5)
    with pytest.raises(ConfigurationError):
        kept.interpolate(1.5, 0.5)


def test_integer_layers_mode_saves_paths_error():
    table = compute_metric_table(FREE, horizon=2.0, dt=0.25, dx=0.25, vmax=4.0,
                                 keep="integers")
    assert table.value_at(2.0, 0.0) == pytest.approx(2.0)
    with pytest.raises(ConfigurationError):
        extract_minimizing_path(table, 2.0, 0.0)


def test_csv_export_roundtrip(tmp_path):
    table = compute_metric_table(FREE, horizon=1.0, dt=0.5, dx=0.5, vmax=2.0)
    out = tmp_path / "metric.csv"
    table.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# schema=hjhom.metric.v1")
    assert lines[1] == "k,z1,value"
    assert any(line.startswith("2,0.0,") for line in lines)


# (d, M = 1/dx, step radius s = vmax dt / dx, layers at dt = 1/4, keep):
# s below and above M; reaches from under M (first layers) to many times M
EQUIVALENCE_CASES = [
    (1, 2, 1.0, 24, "all"), (1, 3, 2.0, 24, "integers"),
    (1, 6, 2.0, 24, "all"), (1, 8, 3.0, 24, "integers"),
    (1, 2, 5.0, 8, "integers"), (1, 3, 7.0, 8, "all"),
    (1, 6, 9.0, 8, "integers"), (1, 8, 11.0, 8, "all"),
    (2, 2, 1.5, 16, "all"), (2, 3, 1.5, 16, "integers"),
    (2, 6, 2.5, 12, "all"), (2, 8, 2.5, 12, "integers"),
    (2, 2, 3.0, 4, "integers"), (2, 3, 4.5, 4, "all"),
    (2, 6, 7.0, 4, "integers"), (2, 8, 9.0, 4, "all"),
]


@pytest.mark.parametrize("d,big_m,s,n_layers,keep", EQUIVALENCE_CASES)
def test_frame_kernel_bitwise_equals_gather_kernel(d, big_m, s, n_layers, keep):
    lagr = OSC if d == 1 else OSC2
    dt, dx = 0.25, 1.0 / big_m
    table = compute_metric_table(lagr, horizon=n_layers * dt, dt=dt, dx=dx,
                                 vmax=s * dx / dt, keep=keep)
    times, layers, reaches = gather_kernel_layers(table, n_layers, keep)
    assert table.layer_times.tolist() == times
    assert table.reaches == reaches
    assert reaches[-1] >= 3 * big_m
    for got, want in zip(table.layers, layers):
        assert np.array_equal(got, want)


def loop_backtrack(table, t, x):
    """The per-offset loop form of path backtracking, kept as the reference:
    the first offset whose sum equals the table value, else the first
    minimum.  Returns (lattice nodes, cost)."""
    big_m = round(1.0 / table.dx)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cur = np.round(x / table.dx).astype(int)
    nodes = [cur.copy()]
    for k in range(round(t / table.dt), 0, -1):
        arr_prev, reach_prev = table.layers[k - 1], table.reaches[k - 1]
        target_val = table.layers[k][tuple(cur + table.reaches[k])]
        best = best_off = None
        for o, tile in zip(table.offsets, table.tiles):
            src = cur - o
            if np.any(np.abs(src) > reach_prev):
                continue
            pv = arr_prev[tuple(src + reach_prev)]
            if not np.isfinite(pv):
                continue
            cand = pv + tile[tuple(np.mod(src, big_m))]
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
    """Reference: the cone export with a norm test per cell."""
    from hjhom.util import format_float
    with open(path, "w") as fh:
        fh.write(
            "# schema=hjhom.metric.v1 "
            f"dt={format_float(table.dt)} dx={format_float(table.dx)} "
            f"vmax={format_float(table.vmax)} cone={format_float(table.cone.speed)} "
            f"spec={table.provenance.get('spec', '?')}\n")
        cols = ["k"] + [f"z{i+1}" for i in range(table.dimension)] + ["value"]
        fh.write(",".join(cols) + "\n")
        for pos, k in enumerate(table.layer_times):
            arr, reach = table.layers[pos], table.reaches[pos]
            lim = table.cone.speed * (k * table.dt)
            for j in np.ndindex(arr.shape):
                z = (np.asarray(j) - reach) * table.dx
                if np.linalg.norm(z) <= lim + 1e-9 and np.isfinite(arr[j]):
                    row = [str(int(k))] + [format_float(c) for c in z]
                    fh.write(",".join(row + [format_float(arr[j])]) + "\n")


@pytest.mark.parametrize("lagr, kw", [
    (OSC, dict(horizon=2.0, dt=0.25, dx=0.125, vmax=3.0, cone=Cone(2.0))),
    (OSC2, dict(horizon=1.5, dt=0.25, dx=0.25, vmax=4.0, cone=Cone(3.0))),
])
def test_csv_export_matches_per_cell_reference(tmp_path, lagr, kw):
    table = compute_metric_table(lagr, **kw)
    table.to_csv(tmp_path / "a.csv")
    _csv_per_cell(table, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
