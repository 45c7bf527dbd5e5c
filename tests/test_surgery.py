import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjhom import (
    DomainError,
    ResolutionError,
    build_lagrangian,
    compute_metric_table,
    cosine_spec,
    extract_minimizing_path,
)
from hjhom.surgery import (
    Crossing,
    _shifted,
    find_crossing,
    path_surgery,
    surgery_csv,
)

OSC2 = build_lagrangian(cosine_spec(2, 3.0, (1.0, (1, 0)), (1.0, (0, 1))))
FREE2 = build_lagrangian(cosine_spec(2, 1.0))


def wiggly_path(n=16, seed=0):
    rng = np.random.default_rng(seed)
    inc = rng.uniform(-1, 1, size=(n, 2))
    return np.vstack([[0.0, 0.0], np.cumsum(inc, axis=0)])


def witness(eta1, eta2, cr):
    """The point both shifted paths pass at the crossing step (their midpoint)."""
    return 0.5 * (_shifted(eta1, cr.m1)[cr.j] + _shifted(eta2, cr.m2)[cr.j])


# the cyclic shift by m steps that find_crossing scores

def test_cyclic_shift_identity_cases():
    path = wiggly_path()
    for m in (0, len(path) - 1):
        np.testing.assert_allclose(_shifted(path, m), path, atol=1e-12)


def test_cyclic_shift_straight_line_invariant():
    times = np.arange(9) * 0.5
    nodes = np.column_stack([2.0 * times, -1.0 * times])
    np.testing.assert_allclose(_shifted(nodes, 3), nodes, atol=1e-12)


def test_cyclic_shift_preserves_increment_multiset():
    path = wiggly_path(n=12)
    out = _shifted(path, 4)
    a = np.diff(path, axis=0)
    b = np.diff(out, axis=0)
    np.testing.assert_allclose(np.vstack([a[4:], a[:4]]), b, atol=1e-12)
    # start and endpoint displacement unchanged
    np.testing.assert_array_equal(out[0], path[0])
    np.testing.assert_allclose(out[-1] - out[0], path[-1] - path[0], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1,
                      max_size=24),
       start=st.tuples(st.integers(-16, 16), st.integers(-16, 16)),
       dx=st.sampled_from([0.125, 0.25, 0.5]), data=st.data())
def test_cyclic_shift_keeps_start_end_and_increments(steps, start, dx, data):
    # a lattice path (steps of whole multiples of dx, so every sum is exact):
    # any shift keeps the start and the end bitwise, and its increments are
    # the path's increments rotated left by m, so the same multiset
    nodes = dx * np.vstack([start, np.add(start, np.cumsum(steps, axis=0))])
    m = data.draw(st.integers(0, len(steps)))
    out = _shifted(nodes, m)
    assert out.shape == nodes.shape
    assert out[0].tobytes() == nodes[0].tobytes()
    assert out[-1].tobytes() == nodes[-1].tobytes()
    incs = np.diff(nodes, axis=0)
    np.testing.assert_array_equal(np.diff(out, axis=0), np.roll(incs, -m, axis=0))
    assert sorted(map(tuple, np.diff(out, axis=0))) == sorted(map(tuple, incs))


def test_find_crossing_symmetric_straight_lines():
    # eta1: A -> 0, eta2: 0 -> A along the first axis, both straight over t = 2
    t, a, n = 2.0, 1.0, 16
    s = np.arange(n + 1) * (t / n)
    eta1 = np.column_stack([a * (1 - s / t), 0 * s])
    eta2 = np.column_stack([a * s / t, 0 * s])
    cr = find_crossing(eta1, eta2)
    assert cr.separation <= 1e-9
    assert cr.j == n // 2
    assert witness(eta1, eta2, cr)[0] == pytest.approx(a / 2)


def test_find_crossing_degenerate_a_zero():
    eta = np.zeros((9, 2))
    cr = find_crossing(eta, eta.copy())
    assert cr.separation <= 1e-12
    assert (cr.m1, cr.m2, cr.j) == (0, 0, 0)


def test_find_crossing_translated_paths():
    # identical wiggly paths separated in the second coordinate only; shifting
    # by the second-coordinate extremizer must produce a crossing
    base = wiggly_path(n=16, seed=3)
    eta2 = base.copy()
    eta2[:, 1] += 0.8 * np.sin(np.linspace(0, np.pi, len(eta2)))
    cr = find_crossing(base, eta2)
    assert np.isfinite(cr.separation)


def test_find_crossing_rejects_mismatched_lattices():
    with pytest.raises(DomainError):
        find_crossing(np.zeros((9, 2)), np.zeros((8, 2)))


def test_path_surgery_free_case_returns_input():
    table = compute_metric_table(FREE2, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)
    gamma = extract_minimizing_path(table, 4.0, np.array([4.0, 0.0]))
    res = path_surgery(gamma, table)
    assert res.gap == 0.0
    assert res.crossing is None
    lemma_gap = 2 * table.value_at(2.0, [2.0, 0.0]) - table.value_at(4.0, [4.0, 0.0])
    assert lemma_gap == pytest.approx(0.0, abs=1e-9)


def test_path_surgery_oscillatory_sample():
    table = compute_metric_table(OSC2, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)
    t, x = 2.0, np.array([2.0, 1.0])
    gamma = extract_minimizing_path(table, 4.0, 2 * x)
    res = path_surgery(gamma, table)
    # lemma gap: subadditivity side is exact for the discrete metric
    assert 2 * table.value_at(t, x) - table.value_at(2 * t, 2 * x) >= -1e-9
    # the spliced path is a valid witness: through (t, x), correct endpoints
    path = res.path
    k_mid = int(round(t / path.dt))
    np.testing.assert_allclose(path.nodes[0], [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(path.nodes[k_mid], x, atol=1e-6)
    np.testing.assert_allclose(path.nodes[-1], 2 * x, atol=1e-6)
    speeds = np.linalg.norm(np.diff(path.nodes, axis=0), axis=1) / path.dt
    assert speeds.max() <= table.vmax + 0.5
    # witness inequality: 2 m(t,0,x) <= cost(new path) = m(2t,0,2x) + gap
    assert 2 * table.value_at(t, x) <= path.cost + 1e-6
    assert res.gap >= -1e-9


def test_path_surgery_rejects_odd_steps():
    table = compute_metric_table(OSC2, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)
    gamma = extract_minimizing_path(table, 4.0, np.array([2.0, 0.0]))
    from hjhom.metric import DiscretePath
    bad = DiscretePath(gamma.dt, gamma.nodes[:-1], gamma.cost)
    with pytest.raises(DomainError):
        path_surgery(bad, table)


def test_surgery_csv(tmp_path):
    table = compute_metric_table(OSC2, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)
    rows = []
    for x in ([1, 0], [1, 1]):
        gamma = extract_minimizing_path(table, 4.0, 2 * np.asarray(x))
        rows.append((2.0, np.asarray(x), 0.25, path_surgery(gamma, table)))
    out = tmp_path / "surgery.csv"
    surgery_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[1].startswith("t,x1,x2,lemma_gap,")
    assert len(lines) == 4
    # integer endpoints are written as floats, the lemma gap as given
    assert lines[2].startswith("2.0,1.0,0.0,0.25,") and lines[3].startswith("2.0,1.0,1.0,0.25,")
    # the crossing's step counts are written as times
    for line, (*_, res) in zip(lines[2:], rows):
        c = res.crossing
        want = (c.m1, c.m2, c.j) if c else (0, 0, 0)
        assert [float(f) for f in line.split(",")[5:8]] == [k * table.dt for k in want]


def _least_separation(eta1, eta2):
    """Reference: the least separation of the shifted paths, by loops over
    every shift pair and step, the first in (m1, m2, j) order on ties, and
    the tolerance (longest step + 1e-9) find_crossing holds it to."""
    n = len(eta1) - 1
    tolerance = max(np.linalg.norm(np.diff(eta, axis=0), axis=1).max()
                    for eta in (eta1, eta2)) + 1e-9

    def shifted(path, m):
        inc = np.roll(np.diff(path, axis=0), -m, axis=0)
        return np.vstack([path[0], path[0] + np.cumsum(inc, axis=0)])

    best = None
    for m1 in range(n + 1):
        for m2 in range(n + 1):
            diff = shifted(eta1, m1) - shifted(eta2, m2)
            for j in range(n + 1):
                sep = float(np.sqrt(np.sum(diff[j] * diff[j])))
                if best is None or sep < best.separation:
                    best = Crossing(m1=m1, m2=m2, j=j, separation=sep)
    return best, tolerance


def _random_pairs():
    rng = np.random.default_rng(5)
    for case in range(60):
        n = int(rng.integers(1, 13))
        if case % 3 == 0:
            # dyadic steps: exact crossings and tied separations
            inc1 = rng.integers(-2, 3, size=(n, 2)) * 0.5
            inc2 = rng.integers(-2, 3, size=(n, 2)) * 0.5
        else:
            inc1 = rng.uniform(-1, 1, size=(n, 2))
            inc2 = rng.uniform(-1, 1, size=(n, 2))
        a = 0.0 if case % 5 == 0 else float(rng.uniform(0, 1.5))
        nodes1 = np.vstack([[a, 0.0], [a, 0.0] + np.cumsum(inc1, axis=0)])
        nodes2 = np.vstack([[0.0, 0.0], np.cumsum(inc2, axis=0)])
        if case % 7 == 0:
            nodes2 = nodes1.copy()      # identical paths: every pair ties at 0
        yield nodes1, nodes2
    # straight lines meeting at one node, and a = 0 with constant paths
    s = np.arange(9) * 0.25
    yield np.column_stack([1 - s / 2, 0 * s]), np.column_stack([s / 2, 0 * s])
    yield np.zeros((9, 2)), np.zeros((9, 2))


def test_find_crossing_matches_brute_force_minimum():
    exact = errors = 0
    for eta1, eta2 in _random_pairs():
        want, tolerance = _least_separation(eta1, eta2)
        if want.separation > tolerance:
            errors += 1
            with pytest.raises(ResolutionError, match="no crossing within tolerance"):
                find_crossing(eta1, eta2)
            continue
        exact += want.separation == 0.0
        assert find_crossing(eta1, eta2) == want
    assert exact >= 10 and errors >= 1
