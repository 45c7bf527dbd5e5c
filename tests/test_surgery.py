import numpy as np
import pytest

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
    SpaceTimePath2D,
    _shifted_spatial,
    find_crossing,
    path_surgery,
    surgery_csv,
)

OSC2 = build_lagrangian(cosine_spec(2, 3.0, (1.0, (1, 0)), (1.0, (0, 1))))
FREE2 = build_lagrangian(cosine_spec(2, 1.0))


def wiggly_path(n=16, dt=0.25, seed=0):
    rng = np.random.default_rng(seed)
    inc = rng.uniform(-1, 1, size=(n, 2))
    nodes = np.vstack([[0.0, 0.0], np.cumsum(inc, axis=0)])
    times = np.arange(n + 1) * dt
    return SpaceTimePath2D(dt, np.column_stack([times, nodes]))


# the cyclic shift by m steps that find_crossing scores

def test_cyclic_shift_identity_cases():
    path = wiggly_path()
    for m in (0, path.steps):
        np.testing.assert_allclose(_shifted_spatial(path, m), path.spatial(), atol=1e-12)


def test_cyclic_shift_straight_line_invariant():
    times = np.arange(9) * 0.5
    nodes = np.column_stack([times, 2.0 * times, -1.0 * times])
    path = SpaceTimePath2D(0.5, nodes)
    np.testing.assert_allclose(_shifted_spatial(path, 3), nodes[:, 1:], atol=1e-12)


def test_cyclic_shift_preserves_increment_multiset():
    path = wiggly_path(n=12)
    out = _shifted_spatial(path, 4)
    a = np.diff(path.spatial(), axis=0)
    b = np.diff(out, axis=0)
    np.testing.assert_allclose(np.vstack([a[4:], a[:4]]), b, atol=1e-12)
    # start and endpoint displacement unchanged
    np.testing.assert_array_equal(out[0], path.spatial()[0])
    np.testing.assert_allclose(out[-1] - out[0],
                               path.spatial()[-1] - path.spatial()[0], atol=1e-12)


def test_find_crossing_symmetric_straight_lines():
    # eta1: (0,A,0) -> (t,0,0), eta2: (0,0,0) -> (t,A,0); both straight
    t, a, n = 2.0, 1.0, 16
    dt = t / n
    s = np.arange(n + 1) * dt
    eta1 = SpaceTimePath2D(dt, np.column_stack([s, a * (1 - s / t), 0 * s]))
    eta2 = SpaceTimePath2D(dt, np.column_stack([s, a * s / t, 0 * s]))
    cr = find_crossing(eta1, eta2)
    assert cr.separation <= 1e-9
    assert cr.s == pytest.approx(t / 2)
    assert cr.witness[1] == pytest.approx(a / 2)


def test_find_crossing_degenerate_a_zero():
    t, n = 1.0, 8
    dt = t / n
    s = np.arange(n + 1) * dt
    eta1 = SpaceTimePath2D(dt, np.column_stack([s, 0 * s, 0 * s]))
    eta2 = SpaceTimePath2D(dt, np.column_stack([s, 0 * s, 0 * s]))
    cr = find_crossing(eta1, eta2)
    assert cr.separation <= 1e-12
    assert cr.s == 0.0


def test_find_crossing_translated_paths():
    # identical wiggly paths separated in the third coordinate only; shifting
    # by the third-coordinate extremizer must produce a crossing
    base = wiggly_path(n=16, seed=3)
    nodes2 = base.nodes.copy()
    nodes2[:, 2] += 0.8 * np.sin(np.linspace(0, np.pi, len(nodes2)))
    eta2 = SpaceTimePath2D(base.dt, nodes2)
    cr = find_crossing(base, eta2)
    assert np.isfinite(cr.separation)


def test_path_surgery_free_case_returns_input():
    table = compute_metric_table(FREE2, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)
    gamma = extract_minimizing_path(table, 4.0, np.array([4.0, 0.0]))
    res = path_surgery(gamma, table)
    assert res.gap == 0.0
    assert res.crossing is None
    assert res.lemma_gap == pytest.approx(0.0, abs=1e-9)


def test_path_surgery_oscillatory_sample():
    table = compute_metric_table(OSC2, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)
    t, x = 2.0, np.array([2.0, 1.0])
    gamma = extract_minimizing_path(table, 4.0, 2 * x)
    res = path_surgery(gamma, table)
    # lemma gap: subadditivity side is exact for the discrete metric
    assert res.lemma_gap >= -1e-9
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
    for x in ([1.0, 0.0], [1.0, 1.0]):
        gamma = extract_minimizing_path(table, 4.0, 2 * np.asarray(x))
        rows.append((2.0, np.asarray(x), path_surgery(gamma, table)))
    out = tmp_path / "surgery.csv"
    surgery_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[1].startswith("t,x1,x2,")
    assert len(lines) == 4


def _find_crossing_walk(eta1, eta2):
    """Reference: the scan as a walk over shift pairs, stopping at the first
    pair within 1e-12, else keeping the first strict minimum."""
    n = eta1.steps
    step1 = np.linalg.norm(np.diff(eta1.spatial(), axis=0), axis=1).max()
    step2 = np.linalg.norm(np.diff(eta2.spatial(), axis=0), axis=1).max()
    tolerance = max(step1, step2) + 1e-9

    def shifted(path, m):
        inc = np.roll(np.diff(path.nodes[:, 1:], axis=0), -m, axis=0)
        start = path.nodes[0, 1:]
        return np.vstack([start, start + np.cumsum(inc, axis=0)])

    shifted1 = {m: shifted(eta1, m) for m in range(n + 1)}
    shifted2 = {m: shifted(eta2, m) for m in range(n + 1)}
    third1, third2 = eta1.nodes[:, 2], eta2.nodes[:, 2]
    start1, end1 = int(np.argmax(third1)), int(np.argmin(third1))
    start2, end2 = int(np.argmin(third2)), int(np.argmax(third2))

    def walk(start, end, keys):
        keys = sorted(keys)
        si = min(range(len(keys)), key=lambda i: abs(keys[i] - start))
        left, right = keys[:si][::-1], keys[si + 1:]
        return [keys[si]] + (right + left if end >= start else left + right)

    best = None
    for m1 in walk(start1, end1, shifted1.keys()):
        a1 = shifted1[m1]
        for m2 in walk(start2, end2, shifted2.keys()):
            dist = np.linalg.norm(a1 - shifted2[m2], axis=1)
            j = int(np.argmin(dist))
            if best is None or dist[j] < best[0]:
                mid = 0.5 * (a1[j] + shifted2[m2][j])
                best = (float(dist[j]), m1, m2, j, mid)
                if best[0] <= 1e-12:
                    break
        else:
            continue
        break
    sep, m1, m2, j, mid = best
    if sep > tolerance:
        raise ResolutionError("no crossing")
    return Crossing(c1=m1 * eta1.dt, c2=m2 * eta2.dt, s=j * eta1.dt,
                    witness=np.concatenate(([j * eta1.dt], mid)), separation=sep)


def _crossing_or_error(eta1, eta2, fn):
    try:
        return fn(eta1, eta2)
    except ResolutionError:
        return None


def _random_pairs():
    rng = np.random.default_rng(5)
    for case in range(60):
        n = int(rng.integers(1, 13))
        dt = 0.25
        times = np.arange(n + 1) * dt
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
        yield (SpaceTimePath2D(dt, np.column_stack([times, nodes1])),
               SpaceTimePath2D(dt, np.column_stack([times, nodes2])))
    # straight lines meeting at one node, and a = 0 with constant paths
    s = np.arange(9) * 0.25
    yield (SpaceTimePath2D(0.25, np.column_stack([s, 1 - s / 2, 0 * s])),
           SpaceTimePath2D(0.25, np.column_stack([s, s / 2, 0 * s])))
    yield (SpaceTimePath2D(0.25, np.column_stack([s, 0 * s, 0 * s])),
           SpaceTimePath2D(0.25, np.column_stack([s, 0 * s, 0 * s])))


def test_find_crossing_matches_walk_reference():
    exact = errors = 0
    for eta1, eta2 in _random_pairs():
        got = _crossing_or_error(eta1, eta2, find_crossing)
        want = _crossing_or_error(eta1, eta2, _find_crossing_walk)
        assert (got is None) == (want is None)
        if want is None:
            errors += 1
            continue
        exact += want.separation == 0.0
        assert (got.c1, got.c2, got.s, got.separation) == \
            (want.c1, want.c2, want.s, want.separation)
        np.testing.assert_array_equal(got.witness, want.witness)
    assert exact >= 10 and errors >= 1
