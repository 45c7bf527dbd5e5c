"""Randomized cross-checks of the interpolation helpers against scalar
brute-force references."""

import itertools

import numpy as np
import pytest

from hjhom.util import box_cell, grid_points, multilinear

DIMENSIONS = (1, 2, 4)


def brute_multilinear(values, i0, w):
    """One point, corner by corner: zero-weight corners are skipped and a
    weighted corner outside ``values`` gives +inf."""
    total = 0.0
    for corner in itertools.product((0, 1), repeat=values.ndim):
        wt = 1.0
        for c, wa in zip(corner, w):
            wt *= wa if c else 1.0 - wa
        if wt == 0.0:
            continue
        idx = tuple(int(i) + c for i, c in zip(i0, corner))
        if any(j < 0 or j >= n for j, n in zip(idx, values.shape)):
            return np.inf
        total += wt * values[idx]
    return total


def brute_box_cell(axes, pt):
    """One point, axis by axis: clamp into [lo, hi], then the cell whose lower
    node is at or below the query, the last cell at the upper end."""
    i0, w, clamped = [], [], False
    for nodes, q in zip(axes, pt):
        lo, hi = float(nodes[0]), float(nodes[-1])
        clamped = clamped or q < lo or q > hi
        u = (min(max(q, lo), hi) - lo) / (nodes[1] - nodes[0])
        i = min(int(np.floor(u)), len(nodes) - 2)
        i0.append(i)
        w.append(u - i)
    return i0, w, clamped


def random_values(rng, d, inf_frac):
    shape = tuple(rng.integers(2, 5 if d == 4 else 7, size=d))
    values = rng.normal(size=shape)
    values[rng.random(shape) < inf_frac] = np.inf
    return values


def random_cells(rng, shape, n_pts):
    """Cells from one below the grid to its last node, with exact nodes
    (w = 0) and upper-boundary weights (w = 1) mixed in."""
    i0 = np.stack([rng.integers(-1, n, size=n_pts) for n in shape], axis=-1)
    w = rng.random((n_pts, len(shape)))
    w[rng.random(w.shape) < 0.3] = 0.0
    w[rng.random(w.shape) < 0.1] = 1.0
    return i0, w


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("seed", range(4))
def test_multilinear_matches_brute_force(d, seed):
    rng = np.random.default_rng(100 * d + seed)
    values = random_values(rng, d, 0.2 if d < 4 else 0.05)
    i0, w = random_cells(rng, values.shape, 300)
    got = multilinear(values, i0, w)
    want = [brute_multilinear(values, i, ww) for i, ww in zip(i0, w)]
    assert np.array_equal(got, want)
    assert not np.isnan(got).any()
    # points with a weighted corner outside the grid are +inf
    n = np.asarray(values.shape)
    low_out = ((i0 < 0) | (i0 >= n)) & (w < 1)
    high_out = ((i0 + 1 < 0) | (i0 + 1 >= n)) & (w > 0)
    outside = np.any(low_out | high_out, axis=1)
    assert outside.any() and np.isinf(got[outside]).all()
    assert np.isfinite(got).any()


@pytest.mark.parametrize("d", DIMENSIONS)
def test_grid_points_lists_nodes_last_axis_fastest(d):
    for axes in ([np.arange(n) - 1 for n in (3, 2, 4, 2)[:d]],
                 [np.linspace(-1.0, 1.0, n) for n in (4, 3, 2, 3)[:d]]):
        want = np.array(list(itertools.product(*axes)))
        got = grid_points(axes)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_multilinear_reads_nodes_exactly(d):
    rng = np.random.default_rng(7 + d)
    values = random_values(rng, d, 0.2)
    nodes = grid_points([np.arange(n) for n in values.shape])
    got = multilinear(values, nodes, np.zeros(nodes.shape))
    assert np.array_equal(got, values.ravel())  # +inf nodes included, no nan


@pytest.mark.parametrize("d", DIMENSIONS)
def test_multilinear_is_exact_on_multilinear_functions(d):
    rng = np.random.default_rng(20 + d)
    a, b = rng.normal(size=d), rng.normal(size=d)
    values = random_values(rng, d, inf_frac=0.0)
    nodes = grid_points([np.arange(n) for n in values.shape])
    values = np.prod(a + b * nodes, axis=-1).reshape(values.shape)
    pts = rng.random((200, d)) * (np.asarray(values.shape) - 1)
    i0 = np.minimum(np.floor(pts).astype(int), np.asarray(values.shape) - 2)
    got = multilinear(values, i0, pts - i0)
    np.testing.assert_allclose(got, np.prod(a + b * pts, axis=-1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("seed", range(3))
def test_box_cell_matches_brute_force(d, seed):
    rng = np.random.default_rng(300 + 10 * d + seed)
    axes = [rng.normal() + rng.uniform(0.1, 2.0) * np.arange(rng.integers(2, 6))
            for _ in range(d)]
    lo = np.asarray([a[0] for a in axes])
    hi = np.asarray([a[-1] for a in axes])
    span = hi - lo
    pts = lo + rng.uniform(-0.3, 1.3, size=(400, d)) * span
    # exact nodes and exact box faces
    pick = rng.random(pts.shape) < 0.3
    nodes = np.stack([rng.choice(a, size=len(pts)) for a in axes], axis=-1)
    pts[pick] = nodes[pick]
    pts[:5] = lo
    pts[5:10] = hi
    i0, w, clamped = box_cell(axes, pts)
    for k, pt in enumerate(pts):
        bi, bw, bc = brute_box_cell(axes, pt)
        assert i0[k].tolist() == bi and w[k].tolist() == bw and clamped[k] == bc
    assert clamped.any() and not clamped.all()
    assert not clamped[:10].any()
    # the cell reproduces the query clamped into the box
    steps = np.asarray([a[1] - a[0] for a in axes])
    np.testing.assert_allclose(lo + (i0 + w) * steps, np.clip(pts, lo, hi),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_box_cell_clamps_to_the_face_value(d):
    rng = np.random.default_rng(50 + d)
    values = random_values(rng, d, inf_frac=0.0)
    axes = [np.linspace(-1.0, 1.0, n) for n in values.shape]
    far = np.full((1, d), 5.0)
    i0, w, clamped = box_cell(axes, far)
    assert clamped.all()
    assert multilinear(values, i0, w)[0] == values[(-1,) * d]


def test_box_cell_upper_face_next_to_inf_is_finite():
    axes = [np.array([0.0, 1.0, 2.0])]
    values = np.array([np.inf, np.inf, 3.0])
    i0, w, clamped = box_cell(axes, np.array([[2.0], [1.5]]))
    got = multilinear(values, i0, w)
    assert got[0] == 3.0 and got[1] == np.inf and not clamped.any()


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("seed", range(3))
def test_wrap_padded_torus_matches_mod_indexing(d, seed):
    rng = np.random.default_rng(500 + 10 * d + seed)
    n = int(rng.integers(2, 5 if d == 4 else 9))
    values = rng.normal(size=(n,) * d)
    padded = np.pad(values, (0, 1), mode="wrap")
    x = rng.uniform(-3.0, 3.0, size=(300, d))
    x[:50] = rng.integers(-3 * n, 3 * n, size=(50, d)) / n  # exact torus nodes
    x[50:60] = -1e-300  # np.mod rounds up to 1: u == n
    u = np.mod(x, 1.0) * n
    i0 = np.floor(u)
    got = multilinear(padded, i0.astype(int), u - i0)
    assert (i0 == n).any()
    for k in range(len(x)):
        want = 0.0
        for corner in itertools.product((0, 1), repeat=d):
            wt = 1.0
            for ax in range(d):
                wt *= (u[k, ax] - i0[k, ax]) if corner[ax] else 1.0 - (u[k, ax] - i0[k, ax])
            idx = tuple((int(i0[k, ax]) + corner[ax]) % n for ax in range(d))
            want += wt * values[idx]
        assert got[k] == want
