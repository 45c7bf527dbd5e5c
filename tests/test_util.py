"""Randomized cross-checks of the interpolation helpers against scalar
brute-force references."""

import itertools

import numpy as np
import pytest

from hjhom.util import box_cell, grid_points, multilinear, round_half_toward_zero

DIMENSIONS = (1, 2, 4)


def brute_multilinear(values, i0, w):
    """One point, corner by corner; a corner past the end of ``values`` must
    have weight 0."""
    total = 0.0
    for corner in itertools.product((0, 1), repeat=values.ndim):
        wt = 1.0
        for c, wa in zip(corner, w):
            wt *= wa if c else 1.0 - wa
        idx = tuple(int(i) + c for i, c in zip(i0, corner))
        if any(j >= n for j, n in zip(idx, values.shape)):
            assert wt == 0.0
            continue
        total += wt * values[idx]
    return total


def brute_box_cell(axes, pt):
    """One point, axis by axis: the cell whose lower node is at or below the
    query, the last cell at the upper end."""
    i0, w = [], []
    for nodes, q in zip(axes, pt):
        u = (q - nodes[0]) / (nodes[1] - nodes[0])
        i = min(int(np.floor(u)), len(nodes) - 2)
        i0.append(i)
        w.append(u - i)
    return i0, w


def random_values(rng, d):
    shape = tuple(rng.integers(1, 5 if d == 4 else 7, size=d))
    return rng.normal(size=shape)


def random_cells(rng, shape, n_pts):
    """Cells as box_cell makes them, lower corners 0..max(n - 2, 0), with
    exact nodes (w = 0) and upper-boundary weights (w = 1) mixed in; an axis
    with one node has w = 0."""
    i0 = np.stack([rng.integers(0, max(n - 1, 1), size=n_pts) for n in shape], axis=-1)
    w = rng.random((n_pts, len(shape)))
    w[rng.random(w.shape) < 0.3] = 0.0
    w[rng.random(w.shape) < 0.1] = 1.0
    w[:, np.asarray(shape) == 1] = 0.0
    return i0, w


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("seed", range(4))
def test_multilinear_matches_brute_force(d, seed):
    rng = np.random.default_rng(100 * d + seed)
    values = random_values(rng, d)
    i0, w = random_cells(rng, values.shape, 300)
    got = multilinear(values, i0, w)
    want = [brute_multilinear(values, i, ww) for i, ww in zip(i0, w)]
    assert np.array_equal(got, want)


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
    values = random_values(rng, d)
    nodes = grid_points([np.arange(n) for n in values.shape])
    got = multilinear(values, nodes, np.zeros(nodes.shape))
    assert np.array_equal(got, values.ravel())


@pytest.mark.parametrize("d", DIMENSIONS)
def test_multilinear_is_exact_on_multilinear_functions(d):
    rng = np.random.default_rng(20 + d)
    a, b = rng.normal(size=d), rng.normal(size=d)
    shape = tuple(rng.integers(2, 5 if d == 4 else 7, size=d))
    nodes = grid_points([np.arange(n) for n in shape])
    values = np.prod(a + b * nodes, axis=-1).reshape(shape)
    pts = rng.random((200, d)) * (np.asarray(shape) - 1)
    i0 = np.minimum(np.floor(pts).astype(int), np.asarray(shape) - 2)
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
    pts = lo + rng.uniform(0.0, 1.0, size=(400, d)) * (hi - lo)
    # exact nodes and exact box faces
    pick = rng.random(pts.shape) < 0.3
    nodes = np.stack([rng.choice(a, size=len(pts)) for a in axes], axis=-1)
    pts[pick] = nodes[pick]
    pts[:5] = lo
    pts[5:10] = hi
    i0, w = box_cell(axes, pts)
    for k, pt in enumerate(pts):
        bi, bw = brute_box_cell(axes, pt)
        assert i0[k].tolist() == bi and w[k].tolist() == bw
    # the cell reproduces the query
    steps = np.asarray([a[1] - a[0] for a in axes])
    np.testing.assert_allclose(lo + (i0 + w) * steps, pts, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_box_cell_clamps_to_the_face_value(d):
    # the clamp absorbs roundoff past a face
    rng = np.random.default_rng(50 + d)
    values = rng.normal(size=tuple(rng.integers(2, 5, size=d)))
    axes = [np.linspace(-1.0, 1.0, n) for n in values.shape]
    for pt, corner in ((1.0 + 1e-15, -1), (-1.0 - 1e-15, 0)):
        i0, w = box_cell(axes, np.full((1, d), pt))
        assert multilinear(values, i0, w)[0] == values[(corner,) * d]


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


def test_round_half_toward_zero_ties():
    # the geodesic chain's rounding: .5 ties go toward 0, other values to
    # the nearest integer, and -0.0 comes out as +0.0
    x = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, -0.6, 0.6, 1.1, -0.0])
    got = round_half_toward_zero(x)
    np.testing.assert_array_equal(got, [-2, -1, 0, 0, 1, 2, -1, 1, 1, 0])
    assert not np.any(np.signbit(got[got == 0]))  # no -0.0
