"""Randomized cross-checks of util.interpolate against the scalar
brute-force reference, and of the grid helpers."""

import itertools

import numpy as np
import pytest

from interpolation_reference import brute_interpolate
from hjhom.util import grid_points, interpolate, round_half_toward_zero

DIMENSIONS = (1, 2, 4)


def random_values(rng, d):
    shape = tuple(rng.integers(1, 5 if d == 4 else 7, size=d))
    return rng.normal(size=shape)


def random_cell_points(rng, shape, n_pts):
    """Points i0 + w on the integer grid of ``shape``: lower corners
    0..max(n - 2, 0), with exact nodes (w = 0) and upper-boundary weights
    (w = 1) mixed in; an axis with one node has w = 0."""
    i0 = np.stack([rng.integers(0, max(n - 1, 1), size=n_pts) for n in shape], axis=-1)
    w = rng.random((n_pts, len(shape)))
    w[rng.random(w.shape) < 0.3] = 0.0
    w[rng.random(w.shape) < 0.1] = 1.0
    w[:, np.asarray(shape) == 1] = 0.0
    return i0 + w


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("seed", range(4))
def test_multilinear_matches_brute_force(d, seed):
    # the corner sum: integer nodes, so each point's cell and weights are exact
    rng = np.random.default_rng(100 * d + seed)
    values = random_values(rng, d)
    axes = [np.arange(n, dtype=float) for n in values.shape]
    pts = random_cell_points(rng, values.shape, 300)
    got = interpolate(axes, values, pts)
    assert got.tobytes() == brute_interpolate(axes, values, pts).tobytes()


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
    axes = [-1.5 + 0.5 * np.arange(n) for n in values.shape]
    got = interpolate(axes, values, grid_points(axes))
    assert np.array_equal(got, values.ravel())


@pytest.mark.parametrize("d", DIMENSIONS)
def test_multilinear_is_exact_on_multilinear_functions(d):
    rng = np.random.default_rng(20 + d)
    a, b = rng.normal(size=d), rng.normal(size=d)
    shape = tuple(rng.integers(2, 5 if d == 4 else 7, size=d))
    axes = [np.arange(n, dtype=float) for n in shape]
    values = np.prod(a + b * grid_points(axes), axis=-1).reshape(shape)
    pts = rng.random((200, d)) * (np.asarray(shape) - 1)
    got = interpolate(axes, values, pts)
    np.testing.assert_allclose(got, np.prod(a + b * pts, axis=-1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("seed", range(3))
def test_box_cell_matches_brute_force(d, seed):
    # the cells: uniform axes off the integers, one-node axes, points at
    # nodes, on the faces and just outside them
    rng = np.random.default_rng(300 + 10 * d + seed)
    axes = [rng.normal() + rng.uniform(0.1, 2.0) * np.arange(rng.integers(1, 6))
            for _ in range(d)]
    values = rng.normal(size=tuple(len(a) for a in axes))
    lo = np.asarray([a[0] for a in axes])
    hi = np.asarray([a[-1] for a in axes])
    pts = lo + rng.uniform(0.0, 1.0, size=(400, d)) * (hi - lo)
    pick = rng.random(pts.shape) < 0.3
    nodes = np.stack([rng.choice(a, size=len(pts)) for a in axes], axis=-1)
    pts[pick] = nodes[pick]
    pts[:5] = lo
    pts[5:10] = hi
    pts[10:15] = hi + 1e-15 * np.maximum(np.abs(hi), 1.0)
    pts[15:20] = lo - 1e-15 * np.maximum(np.abs(lo), 1.0)
    got = interpolate(axes, values, pts)
    assert got.tobytes() == brute_interpolate(axes, values, pts).tobytes()


@pytest.mark.parametrize("d", DIMENSIONS)
def test_box_cell_clamps_to_the_face_value(d):
    # the clamp absorbs roundoff past a face
    rng = np.random.default_rng(50 + d)
    values = rng.normal(size=tuple(rng.integers(2, 5, size=d)))
    axes = [np.linspace(-1.0, 1.0, n) for n in values.shape]
    for pt, corner in ((1.0 + 1e-15, -1), (-1.0 - 1e-15, 0)):
        assert interpolate(axes, values, np.full((1, d), pt))[0] == values[(corner,) * d]


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("seed", range(3))
def test_wrap_padded_torus_matches_mod_indexing(d, seed):
    # a periodic table read on one period padded with its first nodes: the
    # upper face, where np.mod rounds -1e-300 up to 1, reads the last cell at
    # weight 1, which is bitwise the mod-indexed corner sum at its wrapped node
    rng = np.random.default_rng(500 + 10 * d + seed)
    n = int(rng.integers(2, 5 if d == 4 else 9))
    values = rng.normal(size=(n,) * d)
    padded = np.pad(values, (0, 1), mode="wrap")
    x = rng.uniform(-3.0, 3.0, size=(300, d))
    x[:50] = rng.integers(-3 * n, 3 * n, size=(50, d)) / n  # exact torus nodes
    x[50:60] = -1e-300  # np.mod rounds up to 1: u == n
    u = np.mod(x, 1.0) * n
    i0 = np.floor(u)
    got = interpolate([np.arange(n + 1.0)] * d, padded, u)
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
