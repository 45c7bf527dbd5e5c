"""util.interpolate one point at a time, for the tests that check it or read
through it: scalar arithmetic per axis and per corner, no shared array code."""

import itertools

import numpy as np


def brute_box_cell(axes, pt):
    """The cell of one point, axis by axis: the query clamped into the box,
    the lower node at or below it (the last cell at the upper face) and the
    weight toward the upper node; an axis with one node has cell 0, weight 0."""
    i0, w = [], []
    for nodes, q in zip(axes, pt):
        if len(nodes) == 1:
            i0.append(0)
            w.append(0.0)
            continue
        u = (min(max(q, nodes[0]), nodes[-1]) - nodes[0]) / (nodes[1] - nodes[0])
        i = min(int(np.floor(u)), len(nodes) - 2)
        i0.append(i)
        w.append(u - i)
    return i0, w


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


def brute_interpolate(axes, values, pts):
    """brute_multilinear in brute_box_cell's cell of each row of pts (n, d)."""
    return np.array([brute_multilinear(values, *brute_box_cell(axes, pt))
                     for pt in np.asarray(pts, dtype=float)])
