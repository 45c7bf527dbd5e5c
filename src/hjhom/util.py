"""Small shared helpers: deterministic formatting, the one CSV/.dat writer,
rounding, golden search, product grids and multilinear interpolation.

Every file hjhom writes goes through ``write_rows``: header lines verbatim,
then one line per row with numbers in ``format_float``'s shortest
round-trip form, so identical runs write identical bytes."""

from __future__ import annotations

import math

import numpy as np


def format_float(x) -> str:
    """Shortest round-trip decimal form; stable across runs for determinism."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_rows(path, head, rows, sep: str) -> None:
    """Write the ``head`` lines, then one line per row: its cells (strings as
    they are, numbers through format_float) joined by ``sep``."""
    with open(path, "w") as fh:
        for line in head:
            fh.write(line + "\n")
        for row in rows:
            fh.write(sep.join(c if isinstance(c, str) else format_float(c)
                              for c in row) + "\n")


def round_half_toward_zero(x):
    """Coordinate-wise rounding to integers with .5 ties resolved toward 0."""
    x = np.asarray(x, dtype=float)
    away = np.floor(np.abs(x) + 0.5)
    tie = (np.abs(x) + 0.5) == away  # |x| has fractional part exactly .5
    mag = np.where(tie, away - 1.0, away)
    return np.sign(x) * mag + 0.0  # +0.0 normalizes -0.0


def golden_minimize(fun, lo, hi, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minima on [lo, hi], one search per array element.  ``fun``
    maps one point per element to its value and is called once per iteration;
    each element's result is bitwise that of a search over it alone."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        left = fc <= fd            # keep [a, d]: d <- c, new c; else [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - phi * (b - a), a + phi * (b - a))
        f_new = fun(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    xm = (a + b) / 2.0
    return xm, fun(xm)


def as_int_exact(x: float, name: str) -> int:
    """Cast to int, requiring |x - round(x)| <= 1e-9."""
    r = round(float(x))
    if abs(float(x) - r) > 1e-9:
        from .errors import ConfigurationError
        raise ConfigurationError(f"{name} = {x} is not an integer")
    return int(r)


def grid_points(axes) -> np.ndarray:
    """All nodes of the product grid over ``axes``, shape (n_nodes, d), the
    last axis varying fastest.  Filled from sparse meshgrid views, so no
    full-size temporary is allocated."""
    out = np.empty(tuple(len(a) for a in axes) + (len(axes),), np.result_type(*axes))
    for ax, m in enumerate(np.meshgrid(*axes, indexing="ij", sparse=True)):
        out[..., ax] = m
    return out.reshape(-1, len(axes))


def box_cell(axes, pts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell coordinates of points (..., d) on uniform axes, clamped to the box.

    Returns (i0, w, clamped): lower cell corners, weights toward the upper
    corners, and the mask of points that lay outside the box.
    """
    i0 = np.empty(pts.shape, dtype=int)
    w = np.empty(pts.shape)
    clamped = np.zeros(pts.shape[:-1], dtype=bool)
    for ax, nodes in enumerate(axes):
        lo, hi = nodes[0], nodes[-1]
        q = pts[..., ax]
        clamped |= (q < lo) | (q > hi)
        step = nodes[1] - nodes[0] if len(nodes) > 1 else 1.0
        u = (np.minimum(np.maximum(q, lo), hi) - lo) / step
        cell = np.minimum(np.floor(u), max(len(nodes) - 2, 0))
        i0[..., ax] = cell
        w[..., ax] = u - cell
    return i0, w, clamped


def multilinear(values: np.ndarray, i0: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of ``values`` in the cells with lower corners
    i0 (..., D) and weights w (..., D) toward the upper corners, D = values.ndim.

    Corners are summed in np.ndindex order, each weight a product over the
    axes in order.  A corner of zero weight is never read, so an exact node
    next to +inf stays finite; a point with a weighted corner outside
    ``values`` is +inf.
    """
    shape, d = values.shape, values.ndim
    strides = [math.prod(shape[ax + 1:]) for ax in range(d)]
    base = i0[..., d - 1]
    for ax in range(d - 1):
        base = base + i0[..., ax] * strides[ax]
    factors, inside = [], []
    for ax, n in enumerate(shape):
        i = i0[..., ax]
        factors.append((1.0 - w[..., ax], w[..., ax]))
        inside.append(((i >= 0) & (i < n), (i >= -1) & (i < n - 1)))
    flat = values.reshape(-1)
    total = np.zeros(w.shape[:-1])
    for corner in np.ndindex(*(2,) * d):
        wt, ok = factors[0][corner[0]], inside[0][corner[0]]
        for ax in range(1, d):
            wt = wt * factors[ax][corner[ax]]
            ok = ok & inside[ax][corner[ax]]
        val = flat.take(base + sum(c * s for c, s in zip(corner, strides)), mode="clip")
        total += wt * np.where(wt > 0, np.where(ok, val, np.inf), 0.0)
    return total
