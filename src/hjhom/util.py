"""Small shared helpers: deterministic formatting, the one CSV/.dat writer,
rounding, golden search, product grids and ``interpolate``, the one read
between grid nodes (the Lbar table and the Lax-Friedrichs grid).

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


def is_whole(x):
    """Elementwise: x is finite and |x - round(x)| <= 1e-9."""
    with np.errstate(invalid="ignore"):   # inf - round(inf) is nan: not whole
        return np.abs(x - np.round(x)) <= 1e-9


def as_int_exact(x, name: str):
    """x as an int, or an int array for an array x, requiring is_whole of
    every element; the error names the first element that is not."""
    x = np.asarray(x, dtype=float)
    if not is_whole(x).all():
        from .errors import ConfigurationError
        raise ConfigurationError(f"{name} = {x[~is_whole(x)][0]} is not an integer")
    return int(np.round(x)) if x.ndim == 0 else np.round(x).astype(int)


def grid_points(axes) -> np.ndarray:
    """All nodes of the product grid over ``axes``, shape (n_nodes, d), the
    last axis varying fastest.  Filled from sparse meshgrid views, so no
    full-size temporary is allocated."""
    out = np.empty(tuple(len(a) for a in axes) + (len(axes),), np.result_type(*axes))
    for ax, m in enumerate(np.meshgrid(*axes, indexing="ij", sparse=True)):
        out[..., ax] = m
    return out.reshape(-1, len(axes))


def grid_cell(nodes, x):
    """The cell that ``interpolate`` reads for coordinates x on one uniform
    axis, as float indices, and x in units of the step from nodes[0].  x is
    clamped into [nodes[0], nodes[-1]], and the cell is capped at the last one,
    n - 2 (0 on a one-node axis, whose step counts as 1)."""
    step = nodes[1] - nodes[0] if len(nodes) > 1 else 1.0
    u = (np.clip(x, nodes[0], nodes[-1]) - nodes[0]) / step
    return np.minimum(np.floor(u), max(len(nodes) - 2, 0)), u


def interpolate(axes, values: np.ndarray, points) -> np.ndarray:
    """The tensor-product linear interpolant of the finite ``values`` on the
    grid of uniform ``axes``, at points (..., d) inside its box.  Coordinates
    are clamped into the box, which absorbs roundoff at its faces; the upper
    face reads the last cell at weight 1, and a one-node axis has weight 0
    toward its upper corner, whose index is clipped.  Corners are summed in
    np.ndindex order, each weight a product over the axes in order."""
    pts = np.asarray(points, dtype=float)
    strides = [math.prod(values.shape[ax + 1:]) for ax in range(len(axes))]
    base, factors = 0, []
    for nodes, x, stride in zip(axes, np.moveaxis(pts, -1, 0), strides):
        cell, u = grid_cell(nodes, x)
        base = base + cell.astype(int) * stride
        factors.append((1.0 - (u - cell), u - cell))
    total = np.zeros(pts.shape[:-1])
    for corner in np.ndindex(*(2,) * len(axes)):
        total += math.prod(f[c] for f, c in zip(factors, corner)) * values.take(
            base + sum(c * s for c, s in zip(corner, strides)), mode="clip")
    return total
