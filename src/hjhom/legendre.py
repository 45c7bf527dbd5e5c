"""Discrete Legendre-Fenchel transform and the running cost L(x, v).

The transform of a grid function f is g(v) = max over grid nodes p of
p . v - f(p), computed one axis at a time (each sweep is a direct O(N^2)
maximization; the multidimensional conjugate factorizes across axes).  This
is exact for the piecewise-linear interpolation of f, because a supremum of
affine functions over a segment is attained at its endpoints.  The running
cost needs no transform: L = |v|^2 / 4 + V is the closed-form dual of H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hamiltonian import HamiltonianSpec
from .util import box_cell, grid_points, multilinear, write_rows

MOMENTUM_DOMAIN = "momentum-domain"
VELOCITY_DOMAIN = "velocity-domain"

_DUAL = {MOMENTUM_DOMAIN: VELOCITY_DOMAIN, VELOCITY_DOMAIN: MOMENTUM_DOMAIN}


@dataclass
class ConvexFunctionTable:
    """Values of a convex function on a uniform product grid over a box.

    axes: tuple of strictly increasing 1-d node arrays, one per dimension.
    values: array of shape (len(axis) for each axis); +inf marks nodes
        outside the effective domain.
    units: "momentum-domain" or "velocity-domain".
    boundary_attained: optional bool array; True where a conjugation that
        produced this table attained its max on the source grid boundary
        (a sign the source box should be enlarged).
    """

    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    units: str
    boundary_attained: np.ndarray | None = None

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise DomainError("values shape does not match axes")
        if self.units not in _DUAL:
            raise DomainError(f"unknown units tag {self.units!r}")

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def interpolate(self, points):
        """Multilinear interpolation at points of shape (..., d).

        Out-of-box queries are clamped to the box (reported via the second
        return value), never extrapolated.  Returns (values, clamped_mask).
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 0:
            pts = pts.reshape(1)
        if pts.shape[-1] != self.dimension:
            raise DomainError("query dimension mismatch")
        i0, w, clamped = box_cell(self.axes, pts)
        return multilinear(self.values, i0, w), clamped

    def to_csv(self, path) -> None:
        """Node coordinates plus value, one row per node (debug export)."""
        cols = [f"v{i+1}" for i in range(self.dimension)] + ["value"]
        write_rows(path, [f"# schema=hjhom.table.v1 units={self.units}", ",".join(cols)],
                   ((*node, val) for node, val in zip(grid_points(self.axes),
                                                      self.values.ravel())), ",")


def uniform_axes(box, resolution: int) -> tuple[np.ndarray, ...]:
    """Axes for a box ((lo, hi), ...) with ``resolution`` nodes per axis."""
    if resolution < 2 or any(hi <= lo for lo, hi in box):
        raise DomainError("each axis needs at least 2 nodes and hi > lo")
    return tuple(np.linspace(lo, hi, int(resolution)) for lo, hi in box)


def legendre_transform(f: ConvexFunctionTable, out_box, out_resolution) -> ConvexFunctionTable:
    """g(v) = max over grid nodes p of p . v - f(p), on a new grid.

    Output nodes whose maximizing chain touches the source-grid boundary are
    flagged in ``boundary_attained`` so callers can enlarge the source box.
    """
    if any(len(a) == 0 for a in f.axes) or f.values.size == 0:
        raise DomainError("empty source grid")
    if not np.isfinite(f.values).any():
        raise DomainError("source table has no finite values")
    out_axes = uniform_axes(out_box, out_resolution)
    if len(out_axes) != f.dimension:
        raise DomainError("output box dimension mismatch")

    # Sweep axes last-to-first.  Invariant: after sweeping axis ax, array
    # `h` has source axes 0..ax-1 and output axes ax..d-1, and equals
    # max over p_ax..p_d of sum_j>=ax p_j v_j - f.
    h = -f.values
    flags = np.zeros_like(h, dtype=bool)
    d = f.dimension
    for ax in reversed(range(d)):
        p = f.axes[ax]
        v = out_axes[ax]
        h_moved = np.moveaxis(h, ax, -1)  # (..., P)
        fl_moved = np.moveaxis(flags, ax, -1)
        scores = h_moved[..., :, None] + p[:, None] * v[None, :]  # (..., P, Q)
        arg = np.nanargmax(np.where(np.isnan(scores), -np.inf, scores), axis=-2)
        new_h = np.take_along_axis(scores, arg[..., None, :], axis=-2)[..., 0, :]
        prev_fl = np.take_along_axis(
            np.broadcast_to(fl_moved[..., :, None], scores.shape), arg[..., None, :], axis=-2
        )[..., 0, :]
        new_fl = prev_fl | (arg == 0) | (arg == len(p) - 1)
        h = np.moveaxis(new_h, -1, ax)
        flags = np.moveaxis(new_fl, -1, ax)
    return ConvexFunctionTable(out_axes, h, _DUAL[f.units], boundary_attained=flags)


class LagrangianField:
    """Running cost L(x, v) = |v|^2 / 4 + V(x), the Legendre dual of
    H(x, p) = |p|^2 - V(x) in closed form."""

    def __init__(self, spec: HamiltonianSpec):
        self.spec = spec

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def __call__(self, x, v):
        """L at positions x (..., d) and velocities v (..., d); broadcasts."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.ndim == 0:
            x = x.reshape(1)
        if v.ndim == 0:
            v = v.reshape(1)
        return np.sum(v * v, axis=-1) / 4.0 + self.spec.potential(x)


def build_lagrangian(spec: HamiltonianSpec) -> LagrangianField:
    """The running cost of a (normalized) spec."""
    return LagrangianField(spec)
