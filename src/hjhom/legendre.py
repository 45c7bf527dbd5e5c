"""Grid Legendre-Fenchel conjugate and the running cost L(x, v).

The conjugate of a grid function f is g(p) = max over grid nodes v of
p . v - f(v), a direct maximization over every node.  This is exact for the
piecewise-linear interpolation of f, because a supremum of affine functions
over a cell is attained at its corners.  The running cost needs no
transform: L = |v|^2 / 4 + V is the closed-form dual of H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hamiltonian import HamiltonianSpec
from .util import box_cell, grid_points, multilinear, write_rows

MOMENTUM_DOMAIN = "momentum-domain"
VELOCITY_DOMAIN = "velocity-domain"


@dataclass
class ConvexFunctionTable:
    """Values of a convex function on a uniform product grid over a box.

    axes: tuple of strictly increasing 1-d node arrays, one per dimension.
    values: array of shape (len(axis) for each axis); +inf marks nodes
        outside the effective domain.
    units: "momentum-domain" or "velocity-domain".
    """

    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    units: str

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise DomainError("values shape does not match axes")
        if self.units not in (MOMENTUM_DOMAIN, VELOCITY_DOMAIN):
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


def conjugate(table: ConvexFunctionTable, points) -> np.ndarray:
    """g(p) = max over the table's nodes v of p . v - f(v), at each row p of
    points (n, d).

    Rows are maximized one at a time, so each value is that of a one-point
    call; a matrix product over all rows at once may round differently.
    """
    nodes = grid_points(table.axes)
    values = table.values.ravel()
    if not np.isfinite(values).any():
        raise DomainError("table has no finite values")
    pts = np.asarray(points, dtype=float).reshape(-1, table.dimension)
    return np.array([np.max(nodes @ p - values) for p in pts])


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
