"""Discrete Legendre-Fenchel transform and the running-cost field L(x, v).

The transform of a grid function f is g(v) = max over grid nodes p of
p . v - f(p), computed one axis at a time (each sweep is a direct O(N^2)
maximization; the multidimensional conjugate factorizes across axes).  This
is exact for the piecewise-linear interpolation of f, because a supremum of
affine functions over a segment is attained at its endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hamiltonian import (
    FAMILY_QUADRATIC,
    HamiltonianSpec,
    evaluate_hamiltonian,
)
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
    """Running cost L(x, v) dual to a Hamiltonian spec.

    For the quadratic family with inactive momentum cap the closed form
    L(x, v) = |v|^2 / 4 + V(x) is used; otherwise L is tabulated per torus
    grid point by numerical conjugation and interpolated multilinearly in
    (x, v); a velocity outside the tabulated box raises DomainError.
    """

    def __init__(self, spec: HamiltonianSpec, closed_form: bool,
                 x_nodes: np.ndarray | None = None,
                 v_axes: tuple[np.ndarray, ...] | None = None,
                 table: np.ndarray | None = None):
        self.spec = spec
        self.closed_form = closed_form
        self._x_nodes = x_nodes          # torus nodes per axis (count)
        self._v_axes = v_axes
        # shape (nx + 1,)*d + (nv per v-axis): node nx repeats node 0, since
        # np.mod(x, 1) * nx can round up to nx
        self._table = None if table is None else np.pad(
            table, [(0, 1)] * len(v_axes) + [(0, 0)] * len(v_axes), mode="wrap")

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
        if self.closed_form:
            return np.sum(v * v, axis=-1) / 4.0 + self.spec.potential(x)
        # torus axes wrap through the padded node; velocity axes end at the box
        x, v = np.broadcast_arrays(x, v)
        u = np.mod(x, 1.0) * self._x_nodes
        ix = np.floor(u)
        iv, wv, clamped = box_cell(self._v_axes, v)
        if clamped.any():
            raise DomainError("velocity outside the tabulated box " + " x ".join(
                f"[{a[0]:g}, {a[-1]:g}]" for a in self._v_axes) + " of L")
        return multilinear(self._table, np.concatenate([ix.astype(int), iv], axis=-1),
                           np.concatenate([u - ix, wv], axis=-1))


def build_lagrangian(spec: HamiltonianSpec,
                     v_box=None, v_resolution: int = 65,
                     x_resolution: int = 32) -> LagrangianField:
    """Construct L for a (normalized) spec.

    Closed form for the quadratic family with inactive cap; otherwise a
    per-torus-node numerical transform over the momentum verification box.
    ``v_box`` bounds the tabulated velocity domain (callers supply the speed
    cap from the minimizer Lipschitz bound).
    """
    if spec.family == FAMILY_QUADRATIC and not np.isfinite(spec.momentum_cap):
        return LagrangianField(spec, closed_form=True)
    d = spec.dimension
    if v_box is None:
        v_box = [(-8.0, 8.0)] * d
    p_half = max(spec.momentum_cap * 1.5 if np.isfinite(spec.momentum_cap) else 8.0, 8.0)
    p_axes = uniform_axes([(-p_half, p_half)] * d, 129)
    nx = x_resolution
    xs = grid_points([np.arange(nx) / nx] * d)
    v_axes = uniform_axes(v_box, v_resolution)
    table = np.empty((nx,) * d + tuple(len(a) for a in v_axes))
    pmat = grid_points(p_axes)
    for flat_i, x in enumerate(xs):
        hv = evaluate_hamiltonian(spec, np.broadcast_to(x, pmat.shape), pmat)
        f = ConvexFunctionTable(p_axes, hv.reshape([len(a) for a in p_axes]), MOMENTUM_DOMAIN)
        g = legendre_transform(f, v_box, v_resolution)
        table[np.unravel_index(flat_i, (nx,) * d)] = g.values
    return LagrangianField(spec, closed_form=False, x_nodes=nx, v_axes=v_axes, table=table)
