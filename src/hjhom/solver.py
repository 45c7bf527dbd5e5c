"""Oscillatory and effective Cauchy solvers plus a finite-difference oracle.

The oscillatory solution comes from the control representation
    u_eps(t, y) = inf over |x - y| <= C t of u0(x) + eps m(t/eps, x/eps, y/eps),
with x first restricted to eps Z^d so the metric reduction to the
origin-based table is exact.  The effective solution is the same
inf-convolution with t Lbar((y - x)/t), first over the Lbar grid.  Both then
refine every target at once by one array golden search on the interpolated
objective, each target bitwise its one-target search, and re-add the
normalization shift t * a.  The Lax-Friedrichs oracle solves the
oscillatory PDE directly on a grid that resolves the eps-scale; it is a
cross-check only and never feeds the rate measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .effective import EffectiveModel
from .errors import ConfigurationError, DomainError
from .legendre import LagrangianField
from .metric import MetricTable
from .util import box_cell, golden_minimize, grid_points, multilinear


@dataclass
class InitialData:
    """Initial condition with a certified Lipschitz constant."""

    evaluator: object            # callable (n, d) -> (n,)
    lipschitz: float
    family: str
    dimension: int

    def __call__(self, x):
        """Values at the rows of x (n, d)."""
        return self.evaluator(np.atleast_2d(np.asarray(x, dtype=float)))


def cone_data(dimension: int, scale: float = 1.0) -> InitialData:
    return InitialData(lambda x: scale * np.linalg.norm(x, axis=1),
                       abs(scale), "cone", dimension)


def affine_data(p) -> InitialData:
    # not x @ p: BLAS rounds a row differently alone than in a batch, and a
    # point's value must not depend on the points evaluated with it
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return InitialData(lambda x: np.sum(x * p, axis=1), float(np.linalg.norm(p)),
                       "affine", len(p))


def zero_data(dimension: int) -> InitialData:
    return InitialData(lambda x: np.zeros(len(x)), 0.0, "zero", dimension)


def bump_data(dimension: int, bumps) -> InitialData:
    """Sum of Gaussian bumps (amplitude, center, width)."""
    bumps = [(float(a), np.atleast_1d(np.asarray(c, dtype=float)), float(w))
             for a, c, w in bumps]

    def ev(x):
        out = np.zeros(len(x))
        for a, c, w in bumps:
            out += a * np.exp(-np.sum((x - c) ** 2, axis=1) / w**2)
        return out

    lip = sum(abs(a) * np.sqrt(2.0) * np.exp(-0.5) / w for a, _, w in bumps)
    return InitialData(ev, lip, "bumps", dimension)


@dataclass
class SolutionField:
    """Solution values on a target set, with provenance for reproducibility."""

    t: float
    points: np.ndarray
    values: np.ndarray
    eps: float                         # 0 for the effective solution
    provenance: dict = field(default_factory=dict)


def solve_oscillatory(u0: InitialData, lagrangian: LagrangianField,
                      eps: float, t: float, targets,
                      table: MetricTable) -> SolutionField:
    """Representation-formula solution at scale eps on the target set.

    The table must cover horizon t/eps; the minimization runs over x in
    eps Z^d inside the cone ball |x - y| <= C t, then one golden refinement
    of all targets moves x continuously using the spatially interpolated table.
    """
    if not 0 < eps <= 1:
        raise DomainError("eps must lie in (0, 1]")
    if t <= 0:
        raise DomainError("t must be positive")
    big_t = t / eps
    if big_t > table.horizon + 1e-9:
        raise ConfigurationError(
            f"metric table horizon {table.horizon} insufficient: need T = {big_t}")
    d = table.dimension
    shift = lagrangian.spec.normalization_shift
    radius = table.cone.speed * t
    targets = np.asarray(targets, dtype=float).reshape(-1, d)
    x0 = np.empty_like(targets)
    coarse = np.empty(len(targets))
    for i, y in enumerate(targets):
        lo = np.ceil((y - radius) / eps).astype(int)
        hi = np.floor((y + radius) / eps).astype(int)
        xs = grid_points([np.arange(l, h + 1) for l, h in zip(lo, hi)]) * eps
        xs = xs[np.linalg.norm(xs - y, axis=1) <= radius + 1e-12]
        obj = u0(xs) + eps * table.interpolate_many(big_t, (y - xs) / eps)
        k = int(np.argmin(obj))
        x0[i], coarse[i] = xs[k], obj[k]

    def objective(pts):
        return u0(pts) + eps * table.interpolate_many(big_t, (targets - pts) / eps)

    refined = _golden_refine(objective, x0, objective(x0), eps, -np.inf, np.inf)
    values = np.where(refined < coarse, refined, coarse) + t * shift
    return SolutionField(
        t=t, points=targets, values=values, eps=eps,
        provenance={"spec": lagrangian.spec.content_hash(),
                    "dt": table.dt, "dx": table.dx, "vmax": table.vmax,
                    "shift": shift})


def _golden_refine(objective, x0, best, step, lo, hi):
    """Two passes of per-axis golden search around all rows of x0 (n, d) at once:
    axis ax of a row on [max(lo, x_ax - step), min(hi, x_ax + step)] at pass time,
    moved only where it lowers that row's ``best`` (n,).  step, lo, hi broadcast
    over the axes; objective maps (n, d) to (n,).  Returns the lowest values."""
    x = np.array(x0, dtype=float)
    step, lo, hi = (np.broadcast_to(a, x.shape[1:]) for a in (step, lo, hi))
    for _ in range(2):
        for ax in range(x.shape[1]):
            def g(s, ax=ax):
                pts = x.copy()
                pts[:, ax] = s
                return objective(pts)
            s_opt, val = golden_minimize(g, np.maximum(lo[ax], x[:, ax] - step[ax]),
                                         np.minimum(hi[ax], x[:, ax] + step[ax]), 24)
            lower = val < best
            best = np.where(lower, val, best)
            x[lower, ax] = s_opt[lower]
    return best


def solve_effective(u0: InitialData, model: EffectiveModel, t: float,
                    targets) -> SolutionField:
    """Inf-convolution u-bar(t, y) = min_x u0(x) + t Lbar((y - x)/t)."""
    if t <= 0:
        raise DomainError("t must be positive")
    ltab = model.lagrangian_table
    d = ltab.dimension
    shift = model.shift
    vgrid = grid_points(ltab.axes)
    targets = np.asarray(targets, dtype=float).reshape(-1, d)
    obj = u0((targets[:, None, :] - t * vgrid).reshape(-1, d)).reshape(-1, len(vgrid))
    obj += t * ltab.values.ravel()
    k = np.argmin(obj, axis=1)

    def objective(vv):
        lv, _ = ltab.interpolate(vv)
        return u0(targets - t * vv) + t * lv

    axes = ltab.axes
    values = _golden_refine(objective, vgrid[k], obj[np.arange(len(targets)), k],
                            [a[1] - a[0] for a in axes], [a[0] for a in axes],
                            [a[-1] for a in axes]) + t * shift
    return SolutionField(
        t=t, points=targets, values=values, eps=0.0,
        provenance={"shift": shift})


def solve_fd_oracle(u0: InitialData, spec, eps: float, t: float, targets,
                    points_per_eps: int = 64,
                    box_margin: float = 1.0) -> SolutionField:
    """Monotone Lax-Friedrichs solution of the oscillatory problem (oracle).

    Central Hamiltonian evaluation H = |grad u|^2 - V(x/eps) with artificial
    viscosity alpha = max |D_p H| per axis; CFL number 0.45 keeps the scheme
    monotone.  The box is sized so boundary influence (finite speed) cannot
    reach the targets.  V is evaluated once at the nodes; u lives inside one
    buffer with an edge-copied ghost layer, and each step updates it through
    preallocated grid buffers.  A state that turns non-finite stays non-finite,
    so one check after the loop raises DomainError.
    """
    d = spec.dimension
    if d > 2:
        raise ConfigurationError("FD oracle supports d <= 2")
    targets = np.asarray(targets, dtype=float).reshape(-1, d)
    # gradient bound for the viscosity solution: |Du|^2 <= Lip^2 + osc(V)
    dv = spec.potential.upper_bound() - spec.potential.coefficient_lower_bound()
    pmax = np.sqrt(u0.lipschitz**2 + max(dv, 0.0)) + 0.2
    alpha = 2.0 * pmax
    speed = alpha * d + 1.0
    h = eps / points_per_eps
    lo = targets.min(axis=0) - speed * t - box_margin
    hi = targets.max(axis=0) + speed * t + box_margin
    axes = [np.arange(l, hh + h, h) for l, hh in zip(lo, hi)]
    nodes = grid_points(axes)
    shape = tuple(len(a) for a in axes)
    dt_fd = 0.45 * h / (alpha * d)
    n_steps = int(np.ceil(t / dt_fd))
    if n_steps < 1:
        raise ConfigurationError("CFL produced no time steps")
    dt_fd = t / n_steps
    if dt_fd > 0.45 * h / (alpha * d) + 1e-15:
        raise ConfigurationError("CFL violation after rounding to the horizon")
    v_nodes = spec.potential(np.mod(nodes / eps, 1.0)).reshape(shape)

    def part(ax, sl):
        """Slice sl along axis ax of the ghosted buffer, interior elsewhere."""
        return tuple(sl if i == ax else slice(1, -1) for i in range(d))

    up = np.empty(tuple(n + 2 for n in shape))
    u = up[(slice(1, -1),) * d]
    u[...] = u0(nodes).reshape(shape)
    ghosts = [(part(ax, 0), part(ax, 1), part(ax, -1), part(ax, -2)) for ax in range(d)]
    stencil = [(up[part(ax, slice(2, None))], up[part(ax, slice(0, -2))])
               for ax in range(d)]
    two_u, grad, ham, visc, tmp = (np.empty(shape) for _ in range(5))
    for _ in range(n_steps):
        for lo_g, lo_i, hi_g, hi_i in ghosts:
            up[lo_g] = up[lo_i]
            up[hi_g] = up[hi_i]
        np.multiply(2, u, out=two_u)
        for ax, (fwd, bwd) in enumerate(stencil):
            np.subtract(fwd, bwd, out=grad)
            np.divide(grad, 2 * h, out=grad)
            if ax == 0:
                np.multiply(grad, grad, out=ham)
            else:
                np.multiply(grad, grad, out=grad)
                np.add(ham, grad, out=ham)
            np.subtract(fwd, two_u, out=tmp)
            np.add(tmp, bwd, out=tmp)
            np.divide(tmp, 2 * h, out=tmp)
            # the viscosity sum starts from +0.0, which turns a -0.0 term into +0.0
            np.add(visc if ax else 0.0, tmp, out=visc)
        np.subtract(ham, v_nodes, out=ham)
        np.multiply(dt_fd, ham, out=ham)
        np.subtract(u, ham, out=ham)
        np.multiply(dt_fd * alpha, visc, out=visc)
        np.add(ham, visc, out=u)
    if not np.isfinite(u).all():
        raise DomainError("non-finite x or p")
    i0, w, _ = box_cell(axes, targets)  # the box covers every target
    vals = multilinear(u, i0, w) + t * spec.normalization_shift
    return SolutionField(
        t=t, points=targets, values=vals, eps=eps,
        provenance={"spec": spec.content_hash(), "scheme": "lax-friedrichs",
                    "h": h, "dt_fd": dt_fd, "alpha": alpha,
                    "shift": spec.normalization_shift})
