"""Oscillatory and effective Cauchy solvers plus a finite-difference oracle.

The oscillatory solution comes from the control representation
    u_eps(t, y) = inf over x of u0(x) + eps m(t/eps, x/eps, y/eps),
a minimum over lattice points x/eps of exact table reads: for y/eps on the
lattice, the DP is reversible and V even, so the metric is m(t/eps, 0,
(y - x)/eps), and the table's layers are even bitwise (hjhom.metric mirrors
them).  The effective solution is the inf-convolution with
t Lbar((y - x)/t) over the Lbar grid, refined for all targets at once by an
array golden search, each target bitwise its one-target search.  Both re-add
the normalization shift t * a.  The Lax-Friedrichs oracle solves the
one-dimensional oscillatory PDE directly on a grid that resolves the
eps-scale; it is a cross-check only and never feeds the rate measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .effective import EffectiveModel
from .errors import ConfigurationError, DomainError
from .legendre import LagrangianField
from .metric import MetricTable
from .util import as_int_exact, golden_minimize, grid_cell, grid_points, interpolate


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
    """Solution values on a target set; the FD oracle also records its grid
    step h, time step dt_fd and viscosity alpha in provenance."""

    values: np.ndarray
    provenance: dict = field(default_factory=dict)


def _check_t(t: float) -> None:
    """The solvers' time domain: 0 < t < inf (no nan)."""
    if not (t > 0 and np.isfinite(t)):
        raise DomainError("t must be positive and finite")


def _points(targets, d: int) -> np.ndarray:
    """Targets as rows (n, d): points (n, d), one point (d,) or, in d = 1, an
    (n,) vector; points whose last axis is not d raise DomainError."""
    pts = np.asarray(targets, dtype=float)
    pts = pts.reshape(-1, 1) if d == 1 and pts.ndim < 2 else np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise DomainError(f"targets of shape {np.shape(targets)} in d = {d}")
    return pts


def _check_eps_t(eps: float, t: float) -> None:
    """The oscillatory problems' domain: 0 < eps <= 1 and 0 < t < inf (no nan)."""
    if not 0 < eps <= 1:
        raise DomainError("eps must lie in (0, 1]")
    _check_t(t)


def solve_oscillatory(u0: InitialData, lagrangian: LagrangianField,
                      eps: float, t: float, targets,
                      table: MetricTable) -> SolutionField:
    """Representation-formula solution at scale eps on the target set.

    The table must be built from the lagrangian's spec, store the layer
    T = t/eps, and each y/eps must be a dx-lattice point (else
    ConfigurationError).  Stage 1 reads the nodes
    with x in eps Z^d, where m(T, 0, (y - x)/eps) = m(T, x/eps, y/eps) by
    periodicity; stage 2 reads every node with x/eps within one unit per
    axis of the stage-1 minimizer and keeps the minimum.
    """
    _check_eps_t(eps, t)
    if lagrangian.spec != table.lagrangian.spec:
        raise ConfigurationError("the table is built from another spec than the lagrangian")
    big_t = t / eps
    if big_t > table.horizon + 1e-9:
        raise ConfigurationError(
            f"metric table horizon {table.horizon} insufficient: need T = {big_t}")
    d = table.dimension
    targets = _points(targets, d)
    layer, reach = table.layer(big_t)
    big_m = table.costs.shape[-1]

    def node_min(y, window):
        """Minimum of u0(y - eps z) + eps m(T, 0, z) over the layer's nodes in
        window (a slice per axis), with the minimizing node's index."""
        idx = grid_points([np.arange(*s.indices(n)) for s, n in zip(window, layer.shape)])
        obj = u0(y - eps * ((idx - reach) * table.dx)) + eps * layer[tuple(window)].ravel()
        k = int(np.argmin(obj))
        return obj[k], idx[k]

    values = np.empty(len(targets))
    for i, y in enumerate(targets):
        try:
            jy = as_int_exact(y / (eps * table.dx), "y/(eps dx)")
        except ConfigurationError as exc:
            raise ConfigurationError(f"target {y}: {exc}") from None
        # z = (y - x)/eps sits at node jy - n M + reach for x = n eps
        _, k = node_min(y, [slice((j + reach) % big_m, None, big_m) for j in jy])
        values[i], _ = node_min(y, [slice(max(c - big_m, 0), c + big_m + 1) for c in k])
    return SolutionField(values + t * lagrangian.spec.normalization_shift)


def _golden_refine(objective, x0, best, axes):
    """Two passes of per-axis golden search around all rows of x0 (n, d) at once:
    axis ax of a row on [x_ax - h, x_ax + h] cut to axes[ax], h its spacing,
    moved only where it lowers that row's ``best`` (n,).  objective maps
    (n, d) to (n,).  Returns the lowest values."""
    x = np.array(x0, dtype=float)
    for _ in range(2):
        for ax, nodes in enumerate(axes):
            def g(s, ax=ax):
                pts = x.copy()
                pts[:, ax] = s
                return objective(pts)
            h = nodes[1] - nodes[0]
            s_opt, val = golden_minimize(g, np.maximum(nodes[0], x[:, ax] - h),
                                         np.minimum(nodes[-1], x[:, ax] + h), 24)
            lower = val < best
            best = np.where(lower, val, best)
            x[lower, ax] = s_opt[lower]
    return best


def solve_effective(u0: InitialData, model: EffectiveModel, t: float,
                    targets) -> SolutionField:
    """Inf-convolution u-bar(t, y) = min_x u0(x) + t Lbar((y - x)/t)."""
    _check_t(t)
    ltab = model.lagrangian_table
    d = ltab.dimension
    vgrid = grid_points(ltab.axes)
    targets = _points(targets, d)
    obj = u0((targets[:, None, :] - t * vgrid).reshape(-1, d)).reshape(-1, len(vgrid))
    obj += t * ltab.values.ravel()
    k = np.argmin(obj, axis=1)

    def objective(vv):
        return u0(targets - t * vv) + t * interpolate(ltab.axes, ltab.values, vv)

    values = _golden_refine(objective, vgrid[k], obj[np.arange(len(targets)), k],
                            ltab.axes) + t * model.shift
    return SolutionField(values)


def _fd_schedule(first, last, n, n_steps):
    """The nodes each Lax-Friedrichs step updates, as (start, stop, steps) runs
    on an n-node axis.  A step with r steps after it updates the nodes
    [start, stop) within r of the core nodes first..last, clipped to the
    axis: nothing farther can reach the core.  That is the whole axis while r
    reaches past both ends, then a window one node narrower per step."""
    full = min(n_steps - 1, max(first, n - 1 - last))
    for r in range(full, -1, -1):
        yield max(first - r, 0), min(last + r, n - 1) + 1, n_steps - full if r == full else 1


def solve_fd_oracle(u0: InitialData, spec, eps: float, t: float, targets,
                    points_per_eps: int = 64,
                    box_margin: float = 1.0) -> SolutionField:
    """Monotone Lax-Friedrichs solution of the oscillatory problem in d = 1
    (oracle); another dimension raises ConfigurationError, as no caller runs one.

    Central Hamiltonian evaluation H = u_x^2 - V(x/eps) with artificial
    viscosity alpha = max |D_p H|; CFL number 0.45 keeps the scheme
    monotone.  The box reaches speed * t + box_margin beyond the targets.
    That bounds the PDE's characteristics, not the 3-point stencil, which
    moves information one node per step: the edge-copied boundary feeds the
    targets in the early steps, and a smaller box would change the values.
    A step with r steps after it updates only the nodes within r of the cells
    that ``util.interpolate`` reads at the targets (a node at weight 0
    included); the others keep their last value and are never read again.
    V is evaluated once at the nodes; u lives inside one buffer with an
    edge-copied ghost node at each end, and each step writes through views of
    four preallocated buffers.  A computed node that turns non-finite stays
    non-finite, so one check of the whole axis after the loop raises
    DomainError; only node-steps outside the targets' domain of dependence
    are not computed.  An empty target set gives no values.
    """
    _check_eps_t(eps, t)
    if not (np.isfinite(points_per_eps) and points_per_eps > 0):
        raise ConfigurationError(f"points_per_eps = {points_per_eps} must be finite and > 0")
    if not (np.isfinite(box_margin) and box_margin >= 0):
        raise ConfigurationError(f"box_margin = {box_margin} must be finite and >= 0")
    if spec.dimension != 1:
        raise ConfigurationError(f"FD oracle supports d = 1 only, not d = {spec.dimension}")
    ys = _points(targets, 1)[:, 0]
    # gradient bound for the viscosity solution: |Du|^2 <= Lip^2 + osc(V)
    dv = spec.potential.upper_bound() - spec.potential.coefficient_lower_bound()
    alpha = 2.0 * (np.sqrt(u0.lipschitz**2 + max(dv, 0.0)) + 0.2)
    h = eps / points_per_eps
    n_steps = int(np.ceil(t / (0.45 * h / alpha)))
    dt_fd = t / n_steps
    if dt_fd > 0.45 * h / alpha + 1e-15:
        raise ConfigurationError("CFL violation after rounding to the horizon")
    provenance = {"h": h, "dt_fd": dt_fd, "alpha": alpha}
    if not len(ys):
        return SolutionField(np.empty(0), provenance)
    speed = alpha + 1.0
    x = np.arange(ys.min() - speed * t - box_margin, ys.max() + speed * t + box_margin + h, h)
    n = len(x)
    v_nodes = spec.potential(np.mod(x[:, None] / eps, 1.0)).reshape(n)
    # the nodes interpolate reads: the targets' cells and the node above each,
    # also where its weight is 0, since 0 * inf is nan
    cells = grid_cell(x, ys)[0]
    first, last = int(cells.min()), min(int(cells.max()) + 1, n - 1)

    up = np.empty(n + 2)
    up[1:-1] = u0(x[:, None]).reshape(n)
    buffers = [np.empty(n) for _ in range(4)]
    for a, b, steps in _fd_schedule(first, last, n, n_steps):
        u, fwd, bwd, v_win = up[a + 1:b + 1], up[a + 2:b + 2], up[a:b], v_nodes[a:b]
        two_u, grad, ham, visc = (buf[:b - a] for buf in buffers)
        for _ in range(steps):
            # a ghost node is read only while the window holds its edge node
            up[0], up[-1] = up[1], up[-2]
            np.multiply(2, u, out=two_u)
            np.subtract(fwd, bwd, out=grad)
            np.divide(grad, 2 * h, out=grad)
            np.multiply(grad, grad, out=ham)
            np.subtract(fwd, two_u, out=visc)
            np.add(visc, bwd, out=visc)
            np.divide(visc, 2 * h, out=visc)
            # visc may be -0.0: a signed zero in u never changes a nonzero
            # value (it meets only 2 u, differences, a square, sums and
            # scalings by positive constants), so it reaches an output only
            # as an exact zero, which + t * shift below makes +0.0 unless
            # that product is -0.0
            np.subtract(ham, v_win, out=ham)
            np.multiply(dt_fd, ham, out=ham)
            np.subtract(u, ham, out=ham)
            np.multiply(dt_fd * alpha, visc, out=visc)
            np.add(ham, visc, out=u)
    if not np.isfinite(up[1:-1]).all():
        raise DomainError("non-finite x or p")
    vals = interpolate([x], up[1:-1], ys[:, None]) + t * spec.normalization_shift
    return SolutionField(vals, provenance)
