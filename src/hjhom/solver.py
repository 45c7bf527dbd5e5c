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


def _check_eps_t(eps: float, t: float) -> None:
    """The oscillatory problems' domain: 0 < eps <= 1 and t > 0 (no nan)."""
    if not 0 < eps <= 1:
        raise DomainError("eps must lie in (0, 1]")
    if not t > 0:
        raise DomainError("t must be positive")


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
    targets = np.asarray(targets, dtype=float).reshape(-1, d)
    layer, reach = table.layer(big_t)
    big_m = as_int_exact(1.0 / table.dx, "1/dx")

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
    if t <= 0:
        raise DomainError("t must be positive")
    ltab = model.lagrangian_table
    d = ltab.dimension
    vgrid = grid_points(ltab.axes)
    targets = np.asarray(targets, dtype=float).reshape(-1, d)
    obj = u0((targets[:, None, :] - t * vgrid).reshape(-1, d)).reshape(-1, len(vgrid))
    obj += t * ltab.values.ravel()
    k = np.argmin(obj, axis=1)

    def objective(vv):
        return u0(targets - t * vv) + t * interpolate(ltab.axes, ltab.values, vv)

    values = _golden_refine(objective, vgrid[k], obj[np.arange(len(targets)), k],
                            ltab.axes) + t * model.shift
    return SolutionField(values)


def _fd_schedule(core, shape, n_steps):
    """The nodes each Lax-Friedrichs step updates, as (window, steps) runs.  A
    step with r steps after it updates, per axis, the node range [start, stop)
    within r nodes of the core (a (first, last) node pair per axis), clipped to
    the grid: nothing farther can reach the core.  That is the whole grid while
    r reaches past every face, then a window one node narrower per step."""
    def window(r):
        return tuple((max(first - r, 0), min(last + r, n - 1) + 1)
                     for (first, last), n in zip(core, shape))

    full = min(n_steps - 1, max(max(first, n - 1 - last)
                                for (first, last), n in zip(core, shape)))
    yield window(full), n_steps - full
    for r in range(full - 1, -1, -1):
        yield window(r), 1


def solve_fd_oracle(u0: InitialData, spec, eps: float, t: float, targets,
                    points_per_eps: int = 64,
                    box_margin: float = 1.0) -> SolutionField:
    """Monotone Lax-Friedrichs solution of the oscillatory problem (oracle).

    Central Hamiltonian evaluation H = |grad u|^2 - V(x/eps) with artificial
    viscosity alpha = max |D_p H| per axis; CFL number 0.45 keeps the scheme
    monotone.  The box reaches speed * t + box_margin beyond the targets.
    That bounds the PDE's characteristics, not the 3-point stencil, which
    moves information one node per step: the edge-copied boundary feeds the
    targets in the early steps, and a smaller box would change the values.
    A step with r steps after it updates only the nodes within r of the cells
    that ``util.interpolate`` reads at the targets (a node at weight 0
    included); the others keep their last value and are never read again.
    V is evaluated once at the nodes; u lives inside one buffer with an
    edge-copied ghost layer, copied only on the faces the window touches, and
    each step writes through views of five preallocated buffers.  A computed
    node that turns non-finite stays non-finite, so one check of the whole
    grid after the loop raises DomainError; only node-steps outside the
    targets' domain of dependence are not computed.
    """
    _check_eps_t(eps, t)
    if not (np.isfinite(points_per_eps) and points_per_eps > 0):
        raise ConfigurationError(f"points_per_eps = {points_per_eps} must be finite and > 0")
    if not (np.isfinite(box_margin) and box_margin >= 0):
        raise ConfigurationError(f"box_margin = {box_margin} must be finite and >= 0")
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
    dt_fd = t / n_steps
    if dt_fd > 0.45 * h / (alpha * d) + 1e-15:
        raise ConfigurationError("CFL violation after rounding to the horizon")
    v_nodes = spec.potential(np.mod(nodes / eps, 1.0)).reshape(shape)
    # the nodes interpolate reads: the targets' cells and the node above each,
    # also where its weight is 0, since 0 * inf is nan
    cells = [grid_cell(a, x)[0] for a, x in zip(axes, targets.T)]
    core = [(int(c.min()), min(int(c.max()) + 1, n - 1)) for c, n in zip(cells, shape)]

    up = np.empty(tuple(n + 2 for n in shape))
    grid = up[(slice(1, -1),) * d]
    grid[...] = u0(nodes).reshape(shape)
    buffers = [np.empty(grid.size) for _ in range(5)]

    def views(win):
        """A step's operands on the window win: u, V, the (forward, backward)
        neighbours per axis, the (ghost, edge) index pairs of the faces the
        window touches, and the five buffers' leading cells."""
        inner = [slice(a + 1, b + 1) for a, b in win]
        u = up[tuple(inner)]
        stencil, ghosts = [], []
        for ax, (a, b) in enumerate(win):
            before, after = inner[:ax], inner[ax + 1:]
            stencil.append((up[tuple(before + [slice(a + 2, b + 2)] + after)],
                            up[tuple(before + [slice(a, b)] + after)]))
            if a == 0:
                ghosts.append((tuple(before + [0] + after), tuple(before + [1] + after)))
            if b == shape[ax]:
                ghosts.append((tuple(before + [b + 1] + after),
                               tuple(before + [b] + after)))
        return (u, v_nodes[tuple(slice(a, b) for a, b in win)], stencil, ghosts,
                [buf[:u.size].reshape(u.shape) for buf in buffers])

    for win, steps in _fd_schedule(core, shape, n_steps):
        u, v_win, stencil, ghosts, (two_u, grad, ham, visc, tmp) = views(win)
        for _ in range(steps):
            for ghost, edge in ghosts:
                up[ghost] = up[edge]
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
            np.subtract(ham, v_win, out=ham)
            np.multiply(dt_fd, ham, out=ham)
            np.subtract(u, ham, out=ham)
            np.multiply(dt_fd * alpha, visc, out=visc)
            np.add(ham, visc, out=u)
    if not np.isfinite(grid).all():
        raise DomainError("non-finite x or p")
    vals = interpolate(axes, grid, targets) + t * spec.normalization_shift
    return SolutionField(vals, {"h": h, "dt_fd": dt_fd, "alpha": alpha})
