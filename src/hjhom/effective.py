"""Homogenized quantities: the scaled metric limit, L-bar and H-bar.

The homogenized metric along a ray is the limit of n^{-1} m(n t, 0, n x)
over a doubling sequence of n.  The effective Lagrangian is sampled as
L-bar(v) = limit of n^{-1} m(n, 0, n v) (positive 1-homogeneity of the limit
makes this the t = 1 slice), and the effective Hamiltonian is its conjugate.
Two independent oracles cross-check H-bar: a long-horizon torus DP for the
shifted-momentum cell problem, and, in one dimension, quadrature plus
bisection on the classical flat-piece formula |p| = integral sqrt(Hbar + V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import ConfigurationError, DomainError
from .legendre import VELOCITY_DOMAIN, ConvexFunctionTable, LagrangianField, conjugate
from .metric import MetricTable, _offsets, compute_metric_table, default_speed_cap
from .util import grid_points, write_rows


@dataclass
class EffectiveMetricResult:
    """Scaling-limit estimate along one ray."""

    limit: float
    ns: list
    gs: list
    flagged: bool = False


def effective_metric(table: MetricTable, t: float, x,
                     n_max: int) -> EffectiveMetricResult:
    """g_n = n^{-1} m(n t, 0, n x) for doubling n, with the two-level
    Richardson extrapolant 2 g_{2n} - g_n as the limit.

    If the table's horizon cannot reach n_max, a partial result is returned
    with ``flagged`` set.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not table.cone.contains(t, x):
        raise DomainError(f"({t}, {x}) outside the table cone")
    doubling = [2**i for i in range(int(n_max).bit_length())]   # 1, 2, 4, ... <= n_max
    ns = [n for n in doubling if n * t <= table.horizon + 1e-9]
    flagged = len(ns) < len(doubling)
    if not ns:
        raise ConfigurationError("table horizon does not even cover n = 1")
    gs = [table.interpolate(n * t, n * x) / n for n in ns]
    if len(gs) >= 2:
        limit = 2.0 * gs[-1] - gs[-2]
    else:
        limit = gs[-1]
        flagged = True
    return EffectiveMetricResult(limit=float(limit), ns=ns, gs=gs, flagged=flagged)


@dataclass
class EffectiveModel:
    """Homogenized Lagrangian table with ray diagnostics; Hbar is its conjugate.

    shift: the spec's normalization shift, re-added by the effective solver.
    """

    lagrangian_table: ConvexFunctionTable
    diagnostics: list = field(default_factory=list)
    shift: float = 0.0

    def lagrangian_bar(self, v) -> float:
        val, clamped = self.lagrangian_table.interpolate(np.atleast_1d(v))
        if np.any(clamped):
            raise DomainError("velocity outside the effective table box")
        return float(val) if np.ndim(val) == 0 else val

    def hamiltonian_bar(self, p) -> float:
        """Exact grid conjugate max_v p . v - Lbar(v) at an arbitrary p."""
        return float(conjugate(self.lagrangian_table, p)[0])

    def flat_piece_radius_estimate(self) -> float:
        """Subderivative of Lbar at v = 0 from chord slopes (d = 1).

        Hbar is flat (= -Lbar(0)) exactly for |p| below this value; chords of
        a convex table approach the corner slope from above as the grid
        refines.
        """
        if self.lagrangian_table.dimension != 1:
            raise DomainError("flat-piece estimate implemented for d = 1")
        vs = self.lagrangian_table.axes[0]
        lv = self.lagrangian_table.values
        i0 = int(np.argmin(np.abs(vs)))
        chords = [(lv[i] - lv[i0]) / abs(vs[i] - vs[i0])
                  for i in range(len(vs)) if vs[i] > vs[i0]]
        return float(min(chords))

    def to_csv(self, lbar_path, diag_path) -> None:
        self.lagrangian_table.to_csv(lbar_path)
        cols = [f"v{i+1}" for i in range(self.lagrangian_table.dimension)]
        rows = [(*rec["v"], n, g, g - rec["limit"]) for rec in self.diagnostics
                for n, g in zip(rec["ns"], rec["gs"])]
        write_rows(diag_path, ["# schema=hjhom.effective-diagnostics.v1",
                               ",".join(cols + ["n", "g_n", "gap"])], rows, ",")


def _rational_scale(v: np.ndarray,
                    max_denominator: int) -> tuple[int, np.ndarray, bool]:
    """Smallest b <= max_denominator with b v integer within 1e-9, b v rounded,
    and True; without one, the b of the best bounded-denominator approximation
    and False (the ray then samples round(b v)/b, not v)."""
    best_b, best_err = 1, np.inf
    for b in range(1, max_denominator + 1):
        err = np.max(np.abs(b * v - np.round(b * v)))
        if err <= 1e-9:
            return b, np.round(b * v), True
        if err < best_err - 1e-15:
            best_b, best_err = b, err
    return best_b, np.round(best_b * v), False


def build_effective_model(lagrangian: LagrangianField,
                          v_box_half: float, v_step: float, n_max: int,
                          dt: float, dx: float, vmax: float | None = None,
                          max_denominator: int = 8) -> EffectiveModel:
    """Sample Lbar(v) on a symmetric velocity grid.

    One metric table with horizon n_max serves every velocity: the ray for v
    is first scaled by the denominator b of v (so targets are integer points),
    then read at n = b, 2b, 4b, ... <= n_max.  Velocities whose doubling
    sequence has fewer than two levels, or with no denominator b <=
    max_denominator (the ray then samples a nearby rational velocity), are
    flagged in the diagnostics.
    """
    d = lagrangian.dimension
    half_steps = int(round(v_box_half / v_step))
    axis = np.arange(-half_steps, half_steps + 1) * v_step
    v_axes = (axis,) * d
    if vmax is None:
        vmax = default_speed_cap(lagrangian, float(np.linalg.norm([v_box_half] * d)))
    table = compute_metric_table(lagrangian, horizon=float(n_max), dt=dt, dx=dx,
                                 vmax=vmax, keep="integers")

    values = np.empty((len(axis),) * d)
    diagnostics = []
    for idx in np.ndindex(values.shape):
        v = np.asarray([axis[i] for i in idx])
        b, bv, exact = _rational_scale(v, max_denominator)
        res = effective_metric(table, float(b), bv, n_max // b)
        lbar = res.limit / b
        values[idx] = lbar
        diagnostics.append({
            "v": v, "denominator": b, "ns": [n * b for n in res.ns],
            "gs": [g / b for g in res.gs], "limit": lbar,
            "flagged": res.flagged or not exact,
        })
    return EffectiveModel(ConvexFunctionTable(v_axes, values, VELOCITY_DOMAIN),
                          diagnostics, lagrangian.spec.normalization_shift)


def cell_problem_oracle(lagrangian: LagrangianField, p, t_long: float = 128.0,
                        dt: float = 0.125, dx: float = 0.125,
                        vmax: float = 6.0) -> float:
    """Independent H-bar estimate from the shifted-momentum torus problem.

    Solves w_t + H(x, p + D_x w) = 0, w(0, .) = 0 on the unit torus by value
    iteration (minimum over periodic lattice paths of cost minus p times
    displacement) and returns -w(T, 0)/T.  Each step is one gather: node i
    takes the minimum over offsets o of w + cost at its source node i - o
    (mod 1), through a precomputed (offsets, nodes) source index and the
    matching cost.  The torus lattice and this gather are deliberately
    separate from the cone-table DP so the two routes stay independent; only
    the offset enumeration is shared.
    """
    d = lagrangian.dimension
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.shape != (d,):
        raise DomainError(f"p must have {d} components")
    big_m = int(round(1.0 / dx))
    if abs(big_m * dx - 1.0) > 1e-9:
        raise ConfigurationError("dx must divide 1")
    n_steps = int(round(t_long / dt))
    if n_steps < 4:
        raise ConfigurationError("t_long too small for the torus iteration")

    # per-offset cost over torus nodes i: dt L((i + o/2) dx mod 1, o dx/dt) - p . o dx,
    # read at the source node of each target node
    base = grid_points([np.arange(big_m)] * d).reshape((big_m,) * d + (d,))
    node = np.arange(big_m**d).reshape((big_m,) * d)
    axes = tuple(range(d))
    src, cost = [], []
    for o in _offsets(d, vmax * dt / dx):
        mid = np.mod((base + o / 2.0) * dx, 1.0)
        vel = o * dx / dt
        c = dt * lagrangian(mid, np.broadcast_to(vel, mid.shape)) - float(p @ (o * dx))
        shift = tuple(int(k) for k in o)
        src.append(np.roll(node, shift, axis=axes).ravel())
        cost.append(np.roll(c, shift, axis=axes).ravel())
    src, cost = np.stack(src), np.stack(cost)

    w = np.zeros(big_m**d)
    buf = np.empty_like(cost)
    for _ in range(n_steps):
        np.take(w, src, out=buf, mode="clip")   # in range; clip skips a buffer copy
        np.add(buf, cost, out=buf)
        np.min(buf, axis=0, out=w)
    return -w[0] / (n_steps * dt)


# ---------------------------------------------------------------------------
# One-dimensional quadrature / bisection oracle.

def _torus_values(potential) -> np.ndarray:
    """V at the 8192 quadrature nodes j / 8192 of the unit torus."""
    return np.atleast_1d(potential((np.arange(8192) / 8192)[:, None]))


def flat_piece_radius_1d(potential) -> float:
    """p0 = integral over the torus of sqrt(V - min V); H-bar = -min V on |p| <= p0."""
    vals = _torus_values(potential)
    vmin = vals.min()
    return float(np.mean(np.sqrt(np.maximum(vals - vmin, 0.0))))


def effective_hamiltonian_quadrature_1d(potential, p: float) -> float:
    """Solve |p| = integral sqrt(h + V(x)) dx for h by bisection to 1e-10 (d = 1).

    Below the flat-piece radius the answer is -min V.  The integrand is
    smooth and periodic for h > -min V, so the uniform-grid mean converges
    rapidly.
    """
    vals = _torus_values(potential)
    vmin = float(vals.min())
    p_abs = abs(float(p))

    def phi(h):
        return float(np.mean(np.sqrt(np.maximum(h + vals, 0.0))))

    if p_abs <= phi(-vmin):
        return -vmin
    lo, hi = -vmin, p_abs**2 + float(vals.max())
    while phi(hi) < p_abs:
        hi = 2 * hi + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) < p_abs:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 0.5 * (lo + hi)
