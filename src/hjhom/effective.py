"""Homogenized quantities: the scaled metric limit, L-bar and H-bar.

The effective Lagrangian is L-bar(v) = limit of n^{-1} m(n, 0, n v), read
exactly at the integer space-time points of each velocity's ray over a
doubling sequence of n, and the effective Hamiltonian is its conjugate.
Two independent oracles cross-check H-bar: a long-horizon torus DP for the
shifted-momentum cell problem, and, in one dimension, quadrature plus
bisection on the classical flat-piece formula |p| = integral sqrt(Hbar + V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import ConfigurationError, DomainError, HorizonError, UnreachableError
from .legendre import VELOCITY_DOMAIN, ConvexFunctionTable, LagrangianField, conjugate
from .metric import MetricTable, _step_graph, compute_metric_table
from .util import as_int_exact, grid_points, is_whole, write_rows


@dataclass
class EffectiveModel:
    """Homogenized Lagrangian table with ray diagnostics; Hbar is its conjugate.

    shift: the spec's normalization shift, re-added by the effective solver.
    """

    lagrangian_table: ConvexFunctionTable
    diagnostics: list = field(default_factory=list)
    shift: float = 0.0

    def lagrangian_bar(self, v) -> float:
        """Lbar at a node v of build_effective_model's grid, k v_step with
        |k| <= half per axis, read exactly; any other v raises DomainError."""
        axis = self.lagrangian_table.axes[0]
        half = len(axis) // 2
        k = np.atleast_1d(np.asarray(v, dtype=float)) / (axis[1] - axis[0])
        if k.shape != (self.lagrangian_table.dimension,) or not (
                is_whole(k) & (np.abs(k) <= half + 1e-9)).all():
            raise DomainError(f"v = {v} is not a node of the Lbar grid {axis}")
        return float(self.lagrangian_table.values[tuple(np.round(k).astype(int) + half)])

    def hamiltonian_bar(self, p) -> float:
        """Exact grid conjugate max_v p . v - Lbar(v) at a finite p of d
        components; any other p raises DomainError."""
        d = self.lagrangian_table.dimension
        if np.atleast_1d(np.asarray(p, dtype=float)).shape != (d,):
            raise DomainError(f"p must have {d} components")
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
        rows = [(*rec["v"], n, g, g - rec["limit"], int(rec["flagged"]))
                for rec in self.diagnostics for n, g in zip(rec["ns"], rec["gs"])]
        write_rows(diag_path, ["# schema=hjhom.effective-diagnostics.v2",
                               ",".join(cols + ["n", "g_n", "gap", "flagged"])],
                   rows, ",")


def build_effective_model(lagrangian: LagrangianField,
                          v_box_half: float, v_step: float, n_max: int,
                          dt: float, dx: float, vmax: float, *,
                          table: MetricTable | None = None,
                          threads: int = 1) -> EffectiveModel:
    """Sample Lbar(v) on the symmetric velocity grid v = k v_step.

    One metric table with horizon n_max serves every velocity.  With q the
    smallest b <= n_max making b v_step an integer p, the grid velocity
    k v_step has denominator b = q / gcd(q, k) and integer point
    z = b v = k p / gcd(q, k), all in integers.  Its ray is read exactly at
    the lattice points (n b, n z) for n = 1, 2, 4, ... <= n_max / b: with
    g_n = m(n b, 0, n z) / n, Lbar(v) is the two-level Richardson extrapolant
    (2 g_last - g_prev) / b, or g_last / b when the ray has one level, which
    is flagged in the diagnostics.  A ray the table does not reach raises
    UnreachableError; a v_step without such a q raises HorizonError, and a
    v_box_half below v_step (a grid of fewer than three nodes per axis) or
    no whole multiple of it ConfigurationError, before the table is built.

    table: an already built table on this lattice to read the rays from
    instead of building one.  Rays read only integer layers n <= n_max, so
    any keep mode gives the same model; a table of another spec, dt, dx or
    vmax, or with a horizon below n_max, raises ConfigurationError.
    threads: the thread count of the table built when none is given.
    """
    d = lagrangian.dimension
    if not 0 < v_step <= v_box_half:
        raise ConfigurationError(f"the Lbar grid needs 0 < v_step = {v_step} <= "
                                 f"v_box_half = {v_box_half}")
    q = next((b for b in range(1, int(n_max) + 1) if is_whole(b * v_step)), None)
    if q is None:
        raise HorizonError(f"v_step = {v_step} has no denominator b <= n_max = "
                           f"{n_max}: its rays start past the table horizon")
    p = round(q * v_step)
    half_steps = as_int_exact(v_box_half / v_step, "v_box_half/v_step")
    ks = np.arange(-half_steps, half_steps + 1)
    axis = ks * v_step
    if table is None:
        table = compute_metric_table(lagrangian, horizon=float(n_max), dt=dt, dx=dx,
                                     vmax=vmax, keep="integers", threads=threads)
    elif ((table.lagrangian.spec, table.dt, table.dx, table.vmax)
          != (lagrangian.spec, dt, dx, vmax) or table.horizon < n_max):
        raise ConfigurationError(
            f"table (dt={table.dt}, dx={table.dx}, vmax={table.vmax}, horizon="
            f"{table.horizon}) does not match the model's lattice (dt={dt}, "
            f"dx={dx}, vmax={vmax}, n_max={n_max}) or spec")

    values = np.empty((len(axis),) * d)
    rays, times, points = [], [], []
    for idx in np.ndindex(values.shape):
        k = ks[list(idx)]
        g = math.gcd(q, *k.tolist())
        b = q // g
        ns = [2**i for i in range((n_max // b).bit_length())]   # 1, 2, 4, ... <= n_max / b
        rays.append((idx, b, ns))
        times += [n * b for n in ns]
        points += [n * (k * p // g) for n in ns]
    reads = table.value_at(np.array(times), np.array(points))

    diagnostics = []
    for idx, b, ns in rays:
        v = axis[list(idx)]
        gs = (reads[:len(ns)] / ns).tolist()
        reads = reads[len(ns):]
        if not np.all(np.isfinite(gs)):
            raise UnreachableError(f"metric is +inf on the ray of v = {v}")
        lbar = (2.0 * gs[-1] - gs[-2] if len(gs) >= 2 else gs[-1]) / b
        values[idx] = lbar
        diagnostics.append({
            "v": v, "ns": [n * b for n in ns],
            "gs": [g_n / b for g_n in gs], "limit": lbar,
            "flagged": len(gs) < 2,
        })
    return EffectiveModel(ConvexFunctionTable((axis,) * d, values, VELOCITY_DOMAIN),
                          diagnostics, lagrangian.spec.normalization_shift)


def cell_problem_oracle(lagrangian: LagrangianField, p, t_long: float = 128.0,
                        dt: float = 0.125, dx: float = 0.125,
                        vmax: float = 6.0) -> float:
    """Independent H-bar estimate from the shifted-momentum torus problem.

    Solves w_t + H(x, p + D_x w) = 0, w(0, .) = 0 on the unit torus by value
    iteration (minimum over periodic lattice paths of cost minus p times
    displacement) and returns -w(T, 0)/T.  The torus is the metric table's
    step graph (metric._step_graph) with each step's cost less p . o dx: each
    step is one gather, node i taking the minimum over offsets o of w + cost
    at its source node i - o (mod 1), through a precomputed (offsets, nodes)
    source index.  The iteration to T on the torus, not the table's rays,
    is the independent route.
    """
    d = lagrangian.dimension
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.shape != (d,):
        raise DomainError(f"p must have {d} components")
    if not np.isfinite(p).all():
        raise DomainError(f"p = {p} must be finite")
    offsets, costs = _step_graph(lagrangian, dt, dx, vmax)
    big_m = costs.shape[-1]
    n_steps = as_int_exact(t_long / dt, "t_long / dt")
    if n_steps < 4:
        raise ConfigurationError("t_long too small for the torus iteration")

    # per offset o and target node i: the cost of the step from the source
    # node (i - o) mod M, less p . o dx, and that source's index
    cost = costs.reshape(len(offsets), -1) - [[float(p @ (o * dx))] for o in offsets]
    nodes = grid_points([np.arange(big_m)] * d)
    src = np.ravel_multi_index(tuple(n - o[:, None] for n, o in zip(nodes.T, offsets.T)),
                               (big_m,) * d, mode="wrap")

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
    rapidly.  A non-finite p raises DomainError.
    """
    p_abs = abs(float(p))
    if not math.isfinite(p_abs):
        raise DomainError(f"p = {p} must be finite")
    vals = _torus_values(potential)
    vmin = float(vals.min())

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
