"""Two-dimensional path surgery: cyclic shifts, crossing search, splicing.

Given a minimizer for m(2t, 0, 2x), its halves are normalized (drift removed,
midpoint defect rotated onto the first axis) into space-time paths that must
cross after suitable cyclic shifts; splicing at the crossing produces a path
through (t, x) whose extra cost witnesses 2 m(t, 0, x) <= m(2t, 0, 2x) + C.
The winding-number argument guarantees a crossing exists on the continuous
shift family, so failure of the grid search is treated as under-resolution.

Every cyclic shift (the shifts ``find_crossing`` scores, the splice in
``path_surgery``) rotates increments through one routine,
``_rolled_increments``.  The crossing search scores every shift pair as one
distance array and picks what a walk over the pairs in scan order would
pick.  The spliced path is costed by ``metric.path_cost`` from its own
increments (not from differences of its nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .metric import DiscretePath, MetricTable, path_cost
from .util import as_int_exact, write_rows


@dataclass
class SpaceTimePath2D:
    """Uniformly time-stepped polyline in R x R^2 (time, two space coords)."""

    dt: float
    nodes: np.ndarray            # (n+1, 3), column 0 is time

    @property
    def steps(self) -> int:
        return len(self.nodes) - 1

    def spatial(self) -> np.ndarray:
        return self.nodes[:, 1:]


def _rolled_increments(nodes: np.ndarray, m: int) -> np.ndarray:
    """Increments of a uniformly stepped polyline, rotated left by m steps."""
    return np.roll(np.diff(nodes, axis=0), -m, axis=0)


def _shifted_spatial(path: SpaceTimePath2D, m: int) -> np.ndarray:
    """Spatial nodes of the cyclic shift by m steps, keeping the start."""
    start = path.nodes[0, 1:]
    inc = _rolled_increments(path.nodes[:, 1:], m)
    return np.vstack([start, start + np.cumsum(inc, axis=0)])


def _walk(start: int, end: int, n: int) -> list:
    """Shifts 0..n in scan order: start, then toward end, then away."""
    up, down = list(range(start + 1, n + 1)), list(range(start - 1, -1, -1))
    return [start] + (up + down if end >= start else down + up)


@dataclass
class Crossing:
    c1: float
    c2: float
    s: float
    witness: np.ndarray          # (3,) space-time point on both shifted paths
    separation: float


def find_crossing(eta1: SpaceTimePath2D, eta2: SpaceTimePath2D) -> Crossing:
    """Search shift pairs (c1, c2) for a time s where the shifted paths meet.

    The scan starts from the half-space-extremal shifts (third coordinate
    argmax of eta1, argmin of eta2) and walks toward the opposite extremal
    configuration, scoring each pair by the minimum spatial separation over
    common times.  All pairs are scored at once; the pick is the first pair
    in scan order whose separation is <= 1e-12, otherwise the first
    minimum.  A best separation above the longest step raises a resolution
    error.
    """
    if eta1.steps != eta2.steps or abs(eta1.dt - eta2.dt) > 1e-12:
        raise DomainError("paths must share the time lattice")
    n = eta1.steps
    tolerance = max(np.linalg.norm(np.diff(eta.spatial(), axis=0), axis=1).max()
                    for eta in (eta1, eta2)) + 1e-9

    third1 = eta1.nodes[:, 2]
    third2 = eta2.nodes[:, 2]
    order1 = _walk(int(np.argmax(third1)), int(np.argmin(third1)), n)
    order2 = _walk(int(np.argmin(third2)), int(np.argmax(third2)), n)
    a1 = np.stack([_shifted_spatial(eta1, m) for m in order1])
    a2 = np.stack([_shifted_spatial(eta2, m) for m in order2])
    dist = np.linalg.norm(a1[:, None] - a2[None, :], axis=-1)   # (m1, m2, s)
    score = dist.min(axis=-1).ravel()
    hits = np.flatnonzero(score <= 1e-12)
    i1, i2 = divmod(int(hits[0]) if len(hits) else int(np.argmin(score)), n + 1)
    j = int(np.argmin(dist[i1, i2]))
    sep = float(dist[i1, i2, j])
    if sep > tolerance:
        raise ResolutionError(
            f"no crossing within tolerance {tolerance:.3g} (best {sep:.3g}); "
            "refine the time lattice")
    witness = np.concatenate(([j * eta1.dt], 0.5 * (a1[i1, j] + a2[i2, j])))
    return Crossing(c1=order1[i1] * eta1.dt, c2=order2[i2] * eta2.dt,
                    s=j * eta1.dt, witness=witness, separation=sep)


@dataclass
class SurgeryResult:
    path: DiscretePath           # element of Gamma(2t, 0, 2x) through (t, x)
    gap: float                   # cost(path) - cost(input minimizer)
    lemma_gap: float             # 2 m(t,0,x) - m(2t,0,2x) from the table
    crossing: Crossing | None


def path_surgery(gamma: DiscretePath, table: MetricTable) -> SurgeryResult:
    """Splice the halves of a minimizer for (2t, 0, 2x) into a path through
    (t, x) at cost at most a measured constant more.

    The midpoint defect y is rotated onto the first axis after removing the
    mean drift; cyclic shifts of the normalized halves cross, and the spliced
    increments are rearranged so each half connects 0 -> x -> 2x.  The cost
    of the result is re-evaluated along the new polyline (cyclic shifts move
    base points, and the running cost is position-dependent).
    """
    if gamma.nodes.shape[1] != 2:
        raise DomainError("surgery requires d = 2")
    steps = len(gamma.nodes) - 1
    if steps % 2:
        raise DomainError("path must have an even number of steps")
    half = steps // 2
    t = half * gamma.dt
    as_int_exact(t, "t")
    two_x = gamma.nodes[-1]
    x = two_x / 2.0
    if np.max(np.abs(x - np.round(x))) > 1e-9:
        raise DomainError("x must be an integer point")
    x = np.round(x)

    m_2t = table.value_at(2 * t, two_x)
    m_t = table.value_at(t, x)
    lemma_gap = 2 * m_t - m_2t

    g1 = gamma.nodes[:half + 1].copy()
    g2 = gamma.nodes[half:] - gamma.nodes[half]
    y = (g2[-1] - g1[-1]) / 2.0
    a = float(np.linalg.norm(y))
    if a <= 1e-9:
        # midpoint already x: the minimizer itself witnesses the lemma
        return SurgeryResult(path=gamma, gap=0.0, lemma_gap=lemma_gap,
                             crossing=None)

    # normalize: remove drift x/t, rotate y onto (A, 0)
    drift = x / t
    times = np.arange(half + 1) * gamma.dt
    rot = np.array([[y[0], y[1]], [-y[1], y[0]]]) / a
    sheared1 = (g1 - times[:, None] * drift) @ rot.T + np.array([a, 0.0])
    sheared2 = (g2 - times[:, None] * drift) @ rot.T
    eta1 = SpaceTimePath2D(gamma.dt, np.column_stack([times, sheared1]))
    eta2 = SpaceTimePath2D(gamma.dt, np.column_stack([times, sheared2]))
    crossing = find_crossing(eta1, eta2)

    m1 = int(round(crossing.c1 / gamma.dt))
    m2 = int(round(crossing.c2 / gamma.dt))
    j = int(round(crossing.s / gamma.dt))
    rolled1 = _rolled_increments(g1, m1)
    rolled2 = _rolled_increments(g2, m2)
    first_half = np.vstack([rolled2[:j], rolled1[j:]])
    second_half = np.vstack([rolled2[j:], rolled1[:j]])
    # distribute the residual so the path passes through x and ends at 2x
    delta1 = x - first_half.sum(axis=0)
    delta2 = (two_x - x) - second_half.sum(axis=0)
    first_half = first_half + delta1 / half
    second_half = second_half + delta2 / half
    incs = np.vstack([first_half, second_half])
    nodes = np.vstack([[0.0, 0.0], np.cumsum(incs, axis=0)])
    cost = path_cost(table.lagrangian, gamma.dt, nodes, incs)
    new_path = DiscretePath(dt=gamma.dt, nodes=nodes, cost=cost)
    return SurgeryResult(path=new_path, gap=cost - gamma.cost,
                         lemma_gap=lemma_gap, crossing=crossing)


def surgery_csv(results, path) -> None:
    """Diagnostic dump: t, x, lemma gap, crossing shifts, costs."""
    rows = []
    for t, x, res in results:
        c = res.crossing
        shifts = (c.c1, c.c2, c.s) if c else (0.0, 0.0, 0.0)
        rows.append((t, x[0], x[1], res.lemma_gap, res.gap, *shifts,
                     res.path.cost - res.gap, res.path.cost))
    write_rows(path, ["# schema=hjhom.surgery.v1",
                      "t,x1,x2,lemma_gap,surgery_gap,c1,c2,s,cost_before,cost_after"],
               rows, ",")
