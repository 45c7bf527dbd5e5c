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
distance array and takes its least separation.  Shifts and the crossing
step stay integer step counts; only ``surgery_csv`` turns them into times.
The spliced path is costed by ``metric.path_cost`` from its own increments
(not from differences of its nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .metric import DiscretePath, MetricTable, path_cost
from .util import as_int_exact, write_rows


def _rolled_increments(nodes: np.ndarray, m: int) -> np.ndarray:
    """Increments of a uniformly stepped polyline, rotated left by m steps."""
    return np.roll(np.diff(nodes, axis=0), -m, axis=0)


def _shifted(nodes: np.ndarray, m: int) -> np.ndarray:
    """Nodes of the cyclic shift by m steps, keeping the start."""
    return np.vstack([nodes[0], nodes[0] + np.cumsum(_rolled_increments(nodes, m), axis=0)])


@dataclass
class Crossing:
    """Shift pair (m1, m2) and step j where the shifted paths meet, in steps."""

    m1: int
    m2: int
    j: int
    separation: float


def find_crossing(eta1: np.ndarray, eta2: np.ndarray) -> Crossing:
    """The shift pair (m1, m2) and step j where the shifted paths come
    closest, ties broken by (m1, m2, j) order.

    eta1 and eta2 are (n+1, 2) node arrays on one time lattice.  All shift
    pairs are scored at once, as one distance array over (m1, m2, j).  A least
    separation above the longest step raises a resolution error.
    """
    if eta1.shape != eta2.shape:
        raise DomainError("paths must share the time lattice")
    n = len(eta1) - 1
    tolerance = max(np.linalg.norm(np.diff(eta, axis=0), axis=1).max()
                    for eta in (eta1, eta2)) + 1e-9
    a1 = np.stack([_shifted(eta1, m) for m in range(n + 1)])
    a2 = np.stack([_shifted(eta2, m) for m in range(n + 1)])
    dist = np.linalg.norm(a1[:, None] - a2[None, :], axis=-1)   # (m1, m2, j)
    m1, m2, j = (int(i) for i in np.unravel_index(np.argmin(dist), dist.shape))
    sep = float(dist[m1, m2, j])
    if sep > tolerance:
        raise ResolutionError(
            f"no crossing within tolerance {tolerance:.3g} (best {sep:.3g}); "
            "refine the time lattice")
    return Crossing(m1=m1, m2=m2, j=j, separation=sep)


@dataclass
class SurgeryResult:
    path: DiscretePath           # element of Gamma(2t, 0, 2x) through (t, x)
    gap: float                   # cost(path) - cost(input minimizer)
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
    x = as_int_exact(two_x / 2.0, "x")

    g1 = gamma.nodes[:half + 1].copy()
    g2 = gamma.nodes[half:] - gamma.nodes[half]
    y = (g2[-1] - g1[-1]) / 2.0
    a = float(np.linalg.norm(y))
    if a <= 1e-9:
        # midpoint already x: the minimizer itself witnesses the lemma
        return SurgeryResult(path=gamma, gap=0.0, crossing=None)

    # normalize: remove drift x/t, rotate y onto (A, 0)
    drift = x / t
    times = np.arange(half + 1) * gamma.dt
    rot = np.array([[y[0], y[1]], [-y[1], y[0]]]) / a
    sheared1 = (g1 - times[:, None] * drift) @ rot.T + np.array([a, 0.0])
    sheared2 = (g2 - times[:, None] * drift) @ rot.T
    crossing = find_crossing(sheared1, sheared2)

    j = crossing.j
    rolled1 = _rolled_increments(g1, crossing.m1)
    rolled2 = _rolled_increments(g2, crossing.m2)
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
    return SurgeryResult(path=new_path, gap=cost - gamma.cost, crossing=crossing)


def surgery_csv(results, path) -> None:
    """Diagnostic dump of (t, x, lemma gap, surgery result) rows: t, x as
    floats, lemma gap, crossing shifts and step as times (dt steps), costs."""
    rows = []
    for t, x, lemma_gap, res in results:
        c, dt = res.crossing, res.path.dt
        shifts = (c.m1 * dt, c.m2 * dt, c.j * dt) if c else (0.0, 0.0, 0.0)
        rows.append((t, float(x[0]), float(x[1]), lemma_gap, res.gap, *shifts,
                     res.path.cost - res.gap, res.path.cost))
    write_rows(path, ["# schema=hjhom.surgery.v1",
                      "t,x1,x2,lemma_gap,surgery_gap,c1,c2,s,cost_before,cost_after"],
               rows, ",")
