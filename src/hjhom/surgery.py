"""Two-dimensional path surgery: cyclic shifts, crossing search, splicing.

Given a minimizer for m(2t, 0, 2x), its halves are normalized (drift removed,
midpoint defect rotated onto the first axis) into space-time paths that must
cross after suitable cyclic shifts; splicing at the crossing produces a path
through (t, x) whose extra cost witnesses 2 m(t, 0, x) <= m(2t, 0, 2x) + C.
The winding-number argument guarantees a crossing exists on the continuous
shift family, so failure of the grid search is treated as under-resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResolutionError
from .metric import DiscretePath, MetricTable
from .util import as_int_exact, format_float


@dataclass
class SpaceTimePath2D:
    """Uniformly time-stepped polyline in R x R^2 (time, two space coords)."""

    dt: float
    nodes: np.ndarray            # (n+1, 3), column 0 is time
    snapped: bool = False        # a requested shift was snapped to the lattice

    @property
    def steps(self) -> int:
        return len(self.nodes) - 1

    @property
    def duration(self) -> float:
        return self.dt * self.steps

    def increments(self) -> np.ndarray:
        return np.diff(self.nodes, axis=0)

    def spatial(self) -> np.ndarray:
        return self.nodes[:, 1:]


def cyclic_shift(path: SpaceTimePath2D, c: float) -> SpaceTimePath2D:
    """Rotate the increment sequence by time c.

    The output keeps the input's starting point (so c = 0 and c = t are the
    identity), runs over the same uniform time lattice, and preserves the
    increment multiset as a cyclic sequence; the total displacement is
    unchanged.  Off-lattice c is snapped, with the flag set.
    """
    if not 0 <= c <= path.duration + 1e-9:
        raise DomainError("shift must lie in [0, t]")
    m_float = c / path.dt
    m = int(round(m_float))
    snapped = abs(m_float - m) > 1e-9
    out = path.nodes[:1].copy()
    inc = np.roll(path.increments(), -m, axis=0)
    out = np.vstack([out, out[0] + np.cumsum(inc, axis=0)])
    out[:, 0] = path.nodes[:, 0]
    return SpaceTimePath2D(path.dt, out, snapped=snapped)


def _shifted_spatial(path: SpaceTimePath2D, m: int) -> np.ndarray:
    """Spatial nodes of the cyclic shift by m steps, keeping the start."""
    inc = np.roll(np.diff(path.nodes[:, 1:], axis=0), -m, axis=0)
    start = path.nodes[0, 1:]
    return np.vstack([start, start + np.cumsum(inc, axis=0)])


@dataclass
class Crossing:
    c1: float
    c2: float
    s: float
    witness: np.ndarray          # (3,) space-time point on both shifted paths
    separation: float


def find_crossing(eta1: SpaceTimePath2D, eta2: SpaceTimePath2D,
                  shift_grid: int | None = None,
                  tolerance: float | None = None) -> Crossing:
    """Search shift pairs (c1, c2) for a time s where the shifted paths meet.

    The scan starts from the half-space-extremal shifts (third coordinate
    argmax of eta1, argmin of eta2) and walks toward the opposite extremal
    configuration, scoring each pair by the minimum spatial separation over
    common times.  No pair within tolerance after the full scan raises a
    resolution error.
    """
    if eta1.steps != eta2.steps or abs(eta1.dt - eta2.dt) > 1e-12:
        raise DomainError("paths must share the time lattice")
    n = eta1.steps
    stride = 1
    if shift_grid is not None and shift_grid < n:
        stride = max(1, n // shift_grid)
    if tolerance is None:
        step1 = np.linalg.norm(np.diff(eta1.spatial(), axis=0), axis=1).max()
        step2 = np.linalg.norm(np.diff(eta2.spatial(), axis=0), axis=1).max()
        tolerance = max(step1, step2) + 1e-9

    shifted1 = {m: _shifted_spatial(eta1, m) for m in range(0, n + 1, stride)}
    shifted2 = {m: _shifted_spatial(eta2, m) for m in range(0, n + 1, stride)}

    third1 = eta1.nodes[:, 2]
    third2 = eta2.nodes[:, 2]
    start1, end1 = int(np.argmax(third1)), int(np.argmin(third1))
    start2, end2 = int(np.argmin(third2)), int(np.argmax(third2))

    def walk(start, end, keys):
        keys = sorted(keys)
        si = min(range(len(keys)), key=lambda i: abs(keys[i] - start))
        order = [keys[si]]
        left = keys[:si][::-1]
        right = keys[si + 1:]
        toward = right if end >= start else left
        away = left if end >= start else right
        order += toward + away
        return order

    best = None
    for m1 in walk(start1, end1, shifted1.keys()):
        a1 = shifted1[m1]
        for m2 in walk(start2, end2, shifted2.keys()):
            diff = a1 - shifted2[m2]
            dist = np.linalg.norm(diff, axis=1)
            j = int(np.argmin(dist))
            if best is None or dist[j] < best[0]:
                mid = 0.5 * (a1[j] + shifted2[m2][j])
                best = (float(dist[j]), m1, m2, j, mid)
                if best[0] <= 1e-12:
                    break
        else:
            continue
        break
    sep, m1, m2, j, mid = best
    if sep > tolerance:
        raise ResolutionError(
            f"no crossing within tolerance {tolerance:.3g} (best {sep:.3g}); "
            "refine the time lattice")
    witness = np.concatenate(([j * eta1.dt], mid))
    return Crossing(c1=m1 * eta1.dt, c2=m2 * eta2.dt, s=j * eta1.dt,
                    witness=witness, separation=sep)


@dataclass
class SurgeryResult:
    path: DiscretePath           # element of Gamma(2t, 0, 2x) through (t, x)
    gap: float                   # cost(path) - cost(input minimizer)
    lemma_gap: float             # 2 m(t,0,x) - m(2t,0,2x) from the table
    crossing: Crossing | None
    diagnostic_nodes: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))


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
    inc1 = np.diff(g1, axis=0)
    inc2 = np.diff(g2, axis=0)
    rolled1 = np.roll(inc1, -m1, axis=0)
    rolled2 = np.roll(inc2, -m2, axis=0)
    first_half = np.vstack([rolled2[:j], rolled1[j:]])
    second_half = np.vstack([rolled2[j:], rolled1[:j]])
    # distribute the residual so the path passes through x and ends at 2x
    delta1 = x - first_half.sum(axis=0)
    delta2 = (two_x - x) - second_half.sum(axis=0)
    first_half = first_half + delta1 / half
    second_half = second_half + delta2 / half
    incs = np.vstack([first_half, second_half])
    nodes = np.vstack([[0.0, 0.0], np.cumsum(incs, axis=0)])
    cost = float(np.sum(gamma.dt * table.lagrangian(
        np.mod((nodes[:-1] + nodes[1:]) / 2.0, 1.0), incs / gamma.dt)))
    new_path = DiscretePath(dt=gamma.dt, nodes=nodes, cost=cost)

    # segment-boundary diagnostic chain (<= 9 nodes)
    bounds = sorted({0, j, half, half + (half - j), steps})
    diag = np.column_stack([np.asarray(bounds) * gamma.dt,
                            nodes[np.asarray(bounds)]])
    return SurgeryResult(path=new_path, gap=cost - gamma.cost,
                         lemma_gap=lemma_gap, crossing=crossing,
                         diagnostic_nodes=diag)


def surgery_csv(results, path) -> None:
    """Diagnostic dump: t, x, lemma gap, crossing shifts, costs."""
    with open(path, "w") as fh:
        fh.write("# schema=hjhom.surgery.v1\n")
        fh.write("t,x1,x2,lemma_gap,surgery_gap,c1,c2,s,cost_before,cost_after\n")
        for t, x, res in results:
            c = res.crossing
            row = [format_float(t), format_float(x[0]), format_float(x[1]),
                   format_float(res.lemma_gap), format_float(res.gap),
                   format_float(c.c1 if c else 0.0),
                   format_float(c.c2 if c else 0.0),
                   format_float(c.s if c else 0.0),
                   format_float(res.path.cost - res.gap),
                   format_float(res.path.cost)]
            fh.write(",".join(row) + "\n")
