"""Runtime checks of the structural hypotheses behind the scaling limit.

f(t, x) = m(t, 0, x) at the integer space-time points the DP reaches (its
finite entries) is checked for subadditivity, linear growth and the
approximate-geodesic property; the gap f - m-bar is sampled along rays.
These are measurements: every constant is reported, none is assumed.  The
reached integer points and their values come from one enumeration,
``MetricTable.integer_cone``; a check with nothing to measure (too few
points, no pair under the horizon) raises DomainError rather than passing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .effective import EffectiveModel
from .errors import DomainError, UnreachableError
from .metric import MetricTable, extract_minimizing_path
from .util import as_int_exact, is_whole, round_half_toward_zero


@dataclass
class ApproximateGeodesic:
    """Integer space-time chain along a minimizing path.

    The definition's constant K plays two roles; they are tracked separately
    as ``defect`` (additivity defect of f along the chain) and ``step_bound``
    (largest spatial increment).
    """

    nodes: np.ndarray            # (n+1, 1+d) integer rows (t_i, x_i)
    defect: float
    step_bound: float


def _pair_map(ks: np.ndarray, horizon_k: int):
    """The ordered pairs (i, j) of reached points with ks[i] + ks[j] <=
    horizon_k: their count, and the map from an index array over [0, count)
    to the pair arrays (i, j).  ks is sorted, so the partners of point i are
    the first c_i points, and index r is the r-th pair in (i, j) order."""
    partners = np.searchsorted(ks, horizon_k - ks, side="right")
    ends = np.cumsum(partners)

    def pairs(r):
        i = np.searchsorted(ends, r, side="right")
        return i, r - ends[i] + partners[i]
    return int(ends[-1]), pairs


def check_subadditivity(table: MetricTable, sample_size: int = 1000,
                        rng: np.random.Generator | None = None) -> float:
    """max of f(z + w) - f(z) - f(w) over sample_size ordered pairs of reached
    points, drawn uniformly from the pairs with k1 + k2 <= the last integer time.

    The lattice DP is exactly subadditive at integer points: a path to z
    followed by the integer translate of a path to w is a lattice path to
    z + w, at the same cost by periodicity.  So z + w is reached, and a
    violation above roundoff (the property suite gates at 1e-9) indicates a
    corrupted table.  A table where no pair fits under the horizon raises
    DomainError.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    ks, zs, vals = table.integer_cone()
    if len(ks) < 2:
        raise DomainError("table has too few reached integer points")
    count, pairs = _pair_map(ks, ks[-1])
    if count == 0 or sample_size < 1:
        raise DomainError(f"no pair to sample: {count} pairs of reached points fit "
                          f"under the table horizon, sample_size = {sample_size}")
    i, j = pairs(rng.integers(count, size=sample_size))
    fzw = table.value_at(ks[i] + ks[j], zs[i] + zs[j])
    return float(np.max(fzw - vals[i] - vals[j]))


def lemma_gaps(table: MetricTable, t) -> tuple[np.ndarray, np.ndarray]:
    """The doubling-gap lemma at integer time t: the endpoints, every integer
    x with 0 < |x| <= 2t and m(2t, 0, 2x) finite in lexicographic order, and
    the gap 2 m(t, 0, x) - m(2t, 0, 2x) at each (both empty when none)."""
    ks, zs, vals = table.integer_cone()
    ends = zs // 2
    pick = ((ks == 2 * t) & np.all(zs % 2 == 0, axis=1) & ends.any(axis=1)
            & (np.linalg.norm(ends, axis=1) <= 2 * t))
    return ends[pick], 2 * table.value_at(t, ends[pick]) - vals[pick]


def check_linear_growth(table: MetricTable) -> float:
    """Smallest K >= 1 with K^{-1}|z| - K <= f(z) <= K|z| + K on the reached
    integer points, |z| the Euclidean norm of the space-time point.  The
    points are integer, so every norm is exact."""
    ks, zs, f = table.integer_cone()
    norm = np.linalg.norm(np.column_stack([ks, zs]), axis=1)
    return float(np.concatenate(
        ([1.0], f / (norm + 1.0), (-f + np.sqrt(f * f + 4.0 * norm)) / 2.0)).max())


def extract_approximate_geodesic(table: MetricTable, t: float, x) -> ApproximateGeodesic:
    """Chop the minimizing path at unit times and round to integer points.

    Rounding is half-toward-zero; endpoints are preserved exactly (they are
    integer by precondition).  A difference of chain nodes that the table
    does not reach raises UnreachableError.
    """
    x = as_int_exact(np.atleast_1d(x), "x")
    t_int = as_int_exact(t, "t")
    path = extract_minimizing_path(table, float(t_int), x)
    per_unit = as_int_exact(1.0 / table.dt, "1/dt")
    nodes = np.column_stack([np.arange(t_int + 1),
                             round_half_toward_zero(path.nodes[::per_unit])]).astype(int)
    nodes[-1, 1:] = x

    # f[i, j] = f(nodes[j] - nodes[i]) for i < j, one read of the chain
    # differences; the defect is the largest |f[i, k] - f[j, k] - f[i, j]|
    n = len(nodes)
    i, j = np.triu_indices(n, 1)
    diffs = nodes[j] - nodes[i]
    f = np.zeros((n, n))
    f[i, j] = table.value_at(diffs[:, 0], diffs[:, 1:])
    if not np.isfinite(f).all():
        bad = diffs[~np.isfinite(f[i, j])][0]
        raise UnreachableError(f"chain difference {bad.tolist()} is not reached")
    i, j, k = np.ogrid[:n, :n, :n]
    defect = np.abs(f[:, None, :] - f[None, :, :] - f[:, :, None])[(i < j) & (j < k)]
    steps = np.diff(nodes[:, 1:], axis=0)
    step_bound = float(np.max(np.linalg.norm(steps, axis=1))) if len(steps) else 0.0
    return ApproximateGeodesic(nodes=nodes, defect=float(np.max(defect, initial=0.0)),
                               step_bound=step_bound)


@dataclass
class GapEnvelopeReport:
    """f - m-bar samples along rays and their least value."""

    samples: list = field(default_factory=list)   # (direction, scale, gap)
    min_gap: float = 0.0


def gap_vs_log_envelope(table: MetricTable, model: EffectiveModel,
                        directions) -> GapEnvelopeReport:
    """Measure f(s, s e) - s Lbar(e) along integer rays at s = 1, 2, 4, ...
    up to the table's last integer time."""
    dirs = [np.atleast_1d(np.asarray(e, dtype=float)) for e in directions]
    top = max(round(float(t)) for t in table.layer_times * table.dt if is_whole(t))
    rays = [(e, 2**i, 2**i * model.lagrangian_bar(e))
            for e in dirs for i in range(top.bit_length())]
    fvals = table.value_at([s for _, s, _ in rays],
                           np.reshape([s * e for e, s, _ in rays], (len(rays), table.dimension)))
    samples = [(tuple(e), s, float(fval - mbar))
               for (e, s, mbar), fval in zip(rays, fvals) if np.isfinite(fval)]
    if not samples:
        raise DomainError("no reached ray samples")
    return GapEnvelopeReport(samples=samples, min_gap=min(g for *_, g in samples))
