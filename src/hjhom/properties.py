"""Runtime checks of the structural hypotheses behind the scaling limit.

f(t, x) = m(t, 0, x) restricted to integer space-time points in the cone is
checked for subadditivity, linear growth and the approximate-geodesic
property; the gap f - m-bar is fitted against a logarithmic envelope.
These are measurements: every constant is reported, none is assumed.  The
integer cone points and their values come from one enumeration,
``MetricTable.integer_cone``; a check with nothing to measure (too few
points, no sampled pair under the horizon) raises DomainError rather than
passing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .effective import EffectiveModel
from .errors import DomainError
from .metric import MetricTable, _pull_into_cone, extract_minimizing_path
from .util import as_int_exact, round_half_toward_zero


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


def check_subadditivity(table: MetricTable, sample_size: int = 1000,
                        rng: np.random.Generator | None = None) -> float:
    """max over sampled cone pairs of f(z + w) - f(z) - f(w).

    The discrete DP concatenates paths through the shared integer node, so
    violations beyond float roundoff indicate a corrupted table.  A table
    where no sampled pair fits under the horizon raises DomainError.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    ks, zs, vals = table.integer_cone()
    finite = np.isfinite(vals)
    ks, zs, vals = ks[finite], zs[finite], vals[finite]
    if len(ks) < 2:
        raise DomainError("table has too few integer cone points")
    horizon_k = int(round(table.horizon))
    worst = -np.inf
    tried = 0
    attempts = 0
    while tried < sample_size and attempts < 50 * sample_size:
        attempts += 1
        i1 = int(rng.integers(len(ks)))
        i2 = int(rng.integers(len(ks)))
        k = int(ks[i1] + ks[i2])
        zs_sum = zs[i1] + zs[i2]
        if k > horizon_k or not table.cone.contains(k, zs_sum):
            continue
        fzw = table.value_at(float(k), zs_sum.astype(float))
        if not np.isfinite(fzw):
            continue
        worst = max(worst, fzw - vals[i1] - vals[i2])
        tried += 1
    if tried == 0:
        raise DomainError("no sampled cone pair fits under the table horizon")
    return float(worst)


def check_linear_growth(table: MetricTable) -> float:
    """Smallest K >= 1 with K^{-1}|z| - K <= f(z) <= K|z| + K on the cone,
    |z| the Euclidean norm of the space-time point.  The points are integer,
    so every norm is exact."""
    ks, zs, f = table.integer_cone()
    finite = np.isfinite(f)
    f = f[finite]
    norm = np.linalg.norm(np.column_stack([ks, zs])[finite], axis=1)
    return float(np.concatenate(
        ([1.0], f / (norm + 1.0), (-f + np.sqrt(f * f + 4.0 * norm)) / 2.0)).max())


def extract_approximate_geodesic(table: MetricTable, t: float, x) -> ApproximateGeodesic:
    """Chop the minimizing path at unit times and round to integer points.

    Rounding is half-toward-zero, pulled toward the origin while outside the
    cone; endpoints are preserved exactly (they are integer by precondition).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t_int = as_int_exact(t, "t")
    if np.max(np.abs(x - np.round(x))) > 1e-9:
        raise DomainError("x must be an integer point")
    path = extract_minimizing_path(table, float(t_int), x)
    per_unit = as_int_exact(1.0 / table.dt, "1/dt")
    nodes = []
    for i in range(t_int + 1):
        xi = _pull_into_cone(round_half_toward_zero(path.nodes[i * per_unit]),
                             table.cone.speed * i)
        nodes.append(np.concatenate(([i], xi)))
    nodes = np.asarray(nodes, dtype=int)
    nodes[-1, 1:] = np.round(x).astype(int)

    def f(dz):
        return table.value_at(float(dz[0]), dz[1:].astype(float))

    defect = 0.0
    n = len(nodes)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                val = f(nodes[k] - nodes[i]) - f(nodes[k] - nodes[j]) - f(nodes[j] - nodes[i])
                if np.isfinite(val):
                    defect = max(defect, abs(val))
    steps = np.diff(nodes[:, 1:], axis=0)
    step_bound = float(np.max(np.linalg.norm(steps, axis=1))) if len(steps) else 0.0
    return ApproximateGeodesic(nodes=nodes, defect=float(defect), step_bound=step_bound)


@dataclass
class GapEnvelopeReport:
    """f - m-bar samples along rays and the fitted log envelope constant."""

    samples: list = field(default_factory=list)   # (direction, scale, |z|, gap)
    envelope_constant: float = 0.0
    min_gap: float = 0.0


def gap_vs_log_envelope(table: MetricTable, model: EffectiveModel,
                        directions) -> GapEnvelopeReport:
    """Measure f(s, s e) - s Lbar(e) along integer rays and fit the smallest
    C with gap <= C log(C + |z|)."""
    samples = []
    horizon_k = int(round(table.horizon))
    for e in directions:
        e = np.atleast_1d(np.asarray(e, dtype=float))
        lbar = model.lagrangian_bar(e)
        s = 1
        while s <= horizon_k:
            z = s * e
            if not table.cone.contains(float(s), z):
                break
            fval = table.value_at(float(s), z)
            if np.isfinite(fval):
                norm = float(np.linalg.norm(np.concatenate(([s], z))))
                samples.append((tuple(e), s, norm, float(fval - s * lbar)))
            s *= 2
    if not samples:
        raise DomainError("no ray samples inside the cone")
    min_gap = min(g for *_, g in samples)

    def fits(c):
        return all(g <= c * np.log(c + norm) + 1e-12 for *_, norm, g in samples)

    lo, hi = 0.0, 1.0
    while not fits(hi) and hi < 1e9:
        hi *= 2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return GapEnvelopeReport(samples=samples, envelope_constant=hi, min_gap=min_gap)
