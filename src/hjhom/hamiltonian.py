"""Periodic convex Hamiltonian families H(x, p) = |p|^2 - V(x).

The potential V is Z^d-periodic, given either as a finite cosine series
    V(x) = a0 + sum_i a_i cos(2 pi k_i . x),   k_i integer wave vectors,
or as a table of values on the unit torus with multilinear interpolation.
A working Hamiltonian is "normalized" when H(x, 0) = -V(x) <= -1 everywhere,
which makes the dual running cost L >= 1.  Momentum capping replaces H by
|p|^2 beyond a configurable radius; the default (inf) never activates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .util import grid_points, multilinear

FAMILY_QUADRATIC = "quadratic_minus_potential"

# Default verification grids: torus nodes per axis, momentum box half-width
# and nodes per axis.
TORUS_GRID_POINTS = 64
MOMENTUM_BOX = 8.0
MOMENTUM_GRID_POINTS = 65


@dataclass(frozen=True)
class CosinePotential:
    """Finite cosine series a0 + sum_i amp_i cos(2 pi k_i . x)."""

    dimension: int
    a0: float
    terms: tuple[tuple[float, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        for amp, k in self.terms:
            if len(k) != self.dimension:
                raise DomainError(
                    f"wave vector {k} has {len(k)} components, expected {self.dimension}"
                )
            if not all(isinstance(c, (int, np.integer)) for c in k):
                raise DomainError(f"wave vector {k} must have integer components")

    def __call__(self, x) -> np.ndarray:
        """Evaluate V at points x of shape (..., d).  Exactly periodic."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            x = x.reshape(1)
        val = np.full(x.shape[:-1], self.a0)
        for amp, k in self.terms:
            val = val + amp * np.cos(2.0 * np.pi * (x @ np.asarray(k, dtype=float)))
        return val

    def shifted(self, delta: float) -> "CosinePotential":
        return CosinePotential(self.dimension, self.a0 + delta, self.terms)

    def coefficient_lower_bound(self) -> float:
        """a0 - sum |a_i| <= min V, exact when one term with a single frequency."""
        return self.a0 - sum(abs(a) for a, _ in self.terms)

    def upper_bound(self) -> float:
        return self.a0 + sum(abs(a) for a, _ in self.terms)

    def describe(self) -> str:
        parts = [f"cos:d={self.dimension}:a0={self.a0!r}"]
        for amp, k in self.terms:
            parts.append(f"{amp!r},{','.join(str(c) for c in k)}")
        return ";".join(parts)


@dataclass(frozen=True)
class TabulatedPotential:
    """Values on a uniform torus grid, multilinearly interpolated.

    ``values`` has shape (n,) * dimension; node j sits at j / n.  Multilinear
    interpolation keeps min/max at the nodes, so grid scans of bounds are
    exact for this family.
    """

    dimension: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != self.dimension:
            raise DomainError("values array rank must equal dimension")
        object.__setattr__(self, "values", v)

    def __call__(self, x) -> np.ndarray:
        # node n of the wrap-padded table repeats node 0: np.mod(x, 1) * n
        # can round up to n
        u = np.mod(np.asarray(x, dtype=float), 1.0) * self.values.shape[0]
        i0 = np.floor(u)
        return multilinear(np.pad(self.values, (0, 1), mode="wrap"), i0.astype(int), u - i0)

    def shifted(self, delta: float) -> "TabulatedPotential":
        return TabulatedPotential(self.dimension, self.values + delta)

    def coefficient_lower_bound(self) -> float:
        return float(self.values.min())

    def upper_bound(self) -> float:
        return float(self.values.max())

    def describe(self) -> str:
        h = hashlib.sha256(np.ascontiguousarray(self.values).tobytes()).hexdigest()[:16]
        return f"tab:d={self.dimension}:n={self.values.shape[0]}:{h}"


@dataclass(frozen=True)
class HamiltonianSpec:
    """A periodic convex Hamiltonian H(x, p) = |p|^2 - V(x) with reductions.

    ``normalization_shift`` is the constant to add back as +t*shift to every
    solution computed with this working Hamiltonian.  ``momentum_cap`` forces
    H(x, p) = |p|^2 for |p| >= cap; the default never activates.
    """

    dimension: int
    potential: CosinePotential | TabulatedPotential
    family: str = FAMILY_QUADRATIC
    normalization_shift: float = 0.0
    momentum_cap: float = np.inf

    def __post_init__(self):
        if self.family != FAMILY_QUADRATIC:
            raise DomainError(f"unknown Hamiltonian family {self.family!r}")
        if self.potential.dimension != self.dimension:
            raise DomainError("potential dimension mismatch")
        if not self.momentum_cap > 0:
            raise DomainError("momentum_cap must be positive")

    def describe(self) -> str:
        return (
            f"{self.family}:d={self.dimension}:V[{self.potential.describe()}]"
            f":shift={self.normalization_shift!r}:cap={self.momentum_cap!r}"
        )

    def content_hash(self) -> str:
        return hashlib.sha256(self.describe().encode()).hexdigest()[:16]


def evaluate_hamiltonian(spec: HamiltonianSpec, x, p):
    """H(x mod 1, p), with the cap H = |p|^2 enforced for |p| >= momentum_cap.

    x, p: arrays of shape (..., d) (or scalars when d == 1).  Broadcasts.
    """
    d = spec.dimension
    x = _as_points(x, d, "x")
    p = _as_points(p, d, "p")
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise DomainError("non-finite x or p")
    psq = np.sum(p * p, axis=-1)
    val = psq - spec.potential(x)
    if np.isfinite(spec.momentum_cap):
        capped = np.sqrt(psq) >= spec.momentum_cap
        val = np.where(capped, psq, val)
    return val if val.shape else float(val)


def normalize(spec: HamiltonianSpec) -> tuple[HamiltonianSpec, float]:
    """Shift V upward until min V >= 1, i.e. max_x H(x, 0) <= -1.

    Returns (normalized spec, shift); solving with the normalized spec and
    adding +t*shift to every value reproduces solutions of the input spec.
    The required raise is computed from the potential's exact lower bound
    (cosine coefficient bound, or the node minimum for tabulated potentials),
    so the postcondition holds without tolerance.
    """
    delta = max(0.0, 1.0 - spec.potential.coefficient_lower_bound())
    if delta == 0.0:
        return spec, 0.0
    out = replace(
        spec,
        potential=spec.potential.shifted(delta),
        normalization_shift=spec.normalization_shift - delta,
    )
    return out, -delta


def torus_grid(dimension: int, n: int = TORUS_GRID_POINTS) -> np.ndarray:
    """All nodes j/n of the torus verification grid, shape (n^d, d)."""
    return grid_points([np.arange(n) / n] * dimension)


def check_normalized(spec: HamiltonianSpec, n: int = TORUS_GRID_POINTS) -> float:
    """max over the torus grid of H(x, 0); <= -1 for a normalized spec."""
    xs = torus_grid(spec.dimension, n)
    zeros = np.zeros_like(xs)
    return float(np.max(evaluate_hamiltonian(spec, xs, zeros)))


def check_convexity_in_p(spec: HamiltonianSpec) -> float:
    """Worst midpoint-convexity defect of H(x, .) along axis momentum lines.

    Returns max over grid x and momentum nodes of
    2 H(x, mid) - H(x, p) - H(x, q) for axis-adjacent p, q; <= 0 up to
    roundoff when H(x, .) is convex on the box.
    """
    xs = torus_grid(spec.dimension, 8)
    worst = -np.inf
    line = np.linspace(-MOMENTUM_BOX, MOMENTUM_BOX, MOMENTUM_GRID_POINTS)
    for axis in range(spec.dimension):
        p = np.zeros((len(line), spec.dimension))
        p[:, axis] = line
        vals = np.stack([evaluate_hamiltonian(spec, x[None, :], p) for x in xs])
        defect = 2.0 * vals[:, 1:-1] - vals[:, :-2] - vals[:, 2:]
        worst = max(worst, float(defect.max()))
    return worst


def check_coercivity(spec: HamiltonianSpec) -> float:
    """Smallest grid radius beyond which min_x H(x, p) >= |p|^2 / 2.

    For the quadratic family the analytic answer is sqrt(2 max V); returns
    +inf if the bound still fails at the box edge.
    """
    ps = grid_points([np.linspace(-MOMENTUM_BOX, MOMENTUM_BOX, MOMENTUM_GRID_POINTS)]
                     * spec.dimension)
    radii = np.linalg.norm(ps, axis=-1)
    xs = torus_grid(spec.dimension, 8)
    hmin = np.full(len(ps), np.inf)
    for x in xs:
        hmin = np.minimum(hmin, evaluate_hamiltonian(spec, np.broadcast_to(x, ps.shape), ps))
    ok = hmin >= 0.5 * radii**2 - 1e-12
    bad = radii[~ok]
    if bad.size == 0:
        return 0.0
    r = float(bad.max())
    return r if r < radii.max() - 1e-12 else np.inf


def check_periodicity(spec: HamiltonianSpec, rng: np.random.Generator) -> float:
    """max |H(x + e_j, p) - H(x, p)| over 64 random samples; 0 by construction."""
    d = spec.dimension
    xs = rng.uniform(-2, 2, size=(64, d))
    ps = rng.uniform(-4, 4, size=(64, d))
    worst = 0.0
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        worst = max(worst, float(np.max(np.abs(
            evaluate_hamiltonian(spec, xs + e, ps) - evaluate_hamiltonian(spec, xs, ps)
        ))))
    return worst


def _as_points(a, d: int, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        if d != 1:
            raise DomainError(f"{name} must have {d} components")
        return a.reshape(1)
    if a.shape[-1] != d:
        raise DomainError(f"{name} last axis must have length {d}")
    return a


# Convenience constructors used throughout tests and the harness.

def cosine_spec(dimension: int, a0: float, *terms) -> HamiltonianSpec:
    """Spec with V = a0 + sum amp cos(2 pi k . x); terms are (amp, k) pairs."""
    tt = tuple((float(a), tuple(int(c) for c in k)) for a, k in terms)
    return HamiltonianSpec(dimension, CosinePotential(dimension, float(a0), tt))
