"""The periodic convex Hamiltonian H(x, p) = |p|^2 - V(x).

The potential V is Z^d-periodic, a finite cosine series
    V(x) = a0 + sum_i a_i cos(2 pi k_i . x),   k_i integer wave vectors.
A working Hamiltonian is "normalized" when H(x, 0) = -V(x) <= -1 everywhere,
which makes the dual running cost L = |v|^2 / 4 + V >= 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError


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
class HamiltonianSpec:
    """A periodic convex Hamiltonian H(x, p) = |p|^2 - V(x) with reductions.

    ``normalization_shift`` is the constant to add back as +t*shift to every
    solution computed with this working Hamiltonian.
    """

    dimension: int
    potential: CosinePotential
    normalization_shift: float = 0.0

    def __post_init__(self):
        if self.potential.dimension != self.dimension:
            raise DomainError("potential dimension mismatch")

    def describe(self) -> str:
        # literal family and cap fields keep the spec= hash in metric.csv stable
        return (
            f"quadratic_minus_potential:d={self.dimension}:V[{self.potential.describe()}]"
            f":shift={self.normalization_shift!r}:cap=inf"
        )

    def content_hash(self) -> str:
        return hashlib.sha256(self.describe().encode()).hexdigest()[:16]


def evaluate_hamiltonian(spec: HamiltonianSpec, x, p):
    """H(x, p) = |p|^2 - V(x); V is periodic, so x need not lie in [0, 1)^d.

    x, p: arrays of shape (..., d) (or scalars when d == 1).  Broadcasts.
    """
    d = spec.dimension
    x = _as_points(x, d, "x")
    p = _as_points(p, d, "p")
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise DomainError("non-finite x or p")
    val = np.sum(p * p, axis=-1) - spec.potential(x)
    return val if val.shape else float(val)


def normalize(spec: HamiltonianSpec) -> tuple[HamiltonianSpec, float]:
    """Shift V upward until min V >= 1, i.e. max_x H(x, 0) <= -1.

    Returns (normalized spec, shift); solving with the normalized spec and
    adding +t*shift to every value reproduces solutions of the input spec.
    The required raise is computed from the cosine coefficient bound
    a0 - sum |a_i| <= min V, so the postcondition holds without tolerance.
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


def _as_points(a, d: int, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        if d != 1:
            raise DomainError(f"{name} must have {d} components")
        return a.reshape(1)
    if a.shape[-1] != d:
        raise DomainError(f"{name} last axis must have length {d}")
    return a


# Convenience constructor for library use.

def cosine_spec(dimension: int, a0: float, *terms) -> HamiltonianSpec:
    """Spec with V = a0 + sum amp cos(2 pi k . x); terms are (amp, k) pairs."""
    tt = tuple((float(a), tuple(int(c) for c in k)) for a, k in terms)
    return HamiltonianSpec(dimension, CosinePotential(dimension, float(a0), tt))
