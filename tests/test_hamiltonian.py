import numpy as np
import pytest

from hamiltonian_reference import hamiltonian
from hjhom import cosine_spec, normalize
from hjhom.util import grid_points


def torus_nodes(d, n):
    return grid_points([np.arange(n) / n] * d)


def max_h_at_zero_momentum(spec, n=64):
    """max over the torus grid j/n of H(x, 0); <= -1 for a normalized spec."""
    xs = torus_nodes(spec.dimension, n)
    return float(np.max(hamiltonian(spec, xs, np.zeros_like(xs))))


def convexity_defect_in_p(spec):
    """Worst 2 H(x, p_i) - H(x, p_{i-1}) - H(x, p_{i+1}) along axis momentum
    lines on [-8, 8] (65 nodes), x on the 8-point torus grid; <= 0 up to
    roundoff when H(x, .) is convex there."""
    line = np.linspace(-8.0, 8.0, 65)
    worst = -np.inf
    for axis in range(spec.dimension):
        p = np.zeros((len(line), spec.dimension))
        p[:, axis] = line
        vals = np.stack([hamiltonian(spec, x[None, :], p)
                         for x in torus_nodes(spec.dimension, 8)])
        worst = max(worst, float((2.0 * vals[:, 1:-1] - vals[:, :-2] - vals[:, 2:]).max()))
    return worst


def test_evaluate_constant_potential_at_zero_momentum():
    spec = cosine_spec(1, 1.0)
    assert hamiltonian(spec, 0.3, 0.0) == -1.0


def test_evaluate_constant_potential():
    spec = cosine_spec(1, 1.0)
    assert hamiltonian(spec, 0.0, 2.0) == 3.0


def test_evaluate_cosine_potential():
    spec = cosine_spec(1, 2.0, (1.0, (1,)))
    # V(0.5) = 2 - 1, H = 1 - 1 = 0
    assert hamiltonian(spec, 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_normalize_zero_potential():
    spec = cosine_spec(1, 0.0)
    out, shift = normalize(spec)
    assert shift == -1.0
    assert out.potential(np.array([0.3])) == pytest.approx(1.0)
    assert max_h_at_zero_momentum(out) <= -1.0


def test_normalize_identity_case():
    spec = cosine_spec(1, 1.0)
    out, shift = normalize(spec)
    assert shift == 0.0
    assert out is spec


def test_normalize_cosine():
    spec = cosine_spec(1, 0.0, (1.0, (1,)))
    out, shift = normalize(spec)
    assert shift == -2.0
    xs = np.linspace(0, 1, 64, endpoint=False)[:, None]
    np.testing.assert_allclose(out.potential(xs), 2.0 + np.cos(2 * np.pi * xs[:, 0]))
    # grid scan: min of the new V is >= 1
    assert out.potential(xs).min() >= 1.0 - 1e-12


def test_normalized_invariant_on_grid():
    spec, _ = normalize(cosine_spec(2, 0.0, (1.0, (1, 0)), (1.0, (0, 1))))
    assert max_h_at_zero_momentum(spec, n=16) <= -1.0 + 1e-12


def test_convexity_in_momentum():
    spec, _ = normalize(cosine_spec(1, 2.0, (1.0, (1,))))
    assert convexity_defect_in_p(spec) <= 1e-10


def test_coercivity_radius():
    # min_x H(x, p) >= |p|^2 / 2 beyond |p| = sqrt(2 max V), max V = 3
    spec = cosine_spec(1, 2.0, (1.0, (1,)))
    ps = np.linspace(-8.0, 8.0, 65)[:, None]
    hmin = np.min([hamiltonian(spec, np.broadcast_to(x, ps.shape), ps)
                   for x in torus_nodes(1, 8)], axis=0)
    outer = np.abs(ps[:, 0]) >= np.sqrt(2 * 3.0)
    assert np.all(hmin[outer] >= 0.5 * ps[outer, 0] ** 2 - 1e-12)
    assert not np.all(hmin >= 0.5 * ps[:, 0] ** 2)   # the bound fails near p = 0


def test_periodicity_exact():
    spec = cosine_spec(2, 3.0, (1.0, (1, 0)), (1.0, (0, 1)))
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2, 2, size=(64, 2))
    ps = rng.uniform(-4, 4, size=(64, 2))
    for e in np.eye(2):
        np.testing.assert_allclose(hamiltonian(spec, xs + e, ps),
                                   hamiltonian(spec, xs, ps), rtol=0, atol=1e-12)


def test_solution_shift_identity():
    # solving with H - a then adding t*a reproduces H solutions: here checked
    # on the Hamiltonian itself, H_normalized = H + shift pointwise
    spec = cosine_spec(1, 0.0, (1.0, (1,)))
    out, shift = normalize(spec)
    xs = np.linspace(-1, 2, 17)[:, None]
    ps = np.linspace(-3, 3, 17)[:, None]
    np.testing.assert_allclose(
        hamiltonian(out, xs, ps),
        hamiltonian(spec, xs, ps) + shift,
        rtol=0, atol=1e-12,
    )
