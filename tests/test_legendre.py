import numpy as np
import pytest

from hjhom import (
    DomainError,
    build_lagrangian,
    conjugate,
    cosine_spec,
    evaluate_hamiltonian,
    normalize,
)
from hjhom.legendre import MOMENTUM_DOMAIN, VELOCITY_DOMAIN, ConvexFunctionTable
from hjhom.util import grid_points


def table_1d(fun, lo=-4.0, hi=4.0, n=65, units=MOMENTUM_DOMAIN):
    axes = (np.linspace(lo, hi, n),)
    return ConvexFunctionTable(axes, fun(axes[0]), units)


def dual_table_1d(f: ConvexFunctionTable, lo, hi, n) -> ConvexFunctionTable:
    """The conjugate of a 1-d table on n uniform nodes of [lo, hi]."""
    units = VELOCITY_DOMAIN if f.units == MOMENTUM_DOMAIN else MOMENTUM_DOMAIN
    axis = np.linspace(lo, hi, n)
    return ConvexFunctionTable((axis,), conjugate(f, axis[:, None]), units)


def brute_conjugate(f: ConvexFunctionTable, points):
    """Independent direct maximization over the full node set."""
    mesh = np.meshgrid(*f.axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = f.values.ravel()
    out = []
    for v in np.atleast_2d(points):
        out.append(np.max(nodes @ v - vals))
    return np.asarray(out)


def test_conjugate_of_square():
    f = table_1d(lambda p: p**2)
    g = dual_table_1d(f, -2, 2, 17)
    i = np.argmin(np.abs(g.axes[0] - 1.0))
    assert g.axes[0][i] == 1.0
    assert g.values[i] == pytest.approx(0.25, abs=1e-12)


def test_self_dual_quadratic():
    f = table_1d(lambda p: p**2 / 2)
    g = dual_table_1d(f, -2, 2, 17)
    i = np.argmin(np.abs(g.axes[0] - 1.0))
    assert g.values[i] == pytest.approx(0.5, abs=1e-12)


def test_conjugate_of_norm_truncated_by_box():
    f = table_1d(np.abs)
    g = dual_table_1d(f, -2.5, 2.5, 21)
    ax = g.axes[0]
    i_half = int(np.argmin(np.abs(ax - 0.5)))
    i_two = int(np.argmin(np.abs(ax - 2.0)))
    assert g.values[i_half] == pytest.approx(0.0, abs=1e-12)
    # outside the unit ball the sup is truncated by the momentum box at p = 4
    assert g.values[i_two] == pytest.approx(4.0, abs=1e-12)


def test_matches_brute_force_2d():
    axes = (np.linspace(-3, 3, 25),) * 2
    p1, p2 = np.meshgrid(*axes, indexing="ij")
    f = ConvexFunctionTable(axes, p1**2 + 0.5 * p2**2 + 0.25 * p1 * p2, MOMENTUM_DOMAIN)
    vm = np.meshgrid(*(np.linspace(-1.5, 1.5, 7),) * 2, indexing="ij")
    pts = np.stack([m.ravel() for m in vm], axis=-1)
    np.testing.assert_allclose(conjugate(f, pts), brute_conjugate(f, pts), atol=1e-10)


def test_conjugate_rows_are_one_point_calls():
    # each row is maximized alone: bitwise the one-point call and the
    # matrix-vector form max(nodes @ p - f)
    rng = np.random.default_rng(3)
    axes = (np.linspace(-2, 2, 9), np.linspace(-1, 3, 13))
    f = ConvexFunctionTable(axes, rng.normal(size=(9, 13)), VELOCITY_DOMAIN)
    pts = rng.normal(size=(20, 2))
    got = conjugate(f, pts)
    nodes, vals = grid_points(axes), f.values.ravel()
    for i, p in enumerate(pts):
        assert got[i] == conjugate(f, p)[0] == np.max(nodes @ p - vals)


def test_biconjugation_reproduces_convex_table():
    f = table_1d(lambda p: p**2, lo=-4, hi=4, n=33)
    g = dual_table_1d(f, -8.5, 8.5, 69)
    h = dual_table_1d(g, -4, 4, 33)
    interior = slice(4, -4)
    np.testing.assert_allclose(h.values[interior], f.values[interior], atol=5e-2)


def test_order_reversal():
    f = table_1d(lambda p: p**2)
    g = table_1d(lambda p: p**2 + 1.0)
    fs = dual_table_1d(f, -2, 2, 17)
    gs = dual_table_1d(g, -2, 2, 17)
    assert np.all(fs.values >= gs.values)


def test_young_inequality_exact_on_grid():
    f = table_1d(lambda p: p**2 + np.abs(p))
    fs = dual_table_1d(f, -3, 3, 25)
    for i, p in enumerate(f.axes[0]):
        for j, v in enumerate(fs.axes[0]):
            assert p * v <= f.values[i] + fs.values[j] + 1e-12


def test_empty_grid_rejected():
    f = ConvexFunctionTable((np.array([0.0]),), np.array([np.inf]), MOMENTUM_DOMAIN)
    with pytest.raises(DomainError):
        conjugate(f, [[0.5]])


def convexity_defect(values):
    """Worst second difference 2 f_i - f_{i-1} - f_{i+1} of a 1-d table
    (<= 0 is convex)."""
    return float((2.0 * values[1:-1] - values[:-2] - values[2:]).max())


def test_convexity_defect_detects_nonconvex():
    f = table_1d(lambda p: -(p**2))
    assert convexity_defect(f.values) > 0
    g = table_1d(lambda p: p**2)
    assert convexity_defect(g.values) <= 1e-12
    # a conjugate is convex whatever its source
    for src in (f, g):
        assert convexity_defect(dual_table_1d(src, -2.0, 2.0, 33).values) <= 1e-12


def test_closed_form_lagrangian_values():
    lagr = build_lagrangian(cosine_spec(1, 1.0))
    assert lagr(np.array([0.0]), np.array([2.0])) == pytest.approx(2.0)
    assert lagr(np.array([0.7]), np.array([0.0])) == pytest.approx(1.0)
    lagr2 = build_lagrangian(cosine_spec(1, 2.0, (1.0, (1,))))
    assert lagr2(np.array([0.0]), np.array([2.0])) == pytest.approx(4.0)


def test_lagrangian_is_legendre_transform_of_hamiltonian():
    # conjugating H(x, .) on a momentum grid reproduces L(x, .) = |v|^2/4 + V(x)
    spec = cosine_spec(1, 2.0, (1.0, (1,)))
    lagr = build_lagrangian(spec)
    p_axes = (np.linspace(-8.0, 8.0, 129),)
    for x in (0.0, 0.25, 0.5, 0.7):
        hv = evaluate_hamiltonian(spec, np.full((129, 1), x), p_axes[0][:, None])
        g = dual_table_1d(ConvexFunctionTable(p_axes, hv, MOMENTUM_DOMAIN), -4.0, 4.0, 65)
        want = lagr(np.array([x]), g.axes[0][:, None])
        np.testing.assert_allclose(g.values, want, atol=2e-2)


def test_lagrangian_lower_bound_after_normalization():
    lagr = build_lagrangian(normalize(cosine_spec(1, 0.0, (1.0, (1,))))[0])
    xs = (np.arange(64) / 64)[:, None, None]
    vs = np.linspace(-4.0, 4.0, 33)[None, :, None]
    assert lagr(xs, vs).min() >= 1.0 - 1e-12


def test_interpolate_clamps_and_reports():
    f = table_1d(lambda p: p**2, lo=-1, hi=1, n=5)
    vals, clamped = f.interpolate(np.array([[0.25], [3.0]]))
    assert vals[0] == pytest.approx(0.0625, abs=0.2)
    assert not clamped[0] and clamped[1]


def test_interpolate_exact_node_next_to_inf_is_finite():
    # the zero-weight corner is +inf outside the effective domain; 0 * inf
    # must not turn the node value into nan
    f = ConvexFunctionTable((np.array([0., 1., 2.]),), np.array([0., 1., np.inf]),
                            VELOCITY_DOMAIN)
    vals, clamped = f.interpolate([[1.0]])
    assert vals[0] == 1.0 and not clamped[0]
