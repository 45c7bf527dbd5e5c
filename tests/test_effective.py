import numpy as np
import pytest

from hjhom import build_lagrangian, compute_metric_table, cosine_spec
from hjhom.effective import (
    _rational_scale,
    build_effective_model,
    cell_problem_oracle,
    effective_hamiltonian_quadrature_1d,
    effective_metric,
    flat_piece_radius_1d,
)

FREE = build_lagrangian(cosine_spec(1, 1.0))
OSC_POT = cosine_spec(1, 2.0, (1.0, (1,))).potential
OSC = build_lagrangian(cosine_spec(1, 2.0, (1.0, (1,))))

# frozen values of the quadrature/bisection oracle for V = 2 + cos(2 pi x)
QUAD_HBAR = {0.0: -1.0, 0.5: -1.0, 1.0: -0.861855, 1.5: 0.306454, 2.0: 2.031405}
P_FLAT = 2.0 * np.sqrt(2.0) / np.pi  # 0.9003163...


def test_quadrature_oracle_frozen_values():
    assert flat_piece_radius_1d(OSC_POT) == pytest.approx(P_FLAT, abs=2e-7)
    for p, want in QUAD_HBAR.items():
        assert effective_hamiltonian_quadrature_1d(OSC_POT, p) == pytest.approx(
            want, abs=1e-5)


def test_quadrature_oracle_round_trip():
    xs = np.arange(8192)[:, None] / 8192
    vals = OSC_POT(xs)
    h = effective_hamiltonian_quadrature_1d(OSC_POT, 1.7)
    assert np.mean(np.sqrt(h + vals)) == pytest.approx(1.7, abs=1e-8)


def test_free_case_sequence_constant_and_exact():
    table = compute_metric_table(FREE, horizon=8.0, dt=0.25, dx=0.25, vmax=4.0,
                                 keep="integers")
    res = effective_metric(table, 1.0, 2.0, 8)
    # closed form is already 1-homogeneous: g_n identical, limit exact
    np.testing.assert_allclose(res.gs, 2.0, atol=1e-12)
    assert res.limit == pytest.approx(2.0, abs=1e-12)
    assert not res.flagged


def test_stationary_effective_metric_is_time():
    table = compute_metric_table(FREE, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0,
                                 keep="integers")
    res = effective_metric(table, 1.0, 0.0, 4)
    assert res.limit == pytest.approx(1.0, abs=1e-12)


def test_partial_result_flagged_on_short_horizon():
    table = compute_metric_table(FREE, horizon=2.0, dt=0.25, dx=0.25, vmax=4.0,
                                 keep="integers")
    res = effective_metric(table, 1.0, 1.0, 8)
    assert res.flagged
    assert res.ns == [1, 2]


def test_homogeneity_of_limit():
    table = compute_metric_table(OSC, horizon=8.0, dt=0.125, dx=0.125, vmax=4.0,
                                 keep="integers")
    a = effective_metric(table, 1.0, 1.0, 8)
    b = effective_metric(table, 2.0, 2.0, 4)
    assert 2.0 * a.limit == pytest.approx(b.limit, abs=0.05)


def test_oscillatory_gap_sequence_decays():
    table = compute_metric_table(OSC, horizon=16.0, dt=0.125, dx=0.0625, vmax=5.0,
                                 keep="integers")
    res = effective_metric(table, 1.0, 0.0, 16)
    gaps = np.abs(np.asarray(res.gs) - res.limit)
    # decay at least like C/n against the extrapolated limit
    assert gaps[0] > 0
    c = gaps[0] * res.ns[0] * 1.5
    for n, g in zip(res.ns[:-1], gaps[:-1]):
        assert g <= c / n + 1e-9


def test_free_effective_model_closed_forms():
    model = build_effective_model(FREE, v_box_half=4.0, v_step=0.25, n_max=8,
                                  dt=0.125, dx=0.0625, vmax=6.0)
    vs = model.lagrangian_table.axes[0]
    np.testing.assert_allclose(model.lagrangian_table.values, vs**2 / 4 + 1.0,
                               atol=0.02)
    for p in [0.0, 0.5, 1.0, 1.5, 2.0]:
        assert model.hamiltonian_bar([p]) == pytest.approx(p * p - 1.0, abs=0.02)
    lv = model.lagrangian_table.values
    assert (2.0 * lv[1:-1] - lv[:-2] - lv[2:]).max() <= 1e-9


def test_effective_model_lbar_lower_bound_and_convexity():
    model = build_effective_model(OSC, v_box_half=3.0, v_step=0.5, n_max=8,
                                  dt=0.125, dx=0.0625, vmax=5.0)
    assert model.lagrangian_table.values.min() >= 1.0 - 0.02
    lv = model.lagrangian_table.values
    assert (2.0 * lv[1:-1] - lv[:-2] - lv[2:]).max() <= 0.03


def test_gap_sequence_decay_d2():
    lagr2 = build_lagrangian(cosine_spec(2, 3.0, (1.0, (1, 0)), (1.0, (0, 1))))
    table = compute_metric_table(lagr2, horizon=8.0, dt=0.25, dx=0.25,
                                 vmax=4.0, keep="integers")
    res = effective_metric(table, 1.0, np.array([1.0, 0.0]), 8)
    gaps = np.abs(np.asarray(res.gs) - res.limit)
    c = max(gaps[0] * res.ns[0] * 1.5, 0.1)
    for n, g in zip(res.ns[:-1], gaps[:-1]):
        assert g <= c / n + 1e-9


def test_oscillatory_model_matches_quadrature_oracle():
    model = build_effective_model(OSC, v_box_half=5.0, v_step=0.25, n_max=16,
                                  dt=0.0625, dx=0.015625, vmax=6.5)
    for p, want in QUAD_HBAR.items():
        assert model.hamiltonian_bar([p]) == pytest.approx(want, abs=0.05), p


def test_hbar_even_and_above_min_v():
    model = build_effective_model(OSC, v_box_half=3.0, v_step=0.5, n_max=8,
                                  dt=0.125, dx=0.0625, vmax=5.0)
    for p in [0.5, 1.0, 1.5]:
        assert model.hamiltonian_bar([p]) == pytest.approx(
            model.hamiltonian_bar([-p]), abs=1e-9)
        assert model.hamiltonian_bar([p]) >= -1.0 - 1e-9
    # |Hbar(p) - (p^2 - c)| bounded with min V <= c <= max V
    for p in [2.0, 2.5]:
        h = model.hamiltonian_bar([p])
        assert p * p - 3.0 - 0.1 <= h <= p * p - 1.0 + 0.1


def test_cell_oracle_sign_convention_free_case():
    est = cell_problem_oracle(FREE, 0.0, t_long=16.0, dt=0.25, dx=0.25, vmax=2.0)
    assert est == pytest.approx(-1.0, abs=1e-9)


def test_cell_oracle_free_case_quadratic_in_p():
    est = cell_problem_oracle(FREE, 1.0, t_long=32.0, dt=0.25, dx=0.25, vmax=4.0)
    assert est == pytest.approx(0.0, abs=0.05)


def test_cell_oracle_oscillatory_matches_quadrature():
    est0 = cell_problem_oracle(OSC, 0.0, t_long=64.0, dt=0.0625, dx=0.015625,
                               vmax=5.0)
    assert est0 == pytest.approx(-1.0, abs=0.05)
    est2 = cell_problem_oracle(OSC, 2.0, t_long=64.0, dt=0.0625, dx=0.015625,
                               vmax=7.0)
    assert est2 == pytest.approx(QUAD_HBAR[2.0], abs=0.05)


def test_diagnostics_csv_export(tmp_path):
    model = build_effective_model(FREE, v_box_half=1.0, v_step=0.5, n_max=4,
                                  dt=0.25, dx=0.25, vmax=3.0)
    lbar, diag = tmp_path / "lbar.csv", tmp_path / "diag.csv"
    model.to_csv(lbar, diag)
    assert lbar.read_text().startswith("# schema=hjhom.table.v1")
    lines = diag.read_text().splitlines()
    assert lines[1] == "v1,n,g_n,gap"
    assert len(lines) > 5


def test_rational_scale_reports_inexact_velocity():
    b, _, exact = _rational_scale(np.array([0.25, -0.5]), 8)
    assert (b, exact) == (4, True)
    b, bv, exact = _rational_scale(np.array([0.3]), 8)
    assert (b, bv.tolist(), exact) == (3, [1.0], False)   # 1/3, not 0.3


def test_inexact_velocity_ray_is_flagged():
    model = build_effective_model(FREE, v_box_half=0.3, v_step=0.3, n_max=8,
                                  dt=0.25, dx=0.25, vmax=3.0, max_denominator=8)
    flags = {round(float(rec["v"][0]), 6): rec["flagged"]
             for rec in model.diagnostics}
    assert flags == {-0.3: True, 0.0: False, 0.3: True}
