import numpy as np
import pytest

from hjhom import (
    ConfigurationError,
    DomainError,
    HorizonError,
    UnreachableError,
    build_lagrangian,
    compute_metric_table,
    cosine_spec,
)
from hjhom.effective import (
    build_effective_model,
    cell_problem_oracle,
    effective_hamiltonian_quadrature_1d,
    flat_piece_radius_1d,
)

FREE = build_lagrangian(cosine_spec(1, 1.0))
OSC_POT = cosine_spec(1, 2.0, (1.0, (1,))).potential
OSC = build_lagrangian(cosine_spec(1, 2.0, (1.0, (1,))))
OSC2 = build_lagrangian(cosine_spec(2, 3.0, (1.0, (1, 0)), (1.0, (0, 1))))

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


def _ray(model, v):
    """The diagnostics record of the grid velocity v."""
    return next(rec for rec in model.diagnostics if np.array_equal(rec["v"], v))


def test_free_case_sequence_constant_and_exact():
    # v = 2 reads m(n, 0, 2n) / n at n = 1, 2, 4, 8; the closed form is
    # already 1-homogeneous: g_n identical, limit exact
    model = build_effective_model(FREE, v_box_half=2.0, v_step=1.0, n_max=8,
                                  dt=0.25, dx=0.25, vmax=4.0)
    rec = _ray(model, [2.0])
    assert rec["ns"] == [1, 2, 4, 8]
    np.testing.assert_allclose(rec["gs"], 2.0, atol=1e-12)
    assert rec["limit"] == pytest.approx(2.0, abs=1e-12)
    assert not rec["flagged"]


def test_stationary_effective_metric_is_time():
    model = build_effective_model(FREE, v_box_half=1.0, v_step=1.0, n_max=4,
                                  dt=0.25, dx=0.25, vmax=4.0)
    assert _ray(model, [0.0])["limit"] == pytest.approx(1.0, abs=1e-12)


def test_unreached_ray_raises():
    # the corner v = (-7/3, -7/3) has |v| = 3.2998 <= vmax = 3.3, but with
    # step radius 6.6 no offset sum o1 + o2 exceeds 9 cells, and the corner
    # needs 28/3 cells per step: its ray at (3, (-7, -7)) is +inf, an error
    # and not a nan limit
    with pytest.raises(UnreachableError, match="ray of v"):
        build_effective_model(OSC2, v_box_half=7 / 3, v_step=7 / 3, n_max=3,
                              dt=0.25, dx=0.125, vmax=3.3)


def test_oscillatory_gap_sequence_decays():
    model = build_effective_model(OSC, v_box_half=1.0, v_step=1.0, n_max=16,
                                  dt=0.125, dx=0.0625, vmax=5.0)
    rec = _ray(model, [0.0])
    assert rec["ns"] == [1, 2, 4, 8, 16]
    gaps = np.abs(np.asarray(rec["gs"]) - rec["limit"])
    # decay at least like C/n against the extrapolated limit
    assert gaps[0] > 0
    c = gaps[0] * rec["ns"][0] * 1.5
    for n, g in zip(rec["ns"][:-1], gaps[:-1]):
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
    model = build_effective_model(OSC2, v_box_half=1.0, v_step=1.0, n_max=8,
                                  dt=0.25, dx=0.25, vmax=4.0)
    rec = _ray(model, [1.0, 0.0])
    assert rec["ns"] == [1, 2, 4, 8]
    gaps = np.abs(np.asarray(rec["gs"]) - rec["limit"])
    c = max(gaps[0] * rec["ns"][0] * 1.5, 0.1)
    for n, g in zip(rec["ns"][:-1], gaps[:-1]):
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


def test_cell_oracle_rejects_a_horizon_off_the_time_steps():
    # 10.1 / 0.25 = 40.4 steps used to run 40 steps, the value of t_long = 10
    cell_problem_oracle(OSC, 0.0, t_long=10.0, dt=0.25, dx=0.125, vmax=4.0)
    with pytest.raises(ConfigurationError, match=r"t_long / dt = 40\.4\d* is not an integer"):
        cell_problem_oracle(OSC, 0.0, t_long=10.1, dt=0.25, dx=0.125, vmax=4.0)


def test_cell_oracle_rejects_a_speed_cap_below_the_reach():
    # vmax dt < dx leaves the torus graph with the zero step alone
    with pytest.raises(ConfigurationError, match=r"vmax\*dt = 0\.1 < dx = 0\.125"):
        cell_problem_oracle(OSC2, [0.0, 0.0], t_long=4.0, dt=0.25, dx=0.125, vmax=0.4)


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
    assert lines[0] == "# schema=hjhom.effective-diagnostics.v2"
    assert lines[1] == "v1,n,g_n,gap,flagged"
    assert len(lines) > 5


def test_v_step_without_denominator_up_to_n_max_raises(monkeypatch):
    # 0.3 = 3/10: with n_max = 8 no ray of +-0.3 fits under the horizon, and
    # no nearby rational velocity stands in for it
    def no_table(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr("hjhom.effective.compute_metric_table", no_table)
    with pytest.raises(HorizonError, match=r"v_step = 0\.3 has no denominator b <= n_max = 8"):
        build_effective_model(FREE, v_box_half=0.3, v_step=0.3, n_max=8,
                              dt=0.25, dx=0.25, vmax=3.0)


def test_denominator_above_n_max_raises_before_the_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr("hjhom.effective.compute_metric_table", no_table)
    with pytest.raises(HorizonError, match=r"v_step = 0\.25 has no denominator b <= n_max = 2"):
        build_effective_model(FREE, v_box_half=0.5, v_step=0.25, n_max=2,
                              dt=0.25, dx=0.25, vmax=4.0)


def test_velocity_box_off_the_step_raises_before_the_table(monkeypatch):
    # 3.1 / 0.5 = 6.2 used to round to a box of +-3.0 silently
    def no_table(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr("hjhom.effective.compute_metric_table", no_table)
    with pytest.raises(ConfigurationError, match=r"v_box_half/v_step = 6\.2 is not an integer"):
        build_effective_model(FREE, v_box_half=3.1, v_step=0.5, n_max=8,
                              dt=0.25, dx=0.25, vmax=4.0)


@pytest.mark.parametrize("v_box_half, v_step", [(0.0, 1.0), (0.5, 1.0), (-1.0, 0.5),
                                                (1.0, 0.0), (1.0, -0.5), (1.0, np.nan)])
def test_velocity_grid_of_fewer_than_three_nodes_raises_before_the_table(
        v_box_half, v_step, monkeypatch):
    # v_box_half = 0 built a one-node table, on which solve_effective raised
    # IndexError; v_step = 0 raised ZeroDivisionError
    def no_table(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr("hjhom.effective.compute_metric_table", no_table)
    with pytest.raises(ConfigurationError, match="the Lbar grid needs 0 < v_step"):
        build_effective_model(FREE, v_box_half=v_box_half, v_step=v_step, n_max=8,
                              dt=0.25, dx=0.25, vmax=4.0)


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf])
def test_hbar_estimates_reject_a_non_finite_momentum(p):
    # each returned nan, or the quadrature inf at p = inf
    model = build_effective_model(FREE, v_box_half=1.0, v_step=0.5, n_max=2,
                                  dt=0.25, dx=0.125, vmax=4.0)
    with pytest.raises(DomainError, match="must be finite"):
        model.hamiltonian_bar([p])
    with pytest.raises(DomainError, match="must be finite"):
        cell_problem_oracle(FREE, [p], t_long=4.0, dt=0.25, dx=0.125, vmax=4.0)
    with pytest.raises(DomainError, match="must be finite"):
        effective_hamiltonian_quadrature_1d(OSC_POT, p)


@pytest.mark.parametrize("p", [[0.5, 0.5, 9.0, 9.0], [0.5], 0.5, [[0.5, 0.5]]])
def test_hbar_rejects_a_momentum_without_d_components(p):
    # on a d = 2 model [0.5, 0.5, 9, 9] returned the value at (0.5, 0.5) and
    # [0.5] raised a bare ValueError; the cell oracle already rejected both
    model = build_effective_model(OSC2, v_box_half=1.0, v_step=0.5, n_max=4,
                                  dt=0.25, dx=0.25, vmax=4.0)
    with pytest.raises(DomainError, match="p must have 2 components"):
        model.hamiltonian_bar(p)
    with pytest.raises(DomainError, match="p must have 2 components"):
        cell_problem_oracle(OSC2, p, t_long=4.0, dt=0.25, dx=0.25, vmax=4.0)
    assert model.hamiltonian_bar([0.5, 0.5]) == model.hamiltonian_bar(np.array([0.5, 0.5]))


def test_lagrangian_bar_reads_grid_nodes_only():
    model = build_effective_model(OSC2, v_box_half=1.0, v_step=0.5, n_max=4,
                                  dt=0.25, dx=0.25, vmax=4.0)
    values = model.lagrangian_table.values
    for v, idx in (([0.0, 0.0], (2, 2)), ([1.0, -0.5], (4, 1)), ([-1.0, 1.0], (0, 4))):
        got = model.lagrangian_bar(v)
        assert type(got) is float and got == values[idx]
    # off the grid (no interpolation), outside the box, or the wrong dimension
    for v in ([0.25, 0.0], [0.0, 0.5 + 1e-6], [1.5, 0.0], [0.0, -1.5], [0.5], [0.5, 0.5, 0.5]):
        with pytest.raises(DomainError, match="not a node of the Lbar grid"):
            model.lagrangian_bar(v)


def test_sixteenth_velocity_reads_its_own_ray():
    # v_step = 1/16 has denominator 16 = n_max: +-1/16 is read at n = 16
    # alone (one level, flagged), on its own ray and not the v = 0 one
    model = build_effective_model(OSC, v_box_half=0.125, v_step=0.0625, n_max=16,
                                  dt=0.25, dx=0.25, vmax=4.0)
    diags = {float(rec["v"][0]): rec for rec in model.diagnostics}
    assert sorted(diags) == [-0.125, -0.0625, 0.0, 0.0625, 0.125]
    for v in (-0.0625, 0.0625):
        assert diags[v]["ns"] == [16] and diags[v]["flagged"]
        assert diags[v]["limit"] != diags[0.0]["limit"]
    assert diags[0.125]["ns"] == [8, 16] and not diags[0.125]["flagged"]
    assert diags[0.0]["ns"] == [1, 2, 4, 8, 16] and not diags[0.0]["flagged"]


def test_grid_denominators_are_exact():
    # each ray's first level n is the smallest b with b v integer, over all
    # components of v
    model = build_effective_model(OSC2, v_box_half=0.5, v_step=0.25, n_max=4,
                                  dt=0.25, dx=0.25, vmax=4.0)
    first = {tuple(rec["v"].tolist()): rec["ns"][0] for rec in model.diagnostics}
    assert (first[(0.0, 0.0)], first[(0.5, 0.0)], first[(0.5, -0.5)],
            first[(0.25, 0.5)], first[(-0.25, 0.0)], first[(0.0, -0.5)]) == \
        (1, 2, 2, 4, 4, 2)


def test_diagnostics_csv_flags_one_level_rays(tmp_path):
    # +-1/16 are read at n = 16 alone, so their rows carry flagged = 1
    model = build_effective_model(OSC, v_box_half=0.125, v_step=0.0625, n_max=16,
                                  dt=0.25, dx=0.25, vmax=4.0)
    diag = tmp_path / "diag.csv"
    model.to_csv(tmp_path / "lbar.csv", diag)
    flagged = {}
    for line in diag.read_text().splitlines()[2:]:
        v, _, _, _, flag = line.split(",")
        flagged.setdefault(float(v), set()).add(flag)
    assert flagged == {-0.125: {"0"}, -0.0625: {"1"}, 0.0: {"0"},
                       0.0625: {"1"}, 0.125: {"0"}}


@pytest.mark.parametrize("lagr, v_box, n_max, dt, dx, vmax", [
    (OSC, 3.0, 8, 0.125, 0.0625, 5.0),
    (OSC2, 1.0, 4, 0.25, 0.125, 4.0),
])
def test_model_from_a_given_table_is_bitwise_its_own(lagr, v_box, n_max, dt, dx, vmax):
    # a keep="all" table past n_max stores the same integer layers the
    # model's own keep="integers" table does
    own = build_effective_model(lagr, v_box_half=v_box, v_step=0.25, n_max=n_max,
                                dt=dt, dx=dx, vmax=vmax)
    table = compute_metric_table(lagr, horizon=n_max + 1.0, dt=dt, dx=dx,
                                 vmax=vmax, keep="all")
    read = build_effective_model(lagr, v_box_half=v_box, v_step=0.25, n_max=n_max,
                                 dt=dt, dx=dx, vmax=vmax, table=table)
    assert np.array_equal(read.lagrangian_table.values, own.lagrangian_table.values)
    assert len(read.diagnostics) == len(own.diagnostics)
    for a, b in zip(read.diagnostics, own.diagnostics):
        assert np.array_equal(a["v"], b["v"]) and a["ns"] == b["ns"]
        assert np.array_equal(a["gs"], b["gs"])
        assert (a["limit"], a["flagged"]) == (b["limit"], b["flagged"])
        # the batched reads are the one-point reads of each ray level:
        # g_n = m(n b, 0, n b v) / n / b, with b the ray's first time
        b = a["ns"][0]
        assert a["gs"] == [table.value_at(t, a["v"] * t) / (t // b) / b for t in a["ns"]]


@pytest.mark.parametrize("change", [
    {"dt": 0.125}, {"dx": 0.125}, {"vmax": 3.0}, {"lagrangian": OSC}, {"horizon": 2.0},
])
def test_model_rejects_a_table_off_its_lattice(change, monkeypatch):
    table_args = dict(lagrangian=FREE, horizon=4.0, dt=0.25, dx=0.25, vmax=4.0)
    table_args.update(change)
    table = compute_metric_table(table_args.pop("lagrangian"), keep="all", **table_args)

    def no_table(*args, **kwargs):
        raise AssertionError("the model built its own table")

    monkeypatch.setattr("hjhom.effective.compute_metric_table", no_table)
    with pytest.raises(ConfigurationError, match="does not match"):
        build_effective_model(FREE, v_box_half=1.0, v_step=0.5, n_max=4,
                              dt=0.25, dx=0.25, vmax=4.0, table=table)
