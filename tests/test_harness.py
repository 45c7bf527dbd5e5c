import numpy as np
import pytest

from hjhom import (
    ResolutionError,
    build_lagrangian,
    compute_metric_table,
    cosine_spec,
    parse_config_text,
    solve_effective,
    solve_oscillatory,
    zero_data,
)
from hjhom.effective import build_effective_model
from hjhom.harness import (
    run_property_suite,
    run_rate_sweep,
    target_set,
    u0_from_config,
)


def test_target_set_1d_spans_radius():
    pts = target_set(1, 33, 2.0)
    assert pts.shape == (33, 1)
    assert pts.min() == -2.0 and pts.max() == 2.0


def test_target_set_2d_deterministic_and_bounded():
    a = target_set(2, 9, 2.0)
    b = target_set(2, 9, 2.0)
    np.testing.assert_array_equal(a, b)
    assert len(a) == 9
    assert np.all(np.linalg.norm(a, axis=1) <= 2.0 + 1e-12)


def test_u0_from_config_families():
    cfg = parse_config_text("u0.family = affine\nu0.p = 0.5\n")
    assert u0_from_config(cfg, 1).family == "affine"
    cfg = parse_config_text("u0.family = bumps\nu0.bumps = 1.0,0.0,0.5\n")
    u0 = u0_from_config(cfg, 1)
    assert u0(np.array([[0.0]])) == pytest.approx(1.0)


def test_free_case_sweep_errors_near_zero():
    # with V = 1 there is nothing to homogenize: u_eps matches u_bar up to
    # discretization for every eps
    lagr = build_lagrangian(cosine_spec(1, 1.0))
    table = compute_metric_table(lagr, horizon=8.0, dt=0.25, dx=0.125,
                                 vmax=4.0, keep="integers")
    model = build_effective_model(lagr, v_box_half=3.0, v_step=0.25, n_max=4,
                                  dt=0.125, dx=0.0625, vmax=5.0)
    targets = np.linspace(-1, 1, 9)[:, None]
    ubar = solve_effective(zero_data(1), model, 1.0, targets)
    for eps in (0.25, 0.125):
        sol = solve_oscillatory(zero_data(1), lagr, eps, 1.0, targets, table=table)
        assert np.max(np.abs(sol.values - ubar.values)) <= 2e-2


def test_rate_sweep_aborts_when_probe_dominates(tmp_path):
    # a deliberately coarse metric grid: the mesh-halving probe dominates the
    # measured homogenization error and the sweep must refuse to fit a rate
    cfg = parse_config_text("""
dimension = 1
potential.a0 = 2.0
potential.terms = 1.0,1
grid.dt = 0.25
grid.dx = 0.25
grid.vmax = 4.0
sweep.eps = 0.25,0.125
sweep.t = 1.0
targets.count = 9
effective.v_box = 2.0
effective.v_step = 0.5
effective.n_max = 4
seed = 0
""")
    with pytest.raises(ResolutionError, match="refine"):
        run_rate_sweep(cfg, str(tmp_path / "out"))


def test_rate_sweep_threads_match_serial(tmp_path):
    cfg_text = """
dimension = 1
potential.a0 = 2.0
potential.terms = 1.0,1
grid.dt = 0.125
grid.dx = 0.0625
grid.vmax = 4.0
sweep.eps = 0.25,0.125
sweep.t = 1.0
targets.count = 9
effective.v_box = 3.0
effective.v_step = 0.25
effective.n_max = 4
probe.eps = 0.25
seed = 0
"""
    cfg = parse_config_text(cfg_text)
    r1 = run_rate_sweep(cfg, str(tmp_path / "a"), threads=1)
    r2 = run_rate_sweep(cfg, str(tmp_path / "b"), threads=2)
    np.testing.assert_array_equal(r1.errors, r2.errors)
    assert (tmp_path / "a" / "rate.csv").read_bytes() == \
        (tmp_path / "b" / "rate.csv").read_bytes()


def test_property_suite_small_2d_with_surgery(tmp_path):
    cfg = parse_config_text("""
dimension = 2
potential.a0 = 3.0
potential.terms = 1.0,1,0; 1.0,0,1
grid.dt = 0.25
grid.dx = 0.25
grid.vmax = 4.0
metric.horizon = 4.0
properties.sample_size = 200
properties.surgery_samples = 3
properties.surgery_t = 2.0
oracle.p_sample = 0.0,0.0
oracle.t_long = 32.0
oracle.vmax = 4.0
effective.v_box = 2.0
effective.v_step = 0.5
effective.n_max = 4
seed = 0
""")
    checks = run_property_suite(cfg, str(tmp_path / "out"))
    names = {c.name for c in checks}
    assert {"subadditivity_max_violation", "linear_growth_K", "oracle_agreement", "lemma_gap_max",
            "surgery_success_rate"} <= names
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    assert (tmp_path / "out" / "surgery.csv").exists()


def test_property_suite_reads_every_effective_key(tmp_path, monkeypatch):
    # effective.max_denominator reaches the model, as in the effective and
    # rate commands
    import hjhom.harness as harness

    built = []

    def spy(*args, **kwargs):
        built.append(build_effective_model(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "build_effective_model", spy)
    cfg = parse_config_text("""
dimension = 1
potential.a0 = 1.0
grid.dt = 0.25
grid.dx = 0.25
grid.vmax = 4.0
metric.horizon = 2.0
properties.sample_size = 20
oracle.p_sample = 0.5
oracle.t_long = 8.0
effective.v_box = 1.0
effective.v_step = 0.5
effective.n_max = 2
effective.max_denominator = 1
""")
    run_property_suite(cfg, str(tmp_path / "out"))
    flags = {float(rec["v"][0]): rec["flagged"] for rec in built[0].diagnostics}
    assert flags[0.5] and flags[-0.5] and not flags[1.0]
