import operator

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
from hjhom import metric
from hjhom.effective import build_effective_model
from hjhom.harness import (
    run_property_suite,
    run_rate_sweep,
    target_set,
    u0_from_config,
)
from hjhom.util import format_float


def test_target_set_1d_spans_radius():
    pts = target_set(1, 33, 2.0, 0.125)
    assert pts.shape == (33, 1)
    assert pts.min() == -2.0 and pts.max() == 2.0


def test_target_set_2d_deterministic_and_bounded():
    a = target_set(2, 9, 2.0, 0.125)
    b = target_set(2, 9, 2.0, 0.125)
    np.testing.assert_array_equal(a, b)
    assert len(a) == 9
    assert np.all(np.linalg.norm(a, axis=1) <= 2.0 + 1e-12)
    # the ring is snapped to the step lattice: (sqrt 2, sqrt 2) -> (1.375, 1.375)
    np.testing.assert_array_equal(a / 0.125, np.round(a / 0.125))
    assert [1.375, 1.375] in a.tolist() and [-1.375, -1.375] in a.tolist()


def test_u0_from_config_families():
    cfg = parse_config_text("u0.family = affine\nu0.p = 0.5\n")
    assert u0_from_config(cfg, 1).family == "affine"
    cfg = parse_config_text("u0.family = bumps\nu0.bumps = 1.0,0.0,0.5\n")
    u0 = u0_from_config(cfg, 1)
    assert u0(np.array([[0.0]])) == pytest.approx(1.0)
    cfg = parse_config_text("u0.family = zero\n")
    u0 = u0_from_config(cfg, 2)
    assert (u0.family, u0.lipschitz, u0.dimension) == ("zero", 0.0, 2)
    assert u0(np.array([[0.25, -1.5], [3.0, 0.5]])).tolist() == [0.0, 0.0]


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


def test_rate_sweep_threads_match_serial(tmp_path, monkeypatch):
    # every layer of all three d = 2 builds in two runs of row blocks: twice
    # the row runs of the serial run, and the same output bytes
    monkeypatch.setattr(metric, "SPLIT_MIN_CELLS", 0)
    runs = []
    relax = metric._relax_rows

    def counted(*args):
        runs.append(args[-2])
        relax(*args)
    monkeypatch.setattr(metric, "_relax_rows", counted)
    cfg_text = """
dimension = 2
potential.a0 = 3.0
potential.terms = 1.0,1,0; 1.0,0,1
grid.dt = 0.25
grid.dx = 0.25
grid.vmax = 4.0
sweep.eps = 0.5,0.25
sweep.t = 1.0
targets.count = 9
effective.v_box = 2.0
effective.v_step = 0.5
effective.n_max = 2
probe.eps = 0.5
seed = 0
"""
    cfg = parse_config_text(cfg_text)
    r1 = run_rate_sweep(cfg, str(tmp_path / "a"), threads=1)
    serial_runs = len(runs)
    assert serial_runs > 0
    runs.clear()
    r2 = run_rate_sweep(cfg, str(tmp_path / "b"), threads=2)
    assert len(runs) == 2 * serial_runs
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
    assert {"subadditivity_max_violation", "oracle_agreement", "surgery_success_rate"} <= names
    # one surgery time: no pair of times for the non-growth rule, so no row
    assert "lemma_gap_max" not in names
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    assert (tmp_path / "out" / "surgery.csv").exists()


SHARED_TABLE_CFG = """
dimension = 2
potential.a0 = 3.0
potential.terms = 1.0,1,0; 1.0,0,1
grid.dt = 0.25
grid.dx = 0.25
grid.vmax = 4.0
properties.sample_size = 50
properties.directions = 1.0,0.0; 1.0,1.0
oracle.p_sample = 0.0,0.0
oracle.t_long = 8.0
effective.v_box = 1.0
effective.v_step = 0.5
effective.n_max = 4
seed = 0
"""


@pytest.mark.parametrize("extra, builds", [
    (["metric.horizon = 4.0"], 1),
    (["metric.horizon = 4.0", "effective.vmax = 4.0"], 1),
    (["metric.horizon = 4.0", "effective.vmax = 3.0"], 2),
    (["metric.horizon = 2.0"], 2),
], ids=["shared", "same-vmax", "other-vmax", "short-horizon"])
def test_property_suite_builds_one_table_per_lattice(tmp_path, monkeypatch, extra, builds):
    # the model reads its rays from the suite's table when it has the
    # table's vmax and the table reaches effective.n_max
    import hjhom.effective as effective
    import hjhom.harness as harness

    built = []

    def spy(lagr, **kwargs):
        built.append(kwargs["keep"])
        return compute_metric_table(lagr, **kwargs)

    monkeypatch.setattr(harness, "compute_metric_table", spy)
    monkeypatch.setattr(effective, "compute_metric_table", spy)
    cfg = parse_config_text(SHARED_TABLE_CFG + "\n".join(extra))
    checks = run_property_suite(cfg, str(tmp_path / "out"))
    assert len(built) == builds
    assert built[0] == "all"
    assert {c.name for c in checks} >= {"oracle_agreement", "gap_min"}


def test_property_suite_reads_every_effective_key(tmp_path, monkeypatch):
    # every effective.* model key reaches the model, as in the effective and
    # rate commands
    import hjhom.harness as harness

    calls = []

    def spy(lagr, **kwargs):
        calls.append(kwargs)
        return build_effective_model(lagr, **kwargs)

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
effective.vmax = 3.0
""")
    run_property_suite(cfg, str(tmp_path / "out"))
    (args,) = calls
    assert (args["v_box_half"], args["v_step"], args["n_max"], args["vmax"]) == \
        (1.0, 0.5, 2, 3.0)


# the comparison each properties.csv row gates with: passed is value <= threshold
# or value >= threshold, and every threshold is finite
ROW_GATES = {"subadditivity_max_violation": operator.le, "oracle_agreement": operator.le,
             "gap_min": operator.ge, "lemma_gap_max": operator.le,
             "surgery_success_rate": operator.ge}
ROWS_1D = """
dimension = 1
potential.a0 = 2.0
potential.terms = 1.0,1
grid.dt = 0.25
grid.dx = 0.25
grid.vmax = 4.0
metric.horizon = 4.0
properties.sample_size = 50
properties.directions = 0.0; 1.0
oracle.p_sample = 0.0; 0.5
oracle.t_long = 32.0
effective.v_box = 1.0
effective.v_step = 0.5
effective.n_max = 4
"""
ROWS_2D = SHARED_TABLE_CFG.replace("oracle.t_long = 8.0", "oracle.t_long = 32.0") + """
metric.horizon = 4.0
properties.surgery_samples = 2
properties.surgery_t = 1.0,2.0
"""


def test_lemma_gap_row_does_not_depend_on_the_surgery_sample(tmp_path):
    # lemma_gap_max is a maximum over every end point of a layer, so neither
    # the seed nor the number of surgery samples moves it
    rows = set()
    for seed, samples in [(0, 1), (207, 1), (0, 5), (207, 5)]:
        text = ROWS_2D.replace("seed = 0", f"seed = {seed}").replace(
            "properties.surgery_samples = 2", f"properties.surgery_samples = {samples}")
        assert f"seed = {seed}\n" in text and f"surgery_samples = {samples}\n" in text
        checks = run_property_suite(parse_config_text(text), str(tmp_path))
        (row,) = [c for c in checks if c.name == "lemma_gap_max"]
        rows.add((row.value, row.threshold, row.passed))
    assert len(rows) == 1


@pytest.mark.parametrize("text, dimension", [(ROWS_1D, 1), (ROWS_2D, 2)], ids=["d1", "d2"])
@pytest.mark.parametrize("corrupt", [False, True], ids=["exact", "corrupted"])
def test_property_rows_gate_at_a_finite_threshold(tmp_path, monkeypatch, text, dimension,
                                                  corrupt):
    # corrupted: Lbar raised by 0.1 (oracle_agreement and gap_min fail) and, in
    # d = 2, m(2, 0, (1, 0)) raised by 1 (lemma_gap_max fails)
    import hjhom.harness as harness

    def raised_model(*args, **kwargs):
        model = build_effective_model(*args, **kwargs)
        model.lagrangian_table.values += 0.1
        return model

    def raised_table(*args, **kwargs):
        table = compute_metric_table(*args, **kwargs)
        if dimension == 2:
            layer, reach = table.layer(2.0)
            layer[reach + 4, reach] += 1.0
        return table

    if corrupt:
        monkeypatch.setattr(harness, "build_effective_model", raised_model)
        monkeypatch.setattr(harness, "compute_metric_table", raised_table)
    checks = run_property_suite(parse_config_text(text), str(tmp_path))
    names = [n for n in ROW_GATES
             if dimension == 2 or n not in ("lemma_gap_max", "surgery_success_rate")]
    assert [c.name for c in checks] == names
    for c in checks:
        assert np.isfinite(c.threshold), c
        assert c.passed == ROW_GATES[c.name](c.value, c.threshold), c
    failing = {"oracle_agreement", "gap_min", "lemma_gap_max"} if corrupt else set()
    assert {c.name for c in checks if not c.passed} == failing & set(names)
    rows = (tmp_path / "properties.csv").read_text().splitlines()[2:]
    assert rows == [f"{c.name},{format_float(c.value)},{format_float(c.threshold)},"
                    f"{int(c.passed)}" for c in checks]
