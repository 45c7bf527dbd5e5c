"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.  Budgets are wall-clock guards for a single-core
run; all tolerances are fixed here, none is calibrated after the fact.
"""

import pathlib
import time

import numpy as np

from hjhom import (
    build_lagrangian,
    check_linear_growth,
    check_subadditivity,
    compute_metric_table,
    cosine_spec,
    cone_data,
    extract_minimizing_path,
    parse_config,
    solve_fd_oracle,
    solve_oscillatory,
    spec_from_config,
)
from hjhom.effective import (
    build_effective_model,
    cell_problem_oracle,
    effective_hamiltonian_quadrature_1d,
    flat_piece_radius_1d,
)
from hjhom.errors import ResolutionError
from hjhom.harness import run_effective, run_rate_sweep
from hjhom.properties import extract_approximate_geodesic, lemma_gaps
from hjhom.surgery import path_surgery
from metric_reference import brute_metric

# criteria 2, 4 and 5 run the shipped commands on these configs
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
OSC1 = cosine_spec(1, 2.0, (1.0, (1,)))          # V = 2 + cos(2 pi x)
OSC2 = cosine_spec(2, 3.0, (1.0, (1, 0)), (1.0, (0, 1)))


def _report(num: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_free_case_exactness():
    start = time.monotonic()
    free = build_lagrangian(cosine_spec(1, 1.0))
    table = compute_metric_table(free, horizon=8.0, dt=0.25, dx=0.125,
                                 vmax=4.0, keep="integers")
    worst = 0.0
    for t in (1.0, 2.0, 4.0, 8.0):
        for x in np.arange(-2 * t, 2 * t + 1e-9, 0.125):
            want = x * x / (4 * t) + t
            got = table.value_at(t, x)
            worst = max(worst, abs(got - want) / (1 + abs(got)))
    elapsed = time.monotonic() - start
    _report(1, worst <= 0.02 and elapsed < 60,
            f"max |m-closed|/(1+|m|) = {worst:.4f} <= 0.02, {elapsed:.0f}s < 60s")


def test_criterion_2_effective_hamiltonian_d1(tmp_path):
    start = time.monotonic()
    cfg = parse_config(CONFIGS / "effective_1d.cfg")
    model = run_effective(cfg, tmp_path)
    potential = spec_from_config(cfg)[0].potential
    worst = 0.0
    for p in (0.0, 0.5, 1.0, 1.5, 2.0):
        oracle = effective_hamiltonian_quadrature_1d(potential, p)
        worst = max(worst, abs(model.hamiltonian_bar([p]) - oracle))
    p0_true = flat_piece_radius_1d(potential)
    p0_hat = model.flat_piece_radius_estimate()
    edge_rel = abs(p0_hat - p0_true) / p0_true
    elapsed = time.monotonic() - start
    _report(2, worst <= 0.05 and edge_rel <= 0.05 and elapsed < 300,
            f"max |Hbar - quadrature| = {worst:.4f} <= 0.05, "
            f"flat edge {p0_hat:.4f} vs {p0_true:.4f} ({100*edge_rel:.1f}% <= 5%), "
            f"{elapsed:.0f}s < 300s")


def test_criterion_3_oracle_agreement_d2():
    start = time.monotonic()
    lagr = build_lagrangian(OSC2)
    dt = dx = 0.125
    model = build_effective_model(lagr, v_box_half=2.5, v_step=0.5, n_max=8,
                                  dt=dt, dx=dx, vmax=5.0)
    worst = 0.0
    for p in ([0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]):
        est = cell_problem_oracle(lagr, p, t_long=128.0, dt=dt, dx=dx, vmax=5.0)
        worst = max(worst, abs(model.hamiltonian_bar(p) - est))
    elapsed = time.monotonic() - start
    _report(3, worst <= 0.05 and elapsed < 900,
            f"max |Hbar - cell oracle| = {worst:.4f} <= 0.05 (d=2), "
            f"{elapsed:.0f}s < 900s")


def _rate_criterion(num: int, name: str, beta_min: float, budget: int, out_dir):
    """`hjhom rate` on configs/<name>: its fitted beta and its errors, and its
    mesh-halving probe error, strictly below half the smallest error."""
    start = time.monotonic()
    try:
        report = run_rate_sweep(parse_config(CONFIGS / name), out_dir)
    except ResolutionError as exc:
        _report(num, False, f"{name}: {exc}")
    disc, errors = report.probe_error, report.errors
    elapsed = time.monotonic() - start
    _report(num, report.beta >= beta_min and disc < 0.5 * min(errors) and elapsed < budget,
            f"beta = {report.beta:.3f} >= {beta_min}, probe {disc:.4f} < "
            f"{0.5 * min(errors):.4f}, {elapsed:.0f}s < {budget}s")


def test_criterion_4_rate_d1(tmp_path):
    _rate_criterion(4, "rate_1d.cfg", 0.85, 600, tmp_path)


def test_criterion_5_rate_d2(tmp_path):
    _rate_criterion(5, "rate_2d.cfg", 0.75, 1800, tmp_path)


def periodicity_deviation(table) -> float:
    """max over x in (2, 3, -1) of |m(2, x, x + 1) - m(2, 0, 1)|, the left
    side from the reference DP started at source x, the right side from the
    table."""
    worst = 0.0
    for x in (2.0, 3.0, -1.0):
        ref = brute_metric(table.lagrangian, round(2.0 / table.dt), table.dt,
                           table.dx, table.vmax, source=np.asarray(x))
        got = ref[(round(1.0 / table.dx),)]
        worst = max(worst, abs(got - table.value_at(2.0, 1.0)))
    return worst


def test_criterion_6_property_suite():
    start = time.monotonic()
    lagr = build_lagrangian(OSC1)
    dt, dx, vmax = 0.125, 0.125, 6.0
    table = compute_metric_table(lagr, horizon=24.0, dt=dt, dx=dx, vmax=vmax,
                                 keep="all")
    rng = np.random.default_rng(0)
    sub_worst = check_subadditivity(table, sample_size=1000, rng=rng)
    per_worst = periodicity_deviation(table)
    k_growth = check_linear_growth(table)
    half = compute_metric_table(lagr, horizon=24.0, dt=dt / 2, dx=dx / 2,
                                vmax=vmax, keep="integers")
    k_half = check_linear_growth(half)
    k_stable = abs(k_half - k_growth) <= 0.1 * k_growth
    defects = [extract_approximate_geodesic(table, t, x).defect
               for t, x in [(3.0, 4.0), (6.0, 8.0), (12.0, 16.0), (24.0, 32.0)]]
    geo_ok = max(defects[2:]) <= 1.25 * max(defects[:2])
    elapsed = time.monotonic() - start
    ok = (sub_worst <= 1e-9 and per_worst <= 1e-9 and np.isfinite(k_growth)
          and k_stable and geo_ok)
    _report(6, ok,
            f"subadd {sub_worst:.2e} <= 1e-9, periodicity dev "
            f"{per_worst:.1e} <= 1e-9, K = {k_growth:.3f} (drift {abs(k_half-k_growth):.4f}"
            f" <= {0.1*k_growth:.3f}), defects {['%.3f' % d for d in defects]} "
            f"non-growing, {elapsed:.0f}s")


def test_criterion_6_periodicity_fails_on_rolled_tiles(monkeypatch):
    # a kernel that reads every step's costs one residue off breaks
    # m(t, x, y) = m(t, x + k, y + k), and the periodicity check sees it
    import hjhom.metric as metric

    cost_tiles = metric._cost_tiles
    monkeypatch.setattr(metric, "_cost_tiles", lambda *a: np.roll(cost_tiles(*a), 1, axis=1))
    table = compute_metric_table(build_lagrangian(OSC1), horizon=2.0, dt=0.125,
                                 dx=0.125, vmax=6.0)
    assert periodicity_deviation(table) > 1e-9


def test_criterion_7_lemma_gap_d2():
    start = time.monotonic()
    lagr = build_lagrangian(OSC2)
    table = compute_metric_table(lagr, horizon=8.0, dt=0.25, dx=0.125,
                                 vmax=5.0, keep="all")
    rng = np.random.default_rng(11)
    gap_by_t = {}
    succ = tot = n_ends = 0
    for t in (2.0, 4.0):
        # every surgery endpoint x and its lemma gap 2 m(t, 0, x) - m(2t, 0, 2x)
        ends, gaps = lemma_gaps(table, t)
        n_ends += len(ends)
        gap_by_t[t] = (gaps.min(), gaps.max())
        # the rng only picks the endpoints whose paths go through surgery
        for x in ends[rng.integers(len(ends), size=12)]:
            gamma = extract_minimizing_path(table, 2 * t, 2 * x)
            tot += 1
            try:
                path_surgery(gamma, table)
                succ += 1
            except ResolutionError:
                pass
    tol = 1e-9
    lower_ok = all(lo >= -tol for lo, _ in gap_by_t.values())
    g2, g4 = gap_by_t[2.0][1], gap_by_t[4.0][1]
    non_growing = g4 <= 1.25 * g2 + 0.05
    rate = succ / tot
    elapsed = time.monotonic() - start
    _report(7, lower_ok and non_growing and rate >= 0.95 and tot >= 20,
            f"{n_ends} endpoints, gaps >= {-tol}, G(4)={g2:.4f} -> G(8)={g4:.4f} "
            f"(<= 1.25x + tol), {tot} surgeries, crossing success {100*rate:.0f}% "
            f">= 95%, {elapsed:.0f}s")


def test_criterion_8_solver_cross_check():
    start = time.monotonic()
    lagr = build_lagrangian(OSC1)
    u0 = cone_data(1)
    targets = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
    table = compute_metric_table(lagr, horizon=8.0, dt=0.03125, dx=0.015625,
                                 vmax=5.0, keep="integers")
    rep = solve_oscillatory(u0, lagr, 1 / 8, 1.0, targets, table=table)
    fd = solve_fd_oracle(u0, OSC1, 1 / 8, 1.0, targets, points_per_eps=256)
    worst = float(np.max(np.abs(rep.values - fd.values)))
    elapsed = time.monotonic() - start
    _report(8, worst <= 0.05,
            f"max |representation - FD| = {worst:.4f} <= 0.05 on 5 targets, "
            f"{elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path):
    from hjhom.cli import EXIT_OK, main
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("""
dimension = 1
potential.a0 = 2.0
potential.terms = 1.0,1
grid.dt = 0.125
grid.dx = 0.0625
grid.vmax = 4.0
sweep.eps = 0.25,0.125
sweep.t = 1.0
targets.count = 17
effective.v_box = 3.0
effective.v_step = 0.25
effective.n_max = 4
probe.eps = 0.25
seed = 7
""")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["rate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["rate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    same = all((out1 / n).read_bytes() == (out2 / n).read_bytes()
               for n in ("rate.csv", "rate.dat"))
    _report(9, same, "two `rate` runs produced byte-identical CSV and plot data")
