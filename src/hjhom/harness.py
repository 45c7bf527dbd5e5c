"""Run-level orchestration: eps sweeps, property suites, effective exports.

Each run_* function takes a parsed Config and an output directory and writes
versioned CSV files plus gnuplot-ready two-column .dat files.  Identical
configurations (including seeds) produce byte-identical outputs; the eps
sweep may evaluate entries on a thread pool, but results are assembled in
index order so threading never changes bytes.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import Config, ConfigError, spec_from_config
from .effective import build_effective_model, cell_problem_oracle
from .errors import ResolutionError
from .legendre import MOMENTUM_DOMAIN, ConvexFunctionTable, build_lagrangian, conjugate
from .metric import compute_metric_table, default_speed_cap, extract_minimizing_path
from .properties import check_linear_growth, check_subadditivity, gap_vs_log_envelope
from .rates import RateReport, fit_rate
from .solver import (
    InitialData,
    affine_data,
    bump_data,
    cone_data,
    solve_effective,
    solve_oscillatory,
    zero_data,
)
from .surgery import path_surgery, surgery_csv
from .util import format_float, grid_points, write_rows


def u0_from_config(cfg: Config, dimension: int) -> InitialData:
    family = cfg.get_str("u0.family", "cone")
    if family == "cone":
        return cone_data(dimension, cfg.get_float("u0.scale", 1.0))
    if family == "affine":
        p = cfg.get_floats("u0.p", [1.0] * dimension)
        if len(p) != dimension:
            raise ConfigError(f"u0.p needs {dimension} components")
        return affine_data(p)
    if family == "zero":
        return zero_data(dimension)
    if family == "bumps":
        bumps = []
        for vec in cfg.get_vectors("u0.bumps", []):
            if len(vec) != dimension + 2:
                raise ConfigError("each bump is amplitude,c1..cd,width")
            bumps.append((vec[0], vec[1:-1], vec[-1]))
        return bump_data(dimension, bumps)
    raise ConfigError(f"unknown u0.family {family!r}")


def target_set(dimension: int, count: int, radius: float) -> np.ndarray:
    """Fixed, recorded target pattern spanning |y| <= radius."""
    if dimension == 1:
        return np.linspace(-radius, radius, count)[:, None]
    pts = [np.zeros(dimension)]
    rings = max(1, int(np.ceil((count - 1) / 8)))
    for r_i in range(1, rings + 1):
        r = radius * r_i / rings
        for a_i in range(8):
            ang = 2 * np.pi * a_i / 8
            vec = np.zeros(dimension)
            vec[0] = r * np.cos(ang)
            vec[1] = r * np.sin(ang)
            pts.append(vec)
    return np.asarray(pts[:count])


def _grids(cfg: Config, lagrangian, max_ratio: float):
    dt = cfg.get_float("grid.dt", 0.125)
    dx = cfg.get_float("grid.dx", 0.125)
    vmax = cfg.get_float("grid.vmax")
    if vmax is None:
        vmax = default_speed_cap(lagrangian, max_ratio)
    return dt, dx, vmax


def _effective_model(cfg: Config, lagr, v_box: float, v_step: float,
                     dt: float, dx: float, vmax: float):
    """The effective model from the effective.* keys.  v_box is the
    command's resolved effective.v_box, v_step its effective.v_step default,
    vmax the effective.vmax default."""
    return build_effective_model(
        lagr, v_box_half=v_box, v_step=cfg.get_float("effective.v_step", v_step),
        n_max=cfg.get_int("effective.n_max", 8), dt=dt, dx=dx,
        vmax=cfg.get_float("effective.vmax", vmax),
        max_denominator=cfg.get_int("effective.max_denominator", 8))


def _reject(cfg: Config, keys, needs: str) -> None:
    """A set key a command would skip is an error, not a silent no-op."""
    for key in keys:
        if cfg.get_str(key) is not None:
            raise ConfigError(f"{cfg.where(key)}: {key} needs {needs}")


# the keys that shape only the Hbar table of the effective command
HBAR_KEYS = ("effective.p_box", "effective.p_step")


def _profile(table) -> list:
    """(first-axis node, value) rows of a ConvexFunctionTable on the line
    through the middle node of the other axes."""
    mid = tuple(len(a) // 2 for a in table.axes[1:])
    return [(a, table.values[(i,) + mid]) for i, a in enumerate(table.axes[0])]


# ---------------------------------------------------------------------------

def run_metric(cfg: Config, out_dir, verbose: bool = False):
    spec, _ = spec_from_config(cfg)
    lagr = build_lagrangian(spec)
    horizon = cfg.get_float("metric.horizon", 4.0)
    dt, dx, vmax = _grids(cfg, lagr, 2.0)
    table = compute_metric_table(lagr, horizon=horizon, dt=dt, dx=dx, vmax=vmax,
                                 keep="all")
    os.makedirs(out_dir, exist_ok=True)
    table.to_csv(os.path.join(out_dir, "metric.csv"))
    # profile figure: m(T, z) along the first axis
    k = int(round(horizon))
    n = int(table.cone.speed * k / dx)
    z = np.zeros((2 * n + 1, spec.dimension))
    z[:, 0] = np.arange(-n, n + 1) * dx
    rows = [(a, m) for a, m in zip(z[:, 0], table.interpolate_many(float(k), z))
            if np.isfinite(m)]
    write_rows(os.path.join(out_dir, "metric_profile.dat"),
               [f"# z1 m({k},0,z) profile"], rows, " ")
    if verbose:
        print(f"metric table: horizon {horizon}, {len(table.layer_times)} layers")
    return table


def run_effective(cfg: Config, out_dir, verbose: bool = False):
    spec, _ = spec_from_config(cfg)
    lagr = build_lagrangian(spec)
    v_box = cfg.get_float("effective.v_box", 4.0)
    # the momentum grid of the written Hbar table
    p_box = cfg.get_float("effective.p_box", v_box / 2.0 + 1.0)
    p_half = int(round(p_box / cfg.get_float("effective.p_step", 0.125)))
    if p_half < 1:
        raise ConfigError("effective.p_box must be at least effective.p_step / 2")
    p_axes = (np.linspace(-p_box, p_box, 2 * p_half + 1),) * spec.dimension
    dt, dx, vmax = _grids(cfg, lagr, v_box * np.sqrt(spec.dimension))
    model = _effective_model(cfg, lagr, v_box, 0.25, dt, dx, vmax)
    hbar = conjugate(model.lagrangian_table, grid_points(p_axes))
    htab = ConvexFunctionTable(p_axes, hbar.reshape([len(a) for a in p_axes]),
                               MOMENTUM_DOMAIN)
    os.makedirs(out_dir, exist_ok=True)
    model.to_csv(os.path.join(out_dir, "lbar.csv"),
                 os.path.join(out_dir, "effective_diagnostics.csv"))
    htab.to_csv(os.path.join(out_dir, "hbar.csv"))
    write_rows(os.path.join(out_dir, "hbar.dat"), ["# p1 Hbar(p1,0,...)"],
               _profile(htab), " ")
    write_rows(os.path.join(out_dir, "lbar.dat"), ["# v1 Lbar(v1,0,...)"],
               _profile(model.lagrangian_table), " ")
    if verbose:
        print(f"effective model: {len(model.diagnostics)} velocity rays")
    return model


def run_rate_sweep(cfg: Config, out_dir, threads: int = 1,
                   verbose: bool = False) -> RateReport:
    _reject(cfg, HBAR_KEYS, "the effective command")
    spec, _ = spec_from_config(cfg)
    lagr = build_lagrangian(spec)
    d = spec.dimension
    eps_list = cfg.get_floats("sweep.eps")
    if not eps_list:
        raise ConfigError("sweep.eps is required for rate runs")
    eps_list = sorted(set(eps_list), reverse=True)
    t = cfg.get_float("sweep.t", 1.0)
    count = cfg.get_int("targets.count", 33)
    radius = 2.0 * t
    targets = target_set(d, count, radius)
    u0 = u0_from_config(cfg, d)

    v_box = cfg.get_float("effective.v_box", radius / t + 2.0)
    max_ratio = max(v_box * np.sqrt(d), radius / t + u0.lipschitz)
    dt, dx, vmax = _grids(cfg, lagr, max_ratio)

    horizon = t / min(eps_list)
    table = compute_metric_table(lagr, horizon=horizon, dt=dt, dx=dx, vmax=vmax,
                                 keep="integers")
    # reference effective solution from the double-resolution model; its
    # speed cap covers the velocity box corners, not just the sweep targets
    model_ref = _effective_model(cfg, lagr, v_box, 0.25, dt / 2, dx / 2, vmax)
    u_bar = solve_effective(u0, model_ref, t, targets)

    def sup_error(eps):
        sol = solve_oscillatory(u0, lagr, eps, t, targets, table=table)
        return float(np.max(np.abs(sol.values - u_bar.values)))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            errors = list(pool.map(sup_error, eps_list))
    else:
        errors = [sup_error(e) for e in eps_list]
    # exact-zero errors (no oscillation) would break the log fit; 1e-14
    # records "zero up to roundoff" honestly
    errors = [max(e, 1e-14) for e in errors]

    # mesh-halving probe: discretization error must stay below half the
    # smallest measured homogenization error
    probe_eps = cfg.get_float("probe.eps", min(eps_list))
    probe_table = compute_metric_table(
        lagr, horizon=t / probe_eps, dt=dt / 2, dx=dx / 2, vmax=vmax,
        keep="integers")
    coarse = solve_oscillatory(u0, lagr, probe_eps, t, targets, table=table)
    fine = solve_oscillatory(u0, lagr, probe_eps, t, targets, table=probe_table)
    disc_err = float(np.max(np.abs(coarse.values - fine.values)))
    if disc_err > 0.5 * min(errors):
        raise ResolutionError(
            f"discretization error {disc_err:.4g} exceeds half the smallest "
            f"homogenization error {min(errors):.4g}; refine grid.dt/grid.dx")

    report = fit_rate(eps_list, errors, t=t)
    os.makedirs(out_dir, exist_ok=True)
    report.to_csv(os.path.join(out_dir, "rate.csv"),
                  extra_header=f"probe_eps={format_float(probe_eps)} "
                               f"probe_error={format_float(disc_err)}")
    report.to_plot_data(os.path.join(out_dir, "rate.dat"))
    if verbose:
        print(f"rate sweep: beta = {report.beta:.3f}, "
              f"probe {disc_err:.2e} vs min error {min(errors):.2e}")
    return report


@dataclass
class PropertyCheck:
    name: str
    value: float
    threshold: float
    passed: bool


# the keys run_property_suite reads only for a non-empty oracle.p_sample
ORACLE_KEYS = ("properties.directions", "oracle.t_long", "oracle.vmax", "oracle.tol",
               "effective.v_box", "effective.v_step", "effective.n_max",
               "effective.vmax", "effective.max_denominator")


def run_property_suite(cfg: Config, out_dir, verbose: bool = False):
    spec, _ = spec_from_config(cfg)
    lagr = build_lagrangian(spec)
    d = spec.dimension
    p_sample = cfg.get_vectors("oracle.p_sample", [[0.0] * d])
    directions = cfg.get_vectors("properties.directions")
    _reject(cfg, HBAR_KEYS, "the effective command")
    if not p_sample:
        _reject(cfg, ORACLE_KEYS, "a non-empty oracle.p_sample")
    if d != 2:
        _reject(cfg, ("properties.surgery_samples", "properties.surgery_t"),
                f"dimension = 2, not {d}")
    rng = np.random.default_rng(cfg.get_int("seed", 0))
    horizon = cfg.get_float("metric.horizon", 8.0)
    dt, dx, vmax = _grids(cfg, lagr, 3.0)
    table = compute_metric_table(lagr, horizon=horizon, dt=dt, dx=dx, vmax=vmax,
                                 keep="all")
    checks: list[PropertyCheck] = []

    # subadditivity against the concatenation bound
    worst = check_subadditivity(table, cfg.get_int("properties.sample_size", 1000),
                                rng)
    lip = table.lipschitz_estimate()
    checks.append(PropertyCheck("subadditivity_max_violation", worst,
                                2 * dx * lip, worst <= 2 * dx * lip))

    k_growth = check_linear_growth(table)
    checks.append(PropertyCheck("linear_growth_K", k_growth, np.inf,
                                np.isfinite(k_growth)))

    # oracle agreement on the configured momentum sample
    if p_sample:
        model = _effective_model(cfg, lagr, cfg.get_float("effective.v_box", 2.5), 0.5,
                                 dt, dx, vmax)
        tol = cfg.get_float("oracle.tol", 0.05)
        worst_dev = 0.0
        for p in p_sample:
            est = cell_problem_oracle(
                lagr, p, t_long=cfg.get_float("oracle.t_long", 128.0),
                dt=dt, dx=dx,
                vmax=cfg.get_float("oracle.vmax", vmax))
            worst_dev = max(worst_dev, abs(model.hamiltonian_bar(p) - est))
        checks.append(PropertyCheck("oracle_agreement", worst_dev, tol,
                                    worst_dev <= tol))

        if directions:
            rep = gap_vs_log_envelope(table, model, directions)
            checks.append(PropertyCheck("gap_min", rep.min_gap, -0.06,
                                        rep.min_gap >= -0.06))
            checks.append(PropertyCheck("gap_log_envelope_C",
                                        rep.envelope_constant, np.inf,
                                        np.isfinite(rep.envelope_constant)))

    surgery_rows = []
    if d == 2 and cfg.get_int("properties.surgery_samples", 0) > 0:
        n_samples = cfg.get_int("properties.surgery_samples")
        t_vals = cfg.get_floats("properties.surgery_t", [2.0])
        gap_by_t = {}
        succ, tot = 0, 0
        for tv in t_vals:
            gaps = []
            for _ in range(n_samples):
                while True:
                    x = rng.integers(-int(2 * tv), int(2 * tv) + 1, size=2)
                    if 0 < np.linalg.norm(x) <= 2.0 * tv and \
                            table.cone.contains(2 * tv, 2 * x):
                        break
                gamma = extract_minimizing_path(table, 2 * tv, 2 * x.astype(float))
                tot += 1
                try:
                    res = path_surgery(gamma, table)
                    succ += 1
                    gaps.append(res.lemma_gap)
                    surgery_rows.append((tv, x.astype(float), res))
                except ResolutionError:
                    continue
            gap_by_t[tv] = max(gaps) if gaps else np.nan
        ts = sorted(gap_by_t)
        ok = all(gap_by_t[b] <= 1.25 * max(gap_by_t[a], 0.05) + 0.05
                 for a, b in zip(ts, ts[1:]))
        checks.append(PropertyCheck("lemma_gap_max", max(gap_by_t.values()),
                                    np.inf, ok))
        rate = succ / max(tot, 1)
        checks.append(PropertyCheck("surgery_success_rate", rate, 0.95,
                                    rate >= 0.95))

    os.makedirs(out_dir, exist_ok=True)
    write_rows(os.path.join(out_dir, "properties.csv"),
               ["# schema=hjhom.properties.v1", "check,value,threshold,passed"],
               [(c.name, c.value, c.threshold, int(c.passed)) for c in checks], ",")
    if surgery_rows:
        surgery_csv(surgery_rows, os.path.join(out_dir, "surgery.csv"))
    if verbose:
        for c in checks:
            print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
                  f"{c.value:.4g} (threshold {c.threshold:.4g})")
    return checks
