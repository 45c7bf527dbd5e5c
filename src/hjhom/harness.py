"""Run-level orchestration: eps sweeps, property suites, effective exports.

Each run_* function takes a parsed Config and an output directory and writes
versioned CSV files plus gnuplot-ready two-column .dat files.  Identical
configurations (including seeds) produce byte-identical outputs.  The rate
sweep's ``threads`` split the large layers of its d >= 2 metric DP builds
into runs of row blocks, the same bytes for any count; d = 1 takes one, as a
split measured no faster.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import Config, ConfigError, spec_from_config
from .effective import build_effective_model, cell_problem_oracle
from .errors import ConfigurationError, HorizonError, ResolutionError, UnreachableError
from .legendre import MOMENTUM_DOMAIN, ConvexFunctionTable, build_lagrangian, conjugate
from .metric import (
    check_reach,
    compute_metric_table,
    default_speed_cap,
    extract_minimizing_path,
)
from .properties import check_subadditivity, gap_vs_log_envelope, lemma_gaps
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
from .util import format_float, grid_points, is_whole, write_rows


def u0_from_config(cfg: Config, dimension: int) -> InitialData:
    family = cfg.get("u0.family", "cone")
    for key, owner in (("u0.scale", "cone"), ("u0.p", "affine"), ("u0.bumps", "bumps")):
        if family != owner:
            _reject(cfg, (key,), f"u0.family = {owner}")
    if family == "cone":
        return cone_data(dimension, cfg.get("u0.scale", 1.0))
    if family == "affine":
        p = cfg.get("u0.p", [1.0] * dimension)
        if len(p) != dimension:
            raise ConfigError(f"{cfg.where('u0.p')}: u0.p needs {dimension} components")
        return affine_data(p)
    if family == "zero":
        return zero_data(dimension)
    bumps = []
    for vec in cfg.get("u0.bumps", []):
        if len(vec) != dimension + 2:
            raise _keyed(cfg, "each bump is amplitude,c1..cd,width", "u0.bumps")
        bumps.append((vec[0], vec[1:-1], vec[-1]))
    if not bumps:
        raise _keyed(cfg, "u0.family = bumps needs a non-empty u0.bumps", "u0.bumps",
                     "u0.family")
    return bump_data(dimension, bumps)


def target_set(dimension: int, count: int, radius: float, step: float) -> np.ndarray:
    """Fixed, recorded target pattern spanning |y| <= radius: a line in d = 1,
    else the origin and rings of 8 points, rounded to step Z^d."""
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
    return np.round(np.asarray(pts[:count]) / step) * step


def _grids(cfg: Config, lagrangian, max_ratio: float):
    """grid.dt, grid.dx and grid.vmax (default: the speed cap for max_ratio);
    vmax dt >= dx is checked at their lines before any table is built."""
    dt = cfg.get("grid.dt", 0.125)
    dx = cfg.get("grid.dx", 0.125)
    vmax = cfg.get("grid.vmax") or default_speed_cap(lagrangian, max_ratio)
    # the default cap is at least 4 and the default steps 1/8, so a failing
    # check has one of these keys set
    return dt, dx, _reachable(cfg, vmax, dt, dx, "grid.vmax", "grid.dx", "grid.dt")


def _keyed(cfg: Config, exc: Exception | str, *keys) -> ConfigError:
    """exc as a ConfigError at the "path:line" of the first of ``keys`` that
    the config sets."""
    key = next(k for k in keys if k in cfg.entries)
    return ConfigError(f"{cfg.where(key)}: {exc}")


def _whole(cfg: Config, a: float, b: float, a_key: str, b_key: str, *keys,
           least: int = 1) -> int:
    """a / b, the values of a_key and b_key, as a whole number >= least; else a
    ConfigError at the first of a_key, b_key and ``keys`` that the config sets."""
    if not (is_whole(a / b) and round(a / b) >= least):
        raise _keyed(cfg, f"{a_key} / {b_key} = {a} / {b} = {a / b} is not a whole "
                     f"number >= {least}", a_key, b_key, *keys)
    return round(a / b)


def _velocity_box(cfg: Config, v_box: float, v_step: float) -> tuple:
    """effective.v_box and effective.v_step (defaults v_box, v_step), a whole ratio."""
    v_box, v_step = cfg.get("effective.v_box", v_box), cfg.get("effective.v_step", v_step)
    _whole(cfg, v_box, v_step, "effective.v_box", "effective.v_step")
    return v_box, v_step


def _reachable(cfg: Config, vmax: float, dt: float, dx: float, *keys) -> float:
    """vmax, checked before any table is built: vmax dt >= dx puts the
    lattice neighbours within one step.  A failing check is reported at the
    first of ``keys`` that the config sets."""
    try:
        check_reach(vmax, dt, dx)
    except ConfigurationError as exc:
        raise _keyed(cfg, exc, *keys) from exc
    return vmax


def _effective_model(cfg: Config, lagr, v_box: float, v_step: float,
                     dt: float, dx: float, vmax: float, table=None,
                     threads: int = 1):
    """The effective model from the effective.* keys.  v_box and v_step are
    the command's resolved effective.v_box and effective.v_step, vmax the
    resolved effective.vmax.  HorizonError is reported at
    effective.v_step's line when that key is set, else at effective.n_max's
    (the defaults never raise it).  A ray the lattice does not reach is
    reported at effective.vmax's line, else at effective.v_box's.

    table: a metric table on the (dt, dx) lattice.  The model reads its rays
    from it when vmax is the table's vmax and the table's horizon reaches
    effective.n_max; otherwise it builds its own on ``threads`` threads.
    """
    n_max = cfg.get("effective.n_max", 8)
    if table is not None and (table.vmax != vmax or table.horizon < n_max):
        table = None
    try:
        return build_effective_model(lagr, v_box_half=v_box, v_step=v_step,
                                     n_max=n_max, dt=dt, dx=dx, vmax=vmax,
                                     table=table, threads=threads)
    except HorizonError as exc:
        raise _keyed(cfg, exc, "effective.v_step", "effective.n_max") from exc
    except UnreachableError as exc:
        raise _keyed(cfg, f"{exc}: effective.vmax does not reach the velocity box",
                     "effective.vmax", "effective.v_box", "grid.vmax") from exc


def _reject(cfg: Config, keys, needs: str) -> None:
    """A set key a command would skip is an error, not a silent no-op."""
    for key in keys:
        if key in cfg.entries:
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
    horizon = cfg.get("metric.horizon", 4.0)
    dt, dx, vmax = _grids(cfg, lagr, 2.0)
    _whole(cfg, horizon, dt, "metric.horizon", "grid.dt")
    table = compute_metric_table(lagr, horizon=horizon, dt=dt, dx=dx, vmax=vmax,
                                 keep="all")
    os.makedirs(out_dir, exist_ok=True)
    table.to_csv(os.path.join(out_dir, "metric.csv"))
    # profile figure: m(horizon, 0, z) along the first axis
    layer, reach = table.layer(horizon)
    line = layer[(slice(None),) + (reach,) * (spec.dimension - 1)]
    rows = [(j * dx, m) for j, m in zip(range(-reach, reach + 1), line) if np.isfinite(m)]
    write_rows(os.path.join(out_dir, "metric_profile.dat"),
               [f"# z1 m({format_float(horizon).removesuffix('.0')},0,z) profile"], rows, " ")
    if verbose:
        print(f"metric table: horizon {horizon}, {len(table.layer_times)} layers")
    return table


def run_effective(cfg: Config, out_dir, verbose: bool = False):
    spec, _ = spec_from_config(cfg)
    lagr = build_lagrangian(spec)
    v_box, v_step = _velocity_box(cfg, 4.0, 0.25)
    # the momentum grid of the written Hbar table: box v_box / 2 + 1, rounded up
    p_step = cfg.get("effective.p_step", 0.125)
    p_box = cfg.get("effective.p_box", np.ceil((v_box / 2.0 + 1.0) / p_step - 1e-9) * p_step)
    p_half = _whole(cfg, p_box, p_step, "effective.p_box", "effective.p_step")
    p_axes = (np.linspace(-p_box, p_box, 2 * p_half + 1),) * spec.dimension
    dt, dx, vmax = _grids(cfg, lagr, v_box * np.sqrt(spec.dimension))
    vmax = _reachable(cfg, cfg.get("effective.vmax", vmax), dt, dx, "effective.vmax")
    model = _effective_model(cfg, lagr, v_box, v_step, dt, dx, vmax)
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
    eps_list = sorted(cfg.get("sweep.eps", required=True), reverse=True)
    t = cfg.get("sweep.t", 1.0)
    radius = 2.0 * t
    u0 = u0_from_config(cfg, d)

    v_box, v_step = _velocity_box(cfg, radius / t + 2.0, 0.25)
    max_ratio = max(v_box * np.sqrt(d), radius / t + u0.lipschitz)
    dt, dx, vmax = _grids(cfg, lagr, max_ratio)
    # effective.vmax caps the reference model's half-step lattice
    model_vmax = _reachable(cfg, cfg.get("effective.vmax", vmax), dt / 2, dx / 2,
                            "effective.vmax")
    probe_eps = cfg.get("probe.eps", min(eps_list))
    if probe_eps not in eps_list:
        raise _keyed(cfg, f"probe.eps = {probe_eps} is not one of sweep.eps", "probe.eps")
    targets = target_set(d, cfg.get("targets.count", 33), radius, dx)
    for eps in eps_list:
        # solve_oscillatory reads u_eps(t, y) at the dx-lattice node y/eps of
        # the layer t/eps, and only integer-time layers are kept
        for y in targets:
            j = y / (eps * dx)
            if not is_whole(j).all():
                raise _keyed(cfg, f"target y = {y}: y/(eps dx) = {j} is not an "
                             f"integer at eps = {eps}", "targets.count", "sweep.eps")
        _whole(cfg, t, eps, "sweep.t", "sweep.eps")
    if len(eps_list) < 2:
        raise _keyed(cfg, "a rate fit needs at least two distinct sweep.eps", "sweep.eps")

    horizon = t / min(eps_list)
    table = compute_metric_table(lagr, horizon=horizon, dt=dt, dx=dx, vmax=vmax,
                                 keep="integers", threads=threads)
    # reference effective solution from the double-resolution model; its
    # speed cap covers the velocity box corners, not just the sweep targets
    model_ref = _effective_model(cfg, lagr, v_box, v_step, dt / 2, dx / 2, model_vmax,
                                 threads=threads)
    u_bar = solve_effective(u0, model_ref, t, targets)
    sols = {eps: solve_oscillatory(u0, lagr, eps, t, targets, table=table).values
            for eps in eps_list}
    # exact-zero errors (no oscillation) would break the log fit; 1e-14
    # records "zero up to roundoff" honestly
    errors = [max(float(np.max(np.abs(sols[eps] - u_bar.values))), 1e-14)
              for eps in eps_list]

    # mesh-halving probe: discretization error must stay below half the
    # smallest measured homogenization error
    probe_table = compute_metric_table(
        lagr, horizon=t / probe_eps, dt=dt / 2, dx=dx / 2, vmax=vmax,
        keep="integers", threads=threads)
    fine = solve_oscillatory(u0, lagr, probe_eps, t, targets, table=probe_table)
    disc_err = float(np.max(np.abs(sols[probe_eps] - fine.values)))
    if disc_err > 0.5 * min(errors):
        raise ResolutionError(
            f"discretization error {disc_err:.4g} exceeds half the smallest "
            f"homogenization error {min(errors):.4g}; refine grid.dt/grid.dx")

    report = fit_rate(eps_list, errors, t=t)
    report.probe_eps, report.probe_error = probe_eps, disc_err
    os.makedirs(out_dir, exist_ok=True)
    report.to_csv(os.path.join(out_dir, "rate.csv"))
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
               "effective.vmax")


def run_property_suite(cfg: Config, out_dir, verbose: bool = False):
    spec, _ = spec_from_config(cfg)
    lagr = build_lagrangian(spec)
    d = spec.dimension
    p_sample = cfg.get("oracle.p_sample", [[0.0] * d])
    directions = cfg.get("properties.directions")
    _reject(cfg, HBAR_KEYS, "the effective command")
    if not p_sample:
        _reject(cfg, ORACLE_KEYS, "a non-empty oracle.p_sample")
    if d != 2:
        _reject(cfg, ("properties.surgery_samples", "properties.surgery_t"),
                f"dimension = 2, not {d}")
    n_samples = cfg.get("properties.surgery_samples", 0)   # unset unless d = 2, see above
    if n_samples < 1:
        _reject(cfg, ("properties.surgery_t",), "properties.surgery_samples >= 1")
    rng = np.random.default_rng(cfg.get("seed", 0))
    horizon = cfg.get("metric.horizon", 8.0)
    dt, dx, vmax = _grids(cfg, lagr, 3.0)
    _whole(cfg, horizon, dt, "metric.horizon", "grid.dt")
    if horizon < 2:
        raise _keyed(cfg, f"metric.horizon = {horizon} is below 2: subadditivity needs two "
                     "reached integer times whose sum is at most the last", "metric.horizon")
    if p_sample:
        v_box, v_step = _velocity_box(cfg, 2.5, 0.5)
        model_vmax = _reachable(cfg, cfg.get("effective.vmax", vmax), dt, dx,
                                "effective.vmax")
        oracle_vmax = _reachable(cfg, cfg.get("oracle.vmax", vmax), dt, dx, "oracle.vmax")
        t_long = cfg.get("oracle.t_long", 128.0)
        _whole(cfg, t_long, dt, "oracle.t_long", "grid.dt", least=4)
        for p in p_sample:
            if len(p) != d:
                raise _keyed(cfg, f"oracle.p_sample vector {p} has {len(p)} components, "
                             f"not dimension = {d}", "oracle.p_sample")
        # gap_vs_log_envelope reads Lbar(e) at a node and f(s, s e) on the lattice
        for e in directions or ():
            if not (len(e) == d and max(map(abs, e)) <= v_box + 1e-9
                    and is_whole(np.asarray(e) / [[dx], [v_step]]).all()):
                raise _keyed(cfg, f"properties.directions vector {e} is not {d} multiples "
                             f"of grid.dx = {dx} and of effective.v_step = {v_step} in "
                             f"[-{v_box}, {v_box}]", "properties.directions")
    t_vals = cfg.get("properties.surgery_t", [2.0])
    if n_samples > 0 and 2 * max(t_vals) > horizon:
        # surgery splits a path to (2t, 2x) at the integer point (t, x)
        raise _keyed(cfg, f"properties.surgery_t = {max(t_vals)}: 2t exceeds "
                     f"metric.horizon = {horizon}", "properties.surgery_t", "metric.horizon")
    table = compute_metric_table(lagr, horizon=horizon, dt=dt, dx=dx, vmax=vmax,
                                 keep="all")
    checks: list[PropertyCheck] = []

    # the lattice DP is subadditive at integer points up to roundoff
    worst = check_subadditivity(table, cfg.get("properties.sample_size", 1000), rng)
    checks.append(PropertyCheck("subadditivity_max_violation", worst, 1e-9,
                                worst <= 1e-9))

    # oracle agreement on the configured momentum sample
    if p_sample:
        model = _effective_model(cfg, lagr, v_box, v_step, dt, dx, model_vmax, table=table)
        tol = cfg.get("oracle.tol", 0.05)
        worst_dev = 0.0
        for p in p_sample:
            est = cell_problem_oracle(
                lagr, p, t_long=t_long, dt=dt, dx=dx, vmax=oracle_vmax)
            worst_dev = max(worst_dev, abs(model.hamiltonian_bar(p) - est))
        checks.append(PropertyCheck("oracle_agreement", worst_dev, tol,
                                    worst_dev <= tol))

        if directions:
            rep = gap_vs_log_envelope(table, model, directions)
            checks.append(PropertyCheck("gap_min", rep.min_gap, -0.06,
                                        rep.min_gap >= -0.06))

    surgery_rows = []
    if n_samples > 0:
        gap_by_t = {}
        for tv in t_vals:
            ends, gaps = lemma_gaps(table, tv)
            if not len(ends):
                raise _keyed(cfg, f"properties.surgery_t = {tv}: no integer x with "
                             f"0 < |x| <= {2 * tv} has m({2 * tv}, 0, 2x) finite",
                             "properties.surgery_t", "properties.surgery_samples")
            gap_by_t[tv] = float(np.max(gaps))
            for i in rng.integers(len(ends), size=n_samples):
                gamma = extract_minimizing_path(table, 2 * tv, 2 * ends[i])
                try:
                    surgery_rows.append((tv, ends[i], gaps[i], path_surgery(gamma, table)))
                except ResolutionError:
                    pass
        # non-growth: each time's gap within 1.25 max(previous, 0.05) + 0.05,
        # written at the consecutive pair of times with the least margin
        g = [gap_by_t[tv] for tv in sorted(gap_by_t)]
        pairs = [(b, 1.25 * max(a, 0.05) + 0.05) for a, b in zip(g, g[1:])]
        if pairs:
            gap, bound = min(pairs, key=lambda pair: pair[1] - pair[0])
            checks.append(PropertyCheck("lemma_gap_max", gap, bound, gap <= bound))
        rate = len(surgery_rows) / (n_samples * len(t_vals))
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
