"""The four benchmark workloads: generated configs, pipelines and gates.

Each workload is one hjhom pipeline sized so that a single run takes a few
seconds on a 2-core box while the layer that the workload exists for still
dominates (see README.md for the reasons and measured shares).  The configs
use only keys the hjhom config format documents; the benchmark seed is
written into the ``seed`` key.  Only ``properties-2d`` reads it (sampled
subadditivity pairs and surgery endpoints); every other input is fixed by
the gate it must pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

RATE_1D = """\
# d = 1 rate sweep, u0 = |x|; two keep="integers" tables dominate
dimension = 1
potential.a0 = 2.0
potential.terms = 1.0,1
grid.dt = 0.03125
grid.dx = 0.0078125
grid.vmax = 4.0
sweep.eps = 0.25,0.125,0.0625
sweep.t = 1.0
targets.count = 17
u0.family = cone
u0.scale = 1.0
effective.v_box = 3.0
effective.v_step = 0.25
effective.n_max = 8
effective.vmax = 5.0
seed = {seed}
"""

RATE_2D = """\
# d = 2 rate sweep; three independent DP builds dominate
dimension = 2
potential.a0 = 3.0
potential.terms = 1.0,1,0; 1.0,0,1
grid.dt = 0.125
grid.dx = 0.125
grid.vmax = 4.0
sweep.eps = 0.5,0.25,0.125
sweep.t = 1.0
targets.count = 9
probe.eps = 0.5
u0.family = cone
effective.v_box = 3.0
effective.v_step = 1.0
effective.n_max = 2
effective.vmax = 4.5
seed = {seed}
"""

PROPERTIES_2D = """\
# d = 2 property suite: keep="all" table, paths, surgery, cell oracle
dimension = 2
potential.a0 = 3.0
potential.terms = 1.0,1,0; 1.0,0,1
grid.dt = 0.25
grid.dx = 0.125
grid.vmax = 5.0
metric.horizon = 4.0
properties.sample_size = 500
properties.surgery_samples = 10
properties.surgery_t = 1.0,2.0
properties.directions = 1.0,0.0; 1.0,1.0; 0.0,1.0
oracle.p_sample = 0.0,0.0; 0.5,0.5
oracle.t_long = 32.0
oracle.vmax = 5.0
oracle.tol = 0.05
effective.v_box = 2.5
effective.v_step = 0.5
effective.n_max = 4
seed = {seed}
"""

CROSSCHECK_1D = """\
# d = 1 solver cross-check (acceptance criteria 8 and 2 as library calls)
dimension = 1
potential.a0 = 2.0
potential.terms = 1.0,1
grid.dt = 0.03125
grid.dx = 0.015625
grid.vmax = 5.0
sweep.eps = 0.25
sweep.t = 1.0
u0.family = cone
effective.v_box = 5.0
effective.v_step = 0.25
effective.n_max = 8
effective.vmax = 6.5
seed = {seed}
"""

# criterion 8 and 2 constants that have no config key
CROSSCHECK_TARGETS = (-1.0, -0.5, 0.0, 0.5, 1.0)
CROSSCHECK_POINTS_PER_EPS = 192
CROSSCHECK_MODEL_GRID = (0.0625, 0.015625)      # dt, dx of the effective model
CROSSCHECK_P = (0.0, 0.5, 1.0, 1.5, 2.0)
FD_TOL = 0.05           # criterion 8
HBAR_TOL = 0.05         # criterion 2
EDGE_REL_TOL = 0.05     # criterion 2, flat-piece edge
BETA_MIN = {1: 0.85, 2: 0.75}   # criteria 4 and 5


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    command: str | None      # hjhom CLI subcommand; None for library calls
    threads: int
    outputs: tuple

    def config_text(self, seed: int) -> str:
        return self.config.format(seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("rate-1d", RATE_1D, "rate", 1, ("rate.csv", "rate.dat")),
    Workload("rate-2d", RATE_2D, "rate", 2, ("rate.csv", "rate.dat")),
    Workload("properties-2d", PROPERTIES_2D, "properties", 1,
             ("properties.csv", "surgery.csv")),
    Workload("crosscheck-1d", CROSSCHECK_1D, None, 1, ("crosscheck.csv",)),
)}


# -- pipelines (run inside the child process) ---------------------------------

def run_pipeline(workload: Workload, config_path: str, out_dir: str) -> int:
    """One full pipeline; returns the hjhom CLI exit code (0 on success)."""
    if workload.command is not None:
        from hjhom.cli import main
        return main([workload.command, "--config", config_path, "--out", out_dir,
                     "--threads", str(workload.threads)])
    return _crosscheck(config_path, out_dir)


def _crosscheck(config_path: str, out_dir: str) -> int:
    # calls go through the package namespace so the tracer sees them
    import hjhom
    from hjhom.util import format_float

    cfg = hjhom.parse_config(config_path)
    spec, _ = hjhom.spec_from_config(cfg)
    lagr = hjhom.build_lagrangian(spec)
    eps, t = cfg.get_floats("sweep.eps")[0], cfg.get_float("sweep.t")
    dt, dx, vmax = (cfg.get_float(k) for k in ("grid.dt", "grid.dx", "grid.vmax"))
    u0 = hjhom.cone_data(1)
    targets = np.asarray(CROSSCHECK_TARGETS)[:, None]
    table = hjhom.compute_metric_table(lagr, horizon=t / eps, dt=dt, dx=dx,
                                       vmax=vmax, keep="integers")
    rep = hjhom.solve_oscillatory(u0, lagr, eps, t, targets, table=table)
    fd = hjhom.solve_fd_oracle(u0, spec, eps, t, targets,
                               points_per_eps=CROSSCHECK_POINTS_PER_EPS)

    model_dt, model_dx = CROSSCHECK_MODEL_GRID
    model = hjhom.build_effective_model(
        lagr, v_box_half=cfg.get_float("effective.v_box"),
        v_step=cfg.get_float("effective.v_step"),
        n_max=cfg.get_int("effective.n_max"), dt=model_dt, dx=model_dx,
        vmax=cfg.get_float("effective.vmax"))
    hbar = [(p, model.hamiltonian_bar([p]),
             hjhom.effective_hamiltonian_quadrature_1d(spec.potential, p))
            for p in CROSSCHECK_P]
    edge_true = hjhom.flat_piece_radius_1d(spec.potential)
    edge_hat = model.flat_piece_radius_estimate()

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "crosscheck.csv"), "w") as fh:
        fh.write(f"# flat_edge={format_float(edge_hat)} "
                 f"flat_edge_quadrature={format_float(edge_true)}\n")
        fh.write("kind,x,value,reference\n")
        for y, a, b in zip(targets[:, 0], rep.values, fd.values):
            fh.write(f"u_eps,{format_float(y)},{format_float(a)},{format_float(b)}\n")
        for p, a, b in hbar:
            fh.write(f"hbar,{format_float(p)},{format_float(a)},{format_float(b)}\n")
    return 0


# -- gates and accuracy metrics (read back from the written outputs) ----------

def _header_fields(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line.lstrip("#").split() if "=" in tok)


def _rows(path: str) -> list[list[str]]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_outputs(workload: Workload, out_dir: str, exit_code: int,
                  dimension: int) -> tuple[list[str], dict]:
    """Gate failures (empty when the run is correct) and accuracy values."""
    if exit_code != 0:
        return [f"hjhom exit code {exit_code}"], {}
    missing = [n for n in workload.outputs
               if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        return [f"missing output {n}" for n in missing], {}
    if workload.command == "rate":
        return _check_rate(out_dir, dimension)
    if workload.command == "properties":
        return _check_properties(out_dir)
    return _check_crosscheck(out_dir)


def _check_rate(out_dir, dimension):
    path = os.path.join(out_dir, "rate.csv")
    with open(path) as fh:
        head = _header_fields(fh.readline())
    errors = [float(r[1]) for r in _rows(path)]
    beta = float(head["beta"])
    probe_ratio = float(head["probe_error"]) / (0.5 * min(errors))
    failures = []
    if not beta >= BETA_MIN[dimension]:
        failures.append(f"beta {beta:.4g} < {BETA_MIN[dimension]}")
    if not probe_ratio < 1.0:
        failures.append(f"probe ratio {probe_ratio:.4g} >= 1")
    return failures, {"beta": beta, "probe_ratio": probe_ratio}


def _check_properties(out_dir):
    rows = {r[0]: r for r in _rows(os.path.join(out_dir, "properties.csv"))}
    failures = [f"property {name} failed" for name, r in rows.items()
                if r[3] != "1"]
    if "oracle_agreement" not in rows:
        failures.append("oracle_agreement row missing")
        return failures, {}
    return failures, {"oracle_dev": float(rows["oracle_agreement"][1])}


def _check_crosscheck(out_dir):
    path = os.path.join(out_dir, "crosscheck.csv")
    with open(path) as fh:
        head = _header_fields(fh.readline())
    rows = _rows(path)
    fd_dev = max(abs(float(r[2]) - float(r[3])) for r in rows if r[0] == "u_eps")
    hbar_dev = max(abs(float(r[2]) - float(r[3])) for r in rows if r[0] == "hbar")
    edge_true = float(head["flat_edge_quadrature"])
    edge_rel = abs(float(head["flat_edge"]) - edge_true) / edge_true
    failures = []
    if not fd_dev <= FD_TOL:
        failures.append(f"fd_dev {fd_dev:.4g} > {FD_TOL}")
    if not hbar_dev <= HBAR_TOL:
        failures.append(f"hbar_dev {hbar_dev:.4g} > {HBAR_TOL}")
    if not edge_rel <= EDGE_REL_TOL:
        failures.append(f"flat edge off by {edge_rel:.2%} > {EDGE_REL_TOL:.0%}")
    return failures, {"fd_dev": fd_dev, "hbar_dev": hbar_dev}
