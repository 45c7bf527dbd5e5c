"""External span tracer for hjhom, installed from outside the package.

The tracer replaces public hjhom functions with timing wrappers in the
modules that bind them (the package namespace, ``harness``, ``effective``,
``solver`` and ``properties``).  The defining modules (``metric``,
``legendre``) are left alone, so a call counts once, at the layer boundary
where another layer makes it.  Nothing under ``src/`` changes.

Each call becomes a span: name, start, end, parent and thread.  Parents come
from a per-thread stack; a span opened on a pool thread with an empty stack
is parented to the open run span, so ``solve_oscillatory`` calls made from
the ``rate --threads 2`` pool still nest under the run.  Spans stay in memory
until the run ends.  Work counters are computed from each call's arguments
and return value (they are formulas over sizes, labelled "computed"), not
read from counters inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time

import numpy as np

# wrapped public name -> span name ("layer.kernel")
SPAN_NAMES = {
    "build_lagrangian": "legendre.lagrangian",
    "legendre_transform": "legendre.transform",
    "compute_metric_table": "metric.dp",
    "extract_minimizing_path": "metric.path",
    "build_effective_model": "effective.model",
    "cell_problem_oracle": "effective.oracle",
    "effective_hamiltonian_quadrature_1d": "effective.quadrature",
    "flat_piece_radius_1d": "effective.quadrature",
    "solve_oscillatory": "solver.oscillatory",
    "solve_effective": "solver.effective",
    "solve_fd_oracle": "solver.fd",
    "check_subadditivity": "properties.subadd",
    "check_linear_growth": "properties.growth",
    "extract_approximate_geodesic": "properties.geodesic",
    "gap_vs_log_envelope": "properties.envelope",
    "path_surgery": "surgery.surgery",
    "surgery_csv": "surgery.csv",
    "fit_rate": "rates.fit",
}

BINDING_MODULES = ("hjhom", "hjhom.harness", "hjhom.effective", "hjhom.solver",
                   "hjhom.properties")

LAYERS = ("metric", "effective", "legendre", "solver", "properties", "surgery",
          "rates", "harness")

RUN_SPAN = "harness.run"


# -- computed work counters ---------------------------------------------------

def offset_count(dimension: int, step_radius: float) -> int:
    """Integer vectors o with |o| <= step_radius (the DP stencil size)."""
    s = int(np.floor(step_radius + 1e-9))
    axis = np.arange(-s, s + 1)
    pts = np.stack(np.meshgrid(*[axis] * dimension, indexing="ij"), axis=-1)
    return int(np.count_nonzero(
        np.linalg.norm(pts.reshape(-1, dimension), axis=1) <= step_radius + 1e-9))


def dp_cell_updates(dimension: int, horizon: float, dt: float, dx: float,
                    vmax: float) -> int:
    """Source-window cells times offsets, summed over the DP layers.

    Layer k is built from layer k-1, whose window is [-(k-1)s, (k-1)s]^d with
    s the largest integer step (floor of vmax dt / dx).
    """
    radius = vmax * dt / dx
    s_max = int(np.floor(radius + 1e-9))
    n_layers = int(round(horizon / dt))
    windows = sum((2 * k * s_max + 1) ** dimension for k in range(n_layers))
    return windows * offset_count(dimension, radius)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _dp_counters(a, table):
    return {
        "cell_updates": dp_cell_updates(a["lagrangian"].dimension, a["horizon"],
                                        a["dt"], a["dx"], a["vmax"]),
        "retained_bytes": int(sum(layer.nbytes for layer in table.layers)),
    }


def _oracle_counters(a, _):
    d = np.atleast_1d(a["p"]).size
    n_steps = int(round(a["t_long"] / a["dt"]))
    cells = int(round(1.0 / a["dx"])) ** d
    return {"cell_updates":
            n_steps * cells * offset_count(d, a["vmax"] * a["dt"] / a["dx"])}


def _fd_counters(a, sol):
    prov = sol.provenance
    h, d = prov["h"], a["spec"].dimension
    targets = np.asarray(a["targets"], dtype=float).reshape(-1, d)
    speed = prov["alpha"] * d + 1.0
    # same expressions as the solver's box, so the node counts match exactly
    lo = targets.min(axis=0) - speed * a["t"] - a["box_margin"]
    hi = targets.max(axis=0) + speed * a["t"] + a["box_margin"]
    cells = int(np.prod([len(np.arange(l, u + h, h)) for l, u in zip(lo, hi)]))
    return {"cell_steps": cells * int(round(a["t"] / prov["dt_fd"]))}


def _model_counters(_, model):
    diags = model.diagnostics
    return {"rays": len(diags),
            "rays_unflagged": sum(1 for rec in diags if not rec["flagged"])}


def _targets_counters(_, sol):
    return {"targets": len(sol.values)}


COUNTERS = {
    "compute_metric_table": _dp_counters,
    "cell_problem_oracle": _oracle_counters,
    "solve_fd_oracle": _fd_counters,
    "build_effective_model": _model_counters,
    "solve_oscillatory": _targets_counters,
}


# -- spans --------------------------------------------------------------------

class Tracer:
    """Records spans for wrapped calls; spans stay in memory until dumped."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._run_id = None
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, start, end, sid, parent, ok, counters):
        # list.append is atomic under the interpreter lock
        self.spans.append({"id": sid, "name": name, "parent": parent,
                           "start": start, "end": end,
                           "thread": threading.get_ident(), "ok": ok,
                           "counters": counters})

    def wrap(self, public_name: str, fn):
        span_name = SPAN_NAMES[public_name]
        counter = COUNTERS.get(public_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._run_id
            sid = next(self._ids)
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counters = {}
                if ok and counter is not None:
                    counters = counter(_bound(fn, args, kwargs), result)
                self._record(span_name, start, end, sid, parent, ok, counters)

        return traced

    def install(self) -> None:
        wrappers = {}
        for mod_name in BINDING_MODULES:
            mod = importlib.import_module(mod_name)
            for name in SPAN_NAMES:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self.wrap(name, fn)
                self._saved.append((mod, name, fn))
                setattr(mod, name, wrappers[fn])

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def run(self, fn, *args, **kwargs):
        """Call fn inside the root run span."""
        sid = next(self._ids)
        self._run_id = sid
        self._stack().append(sid)
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._run_id = None
            self._record(RUN_SPAN, start, end, sid, None, ok, {})


# -- analysis -----------------------------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    return {sp["id"]: (sp["end"] - sp["start"])
            - _covered(children.get(sp["id"], []), sp["start"], sp["end"])
            for sp in spans}


def summarize(spans) -> dict:
    """Per-layer metrics of one traced run (see perfbench/README.md)."""
    runs = [sp for sp in spans if sp["name"] == RUN_SPAN]
    if len(runs) != 1:
        raise ValueError(f"expected one run span, found {len(runs)}")
    run = runs[0]
    wall = run["end"] - run["start"]
    selfs = self_times(spans)

    def by(name):
        return [sp for sp in spans if sp["name"] == name]

    def self_s(*names):
        return sum(selfs[sp["id"]] for n in names for sp in by(n))

    def busy_s(name):
        return sum(sp["end"] - sp["start"] for sp in by(name))

    def count(name, key):
        return sum(sp["counters"].get(key, 0) for sp in by(name))

    def per_s(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    out = {}
    dp_s = self_s("metric.dp")
    cells = count("metric.dp", "cell_updates")
    out["metric.dp_s"] = dp_s
    out["metric.dp_calls"] = len(by("metric.dp"))
    out["metric.cell_updates"] = cells
    out["metric.cell_updates_per_s"] = per_s(cells, dp_s)
    out["metric.retained_mb"] = count("metric.dp", "retained_bytes") / 1e6
    out["metric.path_s"] = self_s("metric.path")
    out["metric.path_calls"] = len(by("metric.path"))

    rays = count("effective.model", "rays")
    out["effective.model_s"] = self_s("effective.model")
    out["effective.rays"] = rays
    out["effective.rays_unflagged_ratio"] = (
        count("effective.model", "rays_unflagged") / rays if rays else 0.0)
    out["effective.oracle_s"] = self_s("effective.oracle")
    out["effective.oracle_cell_updates"] = count("effective.oracle", "cell_updates")
    out["effective.quadrature_s"] = self_s("effective.quadrature")
    out["legendre.transform_s"] = self_s("legendre.transform")
    out["legendre.lagrangian_s"] = self_s("legendre.lagrangian")

    out["solver.oscillatory_s"] = self_s("solver.oscillatory")
    # targets over busy time summed across pool threads: per-thread throughput
    out["solver.oscillatory_targets_per_s"] = per_s(
        count("solver.oscillatory", "targets"), busy_s("solver.oscillatory"))
    out["solver.effective_s"] = self_s("solver.effective")
    fd_s = self_s("solver.fd")
    fd_steps = count("solver.fd", "cell_steps")
    out["solver.fd_s"] = fd_s
    out["solver.fd_cell_steps"] = fd_steps
    out["solver.fd_cell_steps_per_s"] = per_s(fd_steps, fd_s)

    out["properties.subadd_s"] = self_s("properties.subadd")
    out["properties.growth_s"] = self_s("properties.growth")
    out["properties.envelope_s"] = self_s("properties.envelope")
    surgeries = by("surgery.surgery")
    out["surgery.s"] = self_s("surgery.surgery", "surgery.csv")
    out["surgery.calls"] = len(surgeries)
    out["surgery.success_ratio"] = (
        sum(sp["ok"] for sp in surgeries) / len(surgeries) if surgeries else 0.0)
    out["rates.fit_s"] = self_s("rates.fit")

    top = [sp for sp in spans if sp["parent"] == run["id"]]
    out["harness.self_s"] = selfs[run["id"]]
    out["harness.parallel_ratio"] = sum(sp["end"] - sp["start"] for sp in top) / wall

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for sp in spans:
        layer_self[sp["name"].split(".", 1)[0]] += selfs[sp["id"]]
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / wall
    out["trace.wall_s"] = wall
    return out
