"""One pipeline run in a fresh process; writes a result JSON for run.py.

Usage (run.py starts it; shown for manual debugging):
    python3 perfbench/child.py --workload rate-1d --config CFG --out DIR \
        --result RESULT.json --t0 <time.monotonic() of the parent> --trace 0

setup_s runs from the parent's spawn time (CLOCK_MONOTONIC is shared by all
processes) through interpreter start, ``import hjhom``, config parsing and
``build_lagrangian``; with --setup-only the child stops there (a set-up
probe).  wall_s is the pipeline alone, from its first layer
call to its written outputs.  hjhom is imported from ``src/`` of the
checkout that holds this file, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _digests(out_dir: str) -> dict:
    """sha256 of every CSV/DAT output, keyed by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith((".csv", ".dat")):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space (VmHWM).

    ru_maxrss is not used where VmHWM exists: Linux carries the parent's
    resident size at fork over into the child's ru_maxrss across exec, so it
    would count the benchmark driver's memory too.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_new_threads(cpus: set) -> None:
    """Let threads started from now on (a ``--threads`` pool) run on ``cpus``.

    The main thread keeps the one vCPU it was started on.  run.py times its
    host-speed reference loop on that vCPU, and a thread allowed on two vCPUs
    is moved between them by the scheduler now and then, mid-run.
    """
    run = threading.Thread.run

    def pinned_run(self):
        os.sched_setaffinity(0, cpus)
        run(self)
    threading.Thread.run = pinned_run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report setup_s alone")
    ap.add_argument("--cpus", default="",
                    help="comma-separated vCPUs the pipeline's threads may use; "
                         "the main thread keeps the one it was started on")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import hjhom
    from hjhom.config import parse_config, spec_from_config

    from workloads import WORKLOADS, check_outputs, run_pipeline

    origin = os.path.abspath(hjhom.__file__)
    if not origin.startswith(SRC + os.sep):
        raise SystemExit(f"hjhom imported from {origin}, not from {SRC}")
    workload = WORKLOADS[args.workload]
    cfg = parse_config(args.config)
    spec, _ = spec_from_config(cfg)
    hjhom.build_lagrangian(spec)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    if args.cpus:
        pin_new_threads({int(c) for c in args.cpus.split(",")})

    result = {"setup_s": setup_s, "failures": [], "accuracy": {}, "digests": {}}
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        if tracer is not None:
            code = tracer.run(run_pipeline, workload, args.config, args.out)
        else:
            code = run_pipeline(workload, args.config, args.out)
    except Exception:       # a failed run is reported, not fatal to the benchmark
        result["failures"].append(traceback.format_exc(limit=4))
        code = None
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = peak_rss_mb()

    if code is not None:
        failures, accuracy = check_outputs(workload, args.out, code, spec.dimension)
        result["failures"] += failures
        result["accuracy"] = accuracy
        if os.path.isdir(args.out):
            result["digests"] = _digests(args.out)
    if tracer is not None:
        tracer.uninstall()
        from selfcheck import check_cell_update_formula
        from tracer import summarize
        result["failures"] += check_cell_update_formula()
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "trace.json"), "w") as fh:
            json.dump(tracer.spans, fh)
        result["layers"] = summarize(tracer.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
