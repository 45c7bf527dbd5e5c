"""hjhom benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload rate-1d --seed 1 --seconds 30 --trace 0

Each pipeline run is a fresh child process (perfbench/child.py) that imports
hjhom from ``src/`` of this checkout, with BLAS/OpenMP pools pinned to one
thread so the workload's own ``--threads`` is the only parallelism.  Runs
repeat one after another (a closed loop with one client) until ``--seconds``
have passed and at least a few runs finished; reported times are medians.
After each pipeline run, SETUP_PROBES children stop after set-up, so setup_s
has more samples than wall_s.

The host's speed drifts by up to 2x over tens of seconds (shared cores), and
the drift slows a fixed CPU load much as it slows the pipelines.  So a fixed
reference loop (numpy stencil, numpy min-plus, byte-compiling Python; no
hjhom code) runs before the first pipeline run and after each one, and each
run's times are also kept host-normalised: raw time x REF_NOMINAL_S / (mean
of the two reference times around the run), i.e. the time on a host where
the reference loop takes REF_NOMINAL_S.  The vCPUs slow down independently
of each other, so the reference loop and every child start on the same
vCPU, the one that ran the warm-up loop fastest.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
runs: wall_s and setup_s host-normalised, peak_rss_mb as measured; the raw
medians are printed on a '#' line and kept in the record.  --trace 1
alternates untraced and traced runs and reports the per-layer metrics:
medians over the traced runs, plus the tracing overhead (traced minus
untraced median normalised wall time).  The last stdout line is the JSON
result; the full record (environment, every run, output digests, one span
dump) goes to .bench_out/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

MIN_RUNS = 3            # per kind (untraced / traced), whatever --seconds says
# the whole command must end within 180 s: no run starts after RUN_LIMIT_S and
# none may take longer than CHILD_TIMEOUT_S (a few times the slowest workload)
RUN_LIMIT_S = 145
CHILD_TIMEOUT_S = 28
# normalised times are the times on a host where the reference loop takes
# this long (a round figure near its time on a quiet 2-vCPU Xeon VM)
REF_NOMINAL_S = 0.4
# set-up-only children after each pipeline run: setup_s is short and noisy,
# so it gets more samples than wall_s
SETUP_PROBES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def _read(path: str, default: str = "") -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return default


def environment() -> dict:
    """Machine and code identity recorded with every result set."""
    cpu = next((ln.split(":", 1)[1].strip()
                for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, idx, "level"))
        kind = _read(os.path.join(base, idx, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, idx, "size"))
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src_hash.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    src_hash.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "src_sha256": src_hash.hexdigest()}


# a fixed module source for the interpreter part of the reference loop
_REF_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n"
    f"    c = [a * k + {i} for k in range(b[0] % 7)]\n"
    f"    return {{'k': c, 'v': str(a) + b[1]}}\n" for i in range(300))


def reference_s(cpu: int) -> float:
    """Time of the reference loop pinned to ``cpu``.

    The vCPUs of a shared host slow down independently of each other, so the
    loop runs on the vCPU the pipeline's main thread runs on.
    """
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return _reference_loop()
    finally:
        os.sched_setaffinity(0, mask)


def _reference_loop() -> float:
    """Time of a fixed CPU load that does not involve hjhom: a host-speed probe.

    It mixes what the workloads spend their time on: small-array numpy
    stencils (the FD oracle), min-plus over a 2-d array (the metric DP) and
    byte-compiling Python (interpreter start and imports in set-up).
    """
    import numpy as np
    rng = np.random.default_rng(0)
    u = rng.random(12000)
    grid = rng.random((200, 200))
    t0 = time.perf_counter()
    for _ in range(600):
        up = np.pad(u, 1, mode="edge")
        lap = up[2:] - 2 * u + up[:-2]
        u = u - 1e-3 * np.cos(lap) * lap
    for _ in range(300):
        best = grid
        for shift in (1, 2, 3):
            best = np.minimum(best, np.roll(grid, shift, axis=0) + 0.1 * shift)
    for _ in range(15):
        compile(_REF_SOURCE, "<reference>", "exec")
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn_child(workload, config_path: str, out_dir: str, result_path: str,
                env: dict, extra: list) -> tuple[dict | None, str | None, float]:
    """Run child.py once: (its result, the problem if it failed, elapsed s)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload.name, "--config", config_path,
           "--out", out_dir, "--result", result_path] + extra
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        problem = None if proc.returncode == 0 else (
            f"child exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
    except subprocess.TimeoutExpired:
        problem = f"child timed out after {CHILD_TIMEOUT_S} s"
    res = None
    if problem is None and os.path.isfile(result_path):
        with open(result_path) as fh:
            res = json.load(fh)
    elif problem is None:
        problem = "child wrote no result"
    return res, problem, time.monotonic() - t0


def run_child(workload, config_path: str, work: str, index: int, traced: bool,
              env: dict, extra: list) -> dict:
    """One pipeline run followed by SETUP_PROBES set-up-only children."""
    out_dir = os.path.join(work, f"run{index}")
    res, problem, elapsed = spawn_child(
        workload, config_path, out_dir, os.path.join(work, f"run{index}.json"),
        env, ["--trace", str(int(traced))] + extra)
    if res is None:
        res = {"failures": [problem], "digests": {}, "accuracy": {}}
    res["elapsed_s"] = elapsed
    res["setup_probes_s"] = []
    for probe in range(SETUP_PROBES):
        out, problem, _ = spawn_child(
            workload, config_path, out_dir,
            os.path.join(work, f"run{index}.probe{probe}.json"), env, ["--setup-only"])
        if out is None:
            res["failures"].append(f"set-up probe: {problem}")
        else:
            res["setup_probes_s"].append(out["setup_s"])
    res["traced"] = traced
    if traced and os.path.isfile(os.path.join(out_dir, "trace.json")):
        res["trace_path"] = os.path.join(out_dir, "trace.json")
    return res


def mark_digest_mismatches(runs: list) -> None:
    """Byte-determinism: every run of the same inputs writes the same bytes."""
    keys = [json.dumps(r["digests"], sort_keys=True) for r in runs if not r["failures"]]
    if not keys:
        return
    reference = collections.Counter(keys).most_common(1)[0][0]
    for r in runs:
        if not r["failures"] and json.dumps(r["digests"], sort_keys=True) != reference:
            r["failures"].append("output digests differ from the other runs")


def median_of(runs: list, key: str) -> float:
    return statistics.median(r[key] for r in runs)


def usable_runs(runs: list, traced: bool) -> list:
    """Measured runs of one kind: those that passed every check, or all of
    them when none passed (a failing program still gets its times reported)."""
    measured = [r for r in runs if r["traced"] == traced and "wall_s" in r
                and (not traced or "layers" in r)]
    return [r for r in measured if not r["failures"]] or measured


def collect_metrics(runs: list, trace: bool) -> dict:
    """Medians over the usable runs; {} if a kind has none."""
    plain = usable_runs(runs, traced=False)
    traced = usable_runs(runs, traced=True)
    if not plain or (trace and not traced):
        return {}
    if not trace:
        return {"wall_s": median_of(plain, "wall_norm_s"),
                "setup_s": statistics.median(
                    v for r in plain for v in r["setup_norm_samples_s"]),
                "peak_rss_mb": median_of(plain, "peak_rss_mb"),
                "raw.wall_s": median_of(plain, "wall_s"),
                "raw.setup_s": statistics.median(
                    v for r in plain for v in r["setup_samples_s"]),
                "raw.reference_s": median_of(plain, "reference_s")}
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    for name in ("beta", "probe_ratio", "oracle_dev", "fd_dev", "hbar_dev"):
        out[f"accuracy.{name}"] = statistics.median(
            r["accuracy"].get(name, 0.0) for r in traced)
    # host-normalised like wall_s, so host drift between the runs cancels
    out["trace.overhead_s"] = (median_of(traced, "wall_norm_s")
                               - median_of(plain, "wall_norm_s"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and waits for the child,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "hjhom", "__init__.py")):
        print(f"no hjhom sources under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    env_record = environment()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_ROOT, "work", f"{tag}-{os.getpid()}")
    os.makedirs(work)
    config_path = os.path.join(work, "workload.cfg")
    with open(config_path, "w") as fh:
        fh.write(workload.config_text(args.seed))

    env = child_env()
    runs: list[dict] = []
    start = time.monotonic()
    try:
        # Each vCPU of a shared host slows down on its own, so the children
        # and the reference loop all start on one vCPU: the one whose warm-up
        # loop ran fastest (the very first call pays one-off costs and is
        # dropped).  The child's main thread, which does most of the work,
        # stays there; threads it starts after set-up may use pool_cpus.
        available = sorted(os.sched_getaffinity(0))
        _reference_loop()
        warm = {cpu: reference_s(cpu) for cpu in available}
        main_cpu = min(warm, key=warm.get)
        pool_cpus = [main_cpu] + [c for c in available if c != main_cpu][
            :workload.threads - 1]
        os.sched_setaffinity(0, {main_cpu})
        env_record.update(main_cpu=main_cpu, pool_cpus=pool_cpus)
        extra = ["--cpus", ",".join(map(str, pool_cpus))]
        ref_before = reference_s(main_cpu)
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            run = run_child(workload, config_path, work, len(runs), traced, env,
                            extra)
            ref_after = reference_s(main_cpu)
            run["reference_s"] = (ref_before + ref_after) / 2
            scale = REF_NOMINAL_S / run["reference_s"]
            if "wall_s" in run:
                run["wall_norm_s"] = run["wall_s"] * scale
            run["setup_samples_s"] = (
                [run["setup_s"]] if "setup_s" in run else []) + run["setup_probes_s"]
            run["setup_norm_samples_s"] = [v * scale for v in run["setup_samples_s"]]
            runs.append(run)
            ref_before = ref_after
            elapsed = time.monotonic() - start
            per_kind = collections.Counter(r["traced"] for r in runs)
            enough = all(per_kind[kind] >= MIN_RUNS
                         for kind in ((False, True) if args.trace else (False,)))
            # stop once another run (with its reference loop) would end more
            # than half a run past the deadline
            typical = elapsed / len(runs)
            if (enough and elapsed + typical / 2 >= args.seconds) \
                    or elapsed >= RUN_LIMIT_S:
                break
        mark_digest_mismatches(runs)
        failed = sum(1 for r in runs if r["failures"])
        values = collect_metrics(runs, bool(args.trace))

        results_dir = os.path.join(OUT_ROOT, "results")
        os.makedirs(results_dir, exist_ok=True)
        trace_dumps = [r["trace_path"] for r in runs if "trace_path" in r]
        if trace_dumps:
            shutil.copyfile(trace_dumps[-1], os.path.join(results_dir, f"{tag}.spans.json"))
        record = {"workload": workload.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "config": workload.config_text(args.seed),
                  "environment": env_record, "runs": runs, "metrics": values}
        with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in runs:
        for problem in r["failures"]:
            print(f"FAILED run: {problem.strip()}", file=sys.stderr)
    if not values:
        print("no run was measured; no metrics to report", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics in BENCHMARK.json not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"# environment {json.dumps(env_record, sort_keys=True)}")
    print(f"# workload {workload.name} seed {args.seed}: {len(runs)} runs, "
          f"fail_frac {failed / len(runs):.4g} ({failed}/{len(runs)})")
    if not args.trace:
        print("# raw medians: " + ", ".join(
            f"{k[4:]} {values[k]:.6g} s" for k in sorted(values) if k.startswith("raw.")))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
