"""cfpower benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload allocate-large-mr --seed 1 \\
        --seconds 20 --trace 0

Run it from the repository root; the package is imported from `src/`.
Workloads are listed in BENCHMARK.json with the reason each was chosen.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a traced run: there every unit runs once untraced and once with spans
recorded around cfpower's public functions, in alternating order, and the
two outputs must be identical. The last stdout line is the JSON result;
the lines before it print every figure by name and unit, and a copy with
the environment goes to `.bench_out/`.
"""

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# one process, one BLAS thread: steady timings on a shared machine, and
# never more threads than cores
BLAS_THREADS = 1
DEFAULT_SEED = 1
# set-up rounds that build the pool of units, and set-up rounds timed in all
POOL_ROUNDS = 3
SETUP_ROUNDS = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_info(np):
    """(name, version, threads) of the BLAS numpy runs on."""
    import ctypes
    import glob
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = int(fn())
                break
    return blas.get("name"), blas.get("version"), threads


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def _source_digest():
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cfpower")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".cfg")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(np, seed):
    name, version, threads = _blas_info(np)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": name, "blas_version": version, "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "git_commit": _git_commit(), "source_sha256": _source_digest(),
            "machine": platform.machine()}


def run_loop(wl, seconds, tracer):
    """Set the pool up in timed rounds, then run it in passes.

    Untraced, the passes go on until the timed calls add up to `seconds`,
    with at least two full passes and the workload's minimum number of
    executions. A unit's time is its fastest execution: a shared machine has
    slow phases lasting seconds to minutes, and the fastest of executions
    spread over the run is the figure they disturb least. For the same
    reason set-up is timed again between the executions, at evenly spaced
    points of the timed work, in rounds whose units are discarded. Traced,
    each unit runs once plain and once with spans, in alternating order,
    until both the pool and the workload's minimum number of plain
    executions are covered. Every execution of a unit must give the output
    of its first.

    Returns (set-up seconds per round, fastest seconds per unit, timed
    seconds, executions, tracing overhead as traced over plain time).
    """
    import tracing

    def setup_round():
        t0 = time.perf_counter()
        units = wl.setup(len(setups))
        setups.append(time.perf_counter() - t0)
        return units

    setups, pool = [], []
    for _ in range(POOL_ROUNDS):
        pool += setup_round()
    timings = POOL_ROUNDS if tracer else SETUP_ROUNDS
    best = [math.inf] * len(pool)
    first_out = [None] * len(pool)
    need = max((1 if tracer else 2) * len(pool), wl.min_executions)
    work_s = plain_s = traced_s = 0.0
    runs = 0
    for p in itertools.count():
        for j, item in enumerate(pool):
            # alternate which side runs first so cache warmth favours neither
            order = (False, True) if runs % 2 == 0 else (True, False)
            for traced in (order if tracer else (False,)):
                if traced:
                    tracer.begin_unit()
                    wl.trace_ctx = lambda: tracing.installed(tracer)
                dt, out = wl.step(item, p == 0 and not traced, not traced,
                                  f"t{p}" if traced else f"p{p}")
                wl.trace_ctx = contextlib.nullcontext
                work_s += dt
                if traced:
                    traced_s += dt
                else:
                    plain_s += dt
                    best[j] = min(best[j], dt)
                if p == 0 and first_out[j] is None:
                    first_out[j] = out
                elif out != first_out[j]:
                    wl.fail("a unit gave a different output on a later "
                            "execution" + (" with tracing" if traced else ""))
            runs += 1
            while len(setups) < timings and work_s >= seconds * (
                    len(setups) - POOL_ROUNDS + 1) / (timings - POOL_ROUNDS):
                setup_round()
            if runs >= need and work_s >= seconds:
                overhead = traced_s / plain_s - 1.0 if tracer else 0.0
                return setups, best, plain_s, runs, overhead


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "cfpower")):
        print(f"error: no cfpower package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import numpy as np
    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS \
            or args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = environment(np, args.seed)
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print("error: more BLAS threads than cores", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"work-{args.workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setups, best, work_s, runs, overhead = run_loop(wl, args.seconds,
                                                        tracer)
        wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = wl.details()
    details["drops_per_s_mean"] = (runs * wl.work_per_unit() / work_s, "1/s")
    details["failed_frac"] = (wl.failed / max(wl.attempted, 1), "frac")
    details["units"] = (len(best), "count")
    details["executions"] = (runs, "count")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "drops_per_s": (len(best) * wl.work_per_unit() / sum(best),
                            "1/s"),
            "ok_frac": (max(0.0, 1.0 - details["failed_frac"][0]), "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        wanted = spec["end_to_end"]
    else:
        missing = tracing.missing_spans(tracer, wl.expected_spans)
        if missing:
            print("error: traced run recorded no call of "
                  + ", ".join(missing), file=sys.stderr)
            return 3
        values = tracing.per_layer_values(tracer)
        values["trace.overhead_pct"] = 100.0 * overhead
        for strategy in tracing.ALLOC_STRATEGIES:
            for q in (50, 90):
                key = tracing.alloc_metric(strategy, q)
                values[key] = details.get(key, (0.0,))[0]
        units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: (v, units_of[k]) for k, v in values.items()
                   if k in units_of}
        for level, label in ((2, "span"), (1, "module")):
            top, top_ms = tracing.top_self_time(tracer, level)
            details[f"largest_self_time_{label}"] = (f"{top}={top_ms:.3f}",
                                                     "ms/unit")
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        wanted = spec["per_layer"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        print("error: metrics disagree with BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(names))}", file=sys.stderr)
        return 3

    for name, (value, unit) in details.items():
        if name not in metrics:
            print(f"{args.workload} {name} {value} {unit}")
    for name in names:
        value, unit = metrics[name]
        print(f"{args.workload} {name} {value!r} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": wl.failed == 0, "attempted": wl.attempted,
              "failed": wl.failed,
              "metrics": {n: {"value": float(metrics[n][0]),
                              "unit": metrics[n][1]} for n in names}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "details": {k: v[0] for k, v in
                                           details.items()},
                   "failures": wl.failures, **result}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
