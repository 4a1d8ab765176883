"""Set-up, timed loop, traced loop, checks and the result line."""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from run import THREAD_VARS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
IMPORT_REPEATS = 5
PREP_REPEATS = 3
MIN_TRACE_PAIRS = 2
IMPORT_PROBE = ("import time; t = time.perf_counter(); import carnot, carnot.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def time_import():
    """Seconds to import carnot in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def run_op(op, seed):
    """Run one operation; returns (seconds, outcome or None, error text or None)."""
    t0 = time.perf_counter()
    try:
        raw = op.call(seed)
    except Exception:  # an op that raises is counted as failed, the run goes on
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    return dt, op.collect(raw), None


def timed_loop(ops, seed, seconds, sub_seed):
    """Closed loop: ops back to back, a fresh sub-seed per repetition.

    After the first full pass, an op is started only if its mean time so
    far still fits before the deadline.
    """
    times = {op.name: [] for op in ops}
    results = []
    deadline = time.perf_counter() + seconds
    rep = 0
    while True:
        for op in ops:
            if rep > 0 and time.perf_counter() + statistics.fmean(times[op.name]) > deadline:
                return times, results
            dt, outcome, error = run_op(op, sub_seed(seed, op.name, rep))
            times[op.name].append(dt)
            results.append((op, rep, outcome, error))
        rep += 1


def traced_loop(ops, seed, seconds, sub_seed, tracer):
    """Pairs of (untraced, traced) passes over identical inputs.

    Returns the untraced and traced pass times, per traced pass the work
    counts, self times and span count, and every outcome.
    """
    seeds = {op.name: sub_seed(seed, op.name, 0) for op in ops}
    plain, traced, passes, results = [], [], [], []
    deadline = time.perf_counter() + seconds

    def one_pass(kind):
        wall = 0.0
        for op in ops:
            dt, outcome, error = run_op(op, seeds[op.name])
            wall += dt
            results.append((op, kind, outcome, error))
        return wall

    while True:
        t0 = time.perf_counter()
        plain.append(one_pass("untraced"))
        tracer.reset()
        tracer.install()
        try:
            traced.append(one_pass("traced"))
        finally:
            tracer.uninstall()
        passes.append((dict(tracer.counts), tracer.self_times(), len(tracer.spans)))
        pair = time.perf_counter() - t0
        if len(traced) >= MIN_TRACE_PAIRS and time.perf_counter() + pair > deadline:
            return plain, traced, passes, results


def check_results(results):
    """Check every outcome against its op's reference; returns failure lines."""
    refs = {}
    failures = []
    for op, tag, outcome, error in results:
        if error is None:
            if op.reference is not None and op.name not in refs:
                refs[op.name] = op.reference()
            error = op.check(outcome, refs.get(op.name))
        if error is not None:
            failures.append(f"{op.name} [{tag}]: {error.strip()}")
    return failures


def per_layer_metrics(spec, plain, traced, passes):
    counts, _, spans = passes[0]
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name.endswith(".self_s"):
            layer = name[:-len(".self_s")]
            value = statistics.median(p[1].get(layer, 0.0) for p in passes)
        elif name == "metrics.ball_contains.hit_ratio":
            pts = counts.get("metrics.ball_contains.points", 0)
            value = counts.get("metrics.ball_contains.hits", 0) / pts if pts else 0.0
        elif name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif name == "trace.spans":
            value = spans
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "carnot" / "__init__.py").is_file():
        print(f"error: no carnot package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    import_times = [time_import() for _ in range(IMPORT_REPEATS)]
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import carnot
    if Path(carnot.__file__).resolve().parent != SRC / "carnot":
        print(f"error: imported carnot from {carnot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS, sub_seed

    prep_times = []
    for _ in range(PREP_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(OUT_DIR, ignore_errors=True)
        OUT_DIR.mkdir()
        ops = WORKLOADS[args.workload](OUT_DIR)
        prep_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(prep_times)

    try:
        if args.trace:
            tracer = Tracer()
            plain, traced, passes, results = traced_loop(ops, args.seed, args.seconds,
                                                         sub_seed, tracer)
        else:
            times, results = timed_loop(ops, args.seed, args.seconds, sub_seed)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    failures = check_results(results)
    n_failed = len(failures)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "carnot_use_numba": _use_numba(), "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "config_digests": {op.name: op.config.digest for op in ops if op.config},
        "import_s": import_times, "prep_s": prep_times,
    }
    correct = not failures
    if args.trace:
        det = _determinism_failures(results, passes)
        correct = correct and not det
        failures += det
        metrics = per_layer_metrics(spec, plain, traced, passes)
        meta.update(untraced_pass_s=plain, traced_pass_s=traced,
                    missing_trace_targets=tracer.missing,
                    trace_counts=dict(sorted(passes[0][0].items())),
                    csv_sha256={op.name: hashlib.sha256(o.csv).hexdigest()
                                for op, _, o, _ in results if o is not None and o.csv})
    else:
        errs = {}
        for op, _, outcome, error in results:
            if error is None and op.est_error and op.est_error(outcome) is not None:
                errs.setdefault(op.name, []).append(op.est_error(outcome))
        wall_s = sum(statistics.fmean(t) for t in times.values())
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # mean over op types of the median per type, so that neither a
            # cut-off last pass nor the bimodal error bars of MC boxes (see
            # NOTES.md) move it; empty only if every op raised, a failure
            "est_error": (statistics.fmean(statistics.median(v) for v in errs.values())
                          if errs else 0.0),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        meta.update(op_time_s=times, op_est_error=errs)

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'ops':40s} {len(results)} count")
    print(f"{'ops_failed':40s} {n_failed} count")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": n_failed, "metrics": metrics}))
    return 0


def _use_numba():
    try:
        return bool(importlib.import_module("carnot._kernels").USE_NUMBA)
    except (ImportError, AttributeError):
        return None


def _determinism_failures(results, passes):
    """Same-seed passes must give identical counts and byte-identical CSVs."""
    out = []
    first_counts = passes[0][0]
    for i, (counts, _, _) in enumerate(passes[1:], start=2):
        if counts != first_counts:
            diff = sorted(k for k in set(counts) | set(first_counts)
                          if counts.get(k) != first_counts.get(k))
            out.append(f"determinism: traced pass {i} counts differ in {diff}")
    csvs = {}
    for op, tag, outcome, error in results:
        if outcome is not None and outcome.csv:
            csvs.setdefault(op.name, set()).add(outcome.csv)
    for name, variants in sorted(csvs.items()):
        if len(variants) > 1:
            out.append(f"determinism: {name} CSV differs across same-seed passes")
    return out
