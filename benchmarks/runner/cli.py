"""The command: one run for the driver, or the whole matrix for a person.

``--workload W --seed N --seconds S --trace 0|1`` makes one run in this
process and prints, as the last line of standard output, the JSON object
``BENCHMARK.json``'s contract asks for.  Without ``--workload`` every
workload is run -- ``REPEATS`` untraced repeats and one traced pass, each
in a fresh subprocess of the form above -- and every metric is printed by
name with its unit as median [min, max].
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from benchmarks.runner import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK_DIR = os.path.join(HERE, ".work")
RESULTS_DIR = os.path.join(HERE, "results")

REPEATS = 3
QUICK_FACTOR = 1 / 20


# ------------------------------------------------------------------ one run
def _pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU.

    The interpreter lock lets only one thread compute at a time anyway.
    With two CPUs to choose from, where the kernel wakes each rank and
    handler thread decides how fast the lock changes hands, and that
    choice moved ``load_repl`` by +-20% from one process to the next.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool = False, trace_out: Optional[str] = None) -> dict:
    """One run in this process; returns the full details of it."""
    # imported here so that importing the CLI needs no store on the path
    from benchmarks.runner import client, report

    w = spec.WORKLOAD_BY_NAME[workload]
    _pin_to_one_cpu()
    size = QUICK_FACTOR if quick else 1.0
    ops = spec.scaled(w.ops, size * seconds / spec.RUN_SECONDS)
    sizes = dict(
        ops=ops,
        preload=spec.scaled(w.preload, size),
        warmup_ops=spec.scaled(ops, spec.WARMUP_FRAC) if w.warmup else 0,
        verify_keys_n=spec.scaled(spec.VERIFY_KEYS, size),
    )
    work = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    attempt = itertools.count()

    def fresh() -> str:
        return os.path.join(work, f"m{next(attempt)}")

    try:
        if trace:
            from benchmarks.runner.tracing import SpanTracer, write_chrome_trace

            # one round without the wrappers, in the same process, is
            # what the traced round's throughput is compared with
            plain = client.run_once(w, seed, fresh(), verify=False, **sizes)
            runs = [client.run_once(w, seed, fresh(), tracer=SpanTracer(),
                                    **sizes)]
            metrics = report.per_layer(
                runs[0], report.end_to_end(plain)["wall_ops_per_s"])
            for name in runs[0].tracer.missing:
                print(f"not traced (no such function): {name}",
                      file=sys.stderr)
            if trace_out:
                write_chrome_trace(runs[0].tracer, trace_out, runs[0].t_zero)
            units = {n: u for n, u, _ in spec.PER_LAYER}
        else:
            runs = [client.run_once(w, seed, fresh(),
                                    verify=i == w.rounds - 1, **sizes)
                    for i in range(w.rounds)]
            per_round = [report.end_to_end(m) for m in runs]
            metrics = {name: statistics.median(r[name] for r in per_round)
                       for name in per_round[0]}
            units = {n: u for n, u, _b, _ in spec.END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    latency = {}
    for family in ("read", "write", "scan"):
        xs = sorted(x for m in runs for x in m.latencies.get(family, ()))
        latency[family] = {
            "samples": len(xs),
            "p50_us": report.percentile(xs, 50) * 1e6,
            "p99_us": report.percentile(xs, 99) * 1e6,
            "max_us": xs[-1] * 1e6 if xs else 0.0,
        }
    failed = sum(m.failed + m.check_failed for m in runs)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick, "rounds": len(runs), **sizes,
        "correct": failed == 0,
        "attempted": sum(m.ops + m.checks for m in runs),
        "failed": failed,
        "errors": [e for m in runs for e in m.errors][:10],
        "timed_wall_s": sum(max(m.rank_wall_s) for m in runs),
        "steal_s": sum(m.setup_steal_s + m.timed_steal_s for m in runs),
        "latency": latency,
        "lsm": [report.lsm_counters(m) for m in runs],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def contract_line(details: dict) -> str:
    """The one JSON object the driver reads."""
    return json.dumps({k: details[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


# --------------------------------------------------------------- the matrix
def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    return out.stdout.strip() if out.returncode == 0 else "nogit"


def _child(workload: str, seed: int, seconds: float, trace: int,
           quick: bool, details_path: str,
           trace_out: Optional[str]) -> dict:
    cmd = [sys.executable, "-m", "benchmarks.runner",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--details", details_path]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if not os.path.exists(details_path):
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode} without a result:\n"
            f"{proc.stderr[-2000:]}")
    with open(details_path) as f:
        details = json.load(f)
    os.remove(details_path)
    return details


def _spread(values: List[float]) -> str:
    return (f"{statistics.median(values):14.4f} "
            f"[{min(values):.4f}, {max(values):.4f}]")


def run_matrix(workloads: List[str], seed: int, seconds: float,
               quick: bool) -> int:
    """Every workload: untraced repeats plus a traced pass; prints the
    table, writes the results file; returns the exit code."""
    commit = _commit()
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    os.makedirs(RESULTS_DIR, exist_ok=True)
    base = os.path.join(RESULTS_DIR, f"{commit}-{stamp}")
    repeats = 1 if quick else REPEATS
    env = {
        "commit": commit, "utc": stamp, "seed": seed, "nproc": spec.NPROC,
        "seconds": seconds, "quick": quick, "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.platform(), "cpus": os.cpu_count(),
        "switchinterval": sys.getswitchinterval(),
    }
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    results: Dict[str, dict] = {}
    failed_any = False
    for name in workloads:
        w = spec.WORKLOAD_BY_NAME[name]
        runs = [_child(name, seed, seconds, 0, quick, f"{base}.tmp.json",
                       None) for _ in range(repeats)]
        trace_path = f"{base}-{name}.trace.json"
        traced = _child(name, seed, seconds, 1, quick, f"{base}.tmp.json",
                        trace_path)
        print(f"\n== {name}: {w.why}")
        print(f" sizes per rank and round: preload={runs[0]['preload']} "
              f"ops={runs[0]['ops']} warmup={runs[0]['warmup_ops']}; "
              f"{runs[0]['rounds']} round(s), timed "
              f"{runs[0]['timed_wall_s']:.1f}s in all")
        print(f" end-to-end, {repeats} untraced repeat(s): "
              f"median [min, max]")
        for metric, unit, better, bound in spec.END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs]
            print(f"  {metric:<34}{_spread(values)} {unit}"
                  f"  ({better} is better, bound {bound})")
        for family in sorted(runs[0]["latency"]):
            n = runs[0]["latency"][family]["samples"]
            for p in ("p50_us", "p99_us"):
                # p99 needs ten samples beyond it
                if n >= (1000 if p == "p99_us" else 20):
                    values = [r["latency"][family][p] for r in runs]
                    print(f"  {'wall_' + family + '_' + p:<34}"
                          f"{_spread(values)} us  (n={n})")
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        print(f" failed: {failed} of {attempted} attempted (timed "
              f"operations plus read-back checks, all runs)")
        print(" per-layer, 1 traced pass:")
        for metric, unit, _better in spec.PER_LAYER:
            value = traced["metrics"][metric]["value"]
            print(f"  {metric:<38}{value:16.4f} {unit}")
        for r in runs + [traced]:
            for err in r["errors"]:
                print(f" ERROR {err}")
        failed_any |= failed > 0
        results[name] = {"untraced": runs, "traced": traced,
                         "trace_file": os.path.basename(trace_path)}
    with open(f"{base}.json", "w") as f:
        json.dump({"env": env, "workloads": results}, f, indent=1)
    print(f"\nresults: {os.path.relpath(base, ROOT)}.json")
    return 1 if failed_any else 0


# --------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m benchmarks.runner", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(spec.WORKLOAD_BY_NAME),
                    help="make one run of this workload in this process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                    help="length of the timed phase at the seed commit; "
                    "scales the timed op counts")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="1/20 of every size: a smoke test, not a result")
    ap.add_argument("--details", metavar="PATH",
                    help="also write the run's full details as JSON")
    ap.add_argument("--trace-out", metavar="PATH",
                    help="write the traced run's spans as a Chrome trace")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload is None:
        return run_matrix(list(spec.WORKLOAD_BY_NAME), args.seed,
                          args.seconds, args.quick)
    details = run_one(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.quick, args.trace_out)
    if args.details:
        with open(args.details, "w") as f:
            json.dump(details, f)
    for err in details["errors"]:
        print(f"ERROR {err}", file=sys.stderr)
    print(contract_line(details))
    return 0 if details["correct"] else 1
