"""Alternating pairs: workloads, a revision against the working tree.

``python -m benchmarks.pair --rev HEAD~1 --workload ycsb_a --runs 10``
exports ``--rev`` into a temporary directory (``git archive``, so the
repository gains no worktree or ref) and runs

    python3 -m benchmarks.runner --workload W --seed S --seconds 10 --trace 0

``--runs`` times on each side, alternating — the revision first in even
pairs, the working tree first in odd ones — so drift of the machine
lands on both sides alike.  ``--workload`` takes a comma-separated list
or ``all``.  For every workload and every end-to-end metric of
``BENCHMARK.json`` it prints each side's median [q1, q3], the pairs the
working tree won (strictly better in that pair), the ratio of the
medians (working tree / revision) and a verdict (:func:`verdict`), plus
each side's failed operations; then every run's value.
Both sides run under the same launcher, ``python3`` from ``PATH``, as
the benchmark's own command does (``peak_rss_mb`` depends on it).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]


def export(rev: str, dest: Path) -> None:
    """The tree of ``rev`` into ``dest``."""
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)


def run_once(tree: Path, workload: str, seed: int,
             seconds: float) -> Dict:
    """One untraced runner invocation in ``tree``: its last JSON line."""
    cmd = ["python3", "-m", "benchmarks.runner", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(xs: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of ``xs``."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(base: Sequence[float], head: Sequence[float], lower: bool,
            bound: float) -> str:
    """What the pairs ``zip(base, head)`` say about one metric.

    ``gain``: the working tree is strictly better in at least nine
    tenths of the pairs, and the medians differ by more than the
    revision's q3 - q1.  ``loss``: the same test the other way, or the
    working tree's median is worse than the revision's by more than
    ``bound`` (a fraction of the revision's median).  ``unresolved``:
    the revision's q3 - q1 is wider than ``bound`` of its median, so no
    change within the bound can be told from noise.  ``same``:
    anything else.
    """
    pairs = list(zip(base, head))
    wins = sum((h < b) if lower else (h > b) for b, h in pairs)
    losses = sum((h > b) if lower else (h < b) for b, h in pairs)
    (bq1, bm, bq3), (_, hm, _) = quartiles(base), quartiles(head)
    spread = bq3 - bq1
    better = (bm - hm) if lower else (hm - bm)
    if wins * 10 >= 9 * len(pairs) and better > spread:
        return "gain"
    if (losses * 10 >= 9 * len(pairs) and -better > spread) or (
            -better > bound * abs(bm)):
        return "loss"
    if spread > bound * abs(bm):
        return "unresolved"
    return "same"


def _fmt(x: float) -> str:
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def table(metrics: List[Dict], base: List[Dict], head: List[Dict]) -> str:
    """The pair table: one row per end-to-end metric."""
    rows = ["| metric | revision median [q1, q3] | working tree median"
            " [q1, q3] | wins | ratio | verdict |",
            "|---|---|---|---|---|---|"]
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        (bq1, bm, bq3), (hq1, hm, hq3) = quartiles(b), quartiles(h)
        ratio = hm / bm if bm else float("nan")
        rows.append(f"| `{name}` | {_fmt(bm)} [{_fmt(bq1)}, {_fmt(bq3)}] |"
                    f" {_fmt(hm)} [{_fmt(hq1)}, {_fmt(hq3)}] |"
                    f" {wins}/{len(b)} | {ratio:.3f}x |"
                    f" {verdict(b, h, lower, spec['bound'])} |")
    rows.append(f"| failed ops | {sum(r['failed'] for r in base)} |"
                f" {sum(r['failed'] for r in head)} | | | |")
    return "\n".join(rows)


def runs(metrics: List[Dict], base: List[Dict], head: List[Dict]) -> str:
    """Every run's value, in run order: revision, then working tree."""
    lines = []
    for spec in metrics:
        name = spec["name"]
        for side, out in (("revision", base), ("working tree", head)):
            values = ", ".join(_fmt(r["metrics"][name]["value"])
                               for r in out)
            lines.append(f"{name} {side}: {values}")
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", required=True, help="revision to compare with")
    ap.add_argument("--workload", required=True,
                    help="a workload, a comma-separated list, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10, help="pairs to run")
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else args.workload.split(","))
    with tempfile.TemporaryDirectory(prefix="pkv-pair-") as tmp:
        tree = Path(tmp)
        export(args.rev, tree)
        for workload in workloads:
            base: List[Dict] = []
            head: List[Dict] = []
            for i in range(args.runs):
                order = [(tree, base), (ROOT, head)]
                for side, out in (order if i % 2 == 0 else order[::-1]):
                    out.append(run_once(side, workload, args.seed,
                                        args.seconds))
                print(f"{workload}: pair {i + 1}/{args.runs} done",
                      file=sys.stderr)
            print(f"{workload}, seed {args.seed}, {args.runs} pairs,"
                  f" {args.rev} vs the working tree")
            print(table(metrics, base, head))
            print(runs(metrics, base, head))
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
