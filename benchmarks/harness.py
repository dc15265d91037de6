"""Shared benchmark harness.

Every ``bench_fig*.py`` reproduces one figure of the paper: it runs the
paper's workload on the simulated platforms, prints the same series the
figure plots (virtual-time KRPS / MBPS / seconds), asserts the figure's
qualitative *shape* (who wins, where the crossover falls), and appends
the numbers to ``benchmarks/results/`` for EXPERIMENTS.md.

Scaling note: the paper sweeps up to 4352 ranks and 10K iterations;
thread-based simulation scales those down (≤16 ranks, ≤200 iterations).
Shapes are driven by the device/network cost models, not rank count.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KB = 1024
MB = 1024 * KB


def aggregate_krps(results: Sequence, phase: str) -> float:
    """Aggregate kilo-requests/second: total ops over the slowest rank."""
    total_ops = sum(r.iters for r in results)
    t = max(getattr(r, f"{phase}_time") for r in results)
    return total_ops / t / 1e3 if t > 0 else float("inf")


def aggregate_mbps(results: Sequence, phase: str) -> float:
    """Aggregate MB/s moved during a phase."""
    total_bytes = sum(r.iters * (r.keylen + r.vallen) for r in results)
    t = max(getattr(r, f"{phase}_time") for r in results)
    return total_bytes / t / MB if t > 0 else float("inf")


def fmt_size(nbytes: int) -> str:
    if nbytes >= MB:
        return f"{nbytes // MB}MB"
    if nbytes >= KB:
        return f"{nbytes // KB}KB"
    return f"{nbytes}B"


class Report:
    """Collects rows, prints a table, and persists it under results/."""

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        self.name = name
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add(self, *values) -> None:
        self.rows.append([
            f"{v:.3f}" if isinstance(v, float) else str(v) for v in values
        ])

    def render(self) -> str:
        widths = [
            max(len(c), *(len(r[i]) for r in self.rows)) if self.rows
            else len(c)
            for i, c in enumerate(self.columns)
        ]
        def line(cells):
            return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

        out = [f"== {self.name} ==", line(self.columns),
               line(["-" * w for w in widths])]
        out.extend(line(r) for r in self.rows)
        return "\n".join(out)

    def emit(self) -> str:
        text = self.render()
        print("\n" + text)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(
            RESULTS_DIR, self.name.split()[0].lower() + ".txt"
        )
        with open(path, "w") as f:
            f.write(text + "\n")
        return text


def write_json(name: str, payload: Dict) -> str:
    """Persist a machine-readable benchmark result at the repo root.

    Regression harnesses (``bench_replication.py``) check their JSON in so
    a reviewer can diff before/after numbers; CI's quick mode overwrites
    the working copy but never commits it.  Returns the path written.
    """
    path = os.path.join(REPO_ROOT, name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def run_once(benchmark, fn: Callable[[], Dict]) -> Dict:
    """Run a whole simulated experiment once under pytest-benchmark.

    The benchmark fixture wall-times the simulation (useful to watch the
    harness itself); the returned dict carries the virtual-time metrics
    the paper reports.
    """
    box: Dict = {}

    def wrapper():
        box["result"] = fn()

    benchmark.pedantic(wrapper, rounds=1, iterations=1)
    return box["result"]
