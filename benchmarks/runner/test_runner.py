"""Self-tests of the benchmark runner.

Run with ``python -m pytest benchmarks/runner``; not part of tier-1
(``pyproject.toml`` collects ``tests/`` only).
"""

import json
import os
import re
import subprocess
import sys
import threading
import time

import pytest

from benchmarks.runner import spec
from benchmarks.runner.gen import (
    Op, Oracle, key_of, op_stream, parse_value,
)
from benchmarks.runner.tracing import SpanTracer, rollup

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _runner(*args, timeout=170):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.runner", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=timeout)


def _replay(w, seed):
    """Both ranks' streams applied to an oracle with no store behind it."""
    oracle = Oracle()
    streams = []
    records = 50 if w.preload else 0
    for rank in range(spec.NPROC):
        for _ in range(records):
            oracle.write(_insert(rank))
    for rank in range(spec.NPROC):
        ops = op_stream(w, rank, seed, "timed", 300, records)
        streams.append(ops)
        for op in ops:
            if op.kind in (spec.UPDATE, spec.INSERT):
                oracle.write(op)
    return streams, oracle.versions


def _insert(rank):
    return Op(spec.INSERT, rank, -1)


@pytest.mark.parametrize("w", spec.WORKLOADS, ids=lambda w: w.name)
def test_same_seed_same_stream_and_oracle(w):
    a_streams, a_versions = _replay(w, 7)
    b_streams, b_versions = _replay(w, 7)
    assert a_streams == b_streams
    assert a_versions == b_versions
    c_streams, _ = _replay(w, 8)
    if w.preload:  # a load stream is inserts only, whatever the seed
        assert c_streams != a_streams


def test_values_name_their_write():
    oracle = Oracle()
    key, value = oracle.write(_insert(1))
    assert key == key_of(1, 0) and len(value) == spec.VALUE_SIZE
    assert parse_value(value) == (key, 0)
    assert oracle.read_ok(1, 1, 0, value)
    assert not oracle.read_ok(1, 1, 0, None)
    assert not oracle.read_ok(1, 1, 0, value[:-1] + b"x")
    _, newer = oracle.write(Op(spec.UPDATE, 1, 0))
    assert oracle.read_ok(1, 1, 0, newer)
    assert not oracle.read_ok(1, 1, 0, value)  # own reads are exact
    assert oracle.read_ok(0, 1, 0, value)      # the peer may lag ...
    oracle.settle()
    assert not oracle.read_ok(0, 1, 0, value)  # ... until a barrier


def test_span_self_time_arithmetic():
    tracer = SpanTracer()

    def leaf():
        time.sleep(0.02)

    leaf_t = tracer.wrap(leaf, "x.leaf", units=lambda a, r: 7)

    def parent():
        time.sleep(0.01)
        leaf_t()
        leaf_t()

    parent_t = tracer.wrap(parent, "x.parent")
    tracer.layer_of.update({"x.leaf": "L", "x.parent": "P"})
    thread = threading.Thread(target=parent_t, name="spmd-rank-0")
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    roll = rollup(tracer)
    leaf_a, parent_a = roll["names"]["x.leaf"], roll["names"]["x.parent"]
    assert leaf_a["calls"] == 2 and leaf_a["units"] == 14
    assert parent_a["with_children"] == 1 and leaf_a["with_children"] == 0
    assert leaf_a["self_s"] == pytest.approx(leaf_a["total_s"])
    assert parent_a["self_s"] == pytest.approx(
        parent_a["total_s"] - leaf_a["total_s"])
    assert parent_a["self_s"] >= 0.009
    assert roll["layers"]["P"]["rank"] == pytest.approx(parent_a["self_s"])
    # self times of a tree add up to its root's duration
    assert sum(a["self_s"] for a in roll["names"].values()) == \
        pytest.approx(parent_a["total_s"])
    parents = {s[0]: s[1] for s in tracer.spans}
    root = [sid for sid, p in parents.items() if p == 0]
    assert len(root) == 1
    assert all(p == root[0] for sid, p in parents.items() if sid != root[0])


def test_handler_self_time_is_gap_minus_inner_spans():
    tracer = SpanTracer()
    recv = tracer.wrap(lambda: time.sleep(0.01), "mpi.comm.Comm.recv")
    work = tracer.wrap(lambda: time.sleep(0.02), "core.memtable.MemTable.put")

    def handler():
        recv()
        work()
        time.sleep(0.03)  # the handler's own code
        recv()

    thread = threading.Thread(target=handler, name="pkv-handler-bench-r0")
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    h = rollup(tracer)["handler"]
    assert 0.05 <= h["busy_s"] < 0.2
    assert 0.03 <= h["self_s"] < h["busy_s"] - 0.019


def test_benchmark_json_is_the_spec_and_within_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        text = f.read()
    doc = json.loads(text)
    assert doc == spec.benchmark_json()
    assert len(text) <= 64 * 1024
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_one_run_prints_the_contract_line(trace):
    proc = _runner("--workload", "ycsb_e", "--seed", "3", "--seconds", "10",
                   "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(doc["metrics"]) == [m[0] for m in wanted]
    for m in wanted:
        got = doc["metrics"][m[0]]
        assert set(got) == {"value", "unit"} and got["unit"] == m[1]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_quick_matrix_runs_all_five_under_30s():
    t0 = time.perf_counter()
    proc = _runner("--quick")
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 30, elapsed
    emitted = set()
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            emitted.add(line[3:].split(":")[0])
        elif line.startswith("  "):
            emitted.add(line.split()[0])
    known = {w.name for w in spec.WORKLOADS} \
        | {m[0] for m in spec.END_TO_END + spec.PER_LAYER}
    for w in spec.WORKLOADS:
        assert w.name in emitted
    assert emitted <= known, emitted - known
    assert all(NAME.match(n) for n in emitted)
    assert known <= emitted, known - emitted
    assert "ERROR" not in proc.stdout
