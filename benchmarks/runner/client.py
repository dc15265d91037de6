"""Drive one workload against the public ``Papyrus``/``Database`` API.

One :func:`run_once` is one set-up plus one timed phase plus the untimed
correctness checks, on ``NPROC`` simulated ranks of the ``SUMMITDEV``
profile.  The rank threads are the only load generators: a closed loop
with one outstanding operation per rank.  Everything is observed from
outside -- the runner's own clocks around each public call, the store's
public counters before and after, and (traced runs only) the wrappers
of :mod:`benchmarks.runner.tracing`.
"""

from __future__ import annotations

import os
import resource
import threading
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List

from repro import SSTABLE, SUMMITDEV, Options, Papyrus, spmd_run
from repro.metrics import machine_metrics
from repro.nvm.storage import Machine
from repro.tools.trace import Tracer

from benchmarks.runner.gen import Op, Oracle, key_of, op_stream, verify_keys
from benchmarks.runner.spec import (
    INSERT, LATENCY_KIND, NPROC, READ, SCAN, VALUE_SIZE, Workload,
)

DB_NAME = "bench"
#: a rank that waits this long for its peer has lost it
SYNC_TIMEOUT_S = 150.0


@dataclass
class Measurement:
    """Raw observations of one run; :mod:`report` turns them into metrics."""

    setup_s: float = 0.0
    gen_wall_s: float = 0.0
    #: timed operations attempted / failed (raised or wrong answer)
    ops: int = 0
    failed: int = 0
    #: untimed read-back checks attempted / failed
    checks: int = 0
    check_failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: per rank: wall and virtual seconds of the timed phase
    rank_wall_s: List[float] = field(default_factory=list)
    rank_virt_s: List[float] = field(default_factory=list)
    #: CPU seconds the process (every thread) used in the timed phase
    cpu_s: float = 0.0
    #: seconds the hypervisor kept the CPU from us, in set-up and in
    #: the timed phase
    setup_steal_s: float = 0.0
    timed_steal_s: float = 0.0
    #: latency family -> seconds per op, both ranks pooled
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: front-end calls by op kind, pairs returned by scans
    kinds: Dict[str, int] = field(default_factory=dict)
    scan_pairs: int = 0
    #: ``db.metrics()`` per rank and ``machine_metrics()`` around the
    #: timed phase
    before: List[dict] = field(default_factory=list)
    after: List[dict] = field(default_factory=list)
    machine_before: dict = field(default_factory=dict)
    machine_after: dict = field(default_factory=dict)
    #: whole life of the database, for the amplification metrics
    user_bytes_put: int = 0
    live_user_bytes: int = 0
    disk_bytes: int = 0
    peak_rss_mb: float = 0.0
    #: traced runs: the SpanTracer, and the store's own virtual-time
    #: Tracer (for the handler lane)
    tracer: Any = None
    virt_spans: List[Any] = field(default_factory=list)
    t_zero: float = 0.0


def steal_seconds() -> float:
    """Seconds of involuntary wait (steal) so far on the CPUs this
    process may run on; 0.0 where the kernel does not say.

    The reference sandbox is a small virtual machine whose host now and
    then takes the CPU away for whole minutes (runs three times slower);
    stolen time is not time the store spent.
    """
    try:
        cpus = {f"cpu{n}" for n in os.sched_getaffinity(0)}
        with open("/proc/stat") as f:
            ticks = sum(int(line.split()[8]) for line in f
                        if line.split()[0] in cpus)
        return ticks / os.sysconf("SC_CLK_TCK")
    except (AttributeError, OSError, ValueError, IndexError):
        return 0.0


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass  # a compaction retired the file between walk and stat
    return total


class _Run:
    """State the rank threads of one run share."""

    def __init__(self, w: Workload, seed: int, ops: int, verify_keys_n: int,
                 preload: int, warmup_ops: int, tracer,
                 verify: bool) -> None:
        self.w = w
        self.seed = seed
        self.preload = preload
        self.verify_n = verify_keys_n
        self.tracer = tracer
        self.verify = verify
        self.options = Options(**w.options)
        self.oracle = Oracle()
        self.sync = threading.Barrier(NPROC, timeout=SYNC_TIMEOUT_S)
        self.m = Measurement(
            rank_wall_s=[0.0] * NPROC, rank_virt_s=[0.0] * NPROC,
            before=[{}] * NPROC, after=[{}] * NPROC, tracer=tracer,
        )
        self.lock = threading.Lock()
        t0 = time.perf_counter()
        self.warm = [op_stream(w, r, seed, "warmup", warmup_ops, preload)
                     for r in range(NPROC)]
        self.timed = [op_stream(w, r, seed, "timed", ops, preload)
                      for r in range(NPROC)]
        self.m.gen_wall_s = time.perf_counter() - t0
        self.t_ready = self.steal_ready = 0.0
        self.scan_total = [0] * NPROC

    # ------------------------------------------------------------ one rank
    def rank_main(self, ctx) -> None:
        try:
            self._rank(ctx)
        except BaseException:
            self.sync.abort()  # do not leave the peer waiting for us
            raise

    def _rank(self, ctx) -> None:
        w, me, oracle, sync, m = (
            self.w, ctx.world_rank, self.oracle, self.sync, self.m)
        with Papyrus(ctx) as env:
            db = env.open(DB_NAME, self.options)
            for _ in range(self.preload):
                db.put(*oracle.write(Op(INSERT, me, -1)))
            if self.preload:
                db.barrier(SSTABLE)
            self._settle(me)
            shard = self._shard(db, me) if w.mix[3] else []
            if w.warmup:
                self._issue(db, me, self.warm[me], shard, None, record=False)
            db.barrier()  # also lines the ranks' virtual clocks up
            self._settle(me)
            if w.mix[3]:
                shard = self._shard(db, me)
            if sync.wait() == 0:
                self.t_ready = time.perf_counter()
                self.steal_ready = steal_seconds()

            # ------------------------------------------------ timed phase
            tracer = self.tracer
            if tracer is not None:
                virt = Tracer(capacity=4_000_000)
                db.attach_tracer(virt)
                if me == 0:
                    tracer.install()
            m.before[me] = db.metrics()
            if me == 0:
                m.machine_before = machine_metrics(ctx.machine)
            sync.wait()
            t_start = time.perf_counter()
            v_start = ctx.clock.now
            if me == 0:
                m.t_zero = t_start
                cpu0, steal0 = time.process_time(), steal_seconds()
            self._issue(db, me, self.timed[me], shard, tracer, record=True)
            if w.closing is not None:
                token = tracer.begin("op.barrier") if tracer else None
                db.barrier(SSTABLE if w.closing == "sstable" else 0)
                if token:
                    tracer.end(token)
            m.rank_wall_s[me] = time.perf_counter() - t_start
            m.rank_virt_s[me] = ctx.clock.now - v_start
            sync.wait()
            if me == 0:
                m.cpu_s = time.process_time() - cpu0
                m.timed_steal_s = steal_seconds() - steal0
            if tracer is not None:
                if me == 0:
                    tracer.uninstall()
                db.attach_tracer(None)
                with self.lock:
                    m.virt_spans.extend(virt.spans())
            m.after[me] = db.metrics()
            if me == 0:
                m.machine_after = machine_metrics(ctx.machine)
                m.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
                m.disk_bytes = _dir_bytes(ctx.machine.base_dir)
            self._settle(me)

            # ------------------------------------- untimed correctness
            if self.verify:
                db = self._verify(env, db, me)
            db.close()

    def _settle(self, me: int) -> None:
        """Every write so far is visible everywhere (call after a
        barrier): move the oracle's lower bound up."""
        self.sync.wait()
        if me == 0:
            self.oracle.settle()
        self.sync.wait()

    def _shard(self, db, me: int) -> List[bytes]:
        """Sorted settled keys this rank owns: what its scans walk."""
        keys = (key_of(ns, i) for ns in range(NPROC)
                for i in range(len(self.oracle.floor[ns])))
        return sorted(k for k in keys if db.owner_of(k) == me)

    def _issue(self, db, me: int, ops: List[Op], shard: List[bytes], tracer,
               record: bool) -> None:
        """The closed loop: one operation at a time, each timed around
        the public call and checked against the oracle."""
        oracle = self.oracle
        clock = time.perf_counter
        lat: Dict[str, List[float]] = {"read": [], "write": [], "scan": []}
        kinds: Dict[str, int] = {}
        failed = pairs_total = 0
        errors: List[str] = []
        for op in ops:
            kind = op.kind
            token = tracer.begin("op." + kind) if tracer else None
            t0 = t1 = 0.0
            try:
                if kind == READ:
                    key = key_of(op.ns, op.idx)
                    t0 = clock()
                    value = db.get_or_none(key)
                    t1 = clock()
                    ok = oracle.read_ok(me, op.ns, op.idx, value)
                elif kind == SCAN:
                    start = key_of(op.ns, op.idx)
                    t0 = clock()
                    with db.scan(start=start) as it:
                        pairs = list(islice(it, op.n))
                    t1 = clock()
                    pairs_total += len(pairs)
                    ok = oracle.scan_ok(me, shard, start, op.n, pairs)
                else:
                    key, value = oracle.write(op)
                    t0 = clock()
                    db.put(key, value)
                    t1 = clock()
                    ok = True
            except Exception as exc:  # the loop must outlive a failed op
                ok = False
                errors.append(f"rank {me} {op}: {exc!r}")
                del errors[5:]
            finally:
                if token:
                    tracer.end(token)
            if ok:
                lat[LATENCY_KIND[kind]].append(t1 - t0)
            else:
                failed += 1
                errors.append(f"rank {me} {op}: failed or wrong answer")
                del errors[5:]
            kinds[kind] = kinds.get(kind, 0) + 1
        if not record:
            if failed:
                raise RuntimeError(f"warm-up failed: {errors}")
            return
        m = self.m
        with self.lock:
            m.ops += len(ops)
            m.failed += failed
            m.errors.extend(errors[:5])
            m.scan_pairs += pairs_total
            for family, xs in lat.items():
                m.latencies.setdefault(family, []).extend(xs)
            for kind, n in kinds.items():
                m.kinds[kind] = m.kinds.get(kind, 0) + n

    def _verify(self, env, db, me: int):
        """Read back seeded keys of both namespaces against the oracle;
        for a load workload also close, re-open on the same machine
        (the zero-copy workflow) and account for every key written."""
        oracle, w = self.oracle, self.w
        sizes = [len(v) for v in oracle.versions]
        checks = bad = 0
        errors: List[str] = []
        for ns, idx in verify_keys(w, me, self.seed, self.verify_n, sizes):
            checks += 1
            if not oracle.read_ok(me, ns, idx,
                                  db.get_or_none(key_of(ns, idx))):
                bad += 1
                errors.append(f"rank {me}: read-back of {key_of(ns, idx)!r}")
        if w.reopen:
            db.close()
            db = env.open(DB_NAME, self.options)
            seen = 0
            with db.scan() as it:
                for key, value in it:
                    seen += 1
                    ns, idx = int(key[4:key.index(b":")]), int(key[-8:])
                    if not oracle.read_ok(me, ns, idx, value):
                        bad += 1
                        errors.append(f"rank {me}: {key!r} after re-open")
            self.scan_total[me] = seen
            self.sync.wait()
            if me == 0:
                # every key written is in exactly one rank's shard
                checks += sum(sizes)
                missing = sum(sizes) - sum(self.scan_total)
                if missing:
                    bad += abs(missing)
                    errors.append(f"{missing} keys missing after re-open")
        with self.lock:
            self.m.checks += checks
            self.m.check_failed += bad
            self.m.errors.extend(errors[:5])
        return db


def run_once(w: Workload, seed: int, workdir: str, *, ops: int,
             preload: int, warmup_ops: int, verify_keys_n: int,
             tracer=None, verify: bool = True) -> Measurement:
    """Set the database up in ``workdir``, run the timed phase and
    (if ``verify``) the read-back checks; ``workdir`` must not exist."""
    t0 = time.perf_counter()  # making the inputs is part of set-up
    steal0 = steal_seconds()
    run = _Run(w, seed, ops, verify_keys_n, preload, warmup_ops, tracer,
               verify)
    machine = Machine(SUMMITDEV, NPROC, base_dir=workdir)
    spmd_run(NPROC, run.rank_main, system=SUMMITDEV, machine=machine,
             timeout=170.0, collect=False)
    m = run.m
    m.setup_s = run.t_ready - t0
    m.setup_steal_s = run.steal_ready - steal0
    sizes = [len(v) for v in run.oracle.versions]
    key_len = len(key_of(0, 0))
    writes = sum(sizes) + sum(sum(v) for v in run.oracle.versions)
    m.user_bytes_put = writes * (key_len + VALUE_SIZE)
    m.live_user_bytes = sum(sizes) * (key_len + VALUE_SIZE)
    return m
