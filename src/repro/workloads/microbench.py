"""The artifact's three microbenchmark applications.

* :func:`basic_app` — ``basic <keylen> <vallen> <iters>``: timed put,
  barrier(SSTABLE), and get phases (Figures 6, 7, 8);
* :func:`workload_app` — ``workload <keylen> <vallen> <iters> <update%>``:
  an init phase then a mixed read/update phase under sequential
  consistency (Figures 9, 11);
* :func:`cr_app` — ``cr <keylen> <vallen> <iters> <path> c|r``:
  checkpoint, restart, and restart-with-redistribution (Figure 10).

All timings are virtual seconds from the rank's clock; phases are
bracketed by collective barriers so per-rank durations are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import config
from repro.config import Options
from repro.core.env import Papyrus
from repro.mpi.launcher import RankContext
from repro.workloads.generators import KeyGenerator, rank_seed, value_of_size


@dataclass
class BasicResult:
    """Per-rank outcome of one ``basic`` run."""

    rank: int
    iters: int
    keylen: int
    vallen: int
    put_time: float
    barrier_time: float
    get_time: float
    get_tiers: Dict[str, int] = field(default_factory=dict)


def basic_app(
    ctx: RankContext,
    keylen: int,
    vallen: int,
    iters: int,
    options: Optional[Options] = None,
    repository: str = "nvm",
    seed: int = 1,
    skip_barrier: bool = False,
) -> BasicResult:
    """One rank of the ``basic`` application."""
    options = options or Options()
    env = Papyrus(ctx, repository=repository)
    db = env.open("basic", options)
    gen = KeyGenerator(keylen, rank_seed(seed, ctx.world_rank))
    keys = gen.keys(iters)
    value = value_of_size(vallen)

    db.coll_comm.barrier()
    t0 = ctx.clock.now
    for k in keys:
        db.put(k, value)
    put_time = ctx.clock.now - t0

    t0 = ctx.clock.now
    if not skip_barrier:
        db.barrier(config.SSTABLE)
    barrier_time = ctx.clock.now - t0

    t0 = ctx.clock.now
    for k in keys:
        db.get(k)
    get_time = ctx.clock.now - t0

    result = BasicResult(
        rank=ctx.world_rank, iters=iters, keylen=keylen, vallen=vallen,
        put_time=put_time, barrier_time=barrier_time, get_time=get_time,
        get_tiers=dict(db.stats.get_tiers),
    )
    db.close()
    env.finalize()
    return result


@dataclass
class WorkloadResult:
    """Per-rank outcome of one ``workload`` run."""

    rank: int
    iters: int
    keylen: int
    vallen: int
    init_time: float
    mixed_time: float
    reads: int
    updates: int


def workload_app(
    ctx: RankContext,
    keylen: int,
    vallen: int,
    iters: int,
    update_pct: int,
    options: Optional[Options] = None,
    repository: str = "nvm",
    seed: int = 2,
    protect_readonly: bool = False,
) -> WorkloadResult:
    """One rank of the ``workload`` application (sequential consistency).

    ``update_pct`` follows the artifact (``workload ... 50`` = 50/50;
    ``0`` = read-only).  ``protect_readonly`` reproduces the ``100/0+P``
    configuration: the read phase runs under ``PAPYRUSKV_RDONLY`` so the
    remote cache activates.
    """
    options = (options or Options()).with_(consistency=config.SEQUENTIAL)
    env = Papyrus(ctx, repository=repository)
    db = env.open("workload", options)
    gen = KeyGenerator(keylen, rank_seed(seed, ctx.world_rank))
    keys = gen.keys(iters)
    value = value_of_size(vallen)

    db.coll_comm.barrier()
    t0 = ctx.clock.now
    for k in keys:
        db.put(k, value)
    db.barrier(config.MEMTABLE)
    init_time = ctx.clock.now - t0

    if protect_readonly:
        db.protect(config.RDONLY)
    rng = random.Random(rank_seed(seed + 99, ctx.world_rank))
    reads = updates = 0
    t0 = ctx.clock.now
    for i in range(iters):
        k = keys[rng.randrange(len(keys))]
        if rng.randrange(100) < update_pct and not protect_readonly:
            db.put(k, value)
            updates += 1
        else:
            db.get(k)
            reads += 1
    mixed_time = ctx.clock.now - t0
    if protect_readonly:
        db.protect(config.RDWR)

    result = WorkloadResult(
        rank=ctx.world_rank, iters=iters, keylen=keylen, vallen=vallen,
        init_time=init_time, mixed_time=mixed_time,
        reads=reads, updates=updates,
    )
    db.close()
    env.finalize()
    return result


@dataclass
class CrResult:
    """Per-rank outcome of the coupled checkpoint/restart applications."""

    rank: int
    iters: int
    keylen: int
    vallen: int
    checkpoint_time: float
    restart_time: float
    restart_rd_time: float


def cr_app(
    ctx: RankContext,
    keylen: int,
    vallen: int,
    iters: int,
    options: Optional[Options] = None,
    seed: int = 3,
    snapshot: str = "crsnap",
) -> CrResult:
    """The three coupled ``cr`` applications in sequence (Figure 10).

    App 1 populates a database and checkpoints it to the parallel FS;
    app 2 restarts it as-is; app 3 restarts it with forced
    redistribution ("even though the last application does not need a
    redistribution, we forced it for the evaluation").
    """
    options = options or Options()
    env = Papyrus(ctx)
    db = env.open("cr", options)
    gen = KeyGenerator(keylen, rank_seed(seed, ctx.world_rank))
    value = value_of_size(vallen)
    for k in gen.keys(iters):
        db.put(k, value)
    db.barrier(config.MEMTABLE)

    t0 = ctx.clock.now
    ev = db.checkpoint(snapshot)
    ev.wait(ctx.clock)
    db.coll_comm.barrier()
    checkpoint_time = ctx.clock.now - t0
    db.destroy().wait(ctx.clock)

    t0 = ctx.clock.now
    db2, ev2 = env.restart(snapshot, "cr", options)
    ev2.wait(ctx.clock)
    db2.coll_comm.barrier()
    restart_time = ctx.clock.now - t0
    db2.destroy().wait(ctx.clock)

    t0 = ctx.clock.now
    db3, ev3 = env.restart(snapshot, "cr", options, force_redistribute=True)
    ev3.wait(ctx.clock)
    db3.coll_comm.barrier()
    restart_rd_time = ctx.clock.now - t0

    result = CrResult(
        rank=ctx.world_rank, iters=iters, keylen=keylen, vallen=vallen,
        checkpoint_time=checkpoint_time, restart_time=restart_time,
        restart_rd_time=restart_rd_time,
    )
    db3.close()
    env.finalize()
    return result
