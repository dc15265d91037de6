"""SPMD launcher: run one Python thread per simulated MPI rank.

``spmd_run(nranks, main)`` mirrors ``mpiexec -n nranks python app.py``:
it builds a :class:`~repro.mpi.comm.World`, a per-rank
:class:`RankContext` (rank id, virtual clock, COMM_WORLD, machine
resources), and joins all ranks, re-raising the first failure.

PapyrusKV's internal service threads (message handler) also bind a
:class:`RankContext` so deep library code can always discover "its" rank
and clock through the thread-local registry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.faults import RankKilledError
from repro.simtime.clock import VirtualClock
from repro.simtime.profiles import SUMMITDEV, SystemProfile

if TYPE_CHECKING:  # comm reads the bound context through this module
    from repro.mpi.comm import Comm

_tls = threading.local()


@dataclass
class RankContext:
    """Everything a rank thread needs to run PapyrusKV code."""

    world_rank: int
    nranks: int
    clock: VirtualClock
    comm: Comm
    system: SystemProfile
    machine: Any = None  # repro.nvm.storage.Machine (set by the launcher)
    faults: Any = None  # repro.faults.FaultPlan (set by the launcher)
    #: scratch dict for application use (e.g. returning results)
    user: Dict[str, Any] = field(default_factory=dict)

    @property
    def node(self) -> int:
        return self.system.node_of_rank(self.world_rank)


def current_rank_context() -> RankContext:
    """Return the context bound to the calling thread."""
    ctx: Optional[RankContext] = getattr(_tls, "ctx", None)
    if ctx is None:
        raise RuntimeError(
            "no RankContext bound to this thread; run inside spmd_run() or "
            "bind_context()"
        )
    return ctx


def bind_context(ctx: Optional[RankContext]) -> None:
    """Bind (or unbind) a RankContext to the calling thread."""
    _tls.ctx = ctx


class RankFailure(RuntimeError):
    """One or more ranks raised; carries the per-rank exceptions."""

    def __init__(self, failures: List[Tuple[int, BaseException]]) -> None:
        self.failures = failures
        lines = ", ".join(f"rank {r}: {e!r}" for r, e in failures[:4])
        extra = "" if len(failures) <= 4 else f" (+{len(failures) - 4} more)"
        super().__init__(f"SPMD ranks failed: {lines}{extra}")


def spmd_run(
    nranks: int,
    main: Callable[[RankContext], Any],
    *,
    system: SystemProfile = SUMMITDEV,
    machine: Any = None,
    faults: Any = None,
    timeout: Optional[float] = 300.0,
    collect: bool = True,
) -> List[Any]:
    """Run ``main(ctx)`` on ``nranks`` simulated ranks; return their results.

    Parameters
    ----------
    system: platform profile controlling topology and cost model.
    machine: optional pre-built :class:`repro.nvm.storage.Machine`;
        by default one is created for this run (in a temp directory).
    faults: optional :class:`repro.faults.FaultPlan` injected into the
        run's stores and message layer for this run only.
    timeout: wall-clock seconds to wait for completion before aborting.
    collect: if True, return the list of per-rank return values.

    A rank killed by ``FaultPlan.kill_rank`` is not a run failure: its
    result slot stays ``None`` and the remaining ranks run to completion
    (that is what replication-recovery tests exercise).
    """
    if nranks <= 0:
        raise ValueError("nranks must be positive")
    from repro.analysis.runtime import get_detector, maybe_enable_from_env
    from repro.mpi.comm import Comm, World

    det = maybe_enable_from_env()
    if det is not None:
        det.run_start()  # drop per-run location/barrier state
    world = World(nranks, system.network, system.node_of_rank)
    comms = Comm.world_comm(world)

    own_machine = machine is None
    if own_machine:
        from repro.nvm.storage import Machine

        machine = Machine(system, nranks)
    if faults is not None:
        world.faults = faults
        machine.set_faults(faults)

    results: List[Any] = [None] * nranks
    failures: List[Tuple[int, BaseException]] = []
    failures_lock = threading.Lock()

    def runner(rank: int) -> None:
        ctx = RankContext(
            world_rank=rank,
            nranks=nranks,
            clock=world.clocks[rank],
            comm=comms[rank],
            system=system,
            machine=machine,
            faults=faults,
        )
        bind_context(ctx)
        try:
            results[rank] = main(ctx)
        except RankKilledError:
            # an injected rank kill is not a run failure: the victim is
            # simply gone (results[rank] stays None) and the surviving
            # ranks keep running — do NOT abort the world
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            with failures_lock:
                failures.append((rank, exc))
            world.abort()
        finally:
            d = get_detector()
            if d is not None:
                d.finalize_thread()  # publish clock for the join edge
            bind_context(None)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"spmd-rank-{r}",
                         daemon=True)
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    deadline_hit = False
    for t in threads:
        t.join(timeout)
        if t.is_alive():
            deadline_hit = True
            world.abort()
            t.join(10.0)
        if not t.is_alive():
            d = get_detector()
            if d is not None:
                d.absorb_thread(t)  # join HB edge into the launcher
    if own_machine:
        machine.close()
    elif faults is not None:
        machine.set_faults(None)  # don't leak this run's plan into the next
    if failures:
        failures.sort(key=lambda f: f[0])
        raise RankFailure(failures)
    if deadline_hit:
        raise TimeoutError(f"spmd_run exceeded {timeout}s wall-clock")
    return results if collect else []
