"""Simulated MPI communicators.

Point-to-point messages traverse per-``(communicator, destination)``
mailboxes; matching follows MPI rules (source+tag, non-overtaking per
source).  Collectives rendezvous on a reusable barrier and synchronize
the participants' virtual clocks.

Distinct communicators have distinct mailbox spaces, so PapyrusKV's
internal dispatcher/handler traffic can never match an application
receive — the property real MPI guarantees via communicator contexts.
"""

from __future__ import annotations

import math
import threading
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional,
    Sequence, Set, Tuple,
)

from repro.analysis.runtime import get_detector, make_lock
from repro.faults import RankKilledError
from repro.mpi.launcher import current_rank_context
from repro.mpi.message import Envelope, payload_nbytes
from repro.simtime.clock import VirtualClock
from repro.simtime.profiles import NetworkProfile

if TYPE_CHECKING:
    from repro.faults import FaultPlan

ANY_SOURCE = -1
ANY_TAG = -1

#: intra-node messages go through shared memory: cheap and fast
_SHM_LATENCY_S = 3e-7
_SHM_BANDWIDTH_BPS = 8.0 * (1 << 30)


class AbortedError(RuntimeError):
    """The SPMD run was aborted because another rank failed."""


class _Waiter:
    """A blocked receiver: its match, its wake lock, the handed envelope."""

    __slots__ = ("source", "tag", "wake", "env")

    def __init__(self, source: int, tag: int) -> None:
        self.source = source
        self.tag = tag
        self.wake = threading.Lock()
        self.wake.acquire()
        self.env: Optional[Envelope] = None


def _matches(env: Envelope, source: int, tag: int) -> bool:
    return (source == ANY_SOURCE or env.source == source) and (
        tag == ANY_TAG or env.tag == tag
    )


class _Mailbox:
    """Incoming-message store for one (comm, rank).

    A receiver that finds no queued match registers a :class:`_Waiter`
    and sleeps on its own lock; :meth:`deliver` hands an envelope
    straight to the first waiter it matches and wakes that one only.  No
    queued envelope ever matches a registered waiter, so a receiver gets
    its matches in delivery order (non-overtaking per source and tag).
    """

    def __init__(self, abort_event: threading.Event) -> None:
        self._items: List[Envelope] = []
        self._waiters: List[_Waiter] = []
        self._lock = threading.Lock()
        self._abort = abort_event
        self._dead = False

    def wake_all(self) -> None:
        """Wake every blocked receiver empty-handed (abort or kill)."""
        with self._lock:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter.wake.release()

    def mark_dead(self) -> None:
        """The owning rank was killed: every blocked or future receive
        on this inbox raises :class:`~repro.faults.RankKilledError`, so
        the rank's handler thread unwinds without aborting the world."""
        self._dead = True  # take reads it under the lock wake_all takes
        self.wake_all()

    def deliver(self, env: Envelope) -> None:
        source, tag = env.source, env.tag
        with self._lock:
            for i, waiter in enumerate(self._waiters):
                if (waiter.source in (ANY_SOURCE, source)
                        and waiter.tag in (ANY_TAG, tag)):
                    del self._waiters[i]
                    waiter.env = env
                    waiter.wake.release()
                    return
            self._items.append(env)

    def _match_index(self, source: int, tag: int) -> Optional[int]:
        for i, env in enumerate(self._items):
            if _matches(env, source, tag):
                return i
        return None

    def _raise_if_closed(self) -> None:
        if self._dead:
            raise RankKilledError("rank killed by fault plan")
        if self._abort.is_set():
            raise AbortedError("SPMD run aborted")

    def take(self, source: int, tag: int, timeout: Optional[float]) -> Envelope:
        """Remove the first match, blocking once for up to ``timeout``
        seconds from the call (None: forever)."""
        with self._lock:
            self._raise_if_closed()
            idx = self._match_index(source, tag) if self._items else None
            if idx is not None:
                return self._items.pop(idx)
            waiter = _Waiter(source, tag)
            self._waiters.append(waiter)
        wait = -1 if timeout is None else timeout
        if waiter.wake.acquire(True, wait) and waiter.env is not None:
            return waiter.env
        with self._lock:
            if waiter.env is not None:  # handed over as the wait ran out
                return waiter.env
            if waiter in self._waiters:  # timed out, nothing handed over
                self._waiters.remove(waiter)
            self._raise_if_closed()
        raise TimeoutError(
            f"recv timed out waiting for source={source} tag={tag}"
        )

    def peek(self, source: int, tag: int) -> bool:
        if not self._items:  # an atomic read: an empty inbox takes no lock
            return False
        with self._lock:
            return self._match_index(source, tag) is not None


class _CollectiveState:
    """Per-communicator rendezvous state for collectives."""

    def __init__(self, size: int) -> None:
        self.barrier = threading.Barrier(size)
        self.lock = make_lock("comm.collective")
        # keyed by ("t", rank) / ("a2a", src, dst)-style tuples
        self.slots: Dict[Tuple[Any, ...], Any] = {}
        self.scratch: Any = None


class World:
    """Shared state of one SPMD run: mailboxes, clocks, topology.

    Each node owns two timed resources: an egress NIC (inter-node
    traffic) and a shared-memory bus (intra-node traffic).  Bulk
    transfers queue on them, so the congestion the paper attributes to
    relaxed-mode migration bursts emerges from the model.
    """

    def __init__(
        self,
        size: int,
        network: NetworkProfile,
        node_of_rank: Callable[[int], int],
    ) -> None:
        from repro.simtime.resources import TimedResource

        self.size = size
        self.network = network
        self.node_of_rank = node_of_rank
        self.clocks: List[VirtualClock] = [
            VirtualClock(label=f"rank{r}") for r in range(size)
        ]
        self._node_of = [node_of_rank(r) for r in range(size)]
        nnodes = max(self._node_of) + 1
        self._nics = [
            TimedResource(f"nic{n}", 0.0, network.bandwidth_Bps)
            for n in range(nnodes)
        ]
        self._shm_buses = [
            TimedResource(f"shm{n}", 0.0, _SHM_BANDWIDTH_BPS)
            for n in range(nnodes)
        ]
        self._next_comm_id = 0
        self._comm_lock = make_lock("world.comm")
        self._mailboxes: Dict[Tuple[int, int], _Mailbox] = {}
        self._mbx_lock = make_lock("world.mailboxes")
        self.abort_event = threading.Event()
        self._coll_states: List[_CollectiveState] = []
        self.faults: Optional["FaultPlan"] = None
        #: ranks killed by the fault plane; guarded by ``_mbx_lock``
        self._dead_ranks: Set[int] = set()

    def register_coll(self, coll: "_CollectiveState") -> "_CollectiveState":
        """Track a collective state so abort() can break its barrier."""
        with self._comm_lock:
            self._coll_states.append(coll)
        return coll

    def abort(self) -> None:
        """Wake every blocked rank with an error (failed-rank teardown)."""
        self.abort_event.set()
        with self._comm_lock:
            colls = list(self._coll_states)
        for coll in colls:
            coll.barrier.abort()
        with self._mbx_lock:
            boxes = list(self._mailboxes.values())
        for box in boxes:
            box.wake_all()

    def new_comm_id(self) -> int:
        """Allocate a fresh communicator context id."""
        with self._comm_lock:
            cid = self._next_comm_id
            self._next_comm_id += 1
            return cid

    def kill_rank(self, world_rank: int) -> None:
        """Take one rank out of the run without aborting the world.

        The rank's inboxes (present and future) go dead so its threads
        unwind with :class:`~repro.faults.RankKilledError`, its sends
        are suppressed, and messages addressed to it vanish — exactly
        the observable behaviour of a crashed MPI process to the
        survivors.
        """
        with self._mbx_lock:
            self._dead_ranks.add(world_rank)
            boxes = [b for (_, r), b in self._mailboxes.items()
                     if r == world_rank]
        for box in boxes:
            box.mark_dead()

    def is_dead(self, world_rank: int) -> bool:
        """True if the rank was killed by the fault plane."""
        with self._mbx_lock:
            return world_rank in self._dead_ranks

    def mailbox(self, comm_id: int, world_rank: int) -> _Mailbox:
        """The (lazily created) inbox of one rank on one communicator:
        a dict read is atomic, so the lock is taken only to create one."""
        key = (comm_id, world_rank)
        box = self._mailboxes.get(key)
        if box is not None:
            return box
        with self._mbx_lock:
            box = self._mailboxes.get(key)
            if box is None:
                box = self._mailboxes[key] = _Mailbox(self.abort_event)
                if world_rank in self._dead_ranks:
                    box._dead = True
            return box

    def transfer_complete(self, src: int, dst: int, t_send: float,
                          nbytes: int) -> float:
        """Arrival time of one message, queueing on the shared fabric.

        Intra-node messages reserve the source node's memory bus;
        inter-node messages reserve its egress NIC.  Concurrent bulk
        sends from one node therefore serialize at fabric bandwidth —
        the congestion effect the paper observes for relaxed-mode
        migration bursts (§5.2, Figure 7).
        """
        src_node = self._node_of[src]
        if src_node == self._node_of[dst]:
            end = self._shm_buses[src_node].access(t_send, nbytes)
            return end + _SHM_LATENCY_S
        end = self._nics[src_node].access(t_send, nbytes)
        return end + self.network.latency_s


class Comm:
    """A communicator over a subset of world ranks."""

    def __init__(self, world: World, group: Sequence[int], comm_id: int,
                 coll: _CollectiveState) -> None:
        self._world = world
        self._group = list(group)
        self._comm_id = comm_id
        self._coll = coll
        self._rank_of_world = {wr: i for i, wr in enumerate(self._group)}
        #: world rank -> its inbox on this communicator (boxes are never
        #: replaced: a dict read here saves the world's lookup)
        self._boxes: Dict[int, _Mailbox] = {}

    def _box(self, world_rank: int) -> _Mailbox:
        box = self._boxes.get(world_rank)
        if box is None:
            box = self._boxes[world_rank] = self._world.mailbox(
                self._comm_id, world_rank)
        return box

    # ----------------------------------------------------------- construction
    @classmethod
    def world_comm(cls, world: World) -> List["Comm"]:
        """Create the COMM_WORLD-equivalent for every rank."""
        cid = world.new_comm_id()
        coll = world.register_coll(_CollectiveState(world.size))
        group = list(range(world.size))
        return [cls(world, group, cid, coll) for _ in group]

    # -------------------------------------------------------------- properties
    @property
    def size(self) -> int:
        return len(self._group)

    @property
    def rank(self) -> int:
        return self._rank_of_world[current_rank_context().world_rank]

    def _post(self, obj: Any, src_w: int, dest: int, tag: int,
              t_send: float) -> float:
        """Size, time and deposit one message leaving at ``t_send``,
        consulting the fault plan if one is armed; returns its arrival.

        A dropped message still paid its clock/fabric charges on the
        sender side — the bytes left the NIC and vanished.  A duplicate
        is delivered as two distinct envelopes (the receiver must
        dedupe); a delay shifts only the virtual arrival time.
        """
        world = self._world
        dst_w = self._group[dest]
        nbytes = payload_nbytes(obj)
        arrival = world.transfer_complete(src_w, dst_w, t_send, nbytes)
        if world._dead_ranks and (
            world.is_dead(dst_w) or world.is_dead(src_w)
        ):
            # a dead rank neither sends nor receives: traffic to it
            # vanishes, traffic from its dying threads is suppressed
            return arrival
        env = Envelope(self._rank_of_world[src_w], dest, tag, obj, arrival,
                       nbytes)
        copies = 1
        plan = world.faults
        if plan is not None:
            action = plan.on_message(obj, src_w, dst_w)
            if action == "drop":
                return arrival
            if action == "duplicate":
                copies = 2
            elif isinstance(action, tuple) and action[0] == "delay":
                env.arrival += action[1]
        det = get_detector()
        if det is not None:
            det.on_send(env)  # attach the sender's clock (HB edge)
        box = self._box(dst_w)
        box.deliver(env)
        if copies == 2:
            box.deliver(env)
        return arrival

    # ------------------------------------------------------------------- p2p
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send: deposits the message and returns immediately."""
        if not 0 <= dest < len(self._group):
            raise ValueError(f"invalid destination rank {dest}")
        ctx = current_rank_context()
        t_send = ctx.clock.advance(self._world.network.sw_overhead_s)
        self._post(obj, ctx.world_rank, dest, tag, t_send)

    def send_at(self, obj: Any, dest: int, tag: int, t_send: float) -> float:
        """Send with an explicit virtual send time (background timelines).

        Used by the message dispatcher, whose work is charged to a
        background worker rather than the caller's clock.  Returns the
        message's arrival time at the destination.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        return self._post(obj, current_rank_context().world_rank, dest, tag,
                          t_send + self._world.network.sw_overhead_s)

    def fanout(self, payloads: Mapping[int, Any], tag: int = 0
               ) -> Dict[int, float]:
        """alltoallv-style personalized fan-out: one send per destination.

        The software send overhead is paid once for the whole batch
        instead of once per message — the amortization a coalescing
        message layer (or a real ``MPI_Alltoallv``) provides.  Each
        message still queues individually on the fabric, so transfer
        time and NIC contention are modelled exactly as with
        :meth:`send`.  Returns ``{dest: arrival time}``.
        """
        ctx = current_rank_context()
        t_send = ctx.clock.advance(self._world.network.sw_overhead_s)
        arrivals: Dict[int, float] = {}
        for dest in sorted(payloads):
            if not 0 <= dest < self.size:
                raise ValueError(f"invalid destination rank {dest}")
            arrivals[dest] = self._post(payloads[dest], ctx.world_rank, dest,
                                        tag, t_send)
        return arrivals

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: Optional[float] = None,
        status: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Blocking receive; advances the clock to the message arrival."""
        ctx = current_rank_context()
        env = self._box(ctx.world_rank).take(source, tag, timeout)
        det = get_detector()
        if det is not None:
            det.on_recv(env)
        clock = ctx.clock
        clock.advance(self._world.network.sw_overhead_s)
        clock.advance_to(env.arrival)
        if status is not None:
            status["source"] = env.source
            status["tag"] = env.tag
            status["nbytes"] = env.nbytes
            status["arrival"] = env.arrival
        return env.payload

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is already deliverable."""
        box = self._world.mailbox(self._comm_id,
                                  current_rank_context().world_rank)
        return box.peek(source, tag)

    # ------------------------------------------------------------ collectives
    def _tree_cost(self, nbytes: int) -> float:
        net = self._world.network
        steps = max(1, math.ceil(math.log2(max(2, self.size))))
        return steps * (net.latency_s + net.sw_overhead_s) + (
            nbytes / net.bandwidth_Bps
        )

    def _sync_clocks(self, extra: float) -> float:
        """Align all group clocks to max + extra; returns the new time."""
        coll = self._coll
        ctx = current_rank_context()
        me = self._rank_of_world[ctx.world_rank]
        clock = ctx.clock
        det = get_detector()
        if det is not None:
            det.on_barrier_arrive(coll)
        with coll.lock:
            coll.slots[("t", me)] = clock.now
        coll.barrier.wait()
        if det is not None:
            det.on_barrier_depart(coll)
        t_max = max(coll.slots[("t", r)] for r in range(self.size))
        t_new = t_max + extra
        clock.advance_to(t_new)
        coll.barrier.wait()  # everyone read before slots are reused
        if me == 0:
            with coll.lock:
                for r in range(self.size):
                    coll.slots.pop(("t", r), None)
        coll.barrier.wait()
        return t_new

    def barrier(self) -> float:
        """Collective barrier; returns the synchronized virtual time."""
        return self._sync_clocks(self._tree_cost(0))

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to every group member."""
        coll = self._coll
        me = self.rank
        if me == root:
            with coll.lock:
                coll.scratch = obj
        coll.barrier.wait()
        data = coll.scratch
        self._sync_clocks(self._tree_cost(payload_nbytes(data)))
        return data

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one value per rank at ``root`` (None elsewhere)."""
        coll = self._coll
        me = self.rank
        with coll.lock:
            coll.slots[("g", me)] = obj
        coll.barrier.wait()
        result = None
        total = sum(
            payload_nbytes(coll.slots[("g", r)]) for r in range(self.size)
        )
        if me == root:
            result = [coll.slots[("g", r)] for r in range(self.size)]
        self._sync_clocks(self._tree_cost(total))
        if me == root:
            with coll.lock:
                for r in range(self.size):
                    coll.slots.pop(("g", r), None)
        coll.barrier.wait()
        return result

    def allgather(self, obj: Any) -> List[Any]:
        """Gather one value per rank, delivered to every rank."""
        coll = self._coll
        me = self.rank
        with coll.lock:
            coll.slots[("ag", me)] = obj
        coll.barrier.wait()
        result = [coll.slots[("ag", r)] for r in range(self.size)]
        total = sum(payload_nbytes(x) for x in result)
        self._sync_clocks(self._tree_cost(total))
        if me == 0:
            with coll.lock:
                for r in range(self.size):
                    coll.slots.pop(("ag", r), None)
        coll.barrier.wait()
        return result

    def abort_world(self) -> None:
        """Abort the whole SPMD run (service-thread crash escalation)."""
        self._world.abort()

    def kill_world_rank(self, world_rank: int) -> None:
        """Mark one world rank dead (injected kill; the world survives)."""
        self._world.kill_rank(world_rank)

    # ------------------------------------------------------- comm management
    def dup(self) -> "Comm":
        """Collective duplicate with a fresh mailbox space.

        Every member receives an equivalent communicator object whose
        traffic is isolated from the parent's.
        """
        coll = self._coll
        me = self.rank
        if me == 0:
            # register outside coll.lock: register_coll takes world.comm,
            # which the canonical order puts BELOW comm.collective
            cid = self._world.new_comm_id()
            new_coll = self._world.register_coll(_CollectiveState(self.size))
            with coll.lock:
                coll.scratch = (cid, new_coll)
        coll.barrier.wait()
        cid, new_coll = coll.scratch
        coll.barrier.wait()
        return Comm(self._world, self._group, cid, new_coll)
