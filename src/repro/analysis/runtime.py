"""Opt-in dynamic race, lock-order, and deadlock detection.

A single process-wide :class:`RaceDetector` (enabled via
``Options(race_detect=True)`` or ``PKV_RACE_DETECT=1``) drives three
checks over the threaded SPMD runtime:

* **data races** — a FastTrack-style vector-clock happens-before
  detector over explicitly annotated shared locations (MemTables, LRU
  caches, the SSTable-reader cache, ...).  Happens-before edges come
  from tracked lock release→acquire, ``Comm`` send→receive, collective
  barriers, thread join, and the publication of
  a value readers take without a lock (``annotate_publish`` →
  ``annotate_observe``: a database's read view);
* **lock-order violations** — every tracked acquisition is checked
  against the canonical order in :mod:`repro.analysis.lock_order`;
* **potential deadlocks** — nested acquisitions feed a per-instance
  lock graph whose cycles are reported with both acquisition stacks.

When the detector is disabled (the default) every hook is one global
``None`` check and :func:`make_lock` / :func:`make_rlock` return a plain
``threading.Lock`` / ``threading.RLock``: nothing reads a lock's owner
or count then, and a tracked lock's round trip in Python costs about
1.1 µs against 0.4 µs for the C one.  A lock is tracked only if the
detector is on when the lock is made — ``PKV_RACE_DETECT=1`` turns it
on before a run builds its world, ``Options(race_detect=True)`` before
the database makes ``db.state`` — so enable it before building what it
should watch.

Detection is schedule-insensitive where it matters: two accesses race
iff no happens-before chain orders them, so a race is reported even
when the physical interleaving happened to be benign in this run.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.analysis.deadlock import LockGraph
from repro.analysis.findings import Finding
from repro.analysis.lock_order import level_of
from repro.analysis.vector_clock import (
    Clock,
    Epoch,
    epoch_of,
    fresh_clock,
    happens_before,
    merge_into,
)

__all__ = [
    "RaceDetector",
    "TrackedLock",
    "TrackedRLock",
    "get_detector",
    "enable",
    "disable",
    "maybe_enable_from_env",
    "make_lock",
    "make_rlock",
    "annotate_read",
    "annotate_write",
    "annotate_publish",
    "annotate_observe",
]

#: environment switch honoured by :func:`maybe_enable_from_env`
ENV_VAR = "PKV_RACE_DETECT"

#: the process-wide detector; ``None`` means every hook is free
_DETECTOR: Optional["RaceDetector"] = None

_SELF_FILES = (os.sep + "analysis" + os.sep + "runtime.py",
               os.sep + "threading.py")


def _site(limit: int = 2) -> str:
    """A short ``file:line in func`` stack of the instrumented caller."""
    frames: List[str] = []
    depth = 2
    while len(frames) < limit:
        try:
            f = sys._getframe(depth)
        except ValueError:
            break
        depth += 1
        fname = f.f_code.co_filename
        if fname.endswith(_SELF_FILES):
            continue
        short = fname
        for marker in (os.sep + "src" + os.sep, os.sep + "tests" + os.sep):
            i = fname.rfind(marker)
            if i >= 0:
                short = fname[i + 1:]
                break
        frames.append(f"{short}:{f.f_lineno} in {f.f_code.co_name}")
    return " <- ".join(frames) if frames else "<unknown>"


@dataclass
class _Location:
    """Per-shared-location access history."""

    name: str
    write: Optional[Epoch] = None
    write_site: str = ""
    #: reader tid -> (tick, site)
    reads: Dict[int, Tuple[int, str]] = field(default_factory=dict)
    #: the last publisher's clock, joined by every observer
    published: Clock = field(default_factory=dict)


class _ThreadState:
    """Per-thread detector state (vector clock + held tracked locks)."""

    __slots__ = ("tid", "clock", "held")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.clock: Clock = fresh_clock(tid)
        #: stack of (lock, acquisition site), outermost first
        self.held: List[Tuple["_TrackedBase", str]] = []


class _TrackedBase:
    """Shared plumbing of :class:`TrackedLock` / :class:`TrackedRLock`."""

    _serials = [0]
    _serial_lock = threading.Lock()

    def __init__(self, inner: Any, name: str) -> None:
        self._inner = inner
        self.name = name
        self.level = level_of(name)
        with _TrackedBase._serial_lock:
            _TrackedBase._serials[0] += 1
            serial = _TrackedBase._serials[0]
        self.label = f"{name}#{serial}"
        #: clock transferred release -> next acquire
        self._vc: Clock = {}
        self._owner: Optional[int] = None
        self._count = 0

    # -- context manager -------------------------------------------------
    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = bool(self._inner.acquire(blocking, timeout))
        if ok:
            first = self._owner != threading.get_ident() or self._count == 0
            self._owner = threading.get_ident()
            self._count += 1
            det = _DETECTOR
            if det is not None and first:
                det.on_acquired(self)
        return ok

    def release(self) -> None:
        if self._count == 1:
            det = _DETECTOR
            if det is not None:
                det.on_release(self)
            self._owner = None
        self._count -= 1
        self._inner.release()


class TrackedLock(_TrackedBase):
    """A ``threading.Lock`` that feeds the race/deadlock detector."""

    def __init__(self, name: str) -> None:
        super().__init__(threading.Lock(), name)


class TrackedRLock(_TrackedBase):
    """A ``threading.RLock`` that feeds the race/deadlock detector.

    Re-entrant acquisitions are tracked (only the outermost acquire and
    the final release create happens-before edges and order checks).
    """

    def __init__(self, name: str) -> None:
        super().__init__(threading.RLock(), name)


class RaceDetector:
    """The process-wide dynamic checker (see module docstring)."""

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._tls = threading.local()
        self._next_tid = [0]
        self._locations: Dict[Tuple[int, str], _Location] = {}
        self._next_tag = [0]
        self._barriers: Dict[Any, Clock] = {}
        self._final: Dict[Any, Clock] = {}
        self.graph = LockGraph()
        self._findings: List[Finding] = []
        self._seen: Set[Tuple[str, ...]] = set()
        #: counters for metrics/reporting
        self.counts: Dict[str, int] = {
            "reads": 0, "writes": 0, "acquires": 0, "sends": 0,
            "recvs": 0, "barriers": 0,
        }

    # ------------------------------------------------------------ threads
    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            with self._mu:
                self._next_tid[0] += 1
                st = _ThreadState(self._next_tid[0])
            self._tls.st = st
        return st

    def _tick(self, st: _ThreadState) -> None:
        st.clock[st.tid] = st.clock.get(st.tid, 0) + 1

    def finalize_thread(self) -> None:
        """Publish the calling thread's final clock for a later join."""
        st = self._state()
        with self._mu:
            self._final[threading.current_thread()] = dict(st.clock)

    def absorb_thread(self, thread: Any) -> None:
        """Join edge: merge a finished thread's clock into the caller's."""
        st = self._state()
        with self._mu:
            vc = self._final.pop(thread, None)
            if vc is not None:
                merge_into(st.clock, vc)

    # -------------------------------------------------------------- locks
    def on_acquired(self, lock: _TrackedBase) -> None:
        """Order check, deadlock-graph edge, and HB join on acquire."""
        st = self._state()
        site = _site()
        with self._mu:
            self.counts["acquires"] += 1
            if st.held:
                held_lock, held_site = st.held[-1]
                self.graph.add_edge(
                    held_lock.label, lock.label, held_site, site
                )
                for h, hsite in st.held:
                    if (lock.level is not None and h.level is not None
                            and lock.level < h.level):
                        self._report(Finding(
                            tool="lock-order",
                            rule="LOCK_ORDER",
                            message=(
                                f"acquired {lock.name} (level {lock.level})"
                                f" while holding {h.name} (level {h.level})"
                                " — violates the canonical order"
                            ),
                            function=site,
                            details=(f"{h.name} held at {hsite}",
                                     f"{lock.name} acquired at {site}"),
                        ), key=("order", h.name, lock.name, site))
            st.held.append((lock, site))
            merge_into(st.clock, lock._vc)

    def on_release(self, lock: _TrackedBase) -> None:
        """Publish the releaser's clock on the lock (HB edge source)."""
        st = self._state()
        with self._mu:
            for i in range(len(st.held) - 1, -1, -1):
                if st.held[i][0] is lock:
                    del st.held[i]
                    break
            lock._vc = dict(st.clock)
            self._tick(st)

    # -------------------------------------------------------- annotations
    def _tag_of(self, owner: Any) -> int:
        tag = getattr(owner, "_race_tag", None)
        if tag is None:
            self._next_tag[0] += 1
            tag = self._next_tag[0]
            try:
                owner._race_tag = tag
            except (AttributeError, TypeError):
                # owner cannot carry the tag; fall back to its id (the
                # object must then outlive the run to stay unique)
                tag = id(owner)
        return int(tag)

    def on_access(self, owner: Any, name: str, is_write: bool) -> None:
        """FastTrack read/write check on one annotated shared location."""
        st = self._state()
        with self._mu:
            key = (self._tag_of(owner), name)
            loc = self._locations.get(key)
            if loc is None:
                loc = self._locations[key] = _Location(name)
            clock = st.clock
            site = _site()
            if is_write:
                self.counts["writes"] += 1
                if (loc.write is not None
                        and not happens_before(loc.write, clock)):
                    self._race(loc, "write", "write", loc.write_site, site,
                               loc.write[0], st.tid)
                for tid, (tick, rsite) in loc.reads.items():
                    if tid != st.tid and not happens_before(
                            (tid, tick), clock):
                        self._race(loc, "read", "write", rsite, site,
                                   tid, st.tid)
                loc.write = epoch_of(st.tid, clock)
                loc.write_site = site
                loc.reads.clear()
            else:
                self.counts["reads"] += 1
                if (loc.write is not None and loc.write[0] != st.tid
                        and not happens_before(loc.write, clock)):
                    self._race(loc, "write", "read", loc.write_site, site,
                               loc.write[0], st.tid)
                loc.reads[st.tid] = (clock.get(st.tid, 0), site)

    def _race(self, loc: _Location, prior_kind: str, kind: str,
              prior_site: str, site: str, prior_tid: int,
              tid: int) -> None:
        key = ("race", loc.name, min(prior_site, site),
               max(prior_site, site))
        self._report(Finding(
            tool="race",
            rule="RACE",
            message=(
                f"data race on {loc.name}: {prior_kind} by thread "
                f"{prior_tid} not ordered before {kind} by thread {tid}"
            ),
            function=site,
            details=(f"prior {prior_kind} at {prior_site}",
                     f"racing {kind} at {site}"),
        ), key=key)

    # -------------------------------------------------------- publication
    def on_publish(self, owner: Any, name: str) -> None:
        """A writer installs a value readers take without a lock: a
        checked write that leaves the writer's clock with the location
        (the release of an atomic store)."""
        self.on_access(owner, name, is_write=True)
        st = self._state()
        with self._mu:
            loc = self._locations[(self._tag_of(owner), name)]
            loc.published = dict(st.clock)
            self._tick(st)

    def on_observe(self, owner: Any, name: str) -> None:
        """A lock-free read of a published value: join the publisher's
        clock (the acquire of an atomic load), then check the read."""
        st = self._state()
        with self._mu:
            loc = self._locations.get((self._tag_of(owner), name))
            if loc is not None:
                merge_into(st.clock, loc.published)
        self.on_access(owner, name, is_write=False)

    # ----------------------------------------------------------- messages
    def on_send(self, env: Any) -> None:
        """Attach the sender's clock to an envelope (send→recv edge)."""
        st = self._state()
        with self._mu:
            self.counts["sends"] += 1
            env._race_vc = dict(st.clock)
            self._tick(st)

    def on_recv(self, env: Any) -> None:
        """Join the sender's clock on message receipt."""
        vc = getattr(env, "_race_vc", None)
        if vc is None:
            return
        st = self._state()
        with self._mu:
            self.counts["recvs"] += 1
            merge_into(st.clock, vc)

    # ----------------------------------------------------------- barriers
    def on_barrier_arrive(self, key: Any) -> None:
        """Merge the caller's clock into the barrier's accumulator."""
        st = self._state()
        with self._mu:
            acc = self._barriers.get(key)
            if acc is None:
                acc = self._barriers[key] = {}
            merge_into(acc, st.clock)

    def on_barrier_depart(self, key: Any) -> None:
        """Join the accumulated clock after the rendezvous."""
        st = self._state()
        with self._mu:
            self.counts["barriers"] += 1
            acc = self._barriers.get(key)
            if acc is not None:
                merge_into(st.clock, acc)
            self._tick(st)

    # ------------------------------------------------------------ results
    def _report(self, finding: Finding, key: Tuple[str, ...]) -> None:
        if key in self._seen:
            return
        self._seen.add(key)
        self._findings.append(finding)

    def findings(self) -> List[Finding]:
        """Race + lock-order findings plus current deadlock cycles."""
        return list(self._findings) + self.graph.deadlock_findings()

    def run_start(self) -> None:
        """Prune per-run state (called at every ``spmd_run`` start).

        Locations and barrier accumulators belong to the finished run's
        objects; findings and the lock graph persist until read.
        """
        with self._mu:
            self._locations.clear()
            self._barriers.clear()
            self._final.clear()

    def summary(self) -> Dict[str, Union[int, bool]]:
        """Small counter block for ``repro.metrics``."""
        with self._mu:
            return {
                "enabled": True,
                "locations": len(self._locations),
                "findings": len(self._findings),
                **self.counts,
            }

    def report(self) -> Dict[str, Any]:
        """Machine-readable report (the ``race-report`` schema)."""
        fs = self.findings()
        return {
            "version": 1,
            "summary": self.summary(),
            "findings": [f.to_dict() for f in fs],
        }


# ------------------------------------------------------------- module API
def get_detector() -> Optional[RaceDetector]:
    """The active detector, or ``None`` when detection is off."""
    return _DETECTOR


def enable(reset: bool = False) -> RaceDetector:
    """Turn detection on (idempotent); ``reset`` forces a fresh one."""
    global _DETECTOR
    if _DETECTOR is None or reset:
        _DETECTOR = RaceDetector()
    return _DETECTOR


def disable() -> Optional[RaceDetector]:
    """Turn detection off; returns the detector for inspection."""
    global _DETECTOR
    det = _DETECTOR
    _DETECTOR = None
    return det


def restore(det: Optional[RaceDetector]) -> None:
    """Reinstall a previously active detector (test fixtures)."""
    global _DETECTOR
    _DETECTOR = det


def maybe_enable_from_env() -> Optional[RaceDetector]:
    """Enable iff ``PKV_RACE_DETECT`` is set to a non-zero value."""
    if _DETECTOR is None and os.environ.get(ENV_VAR, "") not in ("", "0"):
        return enable()
    return _DETECTOR


def make_lock(name: str) -> Any:
    """A lock named in the canonical order: a :class:`TrackedLock` while
    the detector is on, a plain ``threading.Lock`` otherwise."""
    if _DETECTOR is None:
        return threading.Lock()
    return TrackedLock(name)


def make_rlock(name: str) -> Any:
    """A re-entrant lock named in the canonical order: a
    :class:`TrackedRLock` while the detector is on, a plain
    ``threading.RLock`` otherwise."""
    if _DETECTOR is None:
        return threading.RLock()
    return TrackedRLock(name)


def annotate_read(owner: Any, name: str) -> None:
    """Record a read of a shared location (no-op when disabled)."""
    det = _DETECTOR
    if det is not None:
        det.on_access(owner, name, is_write=False)


def annotate_write(owner: Any, name: str) -> None:
    """Record a write of a shared location (no-op when disabled)."""
    det = _DETECTOR
    if det is not None:
        det.on_access(owner, name, is_write=True)


def annotate_publish(owner: Any, name: str) -> None:
    """Record the store of a value lock-free readers load with
    :func:`annotate_observe` — an ordering edge, unlike a plain write
    (no-op when disabled)."""
    det = _DETECTOR
    if det is not None:
        det.on_publish(owner, name)


def annotate_observe(owner: Any, name: str) -> None:
    """Record a lock-free load of a value stored under
    :func:`annotate_publish` (no-op when disabled)."""
    det = _DETECTOR
    if det is not None:
        det.on_observe(owner, name)
