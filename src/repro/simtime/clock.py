"""Per-rank virtual clocks.

Each simulated MPI rank thread owns a :class:`VirtualClock`.  Compute,
memory, storage, and network costs advance it; communication events merge
clocks (receive time is the max of local readiness and message arrival).
Code finds its clock through
:func:`repro.mpi.launcher.current_rank_context`.

Only the owning thread advances a clock (a rank's main thread, its
handler's own clock), so it takes no lock;
``tests/simtime/test_clock.py::TestOneWriterPerClock`` checks that.
"""

from __future__ import annotations


class VirtualClock:
    """A monotonically advancing virtual timestamp in seconds."""

    __slots__ = ("_now", "label")

    def __init__(self, start: float = 0.0, label: str = "") -> None:
        self._now = float(start)
        self.label = label

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Advance by ``dt`` seconds (must be non-negative); return new time."""
        if dt < 0:
            raise ValueError(f"negative time advance: {dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to at least ``t``; never backwards."""
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualClock {self.label or id(self):} t={self._now:.6f}>"
