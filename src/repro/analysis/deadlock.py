"""Lock-order graph and potential-deadlock (cycle) detection.

Every tracked-lock acquisition made while holding another tracked lock
adds a directed edge *held → acquired* with the acquisition stacks of
both ends.  A cycle in that graph is a potential deadlock: two threads
can interleave the recorded acquisitions so each waits on the other.
Edges are recorded per lock *instance*, so an ABBA pattern across two
``db.state`` locks (two open databases) is caught even though both
belong to one canonical level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.findings import Finding


@dataclass
class LockGraph:
    """Directed acquisition graph over lock-instance labels."""

    #: (held label, acquired label) -> (held stack, acquired stack)
    edges: Dict[Tuple[str, str], Tuple[str, str]] = field(
        default_factory=dict
    )

    def add_edge(self, held: str, acquired: str,
                 held_site: str, acquired_site: str) -> None:
        """Record one held→acquired observation (first stacks win)."""
        key = (held, acquired)
        if key not in self.edges:
            self.edges[key] = (held_site, acquired_site)

    def find_cycles(self) -> List[List[str]]:
        """Every elementary cycle, canonicalized and deduplicated."""
        adj: Dict[str, List[str]] = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, [])
        cycles: List[List[str]] = []
        seen: Set[Tuple[str, ...]] = set()

        def dfs(start: str, node: str, path: List[str],
                on_path: Set[str]) -> None:
            for nxt in adj.get(node, ()):
                if nxt == start:
                    cyc = _canonical(path)
                    key = tuple(cyc)
                    if key not in seen:
                        seen.add(key)
                        cycles.append(cyc)
                elif nxt not in on_path and nxt > start:
                    # only explore nodes ordered after the start node:
                    # every cycle is found exactly once, rooted at its
                    # smallest label
                    path.append(nxt)
                    on_path.add(nxt)
                    dfs(start, nxt, path, on_path)
                    on_path.discard(nxt)
                    path.pop()

        for node in sorted(adj):
            dfs(node, node, [node], {node})
        return cycles

    def deadlock_findings(self) -> List[Finding]:
        """One finding per cycle, carrying the acquisition stacks."""
        out: List[Finding] = []
        for cycle in self.find_cycles():
            ring = cycle + [cycle[0]]
            details: List[str] = []
            for a, b in zip(ring, ring[1:]):
                held_site, acq_site = self.edges.get(
                    (a, b), ("<unknown>", "<unknown>")
                )
                details.append(
                    f"{a} held at {held_site}; then {b} acquired at "
                    f"{acq_site}"
                )
            out.append(Finding(
                tool="deadlock",
                rule="DEADLOCK",
                message=(
                    "potential deadlock: cyclic lock acquisition "
                    + " -> ".join(ring)
                ),
                details=tuple(details),
            ))
        return out


def _canonical(path: List[str]) -> List[str]:
    """Rotate a cycle so its smallest label comes first."""
    i = path.index(min(path))
    return path[i:] + path[:i]
