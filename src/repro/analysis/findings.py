"""A common finding record for every analyzer in this package.

Both the static linter (pkvlint) and the dynamic detectors (race,
lock-order, deadlock) report :class:`Finding` objects, so the CLI,
the CI job, and the allowlist machinery handle one shape.

The JSON schema (``docs/analysis.md``) is version **2**::

    {"version": 2,
     "findings": [{"tool": "...", "rule": "...", "message": "...",
                   "path": "...", "line": 0, "function": "...",
                   "call_path": ["..."], "details": ["..."]}, ...]}

``call_path`` is the interprocedural call chain a whole-program rule
walked to reach the violation.  :func:`load_doc` rejects any other
version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple, Union

#: the one schema version findings_to_json emits and load_doc accepts
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Finding:
    """One analyzer result.

    ``tool`` names the layer (``pkvlint``, ``race``, ``lock-order``,
    ``deadlock``); ``rule`` is the stable rule id (``R001``..``R007``
    for lint, ``RACE``/``LOCK_ORDER``/``DEADLOCK`` for the dynamic
    plane).  ``details`` carries acquisition/access stacks.
    ``call_path`` carries the interprocedural chain an
    whole-program rule followed from the flagged site to the violating
    operation — empty for purely local findings.
    """

    tool: str
    rule: str
    message: str
    path: str = ""
    line: int = 0
    function: str = ""
    details: Tuple[str, ...] = field(default_factory=tuple)
    call_path: Tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, stable key order for JSON output."""
        return {
            "tool": self.tool,
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "function": self.function,
            "call_path": list(self.call_path),
            "details": list(self.details),
        }

    def render(self) -> str:
        """One-line human-readable form (``path:line: RULE message``)."""
        where = f"{self.path}:{self.line}" if self.path else self.tool
        fn = f" [{self.function}]" if self.function else ""
        base = f"{where}: {self.rule}{fn} {self.message}"
        if self.call_path:
            base += "\n    via " + " -> ".join(self.call_path)
        return base


def finding_from_dict(d: Dict[str, Any]) -> Finding:
    """Rebuild a :class:`Finding` from its dict form."""
    return Finding(
        tool=str(d.get("tool", "")),
        rule=str(d.get("rule", "")),
        message=str(d.get("message", "")),
        path=str(d.get("path", "")),
        line=int(d.get("line", 0)),
        function=str(d.get("function", "")),
        details=tuple(str(x) for x in d.get("details", ())),
        call_path=tuple(str(x) for x in d.get("call_path", ())),
    )


def findings_to_json(findings: Sequence[Finding]) -> str:
    """Serialize findings to the machine-readable schema."""
    doc = {
        "version": SCHEMA_VERSION,
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(doc, indent=2, sort_keys=False)


def load_doc(text_or_doc: Union[str, Dict[str, Any]]) -> List[Finding]:
    """Parse a findings document (JSON text or an already-parsed dict).

    Raises :class:`ValueError` on any schema version but
    :data:`SCHEMA_VERSION`.
    """
    doc = (json.loads(text_or_doc) if isinstance(text_or_doc, str)
           else text_or_doc)
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unknown findings schema version {version!r}")
    return [finding_from_dict(f) for f in doc.get("findings", [])]


def load_allowlist(path: str) -> List[Tuple[str, str]]:
    """Parse an allowlist file into ``(rule, pattern)`` entries.

    Each non-comment line reads ``RULE pattern`` where ``pattern``
    matches either ``path::function`` or a path substring.  Lines
    starting with ``#`` and blank lines are ignored.
    """
    entries: List[Tuple[str, str]] = []
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                continue
            entries.append((parts[0], parts[1].strip()))
    return entries


def is_allowed(finding: Finding, allowlist: Sequence[Tuple[str, str]]) -> bool:
    """True when an allowlist entry covers this finding.

    An entry matches when its rule equals the finding's rule and its
    pattern is a substring of ``path::function`` (so both bare paths
    and fully qualified sites work).
    """
    site = f"{finding.path}::{finding.function}"
    for rule, pattern in allowlist:
        if rule == finding.rule and pattern in site:
            return True
    return False
