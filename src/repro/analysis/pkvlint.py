"""pkvlint — the project's AST-based static analyzer (v2).

Six rules (R003's number is retired, never reused), each encoding an
invariant of the PapyrusKV runtime that an ordinary linter cannot know.
Since v2 the lock/persistence rules are **whole-program**: a call graph
over every linted file (:mod:`repro.analysis.callgraph`) and a
flow-sensitive abstract interpreter (:mod:`repro.analysis.flow`)
propagate effects through helper calls, so an invariant split across
functions is still enforced.

``R001``
    No blocking ``Comm`` call (``send``/``recv``/``barrier``/
    collectives) while a registered lock is held — *including* comm
    calls reached through any resolved helper chain (the finding
    carries the call path).
``R002``
    Crash-ordering: every ``os.rename``/``os.replace`` must see an
    earlier fsync (a helper that fsyncs counts), and in persistence
    modules a file opened for writing must reach an
    fsync/``write_ordered`` on every path out of the call-graph root.
``R004``
    Registered locks must be acquired in the canonical order
    (:mod:`repro.analysis.lock_order`) — also through helper calls.
``R005``
    No bare ``except:`` and no silently swallowed ``CorruptionError``.
``R006``
    ``handler.py`` never sends on the request comm (``srv_comm``).
    The rest of the wire protocol — tags, replies, retryable and
    stamped messages, the handler's dispatch — is one table,
    :data:`repro.core.messages.PROTOCOL`, checked when it is imported.
``R007``
    Wall-clock values (``time.time``/``monotonic``) must not flow into
    simtime-governed scheduling — through helpers included.

Suppression: append ``# pkvlint: disable=R00x[,R00y]`` to the flagged
line, or add ``RULE pattern`` entries to an allowlist file (default
``.pkvlint-allow``); patterns match substrings of ``path::function``.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.findings import Finding, is_allowed, load_allowlist
from repro.analysis.flow import (
    COMM_BLOCKING_CALLS,
    Summary,
    _attr_chain,
    called_qualnames,
    check_module,
    compute_summaries,
)

__all__ = ["lint_file", "lint_paths", "COMM_BLOCKING_CALLS"]

_SUPPRESS_RE = re.compile(r"#\s*pkvlint:\s*disable=([A-Z0-9, ]+)")


def _suppressions(src: str) -> Dict[int, Set[str]]:
    """Map line number -> set of rule ids disabled on that line."""
    out: Dict[int, Set[str]] = {}
    for i, line in enumerate(src.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            out[i] = rules
    return out


def _check_try(path: str, func: str, node: ast.Try,
               findings: List[Finding]) -> None:
    """R005 on one ``try`` statement."""
    for h in node.handlers:
        if h.type is None:
            findings.append(Finding(
                tool="pkvlint",
                rule="R005",
                message="bare `except:` hides corruption and"
                        " cancellation — name the exception",
                path=path, line=h.lineno, function=func,
            ))
        elif _swallows_corruption(h):
            findings.append(Finding(
                tool="pkvlint",
                rule="R005",
                message="`CorruptionError` swallowed with an empty"
                        " handler — corruption must be quarantined"
                        " or re-raised",
                path=path, line=h.lineno, function=func,
            ))


def _swallows_corruption(handler: ast.ExceptHandler) -> bool:
    names: List[str] = []
    t = handler.type
    nodes = t.elts if isinstance(t, ast.Tuple) else [t]
    for n in nodes:
        if n is not None:
            names.append(_attr_chain(n).rsplit(".", 1)[-1])
    if "CorruptionError" not in names:
        return False
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis):
            continue
        return False
    return True


class _HygieneChecker(ast.NodeVisitor):
    """Walks a whole module for R005 (function bodies included)."""

    def __init__(self, path: str, findings: List[Finding]) -> None:
        self.path = path
        self.findings = findings
        self._scope: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)  # type: ignore[arg-type]

    def visit_Try(self, node: ast.Try) -> None:
        func = ".".join(self._scope) or "<module>"
        _check_try(self.path, func, node, self.findings)
        self.generic_visit(node)


# --------------------------------------------------------------- R006
#: the handler's receive comm: requests only, never a handler send
REQUEST_COMM = "srv_comm"

#: comm methods that put a message on the wire
_SEND_CALLS = frozenset({
    "send", "send_at", "fanout", "bcast", "scatter", "sendrecv",
    "alltoall",
})


def _check_request_comm(path: str, tree: ast.Module,
                        findings: List[Finding]) -> None:
    """R006: no call in ``handler.py`` sends on the request comm.

    Two handlers sending to each other on the comm they both receive
    requests on can rendezvous-deadlock; the handler answers on the
    response and ack comms only.
    """
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SEND_CALLS):
            continue
        chain = _attr_chain(node.func.value)
        if REQUEST_COMM in chain.split("."):
            findings.append(Finding(
                tool="pkvlint", rule="R006",
                message=f"handler sends on the request comm"
                        f" (`{chain}.{node.func.attr}`) — the request"
                        " comm must stay one-directional or two"
                        " handlers can rendezvous-deadlock",
                path=path, line=node.lineno, function="<handler>",
            ))


# ---------------------------------------------------------- entry points
def _parse(path: str, src: str) -> Tuple[Optional[ast.Module],
                                         List[Finding]]:
    try:
        return ast.parse(src, filename=path), []
    except SyntaxError as exc:
        return None, [Finding(
            tool="pkvlint", rule="SYNTAX",
            message=f"cannot parse: {exc.msg}",
            path=path, line=exc.lineno or 0, function="<module>",
        )]


def _lint_tree(path: str, src: str, tree: ast.Module,
               graph: CallGraph,
               summaries: Dict[str, Summary],
               called: Set[str]) -> List[Finding]:
    """All rules over one parsed module, inline suppressions applied."""
    findings = check_module(path, tree, graph, summaries, called)
    _HygieneChecker(path, findings).visit(tree)
    if os.path.basename(path) == "handler.py":
        _check_request_comm(path, tree, findings)
    sup = _suppressions(src)
    if sup:
        findings = [
            f for f in findings
            if f.rule not in sup.get(f.line, ())
        ]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_file(path: str, src: Optional[str] = None) -> List[Finding]:
    """Lint one file; returns findings after inline suppressions.

    A single-file call graph is built, so same-file helper chains
    still resolve.
    """
    if src is None:
        with open(path, encoding="utf-8") as f:
            src = f.read()
    tree, errs = _parse(path, src)
    if tree is None:
        return errs
    graph = build_call_graph([(path, tree)])
    return _lint_tree(path, src, tree, graph, compute_summaries(graph),
                      called_qualnames(graph))


def _iter_py(paths: Sequence[str]) -> List[str]:
    out: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in ("__pycache__", ".git")
                )
                for fn in sorted(files):
                    if fn.endswith(".py"):
                        out.append(os.path.join(root, fn))
        elif p.endswith(".py"):
            out.append(p)
    return out


def lint_paths(paths: Sequence[str],
               allowlist: Optional[str] = None) -> List[Finding]:
    """Lint files/directories as one program.

    Every file is parsed once, the project-wide call graph and
    summaries are computed over the whole set, and each module is then
    checked against them — a helper chain crossing module boundaries
    (``handler.py`` → ``db.py``) resolves like a local call.  Findings
    covered by the allowlist are dropped.
    """
    entries: List[Tuple[str, str]] = []
    if allowlist and os.path.exists(allowlist):
        entries = load_allowlist(allowlist)
    parsed: List[Tuple[str, str, Optional[ast.Module]]] = []
    findings: List[Finding] = []
    for path in _iter_py(paths):
        with open(path, encoding="utf-8") as f:
            src = f.read()
        tree, errs = _parse(path, src)
        findings.extend(errs)
        parsed.append((path, src, tree))
    graph = build_call_graph(
        [(p, t) for p, _s, t in parsed if t is not None]
    )
    summaries = compute_summaries(graph)
    called = called_qualnames(graph)
    for path, src, tree in parsed:
        if tree is None:
            continue
        findings.extend(
            _lint_tree(path, src, tree, graph, summaries, called)
        )
    if entries:
        findings = [f for f in findings if not is_allowed(f, entries)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
