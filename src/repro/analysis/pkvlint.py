"""pkvlint — the project's AST-based static analyzer (v2).

Seven rules, each encoding an invariant of the PapyrusKV runtime that
an ordinary linter cannot know.  Since v2 the lock/persistence rules
are **whole-program**: a call graph over every linted file
(:mod:`repro.analysis.callgraph`) and a flow-sensitive abstract
interpreter (:mod:`repro.analysis.flow`) propagate effects through
helper calls, so invariants split across functions by PRs 5–8 are
still enforced.

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
``R003``
    ``core/messages.py`` must carry a ``WIRE_TAGS`` literal mapping
    with a unique integer tag per message class, and every ``*Msg``
    class must be referenced by ``core/handler.py``.
``R004``
    Registered locks must be acquired in the canonical order
    (:mod:`repro.analysis.lock_order`) — also through helper calls.
``R005``
    No bare ``except:`` and no silently swallowed ``CorruptionError``.
``R006``
    The wire-protocol state machine extracted from ``WIRE_TAGS`` and
    the handler dispatch must satisfy the checked-in spec
    (``protocol.py`` next to ``messages.py``): retryable messages
    dedup-keyed, ``Replica*``/``Index*`` messages epoch-stamped, every
    request with a reply path, no handler send on the request comm.
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
from repro.analysis.protocol import check_protocol

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


# --------------------------------------------------------------- R003
_MSG_CLASS_RE = re.compile(r"(Msg|Reply)$")


def _check_wire_tags(path: str, tree: ast.Module,
                     findings: List[Finding]) -> None:
    """R003: WIRE_TAGS covers every message class; handler covers Msgs.

    Requests (``*Msg``) must be referenced by the sibling ``handler.py``
    — a request without a handler arm hangs its sender.  Replies
    (``*Reply``) must be referenced by ``handler.py`` *or* the sibling
    ``db.py``: the handler constructs them and the client side consumes
    them, so a reply class neither file mentions is dead wire format.
    """
    classes: Dict[str, int] = {}
    consts: Dict[str, int] = {}
    wire_tags: Optional[Dict[str, object]] = None
    wire_line = 0
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _MSG_CLASS_RE.search(node.name):
            classes[node.name] = node.lineno
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            tgt = node.targets[0]
            if not isinstance(tgt, ast.Name):
                continue
            if (isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)):
                consts[tgt.id] = node.value.value
            elif tgt.id == "WIRE_TAGS" and isinstance(node.value, ast.Dict):
                wire_line = node.lineno
                wire_tags = _parse_wire_dict(node.value)
        elif (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "WIRE_TAGS"
                and isinstance(node.value, ast.Dict)):
            wire_line = node.lineno
            wire_tags = _parse_wire_dict(node.value)
    if not classes:
        return
    if wire_tags is None:
        findings.append(Finding(
            tool="pkvlint", rule="R003",
            message="messages module defines message classes but no"
                    " WIRE_TAGS literal mapping",
            path=path, line=1, function="<module>",
        ))
        return
    # resolve Name references against earlier module-level int constants
    resolved: Dict[str, Optional[int]] = {}
    for cls, val in wire_tags.items():
        if isinstance(val, int):
            resolved[cls] = val
        elif isinstance(val, tuple) and val[0] == "name":
            resolved[cls] = consts.get(str(val[1]))
        else:
            resolved[cls] = None
    for cls, line in sorted(classes.items(), key=lambda kv: kv[1]):
        if cls not in resolved:
            findings.append(Finding(
                tool="pkvlint", rule="R003",
                message=f"message class `{cls}` has no WIRE_TAGS entry"
                        " — its wire tag is not pinned",
                path=path, line=line, function=cls,
            ))
        elif resolved[cls] is None:
            findings.append(Finding(
                tool="pkvlint", rule="R003",
                message=f"WIRE_TAGS entry for `{cls}` is not a resolvable"
                        " integer constant",
                path=path, line=wire_line, function="WIRE_TAGS",
            ))
    tags_seen: Dict[int, str] = {}
    for cls, tag in sorted(resolved.items()):
        if tag is None:
            continue
        if tag in tags_seen:
            findings.append(Finding(
                tool="pkvlint", rule="R003",
                message=f"WIRE_TAGS value {tag} assigned to both"
                        f" `{tags_seen[tag]}` and `{cls}` — wire tags"
                        " must be unique",
                path=path, line=wire_line, function="WIRE_TAGS",
            ))
        else:
            tags_seen[tag] = cls
    # every request (*Msg) class must appear in the sibling handler
    handler_path = os.path.join(os.path.dirname(path), "handler.py")
    if not os.path.exists(handler_path):
        return
    handler_names = _referenced_names(handler_path)
    for cls, line in sorted(classes.items(), key=lambda kv: kv[1]):
        if cls.endswith("Msg") and cls not in handler_names:
            findings.append(Finding(
                tool="pkvlint", rule="R003",
                message=f"message class `{cls}` is never referenced by"
                        " the handler — requests without a handler arm"
                        " hang their sender",
                path=path, line=line, function=cls,
            ))
    # every response (*Reply) class must be consumed by the handler or
    # the client side (sibling db.py)
    db_path = os.path.join(os.path.dirname(path), "db.py")
    db_names: Set[str] = set()
    if os.path.exists(db_path):
        db_names = _referenced_names(db_path)
    for cls, line in sorted(classes.items(), key=lambda kv: kv[1]):
        if (cls.endswith("Reply") and cls not in handler_names
                and cls not in db_names):
            findings.append(Finding(
                tool="pkvlint", rule="R003",
                message=f"reply class `{cls}` is referenced by neither"
                        " handler.py nor db.py — a reply nobody builds"
                        " or reads is dead wire format",
                path=path, line=line, function=cls,
            ))


def _parse_wire_dict(node: ast.Dict) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for k, v in zip(node.keys, node.values):
        if not (isinstance(k, ast.Constant) and isinstance(k.value, str)):
            continue
        if isinstance(v, ast.Constant) and isinstance(v.value, int):
            out[k.value] = v.value
        elif isinstance(v, ast.Name):
            out[k.value] = ("name", v.id)
        else:
            out[k.value] = ("opaque", ast.dump(v))
    return out


def _referenced_names(path: str) -> Set[str]:
    with open(path, encoding="utf-8") as f:
        src = f.read()
    names: Set[str] = set()
    try:
        tree = ast.parse(src)
    except SyntaxError:
        return names
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


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
    if os.path.basename(path) == "messages.py":
        _check_wire_tags(path, tree, findings)
        findings.extend(check_protocol(path, tree))
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
