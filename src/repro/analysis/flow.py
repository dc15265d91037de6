"""Flow-sensitive abstract interpretation over the project call graph.

This is pkvlint v2's engine.  PR 4's checker walked one function at a
time and tracked only the lexical ``with`` nesting; PRs 5–8 spread the
runtime's invariants across helper chains (``_local_insert`` →
``_rotate_local`` → ``_enqueue_flush``), which a per-function walker
cannot see.  This module interprets every function body with an
abstract state and a table of callee *summaries*, so effects propagate
through calls:

* **R001 (interprocedural)** — a blocking ``Comm`` call reached through
  *any* resolved helper chain while a registered lock is held is
  flagged, with the full call path in the finding.
* **R002 (crash-ordering reachability)** — a rename must still see an
  earlier fsync (helper fsyncs now count), and in persistence modules
  (``nvm``/``sstable``/``checkpoint``) a file opened for writing must
  reach an fsync / ``write_ordered`` on every path to exit; a write
  that escapes a call-graph root non-durable is flagged.
* **R004 (interprocedural)** — calling a helper that acquires a
  lower-level registered lock while holding a higher one is a lock
  order violation even when the two ``with`` blocks live in different
  functions.
* **R007 (wall-clock taint)** — values produced by ``time.time`` /
  ``monotonic`` (directly or through a helper's return) must never
  flow into simtime-governed scheduling (``clock.advance*``,
  ``comm.send_at``, worker ``schedule``): the virtual timeline is
  deterministic only while every timestamp on it is virtual.

The abstract state is a small lattice: ``unsynced`` (may-analysis,
union at joins), ``tainted`` (per-variable taint origins, union), and
``reachable``.  Summaries (:class:`Summary`) are computed by a
monotone fixpoint over the call graph — each field only ever grows, so
iteration terminates — then a second pass re-interprets each function
and emits findings.

Nested ``def``/``lambda`` bodies get a fresh scope with no held locks:
a deferred job does *not* run under the ``with`` block that created it
(the compaction workers run jobs on whichever thread schedules them).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo, module_name_for
from repro.analysis.findings import Finding
from repro.analysis.lock_order import LOCK_ATTRS, level_of_attr

__all__ = [
    "COMM_BLOCKING_CALLS", "Summary", "compute_summaries",
    "check_module", "called_qualnames",
]

#: Comm methods that block or synchronize (R001 targets)
COMM_BLOCKING_CALLS = frozenset({
    "send", "send_at", "recv", "sendrecv", "fanout", "barrier",
    "bcast", "gather", "allgather", "scatter", "alltoall", "allreduce",
    "reduce",
})

#: attribute chains whose call produces a wall-clock value (R007 sources)
WALLCLOCK_CALLS = frozenset({
    "time.time", "time.monotonic", "time.perf_counter", "time.time_ns",
    "time.monotonic_ns", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "monotonic", "perf_counter",
})

#: call names that make pending writes durable (R002 sinks)
_DURABLE_CALLS = ("write_ordered",)

#: module-name fragments whose files are held to the persistence rules
_PERSISTENCE_FRAGMENTS = ("nvm", "sstable", "checkpoint")

_LOCK_ATTR_SET = frozenset(LOCK_ATTRS)


def _attr_chain(node: ast.AST) -> str:
    """Dotted-name text of a Name/Attribute chain (best effort)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _call_name(call: ast.Call) -> str:
    """The called attribute or function name (last path component)."""
    fn = call.func
    if isinstance(fn, ast.Attribute):
        return fn.attr
    if isinstance(fn, ast.Name):
        return fn.id
    return ""


def _with_lock_attrs(node: ast.With) -> List[Tuple[str, int]]:
    """Registered lock attributes acquired by a ``with`` statement."""
    out: List[Tuple[str, int]] = []
    for item in node.items:
        expr = item.context_expr
        # unwrap `with self._lock:` and `with lock.acquire_ctx():` alike
        target = expr.func if isinstance(expr, ast.Call) else expr
        if isinstance(target, ast.Attribute) and target.attr in _LOCK_ATTR_SET:
            out.append((target.attr, expr.lineno))
    return out


def _open_write_mode(call: ast.Call) -> Optional[str]:
    """The write mode of a literal ``open(...)`` call, if any."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return None
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return None  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        m = mode.value
        if any(c in m for c in "wax+"):
            return m
    return None


def _is_persistence_module(module: str) -> bool:
    return any(frag in module for frag in _PERSISTENCE_FRAGMENTS)


# ------------------------------------------------------------- summaries
@dataclass
class Summary:
    """The interprocedurally relevant effects of one function.

    Witness chains are tuples of hop strings (callee qualnames, ending
    at a concrete site) describing the path *below* this function; a
    caller prefixes this function's qualname when it propagates or
    reports them.  Every field only grows across fixpoint iterations.
    """

    qualname: str
    #: witness chain to a blocking comm call reachable from the body
    comm_path: Optional[Tuple[str, ...]] = None
    #: registered lock attr -> witness chain to its acquisition
    acquires: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: the body may perform an fsync / ordered durable commit
    fsyncs: bool = False
    #: some path exits with a persistent write not yet made durable
    writes_unsynced: bool = False
    write_chain: Tuple[str, ...] = ()
    #: some return value derives from a wall-clock source
    returns_wallclock: bool = False


# --------------------------------------------------------- abstract state
@dataclass
class _State:
    reachable: bool = True
    unsynced: bool = False
    unsynced_chain: Tuple[str, ...] = ()
    unsynced_line: int = 0
    #: tainted local name -> origin chain of the wall-clock value
    tainted: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def copy(self) -> "_State":
        return replace(self, tainted=dict(self.tainted))


def _join(a: _State, b: _State) -> _State:
    if not a.reachable:
        return b.copy()
    if not b.reachable:
        return a.copy()
    out = a.copy()
    if b.unsynced and not out.unsynced:
        out.unsynced = True
        out.unsynced_chain = b.unsynced_chain
        out.unsynced_line = b.unsynced_line
    for name, origin in b.tainted.items():
        out.tainted.setdefault(name, origin)
    return out


#: taint origin type: None = clean, tuple = origin chain
_Taint = Optional[Tuple[str, ...]]


class _Interp:
    """One pass of the abstract interpreter over one function body.

    ``findings is None`` → *collect* mode: build a :class:`Summary`
    against the current (possibly still-growing) summary table.
    ``findings`` a list → *emit* mode: report violations against the
    fixpoint summaries.
    """

    def __init__(self, info: FunctionInfo, graph: CallGraph,
                 summaries: Dict[str, Summary],
                 findings: Optional[List[Finding]],
                 func_name: Optional[str] = None) -> None:
        self.info = info
        self.graph = graph
        self.summaries = summaries
        self.findings = findings
        self.func = func_name or (
            f"{info.cls}.{info.name}" if info.cls else info.name
        )
        self.path = info.path
        self.persistence = _is_persistence_module(info.module)
        #: stack of (lock attr, level, with-lineno) currently held
        self.held: List[Tuple[str, Optional[int], int]] = []
        self.fsync_lines: List[int] = []
        self.out = Summary(qualname=info.qualname)
        self.exit_states: List[_State] = []

    # ------------------------------------------------------------ driving
    def run(self) -> Summary:
        node = self.info.node
        body = node.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) else []
        st = self.exec_block(body, _State())
        if st.reachable:
            self.exit_states.append(st)
        for ex in self.exit_states:
            if ex.unsynced and not self.out.writes_unsynced:
                self.out.writes_unsynced = True
                self.out.write_chain = ex.unsynced_chain
        return self.out

    def exit_write_state(self) -> Optional[_State]:
        """The first exit state carrying a non-durable write, if any."""
        for ex in self.exit_states:
            if ex.unsynced:
                return ex
        return None

    # --------------------------------------------------------- statements
    def exec_block(self, stmts: Sequence[ast.stmt], st: _State) -> _State:
        for stmt in stmts:
            st = self.exec_stmt(stmt, st)
        return st

    def exec_stmt(self, stmt: ast.stmt, st: _State) -> _State:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._nested_def(stmt)
            return st
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                t = self.eval(stmt.value, st)
                if t is not None:
                    self.out.returns_wallclock = True
            if st.reachable:
                self.exit_states.append(st.copy())
            st = st.copy()
            st.reachable = False
            return st
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc, st)
            st = st.copy()
            st.reachable = False
            return st
        if isinstance(stmt, ast.Assign):
            t = self.eval(stmt.value, st)
            for target in stmt.targets:
                self._taint_target(target, t, st)
            return st
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                t = self.eval(stmt.value, st)
                self._taint_target(stmt.target, t, st)
            return st
        if isinstance(stmt, ast.AugAssign):
            t = self.eval(stmt.value, st)
            if t is None and isinstance(stmt.target, ast.Name):
                t = st.tainted.get(stmt.target.id)
            self._taint_target(stmt.target, t, st)
            return st
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, st)
            return st
        if isinstance(stmt, ast.If):
            self.eval(stmt.test, st)
            a = self.exec_block(stmt.body, st.copy())
            b = self.exec_block(stmt.orelse, st.copy())
            return _join(a, b)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            if isinstance(stmt, ast.While):
                self.eval(stmt.test, st)
            else:
                t = self.eval(stmt.iter, st)
                self._taint_target(stmt.target, t, st)
            # two unrollings so taint assigned in iteration N reaches a
            # sink in iteration N+1; joined with the zero-trip state
            s = st.copy()
            for _ in range(2):
                s = _join(st, self.exec_block(stmt.body, s.copy()))
            return self.exec_block(stmt.orelse, s)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._exec_with(stmt, st)
        if isinstance(stmt, ast.Try):
            body_out = self.exec_block(stmt.body, st.copy())
            # a handler can be entered from any point in the body
            merged = _join(st, body_out)
            outs = [self.exec_block(stmt.orelse, body_out)]
            for h in stmt.handlers:
                outs.append(self.exec_block(h.body, merged.copy()))
            res = outs[0]
            for o in outs[1:]:
                res = _join(res, o)
            return self.exec_block(stmt.finalbody, res)
        if isinstance(stmt, ast.Assert):
            self.eval(stmt.test, st)
            return st
        if isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name):
                    st.tainted.pop(tgt.id, None)
            return st
        # Pass/Break/Continue/Import/Global/Nonlocal and anything newer:
        # evaluate any expression children for their call effects
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.eval(child, st)
        return st

    def _exec_with(self, stmt: ast.stmt, st: _State) -> _State:
        assert isinstance(stmt, (ast.With, ast.AsyncWith))
        acquired = _with_lock_attrs(stmt)  # type: ignore[arg-type]
        for item in stmt.items:
            t = self.eval(item.context_expr, st)
            if item.optional_vars is not None:
                self._taint_target(item.optional_vars, t, st)
        for attr, lineno in acquired:
            level = level_of_attr(attr)
            if self.findings is not None:
                for held_attr, held_level, held_line in self.held:
                    if (level is not None and held_level is not None
                            and level < held_level):
                        self.findings.append(Finding(
                            tool="pkvlint",
                            rule="R004",
                            message=(
                                f"lock `{attr}` (level {level}) acquired "
                                f"inside `{held_attr}` (level {held_level})"
                                " — violates the canonical lock order"
                            ),
                            path=self.path, line=lineno, function=self.func,
                            details=(
                                f"`{held_attr}` taken at line {held_line}",
                            ),
                        ))
            self.out.acquires.setdefault(
                attr, (f"with `{attr}` at {self.path}:{lineno}",)
            )
            self.held.append((attr, level, lineno))
        st = self.exec_block(stmt.body, st)
        for _ in acquired:
            self.held.pop()
        return st

    def _nested_def(self, node: ast.AST) -> None:
        """A nested def: fresh scope, own findings, no summary effects."""
        if self.findings is None:
            return  # deferred bodies never contribute to the enclosing
            # summary: they do not run as part of this function's call
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        sub_info = FunctionInfo(
            qualname=f"{self.info.qualname}.{node.name}",
            path=self.path, module=self.info.module, name=node.name,
            cls=self.info.cls, node=node, lineno=node.lineno,
            param_classes=_param_classes(node),
        )
        sub = _Interp(sub_info, self.graph, self.summaries, self.findings,
                      func_name=f"{self.func}.{node.name}")
        sub.run()

    def _taint_target(self, target: ast.expr, t: _Taint,
                      st: _State) -> None:
        if isinstance(target, ast.Name):
            if t is not None:
                st.tainted[target.id] = t
            else:
                st.tainted.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                self._taint_target(el, t, st)
        elif isinstance(target, ast.Starred):
            self._taint_target(target.value, t, st)

    # -------------------------------------------------------- expressions
    def eval(self, expr: ast.expr, st: _State) -> _Taint:
        """Process an expression's calls; return its taint origin."""
        if isinstance(expr, ast.Name):
            return st.tainted.get(expr.id)
        if isinstance(expr, ast.Constant):
            return None
        if isinstance(expr, ast.Call):
            return self._do_call(expr, st)
        if isinstance(expr, ast.Lambda):
            if self.findings is not None:
                sub_info = FunctionInfo(
                    qualname=f"{self.info.qualname}.<lambda>",
                    path=self.path, module=self.info.module,
                    name="<lambda>", cls=self.info.cls,
                    node=ast.FunctionDef(
                        name="<lambda>", args=expr.args,
                        body=[ast.Expr(value=expr.body)],
                        decorator_list=[], lineno=expr.lineno,
                    ),
                    lineno=expr.lineno, param_classes={},
                )
                sub = _Interp(sub_info, self.graph, self.summaries,
                              self.findings,
                              func_name=f"{self.func}.<lambda>")
                sub.exec_block(sub_info.node.body, _State())
            return None
        if isinstance(expr, ast.NamedExpr):
            t = self.eval(expr.value, st)
            self._taint_target(expr.target, t, st)
            return t
        if isinstance(expr, ast.IfExp):
            self.eval(expr.test, st)
            a = self.eval(expr.body, st)
            b = self.eval(expr.orelse, st)
            return a or b
        if isinstance(expr, ast.Attribute):
            return self.eval(expr.value, st)
        # generic: fold taint over expression children
        t: _Taint = None
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                ct = self.eval(child, st)
                t = t or ct
            elif isinstance(child, ast.comprehension):
                it = self.eval(child.iter, st)
                self._taint_target(child.target, it, st)
                for cond in child.ifs:
                    self.eval(cond, st)
        return t

    def _do_call(self, call: ast.Call, st: _State) -> _Taint:
        name = _call_name(call)
        chain = _attr_chain(call.func)
        if not isinstance(call.func, (ast.Name, ast.Attribute)):
            self.eval(call.func, st)
        recv_taint: _Taint = None
        if isinstance(call.func, ast.Attribute):
            recv_taint = self.eval(call.func.value, st)
        arg_taint: _Taint = None
        for a in call.args:
            t = self.eval(a, st)
            arg_taint = arg_taint or t
        for kw in call.keywords:
            t = self.eval(kw.value, st)
            arg_taint = arg_taint or t

        # fsync-ish calls make pending writes durable
        if "fsync" in name or name in _DURABLE_CALLS:
            self.fsync_lines.append(call.lineno)
            self.out.fsyncs = True
            if st.unsynced:
                st.unsynced = False
                st.unsynced_chain = ()
                st.unsynced_line = 0

        # blocking comm leaf (R001 direct)
        if name in COMM_BLOCKING_CALLS and "comm" in chain.lower():
            site = f"{chain}() at {self.path}:{call.lineno}"
            if self.out.comm_path is None:
                self.out.comm_path = (site,)
            if self.findings is not None and self.held:
                held_attr, _lvl, held_line = self.held[-1]
                self.findings.append(Finding(
                    tool="pkvlint",
                    rule="R001",
                    message=(
                        f"blocking comm call `{name}` while holding "
                        f"lock `{held_attr}` — a blocked peer deadlocks"
                        " this rank"
                    ),
                    path=self.path, line=call.lineno, function=self.func,
                    details=(f"`{held_attr}` taken at line {held_line}",),
                ))

        # rename-without-fsync (R002, lexical shape with helper fsyncs)
        if self.findings is not None and name in ("rename", "replace",
                                                  "move"):
            root = chain.split(".", 1)[0].lower()
            is_fs = chain in ("os.rename", "os.replace", "shutil.move") or (
                name == "rename" and "path" in root)
            if is_fs and not any(fl < call.lineno for fl in self.fsync_lines):
                self.findings.append(Finding(
                    tool="pkvlint",
                    rule="R002",
                    message=(
                        f"`{chain or name}` publishes a file with no"
                        " earlier fsync in this function — rename"
                        " of non-durable bytes breaks crash"
                        " consistency"
                    ),
                    path=self.path, line=call.lineno, function=self.func,
                ))

        # persistent write sources (R002 reachability)
        if self.persistence:
            mode = _open_write_mode(call)
            if mode is not None or chain == "os.write":
                site = (f"open(mode={mode!r})" if mode is not None
                        else "os.write()")
                st.unsynced = True
                st.unsynced_chain = (
                    f"{site} at {self.path}:{call.lineno}",
                )
                st.unsynced_line = call.lineno

        taint: _Taint = None
        # wall-clock sources (R007)
        if chain in WALLCLOCK_CALLS:
            taint = (f"{chain}() at {self.path}:{call.lineno}",)
        if recv_taint is not None:
            taint = taint or recv_taint

        # simtime sinks (R007)
        if self.findings is not None and arg_taint is not None:
            low = chain.lower()
            is_sink = (
                (name in ("advance", "advance_to") and "clock" in low)
                or (name == "send_at" and "comm" in low)
                or (name in ("schedule", "idle_until") and "worker" in low)
                or name == "VirtualClock"
            )
            if is_sink:
                self.findings.append(Finding(
                    tool="pkvlint",
                    rule="R007",
                    message=(
                        f"wall-clock value flows into simtime-governed"
                        f" `{chain or name}` — virtual timelines must"
                        " only ever see virtual timestamps"
                    ),
                    path=self.path, line=call.lineno, function=self.func,
                    call_path=arg_taint,
                ))

        # interprocedural effects from resolved callees
        for callee in self.graph.resolve_call(self.info, call):
            s = self.summaries.get(callee.qualname)
            if s is None:
                continue
            if s.fsyncs:
                self.fsync_lines.append(call.lineno)
                self.out.fsyncs = True
                if st.unsynced:
                    st.unsynced = False
                    st.unsynced_chain = ()
                    st.unsynced_line = 0
            if s.comm_path is not None:
                if self.out.comm_path is None:
                    self.out.comm_path = (
                        (callee.qualname,) + s.comm_path
                    )
                if self.findings is not None and self.held:
                    held_attr, _lvl, held_line = self.held[-1]
                    self.findings.append(Finding(
                        tool="pkvlint",
                        rule="R001",
                        message=(
                            f"call to `{name}` reaches a blocking"
                            f" comm call while holding lock"
                            f" `{held_attr}` — a blocked peer"
                            " deadlocks this rank"
                        ),
                        path=self.path, line=call.lineno,
                        function=self.func,
                        details=(
                            f"`{held_attr}` taken at line {held_line}",
                        ),
                        call_path=(callee.qualname,) + s.comm_path,
                    ))
            for attr, why in s.acquires.items():
                self.out.acquires.setdefault(
                    attr, (callee.qualname,) + why
                )
                if self.findings is not None:
                    lvl = level_of_attr(attr)
                    for held_attr, held_level, held_line in self.held:
                        if (lvl is not None and held_level is not None
                                and lvl < held_level
                                # an RLock re-entered through a helper
                                # is not an inversion
                                and attr != held_attr):
                            self.findings.append(Finding(
                                tool="pkvlint",
                                rule="R004",
                                message=(
                                    f"call to `{name}` acquires lock"
                                    f" `{attr}` (level {lvl}) while"
                                    f" holding `{held_attr}` (level"
                                    f" {held_level}) — violates the"
                                    " canonical lock order"
                                ),
                                path=self.path, line=call.lineno,
                                function=self.func,
                                details=(
                                    f"`{held_attr}` taken at line"
                                    f" {held_line}",
                                ),
                                call_path=(callee.qualname,) + why,
                            ))
            if s.writes_unsynced:
                st.unsynced = True
                st.unsynced_chain = (
                    (callee.qualname,) + s.write_chain
                )
                st.unsynced_line = call.lineno
            if s.returns_wallclock:
                taint = taint or (callee.qualname,)
        return taint


def _param_classes(node: ast.AST) -> Dict[str, str]:
    """Annotated-parameter class map for an ad-hoc function node."""
    from repro.analysis.callgraph import _annotation_class

    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    params: Dict[str, str] = {}
    for arg in (list(node.args.posonlyargs) + list(node.args.args)
                + list(node.args.kwonlyargs)):
        klass = _annotation_class(arg.annotation)
        if klass:
            params[arg.arg] = klass
    return params


# ------------------------------------------------------------ driver API
def compute_summaries(graph: CallGraph) -> Dict[str, Summary]:
    """Fixpoint over every indexed function's summary.

    Each pass re-interprets every body against the current table; the
    summary lattice only grows, so iteration terminates (in practice in
    2–3 rounds: the helper chains are shallow).
    """
    summaries: Dict[str, Summary] = {
        q: Summary(qualname=q) for q in graph.functions
    }
    for _round in range(len(graph.functions) + 2):
        changed = False
        for qual, info in graph.functions.items():
            s = _Interp(info, graph, summaries, findings=None).run()
            if s != summaries[qual]:
                summaries[qual] = s
                changed = True
        if not changed:
            break
    return summaries


def called_qualnames(graph: CallGraph) -> Set[str]:
    """Qualnames reached by at least one resolved project call site."""
    called: Set[str] = set()
    for info in graph.functions.values():
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                for callee in graph.resolve_call(info, node):
                    called.add(callee.qualname)
    return called


class _EmitWalker(ast.NodeVisitor):
    """Find every function in a module and run the emit pass on it.

    Functions indexed by the call graph reuse their :class:`FunctionInfo`
    (annotation-based resolution included); conditionally defined ones
    get an ad-hoc info so they are still checked lexically.
    """

    def __init__(self, path: str, tree: ast.Module,
                 graph: CallGraph,
                 summaries: Dict[str, Summary],
                 called: Set[str],
                 findings: List[Finding]) -> None:
        self.path = path
        self.module = module_name_for(path)
        self.graph = graph
        self.summaries = summaries
        self.called = called
        self.findings = findings
        self._scope: List[str] = []
        self.visit(tree)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        cls = self._scope[-1] if self._scope else None
        qual = (f"{self.module}:{cls}.{node.name}" if cls
                else f"{self.module}:{node.name}")
        info = self.graph.functions.get(qual)
        if info is None or info.node is not node:
            info = FunctionInfo(
                qualname=qual, path=self.path, module=self.module,
                name=node.name, cls=cls, node=node, lineno=node.lineno,
                param_classes=_param_classes(node),
            )
        func_name = f"{cls}.{node.name}" if cls else node.name
        interp = _Interp(info, self.graph, self.summaries, self.findings,
                         func_name=func_name)
        interp.run()
        # R002 reachability: a persistence-module function whose writes
        # can escape non-durable is reported at the call-graph roots —
        # helpers whose callers fsync for them stay clean
        if interp.persistence and qual not in self.called:
            ex = interp.exit_write_state()
            if ex is not None:
                self.findings.append(Finding(
                    tool="pkvlint",
                    rule="R002",
                    message=(
                        "persistent write can reach function exit with"
                        " no fsync/write_ordered on the path — a crash"
                        " here leaves non-durable bytes published"
                    ),
                    path=self.path,
                    line=ex.unsynced_line or node.lineno,
                    function=func_name,
                    call_path=(ex.unsynced_chain
                               if len(ex.unsynced_chain) > 1 else ()),
                    details=(ex.unsynced_chain[:1] or ("write site",)),
                ))
        # do NOT generic_visit: the interpreter handled nested defs

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)  # type: ignore[arg-type]


def check_module(path: str, tree: ast.Module,
                 graph: CallGraph,
                 summaries: Dict[str, Summary],
                 called: Set[str]) -> List[Finding]:
    """Run the emit pass over one module; returns its flow findings."""
    findings: List[Finding] = []
    _EmitWalker(path, tree, graph, summaries, called, findings)
    return findings
