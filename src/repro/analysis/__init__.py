"""Concurrency-correctness plane for the PapyrusKV reproduction.

Three cooperating layers (see ``docs/analysis.md``):

* :mod:`repro.analysis.pkvlint` — an AST-based static analyzer with
  project-specific rules R001, R002 and R004–R007 (no blocking ``Comm``
  calls under a lock, crash-ordering durability, canonical lock order,
  no swallowed corruption errors, no handler send on the request comm,
  wall-clock taint) — since v2 run *whole-program* over a call graph
  (:mod:`repro.analysis.callgraph`) with a flow-sensitive interpreter
  (:mod:`repro.analysis.flow`).  The wire protocol itself is a table
  checked at import (:data:`repro.core.messages.PROTOCOL`);
* :mod:`repro.analysis.runtime` — an opt-in vector-clock happens-before
  race detector plus a lock-order/deadlock checker, driven by
  instrumented locks and read/write annotations on the shared hot
  structures (MemTables, LRU caches, SSTable-reader caches);
* the ``lint`` and ``race-report`` subcommands of
  :mod:`repro.tools.cli`, which surface both as JSON findings.

Everything is stdlib-only and costs one ``None`` check per hook when
the detector is disabled (the default).
"""

from __future__ import annotations

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.findings import (
    SCHEMA_VERSION,
    Finding,
    findings_to_json,
    is_allowed,
    load_allowlist,
    load_doc,
)
from repro.analysis.flow import Summary, compute_summaries
from repro.analysis.lock_order import (
    LOCK_ORDER,
    LockClass,
    level_of,
    level_of_attr,
    render_lock_table,
    render_threads_map,
)
from repro.analysis.pkvlint import lint_file, lint_paths
from repro.analysis.sarif import findings_to_sarif
from repro.analysis.runtime import (
    RaceDetector,
    annotate_observe,
    annotate_publish,
    annotate_read,
    annotate_write,
    disable,
    enable,
    get_detector,
    make_lock,
    make_rlock,
    maybe_enable_from_env,
)

__all__ = [
    "Finding",
    "SCHEMA_VERSION",
    "findings_to_json",
    "findings_to_sarif",
    "load_doc",
    "load_allowlist",
    "is_allowed",
    "CallGraph",
    "build_call_graph",
    "Summary",
    "compute_summaries",
    "LOCK_ORDER",
    "LockClass",
    "level_of",
    "level_of_attr",
    "render_lock_table",
    "render_threads_map",
    "lint_file",
    "lint_paths",
    "RaceDetector",
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
