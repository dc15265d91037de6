"""The reach map: which of the runs CI makes enter each ``src/`` function.

The script copies the tree to a temporary directory and runs there, under
a tracer, what CI runs:

* ``tier-1``      -- ``pytest tests`` (per test file, see below);
* ``runner``      -- ``python -m benchmarks.runner --quick``;
* ``bench-smoke`` -- the bench files of CI's ``bench-smoke`` job;
* ``lint``        -- ``repro.tools.cli lint src``;
* ``race-report`` -- ``repro.tools.cli race-report``;
* ``suite``       -- every ``benchmarks/bench_*.py`` under
  ``PKV_BENCH_QUICK=1`` (only with ``--suite``).

The tracer is a ``sitecustomize.py`` put first on ``PYTHONPATH``, so every
subprocess a run starts (the runner's children, the examples) is traced
too, and ``threading.settrace`` covers the rank and handler threads.  In
function mode it records every ``src/`` function entered; ``--lines``
also records every line executed.  A pytest plugin names the test file
that entered a function, so for a function only tier-1 reaches the report
lists those files.

    python tests/reach.py              # per-function reach, then totals
    python tests/reach.py --lines      # ... plus executable-line totals
    python tests/reach.py --check      # exit 1 on an unreached function
    python tests/reach.py --save map.json / --load map.json
    python tests/reach.py --source lint    # one source; --root DIR: another tree

``--check`` fails when a function no run enters is not in ``EXEMPT``,
when an ``EXEMPT`` entry names no function, and when a source could not
run at all.  Functions only tier-1 reaches are listed under the ``KEEP``
group that justifies them, or as *unjustified*; ``--check`` fails on an
unjustified one that only its own module's unit tests
(``test_<module>*.py``) reach.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

REPO = Path(__file__).resolve().parents[1]

#: what CI runs, in order: source -> [(arguments to python, environment)]
_PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
#: a bench file's run: pytest-benchmark pauses the main thread's tracer
#: while it times a benchmark, unless benchmarking is disabled (then it
#: calls the function once, untimed)
_BENCH = _PYTEST + ["--benchmark-disable"]
SOURCES: Dict[str, List[Tuple[List[str], Dict[str, str]]]] = {
    "tier-1": [(_PYTEST + ["-p", "reach_plugin", "tests"], {})],
    "runner": [(["-m", "benchmarks.runner", "--quick"], {})],
    "bench-smoke": [
        (_BENCH + ["benchmarks/bench_bulk_ops.py"], {}),
        (_BENCH + ["benchmarks/bench_fig8_get_opts.py"], {}),
        (_BENCH + ["benchmarks/bench_point_ops.py"], {}),
        (_BENCH + ["benchmarks/bench_ablation_design.py", "-k",
                   "compaction"], {}),
        (_BENCH + ["benchmarks/bench_replication.py"],
         {"PKV_BENCH_QUICK": "1"}),
    ],
    "lint": [(["-m", "repro.tools.cli", "lint", "src", "--allowlist",
               ".pkvlint-allow"], {})],
    "race-report": [(["-m", "repro.tools.cli", "race-report"], {})],
}
#: ``--suite``: every bench file
SUITE: List[Tuple[List[str], Dict[str, str]]] = [
    (_BENCH + ["benchmarks", "--ignore=benchmarks/runner"],
     {"PKV_BENCH_QUICK": "1"})]

#: functions no run enters, kept on purpose: ``path:qualname`` -> reason
EXEMPT: Dict[str, str] = {
    "repro/mpi/message.py:Envelope.__repr__": "debug repr",
    "repro/simtime/clock.py:VirtualClock.__repr__": "debug repr",
    "repro/analysis/flow.py:_EmitWalker.visit_AsyncFunctionDef":
        "AST visitor arm for syntax src/ does not use (async def)",
    "repro/analysis/pkvlint.py:_HygieneChecker.visit_AsyncFunctionDef":
        "AST visitor arm for syntax src/ does not use (async def)",
}

#: why a function only tier-1 reaches stays: (``path:qualname`` prefix,
#: group, reason); the report names the group of each such function
KEEP: Tuple[Tuple[str, str, str], ...] = (
    ("repro/core/api.py:", "Table 1 API",
     "the paper's C API (Table 1), one function per call"),
    ("repro/core/events.py:", "Table 1 API",
     "the events papyruskv_wait/test complete (checkpoint, restart)"),
    ("repro/core/db.py:Database.scan_local", "README surfaces",
     "README's scan surface"),
    ("repro/core/db.py:Database.scan_collect", "README surfaces",
     "README's scan surface"),
    ("repro/core/db.py:Database.count_local", "README surfaces",
     "README's scan surface"),
    ("repro/core/scan.py:ScanIterator", "README surfaces",
     "README's scan surface: db.scan() and its iterator"),
    ("repro/core/batch.py:", "README surfaces",
     "README's batch surface (WriteBatch)"),
    ("repro/core/db.py:Database.__", "README surfaces",
     "README's Pythonic mapping surface"),
    ("repro/config.py:options_from_env", "artifact env vars",
     "the artifact's PAPYRUSKV_* environment variables"),
    ("repro/faults.py:", "fault plane",
     "the deterministic fault injection the failure tests drive"),
    ("repro/core/db.py:Database._repair", "repair ladder",
     "heals a damaged table (docs/durability.md)"),
    ("repro/core/db.py:Database._fetch_table", "repair ladder",
     "the ladder's peer-copy rung (docs/durability.md)"),
    ("repro/core/db.py:Database._install_table", "repair ladder",
     "installs what a rung fetched (docs/durability.md)"),
    ("repro/core/db.py:Database._quarantine", "quarantine",
     "fences a table no rung could heal (docs/durability.md)"),
    ("repro/analysis/", "analysis plane",
     "pkvlint, the race detector and the lock-order checker"),
    ("repro/metrics.py:format_report", "format_report",
     "the human-readable metrics report"),
    ("repro/tools/trace.py:", "trace tool",
     "the base for native spans (ROADMAP item 3)"),
    ("repro/tools/", "offline tools",
     "inspect, dump, verify and fsck (docs/architecture.md, "
     "docs/durability.md)"),
    ("repro/apps/", "evaluation models",
     "the evaluation's applications (Figs. 12-13), kept whole"),
    ("repro/baselines/", "evaluation models",
     "the evaluation's baselines (Fig. 11, Table 2), kept whole"),
    ("repro/workloads/", "evaluation models",
     "the evaluation's workload drivers and their result records"),
)

HOOK = '''\
"""Reach-map tracer (written by tests/reach.py)."""
import atexit, json, os, sys, threading

_SRC = {src!r}
_OUT = {out!r}
_LABEL = {label!r}
_LINES = {lines!r}
_calls = {{}}
_lines = set()
_cur = [None]


def set_label(label):
    _cur[0] = _calls.setdefault(label, set())


def _read_label():
    try:
        with open(_LABEL) as f:
            return f.read().strip()
    except OSError:
        return ""


def _local(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _enter(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_SRC):
        key = (code.co_filename, code.co_firstlineno)
        _cur[0].add(key)
        if _LINES:
            _lines.add(key)  # the def line raises no line event
            return _local
    return None


def _dump():
    sys.settrace(None)
    threading.settrace(None)
    n = len(_SRC)
    data = {{"calls": {{k: [[f[n:], l] for f, l in v]
                       for k, v in _calls.items()}},
            "lines": [[f[n:], l] for f, l in _lines]}}
    with open(os.path.join(_OUT, "%d.json" % os.getpid()), "w") as f:
        json.dump(data, f)


set_label(_read_label())
atexit.register(_dump)
sys.settrace(_enter)
threading.settrace(_enter)
'''

PLUGIN = '''\
"""Names the test file that is running (written by tests/reach.py)."""
import sitecustomize

_LABEL = {label!r}


def pytest_runtest_protocol(item, nextitem):
    name = item.nodeid.split("::")[0]
    sitecustomize.set_label(name)
    with open(_LABEL, "w") as f:
        f.write(name)
'''


class Func(NamedTuple):
    path: str          # relative to src/, e.g. repro/core/db.py
    first: int         # co_firstlineno (first decorator line)
    qualname: str
    lines: Tuple[int, ...]


def _code_lines(code) -> Set[int]:
    return {ln for _, _, ln in code.co_lines() if ln is not None}


def _walk(code, parent_lines: Set[int], out: Dict[int, Set[int]],
          funcs: Set[int]) -> None:
    """Attach every code object's lines to its nearest enclosing function
    (lambdas and comprehensions belong to the function they sit in)."""
    own = _code_lines(code)
    if code.co_firstlineno in funcs and code.co_name not in (
            "<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>",
            "<genexpr>"):
        target = out.setdefault(code.co_firstlineno, set())
    else:
        target = parent_lines
    target |= own
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _walk(const, target, out, funcs)


def functions(src: Path) -> Tuple[List[Func], Dict[str, Set[int]]]:
    """Every function under ``src`` and every file's executable lines."""
    result: List[Func] = []
    lines: Dict[str, Set[int]] = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        text = path.read_text()
        tree = ast.parse(text)
        defs: Dict[int, str] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    defs[first] = prefix + child.name
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
        module = compile(text, str(path), "exec")
        per_func: Dict[int, Set[int]] = {}
        module_lines: Set[int] = set()
        _walk(module, module_lines, per_func, set(defs))
        lines[rel] = module_lines.union(*per_func.values())
        for first, qualname in sorted(defs.items()):
            result.append(Func(rel, first, qualname,
                               tuple(sorted(per_func.get(first, ())))))
    return result, lines


def _copy(root: Path, dest: Path) -> None:
    shutil.copytree(root, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work"))


def trace(root: Path, lines: bool, suite: bool, only: List[str]) -> dict:
    """Run every source under the tracer; the merged map."""
    sources = dict(SOURCES, **({"suite": SUITE} if suite else {}))
    if only:
        sources = {k: v for k, v in sources.items() if k in only}
    calls: Dict[str, Dict[str, Set[Tuple[str, int]]]] = {}
    reached: Dict[str, Set[Tuple[str, int]]] = {}
    status: Dict[str, List[int]] = {}
    with tempfile.TemporaryDirectory(prefix="pkv-reach-") as tmp:
        tree = Path(tmp) / "tree"
        _copy(root, tree)
        src = str(tree / "src") + os.sep
        for name, commands in sources.items():
            hook = Path(tmp) / f"hook-{name}"
            out = hook / "out"
            out.mkdir(parents=True)
            label = str(hook / "label")
            (hook / "sitecustomize.py").write_text(HOOK.format(
                src=src, out=str(out), label=label, lines=lines))
            (hook / "reach_plugin.py").write_text(PLUGIN.format(label=label))
            path = os.pathsep.join([str(hook), str(tree / "src"), str(tree)])
            t0 = time.monotonic()
            codes = []
            for argv, extra in commands:
                env = dict(os.environ, PYTHONPATH=path, **extra)
                proc = subprocess.run([sys.executable, *argv], cwd=tree,
                                      env=env, capture_output=True,
                                      text=True)
                codes.append(proc.returncode)
            status[name] = codes
            print(f"# {name}: exit {codes} in "
                  f"{time.monotonic() - t0:.0f} s", file=sys.stderr)
            per_label = calls.setdefault(name, defaultdict(set))
            hit = reached.setdefault(name, set())
            for part in out.glob("*.json"):
                data = json.loads(part.read_text())
                for label_name, keys in data["calls"].items():
                    per_label[label_name].update(map(tuple, keys))
                hit.update(map(tuple, data["lines"]))
    return {
        "status": status,
        "calls": {s: {lab: sorted(k) for lab, k in per.items()}
                  for s, per in calls.items()},
        "lines": {s: sorted(k) for s, k in reached.items()},
    }


def keep_group(f: Func) -> Tuple[str, str]:
    key = f"{f.path}:{f.qualname}"
    for prefix, group, reason in KEEP:
        if key.startswith(prefix):
            return group, reason
    return "", ""


def own_tests(f: Func, files: Set[str]) -> bool:
    """Only the module's own unit tests (``test_<module>*.py``) reach it."""
    stem = Path(f.path).stem
    return bool(files) and all(
        Path(t).stem.startswith(f"test_{stem}") for t in files)


def report(data: dict, src: Path, lines: bool) -> Tuple[List[Func],
                                                       List[Func]]:
    """Print the map; (unreached, unjustified own-unit-only) functions."""
    funcs, exe = functions(src)
    by_func: Dict[Tuple[str, int], Set[str]] = defaultdict(set)
    tests: Dict[Tuple[str, int], Set[str]] = defaultdict(set)
    for source, per_label in data["calls"].items():
        for label, keys in per_label.items():
            for path, line in keys:
                by_func[(path, line)].add(source)
                if source == "tier-1" and label:
                    tests[(path, line)].add(label)
    order = list(SOURCES) + ["suite"]
    unreached: List[Func] = []
    tier1: List[Func] = []
    print("# function reach (source order: " + ", ".join(order) + ")")
    for f in funcs:
        got = by_func.get((f.path, f.first), set())
        tag = " ".join(s for s in order if s in got) or "-"
        print(f"{f.path}:{f.first} {f.qualname}  [{tag}]")
        if not got:
            unreached.append(f)
        elif got == {"tier-1"}:
            tier1.append(f)
    print("\n# only tier-1 reaches these")
    unjustified: List[Func] = []
    for f in tier1:
        group, reason = keep_group(f)
        files = tests[(f.path, f.first)]
        where = group and f"keep: {group} ({reason})"
        if not group and own_tests(f, files):
            where = "UNJUSTIFIED: only its own unit tests"
            unjustified.append(f)
        print(f"{f.path}:{f.first} {f.qualname}  {where or 'tests:'} "
              f"{' '.join(sorted(files))}")
    print("\n# nothing reaches these")
    for f in unreached:
        reason = EXEMPT.get(f"{f.path}:{f.qualname}")
        print(f"{f.path}:{f.first} {f.qualname}"
              f"{'  exempt: ' + reason if reason else ''}")
    print("\n# totals")
    print(f"functions: {len(funcs)}; reached by nothing: {len(unreached)} "
          f"({sum(len(f.lines) for f in unreached)} lines); only tier-1: "
          f"{len(tier1)} ({sum(len(f.lines) for f in tier1)} lines)")
    if lines:
        hit: Dict[Tuple[str, int], Set[str]] = defaultdict(set)
        for source, keys in data["lines"].items():
            for path, line in keys:
                hit[(path, line)].add(source)
        total = none = only = 0
        for path, nums in exe.items():
            for n in nums:
                total += 1
                got = hit.get((path, n), set())
                none += not got
                only += got == {"tier-1"}
        print(f"executable lines: {total}; reached by nothing: {none}; "
              f"only tier-1: {only}")
    for source, codes in data["status"].items():
        if any(codes):
            print(f"note: {source} exited {codes} under the tracer")
    return unreached, unjustified


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=REPO)
    ap.add_argument("--lines", action="store_true",
                    help="trace lines too and print line totals")
    ap.add_argument("--suite", action="store_true",
                    help="also run every benchmarks/bench_*.py")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on an unreached, unexempt function")
    ap.add_argument("--source", action="append", default=[],
                    help="run only this source (repeatable)")
    ap.add_argument("--save", type=Path, help="write the raw map here")
    ap.add_argument("--load", type=Path, help="report a saved map")
    args = ap.parse_args(argv)
    if args.load:
        data = json.loads(args.load.read_text())
    else:
        data = trace(args.root.resolve(), args.lines, args.suite,
                     args.source)
    if args.save:
        args.save.write_text(json.dumps(data))
    unreached, unjustified = report(data, args.root / "src", args.lines)
    if not args.check:
        return 0
    names = {f"{f.path}:{f.qualname}" for f in functions(
        args.root / "src")[0]}
    bad = [f"{f.path}:{f.first} {f.qualname}: reached by nothing"
           for f in unreached if f"{f.path}:{f.qualname}" not in EXEMPT]
    bad += [f"{key}: EXEMPT names no function" for key in EXEMPT
            if key not in names]
    bad += [f"{f.path}:{f.first} {f.qualname}: only its own unit tests "
            "reach it and no KEEP group holds it" for f in unjustified]
    # exit 1 is a failing check (the CI job that runs it says so); >= 2
    # means the run did not happen, so the map is missing a source
    bad += [f"{source} exited {codes}: the map is incomplete"
            for source, codes in data["status"].items()
            if any(c >= 2 or c < 0 for c in codes)]
    for line in bad:
        print("FAIL " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
