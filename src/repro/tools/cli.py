"""Command-line interface.

::

    python -m repro.tools.cli inspect <repository-root>
    python -m repro.tools.cli dump <rank-dir> <ssid> [--limit N]
    python -m repro.tools.cli verify <rank-dir> <ssid>
    python -m repro.tools.cli fsck <repository-root>
    python -m repro.tools.cli demo [--ranks N] [--system NAME] [--stats]
    python -m repro.tools.cli systems
    python -m repro.tools.cli lint <paths...> [--format text|json|sarif]
                                   [--allowlist F] [--output F]
    python -m repro.tools.cli race-report [--ranks N] [--ops N] [--json]
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_inspect(args) -> int:
    from repro.tools.dump import inspect_repository

    summaries = inspect_repository(args.root)
    if not summaries:
        print(f"no databases under {args.root}")
        return 1
    for db in summaries:
        print(f"database {db.name!r}  (created with nranks={db.nranks})")
        print(
            f"  totals: {db.total_sstables} SSTables, "
            f"{db.total_records} records, {db.total_bytes} bytes"
        )
        for rank in sorted(db.ranks):
            for t in db.ranks[rank]:
                print(
                    f"  rank {rank:3d}  ssid {t.ssid:6d}  "
                    f"{t.records:6d} recs ({t.tombstones} tombstones)  "
                    f"{t.total_bytes:9d} B  "
                    f"[{t.min_key!r} .. {t.max_key!r}]"
                )
                for blk, i, key in t.block_keys:
                    print(f"{'':12}block {blk:4d} from entry {i:6d}  {key!r}")
    return 0


def _cmd_dump(args) -> int:
    from repro.tools.dump import dump_sstable

    for rec in dump_sstable(args.rank_dir, args.ssid, args.limit):
        marker = " (tombstone)" if rec.tombstone else ""
        print(f"{rec.key!r} -> {rec.value!r}{marker}")
    return 0


def _cmd_verify(args) -> int:
    from repro.tools.dump import verify_sstable

    problems = verify_sstable(args.rank_dir, args.ssid)
    if problems:
        for p in problems:
            print(f"PROBLEM: {p}")
        return 1
    print(f"sstable {args.ssid} in {args.rank_dir}: OK")
    return 0


def _cmd_fsck(args) -> int:
    """Offline integrity check of every SSTable in a repository."""
    from repro.tools.dump import fsck_repository

    report = fsck_repository(args.root)
    if not report:
        print(f"repository {args.root}: all tables verify clean")
        return 0
    for table, problems in sorted(report.items()):
        for p in problems:
            print(f"{table}: {p}")
    print(f"{len(report)} damaged table(s)")
    return 1


def _cmd_demo(args) -> int:
    from repro import Options, Papyrus, spmd_run, system_by_name
    from repro.metrics import database_metrics, format_report

    system = system_by_name(args.system)
    want_stats = getattr(args, "stats", False)

    def app(ctx):
        with Papyrus(ctx) as env:
            db = env.open("demo", Options())
            for i in range(50):
                db.put(f"r{ctx.world_rank}k{i}".encode(), b"demo-value")
            db.barrier()
            hits = sum(
                1 for r in range(ctx.nranks) for i in range(0, 50, 5)
                if db.get_or_none(f"r{r}k{i}".encode()) is not None
            )
            t = ctx.clock.now
            report = format_report(database_metrics(db)) if want_stats else None
            db.close()
            return hits, t, report

    results = spmd_run(args.ranks, app, system=system)
    for rank, (hits, t, report) in enumerate(results):
        print(f"rank {rank}: verified {hits} cross-rank reads, "
              f"virtual time {t * 1e3:.3f} ms")
        if report is not None:
            print(report)
    return 0


_FIGURES = {
    "table2": "bench_table2_systems.py",
    "fig6": "bench_fig6_basic_ops.py",
    "fig7": "bench_fig7_consistency.py",
    "fig8": "bench_fig8_get_opts.py",
    "fig9": "bench_fig9_workloads.py",
    "fig10": "bench_fig10_checkpoint.py",
    "fig11": "bench_fig11_mdhim.py",
    "fig13": "bench_fig13_meraculous.py",
    "ablations": "bench_ablation_design.py",
    "ycsb": "bench_ycsb.py",
    "portability": "bench_portability.py",
    "stability": "bench_stability.py",
}


def _bench_dir() -> str:
    import os

    # repo layout: <root>/src/repro/tools/cli.py and <root>/benchmarks
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "benchmarks")


def _cmd_figure(args) -> int:
    """Regenerate one (or all) of the paper's figures via pytest."""
    import os

    import pytest as _pytest

    targets = (
        list(_FIGURES) if args.name == "all" else [args.name]
    )
    bad = [t for t in targets if t not in _FIGURES]
    if bad:
        print(f"unknown figure(s) {bad}; available: {sorted(_FIGURES)} "
              f"or 'all'")
        return 2
    paths = [os.path.join(_bench_dir(), _FIGURES[t]) for t in targets]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"benchmark files not found: {missing} (source checkout "
              f"required)")
        return 2
    return _pytest.main(paths + ["--benchmark-only", "-q"])


def _cmd_report(args) -> int:
    """Print every saved benchmark result table."""
    import os

    results = os.path.join(_bench_dir(), "results")
    if not os.path.isdir(results):
        print(f"no results directory at {results}; run 'figure all' first")
        return 1
    for fname in sorted(os.listdir(results)):
        if fname.endswith(".txt"):
            with open(os.path.join(results, fname)) as f:
                print(f.read())
    return 0


def _cmd_systems(args) -> int:
    from repro.simtime.profiles import all_systems

    for name, s in sorted(all_systems().items()):
        print(f"{name:10s} {s.site:6s} {s.nvm_arch:9s} "
              f"{s.ranks_per_node:3d} ranks/node  {s.nvm.name}")
    return 0


def _cmd_lint(args) -> int:
    import os

    from repro.analysis import findings_to_json, findings_to_sarif, lint_paths

    allowlist = args.allowlist
    if allowlist is None and os.path.exists(".pkvlint-allow"):
        allowlist = ".pkvlint-allow"
    findings = lint_paths(args.paths, allowlist=allowlist)
    fmt = "json" if args.json else args.format
    if fmt == "json":
        text = findings_to_json(findings)
    elif fmt == "sarif":
        text = findings_to_sarif(findings)
    else:
        lines = [f.render() for f in findings]
        lines.append(f"pkvlint: {len(findings)} finding(s)")
        text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 1 if findings else 0


def _cmd_race_report(args) -> int:
    import json

    from repro.analysis.stress import run_stress

    report = run_stress(nranks=args.ranks, ops_per_rank=args.ops,
                        seed=args.seed)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        s = report["summary"]
        print(
            f"race-report: {s['reads']} reads, {s['writes']} writes, "
            f"{s['acquires']} lock acquires, {s['sends']} sends, "
            f"{s['barriers']} barriers over {s['locations']} locations"
        )
        for f in report["findings"]:
            print(f"  {f['rule']}: {f['message']}")
            for d in f["details"]:
                print(f"      {d}")
        print(f"race-report: {len(report['findings'])} finding(s)")
    return 1 if report["findings"] else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.cli",
        description="PapyrusKV reproduction tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="summarize a repository directory")
    p.add_argument("root")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("dump", help="decode one SSTable's records")
    p.add_argument("rank_dir")
    p.add_argument("ssid", type=int)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=_cmd_dump)

    p = sub.add_parser("verify", help="cross-check one SSTable's files")
    p.add_argument("rank_dir")
    p.add_argument("ssid", type=int)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "fsck", help="verify every SSTable under a repository root"
    )
    p.add_argument("root")
    p.set_defaults(fn=_cmd_fsck)

    p = sub.add_parser("demo", help="run a small SPMD demo")
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--system", default="summitdev")
    p.add_argument("--stats", action="store_true",
                   help="print per-rank operation/cache/read-path counters")
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("systems", help="list modelled platforms")
    p.set_defaults(fn=_cmd_systems)

    p = sub.add_parser(
        "figure", help="regenerate a paper figure (or 'all')"
    )
    p.add_argument("name", help="table2, fig6..fig13, ablations, ycsb, "
                                "portability, or all")
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("report", help="print saved benchmark tables")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "lint", help="run pkvlint (project-specific static rules)"
    )
    p.add_argument("paths", nargs="+", help="files or directories")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text",
                   help="output format (json = findings schema, sarif = "
                        "SARIF 2.1.0 for CI annotations)")
    p.add_argument("--json", action="store_true",
                   help="alias for --format json (back-compat)")
    p.add_argument("--output", default=None,
                   help="write the report to a file instead of stdout")
    p.add_argument("--allowlist", default=None,
                   help="allowlist file (default: .pkvlint-allow if present)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "race-report",
        help="run the detector stress workload and report races",
    )
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--ops", type=int, default=80,
                   help="operations per rank")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", action="store_true",
                   help="machine-readable report (schema v1)")
    p.set_defaults(fn=_cmd_race_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
