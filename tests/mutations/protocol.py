"""The protocol slice of the mutation catalogue.

Each entry plants one fault in ``src/`` with a text patch and names the
one check that must fail on it.  For every entry the script copies the
tree to a temporary directory, applies the patch, runs only that check
with a time bound (a hang counts as caught) and reports whether it
failed.  Each check first runs on an unpatched copy: a check that fails
there catches nothing, and a patch whose text is not in the tree exactly
once is reported, not applied.

    python tests/mutations/protocol.py                # exit 0 iff all caught
    python tests/mutations/protocol.py --only dup_tag
    python tests/mutations/protocol.py --root DIR --check lint

``--root`` runs against another checkout; ``--check`` runs one check
(``import``, ``lint`` or pytest arguments) for every entry instead of
the named ones.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

REPO = Path(__file__).resolve().parents[2]

#: named checks; anything else is a list of pytest arguments
CHECKS: Dict[str, List[str]] = {
    "import": [sys.executable, "-c", "import repro.core.handler"],
    "lint": [sys.executable, "-m", "repro.tools.cli", "lint", "src",
             "--allowlist", ".pkvlint-allow"],
}

MESSAGES = "src/repro/core/messages.py"
HANDLER = "src/repro/core/handler.py"


class Mutation(NamedTuple):
    name: str
    check: str
    path: str
    old: str
    new: str


CATALOGUE: Tuple[Mutation, ...] = (
    Mutation("dup_tag", "import", MESSAGES,
             "Wire(FetchTableReply, 102)", "Wire(FetchTableReply, 100)"),
    Mutation("untagged_msg",
             "tests/analysis/test_docs_sync.py"
             "::test_wire_tags_cover_every_message_class",
             MESSAGES, "class StopMsg:",
             "class PingMsg:\n    seq: int\n\n\n@dataclass\nclass StopMsg:"),
    Mutation("arm_removed", "import", HANDLER,
             "        msg.FetchTableMsg: _serve_fetch_table,\n", ""),
    Mutation("retryable_no_seq", "import", MESSAGES,
             "Wire(HeartbeatMsg, HEARTBEAT, AckMsg, stamped=True)",
             "Wire(HeartbeatMsg, HEARTBEAT, AckMsg, retryable=True,"
             " stamped=True)"),
    Mutation("stamped_no_dead", "import", MESSAGES,
             "    epoch: int\n    dead: Tuple[int, ...] = ()\n"
             "    ping: bool = True\n",
             "    epoch: int\n    ping: bool = True\n"),
    Mutation("dedup_gate_dropped",
             "tests/test_failure_injection.py::TestMutationPlane"
             "::test_applied_exactly_once -k duplicate_carrier",
             HANDLER, "if not db._already_applied(source, m.seq):",
             "if True:"),
    Mutation("get_wrong_reply",
             "tests/analysis/test_protocol_rule.py::TestRequestReply"
             "::test_reply_never_constructed",
             HANDLER, "        msg.GetReply(\n",
             "        msg.FetchTableReply(\n"),
    Mutation("fetch_table_none",
             "tests/core/test_read_path.py::TestRepairLadderPeerCopy",
             HANDLER, "msg.FetchTableReply(blobs, m.seq)",
             "msg.FetchTableReply(None, m.seq)"),
    Mutation("orphan_reply", "import", MESSAGES,
             "Wire(FetchTableMsg, FETCH_TABLE, FetchTableReply)",
             "Wire(FetchTableMsg, FETCH_TABLE)"),
    Mutation("reply_not_a_reply", "import", MESSAGES,
             "Wire(GetMsg, GET, GetReply)", "Wire(GetMsg, GET, StopMsg)"),
    Mutation("handler_sends_on_request_comm", "lint", HANDLER,
             "db.rsp_comm.send(msg.FetchTableReply(",
             "db.srv_comm.send(msg.FetchTableReply("),
    Mutation("unknown_message_ignored",
             "tests/analysis/test_protocol_rule.py::TestCoverage"
             "::test_unknown_message_aborts_the_world",
             HANDLER, "                raise TypeError(\n"
             "                    f\"handler got unexpected message"
             " {m!r}\") from None\n", "                continue\n"),
)


def _copy(root: Path, dest: Path) -> None:
    shutil.copytree(root, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work"))


def _apply(tree: Path, m: Mutation) -> bool:
    target = tree / m.path
    text = target.read_text() if target.exists() else ""
    if text.count(m.old) != 1:
        return False
    target.write_text(text.replace(m.old, m.new))
    return True


def _run(tree: Path, check: str, bound: float) -> Tuple[bool, str, float]:
    """(failed, evidence, seconds) of one check in ``tree``."""
    cmd = CHECKS.get(check) or [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        *check.split()]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=bound)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {bound:.0f} s", bound
    lines = [ln.strip() for ln in (proc.stdout + proc.stderr).splitlines()
             if ln.strip()]
    hits = [ln for ln in lines
            if re.search(r"\w+Error: |\bR\d{3}\b|^FAILED |^E\s+assert", ln)]
    evidence = (hits or lines or [""])[-1][:90]
    return proc.returncode != 0, evidence, time.monotonic() - t0


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=REPO)
    ap.add_argument("--check", help="run this check for every entry")
    ap.add_argument("--only", action="append", help="entry name(s)")
    ap.add_argument("--bound", type=float, default=300.0,
                    help="seconds per check run")
    args = ap.parse_args(argv)
    entries = [m for m in CATALOGUE if not args.only or m.name in args.only]
    clean: Dict[str, bool] = {}
    missed = 0
    print("| mutation | check | result | s | evidence |")
    print("|---|---|---|---|---|")
    with tempfile.TemporaryDirectory(prefix="pkv-mut-") as tmp:
        for m in entries:
            check = args.check or m.check
            if check not in clean:
                base = Path(tmp) / f"clean{len(clean)}"
                _copy(args.root, base)
                clean[check] = not _run(base, check, args.bound)[0]
                shutil.rmtree(base)
            tree = Path(tmp) / m.name
            _copy(args.root, tree)
            if not _apply(tree, m):
                result, evidence, secs = "patch does not apply", "", 0.0
            elif not clean[check]:
                result, evidence, secs = "check fails unpatched", "", 0.0
            else:
                failed, evidence, secs = _run(tree, check, args.bound)
                result = "caught" if failed else "MISSED"
            shutil.rmtree(tree)
            missed += result != "caught"
            print(f"| `{m.name}` | `{check}` | {result} | {secs:.1f} |"
                  f" {evidence.replace('|', '/')} |", flush=True)
    print(f"{len(entries) - missed} of {len(entries)} caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
