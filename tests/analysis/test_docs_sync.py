"""The docs, the allowlist, and the wire protocol table cannot drift."""

from __future__ import annotations

import inspect
from pathlib import Path

import repro.core.messages as messages
from repro.analysis.lock_order import LOCK_ORDER, render_markdown
from repro.analysis.pkvlint import lint_paths

REPO = Path(__file__).resolve().parents[2]

BEGIN = "<!-- lock-order:begin -->"
END = "<!-- lock-order:end -->"


def test_architecture_lock_order_section_is_generated():
    text = (REPO / "docs" / "architecture.md").read_text()
    assert BEGIN in text and END in text
    embedded = text.split(BEGIN, 1)[1].split(END, 1)[0].strip()
    assert embedded == render_markdown().strip()


def _protocol_table() -> str:
    rows = ["| message | tag | reply | retryable | stamped |",
            "|---|---|---|---|---|"]
    for w in messages.PROTOCOL:
        reply = f"`{w.reply.__name__}`" if w.reply else "—"
        rows.append(f"| `{w.cls.__name__}` | {w.tag} | {reply} |"
                    f" {'yes' if w.retryable else ''} |"
                    f" {'yes' if w.stamped else ''} |")
    return "\n".join(rows)


def test_architecture_protocol_section_is_generated():
    text = (REPO / "docs" / "architecture.md").read_text()
    begin, end = "<!-- protocol:begin -->", "<!-- protocol:end -->"
    assert begin in text and end in text
    embedded = text.split(begin, 1)[1].split(end, 1)[0].strip()
    assert embedded == _protocol_table()


def test_lock_order_levels_strictly_increase():
    levels = [lc.level for lc in LOCK_ORDER]
    assert levels == sorted(levels)
    assert len(set(levels)) == len(levels)


def test_source_tree_lints_clean():
    findings = lint_paths(
        [str(REPO / "src")], allowlist=str(REPO / ".pkvlint-allow")
    )
    assert findings == [], "\n".join(f.render() for f in findings)


def test_wire_tags_cover_every_message_class():
    classes = {
        name for name, obj in vars(messages).items()
        if inspect.isclass(obj) and obj.__module__ == messages.__name__
        and (name.endswith("Msg") or name.endswith("Reply"))
    }
    assert set(messages.WIRE_TAGS) == classes
    tags = list(messages.WIRE_TAGS.values())
    assert len(set(tags)) == len(tags), "wire tags must be unique"
    assert all(isinstance(t, int) for t in tags)
