"""SARIF 2.1.0 output for pkvlint findings.

``papyruskv lint --format sarif`` emits a minimal, valid SARIF log so
CI can upload it (``github/codeql-action/upload-sarif``) and findings
render as inline annotations on pull requests.  Only the fields the
renderers actually consume are produced: one ``run`` for the tool, a
rule table built from the findings present, and one ``result`` per
finding with its physical location.  Interprocedural call paths are
appended to the message text — SARIF ``codeFlows`` would need column
data the analyzer does not track.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.analysis.findings import Finding

__all__ = ["findings_to_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

#: one-line rule descriptions for the SARIF rule table
_RULE_DESCRIPTIONS: Dict[str, str] = {
    "R001": "No blocking comm call while holding a registered lock"
            " (interprocedural).",
    "R002": "Every persistent write/rename must be ordered behind an"
            " fsync (crash-ordering reachability).",
    "R004": "Registered locks are acquired in the canonical order"
            " (interprocedural).",
    "R005": "No bare except and no silently swallowed CorruptionError.",
    "R006": "The message handler never sends on the request comm.",
    "R007": "Wall-clock values never flow into simtime-governed"
            " scheduling.",
    "SYNTAX": "The file could not be parsed.",
}


def _rule_ids(findings: Sequence[Finding]) -> List[str]:
    seen: List[str] = []
    for f in findings:
        if f.rule not in seen:
            seen.append(f.rule)
    return sorted(seen)


def findings_to_sarif(findings: Sequence[Finding]) -> str:
    """Serialize findings as a SARIF 2.1.0 log (JSON text)."""
    rules = [
        {
            "id": rule,
            "shortDescription": {
                "text": _RULE_DESCRIPTIONS.get(rule, rule),
            },
        }
        for rule in _rule_ids(findings)
    ]
    rule_index = {r["id"]: i for i, r in enumerate(rules)}
    results: List[Dict[str, Any]] = []
    for f in findings:
        text = f.message
        if f.function:
            text = f"[{f.function}] {text}"
        if f.call_path:
            text += " (via " + " -> ".join(f.call_path) + ")"
        result: Dict[str, Any] = {
            "ruleId": f.rule,
            "ruleIndex": rule_index[f.rule],
            "level": "error" if f.rule == "SYNTAX" else "warning",
            "message": {"text": text},
        }
        if f.path:
            result["locations"] = [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path.replace("\\", "/"),
                    },
                    "region": {"startLine": max(f.line, 1)},
                },
            }]
        results.append(result)
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "pkvlint",
                    "informationUri":
                        "https://github.com/ORNL/papyrus",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2)
