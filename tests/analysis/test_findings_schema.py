"""Findings schema round-trips and SARIF output."""

from __future__ import annotations

import json

import pytest

from repro.analysis.findings import (
    SCHEMA_VERSION,
    Finding,
    findings_to_json,
    load_doc,
)
from repro.analysis.sarif import findings_to_sarif

F_LOCAL = Finding(
    tool="pkvlint", rule="R005", message="bare except",
    path="src/repro/core/db.py", line=42, function="flush",
)
F_CHAIN = Finding(
    tool="pkvlint", rule="R001", message="blocking comm under _lock",
    path="src/repro/core/db.py", line=7, function="flush_window",
    call_path=("repro.core.db:Database._fan_out", "self.srv_comm.fanout"),
    details=("held: _lock",),
)


class TestSerialization:
    def test_emitted_version_is_2(self):
        doc = json.loads(findings_to_json([F_CHAIN]))
        assert doc["version"] == SCHEMA_VERSION == 2
        assert doc["findings"][0]["call_path"] == list(F_CHAIN.call_path)


class TestRender:
    """The text form ``lint --format text`` prints, one finding a line
    (plus its call chain)."""

    def test_local_finding(self):
        assert F_LOCAL.render() == \
            "src/repro/core/db.py:42: R005 [flush] bare except"

    def test_call_chain_on_a_second_line(self):
        assert F_CHAIN.render().splitlines() == [
            "src/repro/core/db.py:7: R001 [flush_window] blocking comm "
            "under _lock",
            "    via repro.core.db:Database._fan_out -> "
            "self.srv_comm.fanout",
        ]


class TestRoundTrip:
    def test_round_trip_preserves_findings(self):
        text = findings_to_json([F_LOCAL, F_CHAIN])
        assert load_doc(text) == [F_LOCAL, F_CHAIN]

    def test_load_doc_accepts_dict(self):
        doc = json.loads(findings_to_json([F_LOCAL]))
        assert load_doc(doc) == [F_LOCAL]

    @pytest.mark.parametrize("version", [1, 3, None])
    def test_load_doc_rejects_other_versions(self, version):
        with pytest.raises(ValueError):
            load_doc({"version": version, "findings": []})


class TestSarif:
    def test_structure(self):
        doc = json.loads(findings_to_sarif([F_CHAIN, F_LOCAL]))
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "pkvlint"
        # the rule table covers exactly the rules present in the log
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rules == {"R001", "R005"}
        assert len(run["results"]) == 2

    def test_results_reference_rule_table(self):
        doc = json.loads(findings_to_sarif([F_CHAIN]))
        run = doc["runs"][0]
        (res,) = run["results"]
        assert res["ruleId"] == "R001"
        rules = run["tool"]["driver"]["rules"]
        assert rules[res["ruleIndex"]]["id"] == "R001"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == F_CHAIN.path
        assert loc["region"]["startLine"] == F_CHAIN.line

    def test_call_path_rendered_in_message(self):
        doc = json.loads(findings_to_sarif([F_CHAIN]))
        text = doc["runs"][0]["results"][0]["message"]["text"]
        assert "via" in text and "_fan_out" in text

    def test_syntax_findings_are_errors(self):
        bad = Finding(tool="pkvlint", rule="SYNTAX", message="boom",
                      path="x.py", line=0)
        doc = json.loads(findings_to_sarif([bad, F_LOCAL]))
        levels = {r["ruleId"]: r["level"]
                  for r in doc["runs"][0]["results"]}
        assert levels == {"SYNTAX": "error", "R005": "warning"}

    def test_zero_line_clamped_to_one(self):
        bad = Finding(tool="pkvlint", rule="SYNTAX", message="boom",
                      path="x.py", line=0)
        doc = json.loads(findings_to_sarif([bad]))
        loc = doc["runs"][0]["results"][0]["locations"][0]
        assert loc["physicalLocation"]["region"]["startLine"] == 1
