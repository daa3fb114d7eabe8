"""SARIF 2.1.0 export for lint reports.

SARIF (Static Analysis Results Interchange Format) is the document
format CI forges ingest to annotate findings on changed lines of a pull
request.  ``format_sarif`` renders a :class:`~repro.analysis.linter.
LintReport` as one SARIF run; ``validate_sarif`` structurally checks a
document against ``SARIF_DOC``, the subset of the 2.1.0 schema this
exporter uses (required members and type shapes, in the
:mod:`repro.schema` grammar), plus ``ruleIndex`` referential integrity.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.rules import ALL_RULES
from repro.schema import Bound, Items, Record, errors

__all__ = ["format_sarif", "validate_sarif", "SARIF_SCHEMA_URI", "SARIF_VERSION"]

SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"

_LEVELS = {"error": "error", "warning": "warning"}

# The subset of the 2.1.0 schema this exporter emits and ingestion needs.
_TEXT = Record({"text": str})
_PHYSICAL = Record(
    {"artifactLocation": Record({"uri": str})},
    optional={"region": Record({"startLine": Bound(int, ge=1)})},
)
_RESULT = Record(
    {"ruleId": str, "message": _TEXT},
    optional={"level": ("none", "note", "warning", "error"), "ruleIndex": int,
              "locations": Items(Record({"physicalLocation": _PHYSICAL}))},
)
_DRIVER = Record({"name": str, "rules": Items(Record({"id": str, "shortDescription": _TEXT}))})
_RUN = Record({"tool": Record({"driver": _DRIVER}), "results": Items(_RESULT)})
SARIF_DOC = Record({"version": (SARIF_VERSION,), "$schema": str, "runs": Items(_RUN)})


def format_sarif(report, *, tool_version: str = "0") -> dict:
    """Render a lint report as a SARIF 2.1.0 document (one run)."""
    rule_ids = sorted(ALL_RULES)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    rules = [
        {
            "id": rule_id,
            "shortDescription": {"text": ALL_RULES[rule_id].summary},
            "help": {"text": ALL_RULES[rule_id].fix_hint},
            "defaultConfiguration": {
                "level": _LEVELS.get(ALL_RULES[rule_id].severity, "warning")
            },
        }
        for rule_id in rule_ids
    ]
    results = [
        {
            "ruleId": finding.rule_id,
            "ruleIndex": rule_index[finding.rule_id],
            "level": _LEVELS.get(finding.severity, "warning"),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {"startLine": max(1, finding.line)},
                    }
                }
            ],
        }
        for finding in report.findings
        if finding.rule_id in rule_index
    ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro",
                        "version": tool_version,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def validate_sarif(doc: Any) -> list[str]:
    """Structural schema check; returns a list of violations (empty = valid)."""
    problems = errors(doc, SARIF_DOC)
    for i, run in enumerate([] if problems else doc["runs"]):
        ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        for j, result in enumerate(run["results"]):
            index = result.get("ruleIndex")
            if index is not None and not (0 <= index < len(ids) and ids[index] == result["ruleId"]):
                problems.append(f"$.runs[{i}].results[{j}].ruleIndex: does not point at ruleId")
    return problems
