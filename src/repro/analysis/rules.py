"""Rule framework: rule catalogue, findings, suppressions, baselines.

A :class:`Rule` is a stable identifier plus severity and a fix hint; a
:class:`Finding` is one concrete violation at a (module, line).  Two
waiver mechanisms exist, both explicit and reviewable:

* an inline comment ``# lint: disable=RULE-ID`` (comma-separate several
  ids, ``disable=all`` for everything) on the offending line — or, when
  the offending line has no room, ``# lint: disable-next=RULE-ID`` on
  the line above, or ``# lint: disable-file=RULE-ID`` anywhere in the
  module to waive a rule for the whole file — ideally followed by a
  justification;
* a JSON baseline file (``load_baseline``/``write_baseline``) granting a
  per-``(rule, module)`` allowance of pre-existing findings, so the CI
  gate can be landed before a legacy tree is fully clean.  The repo's own
  baseline is empty and pinned empty by a test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.schema import Bound, Items, Record, read_json, write_json

__all__ = [
    "Rule",
    "Finding",
    "ALL_RULES",
    "rule",
    "parse_suppressions",
    "apply_suppressions",
    "FILE_SUPPRESSION_LINE",
    "Baseline",
    "load_baseline",
    "write_baseline",
]


@dataclass(frozen=True)
class Rule:
    """One static-analysis rule: stable id, severity, and remediation."""

    id: str
    severity: str  # "error" | "warning"
    summary: str
    fix_hint: str


#: Rule catalogue, id -> Rule (populated by the family modules at import).
ALL_RULES: dict[str, Rule] = {}


def rule(id: str, severity: str, summary: str, fix_hint: str) -> Rule:
    """Register a rule in the catalogue (module-import side effect)."""
    if id in ALL_RULES:
        raise ValueError(f"duplicate rule id {id!r}")
    if severity not in ("error", "warning"):
        raise ValueError(f"bad severity {severity!r} for rule {id!r}")
    r = Rule(id=id, severity=severity, summary=summary, fix_hint=fix_hint)
    ALL_RULES[id] = r
    return r


@dataclass(frozen=True)
class Finding:
    """One violation: rule, location, and a site-specific message."""

    rule_id: str
    module: str
    path: str
    line: int
    message: str

    @property
    def rule(self) -> Rule:
        return ALL_RULES[self.rule_id]

    @property
    def severity(self) -> str:
        return self.rule.severity

    @property
    def fix_hint(self) -> str:
        return self.rule.fix_hint

    def sort_key(self) -> tuple[str, int, str]:
        return (self.module, self.line, self.rule_id)


_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable(?P<form>-next|-file)?=(?P<ids>[A-Za-z0-9_,\- ]+)"
)

#: Pseudo-line key under which file-wide suppressions are stored.
FILE_SUPPRESSION_LINE = 0


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map 1-based line numbers to the rule ids disabled on that line.

    Three forms exist: ``disable=`` waives the comment's own line,
    ``disable-next=`` the line below it, and ``disable-file=`` the whole
    module (stored under :data:`FILE_SUPPRESSION_LINE`).  The special id
    ``all`` disables every rule in scope.
    """
    suppressed: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        ids = {part.strip() for part in match.group("ids").split(",") if part.strip()}
        if not ids:
            continue
        form = match.group("form")
        if form == "-next":
            target = lineno + 1
        elif form == "-file":
            target = FILE_SUPPRESSION_LINE
        else:
            target = lineno
        suppressed.setdefault(target, set()).update(ids)
    return suppressed


def apply_suppressions(
    findings: list[Finding], suppressions: dict[str, dict[int, set[str]]]
) -> tuple[list[Finding], list[Finding]]:
    """Split findings into (kept, suppressed) using per-module line maps."""
    kept: list[Finding] = []
    waived: list[Finding] = []
    for finding in findings:
        line_map = suppressions.get(finding.module, {})
        ids = line_map.get(finding.line, set()) | line_map.get(
            FILE_SUPPRESSION_LINE, set()
        )
        if finding.rule_id in ids or "all" in ids:
            waived.append(finding)
        else:
            kept.append(finding)
    return kept, waived


@dataclass
class Baseline:
    """Reviewed allowance of pre-existing findings per ``(rule, module)``."""

    allowances: dict[tuple[str, str], int] = field(default_factory=dict)

    def filter(self, findings: list[Finding]) -> tuple[list[Finding], list[Finding]]:
        """Split findings into (new, baselined), consuming allowances in
        (module, line) order so the waiver set is deterministic."""
        budget = dict(self.allowances)
        kept: list[Finding] = []
        waived: list[Finding] = []
        for finding in sorted(findings, key=Finding.sort_key):
            key = (finding.rule_id, finding.module)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                waived.append(finding)
            else:
                kept.append(finding)
        return kept, waived

    @property
    def total(self) -> int:
        return sum(self.allowances.values())


BASELINE_SCHEMA = "repro.lint.baseline/v1"
_ENTRY = Record({"rule": str, "module": str}, optional={"count": Bound(int, ge=0)})
BASELINE_DOC = Record({"schema": (BASELINE_SCHEMA,)}, optional={"entries": Items(_ENTRY)})


def load_baseline(path: str) -> Baseline:
    """Read a baseline JSON file written by :func:`write_baseline`."""
    doc = read_json(path, BASELINE_DOC, "repro lint baseline")
    allowances: dict[tuple[str, str], int] = {}
    for entry in doc.get("entries", []):
        key = (entry["rule"], entry["module"])
        allowances[key] = allowances.get(key, 0) + entry.get("count", 1)
    return Baseline(allowances=allowances)


def write_baseline(path: str, findings: list[Finding]) -> dict:
    """Write the current findings as a baseline file; returns the doc."""
    counts: dict[tuple[str, str], int] = {}
    for finding in findings:
        key = (finding.rule_id, finding.module)
        counts[key] = counts.get(key, 0) + 1
    doc = {
        "schema": BASELINE_SCHEMA,
        "entries": [
            {"rule": rule_id, "module": module, "count": count}
            for (rule_id, module), count in sorted(counts.items())
        ],
    }
    write_json(path, doc, BASELINE_DOC)
    return doc
