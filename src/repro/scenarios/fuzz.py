"""Seeded scenario fuzzer and its persisted findings corpus.

:func:`run_fuzz` sweeps ``(scenario, app, seed, placement)`` tuples
through the certification driver.  Every certified cell is a *finding*;
:func:`merge_findings` folds a fuzz run into a corpus document keeping
only *novel* ones — the first observation of each
``(scenario, app, verdict, layer)`` signature — so the corpus stays a
compact census of observed behaviors rather than a log of every run.

The corpus (``repro.scenarios.findings/v1``) is schema-validated JSON;
``tests/data/scenario_findings.json`` commits one, and
:func:`replay_finding` re-certifies any persisted entry from its
``(scenario, seed, placement)`` key, asserting the verdict, detecting
layer, attack count, and result digest all reproduce bitwise — the
regression loop behind ``python -m repro attack --replay``.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.schema import Bound, Items, Maybe, Record, check, read_json
from repro.scenarios.certify import Certification, certify
from repro.scenarios.registry import APPS, NRANKS, SCENARIOS, get_scenario

__all__ = [
    "FINDINGS_SCHEMA",
    "REPLAY_SCHEMA",
    "FUZZ_SCHEMA",
    "CERTIFICATION_SCHEMA",
    "REPLAY_DOC",
    "FUZZ_DOC",
    "CERTIFICATION_DOC",
    "DEFAULT_SEEDS",
    "DEFAULT_PLACEMENTS",
    "finding_id",
    "finding_from_certification",
    "run_fuzz",
    "empty_corpus",
    "merge_findings",
    "validate_findings",
    "load_corpus",
    "replay_finding",
]

FINDINGS_SCHEMA = "repro.scenarios.findings/v1"

#: Bounded CI-sized sweep axes (the scenario-fuzz job's defaults).
DEFAULT_SEEDS = (0, 1)
DEFAULT_PLACEMENTS = (1, 2)

_FINDING = Record(
    dict(
        id=str, scenario=str, app=str, seed=int, placement=int,
        verdict=("detected", "survived"), layer=str, attacks=int, restarts=int,
        digest=str, reference_digest=str,
    )
)
FINDINGS_DOC = Record(
    dict(schema=(FINDINGS_SCHEMA,), nranks=Bound(int, ge=2), findings=Items(_FINDING))
)

#: The reports ``python -m repro attack`` prints and writes with ``--out``.
REPLAY_SCHEMA = "repro.scenarios.replay/v1"
FUZZ_SCHEMA = "repro.scenarios.fuzz/v1"
CERTIFICATION_SCHEMA = "repro.scenarios.certification/v1"
_COUNT = Bound(int, ge=0)
REPLAY_DOC = Record(
    dict(
        schema=(REPLAY_SCHEMA,), corpus=str, replayed=_COUNT, failures=_COUNT,
        replays=Items(Record(dict(id=str, mismatches=Items(str)), exact=True)),
    ),
    exact=True,
)
FUZZ_DOC = Record(
    dict(
        schema=(FUZZ_SCHEMA,), seeds=Items(int, min=1), placements=Items(int, min=1),
        findings=Items(_FINDING), novel=Maybe(_COUNT),
    ),
    exact=True,
)
CERTIFICATION_DOC = Record(
    dict(
        schema=(CERTIFICATION_SCHEMA,), seed=int, placement=Maybe(int),
        cells=Items(Record(
            dict(_FINDING.required, detail=str, expected_ok=(True, False, None)),
            exact=True,
        )),
        failures=_COUNT,
    ),
    exact=True,
)


def finding_id(scenario_id: str, app: str, seed: int, placement: int) -> str:
    """Stable id a finding replays from: ``scenario/app/sSEED/rPLACEMENT``."""
    return f"{scenario_id}/{app}/s{seed}/r{placement}"


def finding_from_certification(cert: Certification) -> dict:
    """Serialize one certification as a corpus finding."""
    return {
        "id": finding_id(cert.scenario_id, cert.app, cert.seed, cert.placement),
        "scenario": cert.scenario_id,
        "app": cert.app,
        "seed": cert.seed,
        "placement": cert.placement,
        "verdict": cert.verdict,
        "layer": cert.layer,
        "attacks": cert.attacks,
        "restarts": cert.restarts,
        "digest": cert.digest,
        "reference_digest": cert.reference_digest,
    }


def run_fuzz(
    scenario_ids=None,
    apps=APPS,
    seeds=DEFAULT_SEEDS,
    placements=DEFAULT_PLACEMENTS,
    *,
    nranks: int = NRANKS,
) -> list:
    """Sweep the (scenario, app, seed, placement) grid; returns findings.

    Static scenarios have no seed/placement axes and certify once.
    """
    scenarios = (
        SCENARIOS
        if scenario_ids is None
        else tuple(get_scenario(sid) for sid in scenario_ids)
    )
    findings = []
    for scenario in scenarios:
        if scenario.kind == "static":
            findings.append(
                finding_from_certification(certify(scenario, seed=0))
            )
            continue
        for app in apps:
            for seed in seeds:
                for placement in placements:
                    cert = certify(
                        scenario,
                        app,
                        seed=seed,
                        placement=placement,
                        nranks=nranks,
                    )
                    findings.append(finding_from_certification(cert))
    return findings


def empty_corpus(nranks: int = NRANKS) -> dict:
    """A fresh, valid corpus document."""
    return {"schema": FINDINGS_SCHEMA, "nranks": nranks, "findings": []}


def _signature(finding: dict) -> tuple:
    return (
        finding["scenario"],
        finding["app"],
        finding["verdict"],
        finding["layer"],
    )


def merge_findings(corpus: dict, findings: list) -> int:
    """Fold ``findings`` into ``corpus``, keeping novel signatures only.

    Novelty is the first observation of a ``(scenario, app, verdict,
    layer)`` signature.  Returns the number of findings added; the
    corpus's finding list stays sorted by id.
    """
    validate_findings(corpus)
    seen = {_signature(f) for f in corpus["findings"]}
    added = 0
    for finding in findings:
        signature = _signature(finding)
        if signature in seen:
            continue
        seen.add(signature)
        corpus["findings"].append(dict(finding))
        added += 1
    corpus["findings"].sort(key=lambda f: f["id"])
    return added


def validate_findings(doc: dict) -> None:
    """Structural validation of a ``repro.scenarios.findings/v1`` doc."""
    check(doc, FINDINGS_DOC, "findings corpus")
    _check_ids(doc)


def _check_ids(doc: dict) -> None:
    seen_ids = set()
    for finding in doc["findings"]:
        expected_id = finding_id(
            finding["scenario"], finding["app"], finding["seed"], finding["placement"]
        )
        if finding["id"] != expected_id:
            raise ConfigurationError(
                f"finding id {finding['id']!r} does not match its key "
                f"(expected {expected_id!r})"
            )
        if finding["id"] in seen_ids:
            raise ConfigurationError(f"duplicate finding id {finding['id']!r}")
        seen_ids.add(finding["id"])


def load_corpus(path: str) -> dict:
    """Read and validate a findings corpus from ``path``."""
    doc = read_json(path, FINDINGS_DOC, "findings corpus")
    _check_ids(doc)
    return doc


def replay_finding(finding: dict, *, nranks: int | None = None):
    """Re-certify one persisted finding from its (scenario, seed,
    placement) key.

    Returns ``(certification, mismatches)`` where ``mismatches`` lists
    ``field: persisted -> replayed`` strings; empty means the finding
    reproduced bitwise.
    """
    scenario = get_scenario(finding["scenario"])
    if scenario.kind == "static":
        cert = certify(scenario, seed=finding["seed"])
    else:
        cert = certify(
            scenario,
            finding["app"],
            seed=finding["seed"],
            placement=finding["placement"],
            nranks=nranks if nranks is not None else NRANKS,
        )
    replayed = finding_from_certification(cert)
    mismatches = [
        f"{field_name}: {finding[field_name]!r} -> {replayed[field_name]!r}"
        for field_name in sorted(_FINDING.required)
        if replayed[field_name] != finding[field_name]
    ]
    return cert, mismatches
