"""The declarative document checker (repro.schema) against the repo's
real documents: every schema accepts its document, and one mutation per
grammar node is rejected with the JSON path of the violation."""

import contextlib
import copy
import io
import json
import re
from pathlib import Path

import pytest

from repro.analysis.sarif import SARIF_DOC
from repro.cli import main
from repro.errors import ConfigurationError
from repro.perf.bench import BENCH_DOC
from repro.perf.engine_bench import ENGINE_BENCH_DOC
from repro.scenarios.fuzz import FINDINGS_DOC
from repro.schema import check, errors, write_json
from repro.service.accounting import SNAPSHOT_DOC
from repro.service.autopilot import LOADSWEEP_DOC

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """``{name: (document, spec)}``: the committed documents plus a fresh
    snapshot, load sweep and SARIF export from the CLI."""
    out = tmp_path_factory.mktemp("documents")
    dirty = out / "dirty.py"
    dirty.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    sarif = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["serve", "--horizon", "5", "--seed", "1", "--format", "json",
                     "--out", str(out / "snapshot.json")]) == 0
        assert main(["serve", "--sweep", "--horizon", "8", "--seed", "4",
                     "--sweep-loads", "0.25,0.5,1.0", "--out", str(out / "sweep.json")]) == 0
    with contextlib.redirect_stdout(sarif):
        main(["lint", "--protocol", "--format=sarif", str(dirty)])

    def load(path):
        return json.loads(Path(path).read_text())

    docs = {
        "bench": (load(ROOT / "BENCH_wavelet.json"), BENCH_DOC),
        "engine": (load(ROOT / "BENCH_engine.json"), ENGINE_BENCH_DOC),
        "findings": (load(ROOT / "tests/data/scenario_findings.json"), FINDINGS_DOC),
        "snapshot": (load(out / "snapshot.json"), SNAPSHOT_DOC),
        "sweep": (load(out / "sweep.json"), LOADSWEEP_DOC),
        "sarif": (json.loads(sarif.getvalue()), SARIF_DOC),
    }
    assert docs["sarif"][0]["runs"][0]["results"], "the SARIF export must carry results"
    return docs


@pytest.mark.parametrize(
    "name", ["bench", "engine", "findings", "snapshot", "sweep", "sarif"]
)
def test_schema_accepts_its_real_document(documents, name):
    doc, spec = documents[name]
    assert errors(doc, spec) == []


# (grammar node, document, mutation, the one expected violation)
MUTATIONS = [
    ("wrong type", "bench", lambda d: d["results"][0].update(ns_per_op="fast"),
     "$.results[0].ns_per_op: expected float, got str"),
    ("bool as int", "findings", lambda d: d["findings"][0].update(seed=True),
     "$.findings[0].seed: expected int, got bool"),
    ("missing member", "snapshot", lambda d: d["jobs"].pop("offered"),
     "$.jobs: missing fields ['offered']"),
    ("extra member on exact record", "engine", lambda d: d["results"][0].update(gpu=1),
     "$.results[0]: unexpected fields ['gpu']"),
    ("enum miss", "sarif", lambda d: d.update(version="2.0.0"),
     "$.version: '2.0.0' is not one of ('2.1.0',)"),
    ("bound miss", "sweep", lambda d: d["points"][0].update(shed_rate=1.5),
     "$.points[0].shed_rate: must be <= 1.0, got 1.5"),
    ("list too short", "sweep", lambda d: d.update(points=d["points"][:1]),
     "$.points: needs at least 2 entries, got 1"),
    ("regex miss", "bench",
     lambda d: d["history"][0]["speedups"].update(fused={"32x2x1": 1.5}),
     "$.history[0].speedups['fused']['32x2x1']: '32x2x1' does not match"),
]


@pytest.mark.parametrize(
    "node, name, mutate, expected", MUTATIONS, ids=[m[0] for m in MUTATIONS]
)
def test_single_mutation_is_rejected_with_its_path(documents, node, name, mutate, expected):
    doc = copy.deepcopy(documents[name][0])
    spec = documents[name][1]
    mutate(doc)
    problems = errors(doc, spec)
    assert len(problems) == 1 and expected in problems[0], problems
    with pytest.raises(ConfigurationError, match=re.escape(expected)):
        check(doc, spec, name)


def test_errors_lists_every_violation(documents):
    doc = copy.deepcopy(documents["engine"][0])
    doc["results"][0]["host_s"] = 0.0
    doc["results"][-1]["placement"] = "spiral"
    assert errors(doc, ENGINE_BENCH_DOC) == [
        "$.results[0].host_s: non-positive timing, got 0.0",
        f"$.results[{len(doc['results']) - 1}].placement: 'spiral' is not one of "
        "('snake', 'naive')",
    ]


def test_write_json_byte_format(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"b": 1, "a": [True]})
    assert path.read_text() == '{\n  "a": [\n    true\n  ],\n  "b": 1\n}\n'
