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
from repro.scenarios.fuzz import CERTIFICATION_DOC, FINDINGS_DOC, FUZZ_DOC, REPLAY_DOC
from repro.scenarios.service_attack import ATTACK_SWEEP_DOC
from repro.schema import check, errors, print_json, write_json
from repro.service.accounting import SNAPSHOT_DOC
from repro.service.autopilot import LOADSWEEP_DOC

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """``{name: (document, spec)}``: the committed documents plus a fresh
    snapshot, load sweep, SARIF export and ``attack`` reports from the CLI."""
    out = tmp_path_factory.mktemp("documents")
    dirty = out / "dirty.py"
    dirty.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    sarif = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["serve", "--horizon", "5", "--seed", "1", "--format", "json",
                     "--out", str(out / "snapshot.json")]) == 0
        assert main(["serve", "--sweep", "--horizon", "8", "--seed", "4",
                     "--sweep-loads", "0.25,0.5,1.0", "--out", str(out / "sweep.json")]) == 0
        one_cell = ["attack", "withhold-silence", "--app", "wavelet"]
        assert main([*one_cell, "--out", str(out / "certification.json")]) == 0
        assert main([*one_cell, "--fuzz", "--seeds", "0", "--placements", "1",
                     "--out", str(out / "fuzz.json")]) == 0
        assert main(["attack", "--replay", "hostile-source-lint/static/s0/r-1",
                     "--corpus", str(ROOT / "tests/data/scenario_findings.json"),
                     "--out", str(out / "replay.json")]) == 0
        assert main(["attack", "--knee", "--horizon", "2",
                     "--out", str(out / "attacksweep.json")]) == 0
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
        "certification": (load(out / "certification.json"), CERTIFICATION_DOC),
        "fuzz": (load(out / "fuzz.json"), FUZZ_DOC),
        "replay": (load(out / "replay.json"), REPLAY_DOC),
        "attacksweep": (load(out / "attacksweep.json"), ATTACK_SWEEP_DOC),
    }
    assert docs["sarif"][0]["runs"][0]["results"], "the SARIF export must carry results"
    return docs


@pytest.mark.parametrize(
    "name",
    ["bench", "engine", "findings", "snapshot", "sweep", "sarif", "certification",
     "fuzz", "replay", "attacksweep"],
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
     lambda d: d["history"][0]["speedups"].update({"single-loop": {"32x2x1": 1.5}}),
     "$.history[0].speedups['single-loop']['32x2x1']: '32x2x1' does not match"),
    ("nullable bound miss", "fuzz", lambda d: d.update(novel=-1),
     "$.novel: must be >= 0, got -1"),
    ("nested exact record", "certification", lambda d: d["cells"][0].update(gpu=1),
     "$.cells[0]: unexpected fields ['gpu']"),
    ("list item type", "replay", lambda d: d["replays"][0]["mismatches"].append(3),
     "$.replays[0].mismatches[0]: expected str, got int"),
    ("nullable type miss", "attacksweep", lambda d: d["clean"].update(knee_rate_s="x"),
     "$.clean.knee_rate_s: expected float, got str"),
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


def test_print_json_writes_the_same_bytes(tmp_path, capsys):
    doc = {"b": 1.5, "a": [True, None], "c": {"z": "é"}}
    write_json(str(tmp_path / "doc.json"), doc)
    print_json(doc)
    assert capsys.readouterr().out == (tmp_path / "doc.json").read_text(encoding="utf-8")
