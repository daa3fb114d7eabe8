"""Tier-1 checks for the kernel benchmark harness and its JSON schema."""

import copy
import json

import pytest

from repro.cli import build_parser
from repro.errors import ConfigurationError
from repro.perf.bench import (
    BENCH_SCHEMA,
    BenchCase,
    default_cases,
    quick_cases,
    run_bench,
    validate_bench_document,
)
from repro.schema import write_json

TINY = [BenchCase(32, 2, 1), BenchCase(32, 4, 2)]


@pytest.fixture(scope="module")
def tiny_doc():
    return run_bench(TINY, warmup=0, repeats=2, trim=0, seed=0)


def test_default_cases_cover_the_acceptance_point():
    cases = default_cases()
    assert BenchCase(512, 4, 3) in cases
    assert {c.filter_length for c in cases} == {2, 4, 8}
    assert min(c.levels for c in cases) == 1
    assert max(c.levels for c in cases) == 4
    assert {c.size for c in cases} == {256, 512, 1024}


def test_quick_cases_are_small_but_complete():
    cases = quick_cases()
    assert all(c.size <= 256 for c in cases)
    assert {c.filter_length for c in cases} == {2, 4, 8}


def test_run_bench_produces_valid_document(tiny_doc):
    assert tiny_doc["schema"] == BENCH_SCHEMA
    validate_bench_document(tiny_doc)  # no raise
    kernels = {r["kernel"] for r in tiny_doc["results"]}
    assert kernels == {"conv", "lifting", "single-loop"}
    # Every case has one row per kernel.
    assert len(tiny_doc["results"]) == len(TINY) * 3


def test_conv_rows_are_exact_reference(tiny_doc):
    for row in tiny_doc["results"]:
        if row["kernel"] == "conv":
            assert row["speedup_vs_conv"] == 1.0
            assert row["max_abs_vs_conv"] == 0.0


def test_numeric_budgets_hold(tiny_doc):
    for row in tiny_doc["results"]:
        assert row["max_abs_vs_conv"] <= 1e-9
        assert row["round_trip_error"] <= 1e-10


def test_json_round_trip(tiny_doc, tmp_path):
    path = tmp_path / "BENCH_wavelet.json"
    write_json(str(path), tiny_doc)
    loaded = json.loads(path.read_text())
    validate_bench_document(loaded)
    assert loaded == json.loads(json.dumps(tiny_doc))


def test_bench_requires_conv_reference():
    with pytest.raises(ConfigurationError):
        run_bench(TINY, kernels=["lifting"], warmup=0, repeats=1)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(schema="repro.bench.wavelet/v0"),
        lambda d: d.pop("config"),
        lambda d: d.update(results=[]),
        lambda d: d["results"][0].pop("ns_per_op"),
        lambda d: d["results"][0].update(kernel="winograd"),
        lambda d: d["results"][0].update(ns_per_op=-1.0),
        lambda d: d["results"][0].update(ns_per_op="fast"),
        lambda d: d["results"][0].update(max_abs_vs_conv=1e-3),
        lambda d: d["results"][0].update(round_trip_error=1e-3),
        lambda d: d.update(
            results=[r for r in d["results"] if r["kernel"] != "conv"]
        ),
    ],
    ids=[
        "wrong-schema",
        "no-config",
        "no-results",
        "missing-field",
        "unknown-kernel",
        "negative-timing",
        "non-numeric-timing",
        "subband-deviation",
        "round-trip-deviation",
        "missing-conv-row",
    ],
)
def test_validator_rejects_corruption(tiny_doc, mutate):
    doc = copy.deepcopy(tiny_doc)
    mutate(doc)
    with pytest.raises(ConfigurationError):
        validate_bench_document(doc)


def test_cli_parser_has_bench_command():
    args = build_parser().parse_args(
        ["bench", "--quick", "--repeats", "2", "--out", "B.json"]
    )
    assert args.command == "bench"
    assert args.quick and args.repeats == 2 and args.out == "B.json"
