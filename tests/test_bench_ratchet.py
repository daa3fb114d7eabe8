"""Tests for the benchmark speedup ratchet."""

import json
import re

import pytest

from repro.errors import ConfigurationError
from repro.perf.ratchet import (
    check_ratchet,
    compare_bench,
    format_ratchet,
    load_bench,
)


def doc_with(speedups):
    """A minimal bench document: {(kernel, size, filter, levels): speedup}."""
    results = []
    cases = sorted({key[1:] for key in speedups})
    for size, filter_length, levels in cases:
        results.append(
            {
                "kernel": "conv",
                "size": size,
                "filter_length": filter_length,
                "levels": levels,
                "speedup_vs_conv": 1.0,
            }
        )
    for (kernel, size, filter_length, levels), speedup in sorted(speedups.items()):
        results.append(
            {
                "kernel": kernel,
                "size": size,
                "filter_length": filter_length,
                "levels": levels,
                "speedup_vs_conv": speedup,
            }
        )
    return {"results": results}


BASE = doc_with(
    {
        ("single-loop", 256, 4, 2): 2.0,
        ("single-loop", 512, 4, 2): 2.2,
        ("lifting", 256, 4, 2): 1.8,
        ("lifting", 512, 4, 2): 1.9,
    }
)


class TestCompare:
    def test_identical_docs_pass(self):
        report = compare_bench(BASE, BASE, tolerance=0.25)
        assert report["ok"]
        for entry in report["kernels"]:
            assert entry["ratio"] == pytest.approx(1.0)
            assert entry["cases"] == 2

    def test_within_tolerance_passes(self):
        current = doc_with(
            {
                ("single-loop", 256, 4, 2): 1.7,
                ("single-loop", 512, 4, 2): 1.9,
                ("lifting", 256, 4, 2): 1.8,
                ("lifting", 512, 4, 2): 1.9,
            }
        )
        assert compare_bench(current, BASE, tolerance=0.25)["ok"]

    def test_regression_fails(self):
        current = doc_with(
            {
                ("single-loop", 256, 4, 2): 1.0,
                ("single-loop", 512, 4, 2): 1.1,
                ("lifting", 256, 4, 2): 1.8,
                ("lifting", 512, 4, 2): 1.9,
            }
        )
        report = compare_bench(current, BASE, tolerance=0.25)
        assert not report["ok"]
        flagged = {e["kernel"]: e["regressed"] for e in report["kernels"]}
        assert flagged == {"single-loop": True, "lifting": False}
        assert "REGRESSED" in format_ratchet(report)

    def test_improvement_always_passes(self):
        current = doc_with(
            {
                ("single-loop", 256, 4, 2): 5.0,
                ("single-loop", 512, 4, 2): 5.0,
                ("lifting", 256, 4, 2): 5.0,
                ("lifting", 512, 4, 2): 5.0,
            }
        )
        assert compare_bench(current, BASE, tolerance=0.25)["ok"]

    def test_comparison_uses_only_shared_cases(self):
        # Current run covers a subset of the baseline (a --quick run
        # ratcheting against a committed full sweep).
        current = doc_with(
            {("single-loop", 256, 4, 2): 2.0, ("lifting", 256, 4, 2): 1.8}
        )
        report = compare_bench(current, BASE, tolerance=0.25)
        assert report["ok"]
        assert all(e["cases"] == 1 for e in report["kernels"])

    def test_disjoint_cases_skip_not_fail(self):
        current = doc_with({("single-loop", 1024, 8, 1): 0.1})
        report = compare_bench(current, BASE, tolerance=0.25)
        sweep = next(e for e in report["kernels"] if e["kernel"] == "single-loop")
        assert sweep["cases"] == 0 and not sweep["regressed"]
        assert report["ok"]
        assert "skipped" in format_ratchet(report)

    def test_tolerance_validated(self):
        with pytest.raises(ConfigurationError):
            compare_bench(BASE, BASE, tolerance=1.5)


class TestLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(BASE))
        assert check_ratchet(BASE, str(path))["ok"]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_bench(str(tmp_path / "absent.json"))

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"nope\": 1}")
        with pytest.raises(ConfigurationError):
            load_bench(str(path))

    @pytest.mark.parametrize(
        "doc, violation",
        [
            ({"results": [{"size": 256, "filter_length": 4, "levels": 2,
                           "speedup_vs_conv": 1.0}]},
             "$.results[0]: missing fields ['kernel']"),
            ({"results": [{"kernel": "single-loop", "size": "256", "filter_length": 4,
                           "levels": 2, "speedup_vs_conv": 2.0}]},
             "$.results[0].size: expected int, got str"),
            ({"results": [{"kernel": "single-loop", "size": 256, "filter_length": 4,
                           "levels": 2, "speedup_vs_conv": None}]},
             "$.results[0].speedup_vs_conv: expected float, got NoneType"),
            ({**BASE, "history": [{"pr": "PR-1", "speedups": {"single-loop": {"256x4x2": 2.0}}}]},
             "$.history[0].speedups['single-loop']['256x4x2']"),
            ({"schema": "repro.bench.engine/v1",
              "results": [{"nranks": 64, "placement": "snake", "workload": "collect",
                           "speedup_vs_linear": 2.0}]},
             "$.results[0]: missing fields ['matcher']"),
            ({"schema": "repro.bench.engine/v1",
              "results": [{"nranks": "64", "placement": "snake", "workload": "collect",
                           "matcher": "indexed", "speedup_vs_linear": 2.0}]},
             "$.results[0].nranks: expected int, got str"),
        ],
        ids=["wavelet-no-kernel", "wavelet-str-size", "wavelet-null-speedup",
             "wavelet-bad-history-case", "engine-no-matcher", "engine-str-nranks"],
    )
    def test_malformed_row_rejected(self, doc, violation, tmp_path):
        # compare_bench would crash on each of these with a KeyError or
        # TypeError; the loader names the row instead.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match=re.escape(violation)):
            load_bench(str(path))


class TestCommittedBaseline:
    def test_repo_baseline_is_loadable_and_self_consistent(self):
        # The committed artifact must always ratchet cleanly against
        # itself — guards against hand-edits breaking the schema.
        from pathlib import Path

        baseline = Path(__file__).resolve().parent.parent / "BENCH_wavelet.json"
        doc = load_bench(str(baseline))
        report = compare_bench(doc, doc)
        assert report["ok"]
        kernels = {e["kernel"] for e in report["kernels"]}
        assert kernels == {"lifting", "single-loop"}

    def test_repo_baseline_carries_a_history_trajectory(self):
        # Per-PR trajectory entries back the ratchet's high-water mark;
        # the full document must satisfy the bench schema validator.
        from pathlib import Path

        from repro.perf.bench import validate_bench_document

        baseline = Path(__file__).resolve().parent.parent / "BENCH_wavelet.json"
        doc = load_bench(str(baseline))
        validate_bench_document(doc)
        history = doc.get("history")
        assert history, "committed baseline must carry a perf trajectory"
        assert all(entry["pr"] for entry in history)
        assert any("single-loop" in entry["speedups"] for entry in history)


class TestHistory:
    def test_baseline_history_raises_the_bar(self):
        # The snapshot pins 2.0/2.2 but a past PR committed 4.0: the
        # merged baseline is the per-case max, so a current run matching
        # only the snapshot regresses.
        baseline = doc_with(
            {
                ("single-loop", 256, 4, 2): 2.0,
                ("single-loop", 512, 4, 2): 2.2,
            }
        )
        baseline["history"] = [
            {
                "pr": "PR-1",
                "speedups": {"single-loop": {"256/4/2": 4.0, "512/4/2": 4.4}},
            }
        ]
        current = doc_with(
            {
                ("single-loop", 256, 4, 2): 2.0,
                ("single-loop", 512, 4, 2): 2.2,
            }
        )
        report = compare_bench(current, baseline, tolerance=0.25)
        assert not report["ok"]
        sweep = next(e for e in report["kernels"] if e["kernel"] == "single-loop")
        assert sweep["baseline"] == pytest.approx((4.0 * 4.4) ** 0.5)

    def test_history_never_lowers_the_bar(self):
        # A slow history entry is dominated by the snapshot's max.
        baseline = doc_with({("single-loop", 256, 4, 2): 2.0})
        baseline["history"] = [
            {"pr": "PR-1", "speedups": {"single-loop": {"256/4/2": 0.5}}}
        ]
        current = doc_with({("single-loop", 256, 4, 2): 2.0})
        report = compare_bench(current, baseline, tolerance=0.25)
        assert report["ok"]
        sweep = next(e for e in report["kernels"] if e["kernel"] == "single-loop")
        assert sweep["baseline"] == pytest.approx(2.0)

    def test_record_history_carries_prior_and_replaces_same_pr(self):
        from repro.perf.bench import history_entry, record_history, run_bench

        doc = run_bench(
            [__import__("repro.perf.bench", fromlist=["BenchCase"]).BenchCase(32, 2, 1)],
            warmup=0,
            repeats=1,
            trim=0,
            seed=0,
        )
        prior = {
            "history": [
                {"pr": "PR-1", "speedups": {"single-loop": {"32/2/1": 1.5}}},
                {"pr": "PR-2", "speedups": {"single-loop": {"32/2/1": 1.6}}},
            ]
        }
        record_history(doc, "PR-2", prior)
        prs = [entry["pr"] for entry in doc["history"]]
        assert prs == ["PR-1", "PR-2"]
        assert doc["history"][-1] == history_entry(doc, "PR-2")

    def test_malformed_history_rejected(self):
        from repro.perf.bench import validate_bench_document, run_bench, BenchCase

        doc = run_bench([BenchCase(32, 2, 1)], warmup=0, repeats=1, trim=0, seed=0)
        for bad in (
            {"pr": "", "speedups": {"single-loop": {"32/2/1": 1.5}}},
            {"pr": "PR-1", "speedups": {"conv": {"32/2/1": 1.0}}},
            {"pr": "PR-1", "speedups": {"winograd": {"32/2/1": 1.5}}},
            {"pr": "PR-1", "speedups": {"single-loop": {"32x2x1": 1.5}}},
            {"pr": "PR-1", "speedups": {"single-loop": {"32/2/1": -1.0}}},
            {"pr": "PR-1"},
        ):
            doc["history"] = [bad]
            with pytest.raises(ConfigurationError):
                validate_bench_document(doc)


def engine_doc(speedups):
    """A minimal engine-schema document: {(group, nranks): speedup},
    group being "placement/workload".  Each indexed row gets a matching
    zero-speedup linear baseline row, which the aggregation must skip."""
    results = []
    for (group, nranks), speedup in sorted(speedups.items()):
        placement, workload = group.split("/")
        for matcher, value in (("indexed", speedup), ("linear", 0.0)):
            results.append(
                {
                    "nranks": nranks,
                    "placement": placement,
                    "workload": workload,
                    "matcher": matcher,
                    "speedup_vs_linear": value,
                }
            )
    return {"schema": "repro.bench.engine/v1", "results": results}


ENGINE_BASE = engine_doc(
    {
        ("snake/collect", 64): 2.0,
        ("snake/collect", 1024): 9.0,
        ("snake/wavelet", 64): 1.0,
        ("snake/wavelet", 1024): 1.1,
    }
)


class TestEngineRatchet:
    def test_identical_docs_pass(self):
        report = compare_bench(ENGINE_BASE, ENGINE_BASE, tolerance=0.25)
        assert report["ok"]
        groups = {e["kernel"]: e["cases"] for e in report["kernels"]}
        assert groups == {"snake/collect": 2, "snake/wavelet": 2}

    def test_collect_regression_fails(self):
        current = engine_doc(
            {
                ("snake/collect", 64): 1.0,
                ("snake/collect", 1024): 2.0,
                ("snake/wavelet", 64): 1.0,
                ("snake/wavelet", 1024): 1.1,
            }
        )
        report = compare_bench(current, ENGINE_BASE, tolerance=0.25)
        assert not report["ok"]
        flagged = {e["kernel"]: e["regressed"] for e in report["kernels"]}
        assert flagged == {"snake/collect": True, "snake/wavelet": False}

    def test_capped_baseline_rows_are_skipped(self):
        # A --quick current run only covers 64 ranks; the 1024-rank pins
        # in the baseline must not count against it.
        current = engine_doc(
            {("snake/collect", 64): 2.0, ("snake/wavelet", 64): 1.0}
        )
        report = compare_bench(current, ENGINE_BASE, tolerance=0.25)
        assert report["ok"]
        assert all(e["cases"] == 1 for e in report["kernels"])

    def test_zero_speedup_rows_never_aggregate(self):
        # Rows without a measured baseline (speedup 0.0) carry no pin.
        current = engine_doc({("snake/collect", 4096): 0.0})
        report = compare_bench(current, current, tolerance=0.25)
        assert report["ok"] and report["kernels"] == []

    def test_cross_schema_comparison_rejected(self):
        with pytest.raises(ConfigurationError, match="schemas"):
            compare_bench(ENGINE_BASE, BASE)
        with pytest.raises(ConfigurationError, match="schemas"):
            compare_bench(BASE, ENGINE_BASE)

    def test_committed_engine_baseline_if_present(self):
        from pathlib import Path

        baseline = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
        if not baseline.exists():
            pytest.skip("no committed engine baseline")
        doc = load_bench(str(baseline))
        report = compare_bench(doc, doc)
        assert report["ok"]
        # The acceptance bar: the committed sweep must pin at least a 5x
        # fan-in (collect) speedup at 1024 ranks.
        rows = {
            (r["placement"], r["workload"], r["nranks"]): r["speedup_vs_linear"]
            for r in doc["results"]
            if r["matcher"] == "indexed"
        }
        assert rows[("snake", "collect", 1024)] >= 5.0
