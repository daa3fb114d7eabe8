"""Tests for the engine rank-scaling benchmark harness and the scaled
machine specs it sweeps (``scaled_mesh`` / ``scaled_torus``)."""

import copy
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.machines.specs import scaled_mesh, scaled_torus
from repro.perf.engine_bench import (
    DEFAULT_RANKS,
    DEFAULT_WORKLOADS,
    ENGINE_BENCH_SCHEMA,
    format_engine_bench,
    run_engine_case,
    run_engine_sweep,
    validate_engine_bench_document,
)


class TestScaledMesh:
    def test_near_square_power_of_two_width(self):
        machine = scaled_mesh(1024)
        topo = machine.network.topology
        assert (topo.width, topo.height) == (32, 32)
        assert machine.name == "bigmesh-1024p-snake"

    def test_non_square_counts_round_up(self):
        machine = scaled_mesh(96, "naive")
        topo = machine.network.topology
        assert (topo.width, topo.height) == (16, 6)
        assert machine.placement == list(range(96))

    def test_snake_reverses_odd_rows(self):
        assert scaled_mesh(8).placement == [0, 1, 2, 3, 7, 6, 5, 4]

    def test_bad_nranks_raises(self):
        with pytest.raises(ConfigurationError):
            scaled_mesh(0)

    def test_unknown_placement_raises(self):
        with pytest.raises(ConfigurationError):
            scaled_mesh(16, "hilbert")


class TestScaledTorus:
    def test_smallest_power_of_two_cube(self):
        machine = scaled_torus(1000)
        topo = machine.network.topology
        assert (topo.nx, topo.ny, topo.nz) == (16, 16, 16)
        assert machine.name == "bigtorus-1000p"

    def test_small_counts_fit_small_cubes(self):
        topo = scaled_torus(8).network.topology
        assert (topo.nx, topo.ny, topo.nz) == (2, 2, 2)

    def test_bad_nranks_raises(self):
        with pytest.raises(ConfigurationError):
            scaled_torus(0)


class TestEngineBenchCase:
    def test_collect_row_shape(self):
        row = run_engine_case(4, "snake", workload="collect", rounds=1)
        assert row["nranks"] == 4
        assert row["workload"] == "collect"
        assert row["matcher"] == "indexed"
        assert row["events"] > 0 and row["host_s"] > 0 and row["virtual_s"] > 0
        assert row["speedup_vs_linear"] == 0.0  # a lone case has no baseline

    def test_wavelet_matchers_agree_bitwise(self):
        rows = {
            matcher: run_engine_case(
                4, "naive", workload="wavelet", matcher=matcher, rounds=1
            )
            for matcher in ("indexed", "linear")
        }
        assert rows["indexed"]["virtual_s"] == rows["linear"]["virtual_s"]
        assert rows["indexed"]["checksum"] == rows["linear"]["checksum"]

    def test_unknown_workload_raises(self):
        with pytest.raises(ConfigurationError, match="workload"):
            run_engine_case(4, workload="alltoall")

    def test_bad_rounds_raises(self):
        with pytest.raises(ConfigurationError):
            run_engine_case(4, rounds=0)


@pytest.fixture(scope="module")
def small_sweep():
    return run_engine_sweep([2, 4], ("snake",), ("collect",), rounds=1)


class TestEngineBenchSweep:
    def test_defaults(self):
        assert DEFAULT_RANKS == (64, 256, 1024, 4096)
        assert DEFAULT_WORKLOADS == ("wavelet", "collect")

    def test_small_sweep_round_trip(self, small_sweep):
        validate_engine_bench_document(small_sweep)
        assert small_sweep["schema"] == ENGINE_BENCH_SCHEMA
        rows = small_sweep["results"]
        assert len(rows) == 4  # 2 rank counts x (indexed + linear baseline)
        indexed = [r for r in rows if r["matcher"] == "indexed"]
        assert all(r["speedup_vs_linear"] > 0 for r in indexed)

    def test_format_table(self, small_sweep):
        text = format_engine_bench(small_sweep)
        assert "ranks" in text and "collect" in text and "indexed" in text

    def test_baseline_cap_skips_linear(self):
        doc = run_engine_sweep(
            [2, 4], ("snake",), ("collect",), rounds=1, baseline_max_ranks=2
        )
        matchers = {(r["nranks"], r["matcher"]) for r in doc["results"]}
        assert (2, "linear") in matchers
        assert (4, "linear") not in matchers
        capped = [r for r in doc["results"] if r["nranks"] == 4][0]
        assert capped["speedup_vs_linear"] == 0.0
        validate_engine_bench_document(doc)


class TestValidateEngineBench:
    def test_committed_baseline_is_valid(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
        validate_engine_bench_document(json.loads(path.read_text()))

    def test_rejects_non_dict(self):
        with pytest.raises(ConfigurationError):
            validate_engine_bench_document([])

    def test_rejects_wrong_schema(self, small_sweep):
        doc = copy.deepcopy(small_sweep)
        doc["schema"] = "repro.bench.wavelet/v1"
        with pytest.raises(ConfigurationError, match="schema"):
            validate_engine_bench_document(doc)

    def test_rejects_missing_field(self, small_sweep):
        doc = copy.deepcopy(small_sweep)
        del doc["results"][0]["events_per_s"]
        with pytest.raises(ConfigurationError, match="fields"):
            validate_engine_bench_document(doc)

    def test_rejects_unknown_workload(self, small_sweep):
        doc = copy.deepcopy(small_sweep)
        doc["results"][0]["workload"] = "gemm"
        with pytest.raises(ConfigurationError, match="workload"):
            validate_engine_bench_document(doc)

    def test_rejects_non_positive_timing(self, small_sweep):
        doc = copy.deepcopy(small_sweep)
        doc["results"][0]["host_s"] = 0.0
        with pytest.raises(ConfigurationError, match="timing"):
            validate_engine_bench_document(doc)

    def test_rejects_matcher_divergence(self, small_sweep):
        doc = copy.deepcopy(small_sweep)
        linear = [r for r in doc["results"] if r["matcher"] == "linear"][0]
        linear["virtual_s"] += 1.0
        with pytest.raises(ConfigurationError, match="bitwise"):
            validate_engine_bench_document(doc)

    def test_rejects_empty_results(self, small_sweep):
        doc = copy.deepcopy(small_sweep)
        doc["results"] = []
        with pytest.raises(ConfigurationError, match="no results"):
            validate_engine_bench_document(doc)
