"""Output checks: planted wrong outputs must fail and raise error_rate."""

import dataclasses
import json
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, run, workloads
from perfbench.workloads import CheckFailed
from repro.errors import ConfigurationError
from repro.machines.causality import HappensBeforeGraph

ROOT = Path(__file__).resolve().parents[2]


class PlantedWavelet(workloads.PaperWavelet):
    """Two cheap paper_wavelet cells; the second returns a pyramid with one
    coefficient nudged by one ulp."""

    def ops(self, inputs, pass_index):
        keep = ("conv/F2L4/snake/P2", "single-loop/F2L4/naive/P4")
        ops = [op for op in super().ops(inputs, pass_index) if op.name in keep]
        honest = ops[1].call

        def planted():
            execution = honest()
            approx = execution.outcome.pyramid.approximation
            approx[0, 0] = np.nextafter(approx[0, 0], np.inf)
            return execution

        ops[1] = dataclasses.replace(ops[1], call=planted)
        return ops


def test_planted_wrong_pyramid_raises_error_rate(capsys):
    result = run.measure(PlantedWavelet(), seed=0, seconds=0.01, import_s=0.0)
    # warm-up pass + one timed pass, one planted op in each
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert result["correct"] is False
    assert result["doc"]["report_metrics"]["error_rate"] == 0.5
    assert all("differs from mallat_decompose_2d" in f for f in result["failures"])


def test_honest_cells_pass_and_pins_hold():
    workload = workloads.PaperWavelet()
    inputs = workload.make_inputs(7)
    for op in workload.ops(inputs, 0):
        if op.name.endswith("/P2") or op.name.startswith(("maspar", "dec5000")):
            assert op.check(op.call())["events"] >= 0


def test_wrong_virtual_time_fails():
    workload = workloads.PaperWavelet()
    inputs = workload.make_inputs(0)
    op = next(o for o in workload.ops(inputs, 0) if o.name == "maspar/F2L4")
    outcome = op.call()
    outcome.elapsed_s *= 1.0 + 1e-12
    with pytest.raises(CheckFailed, match="pinned"):
        op.check(outcome)


def test_engine_checksum_mismatch_fails():
    inputs = workloads._engine_inputs(3, 16)
    checksum = workloads._host_checksum(inputs["image"], inputs["bank"], 16)
    pinned = workloads.PINS["engine_scale"]["P2048/snake"]
    good = types.SimpleNamespace(results=[checksum], elapsed_s=pinned,
                                 engine_stats={"events": 5})
    assert workloads._check_engine_run(inputs, "engine_scale", "P2048/snake", good) == {
        "events": 5
    }
    bad = types.SimpleNamespace(results=[checksum + 1e-9], elapsed_s=pinned,
                                engine_stats={"events": 5})
    with pytest.raises(CheckFailed, match="host checksum"):
        workloads._check_engine_run(inputs, "engine_scale", "P2048/snake", bad)


def _small_trace(nranks=4):
    inputs = workloads._engine_inputs(0, nranks)
    run_result = workloads._engine_run(inputs, "snake", True)
    assert run_result.results[0] == workloads._host_checksum(
        inputs["image"], inputs["bank"], nranks
    )
    return HappensBeforeGraph(run_result.trace)


def test_linear_vclock_check_agrees_with_pairwise_check():
    graph = _small_trace()
    assert graph.vclocks_consistent()
    workloads.check_vclocks(graph)


def test_tampered_vclock_fails():
    graph = _small_trace()
    i = len(graph.events) // 2
    event = graph.events[i]
    clock = list(event.vclock)
    clock[(event.rank + 1) % len(clock)] += 1
    graph.events[i] = dataclasses.replace(event, vclock=tuple(clock))
    with pytest.raises(CheckFailed, match=f"event {i} "):
        workloads.check_vclocks(graph)


def test_service_point_that_loses_a_job_fails():
    workload = workloads.ServiceSweep()
    inputs = workload.make_inputs(0)
    op = workload.ops(inputs, 1)[0]
    report = op.call()
    record = op.check(report)
    assert record["requests"] == record["point"]["offered"] > 0
    report.snapshot["jobs"]["completed"] -= 1
    with pytest.raises(CheckFailed, match="offered"):
        op.check(report)


def test_service_pass_out_of_order_fails():
    workload = workloads.ServiceSweep()
    records = [{"point": {"offered_load": m, "rate_s": 1.0, "offered": 1, "completed": 1,
                          "shed_rate": 0.0, "p50_turnaround_s": 1.0,
                          "p99_turnaround_s": 1.0, "mean_turnaround_s": 1.0,
                          "utilization": 0.5, "backlog_end": 0, "backlog_peak": 1,
                          "unstable": False}}
               for m in workloads.SWEEP_MULTIPLIERS]
    light = [r for r in records if r["point"]["offered_load"] <= 1.0]
    records += light * (workloads.LIGHT_REPEATS - 1)
    workload.check_pass(records)
    with pytest.raises(CheckFailed, match="points"):
        workload.check_pass(records[:-1])
    records[-len(light):] = light[::-1]
    with pytest.raises(ConfigurationError):
        workload.check_pass(records)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: entry["why"] for name, entry in run.SPEC["workloads"].items()
    }
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS


def test_op_lists_match_the_documented_op_counts():
    for name, workload in workloads.WORKLOADS.items():
        ops = workload.ops(workload.make_inputs(0), 0)
        assert len(ops) == run.SPEC["workloads"][name]["ops_per_pass"], name
        assert len({op.name for op in ops}) == len(ops), name
