"""End-to-end host-time benchmark for ``repro``, with a separate traced run.

Run from the repository root::

    python3 perfbench/run.py --workload paper_wavelet --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 16

A run makes its inputs from ``--seed`` (three times, keeping the median
time as set-up), runs one untimed warm-up pass over the workload's op
list, then times whole passes until their ops have taken at least
``--seconds`` of wall time.  Times are CPU seconds of the process,
scaled to a nominal host (see ``perfbench/hostspeed.py``); raw CPU and
wall figures go to the result document.  Every op's output is checked
outside the timed region; ``failed`` counts ops that raised or failed
their check.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
public entry points of each ``repro`` layer (see ``perfbench/layers.py``),
runs each pass once untraced and once traced on the same inputs, and
prints per-layer metrics per pass.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller result document with provenance is written under
``.perfbench_out/`` (and, traced, the spans as ``.npz``).

``--workload all`` runs every workload, each in its own fresh process
one after another, and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

#: Ops and set-up are timed in CPU seconds of this (single-threaded)
#: process: on a shared virtual machine, wall time also counts the
#: stretches in which the hypervisor runs someone else, which are the
#: largest source of run-to-run spread.  Wall times go to the result
#: document beside them.
CLOCK = time.process_time

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())
WORKLOAD_NAMES = tuple(SPEC["workloads"])

#: Set-up (input generation) repetitions; set-up time keeps the median.
SETUP_REPS = 3

#: The metrics the final JSON line carries with ``--trace 0``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed and written to the result document, not on the JSON line:
#: ``op_tail_s`` needs 100 ops per run, ``error_rate`` is 0 on a
#: healthy run (``failed``/``attempted`` carry it), and each ``sim_*``
#: rate exists on some workloads only.
REPORT_UNITS = {
    "op_tail_s": "s",
    "sim_events_per_s": "events/s",
    "sim_requests_per_s": "req/s",
    "error_rate": "ratio",
}
TAIL_BEYOND = 10
#: Ops at least this long are followed by a full garbage collection (outside
#: the timer), so one op's cyclic garbage is not collected inside the next;
#: shorter ops share one collection at the end of each pass.
GC_AFTER_OP_S = 0.1


@dataclass
class Tally:
    """Attempted and failed ops across every pass of the run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, where: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{where}: {type(exc).__name__}: {exc}")
            traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)


@dataclass
class PassResult:
    op_groups: list  # Op.group of each op, in order
    op_s: list  # CPU seconds per op
    op_wall_s: list
    op_samples: list  # host-probe samples taken during each op
    completed: int
    sim: dict
    check_s: float
    wall_s: float
    op_nominal_s: list = field(default_factory=list)  # op_s on the nominal host


def run_pass(workload, inputs, pass_index: int, tally: Tally, probe=None,
             recorder=None) -> PassResult:
    """One pass over the workload's ops: time each call, then check its
    output and drop it outside the timer.  A ``probe`` samples the host's
    speed during each call; its own time is taken out of the call's.
    ``recorder`` set means a traced pass: each call is a root span."""
    start = time.perf_counter()
    groups, times, walls, samples, records = [], [], [], [], []
    sim = {"events": 0, "requests": 0}
    completed, check_s = 0, 0.0
    for op in workload.ops(inputs, pass_index):
        tally.attempted += 1
        scope = recorder.root("op") if recorder is not None else nullcontext()
        probing = probe if probe is not None else nullcontext()
        probed = probe.probe_s if probe is not None else 0.0
        sampled = len(probe.samples) if probe is not None else 0
        w0, t0 = time.perf_counter(), CLOCK()
        try:
            with scope, probing:
                out = op.call()
        except Exception as exc:  # an op that raises counts as failed
            out = exc
        if probe is not None:
            probed = probe.probe_s - probed
            samples.append(probe.samples[sampled:])
        times.append(CLOCK() - t0 - probed)
        walls.append(time.perf_counter() - w0 - probed)
        groups.append(op.group)
        if isinstance(out, Exception):
            tally.fail(op.name, out)
            continue
        completed += 1
        c0 = time.perf_counter()
        try:
            record = op.check(out)
        except Exception as exc:  # a wrong output counts as failed
            tally.fail(op.name, exc)
        else:
            records.append(record)
            for key in sim:
                sim[key] += record.get(key, 0)
        del out
        if walls[-1] >= GC_AFTER_OP_S:
            gc.collect()
        check_s += time.perf_counter() - c0
    c0 = time.perf_counter()
    gc.collect()
    if len(records) == len(groups):
        try:
            workload.check_pass(records)
        except Exception as exc:  # the whole pass's output is wrong
            tally.fail(f"pass {pass_index}", exc)
    check_s += time.perf_counter() - c0
    return PassResult(groups, times, walls, samples, completed, sim, check_s,
                      time.perf_counter() - start)


def _group_sums(groups: list, times: list) -> dict:
    sums: dict = {}
    for group, t in zip(groups, times):
        sums[group] = sums.get(group, 0.0) + t
    return sums


def _rates(results: list, field_name: str) -> tuple:
    """``(ops_per_s, op_p50_s, op_median_s)`` from the passes' op times in
    ``field_name``.  ``op_p50_s`` is the median op of the op list, each op
    group taking its median over the passes and repeats: on service_sweep
    a pooled median would sit on the edge between the 0.75x and 1x points
    and jump."""
    per_op: dict = {}
    for r in results:
        for name, t in zip(r.op_groups, getattr(r, field_name)):
            per_op.setdefault(name, []).append(t)
    op_median_s = {name: statistics.median(ts) for name, ts in per_op.items()}
    total_s = sum(t for r in results for t in getattr(r, field_name))
    return (sum(r.completed for r in results) / total_s,
            statistics.median(op_median_s.values()), op_median_s)


def _summary(results: list, field_name: str) -> tuple:
    """Rates from the passes' op times in ``field_name``:
    ``(metrics, op_median_s, op_tail)``."""
    ops_per_s, op_p50_s, op_median_s = _rates(results, field_name)
    op_s = [t for r in results for t in getattr(r, field_name)]
    metrics = {"ops_per_s": ops_per_s, "op_p50_s": op_p50_s}
    op_tail = tail(op_s)
    if op_tail is not None:
        metrics["op_tail_s"] = op_tail[0]
    for key, name in (("events", "sim_events_per_s"), ("requests", "sim_requests_per_s")):
        count = sum(r.sim[key] for r in results)
        if count:
            metrics[name] = count / sum(op_s)
    return metrics, op_median_s, op_tail


def tail(values: list):
    """The highest percentile with at least ``TAIL_BEYOND`` samples above
    it: ``(value, percentile, samples_beyond)``, or ``None`` when that
    percentile would fall below p90 (fewer than ``10 * TAIL_BEYOND``
    samples)."""
    n = len(values)
    if n < 10 * TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _read_git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _read_git_sha(ROOT),
        "argv": list(sys.argv),
        "seed": seed,
    }


def measure(workload, seed: int, seconds: float, import_s: float, recorder=None) -> dict:
    """Set up, warm up, and run the timed (or untraced+traced) passes."""
    from perfbench import layers
    from perfbench.hostspeed import HostProbe, nominal_times

    tally = Tally()
    probe = HostProbe(CLOCK) if recorder is None else None
    input_s = []
    for _ in range(SETUP_REPS):
        scope = recorder.root("setup") if recorder is not None else nullcontext()
        t0 = CLOCK()
        with scope:
            inputs = workload.make_inputs(seed)
        input_s.append(CLOCK() - t0)
    warm = run_pass(workload, inputs, 0, tally, probe)
    warm_s = sum(warm.op_s)
    # Pass counts follow wall time, which is what bounds a run's length.
    warm_wall_s = warm.wall_s - warm.check_s
    doc = {
        "setup": {
            "import_s": import_s,
            "inputs_s": input_s,
            "warmup_s": warm_s,
            "warmup_wall_s": warm_wall_s,
            "warmup_check_wall_s": warm.check_s,
        },
        "warmup_op_s": _group_sums(warm.op_groups, warm.op_s),
    }
    setup_s = import_s + statistics.median(input_s) + warm_s

    if recorder is None:
        results, timed_wall_s = [], 0.0
        while not results or timed_wall_s < seconds:
            results.append(run_pass(workload, inputs, len(results) + 1, tally, probe))
            timed_wall_s += sum(results[-1].op_wall_s)
        passes = len(results)
        # Seconds on the nominal host (see hostspeed.py): each op divides
        # by its window's factor, imports and inputs by the run's.
        factor = probe.factor()
        warm_nominal_s = sum(nominal_times(warm.op_s, warm.op_samples, factor))
        nominal = iter(nominal_times([t for r in results for t in r.op_s],
                                     [x for r in results for x in r.op_samples], factor))
        for r in results:
            r.op_nominal_s = [next(nominal) for _ in r.op_s]
        raw, _, _ = _summary(results, "op_s")
        raw["setup_s"] = setup_s
        scaled, op_median_s, op_tail = _summary(results, "op_nominal_s")
        if op_tail is not None:
            doc["op_tail"] = {"percentile": op_tail[1], "samples_beyond": op_tail[2],
                              "samples": sum(len(r.op_s) for r in results)}
        wall_ops_per_s, wall_op_p50_s, _ = _rates(results, "op_wall_s")
        metrics = {"setup_s": (setup_s - warm_s) / factor + warm_nominal_s,
                   "ops_per_s": scaled["ops_per_s"],
                   "op_p50_s": scaled["op_p50_s"]}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report = {name: scaled[name] for name in REPORT_UNITS if name in scaled}
        report["error_rate"] = tally.failed / tally.attempted
        doc.update({
            "passes": passes,
            "timed_s": sum(t for r in results for t in r.op_s),
            "host_factor": factor,
            "probe_samples": len(probe.samples),
            "raw_metrics": raw,
            "wall_metrics": {"ops_per_s": wall_ops_per_s, "op_p50_s": wall_op_p50_s},
            "check_s": sum(r.check_s for r in results),
            "op_median_s": op_median_s,
            "report_metrics": report,
        })
        units = END_TO_END_UNITS
    else:
        pairs = max(1, int(seconds / max(2 * warm_wall_s, 1e-9)))
        walls = {False: 0.0, True: 0.0}
        for k in range(1, pairs + 1):
            # Alternate which side goes first so drift cancels.
            for traced in ((False, True) if k % 2 else (True, False)):
                r = run_pass(workload, inputs, k, tally, recorder=recorder if traced else None)
                walls[traced] += sum(r.op_wall_s)
        metrics, breakdown = layers.per_layer_metrics(recorder, pairs, SETUP_REPS)
        metrics["tracing.overhead_s"] = (walls[True] - walls[False]) / pairs
        if hasattr(workload, "trace_cost"):
            ratio, mem = workload.trace_cost(inputs)
            metrics["trace.overhead_ratio"] = ratio
            metrics["trace.mem_ratio"] = mem
        accounted = sum(breakdown.values()) + metrics["unattributed.s"]
        if abs(accounted - metrics["op_wall_s"]) > 1e-6 * max(1.0, metrics["op_wall_s"]):
            raise RuntimeError(
                f"span self times sum to {accounted!r}, op wall is {metrics['op_wall_s']!r}"
            )
        doc.update({
            "passes": pairs,
            "untraced_op_s": walls[False] / pairs,
            "traced_op_s": walls[True] / pairs,
            "self_s_by_layer": breakdown,
        })
        units = layers.PER_LAYER_UNITS
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
        "doc": doc,
        "failures": tally.failures,
    }


def _print_report(workload: str, result: dict) -> None:
    doc = result["doc"]
    print(f"workload {workload}: {SPEC['workloads'][workload]['op']}")
    print(f"  passes={doc['passes']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    rows = dict(result["metrics"])
    for name, value in doc.get("report_metrics", {}).items():
        rows[name] = {"value": value, "unit": REPORT_UNITS[name]}
    for name, metric in rows.items():
        print(f"  {name:<34}{metric['value']:>16.6g} {metric['unit']}")
    if "op_tail" in doc:
        t = doc["op_tail"]
        print(f"  (op_tail_s is p{t['percentile']:.1f}: {t['samples_beyond']} of "
              f"{t['samples']} ops beyond it)")
    if "self_s_by_layer" in doc:
        print("  self time per pass by layer:")
        for name, value in doc["self_s_by_layer"].items():
            print(f"    {name:<14}{value:>12.6f} s")
        print(f"    {'unattributed':<14}{rows['unattributed.s']['value']:>12.6f} s")
        print(f"    {'= op wall':<14}{rows['op_wall_s']['value']:>12.6f} s")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers, spans, workloads

    import_s = CLOCK()  # CPU since process start: interpreter and imports
    workload = workloads.WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        layers.install(recorder)
    try:
        result = measure(workload, args.seed, args.seconds, import_s, recorder)
    finally:
        if recorder is not None:
            recorder.restore()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    document = {
        "workload": args.workload,
        "why": SPEC["workloads"][args.workload]["why"],
        "op": SPEC["workloads"][args.workload]["op"],
        "provenance": provenance(args.seed),
        **{key: result[key] for key in ("correct", "attempted", "failed", "metrics", "failures")},
        **result["doc"],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    if recorder is not None:
        recorder.write(str(OUT_DIR / f"spans-{stem}.npz"))

    _print_report(args.workload, result)
    print("provenance: " + json.dumps(document["provenance"], sort_keys=True))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process (set-up time and peak RSS are
    per-process), one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
