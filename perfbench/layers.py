"""Which ``repro`` entry points the traced run wraps, and the per-layer
metrics derived from their spans.

Each layer is named for the ``repro`` module it lives in.  A target is
patched where its callers look it up: a module attribute that another
module bound at import (``spmd.analyze_axis_valid``) is wrapped in both
places, and methods are wrapped on their class.
"""

from __future__ import annotations

import importlib

from perfbench.spans import layer_totals


def _wavelet_result(rec, args, kwargs, result) -> None:
    data = args[0]
    outputs = result if isinstance(result, tuple) else (result,)
    rec.count("wavelet.samples", data.size)
    rec.count("wavelet.bytes", data.nbytes + sum(a.nbytes for a in outputs))


def _engine_result(rec, args, kwargs, run) -> None:
    stats = run.engine_stats
    rec.count("engine.events", stats["events"])
    rec.count("engine.messages", run.messages_sent)
    rec.count("engine.bytes", run.bytes_sent)
    for key in ("route_cache_hits", "route_cache_misses", "path_cache_hits", "path_cache_misses"):
        rec.count(f"network.{key}", stats[key])
    if run.trace is not None:
        rec.count("trace.events", len(run.trace))


def _service_result(rec, args, kwargs, report) -> None:
    rec.count("service.requests", report.snapshot["jobs"]["offered"])


def _allocate_error(rec, args, kwargs, exc) -> None:
    rec.count("partition.allocate_failed")


def _order_result(rec, args, kwargs, result) -> None:
    rec.count("policy.items_ordered", len(args[1]))


# (layer, label, owner path, attribute, on_result, on_error).  An owner
# path "module:Class" names a class attribute.
TARGETS = (
    ("wavelet", "wavelet.analyze_axis", "repro.wavelet.conv", "analyze_axis",
     _wavelet_result, None),
    ("wavelet", "wavelet.analyze_axis_valid", "repro.wavelet.conv", "analyze_axis_valid",
     _wavelet_result, None),
    ("wavelet", "wavelet.analyze_axis_valid", "repro.wavelet.parallel.spmd",
     "analyze_axis_valid", _wavelet_result, None),
    ("wavelet", "wavelet.lifting_analyze_axis", "repro.wavelet.lifting",
     "lifting_analyze_axis", _wavelet_result, None),
    ("wavelet", "wavelet.lifting_analyze_axis_valid", "repro.wavelet.lifting",
     "lifting_analyze_axis_valid", _wavelet_result, None),
    ("wavelet", "wavelet.single_loop_analyze_valid", "repro.wavelet.singleloop",
     "single_loop_analyze_valid", _wavelet_result, None),
    ("simd", "simd.mallat_decompose", "repro.wavelet.parallel", "simd_mallat_decompose",
     None, None),
    ("simd", "simd.mallat_decompose", "repro.wavelet.parallel.simd_mallat",
     "simd_mallat_decompose", None, None),
    ("runtime", "runtime.launch", "repro.runtime", "launch", None, None),
    ("runtime", "runtime.launch", "repro.runtime.exec", "launch", None, None),
    ("runtime", "runtime.execute", "repro.runtime", "execute", None, None),
    ("runtime", "runtime.execute", "repro.runtime.exec", "execute", None, None),
    ("engine", "engine.run", "repro.machines.engine:Engine", "run", _engine_result, None),
    ("network", "network.transfer", "repro.machines.network:ContentionNetwork", "transfer",
     None, None),
    ("service", "service.run", "repro.service.loop:Service", "run", _service_result, None),
    ("service", "service.oracle", "repro.service.workloads:EngineOracle", "service_s",
     None, None),
    ("partition", "partition.allocate", "repro.machines.partition:PartitionManager",
     "allocate", None, _allocate_error),
    ("policy", "policy.order", "repro.runtime.policy:FifoBackfill", "order",
     _order_result, None),
    ("policy", "policy.order", "repro.runtime.policy:WeightedFairShare", "order",
     _order_result, None),
    ("causality", "causality.graph", "repro.machines.causality.graph:HappensBeforeGraph",
     "__init__", None, None),
    ("causality", "causality.races", "repro.machines.causality", "certify_deterministic",
     None, None),
    ("causality", "causality.races", "repro.machines.causality.races",
     "certify_deterministic", None, None),
    ("causality", "causality.critical_path",
     "repro.machines.causality.graph:HappensBeforeGraph", "critical_path", None, None),
)


def resolve_owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def install(recorder) -> None:
    """Wrap every target; :meth:`SpanRecorder.restore` undoes it."""
    for layer, label, owner_path, attr, on_result, on_error in TARGETS:
        recorder.wrap(
            resolve_owner(owner_path), attr, label, layer,
            on_result=on_result, on_error=on_error,
        )


#: Per-layer metrics in report order: name -> unit.
PER_LAYER_UNITS = {
    "wavelet.calls": "count",
    "wavelet.busy_s": "s",
    "wavelet.share": "ratio",
    "wavelet.ns_per_sample": "ns/sample",
    "wavelet.bytes_computed": "B",
    "simd.calls": "count",
    "simd.busy_s": "s",
    "runtime.calls": "count",
    "runtime.self_s": "s",
    "engine.runs": "count",
    "engine.self_s": "s",
    "engine.events": "count",
    "engine.us_per_event": "us/event",
    "engine.messages": "count",
    "engine.bytes": "B",
    "network.transfers": "count",
    "network.busy_s": "s",
    "network.us_per_transfer": "us",
    "network.route_cache_hit_ratio": "ratio",
    "network.path_cache_hit_ratio": "ratio",
    "service.runs": "count",
    "service.self_s": "s",
    "service.requests": "count",
    "service.us_per_request": "us",
    "service.oracle_s": "s",
    "partition.allocate_calls": "count",
    "partition.allocate_failed": "count",
    "partition.allocate_success_ratio": "ratio",
    "partition.busy_s": "s",
    "policy.order_calls": "count",
    "policy.items_ordered": "count",
    "policy.busy_s": "s",
    "causality.graph_s": "s",
    "causality.races_s": "s",
    "causality.critical_path_s": "s",
    "trace.events": "count",
    "trace.overhead_ratio": "ratio",
    "trace.mem_ratio": "ratio",
    "unattributed.s": "s",
    "op_wall_s": "s",
    "tracing.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 where the layer did no work."""
    return num / den if den else 0.0


def per_layer_metrics(recorder, passes: int, setup_reps: int) -> tuple:
    """Per-pass per-layer metrics from the traced ops, plus the self-time
    breakdown ``{layer: self_s}`` whose sum with ``unattributed.s`` is the
    traced op wall time.

    Times and counts are totals over the traced passes divided by
    ``passes``; ``service.oracle_s`` is the oracle's busy time per set-up
    (set-up ran ``setup_reps`` times).  The two ``trace.*`` ratios are
    filled in by the runner where the workload makes a traced run.
    """
    ops = layer_totals(recorder, "op")
    setup = layer_totals(recorder, "setup")
    layers, labels = ops["layers"], ops["labels"]
    counters = recorder.counters.get("op", {})

    def layer(name, key):
        return layers.get(name, {}).get(key, 0.0) / passes

    def label(name, key):
        return labels.get(name, {}).get(key, 0.0) / passes

    def counter(name):
        return counters.get(name, 0) / passes

    wall = ops["roots"]["wall_s"] / passes
    wavelet_busy = layer("wavelet", "busy_s")
    transfers = label("network.transfer", "calls")
    allocs = label("partition.allocate", "calls")
    route = counter("network.route_cache_hits")
    path = counter("network.path_cache_hits")
    service_busy = layer("service", "busy_s")
    metrics = {
        "wavelet.calls": layer("wavelet", "calls"),
        "wavelet.busy_s": wavelet_busy,
        "wavelet.share": _ratio(wavelet_busy, wall),
        "wavelet.ns_per_sample": _ratio(wavelet_busy * 1e9, counter("wavelet.samples")),
        "wavelet.bytes_computed": counter("wavelet.bytes"),
        "simd.calls": layer("simd", "calls"),
        "simd.busy_s": layer("simd", "busy_s"),
        "runtime.calls": layer("runtime", "calls"),
        "runtime.self_s": layer("runtime", "self_s"),
        "engine.runs": layer("engine", "calls"),
        "engine.self_s": layer("engine", "self_s"),
        "engine.events": counter("engine.events"),
        "engine.us_per_event": _ratio(layer("engine", "self_s") * 1e6, counter("engine.events")),
        "engine.messages": counter("engine.messages"),
        "engine.bytes": counter("engine.bytes"),
        "network.transfers": transfers,
        "network.busy_s": layer("network", "busy_s"),
        "network.us_per_transfer": _ratio(layer("network", "busy_s") * 1e6, transfers),
        "network.route_cache_hit_ratio": _ratio(
            route, route + counter("network.route_cache_misses")
        ),
        "network.path_cache_hit_ratio": _ratio(
            path, path + counter("network.path_cache_misses")
        ),
        "service.runs": label("service.run", "calls"),
        "service.self_s": layer("service", "self_s"),
        "service.requests": counter("service.requests"),
        "service.us_per_request": _ratio(service_busy * 1e6, counter("service.requests")),
        "service.oracle_s": setup["labels"].get("service.oracle", {}).get("busy_s", 0.0)
        / setup_reps,
        "partition.allocate_calls": allocs,
        "partition.allocate_failed": counter("partition.allocate_failed"),
        "partition.allocate_success_ratio": _ratio(
            allocs - counter("partition.allocate_failed"), allocs
        ),
        "partition.busy_s": layer("partition", "busy_s"),
        "policy.order_calls": layer("policy", "calls"),
        "policy.items_ordered": counter("policy.items_ordered"),
        "policy.busy_s": layer("policy", "busy_s"),
        "causality.graph_s": label("causality.graph", "busy_s"),
        "causality.races_s": label("causality.races", "busy_s"),
        "causality.critical_path_s": label("causality.critical_path", "busy_s"),
        "trace.events": counter("trace.events"),
        "trace.overhead_ratio": 0.0,
        "trace.mem_ratio": 0.0,
        "unattributed.s": ops["roots"]["self_s"] / passes,
        "op_wall_s": wall,
        "tracing.overhead_s": 0.0,
    }
    breakdown = {name: entry["self_s"] / passes for name, entry in sorted(layers.items())}
    return metrics, breakdown
