"""Benchmark ratchet: fail CI when kernel speedups regress.

A committed ``BENCH_wavelet.json`` baseline pins the speedups the
lifting-family kernels achieved over the conv reference on the machine
that produced it.  :func:`compare_bench` re-aggregates a fresh run
against that baseline — per-kernel geometric mean of
``speedup_vs_conv`` over the *intersection* of benchmark cases, so a
quick CI run ratchets against the matching subset of a full baseline —
and flags any kernel whose mean speedup fell more than ``tolerance``
below the pinned value.

When the baseline carries a per-PR ``history`` trajectory
(:func:`repro.perf.bench.history_entry`), the pinned value per kernel
per case is the *maximum* over the snapshot and every history entry:
the ratchet compares against the best speedup any PR ever committed,
so a regression slipped into one baseline regeneration cannot lower
the bar for the next.

Wall-clock numbers are noisy across hosts, which is why the tolerance is
generous by default (25%) and the comparison is against ratios
(speedup), not absolute ns/op: machine-wide slowdowns cancel out, while
a real kernel regression (lost fusion, broken lifting path) does not.

The same machinery ratchets the engine rank-scaling benchmark
(``BENCH_engine.json``, schema ``repro.bench.engine/v1``): there the
group is ``placement/workload``, the case key is the rank count, and the
pinned ratio is ``speedup_vs_linear`` — the indexed engine's advantage
over the retained pre-optimization matcher.  A document's ``schema`` tag
selects the aggregation; comparing documents of different schemas is a
configuration error, not a silent skip.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.perf.bench import BENCH_DOC
from repro.perf.engine_bench import ENGINE_BENCH_DOC, ENGINE_BENCH_SCHEMA
from repro.schema import Items, Record, check, read_json

__all__ = ["load_bench", "compare_bench", "format_ratchet", "check_ratchet"]


def _only(spec: Record, names: str) -> Record:
    """``spec`` cut down to the row members compare_bench reads, so one
    loader takes wall-clock, virtual-time and engine documents alike."""
    row = spec.required["results"].item.required
    return Record(
        {"results": Items(Record({name: row[name] for name in names.split()}))},
        optional=spec.optional,
    )


_WAVELET_BASELINE = _only(BENCH_DOC, "kernel size filter_length levels speedup_vs_conv")
_ENGINE_BASELINE = _only(ENGINE_BENCH_DOC, "matcher placement workload nranks speedup_vs_linear")


def load_bench(path: str) -> dict:
    """Read a benchmark JSON document and check the members the ratchet
    compares."""
    doc = read_json(path, dict, "benchmark baseline")
    spec = _ENGINE_BASELINE if _is_engine_doc(doc) else _WAVELET_BASELINE
    check(doc, spec, f"{path!r} is not a benchmark baseline")
    return doc


def _case_key(row: dict) -> tuple:
    return (row["size"], row["filter_length"], row["levels"])


def _speedups_by_kernel(doc: dict) -> dict:
    """``{kernel: {case_key: speedup_vs_conv}}``, conv excluded."""
    table: dict = {}
    for row in doc["results"]:
        if row["kernel"] == "conv":
            continue
        table.setdefault(row["kernel"], {})[_case_key(row)] = float(
            row["speedup_vs_conv"]
        )
    return table


def _merge_history(table: dict, doc: dict) -> dict:
    """Fold a baseline's per-PR ``history`` into its speedup table:
    per kernel per case, keep the best speedup ever committed."""
    for entry in doc.get("history") or ():
        for kernel, cases in entry.get("speedups", {}).items():
            dest = table.setdefault(kernel, {})
            for case_key, speedup in cases.items():
                size, filt, levels = (int(p) for p in str(case_key).split("/"))
                key = (size, filt, levels)
                dest[key] = max(dest.get(key, 0.0), float(speedup))
    return table


def _is_engine_doc(doc: dict) -> bool:
    return doc.get("schema") == ENGINE_BENCH_SCHEMA


def _engine_speedups(doc: dict) -> dict:
    """``{placement/workload: {nranks: speedup_vs_linear}}`` from indexed
    rows that carry a measured baseline (``speedup_vs_linear > 0``)."""
    table: dict = {}
    for row in doc["results"]:
        if row["matcher"] != "indexed" or row.get("speedup_vs_linear", 0.0) <= 0:
            continue
        group = f"{row['placement']}/{row['workload']}"
        table.setdefault(group, {})[row["nranks"]] = float(
            row["speedup_vs_linear"]
        )
    return table


def _geomean(values: list) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def compare_bench(current: dict, baseline: dict, *, tolerance: float = 0.25) -> dict:
    """Compare two benchmark documents kernel by kernel.

    Returns ``{"ok": bool, "tolerance": float, "kernels": [...]}`` where
    each kernel entry carries the baseline/current geometric-mean
    speedup over the shared cases, the ratio, and a ``regressed`` flag
    (``current < baseline * (1 - tolerance)``).  Kernels or cases absent
    from either side are skipped (reported with ``cases == 0``), never
    treated as regressions.  A wavelet baseline's per-PR ``history``
    trajectory is folded in first (per kernel per case, the best
    speedup ever committed).
    """
    if not 0.0 <= tolerance < 1.0:
        raise ConfigurationError(
            f"ratchet tolerance must be in [0, 1), got {tolerance}"
        )
    if _is_engine_doc(current) != _is_engine_doc(baseline):
        raise ConfigurationError(
            "cannot ratchet across benchmark schemas: current is "
            f"{current.get('schema')!r}, baseline is {baseline.get('schema')!r}"
        )
    if _is_engine_doc(current):
        current_table = _engine_speedups(current)
        baseline_table = _engine_speedups(baseline)
    else:
        current_table = _speedups_by_kernel(current)
        baseline_table = _merge_history(_speedups_by_kernel(baseline), baseline)
    kernels = []
    ok = True
    for kernel in sorted(set(current_table) | set(baseline_table)):
        shared = sorted(
            set(current_table.get(kernel, {})) & set(baseline_table.get(kernel, {}))
        )
        if not shared:
            kernels.append(
                {
                    "kernel": kernel,
                    "cases": 0,
                    "baseline": None,
                    "current": None,
                    "ratio": None,
                    "regressed": False,
                }
            )
            continue
        base = _geomean([baseline_table[kernel][key] for key in shared])
        cur = _geomean([current_table[kernel][key] for key in shared])
        ratio = cur / base
        regressed = ratio < 1.0 - tolerance
        ok = ok and not regressed
        kernels.append(
            {
                "kernel": kernel,
                "cases": len(shared),
                "baseline": base,
                "current": cur,
                "ratio": ratio,
                "regressed": regressed,
            }
        )
    return {"ok": ok, "tolerance": tolerance, "kernels": kernels}


def format_ratchet(report: dict) -> str:
    """Human-readable ratchet verdict."""
    lines = [
        f"speedup ratchet (tolerance {report['tolerance']:.0%} regression)"
    ]
    for entry in report["kernels"]:
        if entry["cases"] == 0:
            lines.append(f"  {entry['kernel']:<14} no shared cases; skipped")
            continue
        verdict = "REGRESSED" if entry["regressed"] else "ok"
        lines.append(
            f"  {entry['kernel']:<14} baseline {entry['baseline']:.2f}x, "
            f"current {entry['current']:.2f}x over {entry['cases']} case(s) "
            f"({entry['ratio']:.0%}) -> {verdict}"
        )
    lines.append(
        "ratchet passed" if report["ok"] else "ratchet FAILED: speedup regressed"
    )
    return "\n".join(lines)


def check_ratchet(current: dict, baseline_path: str, *, tolerance: float = 0.25) -> dict:
    """Load the baseline, compare, and return the report."""
    return compare_bench(current, load_bench(baseline_path), tolerance=tolerance)
