"""Performance-budget and scalability reporting (the measurement
methodology of Appendix B Section 3).

The per-rank budget itself is collected by the engine
(:class:`repro.machines.engine.RankBudget`); this package adds speedup /
efficiency curves, the uniprocessor extrapolation device, plain-text
rendering of the paper's tables and figures, the wall-clock kernel
benchmark harness (:mod:`repro.perf.bench`), and the engine rank-scaling
benchmark (:mod:`repro.perf.engine_bench`).
"""

from repro.perf.bench import (
    BENCH_SCHEMA,
    VIRTUAL_BENCH_SCHEMA,
    BenchCase,
    default_cases,
    quick_cases,
    run_bench,
    run_virtual_bench,
    validate_bench_document,
)
from repro.perf.engine_bench import (
    DEFAULT_RANKS,
    DEFAULT_WORKLOADS,
    ENGINE_BENCH_SCHEMA,
    format_engine_bench,
    run_engine_case,
    run_engine_sweep,
    validate_engine_bench_document,
)
from repro.perf.metrics import ScalingCurve, ScalingPoint, linear_extrapolate
from repro.perf.report import (
    format_budget,
    format_critical_path,
    format_fault_sweep,
    format_profile,
    format_speedup_series,
    format_table,
    format_timeline,
)

__all__ = [
    "ScalingPoint",
    "ScalingCurve",
    "linear_extrapolate",
    "format_table",
    "format_budget",
    "format_speedup_series",
    "format_timeline",
    "format_profile",
    "format_critical_path",
    "format_fault_sweep",
    "BENCH_SCHEMA",
    "VIRTUAL_BENCH_SCHEMA",
    "BenchCase",
    "default_cases",
    "quick_cases",
    "run_bench",
    "run_virtual_bench",
    "validate_bench_document",
    "ENGINE_BENCH_SCHEMA",
    "DEFAULT_RANKS",
    "DEFAULT_WORKLOADS",
    "run_engine_case",
    "run_engine_sweep",
    "validate_engine_bench_document",
    "format_engine_bench",
]
