"""Wall-clock kernel benchmark harness (``python -m repro bench``).

Times the sequential 2-D decomposition under each registered kernel
(``conv``/``lifting``/``single-loop``) over a grid of image sizes, filter
lengths, and levels, with warmup iterations and a trimmed mean over
repeats.  Every timed case also records numeric cross-checks — max-abs
deviation of the subbands from the ``conv`` reference and the round-trip
reconstruction error — so a speedup can never silently come from a wrong
answer.

The output document (``BENCH_wavelet.json``) is versioned under the
``repro.bench.wavelet/v1`` schema and checked by
:func:`validate_bench_document`, which the CI smoke job and the tier-1
suite both run.

Documents may also carry a per-PR perf trajectory: an optional
top-level ``history`` list of ``{"pr", "speedups"}`` entries
(:func:`history_entry`), one per pull request that regenerated the
baseline.  The ratchet (:mod:`repro.perf.ratchet`) folds the history
into the baseline — per kernel, per case, the best speedup ever
committed — so a fresh run is compared against the trajectory's high-
water mark, not just the last snapshot.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.schema import Bound, Items, Record, check
from repro.wavelet.plan import KERNEL_NAMES

__all__ = [
    "BENCH_SCHEMA",
    "VIRTUAL_BENCH_SCHEMA",
    "BenchCase",
    "default_cases",
    "history_entry",
    "quick_cases",
    "record_history",
    "run_bench",
    "run_virtual_bench",
    "validate_bench_document",
]

BENCH_SCHEMA = "repro.bench.wavelet/v1"
VIRTUAL_BENCH_SCHEMA = "repro.bench.wavelet-virtual/v1"

# Numeric acceptance budgets: kernels must agree with conv to 1e-9 on the
# subbands and invert to 1e-10 (float64; the documented tolerances).
MAX_ABS_BUDGET = 1e-9
ROUND_TRIP_BUDGET = 1e-10

_TIMING = Bound(float, gt=0, why="non-positive timing")

_CASES = Items(Bound(float, gt=0), key=re.compile(r"\d+/\d+/\d+"), min=1)
#: One per-PR trajectory entry (:func:`history_entry`); conv is omitted
#: because its speedup is 1.0 by construction.
HISTORY_ENTRY = Record(
    dict(
        pr=re.compile(".+"),
        speedups=Items(_CASES, key=tuple(k for k in KERNEL_NAMES if k != "conv"), min=1),
    ),
    exact=True,
)

_RESULT = Record(
    dict(
        size=int, filter_length=int, levels=int, kernel=KERNEL_NAMES,
        ns_per_op=_TIMING, speedup_vs_conv=_TIMING,
        max_abs_vs_conv=Bound(float, le=MAX_ABS_BUDGET),
        round_trip_error=Bound(float, le=ROUND_TRIP_BUDGET), checksum=float,
    ),
    exact=True,
)
BENCH_DOC = Record(
    dict(
        schema=(BENCH_SCHEMA,), config=dict,
        results=Items(_RESULT, min=1, why="no results"),
    ),
    optional={"history": Items(HISTORY_ENTRY)},
)


@dataclass(frozen=True)
class BenchCase:
    """One (image size, filter, depth) benchmark configuration."""

    size: int
    filter_length: int
    levels: int

    @property
    def label(self) -> str:
        """Human-readable case tag (``512x512 F4/L3``)."""
        return f"{self.size}x{self.size} F{self.filter_length}/L{self.levels}"


def default_cases() -> list:
    """The full sweep: 256..1024 squared, Haar/D4/D8, 1-4 levels.

    Includes the acceptance case ``512x512 F4/L3``.
    """
    cases = []
    for size, level_choices in ((256, (1, 4)), (512, (1, 3)), (1024, (1, 2))):
        for filter_length in (2, 4, 8):
            for levels in level_choices:
                cases.append(BenchCase(size, filter_length, levels))
    return cases


def quick_cases() -> list:
    """A CI-sized subset (seconds, not minutes) covering every filter
    length.  A strict subset of :func:`default_cases` so a quick run
    shares cases with (and can ratchet against) a committed full-sweep
    baseline."""
    return [
        BenchCase(256, 2, 1),
        BenchCase(256, 4, 4),
        BenchCase(256, 8, 1),
    ]


def _trimmed_mean_ns(samples: list, trim: int) -> float:
    ordered = sorted(samples)
    if trim > 0 and len(ordered) > 2 * trim:
        ordered = ordered[trim : len(ordered) - trim]
    return float(sum(ordered)) / len(ordered)


def run_bench(
    cases=None,
    kernels=None,
    *,
    warmup: int = 1,
    repeats: int = 5,
    trim: int = 1,
    seed: int = 2024,
) -> dict:
    """Time every (case, kernel) pair and return the schema-versioned
    benchmark document.

    Parameters
    ----------
    cases:
        Iterable of :class:`BenchCase` (default :func:`default_cases`).
    kernels:
        Kernel names to sweep (default: all of
        :data:`repro.wavelet.KERNEL_NAMES`, conv first).
    warmup / repeats / trim:
        Untimed warmup iterations per pair, timed repeats, and how many
        extremes to drop from each end before averaging.
    seed:
        RNG seed for the synthetic input images.
    """
    from repro.wavelet import (
        filter_bank_for_length,
        mallat_decompose_2d,
        mallat_reconstruct_2d,
    )

    if cases is None:
        cases = default_cases()
    if kernels is None:
        kernels = list(KERNEL_NAMES)
    if "conv" not in kernels:
        raise ConfigurationError("bench requires the 'conv' reference kernel")
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")

    rng = np.random.RandomState(seed)
    results = []
    for case in cases:
        image = rng.standard_normal((case.size, case.size))
        bank = filter_bank_for_length(case.filter_length)
        reference = mallat_decompose_2d(image, bank, case.levels)
        ref_bands = [reference.approximation] + [
            band for t in reference.details for band in (t.lh, t.hl, t.hh)
        ]
        conv_ns = None
        for kernel in kernels:
            for _ in range(warmup):
                mallat_decompose_2d(image, bank, case.levels, kernel=kernel)
            samples = []
            pyramid = None
            for _ in range(repeats):
                # Host-clock timing is this harness's entire job; results
                # are reported as measurements, never fed back into runs.
                t0 = time.perf_counter_ns()  # lint: disable=DET-WALL-CLOCK
                pyramid = mallat_decompose_2d(image, bank, case.levels, kernel=kernel)
                samples.append(time.perf_counter_ns() - t0)  # lint: disable=DET-WALL-CLOCK
            ns_per_op = _trimmed_mean_ns(samples, trim)
            if kernel == "conv":
                conv_ns = ns_per_op

            bands = [pyramid.approximation] + [
                band for t in pyramid.details for band in (t.lh, t.hl, t.hh)
            ]
            max_abs = max(
                float(np.abs(got - ref).max())
                for got, ref in zip(bands, ref_bands)
            )
            rec = mallat_reconstruct_2d(pyramid, bank, kernel=kernel)
            round_trip = float(np.abs(rec - image).max())
            results.append(
                {
                    "size": case.size,
                    "filter_length": case.filter_length,
                    "levels": case.levels,
                    "kernel": kernel,
                    "ns_per_op": ns_per_op,
                    "speedup_vs_conv": conv_ns / ns_per_op,
                    "max_abs_vs_conv": max_abs,
                    "round_trip_error": round_trip,
                    "checksum": float(np.abs(pyramid.approximation).sum()),
                }
            )

    doc = {
        "schema": BENCH_SCHEMA,
        "config": {
            "warmup": warmup,
            "repeats": repeats,
            "trim": trim,
            "seed": seed,
            "kernels": list(kernels),
        },
        "results": results,
    }
    validate_bench_document(doc)
    return doc


def run_virtual_bench(
    cases=None,
    kernels=None,
    *,
    machine: str = "paragon",
    nranks: int = 8,
    seed: int = 2024,
) -> dict:
    """Virtual-time counterpart of :func:`run_bench`.

    Every (case, kernel) pair is described as a runtime
    :class:`~repro.runtime.spec.JobSpec` and launched on a simulated
    machine, so the reported seconds are the engine's deterministic
    virtual time (parallel SPMD run, communication included) rather than
    host wall clock — repeats/warmup/trim do not apply.  The document is
    versioned separately (``repro.bench.wavelet-virtual/v1``) because its
    rows carry ``virtual_s`` instead of ``ns_per_op`` and need no numeric
    cross-check columns (the digest-pinned compat tests own those).
    """
    from repro.runtime import JobSpec, RunOptions, launch
    from repro.wavelet import filter_bank_for_length
    from repro.wavelet.parallel.decomposition import StripeDecomposition

    if cases is None:
        cases = quick_cases()
    if kernels is None:
        kernels = list(KERNEL_NAMES)
    if "conv" not in kernels:
        raise ConfigurationError("bench requires the 'conv' reference kernel")

    from repro.errors import DecompositionError

    rng = np.random.RandomState(seed)
    results = []
    skipped = []
    for case in cases:
        image = rng.standard_normal((case.size, case.size))
        bank = filter_bank_for_length(case.filter_length)
        # A case that cannot stripe over ``nranks`` (divisibility or the
        # deepest-level guard requirement) is skipped and recorded, not
        # silently dropped: the wall-clock bench has no such constraint,
        # so the virtual sweep must say which rows it lost.
        try:
            StripeDecomposition(case.size, case.size, nranks, case.levels)
        except DecompositionError as exc:
            skipped.append({"case": case.label, "reason": str(exc)})
            continue
        deepest_rows = case.size // (nranks * 2 ** (case.levels - 1))
        guard = max(len(bank.lowpass), len(bank.highpass))
        if nranks > 1 and deepest_rows < guard:
            skipped.append(
                {
                    "case": case.label,
                    "reason": (
                        f"deepest-level stripe of {deepest_rows} rows is "
                        f"shorter than the {guard}-tap filter support"
                    ),
                }
            )
            continue
        conv_s = None
        case_rows = []
        try:
            for kernel in kernels:
                spec = JobSpec(
                    program="wavelet",
                    params={"image": image, "bank": bank, "levels": case.levels},
                    options=RunOptions(
                        machine=machine, nranks=nranks, kernel=kernel
                    ),
                    name=f"{case.label} {kernel}",
                )
                virtual_s = launch(spec).run.elapsed_s
                if kernel == "conv":
                    conv_s = virtual_s
                case_rows.append(
                    {
                        "size": case.size,
                        "filter_length": case.filter_length,
                        "levels": case.levels,
                        "kernel": kernel,
                        "virtual_s": virtual_s,
                        "speedup_vs_conv": conv_s / virtual_s,
                    }
                )
        except DecompositionError as exc:
            skipped.append({"case": case.label, "reason": str(exc)})
            continue
        results.extend(case_rows)
    return {
        "schema": VIRTUAL_BENCH_SCHEMA,
        "config": {"machine": machine, "nranks": nranks, "seed": seed,
                   "kernels": list(kernels)},
        "results": results,
        "skipped": skipped,
    }


def history_entry(doc: dict, pr: str) -> dict:
    """One perf-trajectory entry from a wall-clock bench document.

    ``{"pr": pr, "speedups": {kernel: {"size/filter/levels": speedup}}}``
    — conv (always 1.0 by construction) is omitted.
    """
    if not isinstance(pr, str) or not pr:
        raise ConfigurationError(f"history pr id must be a non-empty string, got {pr!r}")
    speedups: dict = {}
    for row in doc.get("results", ()):
        if row["kernel"] == "conv":
            continue
        key = f"{row['size']}/{row['filter_length']}/{row['levels']}"
        speedups.setdefault(row["kernel"], {})[key] = float(row["speedup_vs_conv"])
    if not speedups:
        raise ConfigurationError("cannot build a history entry: no non-conv results")
    return {"pr": pr, "speedups": speedups}


def record_history(doc: dict, pr: str, prior: dict | None = None) -> dict:
    """Stamp ``doc`` with the perf trajectory: the prior baseline's
    ``history`` (if any) plus this document's own :func:`history_entry`
    under ``pr``.  An existing entry for the same ``pr`` is replaced (a
    PR may regenerate its baseline several times).  Returns ``doc``.
    """
    carried = list((prior or {}).get("history") or ())
    carried = [entry for entry in carried if entry.get("pr") != pr]
    doc["history"] = carried + [history_entry(doc, pr)]
    validate_bench_document(doc)
    return doc


def validate_bench_document(doc) -> None:
    """Structural + numeric sanity check of a benchmark document.

    Raises :class:`~repro.errors.ConfigurationError` on any violation:
    wrong schema tag, missing/extra result fields, unknown kernels,
    non-positive timings, missing conv reference rows, numeric
    cross-checks outside the documented budgets, or a malformed optional
    ``history`` trajectory (see :func:`history_entry`).
    """
    check(doc, BENCH_DOC, "bench document")
    conv_cases = set()
    all_cases = set()
    for i, row in enumerate(doc["results"]):
        key = (row["size"], row["filter_length"], row["levels"])
        all_cases.add(key)
        if row["kernel"] == "conv":
            conv_cases.add(key)
            if abs(row["speedup_vs_conv"] - 1.0) > 1e-12:
                raise ConfigurationError(
                    f"result {i}: conv speedup_vs_conv must be 1.0"
                )
    missing = all_cases - conv_cases
    if missing:
        raise ConfigurationError(
            f"cases {sorted(missing)} lack a conv reference row"
        )
