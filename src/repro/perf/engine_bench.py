"""Engine rank-scaling benchmark: the paper's placement study at 1k-4k ranks.

The kernel benchmark (:mod:`repro.perf.bench`) measures the wavelet *math*;
this harness measures the *simulator* — how fast the discrete-event engine
retires operations as the rank count grows.  Each case runs one of two
workloads on a :func:`~repro.machines.specs.scaled_mesh`, under both the
indexed matcher (the production configuration) and the retained linear
matcher (the pre-optimization baseline), and reports events/sec,
virtual-vs-host time, and peak RSS per configuration:

``"wavelet"``
    The paper's Section 5.1 striped-wavelet placement experiment end to
    end (distribute, per-level boundary exchange, collect at rank 0),
    capped by a tree broadcast and a Rabenseifner allreduce so the
    hierarchical collectives run at full scale.  Dominated by per-rank
    filter math and route computation, so it bounds the *end-to-end*
    engine gain.
``"collect"``
    The collect stage of a three-level decomposition isolated: every
    rank ships its four sub-band pieces to rank 0 under distinct tags.
    Rank 0's mailbox holds ``4*(P-1)`` channels, so the pre-PR linear
    matcher scans O(P) queues per receive — the O(P^2) hot path the
    exact-key index removes.  This row is where the matcher speedup is
    measured.

Both engine configurations are bitwise-equivalent by construction; the
harness enforces it by cross-checking elapsed virtual time and the
collected-image checksum between the two, so a speedup number can never
come from a behavioral divergence.

Results serialize under the ``repro.bench.engine/v1`` schema; the CI
ratchet (:func:`repro.perf.ratchet.check_ratchet`) compares the geometric
mean of ``speedup_vs_linear`` per placement against the committed
``BENCH_engine.json`` so matching/contention regressions fail the build.

Host timings vary with the machine running the suite; speedups are timing
*ratios* on the same host and workload, so host speed cancels out — the
same reasoning the kernel ratchet uses.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from repro.errors import ConfigurationError
from repro.machines.tags import ENGINE_BENCH_TAG_BASE as _COLLECT_TAG_BASE

__all__ = [
    "ENGINE_BENCH_SCHEMA",
    "DEFAULT_RANKS",
    "DEFAULT_WORKLOADS",
    "engine_scale_program",
    "collect_stage_program",
    "run_engine_case",
    "run_engine_sweep",
    "validate_engine_bench_document",
]

ENGINE_BENCH_SCHEMA = "repro.bench.engine/v1"

#: The paper's study stops at 64 (the JPL Paragon cabinet); the sweep
#: extends it three doublings of mesh side beyond that.
DEFAULT_RANKS = (64, 256, 1024, 4096)

DEFAULT_WORKLOADS = ("wavelet", "collect")

_PLACEMENTS = ("snake", "naive")
_MATCHERS = ("indexed", "linear")
_WORKLOADS = DEFAULT_WORKLOADS

#: Sub-band messages per rank in the collect workload: approx plus three
#: detail bands, i.e. the output of a three-level decomposition.
_COLLECT_BANDS = 4

_RESULT_FIELDS = {
    "nranks": int,
    "placement": str,
    "workload": str,
    "matcher": str,
    "rounds": int,
    "events": int,
    "host_s": float,
    "virtual_s": float,
    "events_per_s": float,
    "peak_rss_kb": int,
    "contention_s": float,
    "messages": int,
    "checksum": float,
    "speedup_vs_linear": float,  # 0.0 on baseline rows / unbaselined runs
}


def _bench_image(rows: int, cols: int) -> np.ndarray:
    """Deterministic synthetic scene (no RNG: the engine benchmark must
    be a pure function of its arguments)."""
    r = np.arange(rows, dtype=np.float64)[:, None]
    c = np.arange(cols, dtype=np.float64)[None, :]
    return (r * 3.0 + c * 7.0) % 17.0


def engine_scale_program(ctx, image, bank, levels, decomp, rounds, collective):
    """Rank program for one scale case: ``rounds`` full striped-wavelet
    decompositions (distribute + boundary exchange + collect), capped by
    a tree broadcast and a ``collective``-selected allreduce of the
    checksum so the hierarchical collectives run at full scale too."""
    from repro.machines.api import broadcast_tree, get_allreduce
    from repro.wavelet.parallel.spmd import striped_wavelet_program

    allred = get_allreduce(collective)
    checksum = 0.0
    for _ in range(rounds):
        gathered = yield from striped_wavelet_program(ctx, image, bank, levels, decomp)
        if ctx.rank == 0:
            checksum = float(np.sum(gathered[0]["approx"]))
    checksum = yield from broadcast_tree(ctx, checksum, root=0)
    vec = np.full(max(ctx.nranks, 2), checksum / max(ctx.nranks, 1))
    total = yield from allred(ctx, vec)
    return float(total[0])


def collect_stage_program(ctx, rows, cols, bands, rounds):
    """The collect stage of a ``bands - 1``-level striped decomposition,
    isolated: every rank ships its ``bands`` sub-band pieces to rank 0
    under distinct tags, ``rounds`` times.  Per-event host work is tiny,
    so engine time is dominated by message matching at rank 0 — the
    pre-PR linear scan's worst case."""
    pieces = [
        (np.arange(float(rows * cols)).reshape(rows, cols) * (ctx.rank + b + 1))
        % 17.0
        for b in range(bands)
    ]
    total = 0.0
    for _ in range(rounds):
        if ctx.rank == 0:
            acc = float(pieces[0][0, 0])
            for src in range(1, ctx.nranks):
                for b in range(bands):
                    piece = yield ctx.recv(src, tag=_COLLECT_TAG_BASE + b)
                    acc += float(piece[0, 0])
            total = acc
        else:
            for b in range(bands):
                yield ctx.send(0, pieces[b], tag=_COLLECT_TAG_BASE + b)
    return total


def run_engine_case(
    nranks: int,
    placement: str = "snake",
    *,
    workload: str = "wavelet",
    matcher: str = "indexed",
    rounds: int = 2,
    rows_per_rank: int = 4,
    cols: int = 16,
    levels: int = 1,
    filter_length: int = 4,
    collective: str = "rabenseifner",
) -> dict:
    """Run one (nranks, placement, workload, matcher) configuration and
    measure it.

    The two matchers share one contention network, so a linear row differs
    from its indexed row only in the matcher.  ``peak_rss_kb`` is the
    process high-water mark (monotone across cases in one process:
    comparable within a sweep, not per-case exact).
    """
    from repro.machines.engine import Engine
    from repro.machines.specs import scaled_mesh

    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    if workload not in _WORKLOADS:
        raise ConfigurationError(
            f"unknown engine bench workload {workload!r}; use one of {_WORKLOADS}"
        )
    machine = scaled_mesh(nranks, placement)
    engine = Engine(machine, matcher=matcher)

    if workload == "wavelet":
        from repro.wavelet import filter_bank_for_length
        from repro.wavelet.parallel.decomposition import StripeDecomposition

        bank = filter_bank_for_length(filter_length)
        rows = rows_per_rank * nranks
        image = _bench_image(rows, cols)
        decomp = StripeDecomposition(rows, cols, nranks, levels)
        prog_args = (engine_scale_program, image, bank, levels, decomp, rounds, collective)
    else:
        prog_args = (collect_stage_program, 2, cols, _COLLECT_BANDS, rounds)

    t0 = time.perf_counter()  # lint: disable=DET-WALL-CLOCK
    run = engine.run(*prog_args)
    host_s = time.perf_counter() - t0  # lint: disable=DET-WALL-CLOCK
    stats = run.engine_stats
    events = int(stats["events"])
    return {
        "nranks": int(nranks),
        "placement": placement,
        "workload": workload,
        "matcher": matcher,
        "rounds": int(rounds),
        "events": events,
        "host_s": float(host_s),
        "virtual_s": float(run.elapsed_s),
        "events_per_s": float(events / host_s) if host_s > 0 else 0.0,
        "peak_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "contention_s": float(run.contention_s),
        "messages": int(run.messages_sent),
        "checksum": float(run.results[0]),
        "speedup_vs_linear": 0.0,
    }


def run_engine_sweep(
    ranks=DEFAULT_RANKS,
    placements=_PLACEMENTS,
    workloads=DEFAULT_WORKLOADS,
    *,
    rounds: int = 2,
    baseline: bool = True,
    baseline_max_ranks: int | None = None,
) -> dict:
    """The full rank-scaling sweep: every (nranks, placement, workload)
    under the indexed matcher, plus (with ``baseline=True``) the linear
    matcher for the speedup ratio.

    ``baseline_max_ranks`` skips the O(P^2) baseline above a rank cap
    (the linear matcher is exactly what makes huge meshes slow); capped
    rows keep ``speedup_vs_linear == 0.0``.

    Cross-checks per case that the two engines agree bitwise on elapsed
    virtual time and checksum before publishing a speedup.
    """
    results = []
    for nranks in ranks:
        for placement in placements:
            for workload in workloads:
                indexed = run_engine_case(
                    nranks,
                    placement,
                    workload=workload,
                    matcher="indexed",
                    rounds=rounds,
                )
                results.append(indexed)
                want_baseline = baseline and (
                    baseline_max_ranks is None or nranks <= baseline_max_ranks
                )
                if not want_baseline:
                    continue
                linear = run_engine_case(
                    nranks,
                    placement,
                    workload=workload,
                    matcher="linear",
                    rounds=rounds,
                )
                results.append(linear)
                if linear["virtual_s"] != indexed["virtual_s"] or (
                    linear["checksum"] != indexed["checksum"]
                ):
                    raise ConfigurationError(
                        f"matcher divergence at {nranks} ranks "
                        f"({placement}/{workload}): "
                        f"indexed virtual_s={indexed['virtual_s']!r} "
                        f"checksum={indexed['checksum']!r} vs linear "
                        f"virtual_s={linear['virtual_s']!r} "
                        f"checksum={linear['checksum']!r}"
                    )
                if linear["host_s"] > 0 and indexed["host_s"] > 0:
                    indexed["speedup_vs_linear"] = (
                        linear["host_s"] / indexed["host_s"]
                    )
    return {
        "schema": ENGINE_BENCH_SCHEMA,
        "config": {
            "ranks": [int(n) for n in ranks],
            "placements": list(placements),
            "workloads": list(workloads),
            "rounds": int(rounds),
            "baseline": bool(baseline),
            "baseline_max_ranks": baseline_max_ranks,
        },
        "results": results,
    }


def validate_engine_bench_document(doc) -> None:
    """Structural sanity check of an engine benchmark document.

    Raises :class:`~repro.errors.ConfigurationError` on any violation:
    wrong schema tag, missing/extra result fields, unknown placements or
    matchers, non-positive timings, or an indexed/linear pair whose
    virtual times disagree (the bitwise-equivalence invariant).
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"engine bench document must be a dict, got {type(doc)}"
        )
    if doc.get("schema") != ENGINE_BENCH_SCHEMA:
        raise ConfigurationError(
            f"unknown engine bench schema {doc.get('schema')!r}; "
            f"expected {ENGINE_BENCH_SCHEMA!r}"
        )
    if not isinstance(doc.get("config"), dict):
        raise ConfigurationError("engine bench document is missing its 'config' dict")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        raise ConfigurationError("engine bench document has no results")
    virtual = {}
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            raise ConfigurationError(f"result {i} is not a dict")
        if set(row) != set(_RESULT_FIELDS):
            raise ConfigurationError(
                f"result {i} fields {sorted(row)} != {sorted(_RESULT_FIELDS)}"
            )
        for name, kind in _RESULT_FIELDS.items():
            value = row[name]
            if kind is float:
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            else:
                ok = isinstance(value, kind) and not isinstance(value, bool)
            if not ok:
                raise ConfigurationError(
                    f"result {i} field {name!r} has {type(value).__name__}, "
                    f"expected {kind.__name__}"
                )
        if row["placement"] not in _PLACEMENTS:
            raise ConfigurationError(
                f"result {i} has unknown placement {row['placement']!r}"
            )
        if row["workload"] not in _WORKLOADS:
            raise ConfigurationError(
                f"result {i} has unknown workload {row['workload']!r}"
            )
        if row["matcher"] not in _MATCHERS:
            raise ConfigurationError(
                f"result {i} has unknown matcher {row['matcher']!r}"
            )
        if row["host_s"] <= 0 or row["events_per_s"] <= 0 or row["virtual_s"] <= 0:
            raise ConfigurationError(f"result {i} has a non-positive timing")
        if row["events"] <= 0:
            raise ConfigurationError(f"result {i} retired no events")
        case = (row["nranks"], row["placement"], row["workload"])
        seen = virtual.setdefault(case, (row["virtual_s"], row["checksum"]))
        if seen != (row["virtual_s"], row["checksum"]):
            raise ConfigurationError(
                f"result {i} {case}: virtual time/checksum disagree across "
                "matchers (bitwise-equivalence violation)"
            )


def format_engine_bench(doc) -> str:
    """Plain-text rank-scaling table for one sweep document."""
    lines = [
        "engine rank-scaling sweep "
        f"(rounds={doc['config'].get('rounds', '?')})",
        f"{'ranks':>6} {'placement':>9} {'workload':>8} {'matcher':>8} "
        f"{'events':>9} {'events/s':>11} {'virtual_s':>10} {'host_s':>8} "
        f"{'speedup':>8}",
    ]
    for row in doc["results"]:
        speedup = row.get("speedup_vs_linear", 0.0)
        lines.append(
            f"{row['nranks']:>6} {row['placement']:>9} {row['workload']:>8} "
            f"{row['matcher']:>8} {row['events']:>9} "
            f"{row['events_per_s']:>11.0f} {row['virtual_s']:>10.4f} "
            f"{row['host_s']:>8.3f} "
            + (f"{speedup:>7.2f}x" if speedup else f"{'-':>8}")
        )
    return "\n".join(lines)
