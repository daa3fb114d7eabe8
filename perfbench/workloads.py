"""The benchmark's workloads: seeded inputs, op lists and output checks.

A workload makes its inputs from the run's seed (:meth:`make_inputs`) and
hands the runner a list of ops for each pass (:meth:`ops`).  An op is one
call into a public entry point of ``repro`` plus a check of what the call
returned; the runner times the call alone and runs the check outside the
timed region.  A check raises :class:`CheckFailed` on a wrong output and
otherwise returns the op's simulated-work counts (engine events, offered
requests).  :meth:`check_pass` runs the checks that need a whole pass.

Every entry point is looked up through its module or class attribute at
call time, so the span recorder's wrappers see each call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import tracemalloc
from array import array
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro.machines.causality as causality
import repro.machines.engine as engine_mod
import repro.machines.simd as simd
import repro.machines.specs as specs
import repro.runtime as runtime
import repro.service as service
import repro.wavelet.parallel as parallel
from repro.data import landsat_like_scene
from repro.perf.engine_bench import engine_scale_program
from repro.wavelet import filter_bank_for_length
from repro.wavelet.parallel.decomposition import StripeDecomposition
from repro.wavelet.pyramid import mallat_decompose_2d

#: Virtual times pinned from the commit that introduced the benchmark.
#: Wavelet cost does not depend on pixel values, so they hold for every seed.
PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())

# Seed-stream ids: each input family draws from its own child seed.
_SCENE, _ENGINE_IMAGE, _SERVICE = 1, 2, 3


def derive_seed(seed: int, *stream: int) -> int:
    """A 32-bit child seed of ``seed`` for the given stream path."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


class CheckFailed(Exception):
    """An op returned an output that fails its workload's check."""


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], dict]
    #: Ops of one group pool their times into one per-op median (one load
    #: point replayed on several realizations); defaults to ``name``.
    group: str = ""

    def __post_init__(self) -> None:
        self.group = self.group or self.name


def pyramid_digest(pyramid) -> str:
    """sha256 over every band of a pyramid, in a fixed order."""
    digest = hashlib.sha256()
    bands = [pyramid.approximation]
    for triple in pyramid.details:
        bands += [triple.lh, triple.hl, triple.hh]
    for band in bands:
        band = np.ascontiguousarray(band)
        digest.update(repr((band.dtype.str, band.shape)).encode())
        digest.update(band.tobytes())
    return digest.hexdigest()


def _expect_pin(group: str, name: str, elapsed_s: float) -> None:
    pinned = PINS[group][name]
    if elapsed_s != pinned:
        raise CheckFailed(f"{name}: virtual time {elapsed_s!r} != pinned {pinned!r}")


def _host_checksum(image, bank, nranks: int) -> float:
    """What ``engine_scale_program`` returns: the sum of rank 0's approx
    stripe, computed by the sequential transform."""
    rows = image.shape[0] // nranks // 2
    return float(np.sum(mallat_decompose_2d(image, bank, 1).approximation[:rows]))


# --------------------------------------------------------------------------
# paper_wavelet
# --------------------------------------------------------------------------

FIG_CONFIGS = ((8, 1), (4, 2), (2, 4))  # Figs 5, 6, 7: filter length, levels
RANK_COUNTS = (1, 2, 4, 8, 16, 32)
PLACEMENTS = ("snake", "naive")
KERNELS = ("conv", "single-loop")
#: The repo's integration test compares the MasPar systolic pyramid with
#: the sequential one at this tolerance (it accumulates in another order).
SIMD_ATOL = 1e-9


class Workload:
    """What the runner needs: ``name``, ``make_inputs``, ``ops`` and
    ``check_pass`` (a no-op unless a workload checks a pass as a whole)."""

    name = ""

    def check_pass(self, records: list) -> None:
        pass


class PaperWavelet(Workload):
    """Appendix A at paper scale: Figs 5-7 under conv and single-loop,
    plus Table 1's MasPar MP-2 and DEC 5000 cells (78 ops per pass)."""

    name = "paper_wavelet"

    def make_inputs(self, seed: int) -> dict:
        image = landsat_like_scene((512, 512), seed=derive_seed(seed, _SCENE))
        return {"image": image, "refs": {}}

    def _reference(self, inputs: dict, kernel: str, bank, levels: int):
        key = (kernel, bank.length, levels)
        if key not in inputs["refs"]:
            pyramid = mallat_decompose_2d(inputs["image"], bank, levels, kernel=kernel)
            inputs["refs"][key] = (pyramid, pyramid_digest(pyramid))
        return inputs["refs"][key]

    def _check_mimd(self, inputs, name, kernel, bank, levels, execution) -> dict:
        _, want = self._reference(inputs, kernel, bank, levels)
        if pyramid_digest(execution.outcome.pyramid) != want:
            raise CheckFailed(f"{name}: pyramid differs from mallat_decompose_2d")
        _expect_pin(self.name, name, execution.run.elapsed_s)
        return {"events": execution.run.engine_stats["events"]}

    def _check_simd(self, inputs, name, bank, levels, outcome) -> dict:
        ref, _ = self._reference(inputs, "conv", bank, levels)
        got = outcome.pyramid
        bands = [(got.approximation, ref.approximation)]
        for mine, theirs in zip(got.details, ref.details):
            bands += [(mine.lh, theirs.lh), (mine.hl, theirs.hl), (mine.hh, theirs.hh)]
        if len(got.details) != len(ref.details) or not all(
            a.shape == b.shape and np.allclose(a, b, rtol=0.0, atol=SIMD_ATOL)
            for a, b in bands
        ):
            raise CheckFailed(f"{name}: pyramid differs from mallat_decompose_2d")
        _expect_pin(self.name, name, outcome.elapsed_s)
        return {"events": 0}

    @staticmethod
    def _launch(image, bank, levels: int, **options):
        spec = runtime.JobSpec(
            program="wavelet",
            params={"image": image, "bank": bank, "levels": levels},
            options=runtime.RunOptions(**options),
        )
        return runtime.launch(spec)

    @staticmethod
    def _maspar(image, bank, levels: int):
        machine = simd.MasParMachine(simd.maspar_mp2(), "hierarchical")
        return parallel.simd_mallat_decompose(machine, image, bank, levels)

    def ops(self, inputs: dict, pass_index: int) -> list:
        image = inputs["image"]
        ops = []
        for kernel in KERNELS:
            for length, levels in FIG_CONFIGS:
                bank = filter_bank_for_length(length)
                for placement in PLACEMENTS:
                    for nranks in RANK_COUNTS:
                        name = f"{kernel}/F{length}L{levels}/{placement}/P{nranks}"
                        call = partial(
                            self._launch, image, bank, levels, machine="paragon",
                            nranks=nranks, placement=placement, kernel=kernel,
                        )
                        check = partial(self._check_mimd, inputs, name, kernel, bank, levels)
                        ops.append(Op(name, call, check))
        for length, levels in FIG_CONFIGS:
            bank = filter_bank_for_length(length)
            name = f"maspar/F{length}L{levels}"
            ops.append(Op(
                name,
                partial(self._maspar, image, bank, levels),
                partial(self._check_simd, inputs, name, bank, levels),
            ))
            name = f"dec5000/F{length}L{levels}"
            ops.append(Op(
                name,
                partial(self._launch, image, bank, levels, machine="workstation"),
                partial(self._check_mimd, inputs, name, "conv", bank, levels),
            ))
        return ops

# --------------------------------------------------------------------------
# engine_scale and causal_trace
# --------------------------------------------------------------------------

ENGINE_ROWS_PER_RANK = 4
ENGINE_COLS = 16
ENGINE_FILTER = 4
ENGINE_ROUNDS = 2
ENGINE_COLLECTIVE = "rabenseifner"


def _engine_inputs(seed: int, nranks: int) -> dict:
    rng = np.random.default_rng(derive_seed(seed, _ENGINE_IMAGE))
    rows = ENGINE_ROWS_PER_RANK * nranks
    image = rng.random((rows, ENGINE_COLS))
    bank = filter_bank_for_length(ENGINE_FILTER)
    return {
        "image": image,
        "bank": bank,
        "decomp": StripeDecomposition(rows, ENGINE_COLS, nranks, 1),
        "nranks": nranks,
        "checksum": None,
    }


def _engine_run(inputs: dict, placement: str, record_trace: bool):
    machine = specs.scaled_mesh(inputs["nranks"], placement)
    engine = engine_mod.Engine(machine, record_trace=record_trace)
    return engine.run(
        engine_scale_program, inputs["image"], inputs["bank"], 1, inputs["decomp"],
        ENGINE_ROUNDS, ENGINE_COLLECTIVE,
    )


def _check_engine_run(inputs: dict, group: str, name: str, run) -> dict:
    if inputs["checksum"] is None:
        inputs["checksum"] = _host_checksum(inputs["image"], inputs["bank"], inputs["nranks"])
    if run.results[0] != inputs["checksum"]:
        raise CheckFailed(
            f"{name}: allreduce result {run.results[0]!r} != host checksum "
            f"{inputs['checksum']!r}"
        )
    _expect_pin(group, name, run.elapsed_s)
    return {"events": run.engine_stats["events"]}


class EngineScale(Workload):
    """``bench --engine``'s wavelet row at 2048 ranks, both placements."""

    name = "engine_scale"
    nranks = 2048

    def make_inputs(self, seed: int) -> dict:
        return _engine_inputs(seed, self.nranks)

    def ops(self, inputs: dict, pass_index: int) -> list:
        ops = []
        for placement in PLACEMENTS:
            name = f"P{self.nranks}/{placement}"
            ops.append(Op(
                name,
                partial(_engine_run, inputs, placement, False),
                partial(_check_engine_run, inputs, self.name, name),
            ))
        return ops

def check_vclocks(graph) -> None:
    """Every event's vector clock is the join of its happens-before
    predecessors' clocks plus one tick of its own rank.

    This is the linear-time form of ``HappensBeforeGraph.vclocks_consistent``
    (which compares every pair of events, O(n^2) BFS walks): clocks built
    by this recurrence order two events exactly when the graph does.
    Clocks are compared as numpy rows; only each rank's latest row and the
    rows of sends not yet received are kept.
    """
    events = graph.events
    if not events:
        return
    zero = np.zeros(len(events[0].vclock), dtype=np.uint32)
    last: dict = {}  # rank -> row of its latest event
    in_flight: dict = {}  # msg id -> row of the send event
    for i, event in enumerate(events):
        if len(event.vclock) != zero.size:
            raise CheckFailed(f"event {i}: vector clock of length {len(event.vclock)}")
        row = np.frombuffer(array("I", event.vclock), dtype=np.uint32)
        expected = last.get(event.rank, zero)
        if event.kind == "recv" and event.match_id in graph.send_of_msg:
            sent = in_flight.pop(event.match_id, None)
            if sent is None:
                raise CheckFailed(f"event {i}: recv traced before its send")
            expected = np.maximum(expected, sent)
        expected = expected.copy()
        expected[event.rank] += 1
        if not np.array_equal(row, expected):
            raise CheckFailed(f"event {i} (rank {event.rank}, {event.kind}): vector "
                              "clock is not the join of its predecessors")
        last[event.rank] = row
        if event.kind == "send" and event.msg_id in graph.recv_of_msg:
            in_flight[event.msg_id] = row


class CausalTrace(Workload):
    """``repro trace`` minus the file write, on the engine_scale program
    at 1024 ranks: traced run, happens-before graph, race certificate and
    critical path."""

    name = "causal_trace"
    nranks = 1024
    placement = "snake"

    def make_inputs(self, seed: int) -> dict:
        return _engine_inputs(seed, self.nranks)

    @staticmethod
    def _trace(inputs: dict, placement: str):
        run = _engine_run(inputs, placement, True)
        graph = causality.HappensBeforeGraph(run.trace)
        report = causality.certify_deterministic(graph)
        path = graph.critical_path(run.elapsed_s)
        return run, graph, report, path

    def _check(self, inputs: dict, name: str, out) -> dict:
        run, graph, report, path = out
        counts = _check_engine_run(inputs, self.name, name, run)
        check_vclocks(graph)
        if report.races:
            raise CheckFailed(f"{name}: {len(report.races)} wildcard race(s)")
        if not path.lower_bound_s <= run.elapsed_s:
            raise CheckFailed(
                f"{name}: critical path {path.lower_bound_s!r} exceeds "
                f"elapsed {run.elapsed_s!r}"
            )
        return counts

    def trace_cost(self, inputs: dict) -> tuple:
        """Host-time and tracemalloc-peak ratios of one traced against one
        untraced ``Engine.run`` on the same inputs."""
        seconds, peaks = {}, {}
        for traced in (False, True):
            gc.collect()
            t0 = time.perf_counter()
            run = _engine_run(inputs, self.placement, traced)
            seconds[traced] = time.perf_counter() - t0
            del run
            gc.collect()
            tracemalloc.start()
            try:
                run = _engine_run(inputs, self.placement, traced)
                peaks[traced] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del run
        return seconds[True] / seconds[False], peaks[True] / peaks[False]

    def ops(self, inputs: dict, pass_index: int) -> list:
        name = f"P{self.nranks}/{self.placement}"
        return [Op(
            name,
            partial(self._trace, inputs, self.placement),
            partial(self._check, inputs, name),
        )]

# --------------------------------------------------------------------------
# service_sweep
# --------------------------------------------------------------------------

SWEEP_MULTIPLIERS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
SWEEP_HORIZON_S = 1.0
#: Realizations per pass of each point at or below capacity.  Their cost
#: varies by a factor of three between realizations while each takes a
#: tenth of an overloaded point's, so they are replayed to steady their
#: medians; the overloaded points run once per pass.
LIGHT_REPEATS = 4
# ``run_load_sweep``'s defaults for calling a load point unstable.
DIVERGED_BACKLOG = 8
DIVERGED_SHED = 0.05


class ServiceSweep(Workload):
    """The load points of ``serve --sweep``: one ``Service.run`` per
    offered-load multiplier.  Each pass replays fresh arrival/mix
    realizations drawn from the run seed, so a run averages many: the
    whole sweep on realization 0, then the points at or below capacity on
    ``LIGHT_REPEATS - 1`` more."""

    name = "service_sweep"

    def make_inputs(self, seed: int) -> dict:
        template = runtime.machine_template("paragon", protocol="nx")
        mix = service.get_mix("default")
        oracle = service.EngineOracle("paragon", protocol="nx")
        nodes = template.total_nodes
        capacity = service.estimate_capacity_rate(mix, oracle, nodes)
        return {"seed": seed, "nodes": nodes, "mix": mix, "oracle": oracle,
                "capacity": capacity}

    @staticmethod
    def _serve(inputs: dict, rate_s: float, seed: int):
        mix = inputs["mix"]
        arrivals = service.parse_arrival_spec("poisson", seed, rate_s=rate_s)
        svc = service.Service(
            inputs["nodes"], mix, arrivals, inputs["oracle"],
            policy=runtime.make_policy("fair", weights=mix.tenant_weights()),
            accounting=service.Accounting(),
            config=service.ServiceConfig(horizon_s=SWEEP_HORIZON_S),
            seed=seed,
        )
        return svc.run()

    @staticmethod
    def _check(name: str, multiplier: float, rate_s: float, report) -> dict:
        snapshot = report.snapshot
        service.validate_snapshot(snapshot)
        jobs = snapshot["jobs"]
        if jobs["offered"] != jobs["completed"] + jobs["shed"]:
            raise CheckFailed(
                f"{name}: offered {jobs['offered']} != completed "
                f"{jobs['completed']} + shed {jobs['shed']}"
            )
        latency = snapshot["latency"]["turnaround"]
        point = {
            "offered_load": multiplier,
            "rate_s": rate_s,
            "offered": jobs["offered"],
            "completed": jobs["completed"],
            "shed_rate": jobs["shed_rate"],
            "p50_turnaround_s": latency["p50"],
            "p99_turnaround_s": latency["p99"],
            "mean_turnaround_s": latency["mean"],
            "utilization": snapshot["utilization"],
            "backlog_end": snapshot["backlog"]["end"],
            "backlog_peak": snapshot["backlog"]["peak"],
            "unstable": bool(
                snapshot["backlog"]["end"] > DIVERGED_BACKLOG
                or jobs["shed_rate"] > DIVERGED_SHED
            ),
        }
        return {"requests": jobs["offered"], "point": point}

    def ops(self, inputs: dict, pass_index: int) -> list:
        ops = []
        for repeat in range(LIGHT_REPEATS):
            seed = derive_seed(inputs["seed"], _SERVICE, pass_index, repeat)
            for multiplier in SWEEP_MULTIPLIERS:
                if repeat and multiplier > 1.0:
                    continue
                rate_s = multiplier * inputs["capacity"]
                group = f"load{multiplier:g}"
                name = f"{group}/r{repeat}" if repeat else group
                ops.append(Op(
                    name,
                    partial(self._serve, inputs, rate_s, seed),
                    partial(self._check, name, multiplier, rate_s),
                    group,
                ))
        return ops

    def check_pass(self, records: list) -> None:
        """Assemble each realization's points into a loadsweep document and
        validate it as ``serve --sweep`` would."""
        from repro.service.autopilot import LOADSWEEP_SCHEMA, detect_knee

        full = len(SWEEP_MULTIPLIERS)
        light = sum(m <= 1.0 for m in SWEEP_MULTIPLIERS)
        if len(records) != full + (LIGHT_REPEATS - 1) * light:
            raise CheckFailed(f"pass produced {len(records)} points")
        sweeps = [records[:full]] + [records[i:i + light]
                                     for i in range(full, len(records), light)]
        for sweep in sweeps:
            points = [record["point"] for record in sweep]
            knee = detect_knee(
                [p["offered_load"] for p in points],
                [p["mean_turnaround_s"] for p in points],
                [p["unstable"] for p in points],
            )
            service.validate_loadsweep(
                {"schema": LOADSWEEP_SCHEMA, "config": {}, "points": points, "knee": knee}
            )


WORKLOADS = {w.name: w for w in (PaperWavelet(), EngineScale(), ServiceSweep(), CausalTrace())}
