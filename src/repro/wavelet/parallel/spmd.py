"""Coarse-grain SPMD wavelet decomposition (the Paragon algorithm).

Implements Section 4.2: the image is distributed as stripes of rows, and
at the end of each level's row filtering every rank builds a guard zone of
``filter_length`` rows from its *south* neighbor before column filtering.
Striping limits the exchange to one neighbor; the alternative block
decomposition (two guards per level: east for row filtering, south for
column filtering) is implemented for the comparison benchmark.

The programs run real NumPy filtering, so the assembled parallel pyramid
is verified bit-for-bit against :func:`repro.wavelet.mallat_decompose_2d`
(both compute the identical periodized transform; no float reordering is
introduced by the decomposition).

Message tags are allocated by the central :mod:`repro.machines.tags`
registry (distribution, row-guard, column-guard, collection, plus the
lifting kernels' front-guard exchanges and the single-loop sweep's
raw-tile guard exchanges).

``kernel="single-loop"`` runs the monolithic sweep of
:mod:`repro.wavelet.singleloop`: there are no per-pass intermediates to
exchange, so each level ships guards of the *raw* tile up front — row
guards under striping (2 messages/level), column guards plus guards of
the horizontally-extended tile under blocking (4 messages/level, the
extended rows carrying the corner data through the neighbors) — and then
charges one sweep instead of two passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecompositionError
from repro.machines import tags
from repro.machines.engine import Machine, RunResult
from repro.wavelet.conv import analyze_axis_valid
from repro.wavelet.cost import (
    filter_pass_cost,
    lifting_pass_cost,
    single_loop_sweep_cost,
)
from repro.wavelet.filters import FilterBank
from repro.wavelet.parallel.decomposition import (
    BlockDecomposition,
    StripeDecomposition,
    analysis_guard_depths,
)
from repro.wavelet.pyramid import DetailTriple, WaveletPyramid

__all__ = [
    "SpmdWaveletOutcome",
    "striped_wavelet_program",
    "block_wavelet_program",
    "run_spmd_wavelet",
]

_TAG_DISTRIBUTE = tags.WAVELET_DISTRIBUTE
_TAG_ROW_GUARD = tags.WAVELET_ROW_GUARD
_TAG_COL_GUARD = tags.WAVELET_COL_GUARD
_TAG_COLLECT = tags.WAVELET_COLLECT
# Lifting steps reach backwards as well as forwards, so the lifting
# kernel adds a front-guard exchange in the opposite direction.
_TAG_COL_GUARD_FRONT = tags.WAVELET_COL_GUARD_FRONT
_TAG_ROW_GUARD_FRONT = tags.WAVELET_ROW_GUARD_FRONT
# The single-loop sweep exchanges guards of the raw tile before any
# arithmetic; its messages ride their own tags so a mixed-kernel trace
# can never alias a lifting guard.
_TAG_SWEEP_GUARD = tags.WAVELET_SWEEP_GUARD
_TAG_SWEEP_GUARD_FRONT = tags.WAVELET_SWEEP_GUARD_FRONT
_TAG_SWEEP_COL_GUARD = tags.WAVELET_SWEEP_COL_GUARD
_TAG_SWEEP_COL_GUARD_FRONT = tags.WAVELET_SWEEP_COL_GUARD_FRONT


def _is_sweep(kernel: str) -> bool:
    """Whether ``kernel`` resolves to the single-loop traversal."""
    from repro.wavelet.plan import parse_kernel_spec

    return parse_kernel_spec(kernel).traversal == "single-loop"


@dataclass
class SpmdWaveletOutcome:
    """A parallel decomposition run: engine result plus assembled pyramid
    (``None`` when ``collect=False``)."""

    run: RunResult
    pyramid: WaveletPyramid


def striped_wavelet_program(
    ctx,
    image: np.ndarray,
    bank: FilterBank,
    levels: int,
    decomp: StripeDecomposition,
    *,
    distribute: bool = True,
    collect: bool = True,
    checkpoint_interval: int = 0,
    restore=None,
    kernel: str = "conv",
):
    """Rank program: striped decomposition with snake-friendly neighbor
    guard exchange.  Rank 0 returns the per-rank piece dictionary needed
    for assembly (all ranks return their local pieces).

    ``checkpoint_interval > 0`` writes a coordinated checkpoint every
    that-many levels (state: next level, running approximation, detail
    pieces so far); ``restore`` is the per-rank state list carried by a
    :class:`~repro.errors.RankCrashError` — resuming skips the initial
    distribution and fast-forwards to the checkpointed level.

    ``kernel`` selects the filtering implementation.  ``"conv"`` (default)
    is the seed path, unchanged; ``"lifting"`` runs the factored
    lifting passes — the fully-local row pass is periodized
    lifting, the column pass valid-mode lifting over guards sized by
    :func:`~repro.wavelet.parallel.decomposition.analysis_guard_depths`,
    adding a front-guard exchange toward the south neighbor when the
    scheme's front margin is nonzero.  ``"single-loop"`` exchanges row
    guards of the *raw* stripe instead (same depths — the sweep's row
    erosion equals the separable column pass's) and runs one monolithic
    valid-rows/periodized-columns sweep per level, charged as a single
    :func:`~repro.wavelet.cost.single_loop_sweep_cost`.
    """
    rank, nranks = ctx.rank, ctx.nranks
    m = bank.length
    if kernel != "conv":
        from repro.wavelet.lifting import lifting_scheme

        scheme = lifting_scheme(bank)
        front, back = analysis_guard_depths(bank, kernel)
        sweep = _is_sweep(kernel)
    else:
        scheme = None
        front, back = analysis_guard_depths(bank)
        sweep = False

    if restore is not None:
        start_level, current, saved_details = restore[rank]
        current = np.asarray(current, dtype=np.float64)
        local_details = [tuple(np.asarray(a) for a in d) for d in saved_details]
    else:
        start_level = 0
        # --- initial distribution (rank 0 owns the image) ------------------
        if distribute and nranks > 1:
            if rank == 0:
                for dst in range(1, nranks):
                    r0, r1 = decomp.row_range(dst)
                    yield ctx.send(dst, image[r0:r1], tag=_TAG_DISTRIBUTE)
                r0, r1 = decomp.row_range(0)
                current = np.array(image[r0:r1], dtype=np.float64)
            else:
                received = yield ctx.recv(0, tag=_TAG_DISTRIBUTE)
                current = np.asarray(received, dtype=np.float64)
        else:
            r0, r1 = decomp.row_range(rank)
            current = np.array(image[r0:r1], dtype=np.float64)
        local_details = []

    north = decomp.north_neighbor(rank)
    south = decomp.south_neighbor(rank)

    for _level in range(start_level, levels):
        rows, cols = current.shape
        if (rows < m or rows < max(front, back)) and nranks > 1:
            raise DecompositionError(
                f"local stripe of {rows} rows is shorter than the "
                f"filter/guard requirement; reduce ranks or levels"
            )
        # Domain-decomposition bookkeeping: pure parallelization redundancy.
        yield ctx.compute(intops=64, redundant=True)

        if sweep:
            from repro.wavelet.singleloop import single_loop_analyze_valid

            # Guards of the raw stripe, shipped before any arithmetic
            # (the sweep has no row-pass intermediates to exchange).
            if nranks > 1:
                if back > 0:
                    yield ctx.send(north, current[:back], tag=_TAG_SWEEP_GUARD)
                if front > 0:
                    yield ctx.send(
                        south, current[rows - front :], tag=_TAG_SWEEP_GUARD_FRONT
                    )
                back_rows = (
                    (yield ctx.recv(south, tag=_TAG_SWEEP_GUARD))
                    if back > 0
                    else current[:0]
                )
                front_rows = (
                    (yield ctx.recv(north, tag=_TAG_SWEEP_GUARD_FRONT))
                    if front > 0
                    else current[:0]
                )
            else:
                back_rows = current[:back]
                front_rows = current[rows - front :]

            out_rows = rows // 2
            ext = np.vstack([front_rows, current, back_rows])
            ll, lh, hl, hh = single_loop_analyze_valid(
                ext, scheme, out_rows, cols // 2, front, periodic_cols=True
            )
            yield ctx.charge(single_loop_sweep_cost(rows, cols, scheme.step_taps))
        elif kernel == "conv":
            # Steps 1-2: row filtering + column decimation, fully local.
            lo = _analyze_full_axis1(current, bank.lowpass)
            hi = _analyze_full_axis1(current, bank.highpass)
            yield ctx.charge(filter_pass_cost(2 * rows * (cols // 2), m))

            # Guard zone: ship my top `m` rows of both intermediates to the
            # north neighbor; receive the south neighbor's (periodic wrap).
            if nranks > 1:
                yield ctx.send(north, np.stack([lo[:m], hi[:m]]), tag=_TAG_COL_GUARD)
                guard = yield ctx.recv(south, tag=_TAG_COL_GUARD)
                guard_lo, guard_hi = guard[0], guard[1]
            else:
                guard_lo, guard_hi = lo[:m], hi[:m]

            # Steps 3-4: column filtering + row decimation over stripe+guard.
            out_rows = rows // 2
            ext_lo = np.vstack([lo, guard_lo])
            ext_hi = np.vstack([hi, guard_hi])
            ll = analyze_axis_valid(ext_lo, bank.lowpass, axis=0, out_len=out_rows)
            lh = analyze_axis_valid(ext_lo, bank.highpass, axis=0, out_len=out_rows)
            hl = analyze_axis_valid(ext_hi, bank.lowpass, axis=0, out_len=out_rows)
            hh = analyze_axis_valid(ext_hi, bank.highpass, axis=0, out_len=out_rows)
            yield ctx.charge(filter_pass_cost(4 * out_rows * (cols // 2), m))
        else:
            from repro.wavelet.lifting import (
                lifting_analyze_axis,
                lifting_analyze_axis_valid,
            )

            # Row pass: both subbands in one periodized lifting sweep.
            lo, hi = lifting_analyze_axis(current, scheme, axis=1)
            yield ctx.charge(lifting_pass_cost(2 * rows * (cols // 2), scheme.step_taps))

            # Back guard (from south, as conv) plus a front guard (from
            # north) when the scheme's steps reach backwards.
            if nranks > 1:
                if back > 0:
                    yield ctx.send(
                        north, np.stack([lo[:back], hi[:back]]), tag=_TAG_COL_GUARD
                    )
                if front > 0:
                    yield ctx.send(
                        south,
                        np.stack([lo[rows - front :], hi[rows - front :]]),
                        tag=_TAG_COL_GUARD_FRONT,
                    )
                if back > 0:
                    guard = yield ctx.recv(south, tag=_TAG_COL_GUARD)
                    back_lo, back_hi = guard[0], guard[1]
                else:
                    back_lo = back_hi = lo[:0]
                if front > 0:
                    guard = yield ctx.recv(north, tag=_TAG_COL_GUARD_FRONT)
                    front_lo, front_hi = guard[0], guard[1]
                else:
                    front_lo = front_hi = lo[:0]
            else:
                back_lo, back_hi = lo[:back], hi[:back]
                front_lo, front_hi = lo[rows - front :], hi[rows - front :]

            out_rows = rows // 2
            ext_lo = np.vstack([front_lo, lo, back_lo])
            ext_hi = np.vstack([front_hi, hi, back_hi])
            ll, lh = lifting_analyze_axis_valid(ext_lo, scheme, 0, out_rows, front)
            hl, hh = lifting_analyze_axis_valid(ext_hi, scheme, 0, out_rows, front)
            yield ctx.charge(
                lifting_pass_cost(4 * out_rows * (cols // 2), scheme.step_taps)
            )

        local_details.append((lh, hl, hh))
        current = ll

        if checkpoint_interval > 0 and (_level + 1) % checkpoint_interval == 0:
            yield ctx.checkpoint((_level + 1, current, local_details))

    pieces = {"approx": current, "details": local_details}
    if collect and nranks > 1:
        if rank == 0:
            gathered = [pieces]
            for src in range(1, nranks):
                gathered.append((yield ctx.recv(src, tag=_TAG_COLLECT)))
            return gathered
        yield ctx.send(0, pieces, tag=_TAG_COLLECT)
        return None
    return [pieces] if rank == 0 else None


def block_wavelet_program(
    ctx,
    image: np.ndarray,
    bank: FilterBank,
    levels: int,
    decomp: BlockDecomposition,
    *,
    distribute: bool = True,
    collect: bool = True,
    kernel: str = "conv",
):
    """Rank program: 2-D block decomposition (two guard exchanges per
    level), the costlier alternative of Figure 3.  ``kernel`` as in
    :func:`striped_wavelet_program`; under lifting both the row and the
    column filtering gain a front-guard exchange when needed.  Under
    ``"single-loop"`` the level exchanges guards of the raw block in two
    stages — east/west column guards, then north/south row guards of the
    *horizontally-extended* block, so the corner data each diagonal
    neighbor owns arrives through the adjacent neighbors' guards — and
    runs one doubly-valid monolithic sweep."""
    rank, nranks = ctx.rank, ctx.nranks
    m = bank.length
    if kernel != "conv":
        from repro.wavelet.lifting import lifting_scheme

        scheme = lifting_scheme(bank)
        front, back = analysis_guard_depths(bank, kernel)
        sweep = _is_sweep(kernel)
    else:
        scheme = None
        front, back = analysis_guard_depths(bank)
        sweep = False

    (r0, r1), (c0, c1) = decomp.block_ranges(rank)
    if distribute and nranks > 1:
        if rank == 0:
            for dst in range(1, nranks):
                (dr0, dr1), (dc0, dc1) = decomp.block_ranges(dst)
                yield ctx.send(dst, image[dr0:dr1, dc0:dc1], tag=_TAG_DISTRIBUTE)
            current = np.array(image[r0:r1, c0:c1], dtype=np.float64)
        else:
            received = yield ctx.recv(0, tag=_TAG_DISTRIBUTE)
            current = np.asarray(received, dtype=np.float64)
    else:
        current = np.array(image[r0:r1, c0:c1], dtype=np.float64)

    east = decomp.east_neighbor(rank)
    west = decomp.west_neighbor(rank)
    north = decomp.north_neighbor(rank)
    south = decomp.south_neighbor(rank)
    local_details = []

    for _level in range(levels):
        rows, cols = current.shape
        if (cols < m or rows < m or min(rows, cols) < max(front, back)) and nranks > 1:
            raise DecompositionError(
                f"local block {rows}x{cols} is smaller than the "
                f"filter/guard requirement; reduce ranks or levels"
            )
        yield ctx.compute(intops=128, redundant=True)

        out_cols = cols // 2
        out_rows = rows // 2
        if sweep:
            from repro.wavelet.singleloop import single_loop_analyze_valid

            # Stage 1: east/west column guards of the raw block.
            if decomp.pcols > 1:
                if back > 0:
                    yield ctx.send(
                        west,
                        np.ascontiguousarray(current[:, :back]),
                        tag=_TAG_SWEEP_COL_GUARD,
                    )
                if front > 0:
                    yield ctx.send(
                        east,
                        np.ascontiguousarray(current[:, cols - front :]),
                        tag=_TAG_SWEEP_COL_GUARD_FRONT,
                    )
                guard_east = (
                    (yield ctx.recv(east, tag=_TAG_SWEEP_COL_GUARD))
                    if back > 0
                    else current[:, :0]
                )
                guard_west = (
                    (yield ctx.recv(west, tag=_TAG_SWEEP_COL_GUARD_FRONT))
                    if front > 0
                    else current[:, :0]
                )
            else:
                guard_east = current[:, :back]
                guard_west = current[:, cols - front :]
            ext = np.hstack([guard_west, current, guard_east])

            # Stage 2: north/south row guards of the horizontally-extended
            # block — the neighbors' own east/west guards ride along, so
            # the corner data flows without diagonal messages.
            if decomp.prows > 1:
                if back > 0:
                    yield ctx.send(north, ext[:back], tag=_TAG_SWEEP_GUARD)
                if front > 0:
                    yield ctx.send(
                        south, ext[rows - front :], tag=_TAG_SWEEP_GUARD_FRONT
                    )
                back_rows = (
                    (yield ctx.recv(south, tag=_TAG_SWEEP_GUARD))
                    if back > 0
                    else ext[:0]
                )
                front_rows = (
                    (yield ctx.recv(north, tag=_TAG_SWEEP_GUARD_FRONT))
                    if front > 0
                    else ext[:0]
                )
            else:
                back_rows = ext[:back]
                front_rows = ext[rows - front :]
            full = np.vstack([front_rows, ext, back_rows])
            ll, lh, hl, hh = single_loop_analyze_valid(
                full, scheme, out_rows, out_cols, front, front
            )
            yield ctx.charge(single_loop_sweep_cost(rows, cols, scheme.step_taps))
        elif kernel == "conv":
            # Row filtering needs an east guard of `m` columns.
            if decomp.pcols > 1:
                yield ctx.send(west, np.ascontiguousarray(current[:, :m]), tag=_TAG_ROW_GUARD)
                guard_east = yield ctx.recv(east, tag=_TAG_ROW_GUARD)
            else:
                guard_east = current[:, :m]
            ext = np.hstack([current, guard_east])
            lo = analyze_axis_valid(ext, bank.lowpass, axis=1, out_len=out_cols)
            hi = analyze_axis_valid(ext, bank.highpass, axis=1, out_len=out_cols)
            yield ctx.charge(filter_pass_cost(2 * rows * out_cols, m))

            # Column filtering needs a south guard of `m` rows.
            if decomp.prows > 1:
                yield ctx.send(north, np.stack([lo[:m], hi[:m]]), tag=_TAG_COL_GUARD)
                guard = yield ctx.recv(south, tag=_TAG_COL_GUARD)
                guard_lo, guard_hi = guard[0], guard[1]
            else:
                guard_lo, guard_hi = lo[:m], hi[:m]
            ext_lo = np.vstack([lo, guard_lo])
            ext_hi = np.vstack([hi, guard_hi])
            ll = analyze_axis_valid(ext_lo, bank.lowpass, axis=0, out_len=out_rows)
            lh = analyze_axis_valid(ext_lo, bank.highpass, axis=0, out_len=out_rows)
            hl = analyze_axis_valid(ext_hi, bank.lowpass, axis=0, out_len=out_rows)
            hh = analyze_axis_valid(ext_hi, bank.highpass, axis=0, out_len=out_rows)
            yield ctx.charge(filter_pass_cost(4 * out_rows * out_cols, m))
        else:
            from repro.wavelet.lifting import lifting_analyze_axis_valid

            # Row filtering: east back guard, plus a west front guard when
            # the lifting steps reach backwards.
            if decomp.pcols > 1:
                if back > 0:
                    yield ctx.send(
                        west, np.ascontiguousarray(current[:, :back]), tag=_TAG_ROW_GUARD
                    )
                if front > 0:
                    yield ctx.send(
                        east,
                        np.ascontiguousarray(current[:, cols - front :]),
                        tag=_TAG_ROW_GUARD_FRONT,
                    )
                guard_east = (
                    (yield ctx.recv(east, tag=_TAG_ROW_GUARD))
                    if back > 0
                    else current[:, :0]
                )
                guard_west = (
                    (yield ctx.recv(west, tag=_TAG_ROW_GUARD_FRONT))
                    if front > 0
                    else current[:, :0]
                )
            else:
                guard_east = current[:, :back]
                guard_west = current[:, cols - front :]
            ext = np.hstack([guard_west, current, guard_east])
            lo, hi = lifting_analyze_axis_valid(ext, scheme, 1, out_cols, front)
            yield ctx.charge(lifting_pass_cost(2 * rows * out_cols, scheme.step_taps))

            # Column filtering: south back guard plus north front guard.
            if decomp.prows > 1:
                if back > 0:
                    yield ctx.send(
                        north, np.stack([lo[:back], hi[:back]]), tag=_TAG_COL_GUARD
                    )
                if front > 0:
                    yield ctx.send(
                        south,
                        np.stack([lo[rows - front :], hi[rows - front :]]),
                        tag=_TAG_COL_GUARD_FRONT,
                    )
                if back > 0:
                    guard = yield ctx.recv(south, tag=_TAG_COL_GUARD)
                    back_lo, back_hi = guard[0], guard[1]
                else:
                    back_lo = back_hi = lo[:0]
                if front > 0:
                    guard = yield ctx.recv(north, tag=_TAG_COL_GUARD_FRONT)
                    front_lo, front_hi = guard[0], guard[1]
                else:
                    front_lo = front_hi = lo[:0]
            else:
                back_lo, back_hi = lo[:back], hi[:back]
                front_lo, front_hi = lo[rows - front :], hi[rows - front :]
            ext_lo = np.vstack([front_lo, lo, back_lo])
            ext_hi = np.vstack([front_hi, hi, back_hi])
            ll, lh = lifting_analyze_axis_valid(ext_lo, scheme, 0, out_rows, front)
            hl, hh = lifting_analyze_axis_valid(ext_hi, scheme, 0, out_rows, front)
            yield ctx.charge(lifting_pass_cost(4 * out_rows * out_cols, scheme.step_taps))

        local_details.append((lh, hl, hh))
        current = ll

    pieces = {"approx": current, "details": local_details}
    if collect and nranks > 1:
        if rank == 0:
            gathered = [pieces]
            for src in range(1, nranks):
                gathered.append((yield ctx.recv(src, tag=_TAG_COLLECT)))
            return gathered
        yield ctx.send(0, pieces, tag=_TAG_COLLECT)
        return None
    return [pieces] if rank == 0 else None


def _analyze_full_axis1(data: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Periodized row filtering of a full-width stripe (rows are entirely
    local under striping, so the sequential primitive applies directly)."""
    from repro.wavelet.conv import analyze_axis

    return analyze_axis(data, taps, axis=1)


def _assemble_striped(gathered, bank_name: str, levels: int) -> WaveletPyramid:
    approx = np.vstack([p["approx"] for p in gathered])
    details = []
    for level in range(levels):
        details.append(
            DetailTriple(
                lh=np.vstack([p["details"][level][0] for p in gathered]),
                hl=np.vstack([p["details"][level][1] for p in gathered]),
                hh=np.vstack([p["details"][level][2] for p in gathered]),
            )
        )
    return WaveletPyramid(approx, tuple(details), bank_name)


def _assemble_block(gathered, decomp: BlockDecomposition, bank_name: str, levels: int):
    def grid_stack(index):
        rows = []
        for br in range(decomp.prows):
            row = [index(br * decomp.pcols + bc) for bc in range(decomp.pcols)]
            rows.append(np.hstack(row))
        return np.vstack(rows)

    approx = grid_stack(lambda r: gathered[r]["approx"])
    details = []
    for level in range(levels):
        details.append(
            DetailTriple(
                lh=grid_stack(lambda r: gathered[r]["details"][level][0]),
                hl=grid_stack(lambda r: gathered[r]["details"][level][1]),
                hh=grid_stack(lambda r: gathered[r]["details"][level][2]),
            )
        )
    return WaveletPyramid(approx, tuple(details), bank_name)


def run_spmd_wavelet(
    machine: Machine,
    image: np.ndarray,
    bank: FilterBank,
    levels: int,
    *,
    decomposition: str = "striped",
    distribute: bool = True,
    collect: bool = True,
    kernel: str = "conv",
) -> SpmdWaveletOutcome:
    """Execute the parallel decomposition on a simulated machine.

    Parameters
    ----------
    machine:
        A :class:`~repro.machines.engine.Machine` (e.g. from
        :func:`repro.machines.paragon`).
    image:
        2-D input image.
    bank, levels:
        Analysis bank and decomposition depth.
    decomposition:
        ``"striped"`` (the paper's choice) or ``"block"``.
    kernel:
        Filtering implementation: ``"conv"`` (default, the seed path),
        ``"lifting"`` or ``"single-loop"`` (see
        :mod:`repro.wavelet.kernels`).
    distribute / collect:
        Whether the timed region includes shipping the image out from
        rank 0 and gathering the subbands back (the paper's measurements
        operate on distributed data; pass ``True`` to include the I/O).

    Returns
    -------
    SpmdWaveletOutcome
        Engine run result and the assembled pyramid (when collected, or
        when running on one rank).

    Notes
    -----
    Thin wrapper over the runtime layer: builds a
    :class:`~repro.runtime.spec.JobSpec` for the registered ``wavelet``
    program and runs it through :func:`repro.runtime.execute`.
    """
    from repro.runtime import JobSpec, RunOptions, execute

    spec = JobSpec(
        program="wavelet",
        params={
            "image": image,
            "bank": bank,
            "levels": levels,
            "distribute": distribute,
            "collect": collect,
        },
        options=RunOptions(kernel=kernel, decomposition=decomposition),
    )
    return execute(machine, spec).outcome
