"""Coarse-grain SPMD wavelet *reconstruction* (the paper's Figure 2
reverse process, parallelized with the same striping discipline as the
decomposition).

Each rank owns row stripes of every pyramid level.  Reconstruction runs
coarsest-to-finest; at each level the column synthesis (upsample + filter
along rows of the stripe) needs ``filter_length // 2`` guard rows from
the *north* neighbor — the mirror of the decomposition's south guard —
followed by fully local row synthesis.  Outputs are bit-identical to
:func:`repro.wavelet.mallat_reconstruct_2d`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecompositionError
from repro.machines import tags
from repro.machines.engine import Engine, Machine, RunResult
from repro.wavelet.conv import synthesize_axis, synthesize_axis_valid
from repro.wavelet.cost import lifting_pass_cost, synthesis_pass_cost
from repro.wavelet.filters import FilterBank
from repro.wavelet.parallel.decomposition import (
    StripeDecomposition,
    synthesis_guard_depths,
)
from repro.wavelet.pyramid import WaveletPyramid

__all__ = ["SpmdReconstructOutcome", "striped_reconstruct_program", "run_spmd_reconstruct"]

_TAG_DISTRIBUTE = tags.RECONSTRUCT_DISTRIBUTE
_TAG_GUARD = tags.RECONSTRUCT_GUARD
_TAG_COLLECT = tags.RECONSTRUCT_COLLECT
# Extra guard the lifting-scheme kernels fetch from the *south* neighbor
# when the inverse lifting steps reach forwards.
_TAG_GUARD_BACK = tags.RECONSTRUCT_GUARD_BACK


@dataclass
class SpmdReconstructOutcome:
    """Engine result plus the assembled image (rank 0)."""

    run: RunResult
    image: np.ndarray


def _stripe_pieces(pyramid: WaveletPyramid, decomp: StripeDecomposition, rank: int):
    """Slice one rank's stripes out of a full pyramid (deepest level's
    stripes use the deepest row split, and so on upward)."""
    levels = pyramid.levels
    a0, a1 = decomp.row_range(rank, level=levels)
    pieces = {"approx": pyramid.approximation[a0:a1].copy(), "details": []}
    for level in range(levels):
        d0, d1 = decomp.row_range(rank, level=level + 1)
        triple = pyramid.details[level]
        pieces["details"].append(
            (triple.lh[d0:d1].copy(), triple.hl[d0:d1].copy(), triple.hh[d0:d1].copy())
        )
    return pieces


def striped_reconstruct_program(
    ctx,
    pyramid: WaveletPyramid,
    bank: FilterBank,
    decomp: StripeDecomposition,
    *,
    distribute: bool = True,
    collect: bool = True,
    kernel: str = "conv",
):
    """Rank program for the striped parallel reconstruction.

    Any lifting-scheme kernel (``"lifting"``/``"single-loop"``
    — the single-loop inverse shares the separable lifting synthesis
    path) runs the inverse lifting passes with guard depths from the
    scheme's synthesis margins (a north front guard, plus a south back
    guard when the inverse steps reach forwards).
    """
    rank, nranks = ctx.rank, ctx.nranks
    m = bank.length
    guard_depth = max(1, m // 2)
    if kernel != "conv":
        from repro.wavelet.lifting import lifting_scheme

        scheme = lifting_scheme(bank)
        s_front, s_back = synthesis_guard_depths(bank, kernel)
    else:
        scheme = None
        s_front, s_back = synthesis_guard_depths(bank)
    levels = pyramid.levels

    if distribute and nranks > 1:
        if rank == 0:
            for dst in range(1, nranks):
                yield ctx.send(dst, _stripe_pieces(pyramid, decomp, dst), tag=_TAG_DISTRIBUTE)
            pieces = _stripe_pieces(pyramid, decomp, 0)
        else:
            pieces = yield ctx.recv(0, tag=_TAG_DISTRIBUTE)
    else:
        pieces = _stripe_pieces(pyramid, decomp, rank)

    north = decomp.north_neighbor(rank)
    south = decomp.south_neighbor(rank)
    current = np.asarray(pieces["approx"], dtype=np.float64)

    for level in range(levels - 1, -1, -1):
        lh, hl, hh = (np.asarray(b, dtype=np.float64) for b in pieces["details"][level])
        rows, cols = current.shape
        if (
            rows < guard_depth or rows < max(s_front, s_back)
        ) and nranks > 1:
            raise DecompositionError(
                f"local stripe of {rows} rows is shorter than the "
                f"synthesis guard requirement; reduce ranks or levels"
            )
        yield ctx.compute(intops=64, redundant=True)

        out_rows = 2 * rows
        if kernel == "conv":
            # Column synthesis needs the north neighbor's *bottom* guard rows
            # of every subband at this level (periodic wrap via the ring).
            if nranks > 1:
                bottom = np.stack(
                    [current[-guard_depth:], lh[-guard_depth:], hl[-guard_depth:], hh[-guard_depth:]]
                )
                yield ctx.send(south, bottom, tag=_TAG_GUARD)
                guard = yield ctx.recv(north, tag=_TAG_GUARD)
            else:
                guard = np.stack(
                    [current[-guard_depth:], lh[-guard_depth:], hl[-guard_depth:], hh[-guard_depth:]]
                )
            ext_ll = np.vstack([guard[0], current])
            ext_lh = np.vstack([guard[1], lh])
            ext_hl = np.vstack([guard[2], hl])
            ext_hh = np.vstack([guard[3], hh])

            low = synthesize_axis_valid(
                ext_ll, bank.lowpass, 0, out_rows, guard_depth
            ) + synthesize_axis_valid(ext_lh, bank.highpass, 0, out_rows, guard_depth)
            high = synthesize_axis_valid(
                ext_hl, bank.lowpass, 0, out_rows, guard_depth
            ) + synthesize_axis_valid(ext_hh, bank.highpass, 0, out_rows, guard_depth)
            yield ctx.charge(synthesis_pass_cost(4 * out_rows * cols, m))

            # Row synthesis is fully local (rows are whole within a stripe).
            current = synthesize_axis(low, bank.lowpass, 1) + synthesize_axis(
                high, bank.highpass, 1
            )
            yield ctx.charge(synthesis_pass_cost(2 * out_rows * 2 * cols, m))
        else:
            from repro.wavelet.lifting import (
                lifting_synthesize_axis,
                lifting_synthesize_axis_valid,
            )

            bands = (current, lh, hl, hh)
            if nranks > 1:
                if s_front > 0:
                    bottom = np.stack([b[rows - s_front :] for b in bands])
                    yield ctx.send(south, bottom, tag=_TAG_GUARD)
                if s_back > 0:
                    top = np.stack([b[:s_back] for b in bands])
                    yield ctx.send(north, top, tag=_TAG_GUARD_BACK)
                if s_front > 0:
                    front_guard = yield ctx.recv(north, tag=_TAG_GUARD)
                else:
                    front_guard = [b[:0] for b in bands]
                if s_back > 0:
                    back_guard = yield ctx.recv(south, tag=_TAG_GUARD_BACK)
                else:
                    back_guard = [b[:0] for b in bands]
            else:
                front_guard = [b[rows - s_front :] for b in bands]
                back_guard = [b[:s_back] for b in bands]
            ext = [
                np.vstack([front_guard[i], bands[i], back_guard[i]])
                for i in range(4)
            ]

            # Column inverse: (LL, LH) -> low rows, (HL, HH) -> high rows.
            low = lifting_synthesize_axis_valid(ext[0], ext[1], scheme, 0, out_rows, s_front)
            high = lifting_synthesize_axis_valid(ext[2], ext[3], scheme, 0, out_rows, s_front)
            yield ctx.charge(lifting_pass_cost(2 * out_rows * cols, scheme.step_taps))

            # Row inverse is fully local (periodized along the row axis).
            current = lifting_synthesize_axis(low, high, scheme, axis=1)
            yield ctx.charge(lifting_pass_cost(out_rows * 2 * cols, scheme.step_taps))

    if collect and nranks > 1:
        if rank == 0:
            stripes = [current]
            for src in range(1, nranks):
                stripes.append((yield ctx.recv(src, tag=_TAG_COLLECT)))
            return np.vstack(stripes)
        yield ctx.send(0, current, tag=_TAG_COLLECT)
        return None
    return current if rank == 0 else None


def run_spmd_reconstruct(
    machine: Machine,
    pyramid: WaveletPyramid,
    bank: FilterBank,
    *,
    distribute: bool = True,
    collect: bool = True,
    kernel: str = "conv",
) -> SpmdReconstructOutcome:
    """Reconstruct a pyramid on a simulated machine; the result matches
    the sequential inverse transform exactly (``kernel="conv"``) or within
    float tolerance (lifting kernels)."""
    rows, cols = pyramid.original_shape
    decomp = StripeDecomposition(rows, cols, machine.nranks, pyramid.levels)
    run = Engine(machine).run(
        striped_reconstruct_program,
        pyramid,
        bank,
        decomp,
        distribute=distribute,
        collect=collect,
        kernel=kernel,
    )
    return SpmdReconstructOutcome(run=run, image=run.results[0])
