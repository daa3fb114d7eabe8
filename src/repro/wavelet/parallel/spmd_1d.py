"""Coarse-grain SPMD transform for 1-D signals.

The paper's introduction motivates wavelets for signal analysis (speech)
as well as imagery; this module parallelizes the 1-D Mallat transform
with the same discipline as the 2-D striped code: contiguous segments
per rank, a guard of ``filter_length`` samples fetched from the right
(next) neighbor before each level's filtering, periodic wrap through the
ring.  Output matches :func:`repro.wavelet.dwt_1d` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecompositionError
from repro.machines import tags
from repro.machines.engine import Engine, Machine, RunResult
from repro.wavelet.conv import analyze_axis_valid
from repro.wavelet.cost import filter_pass_cost, lifting_pass_cost
from repro.wavelet.filters import FilterBank
from repro.wavelet.parallel.decomposition import (
    analysis_guard_depths,
    synthesis_guard_depths,
)

__all__ = [
    "Spmd1dOutcome",
    "dwt_1d_program",
    "run_spmd_dwt_1d",
    "idwt_1d_program",
    "run_spmd_idwt_1d",
]

_TAG_DISTRIBUTE = tags.DWT1D_DISTRIBUTE
_TAG_GUARD = tags.DWT1D_GUARD
_TAG_COLLECT = tags.DWT1D_COLLECT
# Opposite-direction guards only the lifting-scheme kernels need.
_TAG_GUARD_FRONT = tags.DWT1D_GUARD_FRONT
_TAG_GUARD_BACK = tags.DWT1D_GUARD_BACK


@dataclass
class Spmd1dOutcome:
    """Engine result plus the assembled (approximation, details) output."""

    run: RunResult
    approximation: np.ndarray
    details: list


def _segment(n: int, nranks: int, rank: int) -> tuple:
    if n % nranks != 0:
        raise DecompositionError(
            f"signal length {n} must divide evenly over {nranks} ranks"
        )
    width = n // nranks
    return rank * width, (rank + 1) * width


def dwt_1d_program(
    ctx,
    signal: np.ndarray,
    bank: FilterBank,
    levels: int,
    *,
    distribute: bool = True,
    collect: bool = True,
    kernel: str = "conv",
):
    """Rank program for the striped 1-D multi-level decomposition.

    Any lifting-scheme kernel (``"lifting"``/``"single-loop"``
    — in 1-D the monolithic sweep degenerates to the factored passes)
    runs the lifting path; the left-neighbor guard shrinks to the
    scheme's back margin and a second, front guard travels the other way
    around the ring when the lifting steps reach backwards.
    """
    rank, nranks = ctx.rank, ctx.nranks
    m = bank.length
    if kernel != "conv":
        from repro.wavelet.lifting import lifting_scheme

        scheme = lifting_scheme(bank)
        front, back = analysis_guard_depths(bank, kernel)
    else:
        scheme = None
        front, back = analysis_guard_depths(bank)
    n = signal.shape[0]
    if n % (nranks * 2**levels) != 0:
        raise DecompositionError(
            f"signal length {n} must be divisible by nranks*2^levels="
            f"{nranks * 2 ** levels}"
        )

    if distribute and nranks > 1:
        if rank == 0:
            for dst in range(1, nranks):
                s0, s1 = _segment(n, nranks, dst)
                yield ctx.send(dst, signal[s0:s1], tag=_TAG_DISTRIBUTE)
            s0, s1 = _segment(n, nranks, 0)
            current = np.array(signal[s0:s1], dtype=np.float64)
        else:
            current = np.asarray(
                (yield ctx.recv(0, tag=_TAG_DISTRIBUTE)), dtype=np.float64
            )
    else:
        s0, s1 = _segment(n, nranks, rank)
        current = np.array(signal[s0:s1], dtype=np.float64)

    right = (rank + 1) % nranks
    left = (rank - 1) % nranks
    local_details = []
    for _level in range(levels):
        length = current.shape[0]
        if (length < m or length < max(front, back)) and nranks > 1:
            raise DecompositionError(
                f"local segment of {length} samples is shorter than the "
                f"filter/guard requirement; reduce ranks or levels"
            )
        if kernel == "conv":
            # Guard: my left neighbor needs my first m samples (periodic ring).
            if nranks > 1:
                yield ctx.send(left, current[:m].copy(), tag=_TAG_GUARD)
                guard = yield ctx.recv(right, tag=_TAG_GUARD)
            else:
                guard = current[:m]
            extended = np.concatenate([current, guard])
            out_len = length // 2
            approx = analyze_axis_valid(extended, bank.lowpass, 0, out_len)
            detail = analyze_axis_valid(extended, bank.highpass, 0, out_len)
            yield ctx.charge(filter_pass_cost(2 * out_len, m))
        else:
            from repro.wavelet.lifting import lifting_analyze_axis_valid

            if nranks > 1:
                if back > 0:
                    yield ctx.send(left, current[:back].copy(), tag=_TAG_GUARD)
                if front > 0:
                    yield ctx.send(
                        right, current[length - front :].copy(), tag=_TAG_GUARD_FRONT
                    )
                back_guard = (
                    (yield ctx.recv(right, tag=_TAG_GUARD))
                    if back > 0
                    else current[:0]
                )
                front_guard = (
                    (yield ctx.recv(left, tag=_TAG_GUARD_FRONT))
                    if front > 0
                    else current[:0]
                )
            else:
                back_guard = current[:back]
                front_guard = current[length - front :]
            extended = np.concatenate([front_guard, current, back_guard])
            out_len = length // 2
            approx, detail = lifting_analyze_axis_valid(
                extended, scheme, 0, out_len, front
            )
            yield ctx.charge(lifting_pass_cost(2 * out_len, scheme.step_taps))
        local_details.append(detail)
        current = approx

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


def idwt_1d_program(
    ctx,
    approximation: np.ndarray,
    details: list,
    bank: FilterBank,
    *,
    collect: bool = True,
    kernel: str = "conv",
):
    """Rank program for the striped 1-D reconstruction.

    Synthesis needs a guard from the *left* neighbor (the mirror of the
    analysis guard), of depth ``filter_length // 2`` coefficients.  Under
    any lifting-scheme kernel (``"lifting"``/``"single-loop"``)
    the guard depths come from the scheme's synthesis margins, adding a
    right-neighbor (back) guard when the inverse steps reach forwards.
    """
    from repro.wavelet.conv import synthesize_axis_valid
    from repro.wavelet.cost import synthesis_pass_cost

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
    levels = len(details)
    right = (rank + 1) % nranks
    left = (rank - 1) % nranks

    a0, a1 = _segment(approximation.shape[0], nranks, rank)
    current = np.array(approximation[a0:a1], dtype=np.float64)

    for level in range(levels - 1, -1, -1):
        d0, d1 = _segment(details[level].shape[0], nranks, rank)
        detail = np.array(details[level][d0:d1], dtype=np.float64)
        length = current.shape[0]
        if (
            length < guard_depth or length < max(s_front, s_back)
        ) and nranks > 1:
            raise DecompositionError(
                f"local segment of {length} samples is shorter than the "
                f"synthesis guard requirement; reduce ranks or levels"
            )
        if kernel == "conv":
            if nranks > 1:
                tail = np.stack([current[-guard_depth:], detail[-guard_depth:]])
                yield ctx.send(right, tail, tag=_TAG_GUARD)
                guard = yield ctx.recv(left, tag=_TAG_GUARD)
            else:
                guard = np.stack([current[-guard_depth:], detail[-guard_depth:]])
            ext_approx = np.concatenate([guard[0], current])
            ext_detail = np.concatenate([guard[1], detail])
            out_len = 2 * length
            current = synthesize_axis_valid(
                ext_approx, bank.lowpass, 0, out_len, guard_depth
            ) + synthesize_axis_valid(ext_detail, bank.highpass, 0, out_len, guard_depth)
            yield ctx.charge(synthesis_pass_cost(2 * out_len, m))
        else:
            from repro.wavelet.lifting import lifting_synthesize_axis_valid

            if nranks > 1:
                if s_front > 0:
                    tail = np.stack([current[length - s_front :], detail[length - s_front :]])
                    yield ctx.send(right, tail, tag=_TAG_GUARD)
                if s_back > 0:
                    head = np.stack([current[:s_back], detail[:s_back]])
                    yield ctx.send(left, head, tag=_TAG_GUARD_BACK)
                if s_front > 0:
                    guard = yield ctx.recv(left, tag=_TAG_GUARD)
                    front_a, front_d = guard[0], guard[1]
                else:
                    front_a = front_d = current[:0]
                if s_back > 0:
                    guard = yield ctx.recv(right, tag=_TAG_GUARD_BACK)
                    back_a, back_d = guard[0], guard[1]
                else:
                    back_a = back_d = current[:0]
            else:
                front_a, front_d = current[length - s_front :], detail[length - s_front :]
                back_a, back_d = current[:s_back], detail[:s_back]
            ext_approx = np.concatenate([front_a, current, back_a])
            ext_detail = np.concatenate([front_d, detail, back_d])
            out_len = 2 * length
            current = lifting_synthesize_axis_valid(
                ext_approx, ext_detail, scheme, 0, out_len, s_front
            )
            yield ctx.charge(lifting_pass_cost(out_len, scheme.step_taps))

    if collect and nranks > 1:
        if rank == 0:
            segments = [current]
            for src in range(1, nranks):
                segments.append((yield ctx.recv(src, tag=_TAG_COLLECT)))
            return np.concatenate(segments)
        yield ctx.send(0, current, tag=_TAG_COLLECT)
        return None
    return current if rank == 0 else None


def run_spmd_idwt_1d(
    machine: Machine,
    approximation: np.ndarray,
    details: list,
    bank: FilterBank,
    *,
    kernel: str = "conv",
):
    """Reconstruct a 1-D multi-level decomposition on a simulated machine;
    matches :func:`repro.wavelet.idwt_1d` exactly (``kernel="conv"``) or
    within float tolerance (lifting kernels).  Returns ``(run, signal)``."""
    run = Engine(machine).run(
        idwt_1d_program,
        np.asarray(approximation, dtype=np.float64),
        [np.asarray(d, dtype=np.float64) for d in details],
        bank,
        kernel=kernel,
    )
    return run, run.results[0]


def run_spmd_dwt_1d(
    machine: Machine,
    signal: np.ndarray,
    bank: FilterBank,
    levels: int,
    *,
    distribute: bool = True,
    kernel: str = "conv",
) -> Spmd1dOutcome:
    """Run the 1-D decomposition on a simulated machine; outputs match
    the sequential :func:`repro.wavelet.dwt_1d` exactly (``kernel="conv"``)
    or within float tolerance (lifting kernels)."""
    signal = np.asarray(signal, dtype=np.float64)
    run = Engine(machine).run(
        dwt_1d_program,
        signal,
        bank,
        levels,
        distribute=distribute,
        collect=True,
        kernel=kernel,
    )
    gathered = run.results[0]
    approximation = np.concatenate([p["approx"] for p in gathered])
    details = [
        np.concatenate([p["details"][level] for p in gathered])
        for level in range(levels)
    ]
    return Spmd1dOutcome(run=run, approximation=approximation, details=details)
