"""Monolithic single-loop 2-D lifting sweep (Barina et al., "Parallel
Wavelet Schemes for Images", PAPERS.md).

The separable lifting kernels run a full row pass and then a full column
pass per level, materializing half-band intermediates and (for the
column pass) paying transposed copies.  The single-loop scheme instead
splits the image *once* into its four polyphase lanes

    ``lane[(r, c)] = image[r::2, c::2]``    (r, c in {even, odd})

and interleaves the lifting steps: every step is applied horizontally
(within each row-parity pair of lanes) and immediately vertically
(within each column-parity pair), so each pixel is visited once per
level and no intermediate subband image ever exists.  Because a
vertical step ``V ⊗ I`` commutes with a horizontal step ``I ⊗ H`` as
linear operators, the interleaved product ``(V_n H_n) ··· (V_1 H_1)``
equals the separable ``(V_n ··· V_1)(H_n ··· H_1)`` exactly — the two
kernels agree to float rounding, and both match direct convolution
within :data:`repro.wavelet.lifting.VERIFY_TOLERANCE`.

The diagonal output scaling is deferred and folded in: each subband is one
multiply by the *product* of the two axes' scales, applied during lane
extraction (the separable form scales twice, once per pass).

Two boundary modes mirror :mod:`repro.wavelet.lifting`:

* periodized (:func:`single_loop_analyze_2d` /
  :func:`single_loop_synthesize_2d`) — the sequential kernel;
* valid-with-margins (:func:`single_loop_analyze_valid`) — the SPMD
  programs extend an owned tile with guard-exchanged margins and the
  sweep tracks a rectangular valid region per lane (row interval x
  column interval), raising :class:`~repro.errors.ConfigurationError`
  when the guards are too shallow.  The striped program keeps the
  column axis periodized (``periodic_cols=True``); the block program
  runs both axes in valid mode.

Both modes run the one interleaved-step loop :func:`_sweep`.  The
sequential kernel streams an image larger than :data:`_SWEEP_BYTES` in
row strips: each strip is a periodically wrapped, guard-extended band of
rows swept in valid-row mode, so the four polyphase lanes only ever hold
one strip and the output is bitwise the whole-image sweep's.  Smaller
images take the whole-image sweep, which needs no guard rows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.wavelet.lifting import LiftingScheme, LiftingStep

__all__ = [
    "single_loop_analyze_2d",
    "single_loop_synthesize_2d",
    "single_loop_analyze_valid",
]

_PARITIES = ("e", "o")
_OFFSET = {"e": 0, "o": 1}

#: Images (the analysis input, the synthesis output) up to this many
#: bytes are swept whole; larger ones in row strips whose input (two
#: image rows, or four half-width subband rows, per lane row) totals a
#: quarter of it: 32 lane rows at 1024 columns.
_SWEEP_BYTES = 2 << 20


def _axis_slice(arr: np.ndarray, a: int, b: int, axis: int) -> np.ndarray:
    return arr[a:b] if axis == 0 else arr[:, a:b]


def _check_reach(n: int, step: LiftingStep) -> None:
    lo = step.dmin
    hi = lo + len(step.coeffs) - 1
    if max(0, -lo) > n or max(0, hi) > n:
        raise ConfigurationError(
            f"axis of {n} lane samples too short for a lifting step reaching "
            f"[{lo}, {hi}] (would wrap more than once)"
        )


def _circ_step_2d(
    target: np.ndarray, source: np.ndarray, step: LiftingStep, sign: float, axis: int
) -> None:
    """``target[n] += sign * sum_j c[j] * source[(n + dmin + j) mod N]``
    along ``axis``, splitting each tap into its direct and wrapped slice
    (no periodic-extension copy of the lane)."""
    n = source.shape[axis]
    _check_reach(n, step)
    for j, c in enumerate(step.coeffs):
        k = (step.dmin + j) % n
        sc = sign * c
        if k == 0:
            target += sc * source
        else:
            head = _axis_slice(target, 0, n - k, axis)
            head += sc * _axis_slice(source, k, n, axis)
            tail = _axis_slice(target, n - k, n, axis)
            tail += sc * _axis_slice(source, 0, k, axis)


def _circ_shift_2d(arr: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Left-rotate ``axis`` by ``k`` (``out[n] = arr[(n + k) mod N]``)."""
    n = arr.shape[axis]
    k %= n
    if k == 0:
        return arr
    return np.concatenate(
        [_axis_slice(arr, k, n, axis), _axis_slice(arr, 0, k, axis)], axis=axis
    )


def _valid_step_2d(target, source, step, t_valid, s_valid, sign, axis):
    """Axis-generic :func:`repro.wavelet.lifting._valid_step`: apply the
    step where source samples exist along ``axis`` and return the
    target's new valid interval on that axis."""
    n_target = target.shape[axis]
    n_source = source.shape[axis]
    lo = step.dmin
    hi = lo + len(step.coeffs) - 1
    a = max(0, -lo)
    b = min(n_target, n_source - hi)
    if b > a:
        acc = _axis_slice(target, a, b, axis)
        for j, c in enumerate(step.coeffs):
            s0 = a + lo + j
            acc += (sign * c) * _axis_slice(source, s0, s0 + (b - a), axis)
    return (max(t_valid[0], s_valid[0] - lo, a), min(t_valid[1], s_valid[1] - hi, b))


def _sweep(lanes: dict, scheme: LiftingScheme, sign: float, row_valid=None, col_valid=None):
    """Run the scheme's lifting steps over the four lanes in place.

    Analysis (``sign=1``) applies each step horizontally, then
    vertically; synthesis (``sign=-1``) replays the steps backwards,
    vertically first.  ``row_valid``/``col_valid`` map each lane to its
    half-open valid interval along that axis and are updated in place;
    ``None`` periodizes the axis instead.
    """
    steps = scheme.steps if sign > 0 else tuple(reversed(scheme.steps))
    for step in steps:
        other = "o" if step.target == "e" else "e"
        for axis in ((1, 0) if sign > 0 else (0, 1)):
            along, across = (col_valid, row_valid) if axis else (row_valid, col_valid)
            for p in _PARITIES:
                if axis:
                    t, s = (p, step.target), (p, other)
                else:
                    t, s = (step.target, p), (other, p)
                if along is None:
                    _circ_step_2d(lanes[t], lanes[s], step, sign, axis)
                else:
                    along[t] = _valid_step_2d(
                        lanes[t], lanes[s], step, along[t], along[s], sign, axis
                    )
                if across is not None:
                    # Where the source lane is stale it poisons the target.
                    across[t] = (
                        max(across[t][0], across[s][0]),
                        min(across[t][1], across[s][1]),
                    )


def _split_quads(image: np.ndarray) -> dict:
    """Copy the four polyphase lanes out of an even-sided image."""
    return {
        (r, c): np.ascontiguousarray(image[_OFFSET[r] :: 2, _OFFSET[c] :: 2])
        for r in _PARITIES
        for c in _PARITIES
    }


def _merge_quads(lanes: dict, out: np.ndarray, start: int = 0) -> np.ndarray:
    """Interleave lane rows ``[start, start + rows(out) / 2)`` into ``out``."""
    stop = start + out.shape[0] // 2
    for r in _PARITIES:
        for c in _PARITIES:
            out[_OFFSET[r] :: 2, _OFFSET[c] :: 2] = lanes[(r, c)][start:stop]
    return out


def _band_specs(scheme: LiftingScheme):
    """(vertical, horizontal) (lane, scale, shift) triples in subband
    order ``ll, lh, hl, hh`` — ``lh`` is the vertically-highpassed band,
    matching the separable row-then-column convention."""
    low = (scheme.low_lane, scheme.low_scale, scheme.low_shift)
    high = (scheme.high_lane, scheme.high_scale, scheme.high_shift)
    return ((low, low), (high, low), (low, high), (high, high))


def _validate_even(rows: int, cols: int) -> None:
    if rows % 2 or cols % 2:
        raise ConfigurationError(
            f"image dimensions must be even for decimation, got {rows}x{cols}"
        )


def single_loop_analyze_2d(image: np.ndarray, scheme: LiftingScheme):
    """One periodized single-loop analysis sweep.

    Returns ``(ll, lh, hl, hh)`` quarter-size bands equal (to float
    rounding) to the separable lifting level, hence to convolution
    within the scheme's verified tolerance.
    """
    image = np.asarray(image, dtype=np.float64)
    rows, cols = image.shape
    _validate_even(rows, cols)
    if min(rows, cols) < scheme.filter_length:
        raise ConfigurationError(
            f"image {rows}x{cols} is shorter than the filter "
            f"({scheme.filter_length} taps); periodized filtering would "
            "wrap more than once"
        )
    if image.nbytes > _SWEEP_BYTES:
        front, back = scheme.analysis_margins
        back += back % 2  # keep strips an even number of rows
        half_rows, strip = rows // 2, max(1, _SWEEP_BYTES // (64 * cols))
        bands = tuple(np.empty((half_rows, cols // 2)) for _ in range(4))
        for r0 in range(0, half_rows, strip):
            r1 = min(half_rows, r0 + strip)
            ext = image[np.arange(2 * r0 - front, 2 * r1 + back) % rows]
            got = single_loop_analyze_valid(
                ext, scheme, r1 - r0, cols // 2, front, periodic_cols=True
            )
            for band, part in zip(bands, got):
                band[r0:r1] = part
        return bands
    lanes = _split_quads(image)
    _sweep(lanes, scheme, 1.0)
    bands = []
    for v, h in _band_specs(scheme):
        lane = lanes[(v[0], h[0])]
        shifted = _circ_shift_2d(_circ_shift_2d(lane, v[2], 0), h[2], 1)
        bands.append((v[1] * h[1]) * shifted)
    return tuple(bands)


def _synthesize_rows(bands, scheme: LiftingScheme, start: int, out: np.ndarray):
    """Valid-rows twin of :func:`single_loop_synthesize_2d`: write image
    rows ``[2 * start, 2 * start + rows(out))`` into ``out``, from lanes
    built over the periodically wrapped lane rows around them plus the
    scheme's synthesis guards."""
    n = bands[0].shape[0]
    out_rows = out.shape[0] // 2
    front, back = scheme.synthesis_margins
    idx = np.arange(start - front, start + out_rows + back)
    lanes = {}
    for band, (v, h) in zip(bands, _band_specs(scheme)):
        lane = band[(idx - v[2]) % n] * (1.0 / (v[1] * h[1]))
        lanes[(v[0], h[0])] = _circ_shift_2d(lane, -h[2], 1)
    row_valid = {key: (0, len(idx)) for key in lanes}
    _sweep(lanes, scheme, -1.0, row_valid=row_valid)
    for lo, hi in row_valid.values():
        if front < lo or front + out_rows > hi:
            raise ConfigurationError(
                f"insufficient row guard for the single-loop synthesis: need "
                f"lane[{front}:{front + out_rows}] valid, have [{lo}:{hi}) "
                "(see LiftingScheme.synthesis_margins)"
            )
    return _merge_quads(lanes, out, front)


def single_loop_synthesize_2d(ll, lh, hl, hh, scheme: LiftingScheme) -> np.ndarray:
    """Invert :func:`single_loop_analyze_2d`: unscale/unshift the four
    lanes, replay the interleaved steps backwards with the sign flipped,
    and re-interleave the quads."""
    bands = [np.asarray(b, dtype=np.float64) for b in (ll, lh, hl, hh)]
    shape = bands[0].shape
    for b in bands[1:]:
        if b.shape != shape:
            raise ConfigurationError(
                f"subband shapes differ: {[b.shape for b in bands]}"
            )
    out = np.empty((2 * shape[0], 2 * shape[1]), dtype=np.float64)
    if out.nbytes > _SWEEP_BYTES:
        # Strip lanes index rows modulo n, so refuse what the whole-image
        # sweep refuses: a step reaching past a too-short row axis.
        for step in scheme.steps:
            _check_reach(shape[0], step)
        strip = max(1, _SWEEP_BYTES // (64 * out.shape[1]))
        for i0 in range(0, shape[0], strip):
            _synthesize_rows(bands, scheme, i0, out[2 * i0 : 2 * (i0 + strip)])
        return out
    lanes = {}
    for band, (v, h) in zip(bands, _band_specs(scheme)):
        lane = band * (1.0 / (v[1] * h[1]))
        lane = _circ_shift_2d(_circ_shift_2d(lane, -v[2], 0), -h[2], 1)
        lanes[(v[0], h[0])] = np.ascontiguousarray(lane)
    _sweep(lanes, scheme, -1.0)
    return _merge_quads(lanes, out)


def single_loop_analyze_valid(
    ext: np.ndarray,
    scheme: LiftingScheme,
    out_rows: int,
    out_cols: int,
    lead_rows: int,
    lead_cols: int = 0,
    *,
    periodic_cols: bool = False,
):
    """Valid-mode single-loop sweep over a guard-extended tile.

    ``ext`` is the owned tile extended with neighbor guards: the first
    ``lead_rows`` rows (even) come from the north neighbor, the row tail
    from the south; with ``periodic_cols=False`` the first ``lead_cols``
    columns (even) come from the west and the column tail from the east,
    while ``periodic_cols=True`` treats the column axis as fully owned
    and periodized (the striped decomposition).  Returns
    ``(ll, lh, hl, hh)`` of ``out_rows x out_cols`` samples aligned with
    the owned tile — output ``(i, j)`` corresponds to input offset
    ``(2i, 2j)`` past the guards.  Raises :class:`ConfigurationError`
    when the guards are too shallow
    (:meth:`repro.wavelet.plan.KernelPlan.analysis_guard_depths` gives
    sufficient depths — the sweep's per-axis validity erosion is exactly
    the separable lifting pass's).
    """
    ext = np.asarray(ext, dtype=np.float64)
    if ext.ndim != 2:
        raise ConfigurationError(f"expected a 2-D tile, got shape {ext.shape}")
    if out_rows < 0 or out_cols < 0:
        raise ConfigurationError(
            f"output sizes must be >= 0, got {out_rows}x{out_cols}"
        )
    if lead_rows < 0 or lead_rows % 2 or lead_cols < 0 or lead_cols % 2:
        raise ConfigurationError(
            f"leads must be even and >= 0, got ({lead_rows}, {lead_cols})"
        )
    rows, cols = ext.shape
    _validate_even(rows, cols)
    lanes = _split_quads(ext)
    row_valid = {key: (0, lane.shape[0]) for key, lane in lanes.items()}
    col_valid = (
        None if periodic_cols
        else {key: (0, lane.shape[1]) for key, lane in lanes.items()}
    )
    _sweep(lanes, scheme, 1.0, row_valid, col_valid)
    bands = []
    for v, h in _band_specs(scheme):
        key = (v[0], h[0])
        lane = lanes[key]
        r0 = lead_rows // 2 + v[2]
        r_lo, r_hi = row_valid[key]
        if r0 < r_lo or r0 + out_rows > r_hi:
            raise ConfigurationError(
                f"insufficient row guard for the single-loop sweep: need "
                f"lane[{r0}:{r0 + out_rows}] valid, have [{r_lo}:{r_hi}) "
                "(see KernelPlan.analysis_guard_depths)"
            )
        if periodic_cols:
            if out_cols != lane.shape[1]:
                raise ConfigurationError(
                    f"periodic columns own the whole axis: expected "
                    f"out_cols == {lane.shape[1]}, got {out_cols}"
                )
            seg = _circ_shift_2d(lane[r0 : r0 + out_rows], h[2], 1)
        else:
            c0 = lead_cols // 2 + h[2]
            c_lo, c_hi = col_valid[key]
            if c0 < c_lo or c0 + out_cols > c_hi:
                raise ConfigurationError(
                    f"insufficient column guard for the single-loop sweep: "
                    f"need lane[{c0}:{c0 + out_cols}] valid, have "
                    f"[{c_lo}:{c_hi}) (see KernelPlan.analysis_guard_depths)"
                )
            seg = lane[r0 : r0 + out_rows, c0 : c0 + out_cols]
        bands.append((v[1] * h[1]) * seg)
    return tuple(bands)
