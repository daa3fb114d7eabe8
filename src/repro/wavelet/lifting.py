"""Lifting-scheme factorization of the orthonormal filter banks.

Daubechies & Sweldens showed that any FIR wavelet filter bank factors
into a sequence of elementary *lifting steps* — alternately updating the
even and odd polyphase lanes with short predictions of each other —
followed by a diagonal scaling.  The factored transform performs roughly
half the multiply-adds of direct convolution and works in place on the
two lanes, which is why it is the fast path behind `kernel="lifting"`
and `kernel="single-loop"` (see :mod:`repro.wavelet.kernels`).

The factorization is computed numerically with the Euclidean algorithm
on Laurent polynomials over the bank's polyphase matrix

    ``M(t) = [[Le, Lo], [He, Ho]]``,   ``[A; D] = M(t) [Xe; Xo]``

where ``Le(t) = sum_j l[2j] t^j`` etc. (advance variable ``t``, matching
the ``a[n] = sum_k l[k] x[2n+k]`` convention of :mod:`repro.wavelet.conv`).
Column operations peel off lifting steps until the top row is a monomial;
the leftover diagonal (or anti-diagonal) supplies the two scale/shift
pairs.  Every factored scheme is verified against the convolution
primitives on a fixed random vector before it is cached; the observed
error is recorded on the scheme (``verify_error``) and documented bounds
are enforced (:data:`VERIFY_TOLERANCE`).

Periodized application uses a single periodic extension per step (no
``np.roll``); valid-mode application tracks the exact interval of valid
lane samples through every step and raises when the caller's guard
margins are insufficient — the SPMD programs size their guard exchanges
from :meth:`LiftingScheme.analysis_margins` /
:meth:`LiftingScheme.synthesis_margins`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError
from repro.wavelet.filters import FilterBank

__all__ = [
    "LiftingStep",
    "LiftingScheme",
    "lifting_scheme",
    "lifting_analyze_axis",
    "lifting_synthesize_axis",
    "lifting_analyze_axis_valid",
    "lifting_synthesize_axis_valid",
    "VERIFY_TOLERANCE",
]

# Coefficients at or below this magnitude are treated as exact zeros while
# factoring (spectral-factorization banks carry ~1e-12 noise).
_CHOP = 1e-10

# A factored scheme must reproduce the convolution analysis of a fixed
# random vector to this max-abs error, else lifting_scheme() refuses it.
# Haar/D4 factor to ~1e-15; D8 to ~2e-12; the longest supported spectral
# factorizations stay under ~1e-9.
VERIFY_TOLERANCE = 5e-8

_SCHEME_CACHE: dict = {}


# --------------------------------------------------------------------------
# Laurent polynomials (internal to the factorization)
# --------------------------------------------------------------------------


class _Laurent:
    """Dense Laurent polynomial ``sum_i c[i] t^(dmin+i)`` with chopping."""

    __slots__ = ("c", "dmin")

    def __init__(self, coeffs, dmin: int) -> None:
        c = np.asarray(coeffs, dtype=np.float64)
        nz = np.nonzero(np.abs(c) > _CHOP)[0]
        if nz.size == 0:
            self.c = np.zeros(0)
            self.dmin = 0
        else:
            self.c = c[nz[0] : nz[-1] + 1].copy()
            self.dmin = int(dmin) + int(nz[0])

    @property
    def zero(self) -> bool:
        return self.c.size == 0

    @property
    def width(self) -> int:
        return max(0, self.c.size - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Laurent({list(np.round(self.c, 6))}, t^{self.dmin})"

    def sub(self, other: "_Laurent") -> "_Laurent":
        if other.zero:
            return _Laurent(self.c, self.dmin)
        if self.zero:
            return _Laurent(-other.c, other.dmin)
        lo = min(self.dmin, other.dmin)
        hi = max(self.dmin + self.c.size, other.dmin + other.c.size)
        out = np.zeros(hi - lo)
        out[self.dmin - lo : self.dmin - lo + self.c.size] += self.c
        out[other.dmin - lo : other.dmin - lo + other.c.size] -= other.c
        return _Laurent(out, lo)

    def mul(self, other: "_Laurent") -> "_Laurent":
        if self.zero or other.zero:
            return _Laurent([], 0)
        return _Laurent(np.convolve(self.c, other.c), self.dmin + other.dmin)


def _divmod_top(a: _Laurent, b: _Laurent):
    """Division cancelling the highest-order terms first."""
    ac = a.c.copy()
    bc = b.c
    qlen = ac.size - bc.size + 1
    if qlen <= 0:
        return _Laurent([], 0), _Laurent(a.c, a.dmin)
    q = np.zeros(qlen)
    for i in range(qlen - 1, -1, -1):
        q[i] = ac[i + bc.size - 1] / bc[-1]
        ac[i : i + bc.size] -= q[i] * bc
    return _Laurent(q, a.dmin - b.dmin), _Laurent(ac, a.dmin)


def _divmod_bottom(a: _Laurent, b: _Laurent):
    """Division cancelling the lowest-order terms (mirror via reversal)."""
    ar = _Laurent(a.c[::-1], -(a.dmin + a.c.size - 1))
    br = _Laurent(b.c[::-1], -(b.dmin + b.c.size - 1))
    q, r = _divmod_top(ar, br)
    qf = _Laurent(q.c[::-1], -(q.dmin + q.c.size - 1)) if not q.zero else _Laurent([], 0)
    rf = _Laurent(r.c[::-1], -(r.dmin + r.c.size - 1)) if not r.zero else _Laurent([], 0)
    return qf, rf


def _laurent_divmod(a: _Laurent, b: _Laurent):
    """Laurent division is not unique; try both pivots, keep the division
    whose remainder is narrower (tie-break on remainder magnitude)."""
    qt, rt = _divmod_top(a, b)
    qb, rb = _divmod_bottom(a, b)
    keyt = (rt.width if not rt.zero else -1, np.abs(rt.c).max() if not rt.zero else 0.0)
    keyb = (rb.width if not rb.zero else -1, np.abs(rb.c).max() if not rb.zero else 0.0)
    return (qt, rt) if keyt <= keyb else (qb, rb)


# --------------------------------------------------------------------------
# Scheme dataclasses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftingStep:
    """One elementary lifting step.

    Applied during analysis as

        ``lane[target][n] += sum_j coeffs[j] * lane[other][n + dmin + j]``

    where ``target`` is ``"e"`` (even lane updated from odd) or ``"o"``
    (odd lane updated from even); synthesis applies the same step with the
    sign flipped, in reverse order.
    """

    target: str
    coeffs: tuple
    dmin: int

    def __post_init__(self) -> None:
        if self.target not in ("e", "o"):
            raise ConfigurationError(f"lifting target must be 'e'|'o', got {self.target!r}")
        if not self.coeffs:
            raise ConfigurationError("lifting step must have at least one tap")

    @property
    def taps(self) -> int:
        """Number of filter taps in this step."""
        return len(self.coeffs)


@dataclass(frozen=True)
class LiftingScheme:
    """A filter bank factored into lifting steps plus output scaling.

    Analysis: split into even/odd lanes, run ``steps`` in order, then

        ``a[n] = low_scale  * lane[low_lane][n + low_shift]``
        ``d[n] = high_scale * lane[high_lane][n + high_shift]``

    (``low_lane``/``high_lane`` are ``"e"``/``"o"``; they are swapped
    relative to the usual convention when the Euclidean reduction ends on
    an anti-diagonal matrix.)  Synthesis inverts the scaling and replays
    the steps backwards with negated coefficients.
    """

    filter_name: str
    filter_length: int
    steps: tuple
    low_lane: str
    low_scale: float
    low_shift: int
    high_lane: str
    high_scale: float
    high_shift: int
    verify_error: float = 0.0

    @property
    def step_taps(self) -> tuple:
        """Tap count per lifting step (the cost model's input)."""
        return tuple(step.taps for step in self.steps)

    @property
    def total_taps(self) -> int:
        """Total taps across all lifting steps."""
        return sum(self.step_taps)

    @cached_property
    def analysis_margins(self) -> tuple:
        """``(front, back)`` guard samples (input grid, front is even)
        required around an owned segment for valid-mode analysis."""
        return _probe_analysis_margins(self)

    @cached_property
    def synthesis_margins(self) -> tuple:
        """``(front, back)`` guard samples (subband grid) required around
        owned subband segments for valid-mode synthesis."""
        return _probe_synthesis_margins(self)


# --------------------------------------------------------------------------
# Factorization
# --------------------------------------------------------------------------


def _factor(bank: FilterBank) -> LiftingScheme:
    lowpass, highpass = bank.lowpass, bank.highpass
    M = [
        [_Laurent(lowpass[0::2], 0), _Laurent(lowpass[1::2], 0)],
        [_Laurent(highpass[0::2], 0), _Laurent(highpass[1::2], 0)],
    ]
    ops: list = []

    def col1_minus(q: _Laurent) -> None:
        # column op: col1 -= q * col2  <=>  execution step xo += q * xe
        M[0][0] = M[0][0].sub(q.mul(M[0][1]))
        M[1][0] = M[1][0].sub(q.mul(M[1][1]))
        ops.append(("o", q))

    def col2_minus(q: _Laurent) -> None:
        # column op: col2 -= q * col1  <=>  execution step xe += q * xo
        M[0][1] = M[0][1].sub(q.mul(M[0][0]))
        M[1][1] = M[1][1].sub(q.mul(M[1][0]))
        ops.append(("e", q))

    swapped = False
    for _ in range(200):
        Le, Lo = M[0]
        if Lo.zero and not Le.zero and Le.width == 0:
            break
        if Le.zero and not Lo.zero and Lo.width == 0:
            swapped = True
            break
        if Le.zero and Lo.zero:
            raise ConfigurationError(
                f"degenerate polyphase matrix for bank {bank.name!r}"
            )
        # Reduce the wider top-row entry with the narrower one.  The strict
        # `>` matters: on ties (e.g. two monomials) we must reduce col2, or
        # the reduction oscillates between (g, 0) and (0, g) forever.
        if Le.zero or (not Lo.zero and Le.width > Lo.width):
            q, _ = _laurent_divmod(Le, Lo)
            col1_minus(q)
        else:
            q, _ = _laurent_divmod(Lo, Le)
            col2_minus(q)
    else:
        raise ConfigurationError(
            f"lifting factorization did not terminate for bank {bank.name!r}"
        )

    if not swapped:
        g1 = M[0][0]
        He_, Ho_ = M[1]
        if Ho_.zero or Ho_.width != 0:
            raise ConfigurationError(
                f"bank {bank.name!r} is not invertible under lifting "
                f"(bottom-row residual is not a monomial)"
            )
        if not He_.zero:
            col1_minus(_Laurent(He_.c / Ho_.c[0], He_.dmin - Ho_.dmin))
        g2 = M[1][1]
        low_lane, high_lane = "e", "o"
    else:
        # Top row reduced to (0, g): the final matrix is anti-diagonal, so
        # the low output reads the odd lane and the high output the even.
        g1 = M[0][1]
        He_, Ho_ = M[1]
        if He_.zero or He_.width != 0:
            raise ConfigurationError(
                f"bank {bank.name!r} is not invertible under lifting "
                f"(bottom-row residual is not a monomial)"
            )
        if not Ho_.zero:
            col2_minus(_Laurent(Ho_.c / He_.c[0], Ho_.dmin - He_.dmin))
        g2 = M[1][0]
        low_lane, high_lane = "o", "e"

    if g1.zero or g1.width != 0 or g2.zero or g2.width != 0:
        raise ConfigurationError(
            f"lifting factorization of bank {bank.name!r} left non-monomial scales"
        )
    steps = tuple(
        LiftingStep(target=t, coeffs=tuple(float(c) for c in q.c), dmin=q.dmin)
        for t, q in ops
    )
    return LiftingScheme(
        filter_name=bank.name,
        filter_length=bank.length,
        steps=steps,
        low_lane=low_lane,
        low_scale=float(g1.c[0]),
        low_shift=g1.dmin,
        high_lane=high_lane,
        high_scale=float(g2.c[0]),
        high_shift=g2.dmin,
    )


def _verify(bank: FilterBank, scheme: LiftingScheme) -> float:
    """Max-abs error of the scheme vs the convolution primitives on a
    fixed random vector (analysis both subbands + round trip)."""
    from repro.wavelet.conv import analyze_axis

    n = max(64, 4 * bank.length)
    x = np.random.RandomState(12345).standard_normal(n)
    a_ref = analyze_axis(x, bank.lowpass, 0)
    d_ref = analyze_axis(x, bank.highpass, 0)
    a, d = lifting_analyze_axis(x, scheme, 0)
    back = lifting_synthesize_axis(a, d, scheme, 0)
    return float(
        max(
            np.abs(a - a_ref).max(),
            np.abs(d - d_ref).max(),
            np.abs(back - x).max(),
        )
    )


def lifting_scheme(bank: FilterBank) -> LiftingScheme:
    """Factor ``bank`` into a verified :class:`LiftingScheme` (cached).

    Raises
    ------
    ConfigurationError
        If the factorization fails or its error against the convolution
        primitives exceeds :data:`VERIFY_TOLERANCE`.
    """
    key = (bank.name, bank.lowpass.tobytes(), bank.highpass.tobytes())
    cached = _SCHEME_CACHE.get(key)
    if cached is not None:
        return cached
    scheme = _factor(bank)
    error = _verify(bank, scheme)
    if not error <= VERIFY_TOLERANCE:
        raise ConfigurationError(
            f"lifting factorization of bank {bank.name!r} verified at "
            f"max-abs error {error:.3e}, above tolerance {VERIFY_TOLERANCE:.0e}"
        )
    scheme = LiftingScheme(
        filter_name=scheme.filter_name,
        filter_length=scheme.filter_length,
        steps=scheme.steps,
        low_lane=scheme.low_lane,
        low_scale=scheme.low_scale,
        low_shift=scheme.low_shift,
        high_lane=scheme.high_lane,
        high_scale=scheme.high_scale,
        high_shift=scheme.high_shift,
        verify_error=error,
    )
    _SCHEME_CACHE[key] = scheme
    return scheme


# --------------------------------------------------------------------------
# Periodized application
# --------------------------------------------------------------------------


def _circular_step(target: np.ndarray, source: np.ndarray, step: LiftingStep, sign: float) -> None:
    """``target[n] += sign * sum_j c[j] * source[(n + dmin + j) mod N]``
    via one periodic extension of ``source`` and strided slices."""
    n = source.shape[-1]
    taps = len(step.coeffs)
    lo = step.dmin
    hi = step.dmin + taps - 1
    pre = max(0, -lo)
    post = max(0, hi)
    if pre > n or post > n:
        raise ConfigurationError(
            f"axis of {n} lane samples too short for a lifting step reaching "
            f"[{lo}, {hi}] (would wrap more than once)"
        )
    if pre or post:
        parts = []
        if pre:
            parts.append(source[..., n - pre :])
        parts.append(source)
        if post:
            parts.append(source[..., :post])
        extended = np.concatenate(parts, axis=-1)
    else:
        extended = source
    for j, c in enumerate(step.coeffs):
        offset = pre + lo + j
        target += (sign * c) * extended[..., offset : offset + n]


def _circular_shift(arr: np.ndarray, k: int) -> np.ndarray:
    """Left-rotate the last axis by ``k`` (``out[n] = arr[(n + k) mod N]``)."""
    n = arr.shape[-1]
    k %= n
    if k == 0:
        return arr
    return np.concatenate([arr[..., k:], arr[..., :k]], axis=-1)


def _split_lanes(moved: np.ndarray):
    xe = np.ascontiguousarray(moved[..., 0::2])
    xo = np.ascontiguousarray(moved[..., 1::2])
    return xe, xo


def lifting_analyze_axis(data: np.ndarray, scheme: LiftingScheme, axis: int):
    """Periodized lifting analysis along ``axis``.

    Returns ``(approx, detail)``, each with the axis halved; numerically
    equivalent to :func:`repro.wavelet.conv.analyze_axis` with the bank's
    lowpass/highpass taps (see :data:`VERIFY_TOLERANCE`).
    """
    data = np.asarray(data, dtype=np.float64)
    moved = np.moveaxis(data, axis, -1)
    n = moved.shape[-1]
    if n % 2 != 0:
        raise ConfigurationError(f"axis length must be even for decimation, got {n}")
    if n < scheme.filter_length:
        raise ConfigurationError(
            f"axis length {n} is shorter than the filter "
            f"({scheme.filter_length} taps); periodized filtering would "
            "wrap more than once"
        )
    xe, xo = _split_lanes(moved)
    lanes = {"e": xe, "o": xo}
    for step in scheme.steps:
        other = "o" if step.target == "e" else "e"
        _circular_step(lanes[step.target], lanes[other], step, 1.0)
    approx = scheme.low_scale * _circular_shift(lanes[scheme.low_lane], scheme.low_shift)
    detail = scheme.high_scale * _circular_shift(lanes[scheme.high_lane], scheme.high_shift)
    return np.moveaxis(approx, -1, axis), np.moveaxis(detail, -1, axis)


def lifting_synthesize_axis(
    approx: np.ndarray, detail: np.ndarray, scheme: LiftingScheme, axis: int
) -> np.ndarray:
    """Invert :func:`lifting_analyze_axis`: returns the doubled-axis signal
    (equals the low + high channel sum of
    :func:`repro.wavelet.conv.synthesize_axis`)."""
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if approx.shape != detail.shape:
        raise ConfigurationError(
            f"approx shape {approx.shape} does not match detail shape {detail.shape}"
        )
    a = np.moveaxis(approx, axis, -1)
    d = np.moveaxis(detail, axis, -1)
    lanes = {}
    lanes[scheme.low_lane] = _circular_shift(a * (1.0 / scheme.low_scale), -scheme.low_shift)
    lanes[scheme.high_lane] = _circular_shift(d * (1.0 / scheme.high_scale), -scheme.high_shift)
    for step in reversed(scheme.steps):
        other = "o" if step.target == "e" else "e"
        _circular_step(lanes[step.target], lanes[other], step, -1.0)
    out = np.empty(a.shape[:-1] + (2 * a.shape[-1],), dtype=np.float64)
    out[..., 0::2] = lanes["e"]
    out[..., 1::2] = lanes["o"]
    return np.moveaxis(out, -1, axis)


# --------------------------------------------------------------------------
# Valid-mode application (guard-zone SPMD programs)
# --------------------------------------------------------------------------


def _valid_step(target, source, step, t_valid, s_valid, sign):
    """Apply a lifting step where source samples exist; intersect validity.

    ``t_valid``/``s_valid`` are half-open index intervals of lane samples
    that are correct; returns the target's new valid interval.  Samples the
    step cannot compute (missing source neighbors) are left untouched and
    drop out of the valid interval.
    """
    n_target = target.shape[-1]
    n_source = source.shape[-1]
    lo = step.dmin
    hi = step.dmin + len(step.coeffs) - 1
    a = max(0, -lo)
    b = min(n_target, n_source - hi)
    if b > a:
        acc = target[..., a:b]
        for j, c in enumerate(step.coeffs):
            s0 = a + lo + j
            acc += (sign * c) * source[..., s0 : s0 + (b - a)]
    new_lo = max(t_valid[0], s_valid[0] - lo, a)
    new_hi = min(t_valid[1], s_valid[1] - hi, b)
    return (new_lo, new_hi)


def lifting_analyze_axis_valid(
    data: np.ndarray, scheme: LiftingScheme, axis: int, out_len: int, lead: int
):
    """Valid-mode (non-periodized) lifting analysis along ``axis``.

    ``data`` is an owned segment extended with guard samples: the first
    ``lead`` entries (``lead`` even) come from the preceding neighbor and
    the tail from the following one.  Returns ``(approx, detail)`` of
    ``out_len`` samples aligned with the owned segment — output ``n``
    corresponds to input offset ``2n`` past the guard.  Raises
    :class:`ConfigurationError` when the guards are too shallow
    (:meth:`LiftingScheme.analysis_margins` gives sufficient depths).
    """
    data = np.asarray(data, dtype=np.float64)
    if out_len < 0:
        raise ConfigurationError(f"out_len must be >= 0, got {out_len}")
    if lead < 0 or lead % 2 != 0:
        raise ConfigurationError(f"lead must be even and >= 0, got {lead}")
    moved = np.moveaxis(data, axis, -1)
    if moved.shape[-1] % 2 != 0:
        # An odd sample count would misalign the even/odd lanes; callers
        # extend with whole neighbor sample pairs.
        raise ConfigurationError(
            f"valid-mode lifting needs an even segment length, got {moved.shape[-1]}"
        )
    xe, xo = _split_lanes(moved)
    valid = {"e": (0, xe.shape[-1]), "o": (0, xo.shape[-1])}
    lanes = {"e": xe, "o": xo}
    for step in scheme.steps:
        other = "o" if step.target == "e" else "e"
        valid[step.target] = _valid_step(
            lanes[step.target], lanes[other], step, valid[step.target], valid[other], 1.0
        )
    outputs = []
    for lane, scale, shift in (
        (scheme.low_lane, scheme.low_scale, scheme.low_shift),
        (scheme.high_lane, scheme.high_scale, scheme.high_shift),
    ):
        start = lead // 2 + shift
        v_lo, v_hi = valid[lane]
        if start < v_lo or start + out_len > v_hi:
            raise ConfigurationError(
                f"insufficient guard for valid-mode lifting analysis: need "
                f"lane[{start}:{start + out_len}] valid, have [{v_lo}:{v_hi}) "
                f"(see LiftingScheme.analysis_margins)"
            )
        outputs.append(scale * lanes[lane][..., start : start + out_len])
    return (
        np.moveaxis(outputs[0], -1, axis),
        np.moveaxis(outputs[1], -1, axis),
    )


def lifting_synthesize_axis_valid(
    approx: np.ndarray,
    detail: np.ndarray,
    scheme: LiftingScheme,
    axis: int,
    out_len: int,
    lead: int,
) -> np.ndarray:
    """Valid-mode lifting synthesis along ``axis``.

    ``approx``/``detail`` are owned subband segments extended with ``lead``
    front guard samples (and any needed tail guards).  Returns ``out_len``
    interleaved outputs aligned with the owned subband start — output ``j``
    is signal sample ``2 * (segment_start + lead) + j`` of the sequential
    inverse.  Raises when guards are too shallow
    (:meth:`LiftingScheme.synthesis_margins`).
    """
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if approx.shape != detail.shape:
        raise ConfigurationError(
            f"approx shape {approx.shape} does not match detail shape {detail.shape}"
        )
    if out_len < 0:
        raise ConfigurationError(f"out_len must be >= 0, got {out_len}")
    if lead < 0:
        raise ConfigurationError(f"lead must be >= 0, got {lead}")
    a = np.moveaxis(approx, axis, -1)
    d = np.moveaxis(detail, axis, -1)
    n = a.shape[-1]
    lanes = {}
    valid = {}
    for (lane, scale, shift), segment in (
        ((scheme.low_lane, scheme.low_scale, scheme.low_shift), a),
        ((scheme.high_lane, scheme.high_scale, scheme.high_shift), d),
    ):
        # lane[i] = segment[i - shift] / scale where defined.
        arr = np.zeros_like(segment)
        if shift >= 0:
            arr[..., shift:] = segment[..., : n - shift] if shift else segment
            valid[lane] = (shift, n)
        else:
            arr[..., : n + shift] = segment[..., -shift:]
            valid[lane] = (0, n + shift)
        arr *= 1.0 / scale
        lanes[lane] = arr
    for step in reversed(scheme.steps):
        other = "o" if step.target == "e" else "e"
        valid[step.target] = _valid_step(
            lanes[step.target], lanes[other], step, valid[step.target], valid[other], -1.0
        )
    even_lo, even_hi = lead, lead + (out_len + 1) // 2
    odd_lo, odd_hi = lead, lead + out_len // 2
    if (
        even_lo < valid["e"][0]
        or even_hi > valid["e"][1]
        or odd_lo < valid["o"][0]
        or odd_hi > valid["o"][1]
    ):
        raise ConfigurationError(
            f"insufficient guard for valid-mode lifting synthesis: need "
            f"e[{even_lo}:{even_hi}) o[{odd_lo}:{odd_hi}), have "
            f"e{valid['e']} o{valid['o']} (see LiftingScheme.synthesis_margins)"
        )
    out = np.empty(a.shape[:-1] + (out_len,), dtype=np.float64)
    out[..., 0::2] = lanes["e"][..., even_lo:even_hi]
    out[..., 1::2] = lanes["o"][..., odd_lo:odd_hi]
    return np.moveaxis(out, -1, axis)


# --------------------------------------------------------------------------
# Margin probing
# --------------------------------------------------------------------------


def _probe_analysis_margins(scheme: LiftingScheme) -> tuple:
    limit = 4 * scheme.filter_length + 8
    for front in range(0, limit, 2):
        for back in range(0, limit):
            probe = np.zeros(front + 8 + back)
            try:
                lifting_analyze_axis_valid(probe, scheme, 0, 4, front)
            except ConfigurationError:
                continue
            return (front, back)
    raise ConfigurationError(
        f"could not determine analysis margins for scheme {scheme.filter_name!r}"
    )


def _probe_synthesis_margins(scheme: LiftingScheme) -> tuple:
    limit = 4 * scheme.filter_length + 8
    for front in range(0, limit):
        for back in range(0, limit):
            probe = np.zeros(front + 4 + back)
            try:
                lifting_synthesize_axis_valid(probe, probe, scheme, 0, 8, front)
            except ConfigurationError:
                continue
            return (front, back)
    raise ConfigurationError(
        f"could not determine synthesis margins for scheme {scheme.filter_name!r}"
    )
