"""Mallat multi-resolution wavelet decomposition and reconstruction.

Implements the exact sequence of steps the paper describes in Section 2:

    (1) high-pass and low-pass filtering of image *rows* at level k,
    (2) decimation by 2 of the columns  -> L_{k+1}, H_{k+1},
    (3) high-pass and low-pass filtering of image *columns*,
    (4) decimation by 2 of the rows     -> LL, LH, HL, HH,
    (5) recurse on LL until the desired level.

Subband naming follows "row-filter then column-filter": ``lh`` means low
pass along rows, high pass along columns.

The 1-D transform (:func:`dwt_1d` / :func:`idwt_1d`) is provided both for
signal work and because the 2-D separable transform is validated against
composing it axis by axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.wavelet.conv import analyze_axis, synthesize_axis
from repro.wavelet.filters import FilterBank

__all__ = [
    "Subbands2D",
    "mallat_step_2d",
    "mallat_inverse_step_2d",
    "dwt_1d",
    "idwt_1d",
    "max_decomposition_levels",
]


@dataclass(frozen=True)
class Subbands2D:
    """One level of 2-D decomposition output.

    Attributes use the row-then-column filter naming: ``ll`` is the
    coarse approximation (renamed I_{k+1} by the paper), ``hl`` carries
    vertical edges (high along rows), ``lh`` horizontal edges, ``hh``
    diagonal detail.
    """

    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of each subband (all four match)."""
        return tuple(self.ll.shape)

    def detail_energy(self) -> float:
        """Sum of squares over the three detail subbands."""
        return float(
            (self.lh**2).sum() + (self.hl**2).sum() + (self.hh**2).sum()
        )

    def total_energy(self) -> float:
        """Sum of squares over all four subbands (equals input energy for
        orthonormal banks)."""
        return float((self.ll**2).sum()) + self.detail_energy()


def max_decomposition_levels(shape: tuple[int, int], filter_length: int) -> int:
    """Largest level count for which every intermediate axis stays even and
    no shorter than the filter."""
    levels = 0
    rows, cols = shape
    while (
        rows % 2 == 0
        and cols % 2 == 0
        and rows >= max(2, filter_length)
        and cols >= max(2, filter_length)
    ):
        levels += 1
        rows //= 2
        cols //= 2
    return levels


def mallat_step_2d(
    image: np.ndarray, bank: FilterBank, *, kernel: str = "conv"
) -> Subbands2D:
    """One level of separable 2-D decomposition (steps 1-4 of the paper).

    ``kernel`` selects the implementation (``"conv"``, ``"lifting"`` or
    ``"single-loop"`` — see
    :mod:`repro.wavelet.kernels`); the default keeps the seed
    convolution path byte-for-byte.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ConfigurationError(f"expected a 2-D image, got ndim={image.ndim}")
    if kernel != "conv":
        from repro.wavelet.kernels import get_kernel

        return get_kernel(kernel).forward_step_2d(image, bank)

    # Steps 1-2: filter along rows (axis 1), decimating the column count.
    low_rows = analyze_axis(image, bank.lowpass, axis=1)
    high_rows = analyze_axis(image, bank.highpass, axis=1)

    # Steps 3-4: filter along columns (axis 0), decimating the row count.
    return Subbands2D(
        ll=analyze_axis(low_rows, bank.lowpass, axis=0),
        lh=analyze_axis(low_rows, bank.highpass, axis=0),
        hl=analyze_axis(high_rows, bank.lowpass, axis=0),
        hh=analyze_axis(high_rows, bank.highpass, axis=0),
    )


def mallat_inverse_step_2d(
    subbands: Subbands2D, bank: FilterBank, *, kernel: str = "conv"
) -> np.ndarray:
    """Invert one decomposition level (the paper's Figure 2 reverse process)."""
    if kernel != "conv":
        from repro.wavelet.kernels import get_kernel

        return get_kernel(kernel).inverse_step_2d(subbands, bank)
    low_rows = synthesize_axis(subbands.ll, bank.lowpass, axis=0) + synthesize_axis(
        subbands.lh, bank.highpass, axis=0
    )
    high_rows = synthesize_axis(subbands.hl, bank.lowpass, axis=0) + synthesize_axis(
        subbands.hh, bank.highpass, axis=0
    )
    return synthesize_axis(low_rows, bank.lowpass, axis=1) + synthesize_axis(
        high_rows, bank.highpass, axis=1
    )


def dwt_1d(
    signal: np.ndarray, bank: FilterBank, levels: int = 1, *, kernel: str = "conv"
) -> tuple[np.ndarray, list]:
    """Multi-level 1-D decomposition.

    Returns ``(approximation, details)`` where ``details[i]`` is the detail
    band of level ``i + 1`` (finest first).
    """
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1, got {levels}")
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ConfigurationError(f"expected a 1-D signal, got ndim={signal.ndim}")
    if kernel != "conv":
        from repro.wavelet.kernels import get_kernel

        impl = get_kernel(kernel)
        details = []
        approx = signal
        for _ in range(levels):
            approx, detail = impl.forward_1d(approx, bank)
            details.append(detail)
        return approx, details
    details: list[np.ndarray] = []
    approx = signal
    for _ in range(levels):
        detail = analyze_axis(approx, bank.highpass, axis=0)
        approx = analyze_axis(approx, bank.lowpass, axis=0)
        details.append(detail)
    return approx, details


def idwt_1d(
    approx: np.ndarray, details: list, bank: FilterBank, *, kernel: str = "conv"
) -> np.ndarray:
    """Invert :func:`dwt_1d` given the approximation and the detail list."""
    signal = np.asarray(approx, dtype=np.float64)
    if kernel != "conv":
        from repro.wavelet.kernels import get_kernel

        impl = get_kernel(kernel)
        for detail in reversed(details):
            if detail.shape != signal.shape:
                raise ConfigurationError(
                    f"detail shape {detail.shape} does not match running "
                    f"approximation shape {signal.shape}"
                )
            signal = impl.inverse_1d(signal, detail, bank)
        return signal
    for detail in reversed(details):
        if detail.shape != signal.shape:
            raise ConfigurationError(
                f"detail shape {detail.shape} does not match running "
                f"approximation shape {signal.shape}"
            )
        signal = synthesize_axis(signal, bank.lowpass, axis=0) + synthesize_axis(
            detail, bank.highpass, axis=0
        )
    return signal
