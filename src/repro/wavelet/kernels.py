"""Kernel registry for the Mallat transform hot paths.

Every public transform entry point accepts
``kernel="conv"|"lifting"|"single-loop"`` (default ``"conv"``,
the seed implementation, byte-for-byte preserved):

* ``"conv"`` — direct periodized correlation/convolution
  (:mod:`repro.wavelet.conv`), one pass per subband.
* ``"lifting"`` — the factored scheme of :mod:`repro.wavelet.lifting`:
  roughly half the multiply-adds, both subbands in one in-place pass over
  the even/odd lanes.
* ``"single-loop"`` — the monolithic sweep of
  :mod:`repro.wavelet.singleloop`: the image is split once into its four
  polyphase lanes and every lifting step runs along both axes before the
  next, so each pixel is visited once per level and no intermediate
  subband image exists at all.  An image above 2 MiB is swept in row
  strips, so the lanes never hold more than one strip.

Each kernel is the *executor* half of a :class:`repro.wavelet.plan.KernelPlan`
— a thin configuration binding the plan's arithmetic scheme, traversal,
and boundary handling to concrete NumPy passes.  The cost
methods delegate to the plan (:meth:`KernelPlan.level_passes` charges one
entry per pass, so the single-loop kernel charges one sweep where the
separable kernels charge a row pass and a column pass), and the
cost-consistency tests hold them equal to what the SPMD programs actually
charge through ``ctx.charge``.

:func:`get_kernel` returns a fresh instance on every call — the
registry stores factories, so no caller can mutate state out from under
another.
"""

from __future__ import annotations

import numpy as np

from repro.wavelet.cost import OpCount
from repro.wavelet.conv import analyze_axis, synthesize_axis
from repro.wavelet.filters import FilterBank
from repro.wavelet.lifting import (
    LiftingScheme,
    lifting_analyze_axis,
    lifting_scheme,
    lifting_synthesize_axis,
)
from repro.wavelet.plan import KERNEL_NAMES, parse_kernel_spec
from repro.wavelet.singleloop import (
    single_loop_analyze_2d,
    single_loop_synthesize_2d,
)

__all__ = [
    "KERNEL_NAMES",
    "WaveletKernel",
    "ConvKernel",
    "LiftingKernel",
    "SingleLoopKernel",
    "get_kernel",
]


class WaveletKernel:
    """Interface every transform kernel implements.

    2-D methods consume/produce :class:`repro.wavelet.transform.Subbands2D`;
    1-D methods run one analysis/synthesis level.  Cost queries delegate
    to the kernel's :class:`~repro.wavelet.plan.KernelPlan` —
    ``output_samples`` counts every emitted sample (both subbands for
    analysis, the full doubled rate for synthesis).
    """

    name = "abstract"

    def __init__(self) -> None:
        self.plan = parse_kernel_spec(self.name)

    def forward_step_2d(self, image: np.ndarray, bank: FilterBank):
        raise NotImplementedError

    def inverse_step_2d(self, subbands, bank: FilterBank) -> np.ndarray:
        raise NotImplementedError

    def forward_1d(self, signal: np.ndarray, bank: FilterBank):
        raise NotImplementedError

    def inverse_1d(
        self, approx: np.ndarray, detail: np.ndarray, bank: FilterBank
    ) -> np.ndarray:
        raise NotImplementedError

    def analysis_pass_cost(self, output_samples: int, bank: FilterBank) -> OpCount:
        return self.plan.analysis_pass_cost(output_samples, bank)

    def synthesis_pass_cost(self, output_samples: int, bank: FilterBank) -> OpCount:
        return self.plan.synthesis_pass_cost(output_samples, bank)

    def level_cost(self, rows: int, cols: int, bank: FilterBank) -> OpCount:
        """One 2-D analysis level on an ``rows x cols`` input, totalled
        over the plan's per-pass charges (row pass plus column pass for
        the separable traversals, one sweep for single-loop)."""
        return self.plan.level_cost(rows, cols, bank)


class ConvKernel(WaveletKernel):
    """The seed convolution implementation (the default)."""

    name = "conv"

    def forward_step_2d(self, image, bank):
        from repro.wavelet.transform import mallat_step_2d

        image = np.asarray(image, dtype=np.float64)
        if image.ndim == 2:
            self.plan.validate_step_2d(*image.shape, bank)
        return mallat_step_2d(image, bank)

    def inverse_step_2d(self, subbands, bank):
        from repro.wavelet.transform import mallat_inverse_step_2d

        return mallat_inverse_step_2d(subbands, bank)

    def forward_1d(self, signal, bank):
        detail = analyze_axis(signal, bank.highpass, axis=0)
        approx = analyze_axis(signal, bank.lowpass, axis=0)
        return approx, detail

    def inverse_1d(self, approx, detail, bank):
        return synthesize_axis(approx, bank.lowpass, axis=0) + synthesize_axis(
            detail, bank.highpass, axis=0
        )


class LiftingKernel(WaveletKernel):
    """Factored lifting passes, separable (row pass then column pass)."""

    name = "lifting"

    def _scheme(self, bank: FilterBank) -> LiftingScheme:
        return lifting_scheme(bank)

    def forward_step_2d(self, image, bank):
        from repro.wavelet.transform import Subbands2D

        scheme = self._scheme(bank)
        image = np.asarray(image, dtype=np.float64)
        if image.ndim == 2:
            self.plan.validate_step_2d(*image.shape, bank)
        low, high = lifting_analyze_axis(image, scheme, axis=1)
        ll, lh = lifting_analyze_axis(low, scheme, axis=0)
        hl, hh = lifting_analyze_axis(high, scheme, axis=0)
        return Subbands2D(ll=ll, lh=lh, hl=hl, hh=hh)

    def inverse_step_2d(self, subbands, bank):
        scheme = self._scheme(bank)
        low = lifting_synthesize_axis(subbands.ll, subbands.lh, scheme, axis=0)
        high = lifting_synthesize_axis(subbands.hl, subbands.hh, scheme, axis=0)
        return lifting_synthesize_axis(low, high, scheme, axis=1)

    def forward_1d(self, signal, bank):
        return lifting_analyze_axis(signal, self._scheme(bank), axis=0)

    def inverse_1d(self, approx, detail, bank):
        return lifting_synthesize_axis(approx, detail, self._scheme(bank), axis=0)


class SingleLoopKernel(LiftingKernel):
    """The monolithic single-loop 2-D sweep (Barina et al.).

    Lifting arithmetic, but the traversal interleaves vertical and
    horizontal steps over the four polyphase lanes so each pixel is
    visited once per level (:mod:`repro.wavelet.singleloop`).  In 1-D
    there is only one axis to sweep, so the monolithic unit degenerates
    to the plain lifting pass — the 1-D paths are inherited.  The plan
    charges one sweep per level instead of two passes.
    """

    name = "single-loop"

    def forward_step_2d(self, image, bank):
        from repro.wavelet.transform import Subbands2D

        scheme = self._scheme(bank)
        image = np.asarray(image, dtype=np.float64)
        if image.ndim == 2:
            self.plan.validate_step_2d(*image.shape, bank)
        ll, lh, hl, hh = single_loop_analyze_2d(image, scheme)
        return Subbands2D(ll=ll, lh=lh, hl=hl, hh=hh)

    def inverse_step_2d(self, subbands, bank):
        scheme = self._scheme(bank)
        return single_loop_synthesize_2d(
            subbands.ll, subbands.lh, subbands.hl, subbands.hh, scheme
        )


_FACTORIES = {
    "conv": ConvKernel,
    "lifting": LiftingKernel,
    "single-loop": SingleLoopKernel,
}


def get_kernel(kernel) -> WaveletKernel:
    """Resolve a kernel name to a freshly configured kernel.

    Accepts a registered name (``"single-loop"``) or an already-built
    :class:`WaveletKernel` (passed through).  Every name resolution
    returns a *new* instance, so one caller's kernel can never leak into
    another's.  Unknown names raise :class:`ConfigurationError`.
    """
    if isinstance(kernel, WaveletKernel):
        return kernel
    return _FACTORIES[parse_kernel_spec(kernel).name]()
