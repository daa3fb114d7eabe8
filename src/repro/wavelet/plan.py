"""Kernel plans: the declarative half of the kernel stack.

A :class:`KernelPlan` captures *what* a wavelet kernel does, separated
along the axes the "Parallel Algorithm for the 2-D DWT" strategy split
calls out (Barina et al., PAPERS.md):

* **scheme** — the arithmetic: direct periodized convolution taps
  (``"conv"``) or a polyphase lifting factorization (``"lifting"``).
* **traversal** — how the image is walked: ``"separable"`` row pass then
  column pass, or ``"single-loop"`` — the monolithic sweep that
  interleaves vertical and horizontal lifting steps so each pixel is
  visited once per level (in row strips once the image is large).

The executor half lives in :mod:`repro.wavelet.kernels`: each
``WaveletKernel`` subclass is a thin configuration of one plan.  The
plan also owns the per-pass :class:`~repro.wavelet.cost.OpCount` model —
:meth:`~KernelPlan.level_passes` returns one entry per charged pass, so
nothing outside this module assumes the row-then-column split.

Plans are parsed from registry names; an unknown name raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.wavelet.cost import (
    OpCount,
    filter_pass_cost,
    lifting_pass_cost,
    single_loop_sweep_cost,
    synthesis_pass_cost,
)
from repro.wavelet.filters import FilterBank

__all__ = [
    "KERNEL_NAMES",
    "SCHEMES",
    "TRAVERSALS",
    "KernelPlan",
    "parse_kernel_spec",
]

#: Registry spellings, in registration order.  ``repro.wavelet.kernels``
#: re-exports this tuple; it lives here so the plan parser does not
#: import the executor module.
KERNEL_NAMES = ("conv", "lifting", "single-loop")

SCHEMES = ("conv", "lifting")
TRAVERSALS = ("separable", "single-loop")


@dataclass(frozen=True)
class KernelPlan:
    """Declarative description of one registered wavelet kernel."""

    name: str
    scheme: str
    traversal: str

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.traversal not in TRAVERSALS:
            raise ConfigurationError(f"unknown traversal {self.traversal!r}")
        if self.scheme == "conv" and self.traversal != "separable":
            raise ConfigurationError(
                "conv arithmetic only supports the separable traversal"
            )

    # -- structural queries -------------------------------------------------

    def _step_taps(self, bank: FilterBank) -> tuple:
        from repro.wavelet.lifting import lifting_scheme

        return lifting_scheme(bank).step_taps

    def min_side(self, bank: FilterBank) -> int:
        """Smallest image side a 2-D analysis step accepts under this
        plan: periodized filtering may not wrap more than once, so both
        sides must reach the (effective) filter length."""
        if self.scheme == "conv":
            return bank.length
        from repro.wavelet.lifting import lifting_scheme

        return lifting_scheme(bank).filter_length

    def validate_step_2d(self, rows: int, cols: int, bank: FilterBank) -> None:
        """Uniform minimum-size check for one 2-D analysis step; every
        traversal enforces the same bound, and the error reports the
        actionable minimum."""
        if rows % 2 or cols % 2:
            raise ConfigurationError(
                f"image dimensions must be even for decimation, got {rows}x{cols}"
            )
        need = self.min_side(bank)
        if min(rows, cols) < need:
            raise ConfigurationError(
                f"image {rows}x{cols} is too small for the {self.name!r} kernel "
                f"with the {bank.length}-tap {bank.name} bank: both sides must "
                f"be at least {need} (and even), so the minimum image is "
                f"{need + need % 2}x{need + need % 2}"
            )

    def analysis_guard_depths(self, bank: FilterBank) -> tuple:
        """(front, back) guard rows of the *input* grid a valid-margins
        executor needs per analysis pass.  Lifting-scheme traversals all
        share the scheme's probed margins (the single-loop sweep erodes
        validity exactly like the separable lifting pass along each
        axis); the front depth is kept even so lane parity is preserved,
        and the back depth is rounded up to even for the same reason."""
        if self.scheme == "conv":
            return (0, bank.length)
        from repro.wavelet.lifting import lifting_scheme

        front, back = lifting_scheme(bank).analysis_margins
        return (front, back + back % 2)

    def synthesis_guard_depths(self, bank: FilterBank) -> tuple:
        """(front, back) guard rows of the *subband* grid a valid-margins
        executor needs per synthesis pass."""
        if self.scheme == "conv":
            return (max(1, bank.length // 2), 0)
        from repro.wavelet.lifting import lifting_scheme

        return lifting_scheme(bank).synthesis_margins

    # -- cost model ---------------------------------------------------------

    def analysis_pass_cost(self, output_samples: int, bank: FilterBank) -> OpCount:
        """Cost of one 1-D analysis pass emitting ``output_samples``."""
        if self.scheme == "conv":
            return filter_pass_cost(output_samples, bank.length)
        return lifting_pass_cost(output_samples, self._step_taps(bank))

    def synthesis_pass_cost(self, output_samples: int, bank: FilterBank) -> OpCount:
        """Cost of one 1-D synthesis pass emitting ``output_samples``."""
        if self.scheme == "conv":
            return synthesis_pass_cost(output_samples, bank.length)
        return lifting_pass_cost(output_samples, self._step_taps(bank))

    def level_passes(self, rows: int, cols: int, bank: FilterBank) -> tuple:
        """Per-pass costs of one 2-D analysis level, one entry per charge
        the executor makes.  The separable traversal charges a row pass
        then a column pass; the single-loop sweep charges once."""
        if rows % 2 or cols % 2:
            raise ConfigurationError(
                f"level input must have even dimensions, got {(rows, cols)}"
            )
        if self.traversal == "single-loop":
            return (single_loop_sweep_cost(rows, cols, self._step_taps(bank)),)
        row_pass = self.analysis_pass_cost(2 * rows * (cols // 2), bank)
        col_pass = self.analysis_pass_cost(4 * (rows // 2) * (cols // 2), bank)
        return (row_pass, col_pass)

    def level_cost(self, rows: int, cols: int, bank: FilterBank) -> OpCount:
        """Total cost of one 2-D analysis level under this plan."""
        total = OpCount()
        for op in self.level_passes(rows, cols, bank):
            total = total + op
        return total


def parse_kernel_spec(spec: str) -> KernelPlan:
    """Parse a registry name (``"conv"``, ``"lifting"``,
    ``"single-loop"``) into a :class:`KernelPlan`; anything else raises
    :class:`ConfigurationError`."""
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"kernel spec must be a string, got {type(spec).__name__}"
        )
    if spec not in KERNEL_NAMES:
        raise ConfigurationError(
            f"unknown kernel {spec!r}; choose one of {KERNEL_NAMES}"
        )
    return KernelPlan(
        name=spec,
        scheme="conv" if spec == "conv" else "lifting",
        traversal="single-loop" if spec == "single-loop" else "separable",
    )
