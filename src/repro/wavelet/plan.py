"""Kernel plans: the declarative half of the kernel stack.

A :class:`KernelPlan` captures *what* a wavelet kernel does, separated
along the axes the "Parallel Algorithm for the 2-D DWT" strategy split
calls out (Barina et al., PAPERS.md):

* **scheme** — the arithmetic: direct periodized convolution taps
  (``"conv"``) or a polyphase lifting factorization (``"lifting"``).
* **traversal** — how the image is walked: ``"separable"`` row pass then
  column pass, ``"strip-fused"`` row strips whose column pass runs while
  the strip is cache-hot, or ``"single-loop"`` — the monolithic sweep
  that interleaves vertical and horizontal lifting steps so each pixel
  is visited once per level.
* **buffer** — what intermediate state the traversal materializes:
  full half-band intermediates, a bounded strip, or only the four
  polyphase lanes.

The executor half lives in :mod:`repro.wavelet.kernels`: each
``WaveletKernel`` subclass is a thin configuration of one plan.  The
plan also owns the per-pass :class:`~repro.wavelet.cost.OpCount` model —
:meth:`~KernelPlan.level_passes` returns one entry per charged pass, so
nothing outside this module assumes the row-then-column split.

Plans are parsed from registry specs: ``"fused"`` and ``"fused:16"``
both resolve here, the latter overriding the strip height.  Malformed
specs raise :class:`~repro.errors.ConfigurationError`.
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
    "BufferPolicy",
    "KernelPlan",
    "parse_kernel_spec",
]

#: Registry spellings, in registration order.  ``repro.wavelet.kernels``
#: re-exports this tuple; it lives here so the plan parser does not
#: import the executor module.
KERNEL_NAMES = ("conv", "lifting", "fused", "single-loop")

SCHEMES = ("conv", "lifting")
TRAVERSALS = ("separable", "strip-fused", "single-loop")

_DEFAULT_BLOCK_ROWS = 32


@dataclass(frozen=True)
class BufferPolicy:
    """How much intermediate state a traversal materializes.

    ``kind`` is ``"full-intermediate"`` (separable passes keep whole
    half-band images alive), ``"strip"`` (the fused kernel bounds the
    live intermediate to ``block_rows`` output rows), or ``"lane"`` (the
    single-loop sweep keeps only the four polyphase lanes — no
    intermediate subband images at all)."""

    kind: str
    block_rows: int = 0

    def __post_init__(self):
        if self.kind not in ("full-intermediate", "strip", "lane"):
            raise ConfigurationError(f"unknown buffer policy kind {self.kind!r}")
        if self.kind == "strip" and self.block_rows < 1:
            raise ConfigurationError(
                f"strip buffer policy needs block_rows >= 1, got {self.block_rows}"
            )


@dataclass(frozen=True)
class KernelPlan:
    """Declarative description of one registered wavelet kernel."""

    name: str
    scheme: str
    traversal: str
    buffer: BufferPolicy

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

    @property
    def base(self) -> str:
        """The registry family name (``"fused:16"`` -> ``"fused"``)."""
        return self.name.split(":", 1)[0]

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
        the executor makes.  Separable and strip-fused traversals charge
        a row pass then a column pass; the single-loop sweep charges
        once."""
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


def _plan(name: str, base: str, block_rows: int) -> KernelPlan:
    if base == "conv":
        return KernelPlan(
            name=name,
            scheme="conv",
            traversal="separable",
            buffer=BufferPolicy("full-intermediate"),
        )
    if base == "lifting":
        return KernelPlan(
            name=name,
            scheme="lifting",
            traversal="separable",
            buffer=BufferPolicy("full-intermediate"),
        )
    if base == "fused":
        return KernelPlan(
            name=name,
            scheme="lifting",
            traversal="strip-fused",
            buffer=BufferPolicy("strip", block_rows=block_rows),
        )
    # base == "single-loop"
    return KernelPlan(
        name=name,
        scheme="lifting",
        traversal="single-loop",
        buffer=BufferPolicy("lane"),
    )


def parse_kernel_spec(spec: str) -> KernelPlan:
    """Parse a registry spec (``"conv"``, ``"fused"``, ``"fused:16"``,
    ``"single-loop"``) into a :class:`KernelPlan`.

    Only the strip-fused family takes a parameter (the strip height in
    output rows); anything else with a parameter, an unknown family, or
    a malformed parameter raises :class:`ConfigurationError`.
    """
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"kernel spec must be a string, got {type(spec).__name__}"
        )
    base, sep, param = spec.partition(":")
    if base not in KERNEL_NAMES:
        raise ConfigurationError(
            f"unknown kernel {spec!r}; choose one of {KERNEL_NAMES}"
        )
    block_rows = _DEFAULT_BLOCK_ROWS
    if sep:
        if base != "fused":
            raise ConfigurationError(
                f"kernel {base!r} takes no parameter (got spec {spec!r}); "
                "only 'fused:<block_rows>' is parameterized"
            )
        try:
            block_rows = int(param)
        except ValueError:
            raise ConfigurationError(
                f"malformed kernel spec {spec!r}: block_rows must be an "
                "integer, e.g. 'fused:16'"
            ) from None
        if block_rows < 1:
            raise ConfigurationError(
                f"malformed kernel spec {spec!r}: block_rows must be >= 1"
            )
    return _plan(spec, base, block_rows)
