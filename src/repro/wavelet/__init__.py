"""Mallat multi-resolution wavelet decomposition (the paper's Section 2)
and its parallel formulations (Section 4).

Sequential API
--------------
* :func:`daubechies_filter` / :func:`haar_filter` — the filter banks the
  experiments sweep (lengths 8, 4, 2).
* :func:`mallat_decompose_2d` / :func:`mallat_reconstruct_2d` — the
  multi-level 2-D transform and its exact inverse.
* :func:`dwt_1d` / :func:`idwt_1d` — 1-D counterparts.
* :mod:`repro.wavelet.cost` — the operation-count model the machine
  simulators charge virtual time from.

Parallel API (under :mod:`repro.wavelet.parallel`)
--------------------------------------------------
* Coarse-grain SPMD decomposition with striped domains, guard zones, and
  snake placement (the Paragon algorithm of Section 4.2).
* Fine-grain SIMD systolic and dilution algorithms with cut-and-stack or
  hierarchical virtualization (the MasPar algorithms of Section 4.1).
"""

from repro.wavelet.conv import (
    analyze_axis,
    analyze_axis_valid,
    periodic_convolve,
    periodic_correlate,
    synthesize_axis,
    synthesize_axis_valid,
)
from repro.wavelet.cost import (
    OpCount,
    dwt_level_cost,
    dwt_total_cost,
    filter_pass_cost,
    lifting_level_cost,
    lifting_pass_cost,
    synthesis_pass_cost,
)
from repro.wavelet.cost import single_loop_sweep_cost
from repro.wavelet.kernels import (
    KERNEL_NAMES,
    ConvKernel,
    LiftingKernel,
    SingleLoopKernel,
    WaveletKernel,
    get_kernel,
)
from repro.wavelet.plan import KernelPlan, parse_kernel_spec
from repro.wavelet.lifting import (
    LiftingScheme,
    LiftingStep,
    lifting_analyze_axis,
    lifting_analyze_axis_valid,
    lifting_scheme,
    lifting_synthesize_axis,
    lifting_synthesize_axis_valid,
)
from repro.wavelet.filters import (
    SUPPORTED_LENGTHS,
    FilterBank,
    daubechies_filter,
    filter_bank_for_length,
    haar_filter,
    quadrature_mirror,
)
from repro.wavelet.denoise import (
    denoise_1d,
    denoise_2d,
    estimate_noise_sigma,
    soft_threshold,
)
from repro.wavelet.features import (
    orientation_dominance,
    signature_distance,
    subband_energies,
    texture_signature,
)
from repro.wavelet.registration import (
    RegistrationResult,
    phase_correlation,
    register_translation,
)
from repro.wavelet.pyramid import (
    DetailTriple,
    WaveletPyramid,
    mallat_decompose_2d,
    mallat_reconstruct_2d,
)
from repro.wavelet.transform import (
    Subbands2D,
    dwt_1d,
    idwt_1d,
    mallat_inverse_step_2d,
    mallat_step_2d,
    max_decomposition_levels,
)

__all__ = [
    "FilterBank",
    "quadrature_mirror",
    "haar_filter",
    "daubechies_filter",
    "filter_bank_for_length",
    "SUPPORTED_LENGTHS",
    "analyze_axis",
    "analyze_axis_valid",
    "synthesize_axis",
    "synthesize_axis_valid",
    "periodic_correlate",
    "periodic_convolve",
    "Subbands2D",
    "mallat_step_2d",
    "mallat_inverse_step_2d",
    "dwt_1d",
    "idwt_1d",
    "max_decomposition_levels",
    "DetailTriple",
    "WaveletPyramid",
    "mallat_decompose_2d",
    "mallat_reconstruct_2d",
    "OpCount",
    "RegistrationResult",
    "phase_correlation",
    "register_translation",
    "subband_energies",
    "texture_signature",
    "signature_distance",
    "orientation_dominance",
    "denoise_1d",
    "denoise_2d",
    "soft_threshold",
    "estimate_noise_sigma",
    "filter_pass_cost",
    "dwt_level_cost",
    "dwt_total_cost",
    "synthesis_pass_cost",
    "lifting_pass_cost",
    "lifting_level_cost",
    "single_loop_sweep_cost",
    "KERNEL_NAMES",
    "WaveletKernel",
    "ConvKernel",
    "LiftingKernel",
    "SingleLoopKernel",
    "get_kernel",
    "KernelPlan",
    "parse_kernel_spec",
    "LiftingScheme",
    "LiftingStep",
    "lifting_scheme",
    "lifting_analyze_axis",
    "lifting_synthesize_axis",
    "lifting_analyze_axis_valid",
    "lifting_synthesize_axis_valid",
]
