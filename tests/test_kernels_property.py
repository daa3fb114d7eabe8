"""Property-based kernel equivalence (hypothesis) and the seed-path
byte-identity regression.

The lifting and single-loop kernels must reproduce the conv
reference — forward, inverse, and round-trip — for arbitrary float64
inputs, within a tolerance that scales with the data magnitude.  The default ``kernel="conv"`` path
must stay byte-for-byte what the seed produced, pinned by sha256 digests
over a fixed pipeline.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.wavelet import (
    denoise_2d,
    dwt_1d,
    filter_bank_for_length,
    get_kernel,
    idwt_1d,
    mallat_decompose_2d,
    mallat_inverse_step_2d,
    mallat_reconstruct_2d,
    mallat_step_2d,
)
from repro.errors import ConfigurationError

filter_lengths = st.sampled_from([2, 4, 8])
kernels = st.sampled_from(["lifting", "single-loop"])


def images(side_pows=(4, 5)):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.sampled_from([2**p for p in side_pows]),
            st.sampled_from([2**p for p in side_pows]),
        ),
        elements=st.floats(-1e4, 1e4, allow_nan=False, width=64),
    )


def signals(min_pow=5, max_pow=7):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_pow, max_pow).map(lambda p: 2**p),
        elements=st.floats(-1e4, 1e4, allow_nan=False, width=64),
    )


def _tol(data, budget):
    """Absolute budget scaled by the data's magnitude (float64 relative)."""
    return budget * max(1.0, float(np.abs(data).max()))


@settings(max_examples=25, deadline=None)
@given(image=images(), m=filter_lengths, kernel=kernels)
def test_forward_step_matches_conv(image, m, kernel):
    bank = filter_bank_for_length(m)
    ref = mallat_step_2d(image, bank)
    got = mallat_step_2d(image, bank, kernel=kernel)
    tol = _tol(image, 1e-9)
    for band in ("ll", "lh", "hl", "hh"):
        assert np.abs(getattr(got, band) - getattr(ref, band)).max() <= tol


@settings(max_examples=25, deadline=None)
@given(image=images(), m=filter_lengths, kernel=kernels)
def test_inverse_step_matches_conv(image, m, kernel):
    bank = filter_bank_for_length(m)
    subbands = mallat_step_2d(image, bank)
    ref = mallat_inverse_step_2d(subbands, bank)
    got = mallat_inverse_step_2d(subbands, bank, kernel=kernel)
    assert np.abs(got - ref).max() <= _tol(image, 1e-9)


@settings(max_examples=25, deadline=None)
@given(image=images(), m=filter_lengths, kernel=kernels)
def test_2d_round_trip(image, m, kernel):
    bank = filter_bank_for_length(m)
    pyramid = mallat_decompose_2d(image, bank, 2, kernel=kernel)
    back = mallat_reconstruct_2d(pyramid, bank, kernel=kernel)
    assert np.abs(back - image).max() <= _tol(image, 1e-10)


@settings(max_examples=25, deadline=None)
@given(signal=signals(), m=filter_lengths, kernel=kernels)
def test_1d_matches_conv_and_round_trips(signal, m, kernel):
    bank = filter_bank_for_length(m)
    ref_a, ref_d = dwt_1d(signal, bank, 2)
    approx, details = dwt_1d(signal, bank, 2, kernel=kernel)
    tol = _tol(signal, 1e-9)
    assert np.abs(approx - ref_a).max() <= tol
    for got, ref in zip(details, ref_d):
        assert np.abs(got - ref).max() <= tol
    back = idwt_1d(approx, details, bank, kernel=kernel)
    assert np.abs(back - signal).max() <= _tol(signal, 1e-10)


def test_registry_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        get_kernel("winograd")
    kernel = get_kernel("lifting")
    assert get_kernel(kernel) is kernel  # instances pass through


# ---------------------------------------------------------------------------
# Seed-path byte identity: the default kernel must keep producing the exact
# bytes the pre-registry implementation produced (digests recorded when the
# registry landed, verified byte-identical against the seed revision).
# ---------------------------------------------------------------------------

_SEED_DIGESTS = {
    2: "55ab8197bb1f5a44d39719adca7f97d64f64d1f4befdb90f82e25dae67de2f4c",
    4: "a2a0086aab26988486bb5de8f48173a040b3d5ddf6e6da79c179de1730c7a6d9",
    8: "f5223a5c7b450aa8cda636a3bb42e1d0823d7f62ea2025a4f8b56b3313645fa7",
}


def _seed_pipeline_digest(m: int) -> str:
    rng = np.random.RandomState(42)
    image = rng.standard_normal((64, 64))
    signal = rng.standard_normal(256)
    bank = filter_bank_for_length(m)
    h = hashlib.sha256()
    pyramid = mallat_decompose_2d(image, bank, 3)
    h.update(pyramid.approximation.tobytes())
    for triple in pyramid.details:
        h.update(triple.lh.tobytes())
        h.update(triple.hl.tobytes())
        h.update(triple.hh.tobytes())
    h.update(mallat_reconstruct_2d(pyramid, bank).tobytes())
    approx, details = dwt_1d(signal, bank, 3)
    h.update(approx.tobytes())
    for band in details:
        h.update(band.tobytes())
    h.update(idwt_1d(approx, details, bank).tobytes())
    h.update(denoise_2d(image, bank=bank, levels=2).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("m", sorted(_SEED_DIGESTS))
def test_default_kernel_is_byte_identical_to_seed(m):
    assert _seed_pipeline_digest(m) == _SEED_DIGESTS[m]
