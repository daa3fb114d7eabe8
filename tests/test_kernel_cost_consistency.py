"""Cost-model consistency: the OpCounts the SPMD programs charge through
``ctx.charge`` must equal what :mod:`repro.wavelet.cost` (and the kernel
registry's cost methods) predict for the same pass sizes — for every
kernel.  A drift between the two silently skews every simulated timing.
"""

import numpy as np
import pytest

from repro.wavelet import (
    ConvKernel,
    LiftingKernel,
    daubechies_filter,
    dwt_1d,
    filter_pass_cost,
    get_kernel,
    haar_filter,
    lifting_pass_cost,
    lifting_scheme,
    mallat_decompose_2d,
    single_loop_sweep_cost,
    synthesis_pass_cost,
)
from repro.wavelet.parallel.decomposition import StripeDecomposition
from repro.wavelet.parallel.spmd import striped_wavelet_program
from repro.wavelet.parallel.spmd_1d import dwt_1d_program, idwt_1d_program
from repro.wavelet.parallel.spmd_reconstruct import striped_reconstruct_program

BANKS = [haar_filter(), daubechies_filter(4), daubechies_filter(8)]


class RecordingCtx:
    """Single-rank stand-in for the engine context: runs a rank program
    to completion, recording every ``ctx.charge`` OpCount."""

    rank = 0
    nranks = 1

    def __init__(self):
        self.charged = []

    def compute(self, flops=0.0, memops=0.0, intops=0.0, redundant=False):
        return None

    def charge(self, ops):
        self.charged.append(ops)
        return None

    def send(self, *args, **kwargs):  # pragma: no cover - single rank
        raise AssertionError("single-rank program must not send")

    def recv(self, *args, **kwargs):  # pragma: no cover - single rank
        raise AssertionError("single-rank program must not recv")


def drive(program, *args, **kwargs):
    """Run a rank program generator on a RecordingCtx; return the ctx."""
    ctx = RecordingCtx()
    gen = program(ctx, *args, **kwargs)
    try:
        gen.send(None)
        while True:
            gen.send(None)
    except StopIteration:
        return ctx


def _assert_same(charged, expected):
    assert len(charged) == len(expected)
    for got, want in zip(charged, expected):
        assert got.flops == want.flops
        assert got.memops == want.memops
        assert got.intops == want.intops


@pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
@pytest.mark.parametrize("kernel", ["conv", "lifting", "single-loop"])
def test_striped_2d_charges_match_cost_model(bank, kernel):
    rows = cols = 64
    levels = 2
    image = np.random.RandomState(0).standard_normal((rows, cols))
    decomp = StripeDecomposition(rows, cols, 1, levels)
    ctx = drive(
        striped_wavelet_program, image, bank, levels, decomp, kernel=kernel
    )

    taps = lifting_scheme(bank).step_taps
    expected = []
    r, c = rows, cols
    for _ in range(levels):
        if kernel == "conv":
            expected.append(filter_pass_cost(2 * r * (c // 2), bank.length))
            expected.append(filter_pass_cost(4 * (r // 2) * (c // 2), bank.length))
        elif kernel == "single-loop":
            # One monolithic sweep per level: a single charge.
            expected.append(single_loop_sweep_cost(r, c, taps))
        else:
            expected.append(lifting_pass_cost(2 * r * (c // 2), taps))
            expected.append(lifting_pass_cost(4 * (r // 2) * (c // 2), taps))
        r //= 2
        c //= 2
    _assert_same(ctx.charged, expected)

    # The registry kernel's level_cost aggregates the same passes the
    # program charged (row+column for the separable traversals, one
    # sweep for single-loop).
    registry_kernel = get_kernel(kernel)
    passes = 1 if kernel == "single-loop" else 2
    r, c = rows, cols
    for level in range(levels):
        level_total = ctx.charged[passes * level]
        for i in range(1, passes):
            level_total = level_total + ctx.charged[passes * level + i]
        predicted = registry_kernel.level_cost(r, c, bank)
        assert level_total.flops == predicted.flops
        assert level_total.memops == predicted.memops
        assert level_total.intops == predicted.intops
        r //= 2
        c //= 2


@pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
@pytest.mark.parametrize("kernel", ["conv", "lifting"])
def test_dwt_1d_charges_match_cost_model(bank, kernel):
    n, levels = 256, 3
    signal = np.random.RandomState(1).standard_normal(n)
    ctx = drive(dwt_1d_program, signal, bank, levels, kernel=kernel)

    taps = lifting_scheme(bank).step_taps
    expected = []
    length = n
    for _ in range(levels):
        out_len = length // 2
        if kernel == "conv":
            expected.append(filter_pass_cost(2 * out_len, bank.length))
        else:
            expected.append(lifting_pass_cost(2 * out_len, taps))
        length = out_len
    _assert_same(ctx.charged, expected)


@pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
@pytest.mark.parametrize("kernel", ["conv", "lifting"])
def test_idwt_1d_charges_match_cost_model(bank, kernel):
    n, levels = 256, 3
    signal = np.random.RandomState(2).standard_normal(n)
    approx, details = dwt_1d(signal, bank, levels)
    ctx = drive(idwt_1d_program, approx, details, bank, kernel=kernel)

    taps = lifting_scheme(bank).step_taps
    expected = []
    length = approx.shape[0]
    for _ in range(levels):
        out_len = 2 * length
        if kernel == "conv":
            # Conv synthesis charges per-channel outputs (two channels).
            expected.append(synthesis_pass_cost(2 * out_len, bank.length))
        else:
            # Lifting emits both lanes in one pass over out_len samples.
            expected.append(lifting_pass_cost(out_len, taps))
        length = out_len
    _assert_same(ctx.charged, expected)


@pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
@pytest.mark.parametrize("kernel", ["conv", "lifting"])
def test_reconstruct_charges_match_cost_model(bank, kernel):
    rows = cols = 64
    levels = 2
    image = np.random.RandomState(3).standard_normal((rows, cols))
    pyramid = mallat_decompose_2d(image, bank, levels)
    decomp = StripeDecomposition(rows, cols, 1, levels)
    ctx = drive(striped_reconstruct_program, pyramid, bank, decomp, kernel=kernel)

    taps = lifting_scheme(bank).step_taps
    expected = []
    r = rows // 2**levels
    c = cols // 2**levels
    for _ in range(levels):
        out_rows = 2 * r
        if kernel == "conv":
            expected.append(synthesis_pass_cost(4 * out_rows * c, bank.length))
            expected.append(synthesis_pass_cost(2 * out_rows * 2 * c, bank.length))
        else:
            expected.append(lifting_pass_cost(2 * out_rows * c, taps))
            expected.append(lifting_pass_cost(out_rows * 2 * c, taps))
        r, c = out_rows, 2 * c
    _assert_same(ctx.charged, expected)


@pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
def test_lifting_cheaper_than_conv_above_haar(bank):
    """The factorization's whole point: fewer flops per output for m >= 4
    (Haar's lifting form costs the same as its 2-tap convolution)."""
    conv = ConvKernel().level_cost(64, 64, bank)
    lifting = LiftingKernel().level_cost(64, 64, bank)
    if bank.length > 2:
        assert lifting.flops < conv.flops
    else:
        assert lifting.flops <= conv.flops + 64 * 64 * 3  # scaling multiplies
