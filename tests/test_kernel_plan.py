"""Tests for the kernel plan/executor split (``repro.wavelet.plan``).

The plan layer owns spec parsing, the scheme/traversal axes, uniform
minimum-size validation, guard depths, and the per-pass cost model;
``repro.wavelet.kernels`` executors are thin configurations of plans
served fresh from factories.
"""

import pytest

from repro.errors import ConfigurationError
from repro.wavelet import (
    ConvKernel,
    KERNEL_NAMES,
    LiftingKernel,
    SingleLoopKernel,
    daubechies_filter,
    get_kernel,
    haar_filter,
    lifting_scheme,
)
from repro.wavelet.plan import (
    KernelPlan,
    SCHEMES,
    TRAVERSALS,
    parse_kernel_spec,
)

BANKS = [haar_filter(), daubechies_filter(4), daubechies_filter(8)]


class TestParse:
    def test_registered_names(self):
        assert KERNEL_NAMES == ("conv", "lifting", "single-loop")

    def test_conv_plan_shape(self):
        plan = parse_kernel_spec("conv")
        assert plan.scheme == "conv"
        assert plan.traversal == "separable"

    def test_lifting_plan_shape(self):
        plan = parse_kernel_spec("lifting")
        assert plan.scheme == "lifting"
        assert plan.traversal == "separable"

    def test_single_loop_plan_shape(self):
        plan = parse_kernel_spec("single-loop")
        assert plan.scheme == "lifting"
        assert plan.traversal == "single-loop"

    def test_axes_are_closed_vocabularies(self):
        assert set(SCHEMES) == {"conv", "lifting"}
        assert set(TRAVERSALS) == {"separable", "single-loop"}

    @pytest.mark.parametrize(
        "spec",
        ["winograd", "", "conv:2", "lifting:4", "single-loop:8",
         "fused", "fused:16", "fused:", "fused:x", "fused:0", "fused:-1",
         "fused:1.5"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_kernel_spec(spec)

    def test_non_string_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a string"):
            parse_kernel_spec(16)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError, match="single-loop"):
            parse_kernel_spec("winograd")

    def test_conv_scheme_rejects_other_traversals(self):
        with pytest.raises(ConfigurationError, match="separable"):
            KernelPlan(name="x", scheme="conv", traversal="single-loop")


class TestRegistry:
    def test_factories_return_fresh_instances(self):
        # A singleton would leak per-instance state between callers.
        a = get_kernel("single-loop")
        b = get_kernel("single-loop")
        assert a is not b
        assert type(a) is SingleLoopKernel

    def test_instances_pass_through(self):
        kernel = SingleLoopKernel()
        assert get_kernel(kernel) is kernel

    def test_spec_reaches_executor_configuration(self):
        for name in KERNEL_NAMES:
            assert get_kernel(name).plan == parse_kernel_spec(name)

    def test_every_name_resolves_to_its_class(self):
        classes = {
            "conv": ConvKernel,
            "lifting": LiftingKernel,
            "single-loop": SingleLoopKernel,
        }
        for name, cls in classes.items():
            kernel = get_kernel(name)
            assert type(kernel) is cls
            assert kernel.plan.name == name

    def test_malformed_spec_surfaces_through_get_kernel(self):
        with pytest.raises(ConfigurationError):
            get_kernel("fused:zero")


class TestMinSize:
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_min_size_guard_is_uniform_and_actionable(self, name):
        import numpy as np

        bank = daubechies_filter(8)
        plan = parse_kernel_spec(name)
        need = plan.min_side(bank)
        small = np.zeros((need - 2 + (need % 2), 32))
        with pytest.raises(ConfigurationError, match="minimum image is"):
            get_kernel(name).forward_step_2d(small, bank)

    def test_odd_dimensions_rejected(self):
        import numpy as np

        bank = haar_filter()
        with pytest.raises(ConfigurationError, match="even"):
            get_kernel("single-loop").forward_step_2d(np.zeros((7, 8)), bank)

    def test_conv_min_side_is_filter_length(self):
        for bank in BANKS:
            assert parse_kernel_spec("conv").min_side(bank) == bank.length

    def test_lifting_family_shares_effective_length(self):
        for bank in BANKS:
            need = lifting_scheme(bank).filter_length
            for name in ("lifting", "single-loop"):
                assert parse_kernel_spec(name).min_side(bank) == need


class TestGuardDepths:
    def test_conv_guards(self):
        for bank in BANKS:
            assert parse_kernel_spec("conv").analysis_guard_depths(bank) == (
                0,
                bank.length,
            )

    def test_lifting_family_guards_agree_and_preserve_parity(self):
        for bank in BANKS:
            depths = {
                name: parse_kernel_spec(name).analysis_guard_depths(bank)
                for name in ("lifting", "single-loop")
            }
            assert len(set(depths.values())) == 1
            front, back = depths["single-loop"]
            assert front % 2 == 0 and back % 2 == 0


class TestCostModel:
    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_separable_traversals_charge_two_passes(self, bank):
        for name in ("conv", "lifting"):
            passes = parse_kernel_spec(name).level_passes(64, 96, bank)
            assert len(passes) == 2

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_single_loop_charges_one_sweep(self, bank):
        from repro.wavelet import single_loop_sweep_cost

        plan = parse_kernel_spec("single-loop")
        passes = plan.level_passes(64, 96, bank)
        assert len(passes) == 1
        taps = lifting_scheme(bank).step_taps
        assert passes[0] == single_loop_sweep_cost(64, 96, taps)

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_level_cost_sums_passes(self, bank):
        for name in KERNEL_NAMES:
            plan = parse_kernel_spec(name)
            total = plan.level_cost(64, 96, bank)
            summed = sum(
                (op for op in plan.level_passes(64, 96, bank)), start=type(total)()
            )
            assert total == summed

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_single_loop_strictly_cheaper_than_separable_lifting(self, bank):
        sweep = parse_kernel_spec("single-loop").level_cost(64, 64, bank)
        separable = parse_kernel_spec("lifting").level_cost(64, 64, bank)
        assert sweep.flops < separable.flops
        assert sweep.memops < separable.memops

    def test_kernel_cost_methods_delegate_to_plan(self):
        bank = daubechies_filter(4)
        for name in KERNEL_NAMES:
            kernel = get_kernel(name)
            assert kernel.level_cost(32, 32, bank) == kernel.plan.level_cost(
                32, 32, bank
            )

    def test_level_passes_rejects_odd_input(self):
        with pytest.raises(ConfigurationError):
            parse_kernel_spec("lifting").level_passes(33, 32, haar_filter())
