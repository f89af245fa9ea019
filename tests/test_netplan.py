import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textshape import netplan


def bilinear_oracle(a):
    """Scalar closed-form align-corners-false bilinear x2 evaluation."""
    h, w = a.shape
    out = np.zeros((2 * h, 2 * w))
    for i in range(2 * h):
        for j in range(2 * w):
            sy = min(max((i + 0.5) / 2 - 0.5, 0.0), h - 1.0)
            sx = min(max((j + 0.5) / 2 - 0.5, 0.0), w - 1.0)
            y0, x0 = int(sy), int(sx)
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            out[i, j] = (
                a[y0, x0] * (1 - fy) * (1 - fx)
                + a[y0, x1] * (1 - fy) * fx
                + a[y1, x0] * fy * (1 - fx)
                + a[y1, x1] * fy * fx
            )
    return out


class TestShapePlan:
    def test_512_two_channels_three_way_alignment(self):
        plan = netplan.shape_plan(512, 512, 2)
        ch1, ch2 = plan.channels
        assert ch1.input_shape == (512, 512)
        assert ch2.input_shape == (256, 256)
        assert ch1.stages["conv5"] == (16, 16)
        assert ch2.stages["conv4"] == (16, 16)
        assert ch2.stages["conv5"] == (8, 8)
        first = plan.fusion_steps[0]
        names = [name for name, _ in first.inputs]
        shapes = {shape for _, shape in first.inputs}
        assert len(first.inputs) == 3
        assert shapes == {(16, 16)}
        assert "ch2.conv5^2" in names and "ch1.conv5" in names and "ch2.conv4" in names

    def test_final_shape_is_stride_four(self):
        plan = netplan.shape_plan(512, 512, 2)
        assert plan.output_shape == (128, 128)
        assert plan.output_shape == plan.channels[0].stages["conv2"]

    def test_single_channel_two_input_fusions(self):
        plan = netplan.shape_plan(512, 512, 1)
        assert all(len(step.inputs) == 2 for step in plan.fusion_steps)
        assert plan.output_shape == (128, 128)

    def test_indivisible_rejected_naming_conv5(self):
        with pytest.raises(netplan.ShapePlanError) as err:
            netplan.shape_plan(520, 512, 2)
        assert "conv5" in str(err.value)

    @pytest.mark.parametrize("n_channels", [1, 2, 3, 4])
    def test_error_names_the_deepest_failing_stage(self, n_channels):
        def deepest_first(h, w):
            for k in reversed(range(n_channels)):
                for name, s in zip(reversed(netplan.STAGE_NAMES), reversed(netplan.STAGE_STRIDES)):
                    if h % (s << k) or w % (s << k):
                        return f"channel {k + 1} {name} requires divisibility by {s << k}, "
            return None

        for h in range(8, 2409, 8):
            for w in (8, 96, 256, 1000, 2400):
                want = deepest_first(h, w)
                if want is None:
                    assert netplan.shape_plan(h, w, n_channels).input_shape == (h, w)
                    continue
                with pytest.raises(netplan.ShapePlanError) as err:
                    netplan.shape_plan(h, w, n_channels)
                assert str(err.value) == f"{want}got {h}x{w}"

    def test_all_fusion_inputs_aligned(self):
        for n in (1, 2, 3):
            plan = netplan.shape_plan(768, 1024, n)
            netplan.assert_aligned(plan)
            for step in plan.fusion_steps:
                assert len({shape for _, shape in step.inputs}) == 1

    def test_resampling_consistency(self):
        two = netplan.shape_plan(512, 512, 2)
        one = netplan.shape_plan(256, 256, 1)
        assert two.channels[1].stages == one.channels[0].stages

    def test_rectangular_input(self):
        plan = netplan.shape_plan(256, 512, 2)
        assert plan.channels[0].stages["conv2"] == (64, 128)
        assert plan.output_shape == (64, 128)

    def test_upsample_realizes_planned_fusion_inputs(self):
        # The deepest stage map, numerically up-sampled, must land on the
        # shape the plan promises for the first fusion's "^2" input.
        plan = netplan.shape_plan(512, 512, 2)
        deep = plan.channels[1].stages["conv5"]
        up = netplan.upsample2x(np.zeros(deep))
        promised = dict(plan.fusion_steps[0].inputs)["ch2.conv5^2"]
        assert up.shape == promised


class TestUpsample2x:
    def test_constant_preserved(self):
        out = netplan.upsample2x(np.full((4, 4), 5.0))
        assert out.shape == (8, 8)
        assert np.all(out == 5.0)

    def test_single_cell(self):
        out = netplan.upsample2x(np.array([[3.25]]))
        assert out.shape == (2, 2)
        assert np.all(out == 3.25)

    def test_linear_ramp_matches_oracle(self):
        ramp = np.linspace(0.0, 9.0, 10).reshape(1, 10).repeat(4, axis=0)
        got = netplan.upsample2x(ramp)
        want = bilinear_oracle(ramp)
        assert np.abs(got - want).max() <= 1e-6
        assert got[0, 0] == pytest.approx(ramp[0, 0], abs=1e-6)
        assert got[0, -1] == pytest.approx(ramp[0, -1], abs=1e-6)

    def test_random_matches_oracle(self, rng):
        a = rng.random((5, 7))
        assert np.abs(netplan.upsample2x(a) - bilinear_oracle(a)).max() <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_bounds_preserved(self, h, w):
        a = np.random.default_rng(h * 31 + w).random((h, w))
        out = netplan.upsample2x(a)
        assert out.shape == (2 * h, 2 * w)
        assert out.min() >= a.min() - 1e-12
        assert out.max() <= a.max() + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            netplan.upsample2x(np.zeros((0, 3)))
