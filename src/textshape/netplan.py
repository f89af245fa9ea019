"""Executable shape contract for the multi-scale, multi-stage fusion.

The detector consumes an image pyramid (each channel sees the input
re-sampled by a factor of 2) and a ResNet-style backbone whose stages
conv2..conv5 stride the input by 4/8/16/32. Maps of equal spatial scale
from different channels and stages are concatenated and progressively
up-sampled back toward stride 4. This module computes every map shape,
records the fusion steps, and asserts the scale alignment; no learned
layers are involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STAGE_NAMES = ("conv2", "conv3", "conv4", "conv5")
STAGE_STRIDES = (4, 8, 16, 32)


class ShapePlanError(ValueError):
    """Input size incompatible with a backbone stage."""


@dataclass(frozen=True)
class FusionStep:
    """One concat-and-upsample step.

    ``inputs`` are (name, shape) pairs that must share one spatial shape;
    names ending in "^2" denote a map up-sampled by 2 before this step.
    """

    stage: str
    inputs: tuple[tuple[str, tuple[int, int]], ...]
    output_shape: tuple[int, int]


@dataclass(frozen=True)
class ChannelPlan:
    index: int
    input_shape: tuple[int, int]
    stages: dict[str, tuple[int, int]]


@dataclass(frozen=True)
class ShapePlan:
    input_shape: tuple[int, int]
    channels: tuple[ChannelPlan, ...]
    fusion_steps: tuple[FusionStep, ...]

    @property
    def output_shape(self) -> tuple[int, int]:
        return self.fusion_steps[-1].output_shape


def shape_plan(height: int, width: int, n_channels: int = 2) -> ShapePlan:
    """Plan all stage shapes and fusion steps for an input image.

    Channel k processes the input down-sampled by 2**k; stage j of channel k
    therefore has overall stride STAGE_STRIDES[j] * 2**k. Every spatial
    scale collects the stage maps that live at it plus the x2-up-sampled
    output of the previous (coarser) scale; the final fused map sits at the
    stride of the first stage of channel 0.

    Raises ShapePlanError for a size below 1, for more channels than the
    larger side has bits (channel k's stride is at least 2**k, so no stride
    could divide the input), and otherwise naming the deepest stage, whose
    stride must divide the input.
    """
    if height < 1 or width < 1:
        raise ShapePlanError(f"height and width must be at least 1, got {height}x{width}")
    if n_channels < 1:
        raise ValueError("need at least one channel")
    if n_channels > max(height, width).bit_length():
        raise ShapePlanError(
            f"{n_channels} channels down-sample {height}x{width} below one cell"
        )

    # Every overall stride STAGE_STRIDES[j] << k is a power of two, so the
    # deepest one divides the input only if all the others do.
    overall = STAGE_STRIDES[-1] << (n_channels - 1)
    if height % overall or width % overall:
        raise ShapePlanError(
            f"channel {n_channels} {STAGE_NAMES[-1]} requires divisibility by {overall}, "
            f"got {height}x{width}"
        )

    channels = []
    by_scale: dict[int, list[tuple[str, tuple[int, int]]]] = {}
    for k in range(n_channels):
        ch_in = (height // (1 << k), width // (1 << k))
        stages = {}
        for name, s in zip(STAGE_NAMES, STAGE_STRIDES):
            overall = s * (1 << k)
            shape = (height // overall, width // overall)
            stages[name] = shape
            by_scale.setdefault(overall, []).append((f"ch{k + 1}.{name}", shape))
        channels.append(ChannelPlan(index=k, input_shape=ch_in, stages=stages))

    scales = sorted(by_scale, reverse=True)
    deepest_name, deepest_shape = by_scale[scales[0]][-1]
    carry_name, carry_shape = deepest_name, deepest_shape
    steps = []
    for scale in scales[1:]:
        target = (height // scale, width // scale)
        up = (carry_shape[0] * 2, carry_shape[1] * 2)
        inputs = [(f"{carry_name}^2", up)] + by_scale[scale]
        steps.append(
            FusionStep(stage=f"stride{scale}", inputs=tuple(inputs), output_shape=target)
        )
        carry_name, carry_shape = f"fuse@stride{scale}", target

    plan = ShapePlan(
        input_shape=(height, width),
        channels=tuple(channels),
        fusion_steps=tuple(steps),
    )
    assert_aligned(plan)
    return plan


def assert_aligned(plan: ShapePlan) -> None:
    """Check every fusion step's inputs share a shape and the final map
    matches channel 0's first stage (stride 4 for the default backbone)."""
    for step in plan.fusion_steps:
        shapes = {shape for _, shape in step.inputs}
        if len(shapes) != 1:
            raise ShapePlanError(f"fusion at {step.stage} mixes shapes {sorted(shapes)}")
        if step.output_shape not in shapes:
            raise ShapePlanError(
                f"fusion at {step.stage} outputs {step.output_shape}, inputs are {shapes}"
            )
    expected = plan.channels[0].stages[STAGE_NAMES[0]]
    if plan.output_shape != expected:
        raise ShapePlanError(
            f"final fused shape {plan.output_shape} != channel-1 {STAGE_NAMES[0]} {expected}"
        )


def upsample2x(a: np.ndarray) -> np.ndarray:
    """Bilinear x2 up-sampling, align-corners-false convention.

    Output pixel centers sample the input at ((i + 0.5) / 2 - 0.5) with edge
    clamping, so constants are preserved exactly and an HxW map becomes
    2Hx2W.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty 2D array")

    def axis_weights(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        src = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
        src = np.clip(src, 0.0, n - 1.0)
        i0 = np.floor(src).astype(np.int64)
        i1 = np.minimum(i0 + 1, n - 1)
        frac = src - i0
        return i0, i1, frac

    r0, r1, fr = axis_weights(a.shape[0])
    c0, c1, fc = axis_weights(a.shape[1])
    rows = a[r0, :] * (1.0 - fr)[:, None] + a[r1, :] * fr[:, None]
    return rows[:, c0] * (1.0 - fc)[None, :] + rows[:, c1] * fc[None, :]


def format_plan(plan: ShapePlan) -> str:
    """Human-readable table of stage shapes and fusion steps."""
    lines = [f"input {plan.input_shape[0]}x{plan.input_shape[1]}"]
    for ch in plan.channels:
        lines.append(
            f"channel {ch.index + 1}: input {ch.input_shape[0]}x{ch.input_shape[1]}"
        )
        for name in STAGE_NAMES:
            h, w = ch.stages[name]
            lines.append(f"  {name}: {h}x{w}")
    for step in plan.fusion_steps:
        ins = ", ".join(f"{n} {h}x{w}" for n, (h, w) in step.inputs)
        lines.append(
            f"fusion {step.stage}: [{ins}] -> {step.output_shape[0]}x{step.output_shape[1]}"
        )
    return "\n".join(lines)
