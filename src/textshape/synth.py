"""Synthetic annotation generators for roundtrip and robustness checks.

Instances are built on a deterministic parameter grid (no RNG): axis-aligned
rectangles, rectangles rotated in 10 degree steps, and circular-arc ribbons
up to half-circle curvature, with aspect ratios from 1:1 to 20:1. Every
instance is placed in its own image with a margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .labels import AnnotationPolygon

MARGIN = 24.0
ARC_SAMPLES = 7   # vertices per arc chain
PAIR_HEIGHT = 40.0     # separated_pair: line height
PAIR_GAP_RATIO = 0.6   # separated_pair: gap between the lines, in line heights


@dataclass(frozen=True)
class SynthInstance:
    name: str
    annotation: AnnotationPolygon
    image_size: tuple[int, int]   # (W, H) pixels


def rect_annotation(x: float, y: float, w: float, h: float, angle_deg: float = 0.0) -> AnnotationPolygon:
    """Rectangle with top-left (x, y), rotated about its center."""
    corners = np.array(
        [[x, y], [x + w, y], [x + w, y + h], [x, y + h]], dtype=np.float64
    )
    if angle_deg:
        t = math.radians(angle_deg)
        c, s = math.cos(t), math.sin(t)
        center = corners.mean(axis=0)
        corners = (corners - center) @ np.array([[c, s], [-s, c]]) + center
    return AnnotationPolygon.make(corners[:2], corners[2:][::-1])


def arc_annotation(
    cx: float,
    cy: float,
    radius: float,
    height: float,
    span_deg: float,
    rotation_deg: float = 0.0,
) -> AnnotationPolygon:
    """Curved ribbon: two concentric arc chains around a centerline arc."""
    if radius - height / 2.0 <= 1.0:
        raise ValueError("arc is too fat: inner radius would vanish")
    t0 = math.radians(rotation_deg - span_deg / 2.0)
    t1 = math.radians(rotation_deg + span_deg / 2.0)
    ts = np.linspace(t0, t1, ARC_SAMPLES)
    outer = radius + height / 2.0
    inner = radius - height / 2.0
    upper = np.stack([cx + outer * np.sin(ts), cy - outer * np.cos(ts)], axis=1)
    lower = np.stack([cx + inner * np.sin(ts), cy - inner * np.cos(ts)], axis=1)
    return AnnotationPolygon.make(upper, lower)


def _placed(name: str, ann: AnnotationPolygon) -> SynthInstance:
    ring = ann.closed_vertices()
    mins = ring.min(axis=0)
    shift = MARGIN - mins
    ann = AnnotationPolygon.make(ann.upper + shift, ann.lower + shift, ignore=ann.ignore)
    ring = ann.closed_vertices()
    w = int(math.ceil(ring[:, 0].max() + MARGIN))
    h = int(math.ceil(ring[:, 1].max() + MARGIN))
    return SynthInstance(name=name, annotation=ann, image_size=(w, h))


def roundtrip_suite() -> list[SynthInstance]:
    """The 200-instance roundtrip grid."""
    out: list[SynthInstance] = []

    for height in (88, 104, 120, 136, 152):
        for aspect in (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0):
            out.append(
                _placed(
                    f"rect_h{height}_a{aspect:g}",
                    rect_annotation(0, 0, aspect * height, height),
                )
            )

    for angle in range(10, 180, 10):
        for aspect in (2.0, 5.0, 9.0, 14.0, 20.0):
            out.append(
                _placed(
                    f"rot{angle}_a{aspect:g}",
                    rect_annotation(0, 0, aspect * 104.0, 104.0, angle_deg=angle),
                )
            )

    for span in (30.0, 60.0, 90.0, 120.0, 150.0, 180.0):
        for aspect in (4.0, 6.0, 10.0, 16.0, 20.0):
            for height in (96.0, 128.0):
                radius = aspect * height / math.radians(span)
                out.append(
                    _placed(
                        f"arc_s{span:g}_a{aspect:g}_h{height:g}",
                        arc_annotation(0, 0, radius, height, span),
                    )
                )

    for span, rotation in ((90.0, 45.0), (90.0, 135.0), (180.0, 30.0),
                           (180.0, 75.0), (120.0, 200.0)):
        for aspect in (5.0, 8.0, 12.0):
            radius = aspect * 112.0 / math.radians(span)
            out.append(
                _placed(
                    f"arc_s{span:g}_r{rotation:g}_a{aspect:g}",
                    arc_annotation(0, 0, radius, 112.0, span, rotation_deg=rotation),
                )
            )

    assert len(out) == 200, f"suite size drifted to {len(out)}"
    return out


def separated_pair() -> tuple[list[AnnotationPolygon], tuple[int, int]]:
    """Two parallel lines separated by PAIR_GAP_RATIO * PAIR_HEIGHT in one image."""
    w = 8.0 * PAIR_HEIGHT
    a = rect_annotation(MARGIN, MARGIN, w, PAIR_HEIGHT)
    b = rect_annotation(MARGIN, MARGIN + PAIR_HEIGHT * (1.0 + PAIR_GAP_RATIO), w, PAIR_HEIGHT)
    img_w = int(math.ceil(MARGIN * 2 + w))
    img_h = int(math.ceil(MARGIN * 2 + PAIR_HEIGHT * (2.0 + PAIR_GAP_RATIO)))
    return [a, b], (img_w, img_h)
