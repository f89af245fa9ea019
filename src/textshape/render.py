"""Static SVG rendering of ground truth, detections and derived quads.

Output is deterministic for fixed input: one ``<g>`` layer per source,
ground truth in blue, detections in green, quads in red. The canvas runs
from the origin to past the largest x and y of every ring drawn.
"""

from __future__ import annotations

from .detect import Detection
from .geom import min_area_rect
from .labels import AnnotationPolygon


def _path(vertices) -> str:
    coords = " L ".join(f"{x:.3f},{y:.3f}" for x, y in vertices)
    return f"M {coords} Z"


def render_svg(
    ground_truth: list[AnnotationPolygon],
    detections: list[Detection],
    with_quads: bool = False,
) -> str:
    """Compose the SVG document as a string.

    ``with_quads`` adds a layer with the minimum-area rectangle of every
    detection polygon.
    """
    layers = [
        ("ground_truth", "#1f4fd8", [ann.closed_vertices() for ann in ground_truth]),
        ("detections", "#12a33b", [det.polygon.vertices for det in detections]),
    ]
    if with_quads:
        quads = [min_area_rect(det.polygon).vertices for det in detections]
        layers.append(("quads", "#d81f1f", quads))
    rings = [ring for _, _, group in layers for ring in group]
    w = int(max([1.0] + [float(ring[:, 0].max()) for ring in rings]) + 2)
    h = int(max([1.0] + [float(ring[:, 1].max()) for ring in rings]) + 2)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
    ]
    for name, color, group in layers:
        lines.append(f'  <g id="{name}" fill="none" stroke="{color}" stroke-width="2">')
        lines.extend(f'    <path d="{_path(ring)}"/>' for ring in group)
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
