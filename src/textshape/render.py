"""Static SVG rendering of ground truth, detections and derived quads.

Output is deterministic for fixed input: one ``<g>`` layer per source,
ground truth in blue, detections in green, quads in red.
"""

from __future__ import annotations

from .detect import Detection
from .geom import min_area_rect
from .labels import AnnotationPolygon

_LAYERS = (
    ("ground_truth", "#1f4fd8", "gt"),
    ("detections", "#12a33b", "det"),
    ("quads", "#d81f1f", "quad"),
)


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
    groups: dict[str, list[str]] = {"gt": [], "det": [], "quad": []}
    max_x = max_y = 1.0
    for ann in ground_truth:
        ring = ann.closed_vertices()
        groups["gt"].append(_path(ring))
        max_x = max(max_x, float(ring[:, 0].max()))
        max_y = max(max_y, float(ring[:, 1].max()))
    for det in detections:
        groups["det"].append(_path(det.polygon.vertices))
        max_x = max(max_x, float(det.polygon.vertices[:, 0].max()))
        max_y = max(max_y, float(det.polygon.vertices[:, 1].max()))
        if with_quads:
            groups["quad"].append(_path(min_area_rect(det.polygon).vertices))

    w, h = int(max_x + 2), int(max_y + 2)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
    ]
    for layer, color, key in _LAYERS:
        if key == "quad" and not with_quads:
            continue
        lines.append(f'  <g id="{layer}" fill="none" stroke="{color}" stroke-width="2">')
        for d in groups[key]:
            lines.append(f'    <path d="{d}"/>')
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
