"""Alpha shapes on a concave point cloud, and a curved-text roundtrip.

Small alpha values carve concavities; alpha = infinity degenerates to the
convex hull. The decoder leans on this to trace curved text lines.
"""

import math

import numpy as np

import textshape as ts
from textshape.detect import DecodeConfig, PredictionRaster
from textshape.synth import arc_annotation

# An L-shaped cloud in the unit square: the notch only survives small alpha.
axis = np.arange(0.0, 1.01, 0.02)
gx, gy = np.meshgrid(axis, axis)
pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
pts = pts[~((pts[:, 0] > 0.5) & (pts[:, 1] > 0.5))]

for alpha in (0.06, 0.25, math.inf):
    poly = ts.alpha_shape(pts, alpha)
    label = "inf" if math.isinf(alpha) else f"{alpha:g}"
    print(f"alpha={label:>5}: area {poly.area:.3f}, {len(poly.vertices)} vertices")
print("(the L region itself has area 0.750)")

# The same machinery recovers a half-circle text line from its labels.
ann = arc_annotation(400, 420, 260, 90, span_deg=180)
ring = ann.closed_vertices()
w = int(ring[:, 0].max() + 30)
h = int(ring[:, 1].max() + 30)
label = ts.encode([ann], ts.RasterGrid.for_image(w, h, stride=1))
dets = ts.decode(PredictionRaster.from_label(label), DecodeConfig())
iou = ts.polygon_iou(dets[0].polygon, ann.polygon())
print(f"half-circle line: IoU {iou:.4f} with a {len(dets[0].polygon.vertices)}-vertex polygon")

hull_like = ts.min_area_rect(dets[0].polygon)
print(f"min-area rectangle would cover {hull_like.area / ann.polygon().area:.1f}x the text area")
