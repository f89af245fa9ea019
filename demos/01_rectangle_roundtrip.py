"""Encode a text line to label rasters, decode it back, measure the IoU.

The roundtrip is the core promise of the codec: labels generated from an
annotation should decode into a polygon that all but reproduces it.
"""

import numpy as np

import textshape as ts
from textshape.detect import DecodeConfig, PredictionRaster
from textshape.synth import rect_annotation

ann = rect_annotation(30, 30, 360, 70)
grid = ts.RasterGrid.for_image(420, 130, stride=1)

label = ts.encode([ann], grid)
print(f"central-region cells: {int(label.mask.sum())}")
rows, cols = np.nonzero(label.mask)
d = np.hypot(label.dist_x[rows, cols], label.dist_y[rows, cols])
print(f"offset magnitudes: min {d.min():.2f} px, max {d.max():.2f} px")

# A perfect prediction is just the label raster itself.
pred = PredictionRaster.from_label(label)
dets = ts.decode(pred, DecodeConfig())
print(f"decoded {len(dets)} detection(s), score {dets[0].score:.3f}")

iou = ts.polygon_iou(dets[0].polygon, ann.polygon())
print(f"roundtrip IoU vs the annotation: {iou:.4f}")

quad = ts.min_area_rect(dets[0].polygon)
print(f"derived oriented box area: {quad.area:.0f} (annotation {ann.polygon().area:.0f})")
