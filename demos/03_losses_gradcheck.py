"""The two training losses, their analytic gradients, and a spot check
against central finite differences.
"""

import numpy as np

import textshape as ts
from textshape.losses import LossConfig, dice_loss, multitask_loss, reg_loss
from textshape.synth import rect_annotation

rng = np.random.default_rng(0)

ann = rect_annotation(10, 10, 120, 40)
label = ts.encode([ann], ts.RasterGrid.for_image(140, 60, stride=1))

# A noisy prediction: blurred mask, jittered distances.
prob = np.clip(label.mask + rng.normal(0, 0.15, label.mask.shape), 0, 1)
px = label.dist_x + rng.normal(0, 0.8, label.dist_x.shape)
py = label.dist_y + rng.normal(0, 0.8, label.dist_y.shape)

report = multitask_loss(prob, px, py, label, LossConfig(lam=1.0))
print(f"cls (dice) = {report.cls:.4f}")
print(f"reg (smooth-L1) = {report.reg:.4f}")
print(f"total = cls + 1.0 * reg = {report.total:.4f}")

# Finite-difference check of the dice gradient at a few cells.
cells = [(15, 30), (20, 60), (5, 5)]
_, grad = dice_loss(prob, label.mask, label.ignore_mask)
h = 1e-5
for r, c in cells:
    bumped = prob.copy()
    bumped[r, c] += h
    lo = dice_loss(prob, label.mask, label.ignore_mask)[0]
    hi = dice_loss(bumped, label.mask, label.ignore_mask)[0]
    fd = (hi - lo) / h
    print(f"dice grad at {(r, c)}: analytic {grad[r, c]:+.3e}, forward-diff {fd:+.3e}")

# The regression loss only sees central-region cells.
region = label.mask == 1
loss, gx, gy = reg_loss(px, py, label.dist_x, label.dist_y, region)
print(f"reg loss over {int(region.sum())} cells: {loss:.4f}; "
      f"gradient is zero outside the region: {not gx[~region].any()}")
