"""Multi-task loss kernels with analytic gradients.

Classification of the central text region uses a soft Dice loss; the
nearest-boundary distance regression uses Smooth L1. Both return gradients
with respect to the predictions so they can be checked against finite
differences. The combined loss is cls + lam * reg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labels import LabelRaster


@dataclass
class LossConfig:
    lam: float = 1.0

    def __post_init__(self):
        if not self.lam > 0:   # NaN fails too
            raise ValueError(f"lam must be positive, got {self.lam}")


@dataclass
class LossReport:
    total: float
    cls: float
    reg: float
    grad_prob: np.ndarray
    grad_dist_x: np.ndarray
    grad_dist_y: np.ndarray


def dice_loss(
    pred_prob: np.ndarray,
    gt_mask: np.ndarray,
    ignore_mask: np.ndarray | None = None,
    eps: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Soft Dice loss 1 - (2*sum(p*g) + eps) / (sum(p) + sum(g) + eps).

    Ignored cells are excluded from every sum and receive zero gradient.
    Returns (loss, d loss / d pred_prob).
    """
    p = np.asarray(pred_prob, dtype=np.float64)
    g = np.asarray(gt_mask, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError("pred_prob and gt_mask shapes differ")
    if ignore_mask is not None:
        valid = np.asarray(ignore_mask) == 0
        if valid.shape != p.shape:
            raise ValueError("ignore_mask shape differs")
    else:
        valid = np.ones_like(p, dtype=bool)

    pv = np.where(valid, p, 0.0)
    gv = np.where(valid, g, 0.0)
    num = 2.0 * float((pv * gv).sum()) + eps
    den = float(pv.sum() + gv.sum()) + eps
    loss = 1.0 - num / den

    grad = -(2.0 * gv * den - num) / (den * den)
    grad[~valid] = 0.0
    return float(loss), grad


def smooth_l1(e: np.ndarray) -> np.ndarray:
    """0.5*e^2 for |e| < 1, |e| - 0.5 outside."""
    e = np.asarray(e, dtype=np.float64)
    a = np.abs(e)
    return np.where(a < 1.0, 0.5 * e * e, a - 0.5)


def smooth_l1_grad(e: np.ndarray) -> np.ndarray:
    e = np.asarray(e, dtype=np.float64)
    return np.where(np.abs(e) < 1.0, e, np.sign(e))


def reg_loss(
    pred_x: np.ndarray,
    pred_y: np.ndarray,
    gt_x: np.ndarray,
    gt_y: np.ndarray,
    region_mask: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Smooth L1 distance regression over central-region cells.

    loss = (0.5*sum sl1(px - gx) + 0.5*sum sl1(py - gy)) / n where n is the
    number of region cells, so the value is comparable across image sizes.
    An empty region means a no-text image: loss 0, zero gradients.
    Returns (loss, d/d pred_x, d/d pred_y).
    """
    px = np.asarray(pred_x, dtype=np.float64)
    py = np.asarray(pred_y, dtype=np.float64)
    gx = np.asarray(gt_x, dtype=np.float64)
    gy = np.asarray(gt_y, dtype=np.float64)
    m = np.asarray(region_mask) != 0
    if not (px.shape == py.shape == gx.shape == gy.shape == m.shape):
        raise ValueError("regression arrays must share one shape")

    n = int(m.sum())
    if n == 0:
        return 0.0, np.zeros_like(px), np.zeros_like(py)

    ex = np.where(m, px - gx, 0.0)
    ey = np.where(m, py - gy, 0.0)
    loss = 0.5 * (smooth_l1(ex)[m].sum() + smooth_l1(ey)[m].sum()) / n
    grad_x = np.where(m, 0.5 * smooth_l1_grad(ex) / n, 0.0)
    grad_y = np.where(m, 0.5 * smooth_l1_grad(ey) / n, 0.0)
    return float(loss), grad_x, grad_y


def total_loss(cls: float, reg: float, lam: float = 1.0) -> float:
    """Weighted combination cls + lam * reg (lam defaults to 1.0)."""
    return cls + lam * reg


def multitask_loss(
    pred_prob: np.ndarray,
    pred_x: np.ndarray,
    pred_y: np.ndarray,
    labels: LabelRaster,
    cfg: LossConfig | None = None,
) -> LossReport:
    """Combined classification + regression loss against a label raster."""
    cfg = cfg or LossConfig()
    cls, grad_prob = dice_loss(pred_prob, labels.mask, labels.ignore_mask)
    region = (labels.mask == 1) & (labels.ignore_mask == 0)
    reg, gx, gy = reg_loss(pred_x, pred_y, labels.dist_x, labels.dist_y, region)
    return LossReport(
        total=total_loss(cls, reg, cfg.lam),
        cls=cls,
        reg=reg,
        grad_prob=grad_prob,
        grad_dist_x=cfg.lam * gx,
        grad_dist_y=cfg.lam * gy,
    )
