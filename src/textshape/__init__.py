"""Geometry codec and evaluation toolkit for boundary-regression scene text
detection: encode annotations to central-region/distance rasters, decode
rasters back to concave polygons via alpha shapes, score detections, and
check the multi-scale fusion shape contract.
"""

from .detect import (
    BoundaryPointSet,
    DecodeConfig,
    Detection,
    PredictionRaster,
    decode,
    reconstruct,
)
from .labels import (
    AnnotationPolygon,
    LabelRaster,
    RasterGrid,
    central_region_polygon,
    encode,
    split_sides,
)
from .evaluate import EvalReport, evaluate_dataset, match
from .geom import (
    NormTransform,
    Polygon,
    alpha_shape,
    min_area_rect,
    normalize_points,
    polygon_iou,
)
from .losses import LossConfig, LossReport, dice_loss, multitask_loss, reg_loss, total_loss
from .netplan import ShapePlan, shape_plan, upsample2x

__version__ = "0.1.0"

__all__ = [
    "AnnotationPolygon",
    "BoundaryPointSet",
    "DecodeConfig",
    "Detection",
    "EvalReport",
    "LabelRaster",
    "LossConfig",
    "LossReport",
    "NormTransform",
    "Polygon",
    "PredictionRaster",
    "RasterGrid",
    "ShapePlan",
    "alpha_shape",
    "central_region_polygon",
    "decode",
    "dice_loss",
    "encode",
    "evaluate_dataset",
    "match",
    "min_area_rect",
    "multitask_loss",
    "normalize_points",
    "polygon_iou",
    "reconstruct",
    "reg_loss",
    "shape_plan",
    "split_sides",
    "total_loss",
    "upsample2x",
]
