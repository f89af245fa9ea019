"""Detection scoring: greedy IoU matching, precision/recall/F-score,
ignore-region handling, quad-mode evaluation for straight-line sets, and
the encode -> decode -> IoU roundtrip of the codec.

The matcher follows the common ICDAR-style convention: detections claim
ground truths greedily in score order at a configurable IoU threshold;
detections overlapping only don't-care regions count as neither true nor
false positives. Corpus results micro-average the tp/fp/fn counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detect import DecodeConfig, Detection, PredictionRaster, add_distance_noise, decode
from .labels import AnnotationPolygon, RasterGrid, encode
from .geom import Polygon, min_area_rect, polygon_iou


@dataclass
class EvalReport:
    precision: float
    recall: float
    fscore: float
    matches: list[tuple[int, int, float]] = field(default_factory=list)
    tp: int = 0
    fp: int = 0
    fn: int = 0
    ignored_dets: int = 0

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.tp, self.fp, self.fn, self.ignored_dets)


def _prf(tp: int, fp: int, fn: int, no_input: bool) -> tuple[float, float, float]:
    if no_input:
        # An empty image scored against an empty ground truth is perfect;
        # its zero counts contribute nothing to micro-averages either way.
        return 1.0, 1.0, 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def _eval_polygon(obj, mode: str) -> Polygon:
    poly = obj.polygon() if isinstance(obj, AnnotationPolygon) else obj.polygon
    return min_area_rect(poly) if mode == "quad" else poly


def _check_match_args(iou_threshold: float, mode: str) -> None:
    if mode not in ("polygon", "quad"):
        raise ValueError(f"mode must be 'polygon' or 'quad', got {mode!r}")
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")


def match(
    dets: list[Detection],
    gts: list[AnnotationPolygon],
    iou_threshold: float = 0.5,
    mode: str = "polygon",
) -> EvalReport:
    """Greedy best-IoU matching of detections to ground truths.

    Detections are taken in score order (index breaks ties); each claims the
    unmatched non-ignore ground truth of highest IoU when that IoU clears
    the threshold. In "quad" mode both sides are reduced to their
    minimum-area oriented rectangles first. Unmatched detections whose best
    overlap is an ignore region at or above the threshold are excluded from
    the false positives. The threshold must lie in (0, 1]. Only pairs whose
    bounding boxes overlap or touch, up to rounding, are rasterized: any
    other pair has IoU exactly 0 (see polygon_mask), which never wins.
    """
    _check_match_args(iou_threshold, mode)
    det_polys = [_eval_polygon(d, mode) for d in dets]
    gt_polys = [_eval_polygon(g, mode) for g in gts]
    db, gb = (np.array([p.bounds() for p in ps]).reshape(-1, 4) for ps in (det_polys, gt_polys))
    tol = 1e-9 * (1.0 + np.abs(np.vstack([db, gb])).max(initial=0.0))   # see polygon_mask
    near = ((db[:, None, :2] <= gb[:, 2:] + tol) & (gb[:, :2] <= db[:, None, 2:] + tol)).all(2)
    real = [i for i, g in enumerate(gts) if not g.ignore]
    ignored = [i for i, g in enumerate(gts) if g.ignore]

    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken: set[int] = set()
    matches = []
    unmatched_dets = []
    for di in order:
        best_iou = 0.0
        best_gt = -1
        for gi in real:
            if gi in taken or not near[di, gi]:
                continue
            iou = polygon_iou(det_polys[di], gt_polys[gi])
            if iou > best_iou:
                best_iou = iou
                best_gt = gi
        if best_gt >= 0 and best_iou >= iou_threshold:
            taken.add(best_gt)
            matches.append((di, best_gt, best_iou))
        else:
            unmatched_dets.append(di)

    ignored_dets = 0
    for di in unmatched_dets:
        for gi in ignored:
            if near[di, gi] and polygon_iou(det_polys[di], gt_polys[gi]) >= iou_threshold:
                ignored_dets += 1
                break

    tp = len(matches)
    fp = len(dets) - tp - ignored_dets
    fn = len(real) - tp
    p, r, f = _prf(tp, fp, fn, no_input=not dets and not real)
    return EvalReport(
        precision=p,
        recall=r,
        fscore=f,
        matches=sorted(matches),
        tp=tp,
        fp=fp,
        fn=fn,
        ignored_dets=ignored_dets,
    )


def roundtrip(
    annotations: list[AnnotationPolygon],
    grid: RasterGrid,
    cfg: DecodeConfig | None = None,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> tuple[list[float], int]:
    """Encode annotations, decode the perfect prediction, and score it.

    ``noise_sigma`` > 0 adds seeded Gaussian noise to the distance maps
    before decoding. Returns the IoU of each non-ignore annotation with the
    detection matched to it at any positive overlap (0.0 when none is), in
    annotation order, and the number of detections.
    """
    label = encode(annotations, grid)
    pred = add_distance_noise(PredictionRaster.from_label(label), noise_sigma, seed)
    dets = decode(pred, cfg)
    live = [a for a in annotations if not a.ignore]
    by_gt = {gi: iou for _, gi, iou in match(dets, live, iou_threshold=1e-6).matches}
    return [by_gt.get(gi, 0.0) for gi in range(len(live))], len(dets)


@dataclass
class DatasetReport:
    overall: EvalReport
    per_image: dict[str, EvalReport] = field(default_factory=dict)
    missing_detections: list[str] = field(default_factory=list)
    missing_ground_truth: list[str] = field(default_factory=list)


def evaluate_dataset(
    dets_by_image: dict[str, list[Detection]],
    gts_by_image: dict[str, list[AnnotationPolygon]],
    iou_threshold: float = 0.5,
    mode: str = "polygon",
    allow_missing: bool = False,
) -> DatasetReport:
    """Micro-averaged corpus evaluation over images paired by id.

    Ids present on only one side are diagnostics; unless allow_missing is
    set they are an error. Counts are aggregated before computing P/R/F.
    The threshold and mode are checked as in match, even when no ids pair.
    """
    _check_match_args(iou_threshold, mode)
    missing_dets = sorted(set(gts_by_image) - set(dets_by_image))
    missing_gts = sorted(set(dets_by_image) - set(gts_by_image))
    if (missing_dets or missing_gts) and not allow_missing:
        raise ValueError(
            f"unpaired image ids: {missing_dets + missing_gts} (pass allow_missing to skip)"
        )

    per_image = {}
    tp = fp = fn = ignored = 0
    any_input = False
    for image_id in sorted(set(dets_by_image) & set(gts_by_image)):
        rep = match(
            dets_by_image[image_id],
            gts_by_image[image_id],
            iou_threshold=iou_threshold,
            mode=mode,
        )
        per_image[image_id] = rep
        tp += rep.tp
        fp += rep.fp
        fn += rep.fn
        ignored += rep.ignored_dets
        any_input = any_input or rep.tp + rep.fp + rep.fn > 0

    p, r, f = _prf(tp, fp, fn, no_input=not any_input)
    overall = EvalReport(
        precision=p, recall=r, fscore=f, tp=tp, fp=fp, fn=fn, ignored_dets=ignored
    )
    return DatasetReport(
        overall=overall,
        per_image=per_image,
        missing_detections=missing_dets,
        missing_ground_truth=missing_gts,
    )


def report_lines(report: EvalReport) -> list[str]:
    """key=value lines for the structured text report."""
    return [
        f"precision={report.precision:.6f}",
        f"recall={report.recall:.6f}",
        f"fscore={report.fscore:.6f}",
        f"tp={report.tp}",
        f"fp={report.fp}",
        f"fn={report.fn}",
        f"ignored_dets={report.ignored_dets}",
    ]
