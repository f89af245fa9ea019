"""Detection scoring: greedy IoU matching, precision/recall/F-score,
ignore-region handling, quad-mode evaluation for straight-line sets, and
the encode -> decode -> IoU roundtrip of the codec.

The matcher follows the common ICDAR-style convention: detections claim
ground truths greedily in score order at a configurable IoU threshold; a
detection left unmatched whose IoU with any don't-care region reaches the
threshold counts as neither a true nor a false positive, whatever its
overlap with real ground truths. Every score derives from the tp/fp/fn
counts by one rule (EvalReport); a corpus report holds the summed
per-image counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detect import DecodeConfig, Detection, PredictionRaster, add_distance_noise, decode
from .labels import AnnotationPolygon, RasterGrid, encode
from .geom import min_area_rect, polygon_iou


@dataclass
class EvalReport:
    """Matching counts. Precision, recall and F-score are all 1.0 when tp + fp + fn
    is 0 (ICDAR 2015's empty-image rule), else 0.0 on a zero denominator."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    ignored_dets: int = 0
    matches: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.tp, self.fp, self.fn, self.ignored_dets)

    @property
    def precision(self) -> float:
        return self._ratio(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> float:
        return self._ratio(self.tp, self.tp + self.fn)

    @property
    def fscore(self) -> float:
        p, r = self.precision, self.recall
        return self._ratio(2 * p * r, p + r)

    def _ratio(self, num: float, den: float) -> float:
        if self.tp + self.fp + self.fn == 0:
            return 1.0
        return num / den if den else 0.0


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
    """Greedy best-IoU matching of detections to ground truths, in one pass.

    Detections are taken in score order (index breaks ties), and each has
    one of three outcomes: it claims the unclaimed non-ignore ground truth
    of highest IoU (lowest index on a tie) when that IoU reaches the
    threshold; else it is counted in ``ignored_dets`` when its IoU with any
    ignore region reaches the threshold; else it is a false positive.
    Unclaimed non-ignore ground truths are the false negatives. In "quad"
    mode both sides are reduced to their minimum-area oriented rectangles
    first. The threshold must lie in (0, 1]. polygon_iou runs only on pairs
    whose bounding boxes overlap or touch, up to rounding: any other pair
    has IoU exactly 0 (see geom.polygon_cells), which never reaches the threshold.
    """
    _check_match_args(iou_threshold, mode)
    det_polys = [d.polygon for d in dets]
    gt_polys = [g.polygon() for g in gts]
    if mode == "quad":
        det_polys = list(map(min_area_rect, det_polys))
        gt_polys = list(map(min_area_rect, gt_polys))
    db, gb = (np.array([p.bounds() for p in ps]).reshape(-1, 4) for ps in (det_polys, gt_polys))
    tol = 1e-9 * (1.0 + np.abs(np.vstack([db, gb])).max(initial=0.0))   # see geom.polygon_cells
    near = ((db[:, None, :2] <= gb[:, 2:] + tol) & (gb[:, :2] <= db[:, None, 2:] + tol)).all(2)

    taken: set[int] = set()
    matches = []
    ignored_dets = 0
    for di in sorted(range(len(dets)), key=lambda i: (-dets[i].score, i)):
        cands = np.flatnonzero(near[di]).tolist()
        ious = {gi: polygon_iou(det_polys[di], gt_polys[gi])
                for gi in cands if not gts[gi].ignore and gi not in taken}
        best = max(ious, key=ious.get, default=-1)
        if ious.get(best, 0.0) >= iou_threshold:
            taken.add(best)
            matches.append((di, best, ious[best]))
        elif any(gts[gi].ignore and polygon_iou(det_polys[di], gt_polys[gi]) >= iou_threshold
                 for gi in cands):
            ignored_dets += 1

    tp = len(matches)
    return EvalReport(
        tp=tp,
        fp=len(dets) - tp - ignored_dets,
        fn=sum(not g.ignore for g in gts) - tp,
        ignored_dets=ignored_dets,
        matches=sorted(matches),
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

    per_image = {
        image_id: match(
            dets_by_image[image_id],
            gts_by_image[image_id],
            iou_threshold=iou_threshold,
            mode=mode,
        )
        for image_id in sorted(set(dets_by_image) & set(gts_by_image))
    }
    # column sums of the per-image counts; no pairs leave EvalReport() at zero
    overall = EvalReport(*(sum(c) for c in zip(*(rep.counts for rep in per_image.values()))))
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
