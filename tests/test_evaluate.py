import itertools

import numpy as np
import pytest

from textshape import evaluate
from textshape.detect import Detection
from textshape.geom import Polygon, min_area_rect, polygon_iou
from textshape.labels import AnnotationPolygon
from textshape.synth import arc_annotation, rect_annotation


def det_for(ann, score=0.9, shift=(0.0, 0.0)):
    ring = ann.closed_vertices() + np.asarray(shift)
    return Detection(polygon=Polygon.make(ring), score=score)


GT_A = rect_annotation(0, 0, 100, 40)
GT_B = rect_annotation(0, 100, 120, 40)
FAR = rect_annotation(400, 400, 80, 30)


class TestMatch:
    def test_two_perfect_detections(self):
        rep = evaluate.match([det_for(GT_A), det_for(GT_B)], [GT_A, GT_B])
        assert (rep.precision, rep.recall, rep.fscore) == (1.0, 1.0, 1.0)
        assert rep.tp == 2 and rep.fp == 0 and rep.fn == 0

    def test_one_of_two_found(self):
        rep = evaluate.match([det_for(GT_A)], [GT_A, GT_B])
        assert rep.precision == 1.0
        assert rep.recall == pytest.approx(0.5)
        assert rep.fscore == pytest.approx(2 / 3, abs=1e-9)

    def test_detection_on_ignore_region(self):
        gt = rect_annotation(0, 0, 100, 40)
        gt.ignore = True
        rep = evaluate.match([det_for(gt)], [gt])
        assert rep.tp == 0 and rep.fp == 0 and rep.ignored_dets == 1
        assert rep.fn == 0

    def test_false_positive(self):
        rep = evaluate.match([det_for(GT_A), det_for(FAR)], [GT_A])
        assert rep.tp == 1 and rep.fp == 1 and rep.fn == 0
        assert rep.precision == pytest.approx(0.5)

    def test_below_threshold_not_matched(self):
        shifted = det_for(GT_A, shift=(60.0, 0.0))   # IoU ~ 0.25
        rep = evaluate.match([shifted], [GT_A], iou_threshold=0.5)
        assert rep.tp == 0 and rep.fp == 1 and rep.fn == 1

    def test_empty_everything_is_perfect(self):
        rep = evaluate.match([], [])
        assert (rep.precision, rep.recall, rep.fscore) == (1.0, 1.0, 1.0)
        assert rep.counts == (0, 0, 0, 0)

    def test_empty_detections(self):
        rep = evaluate.match([], [GT_A])
        assert rep.precision == 0.0 and rep.recall == 0.0 and rep.fscore == 0.0
        assert rep.fn == 1

    def test_empty_ground_truth(self):
        rep = evaluate.match([det_for(GT_A)], [])
        assert rep.precision == 0.0 and rep.fp == 1

    def test_each_gt_claimed_once(self):
        dets = [det_for(GT_A, score=0.9), det_for(GT_A, score=0.8)]
        rep = evaluate.match(dets, [GT_A])
        assert rep.tp == 1 and rep.fp == 1

    def test_score_permutation_invariant_counts(self):
        dets = [det_for(GT_A, 0.9), det_for(GT_B, 0.7), det_for(FAR, 0.5)]
        gts = [GT_A, GT_B]
        base = evaluate.match(dets, gts)
        for perm in itertools.permutations(dets):
            rep = evaluate.match(list(perm), gts)
            assert rep.counts == base.counts

    def test_equal_scores_tie_break_by_index(self):
        dets = [det_for(GT_A, 0.5), det_for(GT_A, 0.5)]
        rep = evaluate.match(dets, [GT_A])
        assert rep.matches == [(0, 0, pytest.approx(rep.matches[0][2]))]

    def test_threshold_monotonicity(self):
        dets = [det_for(GT_A, shift=(10.0, 0.0)), det_for(GT_B, shift=(30.0, 0.0))]
        gts = [GT_A, GT_B]
        tps = [evaluate.match(dets, gts, iou_threshold=t).tp for t in (0.3, 0.5, 0.7)]
        assert tps == sorted(tps, reverse=True)

    def test_disjoint_extra_detection_only_hurts_precision(self):
        gts = [GT_A, GT_B]
        base = evaluate.match([det_for(GT_A), det_for(GT_B)], gts)
        more = evaluate.match([det_for(GT_A), det_for(GT_B), det_for(FAR, 0.2)], gts)
        assert more.recall == base.recall
        assert more.precision <= base.precision

    def test_quad_mode_matches_polygon_mode_on_rectangles(self):
        dets = [det_for(GT_A, shift=(5.0, 0.0)), det_for(GT_B)]
        gts = [GT_A, GT_B]
        rep_poly = evaluate.match(dets, gts, mode="polygon")
        rep_quad = evaluate.match(dets, gts, mode="quad")
        assert rep_poly.counts == rep_quad.counts
        for (_, _, iou_p), (_, _, iou_q) in zip(rep_poly.matches, rep_quad.matches):
            assert iou_q == pytest.approx(iou_p, abs=0.02)

    def test_quad_mode_reduces_concave_detection(self):
        concave = Polygon.make(
            [(0, 0), (100, 0), (100, 40), (60, 40), (60, 20), (40, 20), (40, 40), (0, 40)]
        )
        det = Detection(polygon=concave, score=0.9)
        rep = evaluate.match([det], [GT_A], mode="quad")
        assert rep.tp == 1

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            evaluate.match([], [], mode="boxes")

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf"), 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # at 0 or below, a detection with no overlap at all would be "ignored"
        ignore = rect_annotation(400, 400, 80, 30)
        ignore.ignore = True
        with pytest.raises(ValueError):
            evaluate.match([det_for(GT_A)], [ignore], iou_threshold=threshold)

    def test_threshold_one_accepted(self):
        assert evaluate.match([det_for(GT_A)], [GT_A], iou_threshold=1.0).tp == 1

    def test_pair_rasterized_past_its_bounding_box_still_scored(self):
        # The detection's left tip lies two ulps right of the joint grid's
        # column centre c and one ulp above a row centre. Its long edge
        # starts at x = 5000.3, so the row's crossing is rounded on the float
        # grid near 5000 (~1e-12 apart) and lands left of c: the detection's
        # mask reaches a ground truth whose bounding box its own does not touch.
        c = 1.5 * (5000.3 / 256)
        yc = -1e6 + 128.5 * (2e6 / 256)
        right = np.nextafter(c, np.inf)
        tip = (np.nextafter(right, np.inf), np.nextafter(yc, -np.inf))
        det = Detection(polygon=Polygon.make([tip, (5000.3, 1e6), (5000.3, -1e6)]), score=0.9)
        gt = AnnotationPolygon.make([(0.0, yc - 100), (right, yc - 100)],
                                    [(0.0, yc + 100), (right, yc + 100)])
        assert gt.polygon().bounds()[2] < det.polygon.bounds()[0]
        rep = evaluate.match([det], [gt], iou_threshold=1e-6)
        assert rep.tp == 1 and rep.matches[0][2] > 0


def brute_force_match(dets, gts, iou_threshold, mode):
    """The greedy matcher over the full IoU matrix, every pair rasterized."""
    def shape(p):
        return min_area_rect(p) if mode == "quad" else p

    iou = [[polygon_iou(shape(d.polygon), shape(g.polygon())) for g in gts] for d in dets]
    taken, matches, unmatched = set(), [], []
    for di in sorted(range(len(dets)), key=lambda i: (-dets[i].score, i)):
        free = [gi for gi, g in enumerate(gts) if not g.ignore and gi not in taken]
        best = max(free, key=lambda gi: (iou[di][gi], -gi), default=None)
        if best is not None and iou[di][best] > 0 and iou[di][best] >= iou_threshold:
            taken.add(best)
            matches.append((di, best, iou[di][best]))
        else:
            unmatched.append(di)
    ignored = sum(
        any(g.ignore and iou[di][gi] >= iou_threshold for gi, g in enumerate(gts))
        for di in unmatched
    )
    real = sum(not g.ignore for g in gts)
    counts = (len(matches), len(dets) - len(matches) - ignored, real - len(matches), ignored)
    return counts, sorted(matches)


def random_page(rng):
    """Lines on a 20 px lattice, so many bounding boxes touch exactly, with
    ignore regions, tied scores and detections spanning two lines."""
    gts = []
    for _ in range(6):
        x, y = rng.integers(0, 8) * 20.0, rng.integers(0, 5) * 20.0
        if rng.random() < 0.2:
            ann = arc_annotation(x + 40, y + 60, 40.0, 10.0, 60.0)
        else:
            ann = rect_annotation(x, y, 20.0 * rng.integers(1, 4), 20.0, rng.choice([0.0, 0.0, 8.0]))
        ann.ignore = bool(rng.random() < 0.25)
        gts.append(ann)
    dets = []
    for _ in range(7):
        a = gts[rng.integers(len(gts))]
        shift = rng.choice([0.0, 3.0, 20.0, 60.0], 2) * rng.choice([-1, 1], 2)
        if rng.random() < 0.25:   # spans this line and the next box over
            ring = a.closed_vertices()
            ring = np.vstack([ring.min(0), ring.max(0) + (20.0, 0.0)])
            ring = [ring[0], (ring[1, 0], ring[0, 1]), ring[1], (ring[0, 0], ring[1, 1])]
        else:
            ring = a.closed_vertices()
        poly = Polygon.make(np.asarray(ring) + shift)
        dets.append(Detection(polygon=poly, score=float(rng.choice([0.5, 0.9]))))
    return dets, gts


@pytest.mark.parametrize("mode", ["polygon", "quad"])
def test_match_equals_brute_force_on_random_pages(mode):
    rng = np.random.default_rng(11)
    touching = pruned = 0
    for _ in range(12):
        dets, gts = random_page(rng)
        db = np.array([d.polygon.bounds() for d in dets])
        gb = np.array([g.polygon().bounds() for g in gts])
        gap = np.maximum(db[:, None, :2] - gb[:, 2:], gb[:, :2] - db[:, None, 2:]).max(axis=2)
        touching += int((gap == 0).sum())
        pruned += int((gap > 0).sum())
        for threshold in (0.5, 0.3, 1e-6):
            rep = evaluate.match(dets, gts, iou_threshold=threshold, mode=mode)
            assert (rep.counts, rep.matches) == brute_force_match(dets, gts, threshold, mode)
    assert touching > 0 and pruned > 0


@pytest.mark.parametrize(
    "counts,scores",
    [
        ((0, 0, 0, 0), (1.0, 1.0, 1.0)),
        ((0, 0, 0, 3), (1.0, 1.0, 1.0)),   # every detection on an ignore region
        ((2, 0, 0, 1), (1.0, 1.0, 1.0)),
        ((0, 0, 2, 0), (0.0, 0.0, 0.0)),
        ((0, 2, 0, 0), (0.0, 0.0, 0.0)),
        ((0, 1, 1, 0), (0.0, 0.0, 0.0)),
        ((1, 1, 0, 0), (0.5, 1.0, 2 / 3)),
        ((3, 1, 2, 5), (0.75, 0.6, 2 * 0.75 * 0.6 / 1.35)),
    ],
)
def test_scores_derive_from_counts(counts, scores):
    rep = evaluate.EvalReport(*counts)
    assert rep.counts == counts
    assert (rep.precision, rep.recall, rep.fscore) == pytest.approx(scores, abs=1e-12)


def test_all_ignored_image_scores_alike_per_image_and_per_corpus():
    gt = rect_annotation(0, 0, 100, 40)
    gt.ignore = True
    one = evaluate.match([det_for(gt)], [gt])
    corpus = evaluate.evaluate_dataset({"a": [det_for(gt)]}, {"a": [gt]}).overall
    assert one.counts == corpus.counts == (0, 0, 0, 1)
    for rep in (one, corpus):
        assert (rep.precision, rep.recall, rep.fscore) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("mode", ["polygon", "quad"])
def test_corpus_report_is_the_report_of_summed_counts(mode):
    rng = np.random.default_rng(11)
    pages = [random_page(rng) for _ in range(12)]
    dets = {f"p{i}": d for i, (d, _) in enumerate(pages)}
    gts = {f"p{i}": g for i, (_, g) in enumerate(pages)}
    for threshold in (0.5, 0.3, 1e-6):
        overall = evaluate.evaluate_dataset(dets, gts, iou_threshold=threshold, mode=mode).overall
        summed = np.sum(
            [evaluate.match(dets[k], gts[k], iou_threshold=threshold, mode=mode).counts
             for k in dets],
            axis=0,
        )
        assert overall.counts == tuple(summed)
        ref = evaluate.EvalReport(*(int(c) for c in summed))
        assert (overall.precision, overall.recall, overall.fscore) == (
            ref.precision, ref.recall, ref.fscore
        )


class TestDataset:
    def test_single_image_equals_match(self):
        dets = {"img0": [det_for(GT_A)]}
        gts = {"img0": [GT_A, GT_B]}
        rep = evaluate.evaluate_dataset(dets, gts)
        one = evaluate.match(dets["img0"], gts["img0"])
        assert rep.overall.counts == one.counts
        assert rep.overall.fscore == pytest.approx(one.fscore)

    def test_duplicated_image_doubles_counts(self):
        dets = {"a": [det_for(GT_A)], "b": [det_for(GT_A)]}
        gts = {"a": [GT_A, GT_B], "b": [GT_A, GT_B]}
        rep = evaluate.evaluate_dataset(dets, gts)
        one = evaluate.match([det_for(GT_A)], [GT_A, GT_B])
        assert rep.overall.tp == 2 * one.tp
        assert rep.overall.fn == 2 * one.fn
        assert rep.overall.fscore == pytest.approx(one.fscore, abs=1e-9)

    def test_unpaired_ids_error_without_flag(self):
        with pytest.raises(ValueError):
            evaluate.evaluate_dataset({"a": []}, {"b": []})

    def test_unpaired_ids_reported_with_flag(self):
        rep = evaluate.evaluate_dataset(
            {"a": [], "c": []}, {"a": [], "b": []}, allow_missing=True
        )
        assert rep.missing_detections == ["b"]
        assert rep.missing_ground_truth == ["c"]

    @pytest.mark.parametrize(
        "kwargs", [{"iou_threshold": 0.0}, {"iou_threshold": float("nan")}, {"mode": "box"}]
    )
    def test_bad_arguments_rejected_when_no_ids_pair(self, kwargs):
        with pytest.raises(ValueError):
            evaluate.evaluate_dataset({"a": []}, {"b": []}, allow_missing=True, **kwargs)

    def test_report_lines(self):
        rep = evaluate.match([det_for(GT_A)], [GT_A, GT_B])
        lines = evaluate.report_lines(rep)
        assert "precision=1.000000" in lines
        assert "tp=1" in lines and "fn=1" in lines
