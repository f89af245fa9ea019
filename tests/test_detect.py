from collections import deque

import numpy as np
import pytest

import textshape as ts
from textshape import detect, formats
from textshape.labels import RasterGrid
from textshape.synth import rect_annotation, separated_pair
from conftest import boundary_samples


def flood_fill_components(mask):
    """Independent BFS 4-connected labeling (oracle for extract_instances)."""
    mask = np.asarray(mask) != 0
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    for r0 in range(h):
        for c0 in range(w):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            cells = []
            q = deque([(r0, c0)])
            seen[r0, c0] = True
            while q:
                r, c = q.popleft()
                cells.append((r, c))
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        q.append((rr, cc))
            comps.append(frozenset(cells))
    return comps


def perfect_pred(ann, image_size, stride=1):
    grid = RasterGrid.for_image(*image_size, stride=stride)
    raster = ts.encode([ann], grid)
    return detect.PredictionRaster.from_label(raster)


class TestBinarize:
    def test_all_high(self):
        assert detect.binarize(np.full((3, 4), 0.9)).all()

    def test_all_low(self):
        assert not detect.binarize(np.full((3, 4), 0.1)).any()

    def test_matches_per_cell_comparison(self, rng):
        prob = rng.random((50, 70))
        out = detect.binarize(prob, 0.37)
        for r in range(0, 50, 7):
            for c in range(0, 70, 11):
                assert out[r, c] == (1 if prob[r, c] >= 0.37 else 0)

    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError):
            detect.binarize(np.zeros((2, 2)), 1.0)


class TestExtractInstances:
    def test_two_blobs(self):
        mask = np.zeros((10, 20), dtype=np.uint8)
        mask[2:5, 2:8] = 1
        mask[6:9, 12:18] = 1
        comps = detect.extract_instances(mask, min_cells=1)
        assert len(comps) == 2

    def test_diagonal_blobs_are_separate(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[0:2, 0:2] = 1
        mask[2:4, 2:4] = 1
        assert len(detect.extract_instances(mask, min_cells=1)) == 2

    def test_matches_flood_fill_oracle(self, rng):
        mask = (rng.random((300, 300)) < 0.45).astype(np.uint8)
        got = {frozenset(map(tuple, comp.tolist())) for comp in detect.extract_instances(mask, 1)}
        want = set(flood_fill_components(mask))
        assert got == want

    def test_small_components_dropped(self):
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[0, 0] = 1
        mask[5:8, 5:8] = 1
        comps = detect.extract_instances(mask, min_cells=4)
        assert len(comps) == 1 and len(comps[0]) == 9

    def test_sorted_by_size_descending(self):
        mask = np.zeros((10, 30), dtype=np.uint8)
        mask[1:3, 1:4] = 1
        mask[5:9, 10:20] = 1
        comps = detect.extract_instances(mask, 1)
        assert len(comps[0]) >= len(comps[1])

    def test_empty_mask(self):
        assert detect.extract_instances(np.zeros((5, 5), dtype=np.uint8), 1) == []


class TestBoundaryPoints:
    def test_perfect_rectangle_points_on_boundary(self):
        ann = rect_annotation(20, 20, 160, 40)
        pred = perfect_pred(ann, (200, 80))
        comp = detect.extract_instances(detect.binarize(pred.prob), 1)[0]
        bp = detect.boundary_points(comp, pred)
        ring = ann.closed_vertices()
        samples = boundary_samples(ring, 20000)
        for p in bp.points[:: max(1, len(bp.points) // 100)]:
            d = np.hypot(samples[:, 0] - p[0], samples[:, 1] - p[1]).min()
            assert d < 1e-2   # sampling oracle resolution

    def test_zero_distances_give_cell_centers(self):
        grid = RasterGrid(width=10, height=10, stride=1)
        prob = np.zeros((10, 10))
        prob[4:7, 4:7] = 1.0
        pred = detect.PredictionRaster(
            grid=grid, prob=prob, dist_x=np.zeros((10, 10)), dist_y=np.zeros((10, 10))
        )
        comp = detect.extract_instances(detect.binarize(prob), 1)[0]
        bp = detect.boundary_points(comp, pred, min_points=1)
        centers = grid.cell_centers(comp[:, 0], comp[:, 1])
        assert sorted(map(tuple, bp.points.tolist())) == sorted(map(tuple, centers.tolist()))

    def test_min_points_rejection(self):
        grid = RasterGrid(width=10, height=10, stride=1)
        prob = np.zeros((10, 10))
        prob[5, 4:7] = 1.0
        pred = detect.PredictionRaster(
            grid=grid, prob=prob, dist_x=np.zeros((10, 10)), dist_y=np.zeros((10, 10))
        )
        comp = detect.extract_instances(detect.binarize(prob), 1)[0]
        with pytest.raises(detect.InstanceRejected):
            detect.boundary_points(comp, pred, min_points=8)

    def test_duplicates_merged(self):
        grid = RasterGrid(width=10, height=1, stride=1)
        prob = np.ones((1, 10))
        # Cells regress onto two shared targets; duplicates must collapse.
        cols = np.arange(10, dtype=float)
        targets = np.where(cols < 5, 0.5, 8.5)
        dist_x = (targets - (cols + 0.5)).reshape(1, 10)
        dist_y = np.zeros((1, 10))
        pred = detect.PredictionRaster(grid=grid, prob=prob, dist_x=dist_x, dist_y=dist_y)
        comp = detect.extract_instances(detect.binarize(prob), 1)[0]
        bp = detect.boundary_points(comp, pred, min_points=1)
        assert len(bp.points) == 2

    def test_score_is_mean_probability(self):
        grid = RasterGrid(width=4, height=1, stride=1)
        prob = np.array([[0.6, 0.8, 1.0, 0.2]])
        pred = detect.PredictionRaster(
            grid=grid, prob=prob, dist_x=np.zeros((1, 4)), dist_y=np.zeros((1, 4))
        )
        comp = np.array([[0, 0], [0, 1], [0, 2]])
        bp = detect.boundary_points(comp, pred, min_points=1)
        assert bp.score == pytest.approx((0.6 + 0.8 + 1.0) / 3)


def regressed_points(comp, pred):
    """Cell center + predicted offset for each component cell, in order."""
    rows, cols = comp[:, 0], comp[:, 1]
    return pred.grid.cell_centers(rows, cols) + np.stack(
        [pred.dist_x[rows, cols], pred.dist_y[rows, cols]], axis=1
    )


def first_per_cell(pts, step):
    """Oracle: the first point of each lattice cell of the given step."""
    seen = set()
    keep = []
    for i, (x, y) in enumerate(pts):
        key = (round(x / step), round(y / step))
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return pts[keep]


def noisy_component(ann, size, sigma=1.0, seed=3):
    pred = detect.add_distance_noise(perfect_pred(ann, size), sigma, seed)
    comp = detect.extract_instances(detect.binarize(pred.prob), 1)[0]
    return comp, pred


class TestThinning:
    def test_small_instance_keeps_the_half_pixel_dedupe(self):
        comp, pred = noisy_component(rect_annotation(10, 10, 100, 40), (130, 70))
        pts = regressed_points(comp, pred)
        extent = np.ptp(pts, axis=0).max()
        assert extent < 0.5 * detect.THIN_CELLS_PER_ALPHA / detect.DEFAULT_ALPHA
        bp = detect.boundary_points(comp, pred, alpha=detect.DEFAULT_ALPHA)
        assert np.array_equal(bp.points, first_per_cell(pts, 0.5))

    def test_large_instance_keeps_first_point_of_each_alpha_lattice_cell(self):
        comp, pred = noisy_component(rect_annotation(10, 10, 600, 120), (630, 150))
        pts = regressed_points(comp, pred)
        step = detect.DEFAULT_ALPHA * np.ptp(pts, axis=0).max() / detect.THIN_CELLS_PER_ALPHA
        assert step > 2.0
        bp = detect.boundary_points(comp, pred, alpha=detect.DEFAULT_ALPHA)
        # A subset of the regressed points, in component order ...
        index = {tuple(p): i for i, p in enumerate(pts.tolist())}
        order = [index[tuple(p)] for p in bp.points.tolist()]
        assert order == sorted(set(order))
        # ... one per occupied lattice cell, and the first one of it.
        kept_cells = np.round(bp.points / step)
        all_cells = np.round(pts / step)
        assert len(np.unique(kept_cells, axis=0)) == len(bp.points)
        assert len(bp.points) <= len(np.unique(all_cells, axis=0))
        assert np.array_equal(bp.points, first_per_cell(pts, step))
        assert len(bp.points) < len(first_per_cell(pts, 0.5)) / 4

    def test_alpha_above_one_thins_as_one(self):
        comp, pred = noisy_component(rect_annotation(10, 10, 600, 60), (630, 90))
        at_one = detect.boundary_points(comp, pred, alpha=1.0).points
        for alpha in (2.0, float("inf")):
            assert np.array_equal(detect.boundary_points(comp, pred, alpha=alpha).points, at_one)
        assert len(detect.decode(pred, detect.DecodeConfig(alpha=float("inf")))) == 1


class TestReconstruct:
    def test_rectangle_ring(self):
        ann = rect_annotation(10, 10, 300, 60)
        pred = perfect_pred(ann, (320, 80))
        dets = detect.decode(pred, detect.DecodeConfig())
        assert len(dets) == 1
        assert ts.polygon_iou(dets[0].polygon, ann.polygon(), 512) >= 0.95

    def test_three_points_give_triangle(self):
        pts = np.array([(0.0, 0.0), (40.0, 0.0), (20.0, 30.0)])
        _, norm = ts.normalize_points(pts)
        bp = detect.BoundaryPointSet(points=pts, norm=norm, score=1.0)
        det = detect.reconstruct(bp)
        assert det.polygon.area == pytest.approx(600.0, rel=1e-9)

    def test_degenerate_rejected(self):
        pts = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        _, norm = ts.normalize_points(pts)
        bp = detect.BoundaryPointSet(points=pts, norm=norm, score=1.0)
        with pytest.raises(detect.InstanceRejected):
            detect.reconstruct(bp)


class TestDecode:
    def test_three_instances(self):
        anns = [
            rect_annotation(20, 20, 200, 40),
            rect_annotation(20, 120, 150, 40),
            rect_annotation(260, 60, 120, 48),
        ]
        grid = RasterGrid.for_image(400, 200, 1)
        pred = detect.PredictionRaster.from_label(ts.encode(anns, grid))
        dets = detect.decode(pred, detect.DecodeConfig())
        assert len(dets) == 3
        for ann in anns:
            best = max(ts.polygon_iou(d.polygon, ann.polygon(), 256) for d in dets)
            assert best >= 0.9

    def test_empty_probability_map(self):
        grid = RasterGrid(width=32, height=32, stride=1)
        pred = detect.PredictionRaster(
            grid=grid,
            prob=np.zeros((32, 32)),
            dist_x=np.zeros((32, 32)),
            dist_y=np.zeros((32, 32)),
        )
        assert detect.decode(pred, detect.DecodeConfig()) == []

    def test_detections_sorted_by_score(self):
        anns = [rect_annotation(20, 20, 200, 40), rect_annotation(20, 120, 200, 40)]
        grid = RasterGrid.for_image(260, 200, 1)
        label = ts.encode(anns, grid)
        prob = label.mask.astype(float)
        prob[label.mask == 1] = 0.9
        prob[120:180, :] *= 0.8   # depress the lower instance
        pred = detect.PredictionRaster(
            grid=grid, prob=prob, dist_x=label.dist_x, dist_y=label.dist_y
        )
        dets = detect.decode(pred, detect.DecodeConfig())
        assert len(dets) == 2
        assert dets[0].score >= dets[1].score

    def test_diagnostics_counts(self):
        mask = np.zeros((40, 40))
        mask[5:7, 5:30] = 1.0   # 50 cells, enough cells but a thin line
        grid = RasterGrid(width=40, height=40, stride=1)
        pred = detect.PredictionRaster(
            grid=grid, prob=mask, dist_x=np.zeros_like(mask), dist_y=np.zeros_like(mask)
        )
        diag = detect.DecodeDiagnostics()
        dets = detect.decode(pred, detect.DecodeConfig(min_cells=8), diag)
        assert diag.components == 1
        assert len(dets) + diag.rejected == 1

    def test_diagnostics_count_cells_and_thinned_points(self):
        pred = perfect_pred(rect_annotation(10, 10, 300, 40), (330, 60))
        diag = detect.DecodeDiagnostics()
        dets = detect.decode(pred, detect.DecodeConfig(), diag)
        assert len(dets) == 1
        comp = detect.extract_instances(detect.binarize(pred.prob), 1)[0]
        kept = detect.boundary_points(comp, pred, alpha=detect.DEFAULT_ALPHA).points
        assert (diag.cells, diag.points) == (len(comp), len(kept)) == (6000, 532)

    def test_quads_attached(self):
        ann = rect_annotation(10, 10, 120, 40)
        pred = perfect_pred(ann, (140, 60))
        dets = detect.decode(pred, detect.DecodeConfig())
        quad = ts.min_area_rect(dets[0].polygon)
        assert quad is not None
        assert len(quad.vertices) == 4
        assert ts.polygon_iou(quad, ann.polygon(), 256) >= 0.9

    def test_nonfinite_distance_cell_dropped(self):
        ann = rect_annotation(10, 10, 120, 40)
        pred = perfect_pred(ann, (140, 60))
        rows, cols = np.nonzero(pred.prob)
        pred.dist_x[rows[len(rows) // 2], cols[len(cols) // 2]] = np.nan
        diag = detect.DecodeDiagnostics()
        dets = detect.decode(pred, detect.DecodeConfig(), diag)
        assert len(dets) == 1
        assert diag.nonfinite == 1
        assert ts.polygon_iou(dets[0].polygon, ann.polygon(), 256) >= 0.9

    def test_infinite_prob_cell_dropped_and_output_readable(self, tmp_path):
        ann = rect_annotation(10, 10, 120, 40)
        pred = perfect_pred(ann, (140, 60))
        rows, cols = np.nonzero(pred.prob)
        pred.prob[rows[len(rows) // 2], cols[len(cols) // 2]] = np.inf
        pred.prob[rows[len(rows) // 3], cols[len(cols) // 3]] = 5.0   # clamped to 1
        diag = detect.DecodeDiagnostics()
        dets = detect.decode(pred, detect.DecodeConfig(), diag)
        assert diag.nonfinite == 1
        assert len(dets) == 1 and dets[0].score == 1.0
        path = tmp_path / "dets.txt"
        formats.write_detections(path, dets)
        back = formats.read_detections(path)
        assert [d.score for d in back] == [1.0]

    def test_deterministic(self):
        ann = rect_annotation(10, 10, 150, 50)
        pred = perfect_pred(ann, (170, 70))
        a = detect.decode(pred, detect.DecodeConfig())
        b = detect.decode(pred, detect.DecodeConfig())
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.polygon.vertices, y.polygon.vertices)
            assert x.score == y.score

    def test_separated_pair_counts(self):
        anns, size = separated_pair(gap_ratio=0.6)
        grid = RasterGrid.for_image(*size, 1)
        pred = detect.PredictionRaster.from_label(ts.encode(anns, grid))
        dets = detect.decode(pred, detect.DecodeConfig())
        assert len(dets) == 2

    def test_min_cells_auto_from_stride(self):
        cfg = detect.DecodeConfig()
        assert cfg.resolved_min_cells(1) == 64
        assert cfg.resolved_min_cells(4) == 4
        assert detect.DecodeConfig(min_cells=10).resolved_min_cells(1) == 10


class TestNoise:
    def test_noise_is_seeded(self):
        ann = rect_annotation(10, 10, 100, 40)
        pred = perfect_pred(ann, (120, 60))
        a = detect.add_distance_noise(pred, 1.0, seed=7)
        b = detect.add_distance_noise(pred, 1.0, seed=7)
        c = detect.add_distance_noise(pred, 1.0, seed=8)
        assert np.array_equal(a.dist_x, b.dist_x)
        assert not np.array_equal(a.dist_x, c.dist_x)

    def test_zero_sigma_is_identity(self):
        ann = rect_annotation(10, 10, 100, 40)
        pred = perfect_pred(ann, (120, 60))
        assert detect.add_distance_noise(pred, 0.0, seed=7) is pred

    def test_sigma_one_keeps_count_and_mean_quality(self):
        anns = [
            rect_annotation(10, 10, 600, 120),
            rect_annotation(10, 10, 420, 140, angle_deg=25),
            rect_annotation(10, 10, 900, 110),
        ]
        clean_ious = []
        noisy_ious = []
        for i, ann in enumerate(anns):
            ring = ann.closed_vertices()
            size = (int(ring[:, 0].max()) + 20, int(ring[:, 1].max()) + 20)
            pred = perfect_pred(ann, size)
            clean = detect.decode(pred, detect.DecodeConfig())
            noisy = detect.decode(
                detect.add_distance_noise(pred, 1.0, seed=3 + i), detect.DecodeConfig()
            )
            assert len(noisy) == len(clean) == 1
            clean_ious.append(ts.polygon_iou(clean[0].polygon, ann.polygon(), 256))
            noisy_ious.append(ts.polygon_iou(noisy[0].polygon, ann.polygon(), 256))
        assert np.mean(clean_ious) - np.mean(noisy_ious) < 0.05
