import dataclasses
import time
import tracemalloc
import warnings
from collections import deque
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import textshape as ts
from textshape import detect, evaluate, formats, geom
from textshape.labels import RasterGrid
from textshape.synth import rect_annotation, roundtrip_suite, separated_pair
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


def instances(mask, min_cells=1):
    """extract_instances on a 2-D mask: its positive cells' flat indices and
    its width go in, components of flat indices come out."""
    mask = np.asarray(mask)
    return detect.extract_instances(np.flatnonzero(mask), mask.shape[1], min_cells)


def row_col(comp, width):
    """A component's flat cell indices as (N, 2) row/col pairs."""
    return np.stack(np.divmod(comp, width), axis=1)


def assert_matches_oracle_order(mask, min_cells=1):
    """extract_instances equals the flood fill's components of at least
    min_cells, size descending with ties by first cell in raster order, each
    in raster order, as 1-D intp arrays of flat indices."""
    want = [sorted(c) for c in flood_fill_components(mask) if len(c) >= min_cells]
    want.sort(key=len, reverse=True)   # stable: ties keep the raster order
    got = instances(mask, min_cells)
    assert len(got) == len(want)
    for comp, cells in zip(got, want):
        assert comp.dtype == np.intp and comp.shape == (len(cells),)
        assert row_col(comp, mask.shape[1]).tolist() == [list(cell) for cell in cells]
    return got


def speckle_mask(shape, count, rng, avoid=None):
    """count two-cell horizontal speckles, none touching another (or the
    avoid window (r0, r1, c0, c1), grown by one cell)."""
    h, w = shape
    rr, cc = np.mgrid[0:h:3, 0:w - 1:4]
    rr, cc = rr.ravel(), cc.ravel()
    if avoid is not None:
        r0, r1, c0, c1 = avoid
        clear = (rr < r0 - 1) | (rr > r1) | (cc + 1 < c0 - 1) | (cc > c1)
        rr, cc = rr[clear], cc[clear]
    pick = rng.choice(len(rr), count, replace=False)
    mask = np.zeros(shape, dtype=np.uint8)
    mask[rr[pick], cc[pick]] = 1
    mask[rr[pick], cc[pick] + 1] = 1
    return mask


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
        assert out.dtype == bool
        for r in range(0, 50, 7):
            for c in range(0, 70, 11):
                assert out[r, c] == (prob[r, c] >= 0.37)

    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError):
            detect.binarize(np.zeros((2, 2)), 1.0)


class TestExtractInstances:
    def test_two_blobs(self):
        mask = np.zeros((10, 20), dtype=np.uint8)
        mask[2:5, 2:8] = 1
        mask[6:9, 12:18] = 1
        comps = instances(mask)
        assert len(comps) == 2

    def test_diagonal_blobs_are_separate(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[0:2, 0:2] = 1
        mask[2:4, 2:4] = 1
        assert len(instances(mask)) == 2

    def test_matches_flood_fill_oracle(self, rng):
        mask = (rng.random((300, 300)) < 0.45).astype(np.uint8)
        got = {frozenset(map(tuple, row_col(comp, 300).tolist())) for comp in instances(mask)}
        want = set(flood_fill_components(mask))
        assert got == want
        # Many components: also their order (size descending, then by first
        # cell in raster order) and each one's cells in raster order.
        mask = (rng.random((60, 80)) < 0.3).astype(np.uint8)
        got = instances(mask)
        want = sorted((sorted(c) for c in flood_fill_components(mask)), key=len, reverse=True)
        assert len(got) == len(want) > 100
        for comp, cells in zip(got, want):
            assert comp.dtype == np.intp and comp.shape == (len(cells),)
            assert row_col(comp, 80).tolist() == [list(cell) for cell in cells]

    def test_small_components_dropped(self):
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[0, 0] = 1
        mask[5:8, 5:8] = 1
        comps = instances(mask, min_cells=4)
        assert len(comps) == 1 and len(comps[0]) == 9

    def test_sorted_by_size_descending(self):
        mask = np.zeros((10, 30), dtype=np.uint8)
        mask[1:3, 1:4] = 1
        mask[5:9, 10:20] = 1
        comps = instances(mask)
        assert len(comps[0]) >= len(comps[1])

    def test_empty_mask(self):
        assert instances(np.zeros((5, 5), dtype=np.uint8)) == []

    def test_row_wrap_splits_components(self):
        # (1, 4) and (2, 0) are consecutive flat indices but not neighbors
        mask = np.zeros((4, 5), dtype=np.uint8)
        mask[1, 3:] = 1
        mask[2, :2] = 1
        got = assert_matches_oracle_order(mask)
        assert [row_col(c, 5).tolist() for c in got] == [[[1, 3], [1, 4]], [[2, 0], [2, 1]]]

    def test_diagonal_only_contact(self):
        mask = (np.add.outer(np.arange(5), np.arange(6)) % 2 == 0).astype(np.uint8)
        got = assert_matches_oracle_order(mask)
        assert len(got) == 15 and all(len(c) == 1 for c in got)

    def test_stacked_full_width_rows(self):
        # rows 1-3 are one run of flat indices across three rows
        mask = np.zeros((7, 6), dtype=np.uint8)
        mask[1:4] = 1
        mask[5] = 1
        got = assert_matches_oracle_order(mask)
        assert [len(c) for c in got] == [18, 6]

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1)])
    def test_single_row_and_single_column(self, shape):
        mask = np.array([1, 1, 0, 1, 0, 1, 1, 1, 0], dtype=np.uint8).reshape(shape)
        got = assert_matches_oracle_order(mask)
        assert [len(c) for c in got] == [3, 2, 1]
        assert [len(c) for c in assert_matches_oracle_order(mask, 2)] == [3, 2]

    @pytest.mark.parametrize("fill", [0, 1])
    def test_all_positive_and_empty(self, fill):
        mask = np.full((6, 8), fill, dtype=np.uint8)
        got = assert_matches_oracle_order(mask)
        assert len(got) == fill
        assert assert_matches_oracle_order(mask, 49) == []

    @settings(max_examples=150, deadline=None)
    @given(
        mask=arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, max_side=16)),
        min_cells=st.integers(1, 12),
    )
    def test_matches_oracle_order_property(self, mask, min_cells):
        assert_matches_oracle_order(mask, min_cells)

    def test_page_of_speckles_costs_only_its_cells(self):
        rng = np.random.default_rng(7)
        block = (260, 460, 240, 1040)
        mask = speckle_mask((720, 1280), 3000, rng, avoid=block)
        assert mask.sum() == 6000
        r0, r1, c0, c1 = block
        mask[r0:r1, c0:c1] = 1
        t0 = time.perf_counter()
        got = instances(mask, 64)
        elapsed = time.perf_counter() - t0
        rows, cols = np.mgrid[r0:r1, c0:c1]
        want = np.stack([rows.ravel(), cols.ravel()], axis=1)
        assert len(got) == 1
        assert got[0].dtype == np.intp and np.array_equal(row_col(got[0], 1280), want)
        assert elapsed < 1.0   # the per-component full-grid scan took ~8 s

    def test_decode_of_speckles_alone_is_empty(self):
        mask = speckle_mask((720, 1280), 3000, np.random.default_rng(8))
        grid = RasterGrid.for_image(1280, 720, 1)
        zeros = np.zeros(grid.shape)
        pred = detect.PredictionRaster(grid=grid, prob=mask.astype(np.float64),
                                       dist_x=zeros, dist_y=zeros)
        diag = detect.DecodeDiagnostics()
        assert detect.decode(pred, detect.DecodeConfig(), diag) == []
        assert diag.components == 0 and diag.nonfinite == 0


class TestBoundaryPoints:
    def test_perfect_rectangle_points_on_boundary(self):
        ann = rect_annotation(20, 20, 160, 40)
        pred = perfect_pred(ann, (200, 80))
        comp = instances(detect.binarize(pred.prob))[0]
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
        comp = instances(detect.binarize(prob))[0]
        bp = detect.boundary_points(comp, pred, min_points=1)
        centers = grid.cell_centers(*np.divmod(comp, 10))
        assert sorted(map(tuple, bp.points.tolist())) == sorted(map(tuple, centers.tolist()))

    def test_min_points_rejection(self):
        grid = RasterGrid(width=10, height=10, stride=1)
        prob = np.zeros((10, 10))
        prob[5, 4:7] = 1.0
        pred = detect.PredictionRaster(
            grid=grid, prob=prob, dist_x=np.zeros((10, 10)), dist_y=np.zeros((10, 10))
        )
        comp = instances(detect.binarize(prob))[0]
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
        comp = instances(detect.binarize(prob))[0]
        bp = detect.boundary_points(comp, pred, min_points=1)
        assert len(bp.points) == 2

    def test_score_is_mean_probability(self):
        grid = RasterGrid(width=4, height=1, stride=1)
        prob = np.array([[0.6, 0.8, 1.0, 0.2]])
        pred = detect.PredictionRaster(
            grid=grid, prob=prob, dist_x=np.zeros((1, 4)), dist_y=np.zeros((1, 4))
        )
        comp = np.array([0, 1, 2])
        bp = detect.boundary_points(comp, pred, min_points=1)
        assert bp.score == pytest.approx((0.6 + 0.8 + 1.0) / 3)


def regressed_points(comp, pred):
    """Cell center + predicted offset for each component cell, in order."""
    rows, cols = np.divmod(comp, pred.grid.width)
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
    comp = instances(detect.binarize(pred.prob))[0]
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


    @staticmethod
    def lattice(pts, alpha):
        """The dedupe lattice of boundary_points: its step and its cell count."""
        step = max(0.5, min(alpha, 1.0) * np.ptp(pts, axis=0).max() / detect.THIN_CELLS_PER_ALPHA)
        return step, int(np.prod(np.ptp(np.round(pts / step), axis=0) + 1))

    @pytest.mark.parametrize("alpha, table", [(1e-3, False), (0.06, True), (float("inf"), True)])
    def test_matches_first_per_cell_oracle_with_and_without_table(self, alpha, table):
        # a slanted band spans far more lattice cells than it has points
        comp, pred = noisy_component(rect_annotation(20, 150, 560, 50, angle_deg=30), (620, 360))
        pts = regressed_points(comp, pred)
        step, cells = self.lattice(pts, alpha)
        assert (cells <= detect.TABLE_CELLS_PER_POINT * len(pts)) == table
        bp = detect.boundary_points(comp, pred, alpha=alpha)
        assert np.array_equal(bp.points, first_per_cell(pts, step))

    def test_small_alpha_allocates_no_lattice_table(self):
        comp, pred = noisy_component(rect_annotation(20, 150, 560, 50, angle_deg=30), (620, 360))
        n = len(comp)
        _, cells = self.lattice(regressed_points(comp, pred), 1e-3)
        assert 8 * cells > 300 * n   # an int64 entry per lattice cell
        tracemalloc.start()
        try:
            detect.boundary_points(comp, pred, alpha=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * n

    def test_lattice_beyond_int64_keys_matches_oracle(self):
        # points spread over 4e10 px at the 0.5 px step: (8e10 cells)^2 > 2**63 keys
        grid = RasterGrid(width=40, height=40, stride=1)
        prob = np.zeros((40, 40))
        prob[5:35, 5:35] = 1.0
        rng = np.random.default_rng(5)
        pred = detect.PredictionRaster(
            grid=grid, prob=prob,
            dist_x=rng.uniform(-2e10, 2e10, (40, 40)), dist_y=rng.uniform(-2e10, 2e10, (40, 40)),
        )
        comp = instances(detect.binarize(prob))[0]
        pts = regressed_points(comp, pred)
        step, cells = self.lattice(pts, 1e-12)
        assert step == 0.5 and cells >= 2**63
        # the first two cells regress onto the third cell's point
        rows, cols = np.divmod(comp[:2], 40)
        pred.dist_x[rows, cols] = pts[2, 0] - (cols + 0.5)
        pred.dist_y[rows, cols] = pts[2, 1] - (rows + 0.5)
        bp = detect.boundary_points(comp, pred, alpha=1e-12)
        assert np.array_equal(bp.points, first_per_cell(regressed_points(comp, pred), step))
        assert len(bp.points) == len(comp) - 2

    @pytest.mark.parametrize("far", ["shifted", "split"])
    def test_points_beyond_int64_lattice_rejected_without_warning(self, far):
        pred = perfect_pred(rect_annotation(10, 10, 120, 40), (140, 60))
        pos = pred.prob > 0
        if far == "shifted":   # every point about 2e20 lattice steps out
            pred.dist_x[pos] += 1e20
        else:                  # points at +-1.7e308: their span overflows float64
            pred.dist_x[pos] = np.where(np.arange(pos.sum()) % 2, 1.7e308, -1.7e308)
        comp = instances(detect.binarize(pred.prob))[0]
        diag = detect.DecodeDiagnostics()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if far == "shifted":
                with pytest.raises(detect.InstanceRejected, match="2\\*\\*62 or more 0.5 px steps"):
                    detect.boundary_points(comp, pred)
            dets = detect.decode(pred, detect.DecodeConfig(), diag)
        assert (len(dets), diag.components, diag.rejected, diag.points) == (0, 1, 1, 0)


class TestReconstruct:
    def test_rectangle_ring(self):
        ann = rect_annotation(10, 10, 300, 60)
        pred = perfect_pred(ann, (320, 80))
        dets = detect.decode(pred, detect.DecodeConfig())
        assert len(dets) == 1
        with patch.object(geom, "IOU_RESOLUTION", 512):
            assert ts.polygon_iou(dets[0].polygon, ann.polygon()) >= 0.95

    def test_three_points_give_triangle(self):
        pts = np.array([(0.0, 0.0), (40.0, 0.0), (20.0, 30.0)])
        bp = detect.BoundaryPointSet(points=pts, score=1.0, sources=np.array([(20.0, 10.0)]))
        det = detect.reconstruct(bp)
        assert det.polygon.area == pytest.approx(600.0, rel=1e-9)

    def test_degenerate_rejected(self):
        pts = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        bp = detect.BoundaryPointSet(points=pts, score=1.0, sources=np.array([(1.5, 1.5)]))
        with pytest.raises(detect.InstanceRejected):
            detect.reconstruct(bp)


class TestPredictionRaster:
    @pytest.mark.parametrize("bad", ["prob", "dist_x", "dist_y"])
    def test_channel_off_the_grid_shape(self, bad):
        grid = RasterGrid(width=4, height=3, stride=1)
        planes = {name: np.zeros((3, 4)) for name in ("prob", "dist_x", "dist_y")}
        planes[bad] = np.zeros((4, 3))
        with pytest.raises(ValueError, match="prediction channels must share the grid shape"):
            detect.PredictionRaster(grid=grid, **planes)


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
            best = max(ts.polygon_iou(d.polygon, ann.polygon()) for d in dets)
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
        comp = instances(detect.binarize(pred.prob))[0]
        kept = detect.boundary_points(comp, pred, alpha=detect.DEFAULT_ALPHA).points
        assert (diag.cells, diag.points) == (len(comp), len(kept)) == (6000, 532)

    def test_diagnostics_add_up_over_decodes(self):
        nan_cell = perfect_pred(rect_annotation(10, 10, 120, 40), (140, 60))
        rows, cols = np.nonzero(nan_cell.prob)
        nan_cell.dist_x[rows[7], cols[7]] = np.nan
        rejected = perfect_pred(rect_annotation(10, 10, 120, 40), (140, 60))
        rejected.dist_x *= 1e15   # a vertex beyond MAX_COORD
        rejected.dist_y *= 1e15
        fresh = []
        shared = detect.DecodeDiagnostics()
        for pred in (nan_cell, rejected):
            diag = detect.DecodeDiagnostics()
            detect.decode(pred, detect.DecodeConfig(), diag)
            fresh.append(dataclasses.astuple(diag))
            detect.decode(pred, detect.DecodeConfig(), shared)
        assert fresh[0][:3] == (1, 0, 1) and fresh[1][:3] == (1, 1, 0)
        assert dataclasses.astuple(shared) == tuple(map(sum, zip(*fresh)))

    def test_quads_attached(self):
        ann = rect_annotation(10, 10, 120, 40)
        pred = perfect_pred(ann, (140, 60))
        dets = detect.decode(pred, detect.DecodeConfig())
        quad = ts.min_area_rect(dets[0].polygon)
        assert quad is not None
        assert len(quad.vertices) == 4
        assert ts.polygon_iou(quad, ann.polygon()) >= 0.9

    def test_nonfinite_distance_cell_dropped(self):
        ann = rect_annotation(10, 10, 120, 40)
        pred = perfect_pred(ann, (140, 60))
        rows, cols = np.nonzero(pred.prob)
        pred.dist_x[rows[len(rows) // 2], cols[len(cols) // 2]] = np.nan
        diag = detect.DecodeDiagnostics()
        dets = detect.decode(pred, detect.DecodeConfig(), diag)
        assert len(dets) == 1
        assert diag.nonfinite == 1
        assert ts.polygon_iou(dets[0].polygon, ann.polygon()) >= 0.9

    def test_nonfinite_column_cuts_the_instance_in_two(self):
        ann = rect_annotation(10, 10, 200, 40)
        pred = perfect_pred(ann, (240, 60))
        cols = np.flatnonzero(pred.prob.any(axis=0))
        cut = cols[len(cols) // 2]
        pred.dist_x[:, cut] = np.nan
        diag = detect.DecodeDiagnostics()
        dets = detect.decode(pred, detect.DecodeConfig(), diag)
        assert diag.components == 2 and diag.rejected == 0 and len(dets) == 2
        assert diag.nonfinite == int((pred.prob[:, cut] >= 0.5).sum()) > 0
        left, right = sorted(dets, key=lambda d: d.polygon.vertices[:, 0].min())
        x_cut = pred.grid.cell_centers(0, cut)[0]
        assert left.polygon.vertices[:, 0].max() < x_cut < right.polygon.vertices[:, 0].min()

    def test_nan_at_every_negative_cell_changes_nothing(self):
        pred = perfect_pred(rect_annotation(10, 10, 120, 40), (140, 60))
        clean = detect.decode(pred, detect.DecodeConfig())
        negative = pred.prob < 0.5
        for plane in (pred.prob, pred.dist_x, pred.dist_y):
            plane[negative] = np.nan
        diag = detect.DecodeDiagnostics()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dets = detect.decode(pred, detect.DecodeConfig(), diag)
        assert diag.nonfinite == 0 and len(dets) == len(clean) == 1
        for got, want in zip(dets, clean):
            assert got.polygon.vertices.tobytes() == want.polygon.vertices.tobytes()
            assert got.score == want.score

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

    def test_decode_and_roundtrip_leave_the_prediction_planes_unchanged(self, monkeypatch):
        ann = rect_annotation(10, 10, 120, 40)
        grid = RasterGrid.for_image(140, 60, 1)
        label = ts.encode([ann], grid)
        pred = detect.PredictionRaster.from_label(label)
        assert pred.dist_x is label.dist_x and pred.dist_y is label.dist_y
        rows, cols = np.nonzero(label.mask)
        pred.dist_x[rows[5], cols[5]] = np.nan
        pred.prob[rows[9], cols[9]] = np.inf
        planes = (pred.prob, pred.dist_x, pred.dist_y)
        before = [p.tobytes() for p in planes]
        diag = detect.DecodeDiagnostics()
        assert len(detect.decode(pred, detect.DecodeConfig(), diag)) == 1
        assert diag.nonfinite == 2
        assert [p.tobytes() for p in planes] == before

        encoded = []

        def encode_with_nan(anns, grid):
            out = ts.encode(anns, grid)
            out.dist_x[rows[5], cols[5]] = np.nan
            encoded.append((out, [p.tobytes() for p in (out.mask, out.dist_x, out.dist_y)]))
            return out

        monkeypatch.setattr(evaluate, "encode", encode_with_nan)
        for sigma in (0.0, 1.0):
            ious, count = evaluate.roundtrip([ann], grid, noise_sigma=sigma)
            assert count == 1 and ious[0] >= 0.75
            out, before = encoded.pop()
            assert [p.tobytes() for p in (out.mask, out.dist_x, out.dist_y)] == before

    def test_label_file_decodes_as_its_float64_conversion(self, tmp_path):
        # decode and add_distance_noise add the float32 planes to float64,
        # which is exact, so keeping them decodes bit for bit as a copy would
        inst = roundtrip_suite()[-1]
        grid = RasterGrid.for_image(*inst.image_size, 1)
        path = tmp_path / "label.msrr"
        formats.write_raster(path, ts.encode([inst.annotation], grid))
        label = formats.read_raster(path)
        pred = detect.PredictionRaster.from_label(label)
        assert pred.dist_x is label.dist_x and pred.dist_y is label.dist_y
        assert pred.dist_x.dtype == np.float32
        wide = detect.PredictionRaster(
            grid=grid,
            prob=label.mask.astype(np.float64),
            dist_x=label.dist_x.astype(np.float64),
            dist_y=label.dist_y.astype(np.float64),
        )
        for sigma in (0.0, 1.0):
            a = detect.decode(detect.add_distance_noise(pred, sigma, seed=1000))
            b = detect.decode(detect.add_distance_noise(wide, sigma, seed=1000))
            assert len(a) == len(b) == 1
            for x, y in zip(a, b):
                assert np.array_equal(x.polygon.vertices, y.polygon.vertices)
                assert x.score == y.score

    def test_vertex_beyond_max_coord_rejected_and_output_readable(self, tmp_path):
        # distances scaled by 1e15 put a decoded vertex near -1.95e16
        pred = perfect_pred(rect_annotation(10, 10, 120, 40), (140, 60))
        pred.dist_x *= 1e15
        pred.dist_y *= 1e15
        diag = detect.DecodeDiagnostics()
        dets = detect.decode(pred, detect.DecodeConfig(), diag)
        assert (len(dets), diag.rejected, diag.points) == (0, 1, 0)
        path = tmp_path / "dets.txt"
        formats.write_detections(path, dets)
        assert formats.read_detections(path) == []

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
        anns, size = separated_pair()
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

    @pytest.mark.parametrize("sigma", [np.nan, -1.0, np.inf])
    def test_bad_sigma_raises(self, sigma):
        pred = perfect_pred(rect_annotation(10, 10, 100, 40), (120, 60))
        with pytest.raises(ValueError, match="sigma must be finite and at least 0"):
            detect.add_distance_noise(pred, sigma)

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
            clean_ious.append(ts.polygon_iou(clean[0].polygon, ann.polygon()))
            noisy_ious.append(ts.polygon_iou(noisy[0].polygon, ann.polygon()))
        assert np.mean(clean_ious) - np.mean(noisy_ious) < 0.05
