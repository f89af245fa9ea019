import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from textshape import labels as enc
from textshape.geom import DegenerateInputError, Polygon, as_points, drop_repeats
from textshape.synth import arc_annotation, rect_annotation, roundtrip_suite, separated_pair
from conftest import (
    bbox_region_cells,
    point_major_nearest_boundary,
    ray_cast_inside,
    sequential_central_ring,
    sequential_zip_edges,
    shoelace,
    suite_digests,
    vertex_sets_match,
    zip_triangles,
)

RECT_RING = [(0, 0), (100, 0), (100, 40), (0, 40)]


def seg_distance(p, a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    p = np.asarray(p, float)
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0, 1))
    return float(np.hypot(*(a + t * ab - p)))


def boundary_distance(p, ring):
    ring = np.asarray(ring, float)
    return min(
        seg_distance(p, ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))
    )


class TestSplitSides:
    def test_quadrilateral_convention(self):
        ann = enc.split_sides(RECT_RING)
        assert ann.upper == pytest.approx(np.array([[0, 0], [100, 0]]))
        assert ann.lower == pytest.approx(np.array([[0, 40], [100, 40]]))

    def test_fourteen_vertex_line(self):
        xs = np.linspace(0, 130, 7)
        ring = [(x, 10 + 2 * np.sin(x / 40)) for x in xs]
        ring += [(x, 40 + 2 * np.sin(x / 40)) for x in xs[::-1]]
        ann = enc.split_sides(ring)
        assert len(ann.upper) == 7 and len(ann.lower) == 7
        assert len(ann.upper) + len(ann.lower) == 14

    def test_six_vertex_arc(self):
        ring = [(0, 0), (50, -8), (100, 0), (100, 30), (50, 22), (0, 30)]
        ann = enc.split_sides(ring)
        assert len(ann.upper) == 3 and len(ann.lower) == 3
        assert ann.lower == pytest.approx(np.array([[0, 30], [50, 22], [100, 30]]))

    def test_odd_count_rejected(self):
        with pytest.raises(enc.MalformedAnnotationError):
            enc.split_sides([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])

    def test_self_intersecting_rejected(self):
        with pytest.raises(enc.MalformedAnnotationError):
            enc.split_sides([(0, 0), (100, 0), (0, 40), (100, 40)])


def zip_tiles(ann):
    return zip_triangles(ann.upper, ann.lower, list(zip(*enc._zip_edges(ann))))


@st.composite
def chain_pairs(draw):
    """Two chains of 2-14 vertices; lattice coordinates give exact
    arc-length ties, and the chains may share their first vertex."""
    if draw(st.booleans()):
        coord = st.integers(0, 4).map(float)
    else:
        coord = st.floats(-100, 100, allow_nan=False)
    chain = st.lists(st.tuples(coord, coord), min_size=2, max_size=14)
    upper, lower = draw(chain), draw(chain)
    if draw(st.booleans()):
        lower[0] = upper[0]
    return upper, lower


class TestTriangulate:
    def test_rectangle_two_triangles_tile_area(self):
        tris = zip_tiles(enc.split_sides(RECT_RING))
        assert len(tris) == 2
        assert sum(abs(shoelace(t)) for t in tris) == pytest.approx(4000, rel=1e-9)

    def test_ctw_line_triangle_count_and_tiling(self):
        xs = np.linspace(0, 300, 7)
        upper = [(x, 60 - 40 * np.sin(np.pi * x / 300)) for x in xs]
        lower = [(x, 100 - 40 * np.sin(np.pi * x / 300)) for x in xs]
        ann = enc.AnnotationPolygon.make(upper, lower)
        tris = zip_tiles(ann)
        assert len(tris) == 12   # n_up + n_low - 2
        total = sum(abs(shoelace(t)) for t in tris)
        assert total == pytest.approx(abs(shoelace(ann.closed_vertices())), rel=1e-6)

    def test_uneven_chains(self):
        ann = enc.AnnotationPolygon.make([(0, 0), (100, 0)], [(0, 30), (50, 30), (100, 30)])
        tris = zip_tiles(ann)
        assert len(tris) == 3
        total = sum(abs(shoelace(t)) for t in tris)
        assert total == pytest.approx(abs(shoelace(ann.closed_vertices())), rel=1e-9)

    def test_every_triangle_straddles_chains(self):
        ann = arc_annotation(0, 0, 120, 40, 150)
        upper = {tuple(p) for p in ann.upper}
        lower = {tuple(p) for p in ann.lower}
        for t in zip_tiles(ann):
            corners = {tuple(p) for p in t}
            assert corners & upper and corners & lower


class TestZipMatchesSequentialMerge:
    @given(chain_pairs())
    @example(([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 1), (2, 1)]))   # ties at 0.5 and 1
    @example(([(0, 0), (2, 0)], [(0, 0), (1, 1), (2, 0)]))           # shared first vertex
    @settings(max_examples=300, deadline=None)
    def test_edges_and_ring_equal_the_oracle(self, chains):
        upper, lower = (drop_repeats(as_points(c)) for c in chains)
        assume(len(upper) >= 2 and len(lower) >= 2)
        ann = enc.AnnotationPolygon(upper, lower)
        edges = sequential_zip_edges(enc._arc_params(upper), enc._arc_params(lower))
        iu, il = enc._zip_edges(ann)
        assert list(zip(iu.tolist(), il.tolist())) == edges

        ring = sequential_central_ring(upper, lower, edges, enc.SHRINK)
        if len(ring) < 3:
            with pytest.raises(enc.MalformedAnnotationError):
                enc.central_region_polygon(ann)
            return
        try:
            want = Polygon.make(ring).vertices
        except ValueError as exc:
            with pytest.raises(type(exc)):
                enc.central_region_polygon(ann)
            return
        assert enc.central_region_polygon(ann).vertices.tobytes() == want.tobytes()


class TestCentralRegion:
    def test_rectangle_hand_construction(self):
        ann = enc.split_sides(RECT_RING)
        poly = enc.central_region_polygon(ann)
        expected = [(0, 10), (75, 10), (100, 10), (100, 30), (25, 30), (0, 30)]
        assert vertex_sets_match(poly.vertices, expected)

    def test_strictly_smaller(self):
        for ann in (
            enc.split_sides(RECT_RING),
            arc_annotation(0, 0, 100, 30, 120),
            rect_annotation(0, 0, 50, 50, angle_deg=30),
        ):
            central = enc.central_region_polygon(ann)
            assert central.area < ann.polygon().area

    def test_vertices_inside_annotation(self):
        ann = arc_annotation(0, 0, 150, 50, 170)
        ring = ann.closed_vertices()
        central = enc.central_region_polygon(ann)
        for x, y in central.vertices:
            assert ray_cast_inside(x, y, ring) or boundary_distance((x, y), ring) < 1e-9

    def test_rasterized_containment(self):
        ann = arc_annotation(200, 200, 120, 44, 160)
        central = enc.central_region_polygon(ann)
        grid = enc.RasterGrid.for_image(400, 400, 1)
        flat, centers = enc._region_cells(central, grid)
        assert (np.diff(flat) > 0).all()   # raster order
        assert centers.tobytes() == grid.cell_centers(*np.divmod(flat, grid.width)).tobytes()
        ring = ann.closed_vertices()
        inside = sum(
            1
            for x, y in centers
            if ray_cast_inside(x, y, ring) or boundary_distance((x, y), ring) < 0.5
        )
        assert inside >= 0.999 * len(centers)


@st.composite
def region_cases(draw):
    """A ring, a grid of stride 1-4 and the ring's kind.

    "lattice" rings have vertices on the half-cell lattice, so cell centers
    fall on their vertices and on their horizontal and vertical edges;
    "free" rings reach past the grid on every side; a "sliver" lies strictly
    between two adjacent center rows (or columns), so it holds no center.
    """
    stride = draw(st.integers(1, 4))
    grid = enc.RasterGrid(draw(st.integers(1, 12)), draw(st.integers(1, 12)), stride)
    kind = draw(st.sampled_from(["lattice", "free", "sliver"]))
    n = draw(st.integers(3, 9))
    if kind == "lattice":
        k = st.integers(-4, 28)
        pts = np.array(draw(st.lists(st.tuples(k, k), min_size=n, max_size=n)), float)
        pts *= stride / 2
    else:
        free = st.floats(-5.0 * stride, 17.0 * stride, allow_nan=False)
        pts = np.array(draw(st.lists(st.tuples(free, free), min_size=n, max_size=n)))
    if kind == "sliver":
        line = draw(st.integers(-1, 12))
        gap = st.floats(0.01, 0.99)
        pts[:, 1] = [(line + 0.5 + draw(gap)) * stride for _ in range(n)]
        if draw(st.booleans()):
            pts = pts[:, ::-1].copy()
    try:
        poly = Polygon.make(pts)
    except DegenerateInputError:
        assume(False)
    return poly, grid, kind


def assert_region_equals_bbox(poly, grid):
    flat, centers = enc._region_cells(poly, grid)
    want_flat, want_centers = bbox_region_cells(poly, grid)
    assert flat.dtype == want_flat.dtype
    assert flat.tobytes() == want_flat.tobytes()
    assert centers.tobytes() == want_centers.tobytes()
    return flat


class TestRegionCells:
    @settings(max_examples=400, deadline=None)
    @given(region_cases())
    # a rectangle whose edges run along center rows and columns
    @example((Polygon.make([(1, 1), (7, 1), (7, 5), (1, 5)]), enc.RasterGrid(6, 4, 2), "lattice"))
    # a U whose inner horizontal edge lies on a center row
    @example((Polygon.make([(0, 0.5), (6, 0.5), (6, 4), (4, 4), (4, 2.5), (2, 2.5), (2, 4),
                            (0, 4)]), enc.RasterGrid(8, 8, 1), "lattice"))
    # wholly left of, and wholly below, the grid
    @example((Polygon.make([(-9, 1), (-2, 1), (-2, 6)]), enc.RasterGrid(5, 5, 1), "free"))
    @example((Polygon.make([(1, 30), (4, 30), (4, 40)]), enc.RasterGrid(5, 5, 3), "free"))
    # a notch from x = 2.6 to 2.9 across the center row y = 0.5: its two
    # crossings fall between the same two centers, so one run ends at the
    # cell where the next begins; half-open runs share no cell
    @example((Polygon.make([(0, 0), (2.6, 0), (2.6, 0.8), (2.9, 0.8), (2.9, 0), (5, 0), (5, 2),
                            (0, 2)]), enc.RasterGrid(6, 3, 1), "free"))
    def test_equals_bbox_raster(self, case):
        poly, grid, kind = case
        flat = assert_region_equals_bbox(poly, grid)
        if kind == "sliver":
            assert len(flat) == 0

    def test_suite_equals_bbox_raster(self):
        """Every 4th suite instance: its central region, and the ignore mask
        that encode writes for its full outline."""
        for inst in roundtrip_suite()[::4]:
            grid = enc.RasterGrid.for_image(*inst.image_size, stride=1)
            assert len(assert_region_equals_bbox(enc.central_region_polygon(inst.annotation), grid))
            ann = enc.AnnotationPolygon(inst.annotation.upper, inst.annotation.lower, ignore=True)
            want_flat, _ = bbox_region_cells(ann.polygon(), grid)
            got = enc.encode([ann], grid).ignore_mask
            assert len(want_flat)
            assert np.flatnonzero(got).tobytes() == want_flat.tobytes()

    @pytest.fixture
    def tested(self, monkeypatch):
        """Every point array the region raster sends to point_in_polygon."""
        calls = []
        real = enc.point_in_polygon

        def spy(points, vertices):
            calls.append(np.asarray(points))
            return real(points, vertices)

        monkeypatch.setattr(enc, "point_in_polygon", spy)
        return calls

    def region_work(self, tested, ann, grid):
        tested.clear()
        flat, _ = enc._region_cells(enc.central_region_polygon(ann), grid)
        return sum(map(len, tested)), len(flat)

    def test_rotated_line_tests_only_its_inside_cells(self, tested):
        """One run per row, holding exactly the row's inside cells."""
        grid = enc.RasterGrid.for_image(800, 800, 1)
        ann = rect_annotation(100, 350, 600, 30, angle_deg=45)
        n_tested, n_inside = self.region_work(tested, ann, grid)
        assert n_tested == n_inside

    def test_suite_rotated_line_tests_only_its_inside_cells(self, tested):
        inst = next(i for i in roundtrip_suite() if i.name == "rot30_a20")
        grid = enc.RasterGrid.for_image(*inst.image_size, stride=1)
        n_tested, n_inside = self.region_work(tested, inst.annotation, grid)
        assert n_inside == 108_159   # of the bbox's 1,988,123 centers
        assert n_tested == n_inside

    def test_ignore_regions_send_nothing_to_point_in_polygon(self, tested):
        """An ignore region is written straight from its runs; a real
        annotation still sends its central cells, in one call."""
        grid = enc.RasterGrid.for_image(800, 800, 1)
        dont_care = arc_annotation(400, 400, 250, 60, 120)
        dont_care.ignore = True
        label = enc.encode([dont_care], grid)
        assert label.ignore_mask.sum() > 10_000
        assert tested == []
        real = rect_annotation(100, 350, 600, 30, angle_deg=45)
        label = enc.encode([dont_care, real], grid)
        assert [len(t) for t in tested] == [int(label.mask.sum())]

    def test_arc_tests_only_its_inside_cells(self, tested):
        """Up to two runs per row: the gap between the arms is never tested."""
        grid = enc.RasterGrid.for_image(800, 800, 1)
        ann = arc_annotation(400, 400, 250, 60, 120)
        n_tested, n_inside = self.region_work(tested, ann, grid)
        assert n_tested == n_inside


class TestEncode:
    def grid(self, w=100, h=40, stride=1):
        return enc.RasterGrid.for_image(w, h, stride)

    def test_rectangle_distances(self):
        ann = enc.split_sides(RECT_RING)
        raster = enc.encode([ann], self.grid())
        assert raster.mask[15, 50] == 1
        # Cell (50, 15) has center (50.5, 15.5); its nearest boundary point
        # is straight up on the top edge.
        assert raster.dist_x[15, 50] == pytest.approx(0.0, abs=1e-9)
        assert raster.dist_y[15, 50] == pytest.approx(-15.5, abs=1e-9)

    def test_mask_matches_central_region(self):
        ann = enc.split_sides(RECT_RING)
        central = enc.central_region_polygon(ann)
        raster = enc.encode([ann], self.grid())
        rows, cols = np.nonzero(raster.mask)
        centers = self.grid().cell_centers(rows, cols)
        for x, y in centers[:: max(1, len(centers) // 200)]:
            assert ray_cast_inside(x, y, central.vertices)

    def test_empty_annotation_list(self):
        raster = enc.encode([], self.grid())
        assert raster.mask.sum() == 0
        assert raster.dist_x.sum() == 0
        assert raster.ignore_mask.sum() == 0

    def test_instance_with_no_central_cell(self):
        # the central region of a 1 px box holds no center of a stride-4 cell
        ann = enc.split_sides([(1, 1), (2, 1), (2, 2), (1, 2)])
        raster = enc.encode([ann], enc.RasterGrid(4, 4, stride=4))
        assert raster.mask.sum() == 0 and raster.dist_x.sum() == 0 and raster.dist_y.sum() == 0
        assert raster.stats.instances == 1 and raster.stats.conflict_cells == 0

    def test_ignore_quad(self):
        ann = enc.split_sides(RECT_RING)
        ann.ignore = True
        raster = enc.encode([ann], self.grid())
        assert raster.mask.sum() == 0
        assert raster.ignore_mask[20, 50] == 1
        assert raster.ignore_mask.sum() == pytest.approx(4000, rel=0.01)

    def test_boundary_consistency(self):
        ann = arc_annotation(150, 150, 100, 40, 150)
        grid = enc.RasterGrid.for_image(300, 300, 1)
        raster = enc.encode([ann], grid)
        rows, cols = np.nonzero(raster.mask)
        centers = grid.cell_centers(rows, cols)
        feet = centers + np.stack([raster.dist_x[rows, cols], raster.dist_y[rows, cols]], 1)
        ring = ann.closed_vertices()
        for foot in feet[:: max(1, len(feet) // 300)]:
            assert boundary_distance(foot, ring) < 1e-6

    def test_distance_bounded_by_vertex_distances(self):
        ann = enc.split_sides(RECT_RING)
        raster = enc.encode([ann], self.grid())
        rows, cols = np.nonzero(raster.mask)
        centers = self.grid().cell_centers(rows, cols)
        d = np.hypot(raster.dist_x[rows, cols], raster.dist_y[rows, cols])
        ring = ann.closed_vertices()
        for v in ring:
            dv = np.hypot(centers[:, 0] - v[0], centers[:, 1] - v[1])
            assert (d <= dv + 1e-9).all()

    def test_zeros_outside_mask(self):
        ann = enc.split_sides(RECT_RING)
        raster = enc.encode([ann], self.grid())
        off = raster.mask == 0
        assert np.all(raster.dist_x[off] == 0)
        assert np.all(raster.dist_y[off] == 0)

    def test_separated_pair_disjoint_components(self):
        anns, (w, h) = separated_pair()
        raster = enc.encode(anns, enc.RasterGrid.for_image(w, h, 1))
        from scipy import ndimage

        _, count = ndimage.label(raster.mask)
        assert count == 2
        assert raster.stats.conflict_cells == 0

    def test_overlap_conflict_assigned_to_nearer(self):
        a = rect_annotation(0, 0, 100, 40)
        b = rect_annotation(0, 10, 100, 40)   # central regions overlap in y 20..30
        raster = enc.encode([a, b], enc.RasterGrid.for_image(100, 60, 1))
        assert raster.stats.conflict_cells > 0
        ca = enc.central_region_polygon(a)
        cb = enc.central_region_polygon(b)
        rows, cols = np.nonzero(raster.mask)
        centers = raster.grid.cell_centers(rows, cols)
        feet = centers + np.stack([raster.dist_x[rows, cols], raster.dist_y[rows, cols]], 1)
        ra = a.closed_vertices()
        rb = b.closed_vertices()
        checked = 0
        for c, f in zip(centers, feet):
            if not (ray_cast_inside(c[0], c[1], ca.vertices)
                    and ray_cast_inside(c[0], c[1], cb.vertices)):
                continue
            # Contested cell: the stored offset must reach the nearer boundary.
            best = min(boundary_distance(c, ra), boundary_distance(c, rb))
            assert np.hypot(*(f - c)) <= best + 1e-6
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_overlapping_page_equals_reference(self, stride):
        """Encode equals a reference that keeps each cell's best distance in a
        plane of its own: central regions in annotation order, a strictly
        smaller distance taking a cell another region already holds."""
        rng = np.random.default_rng(stride)
        anns = []
        for i in range(10):
            x, y = rng.uniform(10, 160, 2)
            if i % 3 == 2:
                ann = arc_annotation(x + 60, y + 70, 60.0, rng.uniform(20, 40), 100.0)
            else:
                ann = rect_annotation(x, y, rng.uniform(40, 120), rng.uniform(16, 48),
                                      rng.uniform(-30, 30))
            ann.ignore = i == 4
            anns.append(ann)
        m = stride * (230 // stride + 0.5)   # a row of cell centres where this pair ties
        anns += [rect_annotation(170, m - 25, 120, 40), rect_annotation(170, m - 15, 120, 40)]
        grid = enc.RasterGrid.for_image(300, 280, stride)
        raster = enc.encode(anns, grid)

        mask = np.zeros(grid.shape, np.uint8)
        offsets = np.zeros(grid.shape + (2,))
        best = np.full(grid.shape, np.inf)
        conflicts = 0
        for ann in anns:
            if ann.ignore:
                continue
            flat, _ = enc._region_cells(enc.central_region_polygon(ann), grid)
            rows, cols = np.divmod(flat, grid.width)
            centers = grid.cell_centers(rows, cols)
            feet, dist = point_major_nearest_boundary(centers, ann.closed_vertices())
            conflicts += int(mask[rows, cols].sum())
            claim = dist < best[rows, cols]
            r, c = rows[claim], cols[claim]
            mask[r, c] = 1
            offsets[r, c] = feet[claim] - centers[claim]
            best[r, c] = dist[claim]
        assert conflicts > 0 and raster.stats.conflict_cells == conflicts
        assert raster.mask.tobytes() == mask.tobytes()
        assert raster.dist_x.tobytes() == offsets[..., 0].tobytes()
        assert raster.dist_y.tobytes() == offsets[..., 1].tobytes()

    def test_stride_four(self):
        ann = enc.split_sides(RECT_RING)
        grid = enc.RasterGrid.for_image(100, 40, 4)
        raster = enc.encode([ann], grid)
        assert raster.grid.shape == (10, 25)
        rows, cols = np.nonzero(raster.mask)
        centers = grid.cell_centers(rows, cols)
        feet = centers + np.stack([raster.dist_x[rows, cols], raster.dist_y[rows, cols]], 1)
        for foot in feet:
            assert boundary_distance(foot, RECT_RING) < 1e-6

    def test_many_vertex_ribbon_within_bound(self):
        # A 1,600-vertex half-ring ribbon (radius 900, thickness 200) over a
        # 2100 x 1200 grid: encoding it took 23 s on one core of a 2-core
        # Xeon when every one of its 283 k central cells searched every edge,
        # and takes 0.5 s there with the tile-culled search.
        ts = np.linspace(-np.pi / 2, np.pi / 2, 800)
        arc = np.stack([np.sin(ts), -np.cos(ts)], axis=1)
        # simple by construction: make's quadratic is_simple would take ~5 s
        ann = enc.AnnotationPolygon((1050, 1100) + 1000 * arc, (1050, 1100) + 800 * arc)
        grid = enc.RasterGrid(width=2100, height=1200, stride=1)
        t0 = time.perf_counter()
        raster = enc.encode([ann], grid)
        elapsed = time.perf_counter() - t0
        rows, cols = np.nonzero(raster.mask)
        assert len(ann.closed_vertices()) == 1600 and len(rows) > 250_000
        assert elapsed < 5.0
        pick = np.random.default_rng(3).choice(len(rows), 500, replace=False)
        centers = grid.cell_centers(rows[pick], cols[pick])
        feet, _ = point_major_nearest_boundary(centers, ann.closed_vertices())
        assert raster.dist_x[rows[pick], cols[pick]].tobytes() == (feet[:, 0] - centers[:, 0]).tobytes()
        assert raster.dist_y[rows[pick], cols[pick]].tobytes() == (feet[:, 1] - centers[:, 1]).tobytes()


class TestRasterGrid:
    def test_covers_image(self):
        grid = enc.RasterGrid.for_image(101, 43, 4)
        assert grid.width * grid.stride >= 101
        assert grid.height * grid.stride >= 43

    def test_cell_centers(self):
        grid = enc.RasterGrid(width=4, height=3, stride=2)
        c = grid.cell_centers(np.array([0, 2]), np.array([1, 3]))
        assert c == pytest.approx(np.array([[3, 1], [7, 5]]))

    def test_cell_centers_broadcast(self):
        grid = enc.RasterGrid(width=4, height=3, stride=2)
        rows, cols = np.arange(3)[:, None], np.arange(4)
        c = grid.cell_centers(rows, cols)
        assert c.shape == (3, 4, 2)
        assert c[2, 1].tolist() == [3.0, 5.0]
        want = np.stack(np.broadcast_arrays((cols + 0.5) * 2, (rows + 0.5) * 2), axis=-1)
        assert c.tobytes() == want.tobytes()

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            enc.RasterGrid(width=0, height=3, stride=1)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_for_image_rejects_stride_below_one(self, stride):
        with pytest.raises(ValueError, match="^grid dimensions and stride must be positive$"):
            enc.RasterGrid.for_image(100, 40, stride)

    def test_cell_budget(self):
        budget = enc.MAX_GRID_CELLS
        assert budget >= 4096 * 4096
        enc.RasterGrid(width=budget, height=1)   # a grid allocates nothing itself
        enc.RasterGrid(width=1, height=budget)
        msg = f"grid {budget + 1}x1 exceeds the budget of {budget} cells"
        with pytest.raises(ValueError, match=msg):
            enc.RasterGrid(width=budget + 1, height=1)
        with pytest.raises(ValueError, match="grid 3000000x3000000 exceeds"):
            enc.RasterGrid.for_image(3_000_000, 3_000_000)


def test_encode_and_clean_decode_digests_pinned():
    # pinned with the point-major nearest-boundary search and the meshgrid
    # region raster; a faster encode or decode must keep every byte. Noise
    # spreads the regressed points, so only the noisy decodes reach the alpha
    # lattice thinning of large instances; those were pinned before the
    # one-key lattice dedupe
    assert suite_digests(10, (0.0, 0.5, 1.0, 2.0)) == {
        "encode": "a9d52287d3b601e3bce2573dc063e7c986bbdc57137b2710a1b0e26e0c14e4ab",
        0.0: "f5de6bb5e89c58b6b5fabe18f9664f5a5a9e7f5423abaeab687c7b21b46cf0e2",
        0.5: "4b318724032dfcca5a0afd596621eef6d5fe51b58d7c1c515f48c88f48a43cd4",
        1.0: "4260b2be9cf678645d2deb5f5491f19a636eb12dec190638ec4cdf309cdcefc3",
        2.0: "aa56c287e5812fa70bc0691a7434c6fb6e33a8b06358e7f61dd47a9e9eef845a",
    }
