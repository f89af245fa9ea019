import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from textshape import geom
from conftest import (
    coo_largest_component,
    edge_key_largest_component,
    rasterize_oracle,
    shoelace,
    split_pinches,
    strip_collinear,
    twin_search_boundary,
    walk_boundary_loops,
    vertex_sets_match,
)
from test_geom import circumcircle_oracle


def l_shape_points(spacing=0.02):
    """Grid samples of the L-shaped region [0,1]^2 minus its top-right quarter."""
    axis = np.arange(0.0, 1.0 + spacing / 2, spacing)
    gx, gy = np.meshgrid(axis, axis)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    keep = ~((pts[:, 0] > 0.5 + 1e-12) & (pts[:, 1] > 0.5 + 1e-12))
    return pts[keep]


def l_shape_mask(n):
    axis = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(axis, axis)
    return ~((gx > 0.5) & (gy > 0.5))


L_AREA = 0.75


class TestAlphaShape:
    def test_square_with_infinite_alpha_is_convex_hull(self):
        poly = geom.alpha_shape([(0, 0), (1, 0), (1, 1), (0, 1)], math.inf)
        assert vertex_sets_match(poly.vertices, [(0, 0), (1, 0), (1, 1), (0, 1)])

    def test_infinite_alpha_equals_hull_on_random_sets(self, rng):
        for _ in range(20):
            pts = rng.random((40, 2))
            poly = geom.alpha_shape(pts, math.inf)
            hull = pts[ConvexHull(pts).vertices]
            assert vertex_sets_match(
                strip_collinear(poly.vertices), strip_collinear(hull), tol=1e-9
            )

    def test_l_shape_concave_recovery(self):
        pts = l_shape_points()
        poly = geom.alpha_shape(pts, 0.06)
        n = 512
        got = rasterize_oracle(poly.vertices, 0, 0, 1, 1, n)
        want = l_shape_mask(n)
        sym_diff = np.logical_xor(got, want).sum() / n**2
        assert sym_diff < 0.05 * L_AREA

    def test_l_shape_infinite_alpha_overestimates_by_notch(self):
        pts = l_shape_points()
        poly = geom.alpha_shape(pts, math.inf)
        # The hull closes the notch with the chord between the inner
        # corners: a right triangle with 0.5-long legs comes back.
        notch_area = 0.5 * 0.5 * 0.5
        assert abs(shoelace(poly.vertices)) == pytest.approx(L_AREA + notch_area, abs=1e-6)

    def test_retained_sets_monotone_in_alpha(self, rng):
        _, simplices, _, radii, _ = geom._delaunay_raw(rng.random((80, 2)))
        tris = [tuple(s) for s in simplices]
        for a1, a2 in [(0.05, 0.1), (0.1, 0.3), (0.3, math.inf)]:
            kept1 = {t for t, r in zip(tris, radii) if r <= a1}
            kept2 = {t for t, r in zip(tris, radii) if r <= a2}
            assert kept1 <= kept2

    def test_radii_match_circumcircle_oracle(self, rng):
        pts, simplices, _, radii, _ = geom._delaunay_raw(rng.random((60, 2)))
        want = [circumcircle_oracle(a, b, c)[1] for a, b, c in pts[simplices]]
        np.testing.assert_allclose(radii, want, rtol=0, atol=1e-9)

    def test_all_triangles_discarded_raises_empty(self):
        with pytest.raises(geom.EmptyAlphaShapeError):
            geom.alpha_shape([(0, 0), (1, 0), (0.5, 0.9), (0.5, 0.3)], 1e-6)

    def test_degenerate_input_raises(self):
        with pytest.raises(geom.DegenerateInputError):
            geom.alpha_shape([(0, 0), (1, 1), (2, 2)], 0.5)

    def test_zero_area_loop_raises_alpha_shape_error(self):
        # Qhull keeps the sliver; Polygon.make's zero-area check rejects its loop
        with pytest.raises(geom.AlphaShapeError, match="zero area"):
            geom.alpha_shape([[0, 0], [1, 0], [0.5, 1e-9]], math.inf)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
    def test_alpha_must_be_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            geom.alpha_shape([(0, 0), (1, 0), (0.5, 1)], alpha)

    def test_largest_component_kept(self):
        # Two clusters of triangles; the big one must win.
        big = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)], dtype=float)
        small = big * 0.05 + np.array([3.0, 3.0])
        poly = geom.alpha_shape(np.vstack([big, small]), 0.8)
        assert abs(shoelace(poly.vertices)) == pytest.approx(1.0, abs=1e-9)

    def test_output_is_simple_ccw(self, rng):
        for _ in range(10):
            pts = rng.random((60, 2))
            poly = geom.alpha_shape(pts, 0.25)
            assert geom.shoelace_area(poly.vertices) > 0
            assert geom.is_simple(poly.vertices)

    def test_boundary_walk_with_vertex_ids_above_65536(self):
        # Qhull returns int32 indices. With ids this large an int32 edge key
        # tail * base + head wraps, and the sort would put the edges of the
        # walk out of order.
        a, b, c, d = 65538, 20, 11, 5
        tails = np.array([a, b, c, d], dtype=np.int32)
        heads = np.array([b, c, d, a], dtype=np.int32)
        assert geom._boundary_loops(tails, heads) == [[d, a, b, c]]


class TestAdjacency:
    def test_restrict_drops_a_middle_triangle_from_both_neighbors(self):
        # a strip of four triangles, 0-1-2-3, each linked across one edge
        neighbors = np.array([[1, -1, -1], [-1, 0, 2], [1, -1, 3], [-1, 2, -1]], dtype=np.int32)
        got = geom._restrict(neighbors, np.array([True, False, True, True]))
        assert got.tolist() == [[-1, -1, -1], [-1, -1, 2], [-1, 1, -1]]

    @pytest.mark.parametrize("kind", ["random", "lattice"])
    @pytest.mark.parametrize("joggle", [False, True])
    def test_matches_edge_key_oracle(self, kind, joggle):
        rng = np.random.default_rng(21)
        for _ in range(6):
            pts = rng.random((300, 2))
            if kind == "lattice":   # duplicates, collinear runs and cocircular quads
                pts = np.round(pts * 24) / 24
            pts, simplices, neighbors, radii, areas = geom._delaunay_raw(pts, joggle)
            # neighbors[t, j] shares the edge opposite vertex j of t, not vertex j
            t, j = np.nonzero(neighbors >= 0)
            across = simplices[neighbors[t, j]]
            for k in (1, 2):
                assert (across == simplices[t, (j + k) % 3][:, None]).any(axis=1).all()
            assert not (across == simplices[t, j][:, None]).any(axis=1).any()
            for alpha in (0.02, 0.04, 0.08, 0.16, math.inf):
                keep = radii <= alpha
                if not keep.any():
                    continue
                kept, adjacent = simplices[keep], geom._restrict(neighbors, keep)
                comp = geom._largest_component(adjacent, areas[keep])
                assert np.array_equal(comp, edge_key_largest_component(kept, areas[keep]))
                tails, heads = geom._boundary_edges(kept[comp], adjacent[comp])
                got = sorted(zip(tails.tolist(), heads.tolist()))
                assert got == twin_search_boundary(kept[comp])

    def test_restrict_keeping_every_triangle_returns_the_table(self):
        neighbors = np.array([[1, -1, -1], [-1, 0, 2], [1, -1, -1]], dtype=np.int32)
        assert geom._restrict(neighbors, np.ones(3, dtype=bool)) is neighbors

    @pytest.mark.parametrize("kind", ["random", "lattice", "clustered"])
    def test_largest_component_equals_coo_undirected_labelling(self, kind):
        # equal areas make ties, which the component numbering breaks
        rng = np.random.default_rng(23)
        for _ in range(4):
            pts, simplices, neighbors, radii, areas = geom._delaunay_raw(point_set(kind, rng), True)
            for alpha in (0.01, 0.02, 0.04, 0.08, math.inf):
                keep = radii <= alpha
                if not keep.any():
                    continue
                adjacent = geom._restrict(neighbors, keep)
                for weights in (areas[keep], np.ones(int(keep.sum()))):
                    got = geom._largest_component(adjacent, weights)
                    assert np.array_equal(got, coo_largest_component(adjacent, weights))

    def test_delaunay_radii_are_those_of_the_oriented_triangles(self):
        rng = np.random.default_rng(24)
        for joggle in (False, True):
            pts, simplices, _, radii, _ = geom._delaunay_raw(point_set("lattice", rng), joggle)
            assert radii.tobytes() == geom._circumradii(pts[simplices]).tobytes()


def walk_then_split(tails, heads) -> list[list[int]]:
    return [loop for raw in walk_boundary_loops(tails, heads) for loop in split_pinches(raw)]


def point_set(kind: str, rng) -> np.ndarray:
    if kind == "random":
        return rng.random((300, 2))
    if kind == "lattice":   # duplicates, collinear runs and cocircular quads
        return np.round(rng.random((300, 2)) * 24) / 24
    centers = rng.random((5, 2))   # clustered: dense blobs joined by long, thin triangles
    return (centers[rng.integers(0, 5, 300)] + rng.normal(0, 0.03, (300, 2))).clip(0, 1)


class TestPinchCutWalk:
    def test_bow_tie_cut_in_walk_then_split_order(self):
        # Two lobes meeting at vertex 2: 0-3-2-5 and 2-1-6. At 2 the walk
        # leaves by its smallest edge, 2->1, so it tours the small lobe
        # before it comes back to 2 and closes the large one.
        tails = np.array([0, 3, 2, 5, 2, 1, 6])
        heads = np.array([3, 2, 5, 0, 1, 6, 2])
        assert walk_boundary_loops(tails, heads) == [[0, 3, 2, 1, 6, 2, 5]]
        assert geom._boundary_loops(tails, heads) == [[2, 1, 6], [0, 3, 2, 5]]
        assert walk_then_split(tails, heads) == [[2, 1, 6], [0, 3, 2, 5]]

    def test_unclosed_walk_raises_like_the_oracle(self):
        tails, heads = np.array([0, 1, 2]), np.array([1, 2, 1])
        for walk in (geom._boundary_loops, walk_then_split):
            with pytest.raises(geom.AlphaShapeError):
                walk(tails, heads)

    @pytest.mark.parametrize("kind", ["random", "lattice", "clustered"])
    @pytest.mark.parametrize("joggle", [False, True])
    def test_matches_walk_then_split(self, kind, joggle):
        rng = np.random.default_rng(33)
        pinched = 0
        for _ in range(8):
            pts, simplices, neighbors, radii, areas = geom._delaunay_raw(point_set(kind, rng), joggle)
            for q in (0.25, 0.5, 0.75, 0.9):
                keep = radii <= np.quantile(radii[np.isfinite(radii)], q)
                kept, adjacent = simplices[keep], geom._restrict(neighbors, keep)
                comp = geom._largest_component(adjacent, areas[keep])
                # every component at once, then the ladder's largest one
                for tris, adj in ((kept, adjacent), (kept[comp], adjacent[comp])):
                    tails, heads = geom._boundary_edges(tris, adj)
                    got = geom._boundary_loops(tails, heads)
                    assert got == walk_then_split(tails, heads)
                    assert all(len(set(loop)) == len(loop) >= 3 for loop in got)
                    pinched += sum(
                        len(set(raw)) < len(raw) for raw in walk_boundary_loops(tails, heads)
                    )
        assert pinched > 0   # the sets exercise the cut


class TestAlphaShapeFallback:
    def test_ring_with_thickness_above_alpha_recovers(self):
        # Boundary ring of a 60x60 square: every interior triangle has a
        # circumradius near 0.5 in normalized units, far above the default
        # alpha, so the plain filter keeps only corner slivers.
        t = np.linspace(0, 1, 61)[:-1]
        ring = np.concatenate([
            np.stack([t, np.zeros_like(t)], 1),
            np.stack([np.ones_like(t), t], 1),
            np.stack([1 - t, np.ones_like(t)], 1),
            np.stack([np.zeros_like(t), 1 - t], 1),
        ])
        poly = geom.alpha_shape_with_fallback(ring, 0.06, must_contain=[(0.5, 0.5)])
        assert abs(shoelace(poly.vertices)) == pytest.approx(1.0, rel=0.05)

    def test_containment_forces_escalation(self, rng):
        ring = []
        t = np.linspace(0, 2 * math.pi, 400, endpoint=False)
        ring = np.stack([0.5 + 0.45 * np.cos(t), 0.5 + 0.45 * np.sin(t)], axis=1)
        ring = ring + rng.normal(0, 0.004, ring.shape)
        inner = np.stack([0.5 + 0.2 * np.cos(t), 0.5 + 0.2 * np.sin(t)], axis=1)
        poly = geom.alpha_shape_with_fallback(ring, 0.01, must_contain=inner)
        from textshape.geom import point_in_polygon

        assert point_in_polygon(inner, poly.vertices).mean() >= 0.9

    def test_hull_fallback_for_three_points(self):
        poly = geom.alpha_shape_with_fallback([(0, 0), (1, 0), (0.5, 1)], 1e-9, [(0.5, 0.3)])
        assert vertex_sets_match(poly.vertices, [(0, 0), (1, 0), (0.5, 1)])

    def test_degenerate_still_raises(self):
        with pytest.raises(geom.DegenerateInputError):
            geom.alpha_shape_with_fallback([(0, 0), (1, 1), (2, 2)], 0.1, [(1, 1)])

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
    def test_alpha_must_be_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            geom.alpha_shape_with_fallback([(0, 0), (1, 0), (0.5, 1)], alpha, [(0.5, 0.3)])

    def test_empty_must_contain_raises(self):
        for empty in (np.empty((0, 2)), []):
            with pytest.raises(ValueError, match="must_contain|point array"):
                geom.alpha_shape_with_fallback([(0, 0), (1, 0), (0.5, 1)], 0.1, empty)

    def test_rung_below_min_coverage_is_never_walked(self, monkeypatch):
        # A 20x20 lattice and a 4x4 one off its corner: below the alpha that
        # bridges the gap the largest component covers 400 / 416 < 0.98.
        def lattice(n):
            return np.stack(np.meshgrid(np.arange(n), np.arange(n)), -1).reshape(-1, 2) * 0.025

        pts = np.concatenate([lattice(20), lattice(4) + 0.6])
        probes = [(0.25, 0.25)]
        _, simplices, _, radii, areas = geom._delaunay_raw(pts, joggle=True)

        calls = {"component": 0, "walk": 0}

        def counting(name, fn):
            def spy(*args):
                calls[name] += 1
                return fn(*args)
            return spy

        monkeypatch.setattr(geom, "_largest_component", counting("component", geom._largest_component))
        monkeypatch.setattr(geom, "_boundary_loops", counting("walk", geom._boundary_loops))
        poly = geom.alpha_shape_with_fallback(pts, 0.02, probes)

        # the rungs tried, and the share each one's component covers (oracle adjacency)
        rungs = [0.02 * 2.0**k for k in range(geom.LADDER_DOUBLINGS + 1)]
        coverage = []
        for a in rungs[: calls["component"]]:
            keep = radii <= a
            comp = edge_key_largest_component(simplices[keep], areas[keep])
            coverage.append(len(np.unique(simplices[keep][comp])) / len(pts))
        assert calls["component"] >= 2 and coverage[0] < geom.MIN_COVERAGE
        assert calls["walk"] == sum(c >= geom.MIN_COVERAGE for c in coverage) >= 1
        assert geom.point_in_polygon(np.array(probes), poly.vertices).all()

        # no rung can pass: nothing is walked, and the hull comes back
        calls.update(component=0, walk=0)
        monkeypatch.setattr(geom, "MIN_COVERAGE", 1.5)
        poly = geom.alpha_shape_with_fallback(pts, 0.02, probes)
        assert calls == {"component": geom.LADDER_DOUBLINGS + 1, "walk": 0}
        assert vertex_sets_match(poly.vertices, geom.convex_hull(pts))
