import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from textshape import geom
from conftest import (
    edge_key_largest_component,
    rasterize_oracle,
    shoelace,
    strip_collinear,
    twin_search_boundary,
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
        poly = geom.alpha_shape_with_fallback(ring, 0.06)
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
        poly = geom.alpha_shape_with_fallback([(0, 0), (1, 0), (0.5, 1)], 1e-9)
        assert vertex_sets_match(poly.vertices, [(0, 0), (1, 0), (0.5, 1)])

    def test_degenerate_still_raises(self):
        with pytest.raises(geom.DegenerateInputError):
            geom.alpha_shape_with_fallback([(0, 0), (1, 1), (2, 2)], 0.1)
