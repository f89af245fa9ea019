import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textshape as ts
from textshape import losses
from textshape.labels import RasterGrid
from textshape.synth import rect_annotation


def finite_diff(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of an array."""
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


class TestDiceLoss:
    def test_perfect_prediction(self, rng):
        g = (rng.random((8, 8)) < 0.4).astype(float)
        loss, grad = losses.dice_loss(g, g, eps=1e-9)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_half_overlap_value(self):
        # 100 ground-truth cells, 100 predicted, 50 shared: dice 0.5.
        g = np.zeros((20, 20))
        p = np.zeros((20, 20))
        g.ravel()[:100] = 1.0
        p.ravel()[50:150] = 1.0
        loss, _ = losses.dice_loss(p, g, eps=1e-12)
        assert loss == pytest.approx(0.5, abs=1e-6)

    def test_all_zero_prediction(self):
        g = np.zeros((10, 10))
        g.ravel()[:30] = 1.0
        loss, _ = losses.dice_loss(np.zeros((10, 10)), g, eps=1.0)
        assert loss == pytest.approx(1.0 - 1.0 / 31.0, abs=1e-12)

    def test_range(self, rng):
        for _ in range(20):
            p = rng.random((6, 6))
            g = (rng.random((6, 6)) < 0.5).astype(float)
            loss, _ = losses.dice_loss(p, g)
            assert 0.0 <= loss < 1.0

    def test_gradient_matches_finite_differences(self, rng):
        p = rng.random((5, 5))
        g = (rng.random((5, 5)) < 0.5).astype(float)
        _, grad = losses.dice_loss(p, g, eps=1.0)
        want = finite_diff(lambda x: losses.dice_loss(x, g, eps=1.0)[0], p)
        assert np.abs(grad - want).max() <= 1e-4 * max(1.0, np.abs(want).max())

    def test_ignored_cells_zero_gradient(self, rng):
        p = rng.random((6, 6))
        g = (rng.random((6, 6)) < 0.5).astype(float)
        ig = np.zeros((6, 6), dtype=np.uint8)
        ig[2:4, 2:4] = 1
        loss, grad = losses.dice_loss(p, g, ignore_mask=ig, eps=1.0)
        assert np.all(grad[ig == 1] == 0.0)
        # Ignored cells do not influence the value either.
        p2 = p.copy()
        p2[ig == 1] = 0.123
        loss2, _ = losses.dice_loss(p2, g, ignore_mask=ig, eps=1.0)
        assert loss2 == pytest.approx(loss, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            losses.dice_loss(np.zeros((2, 2)), np.zeros((3, 3)))


class TestSmoothL1:
    def test_quadratic_branch_single_cell(self):
        m = np.ones((1, 1))
        loss, gx, gy = losses.reg_loss(
            np.array([[0.5]]), np.array([[0.0]]),
            np.array([[0.0]]), np.array([[0.0]]), m,
        )
        assert loss == pytest.approx(0.0625, abs=1e-12)

    def test_linear_branch_single_cell(self):
        m = np.ones((1, 1))
        loss, gx, gy = losses.reg_loss(
            np.array([[2.0]]), np.array([[0.0]]),
            np.array([[0.0]]), np.array([[0.0]]), m,
        )
        assert loss == pytest.approx(0.75, abs=1e-12)

    def test_perfect_prediction(self, rng):
        gx = rng.normal(0, 5, (6, 6))
        gy = rng.normal(0, 5, (6, 6))
        m = np.ones((6, 6))
        loss, *_ = losses.reg_loss(gx, gy, gx, gy, m)
        assert loss == 0.0

    def test_empty_region(self):
        z = np.zeros((4, 4))
        loss, gx, gy = losses.reg_loss(z, z, z, z, np.zeros((4, 4)))
        assert loss == 0.0
        assert not gx.any() and not gy.any()

    def test_continuity_at_kink(self):
        eps = 1e-7
        below = losses.smooth_l1(np.array(1.0 - eps))
        above = losses.smooth_l1(np.array(1.0 + eps))
        assert abs(above - below) <= 1e-6
        gb = losses.smooth_l1_grad(np.array(1.0 - eps))
        ga = losses.smooth_l1_grad(np.array(1.0 + eps))
        assert abs(ga - gb) <= 1e-6

    def test_gradient_matches_finite_differences(self, rng):
        # Sample errors away from the kink neighborhood ||e| - 1| < 1e-3.
        px = rng.normal(0, 2, (4, 4))
        py = rng.normal(0, 2, (4, 4))
        gx = np.zeros((4, 4))
        gy = np.zeros((4, 4))
        m = (rng.random((4, 4)) < 0.7).astype(float)
        if not m.any():
            m[0, 0] = 1.0
        near = (np.abs(np.abs(px) - 1.0) < 1e-3) | (np.abs(np.abs(py) - 1.0) < 1e-3)
        px[near] += 0.01
        py[near] += 0.01
        loss, grad_x, grad_y = losses.reg_loss(px, py, gx, gy, m)
        want_x = finite_diff(lambda x: losses.reg_loss(x, py, gx, gy, m)[0], px)
        want_y = finite_diff(lambda y: losses.reg_loss(px, y, gx, gy, m)[0], py)
        scale = max(1.0, np.abs(want_x).max(), np.abs(want_y).max())
        assert np.abs(grad_x - want_x).max() <= 1e-4 * scale
        assert np.abs(grad_y - want_y).max() <= 1e-4 * scale

    def test_outside_region_zero_gradient(self, rng):
        px = rng.normal(0, 2, (5, 5))
        m = np.zeros((5, 5))
        m[2, 2] = 1
        _, grad_x, grad_y = losses.reg_loss(px, px, px * 0, px * 0, m)
        assert np.all(grad_x[m == 0] == 0)
        assert np.all(grad_y[m == 0] == 0)

    def test_nonnegative(self, rng):
        for _ in range(10):
            px, py = rng.normal(0, 3, (2, 4, 4))
            gx, gy = rng.normal(0, 3, (2, 4, 4))
            loss, *_ = losses.reg_loss(px, py, gx, gy, np.ones((4, 4)))
            assert loss >= 0


class TestTotalLoss:
    def test_documented_combination(self):
        assert losses.total_loss(0.3, 0.2, 1.0) == pytest.approx(0.5)

    def test_zero_regression(self):
        assert losses.total_loss(0.7, 0.0, 1.0) == 0.7

    def test_lambda_scaling(self):
        assert losses.total_loss(0.0, 0.25, 2.0) == 0.5

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0.1, max_value=5),
    )
    def test_linear_in_reg(self, cls, reg, lam):
        base = losses.total_loss(cls, reg, lam)
        bumped = losses.total_loss(cls, reg + 1.0, lam)
        assert bumped - base == pytest.approx(lam, rel=1e-9)


class TestMultitask:
    def test_total_is_cls_plus_lambda_reg(self, rng):
        ann = rect_annotation(5, 5, 60, 24)
        label = ts.encode([ann], RasterGrid.for_image(80, 40, 1))
        prob = np.clip(label.mask + rng.normal(0, 0.1, label.mask.shape), 0, 1)
        px = label.dist_x + rng.normal(0, 0.5, label.dist_x.shape)
        py = label.dist_y + rng.normal(0, 0.5, label.dist_y.shape)
        for lam in (1.0, 2.5):
            rep = losses.multitask_loss(prob, px, py, label, losses.LossConfig(lam=lam))
            assert rep.total == pytest.approx(rep.cls + lam * rep.reg, abs=1e-12)
            assert rep.grad_prob.shape == label.mask.shape

    def test_config_validation(self):
        for lam in (0.0, float("nan")):
            with pytest.raises(ValueError):
                losses.LossConfig(lam=lam)
