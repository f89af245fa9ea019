"""Acceptance suite: one test per release criterion, strictest tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import textshape as ts
from textshape import detect, evaluate, formats, geom, losses, netplan
from textshape.labels import RasterGrid
from textshape.synth import roundtrip_suite
from conftest import strip_collinear, vertex_sets_match
from test_geom import assert_empty_circumcircle
from test_losses import finite_diff

_CACHE: dict = {}


def suite_rasters():
    if "rasters" not in _CACHE:
        rasters = []
        for inst in roundtrip_suite():
            grid = RasterGrid.for_image(*inst.image_size, stride=1)
            rasters.append((inst, ts.encode([inst.annotation], grid)))
        _CACHE["rasters"] = rasters
    return _CACHE["rasters"]


def roundtrip_ious(sigma=0.0, seed_base=1000):
    ious = []
    counts = []
    for i, inst in enumerate(roundtrip_suite()):
        grid = RasterGrid.for_image(*inst.image_size, stride=1)
        (iou,), n_dets = evaluate.roundtrip(
            [inst.annotation], grid, detect.DecodeConfig(), sigma, seed_base + i
        )
        ious.append(iou)
        counts.append(n_dets)
    return np.array(ious), counts


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status} {detail}")
    assert ok, f"{name}: {detail}"


def test_roundtrip_fidelity():
    start = time.perf_counter()
    ious, counts = roundtrip_ious(sigma=0.0)
    elapsed = time.perf_counter() - start
    _CACHE["clean_mean"] = float(ious.mean())
    ok = (
        len(ious) == 200
        and bool((ious >= 0.75).all())
        and ious.mean() >= 0.85
        and all(c >= 1 for c in counts)
        and elapsed < 60.0
    )
    report(
        "roundtrip-fidelity",
        ok,
        f"(n=200 mean={ious.mean():.4f} min={ious.min():.4f} runtime={elapsed:.1f}s)",
    )


def test_boundary_consistency():
    worst = 0.0
    checked = 0
    for inst, raster in suite_rasters():
        rows, cols = np.nonzero(raster.mask)
        centers = raster.grid.cell_centers(rows, cols)
        feet = centers + np.stack(
            [raster.dist_x[rows, cols], raster.dist_y[rows, cols]], axis=1
        )
        ring = inst.annotation.closed_vertices()
        a = ring
        b = np.roll(ring, -1, axis=0)
        ab = b - a
        len2 = np.einsum("ij,ij->i", ab, ab)
        diff = feet[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("mej,ej->me", diff, ab) / len2, 0.0, 1.0)
        proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
        d = np.hypot(feet[:, None, 0] - proj[:, :, 0], feet[:, None, 1] - proj[:, :, 1])
        worst = max(worst, float(d.min(axis=1).max()))
        checked += len(feet)
    report(
        "boundary-consistency",
        worst < 1e-6,
        f"({checked} cells, max boundary distance {worst:.2e} px)",
    )


def test_alpha_shape_degeneration():
    rng = np.random.default_rng(7)
    hull_ok = True
    for _ in range(100):
        pts = rng.random((rng.integers(10, 60), 2))
        poly = geom.alpha_shape(pts, math.inf)
        hull = pts[ConvexHull(pts).vertices]
        if not vertex_sets_match(
            strip_collinear(poly.vertices), strip_collinear(hull), tol=1e-9
        ):
            hull_ok = False
            break
    delaunay_ok = True
    for n in (10, 50, 150, 300):
        pts = rng.random((n, 2))
        try:
            dpts, simplices, _, _, _ = geom._delaunay_raw(pts)
            assert_empty_circumcircle(dpts, simplices)
        except AssertionError:
            delaunay_ok = False
            break
    report(
        "alpha-shape-degeneration",
        hull_ok and delaunay_ok,
        "(100 hull checks, circumcircle oracle up to 300 points)",
    )


def test_gradient_correctness():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        p = rng.random((4, 4))
        g = (rng.random((4, 4)) < 0.5).astype(float)
        ig = (rng.random((4, 4)) < 0.15).astype(np.uint8)
        _, grad = losses.dice_loss(p, g, ignore_mask=ig, eps=1.0)
        want = finite_diff(lambda x: losses.dice_loss(x, g, ignore_mask=ig, eps=1.0)[0], p)
        scale = max(1.0, np.abs(want).max())
        worst = max(worst, float(np.abs(grad - want).max() / scale))
    for _ in range(50):
        px = rng.normal(0, 2, (4, 4))
        py = rng.normal(0, 2, (4, 4))
        gx = rng.normal(0, 1, (4, 4))
        gy = rng.normal(0, 1, (4, 4))
        m = (rng.random((4, 4)) < 0.7).astype(float)
        m[0, 0] = 1.0
        # Push errors out of the smooth-L1 kink neighborhood.
        for pred, gt in ((px, gx), (py, gy)):
            near = np.abs(np.abs(pred - gt) - 1.0) < 1e-3
            pred[near] += 0.01
        _, grad_x, grad_y = losses.reg_loss(px, py, gx, gy, m)
        want_x = finite_diff(lambda x: losses.reg_loss(x, py, gx, gy, m)[0], px)
        want_y = finite_diff(lambda y: losses.reg_loss(px, y, gx, gy, m)[0], py)
        scale = max(1.0, np.abs(want_x).max(), np.abs(want_y).max())
        worst = max(
            worst,
            float(np.abs(grad_x - want_x).max() / scale),
            float(np.abs(grad_y - want_y).max() / scale),
        )
    eps = 1e-7
    val_gap = abs(
        float(losses.smooth_l1(np.array(1.0 + eps)) - losses.smooth_l1(np.array(1.0 - eps)))
    )
    grad_gap = abs(
        float(
            losses.smooth_l1_grad(np.array(1.0 + eps))
            - losses.smooth_l1_grad(np.array(1.0 - eps))
        )
    )
    ok = worst <= 1e-4 and val_gap <= 1e-6 and grad_gap <= 1e-6
    report(
        "gradient-correctness",
        ok,
        f"(max rel err {worst:.2e}, kink gaps {val_gap:.1e}/{grad_gap:.1e})",
    )


def test_loss_spot_values():
    g = np.zeros((20, 20))
    p = np.zeros((20, 20))
    g.ravel()[:100] = 1.0
    p.ravel()[50:150] = 1.0
    dice, _ = losses.dice_loss(p, g, eps=1e-12)
    one = np.ones((1, 1))
    quad, *_ = losses.reg_loss(
        np.array([[0.5]]), np.array([[0.0]]), np.zeros((1, 1)), np.zeros((1, 1)), one
    )
    lin, *_ = losses.reg_loss(
        np.array([[2.0]]), np.array([[0.0]]), np.zeros((1, 1)), np.zeros((1, 1)), one
    )
    total = losses.total_loss(0.3, 0.2, lam=1.0)
    ok = (
        abs(dice - 0.5) < 1e-6
        and abs(quad - 0.0625) < 1e-12
        and abs(lin - 0.75) < 1e-12
        and abs(total - 0.5) < 1e-12
        and losses.LossConfig().lam == 1.0
    )
    report(
        "loss-spot-values",
        ok,
        f"(dice={dice:.6f} quad={quad} lin={lin} total={total})",
    )


def test_evaluation_arithmetic():
    from textshape.synth import rect_annotation
    from textshape.evaluate import match
    from textshape.geom import Polygon

    gt_a = rect_annotation(0, 0, 100, 40)
    gt_b = rect_annotation(0, 100, 120, 40)

    def det(ann, score=0.9, shift=0.0):
        ring = ann.closed_vertices() + np.array([shift, 0.0])
        return detect.Detection(polygon=Polygon.make(ring), score=score)

    partial = match([det(gt_a)], [gt_a, gt_b])
    f_ok = abs(partial.fscore - 2 / 3) <= 1e-9

    ignored = rect_annotation(0, 0, 100, 40)
    ignored.ignore = True
    ig_rep = match([det(ignored)], [ignored])
    ig_ok = ig_rep.counts == (0, 0, 0, 1)

    dets = [det(gt_a, shift=10.0), det(gt_b, shift=30.0)]
    tps = [match(dets, [gt_a, gt_b], iou_threshold=t).tp for t in (0.3, 0.5, 0.7)]
    mono_ok = tps == sorted(tps, reverse=True)

    report(
        "evaluation-arithmetic",
        f_ok and ig_ok and mono_ok,
        f"(F={partial.fscore:.9f}, ignore counts {ig_rep.counts}, tp by threshold {tps})",
    )


def test_netplan_alignment():
    plan = netplan.shape_plan(512, 512, 2)
    first = plan.fusion_steps[0]
    names = {name for name, _ in first.inputs}
    shapes = {shape for _, shape in first.inputs}
    aligned = True
    try:
        netplan.assert_aligned(plan)
    except netplan.ShapePlanError:
        aligned = False
    rejected = False
    try:
        netplan.shape_plan(520, 512, 2)
    except netplan.ShapePlanError:
        rejected = True
    ok = (
        names == {"ch1.conv5", "ch2.conv4", "ch2.conv5^2"}
        and shapes == {(16, 16)}
        and aligned
        and plan.output_shape == (128, 128)
        and rejected
    )
    report("netplan-alignment", ok, f"(first fusion {sorted(names)} at 16x16)")


def test_format_fidelity(tmp_path):
    rng = np.random.default_rng(23)
    byte_ok = True
    for i in range(20):
        w, h = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        grid = RasterGrid(width=w, height=h, stride=int(rng.integers(1, 8)))
        if rng.random() < 0.5:
            raster = ts.LabelRaster(
                grid=grid,
                mask=(rng.random((h, w)) < 0.5).astype(np.float32),
                dist_x=rng.normal(0, 9, (h, w)).astype(np.float32),
                dist_y=rng.normal(0, 9, (h, w)).astype(np.float32),
                ignore_mask=(rng.random((h, w)) < 0.1).astype(np.float32),
            )
        else:
            raster = detect.PredictionRaster(
                grid=grid,
                prob=rng.random((h, w)).astype(np.float32),
                dist_x=rng.normal(0, 9, (h, w)).astype(np.float32),
                dist_y=rng.normal(0, 9, (h, w)).astype(np.float32),
            )
        p1 = tmp_path / f"r{i}a.msrr"
        p2 = tmp_path / f"r{i}b.msrr"
        formats.write_raster(p1, raster)
        formats.write_raster(p2, formats.read_raster(p1))
        if p1.read_bytes() != p2.read_bytes():
            byte_ok = False
            break

    cases = fuzz_corpus(1_000_000)
    crashes = 0
    for line in cases:
        for fmt in formats.ANNOTATION_FORMATS:
            try:
                formats.parse_annotation_line(line, fmt)
            except formats.ParseError:
                pass
            except Exception:
                crashes += 1

    located = False
    bad = tmp_path / "bad.txt"
    bad.write_text("0,0,10,0,10,5,0,5,ok\n;;;\n")
    try:
        formats.read_annotation_file(bad, "icdar2015")
    except formats.ParseError as exc:
        located = "bad.txt:2" in str(exc)

    ok = byte_ok and crashes == 0 and located
    report(
        "format-fidelity",
        ok,
        f"(20 rasters byte-identical, {len(cases)} fuzz cases x 4 parsers, {crashes} crashes)",
    )


def fuzz_corpus(n):
    """Deterministic mixed fuzz corpus: raw bytes, token soup, mutated lines."""
    rng = np.random.default_rng(99)
    valid = [
        "0,0,50,0,100,0,100,40,50,40,0,40",
        "0,0,10,0,10,5,0,5,###",
        "7 0 10 20 100 40 0.3",
        "6,0,0,50,2,100,0,100,40,50,38,0,40",
    ]
    cases = []
    third = n // 3
    # Raw bytes decoded as latin-1.
    sizes = rng.integers(0, 48, third)
    blob = rng.integers(0, 256, int(sizes.sum()), dtype=np.uint8).tobytes()
    off = 0
    for s in sizes:
        cases.append(blob[off : off + s].decode("latin-1"))
        off += s
    # Digit/comma/space soup.
    alphabet = np.frombuffer(b"0123456789,,.- eE#\t", dtype=np.uint8)
    sizes = rng.integers(1, 40, third)
    soup = alphabet[rng.integers(0, len(alphabet), int(sizes.sum()))].tobytes()
    off = 0
    for s in sizes:
        cases.append(soup[off : off + s].decode("ascii"))
        off += s
    # Single-character mutations of valid lines.
    while len(cases) < n:
        base = valid[int(rng.integers(0, len(valid)))]
        pos = int(rng.integers(0, len(base)))
        ch = chr(int(rng.integers(32, 127)))
        cases.append(base[:pos] + ch + base[pos + 1 :])
    return cases


def test_robustness_trend():
    means = {}
    base = _CACHE.get("clean_mean")
    if base is None:
        base = float(roundtrip_ious(sigma=0.0)[0].mean())
    means[0.0] = base
    for sigma in (0.5, 1.0, 2.0):
        means[sigma] = float(roundtrip_ious(sigma=sigma)[0].mean())
    ordered = [means[s] for s in (0.0, 0.5, 1.0, 2.0)]
    mono = all(a >= b for a, b in zip(ordered, ordered[1:]))
    degradation = means[0.0] - means[1.0]
    ok = mono and degradation < 0.05
    report(
        "robustness-trend",
        ok,
        "(means "
        + " ".join(f"s{s}={m:.4f}" for s, m in means.items())
        + f", degradation at s1 {degradation:.4f})",
    )
