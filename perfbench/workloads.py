"""The four workloads: seeded inputs, one timed operation, output checks.

A workload builds a pool of items from the seed; a run makes whole passes
over the pool (see run.py). ``op`` is the timed operation and returns the
program's outputs with per-phase times; ``check`` compares those outputs
with an oracle that does not use textshape (see oracles.py) and returns a
failure reason or None; ``digest`` fingerprints the outputs so a traced
pass can be compared with an untraced one.

Each workload may also carry ``probes``: inputs that hit a known defect and
make the program raise. They run once per run, outside the timed loop, so
the defect is reported on every run without turning timed operations into
failures.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from textshape import detect, evaluate, formats, geom, labels, synth

import oracles

GATE_IOU = 0.75            # acceptance gate for a clean roundtrip
SIGMAS = (0.5, 1.0, 2.0)   # decode_noisy noise levels, cycled over the pool


@dataclass
class Result:
    """One operation's outputs, with seconds per phase ("op" is the whole)."""

    times: dict
    out: object
    values: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _suite_pool(k: int, rng) -> list:
    """``k`` suite instances, the middle one of each of ``k`` strata by area.

    Every seed measures the same spread of sizes, so a pass over the pool
    costs the same whatever the seed; the seed moves each annotation by a
    sub-pixel offset, which changes every raster without changing its size.
    """
    suite = synth.roundtrip_suite()
    order = np.argsort([oracles.ring_area(s.annotation.closed_vertices()) for s in suite], kind="stable")
    pool = []
    for stratum in np.array_split(order, k):
        inst = suite[stratum[len(stratum) // 2]]
        d = rng.uniform(0.0, 1.0, 2)
        ann = labels.AnnotationPolygon.make(inst.annotation.upper + d, inst.annotation.lower + d)
        pool.append(synth.SynthInstance(inst.name, ann, inst.image_size))
    return pool


def _decode_and_score(pred, ann):
    diag = detect.DecodeDiagnostics()   # read by the traced run's decode counter
    t0 = time.perf_counter()
    dets = detect.decode(pred, detect.DecodeConfig(), diagnostics=diag)
    t1 = time.perf_counter()
    rep = evaluate.match(dets, [ann], iou_threshold=1e-6)
    t2 = time.perf_counter()
    return dets, rep, t1 - t0, t2 - t0


def _best_iou(rep) -> float:
    return rep.matches[0][2] if rep.matches else 0.0


def _dets_digest(dets, rep):
    return _digest(*[d.polygon.vertices for d in dets], rep.counts, rep.matches)


# --------------------------------------------------------------- roundtrip
class RoundtripClean:
    """encode -> perfect prediction -> decode -> match, as `textshape roundtrip`."""

    name = "roundtrip_clean"
    pool_size = 11   # odd, so the median falls inside one item's samples

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 0])
        return {"items": _suite_pool(self.pool_size, rng), "probes": []}

    def prepare(self, inst):
        return inst

    def op(self, inst) -> Result:
        t0 = time.perf_counter()
        grid = labels.RasterGrid.for_image(*inst.image_size, stride=1)
        label = labels.encode([inst.annotation], grid)
        t1 = time.perf_counter()
        pred = detect.PredictionRaster.from_label(label)
        dets, rep, t_dec, _ = _decode_and_score(pred, inst.annotation)
        total = time.perf_counter() - t0
        return Result(
            times={"op": total, "encode": t1 - t0, "decode": t_dec},
            out=(dets, rep),
            values={"cells": int(label.mask.sum()), "iou": _best_iou(rep),
                    "lost": int(not rep.matches)},
        )

    def check(self, inst, res: Result):
        dets, _ = res.out
        if not dets:
            return "no_detection"
        ring = inst.annotation.closed_vertices()
        if max(oracles.raster_iou(d.polygon.vertices, ring) for d in dets) < GATE_IOU:
            return "iou_below_gate"
        return None

    def digest(self, res: Result) -> str:
        return _dets_digest(*res.out)


# ------------------------------------------------------------------- noisy
@dataclass
class NoisyItem:
    ann: object
    grid: object
    rows: np.ndarray
    cols: np.ndarray
    dx: np.ndarray
    dy: np.ndarray


class DecodeNoisy:
    """Decode and score predictions whose distances carry Gaussian noise."""

    name = "decode_noisy"
    pool_size = 9    # odd, and a multiple of len(SIGMAS)

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        items = []
        # sigma cycles over the pool in size order, so every noise level
        # sees small and large instances
        for i, inst in enumerate(_suite_pool(self.pool_size, rng)):
            sigma = SIGMAS[i % len(SIGMAS)]
            grid = labels.RasterGrid.for_image(*inst.image_size, stride=1)
            label = labels.encode([inst.annotation], grid)
            rows, cols = np.nonzero(label.mask)
            items.append(NoisyItem(
                ann=inst.annotation, grid=grid, rows=rows, cols=cols,
                dx=label.dist_x[rows, cols] + rng.normal(0.0, sigma, len(rows)),
                dy=label.dist_y[rows, cols] + rng.normal(0.0, sigma, len(rows)),
            ))
        # the known defect: one non-finite distance inside the central region
        probe = items[int(rng.integers(len(items)))]
        dx = probe.dx.copy()
        dx[len(dx) // 2] = np.nan
        return {"items": items, "probes": [replace(probe, dx=dx)]}

    def prepare(self, item: NoisyItem):
        shape = item.grid.shape
        prob = np.zeros(shape)
        dist_x = np.zeros(shape)
        dist_y = np.zeros(shape)
        prob[item.rows, item.cols] = 1.0
        dist_x[item.rows, item.cols] = item.dx
        dist_y[item.rows, item.cols] = item.dy
        return detect.PredictionRaster(grid=item.grid, prob=prob, dist_x=dist_x, dist_y=dist_y), item.ann

    def op(self, prepared) -> Result:
        pred, ann = prepared
        dets, rep, t_dec, total = _decode_and_score(pred, ann)
        return Result(
            times={"op": total, "decode": t_dec},
            out=(dets, rep),
            values={"iou": _best_iou(rep), "lost": int(not rep.matches)},
        )

    def check(self, item, res: Result):
        return None if res.out[0] else "no_detection"

    def digest(self, res: Result) -> str:
        return _dets_digest(*res.out)


# -------------------------------------------------------------- dense page
CELL = 200.0                           # page cell side, px
REACH = CELL / (2.0 * math.sqrt(2.0)) - 6.0
# A shape within REACH of its cell centre has its minimum-area rectangle
# within sqrt(2) * REACH, so neither polygons nor quads of different cells
# overlap, and every IoU between cells is exactly 0.
PAGE_COLS, PAGE_ROWS = 3, 3
PAGE_REAL, PAGE_IGNORE = 7, 1          # lines per page; the other cells stay empty
PAGE_HITS, PAGE_PARTIALS = 4, 2
# Score rank of each planted detection, in the order make_page plants them
# (4 hits, 2 partials, 1 in the empty cell, 1 over the ignore line). A
# fixed interleave keeps the matcher's IoU call count, and so the cost of a
# page, the same on every page.
SCORE_RANK = (0, 2, 4, 7, 1, 6, 3, 5)


@dataclass
class Page:
    gts: list
    dets: list
    expected: tuple   # (tp, fp, fn, ignored_dets)


def _centered(ann, center):
    ring = ann.closed_vertices()
    shift = np.asarray(center) - (ring.min(axis=0) + ring.max(axis=0)) / 2.0
    return labels.AnnotationPolygon.make(ann.upper + shift, ann.lower + shift)


def _page_line(rng, center):
    """A rotated rectangle or an arc ribbon that stays within REACH."""
    while True:
        height = rng.uniform(24.0, 36.0)
        if rng.random() < 0.5:
            ann = synth.rect_annotation(0.0, 0.0, rng.uniform(70.0, 110.0), height,
                                        angle_deg=rng.uniform(0.0, 180.0))
        else:
            ann = synth.arc_annotation(0.0, 0.0, rng.uniform(60.0, 110.0), height,
                                       rng.uniform(40.0, 100.0), rotation_deg=rng.uniform(0.0, 360.0))
        ann = _centered(ann, center)
        if np.hypot(*(ann.closed_vertices() - center).T).max() <= REACH:
            return ann


def _detection(ring, score):
    return detect.Detection(polygon=geom.Polygon.make(ring), score=float(score))


def _jittered(rng, ring):
    noise = np.clip(rng.normal(0.0, 0.5, ring.shape), -1.0, 1.0)
    return ring + noise + rng.uniform(-1.0, 1.0, 2)


def _partial(ann):
    """The first third of a line: IoU about 1/3 with it in either mode."""
    if len(ann.upper) == 2:   # rectangle
        f = 0.3
        up = [ann.upper[0], ann.upper[0] + f * (ann.upper[1] - ann.upper[0])]
        low = [ann.lower[0], ann.lower[0] + f * (ann.lower[1] - ann.lower[0])]
    else:
        k = (len(ann.upper) - 1) // 3 + 1
        up, low = ann.upper[:k], ann.lower[:k]
    return np.vstack([up, np.asarray(low)[::-1]])


def make_page(rng) -> Page:
    cells = [((c + 0.5) * CELL, (r + 0.5) * CELL) for r in range(PAGE_ROWS) for c in range(PAGE_COLS)]
    cells = [np.array(cells[i]) for i in rng.permutation(len(cells))]
    real = [_page_line(rng, c) for c in cells[:PAGE_REAL]]
    ignore = []
    for c in cells[PAGE_REAL:PAGE_REAL + PAGE_IGNORE]:
        ann = _page_line(rng, c)
        ignore.append(labels.AnnotationPolygon.make(ann.upper, ann.lower, ignore=True))
    empty = cells[PAGE_REAL + PAGE_IGNORE:]

    rings = [_jittered(rng, a.closed_vertices()) for a in real[:PAGE_HITS]]
    rings += [_partial(real[i]) for i in rng.choice(PAGE_REAL, PAGE_PARTIALS, replace=False)]
    rings += [_page_line(rng, c).closed_vertices() for c in empty]
    rings += [_jittered(rng, a.closed_vertices()) for a in ignore]
    scores = np.sort(rng.uniform(0.05, 1.0, len(rings)))[::-1]
    dets = [_detection(r, scores[k]) for r, k in zip(rings, SCORE_RANK, strict=True)]
    order = rng.permutation(len(dets))
    gts = real + ignore
    gts = [gts[i] for i in rng.permutation(len(gts))]
    expected = (PAGE_HITS, PAGE_PARTIALS + len(empty), PAGE_REAL - PAGE_HITS, PAGE_IGNORE)
    return Page(gts=gts, dets=[dets[i] for i in order], expected=expected)


class EvalDensePage:
    """Score a page of planted detections in polygon and in quad mode."""

    name = "eval_dense_page"
    pool_size = 7

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        return {"items": [make_page(rng) for _ in range(self.pool_size)], "probes": []}

    def prepare(self, page: Page):
        return page

    def op(self, page: Page) -> Result:
        t0 = time.perf_counter()
        poly = evaluate.match(page.dets, page.gts, mode="polygon")
        quad = evaluate.match(page.dets, page.gts, mode="quad")
        return Result(times={"op": time.perf_counter() - t0}, out=(poly, quad))

    def check(self, page: Page, res: Result):
        for mode, rep in zip(("polygon", "quad"), res.out):
            if rep.counts != page.expected:
                return f"{mode}_counts"
        return None

    def digest(self, res: Result) -> str:
        return _digest(*[(r.counts, r.matches) for r in res.out])


# ------------------------------------------------------------------ parsing
@dataclass
class Line:
    text: str
    fmt: str
    ring: np.ndarray | None = None   # None for a fuzz line
    ignore: bool = False


def _rect_ring(rng):
    w, h = rng.uniform(30.0, 300.0), rng.uniform(15.0, 60.0)
    x, y = (float(v) for v in rng.uniform(0.0, 800.0, 2))
    a = rng.uniform(-math.pi / 2, math.pi / 2)
    return x, y, w, h, a, _rotated_box(x, y, w, h, a)


def _rotated_box(x, y, w, h, a):
    cx, cy = x + w / 2.0, y + h / 2.0
    c, s = math.cos(a), math.sin(a)
    corners = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    return np.array([(cx + c * (px - cx) - s * (py - cy), cy + s * (px - cx) + c * (py - cy))
                     for px, py in corners])


def _curve_ring(rng):
    """Arc ribbon of 14-28 vertices, upper chain then lower chain reversed."""
    half = int(rng.integers(7, 15))
    r, h = rng.uniform(150.0, 600.0), rng.uniform(20.0, 60.0)
    span = math.radians(rng.uniform(20.0, 120.0))
    t = np.linspace(-span / 2, span / 2, half) + math.radians(rng.uniform(-30.0, 30.0))
    cx, cy = rng.uniform(300.0, 900.0), r + 100.0
    upper = np.stack([cx + (r + h / 2) * np.sin(t), cy - (r + h / 2) * np.cos(t)], axis=1)
    lower = np.stack([cx + (r - h / 2) * np.sin(t), cy - (r - h / 2) * np.cos(t)], axis=1)
    return np.vstack([upper, lower[::-1]])


def _num(v: float) -> str:
    return str(int(v)) if v == int(v) else repr(float(v))


WORDS = ("text", "EXIT", "a,b", "Café", "42", "x y")


def _valid_line(rng, fmt: str) -> Line:
    while True:
        ignore = bool(rng.random() < 0.1)
        if fmt == "msra_td500":
            x, y, w, h, a, ring = _rect_ring(rng)
            text = f"{int(rng.integers(0, 99))} {int(ignore)} {x!r} {y!r} {w!r} {h!r} {a!r}"
        elif fmt == "icdar2015":
            ring = np.round(_rect_ring(rng)[-1])
            word = "###" if ignore else str(rng.choice(WORDS))
            text = ",".join(_num(v) for v in ring.ravel()) + "," + word
        elif fmt == "ctw1500":
            ring, ignore = np.round(_curve_ring(rng)), False
            text = ",".join(_num(v) for v in ring.ravel())
        else:
            ring = np.round(_curve_ring(rng), 2)
            flag = f",{int(ignore)}" if ignore or rng.random() < 0.5 else ""
            text = f"{len(ring)}," + ",".join(_num(v) for v in ring.ravel()) + flag
        if oracles.is_simple_ring(ring) and oracles.ring_area(ring) > 50.0:
            return Line(text, fmt, ring, ignore)


SOUP = ("0", "1", "7", "-3", "12.5", "1e3", "nan", "inf", "-inf", "1e400", "###",
        "", " ", "abc", "0x1F", "--", "4", "28", "3.", "\t9")
MUTATE = ",.- 0123456789#eE\tx"


def _fuzz_text(rng, valid: list[Line]) -> str:
    kind = int(rng.integers(0, 3))
    if kind == 0:   # raw bytes
        raw = bytes(rng.integers(0, 256, int(rng.integers(1, 120)), dtype=np.uint8))
        return raw.decode("latin-1").replace("\n", " ").replace("\r", " ")
    if kind == 1:   # token soup
        toks = rng.choice(SOUP, int(rng.integers(1, 40)))
        return str(rng.choice([",", " "])).join(toks)
    text = valid[int(rng.integers(0, len(valid)))].text   # one-character mutation
    i = int(rng.integers(0, len(text)))
    ch = MUTATE[int(rng.integers(0, len(MUTATE)))]
    edit = int(rng.integers(0, 3))
    return text[:i] + (ch if edit < 2 else "") + text[i + (edit != 1):]


class ParseCorpus:
    """Annotation lines, valid in all four formats plus fuzz."""

    name = "parse_corpus"
    valid_per_format = 250
    fuzz_lines = 750

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        valid = [_valid_line(rng, fmt) for fmt in formats.ANNOTATION_FORMATS
                 for _ in range(self.valid_per_format)]
        fuzz = [Line(_fuzz_text(rng, valid), fmt)
                for _ in range(self.fuzz_lines) for fmt in formats.ANNOTATION_FORMATS]
        items = valid + fuzz
        # finite coordinates whose box corners overflow to inf: the parser
        # raises a bare ValueError instead of ParseError
        probes = [Line("0 0 1e308 0 1e308 10 0", "msra_td500")]
        return {"items": [items[i] for i in rng.permutation(len(items))], "probes": probes}

    def prepare(self, line: Line):
        return line

    def op(self, line: Line) -> Result:
        t0 = time.perf_counter()
        try:
            ann = formats.parse_annotation_line(line.text, line.fmt)
        except formats.ParseError:
            ann = None
        return Result(times={"op": time.perf_counter() - t0}, out=ann,
                      values={"valid": line.ring is not None})

    def check(self, line: Line, res: Result):
        if line.ring is None:
            return None
        ann = res.out
        if ann is None:
            return "valid_line_rejected"
        got = ann.closed_vertices()
        if got.shape != line.ring.shape or np.abs(got - line.ring).max() > 1e-9:
            return "ring_mismatch"
        if ann.ignore != line.ignore:
            return "ignore_flag"
        return None

    def digest(self, res: Result) -> str:
        ann = res.out
        return "reject" if ann is None else _digest(ann.closed_vertices(), ann.ignore)


WORKLOADS = {w.name: w for w in (RoundtripClean(), DecodeNoisy(), EvalDensePage(), ParseCorpus())}
