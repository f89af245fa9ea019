"""Spans around textshape's public functions, recorded from outside.

Each traced function is replaced, at the module attribute its callers look
up, by a wrapper that opens a span: name, duration, and the span that was
open when it was called (its parent). Spans are folded into per
(name, parent, outcome) aggregates when they close, so memory stays flat
however many lines or pages a run handles. A span's self time is its
duration minus the time covered by its direct child spans.

The patch table below is the whole interface: ``labels`` imports the geom
kernels into its own namespace, ``evaluate`` does the same for
``polygon_iou``/``min_area_rect``, while ``detect`` calls
``geom.alpha_shape_with_fallback`` through the module and ``geom`` calls its
own kernels through its globals. Patching both namespaces with one span name
and classifying by parent separates, say, ``point_in_polygon`` under
``labels.encode`` (region raster) from the same function under the alpha
ladder (containment).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


def _point_tests(args, kwargs, result):
    return {"tests": len(args[0]) * len(args[1])}


def _nearest_pairs(args, kwargs, result):
    return {"pairs": len(args[0]) * len(args[1]), "cells": len(args[0])}


def _simple_pairs(args, kwargs, result):
    n = len(args[0])
    return {"pairs": n * (n - 3) // 2}


def _decode_counts(args, kwargs, result):
    diag = kwargs.get("diagnostics")
    out = {"poly_vertices": sum(len(d.polygon.vertices) for d in result)}
    if diag is not None:
        out["components"] = diag.components
        out["rejected"] = diag.rejected
    return out


def _components(args, kwargs, result):
    return {"components": len(result)}


def _boundary_counts(args, kwargs, result):
    return {"cells": len(args[0]), "points": len(result.points)}


def _match_counts(args, kwargs, result):
    return {"dets": len(args[0])}


def _iou_counts(args, kwargs, result):
    return {"nonzero": int(result > 0.0)}


def _mask_cells(args, kwargs, result):
    ny, nx = args[3]
    return {"cells": ny * nx}


# (module name, attribute, span name, counter)
PATCHES = [
    ("labels", "encode", "labels.encode", None),
    ("labels", "point_in_polygon", "geom.point_in_polygon", _point_tests),
    ("labels", "nearest_boundary_points", "geom.nearest_boundary_points", _nearest_pairs),
    ("labels", "is_simple", "geom.is_simple", _simple_pairs),
    ("detect", "decode", "detect.decode", _decode_counts),
    ("detect", "binarize", "detect.binarize", None),
    ("detect", "extract_instances", "detect.extract_instances", _components),
    ("detect", "boundary_points", "detect.boundary_points", _boundary_counts),
    ("detect", "reconstruct", "detect.reconstruct", None),
    ("geom", "alpha_shape_with_fallback", "geom.alpha_shape_with_fallback", None),
    ("geom", "point_in_polygon", "geom.point_in_polygon", _point_tests),
    ("geom", "convex_hull", "geom.convex_hull", None),
    ("geom", "polygon_mask", "geom.polygon_mask", _mask_cells),
    ("evaluate", "match", "evaluate.match", _match_counts),
    ("evaluate", "polygon_iou", "geom.polygon_iou", _iou_counts),
    ("evaluate", "min_area_rect", "geom.min_area_rect", None),
    ("formats", "parse_annotation_line", "formats.parse_annotation_line", None),
]


class _Agg:
    __slots__ = ("calls", "total", "child", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.counts = defaultdict(int)


class Tracer:
    """In-memory span recorder; ``install`` patches, leaving restores."""

    def __init__(self):
        self.stack: list[list] = []   # open spans: [name, child seconds]
        self.agg: dict[tuple, _Agg] = defaultdict(_Agg)

    def wrap(self, fn, name, counter):
        stack, agg = self.stack, self.agg

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            outcome = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                a = agg[(name, parent[0] if parent else None, outcome)]
                a.calls += 1
                a.total += dt
                a.child += frame[1]
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    a.counts[key] += value
            return result

        return traced

    @contextmanager
    def install(self, modules: dict):
        """Patch every PATCHES entry on the given {name: module} map."""
        saved = []
        try:
            for mod_name, attr, span, counter in PATCHES:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, span, counter))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def select(self, name, parent=..., ok=None):
        """Aggregates of span ``name``, optionally by parent and outcome.

        ``ok=True`` keeps spans that returned, ``ok=False`` spans that
        raised; ``None`` keeps both.
        """
        out = []
        for (n, p, outcome), a in self.agg.items():
            if n != name or (parent is not ... and p != parent):
                continue
            if ok is not None and (outcome is None) != ok:
                continue
            out.append(a)
        return out


def _sum(aggs, field):
    return sum(getattr(a, field) for a in aggs)


def _count(aggs, key):
    return sum(a.counts.get(key, 0) for a in aggs)


def _ratio(num, den):
    return num / den if den else 0.0


# per-layer metric name -> unit, in BENCHMARK.json order
LAYER_UNITS = {
    "labels.encode_s": "s", "labels.self_s": "s",
    "labels.region_s": "s", "labels.region_tests": "count",
    "labels.nearest_s": "s", "labels.nearest_pairs": "count",
    "labels.central_cells": "count",
    "detect.decode_s": "s", "detect.self_s": "s", "detect.binarize_s": "s",
    "detect.extract_instances_s": "s", "detect.boundary_points_s": "s",
    "detect.reconstruct_s": "s",
    "detect.components": "count", "detect.rejected": "count",
    "detect.cells": "count", "detect.points": "count",
    "detect.points_per_cell": "ratio", "detect.poly_vertices": "count",
    "geom.ladder_s": "s", "geom.ladder_self_s": "s",
    "geom.containment_s": "s", "geom.containment_calls": "count",
    "geom.hull_fallbacks": "count",
    "evaluate.match_s": "s", "evaluate.self_s": "s",
    "geom.polygon_iou_s": "s", "geom.polygon_iou_calls": "count",
    "evaluate.iou_calls_per_det": "ratio", "evaluate.iou_nonzero_share": "ratio",
    "geom.polygon_mask_s": "s", "geom.mask_cells": "count",
    "geom.min_area_rect_s": "s",
    "formats.accept_s": "s", "formats.reject_s": "s",
    "formats.accepted": "count", "formats.rejected": "count",
    "formats.is_simple_s": "s", "formats.is_simple_pairs": "count",
    "trace.overhead_share": "ratio",
}


def layer_metrics(tr: Tracer, passes: int, overhead_share: float) -> dict:
    """Per-layer values per pool pass (sums over spans divided by passes)."""
    enc = tr.select("labels.encode")
    region = tr.select("geom.point_in_polygon", parent="labels.encode")
    nearest = tr.select("geom.nearest_boundary_points", parent="labels.encode")
    dec = tr.select("detect.decode")
    stage = {s: tr.select(f"detect.{s}", parent="detect.decode")
             for s in ("binarize", "extract_instances", "boundary_points", "reconstruct")}
    ladder = tr.select("geom.alpha_shape_with_fallback")
    lad = "geom.alpha_shape_with_fallback"
    contain = tr.select("geom.point_in_polygon", parent=lad)
    hulls = tr.select("geom.convex_hull", parent=lad)
    match = tr.select("evaluate.match")
    iou = tr.select("geom.polygon_iou", parent="evaluate.match")
    mask = tr.select("geom.polygon_mask")
    rect = tr.select("geom.min_area_rect", parent="evaluate.match")
    parse = "formats.parse_annotation_line"
    accept = tr.select(parse, ok=True)
    reject = tr.select(parse, ok=False)
    simple = tr.select("geom.is_simple", parent=parse)

    cells = _count(stage["boundary_points"], "cells")
    points = _count(stage["boundary_points"], "points")
    iou_calls = _sum(iou, "calls")
    v = {
        "labels.encode_s": _sum(enc, "total"),
        "labels.self_s": _sum(enc, "total") - _sum(enc, "child"),
        "labels.region_s": _sum(region, "total"),
        "labels.region_tests": _count(region, "tests"),
        "labels.nearest_s": _sum(nearest, "total"),
        "labels.nearest_pairs": _count(nearest, "pairs"),
        "labels.central_cells": _count(nearest, "cells"),
        "detect.decode_s": _sum(dec, "total"),
        "detect.self_s": _sum(dec, "total") - _sum(dec, "child"),
        "detect.binarize_s": _sum(stage["binarize"], "total"),
        "detect.extract_instances_s": _sum(stage["extract_instances"], "total"),
        "detect.boundary_points_s": _sum(stage["boundary_points"], "total"),
        "detect.reconstruct_s": _sum(stage["reconstruct"], "total"),
        "detect.components": _count(dec, "components"),
        "detect.rejected": _count(dec, "rejected"),
        "detect.cells": cells,
        "detect.points": points,
        "detect.poly_vertices": _count(dec, "poly_vertices"),
        "geom.ladder_s": _sum(ladder, "total"),
        "geom.ladder_self_s": _sum(ladder, "total") - _sum(ladder, "child"),
        "geom.containment_s": _sum(contain, "total"),
        "geom.containment_calls": _sum(contain, "calls"),
        "geom.hull_fallbacks": _sum(hulls, "calls"),
        "evaluate.match_s": _sum(match, "total"),
        "evaluate.self_s": _sum(match, "total") - _sum(match, "child"),
        "geom.polygon_iou_s": _sum(iou, "total"),
        "geom.polygon_iou_calls": iou_calls,
        "geom.polygon_mask_s": _sum(mask, "total"),
        "geom.mask_cells": _count(mask, "cells"),
        "geom.min_area_rect_s": _sum(rect, "total"),
        "formats.accept_s": _sum(accept, "total"),
        "formats.reject_s": _sum(reject, "total"),
        "formats.accepted": _sum(accept, "calls"),
        "formats.rejected": _sum(reject, "calls"),
        "formats.is_simple_s": _sum(simple, "total"),
        "formats.is_simple_pairs": _count(simple, "pairs"),
    }
    v = {k: x / passes for k, x in v.items()}
    # ratios are taken over the totals, so they do not scale with passes
    v["detect.points_per_cell"] = _ratio(points, cells)
    v["evaluate.iou_calls_per_det"] = _ratio(iou_calls, _count(match, "dets"))
    v["evaluate.iou_nonzero_share"] = _ratio(_count(iou, "nonzero"), iou_calls)
    v["trace.overhead_share"] = overhead_share
    return {k: v[k] for k in LAYER_UNITS}
