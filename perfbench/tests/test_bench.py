"""Tests of the benchmark itself: smoke runs, and checks that catch bad output.

    python3 -m pytest -q perfbench/tests
"""

import json
import statistics
from dataclasses import replace

import numpy as np
import pytest

import oracles
import reference
import run
import tracing
import workloads
from textshape import detect, evaluate, formats, geom, labels

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Minimal pools and a single set-up, so every workload runs in seconds."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads.RoundtripClean, "pool_size", 2)
    monkeypatch.setattr(workloads.DecodeNoisy, "pool_size", 3)
    monkeypatch.setattr(workloads.EvalDensePage, "pool_size", 1)
    monkeypatch.setattr(workloads.ParseCorpus, "valid_per_format", 3)
    monkeypatch.setattr(workloads.ParseCorpus, "fuzz_lines", 5)


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(small, capsys, name, trace):
    res = _result(capsys, "--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    spec = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_inputs_follow_the_seed():
    wl = workloads.ParseCorpus()
    wl.valid_per_format, wl.fuzz_lines = 2, 3
    texts = lambda seed: [line.text for line in wl.build(seed)["items"]]
    assert texts(5) == texts(5)
    assert texts(5) != texts(6)


def test_roundtrip_check_rejects_shifted_detection():
    wl = workloads.RoundtripClean()
    wl.pool_size = 1
    inst = wl.build(0)["items"][0]
    res = wl.op(inst)
    assert wl.check(inst, res) is None
    dets, rep = res.out
    width = np.ptp(inst.annotation.closed_vertices()[:, 0])
    shifted = [replace(d, polygon=geom.Polygon(d.polygon.vertices + [0.5 * width, 0.0])) for d in dets]
    assert wl.check(inst, workloads.Result(res.times, (shifted, rep))) == "iou_below_gate"
    assert wl.check(inst, workloads.Result(res.times, ([], rep))) == "no_detection"


def test_noisy_check_rejects_missing_detection():
    wl = workloads.DecodeNoisy()
    wl.pool_size = 3
    item = wl.build(0)["items"][0]
    res = wl.op(wl.prepare(item))
    assert wl.check(item, res) is None
    assert wl.check(item, workloads.Result(res.times, ([], res.out[1]))) == "no_detection"


def test_page_check_rejects_dropped_match():
    page = workloads.make_page(np.random.default_rng(11))
    wl = workloads.EvalDensePage()
    assert wl.check(page, wl.op(page)) is None
    hit = next(i for i, d in enumerate(page.dets)
               if any(oracles.raster_iou(d.polygon.vertices, g.closed_vertices()) > 0.7
                      for g in page.gts if not g.ignore))
    dropped = replace(page, dets=page.dets[:hit] + page.dets[hit + 1:])
    assert wl.check(page, wl.op(dropped)) == "polygon_counts"


def test_parse_check_rejects_mutated_valid_line():
    wl = workloads.ParseCorpus()
    wl.valid_per_format, wl.fuzz_lines = 4, 0
    line = next(x for x in wl.build(0)["items"] if x.fmt == "icdar2015")
    assert wl.check(line, wl.op(line)) is None
    coords = line.text.split(",")
    coords[0] = str(int(coords[0]) + 1)
    mutated = replace(line, text=",".join(coords))
    assert wl.check(line, wl.op(mutated)) == "ring_mismatch"
    flipped = replace(line, text=",".join(line.text.split(",")[:8] + ["###" if not line.ignore else "t"]))
    assert wl.check(line, wl.op(flipped)) == "ignore_flag"


class _Flaky:
    """A workload whose every other operation raises or fails its check."""

    def prepare(self, item):
        return item

    def op(self, item):
        if item == "raise":
            raise KeyError(item)
        return workloads.Result({"op": 0.001}, out=item)

    def check(self, item, res):
        return "bad_output" if item == "bad" else None

    def digest(self, res):
        return res.out


def test_failures_are_counted_and_the_run_goes_on():
    pool = {"items": ["ok", "raise", "ok2", "bad"]}
    t = run.run_ops(_Flaky(), pool, passes=2)
    assert (t.attempted, t.failed) == (8, 4)
    assert t.errors == {"KeyError": 2, "bad_output": 2}
    assert len(t.times["op"]) == 4


def test_traced_output_must_match_untraced():
    pool = {"items": ["ok", "ok2"]}
    t = run.run_ops(_Flaky(), pool, passes=1, expect={0: "ok", 1: "something else"})
    assert t.errors == {"traced_output_differs": 1}


def test_calibrated_run_scales_each_pass_by_its_reference_times():
    pool = {"items": ["ok", "raise", "ok2", "bad"]}
    t = run.run_ops(_Flaky(), pool, passes=3, calibrate=True)
    assert set(t.refs) == {0, 1, 2}
    assert t.op_pass == [0, 0, 1, 1, 2, 2]
    scaled = t.scaled_ops()
    assert len(scaled) == 6
    for x, p in zip(scaled, t.op_pass):
        assert x == pytest.approx(0.001 * reference.REF_S / statistics.median(t.refs[p]))
    assert not run.run_ops(_Flaky(), pool, passes=1).refs


def test_tail_keeps_ten_beyond_and_its_pool_item():
    pool = 9
    cost = [float(c) for c in range(pool)]
    pct, _ = run._tail(cost * run.MIN_PASSES, pool)
    n = run.MIN_PASSES * pool
    assert sum(x > pct / 100.0 * n for x in range(n)) >= 10
    # more passes pick the same pool item
    assert {run._tail(cost * k, pool)[1] for k in range(run.MIN_PASSES, 12)} == {6.0}
    assert run._tail([0.0] * 10, 10**6)[0] == run.TAIL_MAX_PERCENTILE


def test_spans_separate_kernels_by_caller():
    wl = workloads.RoundtripClean()
    wl.pool_size = 1
    inst = wl.build(0)["items"][0]
    tr = tracing.Tracer()
    mods = {"labels": labels, "detect": detect, "geom": geom, "evaluate": evaluate, "formats": formats}
    original = geom.point_in_polygon
    with tr.install(mods):
        wl.op(inst)
        evaluate.match([], [inst.annotation], mode="quad")
    assert geom.point_in_polygon is original
    assert tr.select("geom.point_in_polygon", parent="labels.encode")
    assert tr.select("geom.point_in_polygon", parent="geom.alpha_shape_with_fallback")
    assert tr.select("geom.convex_hull", parent="geom.min_area_rect")
    m = tracing.layer_metrics(tr, 1, 0.0)
    assert m["labels.self_s"] < m["labels.encode_s"]
    assert m["detect.points_per_cell"] > 0 and m["labels.central_cells"] > 0


def test_oracles():
    sq = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float)
    assert oracles.raster_iou(sq, sq) == 1.0
    assert oracles.raster_iou(sq, sq + 5) == 0.0
    assert oracles.raster_iou(sq, sq + [1, 0]) == pytest.approx(1 / 3, abs=0.01)
    assert oracles.ring_area(sq) == 4.0
    assert oracles.is_simple_ring(sq)
    assert not oracles.is_simple_ring(sq[[0, 2, 1, 3]])   # bow tie
