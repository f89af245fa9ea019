import argparse
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from textshape import cli, formats
from textshape.labels import MAX_GRID_CELLS, RasterGrid
from textshape.synth import rect_annotation, arc_annotation
import textshape as ts


@pytest.fixture
def gt_dir(tmp_path):
    d = tmp_path / "gt"
    d.mkdir()
    formats.write_annotation_file(
        d / "img_a.txt", [rect_annotation(20, 20, 300, 60)], "totaltext"
    )
    formats.write_annotation_file(
        d / "img_b.txt",
        [rect_annotation(20, 20, 200, 50), rect_annotation(20, 120, 240, 56)],
        "totaltext",
    )
    formats.write_annotation_file(
        d / "img_c.txt", [arc_annotation(260, 260, 180, 56, 140)], "totaltext"
    )
    return d


class TestEncodeCommand:
    def test_three_files(self, gt_dir, tmp_path, capsys):
        out = tmp_path / "labels"
        rc = cli.main(["encode", str(gt_dir), "totaltext", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.glob("*.msrr")) == [
            "img_a.msrr",
            "img_b.msrr",
            "img_c.msrr",
        ]
        assert (out / "run_config.json").exists()
        assert "3 files" in capsys.readouterr().out

    def test_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "gt"
        empty.mkdir()
        out = tmp_path / "labels"
        assert cli.main(["encode", str(empty), "totaltext", str(out)]) == 0
        assert list(out.glob("*.msrr")) == []

    def test_corrupt_file_names_location(self, gt_dir, tmp_path, capsys):
        (gt_dir / "img_bad.txt").write_text("4,0,0,oops\n")
        out = tmp_path / "labels"
        rc = cli.main(["encode", str(gt_dir), "totaltext", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "img_bad.txt:1" in captured.err
        # Healthy files still encode.
        assert len(list(out.glob("*.msrr"))) == 3

    def test_missing_dir(self, tmp_path):
        assert cli.main(["encode", str(tmp_path / "nope"), "totaltext", str(tmp_path / "o")]) == 1

    def test_each_error_names_its_file_once(self, gt_dir, tmp_path, capsys):
        bad = {
            "img_bad.txt": b"4,0,0,oops\n",
            "img_binary.txt": b"4,0,0,\x80\n",
            "img_empty.txt": b"",
            "img_huge.txt": b"4,0,0,3000000,0,3000000,3000000,0,3000000\n",
        }
        for name, data in bad.items():
            (gt_dir / name).write_bytes(data)
        out = tmp_path / "labels"
        rc = cli.main(["encode", str(gt_dir), "totaltext", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(lines) == len(bad)
        for line, (name, _) in zip(lines, sorted(bad.items())):
            path = str(gt_dir / name)
            assert line.startswith(f"error: {path}:")
            assert line.count(path) == 1
        assert lines[0].endswith("img_bad.txt:1: expected 8 coordinates for n=4, got 3")
        assert lines[1].endswith("img_binary.txt: not UTF-8 text: byte 0x80 at offset 6")
        assert lines[2].endswith("img_empty.txt: no annotations, image size unknown")
        assert "img_huge.txt: grid 3000000x3000000 exceeds the budget" in lines[3]
        assert len(list(out.glob("*.msrr"))) == 3


class TestDecodeCommand:
    def test_roundtrip_files(self, gt_dir, tmp_path):
        labels = tmp_path / "labels"
        dets = tmp_path / "dets"
        assert cli.main(["encode", str(gt_dir), "totaltext", str(labels)]) == 0
        assert cli.main(["decode", str(labels), str(dets)]) == 0
        assert sorted(p.name for p in dets.glob("*.txt")) == [
            "img_a.txt",
            "img_b.txt",
            "img_c.txt",
        ]
        got = formats.read_detections(dets / "img_b.txt")
        assert len(got) == 2

    def test_empty_probability_maps(self, tmp_path):
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        from textshape.detect import PredictionRaster

        grid = RasterGrid(width=32, height=32, stride=1)
        pred = PredictionRaster(
            grid=grid,
            prob=np.zeros((32, 32), dtype=np.float32),
            dist_x=np.zeros((32, 32), dtype=np.float32),
            dist_y=np.zeros((32, 32), dtype=np.float32),
        )
        formats.write_raster(pred_dir / "zero.msrr", pred)
        out = tmp_path / "dets"
        assert cli.main(["decode", str(pred_dir), str(out)]) == 0
        assert (out / "zero.txt").read_text() == ""

    def test_nonfinite_distance_cell_exits_zero(self, tmp_path, capsys):
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        from textshape.detect import PredictionRaster

        grid = RasterGrid(width=140, height=60, stride=1)
        label = ts.encode([rect_annotation(10, 10, 120, 40)], grid)
        dist_x = label.dist_x.copy()
        rows, cols = np.nonzero(label.mask)
        dist_x[rows[len(rows) // 2], cols[len(cols) // 2]] = np.nan
        pred = PredictionRaster(
            grid=grid, prob=label.mask.astype(np.float32), dist_x=dist_x, dist_y=label.dist_y
        )
        formats.write_raster(pred_dir / "nan.msrr", pred)
        out = tmp_path / "dets"
        assert cli.main(["decode", str(pred_dir), str(out)]) == 0
        assert len(formats.read_detections(out / "nan.txt")) == 1
        assert "dropped 1 cells" in capsys.readouterr().err

    def test_bad_magic_exits_one(self, tmp_path):
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        (pred_dir / "junk.msrr").write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        assert cli.main(["decode", str(pred_dir), str(tmp_path / "o")]) == 1


class TestRoundtripCommand:
    def test_report_and_success(self, gt_dir, tmp_path, capsys):
        report = tmp_path / "report" / "roundtrip.txt"
        rc = cli.main(["roundtrip", str(gt_dir), "totaltext", str(report)])
        assert rc == 0
        text = report.read_text()
        assert "mean_iou=" in text and "min_iou=" in text
        assert "count_preserved=1" in text
        assert (report.parent / "run_config.json").exists()

    def test_file_without_annotations_skipped(self, gt_dir, tmp_path):
        full = tmp_path / "full.txt"
        assert cli.main(["roundtrip", str(gt_dir), "totaltext", str(full)]) == 0
        (gt_dir / "img_0.txt").write_text("\n")
        report = tmp_path / "roundtrip.txt"
        assert cli.main(["roundtrip", str(gt_dir), "totaltext", str(report)]) == 0
        assert report.read_text() == full.read_text()

    def test_unreachable_threshold_fails(self, gt_dir, tmp_path):
        report = tmp_path / "roundtrip.txt"
        rc = cli.main(
            ["roundtrip", str(gt_dir), "totaltext", str(report), "--min-mean-iou", "0.999"]
        )
        assert rc == 2


class TestEvalCommand:
    def test_perfect_detections(self, gt_dir, tmp_path, capsys):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        from textshape.detect import Detection
        from textshape.geom import Polygon

        for p in gt_dir.glob("*.txt"):
            rec = formats.read_annotation_file(p, "totaltext")
            dets = [
                Detection(polygon=Polygon.make(a.closed_vertices()), score=0.9)
                for a in rec.annotations
            ]
            formats.write_detections(det_dir / p.name, dets)
        report = tmp_path / "eval.txt"
        rc = cli.main(
            ["eval", str(det_dir), str(gt_dir), "totaltext", "--report", str(report)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "precision=1.000000" in out
        assert "recall=1.000000" in out
        assert report.exists()

    def test_half_detections_halve_recall(self, gt_dir, tmp_path, capsys):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        from textshape.detect import Detection
        from textshape.geom import Polygon

        for p in gt_dir.glob("*.txt"):
            rec = formats.read_annotation_file(p, "totaltext")
            dets = [
                Detection(polygon=Polygon.make(a.closed_vertices()), score=0.9)
                for a in rec.annotations[:1]
            ]
            formats.write_detections(det_dir / p.name, dets)
        rc = cli.main(["eval", str(det_dir), str(gt_dir), "totaltext"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recall=0.750000" in out   # 3 of 4 ground truths found

    def test_zero_iou_threshold_exits_one(self, gt_dir, tmp_path, capsys):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        for p in gt_dir.glob("*.txt"):
            formats.write_detections(det_dir / p.name, [])
        rc = cli.main(["eval", str(det_dir), str(gt_dir), "totaltext", "--iou-threshold", "0"])
        assert rc == 1
        assert "iou_threshold" in capsys.readouterr().err

    def test_zero_iou_threshold_exits_one_when_no_ids_pair(self, gt_dir, tmp_path, capsys):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        formats.write_detections(det_dir / "zzz.txt", [])
        rc = cli.main(
            ["eval", str(det_dir), str(gt_dir), "totaltext", "--iou-threshold", "0",
             "--allow-missing"]
        )
        assert rc == 1
        assert "iou_threshold" in capsys.readouterr().err

    def test_mismatched_ids_error(self, gt_dir, tmp_path, capsys):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        formats.write_detections(det_dir / "other.txt", [])
        rc = cli.main(["eval", str(det_dir), str(gt_dir), "totaltext"])
        assert rc == 1

    def test_non_utf8_file_named_in_error(self, gt_dir, tmp_path, capsys):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        bad = det_dir / "img_a.txt"
        bad.write_bytes(b"0.900,3,0,0,30,0,15,22.5\x80\n")
        rc = cli.main(["eval", str(det_dir), str(gt_dir), "totaltext"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {bad}: not UTF-8 text: byte 0x80 at offset 24\n"

    @pytest.mark.parametrize("missing", ["det", "gt", "both"])
    def test_missing_dir_exits_one(self, gt_dir, tmp_path, capsys, missing):
        det_dir = tmp_path / "dets"
        if missing == "gt":
            det_dir.mkdir()
            formats.write_detections(det_dir / "img_a.txt", [])
        if missing != "det":
            gt_dir = tmp_path / "no_gt"
        rc = cli.main(
            ["eval", str(det_dir), str(gt_dir), "totaltext", "--allow-missing"]
        )
        assert rc == 1
        assert "is not a directory" in capsys.readouterr().err
        assert det_dir.exists() == (missing == "gt")
        assert not (det_dir / "eval_report.txt").exists()

    def test_without_report_writes_nothing(self, gt_dir, tmp_path, capsys):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        for p in gt_dir.glob("*.txt"):
            formats.write_detections(det_dir / p.name, [])
        files = sorted(p.name for p in det_dir.iterdir())
        outs = []
        for _ in range(2):
            assert cli.main(["eval", str(det_dir), str(gt_dir), "totaltext"]) == 0
            outs.append(capsys.readouterr().out)
            assert sorted(p.name for p in det_dir.iterdir()) == files
        assert outs[0] == outs[1] and "fn=4\n" in outs[0]

    def test_mismatched_ids_allowed_with_flag(self, gt_dir, tmp_path):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        formats.write_detections(det_dir / "other.txt", [])
        rc = cli.main(
            ["eval", str(det_dir), str(gt_dir), "totaltext", "--allow-missing"]
        )
        assert rc == 0


class TestRenderCommand:
    def test_one_gt_one_det_two_paths(self, tmp_path):
        gt = tmp_path / "gt.txt"
        formats.write_annotation_file(gt, [rect_annotation(10, 10, 80, 30)], "totaltext")
        det = tmp_path / "det.txt"
        from textshape.detect import Detection
        from textshape.geom import Polygon

        formats.write_detections(
            det, [Detection(polygon=Polygon.make([(12, 12), (88, 12), (88, 38), (12, 38)]), score=0.8)]
        )
        out = tmp_path / "o.svg"
        rc = cli.main(["render", "--gt", str(gt), "--det", str(det), str(out)])
        assert rc == 0
        svg = out.read_text()
        assert svg.count("<path") == 2
        assert svg.count("<g") == 2

    def test_quad_mode_adds_layer(self, tmp_path):
        det = tmp_path / "det.txt"
        from textshape.detect import Detection
        from textshape.geom import Polygon

        formats.write_detections(
            det, [Detection(polygon=Polygon.make([(0, 0), (40, 0), (40, 20), (0, 20)]), score=0.8)]
        )
        out = tmp_path / "o.svg"
        rc = cli.main(["render", "--det", str(det), "--quad", str(out)])
        assert rc == 0
        svg = out.read_text()
        assert 'id="quads"' in svg
        assert svg.count("<path") == 2
        quads = svg.split('id="quads"', 1)[1].split("</g>", 1)[0]
        assert quads.count("<path") == 1   # one quad per detection

    def test_canvas_holds_the_quads(self):
        # this triangle's minimum-area rectangle reaches y = 62.41, past the
        # triangle's own y = 50, and x = -8.97, left of the origin
        from textshape.detect import Detection
        from textshape.geom import Polygon
        from textshape.render import render_svg

        det = Detection(polygon=Polygon.make([(0, 0), (100, 40), (60, 50)]), score=0.8)
        assert 'height="52"' in render_svg([], [det])
        assert 'width="113" height="64" viewBox="-11 0 113 64"' in render_svg(
            [], [det], with_quads=True
        )

    def test_canvas_starts_below_a_negative_ring(self):
        # the rectangle (-40,-10)-(30,20): 2 below its minimum on each axis
        from textshape.detect import Detection
        from textshape.geom import Polygon
        from textshape.render import render_svg

        det = Detection(polygon=Polygon.make([(-40, -10), (30, -10), (30, 20), (-40, 20)]), score=1)
        svg = render_svg([], [det])
        assert 'width="74" height="34" viewBox="-42 -12 74 34"' in svg

    def test_empty_inputs_valid_svg(self, tmp_path):
        out = tmp_path / "o.svg"
        rc = cli.main(["render", str(out)])
        assert rc == 0
        svg = out.read_text()
        assert svg.startswith("<?xml") and "</svg>" in svg
        assert svg.count("<path") == 0

    def test_deterministic(self, tmp_path):
        gt = tmp_path / "gt.txt"
        formats.write_annotation_file(gt, [rect_annotation(10, 10, 80, 30)], "totaltext")
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        assert cli.main(["render", "--gt", str(gt), str(a)]) == 0
        assert cli.main(["render", "--gt", str(gt), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestNetplanCommand:
    def test_512_table(self, capsys):
        rc = cli.main(["netplan", "512", "512", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "16x16" in out
        assert "ch2.conv5^2" in out

    def test_indivisible_exits_one(self, capsys):
        rc = cli.main(["netplan", "520", "512", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "conv5" in err

    def test_single_channel(self):
        assert cli.main(["netplan", "512", "512", "1"]) == 0


class TestDeterminismAndConfig:
    def test_rerun_byte_identical(self, gt_dir, tmp_path):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        for out in (out1, out2):
            assert cli.main(["encode", str(gt_dir), "totaltext", str(out)]) == 0
        for name in ("img_a.msrr", "img_b.msrr", "img_c.msrr"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_run_config_serialized(self, gt_dir, tmp_path):
        keys = {
            "alpha", "iou_threshold", "min_cells", "min_points", "mode",
            "noise_sigma", "prob_threshold", "seed", "stride",
        }
        labels = tmp_path / "labels"
        assert cli.main(["encode", str(gt_dir), "totaltext", str(labels), "--stride", "4"]) == 0
        cfg = json.loads((labels / "run_config.json").read_text())
        assert cfg["stride"] == 4
        assert cfg["mode"] == "polygon"
        assert set(cfg) == keys
        dets = tmp_path / "dets"
        assert cli.main(["decode", str(labels), str(dets), "--alpha", "0.1"]) == 0
        cfg = json.loads((dets / "run_config.json").read_text())
        assert cfg["alpha"] == 0.1
        assert set(cfg) == keys

    def test_noise_flag_is_seeded(self, gt_dir, tmp_path):
        labels = tmp_path / "labels"
        cli.main(["encode", str(gt_dir), "totaltext", str(labels)])
        d1 = tmp_path / "d1"
        d2 = tmp_path / "d2"
        for d in (d1, d2):
            assert cli.main(
                ["decode", str(labels), str(d), "--noise-sigma", "1.0", "--seed", "5"]
            ) == 0
        for p in d1.glob("*.txt"):
            assert p.read_bytes() == (d2 / p.name).read_bytes()


# Fixed forms over the gt_dir fixture, run in order from its parent directory.
BYTE_IDENTITY_FORMS = [
    "encode gt totaltext enc1",
    "encode gt totaltext enc4 --stride 4",
    "decode enc1 dec",
    "decode enc1 decn --noise-sigma 1 --seed 5",
    "roundtrip gt totaltext rt/r.txt",
    "roundtrip gt totaltext rtn/r.txt --noise-sigma 1 --seed 5",
    "eval dec gt totaltext --report evp/eval.txt",
    "eval decn gt totaltext --mode quad --report evq/eval.txt",
    "render --gt gt/img_c.txt --det dec/img_c.txt plain.svg",
    "render --gt gt/img_b.txt --det decn/img_b.txt --quad quad.svg",
    "netplan 512 512 2",
]


def test_outputs_byte_identical(gt_dir, tmp_path, monkeypatch, capsys):
    """One SHA-256 over every form's exit code, stdout and stderr and over every file
    written (relative name plus bytes). A refactor that changes no output keeps it."""
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for argv in BYTE_IDENTITY_FORMS:
        rc = cli.main(argv.split())
        captured = capsys.readouterr()
        for part in (argv, str(rc), captured.out, captured.err.replace(str(tmp_path), "TMP")):
            h.update(part.encode() + b"\0")
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        h.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == "6238346cddb185d00c23be349593dbff1a658698c3188a0365710675a0a43d8d"


class TestFlags:
    DECODE = {"--alpha", "--prob-threshold", "--min-points", "--min-cells", "--seed",
              "--noise-sigma"}
    EXPECTED = {
        "encode": {"--stride"},
        "decode": DECODE,
        "roundtrip": {"--stride", "--min-mean-iou", "--min-instance-iou"} | DECODE,
        "eval": {"--iou-threshold", "--mode", "--report", "--allow-missing"},
        "render": {"--gt", "--format", "--det", "--quad"},
        "netplan": set(),
    }

    def test_each_subcommand_has_only_the_flags_it_reads(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert got == self.EXPECTED
        assert sum(len(got[c]) for c in ("encode", "decode", "roundtrip", "eval")) == 20

    def test_unread_flag_is_a_usage_error(self, gt_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["encode", str(gt_dir), "totaltext", str(tmp_path / "o"), "--alpha", "0.1"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["encode", "roundtrip"])
    @pytest.mark.parametrize("stride", ["0", "-1"])
    def test_bad_stride_reads_and_writes_nothing(self, gt_dir, tmp_path, capsys, command, stride):
        (gt_dir / "img_bad.txt").write_bytes(b"\x80\n")   # an error of its own, if it were read
        out = tmp_path / "o"
        target = out if command == "encode" else out / "r.txt"
        rc = cli.main([command, str(gt_dir), "totaltext", str(target), "--stride", stride])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --stride must be at least 1, got {stride}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decode", "roundtrip"])
    @pytest.mark.parametrize("flag,value,err", [
        ("--alpha", "0", "alpha must be positive, got 0.0"),
        ("--alpha", "nan", "alpha must be positive, got nan"),
        ("--prob-threshold", "1.5", "prob_threshold must lie in (0, 1), got 1.5"),
        ("--min-points", "-1", "min_points must be at least 1, got -1"),
        ("--min-cells", "-5", "min_cells must be at least 1, got -5"),
        ("--noise-sigma", "nan", "noise_sigma must be finite and at least 0, got nan"),
        ("--noise-sigma", "-1", "noise_sigma must be finite and at least 0, got -1.0"),
    ], ids=["alpha-0", "alpha-nan", "prob-threshold-1.5", "min-points--1", "min-cells--5",
            "noise-sigma-nan", "noise-sigma--1"])
    def test_bad_decode_setting_reads_and_writes_nothing(self, gt_dir, tmp_path, capsys, command,
                                                         flag, value, err):
        (gt_dir / "img_bad.txt").write_bytes(b"\x80\n")   # an error of its own, if it were read
        labels = tmp_path / "labels"
        labels.mkdir()
        (labels / "img_bad.msrr").write_bytes(b"JUNK")   # likewise
        out = tmp_path / "o"
        argv = ([command, str(labels), str(out)] if command == "decode"
                else [command, str(gt_dir), "totaltext", str(out / "r.txt")])
        assert cli.main(argv + [flag, value]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--min-mean-iou", "nan"), ("--min-mean-iou", "-0.5"), ("--min-instance-iou", "1.5"),
    ])
    def test_bad_iou_gate_reads_and_writes_nothing(self, gt_dir, tmp_path, capsys, flag, value):
        (gt_dir / "img_bad.txt").write_bytes(b"\x80\n")   # an error of its own, if it were read
        out = tmp_path / "o"
        assert cli.main(["roundtrip", str(gt_dir), "totaltext", str(out / "r.txt"), flag, value]) == 1
        assert capsys.readouterr().err == f"error: {flag} must lie in [0, 1], got {float(value)}\n"
        assert not out.exists()

    def test_bad_iou_threshold_reads_nothing(self, gt_dir, tmp_path, capsys):
        det_dir = tmp_path / "dets"
        det_dir.mkdir()
        (det_dir / "img_a.txt").write_bytes(b"\x80\n")   # an error of its own, if it were read
        argv = ["eval", str(det_dir), str(gt_dir), "totaltext", "--iou-threshold", "nan",
                "--report", str(tmp_path / "o" / "r.txt")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: iou_threshold must lie in (0, 1], got nan\n"
        assert not (tmp_path / "o").exists()


def _hostile_tree(root):
    """Inputs no subcommand may answer with a traceback, under ``root``."""
    from textshape.detect import PredictionRaster

    (root / "gt").mkdir()
    formats.write_annotation_file(root / "gt" / "a.txt", [rect_annotation(10, 10, 120, 40)],
                                  "totaltext")
    (root / "binary").mkdir()
    for name in ("a.txt", "a.msrr"):
        (root / "binary" / name).write_bytes(bytes(range(256)) * 4)
    (root / "dets").mkdir()
    formats.write_detections(root / "dets" / "a.txt", [])
    (root / "empty").mkdir()
    (root / "dirs" / "x.msrr").mkdir(parents=True)
    (root / "nan").mkdir()
    grid = RasterGrid(width=140, height=60, stride=1)
    label = ts.encode([rect_annotation(10, 10, 120, 40)], grid)
    prob = label.mask.astype(np.float32)
    dist_x = label.dist_x.copy()
    rows, cols = np.nonzero(label.mask)
    prob[rows[::50], cols[::50]] = np.nan
    dist_x[rows[7::50], cols[7::50]] = np.nan
    formats.write_raster(
        root / "nan" / "p.msrr",
        PredictionRaster(grid=grid, prob=prob, dist_x=dist_x, dist_y=label.dist_y),
    )
    (root / "file").write_text("not a directory\n")
    (root / "huge").mkdir()   # a 3e6 px extent: a 9e12-cell grid
    (root / "huge" / "a.txt").write_text("0,0,3000000,0,3000000,3000000,0,3000000\n")
    (root / "blank").mkdir()   # one annotated file, one with no annotations
    formats.write_annotation_file(root / "blank" / "a.txt", [rect_annotation(10, 10, 120, 40)],
                                  "totaltext")
    (root / "blank" / "b.txt").write_text("")
    (root / "blanks").mkdir()
    (root / "blanks" / "b.txt").write_text("\n")
    (root / "big").mkdir()   # finite coordinates whose products overflow
    (root / "big" / "a.txt").write_text("0,0,1e200,0,1e200,1e200,0,1e200\n")
    (root / "zero").mkdir()   # one raster without a positive cell
    zeros = np.zeros((32, 32), dtype=np.float32)
    formats.write_raster(
        root / "zero" / "p.msrr",
        PredictionRaster(grid=RasterGrid(32, 32), prob=zeros, dist_x=zeros, dist_y=zeros),
    )
    (root / "bigdet").mkdir()
    (root / "bigdet" / "a.txt").write_text("0.5,3,0,0,1e200,0,0,1e200\n")


# (argv, exit code, text stderr must hold); paths are relative to _hostile_tree's root.
HOSTILE = [
    ("encode binary totaltext out", 1, "error: binary/a.txt"),
    ("encode missing totaltext out", 1, "error: missing is not a directory"),
    ("encode empty totaltext out", 0, ""),
    ("encode gt totaltext file/out", 1, "error:"),
    ("encode huge ctw1500 out", 1,
     f"error: huge/a.txt: grid 3000000x3000000 exceeds the budget of {MAX_GRID_CELLS} cells"),
    ("encode blank totaltext out", 1, "error: blank/b.txt: no annotations, image size unknown"),
    ("encode gt totaltext out --stride 0", 1, "error: --stride must be at least 1, got 0"),
    ("encode gt totaltext out --stride -1", 1, "error: --stride must be at least 1, got -1"),
    ("encode big ctw1500 out", 1, "error: big/a.txt:1: coordinate '1e200' exceeds 1e+15"),
    ("decode binary out", 1, "error: binary/a.msrr"),
    ("decode missing out", 1, "error: missing is not a directory"),
    ("decode dirs out", 0, ""),
    ("decode nan out", 0, "cells with non-finite prob or distance"),
    ("decode empty out", 0, ""),
    ("decode nan file/out", 1, "error:"),
    ("decode zero out --alpha 0", 1, "error: alpha must be positive, got 0.0"),
    ("decode zero out --alpha nan", 1, "error: alpha must be positive, got nan"),
    ("decode zero out --prob-threshold 1.5", 1, "error: prob_threshold must lie in (0, 1)"),
    ("decode zero out --noise-sigma nan", 1,
     "error: noise_sigma must be finite and at least 0, got nan"),
    ("decode zero out --noise-sigma -1", 1,
     "error: noise_sigma must be finite and at least 0, got -1.0"),
    ("decode zero out --min-cells -5", 1, "error: min_cells must be at least 1, got -5"),
    ("decode zero out --min-points -1", 1, "error: min_points must be at least 1, got -1"),
    ("roundtrip binary totaltext r.txt", 1, "error: binary/a.txt: not UTF-8"),
    ("roundtrip missing totaltext r.txt", 1, "error: missing is not a directory"),
    ("roundtrip empty totaltext r.txt", 1, "error: no annotations in empty"),
    ("roundtrip gt totaltext file/r.txt", 1, "error:"),
    ("roundtrip huge ctw1500 r.txt", 1, "error: huge/a.txt: grid 3000000x3000000 exceeds"),
    ("roundtrip blank totaltext r.txt", 0, ""),
    ("roundtrip blanks totaltext r.txt", 1, "error: no annotations in blanks"),
    ("roundtrip gt totaltext r.txt --stride 0", 1, "error: --stride must be at least 1, got 0"),
    ("roundtrip gt totaltext r.txt --stride -1", 1, "error: --stride must be at least 1, got -1"),
    ("roundtrip blanks totaltext r.txt --alpha 0", 1, "error: alpha must be positive"),
    ("roundtrip blanks totaltext r.txt --alpha nan", 1, "error: alpha must be positive"),
    ("roundtrip blanks totaltext r.txt --prob-threshold 1.5", 1,
     "error: prob_threshold must lie in (0, 1)"),
    ("roundtrip blanks totaltext r.txt --min-mean-iou nan", 1,
     "error: --min-mean-iou must lie in [0, 1], got nan"),
    ("eval binary gt totaltext", 1, "error: binary/a.txt: not UTF-8"),
    ("eval dets binary totaltext", 1, "error: binary/a.txt: not UTF-8"),
    ("eval missing gt totaltext", 1, "error: missing is not a directory"),
    ("eval dets missing totaltext", 1, "error: missing is not a directory"),
    ("eval empty empty totaltext", 0, ""),
    ("eval bigdet gt totaltext", 1, "error: bigdet/a.txt:1: coordinate '1e200' exceeds 1e+15"),
    ("eval dets gt totaltext --report file/r.txt", 1, "error:"),
    ("render --gt binary/a.txt o.svg", 1, "error: binary/a.txt: not UTF-8"),
    ("render --det binary/a.txt o.svg", 1, "error: binary/a.txt: not UTF-8"),
    ("render --gt missing.txt o.svg", 1, "error:"),
    ("render --det missing.txt o.svg", 1, "error:"),
    ("render --gt big/a.txt --format ctw1500 o.svg", 1,
     "error: big/a.txt:1: coordinate '1e200' exceeds 1e+15"),
    ("render missing/o.svg", 1, "error:"),
    ("render file/o.svg", 1, "error:"),
    ("netplan 512 512 0", 1, "error: need at least one channel"),
    ("netplan -512 512 2", 1, "error: height and width must be at least 1, got -512x512"),
    ("netplan 0 0 1", 1, "error: height and width must be at least 1, got 0x0"),
    ("netplan 512 512 1000000000000", 1,
     "error: 1000000000000 channels down-sample 512x512 below one cell"),
]


@pytest.mark.parametrize("argv,code,err", HOSTILE, ids=[h[0] for h in HOSTILE])
def test_hostile_input_exits_cleanly(tmp_path, monkeypatch, capsys, argv, code, err):
    _hostile_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        rc = cli.main(argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == code
    assert err in captured.err
    assert captured.err.count("error:") == (1 if code == 1 else 0)
    assert "Traceback" not in captured.err
    assert peak < 64 * 2**20   # no input sizes an allocation by its claims
