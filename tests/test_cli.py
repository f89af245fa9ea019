import json

import numpy as np
import pytest

from textshape import cli, formats
from textshape.labels import RasterGrid
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
        out = tmp_path / "o"
        assert cli.main(
            ["encode", str(gt_dir), "totaltext", str(out), "--stride", "4", "--alpha", "0.1"]
        ) == 0
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["stride"] == 4
        assert cfg["alpha"] == 0.1
        assert cfg["mode"] == "polygon"
        assert set(cfg) == {
            "alpha", "iou_threshold", "min_cells", "min_points", "mode",
            "noise_sigma", "prob_threshold", "seed", "stride",
        }

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
