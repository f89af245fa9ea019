"""Batch command line: encode / decode / roundtrip / eval / render / netplan.

Each subcommand takes only the flags it reads: encode ``--stride``; decode
``--alpha --prob-threshold --min-points --min-cells --seed --noise-sigma``;
roundtrip ``--stride``, those six and ``--min-mean-iou --min-instance-iou``;
eval ``--iou-threshold --mode --report --allow-missing``.

Exit status contract: 0 success; 1 for a setting rejected before any input
is read (a ``--stride``, ``--min-points`` or ``--min-cells`` below 1, an
``--alpha`` not above 0, a ``--prob-threshold`` outside (0, 1), a
``--noise-sigma`` that is negative or not finite, a ``--min-mean-iou`` or
``--min-instance-iou`` outside [0, 1], an ``--iou-threshold`` outside
(0, 1]; NaN is rejected everywhere; a netplan height or width below 1, or
a channel count below 1 or above the larger side's bit length) and for any
missing, unreadable or malformed input (a grid over
``labels.MAX_GRID_CELLS``, an annotation file with no annotations given to
encode and a roundtrip over no annotations included), reported as one
``error:`` line on stderr, or one per failed file for encode and decode,
that names the flag or the file once; 2 for a roundtrip threshold failure
or an argparse usage error. Roundtrip skips
annotation files with no annotations. Every command is deterministic given
its inputs, configuration and seed, and every output directory receives the
serialized run configuration; eval writes only under ``--report``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluate, formats, netplan, render
from .detect import DecodeConfig, DecodeDiagnostics, PredictionRaster, add_distance_noise, decode
from .labels import RasterGrid, encode

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_THRESHOLD = 2

# Raised by bad input: ParseError, RasterFormatError and ShapePlanError are ValueErrors.
INPUT_ERRORS = (ValueError, OSError)


@dataclass
class RunConfig(DecodeConfig):
    """Every CLI setting; the flags and run_config.json take their defaults from here."""

    stride: int = 1
    iou_threshold: float = 0.5
    mode: str = "polygon"
    seed: int = 0
    noise_sigma: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not self.stride >= 1:
            raise ValueError(f"--stride must be at least 1, got {self.stride}")
        if not 0.0 <= self.noise_sigma < np.inf:   # NaN fails too
            raise ValueError(f"noise_sigma must be finite and at least 0, got {self.noise_sigma}")
        evaluate._check_match_args(self.iou_threshold, self.mode)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        return cls(**{f.name: getattr(args, f.name)
                      for f in dataclasses.fields(cls) if hasattr(args, f.name)})

    def dump(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "run_config.json").write_text(
            json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"
        )


# RunConfig field -> argparse kwargs; the default comes from RunConfig.
_FLAGS = {
    "stride": {"type": int},
    "alpha": {"type": float},
    "prob_threshold": {"type": float},
    "iou_threshold": {"type": float},
    "mode": {"choices": ("polygon", "quad")},
    "min_points": {"type": int},
    "min_cells": {"type": int},
    "seed": {"type": int},
    "noise_sigma": {"type": float},
}
_DECODE_FLAGS = ("alpha", "prob_threshold", "min_points", "min_cells", "seed", "noise_sigma")


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(
            "--" + name.replace("_", "-"), default=getattr(RunConfig, name), **_FLAGS[name]
        )


def _files(directory: Path, pattern: str) -> list[Path]:
    """Sorted regular files in ``directory`` matching ``pattern``."""
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    return sorted(p for p in directory.glob(pattern) if p.is_file())


def cmd_encode(args) -> int:
    cfg = RunConfig.from_args(args)
    out_dir = Path(args.out_dir)
    files = _files(Path(args.gt_dir), "*.txt")
    failures = []
    written = instances = conflicts = 0
    cfg.dump(out_dir)
    for path in files:
        try:   # the reader's errors already name the file
            record = formats.read_annotation_file(path, args.format)
        except INPUT_ERRORS as exc:
            failures.append(str(exc))
            continue
        try:
            if not record.annotations:
                raise ValueError("no annotations, image size unknown")
            grid = RasterGrid.for_image(*record.image_size, stride=cfg.stride)
            raster = encode(record.annotations, grid)
        except ValueError as exc:
            failures.append(f"{path}: {exc}")
            continue
        formats.write_raster(out_dir / f"{record.image_id}.msrr", raster)
        written += 1
        instances += raster.stats.instances
        conflicts += raster.stats.conflict_cells
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    print(f"encoded {written} files, {instances} instances, {conflicts} conflict cells")
    return EXIT_INPUT if failures else EXIT_OK


def cmd_decode(args) -> int:
    cfg = RunConfig.from_args(args)
    out_dir = Path(args.out_dir)
    files = _files(Path(args.pred_dir), "*.msrr")
    cfg.dump(out_dir)
    failures = []
    total = 0
    for path in files:
        try:
            raster = formats.read_raster(path)
        except INPUT_ERRORS as exc:
            failures.append(str(exc))
            continue
        pred = (
            raster
            if isinstance(raster, PredictionRaster)
            else PredictionRaster.from_label(raster)
        )
        pred = add_distance_noise(pred, cfg.noise_sigma, cfg.seed)
        diag = DecodeDiagnostics()
        dets = decode(pred, cfg, diag)
        if diag.nonfinite:
            print(f"warning: {path}: dropped {diag.nonfinite} cells with non-finite "
                  "prob or distance", file=sys.stderr)
        formats.write_detections(out_dir / f"{path.stem}.txt", dets)
        total += len(dets)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    print(f"decoded {total} detections")
    return EXIT_INPUT if failures else EXIT_OK


def cmd_roundtrip(args) -> int:
    cfg = RunConfig.from_args(args)
    for flag, value in (("--min-mean-iou", args.min_mean_iou),
                        ("--min-instance-iou", args.min_instance_iou)):
        if not 0.0 <= value <= 1.0:   # NaN fails too
            raise ValueError(f"{flag} must lie in [0, 1], got {value}")
    report_path = Path(args.report)
    rows = []
    gt_total = det_total = 0
    for path in _files(Path(args.gt_dir), "*.txt"):
        record = formats.read_annotation_file(path, args.format)
        if not record.annotations:   # no instances to score, and no image size
            continue
        try:
            grid = RasterGrid.for_image(*record.image_size, stride=cfg.stride)
            ious, n_dets = evaluate.roundtrip(
                record.annotations, grid, cfg, cfg.noise_sigma, cfg.seed
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        gt_total += len(ious)
        det_total += n_dets
        rows.extend((record.image_id, gi, iou) for gi, iou in enumerate(ious))

    if not rows:
        raise ValueError(f"no annotations in {args.gt_dir}")
    ious = np.array([iou for _, _, iou in rows])
    mean_iou = float(ious.mean())
    min_iou = float(ious.min())
    lines = [f"{img},{gi},{iou:.4f}" for img, gi, iou in rows]
    lines.append(f"instances={len(rows)}")
    lines.append(f"detections={det_total}")
    lines.append(f"count_preserved={int(det_total == gt_total)}")
    lines.append(f"mean_iou={mean_iou:.4f}")
    lines.append(f"min_iou={min_iou:.4f}")
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text("".join(line + "\n" for line in lines))
    cfg.dump(report_path.parent)
    print(f"mean_iou={mean_iou:.4f} min_iou={min_iou:.4f} instances={len(rows)}")
    if mean_iou < args.min_mean_iou or min_iou < args.min_instance_iou:
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = RunConfig.from_args(args)
    dets = {p.stem: formats.read_detections(p) for p in _files(Path(args.det_dir), "*.txt")}
    gts = {
        p.stem: formats.read_annotation_file(p, args.format).annotations
        for p in _files(Path(args.gt_dir), "*.txt")
    }
    report = evaluate.evaluate_dataset(
        dets,
        gts,
        iou_threshold=cfg.iou_threshold,
        mode=cfg.mode,
        allow_missing=args.allow_missing,
    )
    lines = evaluate.report_lines(report.overall)
    for line in lines:
        print(line)
    if not args.report:
        return EXIT_OK
    for image_id, rep in sorted(report.per_image.items()):
        lines.append(
            f"image {image_id}: tp={rep.tp} fp={rep.fp} fn={rep.fn} "
            f"ignored={rep.ignored_dets}"
        )
    for image_id in report.missing_detections:
        lines.append(f"missing detections: {image_id}")
    for image_id in report.missing_ground_truth:
        lines.append(f"missing ground truth: {image_id}")
    out = Path(args.report)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(line + "\n" for line in lines))
    cfg.dump(out.parent)
    return EXIT_OK


def cmd_render(args) -> int:
    gts = []
    dets = []
    if args.gt:
        gts = formats.read_annotation_file(args.gt, args.format).annotations
    if args.det:
        dets = formats.read_detections(args.det)
    svg = render.render_svg(gts, dets, with_quads=args.quad)
    Path(args.out).write_text(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_netplan(args) -> int:
    plan = netplan.shape_plan(args.height, args.width, args.channels)
    print(netplan.format_plan(plan))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textshape",
        description="Geometry codec and evaluation toolkit for boundary-regression text detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="annotation files -> MSRR label rasters")
    p.add_argument("gt_dir")
    p.add_argument("format", choices=formats.ANNOTATION_FORMATS)
    p.add_argument("out_dir")
    _add_flags(p, "stride")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="MSRR prediction rasters -> detection files")
    p.add_argument("pred_dir")
    p.add_argument("out_dir")
    _add_flags(p, *_DECODE_FLAGS)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("roundtrip", help="encode -> decode -> per-instance IoU report")
    p.add_argument("gt_dir")
    p.add_argument("format", choices=formats.ANNOTATION_FORMATS)
    p.add_argument("report")
    _add_flags(p, "stride", *_DECODE_FLAGS)
    p.add_argument("--min-mean-iou", dest="min_mean_iou", type=float, default=0.85)
    p.add_argument("--min-instance-iou", dest="min_instance_iou", type=float, default=0.75)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("det_dir")
    p.add_argument("gt_dir")
    p.add_argument("format", choices=formats.ANNOTATION_FORMATS)
    _add_flags(p, "iou_threshold", "mode")
    p.add_argument("--report", default=None)
    p.add_argument("--allow-missing", dest="allow_missing", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="render ground truth and detections to SVG")
    p.add_argument("--gt", default=None)
    p.add_argument("--format", choices=formats.ANNOTATION_FORMATS, default="totaltext")
    p.add_argument("--det", default=None)
    p.add_argument("--quad", action="store_true")
    p.add_argument("out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("netplan", help="print the multi-scale fusion shape plan")
    p.add_argument("height", type=int)
    p.add_argument("width", type=int)
    p.add_argument("channels", type=int, nargs="?", default=2)
    p.set_defaults(func=cmd_netplan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
