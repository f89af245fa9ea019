"""Annotation parsers, the MSRR binary raster format and the detection
interchange format.

Annotation text formats (one instance per line):

* ctw1500:   ``x1,y1,...,x14,y14`` integer pairs, upper chain left to right
  then lower chain right to left (any even vertex count >= 4 is accepted in
  the same convention).
* icdar2015: ``x1,y1,...,x4,y4,transcription``; transcription ``###`` marks
  an ignore region; commas inside the transcription are kept.
* msra_td500: ``index difficulty x y w h angle`` whitespace separated,
  angle in radians about the box center; difficulty 1 marks ignore.
* totaltext: ``n,x1,y1,...,xn,yn[,ignore]`` with even n >= 4 in the
  ctw1500 vertex convention; coordinates may be decimal.

MSRR rasters: magic ``4D 53 52 52``, then little-endian u32 version(=1),
width, height, stride, channel_count, then channel_count planes of
row-major little-endian f32. Labels use 4 channels (mask, dist_x, dist_y,
ignore_mask); predictions use 3 (prob, dist_x, dist_y).

Detections: ``score,n,x1,y1,...,xn,yn`` with three decimal places.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detect import Detection, PredictionRaster
from .labels import (
    AnnotationPolygon,
    LabelRaster,
    MalformedAnnotationError,
    RasterGrid,
    split_sides,
)
from .geom import Polygon, shoelace_area

MSRR_MAGIC = b"MSRR"
MSRR_VERSION = 1
ANNOTATION_FORMATS = ("ctw1500", "icdar2015", "msra_td500", "totaltext")


class ParseError(ValueError):
    """Malformed input line; carries file/line context when known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:{line}: " if line is not None else f"{path}: "
        elif line is not None:
            where = f"line {line}: "
        super().__init__(where + message)


class RasterFormatError(ValueError):
    """Bad magic, truncated payload or unsupported MSRR layout."""


def _floats(tokens: list[str], what: str) -> list[float]:
    out = []
    for tok in tokens:
        try:
            v = float(tok)
        except ValueError:
            raise ParseError(f"non-numeric {what} {tok!r}") from None
        if not math.isfinite(v):
            raise ParseError(f"non-finite {what} {tok!r}")
        out.append(v)
    return out


def _ring_annotation(coords: list[float]) -> AnnotationPolygon:
    pts = np.array(coords, dtype=np.float64).reshape(-1, 2)
    try:
        return split_sides(pts)
    except MalformedAnnotationError as exc:
        raise ParseError(str(exc)) from None


def parse_ctw1500(line: str) -> AnnotationPolygon:
    """Parse one ctw1500-style instance line."""
    tokens = [t for t in line.strip().split(",")]
    if len(tokens) < 8 or len(tokens) % 4 != 0:
        raise ParseError(
            f"expected a multiple of 4 coordinates (even vertex count), got {len(tokens)} tokens"
        )
    return _ring_annotation(_floats(tokens, "coordinate"))


def parse_icdar2015(line: str) -> AnnotationPolygon:
    """Parse one icdar2015 quadrilateral line with transcription."""
    parts = line.strip().split(",")
    if len(parts) < 9:
        raise ParseError(f"expected 8 coordinates plus transcription, got {len(parts)} fields")
    coords = _floats(parts[:8], "coordinate")
    transcription = ",".join(parts[8:])
    ann = _ring_annotation(coords)
    ann.ignore = transcription == "###"
    return ann


def parse_msra_td500(line: str) -> AnnotationPolygon:
    """Parse one msra_td500 rotated-rectangle line."""
    parts = line.split()
    if len(parts) != 7:
        raise ParseError(f"expected 7 whitespace-separated fields, got {len(parts)}")
    idx, difficulty, x, y, w, h, angle = _floats(parts, "field")
    if w <= 0 or h <= 0:
        raise ParseError(f"non-positive box size {w}x{h}")
    cx, cy = x + w / 2.0, y + h / 2.0
    corners = np.array(
        [[x, y], [x + w, y], [x + w, y + h], [x, y + h]], dtype=np.float64
    )
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    with np.errstate(over="ignore", invalid="ignore"):   # overflow is rejected below
        corners = (corners - [cx, cy]) @ rot.T + [cx, cy]
    if not np.isfinite(corners).all():
        raise ParseError("box corners overflow to non-finite coordinates")
    try:
        ann = AnnotationPolygon.make(corners[:2], corners[2:][::-1])
    except MalformedAnnotationError as exc:
        raise ParseError(str(exc)) from None
    ann.ignore = difficulty == 1
    return ann


def parse_totaltext(line: str) -> AnnotationPolygon:
    """Parse one totaltext polygon line ``n,x1,y1,...,xn,yn[,ignore]``."""
    parts = line.strip().split(",")
    if len(parts) < 2:
        raise ParseError("empty or header-only line")
    try:
        n = int(parts[0])
    except ValueError:
        raise ParseError(f"bad vertex count {parts[0]!r}") from None
    if n < 4 or n % 2 != 0:
        raise ParseError(f"vertex count must be even and >= 4, got {n}")
    rest = parts[1:]
    if len(rest) == 2 * n + 1:
        flag = rest[-1].strip()
        if flag not in ("0", "1"):
            raise ParseError(f"bad ignore flag {flag!r}")
        ignore = flag == "1"
        rest = rest[:-1]
    elif len(rest) == 2 * n:
        ignore = False
    else:
        raise ParseError(f"expected {2 * n} coordinates for n={n}, got {len(rest)}")
    ann = _ring_annotation(_floats(rest, "coordinate"))
    ann.ignore = ignore
    return ann


_PARSERS = {
    "ctw1500": parse_ctw1500,
    "icdar2015": parse_icdar2015,
    "msra_td500": parse_msra_td500,
    "totaltext": parse_totaltext,
}


def parse_annotation_line(line: str, fmt: str) -> AnnotationPolygon:
    try:
        parser = _PARSERS[fmt]
    except KeyError:
        raise ValueError(f"unknown annotation format {fmt!r}") from None
    return parser(line)


def _fmt_coord(v: float) -> str:
    """Shortest exact decimal for a coordinate (ints stay ints)."""
    v = float(v)
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def format_ctw1500(ann: AnnotationPolygon) -> str:
    ring = ann.closed_vertices()
    return ",".join(_fmt_coord(v) for v in ring.ravel())


def format_icdar2015(ann: AnnotationPolygon, transcription: str | None = None) -> str:
    ring = ann.closed_vertices()
    if len(ring) != 4:
        raise ValueError("icdar2015 lines require quadrilaterals")
    text = transcription if transcription is not None else ("###" if ann.ignore else "text")
    return ",".join(_fmt_coord(v) for v in ring.ravel()) + "," + text


def format_msra_td500(ann: AnnotationPolygon, index: int = 0) -> str:
    ring = ann.closed_vertices()
    if len(ring) != 4:
        raise ValueError("msra_td500 lines require rectangles")
    center = ring.mean(axis=0)
    e1 = ring[1] - ring[0]
    e2 = ring[3] - ring[0]
    w = float(np.hypot(*e1))
    h = float(np.hypot(*e2))
    angle = float(math.atan2(e1[1], e1[0]))
    x, y = float(center[0] - w / 2.0), float(center[1] - h / 2.0)
    difficulty = 1 if ann.ignore else 0
    return f"{index} {difficulty} {x!r} {y!r} {w!r} {h!r} {angle!r}"


def format_totaltext(ann: AnnotationPolygon) -> str:
    ring = ann.closed_vertices()
    coords = ",".join(_fmt_coord(v) for v in ring.ravel())
    return f"{len(ring)},{coords},{1 if ann.ignore else 0}"


_FORMATTERS = {
    "ctw1500": format_ctw1500,
    "icdar2015": format_icdar2015,
    "msra_td500": format_msra_td500,
    "totaltext": format_totaltext,
}


def format_annotation_line(ann: AnnotationPolygon, fmt: str) -> str:
    try:
        formatter = _FORMATTERS[fmt]
    except KeyError:
        raise ValueError(f"unknown annotation format {fmt!r}") from None
    return formatter(ann)


@dataclass
class DatasetRecord:
    image_id: str
    image_size: tuple[int, int]
    annotations: list[AnnotationPolygon] = field(default_factory=list)
    clipped_vertices: int = 0


def _read_lines(path: Path) -> list[str]:
    """Lines of a UTF-8 text file; undecodable bytes are a ParseError naming it."""
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParseError(f"not UTF-8 text: byte {byte:#04x} at offset {exc.start}",
                         path=str(path)) from None


def read_annotation_file(
    path: str | Path, fmt: str, image_size: tuple[int, int] | None = None
) -> DatasetRecord:
    """Read one per-image annotation file.

    When image_size (W, H) is given, vertices are clamped to the image
    bounds and the number of clipped vertices recorded; otherwise the size
    is taken from the annotation extents rounded up.
    """
    path = Path(path)
    annotations = []
    clipped = 0
    max_x = max_y = 0.0
    for lineno, raw in enumerate(_read_lines(path), start=1):
        if not raw.strip():
            continue
        try:
            ann = parse_annotation_line(raw, fmt)
        except ParseError as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from None
        if image_size is not None:
            for chain in (ann.upper, ann.lower):
                over = (chain[:, 0] < 0) | (chain[:, 0] > image_size[0]) | (
                    chain[:, 1] < 0
                ) | (chain[:, 1] > image_size[1])
                clipped += int(over.sum())
                chain[:, 0] = np.clip(chain[:, 0], 0, image_size[0])
                chain[:, 1] = np.clip(chain[:, 1], 0, image_size[1])
            if abs(shoelace_area(ann.closed_vertices())) <= 1e-9:
                # Fully outside the image; clipping flattened it away.
                continue
        ring = ann.closed_vertices()
        max_x = max(max_x, float(ring[:, 0].max()))
        max_y = max(max_y, float(ring[:, 1].max()))
        annotations.append(ann)
    size = image_size if image_size is not None else (int(math.ceil(max_x)), int(math.ceil(max_y)))
    return DatasetRecord(
        image_id=path.stem,
        image_size=size,
        annotations=annotations,
        clipped_vertices=clipped,
    )


def write_annotation_file(path: str | Path, annotations: list[AnnotationPolygon], fmt: str) -> None:
    lines = [format_annotation_line(a, fmt) for a in annotations]
    Path(path).write_text("".join(line + "\n" for line in lines))


def write_raster(path: str | Path, raster: LabelRaster | PredictionRaster) -> None:
    """Serialize a raster to the MSRR binary format (always little endian)."""
    if isinstance(raster, LabelRaster):
        planes = [raster.mask, raster.dist_x, raster.dist_y, raster.ignore_mask]
    elif isinstance(raster, PredictionRaster):
        planes = [raster.prob, raster.dist_x, raster.dist_y]
    else:
        raise TypeError(f"cannot serialize {type(raster).__name__}")
    grid = raster.grid
    header = MSRR_MAGIC + struct.pack(
        "<5I", MSRR_VERSION, grid.width, grid.height, grid.stride, len(planes)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for plane in planes:
            fh.write(np.ascontiguousarray(plane, dtype="<f4").tobytes())


def read_raster(path: str | Path) -> LabelRaster | PredictionRaster:
    """Read an MSRR file; 4 channels decode as labels, 3 as predictions.

    Label masks come back as uint8, as encode makes them; a mask plane with
    a value other than 0 or 1 is a RasterFormatError.
    """
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24 or header[:4] != MSRR_MAGIC:
            raise RasterFormatError(f"{path}: not an MSRR file")
        version, width, height, stride, channels = struct.unpack("<5I", header[4:])
        if version != MSRR_VERSION:
            raise RasterFormatError(f"{path}: unsupported MSRR version {version}")
        if width < 1 or height < 1 or stride < 1:
            raise RasterFormatError(f"{path}: bad dimensions {width}x{height} stride {stride}")
        try:   # the cell budget, checked before the payload is read
            grid = RasterGrid(width=width, height=height, stride=stride)
        except ValueError as exc:
            raise RasterFormatError(f"{path}: {exc}") from None
        blob = fh.read()
    size = width * height * 4
    if len(blob) != channels * size:
        raise RasterFormatError(
            f"{path}: truncated payload, expected {24 + channels * size} bytes, "
            f"got {24 + len(blob)}"
        )
    planes = []
    off = 0
    for _ in range(channels):
        planes.append(
            np.frombuffer(blob[off : off + size], dtype="<f4").reshape(height, width).copy()
        )
        off += size
    if channels == 4:
        flags = []
        for plane in (planes[0], planes[3]):
            if not np.isin(plane, (0.0, 1.0)).all():
                raise RasterFormatError(f"{path}: label mask holds a value other than 0 or 1")
            flags.append(plane.astype(np.uint8))
        return LabelRaster(
            grid=grid,
            mask=flags[0],
            dist_x=planes[1],
            dist_y=planes[2],
            ignore_mask=flags[1],
        )
    if channels == 3:
        return PredictionRaster(grid=grid, prob=planes[0], dist_x=planes[1], dist_y=planes[2])
    raise RasterFormatError(f"{path}: unsupported channel count {channels}")


def write_detections(path: str | Path, detections: list[Detection]) -> None:
    """One ``score,n,x1,y1,...`` line per detection, 3 decimal places."""
    lines = []
    for det in detections:
        v = det.polygon.vertices
        coords = ",".join(f"{c:.3f}" for c in v.ravel())
        lines.append(f"{det.score:.3f},{len(v)},{coords}")
    Path(path).write_text("".join(line + "\n" for line in lines))


def read_detections(path: str | Path) -> list[Detection]:
    path = Path(path)
    dets = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
        if not raw.strip():
            continue
        parts = raw.strip().split(",")
        if len(parts) < 2:
            raise ParseError("expected score,n,coords", path=str(path), line=lineno)
        try:
            score = float(parts[0])
            n = int(parts[1])
        except ValueError:
            raise ParseError(
                f"bad score/count {parts[:2]!r}", path=str(path), line=lineno
            ) from None
        if not (0.0 <= score <= 1.0) or n < 3:
            raise ParseError(
                f"score {score} outside [0,1] or n={n} < 3", path=str(path), line=lineno
            )
        if len(parts) != 2 + 2 * n:
            raise ParseError(
                f"expected {2 * n} coordinates for n={n}, got {len(parts) - 2}",
                path=str(path),
                line=lineno,
            )
        try:
            coords = _floats(parts[2:], "coordinate")
        except ParseError as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from None
        try:
            poly = Polygon.make(np.array(coords).reshape(-1, 2))
        except ValueError as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from None
        dets.append(Detection(polygon=poly, score=score))
    return dets
