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

Every coordinate and field must be finite and at most ``MAX_COORD`` in
magnitude, and so must the corners computed from an msra_td500 box. The
file readers skip blank lines and report the first bad line as a
ParseError ``<path>:<line>: <message>``; a bad raster is a
RasterFormatError ``<path>: <message>``.
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
from .geom import MAX_COORD, Polygon

MSRR_MAGIC = b"MSRR"
MSRR_VERSION = 1


class ParseError(ValueError):
    """Malformed input line or text file."""


class RasterFormatError(ValueError):
    """Bad magic, a payload of the wrong size or an unsupported MSRR layout."""


def _floats(tokens: list[str], what: str) -> list[float]:
    out = []
    for tok in tokens:
        try:
            v = float(tok)
        except ValueError:
            raise ParseError(f"non-numeric {what} {tok!r}") from None
        if not math.isfinite(v):
            raise ParseError(f"non-finite {what} {tok!r}")
        if abs(v) > MAX_COORD:
            raise ParseError(f"{what} {tok!r} exceeds {MAX_COORD:g} in magnitude")
        out.append(v)
    return out


def _ring_annotation(coords, ignore: bool = False) -> AnnotationPolygon:
    try:
        return split_sides(np.reshape(coords, (-1, 2)), ignore=ignore)
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
    return _ring_annotation(coords, ignore=transcription == "###")


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
    ring = (corners - [cx, cy]) @ rot.T + [cx, cy]
    if np.abs(ring).max() > MAX_COORD:
        raise ParseError(f"box corner exceeds {MAX_COORD:g} in magnitude")
    return _ring_annotation(ring, ignore=difficulty == 1)


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
    return _ring_annotation(_floats(rest, "coordinate"), ignore=ignore)


def _fmt_coord(v: float) -> str:
    """Shortest exact decimal for a coordinate (ints stay ints)."""
    v = float(v)
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def format_ctw1500(ann: AnnotationPolygon) -> str:
    ring = ann.closed_vertices()
    return ",".join(_fmt_coord(v) for v in ring.ravel())


def format_icdar2015(ann: AnnotationPolygon) -> str:
    ring = ann.closed_vertices()
    if len(ring) != 4:
        raise ValueError("icdar2015 lines require quadrilaterals")
    text = "###" if ann.ignore else "text"
    return ",".join(_fmt_coord(v) for v in ring.ravel()) + "," + text


def format_msra_td500(ann: AnnotationPolygon) -> str:
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
    return f"0 {difficulty} {x!r} {y!r} {w!r} {h!r} {angle!r}"


def format_totaltext(ann: AnnotationPolygon) -> str:
    ring = ann.closed_vertices()
    coords = ",".join(_fmt_coord(v) for v in ring.ravel())
    return f"{len(ring)},{coords},{1 if ann.ignore else 0}"


_CODECS = {   # name: (parser, formatter)
    "ctw1500": (parse_ctw1500, format_ctw1500),
    "icdar2015": (parse_icdar2015, format_icdar2015),
    "msra_td500": (parse_msra_td500, format_msra_td500),
    "totaltext": (parse_totaltext, format_totaltext),
}
ANNOTATION_FORMATS = tuple(_CODECS)


def _codec(fmt: str) -> tuple:
    try:
        return _CODECS[fmt]
    except KeyError:
        raise ValueError(f"unknown annotation format {fmt!r}") from None


def parse_annotation_line(line: str, fmt: str) -> AnnotationPolygon:
    return _codec(fmt)[0](line)


def format_annotation_line(ann: AnnotationPolygon, fmt: str) -> str:
    return _codec(fmt)[1](ann)


@dataclass
class DatasetRecord:
    image_id: str
    image_size: tuple[int, int]
    annotations: list[AnnotationPolygon] = field(default_factory=list)


def _read_lines(path: Path) -> list[str]:
    """Lines of a UTF-8 text file less one leading byte-order mark, as ICDAR 2015's
    files have (not "utf-8-sig": its error offsets would skip the mark's 3 bytes);
    undecodable bytes are a ParseError naming the file."""
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff").splitlines()
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParseError(f"{path}: not UTF-8 text: byte {byte:#04x} "
                         f"at offset {exc.start}") from None


def _parse_lines(path: Path, parse) -> list:
    """``parse`` of every non-blank line; a ValueError names the file and line."""
    out = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
        if raw.strip():
            try:
                out.append(parse(raw))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    return out


def read_annotation_file(path: str | Path, fmt: str) -> DatasetRecord:
    """Read one per-image annotation file; the image size is the annotation
    extent rounded up."""
    path = Path(path)
    annotations = _parse_lines(path, _codec(fmt)[0])
    extent = np.zeros(2)
    for ann in annotations:
        extent = np.maximum(extent, ann.closed_vertices().max(axis=0))
    return DatasetRecord(
        image_id=path.stem,
        image_size=(math.ceil(extent[0]), math.ceil(extent[1])),
        annotations=annotations,
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
            fh.write(np.ascontiguousarray(plane, dtype="<f4"))


def read_raster(path: str | Path) -> LabelRaster | PredictionRaster:
    """Read an MSRR file; 4 channels decode as labels, 3 as predictions.

    Label masks come back as uint8, as encode makes them; a mask plane with
    a value other than 0 or 1 is a RasterFormatError.
    """
    try:
        return _read_raster(path)
    except ValueError as exc:   # the grid's own checks included
        raise RasterFormatError(f"{path}: {exc}") from None


def _read_raster(path: str | Path) -> LabelRaster | PredictionRaster:
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24 or header[:4] != MSRR_MAGIC:
            raise RasterFormatError("not an MSRR file")
        version, width, height, stride, channels = struct.unpack("<5I", header[4:])
        if version != MSRR_VERSION:
            raise RasterFormatError(f"unsupported MSRR version {version}")
        if channels not in (3, 4):
            raise RasterFormatError(f"unsupported channel count {channels}")
        if width < 1 or height < 1 or stride < 1:
            raise RasterFormatError(f"bad dimensions {width}x{height} stride {stride}")
        grid = RasterGrid(width=width, height=height, stride=stride)   # the cell budget
        planes = np.empty((channels, height, width), dtype="<f4")
        got = fh.readinto(planes)
        longer = fh.read(1)   # the one byte more tells a long file
    if got < planes.nbytes:
        raise RasterFormatError(
            f"truncated payload, expected {24 + planes.nbytes} bytes, got {24 + got}"
        )
    if longer:
        raise RasterFormatError(f"payload too long, expected {24 + planes.nbytes} bytes, got more")
    if channels == 3:
        return PredictionRaster(grid=grid, prob=planes[0], dist_x=planes[1], dist_y=planes[2])
    mask, dist_x, dist_y, ignore = planes
    if not all(np.isin(plane, (0.0, 1.0)).all() for plane in (mask, ignore)):
        raise RasterFormatError("label mask holds a value other than 0 or 1")
    return LabelRaster(
        grid=grid,
        mask=mask.astype(np.uint8),
        dist_x=dist_x,
        dist_y=dist_y,
        ignore_mask=ignore.astype(np.uint8),
    )


def write_detections(path: str | Path, detections: list[Detection]) -> None:
    """One ``score,n,x1,y1,...`` line per detection, 3 decimal places."""
    lines = []
    for det in detections:
        v = det.polygon.vertices
        coords = ",".join(f"{c:.3f}" for c in v.ravel())
        lines.append(f"{det.score:.3f},{len(v)},{coords}")
    Path(path).write_text("".join(line + "\n" for line in lines))


def _parse_detection(line: str) -> Detection:
    parts = line.strip().split(",")
    if len(parts) < 2:
        raise ParseError("expected score,n,coords")
    try:
        score = float(parts[0])
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"bad score/count {parts[:2]!r}") from None
    if not (0.0 <= score <= 1.0) or n < 3:
        raise ParseError(f"score {score} outside [0,1] or n={n} < 3")
    if len(parts) != 2 + 2 * n:
        raise ParseError(f"expected {2 * n} coordinates for n={n}, got {len(parts) - 2}")
    coords = _floats(parts[2:], "coordinate")
    return Detection(polygon=Polygon.make(np.reshape(coords, (-1, 2))), score=score)


def read_detections(path: str | Path) -> list[Detection]:
    return _parse_lines(Path(path), _parse_detection)
