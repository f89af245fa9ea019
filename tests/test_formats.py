import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textshape import formats
from textshape.detect import Detection, PredictionRaster
from textshape.geom import Polygon, shoelace_area
from textshape.labels import MAX_GRID_CELLS, AnnotationPolygon, LabelRaster, RasterGrid, encode
from textshape.synth import rect_annotation


class TestCtw1500:
    def test_six_pair_line(self):
        ann = formats.parse_ctw1500("0,0,50,0,100,0,100,40,50,40,0,40")
        assert len(ann.upper) == 3 and len(ann.lower) == 3
        assert ann.lower[0] == pytest.approx([0, 40])

    def test_fourteen_vertex_line(self):
        xs = np.linspace(0, 260, 7).astype(int)
        coords = [f"{x},{10 + (x % 3)}" for x in xs] + [
            f"{x},{50 + (x % 3)}" for x in xs[::-1]
        ]
        ann = formats.parse_ctw1500(",".join(coords))
        assert len(ann.upper) == 7 and len(ann.lower) == 7

    def test_wrong_token_count(self):
        with pytest.raises(formats.ParseError):
            formats.parse_ctw1500(",".join(["1"] * 27))

    def test_non_numeric(self):
        with pytest.raises(formats.ParseError):
            formats.parse_ctw1500("0,0,9,0,9,9,x,9")


class TestIcdar2015:
    def test_plain_quad(self):
        ann = formats.parse_icdar2015("0,0,10,0,10,5,0,5,hello")
        assert not ann.ignore
        assert len(ann.upper) == 2 and len(ann.lower) == 2

    def test_ignore_marker(self):
        ann = formats.parse_icdar2015("0,0,10,0,10,5,0,5,###")
        assert ann.ignore

    def test_commas_in_transcription(self):
        ann = formats.parse_icdar2015("0,0,10,0,10,5,0,5,hello, world")
        assert not ann.ignore

    def test_too_few_fields(self):
        with pytest.raises(formats.ParseError):
            formats.parse_icdar2015("0,0,10,0,10,5,0,5")


class TestMsraTd500:
    def test_zero_angle(self):
        ann = formats.parse_msra_td500("0 0 10 20 100 40 0")
        ring = ann.closed_vertices()
        want = np.array([[10, 20], [110, 20], [110, 60], [10, 60]], dtype=float)
        assert ring == pytest.approx(want)

    def test_quarter_turn_square_maps_to_itself(self):
        ann0 = formats.parse_msra_td500("0 0 0 0 50 50 0")
        ann1 = formats.parse_msra_td500(f"0 0 0 0 50 50 {math.pi / 2}")
        r0 = {tuple(np.round(p, 9)) for p in ann0.closed_vertices()}
        r1 = {tuple(np.round(p, 9)) for p in ann1.closed_vertices()}
        assert r0 == r1

    def test_difficulty_flag(self):
        assert formats.parse_msra_td500("3 1 0 0 40 20 0.1").ignore
        assert not formats.parse_msra_td500("3 0 0 0 40 20 0.1").ignore

    def test_six_fields(self):
        with pytest.raises(formats.ParseError):
            formats.parse_msra_td500("0 0 10 20 100 40")

    def test_overflowing_corners(self):
        # finite fields whose box corners overflow to inf: a ParseError and
        # no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(formats.ParseError):
                formats.parse_msra_td500("0 0 1e308 0 1e308 10 0")

    def test_corner_past_max_coord(self):
        # every field is in bounds, but the far corner lies at 1.8e15
        with pytest.raises(formats.ParseError, match="box corner exceeds 1e\\+15 in magnitude"):
            formats.parse_msra_td500("0 0 9e14 9e14 9e14 9e14 0")

    def test_corner_on_max_coord(self):
        ann = formats.parse_msra_td500("0 0 0 0 1e15 1e15 0")
        assert np.abs(ann.closed_vertices()).max() == formats.MAX_COORD


class TestTotaltext:
    def test_quad(self):
        ann = formats.parse_totaltext("4,0,0,30,0,30,12,0,12")
        assert len(ann.upper) == 2

    def test_ten_vertex_arc(self):
        xs = np.linspace(0, 200, 5)
        up = [(x, 40 - 30 * math.sin(math.pi * x / 200)) for x in xs]
        low = [(x, 80 - 30 * math.sin(math.pi * x / 200)) for x in xs]
        ring = up + low[::-1]
        line = "10," + ",".join(f"{x:g},{y:g}" for x, y in ring)
        ann = formats.parse_totaltext(line)
        assert len(ann.upper) == 5 and len(ann.lower) == 5

    def test_ignore_flag(self):
        assert formats.parse_totaltext("4,0,0,30,0,30,12,0,12,1").ignore

    def test_odd_count(self):
        with pytest.raises(formats.ParseError):
            formats.parse_totaltext("5,0,0,1,0,2,0,2,2,1,2")

    def test_count_mismatch(self):
        with pytest.raises(formats.ParseError):
            formats.parse_totaltext("4,0,0,30,0,30,12")


class TestRoundTrips:
    def test_parse_serialize_parse_fixed_point(self):
        lines = {
            "ctw1500": "0,0,50,2,100,0,100,40,50,38,0,40",
            "icdar2015": "0,0,10,0,10,5,0,5,###",
            "msra_td500": "7 0 10 20 100 40 0.3",
            "totaltext": "6,0,0,50,2,100,0,100,40,50,38,0,40",
        }
        for fmt, line in lines.items():
            first = formats.parse_annotation_line(line, fmt)
            text = formats.format_annotation_line(first, fmt)
            second = formats.parse_annotation_line(text, fmt)
            assert second.ignore == first.ignore
            assert second.closed_vertices() == pytest.approx(
                first.closed_vertices(), abs=1e-9
            )
            # A second cycle is byte-stable.
            assert formats.format_annotation_line(second, fmt) == text


# (reader format, malformed line, message): detection lines use the format "det".
BAD_LINES = [
    ("ctw1500", "0,0,9,0,9,9,x,9", "non-numeric coordinate 'x'"),
    ("icdar2015", "0,0,0,0,0,0,0,0,t", "each chain needs at least 2 distinct vertices"),
    ("msra_td500", "0 0 10 20 -1 40 0", "non-positive box size -1.0x40.0"),
    ("totaltext", "4,0,0,30,0,30,12,0,12,2", "bad ignore flag '2'"),
    ("det", "x", "expected score,n,coords"),
    ("det", "0.5,q,1", "bad score/count ['0.5', 'q']"),
    ("det", "1.5,3,0,0,30,0,15,22.5", "score 1.5 outside [0,1] or n=3 < 3"),
    ("det", "0.5,3,0,0,30,0", "expected 6 coordinates for n=3, got 4"),
    ("det", "0.5,3,0,0,30,0,15,nan", "non-finite coordinate 'nan'"),
    ("det", "0.5,3,0,0,10,0,20,0", "polygon has zero area"),
]


def read_file(path, fmt):
    if fmt == "det":
        return formats.read_detections(path)
    return formats.read_annotation_file(path, fmt)


class TestAnnotationFiles:
    @pytest.mark.parametrize("fmt,line,message", BAD_LINES,
                             ids=[f"{fmt}-{msg}" for fmt, _, msg in BAD_LINES])
    def test_bad_line_named_by_path_and_line(self, tmp_path, fmt, line, message):
        p = tmp_path / "in.txt"
        p.write_text("\n" + line + "\n")
        with pytest.raises(formats.ParseError) as err:
            read_file(p, fmt)
        assert str(err.value) == f"{p}:2: {message}"

    def test_unknown_format_raises_on_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(ValueError, match="unknown annotation format 'bogus'"):
            formats.read_annotation_file(p, "bogus")

    def test_read_file_with_line_numbers(self, tmp_path):
        p = tmp_path / "img1.txt"
        p.write_text("0,0,10,0,10,5,0,5,ok\nbroken line\n")
        with pytest.raises(formats.ParseError) as err:
            formats.read_annotation_file(p, "icdar2015")
        assert "img1.txt:2" in str(err.value)

    def test_write_then_read(self, tmp_path):
        anns = [rect_annotation(0, 0, 60, 20), rect_annotation(0, 40, 80, 22)]
        p = tmp_path / "img3.txt"
        formats.write_annotation_file(p, anns, "totaltext")
        rec = formats.read_annotation_file(p, "totaltext")
        assert len(rec.annotations) == 2

    def test_non_utf8_file_names_path(self, tmp_path):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"0,0,10,0,10,5,0,5,caf\x80\n")
        with pytest.raises(formats.ParseError) as err:
            formats.read_annotation_file(p, "icdar2015")
        assert str(err.value).startswith(f"{p}: not UTF-8 text: byte 0x80")

    def test_byte_order_mark_dropped(self, tmp_path):
        # ICDAR 2015's gt_img_*.txt files start with a UTF-8 byte-order mark
        text = "377,117,463,117,465,130,378,130,Genaxis Theatre\n"
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(text.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = formats.read_annotation_file(plain, "icdar2015")
        got = formats.read_annotation_file(bom, "icdar2015")
        assert got.image_size == want.image_size
        assert [a.closed_vertices().tolist() for a in got.annotations] == \
            [a.closed_vertices().tolist() for a in want.annotations]

    def test_byte_order_mark_counted_in_bad_byte_offset(self, tmp_path):
        p = tmp_path / "bom.txt"
        p.write_bytes(b"\xef\xbb\xbf0,0,10,0,10,5,0,5,caf\x80\n")
        with pytest.raises(formats.ParseError) as err:
            formats.read_annotation_file(p, "icdar2015")
        assert str(err.value) == f"{p}: not UTF-8 text: byte 0x80 at offset 24"


def label_raster_from(rng, w=6, h=4, stride=2):
    grid = RasterGrid(width=w, height=h, stride=stride)
    return LabelRaster(
        grid=grid,
        mask=(rng.random((h, w)) < 0.5).astype(np.float32),
        dist_x=rng.normal(0, 3, (h, w)).astype(np.float32),
        dist_y=rng.normal(0, 3, (h, w)).astype(np.float32),
        ignore_mask=np.zeros((h, w), dtype=np.float32),
    )


def prediction_raster_from(rng, w=6, h=4, stride=2):
    grid = RasterGrid(width=w, height=h, stride=stride)
    return PredictionRaster(
        grid=grid,
        prob=rng.random((h, w)),
        dist_x=rng.normal(0, 3, (h, w)),
        dist_y=rng.normal(0, 3, (h, w)),
    )


def traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMsrrFormat:
    def test_header_and_payload_sizes(self, tmp_path, rng):
        raster = label_raster_from(rng, w=2, h=2)
        path = tmp_path / "a.msrr"
        formats.write_raster(path, raster)
        # magic(4) + five u32 header fields (20) + 4 planes of 2x2 f32.
        assert path.stat().st_size == 4 + 20 + 4 * 2 * 2 * 4

    def test_write_read_write_byte_identical(self, tmp_path, rng):
        raster = label_raster_from(rng, w=7, h=5, stride=1)
        p1 = tmp_path / "a.msrr"
        p2 = tmp_path / "b.msrr"
        formats.write_raster(p1, raster)
        formats.write_raster(p2, formats.read_raster(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_encoded_labels_roundtrip_with_uint8_masks(self, tmp_path):
        grid = RasterGrid(width=40, height=24, stride=2)
        dont_care = rect_annotation(20, 30, 50, 14)
        dont_care.ignore = True
        anns = [rect_annotation(4, 4, 60, 30), dont_care]
        label = encode(anns, grid)
        path = tmp_path / "l.msrr"
        formats.write_raster(path, label)
        back = formats.read_raster(path)
        for name in ("mask", "ignore_mask"):
            plane, orig = getattr(back, name), getattr(label, name)
            assert plane.dtype == orig.dtype == np.uint8
            assert np.array_equal(plane, orig)
        assert back.mask.any() and back.ignore_mask.any()
        assert np.array_equal(back.dist_x, label.dist_x.astype(np.float32))

    @pytest.mark.parametrize("plane", ["mask", "ignore_mask"])
    @pytest.mark.parametrize("value", [2.0, 0.5, -1.0, float("nan")])
    def test_label_mask_value_outside_zero_one_rejected(self, tmp_path, rng, plane, value):
        raster = label_raster_from(rng)
        getattr(raster, plane)[1, 2] = value
        path = tmp_path / "m.msrr"
        formats.write_raster(path, raster)
        with pytest.raises(formats.RasterFormatError):
            formats.read_raster(path)

    def test_prediction_raster_roundtrip(self, tmp_path, rng):
        grid = RasterGrid(width=4, height=3, stride=4)
        pred = PredictionRaster(
            grid=grid,
            prob=rng.random((3, 4)).astype(np.float32),
            dist_x=rng.normal(size=(3, 4)).astype(np.float32),
            dist_y=rng.normal(size=(3, 4)).astype(np.float32),
        )
        path = tmp_path / "p.msrr"
        formats.write_raster(path, pred)
        back = formats.read_raster(path)
        assert isinstance(back, PredictionRaster)
        assert np.array_equal(back.prob, pred.prob)
        assert back.grid == grid

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.msrr"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(formats.RasterFormatError):
            formats.read_raster(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "t.msrr"
        formats.write_raster(path, label_raster_from(rng))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(formats.RasterFormatError) as err:
            formats.read_raster(path)
        assert str(err.value) == (
            f"{path}: truncated payload, expected {len(blob)} bytes, got {len(blob) - 5}"
        )

    def test_long_payload_read_no_further_than_one_byte(self, tmp_path):
        # a 3x2 header before a sparse 64 MiB payload: the parent read it whole
        header = formats.MSRR_MAGIC + struct.pack("<5I", 1, 3, 2, 1, 3)
        path = tmp_path / "long.msrr"
        with open(path, "wb") as fh:
            fh.write(header)
            fh.truncate(len(header) + 64 * 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(formats.RasterFormatError) as err:
                formats.read_raster(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"{path}: payload too long, expected 96 bytes, got more"
        assert peak < 2**20

    def test_channel_count_checked_before_payload_size(self, tmp_path):
        header = formats.MSRR_MAGIC + struct.pack("<5I", 1, 3, 2, 1, 9)
        path = tmp_path / "nine.msrr"
        path.write_bytes(header + b"\x00" * 7)
        with pytest.raises(formats.RasterFormatError) as err:
            formats.read_raster(path)
        assert str(err.value) == f"{path}: unsupported channel count 9"

    def test_unknown_version(self, tmp_path):
        header = formats.MSRR_MAGIC + struct.pack("<5I", 9, 1, 1, 1, 3)
        path = tmp_path / "v.msrr"
        path.write_bytes(header + b"\x00" * 12)
        with pytest.raises(formats.RasterFormatError):
            formats.read_raster(path)

    def test_unknown_channel_count(self, tmp_path):
        path = tmp_path / "c.msrr"
        for channels in (0, 1, 2, 5):
            header = formats.MSRR_MAGIC + struct.pack("<5I", 1, 3, 2, 1, channels)
            path.write_bytes(header + b"\x00" * 24 * channels)
            with pytest.raises(formats.RasterFormatError) as err:
                formats.read_raster(path)
            assert str(err.value) == f"{path}: unsupported channel count {channels}"

    def test_grid_over_cell_budget(self, tmp_path):
        # the header claims 2**26 cells; refused before the payload is read
        header = formats.MSRR_MAGIC + struct.pack("<5I", 1, 8192, 8192, 1, 3)
        path = tmp_path / "huge.msrr"
        path.write_bytes(header + b"\x00" * 12)
        with pytest.raises(formats.RasterFormatError) as err:
            formats.read_raster(path)
        assert str(err.value) == (
            f"{path}: grid 8192x8192 exceeds the budget of {MAX_GRID_CELLS} cells"
        )

    @pytest.mark.parametrize("channels", [3, 4])
    def test_read_holds_one_copy_of_the_payload(self, tmp_path, rng, channels):
        # 1024x512 cells, 2 MiB per float32 plane; a read that copies its
        # payload peaks near twice that
        w, h = 1024, 512
        if channels == 3:
            raster, masks = prediction_raster_from(rng, w=w, h=h, stride=1), 0
        else:
            raster, masks = label_raster_from(rng, w=w, h=h, stride=1), 2 * w * h   # uint8
        path = tmp_path / "big.msrr"
        formats.write_raster(path, raster)
        payload = path.stat().st_size - 24
        assert payload == channels * w * h * 4
        assert traced_peak(lambda: formats.read_raster(path)) < payload + masks + 2**20

    def test_write_converts_one_plane_at_a_time(self, tmp_path, rng):
        # float64 planes: one float32 copy at a time, and no bytes copy of it
        pred = prediction_raster_from(rng, w=1024, h=512, stride=1)
        plane = 1024 * 512 * 4
        assert traced_peak(lambda: formats.write_raster(tmp_path / "w.msrr", pred)) < plane + 2**20

    def test_planes_read_back_writable(self, tmp_path, rng):
        for raster in (label_raster_from(rng), prediction_raster_from(rng)):
            path = tmp_path / "w.msrr"
            formats.write_raster(path, raster)
            back = formats.read_raster(path)
            planes = [v for v in vars(back).values() if isinstance(v, np.ndarray)]
            assert len(planes) == (4 if isinstance(back, LabelRaster) else 3)
            assert all(plane.flags.writeable for plane in planes)

    def test_little_endian_on_disk(self, tmp_path, rng):
        raster = label_raster_from(rng, w=1, h=1)
        raster.mask[:] = 1.0
        path = tmp_path / "e.msrr"
        formats.write_raster(path, raster)
        blob = path.read_bytes()
        width = struct.unpack("<I", blob[8:12])[0]
        assert width == 1
        assert struct.unpack("<f", blob[24:28])[0] == 1.0


class TestDetectionFormat:
    def test_lines_and_roundtrip(self, tmp_path):
        dets = [
            Detection(polygon=Polygon.make([(0, 0), (30, 0), (15, 22.5)]), score=0.9),
            Detection(polygon=Polygon.make([(5, 5), (25, 5), (25, 15), (5, 15)]), score=0.5),
        ]
        path = tmp_path / "det.txt"
        formats.write_detections(path, dets)
        text = path.read_text().splitlines()
        assert text[0].startswith("0.900,3,")
        back = formats.read_detections(path)
        assert len(back) == 2
        for a, b in zip(dets, back):
            assert b.score == pytest.approx(a.score, abs=1e-3)
            assert b.polygon.vertices == pytest.approx(a.polygon.vertices, abs=1e-3)

    def test_empty_list_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        formats.write_detections(path, [])
        assert path.read_text() == ""
        assert formats.read_detections(path) == []

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.900,3,0,0,30,0,15,22.5\nnot,a,line\n")
        with pytest.raises(formats.ParseError) as err:
            formats.read_detections(path)
        assert "bad.txt:2" in str(err.value)

    def test_non_utf8_file_names_path(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_bytes(b"0.900,3,0,0,30,0,15,22.5\n\x80\n")
        with pytest.raises(formats.ParseError) as err:
            formats.read_detections(path)
        assert str(err.value).startswith(f"{path}: not UTF-8 text: byte 0x80")

    def test_score_and_count_validated(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("1.500,3,0,0,30,0,15,22.5\n")
        with pytest.raises(formats.ParseError):
            formats.read_detections(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def ring_text(fmt, v):
    """One line in ``fmt`` carrying the finite values ``v`` (8 of them)."""
    coords = ",".join(repr(x) for x in v)
    if fmt == "msra_td500":
        return " ".join(repr(x) for x in v[1:])
    if fmt == "icdar2015":
        return coords + ",t"
    if fmt == "totaltext":
        return "4," + coords
    if fmt == "det":
        return "0.5,4," + coords
    return coords


LINE_CHARS = st.text(
    alphabet=st.sampled_from(list("0123456789,.-+eE# \tabcxyz")), max_size=64
)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(LINE_CHARS)
    def test_parsers_reject_or_accept_without_crash(self, line):
        for fmt in formats.ANNOTATION_FORMATS:
            try:
                ann = formats.parse_annotation_line(line, fmt)
                assert isinstance(ann, AnnotationPolygon)
            except formats.ParseError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(formats.ANNOTATION_FORMATS) + ["det"]),
           st.lists(FINITE, min_size=8, max_size=8))
    def test_finite_values_parse_to_finite_area_or_parse_error(self, tmp_path_factory, fmt, v):
        path = tmp_path_factory.getbasetemp() / "finite_fuzz.txt"
        path.write_text(ring_text(fmt, v) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = read_file(path, fmt)
            except formats.ParseError:
                return
        if fmt == "det":
            (ring,) = [d.polygon.vertices for d in got]
        else:
            (ring,) = [a.closed_vertices() for a in got.annotations]
        area = shoelace_area(ring)
        assert np.isfinite(area) and area != 0

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=48))
    def test_parsers_survive_raw_bytes(self, blob):
        line = blob.decode("latin-1")
        for fmt in formats.ANNOTATION_FORMATS:
            try:
                formats.parse_annotation_line(line, fmt)
            except formats.ParseError:
                pass
