import numpy as np
import pytest

from textshape.geom import is_simple
from textshape.synth import arc_annotation, rect_annotation, roundtrip_suite, separated_pair


def test_suite_has_200_unique_instances():
    suite = roundtrip_suite()
    assert len(suite) == 200
    assert len({inst.name for inst in suite}) == 200


def test_suite_annotations_are_simple_and_fit_images():
    for inst in roundtrip_suite():
        ring = inst.annotation.closed_vertices()
        assert is_simple(ring)
        w, h = inst.image_size
        assert ring[:, 0].min() >= 0 and ring[:, 0].max() <= w
        assert ring[:, 1].min() >= 0 and ring[:, 1].max() <= h


def test_suite_is_deterministic():
    a = roundtrip_suite()
    b = roundtrip_suite()
    for x, y in zip(a, b):
        assert x.name == y.name
        assert np.array_equal(x.annotation.closed_vertices(), y.annotation.closed_vertices())


def test_rect_annotation_angle():
    ann = rect_annotation(0, 0, 100, 40, angle_deg=90)
    ring = ann.closed_vertices()
    span = ring.max(axis=0) - ring.min(axis=0)
    assert span[0] == pytest.approx(40)
    assert span[1] == pytest.approx(100)


def test_arc_rejects_vanishing_inner_radius():
    with pytest.raises(ValueError):
        arc_annotation(0, 0, 20, 50, 90)


def test_separated_pair_geometry():
    anns, (w, h) = separated_pair()
    assert len(anns) == 2
    top = anns[0].closed_vertices()[:, 1].max()
    bottom = anns[1].closed_vertices()[:, 1].min()
    assert bottom - top == pytest.approx(24)
