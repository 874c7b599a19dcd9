"""Polygon containment, region validation, probe selection, and box IoU."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sitewatch.geometry import (
    LocationLabel,
    Region,
    RegionLabel,
    classify_location,
    locate_point,
    point_in_polygon,
    point_in_region,
    polygon_area,
    polygon_centroid,
    polygon_is_simple,
    probe_point,
    regions_disjoint,
    validate_polygon,
    validate_regions,
)
from sitewatch.streams import bbox_bottom_center, bbox_diagonal, bbox_iou

from helpers import (
    DIG_SQUARE,
    DUMP_SQUARE,
    REGIONS,
    convex_contains,
    distance_to_boundary,
    make_pose,
    minmax_bbox_iou,
    point,
    random_convex_polygon,
)

SQUARE = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))


def test_centroid_of_convex_polygon_is_inside():
    assert point_in_polygon(polygon_centroid(SQUARE), SQUARE)
    assert point_in_polygon((5.0, 5.0), SQUARE)


def test_point_outside_bounding_box_is_outside():
    assert not point_in_polygon((20.0, 5.0), SQUARE)
    assert not point_in_polygon((5.0, -3.0), SQUARE)


def test_edge_midpoint_counts_as_inside():
    assert point_in_polygon((5.0, 0.0), SQUARE)
    assert point_in_polygon((10.0, 5.0), SQUARE)


def test_vertex_counts_as_inside():
    assert point_in_polygon((0.0, 0.0), SQUARE)
    assert point_in_polygon((10.0, 10.0), SQUARE)


def test_concave_polygon_even_odd():
    # U-shape: the notch between the prongs is outside.
    u_shape = (
        (0.0, 0.0),
        (10.0, 0.0),
        (10.0, 10.0),
        (7.0, 10.0),
        (7.0, 3.0),
        (3.0, 3.0),
        (3.0, 10.0),
        (0.0, 10.0),
    )
    assert point_in_polygon((1.5, 5.0), u_shape)
    assert point_in_polygon((8.5, 5.0), u_shape)
    assert not point_in_polygon((5.0, 6.0), u_shape)
    assert point_in_polygon((5.0, 1.0), u_shape)


def test_containment_agrees_with_convex_half_plane_oracle():
    rng = random.Random(4391)
    checked = 0
    for _ in range(40):
        polygon = random_convex_polygon(rng)
        region = Region(RegionLabel.DIGGING, polygon)
        for _ in range(250):
            point = (rng.uniform(0.0, 620.0), rng.uniform(0.0, 620.0))
            # Both sides use epsilon boundary rules; keep clear of them.
            if distance_to_boundary(polygon, point) < 1e-6:
                continue
            assert point_in_polygon(point, polygon) == convex_contains(polygon, point)
            assert point_in_region(point, region) == convex_contains(polygon, point)
            checked += 1
    assert checked > 9000


def test_validate_polygon_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        validate_polygon(((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        validate_polygon(((0.0, 0.0), (5.0, 0.0), (10.0, 0.0)))  # zero area
    with pytest.raises(ValueError):
        validate_polygon(((0.0, 0.0), (10.0, 10.0), (10.0, 0.0), (0.0, 10.0)))  # bowtie
    with pytest.raises(ValueError):
        validate_polygon(((0.0, 0.0), (math.nan, 1.0), (1.0, 0.0)))
    validate_polygon(SQUARE)


def test_polygon_is_simple_flags_self_intersection():
    assert polygon_is_simple(SQUARE)
    assert not polygon_is_simple(((0.0, 0.0), (10.0, 10.0), (10.0, 0.0), (0.0, 10.0)))


def test_polygon_area_and_centroid():
    assert polygon_area(SQUARE) == 100.0
    assert polygon_centroid(SQUARE) == (5.0, 5.0)


def test_region_requires_valid_disjoint_polygons():
    with pytest.raises(ValueError):
        Region(RegionLabel.DIGGING, ((0.0, 0.0), (1.0, 1.0)))
    overlapping = Region(
        RegionLabel.DUMPING, ((200.0, 200.0), (400.0, 200.0), (400.0, 400.0), (200.0, 400.0))
    )
    assert not regions_disjoint(DIG_SQUARE, overlapping)
    nested = Region(
        RegionLabel.DUMPING, ((150.0, 150.0), (250.0, 150.0), (250.0, 250.0), (150.0, 250.0))
    )
    assert not regions_disjoint(DIG_SQUARE, nested)
    assert regions_disjoint(DIG_SQUARE, DUMP_SQUARE)
    with pytest.raises(ValueError):
        validate_regions((DIG_SQUARE, nested))
    validate_regions(REGIONS)


def test_locate_point_picks_containing_region():
    assert locate_point((200.0, 200.0), REGIONS) is LocationLabel.IN_DIGGING
    assert locate_point((600.0, 200.0), REGIONS) is LocationLabel.IN_DUMPING
    assert locate_point((400.0, 200.0), REGIONS) is LocationLabel.ELSEWHERE


def test_probe_point_prefers_bucket_joint():
    pose = make_pose(arm=(200.0, 200.0))
    assert probe_point(pose) == point(pose, "bucket_joint")


def test_probe_point_falls_back_by_priority():
    pose = make_pose(arm=(200.0, 200.0), conf_overrides={"bucket_joint": 0.1})
    assert probe_point(pose) == point(pose, "arm_joint")
    pose = make_pose(
        arm=(200.0, 200.0), conf_overrides={"bucket_joint": 0.1, "arm_joint": 0.2}
    )
    e1 = point(pose, "bucket_end1")
    e2 = point(pose, "bucket_end2")
    assert probe_point(pose) == ((e1[0] + e2[0]) / 2.0, (e1[1] + e2[1]) / 2.0)


def test_probe_point_midpoint_confidence_is_the_weaker_end():
    pose = make_pose(
        arm=(200.0, 200.0),
        conf_overrides={
            "bucket_joint": 0.0,
            "arm_joint": 0.0,
            "bucket_end1": 0.9,
            "bucket_end2": 0.2,
        },
    )
    # min(0.9, 0.2) sits below the floor, so no probe is available.
    assert probe_point(pose, conf_floor=0.3) is None
    assert probe_point(pose, conf_floor=0.2) is not None


def test_probe_point_all_low_confidence_is_indeterminate():
    pose = make_pose(conf=0.0)
    assert probe_point(pose) is None


def test_probe_point_equal_confidence_tie_is_stable():
    pose = make_pose(conf=0.8)
    assert probe_point(pose) == point(pose, "bucket_joint")


def test_probe_point_matches_the_rule_on_random_confidences():
    # Confidences come from a coarse grid so that ties and exact floor
    # hits are common.
    rng = random.Random(5)
    grid = [0.0, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0]
    names = ("bucket_joint", "arm_joint", "bucket_end1", "bucket_end2")
    for _ in range(2000):
        confs = {name: rng.choice(grid) for name in names}
        floor = rng.choice(grid)
        pose = make_pose(conf_overrides=confs)
        e1, e2 = point(pose, "bucket_end1"), point(pose, "bucket_end2")
        candidates = [
            (confs["bucket_joint"], point(pose, "bucket_joint")),
            (confs["arm_joint"], point(pose, "arm_joint")),
            (
                min(confs["bucket_end1"], confs["bucket_end2"]),
                ((e1[0] + e2[0]) / 2.0, (e1[1] + e2[1]) / 2.0),
            ),
        ]
        eligible = [c for c in candidates if c[0] >= floor]
        want = None
        if eligible:
            top = max(conf for conf, _ in eligible)
            want = next(point for conf, point in eligible if conf == top)
        assert probe_point(pose, conf_floor=floor) == want


def test_classify_location_by_arm_position():
    assert classify_location(make_pose(arm=(200.0, 200.0)), REGIONS) is LocationLabel.IN_DIGGING
    assert classify_location(make_pose(arm=(600.0, 200.0)), REGIONS) is LocationLabel.IN_DUMPING
    assert classify_location(make_pose(arm=(400.0, 500.0)), REGIONS) is LocationLabel.ELSEWHERE
    assert classify_location(make_pose(conf=0.0), REGIONS) is None


def test_bbox_iou_identity_disjoint_and_partial():
    box = (3.0, 4.0, 10.0, 20.0)
    assert bbox_iou(box, box) == 1.0
    assert bbox_iou((0.0, 0.0, 1.0, 1.0), (5.0, 5.0, 1.0, 1.0)) == 0.0
    assert bbox_iou((0.0, 0.0, 1.0, 1.0), (0.5, 0.0, 1.0, 1.0)) == 1.0 / 3.0
    # Shared edge only: zero-area intersection.
    assert bbox_iou((0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0)) == 0.0


_IOU_EDGE_CASES = [
    ((0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0)),  # touching x edge
    ((0.0, 0.0, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0)),  # touching y edge
    ((0.0, 0.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)),  # touching corner
    ((0.0, 0.0, 1.0, 1.0), (0.5, 1.0, 1.0, 1.0)),  # x overlap, y touch
    ((3.0, 4.0, 10.0, 20.0), (3.0, 4.0, 10.0, 20.0)),  # identical
    ((0.1, 0.2, 0.3, 0.7), (0.1, 0.2, 0.3, 0.7)),  # identical, inexact sums
    ((0.0, 0.0, 100.0, 100.0), (10.0, 20.0, 30.0, 40.0)),  # containment
    ((10.0, 20.0, 30.0, 40.0), (0.0, 0.0, 100.0, 100.0)),
    ((0.0, 0.0, 100.0, 50.0), (0.0, 0.0, 100.0, 25.0)),  # shared edges
    ((-0.0, 0.0, 2.0, 2.0), (0.0, -0.0, 2.0, 2.0)),  # signed zeros
    ((5.0, 5.0, 4.0, 4.0), (1.0, 1.0, 4.0, 4.0)),  # touching corner, a after b
    ((1e15, 1e15, 1.0, 1.0), (1e15 + 0.5, 1e15, 1.0, 1.0)),
    ((0.0, 0.0, 1e-300, 1e-300), (0.0, 0.0, 1e-300, 1e-300)),  # underflowing area
]


def _random_iou_box(rng):
    if rng.random() < 0.5:  # integer-valued floats: equal edges are common
        return tuple(float(rng.randrange(lo, 12)) for lo in (0, 0, 1, 1))
    return (
        rng.uniform(-50.0, 50.0),
        rng.uniform(-50.0, 50.0),
        rng.uniform(1e-6, 60.0),
        rng.uniform(1e-6, 60.0),
    )


def test_bbox_iou_equals_the_min_max_formula():
    rng = random.Random(23)
    cases = list(_IOU_EDGE_CASES)
    cases += [(_random_iou_box(rng), _random_iou_box(rng)) for _ in range(20000)]
    for a, b in cases:
        for p, q in ((a, b), (b, a)):
            got = bbox_iou(p, q)
            expected = minmax_bbox_iou(p, q)
            assert got == expected, (p, q)
            assert math.copysign(1.0, got) == math.copysign(1.0, expected), (p, q)


finite_boxes = st.tuples(
    st.floats(-1000, 1000),
    st.floats(-1000, 1000),
    st.floats(0.1, 500),
    st.floats(0.1, 500),
)


@settings(max_examples=200, derandomize=True)
@given(a=finite_boxes, b=finite_boxes, dx=st.floats(-500, 500), dy=st.floats(-500, 500))
def test_bbox_iou_symmetric_translation_invariant_bounded(a, b, dx, dy):
    iou = bbox_iou(a, b)
    assert 0.0 <= iou <= 1.0
    assert iou == bbox_iou(b, a)
    shifted_a = (a[0] + dx, a[1] + dy, a[2], a[3])
    shifted_b = (b[0] + dx, b[1] + dy, b[2], b[3])
    assert bbox_iou(shifted_a, shifted_b) == pytest.approx(iou, abs=1e-9)


def test_bbox_helpers():
    assert bbox_bottom_center((10.0, 20.0, 30.0, 40.0)) == (25.0, 60.0)
    assert bbox_diagonal((0.0, 0.0, 3.0, 4.0)) == 5.0
