"""Stream schema parsing, serialization round-trips, and soft-NMS."""

import json
import math
import random

import pytest

from sitewatch.errors import StreamFormatError
import sitewatch.streams as streams
from sitewatch.streams import (
    ARM,
    ARM_JOINT,
    BODY,
    BUCKET_END1,
    BUCKET_END2,
    BUCKET_JOINT,
    KEYPOINT_NAMES,
    Detection,
    MachineClass,
    PerceptionFrame,
    dedupe_frame,
    parse_stream,
    serialize_frame,
    serialize_header,
    serialize_stream,
    soft_nms_indexed,
)

from helpers import (
    _H,
    MALFORMED_STREAMS,
    frame_line,
    keypoint,
    make_detection,
    make_header,
    make_pose,
    naive_soft_nms,
    random_detections,
    random_stream,
)


def test_header_only_stream_yields_no_frames():
    parser = parse_stream([_H])
    assert parser.header.fps == 25.0
    assert parser.header.width == 1920
    assert parser.header.source == "cam"
    assert list(parser) == []


def test_minimal_single_frame_stream():
    det = '[{"class":"excavator","bbox":[10.0,20.0,200.0,100.0],"score":0.9}]'
    parser = parse_stream([_H, frame_line(0, det)])
    frames = list(parser)
    assert len(frames) == 1
    assert frames[0].index == 0
    assert frames[0].detections == (
        Detection(MachineClass.EXCAVATOR, (10.0, 20.0, 200.0, 100.0), 0.9),
    )
    assert frames[0].poses == ()


def test_non_monotone_frame_index_names_the_line():
    parser = parse_stream([_H, frame_line(0), frame_line(2), frame_line(1)])
    with pytest.raises(StreamFormatError) as err:
        list(parser)
    assert "line 4" in str(err.value)
    assert err.value.exit_code == 3


@pytest.mark.parametrize(
    "lines,line_no", [(m[1], m[2]) for m in MALFORMED_STREAMS],
    ids=[m[0] for m in MALFORMED_STREAMS],
)
def test_malformed_streams_rejected_with_line_number(lines, line_no):
    with pytest.raises(StreamFormatError) as err:
        list(parse_stream(lines))
    assert f"line {line_no}" in str(err.value)
    assert err.value.exit_code == 3


def test_lenient_mode_skips_and_counts_bad_frames():
    lines = [
        _H,
        frame_line(0),
        '{"index":1,"detections":[],"poses":[],"zoom":1}',
        "not json",
        frame_line(2),
    ]
    parser = parse_stream(lines, strict=False)
    frames = list(parser)
    assert [f.index for f in frames] == [0, 2]
    assert parser.skipped == 2


_HUGE = "1" + "0" * 400  # a JSON integer beyond float range


def _detection(bbox="[10.0,20.0,200.0,100.0]", score="0.9", cls='"excavator"'):
    return f'[{{"class":{cls},"bbox":{bbox},"score":{score}}}]'


def _pose(x="10.0", conf="0.9"):
    kps = ",".join(f'"{name}":[{x},20.0,{conf}]' for name in KEYPOINT_NAMES)
    return f'[{{"det":0,"keypoints":{{{kps}}}}}]'


@pytest.mark.parametrize(
    "detections,poses",
    [
        (_detection(bbox=f"[{_HUGE},20.0,200.0,100.0]"), "[]"),
        (_detection(bbox=f"[10.0,20.0,-{_HUGE},100.0]"), "[]"),
        (_detection(score=_HUGE), "[]"),
        (_detection(cls='["excavator"]'), "[]"),
        (_detection(cls='{"name":"excavator"}'), "[]"),
        (_detection(), _pose(x=_HUGE)),
        (_detection(), _pose(conf=_HUGE)),
    ],
    ids=["bbox_x", "bbox_w", "score", "class_list", "class_object", "keypoint_x", "keypoint_conf"],
)
def test_out_of_range_integers_and_unhashable_classes_are_format_errors(detections, poses):
    bad = frame_line(1, detections, poses)
    with pytest.raises(StreamFormatError) as err:
        list(parse_stream([_H, frame_line(0), "", bad]))
    assert "line 4" in str(err.value)
    parser = parse_stream([_H, frame_line(0), bad, frame_line(2)], strict=False)
    assert [f.index for f in parser] == [0, 2]
    assert parser.skipped == 1


def test_integers_that_fit_a_float_still_parse():
    line = frame_line(0, _detection(bbox="[10,20,200,100]", score="1"), _pose(x="10"))
    (frame,) = parse_stream([_H, line])
    assert frame.detections == (Detection(MachineClass.EXCAVATOR, (10.0, 20.0, 200.0, 100.0), 1.0),)
    assert all(type(v) is float for v in frame.detections[0].bbox)
    assert type(frame.detections[0].score) is float
    assert keypoint(frame.poses[0][1], "body1") == (10.0, 20.0, 0.9)


def test_lenient_mode_still_requires_a_valid_header():
    with pytest.raises(StreamFormatError):
        parse_stream(["{bad"], strict=False)


def test_blank_lines_and_bytes_input_are_handled():
    lines = [_H.encode(), b"", frame_line(0).encode(), b"  \n"]
    parser = parse_stream(lines)
    assert len(list(parser)) == 1


_UNDECODABLE = [_H.encode(), frame_line(0).encode(), b'{"index":1}\xff\n', frame_line(2).encode()]


def test_an_undecodable_frame_line_fails_strictly_with_its_line_number():
    with pytest.raises(StreamFormatError) as err:
        list(parse_stream(_UNDECODABLE))
    assert err.value.line_no == 3
    assert "invalid UTF-8" in str(err.value)


def test_lenient_mode_skips_and_counts_an_undecodable_frame_line():
    parser = parse_stream(_UNDECODABLE, strict=False)
    assert [f.index for f in parser] == [0, 2]
    assert parser.skipped == 1


@pytest.mark.parametrize("strict", [True, False])
def test_an_undecodable_header_fails_in_both_modes(strict):
    with pytest.raises(StreamFormatError) as err:
        parse_stream([b'{"source":"\xff"}', frame_line(0).encode()], strict=strict)
    assert err.value.line_no == 1


def test_pose_must_reference_an_excavator_detection():
    det = '[{"class":"loader","bbox":[10.0,20.0,200.0,100.0],"score":0.9}]'
    pose = make_pose()
    kps = ",".join(f'"{n}":[{x},{y},1.0]' for n, (x, y, _) in zip(KEYPOINT_NAMES, pose))
    line = frame_line(0, det, f'[{{"det":0,"keypoints":{{{kps}}}}}]')
    with pytest.raises(StreamFormatError) as err:
        list(parse_stream([_H, line]))
    assert "excavator" in str(err.value)


def test_pose_det_index_out_of_range_rejected():
    pose = make_pose()
    kps = ",".join(f'"{n}":[{x},{y},1.0]' for n, (x, y, _) in zip(KEYPOINT_NAMES, pose))
    line = frame_line(0, "[]", f'[{{"det":0,"keypoints":{{{kps}}}}}]')
    with pytest.raises(StreamFormatError) as err:
        list(parse_stream([_H, line]))
    assert "out of range" in str(err.value)


def test_serialized_frame_matches_json_dumps():
    rng = random.Random(7)
    for _ in range(20):
        header, frames = random_stream(rng)
        for frame in frames:
            line = serialize_frame(frame)
            expected = {
                "index": frame.index,
                "detections": [
                    {"class": d.cls.value, "bbox": list(d.bbox), "score": d.score}
                    for d in frame.detections
                ],
                "poses": [
                    {
                        "det": det_idx,
                        "keypoints": {
                            name: list(kp) for name, kp in zip(KEYPOINT_NAMES, pose)
                        },
                    }
                    for det_idx, pose in frame.poses
                ],
            }
            assert json.loads(line) == expected


def test_serialize_prints_equal_numbers_of_other_types_as_json_dumps_does():
    # 1 == 1.0 and 0.0 == -0.0, but each pair prints differently.  All
    # frames share one dict of remembered keypoint texts, as in a stream,
    # and go through twice, so a remembered text would be reused.
    keypoint_texts = {}
    det = make_detection("excavator")
    variants = [
        (1.0, 2.0, 1.0),
        (1, 2, 1),
        (1.0, 2, 1.0),
        (-0.0, 2.0, 1.0),
        (0.0, 2.0, 1.0),
        (1.0, -0.0, 0.0),
        (1.0, 0.0, -0.0),
    ]
    for _ in range(2):
        for x, y, conf in variants:
            pose = tuple((x, y, conf) for _ in KEYPOINT_NAMES)
            frame = PerceptionFrame(0, (det,), ((0, pose),))
            expected = {
                "index": 0,
                "detections": [
                    {"class": det.cls.value, "bbox": list(det.bbox), "score": det.score}
                ],
                "poses": [
                    {
                        "det": 0,
                        "keypoints": {name: [x, y, conf] for name in KEYPOINT_NAMES},
                    }
                ],
            }
            line = json.dumps(expected, separators=(",", ":"))
            assert serialize_frame(frame, keypoint_texts) == line
            assert serialize_frame(frame) == line


def test_parsed_pose_is_ten_float_triples():
    pose = make_pose(conf_overrides={"boom_base": 0.5})
    line = serialize_frame(PerceptionFrame(0, (make_detection("excavator"),), ((0, pose),)))
    (frame,) = parse_stream([_H, line])
    parsed = frame.poses[0][1]
    assert type(parsed) is tuple
    assert len(parsed) == len(KEYPOINT_NAMES) == 10
    for kp in parsed:
        assert type(kp) is tuple
        assert len(kp) == 3
        assert all(type(v) is float for v in kp)
    assert parsed == pose


def test_pose_layout_positions_name_their_keypoints():
    assert KEYPOINT_NAMES[BODY] == ("body1", "body2", "body3", "body4")
    assert KEYPOINT_NAMES[ARM] == ("bucket_end1", "bucket_end2", "bucket_joint", "arm_joint")
    named = {
        "bucket_end1": BUCKET_END1,
        "bucket_end2": BUCKET_END2,
        "bucket_joint": BUCKET_JOINT,
        "arm_joint": ARM_JOINT,
    }
    for name, index in named.items():
        assert KEYPOINT_NAMES[index] == name


def test_every_name_in_all_resolves():
    # A stale __all__ entry makes the star import raise AttributeError.
    namespace = {}
    exec("from sitewatch.streams import *", namespace)
    assert set(streams.__all__) <= namespace.keys()


def test_round_trip_parse_of_serialize_is_identity():
    rng = random.Random(20240801)
    for _ in range(25):
        header, frames = random_stream(rng)
        lines = list(serialize_stream(header, frames))
        parser = parse_stream(lines)
        assert parser.header == header
        assert list(parser) == frames


def test_serialize_header_round_trip():
    header = make_header(fps=29.97, width=1280, height=720, source="gate 3")
    parser = parse_stream([serialize_header(header)])
    assert parser.header == header


def test_soft_nms_duplicate_box_decays_to_known_value():
    box = (0.0, 0.0, 100.0, 50.0)
    dets = [make_detection(bbox=box, score=0.9), make_detection(bbox=box, score=0.8)]
    out = soft_nms_indexed(dets)
    assert [d.score for _, d in out] == [0.9, 0.8 * math.exp(-2.0)]
    # A floor above the decayed value keeps only the winner.
    out = soft_nms_indexed(dets, score_floor=0.2)
    assert [d.score for _, d in out] == [0.9]


def test_soft_nms_disjoint_boxes_untouched():
    dets = [
        make_detection(bbox=(0.0, 0.0, 10.0, 10.0), score=0.9),
        make_detection(bbox=(500.0, 500.0, 10.0, 10.0), score=0.8),
    ]
    assert [d for _, d in soft_nms_indexed(dets)] == dets


def test_soft_nms_empty_input():
    assert soft_nms_indexed([]) == []


def test_soft_nms_classes_never_suppress_each_other():
    box = (0.0, 0.0, 100.0, 50.0)
    dets = [
        make_detection("excavator", box, 0.9),
        make_detection("loader", box, 0.8),
    ]
    assert [d for _, d in soft_nms_indexed(dets)] == dets


def test_soft_nms_never_increases_scores_or_count():
    rng = random.Random(99)
    for _ in range(50):
        dets = random_detections(rng)
        out = soft_nms_indexed(dets)
        assert len(out) <= len(dets)
        for orig_idx, det in out:
            assert det.score <= dets[orig_idx].score
            assert det.bbox == dets[orig_idx].bbox
            assert det.cls is dets[orig_idx].cls
        scores = [det.score for _, det in out]
        assert scores == sorted(scores, reverse=True)


def test_soft_nms_matches_naive_reference():
    rng = random.Random(41)
    for _ in range(30):
        dets = random_detections(rng)
        got = soft_nms_indexed(dets)
        want = naive_soft_nms(dets)
        assert [idx for idx, _ in got] == [idx for idx, _ in want]
        for (_, det), (_, score) in zip(got, want):
            assert det.score == pytest.approx(score, abs=1e-12)


def test_soft_nms_rejects_bad_parameters():
    with pytest.raises(ValueError):
        soft_nms_indexed([], iou_threshold=1.5)
    with pytest.raises(ValueError):
        soft_nms_indexed([], decay=0.0)
    with pytest.raises(ValueError):
        soft_nms_indexed([], score_floor=-0.1)


def test_dedupe_frame_remaps_pose_references():
    box = (0.0, 0.0, 100.0, 50.0)
    pose_a = make_pose(arm=(10.0, 10.0))
    pose_b = make_pose(arm=(600.0, 200.0))
    frame = PerceptionFrame(
        3,
        (
            make_detection("loader", (500.0, 500.0, 40.0, 40.0), 0.9),
            make_detection("excavator", box, 0.6),
            make_detection("excavator", box, 0.95),
        ),
        ((1, pose_a), (2, pose_b)),
    )
    out = dedupe_frame(frame, score_floor=0.2)
    assert out.index == 3
    # The duplicate excavator decays to 0.6 * exp(-2) < 0.2 and drops,
    # taking its pose with it; the survivors keep their poses remapped.
    assert [d.cls.value for d in out.detections] == ["excavator", "loader"]
    assert len(out.poses) == 1
    det_idx, pose = out.poses[0]
    assert det_idx == 0
    assert pose == pose_b


def test_dedupe_frame_returns_an_unchanged_frame_as_it_is():
    pose = make_pose()
    # One box per class, highest score first: nothing decays or moves.
    frame = PerceptionFrame(
        5,
        (
            make_detection("excavator", score=0.9),
            make_detection("loader", (500.0, 500.0, 40.0, 40.0), 0.8),
        ),
        ((0, pose),),
    )
    assert dedupe_frame(frame) is frame
    # The same boxes lowest score first come back reordered, pose remapped.
    out = dedupe_frame(PerceptionFrame(5, frame.detections[::-1], ((1, pose),)))
    assert out == frame
    # A lone box below the score floor is dropped with its pose.
    low = PerceptionFrame(6, (make_detection("excavator", score=0.0005),), ((0, pose),))
    assert dedupe_frame(low) == PerceptionFrame(6, (), ())
