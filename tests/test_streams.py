"""Stream schema parsing, serialization round-trips, and soft-NMS."""

import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sitewatch.config import SiteConfig
from sitewatch.errors import StreamFormatError
from sitewatch.pipeline import analyze_stream
from sitewatch.simulator import MachineSpec, NoiseModel, ScenarioConfig, generate
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
    MemoFreeParser,
    frame_line,
    keypoint,
    make_detection,
    make_header,
    make_pose,
    naive_soft_nms,
    parse_outcome,
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


@pytest.mark.parametrize(
    "indices,kept",
    [
        ([0, 2**63, 1, 2], [0, 1, 2]),  # the frame that jumped ahead goes
        ([0, 5, 3, 6], [0, 3, 6]),  # as does one that merely runs ahead
        ([0, 2, 2, 3], [0, 2, 3]),  # a repeated index drops the repeat
        ([0, 2, 1, 0, 3], [0, 1, 3]),  # below the last released: a bad line
        ([0, 1, 2**63], [0, 1, 2**63]),  # the last frame is always kept
    ],
)
def test_lenient_mode_drops_the_frame_whose_index_is_out_of_place(indices, kept):
    parser = parse_stream([_H] + [frame_line(i) for i in indices], strict=False)
    assert [f.index for f in parser] == kept
    assert parser.skipped == len(indices) - len(kept)


_HUGE = "1" + "0" * 400  # a JSON integer beyond float range


def _detection(bbox="[10.0,20.0,200.0,100.0]", score="0.9", cls='"excavator"'):
    return f'[{{"class":{cls},"bbox":{bbox},"score":{score}}}]'


def _pose(x="10.0", conf="0.9"):
    kps = ",".join(f'"{name}":[{x},20.0,{conf}]' for name in KEYPOINT_NAMES)
    return f'[{{"det":0,"keypoints":{{{kps}}}}}]'


# A header whose fps puts frame 10**308 past float range, but not frame 2.
_SLOW_H = _H.replace("25.0", "0.5")


@pytest.mark.parametrize(
    "index,detections,poses,header",
    [
        (1, _detection(bbox=f"[{_HUGE},20.0,200.0,100.0]"), "[]", _H),
        (1, _detection(bbox=f"[10.0,20.0,-{_HUGE},100.0]"), "[]", _H),
        (1, _detection(score=_HUGE), "[]", _H),
        (1, _detection(cls='["excavator"]'), "[]", _H),
        (1, _detection(cls='{"name":"excavator"}'), "[]", _H),
        (1, _detection(), _pose(x=_HUGE), _H),
        (1, _detection(), _pose(conf=_HUGE), _H),
        (_HUGE, _detection(), "[]", _H),
        ("1" + "0" * 308, _detection(), "[]", _SLOW_H),
    ],
    ids=[
        "bbox_x",
        "bbox_w",
        "score",
        "class_list",
        "class_object",
        "keypoint_x",
        "keypoint_conf",
        "frame_index",
        "frame_time",
    ],
)
def test_out_of_range_integers_and_unhashable_classes_are_format_errors(
    index, detections, poses, header
):
    bad = frame_line(index, detections, poses)
    with pytest.raises(StreamFormatError) as err:
        list(parse_stream([header, frame_line(0), "", bad]))
    assert "line 4" in str(err.value)
    parser = parse_stream([header, frame_line(0), bad, frame_line(2)], strict=False)
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
    # frames share one dict of remembered pose and box texts, as in a
    # stream, and every pose and box comes again in later frames, so a
    # remembered text would be reused.
    texts = {}
    pose_variants = [
        (1.0, 2.0, 1.0),
        (1, 2, 1),
        (1.0, 2, 1.0),
        (-0.0, 2.0, 1.0),
        (0.0, 2.0, 1.0),
        (1.0, -0.0, 0.0),
        (1.0, 0.0, -0.0),
    ]
    bbox_variants = [
        (10.0, 20.0, 200.0, 100.0),
        (10, 20, 200, 100),
        (-0.0, 20.0, 200.0, 100.0),
        (0.0, 20.0, 200.0, 100.0),
        (10.0, -0.0, 200.0, 100.0),
        (10.0, 0.0, 200.0, 100.0),
    ]
    cases = [(triple, bbox) for triple in pose_variants for bbox in bbox_variants]
    for index, (triple, bbox) in enumerate(cases + cases[::-1] + cases):
        det = Detection(MachineClass.EXCAVATOR, bbox, 0.9)
        pose = tuple(triple for _ in KEYPOINT_NAMES)
        frame = PerceptionFrame(index, (det,), ((0, pose),))
        expected = {
            "index": index,
            "detections": [{"class": "excavator", "bbox": list(bbox), "score": 0.9}],
            "poses": [
                {"det": 0, "keypoints": {name: list(triple) for name in KEYPOINT_NAMES}}
            ],
        }
        line = json.dumps(expected, separators=(",", ":"))
        assert serialize_frame(frame, texts) == line
        assert serialize_frame(frame) == line
    assert texts, "nothing was remembered, so nothing was tested"


def test_serialize_memory_stays_bounded_on_a_noisy_stream():
    # Noisy poses never repeat, so this stream has more distinct poses
    # than the texts a stream may remember.
    config = ScenarioConfig(
        seed=5, duration_s=60.0, noise=NoiseModel(keypoint_sigma=1.0, bbox_sigma=2.0)
    )
    frames = list(generate(config).frames)
    assert len({pose for frame in frames for _, pose in frame.poses}) > streams._TEXTS_LIMIT
    texts = {}
    most = 0
    for frame in frames + frames[::-1]:
        assert serialize_frame(frame, texts) == serialize_frame(frame)
        most = max(most, len(texts))
    assert 0 < most <= streams._TEXTS_LIMIT


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


# --- the parser's memo of repeated frame bodies ---------------------------------

_EXCAVATOR = '[{"class":"excavator","bbox":[10.0,20.0,200.0,100.0],"score":0.9}]'
_EXCAVATOR_POSE = (
    '[{"det":0,"keypoints":{'
    + ",".join(f'"{name}":[{i}.5,20.25,0.75]' for i, name in enumerate(KEYPOINT_NAMES))
    + "}}]"
)
_HUMAN = '[{"class":"human","bbox":[1.0,2.0,30.0,40.0],"score":0.5}]'
# A frame line is '{"index":' + index token + tail.
_TAILS = {
    "excavator": frame_line("", _EXCAVATOR, _EXCAVATOR_POSE)[9:],
    "human": frame_line("", _HUMAN)[9:],
    "empty": frame_line("")[9:],
    "spaced": ', "detections": [], "poses": [] }',
    "second_index": ',"detections":[],"poses":[],"index":7}',
    "escaped_index": r',"detections":[],"poses":[],"\u0069ndex":7}',
    "unknown_field": ',"detections":[],"poses":[],"zoom":1}',
    "unknown_class": frame_line("", '[{"class":"robot","bbox":[1.0,2.0,3.0,4.0],"score":0.5}]')[9:],
    "truncated": ',"detections":[],"poses":[]',
    "pose_twice": frame_line(
        "", _EXCAVATOR, f"[{_EXCAVATOR_POSE[1:-1]},{_EXCAVATOR_POSE[1:-1]}]"
    )[9:],
}


def _line(index, tail: str) -> str:
    return f'{{"index":{index}{_TAILS[tail]}'


_MEMO_STREAMS = {
    "repeated_tails_rising": [_H]
    + [_line(i, ("excavator", "human", "empty")[i % 3]) for i in range(12)],
    "repeated_second_index_key": [_H] + [_line(i, "second_index") for i in range(1, 5)],
    "escaped_index_key": [_H] + [_line(i, "escaped_index") for i in range(1, 5)],
    "leading_zero_after_cached": [_H]
    + [_line(i, "excavator") for i in (0, 1, 2)]
    + [_line("03", "excavator"), _line(4, "excavator")],
    "non_ascii_digits": [_H]
    + [_line(i, "human") for i in (1, 2, 3)]
    + [_line(d, "human") for d in ("٤", "４", "²")],
    "long_indices": [_H]
    + [_line(i, "human") for i in (1, 2, 10**14, 10**15 - 1, 10**15, 10**15 + 1)],
    "hit_not_increasing": [_H] + [_line(i, "excavator") for i in (1, 2, 3, 3, 2, 4)],
    "pose_twice_repeated": [_H]
    + [_line(i, ("pose_twice", "excavator")[i % 2]) for i in range(6)],
    "hit_time_not_finite": ['{"fps":1e-300,"width":1920,"height":1080,"source":"cam"}']
    + [_line(i, "empty") for i in (1, 2, 3, 10**10, 4)],
}


@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@pytest.mark.parametrize("name", sorted(_MEMO_STREAMS))
def test_memo_parses_as_a_full_parse_of_every_line(name, strict, as_bytes):
    lines = _MEMO_STREAMS[name]
    if as_bytes:
        lines = [line.encode() + b"\n" for line in lines]
    expected = parse_outcome(MemoFreeParser, lines, strict)
    assert parse_outcome(streams.StreamParser, lines, strict) == expected
    assert expected[2] is None or strict


# Index tokens besides the running index: invalid JSON, not an integer,
# out of order, or too long to split off.
_INDEX_TOKENS = ["0", "00", "07", "-1", "1.0", "1e1", "٣", "²", " 5", "true",
                 "999999999999999", "1000000000000000"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.one_of(st.integers(-1, 3), st.sampled_from(_INDEX_TOKENS)),
            st.sampled_from(sorted(_TAILS)),
        ),
        max_size=24,
    ),
    fps=st.sampled_from(["25.0", "1e-300"]),
    strict=st.booleans(),
    as_bytes=st.booleans(),
)
def test_memo_matches_a_full_parse_on_drawn_streams(entries, fps, strict, as_bytes):
    # An integer entry steps the running index; a token replaces it once.
    lines = [f'{{"fps":{fps},"width":1920,"height":1080,"source":"cam"}}']
    index = 0
    for token, tail in entries:
        if isinstance(token, int):
            index += token
            token = index
        lines.append(_line(token, tail))
    if as_bytes:
        lines = [line.encode() for line in lines]
    expected = parse_outcome(MemoFreeParser, lines, strict)
    assert parse_outcome(streams.StreamParser, lines, strict) == expected


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_two_poses_on_one_detection_are_a_bad_frame_line(strict):
    lines = [_H, _line(0, "excavator"), _line(1, "pose_twice"), _line(2, "excavator")]
    parser = parse_stream(lines, strict=strict)
    if strict:
        with pytest.raises(StreamFormatError) as err:
            list(parser)
        assert err.value.line_no == 3
        assert "pose det index 0 already has a pose" in str(err.value)
    else:
        assert [f.index for f in parser] == [0, 2]
        assert parser.skipped == 1


def _same_values(a, b) -> bool:
    """Equal, of the same type, at every level."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_values, a, b))
    return repr(a) == repr(b)


def test_a_frame_served_from_the_memo_equals_a_freshly_parsed_one():
    lines = [_H] + [_line(i, "excavator") for i in range(3)]
    parser = parse_stream(lines)
    frames = list(parser)
    assert _TAILS["excavator"] in parser._memo
    # The third sighting shares what the second one parsed.
    assert frames[2].poses is frames[1].poses
    assert frames[2].detections is frames[1].detections
    (fresh,) = parse_stream([_H, lines[3]])
    served = frames[2]
    assert type(served) is type(fresh)
    for name in ("index", "detections", "poses"):
        assert _same_values(getattr(served, name), getattr(fresh, name)), name


def _noisy_lines(n_frames: int) -> list[str]:
    config = ScenarioConfig(
        seed=5, duration_s=n_frames / 25.0 + 1.0,
        noise=NoiseModel(keypoint_sigma=1.0, bbox_sigma=2.0),
    )
    return list(itertools.islice(generate(config).lines(), n_frames + 1))


def _parse_peak(lines) -> tuple[streams.StreamParser, int]:
    """The exhausted parser and the peak traced memory while parsing."""
    tracemalloc.start()
    try:
        parser = parse_stream(lines)
        for _frame in parser:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return parser, peak


def test_memo_admits_nothing_from_bodies_that_never_repeat():
    lines = _noisy_lines(8000)
    assert len(set(line[line.index(","):] for line in lines[1:])) == 8000
    short, short_peak = _parse_peak(lines[:2001])
    long, long_peak = _parse_peak(lines)
    assert short._memo == {} and long._memo == {}
    assert 0 < len(long._seen) <= streams._TEXTS_LIMIT
    assert abs(long_peak - short_peak) < 64 * 1024, (short_peak, long_peak)


def test_memo_keeps_at_most_the_limit_on_many_repeated_bodies():
    n_tails = streams._TEXTS_LIMIT + 88
    bodies = [
        frame_line("", f'[{{"class":"human","bbox":[{i}.5,2.0,30.0,40.0],"score":0.5}}]')[9:]
        for i in range(n_tails)
    ]
    # Each body twice in a row, so it is admitted at once; all of them twice.
    order = [i for i in range(n_tails) for _ in range(2)] * 2
    lines = [_H] + [f'{{"index":{i}{bodies[b]}' for i, b in enumerate(order)]
    parser = parse_stream(lines)
    most_memo = most_seen = 0
    for _frame in parser:
        most_memo = max(most_memo, len(parser._memo))
        most_seen = max(most_seen, len(parser._seen))
    assert most_memo == most_seen == streams._TEXTS_LIMIT
    assert parse_outcome(streams.StreamParser, lines) == parse_outcome(MemoFreeParser, lines)


# --- stream-line fuzz -----------------------------------------------------------


def _fuzz_lines() -> list[bytes]:
    """The header and first frames of a simulated stream with a parked truck."""
    truck = MachineSpec(MachineClass.TRUCK, (1332.0, 400.0, 160.0, 120.0))
    sim = generate(ScenarioConfig(seed=5, cycle_count=1, machines=(truck,)))
    lines = serialize_stream(sim.header, itertools.islice(sim.frames, 6))
    return [line.encode() + b"\n" for line in lines]


FUZZ_LINES = _fuzz_lines()
FUZZ_FRAMES = list(parse_stream(FUZZ_LINES))
FUZZ_FPS = parse_stream(FUZZ_LINES).header.fps
FUZZ_SITE = SiteConfig(regions=ScenarioConfig().regions)
# JSON texts that no frame value may hold, then numbers that some may.
_NEVER_VALID = ["NaN", "Infinity", "-Infinity", "true", "null", "1" + "0" * 400, '"x"', "[[1.0]]"]
_NUMBERS = [str(2**63), "1.5", "-0.0", "1e308"]
_PLACEHOLDER = "@mutated@"


def _paths(obj, dicts: bool, path=()) -> list[tuple]:
    """Paths to obj's dicts, or to its scalar values."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        found = [path] if dicts and isinstance(obj, dict) else []
        for key, value in items:
            found += _paths(value, dicts, path + (key,))
        return found
    return [] if dicts else [path]


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def _mutations(draw):
    """(line number, kind, where, what) for one change to one frame line."""
    line_no = draw(st.integers(2, len(FUZZ_LINES)), label="line_no")
    obj = json.loads(FUZZ_LINES[line_no - 1])
    kind = draw(st.sampled_from(["value", "drop", "rename", "utf8"]), label="kind")
    if kind == "utf8":
        return line_no, kind, draw(st.integers(0, len(FUZZ_LINES[line_no - 1]) - 1)), None
    if kind == "value":
        path = draw(st.sampled_from(_paths(obj, dicts=False)), label="path")
        return line_no, kind, path, draw(st.sampled_from(_NEVER_VALID + _NUMBERS), label="text")
    path = draw(st.sampled_from(_paths(obj, dicts=True)), label="path")
    return line_no, kind, path, draw(st.sampled_from(sorted(_at(obj, path))), label="key")


def _mutate(line: bytes, kind: str, where, what) -> bytes:
    if kind == "utf8":
        return line[:where] + b"\xff" + line[where:]
    obj = json.loads(line)
    if kind == "value":
        *parent, last = where
        _at(obj, parent)[last] = _PLACEHOLDER
        return json.dumps(obj).replace(f'"{_PLACEHOLDER}"', what).encode() + b"\n"
    value = _at(obj, where).pop(what)
    if kind == "rename":
        _at(obj, where)[what + "_renamed"] = value
    return json.dumps(obj).encode() + b"\n"


def _assert_finite(frames, fps: float) -> None:
    for frame in frames:
        assert math.isfinite(frame.index / fps)
        for det in frame.detections:
            assert all(math.isfinite(v) for v in (*det.bbox, det.score))
        for _, pose in frame.poses:
            assert all(math.isfinite(v) for triple in pose for v in triple)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutation=_mutations())
@example(mutation=(3, "value", ("index",), str(2**63)))
@example(mutation=(len(FUZZ_LINES), "value", ("index",), str(2**63)))
@example(mutation=(2, "value", ("detections", 0, "score"), "-0.0"))
def test_a_mutated_frame_line_fails_at_its_line_or_reads_as_finite_numbers(mutation):
    line_no, kind, where, what = mutation
    lines = list(FUZZ_LINES)
    lines[line_no - 1] = _mutate(lines[line_no - 1], kind, where, what)
    # An index raised to a valid larger one leaves every later line out of
    # order.  Lenient parsing drops that frame alone, or, on the last line,
    # keeps it, as strict parsing does.
    raised_index = where == ("index",) and what == str(2**63)
    try:
        frames = list(parse_stream(lines))
    except StreamFormatError as exc:
        assert exc.line_no == line_no + raised_index, mutation
        rejected = True
    else:
        assert kind == "value" and what in _NUMBERS, mutation
        _assert_finite(frames, FUZZ_FPS)
        rejected = False

    parser = parse_stream(lines, strict=False)
    kept = list(parser)
    _assert_finite(kept, FUZZ_FPS)
    if rejected:
        assert parser.skipped == 1
        assert kept == FUZZ_FRAMES[: line_no - 2] + FUZZ_FRAMES[line_no - 1 :]
    else:
        assert parser.skipped == 0
    assert analyze_stream(lines, FUZZ_SITE, strict=False).skipped == parser.skipped
