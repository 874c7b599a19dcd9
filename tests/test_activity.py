"""Stillness, state transitions, classifier holds, and timeline debounce."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sitewatch.activity import (
    ActionClassifier,
    ActionState,
    ActivityConfig,
    TimelineSegment,
    build_timeline,
    read_timeline_csv,
    step_state,
    write_timeline_csv,
)
from sitewatch.errors import StreamFormatError
from sitewatch.geometry import LocationLabel

from helpers import (
    DIG_CENTER,
    DUMP_CENTER,
    FAR_AWAY,
    REGIONS,
    MotionWindow,
    OracleClassifier,
    frame_states,
    is_still,
    make_pose,
    runs_of,
)

D = ActionState.DIGGING
SA = ActionState.SWING_AFTER_DIGGING
P = ActionState.DUMPING
SF = ActionState.SWING_FOR_DIGGING
I = ActionState.IDLE
U = ActionState.UNKNOWN


def _push_path(window, positions):
    for f, pos in enumerate(positions):
        window.push(f, pos)


def test_static_keypoints_have_zero_motion():
    window = MotionWindow(5)
    _push_path(window, [[(10.0, 20.0), (30.0, 40.0)]] * 5)
    assert window.motion() == 0.0


def test_uniform_translation_motion_is_the_step_norm():
    window = MotionWindow(5)
    base = [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)]
    positions = [
        [(x + 3.0 * f, y + 4.0 * f) for x, y in base] for f in range(5)
    ]
    _push_path(window, positions)
    assert window.motion() == 5.0


def test_single_moving_keypoint_contributes_its_share():
    window = MotionWindow(3)
    positions = [
        [(2.0 * f, 0.0), (50.0, 0.0), (60.0, 0.0), (70.0, 0.0)] for f in range(3)
    ]
    _push_path(window, positions)
    assert window.motion() == 0.5


def test_underfull_window_signals_insufficient_history():
    window = MotionWindow(5)
    assert window.motion() is None
    window.push(0, [(0.0, 0.0)])
    assert window.motion() is None
    window.push(1, [(3.0, 4.0)])
    assert window.motion() == 5.0


def test_frame_gap_resets_the_window():
    window = MotionWindow(3)
    window.push(0, [(0.0, 0.0)])
    window.push(1, [(100.0, 0.0)])
    window.push(5, [(200.0, 0.0)])  # gap: history discarded
    assert len(window) == 1
    assert window.motion() is None


def test_window_requires_consistent_keypoint_count():
    window = MotionWindow(3)
    window.push(0, [(0.0, 0.0)])
    with pytest.raises(ValueError):
        window.push(1, [(0.0, 0.0), (1.0, 1.0)])


def _window_motion_oracle(entries):
    """Mean displacement re-measured from scratch over the stored entries."""
    if len(entries) < 2:
        return None
    total = 0.0
    for prev, entry in zip(entries, entries[1:]):
        for (x1, y1), (x2, y2) in zip(prev, entry):
            total += math.hypot(x2 - x1, y2 - y1)
    return total / ((len(entries) - 1) * len(entries[0]))


@pytest.mark.parametrize("seed", range(20))
def test_incremental_motion_equals_full_recomputation(seed):
    rng = random.Random(seed)
    size = rng.randint(2, 7)
    n_points = rng.randint(1, 5)
    window = MotionWindow(size)
    entries = []  # oracle copy of what the window should hold
    frame = rng.randint(0, 10)
    for _ in range(300):
        roll = rng.random()
        if roll < 0.03:
            window.reset()
            entries = []
        elif roll < 0.10:
            frame += rng.randint(2, 6)  # gap: the next push starts afresh
            entries = []
        points = [
            (rng.uniform(-500.0, 2500.0), rng.uniform(-500.0, 1500.0))
            for _ in range(n_points)
        ]
        window.push(frame, points)
        entries = (entries + [tuple(points)])[-size:]
        frame += 1
        assert len(window) == len(entries)
        want = _window_motion_oracle(entries)
        if want is None:
            assert window.motion() is None
        else:
            assert window.motion() == want


def test_is_still_strict_inequality():
    assert is_still(0.0, 1.5)
    assert not is_still(1.5, 1.5)
    assert not is_still(5.0, 1.5)


# --- the classifier's summed step totals against the MotionWindow oracle ----


def _pose_stream(rng: random.Random, n_frames: int):
    """(frame, pose or None, bbox) with gaps, pose-less frames, and spans
    whose body and arm speeds sit on both sides of 1.5 px/frame."""
    frame = rng.randint(0, 5)
    body = [900.0, 500.0]
    arm = list(DIG_CENTER)
    speeds = (0.0, 0.0)
    out = []
    for _ in range(n_frames):
        if rng.random() < 0.08:
            speeds = (
                rng.choice((0.0, 0.3, 1.4, 1.5, 1.6, 4.0)),
                rng.choice((0.0, 1.45, 1.55, 6.0)),
            )
            arm = list(rng.choice((DIG_CENTER, DUMP_CENTER, FAR_AWAY)))
        roll = rng.random()
        if roll < 0.04:
            frame += rng.randint(2, 4)
        pose = None
        if roll > 0.06:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            body[0] += speeds[0] * math.cos(angle)
            body[1] += speeds[0] * math.sin(angle)
            arm[0] += speeds[1] * math.cos(-angle)
            arm[1] += speeds[1] * math.sin(-angle)
            pose = make_pose(arm=tuple(arm), body=tuple(body))
        bbox = (body[0] - 200.0, body[1] - 150.0, 300.0 + rng.uniform(-1.0, 1.0), 225.0)
        out.append((frame, pose, bbox))
        frame += 1
    return out


@pytest.mark.parametrize("window", range(2, 8))
@pytest.mark.parametrize(
    "mode,threshold", [("px", 1.5), ("bbox_frac", 0.004)], ids=["px", "bbox_frac"]
)
@pytest.mark.parametrize("seed", range(4))
def test_classifier_matches_the_motion_window_oracle(seed, mode, threshold, window):
    config = ActivityConfig(
        stillness_threshold=threshold,
        stillness_mode=mode,
        motion_window=window,
        idle_grace_s=0.2,
    )
    classifier = ActionClassifier(REGIONS, 25.0, config)
    oracle = OracleClassifier(REGIONS, 25.0, config)
    for frame, pose, bbox in _pose_stream(random.Random(seed), 400):
        assert classifier.step(frame, pose, bbox) is oracle.step(frame, pose, bbox), frame
    assert frame_states(classifier.runs) == oracle.states
    assert len({state for _, state in oracle.states}) >= 4


_SQUARE_COORD = st.floats(100.0, 300.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    body=st.integers(1, 6).flatmap(
        lambda steps: st.lists(
            st.lists(st.tuples(_SQUARE_COORD, _SQUARE_COORD), min_size=4, max_size=4),
            min_size=steps + 1,
            max_size=steps + 1,
        )
    ),
    order=st.permutations(range(4)),
    ulps=st.integers(-3, 3),
)
def test_decisions_within_ulps_of_the_threshold_match_the_sequential_oracle(
    body, order, ulps
):
    # The arm repeats the body's points in another order: the same
    # distances summed in another order, so both means sit at the threshold.
    window = MotionWindow(len(body))
    for f, points in enumerate(body):
        window.push(f, points)
    mean = window.motion()
    distances = [
        math.dist(p, q) for last, points in zip(body, body[1:]) for p, q in zip(last, points)
    ]
    # Only windows a compensated sum would round differently.
    assume(math.fsum(distances) / len(distances) != mean)
    threshold = mean
    for _ in range(abs(ulps)):
        threshold = math.nextafter(threshold, math.inf if ulps > 0 else 0.0)
    assume(threshold > 0.0)
    config = ActivityConfig(
        stillness_threshold=threshold, motion_window=len(body), idle_grace_s=0.0
    )
    classifier = ActionClassifier(REGIONS, 25.0, config)
    oracle = OracleClassifier(REGIONS, 25.0, config)
    for f, points in enumerate(body):
        triples = [(x, y, 1.0) for x, y in points]
        pose = tuple([triples[i] for i in order] + [(0.0, 0.0, 0.0)] * 2 + triples)
        assert classifier.step(f, pose) is oracle.step(f, pose)


def test_still_body_in_digging_area_digs():
    state = step_state(SF, LocationLabel.IN_DIGGING, True, False, 0.0)
    assert state is D


def test_moving_body_after_dumping_swings_for_digging():
    assert step_state(P, LocationLabel.ELSEWHERE, False, False, 0.0) is SF
    assert step_state(SF, LocationLabel.ELSEWHERE, False, False, 0.0) is SF


def test_moving_body_after_digging_swings_away():
    assert step_state(D, LocationLabel.ELSEWHERE, False, False, 0.0) is SA
    assert step_state(SA, LocationLabel.IN_DUMPING, False, False, 0.0) is SA
    assert step_state(U, LocationLabel.ELSEWHERE, False, False, 0.0) is SA


def test_still_body_moving_arm_in_dumping_area_dumps():
    assert step_state(SA, LocationLabel.IN_DUMPING, True, False, 0.0) is P


def test_prolonged_total_stillness_becomes_idle():
    assert step_state(P, LocationLabel.IN_DUMPING, True, True, 3.0) is I
    assert step_state(P, LocationLabel.IN_DUMPING, True, True, 2.9) is P  # hold
    # Idle is reachable in any determinate location, not only dumping.
    assert step_state(SA, LocationLabel.ELSEWHERE, True, True, 3.5) is I
    assert step_state(D, LocationLabel.IN_DIGGING, True, True, 3.0) is I


def test_still_body_still_arm_elsewhere_holds():
    assert step_state(SA, LocationLabel.ELSEWHERE, True, True, 0.0) is SA


def test_step_state_is_pure():
    args = (P, LocationLabel.IN_DUMPING, True, False, 1.0)
    assert step_state(*args) is step_state(*args)


def _run_classifier(steps, fps=25.0, config=None):
    classifier = ActionClassifier(REGIONS, fps, config or ActivityConfig())
    for f, (arm, body) in enumerate(steps):
        pose = None if arm is None else make_pose(arm=arm, body=body)
        classifier.step(f, pose)
    return classifier


def test_classifier_warm_up_is_unknown_then_digs():
    steps = [(DIG_CENTER, (900.0, 500.0))] * 10
    classifier = _run_classifier(steps)
    states = [s for _, s in frame_states(classifier.runs)]
    assert states[0] is U  # one sample gives no displacement yet
    assert states[1:] == [D] * 9


def test_classifier_missing_pose_holds_state_and_resets_history():
    steps = [(DIG_CENTER, (900.0, 500.0))] * 8 + [(None, None)] + [
        (DIG_CENTER, (900.0, 500.0))
    ] * 3
    classifier = _run_classifier(steps)
    states = [s for _, s in frame_states(classifier.runs)]
    assert states[8] is D  # held through the dropout
    assert states[9:] == [D] * 3  # window refills while holding


def test_classifier_indeterminate_probe_holds_state():
    good = [(DIG_CENTER, (900.0, 500.0))] * 8
    classifier = ActionClassifier(REGIONS, 25.0)
    for f, (arm, body) in enumerate(good):
        classifier.step(f, make_pose(arm=arm, body=body))
    classifier.step(8, make_pose(arm=FAR_AWAY, body=(900.0, 500.0), conf=0.0))
    assert classifier.state is D


def test_classifier_requires_increasing_frames():
    classifier = ActionClassifier(REGIONS, 25.0)
    classifier.step(3, make_pose())
    with pytest.raises(ValueError):
        classifier.step(3, make_pose())


def test_classifier_full_cycle_sequence():
    fps = 25.0
    body_dig = (900.0, 700.0)
    body_dump = (1100.0, 700.0)
    steps = []
    steps += [(DIG_CENTER, body_dig)] * 30
    # Swing out: body translates 10 px/frame, arm rides along.
    for k in range(1, 21):
        t = k / 20.0
        body = (900.0 + 200.0 * t, 700.0)
        arm = (DIG_CENTER[0] + (DUMP_CENTER[0] - DIG_CENTER[0]) * t, 200.0)
        steps.append((arm, body))
    # Dump: body still, arm oscillates vertically 6 px/frame.
    for k in range(30):
        steps.append(((DUMP_CENTER[0], 200.0 + 6.0 * (k % 2)), body_dump))
    # Swing back.
    for k in range(1, 21):
        t = k / 20.0
        body = (1100.0 - 200.0 * t, 700.0)
        arm = (DUMP_CENTER[0] + (DIG_CENTER[0] - DUMP_CENTER[0]) * t, 200.0)
        steps.append((arm, body))
    steps += [(DIG_CENTER, body_dig)] * 30
    classifier = _run_classifier(steps, fps=fps)
    timeline = build_timeline(classifier.runs, fps, min_duration=0.4)
    got = [seg.state for seg in timeline.segments]
    assert got == [D, SA, P, SF, D]


def test_swing_direction_never_contradicts_its_neighbors():
    classifier = _run_classifier(
        [(DIG_CENTER, (900.0, 500.0))] * 10
        + [((300.0 + 12.0 * k, 200.0), (900.0 + 12.0 * k, 500.0)) for k in range(10)]
    )
    states = [s for _, s in frame_states(classifier.runs)]
    for prev, state in zip(states, states[1:]):
        if state is SF:
            assert prev in (P, SF, U)
        if state is SA:
            assert prev not in (P, SF)


def test_classifier_states_are_the_stepped_states():
    for seed in range(20):
        rng = random.Random(seed)
        classifier = ActionClassifier(REGIONS, 25.0)
        stepped = []
        frame = rng.randrange(3)
        arm, body = DIG_CENTER, [900.0, 500.0]
        for _ in range(200):
            if rng.random() < 0.1:
                arm = rng.choice([DIG_CENTER, DUMP_CENTER, FAR_AWAY])
            if rng.random() < 0.3:
                body[0] += rng.choice([-12.0, 12.0])
            dump_wiggle = rng.choice([0.0, 6.0])
            pose = None
            if rng.random() >= 0.05:
                pose = make_pose(arm=(arm[0], arm[1] + dump_wiggle), body=tuple(body))
            stepped.append((frame, classifier.step(frame, pose)))
            frame += 1 if rng.random() < 0.9 else rng.randint(2, 4)
        assert frame_states(classifier.runs) == stepped, f"seed {seed}"
        assert classifier.observed_frames == len(stepped)
        assert len({s for _, s in stepped}) >= 3, f"seed {seed}"
        # Runs are maximal: neighbors differ in state or leave a gap.
        for (s1, _, last), (s2, first, _) in zip(classifier.runs, classifier.runs[1:]):
            assert s1 is not s2 or first > last + 1


def _batch_timeline_segments(pairs, fps, min_duration):
    """The per-frame batch debounce, kept as the reference for the runs."""
    runs = []
    for frame, state in pairs:
        if runs and runs[-1][0] is state:
            runs[-1][2] = frame
        else:
            runs.append([state, frame, frame])
    if not runs:
        return []
    for current, following in zip(runs, runs[1:]):
        current[2] = following[1] - 1
    merged = [runs[0]]
    for state, start, end in runs[1:]:
        if (end - start + 1) / fps < min_duration or merged[-1][0] is state:
            merged[-1][2] = end
        else:
            merged.append([state, start, end])
    while len(merged) > 1 and (merged[0][2] - merged[0][1] + 1) / fps < min_duration:
        merged[1][1] = merged[0][1]
        del merged[0]
    return [
        TimelineSegment(
            state, start, end, start / fps, (end + 1) / fps, (end - start + 1) / fps
        )
        for state, start, end in merged
    ]


@settings(max_examples=200, derandomize=True)
@given(
    steps=st.lists(
        st.tuples(st.integers(1, 4), st.sampled_from([D, SA, P, SF, I, U])),
        max_size=80,
    ),
    first=st.integers(0, 5),
    fps=st.sampled_from([10.0, 25.0, 30.0]),
    min_duration=st.floats(0.0, 1.5),
)
def test_runs_timeline_equals_the_per_frame_batch(steps, first, fps, min_duration):
    pairs = []
    frame = first - 1
    for gap, state in steps:
        frame += gap
        pairs.append((frame, state))
    # Runs over consecutive frames, as ActionClassifier keeps them.
    runs = []
    for frame, state in pairs:
        if runs and runs[-1][0] is state and runs[-1][2] == frame - 1:
            runs[-1][2] = frame
        else:
            runs.append([state, frame, frame])
    assert frame_states(runs) == pairs
    kept = [list(run) for run in runs]

    want = _batch_timeline_segments(pairs, fps, min_duration)
    assert build_timeline(runs, fps, min_duration).segments == want
    assert runs == kept  # the caller's runs are left as they were
    states = [state for _, state in pairs]
    assert build_timeline(runs_of(states), fps, min_duration).segments == (
        _batch_timeline_segments(list(enumerate(states)), fps, min_duration)
    )


def test_build_timeline_rejects_overlapping_runs():
    with pytest.raises(ValueError):
        build_timeline([(D, 0, 4), (SA, 4, 6)], 25.0)
    with pytest.raises(ValueError):
        build_timeline([(D, 3, 2)], 25.0)


def test_build_timeline_single_run():
    timeline = build_timeline([(D, 0, 24)], 25.0)
    assert len(timeline.segments) == 1
    seg = timeline.segments[0]
    assert seg.state is D
    assert (seg.start_frame, seg.end_frame) == (0, 24)
    assert seg.duration_s == 1.0
    assert seg.start_s == 0.0
    assert seg.end_s == 1.0


def test_build_timeline_absorbs_flicker_into_first_segment():
    states = [D, SA, D, SA, D, SA, D, SA, D, SA]
    timeline = build_timeline(runs_of(states), 25.0, min_duration=0.2)
    assert [seg.state for seg in timeline.segments] == [D]
    assert timeline.segments[0].start_frame == 0
    assert timeline.segments[0].end_frame == 9


def test_build_timeline_empty_input():
    timeline = build_timeline([], 25.0)
    assert timeline.segments == []
    assert timeline.total_s == 0.0


def test_build_timeline_short_leading_run_joins_the_following_segment():
    states = [U] * 3 + [D] * 50
    timeline = build_timeline(runs_of(states), 25.0, min_duration=0.5)
    assert [seg.state for seg in timeline.segments] == [D]
    assert timeline.segments[0].start_frame == 0
    assert timeline.segments[0].end_frame == 52


def test_build_timeline_covers_gaps_with_the_held_state():
    runs = [(D, 0, 1), (SA, 5, 6)]
    timeline = build_timeline(runs, 1.0, min_duration=0.0)
    assert [(s.state, s.start_frame, s.end_frame) for s in timeline.segments] == [
        (D, 0, 4),
        (SA, 5, 6),
    ]


def test_build_timeline_rejects_non_increasing_frames():
    with pytest.raises(ValueError):
        build_timeline([(D, 0, 0), (SA, 0, 0)], 25.0)


@settings(max_examples=120, derandomize=True)
@given(
    states=st.lists(st.sampled_from([D, SA, P, SF, I, U]), min_size=1, max_size=60),
    fps=st.sampled_from([10.0, 25.0, 30.0]),
    min_duration=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_build_timeline_segments_partition_the_frame_range(states, fps, min_duration):
    timeline = build_timeline(runs_of(states), fps, min_duration)
    segments = timeline.segments
    assert segments[0].start_frame == 0
    assert segments[-1].end_frame == len(states) - 1
    for a, b in zip(segments, segments[1:]):
        assert b.start_frame == a.end_frame + 1
        assert a.state is not b.state
    total = sum(seg.duration_s for seg in segments)
    assert total == pytest.approx(len(states) / fps, abs=1e-9)


def test_state_seconds_merges_swing_variants():
    states = [D] * 25 + [SA] * 25 + [P] * 25 + [SF] * 25
    timeline = build_timeline(runs_of(states), 25.0)
    seconds = timeline.state_seconds()
    assert seconds == {"digging": 1.0, "swinging": 2.0, "dumping": 1.0}


def test_timeline_csv_round_trip(tmp_path):
    states = [U] * 3 + [D] * 50 + [SA] * 30 + [P] * 60 + [SF] * 30 + [D] * 40
    timeline = build_timeline(runs_of(states), 25.0)
    path = tmp_path / "timeline.csv"
    write_timeline_csv(timeline, path)
    back = read_timeline_csv(path, 25.0)
    assert [
        (s.state, s.start_frame, s.end_frame, s.start_s, s.end_s)
        for s in back.segments
    ] == [
        (s.state, s.start_frame, s.end_frame, s.start_s, s.end_s)
        for s in timeline.segments
    ]


def test_timeline_csv_rejects_gaps(tmp_path):
    path = tmp_path / "timeline.csv"
    path.write_text(
        "segment,start_s,end_s,state\n0,0.0,1.0,digging\n1,2.0,3.0,dumping\n"
    )
    with pytest.raises(ValueError):
        read_timeline_csv(path, 25.0)


@pytest.mark.parametrize(
    "start, end", [("0.0", "inf"), ("0.0", "nan"), ("-1.0", "1.0"), ("nan", "1.0"), ("x", "1.0")]
)
def test_timeline_csv_names_the_line_of_a_bad_time(tmp_path, start, end):
    path = tmp_path / "timeline.csv"
    path.write_text(
        f"segment,start_s,end_s,state\n0,0.0,1.0,digging\n1,{start},{end},dumping\n"
    )
    with pytest.raises(StreamFormatError) as info:
        read_timeline_csv(path, 25.0)
    assert info.value.line_no == 3


def test_activity_config_validation():
    with pytest.raises(ValueError):
        ActivityConfig(stillness_threshold=0.0)
    with pytest.raises(ValueError):
        ActivityConfig(stillness_mode="meters")
    with pytest.raises(ValueError):
        ActivityConfig(motion_window=1)
    with pytest.raises(ValueError):
        ActivityConfig(probe_conf_floor=1.5)


def test_bbox_fraction_stillness_mode():
    config = ActivityConfig(stillness_threshold=0.004, stillness_mode="bbox_frac")
    classifier = ActionClassifier(REGIONS, 25.0, config)
    bbox = (100.0, 100.0, 300.0, 400.0)  # diagonal 500 -> threshold 2 px
    for f in range(8):
        classifier.step(f, make_pose(arm=DIG_CENTER, body=(900.0, 500.0)), bbox)
    assert classifier.state is ActionState.DIGGING
    bare = ActionClassifier(REGIONS, 25.0, config)
    bare.step(0, make_pose())  # no motion estimate yet, bbox not consulted
    with pytest.raises(ValueError):
        bare.step(1, make_pose())
