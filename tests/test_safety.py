"""Region co-occupancy alerts and the latched pause signal."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sitewatch.geometry import LocationLabel, RegionLabel
from sitewatch.safety import (
    MACHINE_CLASSES,
    Alert,
    PauseSignal,
    SafetyMonitor,
    check_collision,
    locate_machines,
    update_pause,
)
from sitewatch.streams import MachineClass
from sitewatch.tracking import Track

from helpers import DIG_CENTER, DUMP_CENTER, REGIONS, make_pose

IN_DIG = LocationLabel.IN_DIGGING
IN_DUMP = LocationLabel.IN_DUMPING
ELSEWHERE = LocationLabel.ELSEWHERE

EXC = MachineClass.EXCAVATOR
LOADER = MachineClass.LOADER
TRUCK = MachineClass.TRUCK
HUMAN = MachineClass.HUMAN
CONE = MachineClass.CONE


def _track(track_id, cls, bbox=(0.0, 0.0, 10.0, 10.0)):
    return Track(track_id=track_id, cls=cls, bbox=bbox)


def test_locate_machines_uses_pose_probe_for_excavators():
    # bbox bottom-center sits in dumping, but the probe says digging.
    track = _track(1, EXC, bbox=(DUMP_CENTER[0] - 50.0, 100.0, 100.0, 100.0))
    pose = make_pose(arm=DIG_CENTER, body=(900.0, 500.0))
    out = locate_machines([(track, track.bbox, pose)], REGIONS)
    assert out == {1: IN_DIG}


def test_locate_machines_bottom_center_for_plain_machines():
    dump_box = (DUMP_CENTER[0] - 20.0, DUMP_CENTER[1] - 40.0, 40.0, 40.0)
    far_box = (1500.0, 900.0, 40.0, 40.0)
    out = locate_machines(
        [
            (_track(1, TRUCK), dump_box, None),
            (_track(2, HUMAN), far_box, None),
        ],
        REGIONS,
    )
    assert out == {1: IN_DUMP, 2: ELSEWHERE}


def test_locate_machines_low_conf_pose_falls_back_to_bbox():
    dump_box = (DUMP_CENTER[0] - 20.0, DUMP_CENTER[1] - 40.0, 40.0, 40.0)
    pose = make_pose(arm=DIG_CENTER, body=(900.0, 500.0), conf=0.0)
    out = locate_machines([(_track(1, EXC), dump_box, pose)], REGIONS)
    assert out == {1: IN_DUMP}


def test_two_machines_in_one_region_alert():
    alerts = check_collision(
        {1: IN_DIG, 2: IN_DIG}, {1: EXC, 2: LOADER}, frame_index=10, fps=25.0
    )
    assert alerts == [
        Alert(10, RegionLabel.DIGGING, ((1, EXC), (2, LOADER)), 0.4)
    ]


def test_lone_machine_never_alerts():
    assert check_collision({1: IN_DIG}, {1: EXC}) == []
    assert check_collision({1: IN_DIG, 2: IN_DUMP}, {1: EXC, 2: TRUCK}) == []


def test_elsewhere_never_alerts():
    locations = {1: ELSEWHERE, 2: ELSEWHERE, 3: ELSEWHERE}
    classes = {1: EXC, 2: LOADER, 3: HUMAN}
    assert check_collision(locations, classes) == []


def test_human_with_machine_alerts():
    alerts = check_collision({1: IN_DUMP, 2: IN_DUMP}, {1: TRUCK, 2: HUMAN})
    assert len(alerts) == 1
    assert alerts[0].region is RegionLabel.DUMPING
    assert alerts[0].tracks == ((1, TRUCK), (2, HUMAN))


def test_humans_alone_do_not_alert():
    assert check_collision({1: IN_DIG, 2: IN_DIG}, {1: HUMAN, 2: HUMAN}) == []


def test_static_gear_is_ignored():
    for cls in (CONE, MachineClass.HOOK, MachineClass.CAR, MachineClass.SHOVEL):
        assert cls not in MACHINE_CLASSES
        assert check_collision({1: IN_DIG, 2: IN_DIG}, {1: EXC, 2: cls}) == []
        # ...even paired with a human.
        assert check_collision({1: IN_DIG, 2: IN_DIG}, {1: HUMAN, 2: cls}) == []


def test_both_regions_can_alert_in_one_frame():
    locations = {1: IN_DIG, 2: IN_DIG, 3: IN_DUMP, 4: IN_DUMP}
    classes = {1: EXC, 2: LOADER, 3: TRUCK, 4: HUMAN}
    alerts = check_collision(locations, classes)
    assert [a.region for a in alerts] == [RegionLabel.DIGGING, RegionLabel.DUMPING]


def test_alert_tracks_sorted_by_id_regardless_of_map_order():
    locations = {5: IN_DIG, 1: IN_DIG, 3: IN_DIG}
    classes = {5: LOADER, 1: HUMAN, 3: EXC}
    (alert,) = check_collision(locations, classes)
    assert alert.tracks == ((1, HUMAN), (3, EXC), (5, LOADER))


def test_check_collision_order_independent():
    rng = random.Random(7)
    ids = list(range(1, 8))
    classes = {i: rng.choice(list(MachineClass)) for i in ids}
    locations = {i: rng.choice([IN_DIG, IN_DUMP, ELSEWHERE]) for i in ids}
    baseline = check_collision(locations, classes, 3, 25.0)
    for _ in range(20):
        rng.shuffle(ids)
        shuffled_loc = {i: locations[i] for i in ids}
        shuffled_cls = {i: classes[i] for i in ids}
        assert check_collision(shuffled_loc, shuffled_cls, 3, 25.0) == baseline


def _alert(frame):
    return [Alert(frame, RegionLabel.DIGGING, ((1, EXC), (2, LOADER)), frame / 25.0)]


def test_pause_raises_on_first_alert():
    signal = update_pause(PauseSignal(), _alert(4), 4, clearance_window=5)
    assert signal == PauseSignal(True, 4, None, 0)


def test_pause_stays_inactive_without_alerts():
    signal = PauseSignal()
    for f in range(10):
        signal = update_pause(signal, [], f, clearance_window=5)
    assert signal == PauseSignal()


def test_pause_holds_through_short_quiet_spells():
    signal = update_pause(PauseSignal(), _alert(0), 0, clearance_window=5)
    for f in range(1, 4):  # 3 quiet frames < 5
        signal = update_pause(signal, [], f, clearance_window=5)
    assert signal.active
    assert signal.clear_streak == 3


def test_pause_clears_after_full_quiet_window():
    signal = update_pause(PauseSignal(), _alert(0), 0, clearance_window=5)
    for f in range(1, 6):
        signal = update_pause(signal, [], f, clearance_window=5)
    assert signal == PauseSignal(False, 0, 5, 0)


def test_new_alert_resets_the_clearing_streak():
    signal = update_pause(PauseSignal(), _alert(0), 0, clearance_window=5)
    for f in range(1, 5):
        signal = update_pause(signal, [], f, clearance_window=5)
    assert signal.clear_streak == 4
    signal = update_pause(signal, _alert(5), 5, clearance_window=5)
    assert signal.active
    assert signal.raised_at == 0  # still the original episode
    assert signal.clear_streak == 0
    signal = update_pause(signal, [], 6, clearance_window=5)
    assert signal.active  # a fresh five-frame count is required


def test_clearance_window_must_be_positive():
    with pytest.raises(ValueError, match="clearance_window"):
        SafetyMonitor(REGIONS, 25.0, clearance_window=0)


@settings(max_examples=150, derandomize=True)
@given(
    alert_frames=st.lists(st.booleans(), min_size=1, max_size=80),
    window=st.integers(min_value=1, max_value=6),
)
def test_pause_latch_matches_a_direct_replay(alert_frames, window):
    """The latch equals: active since the last alert until `window` quiet frames."""
    signal = PauseSignal()
    active_flags = []
    for f, has_alert in enumerate(alert_frames):
        signal = update_pause(signal, _alert(f) if has_alert else [], f, window)
        active_flags.append(signal.active)

    expected = []
    quiet_after_alert = None  # None until the first alert
    for has_alert in alert_frames:
        if has_alert:
            quiet_after_alert = 0
        elif quiet_after_alert is not None:
            quiet_after_alert += 1
        expected.append(
            quiet_after_alert is not None and quiet_after_alert < window
        )
    assert active_flags == expected


def test_monitor_logs_alerts_and_pause_events():
    monitor = SafetyMonitor(REGIONS, fps=25.0, clearance_window=3)
    dig_box = (DIG_CENTER[0] - 20.0, DIG_CENTER[1] - 40.0, 40.0, 40.0)
    far_box = (1500.0, 900.0, 40.0, 40.0)
    exc = _track(1, EXC)
    loader = _track(2, LOADER)
    alerts = []
    for f in range(3):
        alerts += monitor.step(
            f, [(exc, dig_box, make_pose(arm=DIG_CENTER)), (loader, dig_box, None)]
        )
    for f in range(3, 8):
        alerts += monitor.step(
            f, [(exc, dig_box, make_pose(arm=DIG_CENTER)), (loader, far_box, None)]
        )
    assert [a.frame for a in alerts] == [0, 1, 2]
    assert alerts[0].tracks == ((1, EXC), (2, LOADER))
    assert monitor.pause_events == [("pause_raised", 0), ("pause_cleared", 5)]
    assert not monitor.pause.active


def test_monitor_pause_still_active_at_stream_end():
    monitor = SafetyMonitor(REGIONS, fps=25.0, clearance_window=25)
    dig_box = (DIG_CENTER[0] - 20.0, DIG_CENTER[1] - 40.0, 40.0, 40.0)
    monitor.step(0, [(_track(1, TRUCK), dig_box, None), (_track(2, HUMAN), dig_box, None)])
    assert monitor.pause.active
    assert monitor.pause_events == [("pause_raised", 0)]


def test_monitor_rejects_bad_fps():
    with pytest.raises(ValueError):
        SafetyMonitor(REGIONS, fps=0.0)
