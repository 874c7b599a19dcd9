"""Cycle pairing, rate arithmetic, and the productivity report."""

import csv

import pytest

from sitewatch.activity import ActionState, build_timeline
from sitewatch.productivity import (
    CycleRecord,
    build_report,
    compute_productivity,
    detect_cycles,
    report_rows,
    write_cycles_csv,
    write_report_csv,
)

from helpers import cycle_accuracy, runs_of

D = ActionState.DIGGING
SA = ActionState.SWING_AFTER_DIGGING
P = ActionState.DUMPING
SF = ActionState.SWING_FOR_DIGGING


def _timeline(spec, fps=25.0):
    """spec: [(state, n_frames), ...] expanded into a per-frame list."""
    states = []
    for state, count in spec:
        states.extend([state] * count)
    return build_timeline(runs_of(states), fps, min_duration=0.0)


def test_two_digging_starts_make_one_cycle():
    timeline = _timeline([(D, 50), (SA, 25), (P, 50), (SF, 25), (D, 50)])
    cycles = detect_cycles(timeline)
    assert len(cycles) == 1
    assert cycles[0] == CycleRecord(0, 150, 6.0)


def test_no_digging_means_no_cycles():
    timeline = _timeline([(SF, 40), (P, 40)])
    assert detect_cycles(timeline) == []
    # One dig alone is an incomplete cycle, not a cycle.
    assert detect_cycles(_timeline([(D, 40), (SA, 40)])) == []


def test_cycle_durations_from_frame_starts():
    # Digging starts at frames 0, 45, 90 at 2 fps: two 22.5 s cycles.
    timeline = _timeline([(D, 20), (P, 25), (D, 20), (P, 25), (D, 20)], fps=2.0)
    cycles = detect_cycles(timeline)
    assert [c.start_frame for c in cycles] == [0, 45]
    assert [c.duration_s for c in cycles] == [22.5, 22.5]


def test_cycle_record_must_move_forward():
    with pytest.raises(ValueError):
        CycleRecord(10, 10, 0.0)


def test_productivity_arithmetic():
    assert compute_productivity(160.0, 0.4, 1.01) == 64.64
    assert compute_productivity(100.0, 1.0, 1.0) == 100.0
    assert compute_productivity(0.0, 0.4, 1.01) == 0.0


def test_productivity_rejects_negative_factors():
    with pytest.raises(ValueError):
        compute_productivity(-1.0, 0.4, 1.0)
    with pytest.raises(ValueError):
        compute_productivity(10.0, -0.4, 1.0)
    with pytest.raises(ValueError):
        compute_productivity(10.0, 0.4, -1.0)


def test_cycle_accuracy_ratios():
    assert cycle_accuracy(39, 40) == 0.975
    assert cycle_accuracy(40, 40) == 1.0
    assert cycle_accuracy(44, 40) == 40 / 44
    assert cycle_accuracy(0, 40) == 0.0


def test_cycle_accuracy_is_symmetric_around_truth():
    assert cycle_accuracy(38, 40) == cycle_accuracy(40, 38) * 1.0
    for detected in range(1, 10):
        assert 0.0 < cycle_accuracy(detected, 5) <= 1.0


def test_cycle_accuracy_input_validation():
    with pytest.raises(ValueError):
        cycle_accuracy(10, 0)
    with pytest.raises(ValueError):
        cycle_accuracy(-1, 10)


def _forty_cycle_timeline():
    """40 complete cycles spanning exactly 900 s of digging starts at 25 fps.

    22.5 s/cycle is 562.5 frames, so cycles alternate 562 and 563 frames;
    20 of each sum to 22500 frames = 900 s and the rate is exactly
    160 cycles/hr.
    """
    spec = []
    for i in range(40):
        spec.extend([(D, 200), (SA, 80), (P, 203), (SF, 79 + i % 2)])
    spec.append((D, 200))  # 41st digging start closes the 40th cycle
    return _timeline(spec, fps=25.0)


def test_report_dig_span_rate():
    report = build_report(_forty_cycle_timeline(), 0.4, 1.01)
    assert len(report.cycles) == 40
    assert report.rate_denominator_s == 900.0
    assert report.cycles_per_hr == 160.0
    assert report.productivity_m3_per_hr == 64.64


def test_report_stream_denominator():
    timeline = _forty_cycle_timeline()
    report = build_report(timeline, 0.4, 1.01, rate_denominator="stream")
    assert report.rate_denominator_s == timeline.total_s
    assert report.cycles_per_hr == pytest.approx(
        40 / (timeline.total_s / 3600.0)
    )
    with pytest.raises(ValueError):
        build_report(timeline, 0.4, 1.01, rate_denominator="wall_clock")


def test_report_with_too_few_digs_has_zero_rate():
    report = build_report(_timeline([(D, 50), (SA, 50)]), 0.4, 1.01)
    assert report.cycles == []
    assert report.cycles_per_hr == 0.0
    assert report.productivity_m3_per_hr == 0.0


def test_report_flags_incomplete_trailing_cycle():
    timeline = _timeline([(D, 50), (SA, 25), (D, 50), (P, 100)])
    report = build_report(timeline, 0.4, 1.0)
    assert len(report.cycles) == 1
    # Footage after the last digging start: 50 + 100 frames at 25 fps.
    assert report.incomplete_cycle_s == pytest.approx(150 / 25.0)
    complete = build_report(_timeline([(D, 50), (SA, 25), (D, 1)]), 0.4, 1.0)
    assert complete.incomplete_cycle_s is None


def test_report_state_seconds_merge():
    timeline = _timeline([(D, 50), (SA, 25), (P, 50), (SF, 25), (D, 50)])
    report = build_report(timeline, 0.4, 1.0)
    assert report.state_seconds == {"digging": 4.0, "swinging": 2.0, "dumping": 2.0}


def test_report_rows_render_clean_decimals():
    rows = dict(report_rows(build_report(_forty_cycle_timeline(), 0.4, 1.01)))
    assert rows["cycles"] == "40"
    assert rows["cycles_per_hr"] == "160"
    assert rows["productivity_m3_per_hr"] == "64.64"
    assert rows["bucket_volume_m3"] == "0.4"
    assert rows["bucket_full_rate"] == "1.01"
    assert rows["rate_denominator_s"] == "900"


def test_report_csv_layout(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(build_report(_forty_cycle_timeline(), 0.4, 1.01), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["field", "value"]
    table = dict(rows[1:])
    assert table["productivity_m3_per_hr"] == "64.64"
    assert table["state_s_idle"] == "0"
    assert table["incomplete_cycle_s"] == "8"  # the in-progress 41st dig


def test_cycles_csv_layout(tmp_path):
    timeline = _timeline([(D, 50), (SA, 25), (P, 50), (SF, 25), (D, 50)])
    path = tmp_path / "cycles.csv"
    write_cycles_csv(detect_cycles(timeline), 25.0, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cycle", "start_s", "end_s", "duration_s"]
    assert rows[1] == ["0", "0.0", "6.0", "6.0"]
