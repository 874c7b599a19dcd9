"""The streaming analyzer: state history kept as runs, alerts handed to a sink.

Also runs README's "Library use" block against a simulated stream.
"""

import contextlib
import io
import random
import re
import tracemalloc
from math import comb

import sitewatch.activity as activity
import sitewatch.safety as safety
import sitewatch.streams as streams
import sitewatch.tracking as tracking
from sitewatch.activity import ActionState
from sitewatch.config import SiteConfig
from sitewatch.pipeline import StreamAnalyzer, analyze_frames, analyze_stream
from sitewatch.simulator import NoiseModel, ScenarioConfig, generate, inject_collision
from sitewatch.streams import (
    Detection,
    MachineClass,
    PerceptionFrame,
    parse_stream,
    serialize_frame,
    serialize_header,
)

from helpers import (
    DIG_CENTER,
    REGIONS,
    frame_states,
    make_header,
    make_pose,
    naive_soft_nms,
    random_scenario,
    readme_section,
    watch_stream,
    write_site_config,
)


def _parked_excavator_lines(n_frames):
    """One excavator parked with its bucket in the digging square.

    It digs from frame 1 and turns idle after the grace period, so the
    stream holds the same three states however long it runs, and no
    alert, since no second machine ever appears.
    """
    yield serialize_header(make_header())
    detections = (Detection(MachineClass.EXCAVATOR, (150.0, 150.0, 800.0, 400.0), 0.95),)
    poses = ((0, make_pose(arm=DIG_CENTER)),)
    for f in range(n_frames):
        yield serialize_frame(PerceptionFrame(f, detections, poses))


def _traced_peak(run):
    """run()'s result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _peak_traced_bytes(n_frames, site):
    result, peak = _traced_peak(
        lambda: analyze_stream(_parked_excavator_lines(n_frames), site)
    )
    assert result.frame_count == n_frames
    assert result.alert_count == 0
    assert [state for state, _, _ in result.runs[result.primary_track]] == [
        ActionState.UNKNOWN,
        ActionState.DIGGING,
        ActionState.IDLE,
    ]
    return peak


def test_analyze_memory_does_not_grow_with_frames():
    site = SiteConfig(regions=REGIONS)
    n = 250
    # One untraced pass of the longer stream first, so one-time
    # allocations (imports, caches, specialized bytecode) land in
    # neither measurement.
    analyze_stream(_parked_excavator_lines(10 * n), site)
    short = _peak_traced_bytes(n, site)
    long = _peak_traced_bytes(10 * n, site)
    per_frame = (long - short) / (9 * n)
    assert per_frame < 1.0, f"{per_frame:.2f} B per added frame"


def test_result_runs_cover_every_observed_frame():
    site = SiteConfig(regions=REGIONS)
    result = analyze_stream(_parked_excavator_lines(120), site)
    runs = result.runs[result.primary_track]
    assert [f for f, _ in frame_states(runs)] == list(range(120))
    assert runs == [
        (ActionState.UNKNOWN, 0, 0),
        (ActionState.DIGGING, 1, 74),
        (ActionState.IDLE, 75, 119),
    ]


def _parked_pair_lines(n_frames):
    """A human and a loader parked in the digging square: every frame alerts."""
    yield serialize_header(make_header())
    detections = (
        Detection(MachineClass.HUMAN, (180.0, 120.0, 40.0, 100.0), 0.9),
        Detection(MachineClass.LOADER, (150.0, 150.0, 100.0, 80.0), 0.9),
    )
    for f in range(n_frames):
        yield serialize_frame(PerceptionFrame(f, detections, ()))


def _watch(n_frames, site):
    """Feed a StreamAnalyzer frame by frame, as ``watch`` does."""
    parser = parse_stream(_parked_pair_lines(n_frames))
    analyzer = StreamAnalyzer(site, parser.header)
    alerting_frames = 0
    for frame in parser:
        if analyzer.process_frame(frame):
            alerting_frames += 1
    return analyzer, alerting_frames


def _peak_watch_bytes(n_frames, site):
    (analyzer, alerting_frames), peak = _traced_peak(lambda: _watch(n_frames, site))
    assert alerting_frames == n_frames
    assert analyzer.monitor.pause_events == [("pause_raised", 0)]
    return peak


def test_watch_memory_does_not_grow_with_alerts():
    site = SiteConfig(regions=REGIONS)
    n = 250
    # One untraced pass of the longer stream first, as above.
    _watch(10 * n, site)
    short = _peak_watch_bytes(n, site)
    long = _peak_watch_bytes(10 * n, site)
    per_frame = (long - short) / (9 * n)
    assert per_frame < 1.0, f"{per_frame:.2f} B per added frame"


def test_alert_sink_gets_every_alert_and_none_are_kept():
    site = SiteConfig(regions=REGIONS)
    handed: list = []
    sunk = analyze_stream(_parked_pair_lines(40), site, on_alerts=handed.extend)
    assert [alert.frame for alert in handed] == list(range(40))
    parser = parse_stream(_parked_pair_lines(40))
    analyzer = StreamAnalyzer(site, parser.header)
    returned = [alert for frame in parser for alert in analyzer.process_frame(frame)]
    assert handed == returned
    # Without a sink the alerts are counted and dropped.
    counted = analyze_stream(_parked_pair_lines(40), site)
    assert sunk.alert_count == counted.alert_count == 40
    assert not hasattr(sunk, "alerts")


def test_each_pause_event_follows_its_frame_alerts():
    site = SiteConfig(regions=REGIONS, clearance_window=3)
    # The pause is raised on frame 0, cleared on 5 and raised on 8.
    lines = watch_stream({0, 1, 2, 8, 9}, 12).splitlines()
    log: list = []
    result = analyze_frames(parse_stream(lines), site, on_alerts=log.extend, on_pause=log.append)
    parser = parse_stream(lines)
    analyzer = StreamAnalyzer(site, parser.header)
    want: list = []
    for frame in parser:
        known = len(analyzer.monitor.pause_events)
        want += analyzer.process_frame(frame)
        want += analyzer.monitor.pause_events[known:]
    assert log == want
    paused = [entry for entry in log if isinstance(entry, tuple)]
    assert paused == result.pause_events
    assert paused == [("pause_raised", 0), ("pause_cleared", 5), ("pause_raised", 8)]


def _sink_peak_bytes(n_frames, site):
    count = [0]

    def sink(alerts):
        count[0] += len(alerts)

    result, peak = _traced_peak(
        lambda: analyze_stream(_parked_pair_lines(n_frames), site, on_alerts=sink)
    )
    assert count[0] == result.alert_count == n_frames
    return peak


def test_analyze_with_alert_sink_does_not_grow_with_alerts():
    site = SiteConfig(regions=REGIONS)
    n = 250
    # One untraced pass of the longer stream first, as above.
    _sink_peak_bytes(10 * n, site)
    short = _sink_peak_bytes(n, site)
    long = _sink_peak_bytes(10 * n, site)
    per_frame = (long - short) / (9 * n)
    assert per_frame < 1.0, f"{per_frame:.2f} B per added frame"


def test_readme_library_use_block_runs(tmp_path, monkeypatch):
    (block,) = re.findall(r"```python\n(.*?)```", readme_section("Library use"), re.S)
    config = random_scenario(4)
    sim = generate(config)
    dig_first, dig_last = next(
        (first, last) for s, first, last in sim.truth.phases if s is ActionState.DIGGING
    )
    sim = inject_collision(sim, dig_first, dig_last, "human")
    (tmp_path / "sim").mkdir()
    sim.write(tmp_path / "sim" / "stream.jsonl")
    site = SiteConfig(regions=config.regions, activity=config.activity)
    write_site_config(site, tmp_path / "site.json")
    monkeypatch.chdir(tmp_path)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {"__name__": "readme"})

    alerts = []
    result = analyze_stream(sim.lines(), site, on_alerts=alerts.extend)
    assert len(alerts) == dig_last - dig_first + 1
    primary = result.primary_track
    want = [f"{a.frame} {a.region.value} {a.tracks}" for a in alerts]
    want.append(f"{result.alert_count} {result.report.productivity_m3_per_hr}")
    want += [
        f"{seg.state.value} {seg.start_s} {seg.end_s}"
        for seg in result.timeline.segments
    ]
    want += [f"{state.value} {first} {last}" for state, first, last in result.runs[primary]]
    assert printed.getvalue().splitlines() == want


def _crowded_frames(seed: int):
    """A simulated excavator with dropped frames and a parked truck, each
    box duplicated at half its score, plus a walking human."""
    noise = NoiseModel(keypoint_sigma=0.5, drop_prob=0.1)
    sim = generate(random_scenario(seed, noise=noise, with_machine=True))
    rng = random.Random(seed)
    for frame in sim.frames:
        detections = list(frame.detections)
        for det in frame.detections:
            x, y, w, h = det.bbox
            jittered = (max(0.0, x + rng.uniform(-4.0, 4.0)), y, w, h)
            detections.append(Detection(det.cls, jittered, det.score / 2))
        walk = 300.0 + 2.0 * (frame.index % 600)
        detections.append(Detection(MachineClass.HUMAN, (walk, 500.0, 40.0, 110.0), 0.8))
        yield PerceptionFrame(frame.index, tuple(detections), frame.poses)


def test_pinned_work_counts_follow_their_rules(monkeypatch):
    """The rules behind the benchmark's exact classify_location and IoU counts."""
    counts = dict.fromkeys(("activity", "safety", "tracking", "soft_nms"), 0)

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(activity, "classify_location", "activity")
    counted(safety, "classify_location", "safety")
    counted(tracking, "bbox_iou", "tracking")
    counted(streams, "bbox_iou", "soft_nms")
    scored_pairs = [0]
    update = tracking.IouTracker.update

    def update_counting_pairs(tracker, detections):
        scored_pairs[0] += sum(
            1 for track in tracker.tracks for det in detections if det.cls is track.cls
        )
        return update(tracker, detections)

    monkeypatch.setattr(tracking.IouTracker, "update", update_counting_pairs)

    frames = list(_crowded_frames(3))
    lines = [serialize_header(make_header())] + [serialize_frame(f) for f in frames]
    alerts = []
    site = SiteConfig(regions=ScenarioConfig().regions)
    result = analyze_stream(lines, site, on_alerts=alerts.extend)

    # Soft-NMS scores every pair of same-class boxes once when no box
    # falls below the floor, as here.
    same_class_pairs = 0
    for frame in frames:
        assert len(naive_soft_nms(frame.detections)) == len(frame.detections)
        classes = [det.cls for det in frame.detections]
        same_class_pairs += sum(comb(classes.count(c), 2) for c in set(classes))
    assert counts["soft_nms"] == same_class_pairs
    # The tracker scores each live track against each same-class box.
    assert counts["tracking"] == scored_pairs[0]
    # Safety locates each excavator pose; the classifier locates only the
    # poses that follow a pose of the same track on the frame before.
    observed = {
        tid: {f for _, first, last in runs for f in range(first, last + 1)}
        for tid, runs in result.runs.items()
    }
    assert counts["safety"] == sum(len(seen) for seen in observed.values())
    assert counts["activity"] == sum(
        1 for seen in observed.values() for f in seen if f - 1 in seen
    )
    # The scenario has gaps, alerts, and more tracks than objects.
    assert 0 < counts["activity"] < counts["safety"] - 5
    assert alerts and len(result.track_classes) > 3
