"""analyze_file parses in a forked child; it must agree with analyze_stream.

Every test here forces the forked path, so it runs even where only one
CPU is usable (where analyze_file would otherwise parse in-process).
"""

import dataclasses
import os
import random
import threading

import pytest

import sitewatch.forking as forking
import sitewatch.pipeline as pipeline
from sitewatch.config import SiteConfig
from sitewatch.errors import StreamFormatError
from sitewatch.pipeline import AnalysisResult, StreamAnalyzer, analyze_file, analyze_stream
from sitewatch.simulator import DEFAULT_REGIONS, NoiseModel, generate, inject_collision
from sitewatch.streams import (
    KEYPOINT_NAMES,
    Detection,
    MachineClass,
    PerceptionFrame,
    parse_stream,
    serialize_frame,
    serialize_header,
)

from helpers import REGIONS, frame_line, make_header, random_bbox, random_scenario

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

_H = '{"fps":25.0,"width":1920,"height":1080,"source":"cam"}'
# Every field the CLI or a library caller can read off a result.
_FIELDS = [f.name for f in dataclasses.fields(AnalysisResult)]


can_fork = forking.can_fork


@pytest.fixture(autouse=True)
def forked(monkeypatch):
    monkeypatch.setattr(forking, "can_fork", lambda: True)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _crowded_lines(seed):
    """A simulated site with a parked truck, an injected human (alerts),
    noise, and a seeded layer of extra boxes of every class, some of
    them near-copies of the excavator's so soft-NMS decays and drops
    boxes and remaps pose references."""
    sim = generate(random_scenario(seed, NoiseModel(1.0, 0.05, 1.5), with_machine=True))
    n = len(sim.frames)
    sim = inject_collision(sim, n // 4, n // 2, "human")
    rng = random.Random(seed)
    parser = parse_stream(sim.lines())
    yield serialize_header(parser.header)
    classes = list(MachineClass)
    for frame in parser:
        extra = []
        for _ in range(rng.randrange(0, 4)):
            extra.append(Detection(rng.choice(classes), random_bbox(rng), rng.uniform(0.0, 1.0)))
        if frame.detections and rng.random() < 0.3:
            x, y, w, h = frame.detections[0].bbox
            near = (x + 0.5, y, w - 1.0, h)
            extra.append(Detection(MachineClass.EXCAVATOR, near, rng.random()))
        rng.shuffle(extra)
        yield serialize_frame(
            PerceptionFrame(frame.index, frame.detections + tuple(extra), frame.poses)
        )


def _assert_same_result(got, want):
    for name in _FIELDS:
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_analyze_file_equals_analyze_stream(tmp_path, seed):
    path = tmp_path / "stream.jsonl"
    path.write_text("".join(line + "\n" for line in _crowded_lines(seed)))
    site = SiteConfig(regions=DEFAULT_REGIONS)
    want_alerts = []
    with open(path, "rb") as fh:
        want = analyze_stream(fh, site, on_alerts=want_alerts.extend)
    assert want.alert_count > 0 and want.pause_events
    assert len(want.track_classes) > 3
    got = analyze_file(path, site)
    _assert_same_result(got, want)
    # The sink gets the same alerts in the same order.
    sunk = []
    got = analyze_file(path, site, on_alerts=sunk.extend)
    _assert_same_result(got, want)
    assert sunk == want_alerts
    assert _no_child_left()


def test_frames_reach_the_analyzer_bit_for_bit(tmp_path, monkeypatch):
    # Signed zeros, integers written for floats and an unclipped
    # keypoint must all arrive as the in-process parser makes them.
    kps = ",".join(
        f'"{name}":[{x},{y},{c}]'
        for name, x, y, c in zip(
            KEYPOINT_NAMES,
            (-0.0, 0, 1e-300, -50.5, 3, 0.1, 1920.0, 2000.25, 7, 0.0),
            (0.0, -0.0, 2, 1080.0, 5e-324, -1.5, 3.0, 4.0, 5.0, 6.0),
            (0.0, -0.0, 1, 1.0, 0.5, 0.25, 0, 1e-9, 0.75, 1.0),
        )
    )
    dets = (
        '[{"class":"excavator","bbox":[-0.0,0,10,20.5],"score":-0.0},'
        '{"class":"human","bbox":[5.0,5.0,1e-3,3.0],"score":1}]'
    )
    lines = [_H, frame_line(0, dets, f'[{{"det":0,"keypoints":{{{kps}}}}}]'), frame_line(7)]
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join(lines) + "\n")
    seen = []
    original = StreamAnalyzer.process_frame

    def record(self, frame):
        seen.append((repr(frame), serialize_frame(frame)))
        return original(self, frame)

    monkeypatch.setattr(StreamAnalyzer, "process_frame", record)
    site = SiteConfig(regions=REGIONS)
    analyze_stream(lines, site)
    in_process, seen[:] = seen[:], []
    analyze_file(path, site)
    assert seen == in_process
    assert len(seen) == 2 and "-0.0" in seen[0][1]


def _outcome(run):
    try:
        result = run()
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line_no", None))
    return ("ok",) + tuple(getattr(result, name) for name in _FIELDS)


_GOOD = [_H.encode()] + [frame_line(i).encode() for i in range(4)]
ERROR_CASES = {
    "empty_file": [],
    "bad_header": [b'{"fps":0,"width":1920,"height":1080,"source":"cam"}'] + _GOOD[1:],
    "bad_json_at_line_4": _GOOD[:3] + [b'{"index": 2, "detections": ['] + _GOOD[3:],
    "non_increasing_index": _GOOD[:3] + [frame_line(0).encode()] + _GOOD[3:],
    "invalid_utf8_frame": _GOOD[:2] + [b'{"index": 1, "detections": [], "poses": []}\xff'] + _GOOD[2:],
    "invalid_utf8_header": [b'{"fps":25.0,"source":"\xff"}'] + _GOOD[1:],
}


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_errors_and_skips_match_the_in_process_path(tmp_path, case, strict):
    data = b"".join(line + b"\n" for line in ERROR_CASES[case])
    path = tmp_path / "s.jsonl"
    path.write_bytes(data)
    site = SiteConfig(regions=REGIONS)
    want = _outcome(lambda: analyze_stream(data.splitlines(keepends=True), site, strict=strict))
    got = _outcome(lambda: analyze_file(path, site, strict=strict))
    assert got == want
    if strict or case in ("empty_file", "bad_header", "invalid_utf8_header"):
        assert want[0] == "error" and want[1] is StreamFormatError
    else:
        assert want[0] == "ok" and want[1 + _FIELDS.index("skipped")] == 1
    assert _no_child_left()


def test_a_missing_file_is_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        analyze_file(tmp_path / "nope.jsonl", SiteConfig(regions=REGIONS))
    assert _no_child_left()


def _alerting_stream(path, n_frames):
    """An excavator and a loader together in the digging square on every
    frame, each frame with a pose, so every frame alerts."""
    exc = '{"class":"excavator","bbox":[180.0,120.0,60.0,80.0],"score":0.95}'
    loader = '{"class":"loader","bbox":[150.0,150.0,50.0,50.0],"score":0.9}'
    kps = ",".join(
        f'"{name}":[{200.0 + i},{200.0 - i},0.9]'
        for i, name in enumerate(KEYPOINT_NAMES)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_header(make_header()) + "\n")
        for f in range(n_frames):
            fh.write(frame_line(f, f"[{exc},{loader}]", f'[{{"det":0,"keypoints":{{{kps}}}}}]') + "\n")


def test_child_exits_when_the_alert_sink_raises_mid_stream(tmp_path):
    # 5,000 frames of 431 bytes each on the pipe are far more than a
    # pipe holds, so the child is blocked writing when the parent stops.
    path = tmp_path / "s.jsonl"
    _alerting_stream(path, 5000)
    calls = []

    def sink(alerts):
        calls.append(alerts)
        if len(calls) == 3:
            raise RuntimeError("sink full")

    with pytest.raises(RuntimeError, match="sink full"):
        analyze_file(path, SiteConfig(regions=REGIONS), on_alerts=sink)
    assert [alerts[0].frame for alerts in calls] == [0, 1, 2]
    assert _no_child_left()


def test_child_exits_after_a_strict_error_and_earlier_frames_were_analyzed(tmp_path):
    path = tmp_path / "s.jsonl"
    _alerting_stream(path, 50)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json\n")
    frames = []
    with pytest.raises(StreamFormatError) as info:
        analyze_file(path, SiteConfig(regions=REGIONS), on_alerts=lambda a: frames.append(a[0].frame))
    assert info.value.line_no == 52
    assert frames == list(range(50))
    assert _no_child_left()


def test_a_child_that_dies_early_is_an_error_not_a_short_result(tmp_path, monkeypatch):
    path = tmp_path / "s.jsonl"
    _alerting_stream(path, 50)
    real_iter = pipeline.StreamParser.__iter__

    def die_after_ten(self):
        for n, frame in enumerate(real_iter(self)):
            if n == 10:
                os._exit(0)
            yield frame

    monkeypatch.setattr(pipeline.StreamParser, "__iter__", die_after_ten)
    with pytest.raises(ChildProcessError):
        analyze_file(path, SiteConfig(regions=REGIONS))
    assert _no_child_left()


def _analyze_without_fork(path, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(forking, "can_fork", can_fork)
    monkeypatch.setattr(os, "fork", no_fork)
    return analyze_file(path, SiteConfig(regions=REGIONS))


def test_one_usable_cpu_parses_in_process(tmp_path, monkeypatch):
    path = tmp_path / "s.jsonl"
    _alerting_stream(path, 5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert _analyze_without_fork(path, monkeypatch).alert_count == 5


def test_a_process_with_other_threads_parses_in_process(tmp_path, monkeypatch):
    path = tmp_path / "s.jsonl"
    _alerting_stream(path, 5)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _analyze_without_fork(path, monkeypatch).alert_count == 5
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
