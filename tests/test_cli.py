"""End-to-end command-line flows: simulate, analyze, report, eval, watch."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sitewatch
from sitewatch.cli import main
from sitewatch.config import SiteConfig, site_config_to_dict
from sitewatch.simulator import (
    DEFAULT_REGIONS,
    DurationRange,
    ScenarioConfig,
    scenario_to_dict,
)
from sitewatch.streams import (
    Detection,
    MachineClass,
    PerceptionFrame,
    StreamHeader,
    write_stream,
)

from helpers import REGIONS, make_pose, shift_pose

pytestmark = pytest.mark.usefixtures("in_tmp_path")


@pytest.fixture
def in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def _write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n")
    return path


def _scenario_file(tmp_path, **kwargs):
    kwargs.setdefault("cycle_count", 3)
    kwargs.setdefault("dig", DurationRange(2.0, 4.0))
    kwargs.setdefault("swing", DurationRange(1.8, 3.2))
    kwargs.setdefault("dump", DurationRange(2.0, 4.0))
    config = ScenarioConfig(**kwargs)
    return _write_json(tmp_path / "scenario.json", scenario_to_dict(config))


def _site_file(tmp_path, regions=DEFAULT_REGIONS, **kwargs):
    cfg = SiteConfig(regions=regions, **kwargs)
    return _write_json(tmp_path / "site.json", site_config_to_dict(cfg))


def _read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return dict(rows[1:])


def test_simulate_analyze_report_flow(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, seed=3)
    site = _site_file(tmp_path)
    assert main(["simulate", "-c", str(scenario), "-o", str(tmp_path / "sim")]) == 0
    sim_out = capsys.readouterr().out
    assert "true_cycles: 3" in sim_out
    stream = tmp_path / "sim" / "stream.jsonl"
    assert stream.exists()
    truth = json.loads((tmp_path / "sim" / "ground_truth.json").read_text())

    out = tmp_path / "analysis"
    assert main(["analyze", "-c", str(site), "-i", str(stream), "-o", str(out)]) == 0
    table = _read_table(out / "report.csv")
    assert table["cycles"] == "3"
    meta = json.loads((out / "meta.json").read_text())
    assert meta["frames"] == truth["frames"]
    assert meta["skipped"] == 0
    assert meta["tracks"] == {"1": "excavator"}
    stdout = capsys.readouterr().out
    assert "cycles: 3" in stdout
    assert "pause_active: false" in stdout
    with open(out / "cycles.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 3

    before = (out / "report.csv").read_bytes()
    assert main(["report", "-i", str(out)]) == 0
    assert (out / "report.csv").read_bytes() == before  # same params, same rows


def test_report_parameter_overrides(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, seed=1)
    site = _site_file(tmp_path)
    main(["simulate", "-c", str(scenario), "-o", str(tmp_path / "sim")])
    out = tmp_path / "analysis"
    main(
        [
            "analyze",
            "-c",
            str(site),
            "-i",
            str(tmp_path / "sim" / "stream.jsonl"),
            "-o",
            str(out),
        ]
    )
    base = _read_table(out / "report.csv")
    capsys.readouterr()
    redo = tmp_path / "redo"
    code = main(
        [
            "report",
            "-i",
            str(out),
            "-o",
            str(redo),
            "--volume",
            "0.8",
            "--full-rate",
            "1.01",
        ]
    )
    assert code == 0
    table = _read_table(redo / "report.csv")
    assert table["bucket_volume_m3"] == "0.8"
    assert table["bucket_full_rate"] == "1.01"
    assert float(table["cycles_per_hr"]) == float(base["cycles_per_hr"])
    want = float(base["cycles_per_hr"]) * 0.8 * 1.01
    assert float(table["productivity_m3_per_hr"]) == pytest.approx(want, rel=1e-9)
    # The original directory is untouched when -o points elsewhere.
    assert _read_table(out / "report.csv") == base


def _analysis_with_bucket(tmp_path, volume, full_rate):
    scenario = _scenario_file(tmp_path, seed=1)
    site = _site_file(tmp_path, bucket_volume_m3=volume, bucket_full_rate=full_rate)
    main(["simulate", "-c", str(scenario), "-o", str(tmp_path / "sim")])
    out = tmp_path / "analysis"
    stream = tmp_path / "sim" / "stream.jsonl"
    main(["analyze", "-c", str(site), "-i", str(stream), "-o", str(out)])
    return out, _read_table(out / "report.csv")


@pytest.mark.parametrize(
    "flag, value, want_volume, want_full_rate",
    [("--volume", "0.5", 0.5, 1.01), ("--full-rate", "0.95", 0.6, 0.95)],
)
def test_report_single_override_keeps_the_other_value(
    tmp_path, capsys, flag, value, want_volume, want_full_rate
):
    out, base = _analysis_with_bucket(tmp_path, 0.6, 1.01)
    assert (base["bucket_volume_m3"], base["bucket_full_rate"]) == ("0.6", "1.01")
    redo = tmp_path / "redo"
    assert main(["report", "-i", str(out), "-o", str(redo), flag, value]) == 0
    table = _read_table(redo / "report.csv")
    assert float(table["bucket_volume_m3"]) == want_volume
    assert float(table["bucket_full_rate"]) == want_full_rate
    want = float(base["cycles_per_hr"]) * want_volume * want_full_rate
    assert float(table["productivity_m3_per_hr"]) == pytest.approx(want, rel=1e-9)


def test_analyze_multiple_inputs_get_subdirectories(tmp_path):
    site = _site_file(tmp_path)
    for seed in (1, 2):
        scenario = _scenario_file(tmp_path, seed=seed)
        main(["simulate", "-c", str(scenario), "-o", str(tmp_path / f"sim{seed}")])
        (tmp_path / f"sim{seed}" / "stream.jsonl").rename(
            tmp_path / f"stream{seed}.jsonl"
        )
    out = tmp_path / "multi"
    code = main(
        [
            "analyze",
            "-c",
            str(site),
            "-i",
            str(tmp_path / "stream1.jsonl"),
            "-i",
            str(tmp_path / "stream2.jsonl"),
            "-o",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "stream1" / "report.csv").exists()
    assert (out / "stream2" / "report.csv").exists()


def test_analyze_does_not_mutate_inputs(tmp_path):
    scenario = _scenario_file(tmp_path, seed=4)
    site = _site_file(tmp_path)
    main(["simulate", "-c", str(scenario), "-o", str(tmp_path / "sim")])
    stream = tmp_path / "sim" / "stream.jsonl"
    digest = hashlib.sha256(stream.read_bytes()).hexdigest()
    main(["analyze", "-c", str(site), "-i", str(stream), "-o", str(tmp_path / "a")])
    assert hashlib.sha256(stream.read_bytes()).hexdigest() == digest


def test_simulate_is_deterministic_across_processes(tmp_path):
    scenario = _scenario_file(tmp_path, seed=11)
    main(["simulate", "-c", str(scenario), "-o", str(tmp_path / "one")])
    main(["simulate", "-c", str(scenario), "-o", str(tmp_path / "two")])
    assert (tmp_path / "one" / "stream.jsonl").read_bytes() == (
        tmp_path / "two" / "stream.jsonl"
    ).read_bytes()


def test_header_only_stream_reports_zero_cycles(tmp_path, capsys):
    site = _site_file(tmp_path)
    stream = tmp_path / "empty.jsonl"
    stream.write_text(
        '{"fps": 25.0, "width": 1920, "height": 1080, "source": "cam"}\n'
    )
    out = tmp_path / "out"
    assert main(["analyze", "-c", str(site), "-i", str(stream), "-o", str(out)]) == 0
    table = _read_table(out / "report.csv")
    assert table["cycles"] == "0"
    assert table["productivity_m3_per_hr"] == "0"
    meta = json.loads((out / "meta.json").read_text())
    assert meta["frames"] == 0
    assert meta["primary_track"] is None


def _stream_with_bad_line(path):
    lines = ['{"fps": 25.0, "width": 1920, "height": 1080, "source": "cam"}']
    for i in range(5):
        lines.append(f'{{"index": {i}, "detections": [], "poses": []}}')
    lines.append('{"index": 5, "detections": [')  # line 7: truncated JSON
    path.write_text("\n".join(lines) + "\n")
    return path


def test_corrupt_line_fails_with_its_line_number(tmp_path, capsys):
    site = _site_file(tmp_path)
    stream = _stream_with_bad_line(tmp_path / "bad.jsonl")
    out = tmp_path / "out"
    code = main(["analyze", "-c", str(site), "-i", str(stream), "-o", str(out)])
    assert code == 3
    assert "line 7" in capsys.readouterr().err


def test_lenient_mode_skips_and_counts(tmp_path):
    site = _site_file(tmp_path)
    stream = _stream_with_bad_line(tmp_path / "bad.jsonl")
    out = tmp_path / "out"
    code = main(
        ["analyze", "-c", str(site), "-i", str(stream), "-o", str(out), "--lenient"]
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["frames"] == 5
    assert meta["skipped"] == 1


def test_missing_files_are_io_errors(tmp_path, capsys):
    site = _site_file(tmp_path)
    code = main(
        [
            "analyze",
            "-c",
            str(site),
            "-i",
            str(tmp_path / "nope.jsonl"),
            "-o",
            str(tmp_path / "out"),
        ]
    )
    assert code == 4
    assert main(["simulate", "-c", str(tmp_path / "nope.json"), "-o", "x"]) == 4


def test_bad_configs_are_config_errors(tmp_path, capsys):
    bad = _write_json(tmp_path / "bad_site.json", {"regions": [], "rain": 1})
    stream = tmp_path / "s.jsonl"
    stream.write_text('{"fps": 25.0, "width": 10, "height": 10, "source": "x"}\n')
    code = main(["analyze", "-c", str(bad), "-i", str(stream), "-o", "out"])
    assert code == 2
    not_json = tmp_path / "broken.json"
    not_json.write_text("{oops")
    assert main(["analyze", "-c", str(not_json), "-i", str(stream), "-o", "out"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def _det_stream(path, frames, width=1920, height=1080):
    """frames: list of lists of (cls, bbox, score) per frame index."""
    header = StreamHeader(25.0, width, height, "eval")
    out = []
    for i, dets in enumerate(frames):
        detections = tuple(
            Detection(MachineClass(c), bbox, score) for c, bbox, score in dets
        )
        out.append(PerceptionFrame(i, detections, ()))
    write_stream(path, header, out)
    return path


def test_eval_det_perfect_match(tmp_path, capsys):
    frames = [
        [("excavator", (100.0, 100.0, 200.0, 150.0), 0.9)],
        [("loader", (400.0, 300.0, 180.0, 120.0), 0.8)],
    ]
    pred = _det_stream(tmp_path / "pred.jsonl", frames)
    truth = _det_stream(tmp_path / "truth.jsonl", frames)
    table = tmp_path / "ap.csv"
    code = main(
        [
            "eval",
            "--task",
            "det",
            "--pred",
            str(pred),
            "--truth",
            str(truth),
            "-o",
            str(table),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["excavator,1.0", "loader,1.0", "mAP,1.0"]
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["class", "ap"]
    assert rows[1:] == [["excavator", "1.0"], ["loader", "1.0"], ["mAP", "1.0"]]


def test_eval_det_scores_misses_and_false_positives(tmp_path, capsys):
    box = (100.0, 100.0, 200.0, 150.0)
    off = (900.0, 500.0, 100.0, 100.0)
    truth = _det_stream(
        tmp_path / "truth.jsonl",
        [[("excavator", box, 0.9)], [("excavator", box, 0.9)]],
    )
    pred = _det_stream(
        tmp_path / "pred.jsonl",
        [[("excavator", box, 0.9), ("excavator", off, 0.8)], []],
    )
    code = main(["eval", "--task", "det", "--pred", str(pred), "--truth", str(truth)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # One of two truths found at precision 1: AP = 6/11.
    assert lines[0].startswith("excavator,")
    assert float(lines[0].split(",")[1]) == pytest.approx(6 / 11, abs=1e-12)


def test_eval_det_requires_ground_truth(tmp_path, capsys):
    pred = _det_stream(tmp_path / "pred.jsonl", [[("excavator", (0.0, 0.0, 10.0, 10.0), 0.9)]])
    empty = _det_stream(tmp_path / "truth.jsonl", [[]])
    code = main(["eval", "--task", "det", "--pred", str(pred), "--truth", str(empty)])
    assert code == 2


def _pose_stream(path, poses_scores):
    """One frame; poses_scores: list of (pose, score) on 10x10 dets."""
    dets = []
    pose_rows = []
    for i, (pose, score) in enumerate(poses_scores):
        dets.append(Detection(MachineClass.EXCAVATOR, (50.0 + 300.0 * i, 50.0, 10.0, 10.0), score))
        pose_rows.append((i, pose))
    frame = PerceptionFrame(0, tuple(dets), tuple(pose_rows))
    write_stream(path, StreamHeader(25.0, 1920, 1080, "eval"), [frame])
    return path


def test_eval_pose_averages_over_the_requested_gates(tmp_path, capsys):
    anchors = [(200.0, 400.0), (800.0, 400.0), (1400.0, 400.0)]
    truth_poses = [make_pose(arm=a, body=(a[0] + 60.0, a[1] + 40.0)) for a in anchors]
    # Truth boxes are 10x10, so OKS = exp(-d^2 / 50); d for OKS 0.6:
    d_mid = math.sqrt(50.0 * math.log(1.0 / 0.6))
    pred_poses = [
        truth_poses[0],
        shift_pose(truth_poses[1], d_mid, 0.0),
        shift_pose(truth_poses[2], 100.0, 0.0),  # OKS ~ 0
    ]
    truth = _pose_stream(tmp_path / "truth.jsonl", [(p, 0.9) for p in truth_poses])
    pred = _pose_stream(
        tmp_path / "pred.jsonl",
        list(zip(pred_poses, (0.9, 0.8, 0.7))),
    )
    code = main(
        [
            "eval",
            "--task",
            "pose",
            "--pred",
            str(pred),
            "--truth",
            str(truth),
            "--oks-thresholds",
            "0.5,0.75",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # Gate 0.5 admits two of three (AP 7/11); gate 0.75 one (AP 4/11).
    value = float(lines[-1].split(",")[1])
    assert value == pytest.approx(0.5, abs=1e-9)


def _segments_csv(path, rows, with_score=False):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ("state", "start_s", "end_s", "score") if with_score else ("state", "start_s", "end_s")
        )
        writer.writerows(rows)
    return path


def test_eval_action_scores_timeline_segments(tmp_path, capsys):
    truth = _segments_csv(
        tmp_path / "truth.csv",
        [("digging", 0.0, 8.0), ("dumping", 10.0, 20.0)],
    )
    pred = _segments_csv(
        tmp_path / "pred.csv",
        [("digging", 0.0, 8.0, 1.0), ("dumping", 11.0, 21.0, 1.0)],
        with_score=True,
    )
    code = main(["eval", "--task", "action", "--pred", str(pred), "--truth", str(truth)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["digging,1.0", "dumping,1.0", "mAP,1.0"]


def test_eval_action_rejects_missing_columns(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("state,begin\ndigging,0\n")
    truth = _segments_csv(tmp_path / "truth.csv", [("digging", 0.0, 8.0)])
    code = main(["eval", "--task", "action", "--pred", str(bad), "--truth", str(truth)])
    assert code == 3


def _watch_stream(alert_frames, total):
    """Excavator parked in the digging square; loader joins on some frames."""
    lines = ['{"fps": 25.0, "width": 1920, "height": 1080, "source": "cam"}']
    exc = '{"class": "excavator", "bbox": [180.0, 120.0, 60.0, 80.0], "score": 0.95}'
    loader_in = '{"class": "loader", "bbox": [150.0, 150.0, 50.0, 50.0], "score": 0.9}'
    loader_out = '{"class": "loader", "bbox": [1500.0, 900.0, 50.0, 50.0], "score": 0.9}'
    for f in range(total):
        loader = loader_in if f in alert_frames else loader_out
        lines.append(
            f'{{"index": {f}, "detections": [{exc}, {loader}], "poses": []}}'
        )
    return "\n".join(lines) + "\n"


def test_watch_emits_alerts_and_pause_events(tmp_path, capsys, monkeypatch):
    site = _site_file(tmp_path, regions=REGIONS, clearance_window=3)
    monkeypatch.setattr("sys.stdin", io.StringIO(_watch_stream({0, 1, 2}, 6)))
    code = main(["watch", "-c", str(site)])
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    kinds = [(r["type"], r["frame"]) for r in records]
    assert kinds == [
        ("alert", 0),
        ("pause_raised", 0),
        ("alert", 1),
        ("alert", 2),
        ("pause_cleared", 5),
    ]
    alert = records[0]
    assert alert["region"] == "digging"
    assert alert["tracks"] == [[1, "excavator"], [2, "loader"]]
    assert alert["offset_s"] == 0.0


def test_watch_exits_nonzero_when_pause_never_clears(tmp_path, capsys, monkeypatch):
    site = _site_file(tmp_path, regions=REGIONS, clearance_window=25)
    monkeypatch.setattr("sys.stdin", io.StringIO(_watch_stream({4, 5}, 6)))
    code = main(["watch", "-c", str(site)])
    assert code == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["type"], r["frame"]) for r in records] == [
        ("alert", 4),
        ("pause_raised", 4),
        ("alert", 5),
    ]


def test_watch_rejects_corrupt_input_strictly(tmp_path, capsys, monkeypatch):
    site = _site_file(tmp_path, regions=REGIONS)
    text = _watch_stream(set(), 2) + "not json\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["watch", "-c", str(site)])
    assert code == 3
    assert "line 4" in capsys.readouterr().err


def test_analyze_failing_mid_stream_leaves_no_alerts_csv(tmp_path, capsys):
    # Alert rows are written as frames are analyzed; a parse error after
    # some of them must not leave a partial alerts.csv behind.
    site = _site_file(tmp_path, regions=REGIONS)
    stream = tmp_path / "bad.jsonl"
    stream.write_text(_watch_stream({0, 1, 2}, 6) + "not json\n")
    out = tmp_path / "out"
    code = main(["analyze", "-c", str(site), "-i", str(stream), "-o", str(out)])
    assert code == 3
    assert "line 8" in capsys.readouterr().err
    assert not (out / "alerts.csv").exists()
    assert not (out / "alerts.csv.part").exists()


def _undecodable_stream():
    """Frames 0-2 alert; line 3 (frame 1) ends in a byte that is not UTF-8."""
    lines = _watch_stream({0, 1, 2}, 3).encode().splitlines(keepends=True)
    lines[2] = lines[2].rstrip() + b"\xff\n"
    return b"".join(lines)


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_analyze_reports_an_undecodable_line_instead_of_crashing(tmp_path, capsys, lenient):
    site = _site_file(tmp_path, regions=REGIONS)
    stream = tmp_path / "bad.jsonl"
    stream.write_bytes(_undecodable_stream())
    out = tmp_path / "out"
    argv = ["analyze", "-c", str(site), "-i", str(stream), "-o", str(out)]
    code = main(argv + ["--lenient"] if lenient else argv)
    err = capsys.readouterr().err
    if not lenient:
        assert code == 3
        assert "line 3: invalid UTF-8" in err
        return
    assert code == 0 and err == ""
    meta = json.loads((out / "meta.json").read_text())
    assert (meta["frames"], meta["skipped"]) == (2, 1)
    with open(out / "alerts.csv", newline="") as fh:
        assert [row[0] for row in list(csv.reader(fh))[1:]] == ["0", "2"]


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_watch_reports_an_undecodable_line_instead_of_crashing(
    tmp_path, capsys, monkeypatch, lenient
):
    site = _site_file(tmp_path, regions=REGIONS)
    stdin = io.TextIOWrapper(io.BytesIO(_undecodable_stream()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    argv = ["watch", "-c", str(site)]
    code = main(argv + ["--lenient"] if lenient else argv)
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    alert_frames = [r["frame"] for r in records if r["type"] == "alert"]
    if not lenient:
        assert code == 3
        assert "line 3: invalid UTF-8" in captured.err
        assert alert_frames == [0]
        return
    assert captured.err == ""
    assert alert_frames == [0, 2]


def test_eval_reports_an_undecodable_line_instead_of_crashing(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    pred.write_bytes(_undecodable_stream())
    code = main(["eval", "--task", "det", "--pred", str(pred), "--truth", str(pred)])
    assert code == 3
    assert "line 3: invalid UTF-8" in capsys.readouterr().err


def test_analyze_prints_each_summary_once_with_buffered_stdout(tmp_path):
    # Run as a separate process, so stdout is a block-buffered pipe: the
    # first summary is still in that buffer when the second input's
    # parser is forked, and the child must not write it out again.
    site = _site_file(tmp_path, regions=REGIONS)
    inputs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.jsonl"
        path.write_text(_watch_stream({0, 1}, 5))
        inputs += ["-i", str(path)]
    src = Path(sitewatch.__file__).resolve().parents[1]
    # The forked path is forced, as where more than one CPU is usable.
    script = (
        "import sys, sitewatch.pipeline as p, sitewatch.cli as cli;"
        "p._parse_in_child = lambda: True;"
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    argv = ["analyze", "-c", str(site), *inputs, "-o", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    analyzed = [line for line in done.stdout.splitlines() if line.startswith("analyzed:")]
    assert analyzed == [f"analyzed: {tmp_path / 'a.jsonl'}", f"analyzed: {tmp_path / 'b.jsonl'}"]
    assert done.stdout.count("alerts: 2") == 2


def test_analyze_writes_alerts_csv_and_counts_them(tmp_path, capsys):
    site = _site_file(tmp_path, regions=REGIONS)
    stream = tmp_path / "ok.jsonl"
    stream.write_text(_watch_stream({0, 1, 2, 4}, 6))
    out = tmp_path / "out"
    assert main(["analyze", "-c", str(site), "-i", str(stream), "-o", str(out)]) == 0
    assert "alerts: 4" in capsys.readouterr().out.splitlines()
    with open(out / "alerts.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["frame", "offset_s", "region", "tracks"]
    assert [row[0] for row in rows[1:]] == ["0", "1", "2", "4"]
    assert rows[1][1:] == ["0.0", "digging", "1:excavator;2:loader"]
    assert json.loads((out / "meta.json").read_text())["alerts"] == 4
    assert not (out / "alerts.csv.part").exists()


def test_watch_agrees_with_analyze_on_alerts_and_pause(tmp_path, capsys, monkeypatch):
    # A human stands in the digging area from frame 100 to 400; the pause
    # is raised when the bucket comes in and cleared while it is away.
    scenario = _scenario_file(tmp_path, seed=3)
    obj = json.loads(scenario.read_text())
    obj["inject"] = {"class": "human", "first_frame": 100, "last_frame": 400}
    _write_json(scenario, obj)
    site = _site_file(tmp_path)
    assert main(["simulate", "-c", str(scenario), "-o", str(tmp_path / "sim")]) == 0
    stream = tmp_path / "sim" / "stream.jsonl"
    out = tmp_path / "analysis"
    assert main(["analyze", "-c", str(site), "-i", str(stream), "-o", str(out)]) == 0
    with open(out / "alerts.csv", newline="") as fh:
        alert_rows = list(csv.reader(fh))[1:]
    meta = json.loads((out / "meta.json").read_text())
    kinds = [kind for kind, _ in meta["pause_events"]]
    assert kinds[:2] == ["pause_raised", "pause_cleared"]
    assert not meta["pause"]["active"]
    capsys.readouterr()

    with open(stream, encoding="utf-8") as fh:
        monkeypatch.setattr("sys.stdin", fh)
        code = main(["watch", "-c", str(site)])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    watch_alerts = [
        [
            str(r["frame"]),
            repr(r["offset_s"]),
            r["region"],
            ";".join(f"{tid}:{cls}" for tid, cls in r["tracks"]),
        ]
        for r in records
        if r["type"] == "alert"
    ]
    watch_events = [[r["type"], r["frame"]] for r in records if r["type"] != "alert"]
    assert len(watch_alerts) > 0
    assert watch_alerts == alert_rows
    assert watch_events == meta["pause_events"]
    assert code == (1 if meta["pause"]["active"] else 0)
