"""End-to-end command-line flows: simulate, analyze, report, eval, watch."""

import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sitewatch
from sitewatch.cli import main
from sitewatch.config import SiteConfig
from sitewatch.simulator import (
    DEFAULT_REGIONS,
    DurationRange,
    ScenarioConfig,
)
from sitewatch.streams import (
    Detection,
    MachineClass,
    PerceptionFrame,
    StreamHeader,
    write_stream,
)

from helpers import (
    REGIONS,
    make_pose,
    readme_section,
    scenario_to_dict,
    shift_pose,
    site_config_to_dict,
    watch_stream,
)

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


def _analysis_with_bucket(tmp_path, volume, full_rate, **site_fields):
    scenario = _scenario_file(tmp_path, seed=1)
    site = _site_file(
        tmp_path, bucket_volume_m3=volume, bucket_full_rate=full_rate, **site_fields
    )
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


@pytest.mark.parametrize("bad", ["abc", "", "-2", "inf", "nan", "1e400"])
def test_report_rejects_a_bad_number_in_report_csv(tmp_path, capsys, bad):
    out, _ = _analysis_with_bucket(tmp_path, 0.6, 1.01)
    lines = (out / "report.csv").read_text().splitlines()
    line_no = lines.index("bucket_volume_m3,0.6") + 1
    lines[line_no - 1] = f"bucket_volume_m3,{bad}"
    (out / "report.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", "-i", str(out), "-o", str(tmp_path / "redo")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line_no}: {out / 'report.csv'}: bucket_volume_m3")
    assert not (tmp_path / "redo").exists()


def test_report_rejects_a_negative_override(tmp_path, capsys):
    out, _ = _analysis_with_bucket(tmp_path, 0.6, 1.01)
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["report", "-i", str(out), "-o", str(redo), "--volume", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: --volume")
    assert not redo.exists()


@pytest.mark.parametrize(
    "flag, value", [("--volume", "inf"), ("--volume", "1e400"), ("--full-rate", "nan")]
)
def test_report_rejects_a_non_finite_override(tmp_path, capsys, flag, value):
    out, _ = _analysis_with_bucket(tmp_path, 0.6, 1.01)
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["report", "-i", str(out), "-o", str(redo), flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be a number in [0, inf)")
    assert not redo.exists()


@pytest.mark.parametrize("fps", ["0", "-25", "NaN", "Infinity", "true", '"25"'])
def test_report_rejects_a_bad_fps_in_meta_json(tmp_path, capsys, fps):
    out, _ = _analysis_with_bucket(tmp_path, 0.6, 1.01)
    meta = json.loads((out / "meta.json").read_text())
    (out / "meta.json").write_text(json.dumps(dict(meta, fps="FPS")).replace('"FPS"', fps))
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["report", "-i", str(out), "-o", str(redo)]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid meta.json: fps must be a number in (0, inf)\n"
    assert not redo.exists()


@pytest.mark.parametrize("column, bad", [("end_s", "inf"), ("end_s", "nan"), ("start_s", "-1.0")])
def test_report_names_the_timeline_csv_line_of_a_bad_time(tmp_path, capsys, column, bad):
    out, _ = _analysis_with_bucket(tmp_path, 0.6, 1.01)
    path = out / "timeline.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[1][column] = bad
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["report", "-i", str(out), "-o", str(redo)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: line 3: {path}: {column} must be a number in [0, inf), got {bad!r}\n"
    assert not redo.exists()


def test_report_rejects_a_timeline_row_past_float_range_in_frames(tmp_path, capsys):
    out, _ = _analysis_with_bucket(tmp_path, 0.6, 1.01)
    path = out / "timeline.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[2] = "1e308"  # end_s; times 25 fps it is inf
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["report", "-i", str(out), "-o", str(redo)]) == 3
    err = capsys.readouterr().err
    want = "timeline CSV segment has no finite frame bounds at fps 25.0"
    assert err == f"error: line {len(lines)}: {path}: {want}\n"
    assert not redo.exists()


def test_report_rejects_timeline_rows_that_cover_no_frame(tmp_path, capsys):
    out, _ = _analysis_with_bucket(tmp_path, 0.6, 1.01)
    meta = json.loads((out / "meta.json").read_text())
    (out / "meta.json").write_text(json.dumps(dict(meta, fps=1e-320)))
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["report", "-i", str(out), "-o", str(redo)]) == 3
    err = capsys.readouterr().err
    path = out / "timeline.csv"
    assert err == f"error: line 2: {path}: timeline CSV segment covers no frame at fps 1e-320\n"
    assert not redo.exists()


@pytest.mark.parametrize("header", ["field,val", "name,value"])
def test_report_rejects_a_report_csv_without_its_columns(tmp_path, capsys, header):
    out, _ = _analysis_with_bucket(tmp_path, 0.6, 1.01)
    path = out / "report.csv"
    path.write_text(f"{header}\nbucket_volume_m3,9\n")
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["report", "-i", str(out), "-o", str(redo)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {path}: report CSV needs columns ['field', 'value']\n"
    assert not redo.exists()


def test_report_writes_a_negative_zero_volume_as_0(tmp_path, capsys):
    out, _ = _analysis_with_bucket(tmp_path, 0.6, 1.01)
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["report", "-i", str(out), "-o", str(redo), "--volume", "-0.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "bucket_volume_m3: 0" in lines and "productivity_m3_per_hr: 0" in lines
    table = _read_table(redo / "report.csv")
    assert table["bucket_volume_m3"] == table["productivity_m3_per_hr"] == "0"


def test_analyze_writes_a_negative_zero_volume_from_the_site_config_as_0(tmp_path, capsys):
    out, table = _analysis_with_bucket(tmp_path, -0.0, 1.01)
    site = json.loads((tmp_path / "site.json").read_text())
    assert math.copysign(1.0, site["bucket"]["volume_m3"]) == -1.0
    assert table["bucket_volume_m3"] == table["productivity_m3_per_hr"] == "0"


def test_report_keeps_the_analysis_rate_denominator(tmp_path, capsys):
    out, base = _analysis_with_bucket(tmp_path, 0.4, 1.0, rate_denominator="stream")
    assert json.loads((out / "meta.json").read_text())["rate_denominator"] == "stream"
    assert float(base["rate_denominator_s"]) == float(base["observed_s"])
    redo = tmp_path / "redo"
    assert main(["report", "-i", str(out), "-o", str(redo)]) == 0
    assert (redo / "report.csv").read_bytes() == (out / "report.csv").read_bytes()
    # The flag still overrides it.
    span = tmp_path / "span"
    assert main(["report", "-i", str(out), "-o", str(span), "--rate-denominator", "dig_span"]) == 0
    assert float(_read_table(span / "report.csv")["rate_denominator_s"]) < float(base["observed_s"])


def test_report_reads_dig_span_from_a_meta_json_without_the_key(tmp_path, capsys):
    out, _ = _analysis_with_bucket(tmp_path, 0.4, 1.0, rate_denominator="stream")
    meta = json.loads((out / "meta.json").read_text())
    del meta["rate_denominator"]
    (out / "meta.json").write_text(json.dumps(meta))
    for name, flags in (("old", []), ("span", ["--rate-denominator", "dig_span"])):
        assert main(["report", "-i", str(out), "-o", str(tmp_path / name), *flags]) == 0
    old = (tmp_path / "old" / "report.csv").read_bytes()
    assert old == (tmp_path / "span" / "report.csv").read_bytes()
    assert old != (out / "report.csv").read_bytes()


@pytest.mark.parametrize("source", ["report.csv", "--volume"])
def test_report_rejects_bucket_values_whose_productivity_overflows(tmp_path, capsys, source):
    out, _ = _analysis_with_bucket(tmp_path, 0.6, 1.01)
    flags = ["--volume", "1e308"]
    if source == "report.csv":
        path = out / "report.csv"
        path.write_text(path.read_text().replace("bucket_volume_m3,0.6", "bucket_volume_m3,1e308"))
        flags = []
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["report", "-i", str(out), "-o", str(redo), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: productivity is not finite: ")
    assert not redo.exists()


def test_analyze_rejects_bucket_values_whose_productivity_overflows(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, seed=1)
    site = _site_file(tmp_path, bucket_volume_m3=1e308)
    main(["simulate", "-c", str(scenario), "-o", str(tmp_path / "sim")])
    out = tmp_path / "analysis"
    capsys.readouterr()
    stream = str(tmp_path / "sim" / "stream.jsonl")
    assert main(["analyze", "-c", str(site), "-i", stream, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: productivity is not finite: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", ['"wall_clock"', '"STREAM"', "null", "1", '["stream"]'])
def test_report_rejects_a_bad_rate_denominator_in_meta_json(tmp_path, capsys, value):
    out, _ = _analysis_with_bucket(tmp_path, 0.6, 1.01)
    meta = json.loads((out / "meta.json").read_text())
    text = json.dumps(dict(meta, rate_denominator="RD")).replace('"RD"', value)
    (out / "meta.json").write_text(text)
    capsys.readouterr()
    redo = tmp_path / "redo"
    assert main(["report", "-i", str(out), "-o", str(redo)]) == 2
    err = capsys.readouterr().err
    want = "rate_denominator must be one of ('dig_span', 'stream')"
    assert err == f"error: invalid meta.json: {want}\n"
    assert not redo.exists()


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


def _set(path, value):
    """A change to a scenario dict that puts ``value`` at the key ``path``."""

    def change(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        obj[last] = value

    return change


def _with_machine(**fields):
    machine = {"class": "truck", "bbox": [1332.0, 400.0, 160.0, 120.0], **fields}
    return lambda obj: obj.update(machines=[machine])


def _with_inject(**fields):
    inject = {"class": "human", "first_frame": 2, "last_frame": 10, **fields}
    return lambda obj: obj.update(inject=inject)


# Values that once passed the scenario checks.  Each is written with the
# JSON literals NaN, Infinity and true where it holds one.
BAD_SCENARIO_VALUES = {
    "width fractional": _set(("width",), 1920.5),
    "source a number": _set(("source",), 5),
    "swing_speed NaN": _set(("swing_speed",), math.nan),
    "fps NaN": _set(("fps",), math.nan),
    "fps Infinity": _set(("fps",), math.inf),
    "cycle_count fractional": _set(("cycle_count",), 2.5),
    "cycle_count true": _set(("cycle_count",), True),
    "seed fractional": _set(("seed",), 1.5),
    "seed true": _set(("seed",), True),
    "keypoint_sigma NaN": _set(("noise", "keypoint_sigma"), math.nan),
    "bbox_sigma Infinity": _set(("noise", "bbox_sigma"), math.inf),
    "phase Infinity": _set(("phases", "dig"), [1, math.inf]),
    "phase true": _set(("phases", "dig"), [True, 1]),
    "machine bbox NaN": _with_machine(bbox=[1332.0, math.nan, 160.0, 120.0]),
    "machine entry_frame fractional": _with_machine(entry_frame=1.5),
    "machine entry_frame true": _with_machine(entry_frame=True),
    "inject at NaN": _with_inject(at=[math.nan, 400]),
    "inject first_frame fractional": _with_inject(first_frame=2.7),
    "inject first_frame true": _with_inject(first_frame=True),
    "inject first_frame a string": _with_inject(first_frame="3"),
}


@pytest.mark.parametrize("change", BAD_SCENARIO_VALUES.values(), ids=BAD_SCENARIO_VALUES)
def test_simulate_rejects_a_bad_scenario_value_before_writing(tmp_path, capsys, change):
    obj = json.loads(_scenario_file(tmp_path, cycle_count=1).read_text())
    change(obj)
    scenario = _write_json(tmp_path / "bad.json", obj)
    assert main(["simulate", "-c", str(scenario), "-o", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid ")
    assert not (tmp_path / "sim" / "stream.jsonl").exists()


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


@pytest.mark.parametrize(
    "section",
    [
        {"nms": {"decay": 0}},
        {"nms": {"decay": "a"}},
        {"nms": {"iou_threshold": 2}},
        {"nms": {"score_floor": 5}},
        {"tracking": {"iou_threshold": -1}},
        {"tracking": {"miss_cap": 2.5}},
        # Written to the file as the JSON literals NaN, Infinity and true.
        {"nms": {"decay": math.inf}},
        {"bucket": {"volume_m3": math.inf}},
        {"activity": {"idle_grace_s": math.nan}},
        {"activity": {"stillness_threshold": True}},
        {"activity": {"stillness_threshold": math.inf}},
        {"activity": {"min_segment_s": math.inf}},
    ],
    ids=repr,
)
@pytest.mark.parametrize("command", ["analyze", "watch"])
def test_bad_nms_and_tracking_values_are_config_errors(
    tmp_path, capsys, monkeypatch, section, command
):
    obj = site_config_to_dict(SiteConfig(regions=REGIONS))
    obj.update(section)
    site = _write_json(tmp_path / "site.json", obj)
    stream = watch_stream({0}, 2)
    if command == "analyze":
        path = tmp_path / "s.jsonl"
        path.write_text(stream)
        argv = ["analyze", "-c", str(site), "-i", str(path), "-o", str(tmp_path / "out")]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(stream))
        argv = ["watch", "-c", str(site)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    what = "activity" if "activity" in section else "site"
    assert captured.err.startswith(f"error: invalid {what} config:")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_analyze_rejects_inputs_that_share_an_output_directory(tmp_path, capsys):
    site = _site_file(tmp_path, regions=REGIONS)
    inputs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        inputs.append(tmp_path / name / "stream.jsonl")
        inputs[-1].write_text(watch_stream({0}, 2))
    out = tmp_path / "multi"
    argv = ["analyze", "-c", str(site), "-i", str(inputs[0]), "-i", str(inputs[1])]
    assert main(argv + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(inputs[0]) in err and str(inputs[1]) in err
    assert not out.exists()


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


@pytest.mark.parametrize("gate", ["nan", "inf", "2", "-1", "0"])
@pytest.mark.parametrize("task", ["det", "action"])
def test_eval_rejects_an_iou_gate_outside_its_range(tmp_path, capsys, task, gate):
    if task == "det":
        truth = _det_stream(tmp_path / "truth.jsonl", [[("truck", (0.0, 0.0, 10.0, 10.0), 0.9)]])
    else:
        truth = _segments_csv(tmp_path / "truth.csv", [("digging", 0.0, 8.0)])
    argv = ["eval", "--task", task, "--pred", str(truth), "--truth", str(truth)]
    assert main([*argv, "--iou-gate", gate]) == 2
    assert capsys.readouterr().err == "error: --iou-gate must be a number in (0, 1]\n"


@pytest.mark.parametrize(
    "row, column",
    [(("digging", 0.0, 8.0, "nan"), "score"), (("digging", 0.0, "inf", 1.0), "end_s")],
)
def test_eval_action_rejects_a_non_finite_segment_value(tmp_path, capsys, row, column):
    truth = _segments_csv(tmp_path / "truth.csv", [("digging", 0.0, 8.0)])
    pred = _segments_csv(tmp_path / "pred.csv", [row], with_score=True)
    code = main(["eval", "--task", "action", "--pred", str(pred), "--truth", str(truth)])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: line 2: {pred}: {column} must be")


def test_eval_action_rejects_missing_columns(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("state,begin\ndigging,0\n")
    truth = _segments_csv(tmp_path / "truth.csv", [("digging", 0.0, 8.0)])
    code = main(["eval", "--task", "action", "--pred", str(bad), "--truth", str(truth)])
    assert code == 3


def test_watch_emits_alerts_and_pause_events(tmp_path, capsys, monkeypatch):
    site = _site_file(tmp_path, regions=REGIONS, clearance_window=3)
    monkeypatch.setattr("sys.stdin", io.StringIO(watch_stream({0, 1, 2}, 6)))
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
    monkeypatch.setattr("sys.stdin", io.StringIO(watch_stream({4, 5}, 6)))
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
    text = watch_stream(set(), 2) + "not json\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["watch", "-c", str(site)])
    assert code == 3
    assert "line 4" in capsys.readouterr().err


def test_watch_rejects_a_frame_index_beyond_float_range(tmp_path, capsys, monkeypatch):
    site = _site_file(tmp_path, regions=REGIONS)
    # The huge index is on an alerting frame, whose offset_s it would reach.
    text = watch_stream({0, 1}, 2).replace('"index": 1,', '"index": 1' + "0" * 400 + ",")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["watch", "-c", str(site)]) == 3
    captured = capsys.readouterr()
    assert "line 3" in captured.err
    assert [json.loads(line)["type"] for line in captured.out.splitlines()] == [
        "alert",
        "pause_raised",
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["watch", "--lenient", "-c", str(site)]) == 1
    assert capsys.readouterr().out == captured.out


def test_analyze_failing_mid_stream_leaves_no_alerts_csv(tmp_path, capsys):
    # Alert rows are written as frames are analyzed; a parse error after
    # some of them must not leave a partial alerts.csv behind.
    site = _site_file(tmp_path, regions=REGIONS)
    stream = tmp_path / "bad.jsonl"
    stream.write_text(watch_stream({0, 1, 2}, 6) + "not json\n")
    out = tmp_path / "out"
    code = main(["analyze", "-c", str(site), "-i", str(stream), "-o", str(out)])
    assert code == 3
    assert "line 8" in capsys.readouterr().err
    assert not (out / "alerts.csv").exists()
    assert not (out / "alerts.csv.part").exists()


def _undecodable_stream():
    """Frames 0-2 alert; line 3 (frame 1) ends in a byte that is not UTF-8."""
    lines = watch_stream({0, 1, 2}, 3).encode().splitlines(keepends=True)
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
        path.write_text(watch_stream({0, 1}, 5))
        inputs += ["-i", str(path)]
    src = Path(sitewatch.__file__).resolve().parents[1]
    # The forked path is forced, as where more than one CPU is usable.
    script = (
        "import sys, sitewatch.forking as f, sitewatch.cli as cli;"
        "f.can_fork = lambda: True;"
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
    stream.write_text(watch_stream({0, 1, 2, 4}, 6))
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


def test_readme_quick_start_runs_and_prints_the_report_it_shows(tmp_path):
    section = readme_section("Quick start")
    script = re.findall(r"```sh\n(.*?)```", section, re.S)[0]
    shown = re.search(r"`analyze` prints the report it writes:\n\n```\n(.*?)```", section, re.S)
    want = [line for line in shown.group(1).splitlines() if line != "..."]
    assert want[0] == "cycles: 5" and want[-1] == "state_s_digging: 18.4"
    command = shlex.quote(sys.executable)
    env = dict(os.environ, PYTHONPATH=str(Path(sitewatch.__file__).resolve().parents[1]))
    done = subprocess.run(
        ["bash", "-c", f"set -e\nsitewatch() {{ {command} -m sitewatch.cli \"$@\"; }}\n{script}"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    start = lines.index(want[0])
    assert lines[start : start + len(want)] == want
    assert (tmp_path / "rescored" / "report.csv").exists()
