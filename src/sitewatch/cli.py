"""Command-line surface: simulate, analyze, report, eval, watch.

Exit codes: 0 ok, 2 config error, 3 parse error, 4 I/O error.  ``watch``
additionally exits 1 when the pause signal is still active at the end of
input.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .activity import read_timeline_csv, write_timeline_csv
from .config import SiteConfig, load_site_config
from .errors import EXIT_IO, EXIT_OK, ConfigError, SitewatchError, StreamFormatError
from .metrics import (
    DEFAULT_OKS_THRESHOLDS,
    IOU_GATE_RANGE,
    TemporalSegment,
    detection_eval,
    keypoint_ap,
    segment_ap,
)
from .pipeline import AnalysisResult, analyze_file, analyze_frames, frame_source
from .productivity import (
    RATE_DENOMINATORS,
    ProductivityReport,
    build_report,
    report_rows,
    write_cycles_csv,
    write_report_csv,
)
from .streams import check_number, parse_number, read_stream


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _alerts_csv_writer(fh):
    """Write the alerts.csv header to ``fh``; returns the row writer."""
    writer = csv.writer(fh)
    writer.writerow(("frame", "offset_s", "region", "tracks"))

    def write_alerts(alerts) -> None:
        for alert in alerts:
            tracks = ";".join(f"{tid}:{cls.value}" for tid, cls in alert.tracks)
            writer.writerow([alert.frame, repr(alert.offset_s), alert.region.value, tracks])

    return write_alerts


def _write_meta(result: AnalysisResult, rate_denominator: str, path) -> None:
    meta = {
        "source": result.header.source,
        "fps": result.header.fps,
        "width": result.header.width,
        "height": result.header.height,
        "frames": result.frame_count,
        "skipped": result.skipped,
        "tracks": {str(tid): cls.value for tid, cls in sorted(result.track_classes.items())},
        "primary_track": result.primary_track,
        "alerts": result.alert_count,
        "pause": {
            "active": result.pause.active,
            "raised_at": result.pause.raised_at,
            "cleared_at": result.pause.cleared_at,
        },
        "pause_events": [[kind, frame] for kind, frame in result.pause_events],
        "rate_denominator": rate_denominator,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def cmd_simulate(args) -> int:
    # Only simulate needs the simulator; analyze and watch never load it.
    from .simulator import load_scenario, run_scenario

    config, inject = load_scenario(args.config)
    out = Path(args.out)
    stream_path = out / "stream.jsonl"
    truth_path = out / "ground_truth.json"
    sim = run_scenario(config, inject)
    out.mkdir(parents=True, exist_ok=True)
    sim.write(stream_path, truth_path)
    print(f"stream: {stream_path}")
    print(f"ground_truth: {truth_path}")
    print(f"frames: {len(sim.frames)}")
    print(f"true_cycles: {len(sim.truth.cycles)}")
    print(f"alert_frames: {len(sim.truth.alert_frames)}")
    return EXIT_OK


def _analyze_one(stream_path: Path, site, out: Path, strict: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    # Alert rows are written as the analysis finds them, to a part file
    # that becomes alerts.csv only once the whole stream has parsed.
    alerts_part = out / "alerts.csv.part"
    try:
        with open(alerts_part, "w", encoding="utf-8", newline="") as fh:
            result = analyze_file(
                stream_path, site, strict=strict, on_alerts=_alerts_csv_writer(fh)
            )
        _check_finite(result.report)
    except BaseException:
        alerts_part.unlink(missing_ok=True)
        raise
    os.replace(alerts_part, out / "alerts.csv")
    write_timeline_csv(result.timeline, out / "timeline.csv")
    write_cycles_csv(result.report.cycles, result.header.fps, out / "cycles.csv")
    write_report_csv(result.report, out / "report.csv")
    _write_meta(result, site.rate_denominator, out / "meta.json")
    print(f"analyzed: {stream_path}")
    print(f"frames: {result.frame_count} (skipped {result.skipped})")
    print(f"tracks: {len(result.track_classes)}")
    for key, value in report_rows(result.report):
        print(f"{key}: {value}" if value != "" else f"{key}:")
    print(f"alerts: {result.alert_count}")
    print(f"pause_active: {str(result.pause.active).lower()}")


def cmd_analyze(args) -> int:
    site = load_site_config(args.config)
    inputs = [Path(p) for p in args.input]
    out = Path(args.out)
    targets = [out] if len(inputs) == 1 else [out / p.stem for p in inputs]
    for i, target in enumerate(targets):
        if target in targets[:i]:
            first = inputs[targets.index(target)]
            raise ConfigError(f"inputs {first} and {inputs[i]} would both write to {target}")
    for stream_path, target in zip(inputs, targets):
        _analyze_one(stream_path, site, target, not args.lenient)
    return EXIT_OK


def cmd_report(args) -> int:
    src = Path(args.input)
    meta_path = src / "meta.json"
    timeline_path = src / "timeline.csv"
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        check_number("fps", meta["fps"], "(0, inf)")
        fps = float(meta["fps"])
        # A meta.json written before the key existed means dig_span.
        rate_denominator = meta.get("rate_denominator", "dig_span")
        if rate_denominator not in RATE_DENOMINATORS:
            raise ValueError(f"rate_denominator must be one of {RATE_DENOMINATORS}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid meta.json: {exc}") from None
    try:
        timeline = read_timeline_csv(timeline_path, fps)
    except ValueError as exc:
        raise StreamFormatError(f"{timeline_path}: {exc}") from None
    # Each flag overrides its own value only; the other comes from the
    # analysis's report.csv.
    params = _report_params_from_csv(src / "report.csv")
    for flag, name, value in (
        ("--volume", "bucket_volume_m3", args.volume),
        ("--full-rate", "bucket_full_rate", args.full_rate),
    ):
        if value is not None:
            _check_option(flag, value, *_BUCKET_RULES[name])
            params[name] = value
    report = build_report(
        timeline,
        params["bucket_volume_m3"],
        params["bucket_full_rate"],
        args.rate_denominator or rate_denominator,
    )
    _check_finite(report)
    out = Path(args.out) if args.out else src
    out.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out / "report.csv")
    write_cycles_csv(report.cycles, fps, out / "cycles.csv")
    for key, value in report_rows(report):
        print(f"{key}: {value}" if value != "" else f"{key}:")
    return EXIT_OK


def _check_finite(report: ProductivityReport) -> None:
    """Bucket values whose product with the cycle rate leaves float range
    are a config error, so no report holds inf or nan."""
    if not math.isfinite(report.productivity_m3_per_hr):
        raise ConfigError(
            f"productivity is not finite: {report.cycles_per_hr!r} cycles/hr x "
            f"bucket_volume_m3 {report.bucket_volume_m3!r} x "
            f"bucket_full_rate {report.bucket_full_rate!r}"
        )


# The site config's rules for the bucket values report can override.
_BUCKET_RULES = {
    f.name: f.metadata["number"] for f in fields(SiteConfig) if f.name.startswith("bucket_")
}


def _check_option(flag: str, value, interval, integer=False) -> None:
    """A command-line number outside its rule is a config error."""
    try:
        check_number(flag, value, interval, integer)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _report_params_from_csv(path) -> dict[str, float]:
    params = {name: getattr(SiteConfig, name) for name in _BUCKET_RULES}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"field", "value"}
            if reader.fieldnames is None or required - set(reader.fieldnames):
                raise StreamFormatError(f"{path}: report CSV needs columns {sorted(required)}")
            for line_no, row in enumerate(reader, start=2):
                name = row["field"]
                if name in params:
                    interval, _ = _BUCKET_RULES[name]
                    try:
                        params[name] = parse_number(name, row["value"], interval)
                    except ValueError as exc:
                        raise StreamFormatError(f"{path}: {exc}", line_no) from None
    return params


def _eval_det(args) -> list[tuple[str, str]]:
    _, pred_frames, _ = read_stream(args.pred)
    _, truth_frames, _ = read_stream(args.truth)
    preds = [
        (frame.index, det.cls, det.bbox, det.score)
        for frame in pred_frames
        for det in frame.detections
    ]
    truths = [
        (frame.index, det.cls, det.bbox)
        for frame in truth_frames
        for det in frame.detections
    ]
    if not truths:
        raise ConfigError("ground truth contains no detections")
    per_class, map_value = detection_eval(preds, truths, args.iou_gate)
    rows = [(cls.value, _fmt(ap)) for cls, ap in per_class.items()]
    rows.append(("mAP", _fmt(map_value)))
    return rows


def _eval_pose(args) -> list[tuple[str, str]]:
    _, pred_frames, _ = read_stream(args.pred)
    _, truth_frames, _ = read_stream(args.truth)
    preds = [
        (frame.index, pose, frame.detections[det_idx].score)
        for frame in pred_frames
        for det_idx, pose in frame.poses
    ]
    truths = []
    for frame in truth_frames:
        for det_idx, pose in frame.poses:
            bbox = frame.detections[det_idx].bbox
            truths.append((frame.index, pose, math.sqrt(bbox[2] * bbox[3])))
    if not truths:
        raise ConfigError("ground truth contains no poses")
    thresholds = args.oks_thresholds or DEFAULT_OKS_THRESHOLDS
    try:
        ap = keypoint_ap(preds, truths, thresholds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = [("excavator", _fmt(ap))]
    rows.append(("mAP", _fmt(ap)))
    return rows


def _read_segments_csv(path, with_scores: bool):
    segments = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"state", "start_s", "end_s"}
        if reader.fieldnames is None or required - set(reader.fieldnames):
            raise StreamFormatError(f"{path}: segments CSV needs columns {sorted(required)}")
        for line_no, row in enumerate(reader, start=2):
            try:
                if None in row.values():
                    raise ValueError("segments CSV row has fewer cells than its header")
                segment = TemporalSegment(
                    row["state"], float(row["start_s"]), float(row["end_s"])
                )
                score = float(row["score"]) if "score" in row and row["score"] else 1.0
                check_number("score", score)
            except (TypeError, ValueError) as exc:
                raise StreamFormatError(f"{path}: {exc}", line_no) from None
            segments.append((segment, score) if with_scores else segment)
    return segments


def _eval_action(args) -> list[tuple[str, str]]:
    preds = _read_segments_csv(args.pred, with_scores=True)
    truths = _read_segments_csv(args.truth, with_scores=False)
    if not truths:
        raise ConfigError("ground truth contains no segments")
    per_label, map_value = segment_ap(preds, truths, args.iou_gate)
    rows = [(label, _fmt(ap)) for label, ap in per_label.items()]
    rows.append(("mAP", _fmt(map_value)))
    return rows


@contextmanager
def cyclic_gc_paused():
    """Hold off automatic cyclic garbage collection inside the block.

    ``eval`` keeps both streams' frames and the matches built from them,
    many small containers, none of them part of a reference cycle.  Left
    on, the collector rescans that growing heap again and again and
    frees nothing.  Paused, it scans them at most once, after the block,
    and not at all if they are freed inside it.  Nested use is a no-op.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def cmd_eval(args) -> int:
    if args.task != "pose":
        _check_option("--iou-gate", args.iou_gate, IOU_GATE_RANGE)
    with cyclic_gc_paused():
        if args.task == "det":
            rows = _eval_det(args)
        elif args.task == "pose":
            rows = _eval_pose(args)
        else:
            rows = _eval_action(args)
    for name, value in rows:
        print(f"{name},{value}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("class", "ap"))
            writer.writerows(rows)
    return EXIT_OK


def cmd_watch(args) -> int:
    site = load_site_config(args.config)
    # Bytes where stdin has them, so the parser decodes (and, lenient,
    # skips) each line itself, as it does for analyze.
    stdin = getattr(sys.stdin, "buffer", sys.stdin)
    out = sys.stdout

    def write(**record) -> None:
        out.write(json.dumps(record, separators=(",", ":")) + "\n")

    def print_alerts(alerts) -> None:
        for a in alerts:
            tracks = [[tid, cls.value] for tid, cls in a.tracks]
            region = a.region.value
            write(type="alert", frame=a.frame, offset_s=a.offset_s, region=region, tracks=tracks)
        out.flush()

    def print_pause(event) -> None:
        kind, frame = event
        write(type=kind, frame=frame)
        out.flush()

    with frame_source(stdin, strict=not args.lenient) as frames:
        result = analyze_frames(frames, site, print_alerts, print_pause)
    return 1 if result.pause.active else EXIT_OK


def _add_common_analysis_flags(sub) -> None:
    sub.add_argument("-c", "--config", required=True, help="site config JSON")
    sub.add_argument(
        "--lenient",
        action="store_true",
        help="skip malformed frame lines instead of failing",
    )


def float_list(text: str) -> tuple[float, ...]:
    """Comma-separated numbers, as ``0.5,0.75``; argparse names this
    function in its error for a bad value."""
    return tuple(float(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sitewatch",
        description="Excavator activity, safety, and productivity analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic stream + ground truth")
    p.add_argument("-c", "--config", required=True, help="scenario config JSON")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="run the full analysis over stream files")
    _add_common_analysis_flags(p)
    p.add_argument(
        "-i",
        "--input",
        required=True,
        action="append",
        help="stream file (repeat for multiple)",
    )
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="re-render report from analysis outputs")
    p.add_argument("-i", "--input", required=True, help="analysis output directory")
    p.add_argument("-o", "--out", help="target directory (default: input)")
    p.add_argument("--volume", type=float, help="bucket volume m3 override")
    p.add_argument("--full-rate", type=float, help="bucket full rate override")
    p.add_argument(
        "--rate-denominator",
        choices=RATE_DENOMINATORS,
        help="denominator for cycles/hr (default: the analysis's own)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--task", required=True, choices=("det", "pose", "action"))
    p.add_argument("--pred", required=True, help="predictions file")
    p.add_argument("--truth", required=True, help="ground-truth file")
    p.add_argument("--iou-gate", type=float, default=0.5)
    p.add_argument(
        "--oks-thresholds",
        type=float_list,
        help="comma-separated OKS gates for --task pose",
    )
    p.add_argument("-o", "--out", help="write the table as CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("watch", help="stream analysis of stdin, alerts to stdout")
    _add_common_analysis_flags(p)
    p.set_defaults(func=cmd_watch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SitewatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
