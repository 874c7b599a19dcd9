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
from pathlib import Path

from .activity import ActionTimeline, read_timeline_csv, write_timeline_csv
from .config import load_site_config
from .errors import EXIT_IO, EXIT_OK, ConfigError, SitewatchError, StreamFormatError
from .metrics import (
    DEFAULT_OKS_THRESHOLDS,
    TemporalSegment,
    detection_eval,
    keypoint_ap,
    segment_ap,
)
from .pipeline import AnalysisResult, StreamAnalyzer, analyze_file
from .productivity import (
    build_report,
    detect_cycles,
    report_rows,
    write_cycles_csv,
    write_report_csv,
)
from .simulator import load_scenario, run_scenario
from .streams import parse_stream, read_stream


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


def _write_meta(result: AnalysisResult, path) -> None:
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
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def cmd_simulate(args) -> int:
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
    except BaseException:
        alerts_part.unlink(missing_ok=True)
        raise
    os.replace(alerts_part, out / "alerts.csv")
    fps = result.header.fps
    timeline = (
        result.timelines[result.primary_track]
        if result.primary_track is not None
        else ActionTimeline(fps, [])
    )
    write_timeline_csv(timeline, out / "timeline.csv")
    write_cycles_csv(result.cycles, fps, out / "cycles.csv")
    write_report_csv(result.report, out / "report.csv")
    _write_meta(result, out / "meta.json")
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
    for stream_path in inputs:
        target = out if len(inputs) == 1 else out / stream_path.stem
        _analyze_one(stream_path, site, target, not args.lenient)
    return EXIT_OK


def cmd_report(args) -> int:
    src = Path(args.input)
    meta_path = src / "meta.json"
    timeline_path = src / "timeline.csv"
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        fps = float(meta["fps"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid meta.json: {exc}") from None
    try:
        timeline = read_timeline_csv(timeline_path, fps)
    except ValueError as exc:
        raise StreamFormatError(f"{timeline_path}: {exc}") from None
    # Each flag overrides its own value only; the other comes from the
    # analysis's report.csv.
    volume, full_rate = _report_params_from_csv(src / "report.csv")
    if args.volume is not None:
        volume = args.volume
    if args.full_rate is not None:
        full_rate = args.full_rate
    report = build_report(timeline, volume, full_rate, args.rate_denominator)
    out = Path(args.out) if args.out else src
    out.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out / "report.csv")
    write_cycles_csv(detect_cycles(timeline), fps, out / "cycles.csv")
    for key, value in report_rows(report):
        print(f"{key}: {value}" if value != "" else f"{key}:")
    return EXIT_OK


def _report_params_from_csv(path) -> tuple[float, float]:
    volume, full_rate = 0.4, 1.0
    if not os.path.exists(path):
        return volume, full_rate
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row.get("field") == "bucket_volume_m3":
                volume = float(row["value"])
            elif row.get("field") == "bucket_full_rate":
                full_rate = float(row["value"])
    return volume, full_rate


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
                segment = TemporalSegment(
                    row["state"], float(row["start_s"]), float(row["end_s"])
                )
                score = float(row["score"]) if "score" in row and row["score"] else 1.0
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
    parser = parse_stream(stdin, strict=not args.lenient)
    analyzer = StreamAnalyzer(site, parser.header)
    emitted_events = 0
    for frame in parser:
        alerts = analyzer.process_frame(frame)
        for alert in alerts:
            record = {
                "type": "alert",
                "frame": alert.frame,
                "offset_s": alert.offset_s,
                "region": alert.region.value,
                "tracks": [[tid, cls.value] for tid, cls in alert.tracks],
            }
            out.write(json.dumps(record, separators=(",", ":")) + "\n")
        events = analyzer.monitor.pause_events
        while emitted_events < len(events):
            kind, at_frame = events[emitted_events]
            out.write(
                json.dumps({"type": kind, "frame": at_frame}, separators=(",", ":"))
                + "\n"
            )
            emitted_events += 1
        out.flush()
    return 1 if analyzer.monitor.pause.active else EXIT_OK


def _add_common_analysis_flags(sub) -> None:
    sub.add_argument("-c", "--config", required=True, help="site config JSON")
    sub.add_argument(
        "--lenient",
        action="store_true",
        help="skip malformed frame lines instead of failing",
    )


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
        choices=("dig_span", "stream"),
        default="dig_span",
        help="denominator for cycles/hr",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--task", required=True, choices=("det", "pose", "action"))
    p.add_argument("--pred", required=True, help="predictions file")
    p.add_argument("--truth", required=True, help="ground-truth file")
    p.add_argument("--iou-gate", type=float, default=0.5)
    p.add_argument(
        "--oks-thresholds",
        type=lambda s: tuple(float(v) for v in s.split(",")),
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
