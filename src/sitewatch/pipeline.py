"""End-to-end stream analysis.

Per frame: soft-NMS dedupe, track association, one action state machine
per excavator track (stepped only on frames where that track has a
pose), and the safety monitor.  The primary excavator track (the one
observed with a pose on the most frames) feeds cycle and productivity
reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .activity import (
    ActionClassifier,
    ActionState,
    ActionTimeline,
    build_timeline,
    expand_runs,
)
from .config import SiteConfig
from .productivity import CycleRecord, ProductivityReport, build_report, detect_cycles
from .safety import Alert, PauseSignal, SafetyMonitor
from .streams import (
    MachineClass,
    PerceptionFrame,
    StreamHeader,
    dedupe_frame,
    parse_stream,
)
from .tracking import IouTracker


@dataclass
class AnalysisResult:
    header: StreamHeader
    frame_count: int
    skipped: int
    track_classes: dict[int, MachineClass]
    runs: dict[int, list[tuple[ActionState, int, int]]]  # (state, first, last)
    timelines: dict[int, ActionTimeline]
    primary_track: int | None
    cycles: list[CycleRecord]
    report: ProductivityReport
    alerts: list[Alert]  # empty when an ``on_alerts`` sink took them
    alert_count: int
    pause: PauseSignal
    pause_events: list[tuple[str, int]]

    @property
    def states(self) -> dict[int, list[tuple[int, ActionState]]]:
        """Each track's (frame index, state) pairs, expanded from its runs."""
        return {tid: expand_runs(runs) for tid, runs in self.runs.items()}


class StreamAnalyzer:
    """Incremental analyzer; feed frames in order, then finish()."""

    def __init__(self, site: SiteConfig, header: StreamHeader):
        self.site = site
        self.header = header
        self.frame_count = 0
        self.alert_count = 0
        self.tracker = IouTracker(site.track_iou, site.track_miss_cap)
        self.monitor = SafetyMonitor(
            site.regions,
            header.fps,
            site.clearance_window,
            site.activity.probe_conf_floor,
        )
        self.track_classes: dict[int, MachineClass] = {}
        self._classifiers: dict[int, ActionClassifier] = {}

    def process_frame(self, frame: PerceptionFrame) -> list[Alert]:
        site = self.site
        frame = dedupe_frame(frame, site.nms_iou, site.nms_decay, site.nms_score_floor)
        assignment = self.tracker.update(frame.detections)
        pose_by_track = {}
        for det_idx, pose in frame.poses:
            track_id = assignment[det_idx]
            pose_by_track[track_id] = pose
        frame_tracks = []
        track_by_id = {t.track_id: t for t in self.tracker.tracks}
        for det_idx, track_id in assignment.items():
            track = track_by_id[track_id]
            self.track_classes[track_id] = track.cls
            bbox = frame.detections[det_idx].bbox
            pose = pose_by_track.get(track_id)
            frame_tracks.append((track, bbox, pose))
            if track.cls is MachineClass.EXCAVATOR and pose is not None:
                classifier = self._classifiers.get(track_id)
                if classifier is None:
                    classifier = ActionClassifier(
                        site.regions, self.header.fps, site.activity
                    )
                    self._classifiers[track_id] = classifier
                classifier.step(frame.index, pose, bbox)
        frame_tracks.sort(key=lambda item: item[0].track_id)
        self.frame_count += 1
        alerts = self.monitor.step(frame.index, frame_tracks)
        self.alert_count += len(alerts)
        return alerts

    def finish(self, alerts: list[Alert], skipped: int = 0) -> AnalysisResult:
        """Close the analysis.

        ``alerts`` are the process_frame results the caller kept, if it
        kept them; ``alert_count`` counts every alert either way.
        """
        timelines = {
            track_id: build_timeline(
                classifier.runs, self.header.fps, self.site.activity.min_segment_s
            )
            for track_id, classifier in self._classifiers.items()
        }
        primary = None
        if self._classifiers:
            primary = max(
                self._classifiers,
                key=lambda tid: (self._classifiers[tid].observed_frames, -tid),
            )
        primary_timeline = (
            timelines[primary]
            if primary is not None
            else ActionTimeline(self.header.fps, [])
        )
        report = build_report(
            primary_timeline,
            self.site.bucket_volume_m3,
            self.site.bucket_full_rate,
            self.site.rate_denominator,
        )
        return AnalysisResult(
            header=self.header,
            frame_count=self.frame_count,
            skipped=skipped,
            track_classes=dict(self.track_classes),
            runs={
                tid: [tuple(run) for run in c.runs]
                for tid, c in self._classifiers.items()
            },
            timelines=timelines,
            primary_track=primary,
            cycles=detect_cycles(primary_timeline),
            report=report,
            alerts=alerts,
            alert_count=self.alert_count,
            pause=self.monitor.pause,
            pause_events=list(self.monitor.pause_events),
        )


AlertSink = Callable[[list[Alert]], object]


def analyze_stream(
    lines: Iterable[str | bytes],
    site: SiteConfig,
    strict: bool = True,
    on_alerts: AlertSink | None = None,
) -> AnalysisResult:
    """Analyze a whole stream.

    Each frame's alerts are collected into ``result.alerts``, or, given
    ``on_alerts``, handed to it as they are found and not kept;
    ``result.alert_count`` counts them either way.
    """
    parser = parse_stream(lines, strict=strict)
    analyzer = StreamAnalyzer(site, parser.header)
    alerts: list[Alert] = []
    sink = alerts.extend if on_alerts is None else on_alerts
    for frame in parser:
        found = analyzer.process_frame(frame)
        if found:
            sink(found)
    return analyzer.finish(alerts, skipped=parser.skipped)


def analyze_file(
    path, site: SiteConfig, strict: bool = True, on_alerts: AlertSink | None = None
) -> AnalysisResult:
    with open(path, "r", encoding="utf-8") as fh:
        return analyze_stream(fh, site, strict=strict, on_alerts=on_alerts)
