"""End-to-end stream analysis.

Per frame: soft-NMS dedupe, track association, one action state machine
per excavator track (stepped only on frames where that track has a
pose), and the safety monitor.  The primary excavator track (the one
observed with a pose on the most frames) feeds cycle and productivity
reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    alerts: list[Alert]
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
        return self.monitor.step(frame.index, frame_tracks)

    def finish(self, alerts: list[Alert], skipped: int = 0) -> AnalysisResult:
        """Close the analysis; ``alerts`` are the ones process_frame returned."""
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
            pause=self.monitor.pause,
            pause_events=list(self.monitor.pause_events),
        )


def analyze_stream(
    lines: Iterable[str | bytes], site: SiteConfig, strict: bool = True
) -> AnalysisResult:
    parser = parse_stream(lines, strict=strict)
    analyzer = StreamAnalyzer(site, parser.header)
    alerts: list[Alert] = []
    for frame in parser:
        alerts += analyzer.process_frame(frame)
    return analyzer.finish(alerts, skipped=parser.skipped)


def analyze_file(path, site: SiteConfig, strict: bool = True) -> AnalysisResult:
    with open(path, "r", encoding="utf-8") as fh:
        return analyze_stream(fh, site, strict=strict)
