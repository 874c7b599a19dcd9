"""End-to-end stream analysis.

Per frame: soft-NMS dedupe, track association, one action state machine
per excavator track (stepped only on frames where that track has a
pose), and the safety monitor.  The primary excavator track (the one
observed with a pose on the most frames) feeds cycle and productivity
reporting.
"""

from __future__ import annotations

import io
import marshal
import os
import threading
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn

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
    Detection,
    MachineClass,
    PerceptionFrame,
    StreamHeader,
    StreamParser,
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


def _analyze(frames, site: SiteConfig, on_alerts: AlertSink | None) -> AnalysisResult:
    """Analyze a StreamParser, or the frames received from a forked one.

    Either gives ``header`` before and ``skipped`` after iteration.
    """
    analyzer = StreamAnalyzer(site, frames.header)
    alerts: list[Alert] = []
    sink = alerts.extend if on_alerts is None else on_alerts
    for frame in frames:
        found = analyzer.process_frame(frame)
        if found:
            sink(found)
    return analyzer.finish(alerts, skipped=frames.skipped)


def analyze_stream(
    lines: Iterable[str | bytes],
    site: SiteConfig,
    strict: bool = True,
    on_alerts: AlertSink | None = None,
) -> AnalysisResult:
    """Analyze a whole stream in the calling process.

    Each frame's alerts are collected into ``result.alerts``, or, given
    ``on_alerts``, handed to it as they are found and not kept;
    ``result.alert_count`` counts them either way.
    """
    return _analyze(parse_stream(lines, strict=strict), site, on_alerts)


def analyze_file(
    path, site: SiteConfig, strict: bool = True, on_alerts: AlertSink | None = None
) -> AnalysisResult:
    """Analyze a stream file; the result and errors are analyze_stream's.

    Where fork is available, more than one CPU is usable and this
    process runs no other thread, a forked child parses the frames while
    this process analyzes them.
    """
    with open(path, "rb") as fh:
        # The header is parsed here, so its errors need no forwarding.
        parser = parse_stream(fh, strict=strict)
        if not _parse_in_child():
            return _analyze(parser, site, on_alerts)
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            _parser_child(parser, read_fd, write_fd)
        os.close(write_fd)
        try:
            with open(read_fd, "rb") as pipe:
                return _analyze(_ReceivedFrames(parser.header, pipe), site, on_alerts)
        finally:
            # The read end is closed by now, so a child blocked on a full
            # pipe fails its write and exits.
            os.waitpid(pid, 0)


def _parse_in_child() -> bool:
    # A forked child has only the forking thread, and a lock another
    # thread held at the fork stays held in the child.
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus > 1


# Every message on the pipe is a 4-byte little-endian length, then that
# many bytes of marshal data: one (index, ((class value, bbox, score),
# ...), poses) tuple per frame, then one (skipped, pickled exception or
# None) end message.
_LENGTH_BYTES = 4


def _parser_child(parser: StreamParser, read_fd: int, write_fd: int) -> NoReturn:
    """Send ``parser``'s frames down the pipe; never returns.

    Leaves through os._exit, so no atexit hook runs and no inherited
    buffer (stdio, an open output file) is flushed a second time.
    """
    status = 1
    try:
        os.close(read_fd)
        out = io.BufferedWriter(io.FileIO(write_fd, "wb"))
        write, dumps = out.write, marshal.dumps
        try:
            for frame in parser:
                msg = dumps(
                    (
                        frame.index,
                        tuple([(d.cls.value, d.bbox, d.score) for d in frame.detections]),
                        frame.poses,
                    )
                )
                write(len(msg).to_bytes(_LENGTH_BYTES, "little"))
                write(msg)
            end = (parser.skipped, None)
        except Exception as exc:
            end = (None, _pickled(exc))
        msg = dumps(end)
        write(len(msg).to_bytes(_LENGTH_BYTES, "little"))
        write(msg)
        out.flush()
        status = 0
    finally:
        os._exit(status)


def _pickled(exc: Exception) -> bytes:
    # pickle is imported only on this error path (and where the parent
    # unpickles): importing it costs every analyze about 0.2 MB of RSS.
    import pickle

    try:
        return pickle.dumps(exc)
    except Exception:
        return pickle.dumps(RuntimeError(f"stream parser failed: {exc!r}"))


class _ReceivedFrames:
    """The frames a forked parser sends, rebuilt; ``skipped`` once done.

    Raises the parser's exception after the frames that preceded it, and
    ChildProcessError if the child ends without its end message.
    """

    def __init__(self, header: StreamHeader, pipe: BinaryIO):
        self.header = header
        self.skipped = 0
        self._pipe = pipe

    def _message(self):
        read = self._pipe.read
        head = read(_LENGTH_BYTES)
        size = int.from_bytes(head, "little")
        body = read(size)
        if len(head) != _LENGTH_BYTES or len(body) != size:
            raise ChildProcessError("stream parser process ended before its stream did")
        return marshal.loads(body)

    def __iter__(self) -> Iterator[PerceptionFrame]:
        message = self._message
        new = tuple.__new__
        classes = {c.value: c for c in MachineClass}
        while True:
            msg = message()
            if len(msg) != 3:
                break
            index, detections, poses = msg
            yield PerceptionFrame(
                index,
                tuple([new(Detection, (classes[c], bbox, s)) for c, bbox, s in detections]),
                poses,
            )
        skipped, error = msg
        if error is not None:
            import pickle

            raise pickle.loads(error)
        self.skipped = skipped
