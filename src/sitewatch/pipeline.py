"""End-to-end stream analysis.

Per frame: soft-NMS dedupe, track association, one action state machine
per excavator track (stepped only on frames where that track has a
pose), and the safety monitor.  The primary excavator track (the one
observed with a pose on the most frames) feeds cycle and productivity
reporting.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator

from . import forking
from .activity import ActionClassifier, ActionState, ActionTimeline, build_timeline
from .config import SiteConfig
from .productivity import ProductivityReport, build_report
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
    primary_track: int | None
    timeline: ActionTimeline  # the primary track's; empty without one
    report: ProductivityReport
    alert_count: int
    pause: PauseSignal
    pause_events: list[tuple[str, int]]


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
        detections = frame.detections
        assignment = self.tracker.update(detections)
        tracks = self.tracker.by_id
        # The parser allows at most one pose per detection.
        poses = dict(frame.poses)
        frame_tracks = []
        for det_idx, track_id in assignment.items():
            track = tracks[track_id]
            self.track_classes[track_id] = track.cls
            bbox = detections[det_idx].bbox
            pose = poses.get(det_idx)
            frame_tracks.append((track, bbox, pose))
            if track.cls is MachineClass.EXCAVATOR and pose is not None:
                classifier = self._classifiers.get(track_id)
                if classifier is None:
                    classifier = ActionClassifier(
                        site.regions, self.header.fps, site.activity
                    )
                    self._classifiers[track_id] = classifier
                classifier.step(frame.index, pose, bbox)
        self.frame_count += 1
        alerts = self.monitor.step(frame.index, frame_tracks)
        self.alert_count += len(alerts)
        return alerts

    def finish(self, skipped: int = 0) -> AnalysisResult:
        """Close the analysis; ``alert_count`` counts every alert."""
        site, classifiers = self.site, self._classifiers
        primary = max(
            classifiers, key=lambda tid: (classifiers[tid].observed_frames, -tid), default=None
        )
        primary_runs = classifiers[primary].runs if primary is not None else []
        timeline = build_timeline(primary_runs, self.header.fps, site.activity.min_segment_s)
        report = build_report(
            timeline, site.bucket_volume_m3, site.bucket_full_rate, site.rate_denominator
        )
        return AnalysisResult(
            header=self.header,
            frame_count=self.frame_count,
            skipped=skipped,
            track_classes=dict(self.track_classes),
            runs={tid: [tuple(run) for run in c.runs] for tid, c in classifiers.items()},
            primary_track=primary,
            timeline=timeline,
            report=report,
            alert_count=self.alert_count,
            pause=self.monitor.pause,
            pause_events=list(self.monitor.pause_events),
        )


AlertSink = Callable[[list[Alert]], object]
PauseSink = Callable[[tuple[str, int]], object]


def analyze_frames(
    frames, site: SiteConfig, on_alerts: AlertSink | None = None, on_pause: PauseSink | None = None
) -> AnalysisResult:
    """Analyze a StreamParser, or the frames frame_source yields.

    Either gives ``header`` before and ``skipped`` after iteration.
    Each frame's alerts go to ``on_alerts``; then a pause raised or
    cleared on that frame goes to ``on_pause`` as its (kind, frame).
    """
    analyzer = StreamAnalyzer(site, frames.header)
    events = analyzer.monitor.pause_events
    sent = 0
    for frame in frames:
        found = analyzer.process_frame(frame)
        if found and on_alerts is not None:
            on_alerts(found)
        # A step adds at most one pause event.
        if on_pause is not None and len(events) > sent:
            on_pause(events[sent])
            sent += 1
    return analyzer.finish(skipped=frames.skipped)


def analyze_stream(
    lines: Iterable[str | bytes],
    site: SiteConfig,
    strict: bool = True,
    on_alerts: AlertSink | None = None,
) -> AnalysisResult:
    """Analyze a whole stream in the calling process.

    Each frame's alerts are handed to ``on_alerts`` as they are found;
    none is kept, and ``result.alert_count`` counts them.
    """
    return analyze_frames(parse_stream(lines, strict=strict), site, on_alerts)


def analyze_file(
    path, site: SiteConfig, strict: bool = True, on_alerts: AlertSink | None = None
) -> AnalysisResult:
    """Analyze a stream file; the result and errors are analyze_stream's.

    The frames come from frame_source, so a forked child may parse them
    while this process analyzes them.
    """
    with open(path, "rb") as fh, frame_source(fh, strict=strict) as frames:
        return analyze_frames(frames, site, on_alerts)


@contextmanager
def frame_source(fh, strict: bool = True) -> Iterator[StreamParser | _ReceivedFrames]:
    """The frames of the stream ``fh``, with the parser's results and errors.

    Yields an iterable of PerceptionFrames with the stream's ``header``,
    parsed on entry, and ``skipped`` once iterated to the end.  Where
    ``fh`` has ``read1`` (a binary file or pipe) and
    ``forking.can_fork()``, a forked child parses the frames while this
    process consumes them; otherwise they are parsed in this process.
    The child sends every frame parsed so far before each read of
    ``fh``, any of which may block on a live input, so a frame is never
    held back waiting for the next.  On leaving the block the child is
    reaped, and killed first if its end message was not read.
    """
    if not hasattr(fh, "read1"):
        yield parse_stream(fh, strict=strict)
        return
    lines = _ChunkedLines(fh)
    # The header is parsed here, so its errors need no forwarding.
    parser = parse_stream(lines, strict=strict)
    if not forking.can_fork():
        yield parser
        return
    child = forking.start_child(partial(_send_frames, parser, lines))
    # The lines read past the header are the child's to parse; dropping
    # them here saves about 34 KiB for the whole run.
    header = parser.header
    del parser, lines
    with child:
        yield _ReceivedFrames(header, child)


# The most frame_source reads at once.  On a file the child sends about
# one batch per chunk, and each process holds a whole batch at a time:
# on a 22,780-frame stream, analyze's process grew after the fork by
# about 58 KiB more with 16 KiB chunks than with one message per frame,
# and by about 22 KiB more with 8 KiB chunks.
_CHUNK_BYTES = 8 * 1024


class _ChunkedLines:
    """The lines of a binary input, split only at b"\\n".

    Each read is one ``read1`` of at most ``_CHUNK_BYTES``, which on a
    pipe returns what has arrived instead of waiting for a full chunk.
    ``before_read`` is called before each read.
    """

    def __init__(self, fh: BinaryIO):
        self.before_read: Callable[[], object] = lambda: None
        self._read1 = fh.read1

    def __iter__(self) -> Iterator[bytes]:
        return chain.from_iterable(self._chunks())

    def _chunks(self) -> Iterator[list[bytes]]:
        """The lines each read ends, as one list per read."""
        read1 = self._read1
        begun: list[bytes] = []  # the start of a line no chunk has ended yet
        while True:
            self.before_read()
            chunk = read1(_CHUNK_BYTES)
            if not chunk:
                break
            lines = chunk.split(b"\n")
            if len(lines) == 1:
                begun.append(chunk)
                continue
            if begun:
                begun.append(lines[0])
                lines[0] = b"".join(begun)
            begun = [lines.pop()]
            yield lines
        last = b"".join(begun)
        if last:
            yield [last]


def _send_frames(parser: StreamParser, lines: _ChunkedLines, send) -> int:
    """In the child: send ``parser``'s frames in batches; returns skipped.

    Each batch is a list of frame tuples (index, ((class value, bbox,
    score), ...), poses).  The frames before an error line are sent
    before the error.
    """
    batch: list[tuple] = []

    def send_batch() -> None:
        if batch:
            send(batch)
            batch.clear()

    lines.before_read = send_batch
    append = batch.append
    try:
        for frame in parser:
            append(
                (
                    frame.index,
                    tuple([(d.cls.value, d.bbox, d.score) for d in frame.detections]),
                    frame.poses,
                )
            )
    finally:
        send_batch()
    return parser.skipped


class _ReceivedFrames:
    """The frames a forked parser sends, rebuilt; ``skipped`` once done.

    Raises the parser's exception after the frames that preceded it, and
    ChildProcessError if the child ends without its end message.
    """

    def __init__(self, header: StreamHeader, child: forking.Child):
        self.header = header
        self.skipped = 0
        self._child = child

    def __iter__(self) -> Iterator[PerceptionFrame]:
        new = tuple.__new__
        classes = {c.value: c for c in MachineClass}
        for batch in self._child:
            yield from [
                new(
                    PerceptionFrame,
                    (
                        index,
                        tuple([new(Detection, (classes[c], bbox, s)) for c, bbox, s in detections]),
                        poses,
                    ),
                )
                for index, detections, poses in batch
            ]
        self.skipped = self._child.result
