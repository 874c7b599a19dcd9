"""Rule-based excavator action recognition.

Each frame combines three signals: where the bucket-side probe point sits
among the configured working areas, whether the carbody keypoints
(body1..body4) have been still over a short rolling window, and the
previous state, which disambiguates the two swing directions.  Prolonged
stillness of body and arm together becomes idle in any determinate
location.  Indeterminate inputs (underfull window, no confident probe)
hold the previous state rather than emit a spurious transition.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import StreamFormatError
from .geometry import LocationLabel, Region, classify_location
from .streams import (
    ARM,
    BODY,
    BBox,
    Pose,
    bbox_diagonal,
    check_fields,
    number_field,
    parse_number,
)


class ActionState(str, Enum):
    DIGGING = "digging"
    SWING_AFTER_DIGGING = "swing_after_digging"
    DUMPING = "dumping"
    SWING_FOR_DIGGING = "swing_for_digging"
    IDLE = "idle"
    UNKNOWN = "unknown"


# Previous states that make an ongoing swing a return swing toward the
# digging area; every other predecessor swings away from it.
_SWING_FOR_PREDECESSORS = (ActionState.DUMPING, ActionState.SWING_FOR_DIGGING)


def _step_totals(pose: Pose, last: Pose) -> tuple[float, float]:
    """The arm and the body displacement totals from ``last`` to ``pose``.

    Each is the four ``math.hypot`` distances of its keypoints added in
    keypoint order, read straight from the triples at the ARM (0..3)
    and BODY (6..9) positions.  ``math.dist(p, q)`` rounds exactly as
    ``hypot(qx - px, qy - py)``, so every distance equals the exact
    path's.
    """
    (a0x, a0y, _), (a1x, a1y, _), (a2x, a2y, _), (a3x, a3y, _), _, _, (
        b0x, b0y, _), (b1x, b1y, _), (b2x, b2y, _), (b3x, b3y, _) = pose
    (p0x, p0y, _), (p1x, p1y, _), (p2x, p2y, _), (p3x, p3y, _), _, _, (
        q0x, q0y, _), (q1x, q1y, _), (q2x, q2y, _), (q3x, q3y, _) = last
    hypot = math.hypot
    arm = (
        hypot(a0x - p0x, a0y - p0y)
        + hypot(a1x - p1x, a1y - p1y)
        + hypot(a2x - p2x, a2y - p2y)
        + hypot(a3x - p3x, a3y - p3y)
    )
    body = (
        hypot(b0x - q0x, b0y - q0y)
        + hypot(b1x - q1x, b1y - q1y)
        + hypot(b2x - q2x, b2y - q2y)
        + hypot(b3x - q3x, b3y - q3y)
    )
    return arm, body


# The unit roundoff of a float, u = 2**-53.
_U = 2.0**-53


def _motion_limits(threshold: float, m: int) -> tuple[float, float]:
    """``(lo, hi)`` for a summed total T of ``m`` distances: T < lo is
    still and T > hi is moving, as the exact mean would decide.

    The exact decision is ``fl(E / m) < threshold``, where E adds the
    same m distances (each >= 0) one at a time in another order.  T and
    E are both recursive sums of them, so each lies within
    g = γ(m-1) = (m-1)u / (1 - (m-1)u) of their exact sum S, relative
    to S (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, §4.2), and E/T lies in [(1-g)/(1+g), (1+g)/(1-g)], about
    1 ± 2(m-1)u.  L = fl(threshold * m), and lo and hi themselves, each
    round once more, by at most u.  Rounding is monotone and the
    threshold is a float, so the quotient rounds below it when E/m <
    threshold(1 - 2u), and not below it when E/m >= threshold.  With
    η = (2m + 8)u, lo = L(1 - η) and hi = L(1 + η), T < lo gives the
    first and T > hi the second: to first order the one needs
    η >= 2(m-1)u + 4u and the other η >= 2(m-1)u + 2u.  The 6u to spare
    covers the second-order terms, about 2(mu)**2, while m <= 2**26.
    The argument also needs the product and the quotient in the normal
    range, so outside 2**-900 < L < 2**900, or for a larger m, every
    total takes the exact path.
    """
    limit = threshold * m
    if not (2.0**-900 < limit < 2.0**900 and m <= 2**26):
        return 0.0, math.inf
    slack = limit * ((2 * m + 8) * _U)
    return limit - slack, limit + slack


def step_state(
    prev: ActionState,
    loc: LocationLabel,
    body_still: bool,
    arm_still: bool,
    idle_elapsed: float,
    idle_grace: float = 3.0,
) -> ActionState:
    """One transition of the action rules; pure function.

    Prolonged total stillness wins first (idle, any determinate
    location), then a still body in the digging area digs, then a moving
    body swings (direction from the previous state), then a still body
    with a moving arm in the dumping area dumps.  Anything else holds the
    previous state.  Callers must resolve indeterminate locations before
    stepping.
    """
    if body_still and arm_still and idle_elapsed >= idle_grace:
        return ActionState.IDLE
    if loc is LocationLabel.IN_DIGGING and body_still:
        return ActionState.DIGGING
    if not body_still:
        if prev in _SWING_FOR_PREDECESSORS:
            return ActionState.SWING_FOR_DIGGING
        return ActionState.SWING_AFTER_DIGGING
    if loc is LocationLabel.IN_DUMPING and not arm_still:
        return ActionState.DUMPING
    return prev


@dataclass(frozen=True)
class ActivityConfig:
    """Thresholds for the per-track state machine.

    stillness_threshold is px/frame in "px" mode, or a fraction of the
    excavator bbox diagonal per frame in "bbox_frac" mode.
    """

    stillness_threshold: float = number_field(1.5, "(0, inf)")
    stillness_mode: str = "px"
    motion_window: int = number_field(5, "[2, inf)", integer=True)
    idle_grace_s: float = number_field(3.0, "[0, inf)")
    min_segment_s: float = number_field(0.5, "[0, inf)")
    probe_conf_floor: float = number_field(0.3, "[0, 1]")

    def __post_init__(self):
        if self.stillness_mode not in ("px", "bbox_frac"):
            raise ValueError("stillness_mode must be 'px' or 'bbox_frac'")
        check_fields(self)


class ActionClassifier:
    """Per-track action state machine over frame-ordered pose observations.

    Motion is the mean frame-to-frame displacement of the four body (and
    the four arm) keypoints over the last ``motion_window`` consecutive
    poses; strictly below the stillness threshold counts as still.  Each
    step adds four distances to one arm and one body total and keeps
    them, and the summed totals are compared with ``threshold * n``.
    Only a sum within the rounding bound of ``_motion_limits`` recomputes
    the exact mean from the kept poses.

    The state history is kept as runs, ``[state, first_frame,
    last_frame]``, each over consecutive observed frames in one state,
    so it grows with state changes and observation gaps, not frames.
    """

    def __init__(
        self,
        regions: Sequence[Region],
        fps: float,
        config: ActivityConfig | None = None,
    ):
        if fps <= 0:
            raise ValueError("fps must be positive")
        self.regions = tuple(regions)
        self.fps = fps
        self.config = config or ActivityConfig()
        self.state = ActionState.UNKNOWN
        self.runs: list[list] = []
        self.observed_frames = 0
        window = self.config.motion_window
        # The last consecutive poses, oldest first, and the (arm, body)
        # totals of each step between them.
        self._poses: deque[Pose] = deque(maxlen=window)
        self._steps: deque[tuple[float, float]] = deque(maxlen=window - 1)
        # (threshold, lo, hi) by step count, in "px" mode.
        self._px_limits: dict[int, tuple[float, float, float]] = {}
        self._still_frames = 0
        self._last_frame: int | None = None

    def _limits(self, bbox: BBox | None, steps: int) -> tuple[float, float, float]:
        """The threshold and ``_motion_limits`` for ``steps`` kept steps."""
        config = self.config
        if config.stillness_mode == "px":
            limits = self._px_limits.get(steps)
            if limits is None:
                threshold = config.stillness_threshold
                limits = (threshold, *_motion_limits(threshold, 4 * steps))
                self._px_limits[steps] = limits
            return limits
        if bbox is None:
            raise ValueError("bbox_frac stillness mode needs the detection bbox")
        threshold = config.stillness_threshold * bbox_diagonal(bbox)
        return (threshold, *_motion_limits(threshold, 4 * steps))

    def _exact_mean(self, part: slice) -> float:
        """The mean displacement of the ``part`` keypoints over the kept
        poses, added one distance at a time, oldest step first."""
        poses = iter(self._poses)
        last = next(poses)[part]
        total = 0.0
        for pose in poses:
            points = pose[part]
            for p, q in zip(last, points):
                total += math.dist(p[:2], q[:2])
            last = points
        return total / ((len(self._poses) - 1) * len(last))

    def step(
        self, frame_index: int, pose: Pose | None, bbox: BBox | None = None
    ) -> ActionState:
        """Advance one frame; a None pose holds state and resets history."""
        last_frame = self._last_frame
        if last_frame is not None and frame_index <= last_frame:
            raise ValueError("frame indices must be strictly increasing")
        self._last_frame = frame_index
        poses, steps = self._poses, self._steps
        if pose is not None and poses and frame_index == last_frame + 1:
            steps.append(_step_totals(pose, poses[-1]))
            poses.append(pose)
            arm = body = 0.0
            for arm_step, body_step in steps:
                arm += arm_step
                body += body_step
            threshold, lo, hi = self._limits(bbox, len(steps))
            body_still = body < lo or (
                body <= hi and self._exact_mean(BODY) < threshold
            )
            arm_still = arm < lo or (arm <= hi and self._exact_mean(ARM) < threshold)
            if body_still and arm_still:
                self._still_frames += 1
            else:
                self._still_frames = 0
            loc = classify_location(pose, self.regions, self.config.probe_conf_floor)
            if loc is not None:
                self.state = step_state(
                    self.state,
                    loc,
                    body_still,
                    arm_still,
                    self._still_frames / self.fps,
                    self.config.idle_grace_s,
                )
        else:
            # No pose, a first pose or one after a gap: the history
            # restarts, and there is no motion estimate on this frame.
            poses.clear()
            steps.clear()
            if pose is not None:
                poses.append(pose)
            self._still_frames = 0
        state = self.state
        self.observed_frames += 1
        # Extend the open run when this frame follows it in its state;
        # the open run always ends at last_frame.
        runs = self.runs
        if runs and runs[-1][0] is state and last_frame == frame_index - 1:
            runs[-1][2] = frame_index
        else:
            runs.append([state, frame_index, frame_index])
        return state


@dataclass(frozen=True)
class TimelineSegment:
    state: ActionState
    start_frame: int
    end_frame: int  # inclusive
    start_s: float
    end_s: float  # exclusive, (end_frame + 1) / fps
    duration_s: float


@dataclass
class ActionTimeline:
    """Debounced activity segments over the observed frame range."""

    fps: float
    segments: list[TimelineSegment]

    @property
    def start_frame(self) -> int | None:
        return self.segments[0].start_frame if self.segments else None

    @property
    def end_frame(self) -> int | None:
        return self.segments[-1].end_frame if self.segments else None

    @property
    def total_s(self) -> float:
        if not self.segments:
            return 0.0
        first = self.segments[0].start_frame
        last = self.segments[-1].end_frame
        return (last - first + 1) / self.fps

    def state_seconds(self) -> dict[str, float]:
        """Total seconds per state; swing variants merge under 'swinging'."""
        out: dict[str, float] = {}
        for seg in self.segments:
            key = seg.state.value
            if seg.state in (
                ActionState.SWING_AFTER_DIGGING,
                ActionState.SWING_FOR_DIGGING,
            ):
                key = "swinging"
            out[key] = out.get(key, 0.0) + seg.duration_s
        return out


def build_timeline(
    runs: Iterable[Sequence], fps: float, min_duration: float = 0.5
) -> ActionTimeline:
    """Debounce ``(state, first_frame, last_frame)`` runs into segments.

    The runs are read as ``ActionClassifier.runs`` keeps them and are
    not modified.  Runs shorter than min_duration are absorbed into the
    preceding segment; a short leading run (which has no preceding
    segment, e.g. the warm-up) is absorbed into the following one
    instead.  Equal neighbors merge.  Gaps between observed frames
    extend the earlier segment, so the segments partition the full
    observed frame range.
    """
    if fps <= 0:
        raise ValueError("fps must be positive")
    if min_duration < 0:
        raise ValueError("min_duration must be non-negative")
    spans: list[list] = []
    for state, first, last in runs:
        if last < first:
            raise ValueError("a run must not end before it starts")
        if spans:
            previous = spans[-1]
            if first <= previous[2]:
                raise ValueError("frame indices must be strictly increasing")
            if previous[0] is state:
                previous[2] = last
                continue
        spans.append([state, first, last])
    if not spans:
        return ActionTimeline(fps, [])

    # Stitch each run's end out to the next run's start so gaps stay
    # covered by the state that was held.
    for current, following in zip(spans, spans[1:]):
        current[2] = following[1] - 1

    merged: list[list] = [spans[0]]
    for state, start, end in spans[1:]:
        span_s = (end - start + 1) / fps
        if span_s < min_duration or merged[-1][0] is state:
            merged[-1][2] = end
        else:
            merged.append([state, start, end])
    while (
        len(merged) > 1
        and (merged[0][2] - merged[0][1] + 1) / fps < min_duration
    ):
        merged[1][1] = merged[0][1]
        del merged[0]

    segments = [
        TimelineSegment(
            state,
            start,
            end,
            start / fps,
            (end + 1) / fps,
            (end - start + 1) / fps,
        )
        for state, start, end in merged
    ]
    return ActionTimeline(fps, segments)


TIMELINE_CSV_FIELDS = ("segment", "start_s", "end_s", "state")


def write_timeline_csv(timeline: ActionTimeline, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMELINE_CSV_FIELDS)
        for i, seg in enumerate(timeline.segments):
            writer.writerow([i, repr(seg.start_s), repr(seg.end_s), seg.state.value])


def read_timeline_csv(path, fps: float) -> ActionTimeline:
    """Rebuild a timeline from its CSV export.

    A row with an unknown state, a time that is not a finite number in
    [0, inf), or frame bounds at ``fps`` that are not finite or cover no
    frame is a StreamFormatError naming its line.
    """
    segments: list[TimelineSegment] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(TIMELINE_CSV_FIELDS) - set(reader.fieldnames):
            raise ValueError("timeline CSV missing required columns")
        for line_no, row in enumerate(reader, start=2):
            try:
                state = ActionState(row["state"])
                start_s = parse_number("start_s", row["start_s"], "[0, inf)")
                end_s = parse_number("end_s", row["end_s"], "[0, inf)")
                if end_s <= start_s:
                    raise ValueError("timeline CSV segment must end after it starts")
                if not math.isfinite(end_s * fps):
                    raise ValueError(
                        f"timeline CSV segment has no finite frame bounds at fps {fps!r}"
                    )
                start_f = round(start_s * fps)
                end_f = round(end_s * fps) - 1
                if end_f < start_f:
                    raise ValueError(f"timeline CSV segment covers no frame at fps {fps!r}")
            except ValueError as exc:
                raise StreamFormatError(f"{path}: {exc}", line_no) from None
            segments.append(
                TimelineSegment(
                    state, start_f, end_f, start_s, end_s, end_s - start_s
                )
            )
    for a, b in zip(segments, segments[1:]):
        if b.start_frame != a.end_frame + 1:
            raise ValueError("timeline CSV segments must be contiguous")
    return ActionTimeline(fps, segments)
