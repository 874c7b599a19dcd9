"""Deterministic synthetic scenarios with exactly known ground truth.

A scenario scripts an excavator through dig / swing / dump (/ idle)
phases whose durations are drawn once per phase from uniform ranges.
Keypoint paths are piecewise linear: the carbody keypoints stand still
during dig, dump, and idle, and translate at a constant speed during
swings; the bucket-side keypoints sit inside the matching polygon during
dig and dump (oscillating so the arm is never mistaken for idle) and
travel between the two areas during swings.  Ground truth carries the
per-frame states an ideal-perception replay of the activity rules
produces, the cycles that replay realizes, the machine roster, and the
frames on which the safety rule must alert.

Each frame's pose is built once, as the tuple of ten ``(x, y, 1.0)``
triples in KEYPOINT_NAMES order that the stream carries: the truth
replay steps on it, and the stream writer serializes it as it is when
there is no keypoint noise.  A position repeated within a few frames
reuses the pose built for it (see _geometry).

Randomness comes from ``random.Random`` (the Mersenne Twister documented
by the standard library), so one seed yields one byte-identical stream
on every platform.  Each frame draws, in this order: the excavator's
drop; if kept, its keypoint noise, an x then a y draw for each of
body1-body4, bucket_joint, arm_joint, bucket_end1, bucket_end2,
boom_cylinder and boom_base, then its bbox x and y noise; then a drop
for each configured machine present.  A draw whose rate or sigma is
zero is skipped.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Sequence

from . import forking
from .activity import ActionClassifier, ActionState, ActivityConfig, build_timeline
from .config import CODECS, expect_keys, fields_from_dict, load_json_config
from .errors import ConfigError
from .geometry import Point, Region, RegionLabel, locate_point, polygon_centroid, validate_regions
from .productivity import CycleRecord, detect_cycles
from .safety import check_collision
from .streams import (
    KEYPOINT_NAMES,
    BBox,
    Detection,
    MachineClass,
    PerceptionFrame,
    Pose,
    StreamHeader,
    bbox_bottom_center,
    check_fields,
    check_number,
    number_field,
    serialize_stream,
    write_stream,
)

DEFAULT_REGIONS = (
    Region(RegionLabel.DIGGING, ((150, 300), (650, 280), (700, 700), (180, 740))),
    Region(RegionLabel.DUMPING, ((1150, 300), (1700, 320), (1680, 760), (1120, 700))),
)

# Orientation offsets of the carbody while facing each working area.
_FACING_DIG = (0.0, 0.0)
_FACING_DUMP = (30.0, -20.0)
# Bucket oscillation waveform while digging or dumping: one arm_step of
# vertical travel per frame, so the arm never reads as still.
_OSC_WAVE = (0, 1, 2, 1, 0, -1, -2, -1)

# The most frames one scenario may generate: 10 million, about 4.6 days
# at 25 fps.  A larger script would run simulate for hours.
MAX_FRAMES = 10_000_000

_EXCAVATOR_SCORE = 0.97
_MACHINE_SCORE = 0.9
_BBOX_MARGIN = 30.0
# The most positions _geometry remembers: two oscillation periods.
_GEOMETRY_MEMO = 16
# The keypoint-noise draw order of the module docstring, as pose indices.
_NOISE_ORDER = tuple(map(KEYPOINT_NAMES.index, (
    "body1", "body2", "body3", "body4", "bucket_joint", "arm_joint",
    "bucket_end1", "bucket_end2", "boom_cylinder", "boom_base",
)))


@dataclass(frozen=True)
class DurationRange:
    """Uniform duration range in seconds; min == max pins the value."""

    min_s: float = number_field(interval="(0, inf)")
    max_s: float = number_field(interval="(0, inf)")

    def __post_init__(self):
        check_fields(self)
        if self.min_s > self.max_s:
            raise ValueError("duration range needs min_s <= max_s")
        object.__setattr__(self, "min_s", float(self.min_s))
        object.__setattr__(self, "max_s", float(self.max_s))

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.min_s, self.max_s)


@dataclass(frozen=True)
class NoiseModel:
    keypoint_sigma: float = number_field(0.0, "[0, inf)")
    drop_prob: float = number_field(0.0, "[0, 1)")
    bbox_sigma: float = number_field(0.0, "[0, inf)")

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class MachineSpec:
    """A secondary machine parked at a fixed box for a frame range."""

    cls: MachineClass
    bbox: BBox
    entry_frame: int = number_field(0, "[0, inf)", integer=True)
    # Inclusive; None runs to the end.
    exit_frame: int | None = number_field(None, "[0, inf)", integer=True)

    def __post_init__(self):
        object.__setattr__(self, "cls", MachineClass(self.cls))
        check_fields(self)
        if self.exit_frame is not None and self.exit_frame < self.entry_frame:
            raise ValueError("exit_frame must not precede entry_frame")
        x, y, w, h = self.bbox
        for i, value in enumerate((x, y, w, h)):
            check_number(f"machine bbox[{i}]", value, "[0, inf)" if i < 2 else "(0, inf)")
        object.__setattr__(self, "bbox", (float(x), float(y), float(w), float(h)))

    def present(self, frame: int) -> bool:
        if frame < self.entry_frame:
            return False
        return self.exit_frame is None or frame <= self.exit_frame


def machine_to_dict(spec: MachineSpec) -> dict:
    return {
        "class": spec.cls.value,
        "bbox": list(spec.bbox),
        "entry_frame": spec.entry_frame,
        "exit_frame": spec.exit_frame,
    }


def machine_from_dict(obj: dict) -> MachineSpec:
    keys = {"class", "bbox", "entry_frame", "exit_frame"}
    expect_keys(obj, keys, {"class", "bbox"}, "scenario machine")
    return MachineSpec(obj["class"], obj["bbox"], obj.get("entry_frame", 0), obj.get("exit_frame"))


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = number_field(0, integer=True)
    fps: float = number_field(25.0, "(0, inf)")
    duration_s: float = number_field(120.0, "(0, inf)")
    width: int = number_field(1920, "[200, inf)", integer=True)
    height: int = number_field(1080, "[200, inf)", integer=True)
    source: str = "sim"
    regions: tuple[Region, ...] = DEFAULT_REGIONS
    dig: DurationRange = DurationRange(6.0, 12.0)
    swing: DurationRange = DurationRange(2.4, 5.0)
    dump: DurationRange = DurationRange(5.0, 10.0)
    idle: DurationRange | None = None
    idle_prob: float = number_field(0.0, "[0, 1]")
    cycle_count: int | None = number_field(None, "[1, inf)", integer=True)  # overrides duration_s
    swing_speed: float = number_field(12.0, "(0, inf)")  # carbody px/frame during swings
    arm_step: float = number_field(8.0, "(0, inf)")  # bucket px/frame while digging or dumping
    machines: tuple[MachineSpec, ...] = ()
    noise: NoiseModel = NoiseModel()
    activity: ActivityConfig = field(default_factory=ActivityConfig)

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.source, str):
            raise ValueError("source must be a string")
        if self.idle_prob > 0 and self.idle is None:
            raise ValueError("idle_prob needs an idle duration range")
        # Every phase emits a frame, so MAX_FRAMES also bounds the draws.
        for name in ("dig", "swing", "dump", "idle"):
            phase = getattr(self, name)
            if phase is not None and phase.min_s * self.fps < 1:
                raise ValueError(
                    f"phase {name} min_s {phase.min_s!r} is shorter than one frame"
                    f" at fps {self.fps!r}"
                )
        regions = tuple(self.regions)
        object.__setattr__(self, "regions", regions)
        validate_regions(regions)
        labels = [r.label for r in regions]
        if RegionLabel.DIGGING not in labels or RegionLabel.DUMPING not in labels:
            raise ValueError("scenario needs one digging and one dumping region")
        machines = tuple(self.machines)
        object.__setattr__(self, "machines", machines)
        for spec in machines:
            x, y, w, h = spec.bbox
            if x + w > self.width or y + h > self.height:
                raise ValueError("machine bbox exceeds the image extent")


@dataclass
class GroundTruth:
    """What an ideal analyzer must recover from the generated stream."""

    fps: float
    runs: list[tuple[ActionState, int, int]]  # ideal-perception replay (state, first, last)
    phases: list[tuple[ActionState, int, int]]  # scripted (state, first, last)
    cycles: list[CycleRecord]  # dig-start pairs the replay realizes
    machines: tuple[MachineSpec, ...]  # secondary roster (excavator implied)
    alert_frames: list[int]

    def to_dict(self) -> dict:
        states: list[str] = []
        for state, first, last in self.runs:
            states += [state.value] * (last - first + 1)
        return {
            "fps": self.fps,
            "frames": len(states),
            "states": states,
            "phases": [[s.value, a, b] for s, a, b in self.phases],
            "cycles": [
                {
                    "start_frame": c.start_frame,
                    "end_frame": c.end_frame,
                    "duration_s": c.duration_s,
                }
                for c in self.cycles
            ],
            "machines": [machine_to_dict(m) for m in self.machines],
            "alert_frames": self.alert_frames,
        }


def _frame_of(t_s: float, fps: float) -> int:
    # Half-up rounding keeps phase boundaries stable and makes scripted
    # spans sum exactly (banker's rounding would drift on .5 boundaries).
    return int(t_s * fps + 0.5)


def _check_frame_count(seconds: float, fps: float, at_least: bool = False) -> None:
    """Raise ConfigError if ``seconds`` of stream pass MAX_FRAMES frames.

    Counts as _frame_of does, but compares before truncating, so no
    product too large for int() can overflow.
    """
    frames = seconds * fps + 0.5
    if frames >= MAX_FRAMES + 1:
        count = str(int(frames)) if math.isfinite(frames) else "over 1e308"
        raise ConfigError(
            f"invalid scenario config: the stream would be {'at least ' * at_least}"
            f"{count} frames, more than the {MAX_FRAMES} a scenario may have"
        )


def _build_script(config: ScenarioConfig, rng: random.Random) -> list[tuple[ActionState, float]]:
    """Phase list as (state, duration_s); starts with a lead-in swing.

    A script longer than MAX_FRAMES frames is a ConfigError, raised as
    soon as the phases drawn so far pass it.  A ``cycle_count`` script
    whose every phase at its ``min_s`` would pass it by more than one
    cycle fails before any draw; the margin leaves summation rounding
    no say, so no script the draws would allow is refused.
    """
    if config.cycle_count is not None:
        shortest_cycle = config.dig.min_s + 2 * config.swing.min_s + config.dump.min_s
        _check_frame_count(
            config.swing.min_s
            + config.dig.min_s
            + (config.cycle_count - 1) * shortest_cycle,
            config.fps,
            at_least=True,
        )
    script: list[tuple[ActionState, float]] = [
        (ActionState.SWING_FOR_DIGGING, config.swing.sample(rng))
    ]
    total = script[0][1]  # summed in _phase_frames' order, so the counts agree
    if config.cycle_count is not None:
        for _ in range(config.cycle_count):
            script.append((ActionState.DIGGING, config.dig.sample(rng)))
            script.append((ActionState.SWING_AFTER_DIGGING, config.swing.sample(rng)))
            script.append((ActionState.DUMPING, config.dump.sample(rng)))
            script.append((ActionState.SWING_FOR_DIGGING, config.swing.sample(rng)))
            for _, duration in script[-4:]:
                total += duration
            _check_frame_count(total, config.fps, at_least=True)
        script.append((ActionState.DIGGING, config.dig.sample(rng)))
        _check_frame_count(total + script[-1][1], config.fps)
        return script
    # The stream is cut at duration_s, so it is exactly that long.
    _check_frame_count(config.duration_s, config.fps)
    while total < config.duration_s:
        for state, rng_range in (
            (ActionState.DIGGING, config.dig),
            (ActionState.SWING_AFTER_DIGGING, config.swing),
            (ActionState.DUMPING, config.dump),
        ):
            script.append((state, rng_range.sample(rng)))
            total += script[-1][1]
        if config.idle is not None and rng.random() < config.idle_prob:
            script.append((ActionState.IDLE, config.idle.sample(rng)))
            total += script[-1][1]
        script.append((ActionState.SWING_FOR_DIGGING, config.swing.sample(rng)))
        total += script[-1][1]
    return script


def _phase_frames(
    script: Sequence[tuple[ActionState, float]], config: ScenarioConfig
) -> tuple[list[tuple[ActionState, int, int]], int, list[int]]:
    """Map the script to inclusive frame ranges, truncating at duration.

    Also returns each phase's full scripted frame count, which exceeds
    its emitted length only for a phase cut off by the stream end;
    motion is paced by the full count so a truncated swing stops mid-arc
    instead of compressing the whole arc into the remaining frames.
    """
    limit = (
        None
        if config.cycle_count is not None
        else _frame_of(config.duration_s, config.fps)
    )
    phases: list[tuple[ActionState, int, int]] = []
    scripted_frames: list[int] = []
    elapsed = 0.0
    start = 0
    for state, duration in script:
        elapsed += duration
        end = _frame_of(elapsed, config.fps)
        full_end = end
        if limit is not None:
            end = min(end, limit)
        if end > start:
            phases.append((state, start, end - 1))
            scripted_frames.append(full_end - start)
        start = end
        if limit is not None and end >= limit:
            break
    return phases, start, scripted_frames


def _overshoot_path(origin: Point, target: Point, length: float):
    """Constant-speed path origin -> beyond target -> target.

    The walk covers exactly ``length``; the turnaround sits past the
    target so the fold lands mid-swing, far from the stopping frame.
    """
    dx = target[0] - origin[0]
    dy = target[1] - origin[1]
    d = math.hypot(dx, dy)
    if d < 1e-9:
        ux, uy = 1.0, 0.0  # degenerate: overshoot along x
        d = 0.0
    else:
        ux, uy = dx / d, dy / d
    out = (length + d) / 2.0  # forward leg, then (length - d) / 2 back

    def position(s: float) -> Point:
        along = s if s <= out else 2.0 * out - s
        return (origin[0] + ux * along, origin[1] + uy * along)

    return position


def _excavator_path(
    phases: Sequence[tuple[ActionState, int, int]],
    scripted_frames: Sequence[int],
    config: ScenarioConfig,
) -> Iterator[tuple[Point, Point]]:
    """Pre-noise carbody offset and probe position, frame by frame."""
    dig_anchor, dump_anchor = _anchors(config)
    offset = _FACING_DUMP  # the lead-in swing heads for the dig area
    probe = dump_anchor
    last_probe: Point | None = None
    arm_step = config.arm_step
    for (state, first, last), n_scripted in zip(phases, scripted_frames):
        # n_scripted is the full scripted length; larger than n only for
        # a phase the stream end cuts short, so motion keeps its pace.
        n = last - first + 1
        if state in (ActionState.DIGGING, ActionState.DUMPING):
            anchor = dig_anchor if state is ActionState.DIGGING else dump_anchor
            for k in range(n):
                last_probe = (anchor[0], anchor[1] + arm_step * _OSC_WAVE[k % 8])
                yield offset, last_probe
            probe = anchor
        elif state is ActionState.IDLE:
            frozen = probe if last_probe is None else last_probe
            for _ in range(n):
                yield offset, frozen
            last_probe = frozen
        else:
            if state is ActionState.SWING_FOR_DIGGING:
                target_offset, target_probe = _FACING_DIG, dig_anchor
            else:
                target_offset, target_probe = _FACING_DUMP, dump_anchor
            path = _overshoot_path(
                offset, target_offset, config.swing_speed * n_scripted
            )
            last_offset = offset
            for k in range(n):
                last_offset = path(config.swing_speed * (k + 1))
                t = (k + 1) / n_scripted
                last_probe = (
                    probe[0] + (target_probe[0] - probe[0]) * t,
                    probe[1] + (target_probe[1] - probe[1]) * t,
                )
                yield last_offset, last_probe
            offset = last_offset if n < n_scripted else target_offset
            probe = last_probe if n < n_scripted else target_probe


def _anchors(config: ScenarioConfig) -> tuple[Point, Point]:
    """The digging and dumping area centroids, where the bucket works."""
    dig = next(r for r in config.regions if r.label is RegionLabel.DIGGING)
    dump = next(r for r in config.regions if r.label is RegionLabel.DUMPING)
    return polygon_centroid(dig.polygon), polygon_centroid(dump.polygon)


def _body_center(config: ScenarioConfig) -> Point:
    dig_anchor, dump_anchor = _anchors(config)
    mid_x = (dig_anchor[0] + dump_anchor[0]) / 2.0
    mid_y = (dig_anchor[1] + dump_anchor[1]) / 2.0
    return (
        min(max(mid_x, 150.0), config.width - 150.0),
        min(max(mid_y + 250.0, 150.0), config.height - 150.0),
    )


def _clamp_bbox(bbox: BBox, width: int, height: int) -> BBox:
    x, y, w, h = bbox
    x = min(max(x, 0.0), width - w)
    y = min(max(y, 0.0), height - h)
    return (x, y, w, h)


@dataclass(frozen=True)
class _Plan:
    """What a seed fixes before any frame is drawn."""

    phases: tuple[tuple[ActionState, int, int], ...]
    scripted_frames: tuple[int, ...]  # each phase's full scripted length
    n_frames: int
    rng_state: tuple  # the RNG right after the phase script was drawn


def _geometry(config: ScenarioConfig, plan: _Plan) -> Iterator[tuple[Point, Pose, BBox]]:
    """Per frame: the pre-noise probe, the true pose and the pose bbox.

    The pose is the stream's: the carbody corners around the body
    position, the arm-side keypoints around the probe.  The bbox spans
    it plus _BBOX_MARGIN, clamped to the image; each extreme is taken
    over the keypoints that can hold it, since adding a larger offset
    to the same float never gives a smaller sum.

    A position seen in the last few frames yields the pose and bbox
    built for it then: dig and dump probes cycle over 8 offsets, and
    idle frames are frozen.  At most _GEOMETRY_MEMO positions are kept.
    A -0.0 coordinate finds the entry of 0.0, which builds the same pose
    and bbox but not the same probe, so each frame yields its own probe.
    """
    center_x, center_y = _body_center(config)
    width, height = float(config.width), float(config.height)
    built: dict[tuple[Point, Point], tuple[Pose, BBox]] = {}
    for offset, probe in _excavator_path(plan.phases, plan.scripted_frames, config):
        seen = built.get((offset, probe))
        if seen is not None:
            yield probe, seen[0], seen[1]
            continue
        ox, oy = offset
        bx = center_x + ox
        by = center_y + oy
        px, py = probe
        left, right = bx - 60.0, bx + 60.0
        top, bottom = by - 45.0, by + 45.0
        end1_x, joint_x = px - 14.0, px + 20.0
        joint_y, end2_y = py - 14.0, py + 14.0
        cylinder_x, cylinder_y = bx + (px - bx) * 0.45, by + (py - by) * 0.45 - 30.0
        base_x, base_y = bx + (px - bx) * 0.15, by + (py - by) * 0.15 - 20.0
        pose = (
            (end1_x, py + 12.0, 1.0),
            (px + 12.0, end2_y, 1.0),
            (px + 0.0, py + 0.0, 1.0),  # + 0.0 turns a -0.0 probe into 0.0
            (joint_x, joint_y, 1.0),
            (cylinder_x, cylinder_y, 1.0),
            (base_x, base_y, 1.0),
            (left, top, 1.0),
            (right, top, 1.0),
            (right, bottom, 1.0),
            (left, bottom, 1.0),
        )
        x1 = max(0.0, min(left, end1_x, cylinder_x, base_x) - _BBOX_MARGIN)
        y1 = max(0.0, min(top, joint_y, cylinder_y, base_y) - _BBOX_MARGIN)
        x2 = min(width, max(right, joint_x, cylinder_x, base_x) + _BBOX_MARGIN)
        y2 = min(height, max(bottom, end2_y, cylinder_y, base_y) + _BBOX_MARGIN)
        bbox = (x1, y1, x2 - x1, y2 - y1)
        if len(built) >= _GEOMETRY_MEMO:
            built.clear()
        built[offset, probe] = pose, bbox
        yield probe, pose, bbox


def _truth_pass(
    config: ScenarioConfig, plan: _Plan, roster: tuple[MachineSpec, ...]
) -> tuple[list[tuple[str, int, int]], list[int]]:
    """The ideal-perception replay and the alert oracle, building no frame.

    Draws no randomness.  The alert oracle locates the excavator (track
    0) by its pre-noise probe, where the bucket joint sits, and each
    roster machine by its bbox bottom-center while present.  Returns the
    replay's ``(state value, first, last)`` runs and the alert frames:
    plain data that marshal can send.
    """
    regions, fps = config.regions, config.fps
    replay = ActionClassifier(regions, fps, config.activity)
    roster_locations = [locate_point(bbox_bottom_center(m.bbox), regions) for m in roster]
    alert_frames: list[int] = []
    for f, (probe, pose, bbox) in enumerate(_geometry(config, plan)):
        replay.step(f, pose, bbox)
        if roster:
            locations = {0: locate_point(probe, regions)}
            classes = {0: MachineClass.EXCAVATOR}
            for i, spec in enumerate(roster):
                if spec.present(f):
                    locations[i + 1] = roster_locations[i]
                    classes[i + 1] = spec.cls
            if check_collision(locations, classes, f, fps):
                alert_frames.append(f)
    runs = [(state.value, first, last) for state, first, last in replay.runs]
    return runs, alert_frames


def _ground_truth(
    config: ScenarioConfig,
    plan: _Plan,
    roster: tuple[MachineSpec, ...],
    runs: list[tuple[str, int, int]],
    alert_frames: list[int],
) -> GroundTruth:
    """The GroundTruth of a truth pass's runs and alert frames."""
    runs = [(ActionState(state), first, last) for state, first, last in runs]
    # Cycles follow the same ideal-perception convention as runs: a
    # scripted dig cut down to a stub by the stream end is below the
    # rule resolution and closes no cycle.
    cycles = detect_cycles(build_timeline(runs, config.fps, config.activity.min_segment_s))
    return GroundTruth(
        fps=config.fps,
        runs=runs,
        phases=list(plan.phases),
        cycles=cycles,
        machines=roster,
        alert_frames=alert_frames,
    )


class Simulation:
    """A generated stream bundled with its ground truth.

    No frame is stored.  ``frames`` is a sized view whose every iteration
    builds the frames afresh from the RNG state saved right after the
    phase script was drawn, so each pass yields the same frames and
    ``write`` holds one frame at a time.  ``truth`` comes only from its
    own pass (_truth_pass: the ideal-perception replay and the alert
    oracle), which draws no randomness and builds no frame; it runs on
    the first read of ``truth``, and its result is kept.  A pass over
    the frames never computes it.  ``write`` runs it in a forked child
    while this process writes the stream, where ``forking.can_fork()``;
    otherwise it runs after the stream is written, with the same bytes.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        header: StreamHeader,
        plan: _Plan,
        injected: tuple[MachineSpec, ...] = (),
    ):
        self.config = config
        self.header = header
        self._plan = plan
        self._injected = injected  # see inject_collision
        self._truth: GroundTruth | None = None

    @property
    def frames(self) -> SimulatedFrames:
        return SimulatedFrames(self)

    @property
    def truth(self) -> GroundTruth:
        if self._truth is None:
            roster = self._roster()
            runs, alert_frames = _truth_pass(self.config, self._plan, roster)
            self._truth = _ground_truth(self.config, self._plan, roster, runs, alert_frames)
        return self._truth

    def lines(self) -> Iterator[str]:
        return serialize_stream(self.header, self.frames)

    def write(self, stream_path, truth_path=None) -> None:
        if truth_path is None or self._truth is not None or not forking.can_fork():
            write_stream(stream_path, self.header, self.frames)
        else:
            config, plan, roster = self.config, self._plan, self._roster()
            with forking.start_child(lambda send: _truth_pass(config, plan, roster)) as child:
                write_stream(stream_path, self.header, self.frames)
                runs, alert_frames = child.wait()
            self._truth = _ground_truth(config, plan, roster, runs, alert_frames)
        if truth_path is not None:
            with open(truth_path, "w", encoding="utf-8") as fh:
                json.dump(self.truth.to_dict(), fh)
                fh.write("\n")

    def _roster(self) -> tuple[MachineSpec, ...]:
        """The configured machines, each with its exit frame, then the injected."""
        last_frame = self._plan.n_frames - 1
        return tuple(
            replace(m, exit_frame=last_frame if m.exit_frame is None else m.exit_frame)
            for m in self.config.machines
        ) + self._injected

    def _stream_pass(self) -> Iterator[PerceptionFrame]:
        """The stream pass: build each frame, drawing its noise, and yield it."""
        config = self.config
        noise = config.noise
        sigma = noise.keypoint_sigma
        rng = random.Random()
        rng.setstate(self._plan.rng_state)
        drop_prob = noise.drop_prob
        # Detections are built without the Python-level __new__ frame, as
        # the parser builds them; a machine's detection never changes, so
        # it is built once.
        machines = [
            (spec, tuple.__new__(Detection, (spec.cls, spec.bbox, _MACHINE_SCORE)))
            for spec in config.machines
        ]
        injected = [
            (spec, tuple.__new__(Detection, (spec.cls, spec.bbox, _MACHINE_SCORE)))
            for spec in self._injected
        ]
        for f, (_, pose, bbox) in enumerate(_geometry(config, self._plan)):
            if drop_prob > 0 and rng.random() < drop_prob:
                detections = poses = ()
            else:
                if sigma > 0:
                    noisy = list(pose)
                    for i in _NOISE_ORDER:
                        x, y, _ = pose[i]
                        noisy[i] = (x + rng.gauss(0.0, sigma), y + rng.gauss(0.0, sigma), 1.0)
                    pose = tuple(noisy)
                out_bbox = bbox
                if noise.bbox_sigma > 0:
                    out_bbox = _clamp_bbox(
                        (
                            bbox[0] + rng.gauss(0.0, noise.bbox_sigma),
                            bbox[1] + rng.gauss(0.0, noise.bbox_sigma),
                            bbox[2],
                            bbox[3],
                        ),
                        config.width,
                        config.height,
                    )
                detections = (
                    tuple.__new__(Detection, (MachineClass.EXCAVATOR, out_bbox, _EXCAVATOR_SCORE)),
                )
                poses = ((0, pose),)
            if machines or injected:
                present = list(detections)
                for spec, det in machines:
                    if spec.present(f) and not (drop_prob > 0 and rng.random() < drop_prob):
                        present.append(det)
                for spec, det in injected:
                    if spec.present(f):
                        present.append(det)
                detections = tuple(present)
            yield PerceptionFrame(f, detections, poses)


class SimulatedFrames:
    """A Simulation's frames: sized, and built afresh on each iteration."""

    __slots__ = ("_sim",)

    def __init__(self, sim: Simulation):
        self._sim = sim

    def __len__(self) -> int:
        return self._sim._plan.n_frames

    def __iter__(self) -> Iterator[PerceptionFrame]:
        return self._sim._stream_pass()


def generate(config: ScenarioConfig) -> Simulation:
    """Script a stream plus ground truth; same config -> same bytes.

    Only the phase script is drawn here; the frames and the truth come
    from passes over it (see Simulation).  A script longer than
    MAX_FRAMES frames is a ConfigError, raised while it is drawn.
    """
    rng = random.Random(config.seed)
    script = _build_script(config, rng)
    phases, n_frames, scripted_frames = _phase_frames(script, config)
    for spec in config.machines:
        if spec.entry_frame >= n_frames:
            raise ValueError("machine entry_frame is beyond the stream end")
    header = StreamHeader(config.fps, config.width, config.height, config.source)
    plan = _Plan(tuple(phases), tuple(scripted_frames), n_frames, rng.getstate())
    return Simulation(config, header, plan)


def inject_collision(
    sim: Simulation,
    first_frame: int,
    last_frame: int,
    cls: MachineClass | str,
    at: Point | None = None,
) -> Simulation:
    """Add a second machine's detections over a frame range.

    The machine parks with its bbox bottom-center at ``at`` (default:
    the digging-area centroid).  Its detection comes after the
    configured machines' and draws no randomness, so every other byte
    of the stream is unchanged.  Ground-truth alert frames are
    recomputed; states and cycles are the input's.  Returns a new
    Simulation; the input is not modified.
    """
    try:
        cls = MachineClass(cls)
    except ValueError:
        raise ValueError(f"unknown machine class {cls!r}") from None
    check_number("first_frame", first_frame, "[0, inf)", integer=True)
    check_number("last_frame", last_frame, "[0, inf)", integer=True)
    if not first_frame <= last_frame < len(sim.frames):
        raise ValueError("frame range outside the stream")
    config = sim.config
    x, y = _anchors(config)[0] if at is None else at
    check_number("at x", x)
    check_number("at y", y)
    w, h = (60.0, 160.0) if cls is MachineClass.HUMAN else (160.0, 120.0)
    bbox = _clamp_bbox((x - w / 2.0, y - h, w, h), config.width, config.height)
    spec = MachineSpec(cls, bbox, first_frame, last_frame)
    return Simulation(config, sim.header, sim._plan, sim._injected + (spec,))


def productivity_benchmark_config(seed: int = 0) -> ScenarioConfig:
    """The 40-cycle, 900 s reference scenario (41 digging phases).

    Phase periods are pinned at 8.0 + 3.2 + 8.1 + 3.2 = 22.5 s, so the
    40 cycle starts span exactly 900 s and the cycle rate is exactly
    160 per hour.
    """
    return ScenarioConfig(
        seed=seed,
        fps=25.0,
        duration_s=925.0,  # ignored: cycle_count drives the length
        cycle_count=40,
        dig=DurationRange(8.0, 8.0),
        swing=DurationRange(3.2, 3.2),
        dump=DurationRange(8.1, 8.1),
    )


# JSON key -> ScenarioConfig field, which is named after the key.
_SCENARIO_FIELDS = {
    path: path.rpartition(".")[2]
    for path in (
        "seed",
        "fps",
        "duration_s",
        "width",
        "height",
        "source",
        "regions",
        "phases.dig",
        "phases.swing",
        "phases.dump",
        "phases.idle",
        "idle_prob",
        "swing_speed",
        "arm_step",
        "machines",
        "noise",
        "activity",
        "cycle_count",
    )
}


def _noise_from_dict(obj: dict) -> NoiseModel:
    expect_keys(obj, {f.name for f in fields(NoiseModel)}, set(), "scenario noise")
    return NoiseModel(**obj)


_PHASE_CODEC = lambda pair: DurationRange(*pair)
_SCENARIO_CODECS = {
    **CODECS,
    "dig": _PHASE_CODEC,
    "swing": _PHASE_CODEC,
    "dump": _PHASE_CODEC,
    "idle": _PHASE_CODEC,
    "machines": lambda specs: tuple(map(machine_from_dict, specs)),
    "noise": _noise_from_dict,
}


def scenario_from_dict(obj: dict) -> tuple[ScenarioConfig, dict | None]:
    """Build a ScenarioConfig from JSON; returns (config, inject spec)."""
    kwargs = fields_from_dict(
        obj, _SCENARIO_FIELDS, _SCENARIO_CODECS, "scenario config", extra={"inject"}
    )
    inject = obj.get("inject")
    if inject is not None:
        expect_keys(
            inject,
            {"class", "first_frame", "last_frame", "at"},
            {"class", "first_frame", "last_frame"},
            "scenario inject",
        )
    try:
        return ScenarioConfig(**kwargs), inject
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid scenario config: {exc}") from None


def load_scenario(path) -> tuple[ScenarioConfig, dict | None]:
    return scenario_from_dict(load_json_config(path, "scenario config"))


def run_scenario(config: ScenarioConfig, inject: dict | None = None) -> Simulation:
    """Generate and optionally apply the inject spec from a config file."""
    try:
        sim = generate(config)
    except ValueError as exc:
        raise ConfigError(f"invalid scenario config: {exc}") from None
    if inject is not None:
        try:
            sim = inject_collision(
                sim, inject["first_frame"], inject["last_frame"], inject["class"], inject.get("at")
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid inject spec: {exc}") from None
    return sim
