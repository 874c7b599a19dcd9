"""Perception stream schema, parsing, serialization, and soft-NMS.

A stream is line-delimited JSON: one header object, then one object per
frame::

    {"fps": 25.0, "width": 1920, "height": 1080, "source": "cam-1"}
    {"index": 0,
     "detections": [{"class": "excavator", "bbox": [x, y, w, h], "score": 0.98}],
     "poses": [{"det": 0, "keypoints": {"bucket_end1": [x, y, conf], ...}}]}

Boxes are pixel (x, y, w, h) with the origin at the top left.  A pose
carries all ten excavator keypoints and points at the detection it
belongs to by index.  Strict parsing rejects any deviation (unknown or
missing fields, unknown classes, out-of-range values, non-monotone frame
indices) with the offending line number; lenient parsing skips and
counts bad frame lines instead.

In memory a pose is a plain tuple of ten (x, y, conf) float triples in
KEYPOINT_NAMES order, the layout of COCO keypoint annotations.  This
module owns that layout (ARM, BODY and the probe-candidate positions),
and the parser is the only place a pose is checked.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import StreamFormatError
from .geometry import BBox, bbox_iou

__all__ = [
    "ARM",
    "ARM_JOINT",
    "BODY",
    "BUCKET_END1",
    "BUCKET_END2",
    "BUCKET_JOINT",
    "KEYPOINT_NAMES",
    "Detection",
    "MachineClass",
    "PerceptionFrame",
    "Pose",
    "StreamHeader",
    "StreamParser",
    "dedupe_frame",
    "parse_stream",
    "read_stream",
    "serialize_frame",
    "serialize_header",
    "serialize_stream",
    "soft_nms_indexed",
    "write_stream",
]


class MachineClass(str, Enum):
    """Object classes the detector reports."""

    EXCAVATOR = "excavator"
    LOADER = "loader"
    HUMAN = "human"
    TRUCK = "truck"
    CRANE = "crane"
    CONE = "cone"
    HOOK = "hook"
    CAR = "car"
    SHOVEL = "shovel"


KEYPOINT_NAMES = (
    "bucket_end1",
    "bucket_end2",
    "bucket_joint",
    "arm_joint",
    "boom_cylinder",
    "boom_base",
    "body1",
    "body2",
    "body3",
    "body4",
)
# Positions in a pose.  ARM holds the bucket ends and the two arm-side
# joints (the probe candidates), BODY the four carbody corners.
ARM = slice(0, 4)
BODY = slice(6, 10)
BUCKET_END1 = KEYPOINT_NAMES.index("bucket_end1")
BUCKET_END2 = KEYPOINT_NAMES.index("bucket_end2")
BUCKET_JOINT = KEYPOINT_NAMES.index("bucket_joint")
ARM_JOINT = KEYPOINT_NAMES.index("arm_joint")

# An excavator pose: ten (x, y, conf) triples in KEYPOINT_NAMES order.
Pose = tuple[tuple[float, float, float], ...]

_KEYPOINT_SET = frozenset(KEYPOINT_NAMES)
_CLASS_VALUES = {c.value: c for c in MachineClass}


class Detection(NamedTuple):
    """One detector box; an immutable tuple (cls, bbox, score)."""

    cls: MachineClass
    bbox: BBox
    score: float


@dataclass(frozen=True, slots=True)
class PerceptionFrame:
    """One frame of detector and pose-estimator output."""

    index: int
    detections: tuple[Detection, ...]
    poses: tuple[tuple[int, Pose], ...]


@dataclass(frozen=True)
class StreamHeader:
    fps: float
    width: int
    height: int
    source: str


def _is_number(v) -> bool:
    # Exact type checks: JSON values are always plain int/float/bool, and
    # bool must not pass as a number.  JSON integers have no size limit,
    # so an int must also fit in a float.
    t = type(v)
    if t is float:
        return math.isfinite(v)
    if t is not int:
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _is_int(v) -> bool:
    return type(v) is int


_HEADER_KEYS = frozenset({"fps", "width", "height", "source"})
_FRAME_KEYS = frozenset({"index", "detections", "poses"})
_DETECTION_KEYS = frozenset({"class", "bbox", "score"})
_POSE_KEYS = frozenset({"det", "keypoints"})


def _require_keys(obj: dict, keys: frozenset[str], what: str, line_no: int) -> None:
    if isinstance(obj, dict) and obj.keys() == keys:
        return
    if not isinstance(obj, dict):
        raise StreamFormatError(f"{what} must be a JSON object", line_no)
    missing = keys - obj.keys()
    extra = obj.keys() - keys
    if missing:
        raise StreamFormatError(f"{what} missing field(s): {sorted(missing)}", line_no)
    if extra:
        raise StreamFormatError(f"{what} has unknown field(s): {sorted(extra)}", line_no)


def _parse_header(obj, line_no: int) -> StreamHeader:
    _require_keys(obj, _HEADER_KEYS, "header", line_no)
    if not _is_number(obj["fps"]) or obj["fps"] <= 0:
        raise StreamFormatError("header fps must be a positive number", line_no)
    for key in ("width", "height"):
        if not _is_int(obj[key]) or obj[key] <= 0:
            raise StreamFormatError(f"header {key} must be a positive integer", line_no)
    if not isinstance(obj["source"], str):
        raise StreamFormatError("header source must be a string", line_no)
    return StreamHeader(float(obj["fps"]), obj["width"], obj["height"], obj["source"])


def _parse_detection(obj, header: StreamHeader, line_no: int) -> Detection:
    _require_keys(obj, _DETECTION_KEYS, "detection", line_no)
    name = obj["class"]
    cls = _CLASS_VALUES.get(name) if type(name) is str else None
    if cls is None:
        raise StreamFormatError(f"unknown class {name!r}", line_no)
    bbox = obj["bbox"]
    if type(bbox) is not list or len(bbox) != 4:
        raise StreamFormatError("bbox must be [x, y, w, h] numbers", line_no)
    x, y, w, h = bbox
    isfinite = math.isfinite
    # _is_number on each value, with all-float boxes (the usual case)
    # tested inline.
    if float is type(x) is type(y) is type(w) is type(h):
        valid = isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h)
    else:
        valid = _is_number(x) and _is_number(y) and _is_number(w) and _is_number(h)
        if valid:
            x, y, w, h = float(x), float(y), float(w), float(h)
    if not valid:
        raise StreamFormatError("bbox must be [x, y, w, h] numbers", line_no)
    if w <= 0 or h <= 0:
        raise StreamFormatError("bbox width and height must be positive", line_no)
    if x < 0 or y < 0 or x + w > header.width or y + h > header.height:
        raise StreamFormatError("bbox exceeds the image extent", line_no)
    score = obj["score"]
    if type(score) is not float and _is_number(score):
        score = float(score)
    # The range test also rejects nan and inf.
    if type(score) is not float or not 0.0 <= score <= 1.0:
        raise StreamFormatError("score must be a number in [0, 1]", line_no)
    # Detection(cls, bbox, score) without the Python-level __new__ frame.
    return tuple.__new__(Detection, (cls, (x, y, w, h), score))


def _parse_pose(obj, detections: Sequence[Detection], line_no: int) -> tuple[int, Pose]:
    """Check one pose object; no other code checks a pose."""
    _require_keys(obj, _POSE_KEYS, "pose", line_no)
    det = obj["det"]
    if not _is_int(det) or not 0 <= det < len(detections):
        raise StreamFormatError(f"pose det index {det!r} out of range", line_no)
    if detections[det].cls is not MachineClass.EXCAVATOR:
        raise StreamFormatError("pose attached to a non-excavator detection", line_no)
    kps = obj["keypoints"]
    if not isinstance(kps, dict):
        raise StreamFormatError("pose keypoints must be an object", line_no)
    names = kps.keys()
    if names != _KEYPOINT_SET:
        missing = sorted(_KEYPOINT_SET - names)
        extra = sorted(names - _KEYPOINT_SET)
        raise StreamFormatError(
            f"pose keypoints mismatch: missing={missing} extra={extra}", line_no
        )
    isfinite = math.isfinite
    pose = []
    for name in KEYPOINT_NAMES:
        triple = kps[name]
        if type(triple) is not list or len(triple) != 3:
            raise StreamFormatError(f"keypoint {name!r} must be [x, y, conf]", line_no)
        x, y, conf = triple
        # _is_number on each value, with all-float triples (the usual
        # case) tested inline.
        if float is type(x) is type(y) is type(conf):
            valid = isfinite(x) and isfinite(y) and isfinite(conf)
        else:
            valid = _is_number(x) and _is_number(y) and _is_number(conf)
            if valid:
                x, y, conf = float(x), float(y), float(conf)
        if not valid:
            raise StreamFormatError(f"keypoint {name!r} must be [x, y, conf]", line_no)
        if not 0.0 <= conf <= 1.0:
            raise StreamFormatError(
                f"keypoint {name!r} confidence out of [0, 1]", line_no
            )
        pose.append((x, y, conf))
    return det, tuple(pose)


def _parse_frame(obj, header: StreamHeader, prev_index: int, line_no: int) -> PerceptionFrame:
    _require_keys(obj, _FRAME_KEYS, "frame", line_no)
    index = obj["index"]
    if not _is_int(index) or index < 0:
        raise StreamFormatError("frame index must be a non-negative integer", line_no)
    if index <= prev_index:
        raise StreamFormatError(
            f"frame index {index} not increasing (previous {prev_index})", line_no
        )
    if not isinstance(obj["detections"], list) or not isinstance(obj["poses"], list):
        raise StreamFormatError("detections and poses must be arrays", line_no)
    detections = tuple([_parse_detection(d, header, line_no) for d in obj["detections"]])
    poses = tuple([_parse_pose(p, detections, line_no) for p in obj["poses"]])
    return PerceptionFrame(index, detections, poses)


class StreamParser:
    """Iterates PerceptionFrames out of header-prefixed JSON lines.

    The header is parsed eagerly, frames lazily.  In lenient mode
    malformed frame lines are skipped and tallied in ``skipped``; the
    header must be valid in either mode.  Blank lines are ignored.
    """

    def __init__(self, lines: Iterable[str | bytes], strict: bool = True):
        self.strict = strict
        self.skipped = 0
        self._lines = iter(lines)
        self._line_no = 0
        self._prev_index = -1
        first = self._next_line()
        if first is None:
            raise StreamFormatError("empty input, header line missing", 1)
        self.header = _parse_header(self._loads(first), self._line_no)

    def _next_line(self) -> str | None:
        for raw in self._lines:
            self._line_no += 1
            if isinstance(raw, bytes):
                try:
                    raw = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise StreamFormatError(f"invalid UTF-8: {exc}", self._line_no)
            line = raw.strip()
            if line:
                return line
        return None

    def _loads(self, line: str):
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise StreamFormatError(f"invalid JSON: {exc.msg}", self._line_no)

    def __iter__(self) -> Iterator[PerceptionFrame]:
        while True:
            try:
                # Inside the try: an undecodable line is a bad frame line.
                line = self._next_line()
                if line is None:
                    return
                frame = _parse_frame(
                    self._loads(line), self.header, self._prev_index, self._line_no
                )
            except StreamFormatError:
                if self.strict:
                    raise
                self.skipped += 1
                continue
            self._prev_index = frame.index
            yield frame


def parse_stream(lines: Iterable[str | bytes], strict: bool = True) -> StreamParser:
    """Wrap raw lines in a parser exposing ``.header`` and frame iteration."""
    return StreamParser(lines, strict=strict)


def read_stream(
    path, strict: bool = True
) -> tuple[StreamHeader, list[PerceptionFrame], int]:
    """Parse a whole stream file; returns (header, frames, skipped lines)."""
    with open(path, "rb") as fh:
        parser = parse_stream(fh, strict=strict)
        frames = list(parser)
    return parser.header, frames, parser.skipped


def serialize_header(header: StreamHeader) -> str:
    return json.dumps(
        {
            "fps": float(header.fps),
            "width": header.width,
            "height": header.height,
            "source": header.source,
        },
        separators=(",", ":"),
    )


# Bound on the keypoint texts one stream remembers; see serialize_frame.
_KEYPOINT_TEXTS_LIMIT = 4096
# Each slot's '"name":' key, after a comma from the second slot on.
_KEYPOINT_KEYS = tuple(
    f'{"," if i else ""}"{name}":' for i, name in enumerate(KEYPOINT_NAMES)
)


def _keypoints_json(pose: Pose, texts: dict[tuple, str] | None) -> str:
    fields = []
    for key, kp in zip(_KEYPOINT_KEYS, pose):
        x, y, conf = kp
        # Only all-float triples are remembered, since 1 == 1.0 prints
        # differently, and none with a zero, since 0.0 == -0.0 does too.
        if texts is not None and float is type(x) is type(y) is type(conf):
            text = texts.get(kp)
            if text is None:
                text = f"[{x!r},{y!r},{conf!r}]"
                if x and y and conf:
                    if len(texts) >= _KEYPOINT_TEXTS_LIMIT:
                        texts.clear()
                    texts[kp] = text
        else:
            text = f"[{x!r},{y!r},{conf!r}]"
        fields.append(key)
        fields.append(text)
    return "".join(fields)


def serialize_frame(
    frame: PerceptionFrame, keypoint_texts: dict[tuple, str] | None = None
) -> str:
    """Canonical single-line JSON; keypoints in declaration order.

    Built by hand: every field is a fixed name, an enum value, or a
    finite number, and float repr round-trips exactly, so this matches
    json.dumps output while skipping its per-frame overhead.

    Float repr is most of that cost, and a stream repeats few distinct
    keypoints (the 22,780-frame benchmark scenario has 2,626).  Given a
    dict, kept for one stream, the keypoint texts already written are
    looked up there instead of formatted again; the output is the same.
    """
    parts = [f'{{"index":{frame.index},"detections":[']
    for i, det in enumerate(frame.detections):
        x, y, w, h = det.bbox
        parts.append(
            f'{"," if i else ""}{{"class":"{det.cls.value}",'
            f'"bbox":[{x!r},{y!r},{w!r},{h!r}],"score":{det.score!r}}}'
        )
    parts.append('],"poses":[')
    for i, (det_idx, pose) in enumerate(frame.poses):
        inner = _keypoints_json(pose, keypoint_texts)
        parts.append(f'{"," if i else ""}{{"det":{det_idx},"keypoints":{{{inner}}}}}')
    parts.append("]}")
    return "".join(parts)


def serialize_stream(
    header: StreamHeader, frames: Iterable[PerceptionFrame]
) -> Iterator[str]:
    yield serialize_header(header)
    keypoint_texts: dict[tuple, str] = {}
    for frame in frames:
        yield serialize_frame(frame, keypoint_texts)


def write_stream(path, header: StreamHeader, frames: Iterable[PerceptionFrame]) -> int:
    """Write a stream file; returns the number of frame lines written."""
    count = -1  # the header line is not a frame
    with open(path, "w", encoding="utf-8") as fh:
        for line in serialize_stream(header, frames):
            fh.write(line + "\n")
            count += 1
    return count


_row_score = operator.itemgetter(2)


def soft_nms_indexed(
    detections: Sequence[Detection],
    iou_threshold: float = 0.3,
    decay: float = 0.5,
    score_floor: float = 0.001,
) -> list[tuple[int, Detection]]:
    """Gaussian soft-NMS keeping original indices, applied per class.

    Repeatedly promotes the highest-scoring surviving detection, then
    decays the score of every same-class box overlapping it at or above
    iou_threshold by exp(-iou**2 / decay), where decay is the Gaussian
    sigma.  Boxes falling below score_floor are dropped.  Returns (original index, detection with
    decayed score) sorted by decayed score descending; ties keep input
    order.  Classes never suppress each other.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in [0, 1]")
    if decay <= 0:
        raise ValueError("decay must be positive")
    if not 0.0 <= score_floor <= 1.0:
        raise ValueError("score_floor must be in [0, 1]")
    by_class: dict[MachineClass, list[list]] = {}
    for idx, det in enumerate(detections):
        if not 0.0 <= det.score <= 1.0:
            raise ValueError("detection score out of [0, 1]")
        by_class.setdefault(det.cls, []).append([idx, det, det.score])
    kept: list[tuple[int, Detection]] = []
    for pool in by_class.values():
        if len(pool) == 1:
            # A lone box is never scored against another, so its score
            # never decays.
            idx, det, score = pool[0]
            if score >= score_floor:
                kept.append((idx, det))
            continue
        pool = [row for row in pool if row[2] >= score_floor]
        while pool:
            # The pool stays in index order, so max() breaks score ties
            # toward the earliest detection.
            best = max(pool, key=_row_score)
            pool.remove(best)
            idx, det, score = best
            if score != det.score:
                det = tuple.__new__(Detection, (det.cls, det.bbox, score))
            kept.append((idx, det))
            survivors = []
            for row in pool:
                iou = bbox_iou(det.bbox, row[1].bbox)
                if iou >= iou_threshold:
                    row[2] *= math.exp(-(iou * iou) / decay)
                if row[2] >= score_floor:
                    survivors.append(row)
            pool = survivors
    if len(kept) > 1:
        kept.sort(key=lambda item: (-item[1].score, item[0]))
    return kept


def dedupe_frame(
    frame: PerceptionFrame,
    iou_threshold: float = 0.3,
    decay: float = 0.5,
    score_floor: float = 0.001,
) -> PerceptionFrame:
    """Apply soft-NMS to a frame, remapping pose references to survivors.

    Poses whose detection was suppressed are dropped with it.  A frame
    whose every detection survives unchanged and in input order is
    returned as it is.
    """
    detections = frame.detections
    kept = soft_nms_indexed(detections, iou_threshold, decay, score_floor)
    if len(kept) == len(detections) and all(
        orig == i and det is detections[i] for i, (orig, det) in enumerate(kept)
    ):
        return frame
    remap = {orig: new for new, (orig, _) in enumerate(kept)}
    poses = tuple(
        [(remap[det_idx], pose) for det_idx, pose in frame.poses if det_idx in remap]
    )
    return PerceptionFrame(frame.index, tuple([det for _, det in kept]), poses)
