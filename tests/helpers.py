"""Shared test fixtures: pose/stream builders and independent oracles.

The oracles re-derive each metric with deliberately naive structures
(nested loops, per-recall rescans, pool-based suppression) so the
package implementations are checked against code that shares nothing
with them beyond the problem statement.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import asdict
from pathlib import Path

from sitewatch import config, simulator
from sitewatch.activity import ActionState, ActivityConfig, step_state
from sitewatch.config import SiteConfig
from sitewatch.errors import StreamFormatError
from sitewatch.geometry import Region, RegionLabel, classify_location
from sitewatch.productivity import CycleRecord
from sitewatch.simulator import (
    DurationRange,
    GroundTruth,
    MachineSpec,
    NoiseModel,
    ScenarioConfig,
    machine_from_dict,
    machine_to_dict,
)
from sitewatch.streams import (
    ARM,
    BODY,
    KEYPOINT_NAMES,
    Detection,
    MachineClass,
    PerceptionFrame,
    Pose,
    StreamHeader,
    StreamParser,
    _parse_frame,
)

# Axis-aligned squares keep containment reasoning trivial in unit tests.
DIG_SQUARE = Region(
    RegionLabel.DIGGING, ((100.0, 100.0), (300.0, 100.0), (300.0, 300.0), (100.0, 300.0))
)
DUMP_SQUARE = Region(
    RegionLabel.DUMPING, ((500.0, 100.0), (700.0, 100.0), (700.0, 300.0), (500.0, 300.0))
)
REGIONS = (DIG_SQUARE, DUMP_SQUARE)

DIG_CENTER = (200.0, 200.0)
DUMP_CENTER = (600.0, 200.0)
FAR_AWAY = (1200.0, 900.0)

# Keypoint offsets around the arm probe position and the carbody center.
_ARM_LAYOUT = {
    "bucket_joint": (0.0, 0.0),
    "arm_joint": (18.0, -12.0),
    "bucket_end1": (-12.0, 10.0),
    "bucket_end2": (12.0, 10.0),
    "boom_cylinder": (45.0, -30.0),
    "boom_base": (70.0, -45.0),
}
_BODY_LAYOUT = {
    "body1": (-40.0, -25.0),
    "body2": (40.0, -25.0),
    "body3": (40.0, 25.0),
    "body4": (-40.0, 25.0),
}


def readme_section(title: str) -> str:
    """The text of README.md's ``## title`` section."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def pose_from(triples: dict) -> Pose:
    """The pose holding each name's (x, y, conf) triple at its position."""
    return tuple(triples[name] for name in KEYPOINT_NAMES)


def keypoint(pose: Pose, name: str):
    """The (x, y, conf) triple of one named keypoint."""
    return pose[KEYPOINT_NAMES.index(name)]


def point(pose: Pose, name: str):
    """The (x, y) of one named keypoint."""
    x, y, _ = keypoint(pose, name)
    return (x, y)


def make_pose(
    arm=DIG_CENTER,
    body=(900.0, 500.0),
    conf=1.0,
    conf_overrides=None,
    point_overrides=None,
) -> Pose:
    """Full ten-keypoint pose: arm cluster at ``arm``, body at ``body``."""
    confs = conf_overrides or {}
    points = point_overrides or {}
    triples = {}
    for name, (dx, dy) in _ARM_LAYOUT.items():
        x, y = points.get(name, (arm[0] + dx, arm[1] + dy))
        triples[name] = (x, y, confs.get(name, conf))
    for name, (dx, dy) in _BODY_LAYOUT.items():
        x, y = points.get(name, (body[0] + dx, body[1] + dy))
        triples[name] = (x, y, confs.get(name, conf))
    return pose_from(triples)


def shift_pose(pose: Pose, dx: float, dy: float) -> Pose:
    return tuple((x + dx, y + dy, conf) for x, y, conf in pose)


def runs_of(states):
    """The ``(state, first_frame, last_frame)`` runs of per-frame states
    indexed from frame 0."""
    runs = []
    for frame, state in enumerate(states):
        if runs and runs[-1][0] is state:
            runs[-1][2] = frame
        else:
            runs.append([state, frame, frame])
    return [tuple(run) for run in runs]


def frame_states(runs):
    """The (frame index, state) pair of every frame the runs cover."""
    return [
        (frame, state)
        for state, first, last in runs
        for frame in range(first, last + 1)
    ]


# --- motion and stillness oracle --------------------------------------------


class MotionWindow:
    """Rolling window of recent keypoint positions for one track.

    Holds positions for up to ``size`` consecutive frames; pushing a
    non-consecutive frame index resets the window first, so detection
    gaps never masquerade as large displacements.  ``motion`` adds each
    step's per-point displacements in point order, then the step totals
    oldest first: the order of ActionClassifier's rule.
    """

    def __init__(self, size: int):
        if size < 2:
            raise ValueError("window size must be at least 2")
        self.size = size
        self._last_frame: int | None = None
        self._last_points: tuple | None = None
        # Per-point displacements between consecutive entries, oldest
        # step first; the window holds one entry more than steps.
        self._steps: deque[tuple[float, ...]] = deque(maxlen=size - 1)

    def __len__(self) -> int:
        return 0 if self._last_points is None else len(self._steps) + 1

    def reset(self) -> None:
        self._last_frame = None
        self._last_points = None
        self._steps.clear()

    def push(self, frame_index: int, points) -> None:
        points = tuple(points)
        last = self._last_points
        if last is not None and len(points) != len(last):
            raise ValueError("inconsistent keypoint count pushed into window")
        if self._last_frame is not None and frame_index != self._last_frame + 1:
            self.reset()
        elif last is not None:
            self._steps.append(tuple(map(math.dist, last, points)))
        self._last_frame = frame_index
        self._last_points = points

    def motion(self) -> float | None:
        """Mean per-frame displacement, or None while underfull."""
        steps = self._steps
        if not steps:
            return None
        total = 0.0
        for step in steps:
            step_total = 0.0
            for d in step:
                step_total += d
            total += step_total
        return total / (len(steps) * len(steps[0]))


def is_still(motion: float, threshold: float) -> bool:
    """Strictly below the threshold counts as still."""
    return motion < threshold


class OracleClassifier:
    """ActionClassifier's rules on two MotionWindows, one per keypoint
    group, re-measured every frame; ``states`` keeps every frame's
    state.  The reference the classifier's fast step is checked against.
    """

    def __init__(self, regions, fps: float, config: ActivityConfig):
        self.regions = tuple(regions)
        self.fps = fps
        self.config = config
        self.state = ActionState.UNKNOWN
        self.states: list[tuple[int, ActionState]] = []
        self._body = MotionWindow(config.motion_window)
        self._arm = MotionWindow(config.motion_window)
        self._still_frames = 0
        self._last_frame: int | None = None

    def step(self, frame_index: int, pose, bbox=None) -> ActionState:
        last_frame = self._last_frame
        self._last_frame = frame_index
        if pose is None:
            self._body.reset()
            self._arm.reset()
            self._still_frames = 0
        else:
            if last_frame is not None and frame_index != last_frame + 1:
                self._still_frames = 0
            self._body.push(frame_index, [kp[:2] for kp in pose[BODY]])
            self._arm.push(frame_index, [kp[:2] for kp in pose[ARM]])
            body = self._body.motion()
            arm = self._arm.motion()
            if body is None or arm is None:
                self._still_frames = 0
            else:
                threshold = self.config.stillness_threshold
                if self.config.stillness_mode == "bbox_frac":
                    threshold *= math.hypot(bbox[2], bbox[3])
                body_still = is_still(body, threshold)
                arm_still = is_still(arm, threshold)
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
        self.states.append((frame_index, self.state))
        return self.state


def make_detection(cls="excavator", bbox=(10.0, 20.0, 200.0, 120.0), score=0.9) -> Detection:
    return Detection(MachineClass(cls), tuple(float(v) for v in bbox), float(score))


def make_header(fps=25.0, width=1920, height=1080, source="test") -> StreamHeader:
    return StreamHeader(fps, width, height, source)


def random_bbox(rng: random.Random, width=1920, height=1080, max_side=300.0):
    w = rng.uniform(5.0, max_side)
    h = rng.uniform(5.0, max_side)
    x = rng.uniform(0.0, width - w)
    y = rng.uniform(0.0, height - h)
    return (x, y, w, h)


def random_stream(rng: random.Random):
    """A random valid stream: (header, frames).

    Mixes plain detections, excavator poses (with out-of-extent keypoint
    coordinates, which the schema allows), and sparse frame indices.
    """
    header = make_header(
        fps=rng.choice([10.0, 24.0, 25.0, 30.0]),
        width=rng.choice([640, 1280, 1920]),
        height=rng.choice([480, 720, 1080]),
        source=f"cam-{rng.randrange(100)}",
    )
    frames = []
    index = -1
    for _ in range(rng.randrange(0, 7)):
        index += rng.randint(1, 3)
        detections = []
        poses = []
        for _ in range(rng.randrange(0, 4)):
            cls = rng.choice(list(MachineClass))
            detections.append(
                Detection(cls, random_bbox(rng, header.width, header.height), rng.uniform(0.0, 1.0))
            )
            if cls is MachineClass.EXCAVATOR and rng.random() < 0.7:
                pose = tuple(
                    (
                        rng.uniform(-50.0, header.width + 50.0),
                        rng.uniform(-50.0, header.height + 50.0),
                        rng.uniform(0.0, 1.0),
                    )
                    for _ in KEYPOINT_NAMES
                )
                poses.append((len(detections) - 1, pose))
        frames.append(PerceptionFrame(index, tuple(detections), tuple(poses)))
    return header, frames


# --- malformed stream catalogue -------------------------------------------

_H = '{"fps":25.0,"width":1920,"height":1080,"source":"cam"}'
_KPS = ",".join(f'"{name}":[10.0,20.0,0.9]' for name in KEYPOINT_NAMES)
_DET = '{"class":"excavator","bbox":[10.0,20.0,200.0,100.0],"score":0.9}'


def frame_line(index=0, detections="[]", poses="[]") -> str:
    return f'{{"index":{index},"detections":{detections},"poses":{poses}}}'


class MemoFreeParser(StreamParser):
    """The stream parser with every frame line decoded and checked in full.

    The oracle for the parser's memo of repeated frame bodies: the same
    strict and lenient loops, but each line is
    ``_parse_frame(json.loads(line))``.
    """

    def _frame(self, line: str) -> PerceptionFrame:
        return _parse_frame(self._loads(line), self.header, self._prev_index, self._line_no)


def parse_outcome(parser_class, lines, strict: bool = True):
    """Everything a parse shows: (frames, skipped, (message, line) or None).

    The frames are compared by repr, which tells 1 from 1.0 and 0.0
    from -0.0.
    """
    frames = []
    parser = None
    error = None
    try:
        parser = parser_class(lines, strict=strict)
        for frame in parser:
            frames.append(frame)
    except StreamFormatError as exc:
        error = (str(exc), exc.line_no)
    return repr(frames), parser and parser.skipped, error


def watch_stream(alert_frames, total):
    """Excavator parked in the digging square; loader joins on some frames."""
    lines = ['{"fps": 25.0, "width": 1920, "height": 1080, "source": "cam"}']
    exc = '{"class": "excavator", "bbox": [180.0, 120.0, 60.0, 80.0], "score": 0.95}'
    loader_in = '{"class": "loader", "bbox": [150.0, 150.0, 50.0, 50.0], "score": 0.9}'
    loader_out = '{"class": "loader", "bbox": [1500.0, 900.0, 50.0, 50.0], "score": 0.9}'
    for f in range(total):
        loader = loader_in if f in alert_frames else loader_out
        lines.append(
            f'{{"index": {f}, "detections": [{exc}, {loader}], "poses": []}}'
        )
    return "\n".join(lines) + "\n"


# (name, lines, line number the error must cite).  Every fixture must be
# rejected in strict mode with the parse-error exit code.
MALFORMED_STREAMS = [
    ("header_invalid_json", ['{"fps": '], 1),
    ("header_missing_field", ['{"fps":25.0,"width":1920,"height":1080}'], 1),
    ("header_nonpositive_fps", ['{"fps":0,"width":1920,"height":1080,"source":"cam"}'], 1),
    ("frame_not_object", [_H, "[1,2]"], 2),
    ("frame_unknown_field", [_H, '{"index":0,"detections":[],"poses":[],"zoom":1}'], 2),
    ("frame_index_regression", [_H, frame_line(0), frame_line(2), frame_line(1)], 4),
    (
        "detection_unknown_class",
        [_H, frame_line(0, '[{"class":"robot","bbox":[0.0,0.0,10.0,10.0],"score":0.5}]')],
        2,
    ),
    (
        "detection_bbox_arity",
        [_H, frame_line(0, '[{"class":"loader","bbox":[0.0,0.0,10.0],"score":0.5}]')],
        2,
    ),
    (
        "detection_score_range",
        [_H, frame_line(0, '[{"class":"loader","bbox":[0.0,0.0,10.0,10.0],"score":1.5}]')],
        2,
    ),
    (
        "pose_unknown_keypoint",
        [
            _H,
            frame_line(
                0,
                f"[{_DET}]",
                f'[{{"det":0,"keypoints":{{{_KPS},"bucket_end3":[0.0,0.0,0.5]}}}}]',
            ),
        ],
        2,
    ),
]


# --- soft-NMS reference -----------------------------------------------------


def rect_iou(a, b) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = min(ax + aw, bx + bw) - max(ax, bx)
    iy = min(ay + ah, by + bh) - max(ay, by)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter)


def minmax_bbox_iou(a, b) -> float:
    """Reference IoU: bbox_iou's arithmetic, spelled with min and max."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ax2, ay2 = ax + aw, ay + ah
    bx2, by2 = bx + bw, by + bh
    iw = min(ax2, bx2) - max(ax, bx)
    ih = min(ay2, by2) - max(ay, by)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax) * (ay2 - ay) + (bx2 - bx) * (by2 - by) - inter
    if union <= 0:
        return 0.0
    return min(1.0, inter / union)


def naive_soft_nms(detections, iou_threshold=0.3, decay=0.5, score_floor=0.001):
    """Pool-based reference suppression; returns [(orig index, score)].

    Rules restated from scratch: repeatedly promote the highest-scoring
    survivor (ties: earliest input), Gaussian-decay same-class boxes
    overlapping it at or above the gate, and drop anything below the
    floor (including before any decay).
    """
    pool = [
        [i, det.cls, det.bbox, det.score]
        for i, det in enumerate(detections)
        if det.score >= score_floor
    ]
    kept = []
    while pool:
        best = max(pool, key=lambda row: (row[3], -row[0]))
        pool.remove(best)
        kept.append(best)
        survivors = []
        for row in pool:
            if row[1] is best[1]:
                iou = rect_iou(row[2], best[2])
                if iou >= iou_threshold:
                    row[3] = row[3] * math.exp(-(iou * iou) / decay)
            if row[3] >= score_floor:
                survivors.append(row)
        pool = survivors
    kept.sort(key=lambda row: (-row[3], row[0]))
    return [(row[0], row[3]) for row in kept]


def random_detections(rng: random.Random, max_count=12):
    """Detection sets with heavy overlap so suppression actually fires."""
    classes = [MachineClass.EXCAVATOR, MachineClass.LOADER, MachineClass.TRUCK]
    anchors = [random_bbox(rng, 800, 600, 200.0) for _ in range(3)]
    detections = []
    for _ in range(rng.randrange(0, max_count + 1)):
        cls = rng.choice(classes)
        if rng.random() < 0.7:
            ax, ay, aw, ah = rng.choice(anchors)
            bbox = (
                max(0.0, ax + rng.uniform(-15.0, 15.0)),
                max(0.0, ay + rng.uniform(-15.0, 15.0)),
                aw * rng.uniform(0.8, 1.2),
                ah * rng.uniform(0.8, 1.2),
            )
        else:
            bbox = random_bbox(rng, 800, 600, 200.0)
        detections.append(Detection(cls, bbox, rng.uniform(0.0, 1.0)))
    return detections


# --- AP / OKS oracles -------------------------------------------------------


def oracle_matches(predictions, truths, similarity, gate):
    """Greedy matching re-derivation; returns [(score, is_tp)] in visit order.

    predictions: (group, payload, score); truths: (group, payload).
    Visit order is score descending with earlier input first on ties;
    each prediction claims the unmatched same-group truth of highest
    similarity >= gate, earlier truth winning similarity ties.
    """
    order = sorted(range(len(predictions)), key=lambda i: (-predictions[i][2], i))
    taken = set()
    out = []
    for i in order:
        group, payload, score = predictions[i]
        best_j = None
        best_sim = None
        for j, (tgroup, tpayload) in enumerate(truths):
            if j in taken or tgroup != group:
                continue
            sim = similarity(payload, tpayload)
            if sim < gate:
                continue
            if best_sim is None or sim > best_sim:
                best_j, best_sim = j, sim
        if best_j is not None:
            taken.add(best_j)
        out.append((score, best_j is not None))
    return out


def oracle_ap_11pt(ordered_matches, n_truth):
    """11-point AP by brute force: rescan every prefix at every recall level."""
    if n_truth == 0:
        return 0.0 if ordered_matches else None
    total = 0.0
    for r in [level / 10 for level in range(11)]:
        best = 0.0
        tp = 0
        fp = 0
        for _, is_tp in ordered_matches:
            if is_tp:
                tp += 1
            else:
                fp += 1
            if tp / n_truth >= r and tp / (tp + fp) > best:
                best = tp / (tp + fp)
        total += best
    return total / 11


def oracle_detection_ap(predictions, truths, iou_gate=0.5):
    """predictions: (image, bbox, score); truths: (image, bbox)."""
    matches = oracle_matches(
        [(img, bbox, score) for img, bbox, score in predictions],
        [(img, bbox) for img, bbox in truths],
        rect_iou,
        iou_gate,
    )
    return oracle_ap_11pt(matches, len(truths))


def oracle_oks(pred: Pose, truth: Pose, scale: float, kappa=0.5) -> float:
    values = []
    for (px, py, _), (tx, ty, tconf) in zip(pred, truth):
        if tconf <= 0:
            continue
        d2 = (px - tx) ** 2 + (py - ty) ** 2
        values.append(math.exp(-d2 / (2.0 * scale * scale * kappa * kappa)))
    if not values:
        raise ValueError("no visible keypoints")
    return sum(values) / len(values)


def oracle_keypoint_ap(predictions, truths, thresholds, kappa=0.5):
    """predictions: (image, pose, score); truths: (image, pose, scale)."""
    aps = []
    for gate in thresholds:
        matches = oracle_matches(
            predictions,
            [(img, (pose, scale)) for img, pose, scale in truths],
            lambda pred, payload: oracle_oks(pred, payload[0], payload[1], kappa),
            gate,
        )
        aps.append(oracle_ap_11pt(matches, len(truths)))
    defined = [ap for ap in aps if ap is not None]
    if not defined:
        return None
    return sum(defined) / len(aps)


def random_ap_instance(rng: random.Random):
    """Single-class detection AP instance: (predictions, truths).

    Mixes exact copies, perturbed copies, and stray boxes across up to
    three images, with duplicated scores to exercise tie-breaking.
    """
    truths = []
    predictions = []
    score_pool = [round(rng.uniform(0.05, 0.95), 2) for _ in range(4)]
    for img in range(rng.randint(1, 3)):
        for _ in range(rng.randrange(0, 4)):
            truths.append((img, random_bbox(rng, 600, 400, 120.0)))
        for _ in range(rng.randrange(0, 4)):
            if truths and rng.random() < 0.6:
                _, base = rng.choice(truths)
                bbox = (
                    base[0] + rng.uniform(-20.0, 20.0),
                    base[1] + rng.uniform(-20.0, 20.0),
                    base[2] * rng.uniform(0.7, 1.3),
                    base[3] * rng.uniform(0.7, 1.3),
                )
            else:
                bbox = random_bbox(rng, 600, 400, 120.0)
            predictions.append((img, bbox, rng.choice(score_pool)))
    return predictions, truths


def random_pose_instance(rng: random.Random):
    """Keypoint-AP instance: (predictions, truths) with mixed visibility."""
    truths = []
    predictions = []
    for img in range(rng.randint(1, 2)):
        for _ in range(rng.randrange(0, 3)):
            anchor = (rng.uniform(100.0, 500.0), rng.uniform(100.0, 400.0))
            conf_overrides = {
                name: 0.0 for name in KEYPOINT_NAMES if rng.random() < 0.2
            }
            # A pose with no visible keypoint has no defined similarity.
            if len(conf_overrides) == len(KEYPOINT_NAMES):
                del conf_overrides[rng.choice(KEYPOINT_NAMES)]
            pose = make_pose(arm=anchor, body=(anchor[0] + 200.0, anchor[1] + 100.0),
                             conf_overrides=conf_overrides)
            truths.append((img, pose, rng.uniform(20.0, 120.0)))
        for _ in range(rng.randrange(0, 3)):
            if truths and rng.random() < 0.7:
                _, base, scale = rng.choice(truths)
                spread = scale * rng.uniform(0.0, 0.8)
                # Jittered in make_pose's keypoint order.
                moved = {}
                for name in (*_ARM_LAYOUT, *_BODY_LAYOUT):
                    x, y, _ = keypoint(base, name)
                    moved[name] = (
                        x + rng.uniform(-spread, spread),
                        y + rng.uniform(-spread, spread),
                        1.0,
                    )
                pose = pose_from(moved)
            else:
                anchor = (rng.uniform(100.0, 500.0), rng.uniform(100.0, 400.0))
                pose = make_pose(arm=anchor, body=(anchor[0] + 200.0, anchor[1] + 100.0))
            predictions.append((img, pose, round(rng.uniform(0.05, 0.95), 2)))
    return predictions, truths


# --- hand-computed AP fixtures ---------------------------------------------


def ap_fixture_perfect():
    """Every truth matched, no false positives -> AP 1.0.

    prefix table (2 truths): k=1 p=1 r=0.5; k=2 p=1 r=1.0
    interpolated precision is 1 at all 11 recall levels.
    """
    truths = [(0, (0.0, 0.0, 10.0, 10.0)), (0, (40.0, 0.0, 10.0, 10.0))]
    predictions = [
        (0, (0.0, 0.0, 10.0, 10.0), 0.9),
        (0, (40.0, 0.0, 10.0, 10.0), 0.8),
    ]
    return predictions, truths, 1.0


def ap_fixture_mid():
    """TP, FP, TP over 2 truths -> AP 28/33.

    prefix table: k=1 p=1 r=1/2; k=2 p=1/2 r=1/2; k=3 p=2/3 r=1
    interpolated: levels 0.0-0.5 -> 1 (6 points), 0.6-1.0 -> 2/3 (5)
    AP = (6 + 10/3) / 11 = 28/33
    """
    truths = [(0, (0.0, 0.0, 10.0, 10.0)), (0, (40.0, 0.0, 10.0, 10.0))]
    predictions = [
        (0, (0.0, 0.0, 10.0, 10.0), 0.9),
        (0, (200.0, 200.0, 10.0, 10.0), 0.8),
        (0, (40.0, 0.0, 10.0, 10.0), 0.7),
    ]
    return predictions, truths, 28.0 / 33.0


def ap_fixture_tail():
    """TP, TP, FP, TP, FP, TP over 5 truths -> AP 47/66.

    prefix table: k=1 p=1 r=0.2; k=2 p=1 r=0.4; k=3 p=2/3 r=0.4;
                  k=4 p=3/4 r=0.6; k=5 p=3/5 r=0.6; k=6 p=2/3 r=0.8
    interpolated: levels 0.0-0.4 -> 1 (5 points), 0.5-0.6 -> 3/4 (2),
                  0.7-0.8 -> 2/3 (2), 0.9-1.0 -> 0 (2)
    AP = (5 + 3/2 + 4/3) / 11 = 47/66
    """
    truths = [(0, (i * 40.0, 0.0, 10.0, 10.0)) for i in range(5)]
    predictions = [
        (0, (0.0, 0.0, 10.0, 10.0), 0.9),
        (0, (40.0, 0.0, 10.0, 10.0), 0.8),
        (0, (0.0, 500.0, 10.0, 10.0), 0.7),
        (0, (80.0, 0.0, 10.0, 10.0), 0.6),
        (0, (40.0, 500.0, 10.0, 10.0), 0.5),
        (0, (120.0, 0.0, 10.0, 10.0), 0.4),
    ]
    return predictions, truths, 47.0 / 66.0


AP_FIXTURES = (ap_fixture_perfect, ap_fixture_mid, ap_fixture_tail)


# --- convex containment oracle ----------------------------------------------


def random_convex_polygon(rng: random.Random, n=None, center=(300.0, 300.0), radius=200.0):
    """Convex polygon: sorted angles on one circle (varying radii would
    allow reflex vertices, which the half-plane oracle cannot handle)."""
    n = n or rng.randint(3, 8)
    r = rng.uniform(0.5 * radius, radius)
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
    # Collapse near-duplicate angles so the polygon stays simple.
    kept = [angles[0]]
    for a in angles[1:]:
        if a - kept[-1] > 0.15:
            kept.append(a)
    if len(kept) < 3:
        return random_convex_polygon(rng, n, center, radius)
    return tuple(
        (center[0] + math.cos(a) * r, center[1] + math.sin(a) * r) for a in kept
    )


def convex_contains(polygon, point) -> bool:
    """Half-plane sign test; valid for convex polygons only."""
    sign = 0
    n = len(polygon)
    for i in range(n):
        ax, ay = polygon[i]
        bx, by = polygon[(i + 1) % n]
        cross = (bx - ax) * (point[1] - ay) - (by - ay) * (point[0] - ax)
        if cross == 0:
            continue
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def distance_to_boundary(polygon, point) -> float:
    """Distance from a point to the nearest polygon edge."""
    px, py = point
    best = math.inf
    n = len(polygon)
    for i in range(n):
        ax, ay = polygon[i]
        bx, by = polygon[(i + 1) % n]
        vx, vy = bx - ax, by - ay
        length2 = vx * vx + vy * vy
        t = 0.0 if length2 == 0 else max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / length2))
        best = min(best, math.hypot(px - (ax + t * vx), py - (ay + t * vy)))
    return best


# --- scenario builders -------------------------------------------------------


def random_scenario(seed: int, noise: NoiseModel | None = None,
                    activity: ActivityConfig | None = None,
                    with_machine: bool = False) -> ScenarioConfig:
    """Small varied scenario for round-trip runs; a few cycles per seed.

    Even seeds use an exact cycle count; odd seeds run duration-driven
    with occasional idle phases.  ``with_machine`` parks a truck in the
    dumping area so alert frames are exercised too.
    """
    shape = random.Random(seed * 2654435761 + 97)
    machines = ()
    if with_machine:
        # Bottom-center at the dumping-area centroid of DEFAULT_REGIONS.
        machines = (MachineSpec(MachineClass.TRUCK, (1332.0, 400.0, 160.0, 120.0), 0, None),)
    common = dict(
        seed=seed,
        fps=25.0,
        dig=DurationRange(2.0, 4.0),
        swing=DurationRange(1.8, 3.2),
        dump=DurationRange(2.0, 4.0),
        machines=machines,
        noise=noise or NoiseModel(),
        activity=activity or ActivityConfig(),
    )
    if seed % 2 == 0:
        return ScenarioConfig(cycle_count=shape.randint(3, 6), **common)
    return ScenarioConfig(
        duration_s=shape.uniform(40.0, 70.0),
        idle=DurationRange(3.5, 5.0),
        idle_prob=0.4,
        **common,
    )


# --- the simulator's name-keyed pose build -----------------------------------
# The simulator once built each pose as a name -> point dict and read the
# stream pose and the bbox off it; kept here, as it was, as the oracle
# its tuple build must equal bit for bit.

SIM_BODY_CORNERS = ((-60, -45), (60, -45), (60, 45), (-60, 45))
SIM_ARM_OFFSETS = {
    "bucket_joint": (0.0, 0.0),
    "arm_joint": (20.0, -14.0),
    "bucket_end1": (-14.0, 12.0),
    "bucket_end2": (12.0, 14.0),
}
SIM_BBOX_MARGIN = 30.0


def sim_pose_points(body_center, offset, probe) -> dict:
    bx = body_center[0] + offset[0]
    by = body_center[1] + offset[1]
    px, py = probe
    points = {}
    for name, (cx, cy) in zip(("body1", "body2", "body3", "body4"), SIM_BODY_CORNERS):
        points[name] = (bx + cx, by + cy)
    for name, (dx, dy) in SIM_ARM_OFFSETS.items():
        points[name] = (px + dx, py + dy)
    points["boom_cylinder"] = (bx + (px - bx) * 0.45, by + (py - by) * 0.45 - 30.0)
    points["boom_base"] = (bx + (px - bx) * 0.15, by + (py - by) * 0.15 - 20.0)
    return points


def sim_confident_pose(points: dict) -> Pose:
    """Every keypoint at its point, fully confident."""
    return tuple([(x, y, 1.0) for x, y in map(points.__getitem__, KEYPOINT_NAMES)])


def sim_pose_bbox(points: dict, config: ScenarioConfig):
    xs, ys = zip(*points.values())
    x1 = max(0.0, min(xs) - SIM_BBOX_MARGIN)
    y1 = max(0.0, min(ys) - SIM_BBOX_MARGIN)
    x2 = min(float(config.width), max(xs) + SIM_BBOX_MARGIN)
    y2 = min(float(config.height), max(ys) + SIM_BBOX_MARGIN)
    return (x1, y1, x2 - x1, y2 - y1)


def sim_dict_geometry(config: ScenarioConfig, plan):
    """Per frame: the probe, the points dict, the stream pose and the bbox."""
    body_center = simulator._body_center(config)
    for offset, probe in simulator._excavator_path(plan.phases, plan.scripted_frames, config):
        points = sim_pose_points(body_center, offset, probe)
        yield probe, points, sim_confident_pose(points), sim_pose_bbox(points, config)


# --- config and truth files ---------------------------------------------------


def region_to_dict(region: Region) -> dict:
    return {
        "label": region.label.value,
        "polygon": [[x, y] for x, y in region.polygon],
    }


def _phase_to_list(phase: DurationRange) -> list:
    return [phase.min_s, phase.max_s]


# The encoder of each value a config file does not hold as it is in
# memory; every other field is written as it is.
_ENCODERS = {
    "regions": lambda regions: [region_to_dict(r) for r in regions],
    "activity": asdict,
    "dig": _phase_to_list,
    "swing": _phase_to_list,
    "dump": _phase_to_list,
    "idle": _phase_to_list,
    "machines": lambda specs: [machine_to_dict(m) for m in specs],
    "noise": asdict,
}


def fields_to_dict(cfg, table: dict) -> dict:
    """The JSON object ``config.fields_from_dict`` reads back through the
    same key table; None is left out."""
    out: dict = {}
    for path, name in table.items():
        value = getattr(cfg, name)
        if value is not None:
            section, _, key = path.rpartition(".")
            encode = _ENCODERS.get(name)
            target = out.setdefault(section, {}) if section else out
            target[key] = value if encode is None else encode(value)
    return out


def site_config_to_dict(cfg: SiteConfig) -> dict:
    return fields_to_dict(cfg, config._SITE_FIELDS)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return fields_to_dict(cfg, simulator._SCENARIO_FIELDS)


def cycle_accuracy(detected: int, ground_truth: int) -> float:
    """min/max ratio, symmetric under over- and under-counting."""
    if ground_truth <= 0:
        raise ValueError("ground_truth must be positive")
    if detected < 0:
        raise ValueError("detected must be non-negative")
    if detected == 0:
        return 0.0
    return min(detected, ground_truth) / max(detected, ground_truth)


def write_site_config(cfg: SiteConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(site_config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def ground_truth_from_dict(obj: dict) -> GroundTruth:
    """Read back what ``GroundTruth.to_dict`` wrote."""
    return GroundTruth(
        fps=float(obj["fps"]),
        runs=runs_of([ActionState(s) for s in obj["states"]]),
        phases=[(ActionState(s), a, b) for s, a, b in obj["phases"]],
        cycles=[
            CycleRecord(c["start_frame"], c["end_frame"], c["duration_s"])
            for c in obj["cycles"]
        ],
        machines=tuple(machine_from_dict(m) for m in obj["machines"]),
        alert_frames=list(obj["alert_frames"]),
    )
