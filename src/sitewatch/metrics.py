"""Evaluation metrics: 11-point AP/mAP, keypoint OKS, temporal-IoU AP.

AP follows the 11-point interpolation: predictions are matched to ground
truth greedily in descending score order (a truth matches at most once),
precision is interpolated as its running maximum over recall, and AP is
the mean of interpolated precision at recall 0.0, 0.1, ..., 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .streams import (
    KEYPOINT_NAMES,
    BBox,
    Pose,
    bbox_iou,
    check_fields,
    check_number,
    number_field,
)

DEFAULT_KAPPA = 0.5
DEFAULT_OKS_THRESHOLDS = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
_RECALL_POINTS = tuple(i / 10 for i in range(11))
IOU_GATE_RANGE = "(0, 1]"


@dataclass(frozen=True)
class ScoredMatch:
    score: float
    is_tp: bool


@dataclass(frozen=True)
class TemporalSegment:
    label: str
    start_s: float = number_field()
    end_s: float = number_field()

    def __post_init__(self):
        check_fields(self)
        if not self.end_s > self.start_s:
            raise ValueError("segment end must be after its start")


def temporal_iou(a: TemporalSegment, b: TemporalSegment) -> float:
    """Overlap length over union length of two segments."""
    inter = min(a.end_s, b.end_s) - max(a.start_s, b.start_s)
    if inter <= 0:
        return 0.0
    union = (a.end_s - a.start_s) + (b.end_s - b.start_s) - inter
    return inter / union


def greedy_match(
    predictions: Sequence[tuple[Hashable, object, float]],
    truths: Sequence[tuple[Hashable, object]],
    similarity: Callable[[object, object], float],
    gate: float,
) -> list[ScoredMatch]:
    """Match scored predictions against ground truth, once per truth.

    predictions: (group key, payload, score); truths: (group key,
    payload).  Predictions are visited in descending score order (ties:
    earlier input index), each claiming the unmatched same-group truth
    with the highest similarity >= gate (ties: earlier truth index).
    Returns ScoredMatch per prediction in visit order.
    """
    by_group: dict[Hashable, list[int]] = {}
    for j, (group, _) in enumerate(truths):
        by_group.setdefault(group, []).append(j)
    taken = [False] * len(truths)
    order = sorted(range(len(predictions)), key=lambda i: (-predictions[i][2], i))
    matches: list[ScoredMatch] = []
    for i in order:
        group, payload, score = predictions[i]
        best_j = -1
        best_sim = -1.0
        for j in by_group.get(group, ()):
            if taken[j]:
                continue
            sim = similarity(payload, truths[j][1])
            if sim >= gate and sim > best_sim:
                best_j = j
                best_sim = sim
        if best_j >= 0:
            taken[best_j] = True
            matches.append(ScoredMatch(score, True))
        else:
            matches.append(ScoredMatch(score, False))
    return matches


def ap_from_matches(matches: Sequence[ScoredMatch], n_truth: int) -> float | None:
    """11-point interpolated AP from descending-score match outcomes.

    Returns None (undefined) when there is neither ground truth nor any
    prediction; 0.0 when predictions exist but no ground truth does.
    """
    if n_truth < 0:
        raise ValueError("n_truth must be non-negative")
    if n_truth == 0:
        return None if not matches else 0.0
    tp = 0
    precisions: list[float] = []
    recalls: list[float] = []
    for k, match in enumerate(matches, start=1):
        if match.is_tp:
            tp += 1
        precisions.append(tp / k)
        recalls.append(tp / n_truth)
    total = 0.0
    for r in _RECALL_POINTS:
        best = 0.0
        for p, rec in zip(precisions, recalls):
            if rec >= r and p > best:
                best = p
        total += best
    return total / len(_RECALL_POINTS)


def average_precision_11pt(
    predictions: Sequence[tuple[Hashable, BBox, float]],
    truths: Sequence[tuple[Hashable, BBox]],
    iou_gate: float = 0.5,
) -> float | None:
    """Detection AP for one class.

    predictions: (image id, bbox, score); truths: (image id, bbox).
    None means undefined (no truth, no predictions).
    """
    check_number("iou_gate", iou_gate, IOU_GATE_RANGE)
    matches = greedy_match(predictions, truths, bbox_iou, iou_gate)
    return ap_from_matches(matches, len(truths))


def mean_ap(per_class_ap: dict) -> float:
    """Unweighted mean over classes whose AP is defined."""
    defined = [v for v in per_class_ap.values() if v is not None]
    if not defined:
        raise ValueError("no class has a defined AP")
    return sum(defined) / len(defined)


def oks(
    pred: Pose,
    truth: Pose,
    scale: float,
    per_keypoint_kappa: dict[str, float] | None = None,
) -> float:
    """Object keypoint similarity between a predicted and a truth pose.

    Mean over truth-visible keypoints (confidence > 0) of
    exp(-d^2 / (2 * scale^2 * kappa^2)).  scale is typically the square
    root of the ground-truth box area.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    kappas = per_keypoint_kappa or {}
    total = 0.0
    visible = 0
    for name, (px, py, _), (tx, ty, tconf) in zip(KEYPOINT_NAMES, pred, truth):
        if tconf <= 0:
            continue
        kappa = kappas.get(name, DEFAULT_KAPPA)
        if kappa <= 0:
            raise ValueError(f"kappa for {name!r} must be positive")
        d2 = (px - tx) ** 2 + (py - ty) ** 2
        total += math.exp(-d2 / (2.0 * scale * scale * kappa * kappa))
        visible += 1
    if visible == 0:
        raise ValueError("truth pose has no visible keypoints")
    return total / visible


def keypoint_ap(
    predictions: Sequence[tuple[Hashable, Pose, float]],
    truths: Sequence[tuple[Hashable, Pose, float]],
    oks_thresholds: Sequence[float] = DEFAULT_OKS_THRESHOLDS,
    per_keypoint_kappa: dict[str, float] | None = None,
) -> float | None:
    """Pose AP averaged over OKS gate thresholds.

    predictions: (image id, pose, score); truths: (image id, pose,
    scale).  None means undefined (no truth, no predictions).
    """
    if not oks_thresholds:
        raise ValueError("oks_thresholds must not be empty")
    for t in oks_thresholds:
        if not 0.0 < t < 1.0:
            raise ValueError("oks_thresholds must be in (0, 1)")

    def similarity(pred_pose, truth_payload):
        truth_pose, scale = truth_payload
        return oks(pred_pose, truth_pose, scale, per_keypoint_kappa)

    truth_pairs = [(group, (pose, scale)) for group, pose, scale in truths]
    aps = []
    for gate in oks_thresholds:
        matches = greedy_match(predictions, truth_pairs, similarity, gate)
        aps.append(ap_from_matches(matches, len(truth_pairs)))
    if all(ap is None for ap in aps):
        return None
    return sum(ap for ap in aps if ap is not None) / len(aps)


def segment_ap(
    predictions: Sequence[tuple[TemporalSegment, float]],
    truths: Sequence[TemporalSegment],
    iou_gate: float = 0.5,
) -> tuple[dict[str, float | None], float]:
    """Per-label temporal AP at one IoU gate, plus the label mean.

    Rule-based timelines carry no confidence; callers score those 1.0.
    """
    check_number("iou_gate", iou_gate, IOU_GATE_RANGE)
    labels = sorted(
        {seg.label for seg, _ in predictions} | {seg.label for seg in truths}
    )
    if not labels:
        raise ValueError("no segments to evaluate")
    per_label: dict[str, float | None] = {}
    for label in labels:
        preds = [
            (0, seg, score) for seg, score in predictions if seg.label == label
        ]
        gts = [(0, seg) for seg in truths if seg.label == label]
        matches = greedy_match(preds, gts, temporal_iou, iou_gate)
        per_label[label] = ap_from_matches(matches, len(gts))
    return per_label, mean_ap(per_label)


def detection_eval(
    predictions: Sequence[tuple[Hashable, object, BBox, float]],
    truths: Sequence[tuple[Hashable, object, BBox]],
    iou_gate: float = 0.5,
) -> tuple[dict, float]:
    """Per-class detection AP over (image, class, bbox[, score]) records."""
    classes = sorted(
        {c for _, c, _, _ in predictions} | {c for _, c, _ in truths},
        key=lambda c: getattr(c, "value", c),
    )
    if not classes:
        raise ValueError("no detections to evaluate")
    per_class: dict = {}
    for cls in classes:
        preds = [(img, bbox, score) for img, c, bbox, score in predictions if c == cls]
        gts = [(img, bbox) for img, c, bbox in truths if c == cls]
        per_class[cls] = average_precision_11pt(preds, gts, iou_gate)
    return per_class, mean_ap(per_class)
