"""AP/mAP, OKS, and temporal-IoU evaluation against brute-force oracles."""

import math
import random

import pytest

from sitewatch.metrics import (
    DEFAULT_OKS_THRESHOLDS,
    ScoredMatch,
    TemporalSegment,
    ap_from_matches,
    average_precision_11pt,
    detection_eval,
    greedy_match,
    keypoint_ap,
    mean_ap,
    oks,
    segment_ap,
    temporal_iou,
)
from sitewatch.streams import KEYPOINT_NAMES, MachineClass

from helpers import (
    AP_FIXTURES,
    keypoint,
    make_pose,
    oracle_detection_ap,
    oracle_keypoint_ap,
    oracle_matches,
    oracle_oks,
    random_ap_instance,
    random_pose_instance,
    shift_pose,
)


def test_temporal_iou_values():
    a = TemporalSegment("digging", 0.0, 10.0)
    assert temporal_iou(a, a) == 1.0
    assert temporal_iou(a, TemporalSegment("digging", 5.0, 15.0)) == pytest.approx(
        1.0 / 3.0
    )
    assert temporal_iou(a, TemporalSegment("digging", 20.0, 30.0)) == 0.0
    assert temporal_iou(a, TemporalSegment("digging", 10.0, 20.0)) == 0.0  # touching


def test_temporal_segment_must_have_extent():
    with pytest.raises(ValueError):
        TemporalSegment("digging", 5.0, 5.0)
    with pytest.raises(ValueError):
        TemporalSegment("digging", 5.0, 4.0)


def _overlap(a, b):
    """1D interval IoU used as a simple similarity for matcher tests."""
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    if hi <= lo:
        return 0.0
    return (hi - lo) / ((a[1] - a[0]) + (b[1] - b[0]) - (hi - lo))


def test_greedy_match_prefers_higher_scores():
    truths = [(0, (0.0, 10.0))]
    predictions = [
        (0, (0.0, 10.0), 0.5),  # same truth, lower score: visited second
        (0, (0.0, 10.0), 0.9),
    ]
    matches = greedy_match(predictions, truths, _overlap, 0.5)
    assert [(m.score, m.is_tp) for m in matches] == [(0.9, True), (0.5, False)]


def test_greedy_match_score_tie_keeps_input_order():
    truths = [(0, (0.0, 10.0))]
    predictions = [(0, (0.0, 10.0), 0.7), (0, (0.0, 10.0), 0.7)]
    matches = greedy_match(predictions, truths, _overlap, 0.5)
    assert [m.is_tp for m in matches] == [True, False]


def test_greedy_match_similarity_tie_takes_earlier_truth():
    truths = [(0, (0.0, 10.0)), (0, (20.0, 30.0))]
    predictions = [
        (0, (0.0, 10.0), 0.9),
        (0, (0.0, 10.0), 0.8),  # its best live option is gated out
    ]
    matches = greedy_match(predictions, truths, _overlap, 0.5)
    assert [m.is_tp for m in matches] == [True, False]
    # Equal similarity to both truths: the earlier truth is claimed.
    sym = greedy_match(
        [(0, (0.0, 30.0), 0.9)],
        [(0, (0.0, 10.0)), (0, (20.0, 30.0))],
        _overlap,
        0.1,
    )
    assert sym[0].is_tp


def test_greedy_match_respects_groups():
    truths = [(("img", 1), (0.0, 10.0))]
    predictions = [(("img", 2), (0.0, 10.0), 0.9)]
    matches = greedy_match(predictions, truths, _overlap, 0.5)
    assert [m.is_tp for m in matches] == [False]


def test_ap_edge_conventions():
    assert ap_from_matches([], 0) is None
    assert ap_from_matches([ScoredMatch(0.9, False)], 0) == 0.0
    assert ap_from_matches([], 3) == 0.0
    assert ap_from_matches([ScoredMatch(0.9, True)], 1) == 1.0
    with pytest.raises(ValueError):
        ap_from_matches([], -1)


@pytest.mark.parametrize("fixture", AP_FIXTURES, ids=lambda f: f.__name__)
def test_hand_computed_ap_fixtures(fixture):
    predictions, truths, expected = fixture()
    ap = average_precision_11pt(predictions, truths, iou_gate=0.5)
    assert ap == pytest.approx(expected, abs=1e-12)


def test_detection_ap_matches_oracle_on_random_instances():
    rng = random.Random(20260814)
    checked = 0
    for _ in range(80):
        predictions, truths = random_ap_instance(rng)
        got = average_precision_11pt(predictions, truths, iou_gate=0.5)
        want = oracle_detection_ap(predictions, truths, iou_gate=0.5)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9)
            checked += 1
    assert checked >= 40


def test_detection_ap_prediction_order_is_irrelevant_with_distinct_scores():
    rng = random.Random(11)
    predictions, truths = random_ap_instance(rng)
    # Force distinct scores so visit order is fully score-determined.
    predictions = [
        (img, bbox, 0.9 - 0.01 * i) for i, (img, bbox, _) in enumerate(predictions)
    ]
    baseline = average_precision_11pt(predictions, truths)
    for _ in range(10):
        rng.shuffle(predictions)
        assert average_precision_11pt(predictions, truths) == baseline


def test_ap_gate_validation():
    with pytest.raises(ValueError):
        average_precision_11pt([], [], iou_gate=0.0)
    with pytest.raises(ValueError):
        average_precision_11pt([], [], iou_gate=1.5)


def test_mean_ap_averages_defined_classes():
    per_class = {"excavator": 0.93, "loader": 0.852}
    assert mean_ap(per_class) == pytest.approx(0.891, abs=1e-12)
    assert mean_ap({"excavator": 0.5, "loader": None}) == 0.5
    with pytest.raises(ValueError):
        mean_ap({"excavator": None})
    with pytest.raises(ValueError):
        mean_ap({})


def test_oks_identity_is_one():
    pose = make_pose()
    assert oks(pose, pose, scale=50.0) == 1.0


def test_oks_single_keypoint_closed_form():
    truth = make_pose(
        conf_overrides={name: 0.0 for name in KEYPOINT_NAMES if name != "bucket_joint"}
    )
    pred = shift_pose(truth, 30.0, 40.0)  # d = 50
    # exp(-d^2 / (2 s^2 kappa^2)) with s = 50, kappa = 0.5: exp(-2).
    assert oks(pred, truth, scale=50.0) == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_oks_decreases_with_displacement():
    truth = make_pose()
    values = [oks(shift_pose(truth, d, 0.0), truth, scale=80.0) for d in (0, 5, 20, 80)]
    assert values[0] == 1.0
    assert all(a > b for a, b in zip(values, values[1:]))


def test_oks_scale_invariance():
    truth = make_pose()
    pred = shift_pose(truth, 12.0, -7.0)
    base = oks(pred, truth, scale=60.0)

    def scaled(pose, factor):
        return tuple((x * factor, y * factor, conf) for x, y, conf in pose)

    assert oks(scaled(pred, 3.0), scaled(truth, 3.0), scale=180.0) == pytest.approx(
        base, abs=1e-12
    )


def test_oks_symmetric_when_fully_visible():
    a = make_pose(arm=(200.0, 200.0))
    b = make_pose(arm=(230.0, 210.0), body=(910.0, 505.0))
    assert oks(a, b, 70.0) == pytest.approx(oks(b, a, 70.0), abs=1e-15)


def test_oks_ignores_invisible_truth_keypoints():
    truth = make_pose(conf_overrides={"boom_base": 0.0})
    x, y, _ = keypoint(truth, "boom_base")
    pred = make_pose(point_overrides={"boom_base": (x + 500.0, y)})
    assert oks(pred, truth, 50.0) == 1.0


def test_oks_rejects_blind_truth_and_bad_scale():
    blind = make_pose(conf=0.0)
    with pytest.raises(ValueError):
        oks(make_pose(), blind, 50.0)
    with pytest.raises(ValueError):
        oks(make_pose(), make_pose(), 0.0)


def test_oks_per_keypoint_kappa_override():
    truth = make_pose(
        conf_overrides={name: 0.0 for name in KEYPOINT_NAMES if name != "bucket_joint"}
    )
    pred = shift_pose(truth, 30.0, 40.0)
    loose = oks(pred, truth, 50.0, per_keypoint_kappa={"bucket_joint": 1.0})
    assert loose == pytest.approx(math.exp(-0.5), abs=1e-12)
    with pytest.raises(ValueError):
        oks(pred, truth, 50.0, per_keypoint_kappa={"bucket_joint": 0.0})


def test_oks_agrees_with_oracle():
    rng = random.Random(5)
    for _ in range(50):
        truth = make_pose(
            arm=(rng.uniform(100, 500), rng.uniform(100, 400)),
            conf_overrides={
                name: 0.0 for name in KEYPOINT_NAMES if rng.random() < 0.3
            },
        )
        if all(conf == 0.0 for _, _, conf in truth):
            continue
        pred = shift_pose(truth, rng.uniform(-40, 40), rng.uniform(-40, 40))
        scale = rng.uniform(20.0, 120.0)
        assert oks(pred, truth, scale) == pytest.approx(
            oracle_oks(pred, truth, scale), abs=1e-12
        )


def test_keypoint_ap_perfect_prediction():
    pose = make_pose()
    ap = keypoint_ap([(0, pose, 0.9)], [(0, pose, 60.0)])
    assert ap == 1.0


def test_keypoint_ap_partial_credit_for_displaced_pose():
    truth = make_pose()
    scale = 50.0
    # OKS = exp(-2 d^2 / s^2) = 0.7 when d = s * sqrt(ln(1/0.7) / 2).
    d = scale * math.sqrt(math.log(1.0 / 0.7) / 2.0)
    pred = shift_pose(truth, d, 0.0)
    ap = keypoint_ap([(0, pred, 0.9)], [(0, truth, scale)])
    passed = sum(1 for t in DEFAULT_OKS_THRESHOLDS if 0.7 >= t)
    assert ap == pytest.approx(passed / len(DEFAULT_OKS_THRESHOLDS), abs=1e-9)
    assert 0.0 < ap < 1.0


def test_keypoint_ap_matches_oracle_on_random_instances():
    rng = random.Random(99)
    checked = 0
    for _ in range(40):
        predictions, truths = random_pose_instance(rng)
        got = keypoint_ap(predictions, truths)
        want = oracle_keypoint_ap(predictions, truths, DEFAULT_OKS_THRESHOLDS)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9)
            checked += 1
    assert checked >= 15


def test_keypoint_ap_threshold_validation():
    with pytest.raises(ValueError):
        keypoint_ap([], [], oks_thresholds=())
    with pytest.raises(ValueError):
        keypoint_ap([], [], oks_thresholds=(0.5, 1.0))
    assert keypoint_ap([], [], oks_thresholds=(0.5,)) is None


def test_greedy_match_agrees_with_oracle_matcher():
    rng = random.Random(3)
    for _ in range(40):
        predictions, truths = random_ap_instance(rng)
        got = greedy_match(
            predictions, [(img, bbox) for img, bbox in truths], _iou2d, 0.5
        )
        want = oracle_matches(
            predictions, [(img, bbox) for img, bbox in truths], _iou2d, 0.5
        )
        assert [(m.score, m.is_tp) for m in got] == want


def _iou2d(a, b):
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih / (aw * ah + bw * bh - iw * ih)


def test_segment_ap_perfect_timeline():
    truths = [
        TemporalSegment("digging", 0.0, 8.0),
        TemporalSegment("dumping", 10.0, 20.0),
    ]
    predictions = [
        (TemporalSegment("digging", 0.0, 8.0), 1.0),
        (TemporalSegment("dumping", 11.0, 21.0), 1.0),  # IoU 9/11 > 0.5
    ]
    per_label, mean = segment_ap(predictions, truths, iou_gate=0.5)
    assert per_label == {"digging": 1.0, "dumping": 1.0}
    assert mean == 1.0


def test_segment_ap_gated_out_prediction_is_a_false_positive():
    truths = [TemporalSegment("digging", 0.0, 8.0)]
    predictions = [(TemporalSegment("digging", 4.0, 12.0), 1.0)]  # IoU 1/3
    per_label, mean = segment_ap(predictions, truths, iou_gate=0.5)
    assert per_label == {"digging": 0.0}
    assert mean == 0.0


def test_segment_ap_covers_labels_from_both_sides():
    truths = [TemporalSegment("digging", 0.0, 8.0)]
    predictions = [(TemporalSegment("idle", 0.0, 8.0), 1.0)]
    per_label, mean = segment_ap(predictions, truths)
    assert per_label == {"digging": 0.0, "idle": 0.0}
    assert mean == 0.0
    with pytest.raises(ValueError):
        segment_ap([], [])


def test_detection_eval_groups_by_class():
    exc, loader = MachineClass.EXCAVATOR, MachineClass.LOADER
    box_a = (0.0, 0.0, 100.0, 100.0)
    box_b = (300.0, 0.0, 100.0, 100.0)
    truths = [(0, exc, box_a), (0, loader, box_b)]
    predictions = [
        (0, exc, box_a, 0.9),
        (0, loader, (330.0, 0.0, 100.0, 100.0), 0.8),  # IoU 70/130 > 0.5
    ]
    per_class, mean = detection_eval(predictions, truths)
    assert list(per_class) == [exc, loader]  # sorted by class value
    assert per_class[exc] == 1.0
    assert per_class[loader] == 1.0
    assert mean == 1.0


def test_detection_eval_missed_class_drags_the_mean():
    exc, truck = MachineClass.EXCAVATOR, MachineClass.TRUCK
    box = (0.0, 0.0, 100.0, 100.0)
    truths = [(0, exc, box), (0, truck, (300.0, 300.0, 80.0, 80.0))]
    predictions = [(0, exc, box, 0.9)]
    per_class, mean = detection_eval(predictions, truths)
    assert per_class[exc] == 1.0
    assert per_class[truck] == 0.0  # truth present, nothing predicted
    assert mean == 0.5
    with pytest.raises(ValueError):
        detection_eval([], [])
