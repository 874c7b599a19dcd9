"""Greedy IoU association: id continuity, gaps, retirement, determinism."""

import random

import pytest

from sitewatch.streams import Detection, MachineClass
import sitewatch.tracking as tracking
from sitewatch.tracking import IouTracker, Track

from helpers import make_detection, minmax_bbox_iou, random_bbox


def test_single_machine_keeps_one_id_while_moving():
    tracker = IouTracker()
    ids = set()
    for f in range(10):
        det = make_detection(bbox=(100.0 + 2.0 * f, 200.0, 300.0, 150.0))
        assignment = tracker.update([det])
        ids.add(assignment[0])
    assert ids == {1}
    assert len(tracker.tracks) == 1


def test_distant_machines_of_different_classes_never_merge():
    tracker = IouTracker()
    for f in range(10):
        a = make_detection("excavator", (100.0, 100.0, 200.0, 100.0))
        b = make_detection("loader", (1200.0, 700.0, 200.0, 100.0))
        assignment = tracker.update([a, b])
        assert assignment == {0: 1, 1: 2}


def test_same_position_different_class_opens_a_new_track():
    tracker = IouTracker()
    box = (100.0, 100.0, 200.0, 100.0)
    tracker.update([make_detection("excavator", box)])
    assignment = tracker.update([make_detection("loader", box)])
    assert assignment == {0: 2}


def test_gap_shorter_than_miss_cap_keeps_the_id():
    tracker = IouTracker(miss_cap=25)
    box = (100.0, 100.0, 200.0, 100.0)
    assert tracker.update([make_detection(bbox=box)]) == {0: 1}
    for _ in range(24):
        assert tracker.update([]) == {}
    assignment = tracker.update([make_detection(bbox=(110.0, 100.0, 200.0, 100.0))])
    assert assignment == {0: 1}


def test_gap_reaching_miss_cap_retires_the_track():
    tracker = IouTracker(miss_cap=5)
    box = (100.0, 100.0, 200.0, 100.0)
    tracker.update([make_detection(bbox=box)])
    for _ in range(5):
        tracker.update([])
    assert tracker.tracks == []
    assignment = tracker.update([make_detection(bbox=box)])
    assert assignment == {0: 2}  # ids are never reused


def test_low_overlap_opens_a_new_track():
    tracker = IouTracker(iou_threshold=0.3)
    tracker.update([make_detection(bbox=(0.0, 0.0, 100.0, 100.0))])
    # Shifted far enough that IoU < 0.3.
    assignment = tracker.update([make_detection(bbox=(80.0, 0.0, 100.0, 100.0))])
    assert assignment == {0: 2}


def test_highest_iou_wins_the_match():
    tracker = IouTracker()
    tracker.update([make_detection(bbox=(0.0, 0.0, 100.0, 100.0))])
    near = make_detection(bbox=(5.0, 0.0, 100.0, 100.0))
    far = make_detection(bbox=(40.0, 0.0, 100.0, 100.0))
    assignment = tracker.update([far, near])
    assert assignment[1] == 1  # the closer box continues the track
    assert assignment[0] == 2


def test_assignment_is_a_partial_injection():
    rng = random.Random(17)
    tracker = IouTracker()
    for _ in range(60):
        detections = [
            Detection(
                rng.choice([MachineClass.EXCAVATOR, MachineClass.LOADER]),
                random_bbox(rng, 800, 600, 200.0),
                rng.uniform(0.1, 1.0),
            )
            for _ in range(rng.randrange(0, 5))
        ]
        assignment = tracker.update(detections)
        assert set(assignment.keys()) == set(range(len(detections)))
        ids = list(assignment.values())
        assert len(ids) == len(set(ids))


def test_update_is_independent_of_detection_order():
    boxes = [
        (0.0, 0.0, 100.0, 100.0),
        (300.0, 0.0, 100.0, 100.0),
        (600.0, 0.0, 100.0, 100.0),
    ]
    t1 = IouTracker()
    t1.update([make_detection(bbox=b) for b in boxes])
    a1 = t1.update([make_detection(bbox=(b[0] + 5, b[1], b[2], b[3])) for b in boxes])
    t2 = IouTracker()
    t2.update([make_detection(bbox=b) for b in boxes])
    reordered = [2, 0, 1]
    a2 = t2.update(
        [make_detection(bbox=(boxes[i][0] + 5, boxes[i][1], boxes[i][2], boxes[i][3])) for i in reordered]
    )
    # The same physical box gets the same id regardless of list position.
    for pos, i in enumerate(reordered):
        assert a2[pos] == a1[i]


def test_update_leaves_the_live_tracks_on_the_tracker():
    tracker = IouTracker()
    assignment = tracker.update([make_detection()])
    tracks = tracker.tracks
    assert assignment == {0: 1}
    assert len(tracks) == 1
    assert isinstance(tracks[0], Track)
    assert tracks[0].cls is MachineClass.EXCAVATOR


class _AllPairsTracker:
    """The tracker's rules restated as a scan of every (track, detection) pair."""

    def __init__(self, iou_threshold, miss_cap, calls):
        self.iou_threshold = iou_threshold
        self.miss_cap = miss_cap
        self.calls = calls
        self.tracks = []  # [track_id, cls, bbox, misses]
        self.next_id = 1

    def update(self, detections):
        pairs = []
        for ti, (_, cls, bbox, _) in enumerate(self.tracks):
            for di, det in enumerate(detections):
                if det.cls is not cls:
                    continue
                self.calls.append((bbox, det.bbox))
                iou = minmax_bbox_iou(bbox, det.bbox)
                if iou >= self.iou_threshold:
                    pairs.append((iou, di, ti))
        pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
        assignment = {}
        matched = set()
        for _, di, ti in pairs:
            if di in assignment or ti in matched:
                continue
            track = self.tracks[ti]
            track[2] = detections[di].bbox
            track[3] = 0
            assignment[di] = track[0]
            matched.add(ti)
        opened = []
        for di, det in enumerate(detections):
            if di not in assignment:
                opened.append([self.next_id, det.cls, det.bbox, 0])
                assignment[di] = self.next_id
                self.next_id += 1
        survivors = []
        for ti, track in enumerate(self.tracks):
            if ti not in matched:
                track[3] += 1
                if track[3] >= self.miss_cap:
                    continue
            survivors.append(track)
        self.tracks = survivors + opened
        return assignment


_CLASSES = [MachineClass.EXCAVATOR, MachineClass.LOADER, MachineClass.HUMAN]


def _crowded_frame(rng, previous):
    """Boxes on a coarse grid (exact IoU ties), some repeated from the last
    frame or repeated under another class, sometimes none at all."""
    if rng.random() < 0.1:
        return []
    detections = []
    for _ in range(rng.randrange(0, 9)):
        roll = rng.random()
        if previous and roll < 0.3:
            detections.append(rng.choice(previous))
        elif previous and roll < 0.4:
            det = rng.choice(previous)
            detections.append(Detection(rng.choice(_CLASSES), det.bbox, det.score))
        else:
            box = (
                20.0 * rng.randrange(0, 8),
                20.0 * rng.randrange(0, 8),
                20.0 * rng.randrange(1, 5),
                20.0 * rng.randrange(1, 5),
            )
            detections.append(Detection(rng.choice(_CLASSES), box, 0.9))
    return detections


@pytest.mark.parametrize("seed", range(12))
def test_update_matches_the_all_pairs_rules(seed, monkeypatch):
    rng = random.Random(seed)
    iou_threshold = rng.choice([0.0, 0.1, 0.3, 0.5, 1.0])
    miss_cap = rng.choice([1, 2, 3, 25])
    calls = []
    bbox_iou = tracking.bbox_iou

    def counted_iou(a, b):
        calls.append((a, b))
        return bbox_iou(a, b)

    monkeypatch.setattr(tracking, "bbox_iou", counted_iou)
    tracker = IouTracker(iou_threshold, miss_cap)
    reference_calls = []
    reference = _AllPairsTracker(iou_threshold, miss_cap, reference_calls)
    detections = []
    for _ in range(60):
        detections = _crowded_frame(rng, detections)
        del calls[:], reference_calls[:]
        assert tracker.update(detections) == reference.update(detections)
        assert calls == reference_calls
        assert [
            [t.track_id, t.cls, t.bbox, t.misses] for t in tracker.tracks
        ] == reference.tracks
        assert tracker.by_id == {t.track_id: t for t in tracker.tracks}


def test_constructor_validation():
    with pytest.raises(ValueError):
        IouTracker(iou_threshold=-0.1)
    with pytest.raises(ValueError):
        IouTracker(miss_cap=0)
