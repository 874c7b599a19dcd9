"""Detection-based tracking with greedy per-class IoU association."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .streams import BBox, Detection, MachineClass, bbox_iou


@dataclass
class Track:
    track_id: int
    cls: MachineClass
    bbox: BBox
    misses: int = 0


class IouTracker:
    """Assigns stable track ids to per-frame detections.

    Pairs are ranked by IoU (same class only, IoU >= iou_threshold) and
    matched greedily; unmatched detections open new tracks; a track that
    goes unmatched for miss_cap consecutive frames is retired.  Track ids
    count up from 1 and are never reused within a stream.  ``tracks``
    lists the live tracks oldest first, and ``by_id`` maps each live
    track's id to it.
    """

    def __init__(self, iou_threshold: float = 0.3, miss_cap: int = 25):
        if not 0.0 <= iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in [0, 1]")
        if miss_cap < 1:
            raise ValueError("miss_cap must be at least 1")
        self.iou_threshold = iou_threshold
        self.miss_cap = miss_cap
        self.tracks: list[Track] = []
        self.by_id: dict[int, Track] = {}
        self._next_id = 1

    def update(self, detections: Sequence[Detection]) -> dict[int, int]:
        """Consume one frame; returns detection index -> track id."""
        # A track is only ever scored against detections of its class.
        by_class: dict[MachineClass, list[tuple[int, BBox]]] = {}
        for di, det in enumerate(detections):
            by_class.setdefault(det.cls, []).append((di, det.bbox))
        threshold = self.iou_threshold
        pairs = []
        for ti, track in enumerate(self.tracks):
            bbox = track.bbox
            for di, det_bbox in by_class.get(track.cls, ()):
                iou = bbox_iou(bbox, det_bbox)
                if iou >= threshold:
                    pairs.append((-iou, di, ti))
        # Highest IoU first; ties resolve to the earliest detection, then
        # the oldest track, so the outcome is order-independent.
        pairs.sort()
        assignment: dict[int, int] = {}
        matched_tracks: set[int] = set()
        for _, di, ti in pairs:
            if di in assignment or ti in matched_tracks:
                continue
            track = self.tracks[ti]
            track.bbox = detections[di].bbox
            track.misses = 0
            assignment[di] = track.track_id
            matched_tracks.add(ti)
        new_tracks: list[Track] = []
        for di, det in enumerate(detections):
            if di not in assignment:
                track = Track(self._next_id, det.cls, det.bbox)
                self._next_id += 1
                new_tracks.append(track)
                self.by_id[track.track_id] = track
                assignment[di] = track.track_id
        survivors: list[Track] = []
        for ti, track in enumerate(self.tracks):
            if ti in matched_tracks:
                survivors.append(track)
            else:
                track.misses += 1
                if track.misses < self.miss_cap:
                    survivors.append(track)
                else:
                    del self.by_id[track.track_id]
        self.tracks = survivors + new_tracks
        return assignment
