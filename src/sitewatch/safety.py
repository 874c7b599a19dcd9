"""Co-occupancy collision alerts and the latched pause signal.

A region raises an alert when two or more moving machines share it, or
when a human shares it with any machine.  The pause signal latches on
with the first alert and releases only after a configurable run of
alert-free frames, so a flickering detection cannot flap the signal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .geometry import LocationLabel, Region, RegionLabel, classify_location, locate_point
from .streams import BBox, MachineClass, Pose, bbox_bottom_center
from .tracking import Track

# Moving plant covered by the two-in-a-region rule; humans are handled by
# the stricter any-machine rule, and small static gear never alerts.
MACHINE_CLASSES = frozenset(
    {
        MachineClass.EXCAVATOR,
        MachineClass.LOADER,
        MachineClass.TRUCK,
        MachineClass.CRANE,
    }
)

_ALERT_LOCATIONS = {
    LocationLabel.IN_DIGGING: RegionLabel.DIGGING,
    LocationLabel.IN_DUMPING: RegionLabel.DUMPING,
}


@dataclass(frozen=True)
class Alert:
    frame: int
    region: RegionLabel
    tracks: tuple[tuple[int, MachineClass], ...]  # (track id, class), id order
    offset_s: float


@dataclass(frozen=True)
class PauseSignal:
    active: bool = False
    raised_at: int | None = None
    cleared_at: int | None = None
    clear_streak: int = 0


def locate_machines(
    frame_tracks: Sequence[tuple[Track, BBox, Pose | None]],
    regions: Sequence[Region],
    conf_floor: float = 0.3,
) -> dict[int, LocationLabel]:
    """Attribute each tracked machine in the frame to a working area.

    Excavators with a pose locate via the probe point; anything else, or
    an excavator whose probe is indeterminate, falls back to the bbox
    bottom-center (the ground-contact proxy).
    """
    out: dict[int, LocationLabel] = {}
    for track, bbox, pose in frame_tracks:
        loc: LocationLabel | None = None
        if pose is not None and track.cls is MachineClass.EXCAVATOR:
            loc = classify_location(pose, regions, conf_floor)
        if loc is None:
            loc = locate_point(bbox_bottom_center(bbox), regions)
        out[track.track_id] = loc
    return out


def check_collision(
    locations: dict[int, LocationLabel],
    classes: dict[int, MachineClass],
    frame_index: int = 0,
    fps: float = 25.0,
) -> list[Alert]:
    """Alerts for every region in unsafe co-occupancy at this frame.

    Unsafe: two or more moving machines, or a human plus any machine.
    ELSEWHERE never alerts.  Output is sorted by region label and is
    independent of the input map ordering.
    """
    alerts: list[Alert] = []
    if len(locations) < 2:
        return alerts  # every alert needs two occupants of one region
    for region in (RegionLabel.DIGGING, RegionLabel.DUMPING):
        machines: list[int] = []
        humans: list[int] = []
        for track_id in sorted(locations):
            if _ALERT_LOCATIONS.get(locations[track_id]) is not region:
                continue
            cls = classes[track_id]
            if cls in MACHINE_CLASSES:
                machines.append(track_id)
            elif cls is MachineClass.HUMAN:
                humans.append(track_id)
        if len(machines) >= 2 or (humans and machines):
            involved = tuple(
                (track_id, classes[track_id]) for track_id in sorted(machines + humans)
            )
            alerts.append(Alert(frame_index, region, involved, frame_index / fps))
    return alerts


def update_pause(
    signal: PauseSignal,
    alerts: Sequence[Alert],
    frame_index: int,
    clearance_window: int = 25,
) -> PauseSignal:
    """Advance the pause latch by one frame.

    Any alert (re)arms the latch; an active latch releases only after
    clearance_window consecutive alert-free frames.  SafetyMonitor
    holds clearance_window to at least 1.
    """
    if alerts:
        if signal.active:
            return replace(signal, clear_streak=0)
        return PauseSignal(True, frame_index, None, 0)
    if not signal.active:
        return signal
    streak = signal.clear_streak + 1
    if streak >= clearance_window:
        return PauseSignal(False, signal.raised_at, frame_index, 0)
    return replace(signal, clear_streak=streak)


class SafetyMonitor:
    """Per-stream alert checks plus pause bookkeeping.

    Each step returns its frame's alerts and keeps none of them, so a
    monitor on an unbounded feed holds only the pause latch and the
    pause events.
    """

    def __init__(
        self,
        regions: Sequence[Region],
        fps: float,
        clearance_window: int = 25,
        conf_floor: float = 0.3,
    ):
        if fps <= 0:
            raise ValueError("fps must be positive")
        if clearance_window < 1:
            raise ValueError("clearance_window must be at least 1")
        self.regions = tuple(regions)
        self.fps = fps
        self.clearance_window = clearance_window
        self.conf_floor = conf_floor
        self.pause = PauseSignal()
        self.pause_events: list[tuple[str, int]] = []

    def step(
        self,
        frame_index: int,
        frame_tracks: Sequence[tuple[Track, BBox, Pose | None]],
    ) -> list[Alert]:
        """Evaluate one frame; returns its alerts."""
        locations = locate_machines(frame_tracks, self.regions, self.conf_floor)
        alerts: list[Alert] = []
        if len(locations) >= 2:  # every alert needs two occupants
            classes = {track.track_id: track.cls for track, _, _ in frame_tracks}
            alerts = check_collision(locations, classes, frame_index, self.fps)
        was_active = self.pause.active
        # With no alert, update_pause leaves an inactive latch as it is.
        if alerts or was_active:
            self.pause = update_pause(
                self.pause, alerts, frame_index, self.clearance_window
            )
            if self.pause.active and not was_active:
                self.pause_events.append(("pause_raised", frame_index))
            elif was_active and not self.pause.active:
                self.pause_events.append(("pause_cleared", frame_index))
        return alerts
