"""The simulator's per-frame geometry, checked against code that shares
nothing with it: the name-keyed pose build it replaced, a hand-drawn
noisy frame, and a winding-number alert oracle."""

import random

import pytest

from sitewatch import simulator
from sitewatch.geometry import Region, RegionLabel
from sitewatch.simulator import (
    DurationRange,
    MachineSpec,
    NoiseModel,
    ScenarioConfig,
    generate,
    inject_collision,
)
from sitewatch.streams import KEYPOINT_NAMES, MachineClass

from helpers import distance_to_boundary, random_scenario, sim_dict_geometry

_SHORT = DurationRange(1.0, 2.0)
# A digging area centered on x = 0 and listed clockwise, so its
# centroid, where the bucket works, has x == -0.0.
_AROUND_ZERO = (
    Region(RegionLabel.DIGGING, ((-100.0, 100.0), (-100.0, 300.0), (100.0, 300.0), (100.0, 100.0))),
    Region(RegionLabel.DUMPING, ((400.0, 100.0), (400.0, 300.0), (600.0, 300.0), (600.0, 100.0))),
)


def _geometry_scenarios():
    for seed in range(12):  # odd seeds draw idle phases
        yield random_scenario(seed, with_machine=seed % 3 == 0)
    yield ScenarioConfig(seed=0, duration_s=40.0)  # ends mid-swing
    yield ScenarioConfig(width=200, height=200, cycle_count=2, dig=_SHORT, swing=_SHORT, dump=_SHORT)
    yield ScenarioConfig(
        regions=_AROUND_ZERO, width=400, height=400, cycle_count=2,
        dig=_SHORT, swing=_SHORT, dump=_SHORT,
    )


def test_geometry_equals_the_name_keyed_build_bit_for_bit():
    seen = {"idle": False, "cut swing": False, "clamp": False, "-0.0 probe": False}
    for config in _geometry_scenarios():
        plan = generate(config)._plan
        got = list(simulator._geometry(config, plan))
        want = [(probe, pose, bbox) for probe, _, pose, bbox in sim_dict_geometry(config, plan)]
        assert len(got) == plan.n_frames
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(got) == repr(want)
        states = {state.name for state, _, _ in plan.phases}
        seen["idle"] |= "IDLE" in states
        last_state, first, last = plan.phases[-1]
        seen["cut swing"] |= (
            "SWING" in last_state.name and last - first + 1 < plan.scripted_frames[-1]
        )
        seen["clamp"] |= any(
            x == 0.0 or y == 0.0 or x + w == config.width or y + h == config.height
            for _, _, (x, y, w, h) in got
        )
        seen["-0.0 probe"] |= any(repr(probe[0]) == "-0.0" for probe, _, _ in got)
    assert all(seen.values()), seen


def test_a_noisy_frame_rebuilt_by_hand_from_the_documented_draw_order():
    sigma, drop, box_sigma = 0.7, 0.2, 1.5
    config = random_scenario(3, NoiseModel(sigma, drop, box_sigma), with_machine=True)
    sim = generate(config)
    rng = random.Random()
    rng.setstate(sim._plan.rng_state)
    assert not rng.random() < drop, "the excavator must be kept on frame 0"
    _, points, _, bbox = next(sim_dict_geometry(config, sim._plan))
    noisy = {}
    for name in (
        "body1", "body2", "body3", "body4", "bucket_joint",
        "arm_joint", "bucket_end1", "bucket_end2", "boom_cylinder", "boom_base",
    ):
        x, y = points[name]
        noisy[name] = (x + rng.gauss(0.0, sigma), y + rng.gauss(0.0, sigma))
    x = bbox[0] + rng.gauss(0.0, box_sigma)
    y = bbox[1] + rng.gauss(0.0, box_sigma)
    x = min(max(x, 0.0), config.width - bbox[2])
    y = min(max(y, 0.0), config.height - bbox[3])
    want_detections = [("excavator", (x, y, bbox[2], bbox[3]), 0.97)]
    (truck,) = config.machines
    if not rng.random() < drop:
        want_detections.append(("truck", truck.bbox, 0.9))
    want_pose = tuple((*noisy[name], 1.0) for name in KEYPOINT_NAMES)

    frame = next(iter(sim.frames))
    got_detections = [(d.cls.value, d.bbox, d.score) for d in frame.detections]
    assert repr(got_detections) == repr(want_detections)
    assert repr(frame.poses) == repr(((0, want_pose),))


_MOVING = {"excavator", "loader", "truck", "crane"}


def _winding_number(point, polygon) -> int:
    """How often the polygon winds around the point; 0 means outside."""
    x, y = point
    wn = 0
    for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1]):
        left = (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1)
        if y1 <= y < y2 and left > 0:
            wn += 1
        elif y2 <= y < y1 and left < 0:
            wn -= 1
    return wn


def _oracle_alert_frames(sim):
    """Alert frames by co-occupancy, and the frames too near an edge to judge.

    The excavator sits at its probe, every roster or injected machine at
    its bbox bottom-center while present.  A region alerts with two
    moving machines in it, or a human and a moving machine.
    """
    regions = sim.config.regions
    alerts, near_edge = [], set()
    for f, (probe, _, _) in enumerate(simulator._geometry(sim.config, sim._plan)):
        occupants = [("excavator", probe)]
        for spec in sim.truth.machines:
            if spec.entry_frame <= f <= spec.exit_frame:
                x, y, w, h = spec.bbox
                occupants.append((spec.cls.value, (x + w / 2.0, y + h)))
        if any(distance_to_boundary(r.polygon, p) < 1e-6 for _, p in occupants for r in regions):
            near_edge.add(f)
            continue
        for region in regions:
            inside = [cls for cls, p in occupants if _winding_number(p, region.polygon) != 0]
            moving = sum(cls in _MOVING for cls in inside)
            if moving >= 2 or (moving and "human" in inside):
                alerts.append(f)
                break
    return alerts, near_edge


def _parked(cls, at, first, last, size=(60.0, 120.0)):
    """A machine whose bbox bottom-center is ``at``."""
    w, h = size
    return MachineSpec(cls, (at[0] - w / 2.0, at[1] - h, w, h), first, last)


def _alert_scenarios():
    for seed in range(6):
        sim = generate(random_scenario(seed, with_machine=True))
        n = len(sim.frames)
        yield inject_collision(sim, n // 4, n // 2, "human")
    dig, dump = simulator._anchors(ScenarioConfig())
    machines = (
        _parked(MachineClass.CONE, dig, 0, None),  # static gear never alerts
        _parked(MachineClass.HUMAN, dump, 40, 160),
        _parked(MachineClass.HUMAN, (dump[0] + 40.0, dump[1]), 0, None),  # two humans never alert
        _parked(MachineClass.CRANE, dump, 120, 300),
        _parked(MachineClass.LOADER, (1850.0, 1050.0), 0, None),  # outside both areas
    )
    sim = generate(
        ScenarioConfig(seed=5, cycle_count=4, dig=_SHORT, swing=_SHORT, dump=_SHORT, machines=machines)
    )
    sim = inject_collision(sim, 200, 260, "truck", at=dig)
    yield inject_collision(sim, 250, 330, "human", at=dump)


@pytest.mark.parametrize("index", range(7))
def test_alert_frames_equal_a_winding_number_oracle(index):
    sim = list(_alert_scenarios())[index]
    want, near_edge = _oracle_alert_frames(sim)
    got = [f for f in sim.truth.alert_frames if f not in near_edge]
    assert want, "the scenario must alert"
    assert got == want
    assert len(near_edge) < len(sim.frames) // 20
