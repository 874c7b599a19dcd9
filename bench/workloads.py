"""Inputs for the three benchmark workloads, all made from the seed.

Configs are written as the JSON files the CLI reads, and the crowd layer of
``crowded_site`` is added with plain ``json``, so the inputs depend only on
the program's file formats, not on its Python API.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WIDTH, HEIGHT = 1920, 1080
# The simulator's default working areas, repeated here so the site config
# the analyzer reads is explicit.
REGIONS = [
    {"label": "digging", "polygon": [[150, 300], [650, 280], [700, 700], [180, 740]]},
    {"label": "dumping", "polygon": [[1150, 300], [1700, 320], [1680, 760], [1120, 700]]},
]
DIG_CENTER = (420.0, 505.0)
DUMP_CENTER = (1410.0, 520.0)

WHY = {
    "cycle_bench": (
        "criterion 1's 22,780-frame scenario with one pose and one box per frame: "
        "parse, activity and simulator dominate; the no-change case for tracker "
        "and soft-NMS gains"
    ),
    "crowded_site": (
        "about 25 duplicated boxes per frame over 4,000 frames: soft-NMS, the "
        "tracker, safety alerts and detection eval do the work"
    ),
    "live_watch": (
        "watch fed through a pipe, closed loop and then open loop at 1,000 "
        "frames/s with an alert on every frame: per-line, flush-per-frame latency"
    ),
}


def _scenario(seed: int, workload: str) -> dict:
    if workload == "cycle_bench":
        # productivity_benchmark_config(seed): pinned phases, so the seed
        # does not change a byte of the stream.
        return {
            "seed": seed,
            "fps": 25.0,
            "duration_s": 925.0,
            "cycle_count": 40,
            "phases": {"dig": [8.0, 8.0], "swing": [3.2, 3.2], "dump": [8.1, 8.1]},
        }
    if workload == "crowded_site":
        return {
            "seed": seed,
            "fps": 25.0,
            "duration_s": 160.0,
            "noise": {"keypoint_sigma": 1.0, "drop_prob": 0.02, "bbox_sigma": 2.0},
            "activity": {"stillness_threshold": 3.0},
        }
    # live_watch: a loader and a human parked in the dumping area make every
    # frame alert, so every frame has a line whose arrival can be timed.
    return {
        "seed": seed,
        "fps": 25.0,
        "duration_s": 240.0,
        "noise": {"keypoint_sigma": 1.0},
        "activity": {"stillness_threshold": 3.0},
        "machines": [
            {"class": "loader", "bbox": [1300.0, 400.0, 170.0, 120.0]},
            {"class": "human", "bbox": [1450.0, 420.0, 40.0, 110.0]},
            {"class": "truck", "bbox": [330.0, 420.0, 180.0, 120.0]},
        ],
    }


def _site(workload: str) -> dict:
    if workload == "cycle_bench":
        return {"regions": REGIONS, "bucket": {"volume_m3": 0.4, "full_rate": 1.01}}
    return {"regions": REGIONS, "activity": {"stillness_threshold": 3.0}}


def write_configs(workload: str, seed: int, work: Path) -> tuple[Path, Path]:
    """Write the scenario and site config; returns their paths."""
    scenario_path = work / "scenario.json"
    site_path = work / "site.json"
    scenario_path.write_text(json.dumps(_scenario(seed, workload)) + "\n")
    site_path.write_text(json.dumps(_site(workload)) + "\n")
    return scenario_path, site_path


# (class, width, height, speed range in px/frame) for the crowd.
_MOVERS = (
    ("truck", 200.0, 130.0, (2.0, 5.0)),
    ("loader", 170.0, 120.0, (2.0, 4.0)),
    ("crane", 150.0, 220.0, (1.0, 3.0)),
)
_HUMAN = ("human", 40.0, 110.0, (0.6, 1.4))
_CONE = ("cone", 20.0, 30.0, (0.0, 0.0))
_JITTER_PX = 3.0


def _waypoint(rng: random.Random, visit: bool) -> tuple[float, float]:
    """A bottom-center target: in the yard below the working areas, or
    (``visit``) inside one of them."""
    if visit:
        cx, cy = DIG_CENTER if rng.random() < 0.5 else DUMP_CENTER
        return cx + rng.uniform(-150.0, 150.0), cy + rng.uniform(-120.0, 120.0)
    return rng.uniform(60.0, WIDTH - 60.0), rng.uniform(800.0, HEIGHT - 10.0)


def _track(rng: random.Random, speed: float, n_frames: int) -> list[tuple[float, float]]:
    """Bottom-center per frame, walking a loop of waypoints at constant speed."""
    # The last of four stops lies inside a working area; that is what alerts.
    points = [_waypoint(rng, k == 3) for k in range(4)]
    x, y = points[0]
    target = 1
    out = []
    for _ in range(n_frames):
        out.append((x, y))
        if speed <= 0:
            continue
        tx, ty = points[target]
        d = math.hypot(tx - x, ty - y)
        if d <= speed:
            x, y = tx, ty
            target = (target + 1) % len(points)
        else:
            x += (tx - x) * speed / d
            y += (ty - y) * speed / d
    return out


def _clamped_box(cx: float, bottom: float, w: float, h: float) -> list[float]:
    w = round(min(max(w, 4.0), WIDTH - 1.0), 2)
    h = round(min(max(h, 4.0), HEIGHT - 1.0), 2)
    x = round(min(max(cx - w / 2.0, 0.0), WIDTH - w - 0.01), 2)
    y = round(min(max(bottom - h, 0.0), HEIGHT - h - 0.01), 2)
    return [x, y, w, h]


def crowd_stream(seed: int, base_stream: Path, out_stream: Path, truth_stream: Path) -> dict:
    """Add a seeded crowd to ``base_stream`` (the simulated excavator).

    Six moving trucks, loaders and cranes, four walking humans and six
    static cones.  Each object is reported as one or two jittered boxes
    per frame, clamped to the image; ``truth_stream`` holds one exact box
    per object (and the excavator's box) for ``eval --task det``.
    """
    rng = random.Random(f"crowded_site:{seed}")
    with open(base_stream, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header, frames = lines[0], lines[1:]
    n = len(frames)
    specs = [_MOVERS[i % 3] for i in range(6)] + [_HUMAN] * 4 + [_CONE] * 6
    objects = []
    for cls, w, h, (lo, hi) in specs:
        speed = rng.uniform(lo, hi) if hi else 0.0
        objects.append((cls, w, h, rng.uniform(0.6, 0.95), _track(rng, speed, n)))
    boxes = 0
    with open(out_stream, "w", encoding="utf-8") as out, open(
        truth_stream, "w", encoding="utf-8"
    ) as truth:
        out.write(header + "\n")
        truth.write(header + "\n")
        for f, line in enumerate(frames):
            frame = json.loads(line)
            dets = frame["detections"]
            truth_dets = [
                {"class": d["class"], "bbox": d["bbox"], "score": 1.0} for d in dets
            ]
            for cls, w, h, base_score, path in objects:
                cx, bottom = path[f]
                truth_dets.append(
                    {"class": cls, "bbox": _clamped_box(cx, bottom, w, h), "score": 1.0}
                )
                copies = 2 if rng.random() < 0.5 else 1
                for k in range(copies):
                    drop = rng.uniform(0.0, 0.1) if k == 0 else rng.uniform(0.1, 0.4)
                    dets.append(
                        {
                            "class": cls,
                            "bbox": _clamped_box(
                                cx + rng.gauss(0.0, _JITTER_PX),
                                bottom + rng.gauss(0.0, _JITTER_PX),
                                w + rng.gauss(0.0, _JITTER_PX),
                                h + rng.gauss(0.0, _JITTER_PX),
                            ),
                            "score": round(max(0.05, base_score - drop), 4),
                        }
                    )
            boxes += len(dets)
            out.write(json.dumps(frame, separators=(",", ":")) + "\n")
            truth.write(
                json.dumps(
                    {"index": frame["index"], "detections": truth_dets, "poses": []},
                    separators=(",", ":"),
                )
                + "\n"
            )
    return {"frames": n, "detections": boxes}
