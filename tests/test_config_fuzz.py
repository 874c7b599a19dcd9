"""Mutated config files have two outcomes only.

Each example starts from a valid config file and drops, renames or
replaces a few of its keys and values.  A scenario file, with an inject
spec, must either raise ConfigError or give a simulation whose stream
parses back strictly: no traceback, and no stream that ``analyze`` would
reject.  A site config must either raise ConfigError or give a config
whose every number is finite.
"""

import copy
import json
import math
import sys
from dataclasses import fields

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sitewatch.activity import ActivityConfig
from sitewatch.config import SiteConfig, site_config_from_dict, site_config_to_dict
from sitewatch.errors import ConfigError
from sitewatch.simulator import (
    DurationRange,
    MachineSpec,
    NoiseModel,
    ScenarioConfig,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from sitewatch.streams import MachineClass, parse_stream

from helpers import REGIONS

# One short cycle with every section present, so a mutation can reach
# each key; dropping cycle_count leaves a 6 s duration-driven stream.
BASE = scenario_to_dict(
    ScenarioConfig(
        seed=1,
        duration_s=6.0,
        cycle_count=1,
        dig=DurationRange(1.0, 1.5),
        swing=DurationRange(0.8, 1.0),
        dump=DurationRange(1.0, 1.5),
        idle=DurationRange(0.5, 1.0),
        idle_prob=0.5,
        machines=(MachineSpec(MachineClass.TRUCK, (1332.0, 400.0, 160.0, 120.0), 2, 30),),
        noise=NoiseModel(keypoint_sigma=1.0, drop_prob=0.05, bbox_sigma=1.0),
    )
)
BASE["inject"] = {"class": "human", "first_frame": 5, "last_frame": 20, "at": [420.0, 505.0]}

REPLACEMENTS = [
    math.nan,
    math.inf,
    -math.inf,
    True,
    False,
    10**400,
    2.5,
    -1,
    0,
    "3",
    "x",
    None,
    [],
    [[1.0, 2.0]],
    {},
]


def _paths(obj, prefix=()):
    """The path of every value below ``obj``, parents first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, base):
    obj = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(list(_paths(obj))))
        parent = obj
        for p in parents:
            parent = parent[p]
        value = parent[key]
        action = draw(st.sampled_from(["replace", "drop", "rename", "fraction"]))
        if action == "drop":
            del parent[key]
        elif action == "rename" and isinstance(parent, dict):
            parent[key + "_x"] = parent.pop(key)
        elif action == "fraction" and type(value) is int and abs(value) < 2**53:
            parent[key] = value + 0.5
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    # What a config file holds, read back as the CLI reads it.
    return json.loads(json.dumps(obj))


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated(BASE))
def test_a_mutated_scenario_is_rejected_or_streams_a_valid_file(obj):
    try:
        config, inject = scenario_from_dict(obj)
        sim = run_scenario(config, inject)
    except ConfigError:
        return
    parser = parse_stream(sim.lines(), strict=True)
    assert sum(1 for _ in parser) == len(sim.frames)


# Every section present, with no value at its default, so a mutation can
# reach each key and each region polygon's coordinates.
SITE_BASE = site_config_to_dict(
    SiteConfig(
        regions=REGIONS,
        activity=ActivityConfig(
            stillness_threshold=0.02,
            stillness_mode="bbox_frac",
            motion_window=7,
            idle_grace_s=2.0,
            min_segment_s=0.25,
            probe_conf_floor=0.4,
        ),
        nms_iou=0.4,
        nms_decay=0.7,
        nms_score_floor=0.01,
        track_iou=0.25,
        track_miss_cap=30,
        clearance_window=50,
        bucket_volume_m3=0.9,
        bucket_full_rate=1.01,
        rate_denominator="stream",
    )
)


def _numbers(cfg: SiteConfig):
    """Every value of ``cfg`` but its strings, sections and regions, and
    every polygon coordinate."""
    for obj in (cfg, cfg.activity):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if not isinstance(value, (str, tuple, ActivityConfig)):
                yield f.name, value
    for region in cfg.regions:
        for x, y in region.polygon:
            yield region.label.value, x
            yield region.label.value, y


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutated(SITE_BASE))
def test_a_mutated_site_config_is_rejected_or_holds_only_finite_numbers(obj):
    try:
        cfg = site_config_from_dict(obj)
    except ConfigError:
        return
    for name, value in _numbers(cfg):
        assert type(value) in (int, float), (name, value)
        # Finite, and for an int, within float range.
        assert abs(value) <= sys.float_info.max, (name, value)
