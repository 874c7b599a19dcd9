"""Mutated config and result files have two outcomes only.

Each example starts from a valid config file and drops, renames or
replaces a few of its keys and values.  A scenario file, with an inject
spec, must either raise ConfigError or give a simulation whose stream
parses back strictly: no traceback, and no stream that ``analyze`` would
reject.  A site config must either raise ConfigError or give a config
whose every number is finite.  An analysis directory with one cell of
``timeline.csv``, ``meta.json`` or ``report.csv`` replaced must make
``report`` exit 0, 2 or 3 without a traceback, and on 0 write only
finite numbers.
"""

import copy
import csv
import json
import math
import shutil
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sitewatch.activity import ActivityConfig
from sitewatch.cli import main
from sitewatch.config import SiteConfig, site_config_from_dict
from sitewatch.errors import ConfigError
from sitewatch.simulator import (
    DurationRange,
    MachineSpec,
    NoiseModel,
    ScenarioConfig,
    run_scenario,
    scenario_from_dict,
)
from sitewatch.streams import MachineClass, parse_stream

from helpers import REGIONS, scenario_to_dict, site_config_to_dict

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


# Each value as a JSON literal for meta.json and as text for a CSV cell.
CELL_VALUES = {
    "NaN": "NaN",
    "Infinity": "Infinity",
    "-Infinity": "-Infinity",
    "1e308": "1e308",
    "1e-320": "1e-320",
    "-0.0": "-0.0",
    "1" + "0" * 400: "1" + "0" * 400,
    "true": "true",
    '""': "",
    '"x"': "x",
}


@pytest.fixture(scope="module")
def analysis_dir(tmp_path_factory):
    """A two-cycle analysis with its meta.json, timeline.csv and report.csv."""
    root = tmp_path_factory.mktemp("report_fuzz")
    config = ScenarioConfig(
        seed=1,
        cycle_count=2,
        dig=DurationRange(2.0, 4.0),
        swing=DurationRange(1.8, 3.2),
        dump=DurationRange(2.0, 4.0),
    )
    (root / "scenario.json").write_text(json.dumps(scenario_to_dict(config)))
    site = site_config_to_dict(SiteConfig(regions=config.regions))
    (root / "site.json").write_text(json.dumps(site))
    assert main(["simulate", "-c", str(root / "scenario.json"), "-o", str(root / "sim")]) == 0
    stream = str(root / "sim" / "stream.jsonl")
    out = root / "analysis"
    assert main(["analyze", "-c", str(root / "site.json"), "-i", stream, "-o", str(out)]) == 0
    return out


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _mutate(src: Path, target, value: str) -> None:
    """Put ``value`` (a CELL_VALUES key) in one cell under ``src``."""
    kind, where = target
    if kind == "meta":
        meta = json.loads((src / "meta.json").read_text())
        text = json.dumps(dict(meta, fps="FPS")).replace('"FPS"', value)
        (src / "meta.json").write_text(text)
        return
    name, column = ("timeline.csv", where[1]) if kind == "timeline" else ("report.csv", "value")
    rows = _read_rows(src / name)
    body = rows[1:]
    if kind == "timeline":
        row = body[where[0] % len(body)]
    else:
        row = next(r for r in body if r[0] == where)
    row[rows[0].index(column)] = CELL_VALUES[value]
    _write_rows(src / name, rows)


_TARGETS = st.one_of(
    st.just(("meta", "fps")),
    st.tuples(
        st.just("timeline"),
        st.tuples(st.integers(0, 7), st.sampled_from(["start_s", "end_s", "state"])),
    ),
    st.tuples(st.just("report"), st.sampled_from(["bucket_volume_m3", "bucket_full_rate"])),
)


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(target=_TARGETS, value=st.sampled_from(list(CELL_VALUES)))
@example(target=("timeline", (-1, "end_s")), value="1e308")
@example(target=("meta", "fps"), value="1e-320")
@example(target=("report", "bucket_volume_m3"), value="-0.0")
def test_a_mutated_analysis_is_rejected_or_reported_in_finite_numbers(
    analysis_dir, target, value
):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "analysis", Path(tmp) / "out"
        shutil.copytree(analysis_dir, src)
        _mutate(src, target, value)
        code = main(["report", "-i", str(src), "-o", str(out)])
        assert code in (0, 2, 3)
        if code != 0:
            return
        report = _read_rows(out / "report.csv")[1:]
        cycles = _read_rows(out / "cycles.csv")[1:]
        for cell in [v for _, v in report if v != ""] + [v for row in cycles for v in row]:
            assert math.isfinite(float(cell)), (target, value, cell)
        # Every report value is at least 0, and -0.0 is written as 0.
        assert not any(v.startswith("-") for _, v in report), (target, value, report)
