"""Site config parsing: defaults, round trips, and loud rejection."""

import json
import re

import pytest

from sitewatch.activity import ActivityConfig
from sitewatch.config import (
    SiteConfig,
    load_site_config,
    region_from_dict,
    site_config_from_dict,
)
from sitewatch.errors import ConfigError
from sitewatch.geometry import Region, RegionLabel

from helpers import (
    DIG_SQUARE,
    DUMP_SQUARE,
    REGIONS,
    readme_section,
    region_to_dict,
    site_config_to_dict,
    write_site_config,
)


def _minimal_dict():
    return {
        "regions": [
            {"label": "digging", "polygon": [list(p) for p in DIG_SQUARE.polygon]},
            {"label": "dumping", "polygon": [list(p) for p in DUMP_SQUARE.polygon]},
        ]
    }


def test_minimal_config_gets_defaults():
    cfg = site_config_from_dict(_minimal_dict())
    assert cfg.regions == REGIONS
    assert cfg.activity == ActivityConfig()
    assert cfg.nms_iou == 0.3
    assert cfg.nms_decay == 0.5
    assert cfg.track_miss_cap == 25
    assert cfg.clearance_window == 25
    assert cfg.bucket_volume_m3 == 0.4
    assert cfg.bucket_full_rate == 1.0
    assert cfg.rate_denominator == "dig_span"


def test_full_round_trip():
    cfg = SiteConfig(
        regions=REGIONS,
        activity=ActivityConfig(stillness_threshold=2.5, motion_window=7),
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
    assert site_config_from_dict(site_config_to_dict(cfg)) == cfg


def test_file_round_trip(tmp_path):
    cfg = SiteConfig(regions=REGIONS, bucket_full_rate=1.01)
    path = tmp_path / "site.json"
    write_site_config(cfg, path)
    assert load_site_config(path) == cfg


def test_unknown_keys_rejected():
    obj = _minimal_dict()
    obj["rain_mode"] = True
    with pytest.raises(ConfigError, match="rain_mode"):
        site_config_from_dict(obj)
    nested = _minimal_dict()
    nested["nms"] = {"iou_threshold": 0.3, "sigma": 0.5}
    with pytest.raises(ConfigError, match="sigma"):
        site_config_from_dict(nested)


def test_regions_are_required():
    with pytest.raises(ConfigError, match="regions"):
        site_config_from_dict({})
    with pytest.raises(ConfigError):
        site_config_from_dict({"regions": []})


def test_overlapping_regions_rejected():
    obj = {
        "regions": [
            {"label": "digging", "polygon": [[0, 0], [100, 0], [100, 100], [0, 100]]},
            {"label": "dumping", "polygon": [[50, 50], [150, 50], [150, 150], [50, 150]]},
        ]
    }
    with pytest.raises(ConfigError):
        site_config_from_dict(obj)


def test_duplicate_region_labels_rejected():
    obj = {
        "regions": [
            {"label": "digging", "polygon": [list(p) for p in DIG_SQUARE.polygon]},
            {"label": "digging", "polygon": [list(p) for p in DUMP_SQUARE.polygon]},
        ]
    }
    with pytest.raises(ConfigError):
        site_config_from_dict(obj)


def test_bad_activity_values_are_config_errors():
    obj = _minimal_dict()
    obj["activity"] = {"stillness_threshold": -1.0}
    with pytest.raises(ConfigError):
        site_config_from_dict(obj)
    obj["activity"] = {"stillness_mode": "furlongs"}
    with pytest.raises(ConfigError):
        site_config_from_dict(obj)


# Values soft-NMS, the tracker, the safety monitor or the motion window
# would reject (or silently mistake) once analysis starts.
BAD_VALUES = [
    ("nms", "decay", 0),
    ("nms", "decay", "a"),
    ("nms", "decay", float("nan")),
    ("nms", "iou_threshold", 2),
    ("nms", "iou_threshold", True),
    ("nms", "score_floor", 5),
    ("nms", "score_floor", None),
    ("tracking", "iou_threshold", -1),
    ("tracking", "miss_cap", 2.5),
    ("tracking", "miss_cap", 0),
    ("tracking", "miss_cap", True),
    ("safety", "clearance_window", 2.5),
    ("safety", "clearance_window", "25"),
    ("bucket", "volume_m3", True),
    ("bucket", "full_rate", -0.5),
    ("activity", "motion_window", 2.5),
    # NaN and infinities pass the range comparisons, and a bool is an int.
    ("activity", "idle_grace_s", float("nan")),
    ("activity", "stillness_threshold", True),
    ("activity", "min_segment_s", float("inf")),
    ("activity", "stillness_threshold", float("inf")),
    ("activity", "probe_conf_floor", False),
    ("activity", "idle_grace_s", -float("inf")),
    ("activity", "min_segment_s", 10**400),
    ("nms", "decay", float("inf")),
    ("bucket", "volume_m3", float("inf")),
    # soft_nms_indexed and update_pause take these as the config holds them.
    ("nms", "iou_threshold", 1.5),
    ("nms", "score_floor", -0.1),
    ("safety", "clearance_window", 0),
]


@pytest.mark.parametrize("section, key, value", BAD_VALUES)
def test_bad_section_values_are_config_errors(section, key, value):
    obj = _minimal_dict()
    obj[section] = {key: value}
    with pytest.raises(ConfigError, match="must be"):
        site_config_from_dict(obj)


def test_section_values_reach_their_fields():
    obj = _minimal_dict()
    obj["nms"] = {"decay": 2, "score_floor": 0}
    obj["tracking"] = {"miss_cap": 1}
    cfg = site_config_from_dict(obj)
    assert (cfg.nms_iou, cfg.nms_decay, cfg.nms_score_floor) == (0.3, 2, 0)
    assert (cfg.track_iou, cfg.track_miss_cap) == (0.3, 1)
    assert site_config_to_dict(cfg)["nms"] == {
        "iou_threshold": 0.3,
        "decay": 2,
        "score_floor": 0,
    }


def test_bad_rate_denominator_rejected():
    obj = _minimal_dict()
    obj["rate_denominator"] = "wall_clock"
    with pytest.raises(ConfigError):
        site_config_from_dict(obj)


def test_region_dict_round_trip():
    region = Region(RegionLabel.DIGGING, DIG_SQUARE.polygon)
    assert region_from_dict(region_to_dict(region)) == region
    with pytest.raises(ConfigError):
        region_from_dict({"label": "parking", "polygon": [[0, 0], [1, 0], [1, 1]]})
    with pytest.raises(ConfigError):
        region_from_dict({"label": "digging", "polygon": [[0, 0], [1, 0]]})


def test_malformed_json_file_is_a_config_error(tmp_path):
    path = tmp_path / "site.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_site_config(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigError, match="top level"):
        load_site_config(path)


def test_config_exit_code_is_two():
    try:
        site_config_from_dict({})
    except ConfigError as exc:
        assert exc.exit_code == 2


def test_readme_site_configuration_blocks_load(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", readme_section("Site configuration"), re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"site{i}.json"
        path.write_text(block, encoding="utf-8")
        assert isinstance(load_site_config(path), SiteConfig)
