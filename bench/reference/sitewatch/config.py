"""Site configuration: working areas, thresholds, bucket parameters.

The site config is a JSON file.  Every section except ``regions`` is
optional and falls back to defaults; unknown keys are rejected so typos
fail loudly instead of silently running with defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .activity import ActivityConfig
from .errors import ConfigError
from .geometry import Region, RegionLabel, validate_regions
from .productivity import RATE_DENOMINATORS


@dataclass(frozen=True)
class SiteConfig:
    regions: tuple[Region, ...]
    activity: ActivityConfig = field(default_factory=ActivityConfig)
    nms_iou: float = 0.3
    nms_decay: float = 0.5
    nms_score_floor: float = 0.001
    track_iou: float = 0.3
    track_miss_cap: int = 25
    clearance_window: int = 25
    bucket_volume_m3: float = 0.4
    bucket_full_rate: float = 1.0
    rate_denominator: str = "dig_span"

    def __post_init__(self):
        validate_regions(self.regions)
        if self.rate_denominator not in RATE_DENOMINATORS:
            raise ValueError(
                f"rate_denominator must be one of {RATE_DENOMINATORS}"
            )
        if self.bucket_volume_m3 < 0 or self.bucket_full_rate < 0:
            raise ValueError("bucket parameters must be non-negative")
        if self.track_miss_cap < 1 or self.clearance_window < 1:
            raise ValueError("frame caps must be at least 1")


def expect_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    """Reject unknown or missing keys in a config mapping."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = obj.keys() - allowed
    if unknown:
        raise ConfigError(f"{what} has unknown key(s): {sorted(unknown)}")
    missing = required - obj.keys()
    if missing:
        raise ConfigError(f"{what} missing required key(s): {sorted(missing)}")


def region_from_dict(obj: dict) -> Region:
    expect_keys(obj, {"label", "polygon"}, {"label", "polygon"}, "region")
    try:
        label = RegionLabel(obj["label"])
    except ValueError:
        raise ConfigError(f"unknown region label {obj['label']!r}") from None
    polygon = obj["polygon"]
    if not isinstance(polygon, list):
        raise ConfigError("region polygon must be a list of [x, y] pairs")
    try:
        return Region(label, tuple((p[0], p[1]) for p in polygon))
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"invalid region polygon: {exc}") from None


def region_to_dict(region: Region) -> dict:
    return {
        "label": region.label.value,
        "polygon": [[x, y] for x, y in region.polygon],
    }


_ACTIVITY_KEYS = {
    "stillness_threshold",
    "stillness_mode",
    "motion_window",
    "idle_grace_s",
    "min_segment_s",
    "probe_conf_floor",
}


def activity_from_dict(obj: dict) -> ActivityConfig:
    expect_keys(obj, _ACTIVITY_KEYS, set(), "activity config")
    try:
        return ActivityConfig(**obj)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid activity config: {exc}") from None


def activity_to_dict(cfg: ActivityConfig) -> dict:
    return {
        "stillness_threshold": cfg.stillness_threshold,
        "stillness_mode": cfg.stillness_mode,
        "motion_window": cfg.motion_window,
        "idle_grace_s": cfg.idle_grace_s,
        "min_segment_s": cfg.min_segment_s,
        "probe_conf_floor": cfg.probe_conf_floor,
    }


_SITE_KEYS = {
    "regions",
    "activity",
    "nms",
    "tracking",
    "safety",
    "bucket",
    "rate_denominator",
}


def site_config_from_dict(obj: dict) -> SiteConfig:
    expect_keys(obj, _SITE_KEYS, {"regions"}, "site config")
    if not isinstance(obj["regions"], list) or not obj["regions"]:
        raise ConfigError("site config needs a non-empty regions list")
    regions = tuple(region_from_dict(r) for r in obj["regions"])
    kwargs: dict = {"regions": regions}
    if "activity" in obj:
        kwargs["activity"] = activity_from_dict(obj["activity"])
    if "nms" in obj:
        nms = obj["nms"]
        expect_keys(nms, {"iou_threshold", "decay", "score_floor"}, set(), "nms config")
        kwargs["nms_iou"] = nms.get("iou_threshold", 0.3)
        kwargs["nms_decay"] = nms.get("decay", 0.5)
        kwargs["nms_score_floor"] = nms.get("score_floor", 0.001)
    if "tracking" in obj:
        tracking = obj["tracking"]
        expect_keys(tracking, {"iou_threshold", "miss_cap"}, set(), "tracking config")
        kwargs["track_iou"] = tracking.get("iou_threshold", 0.3)
        kwargs["track_miss_cap"] = tracking.get("miss_cap", 25)
    if "safety" in obj:
        safety = obj["safety"]
        expect_keys(safety, {"clearance_window"}, set(), "safety config")
        kwargs["clearance_window"] = safety.get("clearance_window", 25)
    if "bucket" in obj:
        bucket = obj["bucket"]
        expect_keys(bucket, {"volume_m3", "full_rate"}, set(), "bucket config")
        kwargs["bucket_volume_m3"] = bucket.get("volume_m3", 0.4)
        kwargs["bucket_full_rate"] = bucket.get("full_rate", 1.0)
    if "rate_denominator" in obj:
        kwargs["rate_denominator"] = obj["rate_denominator"]
    try:
        return SiteConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid site config: {exc}") from None


def site_config_to_dict(cfg: SiteConfig) -> dict:
    return {
        "regions": [region_to_dict(r) for r in cfg.regions],
        "activity": activity_to_dict(cfg.activity),
        "nms": {
            "iou_threshold": cfg.nms_iou,
            "decay": cfg.nms_decay,
            "score_floor": cfg.nms_score_floor,
        },
        "tracking": {"iou_threshold": cfg.track_iou, "miss_cap": cfg.track_miss_cap},
        "safety": {"clearance_window": cfg.clearance_window},
        "bucket": {"volume_m3": cfg.bucket_volume_m3, "full_rate": cfg.bucket_full_rate},
        "rate_denominator": cfg.rate_denominator,
    }


def load_json_config(path, what: str) -> dict:
    """Read a JSON config file; malformed JSON is a config error."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path}: invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} {path}: top level must be a JSON object")
    return obj


def load_site_config(path) -> SiteConfig:
    return site_config_from_dict(load_json_config(path, "site config"))


def write_site_config(cfg: SiteConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(site_config_to_dict(cfg), fh, indent=2)
        fh.write("\n")
