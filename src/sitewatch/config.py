"""Site configuration: working areas, thresholds, bucket parameters.

The site config is a JSON file.  Every section except ``regions`` is
optional and falls back to defaults; unknown keys are rejected so typos
fail loudly instead of silently running with defaults.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .activity import ActivityConfig
from .errors import ConfigError
from .geometry import Region, RegionLabel, validate_regions
from .productivity import RATE_DENOMINATORS
from .streams import is_number


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
        # The ranges soft_nms_indexed and IouTracker enforce, checked
        # here so a bad value fails when the config is read.
        for name in ("nms_iou", "nms_score_floor", "track_iou"):
            value = getattr(self, name)
            if not is_number(value) or not 0 <= value <= 1:
                raise ValueError(f"{name} must be a number in [0, 1]")
        if not is_number(self.nms_decay) or not self.nms_decay > 0:
            raise ValueError("nms_decay must be a positive number")
        for name in ("bucket_volume_m3", "bucket_full_rate"):
            value = getattr(self, name)
            if not is_number(value) or not value >= 0:
                raise ValueError(f"{name} must be a non-negative number")
        for name in ("track_miss_cap", "clearance_window"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1")


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


def activity_from_dict(obj: dict) -> ActivityConfig:
    keys = {f.name for f in fields(ActivityConfig)}
    expect_keys(obj, keys, set(), "activity config")
    try:
        return ActivityConfig(**obj)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid activity config: {exc}") from None


def activity_to_dict(cfg: ActivityConfig) -> dict:
    return asdict(cfg)


# (JSON section, key) -> SiteConfig field, in the order the file is
# written; each default is SiteConfig's own.
_SECTION_FIELDS = {
    ("nms", "iou_threshold"): "nms_iou",
    ("nms", "decay"): "nms_decay",
    ("nms", "score_floor"): "nms_score_floor",
    ("tracking", "iou_threshold"): "track_iou",
    ("tracking", "miss_cap"): "track_miss_cap",
    ("safety", "clearance_window"): "clearance_window",
    ("bucket", "volume_m3"): "bucket_volume_m3",
    ("bucket", "full_rate"): "bucket_full_rate",
}
_SECTION_KEYS = {
    section: {k for s, k in _SECTION_FIELDS if s == section}
    for section, _ in _SECTION_FIELDS
}

_SITE_KEYS = {"regions", "activity", "rate_denominator", *_SECTION_KEYS}


def site_config_from_dict(obj: dict) -> SiteConfig:
    expect_keys(obj, _SITE_KEYS, {"regions"}, "site config")
    if not isinstance(obj["regions"], list) or not obj["regions"]:
        raise ConfigError("site config needs a non-empty regions list")
    regions = tuple(region_from_dict(r) for r in obj["regions"])
    kwargs: dict = {"regions": regions}
    if "activity" in obj:
        kwargs["activity"] = activity_from_dict(obj["activity"])
    for section, keys in _SECTION_KEYS.items():
        if section in obj:
            expect_keys(obj[section], keys, set(), f"{section} config")
    for (section, key), name in _SECTION_FIELDS.items():
        if key in obj.get(section, ()):
            kwargs[name] = obj[section][key]
    if "rate_denominator" in obj:
        kwargs["rate_denominator"] = obj["rate_denominator"]
    try:
        return SiteConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid site config: {exc}") from None


def site_config_to_dict(cfg: SiteConfig) -> dict:
    out = {
        "regions": [region_to_dict(r) for r in cfg.regions],
        "activity": activity_to_dict(cfg.activity),
    }
    for (section, key), name in _SECTION_FIELDS.items():
        out.setdefault(section, {})[key] = getattr(cfg, name)
    out["rate_denominator"] = cfg.rate_denominator
    return out


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
