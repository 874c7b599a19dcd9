"""Site configuration: working areas, thresholds, bucket parameters.

The site config is a JSON file.  Every section except ``regions`` is
optional and falls back to defaults; unknown keys are rejected so typos
fail loudly instead of silently running with defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .activity import ActivityConfig
from .errors import ConfigError
from .geometry import Region, RegionLabel, validate_regions
from .productivity import RATE_DENOMINATORS
from .streams import check_fields, number_field


@dataclass(frozen=True)
class SiteConfig:
    regions: tuple[Region, ...]
    activity: ActivityConfig = field(default_factory=ActivityConfig)
    # Checked here so a bad value fails when the config is read.  The
    # soft-NMS values are checked nowhere else: soft_nms_indexed runs on
    # every frame and takes them as they are held here.
    nms_iou: float = number_field(0.3, "[0, 1]")
    nms_decay: float = number_field(0.5, "(0, inf)")
    nms_score_floor: float = number_field(0.001, "[0, 1]")
    track_iou: float = number_field(0.3, "[0, 1]")
    track_miss_cap: int = number_field(25, "[1, inf)", integer=True)
    clearance_window: int = number_field(25, "[1, inf)", integer=True)
    bucket_volume_m3: float = number_field(0.4, "[0, inf)")
    bucket_full_rate: float = number_field(1.0, "[0, inf)")
    rate_denominator: str = "dig_span"

    def __post_init__(self):
        validate_regions(self.regions)
        if self.rate_denominator not in RATE_DENOMINATORS:
            raise ValueError(
                f"rate_denominator must be one of {RATE_DENOMINATORS}"
            )
        check_fields(self)


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
        return Region(label, polygon)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid region polygon: {exc}") from None


def activity_from_dict(obj: dict) -> ActivityConfig:
    keys = {f.name for f in fields(ActivityConfig)}
    expect_keys(obj, keys, set(), "activity config")
    try:
        return ActivityConfig(**obj)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid activity config: {exc}") from None


def _regions_from_list(value) -> tuple[Region, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError("regions must be a non-empty list")
    return tuple(region_from_dict(r) for r in value)


# The decoder of each value a config file does not hold as it is in
# memory; every other field is read as it is written.
CODECS = {"regions": _regions_from_list, "activity": activity_from_dict}


def fields_from_dict(
    obj: dict, table: dict, codecs: dict, what: str, required=(), extra=()
) -> dict:
    """A config dataclass's keyword arguments, read from its JSON object.

    ``table`` maps each JSON key, or "section.key" for a key inside a
    section object, to a field name, in the order the file is written.
    Keys other than these and the top-level ``extra`` ones are rejected.
    """
    keys: dict[str, set] = {"": set()}
    for path in table:
        section, _, key = path.rpartition(".")
        keys[""].add(section or key)
        keys.setdefault(section, set()).add(key)
    expect_keys(obj, keys[""] | set(extra), set(required), what)
    for section, names in keys.items():
        if section and section in obj:
            expect_keys(obj[section], names, set(), f"{what} {section}")
    kwargs = {}
    for path, name in table.items():
        section, _, key = path.rpartition(".")
        values = obj.get(section, {}) if section else obj
        if key in values:
            decode = codecs.get(name)
            try:
                kwargs[name] = values[key] if decode is None else decode(values[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"invalid {what} {path}: {exc}") from None
    return kwargs


# JSON key -> SiteConfig field; each default is SiteConfig's own.
_SITE_FIELDS = {
    "regions": "regions",
    "activity": "activity",
    "nms.iou_threshold": "nms_iou",
    "nms.decay": "nms_decay",
    "nms.score_floor": "nms_score_floor",
    "tracking.iou_threshold": "track_iou",
    "tracking.miss_cap": "track_miss_cap",
    "safety.clearance_window": "clearance_window",
    "bucket.volume_m3": "bucket_volume_m3",
    "bucket.full_rate": "bucket_full_rate",
    "rate_denominator": "rate_denominator",
}


def site_config_from_dict(obj: dict) -> SiteConfig:
    kwargs = fields_from_dict(obj, _SITE_FIELDS, CODECS, "site config", {"regions"})
    try:
        return SiteConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid site config: {exc}") from None


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
