"""Planar geometry: working-area polygons, containment, and pose location.

Working areas are operator-supplied simple polygons in image coordinates.
Containment uses even-odd ray casting with points on the boundary counted
as inside, so a probe point sitting exactly on an edge still classifies
into that area.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .streams import ARM_JOINT, BUCKET_END1, BUCKET_END2, BUCKET_JOINT, Pose, is_number

Point = tuple[float, float]

_EPS = 1e-9


class RegionLabel(str, Enum):
    """Role of a working area."""

    DIGGING = "digging"
    DUMPING = "dumping"


class LocationLabel(str, Enum):
    """Where an object sits relative to the configured working areas."""

    IN_DIGGING = "in_digging"
    IN_DUMPING = "in_dumping"
    ELSEWHERE = "elsewhere"


_REGION_TO_LOCATION = {
    RegionLabel.DIGGING: LocationLabel.IN_DIGGING,
    RegionLabel.DUMPING: LocationLabel.IN_DUMPING,
}


def _orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b - a) x (c - a); 0 means collinear."""
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if cross > _EPS:
        return 1
    if cross < -_EPS:
        return -1
    return 0


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    """True when p lies on the closed segment a-b."""
    if _orientation(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) - _EPS <= p[0] <= max(a[0], b[0]) + _EPS
        and min(a[1], b[1]) - _EPS <= p[1] <= max(a[1], b[1]) + _EPS
    )


def _segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when closed segments a-b and c-d share any point."""
    o1 = _orientation(a, b, c)
    o2 = _orientation(a, b, d)
    o3 = _orientation(c, d, a)
    o4 = _orientation(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    return (
        (o1 == 0 and _on_segment(c, a, b))
        or (o2 == 0 and _on_segment(d, a, b))
        or (o3 == 0 and _on_segment(a, c, d))
        or (o4 == 0 and _on_segment(b, c, d))
    )


def _edges(polygon: Sequence[Point]) -> list[tuple[Point, Point]]:
    n = len(polygon)
    return [(polygon[i], polygon[(i + 1) % n]) for i in range(n)]


def polygon_area(polygon: Sequence[Point]) -> float:
    """Unsigned shoelace area."""
    total = 0.0
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2.0


def polygon_centroid(polygon: Sequence[Point]) -> Point:
    """Area-weighted centroid; falls back to the vertex mean when degenerate."""
    total = 0.0
    cx = 0.0
    cy = 0.0
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        w = x1 * y2 - x2 * y1
        total += w
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    if abs(total) < _EPS:
        return (
            sum(p[0] for p in polygon) / n,
            sum(p[1] for p in polygon) / n,
        )
    return cx / (3.0 * total), cy / (3.0 * total)


def polygon_is_simple(polygon: Sequence[Point]) -> bool:
    """True when no two non-adjacent edges touch and no vertex repeats."""
    n = len(polygon)
    if len({(float(x), float(y)) for x, y in polygon}) != n:
        return False
    edges = _edges(polygon)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            a, b = edges[i]
            c, d = edges[j]
            if adjacent:
                # Adjacent edges share one vertex; the far endpoints must
                # stay off the other edge or the boundary folds onto itself.
                shared = b if j == i + 1 else a
                far_i = a if shared == b else b
                far_j = d if shared == c else c
                if _on_segment(far_i, c, d) or _on_segment(far_j, a, b):
                    return False
            elif _segments_intersect(a, b, c, d):
                return False
    return True


def validate_polygon(polygon: Sequence[Point]) -> tuple[Point, ...]:
    """The polygon as floats; ValueError unless it is a simple ring with positive area."""
    if len(polygon) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    for p in polygon:
        if len(p) != 2:
            raise ValueError("polygon vertices must be (x, y) pairs")
        x, y = p
        if not (is_number(x) and is_number(y)):
            raise ValueError("polygon vertices must be finite numbers")
    polygon = tuple((float(x), float(y)) for x, y in polygon)
    if polygon_area(polygon) <= _EPS:
        raise ValueError("polygon area must be positive")
    if not polygon_is_simple(polygon):
        raise ValueError("polygon must not self-intersect")
    return polygon


@dataclass(frozen=True)
class Region:
    """A labeled working area."""

    label: RegionLabel
    polygon: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "label", RegionLabel(self.label))
        poly = validate_polygon(self.polygon)
        object.__setattr__(self, "polygon", poly)
        xs = [p[0] for p in poly]
        ys = [p[1] for p in poly]
        bounds = (min(xs) - _EPS, min(ys) - _EPS, max(xs) + _EPS, max(ys) + _EPS)
        object.__setattr__(self, "_bounds", bounds)


def point_in_polygon(point: Point, polygon: Sequence[Point]) -> bool:
    """Even-odd containment; boundary points count as inside.

    Single pass: each edge is tested for carrying the point (within the
    collinearity epsilon) and for a ray crossing.
    """
    x, y = point
    inside = False
    x1, y1 = polygon[-1]
    for x2, y2 in polygon:
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if (
            -_EPS <= cross <= _EPS
            and (x1 if x1 < x2 else x2) - _EPS <= x <= (x1 if x1 > x2 else x2) + _EPS
            and (y1 if y1 < y2 else y2) - _EPS <= y <= (y1 if y1 > y2 else y2) + _EPS
        ):
            return True
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
            inside = not inside
        x1, y1 = x2, y2
    return inside


def point_in_region(point: Point, region: Region) -> bool:
    bx1, by1, bx2, by2 = region._bounds
    x, y = point
    if x < bx1 or x > bx2 or y < by1 or y > by2:
        return False
    return point_in_polygon(point, region.polygon)


def regions_disjoint(a: Region, b: Region) -> bool:
    """True when the two polygons share no point, boundaries included."""
    for ea, eb in ((a, b), (b, a)):
        for vertex in ea.polygon:
            if point_in_polygon(vertex, eb.polygon):
                return False
    for sa in _edges(a.polygon):
        for sb in _edges(b.polygon):
            if _segments_intersect(sa[0], sa[1], sb[0], sb[1]):
                return False
    return True


def validate_regions(regions: Sequence[Region]) -> None:
    """Raise ValueError on duplicate labels or overlapping regions."""
    labels = [r.label for r in regions]
    if len(set(labels)) != len(labels):
        raise ValueError("each region label may be configured only once")
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if not regions_disjoint(regions[i], regions[j]):
                raise ValueError(
                    f"regions {regions[i].label.value!r} and "
                    f"{regions[j].label.value!r} overlap"
                )


def locate_point(point: Point, regions: Sequence[Region]) -> LocationLabel:
    """Map a point to the first containing region, else ELSEWHERE."""
    for region in regions:
        if point_in_region(point, region):
            return _REGION_TO_LOCATION[region.label]
    return LocationLabel.ELSEWHERE


def probe_point(pose: Pose, conf_floor: float = 0.3) -> Point | None:
    """Pick the bucket-side point used to localize an excavator.

    Candidates are the bucket joint, the arm joint, and the midpoint of
    the two bucket ends (whose confidence is the lower of the two ends).
    The highest-confidence candidate at or above conf_floor wins; exact
    ties fall to the earlier candidate in the order above.  Returns None
    when every candidate is below the floor.
    """
    # The first candidate with the highest confidence; it clears the
    # floor exactly when some candidate does.
    x, y, conf = pose[BUCKET_JOINT]
    ax, ay, aconf = pose[ARM_JOINT]
    if aconf > conf:
        x, y, conf = ax, ay, aconf
    e1x, e1y, e1conf = pose[BUCKET_END1]
    e2x, e2y, e2conf = pose[BUCKET_END2]
    end_conf = min(e1conf, e2conf)
    if end_conf > conf:
        if end_conf < conf_floor:
            return None
        return ((e1x + e2x) / 2.0, (e1y + e2y) / 2.0)
    if conf < conf_floor:
        return None
    return (x, y)


def classify_location(
    pose: Pose,
    regions: Sequence[Region],
    conf_floor: float = 0.3,
) -> LocationLabel | None:
    """Locate an excavator pose among the working areas via its probe point.

    Returns None (indeterminate) when no probe candidate clears conf_floor.
    """
    point = probe_point(pose, conf_floor)
    if point is None:
        return None
    return locate_point(point, regions)
