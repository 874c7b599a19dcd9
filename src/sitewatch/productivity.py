"""Working-cycle extraction and the excavation productivity figure.

A working cycle is the interval between the start times of two
neighboring digging segments, so N digging starts yield N - 1 complete
cycles.  Productivity is cycles/hr times bucket volume times bucket full
rate; the full rate comes from operator measurement, not vision.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .activity import ActionState, ActionTimeline

RATE_DENOMINATORS = ("dig_span", "stream")


@dataclass(frozen=True)
class CycleRecord:
    start_frame: int  # start of a digging segment
    end_frame: int  # start of the next digging segment
    duration_s: float

    def __post_init__(self):
        if self.end_frame <= self.start_frame:
            raise ValueError("cycle must end after it starts")


@dataclass(frozen=True)
class ProductivityReport:
    cycles: list[CycleRecord]
    observed_s: float
    rate_denominator_s: float
    cycles_per_hr: float
    bucket_volume_m3: float
    bucket_full_rate: float
    productivity_m3_per_hr: float
    state_seconds: dict[str, float]
    incomplete_cycle_s: float | None


def detect_cycles(timeline: ActionTimeline) -> list[CycleRecord]:
    """Pair up consecutive digging-segment starts into cycles."""
    starts = [
        seg.start_frame
        for seg in timeline.segments
        if seg.state is ActionState.DIGGING
    ]
    return [
        CycleRecord(a, b, (b - a) / timeline.fps)
        for a, b in zip(starts, starts[1:])
    ]


def compute_productivity(
    cycles_per_hr: float, bucket_volume_m3: float, full_rate: float
) -> float:
    """Cycles/hr times bucket volume (m3) times bucket full rate."""
    if cycles_per_hr < 0 or bucket_volume_m3 < 0 or full_rate < 0:
        raise ValueError("productivity factors must be non-negative")
    return cycles_per_hr * bucket_volume_m3 * full_rate


def build_report(
    timeline: ActionTimeline,
    bucket_volume_m3: float,
    bucket_full_rate: float,
    rate_denominator: str = "dig_span",
) -> ProductivityReport:
    """Summarize a timeline into the productivity report.

    rate_denominator picks what the cycle rate divides by: "dig_span"
    (first to last digging start; lead-in and lead-out footage does not
    bias the rate) or "stream" (whole observed span).
    """
    if rate_denominator not in RATE_DENOMINATORS:
        raise ValueError(f"rate_denominator must be one of {RATE_DENOMINATORS}")
    cycles = detect_cycles(timeline)
    starts = [
        seg.start_frame
        for seg in timeline.segments
        if seg.state is ActionState.DIGGING
    ]
    observed_s = timeline.total_s
    if rate_denominator == "dig_span":
        denom_s = (starts[-1] - starts[0]) / timeline.fps if len(starts) >= 2 else 0.0
    else:
        denom_s = observed_s
    cycles_per_hr = len(cycles) / (denom_s / 3600.0) if denom_s > 0 else 0.0
    productivity = compute_productivity(
        cycles_per_hr, bucket_volume_m3, bucket_full_rate
    )
    incomplete: float | None = None
    if starts and timeline.end_frame is not None and timeline.end_frame > starts[-1]:
        incomplete = (timeline.end_frame - starts[-1] + 1) / timeline.fps
    return ProductivityReport(
        cycles=cycles,
        observed_s=observed_s,
        rate_denominator_s=denom_s,
        cycles_per_hr=cycles_per_hr,
        bucket_volume_m3=bucket_volume_m3,
        bucket_full_rate=bucket_full_rate,
        productivity_m3_per_hr=productivity,
        state_seconds=timeline.state_seconds(),
        incomplete_cycle_s=incomplete,
    )


_STATE_ROW_ORDER = ("digging", "swinging", "dumping", "idle", "unknown")


def _fmt(value: float) -> str:
    # 10 significant digits keep report values readable (64.64, not the
    # 1-ulp float artifact 64.64000000000001) without hiding real error.
    # Adding 0.0 turns -0.0 into 0.0, so no report value reads "-0".
    return format(value + 0.0, ".10g")


def report_rows(report: ProductivityReport) -> list[tuple[str, str]]:
    """Flatten a report into (field, value) rows for CSV and console."""
    rows = [
        ("cycles", str(len(report.cycles))),
        ("observed_s", _fmt(report.observed_s)),
        ("rate_denominator_s", _fmt(report.rate_denominator_s)),
        ("cycles_per_hr", _fmt(report.cycles_per_hr)),
        ("bucket_volume_m3", _fmt(report.bucket_volume_m3)),
        ("bucket_full_rate", _fmt(report.bucket_full_rate)),
        ("productivity_m3_per_hr", _fmt(report.productivity_m3_per_hr)),
    ]
    for state in _STATE_ROW_ORDER:
        rows.append((f"state_s_{state}", _fmt(report.state_seconds.get(state, 0.0))))
    rows.append(
        (
            "incomplete_cycle_s",
            "" if report.incomplete_cycle_s is None else _fmt(report.incomplete_cycle_s),
        )
    )
    return rows


def write_report_csv(report: ProductivityReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("field", "value"))
        writer.writerows(report_rows(report))


def write_cycles_csv(cycles: list[CycleRecord], fps: float, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("cycle", "start_s", "end_s", "duration_s"))
        for i, cycle in enumerate(cycles):
            writer.writerow(
                [
                    i,
                    repr(cycle.start_frame / fps),
                    repr(cycle.end_frame / fps),
                    repr(cycle.duration_s),
                ]
            )
