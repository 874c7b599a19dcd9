"""Acceptance checks, one per release criterion.

Run ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Each check is self-contained and pins its own tolerances.
"""

import itertools
import json
import math
import random
from contextlib import contextmanager
from time import perf_counter

import pytest

from sitewatch.activity import ActionState, ActivityConfig
from sitewatch.cli import main
from sitewatch.config import SiteConfig
from sitewatch.errors import EXIT_PARSE, StreamFormatError
from sitewatch.geometry import LocationLabel, RegionLabel
from sitewatch.metrics import (
    DEFAULT_OKS_THRESHOLDS,
    average_precision_11pt,
    keypoint_ap,
    oks,
)
from sitewatch.pipeline import analyze_stream
from sitewatch.safety import PauseSignal, check_collision, update_pause
from sitewatch.simulator import (
    DEFAULT_REGIONS,
    NoiseModel,
    generate,
    productivity_benchmark_config,
)
from sitewatch.streams import (
    MachineClass,
    parse_stream,
    serialize_stream,
    soft_nms_indexed,
)

from helpers import (
    AP_FIXTURES,
    MALFORMED_STREAMS,
    cycle_accuracy,
    frame_states,
    make_pose,
    naive_soft_nms,
    oracle_detection_ap,
    oracle_keypoint_ap,
    random_ap_instance,
    random_detections,
    random_pose_instance,
    random_scenario,
    random_stream,
    scenario_to_dict,
    shift_pose,
    site_config_to_dict,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {label}")
        raise
    print(f"criterion {number}: PASS - {label}")


def test_criterion_1_benchmark_productivity(tmp_path):
    with criterion(1, "benchmark reports 160 cycles/hr, 64.64 m3/hr in under 5 s"):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(
            json.dumps(scenario_to_dict(productivity_benchmark_config())) + "\n"
        )
        site_path = tmp_path / "site.json"
        site = SiteConfig(
            regions=DEFAULT_REGIONS, bucket_volume_m3=0.4, bucket_full_rate=1.01
        )
        site_path.write_text(json.dumps(site_config_to_dict(site)) + "\n")

        started = perf_counter()
        assert main(["simulate", "-c", str(scenario_path), "-o", str(tmp_path / "sim")]) == 0
        assert (
            main(
                [
                    "analyze",
                    "-c",
                    str(site_path),
                    "-i",
                    str(tmp_path / "sim" / "stream.jsonl"),
                    "-o",
                    str(tmp_path / "analysis"),
                ]
            )
            == 0
        )
        elapsed = perf_counter() - started

        truth = json.loads((tmp_path / "sim" / "ground_truth.json").read_text())
        assert truth["fps"] == 25.0
        dig_phases = [p for p in truth["phases"] if p[0] == "digging"]
        assert len(dig_phases) == 41  # 40 complete cycles

        import csv

        with open(tmp_path / "analysis" / "report.csv", newline="") as fh:
            table = dict(list(csv.reader(fh))[1:])
        assert table["cycles"] == "40"
        assert float(table["rate_denominator_s"]) == 900.0
        assert float(table["cycles_per_hr"]) == 160.0
        assert abs(float(table["productivity_m3_per_hr"]) - 64.64) <= 0.01
        assert table["productivity_m3_per_hr"] == "64.64"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_zero_noise_cycle_exactness():
    with criterion(2, "100/100 zero-noise seeds: exact cycles, per-frame agreement"):
        for seed in range(100):
            config = random_scenario(seed, with_machine=(seed % 10 == 0))
            sim = generate(config)
            site = SiteConfig(regions=config.regions, activity=config.activity)
            alerts = []
            result = analyze_stream(sim.lines(), site, on_alerts=alerts.extend)
            assert len(result.report.cycles) == len(sim.truth.cycles), f"seed {seed}"
            got = frame_states(result.runs[result.primary_track])
            assert [f for f, _ in got] == list(range(len(sim.frames)))
            want = frame_states(sim.truth.runs)
            warm_up_end = next(f for f, s in want if s is not ActionState.UNKNOWN)
            assert got[warm_up_end:] == want[warm_up_end:], f"seed {seed}"
            assert got == want, f"seed {seed}"  # holds even in warm-up
            if config.machines:
                assert [a.frame for a in alerts] == sim.truth.alert_frames


def test_criterion_3_noise_robustness():
    with criterion(3, "sigma=2px + 5% drop: cycles within +-1 on >=95 seeds, accuracy >= 0.975"):
        noise = NoiseModel(keypoint_sigma=2.0, drop_prob=0.05)
        activity = ActivityConfig(stillness_threshold=6.0)
        within_one = 0
        accuracies = []
        for seed in range(100):
            config = random_scenario(seed, noise=noise, activity=activity)
            sim = generate(config)
            site = SiteConfig(regions=config.regions, activity=config.activity)
            result = analyze_stream(sim.lines(), site)
            truth_cycles = len(sim.truth.cycles)
            got_cycles = len(result.report.cycles)
            if abs(got_cycles - truth_cycles) <= 1:
                within_one += 1
            accuracies.append(cycle_accuracy(got_cycles, truth_cycles))
        mean_accuracy = sum(accuracies) / len(accuracies)
        assert within_one >= 95, f"only {within_one}/100 within one cycle"
        assert mean_accuracy >= 0.975, f"mean accuracy {mean_accuracy:.4f}"


def test_criterion_4_metric_oracle_equivalence():
    with criterion(4, "AP and keypoint AP match brute-force oracles on 200 instances each"):
        rng = random.Random(20260814)
        defined = 0
        for _ in range(200):
            predictions, truths = random_ap_instance(rng)
            got = average_precision_11pt(predictions, truths, iou_gate=0.5)
            want = oracle_detection_ap(predictions, truths, iou_gate=0.5)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)
                defined += 1
        assert defined >= 100

        rng = random.Random(31337)
        defined = 0
        for _ in range(200):
            predictions, truths = random_pose_instance(rng)
            got = keypoint_ap(predictions, truths)
            want = oracle_keypoint_ap(predictions, truths, DEFAULT_OKS_THRESHOLDS)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)
                defined += 1
        assert defined >= 80

        for fixture in AP_FIXTURES:
            predictions, truths, expected = fixture()
            ap = average_precision_11pt(predictions, truths, iou_gate=0.5)
            assert ap == pytest.approx(expected, abs=1e-12), fixture.__name__


def test_criterion_5_oks_properties():
    with criterion(5, "OKS: exact identity, strict monotone decay, scale invariance"):
        rng = random.Random(7)
        for _ in range(20):
            pose = make_pose(arm=(rng.uniform(100, 800), rng.uniform(100, 600)))
            assert oks(pose, pose, scale=rng.uniform(10.0, 200.0)) == 1.0

        truth = make_pose()
        series = [
            oks(shift_pose(truth, 0.6 * d, 0.8 * d), truth, scale=60.0)
            for d in range(0, 120, 10)
        ]
        assert series[0] == 1.0
        assert all(a > b for a, b in zip(series, series[1:]))

        for _ in range(20):
            truth = make_pose(arm=(rng.uniform(100, 800), rng.uniform(100, 600)))
            pred = shift_pose(truth, rng.uniform(-30, 30), rng.uniform(-30, 30))
            scale = rng.uniform(15.0, 150.0)
            base = oks(pred, truth, scale)
            for factor in (0.5, 2.0, 3.0, 7.5):
                scaled_truth = _scale_pose(truth, factor)
                scaled_pred = _scale_pose(pred, factor)
                assert oks(scaled_pred, scaled_truth, scale * factor) == pytest.approx(
                    base, abs=1e-12
                )


def _scale_pose(pose, factor):
    return tuple((x * factor, y * factor, conf) for x, y, conf in pose)


def test_criterion_6_safety_truth_table():
    with criterion(6, "alert rule exhaustive over <=3 tracks, pause hysteresis boundaries"):
        moving_machines = (
            MachineClass.EXCAVATOR,
            MachineClass.LOADER,
            MachineClass.TRUCK,
            MachineClass.CRANE,
        )
        participants = moving_machines + (MachineClass.HUMAN,)
        locations3 = (
            LocationLabel.IN_DIGGING,
            LocationLabel.IN_DUMPING,
            LocationLabel.ELSEWHERE,
        )
        region_of = {
            LocationLabel.IN_DIGGING: RegionLabel.DIGGING,
            LocationLabel.IN_DUMPING: RegionLabel.DUMPING,
        }
        single = tuple(itertools.product(participants, locations3))
        cases = 0
        for n_tracks in range(4):
            for combo in itertools.product(single, repeat=n_tracks):
                classes = {i + 1: cls for i, (cls, _) in enumerate(combo)}
                locations = {i + 1: loc for i, (_, loc) in enumerate(combo)}
                got = check_collision(locations, classes, frame_index=7, fps=25.0)
                expected = []
                for region in (RegionLabel.DIGGING, RegionLabel.DUMPING):
                    machines = [
                        tid
                        for tid in classes
                        if classes[tid] in moving_machines
                        and region_of.get(locations[tid]) is region
                    ]
                    humans = [
                        tid
                        for tid in classes
                        if classes[tid] is MachineClass.HUMAN
                        and region_of.get(locations[tid]) is region
                    ]
                    if len(machines) >= 2 or (machines and humans):
                        expected.append((region, tuple(sorted(machines + humans))))
                assert [
                    (a.region, tuple(tid for tid, _ in a.tracks)) for a in got
                ] == expected
                for alert in got:
                    assert alert.frame == 7
                    assert alert.offset_s == 7 / 25.0
                cases += 1
        assert cases == 1 + 15 + 15**2 + 15**3  # 3616

        # Pause hysteresis at the clearance boundary (window 25).
        alert = check_collision(
            {1: LocationLabel.IN_DIGGING, 2: LocationLabel.IN_DIGGING},
            {1: MachineClass.EXCAVATOR, 2: MachineClass.LOADER},
        )
        signal = update_pause(PauseSignal(), alert, 0, clearance_window=25)
        assert signal.active and signal.raised_at == 0
        for f in range(1, 25):
            signal = update_pause(signal, [], f, clearance_window=25)
        assert signal.active and signal.clear_streak == 24  # one frame short
        signal = update_pause(signal, [], 25, clearance_window=25)
        assert signal == PauseSignal(False, 0, 25, 0)

        signal = update_pause(PauseSignal(), alert, 0, clearance_window=25)
        for f in range(1, 25):
            signal = update_pause(signal, [], f, clearance_window=25)
        signal = update_pause(signal, alert, 25, clearance_window=25)  # re-arm
        assert signal.active and signal.clear_streak == 0 and signal.raised_at == 0
        for f in range(26, 50):
            signal = update_pause(signal, [], f, clearance_window=25)
        assert signal.active  # a fresh full window is required
        signal = update_pause(signal, [], 50, clearance_window=25)
        assert not signal.active and signal.cleared_at == 50

        quick = update_pause(PauseSignal(), alert, 3, clearance_window=1)
        assert update_pause(quick, [], 4, clearance_window=1) == PauseSignal(
            False, 3, 4, 0
        )


def test_criterion_7_soft_nms_reference_equivalence():
    with criterion(7, "soft-NMS equals the naive reference on 100 random sets"):
        rng = random.Random(424242)
        for _ in range(100):
            detections = random_detections(rng)
            got = soft_nms_indexed(detections)
            want = naive_soft_nms(detections)
            assert [idx for idx, _ in got] == [idx for idx, _ in want]
            for (_, det), (_, score) in zip(got, want):
                assert det.score == pytest.approx(score, abs=1e-12)
            assert len(got) <= len(detections)
            for orig_idx, det in got:
                assert det.score <= detections[orig_idx].score
                assert det.bbox == detections[orig_idx].bbox
                assert det.cls is detections[orig_idx].cls


def test_criterion_8_stream_round_trip_and_rejection():
    with criterion(8, "100 stream round-trips exact; 10 malformed fixtures exit 3"):
        rng = random.Random(8)
        for _ in range(100):
            header, frames = random_stream(rng)
            parser = parse_stream(serialize_stream(header, frames))
            back = list(parser)
            assert parser.header == header
            assert back == frames
            assert parser.skipped == 0

        assert len(MALFORMED_STREAMS) == 10
        for name, lines, line_no in MALFORMED_STREAMS:
            with pytest.raises(StreamFormatError) as exc_info:
                list(parse_stream(lines))
            assert exc_info.value.exit_code == EXIT_PARSE, name
            assert f"line {line_no}" in str(exc_info.value), name
