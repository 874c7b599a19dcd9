"""Generated streams: determinism, ground-truth fidelity, injection, memory."""

import json
import time
import tracemalloc

import pytest

from sitewatch import simulator
from sitewatch.activity import ActionState, build_timeline
from sitewatch.cli import main
from sitewatch.config import SiteConfig
from sitewatch.errors import ConfigError
from sitewatch.pipeline import analyze_stream
from sitewatch.simulator import (
    DEFAULT_REGIONS,
    MAX_FRAMES,
    DurationRange,
    MachineSpec,
    NoiseModel,
    ScenarioConfig,
    generate,
    inject_collision,
    productivity_benchmark_config,
    run_scenario,
    scenario_from_dict,
)
from sitewatch.streams import MachineClass, parse_stream

from helpers import frame_states, ground_truth_from_dict, random_scenario, scenario_to_dict

D = ActionState.DIGGING
SA = ActionState.SWING_AFTER_DIGGING
P = ActionState.DUMPING
SF = ActionState.SWING_FOR_DIGGING


def _small(seed=0, **kwargs):
    kwargs.setdefault("cycle_count", 3)
    kwargs.setdefault("dig", DurationRange(2.0, 4.0))
    kwargs.setdefault("swing", DurationRange(1.8, 3.2))
    kwargs.setdefault("dump", DurationRange(2.0, 4.0))
    return ScenarioConfig(seed=seed, **kwargs)


def test_same_seed_same_bytes():
    a = "\n".join(generate(_small(seed=5)).lines())
    b = "\n".join(generate(_small(seed=5)).lines())
    assert a == b


def test_same_seed_same_bytes_with_noise():
    noise = NoiseModel(keypoint_sigma=2.0, drop_prob=0.05, bbox_sigma=1.0)
    a = "\n".join(generate(_small(seed=5, noise=noise)).lines())
    b = "\n".join(generate(_small(seed=5, noise=noise)).lines())
    assert a == b


def test_different_seeds_differ():
    a = "\n".join(generate(_small(seed=1)).lines())
    b = "\n".join(generate(_small(seed=2)).lines())
    assert a != b


def test_generated_stream_always_parses_strict():
    for seed in range(5):
        noise = NoiseModel(keypoint_sigma=3.0, drop_prob=0.1, bbox_sigma=2.0)
        sim = generate(_small(seed=seed, noise=noise))
        parser = parse_stream(sim.lines())
        frames = list(parser)
        assert parser.skipped == 0
        assert parser.header.fps == sim.config.fps
        assert len(frames) == len(sim.frames)


def test_truth_spans_every_frame():
    sim = generate(_small(seed=3))
    n = len(sim.frames)
    assert [f for f, _ in frame_states(sim.truth.runs)] == list(range(n))
    assert sim.truth.phases[0][1] == 0
    assert sim.truth.phases[-1][2] == n - 1
    for (_, _, last), (_, first, _) in zip(sim.truth.phases, sim.truth.phases[1:]):
        assert first == last + 1


def test_scripted_phase_order_alternates_legally():
    for seed in range(6):
        sim = generate(_small(seed=seed))
        phase_states = [s for s, _, _ in sim.truth.phases]
        for prev, state in zip(phase_states, phase_states[1:]):
            if state is SF:
                assert prev in (P, ActionState.IDLE)
            if state is SA:
                assert prev is D
            if state is P:
                assert prev is SA
            if state is D:
                assert prev is SF


def test_replayed_states_never_pair_forbidden_transitions():
    for seed in range(6):
        sim = generate(_small(seed=seed))
        states = [s for _, s in frame_states(sim.truth.runs)]
        for prev, state in zip(states, states[1:]):
            if state is SF:
                assert prev is not D
            if state is SA:
                assert prev not in (P, SF)


def test_cycle_count_scenario_has_exactly_that_many_cycles():
    sim = generate(_small(seed=9, cycle_count=4))
    assert len(sim.truth.cycles) == 4
    dig_phases = [p for p in sim.truth.phases if p[0] is D]
    assert len(dig_phases) == 5  # N cycles need N + 1 digging phases


def test_short_duration_yields_single_state_and_no_cycles():
    config = ScenarioConfig(seed=0, duration_s=2.0, cycle_count=None)
    sim = generate(config)
    assert len(sim.truth.cycles) == 0
    assert len({s for s, _, _ in sim.truth.phases}) == 1


def test_zero_noise_round_trip_recovers_truth_exactly():
    for seed in range(4):
        config = random_scenario(seed)
        sim = generate(config)
        site = SiteConfig(regions=config.regions, activity=config.activity)
        result = analyze_stream(sim.lines(), site)
        assert len(result.report.cycles) == len(sim.truth.cycles)
        pairs = frame_states(result.runs[result.primary_track])
        assert [f for f, _ in pairs] == list(range(len(sim.frames)))
        assert pairs == frame_states(sim.truth.runs)
        # The debounced timeline is the same debounce of the truth runs.
        want = build_timeline(sim.truth.runs, config.fps, config.activity.min_segment_s)
        assert result.timeline.segments == want.segments


def test_benchmark_scenario_shape():
    config = productivity_benchmark_config()
    assert config.cycle_count == 40
    sim = generate(config)
    assert len(sim.truth.cycles) == 40
    span = sim.truth.cycles[-1].end_frame - sim.truth.cycles[0].start_frame
    assert span / config.fps == 900.0


def test_machine_roster_appears_in_frames():
    spec = MachineSpec(MachineClass.TRUCK, (1500.0, 800.0, 160.0, 120.0), 10, 20)
    sim = generate(_small(seed=1, machines=(spec,)))
    for f, frame in enumerate(sim.frames):
        classes = [d.cls for d in frame.detections]
        if 10 <= f <= 20:
            assert MachineClass.TRUCK in classes
        else:
            assert MachineClass.TRUCK not in classes
    assert sim.truth.alert_frames == []  # parked far from both regions


def test_machine_entry_beyond_stream_end_raises():
    spec = MachineSpec(MachineClass.TRUCK, (1500.0, 800.0, 160.0, 120.0), 10**7)
    with pytest.raises(ValueError):
        generate(_small(seed=1, machines=(spec,)))


def test_inject_collision_marks_exact_frame_range():
    sim = generate(_small(seed=2))
    dig_first, dig_last = next(
        (first, last) for s, first, last in sim.truth.phases if s is D
    )
    first = dig_first + 2
    last = min(dig_last, first + 40)
    bumped = inject_collision(sim, first, last, "loader")
    assert bumped.truth.alert_frames == list(range(first, last + 1))
    assert sim.truth.alert_frames == []  # input untouched
    for frame, bumped_frame in zip(sim.frames, bumped.frames):
        extra = 1 if first <= frame.index <= last else 0
        assert len(frame.detections) + extra == len(bumped_frame.detections)
        assert bumped_frame.detections[: len(frame.detections)] == frame.detections


def test_inject_collision_elsewhere_never_alerts():
    sim = generate(_small(seed=2))
    bumped = inject_collision(sim, 0, 30, MachineClass.LOADER, at=(1850.0, 1050.0))
    assert bumped.truth.alert_frames == []


def test_injected_human_alerts_with_the_excavator():
    sim = generate(_small(seed=2))
    dig_first, dig_last = next(
        (first, last) for s, first, last in sim.truth.phases if s is D
    )
    bumped = inject_collision(sim, dig_first, dig_last, "human")
    assert bumped.truth.alert_frames == list(range(dig_first, dig_last + 1))
    # The analyzer sees the same collisions the truth records.
    site = SiteConfig(regions=sim.config.regions, activity=sim.config.activity)
    alerts = []
    analyze_stream(bumped.lines(), site, on_alerts=alerts.extend)
    assert [a.frame for a in alerts] == bumped.truth.alert_frames


def test_inject_collision_validation():
    sim = generate(_small(seed=2))
    with pytest.raises(ValueError, match="unknown machine class"):
        inject_collision(sim, 0, 10, "dragon")
    with pytest.raises(ValueError, match="frame range"):
        inject_collision(sim, 0, len(sim.frames), "loader")
    with pytest.raises(ValueError, match="frame range"):
        inject_collision(sim, 5, 4, "loader")


def test_scenario_dict_round_trip():
    config = _small(
        seed=7,
        noise=NoiseModel(keypoint_sigma=1.5),
        machines=(MachineSpec(MachineClass.TRUCK, (10.0, 10.0, 50.0, 40.0), 0, 5),),
    )
    restored, inject = scenario_from_dict(scenario_to_dict(config))
    assert inject is None
    assert restored == config
    assert "\n".join(generate(restored).lines()) == "\n".join(
        generate(config).lines()
    )


def test_scenario_dict_rejects_unknown_keys():
    obj = scenario_to_dict(_small())
    obj["fog_density"] = 0.5
    with pytest.raises(ConfigError):
        scenario_from_dict(obj)
    bad_phase = scenario_to_dict(_small())
    bad_phase["phases"]["dig"] = [4.0]
    with pytest.raises(ConfigError):
        scenario_from_dict(bad_phase)


def test_run_scenario_applies_inject_spec():
    config = _small(seed=2)
    sim = generate(config)
    dig_first, dig_last = next(
        (first, last) for s, first, last in sim.truth.phases if s is D
    )
    inject = {"class": "loader", "first_frame": dig_first, "last_frame": dig_last}
    injected = run_scenario(config, inject)
    assert injected.truth.alert_frames == list(range(dig_first, dig_last + 1))
    with pytest.raises(ConfigError):
        run_scenario(config, {"class": "loader", "first_frame": 0, "last_frame": 10**7})


def test_max_frames_bounds_the_stream_length():
    at_cap = ScenarioConfig(duration_s=MAX_FRAMES / 25.0)
    assert len(generate(at_cap).frames) == MAX_FRAMES
    with pytest.raises(ConfigError, match=f"would be {MAX_FRAMES + 1} frames"):
        generate(ScenarioConfig(duration_s=(MAX_FRAMES + 1) / 25.0))


def test_max_frames_bounds_a_cycle_count_script_exactly(monkeypatch):
    config = productivity_benchmark_config()
    n_frames = len(generate(config).frames)
    monkeypatch.setattr(simulator, "MAX_FRAMES", n_frames)
    assert len(generate(config).frames) == n_frames
    monkeypatch.setattr(simulator, "MAX_FRAMES", n_frames - 1)
    with pytest.raises(ConfigError, match=f"would be {n_frames} frames"):
        generate(config)


def _counting_samples(monkeypatch):
    draws = []
    real_sample = DurationRange.sample

    def sample(self, rng):
        draws.append(1)
        return real_sample(self, rng)

    monkeypatch.setattr(DurationRange, "sample", sample)
    return draws


def test_a_huge_cycle_count_fails_before_any_phase_is_drawn(monkeypatch):
    draws = _counting_samples(monkeypatch)
    one_frame = DurationRange(100.0, 100.0)
    config = ScenarioConfig(
        cycle_count=10**9, fps=0.01, dig=one_frame, swing=one_frame, dump=one_frame
    )
    with pytest.raises(ConfigError, match="would be at least 3999999998 frames"):
        generate(config)
    assert draws == []


def test_only_a_script_past_the_cap_by_over_a_cycle_fails_before_drawing(monkeypatch):
    config = productivity_benchmark_config()
    n_frames = len(generate(config).frames)
    cycle_frames = round((8.0 + 3.2 + 8.1 + 3.2) * config.fps)
    draws = _counting_samples(monkeypatch)
    monkeypatch.setattr(simulator, "MAX_FRAMES", n_frames - cycle_frames + 1)
    with pytest.raises(ConfigError, match="would be at least"):
        generate(config)
    assert len(draws) > 1
    draws.clear()
    monkeypatch.setattr(simulator, "MAX_FRAMES", n_frames - 2 * cycle_frames)
    with pytest.raises(ConfigError, match="would be at least"):
        generate(config)
    assert draws == []


_LONG_DIG = {"fps": 2500.0, "dig": DurationRange(1.0, 1.5e6)}


@pytest.mark.parametrize(
    "length",
    [
        dict(_LONG_DIG, duration_s=1.5e6),
        dict(_LONG_DIG, cycle_count=2),
        dict(_LONG_DIG, cycle_count=1_000_000_000),
        {"cycle_count": 1_000_000_000},
        {"duration_s": 1e12},
        {"duration_s": 1e300, "fps": 1e300},
    ],
)
def test_a_scenario_of_billions_of_frames_fails_fast(tmp_path, capsys, length):
    config = ScenarioConfig(**length)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(config)))
    start = time.monotonic()
    assert main(["simulate", "-c", str(path), "-o", str(tmp_path / "sim")]) == 2
    assert time.monotonic() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario config: the stream would be ")
    assert not (tmp_path / "sim").exists()


_TINY = [1e-5, 1e-5]


@pytest.mark.parametrize(
    "phases, change",
    [
        ({"dig": _TINY, "swing": _TINY, "dump": _TINY}, {"duration_s": 120.0}),
        ({}, {"cycle_count": 200_000, "fps": 0.01}),
        ({"idle": [0.01, 1.0]}, {"idle_prob": 0.5}),
    ],
)
def test_a_phase_shorter_than_one_frame_fails_fast(tmp_path, capsys, phases, change):
    obj = scenario_to_dict(ScenarioConfig())
    obj = dict(obj, phases=dict(obj["phases"], **phases), **change)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    start = time.monotonic()
    assert main(["simulate", "-c", str(path), "-o", str(tmp_path / "sim")]) == 2
    assert time.monotonic() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario config: phase ")
    assert "shorter than one frame" in err
    assert not (tmp_path / "sim").exists()


def test_a_phase_of_exactly_one_frame_is_allowed():
    pinned = DurationRange(0.04, 0.04)
    sim = generate(ScenarioConfig(cycle_count=2, dig=pinned, swing=pinned, dump=pinned))
    assert [last - first for _, first, last in sim.truth.phases] == [0] * 10


def test_ground_truth_dict_round_trip():
    sim = generate(_small(seed=4))
    restored = ground_truth_from_dict(sim.truth.to_dict())
    assert restored == sim.truth


def test_default_regions_are_valid_site_regions():
    SiteConfig(regions=DEFAULT_REGIONS)  # validates disjointness internally
    assert {r.label.value for r in DEFAULT_REGIONS} == {"digging", "dumping"}


def _noisy_injected(seed=6, **kwargs):
    """Machines, every kind of noise and an injected worker."""
    config = _small(
        seed=seed,
        noise=NoiseModel(keypoint_sigma=1.0, drop_prob=0.05, bbox_sigma=1.0),
        machines=(MachineSpec(MachineClass.TRUCK, (1332.0, 400.0, 160.0, 120.0)),),
        **kwargs,
    )
    return run_scenario(config, {"class": "human", "first_frame": 20, "last_frame": 90})


def test_frames_view_length_is_the_frame_line_count():
    sim = _noisy_injected()
    lines = list(sim.lines())
    assert len(sim.frames) == len(lines) - 1
    assert len(sim.frames) == len(frame_states(sim.truth.runs))


def test_frames_view_iterates_the_same_frames_each_time():
    sim = _noisy_injected()
    first = list(sim.frames)
    assert any(not frame.poses for frame in first)  # some drops drawn
    assert first == list(sim.frames)
    assert [f.index for f in first] == list(range(len(sim.frames)))
    # A pass abandoned part way leaves the next one unaffected.
    next(iter(sim.frames))
    assert list(sim.frames) == first


def test_truth_is_the_same_read_before_or_after_write(tmp_path):
    early = _noisy_injected()
    truth = early.truth
    early.write(tmp_path / "early.jsonl", tmp_path / "early.json")
    late = _noisy_injected()
    late.write(tmp_path / "late.jsonl", tmp_path / "late.json")
    assert late.truth == truth
    assert truth.alert_frames  # the injected worker is seen
    for suffix in (".json", ".jsonl"):
        early_bytes = (tmp_path / f"early{suffix}").read_bytes()
        assert early_bytes == (tmp_path / f"late{suffix}").read_bytes()


def _simulate_peak_bytes(tmp_path, n_frames):
    """Peak traced memory of ``sitewatch simulate`` over ``n_frames``."""
    config = ScenarioConfig(
        seed=4,
        duration_s=n_frames / 25.0,
        noise=NoiseModel(keypoint_sigma=1.0, drop_prob=0.05, bbox_sigma=1.0),
        machines=(MachineSpec(MachineClass.TRUCK, (1332.0, 400.0, 160.0, 120.0)),),
    )
    obj = scenario_to_dict(config)
    obj["inject"] = {"class": "human", "first_frame": 10, "last_frame": n_frames // 2}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(obj) + "\n")
    args = ["simulate", "-c", str(scenario), "-o", str(tmp_path / "sim")]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert main(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with open(tmp_path / "sim" / "stream.jsonl") as fh:
        assert sum(1 for _ in fh) == n_frames + 1
    return peak


def test_simulate_memory_does_not_grow_with_frames(tmp_path, capsys):
    # Enough frames that the serializer's bounded pose and box texts
    # fill up in both runs; what is left is the truth, a few bytes a frame.
    n = 500
    # One run first, so one-time allocations (imports, caches,
    # specialized bytecode) land in neither measurement.
    _simulate_peak_bytes(tmp_path, n)
    short = _simulate_peak_bytes(tmp_path, n)
    long = _simulate_peak_bytes(tmp_path, 10 * n)
    per_frame = (long - short) / (9 * n)
    assert per_frame < 300.0, f"{per_frame:.1f} B per added frame"
