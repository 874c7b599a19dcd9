"""Byte-for-byte pins of the criterion-1 benchmark artifacts and noisy runs.

Criterion 1 runs ``simulate`` then ``analyze`` on
``productivity_benchmark_config()``.  The noisy case adds what that
scenario lacks: keypoint, box and drop noise, alerts, ``watch`` and
``eval --task pose``.  Speed and design work must leave every artifact
byte-identical; change a digest here only together with an intended
change of output, and say why.
"""

import hashlib
import json

from sitewatch.cli import main
from sitewatch.config import SiteConfig
from sitewatch.simulator import (
    DEFAULT_REGIONS,
    DurationRange,
    MachineSpec,
    NoiseModel,
    ScenarioConfig,
    productivity_benchmark_config,
)
from sitewatch.streams import MachineClass

from helpers import scenario_to_dict, site_config_to_dict

SIMULATE_DIGESTS = {
    "stream.jsonl": "670c76538927eeb839b12d09f727e8db3b7bdb59ecf1d549e7719ff35e2d6da7",
    "ground_truth.json": "d10b942f7080910a83e4a4b833d78d366cc303f031a01a1614bbd3fb86e439f5",
}
ANALYZE_DIGESTS = {
    "report.csv": "9689c7b4a784b1eda235541e628239427e462269881e2aa91e2320d00f31ac31",
    "timeline.csv": "35eae0a9dd5705b3b2748243c81cae18be805ebc5e3ac89d6b84dec2a4e102cc",
    "alerts.csv": "1f7fb685a155444809d5281ba40b4fcd4b0feca22832dec0311f89af89ff6b31",
    "cycles.csv": "165799b73b40dcff830f05f3439eba1a7ec0d21ded89b973412b3d1d5cd6e383",
    "meta.json": "e672840c38434b73594e58ae70102139a4e5581158946f6ce5726e0020bfbab8",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_benchmark_artifacts_are_byte_identical(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(
        json.dumps(scenario_to_dict(productivity_benchmark_config())) + "\n"
    )
    site = SiteConfig(
        regions=DEFAULT_REGIONS, bucket_volume_m3=0.4, bucket_full_rate=1.01
    )
    site_path = tmp_path / "site.json"
    site_path.write_text(json.dumps(site_config_to_dict(site)) + "\n")
    sim_dir = tmp_path / "sim"
    out_dir = tmp_path / "analysis"

    assert main(["simulate", "-c", str(scenario_path), "-o", str(sim_dir)]) == 0
    assert (
        main(
            [
                "analyze",
                "-c",
                str(site_path),
                "-i",
                str(sim_dir / "stream.jsonl"),
                "-o",
                str(out_dir),
            ]
        )
        == 0
    )
    capsys.readouterr()

    got = {name: _sha256(sim_dir / name) for name in SIMULATE_DIGESTS}
    got.update({name: _sha256(out_dir / name) for name in ANALYZE_DIGESTS})
    assert got == {**SIMULATE_DIGESTS, **ANALYZE_DIGESTS}


# A small noisy scenario: keypoint, box and drop noise, a truck parked in
# the dumping area and a worker crossing the digging area, so the stream
# misses the keypoint-text cache, drops frames and raises alerts.  Its
# noise-free twin is the truth for ``eval --task pose``.
NOISY_DIGESTS = {
    "stream.jsonl": "54f5069d31bcd54848900c403f32c5c36e837896c74473a6000a93c5d7a500cd",
    "ground_truth.json": "94066367de0ae3ae989ef6d5b62701c5f057ea607dccbc8d82482a8f8be3c800",
    "timeline.csv": "024e6b887d48bb696c1b2f5c5d21e66153c72031017dee12c50a477dfc39fefc",
    "alerts.csv": "929d354560c7e2b88d22ca6a89a59a5f61ce56e187953bfe79b6b609cb8ec33e",
    "meta.json": "3fc588da15d8aa5ad582e5eccb94ee50cb2cc9ac35b30350597431f40da37f67",
    "report.csv": "aca3f20ffbcdc7764ee54a78fc3f2cc35058281ead62aa73a6444f5d5656a5be",
    "cycles.csv": "4de5202f2d4845dbd9e5d1668644d3cd893ddbf2b2147d7ca4bace193c4b537a",
    "watch.stdout": "a555daf090ed65f17422889d0557a969f12fcfe049951762437aafb5e9bceaff",
    "eval_pose.csv": "fe72a52af614d4df83b31ff600cd6b5bb5b16d50a065a001f2866b82a512fc27",
}
NOISY_WATCH_EXIT = 0


def _noisy_scenario(noise: NoiseModel) -> ScenarioConfig:
    return ScenarioConfig(
        seed=11,
        cycle_count=3,
        dig=DurationRange(2.0, 4.0),
        swing=DurationRange(1.8, 3.2),
        dump=DurationRange(2.0, 4.0),
        machines=(
            MachineSpec(MachineClass.TRUCK, (1332.0, 400.0, 160.0, 120.0)),
            MachineSpec(MachineClass.HUMAN, (390.0, 345.0, 60.0, 160.0), 40, 260),
        ),
        noise=noise,
    )


def _noisy_artifacts(tmp_path, capsys, monkeypatch) -> tuple[dict[str, str], int]:
    """Run simulate, analyze, watch and eval --task pose; digest each output."""
    site = SiteConfig(regions=DEFAULT_REGIONS)
    site_path = tmp_path / "site.json"
    site_path.write_text(json.dumps(site_config_to_dict(site)) + "\n")
    runs = {
        "noisy": NoiseModel(keypoint_sigma=0.3, drop_prob=0.05, bbox_sigma=2.0),
        "clean": NoiseModel(),
    }
    for name, noise in runs.items():
        scenario_path = tmp_path / f"{name}.json"
        scenario_path.write_text(json.dumps(scenario_to_dict(_noisy_scenario(noise))) + "\n")
        assert main(["simulate", "-c", str(scenario_path), "-o", str(tmp_path / name)]) == 0
    stream = tmp_path / "noisy" / "stream.jsonl"
    out_dir = tmp_path / "analysis"
    assert main(["analyze", "-c", str(site_path), "-i", str(stream), "-o", str(out_dir)]) == 0
    eval_path = tmp_path / "eval_pose.csv"
    assert (
        main(
            [
                "eval",
                "--task",
                "pose",
                "--pred",
                str(stream),
                "--truth",
                str(tmp_path / "clean" / "stream.jsonl"),
                "-o",
                str(eval_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    with open(stream, "r", encoding="utf-8") as fh:
        monkeypatch.setattr("sys.stdin", fh)
        watch_exit = main(["watch", "-c", str(site_path)])
    watch_stdout = capsys.readouterr().out

    got = {
        name: _sha256(tmp_path / "noisy" / name)
        for name in ("stream.jsonl", "ground_truth.json")
    }
    got.update(
        {
            name: _sha256(out_dir / name)
            for name in ("timeline.csv", "alerts.csv", "meta.json", "report.csv", "cycles.csv")
        }
    )
    got["watch.stdout"] = hashlib.sha256(watch_stdout.encode("utf-8")).hexdigest()
    got["eval_pose.csv"] = _sha256(eval_path)
    return got, watch_exit


def test_noisy_scenario_artifacts_are_byte_identical(tmp_path, capsys, monkeypatch):
    got, watch_exit = _noisy_artifacts(tmp_path, capsys, monkeypatch)
    assert got == NOISY_DIGESTS
    assert watch_exit == NOISY_WATCH_EXIT


# Configured machines, every kind of noise and an ``inject`` spec in one
# scenario: each frame draws the excavator's drop, keypoint and box noise,
# then each present machine's drop, and the injected worker comes after
# the configured machines and draws nothing.  Pins that RNG order and the
# injected truth.
INJECT_DIGESTS = {
    "stream.jsonl": "62f8363f1778f3b5b2b1f7e6e448dac4c4d81a82ef5020da1d6f66807f5905f4",
    "ground_truth.json": "7831610e0aa5c9ad984c7477c012db0e6dbef7352d9a7188632f286a389bd13b",
}


def test_injected_noisy_scenario_is_byte_identical(tmp_path, capsys):
    noise = NoiseModel(keypoint_sigma=0.8, drop_prob=0.1, bbox_sigma=1.5)
    obj = scenario_to_dict(_noisy_scenario(noise))
    obj["seed"] = 23
    obj["inject"] = {"class": "human", "first_frame": 60, "last_frame": 180}
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(obj) + "\n")
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "-c", str(scenario_path), "-o", str(sim_dir)]) == 0
    capsys.readouterr()
    got = {name: _sha256(sim_dir / name) for name in INJECT_DIGESTS}
    assert got == INJECT_DIGESTS
