"""Simulation.write replays the ground truth in a forked child.

The forced-fork and forced in-process writes must give the same bytes
and the same truth; a failure on either side of the fork must reach the
caller, with no child left behind.  Only a read of ``truth`` replays it
in-process, once; no pass over the frames does.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sitewatch
import sitewatch.forking as forking
import sitewatch.simulator as simulator
import sitewatch.streams as streams
from sitewatch.simulator import NoiseModel, generate, inject_collision

from helpers import random_scenario, scenario_to_dict

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

# A child left unkilled would hold its parent this long.
_STALL_S = 60.0


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _sim(seed):
    """Noise, drops, a parked truck and an injected human (alerts)."""
    sim = generate(random_scenario(seed, NoiseModel(1.0, 0.05, 1.5), with_machine=True))
    n = len(sim.frames)
    return inject_collision(sim, n // 4, n // 2, "human")


def _write(tmp_path, monkeypatch, seed, fork):
    """Write one simulation; returns (stream bytes, truth bytes, sim.truth, forks)."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        if not fork:
            raise AssertionError("forked")
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(forking, "can_fork", lambda: fork)
    monkeypatch.setattr(os, "fork", counting_fork)
    out = tmp_path / ("forked" if fork else "inline")
    out.mkdir()
    sim = _sim(seed)
    sim.write(out / "stream.jsonl", out / "ground_truth.json")
    monkeypatch.setattr(os, "fork", real_fork)
    stream = (out / "stream.jsonl").read_bytes()
    truth = (out / "ground_truth.json").read_bytes()
    return stream, truth, sim.truth, len(forks)


@pytest.mark.parametrize("seed", range(4))
def test_forked_and_in_process_writes_give_the_same_bytes_and_truth(tmp_path, monkeypatch, seed):
    *forked, fork_count = _write(tmp_path, monkeypatch, seed, fork=True)
    *inline, _ = _write(tmp_path, monkeypatch, seed, fork=False)
    assert fork_count == 1
    assert forked == inline
    assert forked[2].alert_frames, "the scenario must exercise the alert oracle"
    assert forked[2] == _sim(seed).truth
    assert _no_child_left()


def test_write_without_a_truth_path_forks_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(forking, "can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    sim = _sim(1)
    sim.write(tmp_path / "stream.jsonl")
    assert (tmp_path / "stream.jsonl").read_text() == "".join(f"{line}\n" for line in sim.lines())


def _counting_steps(monkeypatch):
    steps = []

    class CountingClassifier(simulator.ActionClassifier):
        def step(self, *args):
            steps.append(1)
            return super().step(*args)

    monkeypatch.setattr(simulator, "ActionClassifier", CountingClassifier)
    return steps


def test_only_a_read_of_the_truth_replays_it_and_only_once(tmp_path, monkeypatch):
    forked_truth = _write(tmp_path, monkeypatch, 2, fork=True)[2]
    steps = _counting_steps(monkeypatch)
    truth_passes = []
    truth_pass = simulator._truth_pass

    def counting_truth_pass(config, plan, roster):
        truth_passes.append(1)
        return truth_pass(config, plan, roster)

    monkeypatch.setattr(simulator, "_truth_pass", counting_truth_pass)
    sim = _sim(2)
    for _ in sim.frames:
        pass
    for _ in sim.lines():
        pass
    sim.write(tmp_path / "stream.jsonl")
    assert (len(steps), len(truth_passes)) == (0, 0)
    assert sim.truth == forked_truth
    assert (len(steps), len(truth_passes)) == (len(sim.frames), 1)
    assert sim.truth is sim.truth
    assert len(truth_passes) == 1


def _forced(monkeypatch, truth_pass):
    monkeypatch.setattr(forking, "can_fork", lambda: True)
    monkeypatch.setattr(simulator, "_truth_pass", truth_pass)


def test_an_exception_in_the_child_reaches_the_parent_with_its_type(tmp_path, monkeypatch):
    def failing(config, plan, roster):
        raise ZeroDivisionError("truth failed")

    _forced(monkeypatch, failing)
    with pytest.raises(ZeroDivisionError, match="truth failed"):
        _sim(0).write(tmp_path / "stream.jsonl", tmp_path / "ground_truth.json")
    assert not (tmp_path / "ground_truth.json").exists()
    assert _no_child_left()


def test_a_child_killed_before_its_message_is_an_error(tmp_path, monkeypatch):
    def killed(config, plan, roster):
        os.kill(os.getpid(), signal.SIGKILL)

    _forced(monkeypatch, killed)
    with pytest.raises(ChildProcessError):
        _sim(0).write(tmp_path / "stream.jsonl", tmp_path / "ground_truth.json")
    assert not (tmp_path / "ground_truth.json").exists()
    assert _no_child_left()


def _stalled(config, plan, roster):
    time.sleep(_STALL_S)
    return [], []


def test_an_unwritable_stream_path_kills_and_reaps_the_child(tmp_path, monkeypatch):
    _forced(monkeypatch, _stalled)
    start = time.monotonic()
    with pytest.raises(FileNotFoundError):
        _sim(0).write(tmp_path / "missing" / "stream.jsonl", tmp_path / "ground_truth.json")
    assert time.monotonic() - start < _STALL_S / 2
    assert _no_child_left()


def test_a_serializer_error_kills_and_reaps_the_child(tmp_path, monkeypatch):
    _forced(monkeypatch, _stalled)
    serialize_frame = streams.serialize_frame

    def failing(frame, *args):
        if frame.index == 10:
            raise RuntimeError("serializer failed")
        return serialize_frame(frame, *args)

    monkeypatch.setattr(streams, "serialize_frame", failing)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="serializer failed"):
        _sim(0).write(tmp_path / "stream.jsonl", tmp_path / "ground_truth.json")
    assert time.monotonic() - start < _STALL_S / 2
    assert not (tmp_path / "ground_truth.json").exists()
    assert _no_child_left()


def test_simulate_prints_its_summary_once_with_buffered_stdout(tmp_path):
    # Run as a separate process, so stdout is a block-buffered pipe that
    # the forked child inherits and must never write out.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(scenario_to_dict(random_scenario(2))))
    src = Path(sitewatch.__file__).resolve().parents[1]
    script = (
        "import sys, sitewatch.forking as f, sitewatch.cli as cli;"
        "f.can_fork = lambda: True;"
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    out = tmp_path / "sim"
    done = subprocess.run(
        [sys.executable, "-c", script, "simulate", "-c", str(scenario), "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert [line.split(":")[0] for line in done.stdout.splitlines()] == [
        "stream", "ground_truth", "frames", "true_cycles", "alert_frames"
    ]
