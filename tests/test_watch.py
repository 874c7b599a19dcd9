"""watch on the forked frame source, run as its own process.

Each test starts ``watch`` through a small script that forces the parse
child on or off with the ``forking.can_fork`` patch, so it runs
even where only one CPU is usable.  Every wait has a timeout.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import sitewatch
from sitewatch.config import SiteConfig

from helpers import REGIONS, watch_stream, write_site_config

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

TIMEOUT_S = 60
# WATCH_FORK forces the parse child on (1) or off (0); WATCH_FORK_LOG
# names a file that gets each forked child's pid; WATCH_RAISE_AT makes
# StreamAnalyzer.process_frame raise on that frame index.
_SCRIPT = """
import os, sys
import sitewatch.cli as cli
import sitewatch.forking as forking
import sitewatch.pipeline as pipeline

fork = os.environ["WATCH_FORK"] == "1"
forking.can_fork = lambda: fork
log = os.environ.get("WATCH_FORK_LOG")
if log:
    real_fork = os.fork

    def fork_and_log():
        pid = real_fork()
        if pid:
            with open(log, "a") as fh:
                fh.write(f"{pid}\\n")
        return pid

    os.fork = fork_and_log
raise_at = os.environ.get("WATCH_RAISE_AT")
if raise_at:
    process_frame = pipeline.StreamAnalyzer.process_frame

    def failing(self, frame):
        if frame.index == int(raise_at):
            raise RuntimeError("analysis failed")
        return process_frame(self, frame)

    pipeline.StreamAnalyzer.process_frame = failing
sys.exit(cli.main(sys.argv[1:]))
"""


def _watch_argv(tmp_path, *flags):
    site = tmp_path / "site.json"
    if not site.exists():
        write_site_config(SiteConfig(regions=REGIONS, clearance_window=3), site)
    return [sys.executable, "-c", _SCRIPT, "watch", "-c", str(site), *flags]


def _env(fork, log=None, raise_at=None):
    env = dict(os.environ, PYTHONPATH=str(Path(sitewatch.__file__).resolve().parents[1]))
    env["WATCH_FORK"] = "1" if fork else "0"
    for name, value in (("WATCH_FORK_LOG", log), ("WATCH_RAISE_AT", raise_at)):
        if value is None:
            env.pop(name, None)
        else:
            env[name] = str(value)
    return env


def _forked_pids(log):
    return [int(line) for line in log.read_text().split()] if log.exists() else []


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _alerts(*frames):
    return watch_stream(set(frames), 6).encode()


def _undecodable():
    lines = _alerts(0, 1, 2).splitlines(keepends=True)
    lines[3] = lines[3].rstrip() + b"\xff\n"
    return b"".join(lines)


def _bad_json_at_line_5():
    lines = _alerts(0, 1, 2).splitlines(keepends=True)
    return b"".join(lines[:4] + [b"not json\n"] + lines[4:])


def _long_line():
    # Frame 2's line spans several 8 KiB chunks.
    lines = _alerts(0, 1, 2).splitlines(keepends=True)
    lines[3] = lines[3].replace(b', "poses"', b" " * 40_000 + b', "poses"')
    return b"".join(lines)


def _subnormal_fps():
    # Frame 0 is at 0 s; frame 1's time, 1 / fps, overflows to inf.
    return watch_stream({0, 1}, 3).replace('"fps": 25.0', '"fps": 1e-320').encode()


# name -> (stdin bytes, extra flags, exit code)
CASES = {
    "alerts_pause_raised_and_cleared": (_alerts(0, 1, 2), [], 0),
    "pause_still_raised_at_the_end": (_alerts(4, 5), [], 1),
    "strict_bad_json_at_line_5": (_bad_json_at_line_5(), [], 3),
    "lenient_skips_bad_json": (_bad_json_at_line_5(), ["--lenient"], 0),
    "strict_undecodable_line": (_undecodable(), [], 3),
    "lenient_undecodable_line": (_undecodable(), ["--lenient"], 0),
    "crlf_lines": (_alerts(0, 1, 2).replace(b"\n", b"\r\n"), [], 0),
    "no_final_newline": (_alerts(0, 1, 5).rstrip(b"\n"), [], 1),
    "line_longer_than_a_chunk": (_long_line(), [], 0),
    "empty_input": (b"", [], 3),
    "strict_infinite_frame_time": (_subnormal_fps(), [], 3),
    "header_only": (_alerts().splitlines(keepends=True)[0], [], 0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_forked_watch_prints_the_same_bytes_as_in_process(tmp_path, case):
    data, flags, code = CASES[case]
    outcomes = []
    for fork in (False, True):
        log = tmp_path / f"forks-{fork}.txt"
        done = subprocess.run(
            _watch_argv(tmp_path, *flags), input=data, env=_env(fork, log),
            capture_output=True, timeout=TIMEOUT_S,
        )
        outcomes.append((done.returncode, done.stdout, done.stderr))
        forked = _forked_pids(log)
        assert len(forked) == (int(fork) if case != "empty_input" else 0)
        assert all(_gone(pid) for pid in forked)
    assert outcomes[1] == outcomes[0]
    returncode, stdout, stderr = outcomes[0]
    assert returncode == code, stderr
    assert (stderr == b"") == (code in (0, 1))
    if code == 3:
        assert stderr.startswith(b"error: ")
    if case.startswith(("alerts", "strict_bad", "lenient", "crlf", "line_longer")):
        kinds = [(r["type"], r["frame"]) for r in map(json.loads, stdout.splitlines())]
        assert kinds[:3] == [("alert", 0), ("pause_raised", 0), ("alert", 1)]
    if case == "strict_infinite_frame_time":
        records = [json.loads(line) for line in stdout.splitlines()]
        assert [(r["type"], r["frame"]) for r in records] == [("alert", 0), ("pause_raised", 0)]
        assert b"line 3" in stderr


@pytest.mark.parametrize("fork", [False, True])
def test_lenient_watch_loses_only_a_frame_with_a_corrupt_index(tmp_path, fork):
    # Frame 4's index is raised to a valid one that every later frame
    # falls below, so only frame 4 is out of place.
    clean = watch_stream({0, 1, 2, 6, 7, 9}, 10).encode()
    corrupt = clean.replace(b'"index": 4,', b'"index": %d,' % 2**63)
    assert corrupt != clean
    alerts = []
    for data in (clean, corrupt):
        done = subprocess.run(
            _watch_argv(tmp_path, "--lenient"), input=data, env=_env(fork),
            capture_output=True, timeout=TIMEOUT_S,
        )
        assert done.returncode in (0, 1) and done.stderr == b"", done.stderr
        records = [json.loads(line) for line in done.stdout.splitlines()]
        alerts.append([r for r in records if r["type"] == "alert"])
    assert [r["frame"] for r in alerts[0]] == [0, 1, 2, 6, 7, 9]
    assert alerts[1] == alerts[0]


def _read_records(fd, pending, until, timeout=TIMEOUT_S):
    """Read JSON lines from ``fd`` until ``until(records)``; fails on EOF
    or after ``timeout`` seconds.  ``pending`` holds a partial line."""
    records = []
    deadline = time.monotonic() + timeout
    while not until(records):
        left = deadline - time.monotonic()
        ready, _, _ = select.select([fd], [], [], max(left, 0))
        assert ready, f"no line within {timeout} s; got {records}"
        chunk = os.read(fd, 65536)
        assert chunk, f"stdout ended; got {records}"
        lines = (pending.pop() + chunk).split(b"\n")
        pending.append(lines.pop())
        records += [json.loads(line) for line in lines]
    return records


def test_each_live_frame_is_answered_before_the_next_is_written(tmp_path):
    lines = watch_stream(set(range(8)), 8).encode().splitlines(keepends=True)
    log = tmp_path / "forks.txt"
    proc = subprocess.Popen(
        _watch_argv(tmp_path), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env=_env(True, log),
    )
    try:
        proc.stdin.write(lines[0])
        proc.stdin.flush()
        fd, pending = proc.stdout.fileno(), [b""]
        for index, line in enumerate(lines[1:]):
            proc.stdin.write(line)
            proc.stdin.flush()
            _read_records(
                fd, pending, lambda recs: ["alert", index] in [[r["type"], r["frame"]] for r in recs]
            )
        proc.stdin.close()
        assert proc.wait(timeout=TIMEOUT_S) == 1
    finally:
        proc.stdin.close()
        proc.kill()
        proc.wait(timeout=TIMEOUT_S)
        proc.stdout.close()
    assert len(_forked_pids(log)) == 1


@contextmanager
def _watch_on_open_stdin(tmp_path, log, raise_at=None):
    """watch, forced to fork, on a stdin pipe that stays open until the
    block ends; yields the process and the pipe's write end."""
    read_end, write_end = os.pipe()
    try:
        proc = subprocess.Popen(
            _watch_argv(tmp_path), stdin=read_end, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=_env(True, log, raise_at),
        )
    finally:
        os.close(read_end)
    try:
        yield proc, write_end
    finally:
        # A child still blocked on stdin reads its end and exits.
        os.close(write_end)
        proc.kill()
        proc.wait(timeout=TIMEOUT_S)
        proc.stdout.close()
        proc.stderr.close()


def test_an_analysis_error_on_live_input_stops_the_child(tmp_path):
    # stdin stays open, so the child is blocked reading it when frame 3
    # fails in the parent.
    log = tmp_path / "forks.txt"
    with _watch_on_open_stdin(tmp_path, log, raise_at=3) as (proc, stdin):
        os.write(stdin, watch_stream({0, 1, 2}, 6).encode())
        out, err = proc.communicate(timeout=TIMEOUT_S)
        assert proc.returncode != 0
        assert b"RuntimeError: analysis failed" in err
        assert [json.loads(line)["frame"] for line in out.splitlines()] == [0, 0, 1, 2]
        (pid,) = _forked_pids(log)
        assert _gone(pid)
        # No process is left reading the pipe.
        with pytest.raises(BrokenPipeError):
            os.write(stdin, b"\n")


def test_the_child_does_not_hold_the_callers_stdout(tmp_path):
    # The parent is killed outright, so it cannot stop its child; the
    # reader of its stdout must still see the end of it.
    log = tmp_path / "forks.txt"
    with _watch_on_open_stdin(tmp_path, log) as (proc, stdin):
        lines = watch_stream({0}, 2).encode().splitlines(keepends=True)
        os.write(stdin, b"".join(lines[:2]))
        fd = proc.stdout.fileno()
        _read_records(fd, [b""], lambda recs: len(recs) == 2)
        (pid,) = _forked_pids(log)
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=TIMEOUT_S) == -signal.SIGKILL
        assert not _gone(pid)
        ready, _, _ = select.select([fd], [], [], TIMEOUT_S)
        assert ready and os.read(fd, 1) == b""
