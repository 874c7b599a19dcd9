"""Work done in a forked child process, and the pipe that brings it back.

``pipeline.frame_source`` forks a child that parses a stream while the
calling process analyzes it; ``simulator.Simulation.write`` forks one
that replays the ground truth while the calling process writes the
stream.  Both go through ``start_child``: the child runs one function
and ends with one end message, its result or its exception, and the
parent reads what it sent and reaps it.
"""

from __future__ import annotations

import io
import marshal
import os
import threading
from typing import BinaryIO, Callable, Iterator, NoReturn

# A function run in the child.  It is handed ``send``, which sends one
# list to the parent, and returns the child's result; both must be
# marshal data.
Work = Callable[[Callable[[list], None]], object]


def can_fork() -> bool:
    """Whether work may go to a forked child.

    True where fork is available, more than one CPU is usable and this
    process runs no other thread: a forked child has only the forking
    thread, and a lock another thread held at the fork stays held in
    the child.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus > 1


def start_child(work: Work) -> Child:
    """Fork a child that runs ``work(send)``; returns the parent's end.

    Use the returned Child as a context manager: on leaving the block
    the child is reaped, and killed first if its end message was not
    read.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _child_main(work, read_fd, write_fd)
    os.close(write_fd)
    return Child(pid, open(read_fd, "rb"))


# Every message on the pipe is a 4-byte little-endian length, then that
# many bytes of marshal data: a list the work sent, or, last, the one
# (result, pickled exception or None) end tuple.
_LENGTH_BYTES = 4


def _child_main(work: Work, read_fd: int, write_fd: int) -> NoReturn:
    """Run ``work`` and send its end message; never returns.

    Leaves through os._exit, so no atexit hook runs and no inherited
    buffer (stdio, an open output file) is flushed a second time.
    """
    status = 1
    try:
        os.close(read_fd)
        # Whoever reads the caller's stdout or stderr to its end must not
        # wait on this process.
        null = os.open(os.devnull, os.O_WRONLY)
        for fd in (1, 2):
            if fd != write_fd:
                os.dup2(null, fd)
        out = io.BufferedWriter(io.FileIO(write_fd, "wb"))
        dumps = marshal.dumps

        def send(obj) -> None:
            msg = dumps(obj)
            out.write(len(msg).to_bytes(_LENGTH_BYTES, "little"))
            out.write(msg)
            out.flush()

        try:
            end = (work(send), None)
        except Exception as exc:
            end = (None, _pickled(exc))
        send(end)
        status = 0
    finally:
        os._exit(status)


def _pickled(exc: Exception) -> bytes:
    # pickle is imported only on this error path (and where the parent
    # unpickles): importing it costs every analyze about 0.2 MB of RSS.
    import pickle

    try:
        return pickle.dumps(exc)
    except Exception:
        return pickle.dumps(RuntimeError(f"forked child failed: {exc!r}"))


class Child:
    """The parent's end of a forked child: its lists, then its result.

    Raises the child's exception in place of its result, and
    ChildProcessError if the child ends without its end message.
    """

    def __init__(self, pid: int, pipe: BinaryIO):
        self.pid = pid
        self.ended = False  # the end message was read
        self.result = None
        self._pipe = pipe

    def __enter__(self) -> Child:
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if not self.ended:
                # Left early: the child may be blocked reading a live
                # input that never ends.  signal is imported only here,
                # since importing it costs every analyze about 0.13 MB
                # of RSS.
                import signal

                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        finally:
            self._pipe.close()

    def _message(self):
        read = self._pipe.read
        head = read(_LENGTH_BYTES)
        size = int.from_bytes(head, "little")
        body = read(size)
        if len(head) != _LENGTH_BYTES or len(body) != size:
            raise ChildProcessError("forked child ended before its end message")
        return marshal.loads(body)

    def __iter__(self) -> Iterator[list]:
        """Each list the child sends, in order; ``result`` is set after."""
        message = self._message
        while True:
            msg = message()
            if type(msg) is not list:
                break
            yield msg
        self.ended = True
        result, error = msg
        if error is not None:
            import pickle

            raise pickle.loads(error)
        self.result = result

    def wait(self):
        """The result of a child that sends no list."""
        for _ in self:
            raise ChildProcessError("forked child sent a list before its end message")
        return self.result
