"""Independent jobs spread over the CPUs this process may run on.

``split(n)`` cuts ``n`` items into contiguous ``(start, stop)`` ranges, one
per worker: as many workers as CPUs in this process's affinity mask, never
more than there are items, and one where the platform cannot fork or
report the mask. ``run_split`` runs a job over those ranges; a caller
that must handle each child's result as it comes (``save_dataset``) uses
``Workers`` directly. Either way the caller keeps the first range for
itself and hands each other range to ``Workers.fork``, which starts a
child process (``os.fork``) that runs the work and sends its result back
as bytes through a pipe. The caller then collects the children with
``Workers.join`` in the order it forked them, so results come back in
item order whatever the worker count. Each child leaves through ``os._exit``:
it never returns into the caller's stack, flushes no inherited buffer and
runs no atexit handler, and its exit status is 0 only if its work
finished. Leaving the ``with`` block kills and reaps every child not yet
joined, so a failure on either side leaves no process behind.

Children start from a copy of the caller's memory and report back only
through their pipes (or files their work writes), so anything else a child
records, such as a tracer's spans, stays in the child.
"""

from __future__ import annotations

import os
import signal


def split(n):
    """Contiguous ``(start, stop)`` ranges covering ``range(n)``, one per
    worker; ``min(CPUs in the affinity mask, n)`` workers, at least one."""
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = max(1, min(len(os.sched_getaffinity(0)), n))
    return [(k * n // workers, (k + 1) * n // workers) for k in range(workers)]


def run_split(n, work, describe, *args):
    """All the bytes ``work(send, *args, start, stop)`` sends over the ranges
    of ``split(n)``, in range order: this process runs the first range and
    a forked child each other one. A failed child raises OSError naming
    ``describe(start, stop, sent)``, given the bytes it had sent."""
    ranges = split(n)
    with Workers() as workers:
        for start, stop in ranges[1:]:
            workers.fork(work, *args, start, stop)
        sent = bytearray()
        work(sent.extend, *args, *ranges[0])
        for start, stop in ranges[1:]:
            sent += workers.join(lambda child_sent: describe(start, stop, child_sent))
    return bytes(sent)


class Workers:
    """Forked children, joined in the order they were started."""

    def __init__(self):
        self._children = []  # (pid, read end of its pipe)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def fork(self, work, *args):
        """Start a child that runs ``work(send, *args)``, where ``send(bytes)``
        passes bytes back to this process. A pipe buffers little (64 KiB on
        Linux), so a child that sends more blocks until it is joined."""
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid:
            os.close(write_fd)
            self._children.append((pid, read_fd))
            return
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                work(pipe.write, *args)
            status = 0
        except BaseException as exc:
            os.write(2, f"worker process {os.getpid()}: {exc!r}\n".encode("ascii", "replace"))
        finally:
            os._exit(status)

    def join(self, describe):
        """The bytes the oldest child not yet joined sent, once it has exited.
        Unless it exited with status 0, raises OSError naming
        ``describe(sent)``, what the child was doing given the bytes it had
        sent before it stopped."""
        pid, read_fd = self._children[0]
        with open(read_fd, "rb", closefd=False) as pipe:
            sent = pipe.read()
        del self._children[0]
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
        if status:
            raise OSError(f"{describe(sent)} failed (exit status {os.waitstatus_to_exitcode(status)})")
        return sent

    def close(self):
        """Kill and reap every child not yet joined."""
        while self._children:
            pid, read_fd = self._children.pop()
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
