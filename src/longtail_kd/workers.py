"""Independent jobs spread over the CPUs this process may run on.

``split(n)`` cuts ``n`` items into contiguous ``(start, stop)`` ranges, one
per worker: as many workers as CPUs in this process's affinity mask, never
more than there are items, and one where the platform cannot fork or
report the mask. ``run_split`` runs a job over ranges the caller takes
from ``split`` in the units it needs: ``temperature_sweep`` splits its
temperatures and ``save_dataset`` whole 1024-row chunks of a dataset. It
keeps the first range for this process and forks one child (``os.fork``)
per other range, which runs the job and sends its result back as bytes
through a pipe. The children are joined in the order they were forked, so
results come back in range order whatever the worker count. Each child
leaves through ``os._exit``: it never returns into the caller's stack,
flushes no inherited buffer and runs no atexit handler, and its exit
status is 0 only if its work finished. On a failure on either side, every
child not yet joined is killed and reaped before the error propagates, so
no process is left behind.

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


def run_split(ranges, work, describe, *args):
    """All the bytes ``work(send, *args, start, stop)`` sends over
    ``ranges``, in range order: this process runs the first range and a
    forked child each other one. ``send(bytes)`` passes bytes back to this
    process; a pipe buffers little (64 KiB on Linux), so a child that sends
    more blocks until it is joined. A failed child raises OSError naming
    ``describe(start, stop, sent)``, given the bytes it had sent."""
    children = []  # (pid, read end of its pipe), oldest first, not yet joined
    try:
        for start, stop in ranges[1:]:
            children.append(_fork(work, *args, start, stop))
        sent = bytearray()
        work(sent.extend, *args, *ranges[0])
        for start, stop in ranges[1:]:
            pid, read_fd = children[0]
            with open(read_fd, "rb", closefd=False) as pipe:
                child_sent = pipe.read()
            del children[0]
            os.close(read_fd)
            _, status = os.waitpid(pid, 0)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise OSError(f"{describe(start, stop, child_sent)} failed (exit status {code})")
            sent += child_sent
        return bytes(sent)
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(work, *args):
    """``(pid, read end of its pipe)`` of a new child that runs
    ``work(send, *args)`` and exits."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
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
