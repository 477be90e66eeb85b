"""Independent jobs spread over the CPUs this process may run on.

``split(n)`` cuts ``n`` items into contiguous ``(start, stop)`` ranges,
one per worker: as many workers as CPUs in this process's affinity mask,
never more than there are items, and one where the platform cannot fork or
report the mask. ``run_split`` runs a job over ranges the caller takes
from ``split``; its one caller, ``temperature_sweep``, splits its
temperatures. It keeps the first range for this process and forks one
child (``os.fork``) per other range. A child gathers what its job sends in
memory and, when the job ends, writes all of it to its pipe, so the
children work side by side whatever they send. The children are joined in
the order they were forked, each pipe read through ``blocks`` into the
caller's sink, so the sink sees the bytes in range order whatever the
worker count. Each child leaves through ``os._exit``: it never returns
into the caller's stack, flushes no inherited buffer and runs no atexit
handler, and its exit status is 0 only if its work finished. On a failure
on either side, every child not yet joined is killed and reaped before the
error propagates, so no process is left behind. A caller killed outright
cannot do that, so a child checks at each send that its caller is still
its parent and, once it is gone, stops there through ``os._exit(1)``,
silently: a sweep's child stops after the student it is training.

Children start from a copy of the caller's memory and report back only
through their pipes, so anything else a child records, such as a
tracer's spans, stays in the child.
"""

from __future__ import annotations

import os
import signal

# bytes per read of ``blocks``: the buffer a pipe or file is read through
_BLOCK_BYTES = 1 << 20


def split(n):
    """Contiguous ``(start, stop)`` ranges covering ``range(n)``, one per
    worker; ``min(CPUs in the affinity mask, n)`` workers, at least one."""
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = max(1, min(len(os.sched_getaffinity(0)), n))
    return [(k * n // workers, (k + 1) * n // workers) for k in range(workers)]


def blocks(fh):
    """The rest of binary file ``fh`` as views of one reused
    ``_BLOCK_BYTES`` buffer, each valid until the next is read: a fresh
    ``bytes`` per block would be a new memory mapping each time under the
    CLI's malloc thresholds."""
    buf = memoryview(bytearray(_BLOCK_BYTES))
    while n := fh.readinto(buf):
        yield buf[:n]


def run_split(ranges, work, describe, sink, *args):
    """Hand ``sink`` every byte that ``work(send, *args, start, stop)``
    sends over ``ranges``, in range order. This process runs the first
    range with ``send = sink``, and a forked child each other one. A
    child's bytes reach ``sink`` after its work has ended, as ``blocks``
    views valid only during the call. A child that failed still hands over
    what it sent; then OSError names ``describe(start, stop, n_sent)``,
    where ``n_sent`` counts those bytes."""
    children = []  # (pid, read end of its pipe), oldest first, not yet joined
    try:
        for start, stop in ranges[1:]:
            children.append(_fork(work, *args, start, stop))
        work(sink, *args, *ranges[0])
        for start, stop in ranges[1:]:
            pid, read_fd = children[0]
            n_sent = 0
            with open(read_fd, "rb", closefd=False) as pipe:
                for block in blocks(pipe):
                    sink(block)
                    n_sent += len(block)
            del children[0]
            os.close(read_fd)
            _, status = os.waitpid(pid, 0)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise OSError(f"{describe(start, stop, n_sent)} failed (exit status {code})")
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(work, *args):
    """``(pid, read end of its pipe)`` of a new child that runs
    ``work(send, *args)``, writes all it sent to the pipe, also if the
    work raised, and exits; at once and silently at a send, or after a
    failure, once its caller is gone."""
    caller = os.getpid()
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
        sent = bytearray()

        def send(data):
            if os.getppid() != caller:
                os._exit(1)
            sent.extend(data)

        with open(write_fd, "wb") as pipe:
            try:
                work(send, *args)
            finally:
                pipe.write(sent)
        status = 0
    except BaseException as exc:
        if os.getppid() == caller:
            os.write(2, f"worker process {os.getpid()}: {exc!r}\n".encode("ascii", "replace"))
    finally:
        os._exit(status)
