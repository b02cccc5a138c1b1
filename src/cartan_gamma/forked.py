"""The one way to a second core: :func:`shared`, gated by :func:`second_cpu`."""

from __future__ import annotations

import marshal
import os
import threading
from contextlib import contextmanager
from itertools import islice

# Back-end items the caller holds: every Gauss sweep with p <= 10,000 fits,
# and 10,000 roots at 50 digits take a few MB.
_TAIL_MAX = 10_000


def second_cpu() -> bool:
    """Whether a helper may run beside this process: fork, no other thread
    (fork copies only the calling one), and a second CPU, taken to be free."""
    return (hasattr(os, "fork") and threading.active_count() == 1
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1)


@contextmanager
def shared(item, count: int, per_record: int, front=None, helpers: int = 1):
    """An iterator over item(0), ..., item(count - 1), as ``front`` (by
    default item of each index) yields them.  With second_cpu() and
    count > 1, a forked helper streams ``front``, per_record marshalled items
    to a record, while a second one (``helpers=2``), or this process while
    no record waits, computes item(count - 1) downward.  A helper that dies
    costs only time: this process computes what is missing, so an item that
    raises raises here.  Leaving the block kills the helpers."""
    import signal

    front = map(item, range(count)) if front is None else front
    started = []
    try:
        if count > 1 and second_cpu():
            # No handler may run from a fork until each process is in the block
            # that ends it (in a helper it would unwind into the caller's stack,
            # here lose the pid); one already due runs in the blocking call.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
            try:
                signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
                for items in (front, map(item, range(count - 1, -1, -1)))[:helpers]:
                    helper = _fork(mask, items, per_record, [read for _, read in started])
                    if helper is None:
                        break
                    started.append(helper)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield _received(item, count, *(read for _, read in started)) if started else front
    finally:
        if started:
            try:
                signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            finally:
                for pid, read in started:
                    os.close(read)
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _fork(mask, items, per_record: int, reads: list[int]):
    """(pid, read end) of a helper that writes items as length-prefixed
    marshal records, or None when the pipe or the fork fails."""
    import signal

    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        try:
            # A terminal's Ctrl-C reaches the helper too; the caller answers it.
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for fd in (read, *reads):
                os.close(fd)
            while chunk := list(islice(items, per_record)):
                record = marshal.dumps(chunk)
                data = len(record).to_bytes(4, "little") + record
                while data:
                    data = data[os.write(write, data):]
        finally:
            os._exit(0)
    os.close(write)
    return pid, read


def _received(item, count: int, front: int, back: int | None = None):
    """The items in order from the helpers' pipes; this process computes
    the back end while the front is idle, no back helper lives and the tail
    has room, and the front once its pipe ends, even mid-record."""
    import select

    live = {front, back} - {None}
    buffers = {fd: bytearray() for fd in live}
    tail, m, end = [], 0, count
    while m < end:
        room = len(tail) < _TAIL_MAX
        wanted = [fd for fd in live if fd == front or room]
        idle = front not in live or (back not in live and room)
        ready = select.select(wanted, [], [], 0 if idle else None)[0] if wanted else ()
        for fd in ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                live.discard(fd)
            buffer = buffers[fd]
            buffer += chunk
            while len(buffer) >= 4 + (size := int.from_bytes(buffer[:4], "little")):
                record = marshal.loads(buffer[4:4 + size])[:end - m]
                del buffer[:4 + size]
                if fd == front:
                    yield from record
                    m += len(record)
                else:
                    tail += record
                    end -= len(record)
        if not ready:
            if front in live:
                end -= 1
                tail.append(item(end))
            else:
                yield item(m)
                m += 1
    yield from reversed(tail)
