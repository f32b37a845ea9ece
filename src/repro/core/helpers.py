"""Helper pool for the AMPED architecture (Sections 3.4, 5.1).

In AMPED, the main event-driven loop handles all processing steps of an
HTTP request by default.  When a step may block on disk — a pathname
translation that misses the cache, or transmitting a file whose pages are
not memory resident — the main loop hands the potentially blocking
operation to a *helper*.  The helper performs it (reading the file's pages
so the data lands in the OS buffer cache), then posts a completion
notification; the main loop learns of it like any other I/O completion
event, through ``select``.

Helpers handle one request at a time and are kept in reserve when idle.
They never return file content: the main loop transmits from its own
descriptor of the same file.

Two operations are supported: pathname translation (``OP_TRANSLATE``) and
``OP_WARM``, the paper's read helper: it makes a body window memory
resident via ``posix_fadvise(WILLNEED)`` plus a bounded positional
read-touch, so the main loop can transmit straight from the descriptor —
by ``sendfile`` or by buffered reads — without blocking.

Helpers are threads in the server process.  The paper notes helpers "can
be implemented either as kernel threads within the main server process or
as separate processes" (§3.4); Flash used processes only for portability
to systems without kernel threads.  CPython threads release the GIL during
``stat`` and disk reads, so they keep the main loop from blocking just as
processes would, and because they share the server's memory a reply
carries objects — the translation's :class:`PathnameEntry`, or the
exception the operation raised — and a warm reads the server's own pinned
descriptor.  A helper posts its completion with
:meth:`EventLoop.call_soon`, whose wakeup socketpair the loop watches.
(The simulator still models the paper's process helpers.)
"""

from __future__ import annotations

import logging
import os
import queue
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.cache.pathname import PathnameEntry
from repro.http.uri import resolve_path

logger = logging.getLogger(__name__)

#: Helper operation codes.
OP_TRANSLATE = "translate"
OP_WARM = "warm"
OP_SHUTDOWN = "shutdown"

#: Buffer size for the warm operation's read-touch passes.  One reusable
#: buffer of this size bounds the helper's memory no matter how large the
#: file being warmed is.
WARM_READ_BUFFER = 256 * 1024

_HAS_FADVISE = hasattr(os, "posix_fadvise") and hasattr(os, "POSIX_FADV_WILLNEED")


def advise_willneed(fd: int, offset: int = 0, length: int = 0) -> bool:
    """Hint the kernel to start reading ``fd``'s byte range into the cache.

    Issues ``posix_fadvise(POSIX_FADV_WILLNEED)``, which kicks off readahead
    asynchronously and returns immediately — cheap enough for SPED to call
    inline on the main loop.  Returns False (and does nothing) on platforms
    without ``posix_fadvise`` or when the advice is rejected.
    """
    if not _HAS_FADVISE:
        return False
    try:
        os.posix_fadvise(fd, offset, length, os.POSIX_FADV_WILLNEED)
        return True
    except OSError:
        return False


@dataclass
class HelperRequest:
    """A unit of work handed to a helper.

    Attributes
    ----------
    seq:
        Sequence number used to match the completion to its callback.
    op:
        ``OP_TRANSLATE`` (pathname translation + stat) or ``OP_WARM``
        (``posix_fadvise(WILLNEED)`` + bounded read-touch of a file range,
        so it becomes memory resident).
    uri, document_root, user_dirs:
        What a translation resolves (``OP_TRANSLATE`` only).
    fd:
        The open file descriptor to warm (``OP_WARM`` only).  The caller
        keeps it pinned until the reply arrives.
    offset, length:
        Byte range to warm (0, 0 means the whole file).
    """

    seq: int
    op: str
    uri: str = ""
    fd: int = -1
    offset: int = 0
    length: int = 0
    document_root: str = ""
    user_dirs: Optional[dict] = None


@dataclass
class HelperReply:
    """Completion notification returned by a helper.

    It carries the operation's outcome as objects — the translation's
    entry, the bytes a warm touched, or the exception the operation raised
    — and never file contents.
    """

    seq: int
    op: str
    #: The translation (``OP_TRANSLATE``), stamped when its ``stat`` ran.
    entry: Optional[PathnameEntry] = None
    bytes_touched: int = 0
    #: The exception a failed operation raised.
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def error_message(self) -> str:
        return "" if self.error is None else str(self.error)


def perform_helper_operation(request: HelperRequest) -> HelperReply:
    """Execute one helper request synchronously.

    This is the function helpers run; tests also call it directly.  A
    translation is built by the same constructor, from the same
    :func:`resolve_path`, as the inline one (``ContentStore.translate``),
    so it raises the same exceptions.
    """
    reply = HelperReply(seq=request.seq, op=request.op)
    try:
        if request.op == OP_TRANSLATE:
            reply.entry = PathnameEntry.from_stat(
                request.uri,
                *resolve_path(
                    request.uri,
                    document_root=request.document_root,
                    user_dirs=request.user_dirs,
                ),
            )
        elif request.op == OP_WARM:
            reply.bytes_touched = _warm_file_range(request.fd, request.offset, request.length)
        else:
            raise ValueError(f"unknown helper operation: {request.op!r}")
    except Exception as exc:  # noqa: BLE001 - helpers must never die on a bad request
        reply.error = exc
    return reply


def _warm_file_range(fd: int, offset: int, length: int) -> int:
    """Make a byte range of a response body memory resident.

    The main loop will transmit straight from ``fd``, so the helper's only
    job is to get the pages into the OS buffer cache — no mapping
    coordination, no data handed back.  (The paper's helper touches every
    page of its mapping of the file; reading the range through the buffer
    cache has the same effect.)

    Two steps:

    1. ``posix_fadvise(WILLNEED)`` tells the kernel to start readahead over
       the whole range at once, so the disk sees one large sequential
       request instead of the buffer-sized reads below.
    2. A positional read-touch (``os.preadv`` into one reusable bounded
       buffer) walks the range to guarantee the pages are actually resident
       by completion time — ``WILLNEED`` alone is only a hint, and the main
       loop transmits assuming the helper's reply means "will not block".

    ``os.preadv``/``os.pread`` never move the descriptor's file offset, so
    warming is safe to run concurrently with a ``sendfile`` transfer from
    the same shared descriptor.
    """
    size = os.fstat(fd).st_size
    if length <= 0:
        length = size - offset
    length = max(0, min(length, size - offset))
    advise_willneed(fd, offset, length)
    buffer = bytearray(min(WARM_READ_BUFFER, max(1, length)))
    view = memoryview(buffer)
    read_at = getattr(os, "preadv", None)
    touched = 0
    position = offset
    remaining = length
    while remaining > 0:
        want = min(len(buffer), remaining)
        if read_at is not None:
            got = read_at(fd, [view[:want]], position)
        else:  # pragma: no cover - platforms without preadv
            got = len(os.pread(fd, want, position))
        if got <= 0:
            break
        touched += got
        position += got
        remaining -= got
    return touched


class HelperPool:
    """Hands potentially blocking operations to helper threads and collects
    their completions.

    The pool owns ``num_helpers`` helper threads.  :meth:`submit` queues a
    request with its completion callback; idle helpers pick work up
    immediately and excess requests wait (the paper sizes the pool to
    "enough helpers to keep the disk busy", not one per connection).
    :meth:`register` binds the pool to an event loop; afterwards each
    completion is posted to the loop and its callback runs on the loop
    thread — never concurrently with the event loop.  An unbound pool runs
    its operations but delivers no completions.

    Parameters
    ----------
    num_helpers:
        Number of helper threads.
    mode:
        ``"thread"``, the one realization (see the module docstring).
    """

    def __init__(self, num_helpers: int = 4, mode: str = "thread"):
        if num_helpers < 1:
            raise ValueError("num_helpers must be at least 1")
        if mode != "thread":
            raise ValueError("helpers are threads: mode must be 'thread'")
        self.num_helpers = num_helpers
        self._seq = 0
        self._callbacks: dict[int, Callable[[HelperReply], None]] = {}
        self._closed = False
        self._loop = None
        self._work_queue: queue.Queue = queue.Queue()
        self._threads = [
            threading.Thread(target=self._thread_main, name=f"flash-helper-{i}", daemon=True)
            for i in range(num_helpers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def outstanding(self) -> int:
        """Number of submitted operations whose completion has not yet run."""
        return len(self._callbacks)

    def submit(self, request: HelperRequest, callback: Callable[[HelperReply], None]) -> int:
        """Queue ``request``; ``callback(reply)`` runs when the helper finishes."""
        if self._closed:
            raise RuntimeError("helper pool is shut down")
        self._seq += 1
        request.seq = self._seq
        self._callbacks[request.seq] = callback
        self._work_queue.put(request)
        return request.seq

    def register(self, loop) -> None:
        """Bind the pool to the event loop its completions are posted to."""
        self._loop = loop

    def unregister(self, loop) -> None:
        """Unbind the pool from an event loop."""
        self._loop = None

    def shutdown(self) -> None:
        """Stop all helpers.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._work_queue.put(HelperRequest(seq=0, op=OP_SHUTDOWN))
        for thread in self._threads:
            thread.join(timeout=5.0)

    def _complete(self, reply: HelperReply) -> None:
        try:
            callback = self._callbacks.pop(reply.seq, None)
            if callback is not None:
                callback(reply)
        except Exception:
            # Crash barrier (lint rule RL005): this runs on the event loop,
            # and an escaped exception would kill every connection.
            logger.exception("unhandled error in helper completion (absorbed)")

    def _thread_main(self) -> None:
        while True:
            request = self._work_queue.get()
            if request.op == OP_SHUTDOWN:
                return
            reply = perform_helper_operation(request)
            loop = self._loop
            if loop is not None:
                loop.call_soon(partial(self._complete, reply))
