"""Helper pool and IPC protocol for the AMPED architecture (Sections 3.4, 5.1).

In AMPED, the main event-driven process handles all processing steps of an
HTTP request by default.  When a step may block on disk — a pathname
translation that misses the cache, or transmitting a file whose pages are
not memory resident — the main process instructs a *helper* over an IPC
channel to perform the potentially blocking operation.  The helper performs
the operation (touching all pages of its mapping of the file so the data
lands in the OS buffer cache), then returns a completion notification over
the IPC channel; the main process learns of this like any other I/O
completion event through ``select``.

Helpers handle one request at a time and are kept in reserve when idle.  To
minimize IPC, helpers return only a completion notification, never file
content (the main process transmits from its own mapping of the same file).

Three operations are supported: pathname translation (``OP_TRANSLATE``),
page-warming through a file mapping (``OP_READ``, the paper's read helper),
and ``OP_WARM`` — the zero-copy variant of the read helper, which makes an
fd-backed (``sendfile``) response memory resident via
``posix_fadvise(WILLNEED)`` plus a bounded positional read-touch, so the
main process can transmit straight from the descriptor without mapping the
file at all.

Two realizations are provided, selected by ``ServerConfig.helper_mode``:

``"process"``
    Faithful to the paper: helpers are separate processes created with
    :mod:`multiprocessing`, each connected to the server by a duplex pipe
    whose file descriptor the event loop watches.

``"thread"``
    Helpers are threads inside the server process.  The paper notes helpers
    "can be implemented either as kernel threads within the main server
    process or as separate processes"; CPython threads release the GIL
    during disk reads, so they provide the same does-not-block-the-main-loop
    property with far lower IPC cost.  A helper thread posts its completion
    with :meth:`EventLoop.call_soon`, whose wakeup socketpair the loop
    watches, so the observation path is unchanged: the main loop still
    learns of completions via ``select``.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.cache.pathname import PathnameEntry
from repro.core.event_loop import EVENT_READ
from repro.http.uri import resolve_path

logger = logging.getLogger(__name__)

#: Helper operation codes.
OP_TRANSLATE = "translate"
OP_READ = "read"
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
    """A unit of work shipped to a helper.

    Attributes
    ----------
    seq:
        Sequence number used to match the completion to its callback.
    op:
        ``OP_TRANSLATE`` (pathname translation + stat), ``OP_READ`` (touch
        all pages of a file range so it becomes memory resident) or
        ``OP_WARM`` (``posix_fadvise(WILLNEED)`` + bounded read-touch on an
        already open descriptor, for fd-backed ``sendfile`` responses).
    uri:
        Request path, for translations.
    path:
        Filesystem path, for reads and warms.
    fd:
        Open file descriptor to warm (``OP_WARM`` only).  Valid only for
        thread-mode helpers, which share the server's descriptor table; the
        server passes ``-1`` to process-mode helpers, which re-open ``path``
        (warming populates the shared OS buffer cache either way).  The
        caller must keep the descriptor pinned until the reply arrives.
    offset, length:
        Byte range to touch for reads/warms (0, 0 means the whole file).
    document_root, user_dirs:
        Translation parameters (helpers in process mode cannot see the
        server's config object, so the request carries what it needs).
    """

    seq: int
    op: str
    uri: str = ""
    path: str = ""
    fd: int = -1
    offset: int = 0
    length: int = 0
    document_root: str = ""
    user_dirs: Optional[dict] = None


@dataclass
class HelperReply:
    """Completion notification returned by a helper.

    Only metadata crosses the IPC channel — never file contents — matching
    the paper's design for minimizing inter-process communication.
    """

    seq: int
    op: str
    ok: bool
    path: str = ""
    size: int = 0
    mtime: float = 0.0
    mtime_ns: int = 0
    bytes_touched: int = 0
    error_type: str = ""
    error_message: str = ""


def perform_helper_operation(request: HelperRequest) -> HelperReply:
    """Execute one helper request synchronously.

    This is the function helpers run; it is also called directly by the
    SPED build (inline, where it may block the whole server) and by tests.
    """
    try:
        if request.op == OP_TRANSLATE:
            path, stat = resolve_path(
                request.uri,
                document_root=request.document_root,
                user_dirs=request.user_dirs,
            )
            return HelperReply(
                seq=request.seq,
                op=request.op,
                ok=True,
                path=path,
                size=stat.st_size,
                mtime=stat.st_mtime,
                mtime_ns=stat.st_mtime_ns,
            )
        if request.op == OP_READ:
            touched = _touch_file_range(request.path, request.offset, request.length)
            return HelperReply(
                seq=request.seq,
                op=request.op,
                ok=True,
                path=request.path,
                bytes_touched=touched,
            )
        if request.op == OP_WARM:
            touched = _warm_file_range(
                request.path, request.fd, request.offset, request.length
            )
            return HelperReply(
                seq=request.seq,
                op=request.op,
                ok=True,
                path=request.path,
                bytes_touched=touched,
            )
        raise ValueError(f"unknown helper operation: {request.op!r}")
    except Exception as exc:  # noqa: BLE001 - helpers must never die on a bad request
        return HelperReply(
            seq=request.seq,
            op=request.op,
            ok=False,
            error_type=type(exc).__name__,
            error_message=str(exc),
        )


def _touch_file_range(path: str, offset: int, length: int) -> int:
    """Read ``length`` bytes of ``path`` starting at ``offset`` to warm the cache.

    The helper in the paper mmaps the file and touches all pages of its
    mapping; reading the range through the buffer cache has the same effect
    (the pages end up resident) without requiring the helper and the server
    to coordinate mapping addresses.
    """
    size = os.path.getsize(path)
    if length <= 0:
        length = size - offset
    length = max(0, min(length, size - offset))
    touched = 0
    with open(path, "rb") as handle:
        handle.seek(offset)
        remaining = length
        while remaining > 0:
            data = handle.read(min(1 << 20, remaining))
            if not data:
                break
            touched += len(data)
            remaining -= len(data)
    return touched


def _warm_file_range(path: str, fd: int, offset: int, length: int) -> int:
    """Make a byte range of an fd-backed response memory resident.

    This is the zero-copy analogue of :func:`_touch_file_range`: the main
    process will transmit with ``os.sendfile`` straight from the descriptor,
    so the helper's only job is to get the pages into the OS buffer cache —
    no mapping coordination, no data crosses the IPC channel.

    Two steps:

    1. ``posix_fadvise(WILLNEED)`` tells the kernel to start readahead over
       the whole range at once, so the disk sees one large sequential
       request instead of the buffer-sized reads below.
    2. A positional read-touch (``os.preadv`` into one reusable bounded
       buffer) walks the range to guarantee the pages are actually resident
       by completion time — ``WILLNEED`` alone is only a hint, and the main
       process transmits assuming the helper's reply means "will not block".

    ``os.preadv``/``os.pread`` never move the descriptor's file offset, so
    warming is safe to run concurrently with a ``sendfile`` transfer from
    the same (shared, thread-mode) descriptor.

    When ``fd`` is negative (process-mode helpers do not share the server's
    descriptor table) the helper opens ``path`` itself; the buffer cache it
    fills is shared between processes all the same.
    """
    owns_fd = fd < 0
    if owns_fd:
        fd = os.open(path, os.O_RDONLY)
    try:
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
    finally:
        if owns_fd:
            os.close(fd)


def _death_reply(seq: int) -> HelperReply:
    """The failure reply synthesized for an operation whose helper died."""
    return HelperReply(
        seq=seq,
        op="",
        ok=False,
        error_type="HelperDiedError",
        error_message="helper process died mid-operation",
    )


def translation_entry_from_reply(uri: str, reply: HelperReply) -> PathnameEntry:
    """Convert a successful translation reply into a pathname-cache entry,
    stamped when the completion arrives on the loop."""
    if not reply.ok:
        raise ValueError("cannot build a PathnameEntry from a failed reply")
    return PathnameEntry(
        uri=uri,
        filesystem_path=reply.path,
        size=reply.size,
        mtime=reply.mtime,
        mtime_ns=reply.mtime_ns,
        validated_at=time.monotonic(),
    )


class HelperPool:
    """Dispatches potentially blocking operations to helpers and collects completions.

    The pool owns ``num_helpers`` helpers.  :meth:`submit` queues a request
    with its completion callback; idle helpers pick work up immediately and
    excess requests wait (the paper sizes the pool to "enough helpers to
    keep the disk busy", not one per connection).  :meth:`register` binds
    the pool to an event loop; afterwards completions are delivered by the
    loop's normal readiness dispatch and each callback runs in the main
    process/thread — never concurrently with the event loop.  An unbound
    pool runs its operations but delivers no completions.

    Parameters
    ----------
    num_helpers:
        Number of helper processes or threads.
    mode:
        ``"thread"`` or ``"process"`` (see module docstring).
    """

    def __init__(self, num_helpers: int = 4, mode: str = "thread"):
        if num_helpers < 1:
            raise ValueError("num_helpers must be at least 1")
        if mode not in ("thread", "process"):
            raise ValueError("mode must be 'thread' or 'process'")
        self.num_helpers = num_helpers
        self.mode = mode
        self._seq = 0
        self._callbacks: dict[int, Callable[[HelperReply], None]] = {}
        self._closed = False
        self._loop = None
        self.dispatched = 0
        self.completed = 0
        #: Helpers that died mid-operation (process mode: the pipe EOFed).
        #: Each death synthesizes a failed reply for the operation the
        #: helper owned, so its requester degrades instead of hanging.
        self.helpers_died = 0

        if mode == "thread":
            self._init_threads()
        else:
            self._init_processes()

    # -- public API -----------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Number of submitted operations whose completion has not yet run."""
        return len(self._callbacks)

    @property
    def idle_helpers(self) -> int:
        """Helpers currently waiting for work (approximate in thread mode)."""
        if self.mode == "thread":
            return max(0, self.num_helpers - min(self.outstanding, self.num_helpers))
        return len(self._idle_processes)

    def submit(self, request: HelperRequest, callback: Callable[[HelperReply], None]) -> int:
        """Queue ``request``; ``callback(reply)`` runs when the helper finishes."""
        if self._closed:
            raise RuntimeError("helper pool is shut down")
        self._seq += 1
        request.seq = self._seq
        self._callbacks[request.seq] = callback
        self.dispatched += 1
        if self.mode == "thread":
            self._work_queue.put(request)
        else:
            self._submit_process(request)
        return request.seq

    def register(self, loop) -> None:
        """Bind the pool to an event loop that will run its completions.

        Thread-mode helpers post to the loop; process-mode helper pipes are
        registered with it.
        """
        self._loop = loop
        if self.mode == "process":
            for conn in self._parent_conns:
                loop.register(
                    conn,
                    EVENT_READ,
                    lambda _fileobj, _mask, c=conn: self._drain_process(c),
                )

    def unregister(self, loop) -> None:
        """Unbind the pool from an event loop."""
        if self.mode == "process":
            for conn in self._parent_conns:
                loop.unregister(conn)
        self._loop = None

    def shutdown(self) -> None:
        """Stop all helpers and release IPC resources.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.mode == "thread":
            for _ in self._threads:
                self._work_queue.put(HelperRequest(seq=0, op=OP_SHUTDOWN))
            for thread in self._threads:
                thread.join(timeout=5.0)
        else:
            for conn in self._parent_conns:
                try:
                    conn.send(HelperRequest(seq=0, op=OP_SHUTDOWN))
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._processes:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
            for conn in self._parent_conns:
                conn.close()

    # -- completion plumbing ----------------------------------------------------

    def _complete(self, reply: HelperReply) -> None:
        try:
            callback = self._callbacks.pop(reply.seq, None)
            self.completed += 1
            if callback is not None:
                callback(reply)
        except Exception:
            # Crash barrier (lint rule RL005): this runs on the event loop,
            # and an escaped exception would kill every connection.
            logger.exception("unhandled error in helper completion (absorbed)")

    # -- thread mode -------------------------------------------------------------

    def _init_threads(self) -> None:
        self._work_queue: queue.Queue = queue.Queue()
        self._threads = [
            threading.Thread(target=self._thread_main, name=f"flash-helper-{i}", daemon=True)
            for i in range(self.num_helpers)
        ]
        for thread in self._threads:
            thread.start()

    def _thread_main(self) -> None:
        while True:
            request = self._work_queue.get()
            if request.op == OP_SHUTDOWN:
                return
            reply = perform_helper_operation(request)
            loop = self._loop
            if loop is not None:
                loop.call_soon(partial(self._complete, reply))

    # -- process mode -------------------------------------------------------------

    def _init_processes(self) -> None:
        context = multiprocessing.get_context("fork" if hasattr(os, "fork") else "spawn")
        self._parent_conns = []
        self._processes = []
        self._idle_processes: list = []
        self._busy: dict = {}
        self._backlog: list[HelperRequest] = []
        for index in range(self.num_helpers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            proc = context.Process(
                target=_process_helper_main,
                args=(child_conn,),
                name=f"flash-helper-{index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._parent_conns.append(parent_conn)
            self._processes.append(proc)
            self._idle_processes.append(parent_conn)

    def _submit_process(self, request: HelperRequest) -> None:
        if not self._parent_conns:
            # Every helper has died: nothing can ever run this operation.
            # Fail it immediately so the requester degrades instead of
            # waiting on a completion that will never arrive.
            self._complete(_death_reply(request.seq))
            return
        if self._idle_processes:
            conn = self._idle_processes.pop()
            self._busy[conn] = request.seq
            try:
                conn.send(request)
            except (BrokenPipeError, OSError):
                self._helper_died(conn)
        else:
            self._backlog.append(request)

    def _drain_process(self, conn) -> int:
        """Run completions available on one helper pipe; returns the count.

        A pipe that EOFs (or errors) means the helper process died — on a
        segfault, an OOM kill, an operator mistake — while it may have
        owned an in-flight operation.  The death is absorbed here:
        :meth:`_helper_died` synthesizes a failed reply for that operation
        and the pool degrades to the surviving helpers.
        """
        try:
            processed = 0
            while True:
                try:
                    if not conn.poll():
                        return processed
                    reply = conn.recv()
                except (EOFError, OSError):
                    self._helper_died(conn)
                    return processed
                self._finish_process(conn, reply)
                processed += 1
        except Exception:
            # Crash barrier (lint rule RL005): per-pipe loop readiness
            # callback; a completion-handler bug must not kill the loop.
            logger.exception("unhandled error draining helper pipe (absorbed)")
            return 0

    def _helper_died(self, conn) -> None:
        """Absorb the death of the helper behind ``conn`` and degrade.

        The dead helper's pipe is unregistered from the event loop (an
        EOFed pipe reports readable forever) and closed, its process
        reaped, and the operation it owned — if any — completed with a
        synthesized failure so the requester's degradation path runs (the
        AMPED server falls back to a buffered read, exactly as for an
        in-band helper error).  Surviving helpers keep serving the
        backlog; if none survive, queued and future operations fail fast.

        Idempotent per connection: one death can be observed twice (a send
        failure inside the drain loop, then the poll on the now-closed
        pipe), and the second observation must be a no-op.
        """
        if conn not in self._parent_conns:
            return
        self.helpers_died += 1
        seq = self._busy.pop(conn, None)
        if self._loop is not None:
            try:
                self._loop.unregister(conn)
            except (KeyError, ValueError):
                pass
        if conn in self._idle_processes:
            self._idle_processes.remove(conn)
        if conn in self._parent_conns:
            index = self._parent_conns.index(conn)
            self._parent_conns.pop(index)
            process = self._processes.pop(index)
            process.join(timeout=0.1)
            if process.is_alive():  # pragma: no cover - EOF implies death
                process.terminate()
        try:
            conn.close()
        except OSError:
            pass
        if seq is not None:
            self._complete(_death_reply(seq))
        if not self._parent_conns:
            backlog, self._backlog = self._backlog, []
            for request in backlog:
                self._complete(_death_reply(request.seq))

    def _finish_process(self, conn, reply: HelperReply) -> None:
        self._busy.pop(conn, None)
        if self._backlog:
            next_request = self._backlog.pop(0)
            self._busy[conn] = next_request.seq
            try:
                conn.send(next_request)
            except (BrokenPipeError, OSError):
                self._helper_died(conn)
        else:
            self._idle_processes.append(conn)
        self._complete(reply)


def _process_helper_main(conn) -> None:
    """Entry point of a helper process: serve requests until shutdown."""
    from repro.testing.faults import faults

    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request.op == OP_SHUTDOWN:
            return
        if faults.take("helper_death"):
            # Injected helper crash: die abruptly mid-operation, exactly
            # like a segfault would — the parent sees pipe EOF and must
            # synthesize a failure reply and degrade to the survivors.
            os._exit(1)
        reply = perform_helper_operation(request)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
