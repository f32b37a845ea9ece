"""The Flash web server: the AMPED architecture on a real event loop.

:class:`BaseEventDrivenServer` contains everything the SPED and AMPED builds
share: the listening socket, the ``selectors`` event loop, connection
management and dynamic-content dispatch.  (Slow-client reaping is not a
server-level sweep: each connection arms its own header/idle/write-stall
deadline on the event loop's timer wheel — see :mod:`repro.core.connection`.)
The two builds differ only in the driver hooks that decide where potentially
blocking work runs:

* :class:`FlashServer` (AMPED) consults the pathname cache and, on a miss,
  ships the translation to a helper; before transmitting mapped file data it
  tests memory residency and, when pages are missing, ships a read
  (page-warming) operation to a helper.  The main loop never performs
  blocking disk work itself.
* :class:`repro.servers.sped.SPEDServer` implements the same hook by running
  the operations inline — faithful to SPED, including its weakness: a disk
  miss stalls every connection.

:class:`ListeningServer`, :func:`open_listener` and
:func:`build_services` are what every architecture's server object shares,
the MT and MP builds included.
"""

from __future__ import annotations

import logging
import socket
import threading
from typing import Optional

from repro.cache.residency import ResidencyTester
from repro.cgi.runner import CGIRunner
from repro.core.admission import (
    ACCEPT_RESOURCE,
    ACCEPT_TRANSIENT,
    AdmissionController,
    classify_accept_error,
)
from repro.core.config import ServerConfig
from repro.core.connection import Connection
from repro.core.event_loop import EVENT_READ, EventLoop
from repro.core.helpers import (
    OP_READ,
    OP_TRANSLATE,
    OP_WARM,
    HelperPool,
    HelperRequest,
    translation_entry_from_reply,
)
from repro.core.pipeline import ContentStore, ServerStats, StaticContent
from repro.core.sse import SSEHub
from repro.http.errors import HTTPError, NotFoundError
from repro.http.request import HTTPRequest
from repro.testing.faults import faults

logger = logging.getLogger(__name__)

#: Fallback resume delay for an accept pause that nothing will unblock: a
#: pause taken with zero open connections (descriptor pressure from outside
#: the connection table) has no close event to ride, so a timer retries.
ACCEPT_RETRY_INTERVAL = 1.0


def open_listener(config: ServerConfig, *, timeout: float) -> socket.socket:
    """Create, bind and listen on the socket ``config`` describes.

    ``timeout`` is the accept timeout: ``0`` makes the listener non-blocking
    (the event loop reports readiness); the MT/MP workers use a short
    positive one so they notice shutdown without needing signals.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if config.reuse_port:
        if not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError("SO_REUSEPORT is not available on this platform")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((config.host, config.port))
    sock.listen(config.listen_backlog)
    if timeout > 0:
        sock.settimeout(timeout)
    else:
        sock.setblocking(False)
    return sock


def build_services(
    config: ServerConfig, store: ContentStore, loop: Optional[EventLoop] = None
) -> tuple[CGIRunner, Optional[SSEHub], AdmissionController]:
    """The CGI runner, SSE hub and admission controller of one server
    (of one worker process, in the MP build).

    An event-driven server passes its ``loop``: CGI completions and SSE
    notifies are then posted to it, so response and subscriber
    ready-callbacks run on the loop thread.  The blocking builds pass
    none, and the runner and hub post nothing.

    The hub exists only when ``sse_path`` is set; its heartbeat ticker,
    when enabled, is a plain daemon thread publishing through the
    thread-safe ``publish``.  An event a stalled subscriber's bounded queue
    sheds is counted on whichever thread published it, under the store's
    stats lock — the null context outside the MT build, where this one
    counter trades exactness for not dragging a lock onto every publish.
    """
    cgi_runner = CGIRunner(config.cgi_programs, stream_depth=config.cgi_stream_depth, loop=loop)
    sse_hub = None
    if config.sse_path:

        def count_drop() -> None:
            with store.stats_lock():
                store.stats.sse_dropped_events += 1

        sse_hub = SSEHub(
            queue_limit=config.sse_queue_limit,
            policy=config.sse_policy,
            on_drop=count_drop,
            loop=loop,
        )
        sse_hub.start_ticker(config.sse_heartbeat)
    admission = AdmissionController(
        max_connections=config.max_connections,
        resume_fraction=config.admission_resume,
        retry_after=config.retry_after,
    )
    return cgi_runner, sse_hub, admission


class ListeningServer:
    """What every architecture's server object shares with its callers:
    the listening socket, its address, and ``with server:`` as start/stop."""

    #: The listener's accept timeout (see :func:`open_listener`).
    accept_timeout = 0.2
    config: ServerConfig
    _listen_sock: Optional[socket.socket] = None

    def bind(self) -> None:
        """Create the listening socket.  Idempotent."""
        if self._listen_sock is None:
            self._listen_sock = open_listener(self.config, timeout=self.accept_timeout)

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the server is bound to."""
        if self._listen_sock is None:
            raise RuntimeError("server is not bound yet")
        return self._listen_sock.getsockname()[:2]

    @property
    def port(self) -> int:
        """Bound TCP port (useful when the config asked for an ephemeral port)."""
        return self.address[1]

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class BaseEventDrivenServer(ListeningServer):
    """Shared machinery of the event-driven (SPED and AMPED) builds."""

    #: Architecture label used in logs, experiments and ``create_server``.
    architecture = "event-driven"
    accept_timeout = 0  # non-blocking: the loop reports the listener readable

    def __init__(
        self,
        config: ServerConfig,
        residency_tester: Optional[ResidencyTester] = None,
    ):
        self.config = config
        self.loop = EventLoop(backend=config.io_backend)
        self.store = ContentStore(config, residency_tester=residency_tester)
        self.cgi_runner, self.sse_hub, self.admission = build_services(
            config, self.store, self.loop
        )
        self._connections: set[Connection] = set()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        #: Accept-pause state for the fd-exhaustion guard: while paused the
        #: listener is unregistered from the loop (a level-triggered backend
        #: would otherwise spin on the forever-readable listener) and it is
        #: re-registered once connections drain below the pause-time count.
        self._accept_paused = False
        self._paused_at_count = 0
        self._pause_generation = 0
        #: Whether the server is in drain mode (SIGTERM/SIGINT graceful
        #: shutdown); every connection reads it when it settles keep-alive.
        self.draining = False
        self._drain_generation = 0

    # -- binding and addresses ---------------------------------------------------

    def bind(self) -> None:
        """Create and register the listening socket.  Idempotent."""
        if self._listen_sock is None:
            super().bind()
            self.loop.register(self._listen_sock, EVENT_READ, self._on_accept_ready)

    @property
    def stats(self) -> ServerStats:
        """Centralized request statistics (shared-state accounting, §4.2)."""
        return self.store.stats

    @property
    def open_connections(self) -> int:
        """Number of currently open client connections."""
        return len(self._connections)

    # -- accepting connections -----------------------------------------------------

    def _on_accept_ready(self, _fileobj, _mask) -> None:
        # Accept every pending connection: under load, several arrivals can
        # be reported by a single select wakeup.
        try:
            assert self._listen_sock is not None
            while True:
                if faults.take("accept_emfile"):
                    # Injected fd exhaustion: behave exactly as if accept(2)
                    # itself had failed with EMFILE.
                    self._on_fd_exhaustion()
                    return
                try:
                    client_sock, address = self._listen_sock.accept()
                except (BlockingIOError, InterruptedError):
                    return
                except OSError as exc:
                    kind = classify_accept_error(exc)
                    if kind == ACCEPT_TRANSIENT:
                        # The arrival aborted between SYN and accept (or a
                        # signal landed): the next pending connection may be
                        # fine, keep draining the backlog.
                        continue
                    if kind == ACCEPT_RESOURCE:
                        self._on_fd_exhaustion()
                    # Fatal (EBADF and friends): the listener is gone, which
                    # is the normal shutdown race — stop the accept sweep.
                    return
                self.store.stats.connections_accepted += 1
                if not self.admission.admit(len(self._connections)):
                    # Over the connection bound: answer the precomposed 503
                    # and close, so the client learns immediately instead of
                    # timing out in the backlog.
                    self.store.stats.connections_shed += 1
                    self.admission.shed(client_sock)
                    continue
                connection = Connection(client_sock, address, self)
                self._connections.add(connection)
        except Exception:
            self._absorb_callback_crash("_on_accept_ready")

    def _absorb_callback_crash(self, where: str) -> None:
        """Crash barrier for server-scoped loop callbacks (lint rule RL005).

        Accept sweeps, pause/resume timers and drain steps run directly on
        the event loop: an exception escaping any of them would unwind
        ``run_once`` and take every established connection down with it.
        The failing step is skipped instead — counted and logged with
        traceback — and the loop lives on.
        """
        try:
            self.store.stats.loop_callback_errors += 1
        except Exception:  # stats are best-effort inside the barrier
            pass
        logger.exception("unhandled error in %s (absorbed; loop continues)", where)

    def _on_fd_exhaustion(self) -> None:
        """Survive accept-time EMFILE/ENFILE: shed one arrival, pause accepts."""
        self.store.stats.fd_exhaustion_events += 1
        self.admission.shed_one_pending(self._listen_sock)
        self._pause_accepting()

    def _pause_accepting(self) -> None:
        """Drop accept interest until established connections drain.

        Level-triggered backends re-report a readable listener every poll;
        without the pause an EMFILE storm becomes a 100% CPU spin of
        failing accepts.
        """
        if self._accept_paused or self.draining or self._listen_sock is None:
            return
        self._accept_paused = True
        self._paused_at_count = len(self._connections)
        self._pause_generation += 1
        self.store.stats.accept_pauses += 1
        self.loop.unregister(self._listen_sock)
        # Timed fallback: descriptor pressure from outside the connection
        # table (helpers, caches, other subsystems) produces no
        # connection-closed event to ride, so retry on a timer as well.
        generation = self._pause_generation
        self.loop.call_later(
            ACCEPT_RETRY_INTERVAL, lambda: self._timed_resume(generation)
        )

    def _timed_resume(self, generation: int) -> None:
        try:
            if generation == self._pause_generation and self._accept_paused:
                self._resume_accepting()
        except Exception:
            self._absorb_callback_crash("_timed_resume")

    def _resume_accepting(self) -> None:
        if not self._accept_paused:
            return
        self._accept_paused = False
        self._pause_generation += 1
        if self._listen_sock is not None and not self.draining:
            self.loop.register(self._listen_sock, EVENT_READ, self._on_accept_ready)

    # -- driver hooks (overridden per architecture) -----------------------------------

    def respond_async(self, request: HTTPRequest, keep_alive: bool, callback) -> None:
        """Produce the static response for a hot-cache miss (per architecture)."""
        raise NotImplementedError

    def handle_cgi_async(self, request: HTTPRequest, callback) -> None:
        """Forward a dynamic request to its persistent CGI application."""
        self.cgi_runner.submit(request, callback)

    def hot_content_ready(self, content) -> bool:
        """Transmit hot-cache hits unconditionally (SPED behaviour).

        SPED never tests residency — a cold page simply blocks the whole
        process during transmission, which is its defining cost — so a hot
        hit goes straight to the send path.  AMPED overrides this to keep
        its non-blocking invariant.
        """
        return True

    def on_connection_closed(self, connection: Connection) -> None:
        """Forget a finished connection; unblock paused accepts and drains."""
        self._connections.discard(connection)
        if self._accept_paused:
            open_count = len(self._connections)
            if open_count < self._paused_at_count and self.admission.may_resume(
                open_count
            ):
                self._resume_accepting()
        if self.draining and not self._connections:
            self._finish_drain()

    # -- graceful drain ---------------------------------------------------------------

    def request_drain(self) -> None:
        """Enter drain mode: stop accepting, finish in-flight responses.

        Safe to call from a signal handler or another thread: it only
        posts to the loop's deferred-call queue (:meth:`EventLoop.call_soon`
        takes no lock and wakes the poll); all drain work runs on the loop
        thread.
        The event loop exits — and :meth:`run_forever` returns — once
        every in-flight response completes or ``drain_timeout`` expires,
        whichever comes first.
        """
        self.loop.call_soon(self._begin_drain)

    def _begin_drain(self) -> None:
        try:
            if self.draining or self._closed:
                return
            self.draining = True
            # Closing the listener (not merely unregistering it) removes
            # this process from the kernel's SO_REUSEPORT hash, so in a
            # shard fleet new arrivals immediately redistribute to the
            # surviving shards.
            if self._listen_sock is not None:
                self.loop.unregister(self._listen_sock)
                try:
                    self._listen_sock.close()
                except OSError:
                    pass
                self._listen_sock = None
            # End every SSE subscription: subscribers flush their queued
            # backlog (plus the chunked terminator) and close gracefully,
            # ahead of the force-close backstop below.
            if self.sse_hub is not None:
                self.sse_hub.close()
            # Idle keep-alive connections are owed nothing: close them now.
            # Connections mid-request or mid-response run to completion
            # below (their responses carry ``Connection: close`` — see
            # repro.core.connection's drain awareness).
            for connection in list(self._connections):
                if connection.drain_idle():
                    connection.close()
            if not self._connections:
                self._finish_drain()
                return
            timeout = self.config.drain_timeout
            generation = self._drain_generation
            if timeout <= 0:
                self._drain_expired(generation)
            else:
                self.loop.call_later(timeout, lambda: self._drain_expired(generation))
        except Exception:
            self._absorb_callback_crash("_begin_drain")

    def _drain_expired(self, generation: int) -> None:
        """Drain deadline: force-close the stragglers still in flight."""
        try:
            if generation != self._drain_generation or not self.draining:
                return
            for connection in list(self._connections):
                self.store.stats.drain_forced_closes += 1
                connection.close()
        except Exception:
            self._absorb_callback_crash("_drain_expired")

    def _finish_drain(self) -> None:
        """All connections drained: stop the loop so run_forever returns."""
        if not self.draining:
            return
        self._drain_generation += 1
        self._stop_event.set()
        self.loop.stop()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Request a drain and wait for the event loop to wind down.

        For servers running on a background thread (:meth:`start`): returns
        True when the drain completed (all connections finished or were
        force-closed at the deadline) within ``drain_timeout`` plus a small
        grace.  The caller still owns :meth:`stop`/:meth:`close` for
        resource release, exactly as after a normal run.
        """
        self.request_drain()
        budget = self.config.drain_timeout if timeout is None else timeout
        finished = self._stop_event.wait(budget + 2.0)
        if self._thread is not None:
            self._thread.join(timeout=budget + 2.0)
            if not self._thread.is_alive():
                self._thread = None
        return finished

    # -- running --------------------------------------------------------------------

    def run_forever(self) -> None:
        """Bind (if needed) and run the event loop until :meth:`stop`."""
        self.bind()
        self.loop.run_forever(should_stop=self._stop_event.is_set, poll_interval=0.1)

    def start(self) -> "BaseEventDrivenServer":
        """Run the server in a background thread; returns once it is bound.

        This is the entry point tests and the load-generator examples use:
        the caller's thread stays free to generate client load against
        :attr:`address`.
        """
        if self._thread is not None:
            return self
        self.bind()
        self._thread = threading.Thread(
            target=self.run_forever, name=f"{self.architecture}-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the event loop and release all resources."""
        self._stop_event.set()
        self.loop.stop()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self.close()

    def close(self) -> None:
        """Close sockets, connections, caches and auxiliary workers."""
        if self._closed:
            return
        self._closed = True
        for connection in list(self._connections):
            connection.close()
        if self._listen_sock is not None:
            self.loop.unregister(self._listen_sock)
            self._listen_sock.close()
            self._listen_sock = None
        self.admission.close()
        if self.sse_hub is not None:
            self.sse_hub.close()
            self.sse_hub = None
        self.cgi_runner.shutdown()
        self.store.close()
        self.loop.close()


class FlashServer(BaseEventDrivenServer):
    """The Flash web server: AMPED with aggressive caching (paper Section 5).

    The main event-driven process handles every processing step of an HTTP
    request; when a step could block on disk it is shipped to a helper and
    its completion is observed through the same ``select`` loop as network
    events.  Helpers are only needed per *concurrent disk operation*, not
    per connection, so a handful suffice.

    Parameters
    ----------
    config:
        Server configuration; cache switches and helper count live here.
    residency_tester:
        Override for the ``mincore`` memory-residency test (used by tests to
        script which files count as cached in memory).
    """

    architecture = "amped"

    def __init__(
        self,
        config: ServerConfig,
        residency_tester: Optional[ResidencyTester] = None,
    ):
        super().__init__(config, residency_tester=residency_tester)
        self.helpers = HelperPool(
            num_helpers=config.num_helpers, mode=config.helper_mode
        )
        self.helpers.register(self.loop)

    # -- AMPED driver hooks ----------------------------------------------------------

    def respond_async(self, request: HTTPRequest, keep_alive: bool, callback) -> None:
        """Translate from the pathname cache, or on a helper; then prepare."""
        uri = request.path
        entry = self.store.translate_cached_only(uri)
        if entry is not None:
            self._prepare_content(request, entry, keep_alive, callback)
            return
        self.store.stats.helper_dispatches += 1
        helper_request = HelperRequest(
            seq=0,
            op=OP_TRANSLATE,
            uri=uri,
            document_root=self.config.document_root,
            user_dirs=self.config.user_dirs,
        )

        def on_reply(reply) -> None:
            if not reply.ok:
                callback(None, _reply_to_error(reply))
                return
            entry = translation_entry_from_reply(uri, reply)
            self.store.store_translation(entry)
            self._prepare_content(request, entry, keep_alive, callback)

        self.helpers.submit(helper_request, on_reply)

    def _prepare_content(self, request: HTTPRequest, entry, keep_alive: bool, callback) -> None:
        """Build the response; warm non-resident content through a helper.

        The warming route follows from how the body will be transmitted:

        * mapped bodies keep the paper's original path — chunk-level
          ``mincore`` then an ``OP_READ`` helper that touches the pages;
        * fd-backed (``sendfile``) bodies are never mapped: residency is
          probed on the bare descriptor and cold windows go to an
          ``OP_WARM`` helper (``posix_fadvise(WILLNEED)`` + bounded
          read-touch), so the zero-copy path never pays map/touch/unmap
          work at all.

        A response that is ready to transmit is filed in the hot cache on
        its way to ``callback`` (refused shapes are a no-op).
        """

        def done(content: Optional[StaticContent], error) -> None:
            if error is None:
                self.store.hot_insert(request, entry, content)
            callback(content, error)

        try:
            content = self.store.build_response(request, entry, keep_alive=keep_alive)
        except (HTTPError, OSError) as exc:
            callback(None, exc)
            return
        if self.store.content_resident(content):
            done(content, None)
            return
        # The requested file is (partly) not in memory: instruct a helper to
        # bring it in, then transmit without risk of blocking (paper §3.4).
        # Only the transmitted window is touched — a Range response must
        # not pay (or wait for) a whole-file read.
        self.store.stats.helper_dispatches += 1
        self.store.stats.blocking_reads += 1
        if not content.chunks:
            self._warm_fd_async(entry, content, done)
            return
        warm_offset, warm_length = content.warm_window()
        helper_request = HelperRequest(
            seq=0,
            op=OP_READ,
            path=entry.filesystem_path,
            offset=warm_offset,
            length=warm_length,
        )

        def on_reply(reply) -> None:
            if not reply.ok:
                content.release(self.store)
                callback(None, _reply_to_error(reply))
                return
            done(content, None)

        self.helpers.submit(helper_request, on_reply)

    def _warm_fd_async(self, entry, content: StaticContent, callback) -> None:
        """Ship a cold fd-backed response to an ``OP_WARM`` helper.

        Thread-mode helpers share the server's descriptor table, so they
        warm the pinned cached descriptor in place; process-mode helpers
        get ``fd=-1`` and re-open by path (the OS buffer cache they fill is
        shared between processes either way).  The descriptor stays pinned
        by ``content`` until the completion callback runs, so it cannot be
        evicted or closed while the helper reads from it.
        """
        self.store.stats.sendfile_warms += 1
        fd = content.file_handle.fd if self.helpers.mode == "thread" else -1
        warm_offset, warm_length = content.warm_window()
        helper_request = HelperRequest(
            seq=0,
            op=OP_WARM,
            path=entry.filesystem_path,
            fd=fd,
            offset=warm_offset,
            length=warm_length,
        )

        def on_reply(reply) -> None:
            if not reply.ok:
                # The helper failed (or died) mid-warm.  Degrade to the
                # buffered path rather than fail a servable request: read
                # the body into user space and serve that.  The read is a
                # deliberate last resort — it blocks the main loop on a
                # known-cold file, trading the non-blocking invariant for
                # availability on the (helper-failure) rare path.
                self.store.stats.sendfile_warm_degradations += 1
                segments = []
                try:
                    for head, offset, length in content.parts:
                        segments.append(head)
                        segments.extend(content.window_buffers(offset, length))
                    segments.append(content.trailer)
                except OSError as exc:
                    callback(None, exc)
                    return
                finally:
                    content.release(self.store)
                if sum(len(segment) for segment in segments) != content.content_length:
                    # The file changed size since the header promised
                    # ``content_length`` bytes; serving the mismatched body
                    # would desynchronize keep-alive framing (a buffered
                    # body has no under_delivered escape hatch).  Fail this
                    # request; pathname revalidation repairs the next one.
                    callback(None, HTTPError("file changed during warming", status=500))
                    return
                degraded = StaticContent(
                    header=content.header,
                    segments=segments,
                    content_length=content.content_length,
                    status=content.status,
                    parts=content.parts,
                    trailer=content.trailer,
                )
                callback(degraded, None)
                return
            callback(content, None)

        self.helpers.submit(helper_request, on_reply)

    def hot_content_ready(self, content: StaticContent) -> bool:
        """Gate hot-cache hits on memory residency (AMPED invariant).

        The single-lookup fast path must not let the main loop block on a
        page fault: a hit whose body went cold since it was cached is
        rejected, the connection releases the pinned response and retakes
        the full pipeline — which dispatches the usual ``OP_WARM``/
        ``OP_READ`` helper before transmitting.  ``content_resident``
        answers from the chunk ``mincore`` test or the fd-probe TTL cache,
        so the fully-resident hot path pays at most one probe per TTL
        window, not one per request.
        """
        if not self.config.enable_residency_test:
            return True
        return self.store.content_resident(content)

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self.helpers.unregister(self.loop)
            self.helpers.shutdown()
        super().close()


def _reply_to_error(reply) -> Exception:
    """Convert a failed helper reply back into the exception it represents."""
    from repro.http import errors as http_errors

    cls = getattr(http_errors, reply.error_type, None)
    if isinstance(cls, type) and issubclass(cls, HTTPError):
        return cls(reply.error_message)
    if reply.error_type in ("FileNotFoundError", "IsADirectoryError"):
        return NotFoundError(reply.error_message)
    return HTTPError(reply.error_message or "helper operation failed", status=500)
