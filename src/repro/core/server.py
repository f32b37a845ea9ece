"""The Flash web server: the AMPED architecture on a real event loop.

:class:`BaseEventDrivenServer` contains everything the SPED and AMPED builds
share: the listening socket, the ``selectors`` event loop, connection
management and dynamic-content dispatch.  (Slow-client reaping is not a
server-level sweep: each connection arms its own header/idle/write-stall
deadline on the event loop's timer wheel — see :mod:`repro.core.connection`.)
The two builds differ only in the driver hooks that decide where potentially
blocking work runs:

* :class:`FlashServer` (AMPED) consults the pathname cache and, on a miss,
  ships the translation to a helper; before transmitting file data it
  tests memory residency and, when pages are missing, ships a warm
  operation to a helper.  The main loop never performs
  blocking disk work itself.
* :class:`repro.servers.sped.SPEDServer` implements the same hook by running
  the operations inline — faithful to SPED, including its weakness: a disk
  miss stalls every connection.

:class:`ListeningServer` (the lifecycle contract), :func:`open_listener`,
:func:`build_services` and the drain-signal helpers are what every
architecture's server object shares, the MT and MP builds included.
"""

from __future__ import annotations

import contextlib
import logging
import os
import select
import signal
import socket
import threading
from typing import Optional

from repro.cache.residency import ResidencyTester
from repro.cgi.runner import CGIRunner
from repro.core.admission import (
    ACCEPT_RESOURCE,
    ACCEPT_TRANSIENT,
    ACCEPTED,
    AdmissionController,
    accept_connection,
)
from repro.core.config import ServerConfig
from repro.core.connection import Connection
from repro.core.event_loop import EVENT_READ, EventLoop
from repro.core.helpers import OP_TRANSLATE, OP_WARM, HelperPool, HelperRequest
from repro.core.pipeline import ContentStore, ServerStats, StaticContent
from repro.core.sse import SSEHub
from repro.http.errors import HTTPError
from repro.http.request import HTTPRequest

logger = logging.getLogger(__name__)

#: Fallback resume delay for an accept pause that nothing will unblock: a
#: pause taken with zero open connections (descriptor pressure from outside
#: the connection table) has no close event to ride, so a timer retries.
ACCEPT_RETRY_INTERVAL = 1.0


#: The signals that ask a server (or a shard fleet) to drain.
DRAIN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def open_listener(config: ServerConfig) -> socket.socket:
    """Create, bind and listen on the socket ``config`` describes.

    It is blocking: MT/MP workers block in ``accept`` until an arrival or
    until a drain shuts the listener down (:func:`wait_for_shutdown`).
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if config.reuse_port:
        if not hasattr(socket, "SO_REUSEPORT"):
            raise RuntimeError("SO_REUSEPORT is not available on this platform")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((config.host, config.port))
    sock.listen(config.listen_backlog)
    return sock


def wait_for_shutdown(listen_sock: socket.socket, timeout: Optional[float] = None) -> bool:
    """Block until ``listen_sock`` is shut down, or ``timeout`` runs out.

    A drain's ``shutdown(SHUT_RD)`` wakes every blocked ``accept`` with
    ``EINVAL`` (a ``close`` would not), in forked workers too, and raises
    ``POLLHUP``, which this waits for: it polls for no events, so
    arrivals (``POLLIN``) do not end the wait.
    """
    poller = select.poll()
    poller.register(listen_sock, 0)
    return bool(poller.poll(None if timeout is None else timeout * 1000))


@contextlib.contextmanager
def drain_signals_blocked():
    """Hold :data:`DRAIN_SIGNALS` pending across a fork: one that reaches
    the child before it has set its own dispositions (and called
    :func:`unblock_drain_signals`) is not lost to the parent's handler,
    which the child starts out running."""
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, DRAIN_SIGNALS)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def unblock_drain_signals() -> None:
    """The child's half of :func:`drain_signals_blocked`: deliver what is pending."""
    signal.pthread_sigmask(signal.SIG_UNBLOCK, DRAIN_SIGNALS)


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
    """What every architecture's server object shares with its callers —
    the listener, ``with server:`` as start/stop, and one lifecycle:

    * ``start()`` binds, launches and returns at once; ``run_forever()``
      binds, launches, and returns once a drain has completed;
    * ``request_drain()`` is signal-safe (it takes no lock the wait in
      ``run_forever`` holds); ``drain(timeout=None)`` requests one, waits,
      forces stragglers at the deadline, and returns True once done;
    * after ``stop(timeout)`` nothing is served; it ends in ``close()``;
    * ``stats``, ``open_connections``, ``draining``, ``address``, ``port``.

    Callers (``repro serve``, a shard) never ask which build they hold.
    """

    config: ServerConfig
    _listen_sock: Optional[socket.socket] = None
    _closed = False

    def bind(self) -> None:
        """Create the listening socket.  Idempotent."""
        if self._listen_sock is None:
            self._listen_sock = open_listener(self.config)

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

    @property
    def stats(self) -> ServerStats:
        """Centralized request statistics (shared-state accounting, §4.2;
        the MT build's workers update them under the store's lock)."""
        return self.store.stats

    def run_forever(self) -> None:
        """Bind, launch, and return once a drain has completed.

        The caller's thread waits for the drain to shut the listener down,
        then in :meth:`drain`.
        """
        self.start()
        if not self.draining:
            wait_for_shutdown(self._listen_sock)
        self.drain()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Request a drain and wait for it; True once the server wound down
        (every connection finished or force-closed at ``drain_timeout``,
        or ``timeout``).  :meth:`close` still releases the resources."""
        self.request_drain()
        return self._wind_down(self.config.drain_timeout if timeout is None else timeout)

    def close(self) -> None:
        """Release everything the server holds.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._release()
        if self._listen_sock is not None:
            self._listen_sock.close()
            self._listen_sock = None

    def _release(self) -> None:
        """What :meth:`close` frees besides the listener: the services."""
        self.admission.close()
        if self.sse_hub is not None:
            self.sse_hub.close()
            self.sse_hub = None
        self.cgi_runner.shutdown()
        self.store.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class BaseEventDrivenServer(ListeningServer):
    """Shared machinery of the event-driven (SPED and AMPED) builds."""

    #: Architecture label used in logs, experiments and ``create_server``.
    architecture = "event-driven"

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
        #: Accept-pause state for the fd-exhaustion guard: while paused the
        #: listener is unregistered from the loop (a level-triggered selector
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
            # Non-blocking: the loop reports the listener readable.
            self._listen_sock.setblocking(False)
            self.loop.register(self._listen_sock, EVENT_READ, self._on_accept_ready)

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
                outcome, client_sock, address = accept_connection(
                    self._listen_sock, self.store, self.admission, self._connections.__len__
                )
                if outcome is ACCEPTED:
                    self._connections.add(Connection(client_sock, address, self))
                elif outcome is not ACCEPT_TRANSIENT:
                    # Out of descriptors: pause accept interest (the step
                    # already shed one arrival).  Nothing pending, or the
                    # listener is gone (the shutdown race): the sweep ends.
                    if outcome is ACCEPT_RESOURCE:
                        self._pause_accepting()
                    return
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

    def _pause_accepting(self) -> None:
        """Drop accept interest until established connections drain.

        Level-triggered selectors re-report a readable listener every poll;
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
        The event loop exits — and :meth:`drain` returns — once every
        in-flight response completes or ``drain_timeout`` expires,
        whichever comes first.
        """
        self.loop.call_soon(self._begin_drain)

    def _begin_drain(self) -> None:
        try:
            if self.draining or self._closed:
                return
            self.draining = True
            # Shutting the listener down (not merely unregistering it)
            # removes this process from the kernel's SO_REUSEPORT hash, so
            # in a shard fleet new arrivals immediately redistribute to the
            # surviving shards; it also ends run_forever's wait.
            if self._listen_sock is not None:
                self.loop.unregister(self._listen_sock)
                try:
                    self._listen_sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
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
        """All connections drained: stop the loop so the drain returns."""
        if not self.draining:
            return
        self._drain_generation += 1
        self._stop_event.set()
        self.loop.stop()

    def _wind_down(self, budget: float) -> bool:
        # The loop force-closes at drain_timeout; allow a small grace.
        finished = self._stop_event.wait(budget + 2.0)
        if self._thread is not None:
            self._thread.join(timeout=budget + 2.0)
            if not self._thread.is_alive():
                self._thread = None
        return finished

    # -- running --------------------------------------------------------------------

    def start(self) -> "BaseEventDrivenServer":
        """Run the event loop in a background thread; returns once bound.

        The caller's thread stays free to generate client load against
        :attr:`address`, or to wait in :meth:`run_forever`.
        """
        if self._thread is not None:
            return self
        self.bind()
        self._thread = threading.Thread(
            target=self.loop.run_forever,
            name=f"{self.architecture}-server",
            daemon=True,
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

    def _release(self) -> None:
        for connection in list(self._connections):
            connection.close()
        self.loop.unregister(self._listen_sock)
        super()._release()
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
        self.helpers = HelperPool(num_helpers=config.num_helpers)
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
                callback(None, reply.error)
                return
            self.store.store_translation(reply.entry)
            self._prepare_content(request, reply.entry, keep_alive, callback)

        self.helpers.submit(helper_request, on_reply)

    def _prepare_content(self, request: HTTPRequest, entry, keep_alive: bool, callback) -> None:
        """Build the response; warm non-resident content through a helper.

        Residency is probed on the pinned descriptor, and a cold body goes
        to an ``OP_WARM`` helper (``posix_fadvise(WILLNEED)`` + bounded
        read-touch) before it leaves — by ``sendfile`` or by buffered
        reads, so the main loop never pays a page fault either way.
        The helper warms the pinned descriptor in place; it stays pinned
        by ``content`` until the completion runs, so it cannot be evicted
        or closed while the helper reads from it.

        A response that is ready to transmit is filed in the hot cache on
        its way to ``callback`` (refused shapes are a no-op).
        """
        try:
            content = self.store.build_response(request, entry, keep_alive=keep_alive)
        except (HTTPError, OSError) as exc:
            callback(None, exc)
            return
        if not self.store.content_resident(content):
            # The requested file is (partly) not in memory: instruct a
            # helper to bring it in, then transmit without risk of blocking
            # (paper §3.4).  Only the transmitted window is touched — a
            # Range response must not pay (or wait for) a whole-file read.
            stats = self.store.stats
            stats.helper_dispatches += 1
            stats.blocking_reads += 1
            # Until the helper replies, the descriptor reads cold to every
            # other request without a probe (``ContentStore.fd_resident``).
            content.file_handle.warming += 1
            warm_offset, warm_length = content.warm_window()
            helper_request = HelperRequest(
                seq=0,
                op=OP_WARM,
                fd=content.file_handle.fd,
                offset=warm_offset,
                length=warm_length,
            )
            self.helpers.submit(
                helper_request,
                lambda reply: self._on_warmed(request, entry, content, reply, callback),
            )
            return
        self.store.hot_insert(request, entry, content)
        callback(content, None)

    def _on_warmed(
        self, request: HTTPRequest, entry, content: StaticContent, reply, callback
    ) -> None:
        """Transmit a warmed body; degrade to buffered reads if the warm failed.

        A failed warm does not fail a servable request: the body leaves by
        positional reads from its pinned descriptor on the main loop — a
        deliberate last resort, trading the non-blocking invariant for
        availability on the rare helper-failure path.
        """
        content.file_handle.warming -= 1
        if not reply.ok:
            self.store.stats.sendfile_warm_degradations += 1
            start, length = content.warm_window()
            if os.fstat(content.file_handle.fd).st_size < start + length:
                # The file shrank since the header promised
                # ``content_length`` bytes; serving it would break
                # keep-alive framing.  Fail this request; pathname
                # revalidation repairs the next one.
                content.release(self.store)
                callback(None, HTTPError("file changed during warming", status=500))
                return
            content.buffered = True
        self.store.hot_insert(request, entry, content)
        callback(content, None)

    def hot_content_ready(self, content) -> bool:
        """Gate hot-cache hits on memory residency (AMPED invariant).

        The single-lookup fast path must not let the main loop block on a
        page fault: a hit (a ``StaticContent``, or the one pass's
        ``HotEntry``) whose body went cold since it was cached is rejected
        and retakes the full pipeline — which dispatches the usual ``OP_WARM`` helper
        before transmitting.  A fully resident hit pays one ``cachestat``
        per window; a hit on a file a helper is still warming reads cold
        without one.
        """
        return self.store.content_resident(content)

    # -- lifecycle ---------------------------------------------------------------------

    def _release(self) -> None:
        self.helpers.unregister(self.loop)
        self.helpers.shutdown()
        super()._release()
