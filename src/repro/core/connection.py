"""Per-connection state machine for the event-driven server builds.

A SPED (or AMPED) server interleaves the basic request-processing steps of
many connections: each connection is a small state machine that advances one
step whenever ``select`` reports its socket ready (or, in AMPED, when a
helper completes a disk operation on its behalf).  This module implements
that state machine once; the SPED and AMPED servers differ only in the
*driver* they pass in, which decides whether potentially blocking steps run
inline (SPED) or on a helper (AMPED).

States
------

``READ_REQUEST``
    Accumulate and parse the HTTP request header (non-blocking reads).
``WAIT_DISK``
    A pathname translation, file warm-up or CGI program is in flight; the
    socket is not watched for readiness while we wait (AMPED/CGI only —
    SPED performs these inline and never enters this state).
``SEND_RESPONSE``
    The answer is in the output queue: transmit it with non-blocking
    writes, handling partial writes and full send buffers.
``CLOSED``
    The connection is finished and its resources are released.

Lifecycle
---------

Parsing, deadlines and keep-alive are the connection's
:class:`~repro.core.session.Session`'s (``core/session.py``); this class is
its event-loop adapter.  Every callback (readiness, the deadline on the
loop's timer wheel, a source becoming ready, a helper or CGI completion)
does its work, transmits, and only then applies the selector interest and
the session's deadline once: a hot hit, or a pipelined burst answered
within the tick, costs no selector call and one wheel schedule.

The connection's one output queue is ``_sender``: while the session's hold
rule says so, the next pipelined request is answered into it before
anything is sent.  While queued bytes are unsent, interest and deadline
follow the queue — write interest under the write budget, whatever the
request's state — and once it drains the session's intent applies.
"""

from __future__ import annotations

import errno
import logging
import socket
import time
from functools import partial
from typing import TYPE_CHECKING, Optional, Protocol

from repro.core import exchange
from repro.core.event_loop import EVENT_READ, EVENT_WRITE
from repro.core.pipeline import StaticContent
from repro.core.send_path import SendPath, choose_send_path, peek_peer, reset_on_close
from repro.core.session import ANSWER_408, CLOSE, NEXT, RESET, Session
from repro.core.streaming import ResponseSource
from repro.http.errors import HTTPError
from repro.http.request import FastRequest, HTTPRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import ServerConfig
    from repro.core.event_loop import EventLoop
    from repro.core.pipeline import ContentStore
    from repro.core.sse import SSEHub

logger = logging.getLogger(__name__)

STATE_READ_REQUEST = "read_request"
STATE_WAIT_DISK = "wait_disk"
STATE_SEND_RESPONSE = "send_response"
STATE_CLOSED = "closed"


class ConnectionDriver(Protocol):
    """What a server must provide for :class:`Connection` to run.

    Every member is required and read as a plain attribute — a driver
    (or a test fake) that lacks one fails at the first use, not silently
    through a default.  The SPED build implements the ``*_async`` hooks by
    calling the callback before returning (the operation runs inline and
    may block the whole server — which is exactly SPED's weakness on
    disk-bound workloads); the AMPED build dispatches them to helpers and
    invokes the callback from the event loop when the completion
    notification arrives.
    """

    loop: "EventLoop"  # its ``wheel`` carries the connection's deadline
    store: "ContentStore"
    config: "ServerConfig"  # the three budgets and the hot-path toggles
    draining: bool  # True once the server is shutting down gracefully
    sse_hub: Optional["SSEHub"]  # ``None`` when the endpoint is disabled

    def respond_async(self, request: HTTPRequest, keep_alive: bool, callback) -> None:
        """Produce the static response for a hot-cache miss; callback(content, error).

        Translate, build (with ``keep_alive``, the disposition the
        connection settled on — it knows about drain; the request alone
        does not), make the body memory resident, and file the result in
        the hot cache.
        """
        ...

    def handle_cgi_async(self, request: HTTPRequest, callback) -> None:
        """Run the CGI program for ``request``; callback(body_bytes, error)."""
        ...

    def hot_content_ready(self, content: "StaticContent") -> bool:
        """Whether a hot-cache hit may be transmitted right now.

        The AMPED build uses this to keep its non-blocking invariant on the
        fast path: cold content is rejected and the request retakes the
        full pipeline (which warms it through a helper).  SPED transmits
        unconditionally.
        """
        ...

    def on_connection_closed(self, connection: "Connection") -> None:
        """Bookkeeping hook invoked exactly once per connection."""
        ...


class Connection:
    """One client connection handled by an event-driven server."""

    __slots__ = (
        "sock",
        "address",
        "driver",
        "state",
        "session",
        "request",
        "_sender",
        "_stream",
        "_interest",
        "_want",
        "_stream_parked",
        "_busy",
        "_deadline_handle",
        "_armed",
    )

    def __init__(self, sock: socket.socket, address, driver: ConnectionDriver):
        sock.setblocking(False)
        # Disable Nagle's algorithm: response headers and small bodies are
        # written as separate send() calls, and letting the kernel coalesce
        # them costs a delayed-ACK round trip per request.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self.sock = sock
        self.address = address
        self.driver = driver
        self.state = STATE_READ_REQUEST
        config = driver.config
        # The header budget starts at accept: a peer that connects and
        # never produces a complete request head is answered 408.
        self.session = Session(config, time.monotonic(), fast=config.fast_parse)
        self.request: Optional[HTTPRequest] = None
        #: The output queue (a ``SendPath``), or a stream's sender.
        self._sender = None
        #: A stream waiting for the queue ahead of it to drain.
        self._stream = None
        #: Selector interest as registered, and as wanted once the running
        #: callback settles (see :meth:`_apply`).
        self._interest = 0
        self._want = EVENT_READ
        self._stream_parked = False
        #: True while a callback's step runs (see :meth:`_run`).
        self._busy = False
        #: The wheel handle, and the session deadline it was scheduled for.
        self._deadline_handle = None
        self._armed = None
        self._apply()

    # -- callbacks --------------------------------------------------------------

    def on_ready(self, _fileobj, mask: int) -> None:
        """Event-loop callback: advance the state machine.

        Readiness proves nothing about the peer (a socket stays writable
        while the client reads nothing), so no deadline moves here — only
        where bytes do.
        """
        try:
            self._run(self._on_readable if mask & EVENT_READ else None)
        except Exception:
            self._absorb_callback_crash("on_ready")

    def _on_readable(self) -> None:
        if self.state == STATE_READ_REQUEST:
            self._do_read()
        elif self._stream_parked:
            # A parked stream keeps read interest purely to notice the peer
            # going away, releasing the subscription (and, for CGI,
            # cancelling the child) promptly.
            data = peek_peer(self.sock)
            if data == b"":
                self.close()
            elif data:
                # An early pipelined request, left for the parser after the
                # stream: stop watching, or a level-triggered backend spins.
                self._want = 0

    def _on_deadline(self) -> None:
        """Wheel callback: the session's deadline ran out without progress."""
        try:
            if self.state != STATE_CLOSED:
                self._run(self._expire)
        except Exception:
            self._absorb_callback_crash("_on_deadline")

    def _expire(self) -> None:
        action = self.session.expire(self.driver.store)
        if action is ANSWER_408:
            # Mid-parse expiry.  The 408 goes out under the write budget, so
            # a slowloris peer that also refuses to *read* it is still
            # reaped by the write stall, pins and all.
            self._send_failure(HTTPError("request header timeout", status=408))
            return
        if action is RESET:
            reset_on_close(self.sock)
        # close() releases the queue, the responses queued in it and any
        # waiting stream — the full mid-send teardown contract.
        self.close()

    def _on_source_ready(self) -> None:
        """Source callback: data arrived for a (possibly parked) stream.

        Runs on the event-loop thread — the CGI runner and the SSE hub
        both route cross-thread arrivals through loop-registered wakeup
        channels before notifying.
        """
        try:
            if self.state == STATE_SEND_RESPONSE and self._sender is not None:
                self._stream_parked = False
                self._run(None)
        except Exception:
            self._absorb_callback_crash("_on_source_ready")

    def _run(self, step, *args) -> None:
        """Run one callback's ``step``; the outermost callback then settles.

        Settling transmits what the socket takes and applies interest and
        deadline once (:meth:`_apply`).  A completion arriving inline inside
        another callback's step (SPED answers a miss before
        ``respond_async`` returns) only runs its step: intermediate phases
        never reach the selector or the wheel, and a pipelined burst never
        recurses — :meth:`_do_write` iterates.
        """
        if self._busy:
            if step is not None:
                step(*args)
            return
        self._busy = True
        try:
            if step is not None:
                step(*args)
            if self._sender is not None and not self._stream_parked:
                self._do_write()
        except OSError as exc:
            self._absorb_disconnect(exc)
        finally:
            self._busy = False
        self._apply()

    def _absorb_callback_crash(self, where: str) -> None:
        """Crash barrier for loop callbacks (lint rule RL005).

        An exception escaping a readiness or timer callback unwinds
        ``run_once`` and kills every connection the loop owns — the PR-2
        BrokenPipeError incident, generalised.  A connection whose state
        machine raised is unrecoverable, but only *it* should die: count
        the bug, log it with traceback, close this connection, move on.
        """
        try:
            self.driver.store.stats.loop_callback_errors += 1
        except Exception:  # stats are best-effort inside the barrier
            pass
        logger.exception("unhandled error in %s; closing this connection", where)
        try:
            self.close()
        except Exception:
            logger.exception("close() failed after %s crash", where)

    def _absorb_disconnect(self, exc: OSError) -> None:
        """Close the connection on a peer failure; re-raise anything else.

        The single classification point for socket errors: every socket
        call a callback makes runs inside :meth:`_run`, including the
        writes that follow helper/CGI completions — without this guard a
        client that disconnected while its request was being prepared
        would propagate ``BrokenPipeError`` into the event loop and kill
        the server.
        """
        if isinstance(exc, ConnectionError) or exc.errno in (
            errno.ECONNRESET,
            errno.EPIPE,
            errno.EBADF,
        ):
            self.close()
            return
        raise exc

    # -- reading and parsing ------------------------------------------------------

    def _do_read(self) -> None:
        try:
            data = self.sock.recv(self.driver.config.socket_io_size)
        except (BlockingIOError, InterruptedError):
            return
        if not data:
            self.close()
            return
        try:
            complete = self.session.received(data, time.monotonic())
        except HTTPError as exc:
            self._send_failure(exc)
            return
        if complete:
            self._dispatch_parsed()

    def _dispatch_parsed(self) -> None:
        """Route a complete request: hot path first, full pipeline otherwise."""
        parser = self.session.parser
        fast = parser.fast_request
        if fast is not None:
            self.driver.store.stats.fast_parses += 1
            if self._try_hot_fast(fast):
                return
        try:
            # Materializes the HTTPRequest lazily after a fast probe whose
            # hot lookup missed.  The probe only accepts shapes the full
            # parser accepts, but a parse failure here must still become an
            # error response, never an exception in the event loop.
            request = parser.request
        except HTTPError as exc:
            self._send_failure(exc)
            return
        # A fast-parsed request already consulted the hot cache (and missed
        # or was cold-rejected); _start_request must not probe it again.
        self._start_request(request, hot_consulted=fast is not None)

    def _try_hot_fast(self, fast: FastRequest) -> bool:
        """The single-lookup hot path for a fast-parsed request.

        One probe of the hot-response cache on the raw target bytes; a hit
        goes straight to transmission — no HTTPRequest, no translation, no
        header build, no descriptor-cache probe.  Returns False (and leaves
        all state untouched) when the request must take the full pipeline.
        """
        driver = self.driver
        if not driver.config.hot_cache:
            return False
        keep_alive = self.session.disposition(fast.keep_alive, driver.draining)
        content = driver.store.hot_lookup(fast.target, keep_alive)
        if content is None:
            return False
        if not self._hot_ready(content):
            return False
        stats = driver.store.stats
        stats.requests += 1
        stats.responses_ok += 1
        self.request = None
        self.session.keep_alive = keep_alive
        sender = choose_send_path(content, store=driver.store, config=driver.config, stats=stats)
        self._start_send(sender.pin(content))
        return True

    def _hot_ready(self, content: StaticContent) -> bool:
        """Ask the driver whether a hot hit may transmit; release if not.

        AMPED rejects content that went cold since it was cached — the
        request then retakes the full pipeline, which warms it through a
        helper, preserving the non-blocking invariant on the fast path.
        Both full (200) and range (206) bodies are gated; bodyless answers
        (304, HEAD, 416) transmit unconditionally.
        """
        if content.content_length == 0 or self.driver.hot_content_ready(content):
            return True
        self.driver.store.stats.hot_cold_fallbacks += 1
        content.release(self.driver.store)
        return False

    def _start_request(self, request: HTTPRequest, hot_consulted: bool = False) -> None:
        driver = self.driver
        store, config, session = driver.store, driver.config, self.session
        self.request = request
        session.keep_alive = session.disposition(request.keep_alive, driver.draining)
        route = exchange.route(store, config, request)
        if route is exchange.ROUTE_SSE:
            try:
                sender = exchange.sse_sender(store, driver.sse_hub, request)
            except HTTPError as exc:
                self._send_failure(exc)
                return
            session.keep_alive = False
            sender.source.bind(self._on_source_ready)
            self._start_send(sender)
            return
        # Park first, dispatch, then look: the dispatch completes inside the
        # call unless a helper or CGI program really took it (SPED always
        # responds inline; AMPED does for a cached translation of a
        # resident file), and the state has then moved on.
        if route is exchange.ROUTE_CGI:
            self.state = STATE_WAIT_DISK
            driver.handle_cgi_async(request, partial(self._run, self._on_cgi_done))
        else:
            if not hot_consulted:
                content = exchange.hot_consult(store, config, request, session.keep_alive)
                if content is not None and self._hot_ready(content):
                    self._on_content_ready(content, None)
                    return
            self.state = STATE_WAIT_DISK
            driver.respond_async(
                request, session.keep_alive, partial(self._run, self._on_content_ready)
            )
        if self.state == STATE_WAIT_DISK:
            # Genuinely parked: no interest, no deadline.  What is queued
            # ahead of it still goes out under the write budget, which
            # only progress restarts (_do_write; drained() once it is out).
            self._want = 0
            if self._sender is None:
                session.waiting()

    # -- completions ------------------------------------------------------------------

    def _on_content_ready(self, content: Optional[StaticContent], error) -> None:
        if self.state == STATE_CLOSED:
            if content is not None:
                content.release(self.driver.store)
            return
        if error is not None:
            self._send_failure(error)
            return
        self._start_send(
            exchange.static_sender(self.driver.store, self.driver.config, content).pin(content)
        )

    def _on_cgi_done(self, body, error) -> None:
        if self.state == STATE_CLOSED:
            if isinstance(body, ResponseSource):
                # The consumer is gone; release the producer (cancels the
                # stream so the worker is not left blocked on a full queue).
                body.close()
            return
        if error is not None:
            self._send_failure(error)
            return
        if isinstance(body, ResponseSource):
            # Streaming application: the body length is unknown up front,
            # so the response goes out through the streaming send path.
            body.bind(self._on_source_ready)
        sender, self.session.keep_alive = exchange.cgi_sender(
            self.driver.store, self.request, body, self.session.keep_alive
        )
        self._start_send(sender)

    # -- sending --------------------------------------------------------------------

    def _start_send(self, sender) -> None:
        """Queue ``sender``'s answer; the settling callback transmits it."""
        queue = self._sender
        if queue is None:
            self._sender = sender
        elif type(sender) is SendPath:
            queue.extend(sender)
        else:
            # A stream's end is unknown: it runs once the queue has drained.
            self._stream = sender
        self.state = STATE_SEND_RESPONSE

    def _park_stream(self) -> None:
        """Nothing to send until the source produces: stop write-watching.

        Read interest stays, so a peer close/reset is noticed promptly (see
        :meth:`_on_readable`); no deadline runs, but the drain deadline
        still bounds the stream's grace on shutdown.
        """
        self._stream_parked = True
        self._want = EVENT_READ
        self.session.waiting()

    def _do_write(self) -> None:
        """Answer buffered requests into the queue, then transmit it.

        Any number of pipelined requests may be answered synchronously
        (hot-cache hits never leave the tick): while the session's hold
        rule says so, the next one is parsed and dispatched and its answer
        joins the queue.  Then the queue goes out, and once it has drained
        :meth:`_finish_response` carries on.  Iterating instead of
        recursing keeps the stack flat however many requests a client
        packs into one segment.
        """
        session = self.session
        while True:
            queue = self._sender
            if queue is None:
                return
            if self.state == STATE_SEND_RESPONSE and session.hold(self._stream or queue):
                self._next_request()
                continue
            sent = queue.send(self.sock)
            if sent:
                self.driver.store.stats.bytes_sent += sent
            if not queue.done:
                if queue.waiting_on_source:
                    self._park_stream()
                else:
                    # The socket would not take it all: watch writability
                    # under the write budget (restarted by progress only).
                    self._want = EVENT_WRITE
                    session.writing(time.monotonic(), sent > 0)
                return
            if not self._finish_response():
                return

    def _next_request(self) -> None:
        """Parse the buffered pipelined bytes; dispatch a complete request."""
        self.state = STATE_READ_REQUEST
        try:
            if self.session.feed_buffered():
                self._dispatch_parsed()
        except HTTPError as exc:
            self._send_failure(exc)

    def _finish_response(self) -> bool:
        """The queue drained: release it and carry on.

        Returns True when another sender is in place — a waiting stream,
        or the next request's answer — for :meth:`_do_write` to transmit.
        """
        if self._sender.under_delivered:
            # Nothing queued behind a short window may follow it.
            self.close()
            return False
        stream, self._stream = self._stream, None
        self._release_response()
        session = self.session
        if stream is not None or self.state != STATE_SEND_RESPONSE:
            # Drained ahead of a stream, a parked request or a partial head.
            session.drained(time.monotonic())
            self._sender = stream
            self._want = EVENT_READ if self.state == STATE_READ_REQUEST else 0
            return stream is not None
        self.request = None
        step = session.finish(False, self.driver.draining, time.monotonic())
        if step is CLOSE:
            self.close()
            return False
        self.state = STATE_READ_REQUEST
        self._want = EVENT_READ
        if step is NEXT:
            # Pipelined request already buffered: parse it without waiting
            # for the socket to become readable again.
            self._next_request()
        # WAIT_DISK (the completion re-enters later), READ_REQUEST, CLOSED,
        # or the next response is in place.
        return self.state == STATE_SEND_RESPONSE

    def _release_response(self) -> None:
        """Release the queue, with every response queued in it, and any stream."""
        for sender in (self._sender, self._stream):
            if sender is not None:
                sender.release()
        self._sender = self._stream = None

    # -- errors ------------------------------------------------------------------------

    def _send_failure(self, error: Exception) -> None:
        """Answer an exception (see ``exchange.failure_sender``).

        A head that never parsed (or timed out) has no disposition yet —
        ``session.keep_alive`` is False — so its answer closes.
        """
        sender, self.session.keep_alive = exchange.failure_sender(
            self.driver.store, error, self.session.keep_alive
        )
        self._start_send(sender)

    # -- lifecycle ------------------------------------------------------------------------

    def close(self) -> None:
        """Tear the connection down and release every pinned resource."""
        if self.state == STATE_CLOSED:
            return
        self.state = STATE_CLOSED
        self.driver.loop.wheel.cancel(self._deadline_handle)
        self._release_response()
        self.driver.loop.unregister(self.sock)
        try:
            self.sock.close()
        except OSError:
            pass
        self.driver.store.stats.connections_closed += 1
        self.driver.on_connection_closed(self)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self.state == STATE_CLOSED

    def drain_idle(self) -> bool:
        """Whether this connection may be closed immediately at drain start.

        Only between complete exchanges (``Session.idle``): the peer is
        owed nothing.  A fresh connection keeps its header budget — its
        first response will carry ``Connection: close`` — and anything
        mid-request or mid-response runs on under the drain deadline.
        """
        return self.session.idle

    # -- internals ----------------------------------------------------------------------

    def _apply(self) -> None:
        """Carry the wanted interest and the session's deadline out.

        Once per callback (see :meth:`_run`); the selector and the wheel
        are touched only when what is wanted changed since the last time.
        """
        if self.state == STATE_CLOSED:
            return
        events = self._want
        if events != self._interest:
            loop = self.driver.loop
            if events == 0:
                loop.unregister(self.sock)
            elif self._interest == 0:
                loop.register(self.sock, events, self.on_ready)
            else:
                loop.modify(self.sock, events, self.on_ready)
            self._interest = events
        deadline = self.session.deadline
        if deadline is not self._armed:
            self._armed = deadline
            wheel = self.driver.loop.wheel
            wheel.cancel(self._deadline_handle)
            self._deadline_handle = None
            if deadline is not None:
                now = time.monotonic()
                self._deadline_handle = wheel.schedule(deadline[1] - now, self._on_deadline, now)
