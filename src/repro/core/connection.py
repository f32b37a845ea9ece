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
    Transmit the response header and body with non-blocking writes,
    handling partial writes and full send buffers.
``CLOSED``
    The connection is finished and its resources are released.

Deadlines
---------

Every connection carries at most one armed deadline on the event loop's
hashed timer wheel, keyed by what the connection is waiting for:

``header``
    Armed at accept (and again when the first byte of a keep-alive
    follow-up request arrives): an *absolute* budget to a complete request
    head.  Deliberately not reset when bytes trickle in — that reset is
    exactly what made a one-byte-per-interval slowloris client immortal.
    Expiry answers ``408 Request Timeout`` with ``Connection: close``.
``idle``
    Armed between complete keep-alive exchanges.  Expiry closes silently.
``write``
    Armed once a response is left unfinished by the write that started it
    (most fit the socket buffer and are gone within the tick, under
    whatever budget was already counting); reset whenever ``send`` moves
    at least one byte (progress, not mere writability).  Expiry flushes
    the cork, releases every pinned resource and closes.

No deadline is armed in ``WAIT_DISK``: the peer is not the party being
waited on there, and helper latency is the server's own business.

The selector and the timer wheel are touched only on a real phase change:
the socket moves to write interest when a write would block, and leaves
the selector when a helper (or CGI program) was actually dispatched.  A
request answered within one loop tick — a hot hit, or a miss whose
translation and file are cached — changes neither.
"""

from __future__ import annotations

import errno
import logging
import socket
import time
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Protocol

from repro.core import exchange
from repro.core.event_loop import EVENT_READ, EVENT_WRITE
from repro.core.pipeline import StaticContent
from repro.core.send_path import (
    ResponseCork,
    SendPath,
    choose_send_path,
    reset_on_close,
    wire_segments,
)
from repro.core.streaming import ResponseSource
from repro.http.errors import HTTPError
from repro.http.request import (
    FAST_MISS,
    FastRequest,
    HTTPRequest,
    RequestParser,
    probe_fast_request,
)

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


#: Which configured budget each deadline kind arms.
_BUDGET = {
    "header": attrgetter("header_timeout"),
    "idle": attrgetter("idle_timeout"),
    "write": attrgetter("write_stall_timeout"),
}


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
        "parser",
        "request",
        "content",
        "_sender",
        "_batch_contents",
        "_cork",
        "_interest",
        "_keep_alive",
        "_finishing",
        "_stream_parked",
        "_deadline_handle",
        "_deadline_kind",
        "last_activity",
        "requests_served",
        "bytes_sent",
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
        self.parser = RequestParser(
            max_header_bytes=driver.config.max_header_bytes,
            fast=driver.config.fast_parse,
        )
        self.request: Optional[HTTPRequest] = None
        self.content: Optional[StaticContent] = None
        self._sender = None
        #: Responses whose buffers were merged into the current sender by
        #: the pipelined-hot-hit batch; their pins are released together
        #: with the primary response once the combined write finishes.
        self._batch_contents: list[StaticContent] = []
        self._cork = ResponseCork(sock, enabled=driver.config.cork_responses)
        self._interest = 0
        self._keep_alive = False
        self._finishing = False
        self._stream_parked = False
        self._deadline_handle = None
        self._deadline_kind = None
        self.last_activity = time.monotonic()
        self.requests_served = 0
        self.bytes_sent = 0
        self._set_interest(EVENT_READ)
        # The header budget starts at accept: a peer that connects and
        # never produces a complete request head is answered 408.
        self._arm_deadline("header")

    # -- readiness callbacks ----------------------------------------------------

    def on_ready(self, _fileobj, mask: int) -> None:
        """Event-loop callback: advance the state machine.

        ``last_activity`` is *not* touched here: a readiness event proves
        nothing about the peer (a writable socket stays writable while the
        client reads nothing at all).  The clock advances only where bytes
        actually move — in ``_do_read`` and in the senders' progress
        accounting — so the deadlines measure peer progress, not kernel
        readiness.
        """
        try:
            try:
                if mask & EVENT_READ and self.state == STATE_READ_REQUEST:
                    self._do_read()
                elif mask & EVENT_READ and self.state == STATE_SEND_RESPONSE \
                        and self._stream_parked:
                    # A parked stream keeps read interest purely to notice
                    # the peer going away (mid-stream close or reset).
                    self._probe_peer()
                if mask & EVENT_WRITE and self.state == STATE_SEND_RESPONSE:
                    self._do_write()
            except OSError as exc:
                self._absorb_disconnect(exc)
        except Exception:
            self._absorb_callback_crash("on_ready")

    def _probe_peer(self) -> None:
        """Peek the socket of a parked stream for EOF/reset.

        An idle SSE subscriber owes the server nothing, so the write-side
        deadline is disarmed while parked — this probe is what notices the
        client hanging up, releasing the subscription (and, for CGI
        streams, cancelling the child) promptly instead of on the next
        failed write.  Actual bytes (an early pipelined request) are left
        in the kernel buffer for the post-stream parser; read interest is
        dropped then so a level-triggered backend does not spin.
        """
        try:
            data = self.sock.recv(1, socket.MSG_PEEK)
        except (BlockingIOError, InterruptedError):
            return
        if not data:
            self.close()
            return
        self._set_interest(self._interest & ~EVENT_READ)

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

        The single classification point for socket errors, used by
        :meth:`on_ready` and by every place the state machine writes to
        the socket *outside* a readiness callback — the optimistic write
        in :meth:`_start_send` runs on helper/CGI completion paths, and
        without this guard a client that disconnected while its request
        was being prepared would propagate ``BrokenPipeError`` into the
        event loop and kill the server.
        """
        if isinstance(exc, ConnectionError) or exc.errno in (
            errno.ECONNRESET,
            errno.EPIPE,
            errno.EBADF,
        ):
            self.close()
            return
        raise exc

    # -- deadlines ----------------------------------------------------------------

    def _arm_deadline(self, kind: Optional[str]) -> None:
        """Arm (or, with ``None``, clear) this connection's single deadline.

        ``kind`` selects the configured budget: ``"header"`` →
        ``header_timeout``, ``"idle"`` → ``idle_timeout``, ``"write"`` →
        ``write_stall_timeout``.  A non-positive budget means that
        deadline is disabled and nothing is armed.  O(1) either way — the
        handles live on the event loop's hashed timer wheel.
        """
        wheel = self.driver.loop.wheel
        if self._deadline_handle is not None:
            wheel.cancel(self._deadline_handle)
            self._deadline_handle = None
        self._deadline_kind = kind
        if kind is None:
            return
        delay = _BUDGET[kind](self.driver.config)
        if delay <= 0:
            return
        self._deadline_handle = wheel.schedule(delay, self._on_deadline)

    def _on_deadline(self) -> None:
        """Wheel callback: the armed budget ran out without progress."""
        try:
            if self.state == STATE_CLOSED:
                return
            kind = self._deadline_kind
            self._deadline_handle = None
            self._deadline_kind = None
            stats = self.driver.store.stats
            if kind == "header" and self.state == STATE_READ_REQUEST:
                # Mid-parse expiry: answer 408 and close.  _send_error goes
                # through _start_send, which arms a write deadline — so a
                # slowloris peer that also refuses to *read* the 408 is
                # still reaped by the write-stall budget, pins and all.
                stats.timeouts_header += 1
                self._send_error(408, "request header timeout")
                return
            if kind == "write":
                stats.timeouts_write_stall += 1
                reset_on_close(self.sock)
            else:
                stats.timeouts_idle += 1
            # close() flushes the cork and releases the sender, content and
            # batch pins — the full mid-send teardown contract.
            self.close()
        except Exception:
            self._absorb_callback_crash("_on_deadline")

    # -- reading and parsing ------------------------------------------------------

    def _do_read(self) -> None:
        try:
            data = self.sock.recv(self.driver.config.socket_io_size)
        except (BlockingIOError, InterruptedError):
            return
        if not data:
            self.close()
            return
        self.last_activity = time.monotonic()
        if self._deadline_kind == "idle":
            # First byte of a keep-alive follow-up request: the idle wait
            # is over and the header budget starts now.
            self._arm_deadline("header")
        try:
            complete = self.parser.feed(data)
        except HTTPError as exc:
            self._send_error(exc.status, exc.message)
            return
        if complete:
            self._dispatch_parsed()

    def _dispatch_parsed(self) -> None:
        """Route a complete request: hot path first, full pipeline otherwise."""
        fast = self.parser.fast_request
        if fast is not None:
            self.driver.store.stats.fast_parses += 1
            if self._try_hot_fast(fast):
                return
        try:
            # Materializes the HTTPRequest lazily after a fast probe whose
            # hot lookup missed.  The probe only accepts shapes the full
            # parser accepts, but a parse failure here must still become an
            # error response, never an exception in the event loop.
            request = self.parser.request
        except HTTPError as exc:
            self._send_error(exc.status, exc.message)
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
        keep_alive = exchange.disposition(
            fast.keep_alive, driver.config, driver.draining, self.parser.remainder
        )
        content = driver.store.hot_lookup(fast.target, keep_alive)
        if content is None:
            return False
        if not self._hot_ready(content):
            return False
        stats = driver.store.stats
        stats.requests += 1
        stats.responses_ok += 1
        self.request = None
        self._keep_alive = keep_alive
        self.content = content
        self._start_send(
            choose_send_path(content, store=driver.store, config=driver.config, stats=stats)
        )
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
        store, config = driver.store, driver.config
        self.request = request
        self._keep_alive = exchange.disposition(
            request.keep_alive, config, driver.draining, self.parser.remainder
        )
        route = exchange.route(store, config, request)
        if route is exchange.ROUTE_SSE:
            try:
                sender = exchange.sse_sender(store, driver.sse_hub, request)
            except HTTPError as exc:
                self._send_failure(exc)
                return
            self._keep_alive = False
            sender.source.bind(self._on_source_ready)
            self._start_send(sender)
            return
        # Park first, dispatch, then look: the dispatch completes inside the
        # call unless a helper or CGI program really took it (SPED always
        # responds inline; AMPED does for a cached translation of a
        # resident file), and the state has then moved on.
        if route is exchange.ROUTE_CGI:
            self.state = STATE_WAIT_DISK
            driver.handle_cgi_async(request, self._on_cgi_done)
        else:
            if not hot_consulted:
                content = exchange.hot_consult(store, config, request, self._keep_alive)
                if content is not None and self._hot_ready(content):
                    self._on_content_ready(content, None)
                    return
            self.state = STATE_WAIT_DISK
            driver.respond_async(request, self._keep_alive, self._on_content_ready)
        if self.state == STATE_WAIT_DISK:
            # Genuinely parked: stop watching the socket and the clock (the
            # peer is not the party being waited on; _start_send re-arms on
            # completion).  Cork-aware latency bound: earlier corked
            # responses must not sit in the kernel for up to the 200 ms
            # cork timer while the disk seeks — flush them now; _start_send
            # re-corks later if yet more pipelined requests are buffered
            # behind the disk-bound one.
            self._set_interest(0)
            self._arm_deadline(None)
            self._cork.flush()

    # -- completion callbacks ------------------------------------------------------

    def _on_content_ready(self, content: Optional[StaticContent], error) -> None:
        if self.state == STATE_CLOSED:
            if content is not None:
                content.release(self.driver.store)
            return
        if error is not None:
            self._send_failure(error)
            return
        self.content = content
        self._start_send(
            exchange.static_sender(self.driver.store, self.driver.config, content)
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
        sender, self._keep_alive = exchange.cgi_sender(
            self.driver.store, self.request, body, self._keep_alive
        )
        self._start_send(sender)

    # -- streaming ------------------------------------------------------------------

    def _on_source_ready(self) -> None:
        """Source callback: data arrived for a (possibly parked) stream.

        Runs on the event-loop thread — the CGI runner and the SSE hub
        both route cross-thread arrivals through loop-registered wakeup
        channels before notifying.
        """
        try:
            if self.state != STATE_SEND_RESPONSE or self._sender is None:
                return
            if self._stream_parked:
                self._stream_parked = False
                self._set_interest(EVENT_WRITE)
                self._arm_deadline("write")
            try:
                self._do_write()
            except OSError as exc:
                self._absorb_disconnect(exc)
        except Exception:
            self._absorb_callback_crash("_on_source_ready")

    def _park_stream(self) -> None:
        """Nothing to send until the source produces: stop write-watching.

        Keeps read interest so a peer close/reset is noticed promptly
        (see :meth:`_probe_peer`) and disarms the write-stall budget — an
        idle subscriber is not a stalled reader; it is owed nothing.  The
        drain deadline still bounds the stream's total grace on shutdown.
        """
        self._stream_parked = True
        self._set_interest(EVENT_READ)
        self._arm_deadline(None)

    # -- sending --------------------------------------------------------------------

    def _start_send(self, sender) -> None:
        self._sender = sender
        self.state = STATE_SEND_RESPONSE
        # A pipelined request is already buffered behind this response, so
        # another response will follow immediately: cork the socket so the
        # two (or more) leave the kernel as full segments instead of one
        # short segment per response.  The cork pops in _finish_response
        # once the pipeline drains.
        if self._keep_alive and self.parser.remainder:
            if self._cork.hold():
                self.driver.store.stats.corked_responses += 1
        if self._finishing:
            # Called from inside _finish_response: _do_write's loop
            # transmits the response itself — writing here would recurse
            # back through it, one stack level per pipelined request, and a
            # long burst would overflow the stack.  (_finish_response also
            # batches, so merging here would double up.)
            self._await_writable()
            return
        # Merge any immediately-ready pipelined hot hits into this sender
        # before the optimistic write, so a burst that arrived in one
        # segment leaves in one vectored write as well.
        self._batch_pipelined()
        # Optimistically try to write immediately; most responses fit in the
        # socket buffer, so this saves a full select round trip per request.
        # This call frequently runs from helper/CGI completion callbacks
        # rather than from on_ready, so peer disconnects must be absorbed
        # here — they cannot be allowed to unwind into the event loop.
        try:
            self._do_write()
        except OSError as exc:
            self._absorb_disconnect(exc)
            return
        # Most responses are gone by now (and the drain loop has put the
        # connection wherever it belongs next).  Only one the socket would
        # not take whole starts costing selector and timer-wheel work; a
        # parked stream has chosen its own interest and owes no deadline.
        if (
            self.state == STATE_SEND_RESPONSE
            and self._sender is not None
            and not self._stream_parked
        ):
            self._await_writable()

    def _await_writable(self) -> None:
        """Watch for writability under the write-stall budget.

        The budget is progress-based: rearmed by every send that moves at
        least one byte (see :meth:`_do_write`), never by mere writability,
        so a budget some progress already armed is left counting.
        """
        if self._deadline_kind != "write":
            self._arm_deadline("write")
        self._set_interest(EVENT_WRITE)

    def _do_write(self) -> None:
        """Transmit what the socket takes now; chain pipelined responses.

        Any number of pipelined requests may complete synchronously behind
        a finished response (cache hits — above all hot-cache hits — never
        leave the event-loop tick).  Each iteration transmits one response
        and, once it is out, lets :meth:`_finish_response` start the next
        buffered request; iterating here instead of recursing through
        ``_start_send → _do_write → _finish_response`` keeps the stack flat
        no matter how many requests a client packs into one segment.
        """
        while True:
            sender = self._sender
            if sender is None:
                return
            sent = sender.send(self.sock)
            if sent:
                self.last_activity = time.monotonic()
                self.bytes_sent += sent
                self.driver.store.stats.bytes_sent += sent
            if not sender.done:
                if sent:
                    # Bytes moved but the response is not finished: the
                    # peer made progress, so the write-stall budget
                    # restarts.  (No progress leaves the armed deadline
                    # counting down.)
                    self._arm_deadline("write")
                if (
                    not self._stream_parked
                    and self.state == STATE_SEND_RESPONSE
                    and getattr(sender, "waiting_on_source", False)
                ):
                    self._park_stream()
                return
            if not self._finish_response():
                return

    def _finish_response(self) -> bool:
        """Epilogue of a transmitted response; start the next buffered request.

        Returns True when that request's response started synchronously —
        its sender is in place and :meth:`_do_write` transmits it next.
        """
        self.requests_served += 1
        if self._sender is not None and self._sender.under_delivered:
            # The body came up short of the promised Content-Length (file
            # shrank mid-transfer): the connection's framing is broken, so
            # it must not be reused.
            self._keep_alive = False
        self._release_response()
        remainder = self.parser.remainder
        if not self._keep_alive or (self.driver.draining and not remainder):
            # The second case: drain began while this (pre-drain,
            # keep-alive flavored) response was in flight and nothing
            # further is buffered — going idle now would leave the
            # connection for the drain deadline to force-close.
            self.close()
            return False
        self.parser.reset()
        self.request = None
        self.state = STATE_READ_REQUEST
        self._set_interest(EVENT_READ)
        # Buffered pipelined bytes mean a request head is already in flight
        # (header budget); an empty buffer means the exchange is complete
        # and the keep-alive idle budget applies.
        self._arm_deadline("header" if remainder else "idle")
        if remainder:
            # Pipelined request already buffered: parse it without waiting
            # for the socket to become readable again.  _finishing tells
            # _start_send that _do_write's loop transmits the response.
            self._finishing = True
            try:
                if self.parser.feed(remainder):
                    self._dispatch_parsed()
            except HTTPError as exc:
                self._send_error(exc.status, exc.message)
            finally:
                self._finishing = False
        if self.state == STATE_READ_REQUEST:
            # Pipeline drained: no complete request is buffered, so nothing
            # follows immediately and the batched responses must flush.  (A
            # pipelined request that parked on disk flushed the cork
            # already, inside _start_request — the cork-aware latency
            # bound.)
            self._cork.flush()
            return False
        if self.state != STATE_SEND_RESPONSE or self._sender is None:
            # WAIT_DISK (the helper/CGI completion re-enters later) or
            # CLOSED.
            return False
        # The next response started synchronously: merge any further
        # immediately-ready hot hits into its vector before it leaves.
        self._batch_pipelined()
        return True

    def _batch_pipelined(self) -> None:
        """Merge immediately-ready pipelined hot hits into the current sender.

        A pipelined burst of cached responses used to pay one send-path
        round per tiny response even under ``TCP_CORK``.  Instead, peel
        further complete plain-GET requests off the parser remainder, look
        them up in the hot-response cache, and append each precomposed
        hit's segments (buffers or file windows alike) to the in-flight
        sender — a buffered burst then leaves through a single vectored
        write.  Any doubt (fast-probe decline, hot miss, cold content, a
        close disposition) stops the merge, and the unconsumed requests
        take the normal drain loop exactly as before — batching changes
        syscall count, never bytes.
        """
        sender = self._sender
        if not isinstance(sender, SendPath):
            # A stream's end is not known yet: nothing can queue behind it.
            return
        driver = self.driver
        config = driver.config
        if not (config.hot_cache and config.fast_parse):
            return
        store = driver.store
        stats = store.stats
        while self._keep_alive and self.parser.remainder:
            probed = probe_fast_request(self.parser.remainder)
            if probed is None or probed is FAST_MISS:
                return
            fast, header_end = probed
            # More buffered = bytes past this request's head: the last
            # buffered pipelined request during drain says ``close``.
            keep_alive = exchange.disposition(
                fast.keep_alive,
                config,
                driver.draining,
                len(self.parser.remainder) > header_end,
            )
            content = store.hot_lookup(fast.target, keep_alive)
            if content is None:
                return
            if content.content_length > 0 and not driver.hot_content_ready(content):
                # Cold content: the normal loop will re-consult the cache
                # and retake the full (warming) pipeline.
                content.release(store)
                return
            # Commit: consume the request and merge the response.
            self.parser.remainder = self.parser.remainder[header_end:]
            stats.requests += 1
            stats.responses_ok += 1
            stats.fast_parses += 1
            stats.hot_batched += 1
            self.requests_served += 1
            self._keep_alive = keep_alive
            sender.extend(wire_segments(content, config=config, stats=stats))
            self._batch_contents.append(content)

    def _release_response(self) -> None:
        """Release the sender, then the response, then everything batched into it.

        In that order: the buffered path holds memoryviews over mapped
        chunks, which must be dropped before the cache may unmap them.
        """
        if self._sender is not None:
            self._sender.release()
            self._sender = None
        if self.content is not None:
            self.content.release(self.driver.store)
            self.content = None
        if self._batch_contents:
            batch, self._batch_contents = self._batch_contents, []
            for content in batch:
                content.release(self.driver.store)

    # -- errors ------------------------------------------------------------------------

    def _send_failure(self, error: Exception) -> None:
        """Answer an exception from planning (see ``exchange.failure_sender``)."""
        sender, self._keep_alive = exchange.failure_sender(
            self.driver.store, error, self._keep_alive
        )
        self._start_send(sender)

    def _send_error(self, status: int, message: str) -> None:
        """Answer a request that never parsed (or timed out); then close."""
        self._keep_alive = False
        self._start_send(exchange.error_sender(self.driver.store, status, message, False))

    # -- lifecycle ------------------------------------------------------------------------

    def close(self) -> None:
        """Tear the connection down and release every pinned resource."""
        if self.state == STATE_CLOSED:
            return
        self.state = STATE_CLOSED
        self._arm_deadline(None)
        # Pop any held cork so batched bytes flush ahead of the FIN.
        self._cork.flush()
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

        True only for a keep-alive connection parked *between* complete
        exchanges (the ``idle`` deadline is the armed kind exactly then):
        the peer is owed nothing.  A fresh connection that has not produced
        a request yet keeps its header budget — its first response will
        carry ``Connection: close`` — and anything mid-request or
        mid-response runs to completion under the drain deadline.
        """
        return self.state == STATE_READ_REQUEST and self._deadline_kind == "idle"

    def idle_for(self, now: Optional[float] = None) -> float:
        """Seconds since a byte last moved on this connection.

        Readiness events do not count: a socket can select readable or
        writable forever while the peer makes no progress at all, and it
        was exactly that conflation that let slow clients dodge the old
        sweep-based reaper.
        """
        return (now or time.monotonic()) - self.last_activity

    # -- internals ----------------------------------------------------------------------

    def _set_interest(self, events: int) -> None:
        if self.state == STATE_CLOSED:
            return
        loop = self.driver.loop
        if events == self._interest:
            return
        if events == 0:
            loop.unregister(self.sock)
        elif self._interest == 0:
            loop.register(self.sock, events, self.on_ready)
        else:
            loop.modify(self.sock, events, self.on_ready)
        self._interest = events
