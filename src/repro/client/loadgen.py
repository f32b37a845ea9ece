"""Event-driven multi-client HTTP load generator (paper Section 6).

The paper's client software is an event-driven program that simulates
multiple HTTP clients, each making requests as fast as the server can handle
them.  :class:`LoadGenerator` reproduces that: it multiplexes ``num_clients``
simulated clients over one ``selectors`` loop in the calling thread, each
client issuing requests drawn from a workload (any callable returning the
next path), optionally over persistent connections, until a wall-clock
duration or request budget is exhausted.

The result object reports the two metrics the paper plots: total output
bandwidth (Mb/s) and connection (request) rate (requests/second).

A misbehaving-client mode (``slow_writers``/``slow_readers``) attaches
slowloris writers and stalled readers alongside the real load, so the
slow-client-hardening benchmarks can measure whether the server's
progress-based deadlines keep the fast clients' throughput intact while
the attackers are being reaped.

Every client kind is one :class:`_Client` — the socket, its counters,
connecting, selector registration, closing and the readiness dispatch —
plus its own reactions: the regular client, the slowloris writer, the
stalled reader, the connection flooder and the SSE subscriber.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Optional

from repro.client.latency import LatencyHistogram, exponential_arrivals
from repro.client.simple import HTTPResponse, parse_head, walk_chunks

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE

#: Client states: connected (or waiting on a timer to reconnect), parked
#: in the open-loop pool, finished for the rest of the run.
ACTIVE = "active"
IDLE = "idle"
DONE = "done"


@dataclass
class ClientResult:
    """Per-simulated-client counters."""

    requests_completed: int = 0
    bytes_received: int = 0
    errors: int = 0
    connects: int = 0
    not_modified: int = 0
    #: Status-class counters: 2xx successes, and the 206 subset of them.
    #: Kept separately so a multi-process run's merged counters can be
    #: cross-checked exactly against the per-worker sums and the server's
    #: own response-class counters.
    responses_2xx: int = 0
    responses_206: int = 0
    #: Misbehaving-client counters (zero for well-behaved clients): times
    #: the server closed the connection on a deadline, and 408 responses
    #: received by a slowloris writer before the close.
    reaped: int = 0
    rejected_408: int = 0
    #: Overload counters: 503 responses received (admission shedding —
    #: counted by both well-behaved clients and connection flooders, never
    #: as completed requests), and closed-loop retries issued after a shed.
    rejected_503: int = 0
    retries: int = 0
    #: Chaos-mode counter: connections reset mid-exchange that were retried
    #: instead of recorded as errors (``retry_resets``).
    connection_resets: int = 0
    #: Streaming counters: responses completed with
    #: ``Transfer-Encoding: chunked`` framing (the chunked-mix requests),
    #: and Server-Sent Events received by an SSE subscriber client.
    chunked_responses: int = 0
    sse_events: int = 0


def add_counters(total: ClientResult, results: Iterable[ClientResult]) -> None:
    """Add every :class:`ClientResult` counter of ``results`` into ``total``."""
    for result in results:
        for counter in fields(ClientResult):
            name = counter.name
            setattr(total, name, getattr(total, name) + getattr(result, name))


@dataclass
class LoadResult(ClientResult):
    """Aggregate outcome of one load-generation run: the sum of every
    client's counters, plus the run-wide measurements.

    ``bandwidth_mbps`` and ``request_rate`` are the quantities plotted on
    the paper's figures (output bandwidth in megabits/second and connection
    rate in requests/second).
    """

    elapsed: float = 0.0
    per_client: list = field(default_factory=list)
    #: Per-request latency distribution (seconds recorded; read in ms).
    #: Closed loop measures send-start → response-complete; open loop
    #: measures *scheduled arrival* → response-complete, so queueing delay
    #: under overload lands in the tail percentiles instead of vanishing.
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Open-loop accounting: requests dispatched from the arrival
    #: schedule, the total/worst dispatch lateness (seconds a request
    #: waited past its scheduled arrival before a client picked it up),
    #: and the deepest backlog observed.  All zero in closed-loop runs.
    dispatched: int = 0
    lateness_sum: float = 0.0
    lateness_max: float = 0.0
    max_backlog: int = 0

    @property
    def bandwidth_mbps(self) -> float:
        """Output bandwidth observed by the clients, in megabits per second."""
        if self.elapsed <= 0:
            return 0.0
        return (self.bytes_received * 8) / (self.elapsed * 1_000_000)

    @property
    def request_rate(self) -> float:
        """Completed requests per second."""
        if self.elapsed <= 0:
            return 0.0
        return self.requests_completed / self.elapsed

    def to_dict(self) -> dict:
        """Plain-dict summary for logging and experiment tables.

        ``connects`` is a per-client diagnostic and stays out of the
        summary, whose key set is pinned.
        """
        counters = {
            counter.name: getattr(self, counter.name)
            for counter in fields(ClientResult)
            if counter.name != "connects"
        }
        return {
            **counters,
            "elapsed": self.elapsed,
            "bandwidth_mbps": self.bandwidth_mbps,
            "request_rate": self.request_rate,
            "dispatched": self.dispatched,
            "lateness_sum": self.lateness_sum,
            "lateness_max": self.lateness_max,
            "max_backlog": self.max_backlog,
            "latency": self.latency.summary_ms(),
        }


class _Client:
    """One simulated connection on the generator's selector.

    The base owns the socket, the per-client counters, connecting,
    selector (un)registration, sending the pending request bytes, closing
    and the readiness dispatch.  Each behaviour supplies its reactions:
    :meth:`_begin` once a connect is under way, :meth:`on_readable`,
    :meth:`_sent` once the request is on the wire, :meth:`_refused` and
    :meth:`_broken`.
    """

    #: ``SO_RCVBUF`` requested before connecting (0 keeps the default).
    RCVBUF = 0

    def __init__(self, generator: "LoadGenerator"):
        self.generator = generator
        self.result = ClientResult()
        self.sock: Optional[socket.socket] = None
        self.state = DONE
        self._registered_events = 0
        self._send_buffer = b""

    def start(self) -> None:
        """Connect and begin this behaviour's exchange."""
        if self._connect():
            self._begin()
        else:
            self._refused()

    def _begin(self) -> None:
        raise NotImplementedError

    def _connect(self) -> bool:
        """Open a non-blocking connection to the server under test.

        False when the connect failed outright (refused, out of
        descriptors); the socket is closed again by then.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.RCVBUF:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, self.RCVBUF)
        except OSError:
            pass
        self.sock = sock
        self.result.connects += 1
        self.state = ACTIVE
        try:
            sock.connect(self.generator.address)
        except BlockingIOError:
            pass
        except OSError:
            self._close()
            return False
        return True

    def _refused(self) -> None:
        """The connect failed outright: count it and stop."""
        self.result.errors += 1
        self.state = DONE

    def _broken(self) -> None:
        """The connection broke, or the server's bytes did not parse."""
        raise NotImplementedError

    # -- readiness ---------------------------------------------------------------

    def on_ready(self, mask: int) -> None:
        """Hand selector readiness to this behaviour's reactions."""
        try:
            if mask & _WRITE:
                self.on_writable()
            if mask & _READ and self.sock is not None:
                self.on_readable()
        except BlockingIOError:
            pass
        except (OSError, ValueError):
            self._broken()

    def on_writable(self) -> None:
        """Send the pending request bytes, then :meth:`_sent`."""
        assert self.sock is not None
        while self._send_buffer:
            self._send_buffer = self._send_buffer[self.sock.send(self._send_buffer):]
        self._sent()

    def _sent(self) -> None:
        """The request is on the wire: listen for the answer."""
        self._register(_READ)

    def on_readable(self) -> None:
        """The socket has bytes, or the server closed it."""

    # -- teardown and selector plumbing -----------------------------------------

    def _close(self) -> None:
        if self.sock is not None:
            self._unregister()
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def _register(self, events: int) -> None:
        if self.sock is None:
            return
        selector = self.generator.selector
        if self._registered_events == 0:
            selector.register(self.sock, events, self)
        elif events != self._registered_events:
            selector.modify(self.sock, events, self)
        self._registered_events = events

    def _unregister(self) -> None:
        if self.sock is not None and self._registered_events:
            try:
                self.generator.selector.unregister(self.sock)
            except (KeyError, ValueError):
                pass
        self._registered_events = 0


class _SimClient(_Client):
    """State machine for one simulated HTTP client.

    Two operating modes, decided by the generator:

    *closed loop* (the paper's client): the client re-issues a request the
    moment the previous response completes, so offered load adapts to the
    server's speed.

    *open loop*: the client is one slot in a connection pool.  It sits
    :data:`IDLE` until the generator dispatches a scheduled arrival to it,
    serves exactly that one request, and goes idle again — the arrival
    schedule, not the server, decides when requests happen.
    """

    def __init__(self, generator: "LoadGenerator"):
        super().__init__(generator)
        self._recv_buffer = bytearray()
        self._head: Optional[HTTPResponse] = None
        #: Where the unexamined body starts: the body's first byte, or the
        #: first chunk not yet complete of a chunked body.
        self._body_at = 0
        self._path = ""
        #: Open-loop: the arrival time this in-flight request was scheduled
        #: for; closed-loop: ``None`` (latency is measured from send start).
        self._scheduled: Optional[float] = None
        self._sent_at = 0.0
        #: Whether a request of this client counts in the generator's
        #: ``in_flight`` (prepared, not yet answered, shed or failed).
        self._in_flight = False

    def start(self) -> None:
        """Open a connection and issue the first request (closed loop)."""
        if not self.generator.can_issue():
            self.state = DONE
            return
        self._issue()

    def dispatch(self, scheduled: float) -> None:
        """Issue one request for the arrival scheduled at ``scheduled``.

        Open-loop entry point: reuses the parked keep-alive connection when
        one survives, otherwise connects fresh.
        """
        self._scheduled = scheduled
        self._issue()

    def _issue(self) -> None:
        """Send the next request, connecting first when no connection survives."""
        fresh = self.sock is None
        if fresh and not self._connect():
            self._broken()
            return
        self._prepare_request()
        self._register(_WRITE)
        if not fresh:
            self.on_ready(_WRITE)

    def _prepare_request(self) -> None:
        shape = self.generator.next_request_shape()
        if shape == "chunked":
            # Chunked-mix slot: hit the streaming endpoint instead of the
            # static workload path; the response arrives with
            # Transfer-Encoding: chunked and no Content-Length.
            path = self.generator.chunked_path
            etag = None
        else:
            path = self.generator.next_path()
            etag = self.generator.captured_etag(path) if shape == "conditional" else None
        self._path = path
        self._send_buffer = self.generator.request_bytes(
            path, ranged=shape == "ranged", etag=etag
        )
        self._recv_buffer = bytearray()
        self._head = None
        self._body_at = 0
        self.state = ACTIVE
        self._sent_at = time.monotonic()
        self._in_flight = True
        self.generator.in_flight += 1

    def _settle(self) -> None:
        """The request in flight ended: answered, shed or failed."""
        if self._in_flight:
            self._in_flight = False
            self.generator.in_flight -= 1

    # -- reactions ---------------------------------------------------------------

    def on_readable(self) -> None:
        assert self.sock is not None
        if self.state == IDLE:
            self._drain_idle()
            return
        while True:
            data = self.sock.recv(65536)
            if not data:
                # Server closed the connection; if we already had the full
                # response this is just "Connection: close" semantics.
                if self._response_complete():
                    self._complete_response(reconnect=True)
                else:
                    self._broken()
                return
            self._recv_buffer.extend(data)
            self.result.bytes_received += len(data)
            if self._response_complete():
                self._complete_response(reconnect=not self.generator.keep_alive)
                return

    def _drain_idle(self) -> None:
        """Readability while parked: the server closed (or broke) the
        parked keep-alive connection — e.g. its idle deadline fired.  Drop
        the socket quietly; the next dispatch reconnects.  Not an error:
        no request was in flight."""
        assert self.sock is not None
        try:
            if self.sock.recv(4096):
                return
        except BlockingIOError:
            return
        except OSError:
            pass
        self._close()

    def _response_complete(self) -> bool:
        """Whether the buffered response is whole; parses its head first."""
        if self._head is None:
            parsed = parse_head(self._recv_buffer)
            if parsed is None:
                return False
            self._head, self._body_at = parsed
            # Remember the validator so later conditional requests can
            # replay it as If-None-Match.
            self.generator.record_etag(self._path, self._head.headers.get("etag", ""))
        if self._head.chunked:
            self._body_at, _, done = walk_chunks(self._recv_buffer, self._body_at)
            return done
        return len(self._recv_buffer) - self._body_at >= self._head.content_length

    def _complete_response(self, reconnect: bool) -> None:
        now = time.monotonic()
        self._settle()
        assert self._head is not None
        status = self._head.status
        if status == 503:
            # Admission shedding: not a completed request and not an
            # error — the server explicitly asked us to come back later.
            self._rejected()
            return
        self.result.requests_completed += 1
        self.generator.total_requests += 1
        if self._head.chunked:
            self.result.chunked_responses += 1
        if 200 <= status < 300:
            self.result.responses_2xx += 1
            if status == 206:
                self.result.responses_206 += 1
        elif status == 304:
            self.result.not_modified += 1
        # Open loop: latency includes time spent queued past the scheduled
        # arrival, so overload surfaces as queueing delay.  Closed loop:
        # time from send start (connect included for fresh connections).
        start = self._scheduled if self._scheduled is not None else self._sent_at
        self.generator.latency.record(now - start)
        self._scheduled = None
        if self.generator.finished():
            self._close()
            self.state = DONE
            return
        if self.generator.open_loop:
            if reconnect:
                self._close()
            self.generator.client_idle(self)
            return
        if not self.generator.can_issue():
            # Closed loop: the rest of the budget is already on the wire.
            self._close()
            self.state = DONE
            return
        if self.generator.think_time > 0:
            self._close()
            self.generator.schedule_call(self.generator.think_time, self.start)
            return
        if reconnect:
            self._close()
        self._issue()

    def _rejected(self) -> None:
        """The server shed this request with a 503.

        Closed loop: back off ``retry_backoff`` seconds and retry — the
        chaos benchmarks count a well-behaved client as *failed* only if
        its request never completes, so a shed followed by a successful
        retry preserves availability.  Open loop: the scheduled arrival is
        consumed (retrying would inflate offered load past the schedule),
        so the shed is only counted.
        """
        self.result.rejected_503 += 1
        self._back_off(retry=True)

    def _broken(self) -> None:
        """The connection was refused, broke mid-exchange, or answered
        bytes that do not parse."""
        chaos = self.generator.retry_resets and not self.generator.open_loop
        if chaos:
            # Chaos mode: a well-behaved client retries an idempotent GET
            # whose connection broke mid-exchange (a shard died under it)
            # instead of recording a hard failure.  The reset is still
            # counted so availability reports can see the churn.
            self.result.connection_resets += 1
        else:
            self.result.errors += 1
        self._back_off(retry=chaos)

    def _back_off(self, retry: bool) -> None:
        """The request in flight ended unanswered: close the connection.

        Open loop: the scheduled arrival is consumed (counted, not
        retried: retrying would inflate the offered load beyond the
        schedule), and the client goes back to the pool.  Closed loop:
        start again after ``retry_backoff`` — paced, so a dead server
        cannot turn reconnects into a busy loop — counted as a retry if
        ``retry``.
        """
        self._settle()
        self._close()
        self._scheduled = None
        if self.generator.finished():
            self.state = DONE
        elif self.generator.open_loop:
            self.generator.client_idle(self)
        else:
            if retry:
                self.result.retries += 1
            self.generator.schedule_call(self.generator.retry_backoff, self.start)


class _SlowClient(_Client):
    """A deliberately misbehaving client attached alongside the real load.

    Its two kinds, :class:`_SlowWriter` and :class:`_SlowReader`, match the
    two resource-holding attacks the server's per-connection deadlines
    defend against.  Slow clients never contribute to
    ``requests_completed``; their job is to *hold server resources* so the
    run shows whether the fast clients' throughput survives their
    presence.  Each paced :meth:`_step` moves ``dribble_bytes`` every
    ``dribble_interval`` seconds.
    """

    def _pace(self) -> None:
        """Run one :meth:`_step` on this connection after ``dribble_interval``."""
        sock = self.sock

        def step() -> None:
            if self.sock is not sock:
                return  # reaped since; the reconnect paces itself
            try:
                alive = self._step()
            except BlockingIOError:
                alive = True
            except OSError:
                alive = False
            if alive:
                self._pace()
            else:
                self._broken()

        self.generator.schedule_call(self.generator.dribble_interval, step)

    def _step(self) -> bool:
        """One paced step; False when the server has ended the connection."""
        raise NotImplementedError

    def _broken(self) -> None:
        """The server ended the connection: count it and come back for more."""
        self.result.reaped += 1
        self._close()
        if self.generator.finished():
            self.state = DONE
        else:
            self.start()


class _SlowWriter(_SlowClient):
    """A slowloris: connects and dribbles an incomplete request head
    ``dribble_bytes`` at a time every ``dribble_interval`` seconds, never
    terminating it.  A hardened server answers ``408`` when its header
    budget expires and closes; the client counts the 408
    (``rejected_408``) and the close (``reaped``), then reconnects."""

    def _begin(self) -> None:
        host = "%s:%d" % self.generator.address
        # An incomplete head: no terminating blank line, and short enough
        # to stay under any header-size limit, so the only thing that can
        # end it is the server's header deadline.
        self._send_buffer = (
            f"GET / HTTP/1.1\r\nHost: {host}\r\nX-Slowloris: "
        ).encode("latin-1") + b"a" * 512
        self._saw_408 = False
        # Watch for the 408 (and the close that follows it).
        self._register(_READ)
        self._pace()

    def on_readable(self) -> None:
        assert self.sock is not None
        data = self.sock.recv(4096)
        if not data:
            self._broken()
        elif not self._saw_408 and b" 408 " in data:
            self._saw_408 = True
            self.result.rejected_408 += 1

    def _step(self) -> bool:
        assert self.sock is not None
        chunk = self._send_buffer[: self.generator.dribble_bytes]
        if chunk:
            self._send_buffer = self._send_buffer[self.sock.send(chunk):]
        return True


class _SlowReader(_SlowClient):
    """A stalled reader: shrinks its receive buffer, sends one complete
    GET from the workload, then drains the response at only
    ``dribble_bytes`` per interval — far slower than the server sends, so
    the server's transmit stalls.  A hardened server reaps it when its
    write-stall budget expires; the client counts the close and
    reconnects."""

    #: A tiny receive buffer makes the kernel push back on the server's
    #: send almost immediately, so the stall is visible even for moderate
    #: response sizes.
    RCVBUF = 4096

    def _begin(self) -> None:
        self._send_buffer = self.generator.request_bytes(self.generator.next_path())
        # Send the complete request as soon as the connect finishes, then
        # switch to timer-paced dribble reads.
        self._register(_WRITE)

    def _sent(self) -> None:
        # Request fully sent: stop listening (a genuinely stalled reader
        # ignores readability) and start the slow drain.
        self._unregister()
        self._pace()

    def _step(self) -> bool:
        assert self.sock is not None
        # recv alone would hide an abortive reap for minutes: the kernel
        # serves the already-buffered bytes before surfacing the reset,
        # and at this drain rate the buffer lasts ages.  SO_ERROR reports
        # the pending reset immediately.
        if self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
            return False
        return self.sock.recv(self.generator.dribble_bytes) != b""


class _FloodClient(_Client):
    """A connection flooder attached alongside the real load.

    Models the overload attack the admission-control benchmarks defend
    against: each flooder opens a connection and then simply *holds* it,
    consuming one of the server's connection slots (and a file
    descriptor) while contributing no requests.  An admission-controlled
    server above its high watermark answers ``503 Retry-After`` and
    closes; the flooder counts the 503 (``rejected_503``) and the close
    (``reaped``), waits one ``dribble_interval``, and floods again.  An
    *unprotected* server silently accumulates the held connections until
    its fd limit — which is exactly the contrast the chaos figure plots.

    Flood clients never complete requests; their job is to drive the
    server into (and hold it at) its admission limit so the run shows
    whether well-behaved clients still get served.
    """

    def _begin(self) -> None:
        self._saw_503 = False
        # Hold the connection and watch for the server's verdict: either
        # a 503 + close (admission shedding) or a bare close (fd guard).
        self._register(_READ)

    def _refused(self) -> None:
        # Connect refused outright (listen queue gone, fd pressure on our
        # own side, ...): pace the retry so a dead server does not turn
        # the flooder into a busy loop.
        self.result.errors += 1
        self.generator.schedule_call(self.generator.dribble_interval, self.start)

    def on_readable(self) -> None:
        assert self.sock is not None
        data = self.sock.recv(4096)
        if not data:
            self._broken()
        elif not self._saw_503 and b" 503 " in data:
            self._saw_503 = True
            self.result.rejected_503 += 1

    def _broken(self) -> None:
        """The server ended the held connection: count it, flood again."""
        self.result.reaped += 1
        self._close()
        self.generator.schedule_call(self.generator.dribble_interval, self.start)


class _SSEClient(_Client):
    """A mostly-idle Server-Sent Events subscriber alongside the real load.

    Subscribes to the server's event-stream endpoint once and then just
    listens: de-chunks the response, splits the event stream on blank
    lines, and counts every block carrying a ``data:`` field
    (``sse_events``) — validating the framing end to end while holding a
    mostly-idle connection, the load shape the fig14 streaming benchmark
    measures static latency against.  SSE subscribers never contribute to
    ``requests_completed``; a server-side close ends the subscription for
    the rest of the run.
    """

    def _begin(self) -> None:
        host = "%s:%d" % self.generator.address
        self._send_buffer = (
            f"GET {self.generator.sse_path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Accept: text/event-stream\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        ).encode("latin-1")
        self._recv_buffer = bytearray()
        self._event_buffer = bytearray()
        #: Whether the stream is chunked; ``None`` until the head arrived.
        self._chunked: Optional[bool] = None
        self._register(_WRITE)

    def on_readable(self) -> None:
        assert self.sock is not None
        while True:
            data = self.sock.recv(65536)
            if not data:
                self._broken()
                return
            self.result.bytes_received += len(data)
            self._recv_buffer.extend(data)
            if self._chunked is None:
                parsed = parse_head(self._recv_buffer)
                if parsed is None:
                    continue
                head, body_start = parsed
                if head.status != 200:
                    # No event stream here (endpoint disabled, or a shed):
                    # that is an error for a subscriber.
                    self.result.errors += 1
                    self._broken()
                    return
                del self._recv_buffer[:body_start]
                self._chunked = head.chunked
            self._consume_events()

    def _consume_events(self) -> None:
        if self._chunked:
            try:
                consumed, payload, _ = walk_chunks(self._recv_buffer, 0)
            except ValueError:
                # Unparseable framing: an error, then ``_broken`` via on_ready.
                self.result.errors += 1
                raise
        else:
            consumed, payload = len(self._recv_buffer), bytes(self._recv_buffer)
        del self._recv_buffer[:consumed]
        if not payload:
            return
        self._event_buffer.extend(payload)
        # Complete SSE blocks end with a blank line; the last split element
        # is the still-incomplete tail.  Comment-only blocks (the stream
        # preamble) carry no data: field and are not events.
        *blocks, tail = bytes(self._event_buffer).split(b"\n\n")
        self._event_buffer = bytearray(tail)
        for block in blocks:
            if any(line.startswith(b"data:") for line in block.split(b"\n")):
                self.result.sse_events += 1

    def _broken(self) -> None:
        """The server ended the subscription (drain, reap, or disconnect
        policy): the idle subscriber does not resubscribe."""
        self._close()
        self.state = DONE


class LoadGenerator:
    """Drives a server with ``num_clients`` concurrent simulated clients.

    Parameters
    ----------
    address:
        ``(host, port)`` of the server under test.
    paths:
        The workload: a callable returning the next request path, an
        iterable of paths (cycled), or a single path string.
    num_clients:
        Number of concurrent simulated clients.
    keep_alive:
        Use persistent connections (one connection, many requests) — the
        mechanism the paper uses to emulate long-lived WAN connections.
    duration:
        Stop after this many seconds of wall-clock time.
    max_requests:
        Stop after this many completed requests (whichever limit is first).
    think_time:
        Idle delay a client waits between completing a response and issuing
        its next request; non-zero values emulate slow (WAN) clients.
    range_fraction:
        Fraction of requests issued as single-range GETs
        (``Range: bytes=<range_spec>``), interleaved deterministically
        (error diffusion, so a 0.25 mix is exactly every 4th request) —
        the knob the range-ablation benchmarks turn.  0 disables.
    range_spec:
        The byte range requested by ranged requests (default the first KB,
        the shape a segment fetcher or resumed download probes with).
    conditional_fraction:
        Fraction of requests issued as conditional revalidations
        (``If-None-Match`` replaying the ``ETag`` captured from an earlier
        response for the same path), interleaved with the same
        error-diffusion determinism as ``range_fraction`` — the
        CDN-revalidation mix the fig11-conditional ablation drives.  A
        path whose validator has not been captured yet is fetched
        unconditionally (and captures it for the next slot).  304s are
        counted separately from 200s in the results.
    slow_writers / slow_readers:
        Number of deliberately misbehaving clients attached *alongside*
        the ``num_clients`` real ones: slowloris writers dribbling an
        incomplete request head, and stalled readers draining a response
        slower than the server sends it (see :class:`_SlowClient`).  They
        complete no requests; the run's ``reaped``/``rejected_408``
        counters report how the server dealt with them.
    flood_connections:
        Number of connection-flood clients attached alongside the real
        load: each opens a connection and holds it without sending until
        the server sheds it (503 + close above the admission watermark,
        or a bare close from the fd-exhaustion guard), then floods again
        after one ``dribble_interval`` (see :class:`_FloodClient`).  The
        overload half of the chaos benchmarks.
    retry_backoff:
        Closed-loop delay before a well-behaved client retries a request
        the server shed with 503 (``Retry-After`` is deliberately not
        honoured verbatim: benchmark runs are seconds long, so retries
        use this much shorter pause to keep pressure on the server).
    retry_resets:
        Chaos mode for closed-loop runs: a connection reset mid-exchange
        (the shard serving it was killed) is retried after
        ``retry_backoff`` and counted in ``connection_resets`` rather than
        recorded as a hard error — the behaviour of a well-behaved client
        retrying an idempotent GET.  Open-loop runs ignore this (a retry
        would inflate the offered load past the arrival schedule).
    dribble_bytes / dribble_interval:
        The misbehaving clients' byte rate: ``dribble_bytes`` moved every
        ``dribble_interval`` seconds.
    arrival_rate:
        Switches the generator to **open-loop** mode: requests are issued
        on a deterministic seeded Poisson schedule at this many
        requests/second, independent of how fast the server answers.
        ``num_clients`` becomes the connection-pool bound (the maximum
        concurrency); arrivals that find no idle connection queue in a
        backlog, and the time they wait there is reported as dispatch
        lateness and counted into response latency — so an overloaded
        server shows up as growing queueing delay rather than silently
        throttled offered load (the failure mode closed-loop clients
        hide).  ``None`` (default) keeps the paper's closed-loop behaviour.
    seed:
        Seed for the open-loop arrival schedule.  The same ``(seed,
        arrival_rate)`` pair reproduces the identical schedule run-to-run;
        multi-worker runs derive per-worker seeds via
        :func:`repro.client.latency.derive_worker_seed`.
    """

    def __init__(
        self,
        address: tuple[str, int],
        paths,
        *,
        num_clients: int = 8,
        keep_alive: bool = True,
        duration: Optional[float] = None,
        max_requests: Optional[int] = None,
        think_time: float = 0.0,
        range_fraction: float = 0.0,
        range_spec: str = "0-1023",
        conditional_fraction: float = 0.0,
        slow_writers: int = 0,
        slow_readers: int = 0,
        flood_connections: int = 0,
        sse_clients: int = 0,
        sse_path: str = "/sse",
        chunked_fraction: float = 0.0,
        chunked_path: str = "/cgi-bin/stream",
        retry_backoff: float = 0.05,
        retry_resets: bool = False,
        dribble_bytes: int = 1,
        dribble_interval: float = 0.5,
        arrival_rate: Optional[float] = None,
        seed: int = 0,
    ):
        if duration is None and max_requests is None:
            raise ValueError("specify duration, max_requests or both")
        if not 0.0 <= range_fraction <= 1.0:
            raise ValueError("range_fraction must be between 0 and 1")
        if not 0.0 <= conditional_fraction <= 1.0:
            raise ValueError("conditional_fraction must be between 0 and 1")
        if not 0.0 <= chunked_fraction <= 1.0:
            raise ValueError("chunked_fraction must be between 0 and 1")
        if arrival_rate is not None and arrival_rate <= 0.0:
            raise ValueError("arrival_rate must be positive (or None for closed loop)")
        if arrival_rate is not None and think_time > 0.0:
            raise ValueError("think_time is a closed-loop knob; open loop paces by schedule")
        self.address = address
        self.num_clients = num_clients
        self.keep_alive = keep_alive
        self.duration = duration
        self.max_requests = max_requests
        self.think_time = think_time
        self.range_fraction = range_fraction
        self.range_spec = range_spec
        self.conditional_fraction = conditional_fraction
        self.slow_writers = slow_writers
        self.slow_readers = slow_readers
        self.flood_connections = flood_connections
        self.sse_clients = sse_clients
        self.sse_path = sse_path
        self.chunked_fraction = chunked_fraction
        self.chunked_path = chunked_path
        self._chunked_debt = 0.0
        self.retry_backoff = max(0.0, retry_backoff)
        self.retry_resets = retry_resets
        self.dribble_bytes = max(1, dribble_bytes)
        self.dribble_interval = max(0.001, dribble_interval)
        self.arrival_rate = arrival_rate
        self.seed = seed
        self.open_loop = arrival_rate is not None
        self._range_debt = 0.0
        self._conditional_debt = 0.0
        self._etags: dict[str, str] = {}
        self._next_path = self._make_path_source(paths)
        self._request_cache: dict[tuple[str, bool, Optional[str]], bytes] = {}
        #: Opened by :meth:`run`, so a generator that never runs holds no
        #: descriptor.
        self.selector: Optional[selectors.BaseSelector] = None
        self.total_requests = 0
        #: Requests sent (or being sent) and not yet answered, shed or failed.
        self.in_flight = 0
        self.latency = LatencyHistogram()
        self.dispatched = 0
        self.lateness_sum = 0.0
        self.lateness_max = 0.0
        self.max_backlog = 0
        self._backlog: deque[float] = deque()
        self._idle: list[_SimClient] = []
        self._arrivals = (
            exponential_arrivals(arrival_rate, seed) if self.open_loop else None
        )
        self._next_arrival: Optional[float] = None
        self._start_time = 0.0
        self._deadline: Optional[float] = None
        self._timers: list[tuple[float, Callable[[], None]]] = []

    @staticmethod
    def _make_path_source(paths) -> Callable[[], str]:
        if callable(paths):
            return paths
        if isinstance(paths, str):
            return lambda: paths
        if isinstance(paths, Iterable):
            items = list(paths)
            if not items:
                raise ValueError("paths iterable is empty")
            state = {"index": 0}

            def cycle() -> str:
                value = items[state["index"] % len(items)]
                state["index"] += 1
                return value

            return cycle
        raise TypeError("paths must be a callable, a string or an iterable of strings")

    def next_path(self) -> str:
        """The next request path for whichever client asks."""
        return self._next_path()

    def next_is_conditional(self) -> bool:
        """Whether the next request should be a conditional revalidation.

        Error diffusion on :attr:`conditional_fraction`: deterministic (the
        benchmarks need repeatable mixes without an RNG) and exact over any
        window — a 0.25 mix revalidates precisely every 4th request.
        """
        if self.conditional_fraction <= 0.0:
            return False
        self._conditional_debt += self.conditional_fraction
        if self._conditional_debt >= 1.0:
            self._conditional_debt -= 1.0
            return True
        return False

    def next_request_shape(self) -> str:
        """Decide the next request's shape: conditional, ranged, chunked or plain.

        Each mix runs the error diffusion of :meth:`next_is_conditional`
        on its own accumulator.  A request carries at most one special
        header, so when both mixes are active their slots must not
        collide.  The conditional
        accumulator wins a collision, but the range accumulator still
        *advances* on every request and simply carries its debt to the
        next free slot — both fractions therefore converge to their exact
        shares (within one startup slot) as long as they sum to at most 1;
        beyond that, ranged requests fill whatever slots revalidations
        leave, with the carry capped so the debt cannot grow without
        bound.
        """
        conditional = self.next_is_conditional()
        if self.range_fraction > 0.0:
            self._range_debt += self.range_fraction
            if not conditional and self._range_debt >= 1.0:
                self._range_debt -= 1.0
                return "ranged"
            self._range_debt = min(self._range_debt, 2.0)
        if self.chunked_fraction > 0.0:
            # Chunked-mix slots ride the same error-diffusion scheme on a
            # third accumulator, yielding to conditional (and to ranged via
            # slot order) exactly like ranged yields to conditional.
            self._chunked_debt += self.chunked_fraction
            if not conditional and self._chunked_debt >= 1.0:
                self._chunked_debt -= 1.0
                return "chunked"
            self._chunked_debt = min(self._chunked_debt, 2.0)
        return "conditional" if conditional else "plain"

    def record_etag(self, path: str, etag: str) -> None:
        """Remember the validator a response for ``path`` advertised."""
        if etag:
            self._etags[path] = etag

    def captured_etag(self, path: str) -> Optional[str]:
        """The last ``ETag`` seen for ``path``, if any response carried one."""
        return self._etags.get(path)

    def request_bytes(
        self, path: str, ranged: bool = False, etag: Optional[str] = None
    ) -> bytes:
        """The encoded request for ``path``, composed once per distinct shape.

        The client side of the paper's setup must stay far cheaper than the
        server side it measures; re-encoding an identical request for every
        send would put avoidable per-request allocation work on the
        load-generating core.  Ranged, conditional (one entry per replayed
        validator) and plain requests cache separately.
        """
        cached = self._request_cache.get((path, ranged, etag))
        if cached is None:
            connection = "keep-alive" if self.keep_alive else "close"
            host = "%s:%d" % self.address
            range_line = f"Range: bytes={self.range_spec}\r\n" if ranged else ""
            conditional_line = f"If-None-Match: {etag}\r\n" if etag else ""
            cached = (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                f"{range_line}"
                f"{conditional_line}"
                f"Connection: {connection}\r\n"
                "\r\n"
            ).encode("latin-1")
            self._request_cache[(path, ranged, etag)] = cached
        return cached

    def finished(self) -> bool:
        """Whether the run's duration or request budget is exhausted."""
        if self.max_requests is not None and self.total_requests >= self.max_requests:
            return True
        if self._deadline is not None and time.monotonic() >= self._deadline:
            return True
        return False

    def can_issue(self) -> bool:
        """Whether another request may go on the wire.

        Requests in flight count against ``max_requests``, so the run never
        sends past its budget: the server answers exactly the requests the
        generator reads (a failed one frees its slot for a replacement).
        """
        if self.max_requests is not None:
            if self.total_requests + self.in_flight >= self.max_requests:
                return False
        return not self.finished()

    def schedule_call(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` seconds of loop time, unless the
        run has finished by then.

        The one timer: think-time restarts, retry back-offs, reflooding and
        the misbehaving clients' dribbles all go through it.
        """
        self._timers.append((time.monotonic() + delay, callback))

    # -- open-loop dispatching ---------------------------------------------------

    def client_idle(self, client: _SimClient) -> None:
        """An open-loop client finished (or failed) its request.

        Hand it the oldest backlogged arrival immediately, or park it in
        the idle pool.  Parked clients with a live keep-alive connection
        stay registered for readability so a server-side close is noticed
        while they wait.
        """
        if self._backlog and self.can_issue():
            self._dispatch(client, self._backlog.popleft())
            return
        client.state = IDLE
        self._idle.append(client)
        if client.sock is not None:
            client._register(_READ)

    def _dispatch(self, client: _SimClient, scheduled: float) -> None:
        now = time.monotonic()
        lateness = max(0.0, now - scheduled)
        self.dispatched += 1
        self.lateness_sum += lateness
        if lateness > self.lateness_max:
            self.lateness_max = lateness
        client.dispatch(scheduled)

    def _pump_open_loop(self) -> None:
        """Move due arrivals into the backlog and the backlog onto idle clients."""
        now = time.monotonic()
        assert self._arrivals is not None
        if self._next_arrival is None:
            self._next_arrival = self._start_time + next(self._arrivals)
        while self._next_arrival <= now:
            self._backlog.append(self._next_arrival)
            self._next_arrival = self._start_time + next(self._arrivals)
        if len(self._backlog) > self.max_backlog:
            self.max_backlog = len(self._backlog)
        while self._backlog and self._idle and self.can_issue():
            client = self._idle.pop()
            client._unregister()
            self._dispatch(client, self._backlog.popleft())

    def _poll_timeout(self) -> float:
        timeout = 0.05
        if self.open_loop and self._next_arrival is not None and not self._backlog:
            timeout = min(timeout, max(0.0, self._next_arrival - time.monotonic()))
        return timeout

    def run(self) -> LoadResult:
        """Run the load and return aggregate results."""
        start = time.monotonic()
        self._start_time = start
        if self.duration is not None:
            self._deadline = start + self.duration
        self.selector = selectors.DefaultSelector()
        clients = [_SimClient(self) for _ in range(self.num_clients)]
        others: list[_Client] = [
            *(_SlowWriter(self) for _ in range(self.slow_writers)),
            *(_SlowReader(self) for _ in range(self.slow_readers)),
            *(_FloodClient(self) for _ in range(self.flood_connections)),
            *(_SSEClient(self) for _ in range(self.sse_clients)),
        ]
        everyone = clients + others
        if self.open_loop:
            # Clients start parked; the arrival schedule decides when each
            # first connects.
            for client in clients:
                client.state = IDLE
                self._idle.append(client)
            for client in others:
                client.start()
        else:
            for client in everyone:
                client.start()

        while not self.finished():
            self._fire_timers()
            if self.open_loop:
                self._pump_open_loop()
            active = any(client.state != DONE for client in everyone)
            if not active and not self._timers:
                break
            events = self.selector.select(timeout=self._poll_timeout())
            for key, mask in events:
                key.data.on_ready(mask)

        for client in everyone:
            client._close()
        self.selector.close()
        elapsed = time.monotonic() - start

        result = LoadResult(
            elapsed=elapsed,
            per_client=[c.result for c in everyone],
            latency=self.latency,
            dispatched=self.dispatched,
            lateness_sum=self.lateness_sum,
            lateness_max=self.lateness_max,
            max_backlog=self.max_backlog,
        )
        add_counters(result, result.per_client)
        return result

    def _fire_timers(self) -> None:
        now = time.monotonic()
        due = [callback for when, callback in self._timers if when <= now]
        if due:
            self._timers = [item for item in self._timers if item[0] > now]
            for callback in due:
                if not self.finished():
                    callback()
