"""Blocking per-connection handler shared by the MP and MT builds.

In the MP and MT architectures a worker (process or thread) executes the
basic request-processing steps *sequentially* for one connection at a time:
read the request, find the file, send the response header, then the data,
possibly looping for keep-alive.  Overlap between connections comes from the
operating system scheduling other workers whenever this one blocks.

The handler is a transport: every per-request decision is made by
:mod:`repro.core.exchange`, the same functions the event-driven builds'
``Connection`` calls — so the only difference between architectures is the
concurrency strategy, per the paper's methodology.  What lives here is the
I/O: reading a request head under its deadlines, and :func:`_drive`, which
steps whatever sender the exchange produced until it is done.

The slow-client deadlines the event-driven builds arm on their timer wheel
are honoured here with phase-based socket timeouts driven by the same
configuration knobs:

* waiting for a keep-alive follow-up request uses ``idle_timeout`` (expiry
  closes silently);
* once the first byte of a request head has arrived, an *absolute*
  ``header_timeout`` budget applies — each ``recv`` gets the remaining
  budget, so a slowloris client dribbling single bytes cannot extend it —
  and expiry answers ``408 Request Timeout``;
* transmission runs under ``write_stall_timeout``: every response, static
  or streamed, goes through a shared sender, and :func:`_drive` waits for
  buffer space at most that long whenever a step moves no byte
  (progress-based, as in the event-driven builds) and closes on expiry.

``<= 0`` disables the corresponding deadline, exactly as in the
event-driven builds.

:func:`serve_connections` is the accept loop around the handler, shared by
the MT worker threads and the MP worker processes.
"""

from __future__ import annotations

import errno
import select
import socket
import time
from typing import Callable, Optional

from repro.cgi.runner import CGIRunner
from repro.core import exchange
from repro.core.admission import (
    ACCEPT_BACKOFF_INITIAL,
    ACCEPT_BACKOFF_MAX,
    ACCEPT_RESOURCE,
    ACCEPT_TRANSIENT,
    AdmissionController,
    classify_accept_error,
)
from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore, StaticContent
from repro.core.send_path import reset_on_close
from repro.core.sse import SSEHub
from repro.core.streaming import IterableSource
from repro.http.errors import HTTPError
from repro.http.request import RequestParser
from repro.testing.faults import faults

#: While a ``drain_check`` is supplied, waits that no peer progress ends (an
#: idle keep-alive connection, an event stream with nothing to say) poll in
#: quanta of this many seconds so a blocking worker notices a drain
#: promptly instead of after a full ``idle_timeout``.
DRAIN_POLL_INTERVAL = 0.2


def handle_client(
    sock: socket.socket,
    store: ContentStore,
    config: ServerConfig,
    cgi_runner: Optional[CGIRunner] = None,
    max_requests: Optional[int] = None,
    drain_check: Optional[Callable[[], bool]] = None,
    sse_hub: Optional[SSEHub] = None,
) -> int:
    """Serve one client connection to completion with blocking I/O.

    Returns the number of requests served on the connection.  The socket is
    always closed before returning.  Exceptions from client misbehaviour are
    converted into HTTP error responses; unexpected internal errors close
    the connection after a 500.

    ``drain_check`` is the MT/MP drain hook: while it returns True the
    connection winds down gracefully — the response to the last buffered
    request carries ``Connection: close`` (buffered pipelined requests
    still complete first), and an idle keep-alive wait returns immediately
    instead of sitting out its idle budget.
    """
    served = 0
    with store.stats_lock():
        store.stats.connections_accepted += 1
    header_timeout = config.header_timeout
    # ``None`` puts the socket in plain blocking mode: deadline disabled.
    idle_timeout = config.idle_timeout if config.idle_timeout > 0 else None
    write_timeout = config.write_stall_timeout if config.write_stall_timeout > 0 else None
    try:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        leftover = b""
        while True:
            parser = RequestParser(max_header_bytes=config.max_header_bytes)
            try:
                complete = parser.feed(leftover) if leftover else False
                # The header budget is absolute — from the start of header
                # reading (accept, buffered pipelined bytes, or the first
                # byte after a keep-alive idle wait) to a complete head.
                # Each recv gets the *remaining* budget, so a client
                # dribbling one byte per interval cannot extend it.
                reading_head = bool(leftover) or served == 0
                header_deadline = (
                    time.monotonic() + header_timeout
                    if reading_head and header_timeout > 0
                    else None
                )
                idle_deadline = (
                    time.monotonic() + idle_timeout
                    if not reading_head and idle_timeout is not None
                    else None
                )
                while not complete:
                    if not reading_head:
                        # Between keep-alive exchanges: the idle budget
                        # applies until the next request's first byte.
                        # With a drain hook the wait polls in short quanta
                        # so a draining worker closes its idle connections
                        # promptly — an idle peer is owed nothing.
                        if drain_check is not None and drain_check():
                            return served
                        wait = (
                            None
                            if idle_deadline is None
                            else idle_deadline - time.monotonic()
                        )
                        if wait is not None and wait <= 0:
                            with store.stats_lock():
                                store.stats.timeouts_idle += 1
                            return served
                        if drain_check is not None:
                            wait = (
                                DRAIN_POLL_INTERVAL
                                if wait is None
                                else min(wait, DRAIN_POLL_INTERVAL)
                            )
                        sock.settimeout(wait)
                        try:
                            data = sock.recv(config.socket_io_size)
                        except socket.timeout:
                            # A poll quantum or the idle budget expired:
                            # the top of the loop tells which.
                            continue
                        if not data:
                            return served
                        reading_head = True
                        if header_timeout > 0:
                            header_deadline = time.monotonic() + header_timeout
                        complete = parser.feed(data)
                        continue
                    remaining = None
                    if header_deadline is not None:
                        remaining = header_deadline - time.monotonic()
                        if remaining <= 0:
                            raise socket.timeout("request header timeout")
                    sock.settimeout(remaining)
                    data = sock.recv(config.socket_io_size)
                    if not data:
                        return served
                    complete = parser.feed(data)
                request, failure = parser.request, None
            except HTTPError as exc:
                request, failure = None, exc
            except socket.timeout:
                # Mid-parse expiry: the partial head is answered 408, like
                # the event-driven builds' header-deadline expiry.
                with store.stats_lock():
                    store.stats.timeouts_header += 1
                request, failure = None, HTTPError("request header timeout", status=408)
            except OSError:
                # The peer reset the connection while a head was being
                # read: a closed connection, not a reason to unwind the
                # worker that serves everyone else.
                return served

            # A request that never parsed is answered and the connection
            # closed; one that did gets the shared keep-alive/drain rule.
            leftover = parser.remainder
            draining = drain_check is not None and drain_check()
            keep_alive = request is not None and exchange.disposition(
                request.keep_alive, config, draining, leftover
            )
            sender = content = None
            if failure is None:
                try:
                    sender, keep_alive, content = _plan(
                        store, config, request, keep_alive, cgi_runner, sse_hub
                    )
                except Exception as exc:  # noqa: BLE001 - answered: HTTPError as itself, anything else 500 + close
                    failure = exc
            if failure is not None:
                sender, keep_alive = exchange.failure_sender(store, failure, keep_alive)

            sock.settimeout(write_timeout)
            try:
                try:
                    _drive(sock, store, sender, drain_check)
                finally:
                    # After the sender (released by _drive): the buffered
                    # path holds memoryviews over the content's chunks.
                    if content is not None:
                        content.release(store)
            except socket.timeout:
                # No byte moved within the write-stall budget: reap the
                # stalled reader, abortively.
                with store.stats_lock():
                    store.stats.timeouts_write_stall += 1
                reset_on_close(sock)
                return served
            except OSError:
                # The peer went away mid-response, or the response came
                # up short of its promised length (see _drive).
                return served

            if failure is None or keep_alive:
                served += 1
            if not keep_alive or served == max_requests:
                return served
    finally:
        with store.stats_lock():
            store.stats.connections_closed += 1
        try:
            sock.close()
        except OSError:
            pass


def _plan(
    store: ContentStore,
    config: ServerConfig,
    request,
    keep_alive: bool,
    cgi_runner: Optional[CGIRunner],
    sse_hub: Optional[SSEHub],
) -> tuple[object, bool, Optional[StaticContent]]:
    """Decide the answer to ``request``, synchronously.

    Returns ``(sender, keep_alive, content)``: the sender to drive, the
    disposition after it, and the static response to release once it is
    out (if any).  Whatever this raises, ``exchange.failure_sender``
    answers.
    """
    route = exchange.route(store, config, request)
    if route is exchange.ROUTE_SSE:
        return exchange.sse_sender(store, sse_hub, request), False, None
    if route is exchange.ROUTE_CGI:
        if cgi_runner is None:
            raise HTTPError("dynamic content disabled", status=503)
        body = cgi_runner.run(request)
        if not isinstance(body, (bytes, bytearray, memoryview)):
            # Streaming application: each pull blocks this worker until
            # the program produces, through the bounded queue that paces
            # the application (see repro.cgi.runner).
            body = IterableSource(body)
        sender, keep_alive = exchange.cgi_sender(store, request, body, keep_alive)
        return sender, keep_alive, None
    # Workers transmit hot hits unconditionally, like SPED: they run no
    # residency test — a cold page simply blocks this worker, which is
    # exactly their concurrency model.
    content = exchange.hot_consult(store, config, request, keep_alive)
    if content is None:
        content = exchange.static_miss(store, config, request, keep_alive)
    return exchange.static_sender(store, config, content), keep_alive, content


def _drive(
    sock: socket.socket,
    store: ContentStore,
    sender,
    drain_check: Optional[Callable[[], bool]] = None,
) -> None:
    """Step any sender until it is done, then release it.

    The blocking driver of the send-state contract: the same senders the
    event-driven builds step from their loop (:class:`SendPath`,
    :class:`StreamingSendPath`), stepped here.  ``sock.settimeout`` leaves
    the descriptor non-blocking, so a full send buffer ends a step early;
    a step that moved nothing waits for writability, bounded by the socket
    timeout (the write-stall budget: ``socket.timeout`` on expiry).
    ``sendfile`` is driven with explicit offsets and never seeks, so MT
    workers can serve the same cached descriptor concurrently.

    A stream whose source has run dry (an SSE subscriber with no event
    yet) is not a stalled reader and owes no write budget: the worker
    blocks in the source's ``wait`` instead, in quanta of
    ``DRAIN_POLL_INTERVAL`` so that it notices a drain (ends the stream
    gracefully) and a departed peer (EOF on a peek) promptly.

    A response that came up short of what its header promised (the file
    shrank underneath us, a producer failed mid-stream) raises
    ``ConnectionError``: the connection must die — continuing would
    desynchronize the client's HTTP framing.
    """
    try:
        while not sender.done:
            sent = sender.send(sock)
            if sent:
                with store.stats_lock():
                    store.stats.bytes_sent += sent
            elif sender.done:
                break
            elif getattr(sender, "waiting_on_source", False):
                if drain_check is not None and drain_check():
                    # Graceful drain: queued backlog still delivers, then
                    # the sender sees END_OF_STREAM and sends the terminator.
                    sender.source.end_stream()
                elif not sender.source.wait(DRAIN_POLL_INTERVAL):
                    readable, _, _ = select.select([sock], [], [], 0)
                    if readable and not sock.recv(1, socket.MSG_PEEK):
                        return
            else:
                _, writable, _ = select.select([], [sock], [], sock.gettimeout())
                if not writable:
                    raise socket.timeout("timed out waiting for send-buffer space")
        if sender.under_delivered:
            raise ConnectionError("response ended short of its promised length")
    finally:
        sender.release()


def _send_static(
    sock: socket.socket, store: ContentStore, config: ServerConfig, content: StaticContent
) -> None:
    """Transmit one static response the way a worker does, start to finish."""
    _drive(sock, store, exchange.static_sender(store, config, content))


def serve_connections(
    listen_sock: socket.socket,
    store: ContentStore,
    config: ServerConfig,
    cgi_runner: CGIRunner,
    sse_hub: Optional[SSEHub],
    admission: AdmissionController,
    open_connections,
    stop_event,
    drain_event,
) -> None:
    """Accept and serve connections one at a time until shutdown or drain.

    The body of an MT worker thread and of an MP worker process.  The two
    differ in what ``open_connections`` counts with — ``count()``,
    ``enter(sock)`` and ``leave(sock)`` over a locked set of sockets (MT)
    or a cross-process shared integer (MP) — which backs the admission
    bound either way.  The listener carries a short accept timeout so the
    loop notices ``stop_event``/``drain_event`` without needing signals.
    """
    backoff = ACCEPT_BACKOFF_INITIAL
    while not stop_event.is_set() and not drain_event.is_set():
        try:
            if faults.take("accept_emfile"):
                raise OSError(errno.EMFILE, "injected fd exhaustion")
            client_sock, _address = listen_sock.accept()
        except socket.timeout:
            continue
        except OSError as exc:
            kind = classify_accept_error(exc)
            if kind == ACCEPT_TRANSIENT:
                # The arrival aborted (or a signal landed): the next one
                # may be fine, retry immediately.
                continue
            if kind == ACCEPT_RESOURCE:
                # Out of descriptors (or buffers): retrying immediately
                # cannot succeed and used to busy-spin the worker (or end
                # it).  Shed one backlogged arrival through the sentinel
                # reserve, then back off exponentially (woken early by
                # shutdown) until something drains.
                with store.stats_lock():
                    store.stats.fd_exhaustion_events += 1
                admission.shed_one_pending(listen_sock)
                stop_event.wait(backoff)
                backoff = min(backoff * 2, ACCEPT_BACKOFF_MAX)
                continue
            # Fatal (EBADF and friends): the listener is gone, which is
            # the normal shutdown race — this worker is done.
            return
        backoff = ACCEPT_BACKOFF_INITIAL
        if not admission.admit(open_connections.count()):
            with store.stats_lock():
                store.stats.connections_accepted += 1
                store.stats.connections_shed += 1
            admission.shed(client_sock)
            continue
        open_connections.enter(client_sock)
        try:
            handle_client(
                client_sock,
                store,
                config,
                cgi_runner,
                drain_check=drain_event.is_set,
                sse_hub=sse_hub,
            )
        finally:
            open_connections.leave(client_sock)
