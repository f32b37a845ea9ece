"""Blocking per-connection handler and worker pool shared by the MP and MT builds.

In the MP and MT architectures a worker (process or thread) executes the
basic request-processing steps *sequentially* for one connection at a time:
read the request, find the file, send the response header, then the data,
possibly looping for keep-alive.  Overlap between connections comes from the
operating system scheduling other workers whenever this one blocks.

The handler is a transport: parsing, deadlines and keep-alive are a
:class:`~repro.core.session.Session`'s (``core/session.py``) and every
per-request decision is :mod:`repro.core.exchange`'s — what the
event-driven ``Connection`` drives too, so the architectures differ only in
concurrency, per the paper's methodology.  What lives here is the I/O:
``recv`` under a socket timeout set to the session's remaining deadline,
and :func:`_drive`, which steps the sender until it is done.  Answers are
planned into one output queue while the session's hold rule says so, and
the queue is driven out once: a pipelined burst of buffered answers leaves
in one vectored write, as it does from the event-driven builds.

:func:`serve_connections` is the accept loop around the handler, shared by
the MT worker threads and the MP worker processes, and :class:`WorkerPool`
is the server lifecycle around those workers — start, ``run_forever``,
drain, stop and close, written once; ``servers/mt.py`` and
``servers/mp.py`` supply only what differs between threads and processes.
"""

from __future__ import annotations

import logging
import select
import socket
import time
from typing import Callable, Optional

from repro.cgi.runner import CGIRunner
from repro.core import exchange
from repro.core.admission import (
    ACCEPT_BACKOFF_INITIAL,
    ACCEPT_BACKOFF_MAX,
    ACCEPT_FATAL,
    ACCEPT_RESOURCE,
    ACCEPTED,
    AdmissionController,
    accept_connection,
)
from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore, StaticContent
from repro.core.send_path import peek_peer, reset_on_close
from repro.core.server import ListeningServer, wait_for_shutdown
from repro.core.session import ANSWER_408, CLOSE, NEXT, Session
from repro.core.sse import SSEHub
from repro.core.streaming import IterableSource
from repro.http.errors import HTTPError

logger = logging.getLogger(__name__)

#: While a ``drain_check`` is supplied, waits that no peer progress ends (an
#: idle keep-alive connection, an event stream with nothing to say) poll in
#: quanta of this many seconds so a blocking worker notices a drain
#: promptly instead of after a full idle budget.
DRAIN_POLL_INTERVAL = 0.2

#: How long :meth:`WorkerPool.stop` lets workers wind down by themselves
#: before forcing the stragglers: a worker blocked in ``accept`` exits within
#: milliseconds (an MP worker reports its counters on the way out), and a
#: response in mid-write may finish.  An idle keep-alive connection, which
#: would take up to ``DRAIN_POLL_INTERVAL``, is forced.
STOP_GRACE = 0.1


def handle_client(
    sock: socket.socket,
    store: ContentStore,
    config: ServerConfig,
    cgi_runner: Optional[CGIRunner] = None,
    drain_check: Optional[Callable[[], bool]] = None,
    sse_hub: Optional[SSEHub] = None,
) -> int:
    """Serve one client connection to completion with blocking I/O.

    Returns the number of exchanges finished on the connection (error
    answers included).  The socket is always closed before returning.
    Exceptions from client misbehaviour are converted into HTTP error
    responses; unexpected internal errors close the connection after a 500.

    ``drain_check`` is the MT/MP drain hook: while it returns True the
    connection winds down gracefully — the response to the last buffered
    request carries ``Connection: close`` (buffered pipelined requests
    still complete first), and an idle keep-alive wait returns immediately
    instead of sitting out its idle budget.
    """
    session = Session(config, time.monotonic())
    queue = None
    try:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        step = None
        while True:
            try:
                complete = step is NEXT and session.feed_buffered()
                if not complete and queue is not None:
                    # Only a partial head is left: what is queued goes first.
                    if not _transmit(sock, store, session, queue, drain_check):
                        return session.served
                    queue = None
                while not complete:
                    wait = session.remaining(time.monotonic())
                    if session.idle and drain_check is not None:
                        # An idle peer is owed nothing: a draining worker
                        # closes it now, and the wait polls in short quanta
                        # so the drain is noticed promptly.
                        if drain_check():
                            return session.served
                        if wait is None or wait > DRAIN_POLL_INTERVAL:
                            wait = DRAIN_POLL_INTERVAL
                    if wait is not None and wait <= 0:
                        if session.expire(store) is not ANSWER_408:
                            return session.served
                        raise HTTPError("request header timeout", status=408)
                    sock.settimeout(wait)
                    try:
                        data = sock.recv(config.socket_io_size)
                    except socket.timeout:
                        continue  # a poll quantum or the deadline: see above
                    if not data:
                        return session.served
                    complete = session.received(data, time.monotonic())
                request, failure = session.parser.request, None
            except HTTPError as exc:
                # A head that never parsed (or timed out): answered, closed.
                request, failure = None, exc
            except OSError:
                # The peer reset the connection while a head was being
                # read: a closed connection, not a reason to unwind the
                # worker that serves everyone else.
                return session.served

            draining = drain_check is not None and drain_check()
            if failure is None:
                session.keep_alive = session.disposition(request.keep_alive, draining)
                try:
                    route = exchange.route(store, config, request)
                    if route is not exchange.ROUTE_STATIC and queue is not None:
                        # A program or a stream runs behind an empty queue.
                        if not _transmit(sock, store, session, queue, drain_check):
                            return session.served
                        queue = None
                    answer = _plan(store, config, request, route, session, cgi_runner, sse_hub)
                except Exception as exc:  # noqa: BLE001 - answered: HTTPError as itself, anything else 500 + close
                    failure = exc
            if failure is not None:
                answer, session.keep_alive = exchange.failure_sender(
                    store, failure, session.keep_alive
                )
            if queue is None:
                queue = answer
            else:
                queue.extend(answer)
            if session.hold(queue):
                step = NEXT
                continue
            if not _transmit(sock, store, session, queue, drain_check):
                return session.served
            queue = None
            step = session.finish(False, draining, time.monotonic())
            if step is CLOSE:
                return session.served
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
    route: str,
    session: Session,
    cgi_runner: Optional[CGIRunner],
    sse_hub: Optional[SSEHub],
):
    """Decide the answer to ``request`` on ``route``, synchronously.

    Returns the sender to queue (a static response is pinned to it); an
    answer that must close lowers ``session.keep_alive``.  Whatever this
    raises, ``exchange.failure_sender`` answers.
    """
    if route is exchange.ROUTE_SSE:
        session.keep_alive = False
        return exchange.sse_sender(store, sse_hub, request)
    if route is exchange.ROUTE_CGI:
        if cgi_runner is None:
            raise HTTPError("dynamic content disabled", status=503)
        body = cgi_runner.run(request)
        if not isinstance(body, (bytes, bytearray, memoryview)):
            # Streaming application: each pull blocks this worker until
            # the program produces, through the bounded queue that paces
            # the application (see repro.cgi.runner).
            body = IterableSource(body)
        sender, session.keep_alive = exchange.cgi_sender(store, request, body, session.keep_alive)
        return sender
    # Workers transmit hot hits unconditionally, like SPED: they run no
    # residency test — a cold page simply blocks this worker, which is
    # exactly their concurrency model.
    content = exchange.hot_consult(store, config, request, session.keep_alive)
    if content is None:
        content = exchange.static_miss(store, request, session.keep_alive)
    return exchange.static_sender(store, config, content).pin(content)


def _transmit(
    sock: socket.socket, store: ContentStore, session: Session, queue, drain_check
) -> bool:
    """Drive the queue out under the write budget (``_drive`` releases it,
    with every response queued in it); False when the connection is done."""
    now = time.monotonic()
    session.writing(now, False)
    # Each send waits for buffer space at most this long, and one that
    # returns moved bytes: the budget restarts on progress.
    sock.settimeout(session.remaining(now))
    try:
        _drive(sock, store, queue, drain_check)
    except socket.timeout:
        # No byte moved within the write budget: reap the stalled reader,
        # abortively.
        session.expire(store)
        reset_on_close(sock)
        return False
    except OSError:
        # The peer went away mid-response, or a response came up short of
        # its promised length (see _drive).
        return False
    session.drained(time.monotonic())
    return True


def _drive(
    sock: socket.socket,
    store: ContentStore,
    sender,
    drain_check: Optional[Callable[[], bool]] = None,
) -> None:
    """Step any sender until it is done, then release it.

    The blocking driver of the send-state contract: the senders the
    event-driven builds step from their loop, stepped here.
    ``sock.settimeout`` leaves the descriptor non-blocking, so a full send
    buffer ends a step early; a step that moved nothing waits for
    writability, bounded by the socket timeout (the write budget:
    ``socket.timeout`` on expiry).  ``sendfile`` is driven with explicit
    offsets and never seeks, so MT workers can share a cached descriptor.

    A stream whose source has run dry owes no write budget: the worker
    waits on the source in ``DRAIN_POLL_INTERVAL`` quanta, so it notices a
    drain (ends the stream gracefully) and a departed peer promptly.

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
            elif sender.waiting_on_source:
                if drain_check is not None and drain_check():
                    # Graceful drain: queued backlog still delivers, then
                    # the sender sees END_OF_STREAM and sends the terminator.
                    sender.source.end_stream()
                elif not sender.source.wait(DRAIN_POLL_INTERVAL) and peek_peer(sock) == b"":
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
    drain_flag,
) -> None:
    """Accept and serve connections one at a time until the drain.

    The body of an MT worker thread and of an MP worker process.  The two
    differ in what ``open_connections`` counts with — ``count()``,
    ``enter(sock)`` and ``leave(sock)`` over a locked set of sockets (MT)
    or a cross-process shared integer (MP) — which backs the admission
    bound either way.  ``drain_flag.value`` turns true when a drain or a
    stop begins; the same request shuts the listener down, which fails a
    blocked ``accept`` (``ACCEPT_FATAL``) and ends a backoff early.
    """

    def drain_check() -> bool:
        return drain_flag.value

    backoff = ACCEPT_BACKOFF_INITIAL
    while not drain_flag.value:
        outcome, client_sock, _address = accept_connection(
            listen_sock, store, admission, open_connections.count
        )
        if outcome is ACCEPT_FATAL:
            # The listener is shut down or gone: this worker is done.
            return
        if outcome is ACCEPT_RESOURCE:
            # Out of descriptors (the step shed one backlogged arrival):
            # retrying at once cannot succeed and used to busy-spin the
            # worker.  Back off exponentially until something drains.
            wait_for_shutdown(listen_sock, backoff)
            backoff = min(backoff * 2, ACCEPT_BACKOFF_MAX)
            continue
        backoff = ACCEPT_BACKOFF_INITIAL
        if outcome is not ACCEPTED:
            continue
        open_connections.enter(client_sock)
        try:
            handle_client(
                client_sock,
                store,
                config,
                cgi_runner,
                drain_check=drain_check,
                sse_hub=sse_hub,
            )
        except Exception:
            # Crash barrier: ``handle_client`` has closed the socket on its
            # way out; a bug in one exchange must not end the worker, and
            # with it every later connection it would have accepted.
            with store.stats_lock():
                store.stats.loop_callback_errors += 1
            logger.exception("unhandled error serving a connection (absorbed; worker continues)")
        finally:
            open_connections.leave(client_sock)


class WorkerPool(ListeningServer):
    """The MT and MP builds: ``num_workers`` blocking workers, one listener.

    Every worker runs :func:`serve_connections` on the listener bound
    before the workers start (Apache's pre-forking model, §3.1).  A drain
    is a store to ``drain_flag`` (lock-free, so signal-safe) plus
    ``shutdown(SHUT_RD)`` of the listener: the one wakeup that reaches
    workers blocked in ``accept``, a worker's backoff and
    ``run_forever``'s wait.  Subclasses supply what differs between
    threads and processes: ``drain_flag`` (any object whose ``value`` the
    workers can read), ``_spawn(index)`` (a started worker with ``join``
    and ``is_alive``), ``_force(stragglers)`` and ``_release()``.
    """

    def __init__(self, config: ServerConfig, drain_flag) -> None:
        self.config = config
        self._drain_flag = drain_flag
        self._workers: list = []

    def start(self) -> "WorkerPool":
        """Bind and launch the workers; returns immediately."""
        if self._workers:
            return self
        self.bind()
        self._workers = [self._spawn(index) for index in range(self.config.num_workers)]
        return self

    @property
    def draining(self) -> bool:
        """Whether the server is in drain mode (stopping gracefully)."""
        return bool(self._drain_flag.value)

    def request_drain(self) -> None:
        """Enter drain mode (signal-safe): workers stop accepting, finish
        their in-flight exchanges with ``Connection: close``, and exit."""
        if self._drain_flag.value:
            return
        self._drain_flag.value = True
        if self._listen_sock is not None:
            try:
                self._listen_sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass

    def stop(self, timeout: float = 5.0) -> None:
        """A drain with a ``STOP_GRACE`` deadline, then :meth:`close`."""
        self.request_drain()
        self._wind_down(min(timeout, STOP_GRACE), settle=timeout)
        self.close()

    def _wind_down(self, grace: float, settle: float = 1.0) -> bool:
        """Join the workers until ``grace`` runs out, force the stragglers
        (their connections are closed by force), then give each ``settle``
        seconds to exit; True when no worker is left."""
        deadline = time.monotonic() + grace
        for worker in self._workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        stragglers = [worker for worker in self._workers if worker.is_alive()]
        if stragglers:
            self._force(stragglers)
            for worker in stragglers:
                worker.join(timeout=settle)
        self._workers = [worker for worker in self._workers if worker.is_alive()]
        return not self._workers
