"""The benchmark's own load generator: one process, one ``select`` loop,
a fixed pool of keep-alive connections, every response verified.

Two ways of offering load, both over the same connections:

* **closed**: each connection sends its next request when the previous
  response completes, so a slower server is offered less;
* **open**: requests fall due on a fixed schedule whatever the server
  does; a due request waits in a FIFO queue when every connection is busy
  and its latency is timed *from when it was due*, which charges a stall to
  every request it delayed.

No request is pipelined: a connection has at most one request outstanding,
so any byte beyond a response's framing is an error.  Teardown is graceful:
every in-flight response is read to its end before a socket is closed.
"""

from __future__ import annotations

import collections
import select
import socket
import time
import zlib
from typing import Iterable, Iterator, Optional

from bench import verify

#: Bodies up to this size are checksummed on every response; larger ones on
#: one response in ``CRC_SAMPLE``, so the generator stays cheaper than the
#: server on the bandwidth workload.
CRC_ALWAYS_BYTES = 16 * 1024
CRC_SAMPLE = 8

#: A phase gives up on its outstanding responses after this long without a
#: byte from the server.
STALL_SECONDS = 10.0

#: After the open schedule ends, queued requests may still be sent for this
#: long; what is left then counts as failed.
OPEN_DRAIN_SECONDS = 2.0

_BUFFER_BYTES = 512 * 1024


class Connection:
    __slots__ = (
        "sock", "buffer", "view", "fill", "request", "due", "head",
        "remaining", "received", "crc", "error",
    )

    def __init__(self) -> None:
        self.sock: Optional[socket.socket] = None
        self.buffer = bytearray(_BUFFER_BYTES)
        self.view = memoryview(self.buffer)
        self.request = None
        self.due = 0.0
        self.reset()

    def reset(self) -> None:
        self.fill = 0
        self.head: Optional[verify.Head] = None
        self.remaining = 0
        self.received = 0
        self.crc: Optional[int] = None
        self.error: Optional[str] = None


class LoadGenerator:
    """Drives ``address`` with ``connections`` keep-alive connections."""

    def __init__(self, address, connections: int = 2) -> None:
        self.address = address
        self.conns = [Connection() for _ in range(connections)]
        #: Strict verification (the warm pass): checksum every body, check
        #: Content-Range and ETag as well.
        self.strict = False
        self.attempted = 0
        self.failed = 0
        self.errors: collections.Counter = collections.Counter()
        self.statuses: collections.Counter = collections.Counter()
        #: ``file index -> ETag`` as captured from verified 200 responses.
        self.etags: dict = {}
        self._sent = 0

    # -- one exchange ---------------------------------------------------------

    def _send(self, conn: Connection, request, due: float) -> bool:
        """Send ``request`` on ``conn`` (connecting first if it has no
        socket).  False means the request already failed."""
        conn.reset()
        conn.request = request
        conn.due = due
        self.attempted += 1
        self._sent += 1
        if self.strict or request.body_len <= CRC_ALWAYS_BYTES or self._sent % CRC_SAMPLE == 0:
            conn.crc = 0
        try:
            if conn.sock is None:
                sock = socket.create_connection(self.address, timeout=5.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.setblocking(False)
                conn.sock = sock
            sent = conn.sock.send(request.raw)
        except OSError as exc:
            self._fail(conn, f"send: {type(exc).__name__}")
            return False
        if sent != len(request.raw):
            self._fail(conn, "short send")
            return False
        return True

    def _fail(self, conn: Connection, reason: str) -> None:
        # The connection's framing can no longer be trusted: drop it, the
        # next request on this slot opens a fresh one.
        conn.error = reason
        self.failed += 1
        self.errors[reason] += 1
        self._drop(conn)

    def _drop(self, conn: Connection) -> None:
        if conn.sock is not None:
            conn.sock.close()
            conn.sock = None

    def _receive(self, conn: Connection) -> bool:
        """Read what the socket holds.  True once the exchange is over
        (verified or failed; ``conn.error`` tells which)."""
        try:
            if conn.head is None:
                count = conn.sock.recv_into(conn.view[conn.fill:])
            else:
                count = conn.sock.recv_into(conn.view)
        except (BlockingIOError, InterruptedError):
            return False
        except OSError as exc:
            self._fail(conn, f"recv: {type(exc).__name__}")
            return True
        if count == 0:
            self._fail(conn, "closed before the response ended")
            return True
        if conn.head is None:
            conn.fill += count
            try:
                head = verify.parse_head(conn.buffer, conn.fill)
                if head is None:
                    return False
                due = verify.wire_body_length(conn.request, head)
            except ValueError as exc:
                self._fail(conn, str(exc))
                return True
            conn.head = head
            body = conn.view[head.end:conn.fill]
        else:
            body = conn.view[:count]
            due = conn.remaining
        conn.received += len(body)
        conn.remaining = due - len(body)
        if conn.crc is not None:
            conn.crc = zlib.crc32(body, conn.crc)
        if conn.remaining > 0:
            return False
        if conn.remaining < 0:
            self._fail(conn, "bytes beyond the response's framing")
            return True
        request, head = conn.request, conn.head
        reason = verify.check(request, head, conn.received, conn.crc, self.strict)
        if reason is not None:
            self._fail(conn, reason)
            return True
        self.statuses[head.status] += 1
        if self.strict and head.status == 200:
            self.etags[request.file] = head.etag
        if request.close:
            # Everything the server had to say has been read; this side
            # closes after it, so neither end sees a reset.
            self._drop(conn)
        return True

    def _wait(self, busy: list, timeout: float) -> list:
        readable, _, _ = select.select([conn.sock for conn in busy], [], [], max(0.0, timeout))
        return [conn for conn in busy if conn.sock in readable]

    # -- closed loop -----------------------------------------------------------

    def closed(self, stream: Iterator, seconds: Optional[float] = None):
        """Closed loop over ``stream`` until it ends or ``seconds`` pass.

        Returns ``(start, completions)``: the phase's start time and one
        ``(time completed, body bytes)`` pair per verified response.
        Responses in flight when the time is up are read to the end (and
        verified) but none is started after it.
        """
        completions = []
        start = time.perf_counter()
        end = start + seconds if seconds is not None else float("inf")
        busy = []
        for conn in self.conns:
            request = next(stream, None)
            if request is not None and self._send(conn, request, start):
                busy.append(conn)
        progress = start
        while busy:
            ready = self._wait(busy, 1.0)
            now = time.perf_counter()
            if not ready:
                if now - progress > STALL_SECONDS:
                    for conn in busy:
                        self._fail(conn, "no response")
                    break
                continue
            progress = now
            for conn in ready:
                if not self._receive(conn):
                    continue
                now = time.perf_counter()
                if conn.error is None:
                    completions.append((now, conn.request.body_len))
                busy.remove(conn)
                while now < end:
                    request = next(stream, None)
                    if request is None:
                        break
                    if self._send(conn, request, now):
                        busy.append(conn)
                        break
        return start, completions

    def warm(self, requests: Iterable) -> None:
        """Send each of ``requests`` once, verifying strictly."""
        self.strict = True
        try:
            self.closed(iter(requests))
        finally:
            self.strict = False

    # -- open loop -------------------------------------------------------------

    def open(self, stream: Iterator, schedule: list, seconds: float):
        """Open loop: ``schedule`` holds arrival offsets from the phase start.

        Returns ``(start, latencies, lateness, backlog)``, each a list of
        ``(time due, value)`` pairs: seconds from due time to the verified
        response; seconds between a request falling due and the generator
        noticing; and the number of requests already waiting when one fell
        due.
        """
        latencies, lateness, backlog = [], [], []
        queue: collections.deque = collections.deque()
        idle = list(self.conns)
        busy: list = []
        start = time.perf_counter()
        end = start + seconds
        position, total = 0, len(schedule)
        progress = start
        unserved = 0
        while True:
            now = time.perf_counter()
            while position < total and start + schedule[position] <= now:
                due = start + schedule[position]
                position += 1
                lateness.append((due, now - due))
                backlog.append((due, len(queue)))
                queue.append(due)
            while queue and idle:
                conn = idle.pop()
                if not busy:
                    progress = now
                if self._send(conn, next(stream), queue.popleft()):
                    busy.append(conn)
                else:
                    idle.append(conn)
            if position < total:
                timeout = start + schedule[position] - now
            elif busy:
                timeout = 1.0
            else:
                break
            if queue and now > end + OPEN_DRAIN_SECONDS:
                # Still behind long after the schedule ended: what is left
                # in the queue is never sent (in-flight responses are still
                # read to their end).
                unserved += len(queue)
                queue.clear()
            if not busy:
                time.sleep(max(0.0, timeout))
                continue
            ready = self._wait(busy, timeout)
            if not ready:
                if time.perf_counter() - progress > STALL_SECONDS:
                    for conn in busy:
                        self._fail(conn, "no response")
                    break
                continue
            for conn in ready:
                if not self._receive(conn):
                    continue
                progress = time.perf_counter()
                if conn.error is None:
                    latencies.append((conn.due, progress - conn.due))
                busy.remove(conn)
                idle.append(conn)
        unserved += len(queue) + (total - position)
        self.attempted += unserved
        self.failed += unserved
        if unserved:
            self.errors["still queued at phase end"] += unserved
        return start, latencies, lateness, backlog

    def close(self) -> None:
        for conn in self.conns:
            self._drop(conn)
