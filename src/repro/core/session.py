# repro-lint: domain=event
"""One connection's lifecycle, written once for both transports.

The paper's SPED server is a state machine performing one basic step of a
request at a time (Section 3.3), and its four builds share one code base so
that only concurrency differs (Section 6).  A :class:`Session` is that
state machine without I/O: bytes and a monotonic ``now`` go in; requests,
HTTP errors and *intents* (the deadline to carry, whether to stay open,
what an expiry means) come out.  ``Connection`` (event loop, timer wheel)
and ``servers.blocking.handle_client`` (blocking socket, socket timeouts)
are its adapters; per-request decisions are :mod:`repro.core.exchange`'s.

Deadlines
---------

At most one, ``(kind, expires_at)`` or ``None``; a budget ``<= 0``
disables its kind:

``header``
    Starts at accept, at the first byte after an idle wait, or when a
    pipelined head is already buffered behind a finished exchange: an
    *absolute* budget (``header_timeout``) to a complete request.  Bytes
    never extend it — that is what made a slowloris dribbling one byte per
    interval immortal.  Expiry answers ``408`` and closes.
``idle``
    Between keep-alive exchanges (``idle_timeout``).  Expiry closes.
``write``
    Queued bytes the socket would not take whole (``write_stall_timeout``),
    restarted only when a send moves bytes — progress, not writability —
    whatever the request's state.  Expiry closes abortively (RST), so the
    kernel stops flushing a send buffer to a peer that reads nothing.

Nothing else is armed while the connection waits on disk or a CGI program,
or while a stream is parked on its source: the peer owes nothing then.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from repro.core import exchange
from repro.core.send_path import QUEUE_BYTES, SendPath
from repro.http.request import RequestParser

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import ServerConfig
    from repro.core.pipeline import ContentStore

#: Deadline kinds (see the module docstring).
HEADER = "header"
IDLE = "idle"
WRITE = "write"

#: Answers of :meth:`Session.finish` (with :data:`IDLE`) and of
#: :meth:`Session.expire` (with :data:`ANSWER_408` and :data:`RESET`).
CLOSE = "close"
NEXT = "next"
ANSWER_408 = "answer-408"
RESET = "reset"

#: Which configured budget each deadline kind runs.
_BUDGETS = {
    HEADER: attrgetter("header_timeout"),
    IDLE: attrgetter("idle_timeout"),
    WRITE: attrgetter("write_stall_timeout"),
}


class Session:
    """The I/O-free lifecycle of one connection (see the module docstring)."""

    __slots__ = ("config", "parser", "served", "keep_alive", "deadline", "idle")

    def __init__(self, config: "ServerConfig", now: float, *, fast: bool = False) -> None:
        self.config = config
        #: The connection's one parser, ``reset()`` between requests.
        self.parser = RequestParser(max_header_bytes=config.max_header_bytes, fast=fast)
        #: Exchanges finished on this connection (queued answers included).
        self.served = 0
        #: Whether the connection stays open after the response in flight:
        #: the committed :meth:`disposition`, lowered by answers that must
        #: close.  False until committed: an unparsed head's answer closes.
        self.keep_alive = False
        #: ``(kind, expires_at)`` or ``None``; a new tuple on every arm, so
        #: an adapter can tell a re-arm by identity.
        self.deadline: Optional[tuple[str, float]] = None
        #: Between complete exchanges, nothing buffered: what drain closes.
        self.idle = False
        self._arm(HEADER, now)

    def received(self, data: bytes, now: float) -> bool:
        """Feed request bytes; True once a complete request is parsed.

        The first byte after an idle wait starts the header budget.  A bad
        head raises :class:`~repro.http.errors.HTTPError`; the adapter
        answers it, and the connection closes.
        """
        if self.idle:
            self.idle = False
            self._arm(HEADER, now)
        return self.parser.feed(data)

    def disposition(self, requested: bool, draining: bool) -> bool:
        """``exchange.disposition`` over this session's buffer (not committed)."""
        return exchange.disposition(requested, self.config, draining, bool(self.parser.remainder))

    def hold(self, queue) -> bool:
        """The hold rule: is the next buffered request answered into ``queue``?

        While the answer just queued is a finite :class:`SendPath`, the
        connection stays open with a pipelined request buffered, and fewer
        than :data:`QUEUE_BYTES` are unsent: the exchange is then finished
        and the adapter parses the buffered bytes.  Otherwise the queue
        goes out, and :meth:`finish` (or :meth:`drained`) follows.
        """
        if not (
            self.keep_alive
            and self.parser.remainder
            and type(queue) is SendPath
            and not queue.under_delivered
            and queue.unsent < QUEUE_BYTES
        ):
            return False
        self.served += 1
        self.keep_alive = False
        return True

    def writing(self, now: float, progressed: bool) -> None:
        """A response is left unfinished: the write budget runs, restarted
        if the send moved bytes, else left counting."""
        if progressed or self.deadline is None or self.deadline[0] is not WRITE:
            self._arm(WRITE, now)

    def waiting(self) -> None:
        """Waiting on disk, a CGI program or a parked stream: no deadline."""
        self.deadline = None

    def drained(self, now: float) -> None:
        """The queue drained ahead of an open exchange: a partial head
        starts its header budget, as behind a finished response; a parked
        request or a stream waits under none."""
        if self.parser.complete:
            self.deadline = None
        else:
            self._arm(HEADER, now)

    def remaining(self, now: float) -> Optional[float]:
        """Seconds left on the deadline (``<= 0`` once due); ``None`` if none."""
        return None if self.deadline is None else self.deadline[1] - now

    def expire(self, store: "ContentStore") -> str:
        """The deadline ran out: count exactly one ``timeouts_*`` under
        ``stats_lock()``; answer :data:`ANSWER_408` (answer then close),
        :data:`CLOSE` or :data:`RESET` (abortive close)."""
        kind = self.deadline[0]
        self.deadline = None
        with store.stats_lock():
            if kind is HEADER:
                store.stats.timeouts_header += 1
                return ANSWER_408
            if kind is IDLE:
                store.stats.timeouts_idle += 1
                return CLOSE
            store.stats.timeouts_write_stall += 1
            return RESET

    def finish(self, under_delivered: bool, draining: bool, now: float) -> str:
        """The queue drained behind the answer: :data:`CLOSE`, :data:`NEXT` or :data:`IDLE`.

        Close when the body came up short (the framing is broken), when
        the disposition said so, or under drain with nothing buffered
        (drain began mid-response; idling would leave it to the drain
        deadline).  Buffered bytes are a pipelined head in flight:
        :data:`NEXT` under the header budget, parsed by
        :meth:`feed_buffered`.  Otherwise :data:`IDLE`, idle budget.
        """
        self.served += 1
        keep_alive, self.keep_alive = self.keep_alive, False
        remainder = self.parser.remainder
        if under_delivered or not keep_alive or (draining and not remainder):
            self.deadline = None
            return CLOSE
        if remainder:
            self._arm(HEADER, now)
            return NEXT
        self.parser.reset()
        self.idle = True
        self._arm(IDLE, now)
        return IDLE

    def feed_buffered(self) -> bool:
        """Parse the pipelined bytes :meth:`finish` or :meth:`hold` left;
        True if a request is complete."""
        buffered = self.parser.remainder
        self.parser.reset()
        return self.parser.feed(buffered)

    def _arm(self, kind: str, now: float) -> None:
        budget = _BUDGETS[kind](self.config)
        self.deadline = (kind, now + budget) if budget > 0 else None
