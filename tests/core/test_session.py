"""The connection lifecycle, exercised without a socket.

A :class:`Session` takes bytes and a monotonic ``now`` and answers with
requests, HTTP errors and intents, so its rules can be driven by a
generated schedule against a fake clock: a pipelined stream fed in
arbitrary fragments, time advancing, responses finishing (some short of
their promised length), a drain beginning, deadlines expiring.
"""

import contextlib

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core.config import ServerConfig
from repro.core.pipeline import ServerStats
from repro.core.session import (
    ANSWER_408,
    CLOSE,
    HEADER,
    IDLE,
    NEXT,
    RESET,
    WRITE,
    Session,
)
from repro.http.errors import HTTPError
from repro.http.request import MAX_BODY_BYTES, RequestParser

#: Request heads: mostly keep-alive (plain, conditional, HEAD, a small
#: body), some that end the connection (close, HTTP/1.0, malformed,
#: oversized).
KEEP_ALIVE_HEADS = st.sampled_from(
    [
        "GET /a HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /b/c.txt HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /x%20y HTTP/1.1\r\nHost: t\r\n\r\n",
        'GET /a HTTP/1.1\r\nHost: t\r\nIf-None-Match: "e1"\r\n\r\n',
        "HEAD /a HTTP/1.1\r\nHost: t\r\n\r\n",
        "POST /cgi-bin/f HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
    ]
)
FINAL_HEADS = st.sampled_from(
    [
        "GET /last HTTP/1.1\r\nConnection: close\r\n\r\n",
        "GET /old HTTP/1.0\r\n\r\n",
        "NONSENSE\r\n\r\n",
        "GET / HTTP/9.9\r\n\r\n",
        "BREW /pot HTTP/1.1\r\n\r\n",
        f"POST /up HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n",
    ]
)
HEADS = st.one_of(KEEP_ALIVE_HEADS, KEEP_ALIVE_HEADS, KEEP_ALIVE_HEADS, FINAL_HEADS)

#: A pipelined stream: whole heads, then often the start of one more (an
#: empty tail lets the connection go idle once the last request is done).
TAILS = st.one_of(st.just(0), st.integers(1, 40))
STREAMS = st.tuples(st.lists(HEADS, min_size=1, max_size=4), HEADS, TAILS).map(
    lambda parts: ("".join(parts[0]) + parts[1][: parts[2]]).encode("latin-1")
)

BUDGETS = st.sampled_from([0.0, 2.0, 5.0])


def one_shot(stream):
    """Request boundaries of ``stream`` parsed whole: shapes, then the error (or None)."""
    shapes = []
    while stream:
        parser = RequestParser()
        try:
            if not parser.feed(stream):
                return shapes, None
        except HTTPError as exc:
            return shapes, exc.status
        shapes.append(shape(parser.request))
        stream = parser.remainder
    return shapes, None


def shape(request):
    return request.method, request.uri, request.version, request.headers, request.body


class FakeStore:
    """What :meth:`Session.expire` needs of a ``ContentStore``."""

    def __init__(self):
        self.stats = ServerStats()

    def stats_lock(self):
        return contextlib.nullcontext()


def timeouts(stats):
    return stats.timeouts_header, stats.timeouts_idle, stats.timeouts_write_stall


class SessionMachine(RuleBasedStateMachine):
    @initialize(
        stream=STREAMS,
        fast=st.booleans(),
        header=BUDGETS,
        idle=BUDGETS,
        write=BUDGETS,
    )
    def start(self, stream, fast, header, idle, write):
        self.config = ServerConfig(
            document_root=".",
            port=0,
            header_timeout=header,
            idle_timeout=idle,
            write_stall_timeout=write,
        )
        self.store = FakeStore()
        self.clock = 100.0
        self.session = Session(self.config, self.clock, fast=fast)
        self.stream, self.fed = stream, 0
        self.expected, self.expected_error = one_shot(stream)
        self.requests, self.error = [], None
        self.phase = "reading"  # reading → waiting or sending → reading …; or closed
        self.draining = False
        self.finished_idle = False

    def complete(self, waits):
        """A request is parsed: plan its answer, as an adapter does at once."""
        session = self.session
        request = session.parser.request
        self.requests.append(shape(request))
        session.keep_alive = session.disposition(request.keep_alive, self.draining)
        if self.draining and not session.parser.remainder:
            # Under drain the last buffered request's answer says close.
            assert session.keep_alive is False
        if waits:
            # Disk, a helper or a CGI program: the peer owes nothing.
            session.waiting()
        self.phase = "waiting" if waits else "sending"

    def refuse(self, exc):
        self.error = exc.status
        self.phase = "closed"

    # -- rules ------------------------------------------------------------------

    @precondition(lambda self: self.phase == "reading" and self.fed < len(self.stream))
    @rule(size=st.one_of(st.sampled_from([4096, 40]), st.integers(1, 16)), waits=st.booleans())
    def feed(self, size, waits):
        data = self.stream[self.fed : self.fed + size]
        self.fed += len(data)
        before = self.session.deadline
        was_idle = self.session.idle
        try:
            complete = self.session.received(data, self.clock)
        except HTTPError as exc:
            self.refuse(exc)
            return
        self.finished_idle = False
        if was_idle:
            # The first byte after an idle wait starts the header budget.
            budget = self.config.header_timeout
            expected = (HEADER, self.clock + budget) if budget > 0 else None
            assert self.session.deadline == expected
        elif not complete and before is not None and before[0] is HEADER:
            # Incoming bytes never extend the header budget.
            assert self.session.deadline is before
        if complete:
            self.complete(waits)

    @rule(seconds=st.sampled_from([0.05, 0.3, 1.0, 2.5]))
    def advance(self, seconds):
        self.clock += seconds

    @precondition(lambda self: self.phase in ("waiting", "sending"))
    @rule(progressed=st.booleans())
    def write(self, progressed):
        before = self.session.deadline
        self.session.writing(self.clock, progressed)
        budget = self.config.write_stall_timeout
        if budget <= 0:
            assert self.session.deadline is None
        elif progressed or before is None or before[0] is not WRITE:
            assert self.session.deadline == (WRITE, self.clock + budget)
        else:
            # A send that moved nothing leaves the write budget counting.
            assert self.session.deadline is before
        self.phase = "sending"

    @precondition(lambda self: self.phase in ("waiting", "sending"))
    @rule(under_delivered=st.sampled_from([False, False, False, True]), waits=st.booleans())
    def finish(self, under_delivered, waits):
        session = self.session
        keep_alive = session.keep_alive
        buffered = session.parser.remainder
        step = session.finish(under_delivered, self.draining, self.clock)
        if under_delivered or not keep_alive or (self.draining and not buffered):
            assert step is CLOSE
            assert session.deadline is None
            self.phase = "closed"
            return
        self.phase = "reading"
        if step is IDLE:
            assert not buffered
            self.finished_idle = True
            return
        assert step is NEXT and buffered
        try:
            if session.feed_buffered():
                self.complete(waits)
        except HTTPError as exc:
            self.refuse(exc)

    @precondition(lambda self: not self.draining)
    @rule()
    def begin_drain(self):
        self.draining = True

    @precondition(
        lambda self: self.phase != "closed"
        and self.session.deadline is not None
        and self.session.deadline[1] <= self.clock
    )
    @rule()
    def expire(self):
        kind = self.session.deadline[0]
        before = timeouts(self.store.stats)
        action = self.session.expire(self.store)
        after = timeouts(self.store.stats)
        bumped = [index for index in range(3) if after[index] != before[index]]
        assert len(bumped) == 1 and after[bumped[0]] == before[bumped[0]] + 1
        assert (kind, action) == [(HEADER, ANSWER_408), (IDLE, CLOSE), (WRITE, RESET)][bumped[0]]
        assert self.session.deadline is None
        self.phase = "closed"

    # -- invariants ---------------------------------------------------------------

    @invariant()
    def boundaries_match_a_one_shot_parse(self):
        if not hasattr(self, "session"):
            return
        assert self.requests == self.expected[: len(self.requests)]
        if self.error is not None:
            assert self.requests == self.expected
            assert self.error == self.expected_error

    @invariant()
    def idle_exactly_between_exchanges(self):
        if not hasattr(self, "session") or self.phase == "closed":
            return
        assert self.session.idle == self.finished_idle
        if self.session.idle:
            assert self.session.parser.remainder == b""
            assert not self.session.parser.complete

    @invariant()
    def no_deadline_while_waiting(self):
        if getattr(self, "phase", None) == "waiting":
            assert self.session.deadline is None


SessionMachine.TestCase.settings = settings(max_examples=200, stateful_step_count=40, deadline=None)
test_session_lifecycle = SessionMachine.TestCase
