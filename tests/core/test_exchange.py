"""``repro.core.exchange``: the per-request decisions, tested without a server.

The functions are socket-free, so most of this file feeds them parsed
requests and reads the answer back from an in-memory sink.  The last
section drives one generated stream through both transports — the blocking
``_drive`` and the event-driven ``Connection`` — over a small-buffered
socketpair and requires the same bytes from both.
"""

import itertools
import re
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import exchange
from repro.core.config import ServerConfig
from repro.core.connection import STATE_CLOSED, Connection
from repro.core.event_loop import EventLoop
from repro.core.pipeline import ContentStore
from repro.core.sse import SSE_PREAMBLE, SSEHub
from repro.core.streaming import (
    END_OF_STREAM,
    WOULD_BLOCK,
    IterableSource,
    ResponseSource,
)
from repro.http.errors import HTTPError, NotFoundError
from repro.http.request import RequestParser
from repro.servers.blocking import _drive

BODY = b"0123456789" * 500


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "file.bin").write_bytes(BODY)
    (tmp_path / "sse").write_bytes(b"a file")
    return tmp_path


@pytest.fixture
def store(docroot):
    store = ContentStore(ServerConfig(document_root=str(docroot)))
    yield store
    store.close()


def parse(text):
    parser = RequestParser()
    assert parser.feed(text.encode("latin-1"))
    return parser.request


def get(path="/file.bin", version="HTTP/1.1", method="GET", headers=()):
    lines = [f"{method} {path} {version}", "Host: t", *headers]
    return parse("\r\n".join(lines) + "\r\n\r\n")


class Sink:
    """Stands in for a socket that accepts everything: collects the bytes."""

    def __init__(self):
        self.data = bytearray()

    def send(self, data, _flags=0):
        self.data += data
        return len(data)

    def sendmsg(self, buffers, _ancdata=(), _flags=0):
        before = len(self.data)
        for buffer in buffers:
            self.data += buffer
        return len(self.data) - before


def emitted(sender):
    """Everything ``sender`` writes (buffer-only senders: no file windows)."""
    sink = Sink()
    while not sender.done:
        assert sender.send(sink) > 0
    sender.release()
    return bytes(sink.data)


def split_response(raw):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.lower().split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, body


def dechunk(body):
    """Decode a complete chunked body; raises if the terminator is missing."""
    out = bytearray()
    while True:
        size_line, _, body = body.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            assert body == b"\r\n"
            return bytes(out)
        out += body[:size]
        assert body[size : size + 2] == b"\r\n"
        body = body[size + 2 :]


# -- disposition ---------------------------------------------------------------


@pytest.mark.parametrize(
    "version, header, config_keep_alive, draining, more_buffered",
    itertools.product(
        ("HTTP/1.0", "HTTP/1.1"),
        (None, "keep-alive", "close"),
        (True, False),
        (True, False),
        (b"", b"GET /next HTTP/1.1\r\n"),
    ),
)
def test_disposition_truth_table(version, header, config_keep_alive, draining, more_buffered):
    request = get(version=version, headers=[f"Connection: {header}"] if header else [])
    config = ServerConfig(keep_alive=config_keep_alive)
    # The rule, spelled out independently: what the protocol version and
    # the header ask for, if the server allows it at all, unless this is
    # the last buffered response of a draining server.
    asked = header != "close" if version == "HTTP/1.1" else header == "keep-alive"
    expected = asked and config_keep_alive and (not draining or bool(more_buffered))
    assert exchange.disposition(request.keep_alive, config, draining, more_buffered) is expected


# -- routing and the hot consult -----------------------------------------------


@given(
    path=st.sampled_from(["/file.bin", "/sse", "/events", "/cgi-bin/app", "/cgi-bin/", "/cgi-bin"]),
    sse_path=st.sampled_from([None, "", "/sse", "/events"]),
    method=st.sampled_from(["GET", "HEAD", "POST"]),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_route_and_its_counters(store, path, sse_path, method):
    config = ServerConfig(sse_path=sse_path)
    before = store.stats.snapshot()
    route = exchange.route(store, config, get(path, method=method))
    if sse_path and path == sse_path:
        assert route is exchange.ROUTE_SSE
    elif path.startswith("/cgi-bin/"):
        assert route is exchange.ROUTE_CGI
    else:
        assert route is exchange.ROUTE_STATIC
    assert store.stats.requests == before["requests"] + 1
    assert store.stats.cgi_requests == before["cgi_requests"] + (route is exchange.ROUTE_CGI)


def test_hot_consult_answers_what_the_slow_path_answered(store):
    config = store.config
    request = get()
    assert exchange.hot_consult(store, config, request, True) is None
    slow = exchange.static_miss(store, request, True)
    hot = exchange.hot_consult(store, config, request, True)
    assert hot is not None and hot.header == slow.header
    # Parsed shapes are planned against the entry: a Range is a 206 hit.
    ranged = exchange.hot_consult(store, config, get(headers=["Range: bytes=0-9"]), True)
    assert ranged.status == 206
    for content in (slow, hot, ranged):
        content.release(store)
    # Not consulted at all: other methods, and the toggle.
    assert exchange.hot_consult(store, config, get(method="POST"), True) is None
    assert exchange.hot_consult(store, ServerConfig(hot_cache=False), request, True) is None


# -- failure mapping -------------------------------------------------------------


def test_static_miss_maps_a_translate_failure_to_404(store, monkeypatch):
    def refuse(_path):
        raise PermissionError("no such luck")

    with pytest.raises(NotFoundError):
        exchange.static_miss(store, get("/ghost.bin"), True)
    monkeypatch.setattr(store, "translate", refuse)
    with pytest.raises(NotFoundError, match="no such luck"):
        exchange.static_miss(store, get(), True)
    assert store.stats.blocking_translations == 2


def test_static_miss_leaves_a_build_failure_an_oserror(store, monkeypatch):
    def fail(*_args, **_kwargs):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(store, "build_response", fail)
    with pytest.raises(OSError, match="Input/output error") as excinfo:
        exchange.static_miss(store, get(), True)
    assert not isinstance(excinfo.value, HTTPError)


@given(
    error=st.one_of(
        st.sampled_from([400, 403, 404, 408, 412, 500, 503]).map(
            lambda status: HTTPError("as the client asked", status=status)
        ),
        st.sampled_from(
            [OSError(5, "Input/output error"), RuntimeError("program exploded"), KeyError("bug")]
        ),
    ),
    keep_alive=st.booleans(),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_failure_sender_status_and_disposition(store, error, keep_alive):
    before = store.stats.responses_error
    sender, after = exchange.failure_sender(store, error, keep_alive)
    status, headers, body = split_response(emitted(sender))
    if isinstance(error, HTTPError):
        assert status == error.status
        assert after is keep_alive
    else:
        assert status == 500
        assert after is False
    assert headers["connection"] == ("keep-alive" if after else "close")
    assert int(headers["content-length"]) == len(body)
    assert store.stats.responses_error == before + 1


# -- stream framing --------------------------------------------------------------


@given(
    version=st.sampled_from(["HTTP/1.0", "HTTP/1.1"]),
    keep_alive=st.booleans(),
    chunks=st.lists(st.binary(max_size=300), max_size=6),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cgi_stream_framing_follows_the_request_version(store, version, keep_alive, chunks):
    before = store.stats.snapshot()
    request = get("/cgi-bin/app", version=version)
    sender, after = exchange.cgi_sender(store, request, IterableSource(chunks), keep_alive)
    status, headers, body = split_response(emitted(sender))
    chunked = version == "HTTP/1.1"
    assert status == 200 and "content-length" not in headers
    # HTTP/1.0 has no chunked framing: the close delimits the body.
    assert after is (keep_alive and chunked)
    assert headers["connection"] == ("keep-alive" if after else "close")
    assert headers.get("transfer-encoding") == ("chunked" if chunked else None)
    assert (dechunk(body) if chunked else body) == b"".join(chunks)
    assert store.stats.streamed_responses == before["streamed_responses"] + 1
    assert store.stats.chunked_responses == before["chunked_responses"] + chunked
    assert store.stats.responses_ok == before["responses_ok"] + 1


def test_cgi_bytes_are_a_fixed_length_response(store):
    sender, after = exchange.cgi_sender(store, get("/cgi-bin/app"), b"<html>cgi</html>", True)
    status, headers, body = split_response(emitted(sender))
    assert (status, after, body) == (200, True, b"<html>cgi</html>")
    assert headers["content-length"] == str(len(body))
    assert store.stats.streamed_responses == 0


def test_sse_sender_subscribes_or_refuses(store):
    with pytest.raises(HTTPError) as refused:
        exchange.sse_sender(store, None, get("/sse"))
    assert refused.value.status == 404
    hub = SSEHub()
    try:
        with pytest.raises(HTTPError):
            exchange.sse_sender(store, hub, get("/sse", method="POST"))
        sender = exchange.sse_sender(store, hub, get("/sse"))
        assert hub.subscriber_count == 1 and store.stats.sse_connections == 1
        sink = Sink()
        sender.send(sink)
        _, headers, body = split_response(bytes(sink.data))
        assert headers["content-type"] == "text/event-stream"
        assert headers["cache-control"] == "no-store"
        assert headers["connection"] == "close"
        assert body == b"%x\r\n%s\r\n" % (len(SSE_PREAMBLE), SSE_PREAMBLE)
        assert sender.waiting_on_source
        sender.release()
        assert hub.subscriber_count == 0
    finally:
        hub.close()


# -- one stream, two transports ------------------------------------------------------

FAIL = object()


class ScriptedSource(ResponseSource):
    """Plays a schedule of segments, ``WOULD_BLOCK`` pauses and a failure."""

    def __init__(self, script):
        super().__init__()
        self.script = list(script)

    def next_segment(self):
        if not self.script:
            return END_OF_STREAM
        item = self.script.pop(0)
        if item is FAIL:
            # The producer died after the header left.
            self.failed = True
            self.script.clear()
            return END_OF_STREAM
        return item


class CGIDriver:
    """A ConnectionDriver whose only talent is handing over a CGI source."""

    def __init__(self, store, source):
        self.config = store.config
        self.store = store
        self.loop = EventLoop()
        self.draining = False
        self.sse_hub = None
        self.source = source

    def handle_cgi_async(self, _request, callback):
        callback(self.source, None)

    def respond_async(self, request, keep_alive, callback):  # pragma: no cover
        raise AssertionError("not a static request")

    def hot_content_ready(self, _content):  # pragma: no cover
        return True

    def on_connection_closed(self, _connection):
        pass


def small_buffered_pair():
    left, right = socket.socketpair()
    left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    return left, right


def through_drive(store, request, script):
    """The blocking transport: ``cgi_sender`` + ``_drive``, a thread reading."""
    left, right = small_buffered_pair()
    received = bytearray()

    def read_all():
        while True:
            data = right.recv(65536)
            if not data:
                return
            received.extend(data)

    reader = threading.Thread(target=read_all, daemon=True)
    reader.start()
    try:
        left.settimeout(5.0)
        sender, _ = exchange.cgi_sender(store, request, ScriptedSource(script), False)
        try:
            _drive(left, store, sender)
            truncated = False
        except ConnectionError:
            truncated = True
        left.shutdown(socket.SHUT_WR)
        reader.join(timeout=5.0)
        assert not reader.is_alive()
    finally:
        left.close()
        right.close()
    return bytes(received), truncated


def through_connection(store, raw_request, script):
    """The event-driven transport: a ``Connection`` on its loop."""
    left, right = small_buffered_pair()
    source = ScriptedSource(script)
    driver = CGIDriver(store, source)
    received = bytearray()
    try:
        connection = Connection(left, ("test", 0), driver)
        right.sendall(raw_request)
        right.settimeout(0.01)
        end = time.monotonic() + 10.0
        while time.monotonic() < end:
            driver.loop.run_once(timeout=0.01)
            try:
                data = right.recv(65536)
                if not data:
                    break
                received.extend(data)
            except socket.timeout:
                pass
            if connection.state != STATE_CLOSED and connection._stream_parked:
                # The schedule's pause is over: the producer has more.
                source.notify_ready()
        assert connection.state == STATE_CLOSED
    finally:
        driver.loop.close()
        left.close()
        right.close()
    return bytes(received)


schedules = st.lists(
    st.one_of(st.binary(min_size=1, max_size=6000), st.just(WOULD_BLOCK)), max_size=8
).flatmap(
    lambda items: st.sampled_from([items, items + [FAIL]])
)


@pytest.mark.parametrize("version", ["HTTP/1.1", "HTTP/1.0"], ids=["chunked", "close-delimited"])
@given(script=schedules)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_drive_and_connection_emit_the_same_stream(store, version, script):
    raw_request = f"GET /cgi-bin/app {version}\r\nHost: t\r\nConnection: close\r\n\r\n".encode()
    blocking, truncated = through_drive(store, parse(raw_request.decode()), script)
    event = through_connection(store, raw_request, script)
    strip = lambda raw: re.sub(rb"Date: [^\r]*\r\n", b"", raw)  # noqa: E731
    assert strip(blocking) == strip(event)
    # And the stream is what the schedule says it is.
    payload = b"".join(item for item in script if isinstance(item, bytes))
    _, headers, body = split_response(blocking)
    failed = FAIL in script
    assert truncated is failed
    if version == "HTTP/1.0":
        assert body == payload
    elif failed:
        # Mid-stream truncation: the chunks that left, and no terminator.
        assert not body.endswith(b"0\r\n\r\n")
        assert dechunk(body + b"0\r\n\r\n") == payload
    else:
        assert dechunk(body) == payload
