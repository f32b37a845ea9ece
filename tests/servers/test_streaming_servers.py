"""Integration tests: streaming responses over TCP on all four architectures.

The chunked-transfer edge cases the streaming API must get right —
zero-length bodies, single-byte dribble producers, the HTTP/1.0
close-delimited fallback, pipelining after a chunked response, and a
client that resets mid-stream — run against every architecture, since
all four share the same framing code but drive it very differently
(event loop vs blocking workers vs forked processes).

The live backpressure test runs against the AMPED build (in-process, so
its stats and its RSS are directly observable): a consumer that stops
reading must pause the producer (``backpressure_pauses``) and bound the
server's memory; once the consumer drains, the remaining bytes arrive
intact.
"""

import os
import socket
import time

import pytest

from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.servers import create_server

ARCHS = ("amped", "sped", "mt", "mp")

DRIBBLE_BODY = b"dribble-one-byte-at-a-time"
BIG_CHUNKS = 400
BIG_CHUNK_SIZE = 64 * 1024


def cgi_stream(data):
    total = int(data.query.split("=", 1)[1]) if data.query else 3
    for i in range(total):
        yield f"chunk-{i};".encode()


def cgi_empty_stream(data):
    return iter(())


def cgi_dribble(data):
    for i in range(len(DRIBBLE_BODY)):
        yield DRIBBLE_BODY[i:i + 1]
        time.sleep(0.002)


def cgi_big(data):
    for i in range(BIG_CHUNKS):
        yield bytes([i % 256]) * BIG_CHUNK_SIZE


CGI_PROGRAMS = {
    "stream": cgi_stream,
    "empty": cgi_empty_stream,
    "dribble": cgi_dribble,
    "big": cgi_big,
}


@pytest.fixture(scope="module")
def docroot(tmp_path_factory):
    root = tmp_path_factory.mktemp("www")
    (root / "index.html").write_bytes(b"<html>static</html>")
    return str(root)


@pytest.fixture(scope="module", params=ARCHS)
def running_server(request, docroot):
    config = ServerConfig(
        document_root=docroot,
        port=0,
        num_workers=4,
        num_helpers=2,
        cgi_programs=dict(CGI_PROGRAMS),
        cgi_stream_depth=4,
        sse_path="/sse",
        sse_heartbeat=0.05,
    )
    server = create_server(request.param, config)
    server.start()
    yield request.param, server
    server.stop()


# -- raw-socket helpers ------------------------------------------------------


def connect(server, rcvbuf=None):
    host, port = server.address
    sock = socket.socket()
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.connect((host, port))
    sock.settimeout(5.0)
    return sock


def _recv_more(sock, buf, end):
    remaining = end - time.monotonic()
    assert remaining > 0, "timed out mid-response"
    sock.settimeout(remaining)
    data = sock.recv(65536)
    assert data, "connection closed mid-response"
    buf.extend(data)


def read_headers(sock, buf=None, deadline=10.0):
    """Read one response head; returns (status, headers, residue bytearray)."""
    end = time.monotonic() + deadline
    buf = bytearray() if buf is None else buf
    while b"\r\n\r\n" not in buf:
        _recv_more(sock, buf, end)
    head, _, rest = bytes(buf).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    status = int(status_line.split(" ", 2)[1])
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, bytearray(rest)


def read_chunked_body(sock, buf, deadline=10.0):
    """De-chunk until the terminator; returns (body, residue-after-0-chunk)."""
    end = time.monotonic() + deadline
    body = bytearray()
    pos = 0
    while True:
        idx = buf.find(b"\r\n", pos)
        while idx < 0:
            _recv_more(sock, buf, end)
            idx = buf.find(b"\r\n", pos)
        size = int(bytes(buf[pos:idx]).split(b";")[0], 16)
        need = idx + 2 + size + 2
        while len(buf) < need:
            _recv_more(sock, buf, end)
        if size == 0:
            return bytes(body), bytes(buf[need:])
        body.extend(buf[idx + 2:idx + 2 + size])
        pos = need


def read_until_close(sock, buf, deadline=10.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        sock.settimeout(max(0.05, end - time.monotonic()))
        try:
            data = sock.recv(65536)
        except socket.timeout:
            continue
        if not data:
            return bytes(buf)
        buf.extend(data)
    raise AssertionError("server never closed the close-delimited stream")


# -- chunked transfer edge cases ---------------------------------------------


class TestChunkedStreaming:
    def test_http11_chunked_framing_and_body(self, running_server):
        _, server = running_server
        sock = connect(server)
        try:
            sock.sendall(b"GET /cgi-bin/stream?n=3 HTTP/1.1\r\n"
                         b"Host: t\r\nConnection: close\r\n\r\n")
            status, headers, rest = read_headers(sock)
            assert status == 200
            assert headers.get("transfer-encoding") == "chunked"
            assert "content-length" not in headers
            body, _ = read_chunked_body(sock, rest)
            assert body == b"chunk-0;chunk-1;chunk-2;"
        finally:
            sock.close()

    def test_zero_length_body_is_bare_terminator(self, running_server):
        _, server = running_server
        sock = connect(server)
        try:
            sock.sendall(b"GET /cgi-bin/empty HTTP/1.1\r\n"
                         b"Host: t\r\nConnection: close\r\n\r\n")
            status, headers, rest = read_headers(sock)
            assert status == 200
            assert headers.get("transfer-encoding") == "chunked"
            body, _ = read_chunked_body(sock, rest)
            assert body == b""
        finally:
            sock.close()

    def test_single_byte_dribble_producer(self, running_server):
        """Chunks arrive as the producer makes them; nothing is lost or
        reordered even when every chunk is one byte."""
        _, server = running_server
        sock = connect(server)
        try:
            sock.sendall(b"GET /cgi-bin/dribble HTTP/1.1\r\n"
                         b"Host: t\r\nConnection: close\r\n\r\n")
            status, headers, rest = read_headers(sock, deadline=15.0)
            assert status == 200
            body, _ = read_chunked_body(sock, rest, deadline=15.0)
            assert body == DRIBBLE_BODY
        finally:
            sock.close()

    def test_http10_falls_back_to_close_delimited(self, running_server):
        _, server = running_server
        sock = connect(server)
        try:
            sock.sendall(b"GET /cgi-bin/stream?n=4 HTTP/1.0\r\n\r\n")
            status, headers, rest = read_headers(sock)
            assert status == 200
            assert "transfer-encoding" not in headers
            assert "content-length" not in headers
            assert headers.get("connection", "close") == "close"
            body = read_until_close(sock, rest)
            assert body == b"chunk-0;chunk-1;chunk-2;chunk-3;"
        finally:
            sock.close()

    def test_pipelined_request_after_chunked_response(self, running_server):
        """A chunked response must leave the connection in a clean state:
        the pipelined request queued behind it gets a correct answer."""
        _, server = running_server
        sock = connect(server)
        try:
            sock.sendall(b"GET /cgi-bin/stream?n=2 HTTP/1.1\r\nHost: t\r\n\r\n"
                         b"GET /index.html HTTP/1.1\r\n"
                         b"Host: t\r\nConnection: close\r\n\r\n")
            status, headers, rest = read_headers(sock)
            assert status == 200
            assert headers.get("transfer-encoding") == "chunked"
            body, residue = read_chunked_body(sock, rest)
            assert body == b"chunk-0;chunk-1;"
            status2, headers2, rest2 = read_headers(sock, bytearray(residue))
            assert status2 == 200
            length = int(headers2["content-length"])
            end = time.monotonic() + 10.0
            while len(rest2) < length:
                _recv_more(sock, rest2, end)
            assert bytes(rest2[:length]) == b"<html>static</html>"
        finally:
            sock.close()

    def test_mid_stream_client_reset_leaves_server_healthy(self, running_server):
        _, server = running_server
        sock = connect(server, rcvbuf=8192)
        sock.sendall(b"GET /cgi-bin/big HTTP/1.1\r\n"
                     b"Host: t\r\nConnection: close\r\n\r\n")
        sock.recv(4096)                               # some of the stream
        # Reset instead of an orderly close: pending data is discarded and
        # the server sees ECONNRESET on its next write.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        b"\x01\x00\x00\x00\x00\x00\x00\x00")
        sock.close()
        # The server must reap the stream and keep serving.
        deadline = time.monotonic() + 5.0
        while True:
            try:
                response = fetch(*server.address, "/index.html")
                break
            except OSError:
                assert time.monotonic() < deadline, "server wedged after reset"
                time.sleep(0.05)
        assert response.status == 200
        assert response.body == b"<html>static</html>"


# -- SSE ---------------------------------------------------------------------


class TestSSE:
    def test_event_stream_delivers_heartbeats(self, running_server):
        _, server = running_server
        sock = connect(server)
        try:
            sock.sendall(b"GET /sse HTTP/1.1\r\nHost: t\r\n"
                         b"Accept: text/event-stream\r\n\r\n")
            status, headers, rest = read_headers(sock)
            assert status == 200
            assert headers["content-type"].startswith("text/event-stream")
            assert headers.get("cache-control") == "no-store"
            assert headers.get("transfer-encoding") == "chunked"
            # De-chunk incrementally until two heartbeats have arrived.
            stream = bytearray()
            buf = rest
            end = time.monotonic() + 10.0
            while stream.count(b"event: tick") < 2:
                idx = buf.find(b"\r\n")
                while idx < 0:
                    _recv_more(sock, buf, end)
                    idx = buf.find(b"\r\n")
                size = int(bytes(buf[:idx]), 16)
                assert size > 0, "SSE stream ended before two heartbeats"
                while len(buf) < idx + 2 + size + 2:
                    _recv_more(sock, buf, end)
                stream.extend(buf[idx + 2:idx + 2 + size])
                del buf[:idx + 2 + size + 2]
            assert stream.startswith(b": stream open\n\n")
            assert b"data: " in stream
        finally:
            sock.close()

    @pytest.mark.parametrize("arch", ["sped", "mt"])
    def test_stalled_subscriber_drops_are_counted(self, docroot, arch):
        """Under ``sse_policy="drop"`` a subscriber that stops reading sheds
        its oldest events, and each drop reaches the server's
        ``sse_dropped_events`` through ``build_services``."""
        config = ServerConfig(
            document_root=docroot,
            port=0,
            num_workers=2,
            sse_path="/sse",
            sse_policy="drop",
            sse_queue_limit=2,
        )
        server = create_server(arch, config)
        server.start()
        sock = connect(server, rcvbuf=4096)
        try:
            sock.sendall(b"GET /sse HTTP/1.1\r\nHost: t\r\n"
                         b"Accept: text/event-stream\r\n\r\n")
            status, _, _ = read_headers(sock)
            assert status == 200
            deadline = time.monotonic() + 10.0
            while server.sse_hub.subscriber_count < 1:
                assert time.monotonic() < deadline, "subscription never registered"
                time.sleep(0.01)
            # Never read again: the socket fills, then the bounded queue.
            while server.stats.sse_dropped_events < 1:
                assert time.monotonic() < deadline, "no dropped event recorded"
                server.sse_hub.publish("x" * 16384)
            assert server.stats.sse_dropped_events >= 1
        finally:
            sock.close()
            server.stop()

    def test_non_get_is_rejected(self, running_server):
        _, server = running_server
        response = fetch(*server.address, "/sse", method="POST")
        assert response.status in (404, 405)

    def test_404_when_sse_disabled(self, docroot):
        config = ServerConfig(document_root=docroot, port=0, sse_path=None)
        server = create_server("amped", config)
        server.start()
        try:
            assert fetch(*server.address, "/sse").status == 404
        finally:
            server.stop()


# -- live backpressure -------------------------------------------------------


def rss_bytes():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("VmRSS not found")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc RSS accounting")
class TestLiveBackpressure:
    def test_stalled_consumer_pauses_producer_and_bounds_memory(self, docroot):
        """The acceptance scenario: a consumer that stops reading a large
        streamed response pauses the producer instead of growing the
        server's heap; on resume, every remaining byte arrives intact."""
        config = ServerConfig(
            document_root=docroot,
            port=0,
            num_helpers=2,
            cgi_programs={"big": cgi_big},
            cgi_stream_depth=4,
        )
        server = create_server("amped", config)
        server.start()
        sock = connect(server, rcvbuf=8192)
        try:
            sock.sendall(b"GET /cgi-bin/big HTTP/1.1\r\n"
                         b"Host: t\r\nConnection: close\r\n\r\n")
            status, headers, rest = read_headers(sock)
            assert status == 200
            assert headers.get("transfer-encoding") == "chunked"
            baseline = rss_bytes()
            # Stall: stop reading entirely.  The server fills the socket
            # buffers, pauses the source, and the CGI worker blocks on the
            # bounded queue — so of the ~26 MiB stream, only socket
            # buffers plus a 4-chunk queue may materialize.
            deadline = time.monotonic() + 5.0
            while server.stats.backpressure_pauses < 1:
                assert time.monotonic() < deadline, "no pause edge recorded"
                time.sleep(0.05)
            assert server.stats.backpressure_pauses >= 1
            time.sleep(0.5)                # let a runaway producer run away
            stalled_growth = rss_bytes() - baseline
            total = BIG_CHUNKS * BIG_CHUNK_SIZE
            assert stalled_growth < total // 2, (
                f"server buffered {stalled_growth} bytes of a {total}-byte "
                f"stream while the consumer stalled"
            )
            assert server.stats.streamed_responses >= 1
            assert server.stats.chunked_responses >= 1
            # Resume: drain everything; the stream completes byte-perfect.
            body, _ = read_chunked_body(sock, rest, deadline=60.0)
            expected = b"".join(
                bytes([i % 256]) * BIG_CHUNK_SIZE for i in range(BIG_CHUNKS)
            )
            assert body == expected
        finally:
            sock.close()
            server.stop()
