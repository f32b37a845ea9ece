"""Graceful-drain semantics across all four architectures.

The drain contract (PR 8): a draining server stops accepting, lets
in-flight and already-buffered pipelined requests complete, tells
keep-alive clients ``Connection: close`` on their last response, closes
idle keep-alive connections immediately, and force-closes stragglers when
``drain_timeout`` expires — ending with zero open connections.
"""

import socket
import threading
import time

import pytest

from repro.core.config import ServerConfig
from repro.servers import create_server

ARCHS = ("amped", "sped", "mt", "mp")


def _wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _read_until_closed(sock, timeout=10.0):
    sock.settimeout(timeout)
    data = bytearray()
    while True:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            raise AssertionError(
                f"server did not close the connection; got {bytes(data)!r}"
            )
        except OSError:
            break
        if not chunk:
            break
        data.extend(chunk)
    return bytes(data)


def _split_responses(data):
    """Parse back-to-back Content-Length-framed responses."""
    responses = []
    rest = data
    while rest:
        head_end = rest.find(b"\r\n\r\n")
        assert head_end > 0, f"unparseable tail {rest!r}"
        head = rest[:head_end]
        length = 0
        for line in head.split(b"\r\n")[1:]:
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        responses.append((head, rest[head_end + 4 : head_end + 4 + length]))
        rest = rest[head_end + 4 + length :]
    return responses


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "small.txt").write_bytes(b"drain-me")
    return str(tmp_path)


def _make_server(arch, docroot, **overrides):
    config = ServerConfig(
        document_root=docroot,
        port=0,
        num_workers=2,
        num_helpers=1,
        **overrides,
    )
    server = create_server(arch, config)
    server.start()
    return server


@pytest.mark.parametrize("arch", ARCHS)
class TestDrainSemantics:
    def test_inflight_pipelined_requests_complete(self, arch, docroot):
        """A request mid-parse at drain time completes — and so does the
        pipelined request buffered behind it; only the last response says
        ``Connection: close``."""
        server = _make_server(arch, docroot, drain_timeout=10.0)
        sock = None
        try:
            host = "%s:%d" % server.address
            sock = socket.create_connection(server.address, timeout=5)
            # A partial request head parks the connection mid-request (not
            # idle), so the drain must let it finish.
            sock.sendall(b"GET /small.txt HTTP/1.1\r\n")
            time.sleep(0.3)
            server.request_drain()
            assert _wait_until(lambda: server.draining)
            # Finish the in-flight request and pipeline one more behind it.
            sock.sendall(
                (
                    f"Host: {host}\r\nConnection: keep-alive\r\n\r\n"
                    f"GET /small.txt HTTP/1.1\r\nHost: {host}\r\n"
                    "Connection: keep-alive\r\n\r\n"
                ).encode("latin-1")
            )
            data = _read_until_closed(sock)
            responses = _split_responses(data)
            assert len(responses) == 2
            for head, body in responses:
                assert head.startswith(b"HTTP/1.1 200")
                assert body == b"drain-me"
            assert b"connection: close" in responses[-1][0].lower()
            assert server.drain(timeout=10.0)
            assert server.open_connections == 0
        finally:
            if sock is not None:
                sock.close()
            server.stop()

    def test_idle_keepalive_closed_at_drain(self, arch, docroot):
        """An idle keep-alive connection is owed nothing: the drain closes
        it without waiting out the idle budget."""
        server = _make_server(arch, docroot, drain_timeout=10.0, idle_timeout=30.0)
        sock = None
        try:
            host = "%s:%d" % server.address
            sock = socket.create_connection(server.address, timeout=5)
            sock.sendall(
                f"GET /small.txt HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: keep-alive\r\n\r\n".encode("latin-1")
            )
            # Read exactly one complete response; the connection stays open.
            sock.settimeout(5)
            data = bytearray()
            while b"drain-me" not in data:
                chunk = sock.recv(65536)
                assert chunk, "server closed before drain was requested"
                data.extend(chunk)
            (head, _body), = _split_responses(bytes(data))
            assert b"connection: close" not in head.lower()
            server.request_drain()
            # The drain closes the idle connection long before idle_timeout.
            leftover = _read_until_closed(sock, timeout=8.0)
            assert leftover == b""
            assert server.drain(timeout=10.0)
            assert server.open_connections == 0
        finally:
            if sock is not None:
                sock.close()
            server.stop()

    def test_drain_deadline_force_closes_stragglers(self, arch, docroot):
        """A connection that never finishes its request cannot hold the
        drain hostage: ``drain_timeout`` force-closes it."""
        server = _make_server(arch, docroot, drain_timeout=0.5)
        sock = None
        try:
            sock = socket.create_connection(server.address, timeout=5)
            sock.sendall(b"GET /small.txt HTTP/1.1\r\n")  # head never completes
            time.sleep(0.3)
            started = time.monotonic()
            assert server.drain()  # uses the configured 0.5s drain budget
            assert time.monotonic() - started < 8.0
            assert server.open_connections == 0
            assert server.stats.drain_forced_closes >= 1
        finally:
            if sock is not None:
                sock.close()
            server.stop()

    def test_drain_stops_accepting(self, arch, docroot):
        """After the drain no new connection is served: the connect is
        refused outright or yields no response."""
        server = _make_server(arch, docroot, drain_timeout=5.0)
        try:
            address = server.address
            server.request_drain()
            assert _wait_until(lambda: server.draining)
            assert server.drain(timeout=10.0)
            with pytest.raises(OSError):
                probe = socket.create_connection(address, timeout=1.0)
                # A SO_REUSEPORT straggler in the kernel backlog would be
                # accepted by nobody: the recv must fail or return EOF.
                try:
                    probe.settimeout(1.0)
                    probe.sendall(b"GET / HTTP/1.0\r\n\r\n")
                    if probe.recv(4096) == b"":
                        raise ConnectionError("no listener")
                finally:
                    probe.close()
        finally:
            server.stop()


@pytest.mark.parametrize("arch", ("sped", "amped"))
def test_slow_path_response_under_drain_says_close(arch, docroot):
    """The last response under drain says ``Connection: close`` on the full
    pipeline too, not only on a hot-cache hit: the connection's
    drain-adjusted disposition — not the request's own — is what
    ``build_response`` composes the header with."""
    server = _make_server(arch, docroot, drain_timeout=10.0)
    sock = None
    try:
        host = "%s:%d" % server.address
        # A fresh connection keeps its header budget through the drain.
        sock = socket.create_connection(server.address, timeout=5)
        assert _wait_until(lambda: server.open_connections == 1)
        server.request_drain()
        assert _wait_until(lambda: server.draining)
        # First request for this file: nothing is in the hot cache.
        sock.sendall(
            f"GET /small.txt HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: keep-alive\r\n\r\n".encode("latin-1")
        )
        (head, body), = _split_responses(_read_until_closed(sock))
        assert head.startswith(b"HTTP/1.1 200")
        assert body == b"drain-me"
        assert b"connection: close" in head.lower()
        assert b"keep-alive" not in head.lower()
        assert server.stats.hot_hits == 0
        assert server.drain(timeout=10.0)
    finally:
        if sock is not None:
            sock.close()
        server.stop()


@pytest.mark.parametrize("arch", ARCHS)
def test_stop_with_idle_keepalive_client(arch, docroot):
    """``stop()`` ends a connection left open after an answered GET at
    once, on every build: nothing is served after it returns, and no MT
    worker outlives it."""
    server = _make_server(arch, docroot, idle_timeout=30.0)
    sock = socket.create_connection(server.address, timeout=5)
    try:
        request = b"GET /small.txt HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n"
        sock.sendall(request)
        data = bytearray()
        while b"drain-me" not in data:
            chunk = sock.recv(65536)
            assert chunk, "server closed before stop"
            data.extend(chunk)
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 0.3
        try:
            sock.sendall(request)
            leftover = _read_until_closed(sock, timeout=2.0)
        except OSError:
            leftover = b""
        assert leftover == b""
        assert not [t for t in threading.enumerate() if t.name.startswith("mt-worker")]
    finally:
        sock.close()
        server.stop()
