"""Unit tests for the per-connection state machine, driven by a fake driver.

The SPED and AMPED servers share this state machine; here it is exercised in
isolation over a socketpair, with a scripted driver standing in for the
server, so the parsing / sending / keep-alive / error transitions can be
checked without real network timing.
"""

import socket
import time

import pytest

from repro.core import exchange
from repro.core.config import ServerConfig
from repro.core.connection import (
    STATE_CLOSED,
    STATE_READ_REQUEST,
    STATE_SEND_RESPONSE,
    STATE_WAIT_DISK,
    Connection,
)
from repro.core.event_loop import EVENT_WRITE, EventLoop
from repro.core.pipeline import ContentStore, StaticContent
from repro.core.session import WRITE
from repro.http.errors import NotFoundError


class ScriptedDriver:
    """A ConnectionDriver whose hooks are controlled by the test."""

    def __init__(self, docroot, defer_disk=False, **config_overrides):
        self.config = ServerConfig(document_root=docroot, port=0, **config_overrides)
        self.loop = EventLoop()
        self.store = ContentStore(self.config)
        self.defer_disk = defer_disk
        self.pending = []              # deferred (callback, args) pairs
        self.closed_connections = []
        self.cgi_bodies = {}
        self.draining = False
        self.sse_hub = None

    # -- driver hooks -----------------------------------------------------------

    def defers(self, uri):
        """Whether the response for ``uri`` completes later, like a helper's."""
        return self.defer_disk

    def respond_async(self, request, keep_alive, callback):
        try:
            content = exchange.static_miss(self.store, request, keep_alive)
        except Exception as exc:  # noqa: BLE001 - propagate as error argument
            callback(None, exc)
            return
        if self.defers(request.path):
            self.pending.append((callback, (content, None)))
        else:
            callback(content, None)

    def hot_content_ready(self, content):
        return True

    def handle_cgi_async(self, request, callback):
        body = self.cgi_bodies.get(request.path)
        if body is None:
            callback(None, NotFoundError("no such program"))
        else:
            callback(body, None)

    def on_connection_closed(self, connection):
        self.closed_connections.append(connection)

    # -- test helpers -------------------------------------------------------------

    def flush_pending(self):
        pending, self.pending = self.pending, []
        for callback, args in pending:
            callback(*args)


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "index.html").write_bytes(b"<html>state machine</html>")
    (tmp_path / "big.bin").write_bytes(b"Z" * 100_000)
    return str(tmp_path)


def make_connection(driver):
    """A Connection wired to one end of a socketpair; returns (conn, client sock)."""
    server_side, client_side = socket.socketpair()
    connection = Connection(server_side, ("test", 0), driver)
    client_side.setblocking(True)
    client_side.settimeout(5.0)
    return connection, client_side


def pump(driver, connection, client, limit=200):
    """Run the event loop until the connection goes quiet; return client bytes."""
    received = bytearray()
    client.settimeout(0.02)
    for _ in range(limit):
        driver.loop.run_once(timeout=0.01)
        try:
            while True:
                data = client.recv(65536)
                if not data:
                    return bytes(received)
                received.extend(data)
        except socket.timeout:
            pass
        if connection.state == STATE_READ_REQUEST and not driver.pending:
            # Give it one more spin to settle outstanding writes.
            if received:
                break
        if connection.state == STATE_CLOSED:
            break
    return bytes(received)


class TestRequestResponseCycle:
    def test_simple_request_gets_full_response(self, docroot):
        driver = ScriptedDriver(docroot)
        connection, client = make_connection(driver)
        client.sendall(b"GET /index.html HTTP/1.0\r\n\r\n")
        response = pump(driver, connection, client)
        assert response.startswith(b"HTTP/1.1 200 OK")
        assert b"<html>state machine</html>" in response
        # HTTP/1.0 without keep-alive: the connection must be closed.
        assert connection.state == STATE_CLOSED
        assert driver.closed_connections == [connection]
        client.close()

    def test_keep_alive_serves_sequential_requests(self, docroot):
        driver = ScriptedDriver(docroot)
        connection, client = make_connection(driver)
        client.sendall(b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n")
        first = pump(driver, connection, client)
        assert b"200 OK" in first
        assert connection.state == STATE_READ_REQUEST     # still open
        client.sendall(b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n")
        second = pump(driver, connection, client)
        assert b"200 OK" in second
        assert connection.session.served == 2
        connection.close()
        client.close()

    def test_pipelined_requests_both_answered(self, docroot):
        driver = ScriptedDriver(docroot)
        connection, client = make_connection(driver)
        client.sendall(
            b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n"
            b"GET /index.html HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"
        )
        response = pump(driver, connection, client)
        assert response.count(b"200 OK") == 2
        client.close()

    def test_large_file_transmitted_completely(self, docroot):
        driver = ScriptedDriver(docroot)
        connection, client = make_connection(driver)
        client.sendall(b"GET /big.bin HTTP/1.0\r\n\r\n")
        response = pump(driver, connection, client, limit=2000)
        header, _, body = response.partition(b"\r\n\r\n")
        assert b"200 OK" in header
        assert len(body) == 100_000
        client.close()

    def test_head_request_no_body(self, docroot):
        driver = ScriptedDriver(docroot)
        connection, client = make_connection(driver)
        client.sendall(b"HEAD /big.bin HTTP/1.0\r\n\r\n")
        response = pump(driver, connection, client)
        header, _, body = response.partition(b"\r\n\r\n")
        assert b"Content-Length: 100000" in header
        assert body == b""
        client.close()


class TestDeferredDiskPath:
    def test_connection_waits_for_helper_completion(self, docroot):
        """With a deferring driver the connection parks in WAIT_DISK until the
        'helper' completes, then resumes and sends the response — the AMPED
        control flow in miniature."""
        driver = ScriptedDriver(docroot, defer_disk=True)
        connection, client = make_connection(driver)
        client.sendall(b"GET /index.html HTTP/1.0\r\n\r\n")
        for _ in range(10):
            driver.loop.run_once(timeout=0.01)
        assert connection.state == STATE_WAIT_DISK
        assert driver.pending                      # translation parked
        driver.flush_pending()                     # helper completes
        response = pump(driver, connection, client)
        assert b"200 OK" in response
        client.close()

    def test_client_disconnect_while_waiting_is_safe(self, docroot):
        driver = ScriptedDriver(docroot, defer_disk=True)
        connection, client = make_connection(driver)
        client.sendall(b"GET /index.html HTTP/1.0\r\n\r\n")
        for _ in range(10):
            driver.loop.run_once(timeout=0.01)
        connection.close()                          # e.g. reaped / reset
        driver.flush_pending()                      # late completion arrives
        assert connection.state == STATE_CLOSED     # must not blow up
        client.close()


class TestErrorPaths:
    def test_missing_file_gets_404(self, docroot):
        driver = ScriptedDriver(docroot)
        connection, client = make_connection(driver)
        client.sendall(b"GET /nope.html HTTP/1.0\r\n\r\n")
        response = pump(driver, connection, client)
        assert response.startswith(b"HTTP/1.1 404")
        client.close()

    def test_malformed_request_gets_4xx_and_close(self, docroot):
        driver = ScriptedDriver(docroot)
        connection, client = make_connection(driver)
        client.sendall(b"NONSENSE\r\n\r\n")
        response = pump(driver, connection, client)
        assert response[:12] in (b"HTTP/1.1 400", b"HTTP/1.1 501")
        assert connection.state == STATE_CLOSED
        client.close()

    def test_cgi_error_reported(self, docroot):
        driver = ScriptedDriver(docroot)
        connection, client = make_connection(driver)
        client.sendall(b"GET /cgi-bin/ghost HTTP/1.0\r\n\r\n")
        response = pump(driver, connection, client)
        assert b"404" in response.split(b"\r\n", 1)[0]
        client.close()

    def test_cgi_success(self, docroot):
        driver = ScriptedDriver(docroot)
        driver.cgi_bodies["/cgi-bin/app"] = b"<html>dynamic!</html>"
        connection, client = make_connection(driver)
        client.sendall(b"GET /cgi-bin/app HTTP/1.0\r\n\r\n")
        response = pump(driver, connection, client)
        assert b"200 OK" in response
        assert b"<html>dynamic!</html>" in response
        client.close()

    def test_peer_reset_closes_connection(self, docroot):
        driver = ScriptedDriver(docroot)
        connection, client = make_connection(driver)
        client.close()                              # peer goes away
        for _ in range(10):
            driver.loop.run_once(timeout=0.01)
        assert connection.state == STATE_CLOSED


class TestLifecycleBookkeeping:
    def test_close_is_idempotent(self, docroot):
        driver = ScriptedDriver(docroot)
        connection, client = make_connection(driver)
        connection.close()
        connection.close()
        assert driver.closed_connections == [connection]
        client.close()

    def test_stats_updated_per_request(self, docroot):
        driver = ScriptedDriver(docroot)
        connection, client = make_connection(driver)
        client.sendall(b"GET /index.html HTTP/1.0\r\n\r\n")
        pump(driver, connection, client)
        assert driver.store.stats.requests == 1
        assert driver.store.stats.responses_ok == 1
        assert driver.store.stats.bytes_sent > 0
        client.close()


class SelectiveDeferDriver(ScriptedDriver):
    """Defers translation only for paths containing 'cold' — so a pipelined
    burst can mix an instant cache-hit response with a disk-bound one."""

    def defers(self, uri):
        return "cold" in uri


def get(path, close=False):
    lines = [f"GET {path} HTTP/1.1", "Host: h"] + (["Connection: close"] if close else [])
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def bodies(raw):
    """The bodies of a stream of Content-Length framed responses."""
    found = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        length = int(head.split(b"Content-Length: ", 1)[1].split(b"\r\n", 1)[0])
        found.append(raw[:length])
        raw = raw[length:]
    return found


class TestOutputQueue:
    """What is queued ahead of a parked request, or behind a reader that
    stopped, is bounded by the write budget — not by the disk."""

    def test_parked_request_does_not_hold_back_the_queue(self, tmp_path):
        big = bytes(range(256)) * 1024                      # 256 KiB
        (tmp_path / "big.bin").write_bytes(big)
        (tmp_path / "cold.bin").write_bytes(b"C" * 2048)
        (tmp_path / "index.html").write_bytes(b"<html>fast</html>")
        driver = SelectiveDeferDriver(str(tmp_path))
        server_side, client = socket.socketpair()
        server_side.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        connection = Connection(server_side, ("test", 0), driver)
        client.settimeout(0.01)
        received = bytearray()

        def turn():
            driver.loop.run_once(timeout=0.01)
            try:
                received.extend(client.recv(1 << 16))
            except socket.timeout:
                pass

        try:
            client.sendall(get("/big.bin") + get("/cold.bin") + get("/index.html", close=True))
            deadline = time.monotonic() + 5.0
            while not driver.pending and time.monotonic() < deadline:
                turn()
            # The cold request is parked on (deferred) disk I/O while most of
            # the first answer is still queued: the connection writes, under
            # the write budget, whatever the request's state.
            assert connection.state == STATE_WAIT_DISK
            assert connection._interest == EVENT_WRITE
            assert connection.session.deadline[0] == WRITE
            while len(received) < len(big) and time.monotonic() < deadline:
                turn()
            assert received.endswith(big)                   # before the disk completes
            driver.flush_pending()
            while connection.state != STATE_CLOSED and time.monotonic() < deadline:
                turn()
            while True:
                data = client.recv(1 << 16)
                if not data:
                    break
                received.extend(data)
            assert bodies(bytes(received)) == [big, b"C" * 2048, b"<html>fast</html>"]
        finally:
            connection.close()
            client.close()

    def test_stalled_reader_is_reaped_with_everything_queued(self, tmp_path):
        (tmp_path / "page.bin").write_bytes(b"P" * 65536)
        driver = ScriptedDriver(str(tmp_path), write_stall_timeout=0.2)
        connection, client = make_connection(driver)
        connection.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        try:
            client.sendall(get("/page.bin") * 8)            # and never read
            for _ in range(5):
                driver.loop.run_once(timeout=0.01)
            queued = list(connection._sender.pins)
            assert len(queued) > 1
            deadline = time.monotonic() + 3.0
            while connection.state != STATE_CLOSED and time.monotonic() < deadline:
                driver.loop.run_once(timeout=0.02)
            assert connection.state == STATE_CLOSED
            assert driver.store.stats.timeouts_write_stall == 1
            # Every queued response's pins went with the connection.
            assert connection._sender is None
            assert all(content.file_handle is None for content in queued)
        finally:
            client.close()


class TestDeadlines:
    """The per-connection deadline system, driven through the real wheel.

    These run against the wall clock with sub-second budgets; the loop is
    spun until the expected expiry, with generous upper bounds so slow CI
    machines cannot flake them.
    """

    @staticmethod
    def spin(driver, connection, client, *, until, timeout=3.0):
        """Run the loop until ``until()`` or ``timeout``; return client bytes."""
        received = bytearray()
        client.settimeout(0.02)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and not until(received):
            driver.loop.run_once(timeout=0.02)
            try:
                while True:
                    data = client.recv(65536)
                    if not data:
                        return bytes(received)
                    received.extend(data)
            except socket.timeout:
                pass
        # The condition may have been met before this call even looped
        # (synchronous completions): drain whatever is already buffered.
        try:
            while True:
                data = client.recv(65536)
                if not data:
                    break
                received.extend(data)
        except (socket.timeout, OSError):
            pass
        return bytes(received)

    def test_header_deadline_answers_408_and_closes(self, docroot):
        driver = ScriptedDriver(docroot, header_timeout=0.25)
        connection, client = make_connection(driver)
        client.sendall(b"GET /index.html HTT")  # head never completes
        received = self.spin(
            driver, connection, client,
            until=lambda buf: connection.state == STATE_CLOSED,
        )
        assert b" 408 " in received
        assert b"Connection: close" in received
        assert connection.state == STATE_CLOSED
        assert driver.store.stats.timeouts_header == 1
        client.close()

    def test_header_budget_is_absolute_not_per_byte(self, docroot):
        """The original bug: readiness/bytes reset the idle clock, so a
        client dribbling one byte per interval could hold a connection
        forever.  The header budget must expire regardless of dribbles."""
        driver = ScriptedDriver(docroot, header_timeout=0.4)
        connection, client = make_connection(driver)
        client.sendall(b"GET /")
        start = time.monotonic()
        received = bytearray()
        client.settimeout(0.01)
        while connection.state != STATE_CLOSED and time.monotonic() - start < 3.0:
            try:
                client.sendall(b"a")  # a byte moves: the dribble
            except OSError:
                pass
            end = time.monotonic() + 0.1
            while time.monotonic() < end:
                driver.loop.run_once(timeout=0.02)
                try:
                    data = client.recv(65536)
                    if data:
                        received.extend(data)
                except socket.timeout:
                    pass
                except OSError:
                    break
        elapsed = time.monotonic() - start
        assert connection.state == STATE_CLOSED
        assert b" 408 " in bytes(received)
        # Expired on the absolute budget (plus slack), not dribble-extended.
        assert elapsed < 2.5
        assert driver.store.stats.timeouts_header == 1
        client.close()

    def test_idle_deadline_reaps_keepalive_connection(self, docroot):
        driver = ScriptedDriver(docroot, idle_timeout=0.25)
        connection, client = make_connection(driver)
        client.sendall(b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n")
        response = pump(driver, connection, client)
        assert b"200 OK" in response
        assert connection.state == STATE_READ_REQUEST  # parked, keep-alive
        self.spin(
            driver, connection, client,
            until=lambda buf: connection.state == STATE_CLOSED,
        )
        assert connection.state == STATE_CLOSED
        assert driver.store.stats.timeouts_idle == 1
        assert driver.store.stats.timeouts_header == 0
        client.close()

    def test_wait_disk_carries_no_deadline(self, docroot):
        """A connection parked on disk I/O is the server's fault, not the
        client's — no budget may expire while the helper works."""
        driver = ScriptedDriver(
            docroot, defer_disk=True,
            header_timeout=0.2, idle_timeout=0.2, write_stall_timeout=0.2,
        )
        connection, client = make_connection(driver)
        client.sendall(b"GET /big.bin HTTP/1.0\r\n\r\n")
        self.spin(driver, connection, client,
                  until=lambda buf: bool(driver.pending), timeout=2.0)
        assert connection.state == STATE_WAIT_DISK
        assert connection.session.deadline is None
        # Far past every configured budget: still parked, still open.
        self.spin(driver, connection, client, until=lambda buf: False, timeout=0.5)
        assert connection.state == STATE_WAIT_DISK
        driver.flush_pending()
        received = self.spin(
            driver, connection, client,
            until=lambda buf: connection.state == STATE_CLOSED,
        )
        assert b"Z" * 1000 in received
        for field in ("timeouts_header", "timeouts_idle", "timeouts_write_stall"):
            assert getattr(driver.store.stats, field) == 0, field
        client.close()

    def test_disabled_timeouts_schedule_nothing(self, docroot):
        """``idle_timeout=0`` (and friends) must disable reaping —
        the regression where 0 turned the reaper into a busy loop that
        closed every connection instantly."""
        driver = ScriptedDriver(
            docroot, idle_timeout=0,
            header_timeout=0, write_stall_timeout=0,
        )
        assert driver.config.idle_timeout == 0.0
        connection, client = make_connection(driver)
        assert len(driver.loop.wheel) == 0
        self.spin(driver, connection, client, until=lambda buf: False, timeout=0.3)
        assert connection.state == STATE_READ_REQUEST
        client.sendall(b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n")
        response = pump(driver, connection, client)
        assert b"200 OK" in response
        assert len(driver.loop.wheel) == 0
        assert connection.state == STATE_READ_REQUEST
        connection.close()
        client.close()

    def test_close_cancels_the_armed_deadline(self, docroot):
        driver = ScriptedDriver(docroot)
        connection, client = make_connection(driver)
        assert len(driver.loop.wheel) == 1  # the header deadline
        connection.close()
        assert len(driver.loop.wheel) == 0
        client.close()

    def test_first_byte_after_idle_starts_header_budget(self, docroot):
        driver = ScriptedDriver(docroot, idle_timeout=30.0, header_timeout=0.25)
        connection, client = make_connection(driver)
        client.sendall(b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n")
        pump(driver, connection, client)
        assert connection.session.idle
        client.sendall(b"GET /ind")  # follow-up head starts... and stalls
        received = self.spin(
            driver, connection, client,
            until=lambda buf: connection.state == STATE_CLOSED,
        )
        assert connection.state == STATE_CLOSED
        assert b" 408 " in received
        assert driver.store.stats.timeouts_header == 1
        client.close()


class FakeClock:
    """``time.monotonic`` under the test's control."""

    def __init__(self, now):
        self.now = now

    def __call__(self):
        return self.now


class TestLazyRearm:
    """The wheel handle is re-armed lazily, checked on a fake clock.

    A deadline that moved later keeps the armed handle, which re-checks the
    session when it fires; one that moved earlier moves the handle.  Every
    turn holds at most the one handle of the one connection.
    """

    TICK_SLACK = 0.2  # one wheel tick plus one clock step

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = FakeClock(1000.0)
        monkeypatch.setattr(time, "monotonic", clock)
        return clock

    @staticmethod
    def exchange(driver, connection, client, clock, at):
        clock.now = at
        client.sendall(b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n")
        response = pump(driver, connection, client)
        assert response.startswith(b"HTTP/1.1 200 OK")
        assert connection.state == STATE_READ_REQUEST
        assert len(driver.loop.wheel) <= 1

    @staticmethod
    def run_until_closed(driver, connection, client, clock, until, step=0.05):
        """Step the clock to ``until``; return when the connection closed."""
        client.settimeout(0)
        while clock.now < until:
            clock.now += step
            driver.loop.run_once(timeout=0)
            assert len(driver.loop.wheel) <= 1
            if connection.state == STATE_CLOSED:
                return clock.now
        return None

    def test_idle_reap_counts_from_the_last_exchange(self, docroot, clock):
        driver = ScriptedDriver(docroot, header_timeout=15.0, idle_timeout=30.0)
        connection, client = make_connection(driver)
        # The handle armed at accept (header budget, 1015) stays through
        # all three exchanges; it must re-arm, not reap, when it fires.
        for at in (1000.0, 1010.0, 1020.0):
            self.exchange(driver, connection, client, clock, at)
        closed_at = self.run_until_closed(driver, connection, client, clock, 1060.0)
        assert closed_at is not None
        assert 1050.0 <= closed_at <= 1050.0 + self.TICK_SLACK
        assert driver.store.stats.timeouts_idle == 1
        assert driver.store.stats.timeouts_header == 0
        client.close()

    def test_partial_head_after_idle_gets_its_408_on_time(self, docroot, clock):
        driver = ScriptedDriver(docroot, header_timeout=5.0, idle_timeout=30.0)
        connection, client = make_connection(driver)
        self.exchange(driver, connection, client, clock, 1000.0)
        # The accept-time handle (1005) fires and re-arms for the idle
        # budget (1030).
        assert self.run_until_closed(driver, connection, client, clock, 1010.0) is None
        client.sendall(b"GET /ind")
        # The header budget (1015) lies before the armed handle: it moves.
        closed_at = self.run_until_closed(driver, connection, client, clock, 1040.0)
        assert closed_at is not None
        assert 1015.0 <= closed_at <= 1015.0 + self.TICK_SLACK
        assert driver.store.stats.timeouts_header == 1
        assert driver.store.stats.timeouts_idle == 0
        client.settimeout(1.0)
        assert b" 408 " in client.recv(65536)
        client.close()

    def test_write_stall_reset_is_unchanged(self, tmp_path, clock):
        (tmp_path / "huge.bin").write_bytes(b"H" * (4 << 20))
        driver = ScriptedDriver(
            str(tmp_path), header_timeout=15.0, idle_timeout=30.0, write_stall_timeout=30.0
        )
        connection, client = make_connection(driver)
        client.sendall(b"GET /huge.bin HTTP/1.1\r\nHost: h\r\n\r\n")  # and never read
        for _ in range(5):
            driver.loop.run_once(timeout=0)
        assert connection.state == STATE_SEND_RESPONSE
        assert connection.session.deadline == (WRITE, 1030.0)
        closed_at = self.run_until_closed(driver, connection, client, clock, 1040.0)
        assert closed_at is not None
        assert 1030.0 <= closed_at <= 1030.0 + self.TICK_SLACK
        assert driver.store.stats.timeouts_write_stall == 1
        assert driver.store.stats.timeouts_header == 0
        client.close()
