"""Tests for the one response sender: vectored buffers and file windows.

Covers the contract the connection state machine relies on: short writes
and ``EAGAIN`` preserve progress, a mid-transfer client disconnect
surfaces as ``ConnectionError`` and leaves the machine consistent, the
buffered fallback resumes at the exact byte offset ``sendfile`` reached,
and — end to end over real sockets — both send paths produce
byte-identical responses.  The keep-alive regression drives several
sequential requests through the zero-copy path on one connection,
exercising the per-response offset bookkeeping.
"""

import contextlib
import errno
import os
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.mapped_file import CachedFD

from repro.core import exchange
from repro.core.config import ServerConfig
from repro.core.connection import (
    STATE_CLOSED,
    STATE_READ_REQUEST,
    STATE_SEND_RESPONSE,
    Connection,
)
from repro.core.event_loop import EventLoop
from repro.core.pipeline import ContentStore, ServerStats, StaticContent
from repro.core.send_path import SendPath, choose_send_path, sendfile_available
from repro.servers.blocking import _send_static

requires_sendfile = pytest.mark.skipif(
    not sendfile_available(), reason="os.sendfile not available"
)


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    left.setblocking(False)
    yield left, right
    left.close()
    right.close()


@pytest.fixture
def tiny_buffer_pair():
    """A socketpair whose sender-side buffer is as small as the OS allows."""
    left, right = socket.socketpair()
    left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    right.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    left.setblocking(False)
    yield left, right
    left.close()
    right.close()


def drain(sock, expected, deadline=5.0):
    """Receive until ``expected`` bytes arrived (or the deadline passes)."""
    sock.settimeout(0.05)
    received = bytearray()
    end = time.monotonic() + deadline
    while len(received) < expected and time.monotonic() < end:
        try:
            data = sock.recv(65536)
        except socket.timeout:
            continue
        if not data:
            break
        received.extend(data)
    return bytes(received)


class Store:
    """The two things a degrading sender asks of its store."""

    def __init__(self):
        self.stats = ServerStats()

    def stats_lock(self):
        return contextlib.nullcontext()


def file_content(fd, path, parts=(), header=b"", trailer=b""):
    """A fd-backed response transmitting from ``fd``; a degraded window
    re-reads ``path`` (usually, but not always, the same file)."""
    return StaticContent(
        header=header,
        segments=(),
        file_handle=CachedFD(path=str(path), fd=fd),
        parts=parts,
        trailer=trailer,
    )


def window_sender(fd, path, offset, length, header=b""):
    """The plain 200/206 shape: ``header`` then one file window."""
    content = file_content(fd, path)
    return SendPath([header, (content, offset, length)], Store())


def fallbacks(sender):
    """How many degraded responses ``sender`` has reported to its store."""
    return sender._store.stats.sendfile_fallbacks


def pump(sender, left, right, expected_length, deadline=10.0):
    """Drive ``sender`` to completion against a draining peer."""
    received = bytearray()
    end = time.monotonic() + deadline
    while not sender.done and time.monotonic() < end:
        sender.send(left)
        received.extend(drain(right, 1, deadline=0.2))
    assert sender.done
    received.extend(drain(right, expected_length - len(received), deadline=1.0))
    return bytes(received)


class TestBufferSegments:
    def test_single_buffer_round_trip(self, pair):
        left, right = pair
        sender = SendPath([b"hello world"])
        sent = sender.send(left)
        assert sent == len(b"hello world")
        assert sender.done
        assert drain(right, sent) == b"hello world"

    def test_vectored_buffers_byte_identical(self, pair):
        left, right = pair
        parts = [b"HTTP/1.1 200 OK\r\n\r\n", b"abc" * 1000, b"", b"tail"]
        sender = SendPath(parts)
        total = sender.send(left)
        expected = b"".join(parts)
        assert total == len(expected)
        assert sender.done
        assert drain(right, total) == expected

    def test_more_buffers_than_one_iov(self, pair):
        """A run longer than the per-call vector cap still goes out whole."""
        left, right = pair
        parts = [bytes([65 + index % 26]) * 3 for index in range(200)]
        sender = SendPath(parts)
        assert pump(sender, left, right, 600) == b"".join(parts)

    def test_short_writes_preserve_progress(self, tiny_buffer_pair):
        left, right = tiny_buffer_pair
        payload = os.urandom(256 * 1024)
        sender = SendPath([b"header:", payload])
        expected = b"header:" + payload
        assert pump(sender, left, right, len(expected)) == expected

    def test_release_drops_views(self, pair):
        backing = bytearray(b"xyz")
        sender = SendPath([memoryview(backing)])
        sender.release()
        assert sender.done
        backing.extend(b"!")  # would raise BufferError while a view is exported


@requires_sendfile
class TestFileWindowSegments:
    def test_header_then_file_byte_identical(self, pair, tmp_path):
        left, right = pair
        body = os.urandom(64 * 1024)
        path = tmp_path / "body.bin"
        path.write_bytes(body)
        fd = os.open(path, os.O_RDONLY)
        try:
            sender = window_sender(fd, path, 0, len(body), header=b"HDR:")
            assert pump(sender, left, right, 4 + len(body)) == b"HDR:" + body
            assert fallbacks(sender) == 0
        finally:
            os.close(fd)

    def test_offset_window_byte_identical(self, pair, tmp_path):
        left, right = pair
        payload = bytes(range(256)) * 64
        path = tmp_path / "w.bin"
        path.write_bytes(payload)
        fd = os.open(path, os.O_RDONLY)
        try:
            sender = window_sender(fd, path, 500, 1000, header=b"HDR")
            assert pump(sender, left, right, 1003) == b"HDR" + payload[500:1500]
        finally:
            os.close(fd)

    def test_multipart_shape_interleaves_framing_and_windows(self, pair, tmp_path):
        left, right = pair
        payload = bytes(range(256)) * 64
        path = tmp_path / "w.bin"
        path.write_bytes(payload)
        fd = os.open(path, os.O_RDONLY)
        try:
            content = file_content(fd, path)
            sender = SendPath(
                [b"HDR", b"--a", (content, 10, 20), b"--b", (content, 9000, 300), b"--end"],
                Store(),
            )
            expected = b"HDR--a" + payload[10:30] + b"--b" + payload[9000:9300] + b"--end"
            assert pump(sender, left, right, len(expected)) == expected
        finally:
            os.close(fd)

    def test_eagain_preserves_offset(self, tiny_buffer_pair, tmp_path):
        """A full socket buffer pauses the transfer without losing bytes."""
        left, right = tiny_buffer_pair
        body = os.urandom(512 * 1024)
        path = tmp_path / "big.bin"
        path.write_bytes(body)
        fd = os.open(path, os.O_RDONLY)
        try:
            sender = window_sender(fd, path, 0, len(body))
            first = sender.send(left)     # runs into EAGAIN well before done
            assert 0 < first < len(body)
            assert not sender.done
            again = sender.send(left)     # buffer still full: no progress
            assert again == 0
            received = drain(right, first)
            assert received + pump(sender, left, right, len(body) - first) == body
        finally:
            os.close(fd)

    def test_disconnect_mid_transfer_raises(self, tiny_buffer_pair, tmp_path):
        left, right = tiny_buffer_pair
        body = os.urandom(512 * 1024)
        path = tmp_path / "big.bin"
        path.write_bytes(body)
        fd = os.open(path, os.O_RDONLY)
        try:
            sender = window_sender(fd, path, 0, len(body))
            sender.send(left)
            right.close()
            with pytest.raises(OSError) as excinfo:
                deadline = time.monotonic() + 5.0
                while not sender.done and time.monotonic() < deadline:
                    sender.send(left)
            assert isinstance(excinfo.value, ConnectionError) or excinfo.value.errno in (
                errno.EPIPE,
                errno.ECONNRESET,
            )
        finally:
            os.close(fd)

    def test_unsupported_in_fd_falls_back_buffered(self, pair, tmp_path):
        """sendfile from a non-mmappable fd degrades to the buffered path."""
        left, right = pair
        body = b"fallback body " * 512
        path = tmp_path / "body.bin"
        path.write_bytes(body)
        # A socket as in_fd makes sendfile fail with EINVAL/ENOTSOCK.
        bad_in, bad_peer = socket.socketpair()
        try:
            sender = window_sender(bad_in.fileno(), path, 0, len(body), header=b"HDR:")
            assert pump(sender, left, right, 4 + len(body)) == b"HDR:" + body
            assert fallbacks(sender) == 1
            assert not sender.under_delivered
        finally:
            bad_in.close()
            bad_peer.close()

    def test_window_fallback_resumes_inside_window(self, pair, tmp_path):
        """Degrading an offset window reads exactly that window."""
        left, right = pair
        payload = bytes(range(256)) * 64
        path = tmp_path / "w.bin"
        path.write_bytes(payload)
        # An fd sendfile cannot serve: a pipe in place of the file.
        read_end, write_end = os.pipe()
        try:
            sender = window_sender(read_end, path, 500, 1000, header=b"HDR")
            assert pump(sender, left, right, 1003) == b"HDR" + payload[500:1500]
            assert fallbacks(sender) == 1
            assert not sender.under_delivered
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_fallback_resumes_at_exact_offset(self, tiny_buffer_pair, tmp_path):
        """Degrading mid-transfer must not resend or skip body bytes."""
        left, right = tiny_buffer_pair
        body = os.urandom(256 * 1024)
        shrinking = tmp_path / "shrink.bin"
        shrinking.write_bytes(body)
        intact = tmp_path / "intact.bin"
        intact.write_bytes(body)
        fd = os.open(shrinking, os.O_RDONLY)
        try:
            # Transmit from the file about to shrink; re-read the intact copy.
            sender = window_sender(fd, intact, 0, len(body))
            sent = sender.send(left)          # partial transfer, then EAGAIN
            assert 0 < sent < len(body)
            # Truncate the file under the transfer: sendfile now reports EOF
            # (returns 0) and the sender must finish from the fallback
            # read, resuming exactly at the byte reached.
            os.truncate(shrinking, sent)
            received = drain(right, sent)
            assert received + pump(sender, left, right, len(body) - sent) == body
            assert fallbacks(sender) == 1
            # The fallback covered every promised byte, so the connection
            # may be kept alive.
            assert not sender.under_delivered
        finally:
            os.close(fd)

    def test_short_fallback_marks_under_delivery(self, tiny_buffer_pair, tmp_path):
        """A body that cannot be completed must poison keep-alive reuse."""
        left, right = tiny_buffer_pair
        body = os.urandom(128 * 1024)
        path = tmp_path / "shrink.bin"
        path.write_bytes(body)
        fd = os.open(path, os.O_RDONLY)
        try:
            # The fallback can only re-read the (now truncated) file, so
            # the promised count is impossible to honour.
            content = file_content(fd, path)
            sender = SendPath([(content, 0, len(body)), b"after"], Store())
            sent = sender.send(left)
            assert 0 < sent < len(body)
            os.truncate(path, sent)
            received = drain(right, sent)
            received += pump(sender, left, right, 0)
            assert fallbacks(sender) == 1
            assert sender.under_delivered
            # Nothing past the truncation point: not even the buffer queued
            # behind the short window.
            assert received == body[:sent]
        finally:
            os.close(fd)

    def test_several_degraded_windows_count_one_fallback(self, pair, tmp_path):
        left, right = pair
        payload = bytes(range(256)) * 8
        path = tmp_path / "w.bin"
        path.write_bytes(payload)
        read_end, write_end = os.pipe()
        try:
            content = file_content(read_end, path)
            store = Store()
            sender = SendPath([b"H", (content, 0, 10), b"-", (content, 100, 10)], store)
            expected = b"H" + payload[:10] + b"-" + payload[100:110]
            assert pump(sender, left, right, len(expected)) == expected
            assert store.stats.sendfile_fallbacks == 1
        finally:
            os.close(read_end)
            os.close(write_end)


# -- connection-level coverage ---------------------------------------------------


class InlineDriver:
    """Minimal ConnectionDriver running every hook inline (SPED-style)."""

    def __init__(self, docroot, **config_kwargs):
        self.config = ServerConfig(document_root=str(docroot), port=0, **config_kwargs)
        self.loop = EventLoop()
        self.store = ContentStore(self.config)
        self.closed = []
        self.draining = False
        self.sse_hub = None

    def respond_async(self, request, keep_alive, callback):
        try:
            content = exchange.static_miss(self.store, request, keep_alive)
        except Exception as exc:  # noqa: BLE001 - propagate as error argument
            callback(None, exc)
            return
        callback(content, None)

    def hot_content_ready(self, content):
        return True

    def handle_cgi_async(self, request, callback):
        callback(b"<html>cgi</html>", None)

    def on_connection_closed(self, connection):
        self.closed.append(connection)

    def shutdown(self):
        self.store.close()
        self.loop.close()


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "small.txt").write_bytes(b"tiny body")
    (tmp_path / "big.bin").write_bytes(os.urandom(400_000))
    return tmp_path


def parse_http(raw):
    """Split one HTTP response into (header bytes, body bytes)."""
    head, _, body = raw.partition(b"\r\n\r\n")
    return head, body


def run_until(driver, predicate, deadline=5.0):
    end = time.monotonic() + deadline
    while not predicate() and time.monotonic() < end:
        driver.loop.run_once(timeout=0.05)
    assert predicate(), "condition not reached before deadline"


@requires_sendfile
class TestConnectionZeroCopy:
    def _request(self, right, path, keep_alive=True):
        token = b"keep-alive" if keep_alive else b"close"
        right.sendall(
            b"GET " + path + b" HTTP/1.1\r\nHost: t\r\nConnection: " + token + b"\r\n\r\n"
        )

    def test_eagain_leaves_state_machine_consistent(self, docroot):
        left, right = socket.socketpair()
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        driver = InlineDriver(docroot)
        try:
            connection = Connection(left, ("test", 0), driver)
            self._request(right, b"/big.bin")
            run_until(driver, lambda: connection.state == STATE_SEND_RESPONSE)
            # The body is far larger than the socket buffer: the first write
            # hit EAGAIN, the response is in flight, resources stay pinned
            # (one pin for the in-flight transfer, one held by the
            # hot-response cache that just learned this target).
            (content,) = connection._sender.pins
            assert content.file_handle.refcount == 2
            assert driver.store.hot_cache is not None
            assert len(driver.store.hot_cache) == 1
            assert driver.store.stats.sendfile_responses == 1

            received = bytearray()

            def pump():
                received.extend(drain(right, 1, deadline=0.05))
                return connection.state == STATE_READ_REQUEST

            run_until(driver, pump, deadline=15.0)
            expected = (docroot / "big.bin").read_bytes()
            received.extend(drain(right, 500_000))
            _, body = parse_http(bytes(received))
            assert body == expected
            # Response finished: every pinned resource was released and the
            # connection is ready for the next request.
            assert connection._sender is None
            assert not connection.closed
        finally:
            driver.shutdown()
            left.close()
            right.close()

    def test_disconnect_mid_transfer_closes_cleanly(self, docroot):
        left, right = socket.socketpair()
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        driver = InlineDriver(docroot)
        try:
            connection = Connection(left, ("test", 0), driver)
            self._request(right, b"/big.bin")
            run_until(driver, lambda: connection.state == STATE_SEND_RESPONSE)
            (content,) = connection._sender.pins
            right.close()
            run_until(driver, lambda: connection.state == STATE_CLOSED, deadline=10.0)
            assert driver.closed == [connection]
            # Pinned chunks and the cached descriptor were all released.
            assert content.file_handle is None
            assert content.chunks == ()
            # The connection's pins are gone; the only remaining references
            # are the hot-response cache's own (at most one per chunk).
            assert all(
                chunk.refcount <= 1
                for chunk in driver.store.mmap_cache._chunks.values()
            )
            driver.store.hot_cache.clear()
            assert all(
                chunk.refcount == 0
                for chunk in driver.store.mmap_cache._chunks.values()
            )
        finally:
            driver.shutdown()
            left.close()

    def test_keep_alive_sequential_requests_zero_copy(self, docroot):
        """Offset bookkeeping must reset per response on one connection."""
        left, right = socket.socketpair()
        driver = InlineDriver(docroot)
        try:
            connection = Connection(left, ("test", 0), driver)
            expected_small = (docroot / "small.txt").read_bytes()
            expected_big = (docroot / "big.bin").read_bytes()
            plan = [
                (b"/small.txt", expected_small),
                (b"/big.bin", expected_big),
                (b"/small.txt", expected_small),
                (b"/big.bin", expected_big),
            ]
            for index, (path, expected) in enumerate(plan, start=1):
                self._request(right, path)
                received = bytearray()

                def pump():
                    received.extend(drain(right, 1, deadline=0.05))
                    return (
                        connection.session.served == index
                        and connection.state == STATE_READ_REQUEST
                    )

                run_until(driver, pump, deadline=15.0)
                received.extend(drain(right, len(expected) + 4096, deadline=0.3))
                _, body = parse_http(bytes(received))
                assert body == expected, f"response {index} corrupted"
            assert driver.store.stats.sendfile_responses == len(plan)
            assert driver.store.stats.sendfile_fallbacks == 0
            # Repeats never reopened a descriptor: the hot-response cache
            # served them from the pinned fds of the first two responses.
            assert driver.store.fd_cache.open_operations == 2
            assert driver.store.stats.hot_hits >= 2
            assert not connection.closed
        finally:
            driver.shutdown()
            left.close()
            right.close()

    def test_zero_copy_disabled_uses_buffered_path(self, docroot):
        left, right = socket.socketpair()
        driver = InlineDriver(docroot, zero_copy=False)
        try:
            connection = Connection(left, ("test", 0), driver)
            self._request(right, b"/small.txt", keep_alive=False)
            run_until(driver, lambda: connection.state == STATE_CLOSED, deadline=10.0)
            raw = drain(right, 4096, deadline=0.5)
            _, body = parse_http(raw)
            assert body == b"tiny body"
            assert driver.store.stats.sendfile_responses == 0
        finally:
            driver.shutdown()
            left.close()
            right.close()


class TestSendPathsByteIdentical:
    """Both send paths must emit identical bytes over a real socket pair."""

    def fetch_raw(self, docroot, path, zero_copy):
        left, right = socket.socketpair()
        driver = InlineDriver(docroot, zero_copy=zero_copy)
        try:
            connection = Connection(left, ("test", 0), driver)
            right.sendall(
                b"GET " + path + b" HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            received = bytearray()

            def pump():
                received.extend(drain(right, 1, deadline=0.05))
                return connection.state == STATE_CLOSED

            run_until(driver, pump, deadline=15.0)
            received.extend(drain(right, 1 << 20, deadline=0.5))
            return bytes(received)
        finally:
            driver.shutdown()
            left.close()
            right.close()

    @staticmethod
    def strip_date(raw):
        """Drop the Date header: the only legitimately time-varying byte."""
        return b"\r\n".join(
            line for line in raw.split(b"\r\n") if not line.startswith(b"Date:")
        )

    @pytest.mark.parametrize("path", [b"/small.txt", b"/big.bin"])
    def test_byte_identical_responses(self, docroot, path):
        buffered = self.fetch_raw(docroot, path, zero_copy=False)
        zero_copy = self.fetch_raw(docroot, path, zero_copy=True)
        assert self.strip_date(buffered) == self.strip_date(zero_copy)
        expected = (docroot / path.decode().lstrip("/")).read_bytes()
        assert parse_http(buffered)[1] == expected

    def test_sendfile_unavailable_falls_back(self, docroot, monkeypatch):
        """With sendfile reported missing the zero-copy config still works."""
        import repro.core.pipeline as pipeline_module
        import repro.core.send_path as send_path_module

        monkeypatch.setattr(send_path_module, "sendfile_available", lambda: False)
        # ... to whoever decides whether the body must be mapped, too.
        monkeypatch.setattr(pipeline_module, "sendfile_available", lambda: False)
        raw = self.fetch_raw(docroot, b"/small.txt", zero_copy=True)
        assert parse_http(raw)[1] == b"tiny body"


class TestWindowViews:
    def test_slices_across_buffer_boundaries(self):
        from repro.core.send_path import window_views

        buffers = [b"aaaa", b"bbbb", b"cccc"]
        views = window_views(buffers, 2, 8)
        assert b"".join(views) == b"aabbbbcc"

    def test_whole_stream(self):
        from repro.core.send_path import window_views

        buffers = [b"aaaa", b"bbbb"]
        assert b"".join(window_views(buffers, 0, 8)) == b"aaaabbbb"

    def test_window_inside_one_buffer(self):
        from repro.core.send_path import window_views

        assert b"".join(window_views([b"abcdef"], 2, 3)) == b"cde"

    def test_empty_window(self):
        from repro.core.send_path import window_views

        assert window_views([b"abcdef"], 2, 0) == []

    def test_zero_copy_views(self):
        from repro.core.send_path import window_views

        backing = bytearray(b"0123456789")
        (view,) = window_views([backing], 3, 4)
        assert bytes(view) == b"3456"
        backing[3] = ord(b"X")
        assert bytes(view) == b"X456"  # a view, not a copy


class TestExtend:
    def test_extend_appends_after_partial_send(self, pair):
        left, right = pair
        path = SendPath([b"first-"])
        assert path.send(left) == 6
        path.extend([b"second-", b"", b"third"])
        while not path.done:
            path.send(left)
        assert drain(right, len(b"first-second-third")) == b"first-second-third"

    def test_extend_revives_done_path(self, pair):
        left, right = pair
        path = SendPath([b"one"])
        while not path.done:
            path.send(left)
        assert path.done
        path.extend([b"two"])
        assert not path.done
        while not path.done:
            path.send(left)
        assert drain(right, 6) == b"onetwo"

    @requires_sendfile
    def test_extend_with_file_windows_mid_window(self, tiny_buffer_pair, tmp_path):
        """Segments of either kind append behind a half-sent file window."""
        left, right = tiny_buffer_pair
        body = os.urandom(128 * 1024)
        path = tmp_path / "body.bin"
        path.write_bytes(body)
        fd = os.open(path, os.O_RDONLY)
        try:
            content = file_content(fd, path)
            sender = SendPath([b"H1", (content, 0, len(body))], Store())
            sent = sender.send(left)
            assert 2 < sent < 2 + len(body)
            sender.extend([b"H2", (content, 100, 50), b"", (content, 0, 0)])
            expected = b"H1" + body + b"H2" + body[100:150]
            received = drain(right, sent)
            assert received + pump(sender, left, right, len(expected) - sent) == expected
        finally:
            os.close(fd)


# -- generated schedules -----------------------------------------------------------

FILE_BYTES = bytes((index * 131 + index // 251) % 256 for index in range(48 * 1024))

small_bytes = st.binary(min_size=0, max_size=40)
file_window = st.tuples(
    st.integers(0, len(FILE_BYTES) - 1), st.integers(0, 20 * 1024)
).map(lambda w: (w[0], min(w[1], len(FILE_BYTES) - w[0])))
response_shape = st.fixed_dictionaries(
    {
        "header": st.binary(min_size=1, max_size=60),
        # One part with an empty head is the plain 200/206; several parts
        # with heads are multipart; empty heads make adjacent windows.
        "parts": st.lists(st.tuples(small_bytes, file_window), min_size=0, max_size=4),
        "trailer": small_bytes,
        # The byte (counted over everything sendfile moved) at which
        # sendfile stops working, and how it fails there.
        "fail_at": st.none() | st.integers(0, 40 * 1024),
        "fail_mode": st.sampled_from(["einval", "eof"]),
        # How much of the file the fallback read can still see.
        "readable": st.none() | st.integers(0, len(FILE_BYTES)),
    }
)


def expected_wire(shape):
    """Reference: the bytes that must arrive, and whether they end short."""
    readable = FILE_BYTES if shape["readable"] is None else FILE_BYTES[: shape["readable"]]
    out = bytearray(shape["header"])
    moved = 0
    for head, (offset, length) in shape["parts"]:
        out += head
        zero_copy = length
        if shape["fail_at"] is not None:
            zero_copy = max(0, min(length, shape["fail_at"] - moved))
        out += FILE_BYTES[offset : offset + zero_copy]
        moved += zero_copy
        if zero_copy < length:
            rest = readable[offset + zero_copy : offset + length]
            out += rest
            if len(rest) < length - zero_copy:
                return bytes(out), True
    out += shape["trailer"]
    return bytes(out), False


@requires_sendfile
class TestGeneratedSchedules:
    """Random segment lists, a tiny send buffer and a sendfile that stops
    working at a generated byte: the wire carries exactly the reference
    bytes, or ends at the truncation point with ``under_delivered`` set."""

    @pytest.fixture
    def files(self, tmp_path):
        source = tmp_path / "source.bin"
        source.write_bytes(FILE_BYTES)
        fd = os.open(source, os.O_RDONLY)
        yield fd, tmp_path
        os.close(fd)

    def transmit(self, shape, files, monkeypatch, blocking):
        fd, directory = files
        readable = directory / "readable.bin"
        readable.write_bytes(
            FILE_BYTES if shape["readable"] is None else FILE_BYTES[: shape["readable"]]
        )
        content = file_content(
            fd,
            readable,
            parts=[(head, offset, length) for head, (offset, length) in shape["parts"]],
            header=shape["header"],
            trailer=shape["trailer"],
        )
        real_sendfile = os.sendfile
        moved = 0

        def flaky_sendfile(out_fd, in_fd, offset, count):
            nonlocal moved
            if shape["fail_at"] is not None:
                left = shape["fail_at"] - moved
                if left <= 0:
                    if shape["fail_mode"] == "einval":
                        raise OSError(errno.EINVAL, "injected")
                    return 0
                count = min(count, left)
            sent = real_sendfile(out_fd, in_fd, offset, count)
            moved += sent
            return sent

        monkeypatch.setattr(os, "sendfile", flaky_sendfile)
        store = Store()
        config = ServerConfig(document_root=str(directory), port=0)
        left, right = socket.socketpair()
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        received = bytearray()
        try:
            if blocking:
                left.settimeout(5.0)
                reader = threading.Thread(
                    target=lambda: received.extend(recv_until_eof(right)), daemon=True
                )
                reader.start()
                try:
                    _send_static(left, store, config, content)
                    under_delivered = False
                except ConnectionError:
                    under_delivered = True
                left.shutdown(socket.SHUT_WR)
                reader.join(timeout=5.0)
                assert not reader.is_alive()
            else:
                left.setblocking(False)
                sender = choose_send_path(
                    content, store=store, config=config, stats=store.stats
                )
                received.extend(pump(sender, left, right, 0))
                under_delivered = sender.under_delivered
                sender.release()
                left.shutdown(socket.SHUT_WR)
                received.extend(recv_until_eof(right))
        finally:
            monkeypatch.undo()
            left.close()
            right.close()
        return bytes(received), under_delivered, store.stats.sendfile_fallbacks

    @pytest.mark.parametrize("blocking", [False, True], ids=["event", "blocking"])
    @given(shape=response_shape)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_wire_matches_reference(self, files, monkeypatch, blocking, shape):
        expected, short = expected_wire(shape)
        received, under_delivered, fallbacks = self.transmit(
            shape, files, monkeypatch, blocking
        )
        assert received == expected
        assert under_delivered == short
        assert fallbacks <= 1


def recv_until_eof(sock, deadline=5.0):
    sock.settimeout(deadline)
    received = bytearray()
    while True:
        data = sock.recv(65536)
        if not data:
            return bytes(received)
        received.extend(data)
