"""Unit tests for the ``ResponseSource`` protocol and its send path.

Covers the chunked framing contract (non-empty chunks only, the
``0\\r\\n\\r\\n`` terminator, suppression on mid-stream failure), the
backpressure edges (a stalled socket pauses the source exactly once per
stall, the flushing send resumes it) and parking (``waiting_on_source``
when the producer momentarily has nothing).
"""

import os
import socket
import time

import pytest

from repro.core.streaming import (
    CHUNKED_TERMINATOR,
    END_OF_STREAM,
    IterableSource,
    ResponseSource,
    StreamingSendPath,
    WOULD_BLOCK,
    chunk_frame,
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
    left, right = socket.socketpair()
    left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    right.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    left.setblocking(False)
    yield left, right
    left.close()
    right.close()


def drain(sock, expected, deadline=5.0):
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


class ScriptedSource(ResponseSource):
    """Replays a fixed script of segments/sentinels and records flow calls."""

    def __init__(self, script):
        super().__init__()
        self.script = list(script)
        self.pauses = 0
        self.resumes = 0
        self.closed = False

    def next_segment(self):
        if not self.script:
            return END_OF_STREAM
        return self.script.pop(0)

    def pause(self):
        self.pauses += 1

    def resume(self):
        self.resumes += 1

    def close(self):
        self.closed = True


class TestChunkFraming:
    def test_chunk_frame_shape(self):
        assert chunk_frame(b"hello") == [b"5\r\n", b"hello", b"\r\n"]
        assert chunk_frame(b"x" * 255) == [b"ff\r\n", b"x" * 255, b"\r\n"]

    def test_terminator(self):
        assert CHUNKED_TERMINATOR == b"0\r\n\r\n"


class TestIterableSource:
    def test_yields_bytes_then_end(self):
        source = IterableSource([b"a", b"bc"])
        assert source.next_segment() == b"a"
        assert source.next_segment() == b"bc"
        assert source.next_segment() is END_OF_STREAM
        assert source.next_segment() is END_OF_STREAM

    def test_str_items_encode_utf8(self):
        source = IterableSource(["héllo"])
        assert source.next_segment() == "héllo".encode("utf-8")

    def test_empty_items_skipped(self):
        source = IterableSource([b"", b"x", b"", b""])
        assert source.next_segment() == b"x"
        assert source.next_segment() is END_OF_STREAM

    def test_mid_iteration_exception_marks_failed(self):
        def broken():
            yield b"ok"
            raise RuntimeError("producer died")

        source = IterableSource(broken())
        assert source.next_segment() == b"ok"
        assert source.next_segment() is END_OF_STREAM
        assert source.failed

    def test_close_runs_generator_finally(self):
        cleaned = []

        def producer():
            try:
                yield b"a"
                yield b"b"
            finally:
                cleaned.append(True)

        source = IterableSource(producer())
        assert source.next_segment() == b"a"
        source.close()
        assert cleaned == [True]
        assert source.next_segment() is END_OF_STREAM


class TestStreamingSendPath:
    def recv_all(self, sender, left, right, deadline=5.0):
        received = bytearray()
        end = time.monotonic() + deadline
        while not sender.done and time.monotonic() < end:
            sender.send(left)
            received.extend(drain(right, 1, deadline=0.05))
        received.extend(drain(right, 1 << 20, deadline=0.2))
        return bytes(received)

    def test_chunked_framing_on_the_wire(self, pair):
        left, right = pair
        sender = StreamingSendPath(
            b"HDR\r\n\r\n", IterableSource([b"abc", b"defgh"]), chunked=True
        )
        raw = self.recv_all(sender, left, right)
        assert raw == b"HDR\r\n\r\n" + b"3\r\nabc\r\n" + b"5\r\ndefgh\r\n" + b"0\r\n\r\n"
        assert sender.done and not sender.under_delivered

    def test_close_delimited_raw_output(self, pair):
        left, right = pair
        sender = StreamingSendPath(
            b"HDR\r\n\r\n", IterableSource([b"abc", b"def"]), chunked=False
        )
        raw = self.recv_all(sender, left, right)
        assert raw == b"HDR\r\n\r\nabcdef"
        assert sender.done

    def test_zero_length_body_is_bare_terminator(self, pair):
        left, right = pair
        sender = StreamingSendPath(b"HDR\r\n\r\n", IterableSource([]), chunked=True)
        raw = self.recv_all(sender, left, right)
        assert raw == b"HDR\r\n\r\n" + CHUNKED_TERMINATOR

    def test_empty_segments_never_terminate_early(self, pair):
        left, right = pair
        sender = StreamingSendPath(
            b"", IterableSource([b"", b"a", b"", b"b"]), chunked=True
        )
        raw = self.recv_all(sender, left, right)
        assert raw == b"1\r\na\r\n1\r\nb\r\n0\r\n\r\n"

    def test_failed_source_suppresses_terminator(self, pair):
        left, right = pair

        def broken():
            yield b"partial"
            raise RuntimeError("child died")

        sender = StreamingSendPath(b"", IterableSource(broken()), chunked=True)
        raw = self.recv_all(sender, left, right)
        assert raw == b"7\r\npartial\r\n"          # no 0\r\n\r\n: unambiguous truncation
        assert sender.done
        assert sender.under_delivered

    def test_would_block_parks_the_writer(self, pair):
        left, right = pair
        source = ScriptedSource([b"one", WOULD_BLOCK, b"two"])
        sender = StreamingSendPath(b"", source, chunked=True)
        sender.send(left)
        assert not sender.done
        assert sender.waiting_on_source
        assert drain(right, 8) == b"3\r\none\r\n"
        # Data arrived: the next drive transmits the rest and finishes.
        sender.send(left)
        assert sender.done
        assert not sender.waiting_on_source
        assert drain(right, 13) == b"3\r\ntwo\r\n0\r\n\r\n"

    def test_stalled_socket_pauses_source_once(self, tiny_buffer_pair):
        left, right = tiny_buffer_pair
        source = ScriptedSource([os.urandom(64 * 1024) for _ in range(8)])
        pauses = []
        sender = StreamingSendPath(
            b"", source, chunked=True, on_pause=lambda: pauses.append(1)
        )
        # Fill the tiny socket buffer without draining: the source must be
        # paused, and repeated futile sends must not re-fire the edge.
        for _ in range(4):
            sender.send(left)
        assert sender.paused
        assert source.pauses == 1
        assert len(pauses) == 1
        # Drain the consumer: the flushing send resumes the producer and
        # the full framed stream arrives intact.
        received = bytearray()
        deadline = time.monotonic() + 10.0
        while not sender.done and time.monotonic() < deadline:
            sender.send(left)
            received.extend(drain(right, 1, deadline=0.05))
        received.extend(drain(right, 1 << 20, deadline=0.2))
        assert sender.done
        assert source.resumes >= 1
        assert bytes(received).endswith(CHUNKED_TERMINATOR)

    def test_release_closes_source(self, pair):
        left, _right = pair
        source = ScriptedSource([b"x"])
        sender = StreamingSendPath(b"", source, chunked=True)
        sender.release()
        assert source.closed
        assert sender.done
