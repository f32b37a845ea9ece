"""A hot hit the socket does not take whole: the one pass hands the rest on.

A hot 200, single-range 206, 304 or HEAD on an idle connection is written
straight from its hot entry (``SendPath.write_through``).  Whatever the
socket does not take becomes an ordinary pinned ``SendPath`` from the
exact cursor — for a 206, from the window's file offset plus what moved —
so every hard case stays the sender's.  Each case here runs twice, on a
fresh SPED or AMPED server under the same fault: once through the one
pass, and once through the queued path — the connection is told
``sendfile`` is not available to it, so the hit is queued as a sender
whose window still leaves by ``sendfile``.  Both runs must give the same
bytes (``Date`` and the validators aside) and the same counters, and
leave the descriptor's refcount at the hot entry's own pin.
"""

import errno
import os
import re
import socket

import pytest

import repro.core.connection as connection_module
from repro.core.config import ServerConfig
from repro.core.send_path import SendPath, sendfile_available
from repro.servers import create_server

pytestmark = pytest.mark.skipif(not sendfile_available(), reason="needs sendfile")

SIZE = 64 * 1024
PATTERN = bytes(range(256)) * (SIZE // 256)
REQUEST = b"GET /a.bin HTTP/1.1\r\nHost: t\r\n\r\n"
COUNTERS = (
    "requests",
    "responses_ok",
    "hot_hits",
    "sendfile_responses",
    "sendfile_fallbacks",
    "range_responses",
    "not_modified_responses",
    "bytes_sent",
)

#: The hot hit's request (``{etag}`` is the warm answer's) and the file
#: offset its window starts at; ``None`` for a bodyless answer.
SHAPES = {
    "200": (REQUEST, 0),
    "206": (b"GET /a.bin HTTP/1.1\r\nHost: t\r\nRange: bytes=1000-\r\n\r\n", 1000),
    "304": (b"GET /a.bin HTTP/1.1\r\nHost: t\r\nIf-None-Match: {etag}\r\n\r\n", None),
    "head": (b"HEAD /a.bin HTTP/1.1\r\nHost: t\r\n\r\n", None),
}


def answer_length(received, head=False):
    head_end = received.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    match = re.search(rb"Content-Length: (\d+)", received[:head_end])
    return head_end + 4 + (int(match.group(1)) if match and not head else 0)


class Fault:
    """What goes wrong during the hot hit; installed after the warm miss."""

    #: Client receive buffer, set before connecting (0 = the default).
    rcvbuf = 0
    #: Loop turns before the client starts reading.
    stall = 0

    def install(self, patch, fd):
        pass

    def tick(self, turn, root):
        pass


class EagainOnHeader(Fault):
    def install(self, patch, fd):
        real = socket.socket.send
        state = {"refused": False}

        def send(sock, *args):
            if sock.fileno() == fd and not state["refused"]:
                state["refused"] = True
                raise BlockingIOError(errno.EAGAIN, "full")
            return real(sock, *args)

        patch.setattr(socket.socket, "send", send)


class StalledReader(Fault):
    """The body is cut short behind a 4 KiB receive buffer."""

    rcvbuf = 4096
    stall = 20

    def install(self, patch, fd):
        sock = socket.socket(fileno=os.dup(fd))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sock.close()


class ShortHeader(Fault):
    """The socket takes the first 10 header bytes, then would block once."""

    def install(self, patch, fd):
        real = socket.socket.send
        state = {"calls": 0}

        def send(sock, data, *args):
            if sock.fileno() == fd:
                state["calls"] += 1
                if state["calls"] == 1:
                    return real(sock, data[:10], *args)
                if state["calls"] == 2:
                    raise BlockingIOError(errno.EAGAIN, "full")
            return real(sock, data, *args)

        patch.setattr(socket.socket, "send", send)


class EinvalMidBody(Fault):
    """``sendfile`` moves 1,000 bytes, then refuses this pair."""

    def install(self, patch, fd):
        real = os.sendfile
        state = {"calls": 0}

        def sendfile(out, in_fd, offset, count):
            if out != fd:
                return real(out, in_fd, offset, count)
            state["calls"] += 1
            if state["calls"] == 1:
                return real(out, in_fd, offset, min(count, 1000))
            raise OSError(errno.EINVAL, "not here")

        patch.setattr(os, "sendfile", sendfile)


class TruncatedAfterHeaderQueued(Fault):
    """Every write would block until the file has shrunk to 100 bytes past
    the window's start."""

    #: The window's file offset (set per shape).
    offset = 0

    def install(self, patch, fd):
        real = socket.socket.send
        self.blocked = True

        def send(sock, *args):
            if sock.fileno() == fd and self.blocked:
                raise BlockingIOError(errno.EAGAIN, "full")
            return real(sock, *args)

        patch.setattr(socket.socket, "send", send)

    def tick(self, turn, root):
        if turn == 5:
            os.truncate(root / "a.bin", self.offset + 100)
            self.blocked = False


FAULTS = {
    "eagain-header": EagainOnHeader,
    "short-header": ShortHeader,
    "stalled-reader": StalledReader,
    "einval-mid-body": EinvalMidBody,
    "truncated": TruncatedAfterHeaderQueued,
}

#: The faults a header alone can meet.
HEADER_FAULTS = ("eagain-header", "short-header")

CASES = [
    (shape, fault)
    for shape, (_, offset) in sorted(SHAPES.items())
    for fault in sorted(FAULTS)
    if offset is not None or fault in HEADER_FAULTS
]


def run(architecture, root, shape, fault, queued, monkeypatch):
    """Warm the hot cache, then make one hot hit of ``shape`` under ``fault``."""
    request, offset = SHAPES[shape]
    fault.offset = offset
    root.mkdir()
    (root / "a.bin").write_bytes(PATTERN)
    config = ServerConfig(document_root=str(root), port=0, num_helpers=1)
    server = create_server(architecture, config)
    server.bind()
    client = socket.socket()
    try:
        if fault.rcvbuf:
            client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, fault.rcvbuf)
        client.connect(server.address)
        client.setblocking(False)

        def turn_until(done, on_turn=lambda _: None, stall=0):
            received = bytearray()
            closed = False
            for number in range(4000):
                server.loop.run_once(0.002)
                on_turn(number)
                if number < stall:
                    continue
                try:
                    data = client.recv(1 << 16)
                except BlockingIOError:
                    data = None
                if data == b"":
                    closed = True
                elif data:
                    received += data
                if done(received, closed):
                    return bytes(received), closed
            raise AssertionError(f"no answer; got {bytes(received)[:200]!r}")

        def whole(received, closed):
            end = answer_length(received, request.startswith(b"HEAD"))
            return closed or (end is not None and len(received) >= end)

        client.sendall(REQUEST)
        warm, _ = turn_until(whole)
        etag = re.search(rb"ETag: ([^\r]*)", warm).group(1)
        request = request.replace(b"{etag}", etag)
        (connection,) = server._connections
        entry = server.store.hot_cache._entries[b"/a.bin"]
        handle = entry.file_handle
        before = {name: getattr(server.stats, name) for name in COUNTERS}
        rests = []
        with monkeypatch.context() as patch:
            if queued:
                patch.setattr(connection_module, "sendfile_available", lambda: False)
            real = SendPath.write_through

            def write_through(sock, header, handle, offset, length):
                sent = real(sock, header, handle, offset, length)
                rests.append(len(header) + length - sent)
                return sent

            patch.setattr(SendPath, "write_through", staticmethod(write_through))
            fault.install(patch, connection.sock.fileno())
            client.sendall(request)
            response, closed = turn_until(
                whole, lambda number: fault.tick(number, root), fault.stall
            )
        counters = {name: getattr(server.stats, name) - before[name] for name in COUNTERS}
        return {
            # Two docroots: their files differ in mtime, so in validators.
            "response": re.sub(rb"(Date|Last-Modified|ETag): [^\r]*\r\n", b"", response),
            "closed": closed,
            "counters": counters,
            "refcount": handle.refcount,
            # What the one pass left for a sender: nothing on the queued path.
            "short": [rest > 0 for rest in rests],
        }
    finally:
        client.close()
        server.close()


@pytest.mark.parametrize("shape, fault", CASES, ids=["-".join(case) for case in CASES])
@pytest.mark.parametrize("architecture", ["sped", "amped"])
def test_the_rest_leaves_as_the_queued_path_sends_it(
    architecture, shape, fault, tmp_path, monkeypatch
):
    one_pass = run(architecture, tmp_path / "one-pass", shape, FAULTS[fault](), False, monkeypatch)
    queued = run(architecture, tmp_path / "queued", shape, FAULTS[fault](), True, monkeypatch)
    assert one_pass.pop("short") == [True]
    assert queued.pop("short") == []
    assert one_pass == queued
    # Only the hot entry's own pin is left on the descriptor.
    assert one_pass["refcount"] == 1
    counters = one_pass["counters"]
    assert counters["hot_hits"] == counters["requests"] == counters["responses_ok"] == 1
    offset = SHAPES[shape][1]
    assert counters["sendfile_responses"] == (offset is not None)
    assert counters["range_responses"] == (shape == "206")
    assert counters["not_modified_responses"] == (shape == "304")
    body = one_pass["response"].partition(b"\r\n\r\n")[2]
    if offset is None:
        assert body == b"" and not one_pass["closed"]
    elif fault == "truncated":
        # The header promised the window; 100 bytes of it exist.
        # Under-delivered: the connection closes instead of being reused.
        assert one_pass["closed"] and body == PATTERN[offset : offset + 100]
        assert counters["sendfile_fallbacks"] == 1
    else:
        assert body == PATTERN[offset:]
        assert not one_pass["closed"]
        assert counters["sendfile_fallbacks"] == (fault == "einval-mid-body")
