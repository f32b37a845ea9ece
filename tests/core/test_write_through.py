"""A hot hit the socket does not take whole: the one pass hands the rest on.

A plain hot GET on an idle connection is written straight from its hot
entry (``SendPath.write_through``).  Whatever the socket does not take
becomes an ordinary pinned ``SendPath`` from the exact cursor, so every
hard case stays the sender's.  Each case here runs twice, on a fresh SPED
or AMPED server under the same fault: once through the one pass, and once
through the queued path — the connection is told ``sendfile`` is not
available to it, so the hit is queued as a sender whose window still
leaves by ``sendfile``.  Both runs must give the same bytes (``Date``
and the validators aside) and the same counters, and leave the
descriptor's refcount at the hot entry's own pin.
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
REQUEST = b"GET /a.bin HTTP/1.1\r\nHost: t\r\n\r\n"
COUNTERS = (
    "requests",
    "responses_ok",
    "hot_hits",
    "sendfile_responses",
    "sendfile_fallbacks",
    "bytes_sent",
)


def answer_length(received):
    head_end = received.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    match = re.search(rb"Content-Length: (\d+)", received[:head_end])
    return head_end + 4 + int(match.group(1))


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
    """Every write would block until the file has shrunk to 100 bytes."""

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
            os.truncate(root / "a.bin", 100)
            self.blocked = False


FAULTS = {
    "eagain-header": EagainOnHeader,
    "stalled-reader": StalledReader,
    "einval-mid-body": EinvalMidBody,
    "truncated": TruncatedAfterHeaderQueued,
}


def run(architecture, root, fault, queued, monkeypatch):
    """Warm the hot cache, then make one hot hit under ``fault``."""
    root.mkdir()
    (root / "a.bin").write_bytes(bytes(range(256)) * (SIZE // 256))
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
            end = answer_length(received)
            return closed or (end is not None and len(received) >= end)

        client.sendall(REQUEST)
        turn_until(whole)
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
            client.sendall(REQUEST)
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


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("architecture", ["sped", "amped"])
def test_the_rest_leaves_as_the_queued_path_sends_it(architecture, fault, tmp_path, monkeypatch):
    one_pass = run(architecture, tmp_path / "one-pass", FAULTS[fault](), False, monkeypatch)
    queued = run(architecture, tmp_path / "queued", FAULTS[fault](), True, monkeypatch)
    assert one_pass.pop("short") == [True]
    assert queued.pop("short") == []
    assert one_pass == queued
    # Only the hot entry's own pin is left on the descriptor.
    assert one_pass["refcount"] == 1
    counters = one_pass["counters"]
    assert counters["hot_hits"] == counters["requests"] == counters["responses_ok"] == 1
    assert counters["sendfile_responses"] == 1
    body = one_pass["response"].partition(b"\r\n\r\n")[2]
    if fault == "truncated":
        # The header promised 64 KiB; 100 bytes exist.  Under-delivered:
        # the connection closes instead of being reused.
        assert one_pass["closed"] and body == bytes(range(100))
        assert counters["sendfile_fallbacks"] == 1
    else:
        assert body == bytes(range(256)) * (SIZE // 256)
        assert not one_pass["closed"]
        assert counters["sendfile_fallbacks"] == (fault == "einval-mid-body")
