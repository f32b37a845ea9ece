"""What one request costs, counted exactly.

Wall-clock numbers on a shared host move by tens of percent with no code
change; these do not move at all.  An un-started server is driven over a
loopback socket from this thread (every ``run_once`` is ours), with the
expensive callees wrapped on the server's own objects: header builds, date
formatting, mapping objects, selector calls and timer-wheel arms.  The
budgets are the cold path's contract — a miss composes the one header it
sends, probes residency without building a mapping, and touches the
selector only when a write would block or a helper was dispatched — and
the lifecycle's: interest and deadline are applied once per callback, so
a pipelined burst answered within one tick costs what one request does.

The ledger at the end counts the server socket's writes (``send``,
``sendmsg``, ``os.sendfile``) and options (``setsockopt``) for pipelined
bursts on both transports — the blocking one is ``handle_client`` on a TCP
pair — which the one output queue per connection bounds.
"""

import contextlib
import email.utils
import mmap
import os
import re
import socket
import threading
import time
import types

import pytest

import repro.cache.residency as residency
from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore
from repro.core.send_path import QUEUE_BYTES, SendPath, sendfile_available
from repro.servers import create_server
from repro.servers.blocking import handle_client

BODY = b"b" * 2048


class Budget:
    """Call counts of the wrapped callees since the last :meth:`reset`."""

    def __init__(self, server, monkeypatch, fd=None):
        self.counts = {}
        self._wrap(monkeypatch, server.store.header_builder, "build", "header_builds")
        self._wrap(monkeypatch, email.utils, "formatdate", "formatdate")
        loop = getattr(server, "loop", None)  # the blocking transport has none
        if loop is not None:
            for name in ("register", "modify", "unregister"):
                self._wrap(monkeypatch, loop, name, "selector")
            self._wrap(monkeypatch, loop.wheel, "schedule", "schedules")
        if fd is None:
            self._wrap(monkeypatch, mmap, "mmap", "mmaps")
        else:
            # Bursts of buffered answers keep their mappings, which AMPED's
            # residency test tells by ``isinstance(..., mmap.mmap)``: the
            # class stays real.  Sockets take no attributes, so their
            # methods are wrapped on the class, counted for ``fd`` only.
            ours = lambda sock, *_: sock.fileno() == fd  # noqa: E731
            for name in ("send", "sendmsg", "setsockopt"):
                self._wrap(monkeypatch, socket.socket, name, name, ours)
            self._wrap(monkeypatch, os, "sendfile", "sendfile", lambda out, *_: out == fd)

    def _wrap(self, monkeypatch, owner, name, counter, counted=lambda *_: True):
        real = getattr(owner, name)
        self.counts.setdefault(counter, 0)

        def counting(*args, **kwargs):
            if counted(*args):
                self.counts[counter] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    def reset(self):
        for counter in self.counts:
            self.counts[counter] = 0

    def __getattr__(self, counter):
        try:
            return self.counts[counter]
        except KeyError:
            raise AttributeError(counter) from None


def get(target, *lines):
    head = [f"GET {target} HTTP/1.1", "Host: budget", *lines]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")


def response_complete(received):
    head_end = received.find(b"\r\n\r\n")
    if head_end < 0:
        return False
    length = 0
    for line in received[:head_end].split(b"\r\n")[1:]:
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    return len(received) >= head_end + 4 + length


def exchange(server, client, raw, until_closed=False):
    """Send ``raw`` and turn the server's loop until the response is whole
    (and, for a closing exchange, until the server has closed)."""
    client.sendall(raw)
    received = bytearray()
    closed = False
    for _ in range(2000):
        server.loop.run_once(0.005)
        try:
            data = client.recv(1 << 16)
        except BlockingIOError:
            data = None
        if data == b"":
            closed = True
        elif data:
            received += data
        if response_complete(received) and (closed or not until_closed):
            return bytes(received)
    raise AssertionError(f"no complete response; got {bytes(received)!r}")


def connect(server):
    client = socket.create_connection(server.address)
    client.setblocking(False)
    before = server.stats.connections_accepted
    for _ in range(2000):
        if server.stats.connections_accepted > before:
            return client
        server.loop.run_once(0.005)
    raise AssertionError("the server never accepted the connection")


@pytest.fixture(params=["sped", "amped"])
def server(request, tmp_path):
    for name in ("a.txt", "b.txt", "c.txt"):
        (tmp_path / name).write_bytes(BODY)
    config = ServerConfig(document_root=str(tmp_path), port=0, num_helpers=1)
    server = create_server(request.param, config)
    server.bind()
    yield server
    server.close()


def test_cold_get_builds_one_header_and_no_mapping(server, monkeypatch):
    client = connect(server)
    try:
        budget = Budget(server, monkeypatch)
        response = exchange(server, client, get("/a.txt"))
        assert response.startswith(b"HTTP/1.1 200") and response.endswith(BODY)
        assert b"Connection: keep-alive" in response
        assert server.stats.hot_insertions == 1
        assert budget.header_builds == 1
        assert budget.mmaps == 0
        # Date and Last-Modified: at most one formatting per distinct second.
        assert budget.formatdate <= 2
        # Another cold file within the memo: its header formats nothing
        # unless the wall clock (or the files' mtimes) crossed a second.
        budget.reset()
        exchange(server, client, get("/b.txt"))
        assert budget.header_builds == 1
        assert budget.mmaps == 0
        assert budget.formatdate <= 2
    finally:
        client.close()


def test_hot_hit_and_synchronous_miss_leave_the_selector_alone(server, monkeypatch):
    client = connect(server)
    try:
        exchange(server, client, get("/a.txt"))  # translate, build, insert
        budget = Budget(server, monkeypatch)
        for _ in range(3):
            budget.reset()
            response = exchange(server, client, get("/a.txt"))
            assert response.endswith(BODY)
            assert budget.selector == 0
            assert budget.header_builds == 0
            assert budget.formatdate == 0
            # The header budget starts on the first byte and the idle
            # budget replaces it within the same tick: only the idle one
            # reaches the wheel.
            assert budget.schedules == 1
        assert server.stats.hot_hits == 3
        # A spelling the hot cache has not seen, of a path the pathname
        # cache has: a miss that completes without leaving the loop tick.
        hits = server.stats.hot_hits
        dispatches = server.stats.helper_dispatches
        budget.reset()
        response = exchange(server, client, get("/./a.txt"))
        assert response.endswith(BODY)
        assert server.stats.hot_hits == hits
        assert server.stats.helper_dispatches == dispatches
        assert budget.selector == 0
        assert budget.mmaps == 0
        assert budget.schedules == 1
    finally:
        client.close()


def test_other_variants_are_built_once_on_first_use(server, monkeypatch):
    client = connect(server)
    try:
        first = exchange(server, client, get("/a.txt"))
        etag = next(
            line.split(b": ", 1)[1]
            for line in first.split(b"\r\n")
            if line.startswith(b"ETag: ")
        ).decode("latin-1")
        budget = Budget(server, monkeypatch)

        # The first conditional hit composes the keep-alive 304; the second
        # finds it on the entry.
        for expected_builds in (1, 0):
            budget.reset()
            response = exchange(server, client, get("/a.txt", f"If-None-Match: {etag}"))
            assert response.startswith(b"HTTP/1.1 304")
            assert b"Connection: keep-alive" in response
            assert budget.header_builds == expected_builds
            assert budget.selector == 0
    finally:
        client.close()

    # Likewise the close-flavoured 200 (a closing exchange spends its
    # connection, so each takes a fresh one).
    for expected_builds in (1, 0):
        client = connect(server)
        try:
            budget.reset()
            response = exchange(
                server, client, get("/a.txt", "Connection: close"), until_closed=True
            )
            assert response.startswith(b"HTTP/1.1 200") and response.endswith(BODY)
            assert b"Connection: close" in response
            assert budget.header_builds == expected_builds
        finally:
            client.close()
    assert server.stats.hot_hits == 4
    assert server.stats.hot_insertions == 1


def test_pipelined_conditional_burst_applies_interest_and_deadline_once(server, monkeypatch):
    client = connect(server)
    try:
        first = exchange(server, client, get("/a.txt"))
        etag = next(
            line.split(b": ", 1)[1]
            for line in first.split(b"\r\n")
            if line.startswith(b"ETag: ")
        ).decode("latin-1")
        exchange(server, client, get("/a.txt", f"If-None-Match: {etag}"))  # compose the 304
        budget = Budget(server, monkeypatch)
        # Ten conditionals in one segment: each leaves the fast probe and is
        # answered 304 from the hot cache within the tick that read them.
        client.sendall(get("/a.txt", f"If-None-Match: {etag}") * 10)
        received = bytearray()
        for _ in range(2000):
            server.loop.run_once(0.005)
            try:
                received += client.recv(1 << 16)
            except BlockingIOError:
                pass
            if received.count(b"HTTP/1.1 304") == 10:
                break
        assert received.count(b"HTTP/1.1 304") == 10
        assert budget.selector == 0
        # The burst's header budget and the idle budget after it; the nine
        # header budgets in between never reach the wheel.
        assert budget.schedules <= 2
    finally:
        client.close()


@pytest.mark.skipif(
    residency._RWF_NOWAIT is None or not sendfile_available(),
    reason="needs sendfile and preadv(RWF_NOWAIT)",
)
def test_amped_cold_large_get_maps_nothing(tmp_path, monkeypatch):
    """A 256 KiB window is four times the probe's scratch buffer: residency
    is still one ``preadv(RWF_NOWAIT)``, not a transient mapping."""
    body = os.urandom(256 * 1024)
    (tmp_path / "large.bin").write_bytes(body)
    config = ServerConfig(document_root=str(tmp_path), port=0, num_helpers=1)
    server = create_server("amped", config)
    server.bind()
    try:
        client = connect(server)
        try:
            budget = Budget(server, monkeypatch)
            response = exchange(server, client, get("/large.bin"))
            assert response.startswith(b"HTTP/1.1 200") and response.endswith(body)
            assert budget.mmaps == 0
            assert budget.header_builds == 1
            assert server.stats.sendfile_responses == 1
        finally:
            client.close()
    finally:
        server.close()


# -- the ledger: pipelined bursts on both transports --------------------------


@contextlib.contextmanager
def transport(adapter, root, **overrides):
    """A connected client of ``adapter`` (sped, amped or blocking).

    Yields ``(owner, fd, turn, client)``: what :class:`Budget` wraps, the
    server-side socket's descriptor, one turn of the server (a loop tick,
    or a pause while the worker thread runs) and the non-blocking client.
    """
    config = ServerConfig(document_root=str(root), port=0, num_helpers=1, **overrides)
    if adapter != "blocking":
        server = create_server(adapter, config)
        server.bind()
        client = connect(server)
        try:
            (connection,) = server._connections
            yield server, connection.sock.fileno(), lambda: server.loop.run_once(0.005), client
        finally:
            client.close()
            server.close()
        return
    store = ContentStore(config)
    listener = socket.create_server(("127.0.0.1", 0))
    client = socket.create_connection(listener.getsockname())
    server_side, _ = listener.accept()
    listener.close()
    client.setblocking(False)
    worker = threading.Thread(target=handle_client, args=(server_side, store, config))
    worker.start()
    try:
        owner = types.SimpleNamespace(store=store)
        yield owner, server_side.fileno(), lambda: time.sleep(0.002), client
    finally:
        client.close()
        worker.join(timeout=5.0)
        store.close()
    assert not worker.is_alive()


def collect(turn, client, raw, status, count):
    """Send ``raw``; turn the server until ``count`` whole ``status`` answers arrived."""
    client.sendall(raw)
    received = bytearray()
    for _ in range(5000):
        turn()
        try:
            received += client.recv(1 << 20)
        except BlockingIOError:
            pass
        last = received.rfind(status)
        if received.count(status) == count and response_complete(received[last:]):
            return bytes(received)
    raise AssertionError(f"{received.count(status)} of {count} answers arrived")


#: Per burst shape: the request's extra header lines and the status line.
SHAPES = {
    "200": ((), b"HTTP/1.1 200 "),
    "304": (("If-None-Match: {etag}",), b"HTTP/1.1 304 "),
    "206": (("Range: bytes=0-99",), b"HTTP/1.1 206 "),
}


@pytest.mark.parametrize("zero_copy", [True, False], ids=["zero-copy", "buffered"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("adapter", ["sped", "amped", "blocking"])
def test_pipelined_burst_leaves_through_one_queue(adapter, shape, zero_copy, tmp_path, monkeypatch):
    """Ten pipelined hot answers join one output queue: no ``TCP_CORK``,
    one vectored write when every answer is buffered, and one write per
    header plus one ``sendfile`` per window when zero-copy is on."""
    (tmp_path / "a.txt").write_bytes(BODY)
    lines, status = SHAPES[shape]
    with transport(adapter, tmp_path, zero_copy=zero_copy) as (owner, fd, turn, client):
        first = collect(turn, client, get("/a.txt"), b"HTTP/1.1 200 ", 1)
        etag = re.search(rb"ETag: ([^\r]*)", first).group(1).decode("latin-1")
        request = get("/a.txt", *(line.format(etag=etag) for line in lines))
        collect(turn, client, request, status, 1)  # compose the shape's variant
        budget = Budget(owner, monkeypatch, fd=fd)
        burst = collect(turn, client, request * 10, status, 10)
        counts = dict(budget.counts)
        monkeypatch.undo()  # the teardown's own calls are not the burst's
    assert burst.count(status) == 10
    assert counts["setsockopt"] == 0
    writes = counts["send"] + counts["sendmsg"]
    if zero_copy and shape != "304":
        assert writes <= 10 and counts["sendfile"] == 10
    else:
        assert writes == 1 and counts["sendfile"] == 0
    if adapter != "blocking":
        assert counts["selector"] == 0
        assert counts["schedules"] <= 2


@pytest.mark.parametrize("adapter", ["sped", "blocking"])
def test_a_64k_burst_is_queued_in_bounded_slices(adapter, tmp_path, monkeypatch):
    """One 64 KiB read of minimal pipelined GETs: every answer arrives, and
    no queue ever holds more than ``QUEUE_BYTES`` plus one response unsent
    (an unbounded merge once held all 3,449 in one sender)."""
    (tmp_path / "a").write_bytes(b"a")
    peak = [0]
    real_extend = SendPath.extend

    def extend(self, segments):
        real_extend(self, segments)
        peak[0] = max(peak[0], self.unsent)

    request = b"GET /a HTTP/1.1\r\n\r\n"
    count = (64 * 1024) // len(request)
    with transport(adapter, tmp_path) as (_owner, _fd, turn, client):
        collect(turn, client, request, b"HTTP/1.1 200 ", 1)  # populate the hot cache
        monkeypatch.setattr(SendPath, "extend", extend)
        burst = collect(turn, client, request * count, b"HTTP/1.1 200 ", count)
    answers = re.sub(rb"Date: [^\r]*\r\n", b"", burst)
    one = len(answers) // count
    assert answers == answers[:one] * count
    assert answers[:one].endswith(b"\r\n\r\na")
    assert QUEUE_BYTES < peak[0] <= QUEUE_BYTES + len(burst) // count
