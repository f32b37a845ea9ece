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
"""

import email.utils
import mmap
import socket

import pytest

from repro.core.config import ServerConfig
from repro.servers import create_server

BODY = b"b" * 2048


class Budget:
    """Call counts of the wrapped callees since the last :meth:`reset`."""

    def __init__(self, server, monkeypatch):
        self.counts = {}
        loop = server.loop
        self._wrap(monkeypatch, server.store.header_builder, "build", "header_builds")
        self._wrap(monkeypatch, email.utils, "formatdate", "formatdate")
        self._wrap(monkeypatch, mmap, "mmap", "mmaps")
        for name in ("register", "modify", "unregister"):
            self._wrap(monkeypatch, loop, name, "selector")
        self._wrap(monkeypatch, loop.wheel, "schedule", "schedules")

    def _wrap(self, monkeypatch, owner, name, counter):
        real = getattr(owner, name)
        self.counts.setdefault(counter, 0)

        def counting(*args, **kwargs):
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
