"""One scripted schedule through both lifecycle adapters.

The deadline policy and the keep-alive continuation live in one place
(``core/session.py``); the two transports only carry its intents out —
the event-driven ``Connection`` on the timer wheel, the blocking
``handle_client`` with socket timeouts.  This drives the same fragments
and pauses, against the same 0.3 s budgets, through an un-started SPED
server turned by ``loop.run_once`` and through ``handle_client`` on a
socketpair, and requires the same bytes (``Date`` aside) and the same
``timeouts_*`` deltas from both.
"""

import re
import socket
import threading
import time

import pytest

from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore
from repro.servers import create_server
from repro.servers.blocking import handle_client

BUDGET = 0.3


def get(path, *lines):
    return ("\r\n".join([f"GET {path} HTTP/1.1", "Host: t", *lines]) + "\r\n\r\n").encode()


#: Each scenario is one connection: (fragment, pause after it) pairs; the
#: client then reads until the server closes.
SCHEDULE = {
    # A slowloris: the head dribbles in and never completes → 408.
    "dribbled head": [(b"GET /a.txt HTT", 0.05), (b"P/1.1\r\n", 0.05), (b"Host: t\r\n", 0.0)],
    # A complete exchange, then silence → the idle budget closes it.
    "idle keep-alive": [(get("/a.txt"), 0.0)],
    # Two pipelined requests and the start of a third → two answers, 408.
    "pipelined tail": [(get("/a.txt") + get("/b.txt") + b"GET /a.t", 0.0)],
}


def config_for(root):
    return ServerConfig(
        document_root=str(root),
        port=0,
        num_workers=1,
        header_timeout=BUDGET,
        idle_timeout=BUDGET,
        write_stall_timeout=BUDGET,
    )


def play(client, script, pump):
    """Send the fragments with their pauses, then read until the close."""
    received = bytearray()
    client.setblocking(False)

    def collect(seconds):
        end = time.monotonic() + seconds
        while True:
            pump()
            try:
                data = client.recv(65536)
            except BlockingIOError:
                data = None
            if data == b"":
                return True
            if data:
                received.extend(data)
            if time.monotonic() >= end:
                return False

    for fragment, pause in script:
        client.sendall(fragment)
        collect(pause)
    assert collect(5.0), f"the server never closed; got {bytes(received)!r}"
    return bytes(received)


def timeouts(stats):
    return stats.timeouts_header, stats.timeouts_idle, stats.timeouts_write_stall


def through_connection(root):
    server = create_server("sped", config_for(root))
    server.bind()
    try:

        def pump():
            server.loop.run_once(0.005)

        before = timeouts(server.stats)
        streams = {}
        for name, script in SCHEDULE.items():
            client = socket.create_connection(server.address)
            try:
                streams[name] = play(client, script, pump)
            finally:
                client.close()
        return streams, [a - b for a, b in zip(timeouts(server.stats), before)]
    finally:
        server.close()


def through_handle_client(root):
    config = config_for(root)
    store = ContentStore(config)
    try:
        before = timeouts(store.stats)
        streams = {}
        for name, script in SCHEDULE.items():
            server_side, client = socket.socketpair()
            worker = threading.Thread(target=handle_client, args=(server_side, store, config))
            worker.start()
            try:
                streams[name] = play(client, script, lambda: time.sleep(0.005))
            finally:
                client.close()
                worker.join(timeout=5.0)
            assert not worker.is_alive()
        return streams, [a - b for a, b in zip(timeouts(store.stats), before)]
    finally:
        store.close()


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "a.txt").write_bytes(b"a" * 700)
    (tmp_path / "b.txt").write_bytes(b"b" * 300)
    return tmp_path


def test_both_transports_carry_out_the_same_lifecycle(docroot):
    event, event_timeouts = through_connection(docroot)
    blocking, blocking_timeouts = through_handle_client(docroot)
    strip = lambda raw: re.sub(rb"Date: [^\r]*\r\n", b"", raw)  # noqa: E731
    for name in SCHEDULE:
        assert strip(event[name]) == strip(blocking[name]), name
    assert event["dribbled head"].startswith(b"HTTP/1.1 408")
    assert b"Connection: close" in event["dribbled head"]
    assert event["idle keep-alive"].startswith(b"HTTP/1.1 200")
    assert b" 408 " not in event["idle keep-alive"]
    assert event["pipelined tail"].count(b"HTTP/1.1 200") == 2
    assert b"HTTP/1.1 408" in event["pipelined tail"]
    # Two header expiries and one idle expiry, on either transport.
    assert event_timeouts == blocking_timeouts == [2, 1, 0]
