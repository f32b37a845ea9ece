"""The generator against a scripted loopback server: it reads responses by
their own framing, counts what fails, and never leaves a request behind."""

import itertools
import socket
import threading
import zlib

import pytest

from bench import loadgen, workloads
from bench.workloads import CLOSE, GET

BODY = b"0123456789abcdef" * 256  # 4096 bytes
SPEC = workloads.FileSpec(0, b"/f00000.bin", len(BODY), zlib.crc32(BODY), zlib.crc32(BODY[:1024]))


def good_response(body: bytes = BODY) -> bytes:
    return b'HTTP/1.1 200 OK\r\nContent-Length: %d\r\nETag: "t"\r\n\r\n' % len(body) + body


class ScriptedServer:
    """Answers each request head with the next response of ``script``
    (cycled), written in ``pieces`` separate sends.  A ``(response, True)``
    entry hangs up right after sending."""

    def __init__(self, script, pieces: int = 1):
        self.script = itertools.cycle(script)
        self.pieces = pieces
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.address = self.listener.getsockname()
        self.lock = threading.Lock()
        self.threads = []
        self.accepted = 0
        self.acceptor = threading.Thread(target=self._accept, daemon=True)
        self.acceptor.start()

    def _accept(self):
        while True:
            try:
                client, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            thread = threading.Thread(target=self._serve, args=(client,), daemon=True)
            thread.start()
            self.threads.append(thread)

    def _serve(self, client):
        with client:
            buffered = b""
            while True:
                data = client.recv(65536)
                if not data:
                    return
                buffered += data
                while b"\r\n\r\n" in buffered:
                    head, buffered = buffered.split(b"\r\n\r\n", 1)
                    with self.lock:
                        answer = next(self.script)
                    hang_up = False
                    if isinstance(answer, tuple):
                        answer, hang_up = answer
                    step = max(1, len(answer) // self.pieces)
                    for start in range(0, len(answer), step):
                        client.sendall(answer[start:start + step])
                    if hang_up or b"Connection: close" in head:
                        return

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self.listener.close()
        self.acceptor.join(timeout=5)
        assert not self.acceptor.is_alive()
        for thread in self.threads:
            thread.join(timeout=5)
            assert not thread.is_alive()


@pytest.fixture
def serve():
    servers = []

    def start(script, pieces=1):
        server = ScriptedServer(script, pieces)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


def requests(count, shape=GET):
    return [workloads.Request(SPEC, shape) for _ in range(count)]


def test_closed_loop_verifies_every_response_even_in_pieces(serve):
    server = serve([good_response()], pieces=7)
    generator = loadgen.LoadGenerator(server.address)
    try:
        _, completions = generator.closed(iter(requests(50)))
    finally:
        generator.close()
    assert len(completions) == 50 and generator.attempted == 50 and generator.failed == 0
    assert all(size == len(BODY) for _, size in completions)
    assert generator.statuses == {200: 50}
    assert server.accepted == 2  # two keep-alive connections, reused throughout


def test_a_flipped_byte_counts_as_failed_and_the_slot_reconnects(serve):
    flipped = bytearray(good_response())
    flipped[-100] ^= 0x01
    server = serve([good_response(), bytes(flipped), good_response(), good_response()])
    generator = loadgen.LoadGenerator(server.address, connections=1)
    try:
        _, completions = generator.closed(iter(requests(8)))
    finally:
        generator.close()
    assert generator.attempted == 8 and generator.failed == 2 and len(completions) == 6
    assert generator.errors == {"body checksum mismatch": 2}
    assert server.accepted == 3  # a fresh connection after each failure


def test_a_server_that_hangs_up_mid_body_counts_as_failed(serve):
    short = good_response()[:-500]  # promises 4096 bytes, delivers 3596
    server = serve([(short, True), good_response()])
    generator = loadgen.LoadGenerator(server.address, connections=1)
    try:
        _, completions = generator.closed(iter(requests(2)))
    finally:
        generator.close()
    assert generator.attempted == 2 and generator.failed == 1 and len(completions) == 1
    assert generator.errors == {"closed before the response ended": 1}


def test_connection_close_requests_open_a_fresh_connection_each_time(serve):
    server = serve([good_response()])
    generator = loadgen.LoadGenerator(server.address, connections=1)
    try:
        _, completions = generator.closed(iter(requests(5, CLOSE)))
    finally:
        generator.close()
    assert len(completions) == 5 and generator.failed == 0
    assert server.accepted == 5


def test_open_loop_times_from_the_schedule_and_serves_every_arrival(serve):
    server = serve([good_response()])
    generator = loadgen.LoadGenerator(server.address)
    schedule = [index * 0.002 for index in range(100)]  # 500/s for 0.2 s
    try:
        start, latencies, lateness, backlog = generator.open(
            itertools.cycle(requests(1)), schedule, 0.2)
    finally:
        generator.close()
    assert generator.attempted == 100 and generator.failed == 0
    assert len(latencies) == len(lateness) == len(backlog) == 100
    assert [round(due - start, 6) for due, _ in lateness] == [round(s, 6) for s in schedule]
    assert all(value >= 0 for _, value in lateness)
    assert all(value > 0 for _, value in latencies)


def test_warm_pass_is_strict_and_captures_etags(serve):
    server = serve([good_response()])
    generator = loadgen.LoadGenerator(server.address)
    try:
        generator.warm(requests(4))
    finally:
        generator.close()
    assert generator.failed == 0 and generator.etags == {0: b'"t"'}
    assert generator.strict is False  # strictness ends with the warm pass
