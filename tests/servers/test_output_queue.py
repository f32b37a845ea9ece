"""The output queue on the blocking transport: a program runs behind it.

A worker answers pipelined requests into one queue and sends it once, so a
static answer queued ahead of a CGI request must leave before the program
runs — a slow program must not hold back an answer that is already known.
"""

import socket
import threading

from repro.core.config import ServerConfig
from repro.servers import create_server


def test_queued_answer_leaves_before_a_pipelined_program_runs(tmp_path):
    (tmp_path / "small.txt").write_bytes(b"tiny")
    released, finished = threading.Event(), threading.Event()

    def slow_app(_data):
        released.wait(2.0)
        finished.set()
        return b"<html>late</html>"

    config = ServerConfig(
        document_root=str(tmp_path), port=0, num_workers=1, cgi_programs={"slow": slow_app}
    )
    server = create_server("mt", config)
    server.start()
    try:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(
                b"GET /small.txt HTTP/1.1\r\nHost: t\r\n\r\n"
                b"GET /cgi-bin/slow HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            received = bytearray()
            while b"\r\n\r\ntiny" not in received:
                data = sock.recv(65536)
                assert data, "the connection closed before the static answer"
                received.extend(data)
            # The program is still blocked: the static answer did not wait.
            assert not finished.is_set()
            released.set()
            while data:
                data = sock.recv(65536)
                received.extend(data)
    finally:
        released.set()
        server.stop()
    assert received.startswith(b"HTTP/1.1 200 ")
    assert received.endswith(b"<html>late</html>")
    assert received.count(b"HTTP/1.1 200 ") == 2
