"""Direct unit tests for the blocking per-connection handler (MP/MT workers)."""

import socket
import threading

import pytest

from repro.cgi.runner import CGIRunner
from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore
from repro.servers.blocking import handle_client


@pytest.fixture
def site(tmp_path):
    (tmp_path / "index.html").write_bytes(b"<html>blocking</html>")
    (tmp_path / "data.bin").write_bytes(b"d" * 50_000)
    config = ServerConfig(document_root=str(tmp_path), port=0, idle_timeout=2.0)
    store = ContentStore(config)
    yield config, store
    store.close()


def run_handler(config, store, client_actions, cgi_runner=None):
    """Run handle_client on one end of a socketpair, the test script on the other."""
    server_side, client_side = socket.socketpair()
    served = {}

    def server():
        served["count"] = handle_client(server_side, store, config, cgi_runner)

    thread = threading.Thread(target=server)
    thread.start()
    try:
        result = client_actions(client_side)
    finally:
        try:
            client_side.close()
        except OSError:
            pass
        thread.join(timeout=10)
    return served.get("count"), result


def recv_until_closed(sock):
    sock.settimeout(5.0)
    data = bytearray()
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data.extend(chunk)
    except socket.timeout:
        pass
    return bytes(data)


class TestHandleClient:
    def test_single_request_connection_close(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(b"GET /index.html HTTP/1.0\r\n\r\n")
            return recv_until_closed(sock)

        served, response = run_handler(config, store, actions)
        assert served == 1
        assert response.startswith(b"HTTP/1.1 200 OK")
        assert b"<html>blocking</html>" in response

    def test_keep_alive_until_client_closes(self, site):
        config, store = site

        def actions(sock):
            sock.settimeout(5.0)
            collected = b""
            for _ in range(3):
                sock.sendall(b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n")
                while collected.count(b"</html>") < 1:
                    collected += sock.recv(65536)
                collected = b""
            sock.close()
            return True

        served, _ = run_handler(config, store, actions)
        assert served == 3

    def test_not_found_on_keep_alive_connection(self, site):
        config, store = site

        def actions(sock):
            sock.settimeout(5.0)
            sock.sendall(b"GET /ghost.html HTTP/1.1\r\nHost: h\r\n\r\n")
            first = sock.recv(65536)
            sock.sendall(b"GET /index.html HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n")
            rest = recv_until_closed(sock)
            return first, rest

        served, (first, rest) = run_handler(config, store, actions)
        assert b"404" in first.split(b"\r\n", 1)[0]
        assert b"200 OK" in rest
        # Both exchanges (the 404 and the 200) were handled on the connection.
        assert served == 2
        assert store.stats.responses_error >= 1

    def test_malformed_request_gets_error_and_close(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(b"THIS IS NOT HTTP\r\n\r\n")
            return recv_until_closed(sock)

        served, response = run_handler(config, store, actions)
        # The error answer finished the connection's one exchange.
        assert served == 1
        assert response[:12] in (b"HTTP/1.1 400", b"HTTP/1.1 501")

    def test_client_disconnect_mid_request(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(b"GET /index.ht")       # incomplete
            sock.close()
            return True

        served, _ = run_handler(config, store, actions)
        assert served == 0

    def test_cgi_request_served(self, site):
        config, store = site
        runner = CGIRunner({"app": lambda data: b"<html>cgi-" + data.query.encode() + b"</html>"})

        def actions(sock):
            sock.sendall(b"GET /cgi-bin/app?k=v HTTP/1.0\r\n\r\n")
            return recv_until_closed(sock)

        served, response = run_handler(config, store, actions, cgi_runner=runner)
        runner.shutdown()
        assert served == 1
        assert b"<html>cgi-k=v</html>" in response

    def test_cgi_without_runner_returns_503(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(b"GET /cgi-bin/app HTTP/1.0\r\n\r\n")
            return recv_until_closed(sock)

        _, response = run_handler(config, store, actions, cgi_runner=None)
        assert b"503" in response.split(b"\r\n", 1)[0]

    def test_large_file_round_trip(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(b"GET /data.bin HTTP/1.0\r\n\r\n")
            return recv_until_closed(sock)

        served, response = run_handler(config, store, actions)
        header, _, body = response.partition(b"\r\n\r\n")
        assert len(body) == 50_000
        assert served == 1

    def test_stats_counted(self, site):
        config, store = site

        def actions(sock):
            sock.sendall(b"GET /index.html HTTP/1.0\r\n\r\n")
            return recv_until_closed(sock)

        before = store.stats.requests
        run_handler(config, store, actions)
        assert store.stats.requests == before + 1
        assert store.stats.connections_closed >= 1
