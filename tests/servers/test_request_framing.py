"""Request framing end to end, on both transports.

A body is framed by ``Content-Length`` on every method, so bytes that
spell a request inside a GET's body are never answered as one; a request
carrying ``Transfer-Encoding`` is answered 501 (400 beside a
``Content-Length``), and one whose first header line is whitespace-led
400, and the connection closes, since its boundary is unknown.  SPED drives the event-loop transport, MT the blocking one.
"""

import re
import socket

import pytest

from repro.core.config import ServerConfig
from repro.servers import create_server

INDEX = b"<html>framed</html>"
SECRET = b"smuggled body answered"

SMUGGLED = b"GET /secret.txt HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"


@pytest.fixture(params=["sped", "mt"])
def server(request, tmp_path):
    (tmp_path / "index.html").write_bytes(INDEX)
    (tmp_path / "secret.txt").write_bytes(SECRET)
    config = ServerConfig(document_root=str(tmp_path), port=0, num_workers=2)
    server = create_server(request.param, config)
    server.start()
    yield server
    server.stop()


def converse(address, payload: bytes) -> bytes:
    """Send ``payload`` and read until the server closes the connection."""
    sock = socket.create_connection(address, timeout=5.0)
    try:
        sock.sendall(payload)
        received = bytearray()
        while True:
            data = sock.recv(65536)
            if not data:
                return bytes(received)
            received.extend(data)
    finally:
        sock.close()


def statuses(stream: bytes) -> list:
    return re.findall(rb"HTTP/1\.1 (\d{3}) ", stream)


def test_get_body_is_not_a_second_request(server):
    payload = (
        b"GET /index.html HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(SMUGGLED)
        + SMUGGLED
        + b"GET /index.html HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    stream = converse(server.address, payload)
    assert statuses(stream) == [b"200", b"200"]
    assert stream.count(INDEX) == 2
    assert SECRET not in stream


def test_transfer_encoding_is_501_and_close(server):
    payload = (
        b"GET /index.html HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
        + SMUGGLED
    )
    stream = converse(server.address, payload)
    assert statuses(stream) == [b"501"]
    assert b"Connection: close" in stream
    assert SECRET not in stream


def test_transfer_encoding_beside_content_length_is_400_and_close(server):
    payload = (
        b"POST /index.html HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n"
        b"Content-Length: 5\r\n\r\n0\r\n\r\n"
        + SMUGGLED
    )
    stream = converse(server.address, payload)
    assert statuses(stream) == [b"400"]
    assert b"Connection: close" in stream
    assert SECRET not in stream


def test_whitespace_led_first_header_is_400_and_close(server):
    """A folded ``Content-Length`` before the first field frames no body: a
    front end that ignores the line would read the "body" as the next
    request, so the server refuses the head and closes."""
    payload = (
        b"GET /index.html HTTP/1.1\r\n Content-Length: %d\r\nHost: x\r\n\r\n"
        % len(SMUGGLED)
        + SMUGGLED
    )
    stream = converse(server.address, payload)
    assert statuses(stream) == [b"400"]
    assert b"Connection: close" in stream
    assert SECRET not in stream


def test_bare_lf_head_then_crlf_head_get_two_answers(server):
    """The head ends at its first empty line, CRLF or bare LF: a bare-LF
    request followed by a CRLF one is two requests, not one malformed head."""
    payload = (
        b"GET /index.html HTTP/1.1\nHost: x\n\n"
        b"GET /index.html HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    stream = converse(server.address, payload)
    assert statuses(stream) == [b"200", b"200"]
    assert stream.count(INDEX) == 2
