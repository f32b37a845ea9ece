"""A small blocking HTTP client, and the response-wire parsing every client shares.

This intentionally avoids :mod:`http.client` so the reproduction exercises
its own wire format end to end: the bytes produced by the servers are parsed
here with no library in between.  :func:`parse_head` and :func:`walk_chunks`
are the one response-head parser and the one chunk walker; the load
generator's clients use them on their growing receive buffers.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field


@dataclass
class HTTPResponse:
    """A parsed HTTP response.

    Attributes
    ----------
    status:
        Numeric status code from the status line.
    reason:
        Reason phrase from the status line.
    headers:
        Response headers with lower-cased names.
    body:
        The response body bytes.
    """

    status: int
    reason: str
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    @property
    def content_length(self) -> int:
        """The Content-Length header as an integer (0 when absent)."""
        return int(self.headers.get("content-length", "0") or 0)

    @property
    def chunked(self) -> bool:
        """Whether the body is framed with ``Transfer-Encoding: chunked``."""
        return "chunked" in self.headers.get("transfer-encoding", "").lower()


def fetch(
    host: str,
    port: int,
    path: str = "/",
    *,
    method: str = "GET",
    headers: dict | None = None,
    body: bytes = b"",
    timeout: float = 10.0,
    version: str = "HTTP/1.0",
) -> HTTPResponse:
    """Fetch ``path`` from the server at ``host:port`` and parse the response.

    A fresh connection is opened per call (``Connection: close`` semantics),
    which keeps the helper simple; the load generator handles persistent
    connections.
    """
    request_headers = {"Host": f"{host}:{port}", "Connection": "close"}
    if body:
        request_headers["Content-Length"] = str(len(body))
    if headers:
        request_headers.update(headers)
    lines = [f"{method} {path} {version}"]
    lines.extend(f"{name}: {value}" for name, value in request_headers.items())
    payload = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(payload)
        raw = bytearray()
        while True:
            data = sock.recv(65536)
            if not data:
                break
            raw.extend(data)
    return parse_response(bytes(raw))


def parse_head(raw) -> tuple[HTTPResponse, int] | None:
    """Parse the response head at the start of ``raw`` (bytes or bytearray).

    Returns ``(response, body_start)`` — ``response`` with an empty body,
    ``body_start`` the offset one past the blank line — or ``None`` while
    the blank line has not arrived.  Raises :class:`ValueError` on a
    malformed status line.
    """
    end = raw.find(b"\r\n\r\n")
    if end < 0:
        return None
    status_line, *lines = bytes(raw[:end]).decode("latin-1").split("\r\n")
    status_parts = status_line.split(" ", 2)
    if len(status_parts) < 2:
        raise ValueError(f"malformed status line: {status_line!r}")
    headers: dict[str, str] = {}
    for line in lines:
        name, colon, value = line.partition(":")
        if colon:
            headers[name.strip().lower()] = value.strip()
    reason = status_parts[2] if len(status_parts) > 2 else ""
    return HTTPResponse(int(status_parts[1]), reason, headers), end + 4


def parse_response(raw: bytes) -> HTTPResponse:
    """Parse a complete HTTP response byte string."""
    parsed = parse_head(raw)
    if parsed is None:
        raise ValueError("incomplete HTTP response: no header terminator")
    response, body_start = parsed
    response.body = raw[body_start:]
    return response


def walk_chunks(buffer, position: int) -> tuple[int, bytes, bool]:
    """Walk the complete chunks of a ``Transfer-Encoding: chunked`` body.

    Starts at ``position``, the first byte of a chunk-size line, and returns
    ``(position, payload, done)``: the offset of the first chunk that has
    not fully arrived (one past the terminator once ``done``), the payload
    of every complete chunk walked, and whether the terminating zero-size
    chunk has arrived.  The servers under test never emit trailers, so the
    terminator is exactly ``0\\r\\n\\r\\n``.  A malformed size line raises
    :class:`ValueError`.
    """
    payload = bytearray()
    while True:
        line_end = buffer.find(b"\r\n", position)
        if line_end < 0:
            return position, bytes(payload), False
        size = int(bytes(buffer[position:line_end]).split(b";", 1)[0], 16)
        if size < 0:
            raise ValueError(f"negative chunk size: {size}")
        data_end = line_end + 2 + size
        if len(buffer) < data_end + 2:
            return position, bytes(payload), False
        payload += buffer[line_end + 2 : data_end]
        position = data_end + 2
        if size == 0:
            return position, bytes(payload), True
