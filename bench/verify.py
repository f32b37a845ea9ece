"""Response verification: parse a response head, compare with what was due.

The generator reads a response by the response's own framing (status and
``Content-Length``) and then hands what it saw to :func:`check`, which
compares it with the :class:`bench.workloads.Request` that was sent.  The
warm pass checks strictly (every header the shape promises); the timed
phases check status, length, byte count and -- where sampled -- CRC32.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple, Optional

#: A response head larger than this is a framing error, not a header.
HEAD_LIMIT = 8192


class Head(NamedTuple):
    status: int
    content_length: Optional[int]
    etag: Optional[bytes]
    content_range: Optional[bytes]
    #: Offset of the first body byte.
    end: int


def _header_value(buffer, name: bytes, limit: int) -> Optional[bytes]:
    start = buffer.find(b"\r\n" + name + b": ", 0, limit)
    if start < 0:
        return None
    start += len(name) + 4
    stop = buffer.find(b"\r\n", start, limit + 2)
    return bytes(buffer[start:stop]).strip()


def parse_head(buffer, fill: int) -> Optional[Head]:
    """Parse the response head at the start of ``buffer[:fill]``.

    Returns ``None`` while the blank line has not arrived.  Raises
    ``ValueError`` on anything that is not an HTTP/1.x status line.
    """
    blank = buffer.find(b"\r\n\r\n", 0, fill)
    if blank < 0:
        if fill >= HEAD_LIMIT:
            raise ValueError("no end of head within the limit")
        return None
    if not buffer.startswith(b"HTTP/1."):
        raise ValueError("not an HTTP/1.x response")
    status = int(buffer[9:12])
    length = _header_value(buffer, b"Content-Length", blank)
    return Head(
        status=status,
        content_length=int(length) if length is not None else None,
        etag=_header_value(buffer, b"ETag", blank),
        content_range=_header_value(buffer, b"Content-Range", blank),
        end=blank + 4,
    )


def wire_body_length(request, head: Head) -> int:
    """Body bytes that follow ``head`` on the wire (RFC 7230 section 3.3.3):
    none after a HEAD request or a 304, else ``Content-Length``."""
    if request.head or head.status == 304:
        return 0
    if head.content_length is None:
        raise ValueError("no Content-Length on a response with a body")
    return head.content_length


def check(request, head: Head, body_len: int, crc: Optional[int], strict: bool) -> Optional[str]:
    """Compare a received response with what ``request`` was due.

    Returns ``None`` when it verifies, else a short reason.  ``crc`` is
    ``None`` when this response's body was not checksummed (large bodies
    are sampled in the timed phases); ``strict`` adds the header checks of
    the warm pass.
    """
    if head.status != request.status:
        return f"status {head.status}, due {request.status}"
    if head.content_length != request.content_length:
        return f"Content-Length {head.content_length}, due {request.content_length}"
    if body_len != request.body_len:
        return f"{body_len} body bytes, due {request.body_len}"
    if crc is not None and crc != request.crc:
        return "body checksum mismatch"
    if strict:
        if head.content_range != request.content_range:
            return f"Content-Range {head.content_range!r}, due {request.content_range!r}"
        if head.etag is None:
            return "no ETag"
    return None


def verify_response(request, raw: bytes) -> Optional[str]:
    """Strictly verify one complete response held in ``raw``."""
    try:
        head = parse_head(raw, len(raw))
        if head is None:
            return "incomplete head"
        due = wire_body_length(request, head)
    except ValueError as exc:
        return str(exc)
    body = raw[head.end:]
    if len(body) != due:
        return f"{len(body)} bytes follow the head, framing says {due}"
    return check(request, head, len(body), zlib.crc32(body), strict=True)
