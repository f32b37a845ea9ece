"""Incremental HTTP request parsing.

The "Read request" step of the paper's pipeline (Figure 1) reads the HTTP
request header from the client connection's socket and parses it for the
requested URL and options.  Because the servers in this reproduction are
event driven (SPED/AMPED) or at least non-blocking per connection, the
parser must accept data incrementally: a client on a slow link may deliver
the request line in several TCP segments, and the event loop must not block
waiting for the rest.

:class:`RequestParser` therefore exposes a ``feed()`` interface: the server
hands it whatever bytes ``recv()`` produced and asks whether a complete
request is available yet.

Fast-path probing
-----------------

The overwhelmingly common request on a cached workload is a small
``GET <target> HTTP/1.x`` with a handful of unremarkable headers.  Building
a full :class:`HTTPRequest` for it — decoding the block, splitting header
lines, populating a dict, normalizing the URI — is almost pure allocation
overhead when the server's hot-response cache already knows the answer for
the raw target bytes.  :func:`probe_fast_request` therefore recognizes that
shape directly on the parse buffer: it extracts the raw target and the
keep-alive disposition with a few C-level ``find`` calls and *no* header
dict, request object or URI normalization.  Anything unusual — other
methods, query strings, percent-escapes, dot segments, conditional or
range headers, header folding, bare-LF line endings — makes the probe
decline, and the request takes the existing full parser, byte-identically.

A parser constructed with ``fast=True`` runs the probe first and exposes
the result as :attr:`RequestParser.fast_request`; the full
:class:`HTTPRequest` is still available lazily through
:attr:`RequestParser.request` (materialized from the retained header block)
for callers whose hot-cache lookup misses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.http.errors import (
    BadRequestError,
    NotImplementedError_,
    RequestTooLargeError,
    VersionNotSupportedError,
)
from repro.http.uri import normalize_uri, split_query

#: Methods the static-content pipeline understands.  Everything else gets 501.
SUPPORTED_METHODS = ("GET", "HEAD", "POST")

#: Versions the response generator knows how to answer.
SUPPORTED_VERSIONS = ("HTTP/0.9", "HTTP/1.0", "HTTP/1.1")

#: Default cap on the size of a request header block, matching the defensive
#: limits production servers of the era used (Apache: 8 KB per line).
DEFAULT_MAX_HEADER_BYTES = 16 * 1024

#: The end of a head: its first empty line, CRLF or bare LF.  One C-level
#: scan; the ``\r`` ending the last header line is trimmed separately.
_HEAD_END = re.compile(rb"\n\r?\n")

#: List-valued fields whose repeated lines are joined into one
#: comma-separated value (RFC 7230 §3.2.2); any other repeated field keeps
#: its last line (``Content-Length`` is refused outright).
_LIST_FIELDS = frozenset(("if-match", "if-none-match"))

#: Largest header block the fast probe will examine; bigger requests are
#: unusual enough that the full parser should look at them anyway.
FAST_PROBE_LIMIT = 4096

#: Longest request target the fast probe accepts (hot-cache keys are the
#: raw target bytes, so unbounded targets would let a client balloon them).
FAST_TARGET_LIMIT = 512

#: Header names whose presence must force the full parser: they change how
#: the request is interpreted (body framing, conditionals) in ways the fast
#: path deliberately does not implement.  Conditional headers are matched
#: by their ``if-`` prefix instead of appearing here.
_SLOW_HEADER_NAMES = frozenset(
    (
        b"content-length",
        b"transfer-encoding",
        b"range",
        b"expect",
        b"upgrade",
    )
)

#: Byte substrings that disqualify a target from the fast path: queries and
#: escapes need decoding, ``/.`` covers ``.``/``..`` segments (and
#: conservatively dotfiles), ``//`` needs slash collapsing, and spaces mean
#: the request line had more than three words.  All of them simply fall
#: back to the full parser, which handles them exactly as before.
_SLOW_TARGET_MARKS = (b"?", b"%", b"#", b" ", b"\\", b"\x00", b"//", b"/.")

#: Path prefix that routes to CGI-style applications — the one spelling
#: :attr:`HTTPRequest.is_cgi`, the fast probe and ``CGIRunner`` all use.
CGI_PREFIX = "/cgi-bin/"
_CGI_PREFIX_BYTES = CGI_PREFIX.encode("latin-1")

#: Sentinel returned by :func:`probe_fast_request` when the request shape is
#: definitively unsupported (as opposed to "need more bytes", which is None).
FAST_MISS = object()

#: Sentinel returned by :func:`parse_ranges` when the
#: Range header is syntactically valid but no requested byte lies inside the
#: representation (RFC 7233 §4.4): the response must be a 416 with
#: ``Content-Range: bytes */<size>``.
RANGE_UNSATISFIABLE = object()

#: Cap on byte-range specs honoured per request.  An attacker can pack
#: thousands of tiny ranges into one header and multiply the response
#: (every part repeats the multipart framing); past the cap the header is
#: simply ignored and the full representation is served — the defensive
#: choice production servers make (RFC 7233 §6.1 explicitly sanctions it).
MAX_RANGE_PARTS = 32

#: Cap on a request body's ``Content-Length``.  Nothing here accepts large
#: uploads (bodies only reach CGI programs), and a body is held in memory
#: until complete: past the cap the request is answered ``413`` and the
#: connection closed, instead of waiting for (and buffering) whatever
#: length a client cares to claim.
MAX_BODY_BYTES = 1 << 20

#: Internal sentinel: one spec inside a byte-range-set was syntactically
#: invalid, which invalidates the whole header (RFC 7233 §3.1).
_RANGE_INVALID = object()


def _parse_one_range_spec(spec: str, size: int):
    """Parse one ``byte-range-spec`` against a ``size``-byte representation.

    Returns a clamped ``(offset, length)`` window, :data:`RANGE_UNSATISFIABLE`
    when the spec is valid but selects no byte, or :data:`_RANGE_INVALID`
    when it is not a byte-range-spec at all.
    """
    first, dash, last = spec.partition("-")
    if not dash:
        return _RANGE_INVALID
    first = first.strip()
    last = last.strip()
    if not first:
        # Suffix form: the final N bytes.
        if not last.isdigit():
            return _RANGE_INVALID
        suffix = int(last)
        if suffix == 0 or size <= 0:
            return RANGE_UNSATISFIABLE
        length = min(suffix, size)
        return size - length, length
    if not first.isdigit():
        return _RANGE_INVALID
    start = int(first)
    if last:
        if not last.isdigit():
            return _RANGE_INVALID
        end = int(last)
        if end < start:
            return _RANGE_INVALID
    else:
        end = size - 1
    if start >= size:
        return RANGE_UNSATISFIABLE
    end = min(end, size - 1)
    return start, end - start + 1


def parse_ranges(value: str, size: int):
    """Parse a ``Range`` header value against a ``size``-byte representation.

    Implements the byte-range forms of RFC 7233, including comma-separated
    range sets:

    * ``bytes=first-last`` — clamped to the representation
      (``last >= size`` truncates to the final byte);
    * ``bytes=first-`` — from ``first`` to the end;
    * ``bytes=-N`` — the final ``N`` bytes (the whole file when ``N`` is
      larger than it);
    * any comma-separated combination of the above, preserved in request
      order (RFC 7233 §4.1 permits parts in any order, and a client that
      asked for a specific order presumably wants it).

    Overlapping and adjacent windows are coalesced (RFC 7233 §4.1: "it
    ought to be coalesced into a single range ... a client cannot rely on
    receiving the same ranges that it requested"), so ``bytes=0-4,5-9``
    is served as one ten-byte part rather than a two-part multipart body;
    windows separated by a gap stay distinct.  Coalescing keeps
    first-occurrence order — only genuinely disjoint windows remain, and
    each sits where its earliest member appeared in the request.

    Returns
    -------
    A list of satisfiable ``(offset, length)`` windows — a single-element
    list for a plain single range *and* for a multi-range set in which only
    one spec is satisfiable (the caller collapses that case to an ordinary
    206); ``None`` when the header must be *ignored* and the response
    degrades to a full 200 — non-``bytes`` units, any syntactically invalid
    spec in the set (RFC 7233 §3.1: an invalid set invalidates the whole
    header), or more than :data:`MAX_RANGE_PARTS` specs;
    :data:`RANGE_UNSATISFIABLE` when every spec is valid but none selects a
    byte — ``first >= size``, a zero-length suffix, or any range against an
    empty file — which must become a 416.
    """
    if not value:
        return None
    unit, sep, spec = value.partition("=")
    if not sep or unit.strip().lower() != "bytes":
        return None
    specs = [item.strip() for item in spec.split(",")]
    specs = [item for item in specs if item]
    if not specs or len(specs) > MAX_RANGE_PARTS:
        return None
    windows: list[tuple[int, int]] = []
    unsatisfiable = False
    for item in specs:
        window = _parse_one_range_spec(item, size)
        if window is _RANGE_INVALID:
            return None
        if window is RANGE_UNSATISFIABLE:
            unsatisfiable = True
            continue
        windows.append(window)
    if windows:
        return _coalesce_windows(windows)
    return RANGE_UNSATISFIABLE if unsatisfiable else None


def _coalesce_windows(windows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge overlapping/adjacent ``(offset, length)`` windows to a fixed point.

    Iterated because one merge can bridge two previously disjoint windows
    (``0-4, 10-14, 5-9`` collapses to one); bounded by
    :data:`MAX_RANGE_PARTS` inputs, so the quadratic worst case is tiny.
    """
    merged = True
    while merged:
        merged = False
        coalesced: list[tuple[int, int]] = []
        for offset, length in windows:
            for index, (seen_offset, seen_length) in enumerate(coalesced):
                # Overlapping or touching: [a, a+la] and [b, b+lb] unify
                # whenever neither window starts past the other's end.
                if offset <= seen_offset + seen_length and seen_offset <= offset + length:
                    start = min(seen_offset, offset)
                    end = max(seen_offset + seen_length, offset + length)
                    coalesced[index] = (start, end - start)
                    merged = True
                    break
            else:
                coalesced.append((offset, length))
        windows = coalesced
    return windows


class FastRequest:
    """The result of a successful fast probe: just enough to consult the
    hot-response cache.

    Attributes
    ----------
    target:
        The raw request-target bytes exactly as they appeared on the wire
        (the hot-response cache key).
    keep_alive:
        The connection disposition, computed with the same rules as
        :attr:`HTTPRequest.keep_alive`.
    """

    __slots__ = ("target", "keep_alive")

    def __init__(self, target: bytes, keep_alive: bool):
        self.target = target
        self.keep_alive = keep_alive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FastRequest(target={self.target!r}, keep_alive={self.keep_alive})"


def probe_fast_request(data):
    """Recognize a plain ``GET <target> HTTP/1.x`` request without parsing it.

    Parameters
    ----------
    data:
        The accumulated receive buffer (``bytes`` or ``bytearray``).

    Returns
    -------
    ``None`` when no CRLF-terminated header block is complete yet (feed more
    bytes and probe again); :data:`FAST_MISS` when the block is complete but
    the shape is unsupported (hand the buffer to the full parser); otherwise
    a ``(FastRequest, header_end)`` pair where ``header_end`` is the offset
    one past the terminating blank line.

    The probe is deliberately conservative: *any* doubt — unusual method or
    version, decodable target, conditional/range/body headers, folded or
    malformed header lines — returns :data:`FAST_MISS` so the full parser
    decides, keeping fast-on and fast-off behaviour byte-identical.
    """
    end = data.find(b"\r\n\r\n", 0, FAST_PROBE_LIMIT)
    if end < 0:
        if len(data) >= FAST_PROBE_LIMIT:
            return FAST_MISS
        return None
    if not data.startswith(b"GET /"):
        return FAST_MISS
    # Every line break in the block must be a CRLF pair.  A bare LF inside
    # a line is a line break to the full parser (which splits on both) but
    # line *content* to the CRLF-delimited scan below — the probe would
    # read a different header structure than the parser, so it declines.
    if data.count(b"\n", 0, end) != data.count(b"\r\n", 0, end):
        return FAST_MISS
    eol = data.find(b"\r\n")
    separator = data.rfind(b" ", 4, eol)
    if separator <= 4:
        return FAST_MISS
    version = data[separator + 1 : eol]
    if version == b"HTTP/1.1":
        keep_alive = True
    elif version == b"HTTP/1.0":
        keep_alive = False
    else:
        return FAST_MISS
    if separator - 4 > FAST_TARGET_LIMIT:
        return FAST_MISS
    target = bytes(data[4:separator])
    for mark in _SLOW_TARGET_MARKS:
        if mark in target:
            return FAST_MISS
    if target.startswith(_CGI_PREFIX_BYTES):
        return FAST_MISS

    # Walk the header lines with C-level finds.  Every line must be a
    # well-formed ``Name: value`` (so a fast accept can never mask a 400
    # the full parser would have produced), must not be a folded
    # continuation, and must not name anything in the slow set.
    position = eol + 2
    connection_value = None
    while position < end:
        newline = data.find(b"\r\n", position, end)
        line_end = end if newline < 0 else newline
        first = data[position]
        if first == 0x20 or first == 0x09:  # folded header: full parser's job
            return FAST_MISS
        colon = data.find(b":", position, line_end)
        if colon <= position or data[colon - 1] in (0x20, 0x09):
            # No name, or whitespace before the colon (the full parser's 400).
            return FAST_MISS
        name = bytes(data[position:colon]).strip().lower()
        if not name or name in _SLOW_HEADER_NAMES or name.startswith(b"if-"):
            return FAST_MISS
        if name == b"connection":
            connection_value = bytes(data[colon + 1 : line_end]).strip().lower()
        position = line_end + 2

    if connection_value is not None:
        if keep_alive:  # HTTP/1.1: persistent unless an explicit close
            keep_alive = connection_value != b"close"
        else:  # HTTP/1.0: persistent only on an explicit keep-alive
            keep_alive = connection_value == b"keep-alive"
    return FastRequest(target, keep_alive), end + 4


@dataclass
class HTTPRequest:
    """A fully parsed HTTP request header.

    Attributes
    ----------
    method:
        Upper-cased request method (``GET``, ``HEAD``, ``POST``).
    uri:
        The raw request URI as sent by the client.
    path:
        The normalized path component (percent-decoded, ``..`` resolved).
    query:
        The query string (without the ``?``), empty if absent.
    version:
        The HTTP version string, e.g. ``HTTP/1.1``.
    headers:
        Header fields with lower-cased names.
    body:
        Request body bytes, framed by ``Content-Length`` on any method
        (static routes discard it).
    """

    method: str
    uri: str
    path: str
    query: str = ""
    version: str = "HTTP/1.0"
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should persist after this response.

        HTTP/1.1 defaults to persistent connections unless the client sends
        ``Connection: close``; HTTP/1.0 requires an explicit
        ``Connection: keep-alive``.  Persistent connections matter for the
        paper's WAN experiment (Section 6.4), where they are used to emulate
        long-lived connections in a LAN testbed.
        """
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.1":
            return connection != "close"
        return connection == "keep-alive"

    @property
    def is_head(self) -> bool:
        """True when only the response header should be sent."""
        return self.method == "HEAD"

    @property
    def is_cgi(self) -> bool:
        """True when the request targets the dynamic-content prefix."""
        return self.path.startswith(CGI_PREFIX)

    @property
    def if_modified_since(self) -> str | None:
        """The If-Modified-Since header value, if any."""
        return self.headers.get("if-modified-since")

    @property
    def if_none_match(self) -> str | None:
        """The If-None-Match header value, if any (RFC 7232 §3.2)."""
        return self.headers.get("if-none-match")

    @property
    def if_match(self) -> str | None:
        """The If-Match header value, if any (RFC 7232 §3.1)."""
        return self.headers.get("if-match")

    @property
    def if_unmodified_since(self) -> str | None:
        """The If-Unmodified-Since header value, if any (RFC 7232 §3.4)."""
        return self.headers.get("if-unmodified-since")

    @property
    def range_header(self) -> str | None:
        """The raw Range header value, if any (see :func:`parse_ranges`)."""
        return self.headers.get("range")

    @property
    def if_range(self) -> str | None:
        """The If-Range header value, if any."""
        return self.headers.get("if-range")

    def header(self, name: str, default: str | None = None) -> str | None:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)


class RequestParser:
    """Incremental parser turning raw socket bytes into :class:`HTTPRequest`.

    Usage::

        parser = RequestParser()
        parser.feed(sock.recv(4096))
        if parser.complete:
            request = parser.request

    The parser retains any bytes following the parsed request (pipelined
    requests on a persistent connection) in :attr:`remainder`; callers reuse
    them by calling :meth:`reset` and feeding the remainder first (or by
    constructing a fresh parser).

    With ``fast=True`` the parser first offers each buffer to
    :func:`probe_fast_request`; on a hit, :attr:`fast_request` is set, the
    parser reports :attr:`complete`, and no :class:`HTTPRequest` is built
    unless a caller actually asks for :attr:`request` (hot-cache miss).
    """

    def __init__(
        self,
        max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES,
        fast: bool = False,
    ):
        self.max_header_bytes = max_header_bytes
        self._fast_enabled = fast
        self._buffer = bytearray()
        self._request: HTTPRequest | None = None
        self._body_needed = 0
        self._headers_done = False
        self._fast_possible = fast
        self.fast_request: FastRequest | None = None
        self.remainder = b""

    def reset(self) -> None:
        """Ready the parser for the next request on the same connection.

        Equivalent to constructing a new parser with the same settings, but
        without the object churn — the connection state machine calls this
        once per keep-alive response.
        """
        self._buffer.clear()
        self._request = None
        self._body_needed = 0
        self._headers_done = False
        self._fast_possible = self._fast_enabled
        self.fast_request = None
        self.remainder = b""

    @property
    def complete(self) -> bool:
        """True when a full request (header and any body) has been parsed."""
        return (
            self._request is not None or self.fast_request is not None
        ) and self._body_needed == 0

    @property
    def request(self) -> HTTPRequest:
        """The parsed request.  Only valid when :attr:`complete` is True.

        After a fast-probe hit the full object is materialized lazily from
        the retained header block, so callers that never need it (hot-cache
        hits) never pay for it — and callers that do get exactly the object
        the full parser would have produced.
        """
        if self._body_needed:
            raise ValueError("request is not complete")
        if self._request is None:
            if self.fast_request is None:
                raise ValueError("request is not complete")
            self._request = self._parse_header_block(bytes(self._buffer))
        return self._request

    def feed(self, data: bytes) -> bool:
        """Add ``data`` to the parse buffer; return :attr:`complete`.

        Raises an :class:`repro.http.errors.HTTPError` subclass when the
        request is malformed, too large, or uses an unsupported method or
        version.  The caller converts that into an error response.
        """
        if self.complete:
            self.remainder += data
            return True
        self._buffer.extend(data)
        if self._fast_possible and not self._headers_done:
            probed = probe_fast_request(self._buffer)
            if probed is FAST_MISS:
                self._fast_possible = False
            elif probed is not None:
                fast, header_end = probed
                self.fast_request = fast
                self._headers_done = True
                self.remainder = bytes(self._buffer[header_end:])
                # Keep only the header block (sans blank line): it is the
                # substrate for lazy materialization in :attr:`request`.
                del self._buffer[header_end - 4 :]
                return True
        if not self._headers_done:
            self._try_parse_headers()
        if self._headers_done and self._body_needed:
            self._consume_body()
        return self.complete

    def _try_parse_headers(self) -> None:
        match = _HEAD_END.search(self._buffer)
        if match is None:
            if len(self._buffer) > self.max_header_bytes:
                raise RequestTooLargeError(
                    f"request header exceeds {self.max_header_bytes} bytes"
                )
            return
        end = match.start()
        if end and self._buffer[end - 1] == 0x0D:
            end -= 1
        header_block = bytes(self._buffer[:end])
        rest = bytes(self._buffer[match.end():])
        self._buffer = bytearray()
        self._request = self._parse_header_block(header_block)
        self._headers_done = True
        self._body_needed = self._body_length(self._request.headers)
        if self._body_needed:
            self._buffer = bytearray(rest)
            self._consume_body()
        else:
            self.remainder = rest

    @staticmethod
    def _body_length(headers: dict[str, str]) -> int:
        """The body length a head announces, on any method (RFC 7230 §3.3.3).

        A body is framed whatever the method, so its bytes are never read as
        the next pipelined request.  ``Transfer-Encoding`` is not
        implemented (501), and beside ``Content-Length`` it is a framing
        conflict (400); ``Content-Length`` must be ``1*DIGIT``.  Each of
        these errors closes the connection: the request boundary is lost.
        """
        content_length = headers.get("content-length")
        if "transfer-encoding" in headers:
            if content_length is not None:
                raise BadRequestError("both Transfer-Encoding and Content-Length")
            raise NotImplementedError_("Transfer-Encoding is not implemented")
        if content_length is None:
            return 0
        if not (content_length.isascii() and content_length.isdigit()):
            raise BadRequestError("invalid Content-Length")
        length = int(content_length)
        if length > MAX_BODY_BYTES:
            raise RequestTooLargeError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        return length

    def _consume_body(self) -> None:
        """Complete the body once all of it is buffered.

        Feeds accumulate in the ``bytearray`` parse buffer (amortised
        linear); the body is copied out once, so a body arriving in many
        small pieces costs no more than one arriving whole.
        """
        needed = self._body_needed
        if len(self._buffer) < needed:
            return
        assert self._request is not None
        self._request.body = bytes(self._buffer[:needed])
        self.remainder = bytes(self._buffer[needed:])
        self._buffer = bytearray()
        self._body_needed = 0

    @staticmethod
    def _parse_header_block(block: bytes) -> HTTPRequest:
        try:
            text = block.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 never fails
            raise BadRequestError("undecodable request header") from exc
        lines = text.replace("\r\n", "\n").split("\n")
        request_line = lines[0].strip()
        if not request_line:
            raise BadRequestError("empty request line")
        parts = request_line.split()
        if len(parts) == 2:
            # HTTP/0.9 simple request: "GET /path"
            method, uri = parts
            version = "HTTP/0.9"
        elif len(parts) == 3:
            method, uri, version = parts
        else:
            raise BadRequestError(f"malformed request line: {request_line!r}")
        method = method.upper()
        if method not in SUPPORTED_METHODS:
            raise NotImplementedError_(f"method not implemented: {method}")
        if version not in SUPPORTED_VERSIONS:
            raise VersionNotSupportedError(f"unsupported version: {version}")

        headers: dict[str, str] = {}
        last_name: str | None = None
        for raw in lines[1:]:
            if not raw.strip():
                continue
            if raw[0] in (" ", "\t") and last_name is not None:
                # Obsolete header folding: continuation of the previous field.
                headers[last_name] += " " + raw.strip()
                continue
            if ":" not in raw:
                raise BadRequestError(f"malformed header line: {raw!r}")
            name, _, value = raw.partition(":")
            if name[-1:] in (" ", "\t"):
                # RFC 7230 §3.2.4: no whitespace between name and colon.
                raise BadRequestError(f"whitespace before colon: {raw!r}")
            name = name.strip().lower()
            if not name:
                raise BadRequestError(f"empty header name: {raw!r}")
            if name == "content-length" and name in headers:
                raise BadRequestError("repeated Content-Length")
            value = value.strip()
            if name in _LIST_FIELDS and name in headers:
                headers[name] += ", " + value
            else:
                headers[name] = value
            last_name = name

        raw_path, query = split_query(uri)
        path = normalize_uri(raw_path)
        return HTTPRequest(
            method=method,
            uri=uri,
            path=path,
            query=query,
            version=version,
            headers=headers,
        )
