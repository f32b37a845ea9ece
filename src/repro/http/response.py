"""HTTP response-header generation with byte-position alignment.

Section 5.5 of the paper describes an optimization unique to Flash among the
servers compared: when ``writev()`` gathers the response header and the file
data into one kernel buffer, a header whose length is not a multiple of the
machine word size forces misaligned copies of *all* subsequent regions.
Flash therefore aligns response headers on 32-byte boundaries and pads their
length to a multiple of 32 bytes by adding characters to variable-length
fields (the ``Server`` name).

This module reproduces that behaviour: :class:`ResponseHeaderBuilder`
produces response headers whose encoded length is padded to a configurable
alignment, and records how much padding was applied so the evaluation layer
can quantify the cost of *not* doing it (the Zeus anomaly in Figure 7).
"""

from __future__ import annotations

import email.utils
import functools
import hashlib
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.http.errors import reason_phrase

#: Alignment target used by Flash (Section 5.5): 32 bytes, chosen to match
#: systems with 32-byte cache lines rather than simple word alignment.
DEFAULT_ALIGNMENT = 32

#: Server identification string, the variable-length field that gets padded.
SERVER_NAME = "Flash-repro/1.0"


#: Distinct seconds whose formatted date is remembered.  A header names
#: three (now, the file's mtime, now + max-age), so the working set is the
#: docroot's distinct mtime seconds plus two per wall-clock second.
DATE_MEMO_SECONDS = 1024


def http_date(timestamp: float | None = None) -> str:
    """Format ``timestamp`` (seconds since epoch) as an RFC 1123 date.

    Byte-identical to ``email.utils.formatdate(timestamp, usegmt=True)``,
    but each whole second is formatted once: an HTTP date has one-second
    resolution, and a header carries up to three of them.  ``None`` means
    now.
    """
    if timestamp is None:
        timestamp = time.time()
    # The second the serializer lands on (see serialized_timestamp): the
    # fraction rounds half-even to a microsecond first, and a carry (or,
    # before the epoch, a borrow) moves the whole part.
    fraction, whole = math.modf(timestamp)
    second = int(whole)
    micros = round(fraction * 1e6)
    if micros >= 1_000_000:
        second += 1
    elif micros < 0:
        second -= 1
    return _format_second(second)


@functools.lru_cache(maxsize=DATE_MEMO_SECONDS)
def _format_second(second: int) -> str:
    return email.utils.formatdate(second, usegmt=True)


def serialized_timestamp(mtime: float) -> float:
    """The whole-second timestamp ``Last-Modified: {http_date(mtime)}`` carries.

    Validator comparisons must use *this* second, not ``int(mtime)``: the
    serializer (``email.utils.formatdate`` →
    ``datetime.fromtimestamp``) rounds the fraction to the nearest
    microsecond before flooring to seconds, so an mtime within half a
    microsecond of the next second serializes one second *later* than
    ``int()`` truncation says.  Comparing with ``int(mtime)`` would then
    304 against a validator older than the ``Last-Modified`` the server
    itself advertises for the file.
    """
    parsed = email.utils.parsedate_to_datetime(http_date(mtime))
    return parsed.timestamp()


def make_etag(size: int, mtime_ns: int) -> str:
    """Mint the strong entity-tag for a ``(size, mtime_ns)`` file identity.

    RFC 7232 §2.3: the tag is an opaque quoted string; this server derives
    it from the two fields pathname translation already collects, at
    nanosecond mtime granularity — strictly finer than the one-second
    ``Last-Modified`` validator, which is what makes the tag *strong* (two
    distinct on-disk states within the same second still get distinct
    tags).  The quotes are part of the returned value so it can be emitted
    and compared verbatim.
    """
    return f'"{size:x}-{mtime_ns:x}"'


def parse_etag_list(value: str) -> Optional[list[str]]:
    """Split an ``If-Match``/``If-None-Match`` value into entity-tags.

    Returns ``["*"]`` for the wildcard form, a list of raw tags (weak
    prefix and quotes preserved, e.g. ``'W/"abc"'``) for a tag list, or
    ``None`` when the value is malformed — which callers treat as "no tag
    matches", degrading to the unconditional answer.  Commas *inside*
    quoted tags are honoured (RFC 7232 permits them in ``etagc``), so the
    scan walks quote pairs instead of naively splitting on commas.
    """
    value = value.strip()
    if not value:
        return None
    if value == "*":
        return ["*"]
    tags: list[str] = []
    position = 0
    length = len(value)
    while position < length:
        while position < length and value[position] in " \t,":
            position += 1
        if position >= length:
            break
        start = position
        if value.startswith("W/", position):
            position += 2
        if position >= length or value[position] != '"':
            return None
        closing = value.find('"', position + 1)
        if closing < 0:
            return None
        position = closing + 1
        tags.append(value[start:position])
    return tags or None


def _is_weak(tag: str) -> bool:
    return tag.startswith("W/")


def _opaque(tag: str) -> str:
    """The quoted opaque part of a tag, with any weak prefix removed."""
    return tag[2:] if _is_weak(tag) else tag


def etag_strong_match(candidate: str, current: str) -> bool:
    """RFC 7232 §2.3.2 strong comparison: equal octets, neither tag weak."""
    if _is_weak(candidate) or _is_weak(current):
        return False
    return candidate == current


def etag_weak_match(candidate: str, current: str) -> bool:
    """RFC 7232 §2.3.2 weak comparison: equal opaque parts, weakness ignored."""
    return _opaque(candidate) == _opaque(current)


def if_none_match_matches(value: str, etag: str) -> bool:
    """Whether an ``If-None-Match`` value forbids returning the selected
    representation (GET/HEAD answer: 304).

    Uses the *weak* comparison (RFC 7232 §3.2): a cache revalidating a
    stored response cares about equivalence, not byte identity.  Malformed
    lists answer False (serve the full response — never incorrect).
    """
    tags = parse_etag_list(value)
    if tags is None:
        return False
    if tags == ["*"]:
        return True
    return any(etag_weak_match(tag, etag) for tag in tags)


def if_match_matches(value: str, etag: str) -> bool:
    """Whether an ``If-Match`` precondition holds for the current ``etag``.

    Uses the *strong* comparison (RFC 7232 §3.1): If-Match guards state-
    changing requests against lost updates, where "equivalent" is not good
    enough.  A failed (or malformed) precondition answers False and the
    response becomes a 412.
    """
    tags = parse_etag_list(value)
    if tags is None:
        return False
    if tags == ["*"]:
        return True
    return any(etag_strong_match(tag, etag) for tag in tags)


def if_unmodified_since_matches(value: str, mtime: float) -> bool:
    """Whether an ``If-Unmodified-Since`` precondition holds.

    True when the file has *not* been modified after the supplied date,
    compared at the second granularity ``Last-Modified`` is expressed in
    (see :func:`serialized_timestamp`).  RFC 7232 §3.4: an unparseable
    value means the header must be ignored, so it answers True (the
    precondition does not fail).
    """
    parsed = _parse_http_date(value)
    if parsed is None:
        return True
    return serialized_timestamp(mtime) <= parsed.timestamp()


def _parse_http_date(value: str):
    """Parse an HTTP date to an aware datetime, or ``None`` when malformed."""
    try:
        parsed = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if parsed is None:
        return None
    if parsed.tzinfo is None:
        from datetime import timezone

        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed


def if_modified_since_matches(value: str, mtime: float) -> bool:
    """Whether an ``If-Modified-Since`` value makes a 304 the right answer.

    The common case — the client echoing back exactly the ``Last-Modified``
    string the server sent — is decided by string comparison; anything else
    is parsed as an HTTP date and compared at second granularity (the
    granularity ``Last-Modified`` is expressed in), using the same
    truncation the header serializer applies to ``mtime`` (see
    :func:`serialized_timestamp`).  Unparseable values answer False, which
    degrades to a full 200 response (never incorrect, only less efficient —
    the same behaviour production servers choose).
    """
    if value == http_date(mtime):
        return True
    parsed = _parse_http_date(value)
    if parsed is None:
        return False
    return serialized_timestamp(mtime) <= parsed.timestamp()


def if_range_matches(value: str, mtime: float, etag: Optional[str] = None) -> bool:
    """Whether an ``If-Range`` validator still selects the current file.

    RFC 7233 §3.2 admits both validator forms, each under the *strong*
    comparison — unlike ``If-Modified-Since``, "not newer" is not good
    enough, because a mismatch means the client's partial copy may be of
    different bytes:

    * an entity-tag form (the value starts with ``"`` or ``W/``) matches
      only on a strong ETag comparison with ``etag`` — a weak tag never
      matches, per §2.3.2;
    * a Date form matches only on an *exact* match with the
      representation's ``Last-Modified`` second.

    Unparseable values answer False, which degrades the Range request to a
    full 200 — always a correct answer, per the RFC.
    """
    value = value.strip()
    if not value:
        return False
    if value.startswith('"') or value.startswith("W/"):
        return etag is not None and etag_strong_match(value, etag)
    if value == http_date(mtime):
        return True
    parsed = _parse_http_date(value)
    if parsed is None:
        return False
    return serialized_timestamp(mtime) == parsed.timestamp()


def content_range(offset: int, length: int, size: int) -> str:
    """The ``Content-Range`` value for a satisfied range (RFC 7233 §4.2)."""
    return f"bytes {offset}-{offset + length - 1}/{size}"


def content_range_unsatisfied(size: int) -> str:
    """The ``Content-Range`` value carried by a 416 (RFC 7233 §4.4)."""
    return f"bytes */{size}"


# -- multipart/byteranges framing (RFC 7233 §4.1 / Appendix A) ----------------

def multipart_boundary(etag: str, windows: Sequence[tuple[int, int]]) -> str:
    """A boundary string for a multipart/byteranges response.

    Deterministic by design: derived from the representation's entity-tag
    and the requested windows, so the same multi-range request against the
    same file bytes produces byte-identical responses across architectures
    and cache toggles — the property the parity tests pin down.  (A
    deterministic boundary could in principle be embedded in adversarial
    file content; the digest makes that require engineering a collision
    against the file's own validator, which static workloads do not do.)
    """
    digest = hashlib.sha256()
    digest.update(etag.encode("latin-1"))
    for offset, length in windows:
        digest.update(b"%d-%d;" % (offset, length))
    return "flashrepro" + digest.hexdigest()[:24]


def multipart_part_head(
    boundary: str,
    content_type: str,
    offset: int,
    length: int,
    size: int,
    *,
    first: bool = False,
) -> bytes:
    """The framing that precedes one body part of a multipart 206.

    Every part after the first is introduced by the CRLF that terminates
    the previous part's bytes (the delimiter is ``CRLF "--" boundary``,
    RFC 2046 §5.1.1); the first part omits it so the body starts directly
    with the dash-boundary, matching the RFC 7233 Appendix A example.
    """
    lead = b"" if first else b"\r\n"
    return lead + (
        f"--{boundary}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Range: {content_range(offset, length, size)}\r\n"
        "\r\n"
    ).encode("latin-1")


def multipart_trailer(boundary: str) -> bytes:
    """The closing delimiter that ends a multipart/byteranges body."""
    return f"\r\n--{boundary}--\r\n".encode("latin-1")


@dataclass(frozen=True)
class ResponseHeader:
    """An encoded response header together with its metadata.

    Attributes
    ----------
    raw:
        The encoded header bytes, terminated by the blank line.
    status:
        Status code of the response.
    content_length:
        Value of the Content-Length field (0 for bodyless responses).
    padding:
        Number of padding bytes that were added to reach the alignment.
    """

    raw: bytes
    status: int
    content_length: int
    padding: int

    def __len__(self) -> int:
        return len(self.raw)

    @property
    def aligned(self) -> bool:
        """True when the encoded length is a multiple of the alignment used."""
        return self.padding >= 0 and len(self.raw) % DEFAULT_ALIGNMENT == 0


class ResponseHeaderBuilder:
    """Builds (and optionally aligns) HTTP response headers.

    Parameters
    ----------
    server_name:
        Value of the ``Server`` header before padding.
    align:
        Alignment in bytes; ``0`` or ``1`` disables the optimization, which
        is how the "misaligned" configurations in the evaluation are built.
    version:
        HTTP version advertised in the status line.
    """

    def __init__(
        self,
        server_name: str = SERVER_NAME,
        align: int = DEFAULT_ALIGNMENT,
        version: str = "HTTP/1.1",
    ):
        if align < 0:
            raise ValueError("alignment must be non-negative")
        self.server_name = server_name
        self.align = align
        self.version = version

    def build(
        self,
        status: int = 200,
        *,
        content_length: int = 0,
        content_type: str = "text/html",
        last_modified: float | None = None,
        date: float | None = None,
        keep_alive: bool = False,
        etag: str | None = None,
        accept_ranges: bool = False,
        cache_max_age: int | None = None,
        extra_headers: dict[str, str] | None = None,
    ) -> ResponseHeader:
        """Build a response header.

        The header is padded (by extending the ``Server`` field) so that its
        total encoded length is a multiple of :attr:`align`, reproducing the
        byte-position alignment optimization of Section 5.5.  ``etag``
        (already quoted, see :func:`make_etag`) is emitted verbatim;
        ``accept_ranges`` advertises byte-range support — the static
        pipeline sets it on its 200s, while CGI and error responses (which
        the range machinery never serves) leave it off.  ``cache_max_age``
        emits an explicit freshness lifetime (``Cache-Control: max-age=N``
        plus the ``Expires`` fallback for HTTP/1.0 caches); ``Expires`` is
        derived from the same instant as ``Date`` so the pair stays
        mutually consistent even when the header is served from the
        response-header cache later.
        """
        lines = [f"{self.version} {status} {reason_phrase(status)}"]
        lines.append(f"Date: {http_date(date)}")
        lines.append(f"Content-Type: {content_type}")
        lines.append(f"Content-Length: {content_length}")
        if last_modified is not None:
            lines.append(f"Last-Modified: {http_date(last_modified)}")
        if etag is not None:
            lines.append(f"ETag: {etag}")
        if accept_ranges:
            lines.append("Accept-Ranges: bytes")
        if cache_max_age is not None:
            base = time.time() if date is None else date
            lines.append(f"Cache-Control: max-age={cache_max_age}")
            lines.append(f"Expires: {http_date(base + cache_max_age)}")
        lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        if extra_headers:
            for name, value in extra_headers.items():
                lines.append(f"{name}: {value}")
        server_line_index = len(lines)
        lines.append(f"Server: {self.server_name}")

        encoded = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        padding = 0
        if self.align > 1:
            remainder = len(encoded) % self.align
            if remainder:
                padding = self.align - remainder
                lines[server_line_index] = (
                    f"Server: {self.server_name}{' ' * padding}"
                )
                encoded = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return ResponseHeader(
            raw=encoded,
            status=status,
            content_length=content_length,
            padding=padding,
        )

    def build_stream(
        self,
        status: int = 200,
        *,
        content_type: str = "text/html",
        chunked: bool = True,
        keep_alive: bool = False,
        date: float | None = None,
        cache_control: str | None = None,
        extra_headers: dict[str, str] | None = None,
    ) -> ResponseHeader:
        """Build a header for a body whose length is unknown up front.

        The streaming counterpart of :meth:`build`: no ``Content-Length``
        is emitted.  With ``chunked`` (HTTP/1.1 consumers) the body is
        delimited by ``Transfer-Encoding: chunked`` framing and the
        connection may be kept alive; without it (the HTTP/1.0 fallback)
        the *connection close* delimits the body, so ``keep_alive`` is
        forced off regardless of what the caller asked for.  The header
        keeps the Section 5.5 alignment padding so streamed headers go
        through the same aligned-write path as everything else.
        """
        if not chunked:
            keep_alive = False
        lines = [f"{self.version} {status} {reason_phrase(status)}"]
        lines.append(f"Date: {http_date(date)}")
        lines.append(f"Content-Type: {content_type}")
        if chunked:
            lines.append("Transfer-Encoding: chunked")
        if cache_control is not None:
            lines.append(f"Cache-Control: {cache_control}")
        lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        if extra_headers:
            for name, value in extra_headers.items():
                lines.append(f"{name}: {value}")
        server_line_index = len(lines)
        lines.append(f"Server: {self.server_name}")

        encoded = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        padding = 0
        if self.align > 1:
            remainder = len(encoded) % self.align
            if remainder:
                padding = self.align - remainder
                lines[server_line_index] = (
                    f"Server: {self.server_name}{' ' * padding}"
                )
                encoded = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return ResponseHeader(
            raw=encoded,
            status=status,
            content_length=-1,
            padding=padding,
        )


#: ``html.escape(text, quote=False)`` as a translation table: importing
#: :mod:`html` loads its entity tables, about half a megabyte in every
#: server process, for three replacements.
_ESCAPE_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def build_error_response(
    status: int,
    message: str = "",
    *,
    builder: ResponseHeaderBuilder | None = None,
    keep_alive: bool = False,
) -> bytes:
    """Build a complete error response (header + small HTML body).

    All four server architectures use this helper so error handling is
    byte-for-byte identical across them, as required by the paper's
    "same code base" methodology (Section 6).

    ``message`` often quotes the decoded request path, which the client
    chose: it is HTML-escaped, and every non-ASCII character becomes a
    character reference, so no target can inject markup or fail to encode.
    """
    builder = builder or ResponseHeaderBuilder()
    reason = reason_phrase(status)
    message = (message or reason).translate(_ESCAPE_TEXT)
    body = (
        "<html><head><title>{code} {reason}</title></head>"
        "<body><h1>{code} {reason}</h1><p>{message}</p></body></html>\n"
    ).format(code=status, reason=reason, message=message).encode("ascii", "xmlcharrefreplace")
    header = builder.build(
        status,
        content_length=len(body),
        content_type="text/html",
        keep_alive=keep_alive,
    )
    return header.raw + body
