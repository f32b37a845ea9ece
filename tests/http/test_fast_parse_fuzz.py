"""Property/fuzz tests for fast-vs-full parser parity.

PR 3's invariant, previously only spot-checked: :func:`probe_fast_request`
either *declines* (``None`` / ``FAST_MISS``) or *agrees byte-for-byte* with
the full parser — a fast accept can never change the method, target,
connection disposition, remainder split, or mask an error the full parser
would have raised.  These tests generate randomized request bytes (valid
GETs, other methods, truncations, folded headers, bare-LF line endings,
whitespace before a colon, percent-escapes, query strings, conditional
headers) and check the
invariant on every one.
"""

from hypothesis import given, settings, strategies as st

from repro.http.errors import HTTPError
from repro.http.request import (
    FAST_MISS,
    FAST_PROBE_LIMIT,
    RequestParser,
    probe_fast_request,
)

# -- request-bytes generator -----------------------------------------------------

_METHODS = st.sampled_from(["GET", "HEAD", "POST", "PUT", "OPTIONS", "get"])

_TARGETS = st.sampled_from(
    [
        "/",
        "/index.html",
        "/doc_001.html",
        "/a/b/c.txt",
        "/with%20escape.html",
        "/query?a=1&b=2",
        "/frag#top",
        "//double",
        "/./dot",
        "/../up",
        "/cgi-bin/app",
        "/sp ace",
        "/long" + "x" * 300,
    ]
)

_VERSIONS = st.sampled_from(
    ["HTTP/1.1", "HTTP/1.0", "HTTP/0.9", "HTTP/2.0", "HTCPCP/1.0", ""]
)

_HEADER_LINES = st.lists(
    st.sampled_from(
        [
            "Host: bench",
            "Connection: keep-alive",
            "Connection: close",
            "Connection: Keep-Alive",
            "Accept: */*",
            "User-Agent: fuzz/1.0",
            "If-None-Match: \"abc\"",
            "If-Modified-Since: Thu, 01 Jan 1970 00:00:00 GMT",
            "Range: bytes=0-99",
            "Content-Length: 5",
            "X-Custom: value",
            "x-lower: v",
            " folded-continuation",
            "\tfolded-tab",
            "no-colon-line",
            "Empty-Value:",
            "Host : bench",
            "Connection\t: close",
        ]
    ),
    max_size=6,
)

_SEPARATORS = st.sampled_from(["\r\n", "\n"])


@st.composite
def request_bytes(draw):
    """Randomized request head bytes, possibly truncated mid-stream."""
    method = draw(_METHODS)
    target = draw(_TARGETS)
    version = draw(_VERSIONS)
    separator = draw(_SEPARATORS)
    request_line = f"{method} {target} {version}".rstrip()
    lines = [request_line, *draw(_HEADER_LINES)]
    raw = separator.join(lines).encode("latin-1") + separator.encode() * 2
    if draw(st.booleans()):
        # Truncate anywhere, including inside the terminator.
        raw = raw[: draw(st.integers(min_value=0, max_value=len(raw)))]
    return raw


def _full_outcome(data):
    """What the full parser does with ``data``: an outcome tuple that is
    comparable across fast-on and fast-off parsers."""
    parser = RequestParser(fast=False)
    try:
        complete = parser.feed(data)
    except HTTPError as error:
        return ("error", type(error).__name__)
    if not complete:
        return ("incomplete",)
    request = parser.request
    return (
        "complete",
        request.method,
        request.uri,
        request.path,
        request.query,
        request.version,
        sorted(request.headers.items()),
        request.body,
        request.keep_alive,
        parser.remainder,
    )


class TestProbeAgainstFullParser:
    @given(data=request_bytes())
    @settings(max_examples=400, deadline=None)
    def test_probe_declines_or_agrees(self, data):
        probed = probe_fast_request(data)
        if probed is None:
            # Incomplete verdicts only while a CRLF head could still arrive.
            assert b"\r\n\r\n" not in data[:FAST_PROBE_LIMIT]
            assert len(data) < FAST_PROBE_LIMIT
            return
        if probed is FAST_MISS:
            return  # declined: the full parser decides alone
        fast, header_end = probed
        # A fast accept must agree byte-for-byte with the full parser.
        outcome = _full_outcome(data)
        assert outcome[0] == "complete", (
            f"probe accepted what the full parser calls {outcome}"
        )
        (_, method, uri, _path, _query, version, _headers, body,
         keep_alive, remainder) = outcome
        assert method == "GET"
        assert uri.encode("latin-1") == fast.target
        assert version in ("HTTP/1.1", "HTTP/1.0")
        assert keep_alive == fast.keep_alive
        assert body == b""
        assert remainder == bytes(data[header_end:])

    @given(data=request_bytes())
    @settings(max_examples=400, deadline=None)
    def test_fast_parser_matches_full_parser(self, data):
        fast_parser = RequestParser(fast=True)
        try:
            fast_complete = fast_parser.feed(data)
        except HTTPError as error:
            fast_outcome = ("error", type(error).__name__)
        else:
            if fast_complete:
                request = fast_parser.request  # force lazy materialization
                fast_outcome = (
                    "complete",
                    request.method,
                    request.uri,
                    request.path,
                    request.query,
                    request.version,
                    sorted(request.headers.items()),
                    request.body,
                    request.keep_alive,
                    fast_parser.remainder,
                )
            else:
                fast_outcome = ("incomplete",)
        assert fast_outcome == _full_outcome(data)

    @given(data=request_bytes(), chunk=st.integers(min_value=1, max_value=7))
    @settings(max_examples=150, deadline=None)
    def test_chunked_feeding_matches_one_shot(self, data, chunk):
        """Byte-dribbled feeding (the probe re-runs per chunk) converges on
        the same outcome as a single feed."""
        parser = RequestParser(fast=True)
        outcome = None
        try:
            for start in range(0, len(data), chunk):
                if parser.feed(data[start : start + chunk]):
                    break
        except HTTPError as error:
            outcome = ("error", type(error).__name__)
        if outcome is None:
            if parser.complete:
                request = parser.request
                outcome = (
                    "complete",
                    request.method,
                    request.uri,
                    request.path,
                    request.query,
                    request.version,
                    sorted(request.headers.items()),
                    request.body,
                    request.keep_alive,
                    parser.remainder,
                )
            else:
                outcome = ("incomplete",)
        assert outcome == _full_outcome(data)

    @given(
        target=st.text(
            alphabet=st.characters(
                min_codepoint=0x21, max_codepoint=0x7E
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_printable_targets(self, target):
        """Fully adversarial targets: whatever the probe accepts, the full
        parser must read identically."""
        data = f"GET /{target} HTTP/1.1\r\nHost: h\r\n\r\n".encode("latin-1")
        probed = probe_fast_request(data)
        if probed is None or probed is FAST_MISS:
            return
        fast, _ = probed
        outcome = _full_outcome(data)
        assert outcome[0] == "complete"
        assert outcome[2].encode("latin-1") == fast.target
        assert outcome[8] == fast.keep_alive
