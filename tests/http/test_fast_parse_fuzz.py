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

import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.http.errors import HTTPError
from repro.http.request import (
    FAST_MISS,
    FAST_PROBE_LIMIT,
    FAST_TARGET_LIMIT,
    RequestParser,
    probe_fast_request,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from bench import workloads  # noqa: E402

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


def assert_declines_or_agrees(data):
    """The probe's contract on ``data``; returns its verdict."""
    probed = probe_fast_request(data)
    if probed is None:
        # Incomplete verdicts only while a CRLF head could still arrive.
        assert b"\r\n\r\n" not in data[:FAST_PROBE_LIMIT]
        assert len(data) < FAST_PROBE_LIMIT
        return probed
    if probed is FAST_MISS:
        return probed  # declined: the full parser decides alone
    fast, header_end = probed
    # A fast accept must agree byte-for-byte with the full parser.
    outcome = _full_outcome(data)
    assert outcome[0] == "complete", (
        f"probe accepted what the full parser calls {outcome}"
    )
    (_, method, uri, path, _query, version, _headers, body,
     keep_alive, remainder) = outcome
    assert method == "GET"
    assert uri.encode("latin-1") == fast.target
    assert not path.startswith("/cgi-bin/")
    assert len(fast.target) <= FAST_TARGET_LIMIT
    assert header_end <= FAST_PROBE_LIMIT
    assert version in ("HTTP/1.1", "HTTP/1.0")
    assert keep_alive == fast.keep_alive
    assert body == b""
    assert remainder == bytes(data[header_end:])
    return probed


# -- edge cases of the probe's own grammar ---------------------------------------

_EDGE_TARGETS = st.one_of(
    st.sampled_from(
        [
            "/", "/a/", "//", "/a//b", "/.", "/./a", "/a/.", "/.hidden",
            "/a/../b", "/a/b.", "/a.b/c", "/cgi-bin/x", "/cgi-bin", "/cgi-bin/",
            "/CGI-BIN/x", "/x/cgi-bin/y", "/a\tb", "/a\x1cb", "/a\x85b",
            "/caf\xe9", "/a;b", "/~user/x", "/a\\b",
        ]
    ),
    # A target one short of, at, and one past the probe's length limit.
    st.integers(min_value=-1, max_value=1).map(lambda d: "/" + "t" * (FAST_TARGET_LIMIT - 1 + d)),
)

_EDGE_NAMES = st.sampled_from(
    [
        "Host", "X-Ok", "x_under", "Accept", "connection", "CONNECTION",
        "Connection", "Bad Name", 'Na"me', "Na(me)", "N\xe4me", "X@Y",
        "X:Y", "Range-Unit", "If", "Ifx", "If-Match", "Expect",
    ]
)

_EDGE_VALUES = st.sampled_from(
    [
        "v", "", " close ", "\tClose", "CLOSE", "close", "keep-alive",
        " Keep-Alive\t", "close\x85", "close\xa0", "close\x0b", "a\rb",
        "a\r", "\r", "close, keep-alive", "x\x00y",
    ]
)


@st.composite
def edge_request_bytes(draw):
    """Requests at the probe's edges, with the terminator optionally padded
    to land one short of, at, or one past ``FAST_PROBE_LIMIT``."""
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    lines = [f"GET {draw(_EDGE_TARGETS)} {version}"]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lines.append(f"{draw(_EDGE_NAMES)}:{draw(_EDGE_VALUES)}")
    raw = "\r\n".join(lines).encode("latin-1") + b"\r\n"
    if draw(st.booleans()):
        pad = FAST_PROBE_LIMIT + draw(st.integers(min_value=-1, max_value=1))
        pad -= len(raw) + len(b"X-Pad: \r\n\r\n")
        if pad >= 0:
            raw += b"X-Pad: " + b"p" * pad + b"\r\n"
    raw += b"\r\n"
    if draw(st.booleans()):
        raw += b"GET /next HTTP/1.1\r\n\r\n"  # a pipelined request behind it
    return raw


def head(target="/a", version="HTTP/1.1", *lines):
    return ("\r\n".join([f"GET {target} {version}", *lines]) + "\r\n\r\n").encode("latin-1")


class TestProbeEdges:
    @given(data=edge_request_bytes())
    @settings(max_examples=600, deadline=None)
    def test_edges_decline_or_agree(self, data):
        assert_declines_or_agrees(data)

    @pytest.mark.parametrize("extra, accepted", [(-1, True), (0, True), (1, False)])
    def test_target_length_limit(self, extra, accepted):
        target = "/" + "t" * (FAST_TARGET_LIMIT - 1 + extra)
        probed = assert_declines_or_agrees(head(target))
        assert (probed is not FAST_MISS) == accepted

    @pytest.mark.parametrize("extra, accepted", [(-1, True), (0, True), (1, False)])
    def test_terminator_limit(self, extra, accepted):
        bare = head("/a", "HTTP/1.1", "X-Pad: ")
        data = head("/a", "HTTP/1.1", "X-Pad: " + "p" * (FAST_PROBE_LIMIT + extra - len(bare)))
        assert len(data) == FAST_PROBE_LIMIT + extra
        probed = assert_declines_or_agrees(data)
        assert (probed is not FAST_MISS) == accepted
        if accepted:
            assert probed[1] == len(data)

    @pytest.mark.parametrize(
        "version, lines, keep_alive",
        [
            ("HTTP/1.1", (), True),
            ("HTTP/1.0", (), False),
            ("HTTP/1.0", ("Connection: keep-alive",), True),
            ("HTTP/1.0", ("connection:  Keep-Alive\t",), True),
            ("HTTP/1.1", ("CONNECTION: Close",), False),
            ("HTTP/1.1", ("Connection: close", "Connection: keep-alive"), True),
            ("HTTP/1.1", ("Connection: keep-alive", "Host: h", "connection: close"), False),
            ("HTTP/1.0", ("Connection: keep-alive", "Connection: close"), False),
            ("HTTP/1.1", ("Connection: close\x85",), False),
        ],
    )
    def test_connection_disposition(self, version, lines, keep_alive):
        probed = assert_declines_or_agrees(head("/a", version, *lines))
        assert probed is not FAST_MISS
        assert probed[0].keep_alive == keep_alive

    @pytest.mark.parametrize(
        "data",
        [
            head("//a"), head("/./a"), head("/.hidden"), head("/a//"),
            head("/cgi-bin/x"), head("/a", "HTTP/1.1", "Bad Name: v"),
            head("/a", "HTTP/1.1", "X: a\rb"), head("/a", "HTTP/1.1", "If-None-Match: x"),
            head("/a", "HTTP/1.1", "range: bytes=0-1"), b"GET /a HTTP/1.1\r\nX: y\nZ: w\r\n\r\n",
        ],
    )
    def test_declined_shapes(self, data):
        assert probe_fast_request(data) is FAST_MISS


class TestBenchShapes:
    """The benchmark's plain-GET and ``Connection: close`` requests take the
    fast probe, so a silent decline cannot hide a hot-path change; its
    conditional, range and HEAD requests leave it for the full parser."""

    SPEC = workloads.FileSpec(index=7, target=b"/f00007.bin", size=4096, crc=0, crc_range=0)

    @pytest.mark.parametrize(
        "shape, keep_alive", [(workloads.GET, True), (workloads.CLOSE, False)]
    )
    def test_plain_shapes_are_accepted(self, shape, keep_alive):
        raw = workloads.Request(self.SPEC, shape).raw
        probed = assert_declines_or_agrees(raw)
        assert probed is not FAST_MISS and probed is not None
        fast, header_end = probed
        assert (fast.target, fast.keep_alive) == (self.SPEC.target, keep_alive)
        assert header_end == len(raw)

    @pytest.mark.parametrize("shape", [workloads.INM, workloads.RANGE, workloads.HEAD])
    def test_other_shapes_are_declined(self, shape):
        raw = workloads.Request(self.SPEC, shape, etag=b'"e"').raw
        assert probe_fast_request(raw) is FAST_MISS


class TestProbeAgainstFullParser:
    @given(data=request_bytes())
    @settings(max_examples=400, deadline=None)
    def test_probe_declines_or_agrees(self, data):
        assert_declines_or_agrees(data)

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
