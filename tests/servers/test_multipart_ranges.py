"""End-to-end tests for ``multipart/byteranges`` 206 responses (RFC 7233).

The framing contract, verified byte for byte against the served file:

* a two-range GET answers a well-formed multipart 206 — boundary declared
  in ``Content-Type``, per-part ``Content-Range`` headers, parts equal to
  the exact file slices, closing delimiter, exact ``Content-Length`` —
  through both the iterated-sendfile and the buffered send paths;
* chunk-boundary-straddling windows, overlapping and unsorted range lists
  are served verbatim in request order;
* a multi-range set with a single satisfiable window collapses to a plain
  single-part 206;
* HEAD gets the multipart header bodylessly, with the same Content-Length
  a GET would carry;
* the hot-response cache serves multipart GETs as read-side hits over the
  entry's pinned resources (no re-translation), byte-identically to the
  slow path, across SPED/AMPED/MP/MT and the zero-copy/hot toggles.
"""

import re

import pytest

from repro.cache.residency import SimulatedResidencyOracle
from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.core.server import FlashServer
from repro.servers.sped import SPEDServer

# Patterned so any mis-sliced window is detected byte for byte; large
# enough to span several 64 KB mapped chunks.  200 000 bytes.
BIG = b"".join(b"%07d|" % i for i in range(25_000))


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "big.bin").write_bytes(BIG)
    return str(tmp_path)


def config_for(docroot, **overrides):
    overrides.setdefault("num_helpers", 2)
    return ServerConfig(document_root=docroot, port=0, **overrides)


def normalize(raw: bytes) -> bytes:
    """Blank out Date headers: they track the wall clock, not the toggles."""
    return re.sub(rb"Date: [^\r]+\r\n", b"Date: X\r\n", raw)


def get_ranges(address, spec, path="/big.bin", **headers):
    merged = {"Range": f"bytes={spec}", **headers}
    return fetch(*address, path, headers=merged)


def parse_multipart(response):
    """Strictly parse a multipart/byteranges body into its parts.

    Returns ``[(content_range_value, part_bytes), ...]`` and asserts the
    framing invariants on the way: declared boundary, CRLF delimiters, a
    blank line after each part header block, the closing delimiter, and a
    Content-Length that covers the body exactly.
    """
    content_type = response.headers["content-type"]
    assert content_type.startswith("multipart/byteranges; boundary=")
    boundary = content_type.split("boundary=", 1)[1].encode("latin-1")
    body = response.body
    assert response.content_length == len(body)
    # Normalize: every delimiter (including the first) becomes CRLF-led.
    stream = b"\r\n" + body
    pieces = stream.split(b"\r\n--" + boundary)
    assert pieces[0] == b"", "body must start with the dash-boundary"
    assert pieces[-1] == b"--\r\n", "body must end with the closing delimiter"
    parts = []
    for piece in pieces[1:-1]:
        assert piece.startswith(b"\r\n")
        head, separator, payload = piece.partition(b"\r\n\r\n")
        assert separator, "part headers must end with a blank line"
        headers = {}
        for line in head[2:].split(b"\r\n"):
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()
        assert b"content-range" in headers
        assert b"content-type" in headers
        parts.append((headers[b"content-range"].decode("latin-1"), payload))
    return parts


def expected_parts(windows, data=BIG):
    return [
        (
            f"bytes {offset}-{offset + length - 1}/{len(data)}",
            data[offset : offset + length],
        )
        for offset, length in windows
    ]


#: (spec, windows) pairs exercising the framing-sensitive shapes: plain
#: pairs, chunk-straddling windows (the mmap cache maps 64 KB chunks),
#: overlapping windows, unsorted order, suffix/open-ended members, and a
#: window spanning multiple whole chunks.
MULTI_SHAPES = [
    ("0-9,100-199", [(0, 10), (100, 100)]),
    ("65530-65545,131066-131081", [(65530, 16), (131066, 16)]),  # chunk straddles
    ("0-99,50-149,150000-150009", [(0, 150), (150000, 10)]),      # overlap coalesces
    ("150000-150009,5-9,65530-65545", [(150000, 10), (5, 5), (65530, 16)]),  # unsorted
    ("-16,0-15", [(199984, 16), (0, 16)]),                        # suffix first
    ("60000-140000,199999-", [(60000, 80001), (199999, 1)]),      # multi-chunk span
]


class TestMultipartFramingGrid:
    @pytest.mark.parametrize("server_cls", [SPEDServer, FlashServer])
    @pytest.mark.parametrize("zero_copy", [True, False])
    @pytest.mark.parametrize("hot", [True, False])
    def test_parts_equal_file_slices(self, docroot, server_cls, zero_copy, hot):
        server = server_cls(config_for(docroot, zero_copy=zero_copy, hot_cache=hot))
        server.start()
        try:
            # Prime the caches with a full GET, then run the shape battery
            # twice: the second pass exercises the hot read-side hit.
            full = fetch(*server.address, "/big.bin")
            assert full.status == 200 and full.body == BIG
            for round_index in range(2):
                for spec, windows in MULTI_SHAPES:
                    response = get_ranges(server.address, spec)
                    assert response.status == 206, (spec, round_index)
                    parts = parse_multipart(response)
                    assert parts == expected_parts(windows), (spec, round_index)
        finally:
            server.stop()
        stats = server.stats
        assert stats.range_multipart_responses >= 2 * len(MULTI_SHAPES)
        if hot:
            assert stats.hot_hits > 0
        if zero_copy:
            assert stats.sendfile_responses > 0
            assert stats.sendfile_fallbacks == 0

    def test_sendfile_and_buffered_bodies_are_byte_identical(self, docroot):
        bodies = {}
        for zero_copy in (True, False):
            server = SPEDServer(config_for(docroot, zero_copy=zero_copy))
            server.start()
            try:
                response = get_ranges(server.address, "0-9,65530-65545")
            finally:
                server.stop()
            assert response.status == 206
            bodies[zero_copy] = (response.headers["content-type"], response.body)
        assert bodies[True] == bodies[False]


class TestCollapseAndEdges:
    def test_single_survivor_collapses_to_plain_206(self, docroot):
        """Multi-range syntax whose other members are unsatisfiable must
        produce an ordinary single-part 206, not a one-part multipart."""
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            response = get_ranges(server.address, "100-199,999999-")
        finally:
            server.stop()
        assert response.status == 206
        assert response.headers["content-range"] == f"bytes 100-199/{len(BIG)}"
        assert not response.headers["content-type"].startswith("multipart/")
        assert response.body == BIG[100:200]
        assert server.stats.range_multipart_responses == 0

    def test_all_unsatisfiable_multi_syntax_is_416(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            response = get_ranges(server.address, "999999-,-0")
        finally:
            server.stop()
        assert response.status == 416
        assert response.headers["content-range"] == f"bytes */{len(BIG)}"

    def test_head_gets_multipart_header_without_body(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            get_response = get_ranges(server.address, "0-9,100-199")
            head_fresh = fetch(*server.address, "/big.bin", method="HEAD",
                               headers={"Range": "bytes=0-9,100-199"})
            fetch(*server.address, "/big.bin")  # prime the hot cache
            head_hot = fetch(*server.address, "/big.bin", method="HEAD",
                             headers={"Range": "bytes=0-9,100-199"})
        finally:
            server.stop()
        for head in (head_fresh, head_hot):
            assert head.status == 206
            assert head.body == b""
            assert head.headers["content-type"] == get_response.headers["content-type"]
            assert head.content_length == get_response.content_length

    def test_etag_rides_multipart_206(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            full = fetch(*server.address, "/big.bin")
            response = get_ranges(server.address, "0-9,100-199")
        finally:
            server.stop()
        assert response.headers["etag"] == full.headers["etag"]


class TestHotReadSideMultipart:
    def test_multipart_hit_reuses_pinned_resources(self, docroot):
        """After a full GET populates the hot cache, multipart GETs are
        served from the entry's pinned fd/chunks: no further translation."""
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            fetch(*server.address, "/big.bin")
            translations_before = server.stats.blocking_translations
            pathname_misses_before = server.store.pathname_cache.misses
            for spec, windows in MULTI_SHAPES:
                response = get_ranges(server.address, spec)
                assert response.status == 206
                assert parse_multipart(response) == expected_parts(windows)
            assert server.stats.blocking_translations == translations_before
            assert server.store.pathname_cache.misses == pathname_misses_before
            assert server.stats.hot_hits >= len(MULTI_SHAPES)
        finally:
            server.stop()

    def test_hot_and_cold_multipart_bytes_agree(self, docroot):
        streams = {}
        for hot in (True, False):
            server = SPEDServer(config_for(docroot, hot_cache=hot))
            server.start()
            try:
                fetch(*server.address, "/big.bin")
                response = get_ranges(server.address, "0-9,65530-65545,-16")
            finally:
                server.stop()
            assert response.status == 206
            streams[hot] = (response.headers["content-type"], response.body)
        assert streams[True] == streams[False]


class TestAmpedColdMultipart:
    def test_cold_multipart_warms_covering_span(self, docroot):
        """A cold multi-range response on AMPED goes through a warming
        helper (one covering-span request) and still serves exact slices."""
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = FlashServer(config_for(docroot, zero_copy=True), residency_tester=oracle)
        server.start()
        try:
            response = get_ranges(server.address, "100-199,150000-150099")
        finally:
            server.stop()
        assert response.status == 206
        assert parse_multipart(response) == expected_parts(
            [(100, 100), (150000, 100)]
        )
        assert server.stats.blocking_reads >= 1
        assert server.stats.sendfile_warm_degradations == 0


class TestPreconditionsBeatMultipart:
    """RFC 7232 §6 audit (PR 8): a failed ``If-Match`` or
    ``If-Unmodified-Since`` answers 412 even when the request also carries
    a multi-range ``Range`` header — the precondition is evaluated before
    range selection, on the slow path and on the hot-cache path alike."""

    @pytest.mark.parametrize("server_cls", [SPEDServer, FlashServer])
    @pytest.mark.parametrize(
        "precondition",
        [
            {"If-Match": '"deadbeef-0"'},
            {"If-Unmodified-Since": "Thu, 01 Jan 1970 00:00:00 GMT"},
        ],
        ids=["if-match", "if-unmodified-since"],
    )
    def test_412_beats_multipart_on_slow_and_hot_paths(
        self, docroot, server_cls, precondition
    ):
        server = server_cls(config_for(docroot))
        server.start()
        try:
            # Slow path: first-ever request for the target.
            cold = get_ranges(server.address, "0-9,100-199", **precondition)
            # Prime the hot cache with a plain 200, then repeat the
            # conditional multi-range request as a hot lookup.
            full = fetch(*server.address, "/big.bin")
            hot = get_ranges(server.address, "0-9,100-199", **precondition)
        finally:
            server.stop()
        for response in (cold, hot):
            assert response.status == 412
            # The 412 carries current validators, never multipart framing.
            assert response.headers["etag"] == full.headers["etag"]
            assert "multipart" not in response.headers.get("content-type", "")

    def test_passing_precondition_still_serves_multipart(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            full = fetch(*server.address, "/big.bin")
            etag = full.headers["etag"]
            response = get_ranges(
                server.address, "0-9,100-199", **{"If-Match": etag}
            )
        finally:
            server.stop()
        assert response.status == 206
        assert parse_multipart(response) == expected_parts([(0, 10), (100, 100)])
