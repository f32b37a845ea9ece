"""End-to-end tests for HTTP/1.1 Range support (RFC 7233).

Covers the tentpole's contract from the issue:

* a live server (SPED and AMPED) answers ``Range: bytes=0-1023`` on a
  cached file with a 206 whose body is exactly that slice, via the
  zero-copy path;
* suffix ranges (``bytes=-N``), open-ended ranges and clamping behave per
  RFC 7233, and out-of-bounds ranges answer 416 with
  ``Content-Range: bytes */<size>``;
* multi-range requests and failed ``If-Range`` preconditions degrade to a
  full 200;
* the hot-response cache serves range GETs as read-side hits over the
  entry's pinned resources (no re-translation);
* the 206/416/If-Range grid is byte-identical across hot-cache ×
  zero-copy (body slices verified against the file bytes);
* a keep-alive connection can interleave range and full GETs;
* MP and MT reach hot-path parity (``hot_hits > 0``) under the same grid.
"""

import os
import re
import socket
import time

import pytest

from repro.cache.residency import SimulatedResidencyOracle
from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.core.server import FlashServer
from repro.servers.mp import MPServer
from repro.servers.mt import MTServer
from repro.servers.sped import SPEDServer

# Patterned so any mis-sliced window is detected byte for byte; large
# enough to span several 64 KB mapped chunks.  200 000 bytes.
BIG = b"".join(b"%07d|" % i for i in range(25_000))
SMALL = b"<html>range me</html>"


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "big.bin").write_bytes(BIG)
    (tmp_path / "small.html").write_bytes(SMALL)
    return str(tmp_path)


def config_for(docroot, **overrides):
    overrides.setdefault("num_helpers", 2)
    return ServerConfig(document_root=docroot, port=0, **overrides)


def normalize(raw: bytes) -> bytes:
    """Blank out Date headers: they track the wall clock, not the toggles."""
    return re.sub(rb"Date: [^\r]+\r\n", b"Date: X\r\n", raw)


def get_range(address, path, spec, **headers):
    merged = {"Range": f"bytes={spec}", **headers}
    return fetch(*address, path, headers=merged)


RANGE_SHAPES = [
    ("0-1023", BIG[:1024]),
    ("1024-2047", BIG[1024:2048]),
    ("65530-65545", BIG[65530:65546]),        # straddles a chunk boundary
    ("199999-", BIG[199999:]),                # open-ended tail
    ("-1024", BIG[-1024:]),                   # suffix
    ("0-0", BIG[:1]),
    ("150000-9999999", BIG[150000:]),         # last clamped to size
    ("-9999999", BIG),                        # suffix larger than the file
]


class TestRangeGrid:
    """206 correctness across architectures and toggle combinations."""

    @pytest.mark.parametrize("server_cls", [SPEDServer, FlashServer])
    @pytest.mark.parametrize("zero_copy", [True, False])
    @pytest.mark.parametrize("hot", [True, False])
    def test_slices_byte_identical_to_file(self, docroot, server_cls, zero_copy, hot):
        server = server_cls(config_for(docroot, zero_copy=zero_copy, hot_cache=hot))
        server.start()
        try:
            # Prime the caches with a full GET, then run the shape battery
            # twice: the second pass exercises the hot read-side hit.
            full = fetch(*server.address, "/big.bin")
            assert full.status == 200 and full.body == BIG
            for round_index in range(2):
                for spec, expected in RANGE_SHAPES:
                    response = get_range(server.address, "/big.bin", spec)
                    assert response.status == 206, (spec, round_index)
                    assert response.body == expected, (spec, round_index)
                    first = len(BIG) - len(expected) if spec.startswith("-") else int(
                        spec.split("-")[0]
                    )
                    assert response.headers["content-range"] == (
                        f"bytes {first}-{first + len(expected) - 1}/{len(BIG)}"
                    )
                    assert response.content_length == len(expected)
        finally:
            server.stop()
        stats = server.stats
        assert stats.range_responses >= 2 * len(RANGE_SHAPES)
        if hot:
            assert stats.hot_hits > 0
        if zero_copy:
            assert stats.sendfile_responses > 0
            assert stats.sendfile_fallbacks == 0

    def test_zero_copy_206_goes_through_sendfile(self, docroot):
        server = SPEDServer(config_for(docroot, zero_copy=True))
        server.start()
        try:
            response = get_range(server.address, "/big.bin", "0-1023")
        finally:
            server.stop()
        assert response.status == 206
        assert response.body == BIG[:1024]
        assert server.stats.sendfile_responses == 1
        assert server.stats.sendfile_fallbacks == 0
        assert server.stats.range_responses == 1


class TestUnsatisfiable:
    @pytest.mark.parametrize("server_cls", [SPEDServer, FlashServer])
    @pytest.mark.parametrize("spec", ["200000-", "999999-1000000", "-0"])
    def test_416_with_star_content_range(self, docroot, server_cls, spec):
        server = server_cls(config_for(docroot))
        server.start()
        try:
            response = get_range(server.address, "/big.bin", spec)
        finally:
            server.stop()
        assert response.status == 416
        assert response.headers["content-range"] == f"bytes */{len(BIG)}"
        assert response.body == b""
        assert server.stats.range_unsatisfiable == 1

    def test_416_from_hot_entry(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            fetch(*server.address, "/big.bin")            # populate the hot cache
            response = get_range(server.address, "/big.bin", "999999-")
        finally:
            server.stop()
        assert response.status == 416
        assert response.headers["content-range"] == f"bytes */{len(BIG)}"
        assert server.stats.hot_hits >= 1
        assert server.stats.range_unsatisfiable == 1


class TestDegradeToFull:
    def test_multi_range_now_gets_multipart_206(self, docroot):
        """What used to degrade to a full 200 is a real multipart 206 now
        (the deep framing checks live in test_multipart_ranges.py)."""
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            response = get_range(server.address, "/big.bin", "0-1,100-199")
        finally:
            server.stop()
        assert response.status == 206
        assert response.headers["content-type"].startswith(
            "multipart/byteranges; boundary="
        )
        assert BIG[0:2] in response.body and BIG[100:200] in response.body
        assert server.stats.range_responses == 1
        assert server.stats.range_multipart_responses == 1

    def test_too_many_ranges_degrade_to_full_200(self, docroot):
        """Past MAX_RANGE_PARTS the header is ignored (RFC 7233 §6.1)."""
        spec = ",".join(f"{i}-{i}" for i in range(0, 80, 2))
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            response = get_range(server.address, "/big.bin", spec)
        finally:
            server.stop()
        assert response.status == 200
        assert response.body == BIG
        assert server.stats.range_responses == 0

    def test_malformed_range_gets_full_200(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            response = get_range(server.address, "/big.bin", "oops")
        finally:
            server.stop()
        assert response.status == 200
        assert response.body == BIG


class TestIfRange:
    @pytest.mark.parametrize("hot_primed", [False, True])
    def test_matching_validator_yields_206(self, docroot, hot_primed):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            if hot_primed:
                fetch(*server.address, "/big.bin")
            stamp = fetch(*server.address, "/big.bin").headers["last-modified"]
            response = get_range(
                server.address, "/big.bin", "0-1023", **{"If-Range": stamp}
            )
        finally:
            server.stop()
        assert response.status == 206
        assert response.body == BIG[:1024]

    @pytest.mark.parametrize("hot_primed", [False, True])
    def test_stale_validator_degrades_to_200(self, docroot, hot_primed):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            if hot_primed:
                fetch(*server.address, "/big.bin")
            response = get_range(
                server.address,
                "/big.bin",
                "0-1023",
                **{"If-Range": "Mon, 01 Jan 1990 00:00:00 GMT"},
            )
        finally:
            server.stop()
        assert response.status == 200
        assert response.body == BIG

    def test_if_modified_since_takes_precedence(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            stamp = fetch(*server.address, "/big.bin").headers["last-modified"]
            response = get_range(
                server.address,
                "/big.bin",
                "0-1023",
                **{"If-Modified-Since": stamp},
            )
        finally:
            server.stop()
        assert response.status == 304
        assert response.body == b""


class TestHeadRanges:
    def test_head_gets_206_header_without_body(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            fresh = fetch(*server.address, "/big.bin", method="HEAD",
                          headers={"Range": "bytes=0-1023"})
            fetch(*server.address, "/big.bin")            # prime the hot cache
            hot = fetch(*server.address, "/big.bin", method="HEAD",
                        headers={"Range": "bytes=0-1023"})
        finally:
            server.stop()
        for response in (fresh, hot):
            assert response.status == 206
            assert response.body == b""
            assert response.headers["content-range"] == f"bytes 0-1023/{len(BIG)}"
            assert response.content_length == 1024


class TestHotReadSideHit:
    def test_range_hit_reuses_pinned_resources(self, docroot):
        """After a full GET populates the hot cache, range GETs are served
        from the entry's pinned fd/chunks: no further translation."""
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            fetch(*server.address, "/big.bin")
            translations_before = server.stats.blocking_translations
            pathname_misses_before = server.store.pathname_cache.misses
            for spec, expected in RANGE_SHAPES:
                response = get_range(server.address, "/big.bin", spec)
                assert response.status == 206
                assert response.body == expected
        finally:
            server.stop()
        stats = server.stats
        assert stats.hot_hits >= len(RANGE_SHAPES)
        assert stats.blocking_translations == translations_before
        assert server.store.pathname_cache.misses == pathname_misses_before
        assert stats.range_responses == len(RANGE_SHAPES)

    def test_amped_cold_range_hit_rewarms_window(self, docroot):
        """AMPED must reject a cold range hit and warm it through helpers."""
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = FlashServer(config_for(docroot), residency_tester=oracle)
        server.start()
        try:
            full = fetch(*server.address, "/big.bin")
            response = get_range(server.address, "/big.bin", "65536-131071")
        finally:
            server.stop()
        assert full.status == 200
        assert response.status == 206
        assert response.body == BIG[65536:131072]
        stats = server.stats
        assert stats.hot_cold_fallbacks >= 1
        assert stats.sendfile_warms >= 2
        assert stats.sendfile_warm_degradations == 0


def raw_exchange(address, payload: bytes) -> bytes:
    sock = socket.create_connection(address, timeout=5.0)
    try:
        sock.sendall(payload)
        received = bytearray()
        while True:
            data = sock.recv(65536)
            if not data:
                break
            received.extend(data)
    finally:
        sock.close()
    return bytes(received)


def request_lines(path, *, range_spec=None, close=False):
    lines = [f"GET {path} HTTP/1.1", "Host: x"]
    if range_spec:
        lines.append(f"Range: bytes={range_spec}")
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def split_responses(stream: bytes):
    """Split a keep-alive byte stream into (header, body) pairs."""
    responses = []
    position = 0
    while position < len(stream):
        end = stream.find(b"\r\n\r\n", position)
        if end < 0:
            break
        header = stream[position:end]
        length = 0
        for line in header.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        body = stream[end + 4 : end + 4 + length]
        responses.append((header, body))
        position = end + 4 + length
    return responses


class TestKeepAliveInterleaving:
    @pytest.mark.parametrize("server_cls", [SPEDServer, FlashServer])
    def test_range_and_full_gets_on_one_connection(self, docroot, server_cls):
        """A persistent connection interleaving range and full GETs keeps
        its framing: every response arrives complete and in order."""
        server = server_cls(config_for(docroot))
        server.start()
        try:
            payload = b"".join(
                [
                    request_lines("/big.bin", range_spec="0-1023"),
                    request_lines("/big.bin"),
                    request_lines("/big.bin", range_spec="-2048"),
                    request_lines("/small.html"),
                    request_lines("/big.bin", range_spec="999999-"),
                    request_lines("/big.bin", range_spec="65530-65545"),
                    request_lines("/small.html", close=True),
                ]
            )
            stream = raw_exchange(server.address, payload)
        finally:
            server.stop()
        responses = split_responses(stream)
        assert len(responses) == 7
        expectations = [
            (b"206", BIG[:1024]),
            (b"200", BIG),
            (b"206", BIG[-2048:]),
            (b"200", SMALL),
            (b"416", b""),
            (b"206", BIG[65530:65546]),
            (b"200", SMALL),
        ]
        for (header, body), (status, expected) in zip(responses, expectations):
            assert header.split(b" ", 2)[1] == status
            assert body == expected


class TestToggleByteIdentity:
    def test_range_grid_byte_identical_across_toggles(self, docroot):
        """The same interleaved range workload produces identical bytes for
        every hot-cache x zero-copy combination."""
        payload = b"".join(
            [
                request_lines("/big.bin"),
                request_lines("/big.bin", range_spec="0-1023"),
                request_lines("/big.bin", range_spec="-2048"),
                request_lines("/big.bin", range_spec="999999-"),
                request_lines("/big.bin", range_spec="0-1,5-9"),
                request_lines("/big.bin", range_spec="65530-65545", close=True),
            ]
        )
        streams = {}
        for hot in (True, False):
            for zero_copy in (True, False):
                oracle = SimulatedResidencyOracle(default_resident=False)
                server = FlashServer(
                    config_for(docroot, hot_cache=hot, zero_copy=zero_copy),
                    residency_tester=oracle,
                )
                server.start()
                try:
                    streams[(hot, zero_copy)] = normalize(
                        raw_exchange(server.address, payload)
                    )
                finally:
                    server.stop()
        reference = streams[(True, True)]
        # Three single-window 206s plus the multipart one for "0-1,5-9".
        assert reference.count(b"HTTP/1.1 206 Partial Content") == 4
        assert reference.count(b"multipart/byteranges; boundary=") == 1
        assert reference.count(b"HTTP/1.1 416 Range Not Satisfiable") == 1
        assert reference.count(b"HTTP/1.1 200 OK") == 1  # the full GET
        for combo, stream in streams.items():
            assert stream == reference, f"bytes differ for {combo}"


class TestBlockingArchitectures:
    """MP/MT hot-path parity and range support in the blocking handler."""

    def test_mt_hot_hits_and_ranges(self, docroot):
        server = MTServer(config_for(docroot, num_workers=4))
        server.start()
        try:
            full = fetch(*server.address, "/big.bin")
            for _ in range(3):
                repeat = fetch(*server.address, "/big.bin")
                assert repeat.body == BIG
            for spec, expected in RANGE_SHAPES:
                response = get_range(server.address, "/big.bin", spec)
                assert response.status == 206
                assert response.body == expected
            unsat = get_range(server.address, "/big.bin", "999999-")
        finally:
            server.stop()
        assert full.status == 200
        assert unsat.status == 416
        stats = server.stats
        assert stats.hot_hits > 0
        assert stats.hot_insertions >= 1
        assert stats.range_responses >= len(RANGE_SHAPES)
        assert stats.range_unsatisfiable >= 1

    def test_mt_hot_toggle_off_still_serves_ranges(self, docroot):
        server = MTServer(config_for(docroot, num_workers=2, hot_cache=False))
        server.start()
        try:
            response = get_range(server.address, "/big.bin", "0-1023")
        finally:
            server.stop()
        assert response.status == 206
        assert response.body == BIG[:1024]
        assert server.stats.hot_hits == 0

    def test_mp_hot_hits_and_ranges(self, docroot):
        server = MPServer(config_for(docroot, num_workers=2))
        server.start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    full = fetch(*server.address, "/big.bin")
                    break
                except OSError:
                    time.sleep(0.05)
            # Keep-alive so repeats land on the same worker (and its
            # per-process hot cache) deterministically.
            payload = b"".join(
                [
                    request_lines("/big.bin"),
                    request_lines("/big.bin"),
                    request_lines("/big.bin", range_spec="0-1023"),
                    request_lines("/big.bin", range_spec="-2048", close=True),
                ]
            )
            stream = raw_exchange(server.address, payload)
        finally:
            server.stop()
        assert full.status == 200 and full.body == BIG
        responses = split_responses(stream)
        assert [r[1] for r in responses] == [BIG, BIG, BIG[:1024], BIG[-2048:]]
        stats = server.stats
        assert stats.hot_hits > 0
        assert stats.range_responses >= 2

    def test_mt_byte_identity_hot_on_off(self, docroot):
        payload = b"".join(
            [
                request_lines("/big.bin"),
                request_lines("/big.bin", range_spec="0-1023"),
                request_lines("/big.bin", range_spec="0-1023", close=True),
            ]
        )
        streams = {}
        for hot in (True, False):
            server = MTServer(config_for(docroot, num_workers=2, hot_cache=hot))
            server.start()
            try:
                streams[hot] = normalize(raw_exchange(server.address, payload))
            finally:
                server.stop()
        assert streams[True] == streams[False]
        assert streams[True].count(b"HTTP/1.1 206 Partial Content") == 2


class TestPipelinedHotBatching:
    """Pipelined hot hits join one output queue (the syscall counts are
    pinned by ``tests/core/test_request_budget.py``)."""

    def test_burst_batched_and_byte_identical(self, docroot):
        payload = (
            b"GET /small.html HTTP/1.1\r\nHost: x\r\n\r\n" * 19
            + b"GET /small.html HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        # zero_copy off: the buffered path, where the queue coalesces.
        server = SPEDServer(config_for(docroot, zero_copy=False))
        server.start()
        try:
            fetch(*server.address, "/small.html")     # populate the hot cache
            stream = normalize(raw_exchange(server.address, payload))
        finally:
            server.stop()
        assert stream.count(b"HTTP/1.1 200 OK") == 20
        responses = split_responses(stream)
        assert len(responses) == 20
        assert all(body == SMALL for _, body in responses)

    def test_batching_disabled_paths_still_correct(self, docroot):
        """With zero-copy on, hits are sendfile-backed windows in the
        queue: everything still answers correctly."""
        payload = (
            b"GET /small.html HTTP/1.1\r\nHost: x\r\n\r\n" * 9
            + b"GET /small.html HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        server = SPEDServer(config_for(docroot, zero_copy=True))
        server.start()
        try:
            fetch(*server.address, "/small.html")
            stream = raw_exchange(server.address, payload)
        finally:
            server.stop()
        responses = split_responses(stream)
        assert len(responses) == 10
        assert all(body == SMALL for _, body in responses)


class TestHotCachePoisoning:
    """A 206 must never populate the hot cache under the bare target: a
    subsequent full GET would otherwise receive the partial body."""

    @pytest.mark.parametrize("server_cls", [SPEDServer, FlashServer])
    def test_range_first_then_full_get(self, docroot, server_cls):
        server = server_cls(config_for(docroot))
        server.start()
        try:
            partial = get_range(server.address, "/big.bin", "0-1023")
            full = fetch(*server.address, "/big.bin")
            repeat = fetch(*server.address, "/big.bin")
        finally:
            server.stop()
        assert partial.status == 206 and partial.body == BIG[:1024]
        assert full.status == 200 and full.body == BIG
        assert repeat.status == 200 and repeat.body == BIG

    def test_interleaved_poisoning_hot_cache_on(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            fetch(*server.address, "/big.bin")            # hot entry exists
            for _ in range(3):
                partial = get_range(server.address, "/big.bin", "-512")
                assert partial.status == 206 and partial.body == BIG[-512:]
                full = fetch(*server.address, "/big.bin")
                assert full.status == 200 and full.body == BIG
        finally:
            server.stop()
        # The range hits were read-side only: exactly one insertion.
        assert server.stats.hot_insertions == 1


class TestSpedAdviseLatch:
    """A Range response's partial WILLNEED hint must not consume the
    descriptor's once-per-lifetime full-body advise (review regression)."""

    def test_range_first_leaves_full_advise_available(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            partial = get_range(server.address, "/big.bin", "0-1023")
            path = os.path.join(docroot, "big.bin")
            handle = server.store.fd_cache.acquire(path)
            try:
                after_range = handle.advised
            finally:
                server.store.fd_cache.release(handle)
            full = fetch(*server.address, "/big.bin")
            handle = server.store.fd_cache.acquire(path)
            try:
                after_full = handle.advised
            finally:
                server.store.fd_cache.release(handle)
        finally:
            server.stop()
        assert partial.status == 206
        assert full.status == 200 and full.body == BIG
        assert after_range is False        # the partial hint did not latch
        assert after_full is True          # the full body advise did
