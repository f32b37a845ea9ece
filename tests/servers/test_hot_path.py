"""End-to-end tests for the single-lookup hot path on the live servers.

Covers the tentpole's contract from the issue:

* repeated static GETs are served from the hot-response cache (SPED and
  AMPED), byte-identically to the first (slow-path) response;
* invalidation — an mtime/size change is noticed within the revalidation
  window, and fd-cache invalidation of a pinned entry drops it;
* AMPED's non-blocking invariant survives the fast path: content that went
  cold is rejected by ``hot_content_ready`` and re-warmed via helpers;
* the hot-cache × zero-copy toggle grid (and fast-parse on/off)
  produces byte-identical responses;
* conditional GETs are answered with the precomposed 304 variants.
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
from repro.servers.sped import SPEDServer

BODY = b"<html>single lookup</html>"
COLD_SIZE = 96 * 1024


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "page.html").write_bytes(BODY)
    (tmp_path / "cold.bin").write_bytes(os.urandom(COLD_SIZE))
    return str(tmp_path)


def config_for(docroot, **overrides):
    overrides.setdefault("num_helpers", 2)
    return ServerConfig(document_root=docroot, port=0, **overrides)


def normalize(raw: bytes) -> bytes:
    """Blank out Date headers: they track the wall clock, not the toggles."""
    return re.sub(rb"Date: [^\r]+\r\n", b"Date: X\r\n", raw)


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


class TestHotServes:
    @pytest.mark.parametrize("server_cls", [SPEDServer, FlashServer])
    def test_repeat_get_hits_hot_cache(self, docroot, server_cls):
        server = server_cls(config_for(docroot))
        server.start()
        try:
            first = fetch(*server.address, "/page.html")
            second = fetch(*server.address, "/page.html")
            third = fetch(*server.address, "/page.html")
        finally:
            server.stop()
        assert first.status == second.status == third.status == 200
        assert first.body == second.body == third.body == BODY
        stats = server.stats
        assert stats.hot_insertions >= 1
        assert stats.hot_hits >= 2
        # The triple-lookup chain retired: repeats never touched the
        # pathname cache again (SPED translated once inline; AMPED went
        # through a helper once — neither recorded a pathname hit).
        assert server.store.pathname_cache.hits == 0
        assert server.store.pathname_cache.misses <= 1

    def test_keep_alive_and_close_header_variants(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            keep = raw_exchange(
                server.address,
                b"GET /page.html HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /page.html HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            )
        finally:
            server.stop()
        assert keep.count(b"HTTP/1.1 200 OK") == 2
        assert b"Connection: keep-alive" in keep
        assert b"Connection: close" in keep

    def test_fast_parse_disabled_still_hits_hot_cache(self, docroot):
        server = SPEDServer(config_for(docroot, fast_parse=False))
        server.start()
        try:
            fetch(*server.address, "/page.html")
            fetch(*server.address, "/page.html")
        finally:
            server.stop()
        assert server.stats.fast_parses == 0
        assert server.stats.hot_hits >= 1

    def test_fast_parse_counted(self, docroot):
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            raw_exchange(
                server.address,
                b"GET /page.html HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            )
        finally:
            server.stop()
        assert server.stats.fast_parses == 1


class TestInvalidation:
    def test_mtime_and_size_change_invalidate(self, docroot):
        server = SPEDServer(config_for(docroot, hot_cache_revalidate=0.0))
        server.start()
        try:
            first = fetch(*server.address, "/page.html")
            replacement = b"<html>replaced with a longer body</html>"
            path = os.path.join(docroot, "page.html")
            with open(path, "wb") as handle:
                handle.write(replacement)
            # Ensure a visible mtime change even on coarse filesystems.
            os.utime(path, (time.time() + 2, time.time() + 2))
            second = fetch(*server.address, "/page.html")
        finally:
            server.stop()
        assert first.body == BODY
        assert second.status == 200
        assert second.body == replacement
        assert server.store.hot_cache.revalidations >= 1

    def test_fd_invalidation_of_pinned_entry(self, docroot):
        """Invalidating the descriptor under a hot entry must drop the
        entry (and close the descriptor once unpinned) — the entry never
        outlives its pinned resources."""
        server = SPEDServer(config_for(docroot))
        server.start()
        try:
            fetch(*server.address, "/page.html")
            path = os.path.join(docroot, "page.html")
            store = server.store
            handle = store.fd_cache._entries[path]
            assert handle.refcount == 1          # pinned by the hot cache
            store.fd_cache.invalidate(path)
            assert len(store.hot_cache) == 0
            assert handle.closed
            # The next request rebuilds through the full pipeline.
            response = fetch(*server.address, "/page.html")
        finally:
            server.stop()
        assert response.status == 200
        assert response.body == BODY

    def test_hot_entry_not_evicted_by_fd_pressure(self, docroot):
        """Descriptor-cache churn must never close the descriptor pinned
        by a still-hot entry — and the hot cache itself is clamped to the
        descriptor budget, so pins cannot accumulate past it."""
        for index in range(4):
            with open(os.path.join(docroot, f"extra{index}.html"), "wb") as f:
                f.write(b"x" * 64)
        server = SPEDServer(config_for(docroot, fd_cache_entries=2))
        server.start()
        try:
            assert server.store.hot_cache.max_entries == 2  # clamped to fd budget
            fetch(*server.address, "/page.html")
            handle = server.store.fd_cache._entries[
                os.path.join(docroot, "page.html")
            ]
            # Interleave page re-touches with fd churn: page stays the hot
            # LRU's warmest entry while the extras cycle through both the
            # hot cache and the descriptor cache around it.
            for index in range(4):
                fetch(*server.address, f"/extra{index}.html")
                fetch(*server.address, "/page.html")
            assert not handle.closed
            # Every unpinned descriptor stayed within budget; total open
            # descriptors are bounded by budget + hot pins.
            assert len(server.store.fd_cache) <= 4
            final = fetch(*server.address, "/page.html")
        finally:
            server.stop()
        assert final.status == 200
        assert final.body == BODY


class TestAmpedColdFallback:
    def test_cold_hot_hit_rewarms_through_helper(self, docroot):
        """A hot hit whose content went cold must not be transmitted from
        the main loop: AMPED rejects it and the full pipeline warms it."""
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = FlashServer(config_for(docroot), residency_tester=oracle)
        server.start()
        try:
            first = fetch(*server.address, "/cold.bin")
            second = fetch(*server.address, "/cold.bin")
        finally:
            server.stop()
        assert first.status == second.status == 200
        assert len(first.body) == len(second.body) == COLD_SIZE
        stats = server.stats
        # Both requests found cold content; the second one found it via the
        # hot cache, rejected it, and re-warmed.
        assert stats.sendfile_warms >= 2
        assert stats.hot_cold_fallbacks >= 1
        assert stats.sendfile_warm_degradations == 0


class TestConditionalRequests:
    @pytest.mark.parametrize("hot", [True, False])
    def test_if_modified_since_gets_304(self, docroot, hot):
        server = SPEDServer(config_for(docroot, hot_cache=hot))
        server.start()
        try:
            first = fetch(*server.address, "/page.html")
            stamp = first.headers["last-modified"]
            not_modified = fetch(
                *server.address,
                "/page.html",
                headers={"If-Modified-Since": stamp},
            )
            stale = fetch(
                *server.address,
                "/page.html",
                headers={"If-Modified-Since": "Mon, 01 Jan 1990 00:00:00 GMT"},
            )
        finally:
            server.stop()
        assert first.status == 200
        assert not_modified.status == 304
        assert not_modified.body == b""
        assert not_modified.headers["last-modified"] == stamp
        assert stale.status == 200
        assert stale.body == BODY
        assert server.stats.not_modified_responses >= 1


PIPELINE = (
    b"GET /cold.bin HTTP/1.1\r\nHost: x\r\n\r\n"
    b"GET /page.html HTTP/1.1\r\nHost: x\r\n\r\n"
    b"GET /page.html HTTP/1.1\r\nHost: x\r\n\r\n"
    b"GET /cold.bin HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
)


class TestTogglesAreByteIdentical:
    def test_hot_zero_copy_grid(self, docroot):
        """All hot-cache x zero-copy combinations (plus fast-parse off for
        the extremes) produce byte-identical response streams.  Zero-copy
        also picks the warming route: OP_WARM on the descriptor, or OP_READ
        over the mapped chunks."""
        streams = {}
        combos = [
            (hot, zero_copy, True) for hot in (True, False) for zero_copy in (True, False)
        ] + [(True, True, False), (False, True, False)]
        for hot, zero_copy, fast in combos:
            oracle = SimulatedResidencyOracle(default_resident=False)
            server = FlashServer(
                config_for(
                    docroot,
                    hot_cache=hot,
                    zero_copy=zero_copy,
                    fast_parse=fast,
                ),
                residency_tester=oracle,
            )
            server.start()
            try:
                streams[(hot, zero_copy, fast)] = normalize(
                    raw_exchange(server.address, PIPELINE)
                )
            finally:
                server.stop()
        reference = streams[(True, True, True)]
        assert reference.count(b"HTTP/1.1 200 OK") == 4
        assert len(reference) > 2 * COLD_SIZE
        for combo, stream in streams.items():
            assert stream == reference, f"bytes differ for {combo}"


class TestPipelinedBurst:
    """Regression: pipelined responses that complete synchronously must be
    drained iteratively.  The old code recursed one stack level per
    response (``_finish_response → _dispatch_parsed → _start_send →
    _do_write → _finish_response``), so a single large burst — trivial to
    produce once hot-cache hits complete every response inline — killed
    the server thread with RecursionError."""

    BURST = 400

    @pytest.mark.parametrize("hot", [True, False])
    def test_large_burst_served_without_recursion(self, docroot, hot):
        server = SPEDServer(config_for(docroot, hot_cache=hot, fast_parse=hot))
        server.start()
        try:
            fetch(*server.address, "/page.html")         # populate caches
            payload = (
                b"GET /page.html HTTP/1.1\r\nHost: x\r\n\r\n" * (self.BURST - 1)
                + b"GET /page.html HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            stream = raw_exchange(server.address, payload)
            # The server survived: a fresh request still completes.
            follow_up = fetch(*server.address, "/page.html")
        finally:
            server.stop()
        assert stream.count(b"HTTP/1.1 200 OK") == self.BURST
        assert stream.count(BODY) == self.BURST
        assert follow_up.status == 200
