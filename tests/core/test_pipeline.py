"""Unit tests for the shared request-processing pipeline (ContentStore)."""

import os

import pytest

from repro.cache.residency import SimulatedResidencyOracle
from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore, ServerStats
from repro.http.errors import NotFoundError
from repro.http.request import RequestParser
from repro.servers.sped import SPEDServer


def parse(raw: bytes):
    parser = RequestParser()
    parser.feed(raw)
    return parser.request


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "index.html").write_text("<html>home</html>")
    (tmp_path / "big.bin").write_bytes(b"B" * 200_000)
    return str(tmp_path)


class TestServerStats:
    def test_merge_adds_counters(self):
        a = ServerStats(requests=3, bytes_sent=100)
        b = ServerStats(requests=4, bytes_sent=50, responses_error=1)
        merged = a.merge(b)
        assert merged.requests == 7
        assert merged.bytes_sent == 150
        assert merged.responses_error == 1
        # Originals untouched.
        assert a.requests == 3

    def test_snapshot_round_trip(self):
        stats = ServerStats(requests=2)
        assert ServerStats(**stats.snapshot()) == stats


class TestTranslation:
    def test_translate_uses_cache(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        first = store.translate("/index.html")
        second = store.translate("/index.html")
        assert first == second
        assert store.pathname_cache.hits == 1

    def test_translate_cached_only_misses_return_none(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        assert store.translate_cached_only("/index.html") is None
        assert (store.pathname_cache.misses, store.pathname_cache.hits) == (1, 0)
        store.translate("/index.html")
        assert store.translate_cached_only("/index.html") is not None
        assert (store.pathname_cache.misses, store.pathname_cache.hits) == (2, 1)

    def test_store_translation_populates_cache(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        entry = store._translate_direct("/index.html")
        store.store_translation(entry)
        assert store.translate_cached_only("/index.html") == entry

    def test_translate_without_cache(self, docroot):
        config = ServerConfig(document_root=docroot, enable_pathname_cache=False)
        store = ContentStore(config)
        assert store.pathname_cache is None
        entry = store.translate("/index.html")
        assert entry.size == len("<html>home</html>")

    def test_missing_file_propagates(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        with pytest.raises(NotFoundError):
            store.translate("/missing.html")


class TestBuildResponse:
    def test_body_is_one_window_over_a_pinned_descriptor(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        request = parse(b"GET /big.bin HTTP/1.0\r\n\r\n")
        entry = store.translate("/big.bin")
        content = store.build_response(request, entry)
        assert content.content_length == 200_000
        assert content.parts == ((b"", 0, 200_000),)
        assert b"Content-Length: 200000" in content.header
        handle = content.file_handle
        assert handle.refcount == 1
        content.release(store)
        assert handle.refcount == 0 and not handle.closed   # parked, still cached
        store.close()

    @pytest.mark.parametrize("zero_copy", [True, False])
    def test_descriptor_pinned_whatever_zero_copy_says(self, docroot, zero_copy):
        """``zero_copy`` decides only how a window leaves, not where from."""
        store = ContentStore(ServerConfig(document_root=docroot, zero_copy=zero_copy))
        request = parse(b"GET /index.html HTTP/1.0\r\n\r\n")
        entry = store.translate("/index.html")
        content = store.build_response(request, entry)
        assert content.file_handle is not None
        assert content.content_length == len(b"<html>home</html>")
        assert content.window_buffers(0, 17) == [b"<html>home</html>"]
        assert content.window_buffers(6, 4) == [b"home"]
        content.release(store)
        store.close()

    def test_open_failure_raises(self, docroot):
        """No other route to the bytes: a file that cannot be opened fails
        the build (answered 500) instead of falling back by path."""
        store = ContentStore(ServerConfig(document_root=docroot))
        request = parse(b"GET /index.html HTTP/1.0\r\n\r\n")
        entry = store.translate("/index.html")
        os.unlink(os.path.join(docroot, "index.html"))
        with pytest.raises(OSError):
            store.build_response(request, entry)
        assert len(store.fd_cache) == 0
        store.close()

    def test_head_request_has_no_body(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        request = parse(b"HEAD /index.html HTTP/1.0\r\n\r\n")
        entry = store.translate("/index.html")
        content = store.build_response(request, entry)
        assert content.content_length == 0
        assert content.file_handle is None and content.parts == ()
        assert b"Content-Length: 17" in content.header
        store.close()

    def test_header_cache_reused(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        request = parse(b"GET /index.html HTTP/1.0\r\n\r\n")
        entry = store.translate("/index.html")
        store.build_response(request, entry).release(store)
        store.build_response(request, entry).release(store)
        assert store.header_cache.hits == 1
        store.close()

    def test_keep_alive_header_respects_request(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        entry = store.translate("/index.html")
        keep = parse(b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n")
        close = parse(b"GET /index.html HTTP/1.0\r\n\r\n")
        keep_content = store.build_response(keep, entry)
        close_content = store.build_response(close, entry)
        assert b"Connection: keep-alive" in keep_content.header
        assert b"Connection: close" in close_content.header
        keep_content.release(store)
        close_content.release(store)
        store.close()

    def test_release_is_idempotent(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        request = parse(b"GET /big.bin HTTP/1.0\r\n\r\n")
        entry = store.translate("/big.bin")
        content = store.build_response(request, entry)
        content.release(store)
        content.release(store)
        store.close()


class TestResidencyIntegration:
    def test_resident_content_skips_helpers(self, docroot):
        oracle = SimulatedResidencyOracle(default_resident=True)
        store = ContentStore(ServerConfig(document_root=docroot), residency_tester=oracle)
        request = parse(b"GET /big.bin HTTP/1.0\r\n\r\n")
        entry = store.translate("/big.bin")
        content = store.build_response(request, entry)
        assert store.content_resident(content)
        content.release(store)
        store.close()

    def test_non_resident_content_detected(self, docroot):
        oracle = SimulatedResidencyOracle(default_resident=False)
        store = ContentStore(ServerConfig(document_root=docroot), residency_tester=oracle)
        request = parse(b"GET /big.bin HTTP/1.0\r\n\r\n")
        entry = store.translate("/big.bin")
        content = store.build_response(request, entry)
        assert not store.content_resident(content)
        content.release(store)
        store.close()

    def test_residency_test_disabled(self, docroot):
        """The build without the residency test is SPED: with every file
        scripted cold it still serves the miss and the hot hit at once,
        and never asks the tester."""
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = SPEDServer(ServerConfig(document_root=docroot, port=0), residency_tester=oracle)
        server.start()
        try:
            responses = [fetch(*server.address, "/big.bin") for _ in range(2)]
        finally:
            server.stop()
        assert [r.status for r in responses] == [200, 200]
        assert all(r.body == b"B" * 200_000 for r in responses)
        assert server.stats.hot_hits == 1
        assert oracle.queries == 0


class TestInvalidationPropagation:
    def test_file_change_invalidates_dependent_caches(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot, hot_cache_revalidate=0.0))
        request = parse(b"GET /index.html HTTP/1.0\r\n\r\n")
        entry = store.translate("/index.html")
        store.build_response(request, entry).release(store)
        assert len(store.header_cache) == 1

        target = os.path.join(docroot, "index.html")
        with open(target, "w") as handle:
            handle.write("<html>completely new and longer content</html>")
        os.utime(target, (entry.mtime + 5, entry.mtime + 5))

        fresh = store.translate("/index.html")
        assert fresh.size != entry.size
        content = store.build_response(request, fresh)
        assert f"Content-Length: {fresh.size}".encode() in content.header
        content.release(store)
        store.close()

    def test_cache_stats_reporting(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        store.translate("/index.html")
        stats = store.cache_stats()
        assert set(stats) == {"pathname", "header", "hot"}
        assert stats["pathname"]["misses"] == 1
        store.close()


class TestConditionalMethodGate:
    def test_post_ignores_if_modified_since(self, docroot):
        """RFC 7232: If-Modified-Since applies to GET/HEAD only — a POST
        with a matching date must still get the full 200 body."""
        from repro.http.request import HTTPRequest
        from repro.http.response import http_date

        store = ContentStore(ServerConfig(document_root=docroot))
        try:
            entry = store.translate("/index.html")
            stamp = http_date(entry.mtime)
            post = HTTPRequest(
                method="POST",
                uri="/index.html",
                path="/index.html",
                version="HTTP/1.1",
                headers={"if-modified-since": stamp},
            )
            content = store.build_response(post, entry)
            assert content.status == 200
            assert content.content_length == entry.size
            content.release(store)
            get = HTTPRequest(
                method="GET",
                uri="/index.html",
                path="/index.html",
                version="HTTP/1.1",
                headers={"if-modified-since": stamp},
            )
            not_modified = store.build_response(get, entry)
            assert not_modified.status == 304
        finally:
            store.close()
