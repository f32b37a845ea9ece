"""Unit tests for the shared request-processing pipeline (ContentStore)."""

import os

import pytest

from repro.cache.residency import SimulatedResidencyOracle
from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore, ServerStats, StaticContent
from repro.http.errors import NotFoundError
from repro.http.request import RequestParser


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
    def test_mmap_backed_response(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        request = parse(b"GET /big.bin HTTP/1.0\r\n\r\n")
        entry = store.translate("/big.bin")
        content = store.build_response(request, entry, map_body=True)
        assert content.content_length == 200_000
        assert sum(len(seg) for seg in content.segments) == 200_000
        assert len(content.chunks) == store.mmap_cache.chunk_count(200_000)
        assert b"Content-Length: 200000" in content.header
        content.release(store)
        assert all(chunk.refcount == 0 for chunk in content.chunks) or not content.chunks
        store.close()

    def test_read_backed_response_without_mmap_cache(self, docroot):
        config = ServerConfig(
            document_root=docroot, enable_mmap_cache=False, zero_copy=False
        )
        store = ContentStore(config)
        request = parse(b"GET /index.html HTTP/1.0\r\n\r\n")
        entry = store.translate("/index.html")
        content = store.build_response(request, entry)
        assert content.chunks == ()
        assert content.file_handle is None
        assert bytes(content.segments[0]) == b"<html>home</html>"
        store.close()

    def test_fd_backed_response_without_mmap_cache(self, docroot):
        """Zero-copy with the mmap cache off: body stays out of user space."""
        import os

        config = ServerConfig(document_root=docroot, enable_mmap_cache=False)
        store = ContentStore(config)
        request = parse(b"GET /index.html HTTP/1.0\r\n\r\n")
        entry = store.translate("/index.html")
        content = store.build_response(request, entry)
        assert content.chunks == ()
        assert content.segments == ()
        assert content.file_handle is not None
        assert content.content_length == len(b"<html>home</html>")
        assert os.pread(content.file_handle.fd, 6, 0) == b"<html>"
        content.release(store)
        store.close()

    def test_head_request_has_no_body(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        request = parse(b"HEAD /index.html HTTP/1.0\r\n\r\n")
        entry = store.translate("/index.html")
        content = store.build_response(request, entry)
        assert content.content_length == 0
        assert content.segments == ()
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
        oracle = SimulatedResidencyOracle(default_resident=False)
        config = ServerConfig(document_root=docroot, enable_residency_test=False)
        store = ContentStore(config, residency_tester=oracle)
        request = parse(b"GET /big.bin HTTP/1.0\r\n\r\n")
        entry = store.translate("/big.bin")
        content = store.build_response(request, entry)
        assert store.content_resident(content)        # SPED behaviour
        content.release(store)
        store.close()

    def test_touch_chunks_returns_bytes(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        entry = store.translate("/big.bin")
        request = parse(b"GET /big.bin HTTP/1.0\r\n\r\n")
        content = store.build_response(request, entry, map_body=True)
        assert ContentStore.touch_chunks(content.chunks) == 200_000
        content.release(store)
        store.close()


class TestInvalidationPropagation:
    def test_file_change_invalidates_dependent_caches(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
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
        assert set(stats) == {"pathname", "header", "mmap", "hot"}
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
