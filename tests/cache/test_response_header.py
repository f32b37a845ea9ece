"""Unit tests for the response header cache (paper Section 5.3)."""

from repro.cache.response_header import ResponseHeaderCache
from repro.http.response import ResponseHeaderBuilder


class TestResponseHeaderCache:
    def test_miss_builds_header(self):
        cache = ResponseHeaderCache()
        header = cache.get("/www/index.html", 100, 1000.0)
        assert b"Content-Length: 100" in header.raw
        assert b"Content-Type: text/html" in header.raw
        assert cache.misses == 1

    def test_hit_returns_same_header(self):
        cache = ResponseHeaderCache()
        first = cache.get("/www/index.html", 100, 1000.0)
        second = cache.get("/www/index.html", 100, 1000.0)
        assert first is second
        assert cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_key_includes_file_identity(self):
        cache = ResponseHeaderCache()
        a = cache.get("/www/index.html", 100, 1000.0)
        b = cache.get("/www/index.html", 200, 1000.0)   # size changed
        c = cache.get("/www/index.html", 100, 2000.0)   # mtime changed
        assert a is not b
        assert a is not c
        assert cache.misses == 3

    def test_keep_alive_variants_cached_separately(self):
        cache = ResponseHeaderCache()
        close_header = cache.get("/f", 10, 1.0, keep_alive=False)
        keep_header = cache.get("/f", 10, 1.0, keep_alive=True)
        assert b"Connection: close" in close_header.raw
        assert b"Connection: keep-alive" in keep_header.raw

    def test_mime_type_from_path(self):
        cache = ResponseHeaderCache()
        header = cache.get("/images/logo.gif", 10, 1.0)
        assert b"Content-Type: image/gif" in header.raw

    def test_capacity_bound(self):
        cache = ResponseHeaderCache(max_entries=2)
        for i in range(5):
            cache.get(f"/f{i}.html", 10, 1.0)
        assert len(cache) == 2

    def test_clear(self):
        cache = ResponseHeaderCache()
        cache.get("/f.html", 10, 1.0)
        cache.clear()
        assert len(cache) == 0

    def test_headers_respect_builder_alignment(self):
        cache = ResponseHeaderCache(builder=ResponseHeaderBuilder(align=32))
        header = cache.get("/f.html", 12345, 1.0)
        assert len(header.raw) % 32 == 0


class TestCacheMaxAgeKeying:
    def test_max_age_variants_cached_separately(self):
        cache = ResponseHeaderCache()
        plain = cache.get("/www/a.html", 100, 1000.0)
        fresh = cache.get("/www/a.html", 100, 1000.0, cache_max_age=600)
        assert b"Cache-Control" not in plain.raw
        assert b"Cache-Control: max-age=600" in fresh.raw
        assert cache.misses == 2

    def test_same_max_age_hits(self):
        cache = ResponseHeaderCache()
        first = cache.get("/www/a.html", 100, 1000.0, cache_max_age=60)
        second = cache.get("/www/a.html", 100, 1000.0, cache_max_age=60)
        assert first is second
        assert cache.hits == 1
