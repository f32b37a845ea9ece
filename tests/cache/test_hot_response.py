"""Unit tests for the unified hot-response cache.

Two layers are covered: the cache structure itself (LRU, revalidation,
path-indexed invalidation, pin release ordering) and its integration with
:class:`ContentStore` (resource pinning across insert/lookup/release, the
invalidation hooks from the descriptor and chunk caches, 304 variants).
"""

import os

import pytest

from repro.cache.hot_response import DEFAULT_MAX_ENTRIES, HotEntry, HotResponseCache
from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore
from repro.core.send_path import sendfile_available
from repro.http.request import HTTPRequest
from repro.http.response import http_date


def make_entry(target, path="/tmp/x", size=10, mtime=1.0):
    return HotEntry(
        target=target,
        path=path,
        size=size,
        mtime=mtime,
        content_length=size,
        header_keep=b"K",
        header_close=b"C",
        header_304_keep=b"NK",
        header_304_close=b"NC",
    )


class TestCacheStructure:
    def test_lookup_miss_then_hit(self):
        cache = HotResponseCache(revalidate_interval=1000.0)
        assert cache.lookup(b"/a") is None
        entry = make_entry(b"/a")
        cache.insert(entry)
        assert cache.lookup(b"/a") is entry
        assert cache.hits == 1 and cache.misses == 1
        assert entry.hits == 1

    def test_lru_eviction_releases_resources(self):
        released = []
        cache = HotResponseCache(
            max_entries=2,
            revalidate_interval=1000.0,
            release_fd=released.append,
        )
        handles = ["fd-a", "fd-b", "fd-c"]
        for index, target in enumerate((b"/a", b"/b", b"/c")):
            entry = make_entry(target, path=f"/tmp/{index}")
            entry.file_handle = handles[index]
            cache.insert(entry)
        assert len(cache) == 2
        assert released == ["fd-a"]          # coldest entry's pin released
        assert cache.lookup(b"/a") is None
        assert cache.evictions == 1

    def test_invalidate_path_drops_all_spellings(self):
        cache = HotResponseCache(revalidate_interval=1000.0)
        cache.insert(make_entry(b"/a", path="/tmp/f"))
        cache.insert(make_entry(b"/a/", path="/tmp/f"))
        cache.insert(make_entry(b"/other", path="/tmp/g"))
        assert cache.invalidate_path("/tmp/f") == 2
        assert len(cache) == 1
        assert cache.lookup(b"/other") is not None

    def test_revalidation_drops_changed_file(self, tmp_path):
        victim = tmp_path / "f.txt"
        victim.write_bytes(b"0123456789")
        stat = os.stat(victim)
        cache = HotResponseCache(revalidate_interval=0.0)
        cache.insert(
            make_entry(b"/f.txt", path=str(victim), size=10, mtime=stat.st_mtime)
        )
        assert cache.lookup(b"/f.txt") is not None  # fresh: stat matches
        victim.write_bytes(b"changed!")            # size change
        assert cache.lookup(b"/f.txt") is None
        assert len(cache) == 0

    def test_revalidation_drops_vanished_file(self, tmp_path):
        victim = tmp_path / "gone.txt"
        victim.write_bytes(b"x")
        stat = os.stat(victim)
        cache = HotResponseCache(revalidate_interval=0.0)
        cache.insert(make_entry(b"/gone", path=str(victim), size=1, mtime=stat.st_mtime))
        victim.unlink()
        assert cache.lookup(b"/gone") is None

    def test_release_order_segments_before_chunks(self):
        """Views must be dropped before the chunks they point into."""
        order = []

        class FakeChunk:
            refcount = 1

        chunk = FakeChunk()
        cache = HotResponseCache(
            revalidate_interval=1000.0,
            release_chunk=lambda c: order.append(("chunk", c)),
        )
        entry = make_entry(b"/a")
        entry.chunks = (chunk,)
        entry.segments = (memoryview(b"data"),)
        cache.insert(entry)
        cache.clear()
        assert entry.segments == ()
        assert order == [("chunk", chunk)]

    def test_validation_knobs_rejected(self):
        with pytest.raises(ValueError):
            HotResponseCache(max_entries=0)
        with pytest.raises(ValueError):
            HotResponseCache(revalidate_interval=-1.0)
        with pytest.raises(ValueError):
            HotResponseCache(max_pinned_bytes=-1)

    def test_pinned_byte_budget_evicts_coldest(self):
        """Chunk-pinning entries share a byte budget: pinned chunks are
        exempt from the mapped-file cache's own eviction, so the hot cache
        enforces the bound itself."""

        class FakeChunk:
            refcount = 1

        released = []
        cache = HotResponseCache(
            max_pinned_bytes=100,
            revalidate_interval=1000.0,
            release_chunk=released.append,
        )
        for index, target in enumerate((b"/a", b"/b")):
            entry = make_entry(target, path=f"/tmp/{index}", size=60)
            entry.content_length = 60
            entry.chunks = (FakeChunk(),)
            assert cache.insert(entry)
        # 120 pinned bytes > 100: the coldest entry was evicted.
        assert cache.pinned_bytes == 60
        assert cache.lookup(b"/a") is None
        assert cache.lookup(b"/b") is not None
        assert len(released) == 1

    def test_oversized_entry_refused_and_released(self):
        class FakeChunk:
            refcount = 1

        released = []
        cache = HotResponseCache(
            max_pinned_bytes=100,
            revalidate_interval=1000.0,
            release_chunk=released.append,
        )
        entry = make_entry(b"/huge", size=500)
        entry.content_length = 500
        entry.chunks = (FakeChunk(),)
        assert not cache.insert(entry)
        assert len(cache) == 0
        assert cache.pinned_bytes == 0
        assert len(released) == 1          # the caller's pin was returned

    def test_fd_only_entries_ignore_byte_budget(self):
        cache = HotResponseCache(max_pinned_bytes=10, revalidate_interval=1000.0)
        entry = make_entry(b"/big-fd", size=10_000)
        entry.content_length = 10_000
        entry.file_handle = "fd"           # no chunks: nothing maps bytes
        assert cache.insert(entry)
        assert cache.pinned_bytes == 0


def get_request(uri, version="HTTP/1.1", headers=None):
    return HTTPRequest(
        method="GET",
        uri=uri,
        path=uri,
        version=version,
        headers=headers or {},
    )


@pytest.fixture
def store(tmp_path):
    (tmp_path / "page.html").write_bytes(b"<html>hot</html>")
    config = ServerConfig(
        document_root=str(tmp_path), port=0, hot_cache_revalidate=1000.0
    )
    store = ContentStore(config)
    yield store
    store.close()


def build_and_insert(store, uri="/page.html"):
    request = get_request(uri)
    entry = store.translate(uri)
    content = store.build_response(request, entry)
    assert store.hot_insert(request, entry, content)
    content.release(store)
    return entry


class TestContentStoreIntegration:
    def test_insert_pins_and_lookup_repins(self, store):
        build_and_insert(store)
        handle = store.fd_cache._entries[
            os.path.join(store.config.document_root, "page.html")
        ]
        assert handle.refcount == 1           # the hot cache's base pin
        content = store.hot_lookup(b"/page.html", True)
        assert content is not None
        assert content.file_handle is handle
        assert handle.refcount == 2           # plus the per-request pin
        content.release(store)
        assert handle.refcount == 1           # base pin survives the release

    def test_headers_match_slow_path(self, store):
        entry = build_and_insert(store)
        content = store.hot_lookup(b"/page.html", True)
        slow = store.build_response(get_request("/page.html"), entry)
        assert content.header == slow.header  # same header-cache object
        slow.release(store)
        content.release(store)

    def test_miss_on_unknown_target(self, store):
        assert store.hot_lookup(b"/nope.html", True) is None
        assert store.stats.hot_misses == 1

    def test_head_served_from_entry_without_body(self, store):
        entry = build_and_insert(store)
        content = store.hot_lookup(b"/page.html", True, head=True)
        assert content.content_length == 0
        assert content.segments == ()
        assert content.file_handle is None
        built = store.build_response(get_request("/page.html"), entry)
        assert content.header == built.header
        built.release(store)  # its pins would outlive the module otherwise

    def test_if_modified_since_serves_precomposed_304(self, store):
        entry = build_and_insert(store)
        stamp = http_date(entry.mtime)
        content = store.hot_lookup(
            b"/page.html", True, if_modified_since=stamp
        )
        assert content.status == 304
        assert content.content_length == 0
        assert b"304 Not Modified" in content.header
        # An IMS in the past still gets the 200.
        content = store.hot_lookup(
            b"/page.html", True, if_modified_since=http_date(entry.mtime - 3600)
        )
        assert content.status == 200
        content.release(store)

    def test_fd_cache_invalidation_drops_entry_and_closes_orphan(self, store):
        build_and_insert(store)
        path = os.path.join(store.config.document_root, "page.html")
        handle = store.fd_cache._entries[path]
        store.fd_cache.invalidate(path)
        # The hook dropped the hot entry, releasing the last pin, so the
        # orphaned descriptor is closed immediately.
        assert store.hot_lookup(b"/page.html", True) is None
        assert handle.closed
        assert len(store.hot_cache) == 0

    def test_mmap_invalidation_drops_entry(self, tmp_path):
        (tmp_path / "page.html").write_bytes(b"<html>hot</html>")
        config = ServerConfig(
            document_root=str(tmp_path),
            port=0,
            zero_copy=False,                   # mapped-chunk route
            hot_cache_revalidate=1000.0,
        )
        store = ContentStore(config)
        try:
            build_and_insert(store)
            path = os.path.join(store.config.document_root, "page.html")
            assert len(store.hot_cache) == 1
            store.mmap_cache.invalidate(path)
            assert len(store.hot_cache) == 0
            assert store.hot_lookup(b"/page.html", True) is None
        finally:
            store.close()

    def test_ineligible_shapes_are_refused(self, store):
        entry = store.translate("/page.html")
        head = HTTPRequest(
            method="HEAD", uri="/page.html", path="/page.html", version="HTTP/1.1"
        )
        content = store.build_response(head, entry)
        assert not store.hot_insert(head, entry, content)
        query = get_request("/page.html")
        query.query = "x=1"
        content = store.build_response(query, entry)
        assert not store.hot_insert(query, entry, content)
        content.release(store)

    def test_close_releases_every_pin(self, store):
        build_and_insert(store)
        path = os.path.join(store.config.document_root, "page.html")
        handle = store.fd_cache._entries[path]
        store.close()
        assert handle.refcount == 0
        assert handle.closed

    def test_disabled_hot_cache_is_inert(self, tmp_path):
        (tmp_path / "page.html").write_bytes(b"x")
        store = ContentStore(
            ServerConfig(document_root=str(tmp_path), port=0, hot_cache=False)
        )
        try:
            request = get_request("/page.html")
            entry = store.translate("/page.html")
            content = store.build_response(request, entry)
            assert store.hot_cache is None
            assert not store.hot_insert(request, entry, content)
            assert store.hot_lookup(b"/page.html", True) is None
            content.release(store)
        finally:
            store.close()


class TestBudgetClamping:
    @pytest.mark.skipif(not sendfile_available(), reason="needs os.sendfile")
    def test_hot_entries_clamped_to_fd_budget_under_zero_copy(self, tmp_path):
        """Under zero-copy each entry pins a descriptor: one entry per
        descriptor the fd cache may hold."""
        store = ContentStore(
            ServerConfig(document_root=str(tmp_path), port=0, fd_cache_entries=4)
        )
        try:
            assert store.hot_cache.max_entries == 4
            assert store.hot_cache.max_pinned_bytes == store.config.mmap_cache_bytes
        finally:
            store.close()

    def test_no_clamp_without_zero_copy(self, tmp_path):
        """Buffered entries pin chunks, not descriptors: the fd budget does
        not bound them; the bytes they pin share the mapped-file budget."""
        store = ContentStore(
            ServerConfig(
                document_root=str(tmp_path), port=0, zero_copy=False, fd_cache_entries=4
            )
        )
        try:
            assert store.hot_cache.max_entries == DEFAULT_MAX_ENTRIES
            assert store.hot_cache.max_pinned_bytes == store.config.mmap_cache_bytes
        finally:
            store.close()

    @pytest.mark.skipif(not sendfile_available(), reason="needs os.sendfile")
    def test_empty_fd_budget_keeps_one_entry(self, tmp_path):
        store = ContentStore(
            ServerConfig(document_root=str(tmp_path), port=0, fd_cache_entries=0)
        )
        try:
            assert store.hot_cache.max_entries == 1
        finally:
            store.close()


class TestWindowScopedResidency:
    """Regressions from review: residency verdicts and hot-range pins are
    window-scoped."""

    class _WindowTester:
        """Scripted per-window fd residency: warm only below ``warm_end``."""

        def __init__(self, warm_end):
            self.warm_end = warm_end
            self.probes = []

        def is_resident(self, chunk):
            return True

        def file_resident(self, fd, length, path="", offset=0):
            self.probes.append((offset, length))
            return offset + length <= self.warm_end

    def _fd_store(self, tmp_path, tester, size=200_000):
        (tmp_path / "file.bin").write_bytes(b"x" * size)
        config = ServerConfig(document_root=str(tmp_path), port=0)
        return ContentStore(config, residency_tester=tester)

    def test_small_window_verdict_does_not_vouch_for_larger(self, tmp_path):
        tester = self._WindowTester(warm_end=1024)
        store = self._fd_store(tmp_path, tester)
        try:
            handle = store.fd_cache.acquire(str(tmp_path / "file.bin"))
            try:
                # The warm 1 KB head passes and is cached...
                assert store.fd_resident(handle, 1024, offset=0) is True
                # ...but must not vouch for the cold full file within the TTL.
                assert store.fd_resident(handle, 200_000, offset=0) is False
                assert tester.probes == [(0, 1024), (0, 200_000)]
            finally:
                store.release_fd(handle)
        finally:
            store.close()

    def test_covered_window_reuses_cached_verdict(self, tmp_path):
        tester = self._WindowTester(warm_end=10_000)
        store = self._fd_store(tmp_path, tester)
        try:
            handle = store.fd_cache.acquire(str(tmp_path / "file.bin"))
            try:
                assert store.fd_resident(handle, 8192, offset=0) is True
                # A sub-window of the cached interval pays no new probe.
                assert store.fd_resident(handle, 1024, offset=2048) is True
                assert len(tester.probes) == 1
            finally:
                store.release_fd(handle)
        finally:
            store.close()

    def test_tail_window_probes_only_its_own_bytes(self, tmp_path):
        """A tail range over a cold-head file must pass residency: the
        probe covers (offset, length), not (0, offset+length) — otherwise
        every such request re-warms forever."""
        tester = self._WindowTester(warm_end=0)
        tester.file_resident = lambda fd, length, path="", offset=0: offset >= 100_000
        store = self._fd_store(tmp_path, tester)
        try:
            request = get_request(
                "/file.bin", headers={"range": "bytes=150000-150999"}
            )
            entry = store.translate("/file.bin")
            content = store.build_response(request, entry, map_body=False)
            try:
                assert content.status == 206
                assert list(content.parts) == [(b"", 150_000, 1000)]
                assert store.content_resident(content) is True
            finally:
                content.release(store)
        finally:
            store.close()

    def test_hot_range_hit_pins_only_intersecting_chunks(self, tmp_path):
        """A hot-cache range hit pins (and later releases) only the chunks
        its window touches, like the slow path's windowed acquisition."""
        size = 200_000                         # 4 chunks at 64 KB
        (tmp_path / "file.bin").write_bytes(bytes(i % 251 for i in range(size)))
        config = ServerConfig(
            document_root=str(tmp_path),
            port=0,
            zero_copy=False,                   # chunk-backed entries
            hot_cache_revalidate=1000.0,
        )
        store = ContentStore(config)
        try:
            request = get_request("/file.bin")
            entry = store.translate("/file.bin")
            full = store.build_response(request, entry)
            assert store.hot_insert(request, entry, full)
            full.release(store)
            total_chunks = len(store.hot_cache.lookup(b"/file.bin").chunks)
            assert total_chunks == 4
            content = store.hot_lookup(
                b"/file.bin", True, range_header="bytes=70000-70999"
            )
            try:
                assert content is not None and content.status == 206
                assert len(content.chunks) == 1          # window inside chunk 1
                assert content.chunks[0].offset == 65536
                assert b"".join(
                    bytes(view) for view in content.segments
                ) == bytes(i % 251 for i in range(70_000, 71_000))
                # Only the pinned chunk's refcount rose.
                hot_entry = store.hot_cache.lookup(b"/file.bin")
                refcounts = [chunk.refcount for chunk in hot_entry.chunks]
                assert refcounts == [1, 2, 1, 1]
            finally:
                content.release(store)
            hot_entry = store.hot_cache.lookup(b"/file.bin")
            assert [chunk.refcount for chunk in hot_entry.chunks] == [1, 1, 1, 1]
        finally:
            store.close()
