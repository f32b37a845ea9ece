"""The one freshness rule every cache tier follows.

A file state (path, size, mtime and the ETag derived from them) is trusted
for ``hot_cache_revalidate`` seconds after the ``stat`` that produced or
last confirmed it; after that one function, ``repro.cache.pathname.unchanged``,
re-``stat``\\ s it, and a change found by any tier invalidates the file in
every tier.  These tests drive ``time.monotonic`` by hand and count the
``os.stat`` calls the tiers make.
"""

import os
import time

import pytest

from repro.cache.pathname import PathnameCache, unchanged
from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore
from repro.http.request import HTTPRequest
from repro.http.uri import resolve_path


@pytest.fixture
def clock(monkeypatch):
    """``time.monotonic`` under the test's control: ``clock[0]`` is now."""
    now = [1000.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    return now


@pytest.fixture
def stat_calls(monkeypatch):
    """The paths ``os.stat`` was called with, in order."""
    calls = []
    real_stat = os.stat

    def counting_stat(path, *args, **kwargs):
        calls.append(path)
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counting_stat)
    return calls


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "f.html").write_bytes(b"8 bytes!")
    return str(tmp_path)


def rewrite(path, data, mtime_ns):
    with open(path, "wb") as handle:
        handle.write(data)
    os.utime(path, ns=(mtime_ns, mtime_ns))


def get(uri):
    return HTTPRequest(method="GET", uri=uri, path=uri, version="HTTP/1.1", headers={})


class TestUnchanged:
    def test_compares_size_and_mtime(self, docroot):
        path = os.path.join(docroot, "f.html")
        stat = os.stat(path)
        assert unchanged(path, stat.st_size, stat.st_mtime)
        assert not unchanged(path, stat.st_size + 1, stat.st_mtime)
        assert not unchanged(path, stat.st_size, stat.st_mtime + 1)

    def test_vanished_file_has_changed(self, docroot):
        assert not unchanged(os.path.join(docroot, "gone.html"), 0, 0.0)


class TestPathnameTier:
    @pytest.mark.parametrize("method", ["lookup", "lookup_cached"])
    def test_stat_only_past_the_interval(self, docroot, clock, stat_calls, method):
        cache = PathnameCache(
            lambda uri: resolve_path(uri, docroot), revalidate_interval=1.0
        )
        entry = cache.lookup("/f.html")
        assert entry.validated_at == 1000.0
        stat_calls.clear()
        clock[0] = 1000.9
        assert getattr(cache, method)("/f.html") is entry
        assert stat_calls == []
        clock[0] = 1001.0
        assert getattr(cache, method)("/f.html") is entry
        assert stat_calls == [entry.filesystem_path]
        # The confirmation restarts the interval.
        assert entry.validated_at == 1001.0
        clock[0] = 1001.5
        assert getattr(cache, method)("/f.html") is entry
        assert len(stat_calls) == 1

    def test_zero_interval_checks_every_use(self, docroot, clock, stat_calls):
        cache = PathnameCache(lambda uri: resolve_path(uri, docroot))
        entry = cache.lookup("/f.html")
        stat_calls.clear()
        for _ in range(3):
            assert cache.lookup_cached("/f.html") is entry
        assert len(stat_calls) == 3

    def test_expired_change_sends_lookup_cached_back_to_translation(
        self, docroot, clock
    ):
        invalidated = []
        cache = PathnameCache(
            lambda uri: resolve_path(uri, docroot),
            on_invalidate=lambda uri, entry: invalidated.append(uri),
            revalidate_interval=1.0,
        )
        cache.lookup("/f.html")
        rewrite(os.path.join(docroot, "f.html"), b"a much longer body", 1_700_000_000_000_000_000)
        clock[0] = 1000.5
        assert cache.lookup_cached("/f.html").size == 8  # trusted inside the interval
        clock[0] = 1001.5
        assert cache.lookup_cached("/f.html") is None
        assert invalidated == ["/f.html"] and "/f.html" not in cache
        assert cache.lookup("/f.html").size == len(b"a much longer body")


@pytest.fixture
def store(docroot, clock):
    store = ContentStore(
        ServerConfig(document_root=docroot, port=0, hot_cache_revalidate=1.0)
    )
    yield store
    store.close()


class TestHotTier:
    def test_entry_is_born_with_its_translations_stamp(self, store, clock, stat_calls):
        entry = store.translate("/f.html")
        clock[0] = 1000.8
        content = store.build_response(get("/f.html"), entry)
        assert store.hot_insert(get("/f.html"), entry, content)
        content.release(store)
        hot = store.hot_cache._entries[b"/f.html"]
        assert hot.validated_at == entry.validated_at == 1000.0
        stat_calls.clear()
        # 1.1 s after the translation's stat, though 0.3 s after the insert.
        clock[0] = 1001.1
        store.hot_lookup(b"/f.html", True).release(store)
        assert stat_calls == [entry.filesystem_path]

    def test_change_found_by_hot_tier_reaches_every_tier(self, store, docroot, clock):
        path = os.path.join(docroot, "f.html")
        for uri in ("/f.html", "/./f.html"):
            entry = store.translate(uri)
        request = get("/f.html")
        content = store.build_response(request, entry, map_body=True)
        assert content.chunks
        assert store.hot_insert(request, entry, content)
        content.release(store)
        assert any(key.path == path for key in store.mmap_cache._chunks)
        assert path in store.fd_cache._entries
        assert len(store.pathname_cache) == 2

        rewrite(path, b"a much longer body", 1_700_000_000_000_000_000)
        clock[0] = 1001.0
        assert store.hot_lookup(b"/f.html", True) is None
        assert len(store.hot_cache) == 0
        assert len(store.pathname_cache) == 0  # both spellings of the file
        assert not any(key.path == path for key in store.mmap_cache._chunks)
        assert path not in store.fd_cache._entries

        misses = store.pathname_cache.misses
        fresh = store.translate("/f.html")
        assert store.pathname_cache.misses == misses + 1  # re-translated
        assert fresh.size == len(b"a much longer body")
        assert fresh.etag != entry.etag
