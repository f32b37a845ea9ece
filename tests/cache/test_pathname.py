"""Unit tests for the pathname translation cache (paper Section 5.2)."""

import os

import pytest

from repro.cache.pathname import PathnameCache, PathnameEntry
from repro.http.errors import NotFoundError
from repro.http.uri import resolve_path


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "index.html").write_text("<html>hello</html>")
    (tmp_path / "a.txt").write_text("aaaa")
    return str(tmp_path)


def make_cache(docroot, **kwargs):
    return PathnameCache(lambda uri: resolve_path(uri, docroot), **kwargs)


class TestLookup:
    def test_miss_then_hit(self, docroot):
        cache = make_cache(docroot)
        first = cache.lookup("/a.txt")
        assert first.filesystem_path == os.path.join(docroot, "a.txt")
        assert first.size == 4
        assert cache.misses == 1
        second = cache.lookup("/a.txt")
        assert second == first
        assert cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_translation_error_not_cached(self, docroot):
        cache = make_cache(docroot)
        with pytest.raises(NotFoundError):
            cache.lookup("/missing.html")
        assert len(cache) == 0
        # A later successful lookup is unaffected.
        cache.lookup("/a.txt")
        assert len(cache) == 1

    def test_capacity_bound(self, docroot, tmp_path):
        for i in range(5):
            (tmp_path / f"f{i}.txt").write_text("x")
        cache = make_cache(docroot, max_entries=3)
        for i in range(5):
            cache.lookup(f"/f{i}.txt")
        assert len(cache) == 3

    def test_insert_external_entry(self, docroot):
        """Entries produced by helper processes can be inserted directly."""
        cache = make_cache(docroot)
        entry = PathnameEntry(
            uri="/a.txt",
            filesystem_path=os.path.join(docroot, "a.txt"),
            size=4,
            mtime=os.stat(os.path.join(docroot, "a.txt")).st_mtime,
        )
        cache.insert(entry)
        assert cache.lookup("/a.txt") == entry
        # The insert satisfied the lookup: no translation was performed.
        assert cache.misses == 0


class TestRevalidation:
    def test_changed_file_invalidates_and_refreshes(self, docroot):
        invalidated = []
        cache = PathnameCache(
            lambda uri: resolve_path(uri, docroot),
            on_invalidate=lambda uri, entry: invalidated.append(uri),
        )
        entry = cache.lookup("/a.txt")
        # Modify the file: size changes, so the cached entry is stale.
        target = os.path.join(docroot, "a.txt")
        with open(target, "w") as handle:
            handle.write("much longer content")
        os.utime(target, (entry.mtime + 10, entry.mtime + 10))
        refreshed = cache.lookup("/a.txt")
        assert refreshed.size == len("much longer content")
        assert invalidated == ["/a.txt"]
        assert cache.revalidations == 1

    def test_unchanged_file_not_invalidated(self, docroot):
        invalidated = []
        cache = PathnameCache(
            lambda uri: resolve_path(uri, docroot),
            on_invalidate=lambda uri, entry: invalidated.append(uri),
        )
        cache.lookup("/a.txt")
        cache.lookup("/a.txt")
        assert invalidated == []
        assert cache.revalidations == 0

    def test_deleted_file_invalidates(self, docroot):
        cache = make_cache(docroot)
        cache.lookup("/a.txt")
        os.unlink(os.path.join(docroot, "a.txt"))
        with pytest.raises(NotFoundError):
            cache.lookup("/a.txt")
        assert "/a.txt" not in cache

    def test_no_revalidation_when_disabled(self, docroot):
        cache = make_cache(docroot)
        entry = cache.lookup("/a.txt")
        os.unlink(os.path.join(docroot, "a.txt"))
        # revalidate=False returns the (stale) cached entry without stat-ing.
        assert cache.lookup("/a.txt", revalidate=False) == entry


class TestExplicitInvalidation:
    def test_invalidate_notifies_dependents(self, docroot):
        invalidated = []
        cache = PathnameCache(
            lambda uri: resolve_path(uri, docroot),
            on_invalidate=lambda uri, entry: invalidated.append((uri, entry.filesystem_path)),
        )
        cache.lookup("/a.txt")
        cache.invalidate("/a.txt")
        assert "/a.txt" not in cache
        assert invalidated and invalidated[0][0] == "/a.txt"

    def test_invalidate_absent_is_noop(self, docroot):
        cache = make_cache(docroot)
        cache.invalidate("/nothing")

    def test_clear(self, docroot):
        cache = make_cache(docroot)
        cache.lookup("/a.txt")
        cache.clear()
        assert len(cache) == 0
