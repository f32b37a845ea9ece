"""Unit tests for the open-descriptor cache behind the zero-copy send path.

The load-bearing property is the eviction regression: a descriptor pinned
by an in-flight ``sendfile`` transfer (possibly parked mid-transfer after a
short write) must never be closed by cache eviction, no matter how much
churn other requests generate — closing it would break the resumed
transfer with ``EBADF``, or silently corrupt it if the fd number got
reused in between.
"""

import contextlib
import os
import socket
import types

import pytest

from repro.cache.mapped_file import FileDescriptorCache
from repro.core.pipeline import ServerStats, StaticContent
from repro.core.send_path import SendPath, sendfile_available


@pytest.fixture
def paths(tmp_path):
    created = []
    for index in range(8):
        path = tmp_path / f"file{index}.bin"
        path.write_bytes(bytes([index]) * 2048)
        created.append(str(path))
    return created


def fd_is_open(fd: int) -> bool:
    try:
        os.fstat(fd)
        return True
    except OSError:
        return False


class TestAcquireRelease:
    def test_hit_reuses_descriptor(self, paths):
        cache = FileDescriptorCache(max_entries=4)
        first = cache.acquire(paths[0])
        cache.release(first)
        second = cache.acquire(paths[0])
        assert second is first
        assert cache.hits == 1 and cache.misses == 1
        cache.release(second)
        cache.clear()

    def test_release_unpinned_rejected(self, paths):
        cache = FileDescriptorCache(max_entries=4)
        entry = cache.acquire(paths[0])
        cache.release(entry)
        with pytest.raises(ValueError):
            cache.release(entry)
        cache.clear()

    def test_idle_descriptors_evicted_lru(self, paths):
        cache = FileDescriptorCache(max_entries=2)
        entries = [cache.acquire(path) for path in paths[:3]]
        for entry in entries:
            cache.release(entry)
        # Only the two most recently released survive.
        assert len(cache) == 2
        assert entries[0].closed
        assert not entries[1].closed and not entries[2].closed
        cache.clear()

    def test_invalidate_orphans_pinned(self, paths):
        cache = FileDescriptorCache(max_entries=4)
        entry = cache.acquire(paths[0])
        cache.invalidate(paths[0])
        assert entry.orphaned and not entry.closed
        assert fd_is_open(entry.fd)
        cache.release(entry)
        assert entry.closed


class TestEvictionNeverClosesPinned:
    def test_churn_under_capacity_pressure(self, paths):
        """Heavy miss traffic around a pinned fd never closes it."""
        cache = FileDescriptorCache(max_entries=1)
        pinned = cache.acquire(paths[0])
        for _ in range(3):
            for path in paths[1:]:
                other = cache.acquire(path)
                cache.release(other)
        assert not pinned.closed
        assert fd_is_open(pinned.fd)
        cache.release(pinned)
        cache.clear()

    def test_desynced_free_list_entry_is_skipped(self, paths):
        """Eviction must check the pin, not trust the LRU bookkeeping.

        Force the historical failure mode directly: the pinned path sits on
        the free list (a bookkeeping desync) while capacity pressure drives
        eviction.  The guard must drop the stale list entry and leave the
        descriptor open; release afterwards parks it normally.
        """
        cache = FileDescriptorCache(max_entries=1)
        pinned = cache.acquire(paths[0])
        cache._free_list.touch(paths[0])          # simulate the desync
        churn = cache.acquire(paths[1])           # over capacity -> evict
        cache.release(churn)
        assert not pinned.closed
        assert fd_is_open(pinned.fd)
        # The stale free-list entry was dropped, not acted on.
        cache.release(pinned)
        assert cache._entries[paths[0]] is pinned
        cache.clear()
        assert pinned.closed

    @pytest.mark.skipif(not sendfile_available(), reason="needs os.sendfile")
    def test_eviction_during_short_write_resume(self, tmp_path, paths):
        """Regression: evict while a sendfile transfer is parked mid-file.

        A 256 KB body against a 4 KB socket buffer guarantees short writes;
        between resume steps the cache is flooded well past ``max_entries``.
        The transfer must complete byte-identically off the still-open
        descriptor.
        """
        body = os.urandom(256 * 1024)
        target = tmp_path / "big.bin"
        target.write_bytes(body)

        cache = FileDescriptorCache(max_entries=1)
        handle = cache.acquire(str(target))

        left, right = socket.socketpair()
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        right.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        left.setblocking(False)
        try:
            content = StaticContent(header=b"HDR", segments=(), file_handle=handle)
            store = types.SimpleNamespace(
                stats=ServerStats(), stats_lock=contextlib.nullcontext
            )
            sender = SendPath([content.header, (content, 0, len(body))], store)
            received = bytearray()
            right.settimeout(1.0)
            while not sender.done:
                sender.send(left)
                # Mid-transfer churn: each iteration acquires and releases
                # other descriptors, driving eviction while ours is pinned.
                for path in paths:
                    other = cache.acquire(path)
                    cache.release(other)
                assert not handle.closed, "pinned fd closed by eviction mid-transfer"
                try:
                    received.extend(right.recv(65536))
                except socket.timeout:
                    pass
            while len(received) < len(body) + 3:
                received.extend(right.recv(65536))
            assert bytes(received) == b"HDR" + body
            assert store.stats.sendfile_fallbacks == 0
        finally:
            left.close()
            right.close()
        cache.release(handle)
        cache.clear()
