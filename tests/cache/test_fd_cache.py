"""Unit tests for the open-descriptor cache behind the zero-copy send path.

The load-bearing property is the eviction regression: a descriptor pinned
by an in-flight ``sendfile`` transfer (possibly parked mid-transfer after a
short write) must never be closed by cache eviction, no matter how much
churn other requests generate — closing it would break the resumed
transfer with ``EBADF``, or silently corrupt it if the fd number got
reused in between.
"""

import contextlib
import errno
import os
import socket
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.mapped_file import FileDescriptorCache
from repro.core.pipeline import ServerStats, StaticContent
from repro.core.send_path import SendPath, sendfile_available
from repro.testing.faults import faults


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


    def test_statistics(self, paths):
        cache = FileDescriptorCache(max_entries=1)
        for path in (paths[0], paths[0], paths[1], paths[0]):
            cache.release(cache.acquire(path))
        # paths[1] evicted paths[0], so its third acquisition reopened it.
        assert (cache.hits, cache.misses) == (1, 3)
        assert cache.open_operations == 3
        assert cache.close_operations == 2
        assert cache.hit_rate == 0.25
        cache.clear()
        assert cache.close_operations == 3

    def test_empty_cache_hit_rate_is_zero(self):
        assert FileDescriptorCache().hit_rate == 0.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FileDescriptorCache(max_entries=-1)

    def test_zero_capacity_closes_on_last_release(self, paths):
        cache = FileDescriptorCache(max_entries=0)
        first = cache.acquire(paths[0])
        second = cache.acquire(paths[0])
        assert second is first  # a pinned descriptor is shared, not reopened
        cache.release(first)
        assert not first.closed
        cache.release(second)
        assert first.closed and not fd_is_open(first.fd)
        assert len(cache) == 0

    def test_invalidate_closes_idle_descriptor(self, paths):
        cache = FileDescriptorCache(max_entries=4)
        entry = cache.acquire(paths[0])
        cache.release(entry)
        cache.invalidate(paths[0])
        assert entry.closed and not entry.orphaned
        assert len(cache) == 0
        fresh = cache.acquire(paths[0])
        assert fresh is not entry and cache.open_operations == 2
        cache.release(fresh)
        cache.clear()

    def test_invalidate_unknown_path_is_a_no_op(self, paths):
        cache = FileDescriptorCache(max_entries=4)
        seen = []
        cache.on_invalidate = seen.append
        cache.invalidate(paths[0])
        assert seen == [] and cache.close_operations == 0

    def test_invalidation_notifies_subscriber(self, paths):
        cache = FileDescriptorCache(max_entries=4)
        seen = []
        cache.on_invalidate = seen.append
        idle = cache.acquire(paths[0])
        cache.release(idle)
        pinned = cache.acquire(paths[1])
        cache.clear()
        assert sorted(seen) == sorted(paths[:2])
        assert idle.closed
        assert pinned.orphaned and not pinned.closed
        cache.release(pinned)
        assert pinned.closed

    def test_open_failure_caches_nothing(self, tmp_path):
        cache = FileDescriptorCache(max_entries=4)
        missing = str(tmp_path / "missing.bin")
        with pytest.raises(FileNotFoundError):
            cache.acquire(missing)
        assert len(cache) == 0
        assert cache.misses == 1 and cache.open_operations == 0

    def test_disk_read_fault_fails_only_an_open(self, paths):
        """The ``disk_read`` fault point is the miss path's open: a hit on
        an already open descriptor touches no disk and cannot fail."""
        cache = FileDescriptorCache(max_entries=4)
        cached = cache.acquire(paths[0])
        try:
            faults.arm("disk_read", count=1)
            assert cache.acquire(paths[0]) is cached
            cache.release(cached)
            with pytest.raises(OSError) as failure:
                cache.acquire(paths[1])
            assert failure.value.errno == errno.EIO
            assert len(cache) == 1 and cache.open_operations == 1
            assert not faults.armed("disk_read")
            cache.release(cache.acquire(paths[1]))
        finally:
            faults.reset()
        cache.release(cached)
        cache.clear()


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

    def test_pinned_over_capacity_are_parked_then_evicted(self, paths):
        """Pins may hold more descriptors open than ``max_entries``; the
        excess is closed as each one is released, coldest first."""
        cache = FileDescriptorCache(max_entries=2)
        entries = [cache.acquire(path) for path in paths[:4]]
        assert len(cache) == 4 and not any(entry.closed for entry in entries)
        for entry in entries:
            cache.release(entry)
        assert [entry.closed for entry in entries] == [True, True, False, False]
        assert len(cache) == 2
        cache.clear()

    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(["acquire", "release", "invalidate"]), st.integers(0, 5)),
            min_size=1,
            max_size=60,
        ),
        capacity=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_generated_schedules_keep_the_bounds(self, tmp_path_factory, operations, capacity):
        """Invariant: idle descriptors never exceed ``max_entries``, a pinned
        descriptor is never closed, and every descriptor is closed once
        its pins are gone and the cache is cleared."""
        root = tmp_path_factory.mktemp("fd-prop")
        names = []
        for index in range(6):
            path = root / f"f{index}"
            path.write_bytes(b"x")
            names.append(str(path))
        cache = FileDescriptorCache(max_entries=capacity)
        held = []
        seen = []
        for action, index in operations:
            if action == "acquire":
                entry = cache.acquire(names[index])
                held.append(entry)
                seen.append(entry)
            elif action == "release" and held:
                cache.release(held.pop(index % len(held)))
            elif action == "invalidate":
                cache.invalidate(names[index])
            idle = [entry for entry in cache._entries.values() if entry.refcount == 0]
            assert len(idle) <= capacity
            assert all(not entry.closed and fd_is_open(entry.fd) for entry in held)
        for entry in held:
            cache.release(entry)
        cache.clear()
        assert all(entry.closed for entry in seen)
        assert cache.open_operations == cache.close_operations

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
            content = StaticContent(header=b"HDR", file_handle=handle)
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
