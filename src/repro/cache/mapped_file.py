"""The descriptor cache: the live server's mapped-file tier (paper Section 5.4).

Flash keeps a cache of memory-mapped file chunks so a request pays no
map/unmap and no copy.  This server sends file bytes with ``sendfile``
from a cached open descriptor instead, which does the same job: the body
never enters user space, and a cache-hot request performs no name lookup,
no open and no copy.  Every static body with bytes leaves from a pinned
:class:`CachedFD` — by ``sendfile``, or by bounded positional reads when
zero-copy is off.  The paper's chunk cache itself, with its lazy unmap and
byte budget, is reproduced in the simulator (:mod:`repro.sim`), where the
Figure 11 ablation turns it off.

The module keeps its historical name: the regression benchmark reports
its descriptor probes as ``cache.mapped_file.*``.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cache.lru import LRUList
from repro.testing.faults import faults


@dataclass
class CachedFD:
    """One cached open file descriptor handed to in-flight responses.

    The descriptor is owned by :class:`FileDescriptorCache`; holders pin it
    by acquisition refcount and must release it when the response finishes.
    ``orphaned`` marks descriptors whose cache entry was invalidated while
    still pinned: they are closed on final release instead of being reused.
    """

    path: str
    fd: int
    refcount: int = 0
    orphaned: bool = field(default=False, repr=False)
    closed: bool = field(default=False, repr=False)
    #: Whether a readahead hint (``posix_fadvise WILLNEED``) has already
    #: been issued for this descriptor — lets hot-path callers advise once
    #: per descriptor lifetime instead of paying a syscall per request.
    advised: bool = field(default=False, repr=False)
    #: ``OP_WARM`` helpers in flight on this descriptor.  While non-zero
    #: its windows read cold without a probe: pages still being read in
    #: already count as cached (see ``ContentStore.fd_resident``).
    warming: int = field(default=0, repr=False)


class FileDescriptorCache:
    """Cache of open file descriptors, the one source of static bodies.

    A naive server pays an ``open``/``close`` pair per request.  This
    cache keeps descriptors of recently served files open — the
    filesystem-level analogue of the mapped-file cache — so a cache-hot
    request performs *no* name lookup, no open and no copy.

    Descriptors are reference counted: while a response is transmitting
    from a descriptor it cannot be closed; idle descriptors park on an LRU
    list bounded by ``max_entries``.
    """

    def __init__(self, max_entries: int = 128):
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = max_entries
        self._entries: dict[str, CachedFD] = {}
        self._free_list: LRUList[str] = LRUList()
        #: Optional hook called with the path whenever a cached descriptor
        #: is invalidated; the hot-response cache subscribes so its entries
        #: never outlive the descriptor they pinned.  (LRU eviction never
        #: touches pinned descriptors, so invalidation is the only way a
        #: subscribed holder can lose one.)
        self.on_invalidate: Optional[Callable[[str], None]] = None
        self.hits = 0
        self.misses = 0
        self.open_operations = 0
        self.close_operations = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of acquisitions that reused an already open descriptor."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def acquire(self, path: str) -> CachedFD:
        """Pin and return an open descriptor for ``path``, opening if needed.

        Propagates ``OSError`` when the file cannot be opened; the
        response is then answered with an error.
        """
        entry = self._entries.get(path)
        if entry is not None:
            self.hits += 1
            if entry.refcount == 0:
                self._free_list.discard(path)
            entry.refcount += 1
            return entry
        self.misses += 1
        if faults.take("disk_read"):
            # Injected media failure at the open, the response build's one
            # disk access: exercises the 500 path on every architecture.
            raise OSError(errno.EIO, f"injected disk failure opening {path}")
        fd = os.open(path, os.O_RDONLY)
        self.open_operations += 1
        entry = CachedFD(path=path, fd=fd, refcount=1)
        self._entries[path] = entry
        self._evict_to_limit()
        return entry

    def release(self, entry: CachedFD) -> None:
        """Unpin ``entry``; idle descriptors stay cached on the LRU list."""
        if entry.refcount <= 0:
            raise ValueError(f"release of unpinned descriptor for {entry.path}")
        entry.refcount -= 1
        if entry.refcount > 0:
            return
        if entry.orphaned or self._entries.get(entry.path) is not entry:
            self._close(entry)
            return
        self._free_list.touch(entry.path)
        self._evict_to_limit()

    def invalidate(self, path: str) -> None:
        """Drop the cached descriptor for ``path``.

        A pinned descriptor is orphaned — removed from the cache but kept
        open for the in-flight response, which closes it on release.
        Subscribed holders (the hot-response cache) are notified so they
        release their pin; an orphan whose last pin drops is closed then.
        """
        entry = self._entries.pop(path, None)
        if entry is None:
            return
        self._free_list.discard(path)
        if entry.refcount == 0:
            self._close(entry)
        else:
            entry.orphaned = True
        if self.on_invalidate is not None:
            self.on_invalidate(path)

    def clear(self) -> None:
        """Invalidate every cached descriptor."""
        for path in list(self._entries):
            self.invalidate(path)

    def _close(self, entry: CachedFD) -> None:
        if entry.closed:
            return
        entry.closed = True
        try:
            os.close(entry.fd)
        except OSError:
            pass
        self.close_operations += 1

    def _evict_to_limit(self) -> None:
        while len(self._free_list) and len(self._entries) > self.max_entries:
            path = self._free_list.coldest()
            if path is None:
                break
            self._free_list.discard(path)
            entry = self._entries.get(path)
            if entry is None:
                continue
            if entry.refcount > 0:
                # Pinned descriptors must never be closed by eviction: a
                # sendfile transfer may be mid-flight on this fd (resuming
                # after a short write), and closing it would either break
                # the transfer with EBADF or — worse — silently redirect
                # it if the fd number is reused.  A pinned entry on the
                # free list means the LRU bookkeeping desynchronized;
                # dropping it from the list restores the invariant and the
                # descriptor is parked again on its final release.
                continue
            del self._entries[path]
            self._close(entry)
