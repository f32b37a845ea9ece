"""Unified hot-response cache: the single-lookup fast path.

The paper's Figure 11 shows that Flash's performance on cached workloads
comes from aggressive caching of every per-request artifact: the pathname
translation (Section 5.2), the response header (Section 5.3) and the mapped
file (Section 5.4).  This reproduction implements all three — but a fully
cached GET still pays three separate LRU probes, a descriptor-cache
acquisition and a freshly allocated request object.

:class:`HotResponseCache` collapses that chain.  It is keyed on the **raw
request-target bytes** exactly as they appear on the wire (the key the
fast-path parser produces without any decoding), and each
:class:`HotEntry` holds a fully precomposed response:

* the validated translated filesystem path with the size/mtime it was
  validated against;
* response-header blocks — 200 and 304 variants, each in keep-alive and
  close flavours.  An entry is born holding only the 200 header its
  inserting request was answered with; the owner composes each other
  variant the first time a hit asks for it, through the slow path's own
  header code, so the bytes are identical and a response that is never
  hit again costs no header it did not send;
* the pinned cached descriptor (zero-copy ``sendfile`` transmission)
  and/or the pinned mapped chunks with their precomputed body views
  (buffered/vectored transmission).

A cache-hit GET therefore goes from bytes-on-socket to
``sendfile``/``writev`` with one dict probe.

Consistency rules
-----------------

* **Entries never outlive their pinned resources.**  The cache holds one
  reference on the descriptor and on every chunk; because a pinned
  descriptor/chunk can never be *evicted* by its owning cache, the only
  ways the resources can go away are explicit invalidation and shutdown —
  and both of those notify this cache first (``on_invalidate`` hooks on
  :class:`~repro.cache.mapped_file.FileDescriptorCache` and
  :class:`~repro.cache.mapped_file.MappedFileCache`, wired by
  :class:`~repro.core.pipeline.ContentStore`), which drops the entry and
  releases its pins.
* **Freshness follows the pathname cache's rule.**  An entry is born with
  its translation's ``validated_at`` stamp, so a stale translation cannot
  mint a fresh-looking entry.  A hit past ``revalidate_interval`` runs
  :func:`repro.cache.pathname.unchanged`; a changed file drops the entry
  and ``on_change`` fans out to every tier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.cache.lru import LRUList
from repro.cache.pathname import unchanged

#: Default entry limit.  Entries pin one descriptor and the chunks of one
#: file each, so the bound also caps how much of the fd/mmap caches the hot
#: cache can keep pinned.
DEFAULT_MAX_ENTRIES = 1024

#: Default seconds a validation verdict is reused before re-``stat``-ing.
DEFAULT_REVALIDATE_INTERVAL = 1.0


@dataclass
class HotEntry:
    """One precomposed response, pinned and ready to transmit.

    Attributes
    ----------
    target:
        Raw request-target bytes (the cache key).
    path, size, mtime:
        The validated translation this entry was built from.
    etag:
        The strong entity-tag minted at translation time; conditional
        read-side hits compare ``If-None-Match``/``If-Match``/``If-Range``
        validators against it without re-translation.
    content_length:
        Body length in bytes (equals ``size``).
    header_keep, header_close:
        The 200 header blocks for the two connection dispositions, or
        ``None`` until composed.
    header_304_keep, header_304_close:
        The 304 (Not Modified) header blocks, likewise.
    file_handle:
        The pinned :class:`~repro.cache.mapped_file.CachedFD`, when the
        zero-copy path may transmit this entry (``None`` otherwise).
    chunks:
        Pinned mapped chunks backing ``segments`` (may be empty on the
        pure-fd route).
    segments:
        Precomputed zero-copy body views for the buffered/vectored path.
    parts:
        The full body as the response's one ``(head, offset, length)``
        part, precomputed so a plain hit allocates nothing for it.
    validated_at:
        ``time.monotonic()`` of the ``stat`` that produced or last
        confirmed this file state (the translation's stamp).
    hits:
        Number of requests served from this entry.
    """

    target: bytes
    path: str
    size: int
    mtime: float
    content_length: int
    header_keep: Optional[bytes] = None
    header_close: Optional[bytes] = None
    header_304_keep: Optional[bytes] = None
    header_304_close: Optional[bytes] = None
    etag: str = ""
    file_handle: Optional[object] = None
    chunks: Sequence = ()
    segments: Sequence = ()
    validated_at: float = field(default_factory=time.monotonic)
    hits: int = field(default=0, repr=False)
    parts: Sequence = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.parts = ((b"", 0, self.content_length),)

    def header(self, status: int, keep_alive: bool) -> Optional[bytes]:
        """The 200 or 304 header block for the given connection
        disposition; ``None`` when that variant is not composed yet."""
        return getattr(self, _HEADER_FIELDS[status, keep_alive])

    def file_header(self, status: int, keep_alive: bool, header: bytes) -> None:
        """Keep ``header`` as the 200 or 304 variant for the disposition."""
        setattr(self, _HEADER_FIELDS[status, keep_alive], header)


#: Which :class:`HotEntry` field holds the header for ``(status, keep_alive)``.
_HEADER_FIELDS = {
    (200, True): "header_keep",
    (200, False): "header_close",
    (304, True): "header_304_keep",
    (304, False): "header_304_close",
}


class HotResponseCache:
    """LRU cache of :class:`HotEntry` keyed on raw request-target bytes.

    Parameters
    ----------
    max_entries:
        Capacity; the least recently hit entry is released past it.  Every
        entry may pin one descriptor, so the owner should set this no
        higher than the descriptor budget it is willing to keep open
        (:class:`~repro.core.pipeline.ContentStore` clamps it to
        ``fd_cache_entries`` when zero-copy is active — pinned descriptors
        are exempt from the fd cache's own eviction, so this bound is what
        keeps total open descriptors finite).
    max_pinned_bytes:
        Budget for body bytes held alive through pinned mapped chunks
        (``0`` disables the bound — used when there is no chunk cache).
        Pinned chunks are exempt from the mapped-file cache's own byte
        budget, so without this bound a large hot set could hold mappings
        far past ``mmap_cache_bytes``.  Oversized single responses are
        simply not cached.
    revalidate_interval:
        Seconds an entry is trusted after its stamp; ``0`` re-checks
        every hit.
    release_fd, release_chunk:
        Callables that return a pinned descriptor / mapped chunk to its
        owning cache.  Supplied by :class:`~repro.core.pipeline.ContentStore`
        so this module needs no knowledge of the pipeline layer.
    on_change:
        Called with the path of a file a hit found changed.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_pinned_bytes: int = 0,
        revalidate_interval: float = DEFAULT_REVALIDATE_INTERVAL,
        release_fd: Optional[Callable] = None,
        release_chunk: Optional[Callable] = None,
        on_change: Optional[Callable[[str], None]] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_pinned_bytes < 0:
            raise ValueError("max_pinned_bytes must be non-negative")
        if revalidate_interval < 0:
            raise ValueError("revalidate_interval must be non-negative")
        self.max_entries = max_entries
        self.max_pinned_bytes = max_pinned_bytes
        self.revalidate_interval = revalidate_interval
        self._release_fd = release_fd
        self._release_chunk = release_chunk
        self._on_change = on_change
        self._entries: dict[bytes, HotEntry] = {}
        self._lru: LRUList[bytes] = LRUList()
        self._by_path: dict[str, set[bytes]] = {}
        self._pinned_bytes = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.invalidations = 0
        self.revalidations = 0

    @property
    def pinned_bytes(self) -> int:
        """Body bytes currently held alive through pinned mapped chunks."""
        return self._pinned_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, target: bytes) -> bool:
        return target in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from a precomposed entry."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- the hot path ---------------------------------------------------------

    def lookup(self, target: bytes) -> Optional[HotEntry]:
        """The single-lookup hot path: one dict probe, then transmit.

        Returns the entry, freshly validated, or ``None`` (miss or stale).
        """
        entry = self._entries.get(target)
        if entry is None:
            self.misses += 1
            return None
        now = time.monotonic()
        if now - entry.validated_at >= self.revalidate_interval:
            if not self._revalidate(entry, now):
                self.misses += 1
                return None
        self._lru.touch(target)
        self.hits += 1
        entry.hits += 1
        return entry

    def _revalidate(self, entry: HotEntry, now: float) -> bool:
        """Re-check the entry's file; drop and report it when it changed."""
        self.revalidations += 1
        if unchanged(entry.path, entry.size, entry.mtime):
            entry.validated_at = now
            return True
        self._drop(entry.target)
        if self._on_change is not None:
            self._on_change(entry.path)
        return False

    # -- population ------------------------------------------------------------

    def insert(self, entry: HotEntry) -> bool:
        """Insert (or replace) the entry for ``entry.target``.

        The caller has already pinned ``entry.file_handle`` and
        ``entry.chunks`` on the cache's behalf; this method takes ownership
        of those pins — releasing them immediately when the entry cannot be
        admitted (a chunk-pinning entry larger than the whole byte budget),
        or when the entry is later dropped.  Returns whether the entry was
        admitted.
        """
        pinned = entry.content_length if entry.chunks else 0
        if self.max_pinned_bytes and pinned > self.max_pinned_bytes:
            # Too large to ever fit the budget: caching it would just evict
            # the entire working set for one response.
            self._release_resources(entry)
            return False
        existing = self._entries.get(entry.target)
        if existing is not None:
            self._drop(entry.target)
        self._entries[entry.target] = entry
        self._lru.touch(entry.target)
        self._by_path.setdefault(entry.path, set()).add(entry.target)
        self._pinned_bytes += pinned
        self.insertions += 1
        while len(self._entries) > self.max_entries or (
            self.max_pinned_bytes and self._pinned_bytes > self.max_pinned_bytes
        ):
            coldest = self._lru.coldest()
            if coldest is None:  # pragma: no cover - lru tracks entries 1:1
                break
            self.evictions += 1
            self._drop(coldest)
        return True

    # -- invalidation ----------------------------------------------------------

    def invalidate_path(self, path: str) -> int:
        """Drop every entry serving ``path``; return how many were dropped.

        Wired to the descriptor and mapped-chunk caches' ``on_invalidate``
        hooks (and to the owner's changed-file fan-out), so an entry can
        never keep serving a file whose backing resources were invalidated.
        """
        targets = self._by_path.get(path)
        if not targets:
            return 0
        dropped = 0
        for target in list(targets):
            self._drop(target)
            dropped += 1
        return dropped

    def clear(self) -> None:
        """Release every entry (server shutdown, cache disable)."""
        for target in list(self._entries):
            self._drop(target)

    # -- internals ----------------------------------------------------------------

    def _drop(self, target: bytes) -> None:
        entry = self._entries.pop(target, None)
        if entry is None:
            return
        self.invalidations += 1
        self._lru.discard(target)
        targets = self._by_path.get(entry.path)
        if targets is not None:
            targets.discard(target)
            if not targets:
                del self._by_path[entry.path]
        if entry.chunks:
            self._pinned_bytes -= entry.content_length
        self._release_resources(entry)

    def _release_resources(self, entry: HotEntry) -> None:
        # Views first: they are exported from the chunks' mappings, and the
        # mapped-file cache cannot unmap a chunk while views are alive.
        entry.segments = ()
        chunks, entry.chunks = entry.chunks, ()
        if self._release_chunk is not None:
            for chunk in chunks:
                self._release_chunk(chunk)
        handle, entry.file_handle = entry.file_handle, None
        if handle is not None and self._release_fd is not None:
            self._release_fd(handle)

    def stats(self) -> dict:
        """Counter snapshot for reporting and tests."""
        return {
            "entries": len(self._entries),
            "pinned_bytes": self._pinned_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "revalidations": self.revalidations,
        }
