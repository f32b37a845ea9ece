"""Response header cache (paper Section 5.3).

HTTP servers prepend file data with a response header containing information
about the file and the server; because the header depends only on the
underlying file (its size, modification time and type) it can be cached and
reused when the same file is repeatedly requested.

The cache deliberately has no invalidation mechanism of its own: the
pathname-translation (mapping) cache detects when a cached file has changed
and the corresponding header is simply regenerated, exactly as Section 5.3
describes: the key carries the file's size and mtime, so a fresh
translation misses and old headers age out of the LRU.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.lru import LRUCache
from repro.http.mime import guess_mime_type
from repro.http.response import ResponseHeader, ResponseHeaderBuilder

#: Default number of cached headers; headers are small (a few hundred bytes)
#: so the paper does not bound this cache separately from the pathname cache.
DEFAULT_MAX_ENTRIES = 6000


class ResponseHeaderCache:
    """Caches pre-built 200-OK response headers keyed by file identity.

    The key is ``(path, size, mtime, keep_alive, etag, cache_max_age)``: if
    any of those change
    the lookup naturally misses and a fresh header is built, so staleness can
    only arise through the pathname cache holding a stale size/mtime — which
    is exactly the condition the shared freshness rule re-checks.
    """

    def __init__(
        self,
        builder: Optional[ResponseHeaderBuilder] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ):
        self.builder = builder or ResponseHeaderBuilder()
        self._cache: LRUCache[tuple, ResponseHeader] = LRUCache(max_entries=max_entries)

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def hits(self) -> int:
        """Number of lookups that reused a cached header."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Number of lookups that had to build a header."""
        return self._cache.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit the cache."""
        return self._cache.hit_rate

    def get(
        self,
        path: str,
        size: int,
        mtime: float,
        *,
        keep_alive: bool = False,
        etag: Optional[str] = None,
        cache_max_age: Optional[int] = None,
    ) -> ResponseHeader:
        """Return a 200 response header for the file, building it on a miss.

        ``etag`` is the strong validator minted at translation time; it is
        derived from the same ``(size, mtime)`` identity the key carries,
        so a changed tag always changes the key and the lookup naturally
        misses.  Static 200s advertise ``Accept-Ranges: bytes`` — this
        cache only ever serves the static pipeline.  ``cache_max_age``
        rides in the key so reconfiguring the freshness lifetime can never
        resurrect a header built under the old one.
        """
        key = (path, size, mtime, keep_alive, etag, cache_max_age)
        header = self._cache.get(key)
        if header is not None:
            return header
        header = self.builder.build(
            200,
            content_length=size,
            content_type=guess_mime_type(path),
            last_modified=mtime,
            keep_alive=keep_alive,
            etag=etag,
            accept_ranges=True,
            cache_max_age=cache_max_age,
        )
        self._cache.put(key, header)
        return header

    def clear(self) -> None:
        """Drop every cached header."""
        self._cache.clear()
