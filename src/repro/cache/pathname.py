"""Pathname translation cache (paper Section 5.2).

The pathname translation cache maintains mappings between requested
filenames (e.g. ``/~bob/``) and actual files on disk (e.g.
``/home/users/bob/public_html/index.html``).  It lets Flash avoid invoking
the pathname translation helpers for every incoming request, reducing both
per-request processing and the number of helper processes the server needs;
the memory spent on the cache is recovered by the reduction in helper
processes.

Entries record the translated path along with the file's size and
modification time (obtained during the "Find file" step), because the
response header cache and the descriptor cache key off the same metadata.
Every tier shares one freshness rule: an entry is trusted for
``revalidate_interval`` seconds after its ``validated_at`` stamp, then
re-checked with :func:`unchanged`; a change drops it and ``on_invalidate``
fans out to the other tiers.  The response-header cache needs no hook
(Section 5.3): its key carries the size and mtime.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cache.lru import LRUCache
from repro.http.response import make_etag

#: Default entry limit used by the paper's evaluation for the full Flash
#: configuration (Section 6: "a pathname cache limit of 6000 entries").
DEFAULT_MAX_ENTRIES = 6000


def unchanged(path: str, size: int, mtime: float) -> bool:
    """Whether ``path`` still has ``size`` and ``mtime``: every tier's one
    freshness check.  A vanished file has changed."""
    try:
        stat = os.stat(path)
    except OSError:
        return False
    return stat.st_size == size and stat.st_mtime == mtime


@dataclass(slots=True)
class PathnameEntry:
    """A cached URL-to-file translation.

    Attributes
    ----------
    uri:
        The normalized request path that was translated.
    filesystem_path:
        Absolute path of the file that serves this URI.
    size:
        File size in bytes at translation time.
    mtime:
        File modification time at translation time.
    mtime_ns:
        Modification time in integer nanoseconds (``stat.st_mtime_ns``),
        the second ingredient of the strong entity-tag minted at
        translation time.  ``0`` (legacy constructors) falls back to a
        value derived from ``mtime``.
    etag:
        The strong entity-tag for the file state this entry validated,
        minted once at construction from ``(size, mtime_ns)`` — see
        :func:`repro.http.response.make_etag`.  Every translation site
        records ``st_mtime_ns``, so the tag is identical no matter which
        architecture (or helper) performed the translation; the
        float-derived fallback only serves tests that construct entries
        by hand.
    validated_at:
        ``time.monotonic()`` of the ``stat`` that produced or last
        confirmed this state; ``0.0`` (built by hand) is re-checked on use.
    """

    uri: str
    filesystem_path: str
    size: int
    mtime: float
    mtime_ns: int = 0
    etag: str = field(init=False, compare=False)
    validated_at: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        self.etag = make_etag(self.size, self.mtime_ns or int(self.mtime * 1_000_000_000))

    @classmethod
    def from_stat(cls, uri: str, path: str, stat: os.stat_result) -> "PathnameEntry":
        """The entry for ``uri`` -> ``path`` as ``stat`` found the file."""
        return cls(
            uri=uri,
            filesystem_path=path,
            size=stat.st_size,
            mtime=stat.st_mtime,
            mtime_ns=stat.st_mtime_ns,
            validated_at=time.monotonic(),
        )


class PathnameCache:
    """LRU cache of URL to filesystem-path translations.

    Parameters
    ----------
    translate:
        The (potentially blocking) translation function, typically
        :func:`repro.http.uri.resolve_path` bound to a document root.  It
        must return the translated absolute path and the ``stat`` result it
        validated the file with.
    max_entries:
        Capacity of the cache.
    on_invalidate:
        Callback invoked with the URI and entry whenever a translation is
        found stale or dropped explicitly; the content store wires it to
        the fan-out that invalidates the file in every tier.
    revalidate_interval:
        Seconds a translation is trusted after its stamp; ``0`` re-checks
        every use.
    """

    def __init__(
        self,
        translate: Callable[[str], tuple[str, os.stat_result]],
        max_entries: int = DEFAULT_MAX_ENTRIES,
        on_invalidate: Optional[Callable[[str, PathnameEntry], None]] = None,
        revalidate_interval: float = 0.0,
    ):
        self._translate = translate
        self._cache: LRUCache[str, PathnameEntry] = LRUCache(max_entries=max_entries)
        self._on_invalidate = on_invalidate
        self.revalidate_interval = revalidate_interval
        self.revalidations = 0

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, uri: str) -> bool:
        return uri in self._cache

    @property
    def hits(self) -> int:
        """Number of lookups satisfied without invoking the translator."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Number of lookups that required a translation."""
        return self._cache.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit the cache."""
        return self._cache.hit_rate

    def lookup(self, uri: str) -> PathnameEntry:
        """Return the fresh translation for ``uri``, translating on a miss
        or a stale hit (see :meth:`lookup_cached`).

        Any exception raised by the translation function (``NotFoundError``
        and friends) propagates to the caller; negative results are not
        cached, matching the original server (a cache of valid URLs only).
        """
        entry = self.lookup_cached(uri)
        if entry is None:
            entry = PathnameEntry.from_stat(uri, *self._translate(uri))
            self._cache.put(uri, entry)
        return entry

    def lookup_cached(self, uri: str) -> Optional[PathnameEntry]:
        """Return the fresh cached translation for ``uri``, or ``None``.

        The AMPED loop's lookup (a miss goes to a helper).  An expired hit
        pays one inline :func:`unchanged`; a changed file is invalidated
        and answers ``None``.  Hits and misses count like :meth:`lookup`'s,
        so the hit rate means the same thing on every architecture.
        """
        entry = self._cache.get(uri)
        if entry is None:
            return None
        now = time.monotonic()
        if now - entry.validated_at < self.revalidate_interval:
            return entry
        if unchanged(entry.filesystem_path, entry.size, entry.mtime):
            entry.validated_at = now
            return entry
        self.revalidations += 1
        self.invalidate(uri)
        return None

    def insert(self, entry: PathnameEntry) -> None:
        """Insert a translation produced elsewhere (by an AMPED helper).

        The AMPED server's translation helpers reply with completed
        :class:`PathnameEntry` objects; the main loop records them here so
        subsequent requests for the same URI hit the cache.
        """
        self._cache.put(entry.uri, entry)

    def invalidate(self, uri: str) -> None:
        """Explicitly drop the translation for ``uri`` (and notify dependents)."""
        entry = self._cache.remove(uri)
        if entry is not None and self._on_invalidate is not None:
            self._on_invalidate(uri, entry)

    def invalidate_path(self, path: str) -> None:
        """Drop every translation to ``path`` without notifying (a scan,
        run by the owner's fan-out on the rare changed file)."""
        for uri in self._cache.keys():
            if self._cache.peek(uri).filesystem_path == path:
                self._cache.remove(uri)

    def clear(self) -> None:
        """Drop every translation."""
        self._cache.clear()
