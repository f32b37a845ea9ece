"""Flash's application-level caches (paper Sections 5.2-5.4, 5.7).

Three caches are maintained by the Flash server:

* the **pathname translation cache** (:mod:`repro.cache.pathname`), mapping
  requested URLs to actual files on disk so the translation helpers are not
  needed for every request;
* the **response header cache** (:mod:`repro.cache.response_header`), storing
  pre-built HTTP response headers keyed by the underlying file, invalidated
  when the mapping cache notices the file changed;
* the **mapped file cache** (:mod:`repro.cache.mapped_file`), retaining
  memory-mapped chunks of files in an LRU free list so frequently requested
  content avoids repeated map/unmap system calls.

:mod:`repro.cache.hot_response` unifies all of the above behind one probe:
a **hot-response cache** keyed on the raw request-target bytes, whose
entries hold the validated translation, precomposed header variants and
pinned body resources — the single-lookup fast path for repeated static
GETs.

:mod:`repro.cache.residency` provides the Section 5.7 memory-residency test:
``mincore`` over mapped chunks, ``preadv(RWF_NOWAIT)`` over descriptor windows.
:mod:`repro.cache.lru` provides the generic LRU machinery shared by all of
the above and by the simulator's OS buffer cache.
"""

from repro.cache.hot_response import HotEntry, HotResponseCache
from repro.cache.lru import LRUCache, LRUList
from repro.cache.mapped_file import ChunkKey, MappedFileCache, MappedChunk
from repro.cache.pathname import PathnameCache, PathnameEntry
from repro.cache.residency import (
    MincoreResidencyTester,
    ResidencyTester,
    SimulatedResidencyOracle,
)
from repro.cache.response_header import ResponseHeaderCache

__all__ = [
    "HotEntry",
    "HotResponseCache",
    "LRUCache",
    "LRUList",
    "PathnameCache",
    "PathnameEntry",
    "ResponseHeaderCache",
    "MappedFileCache",
    "MappedChunk",
    "ChunkKey",
    "ResidencyTester",
    "MincoreResidencyTester",
    "SimulatedResidencyOracle",
]
