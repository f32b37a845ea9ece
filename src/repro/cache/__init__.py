"""Flash's application-level caches (paper Sections 5.2-5.4, 5.7).

Three caches are maintained by the Flash server:

* the **pathname translation cache** (:mod:`repro.cache.pathname`), mapping
  requested URLs to actual files on disk so the translation helpers are not
  needed for every request;
* the **response header cache** (:mod:`repro.cache.response_header`), storing
  pre-built HTTP response headers keyed by the underlying file's size and
  mtime, so a changed file never matches a stale header;
* the **mapped file cache**, which the live server realizes as a cache of
  open descriptors (:mod:`repro.cache.mapped_file`): every static body
  leaves from a pinned descriptor by ``sendfile`` (or bounded positional
  reads), so frequently requested content pays no open, no map and no
  copy.  The paper's chunk cache is reproduced in :mod:`repro.sim`.

:mod:`repro.cache.hot_response` unifies all of the above behind one probe:
a **hot-response cache** keyed on the raw request-target bytes, whose
entries hold the validated translation, precomposed header variants and
the pinned descriptor — the single-lookup fast path for repeated static
GETs.

:mod:`repro.cache.residency` provides the Section 5.7 memory-residency test
over descriptor windows: one ``cachestat(2)`` per window, which counts its
cached pages and reads nothing.
:mod:`repro.cache.lru` provides the generic LRU machinery shared by all of
the above and by the simulator's OS buffer cache.
"""

from repro.cache.hot_response import HotEntry, HotResponseCache
from repro.cache.lru import LRUCache, LRUList
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
    "ResidencyTester",
    "MincoreResidencyTester",
    "SimulatedResidencyOracle",
]
