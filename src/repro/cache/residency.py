"""Memory-residency testing (paper Section 5.7).

Flash uses the ``mincore()`` system call to determine whether mapped file
pages are memory resident before sending them; if they are not, the request
is handed to a read helper so the main process never blocks on a page fault.
Section 5.7 also sketches two fallbacks for systems without ``mincore``:
``mlock``-based cache control, and a feedback-based clock heuristic that
*predicts* which cached pages are resident using page-fault counters.

This module provides three interchangeable testers:

* :class:`MincoreResidencyTester` — the real thing, using ``mincore`` via
  ``mmap.madvise``-era interfaces where available and falling back to an
  optimistic answer elsewhere (documented below).
* :class:`ClockResidencyPredictor` — the feedback heuristic: a clock over
  recently touched chunks sized by an estimate of available file-cache
  memory, adapted with fault feedback.
* :class:`SimulatedResidencyOracle` — used by tests and by the simulation
  layer, where residency is defined by the simulated OS buffer cache.

Every tester also answers the *fd-backed* residency query
(``file_resident``) used by the zero-copy send path: a ``sendfile``
response never maps the file, so there is no :class:`MappedChunk` to hand
to ``is_resident``.  ``MincoreResidencyTester`` answers a window of up to
``NOWAIT_PROBE_BYTES`` with one ``preadv(RWF_NOWAIT)`` into a scratch
buffer: the kernel copies only pages that are cached and up to date and
never waits for I/O, so a full-length read *is* residency.  Larger windows
(and kernels or filesystems without ``RWF_NOWAIT``) build a *transient*
private mapping of the descriptor — ``mmap`` itself faults no pages in, so
``mincore`` over the fresh mapping reports the buffer cache state — and
unmap it immediately.  Where that too is impossible it returns ``None``
("cannot tell"), and the caller falls back to the clock predictor, which
tracks fd-backed files with the same synthetic chunk keys the mapped path
uses.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import mmap
import os
from typing import Optional, Protocol, TYPE_CHECKING

from repro.cache.lru import LRUList

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.cache.mapped_file import MappedChunk


#: Chunk granularity the clock predictor uses to track fd-backed files; it
#: matches the mapped-file cache's default chunk size so a file served via
#: both routes is accounted once, not twice.
FD_TRACKING_CHUNK = 64 * 1024


class ResidencyTester(Protocol):
    """Interface shared by every residency tester."""

    def is_resident(self, chunk: "MappedChunk") -> bool:
        """Return True when all of ``chunk``'s pages are memory resident."""
        ...

    def file_resident(
        self, fd: int, length: int, path: str = "", offset: int = 0
    ) -> Optional[bool]:
        """Residency of an fd-backed (non-mmapped) byte range.

        ``(offset, length)`` is the window the caller intends to transmit
        (a Range response probes only its own window).  Returns True/False
        when the tester can answer, or ``None`` when it cannot (the caller
        should then consult the clock predictor).
        """
        ...


def _load_libc_mincore():
    """Locate the C library's ``mincore`` symbol, or None when unavailable."""
    try:
        libc_name = ctypes.util.find_library("c")
        if not libc_name:
            return None
        libc = ctypes.CDLL(libc_name, use_errno=True)
        return getattr(libc, "mincore", None)
    except OSError:  # pragma: no cover - depends on platform
        return None


_LIBC_MINCORE = _load_libc_mincore()
_PAGE_SIZE = mmap.PAGESIZE

#: Largest fd-backed window probed with ``preadv(RWF_NOWAIT)``.  The probe
#: copies the window, so it is for the small files that dominate request
#: counts; past this a mapping plus ``mincore`` (no copy) is the cheaper
#: question.
NOWAIT_PROBE_BYTES = 64 * 1024

#: Where the probe's bytes land.  Never read, so every caller (MT workers
#: included) may scribble over it at once.
_NOWAIT_SCRATCH = memoryview(bytearray(NOWAIT_PROBE_BYTES))
_RWF_NOWAIT = getattr(os, "RWF_NOWAIT", None) if hasattr(os, "preadv") else None


def _mincore_over_buffer(data, length: int) -> Optional[bool]:
    """Run ``mincore`` over ``length`` bytes of a writable buffer.

    Returns True when every page is resident, False when any is missing,
    and ``None`` when the system call cannot be reached (no libc symbol, a
    read-only buffer that ctypes cannot address, or a failing call).
    """
    if _LIBC_MINCORE is None or length <= 0:
        return None
    pages = (length + _PAGE_SIZE - 1) // _PAGE_SIZE
    vec = (ctypes.c_ubyte * pages)()
    try:
        address = ctypes.addressof(ctypes.c_char.from_buffer(data))
    except (TypeError, ValueError):
        return None
    result = _LIBC_MINCORE(ctypes.c_void_p(address), ctypes.c_size_t(length), vec)
    if result != 0:
        return None
    return all(byte & 1 for byte in vec)


class MincoreResidencyTester:
    """Tests page residency with the real ``mincore(2)`` system call.

    On platforms where ``mincore`` cannot be reached through ``ctypes`` the
    tester degrades to reporting every chunk resident, which corresponds to
    running Flash in its SPED-like fast path; the paper notes the same
    graceful degradation for operating systems lacking the call.  The
    ``optimistic_fallback`` flag can be set to False to instead report
    non-resident, forcing helper usage.
    """

    def __init__(self, optimistic_fallback: bool = True):
        self.optimistic_fallback = optimistic_fallback
        self.calls = 0
        self.fallback_answers = 0

    @property
    def available(self) -> bool:
        """Whether the real system call is reachable on this platform."""
        return _LIBC_MINCORE is not None

    def is_resident(self, chunk: "MappedChunk") -> bool:
        self.calls += 1
        data = chunk.data
        if not isinstance(data, mmap.mmap) or chunk.length == 0:
            return True
        verdict = _mincore_over_buffer(data, chunk.length)
        if verdict is None:
            # No reachable mincore, or a read-only mapping ctypes cannot
            # address: degrade to the configured optimistic/pessimistic
            # answer, as on platforms without the system call.
            self.fallback_answers += 1
            return self.optimistic_fallback
        return verdict

    def file_resident(
        self, fd: int, length: int, path: str = "", offset: int = 0
    ) -> Optional[bool]:
        """Probe residency of an fd-backed window of the file itself.

        A window that fits the scratch buffer is read with
        ``preadv(RWF_NOWAIT)``: one system call that returns only bytes
        already cached and up to date and raises ``BlockingIOError``
        rather than wait — stricter than ``mincore``, which also counts
        pages still being read in.  A short count means part of the window
        is missing (or past end of file): not resident.

        Anything else takes a transient mapping: creating it faults no
        pages in (``ACCESS_COPY`` only reserves address space), so
        ``mincore`` over it reflects the OS buffer cache state of the file
        itself; the mapping is dropped before returning.  The mapping
        starts at ``offset`` rounded down to the allocation granularity
        (``mmap`` requires it), so a range probe inspects only its own
        window plus at most one page of lead-in.  Returns ``None`` when
        the probe is impossible (no ``mincore``, unmappable descriptor,
        empty range) so the caller can fall back to the clock predictor.
        """
        self.calls += 1
        if length <= 0:
            return True
        if _RWF_NOWAIT is not None and length <= NOWAIT_PROBE_BYTES and fd >= 0:
            try:
                # Never waits for the disk: cached bytes, or EAGAIN.
                got = os.preadv(fd, [_NOWAIT_SCRATCH[:length]], offset, _RWF_NOWAIT)
                return got == length
            except BlockingIOError:
                return False
            except OSError:
                pass  # EOPNOTSUPP and kin: this file cannot answer that way
        if _LIBC_MINCORE is None or fd < 0:
            # No reachable mincore — or a negative descriptor, which mmap
            # would silently turn into an *anonymous* mapping (probing
            # freshly allocated memory, not the file's cache state).
            self.fallback_answers += 1
            return None
        aligned = offset - (offset % mmap.ALLOCATIONGRANULARITY)
        span = length + (offset - aligned)
        try:
            # ACCESS_COPY (private, copy-on-write) for the same reason the
            # mapped-file cache uses it: Python treats the mapping as
            # writable, which lets ctypes take its address for mincore.
            probe = mmap.mmap(fd, span, access=mmap.ACCESS_COPY, offset=aligned)
        except (OSError, ValueError, OverflowError):
            self.fallback_answers += 1
            return None
        try:
            verdict = _mincore_over_buffer(probe, span)
        finally:
            probe.close()
        if verdict is None:
            self.fallback_answers += 1
        return verdict


class ClockResidencyPredictor:
    """Feedback-based clock heuristic from Section 5.7.

    For operating systems with neither ``mincore`` nor ``mlock``, Flash can
    run the clock algorithm itself to *predict* which cached file pages are
    memory resident, adapting the amount of memory it assumes is available to
    the file cache using feedback from page-fault counters.

    The predictor tracks recently used chunks in an LRU list bounded by an
    estimate of the file-cache size.  Chunks inside the estimated resident
    set are predicted resident.  Feedback arrives through
    :meth:`record_fault` (a predicted-resident page actually faulted: shrink
    the estimate) and :meth:`record_idle_capacity` (disk stayed idle: grow
    the estimate), mirroring the continuous-feedback loop the paper sketches.
    """

    def __init__(
        self,
        estimated_cache_bytes: int = 64 * 1024 * 1024,
        min_cache_bytes: int = 1024 * 1024,
        max_cache_bytes: int = 1024 * 1024 * 1024,
        shrink_factor: float = 0.9,
        grow_factor: float = 1.05,
        fd_chunk_bytes: int = FD_TRACKING_CHUNK,
    ):
        if estimated_cache_bytes <= 0:
            raise ValueError("estimated_cache_bytes must be positive")
        if fd_chunk_bytes <= 0:
            raise ValueError("fd_chunk_bytes must be positive")
        #: Granularity at which fd-backed files are tracked.  Must match
        #: the mapped-file cache's chunk size so a file served via both
        #: routes shares one set of clock entries (the default matches
        #: the mapped cache's default chunk size).
        self.fd_chunk_bytes = fd_chunk_bytes
        self.estimated_cache_bytes = float(estimated_cache_bytes)
        self.min_cache_bytes = float(min_cache_bytes)
        self.max_cache_bytes = float(max_cache_bytes)
        self.shrink_factor = shrink_factor
        self.grow_factor = grow_factor
        self._recent: LRUList[tuple] = LRUList()
        self._sizes: dict[tuple, int] = {}
        self._tracked_bytes = 0
        self.faults = 0
        self.predictions = 0

    def is_resident(self, chunk: "MappedChunk") -> bool:
        self.predictions += 1
        key = (chunk.key.path, chunk.key.index)
        resident = key in self._recent
        self._touch(key, chunk.length)
        return resident

    def file_resident(
        self, fd: int, length: int, path: str = "", offset: int = 0
    ) -> Optional[bool]:
        """Predict residency for an fd-backed window from the clock state.

        The file is tracked at the same chunk granularity as the mapped
        path (synthetic ``(path, index)`` keys over :attr:`fd_chunk_bytes`
        — configure it to the mapped cache's chunk size), so a file
        alternating between mapped and ``sendfile`` service is one set of
        clock entries, not two.  Only the chunks the ``(offset, length)``
        window intersects are consulted and touched — a Range response
        neither depends on nor keeps alive the rest of the file.  The
        descriptor is unused — the heuristic never inspects real pages;
        ``path`` is the identity.  Always answers (never ``None``): this
        predictor *is* the fallback of last resort.
        """
        self.predictions += 1
        if length <= 0:
            return True
        granularity = self.fd_chunk_bytes
        end = offset + length
        first = offset // granularity
        last = (end - 1) // granularity
        resident = True
        for index in range(first, last + 1):
            key = (path, index)
            if key not in self._recent:
                resident = False
            chunk_length = min(granularity, end - index * granularity)
            self._touch(key, chunk_length)
        return resident

    def record_fault(self, chunk: "MappedChunk") -> None:
        """Report that a predicted-resident chunk actually caused disk I/O."""
        self.faults += 1
        self.estimated_cache_bytes = max(
            self.min_cache_bytes, self.estimated_cache_bytes * self.shrink_factor
        )
        self._trim()

    def record_idle_capacity(self) -> None:
        """Report that the disk was idle; the cache estimate can grow."""
        self.estimated_cache_bytes = min(
            self.max_cache_bytes, self.estimated_cache_bytes * self.grow_factor
        )

    def _touch(self, key: tuple, length: int) -> None:
        if key not in self._recent:
            self._sizes[key] = length
            self._tracked_bytes += length
        self._recent.touch(key)
        self._trim()

    def _trim(self) -> None:
        while self._tracked_bytes > self.estimated_cache_bytes and len(self._recent):
            victim = self._recent.pop_coldest()
            self._tracked_bytes -= self._sizes.pop(victim, 0)


class SimulatedResidencyOracle:
    """Residency tester driven by an explicit set of resident files.

    Tests and the simulation layer use this to script exactly which content
    is "in memory": a chunk is resident iff its path is in
    :attr:`resident_paths` (or everything, when ``default_resident`` is set).
    """

    def __init__(self, resident_paths: Optional[set] = None, default_resident: bool = False):
        self.resident_paths = set(resident_paths or ())
        self.default_resident = default_resident
        self.queries = 0

    def is_resident(self, chunk: "MappedChunk") -> bool:
        self.queries += 1
        if chunk.key.path in self.resident_paths:
            return True
        return self.default_resident

    def file_resident(
        self, fd: int, length: int, path: str = "", offset: int = 0
    ) -> Optional[bool]:
        """Scripted answer for fd-backed queries: same rule as chunks."""
        self.queries += 1
        if path in self.resident_paths:
            return True
        return self.default_resident

    def mark_resident(self, path: str) -> None:
        """Record that ``path`` is now cached in (simulated) memory."""
        self.resident_paths.add(path)

    def mark_evicted(self, path: str) -> None:
        """Record that ``path`` left the (simulated) memory cache."""
        self.resident_paths.discard(path)
