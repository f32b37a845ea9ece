"""Memory-residency testing (paper Section 5.7).

Flash uses the ``mincore()`` system call to determine whether mapped file
pages are memory resident before sending them; if they are not, the request
is handed to a helper so the main process never blocks on a page fault.

This server never maps a body: every static body leaves from a pinned
descriptor.  So the residency question is asked of a descriptor window,
by :meth:`MincoreResidencyTester.file_resident`: the window is read with
``preadv(RWF_NOWAIT)`` into a scratch buffer — the kernel copies only
pages that are cached and up to date and never waits for I/O, so a
full-length read *is* residency.  Kernels or filesystems that refuse
``RWF_NOWAIT`` get the paper's ``mincore`` over a *transient* private
mapping of the descriptor instead (``mmap`` itself faults no pages in),
unmapped immediately.

Where no probe can answer, the content counts as resident (counted in
``fallback_answers``) — the graceful degradation the paper notes for
operating systems lacking the call.  :class:`SimulatedResidencyOracle`
scripts the answers for tests and the simulation layer.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import mmap
import os
from typing import Optional, Protocol


class ResidencyTester(Protocol):
    """Interface shared by every residency tester."""

    def file_resident(self, fd: int, length: int, path: str = "", offset: int = 0) -> bool:
        """Residency of an fd-backed (non-mmapped) byte range.

        ``(offset, length)`` is the window the caller intends to transmit
        (a Range response probes only its own window).
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

#: Size of the scratch buffer the ``RWF_NOWAIT`` probe reads into.  A
#: larger window is read as that many slices of the one buffer, passed to
#: the kernel as one ``preadv`` vector.
NOWAIT_PROBE_BYTES = 64 * 1024

#: Slices per ``preadv`` call: far below ``IOV_MAX`` (1024 on Linux), so a
#: window of up to 16 MiB is one system call.
_NOWAIT_SLICES_PER_CALL = 256

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


def _nowait_resident(fd: int, length: int, offset: int) -> Optional[bool]:
    """Read the window with ``RWF_NOWAIT``; ``None`` when the file refuses it.

    ``EAGAIN`` (nothing cached at the start) or a short count (a missing
    page further on, or end of file) means not resident — stricter than
    ``mincore``, which also counts pages still being read in.
    """
    try:
        position, end = offset, offset + length
        while position < end:
            span = min(end - position, _NOWAIT_SLICES_PER_CALL * NOWAIT_PROBE_BYTES)
            full, tail = divmod(span, NOWAIT_PROBE_BYTES)
            slices = [_NOWAIT_SCRATCH] * full
            if tail:
                slices.append(_NOWAIT_SCRATCH[:tail])
            if os.preadv(fd, slices, position, _RWF_NOWAIT) != span:
                return False
            position += span
    except BlockingIOError:
        return False
    except OSError:
        return None  # EOPNOTSUPP and kin: this file cannot answer that way
    return True


def _mapped_resident(fd: int, length: int, offset: int) -> Optional[bool]:
    """``mincore`` over a transient private mapping of the window.

    Creating the mapping faults no pages in (``ACCESS_COPY`` only reserves
    address space), so ``mincore`` over it reflects the OS buffer cache
    state of the file itself; the mapping is dropped before returning.  It
    starts at ``offset`` rounded down to the allocation granularity
    (``mmap`` requires it), so a range probe inspects only its own window
    plus at most one page of lead-in.  ``None`` when the descriptor cannot
    be mapped or ``mincore`` cannot be reached.
    """
    if _LIBC_MINCORE is None:
        return None
    aligned = offset - (offset % mmap.ALLOCATIONGRANULARITY)
    span = length + (offset - aligned)
    try:
        # ACCESS_COPY (private, copy-on-write): Python treats the mapping
        # as writable, which lets ctypes take its address for mincore.
        probe = mmap.mmap(fd, span, access=mmap.ACCESS_COPY, offset=aligned)
    except (OSError, ValueError, OverflowError):
        return None
    try:
        return _mincore_over_buffer(probe, span)
    finally:
        probe.close()


class MincoreResidencyTester:
    """Tests page residency with the real system calls.

    Where a question cannot be answered — ``mincore`` unreachable through
    ``ctypes``, a descriptor that can neither be read with ``RWF_NOWAIT``
    nor mapped — the tester reports resident, which corresponds to running
    Flash in its SPED-like fast path; the paper notes the same graceful
    degradation for operating systems lacking the call.  Every such answer
    is counted in :attr:`fallback_answers`.
    """

    def __init__(self):
        self.calls = 0
        self.fallback_answers = 0

    def file_resident(self, fd: int, length: int, path: str = "", offset: int = 0) -> bool:
        """Probe residency of an fd-backed window of the file itself.

        ``preadv(RWF_NOWAIT)`` answers; the transient-mapping ``mincore``
        runs only where the kernel or filesystem refuses ``RWF_NOWAIT``.
        A negative descriptor is never mapped: ``mmap`` would silently
        turn it into an *anonymous* mapping (probing freshly allocated
        memory, not the file's cache state).
        """
        self.calls += 1
        if length <= 0:
            return True
        if fd >= 0:
            if _RWF_NOWAIT is not None:
                verdict = _nowait_resident(fd, length, offset)
                if verdict is not None:
                    return verdict
            verdict = _mapped_resident(fd, length, offset)
            if verdict is not None:
                return verdict
        self.fallback_answers += 1
        return True


class SimulatedResidencyOracle:
    """Residency tester driven by an explicit set of resident files.

    Tests and the simulation layer use this to script exactly which content
    is "in memory": a window is resident iff its file's path is in
    :attr:`resident_paths` (or everything, when ``default_resident`` is set).
    """

    def __init__(self, resident_paths: Optional[set] = None, default_resident: bool = False):
        self.resident_paths = set(resident_paths or ())
        self.default_resident = default_resident
        self.queries = 0

    def file_resident(self, fd: int, length: int, path: str = "", offset: int = 0) -> bool:
        """Scripted answer: resident iff the path is marked (or the default)."""
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
