"""Memory-residency testing (paper Section 5.7).

Flash uses the ``mincore()`` system call to determine whether mapped file
pages are memory resident before sending them; if they are not, the request
is handed to a helper so the main process never blocks on a page fault.

This server never maps a body: every static body leaves from a pinned
descriptor.  So the residency question is asked of a descriptor window,
by :meth:`MincoreResidencyTester.file_resident`, with one ``cachestat(2)``
call (Linux 6.5 and later): the kernel counts the window's pages in the
page cache without a mapping, without a copy and without starting any
I/O, so an evicted window stays cold until someone reads it.  Like
``mincore``, the answer is page-granular, and a page whose read is still
in flight already counts as cached — the server answers "cold" for a
descriptor a helper is warming before it asks (``CachedFD.warming``).

Where the call cannot answer (an older kernel, another OS, a seccomp
filter), the content counts as resident (counted in ``fallback_answers``)
— the graceful degradation the paper notes for operating systems lacking
the call.  :class:`SimulatedResidencyOracle` scripts the answers for tests
and the simulation layer.
"""

from __future__ import annotations

import ctypes
import os
import sys
from typing import Optional, Protocol


class ResidencyTester(Protocol):
    """Interface shared by every residency tester."""

    def file_resident(self, fd: int, length: int, path: str = "", offset: int = 0) -> bool:
        """Residency of an fd-backed (non-mmapped) byte range.

        ``(offset, length)`` is the window the caller intends to transmit
        (a Range response probes only its own window).
        """
        ...


class _CachestatRange(ctypes.Structure):
    _fields_ = [("off", ctypes.c_uint64), ("len", ctypes.c_uint64)]


class _Cachestat(ctypes.Structure):
    _fields_ = [
        ("nr_cache", ctypes.c_uint64),
        ("nr_dirty", ctypes.c_uint64),
        ("nr_writeback", ctypes.c_uint64),
        ("nr_evicted", ctypes.c_uint64),
        ("nr_recently_evicted", ctypes.c_uint64),
    ]


#: ``cachestat``'s number in Linux's unified syscall table (x86-64, arm64
#: and every other architecture but alpha), as the C ``long`` that
#: ``syscall`` takes first.
_NR_CACHESTAT = ctypes.c_long(451)


def _load_syscall():
    """libc's ``syscall(number, ...)``, or None off Linux.

    It returns 0, or -1 with ``errno`` set.  Loaded through ``PyDLL``, so
    the call keeps the interpreter lock: ``cachestat`` never waits, and
    releasing the lock on AMPED's loop thread could hand it to a helper
    thread and leave the loop waiting to get it back.  No ``argtypes``:
    converting through them doubles the probe's cost (about 1 µs to 2 µs
    per call).  So every argument is passed in its C type: the number as
    a prebuilt ``c_long``, the descriptor and the flags as C ints
    (``cachestat`` takes ``unsigned int`` for both), the structs by
    reference.
    """
    if not sys.platform.startswith("linux"):
        return None
    try:
        syscall = ctypes.PyDLL(None).syscall
    except (OSError, AttributeError):  # pragma: no cover - depends on platform
        return None
    syscall.restype = ctypes.c_long
    return syscall


_syscall = _load_syscall()
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


class MincoreResidencyTester:
    """Tests page residency with the real system call (``cachestat``).

    The class keeps the paper's name for the role: ``cachestat`` asks the
    ``mincore`` question of a file instead of a mapping.  Its structs live
    on the instance, so one tester belongs to one thread (AMPED's loop is
    the only caller).  Where the call fails — ``ENOSYS``, a seccomp
    ``EPERM``, ``EBADF`` for a negative descriptor, ``EOPNOTSUPP`` — the
    tester reports resident, which corresponds to running Flash in its
    SPED-like fast path; every such answer is counted in
    :attr:`fallback_answers`.
    """

    def __init__(self):
        self.calls = 0
        self.fallback_answers = 0
        self._range = _CachestatRange()
        self._stat = _Cachestat()
        self._range_ref = ctypes.byref(self._range)
        self._stat_ref = ctypes.byref(self._stat)

    def file_resident(self, fd: int, length: int, path: str = "", offset: int = 0) -> bool:
        """Whether every page of the window ``[offset, offset+length)`` is cached.

        Page-granular: a window ending past end of file inside the file's
        last page reads resident (its send comes up short), one reaching a
        page beyond it reads cold.
        """
        self.calls += 1
        if length <= 0:
            return True
        if _syscall is not None:
            self._range.off = offset
            self._range.len = length
            if _syscall(_NR_CACHESTAT, fd, self._range_ref, self._stat_ref, 0) == 0:
                pages = (offset + length - 1) // _PAGE_SIZE - offset // _PAGE_SIZE + 1
                return self._stat.nr_cache == pages
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
