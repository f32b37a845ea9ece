"""Unit tests for memory-residency testing (paper Section 5.7)."""

import os
import time

import pytest

import repro.cache.residency as residency_module
from repro.cache.residency import MincoreResidencyTester, SimulatedResidencyOracle

PAGE = residency_module._PAGE_SIZE


@pytest.fixture
def synced_fd(tmp_path):
    """A descriptor on a clean 256 KiB file."""
    path = tmp_path / "synced.bin"
    path.write_bytes(os.urandom(256 * 1024))
    fd = os.open(path, os.O_RDWR)
    os.fsync(fd)
    yield fd
    os.close(fd)


def assert_stays_cold_until_read(tester, fd, length, offset=0, attempts=50):
    """Evict ``fd``'s pages until the probe reads the window cold, then
    check that asking again starts no I/O: the window stays cold across
    20 probes, and one ``pread`` of it makes it resident.

    The test skips when DONTNEED never empties the window (it can miss
    pages the kernel still holds in per-CPU batches, hence the retries).
    """
    for _ in range(attempts):
        os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
        if tester.file_resident(fd, length, offset=offset) is False:
            break
        time.sleep(0.02)
    else:
        pytest.skip("POSIX_FADV_DONTNEED does not evict on this filesystem")
    assert [tester.file_resident(fd, length, offset=offset) for _ in range(20)] == [False] * 20
    os.pread(fd, length, offset)
    assert tester.file_resident(fd, length, offset=offset) is True


def count_probes(monkeypatch):
    """Record the window of every ``cachestat`` call from here on."""
    windows = []
    real = residency_module._syscall

    def counting(number, fd, window, stat, flags):
        windows.append((window._obj.off, window._obj.len))
        return real(number, fd, window, stat, flags)

    monkeypatch.setattr(residency_module, "_syscall", counting)
    return windows


class TestFileResident:
    """The fd-backed probe: one ``cachestat`` per window, which counts the
    window's cached pages and reads nothing."""

    @pytest.mark.cachestat
    def test_one_call_per_window_whatever_its_size(self, synced_fd, monkeypatch):
        windows = count_probes(monkeypatch)
        tester = MincoreResidencyTester()
        size = os.fstat(synced_fd).st_size
        assert tester.file_resident(synced_fd, 2048) is True
        assert tester.file_resident(synced_fd, size) is True
        assert tester.file_resident(synced_fd, 100_000, offset=size - 100_000) is True
        assert windows == [(0, 2048), (0, size), (size - 100_000, 100_000)]
        assert tester.fallback_answers == 0

    @pytest.mark.cachestat
    @pytest.mark.parametrize("size", [4096, 256 * 1024, 1024 * 1024])
    def test_evicted_file_is_not_resident_until_read(self, tmp_path, size):
        """Real eviction, no oracle: ``DONTNEED`` on a clean file turns
        every window cold, probing it keeps it cold, and one read of a
        window warms that window."""
        path = tmp_path / "evict.bin"
        path.write_bytes(os.urandom(size))
        fd = os.open(path, os.O_RDWR)
        half = size // 2
        try:
            os.fsync(fd)
            tester = MincoreResidencyTester()
            assert_stays_cold_until_read(tester, fd, size)
            assert_stays_cold_until_read(tester, fd, size - half, offset=half)
            assert tester.fallback_answers == 0
        finally:
            os.close(fd)

    @pytest.mark.cachestat
    def test_freshly_written_file_is_resident(self, tmp_path):
        """Dirty pages not yet written back are in memory too."""
        path = tmp_path / "fresh.bin"
        path.write_bytes(os.urandom(128 * 1024))
        fd = os.open(path, os.O_RDONLY)
        try:
            tester = MincoreResidencyTester()
            assert tester.file_resident(fd, 128 * 1024) is True
            assert tester.file_resident(fd, 4096, offset=64 * 1024) is True
            assert tester.fallback_answers == 0
        finally:
            os.close(fd)

    @pytest.mark.cachestat
    def test_short_window_is_not_resident(self, tmp_path):
        """Residency is page-granular, as ``mincore``'s always was: a
        window reaching a page past the end of a 100-byte file reads cold,
        one ending inside its only page reads resident (its send comes up
        short)."""
        path = tmp_path / "short.bin"
        path.write_bytes(b"x" * 100)
        fd = os.open(path, os.O_RDONLY)
        try:
            tester = MincoreResidencyTester()
            assert tester.file_resident(fd, 2 * PAGE) is False
            assert tester.file_resident(fd, PAGE) is True
            assert tester.fallback_answers == 0
        finally:
            os.close(fd)

    def test_empty_window_is_resident(self, synced_fd):
        tester = MincoreResidencyTester()
        assert tester.file_resident(synced_fd, 0) is True
        assert tester.calls == 1 and tester.fallback_answers == 0

    def test_negative_descriptor_is_never_mapped(self):
        # Nothing is mapped, and EBADF (or no cachestat at all) answers by
        # fallback: the window counts as resident.
        tester = MincoreResidencyTester()
        assert tester.file_resident(-1, 4096) is True
        assert tester.fallback_answers == 1

    def test_failing_or_missing_call_answers_resident(self, synced_fd, monkeypatch):
        """``ENOSYS`` before Linux 6.5, ``EPERM`` from a seccomp filter, or
        no ``syscall`` at all: no probe can answer, so the window counts as
        resident — the paper's graceful degradation."""
        tester = MincoreResidencyTester()
        monkeypatch.setattr(residency_module, "_syscall", lambda *_args: -1)
        assert tester.file_resident(synced_fd, 2048) is True
        monkeypatch.setattr(residency_module, "_syscall", None)
        assert tester.file_resident(synced_fd, 2048) is True
        assert tester.fallback_answers == 2


class TestSimulatedResidencyOracle:
    def test_scripted_residency(self):
        oracle = SimulatedResidencyOracle(resident_paths={"/f"})
        assert oracle.file_resident(3, 10, path="/f") is True
        oracle.mark_evicted("/f")
        assert oracle.file_resident(3, 10, path="/f") is False
        oracle.mark_resident("/f")
        assert oracle.file_resident(3, 10, path="/f") is True
        assert oracle.queries == 3

    def test_default_answer(self):
        assert SimulatedResidencyOracle(default_resident=True).file_resident(3, 10, path="/f")
        assert not SimulatedResidencyOracle(default_resident=False).file_resident(
            3, 10, path="/f"
        )
