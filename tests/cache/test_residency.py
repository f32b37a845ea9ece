"""Unit tests for memory-residency testing (paper Section 5.7)."""

import errno
import mmap
import os
import time

import pytest

from repro.cache.residency import MincoreResidencyTester, SimulatedResidencyOracle


@pytest.fixture
def synced_fd(tmp_path):
    """A descriptor on a clean 256 KiB file."""
    path = tmp_path / "synced.bin"
    path.write_bytes(os.urandom(256 * 1024))
    fd = os.open(path, os.O_RDWR)
    os.fsync(fd)
    yield fd
    os.close(fd)


def probes_cold(tester, fd, length, offset=0, attempts=50):
    """Evict ``fd``'s pages, then probe the window: True once the probe
    reports it cold, False if it ever calls a cold window resident.

    Eviction is judged page by page with ``mincore`` over a mapping, which
    starts no I/O; the test skips when DONTNEED never empties the window
    (it can miss pages the kernel still holds in per-CPU batches, hence
    the retries).  The NOWAIT probe itself starts readahead, and a fast
    device may complete a one-page read before the probe looks: a true
    answer, told apart from a wrong one by the pages now being present.
    When every round ends that way, that is the outcome.
    """
    import repro.cache.residency as residency_module

    pages = range(offset - offset % mmap.PAGESIZE, offset + length, mmap.PAGESIZE)
    evicted = refilled = False
    for _ in range(attempts):
        os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
        if any(residency_module._mapped_resident(fd, 1, page) is not False for page in pages):
            time.sleep(0.02)
            continue
        evicted = True
        if tester.file_resident(fd, length, offset=offset) is False:
            return True
        if residency_module._mapped_resident(fd, length, offset) is not True:
            return False  # resident by the probe's word only
        refilled = True
    if not evicted:
        pytest.skip("POSIX_FADV_DONTNEED does not evict on this filesystem")
    return refilled


def count_preadv(monkeypatch):
    """Record the offset of every ``os.preadv`` call from here on."""
    offsets = []
    real = os.preadv

    def counting(fd, buffers, offset, *flags):
        offsets.append(offset)
        return real(fd, buffers, offset, *flags)

    monkeypatch.setattr(os, "preadv", counting)
    return offsets


def count_mmaps(monkeypatch):
    """Count the mapping objects the residency module creates from here on."""
    created = []
    real = mmap.mmap

    def counting(*args, **kwargs):
        created.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", counting)
    return created


class TestFileResident:
    """The fd-backed probe: ``preadv(RWF_NOWAIT)`` for every window, a
    transient mapping plus ``mincore`` only where the file refuses it."""

    def test_small_window_creates_no_mapping(self, synced_fd, monkeypatch):
        import repro.cache.residency as residency_module

        if residency_module._RWF_NOWAIT is None:
            pytest.skip("no preadv(RWF_NOWAIT) on this platform")
        created = count_mmaps(monkeypatch)
        tester = MincoreResidencyTester()
        limit = residency_module.NOWAIT_PROBE_BYTES
        assert tester.file_resident(synced_fd, limit) is True
        assert tester.file_resident(synced_fd, 100, offset=limit + 7) is True
        assert created == []
        assert tester.fallback_answers == 0

    def test_window_past_the_scratch_buffer_creates_no_mapping(self, synced_fd, monkeypatch):
        import repro.cache.residency as residency_module

        if residency_module._RWF_NOWAIT is None:
            pytest.skip("no preadv(RWF_NOWAIT) on this platform")
        created = count_mmaps(monkeypatch)
        calls = count_preadv(monkeypatch)
        tester = MincoreResidencyTester()
        size = os.fstat(synced_fd).st_size
        assert tester.file_resident(synced_fd, residency_module.NOWAIT_PROBE_BYTES + 1) is True
        assert tester.file_resident(synced_fd, size) is True
        assert tester.file_resident(synced_fd, 100_000, offset=size - 100_000) is True
        assert calls == [0, 0, size - 100_000]  # one system call per window
        assert created == []
        assert tester.fallback_answers == 0

    def test_window_spanning_several_calls(self, synced_fd, monkeypatch):
        import repro.cache.residency as residency_module

        if residency_module._RWF_NOWAIT is None:
            pytest.skip("no preadv(RWF_NOWAIT) on this platform")
        monkeypatch.setattr(residency_module, "_NOWAIT_SLICES_PER_CALL", 1)
        calls = count_preadv(monkeypatch)
        tester = MincoreResidencyTester()
        size = os.fstat(synced_fd).st_size
        step = residency_module.NOWAIT_PROBE_BYTES
        assert tester.file_resident(synced_fd, size) is True
        assert calls == list(range(0, size, step))
        # The last call comes up short: past the end of the file.
        assert tester.file_resident(synced_fd, size + 1) is False

    @pytest.mark.parametrize("size", [4096, 256 * 1024, 1024 * 1024])
    def test_evicted_file_is_not_resident_until_read(self, tmp_path, size):
        """Real eviction, no oracle: ``DONTNEED`` on a clean file turns
        every window cold; one read of a window warms that window."""
        path = tmp_path / "evict.bin"
        path.write_bytes(os.urandom(size))
        fd = os.open(path, os.O_RDWR)
        half = size // 2
        try:
            os.fsync(fd)
            tester = MincoreResidencyTester()
            assert probes_cold(tester, fd, size)
            assert probes_cold(tester, fd, size - half, offset=half)
            os.pread(fd, size, 0)
            assert tester.file_resident(fd, size) is True
            assert tester.file_resident(fd, size - half, offset=half) is True
            assert tester.fallback_answers == 0
        finally:
            os.close(fd)

    def test_unsupported_nowait_falls_back_to_mincore(self, synced_fd, monkeypatch):
        import repro.cache.residency as residency_module

        if residency_module._RWF_NOWAIT is None:
            pytest.skip("no preadv(RWF_NOWAIT) on this platform")

        def refuse(*_args):
            raise OSError(errno.EOPNOTSUPP, "injected: RWF_NOWAIT unsupported here")

        monkeypatch.setattr(os, "preadv", refuse)
        created = count_mmaps(monkeypatch)
        tester = MincoreResidencyTester()
        assert tester.file_resident(synced_fd, 2048) is True
        assert len(created) == 1
        # With mincore unreachable too, no probe can answer: the window
        # counts as resident.
        monkeypatch.setattr(residency_module, "_LIBC_MINCORE", None)
        assert tester.file_resident(synced_fd, 2048) is True
        assert tester.fallback_answers == 1

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

    def test_mincore_route_calls_an_evicted_window_cold(self, tmp_path, monkeypatch):
        """Where the file refuses ``RWF_NOWAIT`` the mapping probe answers,
        and it starts no I/O: an evicted window stays cold however often
        it is asked, until a read brings it in."""
        import repro.cache.residency as residency_module

        if residency_module._LIBC_MINCORE is None:
            pytest.skip("mincore unreachable on this platform")
        path = tmp_path / "evict.bin"
        path.write_bytes(os.urandom(64 * 1024))
        fd = os.open(path, os.O_RDWR)
        try:
            os.fsync(fd)
            for _ in range(50):
                os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
                if residency_module._mapped_resident(fd, 64 * 1024, 0) is False:
                    break
                time.sleep(0.02)
            else:
                pytest.skip("POSIX_FADV_DONTNEED does not evict on this filesystem")

            def refuse(*_args):
                raise OSError(errno.EOPNOTSUPP, "injected: RWF_NOWAIT unsupported here")

            monkeypatch.setattr(os, "preadv", refuse)
            tester = MincoreResidencyTester()
            assert [tester.file_resident(fd, 64 * 1024) for _ in range(3)] == [False] * 3
            os.pread(fd, 64 * 1024, 0)
            assert tester.file_resident(fd, 64 * 1024) is True
            assert tester.fallback_answers == 0
        finally:
            os.close(fd)

    def test_empty_window_is_resident(self, synced_fd):
        tester = MincoreResidencyTester()
        assert tester.file_resident(synced_fd, 0) is True
        assert tester.calls == 1 and tester.fallback_answers == 0

    def test_short_window_is_not_resident(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"x" * 100)
        fd = os.open(path, os.O_RDONLY)
        try:
            # Asked about bytes the file does not have: never "resident".
            assert MincoreResidencyTester().file_resident(fd, 4096) is False
        finally:
            os.close(fd)

    def test_negative_descriptor_is_never_mapped(self, monkeypatch):
        # mmap would turn fd -1 into an anonymous mapping: no probe runs,
        # and the window counts as resident.
        created = count_mmaps(monkeypatch)
        tester = MincoreResidencyTester()
        assert tester.file_resident(-1, 4096) is True
        assert created == []
        assert tester.fallback_answers == 1


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
