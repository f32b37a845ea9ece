"""Unit tests for memory-residency testing (paper Section 5.7)."""

import errno
import mmap
import os

import pytest

from repro.cache.mapped_file import MappedFileCache
from repro.cache.residency import (
    ClockResidencyPredictor,
    MincoreResidencyTester,
    SimulatedResidencyOracle,
)


@pytest.fixture
def chunk(tmp_path):
    path = tmp_path / "file.bin"
    path.write_bytes(b"z" * 8192)
    cache = MappedFileCache()
    chunk = cache.acquire(str(path))
    yield chunk
    cache.release(chunk)
    cache.clear()


class TestMincoreResidencyTester:
    def test_freshly_written_file_is_resident(self, chunk):
        # The file was just written, so its pages are in the page cache; the
        # mapping was touched by the test fixture reading it is not needed —
        # mincore on just-written data returns resident on any realistic box.
        tester = MincoreResidencyTester()
        assert tester.is_resident(chunk) in (True, False)  # must not raise
        assert tester.calls == 1

    def test_empty_chunk_is_resident(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        cache = MappedFileCache()
        chunk = cache.acquire(str(path))
        assert MincoreResidencyTester().is_resident(chunk)
        cache.release(chunk)

    def test_fallback_answer_configurable(self, chunk, monkeypatch):
        import repro.cache.residency as residency_module

        monkeypatch.setattr(residency_module, "_LIBC_MINCORE", None)
        optimistic = MincoreResidencyTester(optimistic_fallback=True)
        pessimistic = MincoreResidencyTester(optimistic_fallback=False)
        assert optimistic.is_resident(chunk) is True
        assert pessimistic.is_resident(chunk) is False
        assert optimistic.fallback_answers == 1


@pytest.fixture
def synced_fd(tmp_path):
    """A descriptor on a file whose pages are clean, so DONTNEED can drop them."""
    path = tmp_path / "synced.bin"
    path.write_bytes(os.urandom(256 * 1024))
    fd = os.open(path, os.O_RDWR)
    os.fsync(fd)
    yield fd
    os.close(fd)


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
    """The fd-backed probe: ``preadv(RWF_NOWAIT)`` for windows the scratch
    buffer holds, a transient mapping plus ``mincore`` for the rest."""

    def test_follows_the_page_cache(self, synced_fd):
        tester = MincoreResidencyTester()
        assert tester.file_resident(synced_fd, 2048) is True
        os.posix_fadvise(synced_fd, 0, 0, os.POSIX_FADV_DONTNEED)
        if tester.file_resident(synced_fd, 2048) is not False:
            pytest.skip("POSIX_FADV_DONTNEED does not evict on this filesystem")
        # A window elsewhere in the file is just as cold; reading one
        # window warms that window (and whatever readahead adds), and the
        # probe of it turns true again.
        assert tester.file_resident(synced_fd, 4096, offset=128 * 1024) is False
        os.pread(synced_fd, 2048, 0)
        assert tester.file_resident(synced_fd, 2048) is True

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

    def test_window_past_the_scratch_buffer_takes_mincore(self, synced_fd, monkeypatch):
        import repro.cache.residency as residency_module

        created = count_mmaps(monkeypatch)
        tester = MincoreResidencyTester()
        verdict = tester.file_resident(synced_fd, residency_module.NOWAIT_PROBE_BYTES + 1)
        assert len(created) == 1
        assert verdict is True

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
        # With mincore unreachable too, the answer is "cannot tell" and the
        # caller's clock predictor takes over, as before.
        monkeypatch.setattr(residency_module, "_LIBC_MINCORE", None)
        assert tester.file_resident(synced_fd, 2048) is None
        assert tester.fallback_answers == 1

    def test_short_window_is_not_resident(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"x" * 100)
        fd = os.open(path, os.O_RDONLY)
        try:
            # Asked about bytes the file does not have: never "resident".
            assert MincoreResidencyTester().file_resident(fd, 4096) is not True
        finally:
            os.close(fd)


class TestClockResidencyPredictor:
    def test_first_touch_predicted_not_resident(self, chunk):
        predictor = ClockResidencyPredictor(estimated_cache_bytes=1 << 20)
        assert predictor.is_resident(chunk) is False

    def test_second_touch_predicted_resident(self, chunk):
        predictor = ClockResidencyPredictor(estimated_cache_bytes=1 << 20)
        predictor.is_resident(chunk)
        assert predictor.is_resident(chunk) is True

    def test_fault_feedback_shrinks_estimate(self, chunk):
        predictor = ClockResidencyPredictor(estimated_cache_bytes=8 << 20)
        before = predictor.estimated_cache_bytes
        predictor.record_fault(chunk)
        assert predictor.estimated_cache_bytes < before
        assert predictor.faults == 1

    def test_idle_feedback_grows_estimate(self, chunk):
        predictor = ClockResidencyPredictor(estimated_cache_bytes=1 << 20)
        before = predictor.estimated_cache_bytes
        predictor.record_idle_capacity()
        assert predictor.estimated_cache_bytes > before

    def test_estimate_never_below_minimum(self, chunk):
        predictor = ClockResidencyPredictor(
            estimated_cache_bytes=2 << 20, min_cache_bytes=1 << 20
        )
        for _ in range(100):
            predictor.record_fault(chunk)
        assert predictor.estimated_cache_bytes >= 1 << 20

    def test_small_estimate_evicts_tracking(self, tmp_path):
        # With an estimate smaller than one chunk, nothing stays "resident".
        path = tmp_path / "big.bin"
        path.write_bytes(b"y" * 65536)
        cache = MappedFileCache()
        chunk = cache.acquire(str(path))
        predictor = ClockResidencyPredictor(
            estimated_cache_bytes=1024, min_cache_bytes=512
        )
        predictor.is_resident(chunk)
        assert predictor.is_resident(chunk) is False
        cache.release(chunk)

    def test_invalid_estimate_rejected(self):
        with pytest.raises(ValueError):
            ClockResidencyPredictor(estimated_cache_bytes=0)


class TestSimulatedResidencyOracle:
    def test_scripted_residency(self, chunk):
        oracle = SimulatedResidencyOracle(resident_paths={chunk.key.path})
        assert oracle.is_resident(chunk) is True
        oracle.mark_evicted(chunk.key.path)
        assert oracle.is_resident(chunk) is False
        oracle.mark_resident(chunk.key.path)
        assert oracle.is_resident(chunk) is True
        assert oracle.queries == 3

    def test_default_answer(self, chunk):
        assert SimulatedResidencyOracle(default_resident=True).is_resident(chunk)
        assert not SimulatedResidencyOracle(default_resident=False).is_resident(chunk)
