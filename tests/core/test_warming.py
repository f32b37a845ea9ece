"""Tests for sendfile-aware warming: the OP_WARM helper operation and the
fd-backed residency queries that decide when it is dispatched.

The real probe's *answer* depends on the host's page cache, so tests here
assert its contract (a bool, no side effects on the descriptor) rather
than a particular verdict — ``tests/cache/test_residency.py`` evicts files
for real; the scripted oracle is deterministic and is asserted exactly.
"""

import os
import time

import pytest

from repro.cache.residency import MincoreResidencyTester, SimulatedResidencyOracle
from repro.core.config import ServerConfig
from repro.core.event_loop import EventLoop
from repro.core.helpers import (
    OP_WARM,
    HelperPool,
    HelperRequest,
    advise_willneed,
    perform_helper_operation,
)
from repro.core.pipeline import ContentStore


@pytest.fixture
def datafile(tmp_path):
    path = tmp_path / "warm.bin"
    path.write_bytes(os.urandom(300 * 1024))
    return str(path)


class TestWarmOperation:
    def test_warm_by_path_touches_whole_file(self, datafile):
        reply = perform_helper_operation(
            HelperRequest(seq=1, op=OP_WARM, path=datafile)
        )
        assert reply.ok
        assert reply.bytes_touched == os.path.getsize(datafile)

    def test_warm_on_open_descriptor(self, datafile):
        fd = os.open(datafile, os.O_RDONLY)
        try:
            reply = perform_helper_operation(
                HelperRequest(seq=1, op=OP_WARM, path=datafile, fd=fd)
            )
            assert reply.ok
            assert reply.bytes_touched == os.path.getsize(datafile)
            # The helper used positional reads: the shared descriptor's
            # file offset is untouched (a concurrent sendfile relies on
            # nothing moving it).
            assert os.lseek(fd, 0, os.SEEK_CUR) == 0
            # And the descriptor was not closed (it is cache-owned).
            os.fstat(fd)
        finally:
            os.close(fd)

    def test_warm_byte_range(self, datafile):
        reply = perform_helper_operation(
            HelperRequest(seq=1, op=OP_WARM, path=datafile, offset=4096, length=8192)
        )
        assert reply.ok
        assert reply.bytes_touched == 8192

    def test_warm_range_clamped_to_file_size(self, datafile):
        size = os.path.getsize(datafile)
        reply = perform_helper_operation(
            HelperRequest(seq=1, op=OP_WARM, path=datafile, offset=size - 100, length=10_000)
        )
        assert reply.ok
        assert reply.bytes_touched == 100

    def test_warm_missing_file_fails_cleanly(self, tmp_path):
        reply = perform_helper_operation(
            HelperRequest(seq=1, op=OP_WARM, path=str(tmp_path / "gone"))
        )
        assert not reply.ok
        assert reply.error_type == "FileNotFoundError"

    def test_warm_through_helper_pool(self, datafile):
        loop = EventLoop()
        pool = HelperPool(num_helpers=2, mode="thread")
        pool.register(loop)
        replies = []
        try:
            pool.submit(
                HelperRequest(seq=0, op=OP_WARM, path=datafile), replies.append
            )
            deadline = time.monotonic() + 10.0
            while not replies and time.monotonic() < deadline:
                loop.run_once(timeout=0.05)
        finally:
            pool.shutdown()
            loop.close()
        assert len(replies) == 1 and replies[0].ok
        assert replies[0].bytes_touched == os.path.getsize(datafile)

    def test_advise_willneed_is_safe(self, datafile):
        fd = os.open(datafile, os.O_RDONLY)
        try:
            # Returns a bool on every platform; never raises.
            assert advise_willneed(fd, 0, 1024) in (True, False)
        finally:
            os.close(fd)
        assert advise_willneed(-1, 0, 1024) is False


class TestFdResidencyProbes:
    def test_probe_contract(self, datafile):
        tester = MincoreResidencyTester()
        fd = os.open(datafile, os.O_RDONLY)
        try:
            verdict = tester.file_resident(fd, os.path.getsize(datafile), path=datafile)
            assert verdict in (True, False)
            # The probe moved no file offset and left the fd usable.
            assert os.lseek(fd, 0, os.SEEK_CUR) == 0
            os.fstat(fd)
        finally:
            os.close(fd)

    def test_probe_empty_range(self, datafile):
        tester = MincoreResidencyTester()
        assert tester.file_resident(-1, 0, path=datafile) is True

    def test_oracle_answers_fd_queries(self, datafile):
        oracle = SimulatedResidencyOracle(default_resident=False)
        assert oracle.file_resident(-1, 100, path=datafile) is False
        oracle.mark_resident(datafile)
        assert oracle.file_resident(-1, 100, path=datafile) is True


class TestContentStoreFdResidency:
    def _store(self, docroot, tester):
        config = ServerConfig(document_root=docroot, port=0)
        return ContentStore(config, residency_tester=tester)

    def test_probe_answer_is_used(self, tmp_path, datafile):
        store = self._store(str(tmp_path), SimulatedResidencyOracle(default_resident=False))
        handle = store.fd_cache.acquire(datafile)
        try:
            assert store.fd_resident(handle, 100) is False
            store.residency_tester.mark_resident(datafile)
            assert store.fd_resident(handle, 100) is True
        finally:
            store.release_fd(handle)
            store.close()
