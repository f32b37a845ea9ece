"""Unit tests for the AMPED helper pool and IPC protocol."""

import os
import time

import pytest

from repro.core.event_loop import EventLoop
from repro.core.helpers import (
    OP_TRANSLATE,
    OP_WARM,
    HelperPool,
    HelperRequest,
    perform_helper_operation,
    translation_entry_from_reply,
)


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "index.html").write_text("<html>hi</html>")
    (tmp_path / "big.bin").write_bytes(b"b" * 100_000)
    return str(tmp_path)


@pytest.fixture
def loop():
    loop = EventLoop()
    yield loop
    loop.close()


def settle(pool, loop, timeout=10.0):
    """Drive ``loop`` until every operation ``pool`` owes has completed.

    Completions only ever arrive through the loop the pool is bound to —
    the way the AMPED server (and the bench helper probe) observe them.
    """
    deadline = time.monotonic() + timeout
    while pool.outstanding and time.monotonic() < deadline:
        loop.run_once(timeout=0.05)
    assert not pool.outstanding, f"{pool.outstanding} helper operations still outstanding"


class TestPerformHelperOperation:
    def test_translate_success(self, docroot):
        request = HelperRequest(seq=1, op=OP_TRANSLATE, uri="/index.html", document_root=docroot)
        reply = perform_helper_operation(request)
        assert reply.ok
        assert reply.path == os.path.join(docroot, "index.html")
        assert reply.size == len("<html>hi</html>")
        entry = translation_entry_from_reply("/index.html", reply)
        assert entry.filesystem_path == reply.path

    def test_translate_missing_file(self, docroot):
        request = HelperRequest(seq=2, op=OP_TRANSLATE, uri="/nope.html", document_root=docroot)
        reply = perform_helper_operation(request)
        assert not reply.ok
        assert reply.error_type == "NotFoundError"
        with pytest.raises(ValueError):
            translation_entry_from_reply("/nope.html", reply)

    def test_warm_touches_whole_file(self, docroot):
        request = HelperRequest(seq=3, op=OP_WARM, path=os.path.join(docroot, "big.bin"))
        reply = perform_helper_operation(request)
        assert reply.ok
        assert reply.bytes_touched == 100_000

    def test_warm_range_on_an_open_descriptor(self, docroot):
        path = os.path.join(docroot, "big.bin")
        fd = os.open(path, os.O_RDONLY)
        try:
            request = HelperRequest(
                seq=4, op=OP_WARM, path=path, fd=fd, offset=50_000, length=10_000
            )
            reply = perform_helper_operation(request)
        finally:
            os.close(fd)
        assert reply.bytes_touched == 10_000

    def test_unknown_operation_reported_as_failure(self):
        reply = perform_helper_operation(HelperRequest(seq=5, op="defragment"))
        assert not reply.ok
        assert reply.error_type == "ValueError"


class TestHelperPoolThreads:
    def test_submit_and_wait(self, docroot, loop):
        pool = HelperPool(num_helpers=2, mode="thread")
        pool.register(loop)
        replies = []
        for name in ("index.html", "big.bin"):
            pool.submit(
                HelperRequest(seq=0, op=OP_TRANSLATE, uri=f"/{name}", document_root=docroot),
                replies.append,
            )
        settle(pool, loop, timeout=5.0)
        assert len(replies) == 2
        assert all(reply.ok for reply in replies)
        assert pool.completed == 2
        pool.shutdown()

    def test_completions_delivered_through_event_loop(self, docroot, loop):
        pool = HelperPool(num_helpers=1, mode="thread")
        pool.register(loop)
        replies = []
        pool.submit(
            HelperRequest(seq=0, op=OP_TRANSLATE, uri="/index.html", document_root=docroot),
            replies.append,
        )
        deadline = 200
        while not replies and deadline:
            loop.run_once(timeout=0.05)
            deadline -= 1
        assert replies and replies[0].ok
        pool.unregister(loop)
        pool.shutdown()

    def test_errors_reported_not_raised(self, docroot, loop):
        pool = HelperPool(num_helpers=1, mode="thread")
        pool.register(loop)
        replies = []
        pool.submit(
            HelperRequest(seq=0, op=OP_TRANSLATE, uri="/missing", document_root=docroot),
            replies.append,
        )
        settle(pool, loop, timeout=5.0)
        assert replies and not replies[0].ok
        pool.shutdown()

    def test_more_requests_than_helpers(self, docroot, loop):
        pool = HelperPool(num_helpers=1, mode="thread")
        pool.register(loop)
        replies = []
        for _ in range(10):
            pool.submit(
                HelperRequest(seq=0, op=OP_WARM, path=os.path.join(docroot, "big.bin")),
                replies.append,
            )
        settle(pool, loop)
        assert len(replies) == 10
        pool.shutdown()

    def test_shutdown_idempotent(self):
        pool = HelperPool(num_helpers=1, mode="thread")
        pool.shutdown()
        pool.shutdown()

    def test_submit_after_shutdown_rejected(self, docroot):
        pool = HelperPool(num_helpers=1, mode="thread")
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(HelperRequest(seq=0, op=OP_WARM, path="x"), lambda r: None)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            HelperPool(num_helpers=0)
        with pytest.raises(ValueError):
            HelperPool(mode="coroutine")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="process helpers require fork")
class TestHelperPoolProcesses:
    def test_translate_via_process_helpers(self, docroot, loop):
        pool = HelperPool(num_helpers=2, mode="process")
        pool.register(loop)
        replies = []
        try:
            for _ in range(4):
                pool.submit(
                    HelperRequest(
                        seq=0, op=OP_TRANSLATE, uri="/index.html", document_root=docroot
                    ),
                    replies.append,
                )
            settle(pool, loop)
        finally:
            pool.shutdown()
        assert len(replies) == 4
        assert all(reply.ok for reply in replies)

    def test_backlog_when_all_helpers_busy(self, docroot, loop):
        pool = HelperPool(num_helpers=1, mode="process")
        pool.register(loop)
        replies = []
        try:
            for _ in range(5):
                pool.submit(
                    HelperRequest(seq=0, op=OP_WARM, path=os.path.join(docroot, "big.bin")),
                    replies.append,
                )
            settle(pool, loop, timeout=15.0)
        finally:
            pool.shutdown()
        assert len(replies) == 5


class TestProcessHelperDeath:
    """A helper process that dies mid-operation must not hang its requester
    or kill the pool: the EOFed pipe synthesizes a failed reply and the
    pool degrades to the survivors."""

    @staticmethod
    def crash_pool(num_helpers, monkeypatch, loop):
        """A process pool, bound to ``loop``, whose helpers exit hard inside OP_WARM."""
        import repro.core.helpers as helpers_module

        def die(path, fd, offset, length):
            os._exit(17)

        # Patched before fork: the helper children inherit the crash.
        monkeypatch.setattr(helpers_module, "_warm_file_range", die)
        pool = HelperPool(num_helpers=num_helpers, mode="process")
        pool.register(loop)
        return pool

    def test_death_synthesizes_failed_reply(self, docroot, monkeypatch, loop):
        pool = self.crash_pool(2, monkeypatch, loop)
        replies = []
        try:
            pool.submit(
                HelperRequest(seq=0, op=OP_WARM, path=os.path.join(docroot, "big.bin")),
                replies.append,
            )
            settle(pool, loop)
        finally:
            pool.shutdown()
        assert len(replies) == 1
        assert not replies[0].ok
        assert replies[0].error_type == "HelperDiedError"
        assert pool.helpers_died == 1

    def test_pool_degrades_to_survivors(self, docroot, monkeypatch, loop):
        pool = self.crash_pool(2, monkeypatch, loop)
        replies = []
        try:
            pool.submit(
                HelperRequest(seq=0, op=OP_WARM, path=os.path.join(docroot, "big.bin")),
                replies.append,
            )
            settle(pool, loop)
            # One helper is gone; translations still complete on the other.
            pool.submit(
                HelperRequest(
                    seq=0, op=OP_TRANSLATE, uri="/index.html", document_root=docroot
                ),
                replies.append,
            )
            settle(pool, loop)
        finally:
            pool.shutdown()
        assert len(replies) == 2
        assert not replies[0].ok
        assert replies[1].ok
        assert pool.helpers_died == 1

    def test_all_helpers_dead_fails_fast(self, docroot, monkeypatch, loop):
        pool = self.crash_pool(1, monkeypatch, loop)
        replies = []
        try:
            pool.submit(
                HelperRequest(seq=0, op=OP_WARM, path=os.path.join(docroot, "big.bin")),
                replies.append,
            )
            settle(pool, loop)
            # No helpers remain: a new submission fails immediately instead
            # of waiting forever.
            pool.submit(
                HelperRequest(seq=0, op=OP_WARM, path=os.path.join(docroot, "big.bin")),
                replies.append,
            )
        finally:
            pool.shutdown()
        assert len(replies) == 2
        assert all(not reply.ok for reply in replies)
        assert all(reply.error_type == "HelperDiedError" for reply in replies)

    def test_death_observed_through_event_loop(self, docroot, monkeypatch, loop):
        """The AMPED observation path: the dead helper's pipe EOF arrives
        as a readiness event and the completion runs from the loop."""
        pool = self.crash_pool(1, monkeypatch, loop)
        replies = []
        try:
            pool.submit(
                HelperRequest(seq=0, op=OP_WARM, path=os.path.join(docroot, "big.bin")),
                replies.append,
            )
            deadline = time.monotonic() + 10.0
            while not replies and time.monotonic() < deadline:
                loop.run_once(timeout=0.05)
        finally:
            pool.shutdown()
        assert len(replies) == 1
        assert replies[0].error_type == "HelperDiedError"


class TestHelperDeathIdempotent:
    def test_double_observation_counts_one_death(self, docroot):
        """One helper death can be observed twice (send failure, then the
        poll on the closed pipe); the second observation is a no-op."""
        pool = HelperPool(num_helpers=2, mode="process")
        try:
            conn = pool._parent_conns[0]
            pool._helper_died(conn)
            assert pool.helpers_died == 1
            pool._helper_died(conn)           # already reaped: no-op
            assert pool.helpers_died == 1
            assert len(pool._parent_conns) == 1
        finally:
            pool.shutdown()
