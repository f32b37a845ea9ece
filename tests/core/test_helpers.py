"""Unit tests for the AMPED helper pool and its request/reply protocol."""

import os
import time

import pytest

from repro.cache.pathname import PathnameEntry
from repro.core.event_loop import EventLoop
from repro.core.helpers import (
    OP_TRANSLATE,
    OP_WARM,
    HelperPool,
    HelperRequest,
    perform_helper_operation,
)
from repro.http.errors import NotFoundError


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "index.html").write_text("<html>hi</html>")
    (tmp_path / "big.bin").write_bytes(b"b" * 100_000)
    return str(tmp_path)


@pytest.fixture
def big_fd(docroot):
    fd = os.open(os.path.join(docroot, "big.bin"), os.O_RDONLY)
    yield fd
    os.close(fd)


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
    def test_translate_replies_with_the_inline_entry(self, docroot):
        """The reply carries the entry ``PathnameEntry.from_stat`` builds —
        the inline translation's constructor — stamped when the stat ran."""
        before = time.monotonic()
        request = HelperRequest(seq=1, op=OP_TRANSLATE, uri="/index.html", document_root=docroot)
        reply = perform_helper_operation(request)
        assert reply.ok and reply.error is None
        entry = reply.entry
        assert isinstance(entry, PathnameEntry)
        path = os.path.join(docroot, "index.html")
        assert entry == PathnameEntry.from_stat("/index.html", path, os.stat(path))
        assert before <= entry.validated_at <= time.monotonic()

    def test_translate_missing_file_replies_with_the_exception(self, docroot):
        request = HelperRequest(seq=2, op=OP_TRANSLATE, uri="/nope.html", document_root=docroot)
        reply = perform_helper_operation(request)
        assert not reply.ok
        assert reply.entry is None
        assert isinstance(reply.error, NotFoundError)
        assert reply.error.status == 404
        assert reply.error_message == str(reply.error)

    def test_warm_touches_whole_file(self, big_fd):
        reply = perform_helper_operation(HelperRequest(seq=3, op=OP_WARM, fd=big_fd))
        assert reply.ok
        assert reply.bytes_touched == 100_000

    def test_warm_range_on_an_open_descriptor(self, big_fd):
        request = HelperRequest(seq=4, op=OP_WARM, fd=big_fd, offset=50_000, length=10_000)
        reply = perform_helper_operation(request)
        assert reply.bytes_touched == 10_000

    def test_unknown_operation_reported_as_failure(self):
        reply = perform_helper_operation(HelperRequest(seq=5, op="defragment"))
        assert not reply.ok
        assert isinstance(reply.error, ValueError)
        assert "defragment" in reply.error_message


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
        assert pool.outstanding == 0
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

    def test_more_requests_than_helpers(self, big_fd, loop):
        pool = HelperPool(num_helpers=1, mode="thread")
        pool.register(loop)
        replies = []
        for _ in range(10):
            pool.submit(HelperRequest(seq=0, op=OP_WARM, fd=big_fd), replies.append)
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
            pool.submit(HelperRequest(seq=0, op=OP_WARM, fd=0), lambda r: None)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            HelperPool(num_helpers=0)
        with pytest.raises(ValueError):
            HelperPool(mode="coroutine")
        # Helpers are threads: the process realization is gone.
        with pytest.raises(ValueError):
            HelperPool(mode="process")
