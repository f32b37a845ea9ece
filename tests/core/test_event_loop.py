"""Unit tests for the selectors-based event loop."""

import logging
import os
import socket
import threading
import time

import pytest

from repro.cgi.runner import CGIRunner
from repro.core.event_loop import EVENT_READ, EVENT_WRITE, EventLoop
from repro.core.helpers import HelperPool
from repro.core.sse import SSEHub


class TestReadiness:
    def test_read_callback_fires_when_data_arrives(self):
        loop = EventLoop()
        left, right = socket.socketpair()
        received = []
        left.setblocking(False)
        loop.register(left, EVENT_READ, lambda sock, mask: received.append(sock.recv(100)))
        right.send(b"ping")
        loop.run_once(timeout=1.0)
        assert received == [b"ping"]
        loop.unregister(left)
        left.close()
        right.close()
        loop.close()

    def test_write_readiness(self):
        loop = EventLoop()
        left, right = socket.socketpair()
        fired = []
        loop.register(left, EVENT_WRITE, lambda sock, mask: fired.append(mask))
        count = loop.run_once(timeout=1.0)
        assert count == 1
        assert fired and fired[0] & EVENT_WRITE
        loop.close()
        left.close()
        right.close()

    def test_modify_interest(self):
        loop = EventLoop()
        left, right = socket.socketpair()
        events = []
        loop.register(left, EVENT_WRITE, lambda sock, mask: events.append(("w", mask)))
        loop.modify(left, EVENT_READ)
        right.send(b"x")
        loop.run_once(timeout=1.0)
        assert events and events[0][1] & EVENT_READ
        loop.close()
        left.close()
        right.close()

    def test_unregister_unknown_is_noop(self):
        loop = EventLoop()
        left, right = socket.socketpair()
        loop.unregister(left)          # never registered: must not raise
        assert not loop.is_registered(left)
        loop.close()
        left.close()
        right.close()

    def test_is_registered(self):
        loop = EventLoop()
        left, right = socket.socketpair()
        loop.register(left, EVENT_READ, lambda s, m: None)
        assert loop.is_registered(left)
        loop.unregister(left)
        assert not loop.is_registered(left)
        loop.close()
        left.close()
        right.close()


class TestDeferredWork:
    def test_call_soon_runs_next_iteration(self):
        loop = EventLoop()
        ran = []
        loop.call_soon(lambda: ran.append(1))
        loop.run_once(timeout=0)
        assert ran == [1]
        loop.close()

    def test_call_later_respects_delay(self):
        loop = EventLoop()
        ran = []
        loop.call_later(0.02, lambda: ran.append(time.monotonic()))
        start = time.monotonic()
        while not ran and time.monotonic() - start < 1.0:
            loop.run_once(timeout=0.01)
        assert ran
        assert ran[0] - start >= 0.015
        loop.close()

    def test_timers_fire_in_order(self):
        loop = EventLoop()
        order = []
        loop.call_later(0.02, lambda: order.append("late"))
        loop.call_later(0.001, lambda: order.append("early"))
        deadline = time.monotonic() + 1.0
        while len(order) < 2 and time.monotonic() < deadline:
            loop.run_once(timeout=0.01)
        assert order == ["early", "late"]
        loop.close()


class TestRunForever:
    def test_explicit_stop(self):
        loop = EventLoop()
        loop.call_later(0.01, loop.stop)
        loop.run_forever()
        loop.close()

    def test_stop_before_run_forever_is_not_lost(self):
        """A stop that lands before the loop thread starts still ends it."""
        loop = EventLoop()
        loop.stop()
        runner = threading.Thread(target=loop.run_forever, daemon=True)
        start = time.monotonic()
        runner.start()
        runner.join(timeout=0.5)
        assert not runner.is_alive()
        assert time.monotonic() - start < 0.5
        loop.close()

    def test_iteration_counter(self):
        loop = EventLoop()
        loop.run_once(timeout=0)
        loop.run_once(timeout=0)
        assert loop.iterations == 2
        loop.close()


class TestCrossThreadPosts:
    """``call_soon`` is the one way back onto the loop from another thread."""

    def test_every_post_from_many_threads_runs_exactly_once(self):
        loop = EventLoop()
        threads, posts = 8, 500
        counts = [0] * (threads * posts)

        def bump(index):
            counts[index] += 1

        def poster(base):
            for offset in range(posts):
                loop.call_soon(lambda index=base + offset: bump(index))

        workers = [threading.Thread(target=poster, args=(n * posts,)) for n in range(threads)]
        for worker in workers:
            worker.start()
        deadline = time.monotonic() + 10.0
        while sum(counts) < len(counts) and time.monotonic() < deadline:
            loop.run_once(timeout=0.05)
        for worker in workers:
            worker.join()
        loop.run_once(timeout=0)
        assert counts == [1] * len(counts)
        loop.close()

    def test_post_wakes_a_blocked_poll(self):
        loop = EventLoop()
        left, right = socket.socketpair()
        loop.register(left, EVENT_READ, lambda sock, mask: None)  # idle: never readable
        ran = []
        poster = threading.Timer(0.1, lambda: loop.call_soon(lambda: ran.append(1)))
        start = time.monotonic()
        poster.start()
        loop.run_once(timeout=5.0)
        elapsed = time.monotonic() - start
        poster.join()
        assert ran == [1]
        assert elapsed < 0.5
        loop.unregister(left)
        left.close()
        right.close()
        loop.close()

    def test_stop_wakes_run_forever(self):
        loop = EventLoop()
        left, right = socket.socketpair()
        loop.register(left, EVENT_READ, lambda sock, mask: None)  # idle: never readable
        runner = threading.Thread(target=loop.run_forever)
        runner.start()
        time.sleep(0.05)
        start = time.monotonic()
        loop.stop()
        runner.join(timeout=5.0)
        assert not runner.is_alive()
        assert time.monotonic() - start < 0.5
        loop.unregister(left)
        left.close()
        right.close()
        loop.close()

    def test_raising_post_is_logged_and_later_posts_still_run(self, caplog):
        loop = EventLoop()
        ran = []

        def explode():
            raise RuntimeError("posted callback bug")

        loop.call_soon(lambda: ran.append("before"))
        loop.call_soon(explode)
        loop.call_soon(lambda: ran.append("after"))
        with caplog.at_level(logging.ERROR, logger="repro.core.event_loop"):
            loop.run_once(timeout=0)
        assert ran == ["before", "after"]
        assert "posted callback bug" in caplog.text
        # The loop itself lives on.
        loop.call_soon(lambda: ran.append("next"))
        loop.run_once(timeout=0)
        assert ran == ["before", "after", "next"]
        loop.close()

    def test_post_to_closed_loop_is_a_noop(self):
        loop = EventLoop()
        loop.close()
        loop.call_soon(lambda: pytest.fail("a closed loop runs nothing"))
        loop.stop()
        loop.close()


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize(
    "build, release",
    [
        (SSEHub, SSEHub.close),
        (CGIRunner, CGIRunner.shutdown),
        (lambda: HelperPool(num_helpers=2, mode="thread"), HelperPool.shutdown),
    ],
    ids=["sse-hub", "cgi-runner", "thread-helpers"],
)
def test_off_loop_services_open_no_descriptors(build, release):
    """Only the loop owns a wakeup channel; the services that post to it own none."""
    before = _open_descriptors()
    service = build()
    try:
        assert _open_descriptors() == before
    finally:
        release(service)
