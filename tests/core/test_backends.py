"""Conformance suite for the event loop's notification mechanisms.

Every mechanism (select / poll / epoll, the latter two skipped where the
platform lacks them) must drive the :class:`EventLoop` identically:
registration, readiness callbacks, interest modification, timers and
deferred calls.  The suite is parametrized over every name in
``available_backends()`` so a mechanism only has to appear there to be
held to the same contract.
"""

import select as select_module
import socket
import time

import pytest

from repro.core.event_loop import (
    EVENT_READ,
    EVENT_WRITE,
    KNOWN_BACKENDS,
    EventLoop,
    available_backends,
)

BACKENDS = available_backends()


@pytest.fixture(params=BACKENDS)
def backend_name(request):
    return request.param


@pytest.fixture
def loop(backend_name):
    loop = EventLoop(backend=backend_name)
    yield loop
    loop.close()


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    left.setblocking(False)
    right.setblocking(False)
    yield left, right
    left.close()
    right.close()


class TestRegistry:
    def test_known_backend_set(self):
        assert set(KNOWN_BACKENDS) == {"select", "poll", "epoll"}

    def test_select_always_available(self):
        assert "select" in BACKENDS

    def test_epoll_availability_matches_platform(self):
        assert ("epoll" in BACKENDS) == hasattr(select_module, "epoll")

    def test_poll_availability_matches_platform(self):
        assert ("poll" in BACKENDS) == hasattr(select_module, "poll")

    def test_auto_picks_best_available(self):
        loop = EventLoop(backend="auto")
        try:
            assert loop.backend_name == BACKENDS[0]
        finally:
            loop.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            EventLoop(backend="kqueue-but-misspelled")

    def test_loop_exposes_backend_name(self, backend_name, loop):
        assert loop.backend_name == backend_name


class TestRegistration:
    def test_register_and_is_registered(self, loop, pair):
        left, _ = pair
        assert not loop.is_registered(left)
        loop.register(left, EVENT_READ, lambda sock, mask: None)
        assert loop.is_registered(left)

    def test_double_register_rejected(self, loop, pair):
        left, _ = pair
        loop.register(left, EVENT_READ, lambda sock, mask: None)
        with pytest.raises(KeyError):
            loop.register(left, EVENT_WRITE, lambda sock, mask: None)

    def test_invalid_events_rejected(self, loop, pair):
        left, _ = pair
        with pytest.raises(ValueError):
            loop.register(left, 0, lambda sock, mask: None)
        with pytest.raises(ValueError):
            loop.register(left, 0x40, lambda sock, mask: None)

    def test_modify_unregistered_rejected(self, loop, pair):
        left, _ = pair
        with pytest.raises(KeyError):
            loop.modify(left, EVENT_READ)
        with pytest.raises(KeyError):
            loop.modify(left, EVENT_READ, lambda sock, mask: None)

    def test_unregister_forgets_the_socket(self, loop, pair):
        left, _ = pair
        loop.register(left, EVENT_READ, lambda sock, mask: None)
        loop.unregister(left)
        assert not loop.is_registered(left)
        loop.unregister(left)  # a second unregister is a no-op

    def test_unregister_after_close_finds_by_identity(self, loop):
        """A socket closed before unregistration must still be removable."""
        left, right = socket.socketpair()
        loop.register(left, EVENT_READ, lambda sock, mask: None)
        left.close()
        right.close()
        loop.unregister(left)
        assert not loop.is_registered(left)
        # The slot is free again: a new socket may reuse the descriptor.
        fresh, peer = socket.socketpair()
        try:
            loop.register(fresh, EVENT_READ, lambda sock, mask: None)
            assert loop.is_registered(fresh)
            loop.unregister(fresh)
        finally:
            fresh.close()
            peer.close()


class TestReadiness:
    def test_read_callback_fires(self, loop, pair):
        left, right = pair
        received = []
        loop.register(left, EVENT_READ, lambda sock, mask: received.append(sock.recv(64)))
        right.send(b"ping")
        loop.run_once(timeout=1.0)
        assert received == [b"ping"]

    def test_write_readiness(self, loop, pair):
        left, _ = pair
        fired = []
        loop.register(left, EVENT_WRITE, lambda sock, mask: fired.append(mask))
        count = loop.run_once(timeout=1.0)
        assert count == 1
        assert fired and fired[0] & EVENT_WRITE

    def test_combined_interest_reports_both(self, loop, pair):
        left, right = pair
        masks = []
        loop.register(left, EVENT_READ | EVENT_WRITE, lambda sock, mask: masks.append(mask))
        right.send(b"x")
        deadline = time.monotonic() + 1.0
        while not masks and time.monotonic() < deadline:
            loop.run_once(timeout=0.1)
        assert masks
        # Socket is both readable (data pending) and writable (empty buffer).
        assert masks[0] & EVENT_READ
        assert masks[0] & EVENT_WRITE

    def test_modify_interest(self, loop, pair):
        left, right = pair
        events = []
        loop.register(left, EVENT_WRITE, lambda sock, mask: events.append(mask))
        loop.modify(left, EVENT_READ)
        right.send(b"x")
        loop.run_once(timeout=1.0)
        assert events and events[0] & EVENT_READ
        assert not any(mask & EVENT_WRITE and not (mask & EVENT_READ) for mask in events)

    def test_modify_swaps_callback(self, loop, pair):
        left, right = pair
        first, second = [], []
        loop.register(left, EVENT_READ, lambda sock, mask: first.append(mask))
        loop.modify(left, EVENT_READ, lambda sock, mask: second.append(mask))
        right.send(b"x")
        loop.run_once(timeout=1.0)
        assert not first
        assert second

    def test_peer_close_reported_as_read(self, loop, pair):
        """EOF must wake readers so the owner can observe the disconnect."""
        left, right = pair
        masks = []
        loop.register(left, EVENT_READ, lambda sock, mask: masks.append(mask))
        right.close()
        loop.run_once(timeout=1.0)
        assert masks and masks[0] & EVENT_READ

    def test_unregistered_fd_not_reported(self, loop, pair):
        left, right = pair
        fired = []
        loop.register(left, EVENT_READ, lambda sock, mask: fired.append(mask))
        right.send(b"x")
        loop.unregister(left)
        loop.run_once(timeout=0)
        assert not fired

    def test_many_sockets_only_ready_reported(self, loop):
        pairs = [socket.socketpair() for _ in range(8)]
        ready = []
        try:
            for index, (left, _right) in enumerate(pairs):
                left.setblocking(False)
                loop.register(
                    left, EVENT_READ,
                    lambda sock, mask, index=index: ready.append(index),
                )
            pairs[2][1].send(b"x")
            pairs[5][1].send(b"y")
            loop.run_once(timeout=1.0)
            assert sorted(ready) == [2, 5]
        finally:
            for left, right in pairs:
                left.close()
                right.close()


class TestTimersAndDeferred:
    def test_call_soon_runs_next_iteration(self, loop):
        ran = []
        loop.call_soon(lambda: ran.append(1))
        loop.run_once(timeout=0)
        assert ran == [1]

    def test_call_later_respects_delay(self, loop, pair):
        left, _ = pair
        # Keep the backend non-empty so run_once exercises the real poll.
        loop.register(left, EVENT_READ, lambda sock, mask: None)
        fired = []
        loop.call_later(0.05, lambda: fired.append(time.monotonic()))
        start = time.monotonic()
        while not fired and time.monotonic() - start < 2.0:
            loop.run_once(timeout=0.5)
        assert fired
        assert fired[0] - start >= 0.045

    def test_timer_clamps_poll_timeout(self, loop, pair):
        """A near timer must not be starved by a long poll timeout."""
        left, _ = pair
        loop.register(left, EVENT_READ, lambda sock, mask: None)
        fired = []
        loop.call_later(0.02, lambda: fired.append(True))
        start = time.monotonic()
        loop.run_once(timeout=5.0)   # clamped to the timer deadline (~0.02 s)
        loop.run_once(timeout=0)     # timer fires at the top of this iteration
        assert fired
        assert time.monotonic() - start < 2.0

    def test_zero_timeout_does_not_block(self, loop, pair):
        left, _ = pair
        loop.register(left, EVENT_READ, lambda sock, mask: None)
        start = time.monotonic()
        loop.run_once(timeout=0)
        assert time.monotonic() - start < 0.5
