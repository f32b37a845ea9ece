"""Event loop used by the SPED and AMPED builds, over a choice of selector.

A SPED server is a state machine that performs one basic step of a request
at a time: in each iteration it waits for completed I/O events (new
connection arrivals, completed file operations, client sockets with data or
send-buffer space) and runs the corresponding step.  The AMPED build uses
the same loop, and helper completions are observed exactly like any other
I/O completion — which is the crux of the architecture (paper Section 3.4):
process-mode helpers through their registered pipes, and everything that
finishes on another thread (thread-mode helpers, CGI workers, SSE
publishers) by posting a callback with :meth:`EventLoop.call_soon`, whose
wakeup socketpair the loop watches like any other descriptor.

The *notification mechanism* behind the wait is a choice: the loop drives
one of the standard library's level-triggered selectors
(``selectors.EpollSelector``, ``PollSelector`` or ``SelectSelector``),
named per server through ``ServerConfig.io_backend``, so the cost of the
mechanism itself — a first-order term in the paper's performance
discussion (§3.3, §6.4 and the Figure 12 WAN sweep) — can be measured
rather than assumed.  A hangup or error is reported as readiness within
the registered interest set, so the owner's next ``recv`` or ``send``
observes the EOF or the error.

The loop is intentionally small: readiness callbacks keyed by file
descriptor, deferred calls, and simple monotonic timers for connection
timeouts.  It has no knowledge of HTTP.
"""

from __future__ import annotations

import heapq
import logging
import selectors
import socket
import time
from collections import deque
from typing import Callable, Optional

from repro.core.timer_wheel import TimerWheel

__all__ = [
    "EVENT_READ",
    "EVENT_WRITE",
    "KNOWN_BACKENDS",
    "EventLoop",
    "add_dispatch_observer",
    "available_backends",
    "remove_dispatch_observer",
]

logger = logging.getLogger(__name__)

EVENT_READ = selectors.EVENT_READ
EVENT_WRITE = selectors.EVENT_WRITE

#: Every notification mechanism the loop knows, best first: ``"auto"``
#: picks the first one the platform provides.
KNOWN_BACKENDS = ("epoll", "poll", "select")

#: Mechanism name -> standard-library selector, for those this platform has.
_SELECTORS = {
    name: getattr(selectors, class_name)
    for name, class_name in (
        ("epoll", "EpollSelector"),
        ("poll", "PollSelector"),
        ("select", "SelectSelector"),
    )
    if hasattr(selectors, class_name)
}


def available_backends() -> tuple[str, ...]:
    """Mechanism names usable on this platform, best (for ``auto``) first."""
    return tuple(name for name in KNOWN_BACKENDS if name in _SELECTORS)


#: Observers called as ``observer(callback, elapsed_seconds)`` after every
#: readiness-callback dispatch.  Empty in production; the runtime sanitizer
#: (:mod:`repro.analysis.sanitize`) installs a stall watchdog here so tests
#: can detect event-loop callbacks that block.  Kept module-level so one
#: observer covers every loop in the process.
_dispatch_observers: list = []


def add_dispatch_observer(observer) -> None:
    """Install ``observer(callback, elapsed)`` on all event loops."""
    if observer not in _dispatch_observers:
        _dispatch_observers.append(observer)


def remove_dispatch_observer(observer) -> None:
    """Remove a previously installed dispatch observer."""
    try:
        _dispatch_observers.remove(observer)
    except ValueError:
        pass


class EventLoop:
    """A single-threaded readiness-callback event loop.

    Callbacks are invoked as ``callback(fileobj, events)`` when their file
    object becomes ready.  Deferred calls posted with :meth:`call_soon` —
    from any thread — run on the loop thread in the next iteration; timers
    registered with :meth:`call_later` run once their deadline passes.

    Parameters
    ----------
    backend:
        Which event-notification mechanism to use: ``"auto"`` (the first
        of :func:`available_backends`), ``"epoll"``, ``"poll"`` or
        ``"select"``.  Unknown names raise ``ValueError``; a known name
        the platform lacks raises ``RuntimeError``.
    """

    def __init__(self, backend: str = "auto") -> None:
        name = backend.lower()
        if name == "auto":
            name = available_backends()[0]
        if name not in KNOWN_BACKENDS:
            raise ValueError(
                f"unknown io backend {backend!r}; "
                f"expected 'auto' or one of {sorted(KNOWN_BACKENDS)}"
            )
        if name not in _SELECTORS:
            raise RuntimeError(f"io backend {backend!r} is not available on this platform")
        self._selector: selectors.BaseSelector = _SELECTORS[name]()
        self._backend_name = name
        #: Deferred calls, appended by any thread and popped by the loop.
        #: ``deque.append``/``popleft`` are atomic, so posting takes no lock
        #: (it must not: ``request_drain`` posts from a signal handler that
        #: runs on the loop thread).
        self._pending: deque = deque()
        self._closed = False
        #: One byte per post wakes a blocked poll.  The read end is always
        #: registered, so the selector never polls an empty set.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, EVENT_READ, self._run_pending)
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = 0
        #: Latched by :meth:`stop`: a stop that lands before
        #: :meth:`run_forever` starts is not lost.
        self._stopped = False
        self.iterations = 0
        #: Hashed timer wheel for the high-churn per-connection deadlines:
        #: O(1) schedule *and* cancel, where the heap above would retain a
        #: tombstone per cancelled timer.  The heap remains for the rare,
        #: never-cancelled housekeeping timers (:meth:`call_later`).
        self.wheel = TimerWheel()

    @property
    def backend_name(self) -> str:
        """Name of the active notification mechanism (e.g. ``"epoll"``)."""
        return self._backend_name

    # -- registration -------------------------------------------------------

    def register(self, fileobj, events: int, callback: Callable) -> None:
        """Start watching ``fileobj`` for ``events``."""
        self._selector.register(fileobj, events, callback)

    def modify(self, fileobj, events: int, callback: Optional[Callable] = None) -> None:
        """Change the interest set (and optionally the callback) of ``fileobj``."""
        if callback is None:
            callback = self._selector.get_key(fileobj).data
        self._selector.modify(fileobj, events, callback)

    def unregister(self, fileobj) -> None:
        """Stop watching ``fileobj``.  Unknown file objects are ignored."""
        try:
            self._selector.unregister(fileobj)
        except (KeyError, ValueError):
            pass

    def is_registered(self, fileobj) -> bool:
        """Whether ``fileobj`` is currently being watched."""
        try:
            self._selector.get_key(fileobj)
            return True
        except (KeyError, ValueError):
            return False

    # -- deferred work -------------------------------------------------------

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` on the loop thread soon; safe from any thread.

        The wake byte may fail to send only when the socket buffer is full,
        which means a wake is already pending.  Posting to a closed loop is
        a no-op.
        """
        if self._closed:
            return
        self._pending.append(callback)
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\0")
        except OSError:
            pass

    def _run_pending(self, _fileobj, _mask) -> None:
        """Run every posted callback, each behind its own crash barrier.

        The wake bytes are drained *before* the deque is popped, so a post
        that lands during the drain either is popped here or leaves its
        byte behind to wake the next poll: nothing is stranded.
        """
        try:
            while self._wake_recv.recv(4096):
                pass
        except OSError:  # BlockingIOError: drained
            pass
        pending = self._pending
        while pending:
            callback = pending.popleft()
            try:
                callback()
            except Exception:
                # Crash barrier (lint rule RL005): one faulty post must not
                # skip the posts behind it or unwind the loop.
                logger.exception("unhandled error in posted callback %r (absorbed)", callback)

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run after ``delay`` seconds."""
        self._timer_seq += 1
        heapq.heappush(self._timers, (time.monotonic() + delay, self._timer_seq, callback))

    # -- execution ------------------------------------------------------------

    def run_once(self, timeout: Optional[float] = None) -> int:
        """Run one iteration: due timers, then one poll.

        Posted calls run inside the poll's dispatch, as the readiness
        callback of the wakeup socket.  Returns the number of readiness
        events dispatched (a wakeup counts as one).  ``timeout``
        bounds how long the poll may block; it is clamped down to the
        next timer deadline so timers fire on time.
        """
        self.iterations += 1

        now = time.monotonic()
        while self._timers and self._timers[0][0] <= now:
            _, _, callback = heapq.heappop(self._timers)
            callback()
        self.wheel.advance(now)

        if self._timers:
            next_deadline = self._timers[0][0] - time.monotonic()
            if timeout is None or next_deadline < timeout:
                timeout = max(0.0, next_deadline)
        if len(self.wheel) and (timeout is None or timeout > self.wheel.tick):
            # Armed deadlines bound the poll to one wheel tick so expiries
            # fire within a tick of their nominal time.
            timeout = self.wheel.tick

        events = self._selector.select(timeout)
        if _dispatch_observers:
            for key, mask in events:
                callback = key.data
                start = time.monotonic()
                callback(key.fileobj, mask)
                elapsed = time.monotonic() - start
                for observer in list(_dispatch_observers):
                    observer(callback, elapsed)
        else:
            for key, mask in events:
                callback = key.data
                callback(key.fileobj, mask)
        return len(events)

    def run_forever(self) -> None:
        """Run until :meth:`stop` is called; returns at once if it already was.

        Between events the poll blocks: it wakes only for posts, I/O,
        :meth:`call_later` timers and (one tick) armed wheel deadlines.
        """
        while not self._stopped:
            self.run_once()

    def stop(self) -> None:
        """Make :meth:`run_forever` return, now or whenever it starts."""
        self._stopped = True
        self._wake()

    def close(self) -> None:
        """Release the wakeup socketpair and the selector."""
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        self.unregister(self._wake_recv)
        self._wake_recv.close()
        self._wake_send.close()
        self._selector.close()
