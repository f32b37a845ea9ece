# repro-lint: domain=event
"""Server-Sent Events pub/sub hub with per-subscriber bounded queues.

One hub per server instance fans published events out to every live
subscriber.  Each subscriber owns a *bounded* deque of formatted event
payloads — the heap-side half of the streaming backpressure story: when
a subscriber's socket stops draining, its connection pauses the
subscription, and from then on the bounded queue (not the process heap)
absorbs the publisher's output, under one of two configurable policies:

``"drop"`` (default)
    Overflow discards the *oldest* queued event and counts it (the
    ``sse_dropped_events`` stat).  The subscriber stays connected and
    sees the most recent events once it drains — the right trade for
    telemetry-style feeds where stale events lose value anyway.
``"disconnect"``
    Overflow marks the subscriber dead: it receives what was already
    queued, then end-of-stream.  The right trade for feeds where a gap
    is worse than a reconnect.

Threading: ``publish`` may be called from any thread (the heartbeat
ticker is a plain daemon thread in every architecture).  A hub bound to
an event loop posts its dispatch with :meth:`EventLoop.call_soon` — the
path helpers and CGI workers take too — so subscriber ready-callbacks
always run on the loop thread.  Blocking-architecture consumers leave
the hub unbound, skip notification entirely and block in
:meth:`SSESubscriber.wait`.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import deque
from typing import Callable, Optional

logger = logging.getLogger(__name__)

from repro.core.streaming import (
    END_OF_STREAM,
    ResponseSource,
    Segment,
    WOULD_BLOCK,
)

#: First bytes on every SSE stream: a comment line clients ignore, which
#: commits the response and lets proxies/clients see the stream is live.
SSE_PREAMBLE = b": stream open\n\n"


def format_sse_event(data: str, event: Optional[str] = None,
                     event_id: Optional[str] = None) -> bytes:
    """Serialize one event in ``text/event-stream`` framing."""
    lines = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    if event is not None:
        lines.append(f"event: {event}")
    for part in (data.split("\n") if data else [""]):
        lines.append(f"data: {part}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


class SSESubscriber(ResponseSource):
    """One subscription: a bounded event queue exposed as a ResponseSource."""

    def __init__(self, hub: "SSEHub", limit: int, policy: str) -> None:
        super().__init__()
        self._hub = hub
        self._limit = max(1, limit)
        self._policy = policy
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._paused = False
        self._ended = False          # disconnect-policy overflow or hub close
        self._closed = False
        self._sent_preamble = False
        self.events_delivered = 0

    # -- hub side (any thread, hub lock NOT required) --------------------------

    def enqueue(self, payload: bytes) -> bool:
        """Queue one formatted event; returns True if a notify is wanted."""
        with self._lock:
            if self._closed or self._ended:
                return False
            if len(self._queue) >= self._limit:
                if self._policy == "disconnect":
                    self._ended = True
                    self._event.set()
                    return not self._paused
                self._queue.popleft()
                self._hub._count_drop()
            self._queue.append(payload)
            self._event.set()
            return not self._paused

    def end_stream(self) -> None:
        """Hub is closing (drain/shutdown): deliver backlog then END."""
        with self._lock:
            self._ended = True
            self._event.set()

    # -- consumer side ---------------------------------------------------------

    def next_segment(self) -> Segment:
        if not self._sent_preamble:
            self._sent_preamble = True
            return SSE_PREAMBLE
        with self._lock:
            if self._queue:
                self.events_delivered += 1
                return self._queue.popleft()
            self._event.clear()
            if self._ended or self._closed:
                return END_OF_STREAM
            return WOULD_BLOCK

    def pause(self) -> None:
        with self._lock:
            self._paused = True

    def resume(self) -> None:
        # No synchronous notify here: resume fires from inside the send
        # path's own send loop, which pulls the backlog itself right after.
        with self._lock:
            self._paused = False

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until an event (or end-of-stream) is available."""
        if not self._sent_preamble:
            return True
        return self._event.wait(timeout)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.clear()
            self._event.set()
        self._hub.unsubscribe(self)

    @property
    def pending(self) -> int:
        """Events currently queued (bounded by the configured limit)."""
        with self._lock:
            return len(self._queue)


class SSEHub:
    """Fan-out point for SSE events, with optional loop/ticker plumbing.

    ``loop`` binds the hub at construction (the same as :meth:`register`).
    """

    def __init__(
        self,
        queue_limit: int = 64,
        policy: str = "drop",
        on_drop: Optional[Callable[[], None]] = None,
        loop=None,
    ) -> None:
        if policy not in ("drop", "disconnect"):
            raise ValueError("sse policy must be 'drop' or 'disconnect'")
        self.queue_limit = queue_limit
        self.policy = policy
        self._on_drop = on_drop
        self._lock = threading.Lock()
        self._subscribers: set[SSESubscriber] = set()
        self._notify_pending: set[SSESubscriber] = set()
        self._loop = loop
        self._ticker: Optional[threading.Thread] = None
        self._ticker_stop = threading.Event()
        self._closed = False
        self.events_published = 0
        self.events_dropped = 0

    # -- subscription ----------------------------------------------------------

    def subscribe(self) -> SSESubscriber:
        subscriber = SSESubscriber(self, self.queue_limit, self.policy)
        with self._lock:
            if self._closed:
                subscriber.end_stream()
            else:
                self._subscribers.add(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: SSESubscriber) -> None:
        with self._lock:
            self._subscribers.discard(subscriber)
            self._notify_pending.discard(subscriber)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    # -- publishing (any thread) -----------------------------------------------

    def publish(self, data: str, event: Optional[str] = None,
                event_id: Optional[str] = None) -> int:
        """Deliver one event to every subscriber; returns the fan-out count."""
        payload = format_sse_event(data, event=event, event_id=event_id)
        with self._lock:
            if self._closed:
                return 0
            self.events_published += 1
            targets = list(self._subscribers)
        self._notify([subscriber for subscriber in targets if subscriber.enqueue(payload)])
        return len(targets)

    def _count_drop(self) -> None:
        self.events_dropped += 1
        if self._on_drop is not None:
            self._on_drop()

    # -- event-loop plumbing ---------------------------------------------------

    def register(self, loop) -> None:
        """Bind the hub to a loop so ready-callbacks run on the loop thread."""
        self._loop = loop

    def unregister(self, loop) -> None:
        """Unbind the hub: later publishes notify nobody."""
        self._loop = None

    def _notify(self, subscribers) -> None:
        """Mark ``subscribers`` ready; post one dispatch per pending batch."""
        loop = self._loop
        if loop is None or not subscribers:
            return
        with self._lock:
            post = not self._notify_pending
            self._notify_pending.update(subscribers)
        if post:
            loop.call_soon(self._dispatch)

    def _dispatch(self) -> None:
        """Fire the ready-callback of every subscriber with pending data."""
        try:
            with self._lock:
                pending = list(self._notify_pending)
                self._notify_pending.clear()
            for subscriber in pending:
                subscriber.notify_ready()
        except Exception:
            # Crash barrier (lint rule RL005): runs as a posted loop
            # callback; a subscriber-callback bug must not kill the loop.
            logger.exception("unhandled error dispatching SSE notifies (absorbed)")

    # -- heartbeat ticker ------------------------------------------------------

    def start_ticker(self, interval: float) -> None:
        """Publish monotonically numbered ``tick`` events every ``interval``.

        A plain daemon thread in every architecture: ``publish`` is
        thread-safe and event-driven consumers are reached through the
        loop's ``call_soon``, so the loop never runs the ticker itself.
        """
        if interval <= 0 or self._ticker is not None:
            return
        self._ticker_stop.clear()
        self._ticker = threading.Thread(
            target=self._ticker_main, args=(interval,),
            name="sse-ticker", daemon=True,
        )
        self._ticker.start()

    def _ticker_main(self, interval: float) -> None:
        for tick in itertools.count():
            if self._ticker_stop.wait(interval):
                return
            self.publish(
                f'{{"tick": {tick}, "time": {time.time():.3f}}}',
                event="tick", event_id=str(tick),
            )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """End every subscription (backlog still delivers).  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            subscribers = list(self._subscribers)
        self._ticker_stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=2.0)
            self._ticker = None
        for subscriber in subscribers:
            subscriber.end_stream()
        self._notify(subscribers)


__all__ = [
    "SSE_PREAMBLE",
    "SSEHub",
    "SSESubscriber",
    "format_sse_event",
]
