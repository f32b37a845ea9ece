"""Unit tests for the SSE pub/sub hub and its bounded subscriber queues.

The hub is the heap-side half of the streaming backpressure story: a
paused subscriber accumulates events in a *bounded* deque, and overflow
follows one of two policies — ``drop`` discards the oldest event and
counts it, ``disconnect`` ends the stream after the backlog delivers.
These tests pin the event framing, both policies, the fan-out path, the
heartbeat ticker, and the lifecycle (close is idempotent, a closed hub
hands out already-ended subscriptions).
"""

import threading
import time

import pytest

from repro.core.event_loop import EventLoop
from repro.core.sse import SSE_PREAMBLE, SSEHub, format_sse_event
from repro.core.streaming import END_OF_STREAM, WOULD_BLOCK


class TestFormatSSEEvent:
    def test_data_only(self):
        assert format_sse_event("hello") == b"data: hello\n\n"

    def test_event_and_id_lines_precede_data(self):
        framed = format_sse_event("x", event="tick", event_id="7")
        assert framed == b"id: 7\nevent: tick\ndata: x\n\n"

    def test_multiline_data_splits_into_data_lines(self):
        assert format_sse_event("a\nb") == b"data: a\ndata: b\n\n"

    def test_empty_data_still_frames(self):
        assert format_sse_event("") == b"data: \n\n"


def collect_available(subscriber):
    """Pull segments until the subscriber has nothing more right now."""
    out = []
    while True:
        segment = subscriber.next_segment()
        if segment is WOULD_BLOCK or segment is END_OF_STREAM:
            return out, segment
        out.append(segment)


class TestSubscriberBasics:
    def test_preamble_is_first_segment(self):
        hub = SSEHub()
        subscriber = hub.subscribe()
        assert subscriber.next_segment() == SSE_PREAMBLE
        assert subscriber.next_segment() is WOULD_BLOCK
        hub.close()

    def test_publish_fans_out_to_every_subscriber(self):
        hub = SSEHub()
        subs = [hub.subscribe() for _ in range(3)]
        assert hub.subscriber_count == 3
        assert hub.publish("one") == 3
        for subscriber in subs:
            assert subscriber.next_segment() == SSE_PREAMBLE
            assert subscriber.next_segment() == b"data: one\n\n"
            assert subscriber.next_segment() is WOULD_BLOCK
        hub.close()

    def test_unsubscribe_stops_delivery(self):
        hub = SSEHub()
        subscriber = hub.subscribe()
        subscriber.close()
        assert hub.subscriber_count == 0
        assert hub.publish("gone") == 0
        hub.close()

    def test_events_deliver_in_order(self):
        hub = SSEHub()
        subscriber = hub.subscribe()
        subscriber.next_segment()                      # preamble
        for i in range(5):
            hub.publish(str(i))
        got, sentinel = collect_available(subscriber)
        assert got == [f"data: {i}\n\n".encode() for i in range(5)]
        assert sentinel is WOULD_BLOCK
        assert subscriber.events_delivered == 5
        hub.close()

    def test_wait_returns_when_event_arrives(self):
        hub = SSEHub()
        subscriber = hub.subscribe()
        subscriber.next_segment()                      # consume preamble
        subscriber.next_segment()                      # WOULD_BLOCK clears the flag
        assert not subscriber.wait(timeout=0.01)
        hub.publish("now")
        assert subscriber.wait(timeout=1.0)
        assert subscriber.next_segment() == b"data: now\n\n"
        hub.close()


class TestLoopBinding:
    def test_publish_from_another_thread_notifies_on_the_loop_thread(self):
        loop = EventLoop()
        hub = SSEHub(loop=loop)
        subscriber = hub.subscribe()
        woken_on = []
        subscriber.bind(lambda: woken_on.append(threading.get_ident()))
        publisher = threading.Thread(target=lambda: [hub.publish(str(i)) for i in range(5)])
        publisher.start()
        publisher.join()
        deadline = time.monotonic() + 5.0
        while not woken_on and time.monotonic() < deadline:
            loop.run_once(timeout=0.05)
        # Five publishes, one pending batch: the dispatch was posted once.
        assert woken_on == [threading.get_ident()]
        hub.close()
        loop.close()

    def test_unbound_hub_posts_nothing(self):
        loop = EventLoop()
        hub = SSEHub(loop=loop)
        hub.unregister(loop)
        subscriber = hub.subscribe()
        subscriber.bind(lambda: pytest.fail("an unbound hub must not notify"))
        hub.publish("quiet")
        assert loop.run_once(timeout=0) == 0
        assert subscriber.pending == 1
        hub.close()
        loop.close()


class TestDropPolicy:
    def test_overflow_discards_oldest_and_counts(self):
        drops = []
        hub = SSEHub(queue_limit=3, policy="drop", on_drop=lambda: drops.append(1))
        subscriber = hub.subscribe()
        subscriber.next_segment()                      # preamble
        for i in range(5):
            hub.publish(str(i))
        assert subscriber.pending == 3
        got, _ = collect_available(subscriber)
        # Oldest two were discarded; the freshest three survive.
        assert got == [b"data: 2\n\n", b"data: 3\n\n", b"data: 4\n\n"]
        assert hub.events_dropped == 2
        assert len(drops) == 2
        hub.close()

    def test_subscriber_stays_connected_after_drops(self):
        hub = SSEHub(queue_limit=1, policy="drop")
        subscriber = hub.subscribe()
        subscriber.next_segment()
        hub.publish("a")
        hub.publish("b")                               # drops "a"
        assert subscriber.next_segment() == b"data: b\n\n"
        assert subscriber.next_segment() is WOULD_BLOCK
        hub.publish("c")                               # still live
        assert subscriber.next_segment() == b"data: c\n\n"
        hub.close()


class TestDisconnectPolicy:
    def test_overflow_ends_stream_after_backlog(self):
        hub = SSEHub(queue_limit=2, policy="disconnect")
        subscriber = hub.subscribe()
        subscriber.next_segment()                      # preamble
        hub.publish("a")
        hub.publish("b")
        hub.publish("c")                               # overflow: marks ended
        got, sentinel = collect_available(subscriber)
        assert got == [b"data: a\n\n", b"data: b\n\n"]
        assert sentinel is END_OF_STREAM
        assert hub.events_dropped == 0
        hub.close()

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SSEHub(policy="explode")


class TestTicker:
    def test_ticker_publishes_tick_events(self):
        hub = SSEHub()
        subscriber = hub.subscribe()
        subscriber.next_segment()                      # preamble
        hub.start_ticker(0.02)
        deadline = time.monotonic() + 5.0
        ticks = []
        while len(ticks) < 2 and time.monotonic() < deadline:
            segment = subscriber.next_segment()
            if segment is WOULD_BLOCK:
                subscriber.wait(timeout=0.1)
                continue
            ticks.append(segment)
        assert len(ticks) >= 2
        assert ticks[0].startswith(b"id: 0\nevent: tick\n")
        assert ticks[1].startswith(b"id: 1\nevent: tick\n")
        hub.close()

    def test_zero_interval_does_not_start_thread(self):
        hub = SSEHub()
        hub.start_ticker(0)
        assert hub._ticker is None
        hub.close()


class TestLifecycle:
    def test_close_delivers_backlog_then_ends(self):
        hub = SSEHub()
        subscriber = hub.subscribe()
        subscriber.next_segment()                      # preamble
        hub.publish("last words")
        hub.close()
        got, sentinel = collect_available(subscriber)
        assert got == [b"data: last words\n\n"]
        assert sentinel is END_OF_STREAM

    def test_close_is_idempotent(self):
        hub = SSEHub()
        hub.close()
        hub.close()

    def test_subscribe_after_close_yields_ended_stream(self):
        hub = SSEHub()
        hub.close()
        subscriber = hub.subscribe()
        assert subscriber.next_segment() == SSE_PREAMBLE
        assert subscriber.next_segment() is END_OF_STREAM
        assert hub.publish("nobody home") == 0

    def test_subscriber_close_is_idempotent_and_clears_queue(self):
        hub = SSEHub()
        subscriber = hub.subscribe()
        hub.publish("pending")
        subscriber.close()
        subscriber.close()
        assert subscriber.pending == 0
        hub.close()

    def test_pause_suppresses_notify_wish(self):
        hub = SSEHub()
        subscriber = hub.subscribe()
        assert subscriber.enqueue(b"data: x\n\n")      # unpaused: wants notify
        subscriber.pause()
        assert not subscriber.enqueue(b"data: y\n\n")  # paused: queue absorbs
        subscriber.resume()
        assert subscriber.enqueue(b"data: z\n\n")
        hub.close()
