# repro-lint: domain=event
"""Streaming response production: the ``ResponseSource`` protocol.

Everything the server sent before this module existed was a complete
response known up front — a ``StaticContent`` whose header and body
buffers (or sendfile windows) are fixed before the first byte leaves.
The paper's architecture claims are about *never blocking the loop*, and
the fixed-length shape is the easy case: the send path always has bytes
in hand, so the only flow control needed is "stop when the socket is
full".  Chunked generators, streaming CGI children and SSE subscriptions
break that assumption in both directions at once: the *producer* may
momentarily have nothing (the child has not written yet, no event has
been published), and the *consumer* may stop draining while the producer
keeps going.  This module is the protocol that mediates the two.

``ResponseSource`` protocol
---------------------------

``next_segment() -> bytes | WOULD_BLOCK | END_OF_STREAM``
    Hand the send path the next body segment.  ``WOULD_BLOCK`` means
    "nothing right now, more may come" — the connection parks until the
    source's bound ready-callback fires.  ``END_OF_STREAM`` is final.
``pause() / resume()``
    Driven by send-buffer pressure: when the consumer's socket stops
    draining, the send path pauses the source so the producer stops
    being notified/fed (the SSE hub stops waking the subscriber, the CGI
    chunk queue fills and blocks the child) instead of ballooning heap.
``close()``
    Releases whatever the source pins — cancels the CGI child's
    delivery, unsubscribes from the hub — on normal completion, reap,
    or drain force-close.  Idempotent.
``bind(on_ready)``
    Install the callback the source invokes (on the event-loop thread)
    when new data arrives after a ``WOULD_BLOCK``.  Blocking-architecture
    callers never bind; they drive :meth:`ResponseSource.wait` instead.

Fixed-length bodies (a ``StaticContent``) do not go through a source:
their bytes are complete before the first one leaves, so
:func:`repro.core.send_path.choose_send_path` hands them straight to the
segment sender.  The streaming path shares that sender's vector writer —
a stream is the same cursor over byte buffers, refilled one framed segment
at a time.

Framing
-------

:class:`StreamingSendPath` implements the send-state contract
(``send``/``done``/``under_delivered``/``release``) over a source.  With
``chunked=True`` each segment is wrapped in ``Transfer-Encoding:
chunked`` framing and the stream ends with the ``0\\r\\n\\r\\n``
terminator; with ``chunked=False`` (the HTTP/1.0 fallback) segments go
out raw and the *connection close* delimits the body, so the owner must
not reuse the connection.  A source that fails mid-stream (CGI child
died after the header left) cannot be turned into an error response any
more; the send path marks itself ``under_delivered`` and suppresses the
chunked terminator so the client sees unambiguous truncation.
"""

from __future__ import annotations

import socket
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.core.send_path import SendPath


class _Sentinel:
    """Named singleton markers returned by ``next_segment``."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self._name


#: ``next_segment()`` result: no data right now, more may come later.
WOULD_BLOCK = _Sentinel("WOULD_BLOCK")
#: ``next_segment()`` result: the stream has ended normally.
END_OF_STREAM = _Sentinel("END_OF_STREAM")

Segment = Union[bytes, _Sentinel]


class ResponseSource:
    """Base class (and default no-op behaviour) for response sources."""

    #: True when the stream terminated abnormally after the header was
    #: committed (e.g. the producing CGI child raised mid-stream).  The
    #: send path turns this into ``under_delivered`` so the connection is
    #: not reused with desynchronized framing.
    failed = False

    def __init__(self) -> None:
        self._on_ready: Optional[Callable[[], None]] = None

    # -- data ------------------------------------------------------------------

    def next_segment(self) -> Segment:
        """Return the next body segment, ``WOULD_BLOCK`` or ``END_OF_STREAM``."""
        raise NotImplementedError

    # -- flow control ----------------------------------------------------------

    def pause(self) -> None:
        """Consumer stopped draining: stop producing/notifying."""

    def resume(self) -> None:
        """Consumer drained its backlog: producing/notifying may continue."""

    def close(self) -> None:
        """Release pins/children/subscriptions.  Idempotent."""

    # -- readiness plumbing ----------------------------------------------------

    def bind(self, on_ready: Callable[[], None]) -> None:
        """Install the data-arrived callback (event-driven consumers)."""
        self._on_ready = on_ready

    def notify_ready(self) -> None:
        """Invoke the bound ready-callback, if any.

        Must be called on the thread that owns the consumer (for the
        event-driven builds: the loop thread — the CGI runner and SSE hub
        both route their cross-thread arrivals through a loop-registered
        wakeup channel before calling this).
        """
        callback = self._on_ready
        if callback is not None:
            callback()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until data may be available (blocking-architecture drive).

        Returns True if the source believes a ``next_segment`` call is
        worthwhile.  The default implementation returns True immediately:
        sources that can genuinely be empty override this with a real
        condition wait.
        """
        return True


class IterableSource(ResponseSource):
    """Adapt a bytes iterator/generator to the source protocol.

    The simplest incremental producer: each ``next_segment`` pulls one
    item eagerly.  It never returns ``WOULD_BLOCK`` — a generator that
    wants pacing should be run through the CGI runner, whose bounded
    chunk queue supplies the asynchrony.  ``close`` closes the generator
    so its ``finally`` blocks run even when the consumer is reaped
    mid-stream.
    """

    def __init__(self, iterable: Iterable) -> None:
        super().__init__()
        self._iterator: Optional[Iterator] = iter(iterable)

    def next_segment(self) -> Segment:
        while self._iterator is not None:
            try:
                item = next(self._iterator)
            except StopIteration:
                self._iterator = None
                return END_OF_STREAM
            except Exception:
                self.failed = True
                self._iterator = None
                return END_OF_STREAM
            if isinstance(item, str):
                item = item.encode("utf-8")
            if len(item):
                return bytes(item)
        return END_OF_STREAM

    def close(self) -> None:
        iterator, self._iterator = self._iterator, None
        if iterator is not None:
            closer = getattr(iterator, "close", None)
            if closer is not None:
                closer()


#: Chunked-framing terminator: the zero-size chunk plus final CRLF.
CHUNKED_TERMINATOR = b"0\r\n\r\n"


def chunk_frame(segment) -> list:
    """Wrap one non-empty segment in ``Transfer-Encoding: chunked`` framing."""
    return [b"%x\r\n" % len(segment), segment, b"\r\n"]


class StreamingSendPath:
    """Send-state implementation over a :class:`ResponseSource`.

    Drives the source one segment at a time, keeping at most one segment
    (plus its framing) buffered: backpressure propagates to the producer
    instead of accumulating here.  The pause/resume edges are
    level-triggered on "unflushed bytes remain after a send attempt":

    * a send attempt that leaves framed bytes unflushed (``EAGAIN`` or a
      short write) pauses the source and reports the edge through
      ``on_pause`` (the ``backpressure_pauses`` counter);
    * the attempt that finally flushes the backlog resumes it.

    When the buffer is empty and the source reports ``WOULD_BLOCK``,
    :attr:`waiting_on_source` turns True: the connection drops its write
    interest entirely and parks until the source's ready-callback fires —
    an idle SSE subscriber costs no loop wakeups.
    """

    def __init__(
        self,
        header,
        source: ResponseSource,
        *,
        chunked: bool,
        on_pause: Optional[Callable[[], None]] = None,
        on_resume: Optional[Callable[[], None]] = None,
    ) -> None:
        #: The frame buffer: the header, then one framed segment at a time.
        self._writer = SendPath([header])
        #: The producer; ``None`` once released.  Owners read it to bind
        #: a ready-callback or to wait on a stream that has run dry.
        self.source: Optional[ResponseSource] = source
        self._chunked = chunked
        self._on_pause = on_pause
        self._on_resume = on_resume
        self._source_done = False
        self._paused = False
        self.under_delivered = False

    # -- state -----------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the terminator (or final raw segment) is on the wire."""
        return self._source_done and self._writer.done

    @property
    def paused(self) -> bool:
        """True while send-buffer pressure has the source paused."""
        return self._paused

    @property
    def waiting_on_source(self) -> bool:
        """Nothing buffered and the source has nothing yet: park the writer."""
        return self._writer.done and not self._source_done

    # -- transmission ----------------------------------------------------------

    def send(self, sock: socket.socket) -> int:
        """Transmit what the socket accepts now; returns the byte count.

        Pulls from the source only when the frame buffer is empty, so a
        stalled socket never drags more segments out of the producer.
        """
        total = 0
        writer = self._writer
        while True:
            if writer.done:
                self._maybe_resume()
                if not self._refill():
                    break
            total += writer.send(sock)
            if not writer.done:
                # EAGAIN or a short write: the socket buffer is full.
                self._maybe_pause()
                return total
        self._maybe_resume()
        return total

    def _refill(self) -> bool:
        """Pull the next segment into the frame buffer.  False = nothing."""
        if self._source_done or self.source is None:
            return False
        while True:
            segment = self.source.next_segment()
            if segment is WOULD_BLOCK:
                return False
            if segment is END_OF_STREAM:
                self._source_done = True
                if self.source.failed:
                    # The header already promised a body we cannot finish:
                    # suppress the terminator so truncation is unambiguous,
                    # and force the owner to close instead of reusing.
                    self.under_delivered = True
                elif self._chunked:
                    self._writer.extend([CHUNKED_TERMINATOR])
                    return True
                return False
            if not len(segment):
                continue  # an empty chunk would terminate the framing early
            self._writer.extend(chunk_frame(segment) if self._chunked else [segment])
            return True

    # -- backpressure edges ----------------------------------------------------

    def _maybe_pause(self) -> None:
        if self._paused or self.source is None or self._source_done:
            return
        self._paused = True
        self.source.pause()
        if self._on_pause is not None:
            self._on_pause()

    def _maybe_resume(self) -> None:
        if not self._paused:
            return
        self._paused = False
        if self.source is not None:
            self.source.resume()
        if self._on_resume is not None:
            self._on_resume()

    # -- teardown --------------------------------------------------------------

    def release(self) -> None:
        """Drop buffers and close the source (releases its pins/children).

        Marks the stream finished so ``done`` reports True afterwards —
        the same post-release contract the fixed-length send paths keep.
        """
        self._writer.release()
        self._source_done = True
        source, self.source = self.source, None
        if source is not None:
            source.close()


__all__ = [
    "CHUNKED_TERMINATOR",
    "END_OF_STREAM",
    "IterableSource",
    "ResponseSource",
    "StreamingSendPath",
    "WOULD_BLOCK",
    "chunk_frame",
]
