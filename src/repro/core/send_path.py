"""Response transmission: one segment sender, vectored writes plus sendfile.

The Flash paper attributes a large share of SPED/AMPED throughput to
eliminating data copies on the response path.  This module implements that
layer as a single sender, :class:`SendPath`, which every architecture
drives one non-blocking step at a time over an ordered *segment list*:
byte buffers (headers, multipart framing, mapped-chunk views) leave through
``socket.sendmsg`` — a writev-style vectored write that coalesces header
and body into one system call — and file windows leave through
``os.sendfile`` directly from the cached open descriptor, so file data
never crosses into user space at all.  ``sendfile`` failures that mean
"not supported here" degrade gracefully mid-transfer: the rest of that one
window is replaced by buffered bytes, resuming at the exact byte offset
already reached.

Send-state contract
-------------------

What the connection state machine and the blocking handler program
against (:class:`~repro.core.streaming.StreamingSendPath` honours the same
contract over a producer):

``send(sock) -> int``
    Transmit as much as the socket accepts *right now* and return the byte
    count.  Never blocks: a full socket buffer (``EAGAIN``) simply ends the
    attempt with progress remembered, and the caller retries when the
    socket selects writable.
``done -> bool``
    True once every byte of the response (header and body, via whichever
    mechanism) has been handed to the kernel.
``under_delivered -> bool``
    True when fewer body bytes than the header promised were delivered
    (the file shrank mid-transfer and the fallback could not cover the
    rest).  The owner must then close the connection instead of reusing it
    — another response on the same connection would desynchronize
    keep-alive framing.
``release()``
    Drop all buffer views so pinned mapped chunks can be unmapped; the
    descriptor behind a file window is *not* closed here (its refcount is
    owned by the FileDescriptorCache).
``waiting_on_source -> bool``
    True while a streamed response has flushed everything and its
    producer has nothing yet: the owner parks instead of waiting for
    writability, and no write budget runs.  Always False here.

Short writes, ``EAGAIN`` and client disconnects are the callers' three
interesting cases; the first two are absorbed here (progress is
remembered), the third surfaces as the usual
``ConnectionError``/``OSError`` for the connection to handle.

Output queue
------------

Every connection, on every architecture, has one output queue: a
:class:`SendPath` to which pipelined answers are appended while
:meth:`~repro.core.session.Session.hold` says so, so a burst of buffered
answers leaves in one vectored write.  Queuing changes the syscall count,
never the bytes.
"""

from __future__ import annotations

import errno
import os
import select
import socket
import struct
from typing import Sequence

#: Cap on buffers per vectored write; IOV_MAX is at least 16 everywhere and
#: 1024 on Linux — 64 covers a header plus every chunk of the largest files.
_MAX_IOV = 64

#: Cap on bytes per sendfile call (the largest count Linux accepts).
_MAX_SENDFILE = 0x7FFF_F000

#: ``sendfile`` errors that mean "this fd/socket combination cannot do
#: zero-copy here" rather than "the connection died": fall back to buffered.
SENDFILE_FALLBACK_ERRNOS = frozenset(
    code
    for code in (
        getattr(errno, "EINVAL", None),
        getattr(errno, "ENOSYS", None),
        getattr(errno, "EOPNOTSUPP", None),
        getattr(errno, "ENOTSOCK", None),
        getattr(errno, "EOVERFLOW", None),
        getattr(errno, "ESPIPE", None),
    )
    if code is not None
)

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")

#: Hint that more data follows immediately (Linux): lets the kernel merge
#: the response header with the first sendfile payload instead of flushing
#: a tiny header-only segment (TCP_NODELAY is set on every connection).
_MSG_MORE = getattr(socket, "MSG_MORE", 0)

#: The output queue's bound: pipelined answers stop joining a queue once
#: this many of its bytes are unsent (file windows count by length), so a
#: burst pins at most this much plus one response.
QUEUE_BYTES = 256 * 1024


def sendfile_available() -> bool:
    """Whether this platform offers ``os.sendfile`` at all."""
    return hasattr(os, "sendfile")


def window_views(buffers: Sequence, offset: int, length: int) -> list:
    """Slice a ``(offset, length)`` window out of a buffer sequence.

    The buffers are treated as one contiguous byte stream (the way the
    mapped-chunk views of a file body are); the result is a list of
    zero-copy ``memoryview`` slices covering exactly the window.  Used by
    the Range send paths: a 206 body is an arbitrary window over the same
    pinned chunks a 200 transmits in full.
    """
    views: list[memoryview] = []
    skip = offset
    remaining = length
    for buf in buffers:
        if remaining <= 0:
            break
        view = memoryview(buf)
        if skip >= len(view):
            skip -= len(view)
            continue
        if skip:
            view = view[skip:]
            skip = 0
        if len(view) > remaining:
            view = view[:remaining]
        if len(view):
            views.append(view)
        remaining -= len(view)
    return views


def reset_on_close(sock: socket.socket) -> None:
    """Make the coming ``close`` abortive (RST): the write-stall reaping.

    An orderly close would leave the kernel background-flushing the send
    buffer to a peer that is not reading — megabytes the stalled reader
    keeps pinned long after the application forgot the connection.  RST
    frees that memory with the fd.
    """
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    except OSError:
        pass


# repro-lint: allow[RL001] -- the peek runs only after poll reports the socket readable: recv returns at once (MT/MP sockets carry a timeout that would otherwise wait first)
def peek_peer(sock: socket.socket):
    """Peek at a parked stream's peer: ``None`` while silent, ``b""`` once
    it closed, else its first byte (left in the kernel buffer for the
    parser after the stream).  An idle stream owes no write budget, so
    this is what notices a client hanging up; a reset raises."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    if not poller.poll(0):
        return None
    try:
        return sock.recv(1, socket.MSG_PEEK)
    except (BlockingIOError, InterruptedError):
        return None


class SendPath:
    """Transmit an ordered segment list with non-blocking writes.

    A segment is one of two kinds, told apart by type:

    * a byte buffer (``bytes``, ``bytearray`` or ``memoryview``) — response
      headers, multipart framing, mapped-chunk views, CGI output;
    * a file window, the tuple ``(content, offset, length)`` — ``length``
      bytes at ``offset`` of the descriptor ``content.file_handle`` pins,
      transmitted zero-copy with ``os.sendfile``.

    Consecutive buffers leave in one ``sendmsg`` (at most ``_MAX_IOV`` per
    call, with ``MSG_MORE`` when a file window follows so header and body
    still travel as one segment stream); each window is an iterated
    ``sendfile`` of at most ``_MAX_SENDFILE`` bytes per call.  A plain
    200/206 is ``[header, window]``; a ``multipart/byteranges`` 206 is
    ``[header, head, window, head, window, ..., trailer]``; a buffered
    response is all buffers.  One cursor (segment index plus bytes into
    that segment) remembers progress across ``EAGAIN`` and short writes.

    Parameters
    ----------
    segments:
        The segments in transmission order; empty ones are dropped.
    store:
        The :class:`~repro.core.pipeline.ContentStore` whose
        ``sendfile_fallbacks`` counter records a degradation.  Only
        consulted on that rare path, so senders that never carry a file
        window (error pages, CGI output) may omit it.
    """

    __slots__ = (
        "_segments", "_index", "_offset", "_store", "_degraded", "under_delivered", "unsent", "pins"
    )

    #: A fixed segment list never waits on a producer (send-state contract).
    waiting_on_source = False

    def __init__(self, segments: Sequence, store=None) -> None:
        self._segments = []
        self._index = 0
        self._offset = 0
        self._store = store
        #: The response whose window last degraded: the latch that makes a
        #: response degrading several windows count as one fallback.
        self._degraded = None
        #: True when a window ended short of its promised length (the file
        #: shrank mid-transfer and the fallback could not cover the rest).
        #: The header already promised those bytes, so the owner must close
        #: the connection rather than reuse it.
        self.under_delivered = False
        #: Bytes not yet handed to the kernel, file windows by length: what
        #: the output queue's bound (:data:`QUEUE_BYTES`) is measured in.
        self.unsent = 0
        #: The responses released with this sender (see :meth:`pin`).
        self.pins: list = []
        self.extend(segments)

    @property
    def done(self) -> bool:
        """True once every segment is fully handed to the kernel."""
        return self._index >= len(self._segments)

    def send(self, sock: socket.socket) -> int:
        """Write as much as the socket accepts now; returns bytes written.

        A full socket buffer (``EAGAIN``) simply stops the attempt — call
        again when the socket selects writable.  Connection failures
        propagate to the caller.
        """
        total = 0
        try:
            while self._index < len(self._segments):
                sent = self._send_step(sock)
                if sent == 0:
                    break
                total += sent
        except (BlockingIOError, InterruptedError):
            pass
        self.unsent -= total
        return total

    # The sendfile in_fd is a regular file: the call copies from the page
    # cache and returns EAGAIN on a full socket; a cold page blocks the
    # process exactly as the paper describes, which is why AMPED gates
    # transmission on the residency test first.
    # repro-lint: allow[RL001] -- sock is the connection's socket, already O_NONBLOCK (accept path; MT/MP: socket timeout): send returns EAGAIN instead of blocking
    def _send_step(self, sock: socket.socket) -> int:
        """One system call of progress from the cursor; 0 = nothing moved."""
        segments = self._segments
        segment = segments[self._index]
        if type(segment) is tuple:
            content, start, length = segment
            done = self._offset
            try:
                sent = os.sendfile(
                    sock.fileno(),
                    content.file_handle.fd,
                    start + done,
                    min(length - done, _MAX_SENDFILE),
                )
            except OSError as exc:
                if exc.errno not in SENDFILE_FALLBACK_ERRNOS:
                    raise
                sent = 0
            if sent:
                if done + sent >= length:
                    self._index += 1
                    self._offset = 0
                else:
                    self._offset = done + sent
                return sent
            # Unsupported fd/socket pair, or EOF before the promised count
            # (file truncated underneath us): finish this window buffered —
            # or fail deterministically — instead of spinning on sendfile.
            self._degrade(content, start + done, length - done)
            if self._index >= len(segments):
                return 0
        index = self._index
        head = segments[index]
        if self._offset:
            head = memoryview(head)[self._offset :]
        # Coalesce the run of buffers up to the next file window into one
        # writev-style call.
        end = index + 1
        limit = min(len(segments), index + _MAX_IOV)
        while end < limit and type(segments[end]) is not tuple:
            end += 1
        flags = _MSG_MORE if end < len(segments) and type(segments[end]) is tuple else 0
        if end - index > 1 and _HAS_SENDMSG:
            sent = sock.sendmsg([head, *segments[index + 1 : end]], (), flags)
        else:
            sent = sock.send(head, flags)
        self._advance(sent)
        return sent

    def _advance(self, sent: int) -> None:
        segments = self._segments
        while sent > 0:
            left_in_buffer = len(segments[self._index]) - self._offset
            if sent >= left_in_buffer:
                sent -= left_in_buffer
                self._index += 1
                self._offset = 0
            else:
                self._offset += sent
                sent = 0

    def _degrade(self, content, offset: int, remaining: int) -> None:
        """Replace the rest of the current window with buffered bytes.

        ``offset`` is the exact file byte ``sendfile`` reached, so bytes
        are never duplicated or skipped across the degradation.  The
        replacement comes from :meth:`StaticContent.window_buffers` — the
        response's pinned chunk views, else one positional read.
        """
        if content is not self._degraded:
            self._degraded = content
            with self._store.stats_lock():
                self._store.stats.sendfile_fallbacks += 1
        buffers = _live(content.window_buffers(offset, remaining))
        if sum(len(buf) for buf in buffers) < remaining:
            # The promised framing is already broken; transmitting anything
            # past the truncation point would only desynchronize further.
            self.under_delivered = True
            self._segments[self._index :] = buffers
        else:
            self._segments[self._index : self._index + 1] = buffers
        self._offset = 0

    def extend(self, segments) -> None:
        """Append segments (of either kind), or a fresh SendPath's answer.

        The output queue's append and the streaming path's frame-at-a-time
        refill.  Appending never disturbs progress — the cursor only ever
        points at bytes not yet handed to the kernel — and a finished
        sender drops what it already sent first, so a long-lived stream
        does not accumulate its history.  Nothing joins a sender whose
        window came up short: the framing behind it is already broken.
        """
        if self._index >= len(self._segments):
            self._segments = []
            self._index = 0
        if type(segments) is SendPath:
            self.pins += segments.pins
            segments = segments._segments
        if self.under_delivered:
            return
        for segment in segments:
            size = segment[2] if type(segment) is tuple else len(segment)
            if size:  # a 0-byte write reads as EAGAIN
                self._segments.append(segment)
                self.unsent += size

    def pin(self, content) -> "SendPath":
        """Release ``content`` (a static response) with this sender; returns it.

        An answer's pins travel with its segments into an output queue, and
        outlive the answer there until the whole queue is released.
        """
        self.pins.append(content)
        return self

    def release(self) -> None:
        """Drop all segments, then release every pinned response.

        In that order: the buffered path holds memoryviews over mapped
        chunks, which must be dropped before the cache may unmap them.  A
        descriptor is never closed here: its refcount belongs to the
        FileDescriptorCache.
        """
        self._segments = []
        self._index = 0
        self._offset = 0
        self.unsent = 0
        pins, self.pins = self.pins, []
        for content in pins:
            content.release(self._store)


def _live(segments: Sequence) -> list:
    """``segments`` without the empty ones (a 0-byte write reads as EAGAIN)."""
    return [
        segment
        for segment in segments
        if (segment[2] if type(segment) is tuple else len(segment))
    ]


def wire_segments(content, *, config, stats) -> list:
    """The :class:`SendPath` segments of one static response.

    Responses with a pinned open descriptor go out as file windows (one
    per body part, its framing buffered before it) when zero-copy is
    enabled and the platform has ``sendfile`` — counted here as
    ``sendfile_responses``; everything else (HEAD, 304,
    errors, descriptor-cache misses) is the header plus the response's
    buffered body segments.  Both shapes carry exactly the same bytes.
    """
    if content.file_handle is None or not config.zero_copy or not sendfile_available():
        return [content.header, *content.segments]
    stats.sendfile_responses += 1
    segments = [content.header]
    for head, offset, length in content.parts:
        segments.append(head)
        segments.append((content, offset, length))
    segments.append(content.trailer)
    return segments


def choose_send_path(content, *, store, config, stats) -> SendPath:
    """Build the sender for a static response: zero-copy when possible.

    The single constructor shared by the slow pipeline, the hot-response
    fast path and the blocking (MT/MP) handler — all hand it a
    :class:`~repro.core.pipeline.StaticContent`.
    """
    return SendPath(wire_segments(content, config=config, stats=stats), store)
