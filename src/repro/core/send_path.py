"""Response transmission: one segment sender, vectored writes plus sendfile.

The Flash paper attributes a large share of SPED/AMPED throughput to
eliminating data copies on the response path.  This module implements that
layer as a single sender, :class:`SendPath`, which every architecture
drives one non-blocking step at a time over an ordered *segment list*:
byte buffers (headers, multipart framing, CGI output) leave through
``socket.sendmsg`` — a writev-style vectored write that coalesces header
and body into one system call — and file windows leave through
``os.sendfile`` directly from the cached open descriptor, so file data
never crosses into user space at all.  A *buffered* response (zero-copy
off, or a ``sendfile`` that means "not supported here" mid-transfer)
turns the windows at the cursor into bytes just before it writes, by
bounded positional reads from the same descriptor, resuming at the exact
byte offset already reached.

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
    Drop all segments and release the pinned responses; the descriptor
    behind a file window is *not* closed here (its refcount is owned by
    the FileDescriptorCache).
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
never the bytes.  A plain hot hit on an event-driven connection with an
empty queue and nothing pipelined skips the queue:
:meth:`SendPath.write_through` sends it straight from the hot entry, and
the queue is entered only on a short write, from the exact cursor.
"""

from __future__ import annotations

import errno
import os
import select
import socket
import struct
from typing import Sequence

#: Cap on buffers per vectored write; IOV_MAX is at least 16 everywhere and
#: 1024 on Linux — 64 covers a pipelined burst of small answers.
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
#: burst pins at most this much plus one response.  Also the most file
#: bytes a buffered send reads ahead of the socket.
QUEUE_BYTES = 256 * 1024


def sendfile_available() -> bool:
    """Whether this platform offers ``os.sendfile`` at all."""
    return hasattr(os, "sendfile")


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


# The sendfile in_fd is a regular file: the call copies from the page
# cache and returns EAGAIN on a full socket; a cold page blocks the
# process exactly as the paper describes, which is why AMPED gates
# transmission on the residency test first.
# repro-lint: allow[RL001] -- sock is the connection's socket, already O_NONBLOCK (accept path; MT/MP: socket timeout): send returns EAGAIN instead of blocking
class SendPath:
    """Transmit an ordered segment list with non-blocking writes.

    A segment is one of two kinds, told apart by type:

    * a byte buffer (``bytes``, ``bytearray`` or ``memoryview``) — response
      headers, multipart framing, CGI output;
    * a file window, the tuple ``(content, offset, length)`` — ``length``
      bytes at ``offset`` of the descriptor ``content.file_handle`` pins,
      transmitted zero-copy with ``os.sendfile`` unless ``content.buffered``.

    Consecutive buffers leave in one ``sendmsg`` (at most ``_MAX_IOV`` per
    call, with ``MSG_MORE`` when a file window follows so header and body
    still travel as one segment stream); each window is an iterated
    ``sendfile`` of at most ``_MAX_SENDFILE`` bytes per call.  A plain
    200/206 is ``[header, window]``; a ``multipart/byteranges`` 206 is
    ``[header, head, window, head, window, ..., trailer]``.  A buffered
    window is read into bytes when the cursor's run of buffers reaches it
    (see :meth:`_read_ahead`), so it joins that run's ``sendmsg``.  One
    cursor (segment index plus bytes into that segment) remembers progress
    across ``EAGAIN`` and short writes.

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

    __slots__ = ("_segments", "_index", "_offset", "_store", "under_delivered", "unsent", "pins")

    #: A fixed segment list never waits on a producer (send-state contract).
    waiting_on_source = False

    def __init__(self, segments: Sequence, store=None) -> None:
        self._segments = []
        self._index = 0
        self._offset = 0
        self._store = store
        #: True when a window ended short of its promised length (the file
        #: shrank mid-transfer and the read could not cover the rest).
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

    @staticmethod
    def write_through(sock: socket.socket, header: bytes, handle, offset: int, length: int) -> int:
        """Send ``header`` (``MSG_MORE``), then ``sendfile`` ``length`` bytes
        at ``offset`` of ``handle``; stop at the first short write and
        return the bytes moved.

        What did not move (a full socket, a descriptor ``sendfile`` refuses
        here, a shrunken file) the caller queues from the returned cursor,
        for :meth:`_send_step` to retry.  Disconnects propagate.
        """
        sent = 0
        try:
            sent = sock.send(header, _MSG_MORE)
            if sent == len(header):
                sent += os.sendfile(sock.fileno(), handle.fd, offset, min(length, _MAX_SENDFILE))
        except (BlockingIOError, InterruptedError):
            pass
        except OSError as exc:
            if exc.errno not in SENDFILE_FALLBACK_ERRNOS:
                raise
        return sent

    def _send_step(self, sock: socket.socket) -> int:
        """One system call of progress from the cursor; 0 = nothing moved."""
        segments = self._segments
        index = self._index
        segment = segments[index]
        if type(segment) is tuple and not segment[0].buffered:
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
            # (file truncated underneath us): the rest of this response
            # leaves buffered — or fails deterministically — instead of
            # spinning on sendfile.  Counted once per response.
            content.buffered = True
            with self._store.stats_lock():
                self._store.stats.sendfile_fallbacks += 1
            segments[index] = (content, start + done, length - done)
            self._offset = 0
        # Coalesce the run of buffers up to the next file window into one
        # writev-style call; a buffered window in the way is read first.
        end = index
        limit = min(len(segments), index + _MAX_IOV)
        while end < limit and type(segments[end]) is not tuple:
            end += 1
        if end < limit and segments[end][0].buffered:
            end = self._read_ahead()
            if index >= len(segments):
                return 0
        head = segments[index]
        if self._offset:
            head = memoryview(head)[self._offset :]
        flags = _MSG_MORE if end < len(segments) and type(segments[end]) is tuple else 0
        if end - index > 1 and _HAS_SENDMSG:
            sent = sock.sendmsg([head, *segments[index + 1 : end]], (), flags)
        else:
            sent = sock.send(head, flags)
        self._advance(sent)
        return sent

    def _read_ahead(self) -> int:
        """The end of the run of buffers at the cursor, one ``sendmsg``'s worth.

        The run stops at a ``sendfile`` window or after ``_MAX_IOV``
        segments.  A buffered window inside it is read into bytes here
        (:meth:`StaticContent.window_buffers`), so header and body — or a
        pipelined burst — still leave in one call; the reads stop once the
        run holds ``QUEUE_BYTES``, and the rest of that window stays a
        window for the next step.  A read that comes up short (the file
        shrank) ends the segment list there: the promised framing is
        already broken, and anything past the truncation point would only
        desynchronize further.
        """
        segments = self._segments
        end = self._index
        limit = min(len(segments), end + _MAX_IOV)
        held = 0
        while end < limit:
            segment = segments[end]
            if type(segment) is not tuple:
                held += len(segment)
                end += 1
                continue
            content, start, length = segment
            if not content.buffered or held >= QUEUE_BYTES:
                break
            want = min(length, QUEUE_BYTES - held)
            # A 0-byte write reads as EAGAIN: drop empty reads.
            buffers = [buf for buf in content.window_buffers(start, want) if len(buf)]
            got = sum(len(buf) for buf in buffers)
            if got < want:
                self.under_delivered = True
                segments[end:] = buffers
                return len(segments)
            if got < length:
                buffers.append((content, start + got, length - got))
            segments[end : end + 1] = buffers
            limit = min(len(segments), self._index + _MAX_IOV)
        return end

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

        A descriptor is never closed here: its refcount belongs to the
        FileDescriptorCache.
        """
        self._segments = []
        self._index = 0
        self._offset = 0
        self.unsent = 0
        pins, self.pins = self.pins, []
        for content in pins:
            content.release(self._store)


def wire_segments(content, *, config, stats) -> list:
    """The :class:`SendPath` segments of one static response.

    A body with bytes goes out as file windows over its pinned descriptor
    (one per body part, its framing buffered before it); a bodyless answer
    (HEAD, 304, 412, 416, an empty file) is the header alone.  The windows
    leave by ``sendfile`` — counted here as ``sendfile_responses`` — when
    zero-copy is enabled and the platform has it; otherwise the response
    is marked ``buffered`` and they leave by bounded positional reads.
    Both carry exactly the same bytes.
    """
    if content.file_handle is None:
        return [content.header]
    if not (config.zero_copy and sendfile_available()):
        content.buffered = True
    elif not content.buffered:
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
