"""Admission control and fd-exhaustion guards for every architecture.

A front-end that cannot say *no* collapses exactly where the paper's
architecture comparison stops measuring: past saturation.  Two distinct
overload mechanisms live here, both run by :func:`accept_connection` —
the one accept step that the event-driven builds' accept-readiness
handler and the MT/MP blocking accept loop take alike:

**Connection-count admission** (:meth:`AdmissionController.admit`).
``max_connections`` bounds concurrently open client connections.  Above
the bound the server still *accepts* — leaving arrivals in the listen
backlog would make clients time out silently — but answers a precomposed
``503 Service Unavailable`` carrying ``Retry-After`` and closes.  The
bound has a hysteresis watermark: once shedding starts it continues until
the connection count drains to ``admission_resume × max_connections``, so
a server hovering at the limit sheds in bursts instead of flapping
per-accept.

**Fd-reserve guard** (:meth:`AdmissionController.shed_one_pending`).
When ``accept(2)`` fails with ``EMFILE``/``ENFILE`` there is no spare
descriptor even to accept-and-close, so the pending connection would sit
in the backlog until the client gives up — and a level-triggered event
loop would spin at 100% CPU re-reporting the readable listener.  The
guard holds one *sentinel* descriptor open in reserve; on exhaustion it
closes the sentinel, uses the freed slot to accept one pending
connection, sheds it cleanly (best-effort 503, then close), re-opens the
sentinel, and tells the caller to **pause accepting** until established
connections drain.

:func:`classify_accept_error` is the shared triage for accept
``OSError``\\s — the MT/MP loops used to treat every error the same, which
turned a persistent ``EMFILE`` into a busy-spin (transient errors must be
retried immediately; resource exhaustion must back off; a closed or shut
down listener must end the loop).  What differs per architecture is only
the reaction to the step's outcome: the event loop ends its sweep when
nothing is pending and pauses accept interest on exhaustion; a blocking
worker backs off.
"""

from __future__ import annotations

import errno
import os
import select
import socket
import threading
from typing import Callable, Optional

from repro.testing.faults import faults

__all__ = [
    "AdmissionController",
    "accept_connection",
    "classify_accept_error",
    "shed_response",
    "ACCEPTED",
    "ACCEPT_EMPTY",
    "ACCEPT_TRANSIENT",
    "ACCEPT_RESOURCE",
    "ACCEPT_FATAL",
    "ACCEPT_BACKOFF_INITIAL",
    "ACCEPT_BACKOFF_MAX",
]

#: Exponential backoff bounds for blocking accept loops (MT/MP workers)
#: that hit resource exhaustion: sleep INITIAL, double per consecutive
#: failure, cap at MAX, reset on the first successful accept.
ACCEPT_BACKOFF_INITIAL = 0.05
ACCEPT_BACKOFF_MAX = 1.0

#: Outcomes of :func:`accept_connection` besides the error classes below.
ACCEPTED = "accepted"
ACCEPT_EMPTY = "empty"

#: Accept-error classes returned by :func:`classify_accept_error`.
ACCEPT_TRANSIENT = "transient"
ACCEPT_RESOURCE = "resource"
ACCEPT_FATAL = "fatal"

#: Errors a single arrival can produce (the peer aborted between SYN and
#: accept, a signal interrupted the call): retry the accept immediately.
_TRANSIENT_ERRNOS = frozenset(
    value
    for value in (
        errno.ECONNABORTED,
        errno.EINTR,
        errno.EAGAIN,
        errno.EWOULDBLOCK,
        getattr(errno, "EPROTO", None),
        getattr(errno, "ENETDOWN", None),
        getattr(errno, "ENETUNREACH", None),
        getattr(errno, "EHOSTDOWN", None),
        getattr(errno, "EHOSTUNREACH", None),
    )
    if value is not None
)

#: Errors that mean the *process* (or host) is out of a resource: retrying
#: immediately cannot succeed and spins the CPU; the caller must shed and
#: back off until something drains.
_RESOURCE_ERRNOS = frozenset(
    value
    for value in (
        errno.EMFILE,
        errno.ENFILE,
        errno.ENOBUFS,
        errno.ENOMEM,
    )
    if value is not None
)


def classify_accept_error(exc: OSError) -> str:
    """Triage an ``accept(2)`` failure: transient, resource, or fatal."""
    code = exc.errno
    if code in _TRANSIENT_ERRNOS:
        return ACCEPT_TRANSIENT
    if code in _RESOURCE_ERRNOS:
        return ACCEPT_RESOURCE
    return ACCEPT_FATAL


def accept_connection(listen_sock, store, admission, open_count: Callable[[], int]):
    """The accept step of every build: ``(outcome, client_sock, address)``.

    Only :data:`ACCEPTED` carries a socket to serve.  :data:`ACCEPT_EMPTY`:
    nothing pending.  :data:`ACCEPT_TRANSIENT`: this arrival failed or was
    shed with the 503; take the next.  :data:`ACCEPT_RESOURCE`: out of
    descriptors, one backlogged arrival was shed through the sentinel; stop
    accepting for a while.  :data:`ACCEPT_FATAL`: the listener is gone or
    shut down.  ``connections_accepted``, ``connections_shed`` and
    ``fd_exhaustion_events`` are counted here and nowhere else;
    ``open_count()`` is read after the accept, when it is current.
    """
    try:
        if faults.take("accept_emfile"):
            # Injected fd exhaustion: behave exactly as if accept(2) itself
            # had failed with EMFILE.
            raise OSError(errno.EMFILE, "injected fd exhaustion")
        client_sock, address = listen_sock.accept()
    except (BlockingIOError, InterruptedError):
        return ACCEPT_EMPTY, None, None
    except OSError as exc:
        kind = classify_accept_error(exc)
        if kind == ACCEPT_RESOURCE:
            with store.stats_lock():
                store.stats.fd_exhaustion_events += 1
            admission.shed_one_pending(listen_sock)
        return kind, None, None
    admitted = admission.admit(open_count())
    with store.stats_lock():
        store.stats.connections_accepted += 1
        if not admitted:
            store.stats.connections_shed += 1
    if not admitted:
        # Over the connection bound: answer the precomposed 503 and close,
        # so the client learns immediately instead of timing out in the
        # backlog.
        admission.shed(client_sock)
        return ACCEPT_TRANSIENT, None, None
    return ACCEPTED, client_sock, address


def shed_response(retry_after: int = 1) -> bytes:
    """The precomposed ``503 Service Unavailable`` shed answer.

    Built once per controller, transmitted with a single best-effort
    ``send`` on the just-accepted socket: under overload the server must
    spend as close to zero work as possible per shed connection, so no
    :class:`~repro.core.connection.Connection` object, no parser and no
    event-loop registration are involved.
    """
    body = b"service unavailable: server at connection capacity\n"
    head = (
        "HTTP/1.1 503 Service Unavailable\r\n"
        "Content-Type: text/plain\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Retry-After: {retry_after}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


class AdmissionController:
    """Connection-count admission with hysteresis, plus the fd sentinel.

    Parameters
    ----------
    max_connections:
        Concurrent-connection bound; ``0`` disables count-based shedding
        (the fd guard still operates — exhaustion does not negotiate).
    resume_fraction:
        The hysteresis watermark: once shedding (or accept-pausing)
        starts, it continues until the open-connection count drops to
        ``resume_fraction × max_connections``.
    retry_after:
        Seconds advertised in the 503's ``Retry-After`` header.
    """

    def __init__(
        self,
        max_connections: int = 0,
        resume_fraction: float = 0.9,
        retry_after: int = 1,
    ):
        if max_connections < 0:
            raise ValueError("max_connections must be non-negative")
        if not 0.0 < resume_fraction <= 1.0:
            raise ValueError("resume_fraction must be in (0, 1]")
        self.max_connections = max_connections
        self.resume_fraction = resume_fraction
        self.payload = shed_response(retry_after)
        #: Low watermark: shedding/pausing stops once open connections
        #: drain to this count.  At least one below the bound, so a server
        #: at ``max_connections=1`` still recovers.
        self.low_watermark = (
            min(max_connections - 1, int(max_connections * resume_fraction))
            if max_connections > 0
            else 0
        )
        self._shedding = False
        self._sentinel: Optional[int] = None
        #: MT workers share one controller across threads; the lock guards
        #: the hysteresis flag and the sentinel descriptor (two threads
        #: racing ``shed_one_pending`` must not double-close the sentinel's
        #: fd number — by then it may belong to someone else).
        self._lock = threading.Lock()
        self._open_sentinel()

    # -- count-based admission ----------------------------------------------------

    @property
    def shedding(self) -> bool:
        """Whether the controller is currently in its shedding regime."""
        return self._shedding

    def admit(self, open_connections: int) -> bool:
        """Whether a new connection may become a served connection.

        Hysteresis: crossing ``max_connections`` starts shedding; only
        draining to :attr:`low_watermark` stops it.  ``False`` means the
        caller should answer the precomposed 503 and close.
        """
        if self.max_connections <= 0:
            return True
        with self._lock:
            if self._shedding:
                if open_connections <= self.low_watermark:
                    self._shedding = False
                    return True
                return False
            if open_connections >= self.max_connections:
                self._shedding = True
                return False
            return True

    def shed(self, sock: socket.socket) -> None:
        """Answer the 503 on ``sock`` (best effort) and close it."""
        try:
            sock.send(self.payload)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def may_resume(self, open_connections: int) -> bool:
        """Whether a paused accept loop may resume at this open count.

        Used by the fd-exhaustion pause: with a connection bound
        configured, resume at the same hysteresis watermark shedding
        uses; without one, resume as soon as *any* connection has drained
        (the caller compares against the count at pause time and calls
        this as a final gate).
        """
        if self.max_connections <= 0:
            return True
        return open_connections <= self.low_watermark

    # -- fd-reserve guard ----------------------------------------------------------

    # repro-lint: allow[RL003] -- every caller holds self._lock except __init__, where the controller is not yet shared
    def _open_sentinel(self) -> None:
        try:
            self._sentinel = os.open(os.devnull, os.O_RDONLY)
        except OSError:
            self._sentinel = None

    def shed_one_pending(self, listen_sock: Optional[socket.socket]) -> None:
        """Recover from fd exhaustion by shedding one backlogged arrival.

        Close the sentinel (guaranteeing one free descriptor), accept one
        pending connection into it, answer the 503 and close, then
        re-open the sentinel.  Without this, the arrival would hang in
        the backlog until the client's own timeout — the silent failure
        mode admission control exists to prevent.

        The MT/MP listener is blocking (and shared: its ``O_NONBLOCK`` is
        not ours to toggle), so readiness is probed first: an empty backlog
        must not block here.
        """
        if listen_sock is None:
            return
        probe = select.poll()
        probe.register(listen_sock, select.POLLIN)
        if not probe.poll(0):
            return
        with self._lock:
            if self._sentinel is not None:
                try:
                    os.close(self._sentinel)
                except OSError:
                    pass
                self._sentinel = None
            try:
                pending, _address = listen_sock.accept()
                self.shed(pending)
            except OSError:
                pass
            finally:
                self._open_sentinel()

    def close(self) -> None:
        """Release the sentinel descriptor."""
        with self._lock:
            if self._sentinel is not None:
                try:
                    os.close(self._sentinel)
                except OSError:
                    pass
                self._sentinel = None
