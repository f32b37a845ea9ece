"""Multi-Threaded (MT) build (paper Section 3.2).

The MT server employs multiple independent threads of control within a
single shared address space; each thread performs all steps of one HTTP
request before accepting a new one.  All threads share the application-level
caches, so (unlike MP) there is no cache replication — but accesses must be
synchronized, which is the cost the paper highlights ("this result was
achieved by carefully minimizing lock contention").

Here the shared :class:`ContentStore` is constructed with ``thread_safe=True``
so its cache updates go through a lock; the accept queue is shared exactly as
the kernel shares it for real MT servers.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Optional

from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore, ServerStats
from repro.core.server import ListeningServer, build_services
from repro.servers.blocking import serve_connections


class _ActiveSockets:
    """MT's open-connection counter: the sockets its workers are serving.

    Backs both the admission count and the drain-deadline force-close.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sockets: set[socket.socket] = set()

    def count(self) -> int:
        with self._lock:
            return len(self._sockets)

    def enter(self, sock: socket.socket) -> None:
        with self._lock:
            self._sockets.add(sock)

    def leave(self, sock: socket.socket) -> None:
        with self._lock:
            self._sockets.discard(sock)

    def snapshot(self) -> list[socket.socket]:
        with self._lock:
            return list(self._sockets)


class MTServer(ListeningServer):
    """Flash-MT: one worker thread per concurrently served request."""

    architecture = "mt"

    def __init__(self, config: ServerConfig):
        self.config = config
        self.store = ContentStore(config, thread_safe=True)
        #: Shared by every worker thread.  The SSE hub's ``publish`` is
        #: thread-safe and its subscribers are driven by the worker serving
        #: the subscription; the admission controller is locked internally.
        self.cgi_runner, self.sse_hub, self.admission = build_services(config, self.store)
        self._threads: list[threading.Thread] = []
        self._stop_event = threading.Event()
        self._drain_event = threading.Event()
        self._closed = False
        self._active = _ActiveSockets()

    @property
    def stats(self) -> ServerStats:
        """Shared statistics (guarded by the store's lock during updates)."""
        return self.store.stats

    # -- running ---------------------------------------------------------------

    def start(self) -> "MTServer":
        """Bind and launch the worker threads; returns immediately."""
        if self._threads:
            return self
        self.bind()
        worker_args = (
            self._listen_sock,
            self.store,
            self.config,
            self.cgi_runner,
            self.sse_hub,
            self.admission,
            self._active,
            self._stop_event,
            self._drain_event,
        )
        self._threads = [
            threading.Thread(
                target=serve_connections, args=worker_args, name=f"mt-worker-{i}", daemon=True
            )
            for i in range(self.config.num_workers)
        ]
        for thread in self._threads:
            thread.start()
        return self

    # -- graceful drain ---------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether the server is in drain mode (stopping gracefully)."""
        return self._drain_event.is_set()

    @property
    def open_connections(self) -> int:
        """Number of connections currently being served by workers."""
        return self._active.count()

    def request_drain(self) -> None:
        """Enter drain mode (signal-safe): workers stop accepting, finish
        their in-flight exchanges with ``Connection: close``, and exit."""
        self._drain_event.set()
        # Ending the subscriptions lets workers blocked in an SSE wait
        # deliver the backlog, send the terminator and exit promptly.
        if self.sse_hub is not None:
            self.sse_hub.close()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Drain and wait; returns True when every worker exited in time.

        After ``drain_timeout`` (or ``timeout``) expires, stragglers'
        client sockets are shut down so their blocking calls fail and the
        workers exit — the drain deadline force-closes what it must.
        """
        self.request_drain()
        budget = self.config.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        stragglers = [thread for thread in self._threads if thread.is_alive()]
        if stragglers:
            for client in self._active.snapshot():
                with self.store.stats_lock():
                    self.store.stats.drain_forced_closes += 1
                try:
                    client.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            for thread in stragglers:
                thread.join(timeout=1.0)
        self._threads = [thread for thread in self._threads if thread.is_alive()]
        return not self._threads

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting, wait for workers and release resources."""
        self._stop_event.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        self.close()

    def close(self) -> None:
        """Close sockets and caches.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._listen_sock is not None:
            self._listen_sock.close()
            self._listen_sock = None
        self.admission.close()
        if self.sse_hub is not None:
            self.sse_hub.close()
            self.sse_hub = None
        self.cgi_runner.shutdown()
        self.store.close()
