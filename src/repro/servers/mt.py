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

import ctypes
import socket
import threading

from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore
from repro.core.server import build_services
from repro.servers.blocking import WorkerPool, serve_connections


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


class MTServer(WorkerPool):
    """Flash-MT: one worker thread per concurrently served request."""

    architecture = "mt"

    def __init__(self, config: ServerConfig):
        # A plain C bool: the threads share the address space, and a store
        # to it takes no lock.
        super().__init__(config, ctypes.c_bool(False))
        self.store = ContentStore(config, thread_safe=True)
        #: Shared by every worker thread.  The SSE hub's ``publish`` is
        #: thread-safe and its subscribers are driven by the worker serving
        #: the subscription; the admission controller is locked internally.
        self.cgi_runner, self.sse_hub, self.admission = build_services(config, self.store)
        self._active = _ActiveSockets()

    @property
    def open_connections(self) -> int:
        """Number of connections currently being served by workers."""
        return self._active.count()

    def _spawn(self, index: int) -> threading.Thread:
        thread = threading.Thread(
            target=serve_connections,
            args=(
                self._listen_sock,
                self.store,
                self.config,
                self.cgi_runner,
                self.sse_hub,
                self.admission,
                self._active,
                self._drain_flag,
            ),
            name=f"mt-worker-{index}",
            daemon=True,
        )
        thread.start()
        return thread

    def _force(self, stragglers: list) -> None:
        """Shut the stragglers' client sockets down: their blocking calls
        fail and the workers exit."""
        for client in self._active.snapshot():
            with self.store.stats_lock():
                self.store.stats.drain_forced_closes += 1
            try:
                client.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
