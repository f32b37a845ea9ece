"""Multi-Process (MP) build (paper Section 3.1).

The MP server assigns a *process* to each concurrently served request:
every worker performs the basic steps sequentially with blocking I/O, and
the operating system overlaps disk, CPU and network activity by switching
between workers.  Each process has a private address space, so no
synchronization is needed — but the application-level caches are replicated
per process, must therefore be configured smaller, suffer more compulsory
misses, and use memory less efficiently (Section 4.2); consolidating request
statistics requires inter-process communication (here a queue drained at
shutdown).

Workers accept from a listening socket created before the fork, exactly like
Apache's pre-forking model on UNIX.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time
from typing import Optional

from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore, ServerStats
from repro.core.server import ListeningServer, build_services
from repro.servers.blocking import serve_connections


class _SharedCount:
    """MP's open-connection counter: one integer shared by every worker.

    Workers update it under the ``Value``'s lock around each served
    connection, so every worker's (per-process) admission controller sees
    the fleet-wide total.
    """

    def __init__(self, value) -> None:
        self._value = value

    def count(self) -> int:
        with self._value.get_lock():
            return self._value.value

    def enter(self, _sock: socket.socket) -> None:
        with self._value.get_lock():
            self._value.value += 1

    def leave(self, _sock: socket.socket) -> None:
        with self._value.get_lock():
            self._value.value -= 1


class MPServer(ListeningServer):
    """Flash-MP: one worker process per concurrently served request."""

    architecture = "mp"

    def __init__(self, config: ServerConfig):
        self.config = config
        #: Per-worker configuration with the scaled-down caches the paper uses.
        self.worker_config = config.per_process_scaled(config.num_workers)
        self._processes: list = []
        self._context = multiprocessing.get_context(
            "fork" if hasattr(os, "fork") else "spawn"
        )
        self._stop_event = self._context.Event()
        self._drain_event = self._context.Event()
        self._stats_queue = self._context.Queue()
        #: Cross-process open-connection count backing admission control.
        self._open_count = self._context.Value("i", 0)
        self._collected_stats = ServerStats()
        self._closed = False

    # -- running ------------------------------------------------------------------

    def start(self) -> "MPServer":
        """Bind and fork the worker processes; returns immediately."""
        if self._processes:
            return self
        self.bind()
        for index in range(self.config.num_workers):
            process = self._context.Process(
                target=_mp_worker_main,
                args=(
                    self._listen_sock,
                    self.worker_config,
                    self._stop_event,
                    self._drain_event,
                    self._stats_queue,
                    self._open_count,
                ),
                name=f"mp-worker-{index}",
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        return self

    # -- graceful drain -------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether the server is in drain mode (stopping gracefully)."""
        return self._drain_event.is_set()

    @property
    def open_connections(self) -> int:
        """Number of connections currently being served by workers."""
        return _SharedCount(self._open_count).count()

    def request_drain(self) -> None:
        """Enter drain mode (signal-safe): workers stop accepting, finish
        their in-flight exchanges with ``Connection: close``, and exit."""
        self._drain_event.set()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Drain and wait; returns True when every worker exited in time.

        After ``drain_timeout`` (or ``timeout``) expires, straggler worker
        processes are terminated — the drain deadline force-closes
        whatever connections they were still serving.
        """
        self.request_drain()
        budget = self.config.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        for process in self._processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        stragglers = [process for process in self._processes if process.is_alive()]
        for process in stragglers:
            self._collected_stats.drain_forced_closes += 1
            process.terminate()
            process.join(timeout=1.0)
        if stragglers:
            # Terminated workers never decremented the shared open-connection
            # counter for whatever they were serving; with every worker gone
            # the true count is zero, so reconcile it.
            with self._open_count.get_lock():
                self._open_count.value = 0
        self._drain_stats()
        self._processes = [p for p in self._processes if p.is_alive()]
        return not self._processes

    def stop(self, timeout: float = 5.0) -> None:
        """Stop every worker, consolidate statistics and release resources."""
        self._stop_event.set()
        for process in self._processes:
            process.join(timeout=timeout)
        self._drain_stats()
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._processes = []
        self.close()

    def close(self) -> None:
        """Close the listening socket.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._listen_sock is not None:
            self._listen_sock.close()
            self._listen_sock = None

    @property
    def stats(self) -> ServerStats:
        """Consolidated statistics from workers that have exited.

        In the MP architecture, gathering request information across all
        connections requires inter-process communication (Section 4.2):
        workers push their counters into a queue when they stop, and this
        property reflects whatever has been consolidated so far.
        """
        self._drain_stats()
        return self._collected_stats

    def _drain_stats(self) -> None:
        while True:
            try:
                snapshot = self._stats_queue.get_nowait()
            except Exception:
                break
            worker_stats = ServerStats(**snapshot)
            self._collected_stats = self._collected_stats.merge(worker_stats)


def _mp_worker_main(
    listen_sock, worker_config, stop_event, drain_event, stats_queue, open_count
) -> None:
    """Entry point of an MP worker: accept and serve until shutdown.

    Each worker builds its own :class:`ContentStore` (private, smaller
    caches) and its own CGI runner, then loops accepting one connection at a
    time and handling it to completion with blocking I/O.  The admission
    controller is per-process (hysteresis state and the sentinel fd live in
    this worker's address space) but counts against the fleet-wide shared
    ``open_count``, so ``max_connections`` bounds the whole server.
    """
    store = ContentStore(worker_config)
    # Per-process services: each worker owns its own SSE subscriber set,
    # matching the MP architecture's replicated per-process state — events
    # published by one worker's ticker reach only that worker's subscribers.
    cgi_runner, sse_hub, admission = build_services(worker_config, store)
    try:
        serve_connections(
            listen_sock,
            store,
            worker_config,
            cgi_runner,
            sse_hub,
            admission,
            _SharedCount(open_count),
            stop_event,
            drain_event,
        )
    finally:
        if sse_hub is not None:
            sse_hub.close()
        try:
            stats_queue.put(store.stats.snapshot())
        except Exception:
            pass
        admission.close()
        cgi_runner.shutdown()
        store.close()
