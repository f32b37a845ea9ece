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

import ctypes
import multiprocessing
import os
import signal
import socket

from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore, ServerStats
from repro.core.server import build_services, drain_signals_blocked, unblock_drain_signals
from repro.servers.blocking import WorkerPool, serve_connections


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


class MPServer(WorkerPool):
    """Flash-MP: one worker process per concurrently served request."""

    architecture = "mp"

    def __init__(self, config: ServerConfig):
        context = multiprocessing.get_context("fork" if hasattr(os, "fork") else "spawn")
        # Shared memory without a lock: the drain flag is stored from a
        # signal handler, which must not wait on a lock the interrupted
        # code may hold.
        super().__init__(config, context.RawValue(ctypes.c_bool, False))
        self._context = context
        #: Per-worker configuration with the scaled-down caches the paper uses.
        self.worker_config = config.per_process_scaled(config.num_workers)
        self._stats_queue = context.Queue()
        #: Cross-process open-connection count backing admission control.
        self._open_count = context.Value("i", 0)
        self._collected_stats = ServerStats()

    def _spawn(self, index: int):
        process = self._context.Process(
            target=_mp_worker_main,
            args=(
                self._listen_sock,
                self.worker_config,
                self._drain_flag,
                self._stats_queue,
                self._open_count,
            ),
            name=f"mp-worker-{index}",
            daemon=True,
        )
        with drain_signals_blocked():
            process.start()
        return process

    @property
    def open_connections(self) -> int:
        """Number of connections currently being served by workers."""
        return _SharedCount(self._open_count).count()

    def _force(self, stragglers: list) -> None:
        """Terminate the straggler processes (and whatever they serve)."""
        for process in stragglers:
            self._collected_stats.drain_forced_closes += 1
            process.terminate()
            process.join(timeout=1.0)
        # Terminated workers never decremented the shared open-connection
        # counter for whatever they were serving; with every worker gone
        # the true count is zero, so reconcile it.
        with self._open_count.get_lock():
            self._open_count.value = 0

    def _release(self) -> None:
        """Nothing beyond the listener: each worker owns its services."""

    @property
    def stats(self) -> ServerStats:
        """Consolidated statistics from workers that have exited.

        In the MP architecture, gathering request information across all
        connections requires inter-process communication (Section 4.2):
        workers push their counters into a queue when they stop, and this
        property reflects whatever has been consolidated so far.
        """
        while True:
            try:
                snapshot = self._stats_queue.get_nowait()
            except Exception:
                break
            self._collected_stats = self._collected_stats.merge(ServerStats(**snapshot))
        return self._collected_stats


def _mp_worker_main(listen_sock, worker_config, drain_flag, stats_queue, open_count) -> None:
    """Entry point of an MP worker: accept and serve until the drain.

    Each worker builds its own :class:`ContentStore` (private, smaller
    caches) and its own CGI runner, then loops accepting one connection at a
    time and handling it to completion with blocking I/O.  The admission
    controller is per-process (hysteresis state and the sentinel fd live in
    this worker's address space) but counts against the fleet-wide shared
    ``open_count``, so ``max_connections`` bounds the whole server.

    The parent drains its workers, so a worker takes no drain signal of
    its own: SIGTERM (the parent's ``terminate()`` at a deadline) ends it,
    and a terminal's SIGINT is ignored.  Both were held pending across the
    fork (:func:`~repro.core.server.drain_signals_blocked`).
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    unblock_drain_signals()
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
            drain_flag,
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
