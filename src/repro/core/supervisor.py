"""Supervised SO_REUSEPORT shard fleet: N server processes, one port.

The ROADMAP's "millions of users" target needs more than one process on
the accept path, and the paper's AMPED argument composes naturally: run
one event-driven shard per core, let the kernel's ``SO_REUSEPORT`` hash
spread connections across them, and put a tiny supervisor in front whose
only jobs are (a) noticing dead shards and restarting them, and (b)
fanning a drain signal out to the whole fleet.  Shard death is detected
by **pipe EOF plus waitpid**, because a SIGKILL'd process closes its
lifeline pipe no matter how it died.

Supervisor state machine (per shard slot)::

    RUNNING ──death──▶ BACKOFF ──timer──▶ RUNNING
       │                  │
       │                  └─too many consecutive deaths──▶ BROKEN (circuit open)
       └──fleet drain──▶ DRAINING ──exit/deadline──▶ DONE

Restart backoff doubles per *consecutive* death (``backoff_base × 2^n``,
capped at ``backoff_max``); a shard that stays up ``stable_seconds``
resets its slot's counter.  A slot whose consecutive-death count exceeds
``max_consecutive_failures`` opens its circuit breaker and is not
restarted again — a crash-looping binary must not be respawned forever —
and when every slot is broken the supervisor exits non-zero.

Drain: one SIGTERM to the supervisor SIGTERMs every shard; each shard
stops accepting (closing its listener removes it from the kernel's
REUSEPORT hash, so new connections immediately redistribute), finishes
in-flight responses under ``drain_timeout``, writes its final stats down
the lifeline pipe and exits 0.  The supervisor aggregates per-shard stats
into one :class:`~repro.core.pipeline.ServerStats` summary.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import select
import signal
import threading
import time
from typing import Optional

from repro.core.config import ServerConfig
from repro.core.pipeline import ServerStats
from repro.core.server import drain_signals_blocked, unblock_drain_signals

__all__ = ["ShardSupervisor", "SLOT_RUNNING", "SLOT_BACKOFF", "SLOT_BROKEN", "SLOT_DONE"]

SLOT_RUNNING = "running"
SLOT_BACKOFF = "backoff"
SLOT_BROKEN = "broken"
SLOT_DONE = "done"

#: How long the monitor loop sleeps in ``select`` waiting for lifeline
#: events; bounds drain/restart latency, does not affect steady state.
_POLL_INTERVAL = 0.1


class _Slot:
    """One shard slot: the process currently filling it plus restart state."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "state",
        "started_at",
        "restart_at",
        "consecutive_failures",
        "restarts",
        "kill_after",
    )

    def __init__(self, index: int, kill_after: Optional[float]) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.state = SLOT_BACKOFF  # becomes RUNNING at first spawn
        self.started_at = 0.0
        self.restart_at = 0.0
        self.consecutive_failures = 0
        self.restarts = 0
        #: Injected suicide delay (fault point ``shard_kill_after``),
        #: applied to the slot's first generation only so the restarted
        #: shard is stable instead of crash-looping into the breaker.
        self.kill_after = kill_after


class ShardSupervisor:
    """Parent process supervising N SO_REUSEPORT server shards.

    Parameters
    ----------
    config:
        Base server configuration.  Each shard runs a full server built
        from a copy with ``reuse_port=True`` and the resolved concrete
        port (an ephemeral ``port=0`` is resolved once, up front, so every
        shard binds the *same* port).
    architecture:
        Which server build each shard runs (any ``ARCHITECTURES`` key).
    shards:
        Number of shard processes.
    backoff_base / backoff_max:
        Exponential restart backoff bounds, seconds.
    max_consecutive_failures:
        Consecutive deaths (without an intervening stable run) after which
        a slot's circuit breaker opens and it is no longer restarted.
    stable_seconds:
        Uptime after which a shard is considered stable and its slot's
        consecutive-failure count resets.
    """

    def __init__(
        self,
        config: ServerConfig,
        architecture: str = "amped",
        shards: int = 2,
        *,
        backoff_base: float = 0.5,
        backoff_max: float = 10.0,
        max_consecutive_failures: int = 5,
        stable_seconds: float = 5.0,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.architecture = architecture
        self.num_shards = shards
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.max_consecutive_failures = max_consecutive_failures
        self.stable_seconds = stable_seconds
        self._context = multiprocessing.get_context(
            "fork" if hasattr(os, "fork") else "spawn"
        )
        self._port_anchor = None
        self.config = self._resolve_port(config)
        # The injected suicide delay is read once, in the parent, and
        # handed only to first-generation shards (see _Slot.kill_after).
        from repro.testing.faults import faults

        kill_after = faults.value("shard_kill_after")
        self._slots = [_Slot(index, kill_after) for index in range(shards)]
        self._stats = ServerStats()
        self._stats_lock = threading.Lock()
        self._drain_requested = False
        self._draining = False
        self._drain_deadline = 0.0
        self._started = False
        self._stopped = False
        self._monitor_thread: Optional[threading.Thread] = None
        self._done = threading.Event()
        self._exit_code = 0
        #: Total shard deaths noticed (restarted or not) and restarts done.
        self.shard_deaths = 0
        self.restarts = 0

    # -- port resolution -----------------------------------------------------------

    def _resolve_port(self, config: ServerConfig) -> ServerConfig:
        """Pin an ephemeral port so every shard binds the same one.

        The anchor socket stays bound (with ``SO_REUSEPORT``) but never
        listens, so it reserves the port without receiving connections:
        only *listening* sockets participate in the kernel's REUSEPORT
        distribution.
        """
        import socket as socket_module

        if not hasattr(socket_module, "SO_REUSEPORT"):
            raise RuntimeError("SO_REUSEPORT is not available on this platform")
        port = config.port
        if port == 0:
            anchor = socket_module.socket(
                socket_module.AF_INET, socket_module.SOCK_STREAM
            )
            anchor.setsockopt(
                socket_module.SOL_SOCKET, socket_module.SO_REUSEPORT, 1
            )
            anchor.bind((config.host, 0))
            port = anchor.getsockname()[1]
            self._port_anchor = anchor
        return dataclasses.replace(config, port=port, reuse_port=True)

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) every shard serves."""
        return (self.config.host, self.config.port)

    @property
    def port(self) -> int:
        return self.config.port

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        """Spawn the fleet and the monitor thread; returns immediately."""
        if self._started:
            return self
        self._started = True
        now = time.monotonic()
        for slot in self._slots:
            self._spawn(slot, now)
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="shard-supervisor", daemon=True
        )
        self._monitor_thread.start()
        return self

    def run_forever(self, install_signals: bool = True) -> int:
        """Run the fleet in the foreground; returns the exit code.

        With ``install_signals`` (the default in the CLI), SIGTERM and
        SIGINT trigger a fleet-wide drain: every shard gets SIGTERM,
        finishes in-flight work under ``drain_timeout``, and the call
        returns 0 once all shards exited.
        """
        if install_signals:
            signal.signal(signal.SIGTERM, self._on_signal)
            signal.signal(signal.SIGINT, self._on_signal)
        if self._started:
            # Monitor already running on its thread: wait for completion.
            self._done.wait()
            return self._exit_code
        self._started = True
        now = time.monotonic()
        for slot in self._slots:
            self._spawn(slot, now)
        self._monitor()
        return self._exit_code

    def _on_signal(self, _signum, _frame) -> None:
        # Only sets a flag: all real work happens on the monitor loop.
        self._drain_requested = True

    def request_drain(self) -> None:
        """Ask the fleet to drain (signal-safe, thread-safe)."""
        self._drain_requested = True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the fleet has fully wound down."""
        return self._done.wait(timeout)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def exit_code(self) -> int:
        return self._exit_code

    def shard_pids(self) -> list[int]:
        """PIDs of the currently live shards (chaos tests kill these)."""
        return [
            slot.process.pid
            for slot in self._slots
            if slot.process is not None and slot.process.is_alive()
        ]

    def slot_states(self) -> list[str]:
        return [slot.state for slot in self._slots]

    @property
    def stats(self) -> ServerStats:
        """Stats aggregated from every shard that reported so far.

        Shards report on exit (clean drain) — a SIGKILL'd shard takes its
        counters with it, exactly like a real crash would.
        """
        with self._stats_lock:
            return ServerStats(**self._stats.snapshot())

    def stop(self, timeout: float = 5.0) -> None:
        """Hard stop: terminate every shard without draining."""
        self._stopped = True
        for slot in self._slots:
            process = slot.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=timeout)
                if process.is_alive():
                    # A shard that survives SIGTERM (wedged in a blocking
                    # call with the drain handler installed) must not
                    # outlive the supervisor: the interpreter's atexit
                    # joins every child and would hang on it forever.
                    process.kill()
                    process.join(timeout=1.0)
            slot.state = SLOT_DONE
        if self._monitor_thread is not None:
            self._done.set()
            self._monitor_thread.join(timeout=timeout)
            self._monitor_thread = None
        self._release_anchor()

    def _release_anchor(self) -> None:
        if self._port_anchor is not None:
            try:
                self._port_anchor.close()
            except OSError:
                pass
            self._port_anchor = None

    # -- shard spawning -------------------------------------------------------------

    def _spawn(self, slot: _Slot, now: float) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        kill_after = slot.kill_after if slot.restarts == 0 else None
        process = self._context.Process(
            target=_shard_main,
            args=(self.architecture, self.config, child_conn, slot.index, kill_after),
            name=f"shard-{slot.index}",
            daemon=True,
        )
        # A SIGTERM that reaches the shard before it installs its own
        # handler waits for it, instead of setting this object's drain
        # flag in the child's copy and being lost.
        with drain_signals_blocked():
            process.start()
        # The child owns its end now; closing the parent's copy is what
        # makes EOF detection work (otherwise the pipe never closes).
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.state = SLOT_RUNNING
        slot.started_at = now

    def _restart_delay(self, consecutive_failures: int) -> float:
        return min(
            self.backoff_base * (2 ** max(0, consecutive_failures - 1)),
            self.backoff_max,
        )

    # -- monitoring -----------------------------------------------------------------

    def _monitor(self) -> None:
        try:
            while not self._stopped:
                now = time.monotonic()
                if self._drain_requested and not self._draining:
                    self._begin_fleet_drain(now)
                self._wait_for_lifelines()
                now = time.monotonic()
                self._reap_and_restart(now)
                if self._fleet_done(now):
                    break
        finally:
            self._release_anchor()
            self._done.set()

    def _wait_for_lifelines(self) -> None:
        conns = [
            slot.conn
            for slot in self._slots
            if slot.state == SLOT_RUNNING and slot.conn is not None
        ]
        if not conns:
            time.sleep(_POLL_INTERVAL)
            return
        try:
            select.select([c.fileno() for c in conns], [], [], _POLL_INTERVAL)
        except (OSError, ValueError):
            # A connection died between listing and selecting: the reap
            # pass below handles it.
            pass

    def _drain_lifeline(self, slot: _Slot) -> bool:
        """Consume pending lifeline messages; True when the pipe hit EOF."""
        conn = slot.conn
        if conn is None:
            return True
        while True:
            try:
                if not conn.poll(0):
                    return False
                message = conn.recv()
            except (EOFError, OSError):
                return True
            if isinstance(message, dict):
                with self._stats_lock:
                    self._stats = self._stats.merge(ServerStats(**message))

    def _reap_and_restart(self, now: float) -> None:
        for slot in self._slots:
            if slot.state == SLOT_RUNNING:
                hit_eof = self._drain_lifeline(slot)
                process = slot.process
                dead = hit_eof or process is None or not process.is_alive()
                if not dead:
                    if (
                        slot.consecutive_failures
                        and now - slot.started_at >= self.stable_seconds
                    ):
                        # Stable run: forgive the slot's past deaths.
                        slot.consecutive_failures = 0
                    continue
                # Shard death: pipe EOF (any exit path closes the
                # lifeline) confirmed by waitpid via Process.join.
                if process is not None:
                    process.join(timeout=1.0)
                self._drain_lifeline(slot)
                if slot.conn is not None:
                    slot.conn.close()
                    slot.conn = None
                slot.process = None
                exitcode = process.exitcode if process is not None else None
                if self._draining or self._stopped:
                    slot.state = SLOT_DONE
                    continue
                self.shard_deaths += 1
                slot.consecutive_failures += 1
                if exitcode == 0:
                    # A shard that exits cleanly outside a fleet drain was
                    # asked to stop individually; treat like a crash for
                    # restart purposes but it rarely indicates looping.
                    pass
                if slot.consecutive_failures > self.max_consecutive_failures:
                    slot.state = SLOT_BROKEN
                    continue
                slot.state = SLOT_BACKOFF
                slot.restart_at = now + self._restart_delay(
                    slot.consecutive_failures
                )
            elif slot.state == SLOT_BACKOFF and not self._draining:
                if now >= slot.restart_at:
                    slot.restarts += 1
                    self.restarts += 1
                    self._spawn(slot, now)
            elif slot.state == SLOT_BACKOFF and self._draining:
                # Never restart into a draining fleet.
                slot.state = SLOT_DONE

    def _begin_fleet_drain(self, now: float) -> None:
        self._draining = True
        self._drain_deadline = now + self.config.drain_timeout + 2.0
        for slot in self._slots:
            if slot.state == SLOT_BACKOFF:
                slot.state = SLOT_DONE
            process = slot.process
            if process is not None and process.is_alive() and process.pid:
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except (OSError, ProcessLookupError):
                    pass

    def _fleet_done(self, now: float) -> bool:
        if self._draining:
            # Completion is judged on slot STATE, not process liveness:
            # a slot only reaches a terminal state through the reap pass,
            # which always drains the lifeline first.  Checking is_alive()
            # here instead would race a shard that exits between the reap
            # pass and this check — its final stats message would be
            # dropped unread.
            pending = [
                slot
                for slot in self._slots
                if slot.state not in (SLOT_DONE, SLOT_BROKEN)
            ]
            if not pending:
                self._exit_code = 0
                return True
            if now >= self._drain_deadline:
                # Drain deadline: force-terminate the stragglers.  The
                # shards already force-closed their own stragglers at
                # their drain_timeout; this guards a wedged shard.
                for slot in pending:
                    process = slot.process
                    if process is not None and process.is_alive():
                        process.terminate()
                        process.join(timeout=1.0)
                        if process.is_alive():
                            process.kill()
                            process.join(timeout=1.0)
                    self._drain_lifeline(slot)
                    if slot.conn is not None:
                        slot.conn.close()
                        slot.conn = None
                    slot.process = None
                    slot.state = SLOT_DONE
                self._exit_code = 0
                return True
            return False
        if all(slot.state == SLOT_BROKEN for slot in self._slots):
            # Every slot crash-looped into its circuit breaker: the fleet
            # cannot serve, and pretending otherwise hides the outage.
            self._exit_code = 1
            return True
        return False

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _shard_main(architecture, config, conn, shard_index, kill_after) -> None:
    """Entry point of one shard process: serve until SIGTERM, then drain.

    The lifeline ``conn`` is the death-detection channel: it stays open
    exactly as long as this process lives.  On a clean drain the shard
    writes its final stats snapshot down the pipe before exiting; a crash
    (or SIGKILL) closes the pipe without a message, and the supervisor
    sees bare EOF — death is detected identically either way.
    """
    from repro.servers import create_server

    if kill_after is not None and kill_after > 0:
        # Injected chaos (fault point ``shard_kill_after``): SIGKILL
        # ourselves after the delay — indistinguishable from a crash.
        timer = threading.Timer(
            kill_after, os.kill, args=(os.getpid(), signal.SIGKILL)
        )
        timer.daemon = True
        timer.start()

    server = create_server(architecture, config)
    signal.signal(signal.SIGTERM, lambda *_: server.request_drain())
    signal.signal(signal.SIGINT, lambda *_: server.request_drain())
    unblock_drain_signals()
    try:
        server.run_forever()
        snapshot = server.stats.snapshot()
        try:
            conn.send(snapshot)
        except (BrokenPipeError, OSError):
            pass
    finally:
        try:
            server.close()
        except Exception:
            pass
        try:
            conn.close()
        except (BrokenPipeError, OSError):
            pass
