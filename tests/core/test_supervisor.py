"""Supervised SO_REUSEPORT shard fleet: restarts, drain, chaos.

The fleet contract (PR 8): N shards serve one port; the supervisor
notices a dead shard via lifeline-pipe EOF and restarts it with
exponential backoff; a crash-looping slot opens its circuit breaker; one
SIGTERM drains the whole fleet to exit 0; per-shard stats aggregate on
clean exit.
"""

import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.core.supervisor import SLOT_BROKEN, ShardSupervisor
from repro.testing.faults import faults

pytestmark = pytest.mark.skipif(
    not hasattr(__import__("socket"), "SO_REUSEPORT"),
    reason="SO_REUSEPORT not available",
)


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "index.html").write_bytes(b"<html>fleet</html>")
    return str(tmp_path)


@pytest.fixture(autouse=True)
def _reset_faults():
    yield
    faults.reset()


def _config(docroot, **overrides):
    overrides.setdefault("num_workers", 2)
    overrides.setdefault("num_helpers", 1)
    return ServerConfig(document_root=docroot, port=0, **overrides)


def _wait_ready(address, timeout=10.0):
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        try:
            if fetch(*address, "/index.html").status == 200:
                return
        except OSError as exc:
            last = exc
        time.sleep(0.05)
    raise AssertionError(f"fleet did not become ready: {last!r}")


def _fetch_with_retry(address, deadline=10.0):
    end = time.monotonic() + deadline
    last = None
    while time.monotonic() < end:
        try:
            response = fetch(*address, "/index.html")
            if response.status == 200:
                return response
            last = response
        except OSError as exc:
            last = exc
        time.sleep(0.1)
    raise AssertionError(f"fleet stopped serving: {last!r}")


class TestFleetBasics:
    def test_two_shards_serve_one_port(self, docroot):
        supervisor = ShardSupervisor(_config(docroot), "sped", shards=2)
        supervisor.start()
        try:
            _wait_ready(supervisor.address)
            pids = supervisor.shard_pids()
            assert len(pids) == 2
            assert len(set(pids)) == 2
            assert os.getpid() not in pids
            for _ in range(5):
                assert fetch(*supervisor.address, "/index.html").status == 200
        finally:
            supervisor.stop()

    def test_single_shard_requires_positive_count(self, docroot):
        with pytest.raises(ValueError):
            ShardSupervisor(_config(docroot), "sped", shards=0)


class TestShardDeathAndRestart:
    def test_sigkilled_shard_is_replaced(self, docroot):
        supervisor = ShardSupervisor(
            _config(docroot),
            "sped",
            shards=2,
            backoff_base=0.1,
            stable_seconds=0.5,
        )
        supervisor.start()
        try:
            _wait_ready(supervisor.address)
            victim = supervisor.shard_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if supervisor.restarts >= 1 and len(supervisor.shard_pids()) == 2:
                    break
                time.sleep(0.05)
            assert supervisor.shard_deaths >= 1
            assert supervisor.restarts >= 1
            pids = supervisor.shard_pids()
            assert len(pids) == 2
            assert victim not in pids
            # The fleet kept (or resumed) serving throughout.
            assert _fetch_with_retry(supervisor.address).status == 200
        finally:
            supervisor.stop()

    def test_injected_shard_suicide_restarts_match_kills(self, docroot):
        """The ``shard_kill_after`` fault point: every generation-0 shard
        SIGKILLs itself once; the supervisor restarts each exactly once
        and the replacements are stable."""
        faults.arm("shard_kill_after", value=0.3)
        supervisor = ShardSupervisor(
            _config(docroot),
            "sped",
            shards=2,
            backoff_base=0.1,
            stable_seconds=0.5,
        )
        faults.reset()  # the delay was read in the constructor
        supervisor.start()
        try:
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if supervisor.restarts >= 2 and len(supervisor.shard_pids()) == 2:
                    break
                time.sleep(0.05)
            assert supervisor.shard_deaths == 2
            assert supervisor.restarts == 2
            assert _fetch_with_retry(supervisor.address).status == 200
            # Replacements carry no kill timer: no further deaths.
            time.sleep(1.0)
            assert supervisor.shard_deaths == 2
        finally:
            supervisor.stop()

    def test_crash_loop_opens_circuit_breaker(self, docroot):
        supervisor = ShardSupervisor(
            _config(docroot),
            "sped",
            shards=1,
            backoff_base=0.05,
            backoff_max=0.1,
            max_consecutive_failures=2,
            stable_seconds=60.0,
        )
        supervisor.start()
        try:
            deadline = time.monotonic() + 30.0
            while not supervisor.wait(timeout=0.05):
                for pid in supervisor.shard_pids():
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except (OSError, ProcessLookupError):
                        pass
                assert time.monotonic() < deadline, "breaker never opened"
            assert supervisor.exit_code == 1
            assert supervisor.slot_states() == [SLOT_BROKEN]
        finally:
            supervisor.stop()


class TestFleetDrain:
    def test_one_signal_drains_everything_to_exit_zero(self, docroot):
        # Generous drain budget: the happy path drains in milliseconds, the
        # budget only matters when a loaded host delays shard scheduling —
        # a force-kill at the deadline would lose the shard's stats report.
        supervisor = ShardSupervisor(
            _config(docroot, drain_timeout=10.0), "sped", shards=2
        )
        supervisor.start()
        try:
            _wait_ready(supervisor.address)
            for _ in range(4):
                fetch(*supervisor.address, "/index.html")
            supervisor.request_drain()
            assert supervisor.wait(timeout=30.0)
            assert supervisor.exit_code == 0
            assert supervisor.shard_pids() == []
            # Shards reported their stats down the lifeline on clean exit.
            assert supervisor.stats.connections_accepted >= 4
            assert supervisor.stats.responses_ok >= 4
        finally:
            supervisor.stop()


class TestServeSignalHandling:
    """S1: the serve command exits cleanly on SIGTERM, not only Ctrl-C."""

    def _spawn_serve(self, docroot, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", docroot,
             "--port", "0", *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )

    def _wait_for_line(self, proc, needle, timeout=30.0):
        deadline = time.monotonic() + timeout
        lines = []
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            if needle in line:
                return lines
        raise AssertionError(f"never saw {needle!r} in {lines!r}")

    def test_single_server_sigterm_drains_and_exits_zero(self, docroot):
        proc = self._spawn_serve(docroot)
        try:
            self._wait_for_line(proc, "serving")
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert "draining" in out
            assert "overload:" in out  # the shutdown summary printed
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    @pytest.mark.parametrize("arch", ["amped", "mt"])
    def test_fleet_sigterm_drains_and_exits_zero(self, docroot, arch):
        """A SIGTERM right after the banner races the shards' startup: a
        shard holds it pending until its own handler is in, so the fleet
        drains at once instead of waiting out ``drain_timeout + 2 s``."""
        proc = self._spawn_serve(
            docroot, "--architecture", arch, "--shards", "2", "--drain-timeout", "3"
        )
        try:
            self._wait_for_line(proc, "serving")
            proc.send_signal(signal.SIGTERM)
            sent = time.monotonic()
            out, _ = proc.communicate(timeout=40)
            assert time.monotonic() - sent < 2.0
            assert proc.returncode == 0
            assert "fleet stopped" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_mp_drain_deadline_ends_straggler_workers(self, docroot):
        """MP workers take no drain signal of their own: the parent's
        deadline ``terminate()`` ends a straggler instead of starting a
        second drain inside it that waits out the header budget."""
        flags = ["--architecture", "mp", "--workers", "2", "--drain-timeout", "1"]
        proc = self._spawn_serve(docroot, *flags, "--header-timeout", "8")
        client = None
        try:
            banner = self._wait_for_line(proc, "serving")[-1]
            port = int(banner.rsplit(":", 1)[1].strip().rstrip("/"))
            client = socket.create_connection(("127.0.0.1", port), timeout=5)
            client.sendall(b"GET /index.html HTTP/1.1\r\n")  # head never completes
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            sent = time.monotonic()
            out, _ = proc.communicate(timeout=40)
            assert time.monotonic() - sent < 2.5
            assert proc.returncode == 0
            assert out.count("draining") == 1
        finally:
            if client is not None:
                client.close()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
