"""Overload behaviour: 503 shedding, hysteresis, and fd-exhaustion guards.

The admission contract (PR 8): above ``max_connections`` the server still
accepts — and answers a precomposed 503 with ``Retry-After`` before
closing — so clients get an explicit signal instead of a silent backlog
timeout.  On fd exhaustion the reserve-descriptor guard sheds one pending
arrival and pauses accepting instead of busy-spinning on the listener.
"""

import os
import socket
import subprocess
import sys
import textwrap
import time

import pytest

from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.servers import create_server
from repro.testing.faults import faults

ARCHS = ("amped", "sped", "mt", "mp")


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "small.txt").write_bytes(b"overload")
    return str(tmp_path)


@pytest.fixture(autouse=True)
def _reset_faults():
    yield
    faults.reset()


def _make_server(arch, docroot, **overrides):
    config = ServerConfig(
        document_root=docroot,
        port=0,
        num_workers=4,
        num_helpers=1,
        **overrides,
    )
    server = create_server(arch, config)
    server.start()
    return server


def _hold_connection(address):
    """A connection the server must keep open: a partial request head."""
    sock = socket.create_connection(address, timeout=5)
    sock.sendall(b"GET /small.txt HTTP/1.1\r\n")
    return sock


def _recv_all(sock, timeout=5.0):
    sock.settimeout(timeout)
    data = bytearray()
    while True:
        try:
            chunk = sock.recv(65536)
        except OSError:
            break
        if not chunk:
            break
        data.extend(chunk)
    return bytes(data)


def _fetch_with_retry(address, path="/small.txt", deadline=8.0):
    """Fetch, retrying 503s and connect errors until ``deadline``."""
    end = time.monotonic() + deadline
    last = None
    while time.monotonic() < end:
        try:
            response = fetch(*address, path)
        except OSError as exc:
            last = exc
            time.sleep(0.1)
            continue
        if response.status != 503:
            return response
        last = response
        time.sleep(0.1)
    raise AssertionError(f"server did not recover before deadline: {last!r}")


@pytest.mark.parametrize("arch", ARCHS)
class TestAdmissionShedding:
    def test_503_above_capacity_then_resume(self, arch, docroot):
        server = _make_server(arch, docroot, max_connections=2)
        held = []
        try:
            # Fill the two admitted slots with in-flight connections.
            held = [_hold_connection(server.address) for _ in range(2)]
            time.sleep(0.3)  # let every worker account for them
            # The next arrival is accepted, told 503 + Retry-After, closed.
            over = socket.create_connection(server.address, timeout=5)
            try:
                over.sendall(b"GET /small.txt HTTP/1.1\r\n\r\n")
                data = _recv_all(over)
            finally:
                over.close()
            assert data.startswith(b"HTTP/1.1 503 ")
            assert b"retry-after:" in data.lower()
            if arch != "mp":
                # MP consolidates worker counters only when workers exit,
                # so its live stats lag; the received 503 is the evidence.
                assert server.stats.connections_shed >= 1
            # Draining the held connections re-opens admission (hysteresis
            # watermark is below the bound, so full drain certainly passes).
            for sock in held:
                sock.close()
            held = []
            response = _fetch_with_retry(server.address)
            assert response.status == 200
            assert response.body == b"overload"
        finally:
            for sock in held:
                sock.close()
            server.stop()


class TestFdExhaustionGuard:
    @pytest.mark.parametrize("arch", ["amped", "sped"])
    def test_injected_emfile_sheds_pending_and_recovers(self, arch, docroot):
        """Event-driven builds fire the fault only when an arrival is
        pending, so the victim deterministically receives the sentinel's
        503 before the accept pause begins."""
        server = _make_server(arch, docroot)
        try:
            faults.arm("accept_emfile", count=1)
            # This arrival triggers the injected EMFILE; the reserve
            # descriptor is spent answering it a 503.
            victim = socket.create_connection(server.address, timeout=5)
            try:
                data = _recv_all(victim, timeout=8.0)
            finally:
                victim.close()
            assert data.startswith(b"HTTP/1.1 503 ")
            assert server.stats.fd_exhaustion_events >= 1
            # The guard pauses accepting for up to ~1s, then resumes.
            response = _fetch_with_retry(server.address)
            assert response.status == 200
            # Read after the fetch: the victim sees its 503 a moment before
            # the loop thread gets to count the pause.
            assert server.stats.accept_pauses >= 1
        finally:
            server.stop()

    def test_mt_worker_backs_off_and_recovers(self, docroot):
        """MT workers take the fault at the top of each accept iteration;
        an idle worker is already blocked in ``accept``, so one served
        fetch starts the next iteration and the worker consumes both
        faults in a row: assert the classification/backoff bookkeeping
        and that service continues."""
        server = _make_server("mt", docroot)
        try:
            faults.arm("accept_emfile", count=2)
            assert _fetch_with_retry(server.address).status == 200
            deadline = time.monotonic() + 8.0
            while (
                server.stats.fd_exhaustion_events < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert server.stats.fd_exhaustion_events >= 2
            response = _fetch_with_retry(server.address)
            assert response.status == 200
        finally:
            server.stop()


class TestAcceptBackoffUnderFdPressure:
    """S2 regression: a persistent EMFILE must not busy-spin the accept loop.

    Runs in a subprocess with a hard RLIMIT_NOFILE so real descriptor
    exhaustion hits the server's accept path; the old MT/MP loops treated
    every accept OSError as transient and spun at 100% CPU forever.
    """

    @pytest.mark.parametrize("arch", ["mt", "mp"])
    def test_low_rlimit_recovers(self, arch, docroot, tmp_path):
        script = textwrap.dedent(
            f"""
            import resource, socket, sys, time
            # Enough for interpreter + server bookkeeping, low enough that
            # held client connections exhaust it from both sides.
            resource.setrlimit(resource.RLIMIT_NOFILE, (64, 64))
            from repro.client.simple import fetch
            from repro.core.config import ServerConfig
            from repro.servers import create_server

            config = ServerConfig(
                document_root={docroot!r}, port=0, num_workers=2, num_helpers=1
            )
            server = create_server({arch!r}, config)
            server.start()
            held = []
            try:
                # Open connections (never completing a request) until the
                # process runs out of descriptors.
                for _ in range(128):
                    try:
                        sock = socket.create_connection(server.address, timeout=2)
                    except OSError:
                        break
                    sock.sendall(b"GET /x HTTP/1.1\\r\\n")
                    held.append(sock)
                # Give the accept loops time to hit EMFILE and classify it;
                # a spinning loop would never leave this phase healthy.
                time.sleep(1.5)
                for sock in held:
                    sock.close()
                held = []
                # Descriptors are back: the server must serve again.
                deadline = time.monotonic() + 10.0
                while True:
                    try:
                        response = fetch(*server.address, "/small.txt")
                        if response.status == 200:
                            break
                    except OSError:
                        pass
                    if time.monotonic() > deadline:
                        print("RECOVERY-TIMEOUT", flush=True)
                        sys.exit(2)
                    time.sleep(0.2)
                print("FD-EVENTS", server.stats.fd_exhaustion_events, flush=True)
                print("RECOVERED", flush=True)
            finally:
                for sock in held:
                    sock.close()
                server.stop()
            """
        )
        path = tmp_path / "rlimit_script.py"
        path.write_text(script)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        proc = subprocess.run(
            [sys.executable, str(path)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, (proc.stdout, proc.stderr)
        assert "RECOVERED" in proc.stdout


class TestFloodClients:
    def test_flood_is_shed_and_real_clients_ride_through(self, docroot):
        server = _make_server(
            "amped", docroot, max_connections=4, header_timeout=1.0
        )
        try:
            from repro.client.loadgen import LoadGenerator

            generator = LoadGenerator(
                server.address,
                "/small.txt",
                num_clients=2,
                keep_alive=False,
                duration=2.5,
                flood_connections=6,
                retry_backoff=0.02,
                dribble_interval=0.1,
            )
            result = generator.run()
            # Flooders (and possibly shed real clients) saw 503s; the shed
            # counter on the server side agrees something was refused.
            assert result.rejected_503 > 0
            assert server.stats.connections_shed > 0
            # Real clients still completed work; 503s never count as
            # completions or errors.
            assert result.requests_completed > 0
        finally:
            server.stop()

    def test_closed_loop_retries_after_503(self, docroot):
        server = _make_server("sped", docroot, max_connections=1)
        try:
            from repro.client.loadgen import LoadGenerator

            generator = LoadGenerator(
                server.address,
                "/small.txt",
                num_clients=4,
                keep_alive=False,
                duration=1.5,
                retry_backoff=0.02,
            )
            result = generator.run()
            assert result.requests_completed > 0
            assert result.errors == 0
            # With one admitted slot and four closed-loop clients, shedding
            # (and therefore retrying) must have happened.
            assert result.rejected_503 > 0
            assert result.retries > 0
        finally:
            server.stop()
