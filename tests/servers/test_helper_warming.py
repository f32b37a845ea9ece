"""AMPED helper warming for fd-backed (sendfile) responses.

Three behaviours from the issue, plus the toggling contract:

* a cold-file request is dispatched to a warm helper before transmission;
* a warm-file request bypasses the helpers entirely;
* a helper failure mid-warm degrades to the buffered path (the client
  still receives the complete response);
* warming never changes response bytes — pipelined responses are
  byte-identical with it on or off.
"""

import os
import re
import socket

import pytest

from repro.cache.residency import SimulatedResidencyOracle
from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.core.send_path import sendfile_available
from repro.core.server import FlashServer

requires_sendfile = pytest.mark.skipif(
    not sendfile_available(), reason="os.sendfile not available"
)

BODY_SIZE = 200 * 1024


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "index.html").write_bytes(b"<html>warm me</html>")
    (tmp_path / "cold.bin").write_bytes(os.urandom(BODY_SIZE))
    return str(tmp_path)


def flash(docroot, oracle, **overrides):
    config = ServerConfig(document_root=docroot, port=0, num_helpers=2, **overrides)
    return FlashServer(config, residency_tester=oracle)


@requires_sendfile
class TestWarmDispatch:
    def test_cold_request_goes_through_warm_helper(self, docroot):
        """A pessimistic oracle marks everything cold: the fd-backed
        response must be warmed by a helper, then served via sendfile."""
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = flash(docroot, oracle)
        server.start()
        try:
            response = fetch(*server.address, "/cold.bin")
        finally:
            server.stop()
        assert response.status == 200
        assert len(response.body) == BODY_SIZE
        stats = server.stats
        assert stats.sendfile_warms >= 1
        assert stats.sendfile_responses >= 1
        assert stats.sendfile_warm_degradations == 0
        # The fd route replaces the mapped-chunk route: the response was
        # built without pinning chunks, so the oracle was asked about the
        # bare file, and no OP_READ page-touch was dispatched for it.
        assert oracle.queries >= 1

    def test_warm_request_bypasses_helpers(self, docroot):
        """Content the oracle reports resident is transmitted immediately."""
        oracle = SimulatedResidencyOracle(default_resident=True)
        server = flash(docroot, oracle)
        server.start()
        try:
            first = fetch(*server.address, "/cold.bin")
            second = fetch(*server.address, "/cold.bin")
        finally:
            server.stop()
        assert first.status == second.status == 200
        assert server.stats.sendfile_warms == 0
        assert server.stats.blocking_reads == 0
        # Helpers ran only for the pathname-translation miss, never reads.
        assert server.stats.sendfile_responses >= 2

    def test_helper_failure_mid_warm_degrades_to_buffered(self, docroot, monkeypatch):
        """A helper that dies mid-warm must not kill the request: the
        server falls back to the buffered path and still serves the full
        body."""
        import repro.core.helpers as helpers_module

        def crash(path, fd, offset, length):
            raise RuntimeError("helper crashed mid-warm")

        monkeypatch.setattr(helpers_module, "_warm_file_range", crash)
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = flash(docroot, oracle)
        server.start()
        try:
            response = fetch(*server.address, "/cold.bin")
        finally:
            server.stop()
        assert response.status == 200
        assert len(response.body) == BODY_SIZE
        assert server.stats.sendfile_warms >= 1
        assert server.stats.sendfile_warm_degradations >= 1

    def test_degradation_refuses_mismatched_body(self, docroot, monkeypatch):
        """If the file changed size between header build and the degraded
        read, serving it would break keep-alive framing: the request must
        fail instead (the stale translation repairs on revalidation)."""
        import repro.core.helpers as helpers_module

        cold = os.path.join(docroot, "cold.bin")

        def crash_and_truncate(path, fd, offset, length):
            os.truncate(cold, BODY_SIZE // 2)
            raise RuntimeError("helper crashed; file truncated meanwhile")

        monkeypatch.setattr(helpers_module, "_warm_file_range", crash_and_truncate)
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = flash(docroot, oracle)
        server.start()
        try:
            response = fetch(*server.address, "/cold.bin")
        finally:
            server.stop()
        assert response.status == 500
        assert server.stats.sendfile_warm_degradations >= 1

    def test_warming_off_with_mmap_off_never_dispatches_warm(self, docroot):
        """With the mmap cache disabled the response is fd-backed and
        chunkless even though warming is off; the --no-warming contract
        still holds: no warm dispatch, optimistic transmission."""
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = flash(
            docroot, oracle, helper_warming=False, enable_mmap_cache=False
        )
        server.start()
        try:
            response = fetch(*server.address, "/cold.bin")
        finally:
            server.stop()
        assert response.status == 200
        assert len(response.body) == BODY_SIZE
        assert server.stats.sendfile_warms == 0
        assert server.stats.blocking_reads == 0
        assert server.stats.sendfile_responses >= 1

    def test_warming_disabled_uses_mapped_route(self, docroot):
        """With ``helper_warming`` off the old chunk route handles cold
        content: chunks are pinned, residency is tested on the mapping and
        an OP_READ helper touches the pages."""
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = flash(docroot, oracle, helper_warming=False)
        server.start()
        try:
            response = fetch(*server.address, "/cold.bin")
        finally:
            server.stop()
        assert response.status == 200
        assert len(response.body) == BODY_SIZE
        assert server.stats.sendfile_warms == 0
        assert server.stats.blocking_reads >= 1


PIPELINE = (
    b"GET /cold.bin HTTP/1.1\r\nHost: x\r\n\r\n"
    b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"
    b"GET /cold.bin HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
)


def pipelined_bytes(address):
    """Send three pipelined requests on one connection; return the raw
    byte stream the server produced (Date headers normalized — they vary
    with the wall clock, not with the toggles under test)."""
    sock = socket.create_connection(address, timeout=5.0)
    try:
        sock.sendall(PIPELINE)
        received = bytearray()
        while True:
            data = sock.recv(65536)
            if not data:
                break
            received.extend(data)
    finally:
        sock.close()
    return re.sub(rb"Date: [^\r]+\r\n", b"Date: X\r\n", bytes(received))


class TestTogglesAreByteIdentical:
    def test_warming_on_and_off(self, docroot):
        """Warming on and off produce identical pipelined bytes."""
        streams = {}
        for warming in (True, False):
            oracle = SimulatedResidencyOracle(default_resident=False)
            server = flash(docroot, oracle, helper_warming=warming)
            server.start()
            try:
                streams[warming] = pipelined_bytes(server.address)
            finally:
                server.stop()
        assert len(streams[True]) > 2 * BODY_SIZE          # sanity: real bodies
        assert streams[True] == streams[False]


class TestClientAbortResilience:
    def test_abort_mid_transfer_does_not_kill_server(self, docroot):
        """Regression: a client that disconnects while its response is
        being prepared/transmitted must not unwind into the event loop
        (the optimistic write runs on helper completion paths).  The
        server keeps serving afterwards."""
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = flash(docroot, oracle)
        server.start()
        try:
            for _ in range(3):
                sock = socket.create_connection(server.address, timeout=5.0)
                sock.sendall(b"GET /cold.bin HTTP/1.1\r\nHost: x\r\n\r\n")
                sock.close()                     # abort before/while sending
            # The loop survived: a normal request still completes.
            response = fetch(*server.address, "/index.html")
            assert response.status == 200
        finally:
            server.stop()


@requires_sendfile
class TestProcessHelperDeathDuringWarm:
    def test_helper_killed_mid_warm_degrades_and_server_survives(
        self, docroot, monkeypatch
    ):
        """Regression (ROADMAP follow-up): a helper *process* that dies
        mid-OP_WARM EOFs its pipe.  The pool must synthesize a failed
        reply — so the in-flight request degrades to the buffered path and
        is still served — and the server must keep serving afterwards with
        the surviving helpers."""
        import repro.core.helpers as helpers_module

        def die(path, fd, offset, length):
            os._exit(23)

        # Patched before the server forks its helpers, so the children
        # inherit the crash while the parent (which only degrades and
        # re-reads) is unaffected.
        monkeypatch.setattr(helpers_module, "_warm_file_range", die)
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = flash(docroot, oracle, helper_mode="process")
        server.start()
        try:
            response = fetch(*server.address, "/cold.bin")
            follow_up = fetch(*server.address, "/index.html")
        finally:
            server.stop()
        assert response.status == 200
        assert len(response.body) == BODY_SIZE
        assert follow_up.status == 200
        stats = server.stats
        assert stats.sendfile_warms >= 1
        assert stats.sendfile_warm_degradations >= 1
        assert server.helpers.helpers_died >= 1
