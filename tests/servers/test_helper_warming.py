"""AMPED helper warming for fd-backed (sendfile) responses.

The warming route follows from the send mechanism — ``OP_WARM`` on the
descriptor for a ``sendfile`` body, ``OP_READ`` over the chunks for a
mapped one:

* a cold-file request is dispatched to a warm helper before transmission,
  whether the oracle says so or the file was really evicted;
* a warm-file request bypasses the helpers entirely;
* a hot entry whose file was evicted is rejected and re-warmed;
* a helper failure mid-warm degrades to the buffered path (the client
  still receives the complete response);
* the route never changes response bytes — pipelined responses are
  byte-identical with zero-copy on or off.
"""

import mmap
import os
import re
import socket
import time

import pytest

import repro.cache.residency as residency_module
from repro.cache.residency import SimulatedResidencyOracle
from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.core.pipeline import FD_RESIDENT_PROBE_TTL
from repro.core.send_path import sendfile_available
from repro.core.server import FlashServer
from repro.http.request import RequestParser

requires_sendfile = pytest.mark.skipif(
    not sendfile_available(), reason="os.sendfile not available"
)
requires_nowait = pytest.mark.skipif(
    residency_module._RWF_NOWAIT is None, reason="no preadv(RWF_NOWAIT)"
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

    def test_mmap_cache_off_still_warms_the_descriptor(self, docroot):
        """With the mmap cache disabled the response is fd-backed either
        way: a cold one is warmed with OP_WARM like any sendfile body."""
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = flash(docroot, oracle, enable_mmap_cache=False)
        server.start()
        try:
            response = fetch(*server.address, "/cold.bin")
        finally:
            server.stop()
        assert response.status == 200
        assert len(response.body) == BODY_SIZE
        assert server.stats.sendfile_warms == 1
        assert server.stats.blocking_reads == 1
        assert server.stats.sendfile_responses >= 1

    def test_buffered_body_uses_mapped_route(self, docroot):
        """Without zero-copy the body is mapped chunks: residency is tested
        on the mapping and an OP_READ helper touches the pages."""
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = flash(docroot, oracle, zero_copy=False)
        server.start()
        try:
            response = fetch(*server.address, "/cold.bin")
        finally:
            server.stop()
        assert response.status == 200
        assert len(response.body) == BODY_SIZE
        assert server.stats.sendfile_warms == 0
        assert server.stats.blocking_reads >= 1


def evict(path, attempts=50):
    """Drop ``path``'s pages from the page cache until ``mincore`` (which
    starts no I/O) shows none of them; False when the filesystem keeps
    them.  DONTNEED can miss pages still held in per-CPU batches, hence
    the retries."""
    fd = os.open(path, os.O_RDWR)
    try:
        os.fsync(fd)
        pages = range(0, os.fstat(fd).st_size, mmap.PAGESIZE)
        for _ in range(attempts):
            os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
            if all(residency_module._mapped_resident(fd, 1, page) is False for page in pages):
                return True
            time.sleep(0.02)
        return False
    finally:
        os.close(fd)


@requires_sendfile
@requires_nowait
class TestRealEviction:
    """The default tester against a really evicted file: no oracle."""

    SIZE = 256 * 1024

    @pytest.fixture
    def evictable(self, tmp_path):
        body = os.urandom(self.SIZE)
        (tmp_path / "evict.bin").write_bytes(body)
        return str(tmp_path), str(tmp_path / "evict.bin"), body

    def test_evicted_file_is_warmed_through_op_warm(self, evictable):
        docroot, path, body = evictable
        server = FlashServer(ServerConfig(document_root=docroot, port=0, num_helpers=2))
        server.start()
        try:
            if not evict(path):
                pytest.skip("POSIX_FADV_DONTNEED does not evict on this filesystem")
            response = fetch(*server.address, "/evict.bin")
        finally:
            server.stop()
        assert response.status == 200
        assert response.body == body
        assert server.stats.sendfile_warms == 1
        assert server.stats.sendfile_warm_degradations == 0

    def test_evicted_hot_entry_is_rejected(self, evictable):
        """A hot entry whose file is evicted after its descriptor's
        resident verdict expired is rejected and re-warmed.  The entry is
        filed before the server starts: a file that went out through
        ``sendfile`` keeps its pages referenced (DONTNEED cannot drop them)
        for as long as the kernel holds the transmitted buffers."""
        docroot, path, body = evictable
        server = FlashServer(ServerConfig(document_root=docroot, port=0, num_helpers=2))
        store = server.store
        parser = RequestParser()
        parser.feed(b"GET /evict.bin HTTP/1.1\r\nHost: x\r\n\r\n")
        entry = store.translate("/evict.bin")
        content = store.build_response(parser.request, entry)
        assert store.hot_insert(parser.request, entry, content)
        assert store.content_resident(content)  # a verdict cached for the TTL
        content.release(store)
        time.sleep(FD_RESIDENT_PROBE_TTL * 1.5)
        if not evict(path):
            server.close()
            pytest.skip("POSIX_FADV_DONTNEED does not evict on this filesystem")
        server.start()
        try:
            response = fetch(*server.address, "/evict.bin")
        finally:
            server.stop()
        assert response.body == body
        assert server.stats.hot_hits == 1
        assert server.stats.hot_cold_fallbacks == 1


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
    def test_zero_copy_on_and_off(self, docroot):
        """Both warming routes — OP_WARM before sendfile, OP_READ before a
        buffered send — produce identical pipelined bytes."""
        streams = {}
        for zero_copy in (True, False):
            oracle = SimulatedResidencyOracle(default_resident=False)
            server = flash(docroot, oracle, zero_copy=zero_copy)
            server.start()
            try:
                streams[zero_copy] = pipelined_bytes(server.address)
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
