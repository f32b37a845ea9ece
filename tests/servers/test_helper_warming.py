"""AMPED helper warming: every body leaves from a pinned descriptor, and
a cold one is warmed with ``OP_WARM`` whichever way it then leaves:

* a cold-file request is dispatched to a warm helper before transmission,
  whether the oracle says so or the file was really evicted;
* a request for a file a helper is still warming waits for its own warm,
  even though the pages in flight already count as cached;
* a warm-file request bypasses the helpers entirely;
* a hot entry whose file was evicted is rejected and re-warmed;
* a failed warm degrades to the buffered path (the client
  still receives the complete response);
* the route never changes response bytes — pipelined responses are
  byte-identical with zero-copy on or off.
"""

import os
import re
import select
import socket
import threading
import time

import pytest

from repro.cache.residency import MincoreResidencyTester, SimulatedResidencyOracle
from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.core.send_path import sendfile_available
from repro.core.server import FlashServer
from repro.http.request import RequestParser

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
        assert stats.blocking_reads >= 1
        assert stats.sendfile_responses >= 1
        assert stats.sendfile_warm_degradations == 0
        # The oracle was asked about the descriptor's window.
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
        assert server.stats.blocking_reads == 0
        # Helpers ran only for the pathname-translation miss, never reads.
        assert server.stats.sendfile_responses >= 2

    def test_helper_failure_mid_warm_degrades_to_buffered(self, docroot, monkeypatch):
        """A helper whose warm fails must not kill the request: the
        server falls back to the buffered path and still serves the full
        body."""
        import repro.core.helpers as helpers_module

        def crash(fd, offset, length):
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
        assert server.stats.blocking_reads >= 1
        assert server.stats.sendfile_warm_degradations >= 1

    def test_degradation_reads_the_pinned_descriptor(self, docroot, monkeypatch):
        """A file renamed over the path while the warm was failing does not
        leak into the degraded body: it is read from the descriptor the
        header describes."""
        import repro.core.helpers as helpers_module

        cold = os.path.join(docroot, "cold.bin")
        with open(cold, "rb") as handle:
            original = handle.read()
        replacement = os.path.join(docroot, "replacement.bin")

        def crash_after_rename(fd, offset, length):
            with open(replacement, "wb") as handle:
                handle.write(b"R" * BODY_SIZE)
            os.replace(replacement, cold)
            raise RuntimeError("helper crashed; file replaced meanwhile")

        monkeypatch.setattr(helpers_module, "_warm_file_range", crash_after_rename)
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = flash(docroot, oracle)
        server.start()
        try:
            response = fetch(*server.address, "/cold.bin")
        finally:
            server.stop()
        assert response.status == 200
        assert response.body == original
        assert server.stats.sendfile_warm_degradations == 1

    def test_degradation_refuses_mismatched_body(self, docroot, monkeypatch):
        """If the file changed size between header build and the degraded
        read, serving it would break keep-alive framing: the request must
        fail instead (the stale translation repairs on revalidation)."""
        import repro.core.helpers as helpers_module

        cold = os.path.join(docroot, "cold.bin")

        def crash_and_truncate(fd, offset, length):
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

    def test_cold_buffered_body_goes_through_op_warm(self, docroot):
        """Without zero-copy the body still leaves from its descriptor: a
        cold one is probed there and warmed with OP_WARM before the main
        loop reads it, so AMPED's invariant holds on this build too."""
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = flash(docroot, oracle, zero_copy=False)
        server.start()
        try:
            response = fetch(*server.address, "/cold.bin")
        finally:
            server.stop()
        assert response.status == 200
        assert len(response.body) == BODY_SIZE
        assert server.stats.blocking_reads == 1
        assert server.stats.sendfile_responses == 0
        assert server.stats.sendfile_warm_degradations == 0


def evict(path, attempts=50):
    """Drop ``path``'s pages from the page cache until the residency probe
    (which reads nothing) calls the file cold; False when the filesystem
    keeps them.  DONTNEED can miss pages still held in per-CPU batches,
    hence the retries."""
    fd = os.open(path, os.O_RDWR)
    try:
        os.fsync(fd)
        size = os.fstat(fd).st_size
        tester = MincoreResidencyTester()
        for _ in range(attempts):
            os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
            if not tester.file_resident(fd, size):
                return True
            time.sleep(0.02)
        return False
    finally:
        os.close(fd)


@requires_sendfile
@pytest.mark.cachestat
class TestRealEviction:
    """The default tester against a really evicted file: no oracle.  The
    probe starts no read, so the first request after an eviction is the
    one that goes through a helper."""

    SIZE = 256 * 1024

    def fresh_file(self, docroot):
        body = os.urandom(self.SIZE)
        path = os.path.join(docroot, "evict.bin")
        with open(path, "wb") as handle:
            handle.write(body)
        return "/evict.bin", path, body

    def test_evicted_file_is_warmed_through_op_warm(self, tmp_path):
        """A fresh file served right after its eviction: no cached
        descriptor or hot entry can answer for it."""
        docroot = str(tmp_path)
        target, path, body = self.fresh_file(docroot)
        if not evict(path):
            pytest.skip("POSIX_FADV_DONTNEED does not evict on this filesystem")
        server = FlashServer(ServerConfig(document_root=docroot, port=0, num_helpers=2))
        server.start()
        try:
            response = fetch(*server.address, target)
        finally:
            server.stop()
        assert response.status == 200
        assert response.body == body
        assert server.stats.blocking_reads == 1
        assert server.stats.sendfile_warm_degradations == 0

    def test_evicted_hot_entry_is_rejected(self, tmp_path):
        """A hot entry whose file is evicted is rejected and re-warmed.
        The entry is filed before the server starts: a file that went out
        through ``sendfile`` keeps its pages referenced (DONTNEED cannot
        drop them) for as long as the kernel holds the transmitted
        buffers."""
        docroot = str(tmp_path)
        target, path, body = self.fresh_file(docroot)
        server = FlashServer(ServerConfig(document_root=docroot, port=0, num_helpers=2))
        store = server.store
        parser = RequestParser()
        parser.feed(f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        entry = store.translate(target)
        content = store.build_response(parser.request, entry)
        assert store.hot_insert(parser.request, entry, content)
        assert store.content_resident(content)  # resident when it was filed
        content.release(store)
        if not evict(path):
            server.close()
            pytest.skip("POSIX_FADV_DONTNEED does not evict on this filesystem")
        server.start()
        try:
            response = fetch(*server.address, target)
        finally:
            server.stop()
        assert response.body == body
        assert server.stats.hot_hits == 1
        assert server.stats.hot_cold_fallbacks == 1
        assert server.stats.blocking_reads == 1


def read_until_closed(sock):
    received = bytearray()
    while True:
        data = sock.recv(65536)
        if not data:
            return bytes(received)
        received += data


@requires_sendfile
class TestWarmInFlight:
    @pytest.mark.parametrize("hot", [False, True], ids=["miss", "hot-hit"])
    def test_request_for_a_file_being_warmed_waits_for_its_own_warm(
        self, docroot, monkeypatch, hot
    ):
        """``cachestat`` counts pages whose read is still in flight, so
        right after a helper's ``WILLNEED`` the probe calls the file
        resident while a read of it would still wait on the disk.  A second
        request for a file a helper is warming must therefore go to its own
        ``OP_WARM`` (which waits in a helper), not straight to ``sendfile``
        on the loop."""
        import repro.core.helpers as helpers_module

        real_warm = helpers_module._warm_file_range
        release = threading.Event()
        warms = threading.Semaphore(0)

        def blocking_warm(fd, offset, length):
            warms.release()
            assert release.wait(10.0)
            return real_warm(fd, offset, length)

        monkeypatch.setattr(helpers_module, "_warm_file_range", blocking_warm)
        oracle = SimulatedResidencyOracle(default_resident=False)
        server = flash(docroot, oracle)
        store = server.store
        # Translated up front: every helper dispatch below is a warm.
        entry = store.translate("/cold.bin")
        path = entry.filesystem_path
        request = b"GET /cold.bin HTTP/1.0\r\n\r\n"
        if hot:
            # Both requests hit this entry, and the hot-hit gate sends
            # each down the full path.
            parser = RequestParser()
            parser.feed(request)
            content = store.build_response(parser.request, entry)
            assert store.hot_insert(parser.request, entry, content)
            content.release(store)
        server.start()
        first = socket.create_connection(server.address, timeout=10.0)
        second = socket.create_connection(server.address, timeout=10.0)
        try:
            first.sendall(request)
            assert warms.acquire(timeout=10.0), "the cold request never reached OP_WARM"
            oracle.mark_resident(path)  # what the probe reports after WILLNEED
            second.sendall(request)
            readable, _, _ = select.select([second], [], [], 0.3)
            assert readable == [], "the second response left while the file was being warmed"
            assert warms.acquire(timeout=10.0), "the second request never reached OP_WARM"
            release.set()
            responses = [read_until_closed(first), read_until_closed(second)]
        finally:
            release.set()
            first.close()
            second.close()
            server.stop()
        with open(path, "rb") as handle:
            body = handle.read()
        assert [response.split(b"\r\n\r\n", 1)[1] for response in responses] == [body, body]
        assert server.stats.helper_dispatches == 2
        assert server.stats.blocking_reads == 2
        assert server.stats.hot_cold_fallbacks == (2 if hot else 0)
        assert server.stats.sendfile_warm_degradations == 0


class TestShrunkFile:
    def test_file_shrunk_after_translation_ends_short(self, tmp_path):
        """Residency is page-granular: a 3,000-byte header over a file
        shrunk to 1,000 bytes probes its one page resident.  The send then
        comes up short, and the connection ends there: the client gets the
        1,000 bytes and EOF, never a full-length body."""
        path = tmp_path / "shrink.bin"
        body = os.urandom(3000)
        path.write_bytes(body)
        server = FlashServer(ServerConfig(document_root=str(tmp_path), port=0, num_helpers=2))
        assert server.store.translate("/shrink.bin").size == 3000
        os.truncate(path, 1000)
        server.start()
        sock = socket.create_connection(server.address, timeout=10.0)
        try:
            sock.sendall(b"GET /shrink.bin HTTP/1.1\r\nHost: x\r\n\r\n")
            head, _, received = read_until_closed(sock).partition(b"\r\n\r\n")
        finally:
            sock.close()
            server.stop()
        assert b"Content-Length: 3000" in head
        assert received == body[:1000]


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
        """OP_WARM before sendfile and OP_WARM before a buffered send
        produce identical pipelined bytes."""
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
