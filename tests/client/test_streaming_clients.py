"""Load-generator coverage for the streaming response shapes.

Unit-level: the one chunk walker (``walk_chunks``) both clients use — the
regular client to recognise a complete ``Transfer-Encoding: chunked`` body,
the SSE subscriber to strip framing incrementally from a growing buffer —
plus the error-diffusion chunked mix.
Live: a real server streams CGI chunks and SSE heartbeats to the real
clients, and the per-shape counters survive the cluster merge.
"""

import socket
import threading

import pytest

from repro.client.coordinator import LoadCoordinator, merge_results
from repro.client.loadgen import ClientResult, LoadGenerator, LoadResult
from repro.client.simple import walk_chunks
from repro.core.config import ServerConfig
from repro.servers import create_server


class TestWalkChunks:
    def test_complete_body_returns_offset_past_terminator(self):
        raw = bytearray(b"3\r\nabc\r\n0\r\n\r\n")
        assert walk_chunks(raw, 0) == (len(raw), b"abc", True)

    def test_offset_relative_to_start(self):
        raw = bytearray(b"HEAD" + b"1\r\nx\r\n0\r\n\r\n")
        assert walk_chunks(raw, 4) == (len(raw), b"x", True)

    def test_incomplete_framings_are_not_done(self):
        for partial in (b"", b"3", b"3\r\n", b"3\r\nab", b"3\r\nabc\r\n",
                        b"3\r\nabc\r\n0\r\n"):
            position, _, done = walk_chunks(bytearray(partial), 0)
            assert not done
            # The cursor stops at the first chunk that has not fully arrived.
            assert position == (8 if partial.startswith(b"3\r\nabc\r\n") else 0)

    def test_trailing_bytes_after_terminator_ignored(self):
        raw = bytearray(b"1\r\na\r\n0\r\n\r\nHTTP/1.1 200 ...")
        assert walk_chunks(raw, 0) == (len(b"1\r\na\r\n0\r\n\r\n"), b"a", True)

    @pytest.mark.parametrize("size_line", [b"zz", b"-5"])
    def test_malformed_size_line_raises(self, size_line):
        with pytest.raises(ValueError):
            walk_chunks(bytearray(size_line + b"\r\nabc\r\n"), 0)

    def test_incremental_payload_extraction(self):
        buffer = bytearray(b"5\r\nhel")
        position, payload, _ = walk_chunks(buffer, 0)
        assert (position, payload) == (0, b"")
        buffer.extend(b"lo\r\n")
        position, payload, _ = walk_chunks(buffer, position)
        assert payload == b"hello"
        buffer.extend(b"3\r\n!!!\r\n")
        position, payload, done = walk_chunks(buffer, position)
        assert (payload, done) == (b"!!!", False)
        assert position == len(buffer)

    def test_terminator_marks_done(self):
        buffer = bytearray(b"2\r\nok\r\n0\r\n\r\n")
        assert walk_chunks(buffer, 0) == (len(buffer), b"ok", True)
        assert walk_chunks(buffer, len(buffer)) == (len(buffer), b"", False)


class TestChunkedMix:
    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            LoadGenerator(("h", 1), "/", max_requests=1, chunked_fraction=1.5)
        with pytest.raises(ValueError):
            LoadGenerator(("h", 1), "/", max_requests=1, chunked_fraction=-0.1)

    def test_error_diffusion_is_exact(self):
        generator = LoadGenerator(
            ("h", 1), "/", max_requests=1, chunked_fraction=0.25
        )
        shapes = [generator.next_request_shape() for _ in range(400)]
        assert shapes.count("chunked") == 100

    def test_zero_fraction_never_chunked(self):
        generator = LoadGenerator(("h", 1), "/", max_requests=1)
        assert all(
            generator.next_request_shape() != "chunked" for _ in range(100)
        )

    def test_chunked_yields_to_conditional_and_shares_stay_exact(self):
        generator = LoadGenerator(
            ("h", 1), "/", max_requests=1,
            conditional_fraction=0.5, chunked_fraction=0.25,
        )
        shapes = [generator.next_request_shape() for _ in range(400)]
        assert shapes.count("conditional") == 200
        # Exact up to the documented one-startup-slot carry.
        assert abs(shapes.count("chunked") - 100) <= 1


def cgi_stream(data):
    for i in range(3):
        yield f"part-{i};".encode()


class TestLiveStreamingLoad:
    @pytest.fixture
    def server(self, tmp_path):
        (tmp_path / "page.html").write_bytes(b"<html>" + b"x" * 500 + b"</html>")
        config = ServerConfig(
            document_root=str(tmp_path),
            port=0,
            num_helpers=2,
            cgi_programs={"stream": cgi_stream},
            sse_path="/sse",
            sse_heartbeat=0.05,
        )
        server = create_server("amped", config)
        server.start()
        yield server
        server.stop()

    def test_chunked_mix_against_real_server(self, server):
        generator = LoadGenerator(
            server.address,
            "/page.html",
            num_clients=2,
            max_requests=40,
            chunked_fraction=0.25,
        )
        result = generator.run()
        assert result.errors == 0
        assert result.requests_completed >= 40
        # One in four requests hit the streaming CGI endpoint.
        assert result.chunked_responses >= result.requests_completed // 5

    def test_sse_clients_count_events(self, server):
        generator = LoadGenerator(
            server.address,
            "/page.html",
            num_clients=1,
            sse_clients=2,
            duration=0.6,
        )
        result = generator.run()
        assert result.errors == 0
        # Two subscribers × a 50 ms heartbeat × 0.6 s: several events each.
        assert result.sse_events >= 4

    def test_sse_subscriber_counts_malformed_framing(self):
        # A stub that answers the subscription with an unparseable chunk
        # size: the subscriber records one error and gives up.
        listener = socket.create_server(("127.0.0.1", 0))
        answered = threading.Event()

        def answer():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"
                )
                answered.wait(2.0)

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        try:
            generator = LoadGenerator(
                listener.getsockname(), "/", num_clients=0, sse_clients=1, duration=0.3
            )
            result = generator.run()
        finally:
            answered.set()
            thread.join(2.0)
            listener.close()
        assert result.errors == 1
        assert result.sse_events == 0

    def test_coordinator_threads_streaming_knobs(self, server):
        coordinator = LoadCoordinator(
            server.address,
            ["/page.html"],
            workers=2,
            num_clients=2,
            max_requests=20,
            chunked_fraction=0.5,
            sse_clients=1,
        )
        specs = coordinator.worker_specs()
        workers = [
            LoadGenerator(spec.address, spec.paths, **spec.options) for spec in specs
        ]
        assert all(worker.chunked_fraction == 0.5 for worker in workers)
        assert all(worker.sse_clients == 1 for worker in workers)
        assert all(worker.chunked_path == "/cgi-bin/stream" for worker in workers)
        assert all(worker.sse_path == "/sse" for worker in workers)


class TestMergeStreamingCounters:
    def test_merge_sums_chunked_and_sse(self):
        def shard(chunked, sse):
            result = LoadResult()
            result.per_client.append(ClientResult())
            result.requests_completed = 10
            result.chunked_responses = chunked
            result.sse_events = sse
            result.elapsed = 1.0
            return result

        merged = merge_results([shard(3, 7), shard(4, 0), shard(0, 2)])
        assert merged.chunked_responses == 7
        assert merged.sse_events == 9
        assert merged.requests_completed == 30

    def test_to_dict_carries_streaming_counters(self):
        result = LoadResult()
        result.chunked_responses = 5
        result.sse_events = 11
        payload = result.to_dict()
        assert payload["chunked_responses"] == 5
        assert payload["sse_events"] == 11
