"""Unit and integration tests for the HTTP clients (simple + load generator)."""

import socket
from dataclasses import fields

import pytest

from repro.client import loadgen
from repro.client.coordinator import merge_results
from repro.client.loadgen import ClientResult, LoadGenerator, LoadResult
from repro.client.simple import HTTPResponse, fetch, parse_response
from repro.core.config import ServerConfig
from repro.core.server import FlashServer


class TestParseResponse:
    def test_full_response(self):
        raw = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello"
        )
        response = parse_response(raw)
        assert response.status == 200
        assert response.reason == "OK"
        assert response.headers["content-type"] == "text/plain"
        assert response.body == b"hello"
        assert response.content_length == 5

    def test_missing_terminator_rejected(self):
        with pytest.raises(ValueError):
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5")

    def test_malformed_status_line_rejected(self):
        with pytest.raises(ValueError):
            parse_response(b"garbage\r\n\r\n")

    def test_status_without_reason(self):
        response = parse_response(b"HTTP/1.0 204\r\n\r\n")
        assert response.status == 204
        assert response.reason == ""

    def test_content_length_default_zero(self):
        assert HTTPResponse(status=200, reason="OK").content_length == 0


class TestLoadResult:
    def test_bandwidth_and_rate(self):
        result = LoadResult(requests_completed=100, bytes_received=1_000_000, elapsed=2.0)
        assert result.request_rate == pytest.approx(50.0)
        assert result.bandwidth_mbps == pytest.approx(4.0)

    def test_zero_elapsed_is_safe(self):
        result = LoadResult()
        assert result.bandwidth_mbps == 0.0
        assert result.request_rate == 0.0

    def test_to_dict_keys(self):
        keys = set(LoadResult().to_dict())
        assert {"requests_completed", "bandwidth_mbps", "request_rate", "errors"} <= keys
        assert {"responses_2xx", "responses_206", "dispatched", "latency"} <= keys

    def test_to_dict_latency_summary(self):
        result = LoadResult()
        result.latency.record(0.002)
        summary = result.to_dict()["latency"]
        assert summary["count"] == 1
        assert summary["p99_ms"] == pytest.approx(2.0)


class TestCounterSums:
    """Summing is field-driven: a counter added to ``ClientResult`` later is
    summed by ``run()`` and ``merge_results`` with no other edit."""

    @staticmethod
    def numbered(result, factor=1):
        for value, counter in enumerate(fields(ClientResult), 1):
            setattr(result, counter.name, factor * value)
        return result

    def test_run_sums_every_client_field(self, monkeypatch):
        def start(client):
            self.numbered(client.result)
            client.state = loadgen.DONE

        monkeypatch.setattr(loadgen._SimClient, "start", start)
        result = LoadGenerator(("127.0.0.1", 1), "/", num_clients=3, duration=5.0).run()
        assert len(result.per_client) == 3
        for value, counter in enumerate(fields(ClientResult), 1):
            assert getattr(result, counter.name) == 3 * value, counter.name

    def test_merge_sums_every_client_field(self):
        merged = merge_results([self.numbered(LoadResult(), f) for f in (1, 2, 3)])
        for value, counter in enumerate(fields(ClientResult), 1):
            assert getattr(merged, counter.name) == 6 * value, counter.name


class TestFailurePacing:
    def test_closed_port_reconnects_are_paced(self):
        """A refused closed-loop connect comes back after ``retry_backoff``,
        not at once: 2 clients over 0.5 s make about 2 x 10 attempts."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        result = LoadGenerator(
            ("127.0.0.1", port), "/", num_clients=2, duration=0.5, retry_backoff=0.05
        ).run()
        assert 2 <= result.connects <= 30
        # Each refusal is an error, not a retry; at most one connect per
        # client can still be pending when the run ends.
        assert result.connects - 2 <= result.errors <= result.connects
        assert result.retries == 0
        assert result.requests_completed == 0


class TestLoadGeneratorConfig:
    def test_requires_a_stop_condition(self):
        with pytest.raises(ValueError):
            LoadGenerator(("127.0.0.1", 80), "/")

    def test_path_sources(self):
        generator = LoadGenerator(("127.0.0.1", 80), ["/a", "/b"], max_requests=1)
        assert [generator.next_path() for _ in range(4)] == ["/a", "/b", "/a", "/b"]

        generator = LoadGenerator(("127.0.0.1", 80), "/only", max_requests=1)
        assert generator.next_path() == "/only"

        counter = iter(range(100))
        generator = LoadGenerator(
            ("127.0.0.1", 80), lambda: f"/n{next(counter)}", max_requests=1
        )
        assert generator.next_path() == "/n0"
        assert generator.next_path() == "/n1"

    def test_empty_iterable_rejected(self):
        with pytest.raises(ValueError):
            LoadGenerator(("127.0.0.1", 80), [], max_requests=1)

    def test_bad_path_type_rejected(self):
        with pytest.raises(TypeError):
            LoadGenerator(("127.0.0.1", 80), 42, max_requests=1)


class TestEndToEndLoad:
    @pytest.fixture
    def server(self, tmp_path):
        (tmp_path / "page.html").write_bytes(b"<html>" + b"x" * 2000 + b"</html>")
        (tmp_path / "other.html").write_bytes(b"<html>other</html>")
        server = FlashServer(ServerConfig(document_root=str(tmp_path), port=0))
        server.start()
        yield server
        server.stop()

    def test_fetch_against_real_server(self, server):
        response = fetch(*server.address, "/page.html")
        assert response.status == 200
        assert len(response.body) == 2013

    def test_load_generator_request_budget(self, server):
        generator = LoadGenerator(
            server.address, "/page.html", num_clients=4, max_requests=40
        )
        result = generator.run()
        assert result.requests_completed >= 40
        assert result.errors == 0
        assert result.bytes_received > 40 * 2000

    def test_load_generator_multiple_paths(self, server):
        generator = LoadGenerator(
            server.address, ["/page.html", "/other.html"], num_clients=2, max_requests=20
        )
        result = generator.run()
        assert result.requests_completed >= 20
        assert result.errors == 0

    def test_load_generator_without_keep_alive(self, server):
        generator = LoadGenerator(
            server.address,
            "/page.html",
            num_clients=2,
            max_requests=10,
            keep_alive=False,
        )
        result = generator.run()
        assert result.requests_completed >= 10
        # Without keep-alive every request needs its own connection.
        assert result.connects >= result.requests_completed

    def test_per_client_accounting(self, server):
        generator = LoadGenerator(
            server.address, "/page.html", num_clients=3, max_requests=15
        )
        result = generator.run()
        assert len(result.per_client) == 3
        assert sum(c.requests_completed for c in result.per_client) == result.requests_completed

    def test_status_class_counters(self, server):
        generator = LoadGenerator(
            server.address, "/page.html", num_clients=2, max_requests=20
        )
        result = generator.run()
        # Plain GETs on an existing file: every completion is a 2xx.
        assert result.responses_2xx == result.requests_completed
        assert result.responses_206 == 0
        assert sum(c.responses_2xx for c in result.per_client) == result.responses_2xx
        # Every completed request contributed one latency sample.
        assert result.latency.count == result.requests_completed
        assert result.latency.percentile(0.5) > 0.0

    def test_206_counted_as_2xx_and_206(self, server):
        generator = LoadGenerator(
            server.address, "/page.html",
            num_clients=2, max_requests=20, duration=10.0,
            range_fraction=0.5, range_spec="0-99",
        )
        result = generator.run()
        assert result.errors == 0
        assert result.responses_206 > 0
        assert result.responses_2xx == result.requests_completed
        assert result.responses_206 < result.responses_2xx


class TestRangeFraction:
    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            LoadGenerator(("127.0.0.1", 1), "/", max_requests=1, range_fraction=1.5)

    def test_error_diffusion_is_exact(self):
        generator = LoadGenerator(
            ("127.0.0.1", 1), "/", max_requests=1, range_fraction=0.25
        )
        mix = [generator.next_request_shape() == "ranged" for _ in range(100)]
        assert sum(mix) == 25
        # Deterministic interleave: exactly every 4th request is ranged.
        assert all(mix[i] == (i % 4 == 3) for i in range(100))

    def test_zero_fraction_never_ranges(self):
        generator = LoadGenerator(("127.0.0.1", 1), "/", max_requests=1)
        assert "ranged" not in {generator.next_request_shape() for _ in range(50)}

    def test_ranged_request_bytes_carry_header(self):
        generator = LoadGenerator(
            ("127.0.0.1", 1), "/x", max_requests=1,
            range_fraction=0.5, range_spec="0-511",
        )
        full = generator.request_bytes("/x", ranged=False)
        ranged = generator.request_bytes("/x", ranged=True)
        assert b"Range:" not in full
        assert b"Range: bytes=0-511\r\n" in ranged
        # Cached separately per shape.
        assert generator.request_bytes("/x", ranged=True) is ranged

    def test_range_mix_against_real_server(self, tmp_path):
        body = bytes(range(256)) * 16
        (tmp_path / "f.bin").write_bytes(body)
        server = FlashServer(ServerConfig(document_root=str(tmp_path), port=0))
        server.start()
        try:
            generator = LoadGenerator(
                server.address,
                "/f.bin",
                num_clients=2,
                max_requests=40,
                duration=10.0,
                range_fraction=0.5,
                range_spec="0-1023",
            )
            result = generator.run()
        finally:
            server.stop()
        assert result.errors == 0
        assert result.requests_completed >= 40
        stats = server.stats
        assert stats.range_responses > 0
        # The mix is half-and-half: both full and partial responses flowed.
        assert stats.responses_ok > stats.range_responses


class TestConditionalFraction:
    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            LoadGenerator(
                ("127.0.0.1", 1), "/", max_requests=1, conditional_fraction=-0.1
            )

    def test_error_diffusion_is_exact(self):
        generator = LoadGenerator(
            ("127.0.0.1", 1), "/", max_requests=1, conditional_fraction=0.25
        )
        mix = [generator.next_is_conditional() for _ in range(100)]
        assert sum(mix) == 25
        # Deterministic interleave: exactly every 4th request revalidates.
        assert all(mix[i] == (i % 4 == 3) for i in range(100))

    def test_zero_fraction_never_conditional(self):
        generator = LoadGenerator(("127.0.0.1", 1), "/", max_requests=1)
        assert not any(generator.next_is_conditional() for _ in range(50))

    def test_captured_etag_replayed_as_if_none_match(self):
        generator = LoadGenerator(
            ("127.0.0.1", 1), "/x", max_requests=1, conditional_fraction=0.5
        )
        assert generator.captured_etag("/x") is None
        generator.record_etag("/x", '"abc-def"')
        assert generator.captured_etag("/x") == '"abc-def"'
        plain = generator.request_bytes("/x")
        conditional = generator.request_bytes("/x", etag='"abc-def"')
        assert b"If-None-Match" not in plain
        assert b'If-None-Match: "abc-def"\r\n' in conditional
        # Cached separately per replayed validator.
        assert generator.request_bytes("/x", etag='"abc-def"') is conditional
        assert generator.request_bytes("/x", etag='"other"') is not conditional

    def test_conditional_mix_against_real_server(self, tmp_path):
        body = bytes(range(256)) * 16
        (tmp_path / "f.bin").write_bytes(body)
        server = FlashServer(ServerConfig(document_root=str(tmp_path), port=0))
        server.start()
        try:
            generator = LoadGenerator(
                server.address,
                "/f.bin",
                num_clients=2,
                max_requests=40,
                duration=10.0,
                conditional_fraction=0.5,
            )
            result = generator.run()
        finally:
            server.stop()
        assert result.errors == 0
        assert result.requests_completed >= 40
        # 304s are counted separately from 200s, on both sides of the wire.
        assert result.not_modified > 0
        assert result.not_modified < result.requests_completed
        assert server.stats.not_modified_responses == result.not_modified
        assert result.to_dict()["not_modified"] == result.not_modified


class TestRequestBudget:
    def test_requests_in_flight_count_against_the_budget(self):
        generator = LoadGenerator(("127.0.0.1", 1), "/", max_requests=3)
        generator.total_requests, generator.in_flight = 1, 2
        assert not generator.can_issue()
        generator.in_flight = 1
        assert generator.can_issue()

    def test_server_answers_exactly_the_budget(self, tmp_path):
        """More clients than requests: none may send past ``max_requests``,
        so the server counts exactly what the generator read."""
        (tmp_path / "f.bin").write_bytes(b"x" * 512)
        server = FlashServer(ServerConfig(document_root=str(tmp_path), port=0))
        server.start()
        try:
            generator = LoadGenerator(
                server.address, "/f.bin", num_clients=8, max_requests=5, duration=10.0
            )
            result = generator.run()
        finally:
            server.stop()
        assert result.errors == 0
        assert result.requests_completed == 5
        assert server.stats.requests == 5

    def test_combined_mixes_stay_exact(self):
        """range_fraction must not be diluted by conditional_fraction:
        the range accumulator advances every request and carries collided
        slots forward, so both shares are exact over the window."""
        generator = LoadGenerator(
            ("127.0.0.1", 1), "/", max_requests=1,
            range_fraction=0.25, conditional_fraction=0.5,
        )
        shapes = [generator.next_request_shape() for _ in range(100)]
        assert shapes.count("conditional") == 50
        # Exact 0.25 cadence (every 4th request), shifted one slot by the
        # first collision with a revalidation: 24 fires land in the first
        # 100 requests, the 25th on request 101.
        assert shapes.count("ranged") == 24
        assert shapes.count("plain") == 26
        more = [generator.next_request_shape() for _ in range(100)]
        assert (shapes + more).count("ranged") == 49

    def test_combined_mixes_saturated(self):
        """Fractions summing past 1: revalidation slots win, ranged fills
        every remaining slot, and the carry stays bounded."""
        generator = LoadGenerator(
            ("127.0.0.1", 1), "/", max_requests=1,
            range_fraction=0.75, conditional_fraction=0.5,
        )
        shapes = [generator.next_request_shape() for _ in range(100)]
        assert shapes.count("conditional") == 50
        # Ranged fills every slot revalidations leave from the first
        # accumulated fire onward (the bounded carry keeps it saturated).
        assert shapes.count("ranged") == 49
        assert shapes.count("plain") == 1
        assert all(shape != "plain" for shape in shapes[2:])


class TestSlowClientCounters:
    def test_result_dict_carries_misbehaving_counters(self):
        result = LoadResult(reaped=3, rejected_408=2, elapsed=1.0)
        summary = result.to_dict()
        assert summary["reaped"] == 3
        assert summary["rejected_408"] == 2

    def test_dribble_knobs_clamped(self):
        generator = LoadGenerator(
            ("127.0.0.1", 1), "/", max_requests=1,
            slow_writers=1, dribble_bytes=0, dribble_interval=0.0,
        )
        assert generator.dribble_bytes == 1
        assert generator.dribble_interval > 0.0
