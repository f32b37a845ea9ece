"""Unit tests for the command-line interface."""

import os
import signal
import threading

import pytest

from repro.cli import build_parser, cmd_loadgen, main
from repro.core.config import ServerConfig
from repro.core.server import FlashServer


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--root", "/tmp/www", "--architecture", "sped", "--port", "1234"]
        )
        assert args.command == "serve"
        assert args.architecture == "sped"
        assert args.port == 1234

    def test_serve_rejects_unknown_architecture(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--root", "x", "--architecture", "iis"])

    def test_loadgen_arguments(self):
        args = build_parser().parse_args(
            ["loadgen", "--port", "8080", "--path", "/a", "--path", "/b", "--clients", "4"]
        )
        assert args.path == ["/a", "/b"]
        assert args.clients == 4

    def test_experiment_arguments(self):
        args = build_parser().parse_args(["experiment", "fig9", "--quick"])
        assert args.figure == "fig9"
        assert args.quick

    def test_serve_timeout_and_caching_knobs(self):
        args = build_parser().parse_args(["serve", "--root", "/tmp/www"])
        assert args.header_timeout == 15.0
        assert args.idle_timeout == 30.0
        assert args.write_stall_timeout == 30.0
        assert args.cache_max_age == 0
        args = build_parser().parse_args(
            ["serve", "--root", "/tmp/www",
             "--header-timeout", "5", "--idle-timeout", "10",
             "--write-stall-timeout", "2.5", "--cache-max-age", "600"]
        )
        assert args.header_timeout == 5.0
        assert args.idle_timeout == 10.0
        assert args.write_stall_timeout == 2.5
        assert args.cache_max_age == 600

    def test_loadgen_cluster_knobs(self):
        args = build_parser().parse_args(["loadgen", "--port", "8080"])
        assert args.workers == 1
        assert not args.pin_cpus
        assert args.arrival_rate is None
        assert args.seed == 0
        assert args.json is None
        args = build_parser().parse_args(
            ["loadgen", "--port", "8080", "--workers", "4", "--pin-cpus",
             "--arrival-rate", "500", "--seed", "42", "--json", "-"]
        )
        assert args.workers == 4
        assert args.pin_cpus
        assert args.arrival_rate == 500.0
        assert args.seed == 42
        assert args.json == "-"

    def test_experiment_json_flag(self):
        args = build_parser().parse_args(["experiment", "fig9", "--json", "out"])
        assert args.json == "out"

    def test_validate_bench_arguments(self):
        args = build_parser().parse_args(["validate-bench", "a.json", "b.json"])
        assert args.command == "validate-bench"
        assert args.files == ["a.json", "b.json"]

    def test_loadgen_slow_client_knobs(self):
        args = build_parser().parse_args(["loadgen", "--port", "8080"])
        assert args.slow_writers == 0 and args.slow_readers == 0
        args = build_parser().parse_args(
            ["loadgen", "--port", "8080", "--slow-writers", "3",
             "--slow-readers", "2", "--dribble-bytes", "4",
             "--dribble-interval", "0.1"]
        )
        assert args.slow_writers == 3
        assert args.slow_readers == 2
        assert args.dribble_bytes == 4
        assert args.dribble_interval == 0.1


class TestServeSummary:
    def test_summary_reads_real_stats_fields(self):
        """_format_summary against a real ServerStats: if a counter the
        summary prints is renamed server-side, this breaks loudly instead
        of at shutdown in production."""
        from repro.cli import _format_summary
        from repro.core.pipeline import ServerStats

        stats = ServerStats()
        stats.timeouts_header = 3
        stats.timeouts_idle = 2
        stats.timeouts_write_stall = 1
        summary = _format_summary(stats)
        assert "timeouts: 3 header, 2 idle, 1 write-stall" in summary
        assert "served 0 requests" in summary

    def test_summary_reads_streaming_fields(self):
        from repro.cli import _format_summary
        from repro.core.pipeline import ServerStats

        stats = ServerStats()
        stats.streamed_responses = 7
        stats.chunked_responses = 5
        stats.sse_connections = 3
        stats.backpressure_pauses = 2
        stats.sse_dropped_events = 1
        summary = _format_summary(stats)
        assert "streaming: 7 streamed (5 chunked)" in summary
        assert "3 sse-subscribers" in summary
        assert "2 backpressure-pauses" in summary
        assert "1 sse-dropped" in summary


class TestLoadgenCommand:
    def test_loadgen_against_real_server(self, tmp_path, capsys):
        (tmp_path / "index.html").write_bytes(b"<html>cli</html>")
        server = FlashServer(ServerConfig(document_root=str(tmp_path), port=0))
        server.start()
        try:
            host, port = server.address
            code = main(
                [
                    "loadgen",
                    "--host", host,
                    "--port", str(port),
                    "--path", "/index.html",
                    "--clients", "2",
                    "--duration", "0.4",
                ]
            )
        finally:
            server.stop()
        assert code == 0
        output = capsys.readouterr().out
        assert "requests completed" in output
        assert "errors:             0" in output

    def test_loadgen_reports_failure_exit_code(self, capsys):
        # Nothing listens on this port: every request fails, exit code 1.
        args = build_parser().parse_args(
            ["loadgen", "--port", "1", "--clients", "1", "--duration", "0.2"]
        )
        assert cmd_loadgen(args) == 1

    def test_open_loop_loadgen_prints_latency_and_schedule(self, tmp_path, capsys):
        (tmp_path / "index.html").write_bytes(b"<html>cli</html>")
        server = FlashServer(ServerConfig(document_root=str(tmp_path), port=0))
        server.start()
        try:
            host, port = server.address
            json_path = tmp_path / "run.json"
            code = main(
                [
                    "loadgen",
                    "--host", host,
                    "--port", str(port),
                    "--path", "/index.html",
                    "--clients", "2",
                    "--duration", "0.5",
                    "--arrival-rate", "120",
                    "--seed", "7",
                    "--json", str(json_path),
                ]
            )
        finally:
            server.stop()
        assert code == 0
        output = capsys.readouterr().out
        assert "latency p50/p90/p99/p999:" in output
        assert "offered rate:       120.0 requests/s (open loop)" in output
        assert "dispatched:" in output
        assert "max backlog:" in output
        import json

        payload = json.loads(json_path.read_text())
        assert payload["dispatched"] > 0
        assert payload["latency"]["count"] == payload["requests_completed"]

    def test_workers_reject_think_time(self, capsys):
        args = build_parser().parse_args(
            ["loadgen", "--port", "1", "--workers", "2", "--think-time", "0.5",
             "--duration", "0.2"]
        )
        assert cmd_loadgen(args) == 2
        error = capsys.readouterr().err
        assert "single-process" in error
        assert "--workers 1" in error


class TestValidateBenchCommand:
    def _write(self, tmp_path, name, payload):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_valid_payload_accepted(self, tmp_path, capsys):
        from repro.experiments.results import ExperimentResult, ResultRow

        result = ExperimentResult("cli_check", "x")
        result.add(ResultRow("cli_check", "sped", 1.0, 2.0, 3.0, {}))
        path = result.write_json(str(tmp_path))
        assert main(["validate-bench", path]) == 0
        assert "ok (1 rows, schema v1)" in capsys.readouterr().out

    def test_invalid_payload_rejected(self, tmp_path, capsys):
        path = self._write(tmp_path, "BENCH_bad.json", {"schema_version": 1})
        assert main(["validate-bench", path]) == 1
        assert "missing keys" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "BENCH_broken.json"
        path.write_text("{not json")
        assert main(["validate-bench", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert main(["validate-bench", str(tmp_path / "absent.json")]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_one_bad_file_fails_the_batch(self, tmp_path, capsys):
        from repro.experiments.results import ExperimentResult

        good = ExperimentResult("ok", "x").write_json(str(tmp_path))
        bad = self._write(tmp_path, "BENCH_nope.json", {"rows": []})
        assert main(["validate-bench", good, bad]) == 1
        captured = capsys.readouterr()
        assert "ok (0 rows" in captured.out
        assert "FAIL" in captured.err


class TestExperimentCommand:
    def test_experiment_prints_table(self, capsys):
        code = main(["experiment", "fig11", "--quick"])
        assert code == 0
        output = capsys.readouterr().out
        assert "all (Flash)" in output
        assert "no caching" in output


class TestServeCommand:
    def test_serve_starts_and_stops(self, tmp_path, capsys):
        """The serve command runs until interrupted; a real SIGINT drains it."""
        (tmp_path / "index.html").write_bytes(b"<html>cli-serve</html>")
        # cmd_serve installs its drain handler on this (the main) thread
        # before the banner; the timer's SIGINT lands once it waits.
        timer = threading.Timer(0.5, os.kill, args=(os.getpid(), signal.SIGINT))
        timer.start()
        try:
            code = main(["serve", "--root", str(tmp_path), "--port", "0"])
        finally:
            timer.cancel()
        assert code == 0
        output = capsys.readouterr().out
        assert "serving" in output
        assert "draining" in output
        assert "overload:" in output  # shutdown summary printed on the interrupt path
