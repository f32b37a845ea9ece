"""Unit tests for server configuration."""

import argparse
import dataclasses
import inspect
import os

import pytest

from repro.cli import build_parser
from repro.client.coordinator import LoadCoordinator
from repro.client.loadgen import LoadGenerator, LoadResult
from repro.core.config import ServerConfig


class TestValidation:
    def test_defaults_match_paper_evaluation(self):
        config = ServerConfig()
        assert config.num_workers == 32            # Flash-MP / Apache processes
        assert config.pathname_cache_entries == 6000
        assert config.header_alignment == 32

    def test_document_root_made_absolute(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = ServerConfig(document_root="www")
        assert os.path.isabs(config.document_root)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_helpers": 0},
            {"num_workers": 0},
            {"fd_cache_entries": -1},
            {"hot_cache_revalidate": -0.5},
            {"max_connections": -1},
            {"admission_resume": 0.0},
            {"admission_resume": 1.5},
            {"retry_after": -1},
            {"cgi_stream_depth": 0},
            {"sse_queue_limit": 0},
            {"sse_policy": "block"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)

    def test_helper_mode_is_a_constant_not_a_knob(self):
        """AMPED helpers are threads; the constant only remains for the
        benchmark's helper probe."""
        assert ServerConfig.helper_mode == ServerConfig().helper_mode == "thread"
        with pytest.raises(TypeError):
            ServerConfig(helper_mode="process")


#: Every ``ServerConfig`` field.  Adding or removing a knob is a one-line
#: diff here, so it shows up in review.
CONFIG_FIELDS = {
    "document_root", "host", "port", "listen_backlog",
    "num_helpers", "num_workers",
    "enable_pathname_cache", "enable_header_cache",
    "pathname_cache_entries", "header_cache_entries",
    "io_backend", "zero_copy", "fd_cache_entries",
    "hot_cache", "hot_cache_revalidate", "fast_parse",
    "header_alignment", "enable_residency_test", "max_header_bytes",
    "socket_io_size", "keep_alive",
    "header_timeout", "idle_timeout", "write_stall_timeout", "cache_max_age",
    "max_connections", "admission_resume", "retry_after", "drain_timeout",
    "reuse_port",
    "cgi_programs", "cgi_stream_depth",
    "sse_path", "sse_queue_limit", "sse_policy", "sse_heartbeat",
    "user_dirs",
}

#: Every option string of ``repro serve``, under the same rule.
SERVE_OPTIONS = {
    "-h", "--help", "--root", "--architecture", "--host", "--port",
    "--helpers", "--workers", "--no-caches", "--io-backend",
    "--no-zero-copy", "--no-hot-cache", "--no-fast-parse",
    "--header-timeout", "--idle-timeout", "--write-stall-timeout",
    "--cache-max-age", "--shards", "--max-connections", "--drain-timeout",
    "--retry-after", "--sse-path", "--sse-heartbeat", "--sse-queue-limit",
    "--sse-policy", "--cgi-stream-depth",
}


def subcommand_parser(name: str) -> argparse.ArgumentParser:
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return subparsers.choices[name]


class TestKnobLedger:
    def test_config_fields(self):
        assert {field.name for field in dataclasses.fields(ServerConfig)} == CONFIG_FIELDS

    def test_serve_options(self):
        options = {
            option
            for action in subcommand_parser("serve")._actions
            for option in action.option_strings
        }
        assert options == SERVE_OPTIONS

    def test_removed_serve_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--root", "www", "--no-warming"])
        assert exit_info.value.code == 2
        assert "--no-warming" in capsys.readouterr().err


#: Every ``LoadGenerator`` keyword, under the same rule.
LOADGEN_KEYWORDS = {
    "num_clients", "keep_alive", "duration", "max_requests", "think_time",
    "range_fraction", "range_spec", "conditional_fraction",
    "slow_writers", "slow_readers", "flood_connections",
    "sse_clients", "sse_path", "chunked_fraction", "chunked_path",
    "retry_backoff", "retry_resets", "dribble_bytes", "dribble_interval",
    "arrival_rate", "seed",
}

#: ``LoadCoordinator`` forwards the generator's keywords, except the
#: single-process ``think_time``, and adds its own two.
COORDINATOR_KEYWORDS = LOADGEN_KEYWORDS - {"think_time"} | {"workers", "pin_cpus"}

#: Every option string of ``repro loadgen``.
LOADGEN_OPTIONS = {
    "-h", "--help", "--host", "--port", "--path", "--clients", "--duration",
    "--no-keep-alive", "--think-time", "--range-fraction", "--range-bytes",
    "--conditional-fraction", "--slow-writers", "--slow-readers",
    "--sse-clients", "--sse-path", "--chunked-fraction", "--chunked-path",
    "--connection-flood", "--retry-backoff", "--retry-resets",
    "--dribble-bytes", "--dribble-interval", "--workers", "--pin-cpus",
    "--arrival-rate", "--seed", "--json",
}

#: Every key of ``LoadResult.to_dict()`` (the ``loadgen --json`` payload).
LOAD_RESULT_KEYS = {
    "requests_completed", "bytes_received", "errors", "not_modified",
    "responses_2xx", "responses_206", "reaped", "rejected_408",
    "rejected_503", "retries", "connection_resets", "chunked_responses",
    "sse_events", "elapsed", "bandwidth_mbps", "request_rate", "dispatched",
    "lateness_sum", "lateness_max", "max_backlog", "latency",
}


class TestClientKnobLedger:
    @staticmethod
    def keyword_defaults(callable_):
        return {
            name: parameter.default
            for name, parameter in inspect.signature(callable_).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        }

    def test_generator_keywords(self):
        assert set(self.keyword_defaults(LoadGenerator)) == LOADGEN_KEYWORDS

    def test_coordinator_keywords(self):
        """The coordinator spells out only its own two keywords; the rest
        are the generator's, accepted one by one at their defaults."""
        defaults = self.keyword_defaults(LoadGenerator)
        accepted = set(self.keyword_defaults(LoadCoordinator))
        for name, default in defaults.items():
            options = {"duration": 1.0}
            options.setdefault(name, default)
            try:
                LoadCoordinator(("127.0.0.1", 1), "/", **options)
            except TypeError:
                continue
            accepted.add(name)
        assert accepted == COORDINATOR_KEYWORDS

    def test_coordinator_refuses_think_time_and_unknown_keywords(self):
        with pytest.raises(TypeError, match="single-process"):
            LoadCoordinator(("127.0.0.1", 1), "/", duration=1.0, think_time=0.5)
        with pytest.raises(TypeError):
            LoadCoordinator(("127.0.0.1", 1), "/", duration=1.0, clients=4)

    def test_loadgen_options(self):
        options = {
            option
            for action in subcommand_parser("loadgen")._actions
            for option in action.option_strings
        }
        assert options == LOADGEN_OPTIONS

    def test_result_keys(self):
        assert set(LoadResult().to_dict()) == LOAD_RESULT_KEYS


class TestTimeoutKnobs:
    @pytest.mark.parametrize(
        "name",
        [
            "connection_timeout",
            "cgi_prefix",
            "residency_mode",
            "clock_cache_estimate",
            "helper_warming",
            "hot_cache_entries",
        ],
    )
    def test_removed_options_are_rejected(self, name):
        """``connection_timeout`` was an alias of ``idle_timeout`` and
        ``cgi_prefix`` only ever worked at ``/cgi-bin/``.  The residency
        question and the warming route follow from the send mechanism, not
        from ``residency_mode``/``clock_cache_estimate``/``helper_warming``,
        and the hot cache's entry bound is ``fd_cache_entries``.  Setting
        any of them is an error now, not a silent no-op."""
        with pytest.raises(TypeError):
            ServerConfig(**{name: "/cgi-bin/"})

    @pytest.mark.parametrize("value", [0, -1, -30.0])
    def test_nonpositive_timeouts_normalize_to_disabled(self, value):
        """``<= 0`` means *disabled* — the regression where 0 made the old
        sweep reaper treat every connection as instantly expired."""
        config = ServerConfig(
            idle_timeout=value,
            header_timeout=value,
            write_stall_timeout=value,
        )
        assert config.idle_timeout == 0.0
        assert config.header_timeout == 0.0
        assert config.write_stall_timeout == 0.0

    def test_timeout_defaults(self):
        config = ServerConfig()
        assert config.header_timeout == 15.0
        assert config.idle_timeout == 30.0
        assert config.write_stall_timeout == 30.0

    def test_cache_max_age_validated(self):
        assert ServerConfig(cache_max_age=3600).cache_max_age == 3600
        assert ServerConfig().cache_max_age == 0
        with pytest.raises(ValueError):
            ServerConfig(cache_max_age=-1)


class TestPerProcessScaling:
    def test_paper_configuration(self):
        """At 32 processes the caches shrink to ~600 entries."""
        config = ServerConfig()
        scaled = config.per_process_scaled(32)
        assert scaled.pathname_cache_entries == 600
        assert scaled.header_cache_entries == 600

    def test_small_process_count_keeps_caches(self):
        config = ServerConfig()
        scaled = config.per_process_scaled(2)
        assert scaled.pathname_cache_entries >= config.pathname_cache_entries // 2

    def test_never_below_floor(self):
        config = ServerConfig(pathname_cache_entries=32)
        scaled = config.per_process_scaled(64)
        assert scaled.pathname_cache_entries >= 16

    def test_invalid_process_count(self):
        with pytest.raises(ValueError):
            ServerConfig().per_process_scaled(0)


class TestOptimizationVariants:
    def test_without_caches(self):
        config = ServerConfig().without_caches()
        assert not config.enable_pathname_cache
        assert not config.enable_header_cache
        assert not config.zero_copy
        assert not config.hot_cache

    def test_original_config_unchanged(self):
        config = ServerConfig()
        config.without_caches()
        assert config.enable_pathname_cache
