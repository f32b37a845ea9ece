"""Unit tests for the persistent CGI application runner (paper Section 5.6)."""

import time

import pytest

from repro.cgi.runner import CGIRequestData, CGIRunner
from repro.core.event_loop import EventLoop
from repro.http.errors import NotFoundError
from repro.http.request import RequestParser


def parse(raw: bytes):
    parser = RequestParser()
    parser.feed(raw)
    return parser.request


def hello_app(data: CGIRequestData) -> bytes:
    return b"<html>hello " + data.query.encode() + b"</html>"


def echo_method_app(data: CGIRequestData) -> bytes:
    return f"<html>{data.method}:{data.path}:{len(data.body)}</html>".encode()


def crashing_app(data: CGIRequestData) -> bytes:
    raise RuntimeError("application exploded")


def string_app(data: CGIRequestData) -> str:
    return "<html>text</html>"


class TestProgramResolution:
    def test_program_name_extracted_from_path(self):
        runner = CGIRunner({"hello": hello_app})
        request = parse(b"GET /cgi-bin/hello?x=1 HTTP/1.0\r\n\r\n")
        assert runner.program_name(request) == "hello"
        runner.shutdown()

    def test_unknown_program_raises_not_found(self):
        runner = CGIRunner({})
        request = parse(b"GET /cgi-bin/ghost HTTP/1.0\r\n\r\n")
        with pytest.raises(NotFoundError):
            runner.program_name(request)
        runner.shutdown()

    def test_non_cgi_path_raises(self):
        runner = CGIRunner({"hello": hello_app})
        request = parse(b"GET /static.html HTTP/1.0\r\n\r\n")
        with pytest.raises(NotFoundError):
            runner.program_name(request)
        runner.shutdown()

    def test_register_program_later(self):
        runner = CGIRunner({})
        runner.register_program("hello", hello_app)
        request = parse(b"GET /cgi-bin/hello HTTP/1.0\r\n\r\n")
        assert runner.run(request) == b"<html>hello </html>"
        runner.shutdown()


class TestSynchronousExecution:
    def test_run_returns_body(self):
        runner = CGIRunner({"hello": hello_app})
        request = parse(b"GET /cgi-bin/hello?who=world HTTP/1.0\r\n\r\n")
        assert runner.run(request) == b"<html>hello who=world</html>"
        runner.shutdown()

    def test_post_body_forwarded(self):
        runner = CGIRunner({"echo": echo_method_app})
        request = parse(b"POST /cgi-bin/echo HTTP/1.0\r\nContent-Length: 4\r\n\r\nBODY")
        assert runner.run(request) == b"<html>POST:/cgi-bin/echo:4</html>"
        runner.shutdown()

    def test_application_error_raises(self):
        runner = CGIRunner({"crash": crashing_app})
        request = parse(b"GET /cgi-bin/crash HTTP/1.0\r\n\r\n")
        with pytest.raises(RuntimeError):
            runner.run(request)
        runner.shutdown()

    def test_worker_survives_application_error(self):
        runner = CGIRunner({"crash": crashing_app, "hello": hello_app})
        bad = parse(b"GET /cgi-bin/crash HTTP/1.0\r\n\r\n")
        good = parse(b"GET /cgi-bin/hello HTTP/1.0\r\n\r\n")
        with pytest.raises(RuntimeError):
            runner.run(bad)
        assert runner.run(good).startswith(b"<html>hello")
        runner.shutdown()

    def test_string_result_encoded(self):
        runner = CGIRunner({"s": string_app})
        request = parse(b"GET /cgi-bin/s HTTP/1.0\r\n\r\n")
        assert runner.run(request) == b"<html>text</html>"
        runner.shutdown()

    def test_workers_are_persistent(self):
        """The worker for an application is created once and reused."""
        runner = CGIRunner({"hello": hello_app})
        request = parse(b"GET /cgi-bin/hello HTTP/1.0\r\n\r\n")
        assert runner.active_workers == 0
        runner.run(request)
        runner.run(request)
        runner.run(request)
        assert runner.active_workers == 1
        assert runner.requests_run == 3
        runner.shutdown()


class TestAsynchronousExecution:
    def test_submit_delivers_through_event_loop(self):
        loop = EventLoop()
        runner = CGIRunner({"hello": hello_app})
        runner.register(loop)
        results = []
        request = parse(b"GET /cgi-bin/hello?a=b HTTP/1.0\r\n\r\n")
        runner.submit(request, lambda body, error: results.append((body, error)))
        deadline = time.monotonic() + 5.0
        while not results and time.monotonic() < deadline:
            loop.run_once(timeout=0.05)
        assert results
        body, error = results[0]
        assert error is None
        assert body == b"<html>hello a=b</html>"
        runner.unregister(loop)
        runner.shutdown()
        loop.close()

    def test_submit_unknown_program_reports_error(self):
        runner = CGIRunner({})
        results = []
        request = parse(b"GET /cgi-bin/ghost HTTP/1.0\r\n\r\n")
        runner.submit(request, lambda body, error: results.append((body, error)))
        assert results and isinstance(results[0][1], NotFoundError)
        runner.shutdown()

    def test_submit_application_error_reported(self):
        loop = EventLoop()
        runner = CGIRunner({"crash": crashing_app})
        runner.register(loop)
        results = []
        request = parse(b"GET /cgi-bin/crash HTTP/1.0\r\n\r\n")
        runner.submit(request, lambda body, error: results.append((body, error)))
        deadline = time.monotonic() + 5.0
        while not results and time.monotonic() < deadline:
            loop.run_once(timeout=0.05)
        assert results and results[0][0] is None
        assert isinstance(results[0][1], RuntimeError)
        runner.shutdown()
        loop.close()
