"""All four architectures answer through ``repro.core.exchange``.

The cases here are the ones where the transports had drifted apart (or
could not be told apart by a default configuration) before the per-request
decisions were written once: a disk error during the build, a CGI program
that crashes, a bug while answering, and a docroot file that shares its
name with the SSE endpoint's old default path.  The last tests are
differentials: a generated pipelined sequence, and error pages for
generated missing targets, must come back as the same bytes from all four
builds.
"""

import re
import socket
from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client.simple import fetch
from repro.core import exchange
from repro.core.config import ServerConfig
from repro.servers import create_server
from repro.testing.faults import ENV_VAR, faults

ARCHS = ("sped", "amped", "mt", "mp")

BODY = bytes(range(256)) * 40


def crashing_app(_data):
    raise RuntimeError("application exploded")


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "file.bin").write_bytes(BODY)
    (tmp_path / "small.txt").write_bytes(b"tiny")
    (tmp_path / "sse").write_bytes(b"a file, not an event stream")
    return str(tmp_path)


@pytest.fixture(autouse=True)
def _reset_faults():
    yield
    faults.reset()


def start(arch, docroot, **overrides):
    # One worker: an MP worker forks with its own copy of the fault plan,
    # so "fires once" only means once with a single worker process.
    config = ServerConfig(
        document_root=docroot, port=0, num_workers=1, num_helpers=1, **overrides
    )
    server = create_server(arch, config)
    server.start()
    return server


@pytest.mark.parametrize("arch", ARCHS)
def test_disk_error_during_build_is_a_500_everywhere(arch, docroot, monkeypatch):
    """The buffered read route hits EIO once: that request is answered 500
    and counted, and the next one (a new connection) is served."""
    # Through the environment, as a chaos script would: armed before the MP
    # workers fork, so they inherit the plan.
    monkeypatch.setenv(ENV_VAR, "disk_read=1")
    faults.load_env()
    server = start(arch, docroot, zero_copy=False)
    try:
        first = fetch(*server.address, "/file.bin")
        second = fetch(*server.address, "/file.bin")
    finally:
        server.stop()
    assert first.status == 500
    assert second.status == 200 and second.body == BODY
    # MP consolidates its workers' counters when they exit, hence after stop().
    assert server.stats.responses_error == 1
    assert server.stats.responses_ok == 1


@pytest.mark.parametrize("arch", ARCHS)
def test_crashing_cgi_program_is_a_500_everywhere(arch, docroot):
    server = start(arch, docroot, cgi_programs={"crash": crashing_app})
    try:
        crashed = fetch(*server.address, "/cgi-bin/crash")
        # The worker that ran it is still there to serve the next request.
        after = fetch(*server.address, "/small.txt")
    finally:
        server.stop()
    assert crashed.status == 500
    assert crashed.headers["connection"] == "close"
    assert after.status == 200 and after.body == b"tiny"
    assert server.stats.responses_error == 1


@pytest.mark.parametrize("arch", ARCHS)
def test_a_crash_while_answering_spares_the_next_connection(arch, docroot, monkeypatch):
    """The crash barriers: a bug while answering one request (here the 404
    of a missing file; AMPED answers it from a helper completion) closes
    that connection and is counted, and the next connection is served —
    on MT and MP by the same, single worker."""
    failure_sender = exchange.failure_sender
    crashes = []

    def crash_once(*args, **kwargs):
        if not crashes:
            crashes.append(True)
            raise RuntimeError("injected bug while answering a failure")
        return failure_sender(*args, **kwargs)

    # Patched before the MP worker forks, so it inherits the bug.
    monkeypatch.setattr(exchange, "failure_sender", crash_once)
    server = start(arch, docroot)
    try:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(b"GET /ghost.bin HTTP/1.1\r\nHost: t\r\n\r\n")
            crashed = sock.recv(65536)
        after = fetch(*server.address, "/small.txt", timeout=5.0)
    finally:
        server.stop()
    assert crashed == b""  # closed, not answered, and not left hanging
    assert after.status == 200 and after.body == b"tiny"
    # MP consolidates its workers' counters when they exit, hence after stop().
    assert server.stats.loop_callback_errors == 1


@pytest.mark.parametrize("arch", ARCHS)
def test_default_config_serves_a_file_named_sse(arch, docroot):
    """No endpoint is configured by default, so ``/sse`` is just a path."""
    server = start(arch, docroot)
    try:
        response = fetch(*server.address, "/sse", timeout=5.0)
    finally:
        server.stop()
    assert response.status == 200
    assert response.body == b"a file, not an event stream"
    assert server.stats.sse_connections == 0


# -- differential: one pipelined sequence, two transports --------------------


def request_bytes(kind, etag, close):
    """One request of the generated sequence."""
    path, method, headers = "/file.bin", "GET", []
    if kind == "conditional":
        headers.append(f"If-None-Match: {etag}")
    elif kind == "stale":
        headers.append('If-None-Match: "stale"')
    elif kind == "precondition":
        # A failed If-Match answers 412 even beside a multi-range Range.
        headers += ['If-Match: "stale"', "Range: bytes=0-9,100-199"]
    elif kind == "range":
        headers.append("Range: bytes=100-2099")
    elif kind == "multirange":
        headers.append("Range: bytes=0-9,5000-5099")
    elif kind == "head":
        method = "HEAD"
    elif kind == "missing":
        path = "/ghost.bin"
    elif kind == "small":
        path = "/small.txt"
    if close:
        headers.append("Connection: close")
    lines = [f"{method} {path} HTTP/1.1", "Host: t", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def exchange_bytes(address, payload):
    """Send ``payload`` in one write; everything the server answers until EOF."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(payload)
        received = bytearray()
        while True:
            data = sock.recv(65536)
            if not data:
                return bytes(received)
            received.extend(data)


def strip_dates(raw):
    """Drop every ``Date`` header: the only legitimately time-varying bytes
    (the multipart boundary is a function of the ETag and the ranges)."""
    return re.sub(rb"Date: [^\r]*\r\n", b"", raw)


KINDS = (
    "plain",
    "small",
    "conditional",
    "stale",
    "precondition",
    "range",
    "multirange",
    "head",
    "missing",
)


@pytest.fixture(scope="module", params=[True, False], ids=["zero-copy", "buffered"])
def transports(request, tmp_path_factory):
    """Buffered mode is where the output queue coalesces answers."""
    root = tmp_path_factory.mktemp("differential")
    (root / "file.bin").write_bytes(BODY)
    (root / "small.txt").write_bytes(b"tiny")
    servers = {arch: start(arch, str(root), zero_copy=request.param) for arch in ARCHS}
    etag = fetch(*servers["sped"].address, "/file.bin").headers["etag"]
    yield servers, etag
    for server in servers.values():
        server.stop()


@given(
    sequence=st.lists(st.tuples(st.sampled_from(KINDS), st.booleans()), min_size=1, max_size=8)
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_pipelined_sequence_is_byte_identical_on_every_architecture(transports, sequence):
    """Each request may say ``Connection: close`` (the last one always does):
    every build answers up to the first that does, then hangs up.  What the
    answers *are* is pinned by the single-architecture tests; here the
    event-driven and the blocking transport, with and without helpers and
    per-process caches, must not differ by a byte."""
    servers, etag = transports
    closes = [close for _, close in sequence[:-1]] + [True]
    payload = b"".join(
        request_bytes(kind, etag, close) for (kind, _), close in zip(sequence, closes)
    )
    streams = {
        arch: strip_dates(exchange_bytes(server.address, payload))
        for arch, server in servers.items()
    }
    reference = streams["sped"]
    assert len(re.findall(rb"HTTP/1\.1 \d{3} ", reference)) == closes.index(True) + 1
    for arch, stream in streams.items():
        assert stream == reference, f"{arch} differs from sped"


# -- differential: error pages for generated missing targets -----------------

#: Names no docroot file has: any character but ``/`` (so no ``..`` segment
#: forms), with the HTML metacharacters drawn often.
MISSING_NAMES = st.text(
    st.one_of(st.characters(exclude_characters="/"), st.sampled_from('<>&"')),
    min_size=1,
    max_size=16,
)


@given(name=MISSING_NAMES)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_error_page_for_a_missing_target_is_escaped_text_everywhere(transports, name):
    """The 404 page quotes the decoded request path, which the client
    chose: every build answers it, with the same bytes, and no markup from
    the target reaches the page."""
    servers, _ = transports
    target = "/ghost-" + quote(name, safe="")
    payload = f"GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".encode("ascii")
    streams = {
        arch: strip_dates(exchange_bytes(server.address, payload))
        for arch, server in servers.items()
    }
    reference = streams["sped"]
    status = re.match(rb"HTTP/1\.1 (\d{3}) ", reference)
    assert status is not None and status.group(1) in (b"404", b"400")
    (paragraph,) = re.findall(rb"<p>(.*)</p>", reference, re.DOTALL)
    assert b"<" not in paragraph and b">" not in paragraph
    for arch, stream in streams.items():
        assert stream == reference, f"{arch} differs from sped"
