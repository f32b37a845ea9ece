"""Every architecture must work with every event-notification backend.

The event-driven builds (AMPED, SPED) actually drive the configured
backend; the MP and MT builds use blocking workers, so for them the knob
must simply be accepted without changing behaviour.  One real request per
combination keeps this fast while proving the full stack — accept, parse,
translate, build, transmit (zero-copy by default) — works on each
mechanism.
"""

import time

import pytest

from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.core.event_loop import available_backends
from repro.servers import create_server

BACKENDS = available_backends()
EVENT_DRIVEN = ("amped", "sped")
BLOCKING = ("mp", "mt")


@pytest.fixture(scope="module")
def docroot(tmp_path_factory):
    root = tmp_path_factory.mktemp("www")
    (root / "index.html").write_bytes(b"<html>backend test</html>")
    return str(root)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("architecture", EVENT_DRIVEN)
def test_event_driven_serves_on_each_backend(architecture, backend, docroot):
    config = ServerConfig(
        document_root=docroot, port=0, num_helpers=2, io_backend=backend
    )
    server = create_server(architecture, config)
    assert server.loop.backend_name == backend
    try:
        server.start()
        response = fetch(*server.address, "/index.html")
        assert response.status == 200
        assert response.body == b"<html>backend test</html>"
    finally:
        server.stop()


@pytest.mark.parametrize("architecture", EVENT_DRIVEN)
def test_idle_event_driven_server_sleeps(architecture, docroot):
    """With no client and no timer armed, the loop blocks in its poll."""
    config = ServerConfig(document_root=docroot, port=0, num_helpers=2)
    server = create_server(architecture, config)
    try:
        server.start()
        time.sleep(0.1)  # let the loop thread reach its first poll
        before = server.loop.iterations
        time.sleep(0.5)
        assert server.loop.iterations - before <= 1
    finally:
        server.stop()


@pytest.mark.parametrize("architecture", BLOCKING)
def test_blocking_builds_accept_backend_config(architecture, docroot):
    config = ServerConfig(
        document_root=docroot, port=0, num_workers=2, io_backend=BACKENDS[0]
    )
    server = create_server(architecture, config)
    try:
        server.start()
        response = fetch(*server.address, "/index.html")
        assert response.status == 200
        assert response.body == b"<html>backend test</html>"
    finally:
        server.stop()


def test_unknown_backend_rejected_in_config(docroot):
    with pytest.raises(ValueError):
        ServerConfig(document_root=docroot, io_backend="kqueueish")
