"""End-to-end integration: workloads, real servers, load generator, caches.

These tests combine the layers the way the examples and benchmarks do: a
synthetic trace is materialized on disk, served by a real Flash (AMPED)
server, and fetched by the event-driven load generator; cache statistics and
server counters are then cross-checked against what the workload implies.
"""

import pytest

from repro.client.loadgen import LoadGenerator
from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.core.server import FlashServer
from repro.servers import SPEDServer, create_server
from repro.workload.dataset import materialize_catalog
from repro.workload.traces import ECE_TRACE, TraceWorkload

MB = 1024 * 1024


@pytest.fixture(scope="module")
def small_trace_site(tmp_path_factory):
    """A 2 MB truncated ECE-like trace materialized on disk."""
    root = str(tmp_path_factory.mktemp("trace-site"))
    workload = TraceWorkload(ECE_TRACE.scaled_to_dataset(2 * MB))
    files = workload.files[:150]
    paths = materialize_catalog(root, files)
    return root, workload, files, paths


class TestTraceServedByFlash:
    def test_trace_replay_over_real_sockets(self, small_trace_site):
        root, workload, files, paths = small_trace_site
        config = ServerConfig(document_root=root, port=0, num_helpers=2)
        server = FlashServer(config)
        server.start()
        try:
            generator = LoadGenerator(
                server.address,
                paths[:50],
                num_clients=4,
                max_requests=100,
            )
            result = generator.run()
        finally:
            server.stop()
        assert result.errors == 0
        assert result.requests_completed >= 100
        # Each path was requested at least once; the repeats (100 requests
        # over 50 distinct URIs) must have been absorbed by the single-probe
        # hot-response cache, ahead of the pathname cache.
        assert server.store.stats.hot_hits > 0
        assert server.stats.responses_ok >= 100

    def test_served_bytes_match_catalog_sizes(self, small_trace_site):
        root, workload, files, paths = small_trace_site
        config = ServerConfig(document_root=root, port=0)
        server = FlashServer(config)
        server.start()
        try:
            for (_file_id, size), path in list(zip(files, paths))[:10]:
                response = fetch(*server.address, path)
                assert response.status == 200
                assert len(response.body) == size
        finally:
            server.stop()

    def test_cache_disabled_configuration_still_serves(self, small_trace_site):
        """The Figure 11 'no caching' variant must be functionally identical."""
        root, workload, files, paths = small_trace_site
        config = ServerConfig(document_root=root, port=0).without_caches()
        server = FlashServer(config)
        server.start()
        try:
            response = fetch(*server.address, paths[0])
            assert response.status == 200
            assert len(response.body) == files[0][1]
        finally:
            server.stop()
        assert server.store.pathname_cache is None
        assert server.store.header_cache is None
        assert server.store.hot_cache is None


class TestArchitecturesServeIdenticalContent:
    def test_same_bytes_from_every_architecture(self, small_trace_site):
        """The paper's same-code-base methodology: responses must be
        byte-identical across architectures (modulo the Date header)."""
        root, workload, files, paths = small_trace_site
        target = paths[3]
        expected_size = files[3][1]
        bodies = {}
        for architecture in ("amped", "sped", "mt", "mp"):
            config = ServerConfig(document_root=root, port=0, num_workers=2, num_helpers=1)
            server = create_server(architecture, config)
            server.start()
            try:
                response = fetch(*server.address, target)
            finally:
                server.stop()
            assert response.status == 200
            bodies[architecture] = response.body
        assert all(len(body) == expected_size for body in bodies.values())
        assert len({body for body in bodies.values()}) == 1


class TestSPEDVersusFlashFunctional:
    def test_both_survive_concurrent_mixed_load(self, small_trace_site):
        root, workload, files, paths = small_trace_site
        for cls in (FlashServer, SPEDServer):
            server = cls(ServerConfig(document_root=root, port=0, num_helpers=2))
            server.start()
            try:
                generator = LoadGenerator(
                    server.address, paths[:20], num_clients=6, max_requests=60
                )
                result = generator.run()
            finally:
                server.stop()
            assert result.errors == 0
            assert result.requests_completed >= 60
