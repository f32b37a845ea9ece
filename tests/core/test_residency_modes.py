"""The residency tester a store and a Flash server use (paper Section 5.7).

Flash asks ``cachestat(2)`` about descriptor windows — one tester, no
configuration; tests and the simulator substitute a scripted oracle.
"""

import pytest

from repro.cache.residency import MincoreResidencyTester, SimulatedResidencyOracle
from repro.client.simple import fetch
from repro.core.config import ServerConfig
from repro.core.pipeline import ContentStore
from repro.core.server import FlashServer


@pytest.fixture
def docroot(tmp_path):
    (tmp_path / "index.html").write_bytes(b"<html>residency</html>")
    (tmp_path / "blob.bin").write_bytes(b"r" * 120_000)
    return str(tmp_path)


class TestTesterSelection:
    def test_default_is_mincore(self, docroot):
        store = ContentStore(ServerConfig(document_root=docroot))
        assert isinstance(store.residency_tester, MincoreResidencyTester)

    def test_explicit_tester_overrides_default(self, docroot):
        oracle = SimulatedResidencyOracle(default_resident=True)
        store = ContentStore(ServerConfig(document_root=docroot), residency_tester=oracle)
        assert store.residency_tester is oracle


class TestFlashServerWithDefaultTester:
    @pytest.mark.parametrize("zero_copy", [True, False])
    def test_serves_correctly(self, docroot, zero_copy):
        config = ServerConfig(document_root=docroot, port=0, zero_copy=zero_copy)
        server = FlashServer(config)
        server.start()
        try:
            small = fetch(*server.address, "/index.html")
            large = fetch(*server.address, "/blob.bin")
        finally:
            server.stop()
        assert small.status == 200 and small.body == b"<html>residency</html>"
        assert large.status == 200 and large.body == b"r" * 120_000
