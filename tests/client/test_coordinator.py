"""Multi-process load coordinator: planning, exact merging, live runs.

The acceptance property this file pins (ISSUE 7): a 4-worker open-loop run
against a live SPED server whose merged counters exactly equal the
per-worker sums — the merge is an identity, not an estimate.
"""

import pytest

from repro.client.coordinator import LoadCoordinator, merge_results
from repro.client.latency import LatencyHistogram, derive_worker_seed
from repro.client.loadgen import LoadResult
from repro.core.config import ServerConfig
from repro.servers import create_server

#: Every integer counter the merge must preserve exactly.
COUNTER_FIELDS = (
    "requests_completed",
    "bytes_received",
    "errors",
    "connects",
    "not_modified",
    "responses_2xx",
    "responses_206",
    "reaped",
    "rejected_408",
    "dispatched",
)


class TestPlanning:
    def _coordinator(self, **kwargs):
        kwargs.setdefault("workers", 4)
        kwargs.setdefault("duration", 1.0)
        return LoadCoordinator(("127.0.0.1", 1), "/", **kwargs)

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            self._coordinator(workers=0)

    def test_stop_condition_required(self):
        with pytest.raises(ValueError):
            LoadCoordinator(("127.0.0.1", 1), "/", workers=2)

    def test_callable_paths_rejected(self):
        with pytest.raises(TypeError, match="picklable"):
            LoadCoordinator(
                ("127.0.0.1", 1), lambda: "/", workers=2, duration=1.0
            )

    def test_seeds_derive_from_base_and_index(self):
        specs = self._coordinator(seed=99).worker_specs()
        assert [spec.options["seed"] for spec in specs] == [
            derive_worker_seed(99, index) for index in range(4)
        ]
        assert len({spec.options["seed"] for spec in specs}) == 4

    def test_arrival_rate_split_evenly(self):
        specs = self._coordinator(arrival_rate=1000.0).worker_specs()
        assert all(
            spec.options["arrival_rate"] == pytest.approx(250.0) for spec in specs
        )

    def test_max_requests_split_exactly(self):
        specs = self._coordinator(workers=3, duration=None, max_requests=100).worker_specs()
        shares = [spec.options["max_requests"] for spec in specs]
        assert sum(shares) == 100
        assert max(shares) - min(shares) <= 1

    def test_cpu_plan_covers_allowed_cpus(self):
        specs = self._coordinator(pin_cpus=True).worker_specs()
        assert all(spec.cpu is not None for spec in specs)
        specs = self._coordinator(pin_cpus=False).worker_specs()
        assert all(spec.cpu is None for spec in specs)


class TestMergeResults:
    def _result(self, factor):
        result = LoadResult(
            requests_completed=10 * factor,
            bytes_received=1000 * factor,
            errors=factor - 1,
            connects=2 * factor,
            not_modified=factor,
            elapsed=0.5 * factor,
        )
        result.dispatched = 11 * factor
        result.lateness_sum = 0.25 * factor
        result.lateness_max = 0.1 * factor
        result.max_backlog = 3 * factor
        result.latency.record(0.001 * factor)
        return result

    def test_counters_sum_exactly(self):
        shards = [self._result(factor) for factor in (1, 2, 3)]
        merged = merge_results(shards)
        for field in COUNTER_FIELDS:
            assert getattr(merged, field) == sum(getattr(r, field) for r in shards)

    def test_maxima_and_histogram(self):
        shards = [self._result(factor) for factor in (1, 2, 3)]
        merged = merge_results(shards)
        assert merged.elapsed == pytest.approx(1.5)
        assert merged.lateness_max == pytest.approx(0.3)
        assert merged.max_backlog == 9
        assert merged.lateness_sum == pytest.approx(0.25 + 0.5 + 0.75)
        assert merged.latency == LatencyHistogram.merged(r.latency for r in shards)


class TestClusterLive:
    @pytest.fixture
    def server(self, tmp_path):
        (tmp_path / "page.html").write_bytes(b"<html>" + b"y" * 2000 + b"</html>")
        server = create_server(
            "sped",
            ServerConfig(document_root=str(tmp_path), port=0, num_helpers=2),
        )
        server.start()
        yield server
        server.stop()

    def test_four_worker_open_loop_merge_is_exact(self, server):
        """ISSUE 7 acceptance: merged counters == per-worker sums, exactly."""
        coordinator = LoadCoordinator(
            server.address,
            "/page.html",
            workers=4,
            num_clients=3,
            duration=1.0,
            arrival_rate=400.0,
            range_fraction=0.25,
            conditional_fraction=0.25,
            seed=11,
        )
        cluster = coordinator.run()
        assert cluster.workers == 4
        assert len(cluster.per_worker) == 4
        merged = cluster.merged

        # Field-by-field: the merge is an integer identity.
        for field in COUNTER_FIELDS:
            per_worker_sum = sum(getattr(r, field) for r in cluster.per_worker)
            assert getattr(merged, field) == per_worker_sum, field

        # The workload actually exercised the counters being summed.
        assert merged.errors == 0
        assert merged.requests_completed > 0
        assert merged.responses_2xx > 0
        assert merged.responses_206 > 0
        assert merged.not_modified > 0
        assert merged.bytes_received > 0

        # Latency reservoirs merge losslessly.
        assert merged.latency == LatencyHistogram.merged(
            r.latency for r in cluster.per_worker
        )
        assert merged.latency.count == sum(
            r.latency.count for r in cluster.per_worker
        )

        # One base seed, four distinct derived schedules.
        assert cluster.seed == 11
        assert cluster.worker_seeds == [derive_worker_seed(11, i) for i in range(4)]

    def test_closed_loop_cluster_splits_request_budget(self, server):
        coordinator = LoadCoordinator(
            server.address,
            "/page.html",
            workers=2,
            num_clients=2,
            max_requests=40,
            seed=3,
        )
        cluster = coordinator.run()
        merged = cluster.merged
        assert merged.errors == 0
        # Each worker honors its share of the cluster budget.
        assert merged.requests_completed >= 40
        assert all(r.requests_completed >= 20 for r in cluster.per_worker)
        assert merged.requests_completed == sum(
            r.requests_completed for r in cluster.per_worker
        )

    def test_pinned_run_completes(self, server):
        # Affinity is best-effort; the run must succeed wherever it lands.
        coordinator = LoadCoordinator(
            server.address,
            "/page.html",
            workers=2,
            num_clients=2,
            max_requests=20,
            pin_cpus=True,
            seed=1,
        )
        cluster = coordinator.run()
        assert cluster.merged.errors == 0
        assert cluster.merged.requests_completed >= 20

    def test_cluster_result_dict_shape(self, server):
        coordinator = LoadCoordinator(
            server.address, "/page.html",
            workers=2, num_clients=2, max_requests=10, seed=7,
        )
        payload = coordinator.run().to_dict()
        assert payload["workers"] == 2
        assert payload["seed"] == 7
        assert len(payload["per_worker"]) == 2
        assert payload["merged"]["requests_completed"] == sum(
            worker["requests_completed"] for worker in payload["per_worker"]
        )
        assert payload["merged"]["latency"]["count"] >= 10
