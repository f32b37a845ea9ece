"""Unit tests for the fault-injection harness.

The harness must be inert by default (every compiled-in point is a no-op
until armed), exact in its budgets, and strict about names — a typo in a
chaos script must fail loudly, not silently inject nothing.
"""

import pytest

from repro.testing.faults import ENV_VAR, FaultPlan, faults


@pytest.fixture
def plan():
    return FaultPlan()


class TestArming:
    def test_unarmed_points_never_fire(self, plan):
        assert not plan.take("accept_emfile")
        assert not plan.armed("disk_read")
        assert plan.value("shard_kill_after") is None

    def test_take_consumes_budget(self, plan):
        plan.arm("accept_emfile", count=2)
        assert plan.take("accept_emfile")
        assert plan.take("accept_emfile")
        assert not plan.take("accept_emfile")

    def test_arm_accumulates(self, plan):
        plan.arm("disk_read")
        plan.arm("disk_read")
        assert plan.take("disk_read")
        assert plan.take("disk_read")
        assert not plan.take("disk_read")

    def test_value_points_are_not_consumed(self, plan):
        plan.arm("shard_kill_after", value=0.5)
        assert plan.value("shard_kill_after") == 0.5
        assert plan.value("shard_kill_after") == 0.5
        assert plan.armed("shard_kill_after")

    def test_unknown_point_rejected(self, plan):
        with pytest.raises(ValueError, match="unknown fault point"):
            plan.arm("accept_emfil")  # typo must fail loudly

    def test_reset_disarms_everything(self, plan):
        plan.arm("accept_emfile", count=3)
        plan.arm("shard_kill_after", value=1.0)
        plan.reset()
        assert not plan.take("accept_emfile")
        assert plan.value("shard_kill_after") is None
        assert plan.snapshot() == {"counts": {}, "values": {}}


class TestEnvParsing:
    def test_parses_counts_values_and_bare_points(self, plan):
        plan.load_env("accept_emfile=2, disk_read ,shard_kill_after=0.25")
        snap = plan.snapshot()
        assert snap["counts"] == {"accept_emfile": 2, "disk_read": 1}
        assert snap["values"] == {"shard_kill_after": 0.25}

    def test_empty_string_is_noop(self, plan):
        plan.load_env("")
        assert plan.snapshot() == {"counts": {}, "values": {}}

    def test_unknown_point_in_env_raises(self, plan):
        with pytest.raises(ValueError):
            plan.load_env("no_such_point=1")

    def test_reads_environment_variable(self, plan, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "disk_read=1")
        plan.load_env()
        assert plan.take("disk_read")


class TestModuleSingleton:
    def test_singleton_exists_and_is_inert(self):
        # The process-wide plan the compiled-in points consult: tests that
        # arm it must reset it, so at rest it holds no budgets.
        assert faults.snapshot() == {"counts": {}, "values": {}}
