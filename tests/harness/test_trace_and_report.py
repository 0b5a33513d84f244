"""Tests for the instant timeline and the report tables."""

import pytest

from repro.harness.report import abort_report, full_report, network_report, site_report
from tests.core.conftest import build_system, read_program, write_program


@pytest.fixture
def traced_rig():
    kernel, system = build_system(seed=71)
    system.obs.enable_timeline()
    return kernel, system, system.obs.spans


def of_category(recorder, category):
    return [instant for instant in recorder.instants if instant.category == category]


class TestTracer:
    """Site lifecycle and transaction finishes on ``obs.spans.instants``."""

    def test_txn_events(self, traced_rig):
        kernel, system, recorder = traced_rig
        kernel.run(system.submit(1, write_program("X", 1)))
        events = of_category(recorder, "txn")
        assert len(events) == 1
        assert events[0].name == "commit"
        assert events[0].site_id == 1
        assert 0 < events[0].time <= kernel.now

    def test_site_lifecycle_events(self, traced_rig):
        kernel, system, recorder = traced_rig
        system.crash(3)
        kernel.run(until=40)
        kernel.run(system.power_on(3))
        whats = [event.name for event in of_category(recorder, "site")]
        assert whats[:2] == ["crash", "power-on"]
        assert "operational" in whats

    def test_control_txns_traced_separately(self, traced_rig):
        kernel, system, recorder = traced_rig
        system.crash(3)
        kernel.run(until=60)
        controls = of_category(recorder, "control")
        assert any(event.name == "commit" for event in controls)  # the type-2
        assert not any(event.category == "txn" for event in controls)

    def test_abort_detail_includes_reason(self, traced_rig):
        kernel, system, recorder = traced_rig
        system.crash(3)  # no detection yet: write will rpc-timeout

        from repro.errors import TransactionAborted

        with pytest.raises(TransactionAborted):
            kernel.run(system.submit(1, write_program("X", 1)))
        aborts = [e for e in of_category(recorder, "txn") if e.name == "abort"]
        assert aborts and "rpc-timeout" in aborts[0].detail


class TestReports:
    def test_site_report_columns(self, traced_rig):
        kernel, system, _recorder = traced_rig
        kernel.run(system.submit(1, write_program("X", 1)))
        table = site_report(system)
        assert len(table.rows) == 3
        (row,) = table.where(site=1)
        assert row["status"] == "up"
        assert row["committed"] == 1
        assert row["session"] == 1

    def test_abort_report_sorted(self, traced_rig):
        kernel, system, _recorder = traced_rig
        from repro.errors import TransactionAborted

        system.crash(3)
        # First write (before detection/exclusion) times out and aborts.
        with pytest.raises(TransactionAborted):
            kernel.run(system.submit(1, write_program("X", 1)))
        table = abort_report(system)
        assert table.rows[0]["reason"] == "rpc-timeout"
        assert table.rows[0]["count"] >= 1

    def test_network_report(self, traced_rig):
        kernel, system, _recorder = traced_rig
        kernel.run(system.submit(1, write_program("X", 1)))
        table = network_report(system)
        sent = {row["counter"]: row["value"] for row in table.rows}
        assert sent["sent"] > 0

    def test_full_report_renders(self, traced_rig):
        kernel, system, _recorder = traced_rig
        kernel.run(system.submit(1, read_program("X")))
        text = full_report(system)
        assert "Per-site status" in text
        assert "Network" in text
