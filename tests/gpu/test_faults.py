"""Fault plans, flaky-transfer injection and the modern device presets."""

import numpy as np
import pytest

from repro.gpu import (
    A100_SXM,
    DEVICE_PRESETS,
    GTX_280,
    TESLA_V100,
    FaultEvent,
    FaultPlan,
    GPUContext,
    InterconnectTopology,
    TransferEngine,
)


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse("flaky:2@5, fail:1@40, join:2@80")
        assert len(plan) == 3
        assert str(FaultPlan.parse(str(plan))) == str(plan)

    def test_retired_kill_worker_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind 'kill-worker'"):
            FaultPlan.parse("kill-worker:0@3")

    def test_events_sorted_by_iteration(self):
        plan = FaultPlan.parse("join:2@80,fail:1@40")
        assert [event.at for event in plan.events] == [40, 80]

    def test_due_matches_exactly(self):
        plan = FaultPlan.parse("fail:1@40,join:1@80,flaky:3@40")
        due = plan.due(40)
        assert {event.kind for event in due} == {"fail", "flaky"}
        assert plan.due(41) == ()

    def test_device_events_subset(self):
        plan = FaultPlan.parse("flaky:2@5,fail:1@40,join:2@80")
        assert [event.kind for event in plan.device_events()] == ["fail", "join"]

    def test_empty_string_is_empty_plan(self):
        assert len(FaultPlan.parse("")) == 0

    @pytest.mark.parametrize(
        "text",
        ["fail@3", "explode:1@3", "fail:1", "fail:-1@3", "fail:1@-3", "fail:x@3"],
    )
    def test_bad_terms_rejected(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse(text)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("explode", 0, 0)
        with pytest.raises(ValueError):
            FaultEvent("fail", 0, -1)


class TestFlakyTransfers:
    def _context(self):
        topology = InterconnectTopology.dedicated([GTX_280])
        engine = TransferEngine(topology)
        return GPUContext(GTX_280, engine=engine, device_key="gpu0")

    def test_retry_penalty_slows_transfer_only(self):
        clean = self._context()
        clean.to_device("a", np.zeros(1 << 16, dtype=np.int8))
        baseline = clean.timeline.elapsed

        ctx = self._context()
        ctx.engine.inject_transfer_faults(retries=2, backoff=1e-3)
        ctx.to_device("a", np.zeros(1 << 16, dtype=np.int8))
        assert ctx.engine.retried_transfers == 2  # two retry attempts tallied
        assert ctx.engine.retry_time > 0.0
        assert ctx.timeline.elapsed == pytest.approx(
            baseline + ctx.engine.retry_time
        )
        # The fault is consumed: the next transfer prices clean.
        before = ctx.engine.retry_time
        ctx.to_device("b", np.zeros(1 << 16, dtype=np.int8))
        assert ctx.engine.retry_time == before

    def test_stall_counters_stay_pure_contention(self):
        ctx = self._context()
        ctx.engine.inject_transfer_faults(retries=3)
        ctx.to_device("a", np.zeros(1 << 16, dtype=np.int8))
        # A dedicated, uncontended link: the retry penalty must not leak
        # into the arbitration-stall accounting.
        assert ctx.engine.total_stall == 0.0

    def test_multiple_armed_faults_consumed_in_order(self):
        ctx = self._context()
        ctx.engine.inject_transfer_faults(count=2, retries=1)
        ctx.to_device("a", np.zeros(1 << 10, dtype=np.int8))
        ctx.to_device("b", np.zeros(1 << 10, dtype=np.int8))
        ctx.to_device("c", np.zeros(1 << 10, dtype=np.int8))
        assert ctx.engine.retried_transfers == 2

    def test_validation(self):
        ctx = self._context()
        with pytest.raises(ValueError):
            ctx.engine.inject_transfer_faults(count=0)
        with pytest.raises(ValueError):
            ctx.engine.inject_transfer_faults(retries=0)
        with pytest.raises(ValueError):
            ctx.engine.inject_transfer_faults(backoff=-1.0)


class TestModernPresets:
    def test_presets_registered(self):
        assert DEVICE_PRESETS["v100"] is TESLA_V100
        assert DEVICE_PRESETS["teslav100"] is TESLA_V100
        assert DEVICE_PRESETS["a100"] is A100_SXM
        assert DEVICE_PRESETS["a100sxm"] is A100_SXM

    def test_nvlink_class_peer_links(self):
        # Both presets model NVLink-generation peer fabric: far faster than
        # the G80/GT200-era PCIe peer path, with the A100 a generation ahead.
        assert TESLA_V100.p2p_capable and A100_SXM.p2p_capable
        assert TESLA_V100.p2p_bandwidth > GTX_280.pcie_bandwidth
        assert A100_SXM.p2p_bandwidth > TESLA_V100.p2p_bandwidth
        assert A100_SXM.p2p_latency < TESLA_V100.p2p_latency

    def test_presets_outcompute_the_paper_era(self):
        assert TESLA_V100.peak_flops > GTX_280.peak_flops
        assert A100_SXM.peak_flops > TESLA_V100.peak_flops
        assert A100_SXM.mem_bandwidth > TESLA_V100.mem_bandwidth > GTX_280.mem_bandwidth
