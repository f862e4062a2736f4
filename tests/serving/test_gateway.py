"""The multi-tenant gateway: WFQ, quota-aware shedding, and the journal."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_dataset
from repro.elastic import ServingPhase
from repro.framework.models import get_workload
from repro.runtime import read_trace
from repro.serving import (
    MultiTenantPoissonSource,
    OpenLoopPoissonSource,
    TenantRegistry,
    TenantTaggingSource,
    audit_journal,
    serve_workload,
)
from repro.serving.batcher import AdmissionPolicy, WFQDispatchQueue
from repro.serving.request import Request
from repro.serving.tenancy import split_phases

FLOOD_SPEC = ("prem:class=premium,weight=8,quota=300,share=250;"
              "flood:class=best_effort,weight=1,share=4000")


def _serve(spec=FLOOD_SPEC, rate=4250.0, duration=1.0, seed=7, **kwargs):
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("max_wait", 0.002)
    kwargs.setdefault("pool_devices", 1)
    return serve_workload(
        "mlp_synthetic", [ServingPhase(duration, rate)], seed=seed,
        tenants=TenantRegistry.from_spec(spec), **kwargs)


def _request(request_id, arrival, tenant):
    return Request(request_id=request_id, arrival_time=arrival,
                   example=np.zeros(4), tenant=tenant)


class TestWFQDispatchQueue:
    def test_weighted_order_jumps_the_backlog(self):
        registry = TenantRegistry.from_spec(
            "prem:class=premium,weight=8;flood:weight=1")
        queue = WFQDispatchQueue(registry)
        for i in range(20):
            queue.push(_request(i, 0.01 * i, "flood"))
        queue.push(_request(100, 0.25, "prem"))
        queue.push(_request(101, 0.26, "prem"))
        batch = queue.take(1.0, 4)
        # Both premium requests beat the 20-deep flood backlog.
        assert [r.request_id for r in batch] == [100, 101, 0, 1]

    def test_single_tenant_is_arrival_order(self):
        registry = TenantRegistry.from_spec("only:weight=3")
        queue = WFQDispatchQueue(registry)
        for i in range(10):
            queue.push(_request(i, 0.001 * i, "only"))
        assert [r.request_id for r in queue.take(1.0, 10)] == list(range(10))

    def test_not_yet_arrived_requests_stay_queued(self):
        registry = TenantRegistry.from_spec("a:weight=1")
        queue = WFQDispatchQueue(registry)
        queue.push(_request(0, 0.0, "a"))
        queue.push(_request(1, 5.0, "a"))
        assert [r.request_id for r in queue.take(1.0, 8)] == [0]
        assert len(queue) == 1
        assert queue.oldest_arrival() == 5.0


class TestTenantAwareShedding:
    def test_premium_within_quota_never_shed_under_flood(self):
        report = _serve(admission=AdmissionPolicy(max_queue_depth=64,
                                                  max_estimated_wait=None))
        shed_tenants = {tenant for _, _, tenant, _ in report.tenant_shed}
        assert report.tenant_shed, "the flood must trip the depth cap"
        assert shed_tenants == {"flood"}, (
            "only the best-effort tenant may pay for the overload")
        assert report.tenants["prem"]["shed"] == 0

    def test_quota_exhausted_premium_queues_when_not_overloaded(self):
        # Premium offers 200 req/s against a 50 req/s quota, but the pool
        # is nowhere near saturation: over-quota premium loses its shed
        # *immunity*, not its seat — every request still queues and serves.
        report = _serve(
            spec="prem:class=premium,weight=4,quota=50,share=1",
            rate=200.0, pool_devices=2,
            admission=AdmissionPolicy(max_queue_depth=64,
                                      max_estimated_wait=None))
        assert report.tenant_shed == []
        assert report.tenants["prem"]["shed"] == 0
        assert report.tenants["prem"]["requests"] == len(report.records) > 0

    def test_quota_exhausted_premium_sheds_under_overload(self):
        # The same over-quota premium tenant under a genuine overload faces
        # the thresholds like anyone else — the quota bounds the immunity.
        report = _serve(
            spec="prem:class=premium,weight=4,quota=50,share=1",
            rate=8000.0, pool_devices=1,
            admission=AdmissionPolicy(max_queue_depth=32,
                                      max_estimated_wait=None))
        assert report.tenants["prem"]["shed"] > 0

    def test_eager_admission_fills_past_the_batch_window(self):
        # The plain router's lazy pull stops at max_batch, so a depth cap
        # above the batch size could never trip; the gateway admits the
        # whole backlog eagerly, so it can and does.
        report = _serve(admission=AdmissionPolicy(max_queue_depth=32,
                                                  max_estimated_wait=None))
        assert report.tenant_shed
        assert {reason for _, _, _, reason in report.tenant_shed} == {"depth"}


class TestDispatcherWiring:
    def test_unknown_dispatcher_rejected(self):
        with pytest.raises(ValueError, match="dispatcher"):
            _serve(dispatcher="lifo", duration=0.1)

    def test_journal_needs_a_registry(self):
        with pytest.raises(ValueError, match="tenant registry"):
            serve_workload("mlp_synthetic", [ServingPhase(0.1, 100.0)],
                           journal="nope.jsonl")

    def test_fifo_dispatcher_serves_in_arrival_order(self):
        fifo = _serve(rate=600.0, admission=None, dispatcher="fifo")
        ids = [r.request_id for r in fifo.records]
        assert ids == sorted(ids), "fifo must dispatch in arrival order"
        # ... and the wfq knob actually changes the queue: with two tenants
        # backlogged it interleaves by weight, breaking arrival order.
        wfq = _serve(rate=600.0, admission=None)
        wfq_ids = [r.request_id for r in wfq.records]
        assert sorted(wfq_ids) == sorted(ids)   # same requests served
        assert wfq_ids != ids


class TestJournal:
    def test_audit_reproduces_live_report_exactly(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        report = _serve(journal=path,
                        admission=AdmissionPolicy(max_queue_depth=64,
                                                  max_estimated_wait=None))
        audit = audit_journal(path)
        assert audit["tenants"] == report.tenants   # bit-identical floats
        assert audit["dispatcher"] == "wfq"
        assert audit["requests"] == len(report.records)
        assert audit["shed"] == len(report.shed)

    def test_registry_header_is_first_line(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        _serve(duration=0.2, journal=path)
        events = read_trace(path)
        assert events[0]["kind"] == "registry"
        assert set(events[0]["data"]["tenants"]) == {"prem", "flood"}
        assert events[-1]["kind"] == "summary"

    def test_non_journal_trace_rejected_by_audit(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        serve_workload("mlp_synthetic", [ServingPhase(0.2, 100.0)],
                       pool_devices=1, trace=path)
        with pytest.raises(ValueError, match="registry"):
            audit_journal(path)

    def test_journal_survives_a_mid_run_crash(self, tmp_path):
        # The source dies mid-trace; the journal's finally-close must still
        # land every completed request on disk, auditable.
        class DyingSource(TenantTaggingSource):
            def take_arrivals(self, until):
                if until > 0.5:
                    raise RuntimeError("injected source failure")
                return super().take_arrivals(until)

        workload = get_workload("mlp_synthetic")
        dataset = make_dataset(workload.dataset, n=512, seed=0)
        source = DyingSource(
            OpenLoopPoissonSource([ServingPhase(2.0, 300.0)], dataset.x_val,
                                  seed=0), "only")
        path = str(tmp_path / "journal.jsonl")
        with pytest.raises(RuntimeError, match="injected"):
            serve_workload(
                "mlp_synthetic", [ServingPhase(2.0, 300.0)], pool_devices=2,
                source=source, seed=0, journal=path,
                tenants=TenantRegistry.from_spec("only:class=premium"))
        audit = audit_journal(path)
        assert audit["requests"] > 0
        assert audit["tenants"]["only"]["requests"] == audit["requests"]


class TestMultiTenantPoissonSource:
    def _source(self, spec, rate, seed=7, limit=None):
        registry = TenantRegistry.from_spec(spec)
        workload = get_workload("mlp_synthetic")
        dataset = make_dataset(workload.dataset, n=64, seed=seed)
        phases = [ServingPhase(1.0, rate)]
        return MultiTenantPoissonSource(
            registry, split_phases(phases, registry), dataset.x_val,
            seed=seed, limit=limit)

    def test_merged_stream_is_time_sorted_with_global_ids(self):
        source = self._source("a:share=1;b:share=2", 600.0)
        requests = source.take_arrivals(float("inf"))
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        assert [r.request_id for r in requests] == list(range(len(requests)))
        assert {r.tenant for r in requests} == {"a", "b"}

    def test_tenant_stream_independent_of_neighbours_rate(self):
        # prem's arrivals must be identical whether the other tenant offers
        # 1000 or 4000 req/s — per-tenant seed domains, not one shared draw.
        low = self._source("prem:share=250;flood:share=1000", 1250.0)
        high = self._source("prem:share=250;flood:share=4000", 4250.0)
        prem_low = [r.arrival_time for r in low.take_arrivals(float("inf"))
                    if r.tenant == "prem"]
        prem_high = [r.arrival_time for r in high.take_arrivals(float("inf"))
                     if r.tenant == "prem"]
        assert prem_low == prem_high

    def test_limit_caps_the_merged_total(self):
        source = self._source("a:share=1;b:share=1", 800.0, limit=37)
        assert source.total_requests == 37
        assert len(source.take_arrivals(float("inf"))) == 37

    def test_missing_phase_trace_rejected(self):
        registry = TenantRegistry.from_spec("a;b")
        workload = get_workload("mlp_synthetic")
        dataset = make_dataset(workload.dataset, n=64, seed=0)
        with pytest.raises(ValueError, match="no phase trace"):
            MultiTenantPoissonSource(
                registry, {"a": [ServingPhase(1.0, 100.0)]}, dataset.x_val)

    def test_wave_drain_matches_per_request_drain(self):
        # Two identical sources, one drained through take_wave and one
        # through take_arrivals at the same staggered cutoffs, must yield
        # the same requests — ids, times, tenants, and payload rows.
        spec = "prem:share=250;flood:share=1000"
        waves = self._source(spec, 1250.0)
        oracle = self._source(spec, 1250.0)
        for until in (0.1, 0.25, 0.25, 0.6, float("inf")):
            wave = waves.take_wave(until)
            got = [] if wave is None else wave.build_requests()
            want = oracle.take_arrivals(until)
            assert [(r.request_id, r.arrival_time, r.tenant) for r in got] \
                == [(r.request_id, r.arrival_time, r.tenant) for r in want]
            for g, w in zip(got, want):
                assert np.array_equal(g.example, w.example)
            assert waves.next_arrival_time() == oracle.next_arrival_time()


class TestMultiTenantWaveEdgeCases:
    """The merged wave protocol's corners: coincident cross-tenant
    arrivals, tenants whose phases produce nothing, and a wave cut exactly
    at ``until``.  Per-tenant streams are pinned by stubbing the arrival
    sampler, so the merge logic is tested against known timestamps."""

    def _source(self, monkeypatch, streams, spec="a;b"):
        import repro.serving.gateway as gateway_module
        per_tenant = iter(streams)  # consumed in registry order

        def fixed_times(phases, seed=0, limit=None):
            return np.asarray(next(per_tenant), dtype=float)

        monkeypatch.setattr(gateway_module, "serving_arrival_times",
                            fixed_times)
        registry = TenantRegistry.from_spec(spec)
        workload = get_workload("mlp_synthetic")
        dataset = make_dataset(workload.dataset, n=64, seed=0)
        phases = {t: [ServingPhase(1.0, 1.0)] for t in registry.tenant_ids}
        return MultiTenantPoissonSource(registry, phases, dataset.x_val)

    def test_simultaneous_cross_tenant_arrivals_keep_registry_order(
            self, monkeypatch):
        source = self._source(monkeypatch, [[0.1, 0.5], [0.1, 0.3, 0.5]])
        wave = source.take_wave(float("inf"))
        merged = list(zip(wave.times.tolist(),
                          wave.tenants(range(len(wave)))))
        # Ties at 0.1 and 0.5 break in registry order: a before b.
        assert merged == [(0.1, "a"), (0.1, "b"), (0.3, "b"),
                          (0.5, "a"), (0.5, "b")]
        assert wave.first_id == 0
        requests = wave.build_requests()
        assert [r.request_id for r in requests] == list(range(5))

    def test_empty_phase_tenant_contributes_nothing(self, monkeypatch):
        source = self._source(monkeypatch, [[], [0.1, 0.2, 0.3]])
        assert source.total_requests == 3
        wave = source.take_wave(float("inf"))
        assert wave.tenants(range(len(wave))) == ["b"] * 3
        assert source.take_wave(float("inf")) is None

    def test_wave_straddling_until_exactly(self, monkeypatch):
        streams = [[0.1, 0.2], [0.2, 0.4]]
        source = self._source(monkeypatch, streams)
        # An arrival at exactly ``until`` belongs to this wave, not the next.
        wave = source.take_wave(0.2)
        assert wave.times.tolist() == [0.1, 0.2, 0.2]
        assert wave.tenants(range(3)) == ["a", "a", "b"]
        assert source.next_arrival_time() == 0.4
        tail = source.take_wave(0.4)
        assert tail.times.tolist() == [0.4]
        assert tail.first_id == 3
        assert source.take_wave(float("inf")) is None
        # The per-request pull cuts the identical boundary.
        oracle = self._source(monkeypatch, streams)
        head = oracle.take_arrivals(0.2)
        assert [(r.arrival_time, r.tenant) for r in head] \
            == [(0.1, "a"), (0.2, "a"), (0.2, "b")]


class TestIncrementalTenantAccounting:
    def test_tenant_report_not_rebuilt_during_live_run(self, monkeypatch):
        # The live gateway keeps per-tenant accounting incrementally;
        # tenant_report (the full rebuild) is reserved for the offline
        # audit and must run at most once per serving run.
        import repro.serving.gateway as gateway_module
        rebuild = gateway_module.tenant_report
        calls = {"n": 0}

        def counting(*args, **kwargs):
            calls["n"] += 1
            return rebuild(*args, **kwargs)

        monkeypatch.setattr(gateway_module, "tenant_report", counting)
        report = _serve(admission=AdmissionPolicy(max_queue_depth=64,
                                                  max_estimated_wait=None))
        assert calls["n"] <= 1, (
            f"tenant_report rebuilt {calls['n']} times during one run")
        # ... and the incremental digests match a from-scratch rebuild
        # bit for bit.
        assert rebuild(
            TenantRegistry.from_spec(FLOOD_SPEC),
            [(r.tenant, r.latency) for r in report.records],
            [tenant for _, _, tenant, _ in report.tenant_shed],
        ) == report.tenants


class TestLiveTenantHistograms:
    def test_on_demand_matches_batch_by_batch_feed(self, monkeypatch):
        from itertools import groupby

        from repro.serving.gateway import ServingGateway
        from repro.telemetry import StreamingHistogram

        seen = {}
        finalize = ServingGateway._finalize

        def capture(self):
            finalize(self)
            seen["live"] = self.live_tenant_histograms()

        monkeypatch.setattr(ServingGateway, "_finalize", capture)
        report = _serve(spec="prem:class=premium,weight=4,share=300;"
                             "be:class=best_effort,weight=1,share=600",
                        rate=900.0, duration=0.5, pool_devices=2)
        live = seen["live"]
        assert set(live) == {"prem", "be"}

        # The per-batch feed the gateway used to keep live.
        fed = {t: StreamingHistogram() for t in live}
        for _, batch in groupby(report.records, key=lambda r: r.batch_id):
            per_tenant = {}
            for r in batch:
                per_tenant.setdefault(r.tenant, []).append(
                    r.completion_time - r.arrival_time)
            for tenant, values in per_tenant.items():
                fed[tenant].observe_many(values)

        for tenant, hist in live.items():
            ref = fed[tenant]
            assert hist.count == ref.count > 0
            np.testing.assert_array_equal(hist._counts, ref._counts)
            got, want = hist.stats(), ref.stats()
            for key in ("min", "max", "p50", "p95", "p99", "count"):
                assert got[key] == want[key], (tenant, key)
            assert got["mean"] == pytest.approx(want["mean"], rel=1e-12)

    def test_each_call_is_a_fresh_snapshot(self, monkeypatch):
        from repro.serving.gateway import ServingGateway

        seen = {}
        finalize = ServingGateway._finalize

        def capture(self):
            finalize(self)
            first = self.live_tenant_histograms()
            first["prem"].clear()
            seen["again"] = self.live_tenant_histograms()

        monkeypatch.setattr(ServingGateway, "_finalize", capture)
        report = _serve(duration=0.2)
        served = sum(1 for r in report.records if r.tenant == "prem")
        assert len(seen["again"]["prem"]) == served > 0
