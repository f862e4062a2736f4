"""The wave admission decision against a naive one-arrival-at-a-time loop.

Router and gateway admit arrivals only in waves, through one shed routine.
The reference here is the contract written out per arrival: meter the
tenant's token bucket, admit a premium tenant holding a token, and test
everyone else against the (brownout-halved, for non-premium traffic) depth
and wait limits at their own arrival time.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.inference import InferenceEngine
from repro.core.mapping import Mapping
from repro.core.virtual_node import VirtualNodeSet
from repro.data import make_dataset
from repro.framework.models import get_workload
from repro.hardware.cluster import Cluster
from repro.serving import (
    ClosedLoopSource,
    RequestRouter,
    ServingGateway,
    TenantRegistry,
    TenantSpec,
    TenantTaggingSource,
    serve_workload,
)
from repro.serving.batcher import AdmissionPolicy, MicroBatchPolicy
from repro.serving.generators import ArrivalWave, _ExampleBank
from repro.serving.request import Request

TENANTS = ("prem", "be")
FIRST_ID = 100


@lru_cache(maxsize=1)
def _engine() -> InferenceEngine:
    workload = get_workload("mlp_synthetic")
    mapping = Mapping.even(VirtualNodeSet.even(1, 1),
                           Cluster.homogeneous("V100", 1))
    return InferenceEngine(workload, workload.build_model(0), mapping)


def naive(arrivals, *, depth, policy, premium, buckets, brown, max_batch,
          server_free, estimate):
    """Decide ``(request_id, time, tenant)`` arrivals one at a time."""
    admitted, shed = [], []
    for rid, t, tenant in arrivals:
        bucket = buckets.get(tenant)
        granted = bucket.take(t) if bucket is not None else True
        is_premium = premium.get(tenant, False)
        if not (is_premium and granted):
            dl, wl = policy.max_queue_depth, policy.max_estimated_wait
            if brown and not is_premium:
                dl = None if dl is None else max(1, dl // 2)
                wl = None if wl is None else wl / 2
            if dl is not None and depth >= dl:
                shed.append((t, rid, tenant, "depth"))
                continue
            if wl is not None and estimate > 0:
                backlog = max(0.0, server_free - t)
                if backlog + (depth // max_batch + 1) * estimate > wl:
                    shed.append((t, rid, tenant, "wait"))
                    continue
        admitted.append(rid)
        depth += 1
    return admitted, shed


_GAPS = st.sampled_from([0.0, 0.0, 1e-4, 7e-4, 2e-3, 9e-3])
_CASE = st.fixed_dictionaries({
    "gaps": st.lists(_GAPS, min_size=1, max_size=90),
    "premium_mask": st.lists(st.booleans(), min_size=90, max_size=90),
    "t0": st.floats(0.0, 0.5),
    # Small quotas and bursts exhaust within one wave, so over-quota
    # premium arrivals face the limits too.
    "quota": st.one_of(st.none(), st.sampled_from([5.0, 60.0, 400.0]),
                       st.floats(10.0, 3000.0)),
    "burst": st.one_of(st.none(), st.sampled_from([1.0, 2.0, 3.5])),
    "be_quota": st.one_of(st.none(), st.floats(10.0, 3000.0)),
    "depth_limit": st.one_of(st.none(), st.sampled_from([1, 2, 3]),
                             st.integers(1, 24)),
    "wait_limit": st.one_of(st.none(), st.floats(1e-4, 0.05)),
    "brownout": st.booleans(),
    "derated": st.booleans(),
    "start_depth": st.one_of(st.just(0), st.integers(0, 24)),
    "estimate": st.one_of(st.just(0.0), st.sampled_from([1e-4, 5e-4]),
                          st.floats(1e-4, 0.02)),
    "backlog": st.floats(-0.02, 0.05),
    "max_batch": st.integers(1, 16),
    "materialized": st.booleans(),
})


def _setup(case, *, tenancy: bool):
    """A router or gateway frozen mid-run, the wave, and the naive inputs."""
    if (case["depth_limit"] is None and case["wait_limit"] is None
            and not case["brownout"]):
        case = dict(case, depth_limit=8)
    policy = AdmissionPolicy(max_queue_depth=case["depth_limit"],
                             max_estimated_wait=case["wait_limit"],
                             brownout=case["brownout"])
    burst = case["burst"] if case["quota"] is not None else None
    registry = TenantRegistry([
        TenantSpec("prem", "premium", quota_rps=case["quota"], burst=burst),
        TenantSpec("be", "best_effort", quota_rps=case["be_quota"]),
    ])
    times = case["t0"] + np.cumsum(case["gaps"])
    n = len(times)
    if tenancy:
        idx = np.array([0 if p else 1 for p in case["premium_mask"][:n]],
                       dtype=np.int64)
        table = TENANTS
    else:
        idx, table = None, (None,)
    bank = _ExampleBank(np.zeros((3, 2)))
    wave = ArrivalWave(times=times, first_id=FIRST_ID, bank=bank,
                       first_cursor=0, tenant_idx=idx, tenant_table=table)
    if case["materialized"]:
        wave = ArrivalWave.of_requests(wave.build_requests())
    kwargs = dict(policy=MicroBatchPolicy(max_batch=case["max_batch"]),
                  admission=policy)
    if tenancy:
        router = ServingGateway(_engine(), None, registry, **kwargs)
    else:
        router = RequestRouter(_engine(), None, **kwargs)
    brown = case["brownout"] and case["derated"]
    router._brownout_active = lambda: brown
    router._pending.push_wave([
        Request(request_id=-1 - i, arrival_time=0.0, example=np.zeros(2),
                tenant="be" if tenancy else None)
        for i in range(case["start_depth"])])
    router._service_estimate = case["estimate"]
    router._server_free = case["t0"] + case["backlog"]
    admitted = []
    push_wave = router._pending.push_wave

    def spy(requests):
        admitted.extend(r.request_id for r in requests)
        push_wave(requests)

    router._pending.push_wave = spy
    arrivals = list(zip(range(FIRST_ID, FIRST_ID + n), times.tolist(),
                        wave.tenants(range(n))))
    reference = dict(
        depth=case["start_depth"], policy=policy,
        premium={"prem": True} if tenancy else {},
        buckets=registry.buckets() if tenancy else {},
        brown=brown and tenancy,
        max_batch=(max(1, case["max_batch"] // 2) if brown
                   else case["max_batch"]),
        server_free=router._server_free, estimate=case["estimate"])
    return router, wave, arrivals, reference, admitted


@settings(max_examples=150, deadline=None)
@given(case=_CASE)
def test_gateway_wave_matches_naive_loop(case):
    gateway, wave, arrivals, reference, admitted = _setup(case, tenancy=True)
    want_admitted, want_shed = naive(arrivals, **reference)
    assert gateway._enqueue_wave(wave) == len(want_shed)
    assert admitted == want_admitted
    assert gateway.report.tenant_shed == want_shed
    assert gateway.report.shed == [(t, i, r) for t, i, _, r in want_shed]
    for tenant, bucket in gateway._buckets.items():
        ref = reference["buckets"][tenant]
        if bucket is None:
            assert ref is None
        else:
            assert (bucket.tokens, bucket._last) == (ref.tokens, ref._last)


@settings(max_examples=150, deadline=None)
@given(case=_CASE)
def test_router_wave_matches_naive_loop(case):
    router, wave, arrivals, reference, admitted = _setup(case, tenancy=False)
    want_admitted, want_shed = naive(arrivals, **reference)
    assert router._enqueue_wave(wave) == len(want_shed)
    assert admitted == want_admitted
    assert router.report.shed == [(t, i, r) for t, i, _, r in want_shed]


def test_closed_loop_source_behind_admission_policy():
    """A closed-loop population (materialized waves) under a depth cap:
    sheds happen, every issued request is served or shed exactly once,
    and the run replays bit-identically."""
    examples = make_dataset(get_workload("mlp_synthetic").dataset, n=32,
                            seed=0).x_val

    def run():
        source = ClosedLoopSource(num_clients=48, requests_per_client=4,
                                  examples=examples, think_time=0.002, seed=3)
        return serve_workload(
            "mlp_synthetic", [], max_batch=8, pool_devices=1, source=source,
            admission=AdmissionPolicy(max_queue_depth=4))

    report = run()
    assert report.shed and all(reason == "depth"
                               for _, _, reason in report.shed)
    served = [r.request_id for r in report.records]
    shed = [i for _, i, _ in report.shed]
    assert sorted(served + shed) == list(range(len(served) + len(shed)))
    assert all(r.client is not None for r in report.records)
    again = run()
    assert ([(r.request_id, r.completion_time) for r in again.records]
            == [(r.request_id, r.completion_time) for r in report.records])
    assert again.shed == report.shed


def test_tagging_a_closed_loop_source_retags_its_waves():
    examples = np.arange(8.0).reshape(4, 2)
    inner = ClosedLoopSource(num_clients=3, requests_per_client=1,
                             examples=examples, think_time=0.0)
    wave = TenantTaggingSource(inner, "only").take_wave(1.0)
    requests = wave.build_requests()
    assert [r.tenant for r in requests] == ["only"] * 3
    assert [r.client for r in requests] == [0, 1, 2]
    assert wave.tenants([2]) == ["only"]
    assert wave.ids(np.arange(3)) == [0, 1, 2]
