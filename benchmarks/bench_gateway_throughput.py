"""Gateway throughput: pre-PR per-request hot path vs the batched fast path.

The multi-tenant gateway is the serving front end every co-scheduling result
runs through, and under overload its admission path executes once per
*offered* request — millions of times per experiment.  This benchmark prices
the batched rewrite on a 1M-request two-tenant overload replay (a premium
tenant inside quota plus a best-effort flood, depth-capped admission, WFQ
dispatch, full request journal) against the **pre-PR hot path embedded
verbatim below** — per-request arrival materialization with a per-request
tenant string list, scalar token-bucket metering, one ``json.dumps`` journal
line per event, and a tenant report rebuilt from the full record list at
finalize.

The baseline subclasses the live gateway for the event-dispatch machinery
this PR did not touch, but every method the PR rewrote is pinned to its
pre-PR body, copied verbatim, so the baseline cannot silently inherit later
optimizations.  The current stack (**wave**) runs the same replay with
wave-at-a-time arrival consumption, vectorized tenant metering, bulk WFQ
pushes, and fused journal lines.

Both variants make identical admission decisions and write byte-identical
journals — the gate asserts it (and the golden-trace suite pins the
current stack per fixture); this file is about wall clock.  Results
persist as ``results/gateway_throughput.txt`` and
``results/BENCH_gateway_throughput.json``.  ``--smoke`` runs a small
replay with an absolute requests/sec floor for the wave path.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import time
from typing import Dict, List

import numpy as np

from _common import report, save_bench_json
from repro.core.inference import InferenceEngine
from repro.core.mapping import Mapping
from repro.core.virtual_node import VirtualNodeSet
from repro.data import make_dataset
from repro.elastic.trace import ServingPhase, serving_arrival_times
from repro.framework.models import get_workload
from repro.hardware.cluster import Cluster
from repro.runtime import EventTrace
from repro.serving.batcher import AdmissionPolicy, MicroBatchPolicy
from repro.serving.gateway import (
    DOMAIN_TENANT,
    MultiTenantPoissonSource,
    ServingGateway,
    tenant_report,
)
from repro.serving.generators import RequestSource, _ExampleBank
from repro.serving.request import Request
from repro.serving.router import RequestRouter
from repro.serving.tenancy import TenantRegistry, split_phases
from repro.utils.seeding import derive_seed

# Replay geometry: a two-tenant overload — a premium tenant well inside its
# quota share plus a best-effort flood at ~16x its share — against one
# serving device with a depth-capped queue, so the overwhelming majority of
# offered requests exercise the admission/shed/journal path.
REQUESTS = 1_000_000
ARRIVAL_RATE = 500_000.0
REGISTRY_SPEC = ("prem:class=premium,weight=8,quota=300,share=250;"
                 "flood:class=best_effort,weight=1,share=4000")
QUEUE_DEPTH = 256
SEED = 7

SMOKE_REQUESTS = 20_000
# Absolute floor for the wave path in --smoke: the wave path clears it by
# well over 2x even on a noisy runner, while a per-request admission loop
# (~40-50k req/s on the same replay) trips it immediately.
SMOKE_FLOOR_RPS = 60_000.0


# --------------------------------------------------------------------------
# The pre-PR gateway hot path, embedded verbatim so the baseline cannot
# silently inherit later optimizations.
# --------------------------------------------------------------------------

class _LegacyMultiTenantPoissonSource(RequestSource):
    """Pre-PR merged Poisson source: a per-request tenant *string list* and
    one ``Request`` object per arrival, always (no wave protocol)."""

    def __init__(self, registry, phases_by_tenant, examples, seed=0,
                 limit=None):
        missing = [t for t in registry.tenant_ids if t not in phases_by_tenant]
        if missing:
            raise ValueError(f"no phase trace for tenants: {missing}")
        tenant_ids = registry.tenant_ids
        all_times: List[np.ndarray] = []
        all_idx: List[np.ndarray] = []
        for i, tenant_id in enumerate(tenant_ids):
            times = serving_arrival_times(
                phases_by_tenant[tenant_id],
                seed=derive_seed(seed, DOMAIN_TENANT, i), limit=limit)
            all_times.append(times)
            all_idx.append(np.full(len(times), i, dtype=np.int64))
        times = np.concatenate(all_times) if all_times else np.empty(0)
        idx = np.concatenate(all_idx) if all_idx else np.empty(0, np.int64)
        order = np.lexsort((idx, times))
        self._times = times[order]
        self._tenants = [tenant_ids[k] for k in idx[order]]
        if limit is not None and len(self._times) > limit:
            self._times = self._times[:limit]
            self._tenants = self._tenants[:limit]
        self._bank = _ExampleBank(examples)
        self._next = 0

    @property
    def total_requests(self):
        return len(self._times)

    def next_arrival_time(self):
        if self._next >= len(self._times):
            return None
        return float(self._times[self._next])

    def take_arrivals(self, until):
        end = int(np.searchsorted(self._times, until, side="right"))
        if end <= self._next:
            return []
        bank = self._bank
        out = [Request(request_id=i, arrival_time=t,
                       example=bank.next_example(),
                       tenant=self._tenants[i])
               for i, t in enumerate(
                   self._times[self._next:end].tolist(), start=self._next)]
        self._next = end
        return out


class _LegacyGateway(ServingGateway):
    """The pre-PR admission/accounting/journal path, pinned method by method.

    Every method this PR rewrote carries its pre-PR body verbatim; the
    ``super()`` calls of the originals are spelled as ``RequestRouter``
    calls here so they jump over the optimized gateway layer instead of
    re-entering it.  Router methods the live code no longer has
    (``_shed_reason``, ``RequestRouter._record_shed``) are copied in
    verbatim too.
    """

    def _admit(self, until):
        while True:
            nxt = self.source.next_arrival_time()
            if nxt is None or nxt > until:
                return
            self._enqueue(self.source.take_arrivals(nxt))

    def _pull(self, until):
        return self._enqueue(self.source.take_arrivals(until))

    def _enqueue(self, requests):
        if self.admission is None:
            self._pending.extend(requests)
            return 0
        shed = 0
        for r in requests:
            reason = self._should_shed(r)
            if reason is None:
                self._pending.push(r)
            else:
                self._record_shed(r, reason)
                shed += 1
        return shed

    def _should_shed(self, request):
        policy = self.admission
        if policy is None:
            return None
        tenant = request.tenant
        bucket = self._buckets.get(tenant)
        within_quota = (bucket.take(request.arrival_time)
                        if bucket is not None else True)
        spec = self.registry[tenant] if tenant in self.registry else None
        premium = spec is not None and spec.premium
        if premium and within_quota:
            return None
        depth_limit = policy.max_queue_depth
        wait_limit = policy.max_estimated_wait
        if not premium and self._brownout_active():
            if depth_limit is not None:
                depth_limit = max(1, depth_limit // 2)
            if wait_limit is not None:
                wait_limit = wait_limit / 2
        return self._shed_reason(request, depth_limit, wait_limit)

    def _shed_reason(self, request, depth_limit, wait_limit):
        if depth_limit is not None and len(self._pending) >= depth_limit:
            return "depth"
        if wait_limit is not None and self._service_estimate > 0:
            backlog = max(0.0, self._server_free - request.arrival_time)
            batches_ahead = (
                len(self._pending) // self._policy_now().max_batch + 1)
            estimate = backlog + batches_ahead * self._service_estimate
            if estimate > wait_limit:
                return "wait"
        return None

    def _record_shed(self, request, reason):
        self.report.shed.append(
            (request.arrival_time, request.request_id, reason))
        tenant = request.tenant if request.tenant is not None else ""
        self.report.tenant_shed.append(
            (request.arrival_time, request.request_id, tenant, reason))
        self._journal_emit("shed", request.arrival_time, {
            "request_id": request.request_id,
            "tenant": tenant,
            "reason": reason,
        })

    def _record_completion(self, records):
        for r in records:
            self._journal_emit("request", r.completion_time, {
                "request_id": r.request_id,
                "tenant": r.tenant,
                "arrival": r.arrival_time,
                "dispatch": r.dispatch_time,
                "completion": r.completion_time,
                "batch_id": r.batch_id,
            })

    def _finalize(self):
        RequestRouter._finalize(self)
        self.report.tenants = tenant_report(
            self.registry,
            [(r.tenant, r.latency) for r in self.report.records],
            [tenant for _, _, tenant, _ in self.report.tenant_shed])
        self._journal_emit("summary", self.report.duration, {
            "tenants": self.report.tenants,
            "requests": len(self.report.records),
            "shed": len(self.report.shed),
        })
        if self._journal is not None:
            self._journal.flush()


# --------------------------------------------------------------------------
# The two-tenant overload replay.
# --------------------------------------------------------------------------

def _build(n: int, variant: str):
    """One fully wired gateway for ``variant`` in {legacy, wave},
    journaling to an in-memory sink."""
    registry = TenantRegistry.from_spec(REGISTRY_SPEC)
    workload = get_workload("mlp_synthetic")
    pool = Cluster.homogeneous("V100", 1)
    mapping = Mapping.even(VirtualNodeSet.even(1, 1), pool)
    engine = InferenceEngine(workload, workload.build_model(SEED), mapping)
    dataset = make_dataset(workload.dataset, n=512, seed=SEED)
    phases = [ServingPhase(n / ARRIVAL_RATE, ARRIVAL_RATE)]
    source_cls = (_LegacyMultiTenantPoissonSource if variant == "legacy"
                  else MultiTenantPoissonSource)
    source = source_cls(registry, split_phases(phases, registry),
                        dataset.x_val, seed=SEED, limit=n)
    admission = AdmissionPolicy(max_queue_depth=QUEUE_DEPTH,
                                max_estimated_wait=None)
    sink = io.StringIO()
    kwargs = dict(policy=MicroBatchPolicy(max_batch=8, max_wait=0.002),
                  pool=pool, admission=admission, journal=EventTrace(sink))
    if variant == "legacy":
        gateway = _LegacyGateway(engine, source, registry, **kwargs)
    else:
        gateway = ServingGateway(engine, source, registry, **kwargs)
    return gateway, source, sink


def run_replay(n: int, variant: str) -> Dict[str, object]:
    gateway, source, sink = _build(n, variant)
    t0 = time.perf_counter()
    result = gateway.run()
    wall = time.perf_counter() - t0
    journal = sink.getvalue()
    return {
        "wall_s": wall,
        "offered": source.total_requests,
        "offered_per_s": source.total_requests / wall,
        "served": len(result.records),
        "shed": len(result.shed),
        "journal_bytes": len(journal),
        "journal_sha256": hashlib.sha256(journal.encode()).hexdigest(),
    }


# --------------------------------------------------------------------------
# Driver + gates.
# --------------------------------------------------------------------------

VARIANTS = (
    ("legacy", "gateway: legacy per-request stack"),
    ("wave", "gateway: current stack, wave admission"),
)


def run(smoke: bool = False) -> Dict:
    n = SMOKE_REQUESTS if smoke else REQUESTS
    results = {variant: run_replay(n, variant) for variant, _ in VARIANTS}
    legacy = results["legacy"]
    wave = results["wave"]
    speedup = legacy["wall_s"] / wave["wall_s"]

    rows = [
        [label, f"{r['offered']:,}", f"{r['wall_s']:.2f}",
         f"{r['offered_per_s']:,.0f}",
         f"{legacy['wall_s'] / r['wall_s']:.2f}x"]
        for variant, label in VARIANTS
        for r in [results[variant]]
    ]

    payload: Dict = {
        "smoke": smoke,
        "requests": n,
        "arrival_rate": ARRIVAL_RATE,
        "queue_depth": QUEUE_DEPTH,
        "variants": {v: {k: r[k] for k in
                         ("wall_s", "offered", "offered_per_s", "served",
                          "shed", "journal_bytes")}
                     for v, r in results.items()},
        "speedup": speedup,
        "journals_identical": len({r["journal_sha256"]
                                   for r in results.values()}) == 1,
    }

    report("gateway_throughput",
           ["variant", "offered", "wall s", "req/s", "speedup"], rows,
           title=f"Gateway throughput: {n:,}-request two-tenant overload "
                 f"replay (@{ARRIVAL_RATE:,.0f} req/s offered, depth "
                 f"{QUEUE_DEPTH}), pre-PR per-request stack vs batched "
                 "wave admission",
           notes="both variants make identical admission decisions and "
                 "write byte-identical journals; equivalence is pinned "
                 "per-fixture by the golden-trace suite")
    path = save_bench_json("gateway_throughput", payload)
    print(f"wrote {os.path.relpath(path, os.getcwd())}")
    return payload


def test_million_request_gateway_speedup():
    """The batched gateway must clear 5x over the pre-PR per-request stack
    on the 1M-request overload replay — while making the exact same
    admission decisions and writing the byte-identical journal."""
    payload = run(smoke=False)
    variants = payload["variants"]
    assert payload["journals_identical"], (
        "legacy / wave journals diverged — the fast "
        "path changed observable behavior, not just wall clock")
    assert len({(v["served"], v["shed"]) for v in variants.values()}) == 1, (
        f"served/shed counts diverged across variants: "
        f"{ {k: (v['served'], v['shed']) for k, v in variants.items()} }")
    assert payload["speedup"] >= 5.0, (
        f"wave admission only {payload['speedup']:.2f}x over the pre-PR "
        f"per-request stack (need >= 5x)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small replay with an absolute req/sec floor")
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)
    if not payload["journals_identical"]:
        print("EQUIVALENCE FAILED: variant journals diverged",
              file=sys.stderr)
        return 1
    if args.smoke:
        rps = payload["variants"]["wave"]["offered_per_s"]
        if rps < SMOKE_FLOOR_RPS:
            print(f"SMOKE FLOOR MISSED: wave path at {rps:,.0f} req/s "
                  f"(floor {SMOKE_FLOOR_RPS:,.0f})", file=sys.stderr)
            return 1
    elif payload["speedup"] < 5.0:
        print(f"WARNING: speedup {payload['speedup']:.2f}x below the 5x "
              "target (noisy machine?)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
