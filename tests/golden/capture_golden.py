"""Capture golden-trace fixtures for the discrete-event runtime refactor.

The runtime refactor (shared ``repro.runtime`` event loop under both the
elastic simulator and the serving router) carries a hard acceptance bar: the
refactored implementations must be **bit-identical** to the pre-refactor
loops on the seed traces.  This script serializes the observable outputs of
:class:`~repro.elastic.simulator.ClusterSimulator` and
:class:`~repro.serving.router.RequestRouter` — every float exactly as
computed, via JSON's shortest-round-trip repr — into ``tests/golden/*.json``.

The committed fixtures were captured from the pre-refactor implementations
(commit 4c4052e).  Re-running the script regenerates them from whatever the
current implementation produces::

    PYTHONPATH=src python tests/golden/capture_golden.py

so regenerate only when an *intentional* behavior change makes the old
fixtures obsolete, and say so in the commit message.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

from repro.elastic import (  # noqa: E402
    ClusterSimulator,
    ElasticWFSScheduler,
    ServingPhase,
    StaticPriorityScheduler,
    generate_trace,
    spike_phases,
    three_job_trace,
)
from repro.chaos import (  # noqa: E402
    CRASH,
    ECCThrottle,
    FailureDomainTopology,
    NETWORK_END,
    NETWORK_START,
    REVIVE,
    STRAGGLER_END,
    STRAGGLER_START,
    ChaosEvent,
    FaultPlan,
    domain_wipe_events,
)
from repro.sched import resident_training_jobs, run_cosched  # noqa: E402
from repro.serving import serve_workload  # noqa: E402
from repro.serving.batcher import AdmissionPolicy  # noqa: E402


def sim_to_dict(result) -> dict:
    """Every observable field of a SimulationResult, floats untouched."""
    return {
        "scheduler_name": result.scheduler_name,
        "total_gpus": result.total_gpus,
        "makespan": result.makespan,
        "utilization": result.utilization(),
        "allocation_history": [
            [t, {str(k): v for k, v in alloc.items()}]
            for t, alloc in result.allocation_history
        ],
        "jobs": {
            str(job_id): {
                "status": state.status.value,
                "gpus": state.gpus,
                "steps_done": state.steps_done,
                "first_alloc_time": state.first_alloc_time,
                "finish_time": state.finish_time,
                "allocation_log": [[t, g] for t, g in state.allocation_log],
                "resizes": state.resizes,
            }
            for job_id, state in result.jobs.items()
        },
    }


def serving_to_dict(report) -> dict:
    """Every observable field of a ServingReport (logits excluded)."""
    out = {
        "duration": report.duration,
        "device_seconds": report.device_seconds,
        "final_devices": report.final_devices,
        "records": [
            {
                "request_id": r.request_id,
                "arrival_time": r.arrival_time,
                "dispatch_time": r.dispatch_time,
                "completion_time": r.completion_time,
                "batch_id": r.batch_id,
                "batch_size": r.batch_size,
                "devices": r.devices,
                "client": r.client,
            }
            for r in report.records
        ],
        "batches": [
            {
                "batch_id": b.batch_id,
                "dispatch_time": b.dispatch_time,
                "completion_time": b.completion_time,
                "size": b.size,
                "devices": b.devices,
                "waves": b.waves,
            }
            for b in report.batches
        ],
        "scaling_events": [list(e) for e in report.scaling_events],
    }
    # Admission-control and tenancy fields are opt-in: the keys appear only
    # when the scenario actually shed, browned out, or ran through the
    # multi-tenant gateway, so the pre-admission and pre-tenancy fixtures
    # stay byte-identical without regeneration.
    if report.shed:
        out["shed"] = [list(s) for s in report.shed]
    if report.brownout_batches:
        out["brownout_batches"] = report.brownout_batches
    if any(r.tenant is not None for r in report.records):
        for entry, r in zip(out["records"], report.records):
            entry["tenant"] = r.tenant
    if report.tenants:
        out["tenants"] = report.tenants
    if report.tenant_shed:
        out["tenant_shed"] = [list(s) for s in report.tenant_shed]
    return out


def cosched_to_dict(report) -> dict:
    """Every observable field of a CoschedReport, floats untouched."""
    return {
        "serving": serving_to_dict(report.serving),
        "duration": report.duration,
        "pool_devices": report.pool_devices,
        "harvests": [list(h) for h in report.harvests],
        "train_device_seconds": {
            str(k): v for k, v in sorted(report.train_device_seconds.items())},
        "jobs": {
            str(job_id): {
                "status": state.status.value,
                "gpus": state.gpus,
                "steps_done": state.steps_done,
                "allocation_log": [[t, g] for t, g in state.allocation_log],
                "resizes": state.resizes,
            }
            for job_id, state in report.jobs.items()
        },
        "chaos": report.chaos,
    }


def chaos_crash_recover() -> dict:
    """A small hand-written crash/recover scenario on a co-scheduled pool.

    Covers every chaos event kind exactly once per side: a training-held
    device crashes and revives (migration recovery), the serving device
    crashes and revives (requeue + re-admission), one straggler window
    derates a training device, and one network window stretches collective
    costs.  Pinned as a golden fixture so the recovery timeline — stalls,
    budget repairs, requeues — stays bit-identical.
    """
    plan = FaultPlan.from_events([
        ChaosEvent(0.40, CRASH, 5),
        ChaosEvent(0.60, CRASH, 0),
        ChaosEvent(0.90, STRAGGLER_START, 3, factor=0.6),
        ChaosEvent(1.10, REVIVE, 0),
        ChaosEvent(1.20, NETWORK_START, factor=3.0),
        ChaosEvent(1.40, STRAGGLER_END, 3),
        ChaosEvent(1.60, REVIVE, 5),
        ChaosEvent(1.70, NETWORK_END),
    ], description="golden crash/recover scenario")
    specs = resident_training_jobs(2, demand_gpus=4)
    return cosched_to_dict(run_cosched(
        "mlp_synthetic", [ServingPhase(2.0, 300.0)], specs,
        pool_devices=6, max_batch=8, max_wait=0.002,
        initial_serving=1, autoscale=True, slo_p99=0.035,
        resize_delay=0.25, seed=2, fault_plan=plan))


def chaos_domain_wipe_recover() -> dict:
    """A correlated rack wipe with load shedding and a revive derate.

    PR 8's failure-domain scenario: a 6-device pool laid out as 3 racks of
    2, serving statically on devices {0, 1}.  Rack 0 — the whole serving
    deployment — is wiped atomically (both crashes at the same timestamp)
    and revived together, so arrivals park during the outage and the
    backlog drains through the shedding admission controller on revive;
    device 0 then runs an ECC derate curve, exercising the DERATE event
    kind, the derate-aware co-scheduler budget, and the brownout admission
    path on the serving lease itself.  The whole wipe/shed/derate/recover
    timeline must replay bit-identical.
    """
    topology = FailureDomainTopology.regular(3, 2)
    events = domain_wipe_events(topology, "rack", 0, 0.5, 1.3)
    events.extend(ECCThrottle(speed=0.7, duration_s=0.6).events(0, 1.4))
    plan = FaultPlan.from_events(
        events, description="golden domain wipe/recover scenario",
        topology=topology, min_healthy=2)
    specs = resident_training_jobs(2, demand_gpus=2)
    admission = AdmissionPolicy(max_queue_depth=24, max_estimated_wait=0.02,
                                brownout=True)
    return cosched_to_dict(run_cosched(
        "mlp_synthetic", [ServingPhase(2.5, 450.0)], specs,
        pool_devices=6, max_batch=8, max_wait=0.002,
        initial_serving=2, autoscale=False,
        resize_delay=0.25, seed=3, fault_plan=plan,
        admission=admission, topology=topology))


def serve_shed_brownout_wave() -> dict:
    """The batched shed path: depth caps and brownout inside single waves.

    A premium tenant and a 3x best-effort flood drive ~5000 rps at one
    serving device, so every admission pull covers dozens of arrivals.  A
    mid-run straggler window derates the serving device with
    ``brownout=True`` armed: outside the window both classes share one
    depth cap (the vectorized depth-only branch of the shed decision),
    inside it the best-effort cap halves (the per-arrival split-limit
    loop), and both regimes shed heavily.  Pinned end to end so both
    branches replay this timeline bit-identically.
    """
    from repro.serving.tenancy import TenantRegistry

    registry = TenantRegistry.from_spec(
        "prem:class=premium,weight=4,quota=300,share=1;"
        "flood:class=best_effort,weight=1,share=3")
    admission = AdmissionPolicy(max_queue_depth=48, max_estimated_wait=None,
                                brownout=True)
    plan = FaultPlan.from_events([
        ChaosEvent(0.25, STRAGGLER_START, 0, factor=0.5),
        ChaosEvent(0.75, STRAGGLER_END, 0),
    ], description="golden brownout wave-shed scenario")
    specs = resident_training_jobs(1, demand_gpus=2)
    return cosched_to_dict(run_cosched(
        "mlp_synthetic", [ServingPhase(1.0, 5000.0)], specs,
        pool_devices=3, max_batch=8, max_wait=0.002,
        initial_serving=1, autoscale=False,
        resize_delay=0.25, seed=11, fault_plan=plan,
        admission=admission, tenants=registry))


def serve_tenants_wfq() -> dict:
    """The multi-tenant gateway under overload, pinned end to end.

    A premium tenant (weight 4, inside a 250 rps quota) and a best-effort
    tenant carrying twice the load share a 2-device pool that cannot absorb
    the offered rate, with load shedding armed: WFQ ordering, token-bucket
    quota decisions, tenant-attributed sheds, and the per-tenant SLO
    digests all replay bit-identically.
    """
    from repro.serving.tenancy import TenantRegistry

    registry = TenantRegistry.from_spec(
        "prem:class=premium,weight=4,quota=250,share=1;"
        "batch:class=best_effort,weight=1,share=2")
    admission = AdmissionPolicy(max_queue_depth=6, max_estimated_wait=0.012)
    return serving_to_dict(serve_workload(
        "mlp_synthetic", [ServingPhase(1.5, 1500.0)],
        max_batch=8, max_wait=0.002, pool_devices=2, seed=5,
        tenants=registry, admission=admission))


# The fixture matrix.  Simulation fixtures cover both schedulers on the
# canonical §6.4.1 trace plus a 20-job Poisson trace (hundreds of events,
# resizes, queueing); serving fixtures cover a fixed mapping and a spiky
# autoscaled run (remaps, §4.1 costs, device-second accounting); the chaos
# fixture pins a crash/recover timeline end to end.
def capture() -> dict:
    fixtures = {}
    trace3 = three_job_trace()
    fixtures["sim_three_job_wfs"] = sim_to_dict(
        ClusterSimulator(4, ElasticWFSScheduler()).run(trace3))
    fixtures["sim_three_job_static"] = sim_to_dict(
        ClusterSimulator(4, StaticPriorityScheduler()).run(trace3))
    trace20 = generate_trace(20, 12, seed=0)
    fixtures["sim_trace20_wfs"] = sim_to_dict(
        ClusterSimulator(8, ElasticWFSScheduler()).run(trace20))

    fixtures["serve_fixed"] = serving_to_dict(serve_workload(
        "mlp_synthetic", [ServingPhase(1.0, 300.0)],
        max_batch=8, max_wait=0.002, pool_devices=4, seed=0))
    fixtures["serve_tenants_wfq"] = serve_tenants_wfq()
    fixtures["serve_shed_brownout_wave"] = serve_shed_brownout_wave()
    fixtures["serve_autoscaled"] = serving_to_dict(serve_workload(
        "mlp_synthetic", spike_phases(400.0, 6.0, 3.0, 1.0),
        max_batch=16, max_wait=0.002, pool_devices=8,
        autoscale=True, slo_p99=0.030, initial_devices=2, seed=1))
    fixtures["cosched_chaos_crash_recover"] = chaos_crash_recover()
    fixtures["cosched_domain_wipe_recover"] = chaos_domain_wipe_recover()
    return fixtures


def main() -> int:
    for name, payload in capture().items():
        path = os.path.join(HERE, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
