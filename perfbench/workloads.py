"""The four benchmark workloads.

Each workload turns a seed into inputs (``build``), runs the program on
them once (``run``, timing only the program's own calls inside the
runner's ``timer``) and checks what came out.  ``setup`` is the fixed cost
a user pays before any load: building the inputs and running a session of
the same configuration on a handful of requests (or constructing the
trainer).  Only semantic parameters are passed to the program; every host
strategy (backend, event queue, admission path, parameter arena) is left at
the default users get.

A run returns an :class:`Outcome`: how many operations were attempted and
completed (requests offered and served, or training samples), the
simulated end-to-end figures, per-layer counts read off the report, and a
digest of everything the run produced.  The digest must be identical on
every repeat of the same inputs, traced or not.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro import TrainerConfig, VirtualFlowTrainer
from repro.chaos import ECCThrottle, FailureDomainTopology, random_plan
from repro.core import RecoveryPolicy
from repro.data import make_dataset
from repro.elastic.trace import ServingPhase
from repro.framework import get_workload
from repro.sched import resident_training_jobs, run_cosched
from repro.serving import (
    MultiTenantPoissonSource,
    OpenLoopPoissonSource,
    TenantRegistry,
    TenantSpec,
    audit_journal,
    serve_workload,
)
from repro.serving.batcher import AdmissionPolicy
from repro.serving.tenancy import split_phases

SERVE_MODEL = "mlp_synthetic"
TRAIN_MODEL = "resnet56_cifar10"
EXAMPLES = 512            # request payload bank drawn from the dataset
SETUP_REQUESTS = 64       # size of the set-up session


class CheckFailed(Exception):
    """A correctness check on the program's output failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    attempted: int
    completed: int
    sim: Dict[str, float]          # simulated end-to-end figures
    info: Dict[str, float]         # simulated figures printed, not bounded
    counts: Dict[str, float]       # per-layer counts read off the report
    digest: str


@dataclass
class Workload:
    name: str
    build: Callable[[int], dict]
    run: Callable[[dict, str, object], Outcome]
    setup: Callable[[int, str], None]
    notes: List[str] = field(default_factory=list)


# -- digests -------------------------------------------------------------------


class Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def floats(self, values: Sequence[float]) -> None:
        self._h.update(np.asarray(values, dtype=np.float64).tobytes())

    def ints(self, values: Sequence[int]) -> None:
        self._h.update(np.asarray(values, dtype=np.int64).tobytes())

    def text(self, value: object) -> None:
        self._h.update(repr(value).encode())

    def raw(self, data: bytes) -> None:
        self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _serving_digest(digest: Digest, report) -> None:
    records = report.records
    digest.ints([r.request_id for r in records])
    digest.floats([r.arrival_time for r in records])
    digest.floats([r.completion_time for r in records])
    digest.text([(t, i, reason) for t, i, reason in report.shed])
    digest.text(report.tenant_shed)


def _serving_checks(report, offered: int) -> None:
    served, shed = len(report.records), len(report.shed)
    check(served + shed == offered,
          f"offered {offered} != served {served} + shed {shed}")
    ids = np.sort(np.asarray([r.request_id for r in report.records]
                             + [i for _, i, _ in report.shed], dtype=np.int64))
    check(np.array_equal(ids, np.arange(offered)),
          "served and shed request ids do not partition the offered ids")


def _check_premium_quota(report, registry: TenantRegistry) -> None:
    """No premium request that its tenant's quota covered was shed.

    Replays a fresh token bucket over the tenant's arrivals in arrival
    order (the gateway meters every arrival, shed or not).
    """
    for spec in registry:
        bucket = spec.bucket()
        if not spec.premium or bucket is None:
            continue
        arrivals = sorted(
            [(r.arrival_time, r.request_id, False) for r in report.records
             if r.tenant == spec.tenant_id]
            + [(t, i, True) for t, i, tenant, _ in report.tenant_shed
               if tenant == spec.tenant_id])
        for t, request_id, shed in arrivals:
            in_quota = bucket.take(t)
            check(not (shed and in_quota),
                  f"in-quota premium request {request_id} was shed")


def _serving_counts(report, offered: int) -> Dict[str, float]:
    admitted = offered - len(report.shed)
    records = report.records
    return {
        "serving.router.admitted": admitted,
        "serving.router.shed": len(report.shed),
        "serving.router.admit_ratio": admitted / offered,
        "serving.router.dispatches": len(report.batches),
        "serving.router.requeued": sum(f[2] for f in report.failures),
        "serving.batcher.batch_size_mean": report.mean_batch_size(),
        "serving.batcher.sim_wait_ms_mean": (
            1e3 * float(np.mean([r.queue_delay for r in records]))
            if records else 0.0),
        "serving.autoscaler.rescales": len(report.scaling_events),
    }


def _serving_sim(report, offered: int, slo_of: Callable[[object], float]
                 ) -> Dict[str, float]:
    lat = np.asarray([r.latency for r in report.records], dtype=float)
    slo = np.asarray([slo_of(r) for r in report.records], dtype=float)
    served = len(report.records)
    return {
        "sim_completed_per_s": served / report.duration,
        "served_fraction": served / offered,
        "slo_attainment": float((lat <= slo).sum()) / offered,
    }


def _latency_info(report, offered: int) -> Dict[str, float]:
    lat = np.asarray([r.latency for r in report.records], dtype=float)
    return {
        "sim_latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "sim_latency_p99_ms": float(np.percentile(lat, 99)) * 1e3,
        "shed_fraction": len(report.shed) / offered,
    }


# -- gateway workloads (serve_steady, serve_overload) --------------------------


def _gateway_workload(name: str, *, registry: TenantRegistry,
                      phases: Sequence[ServingPhase], serve_kwargs: dict,
                      notes: Sequence[str]) -> Workload:
    """A two-tenant gateway run with a request journal in ``workdir``."""

    def build(seed: int) -> dict:
        examples = make_dataset(get_workload(SERVE_MODEL).dataset,
                                n=EXAMPLES, seed=seed).x_val
        return {"seed": seed, "examples": examples}

    def source(inputs: dict, limit=None) -> MultiTenantPoissonSource:
        return MultiTenantPoissonSource(
            registry, split_phases(phases, registry), inputs["examples"],
            seed=inputs["seed"], limit=limit)

    def serve(inputs: dict, src, journal: str):
        return serve_workload(SERVE_MODEL, phases, seed=inputs["seed"],
                              source=src, tenants=registry, journal=journal,
                              **serve_kwargs)

    def run(inputs: dict, workdir: str, timer) -> Outcome:
        journal = os.path.join(workdir, f"{name}.jsonl")
        with timer:
            src = source(inputs)
            report = serve(inputs, src, journal)
        offered = src.total_requests
        _serving_checks(report, offered)
        audit = audit_journal(journal)
        check(audit["tenants"] == report.tenants,
              "journal audit does not reproduce the live per-tenant report")
        check(audit["requests"] == len(report.records)
              and audit["shed"] == len(report.shed),
              "journal audit counts differ from the live report")
        _check_premium_quota(report, registry)
        with open(journal, "rb") as fh:
            journal_bytes = fh.read()
        digest = Digest()
        _serving_digest(digest, report)
        digest.raw(journal_bytes)
        counts = _serving_counts(report, offered)
        counts["runtime.trace.lines"] = journal_bytes.count(b"\n")
        counts["runtime.trace.bytes"] = len(journal_bytes)
        return Outcome(
            attempted=offered, completed=len(report.records),
            sim=_serving_sim(report, offered,
                             lambda r: registry[r.tenant].slo),
            info=_latency_info(report, offered), counts=counts,
            digest=digest.hexdigest())

    def setup(seed: int, workdir: str) -> None:
        inputs = build(seed)
        serve(inputs, source(inputs, limit=SETUP_REQUESTS),
              os.path.join(workdir, f"{name}-setup.jsonl"))

    return Workload(name, build, run, setup, list(notes))


def _cycles(n: int, base: float, spike: float, base_s: float,
            spike_s: float) -> List[ServingPhase]:
    phases: List[ServingPhase] = []
    for _ in range(n):
        phases += [ServingPhase(base_s, base), ServingPhase(spike_s, spike)]
    return phases


SERVE_STEADY = _gateway_workload(
    "serve_steady",
    registry=TenantRegistry([
        TenantSpec("prem", "premium", weight=4.0, quota_rps=2000.0,
                   share=1.0),
        TenantSpec("be", "best_effort", weight=1.0, share=2.0),
    ]),
    # Three base/spike cycles; the 4000 req/s spikes stay well inside what
    # the 8-device pool serves, so almost nothing is shed.
    phases=_cycles(3, base=1500.0, spike=4000.0, base_s=1.0, spike_s=0.5),
    serve_kwargs=dict(max_batch=16, max_wait=0.002, pool_devices=8,
                      autoscale=True, slo_p99=0.035),
    notes=["mlp_synthetic on an 8xV100 pool, autoscaled to a 35 ms p99",
           "prem: premium, weight 4, 2000 req/s quota, 1/3 of the load",
           "be: best effort, weight 1, 2/3 of the load",
           "3 cycles of 1.0 s at 1500 req/s then 0.5 s at 4000 req/s"],
)

SERVE_OVERLOAD = _gateway_workload(
    "serve_overload",
    registry=TenantRegistry([
        TenantSpec("prem", "premium", weight=8.0, quota_rps=300.0,
                   share=250.0),
        TenantSpec("flood", "best_effort", weight=1.0, share=50000.0),
    ]),
    phases=[ServingPhase(1.0, 50250.0)],
    serve_kwargs=dict(max_batch=8, max_wait=0.002, pool_devices=1,
                      admission=AdmissionPolicy(max_queue_depth=64)),
    notes=["mlp_synthetic on one fixed V100 (about 3.6k req/s), no autoscaler",
           "prem: premium, weight 8, 250 req/s inside a 300 req/s quota",
           "flood: best effort at 50k req/s for 1 s",
           "admission sheds past a queue depth of 64"],
)


# -- cosched_chaos ---------------------------------------------------------------

COSCHED_PHASES = _cycles(12, base=1000.0, spike=4000.0, base_s=1.0,
                         spike_s=0.5)
COSCHED_SLO = 0.035
COSCHED_POOL = 8
COSCHED_TOPOLOGY = "racks=2x4"


def _cosched_build(seed: int) -> dict:
    topology = FailureDomainTopology.from_spec(COSCHED_TOPOLOGY)
    duration = sum(p.duration for p in COSCHED_PHASES)
    plan = random_plan(
        seed=seed, duration=duration, devices=COSCHED_POOL,
        crash_rate=0.3, mttr=1.0,
        straggler_rate=0.3, straggler_factor=0.8, straggler_duration=0.5,
        network_rate=0.3,
        derate_rate=0.2, derate_curve=ECCThrottle(speed=0.85, duration_s=0.5),
        min_healthy=3, topology=topology)
    examples = make_dataset(get_workload(SERVE_MODEL).dataset, n=EXAMPLES,
                            seed=seed).x_val
    return {"seed": seed, "plan": plan, "topology": topology,
            "examples": examples}


def _cosched(inputs: dict, source: OpenLoopPoissonSource):
    return run_cosched(
        SERVE_MODEL, COSCHED_PHASES, resident_training_jobs(2, demand_gpus=4),
        pool_devices=COSCHED_POOL, max_batch=16, max_wait=0.002,
        initial_serving=2, autoscale=True, slo_p99=COSCHED_SLO, train_floor=2,
        resize_delay=0.25, seed=inputs["seed"], source=source,
        fault_plan=inputs["plan"], recovery=RecoveryPolicy(mode="migrate"),
        topology=inputs["topology"],
        admission=AdmissionPolicy(max_estimated_wait=0.025, brownout=True))


def _cosched_run(inputs: dict, workdir: str, timer) -> Outcome:
    with timer:
        src = OpenLoopPoissonSource(COSCHED_PHASES, inputs["examples"],
                                    seed=inputs["seed"])
        report = _cosched(inputs, src)
    offered = src.total_requests
    serving = report.serving
    _serving_checks(serving, offered)
    busy = serving.device_seconds + sum(report.train_device_seconds.values())
    check(busy <= report.pool_devices * report.duration * (1 + 1e-9),
          f"busy device-seconds {busy} exceed the pool's capacity")
    check(report.train_steps > 0, "co-scheduled training made no progress")
    digest = Digest()
    _serving_digest(digest, serving)
    digest.floats([job.steps_done for _, job in sorted(report.jobs.items())])
    digest.text(report.harvests)
    digest.text(report.chaos["events"] if report.chaos else None)
    counts = _serving_counts(serving, offered)
    counts["sched.cosched.harvests"] = len(report.harvests)
    info = _latency_info(serving, offered)
    info["train_goodput_sps"] = report.train_goodput()
    info["chaos_events"] = len(inputs["plan"])
    return Outcome(
        attempted=offered, completed=len(serving.records),
        sim=_serving_sim(serving, offered, lambda r: COSCHED_SLO),
        info=info, counts=counts, digest=digest.hexdigest())


def _cosched_setup(seed: int, workdir: str) -> None:
    inputs = _cosched_build(seed)
    _cosched(inputs, OpenLoopPoissonSource(
        COSCHED_PHASES, inputs["examples"], seed=seed,
        limit=SETUP_REQUESTS))


COSCHED_CHAOS = Workload(
    "cosched_chaos",
    _cosched_build, _cosched_run, _cosched_setup,
    ["mlp_synthetic RequestRouter (no gateway) sharing an 8xV100 pool, "
     "2 racks of 4, with two resident ResNet-56 jobs (4 GPUs each)",
     "12 cycles of 1.0 s at 1000 req/s then 0.5 s at 4000 req/s",
     "autoscaled to a 35 ms p99, training floor 2 devices",
     "fault plan from the seed: crashes 0.3/s (MTTR 1 s), stragglers "
     "0.3/s (0.8x, 0.5 s), network windows 0.3/s, ECC derates 0.2/s "
     "(0.85x, 0.5 s); migrate recovery",
     "admission sheds past a 25 ms estimated wait, brownout on"])


# -- train_elastic ---------------------------------------------------------------

TRAIN_DATASET = 640       # 512 training examples: 8 steps of 64 per epoch
TRAIN_EPOCHS = (2, 2)     # epochs on 4 devices, then on 2


def _train_build(seed: int) -> dict:
    return {"config": TrainerConfig(
        workload=TRAIN_MODEL, global_batch_size=64, num_virtual_nodes=16,
        device_type="V100", num_devices=4, dataset_size=TRAIN_DATASET,
        seed=seed)}


def _train_run(inputs: dict, workdir: str, timer) -> Outcome:
    losses: List[float] = []
    step_times: List[float] = []

    def on_step(result) -> None:
        losses.append(result.loss)
        step_times.append(result.sim_step_time)

    before, after = TRAIN_EPOCHS
    with timer:
        trainer = VirtualFlowTrainer(inputs["config"])
        for _ in range(before):
            trainer.train_epoch(on_step=on_step)
        trainer.resize(2)
        for _ in range(after):
            trainer.train_epoch(on_step=on_step)
    history = trainer.history
    steps = trainer.loader.steps_per_epoch * (before + after)
    check(len(losses) == steps, f"{len(losses)} steps run, {steps} expected")
    check(all(math.isfinite(v) for v in losses), "non-finite training loss")
    check(len(trainer.mapping.active_devices()) == 2,
          "the resize to 2 devices did not take")
    samples = steps * trainer.config.global_batch_size
    digest = Digest()
    digest.floats(losses)
    for name, value in sorted(trainer.executor.model.parameters().items()):
        digest.text(name)
        digest.raw(np.ascontiguousarray(value).tobytes())
    digest.floats([(e.val_loss, e.val_accuracy) for e in history])
    return Outcome(
        attempted=samples, completed=samples,
        sim={"sim_completed_per_s": samples / trainer.sim_time,
             "served_fraction": 1.0, "slo_attainment": 1.0},
        info={"sim_step_p50_ms": float(np.percentile(step_times, 50)) * 1e3,
              "sim_step_p99_ms": float(np.percentile(step_times, 99)) * 1e3,
              "final_train_loss": history[-1].train_loss,
              "val_accuracy": history[-1].val_accuracy},
        counts={}, digest=digest.hexdigest())


def _train_setup(seed: int, workdir: str) -> None:
    VirtualFlowTrainer(_train_build(seed)["config"])


TRAIN_ELASTIC = Workload(
    "train_elastic",
    _train_build, _train_run, _train_setup,
    ["resnet56_cifar10, global batch 64 over 16 virtual nodes",
     "640-example dataset (512 train): 8 steps per epoch",
     "2 epochs on 4 V100s, resize to 2, 2 more epochs"])


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (SERVE_STEADY, SERVE_OVERLOAD, COSCHED_CHAOS,
                        TRAIN_ELASTIC)
}
