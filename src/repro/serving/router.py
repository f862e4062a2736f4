"""The dynamic micro-batching request router.

This is the online serving driver the paper's "each step of training or
inference" clause points at: a discrete-event loop that admits a stream of
single-example requests, coalesces them into micro-batches under a
:class:`~repro.serving.batcher.MicroBatchPolicy`, dispatches each batch
through the shared :class:`~repro.core.inference.InferenceEngine` (one
numeric forward per batch, bit-identical to a one-shot batch of the same
examples), and accounts per-request queueing + service latency on the
simulated clock the engine's validated plan prices.

Elasticity closes the loop: with a :class:`~repro.serving.autoscaler.
LatencyAutoscaler` attached, the router remaps the virtual-node→device
assignment over a device pool after any micro-batch whose completion trips
the scaler — more devices means fewer sequential waves per batch, so the
p99 rides a load spike down without changing a single logit (results are
mapping-invariant by construction).  Remaps are charged the same §4.1
all-gather cost model training resizes pay (parameters to joining devices).

Time model: one serving pipeline — micro-batches execute sequentially, each
taking the bottleneck device's forward waves; arrivals keep queueing while
the pipeline is busy.  All times are simulated seconds.

The router runs as a process on the shared discrete-event runtime
(:mod:`repro.runtime`): admission wakes, batch dispatches, completions, and
rescales are events on the same ``(time, seq)``-ordered queue the elastic
training simulator uses, and the devices the autoscaler steers are held as a
:class:`~repro.runtime.pool.DevicePool` lease — the pool owns the audited
device-second accounting, and a co-scheduler can grow the lease out of a
training job's harvest during a spike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.serving.tenancy import TenantRegistry

import numpy as np

from repro.core.engine import VirtualNodeEngine
from repro.core.inference import InferenceEngine
from repro.core.mapping import Mapping
from repro.core.plan import PlanValidationError
from repro.core.state import migration_time
from repro.core.virtual_node import VirtualNodeSet
from repro.data import make_dataset
from repro.elastic.trace import ServingPhase
from repro.framework.models import Workload, get_workload
from repro.hardware.cluster import Cluster
from repro.hardware.interconnect import DegradedInterconnect
from repro.hardware.perfmodel import PerfModel
from repro.runtime import (
    DeviceLease,
    DevicePool,
    EventTrace,
    Runtime,
    open_trace,
)
from repro.serving.autoscaler import AllocationProfile, LatencyAutoscaler
from repro.serving.batcher import (
    AdmissionPolicy,
    DispatchQueue,
    FifoDispatchQueue,
    MicroBatchPolicy,
)
from repro.serving.generators import (
    ArrivalWave,
    OpenLoopPoissonSource,
    RequestSource,
)
from repro.serving.request import BatchRecord, Request, RequestRecord
from repro.telemetry import percentile

__all__ = ["RequestRouter", "ServingReport", "capacity_table",
           "ladder_capacity", "serve_workload"]


def capacity_table(workload: Workload, vn_set: VirtualNodeSet, pool: Cluster,
                   max_batch: int,
                   perf: Optional[PerfModel] = None,
                   ) -> Dict[int, AllocationProfile]:
    """Model-priced serving profile per allocation size.

    For every prefix of the pool that can hold a validated plan, price one
    *full* micro-batch through the same engine latency query the router's
    dispatches use.  Full batches are the right operating point for both
    numbers: near saturation the queue keeps every dispatch filled, so
    ``capacity_rps`` is the throughput the allocation actually degrades at,
    and ``full_batch_latency`` is the service time a Poisson burst pays
    there.  Allocations whose plan fails validation (a wave no longer fits
    in device memory) are simply absent — the autoscaler never proposes
    them.
    """
    ids = sorted(d.device_id for d in pool.devices)
    profiles: Dict[int, AllocationProfile] = {}
    for k in range(1, min(len(ids), vn_set.num_nodes) + 1):
        try:
            mapping = Mapping.even(vn_set, pool.subset(ids[:k]))
            engine = VirtualNodeEngine(workload, mapping, perf=perf)
        except PlanValidationError:
            continue
        latency, _ = engine.batch_latency(max_batch)
        if latency > 0:
            profiles[k] = AllocationProfile(
                devices=k, capacity_rps=max_batch / latency,
                full_batch_latency=latency)
    return profiles


def ladder_capacity(workload: Workload, vn_set: VirtualNodeSet, pool: Cluster,
                    max_batch: int, start: int,
                    extra_rungs: Sequence[int] = (),
                    ) -> Dict[int, AllocationProfile]:
    """The autoscaler's candidate allocations: a power-of-two ladder.

    Always includes the full pool and the starting allocation.  ~2x
    capacity steps dwarf both the rate-estimator noise and the hysteresis
    band, which is what keeps the scaler from flapping between adjacent
    allocations that straddle the offered load.  Shared by standalone
    serving (:func:`serve_workload`) and co-scheduled serving
    (:func:`repro.sched.cosched.run_cosched`) so the two autoscalers always
    steer over the same rungs; ``extra_rungs`` adds policy-specific
    allocations (the co-scheduler's grantable maximum, which a tenancy
    floor can push off the power-of-two grid).

    Rungs that add no modeled capacity over the next-smaller retained rung
    are dropped: wave quantization makes some device counts equivalent
    (8 virtual nodes run 2 waves on 4 devices *and* on 6), and a candidate
    that cannot serve any faster is never worth escalating to — it would
    only harvest devices for nothing.
    """
    pool_devices = len(pool.devices)
    ladder = {1 << i for i in range(pool_devices.bit_length())}
    ladder |= {pool_devices, start, *extra_rungs}
    profiles = capacity_table(workload, vn_set, pool, max_batch)
    out: Dict[int, AllocationProfile] = {}
    best = 0.0
    for k in sorted(ladder):
        profile = profiles.get(k)
        if profile is not None and profile.capacity_rps > best:
            out[k] = profile
            best = profile.capacity_rps
    return out


@dataclass
class ServingReport:
    """Everything a serving run produced, for SLO metrics and dashboards."""

    records: List[RequestRecord] = field(default_factory=list)
    batches: List[BatchRecord] = field(default_factory=list)
    scaling_events: List[Tuple[float, int, int, float]] = field(default_factory=list)
    device_seconds: float = 0.0
    duration: float = 0.0
    final_devices: int = 0
    # request_id -> logits row, populated only when the router collects them.
    logits: Dict[int, np.ndarray] = field(default_factory=dict)
    # Injected serving-device crashes: (time, device_id, requests requeued).
    failures: List[Tuple[float, int, int]] = field(default_factory=list)
    # Load-shed arrivals: (arrival_time, request_id, reason) — "depth" or
    # "wait".  Empty unless an AdmissionPolicy is armed and tripped.
    shed: List[Tuple[float, int, str]] = field(default_factory=list)
    # Batches dispatched under the halved brownout policy.
    brownout_batches: int = 0
    # Gateway runs only: per-tenant SLO digests keyed by tenant id (see
    # repro.serving.gateway.tenant_report) and tenant-attributed sheds as
    # (arrival_time, request_id, tenant, reason) 4-tuples.  Both stay empty
    # on the single-stream router path.
    tenants: Dict[str, Dict[str, float]] = field(default_factory=dict)
    tenant_shed: List[Tuple[float, int, str, str]] = field(default_factory=list)

    def latencies(self) -> np.ndarray:
        return np.asarray([r.latency for r in self.records], dtype=float)

    def percentile(self, q: float) -> float:
        return percentile(self.latencies(), q)

    def slo_attainment(self, slo: float) -> float:
        """Fraction of requests that met the latency objective."""
        if not self.records:
            raise ValueError("no completed requests")
        lat = self.latencies()
        return float((lat <= slo).mean())

    def throughput(self) -> float:
        """Completed requests per simulated second."""
        return len(self.records) / self.duration if self.duration > 0 else 0.0

    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return float(np.mean([b.size for b in self.batches]))

    def avg_devices(self) -> float:
        """Time-averaged devices held — the cost side of the SLO frontier."""
        return self.device_seconds / self.duration if self.duration > 0 else 0.0

    def shed_rate(self) -> float:
        """Fraction of offered requests shed at the door."""
        offered = len(self.records) + len(self.shed)
        return len(self.shed) / offered if offered else 0.0

    def summary(self, slo_p99: Optional[float] = None) -> Dict[str, float]:
        """A flat JSON-able digest of the run (all-zero for an empty run)."""
        if not self.records:
            out = {
                "requests": 0.0, "batches": 0.0, "duration_s": self.duration,
                "throughput_rps": 0.0, "mean_batch_size": 0.0,
                "latency_p50_ms": 0.0, "latency_p99_ms": 0.0,
                "latency_max_ms": 0.0, "mean_queue_delay_ms": 0.0,
                "mean_service_ms": 0.0, "avg_devices": self.avg_devices(),
                "remaps": float(len(self.scaling_events)),
                "offered": float(len(self.shed)),
                "shed_requests": float(len(self.shed)),
                "shed_rate": self.shed_rate(),
                "brownout_batches": float(self.brownout_batches),
            }
            if slo_p99 is not None:
                out["slo_p99_ms"] = slo_p99 * 1e3
                out["slo_attainment"] = 1.0  # vacuously: nothing was late
                out["meets_slo"] = 1.0
            return out
        lat = self.latencies()
        out = {
            "requests": float(len(self.records)),
            "batches": float(len(self.batches)),
            "duration_s": self.duration,
            "throughput_rps": self.throughput(),
            "mean_batch_size": self.mean_batch_size(),
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_p99_ms": percentile(lat, 99) * 1e3,
            "latency_max_ms": float(lat.max()) * 1e3,
            "mean_queue_delay_ms": float(np.mean([r.queue_delay for r in self.records])) * 1e3,
            "mean_service_ms": float(np.mean([r.service_time for r in self.records])) * 1e3,
            "avg_devices": self.avg_devices(),
            "remaps": float(len(self.scaling_events)),
            "offered": float(len(self.records) + len(self.shed)),
            "shed_requests": float(len(self.shed)),
            "shed_rate": self.shed_rate(),
            "brownout_batches": float(self.brownout_batches),
        }
        if slo_p99 is not None:
            out["slo_p99_ms"] = slo_p99 * 1e3
            out["slo_attainment"] = self.slo_attainment(slo_p99)
            out["meets_slo"] = float(percentile(lat, 99) <= slo_p99)
        return out


class RequestRouter:
    """Admit → coalesce → dispatch → (maybe) rescale, on the shared runtime.

    Parameters
    ----------
    inference:
        The serving engine.  Its current mapping is the starting allocation;
        its virtual-node set is fixed for the run (that is the paper's
        contract — elasticity only ever changes the mapping).
    source:
        Where requests come from (open- or closed-loop).
    policy:
        The ``max_batch`` / ``max_wait`` coalescing contract.
    pool:
        The device pool scaling draws from; required when ``autoscaler`` is
        set.  The engine's devices must be a subset of the pool.
    autoscaler:
        Optional :class:`LatencyAutoscaler`; when None the mapping is fixed.
    admission:
        Optional :class:`AdmissionPolicy`.  When armed, each *new* arrival
        is tested at its arrival time against the queue-depth and
        estimated-wait thresholds and shed (recorded in ``report.shed``,
        never queued) if either trips; with ``brownout`` set the coalescing
        policy halves while the lease's capacity is derated.  Requests
        requeued after a crash were already admitted and bypass shedding.
    collect_logits:
        Keep every request's logits row in the report (tests and small runs;
        off by default to keep big sweeps lean).

    The router is a :class:`~repro.runtime.core.Process`: :meth:`run` spins
    up a private :class:`~repro.runtime.core.Runtime`, while a co-scheduler
    instead :meth:`bind`\\ s the router to a shared runtime/pool and supplies
    a ``governor`` that arbitrates how many devices a rescale may actually
    take (harvesting them from training when the pool is tight).
    """

    def __init__(self, inference: InferenceEngine, source: RequestSource,
                 policy: MicroBatchPolicy = MicroBatchPolicy(),
                 pool: Optional[Cluster] = None,
                 autoscaler: Optional[LatencyAutoscaler] = None,
                 collect_logits: bool = False,
                 name: str = "router",
                 admission: Optional[AdmissionPolicy] = None,
                 dispatch_queue: Optional[DispatchQueue] = None) -> None:
        if autoscaler is not None and pool is None:
            raise ValueError("autoscaling needs a device pool to draw from")
        self.inference = inference
        self.source = source
        self.policy = policy
        self.pool = pool
        self.autoscaler = autoscaler
        self.admission = admission
        self.collect_logits = collect_logits
        self.name = name
        self.report = ServingReport()
        self._cluster = pool if pool is not None else inference.mapping.cluster
        self._runtime: Optional[Runtime] = None
        self._device_pool: Optional[DevicePool] = None
        self._lease: Optional[DeviceLease] = None
        self._governor: Optional[Callable[[float, int], int]] = None
        self._on_rescaled: Optional[Callable[[float], None]] = None
        self._on_drain: Optional[Callable[[float], None]] = None
        self._pending: DispatchQueue = (
            dispatch_queue if dispatch_queue is not None
            else FifoDispatchQueue())
        self._server_free = 0.0
        self._devices = self.devices
        self._batch_id = 0
        self._done = False
        # Chaos wiring (inert until configure_chaos): the head-of-chain
        # events are tracked so an injected crash can cut the single
        # admit→plan→dispatch→complete chain and a retry can splice it back.
        self._conditions = None
        self._chaos_interconnect = None
        self._retry_delay = 0.05
        self._restore_target: Optional[int] = None
        self._halted = False
        # Head-of-chain events are raw integer handles from Runtime.post —
        # the batched path posts straight into the slab, no Event facades.
        self._admit_handle: Optional[int] = None
        self._dispatch_handle: Optional[int] = None
        self._inflight: Optional[Tuple[int, List[Request], int, float]] = None
        # Last observed batch service time — the deterministic basis for the
        # admission controller's wait estimate (0.0 until a batch completes,
        # so a cold router never wait-sheds).
        self._service_estimate = 0.0

    # -- elasticity -----------------------------------------------------------

    @property
    def devices(self) -> int:
        return len(self.inference.mapping.active_devices())

    @property
    def lease(self) -> Optional[DeviceLease]:
        """The router's pool lease (the chaos controller routes crashes by it)."""
        return self._lease

    def configure_chaos(self, conditions, *, retry_delay: float = 0.05,
                        restore_target: Optional[int] = None) -> None:
        """Wire shared degradation state in (called by the chaos installer).

        ``retry_delay`` is the timeout before requeued requests are retried
        after a crash cut their in-flight batch.  ``restore_target`` makes a
        statically-partitioned router re-grow toward its pinned size when
        devices revive; autoscaled routers leave it ``None`` and let the
        autoscaler re-earn capacity from post-failure evidence.
        """
        if retry_delay < 0:
            raise ValueError("retry_delay must be >= 0")
        self._conditions = conditions
        self._retry_delay = retry_delay
        self._restore_target = restore_target
        self._chaos_interconnect = DegradedInterconnect(
            self._cluster.interconnect, conditions)

    def _rescale(self, now: float, target: int) -> Optional[float]:
        """Resize the device lease and remap onto it; return the §4.1 cost.

        The cost model is the same all-gather training resizes pay:
        parameters must reach joining devices, shrinking is free.  Under a
        co-scheduler the ``governor`` may grant fewer devices than the
        autoscaler asked for (the pool floor protects training); a grant
        clipped all the way back to the current allocation is a no-op —
        returns None, no remap, no scaling event.
        """
        vn_set = self.inference.mapping.vn_set
        target = min(target, vn_set.num_nodes)
        if self._governor is not None:
            target = self._governor(now, target)
        if target == self._lease.size:
            return None
        self._device_pool.resize(self._lease, target, now)
        old_mapping = self.inference.mapping
        new_mapping = Mapping.even(
            vn_set, self._cluster.subset(list(self._lease.device_ids)))
        cost = migration_time(
            old_mapping, new_mapping,
            model_bytes=self.inference.workload.footprint.param_bytes,
            state_bytes=0, interconnect=self._chaos_interconnect)
        self.inference.remap(new_mapping)
        if self._on_rescaled is not None:
            self._on_rescaled(now)
        return cost

    # -- runtime wiring -------------------------------------------------------

    def bind(self, runtime: Runtime,
             device_pool: Optional[DevicePool] = None,
             lease: Optional[DeviceLease] = None,
             governor: Optional[Callable[[float, int], int]] = None,
             on_rescaled: Optional[Callable[[float], None]] = None,
             on_drain: Optional[Callable[[float], None]] = None) -> None:
        """Attach the router to a runtime (shared or private).

        ``device_pool``/``lease`` default to a private pool over the
        router's cluster with the engine's current devices leased;
        ``governor`` arbitrates rescale grants and ``on_rescaled`` fires
        synchronously after the lease actually moved (the co-scheduler
        restores the training budget there — the devices a shrink released
        are free by then, and no event can be lost to a runtime stop);
        ``on_drain`` fires once when the source is served dry (a
        co-scheduled run stops there).
        """
        self._runtime = runtime
        if device_pool is None:
            device_pool = DevicePool(
                sorted(d.device_id for d in self._cluster.devices))
        self._device_pool = device_pool
        if lease is None:
            ids = sorted(self.inference.mapping.active_devices())
            lease = device_pool.acquire(self.name, len(ids),
                                        runtime.clock.now, ids=ids)
        self._lease = lease
        self._governor = governor
        self._on_rescaled = on_rescaled
        self._on_drain = on_drain
        self._devices = self.devices
        self._done = False

    def start(self, runtime: Runtime) -> None:
        if self._runtime is not runtime:
            self.bind(runtime)
        self._schedule_next()

    # -- the event loop -------------------------------------------------------

    def run(self,
            trace: Optional[Union[str, EventTrace]] = None) -> ServingReport:
        """Serve the source dry; return the full accounting.

        ``trace`` (a path or an :class:`EventTrace`) journals the event
        timeline as JSONL — the ``--trace-out`` export.

        Each call is a fresh run with fresh accounting (a second call on a
        drained source returns an empty report, as the pre-runtime loop
        did): the report, queue state, and pool binding all reset.
        """
        self.report = ServingReport()
        self._pending.clear()
        self._server_free = 0.0
        self._batch_id = 0
        self._halted = False
        self._admit_handle = None
        self._dispatch_handle = None
        self._inflight = None
        self._service_estimate = 0.0
        self._runtime = None  # force start() to rebind a fresh pool/lease
        with open_trace(trace) as writer:
            runtime = Runtime(trace=writer)
            runtime.add(self)
            runtime.run()
        return self.report

    def _schedule_next(self) -> None:
        """Post the event that produces the next dispatch (or finish)."""
        if self._pending:
            self._plan()
            return
        nxt = self.source.next_arrival_time()
        if nxt is None:
            self._finalize()
            return
        # The wake cannot land before the clock (the server may still be
        # busy past the arrival); the admission cutoff stays the arrival
        # time itself so the batch decision sees exactly the same queue.
        wake = max(nxt, self._runtime.now)
        self._admit_handle = self._runtime.post(
            wake, lambda t, cutoff=nxt: self._on_admit(t, cutoff),
            kind="admit", actor=self.name)

    # -- admission control ----------------------------------------------------

    def _brownout_active(self) -> bool:
        """True while the admission policy's brownout is armed *and* the
        lease's capacity is currently derated below full speed."""
        if (self.admission is None or not self.admission.brownout
                or self._conditions is None or self._lease is None):
            return False
        return self._conditions.bottleneck_speed(self._lease.device_ids) < 1.0

    def _policy_now(self) -> MicroBatchPolicy:
        """The coalescing policy in force: the configured one, or its
        brownout half when the admission policy says so and the lease's
        capacity is currently derated.  Without an admission policy this
        is always the configured object — bit-identical behaviour."""
        if not self._brownout_active():
            return self.policy
        return MicroBatchPolicy(max_batch=max(1, self.policy.max_batch // 2),
                                max_wait=self.policy.max_wait / 2)

    def _record_shed_wave(self, times: Sequence[float], ids: Sequence[int],
                          tenants: Sequence[Optional[str]],
                          reasons: Sequence[str]) -> None:
        """Account a wave's shed arrivals in arrival order (the gateway
        adds tenant accounting and journal lines)."""
        self.report.shed.extend(zip(times, ids, reasons))

    def _enqueue_wave(self, wave: ArrivalWave,
                      bypass: Optional[np.ndarray] = None,
                      halved: Optional[np.ndarray] = None) -> int:
        """Admit one arrival wave: queue survivors, record sheds.

        The one admission decision, for router and gateway alike.  Without
        an admission policy everything queues.  Otherwise arrivals are
        decided in order, each at its own arrival time.  One is shed for
        ``"depth"`` when the queue it would join already holds the depth
        limit, else for ``"wait"`` when the server backlog at its arrival
        plus the queued batches ahead (``depth // max_batch + 1``) times
        the last observed batch service time exceeds the wait limit (never
        before a batch has completed).  ``bypass`` marks arrivals
        admitted unconditionally and ``halved`` marks arrivals facing the
        brownout-halved limits — the gateway's premium-within-quota and
        non-premium classes; the plain router passes neither.

        Only the queue depth changes within a wave (nothing fires between
        two arrivals of one pull), so everything else is read once.  A shed
        arrival never becomes a :class:`Request`.  Crash-requeued requests
        never pass through here — they go back on the queue front directly
        (already admitted).  Returns the shed count.
        """
        policy = self.admission
        if policy is None:
            self._pending.push_wave(wave.build_requests())
            return 0
        depth_limit = policy.max_queue_depth
        wait_limit = policy.max_estimated_wait
        estimate = self._service_estimate
        wait_active = wait_limit is not None and estimate > 0
        depth = len(self._pending)
        if not wait_active and halved is None:
            if depth_limit is None:
                self._pending.push_wave(wave.build_requests())
                return 0
            # Depth only, one limit: the queue only grows within a wave,
            # so a non-bypass arrival at offset j admits iff
            # j < depth_limit - depth (once one sheds, all later ones do).
            admit = np.arange(len(wave)) < depth_limit - depth
            if bypass is not None:
                admit |= bypass
            admitted = np.flatnonzero(admit).tolist()
            shed = np.flatnonzero(~admit)
            shed_t = wave.times[shed].tolist()
            shed = shed.tolist()
            reasons = ["depth"] * len(shed)
        else:
            bypass_l = None if bypass is None else bypass.tolist()
            halved_l = None
            if halved is not None:
                halved_l = halved.tolist()
                half_depth = (None if depth_limit is None
                              else max(1, depth_limit // 2))
                half_wait = None if wait_limit is None else wait_limit / 2
            max_batch = self._policy_now().max_batch if wait_active else 1
            server_free = self._server_free
            admitted, shed, shed_t, reasons = [], [], [], []
            for j, t in enumerate(wave.times.tolist()):
                if bypass_l is None or not bypass_l[j]:
                    if halved_l is not None and halved_l[j]:
                        dl, wl = half_depth, half_wait
                    else:
                        dl, wl = depth_limit, wait_limit
                    reason = None
                    if dl is not None and depth >= dl:
                        reason = "depth"
                    elif wait_active and (
                            max(0.0, server_free - t)
                            + (depth // max_batch + 1) * estimate > wl):
                        reason = "wait"
                    if reason is not None:
                        shed.append(j)
                        shed_t.append(t)
                        reasons.append(reason)
                        continue
                admitted.append(j)
                depth += 1
        if admitted:
            self._pending.push_wave(wave.build_requests(admitted))
        if shed:
            self._record_shed_wave(shed_t, wave.ids(shed), wave.tenants(shed),
                                   reasons)
        return len(shed)

    def _pull(self, until: float) -> int:
        """Move every arrival at or before ``until`` into the queue through
        admission; returns how many were shed."""
        wave = self.source.take_wave(until)
        return 0 if wave is None else self._enqueue_wave(wave)

    def _on_admit(self, t: float, cutoff: float) -> Dict[str, object]:
        self._admit_handle = None
        shed = self._pull(cutoff)
        if self._pending:
            self._plan()
        elif not self._halted:
            # Everything this wake pulled was shed: skip straight to the
            # next arrival instead of planning over an empty queue.
            self._schedule_next()
        out: Dict[str, object] = {"pending": len(self._pending)}
        if shed:
            out["shed"] = shed
        return out

    def _plan(self) -> None:
        """Fix this batch's launch time and post the dispatch event.

        Pulls every arrival that can influence the decision: the batch can
        fill no later than max(deadline, server_free), and requests landing
        while the batch waits for the pipeline still make the dispatch.
        A halted router (every serving device crashed) plans nothing; the
        queue keeps filling and :meth:`on_device_revived` resumes the chain.
        """
        if self._halted:
            return
        policy = self._policy_now()
        deadline = policy.deadline(self._pending.oldest_arrival())
        horizon = max(deadline, self._server_free)
        self._admit(horizon)
        # The clamp to the clock matters only after a crash reset
        # _server_free: every normal plan already launches at or after now.
        launch = max(
            policy.trigger_time(self._pending.arrival_times()),
            self._server_free, self._runtime.now)
        self._admit(launch)
        self._dispatch_handle = self._runtime.post(
            launch, self._dispatch, kind="dispatch", actor=self.name)

    def _dispatch(self, launch: float) -> Dict[str, object]:
        """Coalesce the batch, run it, and post its completion event."""
        self._dispatch_handle = None
        policy = self._policy_now()
        if policy is not self.policy:
            self.report.brownout_batches += 1
        batch = self._pending.take(launch, policy.max_batch)

        result = self.inference.predict_requests([r.example for r in batch])
        latency = result.sim_latency
        if self._conditions is not None and self._conditions.degraded:
            # A straggler in the lease bottlenecks the whole micro-batch.
            latency = self._conditions.serving_latency(
                latency, self._lease.device_ids)
        completion = launch + latency
        batch_id = self._batch_id
        self._batch_id += 1
        handle = self._runtime.post(
            completion,
            lambda t: self._on_completion(t, batch, batch_id, launch, result),
            kind="complete", actor=self.name)
        self._inflight = (handle, batch, batch_id, launch)
        return {"batch_id": batch_id, "size": len(batch),
                "devices": self._devices, "waves": result.waves}

    def _record_completion(self, records: List[RequestRecord]) -> None:
        """Per-batch completion hook (the gateway journals records here)."""

    def _on_completion(self, completion: float, batch: List[Request],
                       batch_id: int, launch: float,
                       result) -> Dict[str, object]:
        self._inflight = None
        report = self.report
        records = [
            RequestRecord(
                request_id=r.request_id,
                arrival_time=r.arrival_time,
                dispatch_time=launch,
                completion_time=completion,
                batch_id=batch_id,
                batch_size=len(batch),
                devices=self._devices,
                client=r.client,
                tenant=r.tenant,
            )
            for r in batch
        ]
        report.records.extend(records)
        self._record_completion(records)
        report.batches.append(BatchRecord(
            batch_id=batch_id, dispatch_time=launch,
            completion_time=completion, size=len(batch),
            devices=self._devices, waves=result.waves))
        if self.collect_logits:
            for i, r in enumerate(batch):
                report.logits[r.request_id] = result.logits[i]
        self._server_free = completion
        self._service_estimate = completion - launch
        self.source.on_completion(records)

        data: Dict[str, object] = {"batch_id": batch_id, "size": len(batch)}
        if self.autoscaler is not None:
            target = self.autoscaler.observe(records, completion, self._devices)
            if target is not None and target != self._devices:
                old = self._devices
                cost = self._rescale(completion, target)
                if cost is not None:
                    report.scaling_events.append(
                        (completion, old, self.devices, cost))
                    self._devices = self.devices
                    self._server_free = completion + cost
                    data["rescale"] = {"from": old, "to": self._devices,
                                       "cost": cost}
        self._schedule_next()
        return data

    # -- chaos reactions ------------------------------------------------------

    def on_device_failed(self, now: float, device_id: int) -> None:
        """React to a crash that force-revoked ``device_id`` from our lease.

        Survivor remap is immediate (a shrink pays no §4.1 cost).  An
        in-flight batch on the crashed pipeline is cancelled and its
        requests requeued at the *front* of the pending queue with their
        original arrival times — the retried requests' tail latency is the
        visible cost of the failure — and a retry event re-enters the
        dispatch chain after ``retry_delay``.  Losing the last device halts
        the router until a revival.
        """
        if self._done:
            return
        requeued = 0
        if self._lease.size == 0:
            self._halted = True
        else:
            self._remap_to_lease(now)
        if self._inflight is not None:
            handle, batch, _batch_id, _launch = self._inflight
            self._runtime.cancel(handle)
            self._inflight = None
            self._pending.requeue(batch)
            requeued = len(batch)
            self._server_free = now  # the crashed pipeline is idle from here
            if not self._halted:
                self._schedule_retry(now)
        elif (self._halted and self._dispatch_handle is not None
                and self._runtime.alive(self._dispatch_handle)):
            self._runtime.cancel(self._dispatch_handle)
            self._dispatch_handle = None
        if self.autoscaler is not None:
            self.autoscaler.on_failure(now)
        self.report.failures.append((now, device_id, requeued))

    def on_device_revived(self, now: float) -> None:
        """React to pool capacity returning after a crash.

        A statically-partitioned router re-grows toward its pinned
        ``restore_target``; a halted router grabs one device to resume at
        all (the autoscaler re-earns the rest from live evidence).
        """
        if self._done or self._lease is None or not self._lease.active:
            return
        target = self._lease.size
        if self._restore_target is not None:
            target = max(target, min(
                self._restore_target,
                self._lease.size + self._device_pool.free_count))
        if self._halted and target == 0 and self._device_pool.free_count > 0:
            target = 1
        if target > self._lease.size:
            self._device_pool.resize(self._lease, target, now)
            self._remap_to_lease(now)
        if self._halted and self._lease.size > 0:
            self._halted = False
            self._server_free = max(self._server_free, now)
            self._schedule_retry(now)

    def _remap_to_lease(self, now: float) -> float:
        """Remap the engine onto exactly the lease's current devices."""
        old_mapping = self.inference.mapping
        new_mapping = Mapping.even(
            old_mapping.vn_set,
            self._cluster.subset(list(self._lease.device_ids)))
        cost = migration_time(
            old_mapping, new_mapping,
            model_bytes=self.inference.workload.footprint.param_bytes,
            state_bytes=0, interconnect=self._chaos_interconnect)
        self.inference.remap(new_mapping)
        old = self._devices
        self._devices = self.devices
        self.report.scaling_events.append((now, old, self._devices, cost))
        if cost > 0:
            self._server_free = max(self._server_free, now + cost)
        if self._on_rescaled is not None:
            self._on_rescaled(now)
        return cost

    def _schedule_retry(self, now: float) -> None:
        self._runtime.at(now + self._retry_delay, self._on_retry,
                         kind="retry", actor=self.name)

    def _on_retry(self, t: float) -> Dict[str, object]:
        """Splice the dispatch chain back together after a crash cut it."""
        if self._halted:
            return {"halted": True}
        if (self._inflight is not None
                or (self._dispatch_handle is not None
                    and self._runtime.alive(self._dispatch_handle))):
            return {"resumed": False}  # the chain is already live again
        if self._pending:
            if (self._admit_handle is not None
                    and self._runtime.alive(self._admit_handle)):
                # _plan's own admission pulls anything the cancelled admit
                # event would have; the next _schedule_next re-posts one.
                self._runtime.cancel(self._admit_handle)
                self._admit_handle = None
            self._plan()
        elif (self._admit_handle is None
                or not self._runtime.alive(self._admit_handle)):
            self._schedule_next()
        return {"pending": len(self._pending)}

    def _finalize(self) -> None:
        if self._done:
            return
        self._done = True
        self.report.duration = self._server_free
        self._device_pool.settle(self._server_free)
        self.report.device_seconds = self._lease.device_seconds
        self.report.final_devices = self._devices
        if self._on_drain is not None:
            self._on_drain(self._server_free)

    def _admit(self, until: float) -> None:
        """Move every arrival at or before ``until`` into the queue."""
        max_batch = self._policy_now().max_batch
        while True:
            nxt = self.source.next_arrival_time()
            if nxt is None or nxt > until:
                return
            if len(self._pending) >= max_batch:
                # The decision this pull serves is already settled; later
                # arrivals queue behind it on their own event.
                return
            self._pull(nxt)


def serve_workload(workload_name: str, phases: Sequence[ServingPhase], *,
                   max_batch: int = 8, max_wait: float = 0.002,
                   pool_devices: int = 4, device_type: str = "V100",
                   virtual_nodes: Optional[int] = None,
                   initial_devices: Optional[int] = None,
                   autoscale: bool = False, slo_p99: Optional[float] = None,
                   min_devices: int = 1, cooldown: float = 0.25,
                   backend: object = "fused", seed: int = 0,
                   limit: Optional[int] = None,
                   source: Optional[RequestSource] = None,
                   collect_logits: bool = False,
                   trace: Optional[Union[str, EventTrace]] = None,
                   admission: Optional[AdmissionPolicy] = None,
                   tenants: Optional["TenantRegistry"] = None,
                   journal: Optional[Union[str, EventTrace]] = None,
                   dispatcher: str = "wfq",
                   ) -> ServingReport:
    """Build and run a complete serving session for a registered workload.

    The one-stop entry point the CLI and the SLO benchmark share: constructs
    the workload model, a virtual-node set sized to the device pool, an
    open-loop Poisson source over ``phases`` (or any explicit ``source``),
    and a router — autoscaled over the pool when ``autoscale`` is set,
    pinned to ``initial_devices`` otherwise.

    With a ``tenants`` registry the session runs through the multi-tenant
    :class:`~repro.serving.gateway.ServingGateway` instead: the phase trace
    splits into per-tenant Poisson streams by the registry's load shares
    (unless an explicit, already-tagged ``source`` is supplied), dispatch
    follows the ``dispatcher`` policy (``"wfq"``/``"fifo"``), and
    ``journal`` optionally records the durable per-request JSONL journal
    ``repro audit`` replays.
    """
    if pool_devices < 1:
        raise ValueError(f"pool_devices must be >= 1, got {pool_devices}")
    workload = get_workload(workload_name)
    num_vns = virtual_nodes if virtual_nodes is not None else pool_devices
    if num_vns < pool_devices:
        raise ValueError(
            f"virtual_nodes ({num_vns}) must be >= pool_devices "
            f"({pool_devices}) so the full pool can be used")
    if autoscale and slo_p99 is None:
        raise ValueError("autoscaling needs a p99 SLO to steer by")

    pool = Cluster.homogeneous(device_type, pool_devices)
    pool_ids = sorted(d.device_id for d in pool.devices)
    start = initial_devices if initial_devices is not None else (
        min_devices if autoscale else pool_devices)
    if not 1 <= start <= pool_devices:
        raise ValueError(
            f"initial_devices must be in [1, {pool_devices}], got {start}")

    # One virtual node per batch slot is not needed: the set only fixes the
    # shard *proportions* (equal here), so V nodes of size 1 serve any
    # micro-batch size.
    vn_set = VirtualNodeSet.even(num_vns, num_vns)
    mapping = Mapping.even(vn_set, pool.subset(pool_ids[:start]))
    inference = InferenceEngine(workload, workload.build_model(seed), mapping,
                                backend=backend)

    if tenants is None and journal is not None:
        raise ValueError("a request journal needs a tenant registry")
    if source is None:
        dataset = make_dataset(workload.dataset, n=512, seed=seed)
        if tenants is not None:
            # Imported lazily: the gateway module builds on this one.
            from repro.serving.gateway import MultiTenantPoissonSource
            from repro.serving.tenancy import split_phases
            source = MultiTenantPoissonSource(
                tenants, split_phases(phases, tenants), dataset.x_val,
                seed=seed, limit=limit)
        else:
            source = OpenLoopPoissonSource(phases, dataset.x_val, seed=seed,
                                           limit=limit)
    autoscaler = None
    if autoscale:
        autoscaler = LatencyAutoscaler(
            slo_p99=slo_p99,
            capacity=ladder_capacity(workload, vn_set, pool, max_batch, start),
            min_devices=min_devices,
            max_devices=min(pool_devices, num_vns), cooldown=cooldown)
    policy = MicroBatchPolicy(max_batch=max_batch, max_wait=max_wait)
    if tenants is not None:
        from repro.serving.gateway import ServingGateway
        router: RequestRouter = ServingGateway(
            inference, source, tenants, policy=policy, pool=pool,
            autoscaler=autoscaler, collect_logits=collect_logits,
            admission=admission, dispatcher=dispatcher, journal=journal)
    else:
        router = RequestRouter(
            inference, source, policy=policy, pool=pool,
            autoscaler=autoscaler, collect_logits=collect_logits,
            admission=admission)
    return router.run(trace=trace)
