"""The micro-batching policy: when does a waiting queue become a batch?

Dynamic batching trades latency for throughput: a fuller batch amortizes the
per-wave fixed cost (the perf model's ``alpha``), but every admitted request
waits for the batch to launch.  :class:`MicroBatchPolicy` is the standard
``max_batch`` / ``max_wait`` contract used by production serving layers:

* launch as soon as ``max_batch`` requests are queued, and
* never hold the oldest request longer than ``max_wait`` seconds,
* but never launch before the (single) serving pipeline is free.

The policy object is pure arithmetic over arrival times — the router owns
the event loop and the interaction with the request source.

:class:`AdmissionPolicy` is the overload half of the contract: when a
domain wipe or a spike drives the queue past what the surviving capacity
can serve inside the latency budget, the router sheds *new* arrivals at the
door (queue-depth and estimated-wait thresholds) instead of admitting work
that is already doomed to blow its SLO — and optionally **brownouts**
(halves ``max_batch`` and ``max_wait``) while capacity is derated, trading
batch efficiency for tail latency on the requests it did admit.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.serving.request import Request
    from repro.serving.tenancy import TenantRegistry

__all__ = ["AdmissionPolicy", "DispatchQueue", "FifoDispatchQueue",
           "MicroBatchPolicy", "WFQDispatchQueue"]


@dataclass(frozen=True)
class MicroBatchPolicy:
    """The ``max_batch`` / ``max_wait`` coalescing contract."""

    max_batch: int = 8
    max_wait: float = 0.002  # seconds

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if not math.isfinite(self.max_wait) or self.max_wait < 0:
            raise ValueError(
                f"max_wait must be finite and >= 0, got {self.max_wait}")

    def deadline(self, first_arrival: float) -> float:
        """Latest launch time the oldest queued request tolerates."""
        return first_arrival + self.max_wait

    def trigger_time(self, arrivals: Sequence[float]) -> float:
        """When a queue with the given arrival times triggers a launch.

        ``arrivals`` are the known queued arrival times in FCFS order (the
        router has already pulled every arrival that could affect this
        decision).  The batch fills at the ``max_batch``-th arrival; an
        underfull queue launches at the oldest request's deadline.
        """
        if not arrivals:
            raise ValueError("cannot compute a trigger time for an empty queue")
        if len(arrivals) >= self.max_batch:
            return arrivals[self.max_batch - 1]
        return self.deadline(arrivals[0])


@dataclass(frozen=True)
class AdmissionPolicy:
    """Load-shedding thresholds evaluated at each request's arrival.

    A new arrival is **shed** (rejected at the door, never queued) when
    either threshold trips:

    * ``max_queue_depth`` — the router already holds that many admitted,
      undispatched requests.  The router's coalescing pull itself stops
      filling the queue at ``max_batch``, so in practice a depth threshold
      trips when set *below* the batch size — it polices the coalescing
      queue, while the wait gate polices the total backlog;
    * ``max_estimated_wait`` — the deterministic wait estimate (current
      server backlog plus queued-batches-ahead times the last observed
      batch service time) exceeds this many seconds.  Until the first
      batch completes the estimate is zero, so a cold router never
      wait-sheds.

    Requests re-queued after a device failure were already admitted and are
    **never** shed — shedding is an admission decision, not an eviction.

    ``brownout`` additionally halves the router's ``max_batch``/``max_wait``
    whenever the serving lease's capacity is derated below 1.0, so admitted
    requests see smaller, sooner batches while the hardware runs slow.
    """

    max_queue_depth: Optional[int] = None
    max_estimated_wait: Optional[float] = None
    brownout: bool = False

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        wait = self.max_estimated_wait
        if wait is not None and not (math.isfinite(wait) and wait > 0):
            raise ValueError(
                f"max_estimated_wait must be finite and positive, got {wait}")
        if (self.max_queue_depth is None and self.max_estimated_wait is None
                and not self.brownout):
            raise ValueError("an admission policy needs at least one "
                             "threshold (or brownout)")


class DispatchQueue:
    """The router's pending-request queue, as an ordering policy.

    The router admits requests, asks the queue which arrivals are pending
    (:meth:`oldest_arrival` / :meth:`arrival_times` feed the coalescing
    policy's trigger computation), and drains a micro-batch with
    :meth:`take`.  Two implementations: :class:`FifoDispatchQueue`
    reproduces the original single-stream deque bit-for-bit, and
    :class:`WFQDispatchQueue` orders dispatch by weighted-fair virtual-time
    finish tags so a flooding tenant cannot starve the others.

    Crash-requeued requests re-enter via :meth:`requeue` and are served
    strictly first in their original batch order under *both* policies —
    they were already admitted and dispatched once; fairness applies to
    admission order, not to crash recovery.
    """

    def push(self, request: "Request") -> None:
        raise NotImplementedError

    def extend(self, requests: Sequence["Request"]) -> None:
        for r in requests:
            self.push(r)

    def push_wave(self, requests: Sequence["Request"]) -> None:
        """Queue a whole admitted wave at once.

        Semantically identical to pushing each request in order; queue
        implementations override this to batch the bookkeeping (the WFQ
        queue computes the wave's finish tags vectorized and restores the
        heap invariant once instead of per push).
        """
        self.extend(requests)

    def requeue(self, batch: Sequence["Request"]) -> None:
        raise NotImplementedError

    def take(self, launch: float, max_batch: int) -> List["Request"]:
        """Drain up to ``max_batch`` requests that arrived by ``launch``."""
        raise NotImplementedError

    def oldest_arrival(self) -> float:
        """The earliest queued arrival time (the deadline anchor)."""
        raise NotImplementedError

    def arrival_times(self) -> List[float]:
        """All queued arrival times, ascending (the trigger-time input)."""
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0


class FifoDispatchQueue(DispatchQueue):
    """Strict arrival-order dispatch — the pre-tenancy router behaviour.

    A thin wrapper over a deque: arrivals append, crash requeues prepend,
    and :meth:`take` pops from the head while the head arrived by the
    launch time.  Because both the source and the requeue path keep the
    deque sorted by arrival time, stopping at the first too-late head is
    exhaustive.
    """

    def __init__(self) -> None:
        self._queue: Deque["Request"] = deque()

    def push(self, request: "Request") -> None:
        self._queue.append(request)

    def extend(self, requests: Sequence["Request"]) -> None:
        self._queue.extend(requests)

    def requeue(self, batch: Sequence["Request"]) -> None:
        for r in reversed(batch):
            self._queue.appendleft(r)

    def take(self, launch: float, max_batch: int) -> List["Request"]:
        batch: List["Request"] = []
        while (self._queue and len(batch) < max_batch
               and self._queue[0].arrival_time <= launch):
            batch.append(self._queue.popleft())
        return batch

    def oldest_arrival(self) -> float:
        return self._queue[0].arrival_time

    def arrival_times(self) -> List[float]:
        return [r.arrival_time for r in self._queue]

    def clear(self) -> None:
        self._queue.clear()

    def __len__(self) -> int:
        return len(self._queue)


class WFQDispatchQueue(DispatchQueue):
    """Weighted fair queueing over tenants, via virtual-time finish tags.

    Start-time fair queueing (SFQ): a request from tenant *i* gets
    ``start = max(vtime, last_finish[i])`` and
    ``finish = start + 1/weight_i``; dispatch drains in ascending
    ``(finish, seq)`` order, and ``vtime`` advances to the start tag of the
    last dispatched request.  While two tenants are both backlogged, tenant
    *i* receives ``weight_i / sum(weights)`` of the dispatch slots; an idle
    tenant banks nothing (its next start tag snaps up to ``vtime``).

    Determinism and the single-tenant identity: tags are pure arithmetic
    over arrival order, ties break on the push sequence number, and with
    one tenant every finish tag exceeds the previous one — so tag order
    *is* arrival order and the dispatch stream is bit-identical to
    :class:`FifoDispatchQueue`.  That identity is pinned by the golden
    trace suite.

    ``registry`` supplies per-tenant weights; requests from unregistered
    tenants (and untagged requests, ``tenant=None``) share a default
    weight-1.0 flow.
    """

    def __init__(self, registry: Optional["TenantRegistry"] = None) -> None:
        self._weights: Dict[Optional[str], float] = {}
        if registry is not None:
            for spec in registry:
                self._weights[spec.tenant_id] = spec.weight
        # (finish, seq, start, request) — heapq orders by finish then seq.
        self._heap: List[Tuple[float, int, float, "Request"]] = []
        self._front: Deque["Request"] = deque()
        self._vtime = 0.0
        self._last_finish: Dict[Optional[str], float] = {}
        self._seq = 0

    def push(self, request: "Request") -> None:
        weight = self._weights.get(request.tenant, 1.0)
        start = max(self._vtime, self._last_finish.get(request.tenant, 0.0))
        finish = start + 1.0 / weight
        self._last_finish[request.tenant] = finish
        heapq.heappush(self._heap, (finish, self._seq, start, request))
        self._seq += 1

    def push_wave(self, requests: Sequence["Request"]) -> None:
        """Push a whole admitted wave with one tag pass per tenant.

        Within one wave a tenant's finish tags follow the pure recurrence
        ``f_j = f_{j-1} + 1/weight`` seeded at ``max(vtime, last_finish)``
        (``vtime`` only moves on dispatch), so the wave's tags per tenant
        are one scalar seed plus a ``cumsum`` — the same left-fold float
        adds :meth:`push` performs, hence bit-identical tags.  Sequence
        numbers are assigned in wave order across tenants, and the heap
        invariant is restored once (heapify) when that is cheaper than
        per-entry pushes; pop order is unaffected either way because
        ``(finish, seq)`` keys are unique.
        """
        n = len(requests)
        if n < 16:
            for r in requests:
                self.push(r)
            return
        groups: Dict[Optional[str], List[int]] = {}
        for j, r in enumerate(requests):
            group = groups.get(r.tenant)
            if group is None:
                groups[r.tenant] = [j]
            else:
                group.append(j)
        seq0 = self._seq
        vtime = self._vtime
        heap = self._heap
        entries: List[Tuple[float, int, float, "Request"]] = []
        for tenant, positions in groups.items():
            k = len(positions)
            inv = 1.0 / self._weights.get(tenant, 1.0)
            s0 = max(vtime, self._last_finish.get(tenant, 0.0))
            incs = np.full(k, inv)
            incs[0] = s0 + inv
            finishes = np.cumsum(incs)
            starts = np.empty(k)
            starts[0] = s0
            if k > 1:
                np.maximum(vtime, finishes[:-1], out=starts[1:])
            self._last_finish[tenant] = float(finishes[-1])
            entries.extend(
                zip(finishes.tolist(),
                    (seq0 + j for j in positions),
                    starts.tolist(),
                    (requests[j] for j in positions)))
        self._seq = seq0 + n
        # Pick the cheaper way to restore the heap invariant; the popped
        # order is identical either way (all keys are distinct).
        if 2 * (len(heap) + n) < n * max(1.0, math.log2(len(heap) + n)):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            for entry in entries:
                heapq.heappush(heap, entry)

    def requeue(self, batch: Sequence["Request"]) -> None:
        for r in reversed(batch):
            self._front.appendleft(r)

    def take(self, launch: float, max_batch: int) -> List["Request"]:
        batch: List["Request"] = []
        while (self._front and len(batch) < max_batch
               and self._front[0].arrival_time <= launch):
            batch.append(self._front.popleft())
        skipped: List[Tuple[float, int, float, "Request"]] = []
        while self._heap and len(batch) < max_batch:
            entry = heapq.heappop(self._heap)
            if entry[3].arrival_time <= launch:
                batch.append(entry[3])
                self._vtime = max(self._vtime, entry[2])
            else:
                # Not yet arrived at this launch time: keep its tags so it
                # rejoins the heap at exactly the same rank.
                skipped.append(entry)
        for entry in skipped:
            heapq.heappush(self._heap, entry)
        return batch

    def oldest_arrival(self) -> float:
        if not self._front and not self._heap:
            raise IndexError("oldest_arrival on an empty queue")
        candidates = []
        if self._front:
            candidates.append(self._front[0].arrival_time)
        if self._heap:
            candidates.append(min(e[3].arrival_time for e in self._heap))
        return min(candidates)

    def arrival_times(self) -> List[float]:
        times = [r.arrival_time for r in self._front]
        times.extend(e[3].arrival_time for e in self._heap)
        times.sort()
        return times

    def clear(self) -> None:
        self._heap.clear()
        self._front.clear()
        self._vtime = 0.0
        self._last_finish.clear()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._front) + len(self._heap)
