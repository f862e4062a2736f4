"""Request generators: how load arrives at the serving router.

Two canonical load models from the serving literature:

* **open loop** (:class:`OpenLoopPoissonSource`) — arrivals follow a Poisson
  process whose rate is a piecewise-constant function of time
  (:class:`~repro.elastic.trace.ServingPhase` segments).  Arrivals are
  independent of completions, so an overloaded server builds a real queue —
  this is the model that exposes latency cliffs and is what the SLO
  benchmarks sweep.
* **closed loop** (:class:`ClosedLoopSource`) — a fixed population of
  clients, each with at most one outstanding request; a client thinks for an
  exponential delay after each completion, then issues its next request.
  Load self-limits at the service rate, which is why closed-loop numbers
  alone can hide overload behavior.

Both draw request payloads by cycling the rows of an example bank in a fixed
order, so a serving run is fully reproducible from (trace, seed, bank).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.elastic.trace import ServingPhase, serving_arrival_times
from repro.serving.request import Request, RequestRecord
from repro.utils.seeding import derive_rng

__all__ = ["ArrivalWave", "RequestSource", "OpenLoopPoissonSource",
           "ClosedLoopSource"]

_CLOSED_LOOP_DOMAIN = 0x7C


@dataclass
class ArrivalWave:
    """One admission wave as parallel arrays — no per-request objects.

    The router's admission consumes arrivals the way the event core
    consumes event runs: ``times`` is the ascending arrival-time array,
    request ids are ``first_id + j``, and the payload row for wave offset
    ``j`` is ``bank.row(first_cursor + j)`` — materialized only for the
    requests that survive admission, which is the whole point: a shed
    arrival never becomes a :class:`Request`.

    ``tenant_idx``/``tenant_table`` carry tenancy without per-request
    strings: offset ``j`` belongs to ``tenant_table[tenant_idx[j]]``.
    ``tenant_idx=None`` means every request in the wave belongs to
    ``tenant_table[0]`` (single-stream sources use ``[None]``).

    A source that builds its requests itself (closed-loop clients, or any
    custom :meth:`RequestSource.take_arrivals`) wraps them with
    :meth:`of_requests`; ``requests`` then holds them and materializing an
    offset returns the prebuilt object.
    """

    times: np.ndarray
    first_id: int
    bank: Optional["_ExampleBank"]
    first_cursor: int
    tenant_idx: Optional[np.ndarray] = None
    tenant_table: Sequence[Optional[str]] = (None,)
    requests: Optional[List[Request]] = None

    @classmethod
    def of_requests(cls, requests: List[Request]) -> "ArrivalWave":
        """A wave over already-built requests, in arrival order."""
        table = tuple(dict.fromkeys(r.tenant for r in requests))
        idx = None
        if len(table) > 1:
            pos = {tenant: k for k, tenant in enumerate(table)}
            idx = np.array([pos[r.tenant] for r in requests], dtype=np.int64)
        return cls(times=np.array([r.arrival_time for r in requests],
                                  dtype=np.float64),
                   first_id=requests[0].request_id, bank=None,
                   first_cursor=0, tenant_idx=idx, tenant_table=table,
                   requests=requests)

    def __len__(self) -> int:
        return len(self.times)

    def tenants(self, offsets: Sequence[int]) -> List[Optional[str]]:
        """The tenant of each offset in ``offsets``."""
        table = self.tenant_table
        if self.tenant_idx is None:
            return [table[0]] * len(offsets)
        return [table[k] for k in self.tenant_idx[offsets].tolist()]

    def ids(self, offsets: Sequence[int]) -> List[int]:
        """The request id of each offset in ``offsets``."""
        if self.requests is not None:
            return [self.requests[j].request_id for j in offsets]
        first = self.first_id
        return [first + j for j in offsets]

    def build_requests(self, offsets: Optional[Sequence[int]] = None,
                       ) -> List[Request]:
        """Materialize the requests at ``offsets`` (default: all), in order.

        Admission calls this for the arrivals it keeps only.
        """
        if self.requests is not None:
            if offsets is None:
                return list(self.requests)
            return [self.requests[j] for j in offsets]
        times = self.times.tolist()
        if offsets is None:
            offsets = range(len(times))
        first, cursor, row = self.first_id, self.first_cursor, self.bank.row
        if self.tenant_idx is None:
            tenant = self.tenant_table[0]
            return [Request(request_id=first + j, arrival_time=times[j],
                            example=row(cursor + j), tenant=tenant)
                    for j in offsets]
        table = self.tenant_table
        idx = self.tenant_idx.tolist()
        return [Request(request_id=first + j, arrival_time=times[j],
                        example=row(cursor + j), tenant=table[idx[j]])
                for j in offsets]


class RequestSource(ABC):
    """The router's view of incoming load.

    The router is a discrete-event loop: it peeks the next arrival time to
    decide whether waiting (for a fuller micro-batch) is worthwhile, admits
    arrivals up to a clock value, and notifies the source of completions so
    closed-loop clients can schedule their next request.
    """

    @abstractmethod
    def next_arrival_time(self) -> Optional[float]:
        """Arrival time of the next pending request, or None when drained."""

    @abstractmethod
    def take_arrivals(self, until: float) -> List[Request]:
        """Pop every request arriving at or before ``until``, in order."""

    def take_wave(self, until: float) -> Optional[ArrivalWave]:
        """Pop every request at or before ``until`` as a wave (None if none).

        The router admits arrivals only through waves.  This default wraps
        :meth:`take_arrivals` (closed-loop populations, custom subclasses);
        array-backed sources override it to skip building the requests
        admission sheds.  Either way a wave consumes exactly the arrivals
        (and example-bank rows) the equivalent :meth:`take_arrivals` call
        would have.
        """
        requests = self.take_arrivals(until)
        return ArrivalWave.of_requests(requests) if requests else None

    def on_completion(self, records: Sequence[RequestRecord]) -> None:
        """Hook: a micro-batch completed (closed-loop sources react here)."""


class _ExampleBank:
    """Cycles the rows of a fixed example array in canonical order."""

    def __init__(self, examples: np.ndarray) -> None:
        if len(examples) == 0:
            raise ValueError("the example bank needs at least one row")
        self._examples = examples
        self._cursor = 0

    def next_example(self) -> np.ndarray:
        row = self._examples[self._cursor % len(self._examples)]
        self._cursor += 1
        return row

    @property
    def cursor(self) -> int:
        return self._cursor

    def row(self, position: int) -> np.ndarray:
        """The row ``next_example`` returns at absolute ``position``."""
        return self._examples[position % len(self._examples)]

    def advance(self, n: int) -> None:
        """Consume ``n`` rows in bulk (the wave path's cursor bump)."""
        self._cursor += n


class OpenLoopPoissonSource(RequestSource):
    """Poisson arrivals over :class:`ServingPhase` segments, then silence."""

    def __init__(self, phases: Sequence[ServingPhase], examples: np.ndarray,
                 seed: int = 0, limit: Optional[int] = None) -> None:
        self._times = serving_arrival_times(phases, seed=seed, limit=limit)
        self._bank = _ExampleBank(examples)
        self._next = 0

    @property
    def total_requests(self) -> int:
        return len(self._times)

    def next_arrival_time(self) -> Optional[float]:
        if self._next >= len(self._times):
            return None
        return float(self._times[self._next])

    def take_arrivals(self, until: float) -> List[Request]:
        # Vectorized cut: one searchsorted replaces the per-request compare
        # loop (admit waves at high rates are thousands of requests).  The
        # arrival array is sorted, so the cut index equals where the old
        # loop stopped, and float(...) of the same element is bit-identical.
        end = int(self._times.searchsorted(until, side="right"))
        if end <= self._next:
            return []
        bank = self._bank
        out = [Request(request_id=i, arrival_time=t,
                       example=bank.next_example())
               for i, t in enumerate(
                   self._times[self._next:end].tolist(), start=self._next)]
        self._next = end
        return out

    def take_wave(self, until: float) -> Optional[ArrivalWave]:
        if type(self).take_arrivals is not OpenLoopPoissonSource.take_arrivals:
            return super().take_wave(until)  # custom arrival semantics
        end = int(self._times.searchsorted(until, side="right"))
        start = self._next
        if end <= start:
            return None
        wave = ArrivalWave(times=self._times[start:end], first_id=start,
                           bank=self._bank, first_cursor=self._bank.cursor)
        self._next = end
        self._bank.advance(end - start)
        return wave


class ClosedLoopSource(RequestSource):
    """A fixed client population with one outstanding request per client."""

    def __init__(self, num_clients: int, requests_per_client: int,
                 examples: np.ndarray, think_time: float = 0.01,
                 seed: int = 0) -> None:
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        if requests_per_client < 1:
            raise ValueError(
                f"requests_per_client must be >= 1, got {requests_per_client}")
        if think_time < 0:
            raise ValueError(f"think_time must be >= 0, got {think_time}")
        self._bank = _ExampleBank(examples)
        self._think = think_time
        self._rng = derive_rng(seed, _CLOSED_LOOP_DOMAIN)
        self._remaining = {c: requests_per_client - 1 for c in range(num_clients)}
        self._next_id = 0
        # (issue_time, client) min-heap; every client thinks once before its
        # first request so arrivals do not all land at t=0.
        self._issues: List[tuple] = [
            (self._think_delay(), c) for c in range(num_clients)
        ]
        heapq.heapify(self._issues)

    def _think_delay(self) -> float:
        if self._think == 0:
            return 0.0
        return float(self._rng.exponential(self._think))

    def next_arrival_time(self) -> Optional[float]:
        if not self._issues:
            return None
        return self._issues[0][0]

    def take_arrivals(self, until: float) -> List[Request]:
        out: List[Request] = []
        while self._issues and self._issues[0][0] <= until:
            issue_time, client = heapq.heappop(self._issues)
            out.append(Request(
                request_id=self._next_id,
                arrival_time=issue_time,
                example=self._bank.next_example(),
                client=client,
            ))
            self._next_id += 1
        return out

    def on_completion(self, records: Sequence[RequestRecord]) -> None:
        for record in records:
            if record.client is None:
                continue
            if self._remaining.get(record.client, 0) > 0:
                self._remaining[record.client] -= 1
                heapq.heappush(self._issues, (
                    record.completion_time + self._think_delay(), record.client))
