"""Event-core throughput: legacy heap loop vs calendar queue + slab + batching.

The discrete-event core is the substrate every simulated result in this repo
runs on, and at serving rates a single experiment is millions of events.
This benchmark measures the core the way the router actually drives it — a
1M-request open-loop Poisson replay with periodic admission/telemetry ticks
— and prices the rewrite against the **pre-PR core embedded verbatim below**
(pure-Python ``Event`` objects on a ``heapq``, one scalar action call per
event, O(n) ``__len__``), driven in pre-PR idiom: a ``push`` loop to post,
``percentile()`` re-sorting the latency window at every tick.

The current core runs the same workload as **fast / calendar** —
``post_many`` arrival waves, a ``batch_action`` arrival handler receiving
whole same-kind runs as numpy arrays, the calendar-queue scheduler, and
:class:`~repro.telemetry.StreamingHistogram` telemetry (O(1) insert,
O(bins) quantile) — and also times the fig11/12-style 20-job **elastic
trace** end to end.

Both sides fire the identical ``(time, seq)`` event sequence — equivalence
is pinned by the event-queue tests under ``tests/runtime/`` and the
golden-trace suite; this file is purely about wall clock.  Results persist as
``results/runtime_throughput.txt`` and ``results/BENCH_runtime_throughput
.json``.  ``--smoke`` runs a small replay with an absolute events/sec floor
(CI breakage + gross-regression detection).
"""

from __future__ import annotations

import argparse
import heapq
import os
import sys
import time
from collections import deque
from typing import Dict, List

import numpy as np

from _common import report, save_bench_json
from repro.elastic import ElasticWFSScheduler, generate_trace
from repro.elastic.simulator import TrainingClusterProcess
from repro.runtime import DevicePool, Runtime, batch_action
from repro.telemetry import StreamingHistogram, percentile

# Replay geometry: ~20k req/s for ~50 simulated seconds, ticks frequent
# enough that telemetry queries interleave with arrival runs.
REQUESTS = 1_000_000
ARRIVAL_RATE = 20_000.0
TICK_EVERY = 0.05
WINDOW = 512            # latency observations the legacy tick re-sorts

SMOKE_REQUESTS = 20_000
# Absolute floor for the fast path in --smoke: generous against machine
# noise (the fast path clears it by well over an order of magnitude), tight
# enough that falling back to per-event dispatch would trip it.
SMOKE_FLOOR_EPS = 200_000.0


# --------------------------------------------------------------------------
# The pre-PR event core, embedded verbatim (sans docstrings/trace wiring) so
# the baseline cannot silently inherit later optimizations.
# --------------------------------------------------------------------------

class _LegacyEvent:
    __slots__ = ("time", "seq", "kind", "actor", "action", "_alive")

    def __init__(self, time, seq, kind, actor, action):
        self.time = time
        self.seq = seq
        self.kind = kind
        self.actor = actor
        self.action = action
        self._alive = True

    @property
    def alive(self):
        return self._alive

    def cancel(self):
        self._alive = False

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class _LegacyEventQueue:
    def __init__(self):
        self._heap: List[_LegacyEvent] = []
        self._seq = 0

    def __len__(self):
        return sum(1 for e in self._heap if e.alive)

    def push(self, time, action, *, kind="event", actor="runtime"):
        if time != time or time in (float("inf"), float("-inf")):
            raise ValueError(f"event time must be finite, got {time!r}")
        event = _LegacyEvent(time, self._seq, kind, actor, action)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def peek(self):
        while self._heap and not self._heap[0].alive:
            heapq.heappop(self._heap)
        return self._heap[0] if self._heap else None

    def pop(self):
        event = self.peek()
        if event is not None:
            heapq.heappop(self._heap)
        return event


class _LegacyRuntime:
    def __init__(self):
        self._now = 0.0
        self.queue = _LegacyEventQueue()
        self._stopped = False
        self.events_processed = 0

    @property
    def now(self):
        return self._now

    def at(self, time, action, *, kind="event", actor="runtime"):
        return self.queue.push(time, action, kind=kind, actor=actor)

    def after(self, delay, action, *, kind="event", actor="runtime"):
        return self.queue.push(self._now + delay, action, kind=kind,
                               actor=actor)

    def run(self, until=None):
        processed = 0
        while not self._stopped:
            event = self.queue.peek()
            if event is None or (until is not None and event.time > until):
                break
            self.queue.pop()
            if event.time < self._now:
                raise RuntimeError("clock cannot run backwards")
            self._now = event.time
            event.action(event.time)
            processed += 1
            self.events_processed += 1
        return processed


# --------------------------------------------------------------------------
# The serving replay, pre-PR idiom vs current idiom.
# --------------------------------------------------------------------------

def _arrival_times(n: int, rate: float, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def _latencies(n: int, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.lognormal(mean=-4.0, sigma=0.6, size=n)


def run_legacy_replay(times: np.ndarray, lats: np.ndarray,
                      tick_every: float) -> Dict[str, float]:
    """Pre-PR idiom: scalar push loop, per-event dispatch, re-sort per tick."""
    rt = _LegacyRuntime()
    window: deque = deque(maxlen=WINDOW)
    state = {"i": 0, "p99": 0.0}
    lat_list = lats.tolist()

    def on_arrival(t: float) -> None:
        i = state["i"]
        state["i"] = i + 1
        window.append(lat_list[i])

    def on_tick(t: float) -> None:
        if window:
            state["p99"] = percentile(list(window), 99)
        if state["i"] < len(lat_list):
            rt.after(tick_every, on_tick, kind="tick", actor="scaler")

    for t in times.tolist():
        rt.at(t, on_arrival, kind="arrival", actor="source")
    rt.after(tick_every, on_tick, kind="tick", actor="scaler")
    t0 = time.perf_counter()
    processed = rt.run()
    wall = time.perf_counter() - t0
    return {"events": processed, "wall_s": wall,
            "events_per_s": processed / wall, "p99": state["p99"]}


def run_fast_replay(times: np.ndarray, lats: np.ndarray,
                    tick_every: float) -> Dict[str, float]:
    """Current idiom: one post_many wave, batched dispatch, streaming p99."""
    rt = Runtime()
    hist = StreamingHistogram()
    state = {"i": 0, "p99": 0.0}

    @batch_action
    def on_arrivals(fire_times: np.ndarray) -> None:
        i = state["i"]
        state["i"] = i + len(fire_times)
        hist.observe_many(lats[i:state["i"]])

    def on_tick(t: float) -> None:
        if len(hist):
            state["p99"] = hist.percentile(99)
        if state["i"] < len(lats):
            rt.after(tick_every, on_tick, kind="tick", actor="scaler")

    rt.post_many(times, on_arrivals, kind="arrival", actor="source")
    rt.after(tick_every, on_tick, kind="tick", actor="scaler")
    t0 = time.perf_counter()
    processed = rt.run()
    wall = time.perf_counter() - t0
    return {"events": processed, "wall_s": wall,
            "events_per_s": processed / wall, "p99": state["p99"]}


# --------------------------------------------------------------------------
# The 20-job elastic trace, end to end.
# --------------------------------------------------------------------------

def run_elastic_trace(jobs: int) -> Dict[str, float]:
    specs = generate_trace(jobs, 12.0, seed=0)
    process = TrainingClusterProcess(
        specs, ElasticWFSScheduler(), gpu_budget=8, pool=DevicePool(8))
    runtime = Runtime()
    t0 = time.perf_counter()
    runtime.add(process)
    runtime.run()
    wall = time.perf_counter() - t0
    result = process.result(total_gpus=8)
    return {"wall_s": wall, "events": runtime.events_processed,
            "events_per_s": runtime.events_processed / wall,
            "makespan": result.makespan}


# --------------------------------------------------------------------------
# Driver + gates.
# --------------------------------------------------------------------------

def run(smoke: bool = False) -> Dict:
    n = SMOKE_REQUESTS if smoke else REQUESTS
    times = _arrival_times(n, ARRIVAL_RATE)
    lats = _latencies(n)

    fast_cal = run_fast_replay(times, lats, TICK_EVERY)
    legacy = run_legacy_replay(times, lats, TICK_EVERY)
    speedup = legacy["wall_s"] / fast_cal["wall_s"]

    rows = [
        ["replay: legacy heap core", f"{legacy['events']:,}",
         f"{legacy['wall_s']:.2f}", f"{legacy['events_per_s']:,.0f}", "1.00x"],
        ["replay: fast path, calendar", f"{fast_cal['events']:,}",
         f"{fast_cal['wall_s']:.2f}", f"{fast_cal['events_per_s']:,.0f}",
         f"{speedup:.2f}x"],
    ]

    payload: Dict = {
        "smoke": smoke,
        "requests": n,
        "arrival_rate": ARRIVAL_RATE,
        "replay": {
            "legacy_heap": legacy,
            "fast_calendar": fast_cal,
        },
        "speedup": speedup,
    }

    if not smoke:
        elastic = run_elastic_trace(20)
        rows.append(["elastic 20 jobs: calendar", f"{elastic['events']:,}",
                     f"{elastic['wall_s']:.2f}",
                     f"{elastic['events_per_s']:,.0f}", "-"])
        payload["elastic"] = {"calendar": elastic}

    report("runtime_throughput",
           ["workload", "events", "wall s", "events/s", "speedup"], rows,
           title=f"Event-core throughput: {n:,}-request open-loop replay "
                 f"(@{ARRIVAL_RATE:,.0f} req/s) + telemetry ticks, "
                 "legacy core vs calendar/slab/batched core",
           notes="both cores fire the identical (time, seq) event "
                 "sequence; equivalence is pinned by the golden-trace and "
                 "event-queue suites")
    path = save_bench_json("runtime_throughput", payload)
    print(f"wrote {os.path.relpath(path, os.getcwd())}")
    return payload


def test_million_request_replay_speedup():
    """The rewritten core must clear 5x over the pre-PR heap loop and
    finish the 1M-request replay in single-digit seconds."""
    payload = run(smoke=False)
    fast = payload["replay"]["fast_calendar"]
    assert payload["speedup"] >= 5.0, (
        f"calendar/slab/batched core only {payload['speedup']:.2f}x over "
        f"the legacy heap loop (need >= 5x)")
    assert fast["wall_s"] < 10.0, (
        f"1M-request replay took {fast['wall_s']:.2f}s (need single-digit)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small replay with an absolute events/sec floor")
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)
    if args.smoke:
        eps = payload["replay"]["fast_calendar"]["events_per_s"]
        if eps < SMOKE_FLOOR_EPS:
            print(f"SMOKE FLOOR MISSED: fast path at {eps:,.0f} events/s "
                  f"(floor {SMOKE_FLOOR_EPS:,.0f})", file=sys.stderr)
            return 1
    elif payload["speedup"] < 5.0:
        print(f"WARNING: speedup {payload['speedup']:.2f}x below the 5x "
              "target (noisy machine?)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
