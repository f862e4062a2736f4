"""Telemetry: per-step training records, latency histograms, and export.

A :class:`TelemetryRecorder` attaches to the trainer's ``on_step``/
``on_epoch`` callbacks and accumulates a structured record stream.  The
recorder is purely observational — it never affects training — and its
output is what a downstream user would feed into dashboards or regression
checks.

:class:`LatencyHistogram` is the serving-side counterpart: a streaming
accumulator of per-request latencies with percentile queries (p50/p99 are
what SLOs are written against) and an optional sliding window, which is what
the serving autoscaler watches to decide when to remap.  Its percentiles
are exact; a windowed histogram keeps its window sorted incrementally, so
no query ever re-sorts.  :class:`StreamingHistogram` is the approximate
sibling for million-request runs: fixed log-spaced bins give O(1) insert
and O(bins) quantiles with a bounded relative error, trading exactness for
a footprint independent of the observation count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from bisect import bisect_left, insort
from collections import deque
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.executor import StepResult
from repro.core.trainer import EpochResult

__all__ = [
    "LatencyHistogram",
    "StreamingHistogram",
    "TelemetryRecorder",
    "StepRecord",
    "percentile",
    "summary_stats",
]


@dataclass(frozen=True)
class StepRecord:
    """One training step's observables."""

    step: int
    loss: float
    grad_norm: float
    examples: int
    sim_step_time: float
    throughput: float  # examples per simulated second


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of a series (linear interpolation)."""
    if len(values) == 0:
        raise ValueError("no values to take a percentile of")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def summary_stats(values: List[float]) -> Dict[str, float]:
    """Mean / std / min / max / p50 / p95 / p99 of a series."""
    if not values:
        raise ValueError("no values to summarize")
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
    }


def _rejection(value: float) -> str:
    if value < 0:
        return f"latencies cannot be negative, got {value}"
    return f"latencies must be finite, got {value}"


def _checked(values: Iterable[float]) -> List[float]:
    """``values`` as plain floats, rejecting negative and non-finite ones.

    NaN passes a bare ``< 0`` test, and one NaN would silently corrupt an
    ordered window (it compares false both ways), so the test is the
    single chained ``0 <= v < inf``, false for NaN and both infinities.
    """
    if isinstance(values, np.ndarray):
        out = values.astype(float, copy=False).ravel().tolist()
    else:
        out = [float(v) for v in values]
    for v in out:
        if not 0.0 <= v < math.inf:
            raise ValueError(_rejection(v))
    return out


def _sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """``np.percentile(ordered, q)`` of an ascending sequence, bit for bit.

    A scalar replica of numpy's default ``linear`` method: the same virtual
    index ``(n - 1) * (q / 100)``, the same clamp to the last element at or
    past ``n - 1``, and the same two-sided lerp (``b - (b - a) * (1 - t)``
    from ``t >= 0.5`` on), so every result rounds exactly as numpy's does
    — without building an array per query.
    """
    if not 0 <= q <= 100:
        raise ValueError("Percentiles must be in the range [0, 100]")
    n = len(ordered)
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        return ordered[-1]
    lo = math.floor(virtual)
    t = virtual - lo
    a = ordered[lo]
    b = ordered[lo + 1]
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


class LatencyHistogram:
    """Streaming latency accumulator with exact percentile queries.

    ``window=None`` keeps every observation (whole-run reports); a positive
    ``window`` keeps only the most recent N (the autoscaler's view of "how is
    the service doing *right now*").  Values are seconds by convention and
    must be finite and non-negative.

    A windowed histogram keeps its window sorted incrementally next to the
    insertion-order FIFO: each insert evicts the oldest value by bisection
    and bisects the new one in, so a query never sorts.  The autoscaler
    observes and queries on every micro-batch completion, where a fresh
    sort per query was the dominant telemetry cost.  An unbounded
    histogram sorts lazily instead, once per batch of queries over
    unchanged data.  Both answer through :func:`_sorted_percentile`, which
    is bit-identical to ``np.percentile`` over the same values.
    """

    def __init__(self, window: Optional[int] = None) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._values: deque = deque(maxlen=window)
        # Ascending copy of _values: always current for a window, rebuilt
        # on demand (None when stale) without one.
        self._sorted: Optional[List[float]] = [] if window else None

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        values = _checked(values)
        window = self.window
        fifo = self._values
        if window is None:
            fifo.extend(values)
            self._sorted = None
        elif len(values) >= window:
            # Only the newest `window` values survive: rebuild outright.
            fifo.clear()
            fifo.extend(values[-window:])
            self._sorted = sorted(fifo)
        else:
            ordered = self._sorted
            for v in values:
                if len(fifo) == window:
                    del ordered[bisect_left(ordered, fifo[0])]
                fifo.append(v)
                insort(ordered, v)

    def __len__(self) -> int:
        return len(self._values)

    def clear(self) -> None:
        self._values.clear()
        self._sorted = [] if self.window else None

    def _view(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._values)
        return self._sorted

    def percentile(self, q: float) -> float:
        if not self._values:
            raise ValueError("no values to take a percentile of")
        return _sorted_percentile(self._view(), q)

    def stats(self) -> Dict[str, float]:
        """The :func:`summary_stats` of the (windowed) observations."""
        if not self._values:
            raise ValueError("no values to summarize")
        # mean/std run over the insertion order on purpose: numpy's
        # pairwise summation is order-sensitive in the last ulp, and these
        # figures are pinned bit-exactly by the golden fixtures.
        raw = np.asarray(self._values, dtype=float)
        view = self._view()
        return {
            "mean": float(raw.mean()),
            "std": float(raw.std()),
            "min": view[0],
            "max": view[-1],
            "p50": _sorted_percentile(view, 50),
            "p95": _sorted_percentile(view, 95),
            "p99": _sorted_percentile(view, 99),
            "count": float(len(self._values)),
        }


class StreamingHistogram:
    """Fixed-bin log-bucket histogram: O(1) insert, O(bins) quantiles.

    The approximate companion to :class:`LatencyHistogram` for runs where
    holding (or sorting) every observation is the bottleneck: values are
    counted into log-spaced bins covering ``[min_value, max_value)``, so
    memory is a fixed few-KB array regardless of how many observations
    stream through, inserts are a bincount add, and a quantile walks the
    cumulative counts once.  With ``bins_per_decade=128`` adjacent bin
    edges are a factor of ``10**(1/128) ≈ 1.018`` apart, bounding the
    relative quantile error at ~2% — well inside the noise of a p99 SLO
    check, which is what the serving benchmark uses it for.

    Zero (or anything under ``min_value``) lands in an underflow
    bin pinned at ``min_value``; values beyond ``max_value`` clamp to the
    last bin; negative and non-finite values are rejected.  Exact
    min/max/sum are tracked on the side so ``mean``, ``min`` and ``max``
    stay exact; only interior quantiles are binned.
    """

    def __init__(self, *, bins_per_decade: int = 128,
                 min_value: float = 1e-6, max_value: float = 1e4) -> None:
        if bins_per_decade < 1:
            raise ValueError(
                f"bins_per_decade must be >= 1, got {bins_per_decade}")
        if not (0 < min_value < max_value):
            raise ValueError("need 0 < min_value < max_value")
        self.bins_per_decade = bins_per_decade
        self.min_value = min_value
        self.max_value = max_value
        decades = math.log10(max_value / min_value)
        self._nbins = int(math.ceil(decades * bins_per_decade)) + 1
        self._counts = np.zeros(self._nbins, dtype=np.int64)
        self._scale = bins_per_decade / math.log(10.0)
        self._log_min = math.log(min_value)
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def _edges(self, idx: np.ndarray) -> np.ndarray:
        """Lower value edge of each bin index."""
        return np.exp(self._log_min + idx / self._scale)

    def observe(self, value: float) -> None:
        if not 0.0 <= value < math.inf:
            raise ValueError(_rejection(value))
        if value <= self.min_value:
            idx = 0
        else:
            idx = int((math.log(value) - self._log_min) * self._scale) + 1
            if idx >= self._nbins:
                idx = self._nbins - 1
        self._counts[idx] += 1
        self.count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def observe_many(self, values) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        bad = ~((arr >= 0) & (arr < math.inf))
        if bool(bad.any()):
            raise ValueError(_rejection(float(arr[bad][0])))
        idx = np.zeros(arr.shape, dtype=np.int64)
        above = arr > self.min_value
        if bool(above.any()):
            idx[above] = ((np.log(arr[above]) - self._log_min)
                          * self._scale).astype(np.int64) + 1
            np.clip(idx, 0, self._nbins - 1, out=idx)
        self._counts += np.bincount(idx, minlength=self._nbins)
        self.count += arr.size
        self._sum += float(arr.sum())
        self._min = min(self._min, float(arr.min()))
        self._max = max(self._max, float(arr.max()))

    def __len__(self) -> int:
        return self.count

    def clear(self) -> None:
        self._counts[:] = 0
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def mean(self) -> float:
        if not self.count:
            raise ValueError("no values to average")
        return self._sum / self.count

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile via the cumulative bin counts.

        Linear interpolation inside the landing bin, clamped to the exact
        observed ``[min, max]`` so tail quantiles can never overshoot the
        data.
        """
        if not self.count:
            raise ValueError("no values to take a percentile of")
        rank = (q / 100.0) * (self.count - 1)
        cum = np.cumsum(self._counts)
        idx = int(np.searchsorted(cum, rank, side="right"))
        if idx >= self._nbins:
            idx = self._nbins - 1
        below = int(cum[idx - 1]) if idx else 0
        in_bin = int(self._counts[idx])
        frac = ((rank - below) / in_bin) if in_bin else 0.0
        # The underflow bin reaches down to the true observed minimum and
        # the top bin up to the true maximum, so extreme quantiles anchor
        # on exact values instead of the bin grid.
        lo = min(self.min_value, self._min) if idx == 0 else \
            float(self._edges(np.asarray(idx - 1)))
        hi = self._max if idx == self._nbins - 1 else \
            float(self._edges(np.asarray(idx)))
        value = lo + (max(hi, lo) - lo) * frac
        return float(min(max(value, self._min), self._max))

    def stats(self) -> Dict[str, float]:
        if not self.count:
            raise ValueError("no values to summarize")
        return {
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "count": float(self.count),
        }


class TelemetryRecorder:
    """Collects step and epoch records from a trainer run.

    Usage::

        recorder = TelemetryRecorder()
        trainer.train_epoch(on_step=recorder.on_step)
        recorder.on_epoch(trainer.history[-1])
        recorder.to_csv("run.csv")
    """

    def __init__(self) -> None:
        self.steps: List[StepRecord] = []
        self.epochs: List[EpochResult] = []

    # -- callbacks ---------------------------------------------------------

    def on_step(self, result: StepResult) -> None:
        throughput = (result.examples / result.sim_step_time
                      if result.sim_step_time > 0 else 0.0)
        self.steps.append(StepRecord(
            step=len(self.steps),
            loss=result.loss,
            grad_norm=result.grad_norm,
            examples=result.examples,
            sim_step_time=result.sim_step_time,
            throughput=throughput,
        ))

    def on_epoch(self, result: EpochResult) -> None:
        self.epochs.append(result)

    # -- summaries ------------------------------------------------------------

    def loss_summary(self) -> Dict[str, float]:
        return summary_stats([s.loss for s in self.steps])

    def throughput_summary(self) -> Dict[str, float]:
        return summary_stats([s.throughput for s in self.steps])

    def total_examples(self) -> int:
        return sum(s.examples for s in self.steps)

    def total_sim_time(self) -> float:
        return sum(s.sim_step_time for s in self.steps)

    # -- export -----------------------------------------------------------------

    def to_csv(self, path: str) -> None:
        """Write per-step records as CSV."""
        if not self.steps:
            raise ValueError("no step records to export")
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(asdict(self.steps[0])))
            writer.writeheader()
            for record in self.steps:
                writer.writerow(asdict(record))

    def to_json(self, path: str) -> None:
        """Write steps + epochs + summaries as a JSON document."""
        document = {
            "steps": [asdict(s) for s in self.steps],
            "epochs": [asdict(e) for e in self.epochs],
            "summaries": {
                "loss": self.loss_summary() if self.steps else None,
                "throughput": self.throughput_summary() if self.steps else None,
            },
        }
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(document, fh, indent=2)
