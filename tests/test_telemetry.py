"""Telemetry recorder."""

from __future__ import annotations

import csv
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import TrainerConfig, VirtualFlowTrainer
from repro.telemetry import TelemetryRecorder, summary_stats


@pytest.fixture
def run():
    recorder = TelemetryRecorder()
    trainer = VirtualFlowTrainer(TrainerConfig(
        workload="mlp_synthetic", global_batch_size=32, num_virtual_nodes=4,
        num_devices=2, dataset_size=256))
    for _ in range(2):
        record = trainer.train_epoch(on_step=recorder.on_step)
        recorder.on_epoch(record)
    return trainer, recorder


class TestSummaryStats:
    def test_values(self):
        stats = summary_stats([1.0, 2.0, 3.0, 4.0])
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["min"] == 1.0 and stats["max"] == 4.0
        assert stats["p50"] == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_stats([])


class TestRecorder:
    def test_counts(self, run):
        trainer, recorder = run
        assert len(recorder.steps) == 2 * trainer.loader.steps_per_epoch
        assert len(recorder.epochs) == 2
        assert recorder.total_examples() == len(recorder.steps) * 32

    def test_total_sim_time_matches_trainer(self, run):
        trainer, recorder = run
        assert recorder.total_sim_time() == pytest.approx(trainer.sim_time)

    def test_summaries(self, run):
        _, recorder = run
        loss = recorder.loss_summary()
        assert loss["min"] <= loss["p50"] <= loss["max"]
        assert recorder.throughput_summary()["mean"] > 0

    def test_csv_export(self, run, tmp_path):
        _, recorder = run
        path = str(tmp_path / "steps.csv")
        recorder.to_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(recorder.steps)
        assert float(rows[0]["loss"]) == pytest.approx(recorder.steps[0].loss)

    def test_json_export(self, run, tmp_path):
        _, recorder = run
        path = str(tmp_path / "run.json")
        recorder.to_json(path)
        data = json.loads(open(path).read())
        assert len(data["steps"]) == len(recorder.steps)
        assert len(data["epochs"]) == 2
        assert data["summaries"]["loss"]["mean"] > 0

    def test_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryRecorder().to_csv(str(tmp_path / "x.csv"))

    def test_step_indices_sequential(self, run):
        _, recorder = run
        assert [s.step for s in recorder.steps] == list(range(len(recorder.steps)))


class TestLatencyHistogramCache:
    def test_cached_sorted_view_matches_fresh_sort(self):
        import numpy as np
        from repro.telemetry import LatencyHistogram, percentile

        rng = np.random.default_rng(5)
        hist = LatencyHistogram(window=512)
        values = rng.lognormal(-3.5, 0.8, size=2000)
        for i, v in enumerate(values):
            hist.observe(float(v))
            if i % 97 == 0:  # interleave queries with inserts
                window = list(hist._values)
                assert hist.percentile(99) == percentile(window, 99)
        window = list(hist._values)
        for q in (50, 90, 95, 99):
            assert hist.percentile(q) == percentile(window, q)

    def test_repeated_queries_reuse_the_cache(self):
        from repro.telemetry import LatencyHistogram

        hist = LatencyHistogram()
        hist.observe_many([0.003, 0.001, 0.002])
        first = hist.percentile(50)
        view = hist._sorted
        assert view is not None
        assert hist.percentile(50) == first
        assert hist._sorted is view  # no re-sort between queries
        hist.observe(0.004)
        assert hist._sorted is None  # invalidated by new data

    def test_observe_many_rejects_negatives_and_matches_loop(self):
        import pytest as _pytest

        from repro.telemetry import LatencyHistogram

        bulk = LatencyHistogram(window=8)
        loop = LatencyHistogram(window=8)
        values = [0.005, 0.001, 0.009, 0.002, 0.007, 0.004, 0.008, 0.003,
                  0.006, 0.010]
        bulk.observe_many(values)
        for v in values:
            loop.observe(v)
        assert list(bulk._values) == list(loop._values)
        assert bulk.percentile(99) == loop.percentile(99)
        with _pytest.raises(ValueError):
            bulk.observe_many([0.001, -0.5])


class TestStreamingHistogram:
    def test_quantiles_within_tolerance_of_exact(self):
        import numpy as np

        from repro.telemetry import LatencyHistogram, StreamingHistogram

        rng = np.random.default_rng(13)
        values = rng.lognormal(mean=-3.5, sigma=0.7, size=50_000)
        stream = StreamingHistogram()
        exact = LatencyHistogram()
        stream.observe_many(values)
        exact.observe_many(values)
        for q in (50, 90, 95, 99):
            approx = stream.percentile(q)
            truth = exact.percentile(q)
            assert abs(approx - truth) / truth < 0.05, (q, approx, truth)

    def test_observe_many_matches_observe_loop(self):
        import numpy as np

        from repro.telemetry import StreamingHistogram

        rng = np.random.default_rng(14)
        values = rng.lognormal(-4.0, 1.0, size=5000)
        bulk, loop = StreamingHistogram(), StreamingHistogram()
        bulk.observe_many(values)
        for v in values:
            loop.observe(float(v))
        assert bulk.count == loop.count == len(values)
        assert (bulk._counts == loop._counts).all()
        assert bulk.percentile(99) == loop.percentile(99)

    def test_exact_extremes_and_mean(self):
        from repro.telemetry import StreamingHistogram

        hist = StreamingHistogram()
        hist.observe_many([0.001, 0.010, 0.005])
        assert hist._min == 0.001 and hist._max == 0.010
        assert hist.mean == pytest.approx((0.001 + 0.010 + 0.005) / 3)
        assert hist.percentile(0) >= 0.001
        assert hist.percentile(100) <= 0.010
        stats = hist.stats()
        assert stats["count"] == 3.0

    def test_memory_is_constant_and_clear_resets(self):
        import numpy as np

        from repro.telemetry import StreamingHistogram

        hist = StreamingHistogram()
        nbins = hist._counts.size
        hist.observe_many(np.full(100_000, 0.004))
        assert hist._counts.size == nbins  # no growth with observations
        assert len(hist) == 100_000
        hist.clear()
        assert len(hist) == 0
        with pytest.raises(ValueError):
            hist.percentile(50)

    def test_out_of_range_values_clamp(self):
        from repro.telemetry import StreamingHistogram

        hist = StreamingHistogram(min_value=1e-3, max_value=1.0)
        hist.observe(0.0)       # underflow bin
        hist.observe(5.0)       # clamps to the last bin
        assert len(hist) == 2
        assert hist.percentile(0) == 0.0  # anchored on the exact min
        # The overflow value is clamped into the top bin; the quantile
        # stays inside the exact observed range.
        assert 0.0 <= hist.percentile(99) <= 5.0
        with pytest.raises(ValueError):
            hist.observe(-1.0)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteRejected:
    @pytest.mark.parametrize("window", [None, 4])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_latency_histogram(self, window, bad):
        import numpy as np

        from repro.telemetry import LatencyHistogram

        hist = LatencyHistogram(window=window)
        hist.observe_many([0.003, 0.001])
        with pytest.raises(ValueError):
            hist.observe(bad)
        with pytest.raises(ValueError):
            hist.observe_many([0.002, bad])
        with pytest.raises(ValueError):
            hist.observe_many(np.array([0.002, bad]))
        # A rejected batch inserts nothing, so the window stays exact.
        assert list(hist._values) == [0.003, 0.001]
        assert hist.percentile(100) == 0.003

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_streaming_histogram(self, bad):
        import numpy as np

        from repro.telemetry import StreamingHistogram

        hist = StreamingHistogram()
        hist.observe_many([0.003, 0.001])
        with pytest.raises(ValueError):
            hist.observe(bad)
        with pytest.raises(ValueError):
            hist.observe_many([0.002, bad])
        with pytest.raises(ValueError):
            hist.observe_many(np.array([0.002, bad]))
        assert hist.count == 2
        assert hist.stats()["max"] == 0.003


def _bits(x):
    import numpy as np

    return np.float64(x).tobytes()


_QS = (0, 1, 50, 95, 99, 99.9, 100)
# Few distinct values make duplicates and ties common; the float range
# covers the rest (no NaN/inf: those are rejected on insert).
_latency = st.one_of(
    st.sampled_from([0.0, 0.001, 0.002, 0.0025, 1.0]),
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False))
_op = st.one_of(
    st.tuples(st.just("observe"), _latency),
    st.tuples(st.just("observe_many"), st.lists(_latency, max_size=80)),
    st.tuples(st.just("clear"), st.none()))


class TestWindowMatchesNumpy:
    @settings(max_examples=150, deadline=None)
    @given(window=st.integers(min_value=1, max_value=64),
           ops=st.lists(_op, max_size=40))
    def test_percentiles_and_stats_bit_exact(self, window, ops):
        import numpy as np

        from repro.telemetry import LatencyHistogram

        hist = LatencyHistogram(window=window)
        seen = []
        for kind, arg in ops:
            if kind == "observe":
                hist.observe(arg)
                seen.append(arg)
            elif kind == "observe_many":
                hist.observe_many(arg)
                seen.extend(arg)
            else:
                hist.clear()
                seen = []
            current = seen[-window:]
            assert len(hist) == len(current)
            if not current:
                continue
            arr = np.asarray(current, dtype=float)
            for q in _QS:
                assert _bits(hist.percentile(q)) == _bits(np.percentile(arr, q))
            stats = hist.stats()
            expected = summary_stats(current)
            for key, value in expected.items():
                assert _bits(stats[key]) == _bits(value), key
            assert stats["count"] == len(current)

    def test_rejects_out_of_range_q(self):
        from repro.telemetry import LatencyHistogram

        hist = LatencyHistogram(window=4)
        hist.observe(0.001)
        for q in (-1, 100.5, float("nan")):
            with pytest.raises(ValueError):
                hist.percentile(q)


class _NumpyWindow:
    """Reference window: numpy re-sorts and recomputes on every query."""

    def __init__(self, window):
        from collections import deque

        self._values = deque(maxlen=window)

    def observe_many(self, values):
        self._values.extend(values)

    def percentile(self, q):
        import numpy as np

        return float(np.percentile(np.asarray(self._values, dtype=float), q))

    def clear(self):
        self._values.clear()

    def __len__(self):
        return len(self._values)


class TestAutoscalerMatchesNumpyReference:
    def test_decisions_on_a_seeded_stream(self):
        import numpy as np

        from repro.serving import LatencyAutoscaler
        from repro.serving.request import RequestRecord

        capacity = {1: 500.0, 2: 1000.0, 4: 2000.0, 8: 4000.0}
        fast = LatencyAutoscaler(0.030, capacity, cooldown=0.2)
        slow = LatencyAutoscaler(0.030, capacity, cooldown=0.2)
        slow._hist = _NumpyWindow(32)

        rng = np.random.default_rng(11)
        devices_fast = devices_slow = 1
        t, rid = 0.0, 0
        for batch_id in range(1500):
            # Load swings between quiet and hot phases; latency is heavy
            # tailed and inflated while under-provisioned, with ties.
            rate = (300.0, 1800.0, 3500.0, 600.0)[(batch_id // 150) % 4]
            size = int(rng.integers(1, 17))
            arrivals = t + np.cumsum(rng.exponential(1.0 / rate, size))
            t = float(arrivals[-1])
            base = 0.004 * rate / capacity[devices_fast]
            latency = round(float(base * rng.lognormal(0.0, 0.8)), 4)
            records = [
                RequestRecord(request_id=rid + i, arrival_time=float(a),
                              dispatch_time=t, completion_time=t + latency,
                              batch_id=batch_id, batch_size=size,
                              devices=devices_fast)
                for i, a in enumerate(arrivals)]
            rid += size
            got = fast.observe(records, t + latency, devices_fast)
            want = slow.observe(records, t + latency, devices_slow)
            assert got == want, batch_id
            if got is not None:
                devices_fast = devices_slow = got
        assert fast.decisions == slow.decisions
        ups = [d for d in fast.decisions if d.new_devices > d.old_devices]
        downs = [d for d in fast.decisions if d.new_devices < d.old_devices]
        assert ups and downs
        assert any(d.p99 > 0 for d in fast.decisions)
