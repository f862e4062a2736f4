"""The micro-batching policy's pure arithmetic."""

from __future__ import annotations

import pytest

from repro.serving import MicroBatchPolicy
from repro.serving.batcher import AdmissionPolicy


class TestValidation:
    def test_defaults(self):
        policy = MicroBatchPolicy()
        assert policy.max_batch >= 1
        assert policy.max_wait >= 0

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"max_batch": -3},
        {"max_wait": -0.001},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatchPolicy(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_non_finite_waits(self, value):
        # NaN compares false against every bound, so without an explicit
        # check it would construct and silently disable the wait logic.
        with pytest.raises(ValueError, match="finite"):
            MicroBatchPolicy(max_wait=value)
        with pytest.raises(ValueError, match="finite"):
            AdmissionPolicy(max_estimated_wait=value)


class TestTrigger:
    def test_full_batch_triggers_at_kth_arrival(self):
        policy = MicroBatchPolicy(max_batch=3, max_wait=1.0)
        assert policy.trigger_time([0.0, 0.1, 0.2, 0.3]) == 0.2

    def test_underfull_batch_triggers_at_deadline(self):
        policy = MicroBatchPolicy(max_batch=8, max_wait=0.05)
        assert policy.trigger_time([1.0, 1.01]) == pytest.approx(1.05)

    def test_deadline_tracks_oldest_request(self):
        policy = MicroBatchPolicy(max_batch=4, max_wait=0.02)
        assert policy.deadline(2.0) == pytest.approx(2.02)

    def test_zero_wait_launches_immediately(self):
        policy = MicroBatchPolicy(max_batch=8, max_wait=0.0)
        assert policy.trigger_time([5.0]) == 5.0

    def test_empty_queue_rejected(self):
        with pytest.raises(ValueError):
            MicroBatchPolicy().trigger_time([])
