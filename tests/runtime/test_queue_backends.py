"""Event-queue ordering and reclamation under cancellation storms.

The calendar queue must fire exactly the order of a sorted ``(time, seq)``
model: same fired events, same survivors under heavy ETA-invalidation
(>50% of scheduled events cancelled), same same-action runs for batch
actions — and it may not let dead entries accumulate without bound (the
slab recycles slots on cancel and the index compacts its stale entries).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.runtime import EventQueue, Runtime, batch_action


def _drain(queue: EventQueue):
    order = []
    while (event := queue.pop()) is not None:
        order.append((event.time, event.seq))
    return order


# -- the sorted-model property test --------------------------------------------

def _scalar_a(t):
    return None


def _scalar_b(t):
    return None


@batch_action
def _batch_c(times):
    return None


@batch_action
def _batch_d(times):
    return None


_ACTIONS = (_scalar_a, _scalar_b, _batch_c, _batch_d)

# Few distinct values force same-time ties; 17.0 and 250.0 lie past the
# initial wheel horizon (overflow heap), and times may land behind the
# cursor (the wheel rewinds).
_TIMES = st.one_of(
    st.sampled_from([0.0, 0.25, 1.0, 1.0 + 2.0 ** -40, 3.0, 17.0, 250.0]),
    st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False))
_ACTION = st.integers(0, len(_ACTIONS) - 1)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("post"), _TIMES, _ACTION),
    st.tuples(st.just("post_many"),
              st.lists(_TIMES, min_size=1, max_size=200), _ACTION),
    # A burst posts hundreds of events on a 0.01 s grid (dense ties).
    st.tuples(st.just("burst"), st.integers(65, 600), st.integers(0, 2 ** 16),
              _ACTION),
    st.tuples(st.just("cancel"), st.integers(0, 10 ** 6)),
    # A storm cancels every k-th scheduled handle from offset r: enough dead
    # entries to trip the index's rebuild-when-dead-dominate path.
    st.tuples(st.just("storm"), st.integers(1, 3), st.integers(0, 2)),
    st.tuples(st.just("pop_dispatch"), st.one_of(st.none(), _TIMES)),
    st.just(("pop",)),
), max_size=40)


class _SortedModel:
    """The reference: every live event in a list, popped by sorted key."""

    def __init__(self) -> None:
        self.live = {}  # handle -> (time, seq, action)
        self.seq = 0

    def add(self, handle: int, time: float, action) -> None:
        self.live[handle] = (time, self.seq, action)
        self.seq += 1

    def ordered(self):
        return sorted(self.live.items(), key=lambda kv: kv[1][:2])

    def pop_dispatch(self, until):
        ordered = self.ordered()
        if not ordered or (until is not None and ordered[0][1][0] > until):
            return None
        head = ordered[0][1][2]
        if not getattr(head, "__event_batch__", False):
            handle, (t, seq, _) = ordered[0]
            del self.live[handle]
            return t, seq, False
        run = []
        for handle, (t, seq, action) in ordered:
            if action is not head or (until is not None and t > until):
                break
            run.append((t, seq))
            del self.live[handle]
        return [t for t, _ in run], [s for _, s in run], True


class TestSortedModelProperty:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_matches_sorted_model(self, ops):
        """Random post/post_many/burst/cancel/storm/pop sequences fire
        exactly the sorted ``(time, seq)`` model's order, run for run."""
        q = EventQueue()
        model = _SortedModel()
        handles = []
        for op in ops:
            kind = op[0]
            if kind == "post":
                h = q.post(op[1], _ACTIONS[op[2]])
                model.add(h, float(op[1]), _ACTIONS[op[2]])
                handles.append(h)
            elif kind in ("post_many", "burst"):
                if kind == "post_many":
                    times, action = op[1], _ACTIONS[op[2]]
                else:
                    rng = np.random.default_rng(op[2])
                    times = np.round(rng.uniform(0.0, 50.0, op[1]), 2)
                    action = _ACTIONS[op[3]]
                hs = q.post_many(times, action).tolist()
                for h, t in zip(hs, times):
                    model.add(h, float(t), action)
                handles.extend(hs)
            elif kind == "cancel" and handles:
                h = handles[op[1] % len(handles)]
                assert q.cancel_handle(h) == (h in model.live)
                model.live.pop(h, None)
                assert not q.handle_alive(h)
            elif kind == "storm":
                step, offset = op[1], op[2]
                for h in handles[offset::step]:
                    assert q.cancel_handle(h) == (h in model.live)
                    model.live.pop(h, None)
            elif kind == "pop_dispatch":
                want = model.pop_dispatch(op[1])
                got = q.pop_dispatch(op[1])
                if want is None:
                    assert got is None
                else:
                    times, seqs, *_, batched = got
                    assert batched == want[2]
                    if batched:
                        assert times.tolist() == want[0]
                        assert seqs.tolist() == want[1]
                    else:
                        assert (times, seqs) == want[:2]
            elif kind == "pop":
                ordered = model.ordered()
                event = q.pop()
                if not ordered:
                    assert event is None
                else:
                    handle, (t, seq, _) = ordered[0]
                    assert (event.time, event.seq) == (t, seq)
                    del model.live[handle]
            assert len(q) == len(model.live)
        # Drain what is left through the runtime's dispatch loop.
        while (want := model.pop_dispatch(None)) is not None:
            times, seqs, *_, batched = q.pop_dispatch()
            assert batched == want[2]
            if batched:
                assert (times.tolist(), seqs.tolist()) == want[:2]
            else:
                assert (times, seqs) == want[:2]
        assert q.pop_dispatch() is None
        assert len(q) == 0


# -- targeted cases --------------------------------------------------------------

class TestEventOrder:
    def test_post_many_matches_push_loop_order(self):
        times = np.random.default_rng(3).uniform(0.0, 500.0, size=500)
        action = lambda t: None  # noqa: E731
        loop_q = EventQueue()
        for t in times:
            loop_q.push(float(t), action)
        bulk_q = EventQueue()
        bulk_q.post_many(times, action)
        assert _drain(bulk_q) == _drain(loop_q)

    def test_event_on_a_window_boundary_fires_in_order(self):
        """Regression (found by the property test): after a storm retunes
        the wheel to width 48.88/15, an event at exactly 48.88 sits on a
        window boundary; ``floor(t / width)`` put it one window early, the
        cursor took it for a later rotation and fired it out of order."""
        q = EventQueue()
        first = np.round(np.random.default_rng(172).uniform(0, 50, 101), 2)
        for h in q.post_many(first, lambda t: None).tolist():
            q.cancel_handle(h)
        times = np.round(np.random.default_rng(440).uniform(0, 50, 127), 2)
        q.post_many(times, lambda t: None)
        assert 48.88 in times.tolist()
        assert _drain(q) == sorted(zip(times.tolist(), range(101, 228)))

    def test_interleaved_schedule_and_fire(self):
        """Actions keep scheduling/cancelling while the loop runs."""
        rt = Runtime()
        fired = []
        pending = []

        def tick(t):
            fired.append((t, "tick"))
            if pending:
                # Cancel the previous tick's doomed event (fires at
                # t + 0.5, i.e. after this tick) before it can go off.
                pending.pop().cancel()
            if t < 50.0:
                rt.after(1.0, tick)
                pending.append(
                    rt.after(1.5, lambda t2: fired.append((t2, "DOOM"))))

        rt.at(0.0, tick)
        rt.run()
        # Every doomed event was cancelled before its fire time.
        assert sum(1 for _, k in fired if k == "DOOM") == 0
        assert [t for t, k in fired if k == "tick"] == [float(i)
                                                        for i in range(51)]


class TestBoundedMemory:
    def test_cancellation_storm_reclaims_slots_and_index(self):
        q = EventQueue()
        rng = np.random.default_rng(11)
        kept = []
        for wave in range(40):
            times = rng.uniform(wave * 10.0, wave * 10.0 + 1000.0, size=500)
            handles = q.post_many(times, lambda t: None)
            doomed = rng.random(len(handles)) < 0.9
            for h in handles[doomed].tolist():
                q.cancel_handle(h)
            seq0 = wave * 500
            kept.extend((float(times[j]), seq0 + j)
                        for j in np.flatnonzero(~doomed).tolist())
        stats = q.debug_stats()
        assert stats["live"] == len(kept) == len(q)
        # Slab capacity is a function of peak live events, not of the
        # 20k scheduled: with ~90% cancelled it must stay well below the
        # total scheduled count (power-of-two growth from 256).
        assert stats["slab_capacity"] < 20_000
        # The index compacts dead entries instead of hoarding them.
        assert stats["index_entries"] <= 2 * len(kept) + 128
        # And the survivors still fire in exact (time, seq) order.
        assert _drain(q) == sorted(kept)

    def test_storm_mid_bucket_keeps_unconsumed_events(self):
        """A storm that forces a rebuild while the cursor's bucket is half
        consumed must keep that bucket's remaining events."""
        q = EventQueue()
        times = np.repeat(np.arange(10.0), 30)
        handles = q.post_many(times, lambda t: None).tolist()
        assert q.pop_dispatch()[:2] == (0.0, 0)
        kept = [(float(times[i]), i) for i in range(1, 31)]
        for i in range(31, len(handles)):
            if i % 3:
                q.cancel_handle(handles[i])
            else:
                kept.append((float(times[i]), i))
        assert len(q) == len(kept)
        assert _drain(q) == kept

    def test_slab_slots_recycled_after_fire(self):
        q = EventQueue()
        for round_ in range(50):
            q.post_many(np.linspace(round_, round_ + 0.9, 100),
                        lambda t: None)
            while q.pop() is not None:
                pass
        assert len(q) == 0
        # 50 rounds x 100 events reuse the same ~100 slots.
        assert q.debug_stats()["slab_capacity"] <= 256

    def test_cancel_after_fire_is_harmless(self):
        """A stale Event/handle must never kill the slot's new tenant."""
        q = EventQueue()
        first = q.push(1.0, lambda t: None)
        assert q.pop() is first
        # The slot is recycled by the next push; cancelling the fired
        # event must not touch it.
        second = q.push(2.0, lambda t: None)
        first.cancel()
        assert second.alive
        assert q.pop() is second


class TestBatchDispatchEquivalence:
    def test_batch_runs_see_the_same_events_as_scalar_dispatch(self):
        """Run fusion changes call granularity, never content or order."""
        rng = np.random.default_rng(21)
        arrivals = np.sort(rng.uniform(0.0, 100.0, size=1000))
        ticks = np.arange(0.0, 100.0, 5.0)

        def run_batched():
            rt = Runtime()
            seen = []

            @batch_action
            def on_wave(times):
                seen.extend(times.tolist())

            rt.post_many(arrivals, on_wave, kind="arrival")
            rt.post_many(ticks, lambda t: seen.append(("tick", t)),
                         kind="tick")
            rt.run()
            return seen

        def run_scalar():
            rt = Runtime()
            seen = []
            rt.post_many(arrivals, lambda t: seen.append(t), kind="arrival")
            rt.post_many(ticks, lambda t: seen.append(("tick", t)),
                         kind="tick")
            rt.run()
            return seen

        assert run_batched() == run_scalar()

