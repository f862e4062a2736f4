"""The shared discrete-event core: clock, event queue, processes, runtime.

Both the elastic cluster simulator (training jobs) and the serving router
(inference traffic) are discrete-event loops over the same simulated clock;
until this module existed each hand-rolled its own time bookkeeping and
event ordering, which made the paper's most interesting scenario — training
elastically donating devices to a serving spike on one shared pool —
inexpressible.  This is the one event loop both now run on:

* :class:`SimClock` — monotonic simulated time;
* :class:`EventQueue` — the scheduler.  Events live in **slab storage**
  (:class:`_EventSlab`: preallocated parallel numpy arrays for
  time/seq/liveness plus a free list, addressed by integer handles) so the
  hot path allocates no per-event heap objects, and are ordered by a
  **calendar queue**: a bucketed time wheel with a heap for far-future
  overflow, auto-tuned from the observed event horizon.  O(1) amortized
  insert, vectorized same-action run extraction.

  Cancellation is O(1) (ETA invalidation: a completion prediction
  that a reallocation obsoletes is cancelled in place, not searched for),
  and ``len(queue)`` is an O(1) live counter, not a scan.
* :class:`Process` — the actor protocol: anything that registers events and
  reacts to them (a training cluster, a request router, a co-scheduler);
* :class:`Runtime` — drives the loop: pop the earliest live event, advance
  the clock, dispatch to its action, optionally journal the event to a
  :class:`~repro.runtime.trace.EventTrace` (the ``--trace-out`` JSONL
  timeline).

Two batching hooks feed the million-events/sec path without changing any
semantics for ordinary events:

* :meth:`EventQueue.post_many` schedules a whole wave of events sharing one
  action in a single call — sequence numbers are assigned exactly as a loop
  of ``push()`` calls would, so determinism is unchanged;
* :func:`batch_action` marks an action as batch-capable: the runtime then
  dispatches a maximal run of *consecutive* events bound to that same
  callable object with **one** call receiving the ndarray of fire times.
  The run boundary is pure ``(time, seq)`` order over live events, so a
  batch action observes the same events in the same order — only the call
  granularity changes.

Determinism is a contract, not an accident: events at the same timestamp
fire in the order they were scheduled (``seq`` is a global monotone
counter), so every run of a fixed seed replays the identical event
sequence — the golden-trace harness in ``tests/golden`` pins this, and a
property test checks the queue against a sorted ``(time, seq)`` model.
"""

from __future__ import annotations

import heapq
import math
from typing import (Any, Callable, Dict, List, Optional, Protocol, Sequence,
                    Tuple, Union, runtime_checkable)

import numpy as np

from repro.runtime.trace import EventTrace

__all__ = [
    "Event",
    "EventQueue",
    "Process",
    "Runtime",
    "SimClock",
    "batch_action",
]

# An event action receives the fire time and may return a dict of fields to
# journal on the trace timeline (or None for no extra fields).  A *batch*
# action (see :func:`batch_action`) instead receives a float ndarray of
# fire times covering a whole same-action run.
Action = Callable[..., Optional[Dict[str, Any]]]

_SLOT_BITS = 32
_SLOT_MASK = (1 << _SLOT_BITS) - 1

def batch_action(fn: Action) -> Action:
    """Mark ``fn`` as batch-capable for run-fused dispatch.

    A batch action is always called with a float ndarray of fire times —
    the maximal run of consecutive live events bound to this *same
    callable object* (cache the bound method: every ``obj.method`` access
    creates a distinct object and breaks run fusion).  The contract: the
    action's effect must equal processing the events one at a time; any
    events it schedules fire after the whole run, the clock lands on the
    run's last time before the call, and per-event journal data is not
    collected (the trace records the fired events with empty ``data``).
    """
    fn.__event_batch__ = True  # type: ignore[attr-defined]
    return fn


class SimClock:
    """Monotonic simulated time in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, time: float) -> None:
        """Move the clock forward; moving it backwards is a scheduling bug."""
        if time < self._now:
            raise RuntimeError(
                f"clock cannot run backwards: {time!r} < {self._now!r}")
        self._now = time


class _EventSlab:
    """Array-of-struct event storage: parallel arrays plus a free list.

    Each live event occupies one *slot*: ``time``/``seq``/``alive`` live in
    numpy arrays (so index structures can sort and stale-filter whole
    buckets vectorized), ``aid`` holds ``id(action)`` for same-action run
    detection (safe: the slab holds a strong reference to the action of
    every live event, so a live aid can never be a recycled ``id``), and
    ``payload`` holds the ``(action, kind, actor)`` triple — one shared
    tuple per ``post_many`` wave.  Handles encode
    ``generation << 32 | slot`` so a handle held across the slot's reuse is
    detectably stale (its generation no longer matches): ``cancel()`` on a
    fired-and-recycled event is a no-op, never a misfire on the new tenant.

    Freed slots go back on the free list immediately — memory is bounded
    by the peak *live* event count, not the total scheduled count.  Index
    entries pointing at a freed slot identify themselves as dead because
    the slot's ``seq`` is reset to -1 (sequence numbers are never reused).
    """

    __slots__ = ("time", "seq", "alive", "gen", "aid", "payload", "facade",
                 "_free", "live")

    def __init__(self, capacity: int = 256) -> None:
        self.time = np.zeros(capacity, dtype=np.float64)
        self.seq = np.full(capacity, -1, dtype=np.int64)
        self.alive = np.zeros(capacity, dtype=bool)
        self.gen = np.zeros(capacity, dtype=np.int64)
        self.aid = np.zeros(capacity, dtype=np.int64)
        self.payload: List[Optional[Tuple[Action, str, str]]] = [None] * capacity
        self.facade: List[Optional["Event"]] = [None] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self.live = 0

    @property
    def capacity(self) -> int:
        return len(self.payload)

    def _grow(self, need: int = 1) -> None:
        old = len(self.payload)
        new = old
        while new - old + len(self._free) < need:
            new *= 2
        extra = new - old
        self.time = np.concatenate([self.time, np.zeros(extra)])
        self.seq = np.concatenate(
            [self.seq, np.full(extra, -1, dtype=np.int64)])
        self.alive = np.concatenate(
            [self.alive, np.zeros(extra, dtype=bool)])
        self.gen = np.concatenate(
            [self.gen, np.zeros(extra, dtype=np.int64)])
        self.aid = np.concatenate(
            [self.aid, np.zeros(extra, dtype=np.int64)])
        self.payload.extend([None] * extra)
        self.facade.extend([None] * extra)
        self._free.extend(range(new - 1, old - 1, -1))

    def alloc(self, time: float, seq: int,
              payload: Tuple[Action, str, str]) -> int:
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.time[slot] = time
        self.seq[slot] = seq
        self.alive[slot] = True
        self.aid[slot] = id(payload[0])
        self.payload[slot] = payload
        self.live += 1
        return (int(self.gen[slot]) << _SLOT_BITS) | slot

    def alloc_many(self, times: np.ndarray, seq0: int,
                   payload: Tuple[Action, str, str]) -> np.ndarray:
        """Allocate one slot per time; seqs run ``seq0..seq0+n-1`` in order.

        Returns generation-encoded handles as an int64 array.  All events
        share one payload tuple — no per-event allocation beyond the slot
        bookkeeping itself.
        """
        n = len(times)
        if len(self._free) < n:
            self._grow(n)
        # Identical slot order to n individual alloc() pops.
        slots = np.array(self._free[: -n - 1: -1], dtype=np.int64)
        del self._free[-n:]
        self.time[slots] = times
        self.seq[slots] = np.arange(seq0, seq0 + n, dtype=np.int64)
        self.alive[slots] = True
        self.aid[slots] = id(payload[0])
        store = self.payload
        for s in slots.tolist():
            store[s] = payload
        self.live += n
        return (self.gen[slots] << _SLOT_BITS) | slots

    def free(self, slot: int) -> None:
        """Release a slot: stale-mark every index entry and recycle it."""
        self.seq[slot] = -1
        self.alive[slot] = False
        self.gen[slot] += 1
        self.payload[slot] = None
        self.facade[slot] = None
        self._free.append(slot)
        self.live -= 1

    def free_many(self, slots: np.ndarray) -> None:
        self.seq[slots] = -1
        self.alive[slots] = False
        self.gen[slots] += 1
        payload = self.payload
        facade = self.facade
        free = self._free
        for s in slots.tolist():
            payload[s] = None
            facade[s] = None
            free.append(s)
        self.live -= len(slots)

    def handle_live(self, handle: int) -> bool:
        slot = handle & _SLOT_MASK
        return (self.gen[slot] == handle >> _SLOT_BITS
                and bool(self.alive[slot]))


class Event:
    """A cancellable reference to one scheduled occurrence.

    ``push()`` returns one of these per event (the pre-slab API); the event
    itself lives in the queue's slab and this object is a view onto it.
    ``time``/``seq``/``kind``/``actor``/``action`` are plain attributes
    frozen at scheduling time; ``alive`` and ``cancel()`` consult the slab
    through the generation-encoded handle, so they stay correct (and
    harmless) after the event fires and its slot is recycled.
    """

    __slots__ = ("time", "seq", "kind", "actor", "action", "_queue", "_handle")

    def __init__(self, queue: "EventQueue", handle: int, time: float,
                 seq: int, kind: str, actor: str, action: Action) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.actor = actor
        self.action = action
        self._queue = queue
        self._handle = handle

    @property
    def alive(self) -> bool:
        return self._queue._slab.handle_live(self._handle)

    def cancel(self) -> None:
        self._queue.cancel_handle(self._handle)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "" if self.alive else " DEAD"
        return (f"Event(t={self.time:.6f}, seq={self.seq}, "
                f"kind={self.kind!r}, actor={self.actor!r}{state})")


class _CalendarIndex:
    """A calendar queue: bucketed time wheel + far-future overflow heap.

    Near events (inside the wheel's horizon) hash by time into one of
    ``nbuckets`` windows of ``width`` simulated seconds; far events wait in
    a plain heap and migrate in as the wheel rotates toward them.  The
    wheel auto-tunes from the observed event horizon: whenever occupancy
    leaves the target band (or a full rotation finds nothing poppable) the
    index rebuilds with ``nbuckets ≈ count / _TARGET_OCC`` buckets whose
    widths span the live events' time range, so a bucket holds a bounded
    batch of events regardless of trace scale.

    Buckets store bare integer handles (no tuples, no objects).  When the
    cursor reaches a bucket it is *prepared*: the bucket's entries are
    taken out, stale handles dropped and the survivors sorted by
    ``(time, seq)`` — all vectorized — after which pops are array reads.
    Entries belonging to a later wheel rotation (same bucket, time beyond
    the current window) go back into the bucket when the cursor moves on.
    Stale entries are reclaimed at prepare/rebuild time and a global dead
    counter forces a rebuild once cancellations dominate, so ETA-
    invalidation storms stay memory-bounded here too.

    Pop order is exactly global ``(time, seq)``; the golden traces and the
    sorted-model property test enforce this.
    """

    _TARGET_OCC = 128          # events per bucket the autotuner aims for
    _MIN_BUCKETS = 16
    _MAX_BUCKETS = 1 << 16

    def __init__(self, slab: _EventSlab) -> None:
        self._slab = slab
        self._nbuckets = self._MIN_BUCKETS
        self._width = 1.0
        self._buckets: List[List[int]] = [[] for _ in range(self._nbuckets)]
        self._overflow: List[Tuple[float, int, int]] = []  # (time, seq, handle)
        self._wheel_count = 0     # invariant: sum(len(b) for b in _buckets)
        self._dead = 0            # cancellations since the last rebuild
        self._positioned = False
        self._window = 0          # absolute window index of the cursor
        self._cursor = 0          # == _window % _nbuckets
        self._bucket_top = 0.0    # exclusive upper time bound of the window
        # Prepared view of the cursor's bucket: (handles, slots, seqs,
        # times, aids) sorted by (time, seq); owns its entries (they are
        # out of the bucket list until _unprepare returns the leftovers).
        self._prep: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, np.ndarray]] = None
        self._pos = 0

    def __len__(self) -> int:
        n = self._wheel_count + len(self._overflow)
        if self._prep is not None:
            n += len(self._prep[0]) - self._pos
        return n

    # -- geometry ------------------------------------------------------------

    def _horizon(self) -> float:
        """Times at or beyond this go to the overflow heap."""
        return (self._window + self._nbuckets) * self._width

    def _window_of(self, time: float) -> int:
        """The absolute window holding ``time``.

        That is the ``w`` with ``w * width <= time < (w + 1) * width`` in
        the same float products the cursor tests use.  ``floor(time /
        width)`` alone can land one window off at a boundary, which would
        park the event in a bucket the cursor treats as a later rotation
        and fire it out of ``(time, seq)`` order.
        """
        width = self._width
        window = math.floor(time / width)
        if time >= (window + 1) * width:
            return window + 1
        if time < window * width:
            return window - 1
        return window

    def _buckets_of(self, times: np.ndarray) -> np.ndarray:
        """Vectorized ``_window_of(t) % nbuckets``."""
        width = self._width
        window = np.floor_divide(times, width)
        window += times >= (window + 1) * width
        window -= times < window * width
        return window.astype(np.int64) % self._nbuckets

    def _set_window(self, window: int) -> None:
        self._window = window
        self._cursor = window % self._nbuckets
        self._bucket_top = (window + 1) * self._width
        self._prep = None
        self._pos = 0

    def _position_at(self, time: float) -> None:
        self._set_window(self._window_of(time))
        self._positioned = True

    def _unprepare(self) -> None:
        """Return the prepared view's unconsumed entries to their bucket."""
        if self._prep is None:
            return
        rem = self._prep[0][self._pos:]
        if len(rem):
            self._buckets[self._cursor].extend(rem.tolist())
            self._wheel_count += len(rem)
        self._prep = None
        self._pos = 0

    # -- insertion -----------------------------------------------------------

    def insert(self, time: float, seq: int, handle: int) -> None:
        if (self._wheel_count + len(self._overflow)
                > self._nbuckets * self._TARGET_OCC * 4
                and self._nbuckets < self._MAX_BUCKETS):
            self._unprepare()
            self._rebuild()
        if not self._positioned:
            self._position_at(time)
        if time >= self._horizon():
            heapq.heappush(self._overflow, (time, seq, handle))
            return
        if time < self._window * self._width:
            # Behind the cursor (legal queue-wise: the runtime, not the
            # queue, enforces clock monotonicity).  Rewind the wheel so
            # the event is found first; later entries just get rescanned.
            self._unprepare()
            self._position_at(time)
        bucket = self._window_of(time) % self._nbuckets
        if bucket == self._cursor and self._prep is not None:
            self._unprepare()
        self._buckets[bucket].append(handle)
        self._wheel_count += 1

    def insert_many(self, times: np.ndarray, seq0: int,
                    handles: np.ndarray) -> None:
        n = len(times)
        if not self._positioned:
            self._position_at(float(times.min()))
        if (self._wheel_count + len(self._overflow) + n
                > self._nbuckets * self._TARGET_OCC * 4
                and self._nbuckets < self._MAX_BUCKETS):
            # A bulk wave that outgrows the wheel: retune the geometry
            # over the combined span and place everything vectorized in
            # one pass instead of flooding the old (too-small) wheel.
            self._unprepare()
            self._rebuild(extra=handles)
            return
        if bool((times < self._window * self._width).any()):
            self._unprepare()
            self._position_at(float(times.min()))
        horizon = self._horizon()
        near = times < horizon
        if bool(near.any()):
            idx = self._buckets_of(times[near])
            if self._prep is not None and bool((idx == self._cursor).any()):
                self._unprepare()
            buckets = self._buckets
            for h, b in zip(handles[near].tolist(), idx.tolist()):
                buckets[b].append(h)
            self._wheel_count += int(near.sum())
        if not bool(near.all()):
            far = ~near
            seqs = np.arange(seq0, seq0 + n, dtype=np.int64)[far]
            entries = list(zip(times[far].tolist(), seqs.tolist(),
                               handles[far].tolist()))
            overflow = self._overflow
            if len(entries) > max(8, len(overflow) // 8):
                overflow.extend(entries)
                heapq.heapify(overflow)
            else:
                for entry in entries:
                    heapq.heappush(overflow, entry)

    # -- maintenance ---------------------------------------------------------

    def _gather(self) -> np.ndarray:
        """Every indexed entry, as one handle array (may include stale)."""
        parts = [np.asarray(b, dtype=np.int64) for b in self._buckets if b]
        if self._prep is not None and self._pos < len(self._prep[0]):
            parts.append(self._prep[0][self._pos:])
        if self._overflow:
            parts.append(np.asarray([e[2] for e in self._overflow],
                                    dtype=np.int64))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def _live_filter(self, handles: np.ndarray,
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Drop stale handles; returns (handles, slots) of the survivors."""
        slots = handles & _SLOT_MASK
        live = ((self._slab.gen[slots] == handles >> _SLOT_BITS)
                & self._slab.alive[slots])
        return handles[live], slots[live]

    def _rebuild(self, extra: Optional[np.ndarray] = None) -> None:
        """Retune bucket count/width from the observed event horizon.

        Gathers every live entry (plus ``extra`` handles not yet indexed),
        recomputes the geometry, and re-places everything vectorized —
        this is also where stale entries from cancellation storms are
        physically reclaimed.
        """
        gathered = self._gather()
        if extra is not None and len(extra):
            gathered = (np.concatenate([gathered, extra])
                        if len(gathered) else extra)
        handles, slots = self._live_filter(gathered)
        count = len(handles)
        nbuckets = self._MIN_BUCKETS
        while (nbuckets * self._TARGET_OCC < count
               and nbuckets < self._MAX_BUCKETS):
            nbuckets *= 2
        slab = self._slab
        times = slab.time[slots]
        if count:
            lo = float(times.min())
            span = float(times.max()) - lo
        else:
            lo, span = 0.0, 0.0
        # span/(n-1), not span/n, so the maximum stays inside the horizon.
        width = span / (nbuckets - 1) if span > 0 else max(self._width, 1.0)
        self._nbuckets = nbuckets
        self._width = max(width, 1e-12)
        self._buckets = [[] for _ in range(nbuckets)]
        self._overflow = []
        self._wheel_count = 0
        self._dead = 0
        self._prep = None
        self._pos = 0
        self._positioned = False
        if not count:
            return
        self._position_at(lo)
        horizon = self._horizon()
        near = times < horizon
        near_h = handles[near]
        if len(near_h):
            idx = self._buckets_of(times[near])
            order = np.argsort(idx, kind="stable")
            counts = np.bincount(idx, minlength=nbuckets)
            parts = np.split(near_h[order], np.cumsum(counts)[:-1])
            self._buckets = [p.tolist() for p in parts]
            self._wheel_count = len(near_h)
        if not bool(near.all()):
            far = ~near
            self._overflow = list(zip(times[far].tolist(),
                                      slab.seq[slots][far].tolist(),
                                      handles[far].tolist()))
            heapq.heapify(self._overflow)

    def note_dead(self) -> None:
        """An entry was cancelled in place; rebuild when dead dominate."""
        self._dead += 1
        if self._dead > 64 and self._dead * 2 > len(self):
            self._unprepare()
            self._rebuild()

    # -- the cursor ----------------------------------------------------------

    def _prepare(self) -> None:
        """Take the cursor's bucket and build its sorted live view."""
        raw = self._buckets[self._cursor]
        self._buckets[self._cursor] = []
        self._wheel_count -= len(raw)
        if raw:
            handles, slots = self._live_filter(
                np.asarray(raw, dtype=np.int64))
            slab = self._slab
            times = slab.time[slots]
            seqs = slab.seq[slots]
            order = np.lexsort((seqs, times))
            self._prep = (handles[order], slots[order], seqs[order],
                          times[order], slab.aid[slots][order])
        else:
            empty_i = np.empty(0, dtype=np.int64)
            self._prep = (empty_i, empty_i, empty_i, np.empty(0), empty_i)
        self._pos = 0

    def _advance(self) -> None:
        """Move the cursor one window; migrate newly-near overflow events."""
        self._unprepare()
        self._set_window(self._window + 1)
        overflow = self._overflow
        horizon = self._horizon()
        while overflow and overflow[0][0] < horizon:
            t, seq, handle = heapq.heappop(overflow)
            bucket = self._window_of(t) % self._nbuckets
            self._buckets[bucket].append(handle)
            self._wheel_count += 1

    def peek(self) -> Optional[Tuple[float, int, int]]:
        slab = self._slab
        if slab.live == 0:
            return None
        if not self._positioned:
            self._rebuild()
        scanned = 0
        while True:
            if self._prep is None:
                self._prepare()
            handles, slots, seqs, times, _aids = self._prep
            pos = self._pos
            n = len(handles)
            found = False
            while pos < n:
                slot = int(slots[pos])
                if slab.seq[slot] == seqs[pos]:
                    if times[pos] < self._bucket_top:
                        found = True
                    break  # live but future rotation: nothing this window
                pos += 1  # cancelled after preparation: skip
            self._pos = pos
            if found:
                return (float(times[pos]), int(seqs[pos]), int(slots[pos]))
            self._advance()
            scanned += 1
            if scanned >= self._nbuckets:
                # A full fruitless rotation: everything live is far away
                # (deep overflow or a mistuned wheel).  Re-center on the
                # true minimum and retune — O(live), amortized by the jump.
                self._rebuild()
                scanned = 0

    def pop(self) -> Optional[Tuple[float, int, int]]:
        entry = self.peek()
        if entry is not None:
            self._pos += 1
        return entry

    def pop_run(self, until: Optional[float],
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized maximal same-action run extraction from the head.

        Semantics match popping one event at a time: consume live events in
        ``(time, seq)`` order while they share the head's action object
        (dead entries inside the span are invisible, not run breaks) and,
        when ``until`` is given, fire at or before it.
        """
        slab = self._slab
        head = self.peek()  # positions the cursor on a live head
        aid0 = int(slab.aid[head[2]])
        out_times: List[np.ndarray] = []
        out_seqs: List[np.ndarray] = []
        while True:
            handles, slots, seqs, times, aids = self._prep
            pos = self._pos
            end = int(np.searchsorted(times, self._bucket_top, side="left"))
            if until is not None:
                end = min(end,
                          int(np.searchsorted(times, until, side="right")))
            seg_slots = slots[pos:end]
            live = slab.seq[seg_slots] == seqs[pos:end]
            live_idx = np.nonzero(live)[0]
            same = aids[pos:end][live_idx] == aid0
            k = len(same) if bool(same.all()) else int(np.argmin(same))
            if k:
                take = live_idx[:k]
                out_times.append(times[pos:end][take])
                out_seqs.append(seqs[pos:end][take])
                slab.free_many(seg_slots[take])
                if k < len(live_idx):
                    # The run broke on a live different-action event.
                    self._pos = pos + int(take[-1]) + 1
                    break
                self._pos = end
            elif len(live_idx):
                break  # defensive: segment head has a different action
            # Window (or until-slice) exhausted with the run still open:
            # continue only if the next live head keeps the same action.
            nxt = self.peek()
            if nxt is None or (until is not None and nxt[0] > until) \
                    or int(slab.aid[nxt[2]]) != aid0:
                break
        return (np.concatenate(out_times) if out_times else np.empty(0),
                np.concatenate(out_seqs) if out_seqs
                else np.empty(0, dtype=np.int64))


class EventQueue:
    """The scheduler: slab-stored events ordered by a calendar queue.

    Deterministic ``(time, seq)`` ordering, O(1) in-place cancellation,
    and an O(1) live-event ``len()``.
    """

    def __init__(self) -> None:
        self._slab = _EventSlab()
        self._index = _CalendarIndex(self._slab)
        self._seq = 0

    def __len__(self) -> int:
        return self._slab.live

    # -- scheduling ----------------------------------------------------------

    def push(self, time: float, action: Action, *, kind: str = "event",
             actor: str = "runtime") -> Event:
        """Schedule ``action`` at ``time``; returns the cancellable event."""
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        time = float(time)
        seq = self._seq
        self._seq = seq + 1
        handle = self._slab.alloc(time, seq, (action, kind, actor))
        slot = handle & _SLOT_MASK
        event = Event(self, handle, time, seq, kind, actor, action)
        self._slab.facade[slot] = event
        self._index.insert(time, seq, handle)
        return event

    def post(self, time: float, action: Action, *, kind: str = "event",
             actor: str = "runtime") -> int:
        """Schedule ``action`` at ``time`` and return its *handle*.

        The facade-free single-event twin of :meth:`post_many`: identical
        scheduling semantics to :meth:`push` (same sequence numbering,
        same ordering) but no :class:`Event` object is built — the
        returned int handle drives :meth:`cancel_handle` and
        :meth:`handle_alive` directly.  This is the seam a hot serving
        loop posts its admit/dispatch/complete chain through.
        """
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        time = float(time)
        seq = self._seq
        self._seq = seq + 1
        handle = self._slab.alloc(time, seq, (action, kind, actor))
        self._index.insert(time, seq, handle)
        return handle

    def post_many(self, times: Union[Sequence[float], np.ndarray],
                  action: Action, *, kind: str = "event",
                  actor: str = "runtime") -> np.ndarray:
        """Schedule one event per entry of ``times``, all sharing ``action``.

        Equivalent to (and sequence-numbered exactly like) a loop of
        :meth:`push` calls in array order, but with bulk slab allocation
        and bulk index insertion — this is how a generator schedules a
        whole arrival wave in one call.  Returns an int64 array of event
        *handles*; pass one to :meth:`cancel_handle`/:meth:`handle_alive`
        (no per-event :class:`Event` objects are built on this path).
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("post_many expects a 1-D array of times")
        if len(times) == 0:
            return np.empty(0, dtype=np.int64)
        if not bool(np.isfinite(times).all()):
            raise ValueError("event times must be finite")
        seq0 = self._seq
        self._seq += len(times)
        handles = self._slab.alloc_many(times, seq0, (action, kind, actor))
        self._index.insert_many(times, seq0, handles)
        return handles

    # -- handle API ----------------------------------------------------------

    def cancel_handle(self, handle: int) -> bool:
        """Cancel the event behind ``handle``; False if already dead/fired."""
        if not self._slab.handle_live(handle):
            return False
        self._slab.free(handle & _SLOT_MASK)
        self._index.note_dead()
        return True

    def handle_alive(self, handle: int) -> bool:
        return self._slab.handle_live(handle)

    # -- consumption ---------------------------------------------------------

    def _facade(self, entry: Tuple[float, int, int]) -> Event:
        time, seq, slot = entry
        event = self._slab.facade[slot]
        if event is None:
            action, kind, actor = self._slab.payload[slot]
            handle = (int(self._slab.gen[slot]) << _SLOT_BITS) | slot
            event = Event(self, handle, time, seq, kind, actor, action)
            self._slab.facade[slot] = event
        return event

    def peek(self) -> Optional[Event]:
        """The earliest live event without removing it (None if drained)."""
        entry = self._index.peek()
        return None if entry is None else self._facade(entry)

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event (None if drained)."""
        entry = self._index.peek()
        if entry is None:
            return None
        event = self._facade(entry)
        self._index.pop()
        self._slab.free(entry[2])
        return event

    def pop_dispatch(self, until: Optional[float] = None):
        """Pop the next dispatchable unit for the runtime's hot loop.

        Returns ``None`` when drained (or the head lies beyond ``until``),
        else ``(time_s, seq_s, kind, actor, action, batched)`` — scalars
        for an ordinary event, ndarrays covering a maximal same-action run
        when the head's action is :func:`batch_action`-marked.  No
        :class:`Event` objects are built on this path.
        """
        entry = self._index.peek()
        if entry is None:
            return None
        time, seq, slot = entry
        if until is not None and time > until:
            return None
        action, kind, actor = self._slab.payload[slot]
        if getattr(action, "__event_batch__", False):
            times, seqs = self._index.pop_run(until)
            return (times, seqs, kind, actor, action, True)
        self._index.pop()
        self._slab.free(slot)
        return (time, seq, kind, actor, action, False)

    # -- introspection -------------------------------------------------------

    def debug_stats(self) -> Dict[str, int]:
        """Memory-shape counters for the reclamation stress tests."""
        return {
            "live": self._slab.live,
            "slab_capacity": self._slab.capacity,
            "index_entries": len(self._index),
        }


@runtime_checkable
class Process(Protocol):
    """The actor protocol: a named participant in the event loop.

    A process seeds its initial events in :meth:`start` and thereafter
    reacts to the events it scheduled (each event's action closes over the
    process).  Processes never call each other synchronously across
    subsystem boundaries except through explicit mediator objects (the
    co-scheduler), which keeps event ordering the single source of truth.
    """

    name: str

    def start(self, runtime: "Runtime") -> None:
        ...


class Runtime:
    """The event loop: clock + queue + registered processes + trace.

    ``run()`` pops live events in ``(time, seq)`` order, advances the clock
    to each event's time, and dispatches.  An action may schedule further
    events (including at the current instant — they fire later this same
    timestamp, after already-queued same-time events) and may call
    :meth:`stop` to end the run early (a co-scheduled run stops when the
    serving trace drains, even though training ETAs remain queued).

    Runs of consecutive events bound to one :func:`batch_action` dispatch
    as a single call — the million-events/sec path the throughput benchmark
    measures.
    """

    def __init__(self, trace: Optional[EventTrace] = None) -> None:
        self.clock = SimClock()
        self.queue = EventQueue()
        self.trace = trace
        self.processes: List[Process] = []
        self._stopped = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def add(self, process: Process) -> None:
        """Register a process and let it seed its initial events."""
        self.processes.append(process)
        process.start(self)

    def at(self, time: float, action: Action, *, kind: str = "event",
           actor: str = "runtime") -> Event:
        """Schedule ``action`` at absolute simulated ``time``."""
        return self.queue.push(time, action, kind=kind, actor=actor)

    def after(self, delay: float, action: Action, *, kind: str = "event",
              actor: str = "runtime") -> Event:
        """Schedule ``action`` ``delay`` seconds from the current clock."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.queue.push(self.clock.now + delay, action,
                               kind=kind, actor=actor)

    def post(self, time: float, action: Action, *, kind: str = "event",
             actor: str = "runtime") -> int:
        """Schedule ``action`` at ``time`` facade-free; returns the event
        handle (see :meth:`EventQueue.post`)."""
        return self.queue.post(time, action, kind=kind, actor=actor)

    def cancel(self, handle: int) -> bool:
        """Cancel a handle-posted event; False if already dead/fired."""
        return self.queue.cancel_handle(handle)

    def alive(self, handle: int) -> bool:
        """Whether a handle-posted event is still scheduled."""
        return self.queue.handle_alive(handle)

    def post_many(self, times: Union[Sequence[float], np.ndarray],
                  action: Action, *, kind: str = "event",
                  actor: str = "runtime") -> np.ndarray:
        """Schedule a whole wave of events sharing one action in one call
        (see :meth:`EventQueue.post_many`)."""
        return self.queue.post_many(times, action, kind=kind, actor=actor)

    def stop(self) -> None:
        """End the run after the current event's action returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None) -> int:
        """Process events until the queue drains (or ``until`` / ``stop()``).

        Returns the number of events processed.  ``until`` is inclusive:
        an event at exactly ``until`` still fires.  A ``stop()`` issued
        before the loop starts (e.g. by a process that drained during
        registration) is honored: the loop never begins.  Any attached
        trace is flushed before returning.
        """
        processed = 0
        queue = self.queue
        clock = self.clock
        trace = self.trace
        try:
            while not self._stopped:
                item = queue.pop_dispatch(until)
                if item is None:
                    break
                time_s, seq_s, kind, actor, action, batched = item
                if batched:
                    n = len(time_s)
                    if n == 0:
                        continue
                    clock.advance(float(time_s[-1]))
                    try:
                        action(time_s)
                    except BaseException as exc:
                        # Journal the whole run (the crash point inside it
                        # is not knowable here) before re-raising; the
                        # finally below flushes everything to disk.
                        if trace is not None:
                            trace.emit_many(time_s, seq_s, kind, actor)
                            trace.emit(
                                float(time_s[-1]), int(seq_s[-1]), kind,
                                actor,
                                {"error": f"{type(exc).__name__}: {exc}"})
                        raise
                    processed += n
                    self._events_processed += n
                    if trace is not None:
                        trace.emit_many(time_s, seq_s, kind, actor)
                else:
                    if time_s < clock._now:
                        raise RuntimeError(
                            f"clock cannot run backwards: {time_s!r} < "
                            f"{clock._now!r}")
                    clock._now = time_s
                    try:
                        data = action(time_s)
                    except BaseException as exc:
                        # A crashed action still journals its event — with
                        # the exception in place of its data — so a trace
                        # file always explains where the run died.
                        if trace is not None:
                            trace.emit(
                                time_s, seq_s, kind, actor,
                                {"error": f"{type(exc).__name__}: {exc}"})
                        raise
                    processed += 1
                    self._events_processed += 1
                    if trace is not None:
                        trace.emit(time_s, seq_s, kind, actor, data)
        finally:
            if trace is not None:
                trace.flush()
        return processed
