"""JSONL event-timeline export for the shared discrete-event runtime.

Every run on the runtime — ``repro simulate``, ``repro serve``, and
``repro cosched`` — can journal its event stream to a file with
``--trace-out``.  One schema covers train, serve, and co-scheduled events,
so a timeline is replayable/inspectable with nothing but ``jq``:

.. code-block:: json

    {"t": 0.1523, "seq": 42, "kind": "dispatch", "actor": "router",
     "data": {"batch_id": 3, "size": 8, "devices": 2}}

``t`` is the simulated time the event fired, ``seq`` the global scheduling
sequence number (the deterministic tie-break — two timelines of the same
seed are byte-identical), ``kind`` the event type, ``actor`` the process
that scheduled it, and ``data`` whatever fields the event's action chose to
journal (empty object when it returned None).

Two throughput knobs exist for million-event runs, both off by default:

* **buffering** — lines are accumulated in memory and written in blocks
  of ``buffer_lines`` (the runtime flushes on run exit, and ``close()``
  always flushes), so tracing does not turn every event into a syscall;
* **sampling** — ``sample=N`` keeps every N-th fired event (the first,
  then every N-th after it, counted over the whole run).  A sampled
  timeline starts with a metadata line ``{"meta": {"sample": N}}`` so a
  reader knows the stream is decimated; ``read_trace`` skips meta lines
  and returns events only.  ``seq`` gaps in a sampled trace are expected.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

__all__ = ["EventTrace", "open_trace", "read_trace"]


class EventTrace:
    """Append-only JSONL writer for runtime event timelines.

    Accepts a path (opened lazily, directories created) or any writable
    file object.  Usable as a context manager; ``close()`` is idempotent
    and never closes a file object the caller handed in.  ``sample=N``
    keeps every N-th event; ``buffer_lines`` bounds how many formatted
    lines are held before a physical write.
    """

    def __init__(self, destination: Union[str, IO[str]], *,
                 buffer_lines: int = 1024, sample: int = 1) -> None:
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        if buffer_lines < 1:
            raise ValueError(
                f"buffer_lines must be >= 1, got {buffer_lines}")
        self._path: Optional[str] = None
        self._fh: Optional[IO[str]] = None
        self._owns = False
        self._buffer: List[str] = []
        self._buffer_lines = buffer_lines
        self.sample = sample
        self.events_written = 0   # lines emitted (post-sampling)
        self.events_seen = 0      # events offered (pre-sampling)
        if isinstance(destination, str):
            self._path = destination
        else:
            self._fh = destination
        if sample > 1:
            self._buffer.append(
                json.dumps({"meta": {"sample": sample}}, sort_keys=True)
                + "\n")

    def _handle(self) -> IO[str]:
        if self._fh is None:
            assert self._path is not None
            parent = os.path.dirname(os.path.abspath(self._path))
            os.makedirs(parent, exist_ok=True)
            self._fh = open(self._path, "w")
            self._owns = True
        return self._fh

    def emit(self, t: float, seq: int, kind: str, actor: str,
             data: Optional[Dict[str, Any]] = None) -> None:
        """Journal one fired event as a JSONL line."""
        seen = self.events_seen
        self.events_seen = seen + 1
        if seen % self.sample:
            return
        line = json.dumps(
            {"t": t, "seq": seq, "kind": kind, "actor": actor,
             "data": data or {}},
            sort_keys=True)
        self._buffer.append(line + "\n")
        self.events_written += 1
        if len(self._buffer) >= self._buffer_lines:
            self.flush()

    def emit_many(self, times, seqs, kind: str, actor: str) -> None:
        """Journal a batch-dispatched run of events (empty ``data``).

        ``times``/``seqs`` are the parallel arrays a batched run fired
        with.  Lines are formatted without per-event ``json.dumps`` but
        are byte-identical to what :meth:`emit` would have produced.
        """
        n = len(times)
        if n == 0:
            return
        seen = self.events_seen
        self.events_seen = seen + n
        sample = self.sample
        first = (-seen) % sample  # offset of the first kept event
        if first >= n:
            return
        t_list = times[first::sample].tolist() if hasattr(times, "tolist") \
            else list(times[first::sample])
        s_list = seqs[first::sample].tolist() if hasattr(seqs, "tolist") \
            else list(seqs[first::sample])
        # Key order matches json.dumps(sort_keys=True): actor < data <
        # kind < seq < t; float repr matches json's float formatting.
        prefix = (f'{{"actor": {json.dumps(actor)}, "data": {{}}, '
                  f'"kind": {json.dumps(kind)}, "seq": ')
        buffer = self._buffer
        buffer.extend(f'{prefix}{s}, "t": {t!r}}}\n'
                      for t, s in zip(t_list, s_list))
        self.events_written += len(t_list)
        if len(buffer) >= self._buffer_lines:
            self.flush()

    def emit_many_data(self, times: Sequence[float], seqs: Sequence[int],
                       kind: str, actor: str,
                       data_json: Sequence[str]) -> None:
        """Journal a run of events that each carry a payload.

        The data-carrying sibling of :meth:`emit_many`: ``data_json[i]``
        is event ``i``'s payload *already formatted* as a JSON object
        string with its keys in sorted order (the caller formats a whole
        wave in one pass).  The assembled lines are byte-identical to
        what per-event :meth:`emit` calls would have produced, and the
        sampling and buffering counters advance exactly as if each event
        had been offered individually.
        """
        n = len(times)
        if n == 0:
            return
        if hasattr(times, "tolist"):
            times = times.tolist()   # np.float64 repr != float repr
        if hasattr(seqs, "tolist"):
            seqs = seqs.tolist()
        seen = self.events_seen
        self.events_seen = seen + n
        sample = self.sample
        first = (-seen) % sample  # offset of the first kept event
        if first >= n:
            return
        if sample > 1:
            times = times[first::sample]
            seqs = seqs[first::sample]
            data_json = data_json[first::sample]
        prefix = (f'{{"actor": {json.dumps(actor)}, "data": ')
        kind_part = f', "kind": {json.dumps(kind)}, "seq": '
        buffer = self._buffer
        buffer.extend(
            f'{prefix}{d}{kind_part}{s}, "t": {t!r}}}\n'
            for t, s, d in zip(times, seqs, data_json))
        self.events_written += len(data_json)
        if len(buffer) >= self._buffer_lines:
            self.flush()

    def emit_many_lines(self, lines: Sequence[str]) -> None:
        """Journal a run of fully assembled JSONL lines.

        The zero-copy sibling of :meth:`emit_many_data` for hot callers
        that build each complete line themselves (typically from cached
        constant fragments, one f-string per line).  The caller guarantees
        every line is byte-identical to what :meth:`emit` would have
        produced — newline included; sampling and buffering counters
        advance exactly as if each line's event had been offered
        individually.
        """
        n = len(lines)
        if n == 0:
            return
        seen = self.events_seen
        self.events_seen = seen + n
        sample = self.sample
        first = (-seen) % sample  # offset of the first kept event
        if first >= n:
            return
        if sample > 1:
            lines = lines[first::sample]
        buffer = self._buffer
        buffer.extend(lines)
        self.events_written += len(lines)
        if len(buffer) >= self._buffer_lines:
            self.flush()

    def flush(self) -> None:
        """Write out any buffered lines (the runtime calls this on exit)."""
        if self._buffer:
            self._handle().write("".join(self._buffer))
            self._buffer.clear()

    def close(self) -> None:
        self.flush()
        if self._fh is not None and self._owns:
            self._fh.close()
            self._fh = None
            self._owns = False

    def __enter__(self) -> "EventTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextmanager
def open_trace(trace: Union[str, "EventTrace", None],
               ) -> Iterator[Optional["EventTrace"]]:
    """Normalize a ``--trace-out`` argument for a runtime run.

    A path becomes an :class:`EventTrace` this context owns (closed on
    exit); an existing :class:`EventTrace` or ``None`` passes through
    untouched — the caller keeps its lifecycle.  This is the one place the
    close-only-what-we-created rule lives.
    """
    if isinstance(trace, str):
        writer = EventTrace(trace)
        try:
            yield writer
        finally:
            writer.close()
    else:
        yield trace


def read_trace(path: str) -> list:
    """Load a JSONL timeline back into a list of event dicts.

    Metadata lines (``{"meta": ...}``, written by sampled traces) are
    skipped: the result contains events only.  A malformed line raises
    :class:`ValueError` naming the path and its 1-based line number.  The
    one exception is an unparsable *final* line with no trailing newline:
    that is a torn write (the writer died mid-line), so the complete
    prefix is returned and a :class:`RuntimeWarning` names the torn line.
    """
    events = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if not raw.endswith("\n"):  # only the last line can lack one
                    warnings.warn(
                        f"{path}: line {lineno} is a torn write (no "
                        f"trailing newline); ignored", RuntimeWarning,
                        stacklevel=2)
                    break
                raise ValueError(f"{path}: line {lineno}: {exc.msg} "
                                 f"(column {exc.colno})") from None
            if "meta" not in record:
                events.append(record)
    return events
