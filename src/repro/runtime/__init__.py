"""The shared discrete-event runtime under every simulated subsystem.

One event loop — :class:`Runtime` over a :class:`SimClock` and a slab-backed
:class:`EventQueue` with deterministic ``(time, seq)`` tie-breaking — drives
the elastic cluster simulator, the serving request router, and the
co-scheduler that runs both on one shared :class:`DevicePool`.  Processes
(:class:`Process`) post events; the runtime dispatches them in time order
and can journal every fired event to a JSONL :class:`EventTrace`.  The
queue's scheduler is a calendar queue (bucketed time wheel).
"""

from repro.runtime.core import (Event, EventQueue, Process, Runtime,
                                SimClock, batch_action)
from repro.runtime.pool import DeviceLease, DevicePool, LeaseError
from repro.runtime.trace import EventTrace, open_trace, read_trace

__all__ = [
    "DeviceLease",
    "DevicePool",
    "Event",
    "EventQueue",
    "EventTrace",
    "LeaseError",
    "Process",
    "Runtime",
    "SimClock",
    "batch_action",
    "open_trace",
    "read_trace",
]
