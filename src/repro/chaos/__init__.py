"""Chaos engineering on the unified runtime: faults as first-class events.

The paper's §7 observation is that elasticity doubles as fault tolerance —
virtual nodes migrate off failed workers instead of restarting from stale
checkpoints.  This package stress-tests that claim: a seeded
:class:`FaultPlan` schedules device crash/revive, straggler windows,
network-degradation windows, and partial-degradation (derate) curves;
:class:`ChaosProcess` injects them as ordinary events on the shared
discrete-event runtime; :class:`ChaosController` fans each one out to the
device pool, the perf-model conditions, and the training/serving/
co-scheduling consumers.  A :class:`FailureDomainTopology` (device → rack →
switch tree) unlocks correlated modes — atomic domain wipes and rack-wide
straggler windows.  Every scenario is deterministic under its seed and
replays bit-identically.
"""

from repro.chaos.degradation import DerateCurve, ECCThrottle, ThermalRamp
from repro.chaos.plan import (CRASH, DERATE, NETWORK_END, NETWORK_START,
                              REVIVE, STRAGGLER_END, STRAGGLER_START,
                              ChaosEvent, FaultPlan, domain_wipe_events,
                              random_plan)
from repro.chaos.process import ChaosController, ChaosProcess
from repro.chaos.topology import (DEVICE, LEVELS, RACK, SWITCH,
                                  FailureDomainTopology)

__all__ = [
    "CRASH",
    "DERATE",
    "DEVICE",
    "LEVELS",
    "NETWORK_END",
    "NETWORK_START",
    "RACK",
    "REVIVE",
    "STRAGGLER_END",
    "STRAGGLER_START",
    "SWITCH",
    "ChaosController",
    "ChaosEvent",
    "ChaosProcess",
    "DerateCurve",
    "ECCThrottle",
    "FailureDomainTopology",
    "FaultPlan",
    "ThermalRamp",
    "domain_wipe_events",
    "random_plan",
]
