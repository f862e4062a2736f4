"""Partial degradation: derate curves sampled into piecewise chaos events.

Binary straggler windows miss an entire class of real failure: a device that
keeps running but *slower* — ECC single-bit storms throttling memory, a dead
fan ramping the thermal governor down and back up.  This module models those
as **derate curves**: deterministic speed-vs-time shapes that sample into a
sequence of piecewise-constant :data:`~repro.chaos.plan.DERATE` events (the
fourth :class:`~repro.chaos.plan.ChaosEvent` kind).  Each event sets the
device's derate speed in :class:`~repro.hardware.perfmodel.
ClusterConditions`; the final event always restores 1.0, so a curve is
self-clearing and plans stay trivially valid.

Keeping the curve *in the plan* (rather than evaluating a continuous
function at query time) keeps everything event-driven: every speed change is
an ordinary runtime event, replayed bit-identically, and consumers reuse
the existing ``on_conditions_changed`` re-rating path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["DerateCurve", "ECCThrottle", "ThermalRamp"]


class DerateCurve(ABC):
    """A deterministic per-device speed-vs-time shape.

    Subclasses define :meth:`segments` — ``(offset, speed)`` pairs, offsets
    strictly increasing from 0, speeds in (0, 1], the last speed exactly
    1.0 (the curve clears itself).  :meth:`events` stamps the segments onto
    a device at a start time.
    """

    @abstractmethod
    def segments(self) -> List[Tuple[float, float]]:
        """Piecewise-constant ``(offset_seconds, speed)`` steps."""

    @property
    def duration(self) -> float:
        """Seconds from onset until the curve restores full speed."""
        return self.segments()[-1][0]

    def events(self, device_id: int, start: float) -> List["ChaosEvent"]:
        """The curve as DERATE events on ``device_id`` from ``start``."""
        from repro.chaos.plan import DERATE, ChaosEvent

        segs = self.segments()
        if not segs or segs[0][0] != 0.0:
            raise ValueError("a derate curve must start at offset 0")
        if segs[-1][1] != 1.0:
            raise ValueError("a derate curve must end by restoring speed 1.0")
        last = -1.0
        for offset, speed in segs:
            if offset < last or offset == last:
                raise ValueError("derate curve offsets must strictly increase")
            last = offset
            if not 0.0 < speed <= 1.0:
                raise ValueError(
                    f"derate speed must be in (0, 1], got {speed}")
        return [ChaosEvent(start + offset, DERATE, device_id, factor=speed)
                for offset, speed in segs]


@dataclass(frozen=True)
class ECCThrottle(DerateCurve):
    """Flat memory-throttle derate: ECC error storm caps bandwidth.

    The device drops to ``speed`` at onset and recovers fully after
    ``duration_s`` seconds — a single step down and back, the simplest
    sustained partial failure.
    """

    speed: float = 0.7
    duration_s: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.speed < 1.0:
            raise ValueError(
                f"ECC throttle speed must be in (0, 1), got {self.speed}")
        if self.duration_s <= 0:
            raise ValueError(
                f"ECC throttle duration must be positive, got {self.duration_s}")

    def segments(self) -> List[Tuple[float, float]]:
        return [(0.0, self.speed), (self.duration_s, 1.0)]


@dataclass(frozen=True)
class ThermalRamp(DerateCurve):
    """Thermal-governor derate: ramp down to ``floor``, hold, recover.

    Speed steps down from 1.0 to ``floor`` over ``ramp`` seconds in
    ``steps`` equal stages (the governor tightens as temperature climbs),
    holds at the floor for ``hold`` seconds, then steps back up over
    ``recover`` seconds — a piecewise sample of the saw-tooth every
    thermally-limited accelerator shows under sustained load.
    """

    floor: float = 0.5
    ramp: float = 1.0
    hold: float = 1.0
    recover: float = 1.0
    steps: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.floor < 1.0:
            raise ValueError(
                f"thermal floor must be in (0, 1), got {self.floor}")
        if min(self.ramp, self.hold, self.recover) <= 0:
            raise ValueError("thermal ramp/hold/recover must be positive")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    def segments(self) -> List[Tuple[float, float]]:
        drop = 1.0 - self.floor
        segs: List[Tuple[float, float]] = []
        # Ramp down: stage k (0-based) starts at k*ramp/steps and runs at
        # 1 - drop*(k+1)/steps, reaching the floor on the last stage.
        for k in range(self.steps):
            segs.append((k * self.ramp / self.steps,
                         1.0 - drop * (k + 1) / self.steps))
        # Recover: mirror image after the hold; the final stage restores 1.0.
        base = self.ramp + self.hold
        for k in range(self.steps):
            segs.append((base + k * self.recover / self.steps,
                         self.floor + drop * (k + 1) / self.steps))
        return segs
