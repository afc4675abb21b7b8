"""Measurement-window helpers for the workflow drivers.

Experiments warm the pipeline up, *mark*, run a measurement window and
report deltas — so ramp-up (pipeline fill, first-epoch decode) never
pollutes steady-state numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..engines import CpuCorePool
from ..sim import Counter, Environment

__all__ = ["CpuWindow", "CounterWindow", "ResilienceWindow",
           "HealthWindow", "check_windows"]


def check_windows(warmup_s: float, measure_s: float) -> None:
    """Reject a warm-up/measure window pair a run cannot honour: both
    must be finite, the warm-up ``>= 0`` and the measure window
    ``> 0``."""
    if not (math.isfinite(warmup_s) and math.isfinite(measure_s)):
        raise ValueError(f"warmup_s and measure_s must be finite, got "
                         f"{warmup_s!r} and {measure_s!r}")
    if warmup_s < 0:
        raise ValueError(f"warmup_s must be >= 0, got {warmup_s!r}")
    if measure_s <= 0:
        raise ValueError(f"measure_s must be positive, got {measure_s!r}")


@dataclass
class CounterWindow:
    """Delta-rate measurement over one or more counters."""

    env: Environment
    counters: list[Counter]
    _mark_t: float = 0.0
    _mark_totals: list[float] = field(default_factory=list)

    def mark(self) -> None:
        self._mark_t = self.env.now
        self._mark_totals = [c.total for c in self.counters]

    def rate(self) -> float:
        elapsed = self.env.now - self._mark_t
        if elapsed <= 0:
            return 0.0
        delta = sum(c.total for c in self.counters) - sum(self._mark_totals)
        return delta / elapsed

    def delta(self) -> float:
        return sum(c.total for c in self.counters) - sum(self._mark_totals)


class ResilienceWindow:
    """Windowed deltas of a backend's fault/retry/failover metrics.

    Wraps any object exposing ``fault_metrics() -> dict[str, int]``
    (``DLBoosterBackend`` does); the same mark/delta discipline as
    :class:`CounterWindow` keeps warm-up faults out of the numbers.
    """

    def __init__(self, env: Environment, backend):
        self.env = env
        self.backend = backend
        self._mark: dict[str, int] = {}

    def mark(self) -> None:
        self._mark = dict(self.backend.fault_metrics())

    def deltas(self) -> dict[str, int]:
        now = self.backend.fault_metrics()
        return {key: value - self._mark.get(key, 0)
                for key, value in now.items()}


class HealthWindow:
    """Windowed deltas of a Supervisor's health/overload metrics.

    Wraps :meth:`repro.supervision.Supervisor.health_metrics` (stall
    detections, watchdog scans, integrity stamp/verify/mismatch counts)
    with the same mark/delta discipline as :class:`ResilienceWindow`.
    Extra named counters (e.g. reader/dispatcher shed counters) can ride
    along so overload experiments report everything from one window.
    """

    def __init__(self, env: Environment, supervisor,
                 extra_counters: dict[str, Counter] | None = None):
        self.env = env
        self.supervisor = supervisor
        self.extra = dict(extra_counters or {})
        self._mark: dict[str, int] = {}

    def _now(self) -> dict[str, int]:
        out = dict(self.supervisor.health_metrics())
        for key, counter in self.extra.items():
            out[key] = int(counter.total)
        return out

    def mark(self) -> None:
        self._mark = self._now()

    def deltas(self) -> dict[str, int]:
        return {key: value - self._mark.get(key, 0)
                for key, value in self._now().items()}


class CpuWindow:
    """Windowed cores-used breakdown over a :class:`CpuCorePool`."""

    def __init__(self, env: Environment, cpu: CpuCorePool):
        self.env = env
        self.cpu = cpu
        self._mark_t = env.now
        self._mark_busy: dict[str, float] = {}

    def _categories(self) -> list[str]:
        # Sorted, not set order: breakdown() sums float shares in this
        # order, and set iteration follows the per-process string hash
        # seed — a spawn worker would drift from its parent by an ulp.
        tracker = self.cpu.tracker
        cats = set(tracker._busy)
        cats.update(cat for cat, _ in tracker._open.values())
        return sorted(cats)

    def mark(self) -> None:
        self._mark_t = self.env.now
        self._mark_busy = {cat: self.cpu.tracker.busy_seconds(cat)
                           for cat in self._categories()}

    def breakdown(self) -> dict[str, float]:
        elapsed = self.env.now - self._mark_t
        if elapsed <= 0:
            return {}
        out = {}
        for cat in self._categories():
            delta = (self.cpu.tracker.busy_seconds(cat)
                     - self._mark_busy.get(cat, 0.0))
            out[cat] = delta / elapsed
        return out

    def total_cores(self) -> float:
        return sum(self.breakdown().values())
