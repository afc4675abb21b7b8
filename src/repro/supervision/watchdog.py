"""The pipeline watchdog: stall and deadlock detection.

A :class:`Watchdog` owns a registry of :class:`~repro.supervision
.heartbeat.Heartbeat` handles (one per supervised pipeline process) and
a set of watched channels.  A periodic scan flags any stage that has
been blocked on a channel — or running without progress — longer than
``stall_threshold_s``, and emits a :class:`StallReport` naming the
stage, the blocking channel and the depths of every watched queue.

Detection latency is bounded by ``stall_threshold_s + scan_period_s``;
the default scan period is a quarter of the threshold so a stall is
caught within ~1.25 thresholds of its onset.

The watchdog observes; it never mutates pipeline state.  With
``fail_fast=True`` the first stall raises :class:`PipelineStallError`
(the right behaviour for tests, where a stall means a deadlock
regression); otherwise stalls are counted, reported through
``on_stall`` and traced, and the pipeline is left to its fate — or to
the operator reading the report.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Counter, Environment
from .heartbeat import Heartbeat, StallReport

__all__ = ["PipelineStallError", "Watchdog"]


class PipelineStallError(RuntimeError):
    """A supervised stage exceeded its stall threshold (fail-fast mode)."""

    def __init__(self, report: StallReport):
        super().__init__(report.render())
        self.report = report


class Watchdog:
    """Periodic liveness scanner over registered heartbeats."""

    def __init__(self, env: Environment, stall_threshold_s: float = 0.5,
                 scan_period_s: Optional[float] = None,
                 fail_fast: bool = False,
                 on_stall: Optional[Callable[[StallReport], None]] = None,
                 keep_reports: int = 1000,
                 tracer=None, name: str = "watchdog"):
        if stall_threshold_s <= 0:
            raise ValueError("stall_threshold_s must be positive")
        if scan_period_s is not None and scan_period_s <= 0:
            raise ValueError("scan_period_s must be positive")
        self.env = env
        self.name = name
        self.stall_threshold_s = stall_threshold_s
        self.scan_period_s = (scan_period_s if scan_period_s is not None
                              else stall_threshold_s / 4)
        self.fail_fast = fail_fast
        self.on_stall = on_stall
        self.keep_reports = keep_reports
        self.tracer = tracer
        self.heartbeats: list[Heartbeat] = []
        self.stalls_detected = Counter(env, name=f"{name}.stalls")
        self.scans = Counter(env, name=f"{name}.scans")
        self.reports: list[StallReport] = []
        self._channels: list = []
        self._proc = None

    # -- registry --------------------------------------------------------
    def register(self, name: str) -> Heartbeat:
        """Create and track the heartbeat for one pipeline stage."""
        hb = Heartbeat(self.env, name)
        self.heartbeats.append(hb)
        return hb

    def watch_channel(self, channel) -> None:
        """Include this channel's depth in every stall report."""
        self._channels.append(channel)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self._proc is not None:
            raise RuntimeError("watchdog already started")
        self._proc = self.env.process(self._scan_loop(), name=self.name)

    def _scan_loop(self):
        while True:
            yield self.env.timeout(self.scan_period_s)
            self.scan()

    # -- detection -------------------------------------------------------
    def _queue_depths(self) -> dict[str, int]:
        return {ch.name: len(ch) for ch in self._channels}

    def scan(self) -> list[StallReport]:
        """One pass over every heartbeat; returns the *new* stall reports
        (also recorded on :attr:`reports`).  Callable directly by tests
        for synchronous checks."""
        self.scans.add()
        now = self.env.now
        new: list[StallReport] = []
        for hb in self.heartbeats:
            if hb.state == Heartbeat.IDLE or hb.stall_reported:
                continue
            stalled = hb.stalled_for(now)
            if stalled < self.stall_threshold_s:
                continue
            report = StallReport(
                when=now, stage=hb.name, state=hb.state,
                waiting_on=hb.waiting_on, stalled_for_s=stalled,
                progress=hb.progress_count,
                queue_depths=self._queue_depths())
            hb.stall_reported = True
            self.stalls_detected.add()
            if len(self.reports) < self.keep_reports:
                self.reports.append(report)
            new.append(report)
            if self.tracer is not None:
                self.tracer.instant(f"stall:{hb.name}", track="supervision")
            if self.on_stall is not None:
                self.on_stall(report)
            if self.fail_fast:
                raise PipelineStallError(report)
        return new
