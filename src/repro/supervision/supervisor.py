"""Supervisor — one facade wiring watchdog, deadlines and integrity.

The supervision layer has three legs:

* **Watchdog** — every pipeline process registers a heartbeat; stalls
  and deadlocks surface as structured reports instead of silent hangs.
* **Deadline-aware admission control** — requests carry an absolute
  ``deadline_at``; bounded queues shed expired work (reject-on-admit /
  drop-expired-at-dequeue), and the FPGAReader and Dispatcher drop dead
  work at their boundaries instead of decoding and copying it.
* **End-to-end integrity** — items are checksummed at ingest and
  re-verified after decode, so silent payload corruption is detected
  and quarantined, never batched.

A :class:`Supervisor` is built from a :class:`SupervisionConfig` and
handed to a backend, which registers its stages and arms the policies
the config asks for.  ``SupervisionConfig(enabled=False)`` — or simply
not passing a supervisor — leaves the pipeline bit-identical (counters,
trace) to a build without this subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import Environment, ShedPolicy, deadline_of, scoped_name
from .heartbeat import Heartbeat, StallReport
from .integrity import IntegrityChecker
from .watchdog import Watchdog

__all__ = ["SupervisionConfig", "Supervisor", "DeadlineExceeded",
           "expire_request"]


class DeadlineExceeded(ConnectionError):
    """A request was shed because its deadline passed.

    Subclasses :class:`ConnectionError` so closed-loop clients treat a
    shed exactly like an RX drop: the window slot is reclaimed and a
    fresh request is issued.
    """


def expire_request(item, where: str = "shed") -> None:
    """Complete the bookkeeping for a shed item: fail its request's
    ``done_event`` (if any) so the issuer learns the work was dropped,
    and abort its causal trace (if traced) naming the shed point."""
    request = getattr(item, "request", None) or item
    trace = getattr(item, "trace", None)
    if trace is None:
        trace = getattr(request, "trace", None)
    if trace is not None and not trace.is_finished:
        trace.abort(f"shed:{where}")
    done = getattr(request, "done_event", None)
    if done is not None and not done.triggered:
        done.fail(DeadlineExceeded(
            f"request shed at {where}: deadline expired"))


@dataclass(frozen=True)
class SupervisionConfig:
    """Knobs for the supervision layer.

    ``deadline_s`` is the per-request latency budget; ``None`` disables
    deadline shedding entirely (requests without a stamped
    ``deadline_at`` never expire); when set, expired work is dropped at
    all three boundaries: NIC RX admission, the FPGAReader before decode
    and the Dispatcher before the PCIe copy.  ``admission_margin_s`` is
    the estimated in-pipeline service time (decode + pool + copy +
    compute): the ingress boundary sheds a request once its remaining
    slack falls below this margin, because admitting it would only waste
    decode bandwidth on work that must expire downstream.  Without a
    margin an overloaded open-loop pipeline livelocks — the RX
    head-of-line age pins at the deadline, every admitted item has ~zero
    slack, and all of them are decoded then shed at the dispatcher.
    ``integrity`` arms ingest checksumming + post-decode verification.
    ``fail_fast`` turns the first detected stall into a raised
    :class:`PipelineStallError` — the right mode for tests, where a
    stall is a deadlock regression.
    """

    enabled: bool = True
    # watchdog
    stall_threshold_s: float = 0.5
    scan_period_s: Optional[float] = None
    fail_fast: bool = False
    # deadlines / admission control
    deadline_s: Optional[float] = None
    admission_margin_s: float = 0.0      # required slack at ingress
    # integrity
    integrity: bool = False


class Supervisor:
    """Wires the supervision legs into a pipeline and aggregates their
    health metrics."""

    def __init__(self, env: Environment,
                 config: Optional[SupervisionConfig] = None, tracer=None,
                 name: str = "supervisor", namespace: str = ""):
        self.env = env
        self.config = config if config is not None else SupervisionConfig()
        self.namespace = namespace
        name = scoped_name(namespace, name)
        self.name = name
        self.tracer = tracer
        self.watchdog = Watchdog(
            env, stall_threshold_s=self.config.stall_threshold_s,
            scan_period_s=self.config.scan_period_s,
            fail_fast=self.config.fail_fast, tracer=tracer,
            name=f"{name}.watchdog")
        self.integrity: Optional[IntegrityChecker] = (
            IntegrityChecker(env, name=f"{name}.integrity")
            if self.config.integrity else None)
        self.rtracker = None   # repro.tracing.RequestTracker, when attached
        self._started = False

    # -- wiring (called by backends) -------------------------------------
    def register(self, stage_name: str) -> Heartbeat:
        """Heartbeat handle for one pipeline process.

        Stage names are prefixed with the supervisor's ``namespace``
        (``host03.fpga-reader``), so K supervised pipelines in one sim
        produce K distinct heartbeats instead of colliding.
        """
        return self.watchdog.register(
            scoped_name(self.namespace, stage_name))

    def watch_channel(self, channel) -> None:
        self.watchdog.watch_channel(channel)

    def attach_tracker(self, rtracker) -> None:
        """Wire a :class:`~repro.tracing.RequestTracker` into the
        supervision legs: every stall report now dumps the flight
        recorder as a post-mortem naming the blocking stage.  Runs
        before any ``fail_fast`` raise, so even a crashed test run has
        its evidence."""
        self.rtracker = rtracker
        previous = self.watchdog.on_stall

        def _on_stall(report, _prev=previous):
            self._stall_postmortem(report)
            if _prev is not None:
                _prev(report)

        self.watchdog.on_stall = _on_stall

    def _stall_postmortem(self, report: StallReport) -> None:
        if self.rtracker is not None:
            self.rtracker.postmortem(
                "stall", stage=report.waiting_on or report.stage)

    @property
    def postmortems(self) -> list:
        """Post-mortems collected by the attached tracker (empty when
        tracing is off)."""
        return [] if self.rtracker is None else self.rtracker.postmortems

    @property
    def sheds_deadlines(self) -> bool:
        return self.config.deadline_s is not None

    def arm_admission(self, channel) -> None:
        """Arm deadline shedding on an ingress channel (e.g. the NIC RX
        queue): requests without enough remaining slack
        (``admission_margin_s``) are rejected at enqueue and dropped at
        dequeue, and their issuers are notified via ``done_event``."""
        if not self.sheds_deadlines:
            return
        margin = self.config.admission_margin_s
        extractor = deadline_of
        if margin > 0.0:
            def extractor(item, _base=deadline_of, _m=margin):
                return _base(item) - _m
        channel.arm_shed(ShedPolicy(
            deadline_of=extractor,
            reject_on_admit=True, drop_expired_at_dequeue=True,
            on_shed=lambda item, where: expire_request(item, where)))

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.watchdog.start()

    # -- reporting -------------------------------------------------------
    @property
    def stall_reports(self) -> list[StallReport]:
        return self.watchdog.reports

    def health_metrics(self) -> dict[str, int]:
        out = {
            "stalls_detected": int(self.watchdog.stalls_detected.total),
            "watchdog_scans": int(self.watchdog.scans.total),
        }
        if self.integrity is not None:
            out.update(self.integrity.metrics())
        return out
