"""Per-request trace context: the causal record of one item's journey.

A :class:`RequestTrace` is minted at ingest (NIC RX for serving, the
reader's epoch stream for training) and rides the item itself — the
``trace`` attribute on :class:`~repro.net.NetRequest`,
:class:`~repro.host.WorkItem` and :class:`~repro.fpga.DecodeCmd` — so
it survives every hand-off of the pipeline, including the batching
fan-in (N items -> 1 hugepage unit) and the dispatch fan-out (1 batch
-> a GPU Trans Queue).

The latency decomposition is *cursor-based*: the trace always has
exactly one open segment, and ``mark(stage, kind)`` closes it at the
current sim time while opening the next.  Segments therefore tile
``[started_at, finished_at]`` with no gaps and no overlaps, which makes
the critical-path invariant — per-stage wait + service sums to the
measured end-to-end latency — true *by construction* rather than by
reconciliation (see :mod:`repro.tracing.critical_path`).

Retries get an *attempt epoch*: the reader bumps ``trace.attempt``
whenever it reissues an item (FPGA resubmission or CPU failover), and
each travelling :class:`~repro.fpga.DecodeCmd` carries the epoch it was
created under.  :func:`mark_cmd` only marks when the epochs match, so a
ghost cmd — one that was declared lost but is still crawling through
the mirror — can never scribble stages onto a trace that has moved on.

A model that computes a stage's times before the clock reaches them
(the decoder's folded stages) queues its marks with :func:`mark_cmd_at`.
Queued marks are applied in time order, up to the current time, when
the trace is marked, finished or read, so the segments come out exactly
as if each mark had run at its own time.  An epoch change applies the
queued marks already due and drops the rest: they belong to the ghost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Segment", "RequestTrace", "mark_cmd", "mark_cmd_at",
           "trace_of"]

WAIT = "wait"
SERVICE = "service"

_ids = itertools.count(1)


@dataclass(frozen=True)
class Segment:
    """One closed interval of a trace: time spent at ``stage``, either
    queued (``kind == "wait"``) or being worked on (``"service"``)."""

    stage: str
    kind: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class RequestTrace:
    """The causal context of one request/item, propagated by reference."""

    __slots__ = ("trace_id", "started_at", "finished_at", "status",
                 "_segments", "baggage", "_attempt", "_queued",
                 "_now", "_on_finish", "_stage", "_kind", "_open_at")

    def __init__(self, now_fn: Callable[[], float], stage: str,
                 kind: str = WAIT, baggage: Optional[dict] = None,
                 on_finish=None, trace_id: Optional[int] = None):
        self.trace_id = next(_ids) if trace_id is None else trace_id
        self._now = now_fn
        self._on_finish = on_finish
        now = now_fn()
        self.started_at = now
        self.finished_at: Optional[float] = None
        self.status: Optional[str] = None
        self._segments: list[Segment] = []
        self.baggage = baggage
        self._attempt = 0
        # Marks queued at computed times, in time order (mark_at).
        self._queued: list[tuple[float, str, str]] = []
        self._stage = stage
        self._kind = kind
        self._open_at = now

    # -- cursor ----------------------------------------------------------
    @property
    def current_stage(self) -> str:
        """Where the request is *right now* (or was when it finished)."""
        if self._queued:
            self._apply_due(self._now())
        return self._stage

    @property
    def segments(self) -> list[Segment]:
        if self._queued:
            self._apply_due(self._now())
        return self._segments

    @property
    def attempt(self) -> int:
        return self._attempt

    @attempt.setter
    def attempt(self, value: int) -> None:
        # A new epoch: the marks already due happened under the old one;
        # the rest belong to a ghost cmd and never happen.
        if self._queued:
            self._apply_due(self._now())
            self._queued.clear()
        self._attempt = value

    @property
    def is_finished(self) -> bool:
        return self.finished_at is not None

    def _close_segment(self, now: float) -> None:
        if now > self._open_at:      # zero-length segments add nothing
            self._segments.append(
                Segment(self._stage, self._kind, self._open_at, now))

    def _move(self, at: float, stage: str, kind: str) -> None:
        self._close_segment(at)
        self._stage = stage
        self._kind = kind
        self._open_at = at

    def _apply_due(self, now: float) -> None:
        queued = self._queued
        due = 0
        for at, stage, kind in queued:
            if at > now:
                break
            self._move(at, stage, kind)
            due += 1
        del queued[:due]

    def mark(self, stage: str, kind: str) -> None:
        """Advance the cursor: close the open segment at the current sim
        time and start accounting to ``(stage, kind)``.  No-op once the
        trace is finished (late duplicate FINISH records, ghost cmds)."""
        if self.finished_at is not None:
            return
        now = self._now()
        if self._queued:
            self._apply_due(now)
        self._move(now, stage, kind)

    def mark_at(self, at: float, stage: str, kind: str) -> None:
        """Queue a mark for time ``at``, which may lie ahead of the
        clock; marks must be queued in time order."""
        if self.finished_at is not None:
            return
        self._queued.append((at, stage, kind))

    def finish(self, status: str = "ok") -> None:
        """Seal the trace: close the open segment, stamp the outcome and
        hand the trace to its tracker (flight recorder, attribution)."""
        if self.finished_at is not None:
            return
        now = self._now()
        if self._queued:
            self._apply_due(now)
            self._queued.clear()
        self._close_segment(now)
        self.finished_at = now
        self.status = status
        if self._on_finish is not None:
            self._on_finish(self)

    def abort(self, status: str) -> None:
        """Finish with a non-``"ok"`` outcome (shed, quarantine, drop)."""
        self.finish(status=status)

    # -- reporting -------------------------------------------------------
    @property
    def e2e_latency(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def summary(self) -> dict:
        """A flat dict snapshot (flight recorder / post-mortem payload)."""
        if self._queued:
            self._apply_due(self._now())
        return {
            "trace_id": self.trace_id,
            "status": self.status if self.status is not None else "active",
            "stage": self._stage,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "e2e_s": self.e2e_latency,
            "attempt": self.attempt,
            "baggage": self.baggage,
            "segments": [(s.stage, s.kind, s.start, s.end)
                         for s in self.segments],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.status if self.status is not None else "active"
        return (f"RequestTrace(id={self.trace_id}, {state}, "
                f"stage={self._stage!r}, segments={len(self._segments)})")


def trace_of(item) -> Optional[RequestTrace]:
    """The trace riding ``item``, looking through a WorkItem to its
    originating NetRequest when the item itself is untraced."""
    trace = getattr(item, "trace", None)
    if trace is not None:
        return trace
    request = getattr(item, "request", None)
    return getattr(request, "trace", None) if request is not None else None


def mark_cmd(cmd, stage: str, kind: str) -> None:
    """Mark the trace carried by a travelling cmd — but only when the
    cmd belongs to the trace's current attempt epoch.  A cmd that was
    declared lost (the reader retried or failed over) keeps moving
    through the mirror; its stale epoch makes this a no-op, so the
    retry's own marks are never interleaved with the ghost's.

    With tracing off (``cmd.trace is None``) this is one attribute test.
    """
    trace = getattr(cmd, "trace", None)
    if trace is None or trace.finished_at is not None:
        return
    if getattr(cmd, "trace_attempt", 0) != trace.attempt:
        return
    trace.mark(stage, kind)


def mark_cmd_at(cmd, at: float, stage: str, kind: str) -> None:
    """:func:`mark_cmd` for a mark computed ahead of the clock: queued on
    the trace at time ``at`` under the same epoch rule."""
    trace = getattr(cmd, "trace", None)
    if trace is None or trace.finished_at is not None:
        return
    if getattr(cmd, "trace_attempt", 0) != trace.attempt:
        return
    trace.mark_at(at, stage, kind)
