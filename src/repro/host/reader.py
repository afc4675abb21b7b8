"""FPGAReader — the asynchronous decode driver (paper Algorithm 1).

The reader walks WorkItems from the DataCollector, packs them
``batch_size`` at a time into hugepage memory units, encapsulates each
item's metadata plus the unit's *physical* address (+ in-batch offset)
into a cmd, and aggressively submits cmds to the FPGA FIFO queue while
pulling completion status with best effort.  When every slot of a batch
has its FINISH record, the unit is pushed to the Full_Batch_Queue for
the Dispatcher.

Resilience (beyond the paper's fault-free prototype): every in-flight
cmd lives in a retransmit table with a deadline derived from the cmd's
own decode-work estimate.  A missed deadline means the cmd was lost
(dropped on the wire, or the decoder died) — with a
:class:`~repro.faults.RetryPolicy` armed the cmd is resubmitted under
exponential backoff, then failed over to the CPU decode pool or
quarantined; without one the deadline still exists and a stalled mirror
surfaces as a ``RuntimeError`` instead of a silent hang.  Error FINISH
records (poison JPEGs, device read failures) retry the same way and end
in the :class:`~repro.faults.QuarantineLog`, keeping the conservation
invariant ``accepted == decoded + failover + quarantined``.  An
optional :class:`~repro.faults.CircuitBreaker` re-routes whole batches
to the CPU pool while the FPGA path is down and re-admits it via
probes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..calib import Testbed
from ..engines.cpu import CpuCorePool
from ..faults import CircuitBreaker, QuarantineLog, RetryPolicy
from ..fpga import DecodeCmd, FPGAChannel
from ..memory import MemManager, MemoryUnit
from ..sim import Counter, Environment, LatencyRecorder, deadline_of
from ..supervision import expire_request
from .collector import WorkItem

__all__ = ["BatchSpec", "FPGAReader"]

# Deadline shape used when no RetryPolicy is armed: same safety margin,
# but zero retries — a missed deadline is an error, not a recovery.
_DEFAULT_POLICY = RetryPolicy()


@dataclass(frozen=True)
class BatchSpec:
    """Geometry of the batches handed to the compute engine."""

    batch_size: int
    out_h: int
    out_w: int
    channels: int

    @property
    def item_bytes(self) -> int:
        return self.out_h * self.out_w * self.channels

    @property
    def batch_bytes(self) -> int:
        return self.item_bytes * self.batch_size


@dataclass
class _OpenBatch:
    unit: MemoryUnit
    tag: int
    opened_at: float = 0.0   # when the first slot was claimed (fan-in span)
    filled: int = 0          # slots assigned (cmds created)
    done: int = 0            # slots resolved: decoded, failover or quarantined
    quarantined: int = 0
    closed: bool = False     # no more cmds will join
    items: list = field(default_factory=list)
    bad_slots: set = field(default_factory=set)


@dataclass
class _PendingCmd:
    """One retransmit-table entry: an in-flight cmd awaiting FINISH."""

    cmd: DecodeCmd
    batch: _OpenBatch
    slot: int
    item: WorkItem
    attempts: int = 0                    # completed (failed) attempts
    deadline_at: float = float("inf")
    submitted_at: float = 0.0            # first submission (survives retries)


class FPGAReader:
    """Algorithm 1, split into a submission loop and a completion side.

    The completion side realises the "pulls the processing status with
    the best effort" half of the async design: each channel hands every
    FINISH record to :meth:`_handle_record` inside the DMA completion
    that raises it (:meth:`FPGAChannel.on_finish`), independent of
    submission progress, so a slow consumer never stalls the FPGA FIFO.
    """

    def __init__(self, env: Environment, testbed: Testbed,
                 channels: Sequence[FPGAChannel], pool: MemManager,
                 spec: BatchSpec, cpu: Optional[CpuCorePool] = None,
                 name: str = "fpga-reader",
                 injector=None,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 quarantine: Optional[QuarantineLog] = None,
                 tracer=None,
                 heartbeat=None,
                 integrity=None,
                 shed_deadlines: bool = False,
                 rtracker=None):
        self.env = env
        self.testbed = testbed
        # Multiple decoders may be attached ("plugging more FPGA
        # devices", S5.3); cmds round-robin across their channels.
        self.channels = list(channels)
        if not self.channels:
            raise ValueError(f"{name}: needs at least one FPGA channel")
        self.pool = pool
        self.spec = spec
        self.cpu = cpu
        self.name = name
        self.injector = injector
        self.retry = retry
        self._deadline_policy = retry if retry is not None \
            else _DEFAULT_POLICY
        self.breaker = breaker
        self.quarantine = quarantine if quarantine is not None \
            else QuarantineLog(env, name=f"{name}.quarantine")
        self.tracer = tracer
        self.heartbeat = heartbeat
        self.integrity = integrity
        self.rtracker = rtracker   # repro.tracing.RequestTracker, optional
        self.shed_deadlines = shed_deadlines
        self.batches_produced = Counter(env, name=f"{name}.batches")
        self.items_submitted = Counter(env, name=f"{name}.items")
        self.items_accepted = Counter(env, name=f"{name}.accepted")
        self.items_decoded_fpga = Counter(env, name=f"{name}.fpga_ok")
        self.retries = Counter(env, name=f"{name}.retries")
        self.timeouts = Counter(env, name=f"{name}.timeouts")
        self.duplicate_finishes = Counter(env, name=f"{name}.dup_finish")
        self.failover_items = Counter(env, name=f"{name}.failover")
        self.empty_batches = Counter(env, name=f"{name}.empty_batches")
        self.shed_expired = Counter(env, name=f"{name}.shed_expired")
        self.integrity_rejected = Counter(env, name=f"{name}.integrity_rej")
        # Per-item decode latency, first submission -> slot resolution
        # (FPGA FINISH or CPU failover), retries included.
        self.decode_latency = LatencyRecorder(name=f"{name}.latency")
        self._open: dict[int, _OpenBatch] = {}
        self._pending: dict[int, _PendingCmd] = {}
        self._wake = None        # watchdog's parking event while idle
        self._next_tag = 0
        self._next_cmd = 0
        self._rr = 0
        self.running = True
        for ch in self.channels:
            ch.on_finish(self._handle_record)
        self.env.process(self._watchdog(), name=f"{name}.watchdog")

    # -- submission side (Algorithm 1 main loop) ---------------------------
    def run_epoch(self, items: Iterable[WorkItem]):
        """Generator: submit every item of one epoch; returns when all
        resulting batches have been pushed to the Full_Batch_Queue."""
        batch: Optional[_OpenBatch] = None
        for item in items:
            batch = yield from self._submit_item(item, batch)
        if batch is not None:  # short tail batch at epoch end
            batch.closed = True
            self._maybe_complete(batch)
        # Wait until every open batch of this epoch has drained.
        while self._open:
            yield self.env.timeout(self._poll_interval())

    def run_stream(self, next_item_fn, count: Optional[int] = None):
        """Generator: like :meth:`run_epoch` but pulls items from a
        *blocking* source (the NIC path: ``next_item_fn`` is a generator
        function returning one WorkItem, e.g.
        ``DataCollector.next_from_net``)."""
        batch: Optional[_OpenBatch] = None
        submitted = 0
        while count is None or submitted < count:
            if self.heartbeat is not None:
                self.heartbeat.waiting("collector")
            item = yield from next_item_fn()
            if self.heartbeat is not None:
                self.heartbeat.running()
            batch = yield from self._submit_item(item, batch)
            submitted += 1
        if batch is not None:
            batch.closed = True
            self._maybe_complete(batch)

    def _shed_if_expired(self, item: WorkItem) -> bool:
        """Admission control at the reader boundary: dead work (deadline
        already passed) is accepted-and-shed instead of decoded.  The
        item's issuer is failed with ``DeadlineExceeded``."""
        if not self.shed_deadlines or deadline_of(item) > self.env._now:
            return False
        self.items_accepted.add()
        self.shed_expired.add()
        expire_request(item, where=f"{self.name}.admission")
        if self.tracer is not None:
            self.tracer.instant("shed:reader", track="supervision")
        if self.heartbeat is not None:
            self.heartbeat.progress()
        return True

    # -- trace plumbing ----------------------------------------------------
    def _trace_ingest(self, item: WorkItem) -> None:
        """Mint a trace for sources that bypass the NIC (the training
        feed's epoch stream); net items arrive already traced."""
        if self.rtracker is not None and getattr(item, "trace", None) is None:
            item.trace = self.rtracker.start(
                "reader.ingest", kind="service",
                baggage={"source": item.source})

    @staticmethod
    def _trace_mark(item: WorkItem, stage: str, kind: str) -> None:
        trace = getattr(item, "trace", None)
        if trace is not None and not trace.is_finished:
            trace.mark(stage, kind)

    def _submit_item(self, item: WorkItem, batch: Optional[_OpenBatch]):
        """Generator: shed ``item``, or give it a slot in ``batch`` (a
        fresh pool unit when None) and route it — FPGA cmd, or CPU pool
        while the circuit breaker holds the FPGA path open.  Returns the
        batch still open afterwards."""
        self._trace_ingest(item)
        if self._shed_if_expired(item):
            return batch
        self._trace_mark(item, "reader.pool", "wait")
        if batch is None:
            if self.heartbeat is not None:
                self.heartbeat.waiting(self.pool.free_batch_queue.name)
            unit = yield from self.pool.get_item()   # may block: line 5-10
            if self.heartbeat is not None:
                self.heartbeat.running()
            batch = _OpenBatch(unit=unit, tag=self._next_tag,
                               opened_at=self.env._now)
            self._next_tag += 1
            self._open[batch.tag] = batch
        slot = batch.filled
        batch.filled += 1
        batch.items.append(item)
        self.items_accepted.add()
        self._trace_mark(item, "reader.submit", "service")
        # Ingest-stamp backstop: sources that bypass the DataCollector
        # (e.g. the training feed's epoch stream) get stamped here,
        # before any fault can touch the cmd's travelling copy.
        if self.integrity is not None and item.checksum is None:
            self.integrity.stamp(item)
        if self.cpu is not None:
            self.cpu.charge_unaccounted(
                self.testbed.reader_cmd_cost_s, "preprocess")
        cmd = self._cmd_generator(item, batch, slot)
        if self.breaker is not None and self.breaker.is_open \
                and self.cpu is not None and not self.breaker.take_probe():
            pend = _PendingCmd(cmd=cmd, batch=batch, slot=slot, item=item,
                               submitted_at=self.env._now)
            self.env.process(self._cpu_fallback(pend),
                             name=f"{self.name}.failover{cmd.cmd_id}")
        else:
            if self.injector is not None:
                self.injector.maybe_poison_cmd(cmd, site=self.name)
                self.injector.maybe_bitflip_cmd(cmd, site=self.name)
            ch = self.channels[self._rr % len(self.channels)]
            self._rr += 1
            yield from ch.submit_cmd(cmd)                     # line 13
            self.items_submitted.add()
            now = self.env._now
            self._register(_PendingCmd(
                cmd=cmd, batch=batch, slot=slot, item=item, attempts=0,
                deadline_at=now + self._deadline_policy.deadline_for(
                    self._deadline_estimate(cmd), 0),
                submitted_at=now))
        if batch.filled < self.spec.batch_size:
            return batch
        batch.closed = True
        self._maybe_complete(batch)
        return None

    def _cmd_generator(self, item: WorkItem, batch: _OpenBatch,
                       slot: int) -> DecodeCmd:
        """The paper's ``cmd_generator(f_metainfo, phyaddr + offset)``."""
        offset = slot * self.spec.item_bytes
        trace = getattr(item, "trace", None)
        cmd = DecodeCmd(
            cmd_id=self._next_cmd, source=item.source,
            size_bytes=item.size_bytes, work_pixels=item.work_pixels,
            out_h=self.spec.out_h, out_w=self.spec.out_w,
            channels=self.spec.channels,
            dest_phy=batch.unit.phy_addr, dest_offset=offset,
            batch_tag=batch.tag, payload=item.payload,
            trace=trace,
            trace_attempt=trace.attempt if trace is not None else 0)
        self._next_cmd += 1
        return cmd

    def _poll_interval(self) -> float:
        return max(self.testbed.fpga_cmd_overhead_s * 4, 1e-6)

    # -- retransmit table --------------------------------------------------
    def _deadline_estimate(self, cmd: DecodeCmd) -> float:
        """Healthy-pipeline upper-bound latency for one cmd.

        A freshly enqueued cmd can sit behind a full FIFO (``depth``
        cmds) each paying the slowest single-way stage, plus its own
        trip through every stage.  Real waits are far shorter (stages
        are multi-way and pipelined), so deadline = estimate x safety
        only fires when a cmd is genuinely lost.
        """
        tb = self.testbed
        stages = (
            tb.fpga_cmd_overhead_s,
            cmd.size_bytes / tb.fpga_huffman_byte_rate,
            cmd.work_pixels / tb.fpga_idct_pixel_rate,
            (cmd.out_h * cmd.out_w) / tb.fpga_resizer_pixel_rate,
            cmd.out_bytes / tb.fpga_dma_rate,
            tb.nvme_access_latency_s + cmd.size_bytes / tb.nvme_read_rate,
        )
        return tb.fpga_queue_depth * max(stages) + sum(stages)

    def _register(self, pend: _PendingCmd) -> None:
        self._pending[pend.cmd.cmd_id] = pend
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
            self._wake = None

    def _watchdog(self):
        """Deadline enforcement for the retransmit table.

        Parks on a plain (unscheduled) event while the table is empty so
        an idle reader leaves the event queue untouched; while cmds are
        in flight it sleeps to the nearest deadline and expires overdue
        entries.
        """
        while self.running:
            if not self._pending:
                self._wake = self.env.event()
                yield self._wake
                continue
            now = self.env.now
            horizon = min(p.deadline_at for p in self._pending.values())
            if horizon > now:
                yield self.env.timeout(horizon - now)
                continue
            overdue = [p for p in self._pending.values()
                       if p.deadline_at <= now]
            for pend in overdue:
                del self._pending[pend.cmd.cmd_id]
                self._expire(pend)

    def _expire(self, pend: _PendingCmd) -> None:
        """A cmd missed its deadline: it was dropped, or the mirror died."""
        self.timeouts.add()
        if self.tracer is not None:
            self.tracer.instant(f"cmd-timeout:{pend.cmd.cmd_id}",
                                track="faults")
        if self.breaker is not None:
            self.breaker.record_failure()
        if self.retry is None:
            raise RuntimeError(
                f"{self.name}: cmd {pend.cmd.cmd_id} missed its deadline at "
                f"t={self.env.now:.6f}s — FPGA mirror stalled or cmd lost "
                f"(arm a RetryPolicy for automatic resubmission)")
        if pend.attempts + 1 < self.retry.max_attempts:
            self.retries.add()
            self.env.process(self._resubmit(pend),
                             name=f"{self.name}.retry{pend.cmd.cmd_id}")
        elif self.cpu is not None:
            self.env.process(self._cpu_fallback(pend),
                             name=f"{self.name}.failover{pend.cmd.cmd_id}")
        else:
            self._quarantine(pend, "deadline-exhausted")

    def _resubmit(self, pend: _PendingCmd):
        """Generator: resubmit a lost/failed cmd under a fresh cmd_id."""
        attempts = pend.attempts + 1
        trace = getattr(pend.item, "trace", None)
        if trace is not None and not trace.is_finished:
            # New attempt epoch: the lost cmd's ghost can no longer mark.
            trace.attempt += 1
            trace.mark("reader.retry", "service")
        cmd = dataclasses.replace(
            pend.cmd, cmd_id=self._next_cmd, error=None,
            trace_attempt=trace.attempt if trace is not None else 0)
        self._next_cmd += 1
        if self.cpu is not None:
            self.cpu.charge_unaccounted(
                self.testbed.reader_cmd_cost_s, "preprocess")
        ch = self.channels[self._rr % len(self.channels)]
        self._rr += 1
        yield from ch.submit_cmd(cmd)
        self._register(_PendingCmd(
            cmd=cmd, batch=pend.batch, slot=pend.slot, item=pend.item,
            attempts=attempts,
            deadline_at=self.env.now + self.retry.deadline_for(
                self._deadline_estimate(cmd), attempts),
            submitted_at=pend.submitted_at))

    def _cpu_fallback(self, pend: _PendingCmd):
        """Generator: decode one item on the CPU pool instead."""
        item = pend.item
        trace = getattr(item, "trace", None)
        if trace is not None and not trace.is_finished:
            trace.attempt += 1            # orphan any in-flight FPGA cmd
            trace.mark("cpu.decode", "service")
        cost = self.testbed.cpu_decode_seconds(
            item.size_bytes, item.work_pixels)
        yield from self.cpu.run(cost, "preprocess")
        self.failover_items.add()
        self._resolve_ok(pend, via="cpu")

    # -- completion side -----------------------------------------------------
    def _handle_record(self, record) -> None:
        pend = self._pending.pop(record.cmd_id, None)
        if pend is None:
            # Late FINISH for a cmd we already retried or failed over —
            # its slot is accounted for, suppress the duplicate.
            self.duplicate_finishes.add()
            return
        if self.breaker is not None:
            # A FINISH of any status is proof the decoder is alive; only
            # silence (timeouts) indicts the device.
            self.breaker.record_success()
        if record.status == "ok":
            self._resolve_ok(pend, via="fpga")
        else:
            self._fail_attempt(pend, record.error or "decode-error")

    def _fail_attempt(self, pend: _PendingCmd, reason: str) -> None:
        if self.retry is not None \
                and pend.attempts + 1 < self.retry.max_attempts:
            self.retries.add()
            self.env.process(self._resubmit(pend),
                             name=f"{self.name}.retry{pend.cmd.cmd_id}")
        else:
            self._quarantine(pend, reason)

    # -- slot resolution ---------------------------------------------------
    def _resolve_ok(self, pend: _PendingCmd, via: str) -> None:
        if via == "fpga":
            if self.integrity is not None and not self.integrity.verify(
                    pend.item, pend.cmd.payload,
                    pend.cmd.size_bytes, pend.cmd.work_pixels):
                # The decoder reported success over bytes that no longer
                # match the ingest stamp: silent corruption.  Quarantine
                # instead of batching garbage pixels.
                self.integrity_rejected.add()
                self._quarantine(pend, "integrity-mismatch")
                return
            self.items_decoded_fpga.add()
        trace = getattr(pend.item, "trace", None)
        self.decode_latency.record(
            max(0.0, self.env._now - pend.submitted_at),
            trace_id=trace.trace_id if trace is not None else None)
        if trace is not None and not trace.is_finished:
            # Decoded; the slot now waits for its batch siblings.
            trace.mark("batch.fanin", "wait")
        batch = pend.batch
        batch.done += 1
        if self.heartbeat is not None:
            self.heartbeat.progress()
        self._maybe_complete(batch)

    def _quarantine(self, pend: _PendingCmd, reason: str) -> None:
        batch = pend.batch
        batch.done += 1
        batch.quarantined += 1
        batch.bad_slots.add(pend.slot)
        self.quarantine.add(pend.item, reason)
        trace = getattr(pend.item, "trace", None)
        if trace is not None and not trace.is_finished:
            trace.abort(f"quarantine:{reason}")
        if self.tracer is not None:
            self.tracer.instant(f"quarantine:{reason}", track="faults")
        if self.heartbeat is not None:
            self.heartbeat.progress()
        self._maybe_complete(batch)

    def _maybe_complete(self, batch: _OpenBatch) -> None:
        if not (batch.closed and batch.done == batch.filled):
            return
        del self._open[batch.tag]
        unit = batch.unit
        good = batch.filled - batch.quarantined
        if good == 0:
            # Every slot was poison: nothing to train on, return the unit.
            self.empty_batches.add()
            self.pool.recycle_item_nowait(unit)
            return
        unit.item_count = good
        unit.payload = batch.items if not batch.quarantined else [
            it for slot, it in enumerate(batch.items)
            if slot not in batch.bad_slots]
        unit.used_bytes = batch.filled * self.spec.item_bytes
        traces = [t for t in (getattr(it, "trace", None)
                              for it in unit.payload)
                  if t is not None and not t.is_finished]
        if self.rtracker is not None and traces:
            # Fan-in point: N request traces converge into one batch.
            self.rtracker.batch_fanin(batch.tag, traces,
                                      start=batch.opened_at,
                                      end=self.env.now)
        for t in traces:
            t.mark("pool.full_queue", "wait")
        if not self.pool.full_batch_queue.try_put(unit):
            raise RuntimeError("Full_Batch_Queue overflow (pool misuse)")
        self.batches_produced.add()

    def recycle(self) -> None:
        """Algorithm 1 lines 18-19: shut down the channel bindings."""
        self.running = False
        if self.heartbeat is not None:
            self.heartbeat.idle()
        for ch in self.channels:
            ch.recycle()
