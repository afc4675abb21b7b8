"""Dispatcher — round-robin batch pump to the GPUs (paper Algorithm 3).

Phase 1: for every registered solver, take one full host batch and one
free device buffer, and launch an asynchronous copy on that solver's
stream.  Phase 2: synchronize every stream, hand the device buffers to
the solvers' FULL Trans Queues and recycle the host units.  The
async-submit/late-sync split is what lets one dispatcher thread feed
multiple GPUs at "reduced CPU cost" (S3.4.3).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..calib import Testbed
from ..engines import CpuCorePool, DeviceBatch
from ..memory import MemManager, MemoryUnit
from ..sim import Counter, Environment, deadline_of
from ..supervision import expire_request

__all__ = ["Dispatcher"]


class Dispatcher:
    """Moves full host batches to per-GPU device buffers, Algorithm 3."""

    def __init__(self, env: Environment, testbed: Testbed, pool: MemManager,
                 solvers: Sequence, cpu: Optional[CpuCorePool] = None,
                 name: str = "dispatcher",
                 heartbeat=None,
                 shed_deadlines: bool = False,
                 tracer=None,
                 rtracker=None):
        if not solvers:
            raise ValueError("dispatcher needs at least one solver")
        self.env = env
        self.testbed = testbed
        self.pool = pool
        # "all compute engines will register their communication channels
        # (i.e., Trans Queues) to the Dispatcher" (S3.4.3).
        self.solvers = list(solvers)
        self.cpu = cpu
        self.name = name
        self.heartbeat = heartbeat
        self.shed_deadlines = shed_deadlines
        self.tracer = tracer
        self.rtracker = rtracker   # repro.tracing.RequestTracker, optional
        self.batches_dispatched = Counter(env, name=f"{name}.batches")
        self.items_shed = Counter(env, name=f"{name}.items_shed")
        self.batches_shed = Counter(env, name=f"{name}.batches_shed")
        self._proc = None

    def start(self) -> None:
        if self._proc is not None:
            raise RuntimeError("dispatcher already started")
        self._proc = self.env.process(self._loop(), name=self.name)

    # -- deadline shedding --------------------------------------------------
    def _shed_batch(self, hst_batch: MemoryUnit) -> None:
        """Drop expired items from a host batch before paying the PCIe
        copy; their issuers are failed with ``DeadlineExceeded``."""
        payload = hst_batch.payload
        if not isinstance(payload, list) or not payload:
            return
        now = self.env.now
        kept = [it for it in payload if deadline_of(it) > now]
        ndropped = len(payload) - len(kept)
        if ndropped == 0:
            return
        for it in payload:
            if deadline_of(it) <= now:
                expire_request(it, where=f"{self.name}.pre-copy")
        self.items_shed.add(ndropped)
        if self.tracer is not None:
            self.tracer.instant("shed:dispatcher", track="supervision")
        hst_batch.payload = kept
        hst_batch.item_count = len(kept)

    def _next_batch(self):
        """Generator: the next host batch with live work in it.  Batches
        whose every item expired while queued are recycled on the spot."""
        while True:
            if self.heartbeat is not None:
                self.heartbeat.waiting(self.pool.full_batch_queue.name)
            hst_batch: MemoryUnit = yield from self.pool.full_batch_queue.get()
            if self.heartbeat is not None:
                self.heartbeat.running()
            if self.shed_deadlines:
                self._shed_batch(hst_batch)
                if hst_batch.item_count == 0:
                    self.batches_shed.add()
                    self.pool.recycle_item_nowait(hst_batch)
                    continue
            return hst_batch

    # -- trace plumbing ------------------------------------------------------
    def _live_traces(self, hst_batch: MemoryUnit) -> list:
        payload = hst_batch.payload
        if not isinstance(payload, list):
            return []
        traces = (getattr(it, "trace", None) for it in payload)
        return [t for t in traces if t is not None and not t.is_finished]

    def _trace_copy_start(self, hst_batch: MemoryUnit) -> None:
        """The batch left the Full_Batch_Queue: its members are now being
        copied (device-buffer acquisition + PCIe transfer)."""
        for t in self._live_traces(hst_batch):
            t.mark("dispatch.copy", "service")

    def _trace_publish(self, hst_batch: MemoryUnit, solver,
                       copy_started: float) -> None:
        """Fan-out point: the copied batch lands in one solver's FULL
        Trans Queue.  Members start their gpu.trans wait; a flow arrow
        ties the batch-assembly span to the dispatch span."""
        traced = self._live_traces(hst_batch)
        if not traced:
            return
        for t in traced:
            t.mark("gpu.trans", "wait")
        tracer = self.rtracker.tracer
        if tracer is None or not self.rtracker.emit_spans:
            return
        label = (f"batch#{hst_batch.index}->"
                 f"{getattr(solver, 'name', 'solver')}")
        tracer.span_at(label, "dispatch", copy_started, self.env.now,
                       members=[t.trace_id for t in traced])
        fid = tracer.next_flow_id()
        tracer.flow(label, "batch.assembly", "s", fid, at=copy_started)
        tracer.flow(label, "dispatch", "f", fid)

    # -- the pump -----------------------------------------------------------
    def _loop(self):
        tb = self.testbed
        while True:
            working_hst: list[MemoryUnit] = []
            working_dev: list[DeviceBatch] = []
            copies = []
            copy_started = []
            # Phase 1 (Alg. 3 lines 1-11): one batch per solver, async.
            for solver in self.solvers:
                hst_batch = yield from self._next_batch()
                working_hst.append(hst_batch)
                copy_started.append(self.env.now)
                if self.rtracker is not None:
                    self._trace_copy_start(hst_batch)
                if self.heartbeat is not None:
                    self.heartbeat.waiting(solver.trans_queues.free.name)
                dev_batch: DeviceBatch = yield from \
                    solver.trans_queues.free.get()
                if self.heartbeat is not None:
                    self.heartbeat.running()
                working_dev.append(dev_batch)
                if self.cpu is not None:
                    self.cpu.charge_unaccounted(
                        tb.dispatcher_batch_cost_s
                        + tb.cuda_launch_overhead_s, "transform")
                copies.append(solver.gpu.memcpy_async(
                    max(hst_batch.used_bytes, 1)))
                dev_batch.payload = hst_batch.payload
                dev_batch.item_count = hst_batch.item_count
                dev_batch.tag = hst_batch.index
            # Phase 2 (lines 12-18): sync streams, publish, recycle.
            for copy_evt in copies:
                yield copy_evt
            # Publish + recycle without yielding: both queues have room
            # by construction (capacity == carrier population).
            for solver, hst_batch, dev_batch, started in zip(
                    self.solvers, working_hst, working_dev, copy_started):
                if self.rtracker is not None:
                    self._trace_publish(hst_batch, solver, started)
                if not solver.trans_queues.full.try_put(dev_batch):
                    raise RuntimeError(
                        f"{self.name}: full Trans Queue overflow")
                self.pool.recycle_item_nowait(hst_batch)
                self.batches_dispatched.add()
                if self.heartbeat is not None:
                    self.heartbeat.progress()
