"""Generic FPGA pipeline-unit framework.

The paper's decoder (Fig. 4) is a chain of units — parser, DataReader,
Huffman decoder, iDCT, resizer, DMA — each replicated across a
configurable number of "ways" mapped onto CLBs, "which allows each of
them to work in pipelining and increases the parallelism" (S3.3).

:class:`FifoStage` models one such stage as ``ways`` parallel FIFO
servers between an input and an output channel, driven by event
callbacks rather than one process per way, so a service costs one
scheduled event: its departure.  :class:`PipelineUnit` is the common
stage that holds each item for a per-item service time and optionally
transforms the payload (functional mode).  Multi-way output is
collected round-robin-fairly simply by sharing one output channel, as
the hardware's "multiplex streams collector (round-robin)" does.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from ..sim import BusyTracker, Channel, Counter, DirectGet, Environment, Event
from ..sim.trace import Tracer
from ..tracing.context import mark_cmd

__all__ = ["FifoStage", "PipelineUnit", "UnitStats"]


class UnitStats:
    """Aggregated per-unit measurements for load-balance analysis."""

    def __init__(self, env: Environment, name: str, ways: int):
        self.busy = BusyTracker(env, name=f"{name}.busy")
        self.items = Counter(env, name=f"{name}.items")
        self.per_way_items = [0] * ways

    def utilization(self, ways: int) -> float:
        """Mean busy fraction per way (1.0 = the unit is the bottleneck)."""
        return self.busy.cores() / ways if ways else 0.0


class FifoStage:
    """A stage of ``ways`` FIFO servers, driven by event callbacks.

    No way is a process:

    * an idle way is a :class:`~repro.sim.DirectGet` parked on the
      inbox, so an arriving item starts its service inside the put that
      delivered it, with no grant event;
    * a finished way offers its output to the outbox (``None``: a
      sink).  With room, the item is admitted with no ack event.  A full
      outbox parks one ``StorePut``, and the way stays held until its
      ack: blocking after service;
    * a freed way pulls its next queued item at once.

    Subclasses implement :meth:`_serve`, which begins a service and
    normally schedules one event whose callback is
    ``self._finished[way]``, and :meth:`_finish`, which accounts the
    finished item and forwards it.  Both return True when the way is
    free again at once.
    """

    def __init__(self, env: Environment, name: str, ways: int,
                 inbox: Channel, outbox: Optional[Channel]):
        if ways < 1:
            raise ValueError(f"{name}: ways must be >= 1")
        self.env = env
        self.name = name
        self.ways = ways
        self.inbox = inbox
        self.outbox = outbox
        self._held: list[Any] = [None] * ways       # per-way service state
        self._waiters = [DirectGet(inbox, partial(self._arrive, way))
                         for way in range(ways)]
        self._finished = [partial(self._on_finished, way)
                          for way in range(ways)]
        self._running = False

    def start(self) -> None:
        if self._running:
            raise RuntimeError(f"{self.name} already started")
        self._running = True
        # The ways park on the inbox when this event fires, not here:
        # items queued before then wait and count against the inbox's
        # capacity, so a fresh stage's inbox takes exactly ``capacity``
        # non-blocking puts (and simulated results keep their order).
        kick = Event(self.env)
        kick.callbacks.append(self._park)
        kick.succeed()

    def _park(self, _event: Event) -> None:
        for way in range(self.ways):
            self._next(way)

    def _next(self, way: int) -> None:
        """``way`` is free: serve queued items until one holds it, then
        park it on the inbox.  A loop, not recursion, so a run of
        services that finish at once uses no stack."""
        take = self.inbox.take
        waiter = self._waiters[way]
        while True:
            ok, item = take(waiter)
            if not ok or not self._serve(way, item):
                return

    def _arrive(self, way: int, item: Any) -> None:
        if self._serve(way, item):
            self._next(way)

    def _on_finished(self, way: int, _event: Any = None) -> None:
        if self._finish(way):
            self._next(way)

    def _forward(self, way: int, item: Any) -> bool:
        """Hand ``item`` downstream; True when the way is free at once.
        A full outbox holds the way until the parked put is admitted."""
        if self.outbox is not None:
            pending = self.outbox.offer(item)
            if pending is not None:
                pending.callbacks.append(lambda _event: self._next(way))
                return False
        return True

    def _serve(self, way: int, item: Any) -> bool:
        raise NotImplementedError

    def _finish(self, way: int) -> bool:
        raise NotImplementedError


class PipelineUnit(FifoStage):
    """One stage of the decoder pipeline with N parallel ways."""

    def __init__(self, env: Environment, name: str, ways: int,
                 service_time: Callable[[Any], float],
                 inbox: Channel, outbox: Optional[Channel],
                 transform: Optional[Callable[[Any], Any]] = None,
                 clb_cost_per_way: int = 0,
                 tracer: Optional[Tracer] = None):
        super().__init__(env, name, ways, inbox, outbox)
        self.service_time = service_time
        self.transform = transform
        self.clb_cost_per_way = clb_cost_per_way
        self.tracer = tracer
        self.stats = UnitStats(env, name, ways)
        # Request-trace stage label, e.g. "image-decoder.huffman" ->
        # "fpga.huffman" (stable across decoder instances).
        self._trace_stage = "fpga." + name.rsplit(".", 1)[-1]

    @property
    def clb_cost(self) -> int:
        return self.clb_cost_per_way * self.ways

    def _serve(self, way: int, item: Any) -> bool:
        mark_cmd(item, self._trace_stage, "service")
        duration = self.service_time(item)
        if duration < 0:
            raise ValueError(f"{self.name}: negative service time")
        tok = self.stats.busy.begin(self.name)
        trace_tok = (self.tracer.begin("service", f"{self.name}[{way}]")
                     if self.tracer else None)
        self._held[way] = (item, tok, trace_tok)
        self.env.timeout(duration).callbacks.append(self._finished[way])
        return False

    def _finish(self, way: int) -> bool:
        item, tok, trace_tok = self._held[way]
        self._held[way] = None
        if trace_tok is not None:
            self.tracer.end(trace_tok)
        stats = self.stats
        stats.busy.end(tok)
        stats.items.add()
        stats.per_way_items[way] += 1
        if self.transform is not None:
            item = self.transform(item)
        if self.outbox is not None:
            mark_cmd(item, "fpga.queue", "wait")
        return self._forward(way, item)

    def utilization(self) -> float:
        return self.stats.utilization(self.ways)

    def way_imbalance(self) -> float:
        """max/mean per-way item count; ~1.0 means balanced ways."""
        counts = self.stats.per_way_items
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 0.0
