"""FPGAChannel — the host-side abstraction over one FPGA decoder.

Table 1 of the paper defines the surface: ``submit_cmd`` ("submit cmd to
FPGA decoder and launch decoding operation") and ``drain_out`` ("query
the FPGA decoder processing signal asynchronously").  "Each FPGAChannel
is bound to one FPGA decoder and works independently" (S3.4.1).

The channel is also an injection site for :mod:`repro.faults`: an armed
``cmd_drop`` spec loses cmds between host and FIFO, and a
``decoder_crash`` window blacks out the intake entirely — in both cases
the cmd counts as submitted but no FINISH record will ever arrive,
which is exactly the failure FPGAReader's retransmit table covers.
With ``injector=None`` (the default) every hook is a single attribute
test.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Counter, DirectGet, Environment, TimeWeighted
from ..tracing.context import mark_cmd
from .decoder import DecodeCmd, FinishRecord, ImageDecoderMirror

__all__ = ["FPGAChannel"]


class FPGAChannel:
    """Bound to one decoder mirror; owns its FIFO cmd queue."""

    def __init__(self, env: Environment, mirror: ImageDecoderMirror,
                 queue_id: int = 0, injector=None,
                 site: Optional[str] = None, name: Optional[str] = None):
        self.env = env
        self.mirror = mirror
        self.queue_id = queue_id
        self.injector = injector
        self.site = site if site is not None else f"fpga{queue_id}"
        name = name if name is not None else f"ch{queue_id}"
        self.name = name
        self.submitted = Counter(env, name=f"{name}.submitted")
        self.completed = Counter(env, name=f"{name}.completed")
        self.dropped = Counter(env, name=f"{name}.dropped")
        self.outstanding = TimeWeighted(env, 0, name=f"{name}.inflight")
        self._in_flight = 0
        self._recycled = False

    def _lost_in_transit(self) -> bool:
        if self.injector is None:
            return False
        return (self.injector.decoder_down(self.site)
                or self.injector.drop_cmd(self.site))

    # -- Table 1 API ------------------------------------------------------
    def submit_cmd(self, cmd: DecodeCmd):
        """Generator: push one packeted cmd into the FPGA FIFO queue.

        Blocks when the FIFO is at its hardware depth — the natural
        backpressure FPGAReader leans on; a cmd that fits at once costs
        no event.  Consumes no FINISH records: the caller's completion
        side (:meth:`on_finish`, :meth:`wait_one` or :meth:`drain_out`)
        is their only consumer, so a record pending during a submit is
        never lost.
        """
        self._check()
        if self._lost_in_transit():
            self.submitted.add()
            self.dropped.add()
            self._track(0)
            return
        mark_cmd(cmd, "fpga.fifo", "wait")
        yield from self.mirror.cmd_queue.put(cmd)
        self.submitted.add()
        self._track(1)

    def try_submit_cmd(self, cmd: DecodeCmd) -> bool:
        """Non-blocking submit; False when the FIFO is full."""
        self._check()
        if self._lost_in_transit():
            self.submitted.add()
            self.dropped.add()
            self._track(0)
            return True
        # Mark before the put: a put to an idle parser queues the
        # parser's own marks at once.
        mark_cmd(cmd, "fpga.fifo", "wait")
        ok = self.mirror.cmd_queue.try_put(cmd)
        if ok:
            self.submitted.add()
            self._track(1)
        return ok

    def drain_out(self) -> list[FinishRecord]:
        """Non-blocking: collect every FINISH signal currently pending."""
        self._check()
        records = self.mirror.finish_queue.drain()
        if records:
            self.completed.add(len(records))
            self._track(-len(records))
        return records

    def wait_one(self):
        """Generator: block until at least one FINISH record arrives."""
        self._check()
        record = yield from self.mirror.finish_queue.get()
        self.completed.add()
        self._track(-1)
        return record

    def on_finish(self, fn: Callable[[FinishRecord], None]) -> None:
        """Callback form of a :meth:`wait_one` loop: hand each FINISH
        record to ``fn`` inside the DMA completion that raises it, with
        no event of its own, counting it as :meth:`wait_one` does.  The
        consumer stays parked on the decoder's finish queue until the
        channel is recycled; the record it is parked for then is still
        handed over, as to a :meth:`wait_one` already waiting."""
        self._check()
        queue = self.mirror.finish_queue

        def finished(record: FinishRecord) -> None:
            # A loop, not recursion: records queued while ``fn`` ran are
            # handed over here, one after another.
            while True:
                self.completed.add()
                self._track(-1)
                fn(record)
                if self._recycled:
                    return
                ok, record = queue.take(waiter)
                if not ok:
                    return

        waiter = DirectGet(queue, finished)
        ok, record = queue.take(waiter)
        if ok:
            finished(record)

    def recycle(self) -> None:
        """Algorithm 1 line 18: release channel state at shutdown."""
        if self._recycled:
            raise RuntimeError(
                f"FPGAChannel {self.queue_id} recycled twice")
        self._recycled = True

    # -- inspection ----------------------------------------------------------
    def _track(self, delta: int) -> None:
        self._in_flight += delta
        self.outstanding.set(self._in_flight)

    @property
    def in_flight(self) -> int:
        """Submitted minus completed minus dropped cmds: dropped cmds
        were never in the FIFO; they are lost, not pending."""
        return self._in_flight

    def _check(self) -> None:
        if self._recycled:
            raise RuntimeError("FPGAChannel used after recycle()")


def fpga_init(env: Environment, mirror: ImageDecoderMirror,
              queue_id: int = 0, injector=None,
              site: Optional[str] = None) -> FPGAChannel:
    """The paper's ``FPGAInit(Queue_ID)`` (Algorithm 1 line 2)."""
    return FPGAChannel(env, mirror, queue_id=queue_id, injector=injector,
                       site=site)
