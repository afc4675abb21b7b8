"""The image-decoder mirror (paper Figure 4).

Pipeline:  parser -> DataReader -> Huffman decoding unit (4-way) ->
iDCT & RGB (1 unit) -> resizer (2-way) -> DMA -> FINISH arbiter.

Two fidelity levels share this control path:

* **modeled** — commands carry size metadata only; stages charge the
  calibrated service times.  Used by the large experiments.
* **functional** — commands carry real JPEG bytes; the Huffman/iDCT/
  resize stages run the corresponding :mod:`repro.jpeg` code and the
  DMA stage writes real pixels into the host hugepage unit.  Timing is
  still the calibrated model, so both modes behave identically in
  simulated time.

The six stages form a FIFO tandem with blocking after service: a stage
holds a finished cmd until the next stage's buffer, ``fpga_queue_depth``
cmds deep, has room.  Each stage starts cmds in its own arrival order,
and a multi-way stage gives each cmd the way that freed first.  For a
stage S feeding stage T, cmd n's schedule is

    start_S(n) = max(arrive_S(n), leave_S(n-1))
    end_S(n)   = start_S(n) + service_S(n)
    leave_S(n) = max(end_S(n), start_T(n - depth))
    arrive_T(n) = leave_S(n)

:class:`_Tandem` evaluates this recursion stage by stage and keeps a
kernel event only where a schedule cannot be known earlier: a Huffman or
resizer completion (several ways let cmds overtake, so the next stage's
arrival order is their completion order), a disk read's issue when its
start lies ahead of the clock (the :class:`~repro.storage.NvmeDisk` is
shared, so reads must reach it in clock order) and the DMA write
completion that raises FINISH.  The parser, the DataReader and the iDCT
have one way and a service time fixed by the cmd, or by the disk, which
returns a read's end when it is issued; so their times are computed
inside the event before them.  A disk armed with an ``nvme_latency``
spec cannot know a read's end at issue, and the DataReader waits for
its completion event instead.  Every time comes from the same additions
and comparisons an event per service would make, so the schedule is
bit-identical to a chain of :class:`~repro.fpga.units.PipelineUnit`
stages.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

import numpy as np

from ..calib import Testbed
from ..jpeg import (JpegDecodeError, coefficients_to_planes, entropy_decode,
                    parse_jpeg, planes_to_image, resize_bilinear)
from ..sim import (BusyTracker, Channel, Counter, Environment, Event,
                   LatencyRecorder, TimeWeighted)
from ..sim.core import TRIGGERED, _schedule_at
from ..sim.monitor import registry_active
from ..storage.nvme import NvmeReadError
from ..tracing.context import mark_cmd, mark_cmd_at
from .device import FpgaDevice

__all__ = ["DecodeCmd", "FinishRecord", "ImageDecoderMirror"]

# Approximate logic cost (in CLB units) of each stage instance on the
# Arria 10; chosen so the paper's 4-way Huffman + 2-way resizer
# configuration fits the board but 5-way/3-way does not (S3.3's
# "hardware constraints").
CLB_COSTS = {
    "parser": 10_000,
    "datareader": 14_000,
    "mmu": 8_000,
    "huffman": 46_000,
    "idct": 64_000,
    "resizer": 52_000,
    "dma": 12_000,
}


@dataclass
class DecodeCmd:
    """One decode command, as pushed through the FPGA FIFO queue.

    The host bridger encapsulates the file metadata and the *physical*
    destination address (+ offset within the batch unit) — Algorithm 1
    line 12.
    """

    cmd_id: int
    source: str                     # "disk" | "dram"
    size_bytes: int
    work_pixels: int                # decode work incl. chroma
    out_h: int
    out_w: int
    channels: int
    dest_phy: int
    dest_offset: int
    batch_tag: object = None        # opaque host-side batch identity
    payload: Optional[bytes] = field(default=None, repr=False)
    poisoned: bool = False          # fault injection: corrupt source bytes
    error: Optional[str] = None     # first stage failure, sticky
    # Causal trace context (repro.tracing): the originating request's
    # trace, plus the attempt epoch it was stamped with — a retried cmd's
    # ghost predecessor fails the epoch check and stops marking.
    trace: object = field(default=None, repr=False)
    trace_attempt: int = 0
    # Stage intermediates (functional mode).
    _parsed: object = field(default=None, repr=False)
    _coeffs: object = field(default=None, repr=False)
    _image: object = field(default=None, repr=False)
    result: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def out_bytes(self) -> int:
        return self.out_h * self.out_w * self.channels

    @property
    def out_pixels(self) -> int:
        return self.out_h * self.out_w


class FinishRecord(NamedTuple):
    """The FINISH signal raised after the DMA write (Fig. 4).

    ``status == "error"`` means the cmd traversed the pipeline but
    produced no pixels (poison input, device read failure); the record
    still surfaces so the host can account for the slot instead of
    waiting forever.  A named tuple, not a dataclass: one is built per
    decoded cmd, and a tuple is about three times cheaper to construct.
    """

    cmd_id: int
    batch_tag: object
    dest_phy: int
    dest_offset: int
    out_bytes: int
    finished_at: float
    status: str = "ok"
    error: Optional[str] = None


# The start of "the cmd ``depth`` places ahead" when there is none.
_NONE_AHEAD = -math.inf

# _Tandem.dirty bits: a stage's start can free the cmd held upstream, so
# it marks that stage (parser, DataReader, Huffman, iDCT, resizer) or the
# blocked host puts (a parser start) for the pump.  Hand-offs downstream
# are direct calls.
_P, _R, _H, _I, _Z, _F = 1, 2, 4, 8, 16, 32

class _Wake:
    """A reusable heap entry: when the kernel runs it, it calls
    ``fn(arg)``.  Each way pushes its own entry again for every service,
    so a service costs one heap push and no fresh event."""

    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg=None):
        self.fn = fn
        self.arg = arg

    def _run_callbacks(self) -> None:
        self.fn(self.arg)


class _Starts:
    """One stage's start times in its arrival order, for the blocking
    rule upstream.  Lookups only move forward, so the starts before the
    last one asked for are dropped."""

    __slots__ = ("times", "base")

    def __init__(self):
        self.times: deque[float] = deque()
        self.base = 0

    def at(self, j: int) -> Optional[float]:
        """Start of the ``j``-th arrival: ``-inf`` when ``j < 0``, None
        while it is not determined yet."""
        times = self.times
        i = j - self.base           # base <= j whenever j >= 0
        if i <= 0:
            if i < 0:
                return _NONE_AHEAD
            return times[0] if times else None
        if i >= len(times):
            return None
        self.base = j
        if i == 1:
            times.popleft()
        else:
            popleft = times.popleft
            for _ in range(i):
                popleft()
        return times[0]


class _StageStats:
    """:class:`~repro.fpga.units.UnitStats`' surface for a tandem stage.
    A folded stage has one way, whose items are ``items``."""

    def __init__(self, env: Environment, name: str, ways: int,
                 folded: bool):
        self.busy = BusyTracker(env, name=f"{name}.busy")
        self.items = Counter(env, name=f"{name}.items")
        self._per_way = None if folded else [0] * ways

    @property
    def per_way_items(self) -> list[int]:
        if self._per_way is None:
            return [int(self.items.total)]
        return self._per_way

    def utilization(self, ways: int) -> float:
        """Mean busy fraction per way (1.0 = the unit is the bottleneck)."""
        return self.busy.cores() / ways if ways else 0.0


class _Stage:
    """One replicated unit of the tandem, with the observable surface of
    a :class:`~repro.fpga.units.PipelineUnit`: ``ways``, ``stats``,
    ``utilization()``, ``way_imbalance()``, ``clb_cost`` and ``tracer``.

    A *folded* stage (one way, service known from the cmd) dates each
    service on its stats when it is computed, possibly ahead of the
    clock (:meth:`~repro.sim.BusyTracker.span_at`,
    :meth:`~repro.sim.Counter.add_at`).  An evented stage's
    :class:`_Ways` open each service at its start, which may lie ahead
    of the clock, and credit it at its completion event, as a
    PipelineUnit does.
    """

    def __init__(self, env: Environment, name: str, ways: int,
                 clb_cost_per_way: int, folded: bool):
        if ways < 1:
            raise ValueError(f"{name}: ways must be >= 1")
        self.env = env
        self.name = name
        self.ways = ways
        self.clb_cost_per_way = clb_cost_per_way
        self.tracer = None
        self.stats = _StageStats(env, name, ways, folded)
        # Request-trace stage label, e.g. "image-decoder.huffman" ->
        # "fpga.huffman" (stable across decoder instances).
        self._trace_stage = "fpga." + name.rsplit(".", 1)[-1]

    @property
    def clb_cost(self) -> int:
        return self.clb_cost_per_way * self.ways

    def utilization(self) -> float:
        return self.stats.utilization(self.ways)

    def way_imbalance(self) -> float:
        """max/mean per-way item count; ~1.0 means balanced ways."""
        counts = self.stats.per_way_items
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 0.0


class _CmdFifo:
    """The decoder's host-facing cmd FIFO: ``put``, ``try_put`` and
    ``len`` behave as on a :class:`~repro.sim.Channel` of capacity
    ``fpga_queue_depth`` that the parser takes from.  Built under a
    metrics registry it keeps the same ``occupancy`` and ``wait``
    monitors, plain instruments that take each admission and each
    parser take dated, possibly ahead of the clock (DESIGN §10)."""

    def __init__(self, tandem: "_Tandem", name: str):
        self._tandem = tandem
        self.occupancy: Optional[TimeWeighted] = None
        self.wait: Optional[LatencyRecorder] = None
        if registry_active():
            self.occupancy = TimeWeighted(tandem.env, 0,
                                          name=f"{name}.occupancy")
            self.wait = LatencyRecorder(name=f"{name}.wait", env=tandem.env)
        tandem.fifo = self

    def __len__(self) -> int:
        return self._tandem.waiting()

    def put(self, cmd: DecodeCmd):
        """Generator: blocks while the FIFO is full.  A cmd that fits
        now is admitted inside the call, with no event."""
        pending = self._tandem.offer(cmd)
        if pending is not None:
            yield pending

    def try_put(self, cmd: DecodeCmd) -> bool:
        """Non-blocking put; False when the FIFO is full."""
        return self._tandem.try_put(cmd)


class _Tandem:
    """The image decoder's stages as one FIFO tandem (module docstring).

    State per stage, in its arrival order: a queue of ``(cmd, arrival)``
    not yet started, the start times the stage upstream blocks on, and
    the cmd held after service until the stage downstream has room.
    :meth:`_pump` advances every stage as far as its inputs are
    determined; it runs inside each kept event and each host put.
    """

    def __init__(self, mirror: "ImageDecoderMirror"):
        self.mirror = mirror
        env = self.env = mirror.env
        tb = mirror.testbed
        self.depth = tb.fpga_queue_depth
        self.functional = mirror.functional
        self.started = False
        self.dirty = 0
        self.s_parse = tb.fpga_cmd_overhead_s
        self.dma_rate = tb.fpga_dma_rate    # host DRAM reads and writes
        self.nvme_rate = tb.nvme_read_rate
        self.idct_rate = tb.fpga_idct_pixel_rate
        self.fifo: Optional[_CmdFifo] = None

        # Host side of the FIFO.  ``puts``: blocked puts, in order.
        # ``takes``: parser starts made ahead of the clock, (start,
        # admitted), for ``len``; each new one drops those now passed.
        self.puts: deque = deque()
        self.admitted = 0
        self.takes: deque = deque()

        # Parser: one way, folded.
        self.p_q: deque = deque()
        self.p_starts = _Starts()
        self.p_n = 0
        self.p_free = _NONE_AHEAD
        self.p_held = None
        # DataReader: one way, folded; a disk read waits for its issue.
        self.r_q: deque = deque()
        self.r_starts = _Starts()
        self.r_n = 0
        self.r_free = _NONE_AHEAD
        self.r_held = None
        self.r_reading: Optional[DecodeCmd] = None
        self.r_wake = _Wake(self._read_at_start)
        # iDCT: one way, folded.
        self.i_q: deque = deque()
        self.i_starts = _Starts()
        self.i_n = 0
        self.i_free = _NONE_AHEAD
        self.i_held = None
        # DMA: one way, evented.
        self.d_q: deque = deque()
        self.d_starts = _Starts()
        self.d_cmd: Optional[DecodeCmd] = None
        self.d_bytes = 0
        self.d_busy = None
        self.d_tok = None
        self.d_stalled = False
        self.d_wake = _Wake(self._d_done)
        # Huffman and resizer: several ways, evented.
        huff_rate = tb.fpga_huffman_byte_rate
        resize_rate = tb.fpga_resizer_pixel_rate
        # Poison and the functional entropy decode act at completion.
        self.h = _Ways(self, mirror.huffman, mirror._huffman_fn,
                       lambda cmd: cmd.size_bytes / huff_rate,
                       self.i_starts, self.i_q, self._step_i, _R, "r_held")
        # Output-driven decimating resizer: line buffers stream the
        # decoded rows through, so cost scales with *output* pixels.
        self.z = _Ways(self, mirror.resizer,
                       mirror._resize_fn if mirror.functional else None,
                       lambda cmd: cmd.out_pixels / resize_rate,
                       self.d_starts, self.d_q, self._step_d, _I, "i_held")
        self._steps = {_P: self._step_p, _R: self._step_r, _H: self.h.step,
                       _I: self._step_i, _Z: self.z.step, _F: self._step_puts}

    # -- host side ---------------------------------------------------------
    def start(self) -> None:
        # The parser starts taking cmds when this event fires, not here:
        # cmds put before then wait and count against the FIFO's depth.
        kick = Event(self.env)
        kick.callbacks.append(self._kick)
        kick.succeed()

    def _kick(self, _event: Any) -> None:
        self.started = True
        self.p_free = self.env._now
        self._step_p()
        self._pump()

    def offer(self, cmd: DecodeCmd) -> Optional[Event]:
        """Admit ``cmd`` at max(now, start_P(n - depth)).  Returns None
        when that is now; otherwise an event that fires at the
        admission."""
        env = self.env
        now = env._now
        room = None if self.puts else \
            self.p_starts.at(self.admitted - self.depth)
        if room is None:
            event = Event(env)
            self.puts.append((cmd, now, event))
            return event
        if room > now:
            event = Event(env)
            self._admit(cmd, now, room, event)
        else:
            event = None
            self._admit(cmd, now, now, None)
        self._step_p()
        if self.dirty:
            self._pump()
        return event

    def try_put(self, cmd: DecodeCmd) -> bool:
        if self.puts:
            return False
        room = self.p_starts.at(self.admitted - self.depth)
        now = self.env._now
        if room is None or room > now:
            return False
        self._admit(cmd, now, now, None)
        self._step_p()
        if self.dirty:
            self._pump()
        return True

    def _admit(self, cmd: DecodeCmd, called: float, at: float,
               event: Optional[Event]) -> None:
        self.admitted += 1
        self.p_q.append((cmd, at, called))
        occupancy = self.fifo.occupancy
        if occupancy is not None:
            occupancy.adjust_at(at, 1)
        if event is not None:
            if at == self.env._now:
                event.succeed()
            else:
                event._state = TRIGGERED
                _schedule_at(self.env, at, event)

    def _step_puts(self) -> None:
        puts = self.puts
        while puts:
            # Room at the parser start of the cmd ``depth`` places ahead.
            room = self.p_starts.at(self.admitted - self.depth)
            if room is None:
                break
            cmd, called, event = puts.popleft()
            now = self.env._now
            self._admit(cmd, called, room if room > now else now, event)
        self._step_p()

    def waiting(self) -> int:
        """Cmds admitted by now that the parser has not started."""
        now = self.env._now
        return (sum(1 for _, at, _ in self.p_q if at <= now)
                + sum(1 for start, at in self.takes if at <= now < start))

    # -- the recursion -----------------------------------------------------
    def _pump(self) -> None:
        """Run the stages marked dirty until none is; each advances as
        far as its inputs are determined."""
        steps = self._steps
        dirty = self.dirty
        while dirty:
            low = dirty & -dirty
            self.dirty = dirty ^ low
            steps[low]()
            dirty = self.dirty

    def _step_p(self) -> None:
        if not self.started:
            return
        q = self.p_q
        unit = self.mirror.parser
        while True:
            held = self.p_held
            if held is not None:
                need = self.r_starts.at(self.p_n - 1 - self.depth)
                if need is None:
                    return
                cmd, end = held
                leave = end if end >= need else need
                self.p_held = None
                self.p_free = leave
                self.r_q.append((cmd, leave))
                self._step_r()
            if not q:
                return
            cmd, at, called = q.popleft()
            free = self.p_free
            start = at if at >= free else free
            self.p_starts.times.append(start)
            if self.puts:
                self.dirty |= _F
            now = self.env._now
            if start > now:
                # A take ahead of the clock: ``len`` sees it when the
                # clock gets there.
                takes = self.takes
                while takes and takes[0][0] <= now:
                    takes.popleft()
                takes.append((start, at))
            fifo = self.fifo
            if fifo.occupancy is not None:
                fifo.occupancy.adjust_at(start, -1)
                fifo.wait.record_at(start, start - called)
            end = start + self.s_parse
            unit.stats.busy.span_at(start, end, unit.name)
            unit.stats.items.add_at(end)
            if unit.tracer is not None:
                unit.tracer.span_at("service", f"{unit.name}[0]", start, end)
            if cmd.trace is not None:
                mark_cmd_at(cmd, start, "fpga.parser", "service")
                mark_cmd_at(cmd, end, "fpga.queue", "wait")
            self.p_held = (cmd, end)
            self.p_n += 1

    def _step_r(self) -> None:
        q = self.r_q
        while True:
            held = self.r_held
            if held is not None:
                need = self.h.starts.at(self.r_n - 1 - self.depth)
                if need is None:
                    return
                cmd, end = held
                leave = end if end >= need else need
                self.r_held = None
                self.r_free = leave
                h = self.h
                h.q.append((cmd, leave))
                if h.idle:
                    h.step()
            if not q or self.r_reading is not None:
                return
            cmd, at = q.popleft()
            free = self.r_free
            start = at if at >= free else free
            self.r_starts.times.append(start)
            self.r_n += 1
            if self.p_held is not None:
                self.dirty |= _P
            source = cmd.source
            if source == "dram":
                # DMA read from host memory (data landed there via NIC).
                end = start + cmd.size_bytes / self.dma_rate
            elif source == "disk":
                if self.mirror.disk is not None:
                    # The shared disk takes the read at its start time.
                    self.r_reading = cmd
                    if start > self.env._now:
                        _schedule_at(self.env, start, self.r_wake)
                    else:
                        self._issue_read()
                    continue
                end = start + cmd.size_bytes / self.nvme_rate
            else:
                raise ValueError(f"unknown source {source!r}")
            if cmd.trace is not None:
                mark_cmd_at(cmd, start, "fpga.fetch", "service")
                mark_cmd_at(cmd, end, "fpga.queue", "wait")
            self.r_held = (cmd, end)

    def _issue_read(self) -> None:
        """Issue the read now.  The disk returns its end at once, and
        the DataReader holds the cmd until then, as for a DRAM read;
        an evented disk calls :meth:`_read_event` at the end instead."""
        cmd = self.r_reading
        disk = self.mirror.disk
        now = self.env._now
        mark_cmd_at(cmd, now, "fpga.fetch", "service")
        try:
            if disk.evented:
                disk.read_then(cmd.size_bytes, self._read_event)
                return
            end = disk.submit(cmd.size_bytes)
        except NvmeReadError as exc:
            # Forward the cmd anyway: the host learns of the failure
            # from the error FINISH record, not a hang.
            cmd.error = f"NvmeReadError: {exc}"
            end = now
        self._read_done(end)

    def _read_at_start(self, _arg: Any) -> None:
        self._issue_read()
        self._step_r()
        self._pump()

    def _read_done(self, end: float) -> None:
        """The read ends at ``end``: the DataReader holds its cmd."""
        cmd = self.r_reading
        mark_cmd_at(cmd, end, "fpga.queue", "wait")
        self.r_held = (cmd, end)
        self.r_reading = None

    def _read_event(self, _value: Any) -> None:
        self._read_done(self.env._now)
        self._step_r()
        self._pump()

    def _step_i(self) -> None:
        q = self.i_q
        while True:
            held = self.i_held
            if held is not None:
                need = self.z.starts.at(self.i_n - 1 - self.depth)
                if need is None:
                    return
                cmd, end = held
                leave = end if end >= need else need
                self.i_held = None
                self.i_free = leave
                z = self.z
                z.q.append((cmd, leave))
                if z.idle:
                    z.step()
            if not q:
                return
            cmd, at = q.popleft()
            free = self.i_free
            start = at if at >= free else free
            self.i_starts.times.append(start)
            self.i_n += 1
            if self.h.blocked:
                self.dirty |= _H
            duration = cmd.work_pixels / self.idct_rate
            if duration < 0:
                raise ValueError(
                    f"{self.mirror.idct.name}: negative service time")
            end = start + duration
            unit = self.mirror.idct
            unit.stats.busy.span_at(start, end, unit.name)
            unit.stats.items.add_at(end)
            if unit.tracer is not None:
                unit.tracer.span_at("service", f"{unit.name}[0]", start, end)
            if cmd.trace is not None:
                mark_cmd_at(cmd, start, "fpga.idct", "service")
                mark_cmd_at(cmd, end, "fpga.queue", "wait")
            if self.functional:
                cmd = self.mirror._idct_fn(cmd)
            self.i_held = (cmd, end)

    def _step_d(self) -> None:
        q = self.d_q
        mirror = self.mirror
        env = self.env
        while q and self.d_cmd is None:
            # The DMA way is free and the cmd has arrived, both by now:
            # it starts now.
            cmd, _ = q.popleft()
            now = env._now
            self.d_starts.times.append(now)
            if self.z.blocked:
                self.dirty |= _Z
            if cmd.trace is not None:
                mark_cmd(cmd, "fpga.dma", "service")
            if cmd.error is not None:
                # No pixels to move; raise an error FINISH immediately
                # so the host can release the slot.
                mirror.decode_errors.add()
                mirror.finish_queue.offer(FinishRecord(
                    cmd.cmd_id, cmd.batch_tag, cmd.dest_phy,
                    cmd.dest_offset, 0, now, "error", cmd.error))
                continue
            nbytes = cmd.out_bytes
            if nbytes <= 0:
                raise ValueError(f"dma size must be positive, got {nbytes}")
            # The busy tracker is held with the cmd: a mirror swapped
            # out mid-write still credits the device it started on.
            busy = mirror.device.dma_busy if mirror.device is not None \
                else None
            self.d_tok = busy.begin("dma") if busy is not None else None
            self.d_busy = busy
            self.d_cmd = cmd
            self.d_bytes = nbytes
            self.d_stalled = False
            _schedule_at(env, now + nbytes / self.dma_rate, self.d_wake)

    def _d_done(self, _arg: Any) -> None:
        cmd = self.d_cmd
        mirror = self.mirror
        env = self.env
        if not self.d_stalled:
            if self.d_busy is not None:
                self.d_busy.end(self.d_tok)
            if mirror.functional and cmd.result is not None \
                    and mirror.host_pool is not None:
                unit = mirror.host_pool.unit_by_phy(cmd.dest_phy)
                unit.write(cmd.dest_offset, cmd.result)
            if mirror.injector is not None:
                stall = mirror.injector.finish_stall_s(mirror.site)
                if stall > 0.0:
                    self.d_stalled = True
                    _schedule_at(env, env._now + stall, self.d_wake)
                    return
        self.d_cmd = self.d_busy = self.d_tok = None
        mirror.decoded.add()
        mirror.finish_queue.offer(FinishRecord(
            cmd.cmd_id, cmd.batch_tag, cmd.dest_phy, cmd.dest_offset,
            self.d_bytes, env._now))
        if self.d_q:
            self._step_d()
            self._pump()


class _Ways:
    """A multi-way evented stage (Huffman, resizer).

    Cmds start in arrival order; each takes the idle way that freed
    first.  Idle ways sit on a heap ranked ``(time, kind, order)``: at
    equal times a way freed by its own completion (kind 0, in completion
    order) precedes one released by the stage downstream (kind 1, in
    release order), as their events run.  The kick parks every way at
    once, in way order.
    """

    def __init__(self, tandem: _Tandem, unit: _Stage, transform, service,
                 down_starts: _Starts, down_q: deque, down_step,
                 up_bit: int, up_held: str):
        self.tandem = tandem
        self.unit = unit
        self.busy = unit.stats.busy
        self.items = unit.stats.items
        self.per_way = unit.stats._per_way
        self.transform = transform
        self.service = service
        self.down_starts = down_starts
        self.down_q = down_q
        self.down_step = down_step
        self.up_bit = up_bit
        # The upstream stage's held-cmd attribute on the tandem: a start
        # here can only unblock a cmd held there.
        self.up_held = up_held
        ways = unit.ways
        self.q: deque = deque()
        self.starts = _Starts()
        self.idle: list = [(_NONE_AHEAD, 0, w, w) for w in range(ways)]
        self.cmd: list = [None] * ways
        self.start: list = [0.0] * ways
        self.end: list = [0.0] * ways
        self.tok: list = [0] * ways         # busy-interval tokens
        self.wakes = [_Wake(self.finish, w) for w in range(ways)]
        self.blocked: deque = deque()       # (way, cmd, end, index)
        self.out = 0                        # downstream index of the next
        self.order = ways

    def step(self) -> None:
        """Release blocked ways and start queued cmds, as far as known."""
        tandem = self.tandem
        blocked = self.blocked
        idle = self.idle
        if blocked:
            depth = tandem.depth
            while blocked:
                way, cmd, end, k = blocked[0]
                need = self.down_starts.at(k - depth)
                if need is None:
                    break
                blocked.popleft()
                leave = end if end >= need else need
                heappush(idle, (leave, 1, self.order, way))
                self.order += 1
                self.down_q.append((cmd, leave))
                self.down_step()
        q = self.q
        if not q or not idle:
            return
        env = tandem.env
        busy = self.cmd
        starts = self.starts.times
        while q and idle:
            at, kind, _, way = idle[0]
            if kind and any(c is not None and e == at
                            for c, e in zip(busy, self.end)):
                # A busy way ending at this release may free ahead of it.
                break
            heappop(idle)
            cmd, arrive = q.popleft()
            start = arrive if arrive >= at else at
            starts.append(start)
            duration = self.service(cmd)
            if duration < 0:
                raise ValueError(f"{self.unit.name}: negative service time")
            end = start + duration
            busy[way] = cmd
            self.start[way] = start
            self.end[way] = end
            self.tok[way] = self.busy.begin_at(start, self.unit.name)
            if cmd.trace is not None:
                mark_cmd_at(cmd, start, self.unit._trace_stage, "service")
            _schedule_at(env, end, self.wakes[way])
        if getattr(tandem, self.up_held) is not None:
            tandem.dirty |= self.up_bit

    def finish(self, way: int) -> None:
        """The completion event of ``way``'s service: credit it as a
        PipelineUnit does, transform the cmd, then hand it on in
        completion order or hold the way until the next stage has room.
        """
        tandem = self.tandem
        cmd = self.cmd[way]
        self.cmd[way] = None
        unit = self.unit
        now = tandem.env._now
        self.busy.end(self.tok[way])
        self.items.add()
        self.per_way[way] += 1
        if unit.tracer is not None:
            unit.tracer.span_at("service", f"{unit.name}[{way}]",
                                self.start[way], now)
        if self.transform is not None:
            cmd = self.transform(cmd)
        if cmd.trace is not None:
            mark_cmd(cmd, "fpga.queue", "wait")
        k = self.out
        self.out = k + 1
        need = None if self.blocked else self.down_starts.at(k - tandem.depth)
        if need is None:
            self.blocked.append((way, cmd, now, k))
        else:
            if need <= now:
                heappush(self.idle, (now, 0, self.order, way))
                self.down_q.append((cmd, now))
            else:
                heappush(self.idle, (need, 1, self.order, way))
                self.down_q.append((cmd, need))
            self.order += 1
            self.down_step()
        if self.q:
            self.step()
        if tandem.dirty:
            tandem._pump()


class ImageDecoderMirror:
    """The JPEG decode+resize mirror, pluggable into :class:`FpgaDevice`."""

    def __init__(self, env: Environment, testbed: Testbed,
                 huffman_ways: Optional[int] = None,
                 resizer_ways: Optional[int] = None,
                 functional: bool = False,
                 host_pool=None,
                 disk=None,
                 name: str = "image-decoder",
                 injector=None,
                 site: Optional[str] = None):
        self.env = env
        self.testbed = testbed
        self.name = name
        self.functional = functional
        self.host_pool = host_pool    # MemManager for functional DMA writes
        self.disk = disk              # NvmeDisk for source == "disk"
        self.injector = injector
        self.site = site if site is not None else name
        self.device: Optional[FpgaDevice] = None
        hw = huffman_ways if huffman_ways is not None \
            else testbed.fpga_huffman_ways
        rw = resizer_ways if resizer_ways is not None \
            else testbed.fpga_resizer_ways

        self.parser = _Stage(env, f"{name}.parser", 1,
                             CLB_COSTS["parser"], folded=True)
        self.huffman = _Stage(env, f"{name}.huffman", hw,
                              CLB_COSTS["huffman"], folded=False)
        self.idct = _Stage(env, f"{name}.idct", 1, CLB_COSTS["idct"],
                           folded=True)
        self.resizer = _Stage(env, f"{name}.resizer", rw,
                              CLB_COSTS["resizer"], folded=False)
        self._units = [self.parser, self.huffman, self.idct, self.resizer]
        self._tandem = _Tandem(self)
        self.cmd_queue = _CmdFifo(self._tandem, f"{name}.fifo")
        self.finish_queue = Channel(env, capacity=float("inf"),
                                    name=f"{name}.finish")
        self.decoded = Counter(env, name=f"{name}.decoded")
        self.decode_errors = Counter(env, name=f"{name}.errors")
        self._started = False

    # -- fidelity-dependent stage bodies ---------------------------------
    def _huffman_fn(self, cmd: DecodeCmd) -> DecodeCmd:
        if cmd.error is not None:
            return cmd
        if self.functional and cmd.payload is not None:
            try:
                cmd._parsed = parse_jpeg(cmd.payload)
                cmd._coeffs = entropy_decode(cmd._parsed)
            except JpegDecodeError as exc:
                cmd.error = f"{type(exc).__name__}: {exc}"
                cmd._parsed = cmd._coeffs = None
        elif cmd.poisoned:
            # Modeled mode: no real bytes to choke on, so the poison flag
            # stands in for the parse failure the hardware would hit.
            cmd.error = "BadHuffmanCodeError: poisoned source (modeled)"
        return cmd

    def _idct_fn(self, cmd: DecodeCmd) -> DecodeCmd:
        if cmd.error is None and self.functional and cmd._parsed is not None:
            planes = coefficients_to_planes(cmd._parsed, cmd._coeffs)
            cmd._image = planes_to_image(cmd._parsed, planes)
            cmd._coeffs = None
        return cmd

    def _resize_fn(self, cmd: DecodeCmd) -> DecodeCmd:
        if cmd.error is None and self.functional and cmd._image is not None:
            cmd.result = resize_bilinear(cmd._image, cmd.out_h, cmd.out_w)
            cmd._image = None
            cmd._parsed = None
        return cmd

    # -- device binding ----------------------------------------------------
    def clb_cost(self) -> int:
        return sum(u.clb_cost for u in self._units) + \
            CLB_COSTS["datareader"] + CLB_COSTS["mmu"] + CLB_COSTS["dma"]

    def bind(self, device: FpgaDevice) -> None:
        self.device = device
        self.start()

    def shutdown(self) -> None:
        # Stages die with the environment; nothing persistent to undo.
        self.device = None

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._tandem.start()

    # -- analysis ------------------------------------------------------------
    def stage_utilizations(self) -> dict[str, float]:
        return {u.name.rsplit(".", 1)[-1]: u.utilization()
                for u in self._units}

    def bottleneck(self) -> str:
        utils = self.stage_utilizations()
        return max(utils, key=utils.get)

    def throughput_bound(self, size_bytes: int, work_pixels: int,
                         out_pixels: int) -> float:
        """Analytic steady-state images/s bound for a given image shape."""
        tb = self.testbed
        stage_rates = [
            self.huffman.ways * tb.fpga_huffman_byte_rate / size_bytes,
            tb.fpga_idct_pixel_rate / work_pixels,
            self.resizer.ways * tb.fpga_resizer_pixel_rate / out_pixels,
            1.0 / tb.fpga_cmd_overhead_s,
        ]
        return min(stage_rates)
