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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

import numpy as np

from ..calib import Testbed
from ..jpeg import (JpegDecodeError, coefficients_to_planes, entropy_decode,
                    parse_jpeg, planes_to_image, resize_bilinear)
from ..sim import Channel, Counter, Environment
from ..storage.nvme import NvmeReadError
from ..tracing.context import mark_cmd
from .device import FpgaDevice
from .units import FifoStage, PipelineUnit

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


@dataclass(frozen=True)
class FinishRecord:
    """The FINISH signal raised after the DMA write (Fig. 4).

    ``status == "error"`` means the cmd traversed the pipeline but
    produced no pixels (poison input, device read failure); the record
    still surfaces so the host can account for the slot instead of
    waiting forever.
    """

    cmd_id: int
    batch_tag: object
    dest_phy: int
    dest_offset: int
    out_bytes: int
    finished_at: float
    status: str = "ok"
    error: Optional[str] = None


class DataReader(FifoStage):
    """Fetches source bytes from NVMe or host DRAM (Fig. 4 DataReader)."""

    def __init__(self, mirror: "ImageDecoderMirror"):
        super().__init__(mirror.env, f"{mirror.name}.reader", 1,
                         mirror._fetch_q, mirror._huff_q)
        self.mirror = mirror

    def _serve(self, way: int, cmd: DecodeCmd) -> bool:
        mark_cmd(cmd, "fpga.fetch", "service")
        self._held[way] = cmd
        mirror = self.mirror
        tb = mirror.testbed
        if cmd.source == "disk":
            if mirror.disk is not None:
                try:
                    mirror.disk.read_then(cmd.size_bytes,
                                          self._finished[way])
                except NvmeReadError as exc:
                    # Forward the cmd anyway: the host learns of the
                    # failure from the error FINISH record, not a hang.
                    cmd.error = f"NvmeReadError: {exc}"
                    return self._finish(way)
                return False
            delay = cmd.size_bytes / tb.nvme_read_rate
        elif cmd.source == "dram":
            # DMA read from host memory (data landed there via NIC).
            delay = cmd.size_bytes / tb.fpga_dma_rate
        else:
            raise ValueError(f"unknown source {cmd.source!r}")
        self.env.timeout(delay).callbacks.append(self._finished[way])
        return False

    def _finish(self, way: int) -> bool:
        cmd = self._held[way]
        self._held[way] = None
        mark_cmd(cmd, "fpga.queue", "wait")
        return self._forward(way, cmd)


class DmaWriter(FifoStage):
    """Writes results to host hugepages, then raises FINISH.

    The stage is 1-way and the device's only DMA user, so a write is one
    timeout of ``out_bytes / fpga_dma_rate``, credited to the bound
    device's ``dma_busy`` while it runs.
    """

    def __init__(self, mirror: "ImageDecoderMirror"):
        super().__init__(mirror.env, f"{mirror.name}.dmaw", 1,
                         mirror._dma_q, mirror.finish_queue)
        self.mirror = mirror
        self._written = [partial(self._on_written, way)
                         for way in range(self.ways)]

    def _serve(self, way: int, cmd: DecodeCmd) -> bool:
        mark_cmd(cmd, "fpga.dma", "service")
        mirror = self.mirror
        if cmd.error is not None:
            # No pixels to move; raise an error FINISH immediately so
            # the host can release the slot.
            mirror.decode_errors.add()
            return self._forward(way, FinishRecord(
                cmd_id=cmd.cmd_id, batch_tag=cmd.batch_tag,
                dest_phy=cmd.dest_phy, dest_offset=cmd.dest_offset,
                out_bytes=0, finished_at=self.env.now,
                status="error", error=cmd.error))
        nbytes = cmd.out_bytes
        if nbytes <= 0:
            raise ValueError(f"dma size must be positive, got {nbytes}")
        # The busy tracker is held with the cmd: a mirror swapped out
        # mid-write still credits the device it started on.
        busy = mirror.device.dma_busy if mirror.device is not None else None
        tok = busy.begin("dma") if busy is not None else None
        self._held[way] = (cmd, busy, tok)
        self.env.timeout(
            nbytes / mirror.testbed.fpga_dma_rate
        ).callbacks.append(self._written[way])
        return False

    def _on_written(self, way: int, _event: Any = None) -> None:
        cmd, busy, tok = self._held[way]
        if busy is not None:
            busy.end(tok)
        self._held[way] = cmd
        mirror = self.mirror
        if mirror.functional and cmd.result is not None \
                and mirror.host_pool is not None:
            unit = mirror.host_pool.unit_by_phy(cmd.dest_phy)
            unit.write(cmd.dest_offset, cmd.result)
        if mirror.injector is not None:
            stall = mirror.injector.finish_stall_s(mirror.site)
            if stall > 0.0:
                self.env.timeout(stall).callbacks.append(
                    self._finished[way])
                return
        self._on_finished(way)

    def _finish(self, way: int) -> bool:
        cmd = self._held[way]
        self._held[way] = None
        self.mirror.decoded.add()
        return self._forward(way, FinishRecord(
            cmd_id=cmd.cmd_id, batch_tag=cmd.batch_tag,
            dest_phy=cmd.dest_phy, dest_offset=cmd.dest_offset,
            out_bytes=cmd.out_bytes, finished_at=self.env.now))


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

        depth = testbed.fpga_queue_depth
        self.cmd_queue = Channel(env, capacity=depth, name=f"{name}.fifo")
        self._fetch_q = Channel(env, capacity=depth, name=f"{name}.fetch")
        self._huff_q = Channel(env, capacity=depth, name=f"{name}.huff")
        self._idct_q = Channel(env, capacity=depth, name=f"{name}.idct")
        self._resize_q = Channel(env, capacity=depth, name=f"{name}.resize")
        self._dma_q = Channel(env, capacity=depth, name=f"{name}.dma")
        self.finish_queue = Channel(env, capacity=float("inf"),
                                    name=f"{name}.finish")
        self.decoded = Counter(env, name=f"{name}.decoded")
        self.decode_errors = Counter(env, name=f"{name}.errors")

        tb = testbed
        self.parser = PipelineUnit(
            env, f"{name}.parser", ways=1,
            service_time=lambda cmd: tb.fpga_cmd_overhead_s,
            inbox=self.cmd_queue, outbox=self._fetch_q,
            clb_cost_per_way=CLB_COSTS["parser"])
        self.huffman = PipelineUnit(
            env, f"{name}.huffman", ways=hw,
            service_time=lambda cmd: cmd.size_bytes / tb.fpga_huffman_byte_rate,
            inbox=self._huff_q, outbox=self._idct_q,
            transform=self._huffman_fn,
            clb_cost_per_way=CLB_COSTS["huffman"])
        self.idct = PipelineUnit(
            env, f"{name}.idct", ways=1,
            service_time=lambda cmd: cmd.work_pixels / tb.fpga_idct_pixel_rate,
            inbox=self._idct_q, outbox=self._resize_q,
            transform=self._idct_fn,
            clb_cost_per_way=CLB_COSTS["idct"])
        self.resizer = PipelineUnit(
            env, f"{name}.resizer", ways=rw,
            # Output-driven decimating resizer: line buffers stream the
            # decoded rows through, so cost scales with *output* pixels.
            service_time=lambda cmd: (
                cmd.out_pixels / tb.fpga_resizer_pixel_rate),
            inbox=self._resize_q, outbox=self._dma_q,
            transform=self._resize_fn,
            clb_cost_per_way=CLB_COSTS["resizer"])
        self._units = [self.parser, self.huffman, self.idct, self.resizer]
        self.reader = DataReader(self)
        self.dma = DmaWriter(self)
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
        for unit in self._units:
            unit.start()
        self.reader.start()
        self.dma.start()

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
