"""The image decoder's FIFO tandem against the event-driven spec.

The spec is a chain of event-driven stages of the decoder's shape (ways
1, 1, 4, 1, 2, 1) joined by channels of the FIFO depth: one event per
service, a way held after service until the next buffer has room.  Five
stages are :class:`~repro.fpga.PipelineUnit` instances; the DMA stage is
a :class:`~repro.fpga.units.FifoStage` that, as the board's DMA does,
raises an error FINISH at once instead of spending a service on it.
The tandem computes the single-way stages' times without events, so
this property drives both side by side and requires the same schedule,
to the bit.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calib import DEFAULT_TESTBED
from repro.fpga import DecodeCmd, FpgaDevice, ImageDecoderMirror, PipelineUnit
from repro.fpga.units import FifoStage
from repro.sim import BusyTracker, Channel, Environment
from repro.telemetry import MetricsRegistry
from repro.tracing.context import RequestTrace, mark_cmd

STAGES = ("parser", "huffman", "idct", "resizer")


class SpecDma(FifoStage):
    """One DMA way: a write is one timeout; a failed cmd's error FINISH
    is raised when the way takes it, with no service."""

    def __init__(self, env, rate, inbox, outbox):
        super().__init__(env, "dma", 1, inbox, outbox)
        self.rate = rate
        self.busy = BusyTracker(env, name="dma.busy")

    def _serve(self, way, cmd):
        mark_cmd(cmd, "fpga.dma", "service")
        if cmd.error is not None:
            return self._forward(way, (cmd.cmd_id, "error", self.env.now))
        self._held[way] = (cmd, self.busy.begin("dma"))
        self.env.timeout(cmd.out_bytes / self.rate).callbacks.append(
            self._finished[way])
        return False

    def _finish(self, way):
        cmd, tok = self._held[way]
        self._held[way] = None
        self.busy.end(tok)
        return self._forward(way, (cmd.cmd_id, "ok", self.env.now))


def spec_chain(env, tb):
    """The decoder as six PipelineUnits; returns (fifo, units, finished)."""
    depth = tb.fpga_queue_depth
    fifo, fetch, huff, idct, resize, dma = (
        Channel(env, capacity=depth, name=n)
        for n in ("fifo", "fetch", "huff", "idct", "resize", "dma"))
    finished = Channel(env, name="finish")

    def poison(cmd):
        if cmd.error is None and cmd.poisoned:
            cmd.error = "BadHuffmanCodeError: poisoned source (modeled)"
        return cmd

    def read_time(cmd):
        rate = tb.fpga_dma_rate if cmd.source == "dram" else tb.nvme_read_rate
        return cmd.size_bytes / rate

    units = {
        "parser": PipelineUnit(env, "parser", 1,
                               lambda c: tb.fpga_cmd_overhead_s, fifo, fetch),
        "reader": PipelineUnit(env, "spec.fetch", 1, read_time, fetch, huff),
        "huffman": PipelineUnit(
            env, "huffman", tb.fpga_huffman_ways,
            lambda c: c.size_bytes / tb.fpga_huffman_byte_rate, huff, idct,
            transform=poison),
        "idct": PipelineUnit(
            env, "idct", 1, lambda c: c.work_pixels / tb.fpga_idct_pixel_rate,
            idct, resize),
        "resizer": PipelineUnit(
            env, "resizer", tb.fpga_resizer_ways,
            lambda c: c.out_pixels / tb.fpga_resizer_pixel_rate, resize, dma),
        "dma": SpecDma(env, tb.fpga_dma_rate, dma, finished),
    }
    for unit in units.values():
        unit.start()
    return fifo, units, finished


def tandem(env, tb):
    device = FpgaDevice(env, tb)
    mirror = ImageDecoderMirror(env, tb)
    device.load_mirror(mirror)
    return mirror, device


def make_cmds(env, specs):
    """One traced cmd per spec: a request trace rides every cmd."""
    cmds = []
    for i, spec in enumerate(specs):
        source, poisoned, size, work, out_h, out_w, channels = spec
        cmds.append(DecodeCmd(
            cmd_id=i, source=source, size_bytes=size, work_pixels=work,
            out_h=out_h, out_w=out_w, channels=channels, dest_phy=0,
            dest_offset=0, poisoned=poisoned,
            trace=RequestTrace(lambda: env.now, "host")))
    return cmds


def submitter(env, fifo, cmds, bursts, admitted):
    def put(cmd):
        mark_cmd(cmd, "fpga.fifo", "wait")     # as FPGAChannel does
        yield from fifo.put(cmd)
        admitted.append(env.now)

    def run(env):
        it = iter(cmds)
        for gap, size in bursts:
            if gap:
                yield env.timeout(gap)
            for _ in range(size):
                cmd = next(it, None)
                if cmd is None:
                    return
                yield from put(cmd)
        for cmd in it:
            yield from put(cmd)
    return run(env)


def observe(units, dma_busy, fifo, cmds):
    """Everything a reader can see, for units with a UnitStats surface."""
    return {
        "busy": {s: units[s].stats.busy.busy_seconds() for s in STAGES},
        "items": {s: units[s].stats.items.total for s in STAGES},
        "ways": {s: list(units[s].stats.per_way_items) for s in STAGES},
        "dma": dma_busy,
        "fifo": len(fifo),
        "fifo.occupancy": (fifo.occupancy.value, fifo.occupancy.mean(),
                           fifo.occupancy.max_value,
                           fifo.occupancy.min_value),
        "fifo.wait": (fifo.wait.count, fifo.wait.total(),
                      fifo.wait.samples),
        "traces": [(c.trace.current_stage,
                    [(g.stage, g.kind, g.start, g.end)
                     for g in c.trace.segments]) for c in cmds],
    }


rates = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                  st.floats(min_value=0.2, max_value=8.0))
cmd_specs = st.tuples(
    st.sampled_from(["dram", "disk"]),
    st.booleans(),
    st.integers(min_value=1, max_value=8),          # size_bytes
    st.integers(min_value=1, max_value=8),          # work_pixels
    st.integers(min_value=1, max_value=3),          # out_h
    st.integers(min_value=1, max_value=3),          # out_w
    st.integers(min_value=1, max_value=3))          # channels
bursts = st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                            st.integers(min_value=1, max_value=8)),
                  max_size=8)


@settings(deadline=None)
@given(depth=st.integers(min_value=1, max_value=4),
       parse=st.sampled_from([0.25, 0.5, 1.0, 0.3]),
       dma=rates, nvme=rates, huff=rates, idct=rates, resize=rates,
       specs=st.lists(cmd_specs, min_size=1, max_size=40),
       bursts=bursts, probe=st.floats(min_value=0.0, max_value=30.0))
def test_tandem_matches_the_pipeline_unit_chain(depth, parse, dma, nvme,
                                                huff, idct, resize, specs,
                                                bursts, probe):
    tb = dataclasses.replace(
        DEFAULT_TESTBED, fpga_queue_depth=depth, fpga_cmd_overhead_s=parse,
        fpga_dma_rate=dma, nvme_read_rate=nvme, fpga_huffman_byte_rate=huff,
        fpga_idct_pixel_rate=idct, fpga_resizer_pixel_rate=resize)

    # Built under a registry, both FIFOs carry occupancy/wait monitors.
    env_a = Environment()
    with MetricsRegistry("spec").installed():
        fifo, units, finished = spec_chain(env_a, tb)
    cmds_a = make_cmds(env_a, specs)
    admitted_a = []
    env_a.process(submitter(env_a, fifo, cmds_a, bursts, admitted_a))

    env_b = Environment()
    with MetricsRegistry("tandem").installed():
        mirror, device = tandem(env_b, tb)
    cmds_b = make_cmds(env_b, specs)
    admitted_b = []
    env_b.process(submitter(env_b, mirror.cmd_queue, cmds_b, bursts,
                            admitted_b))
    tandem_units = {s: getattr(mirror, s) for s in STAGES}

    def check():
        assert observe(tandem_units, device.dma_busy.busy_seconds(),
                       mirror.cmd_queue, cmds_b) == observe(
            units, units["dma"].busy.busy_seconds(), fifo, cmds_a)

    # A read mid-run sees the same partial state.
    env_a.run(until=probe)
    env_b.run(until=probe)
    check()
    # A retry then moves every third trace to a new attempt epoch, as
    # the reader does: the cmds still in the decoder become ghosts
    # whose later marks must not land.
    for cmds in (cmds_a, cmds_b):
        for cmd in cmds[::3]:
            cmd.trace.attempt += 1
            cmd.trace.mark("reader.retry", "service")

    env_a.run()
    env_b.run()
    spec_finish = finished.drain()
    tandem_finish = [(r.cmd_id, r.status, r.finished_at)
                     for r in mirror.finish_queue.drain()]
    assert tandem_finish == spec_finish
    assert len(tandem_finish) == len(specs)
    assert admitted_b == admitted_a
    check()
