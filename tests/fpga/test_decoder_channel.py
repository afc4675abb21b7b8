"""Tests for the image-decoder mirror pipeline and FPGAChannel."""

import numpy as np
import pytest

import repro.jpeg
from repro.calib import DEFAULT_TESTBED
from repro.data import synthetic_photo
from repro.faults import FaultInjector, FaultPlan
from repro.fpga import (DecodeCmd, FinishRecord, FpgaDevice, FPGAChannel,
                        ImageDecoderMirror, fpga_init)
from repro.jpeg import JpegDecodeError, decode_resized, encode
from repro.memory import MemManager
from repro.sim import Environment, SeedBank
from repro.tracing.context import RequestTrace


def make_stack(functional=False, pool=None, **mirror_kwargs):
    env = Environment()
    device = FpgaDevice(env, DEFAULT_TESTBED)
    mirror = ImageDecoderMirror(env, DEFAULT_TESTBED, functional=functional,
                                host_pool=pool, **mirror_kwargs)
    device.load_mirror(mirror)
    channel = FPGAChannel(env, mirror)
    return env, device, mirror, channel


def std_cmd(i=0, batch_tag=None, dest_phy=0x4000_0000, payload=None,
            out_hw=(224, 224), size_bytes=110_000,
            work_pixels=int(375 * 500 * 1.5)):
    return DecodeCmd(cmd_id=i, source="dram", size_bytes=size_bytes,
                     work_pixels=work_pixels, out_h=out_hw[0],
                     out_w=out_hw[1], channels=3, dest_phy=dest_phy,
                     dest_offset=0, batch_tag=batch_tag, payload=payload)


def run_n(env, channel, n, **cmd_kwargs):
    def submit(env):
        for i in range(n):
            yield from channel.submit_cmd(std_cmd(i, **cmd_kwargs))

    done = []

    def collect(env):
        while len(done) < n:
            done.append((yield from channel.wait_one()))

    env.process(submit(env))
    proc = env.process(collect(env))
    env.run(until=proc)
    return done


def test_single_decode_completes_with_finish():
    env, device, mirror, channel = make_stack()
    done = run_n(env, channel, 1)
    assert len(done) == 1
    rec = done[0]
    assert rec.cmd_id == 0
    assert rec.out_bytes == 224 * 224 * 3
    assert rec.finished_at == env.now
    assert mirror.decoded.total == 1


def test_pipeline_throughput_matches_analytic_bound():
    env, device, mirror, channel = make_stack()
    n = 300
    run_n(env, channel, n)
    measured = n / env.now
    bound = mirror.throughput_bound(110_000, int(375 * 500 * 1.5), 224 * 224)
    assert 0.9 * bound <= measured <= 1.02 * bound


def test_idct_is_the_designed_bottleneck():
    env, device, mirror, channel = make_stack()
    run_n(env, channel, 200)
    assert mirror.bottleneck() == "idct"
    utils = mirror.stage_utilizations()
    # S3.3 load balance: huffman and resizer close behind the bottleneck.
    assert utils["huffman"] > 0.7
    assert utils["idct"] > 0.9


def test_huffman_ways_share_work_evenly():
    env, device, mirror, channel = make_stack()
    run_n(env, channel, 200)
    assert mirror.huffman.way_imbalance() < 1.1


def test_small_images_bound_by_cmd_overhead():
    env, device, mirror, channel = make_stack()
    n = 200
    run_n(env, channel, n, size_bytes=700, out_hw=(28, 28),
          work_pixels=784)
    measured = n / env.now
    # MNIST-size items: parser/cmd path dominates, not the compute units.
    bound = mirror.throughput_bound(700, 784, 784)
    assert measured == pytest.approx(bound, rel=0.15)


def test_fifo_backpressure_blocks_submit():
    env, device, mirror, channel = make_stack()
    # Fill the FIFO beyond its depth without draining completions.
    submitted = []

    def submit(env):
        for i in range(DEFAULT_TESTBED.fpga_queue_depth * 3):
            yield from channel.submit_cmd(std_cmd(i))
            submitted.append(env.now)

    env.process(submit(env))
    env.run(until=0.001)
    # Later submissions were delayed by backpressure.
    assert submitted[0] == 0.0
    assert channel.in_flight > 0


def test_drain_out_nonblocking():
    env, device, mirror, channel = make_stack()
    assert channel.drain_out() == []

    def submit(env):
        yield from channel.submit_cmd(std_cmd(0))

    env.process(submit(env))
    env.run()
    records = channel.drain_out()
    assert len(records) == 1
    assert channel.in_flight == 0


def test_submit_leaves_pending_finish_records_to_the_pump():
    # A FINISH record waiting when a submit runs belongs to the
    # completion pump: the submit must not consume it.
    env, device, mirror, channel = make_stack()
    early = FinishRecord(cmd_id=99, batch_tag=None, dest_phy=0,
                         dest_offset=0, out_bytes=0, finished_at=0.0)
    assert mirror.finish_queue.try_put(early)
    got = []

    def submit(env):
        yield from channel.submit_cmd(std_cmd(0))

    def pump(env):
        for _ in range(2):
            got.append((yield from channel.wait_one()))

    env.run(until=env.process(submit(env)))
    env.run(until=env.process(pump(env)))
    assert [rec.cmd_id for rec in got] == [99, 0]


def test_try_submit_when_full():
    env, device, mirror, channel = make_stack()
    depth = DEFAULT_TESTBED.fpga_queue_depth
    accepted = sum(channel.try_submit_cmd(std_cmd(i))
                   for i in range(depth + 10))
    assert accepted == depth


def test_try_submit_marks_the_trace_as_submit_does():
    # Sent to an idle decoder, a cmd spends its parse in the parser
    # whichever submit sent it: try_submit_cmd must mark the FIFO wait
    # before its put queues the parser's marks.
    def segments(blocking):
        env, device, mirror, channel = make_stack()
        cmd = std_cmd()
        cmd.trace = RequestTrace(lambda: env.now, "host")

        def send(env):
            yield env.timeout(1e-3)
            if blocking:
                yield from channel.submit_cmd(cmd)
            else:
                assert channel.try_submit_cmd(cmd)

        env.process(send(env))
        env.run()
        return [(g.stage, g.kind, g.start, g.end)
                for g in cmd.trace.segments]

    marked = segments(blocking=False)
    assert marked == segments(blocking=True)
    parse = DEFAULT_TESTBED.fpga_cmd_overhead_s
    assert ("fpga.parser", "service", 1e-3, 1e-3 + parse) in marked


def test_channel_recycle_blocks_use():
    env, device, mirror, channel = make_stack()
    channel.recycle()
    with pytest.raises(RuntimeError):
        channel.drain_out()


def test_fpga_init_helper():
    env, device, mirror, _ = make_stack()
    channel = fpga_init(env, mirror, queue_id=3)
    assert channel.queue_id == 3


def test_unknown_source_rejected():
    env, device, mirror, channel = make_stack()
    cmd = std_cmd(0)
    cmd.source = "tape"

    def submit(env):
        yield from channel.submit_cmd(cmd)

    env.process(submit(env))
    with pytest.raises(ValueError, match="unknown source"):
        env.run(until=1.0)


def test_functional_mode_writes_real_pixels():
    env = Environment()
    img = synthetic_photo(np.random.default_rng(3), 48, 64)
    payload = encode(img, quality=80)
    pool = MemManager(env, unit_size=32 * 32 * 3, unit_count=2,
                      name="fnpool")
    device = FpgaDevice(env, DEFAULT_TESTBED)
    mirror = ImageDecoderMirror(env, DEFAULT_TESTBED, functional=True,
                                host_pool=pool)
    device.load_mirror(mirror)
    channel = FPGAChannel(env, mirror)
    unit = pool.try_get_item()

    cmd = DecodeCmd(cmd_id=0, source="dram", size_bytes=len(payload),
                    work_pixels=48 * 64 * 3 // 2, out_h=32, out_w=32,
                    channels=3, dest_phy=unit.phy_addr, dest_offset=0,
                    payload=payload)

    def submit(env):
        yield from channel.submit_cmd(cmd)
        yield from channel.wait_one()

    proc = env.process(submit(env))
    env.run(until=proc)
    got = unit.read(0, 32 * 32 * 3).reshape(32, 32, 3)
    expected = decode_resized(payload, 32, 32)
    np.testing.assert_array_equal(got, expected)


def _injected(payload, spec, seed=0):
    """``payload`` as the FaultInjector's ``spec`` fault rewrites it."""
    cmd = std_cmd(payload=payload)
    injector = FaultInjector(Environment(), FaultPlan.of(spec),
                             seeds=SeedBank(seed))
    assert injector.maybe_poison_cmd(cmd)
    assert cmd.payload != payload
    return cmd.payload


def _functional_decode(payloads, out_hw=(32, 32)):
    """Push every payload through one functional FPGAChannel; return
    ``(FinishRecord, pixels or None)`` per payload, in submit order."""
    env = Environment()
    h, w = out_hw
    pool = MemManager(env, unit_size=h * w * 3, unit_count=len(payloads),
                      name="fnpool")
    device = FpgaDevice(env, DEFAULT_TESTBED)
    mirror = ImageDecoderMirror(env, DEFAULT_TESTBED, functional=True,
                                host_pool=pool)
    device.load_mirror(mirror)
    channel = FPGAChannel(env, mirror)
    units = [pool.try_get_item() for _ in payloads]
    records = []

    def submit(env):
        for i, (payload, unit) in enumerate(zip(payloads, units)):
            yield from channel.submit_cmd(DecodeCmd(
                cmd_id=i, source="dram", size_bytes=len(payload),
                work_pixels=48 * 64 * 3 // 2, out_h=h, out_w=w,
                channels=3, dest_phy=unit.phy_addr, dest_offset=0,
                payload=payload))
        while len(records) < len(payloads):
            records.append((yield from channel.wait_one()))

    env.run(until=env.process(submit(env)))
    records.sort(key=lambda rec: rec.cmd_id)
    return [(rec, units[rec.cmd_id].read(0, h * w * 3).reshape(h, w, 3)
             if rec.status == "ok" else None) for rec in records]


def test_functional_mirror_decodes_clean_truncated_and_corrupted():
    img = synthetic_photo(np.random.default_rng(0), 48, 64)
    clean = encode(img, quality=80)
    truncated = _injected(clean, FaultPlan.payload_truncate(1.0))
    corrupted = _injected(clean, FaultPlan.payload_corrupt(1.0))
    payloads = [clean, truncated, clean[:96], corrupted]
    # Two passes of the same bytes through one mirror.
    outcomes = _functional_decode(payloads + payloads)
    first, second = outcomes[:len(payloads)], outcomes[len(payloads):]
    for payload, (rec, pixels) in zip(payloads, first):
        try:
            expected = decode_resized(payload, 32, 32)
        except JpegDecodeError as exc:
            # Unparseable bytes: an error FINISH naming the typed error
            # the host decoder raises for the same bytes.
            assert rec.status == "error" and rec.out_bytes == 0
            assert pixels is None
            kind = rec.error.split(":")[0]
            assert issubclass(getattr(repro.jpeg, kind), JpegDecodeError)
            assert kind == type(exc).__name__
        else:
            assert rec.status == "ok" and rec.error is None
            np.testing.assert_array_equal(pixels, expected)
    statuses = [rec.status for rec, _ in first]
    assert statuses == ["ok", "error", "error", "ok"]
    # Corruption inside the scan still decodes, to its own pixels.
    assert not np.array_equal(first[3][1], first[0][1])

    for (rec1, px1), (rec2, px2) in zip(first, second):
        assert (rec2.status, rec2.error) == (rec1.status, rec1.error)
        if px1 is None:
            assert px2 is None
        else:
            np.testing.assert_array_equal(px2, px1)


def test_throughput_bound_scales_with_ways():
    env = Environment()
    tb = DEFAULT_TESTBED
    narrow = ImageDecoderMirror(env, tb, huffman_ways=1, name="narrow")
    wide = ImageDecoderMirror(env, tb, huffman_ways=4, name="wide")
    args = (110_000, int(375 * 500 * 1.5), 224 * 224)
    assert wide.throughput_bound(*args) > narrow.throughput_bound(*args)
