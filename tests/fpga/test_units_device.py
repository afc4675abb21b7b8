"""Tests for the pipeline-unit framework and the FPGA device model."""

import pytest

from repro.calib import DEFAULT_TESTBED
from repro.fpga import (ARRIA10_CLB_BUDGET, DecodeCmd, FpgaDevice,
                        FpgaResourceError, ImageDecoderMirror, PipelineUnit)
from repro.sim import Channel, Environment


def make_unit(env, ways=1, service=0.1, capacity=16):
    inbox = Channel(env, capacity=capacity, name="in")
    outbox = Channel(env, capacity=capacity, name="out")
    unit = PipelineUnit(env, "unit", ways=ways,
                        service_time=lambda item: service,
                        inbox=inbox, outbox=outbox, clb_cost_per_way=100)
    return unit, inbox, outbox


def test_unit_processes_in_order():
    env = Environment()
    unit, inbox, outbox = make_unit(env, ways=1, service=0.1)
    unit.start()
    for i in range(5):
        inbox.try_put(i)
    env.run(until=1.0)
    assert outbox.drain() == [0, 1, 2, 3, 4]
    assert unit.stats.items.total == 5


def test_unit_ways_parallelism():
    env = Environment()
    # 4 items, 1 s each: 1 way -> 4 s; 4 ways -> 1 s.
    unit1, in1, _ = make_unit(env, ways=1, service=1.0)
    unit4, in4, _ = make_unit(env, ways=4, service=1.0)
    unit1.start()
    unit4.start()
    for i in range(4):
        in1.try_put(i)
        in4.try_put(i)
    env.run(until=1.001)
    assert unit4.stats.items.total == 4
    assert unit1.stats.items.total == 1


def test_unit_utilization():
    env = Environment()
    unit, inbox, outbox = make_unit(env, ways=2, service=1.0)
    unit.start()
    for i in range(4):
        inbox.try_put(i)
    env.run(until=4.0)  # 2 ways x 2 s busy of 4 s wall = 0.5 per way
    assert unit.utilization() == pytest.approx(0.5)


def test_unit_transform_applied():
    env = Environment()
    inbox = Channel(env, capacity=4, name="in")
    outbox = Channel(env, capacity=4, name="out")
    unit = PipelineUnit(env, "x2", ways=1, service_time=lambda i: 0.0,
                        inbox=inbox, outbox=outbox,
                        transform=lambda i: i * 2)
    unit.start()
    inbox.try_put(21)
    env.run(until=0.1)
    assert outbox.drain() == [42]


def test_unit_way_imbalance_metric():
    env = Environment()
    unit, inbox, _ = make_unit(env, ways=2, service=0.1)
    unit.start()
    for i in range(20):
        inbox.try_put(i)
    env.run(until=10.0)
    assert unit.way_imbalance() == pytest.approx(1.0, abs=0.01)


def test_unit_validation():
    env = Environment()
    inbox = Channel(env, name="in")
    with pytest.raises(ValueError):
        PipelineUnit(env, "bad", ways=0, service_time=lambda i: 0,
                     inbox=inbox, outbox=None)
    unit, inbox2, _ = make_unit(env)
    unit.start()
    with pytest.raises(RuntimeError):
        unit.start()


def test_unit_negative_service_rejected():
    env = Environment()
    inbox = Channel(env, name="in")
    unit = PipelineUnit(env, "neg", ways=1, service_time=lambda i: -1.0,
                        inbox=inbox, outbox=None)
    unit.start()
    inbox.try_put("x")
    with pytest.raises(ValueError):
        env.run(until=1.0)


# ------------------------------------------------------------- device
def test_device_loads_fitting_mirror():
    env = Environment()
    device = FpgaDevice(env, DEFAULT_TESTBED)
    mirror = ImageDecoderMirror(env, DEFAULT_TESTBED)
    device.load_mirror(mirror)
    assert device.mirror is mirror
    assert 0 < device.clb_used <= ARRIA10_CLB_BUDGET
    assert device.clb_free == ARRIA10_CLB_BUDGET - device.clb_used


def test_device_rejects_oversized_mirror():
    env = Environment()
    device = FpgaDevice(env, DEFAULT_TESTBED)
    big = ImageDecoderMirror(env, DEFAULT_TESTBED, huffman_ways=8,
                             resizer_ways=4)
    with pytest.raises(FpgaResourceError):
        device.load_mirror(big)


def test_device_mirror_swap():
    env = Environment()
    device = FpgaDevice(env, DEFAULT_TESTBED)
    first = ImageDecoderMirror(env, DEFAULT_TESTBED, name="first")
    second = ImageDecoderMirror(env, DEFAULT_TESTBED, name="second")
    device.load_mirror(first)
    device.load_mirror(second)
    assert device.mirror is second
    assert first.device is None


def write_through_decoder(out_h):
    """Decode one DRAM cmd on a bound mirror and run to the end."""
    env = Environment()
    device = FpgaDevice(env, DEFAULT_TESTBED)
    mirror = ImageDecoderMirror(env, DEFAULT_TESTBED)
    device.load_mirror(mirror)
    cmd = DecodeCmd(cmd_id=0, source="dram", size_bytes=110_000,
                    work_pixels=281_250, out_h=out_h, out_w=224, channels=3,
                    dest_phy=0x4000_0000, dest_offset=0)
    assert mirror.cmd_queue.try_put(cmd)
    env.run()
    return env, device, mirror.finish_queue.drain()


def test_device_dma_timing():
    tb = DEFAULT_TESTBED
    env, device, [record] = write_through_decoder(out_h=224)
    write = 224 * 224 * 3 / tb.fpga_dma_rate
    # One cmd meets no queue: FINISH is the sum of its stage services.
    assert record.finished_at == pytest.approx(
        tb.fpga_cmd_overhead_s + 110_000 / tb.fpga_dma_rate
        + 110_000 / tb.fpga_huffman_byte_rate
        + 281_250 / tb.fpga_idct_pixel_rate
        + 224 * 224 / tb.fpga_resizer_pixel_rate + write)
    assert env.now == record.finished_at
    assert device.dma_busy.busy_seconds() == pytest.approx(write)
    assert device.dma_utilization() == pytest.approx(
        write / record.finished_at)


def test_device_dma_validation():
    with pytest.raises(ValueError):
        write_through_decoder(out_h=0)
