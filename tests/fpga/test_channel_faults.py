"""FPGAChannel edge cases and fault-injection behavior."""

import pytest

from repro.calib import DEFAULT_TESTBED
from repro.faults import FaultInjector, FaultPlan
from repro.fpga import DecodeCmd, FpgaDevice, FPGAChannel, ImageDecoderMirror
from repro.sim import Environment, SeedBank
from repro.storage import NvmeDisk


def make_stack(plan=None, seed=0, **channel_kwargs):
    env = Environment()
    injector = FaultInjector(env, plan, seeds=SeedBank(seed)) \
        if plan is not None else None
    device = FpgaDevice(env, DEFAULT_TESTBED)
    mirror = ImageDecoderMirror(env, DEFAULT_TESTBED, injector=injector,
                                site="fpga0")
    device.load_mirror(mirror)
    channel = FPGAChannel(env, mirror, injector=injector, site="fpga0",
                          **channel_kwargs)
    return env, mirror, channel


def std_cmd(i=0):
    return DecodeCmd(cmd_id=i, source="dram", size_bytes=110_000,
                     work_pixels=int(375 * 500 * 1.5), out_h=224, out_w=224,
                     channels=3, dest_phy=0x4000_0000, dest_offset=0)


def submit_n(env, channel, n):
    def _s(env):
        for i in range(n):
            yield from channel.submit_cmd(std_cmd(i))
    return env.process(_s(env))


# ------------------------------------------------------------- edge cases
def test_empty_drain_out_is_stable():
    env, mirror, channel = make_stack()
    assert channel.drain_out() == []
    assert channel.drain_out() == []     # repeated drains stay empty
    assert channel.in_flight == 0


def test_double_recycle_raises():
    env, mirror, channel = make_stack()
    channel.recycle()
    with pytest.raises(RuntimeError, match="recycled twice"):
        channel.recycle()


def test_counter_conservation_interleaved_submit_and_drain():
    env, mirror, channel = make_stack()
    drained = []

    def drain(env):
        while len(drained) < 30:
            drained.extend(channel.drain_out())
            yield env.timeout(1e-4)

    submit_n(env, channel, 30)
    proc = env.process(drain(env))
    env.run(until=proc)
    assert channel.submitted.total == 30
    assert channel.completed.total == 30
    assert len(drained) == 30
    assert channel.in_flight == 0
    assert channel.dropped.total == 0


# -------------------------------------------------------- fault injection
def test_cmd_drop_loses_cmds_without_finish():
    env, mirror, channel = make_stack(
        plan=FaultPlan.of(FaultPlan.cmd_drop(1.0)))
    proc = submit_n(env, channel, 5)
    env.run(until=proc)
    env.run()                             # let any straggler finish
    assert channel.submitted.total == 5
    assert channel.dropped.total == 5
    assert channel.completed.total == 0
    assert channel.in_flight == 0         # lost cmds never occupy the FIFO
    assert channel.drain_out() == []


def test_cmd_drop_partial_conserves_counters():
    env, mirror, channel = make_stack(
        plan=FaultPlan.of(FaultPlan.cmd_drop(0.4)), seed=3)
    proc = submit_n(env, channel, 50)
    env.run(until=proc)
    env.run()
    dropped = int(channel.dropped.total)
    assert 0 < dropped < 50
    assert len(channel.drain_out()) == 50 - dropped
    assert channel.completed.total == 50 - dropped
    assert channel.in_flight == 0


def test_try_submit_counts_dropped_cmds_as_accepted():
    env, mirror, channel = make_stack(
        plan=FaultPlan.of(FaultPlan.cmd_drop(1.0)))
    assert channel.try_submit_cmd(std_cmd(0))
    assert channel.dropped.total == 1
    assert channel.in_flight == 0


def test_decoder_crash_window_swallows_cmds_then_recovers():
    env, mirror, channel = make_stack(
        plan=FaultPlan.of(FaultPlan.decoder_crash(0.0, 0.001)))

    def staged(env):
        yield from channel.submit_cmd(std_cmd(0))   # inside the window
        yield env.timeout(0.002)                    # window over
        yield from channel.submit_cmd(std_cmd(1))

    proc = env.process(staged(env))
    env.run(until=proc)
    env.run()
    assert channel.dropped.total == 1
    records = channel.drain_out()
    assert [r.cmd_id for r in records] == [1]
    assert channel.completed.total == 1


def test_finish_stall_delays_the_record():
    def completion_time(plan):
        env, mirror, channel = make_stack(plan=plan)
        done = []

        def go(env):
            yield from channel.submit_cmd(std_cmd(0))
            done.append((yield from channel.wait_one()))

        proc = env.process(go(env))
        env.run(until=proc)
        return env.now

    base = completion_time(None)
    stalled = completion_time(
        FaultPlan.of(FaultPlan.finish_stall(1.0, 0.005)))
    assert stalled == pytest.approx(base + 0.005, rel=1e-6)


def test_empty_plan_injector_matches_no_injector_timing():
    def completion_time(plan):
        env, mirror, channel = make_stack(plan=plan)
        proc = submit_n(env, channel, 20)
        env.run(until=proc)
        env.run()
        channel.drain_out()
        assert channel.completed.total == 20
        return env.now

    assert completion_time(None) == completion_time(FaultPlan())


@pytest.mark.parametrize("fail", [False, True])
def test_disk_read_through_the_shared_nvme_disk(fail):
    # A disk-sourced cmd is read through the NvmeDisk at its start; a
    # read the disk refuses still finishes, as an error FINISH without a
    # read or a DMA write.
    tb = DEFAULT_TESTBED
    env = Environment()
    plan = FaultPlan.of(FaultPlan.nvme_error(1.0 if fail else 0.0))
    disk = NvmeDisk(env, tb, injector=FaultInjector(env, plan,
                                                    seeds=SeedBank(0)))
    mirror = ImageDecoderMirror(env, tb, disk=disk)
    FpgaDevice(env, tb).load_mirror(mirror)
    channel = FPGAChannel(env, mirror)
    cmd = std_cmd(0)
    cmd.source = "disk"
    done = []

    def go(env):
        yield from channel.submit_cmd(cmd)
        done.append((yield from channel.wait_one()))

    env.run(until=env.process(go(env)))
    [record] = done
    decode = (tb.fpga_cmd_overhead_s + 110_000 / tb.fpga_huffman_byte_rate
              + int(375 * 500 * 1.5) / tb.fpga_idct_pixel_rate
              + 224 * 224 / tb.fpga_resizer_pixel_rate)
    if fail:
        assert record.status == "error"
        assert record.error.startswith("NvmeReadError")
        assert record.finished_at == pytest.approx(decode)
        assert disk.read_errors.total == 1
    else:
        assert record.status == "ok"
        assert record.finished_at == pytest.approx(
            decode + tb.nvme_access_latency_s + 110_000 / tb.nvme_read_rate
            + 224 * 224 * 3 / tb.fpga_dma_rate)
        assert disk.bytes_read.total == 110_000
