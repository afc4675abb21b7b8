"""FPGAReader resilience: retransmit table, quarantine, breaker routing."""

import pytest

from repro.calib import DEFAULT_TESTBED
from repro.engines import CpuCorePool
from repro.faults import (CircuitBreaker, FaultInjector, FaultPlan,
                          RetryPolicy)
from repro.fpga import FpgaDevice, FPGAChannel, ImageDecoderMirror
from repro.host import BatchSpec, FPGAReader, WorkItem
from repro.memory import MemManager
from repro.sim import Environment, SeedBank


def build(plan=None, retry=None, breaker=None, batch_size=4, unit_count=4,
          seed=0, cpu_cores=32):
    env = Environment()
    cpu = CpuCorePool(env, cpu_cores) if cpu_cores else None
    injector = FaultInjector(env, plan, seeds=SeedBank(seed)) \
        if plan is not None else None
    spec = BatchSpec(batch_size=batch_size, out_h=32, out_w=32, channels=3)
    pool = MemManager(env, unit_size=spec.batch_bytes,
                      unit_count=unit_count, allocate_arena=False)
    device = FpgaDevice(env, DEFAULT_TESTBED)
    mirror = ImageDecoderMirror(env, DEFAULT_TESTBED, injector=injector,
                                site="fpga0")
    device.load_mirror(mirror)
    channel = FPGAChannel(env, mirror, injector=injector, site="fpga0")
    reader = FPGAReader(env, DEFAULT_TESTBED, [channel], pool, spec, cpu=cpu,
                        injector=injector, retry=retry, breaker=breaker)
    return env, pool, channel, reader


def items(n, size=50_000):
    return [WorkItem(source="dram", size_bytes=size,
                     work_pixels=int(375 * 500 * 1.5), channels=3, label=i)
            for i in range(n)]


def feed(env, reader, n):
    def _f(env):
        yield from reader.run_epoch(items(n))
    return env.process(_f(env))


def test_dropped_cmds_are_retried_to_success():
    env, pool, channel, reader = build(
        plan=FaultPlan.of(FaultPlan.cmd_drop(1.0, limit=2)),
        retry=RetryPolicy(max_attempts=3))
    proc = feed(env, reader, 8)
    env.run(until=proc)
    assert channel.dropped.total == 2
    assert reader.timeouts.total == 2
    assert reader.retries.total == 2
    assert reader.items_decoded_fpga.total == 8
    assert reader.batches_produced.total == 2
    assert pool.conservation_ok()


def test_timeout_without_retry_policy_raises():
    env, pool, channel, reader = build(
        plan=FaultPlan.of(FaultPlan.cmd_drop(1.0, limit=1)))
    feed(env, reader, 4)
    with pytest.raises(RuntimeError, match="missed its deadline"):
        env.run()


def test_poison_items_are_quarantined_not_batched():
    env, pool, channel, reader = build(
        plan=FaultPlan.of(FaultPlan.payload_corrupt(1.0)),
        retry=RetryPolicy(max_attempts=2), batch_size=4)
    proc = feed(env, reader, 8)
    env.run(until=proc)
    # Every item poisoned: retried once (attempt 2 is also poisoned,
    # since corruption travels with the cmd), then quarantined.
    assert reader.quarantine.total == 8
    assert reader.retries.total == 8
    assert reader.batches_produced.total == 0
    assert reader.empty_batches.total == 2
    assert pool.conservation_ok()          # empty units were recycled
    reasons = reader.quarantine.reasons()
    assert sum(reasons.values()) == 8
    assert all("BadHuffman" in r for r in reasons)


def test_partial_poison_batch_excludes_bad_slots():
    env, pool, channel, reader = build(
        plan=FaultPlan.of(FaultPlan.payload_corrupt(1.0, limit=1)),
        retry=RetryPolicy(max_attempts=1), batch_size=4)
    proc = feed(env, reader, 4)
    env.run(until=proc)
    assert reader.quarantine.total == 1
    assert reader.batches_produced.total == 1
    _, unit = pool.full_batch_queue.try_get()
    assert unit.item_count == 3
    assert len(unit.payload) == 3


def test_finish_stall_causes_timeout_then_duplicate_suppression():
    env, pool, channel, reader = build(
        plan=FaultPlan.of(FaultPlan.finish_stall(1.0, 0.05)),
        retry=RetryPolicy(deadline_s=0.001, max_attempts=3), batch_size=2)
    proc = feed(env, reader, 2)
    env.run(until=proc)
    env.run()       # let the stalled FINISH records surface
    # Deadlines fire long before the stalled FINISH: each item burns its
    # attempts and fails over to the CPU; the late records are stale.
    assert reader.failover_items.total == 2
    assert reader.duplicate_finishes.total >= 1
    assert reader.batches_produced.total == 1
    done = (reader.items_decoded_fpga.total + reader.failover_items.total
            + reader.quarantine.total)
    assert done == reader.items_accepted.total


def test_open_breaker_routes_items_to_cpu_and_probe_readmits():
    env, pool, channel, reader = build(batch_size=4)
    breaker = CircuitBreaker(env, failure_threshold=1, probe_successes=1,
                             probe_interval_s=10.0)
    reader.breaker = breaker
    breaker.record_failure()               # force the open state
    assert breaker.is_open
    proc = feed(env, reader, 4)
    env.run(until=proc)
    # Item 0 went through as the probe; its FINISH closed the circuit,
    # but items 1-3 were already routed to the CPU pool by then.
    assert reader.items_decoded_fpga.total >= 1
    assert reader.failover_items.total >= 1
    assert reader.items_decoded_fpga.total + reader.failover_items.total == 4
    assert not breaker.is_open
    assert int(breaker.recoveries.total) == 1
    assert reader.batches_produced.total == 1


def test_deadline_estimate_scales_with_cmd_size():
    env, pool, channel, reader = build()
    small = reader._deadline_estimate(
        reader._cmd_generator(items(1, size=1_000)[0],
                              _fake_batch(reader), 0))
    big = reader._deadline_estimate(
        reader._cmd_generator(items(1, size=1_000_000)[0],
                              _fake_batch(reader), 0))
    assert big > small


def _fake_batch(reader):
    from repro.host.reader import _OpenBatch
    unit = reader.pool.try_get_item()
    return _OpenBatch(unit=unit, tag=999)
