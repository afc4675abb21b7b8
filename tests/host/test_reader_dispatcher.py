"""Tests for FPGAReader (Algorithm 1) and Dispatcher (Algorithm 3)."""

import pytest

from repro.calib import DEFAULT_TESTBED
from repro.engines import CpuCorePool, DeviceBatch, GpuDevice
from repro.fpga import FpgaDevice, FPGAChannel, ImageDecoderMirror
from repro.host import BatchSpec, DataCollector, Dispatcher, FPGAReader, \
    WorkItem
from repro.memory import MemManager
from repro.sim import Environment, QueuePair
from repro.storage import FileManifest


def build(batch_size=4, unit_count=4, num_channels=1):
    env = Environment()
    cpu = CpuCorePool(env, 32)
    spec = BatchSpec(batch_size=batch_size, out_h=32, out_w=32, channels=3)
    pool = MemManager(env, unit_size=spec.batch_bytes,
                      unit_count=unit_count, allocate_arena=False)
    channels = []
    for i in range(num_channels):
        device = FpgaDevice(env, DEFAULT_TESTBED, name=f"f{i}")
        mirror = ImageDecoderMirror(env, DEFAULT_TESTBED, name=f"m{i}")
        device.load_mirror(mirror)
        channels.append(FPGAChannel(env, mirror, queue_id=i))
    reader = FPGAReader(env, DEFAULT_TESTBED, channels, pool, spec, cpu=cpu)
    return env, cpu, spec, pool, channels, reader


def items(n, size=50_000):
    return [WorkItem(source="dram", size_bytes=size,
                     work_pixels=int(375 * 500 * 1.5), channels=3, label=i)
            for i in range(n)]


# ---------------------------------------------------------------- reader
def test_reader_produces_full_batches():
    env, cpu, spec, pool, channels, reader = build(batch_size=4)

    def feed(env):
        yield from reader.run_epoch(items(12))

    proc = env.process(feed(env))
    env.run(until=proc)
    assert reader.batches_produced.total == 3
    assert len(pool.full_batch_queue) == 3
    assert reader.items_submitted.total == 12


def test_reader_short_tail_batch():
    env, cpu, spec, pool, channels, reader = build(batch_size=4)

    def feed(env):
        yield from reader.run_epoch(items(6))

    proc = env.process(feed(env))
    env.run(until=proc)
    assert reader.batches_produced.total == 2
    # The tail unit carries only 2 items.
    ok, unit = pool.full_batch_queue.try_get()
    ok2, tail = pool.full_batch_queue.try_get()
    counts = sorted([unit.item_count, tail.item_count])
    assert counts == [2, 4]


def test_reader_batches_carry_items_and_offsets():
    env, cpu, spec, pool, channels, reader = build(batch_size=3)

    def feed(env):
        yield from reader.run_epoch(items(3))

    proc = env.process(feed(env))
    env.run(until=proc)
    _, unit = pool.full_batch_queue.try_get()
    assert unit.item_count == 3
    assert [w.label for w in unit.payload] == [0, 1, 2]
    assert unit.used_bytes == 3 * spec.item_bytes


def test_reader_blocks_on_pool_exhaustion_until_recycle():
    env, cpu, spec, pool, channels, reader = build(batch_size=2,
                                                   unit_count=2)

    def feed(env):
        yield from reader.run_epoch(items(12))

    def drain(env):
        for _ in range(6):
            unit = yield from pool.full_batch_queue.get()
            yield env.timeout(0.01)
            yield from pool.recycle_item(unit)

    proc = env.process(feed(env))
    env.process(drain(env))
    env.run(until=proc)
    assert reader.batches_produced.total == 6
    assert pool.conservation_ok()


def test_reader_round_robins_channels():
    env, cpu, spec, pool, channels, reader = build(batch_size=4,
                                                   num_channels=2)

    def feed(env):
        yield from reader.run_epoch(items(8))

    proc = env.process(feed(env))
    env.run(until=proc)
    assert channels[0].submitted.total == 4
    assert channels[1].submitted.total == 4


def test_reader_charges_preprocess_cpu():
    env, cpu, spec, pool, channels, reader = build(batch_size=4)

    def feed(env):
        yield from reader.run_epoch(items(8))
        yield env.timeout(1.0)

    proc = env.process(feed(env))
    env.run(until=proc)
    assert cpu.tracker.busy_seconds("preprocess") == pytest.approx(
        8 * DEFAULT_TESTBED.reader_cmd_cost_s)


def test_reader_recycle_shuts_channels():
    env, cpu, spec, pool, channels, reader = build()
    reader.recycle()
    assert not reader.running
    with pytest.raises(RuntimeError):
        channels[0].drain_out()


def test_reader_requires_channels():
    env = Environment()
    spec = BatchSpec(batch_size=4, out_h=32, out_w=32, channels=3)
    pool = MemManager(env, unit_size=spec.batch_bytes, unit_count=1,
                      allocate_arena=False)
    with pytest.raises(ValueError):
        FPGAReader(env, DEFAULT_TESTBED, [], pool, spec)


# ------------------------------------------------------------ dispatcher
class FakeSolver:
    """Minimal Trans-Queue owner for dispatcher tests."""

    def __init__(self, env, gpu, depth=2, item_bytes=32 * 32 * 3):
        self.gpu = gpu
        self.trans = QueuePair(env, capacity=depth, name="fake.trans")
        self.trans.seed([DeviceBatch(device_addr=i, capacity_bytes=64_000,
                                     gpu_index=gpu.index)
                         for i in range(depth)])

    @property
    def trans_queues(self):
        return self.trans


def test_dispatcher_round_robin_and_recycle():
    env = Environment()
    cpu = CpuCorePool(env, 8)
    pool = MemManager(env, unit_size=1024, unit_count=4,
                      allocate_arena=False)
    solvers = [FakeSolver(env, GpuDevice(env, DEFAULT_TESTBED, i))
               for i in range(2)]
    disp = Dispatcher(env, DEFAULT_TESTBED, pool, solvers, cpu=cpu)
    disp.start()

    def produce(env):
        for i in range(6):
            unit = yield from pool.get_item()
            unit.item_count = 8
            unit.used_bytes = 512
            yield from pool.full_batch_queue.put(unit)

    def consume(env, solver, got):
        while True:
            batch = yield from solver.trans_queues.full.get()
            got.append(batch.item_count)
            batch.reset()
            yield from solver.trans_queues.free.put(batch)

    got0, got1 = [], []
    env.process(produce(env))
    env.process(consume(env, solvers[0], got0))
    env.process(consume(env, solvers[1], got1))
    env.run(until=1.0)
    # Round-robin: 3 batches each; every host unit recycled.
    assert len(got0) == 3 and len(got1) == 3
    assert pool.conservation_ok()
    assert len(pool.free_batch_queue) == 4
    assert disp.batches_dispatched.total == 6


def test_dispatcher_requires_solvers():
    env = Environment()
    pool = MemManager(env, unit_size=64, unit_count=1,
                      allocate_arena=False)
    with pytest.raises(ValueError):
        Dispatcher(env, DEFAULT_TESTBED, pool, [])


def test_dispatcher_copies_take_pcie_time():
    env = Environment()
    pool = MemManager(env, unit_size=1 << 20, unit_count=2,
                      allocate_arena=False)
    solver = FakeSolver(env, GpuDevice(env, DEFAULT_TESTBED, 0))
    disp = Dispatcher(env, DEFAULT_TESTBED, pool, [solver])
    disp.start()
    arrival = []

    def produce(env):
        unit = yield from pool.get_item()
        unit.item_count = 1
        unit.used_bytes = int(DEFAULT_TESTBED.pcie_copy_rate * 0.01)
        yield from pool.full_batch_queue.put(unit)

    def consume(env):
        yield from solver.trans_queues.full.get()
        arrival.append(env.now)

    env.process(produce(env))
    env.process(consume(env))
    env.run(until=1.0)
    assert arrival[0] == pytest.approx(0.01, abs=1e-4)


def test_reader_run_stream_blocking_source():
    """run_stream pulls from a blocking generator source (the NIC path)."""
    env, cpu, spec, pool, channels, reader = build(batch_size=2)
    from repro.sim import Channel
    source_q = Channel(env, capacity=16, name="source")

    def next_item():
        item = yield from source_q.get()
        return item

    def producer(env):
        for item in items(6):
            yield env.timeout(0.001)
            yield from source_q.put(item)

    def drain(env):
        for _ in range(3):
            unit = yield from pool.full_batch_queue.get()
            yield from pool.recycle_item(unit)

    env.process(producer(env))
    env.process(reader.run_stream(next_item, count=6))
    proc = env.process(drain(env))
    env.run(until=proc)
    assert reader.items_submitted.total == 6
    assert reader.batches_produced.total == 3
    assert pool.conservation_ok()


def test_reader_run_stream_unbounded_keeps_consuming():
    env, cpu, spec, pool, channels, reader = build(batch_size=2,
                                                   unit_count=2)
    from repro.sim import Channel
    source_q = Channel(env, capacity=64, name="source")

    def next_item():
        item = yield from source_q.get()
        return item

    def producer(env):
        while True:
            yield env.timeout(0.0005)
            yield from source_q.put(items(1)[0])

    def recycler(env):
        while True:
            unit = yield from pool.full_batch_queue.get()
            yield from pool.recycle_item(unit)

    env.process(producer(env))
    env.process(reader.run_stream(next_item))
    env.process(recycler(env))
    env.run(until=0.1)
    assert reader.items_submitted.total > 50
    assert pool.conservation_ok()
