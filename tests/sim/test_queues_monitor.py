"""Tests for instrumented channels, queue pairs and monitors."""

import math

import pytest

from repro.sim import (BusyTracker, Channel, Counter, Environment,
                       IntervalRate, LatencyRecorder, QueuePair,
                       TimeWeighted)
from repro.telemetry import MetricsRegistry


# ---------------------------------------------------------------- Channel
def test_channel_put_get_roundtrip():
    env = Environment()
    ch = Channel(env)
    out = []

    def producer(env):
        yield from ch.put("item")

    def consumer(env):
        item = yield from ch.get()
        out.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert out == ["item"]
    assert ch.put_count == 1 and ch.get_count == 1


def test_channel_records_wait_time():
    env = Environment()
    with MetricsRegistry().installed():
        ch = Channel(env)

    def producer(env):
        yield from ch.put("early")

    def consumer(env):
        yield env.timeout(4.0)
        yield from ch.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ch.wait.mean() == pytest.approx(4.0)


def test_channel_capacity_backpressure():
    env = Environment()
    ch = Channel(env, capacity=2)
    done = []

    def producer(env):
        for i in range(4):
            yield from ch.put(i)
        done.append(env.now)

    def consumer(env):
        for _ in range(4):
            yield env.timeout(1.0)
            yield from ch.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    # 4th put admitted when a slot opens at t=2 (two items consumed).
    assert done == [2.0]


def test_channel_try_ops_and_drain():
    env = Environment()
    ch = Channel(env, capacity=2)
    assert ch.try_put(1) and ch.try_put(2)
    assert not ch.try_put(3)
    assert ch.drain() == [1, 2]
    ok, item = ch.try_get()
    assert not ok and item is None


def test_channel_occupancy_time_weighted():
    env = Environment()
    with MetricsRegistry().installed():
        ch = Channel(env)

    def p(env):
        ch.try_put("x")
        yield env.timeout(10.0)
        ch.try_get()
        yield env.timeout(10.0)

    env.process(p(env))
    env.run()
    assert ch.occupancy.mean() == pytest.approx(0.5)


def test_channel_monitors_exist_only_under_a_registry():
    env = Environment()
    bare = Channel(env, capacity=2, name="bare")
    reg = MetricsRegistry()
    with reg.installed():
        armed = Channel(env, capacity=2, name="armed")
    assert bare.wait is None and bare.occupancy is None
    assert sorted(reg.names()) == ["armed.occupancy", "armed.wait"]
    assert reg.get("armed.occupancy") is armed.occupancy
    assert reg.get("armed.wait") is armed.wait

    def producer(env, ch):
        for i in range(5):
            yield from ch.put(i)

    def consumer(env, ch):
        for _ in range(5):
            yield env.timeout(1.0)
            yield from ch.get()

    for ch in (bare, armed):
        env.process(producer(env, ch))
        env.process(consumer(env, ch))
    env.run()
    assert (bare.put_count, bare.get_count) == (5, 5)
    assert (armed.put_count, armed.get_count) == (5, 5)
    assert armed.wait.count == 5
    assert armed.occupancy.max_value == 2


# ---------------------------------------------------------------- QueuePair
def test_queue_pair_seed_and_conservation():
    env = Environment()
    qp = QueuePair(env, capacity=10)
    qp.seed(["buf0", "buf1", "buf2"])
    assert qp.population == 3
    assert len(qp.free) == 3 and len(qp.full) == 0
    assert qp.in_flight() == 0

    ok, buf = qp.free.try_get()
    assert ok
    assert qp.in_flight() == 1
    qp.full.try_put(buf)
    assert qp.in_flight() == 0


def test_queue_pair_seed_overflow():
    env = Environment()
    qp = QueuePair(env, capacity=1)
    with pytest.raises(OverflowError):
        qp.seed(["a", "b"])


def test_queue_pair_recycle_cycle():
    env = Environment()
    qp = QueuePair(env, capacity=4)
    qp.seed([f"b{i}" for i in range(4)])
    seen = []

    def filler(env):
        for _ in range(8):
            buf = yield from qp.free.get()
            yield env.timeout(0.5)
            yield from qp.full.put(buf)

    def drainer(env):
        for _ in range(8):
            buf = yield from qp.full.get()
            seen.append(buf)
            yield env.timeout(0.25)
            yield from qp.free.put(buf)

    env.process(filler(env))
    env.process(drainer(env))
    env.run()
    assert len(seen) == 8
    assert qp.in_flight() == 0
    assert len(qp.free) == 4


# ---------------------------------------------------------------- monitors
def test_counter_rate():
    env = Environment()
    c = Counter(env)

    def p(env):
        for _ in range(10):
            yield env.timeout(1.0)
            c.add()

    env.process(p(env))
    env.run()
    assert c.total == 10
    assert c.rate() == pytest.approx(1.0)


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter(Environment()).add(-1)


def test_time_weighted_mean():
    env = Environment()
    tw = TimeWeighted(env, initial=0)

    def p(env):
        yield env.timeout(5.0)
        tw.set(10)
        yield env.timeout(5.0)

    env.process(p(env))
    env.run()
    assert tw.mean() == pytest.approx(5.0)
    assert tw.max_value == 10
    assert tw.min_value == 0


def test_time_weighted_adjust():
    env = Environment()
    tw = TimeWeighted(env, initial=3)
    tw.adjust(+2)
    assert tw.value == 5
    tw.adjust(-4)
    assert tw.value == 1


def test_busy_tracker_cores():
    env = Environment()
    bt = BusyTracker(env)

    def worker(env, start, dur):
        yield env.timeout(start)
        tok = bt.begin("decode")
        yield env.timeout(dur)
        bt.end(tok)

    # Two workers each busy 5 of 10 seconds -> 1.0 cores.
    env.process(worker(env, 0.0, 5.0))
    env.process(worker(env, 5.0, 5.0))
    env.run(until=10.0)
    assert bt.cores() == pytest.approx(1.0)
    assert bt.cores("decode") == pytest.approx(1.0)
    assert bt.cores("other") == 0.0


def test_busy_tracker_concurrent_intervals_stack():
    env = Environment()
    bt = BusyTracker(env)

    def worker(env):
        tok = bt.begin()
        yield env.timeout(10.0)
        bt.end(tok)

    for _ in range(3):
        env.process(worker(env))
    env.run(until=10.0)
    assert bt.cores() == pytest.approx(3.0)


def test_busy_tracker_open_interval_counted():
    env = Environment()
    bt = BusyTracker(env)

    def worker(env):
        bt.begin("forever")
        yield env.timeout(100.0)

    env.process(worker(env))
    env.run(until=10.0)
    assert bt.cores() == pytest.approx(1.0)


def test_busy_tracker_charge_and_breakdown():
    env = Environment()
    bt = BusyTracker(env)

    def p(env):
        yield env.timeout(10.0)
        bt.charge(1.2, "update")
        bt.charge(9.5, "kernels")
        bt.charge(1.5, "transform")
        bt.charge(3.0, "preprocess")

    env.process(p(env))
    env.run()
    bd = bt.breakdown()
    assert bd["update"] == pytest.approx(0.12)
    assert bd["kernels"] == pytest.approx(0.95)
    assert bd["transform"] == pytest.approx(0.15)
    assert bd["preprocess"] == pytest.approx(0.30)
    assert bt.cores() == pytest.approx(1.52)


def test_dated_entries_show_only_what_the_clock_has_passed():
    env = Environment()
    bt, items = BusyTracker(env), Counter(env)
    bt.span_at(1.0, 3.0, "io")
    items.add_at(3.0, 5)
    tok = bt.begin_at(2.0, "cpu")
    assert (bt.busy_seconds(), bt.breakdown(), items.total) == (0.0, {}, 0)
    env.run(until=2.5)
    assert bt.busy_seconds("io") == 1.5 and bt.busy_seconds("cpu") == 0.5
    assert items.total == 0
    env.run(until=4.0)
    assert bt.breakdown() == {"io": 0.5, "cpu": 0.5}
    assert items.total == 5 and items.rate() == 1.25
    bt.end(tok)
    assert bt.busy_seconds() == 4.0


def test_dated_entries_come_in_time_order_and_stay_bounded():
    env = Environment()
    bt, items = BusyTracker(env), Counter(env)
    bt.span_at(0.0, 2.0)
    items.add_at(2.0)
    with pytest.raises(ValueError):
        bt.span_at(0.0, 1.0)
    with pytest.raises(ValueError):
        items.add_at(1.0)
    with pytest.raises(ValueError):
        items.add_at(3.0, -1)
    env.run(until=5.0)
    for i in range(1000):
        bt.span_at(0.0, 2.0 + i / 1000)
        items.add_at(3.0 + i / 1000)
    # Entries due by now are applied as the queue grows, not only on a
    # read.
    assert len(bt._due) <= 64 and len(items._due) <= 64
    assert items.total == 1001.0


def test_busy_tracker_rejects_negative_charge():
    with pytest.raises(ValueError):
        BusyTracker(Environment()).charge(-1.0)


def test_latency_recorder_percentiles():
    lr = LatencyRecorder()
    for v in range(1, 101):
        lr.record(float(v))
    assert lr.count == 100
    assert lr.mean() == pytest.approx(50.5)
    assert lr.p50() == pytest.approx(50.5)
    assert lr.percentile(0) == 1.0
    assert lr.percentile(100) == 100.0
    assert lr.min() == 1.0 and lr.max() == 100.0


def test_latency_recorder_empty_is_nan():
    lr = LatencyRecorder()
    assert math.isnan(lr.mean())
    assert math.isnan(lr.p50())


def test_latency_recorder_validation():
    lr = LatencyRecorder()
    with pytest.raises(ValueError):
        lr.record(-0.1)
    lr.record(1.0)
    with pytest.raises(ValueError):
        lr.percentile(101)
    with pytest.raises(ValueError):
        LatencyRecorder(max_samples=0)


def test_latency_recorder_head_bias_regression():
    """ISSUE 3 repro: a late-arriving tail must dominate p99.

    The pre-fix recorder kept only the *first* ``max_samples`` values, so
    5 small values followed by 100 x 100 ms reported p99 = 4.96 ms.  With
    true reservoir sampling the reservoir is a uniform sample of all 105
    values and p99 ~ 100 ms.
    """
    lr = LatencyRecorder(max_samples=5)
    for v in (1.0, 2.0, 3.0, 4.0, 5.0):
        lr.record(v * 1e-3)
    for _ in range(100):
        lr.record(0.100)
    assert lr.count == 105
    assert lr.sample_count == 5
    assert not lr.is_exact
    assert lr.p99() == pytest.approx(0.100, rel=0.05)
    # min/max/mean/count stay exact over the full stream.
    assert lr.min() == pytest.approx(1e-3)
    assert lr.max() == pytest.approx(0.100)
    assert lr.mean() == pytest.approx((15e-3 + 100 * 0.100) / 105)


def test_latency_recorder_exact_below_cap():
    lr = LatencyRecorder(max_samples=1000)
    for v in range(100, 0, -1):
        lr.record(float(v))
    assert lr.is_exact and lr.sample_count == 100
    assert lr.samples == tuple(float(v) for v in range(1, 101))
    assert lr.p50() == pytest.approx(50.5)


def test_latency_recorder_merge_combines_windows():
    a = LatencyRecorder(name="a")
    b = LatencyRecorder(name="b")
    for v in range(1, 51):
        a.record(float(v))
    for v in range(51, 101):
        b.record(float(v))
    merged = LatencyRecorder(name="merged")
    merged.merge(a)
    merged.merge(b)
    assert merged.count == 100
    assert merged.p50() == pytest.approx(50.5)
    assert merged.min() == 1.0 and merged.max() == 100.0


def test_latency_recorder_deterministic_reservoir():
    def build():
        lr = LatencyRecorder(name="det", max_samples=32)
        for v in range(10_000):
            lr.record(float(v % 997))
        return lr.samples

    assert build() == build()


def test_interval_rate_windows():
    env = Environment()
    ir = IntervalRate(env)

    def p(env):
        for _ in range(10):
            yield env.timeout(1.0)
            ir.add(2.0)

    env.process(p(env))
    env.run(until=5.0)
    assert ir.mark() == pytest.approx(2.0)
    env.run(until=10.0)
    assert ir.mark() == pytest.approx(2.0)
    assert ir.total == 20.0


def test_interval_rate_zero_window_is_nan():
    """dt == 0 means "no window", not "zero throughput" — two marks at
    the same sim instant must not report a measured 0.0 rate."""
    env = Environment()
    ir = IntervalRate(env)
    ir.add(5.0)
    assert math.isnan(ir.mark())        # no time elapsed since creation
    env.run(until=1.0)
    assert ir.mark() == pytest.approx(5.0)
    assert math.isnan(ir.mark())        # immediate re-mark: empty window
