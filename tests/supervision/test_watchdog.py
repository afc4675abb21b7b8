"""Watchdog + Heartbeat: stall detection on real pipeline stages."""

import pytest

from repro.calib import DEFAULT_TESTBED
from repro.engines import DeviceBatch, GpuDevice
from repro.host import Dispatcher
from repro.memory import MemManager
from repro.sim import Environment, QueuePair
from repro.supervision import (Heartbeat, PipelineStallError,
                               SupervisionConfig, Supervisor, Watchdog)


class FakeSolver:
    def __init__(self, env, gpu, depth=2):
        self.gpu = gpu
        self.trans = QueuePair(env, capacity=depth, name="fake.trans")
        self.trans.seed([DeviceBatch(device_addr=i, capacity_bytes=64_000,
                                     gpu_index=gpu.index)
                         for i in range(depth)])

    @property
    def trans_queues(self):
        return self.trans


# ---------------------------------------------------------------- heartbeat
def test_heartbeat_stalled_for_semantics():
    env = Environment()
    hb = Heartbeat(env, "stage")
    assert hb.state == Heartbeat.IDLE
    assert hb.stalled_for(10.0) == 0.0          # idle never stalls

    hb.waiting("some.queue")
    assert hb.stalled_for(env.now + 0.5) == pytest.approx(0.5)

    hb.progress()
    assert hb.state == Heartbeat.RUNNING
    assert hb.waiting_on is None
    assert hb.stalled_for(env.now + 0.25) == pytest.approx(0.25)

    hb.idle()
    assert hb.stalled_for(env.now + 99.0) == 0.0


def test_heartbeat_progress_rearms_stall_reporting():
    env = Environment()
    hb = Heartbeat(env, "stage")
    hb.waiting("q")
    hb.stall_reported = True                    # one episode reported
    hb.progress()
    assert hb.stall_reported is False           # next stall reports again


# ----------------------------------------------------------------- watchdog
def test_watchdog_detects_starved_dispatcher_naming_the_channel():
    """The acceptance scenario: a dispatcher starved of full batches
    (its producer never feeds the Full_Batch_Queue) is flagged within
    the stall threshold + one scan period, and the report names the
    blocking channel."""
    env = Environment()
    pool = MemManager(env, unit_size=1024, unit_count=4,
                      allocate_arena=False)
    solver = FakeSolver(env, GpuDevice(env, DEFAULT_TESTBED, 0))

    sup = Supervisor(env, SupervisionConfig(stall_threshold_s=0.05))
    hb = sup.register("dispatcher")
    sup.watch_channel(pool.full_batch_queue)
    sup.watch_channel(solver.trans_queues.free)

    disp = Dispatcher(env, DEFAULT_TESTBED, pool, [solver], heartbeat=hb)
    disp.start()
    sup.start()
    # Nobody ever produces a full batch: the pump parks forever.
    env.run(until=0.5)

    assert len(sup.stall_reports) == 1
    report = sup.stall_reports[0]
    assert report.stage == "dispatcher"
    assert report.state == "waiting"
    assert report.waiting_on == pool.full_batch_queue.name
    # Detection latency bound: threshold + one scan period (+ float eps).
    scan = sup.watchdog.scan_period_s
    assert report.when <= 0.05 + scan + 1e-9
    assert report.stalled_for_s >= 0.05
    # The starved queue's depth (0) is in the diagnosis.
    assert report.queue_depths[pool.full_batch_queue.name] == 0
    assert pool.full_batch_queue.name in report.render()
    # One episode -> one report, not one per scan.
    env.run(until=1.0)
    assert len(sup.stall_reports) == 1


def test_watchdog_quiet_while_stage_progresses():
    env = Environment()
    wd = Watchdog(env, stall_threshold_s=0.05)
    hb = wd.register("busy-stage")

    def worker(env):
        while True:
            hb.waiting("feed")
            yield env.timeout(0.01)             # well under the threshold
            hb.progress()

    env.process(worker(env))
    wd.start()
    env.run(until=1.0)
    assert wd.stalls_detected.total == 0
    assert wd.scans.total > 0


def test_watchdog_fail_fast_raises():
    env = Environment()
    wd = Watchdog(env, stall_threshold_s=0.05, fail_fast=True)
    hb = wd.register("stuck")
    hb.waiting("never.fed")
    wd.start()
    with pytest.raises(PipelineStallError, match="never.fed"):
        env.run(until=1.0)


def test_watchdog_flags_running_without_progress():
    env = Environment()
    wd = Watchdog(env, stall_threshold_s=0.05)
    hb = wd.register("spinner")
    hb.running()                                # busy-stuck, not waiting
    wd.start()
    env.run(until=0.2)
    assert wd.stalls_detected.total == 1
    report = wd.reports[0]
    assert report.waiting_on is None
    assert "running without progress" in report.render()


def test_watchdog_rejects_nonpositive_threshold():
    env = Environment()
    with pytest.raises(ValueError):
        Watchdog(env, stall_threshold_s=0.0)
