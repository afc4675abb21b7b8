"""Tests for the event-driven FIFO stages (``FifoStage``/``PipelineUnit``)
and the image decoder built as a FIFO tandem."""

import dataclasses
import inspect
import sys

from repro.calib import DEFAULT_TESTBED
from repro.fpga import DecodeCmd, FpgaDevice, ImageDecoderMirror, PipelineUnit
from repro.sim import Channel, Environment, ShedPolicy


def dram_cmd(i, poisoned=False):
    return DecodeCmd(cmd_id=i, source="dram", size_bytes=110_000,
                     work_pixels=int(375 * 500 * 1.5), out_h=224, out_w=224,
                     channels=3, dest_phy=0x4000_0000, dest_offset=0,
                     poisoned=poisoned)


def make_mirror(env, testbed=DEFAULT_TESTBED):
    mirror = ImageDecoderMirror(env, testbed)
    FpgaDevice(env, testbed).load_mirror(mirror)
    return mirror


def feed_and_collect(env, mirror, cmds):
    """Push ``cmds`` through the mirror; return the FINISH records."""
    records = []

    def feed(env):
        for cmd in cmds:
            yield from mirror.cmd_queue.put(cmd)

    def collect(env):
        for _ in cmds:
            records.append((yield from mirror.finish_queue.get()))

    env.process(feed(env))
    env.run(until=env.process(collect(env)))
    return records


def test_poisoned_cmds_finish_in_fifo_order():
    env = Environment()
    mirror = make_mirror(env)
    records = feed_and_collect(
        env, mirror, [dram_cmd(i, poisoned=True) for i in range(200)])
    assert [r.cmd_id for r in records] == list(range(200))
    assert {r.status for r in records} == {"error"}
    assert mirror.decode_errors.total == 200
    assert mirror.decoded.total == 0


def test_back_to_back_error_finishes_use_no_stack():
    # 200 failed cmds queue at the DMA stage behind one long write (a
    # one-way resizer keeps them behind it): when it completes, each is
    # finished at once and the stage pulls the next from inside the same
    # loop, so the run needs a bounded stack however long the backlog.
    env = Environment()
    tb = dataclasses.replace(DEFAULT_TESTBED, fpga_queue_depth=256)
    mirror = ImageDecoderMirror(env, tb, resizer_ways=1)
    FpgaDevice(env, tb).load_mirror(mirror)
    for i in range(201):
        cmd = DecodeCmd(cmd_id=i, source="dram", size_bytes=1,
                        work_pixels=1, out_h=1, out_w=1, channels=3,
                        dest_phy=0x4000_0000, dest_offset=0, poisoned=i > 0)
        if i == 0:
            cmd.out_h = cmd.out_w = 4000
        assert mirror.cmd_queue.try_put(cmd)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        env.run()
    finally:
        sys.setrecursionlimit(limit)
    records = mirror.finish_queue.drain()
    assert [r.cmd_id for r in records] == list(range(201))
    assert [r.status for r in records] == ["ok"] + ["error"] * 200
    assert {r.finished_at for r in records} == {records[0].finished_at}


def test_zero_service_time_units_chain():
    env = Environment()
    a, b, c = (Channel(env, capacity=4, name=n) for n in "abc")
    first = PipelineUnit(env, "first", ways=2, service_time=lambda i: 0.0,
                         inbox=a, outbox=b)
    second = PipelineUnit(env, "second", ways=1, service_time=lambda i: 0.0,
                          inbox=b, outbox=c, transform=lambda i: -i)
    first.start()
    second.start()
    out = []

    def feed(env):
        for i in range(50):
            yield from a.put(i)

    def drain(env):
        for _ in range(50):
            out.append((yield from c.get()))

    env.process(feed(env))
    env.run(until=env.process(drain(env)))
    assert out == [-i for i in range(50)]
    assert env.now == 0.0
    assert first.stats.items.total == second.stats.items.total == 50


def test_capacity_one_outbox_holds_its_way():
    env = Environment()
    inbox = Channel(env, capacity=8, name="in")
    outbox = Channel(env, capacity=1, name="out")
    unit = PipelineUnit(env, "unit", ways=1, service_time=lambda i: 0.1,
                        inbox=inbox, outbox=outbox)
    unit.start()
    for i in range(3):
        inbox.try_put(i)
    env.run(until=1.0)
    # Item 0 fills the outbox; item 1 finished service at 0.2 but its
    # way stays blocked on the full outbox, so item 2 never starts.
    assert unit.stats.items.total == 2
    assert len(outbox) == 1 and len(inbox) == 1
    assert unit.utilization() == 0.2
    got = []

    def drain(env):
        for _ in range(3):
            got.append(((yield from outbox.get()), env.now))

    env.process(drain(env))
    env.run(until=2.0)
    # Room at 1.0 admits item 1 and frees the way for item 2.
    assert got == [(0, 1.0), (1, 1.0), (2, 1.1)]
    assert outbox.put_count == outbox.get_count == 3


def test_ways_park_on_the_event_after_start():
    env = Environment()
    inbox = Channel(env, capacity=2, name="in")
    unit = PipelineUnit(env, "unit", ways=4, service_time=lambda i: 1.0,
                        inbox=inbox, outbox=None)
    unit.start()
    # Until start()'s event fires, queued items count against capacity.
    assert [inbox.try_put(i) for i in range(3)] == [True, True, False]
    env.run(until=0.5)
    assert len(inbox) == 0
    assert inbox.try_put(2) and len(inbox) == 0


def test_expired_items_shed_before_an_idle_way_serves_them():
    env = Environment()

    class Item:
        def __init__(self, deadline_at):
            self.deadline_at = deadline_at

    inbox = Channel(env, capacity=8, name="in",
                    shed=ShedPolicy(drop_expired_at_dequeue=True))
    served = []
    unit = PipelineUnit(env, "unit", ways=1, service_time=lambda i: 1.0,
                        inbox=inbox, outbox=None,
                        transform=lambda i: served.append(i) or i)
    unit.start()
    live, stale, late = Item(5.0), Item(0.5), Item(5.0)

    def feed(env):
        yield from inbox.put(live)
        yield from inbox.put(stale)      # expires while 'live' is served
        yield from inbox.put(late)

    env.process(feed(env))
    env.run(until=3.0)
    assert served == [live, late]
    assert inbox.shed_total == 1
    assert inbox.get_count == 2
    # The way is idle now: an expired item handed straight to it is shed
    # too, and the way stays parked for the next live one.
    expired, fresh = Item(1.0), Item(9.0)
    assert inbox.try_put(expired) and inbox.try_put(fresh)
    env.run(until=5.0)
    assert served == [live, late, fresh]
    assert inbox.shed_total == 2
    assert inbox.get_count == 3


# A modeled decoder fed N DRAM cmds: per cmd, one Huffman, one resizer
# and one DMA-write completion, and the collector's get.  The parser,
# DataReader and iDCT add none, no hand-off between stages is an event,
# and the feeder's put costs one only when it must wait for room in the
# FIFO (35 of the puts at N = 100): one more per cmd would add 100 there.
EVENT_BUDGET = {1: 8, 10: 44, 100: 439}


def test_event_budget_per_decoded_cmd():
    for n, budget in EVENT_BUDGET.items():
        env = Environment()
        mirror = make_mirror(env)
        records = feed_and_collect(env, mirror,
                                   [dram_cmd(i) for i in range(n)])
        assert [r.status for r in records] == ["ok"] * n
        assert env.events_processed == budget, n
