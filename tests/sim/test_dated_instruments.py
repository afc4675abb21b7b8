"""Dated entries: an instrument fed ahead of the clock reads as one fed
at the clock.

A folded queue (DESIGN §3) knows when a change happens before the clock
gets there, so its instruments take the change dated
(``TimeWeighted.adjust_at``, ``LatencyRecorder.record_at``) and apply it
on the first read at or after its time.  These properties drive such an
instrument beside a twin that kernel events update at the same times,
and read both at drawn instants, each accessor first in a drawn order.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.monitor import LatencyRecorder, TimeWeighted

times = st.integers(min_value=0, max_value=24).map(lambda k: k / 4)
latencies = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)

LEVEL_READS = (
    lambda lv: lv.value,
    lambda lv: lv.mean(),
    lambda lv: lv.max_value,
    lambda lv: lv.min_value,
)


def _merged(rec):
    into = LatencyRecorder("rollup")
    into.merge(rec)
    return _state(into)


def _state(rec):
    return (rec.count, rec.total(), rec.samples, rec.min(), rec.max())


RECORDER_READS = (
    lambda r: r.count,
    lambda r: r.sample_count,
    lambda r: r.is_exact,
    lambda r: r.total(),
    lambda r: r.mean(),
    lambda r: r.max(),
    lambda r: r.min(),
    lambda r: r.samples,
    lambda r: [r.percentile(q) for q in (0, 50, 99, 100)],
    lambda r: _state(pickle.loads(pickle.dumps(r))),
    _merged,
)


def _nan_free(value):
    """NaN (an empty recorder's reading) as a value that compares."""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, (list, tuple)):
        return [_nan_free(v) for v in value]
    return value


def _at(env, when, fn):
    """Run ``fn`` inside a kernel event at time ``when``."""
    env.timeout(when).callbacks.append(lambda _event: fn())


def _read_both(env, dated, twin, reads, instants, orders):
    """Read both instruments at each instant (and once at the end),
    with the accessors in that instant's order."""
    seen = []

    def read(order):
        seen.append(tuple(
            [_nan_free(reads[i](inst)) for i in order]
            for inst in (dated, twin)))

    for when, order in zip(sorted(instants), orders):
        _at(env, when, lambda o=order: read(o))
    env.run()
    read(range(len(reads)))
    for got, want in seen:
        assert got == want


@settings(deadline=None)
@given(ups=st.lists(times, max_size=40), downs=st.lists(times, max_size=40),
       picks=st.lists(st.booleans(), max_size=80),
       instants=st.lists(times, max_size=8),
       orders=st.lists(st.permutations(range(len(LEVEL_READS))),
                       min_size=8, max_size=8))
def test_a_dated_level_reads_as_one_set_at_the_clock(ups, downs, picks,
                                                     instants, orders):
    env = Environment()
    dated = TimeWeighted(env, name="fifo")
    twin = TimeWeighted(env, name="fifo")
    # Admissions (+1) and takes (-1), each stream in time order, entered
    # interleaved in the drawn order.
    streams = {True: sorted(ups), False: sorted(downs)}
    picks = iter(picks)
    while streams[True] or streams[False]:
        side = next(picks, True)
        if not streams[side]:
            side = not side
        dated.adjust_at(streams[side].pop(0), 1 if side else -1)
    # The twin steps once per distinct instant, to the net level.
    net = {}
    for when in ups:
        net[when] = net.get(when, 0) + 1
    for when in downs:
        net[when] = net.get(when, 0) - 1
    level = 0
    for when in sorted(net):
        level += net[when]
        _at(env, when, lambda v=level: twin.set(v))
    _read_both(env, dated, twin, LEVEL_READS, instants, orders)


@settings(deadline=None)
@given(records=st.lists(st.tuples(times, latencies), max_size=60),
       cap=st.integers(min_value=1, max_value=30),
       instants=st.lists(times, max_size=8),
       orders=st.lists(st.permutations(range(len(RECORDER_READS))),
                       min_size=8, max_size=8))
def test_a_dated_recorder_reads_as_one_recorded_at_the_clock(records, cap,
                                                             instants,
                                                             orders):
    env = Environment()
    dated = LatencyRecorder("wait", max_samples=cap, env=env)
    twin = LatencyRecorder("wait", max_samples=cap)
    for when, latency in sorted(records):
        dated.record_at(when, latency)
        _at(env, when, lambda v=latency: twin.record(v))
    _read_both(env, dated, twin, RECORDER_READS, instants, orders)


def test_one_instants_changes_apply_as_one_net_step():
    # A cmd admitted and taken at one instant leaves the level where it
    # was, even when the queue of dated changes fills up between the two
    # and is applied.
    env = Environment()
    level = TimeWeighted(env)
    env.run(until=1.0)
    level.adjust_at(1.0, 1)
    for i in range(70):
        level.adjust_at(2.0 + i, 1)
    level.adjust_at(1.0, -1)
    assert (level.value, level.max_value) == (0.0, 0.0)
    with pytest.raises(ValueError):
        level.adjust_at(0.5, 1)
    env.run(until=2.5)
    assert (level.value, level.max_value, level.mean()) == (1.0, 1.0, 0.2)


def test_a_pickled_recorder_holds_the_records_due_when_pickled():
    env = Environment()
    wait = LatencyRecorder("wait", env=env)
    wait.record_at(1.0, 0.5)
    wait.record_at(2.0, 0.25)
    with pytest.raises(ValueError):
        wait.record_at(1.5, 0.0)
    env.run(until=1.5)
    clone = pickle.loads(pickle.dumps(wait))
    env.run(until=3.0)
    assert (clone.count, clone.samples, clone.env) == (1, (0.5,), None)
    assert (wait.count, wait.samples) == (2, (0.25, 0.5))
    with pytest.raises(ValueError):
        LatencyRecorder("plain").record_at(0.0, 1.0)
