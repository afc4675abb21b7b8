"""The NVMe disk's FIFO recursion against the event-driven spec.

The spec is the disk as a kernel event per phase: a read takes one of
``nvme_max_queue`` slots from a :class:`~repro.sim.Resource`, waits out
the access latency, takes the capacity-1 bandwidth and holds it for the
transfer.  :class:`~repro.storage.NvmeDisk` computes each read's end
when it is issued, so this property drives both side by side, on the
same issue times, and requires the same completions, to the bit, and
the same readings of its instruments at any instant.  A third disk
armed with an ``nvme_latency`` spec that never fires takes the kept
evented path and must agree too.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calib import DEFAULT_TESTBED
from repro.faults import FaultInjector, FaultPlan
from repro.sim import (BusyTracker, Counter, Environment, Resource, SeedBank,
                       drive)
from repro.storage import NvmeDisk, NvmeReadError


class SpecDisk:
    """The disk with one event per phase of a read."""

    def __init__(self, env, tb, injector=None, name="nvme"):
        self.env = env
        self.name = name
        self.injector = injector
        self.read_rate = tb.nvme_read_rate
        self.access_latency = tb.nvme_access_latency_s
        self._queue = Resource(env, capacity=tb.nvme_max_queue)
        self._bandwidth = Resource(env, capacity=1)
        self.bytes_read = Counter(env, name=f"{name}.bytes")
        self.read_errors = Counter(env, name=f"{name}.read_errors")
        self.busy = BusyTracker(env, name=f"{name}.busy")

    def read(self, nbytes):
        access = self.access_latency
        if self.injector is not None:
            if self.injector.nvme_read_error(self.name):
                self.read_errors.add()
                raise NvmeReadError(f"{self.name}: injected read error")
            access += self.injector.nvme_extra_latency_s(self.name)
        slot = self._queue.request()
        yield slot
        try:
            yield self.env.timeout(access)
            grant = self._bandwidth.request()
            yield grant
            tok = self.busy.begin("transfer")
            try:
                yield self.env.timeout(nbytes / self.read_rate)
            finally:
                self.busy.end(tok)
                self._bandwidth.release(grant)
            self.bytes_read.add(nbytes)
        finally:
            self._queue.release(slot)

    def read_then(self, nbytes, done):
        drive(self.read(nbytes), done)

    def utilization(self):
        return self.busy.cores("transfer")


def run_readers(env, disk, readers, log):
    """Each reader issues its reads after its gaps, without waiting for
    them: through a process on ``read()`` or through ``read_then``.
    ``log[i]`` gets read i's completion time, or ``("refused", t)``."""
    def process_read(i, size):
        try:
            yield from disk.read(size)
        except NvmeReadError:
            log[i] = ("refused", env.now)
            return
        log[i] = env.now

    def callback_read(i, size):
        try:
            disk.read_then(size, lambda _: log.__setitem__(i, env.now))
        except NvmeReadError:
            log[i] = ("refused", env.now)

    def reader(first, reads, by_callback):
        for k, (gap, size) in enumerate(reads):
            if gap:
                yield env.timeout(gap)
            if by_callback:
                callback_read(first + k, size)
            else:
                env.process(process_read(first + k, size))

    first = 0
    for reads, by_callback in readers:
        env.process(reader(first, reads, by_callback))
        first += len(reads)
    return first


def observe(disk):
    return (disk.bytes_read.total, disk.busy.busy_seconds(),
            disk.busy.busy_seconds("transfer"), disk.utilization(),
            list(disk.busy.breakdown().items()), disk.read_errors.total)


rates = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                  st.floats(min_value=0.2, max_value=8.0))
reads = st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]),
                           st.integers(min_value=1, max_value=8)),
                 min_size=1, max_size=12)
readers = st.lists(st.tuples(reads, st.booleans()), min_size=1, max_size=8)


@settings(deadline=None)
@given(queue=st.integers(min_value=1, max_value=4),
       access=st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.3]), rate=rates,
       readers=readers, error_rate=st.sampled_from([None, 0.0, 0.3, 1.0]),
       seed=st.integers(min_value=0, max_value=3),
       probes=st.lists(st.floats(min_value=0.0, max_value=40.0),
                       max_size=5))
def test_folded_disk_matches_the_evented_spec(queue, access, rate, readers,
                                              error_rate, seed, probes):
    tb = dataclasses.replace(DEFAULT_TESTBED, nvme_max_queue=queue,
                             nvme_access_latency_s=access,
                             nvme_read_rate=rate)

    def build(disk_cls, *latency_spec):
        env = Environment()
        specs = latency_spec
        if error_rate is not None:
            specs += (FaultPlan.nvme_error(error_rate),)
        injector = (FaultInjector(env, FaultPlan.of(*specs),
                                  seeds=SeedBank(seed)) if specs else None)
        disk = disk_cls(env, tb, injector=injector)
        log = {}
        count = run_readers(env, disk, readers, log)
        return env, disk, log, count

    spec = build(SpecDisk)
    folded = build(NvmeDisk)
    # A latency spec that never fires keeps the disk's evented read.
    evented = build(NvmeDisk, FaultPlan.nvme_latency(0.0, extra_s=1.0))
    assert not folded[1].evented and evented[1].evented

    for probe in sorted(probes):
        for env, *_ in (spec, folded, evented):
            env.run(until=probe)
        assert observe(folded[1]) == observe(spec[1])
        assert observe(evented[1]) == observe(spec[1])
    for env, *_ in (spec, folded, evented):
        env.run()
    assert folded[2] == spec[2]
    assert evented[2] == spec[2]
    assert len(spec[2]) == spec[3]
    assert observe(folded[1]) == observe(spec[1])
    assert observe(evented[1]) == observe(spec[1])


def armed(env, *specs):
    return FaultInjector(env, FaultPlan.of(*specs), seeds=SeedBank(0))


def test_only_a_matching_latency_spec_keeps_reads_evented():
    env = Environment()
    disk = NvmeDisk(env, DEFAULT_TESTBED, name="nvme")
    assert not disk.evented and disk._queue is None
    disk.injector = armed(env, FaultPlan.nvme_error(0.5))
    assert not disk.evented
    disk.injector = armed(env, FaultPlan.nvme_latency(0.5, 1e-3, site="sdb"))
    assert not disk.evented
    disk.injector = armed(env, FaultPlan.nvme_latency(0.5, 1e-3, site="nvme"))
    assert disk.evented


def test_latency_is_not_armed_under_a_read_in_flight():
    env = Environment()
    disk = NvmeDisk(env, DEFAULT_TESTBED)
    latency = armed(env, FaultPlan.nvme_latency(1.0, extra_s=1e-3))
    end = disk.submit(1000)
    with pytest.raises(RuntimeError):
        disk.injector = latency
    env.run(until=end)
    disk.injector = latency
    assert disk.evented
