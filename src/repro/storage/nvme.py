"""NVMe disk model (Intel Optane 900p, S5.1).

Timing model: a read holds one of the device's ``nvme_max_queue``
command slots through a fixed access latency, then transfers at the
device's aggregate bandwidth.  Latencies overlap (NVMe queues many
commands); transfers serialize on the bandwidth.  The bounded queue
depth means a flood of readers sees queueing delay rather than infinite
parallelism — this is what throttles the data plane when preprocessing
outpaces storage.

With a fixed access latency, reads reach the bandwidth, and free their
slots, in the order they are issued, so each read's schedule is known
when it is issued.  Numbering reads n in issue order, with t(n) the
issue time and Q the queue depth:

    grant(n)  = max(t(n), end(n - Q))
    arrive(n) = grant(n) + access
    start(n)  = max(arrive(n), end(n - 1))
    end(n)    = start(n) + nbytes / nvme_read_rate

:meth:`NvmeDisk.submit` evaluates this recursion at issue, with the
same float operations a kernel event per phase would make, and returns
end(n).  The transfer's busy interval and the bytes read are dated
entries on :attr:`NvmeDisk.busy` and :attr:`NvmeDisk.bytes_read`, which
show only what the clock has passed.  Reads must be issued at the clock,
so they reach the disk in time order.

An armed :class:`~repro.faults.FaultInjector` can fail a read with
:class:`NvmeReadError` (``nvme_error``), drawn at issue, or stretch its
access phase (``nvme_latency`` — a device stall / GC pause).  A
stretched read can reach the bandwidth after a later one, so its end is
not known at issue: while an ``nvme_latency`` spec matches the disk,
reads run as events through a slot and a bandwidth
:class:`~repro.sim.Resource` instead.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from ..calib import Testbed
from ..sim import BusyTracker, Counter, Environment, Event, Resource, drive
from ..sim.core import TRIGGERED, _schedule_at

__all__ = ["NvmeDisk", "NvmeReadError"]


class NvmeReadError(IOError):
    """A device-level read failure (injected; the real disk never lies)."""


class NvmeDisk:
    """Shared NVMe device with bounded queue depth and finite bandwidth."""

    def __init__(self, env: Environment, testbed: Testbed,
                 name: str = "nvme", injector=None):
        if testbed.nvme_max_queue < 1:
            raise ValueError(f"nvme_max_queue must be >= 1, got "
                             f"{testbed.nvme_max_queue}")
        self.env = env
        self.name = name
        self.read_rate = testbed.nvme_read_rate
        self.access_latency = testbed.nvme_access_latency_s
        self.max_queue = testbed.nvme_max_queue
        self.bytes_read = Counter(env, name=f"{name}.bytes")
        self.read_errors = Counter(env, name=f"{name}.read_errors")
        self.busy = BusyTracker(env, name=f"{name}.busy")
        # end(n - Q) .. end(n - 1) of the recursion.
        self._ends: deque[float] = deque(maxlen=self.max_queue)
        # The evented read's slots and bandwidth.
        self._queue = self._bandwidth = None
        # True while an ``nvme_latency`` spec matches this disk: reads
        # then run as events (module docstring); set with the injector.
        self.evented = False
        self.injector = injector

    @property
    def injector(self):
        return self._injector

    @injector.setter
    def injector(self, injector) -> None:
        evented = injector is not None and any(
            spec.matches(self.name)
            for spec in injector.plan.by_kind("nvme_latency"))
        if evented != self.evented and self._in_flight():
            raise RuntimeError(
                f"{self.name}: nvme_latency armed or disarmed while a read "
                f"is in flight")
        self._injector = injector
        self.evented = evented
        if evented and self._queue is None:
            self._queue = Resource(self.env, capacity=self.max_queue,
                                   name=f"{self.name}.queue")
            self._bandwidth = Resource(self.env, capacity=1,
                                       name=f"{self.name}.bw")

    def _in_flight(self) -> bool:
        if self.evented:
            return bool(self._queue.count or self._queue.queue_len)
        return bool(self._ends) and self._ends[-1] > self.env._now

    def _check(self, nbytes: int) -> None:
        """Validation and the injected read error, at issue."""
        if nbytes <= 0:
            raise ValueError(f"read size must be positive, got {nbytes}")
        if self._injector is not None \
                and self._injector.nvme_read_error(self.name):
            self.read_errors.add()
            raise NvmeReadError(f"{self.name}: injected read error")

    def submit(self, nbytes: int) -> float:
        """Issue a read of ``nbytes`` now and return the time it
        completes (the recursion in the module docstring).  Validation
        and an injected read error raise here.  Only for a disk that is
        not :attr:`evented`."""
        self._check(nbytes)
        ends = self._ends
        grant = self.env._now
        if len(ends) == self.max_queue and ends[0] > grant:
            grant = ends[0]
        arrive = grant + self.access_latency
        start = ends[-1] if ends and ends[-1] > arrive else arrive
        end = start + nbytes / self.read_rate
        ends.append(end)
        self.busy.span_at(start, end, "transfer")
        self.bytes_read.add_at(end, nbytes)
        return end

    def read(self, nbytes: int):
        """Generator: complete when ``nbytes`` have arrived in host memory."""
        if self.evented:
            yield from self._read_events(nbytes)
            return
        done = Event(self.env)
        done._state = TRIGGERED
        _schedule_at(self.env, self.submit(nbytes), done)
        yield done

    def _read_events(self, nbytes: int):
        """:meth:`read` as an event per phase: a slot grant, the access
        timeout, a bandwidth grant and the transfer timeout."""
        self._check(nbytes)
        access = self.access_latency + \
            self._injector.nvme_extra_latency_s(self.name)
        slot = self._queue.request()
        yield slot
        try:
            # Seek/access phase: overlaps with other commands.
            yield self.env.timeout(access)
            # Transfer phase: serialized on device bandwidth.
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

    def read_then(self, nbytes: int, done: Callable[[Any], None]) -> None:
        """Callback form of :meth:`read`, for actors that are not
        processes: ``done(None)`` runs inside the event that completes
        the transfer.  Validation and injected read errors raise here,
        at once."""
        drive(self.read(nbytes), done)

    def utilization(self) -> float:
        """Fraction of wall time the transfer engine was busy."""
        return self.busy.cores("transfer")
