"""NVMe disk model (Intel Optane 900p, S5.1).

Timing model: a read costs a fixed access latency plus transfer time at
the device's aggregate bandwidth; transfers serialize on the bandwidth
while latencies overlap (NVMe queues many commands).  Admission is
bounded by the device queue depth, so a flood of readers sees queueing
delay rather than infinite parallelism — this is what throttles the
data plane when preprocessing outpaces storage.

An armed :class:`~repro.faults.FaultInjector` can fail a read with
:class:`NvmeReadError` (``nvme_error``) or stretch its access phase
(``nvme_latency`` — a device stall / GC pause).
"""

from __future__ import annotations

from typing import Any, Callable

from ..calib import Testbed
from ..sim import BusyTracker, Counter, Environment, Resource, drive

__all__ = ["NvmeDisk", "NvmeReadError"]


class NvmeReadError(IOError):
    """A device-level read failure (injected; the real disk never lies)."""


class NvmeDisk:
    """Shared NVMe device with bounded queue depth and finite bandwidth."""

    def __init__(self, env: Environment, testbed: Testbed,
                 name: str = "nvme", injector=None):
        self.env = env
        self.name = name
        self.injector = injector
        self.read_rate = testbed.nvme_read_rate
        self.access_latency = testbed.nvme_access_latency_s
        self._queue = Resource(env, capacity=testbed.nvme_max_queue,
                               name=f"{name}.queue")
        self._bandwidth = Resource(env, capacity=1, name=f"{name}.bw")
        self.bytes_read = Counter(env, name=f"{name}.bytes")
        self.read_errors = Counter(env, name=f"{name}.read_errors")
        self.busy = BusyTracker(env, name=f"{name}.busy")

    def read(self, nbytes: int):
        """Generator: complete when ``nbytes`` have arrived in host memory."""
        if nbytes <= 0:
            raise ValueError(f"read size must be positive, got {nbytes}")
        access = self.access_latency
        if self.injector is not None:
            if self.injector.nvme_read_error(self.name):
                self.read_errors.add()
                raise NvmeReadError(f"{self.name}: injected read error")
            access += self.injector.nvme_extra_latency_s(self.name)
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

    @property
    def queue_len(self) -> int:
        return self._queue.queue_len
