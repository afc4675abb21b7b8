"""The yardstick: a fixed pure-Python kernel timed next to every rep.

On a shared host the CPU's speed drifts: over minutes the same rep can
take up to twice the CPU time, because other tenants contend for the
core's caches and execution units.  CPU time does not filter that out,
and neither does any statistic over one run's reps when a slow spell
outlasts the run.  So the benchmark times this kernel before every rep,
on the same CPU at the same moment, and reports host time at nominal
speed:

    nominal = measured * NOMINAL_S / (kernel CPU time alongside)

On a quiet host the kernel takes about ``NOMINAL_S`` and nominal time
is close to measured time; on a slowed host both slow together and the
quotient holds.  The raw times are reported beside the nominal ones.

The kernel does the kind of work the simulator does, with the standard
library only: a heap of timed events, generator processes resumed with
``send()``, a small object allocated per event and a dict of counters.
It never imports the simulator, so no change to the simulator moves
it.  Changing it changes every nominal number: re-measure the baseline
if you do.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["NOMINAL_S", "kernel", "kernel_cpu_s"]

NOMINAL_S = 0.1      # seconds; what the kernel takes on a quiet host
EVENTS = 100_000
PROCESSES = 256


class _Event:
    __slots__ = ("t", "proc", "payload")

    def __init__(self, t: float, proc: int, payload: list) -> None:
        self.t, self.proc, self.payload = t, proc, payload


def _process(k: int):
    t = 0.0
    while True:
        t = yield t + (k % 7 + 1) * 1e-3


def kernel() -> dict:
    """Run ``EVENTS`` events through ``PROCESSES`` processes; return
    the per-process event counts."""
    procs = [_process(k) for k in range(PROCESSES)]
    heap = []
    for k, proc in enumerate(procs):
        next(proc)
        heapq.heappush(heap, (0.0, k, k))
    counts: dict = {}
    seq = PROCESSES
    for _ in range(EVENTS):
        t, _seq, k = heapq.heappop(heap)
        ev = _Event(procs[k].send(t), k, [t])
        counts[k] = counts.get(k, 0) + len(ev.payload)
        seq += 1
        heapq.heappush(heap, (ev.t, seq, k))
    return counts


def kernel_cpu_s() -> float:
    """CPU seconds of one kernel run in this process."""
    t0 = time.process_time()
    kernel()
    return time.process_time() - t0
