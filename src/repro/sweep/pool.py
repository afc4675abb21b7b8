"""Warm persistent worker pools for sweep fan-out.

The PR 8 runner paid full process-startup tax on every ``run_sweep``
call: a fresh ``multiprocessing.Pool`` whose workers each lazily
imported the point-runner stack (simulation kernel, workflows, fleet,
telemetry) on their first task, then threw it all away at the end of
the call.  Capacity-planner probes — a dozen short sweeps in a binary
search — paid that tax per probe.

:class:`WorkerPool` keeps the workers warm instead:

* **fork platforms**: the parent warms *itself* first (imports the
  runner registry and its heavy dependencies) and then forks, so
  workers inherit everything copy-on-write — zero per-worker warmup;
* **spawn platforms**: :func:`warm_process` is the pool initializer, so
  each worker imports the same stack once, at pool construction
  instead of first-task time;
* tasks are dispatched in chunks sized to the task/worker ratio rather
  than one IPC round-trip per point;
* :func:`shared_pool` keeps one pool per (processes, start_method)
  alive across ``run_sweep`` calls — the planner's probes and repeated
  CLI sweeps amortize startup to zero — with atexit teardown.

Pools never change *what* a sweep computes: workers run the same
``_execute`` path and the rollup identity contract (parallel ==
serial, byte for byte) is asserted by tests and CI against both fresh
and reused pools.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = ["WorkerPool", "shared_pool", "shutdown_shared_pools",
           "resolve_start_method", "warm_process", "effective_cores"]

_WARMED = False


def resolve_start_method(start_method: Optional[str] = None) -> str:
    """Default to fork where the OS offers it (cheapest warm start)."""
    if start_method is not None:
        return start_method
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def warm_process() -> None:
    """Pre-import the point-runner stack in *this* process.
    Idempotent; in the pool parent it runs before forking so every fork
    worker inherits the imports copy-on-write."""
    global _WARMED
    if _WARMED:
        return
    from . import points  # noqa: F401  — fills POINT_RUNNERS
    # The heavy stacks the standard runners import lazily per call:
    from .. import telemetry            # noqa: F401
    from ..workflows import inference   # noqa: F401
    from ..experiments import fleet     # noqa: F401
    _WARMED = True


class WorkerPool:
    """A warm, reusable process pool for sweep point execution.

    Parameters
    ----------
    processes:
        Worker count (>= 1).
    start_method:
        ``"fork"``/``"spawn"``/``"forkserver"``; default picks fork
        when available.
    """

    def __init__(self, processes: int,
                 start_method: Optional[str] = None):
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self.start_method = resolve_start_method(start_method)
        self._closed = False
        initializer = None
        if self.start_method == "fork":
            # Warm the parent, fork the warmth (copy-on-write).
            warm_process()
        else:
            initializer = warm_process
        ctx = multiprocessing.get_context(self.start_method)
        self._pool = ctx.Pool(processes=processes, initializer=initializer)

    @property
    def closed(self) -> bool:
        return self._closed

    def run(self, func: Callable[[Any], Any], tasks: Iterable[Any],
            chunksize: Optional[int] = None) -> Iterator[Any]:
        """``imap_unordered`` with density-aware chunking.

        Chunks target ~4 chunks per worker so long sweeps batch their
        IPC while short sweeps still load-balance; callers that need
        ordering tag tasks with indices (the sweep runner does).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        tasks = list(tasks)
        if chunksize is None:
            chunksize = max(1, len(tasks) // (self.processes * 4))
        return self._pool.imap_unordered(func, tasks, chunksize=chunksize)

    def close(self) -> None:
        """Terminate the workers; the pool cannot be reused."""
        if not self._closed:
            self._closed = True
            self._pool.terminate()
            self._pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# -- shared (cross-call) pools ---------------------------------------------

_SHARED: dict[tuple[int, str], WorkerPool] = {}
_ATEXIT_REGISTERED = False


def shared_pool(processes: int,
                start_method: Optional[str] = None) -> WorkerPool:
    """The process-wide warm pool for (processes, start_method).

    Created on first use, then reused by every subsequent
    ``run_sweep(..., reuse_pool=True)`` — the capacity planner's probe
    loop and repeated CLI sweeps pay pool startup once per process.
    Torn down at interpreter exit (or explicitly via
    :func:`shutdown_shared_pools`).
    """
    global _ATEXIT_REGISTERED
    method = resolve_start_method(start_method)
    key = (processes, method)
    pool = _SHARED.get(key)
    if pool is None or pool.closed:
        pool = WorkerPool(processes, start_method=method)
        _SHARED[key] = pool
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_shared_pools)
            _ATEXIT_REGISTERED = True
    return pool


def shutdown_shared_pools() -> None:
    """Close every shared pool (idempotent)."""
    for pool in list(_SHARED.values()):
        pool.close()
    _SHARED.clear()


def effective_cores() -> int:
    """CPU cores actually available to this process — the honest upper
    bound on parallel sweep speedup (affinity-aware where the OS
    exposes it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1
