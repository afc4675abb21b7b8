"""Warm worker pools must never change what a sweep computes.

The identity contract from tests/sweep/test_runner.py is re-asserted
here against every pool shape: fresh pool, reused shared pool (twice,
to catch state leaking between calls), an explicitly provided pool,
and both start methods.  Plus the pool mechanics themselves: warmup
idempotence, chunking, lifecycle.
"""

import pytest

import repro.sweep.pool as pool_mod
from repro.sweep import (WorkerPool, fig7_points, run_sweep, shared_pool,
                         shutdown_shared_pools, warm_process)
from repro.sweep.pool import effective_cores, resolve_start_method

QUICK = {"warmup_s": 0.2, "measure_s": 0.4}


def _points():
    return fig7_points(models=("googlenet",), backends=("cpu-online",),
                       batches=(1,), seeds=(0, 1), **QUICK)


@pytest.fixture(scope="module")
def serial_rollup():
    return run_sweep(_points(), parallel=1).rollup_json()


class TestPoolIdentity:
    def test_fresh_pool_matches_serial(self, serial_rollup):
        par = run_sweep(_points(), parallel=2)
        assert par.rollup_json() == serial_rollup

    def test_reused_shared_pool_matches_serial_twice(self, serial_rollup):
        """The shared pool survives across calls, returns the same
        object, and neither call's rollup drifts from serial."""
        try:
            first = shared_pool(2)
            r1 = run_sweep(_points(), parallel=2, reuse_pool=True)
            assert shared_pool(2) is first
            r2 = run_sweep(_points(), parallel=2, reuse_pool=True)
            assert r1.rollup_json() == serial_rollup
            assert r2.rollup_json() == serial_rollup
            assert not first.closed
        finally:
            shutdown_shared_pools()

    def test_caller_provided_pool_matches_serial(self, serial_rollup):
        with WorkerPool(2) as pool:
            out = run_sweep(_points(), parallel=2, pool=pool)
            assert out.rollup_json() == serial_rollup
            assert not pool.closed      # caller's pool is not closed
        assert pool.closed

    def test_spawn_pool_matches_serial(self, serial_rollup):
        """Spawn workers inherit nothing from the parent — the warmup
        runs in the initializer instead — yet the rollup is still byte
        identical."""
        out = run_sweep(_points(), parallel=2, start_method="spawn")
        assert out.rollup_json() == serial_rollup


def _echo(task):
    return task


class _RecordingPool:
    """Stands in for the multiprocessing pool: records what
    ``WorkerPool.run`` hands to ``imap_unordered``."""

    def __init__(self):
        self.calls = []

    def imap_unordered(self, func, tasks, chunksize):
        self.calls.append((len(tasks), chunksize))
        return map(func, tasks)


class TestPoolMechanics:
    def test_processes_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_run_after_close_raises(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()        # idempotent
        with pytest.raises(RuntimeError):
            pool.run(_echo, [1])

    def test_chunksize_targets_four_chunks_per_worker(self):
        pool = WorkerPool.__new__(WorkerPool)   # no real processes
        pool.processes = 2
        pool._closed = False
        pool._pool = recorder = _RecordingPool()
        assert list(pool.run(_echo, range(3))) == [0, 1, 2]
        assert list(pool.run(_echo, range(100))) == list(range(100))
        # Short sweeps load-balance one task per chunk; long sweeps
        # batch their IPC into ~4 chunks per worker.
        assert recorder.calls == [(3, 1), (100, 12)]

    def test_resolve_start_method(self):
        assert resolve_start_method("spawn") == "spawn"
        assert resolve_start_method() in ("fork", "spawn")

    def test_effective_cores_positive(self):
        assert effective_cores() >= 1

    def test_warm_process_idempotent(self):
        from repro.sweep.points import POINT_RUNNERS
        warm_process()
        assert pool_mod._WARMED and POINT_RUNNERS
        runners = dict(POINT_RUNNERS)
        warm_process()
        assert POINT_RUNNERS == runners

    def test_shared_pool_reopened_after_shutdown(self):
        try:
            first = shared_pool(1)
            shutdown_shared_pools()
            assert first.closed
            second = shared_pool(1)
            assert second is not first and not second.closed
        finally:
            shutdown_shared_pools()
