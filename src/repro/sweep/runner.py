"""Parallel multi-seed sweep runner.

A sweep is an ordered list of :class:`SweepPoint` entries — (point
runner, config, seed) triples — fanned out to worker processes.  Each
point runs its whole simulation inside one worker (per-point
deterministic seeds; nothing is shared), and returns:

* the point's headline ``values``/``rows``,
* a ``repro-metrics/1`` snapshot of the point's metrics registry, and
* the picklable :class:`~repro.sim.monitor.LatencyRecorder` reservoirs
  harvested from that registry.

A worker returns that result dict as-is; it crosses the process
boundary by plain pickling.  The parent collects worker results **by
point index**, not completion order, then folds the recorders through
``LatencyRecorder.merge()`` — which is itself commutative — into one
rollup, exactly as a serial run does.  Both layers of defence make the
merged ``repro-sweep/1`` document byte-identical to a serial run of the
same points, regardless of how the OS schedules workers.

Wall-clock numbers (which legitimately differ run to run) are kept in a
separate ``repro-perf/1`` payload, never in the identity document.
"""

from __future__ import annotations

import functools
import json
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

from ..perf.harness import BenchResult, to_payload
from ..sim.core import _add_total, total_events_processed
from ..sim.monitor import LatencyRecorder

__all__ = ["SCHEMA", "SweepPoint", "SweepOutcome", "run_sweep",
           "canonical_json"]

SCHEMA = "repro-sweep/1"


@dataclass(frozen=True)
class SweepPoint:
    """One (experiment, config, seed) point of a sweep.

    ``runner`` names an entry in :data:`repro.sweep.points.POINT_RUNNERS`;
    ``config`` must be picklable (it crosses the process boundary);
    ``seed`` of ``None`` keeps the runner's default seed.
    """

    runner: str
    config: dict = field(default_factory=dict)
    seed: Optional[int] = None
    label: str = ""


def _execute(task: tuple[int, SweepPoint]) -> tuple[int, dict, float, int]:
    """Run one point (in a worker or inline) and meter it."""
    from .points import POINT_RUNNERS  # late: workers import lazily
    index, point = task
    try:
        runner = POINT_RUNNERS[point.runner]
    except KeyError:
        raise ValueError(
            f"unknown sweep point runner {point.runner!r}; known: "
            f"{sorted(POINT_RUNNERS)}") from None
    t0 = time.perf_counter()
    ev0 = total_events_processed()
    result = runner(dict(point.config), point.seed)
    wall = time.perf_counter() - t0
    events = total_events_processed() - ev0
    return index, result, wall, events


def _point_slug(index: int, point: SweepPoint) -> str:
    text = point.label or point.runner
    safe = "".join(c if c.isalnum() or c in "-._" else "-" for c in text)
    return f"point-{index:03d}-{safe}"


def _execute_profiled(task: tuple[int, SweepPoint], profile_dir: str
                      ) -> tuple[int, dict, float, int]:
    """Run one point under cProfile, dumping stats into
    ``profile_dir/<point-slug>.pstats`` (one file per point, written by
    whichever worker ran it)."""
    import cProfile
    import os
    prof = cProfile.Profile()
    prof.enable()
    try:
        out = _execute(task)
    finally:
        prof.disable()
        index, point = task
        prof.dump_stats(os.path.join(
            profile_dir, f"{_point_slug(index, point)}.pstats"))
    return out


def _sample_digest(rec: LatencyRecorder) -> int:
    """crc32 over the retained reservoir entries — a compact witness
    that two merged reservoirs are byte-identical without serializing
    up to ``max_samples`` floats into the rollup."""
    rec._flush()
    pack = struct.Struct("!dqq").pack
    # Chained crc32 over rows == crc32 of their concatenation; one C
    # call over one buffer beats a Python-level loop of chained calls.
    return zlib.crc32(b"".join(
        pack(latency, seq, -1 if trace_id is None else trace_id)
        for latency, seq, trace_id in rec._sorted))


@dataclass
class SweepOutcome:
    """Everything a finished sweep produced, index-ordered."""

    points: list[SweepPoint]
    results: list[dict]          # one runner-output dict per point
    walls: list[float]           # per-point wall seconds (not identity)
    events: list[int]            # per-point simulated events
    parallel: int
    wall_s: float                # whole-sweep wall seconds

    def merged_recorders(self) -> dict[str, LatencyRecorder]:
        """Fold every point's harvested reservoirs, by metric name, in
        point-index order (== serial order), through the pairwise
        ``LatencyRecorder.merge()``.  Parallel results carry the same
        recorders, unpickled, so both paths fold identical state."""
        merged: dict[str, LatencyRecorder] = {}
        for result in self.results:
            for name, rec in sorted(
                    (result.get("recorders") or {}).items()):
                target = merged.get(name)
                if target is None:
                    target = LatencyRecorder(
                        name=f"sweep.{name}",
                        max_samples=rec._max_samples)
                    merged[name] = target
                target.merge(rec)
        return merged

    def rollup(self) -> dict[str, Any]:
        """The deterministic ``repro-sweep/1`` document.

        Contains only replay-stable facts: point configs, modeled
        values/rows, per-point ``repro-metrics/1`` snapshots and the
        merged latency reservoirs (stats + content digest).  Wall-clock
        lives in :meth:`perf_payload` instead.
        """
        points_doc = []
        for point, result in zip(self.points, self.results):
            points_doc.append({
                "runner": point.runner,
                "label": point.label,
                "seed": point.seed,
                "config": _jsonable(point.config),
                "values": _jsonable(result.get("values", {})),
                "rows": _jsonable(result.get("rows", [])),
                "metrics": result.get("metrics"),
            })
        latency = {}
        for name, rec in sorted(self.merged_recorders().items()):
            latency[name] = {
                "count": rec.count,
                "mean": rec.mean() if rec.count else None,
                "p50": rec.p50() if rec.count else None,
                "p90": rec.percentile(90) if rec.count else None,
                "p99": rec.p99() if rec.count else None,
                "p999": rec.percentile(99.9) if rec.count else None,
                "min": rec.min() if rec.count else None,
                "max": rec.max() if rec.count else None,
                "sample_count": rec.sample_count,
                "samples_crc32": _sample_digest(rec),
            }
        return {"schema": SCHEMA,
                "num_points": len(self.points),
                "points": points_doc,
                "merged_latency": latency}

    def rollup_json(self) -> str:
        """Canonical serialization of :meth:`rollup` — the byte string
        the serial-vs-parallel identity contract is stated over."""
        return canonical_json(self.rollup())

    def perf_payload(self) -> dict[str, Any]:
        """Timing as a ``repro-perf/1`` payload (excluded from the
        identity document: wall-clock is honest, not replayable)."""
        results = []
        for i, (point, wall, events) in enumerate(
                zip(self.points, self.walls, self.events)):
            name = f"sweep[{i}].{point.label or point.runner}"
            results.append(BenchResult(
                name=name, best_s=wall, mean_s=wall, runs=(wall,),
                reps=1, units={"events": float(events)}))
        total_events = float(sum(self.events))
        derived = {}
        if self.wall_s > 0:
            derived["sweep.events_per_s"] = total_events / self.wall_s
        # Occupancy (sum of per-point walls / elapsed) measures how
        # busy the workers kept the machine — NOT end-to-end speedup,
        # which needs a serial run of the same points to compare against
        # (the CLI's --check-identity and the benchmarks do that).
        if self.wall_s > 0 and self.parallel > 1:
            derived["sweep.worker_occupancy"] = sum(self.walls) / self.wall_s
        results.append(BenchResult(
            name=f"sweep.total[parallel={self.parallel}]",
            best_s=self.wall_s, mean_s=self.wall_s, runs=(self.wall_s,),
            reps=1, units={"events": total_events,
                           "points": float(len(self.points))}))
        return to_payload(results, derived)


def canonical_json(doc: Any) -> str:
    """Sorted-key, fixed-separator JSON — byte-stable across runs."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=repr)


def _jsonable(value: Any) -> Any:
    """Round a config/value tree to JSON-safe types (repr fallback)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def run_sweep(points: list[SweepPoint], parallel: int = 1,
              start_method: Optional[str] = None,
              pool: Optional[Any] = None, reuse_pool: bool = False,
              profile_dir: Optional[str] = None) -> SweepOutcome:
    """Run every point; fan out to ``parallel`` worker processes.

    ``parallel <= 1`` runs the points inline in order — the serial
    reference the parallel path is byte-identical to.  Workers return
    results tagged with their point index; the parent slots them by
    index, so completion order never matters.  Worker-simulated events
    are folded into the parent's global tally so ``@timed`` experiment
    wrappers report true events/s for parallel runs.

    Parallel execution goes through a warm :class:`~repro.sweep.pool.
    WorkerPool`: pass ``pool`` to bring your own, ``reuse_pool=True``
    to use the process-wide shared pool (amortizes startup across
    calls — the capacity planner's probe loop does this), or neither
    for a fresh pool per call.  ``profile_dir`` wraps every point in
    cProfile and collects per-point ``.pstats`` files there (serial
    and parallel alike).
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    tasks = list(enumerate(points))
    results: list[Optional[dict]] = [None] * len(points)
    walls = [0.0] * len(points)
    events = [0] * len(points)
    t0 = time.perf_counter()
    if (parallel == 1 or len(points) <= 1) and pool is None:
        for task in tasks:
            if profile_dir is not None:
                index, result, wall, ev = _execute_profiled(
                    task, profile_dir)
            else:
                index, result, wall, ev = _execute(task)
            results[index] = result
            walls[index] = wall
            events[index] = ev
    else:
        from .pool import WorkerPool, shared_pool
        if profile_dir is not None:
            func: Any = functools.partial(
                _execute_profiled, profile_dir=profile_dir)
        else:
            func = _execute
        if pool is not None:
            own = None
        elif reuse_pool:
            pool = shared_pool(parallel, start_method)
            own = None
        else:
            pool = own = WorkerPool(min(parallel, len(points)),
                                    start_method=start_method)
        try:
            for index, result, wall, ev in pool.run(func, tasks):
                results[index] = result
                walls[index] = wall
                events[index] = ev
                # The worker's simulated events happened in another
                # process; fold them into this one's tally.
                _add_total(ev)
        finally:
            if own is not None:
                own.close()
    wall_s = time.perf_counter() - t0
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:
        raise RuntimeError(f"sweep points {missing} returned no result")
    return SweepOutcome(points=list(points), results=results,  # type: ignore[arg-type]
                        walls=walls, events=events,
                        parallel=parallel, wall_s=wall_s)
