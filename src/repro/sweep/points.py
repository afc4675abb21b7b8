"""Point runners: the units of work a sweep fans out.

Each runner is a module-level function (picklable by name) taking
``(config, seed)`` and returning a plain dict::

    {"values": {...},        # headline scalars for rows/checks
     "rows": [[...], ...],   # optional report rows
     "metrics": {...},       # optional repro-metrics/1 snapshot
     "recorders": {name: LatencyRecorder}}   # optional, picklable

Runners must be deterministic functions of (config, seed): the parallel
identity contract (serial rollup == parallel rollup, byte for byte)
holds exactly because nothing else flows in.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

__all__ = ["POINT_RUNNERS", "point_runner", "fig7_points"]

POINT_RUNNERS: dict[str, Callable[[dict, Optional[int]], dict]] = {}


def point_runner(name: str):
    """Register a sweep point runner under ``name``."""
    def deco(fn):
        POINT_RUNNERS[name] = fn
        return fn
    return deco


def _harvest(registry) -> tuple[dict, dict]:
    """A registry's ``repro-metrics/1`` snapshot plus its latency
    reservoirs (the only instruments that merge across points — and the
    only ones safe to pickle: no Environment reference)."""
    from ..sim.monitor import LatencyRecorder
    metrics = json.loads(registry.to_json(indent=0))
    recorders = {}
    for name in registry.names():
        inst = registry.get(name)
        if isinstance(inst, LatencyRecorder):
            recorders[name] = inst
    return metrics, recorders


@point_runner("fig7_infer")
def run_fig7_point(config: dict, seed: Optional[int]) -> dict:
    """One (model, backend, batch) inference run.

    ``config["telemetry"]`` (default True) attaches a metrics registry
    whose latency reservoirs are harvested for the merged rollup —
    telemetry is modeled-result-neutral, so rows match a bare run.
    """
    from ..telemetry import TelemetryConfig
    from ..workflows import InferenceConfig, run_inference
    config = dict(config)
    telemetry = config.pop("telemetry", True)
    if seed is not None:
        config["seed"] = seed
    if telemetry:
        config["telemetry"] = TelemetryConfig()
    cfg = InferenceConfig(**config)
    res = run_inference(cfg)
    out = {
        "values": {"throughput": res.throughput,
                   "latency_p50_ms": res.latency_p50_ms,
                   "latency_p99_ms": res.latency_p99_ms,
                   "cpu_cores": res.cpu_cores},
        "rows": [[cfg.model, cfg.backend, cfg.batch_size,
                  res.throughput]],
    }
    if telemetry:
        metrics, recorders = _harvest(res.extras["telemetry"]["registry"])
        out["metrics"] = metrics
        out["recorders"] = recorders
    return out


def _serve_point(entry: Callable[..., dict], config: dict,
                 seed: Optional[int]) -> dict:
    """One fleet scenario: ``entry``'s preset with ``config`` (Scenario
    fields) and the sweep's seed applied."""
    config = dict(config)
    if seed is not None:
        config["seed"] = seed
    return {"values": entry(**config)}


@point_runner("fleet_serve")
def run_fleet_point(config: dict, seed: Optional[int]) -> dict:
    """One multi-host serving scenario (repro.fleet rollup payload)."""
    from ..experiments.fleet import serve_fleet
    return _serve_point(serve_fleet, config, seed)


@point_runner("fleet_autoscale")
def run_autoscale_point(config: dict, seed: Optional[int]) -> dict:
    """One autoscaler surge-and-recover scenario."""
    from ..experiments.fleet import serve_autoscale
    return _serve_point(serve_autoscale, config, seed)


@point_runner("chaos_serve")
def run_chaos_point(config: dict, seed: Optional[int]) -> dict:
    """One chaos-armed fleet scenario (fault plan + recovery config)."""
    from ..experiments.chaos_fleet import serve_chaos
    return _serve_point(serve_chaos, config, seed)


@point_runner("ps_study")
def run_ps_point(config: dict, seed: Optional[int]) -> dict:
    """One parameter-server contention study point.

    The study is fully deterministic (no RNG anywhere in the ring), so
    ``seed`` is accepted for sweep-axis uniformity but does not alter
    the model — every seed of the same config returns the same values.
    """
    from ..cluster import PsStudyConfig, run_ps_study
    result = run_ps_study(PsStudyConfig(**dict(config)))
    cfg = result.config
    out = {
        "values": {"throughput": result.throughput,
                   "iteration_s": result.iteration_s,
                   "cpu_cores_per_server": result.cpu_cores_per_server,
                   "agg_cores_per_server": result.agg_cores_per_server,
                   "rounds": result.extras["rounds"],
                   "lockstep_ok": result.extras["lockstep_ok"]},
        "rows": [[cfg.model, cfg.backend, cfg.world, result.throughput,
                  result.cpu_cores_per_server]],
    }
    if result.registry is not None:
        metrics, recorders = _harvest(result.registry)
        out["metrics"] = metrics
        out["recorders"] = recorders
    return out


def fig7_points(models=("googlenet",), backends=("dlbooster",),
                batches=(1, 8), seeds=(0,), warmup_s: float = 0.8,
                measure_s: float = 2.5, telemetry: bool = True
                ) -> list:
    """The standard fig7 grid: (model x backend x batch) x seeds, in the
    same nesting order as the serial figure loop."""
    from .runner import SweepPoint
    points = []
    for model in models:
        for backend in backends:
            for batch in batches:
                for seed in seeds:
                    points.append(SweepPoint(
                        runner="fig7_infer",
                        config={"model": model, "backend": backend,
                                "batch_size": batch,
                                "warmup_s": warmup_s,
                                "measure_s": measure_s,
                                "telemetry": telemetry},
                        seed=seed,
                        label=f"{model}/{backend}/bs{batch}/s{seed}"))
    return points
