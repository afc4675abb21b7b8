"""Offline-training workflow driver (the S5.2 experiments).

Builds the full stack — corpus, CPU pool, GPUs + solvers + gradient
sync, the chosen preprocessing backend — runs a warm-up, then measures
a steady-state window and reports throughput and CPU cores exactly as
Figs. 5 and 6 do.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Optional

from ..backends import (CpuOnlineBackend, DLBoosterBackend, LmdbBackend,
                        SyntheticBackend)
from ..calib import DEFAULT_TESTBED, TRAIN_MODELS, Testbed
from ..engines import (CpuCorePool, GpuDevice, SyncGroup, TrainingSolver,
                       allreduce_seconds, train_iteration_seconds)
from ..faults import FaultPlan, RetryPolicy
from ..host import BatchSpec
from ..data import imagenet_like_manifest, mnist_like_manifest
from ..sim import Environment, SeedBank
from ..storage import NvmeDisk
from ..sim.trace import Tracer
from ..supervision import SupervisionConfig, Supervisor
from ..telemetry import MetricsRegistry, QueueDepthSampler, TelemetryConfig
from ..tracing import RequestTracker, TracingConfig
from .metrics import (CounterWindow, CpuWindow, HealthWindow,
                      ResilienceWindow, check_windows)

__all__ = ["TrainingConfig", "TrainingResult", "run_training",
           "ideal_training_throughput", "TRAINING_BACKENDS"]

TRAINING_BACKENDS = ("synthetic", "cpu-online", "lmdb", "dlbooster")

# Default corpus sizes: MNIST is its real 60k; the ILSVRC12 stand-in is
# shrunk from 12.8M to 400k samples — still far beyond the page cache
# (so no backend can cheat by caching, as on the real corpus) while
# keeping epochs long relative to the measurement window.
MNIST_N = 60_000
IMAGENET_N = 400_000


@dataclass(frozen=True)
class TrainingConfig:
    model: str                       # lenet5 | alexnet | resnet18
    backend: str                     # TRAINING_BACKENDS
    num_gpus: int = 1
    batch_size: Optional[int] = None
    dataset_size: Optional[int] = None
    warmup_s: float = 2.0
    measure_s: float = 8.0
    seed: int = 0
    # backend-specific knobs
    max_workers: Optional[int] = None    # cpu-online
    num_fpgas: int = 1                   # dlbooster
    huffman_ways: Optional[int] = None   # dlbooster ablations
    resizer_ways: Optional[int] = None
    # chaos engineering (dlbooster): armed fault plan + recovery policy
    fault_plan: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    # pipeline supervision (dlbooster): watchdog + integrity verification
    supervision: Optional[SupervisionConfig] = None
    # unified observability: registry + queue-depth series in extras
    telemetry: Optional[TelemetryConfig] = None
    # causal per-request tracing (dlbooster): traces minted at reader
    # ingest, critical-path attribution, flight recorder, post-mortems
    # and Chrome-trace export.  ``None`` (or ``enabled=False``)
    # constructs nothing and leaves the run bit-identical.
    tracing: Optional[TracingConfig] = None


@dataclass
class TrainingResult:
    config: TrainingConfig
    throughput: float                    # images/s, all GPUs
    per_gpu_throughput: float
    ideal_throughput: float              # GPU performance bound
    cpu_cores: float                     # total cores burned in window
    cpu_cores_per_gpu: float
    cpu_breakdown: dict[str, float] = field(default_factory=dict)
    epochs_done: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def efficiency(self) -> float:
        """Fraction of the GPU bound this backend sustains."""
        return self.throughput / self.ideal_throughput \
            if self.ideal_throughput else 0.0


def ideal_training_throughput(model: str, num_gpus: int,
                              batch_size: Optional[int] = None,
                              testbed: Testbed = DEFAULT_TESTBED) -> float:
    """The "Performance Upper Boundary" of Figs. 2/5: compute + allreduce
    with preprocessing removed."""
    spec = TRAIN_MODELS[model]
    bs = batch_size or spec.batch_size
    iter_s = train_iteration_seconds(spec, bs) \
        + allreduce_seconds(spec, num_gpus, testbed)
    return num_gpus * bs / iter_s


def _make_manifest(model: str, n: Optional[int], seeds: SeedBank):
    if model == "lenet5":
        return mnist_like_manifest(MNIST_N if n is None else n, seeds)
    return imagenet_like_manifest(IMAGENET_N if n is None else n, seeds)


def _make_backend(cfg: TrainingConfig, env, testbed, cpu, manifest, spec,
                  seeds, disk, tracer=None, supervisor=None, rtracker=None):
    if cfg.fault_plan is not None and cfg.backend != "dlbooster":
        raise ValueError(f"fault_plan is only supported by the dlbooster "
                         f"backend, not {cfg.backend!r}")
    if cfg.supervision is not None and cfg.backend != "dlbooster":
        raise ValueError(f"supervision is only supported by the dlbooster "
                         f"backend, not {cfg.backend!r}")
    if cfg.backend == "synthetic":
        return SyntheticBackend(env, testbed, cpu, manifest, spec, seeds)
    if cfg.backend == "cpu-online":
        return CpuOnlineBackend(env, testbed, cpu, manifest, spec, seeds,
                                max_workers=cfg.max_workers, disk=disk)
    if cfg.backend == "lmdb":
        # The KV backend's record service time already folds in its
        # (sequentialized) page IO.
        return LmdbBackend(env, testbed, cpu, manifest, spec, seeds)
    if cfg.backend == "dlbooster":
        return DLBoosterBackend(env, testbed, cpu, manifest, spec, seeds,
                                num_fpgas=cfg.num_fpgas,
                                huffman_ways=cfg.huffman_ways,
                                resizer_ways=cfg.resizer_ways,
                                disk=disk, fault_plan=cfg.fault_plan,
                                retry=cfg.retry, supervisor=supervisor,
                                tracer=tracer, rtracker=rtracker)
    raise ValueError(f"unknown backend {cfg.backend!r}; "
                     f"choose from {TRAINING_BACKENDS}")


def run_training(cfg: TrainingConfig,
                 testbed: Testbed = DEFAULT_TESTBED,
                 tracer_factory=None) -> TrainingResult:
    """Execute one training experiment and report its window metrics.

    ``tracer_factory`` (optional) is called with the run's Environment
    and must return a tracer (e.g. ``repro.sim.Tracer``); the instance
    lands in ``result.extras["tracer"]`` for Chrome-trace export.

    With ``cfg.telemetry`` set, the stack is built inside an installed
    :class:`~repro.telemetry.MetricsRegistry`, queue depths are sampled
    periodically, and — when a tracer is present — the depth series and
    final metric state merge into it as Chrome-trace counter tracks.
    """
    if cfg.dataset_size is not None and cfg.dataset_size < 1:
        raise ValueError("dataset_size must be >= 1")
    check_windows(cfg.warmup_s, cfg.measure_s)
    if cfg.telemetry is None:
        return _run_training(cfg, testbed, tracer_factory, None)
    registry = MetricsRegistry(name=f"training.{cfg.backend}")
    with registry.installed():
        return _run_training(cfg, testbed, tracer_factory, registry)


def _run_training(cfg: TrainingConfig, testbed: Testbed, tracer_factory,
                  registry: Optional[MetricsRegistry]) -> TrainingResult:
    if cfg.model not in TRAIN_MODELS:
        raise ValueError(f"unknown model {cfg.model!r}")
    if cfg.num_gpus < 1 or cfg.num_gpus > testbed.gpu_count:
        raise ValueError(f"num_gpus must be 1..{testbed.gpu_count}")

    env = Environment()
    seeds = SeedBank(cfg.seed)
    model_spec = TRAIN_MODELS[cfg.model]
    bs = cfg.batch_size or model_spec.batch_size
    bspec = BatchSpec(batch_size=bs, out_h=model_spec.input_hw[0],
                      out_w=model_spec.input_hw[1],
                      channels=model_spec.channels)
    cpu = CpuCorePool(env, testbed.cpu_cores)
    # A finished run is cyclic garbage that sits in the oldest
    # generation, where only a full collection frees it.  Collect before
    # building the next corpus, so back-to-back runs keep one corpus
    # alive, not as many as happen to survive until the next full pass.
    gc.collect()
    manifest = _make_manifest(cfg.model, cfg.dataset_size, seeds)

    sync = SyncGroup(env, cfg.num_gpus, model_spec, testbed)
    solvers = []
    for g in range(cfg.num_gpus):
        gpu = GpuDevice(env, testbed, g)
        solver = TrainingSolver(env, gpu, model_spec, sync, cpu, testbed,
                                batch_size=bs)
        solver.start()
        solvers.append(solver)

    disk = NvmeDisk(env, testbed)
    tracer = tracer_factory(env) if tracer_factory is not None else None
    # Causal tracing: tracker exists only when asked for, so an untraced
    # run constructs byte-identical state.  An externally supplied tracer
    # (tracer_factory) is reused so request spans and the caller's own
    # annotations land in one timeline.
    rtracker = None
    if cfg.tracing is not None and cfg.tracing.enabled:
        if tracer is None:
            tracer = Tracer(env, max_events=cfg.tracing.max_events)
        rtracker = RequestTracker(
            env, tracer=tracer,
            flight_capacity=cfg.tracing.flight_recorder_size,
            emit_spans=cfg.tracing.emit_spans)
    supervisor = (Supervisor(env, cfg.supervision, tracer=tracer)
                  if cfg.supervision is not None and cfg.supervision.enabled
                  else None)
    if supervisor is not None and rtracker is not None:
        supervisor.attach_tracker(rtracker)
    backend = _make_backend(cfg, env, testbed, cpu, manifest, bspec, seeds,
                            disk, tracer=tracer, supervisor=supervisor,
                            rtracker=rtracker)
    backend.start(solvers)

    sampler = None
    if registry is not None:
        sampler = QueueDepthSampler(
            env, interval_s=cfg.telemetry.sample_interval_s,
            max_points=cfg.telemetry.max_points)
        pool = getattr(backend, "pool", None)
        if pool is not None:
            sampler.watch_pool(pool)
            sampler.watch_pair(pool.queues)
        for solver in solvers:
            sampler.watch_pair(solver.trans_queues)
        sampler.start()

    # For cacheable corpora the warm-up must cover the first (decode)
    # epoch so the window measures the steady cached regime, as the
    # paper's MNIST discussion describes.
    warmup = cfg.warmup_s
    if backend.cache.fits and cfg.backend != "synthetic":
        first_epoch_floor = len(manifest) / max(
            ideal_training_throughput(cfg.model, cfg.num_gpus, bs, testbed),
            1.0)
        warmup = max(warmup, 2.5 * first_epoch_floor)

    env.run(until=warmup)
    images = CounterWindow(env, [s.images_trained for s in solvers])
    cores = CpuWindow(env, cpu)
    resilience = (ResilienceWindow(env, backend)
                  if cfg.backend == "dlbooster" else None)
    health = (HealthWindow(env, supervisor)
              if supervisor is not None else None)
    images.mark()
    cores.mark()
    if resilience is not None:
        resilience.mark()
    if health is not None:
        health.mark()
    env.run(until=warmup + cfg.measure_s)

    throughput = images.rate()
    breakdown = cores.breakdown()
    total_cores = sum(breakdown.values())
    extras = {}
    if cfg.backend == "dlbooster":
        extras["decoder_utilizations"] = backend.decoder_utilizations()
        extras["pool_conservation"] = backend.pool.conservation_ok()
        extras["resilience"] = resilience.deltas()
        extras["fault_totals"] = backend.fault_metrics()
        extras["item_conservation"] = backend.conservation_ok()
        extras["quarantine_reasons"] = backend.quarantine.reasons()
        if backend.breaker is not None:
            extras["breaker_state"] = backend.breaker.state
        if health is not None:
            extras["health"] = health.deltas()
            extras["stall_reports"] = [
                r.render() for r in supervisor.stall_reports]
    if registry is not None:
        extras["telemetry"] = {"registry": registry,
                               "metrics": registry.snapshot(),
                               "queue_depths": sampler.series()}
        if cfg.telemetry.export_path:
            registry.to_json(cfg.telemetry.export_path,
                             extra={"queue_depths": sampler.series()})
        if tracer is not None:
            sampler.to_trace(tracer)
            registry.to_trace(tracer)
    if tracer is not None:
        extras["tracer"] = tracer
    if rtracker is not None:
        tracing_extras = {
            "tracker": rtracker,
            "stats": rtracker.stats(),
            "critical_path": rtracker.attribution.report(),
            "critical_path_render": rtracker.attribution.render(),
            "postmortems": [pm.render() for pm in rtracker.postmortems],
            "flight_recorder": rtracker.recorder.snapshot(),
        }
        reader = getattr(backend, "reader", None)
        if reader is not None and hasattr(reader, "decode_latency"):
            tracing_extras["p99_exemplar"] = \
                reader.decode_latency.exemplar_for(99)
        extras["tracing"] = tracing_extras
        if cfg.tracing.export_path:
            rtracker.export_chrome(cfg.tracing.export_path)
    if cfg.backend == "lmdb":
        extras["ingest_seconds"] = backend.ingest_seconds
    extras["cache_active"] = backend.cache.active
    extras["disk_utilization"] = disk.utilization()

    return TrainingResult(
        config=cfg,
        throughput=throughput,
        per_gpu_throughput=throughput / cfg.num_gpus,
        ideal_throughput=ideal_training_throughput(
            cfg.model, cfg.num_gpus, bs, testbed),
        cpu_cores=total_cores,
        cpu_cores_per_gpu=total_cores / cfg.num_gpus,
        cpu_breakdown=breakdown,
        epochs_done=backend.epochs_done,
        extras=extras)
