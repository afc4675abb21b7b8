"""Online-inference workflow driver (the S5.3 experiments).

5 closed-loop clients stream JPEGs over the 40 Gbps fabric to a serving
stack of {backend, TensorRT engine}; the driver measures steady-state
throughput, serving latency (NIC receive -> prediction) and CPU cores —
the three panels of Figs. 7, 8 and 9.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Optional

from ..calib import DEFAULT_TESTBED, Testbed
from ..data import jpeg_size_sampler
from ..faults import FaultPlan
from ..fleet import Host, HostConfig
from ..net import ClientFleet
from ..sim import Environment, LatencyRecorder, SeedBank
from ..sim.trace import Tracer
from ..supervision import SupervisionConfig
from ..telemetry import MetricsRegistry, QueueDepthSampler, TelemetryConfig
from ..tracing import RequestTracker, TracingConfig
from .metrics import CounterWindow, CpuWindow, HealthWindow, check_windows

__all__ = ["InferenceConfig", "InferenceResult", "run_inference",
           "INFERENCE_BACKENDS"]

INFERENCE_BACKENDS = ("cpu-online", "nvjpeg", "dlbooster")


@dataclass(frozen=True)
class InferenceConfig:
    model: str                       # googlenet | vgg16 | resnet50
    backend: str                     # INFERENCE_BACKENDS
    batch_size: int = 1
    num_gpus: int = 1
    num_clients: Optional[int] = None    # default: testbed (5)
    warmup_s: float = 1.0
    measure_s: float = 4.0
    seed: int = 0
    max_workers: Optional[int] = None    # cpu-online
    num_fpgas: int = 1                   # dlbooster
    gpu_direct: bool = False             # dlbooster future-work (S7 (2))
    # Unloaded mode: exactly one batch outstanding, so latency is pure
    # pipeline time (the paper's "ultralow latency" bs=1 numbers are
    # unloaded minima; under closed-loop saturation Little's law ties
    # latency to the population instead).
    unloaded: bool = False
    # Chaos engineering: ``nic_loss`` specs apply to the client->server
    # link (lost packet bursts are retransmitted, costing wire time).
    fault_plan: Optional[FaultPlan] = None
    # Pipeline supervision (dlbooster, staged path): watchdog heartbeats,
    # deadline shedding, integrity verification.  ``deadline_s`` in the
    # config also stamps every client request with an absolute deadline.
    supervision: Optional[SupervisionConfig] = None
    # Unified observability (repro.telemetry): metrics registry over
    # every instrument + queue-depth time series; results land in
    # ``extras["telemetry"]`` and optionally a JSON export.
    telemetry: Optional[TelemetryConfig] = None
    # Causal per-request tracing (repro.tracing): traces minted at NIC
    # RX, critical-path attribution, flight recorder, post-mortems and
    # Chrome-trace export.  ``None`` (or ``enabled=False``) constructs
    # nothing and leaves the run bit-identical.
    tracing: Optional[TracingConfig] = None


@dataclass
class InferenceResult:
    config: InferenceConfig
    throughput: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p99_ms: float
    cpu_cores: float
    cpu_breakdown: dict[str, float] = field(default_factory=dict)
    gpu_compute_util: float = 0.0
    gpu_decode_util: float = 0.0
    extras: dict = field(default_factory=dict)


def run_inference(cfg: InferenceConfig,
                  testbed: Testbed = DEFAULT_TESTBED) -> InferenceResult:
    """Execute one serving experiment and report its window metrics.

    With ``cfg.telemetry`` set, the whole stack is built inside an
    installed :class:`~repro.telemetry.MetricsRegistry` and a
    :class:`~repro.telemetry.QueueDepthSampler` records the hot queues;
    both land in ``result.extras["telemetry"]``.
    """
    check_windows(cfg.warmup_s, cfg.measure_s)
    if cfg.telemetry is None:
        return _run_inference(cfg, testbed, None)
    registry = MetricsRegistry(name=f"inference.{cfg.backend}")
    with registry.installed():
        return _run_inference(cfg, testbed, registry)


def _run_inference(cfg: InferenceConfig, testbed: Testbed,
                   registry: Optional[MetricsRegistry]) -> InferenceResult:
    # A finished run is cyclic garbage that only a full collection
    # frees; collect it before building the next, as training does.
    gc.collect()
    env = Environment()
    seeds = SeedBank(cfg.seed)

    # Causal tracing: tracker + tracer exist only when asked for, so an
    # untraced run constructs byte-identical state.
    rtracker = None
    if cfg.tracing is not None and cfg.tracing.enabled:
        rtracker = RequestTracker(
            env, tracer=Tracer(env, max_events=cfg.tracing.max_events),
            flight_capacity=cfg.tracing.flight_recorder_size,
            emit_spans=cfg.tracing.emit_spans)

    # The whole serving pipeline is one fleet Host (K=1): the phased
    # construction — ingress in __init__, engines + backend in start()
    # with the client fleet in between — reproduces the historical
    # flat-wiring order, so single-host results are bit-identical.
    host = Host(env, HostConfig(
        model=cfg.model, backend=cfg.backend, batch_size=cfg.batch_size,
        num_gpus=cfg.num_gpus, num_fpgas=cfg.num_fpgas,
        max_workers=cfg.max_workers, gpu_direct=cfg.gpu_direct,
        supervision=cfg.supervision, fault_plan=cfg.fault_plan),
        testbed=testbed, seeds=seeds, rtracker=rtracker)
    cpu, nic, injector = host.cpu, host.nic, host.injector
    link, supervisor = host.link, host.supervisor
    num_clients = cfg.num_clients or testbed.inference_clients
    # Closed-loop credit: ~2.5 batches per GPU outstanding — one being
    # inferred, one being decoded, headroom for the copy — so the server
    # saturates while the latency metric reflects pipeline time rather
    # than unbounded queue build-up.
    if cfg.unloaded:
        total_window = cfg.batch_size * cfg.num_gpus
        num_clients = min(num_clients, total_window)
    else:
        total_window = max(num_clients,
                           int(2.5 * cfg.batch_size * cfg.num_gpus) + 2)
    window = -(-total_window // num_clients)
    sup_cfg = cfg.supervision
    fleet = ClientFleet(env, nic, num_clients=num_clients,
                        image_hw=testbed.client_image_hw,
                        rng=seeds.stream("clients"), window=window,
                        size_sampler=jpeg_size_sampler(),
                        deadline_s=(sup_cfg.deadline_s
                                    if supervisor is not None else None))
    fleet.start()

    host.start()
    engines = host.engines
    backend = host.backend

    sampler = None
    if registry is not None:
        sampler = QueueDepthSampler(
            env, interval_s=cfg.telemetry.sample_interval_s,
            max_points=cfg.telemetry.max_points)
        sampler.watch_channel(nic.rx_queue)
        pool = getattr(backend, "pool", None)
        if pool is not None:
            sampler.watch_pool(pool)
            sampler.watch_pair(pool.queues)
        for engine in engines:
            sampler.watch_pair(engine.trans_queues)
        sampler.start()

    env.run(until=cfg.warmup_s)
    predictions = CounterWindow(env, [e.predictions for e in engines])
    cores = CpuWindow(env, cpu)
    health = None
    if supervisor is not None:
        extra = {}
        if backend.reader is not None:
            extra["reader_shed_expired"] = backend.reader.shed_expired
            extra["integrity_rejected"] = backend.reader.integrity_rejected
        if backend.dispatcher is not None:
            extra["dispatcher_items_shed"] = backend.dispatcher.items_shed
            extra["dispatcher_batches_shed"] = backend.dispatcher.batches_shed
        if nic.rx_queue._shed_count is not None:
            extra["rx_shed"] = nic.rx_queue._shed_count
        extra["client_expired"] = fleet.expired
        health = HealthWindow(env, supervisor, extra_counters=extra)
    predictions.mark()
    cores.mark()
    if health is not None:
        health.mark()
    gpu_busy_mark = {e.gpu.name: (e.gpu.busy.busy_seconds("infer"),
                                  e.gpu.busy.busy_seconds("nvjpeg"))
                     for e in engines}
    for engine in engines:  # fresh latency windows
        engine.latency = LatencyRecorder(name=f"{engine.gpu.name}.latency")
    env.run(until=cfg.warmup_s + cfg.measure_s)

    lat_all = LatencyRecorder(name="serving.latency")
    for engine in engines:
        lat_all.merge(engine.latency)

    breakdown = cores.breakdown()
    window_s = cfg.measure_s
    compute_util = sum(
        e.gpu.busy.busy_seconds("infer") - gpu_busy_mark[e.gpu.name][0]
        for e in engines) / (window_s * cfg.num_gpus)
    decode_util = sum(
        e.gpu.busy.busy_seconds("nvjpeg") - gpu_busy_mark[e.gpu.name][1]
        for e in engines) / (window_s * cfg.num_gpus)

    extras = {"client_rtt_ms": fleet.rtt.mean() * 1e3,
              "rx_drops": nic.drops.total}
    if injector is not None:
        extras["faults_injected"] = int(injector.injected.total)
        extras["retransmitted_packets"] = int(
            link.retransmitted_packets.total)
    if cfg.backend == "dlbooster":
        extras["decoder_utilizations"] = backend.decoder_utilizations()
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
    if rtracker is not None:
        if sampler is not None:
            # Join the queue-depth time series onto the request spans so
            # the exported trace shows *why* a wait segment is long.
            sampler.to_trace(rtracker.tracer)
        extras["tracing"] = {
            "tracker": rtracker,
            "stats": rtracker.stats(),
            "critical_path": rtracker.attribution.report(),
            "critical_path_render": rtracker.attribution.render(),
            "postmortems": [pm.render() for pm in rtracker.postmortems],
            "flight_recorder": rtracker.recorder.snapshot(),
            "p99_exemplar": lat_all.exemplar_for(99),
        }
        if cfg.tracing.export_path:
            rtracker.export_chrome(cfg.tracing.export_path)

    return InferenceResult(
        config=cfg,
        throughput=predictions.rate(),
        latency_mean_ms=lat_all.mean() * 1e3,
        latency_p50_ms=lat_all.p50() * 1e3,
        latency_p99_ms=lat_all.p99() * 1e3,
        cpu_cores=sum(breakdown.values()),
        cpu_breakdown=breakdown,
        gpu_compute_util=compute_util,
        gpu_decode_util=decode_util,
        extras=extras)
