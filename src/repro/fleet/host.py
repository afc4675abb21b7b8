"""Host — one complete serving pipeline as an instantiable unit.

The single-host workflow (:mod:`repro.workflows.inference`) wires
NIC -> collector -> FPGA decode -> dispatcher -> GPU engines by hand.
A fleet needs that whole stack K times *inside one Environment*, which
is exactly what :class:`Host` packages: the serving pipeline of one
server — CPU pool, link + NIC, optional Supervisor and fault injector,
backend, engines — with every instrument scoped under a per-host metric
``namespace`` (``host03.nic.rx`` instead of a registry collision).

Construction is split in two phases so the K=1 case reproduces the
historical workflow bit-for-bit:

* ``__init__`` builds cpu -> injector -> link -> nic -> supervisor (the
  exact order the workflow used to build them);
* ``start()`` builds engines -> backend and starts both (the order the
  workflow used after starting its clients).

A workflow caller slots its ClientFleet between the two phases and the
event/process creation sequence — hence every simulated result — is
unchanged.  Fleet callers skip the client fabric entirely and feed the
host through :meth:`admit` (the LoadBalancer's entry point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..backends import (CpuInferenceBackend, DLBoosterInferenceBackend,
                        NvJpegInferenceBackend)
from ..calib import DEFAULT_TESTBED, INFER_MODELS, Testbed
from ..engines import (CpuCorePool, GpuDevice, InferenceEngine,
                       inference_batch_seconds)
from ..faults import FaultInjector, FaultPlan, RetryPolicy
from ..host import BatchSpec
from ..net import Link, Nic
from ..sim import (Counter, Environment, LatencyRecorder, SeedBank,
                   scoped_name)
from ..supervision import SupervisionConfig, Supervisor

__all__ = ["HostConfig", "Host"]

_BACKENDS = ("cpu-online", "nvjpeg", "dlbooster")


@dataclass(frozen=True)
class HostConfig:
    """Shape of one serving host (the per-host slice of the old
    workflow config)."""

    model: str = "googlenet"
    backend: str = "dlbooster"           # cpu-online | nvjpeg | dlbooster
    batch_size: int = 4
    num_gpus: int = 1
    num_fpgas: int = 1
    cpu_cores: Optional[int] = None      # default: testbed.cpu_cores
    max_workers: Optional[int] = None    # cpu-online
    gpu_direct: bool = False             # dlbooster future-work path
    rx_capacity: Optional[int] = None    # default: max(4096, 16 * bs)
    zone: str = ""                       # failure-domain label; a
    # ``zone_outage`` spec crashes every host sharing it.
    supervision: Optional[SupervisionConfig] = None
    # Per-host chaos: ``nic_loss`` specs arm the host's link, FPGA-side
    # specs (``decoder_crash`` etc.) arm its decode path — this is how a
    # fleet experiment degrades exactly one server.
    fault_plan: Optional[FaultPlan] = None
    # Retransmit-table policy for the dlbooster reader; a plan that can
    # lose cmds (``cmd_drop``, ``decoder_crash``) is refused without
    # one, and on the gpu-direct path, which has no retransmit table.
    retry: Optional[RetryPolicy] = None


class Host:
    """One server of a serving fleet (or the whole of a K=1 workflow)."""

    def __init__(self, env: Environment, cfg: HostConfig,
                 testbed: Testbed = DEFAULT_TESTBED,
                 seeds: Optional[SeedBank] = None,
                 namespace: str = "", rtracker=None):
        if cfg.model not in INFER_MODELS:
            raise ValueError(f"unknown model {cfg.model!r}")
        if cfg.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if cfg.num_gpus < 1 or cfg.num_gpus > testbed.gpu_count:
            raise ValueError(f"num_gpus must be 1..{testbed.gpu_count}")
        if cfg.backend not in _BACKENDS:
            raise ValueError(f"unknown backend {cfg.backend!r}; "
                             f"choose from {_BACKENDS}")
        self.env = env
        self.cfg = cfg
        self.testbed = testbed
        self.seeds = seeds if seeds is not None else SeedBank()
        self.namespace = namespace
        self.name = namespace if namespace else "host"
        self.rtracker = rtracker
        self.spec = INFER_MODELS[cfg.model]
        self.bspec = BatchSpec(batch_size=cfg.batch_size,
                               out_h=self.spec.input_hw[0],
                               out_w=self.spec.input_hw[1],
                               channels=self.spec.channels)

        # -- phase 1: ingress side, in the workflow's historical order --
        cores = cfg.cpu_cores if cfg.cpu_cores is not None \
            else testbed.cpu_cores
        self.cpu = CpuCorePool(env, cores,
                               name=scoped_name(namespace, "cpu"))
        self.injector = None
        if cfg.fault_plan:
            self.injector = FaultInjector(env, cfg.fault_plan,
                                          seeds=self.seeds.spawn("faults"))
        self.link = Link(env, testbed.nic_rate, mtu=testbed.nic_mtu,
                         injector=self.injector,
                         name=scoped_name(namespace, "link"))
        rx_capacity = cfg.rx_capacity if cfg.rx_capacity is not None \
            else max(4096, 16 * cfg.batch_size)
        self.nic = Nic(env, self.link, self.cpu.tracker,
                       per_packet_s=testbed.nic_per_packet_s,
                       rx_capacity=rx_capacity,
                       name=scoped_name(namespace, "nic"),
                       rtracker=rtracker)
        sup_cfg = cfg.supervision
        self.supervisor = (Supervisor(env, sup_cfg, namespace=namespace)
                           if sup_cfg is not None and sup_cfg.enabled
                           else None)

        # -- fleet-side accounting (pure instruments: no events, no
        #    processes, so the K=1 workflow stays bit-identical) --------
        self.handled = Counter(env, name=self._scoped("host.handled"))
        self.completed = Counter(env, name=self._scoped("host.completed"))
        self.failed = Counter(env, name=self._scoped("host.failed"))
        # End-to-end turnaround of requests admitted via admit():
        # cumulative for the rollup, plus a swappable window the
        # autoscaler reads p99-burn from.
        self.turnaround = LatencyRecorder(
            name=self._scoped("host.turnaround"))
        self.window = LatencyRecorder(name=self._scoped("host.window"))
        self.in_flight = 0
        self.draining = False
        self.crashed = False
        self.zone = cfg.zone
        self.engines: list[InferenceEngine] = []
        self.backend = None
        self._started = False

    def _scoped(self, name: str) -> str:
        return scoped_name(self.namespace, name)

    # -- phase 2 ---------------------------------------------------------
    def start(self) -> None:
        """Build and start engines + backend (the workflow's tail half)."""
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        self._started = True
        cfg = self.cfg
        ns = self.namespace
        for g in range(cfg.num_gpus):
            gpu = GpuDevice(self.env, self.testbed, g,
                            name=scoped_name(ns, f"gpu{g}") if ns else None)
            engine = InferenceEngine(self.env, gpu, self.spec, self.cpu,
                                     self.testbed,
                                     batch_size=cfg.batch_size)
            engine.start()
            self.engines.append(engine)
        if self.supervisor is not None and self.rtracker is not None:
            self.supervisor.attach_tracker(self.rtracker)
        self.backend = self._make_backend()
        self.backend.start(self.engines)

    def _make_backend(self):
        cfg = self.cfg
        if cfg.supervision is not None and cfg.backend != "dlbooster":
            raise ValueError(f"supervision is only supported by the "
                             f"dlbooster backend, not {cfg.backend!r}")
        args = (self.env, self.testbed, self.cpu, self.nic, self.bspec)
        if cfg.backend == "cpu-online":
            return CpuInferenceBackend(*args, max_workers=cfg.max_workers,
                                       namespace=self.namespace)
        if cfg.backend == "nvjpeg":
            return NvJpegInferenceBackend(*args, namespace=self.namespace)
        if cfg.backend == "dlbooster":
            return DLBoosterInferenceBackend(
                *args, num_fpgas=cfg.num_fpgas, gpu_direct=cfg.gpu_direct,
                supervisor=self.supervisor, rtracker=self.rtracker,
                injector=self.injector, retry=cfg.retry,
                namespace=self.namespace)
        raise ValueError(f"unknown backend {cfg.backend!r}")

    # -- fleet entry point -----------------------------------------------
    @property
    def accepting(self) -> bool:
        return self._started and not self.draining and not self.crashed

    def admit(self, request) -> bool:
        """Inject one request into this host's RX ring (the LB's path,
        bypassing the client wire — the LB sits server-side).

        Returns True when the request was *handled*: enqueued, or shed
        at admission by an armed deadline policy (the issuer has already
        been failed with DeadlineExceeded in that case).  Returns False
        — without touching ``done_event`` — when the host refuses
        (draining, or RX ring overflow), so the caller can try another
        host before failing the issuer.
        """
        if not self.accepting:
            return False
        request.received_at = self.env.now
        if not self.nic.rx_queue.try_put(request):
            self.nic.drops.add()
            return False
        self.handled.add()
        done = request.done_event
        if done is not None:
            self.in_flight += 1
            done.callbacks.append(
                lambda event, _req=request: self._request_done(_req, event))
        return True

    def _request_done(self, request, event) -> None:
        self.in_flight -= 1
        if event._ok:
            self.completed.add()
            latency = self.env.now - request.sent_at
            self.turnaround.record(latency)
            self.window.record(latency)
        else:
            self.failed.add()

    # -- lifecycle -------------------------------------------------------
    def drain(self) -> None:
        """Stop accepting new work; in-flight requests run to completion."""
        self.draining = True

    def undrain(self) -> None:
        self.draining = False

    def crash(self) -> None:
        """The whole pipeline dies (``host_crash`` / ``zone_outage``).

        The host stops accepting and the HealthView classifies it DEAD;
        the simulated silicon keeps draining whatever was queued, but a
        chaos-armed balancer discards those completions (the client's
        connection died with the host), so admitted-but-unfinished
        requests are black-holed until re-dispatch or the deadline
        sweep reclaims them.  Host-level conservation still holds: the
        stranded requests stay ``in_flight`` until their attempt proxies
        are settled.
        """
        self.crashed = True

    @property
    def drained(self) -> bool:
        return self.draining and self.in_flight == 0

    # -- signals the balancer / health view / autoscaler read ------------
    def load(self) -> float:
        """Normalized load: in-flight requests per second of capacity —
        roughly the seconds of work queued on this host."""
        return self.in_flight / max(self.capacity_estimate(), 1e-9)

    def capacity_estimate(self) -> float:
        """Analytic knee: aggregate GPU inference rate, img/s."""
        cfg = self.cfg
        return cfg.num_gpus * cfg.batch_size / inference_batch_seconds(
            self.spec, cfg.batch_size)

    def predictions(self) -> int:
        return int(sum(e.predictions.total for e in self.engines))

    def shed_breakdown(self) -> dict[str, int]:
        out = {"rx": self.nic.rx_queue.shed_total}
        backend = self.backend
        reader = getattr(backend, "reader", None)
        if reader is not None:
            out["reader"] = int(reader.shed_expired.total)
        dispatcher = getattr(backend, "dispatcher", None)
        if dispatcher is not None:
            out["dispatcher"] = int(dispatcher.items_shed.total)
        return out

    def shed_total(self) -> int:
        return sum(self.shed_breakdown().values())

    def breaker_open(self) -> bool:
        breaker = getattr(self.backend, "breaker", None)
        return breaker is not None and breaker.is_open

    def stalls_detected(self) -> int:
        if self.supervisor is None:
            return 0
        return int(self.supervisor.watchdog.stalls_detected.total)

    def take_window(self) -> LatencyRecorder:
        """Swap out the windowed turnaround recorder (autoscaler p99
        burn); the same-name replacement keeps reseeding deterministic."""
        window, self.window = self.window, LatencyRecorder(
            name=self._scoped("host.window"))
        return window

    # -- invariants ------------------------------------------------------
    def conservation_ok(self) -> bool:
        """Every admitted request is resolved or in flight, and the
        backend's own item conservation holds."""
        requests_ok = (int(self.handled.total)
                       == int(self.completed.total) + int(self.failed.total)
                       + self.in_flight)
        backend_ok = (self.backend is None
                      or getattr(self.backend, "conservation_ok",
                                 lambda: True)())
        return requests_ok and backend_ok
