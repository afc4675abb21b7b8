"""The DLBooster backend: FPGA decode + hugepage pool + dispatcher.

Wires together every piece of Figure 3: DataCollector (data plane),
FPGA decoder mirror + FPGAChannel (decoder plane), FPGAReader +
MemManager + Dispatcher (host bridger) and the solvers' Trans Queues
(compute engine).  Supports multiple FPGA devices ("the bottleneck can
be overcome by plugging more FPGA devices", S5.3) and the epoch cache
of the hybrid primitive (S3.1).  The decoder plane and host bridger are
wired once, for training here and for serving in
:class:`~repro.backends.inference.DLBoosterInferenceBackend`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..calib import Testbed
from ..engines import CpuCorePool
from ..faults import (CircuitBreaker, FaultInjector, FaultPlan, QuarantineLog,
                      RetryPolicy)
from ..fpga import FpgaDevice, FPGAChannel, ImageDecoderMirror
from ..host import BatchSpec, DataCollector, Dispatcher, FPGAReader
from ..memory import MemManager
from ..sim import SeedBank, scoped_name
from ..storage import FileManifest, NvmeDisk
from .base import TrainingBackend, epoch_stream

__all__ = ["DLBoosterBackend"]

# Host batch buffers in the hugepage pool; ">1 GB in continuous space"
# sliced into pieces (S3.4.2) — 8 units covers fill + DMA + dispatch +
# in-copy overlap for two GPUs.
POOL_UNITS = 8


class _DLBoosterPlane:
    """Figure 3's decoder plane and host bridger, wired once.

    A subclass names its instruments with the class attributes below,
    calls :meth:`_wire` from its constructor and
    :meth:`_start_dispatcher` from ``start()``; it keeps its own item
    source and process start order."""

    namespace = ""
    _POOL = "dlbooster-pool"
    _DECODER = "image-decoder-{}"
    _QUARANTINE = "dlbooster-quarantine"
    _CONSUMER = "solver-{}"

    def _scoped(self, name: str) -> str:
        return scoped_name(self.namespace, name)

    def _wire(self, num_fpgas: int, injector: Optional[FaultInjector],
              retry: Optional[RetryPolicy], supervisor, rtracker,
              tracer=None, quarantine: bool = True, gpu_direct: bool = False,
              functional: bool = False, pool_units: int = POOL_UNITS,
              huffman_ways: Optional[int] = None,
              resizer_ways: Optional[int] = None,
              disk: Optional[NvmeDisk] = None) -> None:
        """Build breaker, quarantine, pool, devices/mirrors/channels and
        (off the gpu-direct path) the FPGAReader.  ``tracer`` goes to the
        reader and the breaker; without ``quarantine`` the reader makes
        its own log."""
        if num_fpgas < 1:
            raise ValueError("num_fpgas must be >= 1")
        if injector is not None and (retry is None or gpu_direct):
            # A lost cmd never gets a FINISH record: only the reader's
            # retransmit table recovers it.  Without one the run would
            # die at its first missed deadline, or serve nothing.
            sites = [f"fpga{i}" for i in range(num_fpgas)]
            for spec in injector.plan:
                if spec.kind in ("cmd_drop", "decoder_crash") \
                        and any(map(spec.matches, sites)):
                    raise ValueError(
                        f"{spec.kind} at site {spec.site!r} loses cmds; "
                        + ("the gpu-direct path has no retransmit table"
                           if gpu_direct else "arm a RetryPolicy"))
        env, testbed = self.env, self.testbed
        # Supervision layer (repro.supervision): only consulted when a
        # Supervisor with an enabled config is handed in, so the default
        # build is byte-identical to an unsupervised one.
        sup = self.supervisor = supervisor \
            if supervisor is not None and supervisor.config.enabled else None
        self.injector = injector
        self.rtracker = rtracker
        self.tracer = tracer
        # Fault layer: a breaker only when a plan or a retry is armed, so
        # the default build is byte-identical to a fault-free one.
        self.breaker = None
        if injector is not None or retry is not None:
            self.breaker = CircuitBreaker(env, tracer=tracer,
                                          name=self._scoped("breaker"))
            if rtracker is not None:
                self.breaker.rtracker = rtracker
        self.quarantine = (
            QuarantineLog(env, name=self._scoped(self._QUARANTINE))
            if quarantine else None)
        self.pool = MemManager(env, unit_size=self.spec.batch_bytes,
                               unit_count=pool_units,
                               allocate_arena=functional,
                               name=self._scoped(self._POOL))
        self.devices: list[FpgaDevice] = []
        self.channels: list[FPGAChannel] = []
        for i in range(num_fpgas):
            device = FpgaDevice(env, testbed, name=self._scoped(f"fpga{i}"))
            mirror = ImageDecoderMirror(
                env, testbed, huffman_ways=huffman_ways,
                resizer_ways=resizer_ways, functional=functional,
                host_pool=self.pool if functional else None,
                disk=disk, name=self._scoped(self._DECODER.format(i)),
                injector=injector, site=f"fpga{i}")
            device.load_mirror(mirror)
            self.devices.append(device)
            self.channels.append(FPGAChannel(
                env, mirror, queue_id=i, injector=injector,
                name=self._scoped(f"ch{i}")))
        self.dispatcher: Optional[Dispatcher] = None
        # The reader's FINISH consumer would take records the gpu-direct
        # feed needs, so it exists only on the staged path.
        self.reader = None
        if gpu_direct:
            return
        self.reader = FPGAReader(
            env, testbed, self.channels, self.pool, self.spec,
            cpu=self.cpu,
            name=self._scoped("fpga-reader"), injector=injector,
            retry=retry, breaker=self.breaker, quarantine=self.quarantine,
            tracer=tracer,
            heartbeat=sup.register("fpga-reader") if sup is not None else None,
            integrity=sup.integrity if sup is not None else None,
            shed_deadlines=sup is not None and sup.sheds_deadlines,
            rtracker=rtracker)
        if sup is not None:
            sup.watch_channel(self.pool.full_batch_queue)
            sup.watch_channel(self.pool.free_batch_queue)

    def _start_dispatcher(self, consumers: Sequence, tracer=None) -> None:
        """Start the Dispatcher over ``consumers`` (solvers or engines)
        and put them under supervision."""
        sup = self.supervisor
        self.dispatcher = Dispatcher(
            self.env, self.testbed, self.pool, consumers, cpu=self.cpu,
            name=self._scoped("dispatcher"),
            heartbeat=(sup.register("dispatcher") if sup is not None
                       else None),
            shed_deadlines=sup is not None and sup.sheds_deadlines,
            tracer=tracer, rtracker=self.rtracker)
        self.dispatcher.start()
        if sup is not None:
            for i, consumer in enumerate(consumers):
                consumer.heartbeat = sup.register(self._CONSUMER.format(i))
                sup.watch_channel(consumer.trans_queues.full)
                sup.watch_channel(consumer.trans_queues.free)
            sup.start()

    def _poll_ticker(self, core_frac: float, category: str,
                     tick_s: float = 0.01):
        """Charge a busy-poll duty cycle while the backend runs."""
        while True:
            yield self.env.timeout(tick_s)
            self.cpu.charge_unaccounted(core_frac * tick_s, category)

    # -- diagnostics ---------------------------------------------------------
    def decoder_utilizations(self) -> list[dict[str, float]]:
        return [d.mirror.stage_utilizations() for d in self.devices]

    def conservation_ok(self) -> bool:
        """Every accepted item is decoded, failed over, quarantined,
        shed, integrity-rejected, or still open.

        ``accepted == fpga_decoded + cpu_failover + quarantined +
        shed_expired + integrity_rejected +
        unresolved-slots-of-open-batches`` — nothing lost, nothing
        double-counted, under any fault plan and shed policy.
        (``quarantined`` here excludes integrity rejects, which land in
        the same quarantine log but are counted on their own.)
        Trivially true on the gpu-direct path (no reader bookkeeping).
        """
        r = self.reader
        if r is None:
            return True
        integrity_rejected = int(r.integrity_rejected.total)
        quarantined_other = r.quarantine.total - integrity_rejected
        resolved = (int(r.items_decoded_fpga.total)
                    + int(r.failover_items.total) + quarantined_other
                    + integrity_rejected + int(r.shed_expired.total))
        unresolved = sum(b.filled - b.done for b in r._open.values())
        return int(r.items_accepted.total) == resolved + unresolved


class DLBoosterBackend(_DLBoosterPlane, TrainingBackend):
    """FPGA decode + hugepage pool + dispatcher (the paper's system)."""

    name = "dlbooster"

    def __init__(self, env, testbed: Testbed, cpu: CpuCorePool,
                 manifest: FileManifest, spec: BatchSpec,
                 seeds: Optional[SeedBank] = None,
                 num_fpgas: int = 1,
                 huffman_ways: Optional[int] = None,
                 resizer_ways: Optional[int] = None,
                 functional: bool = False,
                 disk: Optional[NvmeDisk] = None,
                 pool_units: int = POOL_UNITS,
                 fault_plan: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None,
                 supervisor=None,
                 tracer=None,
                 rtracker=None):
        super().__init__(env, testbed, cpu, manifest, spec, seeds)
        # Fault layer: only materialised when a plan is armed, so the
        # default build is byte-identical to a fault-free one.
        injector = None
        if fault_plan:
            injector = FaultInjector(
                env, fault_plan, seeds=self.seeds.spawn("faults"),
                tracer=tracer)
        self._wire(num_fpgas, injector, retry, supervisor, rtracker,
                   tracer=tracer, functional=functional,
                   pool_units=pool_units, huffman_ways=huffman_ways,
                   resizer_ways=resizer_ways, disk=disk)
        if disk is not None and disk.injector is None:
            disk.injector = injector
        sup = self.supervisor
        self.collector = DataCollector(
            env, integrity=sup.integrity if sup is not None else None)
        self.collector.load_from_disk(manifest)

    def start(self, solvers: Sequence) -> None:
        self._check_start(solvers)
        self._start_dispatcher(solvers, self.tracer)
        self.env.process(self._feed(), name="dlbooster-feed")
        # Daemon-thread busy-poll duty cycles (Fig. 6d breakdown).
        self.env.process(self._poll_ticker(
            self.testbed.reader_poll_core_frac, "preprocess"))
        self.env.process(self._poll_ticker(
            self.testbed.dispatcher_poll_core_frac, "transform"))

    def _feed(self):
        epoch = 0
        while True:
            if self.cache.active:
                yield from self._feed_from_cache()
            else:
                rng = self._epoch_rng()
                yield from self.reader.run_epoch(
                    epoch_stream(self.manifest, rng, epoch))
            epoch += 1
            self.epochs_done += 1
            self.cache.on_epoch_done()

    def _feed_from_cache(self):
        """Epochs after the first, dataset cached decoded in memory: the
        reader bypasses the FPGA and stages batches straight from DRAM."""
        bs = self.spec.batch_size
        n_batches = -(-len(self.manifest) // bs)
        for b in range(n_batches):
            unit = yield from self.pool.get_item()
            count = min(bs, len(self.manifest) - b * bs)
            unit.item_count = count
            unit.used_bytes = count * self.spec.item_bytes
            if not self.pool.full_batch_queue.try_put(unit):
                raise RuntimeError("Full_Batch_Queue overflow")
            self.reader.batches_produced.add()

    def fault_metrics(self) -> dict[str, int]:
        """Resilience bookkeeping for the metrics layer and reports."""
        r = self.reader
        out = {
            "faults_injected": (int(self.injector.injected.total)
                                if self.injector is not None else 0),
            "cmds_dropped": sum(int(ch.dropped.total)
                                for ch in self.channels),
            "decode_errors": sum(int(d.mirror.decode_errors.total)
                                 for d in self.devices),
            "retries": int(r.retries.total),
            "timeouts": int(r.timeouts.total),
            "duplicate_finishes": int(r.duplicate_finishes.total),
            "quarantined": self.quarantine.total,
            "failover_items": int(r.failover_items.total),
            "failovers": (int(self.breaker.failovers.total)
                          if self.breaker is not None else 0),
            "recoveries": (int(self.breaker.recoveries.total)
                           if self.breaker is not None else 0),
            "shed_expired": int(r.shed_expired.total),
            "integrity_rejected": int(r.integrity_rejected.total),
        }
        if self.dispatcher is not None:
            out["dispatcher_items_shed"] = \
                int(self.dispatcher.items_shed.total)
        return out
