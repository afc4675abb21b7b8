"""Online-inference backends (S5.3): CPU-based, nvJPEG, DLBooster.

Each backend drains the NIC RX queue, preprocesses its way, and feeds
per-GPU TensorRT engines through their Trans Queues.  "Backends such as
LMDB cannot boost the performance for online inference ... because each
input is used only once" — so the offline backend has no inference
counterpart, exactly as in the paper.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from ..calib import Testbed
from ..engines import CpuCorePool, InferenceEngine
from ..faults import FaultInjector, RetryPolicy
from ..fpga import DecodeCmd
from ..host import BatchSpec, DataCollector
from ..net import Nic
from ..sim import Counter, Environment, Resource, scoped_name
from .dlbooster import _DLBoosterPlane

__all__ = ["CpuInferenceBackend", "NvJpegInferenceBackend",
           "DLBoosterInferenceBackend"]


class _InferenceBackendBase:
    name = "abstract"

    def __init__(self, env: Environment, testbed: Testbed, cpu: CpuCorePool,
                 nic: Nic, spec: BatchSpec, namespace: str = ""):
        self.env = env
        self.testbed = testbed
        self.cpu = cpu
        self.nic = nic
        self.spec = spec
        # Per-host metric namespace: ``"host03"`` prefixes every
        # instrument this backend constructs, so K serving pipelines in
        # one Environment never collide in the registry.  Empty (the
        # default) keeps the historical flat names.
        self.namespace = namespace
        self.collector = DataCollector(
            env, name=scoped_name(namespace, f"{self.name}-collector"))
        self.collector.load_from_net(nic)
        self._started = False

    def _scoped(self, name: str) -> str:
        return scoped_name(self.namespace, name)

    def _check_start(self, engines: Sequence[InferenceEngine]) -> None:
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        if not engines:
            raise ValueError("no engines")
        self._started = True


class CpuInferenceBackend(_InferenceBackendBase):
    """Decode workers on host cores -> serial batcher -> PCIe -> engine."""

    name = "cpu-online"

    def __init__(self, *args, max_workers: Optional[int] = None, **kwargs):
        super().__init__(*args, **kwargs)
        workers = (max_workers if max_workers is not None
                   else self.testbed.cpu_infer_max_workers)
        if workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = workers
        self._slots = Resource(self.env, capacity=workers,
                               name=self._scoped("cpu-infer-workers"))
        self.decoded = Counter(self.env, name=self._scoped("cpu-infer.decoded"))

    def start(self, engines: Sequence[InferenceEngine]) -> None:
        self._check_start(engines)
        from ..sim import Channel
        decoded_q = Channel(self.env, capacity=4 * self.spec.batch_size,
                            name=self._scoped("cpu-infer.decoded-q"))
        for w in range(self.max_workers):
            self.env.process(self._worker(decoded_q), name=f"cpu-dec-{w}")
        for engine in engines:
            self.env.process(self._batcher(engine, decoded_q),
                             name=f"cpu-batcher-{engine.gpu.index}")

    def _worker(self, decoded_q):
        tb = self.testbed
        while True:
            item = yield from self.collector.next_from_net()
            yield from self.cpu.run(
                tb.cpu_decode_seconds(item.size_bytes, item.work_pixels),
                "preprocess")
            self.decoded.add()
            yield from decoded_q.put(item)

    def _batcher(self, engine: InferenceEngine, decoded_q):
        tb = self.testbed
        bs = self.spec.batch_size
        item_bytes = self.spec.item_bytes
        per_item = (tb.per_item_copy_seconds(item_bytes)
                    + tb.transform_seconds(self.spec.out_h * self.spec.out_w))
        while True:
            items = []
            for _ in range(bs):
                item = yield from decoded_q.get()
                items.append(item)
            dev_batch = yield from engine.trans_queues.free.get()
            yield from self.cpu.run(per_item * len(items), "transform")
            copy = engine.gpu.memcpy_async(item_bytes * len(items))
            self.cpu.charge_unaccounted(tb.cuda_launch_overhead_s,
                                        "transform")
            yield copy
            dev_batch.item_count = len(items)
            dev_batch.payload = items
            yield from engine.trans_queues.full.put(dev_batch)


class NvJpegInferenceBackend(_InferenceBackendBase):
    """GPU-decoding backend: raw JPEGs ship to the device, decode kernels
    steal SMs from the inference engine (the contention of S5.3)."""

    name = "nvjpeg"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decoded = Counter(self.env, name=self._scoped("nvjpeg.decoded"))

    def start(self, engines: Sequence[InferenceEngine]) -> None:
        self._check_start(engines)
        for engine in engines:
            self.env.process(self._feed(engine),
                             name=f"nvjpeg-feed-{engine.gpu.index}")

    def _feed(self, engine: InferenceEngine):
        """Assemble batches and hand each to an overlapped decode chain.

        The kernel-chain *launch* latency (host side) overlaps with the
        previous batch's decode execution — consecutive batches pipeline
        on the decode stream — so launch overhead adds latency without
        capping throughput below the decode kernels themselves.
        """
        bs = self.spec.batch_size
        inflight = Resource(self.env, capacity=2,
                            name=self._scoped("nvjpeg-inflight"))
        while True:
            items = []
            raw_bytes = 0
            for _ in range(bs):
                item = yield from self.collector.next_from_net()
                items.append(item)
                raw_bytes += item.size_bytes
            slot = inflight.request()
            yield slot
            self.env.process(
                self._decode_chain(engine, items, raw_bytes, inflight, slot))

    def _decode_chain(self, engine: InferenceEngine, items, raw_bytes,
                      inflight, slot):
        tb = self.testbed
        gpu = engine.gpu
        dev_batch = yield from engine.trans_queues.free.get()
        # The decode kernels stay resident on their SM share for the
        # whole in-flight window (nvJPEG pre-allocates its contexts), so
        # concurrent inference kernels see the ~30% steal whenever any
        # decode batch is outstanding — the persistent contention the
        # paper measures (S5.3).
        gpu.begin_decode_kernel(tb.nvjpeg_sm_share)
        try:
            # Ship the *encoded* JPEGs over PCIe (small), then decode.
            yield gpu.memcpy_async(max(raw_bytes, 1))
            # Host side: launch chain + busy loop ("1~2 CPU cores").
            self.cpu.charge_unaccounted(
                tb.nvjpeg_cpu_per_image_s * len(items), "preprocess")
            yield self.env.timeout(tb.nvjpeg_batch_launch_s)
            decode = gpu.decode_stream.submit(
                len(items) / tb.nvjpeg_peak_rate, "nvjpeg")
            yield decode
        finally:
            gpu.end_decode_kernel()
        self.decoded.add(len(items))
        dev_batch.item_count = len(items)
        dev_batch.payload = items
        yield from engine.trans_queues.full.put(dev_batch)
        inflight.release(slot)


class DLBoosterInferenceBackend(_DLBoosterPlane, _InferenceBackendBase):
    """NIC -> FPGA decoder -> hugepage pool -> dispatcher -> engine.

    ``gpu_direct=True`` enables the paper's future-work item (2)
    ("directly writing the processed data to GPU devices for lower
    latency", S7): the decoder's DMA engine targets device memory
    peer-to-peer, skipping the host staging buffer and the dispatcher's
    PCIe copy entirely.

    An ``injector`` arms the decode path against its host's fault plan:
    this is what lets a fleet degrade *one* host's FPGA (decoder_crash
    -> breaker opens -> CPU failover) while its peers stay healthy.
    """

    name = "dlbooster"
    _POOL = "dlbooster-infer-pool"
    _DECODER = "infer-decoder-{}"
    _QUARANTINE = "dlbooster-infer-quarantine"
    _CONSUMER = "engine-{}"

    def __init__(self, *args, num_fpgas: int = 1, gpu_direct: bool = False,
                 supervisor=None, rtracker=None,
                 injector: Optional[FaultInjector] = None,
                 retry: Optional[RetryPolicy] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.gpu_direct = gpu_direct
        self._wire(num_fpgas, injector, retry, supervisor, rtracker,
                   quarantine=injector is not None or retry is not None,
                   gpu_direct=gpu_direct)
        # Supervision (repro.supervision): deadline shedding at the NIC
        # boundary and integrity stamping at ingest.
        sup = self.supervisor
        if sup is not None:
            if sup.sheds_deadlines:
                self.collector.deadline_s = sup.config.deadline_s
            self.collector.integrity = sup.integrity
            sup.arm_admission(self.nic.rx_queue)
            if not gpu_direct:
                sup.watch_channel(self.nic.rx_queue)
        self._next_cmd = 0

    def start(self, engines: Sequence[InferenceEngine]) -> None:
        self._check_start(engines)
        if self.gpu_direct:
            # Peer-to-peer path: one feed per engine, no dispatcher, no
            # host staging — the decoder DMAs straight into the device
            # batch buffer.
            for engine in engines:
                self.env.process(self._gpu_direct_feed(engine),
                                 name=f"dlb-direct-{engine.gpu.index}")
        else:
            self._start_dispatcher(
                engines, self.rtracker.tracer
                if self.rtracker is not None else None)
            self.env.process(
                self.reader.run_stream(self.collector.next_from_net),
                name="dlbooster-infer-feed")
            self.env.process(self._poll_ticker(
                self.testbed.dispatcher_poll_core_frac, "transform"))
        self.env.process(self._poll_ticker(
            self.testbed.reader_poll_core_frac, "preprocess"))

    def _gpu_direct_feed(self, engine: InferenceEngine):
        """Assemble device batches by submitting cmds whose destination
        is GPU memory; completion publishes straight to the engine.

        Batches overlap: while one batch's decode drains, the next
        batch's cmds are already streaming into the FIFO.  The engine's
        Trans-Queue depth bounds the overlap; a demux callback routes
        each FINISH record to its open batch inside the DMA completion
        that raises it.
        """
        tb = self.testbed
        bs = self.spec.batch_size
        channel = self.channels[engine.gpu.index % len(self.channels)]
        item_bytes = self.spec.item_bytes
        waiters: dict[object, list] = {}  # tag -> [remaining, done_event]
        channel.on_finish(partial(self._direct_finish, waiters))
        seq = 0
        while True:
            dev_batch = yield from engine.trans_queues.free.get()
            tag = ("direct", engine.gpu.index, seq)
            seq += 1
            done = self.env.event()
            waiters[tag] = [bs, done]
            opened_at = self.env.now
            items = []
            for slot in range(bs):
                item = yield from self.collector.next_from_net()
                items.append(item)
                trace = getattr(item, "trace", None)
                if trace is not None and not trace.is_finished:
                    trace.mark("reader.submit", "service")
                cmd = DecodeCmd(
                    cmd_id=self._next_cmd, source=item.source,
                    size_bytes=item.size_bytes,
                    work_pixels=item.work_pixels,
                    out_h=self.spec.out_h, out_w=self.spec.out_w,
                    channels=self.spec.channels,
                    dest_phy=dev_batch.device_addr,
                    dest_offset=slot * item_bytes,
                    batch_tag=tag, payload=item.payload,
                    trace=trace,
                    trace_attempt=trace.attempt if trace is not None else 0)
                self._next_cmd += 1
                self.cpu.charge_unaccounted(tb.reader_cmd_cost_s,
                                            "preprocess")
                yield from channel.submit_cmd(cmd)
            self.env.process(
                self._direct_publish(engine, dev_batch, items, done,
                                     tag, opened_at))

    @staticmethod
    def _direct_finish(waiters: dict, record) -> None:
        entry = waiters.get(record.batch_tag)
        if entry is None:
            raise RuntimeError(
                f"FINISH for unknown direct batch {record.batch_tag}")
        entry[0] -= 1
        if entry[0] == 0:
            del waiters[record.batch_tag]
            entry[1].succeed()

    def _direct_publish(self, engine: InferenceEngine, dev_batch, items,
                        done, tag=None, opened_at: float = 0.0):
        yield done
        if self.rtracker is not None:
            traces = [t for t in (getattr(it, "trace", None) for it in items)
                      if t is not None and not t.is_finished]
            if traces:
                # Fan-in happens device-side on this path: N cmds DMA'd
                # straight into one device batch buffer.
                self.rtracker.batch_fanin(tag, traces,
                                          start=opened_at, end=self.env.now)
            for t in traces:
                t.mark("gpu.trans", "wait")
        dev_batch.item_count = len(items)
        dev_batch.payload = items
        yield from engine.trans_queues.full.put(dev_batch)
