"""LMDB offline backend (the paper's second training baseline).

Datums are pre-converted once (the multi-hour ingest of S2.2) into an
LMDB-style store holding *decoded* records, so training-time service is
record fetch + transform + copy — no JPEG decode.  All GPUs read the
one shared environment; reads serialize on its B-tree/reader-table,
which is the "competition on the shared DB backend as more GPUs are
used" that costs 30% at 2 GPUs in Figs. 2/5(b).
"""

from __future__ import annotations

from typing import Sequence

from ..sim import Counter, Resource
from .base import TrainingBackend, epoch_stream

__all__ = ["LmdbBackend", "ingest_manifest"]

RECORD_HEADER_BYTES = 64  # datum framing (shape, label, checksum)


def ingest_manifest(manifest, spec, testbed) -> float:
    """Offline conversion cost (seconds) of preparing the store.

    "We spent more than 2 hours to prepare the LMDB backend for
    ILSVRC12" (S2.2) — decode + resize + write for every sample at the
    calibrated ingest rate.
    """
    return len(manifest) / testbed.lmdb_ingest_rate


class LmdbBackend(TrainingBackend):
    """Offline records from one shared KV environment (reads serialize)."""

    name = "lmdb"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Stored datum geometry: Caffe's ImageNet recipe stores 256x256
        # raw; MNIST stores the native 28x28.
        big = max(self.spec.out_h, self.spec.out_w) > 64
        store_h, store_w = (256, 256) if big else (self.spec.out_h,
                                                   self.spec.out_w)
        self.record_bytes = (store_h * store_w * self.spec.channels
                             + RECORD_HEADER_BYTES)
        # One shared environment: reads serialize here.
        self._environment = Resource(self.env, capacity=1, name="lmdb-env")
        self.records_read = Counter(self.env, name="lmdb.reads")
        self.ingest_seconds = ingest_manifest(self.manifest, self.spec,
                                              self.testbed)

    def start(self, solvers: Sequence) -> None:
        self._check_start(solvers)
        for solver in solvers:
            self.env.process(self._loader(solver),
                             name=f"lmdb-feed-{solver.gpu.index}")

    def _read_record(self):
        """One cursor step against the shared environment."""
        if self.cache.active:
            # Page-cache-hot store: no environment round trip; cost folds
            # into the loader's per-item copy below.
            return
        grant = self._environment.request()
        yield grant
        try:
            yield from self.cpu.run(
                self.testbed.lmdb_record_seconds(self.record_bytes),
                "preprocess")
        finally:
            self._environment.release(grant)
        self.records_read.add()

    def _loader(self, solver):
        """Caffe's LMDB data layer: cursor -> transform -> copy, serial."""
        tb = self.testbed
        bs = self.spec.batch_size
        item_bytes = self.spec.item_bytes
        per_item_cpu = (tb.per_item_copy_seconds(item_bytes)
                        + tb.transform_seconds(self.spec.out_h
                                               * self.spec.out_w))
        epoch = 0
        while True:
            rng = self._epoch_rng()
            count_in_batch = 0
            dev_batch = yield from solver.trans_queues.free.get()
            for item in epoch_stream(self.manifest, rng, epoch):
                yield from self._read_record()
                yield from self.cpu.run(per_item_cpu, "transform")
                count_in_batch += 1
                if count_in_batch == bs:
                    copy = solver.gpu.memcpy_async(item_bytes * bs)
                    self.cpu.charge_unaccounted(tb.cuda_launch_overhead_s,
                                                "transform")
                    yield copy
                    dev_batch.item_count = bs
                    yield from solver.trans_queues.full.put(dev_batch)
                    count_in_batch = 0
                    dev_batch = yield from solver.trans_queues.free.get()
            if count_in_batch:
                copy = solver.gpu.memcpy_async(item_bytes * count_in_batch)
                yield copy
                dev_batch.item_count = count_in_batch
                yield from solver.trans_queues.full.put(dev_batch)
            else:
                dev_batch.reset()
                yield from solver.trans_queues.free.put(dev_batch)
            epoch += 1
            self.epochs_done += 1
            self.cache.on_epoch_done()
