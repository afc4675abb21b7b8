"""Common backend machinery: the feed contract and the epoch cache.

A *training backend* keeps each solver's FULL Trans Queue supplied with
device batches, looping over the dataset epoch after epoch, until the
workflow stops measuring.  An *inference backend* does the same fed from
the NIC.  Both report their preprocessing CPU through the shared
:class:`~repro.engines.CpuCorePool` categories so Figs. 6/9 fall out of
one accounting mechanism.

The epoch cache implements the paper's hybrid primitive (S3.1):
"DLBooster preprocesses all data in the first epoch and caches them in
memory as it can" — and the same OS-page-cache effect benefits the
baselines on MNIST ("the MNIST dataset is so small that it can be
cached in memory after the first epoch", S5.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Optional, Sequence

import numpy as np

from ..calib import Testbed
from ..engines import CpuCorePool
from ..host import BatchSpec, WorkItem
from ..sim import Environment, SeedBank
from ..storage import FileManifest

__all__ = ["TrainingBackend", "DatasetCache", "epoch_stream"]


def epoch_stream(manifest: FileManifest, rng: Optional[np.random.Generator],
                 epoch: int) -> Iterator[WorkItem]:
    """WorkItems for one training epoch (shuffled when rng given)."""
    for idx in manifest.epoch_order(rng):
        entry = manifest[int(idx)]
        yield WorkItem(source="disk", size_bytes=entry.size_bytes,
                       work_pixels=entry.decode_work_pixels,
                       channels=entry.channels, label=entry.label,
                       payload=entry.payload, entry=entry)


class DatasetCache:
    """Decoded-dataset memory cache with a capacity policy."""

    def __init__(self, testbed: Testbed, manifest: FileManifest,
                 spec: BatchSpec):
        self.testbed = testbed
        decoded_bytes = len(manifest) * spec.item_bytes
        self.fits = decoded_bytes <= testbed.cache_capacity_bytes
        self.decoded_bytes = decoded_bytes
        self.warm = False

    def on_epoch_done(self) -> None:
        if self.fits:
            self.warm = True

    @property
    def active(self) -> bool:
        return self.warm and self.fits


class TrainingBackend(ABC):
    """Base class wiring env/cpu/dataset/spec plus the epoch loop."""

    name = "abstract"

    def __init__(self, env: Environment, testbed: Testbed, cpu: CpuCorePool,
                 manifest: FileManifest, spec: BatchSpec,
                 seeds: Optional[SeedBank] = None):
        self.env = env
        self.testbed = testbed
        self.cpu = cpu
        self.manifest = manifest
        self.spec = spec
        self.seeds = seeds or SeedBank()
        self.cache = DatasetCache(testbed, manifest, spec)
        self.epochs_done = 0
        self._started = False

    @abstractmethod
    def start(self, solvers: Sequence) -> None:
        """Spawn the feed processes for these solvers and return."""

    def _check_start(self, solvers: Sequence) -> None:
        if self._started:
            raise RuntimeError(f"{self.name} backend already started")
        if not solvers:
            raise ValueError("no solvers")
        self._started = True

    # -- shared helpers --------------------------------------------------
    def _epoch_rng(self) -> np.random.Generator:
        return self.seeds.stream(f"{self.name}-shuffle")
