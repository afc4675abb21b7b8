"""Dataset manifests: the block-level metadata DataCollector translates.

The paper's DataCollector "translates the metadata (i.e., block
information) that describes the storage information of the data on the
disk" (S3.4.1).  A :class:`FileManifest` is that metadata: per sample,
its logical blocks on the (simulated) NVMe device plus the image
properties the cost models need (encoded bytes, decoded pixels).

The manifest stores one column per field rather than one object per
file: a 400k-file corpus is a handful of flat integer arrays, built in
one pass.  :class:`FileEntry` and :class:`BlockExtent` values are made
on access, so callers see the same entries either way.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

__all__ = ["BlockExtent", "FileEntry", "FileManifest", "BLOCK_SIZE"]

BLOCK_SIZE = 4096  # logical block size of the simulated NVMe namespace


@dataclass(frozen=True)
class BlockExtent:
    """A contiguous run of logical blocks."""

    lba: int
    block_count: int

    @property
    def nbytes(self) -> int:
        return self.block_count * BLOCK_SIZE


@dataclass(frozen=True)
class FileEntry:
    """One sample on disk: identity, extent, and decode-cost metadata."""

    file_id: int
    name: str
    size_bytes: int
    extents: tuple[BlockExtent, ...]
    height: int
    width: int
    channels: int
    label: int = 0
    payload: Optional[bytes] = None  # real JPEG bytes in functional mode

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def decode_work_pixels(self) -> int:
        """Pixels including chroma planes (4:2:0 -> x1.5 for color)."""
        return self.pixels if self.channels == 1 else self.pixels * 3 // 2

    def get_metainfo(self) -> dict:
        """The paper's ``file.get_metainfo()`` (Algorithm 1 line 11)."""
        return {
            "file_id": self.file_id,
            "size_bytes": self.size_bytes,
            "extents": self.extents,
            "shape": (self.height, self.width, self.channels),
        }


def _check_geometry(height: int, width: int, channels: int) -> None:
    if height < 1 or width < 1:
        raise ValueError("height and width must be >= 1")
    if channels not in (1, 3):
        raise ValueError("channels must be 1 (gray) or 3 (color)")


class FileManifest:
    """An ordered collection of files with a contiguous block allocator.

    Each file occupies one extent; its LBA is the running sum of the
    block counts of the files before it.  Rows are appended one at a
    time by :meth:`add` or all at once by :meth:`from_columns`.
    """

    def __init__(self, name: str = "dataset"):
        self.name = name
        self._sizes = array("q")
        self._labels = array("q")
        self._lbas = array("q")
        self._heights = array("i")
        self._widths = array("i")
        self._channels = array("b")
        # Rows without an explicit name are named by _name_format.
        self._names: dict[int, str] = {}
        self._name_format: Optional[str] = None
        self._payloads: dict[int, bytes] = {}
        self._next_lba = 0

    @classmethod
    def from_columns(cls, name_format: str, sizes: Sequence[int],
                     labels: Sequence[int], height: int, width: int,
                     channels: int, name: str = "dataset") -> "FileManifest":
        """A manifest of ``len(sizes)`` files sharing one geometry.

        File ``i`` is named ``name_format.format(i)``; its entry equals
        the one the ``i``-th of the same :meth:`add` calls would return.
        """
        _check_geometry(height, width, channels)
        sizes = np.asarray(sizes, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if sizes.ndim != 1 or labels.shape != sizes.shape:
            raise ValueError("sizes and labels must be 1-D and equal length")
        n = len(sizes)
        if n and sizes.min() <= 0:
            raise ValueError("size_bytes must be positive")
        manifest = cls(name)
        nblocks = -(-sizes // BLOCK_SIZE)
        ends = np.cumsum(nblocks)
        manifest._sizes.frombytes(sizes.tobytes())
        manifest._labels.frombytes(labels.tobytes())
        manifest._lbas.frombytes((ends - nblocks).tobytes())
        manifest._heights = array("i", [height]) * n
        manifest._widths = array("i", [width]) * n
        manifest._channels = array("b", [channels]) * n
        manifest._name_format = name_format
        manifest._next_lba = int(ends[-1]) if n else 0
        return manifest

    def add(self, name: str, size_bytes: int, height: int, width: int,
            channels: int, label: int = 0,
            payload: Optional[bytes] = None) -> FileEntry:
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        _check_geometry(height, width, channels)
        row = len(self._sizes)
        self._sizes.append(size_bytes)
        self._labels.append(label)
        self._lbas.append(self._next_lba)
        self._heights.append(height)
        self._widths.append(width)
        self._channels.append(channels)
        self._names[row] = name
        if payload is not None:
            self._payloads[row] = payload
        self._next_lba += -(-size_bytes // BLOCK_SIZE)
        return self._entry(row)

    def _entry(self, row: int) -> FileEntry:
        size = self._sizes[row]
        name = self._names.get(row)
        if name is None:
            name = self._name_format.format(row)
        return FileEntry(
            file_id=row, name=name, size_bytes=size,
            extents=(BlockExtent(lba=self._lbas[row],
                                 block_count=-(-size // BLOCK_SIZE)),),
            height=self._heights[row], width=self._widths[row],
            channels=self._channels[row], label=self._labels[row],
            payload=self._payloads.get(row))

    def __len__(self) -> int:
        return len(self._sizes)

    def __getitem__(self, idx: int) -> FileEntry:
        row = operator.index(idx)
        n = len(self._sizes)
        if row < 0:
            row += n
        if not 0 <= row < n:
            raise IndexError("manifest index out of range")
        return self._entry(row)

    def __iter__(self) -> Iterator[FileEntry]:
        return map(self._entry, range(len(self._sizes)))

    @property
    def total_bytes(self) -> int:
        return sum(self._sizes)

    @property
    def total_blocks(self) -> int:
        return self._next_lba

    def epoch_order(self, rng=None) -> Sequence[int]:
        """Sample order for one epoch; shuffled when an RNG is given."""
        idx = np.arange(len(self._sizes))
        if rng is not None:
            rng.shuffle(idx)
        return idx
