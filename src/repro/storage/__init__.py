"""Storage substrates: the NVMe timing model and the dataset file
manifest (block extents the DataCollector reads)."""

from .manifest import BLOCK_SIZE, BlockExtent, FileEntry, FileManifest
from .nvme import NvmeDisk, NvmeReadError

__all__ = ["NvmeDisk", "NvmeReadError", "FileManifest", "FileEntry",
           "BlockExtent", "BLOCK_SIZE"]
