"""Synthetic experiment corpora.

The paper's corpora are MNIST (60k grayscale 28x28), ILSVRC12 (12.8M
color JPEGs) and an online stream of 500x375 color JPEGs from 5 clients.
None ship with this repository, so we synthesise statistically matching
stand-ins:

* *modeled* manifests carry per-file byte sizes (lognormal around the
  corpus mean) and pixel geometry — all the cost models need;
* *functional* manifests additionally carry **real JPEG payloads**
  produced by :mod:`repro.jpeg`'s encoder, so functional pipelines
  decode genuine bitstreams.
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from ..jpeg import encode
from ..sim import SeedBank
from ..storage import FileManifest

__all__ = ["imagenet_like_manifest", "mnist_like_manifest",
           "functional_jpeg_manifest", "synthetic_photo", "jpeg_size_sampler"]

# Mean encoded size of a 500x375 web-quality color JPEG (~0.58 bpp).
IMAGENET_MEAN_BYTES = 110_000
IMAGENET_SIGMA = 0.35
MNIST_BYTES = 700  # one IDX-style record + framing
MIN_JPEG_BYTES = 2048  # headers + tables: the floor of any sampled size


def jpeg_size_sampler(mean_bytes: float = IMAGENET_MEAN_BYTES,
                      sigma: float = IMAGENET_SIGMA):
    """Sampler factory for encoded-JPEG sizes (lognormal)."""
    if mean_bytes <= 0:
        raise ValueError("mean_bytes must be positive")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    mu = np.log(mean_bytes)

    def sample(rng: np.random.Generator) -> int:
        return max(MIN_JPEG_BYTES, int(rng.lognormal(mu, sigma)))

    return sample


def imagenet_like_manifest(n: int, seeds: Optional[SeedBank] = None,
                           hw: tuple[int, int] = (375, 500),
                           num_classes: int = 1000) -> FileManifest:
    """ILSVRC12-shaped corpus: color JPEGs, lognormal sizes, 1000 labels."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = (seeds or SeedBank()).stream("imagenet-sizes")
    # The draws interleave per file (size, then label), exactly as the
    # add() loop with jpeg_size_sampler() would take them.
    mu = np.log(IMAGENET_MEAN_BYTES)
    lognormal, integers = rng.lognormal, rng.integers
    sizes, labels = array("q"), array("q")
    add_size, add_label = sizes.append, labels.append
    for _ in range(n):
        add_size(max(MIN_JPEG_BYTES, int(lognormal(mu, IMAGENET_SIGMA))))
        add_label(int(integers(num_classes)))
    return FileManifest.from_columns(
        "img_{:08d}.jpg", sizes, labels, height=hw[0], width=hw[1],
        channels=3, name="ilsvrc12-like")


def mnist_like_manifest(n: int = 60_000,
                        seeds: Optional[SeedBank] = None) -> FileManifest:
    """MNIST-shaped corpus: 28x28 grayscale, 10 labels."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = (seeds or SeedBank()).stream("mnist-labels")
    integers = rng.integers
    labels = [int(integers(10)) for _ in range(n)]
    return FileManifest.from_columns(
        "digit_{:06d}", np.full(n, MNIST_BYTES, dtype=np.int64), labels,
        height=28, width=28, channels=1, name="mnist-like")


def synthetic_photo(rng: np.random.Generator, h: int, w: int,
                    gray: bool = False) -> np.ndarray:
    """A photo-like test image: smooth gradients + blobs + noise, so it
    compresses like a natural image rather than like white noise."""
    yy, xx = np.mgrid[0:h, 0:w]
    base = (np.sin(xx / max(w, 1) * np.pi * rng.uniform(1, 3))
            + np.cos(yy / max(h, 1) * np.pi * rng.uniform(1, 3)))
    img = np.empty((h, w, 3))
    for c in range(3):
        phase = rng.uniform(0, 2 * np.pi)
        img[..., c] = 128 + 90 * np.sin(base + phase)
    img += rng.normal(0, 8, (h, w, 3))
    img = np.clip(img, 0, 255).astype(np.uint8)
    return img[..., 0] if gray else img


def functional_jpeg_manifest(n: int, h: int, w: int,
                             seeds: Optional[SeedBank] = None,
                             quality: int = 80,
                             gray: bool = False) -> FileManifest:
    """A small corpus of *real* JPEG bytes for functional-mode runs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = (seeds or SeedBank()).stream("functional-images")
    manifest = FileManifest(name="functional")
    for i in range(n):
        img = synthetic_photo(rng, h, w, gray=gray)
        payload = encode(img, quality=quality,
                         subsampling="4:4:4" if gray else "4:2:0")
        manifest.add(f"real_{i:05d}.jpg", size_bytes=len(payload),
                     height=h, width=w, channels=1 if gray else 3,
                     label=int(rng.integers(10)), payload=payload)
    return manifest
