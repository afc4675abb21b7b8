"""Tests for the synthetic corpora generators."""

import hashlib

import numpy as np
import pytest

from repro.data import (functional_jpeg_manifest, imagenet_like_manifest,
                        jpeg_size_sampler, mnist_like_manifest,
                        synthetic_photo)
from repro.jpeg import decode
from repro.sim import SeedBank
from repro.storage import FileManifest


def test_imagenet_manifest_shape():
    m = imagenet_like_manifest(500, SeedBank(0))
    assert len(m) == 500
    entry = m[0]
    assert (entry.height, entry.width, entry.channels) == (375, 500, 3)
    assert 0 <= entry.label < 1000


def test_imagenet_sizes_lognormal_around_mean():
    m = imagenet_like_manifest(3000, SeedBank(1))
    sizes = np.array([e.size_bytes for e in m])
    assert 90_000 < sizes.mean() < 140_000
    assert sizes.min() >= 2048
    assert sizes.std() > 20_000  # real variance, not constant


def test_imagenet_manifest_deterministic():
    a = [e.size_bytes for e in imagenet_like_manifest(100, SeedBank(7))]
    b = [e.size_bytes for e in imagenet_like_manifest(100, SeedBank(7))]
    assert a == b


def test_mnist_manifest_shape():
    m = mnist_like_manifest(1000, SeedBank(0))
    assert len(m) == 1000
    e = m[0]
    assert (e.height, e.width, e.channels) == (28, 28, 1)
    assert 0 <= e.label < 10


def test_manifest_validation():
    with pytest.raises(ValueError):
        imagenet_like_manifest(0)
    with pytest.raises(ValueError):
        mnist_like_manifest(0)
    with pytest.raises(ValueError):
        functional_jpeg_manifest(0, 8, 8)


def test_size_sampler_positive_and_spread():
    rng = SeedBank(3).stream("x")
    sampler = jpeg_size_sampler(mean_bytes=50_000)
    samples = [sampler(rng) for _ in range(500)]
    assert all(s >= 2048 for s in samples)
    assert 30_000 < np.mean(samples) < 80_000


def test_size_sampler_validation():
    with pytest.raises(ValueError):
        jpeg_size_sampler(mean_bytes=0)
    with pytest.raises(ValueError):
        jpeg_size_sampler(mean_bytes=-1.0)
    with pytest.raises(ValueError):
        jpeg_size_sampler(sigma=-0.1)


def test_size_sampler_matches_per_draw_log():
    sampler = jpeg_size_sampler(mean_bytes=50_000, sigma=0.4)
    a, b = SeedBank(5).stream("x"), SeedBank(5).stream("x")
    for _ in range(200):
        assert sampler(a) == max(2048, int(b.lognormal(np.log(50_000), 0.4)))


# The add() loop the bulk builders replace: the reference they must equal.
def _imagenet_by_add(n, seed, hw=(375, 500), num_classes=1000):
    rng = SeedBank(seed).stream("imagenet-sizes")
    sampler = jpeg_size_sampler()
    manifest = FileManifest(name="ilsvrc12-like")
    for i in range(n):
        manifest.add(f"img_{i:08d}.jpg", size_bytes=sampler(rng),
                     height=hw[0], width=hw[1], channels=3,
                     label=int(rng.integers(num_classes)))
    return manifest


def _mnist_by_add(n, seed):
    rng = SeedBank(seed).stream("mnist-labels")
    manifest = FileManifest(name="mnist-like")
    for i in range(n):
        manifest.add(f"digit_{i:06d}", size_bytes=700, height=28, width=28,
                     channels=1, label=int(rng.integers(10)))
    return manifest


def _assert_same_manifest(bulk, ref):
    assert bulk.name == ref.name
    assert len(bulk) == len(ref)
    assert list(bulk) == list(ref)  # every FileEntry field
    assert [bulk[i] for i in (0, -1)] == [ref[i] for i in (0, -1)]
    assert bulk.total_bytes == ref.total_bytes
    assert bulk.total_blocks == ref.total_blocks
    for s in (0, 3):
        assert np.array_equal(bulk.epoch_order(np.random.default_rng(s)),
                              ref.epoch_order(np.random.default_rng(s)))


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 9), (257, 1), (3000, 42)])
def test_imagenet_bulk_build_equals_add_loop(n, seed):
    _assert_same_manifest(imagenet_like_manifest(n, SeedBank(seed)),
                          _imagenet_by_add(n, seed))


@pytest.mark.parametrize("n,seed", [(1, 0), (1000, 3)])
def test_mnist_bulk_build_equals_add_loop(n, seed):
    _assert_same_manifest(mnist_like_manifest(n, SeedBank(seed)),
                          _mnist_by_add(n, seed))


# SHA-256 over the int64 little-endian sizes, then labels, then LBAs of
# the seed-0 400k-file training corpus, as the per-file add() loop built
# it.  Every simulated training result downstream depends on these.
IMAGENET_400K_SEED0_DIGEST = (
    "217fd822f98dd8f0c4873d452761f1a4623badc720db14c9fa0dc9b1e21a9265")


def test_imagenet_400k_manifest_golden_digest():
    m = imagenet_like_manifest(400_000, SeedBank(0))
    sizes, labels, lbas = zip(*((e.size_bytes, e.label, e.extents[0].lba)
                                for e in m))
    h = hashlib.sha256()
    for col in (sizes, labels, lbas):
        h.update(np.asarray(col, dtype="<i8").tobytes())
    assert h.hexdigest() == IMAGENET_400K_SEED0_DIGEST
    assert (m.total_bytes, m.total_blocks) == (46_810_147_347, 11_627_747)


def test_synthetic_photo_properties():
    rng = np.random.default_rng(0)
    img = synthetic_photo(rng, 32, 48)
    assert img.shape == (32, 48, 3)
    assert img.dtype == np.uint8
    gray = synthetic_photo(rng, 16, 16, gray=True)
    assert gray.shape == (16, 16)


def test_synthetic_photo_compresses_like_a_photo():
    from repro.jpeg import encode
    rng = np.random.default_rng(1)
    img = synthetic_photo(rng, 64, 64)
    noise = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
    assert len(encode(img, 75)) < 0.7 * len(encode(noise, 75))


def test_functional_manifest_carries_decodable_jpegs():
    m = functional_jpeg_manifest(5, 40, 56, SeedBank(0))
    for entry in m:
        assert entry.payload is not None
        assert entry.size_bytes == len(entry.payload)
        img = decode(entry.payload)
        assert img.shape == (40, 56, 3)


def test_functional_manifest_gray():
    m = functional_jpeg_manifest(2, 28, 28, SeedBank(0), gray=True)
    img = decode(m[0].payload)
    assert img.shape == (28, 28)
    assert m[0].channels == 1
