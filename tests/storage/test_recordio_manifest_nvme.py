"""Tests for file manifests and the NVMe timing model."""

import numpy as np
import pytest

from repro.calib import DEFAULT_TESTBED
from repro.sim import Environment
from repro.storage import BLOCK_SIZE, FileManifest, NvmeDisk


# ---------------------------------------------------------------- manifest
def test_manifest_allocates_contiguous_blocks():
    m = FileManifest()
    e1 = m.add("a.jpg", size_bytes=5000, height=375, width=500, channels=3)
    e2 = m.add("b.jpg", size_bytes=100, height=375, width=500, channels=3)
    assert e1.extents[0].lba == 0
    assert e1.extents[0].block_count == 2  # ceil(5000/4096)
    assert e2.extents[0].lba == 2
    assert m.total_blocks == 3


def test_manifest_entry_metadata():
    m = FileManifest()
    e = m.add("x.jpg", size_bytes=1000, height=100, width=200, channels=3,
              label=7)
    assert e.pixels == 20_000
    assert e.decode_work_pixels == 30_000  # 4:2:0 chroma adds 50%
    info = e.get_metainfo()
    assert info["shape"] == (100, 200, 3)
    assert info["size_bytes"] == 1000


def test_manifest_gray_decode_work():
    m = FileManifest()
    e = m.add("g.png", size_bytes=700, height=28, width=28, channels=1)
    assert e.decode_work_pixels == 784


def test_manifest_validation():
    for bad in (dict(size_bytes=0), dict(size_bytes=-1), dict(height=0),
                dict(width=0), dict(height=-3), dict(channels=0),
                dict(channels=2), dict(channels=4)):
        row = dict(size_bytes=10, height=1, width=1, channels=1) | bad
        with pytest.raises(ValueError):
            FileManifest().add("bad", **row)
        sizes = [10, row.pop("size_bytes"), 10]
        with pytest.raises(ValueError):
            FileManifest.from_columns("f{}", sizes, [0, 0, 0], **row)


def test_manifest_from_columns_rejects_ragged_columns():
    with pytest.raises(ValueError):
        FileManifest.from_columns("f{}", [10, 10], [0], height=1, width=1,
                                  channels=1)


def test_manifest_indexing_like_a_list():
    m = FileManifest()
    for i in range(3):
        m.add(f"{i}", size_bytes=5000, height=2, width=2, channels=3,
              label=i)
    assert m[-1] == m[2] and m[-3] == m[0]
    assert m[-1].file_id == 2 and m[-1].extents[0].lba == 4
    assert m[np.int64(1)] == list(m)[1]
    for idx in (3, -4, 100):
        with pytest.raises(IndexError):
            m[idx]


def test_manifest_iteration_and_totals():
    m = FileManifest()
    for i in range(5):
        m.add(f"{i}.jpg", size_bytes=1000 * (i + 1), height=10, width=10,
              channels=3)
    assert len(m) == 5
    assert m.total_bytes == 15_000
    assert [e.file_id for e in m] == list(range(5))


def test_manifest_epoch_order_shuffles_deterministically():
    m = FileManifest()
    for i in range(100):
        m.add(f"{i}", size_bytes=10, height=1, width=1, channels=1)
    plain = list(m.epoch_order())
    assert plain == list(range(100))
    s1 = list(m.epoch_order(np.random.default_rng(1)))
    s2 = list(m.epoch_order(np.random.default_rng(1)))
    assert s1 == s2 and s1 != plain


# ------------------------------------------------------------------- nvme
def test_nvme_single_read_timing():
    env = Environment()
    disk = NvmeDisk(env, DEFAULT_TESTBED)
    done = []

    def p(env):
        yield from disk.read(DEFAULT_TESTBED.nvme_read_rate)  # 1 s of data
        done.append(env.now)

    env.process(p(env))
    env.run()
    assert done[0] == pytest.approx(1.0 + DEFAULT_TESTBED.nvme_access_latency_s)
    assert disk.bytes_read.total == DEFAULT_TESTBED.nvme_read_rate


def test_nvme_transfers_serialize_on_bandwidth():
    env = Environment()
    disk = NvmeDisk(env, DEFAULT_TESTBED)
    done = []
    chunk = int(DEFAULT_TESTBED.nvme_read_rate * 0.5)  # 0.5 s each

    def p(env, name):
        yield from disk.read(chunk)
        done.append((name, env.now))

    env.process(p(env, "a"))
    env.process(p(env, "b"))
    env.run()
    # Latencies overlap but the two transfers serialize: ~0.5 s and ~1.0 s.
    assert done[0][1] == pytest.approx(0.5, abs=1e-3)
    assert done[1][1] == pytest.approx(1.0, abs=1e-3)


def test_nvme_utilization():
    env = Environment()
    disk = NvmeDisk(env, DEFAULT_TESTBED)

    def p(env):
        yield from disk.read(int(DEFAULT_TESTBED.nvme_read_rate * 0.3))
        yield env.timeout(0.7)  # idle

    env.process(p(env))
    env.run()
    assert disk.utilization() == pytest.approx(0.3, abs=0.01)


def test_nvme_rejects_bad_size():
    env = Environment()
    disk = NvmeDisk(env, DEFAULT_TESTBED)

    def p(env):
        yield from disk.read(0)

    env.process(p(env))
    with pytest.raises(ValueError):
        env.run()


def test_block_size_constant():
    assert BLOCK_SIZE == 4096
