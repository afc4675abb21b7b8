"""Tests for the training backends (synthetic, CPU, LMDB, DLBooster)."""

import dataclasses

import pytest

from repro.backends import (CpuOnlineBackend, DatasetCache, DLBoosterBackend,
                            LmdbBackend, SyntheticBackend, epoch_stream,
                            ingest_manifest)
from repro.calib import DEFAULT_TESTBED, TRAIN_MODELS
from repro.data import imagenet_like_manifest, mnist_like_manifest
from repro.engines import CpuCorePool, GpuDevice, SyncGroup, TrainingSolver
from repro.faults import FaultPlan
from repro.host import BatchSpec
from repro.sim import Environment, SeedBank
from repro.storage import FileManifest
from repro.workflows import TrainingConfig, run_training


def build_rig(model="alexnet", gpus=1, dataset=2000):
    env = Environment()
    cpu = CpuCorePool(env, DEFAULT_TESTBED.cpu_cores)
    spec = TRAIN_MODELS[model]
    bspec = BatchSpec(batch_size=spec.batch_size, out_h=spec.input_hw[0],
                      out_w=spec.input_hw[1], channels=spec.channels)
    manifest = (mnist_like_manifest(dataset, SeedBank(0))
                if model == "lenet5"
                else imagenet_like_manifest(dataset, SeedBank(0)))
    sync = SyncGroup(env, gpus, spec, DEFAULT_TESTBED)
    solvers = []
    for g in range(gpus):
        s = TrainingSolver(env, GpuDevice(env, DEFAULT_TESTBED, g), spec,
                           sync, cpu, DEFAULT_TESTBED)
        s.start()
        solvers.append(s)
    return env, cpu, bspec, manifest, solvers


# ------------------------------------------------------------- base bits
def test_epoch_stream_yields_all_items():
    manifest = imagenet_like_manifest(10, SeedBank(0))
    items = list(epoch_stream(manifest, None, 0))
    assert len(items) == 10
    assert all(i.source == "disk" for i in items)


def test_dataset_cache_policy():
    tb = DEFAULT_TESTBED
    spec = BatchSpec(batch_size=512, out_h=28, out_w=28, channels=1)
    small = DatasetCache(tb, mnist_like_manifest(1000, SeedBank(0)), spec)
    assert small.fits and not small.active
    small.on_epoch_done()
    assert small.active

    big_spec = BatchSpec(batch_size=256, out_h=227, out_w=227, channels=3)
    big = DatasetCache(tb, imagenet_like_manifest(400_000, SeedBank(0)),
                       big_spec)
    assert not big.fits
    big.on_epoch_done()
    assert not big.active


def test_backend_double_start_rejected():
    env, cpu, bspec, manifest, solvers = build_rig()
    backend = SyntheticBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                               SeedBank(0))
    backend.start(solvers)
    with pytest.raises(RuntimeError):
        backend.start(solvers)
    with pytest.raises(ValueError):
        SyntheticBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                         SeedBank(0)).start([])


# ------------------------------------------------------------- synthetic
def test_synthetic_reaches_gpu_bound():
    env, cpu, bspec, manifest, solvers = build_rig()
    SyntheticBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                     SeedBank(0)).start(solvers)
    env.run(until=5.0)
    rate = solvers[0].images_trained.total / 5.0
    assert rate == pytest.approx(TRAIN_MODELS["alexnet"].train_rate,
                                 rel=0.05)


# ------------------------------------------------------------ cpu-online
def test_cpu_backend_burns_decode_cores():
    env, cpu, bspec, manifest, solvers = build_rig(dataset=100_000)
    CpuOnlineBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                     SeedBank(0)).start(solvers)
    env.run(until=5.0)
    bd = cpu.breakdown()
    # ~2,400 img/s at ~300 img/s/core -> ~8 cores of decode.
    assert bd["preprocess"] > 5.0


def test_cpu_backend_worker_cap_limits_throughput():
    env, cpu, bspec, manifest, solvers = build_rig(dataset=100_000)
    CpuOnlineBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                     SeedBank(0), max_workers=2).start(solvers)
    env.run(until=5.0)
    rate = solvers[0].images_trained.total / 5.0
    # 2 workers x ~300 img/s — the Fig. 2 "default configuration" story.
    assert rate < 0.45 * TRAIN_MODELS["alexnet"].train_rate


def test_cpu_backend_validation():
    env, cpu, bspec, manifest, solvers = build_rig()
    with pytest.raises(ValueError):
        CpuOnlineBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                         SeedBank(0), max_workers=0)


# ------------------------------------------------------------------ lmdb
def test_lmdb_ingest_time_scales():
    manifest = imagenet_like_manifest(16_000, SeedBank(0))
    spec = BatchSpec(batch_size=256, out_h=227, out_w=227, channels=3)
    assert ingest_manifest(manifest, spec, DEFAULT_TESTBED) == \
        pytest.approx(10.0)


def test_lmdb_record_geometry():
    env, cpu, bspec, manifest, solvers = build_rig()
    backend = LmdbBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                          SeedBank(0))
    # ImageNet recipe: stored datum is 256x256x3 raw + header.
    assert backend.record_bytes == 256 * 256 * 3 + 64


def test_lmdb_mnist_record_geometry():
    env, cpu, bspec, manifest, solvers = build_rig(model="lenet5")
    backend = LmdbBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                          SeedBank(0))
    assert backend.record_bytes == 28 * 28 + 64


def test_lmdb_shared_env_serializes_readers():
    env, cpu, bspec, manifest, solvers = build_rig(gpus=2, dataset=100_000)
    backend = LmdbBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                          SeedBank(0))
    backend.start(solvers)
    env.run(until=6.0)
    total = sum(s.images_trained.total for s in solvers) / 6.0
    # Aggregate capped by the environment (~3,200 img/s for these records).
    per_record = DEFAULT_TESTBED.lmdb_record_seconds(backend.record_bytes)
    assert total < 1.05 / per_record


# -------------------------------------------------------------- dlbooster
def test_dlbooster_reaches_bound_with_low_cpu():
    env, cpu, bspec, manifest, solvers = build_rig(dataset=100_000)
    backend = DLBoosterBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                               SeedBank(0))
    backend.start(solvers)
    env.run(until=6.0)
    rate = solvers[0].images_trained.total / 6.0
    assert rate > 0.9 * TRAIN_MODELS["alexnet"].train_rate
    bd = cpu.breakdown()
    assert bd.get("preprocess", 0) < 1.0
    assert backend.pool.conservation_ok()


def test_dlbooster_cache_kicks_in_second_epoch():
    env, cpu, bspec, manifest, solvers = build_rig(model="lenet5",
                                                   dataset=5_000)
    backend = DLBoosterBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                               SeedBank(0))
    backend.start(solvers)
    env.run(until=3.0)
    assert backend.epochs_done >= 2
    assert backend.cache.active


def test_dlbooster_validation():
    env, cpu, bspec, manifest, solvers = build_rig()
    with pytest.raises(ValueError):
        DLBoosterBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                         SeedBank(0), num_fpgas=0)


def test_dlbooster_refuses_lossy_plan_without_retry():
    """A decoder outage loses cmds that only a RetryPolicy resubmits;
    unarmed, the run would die at its first missed deadline."""
    cfg = TrainingConfig(
        model="alexnet", backend="dlbooster", dataset_size=2000,
        warmup_s=0.1, measure_s=0.3,
        fault_plan=FaultPlan.of(FaultPlan.decoder_crash(0.1, 0.2)))
    with pytest.raises(ValueError, match="RetryPolicy"):
        run_training(cfg)
    # A spec aimed at an FPGA the pipeline does not have loses nothing.
    env, cpu, bspec, manifest, solvers = build_rig()
    DLBoosterBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                     SeedBank(0), fault_plan=FaultPlan.of(
                         FaultPlan.cmd_drop(1.0, site="fpga1")))


def test_dlbooster_multiple_fpgas_split_load():
    env, cpu, bspec, manifest, solvers = build_rig(dataset=50_000)
    backend = DLBoosterBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                               SeedBank(0), num_fpgas=2)
    backend.start(solvers)
    env.run(until=3.0)
    decoded = [d.mirror.decoded.total for d in backend.devices]
    assert all(d > 0 for d in decoded)
    assert abs(decoded[0] - decoded[1]) <= 1


def test_cpu_backend_handles_short_tail_batch():
    env, cpu, bspec, manifest, solvers = build_rig(model="lenet5",
                                                   dataset=700)
    # 700 images with batch 512 -> one full batch + one 188-image tail.
    CpuOnlineBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                     SeedBank(0)).start(solvers)
    env.run(until=1.0)
    assert solvers[0].images_trained.total >= 700


def test_lmdb_backend_handles_short_tail_batch():
    env, cpu, bspec, manifest, solvers = build_rig(model="lenet5",
                                                   dataset=700)
    LmdbBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                SeedBank(0)).start(solvers)
    env.run(until=1.0)
    assert solvers[0].images_trained.total >= 700


def test_dlbooster_epoch_shuffle_changes_order_not_count():
    env, cpu, bspec, manifest, solvers = build_rig(model="lenet5",
                                                   dataset=2_000)
    backend = DLBoosterBackend(env, DEFAULT_TESTBED, cpu, manifest, bspec,
                               SeedBank(0))
    backend.start(solvers)
    env.run(until=2.0)
    # Several epochs in: total submitted is a multiple of the dataset.
    assert backend.epochs_done >= 1
    total = solvers[0].images_trained.total
    assert total >= 2_000
