"""Golden digests of short simulated runs.

Each digest is the SHA-256 of the run's canonical result document
(``repro.sweep.canonical_json``).  Work on the event core or the stage
models must leave every simulated result byte-identical, so these must
not change; a change that alters simulated results on purpose updates
them and says why.

Next to each digest is the run's kernel event count.  It is exact for a
given run on any machine, so a change that adds events fails here even
when the results stay identical; a change that removes events re-pins
the count lower and says so.
"""

import dataclasses
import hashlib

from repro.experiments.chaos_fleet import (default_outlier, default_recovery,
                                          serve_chaos)
from repro.experiments.fleet import serve_autoscale, serve_fleet
from repro.faults import FaultPlan, RetryPolicy
from repro.sim.core import total_events_processed
from repro.sweep import canonical_json
from repro.telemetry import TelemetryConfig
from repro.workflows import (InferenceConfig, TrainingConfig, run_inference,
                             run_training)

FIG7_CELL_DIGEST = (
    "b7f89d231c479b50e16e5dd5ed09eebd21e1297033ece707cadb9530eee228b4")
TRAINING_20K_DIGEST = (
    "ffa30a306fb2b13b7d8306aca919389a4872cc0b93ca4a258526b07ebe945c6d")
FLEET_K4_DIGEST = (
    "46659b864be51814e8c81b61cd8a8d96f7412a717941a9ab2535a12d4ac7aad4")
CHAOS_K4_DIGEST = (
    "b14332f5d55a7298e422ca2f8f7c7801eadb4c57fa8639967673287355b0e622")
AUTOSCALE_DIGEST = (
    "6fd35490abdbb0923cd0735185f16e8803a4b64b50169242128cf36330d5e3a7")
# Disk paths the benchmark does not run.
TWO_DECODERS_DIGEST = (
    "7fac2ad91c2053c2763100f32e2e97740781c0284aacb176dc6dca05ddf1c169")
CPU_ONLINE_DIGEST = (
    "0de5a1d8d8e363ec78de241a7055d68fc0f559521cf06c9ced158e77c7e1cbaf")
NVME_CHAOS_DIGEST = (
    "e1cb4a776e6173a2185ad5c3b6f2e5b23115e304a7e4e2027b032e06e05368e2")
# FINISH hand-offs no other golden run covers: the gpu-direct feed's, and
# a registry snapshot whose cmd FIFO fills.
GPU_DIRECT_CELL_DIGEST = (
    "85deb3f0ad84f2f598bcb2e8af366bb7a80c9ea50d68f7886ac17d6de755736b")
TRAINING_REGISTRY_DIGEST = (
    "9edf49b6a20ecad6a76a343b1d5dbf17cfed78cc18d63ba6e92efcef695e8345")

# Kernel events each run processes.
FIG7_CELL_EVENTS = 15_526
TRAINING_20K_EVENTS = 92_550
FLEET_K4_EVENTS = 30_477
CHAOS_K4_EVENTS = 40_211
AUTOSCALE_EVENTS = 110_791
TWO_DECODERS_EVENTS = 89_008
CPU_ONLINE_EVENTS = 28_876
NVME_CHAOS_EVENTS = 163_968
GPU_DIRECT_CELL_EVENTS = 15_410
TRAINING_REGISTRY_EVENTS = 93_567


def digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def counted(run):
    """``run()``'s result and the kernel events it processed."""
    before = total_events_processed()
    result = run()
    return result, total_events_processed() - before


def test_fig7_cell_golden_digest():
    res, events = counted(lambda: run_inference(InferenceConfig(
        model="googlenet", backend="dlbooster", batch_size=32,
        warmup_s=0.1, measure_s=0.3, seed=0)))
    assert digest(dataclasses.asdict(res)) == FIG7_CELL_DIGEST
    assert events == FIG7_CELL_EVENTS


def test_gpu_direct_fig7_cell_golden_digest():
    res, events = counted(lambda: run_inference(InferenceConfig(
        model="googlenet", backend="dlbooster", batch_size=32,
        warmup_s=0.1, measure_s=0.3, seed=0, gpu_direct=True)))
    assert digest(dataclasses.asdict(res)) == GPU_DIRECT_CELL_DIGEST
    assert events == GPU_DIRECT_CELL_EVENTS


def training_20k(**kw):
    return counted(lambda: run_training(TrainingConfig(
        model="alexnet", dataset_size=20_000, warmup_s=0.1, measure_s=0.3,
        seed=0, **kw)))


def test_training_golden_digest():
    res, events = training_20k(backend="dlbooster")
    assert digest(dataclasses.asdict(res)) == TRAINING_20K_DIGEST
    assert events == TRAINING_20K_EVENTS


def test_training_registry_snapshot_golden_digest():
    """The cmd FIFO's dated monitors, on a run that fills the FIFO."""
    res, events = training_20k(backend="dlbooster",
                               telemetry=TelemetryConfig())
    snapshot = res.extras["telemetry"]["metrics"]
    assert snapshot["image-decoder-0.fifo.occupancy"]["max"] == 64.0
    assert snapshot["image-decoder-0.fifo.wait"]["count"] == 20_000
    assert digest(snapshot) == TRAINING_REGISTRY_DIGEST
    assert events == TRAINING_REGISTRY_EVENTS


def test_two_decoders_share_one_disk_golden_digest():
    res, events = training_20k(backend="dlbooster", num_fpgas=2, num_gpus=2)
    assert digest(dataclasses.asdict(res)) == TWO_DECODERS_DIGEST
    assert events == TWO_DECODERS_EVENTS


def test_cpu_online_disk_reads_golden_digest():
    """Two prefetchers read batches through the disk's generator."""
    res, events = training_20k(backend="cpu-online", num_gpus=2)
    assert digest(dataclasses.asdict(res)) == CPU_ONLINE_DIGEST
    assert events == CPU_ONLINE_EVENTS


def test_nvme_chaos_golden_digest():
    """``nvme_latency`` can reorder reads, so these stay evented."""
    res, events = training_20k(
        backend="dlbooster", retry=RetryPolicy(max_attempts=3),
        fault_plan=FaultPlan.of(FaultPlan.nvme_error(0.01),
                                FaultPlan.nvme_latency(0.05, extra_s=2e-3)))
    assert digest(dataclasses.asdict(res)) == NVME_CHAOS_DIGEST
    assert events == NVME_CHAOS_EVENTS


def test_fleet_k4_golden_digest():
    payload, events = counted(lambda: serve_fleet(
        policy="least-loaded", k=4, overload_x=2.7, sim_s=0.3, seed=23,
        degraded_host=2))
    assert digest(payload) == FLEET_K4_DIGEST
    assert events == FLEET_K4_EVENTS


def test_chaos_k4_golden_digest():
    """The quick ``chaos_k4`` run: host01 swallows 80% of completions,
    so hedging, re-dispatch and ejection all fire."""
    sim_s = 0.3
    plan = FaultPlan.of(
        FaultPlan.host_hang(0.3 * sim_s, sim_s, "host01", rate=0.8),
        name="gray")
    payload, events = counted(lambda: serve_chaos(
        plan=plan, recovery=default_recovery(), outlier=default_outlier(),
        k=4, overload_x=2.8, sim_s=sim_s, seed=47))
    assert digest(payload) == CHAOS_K4_DIGEST
    assert events == CHAOS_K4_EVENTS


def test_autoscale_golden_digest():
    payload, events = counted(lambda: serve_autoscale(
        sim_s=1.6, surge=(0.4, 0.9, 3.4)))
    assert digest(payload) == AUTOSCALE_DIGEST
    assert events == AUTOSCALE_EVENTS
