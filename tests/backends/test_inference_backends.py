"""Tests for the inference backends (CPU, nvJPEG, DLBooster)."""

import pytest

from repro.backends import (CpuInferenceBackend, DLBoosterInferenceBackend,
                            NvJpegInferenceBackend)
from repro.calib import DEFAULT_TESTBED, INFER_MODELS
from repro.data import jpeg_size_sampler
from repro.engines import CpuCorePool, GpuDevice, InferenceEngine
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.host import BatchSpec
from repro.net import ClientFleet, Link, Nic
from repro.sim import Environment, SeedBank
from repro.workflows import InferenceConfig, run_inference


def build_rig(batch_size=8, gpus=1):
    env = Environment()
    tb = DEFAULT_TESTBED
    cpu = CpuCorePool(env, tb.cpu_cores)
    spec = INFER_MODELS["googlenet"]
    bspec = BatchSpec(batch_size=batch_size, out_h=224, out_w=224,
                      channels=3)
    link = Link(env, tb.nic_rate, mtu=tb.nic_mtu)
    nic = Nic(env, link, cpu.tracker, per_packet_s=tb.nic_per_packet_s)
    fleet = ClientFleet(env, nic, num_clients=5, image_hw=(375, 500),
                        rng=SeedBank(0).stream("clients"),
                        window=max(2, batch_size),
                        size_sampler=jpeg_size_sampler())
    fleet.start()
    engines = []
    for g in range(gpus):
        engine = InferenceEngine(env, GpuDevice(env, tb, g), spec, cpu, tb,
                                 batch_size=batch_size)
        engine.start()
        engines.append(engine)
    return env, tb, cpu, bspec, nic, fleet, engines


def test_cpu_inference_serves_predictions():
    env, tb, cpu, bspec, nic, fleet, engines = build_rig()
    CpuInferenceBackend(env, tb, cpu, nic, bspec).start(engines)
    env.run(until=2.0)
    assert engines[0].predictions.total > 100
    assert fleet.completed.total > 100
    assert cpu.breakdown()["preprocess"] > 1.0


def test_cpu_inference_worker_cap():
    env, tb, cpu, bspec, nic, fleet, engines = build_rig(batch_size=32)
    CpuInferenceBackend(env, tb, cpu, nic, bspec,
                        max_workers=14).start(engines)
    env.run(until=3.0)
    rate = engines[0].predictions.total / 3.0
    # 14 workers x ~300 img/s cap.
    assert rate < 14 * 330
    with pytest.raises(ValueError):
        CpuInferenceBackend(env, tb, cpu, nic, bspec, max_workers=0)


def test_nvjpeg_steals_gpu_from_inference():
    env, tb, cpu, bspec, nic, fleet, engines = build_rig(batch_size=32)
    NvJpegInferenceBackend(env, tb, cpu, nic, bspec).start(engines)
    env.run(until=3.0)
    gpu = engines[0].gpu
    # Decode kernels ran and inference kernels were stretched.
    assert gpu.busy.busy_seconds("nvjpeg") > 0.5
    rate = engines[0].predictions.total / 3.0
    assert rate <= tb.nvjpeg_peak_rate * 1.05  # decode-bound


def test_nvjpeg_charges_launch_cpu():
    env, tb, cpu, bspec, nic, fleet, engines = build_rig(batch_size=32)
    NvJpegInferenceBackend(env, tb, cpu, nic, bspec).start(engines)
    env.run(until=3.0)
    # ~1.5 cores at saturation (S5.3).
    assert 0.8 <= cpu.breakdown()["preprocess"] <= 2.5


def test_dlbooster_inference_uses_fpga_not_cpu():
    env, tb, cpu, bspec, nic, fleet, engines = build_rig(batch_size=32)
    backend = DLBoosterInferenceBackend(env, tb, cpu, nic, bspec)
    backend.start(engines)
    env.run(until=3.0)
    assert backend.devices[0].mirror.decoded.total > 1000
    bd = cpu.breakdown()
    assert bd.get("preprocess", 0.0) < 1.0
    assert backend.pool.conservation_ok()


def test_dlbooster_inference_outperforms_cpu_backend():
    results = {}
    for backend_cls in (CpuInferenceBackend, DLBoosterInferenceBackend):
        env, tb, cpu, bspec, nic, fleet, engines = build_rig(batch_size=32)
        backend_cls(env, tb, cpu, nic, bspec).start(engines)
        env.run(until=3.0)
        results[backend_cls.__name__] = engines[0].predictions.total
    assert results["DLBoosterInferenceBackend"] > \
        1.15 * results["CpuInferenceBackend"]


def test_inference_backend_double_start():
    env, tb, cpu, bspec, nic, fleet, engines = build_rig()
    backend = NvJpegInferenceBackend(env, tb, cpu, nic, bspec)
    backend.start(engines)
    with pytest.raises(RuntimeError):
        backend.start(engines)
    with pytest.raises(ValueError):
        NvJpegInferenceBackend(env, tb, cpu, nic, bspec).start([])


def test_dlbooster_inference_validation():
    env, tb, cpu, bspec, nic, fleet, engines = build_rig()
    with pytest.raises(ValueError):
        DLBoosterInferenceBackend(env, tb, cpu, nic, bspec, num_fpgas=0)


def test_requests_complete_with_latency_recorded():
    env, tb, cpu, bspec, nic, fleet, engines = build_rig(batch_size=4)
    DLBoosterInferenceBackend(env, tb, cpu, nic, bspec).start(engines)
    env.run(until=2.0)
    engine = engines[0]
    assert engine.latency.count > 50
    assert engine.latency.mean() > 0
    # Client RTT >= server-side latency (adds wire time).
    assert fleet.rtt.mean() >= engine.latency.mean()


def test_gpu_direct_skips_host_pool_and_dispatcher():
    env, tb, cpu, bspec, nic, fleet, engines = build_rig(batch_size=16)
    backend = DLBoosterInferenceBackend(env, tb, cpu, nic, bspec,
                                        gpu_direct=True)
    backend.start(engines)
    env.run(until=2.0)
    assert backend.dispatcher is None
    assert backend.reader is None
    assert engines[0].predictions.total > 500
    # The host pool never cycles: everything lands in device memory.
    assert backend.pool.in_use == 0


def test_gpu_direct_throughput_matches_staged():
    results = {}
    for direct in (False, True):
        env, tb, cpu, bspec, nic, fleet, engines = build_rig(batch_size=16)
        DLBoosterInferenceBackend(env, tb, cpu, nic, bspec,
                                  gpu_direct=direct).start(engines)
        env.run(until=2.5)
        results[direct] = engines[0].predictions.total
    assert results[True] >= 0.95 * results[False]


def test_dlbooster_inference_refuses_cmd_drop_without_retry():
    """``InferenceConfig`` has no retry field, so a cmd-dropping plan
    would die at its first missed deadline; it is refused up front."""
    cfg = InferenceConfig(
        model="googlenet", backend="dlbooster", batch_size=8,
        warmup_s=0.1, measure_s=0.3,
        fault_plan=FaultPlan.of(FaultPlan.cmd_drop(0.02)))
    with pytest.raises(ValueError, match="RetryPolicy"):
        run_inference(cfg)


def test_gpu_direct_refuses_cmd_drop_even_with_retry():
    """The gpu-direct feed has no retransmit table: dropped cmds would
    leave their device batches open forever and serve nothing."""
    env, tb, cpu, bspec, nic, fleet, engines = build_rig(batch_size=16)
    injector = FaultInjector(env, FaultPlan.of(FaultPlan.cmd_drop(0.02)),
                             seeds=SeedBank(0))
    with pytest.raises(ValueError, match="gpu-direct"):
        DLBoosterInferenceBackend(env, tb, cpu, nic, bspec,
                                  gpu_direct=True, injector=injector,
                                  retry=RetryPolicy())


def test_rx_overflow_recovery_under_tiny_ring():
    """Failure injection: a tiny RX ring drops requests under burst;
    clients reissue and the serving stack keeps making progress."""
    env = Environment()
    tb = DEFAULT_TESTBED
    cpu = CpuCorePool(env, tb.cpu_cores)
    spec = INFER_MODELS["googlenet"]
    bspec = BatchSpec(batch_size=4, out_h=224, out_w=224, channels=3)
    link = Link(env, tb.nic_rate, mtu=tb.nic_mtu)
    nic = Nic(env, link, cpu.tracker, per_packet_s=tb.nic_per_packet_s,
              rx_capacity=2)  # absurdly small ring
    fleet = ClientFleet(env, nic, num_clients=5, image_hw=(375, 500),
                        rng=SeedBank(0).stream("clients"), window=8,
                        size_sampler=jpeg_size_sampler())
    fleet.start()
    engine = InferenceEngine(env, GpuDevice(env, tb, 0), spec, cpu, tb,
                             batch_size=4)
    engine.start()
    DLBoosterInferenceBackend(env, tb, cpu, nic, bspec).start([engine])
    env.run(until=2.0)
    assert nic.drops.total > 0          # the fault fired
    assert engine.predictions.total > 500  # and service continued
    assert fleet.completed.total > 500
