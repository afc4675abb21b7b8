"""Tests for the workflow drivers and windowed metrics."""

import gc
import weakref

import pytest

from repro.engines import CpuCorePool
from repro.sim import Counter, Environment
from repro.workflows import (CounterWindow, CpuWindow, InferenceConfig,
                             TrainingConfig, ideal_training_throughput,
                             run_inference, run_training)


# ---------------------------------------------------------------- metrics
def test_counter_window_rates_delta_only():
    env = Environment()
    c = Counter(env)

    def p(env):
        for _ in range(20):
            yield env.timeout(1.0)
            c.add(5)

    env.process(p(env))
    env.run(until=10.0)
    win = CounterWindow(env, [c])
    win.mark()
    env.run(until=20.0)
    assert win.rate() == pytest.approx(5.0)
    assert win.delta() == pytest.approx(50.0)


def test_cpu_window_excludes_warmup():
    env = Environment()
    cpu = CpuCorePool(env, 4)

    def p(env):
        yield from cpu.run(5.0, "warm")   # before the mark
        yield from cpu.run(5.0, "cold")   # after

    env.process(p(env))
    env.run(until=5.0)
    win = CpuWindow(env, cpu)
    win.mark()
    env.run()
    bd = win.breakdown()
    assert bd.get("warm", 0.0) == pytest.approx(0.0)
    assert bd["cold"] == pytest.approx(1.0)
    assert win.total_cores() == pytest.approx(1.0)


# ---------------------------------------------------------------- training
def test_ideal_throughput_matches_paper_annotations():
    # Fig. 2 annotates the ideal backend at 2,496 / 4,652 img/s.
    assert ideal_training_throughput("alexnet", 1) == pytest.approx(2496)
    assert ideal_training_throughput("alexnet", 2) == pytest.approx(
        4652, rel=0.02)


def test_run_training_validation():
    with pytest.raises(ValueError):
        run_training(TrainingConfig(model="bert", backend="dlbooster"))
    with pytest.raises(ValueError):
        run_training(TrainingConfig(model="alexnet", backend="dlbooster",
                                    num_gpus=3))
    with pytest.raises(ValueError):
        run_training(TrainingConfig(model="alexnet", backend="magic"))


@pytest.mark.parametrize("bad", [
    dict(dataset_size=0), dict(dataset_size=-5), dict(warmup_s=-0.1),
    dict(measure_s=0.0), dict(measure_s=-1.0)])
def test_run_training_rejects_bad_sizes_and_windows(bad):
    with pytest.raises(ValueError):
        run_training(TrainingConfig(model="alexnet", backend="dlbooster",
                                    **bad))


def test_make_manifest_defaults_only_when_size_unset():
    from repro.sim import SeedBank
    from repro.workflows.training import MNIST_N, _make_manifest
    assert len(_make_manifest("lenet5", None, SeedBank(0))) == MNIST_N
    assert len(_make_manifest("alexnet", 7, SeedBank(0))) == 7
    with pytest.raises(ValueError):
        _make_manifest("alexnet", 0, SeedBank(0))


def test_run_training_smoke_result_fields():
    res = run_training(TrainingConfig(
        model="alexnet", backend="dlbooster", num_gpus=1,
        warmup_s=0.5, measure_s=1.5))
    assert res.throughput > 0
    assert res.per_gpu_throughput == res.throughput
    assert 0.8 <= res.efficiency <= 1.05
    assert res.cpu_cores > 0
    assert set(res.cpu_breakdown) >= {"kernels", "update"}
    assert res.extras["pool_conservation"] is True


def test_run_training_deterministic():
    cfg = TrainingConfig(model="alexnet", backend="lmdb", num_gpus=2,
                         warmup_s=0.5, measure_s=1.5)
    a = run_training(cfg)
    b = run_training(cfg)
    assert a.throughput == b.throughput
    assert a.cpu_cores == b.cpu_cores


def test_run_training_frees_the_previous_corpus_first(monkeypatch):
    # A finished run is cyclic garbage.  With the automatic collector
    # off, only run_training's own collection can free it, and it must
    # do so before the next run builds its corpus.
    from repro.workflows import training
    built, alive_at_build = [], []
    make_manifest = training._make_manifest

    def tracking(model, n, seeds):
        alive_at_build.append([ref() is not None for ref in built])
        manifest = make_manifest(model, n, seeds)
        built.append(weakref.ref(manifest))
        return manifest

    monkeypatch.setattr(training, "_make_manifest", tracking)
    cfg = TrainingConfig(model="alexnet", backend="dlbooster",
                         dataset_size=2000, warmup_s=0.05, measure_s=0.1)
    gc.disable()
    try:
        run_training(cfg)
        run_training(cfg)
    finally:
        gc.enable()
    assert alive_at_build == [[], [False]]


# --------------------------------------------------------------- inference
def test_run_inference_validation():
    with pytest.raises(ValueError):
        run_inference(InferenceConfig(model="alexnet", backend="dlbooster"))
    with pytest.raises(ValueError):
        run_inference(InferenceConfig(model="vgg16", backend="dlbooster",
                                      batch_size=0))
    with pytest.raises(ValueError):
        run_inference(InferenceConfig(model="vgg16", backend="lmdb"))


@pytest.mark.parametrize("run, config", [
    (run_inference, lambda **kw: InferenceConfig(
        model="googlenet", backend="dlbooster", **kw)),
    (run_training, lambda **kw: TrainingConfig(
        model="alexnet", backend="dlbooster", **kw))],
    ids=["inference", "training"])
@pytest.mark.parametrize("field, value", [
    ("measure_s", 0.0), ("measure_s", -0.2), ("measure_s", float("inf")),
    ("measure_s", float("nan")), ("warmup_s", -0.1),
    ("warmup_s", float("inf")), ("warmup_s", float("nan"))])
def test_workflows_reject_bad_windows(run, config, field, value):
    """Both drivers refuse a window they cannot honour before building
    anything, with a message that names the field."""
    with pytest.raises(ValueError, match=field):
        run(config(**{field: value}))


def test_run_inference_smoke_result_fields():
    res = run_inference(InferenceConfig(
        model="vgg16", backend="dlbooster", batch_size=8,
        warmup_s=0.5, measure_s=1.5))
    assert res.throughput > 0
    assert 0 < res.latency_mean_ms < 100
    assert res.latency_p50_ms <= res.latency_p99_ms
    assert res.cpu_cores > 0
    assert res.extras["rx_drops"] == 0


def test_run_inference_deterministic():
    cfg = InferenceConfig(model="googlenet", backend="nvjpeg",
                          batch_size=8, warmup_s=0.5, measure_s=1.5)
    a = run_inference(cfg)
    b = run_inference(cfg)
    assert a.throughput == b.throughput
    assert a.latency_mean_ms == b.latency_mean_ms


def test_run_inference_two_gpus_scale():
    one = run_inference(InferenceConfig(
        model="vgg16", backend="dlbooster", batch_size=16,
        num_gpus=1, warmup_s=0.5, measure_s=2.0))
    two = run_inference(InferenceConfig(
        model="vgg16", backend="dlbooster", batch_size=16,
        num_gpus=2, warmup_s=0.5, measure_s=2.0))
    assert two.throughput > 1.5 * one.throughput


def test_run_inference_unloaded_latency_below_loaded():
    loaded = run_inference(InferenceConfig(
        model="googlenet", backend="dlbooster", batch_size=1,
        warmup_s=0.5, measure_s=1.5))
    unloaded = run_inference(InferenceConfig(
        model="googlenet", backend="dlbooster", batch_size=1,
        warmup_s=0.5, measure_s=1.5, unloaded=True))
    assert unloaded.latency_mean_ms < loaded.latency_mean_ms
    # One batch in flight: throughput = 1 / pipeline time.
    assert unloaded.throughput < loaded.throughput


def test_run_inference_gpu_direct_config():
    res = run_inference(InferenceConfig(
        model="googlenet", backend="dlbooster", batch_size=16,
        warmup_s=0.5, measure_s=1.5, gpu_direct=True))
    assert res.throughput > 1000
    staged = run_inference(InferenceConfig(
        model="googlenet", backend="dlbooster", batch_size=16,
        warmup_s=0.5, measure_s=1.5))
    assert res.cpu_cores < staged.cpu_cores


def test_training_disk_utilization_reported():
    res = run_training(TrainingConfig(
        model="alexnet", backend="dlbooster", num_gpus=1,
        warmup_s=0.5, measure_s=1.5))
    assert 0.0 < res.extras["disk_utilization"] < 1.0


def test_training_num_fpgas_knob():
    res = run_training(TrainingConfig(
        model="alexnet", backend="dlbooster", num_gpus=2, num_fpgas=2,
        warmup_s=0.5, measure_s=1.5))
    assert len(res.extras["decoder_utilizations"]) == 2
