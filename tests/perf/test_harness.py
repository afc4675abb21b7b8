"""Tests for the repro.perf harness: timing, serialization, regression
gating, and the reference_mode patch/restore contract."""

import json

import numpy as np
import pytest

from repro.perf import (bench, check_regression, load_payload,
                        merge_payloads, reference_mode, to_payload,
                        write_payload)
from repro.perf.harness import SCHEMA, BenchResult


def test_bench_basic():
    calls = []
    result = bench(lambda: calls.append(1), name="noop", warmup=2, k=3,
                   min_time=0.001, units={"ops": 1.0})
    assert result.name == "noop"
    assert result.best_s > 0
    assert result.best_s <= result.mean_s
    assert len(result.runs) == 3
    assert result.reps >= 1
    # warmup + calibration + k timed runs all actually called fn
    assert len(calls) >= 2 + result.reps * 3
    assert result.rate()["ops_per_s"] == 1.0 / result.best_s


def test_bench_calibrates_fast_functions():
    result = bench(lambda: None, k=2, min_time=0.01)
    # A no-op takes nanoseconds; calibration must batch many reps.
    assert result.reps > 100


def test_bench_rejects_bad_args():
    with pytest.raises(ValueError):
        bench(lambda: None, k=0)
    with pytest.raises(ValueError):
        bench(lambda: None, min_time=0)


def test_payload_roundtrip(tmp_path):
    r = BenchResult(name="a.b", best_s=0.5, mean_s=0.6, runs=(0.5, 0.7),
                    reps=2, units={"bytes": 100.0})
    payload = to_payload([r], {"a.b_speedup": 2.0})
    assert payload["schema"] == SCHEMA
    assert payload["results"]["a.b"]["rate"]["bytes_per_s"] == 200.0
    path = str(tmp_path / "bench.json")
    write_payload(path, payload)
    loaded = load_payload(path)
    assert loaded["derived"]["a.b_speedup"] == 2.0
    # Merging on write: a second document extends, does not clobber.
    r2 = BenchResult(name="c.d", best_s=1.0, mean_s=1.0, runs=(1.0,),
                     reps=1)
    write_payload(path, to_payload([r2], {"c.d_speedup": 3.0}))
    loaded = load_payload(path)
    assert set(loaded["results"]) == {"a.b", "c.d"}
    assert loaded["derived"] == {"a.b_speedup": 2.0, "c.d_speedup": 3.0}


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other/9"}))
    with pytest.raises(ValueError):
        load_payload(str(path))


def test_merge_rejects_wrong_schema():
    with pytest.raises(ValueError):
        merge_payloads({"schema": SCHEMA}, {"schema": "nope"})


def test_check_regression():
    baseline = {"schema": SCHEMA, "derived": {"x": 3.0, "y": 1.5,
                                              "only_base": 9.0}}
    current = {"schema": SCHEMA, "derived": {"x": 2.2, "y": 0.9,
                                             "only_cur": 1.0}}
    failures = check_regression(current, baseline, tolerance=0.30)
    # x: floor 2.1, current 2.2 -> ok.  y: floor 1.05, current 0.9 ->
    # fail.  Keys present in only one document are ignored.
    assert len(failures) == 1
    assert failures[0].startswith("y:")
    assert check_regression(current, baseline, tolerance=0.50) == []


def test_reference_mode_restores_on_exit():
    from repro.jpeg import decoder as decoder_mod
    from repro.jpeg.huffman import HuffmanTable
    from repro.sim.core import Event
    before = (decoder_mod.decode_block, HuffmanTable.decode, Event.succeed)
    with reference_mode():
        during = (decoder_mod.decode_block, HuffmanTable.decode,
                  Event.succeed)
        assert all(d is not b for d, b in zip(during, before))
    after = (decoder_mod.decode_block, HuffmanTable.decode, Event.succeed)
    assert all(a is b for a, b in zip(after, before))


def test_reference_mode_restores_on_error():
    from repro.jpeg import decoder as decoder_mod
    before = decoder_mod.decode_block
    with pytest.raises(RuntimeError):
        with reference_mode():
            raise RuntimeError("boom")
    assert decoder_mod.decode_block is before


def test_reference_mode_decode_bit_identical():
    """The whole point: the optimized decoder and the pre-pass decoder
    must produce the same pixels for the same bytes."""
    from repro.data.datasets import synthetic_photo
    from repro.jpeg.decoder import decode
    from repro.jpeg.encoder import encode
    img = synthetic_photo(np.random.default_rng(42), 64, 80)
    data = encode(img, quality=75)
    new = decode(data)
    with reference_mode():
        old = decode(data)
    assert np.array_equal(new, old)


def test_reference_mode_sim_bit_identical():
    """A small end-to-end sim gives identical results either mode."""
    from repro.sim import Channel, Environment
    from repro.telemetry import MetricsRegistry

    def run_once():
        env = Environment()
        with MetricsRegistry().installed():
            ch = Channel(env, capacity=4, name="t")
        got = []

        def producer():
            for i in range(50):
                yield from ch.put(i)
                yield env.timeout(0.25)

        def consumer():
            for _ in range(50):
                item = yield from ch.get()
                got.append((env.now, item))
                yield env.timeout(0.4)

        env.process(producer())
        env.process(consumer())
        env.run()
        return got, env.now, ch.wait.percentile(0.99), ch.put_count

    new = run_once()
    with reference_mode():
        old = run_once()
    assert new == old
