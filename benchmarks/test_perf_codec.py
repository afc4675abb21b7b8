"""Perf regression benchmark: functional JPEG decode, new vs pre-pass.

Times the optimized decoder and — in the same process, via
``reference_mode()`` — the implementation it replaced, asserts
bit-identical pixels and a healthy speedup, and records both absolute
MB/s and the speedup ratio into ``BENCH_PR5.json`` (``repro-perf/1``).
"""

import numpy as np
import pytest

from repro.jpeg.decoder import decode
from repro.perf import bench, reference_mode
from repro.perf.workloads import codec_workload

from conftest import FULL, bench_out

# The measured speedup on an idle machine is ~3.5x (the optimization
# target was >= 3x); the hard floor here is set low enough that a noisy
# shared CI runner cannot flake the suite — the committed perf baseline
# plus the 30% regression gate (test_perf_experiments) police the real
# target.
MIN_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def workload():
    return codec_workload()


def test_decode_bit_identical_across_modes(workload):
    new_pixels = decode(workload.data)
    with reference_mode():
        ref_pixels = decode(workload.data)
    assert new_pixels.dtype == ref_pixels.dtype
    assert np.array_equal(new_pixels, ref_pixels)


def test_decode_speedup(workload):
    units = {"bytes": float(workload.nbytes)}
    kwargs = dict(k=3, min_time=0.2) if FULL else dict(k=2, min_time=0.05)
    # On a shared host one quick round's best-of-two swings the ratio
    # widely; the minimum over three interleaved rounds swings less.
    rounds = 2 if FULL else 3
    # Interleave the modes so slow machine drift biases neither side.
    news, olds = [], []
    for _ in range(rounds):
        news.append(bench(lambda: decode(workload.data),
                          name="codec.decode", units=units, **kwargs))
        with reference_mode():
            olds.append(bench(lambda: decode(workload.data),
                              name="codec.decode_ref", units=units,
                              **kwargs))
    new = min(news, key=lambda r: r.best_s)
    old = min(olds, key=lambda r: r.best_s)
    speedup = old.best_s / new.best_s
    bench_out([new, old], {"codec.decode_speedup": speedup})
    print(f"\ndecode: {workload.nbytes / new.best_s / 1e6:.2f} MB/s "
          f"(ref {workload.nbytes / old.best_s / 1e6:.2f} MB/s, "
          f"{speedup:.2f}x)")
    assert speedup >= MIN_SPEEDUP, (
        f"decode speedup {speedup:.2f}x below floor {MIN_SPEEDUP}x")
