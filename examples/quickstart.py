#!/usr/bin/env python3
"""Quickstart: decode real JPEGs through the DLBooster pipeline.

Builds the smallest complete stack — an FPGA device programmed with the
image-decoder mirror, a hugepage memory pool, FPGAReader — in
*functional* mode, so actual JPEG bytes flow through the simulated
hardware and real pixels land in the batch buffers.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.calib import DEFAULT_TESTBED
from repro.data import functional_jpeg_manifest
from repro.fpga import FpgaDevice, FPGAChannel, ImageDecoderMirror
from repro.host import BatchSpec, DataCollector, FPGAReader
from repro.jpeg import decode_resized
from repro.memory import MemManager
from repro.sim import Environment, SeedBank


def main() -> None:
    env = Environment()
    testbed = DEFAULT_TESTBED

    # A tiny corpus of real JPEG bytes (synthesised by our encoder).
    manifest = functional_jpeg_manifest(n=16, h=96, w=128,
                                        seeds=SeedBank(42))
    print(f"corpus: {len(manifest)} JPEGs, "
          f"{manifest.total_bytes / 1024:.0f} KiB total")

    # Batches of 4 images resized to 64x64x3.
    spec = BatchSpec(batch_size=4, out_h=64, out_w=64, channels=3)
    pool = MemManager(env, unit_size=spec.batch_bytes, unit_count=4)

    # Program the FPGA with the (functional) image-decoder mirror.
    device = FpgaDevice(env, testbed)
    mirror = ImageDecoderMirror(env, testbed, functional=True,
                                host_pool=pool)
    device.load_mirror(mirror)
    print(f"FPGA: {device.clb_used:,} / {device.clb_budget:,} CLBs used "
          f"by '{mirror.name}'")

    collector = DataCollector(env)
    collector.load_from_disk(manifest)
    reader = FPGAReader(env, testbed, [FPGAChannel(env, mirror)], pool, spec)

    def feed(env):
        yield from reader.run_epoch(collector.disk_epoch())

    proc = env.process(feed(env))
    env.run(until=proc)

    print(f"decoded {int(mirror.decoded.total)} images into "
          f"{int(reader.batches_produced.total)} batches "
          f"in {env.now * 1e3:.2f} ms of simulated time "
          f"({mirror.decoded.total / env.now:,.0f} img/s)")
    print(f"decoder stage utilizations: "
          f"{ {k: round(v, 2) for k, v in mirror.stage_utilizations().items()} }")

    # Pull one batch and verify the pixels are the real decode output.
    ok, unit = pool.full_batch_queue.try_get()
    assert ok
    first = unit.read(0, spec.item_bytes).reshape(64, 64, 3)
    reference = decode_resized(unit.payload[0].payload, 64, 64)
    assert np.array_equal(first, reference)
    print("batch pixels verified against the software decoder — "
          "bit-identical.")


if __name__ == "__main__":
    main()
