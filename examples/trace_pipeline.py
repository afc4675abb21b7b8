#!/usr/bin/env python3
"""Export a Chrome/Perfetto trace of the FPGA decode pipeline.

Runs a burst of decodes through the decoder mirror with span tracing on
every pipeline way, then writes ``decoder_trace.json`` — open it at
chrome://tracing or https://ui.perfetto.dev to *see* the paper's
Figure 4 executing: 4 Huffman lanes interleaving, the single iDCT unit
saturated, the 2 resizer lanes trailing.

Run:  python examples/trace_pipeline.py [output.json]
"""

import os
import sys

from repro.calib import DEFAULT_TESTBED
from repro.fpga import DecodeCmd, FpgaDevice, FPGAChannel, ImageDecoderMirror
from repro.sim import Environment, Tracer


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "decoder_trace.json"
    # Fail on an unwritable output directory before simulating.
    out_dir = os.path.dirname(out_path)
    try:
        os.makedirs(out_dir or ".", exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out_dir!r}: {exc}",
              file=sys.stderr)
        return 2
    env = Environment()
    tracer = Tracer(env)

    device = FpgaDevice(env, DEFAULT_TESTBED)
    mirror = ImageDecoderMirror(env, DEFAULT_TESTBED)
    # Attach the tracer to every pipeline unit before the ways start.
    for unit in (mirror.parser, mirror.huffman, mirror.idct, mirror.resizer):
        unit.tracer = tracer
    device.load_mirror(mirror)
    channel = FPGAChannel(env, mirror)

    n = 64

    def submit(env):
        for i in range(n):
            cmd = DecodeCmd(
                cmd_id=i, source="dram", size_bytes=110_000,
                work_pixels=int(375 * 500 * 1.5), out_h=224, out_w=224,
                channels=3, dest_phy=0x4000_0000, dest_offset=0)
            yield from channel.submit_cmd(cmd)

    done = []

    def collect(env):
        while len(done) < n:
            done.append((yield from channel.wait_one()))
            tracer.instant(f"finish-{len(done)}", "FINISH arbiter")

    env.process(submit(env))
    proc = env.process(collect(env))
    env.run(until=proc)

    tracer.to_chrome_trace(out_path)
    print(f"decoded {n} images in {env.now * 1e3:.2f} ms simulated "
          f"({n / env.now:,.0f} img/s)")
    print(f"{len(tracer.spans)} spans across {len(tracer.tracks())} tracks "
          f"written to {out_path}")
    for track in sorted(tracer.tracks()):
        busy = tracer.busy_time(track) / env.now
        print(f"  {track:24s} {100 * busy:5.1f}% busy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
