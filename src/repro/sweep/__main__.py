"""CLI: run a multi-seed fig7 sweep, serially or in parallel.

Usage:
    python -m repro.sweep --seeds 3 --parallel 4
    python -m repro.sweep --models googlenet,resnet50 --batches 1,8,32
    python -m repro.sweep --check-identity --parallel 2 --reuse-pool
    python -m repro.sweep --parallel 2 --profile prof/

``--check-identity`` runs the same points both serially and in
parallel and asserts the merged rollups are byte-identical — the
sweep's core determinism contract — then reports the speedup.
``--profile`` wraps every point in cProfile (inside whichever worker
runs it) and collects per-point ``.pstats`` files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..perf.harness import merge_payloads, write_payload
from .points import fig7_points
from .runner import run_sweep


def _csv(text: str) -> list[str]:
    return [part for part in text.split(",") if part]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep", description=__doc__)
    parser.add_argument("--models", default="googlenet", type=_csv,
                        help="comma-separated model list")
    parser.add_argument("--backends", default="dlbooster", type=_csv,
                        help="comma-separated backend list")
    parser.add_argument("--batches", default="1,8",
                        type=lambda s: [int(b) for b in _csv(s)],
                        help="comma-separated batch sizes")
    parser.add_argument("--seeds", default=2, type=int,
                        help="number of seeds (0..N-1) per grid point")
    parser.add_argument("--parallel", default=1, type=int,
                        help="worker processes (1 = serial)")
    parser.add_argument("--warmup-s", default=0.8, type=float)
    parser.add_argument("--measure-s", default=2.5, type=float)
    parser.add_argument("--check-identity", action="store_true",
                        help="also run serially and assert the merged "
                             "rollup is byte-identical")
    parser.add_argument("--reuse-pool", action="store_true",
                        help="run through the process-wide shared warm "
                             "WorkerPool (amortizes startup across "
                             "repeated sweeps in one process)")
    parser.add_argument("--start-method", default=None,
                        choices=("fork", "spawn", "forkserver"),
                        help="worker start method (default: fork where "
                             "available)")
    parser.add_argument("--profile", nargs="?", const=".", default=None,
                        metavar="DIR",
                        help="cProfile every point (in whichever worker "
                             "runs it) and dump point-NNN-{label}.pstats "
                             "into DIR (default: cwd); inspect with "
                             "python -m pstats or snakeviz")
    parser.add_argument("--out", default=None,
                        help="write the repro-sweep/1 rollup JSON here")
    parser.add_argument("--perf-out", default=None,
                        help="write the repro-perf/1 timing payload here")
    args = parser.parse_args(argv)

    if args.parallel < 1:
        parser.error(f"--parallel must be >= 1, got {args.parallel}")
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    for flag in ("models", "backends", "batches"):
        if not getattr(args, flag):
            parser.error(f"--{flag} must name at least one value")

    if args.profile is not None:
        # Fail on an unwritable dir before burning sweep minutes.
        try:
            os.makedirs(args.profile, exist_ok=True)
        except OSError as exc:
            print(f"cannot create --profile directory "
                  f"{args.profile!r}: {exc}", file=sys.stderr)
            return 2

    points = fig7_points(models=args.models, backends=args.backends,
                         batches=args.batches,
                         seeds=tuple(range(args.seeds)),
                         warmup_s=args.warmup_s,
                         measure_s=args.measure_s)
    print(f"sweep: {len(points)} points, parallel={args.parallel}"
          + (", reused pool" if args.reuse_pool else ""))
    outcome = run_sweep(points, parallel=args.parallel,
                        start_method=args.start_method,
                        reuse_pool=args.reuse_pool,
                        profile_dir=args.profile)
    if args.profile is not None:
        print(f"profiles -> {args.profile}/point-*.pstats")
    rollup_json = outcome.rollup_json()
    perf = outcome.perf_payload()

    for point, result, wall in zip(outcome.points, outcome.results,
                                   outcome.walls):
        throughput = result["values"].get("throughput")
        print(f"  {point.label:<40} {throughput:>10,.0f} img/s "
              f"({wall:.2f}s wall)")
    print(f"total wall {outcome.wall_s:.2f}s, "
          f"{sum(outcome.events):,} simulated events")

    if args.check_identity:
        serial = run_sweep(points, parallel=1)
        identical = serial.rollup_json() == rollup_json
        speedup = serial.wall_s / outcome.wall_s if outcome.wall_s else 0
        print(f"identity check: serial rollup == parallel rollup: "
              f"{identical}; speedup {speedup:.2f}x "
              f"(serial {serial.wall_s:.2f}s)")
        perf = merge_payloads(perf, {
            "schema": "repro-perf/1", "results": {},
            "derived": {"sweep.check_identity_speedup": speedup}})
        if not identical:
            print("FAIL: parallel rollup diverged from serial",
                  file=sys.stderr)
            return 1

    if args.out:
        doc = json.loads(rollup_json)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"rollup -> {args.out}")
    if args.perf_out:
        write_payload(args.perf_out, perf)
        print(f"perf -> {args.perf_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
