"""CLI: what fleet serves rate R at p99 < X ms within the error budget?

Usage:
    python -m repro.capacity --rate-x 1.8 --p99-ms 25
    python -m repro.capacity --rate 50000 --k-max 8 --seeds 3 --parallel 4
    python -m repro.capacity --rate-x 2.7 --out-dir capacity-report

Each candidate fleet size runs the PR 6 fleet serving scenario
(multi-seed, fanned out via repro.sweep); the answer — per-K KPI table,
SLO verdicts, burn-rate alert timeline, recommended K with headroom —
is printed and written as a deterministic markdown + JSON dashboard.

Exit codes: 0 = a feasible K was found, 1 = no K in range meets the
objectives, 2 = a bad argument (rejected before anything is simulated)
or an output directory or file that could not be written.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..slo.planner import PlanSpec, plan_capacity, render_dashboard


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.capacity", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    rate = parser.add_mutually_exclusive_group()
    rate.add_argument("--rate", type=float, default=None, metavar="IMG_S",
                      help="offered load in images/second")
    rate.add_argument("--rate-x", type=float, default=1.8, metavar="X",
                      help="offered load as a multiple of the "
                           "single-host knee (default: 1.8)")
    parser.add_argument("--p99-ms", type=float, default=25.0,
                        help="client-perceived p99 target, ms "
                             "(default: the serving deadline, 25)")
    parser.add_argument("--availability", type=float, default=0.99,
                        help="availability SLO target (default: 0.99)")
    parser.add_argument("--latency-target", type=float, default=0.99,
                        help="required fraction of requests completing "
                             "within the deadline (default: 0.99)")
    parser.add_argument("--k-min", type=int, default=1)
    parser.add_argument("--k-max", type=int, default=6)
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="seeds per candidate K (base-seed offsets)")
    parser.add_argument("--base-seed", type=int, default=23)
    parser.add_argument("--sim-s", type=float, default=1.0,
                        help="simulated horizon per run (default: 1.0)")
    parser.add_argument("--policy", default="least-loaded")
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="fan per-K seeds out to N worker processes")
    parser.add_argument("--out-dir", default=None, metavar="DIR",
                        help="write dashboard.md + dashboard.json here")
    args = parser.parse_args(argv)

    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    if args.parallel < 1:
        parser.error(f"--parallel must be >= 1, got {args.parallel}")

    if args.rate is not None:
        offered = args.rate
    else:
        from ..experiments.fleet import single_host_knee
        offered = args.rate_x * single_host_knee()

    try:
        spec = PlanSpec(
            rate=offered, p99_ms=args.p99_ms,
            availability=args.availability,
            latency_target=args.latency_target,
            k_min=args.k_min, k_max=args.k_max,
            seeds=tuple(args.base_seed + i for i in range(args.seeds)),
            sim_s=args.sim_s, policy=args.policy)
    except ValueError as exc:
        parser.error(str(exc))

    # Fail on an unwritable --out-dir before burning simulation time.
    if args.out_dir is not None:
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            print(f"cannot create --out-dir {args.out_dir!r}: {exc}",
                  file=sys.stderr)
            return 2

    print(f"capacity plan: {offered:,.0f} img/s at p99 < "
          f"{args.p99_ms:g} ms, availability {args.availability:.2%}, "
          f"K in [{args.k_min}, {args.k_max}], "
          f"{args.seeds} seed(s), parallel={args.parallel}")
    plan = plan_capacity(spec, parallel=args.parallel, progress=print)

    dashboard = render_dashboard(plan)
    print()
    print(dashboard)

    if args.out_dir is not None:
        try:
            with open(os.path.join(args.out_dir, "dashboard.md"),
                      "w") as fh:
                fh.write(dashboard)
            with open(os.path.join(args.out_dir, "dashboard.json"),
                      "w") as fh:
                fh.write(plan.to_json())
                fh.write("\n")
        except OSError as exc:
            print(f"cannot write dashboard: {exc}", file=sys.stderr)
            return 2
        print(f"dashboard -> {args.out_dir}/dashboard.md, "
              f"{args.out_dir}/dashboard.json")

    return 0 if plan.feasible else 1


if __name__ == "__main__":
    sys.exit(main())
