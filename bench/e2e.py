"""End-to-end benchmark: host cost per simulated image, per workload.

    python3 bench/e2e.py                          # all workloads, 1 run
    python3 bench/e2e.py --workload fleet_k4 --runs 10 --out fleet.json
    python3 bench/e2e.py --trace --quick          # per-layer split, fast

Every run is a fresh worker process (``worker.py``) that drives one
workload closed-loop, one public call at a time, for ``--seconds``;
run ``i`` uses seed ``--seed + i``.  Set-up time is the median of five
more fresh launches timed until the workload is ready.  Host times are
reported as measured and at nominal host speed (``reference.py``);
the gated ones are the nominal ones.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the gated end-to-end metrics,
or with ``--trace`` the per-layer ones.  With several workloads its
metric names are prefixed ``<workload>/``.  The exit code is 0 when
every check passed, 1 when one failed and 2 when the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from compare import quartiles  # noqa: E402
from reference import NOMINAL_S  # noqa: E402
from spec import END_TO_END, GATED, PER_LAYER, RUN_SECONDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER = os.path.join(BENCH, "worker.py")
SETUP_LAUNCHES = 5
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


def _worker_cmd(workload: str, seed: int, args, *extra: str) -> list:
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds)]
    if args.quick:
        cmd.append("--quick")
    return cmd + list(extra)


def _time_setup(workload: str, seed: int, args) -> tuple[float, dict]:
    """One fresh launch, timed from spawn to the worker's ready line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        _worker_cmd(workload, seed, args, "--setup-only"),
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not line:
        raise BenchError(f"{workload} set-up failed (exit {code})")
    return elapsed, json.loads(line)


def _one_run(workload: str, seed: int, args) -> dict:
    setups = [_time_setup(workload, seed, args)
              for _ in range(SETUP_LAUNCHES)]
    extra = (["--trace"] if args.trace else []) \
        + (["--force-fail"] if args.force_fail else [])
    try:
        proc = subprocess.run(_worker_cmd(workload, seed, args, *extra),
                              stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in "
                         f"{WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker failed "
                         f"(exit {proc.returncode})")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    walls = [s for s, _ in setups]
    # At nominal host speed, by the reference kernel timed in the run
    # that follows the launches (see reference.py).
    scale = NOMINAL_S / record["reference_cpu_s"]["value"]
    for name, values in (("setup_wall_s", walls),
                         ("setup_s", [s * scale for s in walls])):
        record["metrics"][name] = {
            "value": statistics.median(values), "unit": "s",
            "n": len(values), "min": min(values), "max": max(values)}
    pool = [100.0 * info["pool_start_s"] / s for s, info in setups
            if "pool_start_s" in info]
    if pool:
        record["per_layer"]["sweep.pool_start_share"] = {
            "value": statistics.median(pool), "unit": "%", "n": len(pool),
            "min": min(pool), "max": max(pool)}
    return record


def summarize(runs: list, section: str) -> dict:
    """Across runs: median, quartiles, min and max of each run value."""
    out = {}
    names = sorted({n for r in runs for n in r[section]})
    for name in names:
        vals = [r[section][name]["value"] for r in runs
                if name in r[section]]
        q1, med, q3 = quartiles(vals)
        unit = next(r[section][name]["unit"] for r in runs
                    if name in r[section])
        out[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                     "min": min(vals), "max": max(vals), "runs": len(vals)}
    return out


def _print_table(name: str, runs: list, summary: dict, trace: bool) -> None:
    reps = sum(r["reps"] for r in runs)
    print(f"\n== {name}: {len(runs)} run(s), {reps} rep(s) "
          f"-- {WORKLOADS[name].why}")
    ref = statistics.median(r["reference_cpu_s"]["value"] for r in runs)
    print(f"  reference kernel: {1e3 * ref:.4g} ms CPU "
          f"(nominal {1e3 * NOMINAL_S:g} ms)")
    if len(runs) == 1:
        rows = {k: (v["value"], v["n"], v["min"], v["max"])
                for section in ("metrics", "per_layer")
                for k, v in runs[0][section].items()}
        label = "reps"
    else:
        rows = {k: (v["median"], v["runs"], v["min"], v["max"])
                for section in ("metrics", "per_layer")
                for k, v in summary[section].items()}
        label = "runs"
    for metric in list(END_TO_END) + (list(PER_LAYER) if trace else []):
        unit = END_TO_END[metric][0] if metric in END_TO_END \
            else PER_LAYER[metric][0]
        if metric not in rows:
            print(f"  {metric:<28} {'n/a':>14} {unit}")
            continue
        med, n, lo, hi = rows[metric]
        print(f"  {metric:<28} {med:>14.6g} {unit:<7} "
              f"({label}={n}, min {lo:.6g}, max {hi:.6g})")
    for run in runs:
        for bad in run["failed_checks"]:
            print(f"  FAILED seed {run['seed']} rep {bad['rep']}: "
                  + "; ".join(bad["checks"]))


def _result_line(results: dict, trace: bool) -> dict:
    """The machine-readable last line."""
    names = PER_LAYER if trace else GATED
    section = "per_layer" if trace else "metrics"
    prefix = len(results) > 1
    metrics = {}
    for workload, res in results.items():
        summary = res["summary"][section]
        for name in names:
            unit = (PER_LAYER if trace else END_TO_END)[name][0]
            value = summary[name]["median"] if name in summary else 0.0
            key = f"{workload}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for res in results.values()
                    for r in res["runs"])
    failed = sum(r["failed"] for res in results.values()
                 for r in res["runs"])
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="workloads: " + ", ".join(WORKLOADS))
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat to pick several (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every workload's default seeds")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured seconds per run")
    parser.add_argument("--runs", type=int, default=1,
                        help="fresh runs per workload, seeds S..S+N-1")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="also profile one rep per run; report the "
                             "per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="shrunk horizons and one rep (for tests)")
    parser.add_argument("--out", help="write every run and summary here")
    parser.add_argument("--force-fail", action="store_true",
                        help="fail one check on purpose (tests the "
                             "checker)")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs and --seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"no simulator sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    results = {}
    try:
        for name in args.workload or list(WORKLOADS):
            runs = [_one_run(name, args.seed + i, args)
                    for i in range(args.runs)]
            results[name] = {
                "why": WORKLOADS[name].why, "runs": runs,
                "summary": {section: summarize(runs, section)
                            for section in ("metrics", "per_layer")}}
            _print_table(name, runs, results[name]["summary"], args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    line = _result_line(results, bool(args.trace))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"schema": "dlbooster-bench/1",
                       "seed": args.seed, "seconds": args.seconds,
                       "runs": args.runs, "quick": args.quick,
                       "trace": bool(args.trace),
                       "host": {"python": platform.python_version(),
                                "machine": platform.machine(),
                                "cpus": os.cpu_count()},
                       "workloads": results}, fh, indent=1)
            fh.write("\n")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
