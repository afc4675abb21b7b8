"""Run one workload in this process and print its run record.

    python3 bench/worker.py --workload fleet_k4 --seed 0 --seconds 10

``e2e.py`` starts one fresh worker per run, plus ``--setup-only``
workers that stop once the workload is ready, to time set-up.  The
record is one JSON line on standard output.  The reps run closed-loop,
one public call at a time, until ``--seconds`` have passed (at least
three, so the median is not a mean; one with ``--quick``).  Each rep is
timed by wall clock and by CPU time of this process plus the live
sweep-pool workers, and the reference kernel (``reference.py``) is
timed just before it.  With ``--trace`` one more rep runs under
cProfile and the per-layer split is written to
``bench/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import glob
import hashlib
import json
import multiprocessing
import os
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import time

from layers import Spans, layer_table
from reference import NOMINAL_S, kernel_cpu_s
from spec import END_TO_END, PER_LAYER, RUN_SECONDS
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REPRO = os.path.join(SRC, "repro")
OUT = os.path.join(BENCH, "out")

MIN_REPS = 3


def _import_repro() -> None:
    """Put this checkout's sources first and refuse any other copy."""
    sys.path.insert(0, SRC)
    import repro
    if os.path.dirname(os.path.abspath(repro.__file__)) != REPRO:
        raise ImportError(f"repro resolved outside {SRC}")


def _stat(values: list, unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit,
            "n": len(values), "min": min(values), "max": max(values)}


def _max_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def _cpu_s(children: list) -> float:
    """CPU seconds of this process (all its threads) and of the given
    child processes.  Linux names a process's CPU clock
    ``((~pid) << 3) | 2``.  CPU clocks count time spent running, not
    time spent waiting for a CPU, so other load on a shared host does
    not inflate them the way it inflates wall time."""
    return time.process_time() + sum(
        time.clock_gettime(((~pid) << 3) | 2) for pid in children)


def _run_rep(workload, spans, children=(), profile_dir=None):
    from repro.sim.core import total_events_processed
    ev0 = total_events_processed()
    root_index = len(spans.records)
    cpu0 = _cpu_s(children)
    with spans.span("rep") as root:
        rep = workload.rep(spans, profile_dir=profile_dir)
    cpu = _cpu_s(children) - cpu0
    for rec in spans.records[root_index + 1:]:
        if rec["parent"] == root_index:
            rep.timings[rec["name"]] = rec["end"] - rec["start"]
    rep.digest = hashlib.sha256(rep.doc.encode()).hexdigest()
    return rep, root["end"] - root["start"], cpu, \
        total_events_processed() - ev0


def _traced_rep(workload, spans):
    """One rep under cProfile; worker-process profiles that
    ``run_sweep(profile_dir=...)`` writes are merged in."""
    os.makedirs(OUT, exist_ok=True)
    profile_dir = tempfile.mkdtemp(prefix="prof-", dir=OUT)
    try:
        prof = cProfile.Profile()
        prof.enable()
        try:
            rep, wall, _cpu, events = _run_rep(workload, spans,
                                               profile_dir=profile_dir)
        finally:
            prof.disable()
        stats = pstats.Stats(prof)
        for path in sorted(glob.glob(os.path.join(profile_dir,
                                                  "*.pstats"))):
            stats.add(path)
    finally:
        shutil.rmtree(profile_dir, ignore_errors=True)
    return rep, wall, events, layer_table(stats, REPRO)


def run(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.quick)
    reps, walls, cpus, events, refs = [], [], [], [], []
    spans = Spans()
    try:
        workload.prepare()
        # The sweep pool's workers, which do the sweep's simulation.
        children = [p.pid for p in multiprocessing.active_children()]
        t0 = time.perf_counter()
        while not reps or (not args.quick and (
                len(reps) < MIN_REPS
                or time.perf_counter() - t0 < args.seconds)):
            refs.append(kernel_cpu_s())
            rep, wall, cpu, ev = _run_rep(workload, spans, children)
            if reps:
                rep.doc = ""   # keep one document; the rest by digest
            reps.append(rep)
            walls.append(wall)
            cpus.append(cpu)
            events.append(ev)
        run_values, run_checks = workload.finish(reps)
        # Before the traced rep, whose profiler data would count.
        rss_self = _max_rss_mb(resource.RUSAGE_SELF)
        traced = None
        if args.trace:
            traced = _traced_rep(workload, spans)
    finally:
        workload.close()
    # Pool workers count once close() has reaped them.
    peak_rss = max(rss_self, _max_rss_mb(resource.RUSAGE_CHILDREN))

    # -- correctness: every rep's own checks, replay identity ---------
    all_reps = reps + ([traced[0]] if traced else [])
    reps[0].checks += run_checks
    if args.force_fail:
        reps[0].checks.append(("forced failure", False))
    failed_checks = []
    for i, rep in enumerate(all_reps):
        rep.checks.append(("replay-identical to rep 0",
                           rep.digest == reps[0].digest))
        bad = [name for name, ok in rep.checks if not ok]
        if bad:
            failed_checks.append({"rep": i, "checks": bad})

    # -- end-to-end metrics, from the untraced reps ---------------------
    def e2e(name, values):
        return _stat(values, END_TO_END[name][0])

    # Each rep's CPU time at nominal host speed, from the reference
    # kernel timed just before it (see reference.py).
    nominal = [c * NOMINAL_S / ref for c, ref in zip(cpus, refs)]
    metrics = {
        "nominal_us_per_image": e2e("nominal_us_per_image", [
            1e6 * c / r.images for c, r in zip(nominal, reps)]),
        "cpu_us_per_image": e2e("cpu_us_per_image", [
            1e6 * c / r.images for c, r in zip(cpus, reps)]),
        "wall_s": e2e("wall_s", walls),
        "wall_us_per_image": e2e("wall_us_per_image", [
            1e6 * w / r.images for w, r in zip(walls, reps)]),
        "events_per_image": e2e("events_per_image", [
            ev / r.images for ev, r in zip(events, reps)]),
        "sim_goodput_img_s": e2e("sim_goodput_img_s", [
            r.images / r.sim_s for r in reps]),
        "peak_rss_mb": e2e("peak_rss_mb", [peak_rss]),
        "failed_frac": e2e("failed_frac", [
            len(failed_checks) / len(all_reps)]),
    }
    for name in ("sim_p99_ms", "paper_gap_pct"):
        if name in reps[0].values:
            metrics[name] = e2e(name, [r.values[name] for r in reps])

    # -- per-layer metrics ----------------------------------------------
    layer = {"sim.ns_per_event": _stat(
        [1e9 * c / ev for c, ev in zip(nominal, events)], "ns")}
    for name in reps[0].values.keys() & PER_LAYER.keys():
        layer[name] = _stat([r.values[name] for r in reps],
                            PER_LAYER[name][0])
    for name, value in run_values.items():
        layer[name] = _stat([value], PER_LAYER[name][0])
    if "rollup_json" in reps[0].timings:
        layer["sweep.merge_share"] = _stat(
            [100.0 * r.timings["rollup_json"] / w
             for r, w in zip(reps, walls)], "%")
    trace_file = None
    if traced:
        rep, wall, _ev, table = traced
        total = table["total_self_s"]
        for name, share in table["self_share"].items():
            layer[f"{name}.self_share"] = _stat([share], "%")
        layer["fpga.unit_calls_per_image"] = _stat(
            [table["fpga_unit_calls"] / rep.images], "calls")
        for probe, seconds in table["cumulative_s"].items():
            layer[f"{probe}_share"] = _stat([100.0 * seconds / total], "%")
        layer["trace.overhead_x"] = _stat(
            [wall / statistics.median(walls)], "x")
        trace_file = os.path.join(OUT, f"trace-{args.workload}.json")
        with open(trace_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_wall_s": wall, "layers": table,
                       "spans": spans.relative()}, fh, indent=1)
            fh.write("\n")

    return {"workload": args.workload, "seed": args.seed,
            "reps": len(reps), "attempted": len(all_reps),
            "failed": len(failed_checks), "failed_checks": failed_checks,
            "reference_cpu_s": _stat(refs, "s"),
            "metrics": metrics, "per_layer": layer,
            "trace_file": os.path.relpath(trace_file, ROOT)
            if trace_file else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--force-fail", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    _import_repro()
    if args.setup_only:
        workload = WORKLOADS[args.workload](args.seed, args.quick)
        try:
            print(json.dumps(workload.prepare()), flush=True)
        finally:
            workload.close()
        return 0
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
