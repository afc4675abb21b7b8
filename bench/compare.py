"""Compare two ``e2e.py --out`` files, one row per workload x metric.

    python3 bench/compare.py baseline.json change.json

Each side shows the median and quartiles of its run values.  The
verdict follows the benchmark's bounds (``spec.END_TO_END``):

* ``unresolved`` -- either side's quartile spread is wider than the
  bound, and not every run of B beats every run of A;
* ``worse``      -- B's median is worse than A's by more than the bound;
* ``better``     -- B's median beats A's by more than A's own spread;
* ``within bound`` otherwise.

Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spec import END_TO_END  # noqa: E402


def _runs(doc: dict, workload: str, metric: str) -> list:
    return [run["metrics"][metric]["value"]
            for run in doc["workloads"][workload]["runs"]
            if metric in run["metrics"]]


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list, b: list, better: str, bound: float,
            kind: str) -> tuple[str, float]:
    """(verdict, signed change of B's median against A's, as a share for
    relative bounds and in units for absolute ones)."""
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    scale = abs(am) if kind == "rel" and am else 1.0
    allow = bound * scale
    change = (bm - am) / scale
    worse_by = sign * (bm - am)
    if a == b:
        # Same runs on both sides: a simulated value that varies only
        # with the seed.  Its spread across seeds is not noise.
        return "within bound", change
    if max(a3 - a1, b3 - b1) > allow:
        beats = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if beats else "unresolved"), change
    if worse_by > allow:
        return "worse", change
    if -worse_by > a3 - a1:
        return "better", change
    return "within bound", change


def compare(a: dict, b: dict) -> list:
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for metric, (unit, better, bound, kind) in END_TO_END.items():
            va, vb = _runs(a, workload, metric), _runs(b, workload, metric)
            if not va or not vb:
                continue
            word, change = verdict(va, vb, better, bound, kind)
            rows.append({"workload": workload, "metric": metric,
                         "unit": unit, "a": quartiles(va),
                         "b": quartiles(vb), "change": change,
                         "kind": kind, "verdict": word})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    rows = compare(*docs)
    print(f"{'workload':<14} {'metric':<20} {'unit':<7} "
          f"{'A median [q1, q3]':>32} {'B median [q1, q3]':>32} "
          f"{'change':>9}  verdict")
    for r in rows:
        a, b = r["a"], r["b"]
        change = (f"{100 * r['change']:+.2f}%" if r["kind"] == "rel"
                  else f"{r['change']:+.3g}")
        print(f"{r['workload']:<14} {r['metric']:<20} {r['unit']:<7} "
              f"{a[1]:>12.6g} [{a[0]:.5g}, {a[2]:.5g}] "
              f"{b[1]:>12.6g} [{b[0]:.5g}, {b[2]:.5g}] "
              f"{change:>9}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
