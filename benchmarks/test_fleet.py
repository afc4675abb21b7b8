"""Fleet benchmarks: the experiment's shape checks plus a wall-clock
scaling curve (events/s and wall seconds vs fleet size, BENCH_PR6.json).

The K-host fleet multiplies the whole single-host pipeline inside one
Environment, so sim-kernel cost should grow roughly linearly in K at a
fixed per-host arrival rate; a superlinear blowup would mean the fleet
layer added per-event overhead.  One timed run per K (these are
multi-second simulations, not microbenchmarks).
"""

import os
import time

from repro.experiments import fleet as fleet_experiment
from repro.perf import BenchResult, to_payload, write_payload
from repro.sim.core import total_events_processed

from conftest import FULL, run_report

BENCH_PR6 = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_PR6.json")


def test_fleet_experiment(benchmark):
    run_report(benchmark, fleet_experiment.run)


def test_fleet_scaling_wall_clock():
    """Wall seconds + events/s for K = 1, 2, 4 hosts at a fixed
    0.75-knee per-host offered rate; written to BENCH_PR6.json."""
    sim_s = 0.5 if not FULL else 1.0
    results = []
    rates = {}
    for k in (1, 2, 4):
        def one_run(k=k):
            return fleet_experiment.serve_fleet(
                policy="least-loaded", k=k, overload_x=0.75 * k,
                sim_s=sim_s, degraded_host=None)   # all hosts healthy

        one_run()                               # warm caches
        ev0 = total_events_processed()
        t0 = time.perf_counter()
        payload = one_run()
        wall = time.perf_counter() - t0
        events = total_events_processed() - ev0
        assert payload["fleet"]["conserved"]
        assert payload["fleet"]["completed"] > 0
        results.append(BenchResult(
            name=f"fleet.k{k}", best_s=wall, mean_s=wall, runs=(wall,),
            reps=1, units={"events": events,
                           "served": payload["fleet"]["completed"]}))
        rates[k] = events / wall
    # Per-host kernel throughput should not collapse as K grows: the
    # fleet layer adds no superlinear per-event cost.  (4x the hosts at
    # 4x the total arrival rate => within 3x the wall per event.)
    assert rates[4] > rates[1] / 3.0, rates
    write_payload(BENCH_PR6, to_payload(
        results, derived={"events_per_s_k1": rates[1],
                          "events_per_s_k4": rates[4],
                          "k4_vs_k1_events_rate": rates[4] / rates[1]}))
    print(f"\nfleet scaling: " + ", ".join(
        f"K={k}: {rates[k]:,.0f} ev/s" for k in rates))
