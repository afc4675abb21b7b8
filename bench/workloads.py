"""The five benchmark workloads.

Each workload calls the simulator's public entry points only and reads
only their public results.  ``prepare()`` is the set-up a user pays
before the first result (imports, and the warm worker pool on
``sweep_plan``); ``rep()`` is one closed-loop repetition.  It returns
the simulated images served or trained and the simulated seconds they
were counted over, a canonical document of everything it simulated (for
the replay-identity check), its modelled values and its correctness
checks.  ``--seed S`` is added to every default seed, so ``S = 0``
uses the experiments' own seeds.  Horizons are short, so that every
run has several reps to take a median over.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from dataclasses import dataclass, field

__all__ = ["Rep", "WORKLOADS"]

# The paper's operating points the two workflow workloads are held to.
PAPER_FIG7_IMG_S = 6000.0      # S5.3: GoogLeNet saturates the decoder
PAPER_ALEXNET_IMG_S = 2496.0   # Fig. 2(b): AlexNet on one GPU


@dataclass
class Rep:
    """What one repetition produced."""

    images: float                 # simulated images served or trained
    sim_s: float                  # simulated seconds they were counted over
    doc: str                      # canonical JSON of the simulated results
    digest: str = ""              # its SHA-256, once the worker has it
    values: dict = field(default_factory=dict)   # modelled metrics
    checks: list = field(default_factory=list)   # (name, ok)
    timings: dict = field(default_factory=dict)  # host s per public call


def _canonical(doc) -> str:
    from repro.sweep import canonical_json
    return canonical_json(doc)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick

    def prepare(self) -> dict:
        """Import what ``rep()`` calls; return set-up timings."""
        return {}

    def rep(self, spans, profile_dir=None) -> Rep:
        raise NotImplementedError

    def finish(self, reps: list) -> tuple[dict, list]:
        """Run-level work after the reps: (values, checks)."""
        return {}, []

    def close(self) -> None:
        """Stop every process ``prepare()`` started."""


class InferFig7(Workload):
    name = "infer_fig7"
    why = ("one Fig. 7 cell (googlenet, dlbooster, bs=32, 5 closed-loop "
           "clients): the FPGA decoder is the bottleneck at ~6,000 img/s")

    def prepare(self) -> dict:
        from repro.workflows import InferenceConfig, run_inference
        self._cfg = InferenceConfig(
            model="googlenet", backend="dlbooster", batch_size=32,
            warmup_s=0.1 if self.quick else 0.3,
            measure_s=0.3 if self.quick else 1.5, seed=self.seed)
        self._run = run_inference
        return {}

    def rep(self, spans, profile_dir=None) -> Rep:
        with spans.span("run_inference"):
            res = self._run(self._cfg)
        measure = self._cfg.measure_s
        utils = [u for dev in res.extras["decoder_utilizations"]
                 for u in dev.values()]
        return Rep(
            images=res.throughput * measure, sim_s=measure,
            doc=_canonical(dataclasses.asdict(res)),
            values={"sim_p99_ms": res.latency_p99_ms,
                    "paper_gap_pct": 100.0 * abs(
                        1.0 - res.throughput / PAPER_FIG7_IMG_S),
                    "host.sim_cpu_cores": res.cpu_cores},
            checks=[("throughput > 0", res.throughput > 0),
                    ("p50 <= p99", 0 < res.latency_p50_ms
                     <= res.latency_p99_ms),
                    ("decoder utilization in [0, 1]",
                     bool(utils) and all(0.0 <= u <= 1.0 for u in utils))])


class TrainAlexnet(Workload):
    name = "train_alexnet"
    why = ("Fig. 5 AlexNet on 1 GPU from the 400k-file NVMe corpus: the "
           "paper's headline workflow, and the only one where data and "
           "storage dominate")

    def prepare(self) -> dict:
        from repro.calib import TRAIN_MODELS
        from repro.workflows import TrainingConfig, run_training
        self._batch = TRAIN_MODELS["alexnet"].batch_size
        self._cfg = TrainingConfig(
            model="alexnet", backend="dlbooster",
            dataset_size=20_000 if self.quick else None,
            warmup_s=0.1 if self.quick else 0.3,
            measure_s=0.3 if self.quick else 1.0, seed=self.seed)
        self._run = run_training
        return {}

    def rep(self, spans, profile_dir=None) -> Rep:
        with spans.span("run_training"):
            res = self._run(self._cfg)
        measure = self._cfg.measure_s
        ex = res.extras
        return Rep(
            images=res.throughput * measure, sim_s=measure,
            doc=_canonical(dataclasses.asdict(res)),
            values={"paper_gap_pct": 100.0 * abs(
                        1.0 - res.throughput / PAPER_ALEXNET_IMG_S),
                    "host.sim_cpu_cores": res.cpu_cores},
            checks=[("throughput > 0", res.throughput > 0),
                    # The window counts whole batches, so allow one.
                    ("images <= GPU bound + one batch",
                     res.throughput * measure
                     <= res.ideal_throughput * measure + self._batch),
                    ("item ledger closes", ex["item_conservation"] is True),
                    ("batch pool ledger closes",
                     ex["pool_conservation"] is True)])


def _fleet_checks(payload: dict) -> list:
    checks = [("fleet ledger closes", payload["fleet"]["conserved"]),
              ("balancer ledger closes", payload["balancer"]["conserved"]),
              ("source ledger closes", payload["source"]["conserved"]),
              ("served > 0", payload["fleet"]["completed"] > 0)]
    flights = payload.get("flights")
    if flights is not None:
        checks += [("flight request ledger closes",
                    flights["request_ledger_ok"]),
                   ("flight attempt ledger closes",
                    flights["attempt_ledger_ok"])]
    return checks


class FleetK4(Workload):
    name = "fleet_k4"
    why = ("K=4 least-loaded fleet at 2.7x the knee, one dead-FPGA host, "
           "open-loop skewed arrivals: balancing, health and CPU failover")
    degraded = "host02"

    def prepare(self) -> dict:
        from repro.experiments.fleet import serve_fleet
        self._run = serve_fleet
        self._sim_s = 0.3 if self.quick else 0.5
        return {}

    def rep(self, spans, profile_dir=None) -> Rep:
        with spans.span("serve_fleet"):
            payload = self._run(policy="least-loaded", k=4, overload_x=2.7,
                                sim_s=self._sim_s, seed=23 + self.seed,
                                degraded_host=2)
        served = payload["source"]["completed"]
        balancer = payload["balancer"]
        share = balancer["shares"][self.degraded]
        return Rep(
            images=served, sim_s=self._sim_s, doc=_canonical(payload),
            values={"sim_p99_ms": payload["fleet"]["client_p99_ms"],
                    "fleet.useful_attempt_ratio":
                        served / balancer["dispatched"],
                    "fleet.degraded_share": share},
            # The host's health state at the horizon depends on the seed
            # (healthy, degraded or dead); that least-loaded routes
            # around it does not.
            checks=_fleet_checks(payload) + [
                ("least-loaded routes around the dead-FPGA host",
                 share < 0.05)])


class ChaosK4(Workload):
    name = "chaos_k4"
    why = ("gray failure (host01 swallows 80% of completions) on a K=4 "
           "fleet at 2.8x the knee: hedging, re-dispatch and ejection "
           "make the fleet layer do duplicate work")
    victim = "host01"

    def prepare(self) -> dict:
        from repro.experiments.chaos_fleet import (default_outlier,
                                                   default_recovery,
                                                   serve_chaos)
        from repro.faults import FaultPlan
        self._sim_s = sim_s = 0.3 if self.quick else 0.6
        self._plan = FaultPlan.of(
            FaultPlan.host_hang(0.3 * sim_s, sim_s, self.victim, rate=0.8),
            name="gray")
        self._recovery, self._outlier = default_recovery, default_outlier
        self._run = serve_chaos
        return {}

    def rep(self, spans, profile_dir=None) -> Rep:
        with spans.span("serve_chaos"):
            payload = self._run(plan=self._plan,
                                recovery=self._recovery(),
                                outlier=self._outlier(), k=4,
                                overload_x=2.8, sim_s=self._sim_s,
                                seed=47 + self.seed)
        flights, lb = payload["flights"], payload["lb"]
        served = flights["completed"] + flights["redispatched_completed"]
        per_1k = 1000.0 / flights["flights"]
        return Rep(
            images=served, sim_s=self._sim_s, doc=_canonical(payload),
            values={"sim_p99_ms": payload["fleet"]["client_p99_ms"],
                    "fleet.useful_attempt_ratio":
                        served / flights["attempts"],
                    "fleet.hedges_per_1k": lb["hedges"] * per_1k,
                    "fleet.redispatches_per_1k": lb["redispatches"] * per_1k,
                    "fleet.degraded_share":
                        payload["balancer"]["shares"][self.victim]},
            checks=_fleet_checks(payload))


class SweepPlan(Workload):
    name = "sweep_plan"
    why = ("6-point fig7 sweep plus a K in [1,4] capacity plan through one "
           "shared 2-worker pool: the only sweep/slo work and the only "
           "non-dlbooster backends")
    workers = 2

    def prepare(self) -> dict:
        from repro.experiments.fleet import single_host_knee
        from repro.slo.planner import PlanSpec, plan_capacity
        from repro.sweep import (effective_cores, fig7_points, run_sweep,
                                 shared_pool, shutdown_shared_pools)
        t0 = time.perf_counter()
        shared_pool(self.workers)
        pool_start_s = time.perf_counter() - t0
        self._run_sweep, self._plan_capacity = run_sweep, plan_capacity
        self._shutdown, self._cores = shutdown_shared_pools, effective_cores
        self._measure = 0.2 if self.quick else 0.3
        self._points = fig7_points(
            models=("googlenet",),
            backends=("cpu-online", "nvjpeg", "dlbooster"), batches=(4,),
            seeds=(self.seed, self.seed + 1),
            warmup_s=0.05 if self.quick else 0.2, measure_s=self._measure)
        self._spec = PlanSpec(
            rate=1.8 * single_host_knee(), p99_ms=25.0, k_min=1, k_max=4,
            seeds=(23 + self.seed, 24 + self.seed),
            sim_s=0.2 if self.quick else 0.3)
        return {"pool_start_s": pool_start_s}

    def rep(self, spans, profile_dir=None) -> Rep:
        with spans.span("run_sweep"):
            outcome = self._run_sweep(self._points, parallel=self.workers,
                                      reuse_pool=True,
                                      profile_dir=profile_dir)
        with spans.span("rollup_json"):
            rollup = outcome.rollup_json()
        # plan_capacity takes no profile_dir, so a traced rep runs it
        # in-process, where the benchmark's profiler sees its work.
        with spans.span("plan_capacity"):
            plan = self._plan_capacity(
                self._spec,
                parallel=1 if profile_dir is not None else self.workers)
        throughputs = [r["values"]["throughput"] for r in outcome.results]
        rows = [row for ev in plan.evaluated.values() for row in ev["seeds"]]
        checks = [("every sweep point serves", min(throughputs) > 0),
                  ("plan is feasible", plan.feasible),
                  ("every plan run is conserved",
                   all(row["conserved"] for row in rows))]
        if self.seed == 0 and not self.quick:
            checks.append(("recommended K == 2 at the default seed",
                           plan.recommended_k == 2))
        return Rep(
            images=(sum(throughputs) * self._measure
                    + sum(row["goodput_per_s"] * self._spec.sim_s
                          for row in rows)),
            sim_s=(len(throughputs) * self._measure
                   + len(rows) * self._spec.sim_s),
            # The rollup is compact JSON, so it is the doc's first line.
            doc=rollup + "\n" + plan.to_json(),
            values={"sweep.packing_ratio": outcome.wall_s / (
                        sum(outcome.walls) / self.workers),
                    "slo.plan_probes": len(plan.evaluated)},
            checks=checks)

    def finish(self, reps: list) -> tuple[dict, list]:
        """One serial rerun of the sweep: the serial == parallel identity
        check, and the measured parallel speed-up."""
        t0 = time.perf_counter()
        serial = self._run_sweep(self._points, parallel=1).rollup_json()
        serial_s = time.perf_counter() - t0
        parallel_s = statistics.median(r.timings["run_sweep"] for r in reps)
        values = {}
        if self._cores() >= 2:
            values["sweep.parallel_speedup"] = serial_s / parallel_s
        return values, [("serial rollup == parallel rollup",
                         serial == reps[0].doc.partition("\n")[0])]

    def close(self) -> None:
        self._shutdown()


WORKLOADS = {cls.name: cls for cls in
             (InferFig7, TrainAlexnet, FleetK4, ChaosK4, SweepPlan)}
