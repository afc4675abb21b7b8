"""Capacity planner: "what fleet serves rate R at p99 < X ms?".

The what-if layer over everything below it: candidate fleet sizes K are
evaluated by actually *running* the PR 6 fleet experiment's serving
scenario (multi-seed, fanned out through :mod:`repro.sweep`), deriving
KPIs and SLO verdicts from each run, and binary-searching the smallest
K whose every seed meets the objectives.  Feasibility is monotone in K
for an open-loop offered rate — more hosts, more capacity — which is
what makes binary search sound; every probed K is kept for the
dashboard's per-K table either way.

Everything in the plan document is a deterministic function of
``(spec, seeds)`` — simulated results only, no wall-clock — so the
emitted dashboard (markdown + JSON) is byte-identical across reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..fleet import ROUTING_POLICIES
from .kpis import HostShape, kpi_json

__all__ = ["PlanSpec", "CapacityPlan", "evaluate_k", "plan_capacity",
           "render_dashboard"]


@dataclass(frozen=True)
class PlanSpec:
    """The question: serve ``rate`` img/s with client-perceived p99
    under ``p99_ms``, inside the availability error budget.

    A bad value raises ``ValueError`` here, before any simulation runs.
    """

    rate: float                       # offered load, img/s
    p99_ms: float                     # client-perceived p99 target
    availability: float = 0.99        # availability SLO target
    latency_target: float = 0.99      # fraction required under deadline
    k_min: int = 1
    k_max: int = 8
    seeds: tuple = (23,)
    sim_s: float = 1.0
    policy: str = "least-loaded"

    def __post_init__(self):
        for name in ("rate", "p99_ms", "sim_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be finite and > 0, got {value!r}")
        for name in ("availability", "latency_target"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got "
                                 f"{getattr(self, name)!r}")
        if self.k_min < 1 or self.k_max < self.k_min:
            raise ValueError(f"need 1 <= k_min <= k_max, got "
                             f"[{self.k_min}, {self.k_max}]")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.policy not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing policy {self.policy!r}; "
                             f"choose from {ROUTING_POLICIES}")

    def to_doc(self) -> dict:
        return {"rate": self.rate, "p99_ms": self.p99_ms,
                "availability": self.availability,
                "latency_target": self.latency_target,
                "k_min": self.k_min, "k_max": self.k_max,
                "seeds": list(self.seeds), "sim_s": self.sim_s,
                "policy": self.policy}


def _seed_row(seed: Optional[int], payload: dict, spec: PlanSpec) -> dict:
    """Distill one fleet run into the planner's per-seed verdict row."""
    kpi = payload["kpi"]
    slo = payload.get("slo") or {}
    traffic, latency = kpi["traffic"], kpi["latency"]
    client_p99 = latency["client_p99_ms"]
    verdicts = {obj["name"]: obj for obj in slo.get("objectives", [])}
    availability_ok = all(
        obj["met"] for obj in verdicts.values()
        if obj["kind"] == "availability") if verdicts else (
            traffic["failure_pct"] <= 100.0 * (1.0 - spec.availability))
    p99_ok = client_p99 is not None and client_p99 <= spec.p99_ms
    cost = kpi.get("cost") or {}
    return {
        "seed": seed,
        "feasible": bool(p99_ok and availability_ok
                         and traffic["conserved"]),
        "client_p99_ms": client_p99,
        "goodput_per_s": traffic["goodput_per_s"],
        "shed_pct": traffic["shed_pct"],
        "failure_pct": traffic["failure_pct"],
        "conserved": traffic["conserved"],
        "cost_per_million_images": cost.get("cost_per_million_images"),
        "slo": [{key: obj[key] for key in
                 ("name", "kind", "met", "bad_frac", "budget_consumed",
                  "alerts")}
                for obj in (verdicts[name] for name in sorted(verdicts))],
        "alert_log": slo.get("alert_log", []),
    }


def evaluate_k(k: int, spec: PlanSpec, knee: float,
               parallel: int = 1) -> dict:
    """Run the fleet scenario at size ``k`` for every seed (through the
    sweep runner, so seeds fan out to workers) and fold the verdicts."""
    from ..sweep import SweepPoint, run_sweep
    config = {
        "policy": spec.policy, "k": k,
        "overload_x": spec.rate / knee,
        "sim_s": spec.sim_s, "degraded_host": None,
        "slo": {"availability": spec.availability,
                "latency_target": spec.latency_target},
    }
    points = [SweepPoint(runner="fleet_serve", config=config, seed=seed,
                         label=f"k{k}/s{seed}")
              for seed in spec.seeds]
    # reuse_pool: the planner probes many k values in a search loop —
    # the shared warm pool amortizes worker startup across probes.
    outcome = run_sweep(points, parallel=min(parallel, len(points)),
                        reuse_pool=parallel > 1)
    rows = [_seed_row(seed, result["values"], spec)
            for seed, result in zip(spec.seeds, outcome.results)]
    worst_p99 = None
    p99s = [row["client_p99_ms"] for row in rows
            if row["client_p99_ms"] is not None]
    if len(p99s) == len(rows) and p99s:
        worst_p99 = max(p99s)
    goodputs = [row["goodput_per_s"] for row in rows
                if row["goodput_per_s"] is not None]
    costs = [row["cost_per_million_images"] for row in rows
             if row["cost_per_million_images"] is not None]
    return {
        "k": k,
        "feasible": all(row["feasible"] for row in rows),
        "worst_client_p99_ms": worst_p99,
        "mean_goodput_per_s": (sum(goodputs) / len(goodputs)
                               if goodputs else None),
        "mean_cost_per_million_images": (sum(costs) / len(costs)
                                         if costs else None),
        "seeds": rows,
    }


@dataclass
class CapacityPlan:
    """A finished what-if plan: every probed K plus the recommendation."""

    spec: PlanSpec
    knee: float                        # single-host capacity, img/s
    host_shape: HostShape
    evaluated: dict[int, dict] = field(default_factory=dict)
    recommended_k: Optional[int] = None

    @property
    def feasible(self) -> bool:
        return self.recommended_k is not None

    @property
    def headroom(self) -> Optional[float]:
        """Analytic capacity of the recommended fleet over the offered
        rate — how much growth the recommendation absorbs before the
        next resize."""
        if self.recommended_k is None:
            return None
        return self.recommended_k * self.knee / self.spec.rate

    def to_doc(self) -> dict:
        return {
            "schema": "repro-capacity/1",
            "spec": self.spec.to_doc(),
            "single_host_knee_per_s": self.knee,
            "host_shape": {"cpu_cores": self.host_shape.cpu_cores,
                           "num_fpgas": self.host_shape.num_fpgas,
                           "num_gpus": self.host_shape.num_gpus},
            "evaluated": [self.evaluated[k]
                          for k in sorted(self.evaluated)],
            "recommended_k": self.recommended_k,
            "feasible": self.feasible,
            "headroom": self.headroom,
        }

    def to_json(self) -> str:
        return kpi_json(self.to_doc())


def plan_capacity(spec: PlanSpec, parallel: int = 1,
                  progress=None) -> CapacityPlan:
    """Binary-search the smallest feasible fleet size in
    ``[spec.k_min, spec.k_max]``.

    ``progress`` (optional) is called with a line of text per probed K —
    the CLI's live narration; library callers leave it None.
    """
    from ..experiments.fleet import HOST_CORES, single_host_knee
    knee = single_host_knee()
    plan = CapacityPlan(spec=spec, knee=knee,
                        host_shape=HostShape(cpu_cores=HOST_CORES))

    def probe(k: int) -> bool:
        if k not in plan.evaluated:
            plan.evaluated[k] = evaluate_k(k, spec, knee,
                                           parallel=parallel)
            if progress is not None:
                ev = plan.evaluated[k]
                word = "feasible" if ev["feasible"] else "NOT feasible"
                p99 = ev["worst_client_p99_ms"]
                detail = (f"worst client p99 {p99:.1f} ms"
                          if p99 is not None else "no latency samples")
                progress(f"K={k}: {word} ({detail})")
        return plan.evaluated[k]["feasible"]

    if probe(spec.k_max):
        lo, hi = spec.k_min, spec.k_max
        while lo < hi:
            mid = (lo + hi) // 2
            if probe(mid):
                hi = mid
            else:
                lo = mid + 1
        plan.recommended_k = hi
    return plan


def _fmt(value, pattern="{:.1f}", missing="-") -> str:
    return pattern.format(value) if value is not None else missing


def render_dashboard(plan: CapacityPlan) -> str:
    """The markdown dashboard: spec, per-K KPI/SLO table, the
    recommended K's alert timeline, and the recommendation."""
    spec = plan.spec
    lines = [
        "# Capacity plan",
        "",
        f"Serve **{spec.rate:,.0f} img/s** with client-perceived "
        f"p99 < **{spec.p99_ms:g} ms** at "
        f"**{spec.availability:.2%}** availability "
        f"({spec.policy} routing, {len(spec.seeds)} seed(s), "
        f"{spec.sim_s:g}s horizon; single-host knee "
        f"{plan.knee:,.0f} img/s).",
        "",
        "## Per-K evaluation",
        "",
        "| K | goodput/s | shed % | worst client p99 ms | "
        "SLOs met | alerts | $/M images | verdict |",
        "|---|-----------|--------|---------------------|"
        "----------|--------|------------|---------|",
    ]
    for k in sorted(plan.evaluated):
        ev = plan.evaluated[k]
        slos_met = sum(1 for row in ev["seeds"]
                       for obj in row["slo"] if obj["met"])
        slos_all = sum(len(row["slo"]) for row in ev["seeds"])
        alerts = sum(obj["alerts"] for row in ev["seeds"]
                     for obj in row["slo"])
        lines.append(
            f"| {k} | {_fmt(ev['mean_goodput_per_s'], '{:,.0f}')} "
            f"| {_fmt(ev['seeds'][0]['shed_pct'])} "
            f"| {_fmt(ev['worst_client_p99_ms'])} "
            f"| {slos_met}/{slos_all} | {alerts} "
            f"| {_fmt(ev['mean_cost_per_million_images'], '{:.2f}')} "
            f"| {'PASS' if ev['feasible'] else 'fail'} |")
    lines.append("")
    if plan.recommended_k is not None:
        rec = plan.evaluated[plan.recommended_k]
        lines += [
            "## Recommendation",
            "",
            f"**K = {plan.recommended_k}** hosts "
            f"(headroom {plan.headroom:.2f}x: fleet knee "
            f"{plan.recommended_k * plan.knee:,.0f} img/s vs "
            f"{spec.rate:,.0f} offered); worst client p99 "
            f"{_fmt(rec['worst_client_p99_ms'])} ms, mean cost "
            f"{_fmt(rec['mean_cost_per_million_images'], '{:.2f}')} "
            "$/M images.",
            "",
            "## Alert timeline (recommended K)",
            "",
        ]
        timeline = [entry for row in rec["seeds"]
                    for entry in row["alert_log"]]
        if timeline:
            lines.append("| t (s) | SLO | rule | event | "
                         "burn fast | burn slow |")
            lines.append("|-------|-----|------|-------|"
                         "-----------|-----------|")
            for t, slo, rule, kind, fast, slow in timeline:
                lines.append(f"| {t:.3f} | {slo} | {rule} | {kind} "
                             f"| {fast:.1f} | {slow:.1f} |")
        else:
            lines.append("No burn-rate alerts fired at the "
                         "recommended size.")
    else:
        lines += [
            "## Recommendation",
            "",
            f"**Infeasible**: no K in [{spec.k_min}, {spec.k_max}] "
            "meets the objectives — raise k_max, relax the SLOs, or "
            "shed the excess.",
        ]
    lines.append("")
    return "\n".join(lines)
