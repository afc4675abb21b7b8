"""Fleet — K-host serving: graceful degradation, routing A/B, autoscaling.

The paper serves from one host; this experiment asks what its stack
does as a *fleet*.  K complete serving pipelines (NIC -> FPGA decode ->
dispatcher -> GPU, each supervised with the overload experiment's 25 ms
deadline) run inside one Environment behind a LoadBalancer, driven by
an open-loop arrival process well beyond any single host's knee.

Three claims are encoded as shape checks:

* **graceful degradation** — with one host's FPGA dead (decoder crash
  -> circuit breaker; probe cmds into the dark FPGA pin staging
  buffers, so the host black-holes most of its share) and offered load
  at 3x the single-host knee, the fleet keeps the p99 of served
  traffic bounded near the deadline and sheds the excess instead of
  collapsing;
* **routing matters** — least-loaded routing beats round-robin on
  *client-perceived* p99 (failed/shed requests counted at the
  deadline) when the client mix is skewed and one host is degraded:
  round-robin keeps feeding the sick host its full 1/K share — which
  flatters served-only percentiles precisely because that traffic
  never returns a sample — while least-loaded watches in-flight load
  and routes around it;
* **autoscaling** — a surge beyond the active fleet's capacity makes
  the autoscaler add hosts (sustained backlog/shed/p99-burn), and the
  post-surge lull drains them back, with conservation holding across
  every resize.

A same-seed rerun of the A/B phase must produce byte-identical
payloads — the fleet inherits the simulator's determinism.

Every fleet run, here and in :mod:`.chaos_fleet`, is one validated
:class:`Scenario` handed to :func:`serve`; ``serve_fleet`` and
``serve_autoscale`` are its :data:`FLEET` and :data:`AUTOSCALE` presets.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Optional, Union

from ..calib import DEFAULT_TESTBED, INFER_MODELS
from ..engines import inference_batch_seconds
from ..faults import FaultPlan, RetryPolicy
from ..fleet import (ROUTING_POLICIES, Autoscaler, AutoscalerConfig,
                     FleetChaos, Host, HostConfig, HealthView, LoadBalancer,
                     OpenLoopSource, OutlierConfig, RecoveryConfig,
                     fleet_rollup, make_policy, render_rollup)
from ..sim import Environment, SeedBank
from ..slo import (HostShape, SLOEvaluator, default_rules,
                   default_serving_slos, kpis_from_rollup)
from ..supervision import SupervisionConfig
from ..telemetry import MetricsRegistry
from .report import Report, timed

__all__ = ["run", "Scenario", "serve", "FLEET", "AUTOSCALE", "serve_fleet",
           "serve_autoscale", "single_host_knee"]

MODEL = "googlenet"
BATCH_SIZE = 4
# Per-host budget from the overload experiment: 25 ms deadline, ~15 ms
# of which is in-pipeline time at saturation (the admission margin).
DEADLINE_S = 0.025
MARGIN_S = 0.015
# Slim serving boxes: 8 cores per host, so a breaker-open host's CPU
# failover path (~300 img/s/core) cannot absorb a full round-robin
# share — degradation is real, not cosmetic.
HOST_CORES = 8
_SLO_KEYS = ("availability", "latency_target", "period_s")


def single_host_knee() -> float:
    """Analytic single-host capacity (img/s): 1 GPU at BATCH_SIZE."""
    spec = INFER_MODELS[MODEL]
    return BATCH_SIZE / inference_batch_seconds(spec, BATCH_SIZE)


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class Scenario:
    """Everything one fleet run depends on.

    K supervised hosts behind a ``policy`` balancer take open-loop
    arrivals at ``overload_x`` times the single-host knee from
    ``num_clients`` Zipf(``skew``) clients for ``sim_s`` seconds.  The
    optional parts are off when ``None``/``False``:

    * ``degraded_host`` — this host's FPGA is dead all run;
    * ``plan`` — a fleet fault plan armed through ``FleetChaos``;
      ``recovery`` and ``outlier`` configure re-dispatch/hedging and
      outlier ejection;
    * ``kmax`` — an autoscaler resizes the fleet between ``k`` and
      ``kmax`` hosts;
    * ``surge=(at, until, x)`` — the arrival rate is ``x`` knees over
      ``[at, until)``;
    * ``with_registry`` — a metrics registry snapshot lands in the
      payload;
    * ``slo`` — arms the observation-only in-sim SLO evaluator:
      ``True`` for the default availability + latency objectives at the
      serving deadline, or a dict of overrides (``availability`` /
      ``latency_target`` targets, ``period_s`` tick period).

    A bad value raises ``ValueError`` here, before any simulation
    exists.
    """

    k: int = 4
    policy: str = "least-loaded"
    overload_x: float = 1.0
    sim_s: float = 1.0
    seed: int = 0
    skew: float = 0.0
    num_clients: int = 32
    degraded_host: Optional[int] = None
    plan: Optional[FaultPlan] = None
    recovery: Optional[RecoveryConfig] = None
    outlier: Optional[OutlierConfig] = None
    kmax: Optional[int] = None
    surge: Optional[tuple[float, float, float]] = None
    with_registry: bool = False
    slo: Union[bool, dict] = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.policy not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing policy {self.policy!r}; "
                             f"choose from {ROUTING_POLICIES}")
        for name in ("overload_x", "sim_s"):
            if not _positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and > 0, got "
                                 f"{getattr(self, name)!r}")
        if not math.isfinite(self.skew):
            raise ValueError(f"skew must be finite, got {self.skew!r}")
        if self.num_clients < 1:
            raise ValueError(
                f"num_clients must be >= 1, got {self.num_clients}")
        if self.degraded_host is not None \
                and not 0 <= self.degraded_host < self.k:
            raise ValueError(f"degraded_host must be in [0, {self.k}), "
                             f"got {self.degraded_host}")
        if self.kmax is not None and self.kmax < self.k:
            raise ValueError(
                f"kmax must be >= k={self.k}, got {self.kmax}")
        if self.surge is not None:
            at, until, x = self.surge
            if not (0 <= at < until <= self.sim_s and _positive(x)):
                raise ValueError(
                    f"surge (at, until, x) needs 0 <= at < until <= "
                    f"sim_s={self.sim_s} and a finite x > 0, got "
                    f"{self.surge!r}")
        if isinstance(self.slo, dict):
            unknown = sorted(set(self.slo) - set(_SLO_KEYS))
            if unknown:
                raise ValueError(f"unknown slo keys {unknown}; "
                                 f"choose from {_SLO_KEYS}")


# Presets: the scenario shapes the fleet study runs.  ``FLEET`` has one
# dead FPGA (host02) under a skewed client mix at 3x the knee;
# ``AUTOSCALE`` starts at 2 hosts and surges from 1.2 to 3.4 knees.
FLEET = Scenario(policy="round-robin", overload_x=3.0, sim_s=2.0, seed=23,
                 skew=1.2, degraded_host=2)
AUTOSCALE = Scenario(k=2, overload_x=1.2, sim_s=2.6, seed=31,
                     num_clients=16, kmax=6, surge=(0.5, 1.5, 3.4))


def _make_host(env: Environment, bank: SeedBank, index: int,
               degraded: bool = False) -> Host:
    """One supervised serving host in zone ``az{index % 2}``;
    ``degraded`` kills its FPGA for the whole run (the breaker opens and
    CPU failover carries it)."""
    plan = retry = None
    if degraded:
        plan = FaultPlan.of(
            FaultPlan.decoder_crash(0.0, math.inf, site="fpga0"),
            name="dead-fpga")
        retry = RetryPolicy(max_attempts=2)
    namespace = f"host{index:02d}"
    cfg = HostConfig(
        model=MODEL, backend="dlbooster", batch_size=BATCH_SIZE,
        cpu_cores=HOST_CORES, zone=f"az{index % 2}",
        supervision=SupervisionConfig(deadline_s=DEADLINE_S,
                                      admission_margin_s=MARGIN_S),
        fault_plan=plan, retry=retry)
    return Host(env, cfg, seeds=bank.spawn(namespace), namespace=namespace)


def _surge(env: Environment, source: OpenLoopSource, knee: float,
           scenario: Scenario):
    at, until, x = scenario.surge
    yield env.timeout(at)
    source.set_rate(x * knee)
    yield env.timeout(until - at)
    source.set_rate(scenario.overload_x * knee)


def serve(scenario: Scenario) -> dict:
    """Run one fleet scenario.  Returns the fleet rollup payload with an
    attached ``repro-kpi/1`` section, plus ``autoscaler`` (with
    ``kmax``) and ``slo`` (with ``slo``) sections.

    ``plan=None`` runs the unarmed path (no FleetChaos object at all);
    an empty plan arms a controller that immediately reports inactive —
    the two are byte-identical.
    """
    s = scenario
    env = Environment()
    bank = SeedBank(s.seed)
    knee = single_host_knee()
    registry = MetricsRegistry(name=f"fleet.{s.policy}") \
        if s.with_registry else None

    def make_host(index: int) -> Host:
        return _make_host(env, bank, index,
                          degraded=(index == s.degraded_host))

    with registry.installed() if registry is not None else nullcontext():
        hosts = []
        for i in range(s.k):
            host = make_host(i)
            host.start()
            hosts.append(host)
        chaos = None
        if s.plan is not None:
            chaos = FleetChaos(env, s.plan, seeds=bank.spawn("chaos"))
        balancer = LoadBalancer(
            env, hosts, make_policy(s.policy, rng=bank.stream("policy")),
            chaos=chaos, recovery=s.recovery)
        health = HealthView(env, balancer, outlier=s.outlier)
        balancer.attach_health(health)
        health.start()
        scaler = None
        if s.kmax is not None:
            scaler = Autoscaler(
                env, balancer, host_factory=make_host,
                config=AutoscalerConfig(min_hosts=s.k, max_hosts=s.kmax),
                deadline_s=DEADLINE_S)
            scaler.start()
        source = OpenLoopSource(
            env, balancer, rate=s.overload_x * knee,
            image_hw=DEFAULT_TESTBED.client_image_hw,
            rng=bank.stream("arrivals"), num_clients=s.num_clients,
            skew=s.skew, deadline_s=DEADLINE_S)
        source.start()
        if s.surge is not None:
            env.process(_surge(env, source, knee, s), name="surge-schedule")
    evaluator = None
    if s.slo:
        opts = dict(s.slo) if isinstance(s.slo, dict) else {}
        period_s = opts.pop("period_s", s.sim_s / 40.0)
        evaluator = SLOEvaluator(
            env, default_serving_slos(DEADLINE_S, **opts),
            rules=default_rules(s.sim_s), period_s=period_s)
        evaluator.attach_source(source)
        evaluator.start()
    if scaler is None:
        env.run(until=s.sim_s)
    else:
        # Step the horizon so the peak fleet size is sampled every 0.1 s.
        peak_active = s.k
        horizon = 0.0
        while horizon < s.sim_s:
            horizon = min(horizon + 0.1, s.sim_s)
            env.run(until=horizon)
            peak_active = max(peak_active, len(balancer.active_hosts()))
    health.update()   # final classification at the horizon
    # No extra deadline sweep at the horizon: a reap scheduled outside
    # env.run() would count outcomes whose done-callbacks never execute.
    # Flights past deadline but not yet swept stay ``open`` — conserved
    # either way.
    payload = fleet_rollup(balancer.hosts, balancer=balancer, source=source,
                           health=health, registry=registry,
                           deadline_s=DEADLINE_S, chaos=chaos)
    if scaler is not None:
        payload["autoscaler"] = {
            "events": [list(e) for e in scaler.events],
            "adds": len(scaler.additions()),
            "drains": len(scaler.drains()),
            "peak_active": peak_active,
            "final_active": len(balancer.active_hosts()),
        }
    payload["kpi"] = kpis_from_rollup(
        payload, window_s=s.sim_s, shape=HostShape(cpu_cores=HOST_CORES))
    if evaluator is not None:
        payload["slo"] = evaluator.payload()
    return payload


def serve_fleet(**overrides) -> dict:
    """The :data:`FLEET` scenario with ``overrides`` (Scenario fields)."""
    return serve(replace(FLEET, **overrides))


def serve_autoscale(**overrides) -> dict:
    """Surge-and-recover: the :data:`AUTOSCALE` scenario with
    ``overrides``; the payload's ``autoscaler`` section logs every
    resize."""
    return serve(replace(AUTOSCALE, **overrides))


def _fleet_row(report: Report, label: str, payload: dict,
               degraded: str) -> None:
    fleet = payload["fleet"]
    share = payload["balancer"]["shares"].get(degraded, 0.0)
    report.add_row(
        label, fleet["active_hosts"], int(payload["source"]["sent"]),
        fleet["completed"], fleet["client_failures"],
        fleet["p99_ms"] if fleet["p99_ms"] is not None else float("nan"),
        fleet["client_p99_ms"]
        if fleet["client_p99_ms"] is not None else float("nan"),
        f"{share:.1%}",
        "yes" if (fleet["conserved"] and payload["balancer"]["conserved"]
                  and payload["source"]["conserved"]) else "NO")


@timed
def run(quick: bool = False, parallel: int = 1) -> Report:
    """Fleet serving: degradation, routing A/B, autoscaler surge."""
    from ..sweep import SweepPoint, run_sweep
    k = 3 if quick else 4
    sim_s = 1.0 if quick else 2.0
    # A/B point: the K-1 healthy hosts can serve the whole offered load
    # at 90% utilization *if* routing steers around the dark host —
    # least-loaded has real headroom to win, round-robin blind-feeds
    # the black hole its full 1/K share.
    ab_x = 0.9 * (k - 1)
    # Stress point for graceful degradation: 0.75 knee per host nominal
    # (3.0x the single-host knee at K=4) — beyond the K-1 healthy
    # hosts' aggregate capacity, so shedding *must* absorb the excess.
    stress_x = 0.75 * k
    degraded = f"host{min(2, k - 1):02d}"
    report = Report(
        experiment_id="fleet",
        title=f"Multi-host serving: {k} supervised DLBooster hosts "
              f"({MODEL}, bs={BATCH_SIZE}), one dead FPGA, open-loop "
              f"arrivals up to {stress_x:.2f}x the single-host knee",
        columns=["scenario", "hosts", "sent", "served", "failed",
                 "p99 ms", "client p99", "to-degraded", "conserved"])

    common = dict(k=k, sim_s=sim_s, degraded_host=min(2, k - 1))
    rr_cfg = dict(policy="round-robin", overload_x=ab_x,
                  with_registry=True, **common)
    # The full profile runs the AUTOSCALE preset as it stands.
    surge_cfg = dict(sim_s=1.6, surge=(0.4, 0.9, 3.4)) if quick else {}
    points = [
        SweepPoint(runner="fleet_serve", config=rr_cfg, label="rr"),
        SweepPoint(runner="fleet_serve", label="ll", config=dict(
            policy="least-loaded", overload_x=ab_x, with_registry=True,
            **common)),
        SweepPoint(runner="fleet_serve", label="stress", config=dict(
            policy="least-loaded", overload_x=stress_x, **common)),
        SweepPoint(runner="fleet_autoscale", config=surge_cfg,
                   label="surge"),
        # Determinism fingerprint: the A/B phase replayed end-to-end.
        SweepPoint(runner="fleet_serve", config=dict(rr_cfg), label="rr2"),
    ]
    rr, ll, stress, surge, rr2 = (
        res["values"]
        for res in run_sweep(points, parallel=parallel).results)
    report.kpis = {"round-robin": rr["kpi"], "least-loaded": ll["kpi"],
                   "stress": stress["kpi"],
                   "autoscale-surge": surge["kpi"]}
    _fleet_row(report, f"round-robin @{ab_x:.1f}x", rr, degraded)
    _fleet_row(report, f"least-loaded @{ab_x:.1f}x", ll, degraded)
    _fleet_row(report, f"degraded @{stress_x:.2f}x", stress, degraded)
    auto = surge["autoscaler"]
    _fleet_row(report, "autoscale surge",
               surge, "host99")   # no degraded host in this phase

    report.notes.append(
        f"single-host knee {single_host_knee():,.0f} img/s; deadline "
        f"{DEADLINE_S * 1e3:.0f} ms with {MARGIN_S * 1e3:.0f} ms "
        f"admission margin; degraded host = {degraded} (FPGA dark all "
        f"run, circuit breaker -> CPU failover on "
        f"{HOST_CORES} cores)")
    report.notes.append("per-host / fleet latency rollup (least-loaded):")
    for line in render_rollup(ll).splitlines():
        report.notes.append(line)
    report.notes.append(
        f"autoscaler: peak {auto['peak_active']} active, final "
        f"{auto['final_active']}; events: "
        + "; ".join(f"t={t:.2f}s {what} {host}"
                    for t, what, host, _ in auto["events"]))

    offered = rr["source"]["sent"]
    report.check(
        "degraded fleet stays conserved under every scenario",
        all(p["fleet"]["conserved"] and p["balancer"]["conserved"]
            and p["source"]["conserved"] for p in (rr, ll, stress)))
    report.check(
        f"graceful degradation at {stress_x:.2f}x knee: served p99 "
        "stays bounded near the deadline while the excess is shed",
        stress["fleet"]["p99_ms"] <= 2.0 * DEADLINE_S * 1e3
        and stress["fleet"]["client_failures"] > 0
        and stress["fleet"]["completed"] > 0,
        f"p99 {stress['fleet']['p99_ms']:.1f} ms vs deadline "
        f"{DEADLINE_S * 1e3:.0f} ms; served "
        f"{stress['fleet']['completed']}, turned away "
        f"{stress['fleet']['client_failures']}")
    report.check(
        "health view marks the dead-FPGA host degraded (breaker open)",
        rr["health"].get(degraded) == "degraded"
        and ll["health"].get(degraded) == "degraded",
        f"rr={rr['health'].get(degraded)}, ll={ll['health'].get(degraded)}")
    report.check(
        "least-loaded routes around the degraded host "
        "(smaller traffic share than round-robin's blind 1/K)",
        ll["balancer"]["shares"][degraded]
        < 0.8 * rr["balancer"]["shares"][degraded],
        f"share to {degraded}: ll "
        f"{ll['balancer']['shares'][degraded]:.1%} vs rr "
        f"{rr['balancer']['shares'][degraded]:.1%}")
    report.check(
        "least-loaded beats round-robin on client-perceived fleet p99 "
        "(failed/shed requests counted at the deadline)",
        ll["fleet"]["client_p99_ms"] < rr["fleet"]["client_p99_ms"],
        f"client p99 ll={ll['fleet']['client_p99_ms']:.1f} vs "
        f"rr={rr['fleet']['client_p99_ms']:.1f} ms")
    report.check(
        "least-loaded turns away far fewer requests than round-robin",
        ll["fleet"]["client_failures"]
        < 0.2 * rr["fleet"]["client_failures"],
        f"failures ll={ll['fleet']['client_failures']} vs "
        f"rr={rr['fleet']['client_failures']} of {offered} offered")
    report.check(
        "autoscaler adds capacity during the surge and drains it after",
        auto["adds"] >= 1 and auto["drains"] >= 1
        and auto["peak_active"] > 2 and auto["final_active"]
        < auto["peak_active"],
        f"adds={auto['adds']} drains={auto['drains']} "
        f"peak={auto['peak_active']} final={auto['final_active']}")
    report.check(
        "fleet under autoscaling stays conserved with bounded p99",
        surge["fleet"]["conserved"] and surge["source"]["conserved"]
        and surge["fleet"]["p99_ms"] <= 2.0 * DEADLINE_S * 1e3,
        f"p99 {surge['fleet']['p99_ms']:.1f} ms")
    report.check(
        "same-seed rerun is byte-identical (deterministic fleet)",
        json.dumps(rr, sort_keys=True, default=str)
        == json.dumps(rr2, sort_keys=True, default=str))
    return report
