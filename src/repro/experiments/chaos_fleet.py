"""Chaos fleet — fleet-scope faults vs. the recovery machinery.

PR 6's fleet degrades gracefully under *load*; this experiment asks
what it does under *faults*.  Fleet-site fault kinds (armed through
:class:`~repro.fleet.chaos.FleetChaos` from per-host-namespaced seed
streams) hit a K-host fleet at the knee, with and without the recovery
machinery — outlier ejection, in-flight re-dispatch, deadline-aware
hedging, all gated by one token-bucket retry budget:

* **host crash at the knee** — 1 of K hosts dies mid-run with work in
  flight.  With recovery ON, the HealthView marks it dead, stranded
  requests are re-dispatched within their deadlines, and the client
  p99 stays bounded; with recovery OFF the same crash black-holes the
  stranded requests until the deadline sweep expires them — the
  difference is the value of the machinery, measured on the same seed.
* **link partition** — the LB->host dispatch path drops for a window;
  budgeted alternate retries absorb it.
* **gray failure** — a host keeps admitting but swallows most
  completions (``host_hang``).  Supervisor-derived health can't see it
  (the host looks busy and healthy from the inside); balancer-side
  outlier ejection from client-observed EWMAs is what catches it.

Every scenario must conserve requests *exactly* under the duplicate
accounting (``flights == completed + redispatched_completed + expired
+ shed + failed + rejected + open``), and a same-seed rerun of both
crash arms must be byte-identical.  Arming chaos with an **empty**
fleet plan must also be byte-identical to not arming it at all — the
hooks are zero-cost.
"""

from __future__ import annotations

import json
from dataclasses import replace

from ..faults import FaultPlan
from ..fleet import OutlierConfig, RecoveryConfig
from .fleet import DEADLINE_S, Scenario, serve, single_host_knee
from .report import Report, timed

__all__ = ["run", "CHAOS", "serve_chaos", "default_recovery",
           "default_outlier"]

# The chaos study's fleet: K=4 healthy least-loaded hosts at 2.8x the
# knee, 32 unskewed clients.  Arm it with ``plan``/``recovery``/
# ``outlier`` overrides.
CHAOS = Scenario(overload_x=2.8, sim_s=1.5, seed=47)


def default_recovery() -> RecoveryConfig:
    """Recovery settings used by the study: re-dispatch + hedging on, a
    generous-but-finite retry budget (2,000 tokens/s, burst 200)."""
    return RecoveryConfig(redispatch=True, hedging=True,
                          budget_rate_per_s=2000.0, budget_burst=200.0)


def default_outlier() -> OutlierConfig:
    """Outlier-ejection settings with the latency gate tied to the
    study's 25 ms client deadline."""
    return OutlierConfig(deadline_s=DEADLINE_S)


def serve_chaos(**overrides) -> dict:
    """The :data:`CHAOS` scenario with ``overrides`` (Scenario fields)."""
    return serve(replace(CHAOS, **overrides))


def _conserved(payload: dict) -> bool:
    ok = (payload["fleet"]["conserved"]
          and payload["balancer"]["conserved"]
          and payload["source"]["conserved"])
    flights = payload.get("flights")
    if flights is not None:
        ok = ok and flights["request_ledger_ok"] \
            and flights["attempt_ledger_ok"]
    return ok


def _row(report: Report, label: str, payload: dict) -> None:
    fleet = payload["fleet"]
    flights = payload.get("flights", {})
    lb = payload.get("lb", {})
    report.add_row(
        label, int(payload["source"]["sent"]),
        fleet["completed"] if not flights
        else flights.get("completed", 0)
        + flights.get("redispatched_completed", 0),
        fleet["client_failures"],
        flights.get("blackholed", 0),
        lb.get("redispatches", 0), lb.get("hedges", 0),
        lb.get("retries", 0),
        fleet["client_p99_ms"]
        if fleet["client_p99_ms"] is not None else float("nan"),
        "yes" if _conserved(payload) else "NO")


@timed
def run(quick: bool = False, parallel: int = 1) -> Report:
    """Fleet chaos: crash/partition/gray-failure vs recovery on/off."""
    from ..sweep import SweepPoint, run_sweep
    k = 3 if quick else 4
    sim_s = 1.0 if quick else 1.5
    # The knee point: offered load sized so the K-1 survivors can just
    # about absorb a crash (~0.93 knee per survivor) — recovery has
    # real headroom to matter, and its absence really black-holes.
    x = 0.7 * k
    crash_at = 0.4 * sim_s
    victim = "host01"
    report = Report(
        experiment_id="chaos_fleet",
        title=f"Fleet chaos: {k} hosts at {x:.1f}x the single-host "
              f"knee — host crash, link partition and gray failure "
              f"vs. ejection + re-dispatch + hedging",
        columns=["scenario", "sent", "served", "failed", "blackholed",
                 "redisp", "hedges", "retries", "client p99",
                 "conserved"])

    common = dict(k=k, overload_x=x, sim_s=sim_s)

    # -- host crash at the knee: recovery on vs off, same seed ----------
    # Re-dispatch only: at the knee the survivors have no headroom for
    # speculative duplicates (hedging is for the gray/partition arms,
    # where slow completions — not capacity — are the bottleneck).
    crash_recovery = RecoveryConfig(
        redispatch=True, hedging=False,
        budget_rate_per_s=2000.0, budget_burst=200.0)
    crash_plan = FaultPlan.of(FaultPlan.host_crash(crash_at, victim),
                              name="crash")
    part_plan = FaultPlan.of(
        FaultPlan.link_partition(0.3 * sim_s, 0.7 * sim_s, "host02"),
        name="partition")
    gray_plan = FaultPlan.of(
        FaultPlan.host_hang(0.3 * sim_s, sim_s, victim, rate=0.8),
        name="gray")
    scenarios = [
        # host crash at the knee: recovery on vs off, same seed
        ("crash-on", dict(plan=crash_plan, recovery=crash_recovery,
                          outlier=default_outlier(), **common)),
        ("crash-off", dict(plan=crash_plan, recovery=None, **common)),
        # link partition
        ("partition", dict(plan=part_plan, recovery=default_recovery(),
                           outlier=default_outlier(), **common)),
        # gray failure: ejection on vs off
        ("gray-on", dict(plan=gray_plan, recovery=default_recovery(),
                         outlier=default_outlier(), **common)),
        ("gray-off", dict(plan=gray_plan, recovery=default_recovery(),
                          outlier=None, **common)),
        # replays of both crash arms (byte-identity fingerprints)
        ("crash-on-2", dict(plan=crash_plan, recovery=crash_recovery,
                            outlier=default_outlier(), **common)),
        ("crash-off-2", dict(plan=crash_plan, recovery=None, **common)),
        # zero-cost hooks: empty plan vs no chaos object at all
        ("empty", dict(plan=FaultPlan.of(name="empty"), **common)),
        ("unarmed", dict(plan=None, **common)),
    ]
    points = [SweepPoint(runner="chaos_serve", config=config, label=label)
              for label, config in scenarios]
    (on, off, part, gray_on, gray_off, on2, off2, empty, unarmed) = (
        res["values"]
        for res in run_sweep(points, parallel=parallel).results)
    report.kpis = {"crash-on": on["kpi"], "crash-off": off["kpi"],
                   "partition": part["kpi"], "gray-on": gray_on["kpi"],
                   "gray-off": gray_off["kpi"]}
    _row(report, f"crash {victim}, recovery ON", on)
    _row(report, f"crash {victim}, recovery OFF", off)
    _row(report, "partition host02", part)
    _row(report, "gray-failure, ejection ON", gray_on)
    _row(report, "gray-failure, ejection OFF", gray_off)

    flights_on = on["flights"]
    report.notes.append(
        f"single-host knee {single_host_knee():,.0f} img/s; deadline "
        f"{DEADLINE_S * 1e3:.0f} ms; crash of {victim} at "
        f"t={crash_at:.2f}s with recovery budget "
        f"{default_recovery().budget_rate_per_s:,.0f} tok/s")
    report.notes.append(
        f"recovery ON crash arm: {flights_on['blackholed']} completions "
        f"black-holed, {flights_on['stranded_reclaimed']} stranded "
        f"attempts reclaimed, {flights_on['cancelled_duplicates']} "
        f"duplicates cancelled, {on['lb']['redispatches']} re-dispatches,"
        f" {on['lb']['hedges']} hedges, {on['lb']['retries']} retries")
    report.notes.append(
        "gray arm health transitions (ejection ON): "
        + ("; ".join(f"t={t:.2f}s {host} {a}->{b}"
                     for t, host, a, b, _ in
                     gray_on.get("health_transitions", [])) or "none"))

    report.check(
        "every chaos scenario conserves requests exactly under "
        "duplicate accounting",
        all(_conserved(p) for p in (on, off, part, gray_on, gray_off)))
    report.check(
        f"recovery ON keeps client p99 bounded (<= 2x deadline) while "
        f"killing 1 of {k} at the knee, with re-dispatch doing the work",
        on["fleet"]["client_p99_ms"] <= 2.0 * DEADLINE_S * 1e3
        and on["lb"]["redispatches"] > 0,
        f"client p99 {on['fleet']['client_p99_ms']:.1f} ms, "
        f"{on['lb']['redispatches']} re-dispatches")
    report.check(
        "recovery OFF demonstrates the black-holing baseline: stranded "
        "requests only ever expire at the deadline sweep",
        off["flights"]["expired"] > 0
        and off["flights"]["blackholed"] > 0
        and off["lb"]["redispatches"] == 0,
        f"expired {off['flights']['expired']}, blackholed "
        f"{off['flights']['blackholed']}")
    report.check(
        "recovery ON turns away fewer clients than recovery OFF on the "
        "same seed and crash",
        on["fleet"]["client_failures"] < off["fleet"]["client_failures"],
        f"failures ON={on['fleet']['client_failures']} vs "
        f"OFF={off['fleet']['client_failures']}")
    report.check(
        "both crash arms replay byte-identically from the same seed",
        json.dumps(on, sort_keys=True, default=str)
        == json.dumps(on2, sort_keys=True, default=str)
        and json.dumps(off, sort_keys=True, default=str)
        == json.dumps(off2, sort_keys=True, default=str))
    report.check(
        "link partition is absorbed by budgeted alternate retries",
        part["lb"]["link_drops"] > 0 and part["lb"]["retries"] > 0
        and part["fleet"]["client_p99_ms"] <= 2.0 * DEADLINE_S * 1e3,
        f"{part['lb']['link_drops']} drops, {part['lb']['retries']} "
        f"retries, client p99 {part['fleet']['client_p99_ms']:.1f} ms")
    report.check(
        "outlier ejection catches the gray-failing host (EJECTED "
        "transition) and beats no-ejection on client failures",
        any(b == "ejected" for _, host, _a, b, _r in
            gray_on.get("health_transitions", []) if host == victim)
        and gray_on["fleet"]["client_failures"]
        < gray_off["fleet"]["client_failures"],
        f"failures ejection ON={gray_on['fleet']['client_failures']} vs "
        f"OFF={gray_off['fleet']['client_failures']}")
    report.check(
        "all fleet fault kinds off => bit-identical to the unarmed "
        "PR 6 fleet path (zero-cost hooks)",
        json.dumps(empty, sort_keys=True, default=str)
        == json.dumps(unarmed, sort_keys=True, default=str))
    return report
