"""Overload — deadline shedding keeps serving latency bounded.

The paper's serving evaluation (S5.3) is closed-loop: five clients with
a bounded window, so offered load can never exceed capacity and queues
never build.  Real front-ends are open-loop — arrivals do not slow down
because the server is behind — and an overloaded pipeline without
admission control grows its RX backlog without bound, dragging p99
latency up with queue depth (latency "collapses": every response is
late, goodput buys nothing).

This experiment goes beyond the paper: it drives the DLBooster serving
stack with an open-loop arrival process at ~2x the GPU's analytic
capacity and compares

* **no-shed** — plain backend, effectively unbounded RX ring: backlog
  and p99 grow linearly for as long as the run lasts;
* **shed** — a :class:`~repro.supervision.Supervisor` with a request
  deadline arms the RX queue (reject-on-admit + drop-expired-at-
  dequeue) and the reader/dispatcher boundaries, so expired work is
  discarded at the cheapest point instead of occupying the pipeline.

The shape checks encode the claim: with shedding, p99 stays within a
small multiple of the deadline and goodput stays near capacity, while
the no-shed baseline's second-half p99 dwarfs its first-half p99.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from ..calib import DEFAULT_TESTBED
from ..data import jpeg_size_sampler
from ..engines import inference_batch_seconds
from ..fleet import Host, HostConfig
from ..net import NetRequest
from ..sim import Environment, LatencyRecorder, SeedBank
from ..slo import (AVAILABILITY, HostShape, SLODefinition, SLOEvaluator,
                   default_rules, kpis_from_metrics)
from ..supervision import SupervisionConfig
from ..telemetry import MetricsRegistry
from .report import Report, timed

__all__ = ["run", "serve_open_loop", "OverloadResult"]


@dataclass
class OverloadResult:
    """One open-loop serving run (windowed over two half-runs)."""

    offered_rate: float          # requests/s injected
    goodput: float               # predictions/s over the second half
    p99_first_ms: float          # serving p99, first half of the run
    p99_second_ms: float         # serving p99, second half of the run
    backlog: int                 # RX queue depth at end of run
    shed_rx: int                 # shed at the NIC RX boundary
    shed_reader: int             # shed at the FPGAReader boundary
    shed_dispatcher: int         # shed items at the dispatcher boundary
    served: int                  # predictions over the whole run
    conserved: bool
    kpi: Optional[dict] = None   # repro-kpi/1 payload
    slo: Optional[dict] = field(default=None, repr=False)  # repro-slo/1

    @property
    def shed_total(self) -> int:
        return self.shed_rx + self.shed_reader + self.shed_dispatcher


def serve_open_loop(deadline_s: Optional[float] = None,
                    admission_margin_s: float = 0.0,
                    overload: float = 2.0,
                    sim_s: float = 4.0,
                    model: str = "googlenet",
                    batch_size: int = 4,
                    seed: int = 11,
                    with_registry: bool = False,
                    slo: bool = False) -> OverloadResult:
    """Open-loop arrivals straight into the RX ring at ``overload`` times
    the GPU's analytic capacity; with a ``deadline_s`` the stack runs
    supervised and sheds expired work, without one it queues forever.

    Arrivals bypass the client fabric (no wire time, no closed-loop
    window) — the point is server-side overload, so the 40 Gbps link is
    deliberately out of the picture.

    ``slo`` arms the in-sim evaluator in probe mode: this stack has no
    per-request done events, so an availability objective samples the
    cumulative (predictions, shed) counters once per tick and the
    multi-window burn alerts fire off those.  Observation-only, like
    every evaluator mode.  ``with_registry`` snapshots the pipeline's
    instruments into the result's KPI stage table.
    """
    env = Environment()
    seeds = SeedBank(seed)
    testbed = DEFAULT_TESTBED
    supervision = None
    if deadline_s is not None:
        supervision = SupervisionConfig(
            deadline_s=deadline_s, admission_margin_s=admission_margin_s)
    # RX ring sized so the no-shed baseline never drops: the backlog is
    # the measurement, not an artifact of ring exhaustion.
    cfg = HostConfig(model=model, backend="dlbooster",
                     batch_size=batch_size, rx_capacity=1 << 20,
                     supervision=supervision)
    registry = MetricsRegistry(name="overload") if with_registry else None
    with registry.installed() if registry is not None else nullcontext():
        host = Host(env, cfg, testbed=testbed)
        host.start()
    nic, backend = host.nic, host.backend
    engine = host.engines[0]

    capacity = batch_size / inference_batch_seconds(host.spec, batch_size)
    rate = overload * capacity
    gap = 1.0 / rate
    h, w = testbed.client_image_hw
    sampler = jpeg_size_sampler()
    rng = seeds.stream("overload-sizes")

    offered = {"n": 0}

    def _arrivals():
        rid = 0
        while True:
            yield env.timeout(gap)
            now = env.now
            req = NetRequest(
                request_id=rid, client_id=0,
                size_bytes=sampler(rng), height=h, width=w, channels=3,
                sent_at=now, received_at=now,
                deadline_at=(now + deadline_s
                             if deadline_s is not None else math.inf))
            rid += 1
            offered["n"] = rid
            if not nic.rx_queue.try_put(req):
                nic.drops.add()

    env.process(_arrivals(), name="overload-arrivals")

    evaluator = None
    if slo:
        def _probe():
            good = int(engine.predictions.total)
            bad = nic.rx_queue.shed_total
            if backend.reader is not None:
                bad += int(backend.reader.shed_expired.total)
            if backend.dispatcher is not None:
                bad += int(backend.dispatcher.items_shed.total)
            return good, bad

        evaluator = SLOEvaluator(
            env,
            [SLODefinition(
                name="availability", kind=AVAILABILITY, target=0.99,
                description="fraction of offered requests served "
                            "(shed work burns the budget)")],
            rules=default_rules(sim_s), period_s=sim_s / 80.0)
        evaluator.add_probe("availability", _probe)
        evaluator.start()

    half = sim_s / 2.0
    env.run(until=half)
    p99_first = engine.latency.p99()
    engine.latency = LatencyRecorder(name=f"{engine.gpu.name}.latency")
    served_mark = int(engine.predictions.total)
    env.run(until=sim_s)

    reader = backend.reader
    result = OverloadResult(
        offered_rate=rate,
        goodput=(int(engine.predictions.total) - served_mark) / half,
        p99_first_ms=p99_first * 1e3,
        p99_second_ms=engine.latency.p99() * 1e3,
        backlog=len(nic.rx_queue),
        shed_rx=nic.rx_queue.shed_total,
        shed_reader=int(reader.shed_expired.total) if reader else 0,
        shed_dispatcher=(int(backend.dispatcher.items_shed.total)
                         if backend.dispatcher is not None else 0),
        served=int(engine.predictions.total),
        conserved=backend.conservation_ok())
    metrics_doc = (json.loads(registry.to_json(indent=0))
                   if registry is not None else {})
    result.kpi = kpis_from_metrics(
        metrics_doc, window_s=sim_s,
        traffic={"offered": offered["n"], "completed": result.served,
                 "shed": result.shed_total},
        shape=HostShape(cpu_cores=testbed.cpu_cores))
    if evaluator is not None:
        result.slo = evaluator.payload()
    return result


@timed
def run(quick: bool = False) -> Report:
    """Open-loop overload: shedding bounds p99, no-shed collapses."""
    sim_s = 2.0 if quick else 4.0
    # 25 ms budget; ~15 ms of that is in-pipeline time at saturation
    # (8 pool units + 3 trans batches of queueing at the GPU's rate,
    # plus decode and copy), which becomes the admission margin: the RX
    # boundary sheds requests whose slack no longer covers the pipeline.
    deadline_s = 0.025
    margin_s = 0.015
    report = Report(
        experiment_id="overload",
        title="Open-loop overload at 2x capacity (GoogLeNet / DLBooster "
              "serving, 1 GPU, 1 FPGA)",
        columns=["mode", "offered req/s", "goodput/s", "p99 1st-half ms",
                 "p99 2nd-half ms", "rx backlog", "shed", "conserved"])

    def add(label, res):
        report.add_row(label, res.offered_rate, res.goodput,
                       res.p99_first_ms, res.p99_second_ms, res.backlog,
                       res.shed_total, "yes" if res.conserved else "NO")

    noshed = serve_open_loop(deadline_s=None, sim_s=sim_s)
    add("no-shed", noshed)
    shed = serve_open_loop(deadline_s=deadline_s,
                           admission_margin_s=margin_s, sim_s=sim_s,
                           slo=True)
    add(f"shed ({deadline_s * 1e3:.0f} ms deadline)", shed)

    report.kpis = {"no-shed": noshed.kpi, "shed": shed.kpi}
    report.notes.append(
        "open-loop deterministic arrivals injected at the RX ring; "
        "client fabric wire time excluded by design")
    availability = shed.slo["objectives"][0]
    pages = [e for e in shed.slo["alert_log"]
             if e[2] == "page" and e[3] == "fire"]
    report.notes.append(
        f"SLO evaluator (probe mode): availability "
        f"{1.0 - availability['bad_frac']:.1%} vs target "
        f"{availability['target']:.0%}; first page alert at "
        + (f"t={pages[0][0]:.2f}s" if pages else "never"))

    report.check(
        "without shedding the RX backlog grows without bound",
        noshed.backlog > 1000 and noshed.backlog > 50 * max(shed.backlog, 1),
        f"no-shed backlog {noshed.backlog} vs shed {shed.backlog}")
    report.check(
        "without shedding p99 collapses (2nd half >> 1st half)",
        noshed.p99_second_ms >= 2.0 * max(noshed.p99_first_ms, 1e-6),
        f"{noshed.p99_first_ms:.1f} -> {noshed.p99_second_ms:.1f} ms")
    report.check(
        "deadline shedding keeps p99 bounded near the deadline",
        shed.p99_second_ms <= 2.0 * deadline_s * 1e3
        and shed.p99_second_ms <= 1.5 * max(shed.p99_first_ms, 1e-6),
        f"p99 {shed.p99_first_ms:.1f} -> {shed.p99_second_ms:.1f} ms "
        f"(deadline {deadline_s * 1e3:.0f} ms)")
    report.check(
        "shedding sustains goodput near capacity while overloaded",
        shed.goodput >= 0.70 * (noshed.offered_rate / 2.0),
        f"{shed.goodput:.0f}/s vs capacity "
        f"{noshed.offered_rate / 2.0:.0f}/s")
    report.check(
        "expired work is actually shed (counters > 0) and conserved",
        shed.shed_total > 0 and shed.conserved and noshed.conserved,
        f"shed rx={shed.shed_rx} reader={shed.shed_reader} "
        f"dispatcher={shed.shed_dispatcher}")
    report.check(
        "the no-shed baseline sheds nothing (control)",
        noshed.shed_total == 0,
        f"total {noshed.shed_total}")
    report.check(
        "sustained 2x overload burns the availability budget fast "
        "enough to page (multi-window burn-rate alert fires)",
        bool(pages) and not availability["met"],
        f"{len(pages)} page fire(s), availability budget consumed "
        f"{availability['budget_consumed']:.0f}x")
    return report
