"""The SLO evaluator is observation-only: bit-identical when enabled.

Same contract PR 4's tracing established — arming the evaluator must
leave every simulated metric bit-identical, because its state is plain
Python (no sim instruments that would register in the ambient metrics
registry, no RNG draws) and its periodic process only yields timeouts.
These A/B tests pin that for all three wired stacks: the fleet
experiment, the chaos fleet, and the overload experiment's probe mode.
"""

import json

from repro.experiments.chaos_fleet import serve_chaos
from repro.experiments.fleet import serve_fleet
from repro.experiments.overload import serve_open_loop

FLEET = dict(policy="least-loaded", k=2, overload_x=1.2, sim_s=0.3,
             degraded_host=None, with_registry=True)


def canon(payload):
    return json.dumps(payload, sort_keys=True, default=str)


def test_fleet_evaluator_on_is_bit_identical_to_off():
    off = serve_fleet(**FLEET)
    on = serve_fleet(**FLEET, slo=True)
    slo = on.pop("slo")
    assert canon(on) == canon(off)
    assert slo["schema"] == "repro-slo/1" and slo["ticks"] > 0
    names = [obj["name"] for obj in slo["objectives"]]
    assert names == ["availability", "latency-25ms"]


def test_fleet_slo_payload_is_deterministic():
    a = serve_fleet(**FLEET, slo=True)
    b = serve_fleet(**FLEET, slo=True)
    assert canon(a) == canon(b)


def test_fleet_slo_dict_config_overrides_targets():
    payload = serve_fleet(**FLEET,
                          slo={"availability": 0.95, "period_s": 0.05})
    slo = payload["slo"]
    avail = next(obj for obj in slo["objectives"]
                 if obj["name"] == "availability")
    assert avail["target"] == 0.95
    assert slo["period_s"] == 0.05


def test_chaos_fleet_evaluator_on_is_bit_identical_to_off():
    config = dict(k=2, overload_x=1.2, sim_s=0.3)
    off = serve_chaos(**config)
    on = serve_chaos(**config, slo=True)
    slo = on.pop("slo")
    assert canon(on) == canon(off)
    assert slo["ticks"] > 0


def test_overload_probe_mode_is_observation_only():
    config = dict(deadline_s=0.025, admission_margin_s=0.015, sim_s=0.6)
    base = serve_open_loop(**config)
    armed = serve_open_loop(**config, slo=True)
    assert armed.slo is not None and armed.slo["ticks"] > 0
    # Every simulated outcome matches the unarmed run exactly.
    assert (base.served, base.backlog, base.shed_rx, base.shed_reader,
            base.shed_dispatcher, base.conserved) == \
        (armed.served, armed.backlog, armed.shed_rx, armed.shed_reader,
         armed.shed_dispatcher, armed.conserved)
    assert base.goodput == armed.goodput
    assert base.p99_first_ms == armed.p99_first_ms
    assert base.p99_second_ms == armed.p99_second_ms
    assert canon(base.kpi) == canon(armed.kpi)


def test_fleet_kpi_section_attached_and_consistent():
    payload = serve_fleet(**FLEET)
    kpi = payload["kpi"]
    assert kpi["schema"] == "repro-kpi/1"
    assert kpi["traffic"]["offered"] == payload["source"]["sent"]
    assert kpi["traffic"]["completed"] == payload["source"]["completed"]
    assert kpi["latency"]["client_p99_ms"] == \
        payload["fleet"]["client_p99_ms"]
    # with_registry=True populates the per-stage table.
    assert kpi["stages"]
    assert kpi["cost"]["hosts"] == 2
    assert kpi["cost"]["cost_per_million_images"] > 0


def test_rollup_derived_fields():
    payload = serve_fleet(**FLEET)
    fleet = payload["fleet"]
    assert fleet["goodput_per_s"] == fleet["completed"] / 0.3
    assert fleet["shed_pct"] == (
        100.0 * fleet["shed"] / fleet["handled"] if fleet["handled"]
        else 0.0)
    assert fleet["failure_pct"] == (
        100.0 * fleet["failed"] / fleet["handled"] if fleet["handled"]
        else 0.0)
    assert fleet["p999_ms"] is None or fleet["p999_ms"] >= fleet["p99_ms"]
