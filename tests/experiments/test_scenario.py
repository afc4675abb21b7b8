"""``Scenario`` is the one shape of a fleet run, and the one place its
inputs are checked: a bad value raises ``ValueError`` before any
simulation exists, instead of running silently, hanging, or failing deep
inside a run."""

import math

import pytest

from repro.experiments.chaos_fleet import serve_chaos
from repro.experiments.fleet import Scenario, serve_autoscale, serve_fleet


@pytest.mark.parametrize("field, value", [
    ("k", 0), ("k", -2),
    ("policy", "random"),
    ("overload_x", 0.0), ("overload_x", -1.0), ("overload_x", math.inf),
    ("overload_x", math.nan),
    ("sim_s", 0.0), ("sim_s", math.inf), ("sim_s", math.nan),
    ("skew", math.nan), ("skew", math.inf),
    ("num_clients", 0),
    ("degraded_host", -1), ("degraded_host", 4), ("degraded_host", 7),
    ("kmax", 3),
    ("surge", (0.6, 0.4, 3.0)),          # reversed window
    ("surge", (0.5, 0.5, 3.0)),          # empty window
    ("surge", (-0.1, 0.5, 3.0)),
    ("surge", (0.2, 1.5, 3.0)),          # ends past sim_s
    ("surge", (0.2, 0.5, 0.0)), ("surge", (0.2, 0.5, math.inf)),
    ("surge", (0.2, 0.5, math.nan)), ("surge", (math.nan, 0.5, 3.0)),
    ("slo", {"availabilty": 0.99}),
])
def test_scenario_rejects_bad_value(field, value):
    with pytest.raises(ValueError, match=field):
        Scenario(**{"k": 4, "sim_s": 1.0, field: value})


def test_scenario_accepts_boundary_values():
    Scenario(k=4, sim_s=1.0, degraded_host=3, kmax=4,
             surge=(0.0, 1.0, 2.0),
             slo={"availability": 0.99, "latency_target": 0.99,
                  "period_s": 0.05})


@pytest.mark.timeout(30)
@pytest.mark.parametrize("entry, overrides", [
    (serve_fleet, dict(k=2, overload_x=math.inf, sim_s=0.01)),
    (serve_chaos, dict(k=0)),
    (serve_autoscale, dict(surge=(0.9, 0.4, 3.4))),
], ids=["fleet-inf-rate", "chaos-k0", "autoscale-reversed-surge"])
def test_entry_points_fail_fast(entry, overrides):
    """The keyword entry points build a Scenario first, so a bad value
    raises before any Environment exists.  At these values the fleet
    used to spin its arrival process at t=0 forever, serve an empty
    fleet marked conserved, and fail mid-run inside the kernel."""
    with pytest.raises(ValueError):
        entry(**overrides)
