"""Capacity planner: knee reproduction, determinism, CLI contract.

The binary search must land on the PR 6 fleet experiment's knee: at an
offered rate of 1.8x the single-host knee, two healthy hosts serve at
90% utilization (the A/B premise of the fleet experiment), so the
recommended K is 2 and K=1 is infeasible.
"""

import json

import pytest

from repro.capacity.__main__ import main as capacity_main
from repro.experiments.fleet import single_host_knee
from repro.slo import PlanSpec, plan_capacity, render_dashboard

SIM_S = 0.3


def tiny_spec(**overrides):
    base = dict(rate=1.8 * single_host_knee(), p99_ms=25.0,
                k_min=1, k_max=2, seeds=(23,), sim_s=SIM_S)
    base.update(overrides)
    return PlanSpec(**base)


@pytest.fixture(scope="module")
def knee_plan():
    return plan_capacity(tiny_spec())


def test_spec_validation():
    with pytest.raises(ValueError):
        tiny_spec(rate=0.0)
    with pytest.raises(ValueError):
        tiny_spec(p99_ms=-1.0)
    with pytest.raises(ValueError):
        tiny_spec(k_min=3, k_max=2)
    with pytest.raises(ValueError):
        tiny_spec(seeds=())
    with pytest.raises(ValueError):
        tiny_spec(availability=1.0)
    for name in ("rate", "p99_ms", "sim_s"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                tiny_spec(**{name: bad})
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="latency_target"):
            tiny_spec(latency_target=bad)
    with pytest.raises(ValueError, match="routing policy"):
        tiny_spec(policy="foo")


def test_planner_reproduces_fleet_knee(knee_plan):
    """1.8x the knee needs exactly 2 hosts (90% utilization each)."""
    assert knee_plan.feasible
    assert knee_plan.recommended_k == 2
    assert knee_plan.evaluated[1]["feasible"] is False
    assert knee_plan.evaluated[2]["feasible"] is True
    assert knee_plan.headroom == pytest.approx(2.0 / 1.8)


def test_per_k_rows_carry_kpis_and_slo(knee_plan):
    ev = knee_plan.evaluated[2]
    (row,) = ev["seeds"]
    assert row["seed"] == 23 and row["feasible"]
    assert row["goodput_per_s"] > 0 and row["conserved"]
    assert row["cost_per_million_images"] > 0
    names = [obj["name"] for obj in row["slo"]]
    assert "availability" in names
    assert all(obj["met"] for obj in row["slo"])
    # The infeasible K=1 run blows the budget and logs alerts.
    (row1,) = knee_plan.evaluated[1]["seeds"]
    assert not row1["feasible"]
    assert any(not obj["met"] for obj in row1["slo"])
    assert row1["alert_log"]


def test_plan_document_and_dashboard_deterministic(knee_plan):
    again = plan_capacity(tiny_spec())
    assert again.to_json() == knee_plan.to_json()
    assert render_dashboard(again) == render_dashboard(knee_plan)
    doc = json.loads(knee_plan.to_json())
    assert doc["schema"] == "repro-capacity/1"
    assert doc["recommended_k"] == 2
    assert [ev["k"] for ev in doc["evaluated"]] == [1, 2]


def test_dashboard_renders_tables(knee_plan):
    text = render_dashboard(knee_plan)
    assert "# Capacity plan" in text
    assert "| K | goodput/s |" in text
    assert "**K = 2**" in text
    assert "PASS" in text and "fail" in text


def test_infeasible_range_has_no_recommendation():
    plan = plan_capacity(tiny_spec(k_max=1))
    assert not plan.feasible and plan.recommended_k is None
    assert plan.headroom is None
    text = render_dashboard(plan)
    assert "Infeasible" in text
    doc = json.loads(plan.to_json())
    assert doc["recommended_k"] is None and doc["feasible"] is False


def test_probe_memoization():
    """k_max is probed once even though binary search revisits it."""
    calls = []
    import repro.slo.planner as planner_mod
    real = planner_mod.evaluate_k

    def counting(k, spec, knee, parallel=1):
        calls.append(k)
        return real(k, spec, knee, parallel=parallel)

    try:
        planner_mod.evaluate_k = counting
        plan = planner_mod.plan_capacity(tiny_spec())
    finally:
        planner_mod.evaluate_k = real
    assert plan.recommended_k == 2
    assert sorted(calls) == [1, 2]           # each K evaluated once


# ------------------------------------------------------------------ CLI

def run_cli(tmp_path, *extra):
    out = tmp_path / "dash"
    code = capacity_main([
        "--rate-x", "1.8", "--k-min", "1", "--k-max", "2",
        "--sim-s", str(SIM_S), "--out-dir", str(out), *extra])
    return code, out


def test_cli_feasible_writes_dashboard(tmp_path, capsys):
    code, out = run_cli(tmp_path)
    assert code == 0
    md = (out / "dashboard.md").read_text()
    assert "**K = 2**" in md
    doc = json.loads((out / "dashboard.json").read_text())
    assert doc["schema"] == "repro-capacity/1"
    assert doc["recommended_k"] == 2
    assert "K=2: feasible" in capsys.readouterr().out


def test_cli_dashboard_byte_identical_across_reruns(tmp_path):
    _, first = run_cli(tmp_path / "a")
    _, second = run_cli(tmp_path / "b", "--parallel", "2")
    assert (first / "dashboard.md").read_bytes() == \
        (second / "dashboard.md").read_bytes()
    assert (first / "dashboard.json").read_bytes() == \
        (second / "dashboard.json").read_bytes()


def test_cli_infeasible_exits_one(tmp_path):
    code = capacity_main(["--rate-x", "1.8", "--k-min", "1",
                          "--k-max", "1", "--sim-s", str(SIM_S)])
    assert code == 1


def test_cli_unwritable_out_dir_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = capacity_main(["--rate-x", "1.8", "--k-max", "2",
                          "--sim-s", str(SIM_S),
                          "--out-dir", str(blocker)])
    assert code == 2
    assert "cannot create" in capsys.readouterr().err


def test_cli_rejects_bad_counts():
    with pytest.raises(SystemExit):
        capacity_main(["--seeds", "0"])
    with pytest.raises(SystemExit):
        capacity_main(["--parallel", "0"])
    with pytest.raises(SystemExit):
        capacity_main(["--rate", "100", "--rate-x", "2.0"])


@pytest.mark.parametrize("bad", [
    ["--rate-x", "-1"],
    ["--rate", "nan"],
    ["--k-min", "0"],
    ["--sim-s", "nan"],
    ["--policy", "foo"],
    ["--latency-target", "1.5"],
    ["--p99-ms", "nan"],
], ids=lambda bad: "=".join(bad).lstrip("-"))
def test_cli_rejects_bad_spec_before_simulating(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        capacity_main(["--k-max", "1", "--sim-s", str(SIM_S), *bad])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""      # no plan header, no run
