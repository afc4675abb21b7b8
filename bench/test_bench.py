"""Tests of the benchmark itself: ``python -m pytest bench -q``.

They run ``e2e.py --quick`` (shrunk horizons, one rep per run), so they
check the harness, not the simulator's speed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from compare import verdict  # noqa: E402
from layers import LAYERS  # noqa: E402
from spec import END_TO_END, GATED, PER_LAYER, RUN_SECONDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT, script=os.path.join(BENCH, "e2e.py")):
    proc = subprocess.run([sys.executable, script, "--quick", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, line


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced_all(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "all.json"
    code, line = _bench("--trace", "--out", str(out))
    with open(out) as fh:
        return code, line, json.load(fh)


def test_benchmark_json_matches_spec(benchmark_json):
    assert benchmark_json["command"] == ["python3", "bench/e2e.py"]
    assert benchmark_json["paths"] == ["bench"]
    assert benchmark_json["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in benchmark_json["workloads"]] \
        == list(WORKLOADS)
    gated = {m["name"]: m for m in benchmark_json["end_to_end"]}
    assert list(gated) == list(GATED)
    for name, m in gated.items():
        unit, better, bound, kind = END_TO_END[name]
        assert (m["unit"], m["better"], m["bound"], kind) \
            == (unit, better, bound, "rel")
    assert {m["name"]: (m["unit"], m["better"])
            for m in benchmark_json["per_layer"]} == PER_LAYER


def test_emitted_names_match_benchmark_json(traced_all, benchmark_json):
    code, line, doc = traced_all
    assert code == 0 and line["correct"] and line["failed"] == 0
    names = [w["name"] for w in benchmark_json["workloads"]]
    assert list(doc["workloads"]) == names
    per_layer = [m["name"] for m in benchmark_json["per_layer"]]
    assert set(line["metrics"]) == {f"{w}/{m}" for w in names
                                    for m in per_layer}
    for w in names:
        (run,) = doc["workloads"][w]["runs"]
        assert set(GATED) <= set(run["metrics"])
        shares = sum(run["per_layer"][f"{layer}.self_share"]["value"]
                     for layer in LAYERS)
        assert shares == pytest.approx(100.0, abs=1.0)
        assert os.path.isfile(os.path.join(ROOT, run["trace_file"]))


def test_events_per_image_repeats_across_invocations(benchmark_json):
    first = _bench("--workload", "infer_fig7")
    second = _bench("--workload", "infer_fig7")
    for code, line in (first, second):
        assert code == 0 and line["correct"]
        assert set(line["metrics"]) \
            == {m["name"] for m in benchmark_json["end_to_end"]}
    assert first[1]["metrics"]["events_per_image"] \
        == second[1]["metrics"]["events_per_image"]


def test_forced_failure_is_counted(tmp_path):
    out = tmp_path / "fail.json"
    code, line = _bench("--workload", "fleet_k4", "--force-fail",
                        "--out", str(out))
    assert code == 1
    assert line["correct"] is False and line["failed"] >= 1
    (run,) = json.loads(out.read_text())["workloads"]["fleet_k4"]["runs"]
    assert run["metrics"]["failed_frac"]["value"] > 0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, line = _bench(cwd=tmp_path,
                        script=str(tmp_path / "bench" / "e2e.py"))
    assert code != 0 and line is None


def test_reference_kernel_does_fixed_work():
    from reference import EVENTS, kernel
    counts = kernel()
    assert sum(counts.values()) == EVENTS
    assert kernel() == counts


@pytest.mark.parametrize("a, b, better, bound, kind, expected", [
    ([10, 10, 10], [10.5, 10.5, 10.5], "lower", 0.1, "rel", "within bound"),
    ([10, 10, 10], [12, 12, 12], "lower", 0.1, "rel", "worse"),
    ([10, 10, 10], [8, 8, 8], "lower", 0.1, "rel", "better"),
    ([10, 10, 10], [12, 12, 12], "higher", 0.1, "rel", "better"),
    ([8, 10, 12, 14], [9, 11, 13, 15], "lower", 0.1, "rel", "unresolved"),
    ([8, 10, 12, 14], [1, 2, 3, 4], "lower", 0.1, "rel", "better"),
    ([1.0, 1.0], [1.4, 1.4], "lower", 0.5, "abs", "within bound"),
])
def test_compare_verdicts(a, b, better, bound, kind, expected):
    assert verdict(a, b, better, bound, kind)[0] == expected
