"""Golden digests of five short simulated runs.

Each digest is the SHA-256 of the run's canonical result document
(``repro.sweep.canonical_json``).  Work on the event core or the stage
models must leave every simulated result byte-identical, so these must
not change; a change that alters simulated results on purpose updates
them and says why.
"""

import dataclasses
import hashlib

from repro.experiments.chaos_fleet import (default_outlier, default_recovery,
                                          serve_chaos)
from repro.experiments.fleet import serve_autoscale, serve_fleet
from repro.faults import FaultPlan
from repro.sweep import canonical_json
from repro.workflows import (InferenceConfig, TrainingConfig, run_inference,
                             run_training)

FIG7_CELL_DIGEST = (
    "b7f89d231c479b50e16e5dd5ed09eebd21e1297033ece707cadb9530eee228b4")
TRAINING_20K_DIGEST = (
    "ffa30a306fb2b13b7d8306aca919389a4872cc0b93ca4a258526b07ebe945c6d")
FLEET_K4_DIGEST = (
    "46659b864be51814e8c81b61cd8a8d96f7412a717941a9ab2535a12d4ac7aad4")
CHAOS_K4_DIGEST = (
    "b14332f5d55a7298e422ca2f8f7c7801eadb4c57fa8639967673287355b0e622")
AUTOSCALE_DIGEST = (
    "6fd35490abdbb0923cd0735185f16e8803a4b64b50169242128cf36330d5e3a7")


def digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def test_fig7_cell_golden_digest():
    res = run_inference(InferenceConfig(
        model="googlenet", backend="dlbooster", batch_size=32,
        warmup_s=0.1, measure_s=0.3, seed=0))
    assert digest(dataclasses.asdict(res)) == FIG7_CELL_DIGEST


def test_training_golden_digest():
    res = run_training(TrainingConfig(
        model="alexnet", backend="dlbooster", dataset_size=20_000,
        warmup_s=0.1, measure_s=0.3, seed=0))
    assert digest(dataclasses.asdict(res)) == TRAINING_20K_DIGEST


def test_fleet_k4_golden_digest():
    payload = serve_fleet(policy="least-loaded", k=4, overload_x=2.7,
                          sim_s=0.3, seed=23, degraded_host=2)
    assert digest(payload) == FLEET_K4_DIGEST


def test_chaos_k4_golden_digest():
    """The quick ``chaos_k4`` run: host01 swallows 80% of completions,
    so hedging, re-dispatch and ejection all fire."""
    sim_s = 0.3
    plan = FaultPlan.of(
        FaultPlan.host_hang(0.3 * sim_s, sim_s, "host01", rate=0.8),
        name="gray")
    payload = serve_chaos(plan=plan, recovery=default_recovery(),
                          outlier=default_outlier(), k=4, overload_x=2.8,
                          sim_s=sim_s, seed=47)
    assert digest(payload) == CHAOS_K4_DIGEST


def test_autoscale_golden_digest():
    payload = serve_autoscale(sim_s=1.6, surge=(0.4, 0.9, 3.4))
    assert digest(payload) == AUTOSCALE_DIGEST
