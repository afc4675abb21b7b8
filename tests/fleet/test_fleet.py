"""Fleet integration: conservation ledgers and same-seed determinism
across every routing policy."""

import bisect
import json
import math

import numpy as np
import pytest

from repro.calib import DEFAULT_TESTBED
from repro.fleet import (ROUTING_POLICIES, Host, HostConfig, LoadBalancer,
                         OpenLoopSource, fleet_rollup, make_policy,
                         zipf_weights)
from repro.sim import Environment, SeedBank
from repro.supervision import SupervisionConfig


def run_fleet(policy_name, seed=17, k=3, sim_s=0.3, rate=5000.0):
    env = Environment()
    bank = SeedBank(seed)
    hosts = []
    for i in range(k):
        namespace = f"host{i:02d}"
        host = Host(env, HostConfig(
            model="googlenet", backend="dlbooster", batch_size=4,
            cpu_cores=8,
            supervision=SupervisionConfig(deadline_s=0.025,
                                          admission_margin_s=0.015)),
            seeds=bank.spawn(namespace), namespace=namespace)
        host.start()
        hosts.append(host)
    balancer = LoadBalancer(
        env, hosts, make_policy(policy_name, rng=bank.stream("policy")))
    source = OpenLoopSource(
        env, balancer, rate=rate,
        image_hw=DEFAULT_TESTBED.client_image_hw,
        rng=bank.stream("arrivals"), num_clients=8, skew=0.8,
        deadline_s=0.025)
    source.start()
    env.run(until=sim_s)
    return fleet_rollup(hosts, balancer=balancer, source=source,
                        deadline_s=0.025), balancer, hosts, source


@pytest.mark.parametrize("policy", ROUTING_POLICIES)
def test_conservation_under_every_policy(policy):
    payload, balancer, hosts, source = run_fleet(policy)
    assert payload["fleet"]["handled"] > 0
    # Per-host ledgers close...
    for row in payload["per_host"]:
        assert row["conserved"], row["host"]
    # ...the LB's dispatch counts match what the hosts admitted...
    assert balancer.conservation_ok()
    assert payload["balancer"]["dispatched"] == sum(
        payload["balancer"]["per_host"].values())
    assert payload["balancer"]["dispatched"] == sum(
        row["handled"] for row in payload["per_host"])
    # ...and every request the source issued has exactly one outcome.
    assert source.conservation_ok()


@pytest.mark.parametrize("policy", ROUTING_POLICIES)
def test_same_seed_rerun_is_bit_identical(policy):
    payload_a, *_ = run_fleet(policy)
    payload_b, *_ = run_fleet(policy)
    assert (json.dumps(payload_a, sort_keys=True, default=str)
            == json.dumps(payload_b, sort_keys=True, default=str))


def test_different_policies_are_actually_different():
    shares = {}
    for policy in ("round-robin", "consistent-hash"):
        payload, *_ = run_fleet(policy)
        shares[policy] = payload["balancer"]["shares"]
    # Round-robin splits evenly; consistent-hash follows the skewed
    # client mix — the dispatch histograms must differ.
    assert shares["round-robin"] != shares["consistent-hash"]


def test_fleet_percentiles_come_from_merged_samples():
    payload, _, hosts, _ = run_fleet("round-robin")
    assert payload["fleet"]["latency_count"] == sum(
        row["latency_count"] for row in payload["per_host"])
    host_p99s = [row["p99_ms"] for row in payload["per_host"]
                 if row["p99_ms"] is not None]
    fleet_p99 = payload["fleet"]["p99_ms"]
    assert min(host_p99s) <= fleet_p99 <= max(host_p99s) + 1e-9


def test_client_perceived_percentiles_count_failures():
    # Saturate one tiny fleet so shedding is guaranteed, then check the
    # client-perceived p99 lands at the deadline while the served-only
    # p99 stays below it.
    payload, *_ = run_fleet("round-robin", k=1, rate=9000.0, sim_s=0.4)
    fleet = payload["fleet"]
    assert fleet["client_failures"] > 0.01 * fleet["handled"]
    assert fleet["client_p99_ms"] == pytest.approx(25.0)
    assert fleet["p99_ms"] < fleet["client_p99_ms"]


def _source(env, rate):
    balancer = LoadBalancer(env, [], make_policy("round-robin"))
    return OpenLoopSource(env, balancer, rate=rate,
                          image_hw=DEFAULT_TESTBED.client_image_hw,
                          rng=SeedBank(0).stream("arrivals"))


@pytest.mark.timeout(30)
@pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, -1.0])
def test_open_loop_source_rejects_bad_rate(rate):
    """An infinite rate makes every arrival gap 0, so a source that
    accepted one would spin at t=0 forever; NaN would fail later, deep
    in the kernel.  Both must fail at construction."""
    env = Environment()
    with pytest.raises(ValueError, match="rate"):
        _source(env, rate).start()
        env.run(until=0.01)


@pytest.mark.timeout(30)
@pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, -1.0])
def test_open_loop_source_set_rate_rejects_bad_rate(rate):
    env = Environment()
    source = _source(env, 1000.0)
    source.start()
    with pytest.raises(ValueError, match="rate"):
        source.set_rate(rate)
        env.run(until=0.01)
    assert source.rate == 1000.0


class _Recorder:
    """A stand-in balancer that keeps every routed request."""

    def __init__(self):
        self.routed = []

    def route(self, request):
        self.routed.append(request)


@pytest.mark.parametrize("clients,skew", [(1, 0.0), (8, 0.8), (16, 1.1),
                                          (32, 0.0), (5, 2.5)])
def test_open_loop_client_pick_matches_searchsorted(clients, skew):
    env = Environment()
    balancer = _Recorder()
    source = OpenLoopSource(
        env, balancer, rate=1e5, image_hw=DEFAULT_TESTBED.client_image_hw,
        rng=np.random.default_rng(7), num_clients=clients, skew=skew,
        size_sampler=lambda rng: 1000)
    source.start()
    env.run(until=0.02)
    draws = np.random.default_rng(7).random(len(balancer.routed))
    cdf = np.cumsum(zipf_weights(clients, skew))
    expected = np.searchsorted(cdf, draws, side="right")
    assert len(balancer.routed) > 1000
    assert [r.client_id for r in balancer.routed] == expected.tolist()


def test_open_loop_cdf_top_maps_to_the_last_client():
    # At 16 clients and skew 1.1 the cumulative sum ends below 1.0, so a
    # draw between that last entry and 1.0 once named client 16.
    cdf = np.cumsum(zipf_weights(16, 1.1))
    assert cdf[-1] < 1.0
    source = OpenLoopSource(
        Environment(), _Recorder(), rate=1.0,
        image_hw=DEFAULT_TESTBED.client_image_hw,
        rng=np.random.default_rng(0), num_clients=16, skew=1.1)
    assert source._cdf[-1] == 1.0
    for draw in (float(cdf[-1]), np.nextafter(1.0, 0.0)):
        assert bisect.bisect_right(source._cdf, draw) == 15
