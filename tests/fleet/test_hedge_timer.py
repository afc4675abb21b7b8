"""The balancer's hedge timer: one callback per hedged flight, its delay
read when the flight is routed."""

from repro.fleet import LoadBalancer, RecoveryConfig, make_policy
from repro.net import NetRequest
from repro.sim import Counter, Environment, Process


class StubHost:
    """Admits every copy and never answers: each copy is a chance for
    the timer to hedge, and its admission time is logged."""

    def __init__(self, env, name):
        self.env = env
        self.name = name
        self.accepting = True
        self.in_flight = 0
        self.handled = Counter(env, name=f"{name}.handled")
        self.admitted = []

    def admit(self, request):
        self.admitted.append((self.env.now, request))
        self.handled.add()
        return True


# Past every timer; the flight sweep loops forever, so runs stop here.
HORIZON = 1.0


def build(**recovery):
    env = Environment()
    hosts = [StubHost(env, "host00"), StubHost(env, "host01")]
    recovery.setdefault("redispatch", False)
    # A sweep too slow to reap anything first: only the timer decides.
    recovery.setdefault("sweep_period_s", 100.0)
    balancer = LoadBalancer(env, hosts, make_policy("round-robin"),
                            recovery=RecoveryConfig(**recovery))
    return env, hosts, balancer


def request(env, rid, deadline_at=float("inf")):
    return NetRequest(request_id=rid, client_id=0, size_bytes=1000,
                      height=1, width=1, channels=3, sent_at=env.now,
                      done_event=env.event(), deadline_at=deadline_at)


def route_at(env, balancer, when, req, after=None):
    """Route ``req`` at ``when``; ``after()`` runs next, in the same
    event."""
    def go():
        yield env.timeout(when)
        balancer.route(req)
        if after is not None:
            after()

    env.process(go())


def test_a_hedge_goes_out_exactly_delay_after_routing_with_the_delay_read_then():
    env, (first, second), balancer = build(hedge_min_samples=1,
                                           hedge_min_delay_s=0.0)
    latency = balancer.flights.client_latency
    latency.record(0.004)
    # A flight resolving at the routing instant moves the p99; the hedge
    # keeps the delay the flight was routed with.
    route_at(env, balancer, 0.1, request(env, 0),
             after=lambda: latency.record(0.010))
    env.run(until=HORIZON)
    assert [t for t, _ in first.admitted] == [0.1]
    assert [t for t, _ in second.admitted] == [0.1 + 0.004]
    assert balancer.hedges.total == 1


def test_the_fallback_delay_is_a_fraction_of_the_deadline_left():
    env, (first, second), balancer = build(hedge_fallback_frac=0.5,
                                           hedge_min_delay_s=0.0)
    route_at(env, balancer, 0.25, request(env, 0, deadline_at=0.75))
    env.run(until=HORIZON)
    assert [t for t, _ in second.admitted] == [0.25 + 0.5 * (0.75 - 0.25)]


def test_a_resolved_or_expired_flight_is_not_hedged_and_costs_no_token():
    env, (first, second), balancer = build(hedge_delay_s=0.008)
    route_at(env, balancer, 0.0, request(env, 0))
    # Past its deadline, not yet reaped, when the timer fires.
    route_at(env, balancer, 0.0, request(env, 1, deadline_at=0.005))
    env.run(until=0.004)
    _, copy = first.admitted[0]
    copy.done_event.succeed()          # the primary answers first
    tokens = balancer.budget.available()
    env.run(until=HORIZON)
    assert len(first.admitted) + len(second.admitted) == 2
    assert balancer.hedges.total == 0
    assert balancer.budget.granted.total == 0
    assert balancer.budget.available() == tokens
    assert balancer.flights.completed.total == 1


def test_routing_a_hedged_flight_starts_no_process(monkeypatch):
    env, (first, second), balancer = build(hedge_delay_s=0.008)
    started = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        started.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    balancer.route(request(env, 0))
    monkeypatch.undo()
    assert started == []
    env.run(until=HORIZON)
    assert [t for t, _ in second.admitted] == [0.008]
