"""Front-end tier: LoadBalancer + open-loop traffic source.

The LoadBalancer is the fleet's single entry point: each request is
routed by a pluggable :mod:`~repro.fleet.routing` policy over the
health-filtered candidate set and injected into the chosen host's RX
ring.  It sits server-side (think L4 VIP in the same rack), so the
client wire is out of the picture — matching the single-host overload
experiment's methodology.

:class:`OpenLoopSource` is the fleet's arrival process: deterministic
inter-arrival gap at a settable rate, client ids drawn from an
optionally *skewed* (Zipf-like) mix — the workload under which
client-affine and load-aware policies actually differ.

Chaos + recovery (PR 7)
-----------------------
Handing the balancer a :class:`~repro.fleet.chaos.FleetChaos` with an
armed fleet plan, or a :class:`~repro.fleet.recovery.RecoveryConfig`,
switches ``route()`` onto the *flight* path: every request becomes a
:class:`~repro.fleet.recovery.Flight`, each dispatched copy travels
with its own proxy done-event, and hedges / re-dispatches are extra
copies under first-completion-wins.  All extra dispatches — the legacy
alternate retry included — draw from one token-bucket
:class:`~repro.fleet.recovery.RetryBudget`, so recovery can never
amplify a fault into a retry storm.  With neither armed, ``route()``
is the PR 6 path, bit-identically (no proxy events, no processes).
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Optional

import numpy as np

from ..data import jpeg_size_sampler
from ..net import NetRequest
from ..sim import Counter, Environment, Timeout
from ..supervision import DeadlineExceeded
from .recovery import FlightTable, RecoveryConfig, RetryBudget
from .routing import RoutingPolicy

__all__ = ["LoadBalancer", "OpenLoopSource"]


class LoadBalancer:
    """Routes requests over the fleet through one policy."""

    def __init__(self, env: Environment, hosts, policy: RoutingPolicy,
                 name: str = "lb", chaos=None,
                 recovery: Optional[RecoveryConfig] = None,
                 budget: Optional[RetryBudget] = None):
        self.env = env
        self.name = name
        self.policy = policy
        self.health = None           # optional HealthView, attached later
        self.hosts = []
        self.dispatched = Counter(env, name=f"{name}.dispatched")
        self.rejected = Counter(env, name=f"{name}.rejected")
        # Satellite: the alternate retry is budgeted and metered now.
        self.retries = Counter(env, name=f"{name}.retries")
        self.budget_exhausted = Counter(env, name=f"{name}.budget_exhausted")
        self.link_drops = Counter(env, name=f"{name}.link_drops")
        self.hedges = Counter(env, name=f"{name}.hedges")
        self.redispatches = Counter(env, name=f"{name}.redispatches")
        self.recovery = recovery
        self.chaos = chaos if (chaos is not None and chaos.active) else None
        if budget is None:
            if recovery is not None:
                budget = RetryBudget(env, recovery.budget_rate_per_s,
                                     recovery.budget_burst,
                                     name=f"{name}.budget")
            else:
                budget = RetryBudget(env, name=f"{name}.budget")
        self.budget = budget
        # The flight table (proxy events + sweep process) exists only
        # when chaos or recovery is armed: an unarmed balancer runs the
        # legacy route() path with zero extra simulation state.
        self.flights: Optional[FlightTable] = None
        if self.chaos is not None or recovery is not None:
            self.flights = FlightTable(env, chaos=self.chaos,
                                       recovery=recovery,
                                       name=f"{name}.flights")
            self.flights.start()
        self.per_host: dict[str, Counter] = {}
        for host in hosts:
            self.add_host(host)
        if self.chaos is not None:
            self.chaos.attach(self)

    def attach_health(self, health) -> None:
        self.health = health

    def add_host(self, host) -> None:
        if host.name in self.per_host:
            raise ValueError(f"duplicate host name {host.name!r}")
        self.hosts.append(host)
        self.per_host[host.name] = Counter(
            self.env, name=f"{self.name}.to.{host.name}")
        if self.chaos is not None and self.chaos.balancer is self:
            self.chaos.watch_host(host)

    def active_hosts(self) -> list:
        return [h for h in self.hosts if h.accepting]

    def candidates(self) -> list:
        if self.health is not None:
            return self.health.candidates()
        return self.active_hosts()

    def route(self, request) -> bool:
        """Route one request; True when some host accepted it.

        On a refused first choice (draining race, RX overflow) other
        candidates are tried — each extra try paid for by the retry
        budget — before giving up; a rejected request's issuer is
        failed so open- and closed-loop sources both learn the outcome.
        """
        if self.flights is not None and request.done_event is not None:
            return self._route_flight(request)
        return self._route_legacy(request)

    def _route_legacy(self, request) -> bool:
        candidates = self.candidates()
        if candidates:
            host = self.policy.choose(candidates, request)
            if host.admit(request):
                self._count(host)
                return True
            rest = [h for h in candidates if h is not host]
            if rest:
                if self.budget.take():
                    self.retries.add()
                    alt = self.policy.choose(rest, request)
                    if alt.admit(request):
                        self._count(alt)
                        return True
                else:
                    self.budget_exhausted.add()
        self.rejected.add()
        done = request.done_event
        if done is not None and not done.triggered:
            done.fail(ConnectionError(
                f"no route for request {request.request_id}"))
        return False

    # -- flight path (chaos / recovery armed) -----------------------------
    def _route_flight(self, request) -> bool:
        flight = self.flights.open(request)
        if not self._dispatch(flight, "primary"):
            self.rejected.add()
            self.flights.reject(flight)
            return False
        if self.recovery is not None and self.recovery.hedging \
                and len(self.hosts) > 1:
            self._arm_hedge(flight)
        return True

    def _dispatch(self, flight, kind: str) -> bool:
        """Admit one copy of the flight somewhere.  The first try is
        free; every alternate after a refusal or link drop consumes one
        budget token.  Hedge/re-dispatch copies never land on a host
        that already holds one."""
        candidates = self.candidates()
        if kind != "primary":
            tried = {a.host.name for a in flight.attempts}
            candidates = [h for h in candidates if h.name not in tried]
        request = flight.request
        free = True
        while candidates:
            if not free:
                if not self.budget.take():
                    self.budget_exhausted.add()
                    return False
                self.retries.add()
            free = False
            host = self.policy.choose(candidates, request)
            if self.chaos is not None and self.chaos.link_down(host.name):
                # Dropped on the LB->host path: the host never saw it.
                self.link_drops.add()
                candidates = [h for h in candidates if h is not host]
                continue
            attempt, copy = self.flights.make_attempt(flight, host, kind)
            if host.admit(copy):
                self.flights.admitted(flight, attempt)
                self._count(host)
                return True
            candidates = [h for h in candidates if h is not host]
        return False

    def _arm_hedge(self, flight) -> None:
        """Arm a speculative second dispatch after a p99-derived delay,
        read now: one timer callback, no process."""
        delay = self.flights.hedge_delay()
        if delay is None:
            deadline = flight.request.deadline_at
            if math.isinf(deadline):
                return
            delay = max(self.recovery.hedge_min_delay_s,
                        self.recovery.hedge_fallback_frac
                        * (deadline - self.env._now))
        Timeout(self.env, delay).callbacks.append(
            lambda _event: self._hedge(flight))

    def _hedge(self, flight) -> None:
        if flight.resolved or self.env._now >= flight.request.deadline_at:
            return
        if not self.budget.take():
            self.budget_exhausted.add()
            return
        if self._dispatch(flight, "hedge"):
            self.hedges.add()

    def on_host_death(self, host) -> None:
        """Death/ejection notification: re-dispatch the still-within-
        deadline requests stranded on this host (budget-gated; the
        sweep expires whatever can't be saved)."""
        if self.flights is None or self.recovery is None \
                or not self.recovery.redispatch:
            return
        now = self.env.now
        for flight, attempt in self.flights.pending_on(host):
            if flight.resolved or attempt.settled or attempt.redispatched:
                continue
            if now >= flight.request.deadline_at:
                continue
            if not self.budget.take():
                self.budget_exhausted.add()
                break
            attempt.redispatched = True
            if self._dispatch(flight, "redispatch"):
                self.redispatches.add()

    def client_stats(self) -> Optional[dict]:
        """Per-host client-side stats (the HealthView's ejection feed);
        None when no flight table is armed."""
        return self.flights.host_stats if self.flights is not None else None

    def in_flight_requests(self) -> int:
        """Client-perspective in-flight count: open flights when armed
        (duplicates collapse to one), host in-flight sums otherwise."""
        if self.flights is not None:
            return self.flights.open_count
        return sum(h.in_flight for h in self.hosts)

    def _count(self, host) -> None:
        self.dispatched.add()
        self.per_host[host.name].add()

    def dispatch_shares(self) -> dict[str, float]:
        """Fraction of dispatched traffic each host received."""
        total = max(self.dispatched.total, 1.0)
        return {name: counter.total / total
                for name, counter in self.per_host.items()}

    def conservation_ok(self) -> bool:
        """LB dispatch counts match the hosts' admission counts (per
        dispatched *copy* when the flight path is armed), and the
        flight ledgers close when present."""
        by_hosts = sum(int(h.handled.total) for h in self.hosts)
        by_lb = sum(int(c.total) for c in self.per_host.values())
        counts_ok = (int(self.dispatched.total) == by_lb
                     and by_lb == by_hosts)
        if self.flights is not None:
            return counts_ok and self.flights.conservation_ok()
        return counts_ok


def zipf_weights(n: int, skew: float) -> np.ndarray:
    """Zipf-like client popularity: weight of client *i* is
    ``1 / (i + 1) ** skew`` (``skew=0`` is uniform)."""
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** -skew
    return weights / weights.sum()


def _check_rate(rate: float) -> None:
    # An infinite rate would make every arrival gap 0 (the source spins
    # at one instant forever); NaN would slip past ``rate <= 0``.
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be finite and > 0, got {rate!r}")


class OpenLoopSource:
    """Deterministic open-loop arrivals fanned through a LoadBalancer."""

    def __init__(self, env: Environment, balancer: LoadBalancer,
                 rate: float, image_hw: tuple[int, int],
                 rng: np.random.Generator, num_clients: int = 32,
                 skew: float = 0.0, deadline_s: Optional[float] = None,
                 size_sampler: Optional[Callable] = None,
                 name: str = "source"):
        _check_rate(rate)
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        self.env = env
        self.balancer = balancer
        self.rate = rate
        self.image_hw = image_hw
        self.rng = rng
        self.num_clients = num_clients
        self.deadline_s = deadline_s
        # A tuple of floats for bisect; the last entry is pinned at 1.0
        # because the cumulative sum can round below it, and a draw above
        # that entry would name a client that does not exist.
        cdf = np.cumsum(zipf_weights(num_clients, skew))
        cdf[-1] = 1.0
        self._cdf = tuple(cdf.tolist())
        self._sampler = size_sampler if size_sampler is not None \
            else jpeg_size_sampler()
        self.sent = Counter(env, name=f"{name}.sent")
        self.completed = Counter(env, name=f"{name}.completed")
        self.expired = Counter(env, name=f"{name}.expired")
        self.failed = Counter(env, name=f"{name}.failed")
        # Outcome observers (e.g. the SLO evaluator): called as
        # ``obs(request, done_event)`` when a request resolves.  Empty
        # by default — no callbacks are even allocated then, so the
        # unobserved path is untouched.  Observers must be passive:
        # evaluator-private accounting only, never sim state.
        self.observers: list = []
        self._next_id = 0
        self.running = False

    def set_rate(self, rate: float) -> None:
        _check_rate(rate)
        self.rate = rate

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.env.process(self._loop(), name="openloop-source")

    def _on_done(self, event) -> None:
        if event._ok:
            self.completed.add()
        elif isinstance(event._value, DeadlineExceeded):
            self.expired.add()
        else:
            self.failed.add()

    def _loop(self):
        h, w = self.image_hw
        while True:
            yield self.env.timeout(1.0 / self.rate)
            now = self.env._now
            draw = self.rng.random()
            client = bisect.bisect_right(self._cdf, draw)
            done = self.env.event()
            done.callbacks.append(self._on_done)
            request = self._make_request(client, done, now, h, w)
            self._next_id += 1
            self.sent.add()
            self.balancer.route(request)

    def _make_request(self, client, done, now, h, w):
        request = NetRequest(
            request_id=self._next_id, client_id=client,
            size_bytes=int(self._sampler(self.rng)),
            height=h, width=w, channels=3,
            sent_at=now, received_at=now, done_event=done,
            deadline_at=(now + self.deadline_s
                         if self.deadline_s is not None else math.inf))
        if self.observers:
            for obs in self.observers:
                done.callbacks.append(
                    lambda event, _req=request, _obs=obs: _obs(_req, event))
        return request

    def conservation_ok(self) -> bool:
        """Every request the source issued has exactly one outcome (or
        is still in flight inside some host)."""
        in_flight = self.balancer.in_flight_requests()
        # Rejected requests are failed by the balancer, so they already
        # land in ``failed`` via the done-event callback.
        resolved = (int(self.completed.total) + int(self.expired.total)
                    + int(self.failed.total))
        return int(self.sent.total) == resolved + in_flight
