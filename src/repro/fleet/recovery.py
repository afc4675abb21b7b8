"""Recovery machinery for a fleet under fault: retry budgets, request
flights, hedging/re-dispatch bookkeeping, and the deadline sweep.

The central object is the :class:`FlightTable` — the LoadBalancer's
client-side ledger.  When the fleet is chaos-armed (or recovery is
enabled), every request the balancer routes becomes a :class:`Flight`:
the client's real ``done_event`` is held by the table, and each
dispatched copy (primary, hedge, or re-dispatch) travels with its own
per-attempt *proxy* event.  The first attempt to complete wins and
settles the client; every other copy is cancelled and counted.  This is
what makes duplicates safe: host-side ledgers stay per-attempt exact,
while the client sees exactly one outcome per request.

Chaos interference happens on the completion path, through hooks the
attached :class:`~repro.fleet.chaos.FleetChaos` controller answers:

* a **crashed** host's completions are discarded (the connection died
  with the host — counted ``blackholed``);
* a **hung** host's completions are swallowed with the armed
  probability (gray failure: the host looks healthy from the inside);
* a **slow** host's completions are delayed by the armed inflation
  before they reach the client.

Requests whose every copy was black-holed are *reaped* by a periodic
sweep once their deadline passes: the client learns (``expired``), the
stranded per-attempt proxies are reclaimed so host ledgers close, and
the failure is attributed to the hosts that sat on the work — the
signal balancer-side outlier ejection feeds on.

None of this exists on an unarmed balancer: no proxy events, no sweep
process, no flights — the PR 6 fleet path is untouched, which is what
keeps fault-free runs bit-identical.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

from ..sim import Counter, Environment, LatencyRecorder
from ..supervision import DeadlineExceeded

__all__ = ["AttemptCancelled", "RetryBudget", "RecoveryConfig",
           "Attempt", "Flight", "FlightTable"]


class AttemptCancelled(ConnectionError):
    """A dispatched copy was cancelled because its flight already
    resolved (a duplicate lost the race) or because the sweep reclaimed
    it from a dead host."""


class RetryBudget:
    """Token bucket gating every extra dispatch the balancer makes.

    Alternate retries, hedges and re-dispatches all draw from one
    bucket, so recovery can never amplify an outage into a retry storm:
    once the bucket is dry, extra copies stop and requests fall through
    to their normal outcome.  Refill is lazy (computed from ``env.now``
    at each take), so an armed-but-idle budget costs no events.
    """

    def __init__(self, env: Environment, rate_per_s: float = 1000.0,
                 burst: float = 100.0, name: str = "lb.budget"):
        if rate_per_s < 0 or burst <= 0:
            raise ValueError("need rate_per_s >= 0 and burst > 0")
        self.env = env
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._tokens = burst
        self._last = env.now
        self.granted = Counter(env, name=f"{name}.granted")
        self.exhausted = Counter(env, name=f"{name}.exhausted")

    def _refill(self) -> None:
        now = self.env._now
        if now > self._last:
            self._tokens = min(self.burst,
                               self._tokens
                               + (now - self._last) * self.rate_per_s)
            self._last = now

    def available(self) -> float:
        self._refill()
        return self._tokens

    def take(self) -> bool:
        """Consume one token; False (and counted) when the bucket is dry."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.granted.add()
            return True
        self.exhausted.add()
        return False


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs for the balancer's recovery machinery.

    ``hedge_delay_s=None`` derives the hedge delay from the windowed
    p99 of resolved client latencies (falling back to
    ``hedge_fallback_frac`` of the deadline until ``hedge_min_samples``
    resolutions exist).  The budget parameters bound *all* extra
    dispatches — alternate retries, hedges and re-dispatches share one
    bucket.  ``sweep_period_s`` paces the deadline reaper that turns
    black-holed requests into ``expired`` outcomes.
    """

    redispatch: bool = True
    hedging: bool = True
    hedge_delay_s: Optional[float] = None
    hedge_min_samples: int = 32
    hedge_fallback_frac: float = 0.6     # x deadline, before p99 exists
    hedge_min_delay_s: float = 0.002
    budget_rate_per_s: float = 1000.0
    budget_burst: float = 100.0
    sweep_period_s: float = 0.005
    deadline_grace_s: float = 0.0

    def __post_init__(self):
        if self.sweep_period_s <= 0:
            raise ValueError("sweep_period_s must be positive")
        if self.hedge_min_delay_s < 0 or self.deadline_grace_s < 0:
            raise ValueError("delays must be >= 0")


class Attempt:
    """One dispatched copy of a request."""

    __slots__ = ("host", "proxy", "kind", "dispatched_at", "settled",
                 "cancelled", "reclaimed", "redispatched", "blackholed")

    def __init__(self, host, proxy, kind: str, dispatched_at: float):
        self.host = host
        self.proxy = proxy
        self.kind = kind                  # primary | hedge | redispatch
        self.dispatched_at = dispatched_at
        self.settled = False
        self.cancelled = False            # we failed the proxy ourselves
        self.reclaimed = False            # ...from a dead host, at sweep
        self.redispatched = False         # a replacement copy was issued
        self.blackholed = False           # completion swallowed by chaos


class Flight:
    """One client request's lifetime across all its dispatched copies."""

    __slots__ = ("key", "request", "real_done", "attempts", "resolved",
                 "outcome", "opened_at")

    def __init__(self, key: int, request, real_done, opened_at: float):
        self.key = key
        self.request = request            # the client's original object
        self.real_done = real_done
        self.attempts: list[Attempt] = []
        self.resolved = False
        self.outcome: str = "open"
        self.opened_at = opened_at

    @property
    def deadline_at(self) -> float:
        return getattr(self.request, "deadline_at", math.inf)

    def pending_attempts(self) -> list[Attempt]:
        return [a for a in self.attempts if not a.settled]


class FlightTable:
    """Client-side ledger: flights, attempts, outcomes, conservation.

    Request-level identity (exact at any instant)::

        flights == completed + redispatched_completed + expired
                   + shed + failed + rejected + open

    Attempt-level identity (dispatched copies)::

        attempts == wins + attempt_shed + attempt_failed
                    + cancelled_duplicates + blackholed + outstanding

    where ``wins == completed + redispatched_completed`` and
    ``cancelled_duplicates`` includes the stranded copies the sweep
    reclaimed from dead hosts (``stranded_reclaimed`` sub-counts them).
    """

    def __init__(self, env: Environment, chaos=None,
                 recovery: Optional[RecoveryConfig] = None,
                 name: str = "lb.flights"):
        self.env = env
        self.chaos = chaos
        self.recovery = recovery if recovery is not None else RecoveryConfig()
        self.name = name
        self._seq = 0
        self._open: dict[int, Flight] = {}
        # host name -> {flight key -> (flight, attempt)} of unsettled
        # attempts; what re-dispatch walks on a death notification.
        self._pending: dict[str, dict[int, tuple]] = {}
        # host name -> cumulative client-side stats (HealthView ejection
        # takes window deltas of these).
        self.host_stats: dict[str, dict] = {}
        # request-level outcomes
        self.flights = Counter(env, name=f"{name}.opened")
        self.completed = Counter(env, name=f"{name}.completed")
        self.redispatched_completed = Counter(
            env, name=f"{name}.redispatched_completed")
        self.expired = Counter(env, name=f"{name}.expired")
        self.shed = Counter(env, name=f"{name}.shed")
        self.failed = Counter(env, name=f"{name}.failed")
        self.rejected = Counter(env, name=f"{name}.rejected")
        # attempt-level outcomes
        self.attempts = Counter(env, name=f"{name}.attempts")
        self.attempt_shed = Counter(env, name=f"{name}.attempt_shed")
        self.attempt_failed = Counter(env, name=f"{name}.attempt_failed")
        self.cancelled_duplicates = Counter(
            env, name=f"{name}.cancelled_duplicates")
        self.stranded_reclaimed = Counter(
            env, name=f"{name}.stranded_reclaimed")
        self.blackholed = Counter(env, name=f"{name}.blackholed")
        # client-side latency of resolved-ok flights (hedge delay + the
        # rollup's client-perceived percentiles when armed)
        self.client_latency = LatencyRecorder(name=f"{name}.client")
        # completions currently delayed inside a chaos slow-relay: they
        # have left the host ledger but not yet reached a flight outcome
        self._relaying = 0
        self.running = False

    # -- opening / dispatching -------------------------------------------
    @property
    def open_count(self) -> int:
        return len(self._open)

    def open(self, request) -> Flight:
        """Begin tracking one routed request; the client's done event is
        detached here and settled only by this table."""
        self._seq += 1
        flight = Flight(self._seq, request, request.done_event,
                        self.env._now)
        self._open[flight.key] = flight
        self.flights.add()
        return flight

    def make_attempt(self, flight: Flight, host, kind: str):
        """A per-attempt request copy carrying its own proxy event.

        The copy shares payload/deadline/identity with the original but
        never the client's ``done_event`` — a late shed deep inside one
        host can only ever settle its own attempt.
        """
        proxy = self.env.event()
        attempt = Attempt(host, proxy, kind, self.env._now)
        proxy.callbacks.append(
            lambda event, f=flight, a=attempt: self._on_settled(f, a, event))
        copy = dataclasses.replace(
            flight.request, done_event=proxy,
            trace=flight.request.trace if kind == "primary" else None)
        return attempt, copy

    def admitted(self, flight: Flight, attempt: Attempt) -> None:
        """Record an attempt that a host accepted."""
        flight.attempts.append(attempt)
        self.attempts.add()
        self._pending.setdefault(attempt.host.name, {})[flight.key] = \
            (flight, attempt)

    def reject(self, flight: Flight) -> None:
        """No host admitted any copy: fail the client like the legacy
        path does (ConnectionError -> the source counts ``failed``)."""
        flight.resolved = True
        flight.outcome = "rejected"
        self.rejected.add()
        if flight.real_done is not None \
                and not flight.real_done.triggered:
            flight.real_done.fail(ConnectionError(
                f"no route for request {flight.request.request_id}"))
        self._close(flight)

    def pending_on(self, host) -> list[tuple]:
        """(flight, attempt) pairs outstanding on one host, in dispatch
        order — the re-dispatch walk."""
        return list(self._pending.get(host.name, {}).values())

    # -- per-host client-side stats --------------------------------------
    def _stat(self, host_name: str) -> dict:
        stat = self.host_stats.get(host_name)
        if stat is None:
            stat = {"ok": 0, "fail": 0, "lat_sum": 0.0}
            self.host_stats[host_name] = stat
        return stat

    # -- settlement -------------------------------------------------------
    def _unindex(self, flight: Flight, attempt: Attempt) -> None:
        pending = self._pending.get(attempt.host.name)
        if pending is not None:
            entry = pending.get(flight.key)
            if entry is not None and entry[1] is attempt:
                del pending[flight.key]

    def _on_settled(self, flight: Flight, attempt: Attempt, event) -> None:
        attempt.settled = True
        self._unindex(flight, attempt)
        if event._ok:
            self._on_attempt_ok(flight, attempt)
        else:
            self._on_attempt_fail(flight, attempt, event._value)

    def _on_attempt_ok(self, flight: Flight, attempt: Attempt) -> None:
        if flight.resolved:
            self.cancelled_duplicates.add()
            return
        chaos = self.chaos
        if chaos is not None:
            if chaos.discard_completion(attempt.host):
                # The host died with the answer in flight: the client's
                # connection is gone, the completion evaporates.
                attempt.blackholed = True
                self.blackholed.add()
                return
            if chaos.hang_blackhole(attempt.host):
                attempt.blackholed = True
                self.blackholed.add()
                return
            extra = chaos.slow_extra_s(attempt.host)
            if extra > 0.0:
                self._relaying += 1
                self.env.process(self._slow_relay(flight, attempt, extra),
                                 name="chaos-slow-relay")
                return
        self._resolve_ok(flight, attempt)

    def _slow_relay(self, flight: Flight, attempt: Attempt, extra: float):
        yield self.env.timeout(extra)
        self._relaying -= 1
        if flight.resolved:
            self.cancelled_duplicates.add()
            return
        self._resolve_ok(flight, attempt)

    def _resolve_ok(self, flight: Flight, attempt: Attempt) -> None:
        flight.resolved = True
        latency = self.env._now - flight.request.sent_at
        stat = self._stat(attempt.host.name)
        stat["ok"] += 1
        stat["lat_sum"] += latency
        self.client_latency.record(latency)
        if attempt.kind == "primary":
            flight.outcome = "completed"
            self.completed.add()
        else:
            flight.outcome = "redispatched_completed"
            self.redispatched_completed.add()
        if flight.real_done is not None \
                and not flight.real_done.triggered:
            flight.real_done.succeed()
        self._cancel_pending(flight, reclaim=False)
        self._close(flight)

    def _on_attempt_fail(self, flight: Flight, attempt: Attempt,
                         exc) -> None:
        if attempt.cancelled:
            self.cancelled_duplicates.add()
            if attempt.reclaimed:
                self.stranded_reclaimed.add()
            return
        if flight.resolved:
            self.cancelled_duplicates.add()
            return
        self._stat(attempt.host.name)["fail"] += 1
        is_shed = isinstance(exc, DeadlineExceeded)
        if is_shed:
            self.attempt_shed.add()
        else:
            self.attempt_failed.add()
        if flight.pending_attempts():
            # A hedge or re-dispatch is still out — the flight lives on.
            return
        if any(a.blackholed for a in flight.attempts):
            # Someone swallowed a completion; the sweep will expire the
            # flight at its deadline so the black-holing is *counted*.
            return
        flight.resolved = True
        if is_shed:
            flight.outcome = "shed"
            self.shed.add()
        else:
            flight.outcome = "failed"
            self.failed.add()
        if flight.real_done is not None \
                and not flight.real_done.triggered:
            flight.real_done.fail(exc)
        self._close(flight)

    def _cancel_pending(self, flight: Flight, reclaim: bool) -> None:
        for attempt in flight.attempts:
            if attempt.settled:
                continue
            attempt.cancelled = True
            attempt.reclaimed = reclaim
            attempt.proxy.fail(AttemptCancelled(
                f"attempt on {attempt.host.name} cancelled "
                f"({'reclaimed' if reclaim else 'duplicate lost'})"))

    def _close(self, flight: Flight) -> None:
        self._open.pop(flight.key, None)

    # -- the deadline sweep (reaper) --------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.env.process(self._sweep_loop(), name="flight-sweep")

    def _sweep_loop(self):
        period = self.recovery.sweep_period_s
        while True:
            yield self.env.timeout(period)
            self.sweep()

    def sweep(self) -> int:
        """Expire every open flight whose deadline (+grace) has passed:
        the client learns, stranded attempt proxies are reclaimed (so
        host ledgers close), and the miss is attributed per host."""
        now = self.env.now
        grace = self.recovery.deadline_grace_s
        reaped = 0
        for flight in list(self._open.values()):
            if flight.resolved or now < flight.deadline_at + grace:
                continue
            flight.resolved = True
            flight.outcome = "expired"
            self.expired.add()
            reaped += 1
            for attempt in flight.attempts:
                # The request timed out on every host that held a copy
                # — each one failed it, from where the client stands.
                self._stat(attempt.host.name)["fail"] += 1
            if flight.real_done is not None \
                    and not flight.real_done.triggered:
                flight.real_done.fail(DeadlineExceeded(
                    f"request {flight.request.request_id} black-holed: "
                    f"deadline passed with no completion"))
            self._cancel_pending(flight, reclaim=True)
            self._close(flight)
        return reaped

    # -- hedge delay -------------------------------------------------------
    def hedge_delay(self) -> Optional[float]:
        """The speculative-dispatch delay: configured, or p99-derived
        from resolved client latencies, or a deadline fraction until
        enough resolutions exist.  None disables hedging for now."""
        cfg = self.recovery
        if cfg.hedge_delay_s is not None:
            return max(cfg.hedge_min_delay_s, cfg.hedge_delay_s)
        if self.client_latency.count >= cfg.hedge_min_samples:
            return max(cfg.hedge_min_delay_s, self.client_latency.p99())
        return None

    # -- conservation ------------------------------------------------------
    def conservation(self) -> dict:
        wins = (int(self.completed.total)
                + int(self.redispatched_completed.total))
        outstanding = sum(len(d) for d in self._pending.values())
        flights = int(self.flights.total)
        attempts = int(self.attempts.total)
        request_closed = (int(self.completed.total)
                          + int(self.redispatched_completed.total)
                          + int(self.expired.total) + int(self.shed.total)
                          + int(self.failed.total)
                          + int(self.rejected.total))
        attempt_closed = (wins + int(self.attempt_shed.total)
                          + int(self.attempt_failed.total)
                          + int(self.cancelled_duplicates.total)
                          + int(self.blackholed.total))
        outstanding += self._relaying   # settled at the host, still in
        # the slow-relay pipe — no final outcome yet
        return {
            "flights": flights,
            "attempts": attempts,
            "completed": int(self.completed.total),
            "redispatched_completed": int(self.redispatched_completed.total),
            "expired": int(self.expired.total),
            "shed": int(self.shed.total),
            "failed": int(self.failed.total),
            "rejected": int(self.rejected.total),
            "attempt_shed": int(self.attempt_shed.total),
            "attempt_failed": int(self.attempt_failed.total),
            "cancelled_duplicates": int(self.cancelled_duplicates.total),
            "stranded_reclaimed": int(self.stranded_reclaimed.total),
            "blackholed": int(self.blackholed.total),
            "open": self.open_count,
            "relaying": self._relaying,
            "outstanding_attempts": outstanding,
            "request_ledger_ok": flights == request_closed + self.open_count,
            "attempt_ledger_ok": attempts == attempt_closed + outstanding,
        }

    def conservation_ok(self) -> bool:
        ledgers = self.conservation()
        return ledgers["request_ledger_ok"] and ledgers["attempt_ledger_ok"]
