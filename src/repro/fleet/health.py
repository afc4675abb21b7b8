"""HealthView — per-host health derived from the signals hosts already
emit, fed back into routing.

No new probes: health is *derived* from the Supervisor's watchdog
stalls, the circuit breaker's state, and the windowed shed fraction —
the same counters the single-host experiments report.  States:

``healthy``    routable, nothing notable.
``degraded``   routable but impaired: breaker open (FPGA path down,
               CPU failover carrying the traffic) or shedding more
               than ``shed_frac_degraded`` of its intake.  Degraded
               hosts stay in the candidate set — a load-aware policy
               routes *around* them by observing their load, which is
               precisely the round-robin vs least-loaded A/B.
``draining``   autoscaler is retiring it; not routable, in-flight work
               finishes.
``dead``       the host crashed (chaos), or the watchdog reported a
               stall and the host completed nothing last window while
               still holding work; not routable.
``ejected``    balancer-side outlier ejection (PR 7): the host's
               *client-observed* success rate or latency EWMA went bad
               for several consecutive windows.  This is the only
               signal that catches gray failures (``host_hang``,
               ``host_slow``) — from the inside such a host looks busy
               and healthy, so supervisor-derived states never fire.
               Not routable; returns to probation after a cooldown
               (hysteresis: one bad window never ejects, and no host
               is ejected forever).

Transitions into DEAD or EJECTED notify the balancer
(``on_host_death``) so still-within-deadline requests stranded on the
host are re-dispatched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import Environment

__all__ = ["HEALTHY", "DEGRADED", "DRAINING", "DEAD", "EJECTED",
           "HostHealth", "OutlierConfig", "HealthView"]

HEALTHY = "healthy"
DEGRADED = "degraded"
DRAINING = "draining"
DEAD = "dead"
EJECTED = "ejected"

ROUTABLE = (HEALTHY, DEGRADED)


@dataclass
class HostHealth:
    state: str
    since: float
    reason: str = ""


@dataclass(frozen=True)
class OutlierConfig:
    """Knobs for balancer-side outlier ejection.

    EWMAs are updated once per evaluation window from the deltas of the
    flight table's per-host client stats; a window with fewer than
    ``min_attempts`` settled attempts leaves the EWMAs untouched (no
    evidence, no movement).  A host is ejected only after
    ``consecutive_bad`` bad windows in a row, never beyond
    ``max_eject_frac`` of the fleet at once, and always returns to
    probation after ``cooldown_s`` with its EWMAs reset — it must
    re-offend on fresh evidence to be ejected again.
    """

    min_attempts: int = 8
    success_floor: float = 0.5
    latency_factor: float = 2.0          # x deadline_s
    deadline_s: Optional[float] = None   # None disables the latency gate
    alpha: float = 0.5                   # EWMA smoothing
    consecutive_bad: int = 2
    cooldown_s: float = 0.25
    max_eject_frac: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.consecutive_bad < 1:
            raise ValueError("consecutive_bad must be >= 1")
        if not 0.0 < self.max_eject_frac <= 1.0:
            raise ValueError("max_eject_frac must be in (0, 1]")
        if self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")


class _EjectionTracker:
    """Per-host EWMA state for the outlier detector."""

    __slots__ = ("succ_ewma", "lat_ewma", "bad_streak", "ejected_until",
                 "ok_mark", "fail_mark", "lat_mark")

    def __init__(self):
        # EWMAs seed from the first evidence window (a fixed optimistic
        # prior would stretch detection by however many windows it
        # takes to wash the prior out).
        self.succ_ewma = None
        self.lat_ewma = None
        self.bad_streak = 0
        self.ejected_until = 0.0
        self.ok_mark = 0
        self.fail_mark = 0
        self.lat_mark = 0.0

    def reset_evidence(self):
        self.succ_ewma = None
        self.lat_ewma = None
        self.bad_streak = 0


class HealthView:
    """Periodically classifies every fleet host; the LoadBalancer asks
    it for the routable candidate set."""

    def __init__(self, env: Environment, balancer,
                 eval_period_s: float = 0.05,
                 shed_frac_degraded: float = 0.05,
                 outlier: Optional[OutlierConfig] = None):
        if eval_period_s <= 0:
            raise ValueError("eval_period_s must be positive")
        self.env = env
        self.balancer = balancer
        self.eval_period_s = eval_period_s
        self.shed_frac_degraded = shed_frac_degraded
        self.outlier = outlier
        self.status: dict[str, HostHealth] = {}
        self.transitions: list[tuple[float, str, str, str, str]] = []
        # host.name -> (handled, shed, completed, stalls) at last update
        self._marks: dict[str, tuple[int, int, int, int]] = {}
        self._ej: dict[str, _EjectionTracker] = {}
        self.running = False

    # -- outlier ejection --------------------------------------------------
    def _ejected_count(self, now: float) -> int:
        return sum(1 for t in self._ej.values() if t.ejected_until > now)

    def _eject_check(self, host, now: float) -> Optional[str]:
        """Returns an ejection reason while the host should be EJECTED,
        else None.  Pure arithmetic over client-stat deltas."""
        cfg = self.outlier
        if cfg is None:
            return None
        stats = self.balancer.client_stats()
        if stats is None:
            return None
        tracker = self._ej.get(host.name)
        if tracker is None:
            tracker = self._ej[host.name] = _EjectionTracker()
        if tracker.ejected_until > now:
            return "ejected (cooldown)"
        if tracker.ejected_until > 0 and tracker.ejected_until <= now:
            # Cooldown just expired: probation — fresh evidence only.
            tracker.ejected_until = 0.0
            tracker.reset_evidence()
        stat = stats.get(host.name)
        if stat is None:
            return None
        d_ok = stat["ok"] - tracker.ok_mark
        d_fail = stat["fail"] - tracker.fail_mark
        d_lat = stat["lat_sum"] - tracker.lat_mark
        tracker.ok_mark, tracker.fail_mark = stat["ok"], stat["fail"]
        tracker.lat_mark = stat["lat_sum"]
        n = d_ok + d_fail
        if n < cfg.min_attempts:
            return None                 # not enough evidence this window
        alpha = cfg.alpha
        if tracker.succ_ewma is None:
            tracker.succ_ewma = d_ok / n
        else:
            tracker.succ_ewma += alpha * (d_ok / n - tracker.succ_ewma)
        if d_ok > 0:
            mean = d_lat / d_ok
            if tracker.lat_ewma is None:
                tracker.lat_ewma = mean
            else:
                tracker.lat_ewma += alpha * (mean - tracker.lat_ewma)
        bad = tracker.succ_ewma < cfg.success_floor
        reason = (f"success EWMA {tracker.succ_ewma:.2f} "
                  f"< {cfg.success_floor}")
        if not bad and cfg.deadline_s is not None \
                and tracker.lat_ewma is not None \
                and tracker.lat_ewma > cfg.latency_factor * cfg.deadline_s:
            bad = True
            reason = (f"latency EWMA {tracker.lat_ewma * 1e3:.1f}ms > "
                      f"{cfg.latency_factor:g}x deadline")
        if not bad:
            tracker.bad_streak = 0
            return None
        tracker.bad_streak += 1
        if tracker.bad_streak < cfg.consecutive_bad:
            return None                 # hysteresis: not yet
        cap = max(1, int(cfg.max_eject_frac * len(self.balancer.hosts)))
        if self._ejected_count(now) >= cap:
            return None                 # never eject past the cap
        tracker.ejected_until = now + cfg.cooldown_s
        tracker.bad_streak = 0
        return f"outlier ejected: {reason}"

    # -- classification ---------------------------------------------------
    def _classify(self, host) -> tuple[str, str]:
        handled = int(host.handled.total)
        shed = host.shed_total()
        completed = int(host.completed.total)
        stalls = host.stalls_detected()
        h0, s0, c0, st0 = self._marks.get(host.name, (0, 0, 0, 0))
        self._marks[host.name] = (handled, shed, completed, stalls)
        d_handled = handled - h0
        d_shed = shed - s0
        d_completed = completed - c0
        if getattr(host, "crashed", False):
            return DEAD, "host crashed"
        if host.draining:
            return DRAINING, "draining"
        if stalls > st0 and d_completed == 0 and d_handled > 0:
            return DEAD, "watchdog stall with zero completions"
        eject_reason = self._eject_check(host, self.env.now)
        if eject_reason is not None:
            return EJECTED, eject_reason
        if host.breaker_open():
            return DEGRADED, "circuit breaker open (FPGA path down)"
        if d_handled > 0 and d_shed / d_handled > self.shed_frac_degraded:
            return DEGRADED, (f"shedding {d_shed}/{d_handled} of intake")
        return HEALTHY, ""

    def update(self) -> None:
        """One evaluation pass over every fleet host."""
        now = self.env.now
        for host in self.balancer.hosts:
            state, reason = self._classify(host)
            prev = self.status.get(host.name)
            if prev is None:
                self.status[host.name] = HostHealth(state, now, reason)
            elif prev.state != state:
                self.transitions.append(
                    (now, host.name, prev.state, state, reason))
                self.status[host.name] = HostHealth(state, now, reason)
                if state in (DEAD, EJECTED):
                    # Stranded requests won't finish here: hand them
                    # back to the balancer for re-dispatch.
                    self.balancer.on_host_death(host)

    def state_of(self, host) -> str:
        health = self.status.get(host.name)
        return health.state if health is not None else HEALTHY

    def candidates(self) -> list:
        """Routable hosts, in stable fleet order."""
        return [h for h in self.balancer.hosts
                if h.accepting and self.state_of(h) in ROUTABLE]

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.update()
        self.env.process(self._loop(), name="healthview")

    def _loop(self):
        while True:
            yield self.env.timeout(self.eval_period_s)
            self.update()

    def render(self) -> str:
        lines = [f"health @ t={self.env.now:.3f}s"]
        for name, health in sorted(self.status.items()):
            line = f"  {name}: {health.state} (since {health.since:.3f}s)"
            if health.reason:
                line += f" — {health.reason}"
            lines.append(line)
        return "\n".join(lines)
