"""Autoscaler — add and drain hosts from fleet telemetry.

Signals (evaluated every ``eval_period_s`` over the *active* fleet):

* **backlog seconds** — total in-flight work normalized by aggregate
  capacity: how far behind the fleet is;
* **shed fraction** — the slice of last-window intake that deadline
  shedding discarded;
* **p99 burn** — last-window p99 turnaround against the request
  deadline (when one is configured).

Scale-up fires after ``sustain_up`` consecutive hot windows (and out of
cool-down): the ``host_factory`` builds a fresh host, it starts, and
the LoadBalancer routes to it from the next request on.  Scale-down
fires after ``sustain_down`` consecutive cold windows: the newest
active host is put into ``draining`` — no new work, in-flight requests
finish — mirroring how real groups retire instances.  Both directions
respect independent cool-downs so one burst cannot thrash the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim import Counter, Environment, LatencyRecorder

__all__ = ["AutoscalerConfig", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    eval_period_s: float = 0.05
    # scale-up triggers (any one)
    backlog_up_s: float = 0.02       # queued seconds of work per capacity
    shed_frac_up: float = 0.02       # fraction of intake shed last window
    p99_burn_up: float = 0.8         # window p99 / deadline
    sustain_up: int = 2              # consecutive hot windows required
    cooldown_up_s: float = 0.15
    # scale-down triggers (all)
    backlog_down_s: float = 0.005
    util_down: float = 0.6           # fleet goodput/capacity with one
                                     # host fewer must stay under this
    sustain_down: int = 6
    cooldown_down_s: float = 0.4
    min_hosts: int = 1
    max_hosts: int = 8

    def __post_init__(self):
        if self.eval_period_s <= 0:
            raise ValueError("eval_period_s must be positive")
        if self.min_hosts < 1 or self.max_hosts < self.min_hosts:
            raise ValueError("need 1 <= min_hosts <= max_hosts")


class Autoscaler:
    """Drives fleet size from the balancer's aggregate telemetry."""

    def __init__(self, env: Environment, balancer,
                 host_factory: Callable[[int], object],
                 config: Optional[AutoscalerConfig] = None,
                 deadline_s: Optional[float] = None,
                 name: str = "autoscaler"):
        self.env = env
        self.balancer = balancer
        self.host_factory = host_factory
        self.config = config if config is not None else AutoscalerConfig()
        self.deadline_s = deadline_s
        self.name = name
        self.scale_ups = Counter(env, name=f"{name}.ups")
        self.scale_downs = Counter(env, name=f"{name}.downs")
        # (t, "add" | "drain", host_name, reason)
        self.events: list[tuple[float, str, str, str]] = []
        self._hot = 0
        self._cold = 0
        self._last_up_t = -float("inf")
        self._last_down_t = -float("inf")
        self._shed_marks: dict[str, int] = {}
        self._handled_marks: dict[str, int] = {}
        self._completed_marks: dict[str, int] = {}
        self.running = False

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.env.process(self._loop(), name=self.name)

    def _loop(self):
        while True:
            yield self.env.timeout(self.config.eval_period_s)
            self._evaluate()

    # -- signal evaluation ------------------------------------------------
    def _window(self, active) -> dict[str, float]:
        """Aggregate last-window signals over the active hosts."""
        capacity = sum(h.capacity_estimate() for h in active)
        in_flight = sum(h.in_flight for h in active)
        d_shed = d_handled = d_completed = 0
        merged = LatencyRecorder(name=f"{self.name}.window")
        for host in active:
            shed, handled = host.shed_total(), int(host.handled.total)
            completed = int(host.completed.total)
            d_shed += shed - self._shed_marks.get(host.name, 0)
            d_handled += handled - self._handled_marks.get(host.name, 0)
            d_completed += (completed
                            - self._completed_marks.get(host.name, 0))
            self._shed_marks[host.name] = shed
            self._handled_marks[host.name] = handled
            self._completed_marks[host.name] = completed
            merged.merge(host.take_window())
        goodput = d_completed / self.config.eval_period_s
        return {
            "capacity": capacity,
            "backlog_s": in_flight / max(capacity, 1e-9),
            "shed_frac": d_shed / max(d_handled, 1),
            "p99_s": merged.p99() if merged.count else 0.0,
            "goodput": goodput,
        }

    def _evaluate(self) -> None:
        cfg = self.config
        active = self.balancer.active_hosts()
        if not active:
            return
        sig = self._window(active)
        hot = (sig["backlog_s"] > cfg.backlog_up_s
               or sig["shed_frac"] > cfg.shed_frac_up
               or (self.deadline_s is not None
                   and sig["p99_s"] > cfg.p99_burn_up * self.deadline_s))
        smaller_cap = sig["capacity"] * (len(active) - 1) / len(active)
        cold = (not hot
                and sig["backlog_s"] < cfg.backlog_down_s
                and sig["shed_frac"] == 0.0
                and len(active) > 1
                and sig["goodput"] < cfg.util_down * smaller_cap)
        self._hot = self._hot + 1 if hot else 0
        self._cold = self._cold + 1 if cold else 0
        now = self.env.now
        if (self._hot >= cfg.sustain_up
                and len(active) < cfg.max_hosts
                and now - self._last_up_t >= cfg.cooldown_up_s):
            self._scale_up(sig)
        elif (self._cold >= cfg.sustain_down
              and len(active) > cfg.min_hosts
              and now - self._last_down_t >= cfg.cooldown_down_s):
            self._scale_down(active, sig)

    def _scale_up(self, sig: dict) -> None:
        host = self.host_factory(len(self.balancer.hosts))
        host.start()
        self.balancer.add_host(host)
        self.scale_ups.add()
        self._hot = 0
        self._last_up_t = self.env.now
        reason = (f"backlog {sig['backlog_s'] * 1e3:.1f} ms/cap, "
                  f"shed {sig['shed_frac']:.1%}, "
                  f"p99 {sig['p99_s'] * 1e3:.1f} ms")
        self.events.append((self.env.now, "add", host.name, reason))

    def _scale_down(self, active, sig: dict) -> None:
        host = active[-1]          # retire the newest active host
        host.drain()
        self.scale_downs.add()
        self._cold = 0
        self._last_down_t = self.env.now
        reason = (f"backlog {sig['backlog_s'] * 1e3:.1f} ms/cap, "
                  f"goodput {sig['goodput']:.0f}/s of "
                  f"{sig['capacity']:.0f}/s capacity")
        self.events.append((self.env.now, "drain", host.name, reason))

    # -- reporting --------------------------------------------------------
    def additions(self) -> list[tuple[float, str, str, str]]:
        return [e for e in self.events if e[1] == "add"]

    def drains(self) -> list[tuple[float, str, str, str]]:
        return [e for e in self.events if e[1] == "drain"]
