"""Point-to-point link model (the 40 Gbps fabric of S5.3).

Transmissions serialize on the link's bandwidth and are chopped into
MTU-sized packets; each packet also charges a small per-packet host cost
on the receive side (interrupt/softirq work) to the NIC's CPU tracker.

The link is a capacity-1 FIFO server, so a transfer's schedule is known
when it is issued.  Numbering transfers n in issue order, with t(n) the
issue time:

    start(n) = max(t(n), end(n - 1))
    end(n)   = start(n) + wire_bytes(n) / rate

:meth:`Link.transmit` evaluates this recursion at issue, with the same
float operations as a grant from a capacity-1 resource followed by a
timeout, and yields one event, pushed at end(n) itself.

An armed :class:`~repro.faults.FaultInjector` can lose a burst of
packets per transmit (``nic_loss``), drawn at issue; the lost packets
are retransmitted, so the transfer pays extra wire time and the
``retransmitted_packets`` counter records the loss.  Loss changes a
transfer's wire bytes, not the order.
"""

from __future__ import annotations

from ..sim import BusyTracker, Counter, Environment, Event
from ..sim.core import TRIGGERED, _schedule_at

__all__ = ["Link"]


class Link:
    """A shared full-duplex pipe; we model the client->server direction."""

    def __init__(self, env: Environment, rate_bytes_per_s: float,
                 mtu: int = 9000, name: str = "link", injector=None):
        if rate_bytes_per_s <= 0:
            raise ValueError("link rate must be positive")
        if mtu <= 0:
            raise ValueError("mtu must be positive")
        self.env = env
        self.name = name
        self.rate = rate_bytes_per_s
        self.mtu = mtu
        self.injector = injector
        self._free = env.now        # end(n - 1) of the recursion
        self.bytes_sent = Counter(env, name=f"{name}.bytes")
        self.retransmitted_packets = Counter(env, name=f"{name}.rexmit")
        self.busy = BusyTracker(env, name=f"{name}.busy")

    def packets_for(self, nbytes: int) -> int:
        return -(-nbytes // self.mtu)

    def transmit(self, nbytes: int):
        """Generator: completes when the last byte is on the wire."""
        if nbytes <= 0:
            raise ValueError(f"transmit size must be positive, got {nbytes}")
        wire_bytes = nbytes
        if self.injector is not None:
            lost = self.injector.nic_loss_burst(self.name)
            if lost:
                # Lost packets ride the wire twice; goodput stays nbytes.
                lost = min(lost, self.packets_for(nbytes))
                self.retransmitted_packets.add(lost)
                wire_bytes += lost * self.mtu
        env = self.env
        start = self._free
        if start < env._now:
            start = env._now
        end = self._free = start + wire_bytes / self.rate
        tok = self.busy.begin_at(start, "tx")
        done = Event(env)
        done._state = TRIGGERED
        _schedule_at(env, end, done)
        yield done
        self.bytes_sent.add(nbytes)
        self.busy.end(tok)

    def utilization(self) -> float:
        return self.busy.cores("tx")
