"""The link's FIFO recursion against the event-driven spec.

The spec is the link as it was built on kernel events: a transfer takes
the capacity-1 serializer from a :class:`~repro.sim.Resource`, then
holds it for a timeout of its wire time.  :class:`~repro.net.Link`
computes each transfer's end when it is issued, so this property drives
both side by side, on the same issue times and the same injected packet
losses, and requires the same completions, to the bit, in the same
order, and the same readings of its instruments at any instant.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Link
from repro.sim import BusyTracker, Counter, Environment, Resource


class SpecLink:
    """The link with a serializer grant and a timeout per transfer."""

    def __init__(self, env, rate_bytes_per_s, mtu, injector=None,
                 name="link"):
        self.env = env
        self.name = name
        self.rate = rate_bytes_per_s
        self.mtu = mtu
        self.injector = injector
        self._serializer = Resource(env, capacity=1)
        self.bytes_sent = Counter(env, name=f"{name}.bytes")
        self.retransmitted_packets = Counter(env, name=f"{name}.rexmit")
        self.busy = BusyTracker(env, name=f"{name}.busy")

    def packets_for(self, nbytes):
        return -(-nbytes // self.mtu)

    def transmit(self, nbytes):
        wire_bytes = nbytes
        if self.injector is not None:
            lost = self.injector.nic_loss_burst(self.name)
            if lost:
                lost = min(lost, self.packets_for(nbytes))
                self.retransmitted_packets.add(lost)
                wire_bytes += lost * self.mtu
        grant = self._serializer.request()
        yield grant
        tok = self.busy.begin("tx")
        try:
            yield self.env.timeout(wire_bytes / self.rate)
            self.bytes_sent.add(nbytes)
        finally:
            self.busy.end(tok)
            self._serializer.release(grant)

    def utilization(self):
        return self.busy.cores("tx")


class LossStub:
    """An injector that loses the drawn bursts, one per transmit, in
    issue order (then none)."""

    def __init__(self, bursts):
        self._bursts = iter(bursts)

    def nic_loss_burst(self, site):
        return next(self._bursts, 0)


def run_senders(env, link, senders, log, order):
    """Each sender issues its transfers after its gaps, without waiting
    for them.  ``log[i]`` gets transfer i's completion time and
    ``order`` the transfers in the order their senders resume."""
    def transfer(i, size):
        yield from link.transmit(size)
        log[i] = env.now
        order.append(i)

    def sender(first, transfers):
        for k, (gap, size) in enumerate(transfers):
            if gap:
                yield env.timeout(gap)
            env.process(transfer(first + k, size))

    first = 0
    for transfers in senders:
        env.process(sender(first, transfers))
        first += len(transfers)
    return first


def observe(link):
    return (link.bytes_sent.total, link.retransmitted_packets.total,
            link.busy.busy_seconds(), link.busy.busy_seconds("tx"),
            link.utilization(), list(link.busy.breakdown().items()))


rates = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                  st.floats(min_value=0.2, max_value=8.0))
# Gaps repeat, so issue times tie; 0.1 and 0.3 are inexact in binary,
# so sums of them round.
gaps = st.one_of(st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.3, 0.5, 1.0]),
                 st.floats(min_value=0.0, max_value=1.0))
transfers = st.lists(st.tuples(gaps, st.integers(min_value=1, max_value=8)),
                     min_size=1, max_size=12)


@settings(deadline=None)
@given(rate=rates, mtu=st.integers(min_value=1, max_value=4),
       senders=st.lists(transfers, min_size=1, max_size=8),
       bursts=st.one_of(st.none(),
                        st.lists(st.integers(min_value=0, max_value=4),
                                 max_size=40)),
       probes=st.lists(st.floats(min_value=0.0, max_value=60.0),
                       max_size=5))
def test_folded_link_matches_the_evented_spec(rate, mtu, senders, bursts,
                                              probes):
    def build(link_cls):
        env = Environment()
        injector = LossStub(bursts) if bursts is not None else None
        link = link_cls(env, rate, mtu=mtu, injector=injector)
        log, order = {}, []
        count = run_senders(env, link, senders, log, order)
        return env, link, log, order, count

    spec = build(SpecLink)
    folded = build(Link)
    for probe in sorted(probes):
        for env, *_ in (spec, folded):
            env.run(until=probe)
        assert observe(folded[1]) == observe(spec[1])
    for env, *_ in (spec, folded):
        env.run()
    assert folded[2] == spec[2]
    assert folded[3] == spec[3]
    assert len(spec[2]) == spec[4]
    assert observe(folded[1]) == observe(spec[1])
