"""Declarative fault plans.

A :class:`FaultPlan` is an immutable list of :class:`FaultSpec` entries,
each describing one fault model armed against one injection *site* (a
component name, or ``"*"`` for every site that consults that kind).
Plans are pure data — they carry no randomness of their own; the
:class:`~repro.faults.injector.FaultInjector` draws every stochastic
decision from named :class:`~repro.sim.rand.SeedBank` streams, so a
given ``(seed, plan)`` pair replays bit-identically.

Fault kinds
-----------
``payload_corrupt``   flip bytes inside the JPEG scan (functional mode)
                      or poison the cmd's metadata (modeled mode); the
                      decoder raises a typed :class:`JpegDecodeError`
                      and emits an *error* FINISH record.
``payload_truncate``  cut the JPEG payload short — same error surface,
                      classified as a truncated stream.
``payload_bitflip``   *silent* corruption: bytes change but the decoder
                      still reports a successful FINISH (bit flips in
                      the entropy-coded scan that still parse).  Only
                      end-to-end integrity verification
                      (:mod:`repro.supervision`) catches it.
``cmd_drop``          the cmd vanishes between host and FPGA FIFO; no
                      FINISH record will ever arrive (Algorithm 1's
                      silent-loss case).
``finish_stall``      the FINISH record is delayed by ``magnitude``
                      seconds after the DMA write — exercising the
                      reader's deadline + duplicate-suppression path.
``decoder_crash``     the decoder is dark during ``[start, stop)``:
                      every cmd accepted in the window is lost.  Drives
                      the circuit-breaker failover.
``nvme_error``        a disk read fails with ``NvmeReadError``.
``nvme_latency``      a disk read pays ``magnitude`` extra seconds of
                      access latency (device stall / GC pause).
``nic_loss``          a transmit loses a burst of ``magnitude`` packets
                      which must be retransmitted (extra wire time).

Fleet-site fault kinds (consumed by :mod:`repro.fleet.chaos`, never by
in-host components; ``site`` names a *host* — or a *zone* for
``zone_outage``):

``host_crash``        the whole pipeline dies at ``start``: the host
                      stops accepting, and every in-flight request is
                      black-holed (its completion, if the simulated
                      silicon still produces one, is discarded at the
                      balancer — the client's connection is dead).
``host_hang``         gray failure: the host keeps admitting requests
                      but its completion rate collapses — each
                      completion is silently swallowed with probability
                      ``rate`` during ``[start, stop)``.  Invisible to
                      supervisor signals (the host looks busy and
                      healthy from the inside); only balancer-side
                      outlier ejection catches it.
``host_slow``         uniform service-time inflation: every completion
                      is delayed by ``magnitude`` extra seconds during
                      the window (degraded preprocessing worker /
                      straggler).
``link_partition``    the LB<->host dispatch path is down for the whole
                      ``[start, stop)`` window: every dispatch to the
                      host is dropped before admission.
``link_flap``         lossy dispatch path: each dispatch to the host is
                      dropped with probability ``rate`` during the
                      window.
``zone_outage``       correlated ``host_crash`` of every host whose
                      configured ``zone`` equals ``site``, at ``start``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["FAULT_KINDS", "FLEET_FAULT_KINDS", "FaultSpec", "FaultPlan"]

FAULT_KINDS = (
    "payload_corrupt",
    "payload_truncate",
    "payload_bitflip",
    "cmd_drop",
    "finish_stall",
    "decoder_crash",
    "nvme_error",
    "nvme_latency",
    "nic_loss",
    "host_crash",
    "host_hang",
    "host_slow",
    "link_partition",
    "link_flap",
    "zone_outage",
)

# The subset that targets fleet sites (hosts / zones) rather than
# in-host components; repro.fleet.chaos consumes exactly these.
FLEET_FAULT_KINDS = (
    "host_crash",
    "host_hang",
    "host_slow",
    "link_partition",
    "link_flap",
    "zone_outage",
)


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault model.

    ``rate`` is the per-opportunity Bernoulli probability (ignored by
    ``decoder_crash``, which is a deterministic outage window).
    ``magnitude`` is kind-specific: stall/extra-latency seconds, or the
    lost-packet burst length for ``nic_loss``.  ``limit`` caps the total
    number of injections (``None`` = unlimited).
    """

    kind: str
    site: str = "*"
    rate: float = 0.0
    start: float = 0.0
    stop: float = math.inf
    magnitude: float = 0.0
    limit: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"bad window [{self.start}, {self.stop})")
        if self.magnitude < 0:
            raise ValueError(f"negative magnitude {self.magnitude}")
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")

    def matches(self, site: str) -> bool:
        return self.site == "*" or self.site == site

    def active(self, now: float) -> bool:
        return self.start <= now < self.stop


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, hashable collection of armed fault specs."""

    specs: tuple[FaultSpec, ...] = ()
    name: str = "plan"

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def with_spec(self, spec: FaultSpec) -> "FaultPlan":
        return FaultPlan(self.specs + (spec,), name=self.name)

    def by_kind(self, kind: str) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind == kind)

    def fleet_specs(self) -> tuple[FaultSpec, ...]:
        """The specs whose kinds target fleet sites (hosts / zones)."""
        return tuple(s for s in self.specs if s.kind in FLEET_FAULT_KINDS)

    # -- convenience constructors ----------------------------------------
    @classmethod
    def of(cls, *specs: FaultSpec, name: str = "plan") -> "FaultPlan":
        return cls(tuple(specs), name=name)

    @staticmethod
    def cmd_drop(rate: float, site: str = "*", **kw) -> FaultSpec:
        return FaultSpec("cmd_drop", site=site, rate=rate, **kw)

    @staticmethod
    def finish_stall(rate: float, stall_s: float, site: str = "*",
                     **kw) -> FaultSpec:
        return FaultSpec("finish_stall", site=site, rate=rate,
                         magnitude=stall_s, **kw)

    @staticmethod
    def payload_corrupt(rate: float, site: str = "*", **kw) -> FaultSpec:
        return FaultSpec("payload_corrupt", site=site, rate=rate, **kw)

    @staticmethod
    def payload_truncate(rate: float, site: str = "*", **kw) -> FaultSpec:
        return FaultSpec("payload_truncate", site=site, rate=rate, **kw)

    @staticmethod
    def payload_bitflip(rate: float, site: str = "*", **kw) -> FaultSpec:
        return FaultSpec("payload_bitflip", site=site, rate=rate, **kw)

    @staticmethod
    def decoder_crash(start: float, stop: float,
                      site: str = "*") -> FaultSpec:
        return FaultSpec("decoder_crash", site=site, rate=1.0,
                         start=start, stop=stop)

    @staticmethod
    def nvme_error(rate: float, site: str = "*", **kw) -> FaultSpec:
        return FaultSpec("nvme_error", site=site, rate=rate, **kw)

    @staticmethod
    def nvme_latency(rate: float, extra_s: float, site: str = "*",
                     **kw) -> FaultSpec:
        return FaultSpec("nvme_latency", site=site, rate=rate,
                         magnitude=extra_s, **kw)

    @staticmethod
    def nic_loss(rate: float, burst_packets: int = 4, site: str = "*",
                 **kw) -> FaultSpec:
        return FaultSpec("nic_loss", site=site, rate=rate,
                         magnitude=float(burst_packets), **kw)

    # -- fleet-site constructors (sites are host names / zone names) -----
    @staticmethod
    def host_crash(at: float, site: str) -> FaultSpec:
        return FaultSpec("host_crash", site=site, rate=1.0, start=at)

    @staticmethod
    def host_hang(start: float, stop: float, site: str,
                  rate: float = 1.0) -> FaultSpec:
        return FaultSpec("host_hang", site=site, rate=rate,
                         start=start, stop=stop)

    @staticmethod
    def host_slow(start: float, stop: float, extra_s: float,
                  site: str) -> FaultSpec:
        return FaultSpec("host_slow", site=site, rate=1.0,
                         start=start, stop=stop, magnitude=extra_s)

    @staticmethod
    def link_partition(start: float, stop: float, site: str) -> FaultSpec:
        return FaultSpec("link_partition", site=site, rate=1.0,
                         start=start, stop=stop)

    @staticmethod
    def link_flap(start: float, stop: float, site: str,
                  rate: float = 0.5) -> FaultSpec:
        return FaultSpec("link_flap", site=site, rate=rate,
                         start=start, stop=stop)

    @staticmethod
    def zone_outage(at: float, zone: str) -> FaultSpec:
        return FaultSpec("zone_outage", site=zone, rate=1.0, start=at)
