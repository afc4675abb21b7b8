"""Server NIC: RX rings, per-packet host cost, DMA placement metadata.

Incoming images land in an RX queue as :class:`NetRequest` items; the
DataCollector's ``load_from_net`` drains this queue and generates the
placement metadata (physical addresses) for the FPGA decoder — the
"generates the metadata (i.e., physical address of memory) that
describes where the data are placed by NICs" path of S3.4.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..sim import BusyTracker, Channel, Counter, Environment
from .link import Link

__all__ = ["NetRequest", "Nic"]


@dataclass
class NetRequest:
    """One client image in flight through the serving stack."""

    request_id: int
    client_id: int
    size_bytes: int
    height: int
    width: int
    channels: int
    sent_at: float
    received_at: float = 0.0
    payload: Optional[bytes] = None       # real JPEG in functional mode
    done_event: object = field(default=None, repr=False)
    deadline_at: float = math.inf         # absolute; inf = no deadline
    trace: object = field(default=None, repr=False)  # RequestTrace, if traced

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def decode_work_pixels(self) -> int:
        return self.pixels if self.channels == 1 else self.pixels * 3 // 2


class Nic:
    """Receive path of the server NIC."""

    def __init__(self, env: Environment, link: Link, cpu_tracker: BusyTracker,
                 per_packet_s: float, rx_capacity: int = 4096,
                 name: str = "nic", rtracker=None):
        self.env = env
        self.link = link
        self.name = name
        self.per_packet_s = per_packet_s
        self._cpu = cpu_tracker
        self.rtracker = rtracker   # repro.tracing.RequestTracker, optional
        self.rx_queue = Channel(env, capacity=rx_capacity, name=f"{name}.rx")
        self.packets = Counter(env, name=f"{name}.packets")
        self.drops = Counter(env, name=f"{name}.drops")

    def deliver(self, request: NetRequest):
        """Generator: wire transfer + host RX processing + enqueue."""
        yield from self.link.transmit(request.size_bytes)
        npkts = self.link.packets_for(request.size_bytes)
        self.packets.add(npkts)
        # Host-side packet processing (interrupt + protocol) burns CPU.
        self._cpu.charge(npkts * self.per_packet_s, "net-rx")
        request.received_at = self.env._now
        if self.rtracker is not None:
            # Trace origin: the request exists for the pipeline the
            # moment the NIC has its bytes; everything until the
            # collector drains it is RX-queue wait.
            request.trace = self.rtracker.start(
                "nic.rx", kind="wait",
                baggage={"request_id": request.request_id,
                         "client_id": request.client_id,
                         "size_bytes": request.size_bytes})
        if not self.rx_queue.try_put(request):
            # RX ring overflow: the request is dropped (the clients'
            # closed-loop window normally prevents this).
            self.drops.add()
            if request.trace is not None:
                request.trace.abort("rx-drop")
            if request.done_event is not None:
                request.done_event.fail(
                    ConnectionError(f"rx drop of request {request.request_id}"))
            return
