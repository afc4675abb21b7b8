"""Inference traffic generators — "5 clients send color JPEG-formatted
images in real time" over the 40 Gbps fabric (S5.3).

Clients are closed-loop: each keeps ``window`` requests outstanding and
issues a new one the moment a prediction returns.  A saturating client
fleet makes the *server* the bottleneck (which is what the paper's
throughput figures measure) while keeping queues — and hence the
latency metric — finite, matching how the paper reports both metrics
from the same runs.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ..sim import Counter, Environment, LatencyRecorder, scoped_name
from ..supervision import DeadlineExceeded
from .nic import NetRequest, Nic

__all__ = ["ClientFleet"]


class ClientFleet:
    """A set of closed-loop image-sending clients."""

    def __init__(self, env: Environment, nic: Nic, num_clients: int,
                 image_hw: tuple[int, int], rng: np.random.Generator,
                 window: int = 16,
                 size_sampler: Optional[Callable[[np.random.Generator],
                                                 int]] = None,
                 payload_factory: Optional[Callable[[int], bytes]] = None,
                 think_time_s: float = 0.0,
                 deadline_s: Optional[float] = None,
                 namespace: str = ""):
        if num_clients <= 0 or window <= 0:
            raise ValueError("num_clients and window must be positive")
        self.env = env
        self.nic = nic
        self.num_clients = num_clients
        self.window = window
        self.image_hw = image_hw
        self.rng = rng
        self.think_time_s = think_time_s
        self.deadline_s = deadline_s
        self.expired = Counter(env,
                               name=scoped_name(namespace, "clients.expired"))
        self._size_sampler = size_sampler or self._default_size
        self._payload_factory = payload_factory
        self.sent = Counter(env, name=scoped_name(namespace, "clients.sent"))
        self.completed = Counter(
            env, name=scoped_name(namespace, "clients.completed"))
        self.rtt = LatencyRecorder(name=scoped_name(namespace, "clients.rtt"))
        self._next_id = 0

    def _default_size(self, rng: np.random.Generator) -> int:
        """JPEG size distribution around the paper's 500x375 average
        (~0.58 bits/pixel at typical web quality -> ~110 KB mean)."""
        h, w = self.image_hw
        mean = h * w * 0.58 / 8 * 4.3  # empirical bytes for q~75 color
        return max(4096, int(rng.lognormal(np.log(mean), 0.35)))

    def start(self) -> None:
        for cid in range(self.num_clients):
            self.env.process(self._client_loop(cid), name=f"client-{cid}")

    def _client_loop(self, client_id: int):
        # Each slot of the window is an independent request chain.
        for _ in range(self.window):
            self.env.process(self._request_chain(client_id))
        return
        yield  # pragma: no cover - makes this a generator

    def _request_chain(self, client_id: int):
        h, w = self.image_hw
        while True:
            rid = self._next_id
            self._next_id += 1
            size = int(self._size_sampler(self.rng))
            done = self.env.event()
            request = NetRequest(
                request_id=rid, client_id=client_id, size_bytes=size,
                height=h, width=w, channels=3, sent_at=self.env._now,
                payload=(self._payload_factory(rid)
                         if self._payload_factory else None),
                done_event=done,
                deadline_at=(self.env._now + self.deadline_s
                             if self.deadline_s is not None else math.inf))
            self.sent.add()
            yield from self.nic.deliver(request)
            try:
                yield done  # the serving stack succeeds this on prediction
            except DeadlineExceeded:
                self.expired.add()
                continue  # shed by the server: reissue
            except ConnectionError:
                continue  # rx drop: reissue
            self.completed.add()
            trace = getattr(request, "trace", None)
            self.rtt.record(
                self.env._now - request.sent_at,
                trace_id=trace.trace_id if trace is not None else None)
            if self.think_time_s:
                yield self.env.timeout(self.think_time_s)
