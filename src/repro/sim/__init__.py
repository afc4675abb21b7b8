"""Discrete-event simulation substrate for the DLBooster reproduction.

The kernel (:mod:`~repro.sim.core`) is a from-scratch generator-based
event loop; :mod:`~repro.sim.resources` adds semaphores and stores;
:mod:`~repro.sim.queues` the instrumented channels; :mod:`~repro.sim.monitor`
the measurement instruments; :mod:`~repro.sim.rand` deterministic RNG
streams.
"""

from .core import (AllOf, AnyOf, Environment, Event, Process,
                   SimulationError, Timeout, drive, total_events_processed)
from .monitor import (BusyTracker, Counter, IntervalRate, LatencyRecorder,
                      TimeWeighted, scoped_name, set_active_registry)
from .queues import Channel, DirectGet, QueuePair, ShedPolicy, deadline_of
from .rand import SeedBank
from .resources import Resource, Store
from .trace import Span, Tracer

__all__ = [
    "Environment", "Event", "Timeout", "Process", "drive",
    "total_events_processed",
    "AllOf", "AnyOf", "SimulationError",
    "Resource", "Store",
    "Channel", "DirectGet", "QueuePair", "ShedPolicy", "deadline_of",
    "Counter", "TimeWeighted", "BusyTracker", "LatencyRecorder",
    "IntervalRate", "set_active_registry", "scoped_name",
    "SeedBank",
    "Tracer", "Span",
]
