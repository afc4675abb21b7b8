"""TelemetryConfig — one knob block for workflow observability.

Handed to :func:`repro.workflows.run_training` /
:func:`repro.workflows.run_inference` via their configs' ``telemetry``
field.  When present, the workflow builds its whole stack inside an
installed :class:`~repro.telemetry.MetricsRegistry` (every instrument
lands in the namespace), runs a
:class:`~repro.telemetry.QueueDepthSampler` over the hot queues (NIC RX
ring, hugepage free/full batch queues, per-GPU Trans Queues), and
attaches ``{"registry", "metrics", "queue_depths"}`` to the result's
``extras["telemetry"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["TelemetryConfig"]


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability options for one workflow run.

    ``sample_interval_s`` — queue-depth sampling period (sim seconds).
    ``max_points`` — per-series memory bound; the sampler decimates and
    doubles its interval when a series would exceed it.
    ``export_path`` — when set, the registry snapshot plus depth series
    are written there as JSON after the run.

    When the run also has a tracer, the depth series are merged into it
    as Chrome-trace counter tracks.
    """

    sample_interval_s: float = 0.02
    max_points: int = 4096
    export_path: Optional[str] = None
