"""Spans around public calls, and a cProfile self-time split by layer.

A *layer* is a ``repro.<package>``.  Time spent in code outside the
``repro`` package (C builtins, the standard library, NumPy) is credited
to the repro layer that called it, walking up the caller graph and
splitting by the time each caller edge accounts for.  Frames with no
repro caller (the benchmark's own code) land in ``other``, so the shares
of one profile always sum to 100%.  The table also keeps the split
without that crediting, where time outside repro stays in its own
bucket.
"""

from __future__ import annotations

import os
import pstats
import time
from contextlib import contextmanager

__all__ = ["LAYERS", "Spans", "layer_table"]

LAYERS = ("sim", "fpga", "host", "net", "engines", "backends", "data",
          "storage", "fleet", "faults", "supervision", "telemetry",
          "tracing", "slo", "sweep", "other")

# Builtins that block.  A wall-clock profiler counts the time the parent
# of a worker pool sits in them as self time; it is waiting, not work,
# so it is reported as ``wait_s`` and kept out of the layer split.
WAITS = frozenset({
    "<method 'acquire' of '_thread.lock' objects>",
    "<method 'acquire' of '_thread.RLock' objects>",
    "<built-in method time.sleep>",
    "<built-in method posix.waitpid>",
    "<method 'poll' of 'select.poll' objects>",
})

# Cumulative-time probes: (layer-metric name, functions whose cumulative
# time it sums).  None of these functions calls another in the list, so
# the sum never double-counts.
CUMULATIVE = {
    "data.manifest_build": ("imagenet_like_manifest",),
    "telemetry.rollup": ("fleet_rollup", "kpis_from_rollup"),
}


class Spans:
    """Benchmark-side spans: name, start, end and parent index, kept in
    memory and written out with the trace."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.records.append(rec)
        self._stack.append(len(self.records) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def relative(self) -> list[dict]:
        """Records with times relative to the first span's start."""
        if not self.records:
            return []
        t0 = self.records[0]["start"]
        return [dict(r, start=r["start"] - t0, end=r["end"] - t0)
                for r in self.records]


def _layer_of(filename: str, repro_dir: str):
    """The repro package a source file belongs to, or None when the file
    lies outside the repro package."""
    rel = os.path.relpath(filename, repro_dir) if filename[:1] == os.sep \
        else os.pardir
    if rel.startswith(os.pardir):
        return None
    head = rel.split(os.sep, 1)[0]
    return head if head in LAYERS else "other"


def layer_table(stats: pstats.Stats, repro_dir: str) -> dict:
    """Self time per layer (seconds and % of all profiled self time
    outside blocking waits), primitive calls into ``fpga/units.py`` and
    the cumulative probes."""
    raw = stats.stats  # func -> (cc, nc, tt, ct, callers)
    memo: dict = {}
    active: set = set()

    def dist(func) -> dict:
        if func in memo:
            return memo[func]
        layer = _layer_of(func[0], repro_dir)
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        active.add(func)
        edges = [(c, e) for c, e in raw[func][4].items()
                 if c not in active and c in raw]
        # Split by the callee's self time along each edge; fall back to
        # call counts when every edge rounds to zero time.
        weights = [e[2] for _, e in edges]
        if sum(weights) <= 0:
            weights = [e[0] for _, e in edges]
        out: dict = {}
        total = float(sum(weights))
        if total > 0:
            for (caller, _), w in zip(edges, weights):
                for layer_, frac in dist(caller).items():
                    out[layer_] = out.get(layer_, 0.0) + frac * w / total
        else:
            out = {"other": 1.0}
        active.discard(func)
        memo[func] = out
        return out

    self_s = dict.fromkeys(LAYERS, 0.0)
    # Without crediting: time outside repro stays in "outside repro".
    own_s = dict.fromkeys(LAYERS + ("outside repro",), 0.0)
    unit_calls = 0
    wait_s = 0.0
    cum = dict.fromkeys(CUMULATIVE, 0.0)
    units_file = os.path.join(repro_dir, "fpga", "units.py")
    for func, (cc, _nc, tt, ct, _callers) in raw.items():
        if func[0] == "~" and func[2] in WAITS:
            wait_s += tt
            continue
        for layer, frac in dist(func).items():
            self_s[layer] += tt * frac
        own_s[_layer_of(func[0], repro_dir) or "outside repro"] += tt
        if func[0] == units_file:
            unit_calls += cc
        for probe, names in CUMULATIVE.items():
            if func[2] in names and _layer_of(func[0], repro_dir):
                cum[probe] += ct
    total = sum(self_s.values())

    def shares(seconds: dict) -> dict:
        return {k: (100.0 * v / total if total > 0 else 0.0)
                for k, v in seconds.items()}

    return {
        "total_self_s": total,
        "wait_s": wait_s,
        "self_s": self_s,
        "self_share": shares(self_s),
        "uncredited_share": shares(own_s),
        "fpga_unit_calls": unit_calls,
        "cumulative_s": cum,
    }
