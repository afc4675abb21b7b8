"""Measurement instruments for simulations.

Everything the experiment harness reports — throughput, CPU cores burned,
GPU utilization, latency percentiles — is integrated by these classes from
raw simulation activity; no result is ever entered by hand.
"""

from __future__ import annotations

import math
import struct
import zlib
from bisect import insort
from collections import deque
from heapq import heappop, heappush
from random import Random
from typing import Optional

from .core import Environment

__all__ = ["Counter", "TimeWeighted", "BusyTracker", "LatencyRecorder",
           "IntervalRate", "set_active_registry", "scoped_name"]


def scoped_name(namespace: str, name: str) -> str:
    """Prefix ``name`` with a per-instance metric namespace.

    ``scoped_name("host03", "nic")`` -> ``"host03.nic"``; an empty
    namespace returns ``name`` unchanged, so single-host callers keep
    their historical flat names (and, with them, every name-seeded RNG
    stream) byte-identical.
    """
    return f"{namespace}.{name}" if namespace else name


# Ambient metrics registry (see repro.telemetry).  While one is active —
# ``MetricsRegistry.installed()`` sets it around component construction —
# every instrument built here announces itself, so the whole pipeline's
# metrics land in one hierarchical namespace with zero plumbing changes.
_ACTIVE_REGISTRY = None


def set_active_registry(registry) -> Optional[object]:
    """Install ``registry`` as the ambient auto-registration sink (or
    ``None`` to clear it).  Returns the previously active registry so
    callers can restore it — :class:`repro.telemetry.MetricsRegistry`
    wraps this in a context manager."""
    global _ACTIVE_REGISTRY
    previous = _ACTIVE_REGISTRY
    _ACTIVE_REGISTRY = registry
    return previous


def registry_active() -> bool:
    """True while a registry is installed, i.e. while the instruments
    built now would be read by one."""
    return _ACTIVE_REGISTRY is not None


def _autoregister(instrument) -> None:
    if _ACTIVE_REGISTRY is not None:
        _ACTIVE_REGISTRY.register(instrument)


# An instrument applies its dated entries that are due once this many
# are queued (reads apply them first anyway); it bounds the queue, not
# the results.
_SETTLE_AT = 64


class Counter:
    """A monotonically increasing event count with rate helpers.

    :meth:`add_at` dates an increment ahead of the clock, for a model
    that computes when an item will be done before the clock gets there
    (a folded queue, DESIGN §10): every read first applies the ones due
    by now, so a reader sees only what the clock has passed.
    """

    def __init__(self, env: Environment, name: str = "counter"):
        self.env = env
        self.name = name
        self._total = 0.0
        self._due: Optional[deque] = None       # (when, n), in time order
        self._t0 = env.now
        _autoregister(self)

    @property
    def total(self) -> float:
        if self._due:
            self._settle()
        return self._total

    @total.setter
    def total(self, value: float) -> None:
        self._total = value

    def add(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self._total += n

    def add_at(self, when: float, n: float = 1.0) -> None:
        """Count ``n`` at time ``when``, which may lie ahead of the
        clock; increments must come in time order."""
        if n < 0:
            raise ValueError("counters only go up")
        due = self._due
        if due is None:
            due = self._due = deque()
        elif due:
            if when < due[-1][0]:
                raise ValueError("dated entries must come in time order")
            if len(due) >= _SETTLE_AT:
                self._settle()
        due.append((when, n))

    def _settle(self) -> None:
        due = self._due
        now = self.env._now
        total = self._total
        while due and due[0][0] <= now:
            total += due.popleft()[1]
        self._total = total

    def reset(self) -> None:
        if self._due:
            self._settle()
        self._total = 0.0
        self._t0 = self.env.now

    def rate(self, since: Optional[float] = None) -> float:
        """Average events/second since ``since`` (default: creation/reset)."""
        start = self._t0 if since is None else since
        elapsed = self.env.now - start
        return self.total / elapsed if elapsed > 0 else 0.0


class TimeWeighted:
    """Tracks a piecewise-constant value and its time-weighted mean/max.

    Used for queue depths, memory-pool occupancy and outstanding-command
    counts.

    :meth:`adjust_at` dates a change ahead of the clock, for a folded
    queue (DESIGN §10); an instrument takes either these or
    :meth:`set`/:meth:`adjust`.  Every read first applies the changes
    due by now, all of one instant's as one net step.
    """

    def __init__(self, env: Environment, initial: float = 0.0,
                 name: str = "level"):
        self.env = env
        self.name = name
        self._value = float(initial)
        self._last_t = env.now
        self._area = 0.0
        self._t0 = env.now
        self._max = float(initial)
        self._min = float(initial)
        self._due: Optional[list] = None        # heap of (when, delta)
        _autoregister(self)

    @property
    def value(self) -> float:
        if self._due:
            self._settle()
        return self._value

    @property
    def max_value(self) -> float:
        if self._due:
            self._settle()
        return self._max

    @property
    def min_value(self) -> float:
        if self._due:
            self._settle()
        return self._min

    def set(self, value: float) -> None:
        # Hot path: one call per queue push/pop.  Reads the clock slot
        # directly and branches instead of calling max()/min().
        now = self.env._now
        self._area += self._value * (now - self._last_t)
        self._last_t = now
        self._value = value = float(value)
        if value > self._max:
            self._max = value
        elif value < self._min:
            self._min = value

    def adjust(self, delta: float) -> None:
        self.set(self._value + delta)

    def adjust_at(self, when: float, delta: float) -> None:
        """:meth:`adjust` at time ``when``, which may lie ahead of the
        clock.  Changes may come in any order, but none before the last
        instant applied."""
        if when < self._last_t:
            raise ValueError("a dated change precedes one already applied")
        due = self._due
        if due is None:
            due = self._due = []
        elif len(due) >= _SETTLE_AT:
            # A change may still be dated now, so only the instants
            # before now are complete.
            self._settle(strict=True)
        heappush(due, (when, delta))

    def _settle(self, strict: bool = False) -> None:
        """Apply the changes due by now (before now, if ``strict``),
        each instant's as one step to their net value."""
        due = self._due
        now = self.env._now
        while due and (due[0][0] < now or not strict and due[0][0] == now):
            when = due[0][0]
            value = self._value
            while due and due[0][0] == when:
                value += heappop(due)[1]
            self._area += self._value * (when - self._last_t)
            self._last_t = when
            self._value = value = float(value)
            if value > self._max:
                self._max = value
            elif value < self._min:
                self._min = value

    def mean(self) -> float:
        if self._due:
            self._settle()
        elapsed = self.env.now - self._t0
        if elapsed <= 0:
            return self._value
        area = self._area + self._value * (self.env.now - self._last_t)
        return area / elapsed


class BusyTracker:
    """Integrates busy time of a multi-slot device into "cores used".

    Each ``begin()``/``end()`` pair contributes its duration; the headline
    number is ``busy_time / wall_time`` — e.g. two workers each busy half
    the time report 1.0 cores.  Nested/concurrent intervals accumulate, so
    a pool of N workers reports up to N.  Categories let Fig. 6(d)-style
    breakdowns fall out of one tracker.

    A model that computes a service's times before the clock reaches
    them (a folded queue, DESIGN §10) dates its intervals instead:
    :meth:`span_at` takes an interval known in full, credited in end
    order once the clock reaches its end, and :meth:`begin_at` opens an
    interval whose start may lie ahead of the clock.  Either counts as
    ``now - start`` while ``start <= now`` and it has not been credited,
    exactly as an interval opened by :meth:`begin` at its start would.
    """

    def __init__(self, env: Environment, name: str = "busy"):
        self.env = env
        self.name = name
        self._t0 = env.now
        self._busy: dict[str, float] = {}
        self._open: dict[int, tuple[str, float]] = {}
        self._next_token = 0
        self._due: Optional[deque] = None   # (end, start, category)
        _autoregister(self)

    def begin(self, category: str = "work") -> int:
        token = self._next_token
        self._next_token += 1
        self._open[token] = (category, self.env._now)
        return token

    def begin_at(self, start: float, category: str = "work") -> int:
        """:meth:`begin` at time ``start``, which may lie ahead of the
        clock; :meth:`end` closes the interval at the clock."""
        token = self._next_token
        self._next_token += 1
        self._open[token] = (category, start)
        return token

    def end(self, token: int) -> None:
        category, start = self._open.pop(token)
        self._busy[category] = self._busy.get(category, 0.0) + (
            self.env._now - start)

    def span_at(self, start: float, end: float,
                category: str = "work") -> None:
        """Account the interval [``start``, ``end``], which may lie
        ahead of the clock; intervals must come in end order."""
        due = self._due
        if due is None:
            due = self._due = deque()
        elif due:
            if end < due[-1][0]:
                raise ValueError("dated entries must come in time order")
            if len(due) >= _SETTLE_AT:
                self._settle()
        due.append((end, start, category))

    def _settle(self) -> None:
        due = self._due
        now = self.env._now
        busy = self._busy
        while due and due[0][0] <= now:
            end, start, category = due.popleft()
            busy[category] = busy.get(category, 0.0) + (end - start)

    def _opened(self):
        """``(category, start)`` of each interval begun by now and not
        yet credited, in start order (after a settle)."""
        now = self.env._now
        for category, start in self._open.values():
            if start <= now:
                yield category, start
        for _, start, category in self._due or ():
            if start <= now:
                yield category, start

    def charge(self, duration: float, category: str = "work") -> None:
        """Directly account ``duration`` seconds of busy time."""
        if duration < 0:
            raise ValueError("negative busy duration")
        self._busy[category] = self._busy.get(category, 0.0) + duration

    def busy_seconds(self, category: Optional[str] = None) -> float:
        if self._due:
            self._settle()
        closed = (sum(self._busy.values()) if category is None
                  else self._busy.get(category, 0.0))
        # Include still-open intervals up to now.
        now = self.env.now
        for cat, start in self._opened():
            if category is None or cat == category:
                closed += now - start
        return closed

    def cores(self, category: Optional[str] = None,
              since: Optional[float] = None) -> float:
        start = self._t0 if since is None else since
        elapsed = self.env.now - start
        if elapsed <= 0:
            return 0.0
        return self.busy_seconds(category) / elapsed

    def breakdown(self) -> dict[str, float]:
        """Cores by category (Fig. 6(d) style)."""
        elapsed = self.env.now - self._t0
        if elapsed <= 0:
            return {}
        if self._due:
            self._settle()
        out: dict[str, float] = {}
        for cat in self._busy:
            out[cat] = self.busy_seconds(cat) / elapsed
        for cat, _ in self._opened():
            out.setdefault(cat, self.busy_seconds(cat) / elapsed)
        return out


def _sort_entries(entries: list) -> None:
    """Sort reservoir entries ``(latency, seq, trace_id)`` in place.

    Entries of two merged recorders can tie on ``(latency, seq)`` with
    only one of them linked to a trace, and then the tuples do not
    compare; only then is a key needed, which orders a missing trace id
    below every id.  Where the tuples compare, the key gives their
    order, so either sort leaves the same list.
    """
    try:
        entries.sort()
    except TypeError:
        entries.sort(key=lambda e: e if e[2] is not None else e[:2])


class LatencyRecorder:
    """Collects per-item latencies; reports mean/percentiles.

    Memory is bounded by **uniform reservoir sampling** (Vitter's
    Algorithm R): the first ``max_samples`` values are kept exactly
    (sorted on insertion, so percentiles are exact); once the stream
    exceeds the cap, the i-th value replaces a uniformly random reservoir
    entry with probability ``max_samples / i``, so the reservoir remains
    a uniform sample of *everything seen so far* — late-arriving tails
    are represented with their true weight rather than silently dropped.
    Beyond the cap, percentiles are therefore unbiased estimates (rank
    error ~ ``sqrt(q*(1-q)/max_samples)``); ``mean``/``min``/``max`` and
    ``count`` stay exact over the full stream regardless.

    Replacement choices come from a private deterministic RNG seeded
    from the recorder's name, so simulations stay reproducible.

    **Exemplar linking** (see :mod:`repro.tracing`): ``record()``
    optionally takes the trace_id of the request the latency belongs
    to.  Each reservoir entry keeps its trace_id alongside the value,
    so a percentile doesn't stop at a number — ``exemplar_for(99)``
    names an actual request whose full trace explains *why* the p99 is
    what it is.  Reservoir entries are ``(latency, seq, trace_id)``
    tuples where ``seq`` is the unique arrival index: ties on equal
    latencies break on ``seq`` before ``trace_id`` is ever compared, so
    eviction/ordering behaviour is identical with or without exemplars.

    **Dated records**: built with the ``env`` keyword, a recorder also
    takes :meth:`record_at`, a record dated ahead of the clock (a folded
    queue, DESIGN §10); it takes either these or :meth:`record`.  Every
    read, a merge and a pickle first record the ones due by now; a
    pickled copy keeps no clock and none of the records not yet due.
    """

    def __init__(self, name: str = "latency", max_samples: int = 200_000,
                 *, env: Optional[Environment] = None):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.env = env
        self._due: Optional[deque] = None       # (when, latency), in order
        # Below the cap, entries are appended to an unsorted tail and
        # folded into the sorted prefix lazily (on a read, when the cap
        # is reached, before a merge or a pickle); past the cap the
        # prefix is kept sorted by the reservoir replacement and the
        # tail stays empty.  Sorting is deferred work, not different
        # work: entry tuples are unique (the arrival index breaks ties),
        # so sorted content — and with it every percentile, exemplar and
        # eviction decision — is identical to eager insort.
        self._sorted: list[tuple[float, int, Optional[int]]] = []
        self._tail: list[tuple[float, int, Optional[int]]] = []
        self._count = 0
        self._sum = 0.0
        # Own-stream sums of recorders folded in via merge(), kept as
        # separate terms: pairwise `+=` of floats is not associative,
        # so the combined sum is instead rendered with math.fsum over
        # the term multiset — exact, hence identical for every merge
        # order.  Empty until the first merge; record() never touches it.
        self._merged_sums: list[float] = []
        self._max_samples = max_samples
        self._min = math.inf
        self._max = -math.inf
        self._rng = Random(zlib.crc32(name.encode()) or 1)
        _autoregister(self)

    def _flush(self) -> None:
        """Record the dated records due, then sort the tail in."""
        if self._due:
            self._settle()
        tail = self._tail
        if not tail:
            return
        reservoir = self._sorted
        if 16 * len(tail) < len(reservoir):
            # A short tail costs its own sort plus one binary search
            # each, not a pass over the whole prefix.
            tail.sort()
            for entry in tail:
                insort(reservoir, entry)
        else:
            reservoir.extend(tail)
            _sort_entries(reservoir)
        self._tail = []

    def __getstate__(self) -> dict:
        self._flush()
        return {**self.__dict__, "env": None, "_due": None}

    def record_at(self, when: float, latency: float) -> None:
        """:meth:`record` at time ``when``, which may lie ahead of the
        clock; records must come in time order."""
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        due = self._due
        if due is None:
            if self.env is None:
                raise ValueError("record_at needs a recorder built with env")
            due = self._due = deque()
        elif due:
            if when < due[-1][0]:
                raise ValueError("dated entries must come in time order")
            if len(due) >= _SETTLE_AT:
                self._settle()
        due.append((when, latency))

    def _settle(self) -> None:
        due = self._due
        now = self.env._now
        # record() may flush at the cap, and that flush must not settle.
        self._due = None
        while due and due[0][0] <= now:
            self.record(due.popleft()[1])
        self._due = due

    def record(self, latency: float, trace_id: Optional[int] = None) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self._count += 1
        self._sum += latency
        if latency < self._min:
            self._min = latency
        if latency > self._max:
            self._max = latency
        entry = (latency, self._count, trace_id)
        reservoir = self._sorted
        tail = self._tail
        kept = len(reservoir) + len(tail)
        if kept < self._max_samples:
            tail.append(entry)
            if kept + 1 == self._max_samples:
                self._flush()       # reservoir phase needs sorted order
            return
        # Algorithm R: keep the newcomer with probability cap/count,
        # evicting a uniformly random incumbent.  Index j is uniform on
        # [0, count); j < cap both decides acceptance *and* names the
        # victim (positions in a sorted reservoir are exchangeable).
        j = self._rng.randrange(self._count)
        if j < self._max_samples:
            del reservoir[j]
            insort(reservoir, entry)

    @property
    def count(self) -> int:
        if self._due:
            self._settle()
        return self._count

    @property
    def sample_count(self) -> int:
        """Samples currently retained (== count while below the cap)."""
        if self._due:
            self._settle()
        return len(self._sorted) + len(self._tail)

    @property
    def is_exact(self) -> bool:
        """True while every recorded value is retained, i.e. percentiles
        are exact order statistics rather than reservoir estimates."""
        kept = self.sample_count        # records the due ones first
        return self._count == kept

    @property
    def samples(self) -> tuple[float, ...]:
        """The retained (sorted) samples — the whole stream while below
        the cap, a uniform sample of it beyond."""
        self._flush()
        return tuple(entry[0] for entry in self._sorted)

    def exemplars(self) -> tuple[tuple[float, int], ...]:
        """The retained ``(latency, trace_id)`` pairs that carry a trace
        link, sorted by latency — the bridge from a percentile to the
        flight recorder's full traces."""
        self._flush()
        return tuple((lat, tid) for lat, _, tid in self._sorted
                     if tid is not None)

    def exemplar_for(self, q: float) -> Optional[int]:
        """trace_id of the retained sample nearest the q-th percentile
        (``None`` when no linked sample is close — e.g. exemplars were
        never recorded)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        self._flush()
        n = len(self._sorted)
        if n == 0:
            return None
        idx = round((q / 100.0) * (n - 1))
        # Nearest linked sample, scanning outward from the target rank.
        for off in range(n):
            for pos in (idx - off, idx + off):
                if 0 <= pos < n and self._sorted[pos][2] is not None:
                    return self._sorted[pos][2]
        return None

    @staticmethod
    def _merge_priority(
            entry: tuple[float, int, Optional[int]]) -> tuple:
        """Content-keyed selection priority for over-cap merges.

        Hashing the entry itself (not the merge order, not RNG state)
        makes bottom-k selection a pure function of the combined sample
        *set*: merging any permutation of the same recorders keeps the
        same entries.  The entry fields tie-break hash collisions so the
        order is total (``trace_id`` may be None, hence the presence
        flag before the value).
        """
        latency, seq, trace_id = entry
        tid = -1 if trace_id is None else trace_id
        digest = zlib.crc32(struct.pack("!dqq", latency, seq, tid))
        return (digest, latency, seq, trace_id is not None, tid)

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's state into this one.

        ``count``/``mean``/``min``/``max`` stay exact over the combined
        stream (the other side's exact accumulators add in, even when
        its reservoir retains fewer samples than it saw).  The retained
        samples become the union of both reservoirs while that fits
        this recorder's cap — the common case of per-engine windows
        merged into one report, where percentiles stay exact — and
        otherwise the bottom-``cap`` of the union under a content-keyed
        hash priority (:meth:`_merge_priority`), which keeps the merged
        reservoir an unbiased-enough sample while making the selection a
        pure function of the combined set.

        Merge is therefore **commutative and order-insensitive**:
        folding the same recorders in any order — or on any worker
        completion schedule — produces byte-identical merged state.  No
        RNG draws are consumed, so a later ``record()`` stream on the
        merged recorder is also unaffected by merge order.  Trace links
        survive the merge.
        """
        if other is self:
            raise ValueError("cannot merge a recorder into itself")
        self._flush()
        other._flush()
        if other._count:
            self._count += other._count
            # Keep the other side's sum as a separate term rather than
            # folding it into self._sum: float += is order-sensitive in
            # the last ulp, fsum over the term multiset is not.
            self._merged_sums.append(other._sum)
            self._merged_sums.extend(other._merged_sums)
            if other._min < self._min:
                self._min = other._min
            if other._max > self._max:
                self._max = other._max
        if not other._sorted:
            return
        combined = self._sorted + other._sorted
        cap = self._max_samples
        if len(combined) > cap:
            combined.sort(key=self._merge_priority)
            del combined[cap:]
        _sort_entries(combined)
        self._sorted = combined

    def total(self) -> float:
        """Exact sum of every recorded latency (own stream plus merged
        streams, combined with a single correctly-rounded fsum so the
        value is independent of merge order)."""
        if self._due:
            self._settle()
        if self._merged_sums:
            return math.fsum([self._sum, *self._merged_sums])
        return self._sum

    def mean(self) -> float:
        total = self.total()            # records the due ones first
        return total / self._count if self._count else math.nan

    def percentile(self, q: float) -> float:
        """q in [0, 100]; linear interpolation between order statistics
        of the retained samples (exact below the cap, a uniform-reservoir
        estimate beyond it)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        self._flush()
        if not self._sorted:
            return math.nan
        n = len(self._sorted)
        pos = (q / 100.0) * (n - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return self._sorted[lo][0]
        frac = pos - lo
        return self._sorted[lo][0] * (1 - frac) + self._sorted[hi][0] * frac

    def p50(self) -> float:
        return self.percentile(50)

    def p99(self) -> float:
        return self.percentile(99)

    def max(self) -> float:
        """Exact maximum over the full stream (never subsampled)."""
        if self._due:
            self._settle()
        return self._max if self._count else math.nan

    def min(self) -> float:
        """Exact minimum over the full stream (never subsampled)."""
        if self._due:
            self._settle()
        return self._min if self._count else math.nan


class IntervalRate:
    """Windowed throughput: items completed between mark() calls."""

    def __init__(self, env: Environment, name: str = "rate"):
        self.env = env
        self.name = name
        self._count = 0.0
        self._mark_t = env.now
        self._mark_count = 0.0
        _autoregister(self)

    def add(self, n: float = 1.0) -> None:
        self._count += n

    def mark(self) -> float:
        """Rate since the previous mark; resets the window.

        A zero-length window has no defined rate — it returns
        ``math.nan`` (not ``0.0``, which would read as a measured zero
        throughput) and leaves the window open, so counts land in the
        next mark with a real time span.  Callers polling faster than
        the sim clock advances should treat NaN as "no new window yet".
        """
        now = self.env.now
        dt = now - self._mark_t
        if dt <= 0:
            return math.nan
        dn = self._count - self._mark_count
        self._mark_t = now
        self._mark_count = self._count
        return dn / dt

    @property
    def total(self) -> float:
        return self._count
