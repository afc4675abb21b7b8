"""LatencyRecorder.merge() must be commutative and order-insensitive.

The parallel sweep runner (repro.sweep) merges per-worker reservoirs in
deterministic index order, but the *contract* is stronger: merging the
same recorders in any order — including when every reservoir is at its
cap, where the old implementation consumed RNG draws per call and so
depended on call order — yields byte-identical merged state.
"""

import copy
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.monitor import LatencyRecorder


def build(name, values, cap):
    rec = LatencyRecorder(name=name, max_samples=cap)
    for i, v in enumerate(values):
        rec.record(v, trace_id=(i if i % 3 == 0 else None))
    return rec


def state(rec):
    return (rec.samples, rec.exemplars(), rec.count, rec.total(),
            rec.min(), rec.max())


def merged_in_order(sources, order, cap):
    target = LatencyRecorder(name="rollup", max_samples=cap)
    for idx in order:
        target.merge(copy.deepcopy(sources[idx]))
    return target


latencies = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=0,
    max_size=60)


@settings(max_examples=60, deadline=None)
@given(streams=st.lists(latencies, min_size=2, max_size=4),
       cap=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=2**31))
def test_merge_is_order_insensitive(streams, cap, seed):
    """Every permutation of merge order yields byte-identical state —
    in particular when the sources and the target are all at cap."""
    sources = [build(f"w{i}", vals, cap) for i, vals in enumerate(streams)]
    orders = list(itertools.permutations(range(len(sources))))
    baseline = state(merged_in_order(sources, orders[0], cap))
    for order in orders[1:]:
        assert state(merged_in_order(sources, order, cap)) == baseline


@settings(max_examples=40, deadline=None)
@given(streams=st.lists(latencies, min_size=3, max_size=3),
       cap=st.integers(min_value=2, max_value=25))
def test_merge_is_associative(streams, cap):
    """(a + b) + c == a + (b + c): bottom-k by content hash is a
    mergeable sketch, so tree-shaped and sequential rollups agree."""
    sources = [build(f"w{i}", vals, cap) for i, vals in enumerate(streams)]
    seq = merged_in_order(sources, (0, 1, 2), cap)

    left = LatencyRecorder(name="rollup", max_samples=cap)
    left.merge(copy.deepcopy(sources[0]))
    left.merge(copy.deepcopy(sources[1]))
    right = LatencyRecorder(name="right", max_samples=cap)
    right.merge(copy.deepcopy(sources[2]))
    left.merge(right)
    assert state(left) == state(seq)


def test_merge_exact_stats_survive_over_cap_sources():
    """count/sum/min/max stay exact even when a source retained far
    fewer samples than it saw (the old merge lost the difference)."""
    src = build("big", [float(v % 89) for v in range(5000)], cap=32)
    assert src.count == 5000 and src.sample_count == 32
    tgt = LatencyRecorder(name="rollup", max_samples=32)
    tgt.merge(src)
    assert tgt.count == 5000
    assert tgt.mean() == pytest.approx(src.mean())
    assert tgt.min() == src.min() and tgt.max() == src.max()
    assert tgt.sample_count == 32


def test_merge_below_cap_is_exact_union():
    a = build("a", [1.0, 3.0, 5.0], cap=100)
    b = build("b", [2.0, 4.0], cap=100)
    tgt = LatencyRecorder(name="rollup", max_samples=100)
    tgt.merge(a)
    tgt.merge(b)
    assert tgt.samples == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert tgt.is_exact and tgt.count == 5


def test_merge_consumes_no_rng():
    """Merging must not advance the target's record() RNG stream: the
    RNG state after construction + merges equals a fresh recorder's, no
    matter how many merges happened (record() past the cap is what
    draws — so the check has to run before any post-merge records)."""
    baseline = LatencyRecorder(name="r", max_samples=16)._rng.getstate()

    one = LatencyRecorder(name="r", max_samples=16)
    one.merge(build("w0", [1.0] * 64, cap=16))
    assert one._rng.getstate() == baseline

    many = LatencyRecorder(name="r", max_samples=16)
    for i in range(5):
        many.merge(build("w0", [1.0] * 64, cap=16))
    assert many._rng.getstate() == baseline

    # And the merged recorder still records past the cap normally.
    for v in (float(v % 13) for v in range(400)):
        many.record(v)
    assert many.count == 5 * 64 + 400 and many.sample_count == 16


def test_merge_self_rejected():
    rec = build("a", [1.0], cap=4)
    with pytest.raises(ValueError):
        rec.merge(rec)


def test_merge_empty_sides():
    empty = LatencyRecorder(name="e", max_samples=8)
    full = build("f", [2.0, 1.0], cap=8)
    tgt = LatencyRecorder(name="rollup", max_samples=8)
    tgt.merge(empty)
    assert tgt.count == 0 and math.isnan(tgt.mean())
    tgt.merge(full)
    assert tgt.samples == (1.0, 2.0)
    tgt.merge(LatencyRecorder(name="e2", max_samples=8))
    assert tgt.samples == (1.0, 2.0) and tgt.count == 2


# ---------------------------------------------------------------------------
# percentile() / exemplar_for() on reservoirs built purely by at-cap
# merges — the shape the sweep rollup and the KPI layer read from.

QS = (0, 10, 25, 50, 75, 90, 99, 99.9, 100)


def test_percentile_on_merged_reservoir_at_cap():
    """Percentiles of a merged at-cap reservoir interpolate over the
    retained union: bounded by the retained extremes, monotone in q,
    and the tail quantiles (p99/p99.9) resolve rather than erroring."""
    cap = 16
    sources = [build(f"w{i}", [float(j % 97) + i for j in range(200)], cap)
               for i in range(4)]
    tgt = merged_in_order(sources, (0, 1, 2, 3), cap)
    assert tgt.sample_count == cap and not tgt.is_exact
    samples = tgt.samples
    assert tgt.percentile(0) == samples[0]
    assert tgt.percentile(100) == samples[-1]
    values = [tgt.percentile(q) for q in QS]
    assert values == sorted(values)
    assert samples[0] <= tgt.percentile(99.9) <= samples[-1]
    with pytest.raises(ValueError):
        tgt.percentile(101)


def test_exemplar_for_on_merged_reservoir_at_cap():
    """Every quantile's exemplar names a trace_id actually retained in
    the merged reservoir, and the answer is merge-order-insensitive."""
    cap = 8
    sources = []
    for i in range(3):
        rec = LatencyRecorder(name=f"w{i}", max_samples=cap)
        for j in range(50):      # every record trace-linked, unique ids
            rec.record(float(j), trace_id=i * 1000 + j)
        sources.append(rec)
    tgt = merged_in_order(sources, (0, 1, 2), cap)
    linked = {tid for _, tid in tgt.exemplars()}
    assert len(linked) == cap    # all retained entries carry their link
    for q in QS:
        assert tgt.exemplar_for(q) in linked
    baseline = [tgt.exemplar_for(q) for q in QS]
    for order in itertools.permutations(range(3)):
        other = merged_in_order(sources, order, cap)
        assert [other.exemplar_for(q) for q in QS] == baseline


def test_exemplar_for_unlinked_merged_reservoir_is_none():
    """A merged at-cap reservoir with no trace links anywhere answers
    None for every quantile instead of inventing an exemplar."""
    src = LatencyRecorder(name="nolink", max_samples=8)
    for v in range(100):
        src.record(float(v % 7))
    assert src.sample_count == 8 and not src.is_exact
    tgt = LatencyRecorder(name="rollup", max_samples=8)
    tgt.merge(src)
    assert tgt.exemplar_for(50) is None
    assert tgt.exemplar_for(99.9) is None


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0, max_value=1e3,
                                 allow_nan=False), max_size=120),
       other=latencies, cap=st.integers(min_value=1, max_value=80))
def test_reads_between_records_change_nothing(values, other, cap):
    # Reading after every record() folds a short tail into the sorted
    # prefix each time; reading once sorts everything at the end.  Both
    # must leave the same reservoir, percentiles, exemplars and merge.
    eager = LatencyRecorder(name="r", max_samples=cap)
    lazy = LatencyRecorder(name="r", max_samples=cap)
    for i, v in enumerate(values):
        tid = i if i % 3 == 0 else None     # as build() links them
        eager.record(v, trace_id=tid)
        eager.p99()
        lazy.record(v, trace_id=tid)
    qs = (0, 25, 50, 99, 100)
    assert state(eager) == state(lazy)
    assert eager.sample_count == lazy.sample_count
    assert eager.is_exact == lazy.is_exact
    for q in qs:
        assert (math.isnan(eager.percentile(q))
                and math.isnan(lazy.percentile(q))) \
            or eager.percentile(q) == lazy.percentile(q)
        assert eager.exemplar_for(q) == lazy.exemplar_for(q)
    src = build("o", other, cap)
    a, b = copy.deepcopy(eager), copy.deepcopy(lazy)
    a.merge(copy.deepcopy(src))
    b.merge(copy.deepcopy(src))
    assert state(a) == state(b)


def test_pickled_recorder_carries_its_tail_sorted():
    import pickle
    rec = build("p", [5.0, 1.0, 3.0, 2.0], cap=10)
    assert rec._tail
    clone = pickle.loads(pickle.dumps(rec))
    assert not clone._tail
    assert clone.samples == (1.0, 2.0, 3.0, 5.0)
    assert state(clone) == state(rec)


@pytest.mark.parametrize("linked", ["self", "other"])
def test_merge_orders_a_missing_trace_id_below_every_id(linked):
    # Both first entries are (0.0, 1): only the trace id tells them
    # apart, and one side has none.
    a, b = LatencyRecorder(name="a"), LatencyRecorder(name="b")
    a.record(0.0, trace_id=5 if linked == "self" else None)
    b.record(0.0, trace_id=5 if linked == "other" else None)
    a.merge(b)
    assert a._sorted == [(0.0, 1, None), (0.0, 1, 5)]
    assert a.samples == (0.0, 0.0)
    assert a.exemplars() == ((0.0, 5),)


def test_record_after_merge_sorts_ties_on_a_long_tail():
    a, b = LatencyRecorder(name="a"), LatencyRecorder(name="b")
    a.record(0.0)
    b.record(0.0, trace_id=5)
    a.merge(b)
    a.record(1.0)
    a.record(0.5, trace_id=9)
    # Two tail entries against a reservoir of two: one full sort.
    assert 16 * len(a._tail) >= len(a._sorted)
    assert a.samples == (0.0, 0.0, 0.5, 1.0)
    assert a.exemplars() == ((0.0, 5), (0.5, 9))
    assert a.count == 4
