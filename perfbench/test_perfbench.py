"""Unit tests of the benchmark's own helpers (no Ray, no index).

    python3 -m pytest perfbench -q
"""

import pytest

import spans
import workload as W

VOCAB = [f"t{i}" for i in range(3000)]


def test_interactive_queries_deterministic_per_seed():
    assert W.interactive_queries(VOCAB, 7, 20, 200) == W.interactive_queries(VOCAB, 7, 20, 200)
    assert W.interactive_queries(VOCAB, 7, 20, 200) != W.interactive_queries(VOCAB, 8, 20, 200)


def test_interactive_warm_and_timed_disjoint():
    warm, timed = W.interactive_queries(VOCAB, 3, 50, 500)
    assert len(warm) == 50 and len(timed) == 500
    assert len(set(timed)) == len(timed)
    assert not set(warm) & set(timed)
    assert all(1 <= len(q.split()) <= 4 for q in warm + timed)


def test_trec_queries_deterministic_per_seed():
    assert W.trec_queries(VOCAB, 5, 40) == W.trec_queries(VOCAB, 5, 40)
    assert W.trec_queries(VOCAB, 5, 40) != W.trec_queries(VOCAB, 6, 40)


def test_trec_tail_terms_used_once_across_warm_and_timed():
    warm, timed = W.trec_queries(VOCAB, 5, 40)
    assert len(warm) == 40 and len(timed) > 500
    head = set(VOCAB[:W.TREC_HEAD])
    tail_uses = [t for q in warm + timed for t in q.split() if t not in head]
    assert len(tail_uses) == len(set(tail_uses))
    warm_tail = {t for q in warm for t in q.split()} - head
    timed_tail = {t for q in timed for t in q.split()} - head
    assert warm_tail and timed_tail and not warm_tail & timed_tail


def test_percentile_nearest_rank():
    vals = list(range(1, 1001))
    assert W.percentile(vals, 50) == 500
    assert W.percentile(vals, 99) == 990  # ten samples lie beyond it
    assert W.percentile([4.0], 99) == 4.0
    with pytest.raises(ValueError):
        W.percentile([], 50)


def test_self_time_is_span_minus_covered_child_time():
    # children overlap each other and one sticks out past the parent's end
    assert spans.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == 5.0
    assert spans.self_time(0.0, 10.0, []) == 10.0
    assert spans.self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0
    assert spans.covered([(0.0, 1.0), (1.0, 2.0), (5.0, 6.0)], 0.0, 10.0) == 3.0


def test_tracer_records_nested_spans_and_self_time():
    tr = spans.Tracer()
    with tr.span("parent"):
        with tr.span("child"):
            pass
        with tr.span("child"):
            pass
    (_, _, p0, p1, parent), *kids = tr.spans
    assert parent == -1 and all(k[4] == 0 for k in kids)
    own = tr.self_totals()
    kid_time = sum(k[3] - k[2] for k in kids)
    assert own["parent"] == pytest.approx((p1 - p0) - kid_time)
    assert tr.totals()["child"] == pytest.approx(kid_time)


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_wrap_counts_and_unwrap_restores():
    tr = spans.Tracer()
    orig_outer, orig_inner = _Layer.outer, _Layer.inner
    tr.wrap(_Layer, "outer", "layer", lambda a, out: {"calls": 1, "n": a[1]})
    tr.wrap(_Layer, "inner", "layer")  # same layer re-entered: no second span
    assert _Layer().outer(3) == 7
    assert [s[1] for s in tr.spans] == ["layer"]
    assert tr.counts == {"calls": 1, "n": 3}
    tr.unwrap_all()
    assert _Layer.outer is orig_outer and _Layer.inner is orig_inner
