"""LM block-max pruning ≡ exhaustive scoring, bit-for-bit.

The pruned path (pipelines/lm.py _score_weighted_blockmax — the
WeightedAndNode skip, ref:src/WeightedAndNode.cpp:119-186) must emit the
SAME doc ids in the SAME order with BIT-IDENTICAL float scores as the
exhaustive union DAAT, for every smoothing method, including duplicate
children, unseen terms (background-only children), weighted children,
deletions, and k far below the candidate count.
"""

from __future__ import annotations

import numpy as np
import pytest

from indri_5_5_ray.pipelines.lm import LMScorer, process_query_lm
from indri_5_5_ray.pipelines.query import IndexReader

QUERIES = [
    "merge",
    "merge buffer token",
    "the a of and data",          # stop-heavy / very common terms
    "merge merge buffer",          # duplicate child
    "merge zzzzunseenterm",        # unseen term → background-only child
    "index table row sort group window",
]


@pytest.fixture(scope="module")
def reader(built_index):
    index_dir, _ = built_index
    return IndexReader(index_dir)


@pytest.mark.parametrize("method", ["dirichlet", "jm", "two"])
@pytest.mark.parametrize("query", QUERIES)
def test_blockmax_bit_identical(reader, method, query):
    sc = LMScorer(reader, method=method)
    terms = process_query_lm(query, reader.cfg)
    if not terms:
        pytest.skip("query fully stopped")
    for k in (3, 25, 10_000):
        ids_p, s_p = sc.score(terms, k=k, prune=True)
        ids_e, s_e = sc.score(terms, k=k, prune=False)
        assert np.array_equal(ids_p, ids_e)
        assert np.array_equal(s_p, s_e)  # bitwise, not approx


@pytest.mark.parametrize("query", ["merge buffer token", "the a of and data"])
def test_blockmax_cell_local_dl_bit_identical(small_corpus_dir, tmp_path,
                                              query):
    """On a fresh reader of an index built at doc_id base 50M, the pruned
    path (cell dl floors folded over the mapped ``dl`` views, candidate
    lengths gathered from them) is bit-identical to exhaustive, and its
    peak allocation stays far below one O(max_doc_id) int32 copy
    (200 MB here)."""
    import tracemalloc

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    out = str(tmp_path / "sparse")
    build_index(small_corpus_dir, out, IndexConfig(
        max_chunk_docs=64, n_buckets=4, dedup_key="sha256"),
        resume=False, doc_id_base=50_000_000)
    fresh = IndexReader(out)
    sc = LMScorer(fresh, method="dirichlet")
    terms = process_query_lm(query, fresh.cfg)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ids_p, s_p = sc.score(terms, k=25, prune=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"pruned peak {peak / 2**20:.1f} MB"
    ids_e, s_e = LMScorer(IndexReader(out), method="dirichlet").score(
        terms, k=25, prune=False)
    assert len(ids_p) and ids_p.min() >= 50_000_000
    assert np.array_equal(ids_p, ids_e)
    assert np.array_equal(s_p, s_e)


def test_blockmax_weighted_bit_identical(reader):
    sc = LMScorer(reader)
    tw = [("merge", 2.0), ("buffer", 1.0), ("token", 0.5)]
    ids_p, s_p = sc.score_weighted(tw, k=20, prune=True)
    ids_e, s_e = sc.score_weighted(tw, k=20, prune=False)
    assert np.array_equal(ids_p, ids_e)
    assert np.array_equal(s_p, s_e)


def test_blockmax_negative_weight_falls_back(reader):
    """A non-positive weight invalidates the upper bound — the scorer must
    take the exhaustive path (and still return correct results)."""
    sc = LMScorer(reader)
    tw = [("merge", 1.0), ("buffer", -0.5)]
    ids_p, s_p = sc.score_weighted(tw, k=10)          # auto: must not prune
    ids_e, s_e = sc.score_weighted(tw, k=10, prune=False)
    assert np.array_equal(ids_p, ids_e)
    assert np.array_equal(s_p, s_e)


def test_blockmax_prunes_blocks(reader, monkeypatch):
    """On a selective query the pruned path must decode fewer blocks than
    exist for its terms (i.e. the skip actually skips; guards against the
    path silently degenerating to exhaustive).  Every posting decode goes
    through ``query.decode_doc_tf_batch`` (PostingBlocks.decode), so the
    counter sees each decoded block."""
    from indri_5_5_ray.pipelines import query as query_mod
    from indri_5_5_ray.pipelines.query import posting_blocks

    sc = LMScorer(reader)
    terms = process_query_lm("merge buffer", reader.cfg)
    total_blocks = len(posting_blocks(reader.term_rows(sorted(set(terms)))))
    decoded_counter = {"n": 0}
    real = query_mod.decode_doc_tf_batch

    def counting(payload, offs, nds, first):
        decoded_counter["n"] += len(offs)
        return real(payload, offs, nds, first)

    monkeypatch.setattr(query_mod, "decode_doc_tf_batch", counting)
    sc.score(terms, k=2, prune=True)
    # with k=2 on a 300-doc corpus at least SOME cells must be skipped
    # (every block decoded means zero pruning) — unless the corpus is so
    # small everything fits one cell, in which case total_blocks is tiny
    assert 0 < decoded_counter["n"] <= total_blocks
    if total_blocks > 8:
        assert decoded_counter["n"] < total_blocks


STRUCT_QUERIES = [
    "#combine(merge buffer token)",
    "#combine(merge merge buffer)",      # duplicate child
    "merge buffer",                       # implicit #combine
    "#combine(the a of and data)",        # common-term heavy
    "#weight(2.0 merge 1.0 buffer)",
    "#weight(0.5 merge 0.25 token 0.25 zzzzunseenterm)",
]


@pytest.mark.parametrize("query", STRUCT_QUERIES)
def test_structured_blockmax_bit_identical(built_index, query):
    """The structured engine's plain-term #combine/#weight fast path must
    reproduce the generic evaluation path bit-for-bit (same combination
    arithmetic per doc)."""
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine

    index_dir, _ = built_index
    eng = StructuredQueryEngine(IndexReader(index_dir))
    ids_p, s_p = eng.run(query, k=15)
    eng._disable_blockmax = True
    try:
        ids_e, s_e = eng.run(query, k=15)
    finally:
        eng._disable_blockmax = False
    assert np.array_equal(ids_p, ids_e)
    assert np.array_equal(s_p, s_e)  # bitwise


def test_structured_blockmax_gate_excludes_restricted(built_index):
    """Roots the fast path cannot bound (windows, restrictions, doc_set,
    doc_range) must keep taking the generic path and stay correct."""
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine

    index_dir, _ = built_index
    eng = StructuredQueryEngine(IndexReader(index_dir))
    # window root: generic path regardless of the flag
    q = "#combine(#od2(merge buffer) token)"
    ids_a, s_a = eng.run(q, k=10)
    eng._disable_blockmax = True
    ids_b, s_b = eng.run(q, k=10)
    eng._disable_blockmax = False
    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(s_a, s_b)
    # doc_set restriction falls back and intersects correctly
    ids_all, _ = eng.run("#combine(merge buffer)", k=50)
    subset = sorted(int(d) for d in ids_all[:5])
    ids_ws, _ = eng.run("#combine(merge buffer)", k=50, doc_set=subset)
    assert set(ids_ws.tolist()) <= set(subset)


def test_blockmax_respects_deletions(built_index):
    """Deleted docs must leave the pruned top-k exactly as they leave the
    exhaustive one."""
    index_dir, _ = built_index
    r = IndexReader(index_dir)
    sc = LMScorer(r)
    terms = process_query_lm("merge buffer", r.cfg)
    ids_e, _ = sc.score(terms, k=5, prune=False)
    if not len(ids_e):
        pytest.skip("no hits")
    # delete the current top hit in-memory
    r.deleted = np.array(sorted([int(ids_e[0])]), dtype=np.int64)
    ids_p, s_p = sc.score(terms, k=5, prune=True)
    ids_e2, s_e2 = sc.score(terms, k=5, prune=False)
    assert int(ids_e[0]) not in ids_p.tolist()
    assert np.array_equal(ids_p, ids_e2)
    assert np.array_equal(s_p, s_e2)
