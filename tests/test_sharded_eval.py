"""Doc-range-sharded query execution equals unsharded; TREC eval sanity."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.mark.parametrize("n_shards", [1, 3])
def test_sharded_equals_unsharded(built_index, n_shards):
    """BM25 through the sharded runner and through run_queries ranks and
    scores exactly like score_exhaustive."""
    from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query
    from indri_5_5_ray.pipelines.run import run_queries, run_queries_sharded

    out, _ = built_index
    reader = IndexReader(out)
    scorer = BM25Scorer(reader)
    queries = [("1", "merge token buffer"), ("2", "int return"), ("3", "copyright license")]
    sharded = run_queries_sharded(out, queries, k=25, n_shards=n_shards,
                                  concurrency=2)
    batch = run_queries(out, queries, k=25, concurrency=2)
    for qid, text in queries:
        terms = process_query(text, reader.cfg)
        ids, scores = scorer.score_exhaustive(terms, k=25)
        assert len(ids)
        for t in (sharded, batch):
            m = np.array(t.column("qid").to_pylist()) == qid
            assert t.column("doc_id").to_numpy()[m].tolist() == ids.tolist(), qid
            np.testing.assert_array_equal(t.column("score").to_numpy()[m],
                                          scores)  # bit-identical
            assert t.column("rank").to_numpy()[m].tolist() == list(
                range(1, len(ids) + 1))
        m = np.array(batch.column("qid").to_pylist()) == qid
        assert all(np.array(batch.column("docno").to_pylist())[m])


def test_doc_range_restriction(built_index):
    from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query

    out, _ = built_index
    reader = IndexReader(out)
    scorer = BM25Scorer(reader)
    terms = process_query("merge token", reader.cfg)
    full_ids, full_scores = scorer.score_exhaustive(terms, k=10_000)
    lo, hi = 50, 150
    part_ids, part_scores = scorer.score_exhaustive(terms, k=10_000, doc_range=(lo, hi))
    assert ((part_ids >= lo) & (part_ids < hi)).all()
    # shard scores equal the global scores for the same docs
    full = dict(zip(full_ids.tolist(), full_scores.tolist()))
    for d, s in zip(part_ids.tolist(), part_scores.tolist()):
        assert full[d] == s


def test_trec_eval():
    from indri_5_5_ray.pipelines.evaluation import evaluate_run, parse_qrels

    qrels = parse_qrels([
        "1 0 docA 1", "1 0 docB 0", "1 0 docC 2",
        "2 0 docX 1",
    ])
    run = {"1": ["docC", "docB", "docA"], "2": ["docY", "docX"]}
    m = evaluate_run(run, qrels, k=2)
    # qid1: rel at ranks 1,3 → AP = (1/1 + 2/3)/2 = 5/6; qid2: AP = 1/2
    assert abs(m["map"] - (5 / 6 + 1 / 2) / 2) < 1e-9
    assert m["p_at_2"] == (0.5 + 0.5) / 2
    assert m["topics"] == 2


def test_doc_lens_range_slices(built_index):
    """Ranged dl reads equal slices of the dense array and never load the
    full array into the reader."""
    import numpy as np

    from indri_5_5_ray.pipelines.query import IndexReader

    index_dir, manifest = built_index
    full = IndexReader(index_dir).doc_lens()
    r = IndexReader(index_dir)
    n = manifest["max_doc_id"] + 1
    for lo, hi in [(0, n), (0, n // 2), (n // 2, n), (n // 3, 2 * n // 3), (n, n + 10)]:
        sl = r.doc_lens_range(lo, hi)
        assert len(sl) == max(0, min(hi, n) - lo)
        assert np.array_equal(sl, full[lo:min(hi, n)])
    assert r._doc_lens is None  # ranged reads never materialized the full array


def test_sharded_lm_and_structured(built_index):
    """Doc-partitioned scatter for the LM and structured engines: the
    reference's QueryEnvironment scatters every query type (statistics
    global, evidence doc-local), so shard-merged results must be
    bit-identical to the single-process run — including window, wildcard
    and weighted operators."""
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.lm import LMScorer, process_query_lm
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.run import run_queries_sharded

    out, _ = built_index
    reader = IndexReader(out)

    lm_queries = [("1", "merge token buffer"), ("2", "copyright license")]
    sharded = run_queries_sharded(out, lm_queries, k=20, n_shards=3,
                                  concurrency=2, kind="lm", method="jm")
    lm = LMScorer(reader, method="jm")
    for qid, text in lm_queries:
        ids, scores = lm.score(process_query_lm(text, reader.cfg), k=20)
        m = np.array(sharded.column("qid").to_pylist()) == qid
        assert sharded.column("doc_id").to_numpy()[m].tolist() == ids.tolist(), qid
        np.testing.assert_array_equal(sharded.column("score").to_numpy()[m], scores)

    sq = [("1", "#combine(#od2(merge buffer) token)"),
          ("2", "#weight(0.7 merge 0.3 #syn(buffer token))"),
          ("3", "merg*")]
    sharded = run_queries_sharded(out, sq, k=20, n_shards=3, concurrency=2,
                                  kind="structured")
    eng = StructuredQueryEngine(reader)
    for qid, text in sq:
        ids, scores = eng.run(text, k=20)
        m = np.array(sharded.column("qid").to_pylist()) == qid
        assert sharded.column("doc_id").to_numpy()[m].tolist() == ids.tolist(), qid
        np.testing.assert_array_equal(sharded.column("score").to_numpy()[m], scores)


def test_pruned_structured_run(built_index):
    """Pruned scoring (range-pruned postings + pre-seeded statistics memo)
    is bit-identical to a full ranged run; a memo miss under pruning
    raises instead of computing a shard-local statistic."""
    import pytest

    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader

    out, _ = built_index
    reader = IndexReader(out)
    q = "#combine(#od2(merge buffer) #syn(token stream))"
    warm = StructuredQueryEngine(reader)
    memo = warm.warm_stats(q)
    assert memo  # window + syn nodes have memoized statistics

    rng = (40, 160)
    full_ids, full_s = StructuredQueryEngine(reader).run(q, k=50, doc_range=rng)
    pruned_eng = StructuredQueryEngine(reader)
    pruned_eng._cf_memo.update(memo)
    pr_ids, pr_s = pruned_eng.run(q, k=50, doc_range=rng, pruned=True)
    assert pr_ids.tolist() == full_ids.tolist()
    np.testing.assert_array_equal(pr_s, full_s)

    cold = StructuredQueryEngine(reader)
    with pytest.raises(RuntimeError, match="memo miss"):
        cold.run(q, k=10, doc_range=rng, pruned=True)
    with pytest.raises(ValueError, match="requires doc_range"):
        cold.run(q, k=10, pruned=True)


def test_sharded_rm3(built_index):
    """Distributed RM3: driver-side expansion (forward-vector point reads)
    + sharded weighted scoring is bit-identical to rm3_search."""
    from indri_5_5_ray.pipelines.feedback import rm3_search
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.run import run_queries_sharded

    out, _ = built_index
    reader = IndexReader(out)
    queries = [("1", "merge buffer"), ("2", "token stream")]
    sharded = run_queries_sharded(out, queries, k=15, n_shards=3,
                                  concurrency=2, kind="rm3",
                                  fb_docs=5, fb_terms=10)
    for qid, text in queries:
        ids, scores = rm3_search(reader, text, k=15, fb_docs=5, fb_terms=10)
        m = np.array(sharded.column("qid").to_pylist()) == qid
        assert sharded.column("doc_id").to_numpy()[m].tolist() == ids.tolist(), qid
        np.testing.assert_array_equal(sharded.column("score").to_numpy()[m], scores)


def test_pruned_field_query_sharded(built_index, tmp_path):
    """Field-restricted and predicate queries through the PRUNED scatter
    (range-pruned postings AND field extents) are bit-identical."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.run import run_queries_sharded

    docs = [f"<title>alpha t{i % 7}</title> body{i % 11} alpha "
            f"<size> {100 + i * 3} </size>" for i in range(120)]
    corpus = tmp_path / "fc"
    corpus.mkdir()
    pq.write_table(pa.table({
        "repo": ["r"] * len(docs),
        "path": [f"d{i}.txt" for i in range(len(docs))],
        "commit": [f"c{i}" for i in range(len(docs))],
        "lang": ["txt"] * len(docs),
        "content": docs,
    }), corpus / "corpus.parquet")
    out = str(tmp_path / "fidx")
    build_index(str(corpus), out, IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=4, max_chunk_docs=32,
        fields=("title", "size"), numeric_fields=("size",)), resume=False)

    eng = StructuredQueryEngine(IndexReader(out))
    queries = [("1", "#combine[title](alpha)"),
               ("2", "#filreq(#less(size 220) alpha)"),
               ("3", "#combine(#any:title alpha)")]
    sharded = run_queries_sharded(out, queries, k=30, n_shards=3,
                                  concurrency=2, kind="structured")
    for qid, text in queries:
        ids, sc = eng.run(text, k=30)
        m = np.array(sharded.column("qid").to_pylist()) == qid
        assert sharded.column("doc_id").to_numpy()[m].tolist() == ids.tolist(), qid
        np.testing.assert_array_equal(sharded.column("score").to_numpy()[m], sc)


def test_run_queries_kinds(built_index):
    """The warm-task batch path (docnos + latency) serves BM25, LM and
    structured queries identically to the single-process engines."""
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.lm import LMScorer, process_query_lm
    from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query
    from indri_5_5_ray.pipelines.run import run_queries

    out, _ = built_index
    reader = IndexReader(out)
    t = run_queries(out, [("1", "merge buffer token")], k=10, kind="lm",
                    method="dirichlet", concurrency=2)
    ids, sc = LMScorer(reader).score(
        process_query_lm("merge buffer token", reader.cfg), k=10)
    assert t.column("doc_id").to_pylist() == ids.tolist()
    np.testing.assert_array_equal(t.column("score").to_numpy(), sc)
    assert all(t.column("docno").to_pylist())  # docnos resolved

    q = "#combine(#od2(merge buffer) token)"
    t2 = run_queries(out, [("1", q)], k=10, kind="structured", concurrency=2)
    ids2, sc2 = StructuredQueryEngine(reader).run(q, k=10)
    assert t2.column("doc_id").to_pylist() == ids2.tolist()
    np.testing.assert_array_equal(t2.column("score").to_numpy(), sc2)

    t3 = run_queries(out, [("1", "merge buffer token")], k=10, kind="bm25",
                     concurrency=2)
    ids3, sc3 = BM25Scorer(reader).score_exhaustive(
        process_query("merge buffer token", reader.cfg), k=10)
    assert t3.column("doc_id").to_pylist() == ids3.tolist()
    np.testing.assert_array_equal(t3.column("score").to_numpy(), sc3)
    assert all(t3.column("docno").to_pylist())


def test_run_queries_empty_result_opens_no_index_on_driver(built_index,
                                                           monkeypatch):
    """An empty query list and an all-OOV query give 0 rows of the full
    result schema without the driver reading the index's doc lengths."""
    import pyarrow as pa

    from indri_5_5_ray.pipelines import query as query_mod
    from indri_5_5_ray.pipelines.run import run_queries

    out, _ = built_index

    def _no_driver_reads(self, *a, **kw):
        raise AssertionError("driver-side doc_lens read for an empty result")

    monkeypatch.setattr(query_mod.IndexReader, "doc_lens", _no_driver_reads)
    want = pa.schema([("qid", pa.string()), ("rank", pa.int64()),
                      ("doc_id", pa.int64()), ("docno", pa.string()),
                      ("score", pa.float64()), ("latency_ms", pa.float64())])
    for queries in ([], [("1", "zzqqxxv")]):
        t = run_queries(out, queries, k=10, concurrency=2)
        assert t.num_rows == 0
        assert t.schema == want


def test_partial_stats_sum_equals_warm_stats(built_index):
    """The distributed statistics gather: per-shard partial node counts
    (range-pruned reads) summed across disjoint shards equal the global
    warm_stats memo (ref _sumServerQuery, src/QueryEnvironment.cpp:228-260)."""
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader

    out, manifest = built_index
    reader = IndexReader(out)
    q = "#combine(#od2(merge buffer) #syn(token stream) #uw4(int return))"
    want = StructuredQueryEngine(reader).warm_stats(q)
    assert want

    n_shards = 3
    span = (manifest["max_doc_id"] + n_shards) // n_shards
    sums: dict = {}
    consts: dict = {}
    for s in range(n_shards):
        eng = StructuredQueryEngine(reader)
        part, const = eng.partial_stats(q, (s * span, (s + 1) * span))
        for k, v in part.items():
            sums[k] = sums.get(k, 0.0) + v
        consts.update(const)
    for k, v in want.items():
        got = sums.get(k, consts.get(k))
        assert got is not None, k
        assert got == v, (k, got, v)


def test_sharded_structured_driver_reads_no_postings(built_index, monkeypatch):
    """The driver process must never fetch posting blocks for a sharded
    structured run — both the statistics pass and scoring are scattered;
    only workers (separate processes, unaffected by this patch) read."""
    import numpy as np

    from indri_5_5_ray.pipelines import query as query_mod
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.run import run_queries_sharded

    out, _ = built_index
    reader = IndexReader(out)  # build expectation BEFORE patching
    eng = StructuredQueryEngine(reader)
    expected = {qid: eng.run(text, k=20)
                for qid, text in [("1", "#combine(#od2(merge buffer) token)")]}

    def _no_driver_reads(self, *a, **kw):
        raise AssertionError("driver-side postings fetch in sharded run")

    monkeypatch.setattr(query_mod.IndexReader, "blocks", _no_driver_reads)
    sharded = run_queries_sharded(
        out, [("1", "#combine(#od2(merge buffer) token)")], k=20,
        n_shards=3, concurrency=2, kind="structured")
    for qid, (ids, scores) in expected.items():
        m = np.array(sharded.column("qid").to_pylist()) == qid
        assert sharded.column("doc_id").to_numpy()[m].tolist() == ids.tolist()
        np.testing.assert_array_equal(sharded.column("score").to_numpy()[m],
                                      scores)


def test_sharded_bm25_reads_only_its_shard(small_corpus_dir, tmp_path,
                                           monkeypatch):
    """A doc-range BM25 shard fetches its posting blocks range-pruned: on
    a salted index (several rows per hot term) every block that
    ``IndexReader.blocks`` hands a shard meets [lo, hi), and the shard's
    scores equal the unsharded ones for its docs."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.query import (
        BM25Scorer,
        IndexReader,
        process_query,
    )

    out = str(tmp_path / "salted")
    build_index(small_corpus_dir, out,
                IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key="sha256",
                            salt_docs_per_group=64), resume=False)
    terms = process_query("merge token buffer int return", IndexReader(out).cfg)
    full_ids, full_scores = BM25Scorer(IndexReader(out)).score_exhaustive(
        terms, k=10_000)
    full = dict(zip(full_ids.tolist(), full_scores.tolist()))

    seen = []
    real = IndexReader.blocks

    def spy(self, t, doc_range=None):
        pb = real(self, t, doc_range)
        seen.append((doc_range, pb))
        return pb

    monkeypatch.setattr(IndexReader, "blocks", spy)
    outside = 0
    for lo, hi in ((0, 64), (64, 192), (192, 300)):
        seen.clear()
        ids, scores = BM25Scorer(IndexReader(out)).score_exhaustive(
            terms, k=10_000, doc_range=(lo, hi))
        assert seen and all(dr == (lo, hi) for dr, _ in seen)
        for _, pb in seen:
            assert len(pb) and ((pb.last >= lo) & (pb.first < hi)).all(), (lo, hi)
        assert ((ids >= lo) & (ids < hi)).all()
        assert {d: full[d] for d in ids.tolist()} == dict(
            zip(ids.tolist(), scores.tolist()))
        assert sorted(ids.tolist()) == sorted(d for d in full if lo <= d < hi)
        unranged = real(IndexReader(out), [t for t, _ in terms])
        outside += int(((unranged.last < lo) | (unranged.first >= hi)).sum())
    assert outside, "no block lies outside any shard — test is vacuous"
