"""Regression tests for the code-review findings."""

from __future__ import annotations

import numpy as np
import pytest


def test_empty_and_overlong_terms_get_termid0_semantics():
    """ref:src/MemoryIndex.cpp:559-570 — empty words and words ≥
    MAX_KEY_LENGTH-1 bytes emit termID 0: the position slot counts toward
    dl but no posting exists."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.stages.ingest import TermProcessor

    proc = TermProcessor(IndexConfig(stemmer=None))
    assert proc.process("") is None
    assert proc.process("a" * 511) is None
    assert proc.process("a" * 510) == "a" * 510
    # the "'''" token normalizes to empty → dropped from postings
    assert proc.process_raw(b"'") is None


def test_row_cache_eviction_keeps_current_terms(built_index):
    from indri_5_5_ray.pipelines.query import IndexReader

    out, _ = built_index
    r = IndexReader(out)
    t1 = r.term_rows(["merge"])  # populate 'merge'
    assert t1.num_rows
    # force the eviction branch with dummy entries
    import pyarrow as pa

    from indri_5_5_ray.stages.postings import POSTINGS_SCHEMA

    empty = POSTINGS_SCHEMA.empty_table()
    for i in range(8200):
        r._row_cache[f"__dummy{i}"] = empty
    # cached 'merge' + missing 'token': must not KeyError, and must keep both
    t2 = r.term_rows(["merge", "token"])
    assert set(t2.column("term").to_pylist()) >= {"merge", "token"}
    assert "merge" in r._row_cache and "token" in r._row_cache


def test_resume_rejects_config_change(small_corpus_dir, tmp_path):
    """A config change must invalidate previously-ingested chunk lineage."""
    import json
    from pathlib import Path

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.state.lineage import all_records

    out = str(tmp_path / "idx")
    cfg1 = IndexConfig(stemmer=None, max_chunk_docs=64, n_buckets=4, dedup_key=None)
    build_index(small_corpus_dir, out, cfg1, resume=False)
    # simulate crash after ingest, then resume with a DIFFERENT stemmer
    (Path(out) / "manifest.json").unlink()
    import shutil

    shutil.rmtree(Path(out) / "postings")
    shutil.rmtree(Path(out) / "dictionary")
    cfg2 = IndexConfig(stemmer="porter", max_chunk_docs=64, n_buckets=4, dedup_key=None)
    m = build_index(small_corpus_dir, out, cfg2, resume=True)
    # chunks were re-ingested under the new config (no stale kstem/None mix):
    # porter vocabulary present
    import pyarrow.parquet as pq

    vocab = set(pq.read_table(f"{out}/dictionary", columns=["term"]).column("term").to_pylist())
    assert "merg" in vocab  # porter stem — proves re-ingest happened


def test_sharded_dense_memory_is_span_sized(built_index):
    """doc_range scoring must not allocate over the full doc space."""
    from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query

    out, _ = built_index
    r = IndexReader(out)
    sc = BM25Scorer(r)
    terms = process_query("merge token", r.cfg)
    full_ids, full_scores = sc.score_exhaustive(terms, k=1000)
    lo, hi = 100, 164
    part_ids, part_scores = sc.score_exhaustive(terms, k=1000, doc_range=(lo, hi))
    assert ((part_ids >= lo) & (part_ids < hi)).all()
    full = dict(zip(full_ids.tolist(), full_scores.tolist()))
    for d, s in zip(part_ids.tolist(), part_scores.tolist()):
        assert full[d] == s


def test_topk_nan_scores_fall_back_to_full_sort():
    """A NaN at the argpartition boundary must not wipe the result set —
    finite-scored docs still rank (score desc, doc_id desc), NaNs last."""
    from indri_5_5_ray.pipelines.query import _topk

    n = 100
    ids = np.arange(n, dtype=np.int64)
    scores = np.linspace(1.0, 2.0, n)
    scores[90:] = np.nan  # NaNs occupy the top of an argpartition
    top_ids, top_s = _topk(ids, scores, k=5)
    assert len(top_ids) == 5
    assert not np.isnan(top_s).any()
    assert list(top_ids) == [89, 88, 87, 86, 85]


def test_topk_prune_matches_full_sort_with_ties():
    """Pruned top-k == full lexsort top-k, including boundary ties broken
    by doc_id desc (fuzz over random tie-heavy inputs)."""
    from indri_5_5_ray.pipelines.query import _topk

    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(10, 3000))
        ids = rng.permutation(n).astype(np.int64)
        scores = rng.integers(0, 7, n).astype(np.float64)  # heavy ties
        k = int(rng.integers(1, 50))
        got_i, got_s = _topk(ids, scores, k)
        order = np.lexsort((-ids, -scores))[:k]
        assert np.array_equal(got_i, ids[order])
        assert np.array_equal(got_s, scores[order])


def test_sparse_docid_base_scores_equal_and_accumulator_bounded(
        small_corpus_dir, tmp_path):
    """The same corpus built at doc_id base 0 and at base 50M scores
    identically, ids shifted by exactly 50M, and the scorer's own peak
    allocation stays window-sized: the dense accumulator spans the decoded
    doc ids, never [0, max_doc_id]."""
    import tracemalloc

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.query import (BM25Scorer, IndexReader,
                                               process_query)

    base = 50_000_000
    cfg = IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key=None)
    out0, out1 = str(tmp_path / "base0"), str(tmp_path / "sparse")
    build_index(small_corpus_dir, out0, cfg, resume=False)
    build_index(small_corpus_dir, out1, cfg, resume=False, doc_id_base=base)
    r0, r1 = IndexReader(out0), IndexReader(out1)
    terms = process_query("merge buffer token", r0.cfg)
    ids0, s0 = BM25Scorer(r0).score_exhaustive(terms, k=10)
    r1.doc_lens()  # warmed once per worker, as QueryWorker does
    sc = BM25Scorer(r1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ids1, s1 = sc.score_exhaustive(terms, k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids0) == 10
    assert np.array_equal(ids1, ids0 + base)
    assert np.array_equal(s1, s0)
    assert peak < 16 << 20, f"scorer peak {peak / 2**20:.1f} MB"


@pytest.fixture(scope="module")
def two_segment_repo(tmp_path_factory):
    """A two-segment repository (disjoint docID ranges) with tiny posting
    blocks, so hot terms span many blocks in each segment."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.repository import Repository
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    d = tmp_path_factory.mktemp("two_seg")
    write_synthetic_corpus(str(d / "a"), 80, seed=31, rows_per_file=40)
    write_synthetic_corpus(str(d / "b"), 60, seed=32, rows_per_file=30)
    repo = Repository.create(str(d / "repo"), IndexConfig(
        dedup_key=None, n_buckets=4, max_chunk_docs=32, target_block_bytes=64))
    repo.add(str(d / "a"))
    repo.add(str(d / "b"))
    return repo


def _block_walk(index_dirs, terms, doc_range=None, doc_set=None,
                positions=False):
    """Reference for read_postings: every block of every posting file,
    decoded one at a time with decode_block, kept when it overlaps
    ``doc_range`` / holds a ``doc_set`` id, docs masked to ``doc_range``."""
    import pyarrow.parquet as pq

    from indri_5_5_ray.codec import decode_block

    lo, hi = doc_range or (0, 1 << 62)
    want = None if doc_set is None else set(doc_set)
    out: dict[str, list] = {}
    for index_dir in index_dirs:
        rows = pq.read_table(f"{index_dir}/postings").sort_by(
            [("term", "ascending"), ("first_doc", "ascending")]).to_pylist()
        for row in rows:
            if row["term"] not in terms:
                continue
            first = row["first_doc"]
            for off, ln, last in zip(row["block_offset"], row["block_length"],
                                     row["block_last_doc"]):
                b_first, first = first, last + 1
                if last < lo or b_first >= hi:
                    continue
                if want is not None and not any(b_first <= x <= last
                                                for x in want):
                    continue
                d, tf, pos = decode_block(row["postings"][off:off + ln],
                                          positions)
                cur = 0
                for did, n in zip(d.tolist(), tf.tolist()):
                    if lo <= did < hi:
                        out.setdefault(row["term"], []).append(
                            (did, n, pos[cur:cur + n].tolist()
                             if positions else None))
                    cur += n
    return out


def test_read_postings_matches_block_walk(built_index, two_segment_repo):
    """read_postings == a per-block decode_block walk over the raw posting
    files, for one index and a two-segment repository, with no range, a
    doc_range, a doc_set, and positions on and off: the zero-copy payload
    views must pair every block with its own row's bytes."""
    from indri_5_5_ray.pipelines.query import IndexReader, read_postings

    out, _ = built_index
    multi = two_segment_repo.reader()
    assert len(multi.readers) == 2
    terms = ["merge", "token", "buffer", "int", "return", "zzzznotaterm"]
    for reader, dirs in ((IndexReader(out), [out]),
                         (multi, two_segment_repo.segment_dirs())):
        hi_doc = reader.manifest["max_doc_id"] + 1
        for kw in ({}, {"doc_range": (hi_doc // 3, 2 * hi_doc // 3)},
                   {"doc_set": [1, 7, hi_doc // 2, hi_doc - 1]}):
            for positions in (False, True):
                got = read_postings(reader, terms, positions=positions, **kw)
                want = _block_walk(dirs, terms, positions=positions, **kw)
                assert sorted(got) == sorted(want), kw
                for t, (d, tf, pos, starts) in got.items():
                    ref = want[t]
                    assert d.tolist() == [x[0] for x in ref], (t, kw)
                    assert tf.tolist() == [x[1] for x in ref], (t, kw)
                    if not positions:
                        assert pos is None and starts is None
                        continue
                    assert [pos[starts[i]:starts[i + 1]].tolist()
                            for i in range(len(d))] == [x[2] for x in ref]


def test_point_read_multi_index_reader(built_index):
    """Regression: _doc_texts moved onto reader._point_read, which
    MultiIndexReader (documented IndexReader-compatible) lacked."""
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.repository import MultiIndexReader

    out, _ = built_index
    single = IndexReader(out)
    multi = MultiIndexReader([out])
    ids = single.docnos([0, 5, 17])
    t1 = single._point_read("docs", [0, 5, 17], ["doc_id", "dl"])
    t2 = multi._point_read("docs", [0, 5, 17], ["doc_id", "dl"])
    assert t1.sort_by("doc_id").equals(t2.sort_by("doc_id"))
    assert len(ids) == 3


@pytest.mark.parametrize("method", ["blockmax", "exhaustive"])
def test_bm25_has_no_scorer_method(built_index, method):
    """BM25 has one scorer: the old scorer names are refused as a
    ``method`` (which names only an LM smoothing) by the worker, the
    sharded runner and the daemon, and the default QueryWorker ranks like
    score_exhaustive."""
    import pyarrow as pa

    from indri_5_5_ray.pipelines.indrid import _QueryDaemon
    from indri_5_5_ray.pipelines.query import (BM25Scorer, IndexReader,
                                               process_query)
    from indri_5_5_ray.pipelines.run import QueryWorker, run_queries_sharded

    out, _ = built_index
    with pytest.raises(ValueError, match="smoothing"):
        QueryWorker(out, k=5, method=method)
    with pytest.raises(ValueError, match="smoothing"):
        run_queries_sharded(out, [("q", "merge buffer")], k=5, n_shards=2,
                            concurrency=2, method=method)
    with pytest.raises(ValueError, match="no method"):
        _QueryDaemon(out).run_query("merge buffer", k=5, method=method)
    got = QueryWorker(out, k=5)(pa.table({"qid": ["q"],
                                          "text": ["merge buffer"]}))
    r = IndexReader(out)
    ids, scores = BM25Scorer(r).score_exhaustive(
        process_query("merge buffer", r.cfg), k=5)
    assert got.column("doc_id").to_pylist() == ids.tolist()
    assert got.column("score").to_pylist() == scores.tolist()
