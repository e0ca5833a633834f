"""Offline N-way index merge: merged index must equal a single build over the
concatenated corpus (the Repository::merge contract)."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def assert_partials_bucket_sorted(index_dir: str) -> None:
    files = sorted(Path(index_dir, "partials").glob("*.parquet"))
    assert files
    for f in files:
        b = pq.read_table(f, columns=["bucket"]).column("bucket").to_numpy()
        assert (np.diff(b) >= 0).all(), f"{f.name} is not bucket-sorted"


def test_merge_two_indexes_equals_single_build(tmp_path):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.merge import merge_indexes
    from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    # two disjoint corpora whose sorted file order equals concatenation order
    a_dir = tmp_path / "corpus" / "a"
    b_dir = tmp_path / "corpus" / "b"
    write_synthetic_corpus(str(a_dir), 120, seed=10, rows_per_file=60)
    write_synthetic_corpus(str(b_dir), 100, seed=20, rows_per_file=50)

    cfg = IndexConfig(max_chunk_docs=48, n_buckets=4, dedup_key=None)
    ia = str(tmp_path / "ia")
    ib = str(tmp_path / "ib")
    build_index(str(a_dir), ia, cfg, resume=False)
    build_index(str(b_dir), ib, cfg, resume=False)

    merged = str(tmp_path / "merged")
    m = merge_indexes([ia, ib], merged)
    assert m["doc_count"] == 220
    assert_partials_bucket_sorted(merged)

    # reference: single build over the union (a/ sorts before b/)
    ref = str(tmp_path / "ref")
    build_index(str(tmp_path / "corpus"), ref, cfg, resume=False)

    # dictionaries identical
    dm = pq.read_table(f"{merged}/dictionary").sort_by("term")
    dr = pq.read_table(f"{ref}/dictionary").sort_by("term")
    assert dm.equals(dr)

    # doc tables identical (docnos at same rebased doc_ids)
    tm = pq.read_table(f"{merged}/docs").sort_by("doc_id")
    tr = pq.read_table(f"{ref}/docs").sort_by("doc_id")
    assert tm.column("doc_id").to_pylist() == tr.column("doc_id").to_pylist()
    assert tm.column("docno").to_pylist() == tr.column("docno").to_pylist()
    assert tm.column("dl").to_pylist() == tr.column("dl").to_pylist()

    # rankings identical (scores bit-equal)
    rm = IndexReader(merged)
    rr = IndexReader(ref)
    for q in ["merge token buffer", "int return while", "copyright license"]:
        terms = process_query(q, rr.cfg)
        ids_m, s_m = BM25Scorer(rm).score_exhaustive(terms, k=30)
        ids_r, s_r = BM25Scorer(rr).score_exhaustive(terms, k=30)
        assert ids_m.tolist() == ids_r.tolist()
        np.testing.assert_array_equal(s_m, s_r)


def test_merge_rejects_incompatible_configs(tmp_path):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.merge import merge_indexes
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    c = tmp_path / "c"
    write_synthetic_corpus(str(c), 40, seed=1, rows_per_file=40)
    i1 = str(tmp_path / "i1")
    i2 = str(tmp_path / "i2")
    build_index(str(c), i1, IndexConfig(max_chunk_docs=32, n_buckets=2,
                                        dedup_key=None), resume=False)
    build_index(str(c), i2, IndexConfig(max_chunk_docs=32, n_buckets=2,
                                        dedup_key=None, stemmer=None), resume=False)
    with pytest.raises(ValueError, match="stemmer"):
        merge_indexes([i1, i2], str(tmp_path / "out"))


def test_merge_carries_direct_and_deletions(tmp_path):
    """Offline merge must carry doc_id-keyed sidecar data (forward index)
    and the sources' deleted lists, rebased — regression: both were dropped,
    resurrecting deleted docs and breaking doc_vectors on the merged
    index."""
    import json

    from indri_5_5_ray import cli
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.merge import merge_indexes
    from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    a_dir = tmp_path / "ca"
    b_dir = tmp_path / "cb"
    write_synthetic_corpus(str(a_dir), 60, seed=31, rows_per_file=60)
    write_synthetic_corpus(str(b_dir), 50, seed=32, rows_per_file=50)
    cfg = IndexConfig(max_chunk_docs=48, n_buckets=4, dedup_key=None,
                      store_direct=True)
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index(str(a_dir), ia, cfg, resume=False)
    build_index(str(b_dir), ib, cfg, resume=False)
    cli.main([ia, "delete", "7"])
    cli.main([ib, "delete", "3"])

    merged = str(tmp_path / "m")
    merge_indexes([ia, ib], merged)
    base_b = json.loads(open(f"{ia}/manifest.json").read())["max_doc_id"] + 1
    r = IndexReader(merged)
    assert r.deleted is not None
    assert sorted(r.deleted.tolist()) == sorted([7, base_b + 3])

    # forward index present and rebased: b's doc 5 == merged doc base_b+5
    vb = IndexReader(ib).doc_vectors([5])[5]
    vm = r.doc_vectors([base_b + 5])[base_b + 5]
    assert vb and vm == vb

    # deleted docs stay masked in queries over the merged index
    q = process_query("merge buffer token", r.cfg)
    ids, _ = BM25Scorer(r).score_exhaustive(q, k=110)
    assert 7 not in ids.tolist()
    assert (base_b + 3) not in ids.tolist()


def _write_titled_corpus(d: Path, n: int, tag: str) -> None:
    d.mkdir(parents=True)
    pq.write_table(pa.table({
        "repo": ["r"] * n,
        "path": [f"{tag}{i}.txt" for i in range(n)],
        "commit": [f"c{tag}{i}" for i in range(n)],
        "lang": ["txt"] * n,
        "content": [f"<title>alpha {tag}{i} beta</title> gamma {tag} delta {i}"
                    for i in range(n)],
    }), d / "corpus.parquet")


def test_merge_keeps_field_stats_and_min_doc_id(tmp_path):
    """A merged index's manifest carries the same field statistics, counts
    and min_doc_id as a single build over the same docs — regression: the
    merged manifest dropped field_stats and min_doc_id, so field-scoped
    beliefs on a merged index scored with a zero field total."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.merge import merge_indexes
    from indri_5_5_ray.pipelines.query import IndexReader

    _write_titled_corpus(tmp_path / "corpus" / "a", 12, "a")
    _write_titled_corpus(tmp_path / "corpus" / "b", 8, "b")
    cfg = IndexConfig(stemmer=None, dedup_key=None, n_buckets=4,
                      max_chunk_docs=5, fields=("title",))
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index(str(tmp_path / "corpus" / "a"), ia, cfg, resume=False)
    build_index(str(tmp_path / "corpus" / "b"), ib, cfg, resume=False)
    merged = str(tmp_path / "merged")
    merge_indexes([ia, ib], merged)
    ref = str(tmp_path / "ref")
    build_index(str(tmp_path / "corpus"), ref, cfg, resume=False)

    rm, rr = IndexReader(merged), IndexReader(ref)
    assert rr.field_stats("title") == {
        "total_len": 60, "extent_count": 20, "doc_count": 20}
    assert rm.field_stats("title") == rr.field_stats("title")
    for key in ("doc_count", "total_terms", "min_doc_id"):
        assert rm.manifest[key] == rr.manifest[key], key


@pytest.mark.parametrize("resume", [False, True])
def test_merge_into_source_refused(tmp_path, resume):
    """Merging into (or into a directory inside, or around) a source index
    raises before touching it — regression: merge_indexes([a, b], a) wiped
    a before copying it, and with resume=True returned a's own manifest."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.merge import merge_indexes
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    write_synthetic_corpus(str(tmp_path / "ca"), 60, seed=3, rows_per_file=60)
    write_synthetic_corpus(str(tmp_path / "cb"), 40, seed=4, rows_per_file=40)
    cfg = IndexConfig(max_chunk_docs=32, n_buckets=2, dedup_key=None)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    build_index(str(tmp_path / "ca"), a, cfg, resume=False)
    build_index(str(tmp_path / "cb"), b, cfg, resume=False)
    for out in (a, str(Path(a) / "nested"), str(tmp_path)):
        with pytest.raises(ValueError, match="disjoint"):
            merge_indexes([a, b], out, resume=resume)
    assert IndexReader(a).doc_count == 60
    assert IndexReader(b).doc_count == 40
