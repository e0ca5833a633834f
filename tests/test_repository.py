"""Repository lifecycle: incremental adds (numbered segments with disjoint
docIDs), rank-identity of multi-segment reads vs a single-build index,
deletion masking, trim and compact."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    d = tmp_path_factory.mktemp("repo_corpora")
    a = str(d / "a")
    b = str(d / "b")
    both = str(d / "both")
    write_synthetic_corpus(a, 120, seed=21, rows_per_file=60)
    write_synthetic_corpus(b, 80, seed=22, rows_per_file=40)
    # combined corpus in the same order (a then b) for the rank-identity check
    import shutil
    from pathlib import Path

    Path(both).mkdir()
    shutil.copy(f"{a}/corpus-00000.parquet", f"{both}/a-00000.parquet")
    shutil.copy(f"{a}/corpus-00001.parquet", f"{both}/a-00001.parquet")
    shutil.copy(f"{b}/corpus-00000.parquet", f"{both}/b-00000.parquet")
    shutil.copy(f"{b}/corpus-00001.parquet", f"{both}/b-00001.parquet")
    return a, b, both


CFG_KW = dict(stemmer=None, dedup_key=None, n_buckets=4, max_chunk_docs=64)


def test_incremental_add_rank_identity(corpora, tmp_path):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query
    from indri_5_5_ray.pipelines.repository import Repository

    a, b, both = corpora
    cfg = IndexConfig(**CFG_KW)
    repo = Repository.create(str(tmp_path / "repo"), cfg)
    m1 = repo.add(a)
    m2 = repo.add(b)
    assert m2["min_doc_id"] == m1["max_doc_id"] + 1  # disjoint ranges

    mono = str(tmp_path / "mono")
    build_index(both, mono, cfg, resume=False)
    rm = repo.reader()
    rs = IndexReader(mono)
    assert rm.doc_count == rs.doc_count
    assert rm.total_terms == rs.total_terms
    q = process_query("merge buffer token stream", cfg)
    ids_m, s_m = BM25Scorer(rm).score_exhaustive(q, k=30)
    ids_s, s_s = BM25Scorer(rs).score_exhaustive(q, k=30)
    assert np.array_equal(ids_m, ids_s)
    assert np.allclose(s_m, s_s, rtol=0, atol=1e-12)

    # trim folds segments into one; results unchanged
    repo.trim(max_segments=1)
    assert len(repo.meta["segments"]) == 1
    ids_t, s_t = BM25Scorer(repo.reader()).score_exhaustive(q, k=30)
    assert np.array_equal(ids_t, ids_s)
    assert np.allclose(s_t, s_s, rtol=0, atol=1e-12)


def test_delete_and_compact(corpora, tmp_path):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.query import BM25Scorer, process_query
    from indri_5_5_ray.pipelines.repository import Repository

    a, b, _ = corpora
    cfg = IndexConfig(**CFG_KW)
    repo = Repository.create(str(tmp_path / "repo2"), cfg)
    repo.add(a)
    repo.add(b)
    q = process_query("merge buffer token", cfg)
    ids0, _ = BM25Scorer(repo.reader()).score_exhaustive(q, k=10)
    victims = ids0[:3].tolist()
    repo.delete(victims)
    r = repo.reader()
    ids1, _ = BM25Scorer(r).score_exhaustive(q, k=10)
    assert not set(victims) & set(ids1.tolist())
    # statistics keep deleted docs until compaction (reference semantics)
    assert r.doc_count == 200

    # a fresh reader loads the same deleted list and ranks the same
    fresh, _ = BM25Scorer(repo.reader()).score_exhaustive(q, k=10)
    assert np.array_equal(fresh, ids1)

    repo.compact()
    r2 = repo.reader()
    assert r2.deleted is None or len(r2.deleted) == 0
    assert r2.doc_count == 200 - len(victims)
    # compaction rewrites partials in the build's bucket-sorted layout
    import pyarrow.parquet as pq

    for seg in repo.segment_dirs():
        for f in sorted(Path(seg, "partials").glob("*.parquet")):
            bk = pq.read_table(f, columns=["bucket"]).column("bucket").to_numpy()
            assert (np.diff(bk) >= 0).all(), f"{f.name} is not bucket-sorted"
    # deleted docs are physically gone from the postings
    ids2, _ = BM25Scorer(r2).score_exhaustive(q, k=10)
    assert not set(victims) & set(ids2.tolist())
    vecs = r2.docnos(victims)
    assert all(v == "" for v in vecs)


def test_cli_delete_compact(tmp_path):
    from indri_5_5_ray import cli
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    corpus = str(tmp_path / "c")
    write_synthetic_corpus(corpus, 60, seed=5, rows_per_file=60)
    idx = str(tmp_path / "idx")
    build_index(corpus, idx, IndexConfig(**CFG_KW), resume=False)
    cli.main([idx, "delete", "7"])
    r = IndexReader(idx)
    assert r.deleted is not None and 7 in r.deleted.tolist()
    out = str(tmp_path / "compacted")
    cli.main([idx, "compact", out])
    r2 = IndexReader(out)
    assert r2.deleted is None
    assert r2.doc_count == r.doc_count - 1
    assert r2.docnos([7]) == [""]


def test_multireader_lm_and_structured(corpora, tmp_path):
    """LM and structured-query engines produce identical results over a
    multi-segment repository and the equivalent single-build index."""
    import numpy as np

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.lm import LMScorer, process_query_lm
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.repository import Repository

    a, b, both = corpora
    cfg = IndexConfig(**CFG_KW)
    repo = Repository.create(str(tmp_path / "repo3"), cfg)
    repo.add(a)
    repo.add(b)
    mono = str(tmp_path / "mono3")
    build_index(both, mono, cfg, resume=False)
    rm, rs = repo.reader(), IndexReader(mono)

    terms = process_query_lm("merge buffer token", cfg)
    ids_m, s_m = LMScorer(rm).score(terms, k=20)
    ids_s, s_s = LMScorer(rs).score(terms, k=20)
    assert np.array_equal(ids_m, ids_s) and np.allclose(s_m, s_s, atol=0)

    for q in ["#combine(#od2(merge buffer) token)", "#syn(merge buffer)",
              "merg*"]:
        im, sm = StructuredQueryEngine(rm).run(q, k=20)
        is_, ss = StructuredQueryEngine(rs).run(q, k=20)
        assert np.array_equal(im, is_), q
        assert np.allclose(sm, ss, atol=0), q


def test_lm_after_delete(corpora, tmp_path):
    """LM scoring over a repository with deletions: deleting the MAX-id
    candidate must not crash (searchsorted lands past the filtered candidate
    array), deleting any doc must not corrupt survivors' scores, and no
    deleted doc may appear in results."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.lm import LMScorer, process_query_lm
    from indri_5_5_ray.pipelines.repository import Repository

    a, b, _ = corpora
    cfg = IndexConfig(**CFG_KW)
    repo = Repository.create(str(tmp_path / "repo_lmdel"), cfg)
    repo.add(a)
    repo.add(b)
    terms = process_query_lm("merge buffer token", cfg)
    ids0, s0 = LMScorer(repo.reader()).score(terms, k=200)
    pre = dict(zip(ids0.tolist(), s0.tolist()))

    # delete the highest-id candidate + one mid-list candidate
    victims = [int(ids0.max()), int(sorted(ids0.tolist())[len(ids0) // 2])]
    repo.delete(victims)
    ids1, s1 = LMScorer(repo.reader()).score(terms, k=200)
    assert not set(victims) & set(ids1.tolist())
    # survivors keep their exact pre-delete scores (masking only removes
    # candidates; the background statistics are unchanged until compact)
    for d, s in zip(ids1.tolist(), s1.tolist()):
        assert pre[d] == s


def test_empty_deleted_list_is_harmless(corpora, tmp_path):
    """A deleted.parquet with ZERO rows (delete([]) or no-match
    delete_docnos) must behave as 'no deletions' — regression: the
    searchsorted mask indexed an empty array and every query crashed."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.query import BM25Scorer, process_query
    from indri_5_5_ray.pipelines.repository import Repository

    a, _, _ = corpora
    cfg = IndexConfig(**CFG_KW)
    repo = Repository.create(str(tmp_path / "repo_edel"), cfg)
    repo.add(a)
    repo.delete([])
    r = repo.reader()
    q = process_query("merge buffer token", cfg)
    ids, _ = BM25Scorer(r).score_exhaustive(q, k=10)
    assert len(ids) == 10


def test_trim_keeps_max_segments(corpora, tmp_path):
    """trim(max_segments=N) folds only the NEWEST segments, leaving N total
    (reference _trimIndexes: old large indexes stay untouched,
    ref:src/Repository.cpp:754-812)."""
    import numpy as np

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.query import BM25Scorer, process_query
    from indri_5_5_ray.pipelines.repository import Repository
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    parts = []
    for i in range(4):
        c = str(tmp_path / f"c{i}")
        write_synthetic_corpus(c, 30, seed=40 + i, rows_per_file=30)
        parts.append(c)
    cfg = IndexConfig(**CFG_KW)
    repo = Repository.create(str(tmp_path / "repo_trim"), cfg)
    for c in parts:
        repo.add(c)
    assert len(repo.meta["segments"]) == 4
    first_seg = repo.meta["segments"][0]
    q = process_query("merge buffer token", cfg)
    ids0, s0 = BM25Scorer(repo.reader()).score_exhaustive(q, k=20)

    repo.trim(max_segments=3)
    assert len(repo.meta["segments"]) == 3
    # the oldest segments were left untouched
    assert repo.meta["segments"][0] == first_seg
    ids1, s1 = BM25Scorer(repo.reader()).score_exhaustive(q, k=20)
    assert np.array_equal(ids0, ids1)
    assert np.allclose(s0, s1, rtol=0, atol=1e-12)

    repo.trim(max_segments=1)
    assert len(repo.meta["segments"]) == 1
    ids2, s2 = BM25Scorer(repo.reader()).score_exhaustive(q, k=20)
    assert np.array_equal(ids0, ids2)
    assert np.allclose(s0, s2, rtol=0, atol=1e-12)


def test_prior_covers_all_segments(corpora, tmp_path):
    """#prior over a multi-segment repository must read every segment's
    prior table — regression: the repository reader used segment 0's priors
    only, silently defaulting every later segment's docs to log(1/N)."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.priors import build_length_prior
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.repository import Repository

    a, b, both = corpora
    cfg = IndexConfig(**CFG_KW)
    repo = Repository.create(str(tmp_path / "repo_prior"), cfg)
    repo.add(a)
    m2 = repo.add(b)
    repo.build_length_prior("length")
    rm = repo.reader()
    ids, lps = rm.load_prior("length")
    assert len(ids) == rm.doc_count
    assert ids.max() == m2["max_doc_id"]  # segment 2's docs ARE covered
    assert np.all(np.diff(ids) > 0)

    # rank-identity vs the same prior built on the monolithic index
    mono = str(tmp_path / "mono_prior")
    build_index(both, mono, cfg, resume=False)
    build_length_prior(mono, "length")
    rs = IndexReader(mono)
    q = "#weight(1.0 merge 0.4 #prior(length))"
    ids_m, s_m = StructuredQueryEngine(rm).run(q, k=25)
    ids_s, s_s = StructuredQueryEngine(rs).run(q, k=25)
    assert np.array_equal(ids_m, ids_s)
    assert np.allclose(s_m, s_s, rtol=0, atol=1e-12)


def test_prior_partial_coverage_no_crash(corpora, tmp_path):
    """A prior present on only SOME segments: queries whose candidates lie
    in an uncovered segment get the log(1/N) default — regression: the
    range-pruned empty load crashed with IndexError."""
    import numpy as np

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.priors import build_length_prior
    from indri_5_5_ray.pipelines.repository import Repository

    a, b, _ = corpora
    cfg = IndexConfig(**CFG_KW)
    repo = Repository.create(str(tmp_path / "repo_pp"), cfg)
    repo.add(a)
    repo.add(b)
    build_length_prior(repo.segment_dirs()[0], "plen")  # segment 0 ONLY
    rm = repo.reader()
    ids, sc = StructuredQueryEngine(rm).run(
        "#weight(1.0 merge 0.3 #prior(plen))", k=200)
    assert len(ids) > 0
    # docs beyond segment 0 still score (with the default prior folded in)
    seg0_max = 119  # corpus a = 120 docs
    assert (ids > seg0_max).any()
    assert np.isfinite(sc).all()


def test_delete_docnos_lookup(corpora, tmp_path):
    """delete_docnos resolves names to ids via a pushed-down parquet
    filter (no driver-side row scan) and ignores unknown names."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.repository import Repository

    a, _, _ = corpora
    cfg = IndexConfig(**CFG_KW)
    repo = Repository.create(str(tmp_path / "repo_dn"), cfg)
    repo.add(a)
    names = repo.reader().docnos([5, 17])
    assert all(names)
    n = repo.delete_docnos(names + ["no/such@docno"])
    assert n == 2
    assert sorted(repo.deleted().tolist()) == [5, 17]



def _repo_and_mono(corpora, tmp_path, name, **cfg_kw):
    """A two-segment repository over corpora a, b and the single-build
    index over both, with one config."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.repository import Repository

    a, b, both = corpora
    cfg = IndexConfig(**{**CFG_KW, **cfg_kw})
    repo = Repository.create(str(tmp_path / f"repo_{name}"), cfg)
    repo.add(a)
    repo.add(b)
    mono = str(tmp_path / f"mono_{name}")
    build_index(both, mono, cfg, resume=False)
    return repo, mono


def test_feedback_vectors_cover_all_segments(corpora, tmp_path):
    """RM feedback over a repository built without a direct index reads
    every segment's postings — regression: the fallback scanned segment 0
    only, so feedback docs past it got empty term vectors."""
    from indri_5_5_ray.pipelines.feedback import (_feedback_doc_vectors,
                                                  rm1_model)
    from indri_5_5_ray.pipelines.query import IndexReader

    repo, mono = _repo_and_mono(corpora, tmp_path, "fb")
    rm, rs = repo.reader(), IndexReader(mono)
    ids = [3, 64, 119, 120, 130, 199]  # segment 0 holds ids 0-119
    got = _feedback_doc_vectors(rm, ids)
    assert got == _feedback_doc_vectors(rs, ids)
    assert all(got[d] for d in ids)
    for q in ("merge buffer token", "stream return value"):
        assert rm1_model(rm, q) == rm1_model(rs, q), q


def test_repository_reader_equals_single_build(corpora, tmp_path):
    """A reader over two segments answers every read like the single-build
    index: statistics, doc lengths (also across the segment boundary),
    docnos, direct vectors, dictionary stats and prefixes, and decoded
    postings; its deleted set is the union of the repository's list and
    every segment's own."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from indri_5_5_ray.pipelines.query import IndexReader, read_postings

    repo, mono = _repo_and_mono(corpora, tmp_path, "eq", store_direct=True)
    rm, rs = repo.reader(), IndexReader(mono)
    assert rm.index_dir == repo.segment_dirs()[0]
    assert (rm.doc_count, rm.total_terms, rm.avgdl) == \
        (rs.doc_count, rs.total_terms, rs.avgdl)
    assert rm.manifest["max_doc_id"] == rs.manifest["max_doc_id"]
    assert np.array_equal(rm.doc_lens_range(100, 150),
                          rs.doc_lens_range(100, 150))
    assert np.array_equal(rm.doc_lens(), rs.doc_lens())

    ids = [0, 7, 119, 120, 121, 160, 199]
    assert rm.docnos(ids + [500]) == rs.docnos(ids + [500])
    assert rm.doc_vectors(ids) == rs.doc_vectors(ids)
    for d in ids + [500]:
        assert rm.doc_vector_positional(d) == rs.doc_vector_positional(d), d

    vocab = pq.read_table(f"{mono}/dictionary",
                          columns=["term"]).column("term").to_pylist()
    assert rm.term_stats(vocab + ["zzznotaterm"]) == rs.term_stats(vocab)
    for prefix, cap in (("m", 1000), ("t", 5), ("zzz", 10)):
        assert rm.dictionary_prefix(prefix, cap) == \
            rs.dictionary_prefix(prefix, cap)

    terms = sorted(vocab)[::7]
    got = read_postings(rm, terms, positions=True)
    want = read_postings(rs, terms, positions=True)
    assert sorted(got) == sorted(want)
    for t, (d, tf, pos, starts) in want.items():
        gd, gtf, gpos, gstarts = got[t]
        assert d.tolist() == gd.tolist(), t
        assert tf.tolist() == gtf.tolist(), t
        assert pos.tolist() == gpos.tolist(), t
        assert starts.tolist() == gstarts.tolist(), t

    all_ids = np.arange(rs.manifest["max_doc_id"] + 1)
    assert rm.keep_mask(all_ids).all()
    repo.delete([5, 150])
    pq.write_table(pa.table({"doc_id": pa.array([160], pa.int64())}),
                   f"{repo.segment_dirs()[1]}/deleted.parquet")
    keep = repo.reader().keep_mask(all_ids)
    assert sorted(all_ids[~keep].tolist()) == [5, 150, 160]


def test_filter_partials_vectorized():
    """_filter_partials: pass-through, partial, and whole-run deletion,
    positions byte-slicing — compared against a straightforward per-row
    reference on a randomized table."""
    import random

    import pyarrow as pa

    from indri_5_5_ray.pipelines.merge import _filter_partials
    from indri_5_5_ray.stages.postings import PARTIALS_SCHEMA

    rng = random.Random(3)
    cols = {n: [] for n in PARTIALS_SCHEMA.names}
    for r in range(40):
        n = rng.randrange(1, 6)
        ids = sorted(rng.sample(range(100), n))
        blens = [rng.randrange(1, 4) for _ in range(n)] if r % 3 else []
        payload = bytes(rng.randrange(256) for _ in range(sum(blens)))
        cols["term"].append(f"t{r % 7}")
        cols["bucket"].append(r % 4)
        cols["salt"].append(0)
        cols["first_doc"].append(ids[0])
        cols["last_doc"].append(ids[-1])
        cols["doc_ids"].append(ids)
        cols["tfs"].append([rng.randrange(1, 9) for _ in range(n)])
        cols["dls"].append([rng.randrange(1, 99) for _ in range(n)])
        cols["pos_bytes"].append(payload)
        cols["pos_byte_lens"].append(blens)
    t = pa.Table.from_pydict(cols, schema=PARTIALS_SCHEMA)

    def reference(t, deleted):
        out = {n: [] for n in t.column_names}
        dset = set(deleted.tolist())
        for i in range(t.num_rows):
            row = {n: t.column(n)[i].as_py() for n in t.column_names}
            keep = [d not in dset for d in row["doc_ids"]]
            if not any(keep):
                continue
            starts = [0]
            for L in row["pos_byte_lens"]:
                starts.append(starts[-1] + L)
            if row["pos_byte_lens"]:
                row["pos_bytes"] = b"".join(
                    row["pos_bytes"][starts[j]:starts[j + 1]]
                    for j, k in enumerate(keep) if k)
                row["pos_byte_lens"] = [L for L, k in zip(row["pos_byte_lens"], keep) if k]
            for n in ("doc_ids", "tfs", "dls"):
                row[n] = [v for v, k in zip(row[n], keep) if k]
            row["first_doc"] = row["doc_ids"][0]
            row["last_doc"] = row["doc_ids"][-1]
            for n in t.column_names:
                out[n].append(row[n])
        return pa.Table.from_pydict(out, schema=PARTIALS_SCHEMA)

    for deleted in ([], [5, 17, 40, 99], list(range(100))):
        da = np.asarray(sorted(deleted), dtype=np.int64)
        got = _filter_partials(t, da)
        want = reference(t, da)
        key = lambda tb: sorted(map(tuple, zip(
            tb.column("term").to_pylist(), tb.column("salt").to_pylist(),
            tb.column("first_doc").to_pylist(),
            [tuple(x) for x in tb.column("doc_ids").to_pylist()],
            [tuple(x) for x in tb.column("tfs").to_pylist()],
            [tuple(x) for x in tb.column("dls").to_pylist()],
            tb.column("pos_bytes").to_pylist(),
            [tuple(x) for x in tb.column("pos_byte_lens").to_pylist()])))
        assert key(got) == key(want), f"mismatch for deleted={deleted[:5]}..."


def test_compact_and_merge_keep_docstore_row_groups(tmp_path):
    """Compaction and index merge preserve the content docstore's 256-row
    point-read layout (stages.postings.write_docs writes it for ingest and
    for the merge/compaction copy step)."""
    import pyarrow.parquet as pq

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.merge import merge_indexes
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.repository import Repository
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus
    from pathlib import Path

    # one chunk per corpus file, each well over one 256-row group
    a, b = str(tmp_path / "ca"), str(tmp_path / "cb")
    write_synthetic_corpus(a, 600, seed=23, rows_per_file=600)
    write_synthetic_corpus(b, 400, seed=24, rows_per_file=400)
    cfg = IndexConfig(store_content=True,
                      **{**CFG_KW, "max_chunk_docs": 1024})

    def max_rows_per_group(index_dir: str) -> tuple[int, int]:
        worst, checked = 0, 0
        for f in sorted(Path(index_dir).glob("docs/*.parquet")):
            md = pq.ParquetFile(str(f)).metadata
            if md.num_rows > 256:  # tiny fragments may be one group
                checked += 1
                worst = max(worst, max(
                    md.row_group(i).num_rows
                    for i in range(md.num_row_groups)))
        return worst, checked

    repo = Repository.create(str(tmp_path / "repo_rg"), cfg)
    repo.add(a)
    repo.add(b)
    repo.delete(list(range(3)))
    repo.compact()
    segs = sorted(str(p) for p in
                  Path(tmp_path / "repo_rg").glob("segments/seg-*"))
    assert segs, "no compacted segment found"
    n_checked = 0
    for s in segs:
        worst, checked = max_rows_per_group(s)
        assert worst <= 256
        n_checked += checked
    assert n_checked, "no compacted docs file spans more than one group"

    # merge two standalone store_content indexes
    ia = str(tmp_path / "ia"); ib = str(tmp_path / "ib")
    build_index(a, ia, cfg, resume=False)
    build_index(b, ib, cfg, resume=False)
    out = str(tmp_path / "merged_rg")
    merge_indexes([ia, ib], out, resume=False)
    worst, checked = max_rows_per_group(out)
    assert worst <= 256
    assert checked, "no merged docs file spans more than one group"

    # and point reads still return the right text
    from indri_5_5_ray.pipelines.query import IndexReader

    r = IndexReader(out)
    t = r._point_read("docs", [5, 650], ["doc_id", "content"])
    vals = dict(zip(t.column("doc_id").to_pylist(),
                    t.column("content").to_pylist()))
    assert set(vals) == {5, 650}
    assert all(isinstance(x, str) and x for x in vals.values())
