"""End-to-end build + BM25 rank-identity vs an independent brute-force oracle.

The oracle plays the role of IndriRunQuery (SURVEY.md §5): it never touches
the index — it tokenizes every document directly, computes global df/N/avgdl
in plain dicts, applies the okapi formula from the reference
(ref:src/TermScoreFunctionFactory.cpp:89-101,
ref:include/indri/TFIDFTermScoreFunction.hpp:92-109,140-143) and ranks with
the exact tie-break (score desc → doc_id desc,
ref:include/indri/ScoredExtentResult.hpp:32-47).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indri_5_5_ray.config import IndexConfig
from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query
from indri_5_5_ray.sources.corpus import corpus_files
from indri_5_5_ray.stages.ingest import TermProcessor
from indri_5_5_ray.tokenizer import tokenize

QUERIES = [
    "merge token stream",
    "buffer overflow retry",
    "running flies indexed",        # stemming paths
    "U.S.A. don't -3.14",           # normalizer paths
    "the the the value",            # qtf > 1 (k3 weighting)
    "zzz_not_in_corpus",            # df=0 path
    "return if else for while",     # common keywords (negative idf)
    "naïve café Zürich",            # UTF-8
    "int",                          # single common term
    "Copyright license agreement",  # license-header skew terms
]


def brute_force_corpus(corpus_dir: str, cfg: IndexConfig):
    """Independent in-memory model: doc_id → (docno, dl, {term: tf})."""
    proc = TermProcessor(cfg)
    docs = {}
    seen_sha = {}
    doc_id = 0
    import hashlib

    for f in corpus_files(corpus_dir):
        t = pq.read_table(f)
        for row in t.to_pylist():
            did = doc_id
            doc_id += 1
            sha = hashlib.sha256(row["content"].encode()).hexdigest()
            if cfg.dedup_key == "sha256":
                if sha in seen_sha:
                    continue
                seen_sha[sha] = did
            raw = tokenize(row["content"])
            tf: dict[str, int] = {}
            for rt in raw:
                term = proc.process(rt)
                if term is None:
                    continue
                tf[term] = tf.get(term, 0) + 1
            docno = f"{row['repo']}/{row['path']}@{row['commit']}"
            docs[did] = (docno, len(raw), tf)
    return docs


def brute_force_topk(docs, query: str, cfg: IndexConfig, k: int):
    proc = TermProcessor(cfg)
    counts: dict[str, int] = {}
    for rt in tokenize(query):
        t = proc.process(rt)
        if t is not None:
            counts[t] = counts.get(t, 0) + 1
    N = len(docs)
    total = sum(dl for _, dl, _ in docs.values())
    avgdl = total / N
    k1, b, k3 = cfg.k1, cfg.b, cfg.k3
    df = {t: sum(1 for _, _, tfm in docs.values() if t in tfm) for t in counts}
    scores: dict[int, float] = {}
    for term, qtf in counts.items():
        if df[term] == 0:
            continue
        idf = math.log((N - df[term] + 0.5) / (df[term] + 0.5))
        qtw = ((k3 + 1) * qtf) / (k3 + qtf)
        for did, (_dn, dl, tfm) in docs.items():
            tf = tfm.get(term)
            if not tf:
                continue
            s = (qtw * idf * (k1 + 1) * tf) / (tf + k1 * (1 - b) + k1 * b / avgdl * dl)
            scores[did] = scores.get(did, 0.0) + s
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], -kv[0]))
    return ranked[:k]


@pytest.fixture(scope="module")
def oracle_model(small_corpus_dir):
    cfg = IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key="sha256")
    return brute_force_corpus(small_corpus_dir, cfg)


def test_manifest_stats_match_oracle(built_index, oracle_model):
    _, manifest = built_index
    assert manifest["doc_count"] == len(oracle_model)
    assert manifest["total_terms"] == sum(dl for _, dl, _ in oracle_model.values())


def test_doc_table_invariants(built_index, oracle_model):
    out, _ = built_index
    t = pq.read_table(f"{out}/docs")
    ids = t.column("doc_id").to_pylist()
    assert sorted(ids) == sorted(oracle_model.keys())
    by_id = dict(zip(ids, zip(t.column("docno").to_pylist(), t.column("dl").to_pylist())))
    for did, (docno, dl, _) in oracle_model.items():
        assert by_id[did] == (docno, dl)


def test_dictionary_df_cf_match_oracle(built_index, oracle_model):
    out, _ = built_index
    t = pq.read_table(f"{out}/dictionary")
    got = {
        term: (cf, df)
        for term, cf, df in zip(
            t.column("term").to_pylist(), t.column("cf").to_pylist(),
            t.column("df").to_pylist(),
        )
    }
    want_cf: dict[str, int] = {}
    want_df: dict[str, int] = {}
    for _, (_dn, _dl, tfm) in oracle_model.items():
        for term, tf in tfm.items():
            want_cf[term] = want_cf.get(term, 0) + tf
            want_df[term] = want_df.get(term, 0) + 1
    assert set(got) == set(want_cf)
    for term in want_cf:
        assert got[term] == (want_cf[term], want_df[term]), term


@pytest.mark.parametrize("query", QUERIES, ids=[q[:25] for q in QUERIES])
def test_rank_identity(built_index, oracle_model, query):
    out, _ = built_index
    reader = IndexReader(out)
    scorer = BM25Scorer(reader)
    terms = process_query(query, reader.cfg)
    k = 50
    expected = brute_force_topk(oracle_model, query, reader.cfg, k)

    ids, scores = scorer.score_exhaustive(terms, k=k)
    assert ids.tolist() == [d for d, _ in expected]
    np.testing.assert_allclose(scores, [s for _, s in expected], rtol=1e-12, atol=1e-12)

    ids2, scores2 = scorer.score_blockmax(terms, k=k)
    assert ids2.tolist() == ids.tolist()
    np.testing.assert_array_equal(scores, scores2)  # bit-identical paths

    # cell-local doc-length path (the >gate shape query actors use at
    # 10⁹-doc scale): a FRESH reader with the dense gate forced to 0 must
    # fetch per-cell dl slices and still be bit-identical
    import os as _os

    _os.environ["INDRI55_DENSE_DL_DOCS"] = "0"
    try:
        fresh = IndexReader(out)
        ids3, scores3 = BM25Scorer(fresh).score_blockmax(terms, k=k)
        assert fresh._doc_lens is None  # never loaded the dense array
        assert fresh._range_lens_bytes > 0  # used ranged slices
        assert ids3.tolist() == ids.tolist()
        np.testing.assert_array_equal(scores, scores3)
    finally:
        del _os.environ["INDRI55_DENSE_DL_DOCS"]


def test_positions_roundtrip_against_oracle(built_index, small_corpus_dir):
    """Decode a few terms' positions from the index and check them against
    direct tokenization (the dumpindex `termpositions` analogue)."""
    from indri_5_5_ray.codec import decode_block

    out, _ = built_index
    reader = IndexReader(out)
    cfg = reader.cfg
    proc = TermProcessor(cfg)
    docs = {}
    doc_id = 0
    import hashlib

    seen = set()
    for f in corpus_files(small_corpus_dir):
        for row in pq.read_table(f).to_pylist():
            did, doc_id = doc_id, doc_id + 1
            sha = hashlib.sha256(row["content"].encode()).hexdigest()
            if sha in seen:
                continue
            seen.add(sha)
            docs[did] = [proc.process(rt) for rt in tokenize(row["content"])]

    for probe in ["merge", "int", "copyright"]:
        rows = reader.term_rows([probe])
        if rows.num_rows == 0:
            continue
        for ri in range(rows.num_rows):
            payload = rows.column("postings")[ri].as_py()
            for off, ln in zip(
                rows.column("block_offset")[ri].as_py(),
                rows.column("block_length")[ri].as_py(),
            ):
                d, tf, pos = decode_block(payload[off : off + ln], True)
                cursor = 0
                for did, n in zip(d.tolist(), tf.tolist()):
                    want = [i for i, t in enumerate(docs[did]) if t == probe]
                    assert pos[cursor : cursor + n].tolist() == want
                    cursor += n


def test_resume_skips_completed_chunks(small_corpus_dir, tmp_path):
    """Kill-and-resume: rerunning a finished build is a no-op; a partial build
    (some chunks done) skips them and completes identically."""
    import json
    import shutil
    from pathlib import Path

    from indri_5_5_ray.pipelines.build import build_index

    cfg = IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key="sha256")
    a = str(tmp_path / "a")
    m1 = build_index(small_corpus_dir, a, cfg, resume=False)
    # finished build: resume returns the same manifest without rebuilding
    m2 = build_index(small_corpus_dir, a, cfg, resume=True)
    assert m1 == m2

    # simulate a crash after ingest: delete the manifest + merged outputs
    b_dir = Path(a)
    (b_dir / "manifest.json").unlink()
    shutil.rmtree(b_dir / "postings")
    shutil.rmtree(b_dir / "dictionary")
    m3 = build_index(small_corpus_dir, a, cfg, resume=True)
    assert m3["doc_count"] == m1["doc_count"]
    assert m3["total_terms"] == m1["total_terms"]
    # all ingest chunks were skipped (lineage hit)
    recs = json.loads(json.dumps(m3))  # structure check only
    from indri_5_5_ray.state.lineage import all_records

    ingest_recs = [r for r in all_records(a) if r["stage"] == "ingest"]
    assert len(ingest_recs) == m1["n_chunks"]


def test_cli_runquery(built_index, tmp_path, capsys):
    """IndriRunQuery-analogue batch CLI: TREC lines for every baseline."""
    from indri_5_5_ray import cli

    out, _ = built_index
    qf = tmp_path / "queries.txt"
    qf.write_text("q1\tmerge buffer\nq2\ttoken stream\n")
    for baseline in ("bm25", "tfidf", "dirichlet", "jm", "two", "indri"):
        cli.main([out, "runquery", str(qf), "5", baseline])
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert len(lines) == 10, baseline
        assert lines[0].startswith("q1 Q0 ") and lines[5].startswith("q2 Q0 ")
        ranks = [int(ln.split()[3]) for ln in lines[:5]]
        assert ranks == [1, 2, 3, 4, 5]

    # bare-text file gets 1-based qids; structured syntax through 'indri'
    qf2 = tmp_path / "q2.txt"
    qf2.write_text("#combine(#od2(merge buffer) token)\n")
    cli.main([out, "runquery", str(qf2), "3", "indri"])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert len(lines) == 3 and lines[0].startswith("1 Q0 ")


# -- property: byte-bounded layout + footer catalog == brute-force fetch ----


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_catalog_fetch_equals_bruteforce_property(tmp_path_factory, data):
    """write_postings_file + _term_footer_catalog/_read_term_rows round-trip:
    for random term-sorted posting tables (multi-salt rows, random payload
    sizes forcing random row-group cuts) the catalog fetch returns EXACTLY
    the rows of the requested terms, and a doc_range fetch returns a
    superset of the intersecting rows and a subset of the terms' rows."""
    import hashlib
    from types import SimpleNamespace

    import pyarrow as pa

    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.stages.postings import (POSTINGS_SCHEMA,
                                               write_postings_file)

    n_buckets = 4
    words = data.draw(st.lists(
        st.text(alphabet="abcdefg", min_size=1, max_size=6),
        min_size=1, max_size=12, unique=True))

    def bucket_of(t):
        return int.from_bytes(hashlib.md5(t.encode()).digest()[:4],
                              "little") % n_buckets

    rows = []
    for t in sorted(words):
        n_salt = data.draw(st.integers(1, 3))
        lo = 0
        for s in range(n_salt):
            span = data.draw(st.integers(1, 50))
            payload = bytes(data.draw(st.integers(1, 120)))
            rows.append({
                "term": t, "bucket": bucket_of(t), "salt": s,
                "cf": 1, "df": 1, "max_dl": 1, "min_dl": 1,
                "first_doc": lo, "last_doc": lo + span - 1,
                "postings": payload,
                "block_last_doc": [lo + span - 1], "block_n_docs": [1],
                "block_max_tf": [1], "block_min_dl": [1],
                "block_offset": [0], "block_length": [len(payload)],
            })
            lo += span + data.draw(st.integers(0, 5))

    d = tmp_path_factory.mktemp("cat")
    (d / "postings").mkdir()
    for b in range(n_buckets):
        brows = [r for r in rows if r["bucket"] == b]
        if not brows:
            continue
        t = pa.Table.from_pylist(brows, schema=POSTINGS_SCHEMA)
        write_postings_file(t, str(d / "postings" / f"postings-{b:05d}.parquet"),
                            target_bytes=64, max_rows=3)

    r = IndexReader.__new__(IndexReader)
    r.index_dir = str(d)
    r._pcat = None
    r._dcat = None
    r.cfg = SimpleNamespace(n_buckets=n_buckets)

    key = lambda row: (row["term"], row["salt"])
    want_terms = data.draw(st.lists(st.sampled_from(sorted(words)),
                                    min_size=1, max_size=4, unique=True))
    got = r._read_term_rows(want_terms)
    got_keys = sorted(zip(got.column("term").to_pylist(),
                          got.column("salt").to_pylist()))
    brute = sorted(key(row) for row in rows if row["term"] in want_terms)
    assert got_keys == brute

    lo = data.draw(st.integers(0, 80))
    hi = lo + data.draw(st.integers(1, 80))
    ranged = r._read_term_rows(want_terms, (lo, hi))
    rkeys = set(zip(ranged.column("term").to_pylist(),
                    ranged.column("salt").to_pylist()))
    must = {key(row) for row in rows
            if row["term"] in want_terms
            and row["last_doc"] >= lo and row["first_doc"] < hi}
    assert must <= rkeys <= set(brute)


# -- property: bucket-routed dictionary lookup == brute-force read ----------


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_routed_term_stats_equals_bruteforce_property(tmp_path_factory, data):
    """term_stats reads each term from its own bucket's dictionary file only;
    for random dictionaries (random row-group cuts, one bucket written as an
    empty file) and random term sets — present terms, absent terms, several
    terms of one bucket — it equals a brute-force read of the whole
    dictionary/ dir."""
    import hashlib
    from types import SimpleNamespace

    import pyarrow as pa

    from indri_5_5_ray.stages.postings import DICTIONARY_SCHEMA

    n_buckets = 4

    def bucket_of(t):
        return int.from_bytes(hashlib.md5(t.encode()).digest()[:4],
                              "little") % n_buckets

    drawn = data.draw(st.lists(
        st.text(alphabet="abcdefg", min_size=1, max_size=6),
        max_size=30, unique=True))
    empty_bucket = data.draw(st.integers(0, n_buckets - 1))
    words = sorted(w for w in drawn if bucket_of(w) != empty_bucket)

    d = tmp_path_factory.mktemp("dict")
    (d / "dictionary").mkdir()
    for b in range(n_buckets):
        rows = [{"term": w, "cf": data.draw(st.integers(1, 99)),
                 "df": data.draw(st.integers(1, 9)), "max_dl": 1, "min_dl": 1}
                for w in words if bucket_of(w) == b]
        pq.write_table(pa.Table.from_pylist(rows, schema=DICTIONARY_SCHEMA),
                       str(d / "dictionary" / f"dictionary-{b:05d}.parquet"),
                       row_group_size=data.draw(st.integers(1, 4)))
    brute_t = pq.read_table(str(d / "dictionary"))
    brute = {t: (cf, df) for t, cf, df in zip(
        brute_t.column("term").to_pylist(), brute_t.column("cf").to_pylist(),
        brute_t.column("df").to_pylist())}

    def fresh_reader():
        r = IndexReader.__new__(IndexReader)
        r.index_dir = str(d)
        r._dcat = None
        r._stats_cache = {}
        r.cfg = SimpleNamespace(n_buckets=n_buckets)
        return r

    absent = data.draw(st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=7), max_size=4))
    present = (data.draw(st.lists(st.sampled_from(words), max_size=6,
                                  unique=True)) if words else [])
    same_bucket = [w for w in words if bucket_of(w) == bucket_of(words[0])
                   ] if words else []
    into_empty = [w for w in drawn if bucket_of(w) == empty_bucket]
    for terms in (present + absent, same_bucket, into_empty):
        assert fresh_reader().term_stats(terms) == {
            t: brute[t] for t in terms if t in brute}


def test_cold_term_stats_reads_one_dictionary_file(built_index):
    """A cold one-term lookup decompresses row groups of exactly one
    dictionary file: the term's bucket."""
    out, _ = built_index
    r = IndexReader(out)
    cat = r._dict_catalog()
    assert sorted(cat) == list(range(r.cfg.n_buckets))
    reads = []
    for b, entry in cat.items():
        def counted(*a, _b=b, _read=entry[0].read_row_groups, **kw):
            reads.append(_b)
            return _read(*a, **kw)
        entry[0].read_row_groups = counted
    terms = pq.read_table(f"{out}/dictionary", columns=["term"]).column(
        "term").to_pylist()
    for term in (terms[0], terms[-1]):
        reads.clear()
        assert term in r.term_stats([term])
        assert reads == [r._bucket_of(term)]
    reads.clear()
    r.term_stats([terms[0]])  # cached: no read at all
    assert reads == []


def test_dictionary_file_without_bucket_raises(built_index, tmp_path):
    import shutil

    out, _ = built_index
    shutil.copytree(f"{out}/dictionary", tmp_path / "dictionary")
    shutil.copy(f"{out}/manifest.json", tmp_path / "manifest.json")
    first = sorted((tmp_path / "dictionary").glob("*.parquet"))[0]
    first.rename(first.with_name("part-0.parquet"))
    with pytest.raises(ValueError, match="no bucket"):
        IndexReader(str(tmp_path)).term_stats(["merge"])
