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


STOP = ("the", "a", "of", "and", "if", "for", "return", "int")
ABSENT = ("zzqx_absent", "qqnotaterm")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_score_exhaustive_equals_bruteforce_property(built_index, oracle_model,
                                                     data):
    """For random 1-4-term queries (oracle vocabulary, absent terms,
    repeated terms, stopword-only text under a stopping query config),
    k in {1, 10, 1000} and a random deleted-doc set, score_exhaustive
    ranks exactly like the brute-force oracle; and for random doc_range
    shards the merged per-shard top-k equals the unsharded top-k,
    bit for bit."""
    import dataclasses

    out, _ = built_index
    reader = IndexReader(out)
    vocab = sorted({t for _dn, _dl, tfm in oracle_model.values() for t in tfm})
    stopped = data.draw(st.booleans())
    qcfg = (dataclasses.replace(reader.cfg, stopwords=STOP) if stopped
            else reader.cfg)
    if stopped and data.draw(st.booleans()):
        words = data.draw(st.lists(st.sampled_from(STOP), min_size=1,
                                   max_size=4))
    else:
        pool = st.sampled_from(vocab) | st.sampled_from(ABSENT + STOP)
        words = data.draw(st.lists(pool, min_size=1, max_size=4))
        if data.draw(st.booleans()):
            words.append(data.draw(st.sampled_from(words)))  # repeated term
    text = " ".join(words)
    k = data.draw(st.sampled_from([1, 10, 1000]))
    ids_all = sorted(oracle_model)
    deleted = sorted(data.draw(st.sets(st.sampled_from(ids_all), max_size=40)))
    reader.deleted = np.asarray(deleted, np.int64) if deleted else None

    terms = process_query(text, qcfg)
    ids, scores = BM25Scorer(reader).score_exhaustive(terms, k=k)
    gone = set(deleted)
    expected = [(d, s) for d, s in brute_force_topk(
        oracle_model, text, qcfg, len(oracle_model)) if d not in gone][:k]
    assert ids.tolist() == [d for d, _ in expected]
    np.testing.assert_allclose(scores, [s for _, s in expected],
                               rtol=1e-12, atol=1e-12)

    # doc_range shards over [0, max_doc_id]: merged top-k == unsharded
    top = reader.manifest["max_doc_id"] + 1
    cuts = sorted(set(data.draw(st.lists(st.integers(1, top - 1),
                                         max_size=5))))
    bounds = [0, *cuts, top]
    parts = [BM25Scorer(reader).score_exhaustive(terms, k=k,
                                                 doc_range=(lo, hi))
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    m_ids = np.concatenate([p[0] for p in parts])
    m_scores = np.concatenate([p[1] for p in parts])
    order = np.lexsort((-m_ids, -m_scores))[:k]
    assert np.array_equal(m_ids[order], ids)
    assert np.array_equal(m_scores[order], scores)


def test_positions_roundtrip_against_oracle(built_index, small_corpus_dir,
                                           capsys):
    """Decode a few terms' positions from the index and check them against
    direct tokenization, block by block and through dumpindex
    `termpositions`."""
    from indri_5_5_ray import cli
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
            first = rows.column("first_doc")[ri].as_py()
            for off, ln, last, nb in zip(
                rows.column("block_offset")[ri].as_py(),
                rows.column("block_length")[ri].as_py(),
                rows.column("block_last_doc")[ri].as_py(),
                rows.column("block_n_docs")[ri].as_py(),
            ):
                d, tf, pos = decode_block(payload[off : off + ln], first, nb, True)
                first = last + 1
                cursor = 0
                for did, n in zip(d.tolist(), tf.tolist()):
                    want = [i for i, t in enumerate(docs[did]) if t == probe]
                    assert pos[cursor : cursor + n].tolist() == want
                    cursor += n

    capsys.readouterr()
    cli.main([out, "termpositions", "merge"])
    lines = capsys.readouterr().out.splitlines()
    want = []
    for did in sorted(docs):
        ps = [i for i, t in enumerate(docs[did]) if t == "merge"]
        if ps:
            want.append(f"merge doc={did} tf={len(ps)} positions={ps}")
    assert want and lines == want


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
    # the dedup phase's key parts are intermediate: none left in the index
    assert not (Path(a) / "dedup_keys").exists()
    # finished build: resume returns the same manifest without rebuilding
    m2 = build_index(small_corpus_dir, a, cfg, resume=True)
    assert m1 == m2
    assert not (Path(a) / "dedup_keys").exists()

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


# -- property: mapped posting lookup == brute-force scan of merge output ----


def _random_two_segment_index(tmp_path_factory, data):
    """Draw a random two-segment index (MergeWorker-written, disjoint doc
    ranges, one bucket left empty, a hot term salted into many rows) and a
    term set: present terms, absent terms, terms of the empty bucket and
    the hot term.  Returns the segment dirs, the term set, the brute-force
    scan of merge_bucket's output for those terms, the dictionary's
    summed statistics, and the hot term's expected row count."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc

    from indri_5_5_ray.pipelines.build import write_manifest
    from indri_5_5_ray.stages.postings import (PARTIALS_SCHEMA, MergeWorker,
                                               merge_bucket, write_partials)

    n_buckets = 4
    cfg = IndexConfig(n_buckets=n_buckets, store_positions=False,
                      salt_docs_per_group=4)

    def bucket_of(t):
        return int.from_bytes(hashlib.md5(t.encode()).digest()[:4],
                              "little") % n_buckets

    empty_bucket = data.draw(st.integers(0, n_buckets - 1))
    drawn = data.draw(st.lists(
        st.text(alphabet="abcdeé", min_size=1, max_size=5),
        min_size=1, max_size=12, unique=True))
    hot = next(w for w in ("hot", "hot1", "hot2", "hot3", "hot4", "hot5")
               if bucket_of(w) != empty_bucket)
    words = sorted({w for w in drawn if bucket_of(w) != empty_bucket} | {hot})
    n_docs = data.draw(st.integers(2, 40))
    docs_of = {w: (list(range(n_docs)) if w == hot else sorted(data.draw(
        st.sets(st.integers(0, n_docs - 1), max_size=n_docs))))
        for w in words}
    cut = data.draw(st.integers(1, n_docs - 1))

    segs, brute = [], []
    for lo, hi in ((0, cut), (cut, n_docs)):
        part = pa.Table.from_pylist([
            {"term": w, "bucket": bucket_of(w), "salt": d // 4,
             "first_doc": d, "last_doc": d, "doc_ids": [d],
             "tfs": [1 + (d + len(w)) % 3], "dls": [10],
             "pos_bytes": b"", "pos_byte_lens": []}
            for w in words for d in docs_of[w] if lo <= d < hi],
            schema=PARTIALS_SCHEMA)
        d = tmp_path_factory.mktemp("seg")
        (d / "partials").mkdir()
        write_partials(part, str(d / "partials" / "partials-0.parquet"),
                       n_buckets)
        MergeWorker(str(d), cfg.to_dict())(
            pa.table({"bucket": pa.array(range(n_buckets), pa.int32())}))
        write_manifest(d, cfg, doc_count=hi - lo, total_terms=10 * (hi - lo),
                       min_doc_id=lo, max_doc_id=hi - 1, unique_terms=0,
                       field_stats={}, timings={})
        segs.append(str(d))
        for b in range(n_buckets):
            brute += merge_bucket(
                part.filter(pc.equal(part.column("bucket"), b)),
                False, cfg.target_block_bytes).to_pylist()
    brute.sort(key=lambda row: (row["term"], row["first_doc"]))
    dict_t = pa.concat_tables([pq.read_table(f"{d}/dictionary") for d in segs])

    absent = data.draw(st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6), max_size=3))
    into_empty = [w for w in drawn if bucket_of(w) == empty_bucket]
    terms = data.draw(st.lists(st.sampled_from(words), max_size=5,
                               unique=True)) + absent + into_empty + [hot]
    want = [row for row in brute if row["term"] in terms]
    dict_stats: dict = {}
    for t, cf, df in zip(*(dict_t.column(c).to_pylist()
                           for c in ("term", "cf", "df"))):
        pcf, pdf = dict_stats.get(t, (0, 0))
        dict_stats[t] = (pcf + cf, pdf + df)
    hot_rows = len({d // 4 for d in range(cut)}) + len(
        {d // 4 for d in range(cut, n_docs)})
    return segs, terms, want, dict_stats, hot, hot_rows, n_docs


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_catalog_fetch_equals_bruteforce_property(tmp_path_factory, data):
    """term_rows over the memory-mapped bucket files returns EXACTLY the
    rows of a brute-force scan of merge_bucket's output, for random
    two-segment indexes opened in both dir orders, and a doc_range fetch
    returns exactly the intersecting rows."""
    segs, terms, want, _, hot, hot_rows, n_docs = _random_two_segment_index(
        tmp_path_factory, data)
    lo = data.draw(st.integers(0, n_docs))
    hi = lo + data.draw(st.integers(1, n_docs))
    for order in (segs, segs[::-1]):
        r = IndexReader(order)
        assert r.term_rows(terms).to_pylist() == want
        assert r.term_rows(terms, (lo, hi)).to_pylist() == [
            row for row in want if row["last_doc"] >= lo and row["first_doc"] < hi]
    assert len([row for row in want if row["term"] == hot]) == hot_rows


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_routed_term_stats_equals_bruteforce_property(tmp_path_factory, data):
    """term_stats sums each term's span of its own bucket's postings file;
    for random two-segment indexes (one bucket left empty) and random term
    sets — present terms, absent terms, terms of the empty bucket, a hot
    salted term — it equals the brute-force sums over merge_bucket's output
    and the dictionary's statistics, in both dir orders."""
    segs, terms, want, dict_stats, _, _, _ = _random_two_segment_index(
        tmp_path_factory, data)
    stats: dict = {}
    for row in want:
        cf, df = stats.get(row["term"], (0, 0))
        stats[row["term"]] = (cf + row["cf"], df + row["df"])
    for order in (segs, segs[::-1]):
        assert IndexReader(order).term_stats(terms) == stats == {
            t: dict_stats[t] for t in terms if t in dict_stats}


def test_cold_lookup_maps_one_bucket_file(built_index):
    """A cold one-term lookup maps exactly one postings file, the term's
    bucket, and a repeated lookup maps nothing more."""
    out, _ = built_index
    terms = pq.read_table(f"{out}/dictionary", columns=["term"]).column(
        "term").to_pylist()
    for term in (terms[0], terms[-1]):
        r = IndexReader(out)
        assert term in r.term_stats([term])
        assert list(r._maps) == [(out, r._bucket_of(term))]
        assert r.term_rows([term]).num_rows
        assert list(r._maps) == [(out, r._bucket_of(term))]


def test_other_index_format_asks_for_a_rebuild(built_index, tmp_path):
    """An index written with another layout (parquet postings, format 1;
    no docno maps, format 2; or no stamp at all) is refused with a rebuild
    message, not read."""
    import json
    import shutil

    out, _ = built_index
    shutil.copytree(out, tmp_path / "idx")
    path = tmp_path / "idx" / "manifest.json"
    m = json.loads(path.read_text())
    for stamp in (1, 2, None):
        m["format_version"] = stamp
        path.write_text(json.dumps(m))
        with pytest.raises(ValueError, match="rebuild"):
            IndexReader(str(tmp_path / "idx"))
