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
from hypothesis import example, given, settings
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
             "tfs": [1 + (d + len(w)) % 3],
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
    no docno maps, format 2; a docno map without doc lengths, format 5;
    per-block score bounds and per-posting partials doc lengths, format 6;
    or no stamp at all) is refused with a rebuild message, not read."""
    import json
    import shutil

    out, _ = built_index
    shutil.copytree(out, tmp_path / "idx")
    path = tmp_path / "idx" / "manifest.json"
    m = json.loads(path.read_text())
    for stamp in (1, 2, 5, 6, None):
        m["format_version"] = stamp
        path.write_text(json.dumps(m))
        with pytest.raises(ValueError, match="rebuild"):
            IndexReader(str(tmp_path / "idx"))


# -- property: the batch merge == the per-row merge it replaced -------------
# The per-row encoder and merge loop below are the reference: the code the
# one-pass merge (codec.cut_blocks_pre over slices of groups) replaced,
# kept verbatim but for their names.

import pyarrow as pa  # noqa: E402

from indri_5_5_ray.codec import (  # noqa: E402
    _UINT,
    GAP_WIDTHS,
    TARGET_BLOCK_BYTES,
    TF_WIDTHS,
    _narrowest,
)
from indri_5_5_ray.stages.postings import (  # noqa: E402
    POSTINGS_SCHEMA,
    _flatten_list_column,
    combine_column,
)


def _ref_cut_blocks_pre(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    pos_payload: bytes | None,
    pos_byte_lens: np.ndarray | None,
    target_bytes: int = TARGET_BLOCK_BYTES,
) -> list[tuple[int, int, bytes, np.ndarray, np.ndarray]]:
    """Split one posting row's run into encoded blocks of about
    ``target_bytes`` at document boundaries (ref 4 KB skip interval,
    ref:src/IndexWriter.cpp:527) → ``(first_doc, last_doc, payload,
    doc_slice, tf_slice)`` per block.

    Positions come pre-encoded: ``pos_payload`` is the concatenation of
    per-doc delta-vbyte streams and ``pos_byte_lens[i]`` the byte length of
    doc i's stream; blocks slice it, never decode or re-encode it.

    A block's payload is one width byte (low nibble: the Δdoc gap width
    in ``GAP_WIDTHS``; high nibble: the ``tf - 1`` width in
    ``TF_WIDTHS``), then ``n`` little-endian gaps, then ``n`` values of
    ``tf - 1`` (none at width 0), then the positions stream.  A block's
    first gap is taken from its ``first`` in the row metadata — the row's
    ``first_doc`` for the head block, the previous block's last + 1
    otherwise — so no payload holds an absolute doc id."""
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    n = len(doc_ids)
    if n == 0:
        return []
    has_pos = pos_payload is not None
    if has_pos:
        byte_starts = np.concatenate(([0], np.cumsum(pos_byte_lens)))
        per_doc = 4.0 + float(byte_starts[-1]) / n
    else:
        per_doc = 4.0
    docs_per_block = max(8, int(target_bytes / per_doc))
    starts = np.arange(0, n, docs_per_block, dtype=np.int64)
    ends = np.minimum(starts + docs_per_block, n)
    gaps = np.empty(n, dtype=np.int64)
    gaps[0] = 0  # the head block's first is doc_ids[0] itself
    np.subtract(doc_ids[1:], doc_ids[:-1], out=gaps[1:])
    gaps[starts[1:]] -= 1  # later blocks start at the previous last + 1
    tf1 = tfs - 1  # tfs are int32 (PARTIALS_SCHEMA), so 4 bytes hold any
    gws = _narrowest(np.maximum.reduceat(gaps, starts), GAP_WIDTHS).tolist()
    tws = _narrowest(np.maximum.reduceat(tf1, starts), TF_WIDTHS).tolist()
    out = []
    for s, e, gw, tw in zip(starts.tolist(), ends.tolist(), gws, tws):
        payload = bytes((gw | tw << 4,)) + gaps[s:e].astype(_UINT[gw]).tobytes()
        if tw:
            payload += tf1[s:e].astype(_UINT[tw]).tobytes()
        if has_pos:
            payload += pos_payload[byte_starts[s]:byte_starts[e]]
        out.append((int(doc_ids[s]), int(doc_ids[e - 1]), payload,
                    doc_ids[s:e], tfs[s:e]))
    return out


def _ref_merge_bucket(
    group: pa.Table, store_positions: bool, target_block_bytes: int
) -> pa.Table:
    """Merge ALL partial runs of one bucket → one merged output row per
    (term, salt).

    Operating at bucket granularity (not per term) amortizes per-group Python
    overhead across a whole reducer: a single sort + arrow flatten gives
    contiguous numpy runs per (term, salt), already concatenated in doc-id
    order. Reducer memory ≈ index_bytes / n_buckets — size ``n_buckets`` so a
    bucket fits a worker's heap (the scale knob; the reference's analogue is
    its merge-memory halving heuristic ref:src/Repository.cpp:824-872).
    """
    if group.num_rows == 0:
        return POSTINGS_SCHEMA.empty_table()
    group = group.sort_by(
        [("term", "ascending"), ("salt", "ascending"), ("first_doc", "ascending")]
    )
    terms = group.column("term").to_pylist()
    salts = group.column("salt").to_numpy()
    n_rows = len(terms)
    doc_flat, doc_lens_per_row = _flatten_list_column(group, "doc_ids")
    tf_flat, _ = _flatten_list_column(group, "tfs")
    if store_positions:
        pos_rows: list[bytes] = group.column("pos_bytes").to_pylist()
        blen_flat, _ = _flatten_list_column(group, "pos_byte_lens")
    row_starts = np.concatenate(([0], np.cumsum(doc_lens_per_row)))

    # group boundaries: rows where (term, salt) changes — dictionary-encoded
    # term codes make the scan one vectorized int comparison, not a Python
    # string loop over every partial row
    tcodes = combine_column(group, "term").dictionary_encode().indices.to_numpy(
        zero_copy_only=False)
    change = np.flatnonzero(
        (tcodes[1:] != tcodes[:-1]) | (salts[1:] != salts[:-1])) + 1
    bounds = np.concatenate(([0], change, [n_rows]))

    # ascending-docID invariant (the reference asserts this at write:
    # ref:src/IndexWriter.cpp:618) — checked in ONE pass over the flat doc
    # stream; only pairs straddling a (term, salt) group boundary may
    # legitimately descend
    d_ok = np.diff(doc_flat) > 0
    if len(d_ok):
        gb_val = row_starts[bounds[1:-1]]
        d_ok[gb_val[gb_val > 0] - 1] = True
        assert d_ok.all(), "posting doc_ids not strictly ascending in a group"

    cols: dict[str, list] = {f.name: [] for f in POSTINGS_SCHEMA}
    bucket_val = int(group.column("bucket")[0].as_py()) if n_rows else 0

    for gi in range(len(bounds) - 1):
        r0, r1 = bounds[gi], bounds[gi + 1]
        v0, v1 = row_starts[r0], row_starts[r1]
        doc_ids = doc_flat[v0:v1]
        tfs = tf_flat[v0:v1]

        if store_positions:
            pos_payload = b"".join(pos_rows[r0:r1])
            pos_byte_lens = blen_flat[v0:v1]
        else:
            pos_payload, pos_byte_lens = None, None
        blocks = _ref_cut_blocks_pre(
            doc_ids, tfs, pos_payload, pos_byte_lens, target_bytes=target_block_bytes
        )
        payload = bytearray()
        b_last, b_n, b_off, b_len = [], [], [], []
        cursor = 0
        for _first_doc, last_doc, block_bytes, block_docs, _block_tfs in blocks:
            b_last.append(int(last_doc))
            b_n.append(len(block_docs))
            b_off.append(cursor)
            b_len.append(len(block_bytes))
            payload.extend(block_bytes)
            cursor += len(block_bytes)

        cols["term"].append(terms[r0])
        cols["bucket"].append(bucket_val)
        cols["salt"].append(int(salts[r0]))
        cols["cf"].append(int(tfs.sum()))
        cols["df"].append(int(len(doc_ids)))
        cols["first_doc"].append(int(doc_ids[0]))
        cols["last_doc"].append(int(doc_ids[-1]))
        cols["postings"].append(bytes(payload))
        cols["block_last_doc"].append(b_last)
        cols["block_n_docs"].append(b_n)
        cols["block_offset"].append(b_off)
        cols["block_length"].append(b_len)

    return pa.Table.from_pydict(cols, schema=POSTINGS_SCHEMA)


_GAP_RANGES = ((1, 1 << 8), (1 << 8, 1 << 16), (1 << 16, 1 << 32),
               (1 << 32, 1 << 40))  # a gap class per Δdoc width 1/2/4/8
_TF_RANGES = ((1, 2), (1, 1 << 8), (1, 1 << 16), (1, 1 << 20))  # tf − 1 0/1/2/4


def _random_bucket(groups, store_positions, seed):
    """A shuffled partials table of one bucket: per drawn group ``(n_docs,
    term, gap class, tf class, n_rows)`` one (term, salt) run of ``n_docs``
    ascending doc ids split into up to ``n_rows`` partial rows.  A term
    drawn again gets the next salt and a later doc range; most gaps and
    tfs come from the group's class, the rest are small; position streams
    are random bytes, some docs with none."""
    from indri_5_5_ray.stages.postings import PARTIALS_SCHEMA

    rng = np.random.default_rng(seed)
    rows, next_doc, next_salt = [], {}, {}
    for n, term, gc, tc, n_rows in groups:
        small = rng.random(n) < 0.3
        gaps = np.where(small, rng.integers(1, 4, n),
                        rng.integers(*_GAP_RANGES[gc], n))
        start = next_doc.get(term, int(rng.integers(0, 1000)))
        doc_ids = start + np.cumsum(gaps)
        next_doc[term] = int(doc_ids[-1]) + 1
        salt = next_salt.get(term, 0)
        next_salt[term] = salt + 1
        tfs = np.where(small, 1, rng.integers(*_TF_RANGES[tc], n))
        blens = (rng.integers(0, 5, n) if store_positions
                 else np.zeros(n, np.int64))
        cuts = np.unique(np.concatenate(
            ([0, n], rng.integers(1, max(n, 2), n_rows - 1) % n)))
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            rows.append({
                "term": term, "bucket": 3, "salt": salt,
                "first_doc": int(doc_ids[a]), "last_doc": int(doc_ids[b - 1]),
                "doc_ids": doc_ids[a:b].tolist(), "tfs": tfs[a:b].tolist(),
                "pos_bytes": rng.integers(0, 256, int(blens[a:b].sum()),
                                          dtype=np.uint8).tobytes(),
                "pos_byte_lens": (blens[a:b].tolist() if store_positions
                                  else [])})
    order = rng.permutation(len(rows))
    return pa.Table.from_pylist([rows[i] for i in order],
                                schema=PARTIALS_SCHEMA)


def _ipc_bytes(t):
    sink = pa.BufferOutputStream()
    with pa.ipc.new_file(sink, POSTINGS_SCHEMA) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


_GROUP = st.tuples(
    st.one_of(st.integers(1, 7), st.sampled_from([8, 16, 24, 64, 128]),
              st.integers(9, 300)),
    st.sampled_from(["a", "b", "é", "ab", "zz"]),
    st.integers(0, 3), st.integers(0, 3), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(groups=st.lists(_GROUP, min_size=1, max_size=10),
       store_positions=st.booleans(),
       target=st.sampled_from([16, 32, 64, 512, 4096]),
       seed=st.integers(0, 2**16))
@example(groups=[(16, "a", 3, 3, 3), (7, "a", 0, 0, 1), (24, "b", 2, 1, 2),
                 (8, "é", 1, 2, 1), (1, "zz", 0, 0, 1)],
         store_positions=True, target=16, seed=1)
@example(groups=[(16, "a", 3, 3, 3), (7, "a", 0, 0, 1), (24, "b", 2, 1, 2),
                 (8, "é", 1, 2, 1), (1, "zz", 0, 0, 1)],
         store_positions=False, target=16, seed=2)
def test_merge_bucket_equals_the_per_row_merge_property(
        groups, store_positions, target, seed):
    """merge_bucket (one cut_blocks_pre call per slice of groups) gives the
    table, and the Arrow IPC bytes, of the per-row reference merge over
    random buckets: multi-salt terms, groups shorter than 8 docs and exact
    multiples of the block size, gaps of every width class, every
    ``tf − 1`` width, docs without position bytes, with positions stored
    or not — also when the groups are cut into many slices.  Its
    dictionary rows are the per-term sums of its rows."""
    from unittest import mock

    from indri_5_5_ray.stages import postings
    from indri_5_5_ray.stages.postings import dictionary_rows, merge_bucket

    part = _random_bucket(groups, store_positions, seed)
    want = _ref_merge_bucket(part, store_positions, target)
    got = merge_bucket(part, store_positions, target)
    assert got.equals(want)
    assert _ipc_bytes(got) == _ipc_bytes(want)
    with mock.patch.object(postings, "MERGE_SLICE_POSTINGS", 20):
        assert _ipc_bytes(merge_bucket(part, store_positions, target)) == \
            _ipc_bytes(want)
    sums: dict = {}
    for t, cf, df in zip(*(want.column(c).to_pylist()
                           for c in ("term", "cf", "df"))):
        sums[t] = (sums.get(t, (0, 0))[0] + cf, sums.get(t, (0, 0))[1] + df)
    assert dictionary_rows(got).to_pylist() == [
        {"term": t, "cf": cf, "df": df} for t, (cf, df) in sorted(sums.items())]
