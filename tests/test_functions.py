"""Tests for the training-data-pipeline operators (dedup, simsearch,
textstats, multimodal) against small hand-checkable inputs and
brute-force references."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


@pytest.fixture(scope="module")
def mini_sf(tmp_path_factory):
    """A tiny documents+embeddings 'sf dir' with known duplicates and
    near-duplicates."""
    d = tmp_path_factory.mktemp("minisf")
    texts = [
        "the quick brown fox jumps over the lazy dog",      # 0
        "the quick brown fox jumps over the lazy cat",      # 1: near-dup of 0
        "completely different words entirely here now",     # 2
        "the quick brown fox jumps over the lazy dog",      # 3: exact dup of 0
        "another unrelated document about databases",       # 4
    ]
    docs = pa.table(
        {
            "doc_id": pa.array(range(5), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * 5),
            "source": pa.array([f"s{i}" for i in range(5)]),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(docs, d / "documents.parquet")
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((6, 8)).astype(np.float32)
    vecs[5] = vecs[0] + 0.01 * rng.standard_normal(8).astype(np.float32)  # near-dup
    emb = pa.table(
        {
            "vec_id": pa.array(range(6), pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
            "label": pa.array([0, 1, 2, 3, 4, 0], pa.int32()),
        }
    )
    pq.write_table(emb, d / "embeddings.parquet")
    return str(d)


def test_exact_dedup(mini_sf):
    from indri_5_5_ray.functions.dedup import dedup_keep_first, exact_dup_groups

    groups = exact_dup_groups(mini_sf).to_pandas()
    assert len(groups) == 4  # docs 0 and 3 collapse
    dup = groups[groups.n_copies == 2]
    assert len(dup) == 1 and dup.iloc[0].rep_doc_id == 0
    kept = sorted(dedup_keep_first(mini_sf).to_pandas().doc_id)
    assert kept == [0, 1, 2, 4]


def test_ngram_jaccard(mini_sf):
    from indri_5_5_ray.functions.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(mini_sf, tau=0.2).to_pandas()
    got = {(a, b): j for a, b, j in pairs.itertuples(index=False)}
    # docs 0/3 identical → jaccard 1.0; docs 0/1 share 6 of 8 distinct 3-grams
    assert got[(0, 3)] == 1.0
    assert abs(got[(0, 1)] - 6 / 8) < 1e-9
    assert got[(1, 3)] == got[(0, 1)]
    assert (0, 2) not in got


def test_dup_span_stats(mini_sf):
    from indri_5_5_ray.functions.dedup import dup_span_stats

    t = dup_span_stats(mini_sf).sort("doc_id").to_pandas()
    rows = {r.doc_id: (r.n_tokens, r.dup_positions, r.covered_tokens)
            for r in t.itertuples(index=False)}
    # docs 0 and 3 are identical (9 tokens, 7 trigram positions): every
    # position is corpus-duplicated and every token covered
    assert rows[0] == (9, 7, 9) and rows[3] == (9, 7, 9)
    # doc 1 shares trigrams at positions 0-5 with docs 0/3 ("the lazy cat"
    # at position 6 is unique): union of [0,3)..[5,8) covers tokens 0-7
    assert rows[1] == (9, 6, 8)
    # docs 2 and 4 share nothing; all docs present in the output
    assert rows[2] == (6, 0, 0) and rows[4] == (5, 0, 0)
    assert len(rows) == 5


def test_remove_dup_spans(mini_sf):
    from indri_5_5_ray.functions.dedup import remove_dup_spans

    t = remove_dup_spans(mini_sf).sort("doc_id").to_pandas()
    rows = {r.doc_id: (r.clean_text, r.n_removed)
            for r in t.itertuples(index=False)}
    # identical docs 0/3: every token covered → everything removed
    assert rows[0] == ("", 9) and rows[3] == ("", 9)
    # doc 1: only the final token survives the covered [0,8) prefix
    assert rows[1] == ("cat", 8)
    # non-duplicated docs come back tokenizer-normalized, nothing removed
    assert rows[2] == ("completely different words entirely here now", 0)
    assert rows[4] == ("another unrelated document about databases", 0)


def test_dup_span_oracle_parity(mini_sf, ray_entry_mod):
    """Ray output == the registered DuckDB oracles on the mini corpus."""
    import duckdb

    mod = ray_entry_mod
    from indri_5_5_ray.functions.dedup import dup_span_stats, remove_dup_spans

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{mini_sf}/documents.parquet')")

    got = dup_span_stats(mini_sf).sort("doc_id").to_pandas()
    want = con.execute(mod.oracle_sql()["dup_span_stats"]).fetch_df()
    assert got.astype("int64").reset_index(drop=True).equals(
        want.astype("int64").reset_index(drop=True))

    got2 = remove_dup_spans(mini_sf).sort("doc_id").to_pandas()
    want2 = con.execute(mod.oracle_sql()["remove_dup_spans"]).fetch_df()
    assert got2.reset_index(drop=True).equals(want2.reset_index(drop=True))


def test_minhash_lsh_finds_exact_dups(mini_sf):
    from indri_5_5_ray.functions.dedup import lsh_candidate_pairs

    pairs = lsh_candidate_pairs(mini_sf).to_pandas()
    got = {(a, b) for a, b in zip(pairs.doc_a, pairs.doc_b)}
    assert (0, 3) in got  # identical docs always collide in every band


def test_simhash_properties(mini_sf):
    from indri_5_5_ray.functions.dedup import simhash_fingerprints

    fp = simhash_fingerprints(mini_sf).to_pandas().set_index("doc_id").simhash
    assert fp[0] == fp[3]  # identical text → identical fingerprint
    ham01 = bin(int(fp[0]) ^ int(fp[1])).count("1")
    ham02 = bin(int(fp[0]) ^ int(fp[2])).count("1")
    assert ham01 < ham02  # near-dup closer than unrelated


def test_knn_and_lsh_ann(mini_sf):
    from indri_5_5_ray.functions.simsearch import knn_bruteforce, lsh_ann_topk

    knn = knn_bruteforce(mini_sf, n_queries=3, k=3).to_pandas()
    # rank 1 of each query is the query vector itself (cosine 1.0)
    r1 = knn[knn["rank"] == 1]
    assert (r1.query_id.values == r1.vec_id.values).all()
    assert (r1.cosine.values >= 0.999999).all()
    # vec 5 is a near-dup of vec 0 → rank 2 for query 0
    q0 = knn[knn.query_id == 0].sort_values("rank")
    assert q0.iloc[1].vec_id == 5

    ann = lsh_ann_topk(mini_sf, n_queries=3, k=3).to_pandas()
    # recall vs brute force on rank-1 (self) is exact
    a1 = ann[ann["rank"] == 1]
    assert (a1.query_id.values == a1.vec_id.values).all()


def test_cosine_pairs(mini_sf):
    from indri_5_5_ray.functions.simsearch import cosine_pairs

    pairs = cosine_pairs(mini_sf, tau=0.9).to_pandas()
    assert {(0, 5)} == set(zip(pairs.vec_id_a, pairs.vec_id_b))


def test_media_pipeline(mini_sf):
    from indri_5_5_ray.functions.multimodal import (
        MediaFeatureExtractor,
        media_features,
        synth_media_table,
    )

    # external-codec decoders are stubbed: requesting them must raise
    with pytest.raises(NotImplementedError):
        MediaFeatureExtractor(use_real_decoder=True)

    feats = media_features(mini_sf).to_pandas().set_index("item_id")
    assert len(feats) == 5
    tbl = synth_media_table(mini_sf)
    kinds = dict(zip(tbl.column("item_id").to_pylist(),
                     tbl.column("kind").to_pylist()))
    widths = dict(zip(tbl.column("item_id").to_pylist(),
                      tbl.column("width").to_pylist()))
    rates = dict(zip(tbl.column("item_id").to_pylist(),
                     tbl.column("sample_rate").to_pylist()))
    for iid, kind in kinds.items():
        row = feats.loc[iid, "features"]
        if kind == "image":  # REAL P6 decode: f[0:2] = (w, h) from pixels
            assert row[0] == widths[iid] and row[1] > 0
            assert 0 <= row[2] <= 255  # mean R channel
        elif kind == "audio":  # REAL WAV decode: f[0] = sample rate
            assert row[0] == rates[iid] == 16000
            assert row[2] > 0  # RMS of the PCM stream
        else:  # opaque video payload → normalized histogram fallback
            assert abs(sum(row) - 1.0) < 1e-9
    # checksum is deterministic md5 of the payload's hex form (the
    # SQL-portable rendering; see MediaFeatureExtractor.__call__)
    p0 = tbl.column("payload")[0].as_py()
    want = int.from_bytes(
        hashlib.md5(p0.hex().encode()).digest()[:8], "little") >> 1
    assert feats.loc[0, "checksum"] == want


def test_media_real_decode_roundtrip():
    """The P6/WAV decoders recover exactly what the generators encode."""
    import numpy as np

    from indri_5_5_ray.functions.multimodal import (
        MediaFeatureExtractor, make_ppm, make_wav)

    ppm = make_ppm(6, 4, "seed")
    f = MediaFeatureExtractor._decode_ppm(ppm)
    assert (f[0], f[1]) == (6, 4)
    px = np.frombuffer(ppm[len(ppm) - 6 * 4 * 3:], dtype=np.uint8)
    assert abs(f[2:5].mean() - px.astype(float).mean()) < 1e-9

    wav = make_wav(8000, 100, "seed")
    g = MediaFeatureExtractor._decode_wav(wav)
    assert (g[0], g[1]) == (8000, 100)
    assert g[2] > 0 and g[4] <= g[5]


def test_textstats_term_stats(mini_sf, tmp_path):
    from indri_5_5_ray.functions.textstats import term_stats, token_counts

    stats = term_stats(mini_sf).to_pandas().set_index("term")
    assert stats.loc["the", "cf"] == 6  # 2 per fox-doc × 3
    assert stats.loc["the", "df"] == 3
    assert stats.loc["databases", "df"] == 1
    counts = token_counts(mini_sf).to_pandas().set_index("doc_id")
    assert counts.loc[0, "n_tokens"] == 9

    import re
    from collections import Counter

    from indri_5_5_ray.functions.textstats import top_terms

    cf: Counter = Counter()
    df: Counter = Counter()
    for x in pq.read_table(f"{mini_sf}/documents.parquet").column(
            "text").to_pylist():
        toks = re.findall(r"[a-z0-9]+", x.lower())
        cf.update(toks)
        df.update(set(toks))
    assert {t: (r.cf, r.df) for t, r in stats.iterrows()} == {
        t: (cf[t], df[t]) for t in cf}
    # six terms tie at cf 3 behind "the": the cut at n=4 keeps the three
    # alphabetically first
    want = sorted(cf, key=lambda t: (-cf[t], t))[:4]
    assert want == ["the", "brown", "fox", "jumps"]
    top = top_terms(mini_sf, n=4).to_pandas()
    assert top.term.tolist() == want
    assert top.cf.tolist() == [cf[t] for t in want]

    # a corpus with no tokens: zero rows, same columns
    pq.write_table(pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                             "text": ["", "!!! ..."]}),
                   tmp_path / "documents.parquet")
    for fn in (term_stats, top_terms):
        ds = fn(str(tmp_path))
        assert ds.count() == 0 and ds.schema().names == ["term", "cf", "df"]


@pytest.mark.parametrize("n", [2, 3])
def test_ngram_counts_brute_force(mini_sf, n):
    """Pruned n-gram stats equal a per-doc Python sliding window (gram
    construction crosses no doc boundary; prune is post-global-sum)."""
    import re
    from collections import Counter

    from indri_5_5_ray.functions.textstats import ngram_counts

    t = pq.read_table(f"{mini_sf}/documents.parquet",
                      columns=["doc_id", "text"])
    cf: Counter = Counter()
    df: Counter = Counter()
    for d, x in zip(t.column("doc_id").to_pylist(),
                    t.column("text").to_pylist()):
        toks = re.findall(r"[a-z0-9]+", x.lower())
        grams = [" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)]
        cf.update(grams)
        df.update(set(grams))
    got = ngram_counts(mini_sf, n=n, min_count=2).to_pandas()
    want = {g: (c, df[g]) for g, c in cf.items() if c >= 2}
    assert {(r.gram, r.cf, r.df) for r in got.itertuples()} \
        == {(g, c, d) for g, (c, d) in want.items()}
    with pytest.raises(ValueError):
        ngram_counts(mini_sf, n=1)


def test_pii_stats_and_redact(tmp_path):
    """PII taggers: counts and redaction on adversarial edge strings, and
    the polars (rust regex) ↔ DuckDB (RE2) dialect-agreement pin the SQL
    oracle rests on."""
    import duckdb

    from indri_5_5_ray.functions.pii import PII_PATTERNS, pii_stats, redact_pii

    texts = [
        "mail a.b+c@ex-ample.co.uk or x@y.io, call 555-123-4567 now",
        "server 10.0.255.3 and 192.168.1.100; fake 999.1 phone 555.987.6543",
        "no pii here",
        "edge a@b.c 1.2.3.4.5 and 123-456-7890123",  # 1-char TLD, runs
    ]
    pq.write_table(pa.table({"doc_id": pa.array(range(4), pa.int64()),
                             "text": pa.array(texts)}),
                   tmp_path / "documents.parquet")
    st = pii_stats(str(tmp_path)).to_pandas().set_index("doc_id")
    assert st.loc[0].tolist() == [2, 1, 0, 3]   # emails, phones, ips, pii
    assert st.loc[1].tolist() == [0, 1, 2, 3]
    assert st.loc[2].tolist() == [0, 0, 0, 0]
    assert st.loc[3].tolist() == [0, 0, 1, 1]   # 1.2.3.4 matches, .5 left
    red = redact_pii(str(tmp_path)).to_pandas().set_index("doc_id").text
    assert red[0] == "mail [EMAIL] or [EMAIL], call [PHONE] now"
    assert red[3] == "edge a@b.c [IP].5 and 123-456-7890123"
    # dialect pin: DuckDB running the same expressions agrees byte-for-byte
    con = duckdb.connect()
    for t, want in zip(texts, red.tolist()):
        expr = "?"
        for rx, token in PII_PATTERNS.values():
            expr = f"regexp_replace({expr}, '{rx}', '{token}', 'g')"
        assert con.execute(f"SELECT {expr}", [t]).fetchone()[0] == want
        for name, (rx, _) in PII_PATTERNS.items():
            got = con.execute(
                "SELECT len(regexp_extract_all(?, ?))", [t, rx]).fetchone()[0]
            assert got == st.loc[texts.index(t), f"n_{name}s"]


def test_ngram_counts_empty_corpus_and_cache(mini_sf, tmp_path):
    """A zero-doc corpus yields the empty (gram, cf, df) table (the
    exchange dataset has no schema then — regression: ArrowInvalid in
    every reducer), and a rerun on unchanged input reuses the cached
    survivors directory instead of recomputing."""
    from indri_5_5_ray.functions.textstats import ngram_counts

    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()),
        "source": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64()),
    })
    pq.write_table(empty, tmp_path / "documents.parquet")
    got = ngram_counts(str(tmp_path), n=2)
    # Ray's to_pandas drops columns on any zero-row dataset; the Dataset
    # itself carries the schema — the regression here is the crash
    assert got.schema().names == ["gram", "cf", "df"]
    assert got.count() == 0
    # rerun hits the content-keyed cache: identical rows, no rebuild
    a = ngram_counts(mini_sf, n=2, min_count=2).to_pandas()
    b = ngram_counts(mini_sf, n=2, min_count=2).to_pandas()
    assert sorted(map(tuple, a.values.tolist())) \
        == sorted(map(tuple, b.values.tolist()))


def test_bucket_exchange_blocks_sharing_first_id(tmp_path):
    """Two input blocks that start with the same id each keep their own
    map part file: the reduce total counts the rows of both blocks."""
    import json

    import polars as pl
    import ray.data

    from indri_5_5_ray.functions.exchange import bucket_exchange

    src = tmp_path / "src.parquet"
    pq.write_table(pa.table({"x": [0]}), src)
    blk = pa.table({"doc_id": pa.array([5, 6, 7], pa.int64()),
                    "term": pa.array(["a", "b", "a"])})
    docs = ray.data.from_arrow([blk, blk])

    def per_term(df):
        return (df.group_by("term").agg(pl.len().cast(pl.Int64).alias("n"))
                .with_columns((pl.col("term").hash(seed=0) % 4)
                              .cast(pl.Int32).alias("b")))

    def total(df):
        out = df.group_by("term").agg(pl.col("n").sum())
        return out, int(out["n"].sum())

    spill = bucket_exchange(
        docs, cache_root=str(tmp_path / "cache"), source_path=str(src),
        version="t", n_buckets=4, bucket_col="b", map_kernel=per_term,
        map_columns=("term",), reduce_columns=["term", "n"],
        reduce_kernel=total,
        out_schema=pa.schema([("term", pa.string()), ("n", pa.int64())]),
        out_dirname="out", out_prefix="t-")
    with open(f"{spill}/meta.json") as f:
        assert json.load(f) == {"rows": 6}
    got = pq.read_table(f"{spill}/out").to_pydict()
    assert dict(zip(got["term"], got["n"])) == {"a": 4, "b": 2}


def test_embedding_lsh_pairs_exactness_twin_and_recall(mini_sf):
    """n_tables=1, planes=0 → one bucket → exactly cosine_pairs; banded
    defaults emit only TRUE pairs (precision 1.0) with nonzero recall."""
    from indri_5_5_ray.functions.simsearch import (
        cosine_pairs,
        embedding_lsh_pairs,
    )

    exact = cosine_pairs(mini_sf, tau=0.3)
    key = lambda t: {  # noqa: E731
        (a, b): c for a, b, c in zip(
            t["vec_id_a"], t["vec_id_b"], t["cosine"])}
    exact_d = key(exact.to_pydict())
    twin = embedding_lsh_pairs(mini_sf, tau=0.3, n_tables=1,
                               planes=0).to_pandas()
    assert key(twin.to_dict("list")) == exact_d
    banded = embedding_lsh_pairs(mini_sf, tau=0.3).to_pandas()
    banded_d = key(banded.to_dict("list"))
    assert set(banded_d) <= set(exact_d)  # every emitted pair is true
    for p, c in banded_d.items():
        assert c == exact_d[p]
    if exact_d:
        assert len(banded_d) / len(exact_d) > 0.2  # banding finds a chunk


def test_ivf_ann(mini_sf, tmp_path):
    from indri_5_5_ray.functions.simsearch import (
        ivf_ann_topk, ivf_partition, knn_bruteforce)

    # with nprobe == n_centroids every list is probed → identical to brute force
    knn = knn_bruteforce(mini_sf, n_queries=3, k=3).to_pandas()
    full = ivf_ann_topk(mini_sf, n_queries=3, k=3, n_centroids=2,
                        nprobe=2, train_rows=6).to_pandas()
    assert full.values.tolist() == knn.values.tolist()

    # fused path ≡ partitioned-index path (partition pruning)
    idx = str(tmp_path / "ivf")
    ivf_partition(mini_sf, idx, n_centroids=2, train_rows=6)
    import os
    assert os.path.exists(f"{idx}/centroids.json")
    part = ivf_ann_topk(mini_sf, n_queries=3, k=3, n_centroids=2,
                        nprobe=2, train_rows=6, index_dir=idx).to_pandas()
    assert part.values.tolist() == full.values.tolist()

    # rank-1 self-hit survives nprobe=1 (query's own list always probed)
    narrow = ivf_ann_topk(mini_sf, n_queries=3, k=3, n_centroids=2,
                          nprobe=1, train_rows=6).to_pandas()
    n1 = narrow[narrow["rank"] == 1]
    assert (n1.query_id.values == n1.vec_id.values).all()

    # zero queries → empty result, no crash
    none = ivf_ann_topk(mini_sf, n_queries=0, k=3, n_centroids=2,
                        nprobe=2, train_rows=6, index_dir=idx).to_pandas()
    assert len(none) == 0

    # index with centroids but NO data partitions: probed dirs absent →
    # empty result (regression: ray.data.read_parquet([]) raised)
    import shutil
    idx2 = str(tmp_path / "ivf_nodata")
    os.makedirs(f"{idx2}/data")
    shutil.copy(f"{idx}/centroids.json", f"{idx2}/centroids.json")
    bare = ivf_ann_topk(mini_sf, n_queries=3, k=3, n_centroids=2,
                        nprobe=2, train_rows=6, index_dir=idx2).to_pandas()
    assert len(bare) == 0


def test_doc_fingerprints_winnowing(mini_sf):
    from indri_5_5_ray.functions.textstats import doc_fingerprints

    fp = doc_fingerprints(mini_sf).to_pandas()
    by_doc = {d: set(g.fp) for d, g in fp.groupby("doc_id")}
    # exact dup docs 0 and 3 → identical fingerprint sets
    assert by_doc[0] == by_doc[3]
    # near-dup doc 1 shares the k+w-1 guarantee: long shared prefix → overlap
    assert by_doc[0] & by_doc[1]
    # unrelated docs share nothing
    assert not (by_doc[0] & by_doc[2])
    # doc 2 has 6 tokens → 4 grams → exactly one complete window;
    # doc 4 has 5 tokens → 3 grams < window → no fingerprints (boundary)
    assert 2 in by_doc and 4 not in by_doc


def test_token_counts_bpe(mini_sf):
    from indri_5_5_ray.functions.textstats import token_counts_bpe

    out = token_counts_bpe(mini_sf).to_pandas().sort_values("doc_id")
    # 9 words with single spaces → 9 " ?letters" tokens
    assert out.iloc[0].n_tokens_bpe == 9
    # exact dup rows count the same
    assert out.iloc[0].n_tokens_bpe == out.iloc[3].n_tokens_bpe


def test_ivf_per_query_probe_isolation(mini_sf):
    """A query's results must not depend on which other queries share the
    call (each query scores only ITS nprobe lists, not the batch union)."""
    from indri_5_5_ray.functions.simsearch import ivf_ann_topk

    alone = ivf_ann_topk(mini_sf, n_queries=1, k=3, n_centroids=3,
                         nprobe=1, train_rows=6).to_pandas()
    batch = ivf_ann_topk(mini_sf, n_queries=3, k=3, n_centroids=3,
                         nprobe=1, train_rows=6).to_pandas()
    q0 = batch[batch.query_id == 0].reset_index(drop=True)
    assert q0.values.tolist() == alone.values.tolist()


def test_near_dup_clusters(mini_sf):
    from indri_5_5_ray.functions.dedup import (
        near_dedup_keep_first, near_dup_clusters)

    cl = near_dup_clusters(mini_sf, tau=0.5).to_pandas().set_index("doc_id")
    # docs 0, 1, 3 form one component (0-3 exact, 0-1 jaccard 0.75 ≥ 0.5)
    assert cl.loc[0, "cluster_rep"] == 0
    assert cl.loc[1, "cluster_rep"] == 0
    assert cl.loc[3, "cluster_rep"] == 0
    # unrelated docs are singletons
    assert cl.loc[2, "cluster_rep"] == 2
    assert cl.loc[4, "cluster_rep"] == 4
    kept = sorted(near_dedup_keep_first(mini_sf, tau=0.5).to_pandas().doc_id)
    assert kept == [0, 2, 4]
    # transitivity: at tau low enough, a chain a~b, b~c clusters a with c
    cl2 = near_dup_clusters(mini_sf, tau=0.1).to_pandas().set_index("doc_id")
    assert (cl2.loc[[0, 1, 3], "cluster_rep"] == 0).all()


def test_embedding_dup_clusters(mini_sf):
    from indri_5_5_ray.functions.dedup import (
        embedding_dedup_keep_first, embedding_dup_clusters)

    cl = embedding_dup_clusters(mini_sf, tau=0.99).to_pandas().set_index("vec_id")
    # vec 5 = vec 0 + tiny noise → cosine ≈ 1 → one component, rep = min id
    assert cl.loc[0, "cluster_rep"] == 0
    assert cl.loc[5, "cluster_rep"] == 0
    # random gaussians in 8-d stay far below 0.99 → singletons
    for v in (1, 2, 3, 4):
        assert cl.loc[v, "cluster_rep"] == v
    kept = sorted(embedding_dedup_keep_first(mini_sf, tau=0.99).to_pandas().vec_id)
    assert kept == [0, 1, 2, 3, 4]
    # tau = -1 admits every pair → a single component, everyone's rep is 0
    cl2 = embedding_dup_clusters(mini_sf, tau=-1.0).to_pandas()
    assert (cl2.cluster_rep == 0).all()


def test_embedding_dup_clusters_lsh_route(mini_sf):
    """method='lsh' is a REFINEMENT of the exact clustering (in-bucket
    edges are exact-verified, so a missed edge can split a cluster but
    never merge two) and catches the near-identical pair at high tau."""
    from indri_5_5_ray.functions.dedup import (
        embedding_dedup_keep_first, embedding_dup_clusters)

    exact = (embedding_dup_clusters(mini_sf, tau=0.3)
             .to_pandas().set_index("vec_id").cluster_rep)
    lsh = (embedding_dup_clusters(mini_sf, tau=0.3, method="lsh")
           .to_pandas().set_index("vec_id").cluster_rep)
    assert sorted(lsh.index) == sorted(exact.index)  # every vector assigned
    # refinement: co-clustered under lsh ⇒ co-clustered under exact
    for a in lsh.index:
        for b in lsh.index:
            if a < b and lsh[a] == lsh[b]:
                assert exact[a] == exact[b]
    # vec 5 ≈ vec 0 (cosine ≈ 1): identical signs in every table ⇒ the
    # lsh route always finds this edge
    cl = (embedding_dup_clusters(mini_sf, tau=0.99, method="lsh")
          .to_pandas().set_index("vec_id").cluster_rep)
    assert cl[0] == 0 and cl[5] == 0
    kept = sorted(embedding_dedup_keep_first(
        mini_sf, tau=0.99, method="lsh").to_pandas().vec_id)
    assert kept == [0, 1, 2, 3, 4]
    import pytest

    with pytest.raises(ValueError):
        embedding_dup_clusters(mini_sf, method="nope")


def _events_fixture(tmp_path):
    import pyarrow as pa, pyarrow.parquet as pq
    rows = [
        # (event_id, ts_s, user, type, value)
        (1, 100, 1, "view", 10.0),
        (2, 200, 1, "click", 0.0),
        (3, 200, 1, "view", 20.0),   # same second as click 2, higher id
        (4, 300, 1, "click", 0.0),
        (5, 100, 2, "click", 0.0),   # no prior view → dropped (inner)
        (6, 150, 2, "purchase", 5.0),
    ]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] * 1_000_000 for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows]),
        "value": pa.array([r[4] for r in rows], pa.float64()),
        "props": pa.array(["{}"] * len(rows)),
    })
    d = tmp_path / "ev"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    return str(d)


def test_asof_join_events(tmp_path):
    from indri_5_5_ray.functions.events import asof_join_events

    sf = _events_fixture(tmp_path)
    out = asof_join_events(sf).to_pandas().sort_values("event_id")
    # click 2 at ts 200: prior events (by (ts,id)) = view 1 only (view 3 has
    # same ts but HIGHER id → ordered after click 2 → excluded)
    # click 4: latest prior view = view 3 (value 20)
    # click 5 (user 2): no prior view → dropped
    assert out.event_id.tolist() == [2, 4]
    assert out.prev_view_value.tolist() == [10.0, 20.0]


def test_hopping_counts(tmp_path):
    from indri_5_5_ray.functions.events import hopping_counts

    sf = _events_fixture(tmp_path)
    out = hopping_counts(sf, window_s=3600, hop_s=900).to_pandas()
    # every event belongs to exactly 4 windows
    assert out.n_events.sum() == 6 * 4
    # window covering ts=100 with start 0 holds the 4 ts<900 events... check
    w0 = out[(out.window_start == 0) & (out.event_type == "view")]
    assert w0.n_events.sum() == 2  # views at ts 100 and 200


def test_hopping_counts_non_divisible(tmp_path):
    """Window not a multiple of hop: containment must be checked per row."""
    from indri_5_5_ray.functions.events import hopping_counts

    sf = _events_fixture(tmp_path)
    out = hopping_counts(sf, window_s=3600, hop_s=1000).to_pandas()
    # python reference over the 6 fixture events
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf}/events.parquet")
    want = {}
    for ts, et, v in zip(t.column("ts").to_pylist(),
                         t.column("event_type").to_pylist(),
                         t.column("value").to_pylist()):
        ts_s = int(ts.timestamp())
        for j in range(4):  # ceil(3600/1000)
            start = ts_s // 1000 * 1000 - j * 1000
            if start <= ts_s < start + 3600:
                k = (start, et)
                want[k] = (want.get(k, (0, 0.0))[0] + 1,
                           want.get(k, (0, 0.0))[1] + v)
    got = {(r.window_start, r.event_type): (r.n_events, r.sum_value)
           for r in out.itertuples()}
    assert {k: v[0] for k, v in got.items()} == {k: v[0] for k, v in want.items()}
    # window smaller than hop: each event in at most one window
    tiny = hopping_counts(sf, window_s=500, hop_s=900).to_pandas()
    assert tiny.n_events.sum() <= 6


# per-user gaps (s) between consecutive events: exactly gap_s and gap_s + 1
# for both gaps tested below (1800 and 600), a same-second pair, and an
# hour-plus jump across windows
_EVENT_GAPS = [1800, 1801, 600, 601, 0, 7200, 5, 1800, 601]
_EVENT_TYPES = ["view", "click", "purchase"]


def _interleaved_events(tmp_path, n_users=4):
    """Several users' events sorted by time (users interleave), written
    as 4-row row groups: one user's events reach several map batches."""
    rows = []
    for u in range(1, n_users + 1):
        ts = 13 * u
        for i, gap in enumerate([0] + _EVENT_GAPS):
            ts += gap
            rows.append((ts, u, _EVENT_TYPES[(i + u) % 3],
                         round(0.25 * i + 1.5 * u, 2)))
    rows.sort()
    t = pa.table({
        "event_id": pa.array(range(1, len(rows) + 1), pa.int64()),
        "ts": pa.array([r[0] * 1_000_000 for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[2] for r in rows]),
        "value": pa.array([r[3] for r in rows], pa.float64()),
        "props": pa.array(["{}"] * len(rows)),
    })
    d = tmp_path / "ev_inter"
    d.mkdir()
    pq.write_table(t, d / "events.parquet", row_group_size=4)
    return str(d), [(e, r[0], r[1], r[2], r[3])
                    for e, r in zip(range(1, len(rows) + 1), rows)]


def _by_user(events):
    out: dict = {}
    for e in sorted(events, key=lambda e: (e[2], e[1], e[0])):
        out.setdefault(e[2], []).append(e)
    return out


def _brute_sessions(events, gap_s):
    want = set()
    for u, evs in _by_user(events).items():
        start = prev = evs[0][1]
        n = 0
        for _, ts, *_ in evs:
            if ts - prev > gap_s:
                want.add((u, start, n, prev - start))
                start, n = ts, 0
            prev, n = ts, n + 1
        want.add((u, start, n, prev - start))
    return want


def _brute_windows(events, window_s, hop_s):
    want: dict = {}
    for _, ts, _, et, v in events:
        for j in range(-(-window_s // hop_s)):
            start = ts // hop_s * hop_s - j * hop_s
            if start <= ts < start + window_s:
                n, s = want.get((start, et), (0, 0.0))
                want[(start, et)] = (n + 1, s + v)
    return {(k[0], k[1], n, round(s, 6)) for k, (n, s) in want.items()}


def _brute_asof(events, left, right):
    want = set()
    for u, evs in _by_user(events).items():
        last = None
        for e, ts, _, et, v in evs:
            if et == left and last is not None:
                want.add((e, u, ts, last))
            if et == right:
                last = v
    return want


def _rows(ds, cols):
    df = ds.to_pandas()
    return {tuple(r) for r in df[cols].itertuples(index=False)}


def test_event_ops_brute_force(tmp_path):
    """Every event operator equals a Python reference on events spread
    over several map batches; two parameter values per operator on ONE
    file each match (the spill cache keys on every parameter)."""
    from indri_5_5_ray.functions import events as ev

    sf, events = _interleaved_events(tmp_path)
    for gap_s in (1800, 600):
        assert _rows(ev.sessionize(sf, gap_s=gap_s),
                     ["user_id", "session_start", "n_events", "duration_s"]
                     ) == _brute_sessions(events, gap_s)
    win = ["window_start", "event_type", "n_events", "sum_value"]
    for window_s, hop_s in ((3600, 900), (3600, 1000)):
        assert _rows(ev.hopping_counts(sf, window_s, hop_s), win) == \
            _brute_windows(events, window_s, hop_s)
    assert _rows(ev.tumbling_counts(sf),
                 ["hour_start", "event_type", "n_events", "sum_value"]) == \
        _brute_windows(events, 3600, 3600)
    assert _rows(ev.user_activity(sf),
                 ["user_id", "n_events", "n_types", "first_ts", "last_ts"]
                 ) == {(u, len(e), len({x[3] for x in e}), e[0][1], e[-1][1])
                       for u, e in _by_user(events).items()}
    asof = ["event_id", "user_id", "ts_s", "prev_view_value"]
    for left, right in (("click", "view"), ("view", "purchase")):
        assert _rows(ev.asof_join_events(sf, left, right), asof) == \
            _brute_asof(events, left, right)


def test_event_ops_zero_rows(tmp_path):
    """A zero-row events table gives zero rows with the operator's
    columns from every event operator."""
    from indri_5_5_ray.functions import events as ev

    d = tmp_path / "ev_empty"
    d.mkdir()
    pq.write_table(pa.table({
        "event_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "user_id": pa.array([], pa.int64()),
        "event_type": pa.array([], pa.string()),
        "value": pa.array([], pa.float64()),
        "props": pa.array([], pa.string()),
    }), d / "events.parquet")
    sf = str(d)
    for fn, cols in [
        (ev.tumbling_counts,
         ["hour_start", "event_type", "n_events", "sum_value"]),
        (ev.hopping_counts,
         ["window_start", "event_type", "n_events", "sum_value"]),
        (ev.sessionize,
         ["user_id", "session_start", "n_events", "duration_s"]),
        (ev.user_activity,
         ["user_id", "n_events", "n_types", "first_ts", "last_ts"]),
        (ev.asof_join_events,
         ["event_id", "user_id", "ts_s", "prev_view_value"]),
    ]:
        ds = fn(sf)
        assert ds.count() == 0 and ds.schema().names == cols, fn.__name__


def test_first_n_by_vec_id_stat_pruned(tmp_path):
    """Exact first-n-by-vec_id regardless of row layout: ids shuffled across
    row groups, stat-pruned read == full-read sort+slice."""
    from indri_5_5_ray.functions.simsearch import _first_n_by_vec_id

    rng = np.random.default_rng(7)
    ids = rng.permutation(200).astype(np.int64)
    emb = [[float(i), float(i) + 0.5] for i in ids]
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(emb, pa.list_(pa.float32()))})
    path = str(tmp_path / "emb.parquet")
    pq.write_table(t, path, row_group_size=16)  # 13 row groups, unsorted ids

    for n in (1, 5, 16, 17, 50, 199, 200, 500):
        got = _first_n_by_vec_id(path, n)
        want = pq.read_table(path).sort_by("vec_id").slice(0, n)
        assert got.column("vec_id").to_pylist() == want.column("vec_id").to_pylist()
        assert got.column("embedding").to_pylist() == want.column("embedding").to_pylist()

    # sorted layout: only the needed prefix of row groups is read
    t2 = t.sort_by("vec_id")
    path2 = str(tmp_path / "emb_sorted.parquet")
    pq.write_table(t2, path2, row_group_size=16)
    got = _first_n_by_vec_id(path2, 10)
    assert got.column("vec_id").to_pylist() == list(range(10))

    # no statistics + negative ids: every row group must be read (no sentinel
    # pruning) — descending layout puts the smallest ids in the LAST group
    t3 = pa.table({"vec_id": pa.array([-1, -2, -50, -60], pa.int64()),
                   "embedding": pa.array([[0.0], [1.0], [2.0], [3.0]],
                                         pa.list_(pa.float32()))})
    path3 = str(tmp_path / "emb_nostats.parquet")
    pq.write_table(t3, path3, row_group_size=2, write_statistics=False)
    got = _first_n_by_vec_id(path3, 2)
    assert got.column("vec_id").to_pylist() == [-60, -50]

    # zero row groups: empty result, no crash
    path4 = str(tmp_path / "emb_empty.parquet")
    w = pq.ParquetWriter(path4, t.schema)
    w.close()
    assert _first_n_by_vec_id(path4, 3).num_rows == 0


def test_ann_recall_at_bench_settings():
    """The pruned ANN paths must hold recall@10 >= 0.9 vs brute force at
    the settings bench.py records (probe_bits=4 / nprobe=12) — the
    quantitative quality signal behind the rows-only driver entries."""
    from indri_5_5_ray.functions.simsearch import (
        ivf_ann_topk, knn_bruteforce, lsh_ann_topk)

    sf = "/root/testdata/sf0.01"
    bf = knn_bruteforce(sf)
    truth: dict[int, set[int]] = {}
    for q, v in zip(bf.column("query_id").to_pylist(),
                    bf.column("vec_id").to_pylist()):
        truth.setdefault(q, set()).add(v)
    total = sum(len(s) for s in truth.values())
    for t in (lsh_ann_topk(sf, probe_bits=4), ivf_ann_topk(sf, nprobe=12)):
        hits = sum(v in truth.get(q, ())
                   for q, v in zip(t.column("query_id").to_pylist(),
                                   t.column("vec_id").to_pylist()))
        assert hits / total >= 0.9, hits / total


def test_fingerprint_dup_pairs_brute_force():
    """dedup.fingerprint_dup_pairs vs a per-doc Python winnowing recompute
    (k=3 grams, window 4, md5 minima) and an O(n^2) shared-fp pair count."""
    import hashlib
    import re
    from itertools import combinations

    import pyarrow.parquet as pq

    from indri_5_5_ray.functions.dedup import fingerprint_dup_pairs

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])

    def fps(text: str) -> set[str]:
        toks = re.findall(r"[a-z0-9]+", text.lower())
        hs = [hashlib.md5(" ".join(toks[i:i + 3]).encode()).hexdigest()
              for i in range(len(toks) - 2)]
        return {min(hs[max(0, i - 3):i + 1]) for i in range(3, len(hs))}

    by_doc = {int(d): fps(x)
              for d, x in zip(t.column("doc_id").to_pylist(),
                              t.column("text").to_pylist())}
    want = {}
    for a, b in combinations(sorted(by_doc), 2):
        n = len(by_doc[a] & by_doc[b])
        if n >= 2:
            want[(a, b)] = n
    got = {(r["doc_a"], r["doc_b"]): r["n_shared"]
           for r in fingerprint_dup_pairs(sf).take_all()}
    assert got == want
    assert want  # the fixture corpus actually produces shared-span pairs


def test_unigram_logprob(mini_sf, ray_entry_mod):
    """Hand-computed cross-entropy on the mini corpus + oracle parity."""
    import duckdb
    from collections import Counter

    from indri_5_5_ray.functions.textstats import unigram_logprob

    got = unigram_logprob(mini_sf).sort("doc_id").to_pandas()
    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy cat",
        "completely different words entirely here now",
        "the quick brown fox jumps over the lazy dog",
        "another unrelated document about databases",
    ]
    cf = Counter(t for s in texts for t in s.split())
    total = sum(cf.values())
    for i, s in enumerate(texts):
        toks = s.split()
        want = np.log(total) - sum(np.log(cf[t]) for t in toks) / len(toks)
        assert got.n_tokens[i] == len(toks)
        assert abs(got.cross_entropy[i] - want) < 1e-9
    # the shared 8-token prefix makes the dup docs lower-entropy than the
    # all-unique-token docs (the CCNet head/tail ordering)
    assert got.cross_entropy[0] < got.cross_entropy[2]

    mod = ray_entry_mod
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{mini_sf}/documents.parquet')")
    want_df = con.execute(mod.oracle_sql()["unigram_logprob"]).fetch_df()
    assert (got.doc_id.values == want_df.doc_id.values).all()
    assert (got.n_tokens.values == want_df.n_tokens.values).all()
    assert np.allclose(got.cross_entropy, want_df.cross_entropy, atol=1e-9)


def test_unigram_logprob_oracle_and_zero_token(mini_sf, tmp_path,
                                               ray_entry_mod):
    """The term-bucket exchange matches the DuckDB oracle on the mini
    corpus and on sf0.001 (n_tokens exact, entropy to float-sum
    tolerance); zero-token docs score 0.0."""
    import duckdb

    from indri_5_5_ray.functions.textstats import unigram_logprob

    for sf in (mini_sf, "/root/testdata/sf0.001"):
        got = unigram_logprob(sf).sort("doc_id").to_pandas()
        con = duckdb.connect()
        con.execute("CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{sf}/documents.parquet')")
        want = con.execute(
            ray_entry_mod.oracle_sql()["unigram_logprob"]).fetch_df()
        assert (got.doc_id.values == want.doc_id.values).all()
        assert (got.n_tokens.values == want.n_tokens.values).all()
        assert np.allclose(got.cross_entropy, want.cross_entropy,
                           rtol=1e-9, atol=1e-9)

    d = tmp_path / "zt"
    d.mkdir()
    pq.write_table(pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                             "text": pa.array(["", "alpha beta alpha"])}),
                   d / "documents.parquet")
    z = unigram_logprob(str(d)).sort("doc_id").to_pandas()
    assert z.n_tokens.tolist() == [0, 3]
    assert z.cross_entropy[0] == 0.0
    want1 = np.log(3) - (2 * np.log(2) + np.log(1)) / 3
    assert abs(z.cross_entropy[1] - want1) < 1e-12


def test_unigram_logprob_sums_in_one_fixed_order(tmp_path):
    """``cross_entropy`` is bitwise a plain left-to-right float sum in the
    documented order — per doc, each term bucket's terms ascending, then
    the buckets ascending — and a second run on a fresh copy of the
    corpus (a fresh exchange spill) gives the same bits."""
    import math
    from collections import Counter

    import polars as pl

    from indri_5_5_ray.functions.exchange import bucket_count
    from indri_5_5_ray.functions.textstats import tokens_expr, unigram_logprob

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(500)]
    p = 1.0 / np.arange(1, len(vocab) + 1)
    texts = [" ".join(rng.choice(vocab, int(rng.integers(0, 400)),
                                 p=p / p.sum())) for _ in range(400)]
    docs = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts)})
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        pq.write_table(docs, tmp_path / name / "documents.parquet")
        runs.append(unigram_logprob(str(tmp_path / name))
                    .to_pandas().sort_values("doc_id"))
    assert runs[0].cross_entropy.values.tobytes() \
        == runs[1].cross_entropy.values.tobytes()

    toks = pl.DataFrame({"text": texts}).select(
        tokens_expr().alias("t"))["t"].to_list()
    cf = Counter(t for ts in toks for t in ts)
    vocab_seen = sorted(cf)
    n_tb = bucket_count(str(tmp_path / "a" / "documents.parquet"))
    tb = dict(zip(vocab_seen, (pl.Series(vocab_seen).hash(seed=0)
                               % n_tb).to_list()))
    ln_total = float(np.log(sum(cf.values())))
    want = []
    for ts in toks:
        tf = Counter(ts)
        s = 0.0
        for b in sorted({tb[t] for t in tf}):
            s_b = 0.0
            for t in sorted(t for t in tf if tb[t] == b):
                s_b += float(tf[t]) * math.log(cf[t])
            s += s_b
        want.append(ln_total - s / len(ts) if ts else 0.0)
    got = runs[0].cross_entropy.values
    assert np.array(want).tobytes() == got.tobytes(), \
        int((np.array(want) != got).sum())


def test_ccnet_buckets(mini_sf, ray_entry_mod):
    """Exact ntile semantics vs DuckDB on the mini corpus (n=5, k=3 →
    sizes 2/2/1) and identical-text docs ranked adjacently by doc_id."""
    import duckdb

    from indri_5_5_ray.functions.textstats import ccnet_buckets

    got = ccnet_buckets(mini_sf).sort("doc_id").to_pandas()
    mod = ray_entry_mod
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{mini_sf}/documents.parquet')")
    want = con.execute(mod.oracle_sql()["ccnet_buckets"]).fetch_df()
    assert (got.doc_id.values == want.doc_id.values).all()
    assert (got.bucket.values == want.bucket.values).all()
    assert sorted(got.bucket.value_counts().values, reverse=True) == [2, 2, 1]
    # exact dups 0/3 have identical cross_entropy; doc_id breaks the tie
    ce = got.set_index("doc_id").cross_entropy
    assert ce[0] == ce[3]


def test_ccnet_buckets_fewer_docs_than_buckets(tmp_path):
    """n < k: ntile gives the first n buckets one row each."""
    import pyarrow.parquet as pq

    from indri_5_5_ray.functions.textstats import ccnet_buckets

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["alpha beta", "alpha alpha alpha"]),
    }), d / "documents.parquet")
    t = ccnet_buckets(str(d), k=3).sort("doc_id").to_pandas()
    # doc 1 is all high-cf tokens → lower cross-entropy → bucket 1 (head)
    by_doc = t.set_index("doc_id").bucket
    assert by_doc[1] == 1 and by_doc[0] == 2


def test_remove_dup_spans_chunked_and_small_buckets(mini_sf, monkeypatch):
    """Forcing multi-chunk slot expansion (chunk=4) and a tiny gram-bucket
    count (3, so the exchange genuinely fans out and most buckets hold
    several grams) reproduces the default-config output exactly — pins the
    chunked-unique math and the bucket-exchange layout."""
    import shutil

    from indri_5_5_ray.functions import dedup

    want = dedup.remove_dup_spans(mini_sf).sort("doc_id").to_pandas()
    wants = dedup.dup_span_stats(mini_sf).sort("doc_id").to_pandas()

    shutil.rmtree("/tmp/indri55_dupocc", ignore_errors=True)
    monkeypatch.setattr(dedup, "_SPAN_EXPAND_CHUNK", 4)
    monkeypatch.setattr(dedup, "bucket_count", lambda path: 3)
    got = dedup.remove_dup_spans(mini_sf).sort("doc_id").to_pandas()
    gots = dedup.dup_span_stats(mini_sf).sort("doc_id").to_pandas()
    shutil.rmtree("/tmp/indri55_dupocc", ignore_errors=True)

    assert got.reset_index(drop=True).equals(want.reset_index(drop=True))
    assert gots.reset_index(drop=True).equals(wants.reset_index(drop=True))


def test_span_ops_sparse_doc_ids(mini_sf, tmp_path):
    """Sparse (hash/snowflake-style) doc ids: a single batch can span far
    more than 2^23 in id space.  The packed-slot expansion keys on the
    doc's LOCAL batch index, so results must equal the dense-id corpus's
    under the id mapping (the old value-offset packing raised here)."""
    import shutil

    from indri_5_5_ray.functions.dedup import dup_span_stats, remove_dup_spans

    dense = pq.read_table(f"{mini_sf}/documents.parquet")
    sparse_ids = [i * 10_000_000_000 + 7 for i in range(dense.num_rows)]
    sparse = dense.set_column(
        dense.schema.get_field_index("doc_id"), "doc_id",
        pa.array(sparse_ids, pa.int64()))
    d = tmp_path / "sparse_sf"
    d.mkdir()
    pq.write_table(sparse, d / "documents.parquet")

    want_rm = remove_dup_spans(mini_sf).sort("doc_id").to_pandas()
    want_st = dup_span_stats(mini_sf).sort("doc_id").to_pandas()
    got_rm = remove_dup_spans(str(d)).sort("doc_id").to_pandas()
    got_st = dup_span_stats(str(d)).sort("doc_id").to_pandas()
    shutil.rmtree("/tmp/indri55_dupocc", ignore_errors=True)

    assert got_rm["doc_id"].tolist() == sparse_ids
    assert got_rm["clean_text"].tolist() == want_rm["clean_text"].tolist()
    assert got_rm["n_removed"].tolist() == want_rm["n_removed"].tolist()
    assert got_st["doc_id"].tolist() == sparse_ids
    for col in ("n_tokens", "dup_positions", "covered_tokens"):
        assert got_st[col].tolist() == want_st[col].tolist()


def test_nb_classifier_hand_computed(tmp_path, ray_entry_mod):
    """NB llr scores on a two-language corpus match an independent
    Counter-based computation and the DuckDB oracle; the seed label
    (lang='en') is recovered on lexically separated classes."""
    import duckdb
    from collections import Counter

    from indri_5_5_ray.functions.classifier import (nb_classifier_scores,
                                                    nb_token_llr)

    texts = [
        "data table merge sort data",        # en
        "table scan merge data",             # en
        "fenster baum strasse haus",         # de
        "baum haus fenster",                 # de
        "",                                  # en, zero tokens
    ]
    langs = ["en", "en", "de", "de", "en"]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(langs),
        "source": pa.array(["s"] * 5),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), tmp_path / "documents.parquet")
    sf = str(tmp_path)

    got = nb_classifier_scores(sf).sort("doc_id").to_pandas()

    cf_pos = Counter(t for s, l in zip(texts, langs) if l == "en"
                     for t in s.split())
    cf_neg = Counter(t for s, l in zip(texts, langs) if l != "en"
                     for t in s.split())
    vocab = set(cf_pos) | set(cf_neg)
    tp, tn, v = sum(cf_pos.values()), sum(cf_neg.values()), len(vocab)
    prior = np.log((3 + 1) / (2 + 1))

    def llr(t):
        return (np.log(cf_pos[t] + 1) - np.log(tp + v)
                - np.log(cf_neg[t] + 1) + np.log(tn + v))

    for i, s in enumerate(texts):
        toks = s.split()
        want = prior + sum(llr(t) for t in toks)
        assert got.n_tokens[i] == len(toks)
        assert abs(got.nb_llr[i] - want) < 1e-9
        assert bool(got.predicted[i]) == (want > 0)
    # lexically separated classes → the label is recovered (the zero-token
    # doc carries the positive prior alone)
    assert got.predicted.tolist() == [True, True, False, False, True]

    # model table: every en-only token has positive llr, de-only negative
    m = nb_token_llr(sf).to_pandas().set_index("term")
    assert (m.loc[["data", "merge"], "llr"] > 0).all()
    assert (m.loc[["baum", "haus"], "llr"] < 0).all()

    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want_df = con.execute(
        ray_entry_mod.oracle_sql()["nb_classifier_scores"]).fetch_df()
    assert (got.doc_id.values == want_df.doc_id.values).all()
    assert (got.n_tokens.values == want_df.n_tokens.values).all()
    assert np.allclose(got.nb_llr, want_df.nb_llr, atol=1e-9)
    assert (got.predicted.values == want_df.predicted.values).all()


def test_nb_classifier_single_class_degenerate(mini_sf):
    """All-positive corpus (no negative seed): cf_neg=0 everywhere, the
    smoothed formula stays finite (ln(total_neg+V) = ln V, never ln 0)
    and predicted stays consistent with the score sign.  Note all-positive
    does NOT force predicted=True: a hapax-heavy doc can still score
    below 0 because smoothing charges ln(cf_pos+1) − ln(total_pos+V) per
    token."""
    from indri_5_5_ray.functions.classifier import nb_classifier_scores

    got = nb_classifier_scores(mini_sf).to_pandas()
    assert np.isfinite(got.nb_llr).all()
    assert (got.predicted.values == (got.nb_llr.values > 0)).all()


def test_nb_classifier_oracle_sparse_ids(tmp_path, ray_entry_mod):
    """NB scores match the DuckDB oracle on a sparse-id two-language
    corpus and on sf0.001 (n_tokens exact, llr to float-sum tolerance,
    predicted identical); zero-token docs carry the prior alone."""
    import duckdb

    from indri_5_5_ray.functions.classifier import nb_classifier_scores

    d = tmp_path / "two"
    d.mkdir()
    texts = ["data table merge sort data", "table scan merge data",
             "fenster baum strasse haus", "baum haus fenster", ""]
    pq.write_table(pa.table({
        "doc_id": pa.array([3, 7, 10, 20, 41], pa.int64()),  # sparse ids
        "text": pa.array(texts),
        "lang": pa.array(["en", "en", "de", "de", "en"]),
    }), d / "documents.parquet")

    for sf in (str(d), "/root/testdata/sf0.001"):
        got = nb_classifier_scores(sf).sort("doc_id").to_pandas()
        con = duckdb.connect()
        con.execute("CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{sf}/documents.parquet')")
        want = con.execute(
            ray_entry_mod.oracle_sql()["nb_classifier_scores"]).fetch_df()
        assert (got.doc_id.values == want.doc_id.values).all()
        assert (got.n_tokens.values == want.n_tokens.values).all()
        assert np.allclose(got.nb_llr, want.nb_llr, atol=1e-9)
        assert (got.predicted.values == want.predicted.values).all()

    z = nb_classifier_scores(str(d)).sort("doc_id").to_pandas()
    assert z.n_tokens.tolist()[-1] == 0
    assert abs(z.nb_llr.values[-1] - np.log(4 / 3)) < 1e-12  # prior only


def test_nb_pareto_sample_oracle(ray_entry_mod):
    """nb_pareto_sample == its registered DuckDB oracle on sf0.001 (the
    entry sits past the driver's 50-slot window, so the hash-grade
    compare lives here); keep rule is reproducible and strictly
    margin-positive."""
    import duckdb

    from indri_5_5_ray.functions.classifier import nb_pareto_sample

    sf = "/root/testdata/sf0.001"
    got = (nb_pareto_sample(sf).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(
        ray_entry_mod.oracle_sql()["nb_pareto_sample"]).fetch_df()
    assert (got.doc_id.values == want.doc_id.values).all()
    assert (got.n_tokens.values == want.n_tokens.values).all()
    assert np.allclose(got.nb_llr, want.nb_llr, atol=1e-9)
    assert np.allclose(got.margin, want.margin, atol=1e-9)
    assert (got.margin > 0).all()
    # determinism: a second run keeps the same documents
    again = (nb_pareto_sample(sf).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    assert (again.doc_id.values == got.doc_id.values).all()


def test_nb_classifier_null_labels(tmp_path, ray_entry_mod):
    """NULL seed labels count as NEGATIVE in the classifier AND the SQL
    oracle (the two once disagreed)."""
    import duckdb

    from indri_5_5_ray.functions.classifier import nb_classifier_scores

    d = tmp_path / "nulls"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["data table merge", "baum haus",
                          "data haus", "merge table data"]),
        "lang": pa.array(["en", "de", None, "en"]),
    }), d / "documents.parquet")
    sf = str(d)
    a = nb_classifier_scores(sf).sort("doc_id").to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(
        ray_entry_mod.oracle_sql()["nb_classifier_scores"]).fetch_df()
    assert np.allclose(a.nb_llr, want.nb_llr, atol=1e-9)
    assert (a.n_tokens.values == want.n_tokens.values).all()


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_nb_classifier_property(tmp_path_factory, data):
    """NB scores == a Counter-based pure-Python reference
    on random corpora (random vocab, labels incl. all-one-class, empty
    docs); texts are space-joined [a-z]+ tokens so split() matches the
    engine's tokenizer exactly."""
    from collections import Counter

    from indri_5_5_ray.functions.classifier import nb_classifier_scores

    vocab = data.draw(st.lists(st.text(alphabet="abcde", min_size=1,
                                       max_size=4),
                               min_size=1, max_size=8, unique=True))
    n_docs = data.draw(st.integers(1, 8))
    texts = [" ".join(data.draw(st.lists(st.sampled_from(vocab),
                                         min_size=0, max_size=15)))
             for _ in range(n_docs)]
    langs = [data.draw(st.sampled_from(["en", "de"]))
             for _ in range(n_docs)]

    d = tmp_path_factory.mktemp("nbprop")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n_docs), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(langs),
    }), d / "documents.parquet")
    got = nb_classifier_scores(str(d)).sort("doc_id").to_pandas()

    cf_pos = Counter(t for s, l in zip(texts, langs) if l == "en"
                     for t in s.split())
    cf_neg = Counter(t for s, l in zip(texts, langs) if l != "en"
                     for t in s.split())
    tp, tn = sum(cf_pos.values()), sum(cf_neg.values())
    v = len(set(cf_pos) | set(cf_neg))
    n_pos = sum(l == "en" for l in langs)
    prior = np.log((n_pos + 1) / (n_docs - n_pos + 1))
    for i, s in enumerate(texts):
        want = prior + sum(
            np.log(cf_pos[t] + 1) - np.log(tp + v)
            - np.log(cf_neg[t] + 1) + np.log(tn + v) for t in s.split())
        assert got.n_tokens[i] == len(s.split())
        assert abs(got.nb_llr[i] - want) < 1e-9, (i, s)
