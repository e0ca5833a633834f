"""The shared exchange under the near-dup family: retry-safe map parts,
the capped self-join pair kernel, cache keys that carry every output
parameter, and the packed span-slot bound."""

from __future__ import annotations

import glob
import hashlib
import json
import logging
import os
import re
import shutil
from itertools import combinations

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data


def _clear_pair_spills(corpus_dir) -> None:
    """Drop the pair-exchange cache dirs of one test corpus only."""
    for d in glob.glob(f"/tmp/indri55_pairs/{os.path.basename(corpus_dir)}-*"):
        shutil.rmtree(d, ignore_errors=True)


def test_bucket_exchange_map_retry_rewrites_its_parts(tmp_path):
    """A map task dies after some of its batches wrote their parts; the
    retry rewrites those parts under the same names, so the reduce counts
    every row once and the output equals an unfailed run."""
    from indri_5_5_ray.functions.exchange import bucket_exchange

    marker = tmp_path / "crashed"
    src = tmp_path / "src.parquet"
    pq.write_table(pa.table({"x": [0]}), src)
    blk = pa.table({"doc_id": pa.array(range(8), pa.int64()),
                    "term": pa.array(list("abababab"))})

    def run(name: str, crash: bool):
        def per_term(df):
            if crash and df["doc_id"].min() >= 4 and not marker.exists():
                marker.touch()
                os._exit(1)  # first attempt only: the worker dies
            return (df.group_by("term")
                    .agg(pl.len().cast(pl.Int64).alias("n"))
                    .with_columns((pl.col("term").hash(seed=0) % 4)
                                  .cast(pl.Int32).alias("b")))

        def total(df):
            out = df.group_by("term").agg(pl.col("n").sum())
            return out, int(out["n"].sum())

        # an upstream re-blocking map fuses into the exchange's map task,
        # so one task runs several batches and writes several parts
        docs = ray.data.from_arrow(blk).map_batches(
            lambda b: b, batch_size=2, batch_format="pyarrow")
        spill = bucket_exchange(
            docs, cache_root=str(tmp_path / name),
            source_path=str(src), version="t", n_buckets=4, bucket_col="b",
            map_kernel=per_term, map_columns=("doc_id", "term"),
            reduce_columns=["term", "n"], reduce_kernel=total,
            out_schema=pa.schema([("term", pa.string()), ("n", pa.int64())]),
            out_dirname="out", out_prefix="t-")
        with open(f"{spill}/meta.json") as f:
            meta = json.load(f)
        got = pq.read_table(f"{spill}/out").to_pydict()
        return meta, dict(zip(got["term"], got["n"]))

    ctx = ray.data.DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 1  # keep those small blocks apart
    try:
        clean = run("clean", crash=False)
        crashed = run("crash", crash=True)
    finally:
        ctx.target_max_block_size = old
    assert marker.exists()  # the first attempt really died mid-task
    assert clean == crashed == ({"rows": 8}, {"a": 4, "b": 4})


def test_self_join_pairs_cap_keeps_lowest_ids(caplog):
    """A key held by more docs than the cap keeps its lowest doc_ids (in
    any input order) and logs the truncation; other keys are untouched."""
    from indri_5_5_ray.functions.dedup import _self_join_pairs

    rng = np.random.default_rng(7)
    hot = rng.permutation(np.arange(100, 110))
    df = pl.DataFrame({
        "doc_id": np.concatenate([hot, [1, 2]]).astype(np.int64),
        "key": ["hot"] * len(hot) + ["cold", "cold"],
        "n": np.arange(len(hot) + 2, dtype=np.int64),
    })
    with caplog.at_level(logging.WARNING,
                         logger="indri_5_5_ray.functions.dedup"):
        out = _self_join_pairs(df, "key", 4, ("n",))
    assert "pair cap" in caplog.text
    got = sorted(zip(out["doc_a"].to_list(), out["doc_b"].to_list()))
    assert got == [(1, 2)] + list(combinations(range(100, 104), 2))
    n_of = dict(zip(df["doc_id"].to_list(), df["n"].to_list()))
    assert all(n_of[a] == na and n_of[b] == nb for a, b, na, nb in zip(
        out["doc_a"], out["doc_b"], out["n_a"], out["n_b"]))
    again = _self_join_pairs(df.sample(fraction=1.0, shuffle=True, seed=1),
                             "key", 4, ("n",))
    assert sorted(again.rows()) == sorted(out.rows())


def _fps(text: str) -> set[str]:
    """Winnowing fingerprints recomputed per doc (k=3 grams, window 4)."""
    toks = re.findall(r"[a-z0-9]+", text.lower())
    hs = [hashlib.md5(" ".join(toks[i:i + 3]).encode()).hexdigest()
          for i in range(len(toks) - 2)]
    return {min(hs[max(0, i - 3):i + 1]) for i in range(3, len(hs))}


@pytest.fixture()
def hot_fp_dir(tmp_path):
    """12 docs over a 6-word vocabulary: most fingerprints are shared by
    many docs, so a small pair cap truncates."""
    rng = np.random.default_rng(3)
    vocab = ["red", "green", "blue", "cyan", "plum", "sand"]
    texts = [" ".join(rng.choice(vocab, 40)) for _ in range(12)]
    pq.write_table(pa.table({"doc_id": pa.array(range(12), pa.int64()),
                             "text": pa.array(texts)}),
                   tmp_path / "documents.parquet")
    return tmp_path, texts


def test_pair_cap_deterministic_and_keyed(hot_fp_dir, monkeypatch):
    """The cap is part of the cache key: capped runs repeat exactly from
    a cold cache, and a rerun with another cap is never served the capped
    spill."""
    from indri_5_5_ray.functions import dedup

    d, texts = hot_fp_dir

    def pairs() -> dict:
        return {(r["doc_a"], r["doc_b"]): r["n_shared"]
                for r in dedup.fingerprint_dup_pairs(str(d)).take_all()}

    _clear_pair_spills(d)
    monkeypatch.setattr(dedup, "MAX_PAIR_GROUP", 3)
    capped = pairs()
    _clear_pair_spills(d)
    assert pairs() == capped  # same answer, rebuilt from scratch
    monkeypatch.setattr(dedup, "MAX_PAIR_GROUP", 8192)
    full = pairs()  # the capped spill is still cached under its own key
    _clear_pair_spills(d)

    by_doc = dict(enumerate(map(_fps, texts)))
    want = {(a, b): len(by_doc[a] & by_doc[b])
            for a, b in combinations(range(12), 2)
            if len(by_doc[a] & by_doc[b]) >= 2}
    assert full == want
    assert capped != full
    # truncation only drops shared keys: no capped count exceeds the full one
    assert all(full.get(p, 0) >= n for p, n in capped.items())


def test_threshold_variants_match_brute_force(hot_fp_dir, tmp_path):
    """Calls differing only in ``min_shared`` / ``tau`` each match their
    brute-force answer (the threshold is applied in the reduce, so it
    must be in the cache key)."""
    from indri_5_5_ray.functions.dedup import (fingerprint_dup_pairs,
                                               ngram_jaccard_pairs)

    d, texts = hot_fp_dir
    by_doc = dict(enumerate(map(_fps, texts)))
    for m in (2, 4):
        got = {(r["doc_a"], r["doc_b"]): r["n_shared"]
               for r in fingerprint_dup_pairs(str(d), min_shared=m).take_all()}
        want = {(a, b): len(by_doc[a] & by_doc[b])
                for a, b in combinations(range(12), 2)
                if len(by_doc[a] & by_doc[b]) >= m}
        assert got == want, m
    _clear_pair_spills(d)

    jd = tmp_path / "jacc"
    jd.mkdir()
    texts = ["a b c d e f g h", "a b c d e f g x", "a b c d q r s t",
             "a b c d e q r s", "a b c d e f g h", "one two"]
    pq.write_table(pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                             "text": pa.array(texts)}), jd / "documents.parquet")

    def shingles(t: str) -> set[str]:
        w = t.split()
        return {" ".join(w[i:i + 3]) for i in range(len(w) - 2)}

    sh = dict(enumerate(map(shingles, texts)))
    for tau in (0.2, 0.5):
        got = {(r["doc_a"], r["doc_b"]): r["jaccard"]
               for r in ngram_jaccard_pairs(str(jd), tau=tau).take_all()}
        want = {}
        for a, b in combinations(range(len(texts)), 2):
            if sh[a] and sh[b]:
                j = round(len(sh[a] & sh[b]) / len(sh[a] | sh[b]), 6)
                if j >= tau:
                    want[(a, b)] = j
        assert got == want, tau
    _clear_pair_spills(jd)


def test_pack_doc_slots_bound():
    """The packed (local doc index, slot) key raises at 2^23 docs instead
    of wrapping the doc lane."""
    from indri_5_5_ray.functions.dedup import _pack_doc_slots

    ids = np.arange(1 << 23, dtype=np.int64)
    with pytest.raises(ValueError, match="unique doc ids"):
        _pack_doc_slots(ids, np.zeros_like(ids), len(ids))
    top = ids[-2:] - 1  # the largest indices that still fit
    got = _pack_doc_slots(top, np.array([5, 7]), len(ids) - 1)
    assert (got >> 40).tolist() == top.tolist()
    assert (got & ((1 << 40) - 1)).tolist() == [5, 7]
