"""Deduplication operators: exact, n-gram Jaccard, MinHash+LSH, SimHash.

The reference only has exact ingest-time dedup
(ref:src/IndexEnvironment.cpp:388-404, SURVEY.md §2.8); near-dup operators
are the training-data-pipeline extension, built Ray-Data-first.

Shuffle plan: every all-to-all step here is the FILESYSTEM bucket
exchange (:mod:`.exchange`) — hash-partitioned part files and one reduce
task per bucket, never a ``Dataset.groupby`` sort-shuffle, whose driver
lineage grows with the corpus (BASELINE §1g):

* exact      — one exchange keyed by content hash, keep-first;
* exact-dup pre-collapse (:func:`_dup_groups`) — one exchange keyed by
  md5, spilling the multi-member groups; the pair operators run over the
  group representatives and expand back to members map-side, so n
  identical docs cost one key row, not O(n²) pairs;
* n-gram Jaccard, MinHash+LSH, winnowing fingerprints — one
  :func:`.exchange.pair_exchange` each: key rows (shingle / band bucket /
  fingerprint) → capped pairs per key bucket (:func:`_self_join_pairs`)
  → one combined row per pair per pair-hash bucket (count / unique);
* duplicated-span statistics — one exchange keyed by gram hash;
* SimHash    — 60-bit fingerprints from md5 token hashes (60 bits so the
  value stays SQL-reproducible via DuckDB's 15-hex-digit BIGINT cast).

All hashing is md5-based so every operator has an exact DuckDB oracle.
Per-doc shingle counts ride along on the shingle rows themselves, so the
Jaccard union term needs no driver-side size dict and no broadcast.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from typing import NamedTuple

import numpy as np
import polars as pl
import pyarrow as pa
import ray
import ray.data

from .exchange import (bucket_count, bucket_exchange, pair_exchange,
                       read_exchange)
from .textstats import read_spread, token_count_expr, tokens_expr

logger = logging.getLogger(__name__)

NGRAM_N = 3
NUM_PERMS = 16
LSH_BANDS = 4  # 4 bands × 4 rows

# Pathological-skew guard for pair generation (AFTER exact-dup collapse a
# key this hot means n distinct docs sharing one shingle/bucket — e.g.
# templated boilerplate).  Pairs beyond the cap are dropped WITH A LOG LINE:
# silent truncation would read as full coverage.  The default is high enough
# that the SQL-oracle-checked test scales never hit it.  Operators read it on
# the driver at call time, pass it into their kernels and key their cache
# dir on it.
MAX_PAIR_GROUP = int(os.environ.get("INDRI55_MAX_PAIR_GROUP", "8192"))

# layout version of every pair-exchange spill under /tmp/indri55_pairs
_PAIRS_VERSION = "v1"


def _i64(*names: str) -> pa.Schema:
    return pa.schema([(n, pa.int64()) for n in names])


_PAIR_SCHEMA = _i64("doc_a", "doc_b")


def _docs(sf_dir: str) -> ray.data.Dataset:
    return read_spread(f"{sf_dir}/documents.parquet", ["doc_id", "text"])


def _self_join_pairs(df: pl.DataFrame, key: str, cap: int,
                     payload: tuple[str, ...] = ()) -> pl.DataFrame:
    """(doc_a < doc_b, payload_a..., payload_b...) for every pair of docs
    sharing a ``key`` value — one vectorized self-join over a key bucket,
    no per-key Python.  A key held by more than ``cap`` docs keeps its
    ``cap`` LOWEST doc_ids (row order is a scheduling artifact, so a
    positional prefix would vary run to run), with a logged warning: pairs
    through the dropped docs are lost, and counts through that key
    undercount."""
    # join on a dense int key id: the pair rows never carry the key itself
    df = (df.sort(key, "doc_id")
          .with_columns(pl.col(key).rle_id().alias("kid"))
          .with_columns(pl.int_range(pl.len()).over("kid").alias("rk")))
    if df.height and int(df["rk"].max()) >= cap:
        worst = (df.group_by("kid").agg(pl.len().alias("n"))
                 .filter(pl.col("n") > cap))
        logger.warning(
            "pair cap: %d %s values exceed %d docs (largest %d); kept the "
            "lowest doc_ids, pairs truncated",
            worst.height, key, cap, int(worst["n"].max()))
        df = df.filter(pl.col("rk") < cap)

    def side(s: str) -> pl.DataFrame:
        return df.select("kid", pl.col("doc_id").alias(f"doc_{s}"),
                         *[pl.col(c).alias(f"{c}_{s}") for c in payload])

    return (side("a").join(side("b"), on="kid")
            .filter(pl.col("doc_a") < pl.col("doc_b")).drop("kid"))


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


_EXACT_SCHEMA = pa.schema([("content_hash", pa.string()),
                           ("rep_doc_id", pa.int64()),
                           ("n_copies", pa.int64())])


def exact_dup_groups(sf_dir: str) -> ray.data.Dataset:
    """(content_hash, rep_doc_id, n_copies) — keep-first exact dedup.

    Shuffle plan: one bucket exchange keyed by the md5 hex digest; every
    copy of a content lands in one bucket, so each reduce task's
    group-by (min doc_id, count) is exact.  Cached under
    ``/tmp/indri55_exactdup`` per corpus identity."""
    path = f"{sf_dir}/documents.parquet"
    n_kb = bucket_count(path)

    def hashed(df: pl.DataFrame) -> pl.DataFrame:
        return df.select(
            pl.Series("content_hash", [hashlib.md5(s.encode()).hexdigest()
                                       for s in df["text"].to_list()]),
            "doc_id",
        ).with_columns((pl.col("content_hash").hash(seed=0) % n_kb)
                       .cast(pl.Int32).alias("kb"))

    def groups(df: pl.DataFrame):
        out = df.group_by("content_hash").agg(
            pl.col("doc_id").min().alias("rep_doc_id"),
            pl.len().alias("n_copies"))
        return out, out.height

    spill = bucket_exchange(
        _docs(sf_dir), cache_root="/tmp/indri55_exactdup", source_path=path,
        version="v1", n_buckets=n_kb, bucket_col="kb", map_kernel=hashed,
        map_columns=("doc_id", "text"),
        reduce_columns=["content_hash", "doc_id"], reduce_kernel=groups,
        out_schema=_EXACT_SCHEMA, out_dirname="groups",
        out_prefix="groups-kb", empty_name="groups-")
    return read_exchange(spill, "groups", _EXACT_SCHEMA)


def dedup_keep_first(sf_dir: str) -> ray.data.Dataset:
    """doc_ids surviving exact dedup (min doc_id per content group)."""
    groups = exact_dup_groups(sf_dir)

    def pick(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("rep_doc_id")})

    return groups.map_batches(pick, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact-dup pre-collapse (shared by the pair-generating operators)
# ---------------------------------------------------------------------------


# The exact-dup pre-collapse is shared by every pair-generating operator
# (jaccard pairs → lsh pairs → clusters → keep-first chains each need it),
# so one full-corpus pass is SPILLED per corpus into a content-keyed
# directory (realpath + st_mtime_ns + size), which is also the cache; the
# driver holds only a DupGroups handle — path plus two counts — so driver
# memory stays FLAT regardless of duplication rate (a 100 TB web corpus
# routinely duplicates 30-50% of its docs).
_DUP_SPILL_VERSION = "v2"

# per-WORKER memo of loaded spill shards, keyed by spill dir (paths are
# content-keyed → immutable, so no invalidation is needed):
# (members frame [rep, members, n_tokens], sorted losers int64 array)
_DUP_SPILL_MEMO: dict[str, tuple[pl.DataFrame, np.ndarray]] = {}


class DupGroups(NamedTuple):
    """Handle to the exact-dup group spill.  ``path`` is a directory
    (``groups/*.parquet`` shards: rep int64, members list<int64> sorted,
    n_tokens int64 = rep token count; ``meta.json``: counts).  Workers
    memo-load it (:func:`_load_dup_spill`) — the filesystem is the
    broadcast medium, exactly like the build's filesystem-shuffled merge."""

    path: str
    n_groups: int
    n_losers: int


_GROUPS_SCHEMA = pa.schema([("rep", pa.int64()),
                            ("members", pa.list_(pa.int64())),
                            ("n_tokens", pa.int64())])


def _load_dup_spill(path: str) -> tuple[pl.DataFrame, np.ndarray]:
    """Worker-side memoized load of a group spill: the (rep, members,
    n_tokens) frame plus the sorted loser array (members minus reps).
    O(#dup docs) per WORKER — the broadcast-shard bound the pair expansion
    needs anyway; never driver-resident."""
    hit = _DUP_SPILL_MEMO.get(path)
    if hit is not None:
        return hit
    import pyarrow.dataset as pads

    mdf = pl.from_arrow(
        pads.dataset(f"{path}/groups", format="parquet").to_table(
            columns=["rep", "members", "n_tokens"]))
    losers = (
        mdf.select(pl.col("members").list.slice(1).alias("l"))
        .explode("l").drop_nulls()["l"].to_numpy().astype(np.int64)
    )
    losers.sort()
    if len(_DUP_SPILL_MEMO) > 4:
        _DUP_SPILL_MEMO.clear()
    _DUP_SPILL_MEMO[path] = (mdf, losers)
    return (mdf, losers)


def _dup_groups(sf_dir: str) -> DupGroups:
    """Content-identical groups with ≥2 members, as a :class:`DupGroups`
    spill handle.

    Shuffle plan: one bucket exchange (:func:`.exchange.bucket_exchange`,
    the shape of the index build's dedup phase) — map tasks key each doc
    by its md5 as TWO int64 lanes (exact 128-bit equality, no string
    column on disk) with its token count riding along, so eligibility
    needs no second corpus read; one reduce task per bucket groups
    EXACTLY (a hash's rows always share a bucket), writes its rep-sorted
    spill shard and returns the (n_groups, n_losers) tuple metric that
    ``meta.json`` sums.  The content-keyed cache dir is the cache:
    concurrent drivers share it, and a rerun reads one ``meta.json``."""
    path = f"{sf_dir}/documents.parquet"
    n_kb = bucket_count(path)

    def keyed(df: pl.DataFrame) -> pl.DataFrame:
        dig = b"".join(hashlib.md5(s.encode()).digest()
                       for s in df["text"].to_list())
        u = np.frombuffer(dig, dtype=">u8").reshape(-1, 2)
        return df.select(
            pl.Series("kb", (u[:, 0] % n_kb).astype(np.int32)),
            pl.Series("h_hi", u[:, 0].astype(np.int64)),
            pl.Series("h_lo", u[:, 1].astype(np.int64)),
            "doc_id",
            token_count_expr().cast(pl.Int64).alias("n_tokens"))

    def groups(df: pl.DataFrame):
        g = (df.group_by("h_hi", "h_lo")
             .agg(pl.col("doc_id").sort().alias("members"),
                  # identical content → identical count; keep the rep's
                  pl.col("n_tokens").sort_by("doc_id").first(),
                  pl.len().alias("cnt"))
             .filter(pl.col("cnt") >= 2))
        out = (g.with_columns(pl.col("members").list.first().alias("rep"))
               .sort("rep").select("rep", "members", "n_tokens"))
        return out, (g.height, int((g["cnt"] - 1).sum()))

    spill = bucket_exchange(
        _docs(sf_dir), cache_root="/tmp/indri55_dupgroups", source_path=path,
        version=_DUP_SPILL_VERSION, n_buckets=n_kb, bucket_col="kb",
        map_kernel=keyed, map_columns=("doc_id", "text"),
        reduce_columns=["h_hi", "h_lo", "doc_id", "n_tokens"],
        reduce_kernel=groups, out_schema=_GROUPS_SCHEMA,
        out_dirname="groups", out_prefix="groups-kb", empty_name="groups-",
        # a zero-doc corpus writes no parts: its total is the int 0
        meta_payload=lambda m: dict(zip(("n_groups", "n_losers"),
                                        m or (0, 0))))
    with open(f"{spill}/meta.json") as f:
        meta = json.load(f)
    return DupGroups(spill, meta["n_groups"], meta["n_losers"])


def _rep_docs(sf_dir: str, dg: DupGroups) -> ray.data.Dataset:
    """Representative document rows = all docs minus dup losers — a map-side
    filter against the worker-memoized loser array (no text shuffle)."""
    if dg.n_losers == 0:
        return _docs(sf_dir)
    spill = dg.path

    def drop_losers(batch: pa.Table) -> pa.Table:
        _, lose = _load_dup_spill(spill)
        if not len(lose):
            return batch
        ids = batch.column("doc_id").to_numpy()
        # vectorized membership against the sorted memoized array
        pos = np.minimum(np.searchsorted(lose, ids), len(lose) - 1)
        return batch.filter(pa.array(lose[pos] != ids))

    return _docs(sf_dir).map_batches(drop_losers, batch_format="pyarrow")


def _expand_rep_pairs(
    rep_pairs: ray.data.Dataset,
    dg: DupGroups,
    extra_cols: list[str],
) -> ray.data.Dataset:
    """Expand pairs over representatives to pairs over ALL group members —
    a map-side join against the worker-memoized (rep → members) spill shard
    (most reps are singletons and pass through unchanged; only pairs
    touching a multi-member group fan out).  Fully vectorized: a polars
    join, then a double explode for the per-pair cartesian product."""
    spill = dg.path

    def expand(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        m = _load_dup_spill(spill)[0].select(
            "rep", pl.col("members").alias("mem"))
        df = pl.from_arrow(batch)
        df = (
            df.join(m.rename({"rep": "doc_a", "mem": "ma"}), on="doc_a", how="left")
            .join(m.rename({"rep": "doc_b", "mem": "mb"}), on="doc_b", how="left")
            .with_columns(
                pl.when(pl.col("ma").is_null())
                .then(pl.concat_list(pl.col("doc_a")))
                .otherwise(pl.col("ma")).alias("ma"),
                pl.when(pl.col("mb").is_null())
                .then(pl.concat_list(pl.col("doc_b")))
                .otherwise(pl.col("mb")).alias("mb"),
            )
            .explode("ma")
            .explode("mb")
            .select(
                pl.min_horizontal("ma", "mb").alias("doc_a"),
                pl.max_horizontal("ma", "mb").alias("doc_b"),
                *[pl.col(c) for c in extra_cols],
            )
        )
        return df.to_arrow().cast(pa.schema(
            [("doc_a", pa.int64()), ("doc_b", pa.int64())]
            + [(c, pa.float64()) for c in extra_cols]))

    return rep_pairs.map_batches(expand, batch_format="pyarrow")


def _intra_group_pairs(
    dg: DupGroups,
    extra: dict[str, float],
    cap: int,
    min_tokens: int = NGRAM_N,
) -> ray.data.Dataset:
    """All within-group pairs for multi-member groups whose rep has at
    least ``min_tokens`` tokens (shingle-less docs never pair in the
    all-pairs oracle), tagged with constant ``extra`` columns (e.g.
    jaccard=1.0).  Streams the group SPILL as a Dataset — group rows never
    pass through the driver; capped at ``cap`` members per group."""
    empty = pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64()),
                      **{c: pa.array([], pa.float64()) for c in extra}})
    if dg.n_groups == 0:
        return ray.data.from_arrow(empty)

    def pairs(batch: pa.Table) -> pa.Table:
        out = [empty]
        df = pl.from_arrow(batch).filter(pl.col("n_tokens") >= min_tokens)
        for members in df["members"].to_list():
            ids = np.asarray(members, dtype=np.int64)
            n = len(ids)
            if n > cap:
                logger.warning(
                    "intra-group pair cap: content group of %d docs truncated to %d",
                    n, cap)
                ids, n = ids[:cap], cap
            ia, ib = np.triu_indices(n, k=1)
            out.append(pa.table({
                "doc_a": pa.array(ids[ia], pa.int64()),
                "doc_b": pa.array(ids[ib], pa.int64()),
                **{c: pa.array(np.full(len(ia), v), pa.float64())
                   for c, v in extra.items()},
            }))
        return pa.concat_tables(out)

    return ray.data.read_parquet(
        f"{dg.path}/groups",
        columns=["members", "n_tokens"],
    ).map_batches(pairs, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# shingles
# ---------------------------------------------------------------------------


def _doc_shingles(batch: pa.Table) -> pl.DataFrame:
    """(doc_id, shingle, n_shingles) distinct word n-grams per doc, with the
    doc's distinct-shingle count riding along (exact within a batch — shingle
    sets are per-doc, and batches never split docs)."""
    df = pl.from_arrow(batch).with_columns(tokens_expr().alias("toks"))
    ex = df.select("doc_id", "toks").explode("toks")
    # window shift within doc to build n-grams
    ex = ex.with_columns(
        *[
            pl.col("toks").shift(-i).over("doc_id").alias(f"t{i}")
            for i in range(1, NGRAM_N)
        ]
    )
    ex = ex.drop_nulls()
    ex = ex.with_columns(
        pl.concat_str(
            [pl.col("toks")] + [pl.col(f"t{i}") for i in range(1, NGRAM_N)],
            separator=" ",
        ).alias("shingle")
    )
    uniq = ex.select("doc_id", "shingle").unique()
    return uniq.with_columns(pl.len().over("doc_id").alias("n_shingles"))


# ---------------------------------------------------------------------------
# duplicated-span statistics (substring-level dedup measure)
# ---------------------------------------------------------------------------


# occurrence rows expanded to covered slots per fixed-size chunk in the
# span-removal clean pass — bounds that task's transient memory at
# chunk × n regardless of a batch's occurrence count (env-tunable for tests)
_SPAN_EXPAND_CHUNK = int(os.environ.get(
    "INDRI55_SPAN_EXPAND_CHUNK", str(8 << 20)))


_OCC_SPILL_VERSION = "v2"


def _dup_occ_spill(sf_dir: str, n: int) -> str:
    """Content-keyed spill of duplicated-n-gram OCCURRENCE rows — every
    (doc_id, pos) whose n-gram occurs in ≥ 2 DISTINCT documents (0-based
    token positions) — shared by :func:`dup_span_stats` (counts) and
    :func:`remove_dup_spans` (the transform).  Returns the directory;
    ``occ/*.parquet`` shards hold (doc_id, pos) sorted by doc_id with
    16k-row groups, so consumers' doc-range reads prune row groups.

    Shuffle plan — the shared FILESYSTEM bucket exchange
    (:func:`..exchange.bucket_exchange`), NOT ``Dataset.groupby``:

    * map (one task per corpus batch): n-gram occurrence rows
      (doc_id, pos, gram) sorted by the gram-hash bucket ``gb`` → one
      part file with gb-aligned row groups.  All occurrences of a gram
      land in one bucket (polars hash, deterministic within a cluster's
      polars version), so the dup filter below is exact;
    * reduce (one Ray task per gb bucket): ``read_bucket`` of the
      bucket's row groups, vectorized ≥2-distinct-docs semi-join, sort by
      (doc_id, pos), write ``occ/occ-gbXXXX.parquet``.  Per-task memory
      is one bucket (bytes-scaled bucket count via
      :func:`.exchange.bucket_count`), never the corpus.

    Ray's sort-based ``groupby`` over the same ~O(total tokens) rows
    costs the driver O(mappers × reducers) shuffle-lineage metadata —
    measured 2.7 GB driver RSS at the 10M-doc span soak (BASELINE §1g)
    — while this exchange's driver state is per-task COUNTS plus a
    spill path; the grouping itself also runs as ONE vectorized kernel
    per bucket instead of Ray's per-group dispatch.  A boilerplate gram
    present in most of a 100 TB corpus still concentrates its rows in
    one bucket — the bucket count scales only with corpus bytes
    (32 MB/bucket); splitting such grams with the
    exact-dup pre-collapse (``_rep_docs``) first, like
    ``ngram_jaccard_pairs``, remains the route for adversarial skew at
    the cost of re-expanding stats to group members — plain occurrences
    keep the SQL oracle exact."""
    path = f"{sf_dir}/documents.parquet"
    n_gb = bucket_count(path)

    _occ_schema = pa.schema([("doc_id", pa.int64()), ("pos", pa.int64())])

    def gram_occurrences(df: pl.DataFrame) -> pl.DataFrame:
        ex = (df.with_columns(tokens_expr().alias("toks"))
              .select("doc_id", "toks").explode("toks")
              .drop_nulls("toks"))
        ex = ex.with_columns(
            pl.int_range(pl.len()).over("doc_id").cast(pl.Int64)
            .alias("pos"))
        ex = ex.with_columns(
            *[pl.col("toks").shift(-i).over("doc_id").alias(f"t{i}")
              for i in range(1, n)])
        ex = ex.drop_nulls()  # trailing positions with no full gram
        ex = ex.with_columns(
            pl.concat_str(
                [pl.col("toks")] + [pl.col(f"t{i}") for i in range(1, n)],
                separator=" ",
            ).alias("gram"))
        return (ex.with_columns((pl.col("gram").hash(seed=0) % n_gb)
                                .cast(pl.Int32).alias("gb"))
                .select("doc_id", "pos", "gram", "gb"))

    def dup_filter(df: pl.DataFrame):
        keep = (df.group_by("gram")
                .agg(pl.col("doc_id").n_unique().alias("nd"))
                .filter(pl.col("nd") >= 2)
                .select("gram"))
        out = (df.join(keep, on="gram", how="semi")
               .select("doc_id", "pos").sort("doc_id", "pos"))
        return out, out.height

    spill = bucket_exchange(
        _docs(sf_dir),
        cache_root="/tmp/indri55_dupocc",
        source_path=path,
        version=f"{_OCC_SPILL_VERSION}-n{n}",
        n_buckets=n_gb, bucket_col="gb",
        map_kernel=gram_occurrences, map_columns=("doc_id", "text"),
        reduce_columns=["doc_id", "pos", "gram"], reduce_kernel=dup_filter,
        out_schema=_occ_schema, out_dirname="occ",
        out_prefix="occ-gb", empty_name="occ-",
        meta_payload=lambda rows: {"rows": rows, "n": n})
    return f"{spill}/occ"


def _occ_slice(occ_dir: str, lo: int, hi: int) -> pl.DataFrame:
    """Doc-range read of the occurrence spill: all (doc_id, pos) rows
    with ``lo ≤ doc_id ≤ hi`` (``stages.postings.read_range``: the shards
    are doc_id-sorted, so row groups outside the range are never decoded,
    and the per-worker footer index lets warm tasks skip the footer
    scan)."""
    from ..stages.postings import read_range

    return pl.from_arrow(read_range(occ_dir, "doc_id", lo, hi))


def dup_span_stats(sf_dir: str, n: int = NGRAM_N) -> ray.data.Dataset:
    """(doc_id, n_tokens, dup_positions, covered_tokens) per document —
    the substring-duplication measure behind span-level training-data
    dedup (Lee et al. 2021, "Deduplicating Training Data Makes Language
    Models Better"), at word-``n``-gram granularity:

    * ``dup_positions`` — n-gram start positions in this doc whose n-gram
      occurs in ≥ 2 DISTINCT documents (each position has exactly one
      n-gram, so positions are counted once);
    * ``covered_tokens`` — token indices covered by at least one such
      duplicated n-gram occurrence (union of the [pos, pos+n) intervals).

    Every document appears in the output (zero stats when nothing is
    duplicated or the doc has < n tokens).

    Shuffle plan: the shared :func:`_dup_occ_spill` filesystem exchange
    (the ONLY all-to-all — see its docstring for why it is not a
    ``Dataset.groupby``) → a map-only corpus pass: each batch range-prunes
    the doc-sorted occurrence shards to its own [min, max] doc ids and
    computes the per-doc interval union VECTORIZED (each sorted position
    contributes min(gap to next, n); the last contributes exactly n).
    A doc's occurrence rows all land in the one batch holding the doc, so
    no cross-batch merge step exists; per-task memory is one batch's
    docs' occurrence rows."""
    occ_dir = _dup_occ_spill(sf_dir, n)

    _stat_empty = pa.table({"doc_id": pa.array([], pa.int64()),
                            "n_tokens": pa.array([], pa.int64()),
                            "dup_positions": pa.array([], pa.int64()),
                            "covered_tokens": pa.array([], pa.int64())})

    def stats(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _stat_empty
        ids = batch.column("doc_id").to_numpy()
        occ = _occ_slice(occ_dir, int(ids.min()), int(ids.max()))
        cov = (occ.group_by("doc_id")
               .agg(pl.len().cast(pl.Int64).alias("dup_positions"),
                    pl.col("pos").sort().diff().shift(-1).fill_null(n)
                    .clip(upper_bound=n).sum().cast(pl.Int64)
                    .alias("covered_tokens")))
        out = (pl.from_arrow(batch)
               .select(pl.col("doc_id"),
                       token_count_expr().cast(pl.Int64).alias("n_tokens"))
               .join(cov, on="doc_id", how="left")
               .with_columns(pl.col("dup_positions").fill_null(0),
                             pl.col("covered_tokens").fill_null(0)))
        return out.select("doc_id", "n_tokens", "dup_positions",
                          "covered_tokens").to_arrow()

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow")


_SLOT_BITS = 40  # token-slot lane of a packed (local doc index, slot) key


def _pack_doc_slots(local_idx: np.ndarray, pos: np.ndarray,
                    n_docs: int) -> np.ndarray:
    """``local_idx << 40 | pos`` as int64: the doc lane has 23 bits, so a
    batch of ≥ 2^23 unique doc ids would wrap it — raise instead of
    silently merging two docs' slots."""
    if n_docs >= 1 << (63 - _SLOT_BITS):
        raise ValueError(
            f"remove_dup_spans: {n_docs} unique doc ids in one batch; the "
            f"packed slot key holds < 2^{63 - _SLOT_BITS}")
    return (local_idx.astype(np.int64) << _SLOT_BITS) + pos


def remove_dup_spans(sf_dir: str, n: int = NGRAM_N) -> ray.data.Dataset:
    """(doc_id, clean_text, n_removed) — the span-removal transform of
    Lee et al. 2021 at word-``n``-gram granularity: every token covered by
    a corpus-duplicated n-gram (one occurring in ≥ 2 distinct documents)
    is dropped; ``clean_text`` is the surviving tokens joined by single
    spaces (tokenizer-normalized output, like the reference's stopper —
    original whitespace is not preserved) and ``n_removed`` counts the
    dropped tokens.  Every document appears in the output.

    Shuffle plan: the shared :func:`_dup_occ_spill` filesystem exchange →
    a map-only corpus pass: each batch range-prunes the occurrence shards
    to its own doc ids, expands [pos, pos+n) to covered slots (packed
    (local-batch doc index << 40 | slot) int64s — the doc lane is the
    index into the batch's sorted unique ids, so arbitrarily sparse
    global doc ids are safe — uniqued in fixed ``_SPAN_EXPAND_CHUNK``
    chunks so task memory is bounded by CHUNK × n plus the deduped
    output, not by the range's occurrence count), anti-joins the batch's
    exploded tokens on (doc_id, slot) and reassembles the text.  On a
    sparse-id corpus the [min, max] range prune still overshoots (wider
    reads, same answers); contiguous-row batches keep it exact."""
    occ_dir = _dup_occ_spill(sf_dir, n)

    _clean_empty = pa.table({"doc_id": pa.array([], pa.int64()),
                             "clean_text": pa.array([], pa.string()),
                             "n_removed": pa.array([], pa.int64())})

    def clean(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _clean_empty
        ids = batch.column("doc_id").to_numpy()
        ids_u = np.unique(ids).astype(np.int64)
        lo, hi = int(ids_u[0]), int(ids_u[-1])
        occ = _occ_slice(occ_dir, lo, hi)
        base = np.array([], np.int64)
        if occ.height:
            dids = occ["doc_id"].to_numpy().astype(np.int64)
            pos = occ["pos"].to_numpy().astype(np.int64)
            # keep only this batch's docs (the [lo, hi] range prune can
            # overshoot on sparse doc ids) and pack by the doc's LOCAL
            # index, so the sparsity of the global id space never matters
            li = np.searchsorted(ids_u, dids)
            li[li == len(ids_u)] = 0
            keep = ids_u[li] == dids
            base = _pack_doc_slots(li[keep], pos[keep], len(ids_u))
        if len(base):
            chunk = _SPAN_EXPAND_CHUNK
            parts = [
                np.unique((base[s:s + chunk, None] + np.arange(n)).ravel())
                for s in range(0, len(base), chunk)
            ]
            uk = parts[0] if len(parts) == 1 else np.unique(
                np.concatenate(parts))
            cov = pl.DataFrame({
                "doc_id": ids_u[uk >> _SLOT_BITS],
                "slot": uk & ((1 << _SLOT_BITS) - 1),
            })
        else:
            cov = pl.DataFrame({"doc_id": np.array([], np.int64),
                                "slot": np.array([], np.int64)})
        ex = (pl.from_arrow(batch)
              .select("doc_id", tokens_expr().alias("toks"))
              .explode("toks").drop_nulls("toks")
              .with_columns(pl.int_range(pl.len()).over("doc_id")
                            .cast(pl.Int64).alias("slot")))
        kept = (ex.join(cov, on=["doc_id", "slot"], how="anti")
                .sort("doc_id", "slot")
                .group_by("doc_id", maintain_order=True)
                .agg(pl.col("toks").str.join(" ").alias("clean_text")))
        removed = cov.group_by("doc_id").agg(
            pl.len().cast(pl.Int64).alias("n_removed"))
        out = (pl.from_arrow(batch).select("doc_id")
               .join(kept, on="doc_id", how="left")
               .join(removed, on="doc_id", how="left")
               .with_columns(pl.col("clean_text").fill_null(""),
                             pl.col("n_removed").fill_null(0)))
        return out.to_arrow()

    return _docs(sf_dir).map_batches(clean, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# n-gram Jaccard near-dup
# ---------------------------------------------------------------------------


def ngram_jaccard_pairs(sf_dir: str, tau: float = 0.2) -> ray.data.Dataset:
    """(doc_a, doc_b, jaccard) for pairs with 3-gram Jaccard ≥ tau.  Exact.

    Shuffle plan: exact-dup pre-collapse → one
    :func:`.exchange.pair_exchange` over the representatives' shingle
    rows (per-doc shingle counts ride along, so the union term needs no
    size lookup): stage 1 emits co-occurrence pairs with one capped
    self-join per shingle-hash bucket, stage 2 counts each pair's shared
    shingles per pair-hash bucket and keeps Jaccard ≥ tau → member
    expansion (map-side join against the dup-group spill) + within-group
    pairs at jaccard 1.0.  The collapse bounds the per-shingle fan-out: a
    group of n identical docs costs one row, not O(n²) pairs; a shingle
    still shared by more than MAX_PAIR_GROUP docs (templated boilerplate
    across distinct docs) keeps its lowest doc_ids, with a logged
    warning."""
    dg = _dup_groups(sf_dir)
    path = f"{sf_dir}/documents.parquet"
    cap = MAX_PAIR_GROUP

    def jaccard(df: pl.DataFrame) -> pl.DataFrame:
        na, nb, inter = (df[c].to_numpy().astype(np.float64)
                         for c in ("n_a", "n_b", "inter"))
        j = np.round(inter / (na + nb - inter), 6)
        return (df.with_columns(pl.Series("jaccard", j))
                .filter(pl.col("jaccard") >= tau))

    rep_pairs = pair_exchange(
        _rep_docs(sf_dir, dg), cache_root="/tmp/indri55_pairs",
        source_path=path,
        version=f"jaccard-{_PAIRS_VERSION}-n{NGRAM_N}-tau{tau}-cap{cap}",
        n_buckets=bucket_count(path), key_col="shingle",
        map_kernel=lambda df: _doc_shingles(df.to_arrow()).rename(
            {"n_shingles": "n"}),
        map_columns=("doc_id", "text"),
        pair_kernel=lambda df: _self_join_pairs(df, "shingle", cap, ("n",)),
        pair_schema=_i64("doc_a", "doc_b", "n_a", "n_b"),
        aggs=[pl.len().alias("inter"), pl.col("n_a").max(),
              pl.col("n_b").max()],
        finish=jaccard,
        out_schema=_PAIR_SCHEMA.append(pa.field("jaccard", pa.float64())))
    if dg.n_groups == 0:  # no exact dups: reps == docs, nothing to expand
        return rep_pairs
    expanded = _expand_rep_pairs(rep_pairs, dg, ["jaccard"])
    # within-group pairs: identical docs share every shingle → jaccard 1.0,
    # but only for docs that HAVE shingles (≥ NGRAM_N tokens), matching the
    # all-pairs oracle which never sees shingle-less docs
    intra = _intra_group_pairs(dg, {"jaccard": 1.0}, cap)
    return expanded.union(intra) if 1.0 >= tau else expanded


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


# affine minhash permutations over a 32-bit md5 prefix: ONE md5 per unique
# shingle, then numpy (h*a + b) mod M for all perms at once.  Constants are
# sized so h(<2^32) * a(<2^30) + b stays under 2^62 — exact in both numpy
# int64 and DuckDB BIGINT, so the SQL oracle computes the identical value.
MINHASH_PRIME = (1 << 61) - 1
_mh_rng = np.random.default_rng(20260817)
MINHASH_A = _mh_rng.integers(1, 1 << 30, NUM_PERMS).astype(np.int64)
MINHASH_B = _mh_rng.integers(0, 1 << 30, NUM_PERMS).astype(np.int64)


def _minhash_wide(sh: pl.DataFrame) -> pl.DataFrame:
    """(doc_id, shingle) → wide (doc_id, h0..h{P-1}) int64 minhash signatures.

    md5 is computed once per UNIQUE shingle per batch (not per doc and not
    per permutation — the perms are affine maps of one 32-bit hash), then a
    vectorized polars join + group-min produces every doc's signature — no
    per-doc Python loops in the kernel."""
    if sh.height == 0:
        return pl.DataFrame({"doc_id": pl.Series([], dtype=pl.Int64),
                             **{f"h{p}": pl.Series([], dtype=pl.Int64)
                                for p in range(NUM_PERMS)}})
    uniq = sh["shingle"].unique().to_list()
    # first 4 md5 bytes big-endian == int(hexdigest[:8], 16), minus the
    # per-item hex/int round trip
    dig = b"".join(hashlib.md5(s.encode()).digest()[:4] for s in uniq)
    h32 = np.frombuffer(dig, dtype=">u4").astype(np.int64)
    M = (h32[:, None] * MINHASH_A[None, :] + MINHASH_B[None, :]) % MINHASH_PRIME
    hdf = pl.DataFrame({"shingle": uniq,
                        **{f"h{p}": M[:, p] for p in range(NUM_PERMS)}})
    j = sh.select("doc_id", "shingle").join(hdf, on="shingle")
    return j.group_by("doc_id").agg(
        [pl.col(f"h{p}").min() for p in range(NUM_PERMS)]
    )


def minhash_signatures(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, perm, minhash) — md5-permutation MinHash signatures."""

    def f(batch: pa.Table) -> pa.Table:
        wide = _minhash_wide(_doc_shingles(batch))
        long = wide.unpivot(index="doc_id", variable_name="perm", value_name="minhash")
        long = long.with_columns(
            pl.col("perm").str.strip_prefix("h").cast(pl.Int32)
        ).sort("doc_id", "perm")
        return long.to_arrow()

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


def _band_buckets(wide: pl.DataFrame) -> pl.DataFrame:
    """Wide signatures → (doc_id, bucket) band-bucket rows.

    A bucket is the band index + the band's minhash run joined with '|' —
    grouping is by EXACT signature equality (the SQL oracle joins on the
    identical string); the pair exchange hashes it only to pick a key
    bucket, and every member of a band bucket lands in the same one."""
    if wide.height == 0:
        return pl.DataFrame({"doc_id": pl.Series([], dtype=pl.Int64),
                             "bucket": pl.Series([], dtype=pl.String)})
    rows_per_band = NUM_PERMS // LSH_BANDS
    parts = []
    for band in range(LSH_BANDS):
        chunk = [f"h{p}" for p in range(band * rows_per_band, (band + 1) * rows_per_band)]
        parts.append(wide.select(
            "doc_id",
            pl.concat_str([pl.lit(str(band))]
                          + [pl.col(c).cast(pl.String) for c in chunk],
                          separator="|").alias("bucket"),
        ))
    return pl.concat(parts)


def lsh_candidate_pairs(sf_dir: str) -> ray.data.Dataset:
    """(doc_a, doc_b) candidate near-dup pairs from banded MinHash buckets.

    Band key = the band index and its minhashes; pairs sharing any
    bucket, deduplicated.  Runs over exact-dup representatives (identical
    content → identical signature → the group would otherwise put all n
    copies in one bucket and cost O(n²) in a single reducer), then
    expands back to members — identical docs are trivially candidates of
    each other and of everything their rep pairs with, so the result
    equals the all-docs oracle.

    Shuffle plan: one :func:`.exchange.pair_exchange` — stage 1 emits
    each band bucket's pairs with one capped self-join per bucket-hash
    bucket (a band bucket of more than MAX_PAIR_GROUP distinct docs keeps
    its lowest doc_ids, with a logged warning), stage 2 dedups pairs that
    shared several buckets per pair-hash bucket."""
    dg = _dup_groups(sf_dir)
    path = f"{sf_dir}/documents.parquet"
    cap = MAX_PAIR_GROUP
    rep_pairs = pair_exchange(
        _rep_docs(sf_dir, dg), cache_root="/tmp/indri55_pairs",
        source_path=path,
        version=(f"lsh-{_PAIRS_VERSION}-n{NGRAM_N}-p{NUM_PERMS}"
                 f"-b{LSH_BANDS}-cap{cap}"),
        n_buckets=bucket_count(path), key_col="bucket",
        map_kernel=lambda df: _band_buckets(
            _minhash_wide(_doc_shingles(df.to_arrow()))),
        map_columns=("doc_id", "text"),
        pair_kernel=lambda df: _self_join_pairs(df, "bucket", cap),
        pair_schema=_PAIR_SCHEMA, aggs=[], out_schema=_PAIR_SCHEMA)
    if dg.n_groups == 0:  # no exact dups: candidate set is final and unique
        return rep_pairs
    expanded = _expand_rep_pairs(rep_pairs, dg, [])
    # within-group candidates: any group with ≥2 members whose rep produces
    # band buckets (i.e. has ≥1 shingle → ≥ NGRAM_N tokens)
    intra = _intra_group_pairs(dg, {}, cap)
    # no final dedup shuffle needed: rep pairs were already unique, the
    # member expansion maps them injectively, and intra pairs (same content
    # group) are disjoint from expanded pairs (different content groups)
    return expanded.union(intra)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

SIMHASH_BITS = 60  # 15 hex digits → reproducible as a DuckDB BIGINT cast


def simhash_fingerprints(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, simhash) 60-bit SimHash over tf-weighted md5 token hashes.

    Kernel shape: md5 once per unique token per batch, then one vectorized
    bit-matrix × tf accumulation per doc (no per-token Python in the doc
    loop)."""

    def f(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(tokens_expr().alias("toks"))
        ex = (
            df.select("doc_id", "toks")
            .explode("toks")
            .drop_nulls()  # zero-token docs explode to a null row
            .group_by(["doc_id", "toks"])
            .agg(pl.len().alias("tf"))
            .sort("doc_id")
        )
        if ex.height == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "simhash": pa.array([], pa.int64())})
        uniq = ex["toks"].unique().to_list()
        hv = np.array(
            [int(hashlib.md5(t.encode()).hexdigest()[:15], 16) for t in uniq],
            dtype=np.int64,
        )
        # unique-token bit matrix: (n_uniq, BITS) of ±1
        bits = ((hv[:, None] >> np.arange(SIMHASH_BITS)[None, :]) & 1)
        signs = np.where(bits == 1, 1, -1).astype(np.int64)
        tok_idx = {t: i for i, t in enumerate(uniq)}
        rows_idx = np.fromiter((tok_idx[t] for t in ex["toks"].to_list()),
                               dtype=np.int64, count=ex.height)
        tfs = ex["tf"].to_numpy().astype(np.int64)
        doc_ids = ex["doc_id"].to_numpy()
        # per-doc segment reduce: ex is doc-sorted
        change = np.nonzero(np.diff(doc_ids))[0] + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(doc_ids)]))
        weighted = signs[rows_idx] * tfs[:, None]          # (n_rows, BITS)
        acc = np.add.reduceat(weighted, starts, axis=0)     # (n_docs, BITS)
        fp = ((acc > 0).astype(np.int64) << np.arange(SIMHASH_BITS)[None, :]).sum(axis=1)
        return pa.table({
            "doc_id": pa.array(doc_ids[starts], pa.int64()),
            "simhash": pa.array(fp, pa.int64()),
        })

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Near-dup clustering (the step after candidate verification)
# ---------------------------------------------------------------------------


# edge-count bound for the driver union-find; past it, components run
# distributed (functions/components.py).  At web-scale duplication rates
# the verified edge list is O(corpus), so the driver path must be gated.
_CC_DRIVER_EDGES = int(os.environ.get("INDRI55_CC_DRIVER_EDGES", "2000000"))


def _components_assign(
    pt: "pa.Table | ray.data.Dataset | None",
    a_col: str,
    b_col: str,
    ids_ds: ray.data.Dataset,
    id_col: str,
) -> ray.data.Dataset:
    """Connected components over an edge table → ``(id_col, cluster_rep)``
    for every row of ``ids_ds`` (rep = component min; rows in no edge are
    singletons, rep = self).

    Routing: the edge list is the OUTPUT of candidate verification —
    usually orders of magnitude smaller than the corpus — so up to
    ``INDRI55_CC_DRIVER_EDGES`` edges, union-find runs on the collected
    pairs at the driver and the per-row assignment is a broadcast
    searchsorted inside ``map_batches``.  PAST the bound (web-scale
    duplication makes #edges O(corpus)), the edge tables stay in the
    object store and components run as the bucketed filesystem exchange
    in :mod:`.components` (hash-to-min label propagation, range-sharded
    label output, range-pruned assignment) — the driver then holds only
    counts and a spill path."""
    if isinstance(pt, ray.data.Dataset):
        mat = pt.materialize()
        if mat.count() > _CC_DRIVER_EDGES:
            from .components import assign_from_labels_dir, connected_components_dist

            final_dir, _ = connected_components_dist(
                mat.to_arrow_refs(), a_col, b_col)
            return assign_from_labels_dir(final_dir, ids_ds, id_col)
        tables = [t for t in (ray.get(r) for r in mat.to_arrow_refs())
                  if t.num_rows]
        pt = pa.concat_tables(tables) if tables else None
    elif pt is not None and pt.num_rows > _CC_DRIVER_EDGES:
        from .components import assign_from_labels_dir, connected_components_dist

        final_dir, _ = connected_components_dist([ray.put(pt)], a_col, b_col)
        return assign_from_labels_dir(final_dir, ids_ds, id_col)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = r, parent[x]
        return r

    if pt is not None and pt.num_rows:
        for a, b in zip(pt.column(a_col).to_pylist(),
                        pt.column(b_col).to_pylist()):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                # union by smaller id → rep is the component min
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo
    rep_map = {x: find(x) for x in list(parent)}
    # broadcast as sorted parallel arrays: assignment per batch is a
    # vectorized searchsorted, not a per-row dict loop over the corpus
    keys = np.array(sorted(rep_map), dtype=np.int64)
    vals = np.array([rep_map[k] for k in keys.tolist()], dtype=np.int64)
    rep_ref = ray.put((keys, vals))

    def assign(batch: pa.Table) -> pa.Table:
        keys_, vals_ = ray.get(rep_ref)
        ids = batch.column(id_col).to_numpy()
        reps = ids.astype(np.int64, copy=True)
        if len(keys_) and len(ids):
            pos = np.searchsorted(keys_, ids)
            pos_c = np.minimum(pos, len(keys_) - 1)
            hit = keys_[pos_c] == ids
            reps[hit] = vals_[pos_c[hit]]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "cluster_rep": pa.array(reps, pa.int64())})

    return ids_ds.map_batches(assign, batch_format="pyarrow")


def _keep_reps(clusters: ray.data.Dataset, id_col: str) -> ray.data.Dataset:
    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        reps = batch.column("cluster_rep").to_numpy()
        return pa.table({id_col: pa.array(ids[ids == reps], pa.int64())})

    return clusters.map_batches(keep, batch_format="pyarrow")


def near_dup_clusters(sf_dir: str, tau: float = 0.5) -> ray.data.Dataset:
    """(doc_id, cluster_rep) connected components over verified near-dup
    pairs (3-gram Jaccard ≥ tau); cluster_rep = min doc_id in the component.
    Docs in no pair form singleton clusters (rep = self)."""
    pairs = ngram_jaccard_pairs(sf_dir, tau=tau)
    ids = read_spread(f"{sf_dir}/documents.parquet",
                      columns=["doc_id"])  # assignment needs no text
    return _components_assign(pairs, "doc_a", "doc_b", ids, "doc_id")


def near_dedup_keep_first(sf_dir: str, tau: float = 0.5) -> ray.data.Dataset:
    """(doc_id) keep one representative (min doc_id) per near-dup cluster —
    the full dedup pipeline's final filter.  Identical docs collapse at
    jaccard 1.0 so this subsumes ``dedup_keep_first`` for docs with at
    least NGRAM_N tokens; SHORTER identical docs have no shingles and stay
    singletons here — compose with exact dedup when those matter."""
    return _keep_reps(near_dup_clusters(sf_dir, tau=tau), "doc_id")


def embedding_dup_clusters(sf_dir: str, tau: float = 0.4,
                           method: str = "exact") -> ray.data.Dataset:
    """(vec_id, cluster_rep) embedding-cosine near-dup clusters: connected
    components over cosine ≥ tau pairs, rep = component min; vectors
    in no pair are singletons (rep = self).

    ``method`` picks the edge generator; BOTH feed the same
    components/assignment stages, which scale with the EDGE count:

    - ``"exact"`` (default, the oracle-checked entry):
      ``simsearch.cosine_pairs`` — block-pair exact, O(N²) compute by
      design (each task holds two normalized blocks; nothing materializes
      the full matrix).
    - ``"lsh"`` (the 100 TB route): ``simsearch.embedding_lsh_pairs`` —
      banded hyperplane buckets, exact-cosine verified in-bucket, so every
      edge is TRUE and the approximation is edge RECALL only (a missed
      edge can split a cluster, never merge two; measured recall/precision
      in tests + bench).  Sub-quadratic: pair work is per-bucket; the
      exchange replicates each vector n_tables times (8× by default —
      banding's price for in-bucket verification), never all-pairs."""
    from .simsearch import cosine_pairs, embedding_lsh_pairs

    if method == "lsh":
        pt = embedding_lsh_pairs(sf_dir, tau=tau)
    elif method == "exact":
        pt = cosine_pairs(sf_dir, tau=tau)
    else:
        raise ValueError(f"unknown method {method!r} (exact|lsh)")
    ids = read_spread(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])
    return _components_assign(pt, "vec_id_a", "vec_id_b", ids, "vec_id")


def embedding_dedup_keep_first(sf_dir: str, tau: float = 0.4,
                               method: str = "exact") -> ray.data.Dataset:
    """(vec_id) one representative (min vec_id) per embedding-cosine
    near-dup cluster — the embedding-space analogue of
    ``near_dedup_keep_first``.  ``method`` as in
    :func:`embedding_dup_clusters` (``"lsh"`` = the sub-quadratic route)."""
    return _keep_reps(embedding_dup_clusters(sf_dir, tau=tau, method=method),
                      "vec_id")


def fingerprint_dup_pairs(sf_dir: str, min_shared: int = 2) -> ray.data.Dataset:
    """(doc_a, doc_b, n_shared) — document pairs sharing ≥ ``min_shared``
    distinct winnowing fingerprints: span-level overlap detection (the
    MOSS scheme, Schleimer/Wilkerson/Aiken SIGMOD'03 §4).  A shared
    fingerprint witnesses a shared token run of length ≥ FP_K + FP_W - 1,
    so this surfaces partial plagiarism/boilerplate overlap that whole-doc
    Jaccard misses and exact dedup never sees.

    Shuffle plan: the per-batch winnowing pass (:func:`~indri_5_5_ray.
    functions.textstats.doc_fingerprints`, no shuffle) → one
    :func:`.exchange.pair_exchange`: stage 1 emits co-occurrence pairs
    with one capped self-join per fp-hash bucket, stage 2 counts shared
    fingerprints per pair-hash bucket and keeps ≥ ``min_shared`` — both
    stages move key and pair rows, never documents.  A hot boilerplate
    fingerprint keeps its MAX_PAIR_GROUP lowest doc_ids with a logged
    warning; past the cap, pairs are DROPPED and surviving pairs'
    n_shared undercounts fps routed through truncated keys, so a corpus
    that trips the warning diverges from the exact SQL oracle (raise
    INDRI55_MAX_PAIR_GROUP for exactness there)."""
    from .textstats import doc_fingerprints

    path = f"{sf_dir}/documents.parquet"
    cap = MAX_PAIR_GROUP
    return pair_exchange(
        doc_fingerprints(sf_dir), cache_root="/tmp/indri55_pairs",
        source_path=path,
        version=f"fp-{_PAIRS_VERSION}-min{min_shared}-cap{cap}",
        n_buckets=bucket_count(path), key_col="fp",
        map_kernel=lambda df: df, map_columns=("doc_id", "fp"),
        pair_kernel=lambda df: _self_join_pairs(df, "fp", cap),
        pair_schema=_PAIR_SCHEMA, aggs=[pl.len().alias("n_shared")],
        finish=lambda df: df.filter(pl.col("n_shared") >= min_shared),
        out_schema=_i64("doc_a", "doc_b", "n_shared"))
