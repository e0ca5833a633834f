"""Text analysis operators over the ``documents`` table.

Every operator is a Ray Data pipeline shaped for scale: tokenization and
per-batch partial aggregation inside ``map_batches`` (vectorized via polars),
then, for corpus-keyed statistics, a reduce over the filesystem
:func:`.exchange.bucket_exchange` — the classic partial+final pattern the
reference uses for term statistics (``termdata_merge``,
ref:include/indri/TermData.hpp:126-140).

The simple tokenizer here is ``[a-z0-9]+`` over lowercased text so every
operator has an exact DuckDB SQL oracle; the full Indri tokenizer chain is
exercised by the index pipelines (see pipelines/build.py).
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import ray.data
from ray.data.aggregate import Sum

TOKEN_RE = r"[a-z0-9]+"


def tokens_expr() -> pl.Expr:
    """``lower(text)`` tokenized by TOKEN_RE — matches the DuckDB oracles'
    ``regexp_extract_all(lower(text), '[a-z0-9]+')`` on any input (not just
    the all-lowercase testdata)."""
    return pl.col("text").str.to_lowercase().str.extract_all(TOKEN_RE)


def token_count_expr() -> pl.Expr:
    """Token COUNT without materializing the token lists —
    ``count_matches`` equals ``extract_all(...).list.len()`` by definition
    and skips the per-token allocation (used where only the count is
    needed, e.g. the dedup pre-collapse eligibility check)."""
    return pl.col("text").str.to_lowercase().str.count_matches(TOKEN_RE)

# small marker-word sets for the language-ID heuristic (argmax of hits,
# alphabetical language order tie-break, 'und' if no hits)
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "de": ("der", "die", "das", "und", "nicht", "ist", "ein", "mit"),
    "en": ("the", "and", "of", "to", "is", "in", "that", "it"),
    "es": ("el", "la", "de", "que", "y", "en", "un", "es"),
    "fr": ("le", "la", "de", "et", "un", "est", "que", "pour"),
}


def _stripped_schema(path: str, columns: list[str] | None):
    """File schema with metadata REMOVED, pruned to ``columns``.

    pandas-written parquet carries a ``b'pandas'`` schema-metadata blob; a
    pyarrow schema with ANY metadata is unhashable (``hash(schema)`` hashes
    the metadata dict), so every Ray operator that dedups block schemas
    (the read's SplitBlocks, repartition/groupby/sort reduce tasks) logs
    'Failed to hash the schemas' and loses the dedup.  Passing a stripped
    schema to ``read_parquet`` fixes it at the source — blocks are born
    metadata-free.  Returns None when the footer can't be read (directory
    inputs): the caller then reads without an explicit schema."""
    import pyarrow.parquet as pq

    try:
        full = pq.read_schema(path).remove_metadata()
    except (OSError, IOError, pa.ArrowInvalid):
        return None
    if columns is None:
        return full
    return pa.schema([full.field(c) for c in columns])


def read_spread(path: str, columns: list[str]) -> ray.data.Dataset:
    """Parquet read that never strands the cluster on block granularity:
    Ray can't split INSIDE a row group, so a table written as one (or few)
    row groups reads as one block and every downstream kernel runs
    serially.  Small inputs (< 64 MB — the repartition cost is bounded by
    that) are spread; large corpora already arrive as many blocks and
    stream unchanged.  Blocks carry a metadata-stripped schema (see
    _stripped_schema) so every downstream shuffle keeps hashable,
    dedupable block schemas.

    Width is BYTES-based (~512 KB compressed per block, floor 8, cap
    2×CPUs), not cluster width: over-spreading a tiny file multiplies
    every downstream shuffle's task count — on a 2 MB events table, 64
    blocks made the 5-operator event family 2.4× slower than 16."""
    import os

    import ray as _ray

    ds = ray.data.read_parquet(path, columns=columns,
                               schema=_stripped_schema(path, columns))
    try:
        size = os.path.getsize(path)
    except OSError:
        return ds
    if size < (64 << 20):
        cpus = int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
        # floor of min(2×CPUs, 16): byte-small inputs can still be
        # compute-heavy per byte (media synthesis, per-doc md5), so keep a
        # modest parallel floor; above it, width tracks bytes so tiny
        # tables stop multiplying downstream shuffle task counts
        n = min(2 * cpus, max(16, int(size // (512 << 10))))
        ds = ds.repartition(n)
    return ds


def _docs(sf_dir: str) -> ray.data.Dataset:
    return read_spread(f"{sf_dir}/documents.parquet", ["doc_id", "text"])


def token_counts(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, n_tokens) — whitespace/regex token counting."""

    def f(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = df.select(
            pl.col("doc_id"),
            tokens_expr().list.len().cast(pl.Int64).alias("n_tokens"),
        )
        return out.to_arrow()

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


def term_stats(sf_dir: str) -> ray.data.Dataset:
    """(term, cf, df) global term statistics — :func:`ngram_counts`'
    exchange at n = 1 with no pruning."""
    return _gram_stats(sf_dir, 1, 1, "term")


_NGRAM_VERSION = "v2"


def ngram_counts(sf_dir: str, n: int = 2,
                 min_count: int = 3) -> ray.data.Dataset:
    """(gram, cf, df) global word n-gram statistics with min-count pruning
    — the corpus-LM / contamination-screen building block (space-joined
    grams, cf = occurrences, df = documents, pruned to cf ≥ min_count).

    Shuffle plan: per-batch PARTIAL counts collapse the gram space
    map-side (a batch's repeated grams cost one row), then the shared
    FILESYSTEM bucket exchange (:func:`..exchange.bucket_exchange`):
    one reduce task per gram-hash bucket sums and applies the min-count
    prune INSIDE the reduce (strictly after that gram's global sum — a
    gram's rows always land in one bucket — so results stay exact).  A
    ``Dataset.groupby`` here costs the driver O(mappers × reducers)
    shuffle-lineage metadata — measured 4.7 GB driver RSS at a 10M-doc /
    ~70M-distinct-gram soak vs FLAT with the exchange (BASELINE r5) —
    while the exchange's driver state is per-task counts plus a spill
    path.  The gram construction is one vectorized shift-over-doc per
    extra gram position, never a Python loop over tokens.

    The pruned survivors are WRITTEN by the reducers into a content-keyed
    cached directory (``/tmp/indri55_ngrams``, keyed by corpus identity +
    n + min_count) and returned as ``read_parquet`` over it: the result
    Dataset depends only on durable files — Ray lineage reconstruction of
    a lost block re-reads them (returning reduce OUTPUT object refs and
    deleting the exchange would instead re-run the reduce against a
    deleted directory) — the intermediate exchange is deleted once the
    survivors are on disk, and a rerun with unchanged inputs is free."""
    if n < 2:
        raise ValueError("use term_stats for unigrams")
    return _gram_stats(sf_dir, n, min_count, "gram")


def _gram_stats(sf_dir: str, n: int, min_count: int,
                col: str) -> ray.data.Dataset:
    """The (``col``, cf, df) exchange behind :func:`ngram_counts` and
    :func:`term_stats` (n = 1, where a gram is a term).  The exchange
    names the gram column itself, so an empty result keeps it."""
    from .exchange import bucket_count, bucket_exchange, read_exchange

    path = f"{sf_dir}/documents.parquet"
    n_gb = bucket_count(path)
    schema = pa.schema([(col, pa.string()), ("cf", pa.int64()),
                        ("df", pa.int64())])

    def grams_of(df: pl.DataFrame) -> pl.DataFrame:
        ex = (df.with_columns(tokens_expr().alias("toks"))
              .select("doc_id", "toks").explode("toks")
              .drop_nulls().rename({"toks": "t0"}))
        ex = ex.with_columns([
            pl.col("t0").shift(-i).over("doc_id").alias(f"t{i}")
            for i in range(1, n)
        ]).drop_nulls()  # trailing positions with no full gram
        ex = ex.with_columns(
            pl.concat_str([pl.col(f"t{i}") for i in range(n)],
                          separator=" ").alias(col))
        cf = ex.group_by(col).agg(pl.len().alias("cf"))
        dfc = (ex.unique(["doc_id", col])
               .group_by(col).agg(pl.len().alias("df")))
        return (cf.join(dfc, on=col)
                .with_columns((pl.col(col).hash(seed=0) % n_gb)
                              .cast(pl.Int32).alias("gb")))

    def sum_prune(df: pl.DataFrame):
        out = (df.group_by(col)
               .agg(pl.col("cf").sum(), pl.col("df").sum())
               .filter(pl.col("cf") >= min_count)
               .cast({"cf": pl.Int64, "df": pl.Int64}))
        return out, out.height

    final = bucket_exchange(
        _docs(sf_dir),
        cache_root="/tmp/indri55_ngrams",
        source_path=path,
        version=f"{_NGRAM_VERSION}-n{n}-mc{min_count}",
        n_buckets=n_gb, bucket_col="gb",
        map_kernel=grams_of, map_columns=("doc_id", "text"),
        reduce_columns=schema.names, reduce_kernel=sum_prune,
        out_schema=schema, out_dirname="grams",
        out_prefix="grams-b", out_row_group=65536, empty_name="grams-")
    return read_exchange(final, "grams", schema)


def top_terms(sf_dir: str, n: int = 20) -> ray.data.Dataset:
    """Top-n terms by cf (tie → term ascending): each block of
    :func:`term_stats` keeps its own top n, and the driver merges the
    survivors (at most blocks × n rows) — no global sort."""

    def top(df: pl.DataFrame) -> pl.DataFrame:
        return df.sort(["cf", "term"], descending=[True, False]).head(n)

    block_top = ray.remote(lambda t: top(pl.from_arrow(t)))
    merged = pl.concat(ray.get([block_top.remote(t) for t in
                                term_stats(sf_dir).to_arrow_refs()]))
    return ray.data.from_arrow(top(merged).to_arrow())


def quality_scores(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, n_tokens, n_distinct, distinct_ratio) quality heuristics.

    distinct_ratio = distinct/total tokens rounded to 6 decimals (rounded the
    same way in the SQL oracle)."""

    def f(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(
            tokens_expr().alias("toks")
        )
        out = df.select(
            pl.col("doc_id"),
            pl.col("toks").list.len().cast(pl.Int64).alias("n_tokens"),
            pl.col("toks").list.n_unique().cast(pl.Int64).alias("n_distinct"),
        ).with_columns(
            pl.when(pl.col("n_tokens") == 0)
            .then(0.0)
            .otherwise((pl.col("n_distinct") / pl.col("n_tokens")).round(6))
            .alias("distinct_ratio")
        )
        return out.to_arrow()

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


def line_stats(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, n_lines, n_unique_lines, dup_line_frac) — within-document
    line repetition, the boilerplate/template signal behind the Gopher
    repetition rules (Rae et al. 2021 §A1.1).  Pure map; the fraction is
    rounded to 6 decimals the same way in the SQL oracle."""

    def f(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(
            pl.col("text").str.split("\n").alias("ls"))
        out = df.select(
            pl.col("doc_id"),
            pl.col("ls").list.len().cast(pl.Int64).alias("n_lines"),
            pl.col("ls").list.n_unique().cast(pl.Int64).alias("n_unique_lines"),
        ).with_columns(
            ((pl.col("n_lines") - pl.col("n_unique_lines"))
             / pl.col("n_lines")).round(6).alias("dup_line_frac"))
        return out.to_arrow()

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


def gopher_filter(sf_dir: str, min_tokens: int = 50, max_tokens: int = 100_000,
                  min_mean: float = 3.0, max_mean: float = 10.0,
                  max_dup_line_frac: float = 0.3) -> ray.data.Dataset:
    """Gopher-style composite quality filter: docs passing token-count
    bounds, mean-token-length bounds, and a duplicate-line-fraction cap
    (Rae et al. 2021 §A1.1), with the metrics that justified the decision.

    Map-only (each batch filters independently); thresholds are applied to
    the UNROUNDED ratios on both the Ray and SQL sides, so boundary
    decisions agree bit-for-bit."""

    def f(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(
            tokens_expr().alias("toks"),
            pl.col("text").str.split("\n").alias("ls"))
        m = df.select(
            "doc_id",
            pl.col("toks").list.len().cast(pl.Int64).alias("n_tokens"),
            pl.col("toks").list.eval(pl.element().str.len_chars())
              .list.sum().cast(pl.Int64).alias("sum_len"),
            pl.col("ls").list.len().cast(pl.Int64).alias("n_lines"),
            pl.col("ls").list.n_unique().cast(pl.Int64).alias("n_uniq"),
        ).filter(pl.col("n_tokens") > 0).with_columns(
            (pl.col("sum_len") / pl.col("n_tokens")).alias("_mean"),
            ((pl.col("n_lines") - pl.col("n_uniq"))
             / pl.col("n_lines")).alias("_dupf"),
        ).filter(
            (pl.col("n_tokens") >= min_tokens)
            & (pl.col("n_tokens") <= max_tokens)
            & (pl.col("_mean") >= min_mean) & (pl.col("_mean") <= max_mean)
            & (pl.col("_dupf") < max_dup_line_frac))
        out = m.select(
            "doc_id", "n_tokens",
            pl.col("_mean").round(6).alias("mean_tok_len"),
            pl.col("_dupf").round(6).alias("dup_line_frac"))
        return out.to_arrow()

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


def repetition_stats(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, top_bigram_frac) — fraction of the document's tokens
    covered by its single most frequent adjacent-token bigram
    (2 · max bigram count / n_tokens, rounded to 6), the Gopher top-n-gram
    repetition signal (Rae et al. 2021 §A1.1 "fraction of characters in
    most common n-gram"; token-fraction variant).  Docs with fewer than 2
    tokens score 0.

    Map-only: one vectorized polars pass per batch (aligned list slices
    exploded to bigram rows, per-doc group count + max) — no shuffle, so
    the operator streams at any corpus size."""

    def f(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(tokens_expr().alias("t"))
        base = df.select(
            "doc_id",
            pl.col("t").list.len().cast(pl.Int64).alias("n"), "t")
        pairs = (
            base.filter(pl.col("n") >= 2)
            .with_columns(
                pl.col("t").list.slice(0, pl.col("n") - 1).alias("a"),
                pl.col("t").list.slice(1).alias("b"))
            .select("doc_id", "a", "b")
            .explode(["a", "b"])
            .group_by("doc_id", "a", "b").agg(pl.len().alias("c"))
            .group_by("doc_id").agg(pl.col("c").max().alias("m"))
        )
        out = (
            base.join(pairs, on="doc_id", how="left")
            .select(
                "doc_id",
                pl.when(pl.col("m").is_null())
                .then(0.0)
                .otherwise((2.0 * pl.col("m") / pl.col("n")).round(6))
                .alias("top_bigram_frac"))
        )
        return out.to_arrow()

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


def lang_id(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, pred_lang) marker-word language-ID heuristic.

    Argmax of marker hits over LANG_MARKERS; ties resolved by alphabetical
    language order; 0 hits → 'und'."""
    langs = sorted(LANG_MARKERS)

    def f(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(
            tokens_expr().alias("toks")
        )
        counts = [
            pl.col("toks")
            .list.eval(pl.element().is_in(list(LANG_MARKERS[lg])))
            .list.sum()
            .alias(f"c_{lg}")
            for lg in langs
        ]
        df = df.with_columns(counts)
        best = pl.max_horizontal([pl.col(f"c_{lg}") for lg in langs])
        pred = pl.when(best <= 0).then(pl.lit("und"))
        for lg in langs:  # alphabetical order → first max wins
            pred = pred.when(pl.col(f"c_{lg}") == best).then(pl.lit(lg))
        out = df.select(pl.col("doc_id"), pred.otherwise(pl.lit("und")).alias("pred_lang"))
        return out.to_arrow()

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


def lang_table_stats(sf_dir: str) -> ray.data.Dataset:
    """(lang, n_docs, total_chars) relational aggregate over documents."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )
    from ray.data.aggregate import Count

    return ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"), Sum("n_chars", alias_name="total_chars")
    )


# ---------------------------------------------------------------------------
# BPE-ish token counting + winnowing fingerprints
# ---------------------------------------------------------------------------

# GPT-2-style pretokenizer, simplified to the lookahead-free subset both the
# Rust regex engine (polars) and RE2 (DuckDB) implement identically: a letter
# run, digit run, or punctuation run, each optionally absorbing one leading
# space; residual whitespace runs count as one token.  Applied to
# ``lower(text)`` like every other textstats oracle.
BPE_RE = r" ?[a-z]+| ?[0-9]+| ?[^a-z0-9 \t\n\r]+|[ \t\n\r]+"


def token_counts_bpe(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, n_tokens_bpe) — BPE-ish regex pretokenizer counts.

    The count approximates the LLM-token cost of a document (the
    length-budget signal a training-data pipeline filters on) without a
    vocabulary; exact parity with the DuckDB oracle's
    ``regexp_extract_all(lower(text), BPE_RE)``."""

    def f(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = df.select(
            pl.col("doc_id"),
            pl.col("text").str.to_lowercase()
            .str.count_matches(BPE_RE)
            .cast(pl.Int64)
            .alias("n_tokens_bpe"),
        )
        return out.to_arrow()

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


FP_K = 3  # k-gram size (shared with the dedup shingles)
FP_W = 4  # winnowing window (Schleimer et al., SIGMOD'03)


def doc_fingerprints(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, fp) distinct winnowing fingerprints per document.

    Document fingerprinting via winnowing (Schleimer/Wilkerson/Aiken,
    SIGMOD'03): hash every token k-gram (md5, so the DuckDB oracle is exact),
    slide a window of ``FP_W`` consecutive k-gram hashes, and keep each
    window's minimum; the distinct minima are the document's fingerprints.
    Guarantees any shared token run of length ≥ k + w - 1 produces a shared
    fingerprint — the scale path for partial-overlap (plagiarism-style)
    detection, since fingerprints can be inverted into a (fp → doc) posting
    table with a groupby.

    Entirely per-batch (no shuffle): md5 once per UNIQUE k-gram per batch,
    rolling window minimum fully vectorized over uint64 — the 128-bit md5
    is compared as (hi, lo) uint64 lanes (exact md5 order, no object-dtype
    string minimum), with an index lane carrying the winning gram so the
    output is still the full hex digest.  Doc boundaries respected by
    position masks."""
    import hashlib as _hl

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "fp": pa.array([], pa.string())})

    def f(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).select(
            "doc_id", tokens_expr().alias("t")
        ).filter(pl.col("t").list.len() >= FP_K)
        if df.is_empty():
            return empty
        ex = df.explode("t").with_columns(
            pos=pl.int_range(pl.len()).over("doc_id"))
        ex = ex.with_columns(
            g=pl.concat_str(
                [pl.col("t").shift(-s).over("doc_id") for s in range(FP_K)],
                separator=" ",
            )
        )
        grams = ex.drop_nulls("g")  # last k-1 positions per doc have no gram
        uniq = grams["g"].unique().to_list()
        digests = b"".join(_hl.md5(s.encode()).digest() for s in uniq)
        u128 = np.frombuffer(digests, dtype=">u8").reshape(-1, 2)
        u_hex = np.array([d.hex() for d in
                          (digests[i * 16:(i + 1) * 16]
                           for i in range(len(uniq)))], dtype=object)
        code_of = {s: i for i, s in enumerate(uniq)}
        doc = grams["doc_id"].to_numpy()
        gpos = grams["pos"].to_numpy()
        codes = np.fromiter((code_of[s] for s in grams["g"].to_list()),
                            dtype=np.int64, count=grams.height)
        h_hi = np.ascontiguousarray(u128[:, 0])[codes]
        h_lo = np.ascontiguousarray(u128[:, 1])[codes]
        # rolling min of the last FP_W hashes: exact 128-bit compare on two
        # uint64 lanes, index lane tracks the winner's gram code
        m_hi, m_lo, m_code = h_hi.copy(), h_lo.copy(), codes.copy()
        for s in range(1, FP_W):
            c_hi, c_lo, c_code = h_hi[:-s], h_lo[:-s], codes[:-s]
            lt = (c_hi < m_hi[s:]) | ((c_hi == m_hi[s:]) & (c_lo < m_lo[s:]))
            m_hi[s:][lt] = c_hi[lt]
            m_lo[s:][lt] = c_lo[lt]
            m_code[s:][lt] = c_code[lt]
        # a window is complete when it lies inside one doc: gram index ≥ w-1
        valid = gpos >= FP_W - 1
        out = pl.DataFrame({
            "doc_id": doc[valid],
            "fp": u_hex[m_code[valid]].astype(str),
        }).unique().sort(["doc_id", "fp"])
        return out.to_arrow().cast(empty.schema)

    return _docs(sf_dir).map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# CCNet-style unigram LM scoring
# ---------------------------------------------------------------------------

_UNIGRAM_LM_VERSION = "v3"

# per-doc partials of a term-bucketed exchange: Σ tf and Σ tf·weight(term)
_DOC_PARTIAL_SCHEMA = pa.schema([("doc_id", pa.int64()),
                                 ("n_p", pa.int64()),
                                 ("s_p", pa.float64())])


def _sum_per_doc(doc_id: np.ndarray, n: np.ndarray,
                 s: np.ndarray) -> pl.DataFrame:
    """(doc_id, n_p, s_p): per distinct ``doc_id``, ascending, the sum of
    its rows' ``n`` and the sum of their ``s`` taken left to right in row
    order, starting from 0.0 (``np.bincount`` adds its weights in index
    order).  A doc's float sum so has one fixed order, whatever the
    thread count; a threaded ``group_by(...).agg(sum)`` splits a group's
    rows in run-dependent ways and differs in the last bit."""
    ids, inv = np.unique(doc_id, return_inverse=True)
    n_p = np.bincount(inv, weights=n, minlength=len(ids))
    return pl.DataFrame({"doc_id": ids.astype(np.int64),
                         "n_p": n_p.astype(np.int64),
                         "s_p": np.bincount(inv, weights=s,
                                            minlength=len(ids))})


def _doc_partials(df: pl.DataFrame, n: pl.Expr, s: pl.Expr) -> pl.DataFrame:
    """The per-doc partials of one term bucket's (doc_id, term, ...) rows:
    ``n`` and ``s`` per row, summed per doc (:func:`_sum_per_doc`) in
    ascending term order.  Rows are sorted by (doc_id, term) first — a
    doc's terms are unique within a bucket — so the order does not depend
    on the order the exchange delivered them in."""
    rows = df.sort("doc_id", "term").select(
        "doc_id", n.alias("n"), s.alias("s"))
    return _sum_per_doc(rows["doc_id"].to_numpy(), rows["n"].to_numpy(),
                        rows["s"].to_numpy())


def _doc_sums(batch: pa.Table, parts_dir: str) -> pl.DataFrame:
    """(doc_id, n_tokens, s) for every doc of ``batch``: the doc-sorted
    partial shards range-read to the batch's [min, max] doc ids
    (``stages.postings.read_range``) and summed per doc in file order —
    term-bucket order, the shards' names — by :func:`_sum_per_doc`; a doc
    with no partial rows (zero tokens) gets (0, 0.0).  A doc's partial
    rows (≤ one per bucket) all land in the one batch holding the doc, so
    no cross-batch merge exists."""
    from ..stages.postings import read_range

    if batch.num_rows == 0:
        return pl.DataFrame(schema={"doc_id": pl.Int64, "n_tokens": pl.Int64,
                                    "s": pl.Float64})
    ids = batch.column("doc_id").to_numpy()
    part = read_range(parts_dir, "doc_id", int(ids.min()), int(ids.max()))
    per = _sum_per_doc(part.column("doc_id").to_numpy(),
                       part.column("n_p").to_numpy(),
                       part.column("s_p").to_numpy()).rename(
        {"n_p": "n_tokens", "s_p": "s"})
    return (pl.from_arrow(batch.select(["doc_id"]))
            .join(per, on="doc_id", how="left")
            .with_columns(pl.col("n_tokens").fill_null(0),
                          pl.col("s").fill_null(0.0)))


def unigram_logprob(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, n_tokens, cross_entropy) — per-document cross-entropy in
    nats under the corpus' OWN maximum-likelihood unigram LM: the quality
    signal behind CCNet's LM-score-and-bucket filtering (Wenzek et al.
    2020, "CCNet: Extracting High Quality Monolingual Datasets from Web
    Crawl Data"; there the LM is external — using the corpus MLE keeps
    the DuckDB oracle exact and needs no model file).

    ``cross_entropy = ln(total) - (Σ_t ln cf(t)) / n`` over the doc's
    ``n`` tokens; every token's cf ≥ 1 by construction (its own
    occurrence), so no OOV smoothing arises.  Zero-token docs score 0.0.
    Low values = repetitive / high-frequency text, high values = rare-
    token soup; CCNet buckets docs by this into head/middle/tail.

    Shuffle plan — no vocab table is ever built, broadcast or held by a
    worker (CCNet-scale web corpora reach 10⁸+ terms), and no
    ``Dataset.groupby`` sort-shuffle either: the exchange is the shared
    FILESYSTEM bucket exchange (:func:`..exchange.bucket_exchange`).

    * map (one task per corpus batch): per-batch-combined (doc_id, term,
      tf) rows keyed by the term-hash bucket ``tb``;
    * reduce (one Ray task per tb bucket): every occurrence of a term
      lands in its term's bucket, so cf(term) is the in-bucket sum of tf
      and one vectorized kernel computes per-doc partials (Σ tf,
      Σ tf·ln cf), doc-sorted → one partial shard; the bucket's Σ tf
      rides back as the task's metric, so ln(total) needs no extra
      corpus pass;
    * finalize (map-only corpus pass): :func:`_doc_sums` per batch.

    Driver state is per-task counts plus a content-keyed spill path
    (``/tmp/indri55_unigcg``; a rerun with unchanged inputs is free).
    Per-task memory is one bucket (bytes-scaled bucket count), never the
    vocab.  Per-doc sums run per term (tf·ln cf) where the SQL oracle
    sums per token, so the two agree to ~1e-12 relative, not
    bit-exactly.  Each doc's float sum has one fixed order — its terms
    ascending within a bucket (:func:`_doc_partials`), then the buckets
    ascending (:func:`_doc_sums`) — so runs with the same bucket count
    (``bucket_count``: input size and cluster CPUs) give the same bits."""
    import json

    from .exchange import bucket_count, bucket_exchange

    path = f"{sf_dir}/documents.parquet"
    n_tb = bucket_count(path)

    def doc_term_tf(df: pl.DataFrame) -> pl.DataFrame:
        ex = (df.with_columns(tokens_expr().alias("toks"))
              .select("doc_id", "toks").explode("toks").drop_nulls()
              .rename({"toks": "term"}))
        return (ex.group_by("doc_id", "term")
                .agg(pl.len().cast(pl.Int64).alias("tf"))
                .with_columns((pl.col("term").hash(seed=0) % n_tb)
                              .cast(pl.Int32).alias("tb")))

    def doc_partials(df: pl.DataFrame):
        cf = df.group_by("term").agg(pl.col("tf").sum().alias("cf"))
        out = _doc_partials(df.join(cf, on="term"), pl.col("tf"),
                            pl.col("tf").cast(pl.Float64)
                            * pl.col("cf").cast(pl.Float64).log())
        return out, int(out["n_p"].sum())

    spill = bucket_exchange(
        _docs(sf_dir),
        cache_root="/tmp/indri55_unigcg",
        source_path=path, version=_UNIGRAM_LM_VERSION,
        n_buckets=n_tb, bucket_col="tb",
        map_kernel=doc_term_tf, map_columns=("doc_id", "text"),
        reduce_columns=["doc_id", "term", "tf"], reduce_kernel=doc_partials,
        out_schema=_DOC_PARTIAL_SCHEMA, out_dirname="parts",
        out_prefix="lm-tb", empty_name="lm-",
        meta_payload=lambda total: {"total": total})
    with open(f"{spill}/meta.json") as f:
        total = json.load(f)["total"]
    parts_dir = f"{spill}/parts"
    ln_total = float(np.log(total)) if total else 0.0

    def finalize(batch: pa.Table) -> pa.Table:
        return (_doc_sums(batch, parts_dir)
                .with_columns(
                    pl.when(pl.col("n_tokens") > 0)
                    .then(ln_total - pl.col("s") / pl.col("n_tokens"))
                    .otherwise(0.0).alias("cross_entropy"))
                .select("doc_id", "n_tokens", "cross_entropy")
                .to_arrow())

    return _docs(sf_dir).map_batches(finalize, batch_format="pyarrow")


def ccnet_buckets(sf_dir: str, k: int = 3) -> ray.data.Dataset:
    """(doc_id, n_tokens, cross_entropy, bucket) — CCNet's head/middle/tail
    split (Wenzek et al. 2020 §4.4): documents ranked by LM cross-entropy
    (ascending — fluent text first) and cut into ``k`` equal-rank buckets,
    bucket 1 = head.  Assignment is EXACT ntile semantics (the first
    ``n mod k`` buckets take one extra row).  The rank key is
    ``round(cross_entropy, 9)`` tie-broken by doc_id — ranking the RAW
    float would make the bucket of two near-equal docs depend on which
    engine's last-ulp summation order wins (polars vs the DuckDB oracle's
    ``ntile``); rounding both sides to 9 decimals makes the order (and so
    the integer bucket column) deterministic across engines.

    Shape: :func:`unigram_logprob` (one term-bucket exchange + map-only
    finalize) → ONE sort of the per-doc stats table (4 narrow columns,
    O(#docs) — tiny next to the corpus) → the ``pack_shards`` prefix-sum:
    per-block (key range, count) triples to the driver, blocks ordered by
    their disjoint (cross_entropy, doc_id) ranges, an exclusive scan gives
    each block's global start rank, and buckets are assigned per block
    from rank arithmetic.  No driver-resident rows, no second shuffle."""
    def rank_key(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("ce_r", pa.array([], pa.float64()))
        ce_r = np.round(batch.column("cross_entropy").to_numpy(), 9)
        return batch.append_column("ce_r", pa.array(ce_r, pa.float64()))

    per = (unigram_logprob(sf_dir)
           .map_batches(rank_key, batch_format="pyarrow")
           .sort(["ce_r", "doc_id"])
           .materialize())
    refs = per.to_arrow_refs()

    @ray.remote
    def block_stats(t: pa.Table):
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return None
        ce = t.column("ce_r").to_numpy()
        did = t.column("doc_id").to_numpy()
        # strict (ce, doc_id) ascending, allocation-free (no per-row
        # Python tuples — a sorted stats block can hold millions of rows)
        if len(ce) > 1:
            d = np.diff(ce)
            if (d < 0).any() or ((d == 0) & (np.diff(did) <= 0)).any():
                return "unsorted"
        return ((float(ce[0]), int(did[0])),
                (float(ce[-1]), int(did[-1])), t.num_rows)

    stats = ray.get([block_stats.remote(r) for r in refs])
    if any(s == "unsorted" for s in stats):
        raise ValueError("ccnet_buckets: a sorted block is internally "
                         "unsorted (duplicate doc_id?)")
    nonempty = [i for i, s in enumerate(stats) if s is not None]
    order = sorted(nonempty, key=lambda i: stats[i][0])
    prev = None
    for i in order:
        lo, hi, _ = stats[i]
        if prev is not None and lo <= prev:
            raise ValueError("ccnet_buckets: block key ranges overlap "
                             "(duplicate doc_id?)")
        prev = hi
    counts = [stats[i][2] for i in order]
    n = int(sum(counts))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    q, rem = divmod(n, k)

    @ray.remote
    def assign(t: pa.Table, start: int) -> pa.Table:
        r = start + np.arange(t.num_rows, dtype=np.int64)
        big = rem * (q + 1)  # ranks below this sit in the q+1-sized buckets
        b = np.where(r < big, r // max(q + 1, 1),
                     rem + (r - big) // max(q, 1))
        return t.drop_columns(["ce_r"]).append_column(
            "bucket", pa.array(b + 1, pa.int64()))

    out_refs = [assign.remote(refs[i], int(s))
                for i, s in zip(order, starts)]
    if not out_refs:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "cross_entropy": pa.array([], pa.float64()),
            "bucket": pa.array([], pa.int64())}))
    return ray.data.from_arrow_refs(out_refs)
