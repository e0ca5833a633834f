"""Seed-based Naive-Bayes quality classifier — the "train a linear
classifier on a curated seed, score the whole crawl" curation step
(Brown et al. 2020 §A "Details of our data" used a logistic classifier
with WebText as the positive class; CCNet ships the same shape with
fastText).  Here the model is multinomial Naive Bayes with add-one
smoothing over the engine's standard token stream, which keeps training
a pure counting problem and the DuckDB oracle EXACT — no SGD
order-dependence, no model file.

Seed labels come from a column equality on the documents table
(``pos_col == pos_val``; default ``lang == 'en'``) so the label is
SQL-derivable and deterministic.  A real deployment points the positive
class at a curated corpus (the reference-quality side) instead.

Shuffle plan (the :func:`..functions.textstats.unigram_logprob` shape):
no vocab table is ever built, broadcast or held by a worker.  Scoring
is ONE term-hash-bucketed FILESYSTEM exchange
(:func:`..exchange.bucket_exchange`) plus a map-only finalize.  The
decomposition: per-doc bucket partials
``s_p = Σ tf·(ln(cf_pos+1) − ln(cf_neg+1))`` need NO global constants
(a term's two class counts are complete inside its hash bucket), and
the constant term ``n·(ln(total_neg+V) − ln(total_pos+V))`` plus the
class prior attach at finalize; the three globals (total_pos,
total_neg, V) ride back as the exchange's tuple metric.  Per-doc sums
run per term where the SQL oracle sums per token, so the two agree to
~1e-12 relative, not bit-exactly.
"""

from __future__ import annotations

import json

import numpy as np
import polars as pl
import pyarrow as pa
import ray.data

from .exchange import bucket_count, bucket_exchange
from .textstats import (_DOC_PARTIAL_SCHEMA, _doc_partials, _doc_sums,
                        read_spread, tokens_expr)

_NB_VERSION = "v2"


def _labeled_terms(df: pl.DataFrame, keys: list[str], pos_col: str,
                   pos_val: str, n_tb: int) -> pl.DataFrame:
    """Per-batch (*keys, term, tf_pos, tf_neg, tb) class counts — NULL
    labels count as NEGATIVE — keyed by the term-hash bucket ``tb``."""
    ex = (df.with_columns(tokens_expr().alias("term"),
                          (pl.col(pos_col) == pos_val).fill_null(False)
                          .alias("pos"))
          .select(*keys, "pos", "term").explode("term").drop_nulls("term"))
    return (ex.group_by(*keys, "term")
            .agg(pl.col("pos").cast(pl.Int64).sum().alias("tf_pos"),
                 (~pl.col("pos")).cast(pl.Int64).sum().alias("tf_neg"))
            .with_columns((pl.col("term").hash(seed=0) % n_tb)
                          .cast(pl.Int32).alias("tb")))


def _term_class_counts(df: pl.DataFrame) -> tuple[pl.DataFrame, tuple]:
    """One bucket's (term, cf_pos, cf_neg) totals — exact, since every
    occurrence of a term lands in its term's bucket — and the bucket's
    (Σ cf_pos, Σ cf_neg, #terms) share of the three globals."""
    cls = (df.group_by("term")
           .agg(pl.col("tf_pos").sum().alias("cf_pos"),
                pl.col("tf_neg").sum().alias("cf_neg")))
    return cls, (int(cls["cf_pos"].sum()), int(cls["cf_neg"].sum()),
                 cls.height)


def _nb_meta(total: int | tuple) -> dict:
    """meta.json of an NB exchange: the (total_pos, total_neg, V) metric
    (an int 0 when the corpus has no tokens)."""
    return dict(zip(("total_pos", "total_neg", "vsize"),
                    total if isinstance(total, tuple) else (0, 0, 0)))


def _ln_denominators(spill: str) -> tuple[float, float]:
    """(ln(total_pos+V), ln(total_neg+V)) from an NB exchange's meta."""
    with open(f"{spill}/meta.json") as f:
        meta = json.load(f)
    v = meta["vsize"]
    return tuple(float(np.log(meta[k] + v)) if meta[k] + v else 0.0
                 for k in ("total_pos", "total_neg"))


def _doc_priors(sf_dir: str, pos_col: str, pos_val: str) -> tuple[int, int]:
    """(n_pos, n_neg) document counts from one pruned column read.  NULL
    labels count as NEGATIVE everywhere (pc.equal yields null, pc.sum
    skips it, n_neg = len - n_pos) — the same rule the token counters
    apply via fill_null(False) and the SQL oracle via CASE WHEN."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    lab = pq.read_table(f"{sf_dir}/documents.parquet",
                        columns=[pos_col]).column(pos_col)
    n_pos = int(pc.sum(pc.equal(lab, pos_val)).as_py() or 0)
    return n_pos, len(lab) - n_pos


def nb_token_llr(sf_dir: str, pos_col: str = "lang",
                 pos_val: str = "en") -> ray.data.Dataset:
    """(term, cf_pos, cf_neg, llr) — the trained model table itself
    (useful to inspect the most class-discriminative tokens), with
    ``llr(t) = ln(cf_pos+1) − ln(total_pos+V) − ln(cf_neg+1)
    + ln(total_neg+V)``.

    One term-hash-bucketed exchange: per-batch per-term class-count
    partials, each bucket's reduce sums them per term, and the three
    globals ride back as the tuple metric."""
    path = f"{sf_dir}/documents.parquet"
    n_tb = bucket_count(path)
    spill = bucket_exchange(
        read_spread(path, ["text", pos_col]),
        cache_root="/tmp/indri55_nbllr",
        source_path=path, version=f"{_NB_VERSION}-{pos_col}-{pos_val}",
        n_buckets=n_tb, bucket_col="tb",
        map_kernel=lambda df: _labeled_terms(df, [], pos_col, pos_val, n_tb),
        map_columns=("text", pos_col),
        reduce_columns=["term", "tf_pos", "tf_neg"],
        reduce_kernel=_term_class_counts,
        out_schema=pa.schema([("term", pa.string()),
                              ("cf_pos", pa.int64()),
                              ("cf_neg", pa.int64())]),
        out_dirname="vocab", out_prefix="nb-tb", empty_name="nb-",
        meta_payload=_nb_meta)
    ln_dp, ln_dn = _ln_denominators(spill)

    def add_llr(batch: pa.Table) -> pa.Table:
        return (pl.from_arrow(batch)
                .with_columns(
                    ((pl.col("cf_pos") + 1).cast(pl.Float64).log() - ln_dp
                     - (pl.col("cf_neg") + 1).cast(pl.Float64).log()
                     + ln_dn).alias("llr"))
                .to_arrow())

    return ray.data.read_parquet(f"{spill}/vocab").map_batches(
        add_llr, batch_format="pyarrow")


def nb_classifier_scores(sf_dir: str, pos_col: str = "lang",
                         pos_val: str = "en") -> ray.data.Dataset:
    """(doc_id, n_tokens, nb_llr, predicted) — every document scored by
    the seed-trained Naive-Bayes model:

    ``nb_llr = ln((n_pos+1)/(n_neg+1)) + Σ_tokens llr(t)`` and
    ``predicted = nb_llr > 0`` (the classifier's positive/"keep" call —
    GPT-3 then Pareto-samples on the score; that policy is
    :func:`.sampling.sample_hash`-shaped and composes downstream).

    Zero-token docs carry the prior alone.  Every token appears in the
    vocab by construction (trained on the same corpus), so the scoring
    has no OOV arm; add-one smoothing still matters because a token can
    be absent from ONE class.

    The exchange (see the module docstring): term-hash-bucketed
    (doc_id, term, tf_pos, tf_neg) part files, one reduce task per
    bucket computing in-bucket-exact class counts and per-doc partials
    (Σ tf, Σ tf·(ln(cf_pos+1) − ln(cf_neg+1))) into doc-sorted shards,
    then a map-only range-pruned finalize (:func:`.textstats._doc_sums`)
    that attaches the constant term and the prior."""
    path = f"{sf_dir}/documents.parquet"
    n_tb = bucket_count(path)

    def doc_partials(df: pl.DataFrame):
        cls, totals = _term_class_counts(df)
        tf = pl.col("tf_pos") + pl.col("tf_neg")
        out = _doc_partials(
            df.join(cls, on="term"), tf,
            tf.cast(pl.Float64)
            * ((pl.col("cf_pos") + 1).cast(pl.Float64).log()
               - (pl.col("cf_neg") + 1).cast(pl.Float64).log()))
        return out, totals

    spill = bucket_exchange(
        read_spread(path, ["doc_id", "text", pos_col]),
        cache_root="/tmp/indri55_nbcg",
        source_path=path, version=f"{_NB_VERSION}-{pos_col}-{pos_val}",
        n_buckets=n_tb, bucket_col="tb",
        map_kernel=lambda df: _labeled_terms(df, ["doc_id"], pos_col,
                                             pos_val, n_tb),
        map_columns=("doc_id", "text", pos_col),
        reduce_columns=["doc_id", "term", "tf_pos", "tf_neg"],
        reduce_kernel=doc_partials,
        out_schema=_DOC_PARTIAL_SCHEMA, out_dirname="parts",
        out_prefix="nb-tb", empty_name="nb-", meta_payload=_nb_meta)
    ln_dp, ln_dn = _ln_denominators(spill)
    const = ln_dn - ln_dp
    n_pos, n_neg = _doc_priors(sf_dir, pos_col, pos_val)
    prior = float(np.log((n_pos + 1) / (n_neg + 1)))
    parts_dir = f"{spill}/parts"

    def finalize(batch: pa.Table) -> pa.Table:
        return (_doc_sums(batch, parts_dir)
                .with_columns(
                    (prior + pl.col("s")
                     + pl.col("n_tokens").cast(pl.Float64) * const)
                    .alias("nb_llr"))
                .with_columns((pl.col("nb_llr") > 0).alias("predicted"))
                .select("doc_id", "n_tokens", "nb_llr", "predicted")
                .to_arrow())

    return read_spread(path, ["doc_id"]).map_batches(
        finalize, batch_format="pyarrow")


def nb_pareto_sample(sf_dir: str, pos_col: str = "lang",
                     pos_val: str = "en",
                     alpha: float = 9.0) -> ray.data.Dataset:
    """(doc_id, n_tokens, nb_llr, margin) — the GPT-3 classifier-filtered
    sampling rule (Brown et al. 2020 §A: keep a document iff
    ``np.random.pareto(alpha) > 1 - document_score``, alpha = 9) made
    DETERMINISTIC: the Pareto draw is the inverse-CDF transform
    ``x = u^(-1/alpha) - 1`` of a content-keyed uniform
    ``u = md5(doc_id)[:8] / 2^32`` (the :func:`.sampling.sample_hash`
    trick — reruns, resumes and cluster sizes keep the same documents),
    and the document score is the NB posterior ``sigmoid(nb_llr)``.
    ``margin = x - (1 - score) > 0`` is the keep rule; kept rows only.
    Composes the classifier stages: train + score (one exchange) →
    finalize (map-only) → sample (map-only) — nothing shuffles after
    the exchange."""
    import hashlib

    inv = -1.0 / alpha

    def sample(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        ids = batch.column("doc_id").to_pylist()
        u = np.array([int(hashlib.md5(str(d).encode()).hexdigest()[:8], 16)
                      for d in ids], dtype=np.float64) / 4294967296.0
        llr = batch.column("nb_llr").to_numpy()
        score = 1.0 / (1.0 + np.exp(-llr))
        # u = 0 would be an infinite draw; md5 zeros are ~2^-32 — clamp
        # exactly like the SQL (greatest(u, 2^-33))
        x = np.power(np.maximum(u, 2.0 ** -33), inv) - 1.0
        margin = x - (1.0 - score)
        return (df.with_columns(pl.Series("margin", margin))
                .filter(pl.col("margin") > 0)
                .select("doc_id", "n_tokens", "nb_llr", "margin")
                .to_arrow())

    return nb_classifier_scores(sf_dir, pos_col, pos_val).map_batches(
        sample, batch_format="pyarrow")
