"""Link graph + PageRank priors — the ``harvestlinks`` / PageRank analogue.

The reference harvests anchor text and the link graph from web corpora
(ref:harvestlinks/harvestlinks.cpp) and power-iterates PageRank scores
(ref:src/PageRank.cpp:422-440) that feed document priors.  Ray-Data-first
re-expression:

* :func:`harvest_links` — anchor/href extraction as a vectorized
  ``map_batches`` stage (regex compiled once per worker), emitting
  (src, dst, anchor) rows from HTML-ish content;
* :func:`anchor_counts` — inlink/anchor aggregation per dst over one
  filesystem bucket exchange (the anchor-text field source);
* :func:`pagerank` — damped power iteration over an edge table using the
  engine's FILESYSTEM bucket exchange (the `_dedup_losers` /
  `exchange.bucket_exchange` shape): per iteration, one task per SRC bucket joins its
  score shard with its edge shard and writes dst-bucketed partial
  contributions; one task per DST bucket sums them and writes the next
  score shard.  Driver state is file paths and counts — never the score
  vector — and every exchange is a ``read_bucket`` of bucket-aligned row
  groups (``write_bucketed``), so
  the iteration scales to graphs whose score vector exceeds driver (or
  any single worker's) memory.  No Ray all-to-all: a Dataset shuffle per
  iteration would pay the driver O(mappers × reducers) lineage metadata
  T times over.
* :func:`link_edges` / :func:`pagerank_scores` — the driver-checked
  entries over a DETERMINISTIC synthetic graph derived from the documents
  table (doc i has outdegree 1 + i%3; the j-th target is
  (i·31 + j·17) mod N), so DuckDB reproduces the edges and the unrolled
  iterations exactly; per-iteration scores are pinned to 12 decimals on
  both sides (contribution sums are tiny — the pin absorbs order-of-
  addition ulps).

Dangling nodes (outdegree 0) are handled by redistributing their mass
uniformly — the synthetic graph has none (outdeg ≥ 1), and the pytest
covers a hand-built graph that does.
"""

from __future__ import annotations

import json
import os
import re
import shutil

import numpy as np
import polars as pl
import pyarrow as pa
import ray
import ray.data

from ..stages.postings import read_bucket, write_bucketed

N_BUCKETS = 16
DAMPING = 0.85
ITERS = 5

_EDGE_SCHEMA = pa.schema([("sbucket", pa.int32()),
                          ("src", pa.int64()),
                          ("dst", pa.int64()),
                          ("w", pa.float64())])


# ---------------------------------------------------------------------------
# real link harvesting (HTML anchors) — the harvestlinks analogue
# ---------------------------------------------------------------------------

_ANCHOR_RE = re.compile(
    r"<a\s[^>]*?href\s*=\s*[\"']([^\"'#>]+)[\"'][^>]*>(.*?)</a>",
    re.IGNORECASE | re.DOTALL)
_TAG_RE = re.compile(r"<[^>]+>")


def extract_links(src_url: str, html: str) -> list[tuple[str, str, str]]:
    """(src, dst, anchor_text) triples from one HTML document — href
    resolution is verbatim (no base-URL joining; the reference harvests
    raw targets and normalizes in a later pass)."""
    out = []
    for m in _ANCHOR_RE.finditer(html):
        dst = m.group(1).strip()
        anchor = _TAG_RE.sub(" ", m.group(2))
        anchor = " ".join(anchor.split())
        if dst:
            out.append((src_url, dst, anchor))
    return out


def harvest_links(docs: ray.data.Dataset, url_col: str = "url",
                  content_col: str = "content") -> ray.data.Dataset:
    """(src, dst, anchor) rows from an HTML document dataset (e.g.
    :func:`~indri_5_5_ray.sources.webarchive.read_warc` output) — a
    map-only stage; the per-dst aggregation happens downstream."""

    def f(batch: pa.Table) -> pa.Table:
        srcs, dsts, anchors = [], [], []
        for u, c in zip(batch.column(url_col).to_pylist(),
                        batch.column(content_col).to_pylist()):
            for s, d, a in extract_links(u or "", c or ""):
                srcs.append(s)
                dsts.append(d)
                anchors.append(a)
        return pa.table({"src": pa.array(srcs, pa.string()),
                         "dst": pa.array(dsts, pa.string()),
                         "anchor": pa.array(anchors, pa.string())})

    return docs.map_batches(f, batch_format="pyarrow")


_ANCHOR_SCHEMA = pa.schema([("dst", pa.string()),
                            ("n_inlinks", pa.int64()),
                            ("n_distinct_src", pa.int64())])


def anchor_counts(links: ray.data.Dataset, *, source_path: str,
                  version: str) -> ray.data.Dataset:
    """(dst, n_inlinks, n_distinct_src) per link target — the inlink
    aggregation that feeds anchor-text fields and inlink priors.

    One filesystem :func:`.exchange.bucket_exchange` keyed by the hash of
    ``dst``: each batch collapses its links to (dst, src, n) rows, and
    each bucket's reduce sums them per (dst, src) before counting per
    dst.  A pair split across batches arrives as several partial rows,
    but every row of a dst lands in one bucket, so it still counts as one
    distinct source.  The spill is cached under ``/tmp/indri55_anchors``,
    keyed by ``source_path`` (the corpus the links were harvested from)
    and ``version`` (everything else the links depend on)."""
    from .exchange import bucket_count, bucket_exchange, read_exchange

    n_b = bucket_count(source_path)

    def pairs(df: pl.DataFrame) -> pl.DataFrame:
        return (df.group_by("dst", "src").agg(pl.len().alias("n"))
                .with_columns((pl.col("dst").hash(seed=0) % n_b)
                              .cast(pl.Int32).alias("db")))

    def counts(df: pl.DataFrame):
        out = (df.group_by("dst", "src").agg(pl.col("n").sum())
               .group_by("dst")
               .agg(pl.col("n").sum().alias("n_inlinks"),
                    pl.len().alias("n_distinct_src")))
        return out, out.height

    spill = bucket_exchange(
        links, cache_root="/tmp/indri55_anchors", source_path=source_path,
        version=version, n_buckets=n_b, bucket_col="db",
        map_kernel=pairs, map_columns=("src", "dst"),
        reduce_columns=["dst", "src", "n"], reduce_kernel=counts,
        out_schema=_ANCHOR_SCHEMA, out_dirname="counts",
        out_prefix="anchors-b", empty_name="anchors-")
    return read_exchange(spill, "counts", _ANCHOR_SCHEMA)


# ---------------------------------------------------------------------------
# PageRank — filesystem-bucketed power iteration
# ---------------------------------------------------------------------------


def _contrib_task(edges_dir: str, scores_file: str, bucket: int,
                  out_dir: str, t: int) -> float:
    """One SRC bucket's contribution pass: join its score shard with its
    edge shard, partial-aggregate by dst, write dst-bucketed rows.
    Returns the bucket's DANGLING mass (score with no out-edges)."""
    import pyarrow.parquet as pq

    sc = pl.from_arrow(pq.read_table(scores_file,
                                     columns=["doc_id", "score"]))
    edf = pl.from_arrow(read_bucket(edges_dir, "sbucket", bucket,
                                    columns=["src", "dst", "w"]))
    joined = edf.join(sc.rename({"doc_id": "src"}), on="src", how="inner")
    contrib = (
        joined.with_columns((pl.col("w") * pl.col("score")).alias("c"))
        .group_by("dst").agg(pl.col("c").sum())
        .with_columns((pl.col("dst") % N_BUCKETS).cast(pl.Int32)
                      .alias("dbucket"))
        .sort("dbucket")
    )
    if contrib.height:
        write_bucketed(contrib.select("dbucket", "dst", "c").to_arrow(),
                       f"{out_dir}/c-{t}-b{bucket:02d}.parquet",
                       "dbucket", N_BUCKETS)
    # dangling mass: scores whose doc has no out-edges in this bucket
    dangling = sc.join(edf.select(pl.col("src").unique().alias("doc_id")),
                       on="doc_id", how="anti")
    return float(dangling["score"].sum())


def _apply_task(doclist_file: str, contrib_dir: str, bucket: int, t: int,
                n_docs: int, damping: float, dangling_mass: float,
                scores_dir: str) -> None:
    """One DST bucket's apply pass: sum its partial contributions, apply
    damping + uniform dangling redistribution, pin to 12 decimals, write
    the next score shard."""
    import pyarrow.parquet as pq

    docs = pl.from_arrow(pq.read_table(doclist_file, columns=["doc_id"]))
    # a fully-dangling iteration writes NO contribution files: read_bucket
    # then gives a table without rows
    ct = read_bucket(contrib_dir, "dbucket", bucket, columns=["dst", "c"])
    base = (1.0 - damping) / n_docs + damping * dangling_mass / n_docs
    if ct.num_rows:
        sums = (pl.from_arrow(ct).group_by("dst").agg(pl.col("c").sum())
                .rename({"dst": "doc_id"}))
        out = docs.join(sums, on="doc_id", how="left").with_columns(
            pl.col("c").fill_null(0.0))
    else:
        out = docs.with_columns(pl.lit(0.0).alias("c"))
    # SCALE-INVARIANT 12-decimal pin (absorbs cross-engine summation-order
    # ulps for the SQL oracle): scores are ~1/n, so rounding the RAW score
    # to 12 decimals loses 12 - log10(n) significant digits and leaks
    # O(n · 5e-13) probability mass per iteration; pinning score·n (~1)
    # keeps ~12 significant digits and conserves Σ score == 1 to ~5e-13
    # per iteration at ANY corpus size (soak-asserted at 10M docs)
    out = out.with_columns(
        ((base + damping * pl.col("c")) * float(n_docs)).round(12)
        .truediv(float(n_docs)).alias("score")
    ).sort("doc_id").select("doc_id", "score")
    pq.write_table(out.to_arrow(),
                   f"{scores_dir}/s-{t}-b{bucket:02d}.parquet")


def pagerank(edges_dir: str, doclists: list[str], n_docs: int,
             work_dir: str, iters: int = ITERS,
             damping: float = DAMPING) -> list[str]:
    """Damped PageRank over a bucketed edge spill.  ``edges_dir`` holds
    parquet files with (sbucket, src, dst, w=1/outdeg(src)) rows sorted by
    sbucket; ``doclists[b]`` is the bucket's (doc_id) parquet (bucket =
    doc_id % N_BUCKETS).  Returns the final per-bucket score shard paths.
    Driver holds paths + the dangling-mass scalar per iteration."""
    contrib_dir = f"{work_dir}/contrib"
    scores_dir = f"{work_dir}/scores"
    os.makedirs(contrib_dir, exist_ok=True)
    os.makedirs(scores_dir, exist_ok=True)
    # iteration 0: uniform 1/N per bucket
    s0 = 1.0 / n_docs

    def _init(b: int) -> str:
        import pyarrow.parquet as pq

        docs = pl.read_parquet(doclists[b], columns=["doc_id"])
        out = docs.with_columns(pl.lit(s0).alias("score")).sort("doc_id")
        f = f"{scores_dir}/s-0-b{b:02d}.parquet"
        pq.write_table(out.to_arrow(), f)
        return f

    init_t = ray.remote(num_cpus=0.5)(_init)
    score_files = ray.get([init_t.remote(b) for b in range(N_BUCKETS)])

    contrib_t = ray.remote(num_cpus=0.9)(_contrib_task)
    apply_t = ray.remote(num_cpus=0.9)(_apply_task)
    for t in range(1, iters + 1):
        dangling = sum(ray.get([
            contrib_t.remote(edges_dir, score_files[b], b, contrib_dir, t)
            for b in range(N_BUCKETS)]))
        it_contrib = f"{contrib_dir}/it-{t}"
        os.makedirs(it_contrib, exist_ok=True)
        # contribution files were written flat under contrib_dir with the
        # iteration tag in the name; move them under the per-iteration dir
        # so the apply pass's dataset only discovers THIS iteration's files
        for f in os.listdir(contrib_dir):
            if f.startswith(f"c-{t}-"):
                os.rename(f"{contrib_dir}/{f}", f"{it_contrib}/{f}")
        ray.get([apply_t.remote(doclists[b], it_contrib, b, t, n_docs,
                                damping, dangling, scores_dir)
                 for b in range(N_BUCKETS)])
        score_files = [f"{scores_dir}/s-{t}-b{b:02d}.parquet"
                       for b in range(N_BUCKETS)]
        shutil.rmtree(it_contrib, ignore_errors=True)
    return score_files


# ---------------------------------------------------------------------------
# driver-checked entries over the deterministic synthetic graph
# ---------------------------------------------------------------------------


def _n_docs(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows


def _synth_edges_batch(batch: pa.Table, n: int) -> pl.DataFrame:
    """doc i → targets (i·31 + j·17) mod n for j in 1..(1 + i%3), each with
    weight 1/outdeg — a pure function of doc_id, SQL-reproducible."""
    ids = batch.column("doc_id").to_numpy().astype(np.int64)
    deg = 1 + (ids % 3)
    src = np.repeat(ids, deg)
    jj = np.concatenate([np.arange(1, d + 1) for d in deg]) \
        if len(ids) else np.empty(0, np.int64)
    dst = (src * 31 + jj * 17) % n
    w = 1.0 / np.repeat(deg, deg).astype(np.float64)
    return pl.DataFrame({"src": src, "dst": dst, "w": w})


def link_edges(sf_dir: str) -> ray.data.Dataset:
    """(src, dst, w) synthetic link graph — the harvest stage's output
    shape with an exact SQL oracle."""
    from .textstats import read_spread

    n = _n_docs(sf_dir)

    def f(batch: pa.Table) -> pa.Table:
        return _synth_edges_batch(batch, n).to_arrow()

    return read_spread(f"{sf_dir}/documents.parquet",
                       columns=["doc_id"]).map_batches(
        f, batch_format="pyarrow")


def pagerank_scores(sf_dir: str, iters: int = ITERS,
                    damping: float = DAMPING) -> ray.data.Dataset:
    """(doc_id, score) after ``iters`` damped power iterations over the
    synthetic graph — the full bucketed pipeline (edge spill → per-bucket
    contribution/apply exchanges), with a content-keyed result cache like
    the other derived-table entries."""
    from .textstats import read_spread

    from ..cachedir import ensure_cached_dir, source_key

    def build(tmp: str) -> None:
        n = _n_docs(sf_dir)
        edges_dir = f"{tmp}/edges"
        doclist_dir = f"{tmp}/doclists"
        os.makedirs(edges_dir)
        os.makedirs(doclist_dir)

        def emit(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table({"rows": pa.array([], pa.int64())})
            e = _synth_edges_batch(batch, n).with_columns(
                (pl.col("src") % N_BUCKETS).cast(pl.Int32).alias("sbucket")
            ).sort("sbucket").select("sbucket", "src", "dst", "w")
            mn = int(batch.column("doc_id")[0].as_py())
            write_bucketed(e.to_arrow().cast(_EDGE_SCHEMA),
                           f"{edges_dir}/e-{mn:012d}.parquet",
                           "sbucket", N_BUCKETS)
            return pa.table({"rows": pa.array([e.height], pa.int64())})

        (read_spread(f"{sf_dir}/documents.parquet", columns=["doc_id"])
         .map_batches(emit, batch_format="pyarrow").materialize())

        def doclist(b: int) -> None:
            import pyarrow.parquet as pq

            ids = np.arange(b, n, N_BUCKETS, dtype=np.int64)
            pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64())}),
                           f"{doclist_dir}/d-b{b:02d}.parquet")

        dl_t = ray.remote(num_cpus=0.5)(doclist)
        ray.get([dl_t.remote(b) for b in range(N_BUCKETS)])
        doclists = [f"{doclist_dir}/d-b{b:02d}.parquet"
                    for b in range(N_BUCKETS)]
        shard_files = pagerank(edges_dir, doclists, n, tmp,
                               iters=iters, damping=damping)
        out_dir = f"{tmp}/final"
        os.makedirs(out_dir)
        for i, f in enumerate(shard_files):
            shutil.copy(f, f"{out_dir}/part-{i:02d}.parquet")
        # only final/ is ever read back: drop the edge spill, doclists and
        # per-iteration score generations before the rename so the cache
        # dir doesn't retain ~(edges + iters × score-vector) of /tmp
        for sub in ("edges", "doclists", "scores", "contrib"):
            shutil.rmtree(f"{tmp}/{sub}", ignore_errors=True)

    final = ensure_cached_dir(
        "/tmp/indri55_pagerank",
        source_key(f"{sf_dir}/documents.parquet",
                   f"i{iters}-d{damping}-v2"), build)
    return ray.data.read_parquet(f"{final}/final")


def anchor_stats(sf_dir: str) -> ray.data.Dataset:
    """(dst, n_inlinks, n_distinct_src) from REAL HTML anchor extraction
    over a deterministic synthetic HTML corpus — doc i's page embeds its
    text plus links ``http://t/{(i·7 + j·13) mod N}`` for j in
    1..(1 + i%2), so the extraction+aggregation pipeline
    (:func:`harvest_links` → :func:`anchor_counts`) has an exact SQL
    oracle over the documents view."""
    from .textstats import read_spread

    n = _n_docs(sf_dir)

    def to_html(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        urls, pages = [], []
        for i, text in zip(ids, texts):
            links = "".join(
                f'<a href="http://t/{(i * 7 + j * 13) % n}">anchor {j}</a>'
                for j in range(1, 2 + i % 2))
            urls.append(f"http://src/{i}")
            pages.append(f"<html><body><p>{text}</p>{links}</body></html>")
        return pa.table({"url": pa.array(urls, pa.string()),
                         "content": pa.array(pages, pa.string())})

    path = f"{sf_dir}/documents.parquet"
    docs = read_spread(path, columns=["doc_id", "text"]).map_batches(
        to_html, batch_format="pyarrow")
    return anchor_counts(harvest_links(docs), source_path=path,
                         version="stats-v1")


def build_pagerank_prior(sf_dir: str, index_dir: str,
                         name: str = "pagerank") -> str:
    """Materialize the PageRank scores as a ``#prior(name)`` table under an
    index (log-space, the makeprior ingestion path) — the seam the
    reference feeds with PageRank.cpp output."""
    scores = pagerank_scores(sf_dir)

    def to_log(batch: pa.Table) -> pa.Table:
        s = np.maximum(batch.column("score").to_numpy(), 1e-300)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "log_prior": pa.array(np.log(s), pa.float64())})

    import pyarrow.parquet as pq

    os.makedirs(f"{index_dir}/priors", exist_ok=True)
    out_dir = f"{index_dir}/priors/{name}"
    shutil.rmtree(out_dir, ignore_errors=True)
    from pathlib import Path

    Path(f"{index_dir}/priors/{name}.parquet").unlink(missing_ok=True)
    scores.map_batches(to_log, batch_format="pyarrow").write_parquet(out_dir)
    return out_dir
