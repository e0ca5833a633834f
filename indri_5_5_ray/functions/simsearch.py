"""Similarity search over the ``embeddings`` table (list<float> column).

* ``knn_bruteforce`` — exact cosine top-k: the query matrix is broadcast once
  via ``ray.put`` and every batch does one numpy matmul against it
  (per-batch partial top-k, final top-k merge at the driver) — the baseline
  ANN path;
* ``cosine_pairs`` — all pairs above a cosine threshold (block-wise matmul);
* ``lsh_ann_topk`` — random-hyperplane LSH bucketing as the scale path:
  signature buckets shrink the candidate set, then exact cosine re-ranks;
  recall measured against brute force in tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data


def _emb(sf_dir: str) -> ray.data.Dataset:
    from .textstats import read_spread

    return read_spread(f"{sf_dir}/embeddings.parquet", columns=None)


def _batch_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = batch.column("vec_id").to_numpy()
    col = batch.column("embedding").combine_chunks()
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else pa.concat_arrays(col.chunks)
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(flat) // len(ids) if len(ids) else 0
    return ids, flat.reshape(len(ids), dim)


def _first_n_by_vec_id(path: str, n: int) -> pa.Table:
    """Exact first-``n``-by-``vec_id`` rows reading only the row groups that
    can contain them (vec_id min statistics), so driver memory stays O(n + a
    few row groups) no matter how large the table is.  Correct for ANY row
    layout: a row group is skipped only once its min vec_id exceeds the n-th
    smallest id already in hand."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    md = pf.metadata
    empty = pf.schema_arrow.empty_table().select(["vec_id", "embedding"])
    if n <= 0 or md.num_row_groups == 0:
        return empty
    vec_idx = md.schema.to_arrow_schema().get_field_index("vec_id")
    # (min vec_id, rg) per row group; min = None when stats are missing →
    # that group is never prunable and sorts first (read unconditionally)
    ranked: list[tuple[int | None, int]] = []
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(vec_idx).statistics
        has = st is not None and st.has_min_max
        ranked.append((st.min if has else None, rg))
    ranked.sort(key=lambda p: (p[0] is not None, p[0] if p[0] is not None else 0))
    tables: list[pa.Table] = []
    pending: list[np.ndarray] = []  # ids not yet folded into `smallest`
    smallest: np.ndarray | None = None  # the n smallest ids seen, sorted
    got = 0
    for rg_min, rg in ranked:
        if smallest is not None and rg_min is not None and rg_min > smallest[-1]:
            break  # this and every later (stat-bearing) group starts above the cut
        tables.append(pf.read_row_group(rg, columns=["vec_id", "embedding"]))
        pending.append(tables[-1].column("vec_id").to_numpy())
        got += tables[-1].num_rows
        if got >= n:
            # fold: keep only the n smallest — O(n + group rows) per group,
            # not a re-scan of everything read so far
            cur = np.concatenate(
                ([smallest] if smallest is not None else []) + pending)
            smallest = np.sort(np.partition(cur, n - 1)[:n])
            pending, got = [], n
    return pa.concat_tables(tables).sort_by("vec_id").slice(0, n)


def load_query_matrix(sf_dir: str, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    """First n_queries vectors by vec_id (deterministic query set); reads
    only the row groups that can contain them."""
    ids, m = _batch_matrix(_first_n_by_vec_id(
        f"{sf_dir}/embeddings.parquet", n_queries))
    return ids, m


def knn_bruteforce(sf_dir: str, n_queries: int = 10, k: int = 10) -> pa.Table:
    """(query_id, rank, vec_id, cosine) exact top-k by cosine.

    Tie-break: cosine desc, then vec_id asc. Scores in float64; cosine is
    rounded to 6 decimals in the output (and in the SQL oracle)."""
    q_ids, Q = load_query_matrix(sf_dir, n_queries)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    q_ref = ray.put((q_ids, Qn))

    def partial_topk(batch: pa.Table) -> pa.Table:
        q_ids_, Qn_ = ray.get(q_ref)
        ids, M = _batch_matrix(batch)
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        S = Qn_ @ Mn.T  # (nq, nb)
        nb = S.shape[1]
        kk = min(k, nb)
        out_q, out_v, out_c = [], [], []
        for qi in range(S.shape[0]):
            # partial top-k must honor the final tie-break (cos desc, vec_id
            # asc) or ties straddling the cut lose the wrong members
            idx = np.lexsort((ids, -S[qi]))[:kk]
            out_q.extend([int(q_ids_[qi])] * len(idx))
            out_v.extend(ids[idx].tolist())
            out_c.extend(S[qi, idx].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cosine": pa.array(out_c, pa.float64()),
            }
        )

    parts = _emb(sf_dir).map_batches(partial_topk, batch_format="pyarrow")
    t = parts.materialize().to_arrow_refs()
    tables = [ray.get(r) for r in t]
    allt = pa.concat_tables([x for x in tables if x.num_rows])
    qs = allt.column("query_id").to_numpy()
    vs = allt.column("vec_id").to_numpy()
    cs = allt.column("cosine").to_numpy()
    rows = {"query_id": [], "rank": [], "vec_id": [], "cosine": []}
    for q in np.unique(qs):
        m = qs == q
        order = np.lexsort((vs[m], -cs[m]))[:k]
        rows["query_id"].extend([int(q)] * len(order))
        rows["rank"].extend(range(1, len(order) + 1))
        rows["vec_id"].extend(vs[m][order].tolist())
        rows["cosine"].extend(np.round(cs[m][order], 6).tolist())
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "vec_id": pa.array(rows["vec_id"], pa.int64()),
            "cosine": pa.array(rows["cosine"], pa.float64()),
        }
    )


def cosine_pairs(sf_dir: str, tau: float = 0.4,
                 block_rows: int = 4096) -> pa.Table:
    """(vec_id_a, vec_id_b, cosine) pairs with cosine ≥ tau, a < b.  Exact.

    Block-pair plan: the dataset is cut into ~``block_rows`` blocks that live
    in the object store ONCE (normalized by one task each); one Ray task per
    block pair (i ≤ j) does a single matmul and emits only the ≥ tau hits.
    Nothing reads the full matrix: per-task memory is two blocks, the driver
    holds only the (output-sized) hit tables, and the O(N²) compute — which
    exact all-pairs inherently costs — is spread over N²/(2·block²)
    independent tasks.  For an approximate sub-quadratic path at 100 TB use
    ``lsh_ann_topk``'s hyperplane bucketing."""
    empty = pa.table(
        {"vec_id_a": pa.array([], pa.int64()), "vec_id_b": pa.array([], pa.int64()),
         "cosine": pa.array([], pa.float64())}
    )

    @ray.remote(num_cpus=1)
    def norm_block(t: pa.Table):
        ids, M = _batch_matrix(t)
        return ids, M / np.linalg.norm(M, axis=1, keepdims=True)

    @ray.remote(num_cpus=1)
    def block_pair(a, b, same: bool) -> pa.Table:
        ids_a, A = a
        ids_b, B = b
        S = np.round(A @ B.T, 6)  # threshold on the rounded value, like the oracle
        I, J = np.nonzero(S >= tau)
        if same:
            keep = ids_a[I] < ids_b[J]
            I, J = I[keep], J[keep]
        if not len(I):
            return empty
        lo = np.minimum(ids_a[I], ids_b[J])
        hi = np.maximum(ids_a[I], ids_b[J])
        return pa.table({
            "vec_id_a": pa.array(lo, pa.int64()),
            "vec_id_b": pa.array(hi, pa.int64()),
            "cosine": pa.array(S[I, J], pa.float64()),
        })

    blocks = _emb(sf_dir).map_batches(
        lambda t: t, batch_size=block_rows, batch_format="pyarrow"
    ).materialize().to_arrow_refs()
    nrefs = [norm_block.remote(r) for r in blocks]
    tasks = [
        block_pair.remote(nrefs[i], nrefs[j], i == j)
        for i in range(len(nrefs))
        for j in range(i, len(nrefs))
    ]
    tables = [t for t in ray.get(tasks) if t.num_rows]
    if not tables:
        return empty
    return pa.concat_tables(tables).sort_by([("vec_id_a", "ascending"), ("vec_id_b", "ascending")])


# expected vectors per LSH bucket the auto-derived plane count targets:
# in-bucket matmul work is (bucket size)², so this bounds per-task compute
# and memory independently of corpus size
LSH_TARGET_BUCKET = 512


def embedding_lsh_pairs(sf_dir: str, tau: float = 0.4, n_tables: int = 8,
                        planes: int | None = None) -> ray.data.Dataset:
    """(vec_id_a, vec_id_b, cosine) near-dup candidate pairs from banded
    hyperplane LSH, exact-cosine VERIFIED in-bucket — the sub-quadratic
    edge generator :func:`~..dedup.embedding_dup_clusters`'s docstring
    routes 100 TB corpora to (its exact block-matmul twin is
    :func:`cosine_pairs`).

    ``n_tables`` independent hyperplane tables of ``planes`` planes each
    bucket the vectors (banding, exactly like MinHash-LSH: per-table
    collision probability (1 - θ/π)^planes, union over tables); within a
    bucket one vectorized matmul emits only the pairs whose EXACT rounded
    cosine ≥ tau, so every output pair is true — the approximation is
    RECALL only (pairs whose vectors collide in no table are missed;
    measured against :func:`cosine_pairs` in tests/bench).  Pairs found
    by several tables are deduplicated in the pair-hash stage.

    ``planes`` MUST grow with the corpus or the route degenerates to
    quadratic (expected bucket size is N/2^planes; in-bucket work is its
    square).  The default (``None``) derives it from the table's row
    count so expected buckets hold ~LSH_TARGET_BUCKET vectors — at 1M
    vectors that is 11 planes, at 1B it is 21 — trading per-table recall
    (each extra plane multiplies it by ~(1-θ/π)) for bounded per-bucket
    work; raise ``n_tables`` alongside when recall matters at scale.
    Hot buckets (mass-identical embeddings) are still capped at
    MAX_PAIR_GROUP vectors — deterministically, keeping the LOWEST
    vec_ids so reruns emit identical edges — with a logged warning, the
    shingle-pair bound.

    ``n_tables=1, planes=0`` puts everything in ONE bucket → exactly the
    ``cosine_pairs`` output (pytest-pinned twin) — the exactness
    configuration, quadratic by construction, for verification only on
    inputs of ≤ MAX_PAIR_GROUP vectors.

    Shuffle plan: one :func:`.exchange.pair_exchange`.  Its map pass
    emits one (vec_id, embedding, tcode) row per vector per table —
    the exchange replicates each embedding ``n_tables`` times by
    construction (banding needs the vector co-located in EVERY table's
    bucket to verify cosines in-bucket; that factor is the price of
    precision 1.0 and bounds total shuffled bytes at n_tables × corpus).
    Stage 1 verifies cosines per (table, code) bucket within each
    tcode-hash bucket; stage 2 keeps one row per pair (the max of its
    identical rounded cosines) per pair-hash bucket.  Edges feed
    ``_components_assign`` / ``connected_components_dist`` unchanged."""
    import logging

    import polars as pl

    from .dedup import MAX_PAIR_GROUP
    from .exchange import bucket_count, pair_exchange

    logger = logging.getLogger(__name__)
    path = f"{sf_dir}/embeddings.parquet"
    cap = MAX_PAIR_GROUP
    rng = np.random.default_rng(LSH_SEED)
    if planes is None:
        import pyarrow.parquet as _pq

        n_rows = _pq.read_metadata(path).num_rows
        planes = int(min(24, max(
            4, np.ceil(np.log2(max(1, n_rows / LSH_TARGET_BUCKET))))))
    planes = max(0, planes)

    # per-table plane matrices, derived from one stream; dim from the schema
    first = _first_n_by_vec_id(path, 1)
    _, m0 = _batch_matrix(first)
    dim = m0.shape[1] if m0.size else 0
    H = [rng.standard_normal((planes, dim)) for _ in range(n_tables)]
    h_ref = ray.put(H)

    def bucketize(df: pl.DataFrame) -> pl.DataFrame:
        ids, M = _batch_matrix(df.to_arrow())
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        out = []
        for t, Ht in enumerate(ray.get(h_ref)):
            if planes:
                sig = (Mn @ Ht.T > 0).astype(np.int64)
                code = (sig << np.arange(planes, dtype=np.int64)).sum(axis=1)
            else:
                code = np.zeros(len(ids), np.int64)
            # table id in the high bits → (table, code) is one int key
            out.append(df.with_columns(
                pl.Series("tcode", (np.int64(t) << 32) | code)))
        return pl.concat(out)

    def verified_pairs(df: pl.DataFrame) -> pl.DataFrame:
        ids, M = _batch_matrix(df.to_arrow())
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        codes = df["tcode"].to_numpy()
        o_a, o_b, o_c = ([np.empty(0, np.int64)], [np.empty(0, np.int64)],
                         [np.empty(0)])
        for c in np.unique(codes):
            idx = np.nonzero(codes == c)[0]
            if len(idx) < 2:
                continue
            if len(idx) > cap:
                logger.warning(
                    "embedding LSH bucket cap: %d vectors in one bucket; "
                    "truncated to the %d lowest vec_ids", len(idx), cap)
                # keep the LOWEST vec_ids: row order is a scheduling
                # artifact, so a positional prefix would vary run to run
                idx = idx[np.argsort(ids[idx])[:cap]]
            A = Mn[idx]
            S = np.round(A @ A.T, 6)  # same rounding rule as cosine_pairs
            I, J = np.nonzero(S >= tau)
            keep = ids[idx[I]] < ids[idx[J]]
            I, J = I[keep], J[keep]
            o_a.append(ids[idx[I]])
            o_b.append(ids[idx[J]])
            o_c.append(S[I, J])
        return pl.DataFrame({"vec_id_a": np.concatenate(o_a),
                             "vec_id_b": np.concatenate(o_b),
                             "cosine": np.concatenate(o_c)})

    pair_schema = pa.schema([("vec_id_a", pa.int64()),
                             ("vec_id_b", pa.int64()),
                             ("cosine", pa.float64())])
    return pair_exchange(
        _emb(sf_dir), cache_root="/tmp/indri55_pairs", source_path=path,
        version=(f"emb-v1-tau{tau}-t{n_tables}-p{planes}-seed{LSH_SEED}"
                 f"-cap{cap}"),
        n_buckets=bucket_count(path), key_col="tcode",
        map_kernel=bucketize, map_columns=("vec_id", "embedding"),
        pair_kernel=verified_pairs, pair_schema=pair_schema,
        aggs=[pl.col("cosine").max()], out_schema=pair_schema)


# ---------------------------------------------------------------------------
# LSH ANN (scale path)
# ---------------------------------------------------------------------------

LSH_PLANES = 12
LSH_SEED = 1234


def _hyperplanes(dim: int) -> np.ndarray:
    rng = np.random.default_rng(LSH_SEED)
    return rng.standard_normal((LSH_PLANES, dim))


def lsh_ann_topk(sf_dir: str, n_queries: int = 10, k: int = 10,
                 probe_bits: int = 1) -> pa.Table:
    """(query_id, rank, vec_id, cosine) approximate top-k.

    Random-hyperplane signatures bucket the corpus (actor-side signature
    computation per batch); queries probe their own bucket plus all buckets
    within ``probe_bits`` Hamming distance, then exact cosine re-ranks the
    candidates. Deterministic (fixed seed)."""
    q_ids, Q = load_query_matrix(sf_dir, n_queries)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    H = _hyperplanes(Q.shape[1])
    q_sig = (Qn @ H.T > 0).astype(np.uint32)
    q_codes = (q_sig << np.arange(LSH_PLANES, dtype=np.uint32)).sum(axis=1)

    import itertools

    wanted: set[int] = set()
    for code in q_codes.tolist():
        wanted.add(code)
        for nbits in range(1, probe_bits + 1):
            for bits in itertools.combinations(range(LSH_PLANES), nbits):
                flipped = code
                for b in bits:
                    flipped ^= 1 << b
                wanted.add(flipped)
    h_ref = ray.put((H, wanted))

    def bucket_filter(batch: pa.Table) -> pa.Table:
        H_, wanted_ = ray.get(h_ref)
        ids, M = _batch_matrix(batch)
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        sig = (Mn @ H_.T > 0).astype(np.uint32)
        codes = (sig << np.arange(LSH_PLANES, dtype=np.uint32)).sum(axis=1)
        mask = np.array([c in wanted_ for c in codes.tolist()])
        if not mask.any():
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "embedding": pa.array([], pa.list_(pa.float32()))})
        return batch.filter(pa.array(mask))

    # distributed exact re-rank over the candidates: per-batch partial top-k
    # (same shape as knn_bruteforce) — the driver merges only k·batches rows,
    # so a huge probed bucket never materializes at the driver
    q_ref2 = ray.put((q_ids, Qn))

    def partial_topk(batch: pa.Table) -> pa.Table:
        q_ids_, Qn_ = ray.get(q_ref2)
        ids, M = _batch_matrix(batch)
        if not len(ids):
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        S = Qn_ @ Mn.T
        kk = min(k, S.shape[1])
        out_q, out_v, out_c = [], [], []
        for qi in range(S.shape[0]):
            idx = np.lexsort((ids, -S[qi]))[:kk]
            out_q.extend([int(q_ids_[qi])] * len(idx))
            out_v.extend(ids[idx].tolist())
            out_c.extend(S[qi, idx].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cosine": pa.array(out_c, pa.float64()),
            }
        )

    cands = _emb(sf_dir).map_batches(bucket_filter, batch_format="pyarrow")
    parts = cands.map_batches(partial_topk, batch_format="pyarrow")
    tables = [x for x in (ray.get(r) for r in parts.materialize().to_arrow_refs()) if x.num_rows]
    if not tables:
        return pa.table({"query_id": pa.array([], pa.int64()), "rank": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64()), "cosine": pa.array([], pa.float64())})
    allt = pa.concat_tables(tables)
    qs = allt.column("query_id").to_numpy()
    vs = allt.column("vec_id").to_numpy()
    cs = allt.column("cosine").to_numpy()
    rows = {"query_id": [], "rank": [], "vec_id": [], "cosine": []}
    for q in q_ids.tolist():
        m = qs == q
        order = np.lexsort((vs[m], -cs[m]))[:k]
        rows["query_id"].extend([int(q)] * len(order))
        rows["rank"].extend(range(1, len(order) + 1))
        rows["vec_id"].extend(vs[m][order].tolist())
        rows["cosine"].extend(np.round(cs[m][order], 6).tolist())
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "vec_id": pa.array(rows["vec_id"], pa.int64()),
            "cosine": pa.array(rows["cosine"], pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# IVF ANN (coarse-quantizer scale path)
# ---------------------------------------------------------------------------

IVF_SEED = 777


def _load_sample(sf_dir: str, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``n_rows`` vectors by vec_id — stat-pruned row-group reads, so
    driver memory is bounded regardless of table size."""
    return _batch_matrix(
        _first_n_by_vec_id(f"{sf_dir}/embeddings.parquet", n_rows))


def _normalize(M: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(M, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return M / n


def train_centroids(sample: np.ndarray, n_centroids: int,
                    iters: int = 10) -> np.ndarray:
    """Spherical k-means on a FIXED-SIZE sample (deterministic seed).

    The sample is driver-side by design: IVF coarse quantizers train on a
    bounded subsample regardless of corpus size (the standard FAISS recipe),
    so this stays O(sample × centroids) at 100 TB."""
    rng = np.random.default_rng(IVF_SEED)
    Mn = _normalize(sample.astype(np.float64))
    n_centroids = min(n_centroids, len(Mn))
    C = Mn[rng.choice(len(Mn), size=n_centroids, replace=False)]
    for _ in range(iters):
        assign = (Mn @ C.T).argmax(axis=1)
        sums = np.zeros_like(C)
        np.add.at(sums, assign, Mn)
        counts = np.bincount(assign, minlength=n_centroids)
        nonempty = counts > 0
        C = np.where(nonempty[:, None], sums, C)
        C = _normalize(C)
    return C


def ivf_assign(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Nearest-centroid list id per (unnormalized) vector; ties → lowest id
    (argmax picks the first maximum — deterministic)."""
    return (_normalize(M.astype(np.float64)) @ C.T).argmax(axis=1)


def ivf_partition(sf_dir: str, out_dir: str, n_centroids: int = 16,
                  train_rows: int = 2048) -> np.ndarray:
    """Build the IVF structure: vectors written as parquet partitioned by
    coarse list id (``out_dir/list=<id>/``), so a query reads ONLY its probed
    lists (partition pruning — the IVF inverted-file idea expressed as
    storage layout).  Returns the centroid matrix."""
    import json as _json
    import os as _os

    _, sample = _load_sample(sf_dir, train_rows)
    C = train_centroids(sample, n_centroids)
    import shutil as _shutil

    _shutil.rmtree(_os.path.join(out_dir, "data"), ignore_errors=True)
    _os.makedirs(out_dir, exist_ok=True)
    with open(_os.path.join(out_dir, "centroids.json"), "w") as fh:
        _json.dump(C.tolist(), fh)
    c_ref = ray.put(C)

    def tag(batch: pa.Table) -> pa.Table:
        ids, M = _batch_matrix(batch)
        lists = ivf_assign(M, ray.get(c_ref))
        return batch.append_column("list", pa.array(lists, pa.int32()))

    ds = _emb(sf_dir).map_batches(tag, batch_format="pyarrow")
    # vectors under data/ so the sibling centroids.json never pollutes the
    # parquet dataset scan
    ds.write_parquet(_os.path.join(out_dir, "data"), partition_cols=["list"])
    return C


def ivf_ann_topk(sf_dir: str, n_queries: int = 10, k: int = 10,
                 n_centroids: int = 16, nprobe: int = 4,
                 train_rows: int = 2048,
                 index_dir: str | None = None) -> pa.Table:
    """(query_id, rank, vec_id, cosine) approximate top-k via IVF probing.

    Coarse path: spherical-k-means centroids (fixed sample + seed); each
    query scores ONLY vectors in its own ``nprobe`` nearest lists (a
    per-query probe mask — results are independent of which other queries
    share the call), with the same distributed partial-top-k re-rank as
    ``knn_bruteforce`` (driver merges only k rows per batch — no candidate
    materialization).  With ``index_dir`` (built by :func:`ivf_partition`)
    only the UNION of probed lists is read at all, via partition pruning;
    without it, assignment happens inline per batch (one extra matmul) over
    the raw embeddings table."""
    import os as _os

    q_ids, Q = load_query_matrix(sf_dir, n_queries)
    if not len(q_ids):
        return pa.table({
            "query_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        })
    Qn = _normalize(Q)
    if index_dir is None:
        _, sample = _load_sample(sf_dir, train_rows)
        C = train_centroids(sample, n_centroids)
    else:
        import json as _json

        with open(_os.path.join(index_dir, "centroids.json")) as fh:
            C = np.asarray(_json.load(fh), dtype=np.float64)
    nprobe = min(nprobe, len(C))
    q_lists = np.argsort(-(Qn @ C.T), axis=1, kind="stable")[:, :nprobe]
    probed = set(map(int, np.unique(q_lists)))
    ref = ray.put((C, probed, q_ids, Qn, q_lists))

    def partial_topk(batch: pa.Table) -> pa.Table:
        C_, probed_, q_ids_, Qn_, q_lists_ = ray.get(ref)
        ids, M = _batch_matrix(batch)
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "vec_id": pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        if not len(ids):
            return empty
        if "list" in batch.column_names:
            # hive partition values are read back as strings
            lists = batch.column("list").to_numpy(
                zero_copy_only=False).astype(np.int64)
        else:
            lists = ivf_assign(M, C_)
        mask = np.isin(lists, np.fromiter(probed_, np.int64))
        if not mask.any():
            return empty
        ids, M, lists = ids[mask], M[mask], lists[mask]
        Mn = _normalize(M)
        S = Qn_ @ Mn.T
        # per-query probe gate: query qi may only see vectors whose list is
        # among ITS nprobe lists (not the batch-level union)
        allowed = (lists[None, None, :] == q_lists_[:, :, None]).any(axis=1)
        S = np.where(allowed, S, -np.inf)
        kk = min(k, S.shape[1])
        out_q, out_v, out_c = [], [], []
        for qi in range(S.shape[0]):
            idx = np.lexsort((ids, -S[qi]))[:kk]
            keep = S[qi, idx] > -np.inf
            idx = idx[keep]
            out_q.extend([int(q_ids_[qi])] * len(idx))
            out_v.extend(ids[idx].tolist())
            out_c.extend(S[qi, idx].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64()),
                         "cosine": pa.array(out_c, pa.float64())})

    if index_dir is not None:
        # explicit partition pruning: only the probed lists' directories are
        # ever listed or read
        files = [
            _os.path.join(d, f)
            for d in (_os.path.join(index_dir, "data", f"list={i}")
                      for i in sorted(probed))
            if _os.path.isdir(d)
            for f in sorted(_os.listdir(d)) if f.endswith(".parquet")
        ]
        src = ray.data.read_parquet(files) if files else None
    else:
        src = _emb(sf_dir)
    if src is None:  # no probed list has a partition directory → no hits
        tables: list[pa.Table] = []
    else:
        parts = src.map_batches(partial_topk, batch_format="pyarrow")
        tables = [x for x in (ray.get(r) for r in parts.materialize().to_arrow_refs())
                  if x.num_rows]
    rows = {"query_id": [], "rank": [], "vec_id": [], "cosine": []}
    if tables:
        allt = pa.concat_tables(tables)
        qs = allt.column("query_id").to_numpy()
        vs = allt.column("vec_id").to_numpy()
        cs = allt.column("cosine").to_numpy()
        for q in q_ids.tolist():
            m = qs == q
            order = np.lexsort((vs[m], -cs[m]))[:k]
            rows["query_id"].extend([int(q)] * len(order))
            rows["rank"].extend(range(1, len(order) + 1))
            rows["vec_id"].extend(vs[m][order].tolist())
            rows["cosine"].extend(np.round(cs[m][order], 6).tolist())
    return pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "rank": pa.array(rows["rank"], pa.int64()),
        "vec_id": pa.array(rows["vec_id"], pa.int64()),
        "cosine": pa.array(rows["cosine"], pa.float64()),
    })
