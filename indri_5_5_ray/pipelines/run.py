"""Parallel query execution: actor-pool fan-out over a query set.

The Ray analogue of IndriRunQuery's thread-per-query pool
(ref:runquery/IndriRunQuery.cpp:692-792): round-robin query slices run as
plain warm Ray tasks whose worker state (open index, dictionary/doc-length
caches, statistics memos) lives in a process global — actor semantics via
Ray's worker-process reuse, without actor-pool spawn/ramp/dispatch overhead
(the fixed work list makes the Dataset streaming executor pure overhead
here; same pattern as the ingest task mode).  At multi-node scale the same
workers run one pool per doc-range index shard with a driver-side merge
using the exact tie-break (ref:src/QueryEnvironment.cpp:985-988).
"""

from __future__ import annotations

import time

import pyarrow as pa
import ray

from .query import BM25Scorer, IndexReader, process_query


def _reg_snapshot() -> dict:
    from .. import registry as _registry

    return _registry.snapshot()


# Process-global worker reuse for the plain-task query scatter: Ray reuses
# warm worker processes across tasks, so the per-worker state (open index,
# dictionary/doc-length caches, statistics memos) persists exactly as it
# would in an actor — without actor-pool spawn/ramp-up/dispatch overhead.
# Same state model as stages.ingest.get_process_worker; measured 3-7×
# faster than the autoscaling actor-pool map_batches on 100-query sets.
_PROCESS_QUERY_WORKERS: dict = {}


def _process_query_worker(key: tuple, ctor):
    w = _PROCESS_QUERY_WORKERS.get(key)
    if w is None:
        if len(_PROCESS_QUERY_WORKERS) >= 4:  # bound resident reader state
            _PROCESS_QUERY_WORKERS.clear()
        w = ctor()
        _PROCESS_QUERY_WORKERS[key] = w
    return w


def _pool_width(concurrency: tuple[int, int] | int) -> int:
    return max(concurrency) if isinstance(concurrency, tuple) else int(concurrency)


class QueryWorker:
    """Actor-pool batch retrieval with docno lookup + per-query latency.

    ``kind`` selects the engine like :class:`ShardedQueryWorker`:
    "bm25" (okapi), "lm" (#combine language model), or "structured"
    (full indriql); ``method`` is the LM smoothing of the last two
    (dirichlet | jm | two) and must name one for every kind."""

    def __init__(self, index_dir: str, k: int = 1000, method: str = "dirichlet",
                 registry_snapshot: dict | None = None, kind: str = "bm25",
                 mu: float = 2500.0, lam: float = 0.4):
        if registry_snapshot:
            from .. import registry as _registry

            _registry.restore(registry_snapshot)
        from .lm import LMScorer

        if method not in LMScorer._METHODS:
            raise ValueError(f"unknown smoothing method {method!r} "
                             f"(one of {LMScorer._METHODS})")
        self.reader = IndexReader(index_dir)
        self.kind = kind
        if kind == "bm25":
            self.scorer = BM25Scorer(self.reader)
        elif kind == "lm":
            self.scorer = LMScorer(self.reader, method=method, mu=mu, lam=lam)
        elif kind == "structured":
            from .indriql import StructuredQueryEngine

            self.scorer = StructuredQueryEngine(self.reader, method=method,
                                                mu=mu, lam=lam)
        else:
            raise ValueError(f"unknown query kind {kind!r}")
        self.k = k
        self.reader.doc_lens()  # warm once per actor

    def _score(self, text: str):
        if self.kind == "bm25":
            terms = process_query(text, self.reader.cfg)
            return self.scorer.score_exhaustive(terms, k=self.k)
        if self.kind == "lm":
            from .feedback import process_query_lm

            return self.scorer.score(
                process_query_lm(text, self.reader.cfg), k=self.k)
        return self.scorer.run(text, k=self.k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"qid": [], "rank": [], "doc_id": [], "docno": [], "score": [],
               "latency_ms": []}
        for qid, text in zip(
            batch.column("qid").to_pylist(), batch.column("text").to_pylist()
        ):
            t0 = time.perf_counter()
            ids, scores = self._score(text)
            ms = (time.perf_counter() - t0) * 1000
            n = len(ids)
            out["qid"].extend([qid] * n)
            out["rank"].extend(range(1, n + 1))
            out["doc_id"].extend(ids.tolist())
            out["score"].extend(scores.tolist())
            out["latency_ms"].extend([ms] * n)
        # one batched docno lookup for the whole query batch (the lookup is
        # a doc_id-filtered parquet read, not a resident corpus dict)
        out["docno"] = self.reader.docnos(out["doc_id"])
        return pa.table(
            {
                "qid": pa.array(out["qid"], pa.string()),
                "rank": pa.array(out["rank"], pa.int64()),
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "docno": pa.array(out["docno"], pa.string()),
                "score": pa.array(out["score"], pa.float64()),
                "latency_ms": pa.array(out["latency_ms"], pa.float64()),
            }
        )


class StatsScatterWorker:
    """Per-shard partial statistics for structured queries — the
    distributed two-pass gather (ref:src/QueryEnvironment.cpp:228-260
    ``_sumServerQuery``): each (query, shard) item yields the query's node
    statistics computed from RANGE-PRUNED reads only; the driver sums
    partials across shards.  Keys are pickled node-identity tuples."""

    def __init__(self, index_dir: str, n_shards: int,
                 registry_snapshot: dict | None = None,
                 method: str = "dirichlet", mu: float = 2500.0,
                 lam: float = 0.4):
        if registry_snapshot:
            from .. import registry as _registry

            _registry.restore(registry_snapshot)
        from .indriql import StructuredQueryEngine

        self.reader = IndexReader(index_dir)
        self.engine = StructuredQueryEngine(self.reader, method=method,
                                            mu=mu, lam=lam)
        span = (self.reader.manifest["max_doc_id"] + n_shards) // n_shards
        self.ranges = [(s * span, (s + 1) * span) for s in range(n_shards)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pickle

        keys: list[bytes] = []
        vals: list[float] = []
        consts: list[bool] = []
        shards: list[int] = []
        for text, shard in zip(batch.column("text").to_pylist(),
                               batch.column("shard").to_pylist()):
            part, const = self.engine.partial_stats(text, self.ranges[shard])
            for k, v in part.items():
                keys.append(pickle.dumps(k))
                vals.append(float(v))
                consts.append(False)
                shards.append(shard)
            for k, v in const.items():
                keys.append(pickle.dumps(k))
                vals.append(float(v))
                consts.append(True)
                shards.append(shard)
        return pa.table({
            "key": pa.array(keys, pa.binary()),
            "val": pa.array(vals, pa.float64()),
            "is_const": pa.array(consts, pa.bool_()),
            "shard": pa.array(shards, pa.int32()),
        })


def _gather_structured_stats(
    index_dir: str,
    queries: list[tuple[str, str]],
    n_shards: int,
    concurrency: tuple[int, int] | int,
    method: str,
    mu: float,
    lam: float,
) -> dict:
    """Distributed statistics pass: scatter (query × shard) partial-count
    tasks, sum per node key on the driver (dedup per (key, shard) — two
    queries sharing a node report the same shard partial twice).  The
    driver itself never opens a posting list."""
    import pickle

    import ray as _ray

    items = [
        (q, t, s)
        for q, t in queries
        for s in range(n_shards)
    ]
    snap = _reg_snapshot()
    wkey = ("stats", index_dir, n_shards, method, mu, lam)

    @ray.remote(num_cpus=1)
    def _stats_slice(sl: list[tuple[str, str, int]]) -> pa.Table:
        w = _process_query_worker(
            wkey, lambda: StatsScatterWorker(
                index_dir, n_shards, registry_snapshot=snap,
                method=method, mu=mu, lam=lam))
        return w(pa.table({
            "qid": pa.array([q for q, _, _ in sl], pa.string()),
            "text": pa.array([t for _, t, _ in sl], pa.string()),
            "shard": pa.array([s for _, _, s in sl], pa.int32()),
        }))

    width = _pool_width(concurrency)
    n_slices = max(1, min(len(items), 2 * width))
    slices = [items[i::n_slices] for i in range(n_slices)]
    per_shard: dict[tuple[bytes, int], float] = {}
    consts: dict[bytes, float] = {}
    for t in _ray.get([_stats_slice.remote(s) for s in slices if s]):
        if not t.num_rows or "key" not in t.column_names:
            continue
        for kb, v, c, s in zip(t.column("key").to_pylist(),
                               t.column("val").to_pylist(),
                               t.column("is_const").to_pylist(),
                               t.column("shard").to_pylist()):
            if c:
                consts[kb] = v
            else:
                per_shard[(kb, s)] = v
    memo: dict[tuple, float] = {}
    sums: dict[bytes, float] = {}
    for (kb, _s), v in per_shard.items():
        sums[kb] = sums.get(kb, 0.0) + v
    for kb, v in sums.items():
        memo[pickle.loads(kb)] = v
    for kb, v in consts.items():
        memo.setdefault(pickle.loads(kb), v)
    return memo


class ShardedQueryWorker:
    """Scores (query × doc-range shard) pairs — the multi-node query
    architecture: one worker set per doc-range partition, global statistics
    from the manifest, driver-side merge with the exact tie-break
    (ref:src/QueryEnvironment.cpp:111-122, 985-988).

    ``kind`` selects the scorer — "bm25" (okapi exhaustive), "lm"
    (#combine language model), or "structured" (the full indriql engine,
    windows/fields/priors included): the reference's distributed
    QueryEnvironment scatters EVERY query type the same way, because all
    scorers use collection-global statistics and doc-local evidence."""

    def __init__(self, index_dir: str, k: int, n_shards: int,
                 registry_snapshot: dict | None = None, kind: str = "bm25",
                 method: str = "dirichlet", mu: float = 2500.0,
                 lam: float = 0.4, stats_memo: dict | None = None):
        if registry_snapshot:
            from .. import registry as _registry

            _registry.restore(registry_snapshot)
        self.reader = IndexReader(index_dir)
        self.kind = kind
        self.pruned = False
        if kind == "bm25":
            self.scorer = BM25Scorer(self.reader)
        elif kind == "lm":
            from .lm import LMScorer

            self.scorer = LMScorer(self.reader, method=method, mu=mu, lam=lam)
        elif kind == "structured":
            from .indriql import StructuredQueryEngine

            self.scorer = StructuredQueryEngine(self.reader, method=method,
                                                mu=mu, lam=lam)
        elif kind == "rm3":
            # driver expands (feedback pass reads only fb-doc vectors);
            # workers score the expanded #weight model on their shard
            from .lm import LMScorer

            self.scorer = LMScorer(self.reader, method=method, mu=mu, lam=lam)
            self.expansions = {}
        else:
            raise ValueError(f"unknown query kind {kind!r}")
        if stats_memo:
            self.apply_stats(stats_memo)
        self.k = k
        span = (self.reader.manifest["max_doc_id"] + n_shards) // n_shards
        self.ranges = [(s * span, (s + 1) * span) for s in range(n_shards)]
        # NO full doc_lens warm-up: each scored shard loads only its own
        # doc-range dl slice (reader.doc_lens_range), so actor memory is
        # O(span), not O(index)

    def apply_stats(self, stats_memo: dict | None) -> None:
        """Install driver-gathered statistics on a (possibly reused) worker:
        structured → node-statistics memo enabling range-pruned reads;
        rm3 → per-qid expanded models (replaced per call)."""
        if self.kind == "structured":
            if stats_memo:
                self.scorer._cf_memo.update(stats_memo)
                self.pruned = True
        elif self.kind == "rm3":
            self.expansions = stats_memo or {}

    def _score(self, qid: str, text: str, rng: tuple[int, int]):
        if self.kind == "bm25":
            terms = process_query(text, self.reader.cfg)
            return self.scorer.score_exhaustive(terms, k=self.k, doc_range=rng)
        if self.kind == "lm":
            from .feedback import process_query_lm

            terms = process_query_lm(text, self.reader.cfg)
            return self.scorer.score(terms, k=self.k, doc_range=rng)
        if self.kind == "rm3":
            import numpy as _np

            expanded = self.expansions.get(qid, [])
            if not expanded:
                return _np.empty(0, _np.int64), _np.empty(0, _np.float64)
            return self.scorer.score_weighted(
                [tuple(tw) for tw in expanded], k=self.k, doc_range=rng)
        return self.scorer.run(text, k=self.k, doc_range=rng,
                               pruned=self.pruned)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"qid": [], "doc_id": [], "score": []}
        for qid, text, shard in zip(
            batch.column("qid").to_pylist(),
            batch.column("text").to_pylist(),
            batch.column("shard").to_pylist(),
        ):
            ids, scores = self._score(qid, text, self.ranges[shard])
            out["qid"].extend([qid] * len(ids))
            out["doc_id"].extend(ids.tolist())
            out["score"].extend(scores.tolist())
        return pa.table(
            {
                "qid": pa.array(out["qid"], pa.string()),
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "score": pa.array(out["score"], pa.float64()),
            }
        )


def run_queries_sharded(
    index_dir: str,
    queries: list[tuple[str, str]],
    k: int = 1000,
    n_shards: int = 4,
    concurrency: tuple[int, int] | int = (1, 8),
    kind: str = "bm25",
    method: str = "dirichlet",
    mu: float = 2500.0,
    lam: float = 0.4,
    fb_docs: int = 10,
    fb_terms: int = 20,
    orig_weight: float = 0.5,
) -> pa.Table:
    """Distributed per-query scoring over doc-range shards; per-shard top-k
    then a driver merge with score desc → doc_id desc. Identical results to
    ``run_queries`` (global statistics; rank-safe shard merge).  ``kind``
    = "bm25" | "lm" | "structured" | "rm3" (see
    :class:`ShardedQueryWorker`; rm3 expands on the driver and scatters
    the expanded model, fb_* control the feedback pass)."""
    import numpy as np
    import ray as _ray

    stats_memo: dict | None = None
    if kind == "rm3":
        # both RM3 passes are distributed: the INITIAL retrieval is the
        # sharded LM scatter (bit-identical to LMScorer.score), then the
        # driver does only the cheap expansion math per query (feedback-doc
        # vectors are direct-index point reads) and ships the expanded
        # #weight model, normalized exactly as rm3_search normalizes, so
        # shard scores are bit-identical to the single-process run
        from .feedback import rm_expand

        first = run_queries_sharded(
            index_dir, queries, k=fb_docs + 40, n_shards=n_shards,
            concurrency=concurrency, kind="lm", method=method, mu=mu,
            lam=lam)
        f_qids = np.array(first.column("qid").to_pylist())
        f_ids = first.column("doc_id").to_numpy()
        f_scores = first.column("score").to_numpy()
        reader = IndexReader(index_dir)
        stats_memo = {}
        for qid, text in queries:
            m = f_qids == qid
            expanded = rm_expand(reader, text, fb_docs=fb_docs,
                                 fb_terms=fb_terms, orig_weight=orig_weight,
                                 method=method, mu=mu, lam=lam,
                                 first_pass=(f_ids[m], f_scores[m]))
            if expanded:
                wa = np.array([w for _, w in expanded], dtype=np.float64)
                wa /= wa.sum()
                stats_memo[qid] = list(zip([t for t, _ in expanded],
                                           wa.tolist()))
    if kind == "structured":
        # statistics pass DISTRIBUTED (the reference's two-pass: per-server
        # partial sums, ref:src/QueryEnvironment.cpp:228-260): each shard
        # computes its range-pruned partial node counts; the driver only
        # sums — it never decodes a posting list
        stats_memo = _gather_structured_stats(
            index_dir, queries, n_shards, concurrency, method, mu, lam)

    items = [
        (q, t, s)
        for q, t in queries
        for s in range(n_shards)
    ]
    snap = _reg_snapshot()
    wkey = ("sq", index_dir, k, n_shards, kind, method, mu, lam)
    memo_ref = _ray.put(stats_memo) if stats_memo else None

    @ray.remote(num_cpus=1)
    def _score_shard_slice(sl: list[tuple[str, str, int]]) -> pa.Table:
        w = _process_query_worker(
            wkey, lambda: ShardedQueryWorker(
                index_dir, k, n_shards, registry_snapshot=snap, kind=kind,
                method=method, mu=mu, lam=lam))
        if memo_ref is not None:
            w.apply_stats(_ray.get(memo_ref))
        return w(pa.table({
            "qid": pa.array([q for q, _, _ in sl], pa.string()),
            "text": pa.array([t for _, t, _ in sl], pa.string()),
            "shard": pa.array([s for _, _, s in sl], pa.int32()),
        }))

    n_slices = max(1, min(len(items), 2 * _pool_width(concurrency)))
    slices = [items[i::n_slices] for i in range(n_slices)]
    tables = [t for t in _ray.get([_score_shard_slice.remote(s)
                                   for s in slices if s]) if t.num_rows]
    out = {"qid": [], "rank": [], "doc_id": [], "score": []}
    if tables:
        allt = pa.concat_tables(tables)
        qids = np.array(allt.column("qid").to_pylist())
        dids = allt.column("doc_id").to_numpy()
        scores = allt.column("score").to_numpy()
        for qid, _text in queries:
            m = qids == qid
            d, s = dids[m], scores[m]
            order = np.lexsort((-d, -s))[:k]
            out["qid"].extend([qid] * len(order))
            out["rank"].extend(range(1, len(order) + 1))
            out["doc_id"].extend(d[order].tolist())
            out["score"].extend(s[order].tolist())
    return pa.table(
        {
            "qid": pa.array(out["qid"], pa.string()),
            "rank": pa.array(out["rank"], pa.int64()),
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "score": pa.array(out["score"], pa.float64()),
        }
    )


def run_extents_sharded(
    index_dir: str,
    queries: list[tuple[str, str]],
    k: int = 1000,
    n_shards: int = 4,
    concurrency: tuple[int, int] | int = (1, 8),
    method: str = "dirichlet",
    mu: float = 2500.0,
    lam: float = 0.4,
) -> pa.Table:
    """Distributed ELEMENT-level retrieval over doc-range shards — the
    scatter/merge of :func:`run_queries_sharded` for
    :func:`~.extents.run_extents` results: each (query × shard) item
    scores its shard's extents with collection-global statistics, the
    driver merges with the exact ScoredExtentResult tie order (score desc
    → doc desc → begin desc → end desc).  Returns (qid, rank, doc_id,
    begin, end, score); bit-identical to a single-process run_extents
    (pytest-pinned)."""
    import numpy as np
    import ray as _ray

    from .extents import run_extents

    items = [(q, t, s) for q, t in queries for s in range(n_shards)]
    snap = _reg_snapshot()
    wkey = ("ext", index_dir, k, n_shards, method, mu, lam)

    class _ExtentShardWorker:
        def __init__(self):
            if snap:
                from .. import registry as _registry

                _registry.restore(snap)
            self.reader = IndexReader(index_dir)
            from .indriql import StructuredQueryEngine

            self.engine = StructuredQueryEngine(self.reader, method=method,
                                                mu=mu, lam=lam)
            span = (self.reader.manifest["max_doc_id"] + n_shards) // n_shards
            self.ranges = [(s * span, (s + 1) * span) for s in range(n_shards)]

    @ray.remote(num_cpus=1)
    def _score_slice(sl: list[tuple[str, str, int]]) -> pa.Table:
        w = _process_query_worker(wkey, _ExtentShardWorker)
        out = {"qid": [], "doc_id": [], "begin": [], "end": [], "score": []}
        for qid, text, shard in sl:
            ids, bs, es, sc = run_extents(
                w.engine, text, k=k, strict=False,
                doc_range=w.ranges[shard])
            out["qid"].extend([qid] * len(ids))
            out["doc_id"].extend(ids.tolist())
            out["begin"].extend(bs.tolist())
            out["end"].extend(es.tolist())
            out["score"].extend(sc.tolist())
        return pa.table({
            "qid": pa.array(out["qid"], pa.string()),
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "begin": pa.array(out["begin"], pa.int64()),
            "end": pa.array(out["end"], pa.int64()),
            "score": pa.array(out["score"], pa.float64()),
        })

    n_slices = max(1, min(len(items), 2 * _pool_width(concurrency)))
    slices = [items[i::n_slices] for i in range(n_slices)]
    tables = [t for t in _ray.get([_score_slice.remote(s)
                                   for s in slices if s]) if t.num_rows]
    out = {"qid": [], "rank": [], "doc_id": [], "begin": [], "end": [],
           "score": []}
    if tables:
        allt = pa.concat_tables(tables)
        qids = np.array(allt.column("qid").to_pylist())
        dids = allt.column("doc_id").to_numpy()
        bs = allt.column("begin").to_numpy()
        es = allt.column("end").to_numpy()
        scores = allt.column("score").to_numpy()
        for qid, _text in queries:
            m = qids == qid
            d, b, e, s = dids[m], bs[m], es[m], scores[m]
            order = np.lexsort((-e, -b, -d, -s))[:k]
            out["qid"].extend([qid] * len(order))
            out["rank"].extend(range(1, len(order) + 1))
            out["doc_id"].extend(d[order].tolist())
            out["begin"].extend(b[order].tolist())
            out["end"].extend(e[order].tolist())
            out["score"].extend(s[order].tolist())
    return pa.table(
        {
            "qid": pa.array(out["qid"], pa.string()),
            "rank": pa.array(out["rank"], pa.int64()),
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "begin": pa.array(out["begin"], pa.int64()),
            "end": pa.array(out["end"], pa.int64()),
            "score": pa.array(out["score"], pa.float64()),
        }
    )


def run_queries(
    index_dir: str,
    queries: list[tuple[str, str]],
    k: int = 1000,
    method: str = "dirichlet",
    concurrency: tuple[int, int] = (1, 8),
    kind: str = "bm25",
) -> pa.Table:
    """Run (qid, text) queries in parallel; returns the full result table
    (docnos + per-query latency).  ``kind`` = "bm25" | "lm" | "structured"
    (see :class:`QueryWorker`).

    Plain warm tasks over round-robin query slices: the work list is fixed
    and per-worker state (open index + caches) lives in a process global,
    so raw tasks give actor semantics without pool spawn/ramp overhead."""
    import ray as _ray

    snap = _reg_snapshot()
    wkey = ("q", index_dir, k, method, kind)

    @ray.remote(num_cpus=1)
    def _score_slice(qs: list[tuple[str, str]]) -> pa.Table:
        w = _process_query_worker(
            wkey, lambda: QueryWorker(index_dir, k=k, method=method,
                                      kind=kind, registry_snapshot=snap))
        return w(pa.table({"qid": pa.array([q for q, _ in qs], pa.string()),
                           "text": pa.array([t for _, t in qs], pa.string())}))

    n_slices = max(1, min(len(queries), 2 * _pool_width(concurrency)))
    slices = [queries[i::n_slices] for i in range(n_slices)]
    tables = [t for t in _ray.get([_score_slice.remote(s)
                                   for s in slices if s]) if t.num_rows]
    if not tables:
        return QueryWorker(index_dir, k, method, kind=kind)(
            pa.table({"qid": pa.array([], pa.string()), "text": pa.array([], pa.string())})
        )
    return pa.concat_tables(tables).sort_by([("qid", "ascending"), ("rank", "ascending")])
