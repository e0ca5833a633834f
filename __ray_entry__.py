"""Driver contract for the indri_5_5_ray engine.

``entry()`` — flagship pipeline: build the full inverted index (Indri
tokenizer + Krovetz stemming, delta+vbyte block-encoded postings) over the
corpus derived from sf0.001, then answer the regression query set with the
block-max BM25 engine.

``queries()`` / ``oracle_sql()`` — one entry per operator (SURVEY.md §2 plus
the training-data-pipeline extensions); SQL-expressible operators carry exact
DuckDB oracles (md5-based hashing everywhere so both sides are reproducible).

Ray is initialised by the driver BEFORE this module is imported; nothing here
calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from pathlib import Path
from typing import Any

_CACHE = os.environ.get("INDRI55_CACHE", "/tmp/indri55_ray_cache")

# fixed BM25 regression query set over the documents vocabulary
# (bag-of-words, baseline-legal: no '#' operators, no '.' fields —
# ref:runquery/IndriRunQuery.cpp:634-636); q8 has qtf=2 to exercise k3
BM25_QUERIES: list[tuple[str, str]] = [
    ("1", "merge join filter"),
    ("2", "window sort"),
    ("3", "the batch stream data"),
    ("4", "spark"),
    ("5", "customer line value"),
    ("6", "group agg row table"),
    ("7", "slow fast big small"),
    ("8", "key hash scan scan"),
]

TOKEN_SQL = "regexp_extract_all(lower(text), '[a-z0-9]+')"


def _mixture_values() -> str:
    """The engine's mixture-weight table as a SQL VALUES list (single
    source: sampling.MIXTURE_WEIGHTS)."""
    from indri_5_5_ray.functions.sampling import MIXTURE_WEIGHTS

    return ", ".join(f"('{k}', {v})" for k, v in MIXTURE_WEIGHTS.items())


# ---------------------------------------------------------------------------
# index build/cache helpers
# ---------------------------------------------------------------------------


def _cache_root(tag: str) -> Path:
    """Cache dir of one fixture index, keyed by its tag and the index format
    version: an index cached by an older layout is rebuilt, not read."""
    from indri_5_5_ray.stages.postings import INDEX_FORMAT

    key = hashlib.md5(f"{tag}:format{INDEX_FORMAT}".encode()).hexdigest()[:16]
    return Path(_CACHE) / key


def _ensure_index(sf_dir: str, stem: bool) -> str:
    """Build (once) the index over the documents-derived corpus; cached per
    (sf_dir, stemmer) under /tmp."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.sources.corpus import corpus_from_documents

    root = _cache_root(f"{sf_dir}:{stem}:v2")
    index_dir = root / "index"
    if (index_dir / "manifest.json").exists():
        return str(index_dir)
    root.mkdir(parents=True, exist_ok=True)
    corpus_dir = root / "corpus"
    if not (corpus_dir / "corpus.parquet").exists():
        import pyarrow.parquet as pq

        corpus_dir.mkdir(parents=True, exist_ok=True)
        pq.write_table(corpus_from_documents(sf_dir), corpus_dir / "corpus.parquet")
    cfg = IndexConfig(
        stemmer="krovetz" if stem else None,
        dedup_key=None,  # 1:1 with the documents table for SQL parity
        n_buckets=8,
        max_chunk_docs=256,
        store_direct=True,  # forward index: RM3 feedback + documentvector
    )
    build_index(str(corpus_dir), str(index_dir), cfg)
    return str(index_dir)


def _bm25_topk(sf_dir: str, stem: bool, k: int = 10, variant: str = "okapi"):
    """(qid, rank, doc_id) — ranks by score rounded to 9 decimals (desc),
    then doc_id desc, so the DuckDB oracle (whose float summation order is
    unspecified) ranks identically."""
    import numpy as np
    import pyarrow as pa

    from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query

    index_dir = _ensure_index(sf_dir, stem)
    reader = IndexReader(index_dir)
    scorer = BM25Scorer(reader, variant=variant)
    out_q, out_r, out_d = [], [], []
    for qid, text in BM25_QUERIES:
        terms = process_query(text, reader.cfg)
        ids, scores = scorer.score_exhaustive(terms, k=k + 40)
        r9 = np.round(scores, 9)
        order = np.lexsort((-ids, -r9))[:k]
        out_q.extend([int(qid)] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_d.extend(ids[order].tolist())
    return pa.table(
        {
            "qid": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
        }
    )


def _lm_topk(sf_dir: str, stem: bool, method: str = "dirichlet", k: int = 10):
    """(qid, rank, doc_id) language-model #combine top-k (Indri's default
    retrieval path); ranked by score rounded to 9 decimals for SQL parity."""
    import numpy as np
    import pyarrow as pa

    from indri_5_5_ray.pipelines.lm import LMScorer, process_query_lm
    from indri_5_5_ray.pipelines.query import IndexReader

    index_dir = _ensure_index(sf_dir, stem)
    reader = IndexReader(index_dir)
    scorer = LMScorer(reader, method=method)
    out_q, out_r, out_d = [], [], []
    for qid, text in BM25_QUERIES:
        terms = process_query_lm(text, reader.cfg)
        ids, scores = scorer.score(terms, k=k + 40)
        r9 = np.round(scores, 9)
        order = np.lexsort((-ids, -r9))[:k]
        out_q.extend([int(qid)] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_d.extend(ids[order].tolist())
    return pa.table(
        {
            "qid": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
        }
    )


STRUCTURED_QUERIES: list[tuple[str, str]] = [
    ("1", "#combine(#od1(table hash) merge)"),
    ("2", "#combine(#od2(customer join))"),
    ("3", "#weight(2.0 spark 1.0 window)"),
    ("4", "#max(sort filter)"),
    ("5", "#or(slow key)"),
]


def _structured_topk(sf_dir: str, stem: bool = False, k: int = 10,
                     queries: list[tuple[str, str]] | None = None):
    """(qid, rank, doc_id) structured-query retrieval (windows, weight, max,
    or) — ranks by score rounded to 9 decimals for SQL parity."""
    import numpy as np
    import pyarrow as pa

    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader

    index_dir = _ensure_index(sf_dir, stem)
    reader = IndexReader(index_dir)
    eng = StructuredQueryEngine(reader)
    out_q, out_r, out_d = [], [], []
    for qid, text in queries if queries is not None else STRUCTURED_QUERIES:
        ids, scores = eng.run(text, k=k + 40)
        r9 = np.round(scores, 9)
        order = np.lexsort((-ids, -r9))[:k]
        out_q.extend([int(qid)] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_d.extend(ids[order].tolist())
    return pa.table(
        {
            "qid": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
        }
    )


STRUCTURED2_QUERIES: list[tuple[str, str]] = [
    ("1", "#combine(#uw2(merge data) token)"),
    ("2", "#combine(#band(merge data) key)"),
    ("3", "#combine(#syn(merge data))"),
    ("4", "#combine(#wsyn(2.0 merge 1.0 data))"),
    ("5", "#combine(#not(merge) data)"),
    ("6", "#filrej(key #combine(merge data))"),
    ("7", "#wsum(3.0 merge 1.0 data)"),
    ("8", "#sum(merge data token)"),
]


def _structured2_topk(sf_dir: str):
    """(qid, rank, doc_id) for the remaining structured operators: #uwN,
    #band, #syn, #wsyn, #not, #filrej."""
    return _structured_topk(sf_dir, queries=STRUCTURED2_QUERIES)


# raw natural-language queries for the reformulate app (ref:reformulate/
# ReformulateQuery.cpp) — each exercises a different stop-structure prefix
# (first-match-in-array-order semantics) before SDM generation
SDM_RAW_QUERIES: list[tuple[str, str]] = [
    ("1", "what is the merge data"),
    ("2", "how does table hash"),
    ("3", "where can i find stuff about customer join"),
    ("4", "why do people think spark window sort"),
    ("5", "find the slow key"),
]


def _sdm_terms(raw: str) -> list[str]:
    """The post-transform term list the SDM rewrite is built over (downcase
    -> stop structures -> lite stop), shared by the Ray entry and the SQL
    oracle builder so both sides embed identical terms."""
    from indri_5_5_ray.pipelines.reformulate import (
        downcase, lite_stop, remove_stop_structures)

    return [t for t in lite_stop(remove_stop_structures(downcase(raw))).split(" ") if t]


def _sdm_topk(sf_dir: str, k: int = 10):
    """(qid, rank, doc_id) for the reformulate app's SDM rewrite
    (ref:src/ReformulateQuery.cpp:144-164): raw text -> #weight(0.85
    #combine(terms) 0.1 #combine(#1 bigrams) 0.05 #combine(#uw8 bigrams))
    executed on the structured engine."""
    import numpy as np
    import pyarrow as pa

    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.reformulate import reformulate

    index_dir = _ensure_index(sf_dir, stem=False)
    eng = StructuredQueryEngine(IndexReader(index_dir))
    out_q, out_r, out_d = [], [], []
    for qid, raw in SDM_RAW_QUERIES:
        text = reformulate(raw, {"genSDM": True})
        ids, scores = eng.run(text, k=k + 40)
        r9 = np.round(scores, 9)
        order = np.lexsort((-ids, -r9))[:k]
        out_q.extend([int(qid)] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_d.extend(ids[order].tolist())
    return pa.table(
        {
            "qid": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
        }
    )


PASSAGE_QUERIES: list[tuple[str, str]] = [
    ("1", "#combine[passage20:10](merge join)"),
    ("2", "#combine[passage15:5](window sort group)"),
]


def _passage_topk(sf_dir: str, k: int = 10):
    """(qid, rank, doc_id) fixed-passage retrieval: doc score = best sliding
    window (width N stride M) under dirichlet smoothing."""
    import numpy as np
    import pyarrow as pa

    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader

    index_dir = _ensure_index(sf_dir, stem=False)
    eng = StructuredQueryEngine(IndexReader(index_dir))
    out_q, out_r, out_d = [], [], []
    for qid, text in PASSAGE_QUERIES:
        ids, scores = eng.run(text, k=k + 40)
        r9 = np.round(scores, 9)
        order = np.lexsort((-ids, -r9))[:k]
        out_q.extend([int(qid)] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_d.extend(ids[order].tolist())
    return pa.table(
        {
            "qid": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
        }
    )


def _passage_sql() -> str:
    """DuckDB oracle for PASSAGE_QUERIES: max-over-passages of the mean
    per-term dirichlet belief, counts from 1-indexed token-list slices;
    windows with no term match are excluded (the FixedPassageNode hasMatch
    gate), so docs whose matches all fall outside every window drop out."""

    def one(qid: int, terms: list[str], width: int, stride: int) -> str:
        n = len(terms)
        cnt_cols = ",\n           ".join(
            f"len(list_filter(t[s + 1 : least(s + {width}, dl)], x -> x = '{term}'))::DOUBLE AS c{i}"
            for i, term in enumerate(terms)
        )
        bel = " + ".join(
            f"ln((p.c{i} + 2500.0 * (CASE WHEN coalesce("
            f"(SELECT cf FROM cfreq WHERE term = '{terms[i]}'), 0) > 0 THEN "
            f"(SELECT cf FROM cfreq WHERE term = '{terms[i]}') ELSE 0.5 END) / s.total)"
            f" / (p.dlp + 2500.0))"
            for i in range(n)
        )
        inlist = ", ".join(f"'{t}'" for t in terms)
        gate = " + ".join(f"p.c{i}" for i in range(n))
        return f"""
  SELECT {qid} AS qid, p.doc_id, max(({bel}) / {n}.0) AS score
  FROM (
    SELECT doc_id, s,
           least(s + {width}, dl) - s AS dlp,
           {cnt_cols}
    FROM (SELECT doc_id, t, dl, unnest(generate_series(0,
                 CAST(floor((dl - 1) / {stride}.0) AS INT))) * {stride} AS s
          FROM toklen
          WHERE dl >= 1 AND doc_id IN
                (SELECT DISTINCT doc_id FROM tf WHERE term IN ({inlist})))
  ) p CROSS JOIN stats s
  WHERE {gate} > 0
  GROUP BY p.doc_id"""

    q1 = one(1, ["merge", "join"], 20, 10)
    q2 = one(2, ["window", "sort", "group"], 15, 5)
    return f"""
WITH docs AS (SELECT doc_id, {TOKEN_SQL} AS t FROM documents),
toklen AS (SELECT doc_id, t, len(t) AS dl FROM docs),
stats AS (SELECT sum(len(t))::DOUBLE AS total FROM docs),
tf AS (SELECT doc_id, x AS term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(t) AS x FROM docs) GROUP BY doc_id, x),
cfreq AS (SELECT term, sum(tf)::DOUBLE AS cf FROM tf GROUP BY term),
scores AS ({q1} UNION ALL {q2})
SELECT qid, rank, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY round(score, 9) DESC, doc_id DESC) AS rank
  FROM scores)
WHERE rank <= 10
ORDER BY qid, rank
"""


def _ensure_multisec_index(sf_dir: str) -> str:
    """Index over the MULTISEC tagged corpus (two <sec> extents per doc:
    the two halves of the text tokens) for the element-level retrieval
    oracle."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.sources.corpus import corpus_from_documents_multisec

    root = _cache_root(f"{sf_dir}:multisec:v1")
    index_dir = root / "index"
    if (index_dir / "manifest.json").exists():
        return str(index_dir)
    root.mkdir(parents=True, exist_ok=True)
    corpus_dir = root / "corpus"
    if not (corpus_dir / "corpus.parquet").exists():
        import pyarrow.parquet as pq

        corpus_dir.mkdir(parents=True, exist_ok=True)
        pq.write_table(corpus_from_documents_multisec(sf_dir),
                       corpus_dir / "corpus.parquet")
    cfg = IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=8, max_chunk_docs=256,
        fields=("sec", "title"),
    )
    build_index(str(corpus_dir), str(index_dir), cfg)
    return str(index_dir)


EXTENT_QUERIES: list[tuple[str, str]] = [
    ("1", "#combine[sec](merge data)"),
    ("2", "#combine[sec](spark window)"),
    ("3", "#combine[passage12:6](merge data)"),
]

# the INEX CO surface: a FieldWildcard restriction scores every extent of
# EVERY indexed field (title + both sec halves per doc)
EXTENT_WILD_QUERY = ("4", "#combine(merge data)")

# NEXI PATH target (r5): //sec//(sec|title)[c] — the NestedExtentInside
# chain keeps only innermost extents CONTAINED in a sec extent, so the
# title extents are filtered out (disjoint from sec) while the sec halves
# survive by self-containment; clause statistics then come from the
# surviving list (= the sec extents), pipelines/extents.run_extents_path
EXTENT_PATH_QUERY = ("5", "//sec//(sec|title)[about(., spark data)]")


def _extent_topk(sf_dir: str, k: int = 10):
    """(qid, rank, doc_id, begin, end) ELEMENT-level retrieval: every sec
    extent (qids 1-2) / every sliding passage window (qid 3) / every
    extent of every field under the FieldWildcard CO restriction (qid 4)
    / every chain-surviving extent of a NEXI PATH target (qid 5) is
    scored separately and ranked globally — the ScoredExtentResult
    surface (ExtentRestriction / FixedPassage / FieldWildcard /
    NestedExtentInside per-extent scoring,
    ref:src/InferenceNetworkBuilder.cpp:152,170,230-247;
    pipelines/extents.py).  Ranked by score rounded to 9 decimals desc,
    then doc_id desc, then begin desc (the score_greater tie order) so
    the DuckDB oracle ranks identically."""
    import numpy as np
    import pyarrow as pa

    from indri_5_5_ray.pipelines.extents import run_extents, run_extents_wildcard
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents
    from indri_5_5_ray.pipelines.query import IndexReader

    index_dir = _ensure_multisec_index(sf_dir)
    reader = IndexReader(index_dir)
    out = {"qid": [], "rank": [], "doc_id": [], "begin": [], "end": []}

    def add(qid, res):
        ids, bs, es, sc = res
        r9 = np.round(sc, 9)
        order = np.lexsort((-es, -bs, -ids, -r9))[:k]
        out["qid"].extend([int(qid)] * len(order))
        out["rank"].extend(range(1, len(order) + 1))
        out["doc_id"].extend(ids[order].tolist())
        out["begin"].extend(bs[order].tolist())
        out["end"].extend(es[order].tolist())

    for qid, text in EXTENT_QUERIES:
        add(qid, run_extents(reader, text, k=k + 40))
    add(EXTENT_WILD_QUERY[0],
        run_extents_wildcard(reader, EXTENT_WILD_QUERY[1], k=k + 40))
    add(EXTENT_PATH_QUERY[0],
        run_nexi_extents(reader, EXTENT_PATH_QUERY[1], k=k + 40))
    return pa.table({k2: pa.array(v, pa.int64()) for k2, v in out.items()})


def _extent_sql() -> str:
    """DuckDB oracle for EXTENT_QUERIES over the multisec corpus: the two
    sec extents per doc are the text-token halves (begin/end offsets known
    from len(tt) and ceil(n/2)); per-extent dirichlet beliefs draw the
    background from the term's frequency within sec (= all text tokens)
    over the total sec length; qid 3 windows slide over the full token
    stream with collection-global backgrounds."""

    def cfx(tbl: str, term: str) -> str:
        cfv = f"(SELECT cf FROM {tbl} WHERE term = '{term}')"
        return f"(CASE WHEN coalesce({cfv}, 0) > 0 THEN {cfv} ELSE 0.5 END)"

    def d_sec(term: str) -> str:
        return (f"ln((len(list_filter(er.toks, x -> x = '{term}'))::DOUBLE"
                f" + 2500.0 * {cfx('c0f', term)} / ss.total)"
                f" / ((er.e - er.b) + 2500.0))")

    def cand(terms: list[str]) -> str:
        inlist = ", ".join(f"'{t}'" for t in terms)
        return (f"(SELECT DISTINCT doc_id FROM tf"
                f" WHERE term IN ({inlist}))")

    def gate(terms: list[str]) -> str:
        # the ExtentRestrictionNode hasMatch gate: extents with no term
        # match are never scored (zero-length extents fall out with it)
        return " + ".join(
            f"len(list_filter(er.toks, x -> x = '{t}'))" for t in terms)

    q1 = f"""
  SELECT 1 AS qid, er.doc_id, er.b, er.e,
         ({d_sec('merge')} + {d_sec('data')}) / 2 AS score
  FROM erows er
  JOIN {cand(['merge', 'data'])} c ON c.doc_id = er.doc_id
  CROSS JOIN secstats ss
  WHERE {gate(['merge', 'data'])} > 0"""
    q2 = f"""
  SELECT 2 AS qid, er.doc_id, er.b, er.e,
         ({d_sec('spark')} + {d_sec('window')}) / 2 AS score
  FROM erows er
  JOIN {cand(['spark', 'window'])} c ON c.doc_id = er.doc_id
  CROSS JOIN secstats ss
  WHERE {gate(['spark', 'window'])} > 0"""
    # qid 5: the NEXI path target //sec//(sec|title)[about(., spark data)]
    # — the chain drops the (sec-disjoint) title extents, so the surviving
    # element list IS the sec extents and the clause's list-context
    # statistics coincide with the sec field statistics (same erows +
    # secstats the plain-field oracles use)
    q5 = f"""
  SELECT 5 AS qid, er.doc_id, er.b, er.e,
         ({d_sec('spark')} + {d_sec('data')}) / 2 AS score
  FROM erows er
  JOIN {cand(['spark', 'data'])} c ON c.doc_id = er.doc_id
  CROSS JOIN secstats ss
  WHERE {gate(['spark', 'data'])} > 0"""
    def d_wild(term: str) -> str:
        # FieldWildcard context: cf = occurrences within title ∪ sec
        # extents (= all tt + t0 tokens), context size = summed field
        # lengths (ContextCountAccumulator semantics)
        return (f"ln((len(list_filter(er.toks, x -> x = '{term}'))::DOUBLE"
                f" + 2500.0 * {cfx('c4f', term)} / ws.total)"
                f" / ((er.e - er.b) + 2500.0))")

    q4 = f"""
  SELECT 4 AS qid, er.doc_id, er.b, er.e,
         ({d_wild('merge')} + {d_wild('data')}) / 2 AS score
  FROM erows4 er
  JOIN {cand(['merge', 'data'])} c ON c.doc_id = er.doc_id
  CROSS JOIN wildstats ws
  WHERE {gate(['merge', 'data'])} > 0"""
    q3 = f"""
  SELECT 3 AS qid, p.doc_id, p.s AS b, least(p.s + 12, p.dli) AS e,
         (ln((p.c0 + 2500.0 * {cfx('cfreq', 'merge')} / s.total)
             / (p.dlp + 2500.0))
          + ln((p.c1 + 2500.0 * {cfx('cfreq', 'data')} / s.total)
               / (p.dlp + 2500.0))) / 2 AS score
  FROM (
    SELECT doc_id, s, dli, least(s + 12, dli) - s AS dlp,
           len(list_filter(T[s + 1 : least(s + 12, dli)],
                           x -> x = 'merge'))::DOUBLE AS c0,
           len(list_filter(T[s + 1 : least(s + 12, dli)],
                           x -> x = 'data'))::DOUBLE AS c1
    FROM (SELECT doc_id, T, CAST(len(T) AS BIGINT) AS dli,
                 unnest(generate_series(0,
                     CAST(floor((len(T) - 1) / 6.0) AS INT))) * 6 AS s
          FROM docs
          WHERE len(T) >= 1
            AND doc_id IN {cand(['merge', 'data'])})
  ) p CROSS JOIN stats s
  WHERE p.c0 + p.c1 > 0"""
    return f"""
WITH {_field_sql_common()},
c0f AS (SELECT term, sum(tf)::DOUBLE AS cf FROM t0f GROUP BY term),
secstats AS (SELECT sum(len(t0))::DOUBLE AS total FROM docs),
erows AS (
  SELECT doc_id, len(tt) AS b, len(tt) + (len(t0) + 1) // 2 AS e,
         t0[1:(len(t0) + 1) // 2] AS toks FROM docs
  UNION ALL
  SELECT doc_id, len(tt) + (len(t0) + 1) // 2 AS b,
         len(tt) + len(t0) AS e,
         t0[(len(t0) + 1) // 2 + 1:len(t0)] AS toks FROM docs
),
c4f AS (SELECT term, sum(tf)::DOUBLE AS cf FROM
        (SELECT term, tf FROM ttf UNION ALL SELECT term, tf FROM t0f)
        GROUP BY term),
wildstats AS (SELECT (SELECT totalf FROM stats)
                   + (SELECT total FROM secstats) AS total),
erows4 AS (
  SELECT doc_id, 0 AS b, len(tt) AS e, tt AS toks FROM docs
  UNION ALL
  SELECT doc_id, b, e, toks FROM erows
),
scores AS ({q1} UNION ALL {q2} UNION ALL {q3} UNION ALL {q4}
           UNION ALL {q5})
SELECT qid, rank, doc_id, "begin", "end" FROM (
  SELECT qid, doc_id, CAST(b AS BIGINT) AS "begin", CAST(e AS BIGINT) AS "end",
         row_number() OVER (PARTITION BY qid
                            ORDER BY round(score, 9) DESC, doc_id DESC,
                                     b DESC) AS rank
  FROM scores)
WHERE rank <= 10
ORDER BY qid, rank
"""


def _rm3_topk(sf_dir: str, k: int = 10):
    """(qid, rank, doc_id) RM3 pseudo-relevance-feedback retrieval, ranked
    by score rounded to 9 decimals (desc) then doc_id desc so the DuckDB
    oracle (whose float summation order is unspecified) ranks identically;
    the fb-term cutoff is likewise pinned by 12-decimal rounding in
    rm_expand."""
    import numpy as np
    import pyarrow as pa

    from indri_5_5_ray.pipelines.feedback import rm3_search
    from indri_5_5_ray.pipelines.query import IndexReader

    index_dir = _ensure_index(sf_dir, stem=False)
    reader = IndexReader(index_dir)
    out_q, out_r, out_d = [], [], []
    for qid, text in BM25_QUERIES[:4]:
        ids, scores = rm3_search(reader, text, k=k + 40, fb_docs=5, fb_terms=10)
        r9 = np.round(scores, 9)
        order = np.lexsort((-ids, -r9))[:k]
        ids = ids[order]
        out_q.extend([int(qid)] * len(ids))
        out_r.extend(range(1, len(ids) + 1))
        out_d.extend(ids.tolist())
    return pa.table(
        {
            "qid": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
        }
    )


def _query_clarity(sf_dir: str):
    """(qid, clarity) — query clarity in bits over the RM1 relevance model
    (ref:clarity/clarity.cpp), fb_docs=5 / fb_terms=10 / dirichlet mu=2500
    matching the RM3 entry; rounded to 9 decimals on both sides."""
    import pyarrow as pa

    from indri_5_5_ray.pipelines.feedback import query_clarity
    from indri_5_5_ray.pipelines.query import IndexReader

    index_dir = _ensure_index(sf_dir, stem=False)
    reader = IndexReader(index_dir)
    rows = [(int(qid), round(query_clarity(reader, text, fb_docs=5,
                                           fb_terms=10), 9))
            for qid, text in BM25_QUERIES[:4]]
    return pa.table({
        "qid": pa.array([q for q, _ in rows], pa.int64()),
        "clarity": pa.array([c for _, c in rows], pa.float64()),
    })


FIELD_QUERIES: list[tuple[str, str]] = [
    ("1", "#combine(merge.(title) join)"),       # field-context restriction
    ("2", "#combine[title](window sort)"),       # scored-op extent restriction
    ("3", "#combine(spark.title data)"),         # doc-context restriction
    ("4", "#combine(#any:title key)"),           # field wildcard
]
FIELD_FILTER_QUERY = "#filreq(#between(size 200 600) #combine(merge data))"


def _ensure_field_index(sf_dir: str) -> str:
    """Index over the TAGGED corpus (title + numeric size fields)."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.sources.corpus import corpus_from_documents_tagged

    root = _cache_root(f"{sf_dir}:fields:v1")
    index_dir = root / "index"
    if (index_dir / "manifest.json").exists():
        return str(index_dir)
    root.mkdir(parents=True, exist_ok=True)
    corpus_dir = root / "corpus"
    if not (corpus_dir / "corpus.parquet").exists():
        import pyarrow.parquet as pq

        corpus_dir.mkdir(parents=True, exist_ok=True)
        pq.write_table(corpus_from_documents_tagged(sf_dir), corpus_dir / "corpus.parquet")
    cfg = IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=8, max_chunk_docs=256,
        fields=("title", "size"), numeric_fields=("size",),
    )
    build_index(str(corpus_dir), str(index_dir), cfg)
    return str(index_dir)


def _ensure_annotated_index(sf_dir: str) -> str:
    """Index over the UNTAGGED twin of the tagged corpus, with the title
    extents supplied as an offset-annotation side table (the
    OffsetAnnotationAnnotator join) — same token stream, same extents, so
    the tagged corpus's field SQL oracle checks this index verbatim."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.sources.corpus import corpus_from_documents_annotated

    root = _cache_root(f"{sf_dir}:annotated:v1")
    index_dir = root / "index"
    if (index_dir / "manifest.json").exists():
        return str(index_dir)
    root.mkdir(parents=True, exist_ok=True)
    corpus_dir = root / "corpus"
    ann_path = root / "annotations.parquet"
    if not (corpus_dir / "corpus.parquet").exists():
        import pyarrow.parquet as pq

        corpus_dir.mkdir(parents=True, exist_ok=True)
        corpus, annotations = corpus_from_documents_annotated(sf_dir)
        pq.write_table(corpus, corpus_dir / "corpus.parquet")
        pq.write_table(annotations, ann_path)
    cfg = IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=8, max_chunk_docs=256,
        fields=("title", "size"), numeric_fields=("size",),
        offset_annotations=str(ann_path),
    )
    build_index(str(corpus_dir), str(index_dir), cfg)
    return str(index_dir)


def _anno_field_topk(sf_dir: str):
    """(qid, rank, doc_id) — the FIELD_QUERIES run against the
    annotation-built index; shares field_topk's SQL oracle because the
    annotated index is token-for-token the tagged one."""
    return _field_run(sf_dir, FIELD_QUERIES, ensure=_ensure_annotated_index)


def _ensure_nested_index(sf_dir: str) -> str:
    """Index over the NESTED tagged corpus (sec/p/title tag tree varying by
    doc_id % 3) for the path-restriction oracle."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.sources.corpus import corpus_from_documents_nested

    root = _cache_root(f"{sf_dir}:nested:v1")
    index_dir = root / "index"
    if (index_dir / "manifest.json").exists():
        return str(index_dir)
    root.mkdir(parents=True, exist_ok=True)
    corpus_dir = root / "corpus"
    if not (corpus_dir / "corpus.parquet").exists():
        import pyarrow.parquet as pq

        corpus_dir.mkdir(parents=True, exist_ok=True)
        pq.write_table(corpus_from_documents_nested(sf_dir),
                       corpus_dir / "corpus.parquet")
    cfg = IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=8, max_chunk_docs=256,
        fields=("sec", "p", "title"),
    )
    build_index(str(corpus_dir), str(index_dir), cfg)
    return str(index_dir)


def _ensure_dated_index(sf_dir: str) -> str:
    """Index over the DATED tagged corpus (title + numeric size + date
    'when' fields) for the date-predicate oracle."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.sources.corpus import corpus_from_documents_dated

    root = _cache_root(f"{sf_dir}:dated:v1")
    index_dir = root / "index"
    if (index_dir / "manifest.json").exists():
        return str(index_dir)
    root.mkdir(parents=True, exist_ok=True)
    corpus_dir = root / "corpus"
    if not (corpus_dir / "corpus.parquet").exists():
        import pyarrow.parquet as pq

        corpus_dir.mkdir(parents=True, exist_ok=True)
        pq.write_table(corpus_from_documents_dated(sf_dir),
                       corpus_dir / "corpus.parquet")
    cfg = IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=8, max_chunk_docs=256,
        fields=("title", "size", "when"), numeric_fields=("size",),
        date_fields=("when",),
    )
    build_index(str(corpus_dir), str(index_dir), cfg)
    return str(index_dir)


DATE_QUERIES = [
    ("1", "#datebefore(when 2002-06-15)"),
    ("2", "#dateafter(when 2003-03-01)"),
    ("3", "#datebetween(when 2001-01-01 2003-01-01)"),
    ("4", "#dateequals(when 2004-05-01)"),
]


def _date_topk(sf_dir: str):
    """(qid, rank, doc_id) for date-field predicates over the dated tagged
    corpus (#datebefore/#dateafter/#datebetween/#dateequals, the DateParse
    + FieldLess/Greater/Between/Equals path)."""
    return _field_run(sf_dir, DATE_QUERIES, ensure=_ensure_dated_index)


def _field_run(sf_dir: str, queries: list[tuple[str, str]], k: int = 10,
               ensure=None):
    import numpy as np
    import pyarrow as pa

    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader

    index_dir = (ensure or _ensure_field_index)(sf_dir)
    eng = StructuredQueryEngine(IndexReader(index_dir))
    out_q, out_r, out_d = [], [], []
    for qid, text in queries:
        ids, scores = eng.run(text, k=k + 40)
        r9 = np.round(scores, 9)
        order = np.lexsort((-ids, -r9))[:k]
        out_q.extend([int(qid)] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_d.extend(ids[order].tolist())
    return pa.table(
        {
            "qid": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
        }
    )


def _field_topk(sf_dir: str):
    """(qid, rank, doc_id) for field-restricted structured queries (title
    context / extent restriction / #any) over the tagged corpus."""
    return _field_run(sf_dir, FIELD_QUERIES)


def _field_filter_topk(sf_dir: str):
    """(qid, rank, doc_id) for the numeric-field semi-join filter query."""
    return _field_run(sf_dir, [("1", FIELD_FILTER_QUERY)])


PATH_QUERIES = [
    ("1", "#combine[sec](#combine[./title](merge))"),    # tree child
    ("2", "#combine[sec](#combine[.//title](data))"),    # tree descendant
    ("3", "#combine[title](#combine[.\\sec](merge))"),   # tree parent
]


def _path_topk(sf_dir: str):
    """(qid, rank, doc_id) for tag-tree path restrictions (child /
    descendant / parent steps) over the nested tagged corpus — the
    ExtentChild/Descendant/Parent operators (ref:src/ExtentChildNode.cpp,
    ref:src/ExtentParentNode.cpp, ref:src/ExtentDescendantNode.cpp)."""
    return _field_run(sf_dir, PATH_QUERIES, ensure=_ensure_nested_index)


NEXI_QUERIES: list[tuple[str, str]] = [
    ("1", "//sec[about(., merge data)]"),
    ("2", "merge data token"),
    ("3", '"merge data" token'),
    ("4", "//sec[about(., merge) OR about(., data)]"),
    ("5", "merge -token data"),
    ("6", "//sec[about(.//title, merge)]"),
]


def _nexi_topk(sf_dir: str, k: int = 10):
    """(qid, rank, doc_id) for NEXI queries (ref:src/nexilang.g): parsed to
    the reference's AST, translated to this dialect (shrinkage=False →
    plain scorers), executed on the structured engine over the nested
    tagged corpus."""
    import numpy as np
    import pyarrow as pa

    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.nexi import parse_nexi
    from indri_5_5_ray.pipelines.query import IndexReader

    index_dir = _ensure_nested_index(sf_dir)
    eng = StructuredQueryEngine(IndexReader(index_dir))
    out_q, out_r, out_d = [], [], []
    for qid, text in NEXI_QUERIES:
        ids, scores = eng.run(parse_nexi(text), k=k + 40)
        r9 = np.round(scores, 9)
        order = np.lexsort((-ids, -r9))[:k]
        out_q.extend([int(qid)] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_d.extend(ids[order].tolist())
    return pa.table(
        {
            "qid": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
        }
    )


SHRINKAGE_QUERIES: list[tuple[str, str]] = [
    ("1", "merge data"),
    ("2", "table sort"),
    ("3", "hash"),
    ("4", "spark window"),
]

# the reference's rule-string format (ref:src/ShrinkageBeliefNode.cpp:481-524)
SHRINKAGE_RULES = ("parentWeight:0.1,docWeight:0.2", "field:title,weight:0.3")


def _shrinkage_topk(sf_dir: str, k: int = 10):
    """(qid, rank, doc_id) hierarchical shrinkage retrieval over the nested
    tagged corpus (ShrinkageBeliefNode, ref:src/ShrinkageBeliefNode.cpp):
    linear smoothing λ=0.4, parentWeight 0.1, docWeight 0.2, an absolute
    0.3 up-weight rule on title children, non-recursive."""
    import numpy as np
    import pyarrow as pa

    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.shrinkage import ShrinkageScorer

    index_dir = _ensure_nested_index(sf_dir)
    scorer = ShrinkageScorer(IndexReader(index_dir),
                             rules=SHRINKAGE_RULES, method="linear", lam=0.4)
    out_q, out_r, out_d = [], [], []
    for qid, text in SHRINKAGE_QUERIES:
        terms = [(t, 1) for t in text.split()]
        ids, scores = scorer.score(terms, k=k + 40)
        r9 = np.round(scores, 9)
        order = np.lexsort((-ids, -r9))[:k]
        out_q.extend([int(qid)] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_d.extend(ids[order].tolist())
    return pa.table(
        {
            "qid": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
        }
    )


STOPWORDS_SMALL = (
    "the", "a", "in", "of", "to", "and", "is", "it", "that", "for",
)


def _ensure_stopped_index(sf_dir: str) -> str:
    """Index variant with the small stopword list ON (no stemming)."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.sources.corpus import corpus_from_documents

    root = _cache_root(f"{sf_dir}:stopped:v1")
    index_dir = root / "index"
    if (index_dir / "manifest.json").exists():
        return str(index_dir)
    root.mkdir(parents=True, exist_ok=True)
    corpus_dir = root / "corpus"
    if not (corpus_dir / "corpus.parquet").exists():
        import pyarrow.parquet as pq

        corpus_dir.mkdir(parents=True, exist_ok=True)
        pq.write_table(corpus_from_documents(sf_dir), corpus_dir / "corpus.parquet")
    cfg = IndexConfig(
        stemmer=None, stopwords=STOPWORDS_SMALL, dedup_key=None,
        n_buckets=8, max_chunk_docs=256,
    )
    build_index(str(corpus_dir), str(index_dir), cfg)
    return str(index_dir)


def _index_stopped_stats(sf_dir: str):
    """(term, cf, df) with stopping ON — stopwords must be absent from the
    postings/dictionary entirely."""
    import pyarrow.parquet as pq

    index_dir = _ensure_stopped_index(sf_dir)
    t = pq.read_table(f"{index_dir}/dictionary", columns=["term", "cf", "df"])
    return t.select(["term", "cf", "df"])


def _index_stopped_doc_lens(sf_dir: str):
    """(doc_id, dl) with stopping ON — dl still counts stopped slots
    (ref:src/MemoryIndex.cpp:617,647-648), so it equals the full token count."""
    import pyarrow.parquet as pq

    index_dir = _ensure_stopped_index(sf_dir)
    return pq.read_table(f"{index_dir}/docs", columns=["doc_id", "dl"])


def _index_term_stats(sf_dir: str):
    """(term, cf, df) straight out of the built index's dictionary —
    validates tokenize→partials→shuffle→merge end-to-end against SQL."""
    import pyarrow.parquet as pq

    index_dir = _ensure_index(sf_dir, stem=False)
    t = pq.read_table(f"{index_dir}/dictionary", columns=["term", "cf", "df"])
    return t.select(["term", "cf", "df"])


def _index_doc_lens(sf_dir: str):
    """(doc_id, dl) from the index's document table; doc_id equals the
    documents table's (ingest order = row order, dedup off)."""
    import pyarrow.parquet as pq

    index_dir = _ensure_index(sf_dir, stem=False)
    return pq.read_table(f"{index_dir}/docs", columns=["doc_id", "dl"])


# ---------------------------------------------------------------------------
# driver contract
# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship: full index build (kstem) + BM25 top-k over sf0.001."""
    from indri_5_5_ray.pipelines.run import run_queries

    index_dir = _ensure_index("/root/testdata/sf0.001", stem=True)
    res = run_queries(index_dir, BM25_QUERIES, k=20)
    return res.to_pandas().drop(columns=["latency_ms"])


def _quality_filter(sf_dir: str):
    """doc_ids passing the quality gate (distinct_ratio >= 0.5 and
    20 <= n_tokens) — the filter step of a training-data pipeline."""
    import pyarrow as pa

    from indri_5_5_ray.functions.textstats import quality_scores

    ds = quality_scores(sf_dir)

    def f(batch: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(batch)
        if df.height == 0:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        out = df.filter(
            (pl.col("distinct_ratio") >= 0.5) & (pl.col("n_tokens") >= 20)
        ).select("doc_id")
        return out.to_arrow()

    return ds.map_batches(f, batch_format="pyarrow")


def _ensure_pii_corpus(sf_dir: str) -> str:
    """Derived 'sf dir' whose documents carry deterministic PII appended
    per doc_id (%4==0 email, 1 phone, 2 IP, 3 none) — the synthetic corpus
    itself contains no PII, so checking the taggers on it would verify
    nothing; the SQL oracle rebuilds the same seeded text with string
    concatenation and runs the same RE2 expressions."""
    import pyarrow.parquet as pq

    from indri_5_5_ray.cachedir import ensure_cached_dir, source_key

    def build(tmp: str) -> None:
        # vectorized per-batch seeding + an incremental single-file write:
        # the driver streams row-group-sized batches through a
        # ParquetWriter instead of holding the whole corpus text at once
        from indri_5_5_ray.functions.textstats import read_spread

        def seed(batch: pa.Table) -> pa.Table:
            import polars as pl

            d = pl.col("doc_id")
            email = pl.concat_str([pl.lit(" contact doc"),
                                   d.cast(pl.String),
                                   pl.lit("@example.com")])
            phone = pl.concat_str([
                pl.lit(" call 555-"),
                (d % 1000).cast(pl.String).str.zfill(3), pl.lit("-"),
                (d % 10000).cast(pl.String).str.zfill(4)])
            ip = pl.concat_str([pl.lit(" from 10."),
                                (d % 256).cast(pl.String), pl.lit(".0."),
                                (d % 100 + 1).cast(pl.String)])
            m = d % 4
            return (pl.from_arrow(batch).select(
                "doc_id",
                (pl.col("text")
                 + pl.when(m == 0).then(email).when(m == 1).then(phone)
                 .when(m == 2).then(ip).otherwise(pl.lit("")))
                .alias("text")).to_arrow())

        seeded = read_spread(f"{sf_dir}/documents.parquet",
                             ["doc_id", "text"]).map_batches(
            seed, batch_format="pyarrow")
        # deterministic doc_id order in the written file: without
        # preserve_order the block order is an execution race, and a
        # derived corpus should keep the repo's sorted-corpus convention
        import ray

        ctx = ray.data.DataContext.get_current()
        prev_order = ctx.execution_options.preserve_order
        ctx.execution_options.preserve_order = True
        writer = None
        try:
            for b in seeded.iter_batches(batch_format="pyarrow"):
                if writer is None:
                    writer = pq.ParquetWriter(f"{tmp}/documents.parquet",
                                              b.schema)
                writer.write_table(b)
        finally:
            ctx.execution_options.preserve_order = prev_order
        if writer is not None:
            writer.close()
        else:  # empty corpus: keep the file contract for the readers
            import pyarrow as pa

            pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                                     "text": pa.array([], pa.string())}),
                           f"{tmp}/documents.parquet")

    return ensure_cached_dir(
        "/tmp/indri55_pii",
        source_key(f"{sf_dir}/documents.parquet", "pii-v2"), build)


_PII_SEED_SQL = """
            SELECT doc_id, text ||
              CASE doc_id % 4
                WHEN 0 THEN ' contact doc' || doc_id || '@example.com'
                WHEN 1 THEN ' call 555-' ||
                     lpad(CAST(doc_id % 1000 AS VARCHAR), 3, '0') || '-' ||
                     lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                WHEN 2 THEN ' from 10.' || (doc_id % 256) || '.0.' ||
                     (doc_id % 100 + 1)
                ELSE ''
              END AS text
            FROM documents"""


def _pii_stats_sql() -> str:
    from indri_5_5_ray.functions.pii import PII_PATTERNS

    e, p, ip = (PII_PATTERNS[k][0] for k in ("email", "phone", "ip"))
    return f"""
            WITH seeded AS ({_PII_SEED_SQL})
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '{e}')) AS BIGINT)
                       AS n_emails,
                   CAST(len(regexp_extract_all(text, '{p}')) AS BIGINT)
                       AS n_phones,
                   CAST(len(regexp_extract_all(text, '{ip}')) AS BIGINT)
                       AS n_ips,
                   CAST(len(regexp_extract_all(text, '{e}'))
                        + len(regexp_extract_all(text, '{p}'))
                        + len(regexp_extract_all(text, '{ip}')) AS BIGINT)
                       AS n_pii
            FROM seeded ORDER BY doc_id"""


def _redact_pii_sql() -> str:
    from indri_5_5_ray.functions.pii import PII_PATTERNS

    expr = "text"
    for rx, token in PII_PATTERNS.values():  # same order as the engine
        expr = f"regexp_replace({expr}, '{rx}', '{token}', 'g')"
    return f"""
            WITH seeded AS ({_PII_SEED_SQL})
            SELECT doc_id, {expr} AS text
            FROM seeded ORDER BY doc_id"""


def _pii_stats_seeded(sf_dir: str):
    """(doc_id, n_emails, n_phones, n_ips, n_pii) over the PII-seeded
    derived corpus (the taggers' real workload; map-only regex counts)."""
    from indri_5_5_ray.functions.pii import pii_stats

    return pii_stats(_ensure_pii_corpus(sf_dir))


def _redact_pii_seeded(sf_dir: str):
    """(doc_id, text) PII-redacted over the seeded corpus — the driver
    hash-checks the rewritten text byte-for-byte against DuckDB running
    the same RE2 replacements."""
    from indri_5_5_ray.functions.pii import redact_pii

    return redact_pii(_ensure_pii_corpus(sf_dir))


def _embedding_lsh_pairs_full(sf_dir: str):
    """Full-bucket exactness configuration of the banded hyperplane-LSH
    near-dup edge generator (``n_tables=1, planes=0`` → ONE bucket →
    output ≡ ``cosine_pairs``, so the whole machinery — bucketize
    exchange, in-bucket exact-cosine verification, pair-hash-bucket
    dedup — gets an exact SQL oracle).  VERIFICATION-ONLY: one bucket is
    quadratic by construction, so this guard refuses inputs past the
    hot-bucket cap (where truncation would silently break the ≡
    cosine_pairs contract).  The banded default's recall/precision is
    pytest-pinned and bench-measured; its clustering route is
    ``embedding_dup_clusters(method="lsh")``."""
    import pyarrow.parquet as pq

    from indri_5_5_ray.functions.dedup import MAX_PAIR_GROUP
    from indri_5_5_ray.functions.simsearch import embedding_lsh_pairs

    n = pq.read_metadata(f"{sf_dir}/embeddings.parquet").num_rows
    if n > MAX_PAIR_GROUP:
        raise ValueError(
            f"embedding_lsh_pairs_full is a verification twin for inputs "
            f"of ≤ {MAX_PAIR_GROUP} vectors (got {n}); use the banded "
            "default for real corpora")
    return embedding_lsh_pairs(sf_dir, tau=0.4, n_tables=1, planes=0)


def queries() -> dict[str, Callable[[str], Any]]:
    """ORDER IS A BUDGET: the driver verifies only the FIRST 50 entries, so
    the dict is ordered by verification need, not by topic.  Entries that
    fell outside the window in round 3 (the event operators, quality_filter
    and the media pipelines — never driver-checked) lead; entries hash-green
    for 2+ consecutive rounds (or rows-only twins of in-window oracles) are
    rotated to the tail.  When ADDING an entry, append it near the FRONT and
    rotate a long-green entry past position 50 — never insert mid-dict."""
    from indri_5_5_ray.functions import (
        classifier,
        dedup,
        events,
        multimodal,
        sampling,
        simsearch,
        textstats,
    )
    from indri_5_5_ray.sources import webarchive

    from indri_5_5_ray.functions import linkgraph

    return {
        # --- NEW r5 (late): domain-mixture token-budget sampling — exact
        # integer rates, one clamped language; displaces knn_bruteforce
        # (green r3-r4, broadcast-matmul partial-top-k kernel twinned by
        # in-window ivf_ann_full_probe's re-rank stage) ---
        "mixture_sample": sampling.mixture_sample,
        # --- NEW r5 (late): pruned word-bigram statistics (corpus-LM /
        # contamination building block); displaces exact_dup_groups (green
        # r2-r4, its _dup_groups spill kernel runs in-window inside
        # lsh_candidate_pairs and near_dedup_keep_first) ---
        "ngram_counts": textstats.ngram_counts,
        # --- NEW r5 (late): deterministic global shuffle + token-budget
        # packing (the pre-training shuffle step); displaces passage_topk
        # (green r3-r4, the passage-window kernel stays in-window via
        # extent_topk's per-window scoring shapes) ---
        "shuffle_pack": sampling.shuffle_pack,
        # --- NEW r5 (late): banded hyperplane-LSH near-dup edges in the
        # full-bucket exactness configuration (≡ cosine_pairs; banded
        # recall is pytest/bench-measured); displaces embedding_dedup_
        # keep_first (green r2-r4 unchanged — near_dedup_keep_first runs
        # the same _components_assign/_keep_reps chain in-window, and this
        # entry now covers the embedding edge kernel) ---
        "embedding_lsh_pairs_full": _embedding_lsh_pairs_full,
        # --- NEW r5 (late): PII tagging + redaction over the seeded
        # derived corpus (map-only regex kernels; redacted text
        # hash-checked byte-for-byte).  Displace token_counts_bpe (green
        # r2-r4 unchanged — index_doc_lens counts tokens through the real
        # tokenizer in-window) and quota_sample (green r2-r4 unchanged,
        # pytest-forced multi-pass combine; mixture_sample's exact
        # integer-rate sampling and contamination_screen's deterministic
        # hash selection stay in-window) ---
        "pii_stats": _pii_stats_seeded,
        "redact_pii": _redact_pii_seeded,
        # --- NEW r5: the streaming WARC reader, driver-checked end to end
        # over a deterministic synthetic archive set (VERDICT r4 item 7;
        # displaces tumbling_counts — green r2-r4, hopping_counts is its
        # in-window kernel twin) ---
        "warc_corpus": webarchive.warc_corpus,
        # --- NEW r5: link graph + PageRank prior (VERDICT r4 item 8) —
        # the filesystem-bucketed power iteration, oracle = unrolled
        # iterations in SQL.  Displace doc_fingerprints (green r3-r4,
        # winnowing kernel twin fingerprint_dup_pairs stays in-window) and
        # sample_hash (green r2-r4, deterministic-hash sampling twins
        # quota_sample/contamination_screen stay in-window) ---
        "link_edges": linkgraph.link_edges,
        "pagerank_scores": linkgraph.pagerank_scores,
        # NEW r5: real HTML anchor extraction + inlink aggregation over a
        # deterministic synthetic HTML corpus (displaces simhash_
        # fingerprints — green r2-r4, md5-token-hash kernel family twin
        # minhash_signatures stays in-window)
        "anchor_stats": linkgraph.anchor_stats,
        # NEW r5: query clarity over the RM1 relevance model (the
        # reference's clarity app; shares the RM1 CTE prefix with the RM3
        # oracle; displaces cosine_pairs — green r2-r4, exact-cosine
        # kernel twin knn_bruteforce stays in-window)
        "query_clarity": _query_clarity,
        # NEW r5: the reformulate app — raw NL text -> stop-structure strip
        # -> lite stop -> SDM rewrite, executed on the structured engine;
        # oracle recomputes the dirichlet + #1 + #uw8 mixture in SQL
        # (displaces tfidf_topk — green r2-r4 on an unchanged path; its
        # scorer-constant kernel twins bm25_topk/bm25_topk_kstem stay
        # in-window)
        "sdm_topk": _sdm_topk,
        # NEW r5: hierarchical shrinkage retrieval (ShrinkageBeliefNode) —
        # per-field smoothing rules + parent/doc mixing over the nested tag
        # tree, linear smoothing; oracle unrolls the up/down passes per
        # doc_id%3 structure (displaces ngram_jaccard_pairs — green r2-r4
        # unchanged; shingle-set twins lsh_candidate_pairs/minhash_
        # signatures stay in-window)
        "shrinkage_topk": _shrinkage_topk,
        # NEW r5: NEXI query language (nexilang.g) — parsed to the
        # reference AST, translated to the dialect, executed over the
        # nested corpus (displaces near_dup_clusters — green r2-r4
        # unchanged; union-find twin near_dedup_keep_first stays
        # in-window)
        "nexi_topk": _nexi_topk,
        # NEW r5: element-level retrieval — every sec extent / passage
        # window scored and ranked separately with begin/end surfaced
        # (the ScoredExtentResult + INEX surface, pipelines/extents.py);
        # displaces field_filter_topk (green r2-r4 unchanged; in-window
        # twin date_topk exercises the same FieldLess/Greater/Between
        # numeric-predicate kernel)
        "extent_topk": _extent_topk,
        # NEW r5: duplicated-span statistics — the substring-level dedup
        # measure (Lee et al. 2021) at word-3-gram granularity; one
        # filesystem bucket exchange + a map-only range-pruned pass,
        # exact SQL oracle
        # (displaces minhash_signatures — green r2-r4 unchanged; banding
        # consumer lsh_candidate_pairs runs the same _minhash_wide /
        # _doc_shingles kernel in-window)
        "dup_span_stats": dedup.dup_span_stats,
        # NEW r5: the span-REMOVAL transform over the same duplicated-
        # occurrence spill (covered-slot expansion + anti-join clean
        # pass); displaces term_stats — green r1-r4 unchanged; in-window
        # twin index_term_stats exercises the same map-side-partial +
        # groupby-finalize shape over the same tokenizer
        "remove_dup_spans": dedup.remove_dup_spans,
        # NEW r5: CCNet-style unigram-LM cross-entropy (the quality signal
        # behind LM-score-and-bucket filtering); one vocab exchange +
        # filesystem-broadcast join, exact SQL oracle (displaces
        # lsh_ann_full_probe — green r3-r4 unchanged; in-window twins
        # ivf_ann_full_probe [same full-probe≡brute-force contract +
        # distributed partial top-k merge] and knn_bruteforce [same
        # normalized-cosine kernel] stay)
        "unigram_logprob": textstats.unigram_logprob,
        # NEW r5: CCNet head/middle/tail bucketing — exact distributed
        # ntile over the cross-entropy order (one small-table sort + the
        # pack_shards prefix-sum; no driver-resident rows); displaces
        # gopher_filter (green r3-r4 unchanged; in-window twin
        # quality_filter applies the same composite threshold kernel
        # over the same token/line ratios)
        "ccnet_buckets": textstats.ccnet_buckets,
        # --- event-stream operators + curation filters (unchecked in r3:
        # displaced past the driver window; now first so CORRECTNESS_r04
        # finally records them) ---
        "media_stats": multimodal.media_stats,
        # flat (f0..f15) shape of the actor-pool decode pipeline: every
        # value — including the P6/WAV decode statistics and the payload
        # checksum — is reproduced by the SQL oracle from the documents
        # view, closing the last rows-only driver entry (VERDICT r4 item 2)
        "media_features": multimodal.media_features_flat,
        "hopping_counts": events.hopping_counts,
        "asof_join_events": events.asof_join_events,
        "sessionize": events.sessionize,
        "user_activity": events.user_activity,
        "quality_filter": _quality_filter,
        "repetition_stats": textstats.repetition_stats,  # NEW r4
        "fingerprint_dup_pairs": dedup.fingerprint_dup_pairs,  # NEW r4
        "pack_shards": sampling.pack_shards,  # NEW r4
        # --- inverted index + BM25 (the reference's core) ---
        "index_term_stats": _index_term_stats,
        "index_doc_lens": _index_doc_lens,
        "index_stopped_stats": _index_stopped_stats,
        "bm25_topk": lambda sf: _bm25_topk(sf, stem=False),
        "bm25_topk_kstem": lambda sf: _bm25_topk(sf, stem=True),
        "lm_topk_dirichlet": lambda sf: _lm_topk(sf, stem=False, method="dirichlet"),
        # the LM entries stay IN-window this round: round 4 switched their
        # execution onto the new block-max pruned path, so "green for 2+
        # rounds" no longer describes the code that runs — rotation must
        # consider path changes, not just past results
        "lm_topk_jm": lambda sf: _lm_topk(sf, stem=False, method="jm"),
        "lm_topk_two": lambda sf: _lm_topk(sf, stem=False, method="two"),
        "lm_topk_kstem": lambda sf: _lm_topk(sf, stem=True, method="dirichlet"),
        "structured_topk": lambda sf: _structured_topk(sf, stem=False),
        "field_topk": _field_topk,
        "anno_field_topk": _anno_field_topk,
        "path_topk": _path_topk,
        "structured2_topk": _structured2_topk,
        "date_topk": _date_topk,
        "rm3_topk": _rm3_topk,
        # --- text statistics / analysis ---
        # NEW r5 (final): seed-trained Naive-Bayes quality classifier —
        # the GPT-3/CCNet "train a linear classifier on a curated seed,
        # score the crawl" step as one per-class count exchange + a
        # map-only scoring join, exact SQL oracle (displaces lang_id —
        # green r2-r4 on unchanged map-only code; its direct aggregate
        # lang_table_stats stays a tail twin and the map-only polars
        # text-kernel family stays in-window via repetition_stats /
        # quality_filter)
        "nb_classifier_scores": classifier.nb_classifier_scores,
        # --- sampling / contamination (training-data curation) ---
        "contamination_screen": sampling.contamination_screen,
        # --- dedup family ---
        "lsh_candidate_pairs": dedup.lsh_candidate_pairs,
        "near_dedup_keep_first": dedup.near_dedup_keep_first,
        # --- similarity search ---
        # full-probe IVF: every list probed → must equal brute force, so the
        # whole IVF machinery (assignment, probe mask, distributed partial
        # top-k, merge) gets an exact SQL oracle; the pruned path's
        # selectivity is pytest-verified (rows-only entries in the tail)
        "ivf_ann_full_probe": lambda sf: simsearch.ivf_ann_topk(
            sf, n_centroids=8, nprobe=8),
        # ---------------- position 51+: outside the driver window ----------
        # NEW r5 (final), registered in the tail (window full): fixed-
        # length training-sequence packing — docs SPLIT across sequence
        # boundaries (pack_shards assigns whole docs); exact oracle below
        # is pytest-compared (tests/test_sampling.py) since the driver
        # window stops at 50
        "pack_sequences": sampling.pack_sequences,
        # NEW r5 (final), tail: GPT-3 Pareto classifier sampling —
        # train -> score -> deterministic keep; oracle pytest-compared
        "nb_pareto_sample": classifier.nb_pareto_sample,
        # rotated out r5 (final) for nb_classifier_scores: lang_id (green
        # r2-r4 unchanged; lang_table_stats below aggregates its exact
        # output and repetition_stats/quality_filter keep the map-only
        # polars text-kernel shape in-window)
        "lang_id": textstats.lang_id,
        # rotated out r5 (late) for mixture_sample: knn_bruteforce (green
        # r3-r4 unchanged; ivf_ann_full_probe runs the same broadcast-query
        # matmul partial-top-k kernel in-window)
        "knn_bruteforce": simsearch.knn_bruteforce,
        # rotated out r5 (late) for embedding_lsh_pairs_full: embedding_
        # dedup_keep_first (green r2-r4 unchanged; near_dedup_keep_first
        # exercises _components_assign/_keep_reps in-window)
        "embedding_dedup_keep_first": dedup.embedding_dedup_keep_first,
        # rotated out r5 (late) for pii_stats/redact_pii: token_counts_bpe
        # (green r2-r4 unchanged; index_doc_lens counts tokens through the
        # real tokenizer in-window) and quota_sample (green r2-r4
        # unchanged, pytest-forced multi-pass combine; mixture_sample +
        # contamination_screen keep the deterministic-selection family
        # in-window)
        "token_counts_bpe": textstats.token_counts_bpe,
        "quota_sample": sampling.quota_sample,
        # rotated out r5 (late) for ngram_counts: exact_dup_groups (green
        # r2-r4 unchanged; the _dup_groups spill kernel stays in-window via
        # lsh_candidate_pairs / near_dedup_keep_first)
        "exact_dup_groups": dedup.exact_dup_groups,
        # rotated out r5 (late) for shuffle_pack: passage_topk (green r3-r4
        # unchanged; extent_topk scores the same passage windows in-window)
        "passage_topk": _passage_topk,
        # rotated out r5 (each hash-green 2+ rounds on an unchanged path
        # with an in-window kernel twin): tumbling_counts↔hopping_counts,
        # doc_fingerprints↔fingerprint_dup_pairs (same winnowing kernel),
        # sample_hash↔quota_sample/contamination_screen (deterministic
        # content-hash selection), simhash_fingerprints↔minhash_signatures
        # (vectorized md5-token-hash kernels), cosine_pairs↔knn_bruteforce
        # (exact normalized-cosine kernels)
        # rotated out r5: tfidf_topk (hash-green r2-r4 on an unchanged
        # path; in-window scorer-kernel twins bm25_topk/bm25_topk_kstem)
        # and ngram_jaccard_pairs (green r2-r4 unchanged; shingle-set twins
        # lsh_candidate_pairs/minhash_signatures/contamination_screen stay
        # in-window)
        # rotated out r5 for extent_topk: field_filter_topk (green r2-r4
        # unchanged; date_topk exercises the same numeric-predicate kernel)
        # rotated out r5 for dup_span_stats: minhash_signatures (green
        # r2-r4 unchanged; lsh_candidate_pairs runs the same _minhash_wide
        # / _doc_shingles kernel in-window)
        "minhash_signatures": dedup.minhash_signatures,
        # rotated out r5 for remove_dup_spans: term_stats (green r1-r4
        # unchanged; index_term_stats keeps the map-side-partial +
        # groupby-finalize shape over the same tokenizer in-window)
        "term_stats": textstats.term_stats,
        # rotated out r5 for unigram_logprob: lsh_ann_full_probe (green
        # r3-r4 unchanged; in-window twins ivf_ann_full_probe + knn_
        # bruteforce cover the full-probe contract and the cosine kernel)
        "lsh_ann_full_probe": lambda sf: simsearch.lsh_ann_topk(
            sf, probe_bits=12),  # all 2^12 buckets probed ≡ brute force
        # rotated out r5 for ccnet_buckets: gopher_filter (green r3-r4
        # unchanged; in-window twin quality_filter applies the same
        # composite threshold kernel over the same token/line ratios)
        "gopher_filter": textstats.gopher_filter,
        "field_filter_topk": _field_filter_topk,
        "tfidf_topk": lambda sf: _bm25_topk(sf, stem=False, variant="tfidf"),
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
        "near_dup_clusters": dedup.near_dup_clusters,
        "tumbling_counts": events.tumbling_counts,
        "doc_fingerprints": textstats.doc_fingerprints,
        "sample_hash": sampling.sample_hash,
        "simhash_fingerprints": dedup.simhash_fingerprints,
        "cosine_pairs": simsearch.cosine_pairs,
        # rotated out after 2+ consecutive hash-green rounds (r2+r3) with an
        # UNCHANGED execution path, each with an in-window twin exercising
        # the same kernel (quality_scores↔quality_filter, line_stats↔
        # gopher_filter, token_counts↔token_counts_bpe/index_doc_lens), or
        # rows-only entries whose exactness twin is in-window; all remain
        # pytest-covered
        "token_counts": textstats.token_counts,
        "top_terms": textstats.top_terms,
        "dedup_keep_first": dedup.dedup_keep_first,
        "quality_scores": textstats.quality_scores,
        "line_stats": textstats.line_stats,
        "lang_table_stats": textstats.lang_table_stats,
        "index_stopped_doc_lens": _index_stopped_doc_lens,
        "embedding_dup_clusters": dedup.embedding_dup_clusters,
        "lsh_ann_topk": simsearch.lsh_ann_topk,
        "ivf_ann_topk": simsearch.ivf_ann_topk,
    }


def _media_features_sql() -> str:
    """Exact SQL for the ``media_features`` entry: rebuilds every synthetic
    payload byte-for-byte inside DuckDB — the md5 keystream blocks are
    ``md5(seed || ':' || i || tag)`` over ASCII inputs (multimodal._keystream),
    so ``string_agg`` of block hashes is the payload hex — then recomputes
    the P6 pixel statistics, WAV PCM16 sample statistics and byte-histogram
    features, the hex-form checksum (``md5_number_upper(phex)`` ==
    little-endian first-8-digest-bytes in Python), and the same
    ``floor(x·10⁶)/10⁶`` pin the Ray side applies.  2591 = max body bytes
    (image 3·36·24) at any sf, so the fixed series covers every payload."""

    def le4(e: str) -> str:
        h = f"printf('%08x', {e})"
        return (f"(substr({h},7,2)||substr({h},5,2)"
                f"||substr({h},3,2)||substr({h},1,2))")

    vcols = ", ".join(f"max(CASE WHEN j={j} THEN frac END) v{j}"
                      for j in range(16))
    gtail = ", ".join(
        f"CASE p.kind WHEN 'video' THEN v.v{j} ELSE 0.0 END AS g{j}"
        for j in range(10, 16))
    fouts = ", ".join(f"floor(g{j} * 1000000) / 1000000 AS f{j}"
                      for j in range(16))
    wav_hdr = ("'52494646' || " + le4("36 + 2*nsamp")
               + " || '57415645666d74201000000001000100803e0000007d0000"
               "0200100064617461' || " + le4("2*nsamp"))
    return f"""
WITH series AS (SELECT i FROM generate_series(0, 2591) t(i)),
base AS (
  SELECT doc_id, md5(text) AS seed,
         CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio' ELSE 'video' END AS kind,
         (8 + (doc_id % 8) * 4)::INT AS w, (8 + (doc_id % 5) * 4)::INT AS h,
         (400 + (doc_id % 100) * 8)::INT AS nsamp, (64 + (doc_id % 7) * 17)::INT AS vbytes
  FROM documents
),
sized AS (
  SELECT *, CASE kind WHEN 'image' THEN 3*w*h WHEN 'audio' THEN 2*nsamp ELSE vbytes END AS body_n,
         CASE kind WHEN 'image' THEN '' WHEN 'audio' THEN 'a' ELSE 'v' END AS tag
  FROM base
),
ks AS (
  SELECT s.doc_id, string_agg(md5(s.seed || ':' || t.i || s.tag), '' ORDER BY t.i) AS stream_hex
  FROM sized s JOIN series t ON t.i <= ((s.body_n + 15) // 16) - 1
  GROUP BY s.doc_id
),
body AS (
  SELECT s.*, substr(k.stream_hex, 1, 2*s.body_n) AS body_hex
  FROM sized s JOIN ks k USING (doc_id)
),
payload AS (
  SELECT doc_id, kind, w, h, nsamp, body_n, body_hex,
    CASE kind
      WHEN 'image' THEN lower(hex(encode('P6' || chr(10) || w || ' ' || h || chr(10) || '255' || chr(10)))) || body_hex
      WHEN 'audio' THEN {wav_hdr} || body_hex
      ELSE body_hex
    END AS phex
  FROM body
),
imgb AS (
  SELECT p.doc_id, t.i, ('0x' || substr(p.body_hex, 2*t.i + 1, 2))::INT AS b, t.i % 3 AS ch
  FROM payload p JOIN series t ON t.i <= p.body_n - 1 WHERE p.kind = 'image'
),
imgch AS (SELECT doc_id, ch, avg(b) AS m FROM imgb GROUP BY doc_id, ch),
imgstd AS (
  SELECT b.doc_id, b.ch, sqrt(avg((b.b - c.m)*(b.b - c.m))) AS sd
  FROM imgb b JOIN imgch c USING (doc_id, ch) GROUP BY b.doc_id, b.ch
),
imgm AS (SELECT doc_id, max(CASE WHEN ch=0 THEN m END) m0, max(CASE WHEN ch=1 THEN m END) m1,
                max(CASE WHEN ch=2 THEN m END) m2 FROM imgch GROUP BY doc_id),
imgs AS (SELECT doc_id, max(CASE WHEN ch=0 THEN sd END) s0, max(CASE WHEN ch=1 THEN sd END) s1,
                max(CASE WHEN ch=2 THEN sd END) s2 FROM imgstd GROUP BY doc_id),
imgmm AS (SELECT doc_id, min(b)::DOUBLE mn, max(b)::DOUBLE mx FROM imgb GROUP BY doc_id),
audx AS (
  SELECT p.doc_id, t.i,
    (CASE WHEN ('0x' || substr(p.body_hex, 4*t.i + 3, 2) || substr(p.body_hex, 4*t.i + 1, 2))::INT >= 32768
          THEN ('0x' || substr(p.body_hex, 4*t.i + 3, 2) || substr(p.body_hex, 4*t.i + 1, 2))::INT - 65536
          ELSE ('0x' || substr(p.body_hex, 4*t.i + 3, 2) || substr(p.body_hex, 4*t.i + 1, 2))::INT END)::DOUBLE AS x
  FROM payload p JOIN series t ON t.i <= p.nsamp - 1 WHERE p.kind = 'audio'
),
audst AS (SELECT doc_id, sqrt(avg(x*x)) rms, avg(x) mean, min(x) mn, max(x) mx FROM audx GROUP BY doc_id),
audzc AS (
  SELECT doc_id, sum(CASE WHEN (x < 0) != (px < 0) THEN 1 ELSE 0 END)::DOUBLE zc
  FROM (SELECT doc_id, x, lag(x) OVER (PARTITION BY doc_id ORDER BY i) px FROM audx)
  WHERE px IS NOT NULL GROUP BY doc_id
),
vidb AS (
  SELECT p.doc_id, ('0x' || substr(p.body_hex, 2*t.i + 1, 2))::INT // 16 AS bin
  FROM payload p JOIN series t ON t.i <= p.body_n - 1 WHERE p.kind = 'video'
),
vidcnt AS (SELECT doc_id, bin, count(*) c FROM vidb GROUP BY doc_id, bin),
vidgrid AS (SELECT p.doc_id, p.body_n, g.j FROM payload p, generate_series(0,15) g(j) WHERE p.kind='video'),
vidh AS (
  SELECT g.doc_id, g.j, coalesce(c.c, 0)::DOUBLE / g.body_n AS frac
  FROM vidgrid g LEFT JOIN vidcnt c ON c.doc_id = g.doc_id AND c.bin = g.j
),
vidw AS (SELECT doc_id, {vcols} FROM vidh GROUP BY doc_id),
raw AS (
  SELECT p.doc_id, p.kind, (length(p.phex) // 2)::BIGINT AS n_bytes,
         (md5_number_upper(p.phex) // 2)::BIGINT AS checksum,
    CASE p.kind WHEN 'image' THEN p.w::DOUBLE WHEN 'audio' THEN 16000.0 ELSE v.v0 END AS g0,
    CASE p.kind WHEN 'image' THEN p.h::DOUBLE WHEN 'audio' THEN p.nsamp::DOUBLE ELSE v.v1 END AS g1,
    CASE p.kind WHEN 'image' THEN m.m0 WHEN 'audio' THEN a.rms ELSE v.v2 END AS g2,
    CASE p.kind WHEN 'image' THEN m.m1 WHEN 'audio' THEN a.mean ELSE v.v3 END AS g3,
    CASE p.kind WHEN 'image' THEN m.m2 WHEN 'audio' THEN a.mn ELSE v.v4 END AS g4,
    CASE p.kind WHEN 'image' THEN s.s0 WHEN 'audio' THEN a.mx ELSE v.v5 END AS g5,
    CASE p.kind WHEN 'image' THEN s.s1 WHEN 'audio' THEN z.zc ELSE v.v6 END AS g6,
    CASE p.kind WHEN 'image' THEN s.s2 WHEN 'audio' THEN 0.0 ELSE v.v7 END AS g7,
    CASE p.kind WHEN 'image' THEN mm.mn WHEN 'audio' THEN 0.0 ELSE v.v8 END AS g8,
    CASE p.kind WHEN 'image' THEN mm.mx WHEN 'audio' THEN 0.0 ELSE v.v9 END AS g9,
    {gtail}
  FROM payload p
  LEFT JOIN imgm m USING (doc_id) LEFT JOIN imgs s USING (doc_id) LEFT JOIN imgmm mm USING (doc_id)
  LEFT JOIN audst a USING (doc_id) LEFT JOIN audzc z USING (doc_id) LEFT JOIN vidw v USING (doc_id)
)
SELECT doc_id AS item_id, kind, n_bytes, checksum, {fouts}
FROM raw ORDER BY item_id
"""


_LINK_EDGES_SQL = """
    WITH deg AS (SELECT doc_id, 1 + doc_id % 3 AS d FROM documents)
    SELECT g.doc_id AS src,
           ((g.doc_id * 31 + j.j * 17)
            % (SELECT count(*) FROM documents))::BIGINT AS dst,
           1.0 / g.d AS w
    FROM deg g JOIN generate_series(1, 3) j(j) ON j.j <= g.d
    ORDER BY src, dst"""


def _pagerank_sql(iters: int = 5, damping: float = 0.85) -> str:
    """Unrolled damped power iteration matching functions/linkgraph.py:
    identical synthetic edge set, identical per-iteration scale-invariant
    round(score·n, 12)/n pin (absorbs summation-order ulps while keeping
    ~12 significant digits at any n — raw-score rounding leaks mass at
    scale), no dangling nodes in this graph (outdeg ≥ 1 by construction —
    the engine's dangling redistribution is pytest-covered instead)."""
    parts = [
        "WITH nn AS (SELECT count(*)::DOUBLE AS n FROM documents),",
        "deg AS (SELECT doc_id, 1 + doc_id % 3 AS d FROM documents),",
        """edges AS (
          SELECT g.doc_id AS src,
                 ((g.doc_id * 31 + j.j * 17)
                  % (SELECT count(*) FROM documents))::BIGINT AS dst,
                 1.0 / g.d AS w
          FROM deg g JOIN generate_series(1, 3) j(j) ON j.j <= g.d),""",
        "s0 AS (SELECT doc_id, 1.0/(SELECT n FROM nn) AS score FROM documents)",
    ]
    for t in range(1, iters + 1):
        parts.append(f""",
        s{t} AS (
          SELECT d.doc_id,
                 round(((1 - {damping})/(SELECT n FROM nn)
                        + {damping} * coalesce(c.contrib, 0))
                       * (SELECT n FROM nn), 12)
                 / (SELECT n FROM nn) AS score
          FROM documents d LEFT JOIN (
            SELECT e.dst AS doc_id, sum(e.w * s.score) AS contrib
            FROM edges e JOIN s{t - 1} s ON s.doc_id = e.src
            GROUP BY e.dst) c USING (doc_id))""")
    parts.append(f"\nSELECT doc_id, score FROM s{iters} ORDER BY doc_id")
    return "".join(parts)


def _bm25_values_clause() -> str:
    """VALUES rows (qid, term, qtf) for the fixed query set (terms via the
    same [a-z0-9]+ tokenization; qtf counts duplicates)."""
    import re

    rows = []
    for qid, text in BM25_QUERIES:
        counts: dict[str, int] = {}
        for t in re.findall(r"[a-z0-9]+", text.lower()):
            counts[t] = counts.get(t, 0) + 1
        for term, qtf in counts.items():
            rows.append(f"({qid}, '{term}', {qtf})")
    return ", ".join(rows)


_BM25_SQL = f"""
WITH docs AS (SELECT doc_id, {TOKEN_SQL} AS toks FROM documents),
stats AS (SELECT count(*)::DOUBLE AS n, sum(len(toks))::DOUBLE AS total FROM docs),
tf AS (SELECT doc_id, t AS term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(toks) AS t FROM docs) GROUP BY doc_id, t),
dl AS (SELECT doc_id, len(toks)::DOUBLE AS dl FROM docs),
dfreq AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
q(qid, term, qtf) AS (VALUES {{values}}),
scores AS (
  SELECT q.qid, tf.doc_id,
         SUM( ((7.0 + 1) * q.qtf / (7.0 + q.qtf))
              * ln((s.n - dfreq.df + 0.5) / (dfreq.df + 0.5))
              * (1.2 + 1) * tf.tf
              / (tf.tf + 1.2 * (1 - 0.75) + 1.2 * 0.75 * dl.dl / (s.total / s.n))
         ) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN dfreq ON dfreq.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id)
SELECT qid, rank, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY round(score, 9) DESC, doc_id DESC) AS rank
  FROM scores)
WHERE rank <= 10
ORDER BY qid, rank
"""

_TFIDF_SQL = f"""
WITH docs AS (SELECT doc_id, {TOKEN_SQL} AS toks FROM documents),
stats AS (SELECT count(*)::DOUBLE AS n, sum(len(toks))::DOUBLE AS total FROM docs),
tf AS (SELECT doc_id, t AS term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(toks) AS t FROM docs) GROUP BY doc_id, t),
dl AS (SELECT doc_id, len(toks)::DOUBLE AS dl FROM docs),
dfreq AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
q(qid, term, qtf) AS (VALUES {{values}}),
scores AS (
  SELECT q.qid, tf.doc_id,
         SUM( (ln((s.n + 1) / (dfreq.df + 0.5)) * 1.2 * q.qtf / (q.qtf + 1.2))
              * ln((s.n + 1) / (dfreq.df + 0.5)) * 1.2 * tf.tf
              / (tf.tf + 1.2 * (1 - 0.75) + 1.2 * 0.75 * dl.dl / (s.total / s.n))
         ) AS score
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN dfreq ON dfreq.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.qid, tf.doc_id)
SELECT qid, rank, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY round(score, 9) DESC, doc_id DESC) AS rank
  FROM scores)
WHERE rank <= 10
ORDER BY qid, rank
"""


def _lm_sql(method: str) -> str:
    if method == "dirichlet":
        contrib = (
            "q.qtf * ln((coalesce(tf.tf, 0) + 2500.0 * coalesce(cfreq.cf, 0.5) / s.total)"
            " / (dl.dl + 2500.0))"
        )
    elif method == "two":  # two-stage: dirichlet inner, JM outer (λ=0.4)
        contrib = (
            "q.qtf * ln(0.6 * (coalesce(tf.tf, 0) + 2500.0 * coalesce(cfreq.cf, 0.5)"
            " / s.total) / (dl.dl + 2500.0)"
            " + 0.4 * coalesce(cfreq.cf, 0.5) / s.total)"
        )
    else:  # jelinek-mercer, lambda=0.4
        contrib = (
            "q.qtf * ln(0.6 * coalesce(tf.tf, 0) / dl.dl"
            " + 0.4 * coalesce(cfreq.cf, 0.5) / s.total)"
        )
    return f"""
WITH docs AS (SELECT doc_id, {TOKEN_SQL} AS toks FROM documents),
stats AS (SELECT sum(len(toks))::DOUBLE AS total FROM docs),
tf AS (SELECT doc_id, t AS term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(toks) AS t FROM docs) GROUP BY doc_id, t),
dl AS (SELECT doc_id, len(toks)::DOUBLE AS dl FROM docs),
cfreq AS (SELECT term, sum(tf)::DOUBLE AS cf FROM tf GROUP BY term),
q(qid, term, qtf) AS (VALUES {{values}}),
qn AS (SELECT qid, sum(qtf)::DOUBLE AS n FROM q GROUP BY qid),
cand AS (SELECT DISTINCT q.qid, tf.doc_id FROM q JOIN tf ON tf.term = q.term),
contrib AS (
  SELECT c.qid, c.doc_id, {contrib} AS v
  FROM cand c
  JOIN q ON q.qid = c.qid
  LEFT JOIN tf ON tf.doc_id = c.doc_id AND tf.term = q.term
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN cfreq ON cfreq.term = q.term
  CROSS JOIN stats s),
scores AS (
  SELECT contrib.qid, doc_id, sum(v) / qn.n AS score
  FROM contrib JOIN qn ON qn.qid = contrib.qid
  GROUP BY contrib.qid, doc_id, qn.n)
SELECT qid, rank, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY round(score, 9) DESC, doc_id DESC) AS rank
  FROM scores)
WHERE rank <= 10
ORDER BY qid, rank
"""


def _structured_sql() -> str:
    """DuckDB oracle for STRUCTURED_QUERIES: dirichlet beliefs with global
    node statistics; window tf via positional self-checks on the token
    list; same candidates (union of leaf matches) and tie-break."""

    def dir_term(alias: str, term: str) -> str:
        cfv = f"(SELECT cf FROM cfreq WHERE term = '{term}')"
        return (
            f"ln((coalesce({alias}.tf, 0) + 2500.0 * "
            f"(CASE WHEN coalesce({cfv}, 0) > 0 THEN {cfv} ELSE 0.5 END) / s.total)"
            f" / (dl.dl + 2500.0))"
        )

    def dir_w(walias: str, wcf: str) -> str:
        return (
            f"ln((coalesce({walias}.wtf, 0) + 2500.0 * "
            f"(CASE WHEN {wcf}.cf > 0 THEN {wcf}.cf ELSE 0.5 END) / s.total)"
            f" / (dl.dl + 2500.0))"
        )

    def cand(terms: list[str]) -> str:
        inlist = ", ".join(f"'{t}'" for t in terms)
        return f"(SELECT DISTINCT doc_id FROM tf WHERE term IN ({inlist}))"

    q1 = f"""
  SELECT 1 AS qid, c.doc_id, ({dir_w('w1', 'w1cf')} + {dir_term('t_m', 'merge')}) / 2 AS score
  FROM {cand(['table', 'hash', 'merge'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN w1 ON w1.doc_id = c.doc_id
  LEFT JOIN tf t_m ON t_m.doc_id = c.doc_id AND t_m.term = 'merge'
  CROSS JOIN stats s CROSS JOIN w1cf"""
    q2 = f"""
  SELECT 2 AS qid, c.doc_id, {dir_w('w2', 'w2cf')} AS score
  FROM {cand(['customer', 'join'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN w2 ON w2.doc_id = c.doc_id
  CROSS JOIN stats s CROSS JOIN w2cf"""
    q3 = f"""
  SELECT 3 AS qid, c.doc_id,
         (2.0 * {dir_term('t_s', 'spark')} + 1.0 * {dir_term('t_w', 'window')}) / 3.0 AS score
  FROM {cand(['spark', 'window'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN tf t_s ON t_s.doc_id = c.doc_id AND t_s.term = 'spark'
  LEFT JOIN tf t_w ON t_w.doc_id = c.doc_id AND t_w.term = 'window'
  CROSS JOIN stats s"""
    q4 = f"""
  SELECT 4 AS qid, c.doc_id,
         greatest({dir_term('t_a', 'sort')}, {dir_term('t_b', 'filter')}) AS score
  FROM {cand(['sort', 'filter'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN tf t_a ON t_a.doc_id = c.doc_id AND t_a.term = 'sort'
  LEFT JOIN tf t_b ON t_b.doc_id = c.doc_id AND t_b.term = 'filter'
  CROSS JOIN stats s"""
    q5 = f"""
  SELECT 5 AS qid, c.doc_id,
         ln(1.0 - (1.0 - exp({dir_term('t_a', 'slow')})) * (1.0 - exp({dir_term('t_b', 'key')}))) AS score
  FROM {cand(['slow', 'key'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN tf t_a ON t_a.doc_id = c.doc_id AND t_a.term = 'slow'
  LEFT JOIN tf t_b ON t_b.doc_id = c.doc_id AND t_b.term = 'key'
  CROSS JOIN stats s"""

    return f"""
WITH docs AS (SELECT doc_id, {TOKEN_SQL} AS t FROM documents),
stats AS (SELECT sum(len(t))::DOUBLE AS total FROM docs),
dl AS (SELECT doc_id, len(t)::DOUBLE AS dl FROM docs),
tf AS (SELECT doc_id, x AS term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(t) AS x FROM docs) GROUP BY doc_id, x),
cfreq AS (SELECT term, sum(tf)::DOUBLE AS cf FROM tf GROUP BY term),
seq AS (SELECT doc_id, t, unnest(generate_series(1, len(t) - 1)) AS i
        FROM docs WHERE len(t) >= 2),
w1 AS (SELECT doc_id, count(*)::DOUBLE AS wtf FROM seq
       WHERE t[i] = 'table' AND t[i+1] = 'hash' GROUP BY doc_id),
w1cf AS (SELECT coalesce(sum(wtf), 0)::DOUBLE AS cf FROM w1),
w2 AS (SELECT doc_id, count(*)::DOUBLE AS wtf FROM seq
       WHERE t[i] = 'customer' AND (t[i+1] = 'join' OR t[i+2] = 'join')
       GROUP BY doc_id),
w2cf AS (SELECT coalesce(sum(wtf), 0)::DOUBLE AS cf FROM w2),
scores AS ({q1} UNION ALL {q2} UNION ALL {q3} UNION ALL {q4} UNION ALL {q5})
SELECT qid, rank, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY round(score, 9) DESC, doc_id DESC) AS rank
  FROM scores)
WHERE rank <= 10
ORDER BY qid, rank
"""


def _structured2_sql() -> str:
    """Oracle for STRUCTURED2_QUERIES: #uw2 = adjacency in either order
    (the anchor-scan formula for two distinct terms, n=2,
    ref:src/UnorderedWindowNode.cpp:68-151); #band = presence indicator;
    #syn = member tf sum (distinct terms never share positions); #wsyn =
    normalized weighted tf sum; #not = ln(1-p); #filrej = anti-join on the
    filter term."""

    def dir_term(alias: str, term: str) -> str:
        cfv = f"(SELECT cf FROM cfreq WHERE term = '{term}')"
        return (
            f"ln((coalesce({alias}.tf, 0) + 2500.0 * "
            f"(CASE WHEN coalesce({cfv}, 0) > 0 THEN {cfv} ELSE 0.5 END) / s.total)"
            f" / (dl.dl + 2500.0))"
        )

    def dir_w(walias: str, wcf: str) -> str:
        return (
            f"ln((coalesce({walias}.wtf, 0) + 2500.0 * "
            f"(CASE WHEN {wcf}.cf > 0 THEN {wcf}.cf ELSE 0.5 END) / s.total)"
            f" / (dl.dl + 2500.0))"
        )

    def cand(terms: list[str]) -> str:
        inlist = ", ".join(f"'{t}'" for t in terms)
        return f"(SELECT DISTINCT doc_id FROM tf WHERE term IN ({inlist}))"

    q1 = f"""
  SELECT 1 AS qid, c.doc_id, ({dir_w('uw', 'uwcf')} + {dir_term('t_t', 'token')}) / 2 AS score
  FROM {cand(['merge', 'data', 'token'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN uw ON uw.doc_id = c.doc_id
  LEFT JOIN tf t_t ON t_t.doc_id = c.doc_id AND t_t.term = 'token'
  CROSS JOIN stats s CROSS JOIN uwcf"""
    q2 = f"""
  SELECT 2 AS qid, c.doc_id, ({dir_w('bd', 'bdcf')} + {dir_term('t_k', 'key')}) / 2 AS score
  FROM {cand(['merge', 'data', 'key'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN band bd ON bd.doc_id = c.doc_id
  LEFT JOIN tf t_k ON t_k.doc_id = c.doc_id AND t_k.term = 'key'
  CROSS JOIN stats s CROSS JOIN bdcf"""
    q3 = f"""
  SELECT 3 AS qid, c.doc_id, {dir_w('sy', 'sycf')} AS score
  FROM {cand(['merge', 'data'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN syn sy ON sy.doc_id = c.doc_id
  CROSS JOIN stats s CROSS JOIN sycf"""
    q4 = f"""
  SELECT 4 AS qid, c.doc_id, {dir_w('ws', 'wscf')} AS score
  FROM {cand(['merge', 'data'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN wsyn ws ON ws.doc_id = c.doc_id
  CROSS JOIN stats s CROSS JOIN wscf"""
    q5 = f"""
  SELECT 5 AS qid, c.doc_id,
         (ln(1.0 - exp({dir_term('t_m', 'merge')})) + {dir_term('t_d', 'data')}) / 2 AS score
  FROM {cand(['merge', 'data'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN tf t_m ON t_m.doc_id = c.doc_id AND t_m.term = 'merge'
  LEFT JOIN tf t_d ON t_d.doc_id = c.doc_id AND t_d.term = 'data'
  CROSS JOIN stats s"""
    q6 = f"""
  SELECT 6 AS qid, c.doc_id, ({dir_term('t_m', 'merge')} + {dir_term('t_d', 'data')}) / 2 AS score
  FROM {cand(['merge', 'data'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN tf t_m ON t_m.doc_id = c.doc_id AND t_m.term = 'merge'
  LEFT JOIN tf t_d ON t_d.doc_id = c.doc_id AND t_d.term = 'data'
  LEFT JOIN tf t_k ON t_k.doc_id = c.doc_id AND t_k.term = 'key'
  CROSS JOIN stats s
  WHERE coalesce(t_k.tf, 0) = 0"""
    q7 = f"""
  SELECT 7 AS qid, c.doc_id,
         ln(0.75 * exp({dir_term('t_m', 'merge')}) + 0.25 * exp({dir_term('t_d', 'data')})) AS score
  FROM {cand(['merge', 'data'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN tf t_m ON t_m.doc_id = c.doc_id AND t_m.term = 'merge'
  LEFT JOIN tf t_d ON t_d.doc_id = c.doc_id AND t_d.term = 'data'
  CROSS JOIN stats s"""
    q8 = f"""
  SELECT 8 AS qid, c.doc_id,
         ln((exp({dir_term('t_m', 'merge')}) + exp({dir_term('t_d', 'data')})
             + exp({dir_term('t_t', 'token')})) / 3.0) AS score
  FROM {cand(['merge', 'data', 'token'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN tf t_m ON t_m.doc_id = c.doc_id AND t_m.term = 'merge'
  LEFT JOIN tf t_d ON t_d.doc_id = c.doc_id AND t_d.term = 'data'
  LEFT JOIN tf t_t ON t_t.doc_id = c.doc_id AND t_t.term = 'token'
  CROSS JOIN stats s"""

    return f"""
WITH docs AS (SELECT doc_id, {TOKEN_SQL} AS t FROM documents),
stats AS (SELECT sum(len(t))::DOUBLE AS total FROM docs),
dl AS (SELECT doc_id, len(t)::DOUBLE AS dl FROM docs),
tf AS (SELECT doc_id, x AS term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(t) AS x FROM docs) GROUP BY doc_id, x),
cfreq AS (SELECT term, sum(tf)::DOUBLE AS cf FROM tf GROUP BY term),
seq AS (SELECT doc_id, t, unnest(generate_series(1, len(t) - 1)) AS i
        FROM docs WHERE len(t) >= 2),
uw AS (SELECT doc_id, count(*)::DOUBLE AS wtf FROM seq
       WHERE (t[i] = 'merge' AND t[i+1] = 'data')
          OR (t[i] = 'data' AND t[i+1] = 'merge') GROUP BY doc_id),
uwcf AS (SELECT coalesce(sum(wtf), 0)::DOUBLE AS cf FROM uw),
band AS (SELECT a.doc_id, 1.0 AS wtf
         FROM tf a JOIN tf b ON a.doc_id = b.doc_id
         WHERE a.term = 'merge' AND b.term = 'data'),
bdcf AS (SELECT coalesce(sum(wtf), 0)::DOUBLE AS cf FROM band),
syn AS (SELECT doc_id, sum(tf)::DOUBLE AS wtf FROM tf
        WHERE term IN ('merge', 'data') GROUP BY doc_id),
sycf AS (SELECT coalesce(sum(wtf), 0)::DOUBLE AS cf FROM syn),
wsyn AS (SELECT doc_id,
                sum(CASE WHEN term = 'merge' THEN 2.0 * tf ELSE tf END) / 3.0 AS wtf
         FROM tf WHERE term IN ('merge', 'data') GROUP BY doc_id),
wscf AS (SELECT coalesce(sum(wtf), 0)::DOUBLE AS cf FROM wsyn),
scores AS ({q1} UNION ALL {q2} UNION ALL {q3} UNION ALL {q4} UNION ALL {q5} UNION ALL {q6} UNION ALL {q7} UNION ALL {q8})
SELECT qid, rank, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY round(score, 9) DESC, doc_id DESC) AS rank
  FROM scores)
WHERE rank <= 10
ORDER BY qid, rank
"""


def _sdm_sql() -> str:
    """Oracle for SDM_RAW_QUERIES: the reformulate app's SDM rewrite
    (ref:src/ReformulateQuery.cpp:144-164) scored with dirichlet beliefs.
    Per query with terms t1..tk: score = 0.85·avg(term beliefs) +
    0.1·avg(#1 bigram beliefs) + 0.05·avg(#uw8 bigram beliefs), weights
    normalized by 1.0.  #1 tf = adjacent-pair count; #uw8 tf = the anchor
    scan (ref:src/UnorderedWindowNode.cpp:68-151) — for two DISTINCT terms
    an anchor p of either type counts iff the other term has an occurrence
    q with p < q ≤ p+7, expressed as one EXISTS per direction.  The term
    lists are derived by the same transform the Ray side runs
    (downcase → stop structures → lite stop)."""

    def dir_term(alias: str, term: str) -> str:
        cfv = f"(SELECT cf FROM cfreq WHERE term = '{term}')"
        return (
            f"ln((coalesce({alias}.tf, 0) + 2500.0 * "
            f"(CASE WHEN coalesce({cfv}, 0) > 0 THEN {cfv} ELSE 0.5 END) / s.total)"
            f" / (dl.dl + 2500.0))"
        )

    def dir_w(walias: str, wcf: str) -> str:
        return (
            f"ln((coalesce({walias}.wtf, 0) + 2500.0 * "
            f"(CASE WHEN {wcf}.cf > 0 THEN {wcf}.cf ELSE 0.5 END) / s.total)"
            f" / (dl.dl + 2500.0))"
        )

    window_ctes: list[str] = []
    score_selects: list[str] = []
    for qid, raw in SDM_RAW_QUERIES:
        ts = _sdm_terms(raw)
        k = len(ts)
        bigrams = list(zip(ts, ts[1:]))
        term_beliefs = []
        joins = [f"JOIN dl ON dl.doc_id = c.doc_id"]
        for i, t in enumerate(ts):
            a = f"t{qid}_{i}"
            term_beliefs.append(dir_term(a, t))
            joins.append(
                f"LEFT JOIN tf {a} ON {a}.doc_id = c.doc_id AND {a}.term = '{t}'")
        od_beliefs = []
        uw_beliefs = []
        for j, (a, b) in enumerate(bigrams):
            o, u = f"o{qid}_{j}", f"u{qid}_{j}"
            window_ctes.append(
                f"{o} AS (SELECT doc_id, count(*)::DOUBLE AS wtf FROM seq\n"
                f"  WHERE t[i] = '{a}' AND t[i+1] = '{b}' GROUP BY doc_id)")
            window_ctes.append(
                f"{o}cf AS (SELECT coalesce(sum(wtf), 0)::DOUBLE AS cf FROM {o})")
            window_ctes.append(
                f"{u} AS (SELECT doc_id, count(*)::DOUBLE AS wtf FROM (\n"
                f"  SELECT p.doc_id FROM pos p WHERE p.term = '{a}' AND EXISTS (\n"
                f"    SELECT 1 FROM pos q WHERE q.doc_id = p.doc_id AND q.term = '{b}'\n"
                f"      AND q.i > p.i AND q.i <= p.i + 7)\n"
                f"  UNION ALL\n"
                f"  SELECT p.doc_id FROM pos p WHERE p.term = '{b}' AND EXISTS (\n"
                f"    SELECT 1 FROM pos q WHERE q.doc_id = p.doc_id AND q.term = '{a}'\n"
                f"      AND q.i > p.i AND q.i <= p.i + 7)\n"
                f"  ) GROUP BY doc_id)")
            window_ctes.append(
                f"{u}cf AS (SELECT coalesce(sum(wtf), 0)::DOUBLE AS cf FROM {u})")
            od_beliefs.append(dir_w(o, f"{o}cf"))
            uw_beliefs.append(dir_w(u, f"{u}cf"))
            joins.append(f"LEFT JOIN {o} ON {o}.doc_id = c.doc_id")
            joins.append(f"LEFT JOIN {u} ON {u}.doc_id = c.doc_id")
            joins.append(f"CROSS JOIN {o}cf")
            joins.append(f"CROSS JOIN {u}cf")
        joins.append("CROSS JOIN stats s")
        inlist = ", ".join(f"'{t}'" for t in ts)
        cand = f"(SELECT DISTINCT doc_id FROM tf WHERE term IN ({inlist}))"
        score = (
            f"(0.85 * ({' + '.join(term_beliefs)}) / {k}.0"
            f" + 0.1 * ({' + '.join(od_beliefs)}) / {k - 1}.0"
            f" + 0.05 * ({' + '.join(uw_beliefs)}) / {k - 1}.0)")
        score_selects.append(
            f"  SELECT {qid} AS qid, c.doc_id, {score} AS score\n"
            f"  FROM {cand} c\n  " + "\n  ".join(joins))

    windows_sql = ",\n".join(window_ctes)
    scores_sql = " UNION ALL ".join(score_selects)
    return f"""
WITH docs AS (SELECT doc_id, {TOKEN_SQL} AS t FROM documents),
stats AS (SELECT sum(len(t))::DOUBLE AS total FROM docs),
dl AS (SELECT doc_id, len(t)::DOUBLE AS dl FROM docs),
tf AS (SELECT doc_id, x AS term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(t) AS x FROM docs) GROUP BY doc_id, x),
cfreq AS (SELECT term, sum(tf)::DOUBLE AS cf FROM tf GROUP BY term),
seq AS (SELECT doc_id, t, unnest(generate_series(1, len(t) - 1)) AS i
        FROM docs WHERE len(t) >= 2),
pos AS (SELECT doc_id, i, t[i] AS term
        FROM (SELECT doc_id, t, unnest(generate_series(1, len(t))) AS i
              FROM docs)),
{windows_sql},
scores AS ({scores_sql})
SELECT qid, rank, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY round(score, 9) DESC, doc_id DESC) AS rank
  FROM scores)
WHERE rank <= 10
ORDER BY qid, rank
"""


def _nexi_sql() -> str:
    """Oracle for NEXI_QUERIES over the nested corpus, mirroring the
    translated dialect's pinned semantics: [sec]-context dirichlet uses
    sec extent counts/length/total (per the doc_id%3 tree), the
    descendant restriction [.//title] inside [sec] matches only mods 0-1
    with title-context statistics (the _path_sql q2 relation), #1 counts
    adjacent pairs over the full token stream with the window node's
    collection count as cf, #or/#not mix in probability space, and
    candidates are the union of ALL term leaves (the DAAT union,
    including #not children)."""

    def cf_case(expr: str) -> str:
        return f"(CASE WHEN coalesce({expr}, 0) > 0 THEN {expr} ELSE 0.5 END)"

    sec_total = ("(SELECT sum(CASE WHEN doc_id % 3 = 2 THEN len(t0)"
                 " ELSE len(tt) + len(t0) END)::DOUBLE FROM docs)")
    sec_dl = ("(CASE WHEN c.doc_id % 3 = 2 THEN len(d.t0)"
              " ELSE len(d.tt) + len(d.t0) END)")

    def sec_c(t: str) -> str:
        """per-doc count inside sec extents (title+text for mods 0-1,
        text for mod 2); aliases tt_{t}/t0_{t} must be joined."""
        return (f"(CASE WHEN c.doc_id % 3 <> 2 THEN coalesce(tt_{t}.tf, 0)"
                f" + coalesce(t0_{t}.tf, 0) ELSE coalesce(t0_{t}.tf, 0) END)")

    def sec_cf(t: str) -> str:
        return cf_case(
            f"(SELECT sum(CASE WHEN d2.doc_id % 3 <> 2 THEN"
            f" coalesce(a.tf, 0) + coalesce(b.tf, 0)"
            f" ELSE coalesce(b.tf, 0) END) FROM docs d2"
            f" LEFT JOIN ttf a ON a.doc_id = d2.doc_id AND a.term = '{t}'"
            f" LEFT JOIN t0f b ON b.doc_id = d2.doc_id AND b.term = '{t}')")

    def sec_belief(t: str) -> str:
        return (f"ln(({sec_c(t)} + 2500.0 * {sec_cf(t)} / {sec_total})"
                f" / ({sec_dl} + 2500.0))")

    def sec_joins(ts: list[str]) -> str:
        return "\n  ".join(
            f"LEFT JOIN ttf tt_{t} ON tt_{t}.doc_id = c.doc_id AND"
            f" tt_{t}.term = '{t}'\n  "
            f"LEFT JOIN t0f t0_{t} ON t0_{t}.doc_id = c.doc_id AND"
            f" t0_{t}.term = '{t}'" for t in ts)

    def doc_belief(alias: str, t: str) -> str:
        cfv = f"(SELECT cf FROM cfreq WHERE term = '{t}')"
        return (f"ln((coalesce({alias}.tf, 0) + 2500.0 * {cf_case(cfv)}"
                f" / s.total) / (dl.dl + 2500.0))")

    def cand(ts: list[str]) -> str:
        inlist = ", ".join(f"'{t}'" for t in ts)
        return f"(SELECT DISTINCT doc_id FROM tf WHERE term IN ({inlist}))"

    # q1: //sec[about(., merge data)] → mean of sec-ctx beliefs
    q1 = f"""
  SELECT 1 AS qid, c.doc_id,
         ({sec_belief('merge')} + {sec_belief('data')}) / 2.0 AS score
  FROM {cand(['merge', 'data'])} c
  JOIN docs d ON d.doc_id = c.doc_id
  {sec_joins(['merge', 'data'])}"""
    # q2: bare term list → doc-level dirichlet mean
    q2 = f"""
  SELECT 2 AS qid, c.doc_id,
         ({doc_belief('f_m', 'merge')} + {doc_belief('f_d', 'data')}
          + {doc_belief('f_t', 'token')}) / 3.0 AS score
  FROM {cand(['merge', 'data', 'token'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN tf f_m ON f_m.doc_id = c.doc_id AND f_m.term = 'merge'
  LEFT JOIN tf f_d ON f_d.doc_id = c.doc_id AND f_d.term = 'data'
  LEFT JOIN tf f_t ON f_t.doc_id = c.doc_id AND f_t.term = 'token'
  CROSS JOIN stats s"""
    # q3: "merge data" token → #1 window belief (doc ctx) + term belief
    wtbl = ("(SELECT doc_id, count(*)::DOUBLE AS wtf FROM"
            " (SELECT doc_id, T, unnest(generate_series(1, len(T) - 1)) AS i"
            " FROM docs)"
            " WHERE T[i] = 'merge' AND T[i+1] = 'data' GROUP BY doc_id)")
    wcf = cf_case(f"(SELECT sum(wtf) FROM {wtbl} w2)")
    q3 = f"""
  SELECT 3 AS qid, c.doc_id,
         (ln((coalesce(w.wtf, 0) + 2500.0 * {wcf} / s.total)
             / (dl.dl + 2500.0)) + {doc_belief('f_t', 'token')}) / 2.0 AS score
  FROM {cand(['merge', 'data', 'token'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN {wtbl} w ON w.doc_id = c.doc_id
  LEFT JOIN tf f_t ON f_t.doc_id = c.doc_id AND f_t.term = 'token'
  CROSS JOIN stats s"""
    # q4: //sec[about(., merge) OR about(., data)] → #or of sec-ctx beliefs
    q4 = f"""
  SELECT 4 AS qid, c.doc_id,
         ln(1.0 - (1.0 - exp({sec_belief('merge')}))
                * (1.0 - exp({sec_belief('data')}))) AS score
  FROM {cand(['merge', 'data'])} c
  JOIN docs d ON d.doc_id = c.doc_id
  {sec_joins(['merge', 'data'])}"""
    # q5: merge -token data → mean(term, #not(term), term) at doc level
    q5 = f"""
  SELECT 5 AS qid, c.doc_id,
         ({doc_belief('f_m', 'merge')}
          + ln(1.0 - exp({doc_belief('f_t', 'token')}))
          + {doc_belief('f_d', 'data')}) / 3.0 AS score
  FROM {cand(['merge', 'token', 'data'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN tf f_m ON f_m.doc_id = c.doc_id AND f_m.term = 'merge'
  LEFT JOIN tf f_t ON f_t.doc_id = c.doc_id AND f_t.term = 'token'
  LEFT JOIN tf f_d ON f_d.doc_id = c.doc_id AND f_d.term = 'data'
  CROSS JOIN stats s"""
    # q6: //sec[about(.//title, merge)] → title-in-sec restriction =
    # _path_sql q2's descendant relation (mods 0-1), title-ctx statistics
    cf6 = cf_case(
        "(SELECT sum(tf) FROM ttf WHERE term = 'merge' AND doc_id % 3 <> 2)")
    q6 = f"""
  SELECT 6 AS qid, c.doc_id,
         ln(((CASE WHEN c.doc_id % 3 <> 2 THEN coalesce(tm.tf, 0) ELSE 0 END)
             + 2500.0 * {cf6} / s.totalf) / (dl.dlf + 2500.0)) AS score
  FROM {cand(['merge'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN ttf tm ON tm.doc_id = c.doc_id AND tm.term = 'merge'
  CROSS JOIN stats s"""
    return _rank_wrap(" UNION ALL ".join([q1, q2, q3, q4, q5, q6]))


def _shrinkage_sql() -> str:
    """Oracle for SHRINKAGE_QUERIES: the nested corpus's tag tree is fixed
    per ``doc_id % 3`` (corpus_from_documents_nested), so the shrinkage
    up/down passes unroll to closed-form arithmetic per mod.  Token stream
    = first-8 title tokens + text tokens + n_chars token; node spans:
    mod 0 sec{p{title}} = [0,k+n){[0,k){[0,k)}}, mod 1 sec{title}, mod 2
    separate roots title=[0,k) sec=[k,k+n).  Linear smoothing λ=0.4 makes
    each node's subtracted base the pure MLE c/len; parentWeight=0.1,
    docWeight=0.2, an absolute 0.3 rule on title children; unmatched trees
    score 0 and are excluded from the leaf average; a doc with no matched
    tree takes the default ``0.2·base₀ + 0.8·λ·p_c``
    (ref:src/ShrinkageBeliefNode.cpp:278-418)."""
    def mle(c: str, l: str) -> str:
        return (f"(CASE WHEN {l} > 0 THEN (0.6*({c})/({l}) + 0.4*p) "
                f"ELSE (0.4*p) END - 0.4*p) / 0.6")

    def ab(x: str) -> str:  # add back the collection weight
        return f"(0.6*({x}) + 0.4*p)"

    base0 = "(0.6*(ct+cx)/dl + 0.4*p)"
    default = f"(0.2*{base0} + 0.8*(0.4*p))"

    # mod 0: sec{p{title}} — one tree, 3 nodes
    b_t = mle("ct", "k")
    u_p0 = f"(0.7*({mle('ct', 'k')}) + 0.3*({b_t}))"
    u_s0 = mle("ct+cx", "k+n")
    d_s0 = f"(0.8*({u_s0}) + 0.2*{base0})"
    d_p0 = f"(0.7*({u_p0}) + 0.1*({u_s0}) + 0.2*{base0})"
    d_t0 = f"(0.7*({b_t}) + 0.1*({u_p0}) + 0.2*{base0})"
    mod0 = (f"CASE WHEN ct+cx > 0 THEN ln(({ab(d_s0)} + {ab(d_p0)} + "
            f"{ab(d_t0)})/3.0) ELSE ln({default}) END")
    # mod 1: sec{title} — one tree, 2 nodes, the title rule applies to sec
    u_s1 = f"(0.7*({mle('ct+cx', 'k+n')}) + 0.3*({b_t}))"
    d_s1 = f"(0.8*({u_s1}) + 0.2*{base0})"
    d_t1 = f"(0.7*({b_t}) + 0.1*({u_s1}) + 0.2*{base0})"
    mod1 = (f"CASE WHEN ct+cx > 0 THEN ln(({ab(d_s1)} + {ab(d_t1)})/2.0) "
            f"ELSE ln({default}) END")
    # mod 2: separate roots title=[0,k), sec=[k,k+n) — per-tree match
    d_t2 = ab(f"(0.8*({mle('ct', 'k')}) + 0.2*{base0})")
    d_s2 = ab(f"(0.8*({mle('cx', 'n')}) + 0.2*{base0})")
    mod2 = (f"CASE WHEN ct > 0 AND cx > 0 THEN ln(({d_t2} + {d_s2})/2.0) "
            f"WHEN ct > 0 THEN ln({d_t2}) "
            f"WHEN cx > 0 THEN ln({d_s2}) "
            f"ELSE ln({default}) END")
    per_term = (f"CASE mod WHEN 0 THEN {mod0} WHEN 1 THEN {mod1} "
                f"ELSE {mod2} END")

    term_ctes: list[str] = []
    score_selects: list[str] = []
    seen: set[str] = set()
    for qid, text in SHRINKAGE_QUERIES:
        ts = text.split()
        for t in ts:
            if t in seen:
                continue
            seen.add(t)
            term_ctes.append(
                f"c_{t} AS (SELECT doc_id, k, n, dl, mod,\n"
                f"  len(list_filter(tk[1:k], x -> x = '{t}'))::DOUBLE AS ct,\n"
                f"  len(list_filter(tk, x -> x = '{t}'))::DOUBLE AS cx\n"
                f"  FROM base)")
            term_ctes.append(
                f"p_{t} AS (SELECT sum(ct+cx) / (SELECT total FROM tot) AS p"
                f" FROM c_{t})")
            term_ctes.append(
                f"s_{t} AS (SELECT doc_id, ct+cx AS tf, {per_term} AS s "
                f"FROM c_{t} CROSS JOIN p_{t})")
        joins = "\n  ".join(
            f"JOIN s_{t} ON s_{t}.doc_id = c.doc_id" for t in ts)
        sum_s = " + ".join(f"s_{t}.s" for t in ts)
        any_tf = " OR ".join(f"s_{t}.tf > 0" for t in ts)
        cand = (f"(SELECT DISTINCT b.doc_id FROM base b "
                + " ".join(f"JOIN s_{t} s{i} ON s{i}.doc_id = b.doc_id"
                           for i, t in enumerate(ts))
                + " WHERE "
                + " OR ".join(f"s{i}.tf > 0" for i in range(len(ts))) + ")")
        score_selects.append(
            f"  SELECT {qid} AS qid, c.doc_id, ({sum_s})/{len(ts)}.0 AS score\n"
            f"  FROM {cand} c\n  {joins}")

    terms_sql = ",\n".join(term_ctes)
    scores_sql = " UNION ALL ".join(score_selects)
    return f"""
WITH docs AS (SELECT doc_id, {TOKEN_SQL} AS tk FROM documents),
base AS (SELECT doc_id, tk, least(8, len(tk)) AS k, len(tk) AS n,
                least(8, len(tk)) + len(tk) + 1 AS dl,
                doc_id % 3 AS mod
         FROM docs),
tot AS (SELECT sum(dl)::DOUBLE AS total FROM base),
{terms_sql},
scores AS ({scores_sql})
SELECT qid, rank, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY round(score, 9) DESC, doc_id DESC) AS rank
  FROM scores)
WHERE rank <= 10
ORDER BY qid, rank
"""


def _date_sql() -> str:
    """Oracle for DATE_QUERIES: the dated corpus derives each doc's date
    from doc_id (day 1+%28, month %12, year 2000+%5), so the day-serial is
    make_date arithmetic; every doc has exactly one matching extent, so
    counts are the 0/1 predicate and cf is the matching-doc count.  Token
    stream = title(≤8) + text + n_chars + 3 date tokens."""
    dl_cte = """
base AS (SELECT doc_id,
                len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS lt
         FROM documents),
dl AS (SELECT doc_id, (least(8, lt) + lt + 4)::DOUBLE AS dl,
              datediff('day', DATE '1970-01-01',
                       make_date((2000 + doc_id % 5)::INT,
                                 (doc_id % 12 + 1)::INT,
                                 (1 + doc_id % 28)::INT)) AS days
       FROM base),
stats AS (SELECT sum(dl)::DOUBLE AS total FROM dl)
"""

    def q(qid: int, cond: str) -> str:
        cf = f"(SELECT count(*)::DOUBLE FROM dl WHERE {cond})"
        cfe = f"(CASE WHEN {cf} > 0 THEN {cf} ELSE 0.5 END)"
        return f"""
  SELECT {qid} AS qid, dl.doc_id,
         ln((1.0 + 2500.0 * {cfe} / s.total) / (dl.dl + 2500.0)) AS score
  FROM dl CROSS JOIN stats s WHERE {cond}"""

    d = "datediff('day', DATE '1970-01-01', DATE '{}')"
    conds = [
        f"days < {d.format('2002-06-15')}",
        f"days > {d.format('2003-03-01')}",
        f"days >= {d.format('2001-01-01')} AND days < {d.format('2003-01-01')}",
        f"days = {d.format('2004-05-01')}",
    ]
    scores = " UNION ALL ".join(q(i + 1, c) for i, c in enumerate(conds))
    return f"""
WITH {dl_cte},
scores AS ({scores})
SELECT qid, rank, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY round(score, 9) DESC, doc_id DESC) AS rank
  FROM scores)
WHERE rank <= 10
ORDER BY qid, rank
"""


def _field_sql_common() -> str:
    """Shared CTEs for the field oracles: rebuild the tagged corpus's token
    stream (title tokens + text tokens + the n_chars token) and the title/
    document statistics exactly as the engine indexes them."""
    return """
base AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t0,
                n_chars FROM documents),
docs AS (SELECT doc_id, n_chars, t0,
                t0[1:least(8, len(t0))] AS tt,
                t0[1:least(8, len(t0))] || t0 || [n_chars::VARCHAR] AS T
         FROM base),
dl AS (SELECT doc_id, len(T)::DOUBLE AS dl, len(tt)::DOUBLE AS dlf, n_chars
       FROM docs),
stats AS (SELECT sum(len(T))::DOUBLE AS total, sum(len(tt))::DOUBLE AS totalf,
                 count(*)::DOUBLE AS n FROM docs),
tf AS (SELECT doc_id, x AS term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(T) AS x FROM docs) GROUP BY doc_id, x),
ttf AS (SELECT doc_id, x AS term, count(*)::DOUBLE AS tf
        FROM (SELECT doc_id, unnest(tt) AS x FROM docs) GROUP BY doc_id, x),
t0f AS (SELECT doc_id, x AS term, count(*)::DOUBLE AS tf
        FROM (SELECT doc_id, unnest(t0) AS x FROM docs) GROUP BY doc_id, x),
cfreq AS (SELECT term, sum(tf)::DOUBLE AS cf FROM tf GROUP BY term),
tcf AS (SELECT term, sum(tf)::DOUBLE AS cf FROM ttf GROUP BY term)
"""


def _rank_wrap(scores_sql: str) -> str:
    return f"""
WITH {_field_sql_common()},
scores AS ({scores_sql})
SELECT qid, rank, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY round(score, 9) DESC, doc_id DESC) AS rank
  FROM scores)
WHERE rank <= 10
ORDER BY qid, rank
"""


def _field_sql() -> str:
    def cf_of(tbl: str, term: str) -> str:
        cfv = f"(SELECT cf FROM {tbl} WHERE term = '{term}')"
        return f"(CASE WHEN coalesce({cfv}, 0) > 0 THEN {cfv} ELSE 0.5 END)"

    def d_title_ctx(alias: str, term: str) -> str:
        # count in title, FIELD context (dl_f, total_f)
        return (f"ln((coalesce({alias}.tf, 0) + 2500.0 * {cf_of('tcf', term)}"
                f" / s.totalf) / (dl.dlf + 2500.0))")

    def d_title_doc(alias: str, term: str) -> str:
        # count in title, DOC context (dl, total)
        return (f"ln((coalesce({alias}.tf, 0) + 2500.0 * {cf_of('tcf', term)}"
                f" / s.total) / (dl.dl + 2500.0))")

    def d_plain(alias: str, term: str) -> str:
        return (f"ln((coalesce({alias}.tf, 0) + 2500.0 * {cf_of('cfreq', term)}"
                f" / s.total) / (dl.dl + 2500.0))")

    def cand(terms: list[str]) -> str:
        inlist = ", ".join(f"'{t}'" for t in terms)
        return f"(SELECT DISTINCT doc_id FROM tf WHERE term IN ({inlist}))"

    any_title = "ln((1.0 + 2500.0 * s.n / s.total) / (dl.dl + 2500.0))"
    q1 = f"""
  SELECT 1 AS qid, c.doc_id, ({d_title_ctx('tm', 'merge')} + {d_plain('tj', 'join')}) / 2 AS score
  FROM {cand(['merge', 'join'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN ttf tm ON tm.doc_id = c.doc_id AND tm.term = 'merge'
  LEFT JOIN tf tj ON tj.doc_id = c.doc_id AND tj.term = 'join'
  CROSS JOIN stats s"""
    q2 = f"""
  SELECT 2 AS qid, c.doc_id, ({d_title_ctx('tw', 'window')} + {d_title_ctx('ts', 'sort')}) / 2 AS score
  FROM {cand(['window', 'sort'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN ttf tw ON tw.doc_id = c.doc_id AND tw.term = 'window'
  LEFT JOIN ttf ts ON ts.doc_id = c.doc_id AND ts.term = 'sort'
  CROSS JOIN stats s"""
    q3 = f"""
  SELECT 3 AS qid, c.doc_id, ({d_title_doc('tp', 'spark')} + {d_plain('td', 'data')}) / 2 AS score
  FROM {cand(['spark', 'data'])} c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN ttf tp ON tp.doc_id = c.doc_id AND tp.term = 'spark'
  LEFT JOIN tf td ON td.doc_id = c.doc_id AND td.term = 'data'
  CROSS JOIN stats s"""
    q4 = f"""
  SELECT 4 AS qid, dl.doc_id, ({any_title} + {d_plain('tk', 'key')}) / 2 AS score
  FROM dl
  LEFT JOIN tf tk ON tk.doc_id = dl.doc_id AND tk.term = 'key'
  CROSS JOIN stats s"""
    return _rank_wrap(" UNION ALL ".join([q1, q2, q3, q4]))


def _path_sql() -> str:
    """Oracle for the tag-tree path restrictions: the nested corpus varies
    its tree by doc_id % 3 (0: title child of p under sec; 1: title child
    of sec; 2: title outside sec), so the matching relation per query is a
    CASE on the residue — child matches only %3=1, descendant %3 in (0,1),
    parent (sec above title) only %3=1 but counts over the sec extent
    (title+text tokens)."""
    def cf_case(expr: str) -> str:
        return f"(CASE WHEN coalesce({expr}, 0) > 0 THEN {expr} ELSE 0.5 END)"

    cf1 = cf_case("(SELECT sum(tf) FROM ttf WHERE term = 'merge' AND doc_id % 3 = 1)")
    cf2 = cf_case("(SELECT sum(tf) FROM ttf WHERE term = 'data' AND doc_id % 3 <> 2)")
    cf3 = cf_case(
        "(SELECT sum(tf) FROM (SELECT tf FROM ttf WHERE term = 'merge' AND doc_id % 3 = 1"
        " UNION ALL SELECT tf FROM t0f WHERE term = 'merge' AND doc_id % 3 = 1))")
    sec_total = ("(SELECT sum(CASE WHEN doc_id % 3 = 2 THEN len(t0)"
                 " ELSE len(tt) + len(t0) END)::DOUBLE FROM docs)")
    sec_dl = ("(CASE WHEN c.doc_id % 3 = 2 THEN len(d.t0)"
              " ELSE len(d.tt) + len(d.t0) END)")
    q1 = f"""
  SELECT 1 AS qid, c.doc_id,
         ln(((CASE WHEN c.doc_id % 3 = 1 THEN coalesce(tm.tf, 0) ELSE 0 END)
             + 2500.0 * {cf1} / s.totalf) / (dl.dlf + 2500.0)) AS score
  FROM (SELECT DISTINCT doc_id FROM tf WHERE term = 'merge') c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN ttf tm ON tm.doc_id = c.doc_id AND tm.term = 'merge'
  CROSS JOIN stats s"""
    q2 = f"""
  SELECT 2 AS qid, c.doc_id,
         ln(((CASE WHEN c.doc_id % 3 <> 2 THEN coalesce(td.tf, 0) ELSE 0 END)
             + 2500.0 * {cf2} / s.totalf) / (dl.dlf + 2500.0)) AS score
  FROM (SELECT DISTINCT doc_id FROM tf WHERE term = 'data') c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN ttf td ON td.doc_id = c.doc_id AND td.term = 'data'
  CROSS JOIN stats s"""
    q3 = f"""
  SELECT 3 AS qid, c.doc_id,
         ln(((CASE WHEN c.doc_id % 3 = 1
                   THEN coalesce(tm.tf, 0) + coalesce(t0m.tf, 0) ELSE 0 END)
             + 2500.0 * {cf3} / {sec_total})
            / ({sec_dl} + 2500.0)) AS score
  FROM (SELECT DISTINCT doc_id FROM tf WHERE term = 'merge') c
  JOIN dl ON dl.doc_id = c.doc_id
  JOIN docs d ON d.doc_id = c.doc_id
  LEFT JOIN ttf tm ON tm.doc_id = c.doc_id AND tm.term = 'merge'
  LEFT JOIN t0f t0m ON t0m.doc_id = c.doc_id AND t0m.term = 'merge'
  CROSS JOIN stats s"""
    return _rank_wrap(" UNION ALL ".join([q1, q2, q3]))


def _field_filter_sql() -> str:
    def cf_of(term: str) -> str:
        cfv = f"(SELECT cf FROM cfreq WHERE term = '{term}')"
        return f"(CASE WHEN coalesce({cfv}, 0) > 0 THEN {cfv} ELSE 0.5 END)"

    def d_plain(alias: str, term: str) -> str:
        return (f"ln((coalesce({alias}.tf, 0) + 2500.0 * {cf_of(term)}"
                f" / s.total) / (dl.dl + 2500.0))")

    scores = f"""
  SELECT 1 AS qid, c.doc_id, ({d_plain('tm', 'merge')} + {d_plain('td', 'data')}) / 2 AS score
  FROM (SELECT DISTINCT doc_id FROM tf WHERE term IN ('merge', 'data')) c
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN tf tm ON tm.doc_id = c.doc_id AND tm.term = 'merge'
  LEFT JOIN tf td ON td.doc_id = c.doc_id AND td.term = 'data'
  CROSS JOIN stats s
  WHERE dl.n_chars >= 200 AND dl.n_chars < 600"""
    return _rank_wrap(scores)


_COMPONENTS_SQL = """
            sizes AS (SELECT doc_id, count(*)::DOUBLE AS n FROM sh GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*)::DOUBLE AS c
                      FROM sh a JOIN sh b USING (shingle)
                      WHERE a.doc_id < b.doc_id GROUP BY a.doc_id, b.doc_id),
            edges AS (
              SELECT doc_a, doc_b FROM inter
              JOIN sizes sa ON sa.doc_id = doc_a
              JOIN sizes sb ON sb.doc_id = doc_b
              WHERE round(c / (sa.n + sb.n - c), 6) >= 0.5),
            sym AS (SELECT doc_a AS a, doc_b AS b FROM edges
                    UNION SELECT doc_b, doc_a FROM edges),
            reach AS (
              SELECT a, b FROM sym
              UNION
              SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a),
            comp AS (SELECT a AS doc_id, least(a, min(b)) AS cluster_rep
                     FROM reach GROUP BY a)"""

_SHINGLE_SQL = f"""
toks AS (SELECT doc_id, {TOKEN_SQL} AS t FROM documents),
sh AS (
  SELECT DISTINCT doc_id, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS shingle
  FROM (SELECT doc_id, t, unnest(generate_series(1, len(t) - 2)) AS i
        FROM toks WHERE len(t) >= 3))
"""

_LANG_COUNTS = {
    "de": "('der','die','das','und','nicht','ist','ein','mit')",
    "en": "('the','and','of','to','is','in','that','it')",
    "es": "('el','la','de','que','y','en','un','es')",
    "fr": "('le','la','de','et','un','est','que','pour')",
}


def _dup_span_sql() -> str:
    """Oracle for ``dup_span_stats`` (functions/dedup.py): per doc, the
    count of n-gram start positions whose n-gram occurs in ≥ 2 distinct
    documents and the distinct token slots those occurrences cover —
    generated from the same NGRAM_N the Ray side uses, 1-based positions
    (only counts are compared, so the position base cancels)."""
    from indri_5_5_ray.functions.dedup import NGRAM_N as n

    gram = " || ' ' || ".join(f"t[i+{j}]" if j else "t[i]" for j in range(n))
    return f"""
WITH docs AS (SELECT doc_id, {TOKEN_SQL} AS t FROM documents),
fg AS (SELECT doc_id, i, {gram} AS gram
       FROM (SELECT doc_id, t, unnest(generate_series(1, len(t) - {n - 1})) AS i
             FROM docs WHERE len(t) >= {n})),
dup AS (SELECT gram FROM fg GROUP BY gram HAVING count(DISTINCT doc_id) >= 2),
occ AS (SELECT f.doc_id, f.i FROM fg f JOIN dup USING (gram)),
cv AS (SELECT doc_id, i, unnest(generate_series(0, {n - 1})) AS k FROM occ),
cov AS (SELECT doc_id, count(DISTINCT i + k) AS covered_tokens FROM cv GROUP BY doc_id),
dp AS (SELECT doc_id, count(*) AS dup_positions FROM occ GROUP BY doc_id),
nt AS (SELECT doc_id, len(t)::BIGINT AS n_tokens FROM docs)
SELECT d.doc_id,
       coalesce(nt.n_tokens, 0) AS n_tokens,
       coalesce(dp.dup_positions, 0) AS dup_positions,
       coalesce(cov.covered_tokens, 0) AS covered_tokens
FROM documents d
LEFT JOIN nt USING (doc_id)
LEFT JOIN dp USING (doc_id)
LEFT JOIN cov USING (doc_id)
ORDER BY doc_id"""


def _remove_spans_sql() -> str:
    """Oracle for ``remove_dup_spans``: tokens NOT covered by any
    duplicated n-gram occurrence, re-joined with single spaces (the Ray
    side's tokenizer-normalized output), plus the removed-token count."""
    from indri_5_5_ray.functions.dedup import NGRAM_N as n

    gram = " || ' ' || ".join(f"t[i+{j}]" if j else "t[i]" for j in range(n))
    return f"""
WITH docs AS (SELECT doc_id, {TOKEN_SQL} AS t FROM documents),
fg AS (SELECT doc_id, i, {gram} AS gram
       FROM (SELECT doc_id, t, unnest(generate_series(1, len(t) - {n - 1})) AS i
             FROM docs WHERE len(t) >= {n})),
dup AS (SELECT gram FROM fg GROUP BY gram HAVING count(DISTINCT doc_id) >= 2),
occ AS (SELECT f.doc_id, f.i FROM fg f JOIN dup USING (gram)),
covs AS (SELECT DISTINCT doc_id, i + k AS slot
         FROM (SELECT doc_id, i, unnest(generate_series(0, {n - 1})) AS k
               FROM occ)),
toku AS (SELECT doc_id, i, t[i] AS tok
         FROM (SELECT doc_id, t, unnest(generate_series(1, len(t))) AS i
               FROM docs WHERE len(t) >= 1)),
kept AS (SELECT tk.doc_id, tk.i, tk.tok
         FROM toku tk LEFT JOIN covs c
           ON c.doc_id = tk.doc_id AND c.slot = tk.i
         WHERE c.slot IS NULL),
agg AS (SELECT doc_id, string_agg(tok, ' ' ORDER BY i) AS clean_text
        FROM kept GROUP BY doc_id),
rm AS (SELECT doc_id, count(*)::BIGINT AS n_removed FROM covs GROUP BY doc_id)
SELECT d.doc_id,
       coalesce(agg.clean_text, '') AS clean_text,
       coalesce(rm.n_removed, 0) AS n_removed
FROM documents d
LEFT JOIN agg USING (doc_id)
LEFT JOIN rm USING (doc_id)
ORDER BY doc_id"""


# shared CTE prefix of the unigram-LM entries: per-doc token count +
# cross-entropy in nats under the corpus MLE unigram model (see
# functions/textstats.py unigram_logprob — same evaluation order:
# ln(total) - sum(ln cf)/n)
# shared NB-classifier CTE: per-doc (doc_id, n_tokens, nb_llr) under the
# seed label lang='en' (functions/classifier.py formula, add-one smoothing)
_NB_CTE = f"""nbdocs AS (SELECT doc_id, {TOKEN_SQL} AS t, lang = 'en' AS pos
              FROM documents),
nbtok AS (SELECT doc_id, pos, unnest(t) AS term FROM nbdocs),
nbcls AS (SELECT term,
               sum(CASE WHEN pos THEN 1 ELSE 0 END)::BIGINT AS cf_pos,
               sum(CASE WHEN pos THEN 0 ELSE 1 END)::BIGINT AS cf_neg
        FROM nbtok GROUP BY term),
nbmeta AS (SELECT coalesce(sum(cf_pos), 0) AS tp,
                coalesce(sum(cf_neg), 0) AS tn,
                count(*) AS v FROM nbcls),
nbpri AS (SELECT ln((sum(CASE WHEN pos THEN 1 ELSE 0 END) + 1)::DOUBLE
                  / (count(*) - sum(CASE WHEN pos THEN 1 ELSE 0 END) + 1))
               AS prior
        FROM nbdocs),
nbper AS (SELECT t.doc_id, count(*)::BIGINT AS n_tokens,
               sum(ln(c.cf_pos + 1) - ln(m.tp + m.v)
                   - ln(c.cf_neg + 1) + ln(m.tn + m.v)) AS s
        FROM nbtok t JOIN nbcls c USING (term) CROSS JOIN nbmeta m
        GROUP BY t.doc_id),
nbdoc AS (SELECT d.doc_id,
                 coalesce(p.n_tokens, 0) AS n_tokens,
                 nbpri.prior + coalesce(p.s, 0.0) AS nb_llr
          FROM documents d LEFT JOIN nbper p USING (doc_id)
          CROSS JOIN nbpri)"""

_UNIGRAM_CTE = f"""docs AS (SELECT doc_id, {TOKEN_SQL} AS t FROM documents),
tok AS (SELECT doc_id, unnest(t) AS term FROM docs),
cf AS (SELECT term, count(*)::DOUBLE AS cf FROM tok GROUP BY term),
tot AS (SELECT sum(cf) AS total FROM cf),
lp AS (SELECT t.doc_id, count(*)::BIGINT AS n_tokens, sum(ln(c.cf)) AS s
       FROM tok t JOIN cf c USING (term) GROUP BY t.doc_id),
stats AS (SELECT d.doc_id,
                 coalesce(lp.n_tokens, 0) AS n_tokens,
                 CASE WHEN lp.n_tokens > 0
                      THEN ln((SELECT total FROM tot)) - lp.s / lp.n_tokens
                      ELSE 0.0 END AS cross_entropy
          FROM documents d LEFT JOIN lp USING (doc_id))"""


def _minhash_perms_sql() -> str:
    """VALUES table of the engine's affine minhash constants (see
    functions/dedup.py MINHASH_A/B — same integers, exact BIGINT math)."""
    from indri_5_5_ray.functions.dedup import MINHASH_A, MINHASH_B

    rows = ", ".join(
        f"({p}, {int(a)}, {int(b)})"
        for p, (a, b) in enumerate(zip(MINHASH_A, MINHASH_B))
    )
    return f"perms(p, a, b) AS (VALUES {rows})"


def _rm3_values_clause() -> str:
    import re

    rows = []
    for qid, text in BM25_QUERIES[:4]:
        counts: dict[str, int] = {}
        for t in re.findall(r"[a-z0-9]+", text.lower()):
            counts[t] = counts.get(t, 0) + 1
        for term, qtf in counts.items():
            rows.append(f"({qid}, '{term}', {qtf})")
    return ", ".join(rows)


def _rm_cte_prefix() -> str:
    """The shared RM1 CTE chain (fb_docs=5, fb_terms=10, dirichlet
    mu=2500): initial LM retrieval -> softmax P(d|Q) over the feedback
    set -> RM1 P(w|R) = sum_d P(d|Q) tf/dl -> top terms by round(p_w, 12)
    -> normalized grams, ending at the ``rm1`` CTE.  Used by BOTH the RM3
    oracle (interpolation + rescore) and the clarity oracle (KL against
    the collection model) — one definition, two finishes, mirroring
    pipelines/feedback.py's rm1_model factoring."""
    return f"""
WITH docs AS (SELECT doc_id, {TOKEN_SQL} AS toks FROM documents),
stats AS (SELECT sum(len(toks))::DOUBLE AS total FROM docs),
tf AS (SELECT doc_id, t AS term, count(*)::DOUBLE AS tf
       FROM (SELECT doc_id, unnest(toks) AS t FROM docs) GROUP BY doc_id, t),
dl AS (SELECT doc_id, len(toks)::DOUBLE AS dl FROM docs),
cfreq AS (SELECT term, sum(tf)::DOUBLE AS cf FROM tf GROUP BY term),
q(qid, term, qtf) AS (VALUES {{values}}),
qn AS (SELECT qid, sum(qtf)::DOUBLE AS n FROM q GROUP BY qid),
cand0 AS (SELECT DISTINCT q.qid, tf.doc_id FROM q JOIN tf ON tf.term = q.term),
scores0 AS (
  SELECT c.qid, c.doc_id,
         sum(q.qtf * ln((coalesce(tf.tf, 0) + 2500.0 * coalesce(cfreq.cf, 0.5)
             / s.total) / (dl.dl + 2500.0))) / any_value(qn.n) AS score
  FROM cand0 c
  JOIN q ON q.qid = c.qid
  JOIN qn ON qn.qid = c.qid
  LEFT JOIN tf ON tf.doc_id = c.doc_id AND tf.term = q.term
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN cfreq ON cfreq.term = q.term
  CROSS JOIN stats s
  GROUP BY c.qid, c.doc_id),
fbsel AS (
  SELECT qid, doc_id, score FROM (
    SELECT qid, doc_id, score,
           row_number() OVER (PARTITION BY qid
                              ORDER BY round(score, 9) DESC, doc_id DESC) AS r
    FROM scores0) WHERE r <= 5),
mx AS (SELECT qid, max(score) AS m FROM fbsel GROUP BY qid),
pd AS (SELECT f.qid, f.doc_id,
              exp(f.score - mx.m)
              / sum(exp(f.score - mx.m)) OVER (PARTITION BY f.qid) AS pd
       FROM fbsel f JOIN mx ON mx.qid = f.qid),
pw AS (SELECT pd.qid, tf.term, sum(pd.pd * tf.tf / dl.dl) AS pw
       FROM pd
       JOIN tf ON tf.doc_id = pd.doc_id
       JOIN dl ON dl.doc_id = pd.doc_id
       GROUP BY pd.qid, tf.term),
top AS (
  SELECT qid, term, pw FROM (
    SELECT qid, term, pw,
           row_number() OVER (PARTITION BY qid
                              ORDER BY round(pw, 12) DESC, term ASC) AS r
    FROM pw) WHERE r <= 10),
z AS (SELECT qid, sum(pw) AS z FROM top GROUP BY qid),
rm1 AS (SELECT top.qid, term, pw / z.z AS p FROM top JOIN z ON z.qid = top.qid)"""


def _rm3_sql() -> str:
    """DuckDB oracle for RM3 (orig_weight=0.5): the shared RM1 prefix,
    then interpolate with P(w|Q) and weighted-sum rescore, ranked by
    round(score, 9) desc, doc_id desc (mirrors pipelines/feedback.py
    exactly, including both rounding pins)."""
    cf_eff = "(CASE WHEN coalesce(cfreq.cf, 0) > 0 THEN cfreq.cf ELSE 0.5 END)"
    return _rm_cte_prefix() + f""",
pq AS (SELECT q.qid, term, sum(qtf) / any_value(qn.n) AS p
       FROM q JOIN qn ON qn.qid = q.qid GROUP BY q.qid, term),
comb AS (
  SELECT coalesce(rm1.qid, pq.qid) AS qid,
         coalesce(rm1.term, pq.term) AS term,
         0.5 * coalesce(pq.p, 0) + 0.5 * coalesce(rm1.p, 0) AS w
  FROM rm1 FULL JOIN pq ON rm1.qid = pq.qid AND rm1.term = pq.term),
wn AS (SELECT qid, sum(w) AS s FROM comb GROUP BY qid),
wgt AS (SELECT comb.qid, term, w / wn.s AS w
        FROM comb JOIN wn ON wn.qid = comb.qid WHERE w > 0),
cand AS (SELECT DISTINCT wgt.qid, tf.doc_id
         FROM wgt JOIN tf ON tf.term = wgt.term),
fin AS (
  SELECT c.qid, c.doc_id,
         sum(wgt.w * ln((coalesce(tf.tf, 0) + 2500.0 * {cf_eff} / s.total)
             / (dl.dl + 2500.0))) AS score
  FROM cand c
  JOIN wgt ON wgt.qid = c.qid
  LEFT JOIN tf ON tf.doc_id = c.doc_id AND tf.term = wgt.term
  JOIN dl ON dl.doc_id = c.doc_id
  LEFT JOIN cfreq ON cfreq.term = wgt.term
  CROSS JOIN stats s
  GROUP BY c.qid, c.doc_id)
SELECT qid, rank, doc_id FROM (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid
                            ORDER BY round(score, 9) DESC, doc_id DESC) AS rank
  FROM fin)
WHERE rank <= 10
ORDER BY qid, rank
"""


def _clarity_sql() -> str:
    """Query clarity (ref:clarity/clarity.cpp:62-81) over the shared RM1
    prefix: Σ p·ln(p/(cf/total)) / Σ p / ln 2 per query, pinned at 9
    decimals on both sides (the Σ runs over ≤ fb_terms=10 grams, so the
    pin absorbs summation-order ulps)."""
    return _rm_cte_prefix() + """
SELECT qid,
       round(sum(p * ln(p / (cf / total))) / sum(p) / ln(2), 9) AS clarity
FROM (SELECT rm1.qid, rm1.p, cfreq.cf, s.total
      FROM rm1 JOIN cfreq USING (term) CROSS JOIN stats s)
GROUP BY qid ORDER BY qid"""


def _bpe_re() -> str:
    from indri_5_5_ray.functions.textstats import BPE_RE

    return BPE_RE


def oracle_sql() -> dict[str, str]:
    lang_cols = ",\n  ".join(
        f"len(list_filter(t, x -> x IN {words})) AS c_{lg}"
        for lg, words in _LANG_COUNTS.items()
    )
    greatest = "greatest(c_de, c_en, c_es, c_fr)"
    lang_case = " ".join(
        f"WHEN c_{lg} = {greatest} THEN '{lg}'" for lg in sorted(_LANG_COUNTS)
    )
    return {
        "index_term_stats": f"""
            SELECT t AS term, count(*) AS cf, count(DISTINCT doc_id) AS df
            FROM (SELECT doc_id, unnest({TOKEN_SQL}) AS t FROM documents)
            GROUP BY t ORDER BY term""",
        "index_stopped_stats": f"""
            SELECT t AS term, count(*) AS cf, count(DISTINCT doc_id) AS df
            FROM (SELECT doc_id, unnest({TOKEN_SQL}) AS t FROM documents)
            WHERE t NOT IN ('the', 'a', 'in', 'of', 'to', 'and', 'is', 'it', 'that', 'for')
            GROUP BY t ORDER BY term""",
        "index_stopped_doc_lens": f"""
            SELECT doc_id, len({TOKEN_SQL}) AS dl FROM documents ORDER BY doc_id""",
        "index_doc_lens": f"""
            SELECT doc_id, len({TOKEN_SQL}) AS dl FROM documents ORDER BY doc_id""",
        "bm25_topk": _BM25_SQL.replace("{values}", _bm25_values_clause()),
        # The kstem variants share the unstemmed oracles EXACTLY: the
        # synthetic documents vocabulary is a closed 31-term set whose
        # Krovetz stem is the identity for every member (asserted in
        # tests/test_kstem.py::test_testdata_vocab_stems_identity), so the
        # stemmed index/query pipeline must reproduce the unstemmed
        # ranking bit-for-bit; non-identity stemming is covered by the
        # kstem golden vectors.
        "bm25_topk_kstem": _BM25_SQL.replace("{values}", _bm25_values_clause()),
        "lm_topk_kstem": _lm_sql("dirichlet").replace("{values}", _bm25_values_clause()),
        "tfidf_topk": _TFIDF_SQL.replace("{values}", _bm25_values_clause()),
        "lm_topk_dirichlet": _lm_sql("dirichlet").replace("{values}", _bm25_values_clause()),
        "lm_topk_jm": _lm_sql("jm").replace("{values}", _bm25_values_clause()),
        "lm_topk_two": _lm_sql("two").replace("{values}", _bm25_values_clause()),
        "structured_topk": _structured_sql(),
        "sdm_topk": _sdm_sql(),
        "shrinkage_topk": _shrinkage_sql(),
        "nexi_topk": _nexi_sql(),
        "field_topk": _field_sql(),
        "anno_field_topk": _field_sql(),
        "field_filter_topk": _field_filter_sql(),
        "path_topk": _path_sql(),
        "structured2_topk": _structured2_sql(),
        "date_topk": _date_sql(),
        "passage_topk": _passage_sql(),
        "extent_topk": _extent_sql(),
        "token_counts": f"""
            SELECT doc_id, len({TOKEN_SQL}) AS n_tokens FROM documents ORDER BY doc_id""",
        "term_stats": f"""
            SELECT t AS term, count(*) AS cf, count(DISTINCT doc_id) AS df
            FROM (SELECT doc_id, unnest({TOKEN_SQL}) AS t FROM documents)
            GROUP BY t ORDER BY term""",
        "ngram_counts": f"""
            WITH tk AS (
              SELECT doc_id, unnest({TOKEN_SQL}) AS t,
                     generate_subscripts({TOKEN_SQL}, 1) AS pos
              FROM documents),
            grams AS (
              SELECT doc_id,
                     t || ' ' || lead(t) OVER (
                       PARTITION BY doc_id ORDER BY pos) AS gram
              FROM tk)
            SELECT gram, count(*) AS cf, count(DISTINCT doc_id) AS df
            FROM grams WHERE gram IS NOT NULL
            GROUP BY gram HAVING count(*) >= 3 ORDER BY gram""",
        "top_terms": f"""
            SELECT t AS term, count(*) AS cf, count(DISTINCT doc_id) AS df
            FROM (SELECT doc_id, unnest({TOKEN_SQL}) AS t FROM documents)
            GROUP BY t ORDER BY cf DESC, term ASC LIMIT 20""",
        "quality_scores": f"""
            SELECT doc_id, len(toks) AS n_tokens,
                   len(list_distinct(toks)) AS n_distinct,
                   CASE WHEN len(toks) = 0 THEN 0.0 ELSE round(len(list_distinct(toks))::DOUBLE / len(toks), 6) END AS distinct_ratio
            FROM (SELECT doc_id, {TOKEN_SQL} AS toks FROM documents)
            ORDER BY doc_id""",
        "line_stats": """
            SELECT doc_id, len(ls) AS n_lines,
                   len(list_distinct(ls)) AS n_unique_lines,
                   round((len(ls) - len(list_distinct(ls)))::DOUBLE / len(ls), 6)
                     AS dup_line_frac
            FROM (SELECT doc_id, string_split(text, chr(10)) AS ls FROM documents)
            ORDER BY doc_id""",
        "gopher_filter": f"""
            SELECT doc_id, n_tokens,
                   round(sum_len::DOUBLE / n_tokens, 6) AS mean_tok_len,
                   round((n_lines - n_uniq)::DOUBLE / n_lines, 6) AS dup_line_frac
            FROM (SELECT doc_id, len(t) AS n_tokens,
                         list_aggregate(list_transform(t, x -> length(x)), 'sum') AS sum_len,
                         len(ls) AS n_lines, len(list_distinct(ls)) AS n_uniq
                  FROM (SELECT doc_id, {TOKEN_SQL} AS t,
                               string_split(text, chr(10)) AS ls FROM documents))
            WHERE n_tokens BETWEEN 50 AND 100000
              AND sum_len::DOUBLE / n_tokens BETWEEN 3 AND 10
              AND (n_lines - n_uniq)::DOUBLE / n_lines < 0.3
            ORDER BY doc_id""",
        "lang_id": f"""
            SELECT doc_id,
                   CASE WHEN {greatest} <= 0 THEN 'und' {lang_case} ELSE 'und' END AS pred_lang
            FROM (SELECT doc_id, {lang_cols}
                  FROM (SELECT doc_id, {TOKEN_SQL} AS t FROM documents))
            ORDER BY doc_id""",
        "lang_table_stats": """
            SELECT lang, count(*) AS n_docs, sum(n_chars)::BIGINT AS total_chars
            FROM documents GROUP BY lang ORDER BY lang""",
        "exact_dup_groups": """
            SELECT md5(text) AS content_hash, min(doc_id) AS rep_doc_id,
                   count(*) AS n_copies
            FROM documents GROUP BY md5(text) ORDER BY content_hash""",
        "dedup_keep_first": """
            SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)
            ORDER BY doc_id""",
        "sample_hash": """
            SELECT doc_id, lang, n_chars FROM documents
            WHERE ('0x' || substring(md5(text), 1, 8))::BIGINT % 100 < 10
            ORDER BY doc_id""",
        # mixture_sample: the per-language rates are EXACT integer
        # arithmetic (ppm = min(1e6, 1e6·budget·w // (100·tokens))), so the
        # engine and this SQL agree bit-for-bit — no float rate crosses the
        # comparison.  Weights come from the same table the engine uses.
        "mixture_sample": f"""
            WITH tot AS (
              SELECT lang, SUM(len({TOKEN_SQL})) AS tok
              FROM documents GROUP BY lang),
            rates AS (
              SELECT t.lang,
                     LEAST(1000000,
                           (1000000::BIGINT * 8000 * w.wt) // (100 * t.tok))
                       AS ppm
              FROM tot t
              JOIN (VALUES {_mixture_values()}) AS w(lang, wt)
                ON t.lang = w.lang)
            SELECT d.doc_id, d.lang, len({TOKEN_SQL}) AS n_tokens
            FROM documents d JOIN rates r ON d.lang = r.lang
            WHERE ('0x' || substring(md5(d.text), 1, 8))::BIGINT
                  % 1000000 < r.ppm
            ORDER BY d.doc_id""",
        "quota_sample": """
            SELECT lang, doc_id, rk FROM (
              SELECT lang, doc_id,
                     row_number() OVER (
                       PARTITION BY lang
                       ORDER BY substring(md5(text), 1, 16), doc_id) AS rk
              FROM documents)
            WHERE rk <= 50 ORDER BY lang, rk""",
        "contamination_screen": f"""
            WITH {_SHINGLE_SQL},
            bench AS (SELECT DISTINCT shingle FROM sh WHERE doc_id % 97 = 0)
            SELECT s.doc_id, count(*)::BIGINT AS n_hits
            FROM sh s JOIN bench b USING (shingle)
            WHERE s.doc_id % 97 <> 0
            GROUP BY s.doc_id ORDER BY s.doc_id""",
        "dup_span_stats": _dup_span_sql(),
        "remove_dup_spans": _remove_spans_sql(),
        "unigram_logprob": f"""
WITH {_UNIGRAM_CTE}
SELECT doc_id, n_tokens, cross_entropy FROM stats ORDER BY doc_id""",
        "ccnet_buckets": f"""
WITH {_UNIGRAM_CTE}
SELECT doc_id, n_tokens, cross_entropy,
       ntile(3) OVER (ORDER BY round(cross_entropy, 9), doc_id)::BIGINT AS bucket
FROM stats ORDER BY doc_id""",
        # multinomial NB with add-one smoothing, seed label lang='en' —
        # llr(t) = ln(cf_pos+1) − ln(total_pos+V) − ln(cf_neg+1)
        # + ln(total_neg+V), doc score = ln((n_pos+1)/(n_neg+1)) + Σ llr
        # (functions/classifier.py nb_classifier_scores — same formula,
        # float-tolerant compare absorbs the summation-order difference)
        "nb_classifier_scores": f"""
WITH {_NB_CTE}
SELECT doc_id, n_tokens, nb_llr, nb_llr > 0 AS predicted
FROM nbdoc ORDER BY doc_id""",
        # GPT-3 Pareto-sampled classifier filter (functions/classifier.py
        # nb_pareto_sample) — deterministic inverse-CDF draw from a
        # md5(doc_id) uniform, score = sigmoid(nb_llr), keep margin > 0
        "nb_pareto_sample": f"""
WITH {_NB_CTE},
drawn AS (SELECT doc_id, n_tokens, nb_llr,
                 pow(greatest(('0x' || substring(
                        md5(CAST(doc_id AS VARCHAR)), 1, 8))::BIGINT
                      / 4294967296.0, pow(2.0, -33)), -1.0 / 9.0) - 1.0
                 - (1.0 - 1.0 / (1.0 + exp(-nb_llr))) AS margin
          FROM nbdoc)
SELECT doc_id, n_tokens, nb_llr, margin
FROM drawn WHERE margin > 0 ORDER BY doc_id""",
        "ngram_jaccard_pairs": f"""
            WITH {_SHINGLE_SQL},
            sizes AS (SELECT doc_id, count(*)::DOUBLE AS n FROM sh GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*)::DOUBLE AS c
                      FROM sh a JOIN sh b USING (shingle)
                      WHERE a.doc_id < b.doc_id GROUP BY a.doc_id, b.doc_id)
            SELECT doc_a, doc_b,
                   round(c / (sa.n + sb.n - c), 6) AS jaccard
            FROM inter
            JOIN sizes sa ON sa.doc_id = doc_a
            JOIN sizes sb ON sb.doc_id = doc_b
            WHERE round(c / (sa.n + sb.n - c), 6) >= 0.2
            ORDER BY doc_a, doc_b""",
        "minhash_signatures": f"""
            WITH {_SHINGLE_SQL},
            {_minhash_perms_sql()}
            SELECT doc_id, p.p AS perm,
                   min((('0x' || substring(md5(shingle), 1, 8))::BIGINT * p.a
                        + p.b) % 2305843009213693951) AS minhash
            FROM sh CROSS JOIN perms p
            GROUP BY doc_id, p.p ORDER BY doc_id, perm""",
        "lsh_candidate_pairs": f"""
            WITH {_SHINGLE_SQL},
            {_minhash_perms_sql()},
            mh AS (SELECT doc_id, p.p AS perm,
                          min((('0x' || substring(md5(shingle), 1, 8))::BIGINT
                               * p.a + p.b) % 2305843009213693951) AS minhash
                   FROM sh CROSS JOIN perms p
                   GROUP BY doc_id, p.p),
            bands AS (SELECT doc_id, perm // 4 AS band,
                             string_agg(minhash, '|' ORDER BY perm) AS sig
                      FROM mh GROUP BY doc_id, perm // 4),
            buckets AS (SELECT doc_id, band::VARCHAR || '|' || sig AS bucket
                        FROM bands)
            SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
            FROM buckets a JOIN buckets b USING (bucket)
            WHERE a.doc_id < b.doc_id
            ORDER BY doc_a, doc_b""",
        "simhash_fingerprints": f"""
            WITH tf AS (SELECT doc_id, t, count(*)::BIGINT AS tf
                        FROM (SELECT doc_id, unnest({TOKEN_SQL}) AS t FROM documents)
                        GROUP BY doc_id, t),
            h AS (SELECT doc_id, tf,
                         ('0x' || substring(md5(t), 1, 15))::BIGINT AS hv
                  FROM tf),
            bits AS (SELECT doc_id, b,
                            SUM(CASE WHEN (hv >> b) & 1 = 1 THEN tf ELSE -tf END) AS s
                     FROM h CROSS JOIN (SELECT unnest(generate_series(0, 59)) AS b)
                     GROUP BY doc_id, b)
            SELECT doc_id,
                   SUM(CASE WHEN s > 0 THEN (1::BIGINT << b) ELSE 0 END)::BIGINT AS simhash
            FROM bits GROUP BY doc_id ORDER BY doc_id""",
        "tumbling_counts": """
            SELECT epoch(date_trunc('hour', ts))::BIGINT AS hour_start,
                   event_type, count(*) AS n_events,
                   round(sum(value), 6) AS sum_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2""",
        "hopping_counts": """
            WITH e AS (SELECT (epoch_ns(ts) // 1000000000)::BIGINT AS ts_s,
                              event_type, value FROM events),
            fan AS (SELECT (ts_s // 900 * 900) - j * 900 AS window_start,
                           event_type, value
                    FROM e CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS j))
            SELECT window_start, event_type, count(*) AS n_events,
                   round(sum(value), 6) AS sum_value
            FROM fan GROUP BY 1, 2 ORDER BY 1, 2""",
        "asof_join_events": """
            WITH e AS (SELECT event_id, user_id, event_type,
                              (epoch_ns(ts) // 1000000000)::BIGINT AS ts_s,
                              value
                       FROM events WHERE event_type IN ('click', 'view')),
            w AS (SELECT event_id, user_id, event_type, ts_s,
                         round(last_value(CASE WHEN event_type = 'view'
                                               THEN value END IGNORE NULLS)
                           OVER (PARTITION BY user_id ORDER BY ts_s, event_id
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                          AND 1 PRECEDING), 6)
                           AS prev_view_value
                  FROM e)
            SELECT event_id, user_id, ts_s, prev_view_value FROM w
            WHERE event_type = 'click' AND prev_view_value IS NOT NULL
            ORDER BY event_id""",
        "sessionize": """
            WITH e AS (SELECT user_id, (epoch_ns(ts) // 1000000000)::BIGINT AS ts_s FROM events),
            flagged AS (
              SELECT user_id, ts_s,
                     CASE WHEN ts_s - lag(ts_s) OVER (PARTITION BY user_id ORDER BY ts_s)
                               > 1800 OR lag(ts_s) OVER (PARTITION BY user_id ORDER BY ts_s) IS NULL
                          THEN 1 ELSE 0 END AS new_session
              FROM e),
            numbered AS (
              SELECT user_id, ts_s,
                     sum(new_session) OVER (PARTITION BY user_id ORDER BY ts_s
                                            ROWS UNBOUNDED PRECEDING) AS session_no
              FROM flagged)
            SELECT user_id, min(ts_s) AS session_start, count(*) AS n_events,
                   max(ts_s) - min(ts_s) AS duration_s
            FROM numbered GROUP BY user_id, session_no
            ORDER BY user_id, session_start""",
        "user_activity": """
            SELECT user_id, count(*) AS n_events,
                   count(DISTINCT event_type) AS n_types,
                   min(epoch_ns(ts) // 1000000000)::BIGINT AS first_ts,
                   max(epoch_ns(ts) // 1000000000)::BIGINT AS last_ts
            FROM events GROUP BY user_id ORDER BY user_id""",
        "pack_shards": f"""
            SELECT doc_id, n_tokens,
                   CAST(coalesce(sum(n_tokens) OVER (
                          ORDER BY doc_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                        0) // 2048 AS BIGINT) AS shard_id
            FROM (SELECT doc_id, len({TOKEN_SQL}) AS n_tokens FROM documents)
            ORDER BY doc_id""",
        "shuffle_pack": f"""
            SELECT doc_id, n_tokens,
                   CAST(coalesce(sum(n_tokens) OVER (
                          ORDER BY substring(md5(CAST(doc_id AS VARCHAR)),
                                             1, 16), doc_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                        0) // 2048 AS BIGINT) AS shard_id
            FROM (SELECT doc_id, len({TOKEN_SQL}) AS n_tokens FROM documents)
            ORDER BY doc_id""",
        "pack_sequences": f"""
            WITH tc AS (SELECT doc_id, len({TOKEN_SQL})::BIGINT AS n
                        FROM documents),
            pre AS (SELECT doc_id, n,
                           coalesce(sum(n) OVER (
                             ORDER BY doc_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND 1 PRECEDING), 0) AS p
                    FROM tc),
            seqs AS (SELECT doc_id, n, p,
                            unnest(generate_series(
                              CAST(p // 512 AS BIGINT),
                              CAST((p + n - 1) // 512 AS BIGINT)))
                              AS seq_id
                     FROM pre WHERE n > 0)
            SELECT seq_id, doc_id,
                   greatest(seq_id * 512 - p, 0) AS tok_start,
                   least((seq_id + 1) * 512 - p, n) AS tok_end,
                   greatest(p - seq_id * 512, 0) AS seq_off
            FROM seqs ORDER BY seq_id, doc_id""",
        "repetition_stats": f"""
            WITH toks AS (SELECT doc_id, {TOKEN_SQL} AS t FROM documents),
            big AS (SELECT doc_id, t[i] || ' ' || t[i+1] AS pair
                    FROM (SELECT doc_id, t,
                                 unnest(generate_series(1, len(t) - 1)) AS i
                          FROM toks WHERE len(t) >= 2)),
            cnt AS (SELECT doc_id, pair, count(*) AS c
                    FROM big GROUP BY doc_id, pair),
            mx AS (SELECT doc_id, max(c) AS m FROM cnt GROUP BY doc_id)
            SELECT tk.doc_id,
                   coalesce(round(2.0 * mx.m / len(tk.t), 6), 0.0)
                     AS top_bigram_frac
            FROM toks tk LEFT JOIN mx USING (doc_id)
            ORDER BY tk.doc_id""",
        "quality_filter": f"""
            SELECT doc_id FROM (
              SELECT doc_id, len(toks) AS n_tokens,
                     round(len(list_distinct(toks))::DOUBLE / len(toks), 6) AS dr
              FROM (SELECT doc_id, {TOKEN_SQL} AS toks FROM documents))
            WHERE dr >= 0.5 AND n_tokens >= 20 ORDER BY doc_id""",
        "knn_bruteforce": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                       FROM embeddings ORDER BY vec_id LIMIT 10),
            s AS (SELECT q.query_id, e.vec_id,
                         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS cos
                  FROM q CROSS JOIN embeddings e),
            r AS (SELECT query_id, vec_id, round(cos, 6) AS cosine,
                         row_number() OVER (PARTITION BY query_id
                                            ORDER BY cos DESC, vec_id ASC) AS rank
                  FROM s)
            SELECT query_id, rank, vec_id, cosine FROM r
            WHERE rank <= 10 ORDER BY query_id, rank""",
        # PII taggers over the seeded corpus: SAME regexes (common
        # rust-regex/RE2 subset), same seeding rule rebuilt in SQL
        "pii_stats": _pii_stats_sql(),
        "redact_pii": _redact_pii_sql(),
        "cosine_pairs": """
            SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b,
                   round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS cosine
            FROM embeddings a CROSS JOIN embeddings b
            WHERE a.vec_id < b.vec_id
              AND round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) >= 0.4
            ORDER BY vec_id_a, vec_id_b""",
        # one bucket → every pair verified exactly → the cosine_pairs SQL
        "embedding_lsh_pairs_full": """
            SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b,
                   round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS cosine
            FROM embeddings a CROSS JOIN embeddings b
            WHERE a.vec_id < b.vec_id
              AND round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) >= 0.4
            ORDER BY vec_id_a, vec_id_b""",
        "lsh_ann_full_probe": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                       FROM embeddings ORDER BY vec_id LIMIT 10),
            s AS (SELECT q.query_id, e.vec_id,
                         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS cos
                  FROM q CROSS JOIN embeddings e),
            r AS (SELECT query_id, vec_id, round(cos, 6) AS cosine,
                         row_number() OVER (PARTITION BY query_id
                                            ORDER BY cos DESC, vec_id ASC) AS rank
                  FROM s)
            SELECT query_id, rank, vec_id, cosine FROM r
            WHERE rank <= 10 ORDER BY query_id, rank""",
        "ivf_ann_full_probe": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                       FROM embeddings ORDER BY vec_id LIMIT 10),
            s AS (SELECT q.query_id, e.vec_id,
                         list_cosine_similarity(q.qe::DOUBLE[], e.embedding::DOUBLE[]) AS cos
                  FROM q CROSS JOIN embeddings e),
            r AS (SELECT query_id, vec_id, round(cos, 6) AS cosine,
                         row_number() OVER (PARTITION BY query_id
                                            ORDER BY cos DESC, vec_id ASC) AS rank
                  FROM s)
            SELECT query_id, rank, vec_id, cosine FROM r
            WHERE rank <= 10 ORDER BY query_id, rank""",
        "near_dup_clusters": f"""
            WITH RECURSIVE {_SHINGLE_SQL},
{_COMPONENTS_SQL}
            SELECT d.doc_id,
                   coalesce(c.cluster_rep, d.doc_id) AS cluster_rep
            FROM documents d LEFT JOIN comp c USING (doc_id)
            ORDER BY doc_id""",
        "near_dedup_keep_first": f"""
            WITH RECURSIVE {_SHINGLE_SQL},
{_COMPONENTS_SQL}
            SELECT d.doc_id FROM documents d LEFT JOIN comp c USING (doc_id)
            WHERE coalesce(c.cluster_rep, d.doc_id) = d.doc_id
            ORDER BY doc_id""",
        "embedding_dup_clusters": """
            WITH RECURSIVE edges AS (
              SELECT a.vec_id AS a, b.vec_id AS b
              FROM embeddings a CROSS JOIN embeddings b
              WHERE a.vec_id < b.vec_id
                AND round(list_cosine_similarity(a.embedding::DOUBLE[],
                                                 b.embedding::DOUBLE[]), 6) >= 0.4),
            sym AS (SELECT a, b FROM edges UNION SELECT b, a FROM edges),
            reach AS (
              SELECT a, b FROM sym
              UNION
              SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a),
            comp AS (SELECT a AS vec_id, least(a, min(b)) AS cluster_rep
                     FROM reach GROUP BY a)
            SELECT e.vec_id,
                   coalesce(c.cluster_rep, e.vec_id) AS cluster_rep
            FROM embeddings e LEFT JOIN comp c USING (vec_id)
            ORDER BY vec_id""",
        "embedding_dedup_keep_first": """
            WITH RECURSIVE edges AS (
              SELECT a.vec_id AS a, b.vec_id AS b
              FROM embeddings a CROSS JOIN embeddings b
              WHERE a.vec_id < b.vec_id
                AND round(list_cosine_similarity(a.embedding::DOUBLE[],
                                                 b.embedding::DOUBLE[]), 6) >= 0.4),
            sym AS (SELECT a, b FROM edges UNION SELECT b, a FROM edges),
            reach AS (
              SELECT a, b FROM sym
              UNION
              SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a),
            comp AS (SELECT a AS vec_id, least(a, min(b)) AS cluster_rep
                     FROM reach GROUP BY a)
            SELECT e.vec_id FROM embeddings e LEFT JOIN comp c USING (vec_id)
            WHERE coalesce(c.cluster_rep, e.vec_id) = e.vec_id
            ORDER BY vec_id""",
        "token_counts_bpe": f"""
            SELECT doc_id,
                   len(regexp_extract_all(lower(text), '{_bpe_re()}')) AS n_tokens_bpe
            FROM documents ORDER BY doc_id""",
        "doc_fingerprints": f"""
            WITH toks AS (SELECT doc_id, {TOKEN_SQL} AS t FROM documents),
            grams AS (
              SELECT doc_id, i,
                     md5(t[i] || ' ' || t[i+1] || ' ' || t[i+2]) AS h
              FROM (SELECT doc_id, t, unnest(generate_series(1, len(t) - 2)) AS i
                    FROM toks WHERE len(t) >= 3)),
            wins AS (
              SELECT doc_id, i,
                     min(h) OVER (PARTITION BY doc_id ORDER BY i
                                  ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS fp
              FROM grams)
            SELECT DISTINCT doc_id, fp FROM wins WHERE i >= 4
            ORDER BY doc_id, fp""",
        "fingerprint_dup_pairs": f"""
            WITH toks AS (SELECT doc_id, {TOKEN_SQL} AS t FROM documents),
            grams AS (
              SELECT doc_id, i,
                     md5(t[i] || ' ' || t[i+1] || ' ' || t[i+2]) AS h
              FROM (SELECT doc_id, t, unnest(generate_series(1, len(t) - 2)) AS i
                    FROM toks WHERE len(t) >= 3)),
            wins AS (
              SELECT doc_id, i,
                     min(h) OVER (PARTITION BY doc_id ORDER BY i
                                  ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS fp
              FROM grams),
            fps AS (SELECT DISTINCT doc_id, fp FROM wins WHERE i >= 4)
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   count(*) AS n_shared
            FROM fps a JOIN fps b USING (fp)
            WHERE a.doc_id < b.doc_id
            GROUP BY 1, 2 HAVING count(*) >= 2
            ORDER BY doc_a, doc_b""",
        "rm3_topk": _rm3_sql().replace("{values}", _rm3_values_clause()),
        # media payload sizes are pure functions of doc_id (see
        # multimodal._synth_media_batch): P6 header 9 + digits(w) +
        # digits(h) + 3wh; WAV 44 + 2n; opaque keystream 64 + (id%7)*17 —
        # so the stats aggregate has an exact oracle over documents
        "media_stats": """
            WITH m AS (
              SELECT doc_id,
                CASE doc_id % 3 WHEN 0 THEN 'image'
                                WHEN 1 THEN 'audio' ELSE 'video' END AS kind,
                CASE doc_id % 3
                  WHEN 0 THEN 9
                    + length(CAST(8 + (doc_id % 8) * 4 AS VARCHAR))
                    + length(CAST(8 + (doc_id % 5) * 4 AS VARCHAR))
                    + (8 + (doc_id % 8) * 4) * (8 + (doc_id % 5) * 4) * 3
                  WHEN 1 THEN 44 + (400 + (doc_id % 100) * 8) * 2
                  ELSE 64 + (doc_id % 7) * 17
                END AS n_bytes
              FROM documents)
            SELECT kind, COUNT(*)::BIGINT AS n_items,
                   CAST(SUM(n_bytes) AS BIGINT) AS total_bytes
            FROM m GROUP BY kind ORDER BY kind""",
        # the decode pipeline itself: payload bytes rebuilt in SQL from the
        # md5 keystream, decode statistics recomputed per kind (see
        # _media_features_sql) — the last formerly rows-only entry
        "media_features": _media_features_sql(),
        # link graph + PageRank: deterministic synthetic edges from the
        # documents view; scores = unrolled damped power iteration
        "link_edges": _LINK_EDGES_SQL,
        "pagerank_scores": _pagerank_sql(),
        # anchor extraction over the synthetic HTML corpus: the oracle
        # recomputes the deterministic link set (linkgraph.anchor_stats)
        "anchor_stats": """
            WITH links AS (
              SELECT 'http://t/' || ((doc_id * 7 + j.j * 13)
                       % (SELECT count(*) FROM documents)) AS dst,
                     'http://src/' || doc_id AS src
              FROM documents JOIN generate_series(1, 2) j(j)
                ON j.j <= 1 + doc_id % 2)
            SELECT dst, count(*)::BIGINT AS n_inlinks,
                   count(DISTINCT src)::BIGINT AS n_distinct_src
            FROM links GROUP BY dst ORDER BY dst""",
        # query clarity: the RM1 CTE prefix shared with the RM3 oracle,
        # finished with the KL-vs-collection aggregation
        "query_clarity": _clarity_sql().replace(
            "{values}", _rm3_values_clause()),
        # streaming WARC reader over the synthetic archive set: every
        # parsed field is a pure function of (doc_id, text) — docno from
        # the WARC-TREC-ID, content = the bytes after the HTTP headers,
        # dochdr = target URI + the header block before the first blank
        # line (see webarchive.ensure_warc_archive)
        # printf('%06d') WIDENS past 6 digits exactly like Python's
        # f"{id:06d}" (lpad would TRUNCATE ids ≥ 1e6 and collide docnos)
        "warc_corpus": """
            SELECT 'warc-' || printf('%06d', doc_id) AS docno,
                   text AS content,
                   'http://synthetic.test/' || doc_id AS url,
                   'http://synthetic.test/' || doc_id || chr(10)
                     || 'HTTP/1.1 200 OK' || chr(13) || chr(10)
                     || 'Content-Type: text/html' AS dochdr
            FROM documents ORDER BY doc_id""",
        # lsh_ann_topk, ivf_ann_topk: non-SQL-expressible (seeded
        # hyperplanes / seeded k-means) → rows-only driver check; semantics
        # are pytest-verified instead, and both have full-probe ≡
        # brute-force oracle entries in-window.
    }
