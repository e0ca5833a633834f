"""Pseudo-relevance feedback — RM1/RM3 relevance models.

The reference ships RM1/RM3 expansion (``RelevanceModel``,
ref:src/RelevanceModel.cpp, 326 LoC; used for query expansion by ``rmodel/``
and the baseline TFIDF feedback path ref:runquery/IndriRunQuery.cpp:589-594).
Semantics implemented here:

* run the original query → take the top ``fb_docs`` documents;
* P(d|Q) ∝ exp(score_d) normalized over the feedback set (scores are
  log-probabilities under the LM scorers);
* RM1:  P(w|R) = Σ_d P(w|d) · P(d|Q) with ML estimate P(w|d) = tf/dl over
  the feedback docs' direct vectors (read from the inverted index by doc
  slice — the direct-list role, SURVEY.md §1.2);
* keep the top ``fb_terms`` terms by P(w|R);
* RM3:  interpolate with the original query: w' = λ·P(w|Q) + (1-λ)·P(w|R)
  (original-query weight ``orig_weight``), then re-run as a ``#weight``
  query over the LM engine.

Ray shape: the per-doc term vectors for the feedback set are recovered by a
scan of every mapped postings file restricted to the feedback doc
range — no direct/forward index is required (a doc-sliced read of the
inverted file, which block metadata makes cheap).
"""

from __future__ import annotations

import numpy as np

from .lm import LMScorer, process_query_lm
from .query import IndexReader


def _feedback_doc_vectors(reader: IndexReader, doc_ids: list[int]) -> dict[int, dict[str, int]]:
    """doc_id → {term: tf} for a small doc set.

    Primary path: a point read of the forward ("direct") index — O(feedback
    docs), not O(index).  Fallback for indexes built without ``store_direct``:
    the old doc-sliced scan of the postings shards, whose cost grows with the
    doc-range density of every query term (a near-full inverted-file read at
    scale — which is exactly why the direct index exists,
    ref:include/indri/TermList.hpp:105-131)."""
    try:
        vecs = reader.doc_vectors(doc_ids)
        return {d: vecs.get(d, {}) for d in doc_ids}
    except FileNotFoundError:
        pass
    want = np.unique(np.asarray(doc_ids, np.int64))
    lo, hi = int(want[0]), int(want[-1])
    # every term's blocks that meet the feedback set's doc range;
    # positions are not needed for term vectors
    pb = reader.blocks(None, (lo, hi + 1))
    d, tf, _ = pb.decode(np.arange(len(pb)))
    terms = np.repeat(pb.term, pb.n_docs)
    hit = np.isin(d, want)
    vecs: dict[int, dict[str, int]] = {did: {} for did in want.tolist()}
    for did, ti, f in zip(d[hit].tolist(), terms[hit].tolist(), tf[hit].tolist()):
        vecs[did][pb.terms[ti]] = f
    return vecs


def rm1_model(
    reader: IndexReader,
    query: str,
    fb_docs: int = 10,
    fb_terms: int = 20,
    method: str = "dirichlet",
    mu: float = 2500.0,
    lam: float = 0.4,
    first_pass: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list[str], list[tuple[str, float]] | None]:
    """The RM1 relevance model: ``(query_terms, [(term, P(w|R))])`` with
    the weights normalized over the top ``fb_terms`` terms (the reference's
    ``RelevanceModel`` grams).  Ordered by the pinned selection key
    (round(p, 12) desc, term asc).  The second element is ``None`` when
    the initial retrieval is EMPTY (no feedback docs at all) — distinct
    from an empty model.

    ``first_pass=(ids, scores)`` supplies a precomputed initial retrieval
    (e.g. from the doc-partitioned scatter — bit-identical to
    ``LMScorer.score``); otherwise it is computed here."""
    q_terms = process_query_lm(query, reader.cfg)
    if not q_terms:
        return [], None
    if first_pass is not None:
        ids, scores = first_pass
    else:
        lm = LMScorer(reader, method=method, mu=mu, lam=lam)
        ids, scores = lm.score(q_terms, k=fb_docs + 40)
    if len(ids) == 0:
        return q_terms, None
    # feedback-doc cutoff pinned like every oracle-checked ranking: round
    # the score to 9 decimals (desc) then doc_id desc, so a SQL oracle with
    # unspecified float summation order selects the same feedback set
    r9 = np.round(scores, 9)
    order = np.lexsort((-ids, -r9))[:fb_docs]
    ids, scores = ids[order], scores[order]
    # P(d|Q) over the feedback set (log-sum-exp normalized)
    s = scores - scores.max()
    p_d = np.exp(s)
    p_d /= p_d.sum()
    vecs = _feedback_doc_vectors(reader, ids.tolist())
    doc_lens = reader.doc_lens()
    p_w: dict[str, float] = {}
    for did, w in zip(ids.tolist(), p_d.tolist()):
        dl = float(doc_lens[did])
        for term, tf in vecs[did].items():
            p_w[term] = p_w.get(term, 0.0) + w * (tf / dl)
    # cutoff key rounded to 12 decimals: p_w is a small float sum whose
    # addition order differs between implementations (and the SQL oracle);
    # rounding pins the fb_terms selection against last-ulp noise
    top = sorted(p_w.items(), key=lambda kv: (-round(kv[1], 12), kv[0]))[:fb_terms]
    z = sum(v for _, v in top)
    return q_terms, ([(t, v / z) for t, v in top] if z > 0 else [])


def query_clarity(
    reader: IndexReader,
    query: str,
    fb_docs: int = 10,
    fb_terms: int = 20,
    method: str = "dirichlet",
    mu: float = 2500.0,
    lam: float = 0.4,
) -> float:
    """Query clarity (ref:clarity/clarity.cpp:62-81): the KL divergence of
    the RM1 relevance model from the collection model over the model's top
    terms, in bits —

        clarity = Σ_w P(w|Q)·log(P(w|Q)/P(w)) / Σ_w P(w|Q) / log 2

    with P(w|Q) = the gram weight (RM1, normalized over the top fb_terms)
    and P(w) = cf(w)/|C| (the reference uses stemCount — RM1 terms are
    already index stems here too)."""
    import math

    _, rm1 = rm1_model(reader, query, fb_docs, fb_terms, method, mu, lam)
    if not rm1:  # no query terms, empty retrieval, or empty model
        return 0.0
    stats = reader.term_stats([t for t, _ in rm1])
    total = float(reader.total_terms)
    s = 0.0
    ln_pr = 0.0
    for t, p in rm1:  # fixed gram order — the same loop as the reference
        cf = float(stats.get(t, (0, 0))[0])
        pw = cf / total if cf > 0 else 0.5 / total
        s += p
        ln_pr += p * math.log(p / pw)
    return ln_pr / (s if s else 1.0) / math.log(2.0)


def rm_expand(
    reader: IndexReader,
    query: str,
    fb_docs: int = 10,
    fb_terms: int = 20,
    orig_weight: float = 0.5,
    method: str = "dirichlet",
    mu: float = 2500.0,
    lam: float = 0.4,
    first_pass: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[tuple[str, float]]:
    """RM3 expansion: returns the expanded [(term, weight)] list —
    :func:`rm1_model` interpolated with the original query model."""
    q_terms, rm1_list = rm1_model(reader, query, fb_docs, fb_terms,
                                  method, mu, lam, first_pass)
    if not q_terms:
        return []
    if rm1_list is None:  # empty initial retrieval: keep the raw query
        return [(t, 1.0) for t in q_terms]
    rm1 = dict(rm1_list)
    # original query model P(w|Q) = qtf/|Q|
    n = len(q_terms)
    p_q: dict[str, float] = {}
    for t in q_terms:
        p_q[t] = p_q.get(t, 0.0) + 1.0 / n
    terms = sorted(set(rm1) | set(p_q))
    out = [
        (t, orig_weight * p_q.get(t, 0.0) + (1 - orig_weight) * rm1.get(t, 0.0))
        for t in terms
    ]
    return [(t, w) for t, w in out if w > 0]


def rm3_search(
    reader: IndexReader,
    query: str,
    k: int = 1000,
    fb_docs: int = 10,
    fb_terms: int = 20,
    orig_weight: float = 0.5,
    method: str = "dirichlet",
    mu: float = 2500.0,
    lam: float = 0.4,
) -> tuple[np.ndarray, np.ndarray]:
    """RM3: expand, then score the #weight-style normalized weighted sum of
    per-term log-beliefs through :meth:`LMScorer.score_weighted` (same
    smoothing method, deletion mask, and ``query.read_postings`` decode as
    the first-pass run — no duplicated scoring path).  Expanded terms are
    already index terms, so they bypass query-side re-processing (stemming
    a stem is not guaranteed to be a no-op)."""
    expanded = rm_expand(reader, query, fb_docs, fb_terms, orig_weight,
                         method, mu, lam)
    if not expanded:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    wa = np.array([w for _, w in expanded], dtype=np.float64)
    wa /= wa.sum()  # numpy pairwise sum, bit-stable vs the recorded oracle
    term_weights = list(zip([t for t, _ in expanded], wa.tolist()))
    lm = LMScorer(reader, method=method, mu=mu, lam=lam)
    return lm.score_weighted(term_weights, k)
