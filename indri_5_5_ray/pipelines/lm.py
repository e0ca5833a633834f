"""Language-model retrieval — Indri's DEFAULT scoring path.

``#combine(t1 … tn)`` over bag-of-words = WeightedAndNode with weights 1/n →
the document score is the MEAN of per-child log-probabilities
(ref:src/InferenceNetworkBuilder.cpp:891, ref:src/WeightedAndNode.cpp).
Duplicated query terms are separate children (no qtf collapsing in the
default path), so a duplicate contributes its log twice.

Smoothing functions (ref:src/TermScoreFunctionFactory.cpp:42-78):

* dirichlet (default, mu=2500):  log((tf + mu·P(t|C)) / (dl + mu))
  (ref:include/indri/DirichletTermScoreFunction.hpp:44-47)
* jelinek-mercer (lambda=0.4):   log((1-λ)·tf/dl + λ·P(t|C))
  (ref:include/indri/JelinekMercerTermScoreFunction.hpp)

with P(t|C) = cf/|C|, |C| = total term count including stopped slots, and
zero-cf terms given P = 1/(2·|C|) (ref:src/TermScoreFunctionFactory.cpp:52-53).
Candidates are docs matching ≥1 query term (the DAAT union,
ref:src/InferenceNetwork.cpp:285-332) — absent terms contribute their
background probability to candidate docs.  Tie-break identical to BM25:
score desc → doc_id desc.
"""

from __future__ import annotations

import numpy as np

from ..config import IndexConfig
from ..stages.ingest import TermProcessor
from ..tokenizer import tokenize
from .query import IndexReader, _topk, read_postings


def process_query_lm(text: str, cfg: IndexConfig,
                     proc: TermProcessor | None = None) -> list[str]:
    """Query text → child term list (duplicates preserved, stopped dropped)."""
    proc = proc or TermProcessor(cfg)
    out = []
    for raw in tokenize(text, cfg.tokenizer):
        term = proc.process(raw)
        if term is not None:
            out.append(term)
    return out


class LMScorer:
    """Dirichlet / Jelinek-Mercer / two-stage #combine/#weight scorer: one
    exhaustive union DAAT that decodes every block of every child term and
    scores every candidate.

    The reference's WeightedAndNode skip (ref:src/WeightedAndNode.cpp:119-186)
    is deliberately not reproduced: the output is rank-identical without it,
    and ``_topk`` prunes after scoring, so a skip before decoding is slower
    at every index size measured (BASELINE §1aa).  The okapi BM25 baseline
    keeps its own scorer in query.py.
    """

    _METHODS = ("dirichlet", "jm", "linear", "jelinek-mercer", "two",
                "two-stage", "twostage")

    def __init__(self, reader: IndexReader, method: str = "dirichlet",
                 mu: float = 2500.0, lam: float = 0.4):
        if method not in self._METHODS:
            raise ValueError(f"unknown smoothing method {method!r} "
                             f"(one of {self._METHODS})")
        self.r = reader
        self.method = method
        self.mu = mu
        self.lam = lam
        self.proc = TermProcessor(reader.cfg)  # query terms' stem memo

    def score(self, terms: list[str], k: int = 1000,
              doc_range: tuple[int, int] | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        if not terms:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        # #combine = WeightedAnd with weights 1 then a mean — keep the
        # sum-then-divide order so scores are bitwise-stable vs the oracles
        return self.score_weighted([(t, 1.0) for t in terms], k,
                                   mean_of=len(terms), doc_range=doc_range)

    def _child_scores(self, tf: np.ndarray, dl: np.ndarray, p: float
                      ) -> np.ndarray:
        """One child's log-belief per candidate — the one definition of the
        smoothing arithmetic."""
        bg = self.mu * p
        if self.method == "dirichlet":
            return np.log((tf + bg) / (dl + self.mu))
        if self.method in ("two", "two-stage", "twostage"):
            # two-stage smoothing: dirichlet inner, JM outer
            # (ref:include/indri/TwoStageTermScoreFunction.hpp:39-48)
            dirichlet = (tf + bg) / (dl + self.mu)
            return np.log((1.0 - self.lam) * dirichlet + self.lam * p)
        # jelinek-mercer
        return np.log((1.0 - self.lam) * tf / dl + self.lam * p)

    def score_weighted(self, term_weights: list[tuple[str, float]],
                       k: int = 1000, mean_of: int | None = None,
                       doc_range: tuple[int, int] | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """#weight-style scorer: Σ w_i · log P(t_i|d) over the DAAT union
        (weights as given — normalize upstream; ``mean_of=n`` divides the
        accumulated sum by n afterwards, the #combine mean).

        ``doc_range=(lo, hi)`` scores only that docID slice — the
        doc-partitioned scatter: statistics stay COLLECTION-global (so
        shard scores are identical to a global run), but postings reads
        (``query.read_postings``) are range-pruned."""
        if not term_weights:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        r = self.r
        uniq_terms = list(dict.fromkeys(t for t, _ in term_weights))
        stats = r.term_stats(uniq_terms)
        total = float(r.total_terms)
        # background model probability per term; zero-cf terms get 1/(2|C|)
        p_c = {
            t: (stats[t][0] / total if t in stats and stats[t][0] > 0 else 1.0 / (2.0 * total))
            for t in uniq_terms
        }
        term_postings = read_postings(
            r, [t for t in uniq_terms if t in stats], doc_range=doc_range)
        if not term_postings:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        cand = np.unique(np.concatenate([tp[0] for tp in term_postings.values()]))
        cand = cand[r.keep_mask(cand)]
        if not len(cand):
            return np.empty(0, np.int64), np.empty(0, np.float64)
        dl = r.doc_lens(cand).astype(np.float64)
        acc = np.zeros(len(cand), dtype=np.float64)
        for term, w in term_weights:  # children in query order, dups included
            tf = np.zeros(len(cand), dtype=np.float64)
            tp = term_postings.get(term)
            if tp is not None:
                d, t = tp[:2]
                # deleted docs were filtered out of cand but not out of the
                # postings — only assign where the posting doc survives
                pos = np.searchsorted(cand, d)
                pos_c = np.minimum(pos, len(cand) - 1)
                hit = cand[pos_c] == d
                tf[pos_c[hit]] = t[hit].astype(np.float64)
            child = self._child_scores(tf, dl, p_c[term])
            acc += child if w == 1.0 else w * child
        if mean_of:
            acc /= mean_of
        return _topk(cand, acc, k)
