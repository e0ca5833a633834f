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
    """Dirichlet / Jelinek-Mercer #combine scorer.

    Two paths returning IDENTICAL rankings and bit-identical scores:

    * exhaustive union DAAT (``prune=False`` or whenever a doc_range shard
      is given) — decodes every block of every child term;
    * rank-safe block-max pruning (the default for unsharded positive-
      weight queries) — the WeightedAndNode skip the reference applies to
      #combine/#weight (ref:src/WeightedAndNode.cpp:119-186, candidate
      generation from topdocs ref:src/IndexWriter.cpp:531-607): doc-space
      cells are processed in descending upper-bound order and processing
      stops when the residual bound drops strictly below the k-th score.
      Every smoothing formula here is monotone ↑tf and ↓dl, so a cell's
      bound is the formula at (max block tf overlapping the cell, min dl
      of any real doc in the cell); docs absent from a term's postings are
      covered because tf=0 ≤ max tf.  The okapi BM25 baseline keeps its
      own scorer — PlusNode is not SkippingCapable in the reference
      (ref:src/PlusNode.cpp:36-42) and is handled in query.py.
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
        # per-cell min document length (real docs only), keyed by cell span
        self._cell_min_dl_cache: dict[int, np.ndarray] = {}

    def score(self, terms: list[str], k: int = 1000,
              doc_range: tuple[int, int] | None = None,
              prune: bool | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        if not terms:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        # #combine = WeightedAnd with weights 1 then a mean — keep the
        # sum-then-divide order so scores are bitwise-stable vs the oracles
        return self.score_weighted([(t, 1.0) for t in terms], k,
                                   mean_of=len(terms), doc_range=doc_range,
                                   prune=prune)

    def _cell_min_dl(self, span: int) -> np.ndarray:
        """Per-cell min dl over REAL docs (dl > 0); +inf for cells with
        none.  Holes in the doc-keyed maps (dedup losers, dropped ids) and
        empty docs can never be candidates — they have no postings — so
        excluding them keeps the bound tight without affecting safety.
        The mins are folded slab by slab (cell-aligned) over each mapped
        ``dl`` view (``IndexReader.doc_maps``), so the heap holds one slab
        and the O(n_cells) result, never O(max_doc_id)."""
        hit = self._cell_min_dl_cache.get(span)
        if hit is None:
            n = self.r.manifest["max_doc_id"] + 1
            hit = np.full((n + span - 1) // span, np.inf)
            slab = span * max(1, (4 << 20) // span)
            firsts, _, dls = self.r.doc_maps()
            for first, dl in zip(firsts.tolist(), dls):
                end = first + len(dl)
                for lo in range(first - first % span, end, slab):
                    a, b = max(lo, first), min(lo + slab, end)
                    c0 = lo // span
                    k = (b - lo + span - 1) // span
                    pad = np.full(k * span, np.inf)
                    arr = dl[a - first:b - first]
                    pad[a - lo:b - lo] = np.where(arr > 0, arr, np.inf)
                    hit[c0:c0 + k] = np.minimum(
                        hit[c0:c0 + k], pad.reshape(k, span).min(axis=1))
            if len(self._cell_min_dl_cache) > 4:
                self._cell_min_dl_cache.clear()
            self._cell_min_dl_cache[span] = hit
        return hit

    def _child_scores(self, tf: np.ndarray, dl: np.ndarray, p: float
                      ) -> np.ndarray:
        """One child's log-belief — THE single definition of the smoothing
        arithmetic, shared verbatim by the exhaustive path, the pruned
        path's per-cell scoring, and (with max-tf/min-dl inputs) the pruned
        path's upper bounds, so all three are float-identical per doc."""
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
                       doc_range: tuple[int, int] | None = None,
                       prune: bool | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """#weight-style scorer: Σ w_i · log P(t_i|d) over the DAAT union
        (weights as given — normalize upstream; ``mean_of=n`` divides the
        accumulated sum by n afterwards, the #combine mean).

        ``doc_range=(lo, hi)`` scores only that docID slice — the
        doc-partitioned scatter: statistics stay COLLECTION-global (so
        shard scores are identical to a global run), but postings reads
        (``query.read_postings``) are range-pruned.

        ``prune`` (default: auto) switches on rank-safe block-max cell
        skipping; it requires strictly positive weights (an upper bound
        needs the sign) and an unsharded run (shards are already
        range-pruned), and falls back to exhaustive otherwise."""
        if not term_weights:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        if prune is None:
            prune = True
        if (prune and doc_range is None
                and all(w > 0 for _, w in term_weights)):
            return self._score_weighted_blockmax(term_weights, k, mean_of)
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

    # -- block-max path -------------------------------------------------------

    def _score_weighted_blockmax(self, term_weights: list[tuple[str, float]],
                                 k: int, mean_of: int | None,
                                 combiner=None
                                 ) -> tuple[np.ndarray, np.ndarray]:
        """Rank-safe cell skipping for positive-weight #weight/#combine.

        Doc-id space is gridded into cells.  Cell bound = Σ over children of
        w·child(max block tf overlapping the cell, min real-doc dl in the
        cell) — valid because every smoothing formula is monotone ↑tf, ↓dl,
        and a doc missing the term has tf = 0 ≤ max tf.  Cells are processed
        in descending bound order; every candidate in a processed cell is
        scored COMPLETELY with the same per-doc arithmetic (and child order)
        as the exhaustive path, so emitted scores are bit-identical; the
        loop stops when a bound is strictly below the k-th finalized score,
        so skipped docs can never enter the top-k even under ties.

        ``combiner`` (optional): callable taking the per-child log-belief
        arrays (child order) and returning the per-doc scores — lets the
        structured engine delegate #combine/#weight term roots while
        reproducing ITS combination arithmetic (np.mean / tensordot)
        bit-for-bit.  The weights in ``term_weights`` (and ``mean_of``)
        must then describe the same positive combination so the cell
        bounds stay valid; ``mean_of`` scales only the bounds."""
        r = self.r
        uniq_terms = list(dict.fromkeys(t for t, _ in term_weights))
        stats = r.term_stats(uniq_terms)
        total = float(r.total_terms)
        p_c = {
            t: (stats[t][0] / total if t in stats and stats[t][0] > 0
                else 1.0 / (2.0 * total))
            for t in uniq_terms
        }
        terms_with_rows = [t for t in uniq_terms if t in stats]
        if not terms_with_rows:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        pb = r.blocks(terms_with_rows)
        nb = len(pb)
        if nb == 0:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        tindex = {t: i for i, t in enumerate(uniq_terms)}
        ti_f = np.array([tindex[t] for t in pb.terms], np.int64)[pb.term]
        max_doc = int(pb.last.max())

        n_uniq = len(uniq_terms)
        n_cells = max(16, min(256, nb // max(1, 4 * n_uniq)))
        n_cells = min(n_cells, max(1, nb))
        cell_span = max(1, min((max_doc + n_cells) // n_cells, 1 << 16))
        n_cells_real = max_doc // cell_span + 1

        # (cell, block) entries — a block can straddle cells
        c0 = pb.first // cell_span
        spans = pb.last // cell_span - c0 + 1
        tot = int(spans.sum())
        seg = np.concatenate(([0], np.cumsum(spans)[:-1]))
        entry_cell = (np.repeat(c0, spans)
                      + (np.arange(tot, dtype=np.int64) - np.repeat(seg, spans)))
        entry_bi = np.repeat(np.arange(nb, dtype=np.int64), spans)
        # per-(cell, uniq term) bound over IN-BLOCK docs, using each block's
        # own (max tf, min dl) — strictly tighter than the cell-wide dl
        # floor; -inf where the term has no block in the cell
        min_dl = self._cell_min_dl(cell_span)[:n_cells_real]
        M_ub = np.full((n_cells_real, n_uniq), -np.inf)
        ent_ti = ti_f[entry_bi]
        for term in terms_with_rows:
            ti = tindex[term]
            sel = ent_ti == ti
            if not sel.any():
                continue
            bi = entry_bi[sel]
            e_ub = self._child_scores(pb.max_tf[bi], pb.min_dl[bi], p_c[term])
            np.maximum.at(M_ub, (entry_cell[sel], np.full(len(bi), ti)), e_ub)
        # cell bound: children in any order (bounds need no float identity);
        # docs NOT in any of the term's blocks have tf = 0 and dl ≥ the
        # cell's real-doc dl floor
        cell_ub = np.zeros(n_cells_real)
        zero_tf = np.zeros(n_cells_real)
        # cells whose dl floor is +inf (no real doc) evaluate to log(0):
        # they are masked to -inf below, so silence the transient warning
        with np.errstate(divide="ignore", invalid="ignore"):
            for term, w in term_weights:
                ti = tindex[term]
                bg_ub = self._child_scores(zero_tf, min_dl, p_c[term])
                cell_ub += w * np.maximum(M_ub[:, ti], bg_ub)
        if mean_of:
            cell_ub /= mean_of
        has_block = np.zeros(n_cells_real, bool)
        has_block[entry_cell] = True
        # no real doc / no overlapping block → no candidate can live there
        cell_ub[~(has_block & np.isfinite(min_dl))] = -np.inf

        # group entries per cell for the decode walk
        order = np.argsort(entry_cell, kind="stable")
        entry_cell = entry_cell[order]
        entry_bi = entry_bi[order]
        cbrk = np.flatnonzero(entry_cell[1:] != entry_cell[:-1])
        cstarts = np.concatenate(([0], cbrk + 1))
        cends = np.concatenate((cbrk + 1, [len(entry_cell)]))
        cell_of_group = entry_cell[cstarts]
        group_of_cell = np.full(n_cells_real, -1, np.int64)
        group_of_cell[cell_of_group] = np.arange(len(cell_of_group))

        decoded: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        final_ids: list[np.ndarray] = []
        final_scores: list[np.ndarray] = []
        n_final = 0
        threshold = -np.inf
        running_topk: np.ndarray | None = None

        for cell in np.argsort(-cell_ub, kind="stable"):
            if cell_ub[cell] == -np.inf:
                break
            if n_final >= k and cell_ub[cell] < threshold:
                break
            gi = group_of_cell[cell]
            lo, hi = int(cell) * cell_span, (int(cell) + 1) * cell_span
            bis = entry_bi[cstarts[gi]:cends[gi]]
            # batch-decode this cell's blocks not decoded for an earlier cell
            missing = np.array([bi for bi in bis.tolist() if bi not in decoded],
                               np.int64)
            d_all, tf_all, _ = pb.decode(missing)
            cuts = np.concatenate(([0], np.cumsum(pb.n_docs[missing])))
            for j, bi in enumerate(missing.tolist()):
                decoded[bi] = (d_all[cuts[j]:cuts[j + 1]],
                               tf_all[cuts[j]:cuts[j + 1]])
            # per-uniq-term cell slices (doc-ascending: blocks are)
            bis_ti = ti_f[bis]
            cell_posts: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            for term in terms_with_rows:
                ti = tindex[term]
                t_ids, t_tfs = [], []
                for bi in bis[bis_ti == ti].tolist():
                    d, tf = decoded[bi]
                    m = (d >= lo) & (d < hi)
                    if m.any():
                        t_ids.append(d[m])
                        t_tfs.append(tf[m])
                if t_ids:
                    cell_posts[term] = (np.concatenate(t_ids),
                                        np.concatenate(t_tfs))
            if not cell_posts:
                continue
            cand = np.unique(np.concatenate([d for d, _ in cell_posts.values()]))
            cand = cand[r.keep_mask(cand)]
            if not len(cand):
                continue
            dl = r.doc_lens(cand).astype(np.float64)
            # EXACT exhaustive arithmetic: children in query order, same
            # searchsorted gather, same child formula, same accumulation
            kids: list[np.ndarray] = []
            acc = np.zeros(len(cand), dtype=np.float64)
            for term, w in term_weights:
                tf = np.zeros(len(cand), dtype=np.float64)
                tp = cell_posts.get(term)
                if tp is not None:
                    d, t = tp
                    pos = np.searchsorted(cand, d)
                    pos_c = np.minimum(pos, len(cand) - 1)
                    hit = cand[pos_c] == d
                    tf[pos_c[hit]] = t[hit].astype(np.float64)
                child = self._child_scores(tf, dl, p_c[term])
                if combiner is not None:
                    kids.append(child)
                else:
                    acc += child if w == 1.0 else w * child
            if combiner is not None:
                acc = combiner(kids)
            elif mean_of:
                acc /= mean_of
            final_ids.append(cand)
            final_scores.append(acc)
            n_final += len(cand)
            running_topk = (
                acc if running_topk is None
                else np.concatenate([running_topk, acc]))
            if len(running_topk) > k:
                running_topk = np.partition(running_topk, -k)[-k:]
            if len(running_topk) == k:
                threshold = float(running_topk.min())

        if not final_ids:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return _topk(np.concatenate(final_ids), np.concatenate(final_scores), k)

