"""Hierarchical shrinkage scoring — the ShrinkageBeliefNode analogue
(ref:src/ShrinkageBeliefNode.cpp:36-524, ref:src/DocumentStructure.cpp).

Ogilvie's shrinkage model for structured documents: each document's tag
tree becomes a hierarchy of language models; a node's estimate is smoothed
UP from its children (per-field smoothing rules, absolute or
length-proportional weights, ref:ShrinkageBeliefNode.cpp:312-379), then
DOWN from its parent chain and the whole-document model (parentWeight /
docWeight mixing, :382-408), with the collection weight added back
(:410-418).  A document's belief for a term extent averages the smoothed
probabilities of the matching structure nodes (:85-141); an extent query
uses the exact node, a whole-document query falls back to every node of
the trees the term actually matched (``findLeafs`` approximate pass,
ref:src/DocumentStructure.cpp:240-255 — nodes of UNMATCHED trees keep a
zero score and are excluded, because the reference only walks
``topDownOrder(_roots)``).

Faithfully preserved reference behaviors:

- counts include every child component ("break from the model in my
  proposal", ref:ShrinkageBeliefNode.cpp:186-190): an occurrence counts
  into EVERY ancestor node containing it, with the ``lastEnd`` skip for
  overlapping extents (:241-274).
- the document node's base (``_base[0]``) keeps the SMOOTHED probability
  (it never goes through the collection-weight subtraction the structure
  nodes get, :278-308) — so ``up[0]`` mixes a smoothed document model
  into every node.
- non-``recursive`` mode mixes the parent's UP estimate; ``recursive``
  mixes the parent's already-shrunk DOWN estimate (:388-406).
- rule weights summing past 1 make the absolute weights ignored
  (``remaining < 0`` branch, :362-377); a zero-length node falls back to
  its own base (NaN divisor branch, :369-377).
- no matching node at all → the default score
  ``docWeight·base₀ + (1−docWeight)·collection`` (:283-289).

Scale note: scoring is doc-local (one doc's tag tree + one term's
positions), so the doc-partitioned scatter in ``pipelines/run.py`` shards
it unchanged — global statistics (cf, total terms) come from the
manifest, never per-shard.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .query import IndexReader


@dataclass
class SmoothingRule:
    field_name: str
    weight: float = 0.0
    length_proportional: bool = False


@dataclass
class ShrinkageSettings:
    parent_weight: float = 0.0
    doc_weight: float = 0.0
    recursive: bool = False
    query_level_combine: bool = False
    rules: dict[str, SmoothingRule] = field(default_factory=dict)


def parse_shrinkage_rule(text: str, settings: ShrinkageSettings) -> None:
    """One ``key:value,key:value`` rule string
    (ref:ShrinkageBeliefNode.cpp:481-524): global keys mutate the
    settings; a ``field`` key defines one per-field rule (kept only when
    the field name is non-empty, last definition wins like the
    reference's set insert keyed by field)."""
    rule = SmoothingRule("")
    for part in text.split(","):
        if ":" not in part:
            continue
        key, value = part.split(":", 1)
        if key == "parentWeight":
            settings.parent_weight = float(value)
        elif key == "docWeight":
            settings.doc_weight = float(value)
        elif key == "recursive":
            settings.recursive = value == "true"
        elif key == "queryLevelCombine":
            settings.query_level_combine = value == "true"
        elif key == "field":
            rule.field_name = value
        elif key == "weight":
            rule.weight = float(value)
        elif key == "length":
            rule.length_proportional = value == "true"
    if rule.field_name:
        settings.rules[rule.field_name] = rule


class ShrinkageScorer:
    """#combine of per-term shrinkage beliefs over whole documents.

    ``rules`` is a list of the reference's rule strings; ``method`` /
    ``lam`` / ``mu`` pick the term score function (linear = the model's
    native configuration: the collection-weight subtraction then recovers
    the node MLE exactly; dirichlet is supported for parity but can go
    negative under subtraction, as in the reference)."""

    def __init__(self, reader: IndexReader, rules: list[str] | tuple = (),
                 method: str = "linear", lam: float = 0.4,
                 mu: float = 2500.0):
        self.r = reader
        self.settings = ShrinkageSettings()
        for text in rules:
            parse_shrinkage_rule(text, self.settings)
        if method in ("linear", "jm", "jelinek-mercer"):
            self.method = "linear"
            # setSmoothing: otherWeight = documentLambda(0) + collectionLambda
            self.other_weight = lam
        elif method == "dirichlet":
            self.method = "dirichlet"
            self.other_weight = 0.0
        else:
            raise ValueError(f"unknown smoothing method {method!r}")
        self.lam = lam
        self.mu = mu
        total = reader.manifest["total_terms"]
        self._total = float(total) if total > 0 else 1.0
        # doc structures: ordinal-keyed node arrays per doc, loaded lazily
        # for CANDIDATE docs only and memoized across queries on this
        # scorer (the DocumentStructureHolderNode analogue); docs with no
        # tag tree memoize None
        self._structs: dict[int, dict | None] = {}

    # -- term score function (4-arg form, documentLambda = 0) ---------------

    def _score_occurrence(self, occ: float, ctx: float, p_c: float) -> float:
        if self.method == "linear":
            ctx_freq = occ / ctx if ctx else 0.0
            return math.log((1.0 - self.lam) * ctx_freq + self.lam * p_c)
        seen = (occ + self.mu * p_c) / (ctx + self.mu)
        return math.log(seen)

    # -- document structures -------------------------------------------------

    def _structures_for(self, doc_ids: np.ndarray) -> dict[int, dict | None]:
        """doc_id → {"begin","end","parent","type"} ordinal-indexed arrays
        (index 0 unused; ordinals are the build's per-document numbering,
        identical to the reference's DocumentStructure node ids).

        Loads extents for the REQUESTED docs only (O(candidates), never the
        whole collection — `field_extents` prunes by doc set / doc-range
        partitioned files) and memoizes per doc, so repeated queries on
        one scorer pay only for docs not yet seen."""
        missing = [int(d) for d in doc_ids if int(d) not in self._structs]
        if not missing:
            return self._structs
        fields = tuple(self.r.cfg.fields or ())
        per_doc: dict[int, list[tuple[int, int, int, int, str]]] = {}
        # a dense candidate set reads faster as one range scan than a huge
        # isin filter; a sparse one prunes harder with the explicit id list
        lo, hi = min(missing), max(missing) + 1
        dense = len(missing) > 10_000 and len(missing) >= (hi - lo) // 4
        kw = ({"doc_range": (lo, hi)} if dense else {"doc_ids": missing})
        for fname in fields:
            t = self.r.field_extents(fname, **kw)
            for row in t.to_pylist():
                d = row["doc_id"]
                rows = per_doc.setdefault(d, [])
                for b, e, o, p in zip(row["begins"], row["ends"],
                                      row["ordinals"],
                                      row["parent_ordinals"]):
                    rows.append((o, b, e, p, fname))
        structs: dict[int, dict] = {}
        for d, rows in per_doc.items():
            n = max(o for o, *_ in rows)
            begin = np.zeros(n + 1, np.int64)
            end = np.zeros(n + 1, np.int64)
            parent = np.zeros(n + 1, np.int64)
            ftype = [""] * (n + 1)
            for o, b, e, p, fn in rows:
                begin[o], end[o], parent[o], ftype[o] = b, e, p, fn
            children: list[list[int]] = [[] for _ in range(n + 1)]
            for o in range(1, n + 1):
                children[parent[o]].append(o)
            structs[d] = {"begin": begin, "end": end, "parent": parent,
                          "type": ftype, "children": children, "n": n}
        for d in missing:
            self._structs[d] = structs.get(d)
        return self._structs

    # -- the score cache (per doc, per term) ---------------------------------

    def _doc_term_score(self, struct: dict | None, positions: np.ndarray,
                        dl: int, p_c: float) -> float:
        """log belief of one term for one whole document — the reference's
        ``_buildScoreCache`` + ``score`` with extent = [0, doclen), ordinal
        0 (ref:ShrinkageBeliefNode.cpp:74-143,167-427)."""
        down, default, n = self._doc_term_down(struct, positions, dl, p_c)
        qlc = self.settings.query_level_combine
        # whole-doc extent: no node spans [0, dl) exactly → approximate
        # leafs = every node; unmatched trees' zeros are excluded
        matched = 0
        total = 0.0
        for i in range(1, n + 1):
            if down[i] != 0.0:
                total += down[i]
                matched += 1
        if matched:
            score = total / matched
            return score if qlc else math.log(score)
        return default if qlc else math.log(default)

    def _doc_term_down(self, struct: dict | None, positions: np.ndarray,
                       dl: int, p_c: float) -> tuple[np.ndarray, float, int]:
        """The score cache of one (document, term) pair: ``(down, default,
        n)`` where ``down[ordinal]`` is the fully-shrunk node estimate
        (0 for nodes of unmatched trees, which the reference never walks)
        and ``default`` the no-match fallback ``docWeight·base₀ +
        (1−docWeight)·collection`` (ref:ShrinkageBeliefNode.cpp:167-427
        ``_buildScoreCache``)."""
        s = self.settings
        qlc = s.query_level_combine
        tf = float(len(positions))
        n = struct["n"] if struct else 0
        counts = np.zeros(n + 1, np.float64)
        counts[0] = tf
        roots: set[int] = set()
        if struct is not None and tf:
            begin, end, parent = struct["begin"], struct["end"], struct["parent"]
            # single-term extents [p, p+1) never overlap → the lastEnd skip
            # never fires; containment counting replaces the active-list
            # walk — ONE vectorized searchsorted pair over all nodes (the
            # per-node Python loop was the xmlq bench's dominant cost)
            c_all = (np.searchsorted(positions, end[1:n + 1])
                     - np.searchsorted(positions, begin[1:n + 1]))
            nz = np.flatnonzero(c_all)
            counts[nz + 1] = c_all[nz]
            for o in (nz + 1).tolist():
                r = o
                while parent[r] != 0:
                    r = parent[r]
                roots.add(r)
        base = np.zeros(n + 1, np.float64)
        up = np.zeros(n + 1, np.float64)
        down = np.zeros(n + 1, np.float64)
        base[0] = self._score_occurrence(counts[0], dl, p_c)
        default = self._score_occurrence(0.0, 0.0, p_c)
        if not qlc:
            base[0] = math.exp(base[0])
            default = math.exp(default)
        other_score = default
        default = s.doc_weight * base[0] + (1.0 - s.doc_weight) * default

        # top-down order over MATCHED trees only (parents before children —
        # ordinals sort (begin asc, end desc), so ascending ordinal works
        # within each subtree)
        order: list[int] = []
        if roots:
            children = struct["children"]
            stack = sorted(roots, reverse=True)
            while stack:
                i = stack.pop()
                order.append(i)
                stack.extend(reversed(children[i]))
        for i in order:
            ctx = float(struct["end"][i] - struct["begin"][i])
            score = self._score_occurrence(counts[i], ctx, p_c)
            if not qlc:
                score = (math.exp(score) - other_score) / (1.0 - self.other_weight)
            base[i] = score

        # smooth up (children rules)
        for i in reversed(order):
            remaining = 1.0
            absolute = 0.0
            length = float(struct["end"][i] - struct["begin"][i])
            divisor = length
            relative = base[i] * length
            if s.rules:
                for kid in struct["children"][i]:
                    rule = s.rules.get(struct["type"][kid])
                    if rule is None:
                        continue
                    if rule.length_proportional:
                        alpha = rule.weight * float(
                            struct["end"][kid] - struct["begin"][kid])
                        relative += alpha * (up[kid] if s.recursive
                                             else base[kid])
                        divisor += alpha
                    else:
                        absolute += rule.weight * (up[kid] if s.recursive
                                                   else base[kid])
                        remaining -= rule.weight
            if divisor != 0.0:
                relative /= divisor
                up[i] = (remaining * relative + absolute
                         if remaining >= 0 else relative)
            else:
                up[i] = (remaining * base[i] + absolute
                         if remaining >= 0 else base[i])

        # smooth down
        up[0] = base[0]
        down[0] = up[0]
        pw, dw = s.parent_weight, s.doc_weight
        for i in order:
            p = struct["parent"][i]
            # down[0] == up[0], so the doc component is the same either
            # mode; the parent component is the recursive/non-recursive
            # difference (ref:ShrinkageBeliefNode.cpp:388-406)
            if p == 0:
                down[i] = (1.0 - dw) * up[i] + dw * down[0]
            else:
                par = down[p] if s.recursive else up[p]
                down[i] = (1.0 - pw - dw) * up[i] + pw * par + dw * down[0]
        if not qlc:
            for i in order:
                down[i] = (1.0 - self.other_weight) * down[i] + other_score
        return down, default, n

    # -- query entry ----------------------------------------------------------

    def score(self, terms_qtf: list[tuple[str, int]], k: int = 1000
              ) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, scores) top-k ranked like every other scorer
        (score desc, doc_id desc — the shared ``_topk``).  Candidates =
        union of term postings (``hasMatch``)."""
        from .indriql import StructuredQueryEngine, _positions_of
        from .query import _topk

        eng = StructuredQueryEngine(self.r)
        terms = sorted({t for t, _ in terms_qtf})
        postings = eng._fetch_postings(terms)
        stats = self.r.term_stats(terms)
        cand = np.unique(np.concatenate(
            [postings[t][0] for t in terms if t in postings]
            or [np.empty(0, np.int64)]))
        if not len(cand):
            return np.empty(0, np.int64), np.empty(0, np.float64)
        structs = self._structures_for(cand)
        dl_cand = self.r.doc_lens(cand).tolist()
        qn = float(sum(q for _, q in terms_qtf))
        scores = np.zeros(len(cand), np.float64)
        for term, qtf in terms_qtf:
            tp = postings.get(term)
            cf = float(stats[term][0]) if term in stats else 0.0
            # zero-cf floor: the engine's OOV convention (indriql.py
            # _belief_from_counts) — without it an out-of-vocabulary term
            # makes every p_c term log(0)
            p_c = cf / self._total if cf > 0 else 1.0 / (2.0 * self._total)
            if tp is not None:
                doc_idx, flat = _positions_of(tp, cand)
            else:
                flat = np.empty(0, np.int64)
                doc_idx = np.empty(0, np.int64)
            splits = np.searchsorted(doc_idx, np.arange(len(cand) + 1))
            for ci, d in enumerate(cand):
                pos = flat[splits[ci]:splits[ci + 1]]
                dl = dl_cand[ci]
                sc = self._doc_term_score(structs.get(int(d)), pos, dl, p_c)
                scores[ci] += qtf * sc
        scores /= qn
        return _topk(cand, scores, k)

    def score_extents(self, terms_qtf: list[tuple[str, int]], field: str,
                      k: int = 1000
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
        """Extent-restricted shrinkage ``//field[about(., terms)]`` →
        ``(doc_ids, begins, ends, scores)`` ranked per extent.

        The restriction hands each field extent WITH ITS ORDINAL to every
        term's shrinkage node, so the node scores exactly ``_down[ordinal]``
        when nonzero, else the default score
        (ref:ShrinkageBeliefNode.cpp:85-141, the ``extent.ordinal != 0``
        branch); an extent is kept when ANY term's ``_down[ordinal]`` is
        nonzero (the node's vector ``hasMatch``, ref :429-461, OR-ed by
        the restriction's combining gate); zero-length extents are skipped
        (ref:src/ExtentRestrictionNode.cpp:73-74).  Terms combine exactly
        like :meth:`score` (qtf-weighted mean of per-term scores, log
        applied per queryLevelCombine).  Tie order is
        ScoredExtentResult::score_greater."""
        from .indriql import (
            StructuredQueryEngine,
            _csr_bounds,
            _positions_of,
            _take,
        )

        eng = StructuredQueryEngine(self.r)
        qlc = self.settings.query_level_combine
        terms = sorted({t for t, _ in terms_qtf})
        postings = eng._fetch_postings(terms)
        stats = self.r.term_stats(terms)
        empties = (np.empty(0, np.int64), np.empty(0, np.int64),
                   np.empty(0, np.int64), np.empty(0, np.float64))
        cand = np.unique(np.concatenate(
            [postings[t][0] for t in terms if t in postings]
            or [np.empty(0, np.int64)]))
        if len(cand):
            cand = cand[self.r.keep_mask(cand)]
        docs, starts, fb, fe, fo = eng._field_csr(field)[:5]
        cand = cand[np.isin(cand, docs)]
        if not len(cand):
            return empties
        rows, idx = _take(*_csr_bounds(docs, starts, cand))
        nz = fe[idx] > fb[idx]
        n_per = np.bincount(rows[nz], minlength=len(cand))
        if not int(n_per.sum()):
            return empties
        ext_start = np.zeros(len(cand) + 1, dtype=np.int64)
        np.cumsum(n_per, out=ext_start[1:])
        eb, ee, eo = fb[idx][nz], fe[idx][nz], fo[idx][nz]
        edoc = np.repeat(cand, n_per)
        structs = self._structures_for(cand)
        dl_cand = self.r.doc_lens(cand).tolist()
        qn = float(sum(q for _, q in terms_qtf))
        scores = np.zeros(len(eb), np.float64)
        matched_any = np.zeros(len(eb), dtype=bool)
        for term, qtf in terms_qtf:
            tp = postings.get(term)
            cf = float(stats[term][0]) if term in stats else 0.0
            p_c = cf / self._total if cf > 0 else 1.0 / (2.0 * self._total)
            if tp is not None:
                doc_idx, flat = _positions_of(tp, cand)
            else:
                flat = np.empty(0, np.int64)
                doc_idx = np.empty(0, np.int64)
            splits = np.searchsorted(doc_idx, np.arange(len(cand) + 1))
            for ci, d in enumerate(cand.tolist()):
                sl = slice(int(ext_start[ci]), int(ext_start[ci + 1]))
                if sl.start == sl.stop:
                    continue
                pos = flat[splits[ci]:splits[ci + 1]]
                dl = dl_cand[ci]
                down, default, n = self._doc_term_down(
                    structs.get(d), pos, dl, p_c)
                for j in range(sl.start, sl.stop):
                    o = int(eo[j])
                    v = down[o] if o <= n else 0.0
                    if v != 0.0:
                        matched_any[j] = True
                        sc = v if qlc else math.log(v)
                    else:
                        sc = default if qlc else math.log(default)
                    scores[j] += qtf * sc
        scores /= qn
        keep = matched_any
        edoc, eb, ee, scores = edoc[keep], eb[keep], ee[keep], scores[keep]
        order = np.lexsort((-ee, -eb, -edoc, -scores))[:k]
        return edoc[order], eb[order], ee[order], scores[order]
