"""Element-level (per-extent) retrieval and the INEX result surface.

The reference's ``runQuery`` returns ``ScoredExtentResult{score, document,
begin, end}`` (ref:include/indri/ScoredExtentResult.hpp:30-46): under an
extent restriction ``#op[f](...)`` every extent of ``f`` is scored
separately (ExtentRestrictionNode, ref:src/ExtentRestrictionNode.cpp;
built at ref:src/InferenceNetworkBuilder.cpp:152), under fixed-passage
retrieval every sliding window is (FixedPassageNode, ref:src/
InferenceNetworkBuilder.cpp:170), and a plain document query carries
``begin = end = 0`` (the two-argument ScoredExtentResult constructor,
ref:include/indri/ScoredExtentResult.hpp:60-82).

Every surface runs ONE belief recursion, :class:`~.indriql._ExtentEval`,
over an extent set: :class:`~.indriql.StructuredQueryEngine` passes one
whole-document extent per candidate (and a document-level passage's
windows, keeping each doc's best), this module passes a root's field
extents or passage windows and keeps every extent — the per-extent
surface on the same index data.  Counting is the evaluator's one extent-
set recursion too: an extent's count is the number of a count node's
extents it contains.  The extent sets here (field CSR gathers, step and
chain extents, the FieldWildcard context) are flat doc-major arrays
filtered by the same containment kernel (``indriql._contained``).  The
surfaces:

* :func:`run_extents` ranks ``(doc, begin, end)`` triples with the
  reference's exact tie order ``score desc → doc desc → begin desc →
  end desc`` (``ScoredExtentResult::score_greater``,
  ref:include/indri/ScoredExtentResult.hpp:31-46);
* :func:`element_paths` maps result extents to INEX element paths
  (``/sec[1]/p[1]/title[1]``) with the reference's greedy leaf descent
  and same-type sibling numbering (ref:src/DocumentStructure.cpp:261-330
  ``findLeaf``/``path``, served by ref:src/LocalQueryServer.cpp:443-488
  ``pathNames``);
* :func:`format_inex` emits the ``<inex-submission>`` XML of runquery's
  ``-inex`` mode (ref:runquery/IndriRunQuery.cpp:467-478 result blocks,
  :504-521 topic wrapper, :731-745/774-776 submission envelope).

Smoothing statistics are IDENTICAL to the document-level engine: a term
under ``#op[f]`` draws its background from the term's collection
frequency *within the field context* over the field's total length (the
ContextCountAccumulator pair, ref:src/ContextCountAccumulator.cpp:90-131)
— only the foreground count and the smoothing length become per-extent.
Single-extent documents therefore score bit-identically to the document
path (asserted in tests/test_extents.py).

Scale: evaluation is vectorized over the DAAT union's candidates, the
same shape as the document-level engine; at corpus scale it shards by
doc-range through ``pipelines.run`` exactly like every other query (the
statistics are collection-global and extent data reads are range-pruned
by ``IndexReader.field_extents``).  No evaluation step loops over
documents: a ``[.path]`` restriction walks the tag tree with one flat
step per path step over all anchor extents at once, keyed by a group id
(``StructuredQueryEngine._path_extents`` — a candidate doc for a
restriction, an outer extent for the support-path clause), and
:func:`run_nested_extents` pairs ``a`` and ``b`` extents with one ragged
gather and a containment mask.

Scope: the inner tree may use terms, wildcards, ``#syn``/``#wsyn``,
``#band``, ``#odN``/``#N``/``#uwN``, ``#combine``/``#weight``/``#wsum``/
``#max``/``#or``/``#not``, ``#prior``, ``#filreq``/``#filrej``, and the
support-path shape ``#max(#combine[.path](terms))`` (the NEXI
``about(.//f, terms)`` clause — each outer extent scores as the best
anchored path extent, MaxNode semantics) and numeric/date predicates
(the arithmetic clause — count = satisfying field extents contained in
the evaluation extent).  A passage root also takes the restrictions the
document path scores (``t.f``, ``t.(f)``, ``#op[f]``, ``#any:f``); other
nested extent restrictions and passages inside an element-level root
raise ``ValueError`` (the document-level engine covers those shapes).
"""
from __future__ import annotations

import numpy as np

from .indriql import (
    Node,
    StructuredQueryEngine,
    _contained,
    _ExtentEval,
    _gather_candidates,
    _take,
    parse_query,
)

__all__ = ["run_extents", "run_extents_wildcard", "run_extents_path",
           "run_nested_extents", "element_paths", "format_inex"]


def _as_engine(reader_or_engine, method: str, mu: float, lam: float
               ) -> StructuredQueryEngine:
    if isinstance(reader_or_engine, StructuredQueryEngine):
        return reader_or_engine
    return StructuredQueryEngine(reader_or_engine, method=method, mu=mu,
                                 lam=lam)


def run_extents(reader, query: str, k: int = 1000, method: str = "dirichlet",
                mu: float = 2500.0, lam: float = 0.4, strict: bool = True,
                doc_range: tuple[int, int] | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Element-level retrieval: ``(doc_ids, begins, ends, scores)`` of the
    top-``k`` scored extents under ``query``.

    ``#op[f](...)`` roots score every extent of ``f`` per candidate doc;
    ``#op[passageN:M](...)`` roots score every sliding window; any other
    query falls back to document scoring with ``begin = end = 0``
    (matching the reference's doc-level ScoredExtentResult).  ``reader``
    may be an :class:`IndexReader` or an already-constructed
    :class:`StructuredQueryEngine` (statistics memos then carry over).

    ``strict=False`` downgrades an element-unsupported inner tree (see
    module scope notes) to DOCUMENT results instead of raising — the
    CLI's inex/plain output modes use this so every accepted query still
    prints, just without element granularity.

    ``doc_range=(lo, hi)`` restricts CANDIDATES to a docID slice (the
    doc-partitioned scatter, same contract as
    ``StructuredQueryEngine.run``): statistics stay collection-global
    (postings are fetched in full, like the structured shard default),
    so a sharded merge is rank-identical to a global run."""
    eng = _as_engine(reader, method, mu, lam)
    root = parse_query(query)
    try:
        if root.op == "ctx" and not root.term.startswith("."):
            return _run_extent_root(eng, root.term, root.children[0], k,
                                    doc_range)
        if root.op == "passage":
            return _run_extent_root(eng, None, root, k, doc_range)
    except ValueError:
        if strict:
            raise
    ids, scores = eng.run(query, k=k, doc_range=doc_range)
    zero = np.zeros(len(ids), dtype=np.int64)
    return ids, zero, zero.copy(), scores


def _run_extent_root(eng: StructuredQueryEngine, field: str | None,
                     node: Node, k: int,
                     doc_range: tuple[int, int] | None = None):
    """Shared field-extent / passage-window evaluation.  ``field=None`` =
    passage mode (``node`` is the passage node: its windows over the
    candidate documents, stats collection-global); else ``node`` is the
    inner scored tree and stats are field-context."""
    inner = node.children[0] if field is None else node
    cand = _gather_candidates(eng, (inner,), doc_range)
    if not len(cand):
        return _empties()
    if field is None:
        ev = _ExtentEval.documents(
            eng, cand, eng.r.doc_lens(cand)).passages(node)
    else:
        ev = _element_eval(eng, cand, field)
    return _score_extents(ev, inner, k)


def _element_eval(eng: StructuredQueryEngine, cand: np.ndarray, spec
                  ) -> _ExtentEval:
    """Evaluator over the NONZERO extents of a :func:`_spec_flat`
    restriction in the candidate docs, in its statistics context;
    candidates without such an extent drop out.  Zero-length extents are
    skipped, never scored ("this field has no text in it",
    ref:src/ExtentRestrictionNode.cpp:73-74 and
    src/ExtentEnforcementNode.cpp:61-62)."""
    d, b, e, kw = _spec_flat(eng, spec)
    rows, idx = _take(np.searchsorted(d, cand, "left"),
                      np.searchsorted(d, cand, "right"))
    nz = e[idx] > b[idx]
    rows, idx = rows[nz], idx[nz]
    n_per = np.bincount(rows, minlength=len(cand))
    has = n_per > 0
    ext_start = np.zeros(int(has.sum()) + 1, dtype=np.int64)
    np.cumsum(n_per[has], out=ext_start[1:])
    return _ExtentEval(eng, cand[has], ext_start, b[idx], e[idx], **kw)


def _empties():
    return (np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.int64), np.empty(0, np.float64))


def _score_extents(ev: _ExtentEval, inner: Node, k: int):
    """Score every extent of ``ev`` under ``inner`` and rank the top k.
    Extents where the scored tree has NO match are skipped, not
    background-scored (ExtentRestrictionNode/FixedPassageNode gate every
    extent on _child->hasMatch, ref:src/ExtentRestrictionNode.cpp:58-69,
    ref:src/FixedPassageNode.cpp:52-59)."""
    if not ev.n_ext:
        return _empties()
    beliefs = ev.belief(inner)
    keep = ev.matches(inner) & (beliefs > -np.inf)
    return _rank_extents(ev.cand[ev.eidx][keep], ev.eb[keep], ev.ee[keep],
                         beliefs[keep], k)


def _rank_extents(edoc, eb, ee, scores, k: int):
    """Top-k extents in ScoredExtentResult::score_greater order: score
    desc, doc desc, begin desc, end desc
    (ref:include/indri/ScoredExtentResult.hpp:31-46)."""
    order = np.lexsort((-ee, -eb, -edoc, -scores))[:k]
    return edoc[order], eb[order], ee[order], scores[order]


def _build_wild_context(eng: StructuredQueryEngine,
                        fields: tuple[str, ...] | None = None
                        ) -> tuple:
    """The FieldWildcard context over ``fields`` (None = every indexed
    field): ``(docs, begins, ends, total)`` — every NONZERO extent of a
    context field (an occurrence counts ONCE when contained in any
    context extent, ref:src/ContextCountAccumulator.cpp:99-140) plus the
    summed context size (every field extent's raw length, nested
    double-counted — the contextSize accumulation, ref :120-131 = Σ
    fieldTermCount)."""
    names = fields if fields is not None else tuple(eng.r.cfg.fields or ())
    total = 0.0
    for fname in names:
        st = eng.r.field_stats(fname)
        if st:
            total += float(st["total_len"])
    d, b, e = _step_flat_extents(eng, names)
    nz = e > b
    return d[nz], b[nz], e[nz], total


def run_extents_wildcard(reader, query: str, k: int = 1000,
                         method: str = "dirichlet", mu: float = 2500.0,
                         lam: float = 0.4,
                         doc_range: tuple[int, int] | None = None,
                         fields: tuple[str, ...] | None = None
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray]:
    """Element retrieval under the FieldWildcard restriction — the NEXI
    bare-term-list (INEX CO) result surface: every extent of EVERY
    indexed field is scored separately (the grammar wraps a bare term
    list in ``ExtentRestriction(c, FieldWildcard)``,
    ref:src/nexilang.g:214-222, and the annotator assigns the wildcard
    node as each scorer's statistics context,
    ref:include/indri/ExtentRestrictionModelAnnotatorCopier.hpp:70-76).
    ``query`` is the INNER scored tree in this dialect (e.g.
    ``#combine(a b)``).  Backgrounds draw from occurrences within ANY
    field extent over the summed field context size; foregrounds and
    smoothing lengths are per-extent; the hasMatch gate applies.  A doc
    whose extents are all zero-length (or that carries no fields)
    contributes nothing.

    ``fields`` restricts the element set to an explicit field list — the
    NEXI alternative-list target ``//(a|b)[...]`` (ExtentOr restriction,
    same ContextCountAccumulator statistics over only those fields);
    None = every indexed field (FieldWildcard)."""
    eng = _as_engine(reader, method, mu, lam)
    inner = parse_query(query)
    cand = _gather_candidates(eng, (inner,), doc_range)
    if not len(cand):
        return _empties()
    return _score_extents(_element_eval(eng, cand, ("ctx", fields)),
                          inner, k)


# ---------------------------------------------------------------------------
# NEXI path targets — NestedExtentInsideNode chains
# ---------------------------------------------------------------------------


def _step_flat_extents(eng: StructuredQueryEngine,
                       step: tuple[str, ...] | None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global flat ``(docs, begins, ends)`` of one path STEP — the extents
    of every field the step names (``None`` = every indexed field, the
    ``*`` wildcard step), doc-major, (begin asc, end desc) within a doc —
    the begin-sorted order NestedExtentInsideNode's sweep expects
    (ref:src/NestedExtentInsideNode.cpp:53-61).  Zero-length extents are
    KEPT: the node emits a contained zero-length inner (its containment
    test is weak, ref:include/indri/Extent.hpp ``contains``); scoring
    skips them later (ref:src/ExtentRestrictionNode.cpp:73-74).
    Memoized on the reader (immutable per index); the key carries the
    engine's pruned doc range like ``_field_csr``'s does, so a
    range-pruned build could never be served to a global query."""
    names = step if step is not None else tuple(eng.r.cfg.fields or ())
    memo = eng.r.__dict__.setdefault("_step_flat_cache", {})
    key = (names, eng._field_range)
    hit = memo.get(key)
    if hit is not None:
        return hit
    doc_parts, b_parts, e_parts = [], [], []
    for fname in names:
        fdocs, fstarts, fb, fe = eng._field_csr(fname)[:4]
        if len(fdocs):
            doc_parts.append(np.repeat(fdocs, np.diff(fstarts)))
            b_parts.append(fb)
            e_parts.append(fe)
    if not doc_parts:
        z = np.empty(0, np.int64)
        out = (z, z.copy(), z.copy())
    else:
        d = np.concatenate(doc_parts)
        b = np.concatenate(b_parts)
        e = np.concatenate(e_parts)
        order = np.lexsort((-e, b, d))
        out = (d[order], b[order], e[order])
    memo[key] = out
    return out


def _nested_chain_global(eng: StructuredQueryEngine, steps: tuple) -> tuple:
    """INNERMOST extents of a NEXI path chain ``//s1//s2//…//sn`` plus
    their statistics context, memoized on the reader per steps key.

    Extents: the chain lowers to nested NestedExtentInsideNodes — the
    top node pairs ``(…((sn in s(n-1)) in s(n-2))…) in s1`` (field-built
    ExtentInsides take the nested node,
    ref:src/InferenceNetworkBuilder.cpp:230-247) and every level keeps
    an inner extent iff SOME extent of that step contains it.  Because
    each level tests the same INNERMOST extent, the chain is a
    conjunction of per-step containments: an ``sn`` extent survives iff
    each of ``s1…s(n-1)`` has an extent containing it — the steps need
    NOT nest among one another, a property of the nested lowering (NOT
    XPath semantics; pinned by test).

    Context: the annotator assigns the chain node itself as the scored
    clause's statistics context (ref:include/indri/
    ExtentRestrictionModelAnnotatorCopier.hpp:59-66), so backgrounds are
    ContextCountAccumulator counts over the surviving extent LIST — an
    occurrence counts once per position within any (outermost-collapsed)
    surviving extent; context size = Σ raw extent lengths, nested
    double-counted (ref:src/ContextCountAccumulator.cpp:99-143).

    Returns ``(docs_flat, begins, ends, ctx)``; ``ctx`` has the
    :func:`_build_wild_context` 5-tuple shape over the surviving set.
    The memo key carries the engine's pruned doc range (like
    ``_field_csr``'s) so a range-pruned build could never be served to a
    global query on the same reader."""
    memo = eng.r.__dict__.setdefault("_chain_ctx_cache", {})
    key = (steps, eng._field_range)
    hit = memo.get(key)
    if hit is not None:
        return hit
    d, b, e = _step_flat_extents(eng, steps[-1])
    for step in steps[:-1]:
        if not len(d):
            break
        do, bo, eo = _step_flat_extents(eng, step)
        keep = _contained(d, b, e, do, bo, eo)
        d, b, e = d[keep], b[keep], e[keep]
    nz = e > b
    out = (d, b, e, (d[nz], b[nz], e[nz], float((e - b).sum())))
    memo[key] = out
    return out


def run_extents_path(reader, steps, query: str, k: int = 1000,
                     method: str = "dirichlet", mu: float = 2500.0,
                     lam: float = 0.4,
                     doc_range: tuple[int, int] | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """Element retrieval under a NEXI PATH target ``//s1//…//sn[c]`` —
    one result per surviving innermost extent (begin/end = that extent;
    the root restriction emits the field extent,
    ref:src/ExtentRestrictionNode.cpp:48-99), the clause scored per
    extent with ContextCountAccumulator statistics over the chain's
    surviving extent list (:func:`_nested_chain_global`).  ``steps`` is
    one tuple of field names per path step, outermost first; ``None`` =
    the ``*`` wildcard step.  Zero-length extents and extents where the
    clause has no match are skipped (the hasMatch gate); ``doc_range``
    restricts candidates only (statistics stay collection-global), so a
    sharded merge is rank-identical to a global run."""
    eng = _as_engine(reader, method, mu, lam)
    inner = parse_query(query)
    cand = _gather_candidates(eng, (inner,), doc_range)
    if not len(cand):
        return _empties()
    return _score_extents(_element_eval(eng, cand, ("path", steps)),
                          inner, k)


def _spec_flat(eng: StructuredQueryEngine, spec) -> tuple:
    """Two-restriction side spec → ``(flat (d, b, e) global extents,
    _ExtentEval kwargs)``.  Specs: ``("field", name)`` (plain field —
    field-context statistics), ``("ctx", names_or_None)`` (alternative
    list / ``*`` wildcard — ContextCountAccumulator statistics over
    those fields, :func:`_build_wild_context`), ``("path", steps)``
    (NestedExtentInside chain — :func:`_nested_chain_global`).  A bare
    string is ``("field", str)`` shorthand."""
    if isinstance(spec, str):
        spec = ("field", spec)
    kind = spec[0]
    if kind == "field":
        memo = eng.r.__dict__.setdefault("_field_flat_cache", {})
        key = (spec[1], eng._field_range)
        hit = memo.get(key)
        if hit is None:
            fdocs, fstarts, fb, fe = eng._field_csr(spec[1])[:4]
            d = (np.repeat(fdocs, np.diff(fstarts)) if len(fdocs)
                 else np.empty(0, np.int64))
            hit = memo[key] = (d, fb, fe)
        return hit + ({"chain": (spec[1],)},)
    if kind == "ctx":
        d, b, e = _step_flat_extents(eng, spec[1])
        return d, b, e, {"wild": _build_wild_context(eng, spec[1])}
    if kind == "path":
        d, b, e, ctx = _nested_chain_global(eng, tuple(spec[1]))
        return d, b, e, {"wild": ctx}
    raise ValueError(f"unknown restriction spec {spec!r}")


def run_nested_extents(reader, a_spec, c1_query: str, b_spec,
                       c2_query: str, k: int = 1000,
                       method: str = "dirichlet", mu: float = 2500.0,
                       lam: float = 0.4
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]:
    """The NEXI two-restriction form ``//a[c1]//b[c2]`` — the
    ContextInclusionAnd + ExtentEnforcement pair the grammar builds
    (ref:src/nexilang.g:195-203): for every NONZERO-length ``a`` extent
    ``E`` of a candidate document, ``c1`` scores at ``E`` and the
    enforced child scores every ``b`` extent inside ``E``; each
    ``(E, b)`` pair yields one result with score ``score_c1(E) +
    score_c2(b)`` (the inclusion node SUMS the non-preserve children's
    log-beliefs onto each preserved result,
    ref:src/ContextInclusionAndNode.cpp:223-254) and extent = the ``b``
    extent (preserved through the enforcement,
    ref:src/ExtentEnforcementNode.cpp:48-80).

    The enforcement loop skips zero-length ``a`` extents but does NOT
    hasMatch-gate ``c1``; the inner ExtentRestriction gates ``b`` extents
    on ``c2``'s matches and skips zero-length ones
    (ref:src/ExtentRestrictionNode.cpp:58-74).  A ``b`` extent inside two
    nested ``a`` extents is scored once per enclosing ``E``, exactly like
    the reference's per-extent child walk.

    ``a_spec`` / ``b_spec`` take any :func:`_spec_flat` form — a plain
    field name, an alternative list / wildcard ``("ctx", names_or_None)``
    or (``b`` side, from the grammar) a path ``("path", steps)``; the
    enforcement side is always a bare field/wildcard/list because the
    grammar encloses with the FIRST restriction's last FIELD (its path
    prefix dangles, ref:src/nexilang.g:159-183).  Statistics: ``c1``
    draws backgrounds from the ``a`` spec's context, ``c2`` from ``b``'s
    (ExtentEnforcement subclasses ExtentRestriction, so the smoothing
    annotation assigns each clause its restriction's extent-source
    context, ref:include/indri/ExtentRestrictionModelAnnotatorCopier.
    hpp:59-66)."""
    eng = _as_engine(reader, method, mu, lam)
    c1 = parse_query(c1_query)
    c2 = parse_query(c2_query)
    cand = _gather_candidates(eng, (c1, c2))
    if not len(cand):
        return _empties()
    # zero-length a extents are skipped by the enforcement loop and
    # zero-length b extents by the inner restriction; candidates need ≥1
    # (nonzero) a extent and ≥1 b extent
    ev_b = _element_eval(eng, _element_eval(eng, cand, a_spec).cand, b_spec)
    if not ev_b.n_ext:
        return _empties()
    ev_a = _element_eval(eng, ev_b.cand, a_spec)  # the same candidates
    s1 = ev_a.belief(c1)
    s2 = ev_b.belief(c2)
    m2 = ev_b.matches(c2)
    # every (a, b) pair of a doc, a-major: each a extent gathers its doc's
    # b extents and keeps the matching ones it contains
    ai, bj = _take(ev_b.ext_start[ev_a.eidx], ev_b.ext_start[ev_a.eidx + 1])
    keep = (ev_b.eb[bj] >= ev_a.eb[ai]) & (ev_b.ee[bj] <= ev_a.ee[ai]) & m2[bj]
    ai, bj = ai[keep], bj[keep]
    return _rank_extents(ev_b.cand[ev_b.eidx[bj]], ev_b.eb[bj], ev_b.ee[bj],
                         s1[ai] + s2[bj], k)


# ---------------------------------------------------------------------------
# INEX element paths
# ---------------------------------------------------------------------------


def _find_leaf(nodes, children, b: int, e: int) -> int:
    """The reference's greedy containing-leaf descent
    (ref:src/DocumentStructure.cpp:261-286): start at the FIRST top-level
    node, follow the first child whose extent contains ``[b, e]``, repeat.
    Returns 0 (no element) when the walk finds no containing node — the
    reference reads uninitialized tree memory in that case; path "" is our
    defined behavior."""
    top = children.get(0, [])
    if not top:
        return 0
    root = top[0]
    leaf = 0
    if nodes[root][1] <= b and nodes[root][2] >= e:
        leaf = root
    kids = children.get(root, [])
    i = 0
    while i < len(kids):
        c = kids[i]
        if nodes[c][1] <= b and nodes[c][2] >= e:
            leaf = c
            kids = children.get(c, [])
            i = 0
        else:
            i += 1
    return leaf


def _node_path(nodes, children, leaf: int) -> str:
    """``/tag[k]`` chain root→leaf, ``k`` = 1-based position among
    SAME-TYPE siblings under the same parent
    (ref:src/DocumentStructure.cpp:289-330 ``_constructNodePath``)."""
    if leaf <= 0:
        return ""
    chain = []
    cur = leaf
    while cur > 0:
        chain.append(cur)
        cur = nodes[cur][3]
    chain.reverse()
    parts = []
    for node in chain:
        fname, _b, _e, parent = nodes[node]
        same = [s for s in children.get(parent, [])
                if nodes[s][0] == fname]
        parts.append(f"/{fname}[{same.index(node) + 1}]")
    return "".join(parts)


def element_paths(reader, doc_ids, begins, ends) -> list[str]:
    """INEX element paths for result extents — the ``pathNames`` gather
    (ref:src/LocalQueryServer.cpp:443-488): per result, the deepest tag
    node containing the extent, printed as ``/tag[k]`` steps.  Documents
    without tag-tree data (or extents outside the first top-level tree)
    yield ``""`` exactly like the reference's unloaded-structure branch.

    Tag trees are fetched with doc-PRUNED ``field_extents`` reads for the
    result docs only — never the whole-corpus per-field dictionaries (a
    result page touches k docs; the reference likewise loads one doc's
    term-list fields at a time, ref:src/LocalQueryServer.cpp:460-468)."""
    eng = _as_engine(reader, "dirichlet", 2500.0, 0.4)
    ids = np.asarray(doc_ids).tolist()
    uniq = sorted(set(int(d) for d in ids))
    if not uniq:
        return []
    structs: dict[int, tuple | None] = {d: None for d in uniq}
    nodes_by_doc: dict[int, dict[int, tuple[str, int, int, int]]] = {
        d: {} for d in uniq}
    for fname in tuple(eng.r.cfg.fields or ()):
        try:
            t = eng.r.field_extents(fname, doc_ids=uniq)
        except FileNotFoundError:
            continue
        for did, bs, es, os_, ps_ in zip(
                t.column("doc_id").to_pylist(),
                t.column("begins").to_pylist(),
                t.column("ends").to_pylist(),
                t.column("ordinals").to_pylist(),
                t.column("parent_ordinals").to_pylist()):
            nd = nodes_by_doc.get(int(did))
            if nd is None:
                continue
            for b, e, o, p in zip(bs, es, os_, ps_):
                nd[int(o)] = (fname, int(b), int(e), int(p))
    for d, nodes in nodes_by_doc.items():
        if not nodes:
            continue
        children: dict[int, list[int]] = {}
        for o in sorted(nodes):
            children.setdefault(nodes[o][3], []).append(o)
        structs[d] = (nodes, children)
    out = []
    for did, b, e in zip(
            ids, np.asarray(begins).tolist(), np.asarray(ends).tolist()):
        struct = structs.get(int(did))
        if struct is None:
            out.append("")
            continue
        nodes, children = struct
        out.append(_node_path(nodes, children,
                              _find_leaf(nodes, children, int(b), int(e))))
    return out


# ---------------------------------------------------------------------------
# INEX submission formatting
# ---------------------------------------------------------------------------


def format_inex(topics: list[tuple[str, list[tuple[str, str, float]]]],
                participant_id: str = "1", run_id: str = "indri",
                task: str = "CO.Thorough", query_type: str = "automatic",
                topic_part: str = "T", description: str = "") -> str:
    """``<inex-submission>`` XML for ``topics = [(topic_id, [(docno, path,
    score), ...]), ...]`` — byte-shape of the reference's -inex output:
    envelope ref:runquery/IndriRunQuery.cpp:739-745/774-776, topic block
    :506-511/516-518, result block :467-478.  Scores print with C++
    default stream precision (6 significant digits)."""
    lines = [
        f'<inex-submission participant-id="{participant_id}" '
        f'run-id="{run_id}" task="{task}" query="{query_type}" '
        f'topic-part="{topic_part}">',
        "  <description>",
        description,
        "  </description>",
    ]
    for topic_id, results in topics:
        lines.append(f'  <topic topic-id="{topic_id}">')
        lines.append("    <collections>")
        lines.append("      <collection>ieee</collection>")
        lines.append("    </collections>")
        for docno, path, score in results:
            lines.append("    <result>")
            lines.append(f"      <file>{docno}</file>")
            lines.append(f"      <path>{path}</path>")
            lines.append(f"      <rsv>{score:g}</rsv>")
            lines.append("    </result>")
        lines.append("  </topic>")
    lines.append("</inex-submission>")
    return "\n".join(lines) + "\n"
