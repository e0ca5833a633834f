"""Structured query language tests: parser, window counting, operator
semantics vs independent brute-force computation."""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from indri_5_5_ray.pipelines.indriql import (
    Node,
    StructuredQueryEngine,
    _ExtentEval,
    _union,
    ordered_window_extents,
    parse_query,
    unordered_window_extents,
    window_extents,
)


def unordered_window_count(pos_lists, n: int) -> int:
    return len(unordered_window_extents(pos_lists, n)[0])


# -- parser ------------------------------------------------------------------


def test_parse_shapes():
    r = parse_query("#combine(#od2(a b) c)")
    assert r.op == "combine" and len(r.children) == 2
    assert r.children[0].op == "od" and r.children[0].n == 2
    assert [c.term for c in r.children[0].children] == ["a", "b"]
    assert r.children[1].term == "c"

    r = parse_query("#weight(2.0 a 1.5 b)")
    assert r.op == "weight" and r.weights == [2.0, 1.5]

    r = parse_query("#uw8(x y z)")
    assert r.op == "uw" and r.n == 8 and len(r.children) == 3

    r = parse_query("#3(a b)")  # '#N' alias for #odN
    assert r.op == "od" and r.n == 3

    r = parse_query("a b c")  # implicit #combine
    assert r.op == "combine" and len(r.children) == 3

    r = parse_query("pre*")
    assert r.op == "wildcard" and r.term == "pre"


# -- window counting ---------------------------------------------------------


def brute_od(seqs: list[list[int]], n: int) -> int:
    """Independent greedy sweep: for each start in seqs[0], extend with the
    next position of each following term; count if all gaps ≤ n."""
    count = 0
    for start in seqs[0]:
        prev, ok = start, True
        for s in seqs[1:]:
            nxt = next((p for p in s if p > prev), None)
            if nxt is None or nxt - prev > n:
                ok = False
                break
            prev = nxt
        count += ok
    return count


@pytest.mark.parametrize(
    "seqs,n",
    [
        ([[0, 5], [1, 6]], 1),
        ([[0, 2, 4], [1, 3, 5]], 1),
        ([[0], [10]], 5),
        ([[0, 1, 2], [3], [4]], 2),
        ([[3, 9, 15], [4, 16], [5, 17]], 1),
        ([[0, 7], [1, 8], [2, 9]], 3),
    ],
)
def test_ordered_window_matches_brute(seqs, n):
    pls = [np.array(s) for s in seqs]
    assert len(ordered_window_extents(pls, n)[0]) == brute_od(seqs, n)


def test_unordered_window():
    # smallest-window-per-anchor (ref UnorderedWindowNode): term extents are
    # [p, p+1), window fits when end - begin <= n
    a = np.array([0, 10])
    b = np.array([2, 50])
    assert unordered_window_count([a, b], 4) == 1   # anchor 0: span [0,3) fits
    assert unordered_window_count([a, b], 2) == 0   # (2+1)-0 = 3 > 2
    assert unordered_window_count([a, b], 3) == 1
    # anchors are ALL member occurrences (order-symmetric), one per start
    assert unordered_window_count([np.array([0, 1]), np.array([2])], 3) == 2
    assert unordered_window_count([np.array([2]), np.array([0, 1])], 3) == 2


# -- engine semantics vs corpus ----------------------------------------------


@pytest.fixture(scope="module")
def engine(built_index):
    from indri_5_5_ray.pipelines.query import IndexReader

    out, _ = built_index
    return StructuredQueryEngine(IndexReader(out))


def test_combine_equals_lm(engine, built_index):
    from indri_5_5_ray.pipelines.lm import LMScorer, process_query_lm
    from indri_5_5_ray.pipelines.query import IndexReader

    out, _ = built_index
    r = IndexReader(out)
    lm = LMScorer(r)
    ids1, s1 = engine.run("#combine(merge token buffer)", k=20)
    ids2, s2 = lm.score(process_query_lm("merge token buffer", r.cfg), k=20)
    assert ids1.tolist() == ids2.tolist()
    np.testing.assert_allclose(s1, s2, rtol=1e-12)


def test_operator_identities(engine):
    # single-child identities: #max(t) == #or(t) == #combine(t) == t-belief
    base_ids, base = engine.run("#combine(merge)", k=15)
    for q in ["#max(merge)", "#or(merge)"]:
        ids, s = engine.run(q, k=15)
        assert ids.tolist() == base_ids.tolist()
        np.testing.assert_allclose(s, base, rtol=1e-9)
    # #weight with equal weights == #combine
    ids_w, s_w = engine.run("#weight(1.0 merge 1.0 token)", k=15)
    ids_c, s_c = engine.run("#combine(merge token)", k=15)
    assert ids_w.tolist() == ids_c.tolist()
    np.testing.assert_allclose(s_w, s_c, rtol=1e-12)


def test_not_is_complement(engine):
    ids, s = engine.run("#not(merge)", k=5)
    assert len(ids) and (s < 0).all()
    # docs scoring LOWEST on the term score HIGHEST on #not
    ids_t, _ = engine.run("#combine(merge)", k=10_000)
    assert ids[0] == ids_t[-1] or len(ids_t) < 10_000


def test_od_window_against_tokenized_corpus(engine, small_corpus_dir, built_index):
    """Window counts must equal a direct scan of the tokenized docs."""
    import pyarrow.parquet as pq

    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.stages.ingest import TermProcessor
    from indri_5_5_ray.tokenizer import tokenize
    from indri_5_5_ray.sources.corpus import corpus_files

    out, _ = built_index
    reader = IndexReader(out)
    proc = TermProcessor(reader.cfg)
    # reconstruct term sequences (first arrival only, sha dedup)
    import hashlib

    seqs = {}
    seen = set()
    did = 0
    for f in corpus_files(small_corpus_dir):
        for row in pq.read_table(f).to_pylist():
            d, did = did, did + 1
            sha = hashlib.sha256(row["content"].encode()).hexdigest()
            if sha in seen:
                continue
            seen.add(sha)
            seqs[d] = [proc.process(t) for t in tokenize(row["content"])]

    eng = engine
    root = parse_query("#combine(#od1(return 0))")
    # use engine internals to get per-candidate counts
    leaf = root.children[0]
    terms = set()
    eng._leaf_terms(root, terms)
    eng._postings = eng._fetch_postings(sorted(terms))
    if not eng._postings:
        pytest.skip("terms absent from corpus")
    cand = np.unique(np.concatenate([tp[0] for tp in eng._postings.values()]))
    counts = _ExtentEval.documents(eng, cand).counts(leaf)

    for i, d in enumerate(cand.tolist()):
        toks = seqs[d]
        pos_a = [j for j, t in enumerate(toks) if t == "return"]
        pos_b = [j for j, t in enumerate(toks) if t == "0"]
        want = brute_od([pos_a, pos_b], 1) if pos_a and pos_b else 0
        assert counts[i] == want, f"doc {d}"


def test_wildcard_expansion(engine):
    terms = engine._expand_wildcard("bu")  # buffer, build, ...
    assert terms and all(t.startswith("bu") for t in terms)
    assert len(terms) <= 100
    ids, s = engine.run("#combine(bu*)", k=5)
    assert len(ids)


def test_wsum_band_syn(engine, small_corpus_dir, built_index):
    import hashlib

    import pyarrow.parquet as pq

    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.sources.corpus import corpus_files
    from indri_5_5_ray.stages.ingest import TermProcessor
    from indri_5_5_ray.tokenizer import tokenize

    # #wsum single child == the child belief (log of a weighted mean of one)
    base_ids, base = engine.run("#combine(merge)", k=15)
    ids, s = engine.run("#wsum(1.0 merge)", k=15)
    assert ids.tolist() == base_ids.tolist()
    np.testing.assert_allclose(s, base, rtol=1e-9)
    # #wsum(p, p) == p for identical children regardless of weights
    ids2, s2 = engine.run("#wsum(2.0 merge 3.0 merge)", k=15)
    assert ids2.tolist() == base_ids.tolist()
    np.testing.assert_allclose(s2, base, rtol=1e-9)

    # #band and #syn counts vs direct tokenization
    out, _ = built_index
    reader = IndexReader(out)
    proc = TermProcessor(reader.cfg)
    seqs, seen, did = {}, set(), 0
    for f in corpus_files(small_corpus_dir):
        for row in pq.read_table(f).to_pylist():
            d, did = did, did + 1
            sha = hashlib.sha256(row["content"].encode()).hexdigest()
            if sha in seen:
                continue
            seen.add(sha)
            seqs[d] = [proc.process(t) for t in tokenize(row["content"])]

    for query, kind in [("#band(merge token)", "band"), ("#syn(merge token)", "syn")]:
        root = parse_query(f"#combine({query})")
        leaf = root.children[0]
        terms = set()
        engine._leaf_terms(root, terms)
        engine._postings = engine._fetch_postings(sorted(terms))
        cand = np.unique(np.concatenate([tp[0] for tp in engine._postings.values()]))
        counts = _ExtentEval.documents(engine, cand).counts(leaf)
        for i, d in enumerate(cand.tolist()):
            pos_a = {j for j, t in enumerate(seqs[d]) if t == "merge"}
            pos_b = {j for j, t in enumerate(seqs[d]) if t == "token"}
            if kind == "band":
                want = 1.0 if pos_a and pos_b else 0.0
            else:
                want = float(len(pos_a | pos_b))
            assert counts[i] == want, f"{kind} doc {d}"


_member_lists = st.lists(
    st.lists(st.integers(0, 30), max_size=8).map(
        lambda xs: np.unique(np.asarray(xs, dtype=np.int64))),
    min_size=1, max_size=4)


def _flat_members(docs):
    """Per-doc member position lists -> one flat unit extent set
    ``(d, p, p + 1)`` per member, the shape :func:`window_extents` takes."""
    members = []
    for t in range(len(docs[0])):
        dd = np.concatenate([np.full(len(d[t]), i, np.int64)
                             for i, d in enumerate(docs)])
        p = np.concatenate([np.asarray(d[t], np.int64) for d in docs])
        members.append((dd, p, p + 1))
    return members


def test_batch_window_kernels_match_per_doc():
    """The flat #odN kernel and the #syn union are count-identical, per
    doc, to the per-doc reference algorithms on random position data."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(1, 6))
        docs = []
        for _ in range(int(rng.integers(1, 8))):
            docs.append([
                np.unique(rng.integers(0, 40, size=int(rng.integers(1, 12))))
                for _ in range(k)
            ])
        members = _flat_members(docs)
        got = np.bincount(window_extents("od", n, members)[0],
                          minlength=len(docs))
        want = np.array([len(ordered_window_extents(d, n)[0]) for d in docs])
        assert np.array_equal(got, want)
        su = np.bincount(_union(members)[0], minlength=len(docs))
        wu = np.array([len(set().union(*[set(p.tolist()) for p in d]))
                       for d in docs])
        assert np.array_equal(su, wu)


def test_uw_flat_formula_matches_reference_scan():
    """The flat #uwN kernel equals the reference's per-doc anchor scan on
    disjoint member position lists (distinct terms — a token position
    holds one term)."""
    rng = np.random.default_rng(17)
    for _ in range(300):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 8))
        # disjoint position lists (sampled without replacement then split)
        pool = rng.choice(60, size=int(rng.integers(k, 25)), replace=False)
        splits = (np.sort(rng.choice(len(pool), size=k - 1, replace=False))
                  if len(pool) > k else np.arange(1, k))
        lists = [np.sort(x) for x in np.split(np.sort(pool), splits)]
        if any(len(x) == 0 for x in lists):
            continue
        want = unordered_window_count(lists, n)
        got = len(window_extents("uw", n, _flat_members([lists]))[0])
        assert got == want, (lists, n)


@settings(max_examples=300, deadline=None)
@given(docs=st.lists(_member_lists, min_size=1, max_size=4),
       n=st.integers(0, 9), repeat=st.booleans(), op=st.sampled_from(
           ["od", "uw"]))
def test_window_kernel_matches_scalar_references(docs, n, repeat, op):
    """The flat #odN/#uwN kernel gives, per doc and in order, exactly the
    extents of the per-doc reference sweeps — including repeated members
    (``#uw8(a a b)``) and members whose positions overlap (``#syn``
    members sharing positions with another member)."""
    k = min(len(d) for d in docs)
    docs = [[d[0]] + d[:k - 1] if repeat else d[:k] for d in docs]
    members = _flat_members(docs)
    ref = ordered_window_extents if op == "od" else unordered_window_extents
    want = []
    for i, d in enumerate(docs):
        if all(len(pl) for pl in d):
            want += [(i, b, e) for b, e in zip(*ref(d, n))]
    got = window_extents(op, n, members)
    assert list(zip(*(x.tolist() for x in got))) == want


@pytest.fixture(scope="module")
def tinyblock_engine(small_corpus_dir, tmp_path_factory):
    """Index built with tiny posting blocks so common terms get many
    blocks per row — exercises the per-block doc_set pruning path."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader

    out = str(tmp_path_factory.mktemp("tinyblk") / "idx")
    cfg = IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key="sha256",
                      target_block_bytes=64)
    build_index(small_corpus_dir, out, cfg, resume=False)
    return StructuredQueryEngine(IndexReader(out))


def test_fetch_postings_block_pruning_exact(tinyblock_engine):
    """doc_set fetch prunes blocks WITHIN a row (not just whole rows) and
    the surviving postings are exactly the full fetch restricted to the
    blocks containing the requested docs."""
    eng = tinyblock_engine
    terms = [t for t in ("merge", "buffer", "the", "data")
             if eng.r.term_rows([t]).num_rows]
    assert terms, "corpus lost its common terms?"
    rows = eng.r.term_rows(terms)
    nblocks = [len(b) for b in rows.column("block_last_doc").to_pylist()]
    assert max(nblocks) >= 3, f"tiny blocks did not split rows: {nblocks}"

    full = eng._fetch_postings(terms)
    # a few scattered ids (sparser than the block width so blocks DO
    # drop), plus an absent id
    base = full[terms[0]][0]
    doc_set = base[::41].tolist() + [int(base[-1]) + 999]
    pruned = eng._fetch_postings(terms, doc_set=doc_set)
    want = np.unique(np.asarray(doc_set, dtype=np.int64))

    for t in terms:
        d_f, tf_f, fl_f, st_f = full[t]
        d_p, tf_p, fl_p, st_p = pruned[t]
        # every requested doc present in the full list must survive with
        # identical tf and positions
        req = d_f[np.isin(d_f, want)]
        assert np.isin(req, d_p).all()
        # pruned docs are a subset of full (no invented postings)
        assert np.isin(d_p, d_f).all()
        idx_f = np.searchsorted(d_f, req)
        idx_p = np.searchsorted(d_p, req)
        assert np.array_equal(tf_f[idx_f], tf_p[idx_p])
        for jf, jp in zip(idx_f, idx_p):
            assert np.array_equal(fl_f[st_f[jf]:st_f[jf + 1]],
                                  fl_p[st_p[jp]:st_p[jp + 1]])
    # and it actually pruned: the commonest term's pruned doc list is
    # strictly smaller than the full one (many blocks dropped)
    assert len(pruned[terms[0]][0]) < len(full[terms[0]][0])


def test_read_term_rows_doc_range_prune_exact(tinyblock_engine):
    """_read_term_rows(terms, doc_range) must contain every row of the
    unrestricted fetch that intersects the range (the rg-stats prune may
    keep extra row groups, never drop an intersecting one)."""
    r = tinyblock_engine.r
    terms = ["merge", "buffer"]
    full = r._read_term_rows(terms)
    lo, hi = 40, 120
    pruned = r._read_term_rows(terms, (lo, hi))
    keep = [i for i in range(full.num_rows)
            if full.column("last_doc")[i].as_py() >= lo
            and full.column("first_doc")[i].as_py() < hi]
    want = full.take(keep)
    have = {(t, s, f) for t, s, f in zip(
        pruned.column("term").to_pylist(),
        pruned.column("salt").to_pylist(),
        pruned.column("first_doc").to_pylist())}
    for t, s, f in zip(want.column("term").to_pylist(),
                       want.column("salt").to_pylist(),
                       want.column("first_doc").to_pylist()):
        assert (t, s, f) in have


# -- count characterization: brute force over a fielded random corpus --------

_VOCAB = ["alpha", "beta", "gamma", "delta"]


def _fielded_docs(n_docs: int = 150, seed: int = 5):
    """Random docs over a 4-word vocabulary with a leading <title> extent
    and one or two <sec> extents (a sec may enclose the title).  Returns
    (contents, token lists, {field: per-doc [(begin, end), ...]})."""
    rng = np.random.default_rng(seed)
    contents, toks, ext = [], [], {"title": [], "sec": []}
    for _ in range(n_docs):
        n = int(rng.integers(4, 24))
        words = [_VOCAB[i] for i in rng.integers(0, 4, size=n)]
        title = [(0, int(rng.integers(2, min(n, 5) + 1)))] if rng.random() < 0.7 else []
        secs = []
        if rng.random() < 0.8:
            # a sec encloses the title or starts after it
            lo = 0 if rng.random() < 0.5 else int(rng.integers(0, n - 1))
            if title and lo < title[0][1]:
                lo = 0
            hi = int(rng.integers(max(lo + 1, title[0][1] if title else 0),
                                  n + 1))
            secs.append((lo, hi))
            if hi < n - 1 and rng.random() < 0.5:
                secs.append((int(rng.integers(hi, n - 1)), n))
        opens = {p: [] for p in range(n + 1)}
        closes = {p: [] for p in range(n + 1)}
        for name, spans in (("sec", secs), ("title", title)):
            for b, e in spans:
                opens[b].append(name)       # sec opens before title
                closes[e].insert(0, name)   # title closes before sec
        parts = []
        for p in range(n + 1):
            parts += [f"</{f}>" for f in closes[p]]
            parts += [f"<{f}>" for f in opens[p]]
            if p < n:
                parts.append(words[p])
        contents.append(" ".join(parts))
        toks.append(words)
        ext["title"].append(title)
        ext["sec"].append(secs)
    return contents, toks, ext


@pytest.fixture(scope="module")
def fielded(tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.query import IndexReader

    contents, toks, ext = _fielded_docs()
    d = tmp_path_factory.mktemp("fielded")
    (d / "corpus").mkdir()
    pq.write_table(pa.table({
        "repo": ["r"] * len(contents),
        "path": [f"d{i}.txt" for i in range(len(contents))],
        "commit": [f"c{i}" for i in range(len(contents))],
        "lang": ["txt"] * len(contents),
        "content": contents,
    }), d / "corpus" / "corpus.parquet")
    out = str(d / "idx")
    build_index(str(d / "corpus"), out,
                IndexConfig(stemmer=None, dedup_key=None, n_buckets=4,
                            max_chunk_docs=64, fields=("title", "sec")),
                resume=False)
    return StructuredQueryEngine(IndexReader(out)), toks, ext


def _inside(spans, b, e) -> bool:
    return any(fb <= b and e <= fe for fb, fe in spans)


def _brute_extents(node, words, ext_d):
    """Match extents of a count node in one doc, by direct scan."""
    from indri_5_5_ray.pipelines.indriql import (
        ordered_window_extents,
        unordered_window_extents,
    )

    if node.op == "term":
        return [(p, p + 1) for p, w in enumerate(words) if w == node.term]
    if node.op == "syn":
        return sorted({x for c in node.children
                       for x in _brute_extents(c, words, ext_d)})
    if node.op == "restrict":
        return [(b, e) for b, e in _brute_extents(node.children[0], words,
                                                  ext_d)
                if _inside(ext_d[node.term], b, e)]
    lists = [np.array([b for b, _ in _brute_extents(c, words, ext_d)],
                      dtype=np.int64) for c in node.children]
    find = ordered_window_extents if node.op == "od" else \
        unordered_window_extents
    if any(not len(pl) for pl in lists):
        return []
    return list(zip(*find(lists, node.n)))


_SHAPES = [
    ("#od1(#syn(alpha gamma) beta)", ()),
    ("#uw8(alpha alpha beta)", ()),
    ("#uw4(#syn(alpha beta) beta)", ()),
    ("#syn(alpha.title beta)", ()),
    ("#od1(alpha beta).sec", ("title",)),  # #combine[title](#od1(a b).sec)
]


@pytest.mark.parametrize("query,rf", _SHAPES)
@pytest.mark.parametrize("passage", [None, (4, 2)])
def test_count_shapes_match_brute_force(fielded, query, rf, passage):
    """Per-document and per-passage counts of the count shapes that mix
    synonyms, repeated members, restricted members and restriction
    chains equal a direct scan of the token streams and field extents."""
    from indri_5_5_ray.pipelines.indriql import _ExtentEval

    eng, toks, ext = fielded
    node = parse_query(query)
    terms: set[str] = set()
    eng._leaf_terms(node, terms)
    eng._postings = eng._fetch_postings(sorted(terms))
    cand = np.arange(len(toks), dtype=np.int64)
    ev = _ExtentEval.documents(eng, cand, eng.r.doc_lens(cand))
    if passage is not None:
        ev = ev.passages(Node(op="passage", n=passage[0],
                              weights=[float(passage[1])]))
    got = ev.counts(node, rf)
    want = []
    for d, words in enumerate(toks):
        ext_d = {f: ext[f][d] for f in ext}
        matches = [(b, e) for b, e in _brute_extents(node, words, ext_d)
                   if all(_inside(ext_d[f], b, e) for f in rf)]
        if passage is None:
            want.append(len(matches))
            continue
        width, stride = passage
        for wb in range(0, len(words), stride):
            we = min(wb + width, len(words))
            want.append(sum(wb <= b and e <= we for b, e in matches))
    assert got.tolist() == [float(x) for x in want]
