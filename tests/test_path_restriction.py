"""Tag-tree nesting operators: per-doc ordinals/parent ordinals at ingest
(``extract_extents_tree``) and the ``[.path]`` extent restriction — child
``/f``, descendant ``//f``, parent ``\\f`` and inside ``{f`` steps
(ref:src/indrilang.g:690-741, ref:src/ExtentChildNode.cpp,
ref:src/ExtentParentNode.cpp, ref:src/ExtentDescendantNode.cpp) — checked
against hand-computed dirichlet beliefs."""

from __future__ import annotations

import math

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

MU = 2500.0

DOCS = [
    "<sec><title>alpha beta</title> gamma <p>alpha</p></sec>",
    "<title>alpha</title> <sec>beta gamma</sec>",
    "<sec><p><title>alpha</title></p> beta</sec>",
    "alpha beta",
]
DL = [4, 3, 2, 2]
TITLE_LEN = {0: 2, 1: 1, 2: 1, 3: 0}
TITLE_TOTAL = 4.0
P_LEN = {0: 1, 1: 0, 2: 1, 3: 0}
P_TOTAL = 2.0


def _dir(c, dl, cf, total):
    p_c = cf / total if cf > 0 else 1.0 / (2.0 * total)
    return math.log((c + MU * p_c) / (dl + MU))


def test_extract_extents_tree_ordinals():
    from indri_5_5_ray.fields import extract_extents_tree, tokenize_bytes_events

    toks, events = tokenize_bytes_events(DOCS[0].encode())
    tree = extract_extents_tree(events, len(toks), ("sec", "title", "p"))
    # global ordinals: begin asc, end desc, open order
    assert tree["sec"] == [(0, 4, 0, 1, 0)]
    assert tree["title"] == [(0, 2, 0, 2, 1)]
    assert tree["p"] == [(3, 4, 0, 3, 1)]

    toks2, events2 = tokenize_bytes_events(DOCS[2].encode())
    tree2 = extract_extents_tree(events2, len(toks2), ("sec", "title", "p"))
    # identical spans (p and title both cover token 0): open order breaks
    # the tie, so p is the title's parent, sec the p's parent
    assert tree2["sec"] == [(0, 2, 0, 1, 0)]
    assert tree2["p"] == [(0, 1, 0, 2, 1)]
    assert tree2["title"] == [(0, 1, 0, 3, 2)]


@pytest.fixture(scope="module")
def nested_index(tmp_path_factory):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    d = tmp_path_factory.mktemp("nestidx")
    corpus = d / "corpus"
    corpus.mkdir()
    t = pa.table({
        "repo": ["r"] * len(DOCS),
        "path": [f"d{i}.txt" for i in range(len(DOCS))],
        "commit": [f"c{i}" for i in range(len(DOCS))],
        "lang": ["txt"] * len(DOCS),
        "content": DOCS,
    })
    pq.write_table(t, corpus / "corpus.parquet")
    out = str(d / "idx")
    cfg = IndexConfig(stemmer=None, dedup_key=None, n_buckets=4,
                      max_chunk_docs=64, fields=("sec", "title", "p"))
    build_index(str(corpus), out, cfg, resume=False)
    return out


def _engine(nested_index):
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader

    return StructuredQueryEngine(IndexReader(nested_index))


def _scores(eng, q, k=10) -> dict[int, float]:
    ids, sc = eng.run(q, k=k)
    return dict(zip(ids.tolist(), sc.tolist()))


def test_ordinals_stored(nested_index):
    from indri_5_5_ray.pipelines.query import IndexReader

    t = IndexReader(nested_index).field_extents("title")
    assert "ordinals" in t.column_names and "parent_ordinals" in t.column_names
    by_doc = {d: (o, p) for d, o, p in zip(
        t.column("doc_id").to_pylist(), t.column("ordinals").to_pylist(),
        t.column("parent_ordinals").to_pylist())}
    assert by_doc[0] == ([2], [1])   # title child of sec
    assert by_doc[1] == ([1], [0])   # top-level title
    assert by_doc[2] == ([3], [2])   # title child of p (inside sec)


def test_child_restriction(nested_index):
    eng = _engine(nested_index)
    got = _scores(eng, "#combine[sec](#combine[./title](alpha))")
    # title extents that are tree CHILDREN of a sec extent: only doc 0
    # (doc 2's title's parent is p); cf = 1, context = title field stats
    cnt = {0: 1, 1: 0, 2: 0, 3: 0}
    want = {d: _dir(cnt[d], TITLE_LEN[d], 1.0, TITLE_TOTAL) for d in cnt}
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_descendant_restriction(nested_index):
    eng = _engine(nested_index)
    got = _scores(eng, "#combine[sec](#combine[.//title](alpha))")
    # descendants: docs 0 and 2 (doc 1's title is OUTSIDE its sec)
    cnt = {0: 1, 1: 0, 2: 1, 3: 0}
    want = {d: _dir(cnt[d], TITLE_LEN[d], 2.0, TITLE_TOTAL) for d in cnt}
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_inside_restriction_matches_descendant_here(nested_index):
    eng = _engine(nested_index)
    got = _scores(eng, "#combine[sec](#combine[.{title](alpha))")
    want = _scores(eng, "#combine[sec](#combine[.//title](alpha))")
    assert got == want


def test_parent_restriction(nested_index):
    eng = _engine(nested_index)
    got = _scores(eng, "#combine[title](#combine[.\\p](alpha))")
    # p extents that are the tree PARENT of a title extent: doc 2's p
    # (doc 0's title's parent is sec); context = p field stats
    cnt = {0: 0, 1: 0, 2: 1, 3: 0}
    want = {d: _dir(cnt[d], P_LEN[d], 1.0, P_TOTAL) for d in cnt}
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_path_without_context_raises(nested_index):
    eng = _engine(nested_index)
    with pytest.raises(ValueError, match="outer context"):
        eng.run("#combine[./title](alpha)", k=5)


def test_window_inside_path_restriction(nested_index):
    """#odN under a [.path] context: window extents must be contained in
    the path-matched extents (ExtentRestriction over a window node)."""
    eng = _engine(nested_index)
    got = _scores(eng, "#combine[sec](#combine[./title](#od1(alpha beta)))")
    # adjacent 'alpha beta' inside a title that is a CHILD of sec: doc 0
    # only (doc 1's title is outside sec and holds only 'alpha'; doc 2's
    # title is a child of p)
    cnt = {0: 1, 1: 0, 2: 0, 3: 0}
    want = {d: _dir(cnt[d], TITLE_LEN[d], 1.0, TITLE_TOTAL) for d in cnt}
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_path_restriction_sharded(nested_index):
    """Path-restricted queries through the doc-partitioned scatter match
    the single-process run bitwise (field caches + tree walks per shard)."""
    import numpy as np

    from indri_5_5_ray.pipelines.run import run_queries_sharded

    eng = _engine(nested_index)
    q = "#combine[sec](#combine[.//title](alpha))"
    ids, sc = eng.run(q, k=10)
    t = run_queries_sharded(nested_index, [("1", q)], k=10, n_shards=2,
                            concurrency=2, kind="structured")
    assert t.column("doc_id").to_pylist() == ids.tolist()
    np.testing.assert_array_equal(t.column("score").to_numpy(), sc)


# ---------------------------------------------------------------------------
# differential property test: the flat path-step kernel vs a per-document
# brute-force walker over random nested tag trees
# ---------------------------------------------------------------------------

TREE_FIELDS = ("sec", "p", "title")
_REL = {"/": "child", "//": "desc", "\\": "parent", "{": "inside"}



@st.composite
def _trees(draw, depth: int = 0):
    """A tag tree node ``(field, children)`` or a word list; deep trees
    are likely, so descendant steps jump several levels."""
    if depth >= 5 or draw(st.integers(0, 3)) == 0:
        return draw(st.lists(st.sampled_from(["w", "x"]), max_size=2))
    return (draw(st.sampled_from(TREE_FIELDS)),
            [draw(_trees(depth + 1)) for _ in range(draw(st.integers(0, 2)))])


_paths = st.lists(st.tuples(st.sampled_from(sorted(_REL)),
                            st.sampled_from(TREE_FIELDS)),
                  min_size=1, max_size=3)


def _render(node) -> str:
    if isinstance(node, list):
        return " ".join(node)
    tag, kids = node
    return f"<{tag}> " + " ".join(_render(k) for k in kids) + f" </{tag}>"


def _doc_extents(docs: list) -> list[dict]:
    """Per doc: field → [(begin, end, ordinal, parent)] in stored order,
    through the ingest rule (``extract_extents_tree``)."""
    from indri_5_5_ray.fields import extract_extents_tree, tokenize_bytes_events

    out = []
    for doc in docs:
        toks, events = tokenize_bytes_events(
            " ".join(_render(n) for n in doc).encode())
        tree = extract_extents_tree(events, len(toks), TREE_FIELDS)
        out.append({f: [(b, e, o, p) for b, e, _n, o, p in rows]
                    for f, rows in tree.items()})
    return out


class _TreeEngine:
    """The engine's path kernel over in-memory field tables (the
    ``_field_csr`` layout), no index needed."""

    def __init__(self, exts: list[dict]):
        import types

        import numpy as np

        from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine

        self.r = types.SimpleNamespace(
            cfg=types.SimpleNamespace(fields=TREE_FIELDS))
        self._field_range = None
        self._csr = {}
        for f in TREE_FIELDS:
            docs = [d for d, x in enumerate(exts) if x.get(f)]
            rows = [r for d in docs for r in exts[d][f]]
            cols = np.array(rows, np.int64).reshape(-1, 4).T
            starts = np.cumsum([0] + [len(exts[d][f]) for d in docs])
            self._csr[f] = (np.array(docs, np.int64), starts, *cols,
                            np.zeros(len(rows), np.int64))
        self.path_extents = StructuredQueryEngine._path_extents.__get__(self)
        self._parent_table = StructuredQueryEngine._parent_table.__get__(self)

    def _field_csr(self, fname):
        return self._csr[fname]


def _walk(doc: dict, anchors: list, steps) -> list:
    """Brute-force per-document path walk from anchor extents."""
    parent = {o: p for rows in doc.values() for _b, _e, o, p in rows}
    cur = anchors
    for op, fname in steps:
        rel, keep = _REL[op], []
        for x in doc.get(fname, []):
            b, e, o, p = x
            if rel == "child":
                ok = any(p == c[2] for c in cur)
            elif rel == "parent":
                ok = any(o == c[3] for c in cur)
            elif rel == "inside":
                ok = any(c[0] <= b and e <= c[1] for c in cur)
            else:
                ups, a = set(), p
                while a > 0:
                    ups.add(a)
                    a = parent[a]
                ok = any(c[2] in ups for c in cur)
            if ok:
                keep.append(x)
        cur = keep
    return cur


def _flat(groups, gdoc):
    """``(group, begin, end, ordinal, parent)`` anchor arrays."""
    import numpy as np

    rows = [(g,) + x for g, xs in enumerate(groups) for x in xs]
    return tuple(np.array(rows, np.int64).reshape(-1, 5).T)


_DEEP = ("sec", [("p", [("sec", [("title", [["w"]])]), ("title", [])])])


@settings(max_examples=200, deadline=None)
@given(docs=st.lists(st.lists(_trees(), min_size=1, max_size=3), min_size=1,
                     max_size=4),
       steps=_paths, anchor=st.sampled_from(TREE_FIELDS))
@example(docs=[[_DEEP, _DEEP]], steps=[("//", "title")], anchor="sec")
@example(docs=[[_DEEP]], steps=[("\\", "sec"), ("\\", "p")], anchor="title")
@example(docs=[[_DEEP], [_DEEP]], steps=[("{", "title")], anchor="sec")
def test_path_kernel_matches_per_doc_walk(docs, steps, anchor):
    import numpy as np

    exts = _doc_extents(docs)
    eng = _TreeEngine(exts)
    spec = "." + "".join(op + f for op, f in steps)
    # grouping 1: one group per document, anchored at all its extents of
    # the anchor field (a restriction chain's candidates)
    gdoc = np.arange(len(exts), dtype=np.int64)
    groups = [x.get(anchor, []) for x in exts]
    got = eng.path_extents(spec, gdoc, _flat(groups, gdoc))
    want = _flat([_walk(x, a, steps) for x, a in zip(exts, groups)], gdoc)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    # grouping 2: one group per anchor extent — nested anchors overlap
    # (the support-path clause's outer extents)
    per = [(d, x) for d, xs in enumerate(groups) for x in xs]
    gdoc = np.array([d for d, _x in per], np.int64)
    got = eng.path_extents(spec, gdoc, _flat([[x] for _d, x in per], gdoc))
    want = _flat([_walk(exts[d], [x], steps) for d, x in per], gdoc)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
