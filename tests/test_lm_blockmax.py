"""LM scoring has one path: the exhaustive union DAAT of ``LMScorer``.

* ``LMScorer.score``/``score_weighted`` must equal, bit for bit, a
  plain-Python reference that decodes every block on its own, builds each
  candidate's tf from dicts, takes each child's log-belief with one
  ``np.log`` over the candidate array and adds the children left to right
  in query order.
* A structured ``#combine`` of plain terms must score like ``LMScorer``
  bit for bit, and a plain-term ``#combine``/``#weight`` root must score
  the same with and without a ``doc_set`` that holds every doc id.

The ``blockmax`` test names are the cases the deleted block-max cell skip
was pinned on; each now pins the one exhaustive path.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
from indri_5_5_ray.pipelines.lm import LMScorer, process_query_lm
from indri_5_5_ray.pipelines.query import IndexReader

QUERIES = [
    "merge",
    "merge buffer token",
    "the a of and data",          # stop-heavy / very common terms
    "merge merge buffer",          # duplicate child
    "merge zzzzunseenterm",        # unseen term → background-only child
    "index table row sort group window",
]


class _Reference:
    """Plain-Python LM over the raw posting files of one index."""

    def __init__(self, index_dir: str):
        from indri_5_5_ray.codec import decode_block
        from indri_5_5_ray.pipelines.query import read_manifest

        self.total = float(read_manifest(index_dir)["total_terms"])
        docs = pq.read_table(Path(index_dir, "docs"), columns=["doc_id", "dl"])
        self.dl = dict(zip(docs.column("doc_id").to_pylist(),
                           docs.column("dl").to_pylist()))
        self.post: dict[str, dict[int, int]] = {}
        self.cf: dict[str, int] = {}
        for f in sorted(Path(index_dir, "postings").glob("*.arrow")):
            for row in pa.ipc.open_file(f).read_all().to_pylist():
                t = row["term"]
                self.cf[t] = self.cf.get(t, 0) + row["cf"]
                first = row["first_doc"]
                for off, ln, last, nb in zip(
                        row["block_offset"], row["block_length"],
                        row["block_last_doc"], row["block_n_docs"]):
                    ids, tfs, _ = decode_block(
                        row["postings"][off:off + ln], first, nb, False)
                    self.post.setdefault(t, {}).update(
                        zip(ids.tolist(), tfs.tolist()))
                    first = last + 1

    def score(self, term_weights, k, method="dirichlet", mu=2500.0, lam=0.4,
              mean_of=None, doc_range=None, deleted=()):
        lo, hi = doc_range or (0, 1 << 62)
        cand = sorted({d for t, _ in term_weights for d in self.post.get(t, ())
                       if lo <= d < hi and d not in deleted})
        if not cand:
            return [], np.empty(0)
        dl = np.array([float(self.dl[d]) for d in cand])
        acc = np.zeros(len(cand))
        for term, w in term_weights:
            cf = self.cf.get(term, 0)
            p = cf / self.total if cf > 0 else 1.0 / (2.0 * self.total)
            post = self.post.get(term, {})
            tf = np.array([float(post.get(d, 0)) for d in cand])
            if method == "dirichlet":
                child = np.log((tf + mu * p) / (dl + mu))
            elif method == "two":
                child = np.log((1.0 - lam) * ((tf + mu * p) / (dl + mu))
                               + lam * p)
            else:
                child = np.log((1.0 - lam) * tf / dl + lam * p)
            acc = acc + w * child
        if mean_of:
            acc = acc / mean_of
        ranked = sorted(zip(cand, acc.tolist()), key=lambda x: (-x[1], -x[0]))
        ranked = ranked[:k]
        return [d for d, _ in ranked], np.array([s for _, s in ranked])


def _assert_same(got, want):
    assert got[0].tolist() == list(want[0])
    assert np.array_equal(got[1], np.asarray(want[1], np.float64))  # bitwise


@pytest.fixture(scope="module")
def salted_index(small_corpus_dir, tmp_path_factory):
    """Hot terms have several posting rows and many small blocks."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    out = str(tmp_path_factory.mktemp("lm_salted") / "idx")
    build_index(small_corpus_dir, out,
                IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key="sha256",
                            salt_docs_per_group=64, target_block_bytes=64),
                resume=False)
    return out


@pytest.fixture(scope="module")
def reader(built_index):
    index_dir, _ = built_index
    return IndexReader(index_dir)


@pytest.fixture(scope="module")
def reference(built_index):
    return _Reference(built_index[0])


@pytest.fixture(scope="module")
def salted_reference(salted_index):
    return _Reference(salted_index)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_lm_equals_the_reference(salted_index, salted_reference, data):
    """``score`` (the #combine mean) and ``score_weighted`` (positive and
    negative weights) == the reference with ``np.array_equal``, for every
    smoothing method, over random queries with duplicate children and
    unseen terms, ``doc_range`` shards and an in-memory deleted set."""
    ref = salted_reference
    n_docs = max(ref.dl) + 1
    common = sorted(ref.post, key=lambda t: (-ref.cf[t], t))[:40]
    terms = data.draw(st.lists(st.sampled_from(common), min_size=1,
                               max_size=8))
    terms += data.draw(st.lists(st.sampled_from(
        sorted(ref.post) + ["zzzznotaterm"]), max_size=2))
    if data.draw(st.booleans()):  # a duplicate child counts twice
        terms.insert(data.draw(st.integers(0, len(terms))),
                     data.draw(st.sampled_from(terms)))
    method = data.draw(st.sampled_from(["dirichlet", "jm", "two"]))
    mu = data.draw(st.sampled_from([2500.0, 1000.0]))
    lam = data.draw(st.sampled_from([0.4, 0.7]))
    deleted = data.draw(st.sets(st.integers(0, n_docs - 1), max_size=40))
    doc_range = data.draw(st.none() | st.tuples(
        st.integers(0, n_docs), st.integers(1, n_docs)).map(
            lambda t: (min(t), max(t) + 1)))
    k = data.draw(st.sampled_from([3, 25, 10_000]))

    r = IndexReader(salted_index)
    r.deleted = np.array(sorted(deleted), np.int64)
    sc = LMScorer(r, method=method, mu=mu, lam=lam)
    if data.draw(st.booleans()):
        got = sc.score(terms, k=k, doc_range=doc_range)
        want = ref.score([(t, 1.0) for t in terms], k, method, mu, lam,
                         mean_of=len(terms), doc_range=doc_range,
                         deleted=deleted)
    else:
        weights = data.draw(st.lists(
            st.sampled_from([-1.0, -0.5, 0.25, 0.5, 1.0, 2.0, 3.5]),
            min_size=len(terms), max_size=len(terms)))
        tw = list(zip(terms, weights))
        got = sc.score_weighted(tw, k=k, doc_range=doc_range)
        want = ref.score(tw, k, method, mu, lam, doc_range=doc_range,
                         deleted=deleted)
    _assert_same(got, want)


@pytest.mark.parametrize("method", ["dirichlet", "jm", "two"])
@pytest.mark.parametrize("query", QUERIES)
def test_blockmax_bit_identical(reader, reference, method, query):
    sc = LMScorer(reader, method=method)
    terms = process_query_lm(query, reader.cfg)
    if not terms:
        pytest.skip("query fully stopped")
    for k in (3, 25, 10_000):
        _assert_same(sc.score(terms, k=k),
                     reference.score([(t, 1.0) for t in terms], k, method,
                                     mean_of=len(terms)))


@pytest.mark.parametrize("query", ["merge buffer token", "the a of and data"])
def test_blockmax_cell_local_dl_bit_identical(small_corpus_dir, tmp_path,
                                              query):
    """On a fresh reader of an index built at doc_id base 50M, ``score``
    (candidate lengths gathered from the mapped ``dl`` views) equals the
    reference, and its peak allocation stays far below one O(max_doc_id)
    int32 copy (200 MB here)."""
    import tracemalloc

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    out = str(tmp_path / "sparse")
    build_index(small_corpus_dir, out, IndexConfig(
        max_chunk_docs=64, n_buckets=4, dedup_key="sha256"),
        resume=False, doc_id_base=50_000_000)
    fresh = IndexReader(out)
    sc = LMScorer(fresh, method="dirichlet")
    terms = process_query_lm(query, fresh.cfg)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = sc.score(terms, k=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MB"
    assert len(got[0]) and got[0].min() >= 50_000_000
    _assert_same(got, _Reference(out).score(
        [(t, 1.0) for t in terms], 25, mean_of=len(terms)))


def test_blockmax_weighted_bit_identical(reader, reference):
    tw = [("merge", 2.0), ("buffer", 1.0), ("token", 0.5)]
    _assert_same(LMScorer(reader).score_weighted(tw, k=20),
                 reference.score(tw, 20))


def test_blockmax_negative_weight_falls_back(reader, reference):
    """A negative weight scores like any other weight."""
    tw = [("merge", 1.0), ("buffer", -0.5)]
    _assert_same(LMScorer(reader).score_weighted(tw, k=10),
                 reference.score(tw, 10))


def test_blockmax_respects_deletions(built_index, reference):
    """A document deleted in memory leaves the top-k as the reference
    ranks it without that document."""
    r = IndexReader(built_index[0])
    sc = LMScorer(r)
    terms = process_query_lm("merge buffer", r.cfg)
    ids, _ = sc.score(terms, k=5)
    assert len(ids)
    r.deleted = np.array([int(ids[0])], dtype=np.int64)
    got = sc.score(terms, k=5)
    assert int(ids[0]) not in got[0].tolist()
    _assert_same(got, reference.score([(t, 1.0) for t in terms], 5,
                                      mean_of=len(terms),
                                      deleted={int(ids[0])}))


# -- the structured engine ---------------------------------------------------


def _lm_twin(eng: StructuredQueryEngine, query: str, k: int):
    """What ``LMScorer.score`` returns for a ``#combine`` root of plain
    terms, with the structured engine's term processing (a stopped term is
    an unseen child)."""
    from indri_5_5_ray.pipelines.indriql import parse_query

    terms = [eng._node_term(c) or "" for c in parse_query(query).children]
    return LMScorer(eng.r, method=eng.method, mu=eng.mu,
                    lam=eng.lam).score(terms, k=k)


def _every_doc(eng: StructuredQueryEngine) -> list[int]:
    return list(range(eng.r.manifest["max_doc_id"] + 1))


STRUCT_QUERIES = [
    "#combine(merge buffer token)",
    "#combine(merge merge buffer)",      # duplicate child
    "merge buffer",                       # implicit #combine
    "#combine(the a of and data)",        # common-term heavy
    "#weight(2.0 merge 1.0 buffer)",
    "#weight(0.5 merge 0.25 token 0.25 zzzzunseenterm)",
]


@pytest.mark.parametrize("query", STRUCT_QUERIES)
def test_structured_blockmax_bit_identical(built_index, query):
    """A plain-term #combine/#weight root scores the same, bit for bit,
    with and without a ``doc_set`` that holds every doc id, and a
    #combine root scores like ``LMScorer``."""
    eng = StructuredQueryEngine(IndexReader(built_index[0]))
    got = eng.run(query, k=15)
    _assert_same(got, eng.run(query, k=15, doc_set=_every_doc(eng)))
    if not query.startswith("#weight"):
        _assert_same(got, _lm_twin(eng, query, 15))


def _stems(r: IndexReader, reference: _Reference) -> list[str]:
    """The 60 most frequent index terms that term processing keeps as
    they are, so a query of them reaches exactly these terms."""
    return [t for t in sorted(reference.post, key=lambda t: (
        -reference.cf[t], t))[:60] if process_query_lm(t, r.cfg) == [t]]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_structured_plain_terms_equal_lm_scorer(built_index, reference,
                                                data):
    """Structured ``#combine`` of 1–8 plain terms (duplicates and unseen
    terms included) == ``LMScorer.score`` with ``np.array_equal``, for
    both of the engine's smoothing methods."""
    r = IndexReader(built_index[0])
    terms = data.draw(st.lists(st.sampled_from(
        _stems(r, reference) + ["zzzznotaterm"]), min_size=1, max_size=8))
    method = data.draw(st.sampled_from(["dirichlet", "jm"]))
    k = data.draw(st.sampled_from([5, 50, 10_000]))
    eng = StructuredQueryEngine(r, method=method)
    query = f"#combine({' '.join(terms)})"
    _assert_same(eng.run(query, k=k), _lm_twin(eng, query, k))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_weight_scores_do_not_depend_on_the_doc_set(built_index, reference,
                                                    data):
    """A positive ``#weight`` of 1–8 plain terms scores every document the
    same, bit for bit, whether ``doc_set`` is absent or holds every doc
    id: both runs take one path over one candidate set.  (A ``doc_set``
    that leaves fewer candidates can still move a score in the last bits:
    ``np.tensordot`` sums in an order that depends on the candidate
    count, ROADMAP direction 7.)"""
    r = IndexReader(built_index[0])
    terms = data.draw(st.lists(st.sampled_from(_stems(r, reference)),
                               min_size=1, max_size=8))
    weights = data.draw(st.lists(st.sampled_from(
        ["0.1", "0.25", "0.5", "1", "1.5", "2", "3"]),
        min_size=len(terms), max_size=len(terms)))
    query = "#weight(" + " ".join(
        f"{w} {t}" for w, t in zip(weights, terms)) + ")"
    eng = StructuredQueryEngine(r)
    _assert_same(eng.run(query, k=10_000),
                 eng.run(query, k=10_000, doc_set=_every_doc(eng)))


def test_structured_blockmax_gate_excludes_restricted(built_index):
    """A window root and a ``doc_set`` run score on the one engine path: a
    ``doc_set`` run returns only ids of the set, each scored as the
    global run scores it."""
    eng = StructuredQueryEngine(IndexReader(built_index[0]))
    for q in ("#combine(merge buffer)", "#combine(#od2(merge buffer) token)"):
        ids_all, s_all = eng.run(q, k=50)
        assert len(ids_all) > 5
        subset = sorted(int(d) for d in ids_all[:5])
        ids_ws, s_ws = eng.run(q, k=50, doc_set=subset)
        assert sorted(ids_ws.tolist()) == subset
        want = dict(zip(ids_all.tolist(), s_all.tolist()))
        assert s_ws.tolist() == [want[i] for i in ids_ws.tolist()]
