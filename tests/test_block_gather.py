"""The block gather and the one-pass BM25 accumulation.

* ``IndexReader.blocks`` slices each mapped bucket file's block arrays;
  it must decode to exactly what the row-table reader
  (``posting_blocks(reader.term_rows(...))``) decodes.
* ``BM25Scorer.score_exhaustive`` must equal, bit for bit, a pure-Python
  reference that sums each document's term scores left to right in
  query-term order.
* A build whose partials were consolidated leaves no ``partials_c/``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

TERMS = ["merge", "token", "buffer", "int", "return", "value", "zzzznotaterm"]


@pytest.fixture(scope="module")
def salted_index(small_corpus_dir, tmp_path_factory):
    """Hot terms have several posting rows (salt groups of 64 docs) and
    several blocks per row."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    out = str(tmp_path_factory.mktemp("salted") / "idx")
    build_index(small_corpus_dir, out,
                IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key="sha256",
                            salt_docs_per_group=64, target_block_bytes=64),
                resume=False)
    return out


@pytest.fixture(scope="module")
def two_segments(tmp_path_factory):
    """Two indexes with disjoint doc-id ranges, read as one."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    d = tmp_path_factory.mktemp("two_segments")
    cfg = IndexConfig(dedup_key=None, n_buckets=4, max_chunk_docs=32,
                      target_block_bytes=64)
    write_synthetic_corpus(str(d / "ca"), 90, seed=51, rows_per_file=45)
    write_synthetic_corpus(str(d / "cb"), 70, seed=52, rows_per_file=35)
    ma = build_index(str(d / "ca"), str(d / "a"), cfg, resume=False)
    build_index(str(d / "cb"), str(d / "b"), cfg, resume=False,
                doc_id_base=ma["max_doc_id"] + 1)
    return [str(d / "a"), str(d / "b")]


def _readers(salted_index, two_segments):
    from indri_5_5_ray.pipelines.query import IndexReader

    return [IndexReader(salted_index), IndexReader(two_segments)]


# -- block gather ---------------------------------------------------------------


def _by_term(pb, names: list[str], lo: int, hi: int) -> dict:
    """term → (block metadata, docs, tfs, positions) of ``pb``'s blocks
    that meet [lo, hi), docs masked to [lo, hi); block ``i`` is term
    ``names[pb.term[i]]``."""
    out = {}
    block_names = np.array([names[i] for i in pb.term.tolist()], object)
    for term in dict.fromkeys(block_names.tolist()):
        sel = np.flatnonzero((block_names == term) & (pb.last >= lo)
                             & (pb.first < hi))
        d, tf, pos = pb.decode(sel, positions=True)
        keep = (d >= lo) & (d < hi)
        meta = [a[sel].tolist() for a in (pb.first, pb.last, pb.n_docs,
                                          pb.length)]
        if len(sel):
            out[term] = (meta, d[keep].tolist(), tf[keep].tolist(),
                         pos[np.repeat(keep, tf)].tolist())
    return out


def test_blocks_decode_like_the_row_table(salted_index, two_segments):
    """``reader.blocks(terms, doc_range)`` holds exactly the blocks of the
    row table ``term_rows(terms, doc_range)`` that meet the range, term by
    term, and decodes to the same (doc, tf, positions); and one
    ``PostingBlocks.decode`` of a selection in any order, repeats
    included, equals the blocks' own ``decode_block`` calls."""
    from indri_5_5_ray.pipelines.query import posting_blocks

    rng = np.random.default_rng(7)
    salted = None
    for reader in _readers(salted_index, two_segments):
        hi_doc = reader.manifest["max_doc_id"] + 1
        ranges = [None, (0, hi_doc // 3), (hi_doc // 3, 2 * hi_doc // 3),
                  (hi_doc - 5, hi_doc + 10)]
        for doc_range in ranges:
            lo, hi = doc_range or (0, 1 << 62)
            got = reader.blocks(TERMS, doc_range)
            rows = reader.term_rows(TERMS, doc_range)
            want = posting_blocks(rows)
            assert got.terms == sorted(got.terms)
            assert _by_term(got, got.terms, lo, hi) == _by_term(
                want, rows.column("term").to_pylist(), lo, hi)
            # the gather itself is range-pruned: every block meets the range
            assert ((got.last >= lo) & (got.first < hi)).all()
        if salted is None:
            rows = reader.term_rows(TERMS)
            salted = max(rows.column("term").value_counts().field(1).to_pylist())
        # one decode of any selection — shuffled, or laid out in query-term
        # order (a term's run once per query entry) — equals the per-block
        # decodes, across bucket files and, on the repository, both segments
        pb = reader.blocks(TERMS)
        assert len(np.unique(pb.view)) > 1
        if len(reader.index_dirs) > 1:
            second = reader.doc_maps()[0][1]
            assert (pb.last < second).any() and (pb.first >= second).any()
        rank = {t: i for i, t in enumerate(reversed(TERMS))}
        by_query = np.argsort([rank[pb.terms[i]] for i in pb.term.tolist()],
                              kind="stable")
        twice = np.flatnonzero(pb.term == pb.term[-1])
        for sel in (rng.permutation(len(pb)), by_query,
                    np.concatenate([by_query, twice])):
            want = _per_block(pb, sel)
            d, tf, pos = pb.decode(sel, positions=True)
            assert np.array_equal(d, want[0]) and np.array_equal(tf, want[1])
            assert np.array_equal(pos, want[2])
            d, tf, pos = pb.decode(sel)
            assert pos is None
            assert np.array_equal(d, want[0]) and np.array_equal(tf, want[1])
    assert salted > 1, "no term has several rows — the test is vacuous"


def _per_block(pb, sel: np.ndarray) -> list[np.ndarray]:
    """(docs, tfs, positions) of blocks ``sel``, one ``decode_block``
    each, from the block's own bytes and metadata."""
    from indri_5_5_ray.codec import decode_block

    parts = [decode_block(pb.views[pb.view[i]][pb.offset[i]:
                                               pb.offset[i] + pb.length[i]],
                          int(pb.first[i]), int(pb.n_docs[i]), True)
             for i in sel.tolist()]
    return [np.concatenate([p[j] for p in parts]) for j in range(3)]


def test_blocks_of_every_term(salted_index, two_segments):
    """``blocks(None, doc_range)`` gathers every term's blocks that meet
    the range, the same set the per-term gather finds."""
    for reader in _readers(salted_index, two_segments):
        vocab = sorted({t for tbl in reader.posting_tables()
                        for t in tbl.column("term").to_pylist()})
        hi_doc = reader.manifest["max_doc_id"] + 1
        for doc_range in (None, (hi_doc // 4, hi_doc // 2)):
            every = reader.blocks(None, doc_range)
            per_term = reader.blocks(vocab, doc_range)
            key = lambda pb: sorted(zip(  # noqa: E731
                [pb.terms[i] for i in pb.term.tolist()], pb.first.tolist(),
                pb.last.tolist(), pb.n_docs.tolist()))
            assert key(every) == key(per_term)
            assert len(every) > 0


# -- BM25, bit for bit ------------------------------------------------------------


class _Reference:
    """Pure-Python BM25 over the raw posting files: per document, the
    query terms' scores summed left to right in query-term order, with
    the factored okapi constants and ``np.log`` idf."""

    def __init__(self, index_dirs: list[str]):
        from indri_5_5_ray.codec import decode_block
        from indri_5_5_ray.pipelines.query import read_manifest

        ms = [read_manifest(d) for d in index_dirs]
        self.cfg = ms[0]["config"]
        self.N = sum(m["doc_count"] for m in ms)
        self.avgdl = sum(m["total_terms"] for m in ms) / self.N
        self.dl = {}
        self.post: dict[str, dict[int, int]] = {}
        self.df: dict[str, int] = {}
        for d in index_dirs:
            docs = pq.read_table(Path(d, "docs"), columns=["doc_id", "dl"])
            self.dl.update(zip(docs.column("doc_id").to_pylist(),
                               docs.column("dl").to_pylist()))
            for f in sorted(Path(d, "postings").glob("*.arrow")):
                for row in pa.ipc.open_file(f).read_all().to_pylist():
                    t = row["term"]
                    self.df[t] = self.df.get(t, 0) + row["df"]
                    first = row["first_doc"]
                    for off, ln, last, nb in zip(
                            row["block_offset"], row["block_length"],
                            row["block_last_doc"], row["block_n_docs"]):
                        ids, tfs, _ = decode_block(
                            row["postings"][off:off + ln], first, nb, False)
                        self.post.setdefault(t, {}).update(
                            zip(ids.tolist(), tfs.tolist()))
                        first = last + 1

    def score(self, terms_qtf, k, deleted=(), doc_range=None, doc_set=None):
        k1, b, k3 = self.cfg["k1"], self.cfg["b"], self.cfg["k3"]
        lo, hi = doc_range or (0, 1 << 62)
        want = None if doc_set is None else set(doc_set)
        total: dict[int, float] = {}
        for term, qtf in terms_qtf:
            if term not in self.post:
                continue
            df = self.df[term]
            idf = np.log((self.N - df + 0.5) / (df + 0.5))
            qtw = ((k3 + 1) * qtf) / (k3 + qtf)
            c = qtw * idf * (k1 + 1)
            for doc, tf in self.post[term].items():
                if not lo <= doc < hi or doc in deleted or (
                        want is not None and doc not in want):
                    continue
                tf_f, dl_f = float(tf), float(self.dl[doc])
                s = (c * tf_f) / (tf_f + k1 * (1 - b) + k1 * b / self.avgdl * dl_f)
                total[doc] = total.get(doc, 0.0) + s
        ranked = sorted(total.items(), key=lambda x: (-x[1], -x[0]))[:k]
        return ([d for d, _ in ranked], [s for _, s in ranked])


@pytest.fixture(scope="module")
def references(salted_index, two_segments):
    return {tuple(d): _Reference(d) for d in ([salted_index], two_segments)}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bm25_bitwise_equals_the_reference(salted_index, two_segments,
                                           references, tmp_path_factory,
                                           data):
    """score_exhaustive == the pure-Python reference, compared with
    ``np.array_equal`` (no tolerance), over random queries (some with a
    repeated entry, which the reference scores once per entry), deleted
    sets, ``doc_set`` working sets and ``doc_range`` shards, on a salted
    index and on a two-segment reader."""
    from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader

    dirs = data.draw(st.sampled_from([[salted_index], two_segments]))
    ref = references[tuple(dirs)]
    n_docs = max(ref.dl) + 1
    vocab = sorted(ref.post)
    # mostly frequent terms, so many docs sum three or more term scores
    # and a change of summation order shows in the last bits
    common = sorted(vocab, key=lambda t: (-ref.df[t], t))[:40]
    terms = list(dict.fromkeys(
        data.draw(st.lists(st.sampled_from(common), min_size=1, max_size=8))
        + data.draw(st.lists(st.sampled_from(vocab + ["zzzznotaterm"]),
                             max_size=2))))
    qtfs = data.draw(st.lists(st.integers(1, 3), min_size=len(terms),
                              max_size=len(terms)))
    terms_qtf = list(zip(terms, qtfs))
    if data.draw(st.booleans()):  # a repeated entry is scored per entry
        terms_qtf.insert(data.draw(st.integers(0, len(terms_qtf))),
                         data.draw(st.sampled_from(terms_qtf)))
    deleted = data.draw(st.sets(st.integers(0, n_docs - 1), max_size=40))
    deleted_path = None
    if deleted:
        deleted_path = str(tmp_path_factory.mktemp("deleted") / "deleted.parquet")
        pq.write_table(pa.table({"doc_id": pa.array(sorted(deleted), pa.int64())}),
                       deleted_path)
    doc_set = data.draw(st.none() | st.lists(st.integers(0, n_docs - 1),
                                             max_size=80))
    doc_range = data.draw(st.none() | st.tuples(
        st.integers(0, n_docs), st.integers(1, n_docs)).map(
            lambda t: (min(t), max(t) + 1)))
    k = data.draw(st.sampled_from([5, 50, 10_000]))

    sc = BM25Scorer(IndexReader(dirs if len(dirs) > 1 else dirs[0],
                                deleted_path=deleted_path))
    ids, scores = sc.score_exhaustive(terms_qtf, k=k, doc_range=doc_range,
                                      doc_set=doc_set)
    want_ids, want_scores = ref.score(terms_qtf, k, deleted, doc_range, doc_set)
    assert ids.tolist() == want_ids
    assert np.array_equal(scores, np.asarray(want_scores, np.float64))


# -- consolidated partials ----------------------------------------------------------


def _tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def test_build_removes_consolidated_partials(small_corpus_dir, tmp_path,
                                             monkeypatch):
    """A build with more partials files than INDRI55_MAX_REDUCER_FILES
    merges from a consolidated copy and deletes it afterwards; a resume
    after a crash past ingest consolidates again and gives byte-identical
    postings and dictionary."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    monkeypatch.setenv("INDRI55_MAX_REDUCER_FILES", "8")
    out = tmp_path / "idx"
    cfg = IndexConfig(max_chunk_docs=16, n_buckets=4, dedup_key="sha256")
    build_index(small_corpus_dir, str(out), cfg, resume=False)
    assert len(list((out / "partials").glob("*.parquet"))) > 8
    assert (out / "lineage").exists()
    assert any(p.name.startswith("consolidate")
               for p in (out / "lineage").rglob("*")), \
        "the merge did not read consolidated partials — the test is vacuous"
    assert not (out / "partials_c").exists()
    merged = {sub: _tree(out / sub) for sub in ("postings", "dictionary")}

    (out / "manifest.json").unlink()
    for sub in merged:
        for p in (out / sub).iterdir():
            p.unlink()
        (out / sub).rmdir()
    build_index(small_corpus_dir, str(out), cfg, resume=True)
    assert not (out / "partials_c").exists()
    assert {sub: _tree(out / sub) for sub in merged} == merged
