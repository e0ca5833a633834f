"""Forward ("direct") index: round-trip vs direct tokenization, RM3 parity
with the postings-scan fallback, and the documentvector CLI."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="module")
def direct_index(tmp_path_factory):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    d = tmp_path_factory.mktemp("directidx")
    corpus = str(d / "corpus")
    write_synthetic_corpus(corpus, 200, seed=11, rows_per_file=100)
    out = str(d / "idx")
    cfg = IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key=None,
                      store_direct=True)
    build_index(corpus, out, cfg, resume=False)
    return corpus, out


def test_doc_vectors_match_tokenization(direct_index):
    import pyarrow.parquet as pq

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.stages.ingest import TermProcessor
    from indri_5_5_ray.tokenizer import tokenize

    corpus, out = direct_index
    reader = IndexReader(out)
    proc = TermProcessor(reader.cfg)
    t = pq.read_table(corpus, columns=["content"])
    for did in [0, 7, 150, 199]:
        content = t.column("content")[did].as_py()
        want: dict[str, int] = {}
        for tok in tokenize(content):
            term = proc.process(tok)
            if term is not None:
                want[term] = want.get(term, 0) + 1
        got = reader.doc_vectors([did])[did]
        assert got == want
    # batch fetch matches single fetches
    batch = reader.doc_vectors([0, 199])
    assert set(batch) == {0, 199}


def test_documentvector_positional(direct_index):
    import pyarrow.parquet as pq

    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.stages.ingest import TermProcessor
    from indri_5_5_ray.tokenizer import tokenize

    corpus, out = direct_index
    reader = IndexReader(out)
    proc = TermProcessor(reader.cfg)
    content = pq.read_table(corpus, columns=["content"]).column("content")[3].as_py()
    want = [proc.process(tok) for tok in tokenize(content)]
    got = reader.doc_vector_positional(3)
    assert got == want
    assert len(got) == int(reader.doc_lens([3])[0])


def test_rm3_direct_equals_fallback(direct_index, monkeypatch):
    import numpy as np

    from indri_5_5_ray.pipelines.feedback import rm3_search
    from indri_5_5_ray.pipelines.query import IndexReader

    corpus, out = direct_index
    r1 = IndexReader(out)
    ids1, s1 = rm3_search(r1, "merge buffer token", k=20, fb_docs=5, fb_terms=10)

    # force the fallback (pretend there is no direct index)
    r2 = IndexReader(out)
    monkeypatch.setattr(
        IndexReader, "doc_vectors",
        lambda self, ids: (_ for _ in ()).throw(FileNotFoundError("off")),
    )
    ids2, s2 = rm3_search(r2, "merge buffer token", k=20, fb_docs=5, fb_terms=10)
    assert np.array_equal(ids1, ids2)
    assert np.allclose(s1, s2, rtol=0, atol=0)


def test_direct_missing_raises(built_index):
    from indri_5_5_ray.pipelines.query import IndexReader

    out, _ = built_index  # built without store_direct
    with pytest.raises(FileNotFoundError):
        IndexReader(out).doc_vectors([0])


def test_documentvector_positional_equals_bruteforce(direct_index):
    """doc_vector_positional (a one-id point read of direct/) equals the
    vector rebuilt from a full read of direct/, for every doc id and for
    ids past the end."""
    import pyarrow.parquet as pq

    from indri_5_5_ray.pipelines.query import IndexReader

    _corpus, out = direct_index
    reader = IndexReader(out)
    want = {}
    for row in pq.read_table(f"{out}/direct").to_pylist():
        vec = [None] * int(reader.doc_lens([row["doc_id"]])[0])
        cur = 0
        for term, tf in zip(row["terms"], row["tfs"]):
            for p in row["positions"][cur : cur + tf]:
                vec[p] = term
            cur += tf
        want[row["doc_id"]] = vec
    for did in range(reader.manifest["max_doc_id"] + 3):
        assert reader.doc_vector_positional(did) == want.get(did, [])
