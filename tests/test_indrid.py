"""Query daemon (pipelines/indrid.py) — the indrid / NetworkServerProxy
analogue: named-actor discovery, the message set, and identity with the
local engines."""

from __future__ import annotations

import numpy as np
import pytest
import ray

from indri_5_5_ray.pipelines.indrid import _QueryDaemon, connect, start_daemon
from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query


@pytest.fixture(scope="module")
def daemon(built_index, ray_session):
    index_dir, _ = built_index
    h = start_daemon(index_dir, name="indrid-test")
    yield h
    ray.kill(h)


def test_named_actor_discovery_and_identity(daemon, built_index):
    index_dir, _ = built_index
    # connect() from "another client" — the named actor is the endpoint
    h2 = connect("indrid-test")
    assert ray.get(h2.ping.remote()) == index_dir
    rows = ray.get(h2.run_query.remote("merge buffer token", k=5))
    # identical to a local engine run (same index, same scorer)
    r = IndexReader(index_dir)
    ids, scores = BM25Scorer(r).score_exhaustive(
        process_query("merge buffer token", r.cfg), k=5)
    assert [x["doc_id"] for x in rows] == ids.tolist()
    np.testing.assert_array_equal([x["score"] for x in rows], scores)
    assert [x["rank"] for x in rows] == [1, 2, 3, 4, 5]
    trec = ray.get(h2.run_query_trec.remote("7", "merge buffer token", k=3))
    assert len(trec) == 3 and trec[0].startswith("7 Q0 ")


def test_message_set(daemon):
    h = daemon
    n_docs = ray.get(h.document_count.remote())
    assert n_docs > 0
    assert ray.get(h.term_count.remote()) > n_docs  # total terms
    cf = ray.get(h.term_count.remote("merge"))
    assert cf > 0
    assert ray.get(h.stem_count.remote("merge")) == cf  # kstem identity
    assert ray.get(h.term_count_unique.remote()) > 100
    assert ray.get(h.term_count.remote("zzzunseen")) == 0
    # metadata round trip: docno of doc 0, then ids-from-metadata back
    meta = ray.get(h.document_metadata.remote([0, 1], "docno"))
    assert set(meta) == {0, 1}
    back = ray.get(h.document_ids_from_metadata.remote(
        "docno", [meta[0]]))
    assert back == [0]
    dl = ray.get(h.document_length.remote(0))
    assert dl > 0
    assert ray.get(h.field_list.remote()) == []  # fieldless build


def test_lm_and_structured_kinds(daemon, built_index):
    index_dir, _ = built_index
    rows = ray.get(daemon.run_query.remote("merge buffer", k=5, kind="lm"))
    from indri_5_5_ray.pipelines.lm import LMScorer, process_query_lm

    r = IndexReader(index_dir)
    ids, scores = LMScorer(r).score(
        process_query_lm("merge buffer", r.cfg), k=5)
    assert [x["doc_id"] for x in rows] == ids.tolist()
    rows_s = ray.get(daemon.run_query.remote(
        "#combine(merge buffer)", k=5, kind="structured"))
    assert [x["doc_id"] for x in rows_s] == ids.tolist()
    with pytest.raises(Exception):
        ray.get(daemon.run_query.remote("x", kind="nosuch"))


def test_documents_requires_content_store(daemon):
    with pytest.raises(Exception, match="store_content"):
        ray.get(daemon.documents.remote([0]))


def test_documents_roundtrip_with_content_store(tmp_path, ray_session,
                                                small_corpus_dir):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    out = str(tmp_path / "idx_content")
    cfg = IndexConfig(max_chunk_docs=64, n_buckets=4, store_content=True)
    build_index(small_corpus_dir, out, cfg, resume=False)
    d = _QueryDaemon(out)  # in-process drive of the same actor body
    docs = d.documents([0, 2])
    assert set(docs) == {0, 2} and all(len(v) > 0 for v in docs.values())
    got = d.documents_from_metadata("docno",
                                    [d.document_metadata([2])[2]])
    assert got == {2: docs[2]}
