"""RM3 feedback and document prior tests."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="module")
def reader(built_index):
    from indri_5_5_ray.pipelines.query import IndexReader

    out, _ = built_index
    return IndexReader(out)


def test_feedback_doc_vectors_match_direct_tokenization(reader, small_corpus_dir):
    """Doc vectors recovered from the inverted index by doc-slice must equal
    direct tokenization (the direct-list / documentvector analogue)."""
    import hashlib

    import pyarrow.parquet as pq

    from indri_5_5_ray.pipelines.feedback import _feedback_doc_vectors
    from indri_5_5_ray.sources.corpus import corpus_files
    from indri_5_5_ray.stages.ingest import TermProcessor
    from indri_5_5_ray.tokenizer import tokenize

    proc = TermProcessor(reader.cfg)
    want: dict[int, dict[str, int]] = {}
    seen = set()
    did = 0
    for f in corpus_files(small_corpus_dir):
        for row in pq.read_table(f).to_pylist():
            d, did = did, did + 1
            sha = hashlib.sha256(row["content"].encode()).hexdigest()
            if sha in seen:
                continue
            seen.add(sha)
            if d % 37 == 0:  # sample some docs
                tf: dict[str, int] = {}
                for t in tokenize(row["content"]):
                    p = proc.process(t)
                    if p is not None:
                        tf[p] = tf.get(p, 0) + 1
                want[d] = tf
    got = _feedback_doc_vectors(reader, list(want))
    for d in want:
        assert got[d] == want[d], f"doc {d}"


def test_rm3_expansion_and_search(reader):
    from indri_5_5_ray.pipelines.feedback import rm3_search, rm_expand
    from indri_5_5_ray.pipelines.lm import LMScorer, process_query_lm

    expanded = rm_expand(reader, "merge buffer", fb_docs=5, fb_terms=10)
    terms = [t for t, _ in expanded]
    # original (stemmed) query terms survive interpolation
    assert "merge" in terms and "buffer" in terms
    assert len(terms) <= 12
    assert all(w > 0 for _, w in expanded)

    ids, scores = rm3_search(reader, "merge buffer", k=10, fb_docs=5, fb_terms=10)
    assert len(ids) == 10
    # orig_weight=1.0 degenerates to the original query model: same top docs
    ids_orig, _ = rm3_search(reader, "merge buffer", k=10, fb_docs=5,
                             fb_terms=10, orig_weight=1.0)
    lm = LMScorer(reader)
    ids_lm, _ = lm.score(process_query_lm("merge buffer", reader.cfg), k=10)
    assert ids_orig.tolist() == ids_lm.tolist()


def test_query_clarity(reader):
    """Clarity (ref:clarity/clarity.cpp): the score is the hand-computed
    KL of the RM1 grams from the collection model (bits), positive for a
    query whose feedback set concentrates probability on specific terms."""
    import math

    from indri_5_5_ray.pipelines.feedback import query_clarity, rm1_model

    c_focused = query_clarity(reader, "merge buffer", fb_docs=5, fb_terms=10)
    assert c_focused > 0
    # direct recomputation from the model + collection statistics
    _, rm1 = rm1_model(reader, "merge buffer", fb_docs=5, fb_terms=10)
    stats = reader.term_stats([t for t, _ in rm1])
    total = float(reader.total_terms)
    want = sum(p * math.log(p / (stats[t][0] / total)) for t, p in rm1)
    want /= sum(p for _, p in rm1) * math.log(2)
    assert abs(c_focused - want) < 1e-12
    # no query terms → 0 by definition
    assert query_clarity(reader, "") == 0.0


def test_length_prior(reader):
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.priors import build_length_prior, load_prior

    build_length_prior(reader.index_dir, "length")
    ids, lps = load_prior(reader.index_dir, "length")
    assert len(ids) == reader.doc_count
    dl = reader.doc_lens(ids)
    # prior ordering follows document length
    assert dl[np.argmax(lps)] == dl.max()

    eng = StructuredQueryEngine(reader)
    ids_p, s_p = eng.run("#combine(merge #prior(length))", k=10)
    ids_n, s_n = eng.run("#combine(merge)", k=10)
    assert len(ids_p) == 10
    assert ids_p.tolist() != ids_n.tolist() or not np.allclose(s_p, s_n)


def test_prior_rebuild_replaces_legacy_file(reader):
    """build_length_prior must remove a same-named legacy single-file prior
    — regression: the stale file shadowed the new directory in load_prior."""
    import numpy as np

    from indri_5_5_ray.pipelines.priors import (
        build_length_prior, load_prior, write_prior_table)

    n = reader.doc_count
    write_prior_table(reader.index_dir, "shadow",
                      list(range(n)), [-99.0] * n)
    ids, lps = load_prior(reader.index_dir, "shadow")
    assert np.all(lps == -99.0)
    build_length_prior(reader.index_dir, "shadow")
    ids2, lps2 = load_prior(reader.index_dir, "shadow")
    assert len(ids2) == n
    assert not np.any(lps2 == -99.0)

    # bounds can be passed independently
    lo_only = load_prior(reader.index_dir, "shadow", lo=3)
    assert lo_only[0].min() >= 3 and len(lo_only[0]) == n - 3
    hi_only = load_prior(reader.index_dir, "shadow", hi=3)
    assert hi_only[0].max() <= 3 and len(hi_only[0]) == 4
