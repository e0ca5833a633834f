"""Vectorized ingest kernel ≡ per-token reference accumulation.

The ingest hot path (stages/ingest.py:_accumulate_chunk) dictionary-encodes
the chunk's raw-token stream and groups postings with numpy run-length ops.
This test re-implements the straightforward per-token accumulation (the
MemoryIndex shape, ref:src/MemoryIndex.cpp:560-651) and checks the worker's
parquet outputs match it row for row under several configs.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from indri_5_5_ray.config import IndexConfig
from indri_5_5_ray.sources.corpus import Chunk, synthetic_corpus
from indri_5_5_ray.stages.ingest import IngestWorker, TermProcessor
from indri_5_5_ray.tokenizer import tokenize_bytes


def _reference_accumulate(contents, doc_ids, cfg, drop=frozenset()):
    """The original per-token loop: term → ([doc], [tf], [pos...])."""
    proc = TermProcessor(cfg)
    acc: dict[str, list] = {}
    dls, uniqs, direct = [], [], []
    for did, data in zip(doc_ids, contents):
        if did in drop:
            continue
        raw = tokenize_bytes(data, cfg.tokenizer)
        dl = len(raw)
        per_doc: dict[str, list[int]] = {}
        for pos, rt in enumerate(raw):
            term = proc.process_raw(rt)
            if term is None:
                continue
            per_doc.setdefault(term, []).append(pos)
        dls.append(dl)
        uniqs.append(len(per_doc))
        direct.append((did, list(per_doc.keys()),
                       [len(v) for v in per_doc.values()],
                       [p for v in per_doc.values() for p in v]))
        for term, positions in per_doc.items():
            ent = acc.setdefault(term, [[], [], []])
            ent[0].append(did)
            ent[1].append(len(positions))
            ent[2].extend(positions)
    return acc, dls, uniqs, direct


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("ingvec") / "corpus.parquet"
    t = synthetic_corpus(600, seed=21)
    pq.write_table(t, str(p))
    return str(p), t


@pytest.mark.parametrize("cfg_kwargs,drop_first", [
    ({}, False),
    ({"stemmer": "porter", "stopwords": ["the", "a", "if", "return", "int"]},
     True),
    ({"stemmer": "none", "store_positions": False}, False),
    ({"tokenizer": "char", "stemmer": "none"}, False),
])
def test_worker_matches_reference(tmp_path, corpus_file, cfg_kwargs,
                                  drop_first):
    path, tbl = corpus_file
    out = str(tmp_path / "idx")
    cfg = IndexConfig(store_direct=True, **cfg_kwargs)
    losers_path = None
    drop = frozenset()
    if drop_first:
        # drop a few doc_ids via a losers file (exercises the kept mask)
        drop = frozenset([1000, 1003, 1017])
        losers_path = str(tmp_path / "losers.parquet")
        pq.write_table(
            pa.table({"doc_id": pa.array(sorted(drop), pa.int64())}),
            losers_path)
    w = IngestWorker(out, cfg.to_dict(), losers_path)
    w._process_chunk(Chunk(file_path=path, row_start=0, row_end=600,
                           doc_id_base=1000))

    contents = [c.encode() for c in tbl.column("content").to_pylist()]
    doc_ids = list(range(1000, 1600))
    acc, dls, uniqs, direct = _reference_accumulate(
        contents, doc_ids, cfg, drop)

    docs = pq.read_table(f"{out}/docs").sort_by("doc_id")
    assert docs.column("dl").to_pylist() == dls
    assert docs.column("unique_terms").to_pylist() == uniqs

    part = pq.read_table(f"{out}/partials").sort_by("term")
    terms = part.column("term").to_pylist()
    assert terms == sorted(acc.keys())
    for i, t in enumerate(terms):
        assert part.column("doc_ids")[i].as_py() == acc[t][0], t
        assert part.column("tfs")[i].as_py() == acc[t][1], t

    dtbl = pq.read_table(f"{out}/direct").sort_by("doc_id")
    assert dtbl.column("doc_id").to_pylist() == [d[0] for d in direct]
    assert dtbl.column("terms").to_pylist() == [d[1] for d in direct]
    assert dtbl.column("tfs").to_pylist() == [d[2] for d in direct]
    assert dtbl.column("positions").to_pylist() == [d[3] for d in direct]
    shutil.rmtree(out, ignore_errors=True)


def test_empty_and_tiny_docs(tmp_path):
    """Zero-token docs, all-stopped docs, and an empty chunk edge."""
    rows = [
        ("r/a", "f1", "c" * 40, "py", ""),
        ("r/a", "f2", "c" * 40, "py", "the the the"),
        ("r/a", "f3", "c" * 40, "py", "xyzzy plugh"),
        ("r/a", "f4", "c" * 40, "py", "   \n\t  "),
    ]
    t = pa.table({
        "repo": [r[0] for r in rows],
        "path": [r[1] for r in rows],
        "commit": [r[2] for r in rows],
        "lang": [r[3] for r in rows],
        "content": [r[4] for r in rows],
    })
    p = str(tmp_path / "tiny.parquet")
    pq.write_table(t, p)
    out = str(tmp_path / "idx")
    cfg = IndexConfig(stemmer="none", stopwords=["the"], store_direct=True)
    w = IngestWorker(out, cfg.to_dict(), None)
    w._process_chunk(Chunk(file_path=p, row_start=0, row_end=4, doc_id_base=0))
    docs = pq.read_table(f"{out}/docs").sort_by("doc_id")
    assert docs.column("dl").to_pylist() == [0, 3, 2, 0]
    assert docs.column("unique_terms").to_pylist() == [0, 0, 2, 0]
    part = pq.read_table(f"{out}/partials")
    assert sorted(part.column("term").to_pylist()) == ["plugh", "xyzzy"]
    dtbl = pq.read_table(f"{out}/direct").sort_by("doc_id")
    assert dtbl.column("terms").to_pylist() == [[], [], ["xyzzy", "plugh"], []]
