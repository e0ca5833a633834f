"""Query daemon — the ``indrid`` / ``NetworkServerProxy`` analogue.

The reference serves remote query evaluation over a homegrown wire
protocol (ref:indrid/indrid.cpp; message set
ref:src/NetworkServerProxy.cpp:400-621 — runQuery, documents,
documentMetadata, documentsFromMetadata, documentIDsFromMetadata,
termCount, termCountUnique, stemCount, termFieldCount, fieldList,
documentLength, documentCount).  Ray already IS the RPC layer, so the
daemon is a long-lived NAMED Ray actor: clients on any node of the
cluster discover it with ``ray.get_actor(name)`` (the host:port of the
reference's ``NetworkServerStub``) and invoke the same message set as
plain method calls — serialization, routing and backpressure come from
Ray, not a bespoke protocol.

State model: the actor holds one open :class:`IndexReader` plus lazily
constructed scorers, so mapped postings files and doc-length/statistics
caches persist across requests exactly like the reference's resident
``LocalQueryServer``.  Every lookup is a point read (a binary-searched
slice of a mapped postings file, a row-group-filtered parquet read of
docs), never a table scan — the daemon stays O(request), independent of
index size.
"""

from __future__ import annotations

import numpy as np
import pyarrow.dataset as pads
import ray

from .query import IndexReader, format_trec, process_query
from .run import engine_topk, make_engine

DEFAULT_NAME = "indrid"


class _QueryDaemon:
    """The actor body (plain class: wrapped by ``ray.remote`` in
    :func:`start_daemon` so tests can also drive it in-process)."""

    def __init__(self, index_dir: str):
        self.r = IndexReader(index_dir)
        self._engines: dict[tuple[str, str], object] = {}

    def _engine(self, kind: str, method: str = "dirichlet"):
        """The resident engine of (kind, method): built on first use, so
        its caches persist across requests."""
        eng = self._engines.get((kind, method))
        if eng is None:
            eng = self._engines[(kind, method)] = make_engine(self.r, kind,
                                                              method)
        return eng

    # -- retrieval (runQuery, ref:src/NetworkServerProxy.cpp:400-419) ------

    def run_query(self, text: str, k: int = 10, kind: str = "bm25",
                  method: str | None = None) -> list[dict]:
        """Top-k as [{doc_id, docno, score, rank}] — kind selects the
        engine: bm25 (no method), lm or structured (full IndriQL), both
        with an LM smoothing method (dirichlet|jm|two, default
        dirichlet)."""
        if kind == "bm25" and method is not None:
            raise ValueError(f"bm25 takes no method, got {method!r}")
        ids, scores = engine_topk(self._engine(kind, method or "dirichlet"),
                                  kind, text, k)
        docnos = self.r.docnos(ids).to_pylist()
        return [
            {"doc_id": int(d), "docno": dn, "score": float(s), "rank": i + 1}
            for i, (d, s, dn) in enumerate(zip(ids, scores, docnos))
        ]

    def run_query_trec(self, qid: str, text: str, k: int = 10,
                       kind: str = "bm25") -> list[str]:
        rows = self.run_query(text, k=k, kind=kind)
        return format_trec(qid, [r["doc_id"] for r in rows],
                           [r["score"] for r in rows],
                           [r["docno"] for r in rows])

    # -- documents / metadata (:469-534) ------------------------------------

    def documents(self, doc_ids: list[int]) -> dict[int, str]:
        """docID → stored text (CompressedCollection role; requires a
        store_content=True build)."""
        d = self.r._dset("docs")
        if "content" not in d.schema.names:
            raise RuntimeError("index built without store_content=True")
        t = self.r._point_read("docs", doc_ids, ["doc_id", "content"])
        return dict(zip(t.column("doc_id").to_pylist(),
                        t.column("content").to_pylist()))

    def document_metadata(self, doc_ids: list[int],
                          attribute: str = "docno") -> dict[int, object]:
        t = self.r._point_read("docs", doc_ids, ["doc_id", attribute])
        return dict(zip(t.column("doc_id").to_pylist(),
                        t.column(attribute).to_pylist()))

    def document_ids_from_metadata(self, attribute: str,
                                   values: list) -> list[int]:
        t = self.r._dset("docs").to_table(
            filter=pads.field(attribute).isin(list(values)),
            columns=["doc_id"])
        return sorted(t.column("doc_id").to_pylist())

    def documents_from_metadata(self, attribute: str,
                                values: list) -> dict[int, str]:
        return self.documents(
            self.document_ids_from_metadata(attribute, values))

    # -- statistics (:537-631) ----------------------------------------------

    def term_count(self, term: str | None = None) -> int:
        """cf of a RAW term (processed through the index's pipeline), or
        the collection's total term count when term is None."""
        if term is None:
            return int(self.r.total_terms)
        out = process_query(term, self.r.cfg)
        return self.stem_count(out[0][0]) if out else 0

    def stem_count(self, stem: str) -> int:
        """cf of an ALREADY-processed term (stemCount skips the pipeline)."""
        st = self.r.term_stats([stem]).get(stem)
        return int(st[0]) if st else 0

    def term_count_unique(self) -> int:
        return int(self.r.manifest.get("unique_terms", 0))

    def term_field_count(self, term: str, field: str) -> int:
        """Occurrences of term inside field extents (termFieldCount) —
        served by the RESIDENT structured engine so its postings memo
        persists across requests like every other daemon cache."""
        from .indriql import parse_query

        eng = self._engine("structured")
        root = parse_query(f"{term}.({field})")
        leaf: set[str] = set()
        eng._leaf_terms(root, leaf)
        eng._postings = eng._fetch_postings(sorted(leaf))
        return int(eng._node_global_cf(root))

    def field_list(self) -> list[str]:
        return list(self.r.cfg.fields)

    def document_length(self, doc_id: int) -> int:
        return int(self.r.doc_lens([doc_id])[0])

    def document_count(self) -> int:
        return int(self.r.doc_count)

    def ping(self) -> str:
        return self.r.index_dir


def start_daemon(index_dir: str, name: str = DEFAULT_NAME,
                 num_cpus: float = 1.0) -> "ray.actor.ActorHandle":
    """Start (or replace) the named daemon actor.  ``get_if_exists`` makes
    concurrent starters share one instance — the named actor IS the
    service endpoint (the reference's host:port)."""
    actor_cls = ray.remote(num_cpus=num_cpus)(_QueryDaemon)
    return actor_cls.options(name=name,
                             get_if_exists=True).remote(index_dir)


def connect(name: str = DEFAULT_NAME) -> "ray.actor.ActorHandle":
    """Client-side discovery — ray.get_actor is the connect() call."""
    return ray.get_actor(name)
