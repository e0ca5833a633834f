"""Index inspection CLI — the ``dumpindex`` analogue
(ref:dumpindex/dumpindex.cpp:532-601).

Commands:

    python -m indri_5_5_ray.cli <index_dir> stats
    python -m indri_5_5_ray.cli <index_dir> term <term>          # stem + postings summary
    python -m indri_5_5_ray.cli <index_dir> termpositions <term> # full postings w/ positions
    python -m indri_5_5_ray.cli <index_dir> vocabulary [limit]
    python -m indri_5_5_ray.cli <index_dir> documentname <doc_id>
    python -m indri_5_5_ray.cli <index_dir> documenttext <doc_id> # docstore builds
    python -m indri_5_5_ray.cli <index_dir> documentid <docno>
    python -m indri_5_5_ray.cli <index_dir> validate             # invariants walk
    python -m indri_5_5_ray.cli <index_dir> modifyfields <out_dir> \\
        [addField=a,b] [removeField=x] [annotations=path] \\
        [numericField=a] [dateField=b]   # ModifyFields app analogue
    python -m indri_5_5_ray.cli <index_dir> query "<text>" [k]   # BM25 top-k
    python -m indri_5_5_ray.cli <index_dir> runquery <file> [k] [baseline]
        # batch TREC run (IndriRunQuery analogue); file = qid<TAB>text or
        # bare text per line; baseline = bm25|tfidf|dirichlet|jm|two|indri

``<index_dir>`` may also be a ``Repository`` dir (one holding
``repository.json``): the read commands then read all of its segments,
``delete`` marks docs in the repository's deleted list, and ``compact``,
``merge`` and ``modifyfields`` refuse it.

Standalone use auto-initialises Ray only if needed (queries don't need it).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .codec import block_layout_error, decode_block
from .pipelines.query import (
    BM25Scorer,
    IndexReader,
    format_trec,
    posting_blocks,
    process_query,
    read_postings,
)
from .stages.ingest import TermProcessor


def cmd_stats(reader: IndexReader, *_args) -> None:
    m = dict(reader.manifest)
    m["avgdl"] = round(reader.avgdl, 4)
    print(json.dumps(m, indent=2))


def _term_of(reader: IndexReader, raw: str) -> str:
    proc = TermProcessor(reader.cfg)
    out = process_query(raw, reader.cfg, proc)
    return out[0][0] if out else raw


def cmd_term(reader: IndexReader, raw: str) -> None:
    term = _term_of(reader, raw)
    stats = reader.term_stats([term]).get(term)
    if stats is None:
        print(f"{raw} -> {term}: not in index")
        return
    cf, df = stats
    rows = reader.term_rows([term])
    n_blocks = len(posting_blocks(rows))
    print(f"{raw} -> {term}: cf={cf} df={df} rows={rows.num_rows} blocks={n_blocks}")


def cmd_termpositions(reader: IndexReader, raw: str) -> None:
    term = _term_of(reader, raw)
    for d, tf, pos, starts in read_postings(reader, [term],
                                            positions=True).values():
        for i, (did, n) in enumerate(zip(d.tolist(), tf.tolist())):
            ps = pos[starts[i]:starts[i + 1]].tolist() if pos is not None else []
            print(f"{term} doc={did} tf={n} positions={ps}")


def _dictionary(reader: IndexReader) -> pa.Table:
    """Term-sorted (term, cf, df) of the whole index: each term's
    dictionary rows summed over the reader's dirs."""
    t = reader._dset("dictionary").to_table().group_by("term").aggregate(
        [("cf", "sum"), ("df", "sum")])
    return pa.table({"term": t["term"], "cf": t["cf_sum"],
                     "df": t["df_sum"]}).sort_by("term")


def cmd_vocabulary(reader: IndexReader, limit: str = "50") -> None:
    for row in _dictionary(reader).slice(0, int(limit)).to_pylist():
        print(f"{row['term']}\tcf={row['cf']}\tdf={row['df']}")


def cmd_documentname(reader: IndexReader, doc_id: str) -> None:
    print(reader.docnos([int(doc_id)])[0])


def cmd_documentid(reader: IndexReader, docno: str) -> None:
    ids = reader.doc_ids_of([docno])
    print(int(ids[0]) if len(ids) else -1)


def cmd_documenttext(reader: IndexReader, doc_id: str) -> None:
    """Original document text from the docstore (requires a build with
    store_content=True — the CompressedCollection role)."""
    if "content" not in reader._dset("docs").schema.names:
        print("ERROR: index built without store_content=True")
        raise SystemExit(1)
    did = int(doc_id)
    t = reader._point_read("docs", [did], ["content"])
    if not t.num_rows:
        print(f"ERROR: doc {did} not found")
        raise SystemExit(1)
    print(t.column("content")[0].as_py())


def cmd_documentvector(reader: IndexReader, doc_id: str) -> None:
    """Positional term vector from the direct index (the reference's
    ``dumpindex documentvector``, ref:dumpindex/dumpindex.cpp:270-305):
    one ``position: term`` line per slot, ``[OOV]`` for stopped/termID-0
    slots.  Requires a build with store_direct=True."""
    try:
        vec = reader.doc_vector_positional(int(doc_id))
    except FileNotFoundError:
        print("ERROR: index built without store_direct=True")
        raise SystemExit(1)
    if not vec:
        print(f"ERROR: doc {doc_id} not found in direct index")
        raise SystemExit(1)
    for pos, term in enumerate(vec):
        print(f"{pos}: {term if term is not None else '[OOV]'}")


def cmd_invlist(reader: IndexReader, raw: str) -> None:
    """Raw inverted list (``dumpindex invlist``): per merged row, the block
    metadata and decoded (doc, tf) pairs."""
    term = _term_of(reader, raw)
    rows = reader.term_rows([term])
    pb = posting_blocks(rows)
    for ri in range(rows.num_rows):
        print(f"row salt={rows.column('salt')[ri].as_py()} "
              f"cf={rows.column('cf')[ri].as_py()} df={rows.column('df')[ri].as_py()} "
              f"docs=[{rows.column('first_doc')[ri].as_py()},"
              f"{rows.column('last_doc')[ri].as_py()}]")
        blocks = np.flatnonzero(pb.term == ri)
        d, tf, _ = pb.decode(blocks)
        cuts = np.cumsum(pb.n_docs[blocks])[:-1]
        for last, bd, btf in zip(pb.last[blocks].tolist(), np.split(d, cuts),
                                 np.split(tf, cuts)):
            pairs = " ".join(f"{a}:{b}" for a, b in zip(bd.tolist(), btf.tolist()))
            print(f"  block last={last} {pairs}")


def cmd_xcount(reader: IndexReader, expr: str) -> None:
    """Collection occurrence count of an expression (``dumpindex xcount``):
    total matches of a term/window/field expression across the index."""
    from .pipelines.indriql import StructuredQueryEngine, parse_query

    eng = StructuredQueryEngine(reader)
    root = parse_query(expr)
    leaf: set[str] = set()
    eng._leaf_terms(root, leaf)
    eng._postings = eng._fetch_postings(sorted(leaf))
    if root.op == "term":
        print(int(eng._term_cf(root)))
        return
    print(int(eng._node_global_cf(root)))


def cmd_dxcount(reader: IndexReader, expr: str) -> None:
    """Document count of an expression (``dumpindex dxcount``): docs with
    ≥1 match."""
    import numpy as np

    from .pipelines.indriql import (
        StructuredQueryEngine,
        _ExtentEval,
        parse_query,
    )

    eng = StructuredQueryEngine(reader)
    root = parse_query(expr)
    leaf: set[str] = set()
    eng._leaf_terms(root, leaf)
    eng._postings = eng._fetch_postings(sorted(leaf))
    parts: list = []
    eng._cand_docs(root, parts)
    parts = [p for p in parts if len(p)]
    if not parts:
        print(0)
        return
    arr = np.unique(np.concatenate(parts))
    arr = arr[reader.keep_mask(arr)]
    counts = _ExtentEval.documents(eng, arr).counts(root)
    print(int((counts > 0).sum()))


def cmd_delete(reader: IndexReader, ident: str) -> None:
    """Mark a document deleted by docno or docID (``dumpindex delete``,
    ref:dumpindex/dumpindex.cpp; readers opened afterwards mask it)."""
    if ident.isdigit():
        doc_id = int(ident)
    else:
        ids = reader.doc_ids_of([ident])
        if not len(ids):
            print(f"ERROR: docno {ident} not found")
            raise SystemExit(1)
        doc_id = int(ids[0])
    # a repository reader's deleted list is the repository's own
    path = Path(reader.deleted_path or Path(reader.index_dir) / "deleted.parquet")
    prev = (pq.read_table(path).column("doc_id").to_numpy()
            if path.exists() else np.empty(0, np.int64))
    merged = np.unique(np.concatenate([prev, np.array([doc_id], np.int64)]))
    tmp = path.with_suffix(".tmp")
    pq.write_table(pa.table({"doc_id": pa.array(merged, pa.int64())}), tmp)
    tmp.replace(path)
    print(f"deleted doc {doc_id} ({len(merged)} total)")


def _single_index(reader: IndexReader, cmd: str) -> str:
    """The dir of a one-index reader.  A repository's segments are
    rewritten only through ``Repository.trim``/``compact``, which know
    its deleted list; these commands would read its first segment only."""
    if reader.deleted_path is not None or len(reader.index_dirs) > 1:
        print(f"ERROR: {cmd} takes an index, not a repository")
        raise SystemExit(1)
    return reader.index_dir


def cmd_compact(reader: IndexReader, out_dir: str) -> None:
    """Rewrite the index without its deleted docs (``dumpindex compact``)."""
    from .pipelines.repository import compact_index

    m = compact_index(_single_index(reader, "compact"), out_dir)
    print(f"compacted: {m['doc_count']} docs, {m['unique_terms']} terms -> {out_dir}")


def cmd_merge(reader: IndexReader, out_dir: str, *others: str) -> None:
    """Offline N-way merge (``dumpindex merge``): this index + others."""
    from .pipelines.merge import merge_indexes

    m = merge_indexes([_single_index(reader, "merge"), *others], out_dir,
                      resume=False)
    print(f"merged {1 + len(others)} indexes: {m['doc_count']} docs -> {out_dir}")


def cmd_validate(reader: IndexReader, *_args) -> None:
    """Invariant walk (the ``dumpindex validate`` analogue,
    ref:dumpindex/dumpindex.cpp:593-595): checks every posting block's
    width byte and length against the block layout, decodes it and
    cross-checks against the document table and the dictionary."""
    doc_lens = reader.doc_lens()
    known = set(reader._dset("docs").to_table(columns=["doc_id"])
                .column("doc_id").to_pylist())
    dict_t = _dictionary(reader)
    dict_stats = {
        t: (cf, df)
        for t, cf, df in zip(
            dict_t.column("term").to_pylist(),
            dict_t.column("cf").to_pylist(),
            dict_t.column("df").to_pylist(),
        )
    }
    errors = 0
    seen: dict[str, list[int]] = {}
    has_pos = reader.cfg.store_positions
    for row in (r for t in reader.posting_tables() for r in t.to_pylist()):
        term = row["term"]
        total_cf = 0
        total_df = 0
        prev_doc = -1
        first = row["first_doc"]
        for off, ln, last, nd in zip(
            row["block_offset"], row["block_length"],
            row["block_last_doc"], row["block_n_docs"],
        ):
            buf = row["postings"][off : off + ln]
            b_first, first = first, last + 1
            bad = block_layout_error(buf, nd, has_pos)
            if bad is not None:
                print(f"ERROR {term}: {bad}")
                errors += 1
                continue
            d, tf, pos = decode_block(buf, b_first, nd, has_pos)
            if len(d) != nd or (len(d) and d[-1] != last):
                print(f"ERROR {term}: block meta mismatch")
                errors += 1
            if len(d) and (np.diff(d) <= 0).any():
                print(f"ERROR {term}: non-ascending doc ids in block")
                errors += 1
            if len(d) and prev_doc >= d[0]:
                print(f"ERROR {term}: block overlaps predecessor")
                errors += 1
            prev_doc = int(d[-1]) if len(d) else prev_doc
            for did in d.tolist():
                if did not in known:
                    print(f"ERROR {term}: unknown doc {did}")
                    errors += 1
            if tf.max(initial=0) and len(d):
                bad = tf > doc_lens[d]
                if bad.any():
                    print(f"ERROR {term}: tf exceeds doc length")
                    errors += 1
            if pos is not None and len(pos):
                cursor = 0
                for did, n in zip(d.tolist(), tf.tolist()):
                    ps = pos[cursor : cursor + n]
                    cursor += n
                    if (np.diff(ps) <= 0).any() or ps[-1] >= doc_lens[did]:
                        print(f"ERROR {term}: bad positions doc {did}")
                        errors += 1
            total_cf += int(tf.sum())
            total_df += len(d)
        seen.setdefault(term, [0, 0])
        seen[term][0] += total_cf
        seen[term][1] += total_df
    for term, (cf, df) in seen.items():
        want = dict_stats.get(term)
        if want is None or want != (cf, df):
            print(f"ERROR {term}: dictionary says {want}, postings say {(cf, df)}")
            errors += 1
    if len(seen) != len(dict_stats):
        print(f"ERROR: {len(dict_stats)} dictionary terms, {len(seen)} posting terms")
        errors += 1
    print(f"validate: {len(seen)} terms, {len(known)} docs, {errors} errors")
    if errors:
        raise SystemExit(1)


def cmd_query(reader: IndexReader, text: str, k: str = "10") -> None:
    scorer = BM25Scorer(reader)
    terms = process_query(text, reader.cfg)
    ids, scores = scorer.score_exhaustive(terms, k=int(k))
    for line in format_trec("Q", ids, scores, reader.docnos(ids.tolist())):
        print(line)


def cmd_runquery(reader: IndexReader, queries_path: str, k: str = "10",
                 baseline: str = "bm25", print_snippets: str = "false",
                 print_documents: str = "false", output: str = "trec",
                 participant_id: str = "1", run_id: str = "indri55ray",
                 print_passages: str = "false") -> None:
    """Batch retrieval → TREC run lines (the IndriRunQuery analogue,
    ref:runquery/IndriRunQuery.cpp).  ``queries_path`` holds one query per
    line, ``qid<TAB>text`` or bare text (1-based qids); ``baseline``
    selects bm25 | tfidf | dirichlet | jm | two | indri (the structured
    engine, full query language).  ``print_snippets=true`` prints a
    query-biased snippet under each result line (the ``-printSnippets``
    option, ref:runquery/IndriRunQuery.cpp:494-496); ``print_documents=true``
    prints the stored document text (``-printDocuments``, ref :482-484).
    Both need a ``store_content=True`` build.

    ``output`` selects the reference's three result formats: ``trec``
    (``-trecFormat``), ``plain`` (the default ``score\\tdocno\\tbegin\\t
    end`` lines, ref :476-481) or ``inex`` (the ``<inex-submission>`` XML
    with element paths, ref :467-474).  Under ``plain``/``inex`` (or with
    ``print_passages``) the ``indri`` baseline scores ELEMENT-level
    results for ``#op[f]``/``#op[passageN:M]`` roots
    (pipelines/extents.py); the bag-of-words baselines report document
    results with begin = end = 0.

    ``print_passages=true`` prints each result EXTENT's byte slice of the
    stored text (``-printPassages``, ref :487-492: token positions →
    byte range); zero-length doc-level extents print nothing (the
    reference reads out-of-bounds position memory there — skipping is our
    defined behavior) and combining it with ``output=inex`` is refused to
    keep the XML well-formed (the reference interleaves raw text)."""
    if output not in ("trec", "plain", "inex"):
        raise SystemExit(f"unknown output format {output!r}")
    want_passages = print_passages.lower() in ("true", "1", "yes")
    if want_passages and output == "inex":
        raise SystemExit("print_passages interleaves raw text; "
                         "use output=trec or plain")
    lines = [ln.strip() for ln in Path(queries_path).read_text().splitlines()
             if ln.strip()]
    queries = []
    for i, ln in enumerate(lines):
        if "\t" in ln:
            qid, text = ln.split("\t", 1)
        else:
            qid, text = str(i + 1), ln
        queries.append((qid, text))
    kk = int(k)
    if baseline in ("bm25", "tfidf"):
        scorer = BM25Scorer(
            reader, variant="okapi" if baseline == "bm25" else "tfidf")

        def score(text):
            return scorer.score_exhaustive(process_query(text, reader.cfg), k=kk)
    elif baseline in ("dirichlet", "jm", "two"):
        from .pipelines.feedback import process_query_lm
        from .pipelines.lm import LMScorer

        lm = LMScorer(reader, method=baseline)

        def score(text):
            return lm.score(process_query_lm(text, reader.cfg), k=kk)
    elif baseline == "indri":
        from .pipelines.indriql import StructuredQueryEngine

        eng = StructuredQueryEngine(reader)

        def score(text):
            return eng.run(text, k=kk)
    else:
        raise SystemExit(f"unknown baseline {baseline!r}")
    want_snippets = print_snippets.lower() in ("true", "1", "yes")
    want_documents = print_documents.lower() in ("true", "1", "yes")
    import numpy as np

    from .pipelines.extents import element_paths, format_inex, run_extents

    def score_ext(text):
        if baseline == "indri" and (output != "trec" or want_passages):
            return run_extents(reader, text, k=kk, strict=False)
        ids, sc = score(text)
        z = np.zeros(len(ids), dtype=np.int64)
        return ids, z, z.copy(), sc

    def passage_bytes(tb: bytes, positions, b: int, e: int) -> bytes:
        # -printPassages byte range: positions[begin].begin ..
        # positions[end-1].end (ref:runquery/IndriRunQuery.cpp:487-492)
        if e <= b or e > len(positions):
            return b""
        return tb[positions[b][0]:positions[e - 1][1]]

    mode = reader.cfg.tokenizer or "word"
    if want_passages and mode not in ("word", "char"):
        raise SystemExit(
            f"print_passages needs a built-in tokenizer mode (word|char) "
            f"to map index positions to bytes; index uses {mode!r}")
    topics = []
    for qid, text in queries:
        ids, bs, es, sc = score_ext(text)
        docnos = reader.docnos(ids.tolist())
        if output == "inex":
            paths = element_paths(reader, ids, bs, es)
            topics.append((qid, list(zip(docnos, paths, sc.tolist()))))
            continue
        texts = {}
        if want_documents or want_passages or want_snippets:
            from .pipelines.snippets import _doc_texts

            texts = _doc_texts(reader, ids.tolist())
        snips = {}
        if want_snippets:
            from .pipelines.snippets import build_snippets

            snips = build_snippets(reader, text, ids.tolist(), texts=texts)
        pos_cache: dict[int, list] = {}
        if want_passages:
            from .tokenizer import tokenize_with_offsets

            for did in set(ids.tolist()):
                tb = texts.get(did, "").encode("utf-8")
                pos_cache[did] = [(bb, ee) for _t, bb, ee
                                  in tokenize_with_offsets(tb, mode)]
        trec_lines = (format_trec(qid, ids, sc, docnos)
                      if output == "trec" else [""] * len(ids))
        for i, did in enumerate(ids.tolist()):
            if output == "trec":
                print(trec_lines[i])
            else:
                print(f"{sc[i]:g}\t{docnos[i]}\t{int(bs[i])}\t{int(es[i])}")
            if want_documents:
                print(texts.get(did, ""))
            if want_passages:
                tb = texts.get(did, "").encode("utf-8")
                sl = passage_bytes(tb, pos_cache.get(did, []),
                                   int(bs[i]), int(es[i]))
                if sl:
                    print(sl.decode("utf-8", errors="replace"))
            if want_snippets:
                print(snips.get(did, ""))
    if output == "inex":
        print(format_inex(topics, participant_id=participant_id,
                          run_id=run_id), end="")


def cmd_modifyfields(reader: IndexReader, out_dir: str, *opts: str) -> None:
    """modifyfields <out_dir> [addField=a,b] [removeField=x,y]
    [annotations=path] [numericField=a] [dateField=b] — add/remove indexed
    fields without re-indexing (the ModifyFields app,
    ref:modifyfields/ModifyFields.cpp)."""
    from .pipelines.modify import modify_fields

    names = {"addField": "add_fields", "removeField": "remove_fields",
             "annotations": "annotations", "numericField": "numeric_fields",
             "dateField": "date_fields"}
    kw: dict = {}
    for o in opts:
        k, _, v = o.partition("=")
        if k not in names or not v:
            raise SystemExit(f"modifyfields: unknown option {o!r}")
        kw[names[k]] = v if k == "annotations" else tuple(v.split(","))
    m = modify_fields(_single_index(reader, "modifyfields"), out_dir, **kw)
    print(json.dumps({"fields": m["config"]["fields"],
                      "field_stats": m["field_stats"]}))


COMMANDS = {
    "stats": cmd_stats,
    "term": cmd_term,
    "termpositions": cmd_termpositions,
    "vocabulary": cmd_vocabulary,
    "documentname": cmd_documentname,
    "documenttext": cmd_documenttext,
    "documentid": cmd_documentid,
    "documentvector": cmd_documentvector,
    "invlist": cmd_invlist,
    "xcount": cmd_xcount,
    "dxcount": cmd_dxcount,
    "delete": cmd_delete,
    "compact": cmd_compact,
    "merge": cmd_merge,
    "modifyfields": cmd_modifyfields,
    "validate": cmd_validate,
    "query": cmd_query,
    "runquery": cmd_runquery,
}


def main(argv: list[str]) -> None:
    if len(argv) < 2 or argv[1] not in COMMANDS:
        print(__doc__)
        raise SystemExit(2)
    from .pipelines.repository import Repository

    # a repository dir is read through all of its segments
    if Path(argv[0], Repository.META).exists():
        reader = Repository(argv[0]).reader()
    else:
        reader = IndexReader(argv[0])
    COMMANDS[argv[1]](reader, *argv[2:])


if __name__ == "__main__":
    main(sys.argv[1:])
