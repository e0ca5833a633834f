"""Repository field modification WITHOUT re-indexing — the ModifyFields
app (ref:modifyfields/ModifyFields.cpp:82-341): add or remove indexed
fields of an existing index.  Postings, dictionary, docstore and direct
index are untouched (hard-linked into the output); only the ``fields/``
extent tables, the per-field statistics and the manifest change — the
same contract as the reference, which re-walks every document but never
re-tokenizes the term stream.

Two paths, both exactly equal to a fresh build with the target field
spec (pinned by pytest):

* **remove-only** — metadata-only: no document text is read.  Kept
  extents are re-NUMBERED from the stored rows alone: the original
  ordinal order is (begin asc, end desc, open order) over all indexed
  extents, so the kept extents' original-ordinal order IS the open-order
  subsequence a smaller-spec build would see; ranks are reassigned 1..k
  and parents recomputed with the containment chain
  (ref:src/MemoryIndex.cpp:341-358 numbering).  Per-field row order
  matches ingest's stable (begin, end) sort over CLOSE order — for
  equal-span nested same-field tags close order is reverse open order,
  so descending new-ordinal is the tie-break.
* **add** (optionally with removals) — re-derives the full tag tree per
  document from the content docstore (``store_content`` required, like
  the reference needing the compressed collection) via the SAME
  ``tokenize_bytes_events`` → ``merge_annotation_events`` →
  ``extract_extents_tree`` chain ingest uses, with the new field spec.
  The source index's build-time ``cfg.offset_annotations`` table is
  re-applied (annotation-derived fields survive the rewrite) alongside
  any NEW ``annotations`` side table.  A per-document guard asserts the
  re-tokenized slot count equals the stored ``dl`` — positional
  consistency with the existing postings is checked, not assumed.

Scale shape: one map task per existing chunk file (documents never span
chunk files), each writing its output shard directly; the driver holds
only per-field stat partials (O(#fields × #chunks) tiny rows).  The
annotation side tables are loaded once per worker through a
module-level memo (filesystem broadcast).
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pyarrow.parquet as pq
import ray

from ..config import IndexConfig
from ..stages.ingest import fields_rows_to_table
from ..stages.postings import write_docs
from .build import check_disjoint, sum_field_stats, write_manifest
from .query import read_manifest

# per-worker memoized offset-annotation tables (paths key -> docno ->
# rows), module-level so every task in a worker shares one copy
# (cloudpickle gives nested closures private globals — see
# dedup._load_dup_spill)
_ANN_MEMO: dict[tuple[str, ...], dict[str, list[tuple[str, int, int]]]] = {}


def _load_annotations(paths: tuple[str, ...]
                      ) -> dict[str, list[tuple[str, int, int]]]:
    hit = _ANN_MEMO.get(paths)
    if hit is not None:
        return hit
    from ..fields import load_annotation_table

    anns: dict[str, list[tuple[str, int, int]]] = {}
    for path in paths:
        for dn, rows in load_annotation_table(path).items():
            anns.setdefault(dn, []).extend(rows)
    if len(_ANN_MEMO) > 2:
        _ANN_MEMO.clear()
    _ANN_MEMO[paths] = anns
    return anns


def _link_tree(src: Path, dst: Path) -> None:
    """Recursive hard-link (copy fallback) — handles nested dirs like
    ``priors/<name>/``."""
    dst.mkdir()
    for entry in sorted(os.listdir(src)):
        sp, dp = src / entry, dst / entry
        if sp.is_dir():
            _link_tree(sp, dp)
        else:
            try:
                os.link(sp, dp)
            except OSError:
                shutil.copy2(sp, dp)


def _stats_of(rows: list[tuple]) -> dict[str, list[int]]:
    """Per-field [total_len, extent_count, doc_count] from emitted rows
    ((doc_id, field, begins, ends, ...))."""
    st: dict[str, list[int]] = {}
    for _did, fname, begins, ends, *_ in rows:
        s = st.setdefault(fname, [0, 0, 0])
        s[0] += int(sum(e - b for b, e in zip(begins, ends)))
        s[1] += len(begins)
        s[2] += 1
    return st


@ray.remote(num_cpus=1)
def _remove_task(src: str, dst: str, keep: tuple[str, ...]) -> dict:
    """Remove-only rewrite of one fields chunk file: drop rows of removed
    fields, renumber ordinals/parents over the kept extents."""
    t = pq.read_table(src)
    rows: list[tuple] = []
    # explode per doc: (ordinal, field, begin, end, number) of kept fields
    by_doc: dict[int, list[tuple[int, str, int, int, int]]] = {}
    keep_set = set(keep)
    for did, fname, begins, ends, nums, ords in zip(
            t.column("doc_id").to_pylist(), t.column("field").to_pylist(),
            t.column("begins").to_pylist(), t.column("ends").to_pylist(),
            t.column("numbers").to_pylist(),
            t.column("ordinals").to_pylist()):
        if fname not in keep_set:
            continue
        lst = by_doc.setdefault(int(did), [])
        for b, e, num, o in zip(begins, ends, nums, ords):
            lst.append((int(o), fname, int(b), int(e), int(num)))
    for did in sorted(by_doc):
        exts = sorted(by_doc[did])  # original-ordinal order == open order
        new_ord: dict[int, int] = {}
        parent: dict[int, int] = {}
        chain: list[tuple[int, int]] = []  # (end, new ordinal)
        for rank, (o, _f, b, e, _n) in enumerate(exts):
            new_ord[o] = rank + 1
            while chain and chain[-1][0] <= b:
                chain.pop()
            parent[o] = chain[-1][1] if chain else 0
            chain.append((e, rank + 1))
        per_field: dict[str, list[tuple[int, int, int, int, int]]] = {}
        for o, fname, b, e, num in exts:
            per_field.setdefault(fname, []).append(
                (b, e, num, new_ord[o], parent[o]))
        for fname in sorted(per_field):
            # ingest emits per-field rows in stable (begin, end) order over
            # CLOSE order; equal-span nested tags close LIFO, so descending
            # ordinal is the exact tie-break
            fr = sorted(per_field[fname], key=lambda r: (r[0], r[1], -r[3]))
            rows.append((did, fname,
                         [r[0] for r in fr], [r[1] for r in fr],
                         [r[2] for r in fr], [r[3] for r in fr],
                         [r[4] for r in fr]))
    # written even when empty: every chunk keeps a fields shard, like
    # ingest, so dataset opens on the directory never see zero files
    write_docs(fields_rows_to_table(rows), dst)
    return _stats_of(rows)


@ray.remote(num_cpus=1)
def _derive_task(src: str, dst: str,
                 spec: tuple[str, ...], numeric: tuple[str, ...],
                 dates: tuple[str, ...],
                 annotations: tuple[str, ...]) -> dict:
    """Add-path rewrite: re-derive one docstore chunk's tag tree from
    content with the NEW field spec (ingest's exact chain)."""
    from ..fields import (extract_extents_tree, merge_annotation_events,
                          tokenize_bytes_events)

    t = pq.read_table(src, columns=["doc_id", "docno", "dl", "content"])
    anns = _load_annotations(annotations) if annotations else None
    rows: list[tuple] = []
    for did, docno, dl, content in zip(t.column("doc_id").to_pylist(),
                                       t.column("docno").to_pylist(),
                                       t.column("dl").to_pylist(),
                                       t.column("content").to_pylist()):
        data = (content or "").encode("utf-8")
        raw_tokens, events = tokenize_bytes_events(data)
        if len(raw_tokens) != int(dl):
            raise ValueError(
                f"modify_fields: doc {did} re-tokenizes to "
                f"{len(raw_tokens)} slots but the index stores dl={dl} — "
                "the original build's token stream does not match tagged "
                "re-parsing (index built without field parsing over "
                "tagged text?)")
        if anns is not None:
            a = anns.get(docno)
            if a:
                events = merge_annotation_events(events, a, len(raw_tokens))
        extmap = extract_extents_tree(events, len(raw_tokens), spec,
                                      numeric, dates, raw_tokens)
        for fname, exts in sorted(extmap.items()):
            rows.append((int(did), fname,
                         [b for b, *_ in exts],
                         [e for _b, e, *_ in exts],
                         [num for _b, _e, num, *_ in exts],
                         [o for *_, o, _p in exts],
                         [p for *_, p in exts]))
    write_docs(fields_rows_to_table(rows), dst)
    return _stats_of(rows)


def modify_fields(index_dir: str, out_dir: str,
                  add_fields: tuple[str, ...] = (),
                  remove_fields: tuple[str, ...] = (),
                  annotations: str | None = None,
                  numeric_fields: tuple[str, ...] = (),
                  date_fields: tuple[str, ...] = ()) -> dict:
    """Write a field-modified copy of ``index_dir`` to ``out_dir``.

    ``add_fields`` appends to the indexed field set (tag-parsed from the
    content docstore; ``annotations`` optionally supplies NEW offset
    annotations exactly like build-time ``cfg.offset_annotations``,
    which is re-applied automatically); ``remove_fields`` drops fields.
    ``numeric_fields``/``date_fields`` extend the respective typed sets
    for ADDED fields (a removed field leaves them automatically).
    Returns the new manifest."""
    check_disjoint([index_dir], out_dir, "modify_fields")
    src = Path(index_dir).resolve()
    out = Path(out_dir).resolve()
    manifest = read_manifest(src)
    cfg = IndexConfig.from_dict(manifest["config"])
    rm = set(remove_fields)
    unknown = rm - set(cfg.fields)
    if unknown:
        raise ValueError(f"modify_fields: cannot remove unindexed "
                         f"fields {sorted(unknown)}")
    kept = tuple(f for f in cfg.fields if f not in rm)
    added = tuple(f for f in add_fields if f not in kept)
    new_spec = kept + added
    new_numeric = tuple(f for f in cfg.numeric_fields if f not in rm) + \
        tuple(f for f in numeric_fields if f in added)
    new_dates = tuple(f for f in cfg.date_fields if f not in rm) + \
        tuple(f for f in date_fields if f in added)
    if added and not cfg.store_content:
        raise ValueError("modify_fields: adding fields requires a "
                         "store_content index (the reference needs the "
                         "compressed collection the same way)")
    ann_paths = tuple(p for p in (cfg.offset_annotations, annotations) if p)

    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    for sub in sorted(os.listdir(src)):
        if sub in ("fields", "manifest.json"):
            continue
        sp = src / sub
        if sp.is_dir():
            _link_tree(sp, out / sub)
        else:
            try:
                os.link(sp, out / sub)
            except OSError:
                shutil.copy2(sp, out / sub)

    stats_parts = []
    if new_spec:
        (out / "fields").mkdir()
        if added:
            srcs = sorted((src / "docs").glob("*.parquet"))
            refs = [
                _derive_task.remote(
                    str(p), str(out / "fields" /
                                p.name.replace("docs-", "fields-")),
                    new_spec, new_numeric, new_dates, ann_paths)
                for p in srcs
            ]
        else:
            srcs = sorted((src / "fields").glob("*.parquet"))
            refs = [
                _remove_task.remote(str(p), str(out / "fields" / p.name),
                                    kept)
                for p in srcs
            ]
        stats_parts = ray.get(refs)

    new_cfg = IndexConfig.from_dict({
        **cfg.to_dict(),
        "fields": list(new_spec),
        "numeric_fields": list(new_numeric),
        "date_fields": list(new_dates),
        "offset_annotations": (annotations or cfg.offset_annotations)
        if new_spec else None,
    })
    counts = {k: v for k, v in manifest.items()
              if k not in ("format_version", "config")}
    counts.setdefault("min_doc_id", 0)
    counts.update(field_stats=sum_field_stats(stats_parts),
                  modified_from=str(src))
    return write_manifest(out, new_cfg, **counts)
