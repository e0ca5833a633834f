"""Repository lifecycle — incremental adds, deletion, trim/merge, compact.

The reference keeps a repository of NUMBERED partial indexes plus an active
in-memory one: ``addDocument`` fills the memory index, ``_trimIndexes``/
``_merge`` fold older partial indexes together under a write lock, a
``DeletedDocumentList`` bitmap masks deleted docs until ``compact`` rewrites
the index without them (ref:src/Repository.cpp:754-1045,
ref:src/DeletedDocumentList.cpp, ref:dumpindex/dumpindex.cpp delete/compact).

Ray analogue: every ``add()`` is a normal (parallel, resumable) segment
build with a disjoint docID range (``build_index(doc_id_base=…)``); queries
run over all segments through ``MultiIndexReader`` (global statistics are
the segment sums, so scores are identical to a single merged index);
``trim()`` folds all segments into one with the existing offline merge
machinery; ``delete()`` appends to the repository's deleted list, which
every scorer masks rank-safely; ``compact()`` = trim + physically dropping
deleted docs from the partials before the re-merge (statistics recomputed,
like the reference's compacted repository).
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray

from ..config import IndexConfig
from ..stages.postings import MergeWorker
from .build import build_index
from .query import IndexReader, deleted_keep_mask, load_deleted


class MultiIndexReader:
    """IndexReader-compatible view over N segment indexes with DISJOINT
    docID ranges.  Statistics are the segment sums (global, so any scorer
    produces scores identical to the merged single index); per-term reads
    concatenate the segments' bucket-pruned reads."""

    def __init__(self, index_dirs: list[str], deleted_path: str | None = None):
        self.readers = [IndexReader(d) for d in index_dirs]
        if not self.readers:
            raise ValueError("no segments")
        cfg0 = self.readers[0].cfg
        for r in self.readers[1:]:
            if r.cfg.to_dict() != cfg0.to_dict():
                raise ValueError("segment configs differ")
        self.cfg = cfg0
        self.doc_count = sum(r.doc_count for r in self.readers)
        self.total_terms = sum(r.total_terms for r in self.readers)
        self.avgdl = self.total_terms / self.doc_count
        self.manifest = {
            "max_doc_id": max(r.manifest["max_doc_id"] for r in self.readers),
            "config": cfg0.to_dict(),
            "doc_count": self.doc_count,
            "total_terms": self.total_terms,
        }
        self.index_dir = index_dirs[0]  # for priors/wildcards of segment 0
        self.deleted: np.ndarray | None = (
            load_deleted(deleted_path) if deleted_path else None)
        self._doc_lens: np.ndarray | None = None

    def keep_mask(self, doc_ids: np.ndarray) -> np.ndarray:
        return deleted_keep_mask(self.deleted, doc_ids)

    def _dset(self, sub: str):
        """Schema probe (segment configs are identical, so any segment's
        dataset schema stands for all)."""
        return self.readers[0]._dset(sub)

    def _point_read(self, sub: str, doc_ids: list[int], columns: list[str]):
        """doc_id point read across segments (disjoint ranges: each
        segment's row-group-pruned read returns only its own hits)."""
        parts = [r._point_read(sub, doc_ids, columns) for r in self.readers]
        hit = [p for p in parts if p.num_rows]
        return pa.concat_tables(hit) if hit else parts[0]

    def doc_lens(self) -> np.ndarray:
        if self._doc_lens is None:
            arr = np.zeros(self.manifest["max_doc_id"] + 1, dtype=np.int32)
            for r in self.readers:
                t = pq.read_table(f"{r.index_dir}/docs", columns=["doc_id", "dl"])
                arr[t.column("doc_id").to_numpy()] = t.column("dl").to_numpy()
            self._doc_lens = arr
        return self._doc_lens

    def doc_lens_range(self, lo: int, hi: int) -> np.ndarray:
        hi = min(hi, self.manifest["max_doc_id"] + 1)
        if hi <= lo:
            return np.empty(0, np.int32)
        out = np.zeros(hi - lo, dtype=np.int32)
        for r in self.readers:
            r_lo = max(lo, r.manifest.get("min_doc_id", 0))
            r_hi = min(hi, r.manifest["max_doc_id"] + 1)
            if r_lo >= r_hi:
                continue
            sl = r.doc_lens_range(r_lo, r_hi)
            out[r_lo - lo : r_hi - lo] = np.maximum(out[r_lo - lo : r_hi - lo], sl)
        return out

    def docnos(self, doc_ids: list[int]) -> list[str]:
        lookup: dict[int, str] = {}
        for r in self.readers:
            for d, n in zip(doc_ids, r.docnos(doc_ids)):
                if n:
                    lookup[d] = n
        return [lookup.get(d, "") for d in doc_ids]

    def term_rows(self, terms: list[str],
                  doc_range: tuple[int, int] | None = None) -> pa.Table:
        tables = [t for t in (r.term_rows(terms, doc_range)
                              for r in self.readers) if t.num_rows]
        from ..stages.postings import POSTINGS_SCHEMA

        if not tables:
            return POSTINGS_SCHEMA.empty_table()
        return pa.concat_tables(tables).sort_by(
            [("term", "ascending"), ("first_doc", "ascending")]
        )

    def term_payloads(self, terms: list[str],
                      rows: pa.Table | None = None) -> list[bytes]:
        """Payload bytes row-aligned with :meth:`term_rows`.  Extracted from
        the caller's already-fetched ``rows`` table when given (the scorer
        always passes it), so the multi-segment view never re-runs the
        per-segment fetch + global sort just to read the payload column."""
        if rows is None:
            rows = self.term_rows(terms)
        return rows.column("postings").to_pylist()

    def term_stats(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        out: dict[str, tuple[int, int]] = {}
        for r in self.readers:
            for t, (cf, df) in r.term_stats(terms).items():
                prev = out.get(t, (0, 0))
                out[t] = (prev[0] + cf, prev[1] + df)
        return out

    def doc_vectors(self, doc_ids: list[int]) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {}
        for r in self.readers:
            out.update(r.doc_vectors(doc_ids))
        return out

    def field_stats(self, field: str) -> dict | None:
        agg: dict[str, int] | None = None
        for r in self.readers:
            st = r.field_stats(field)
            if st is None:
                continue
            if agg is None:
                agg = dict(st)
            else:
                for k, v in st.items():
                    agg[k] += v
        return agg

    def dictionary_prefix(self, prefix: str, cap: int) -> list[str]:
        terms: set[str] = set()
        for r in self.readers:
            terms.update(r.dictionary_prefix(prefix, cap))
        return sorted(terms)[:cap]

    def load_prior(self, name: str, lo: int | None = None,
                   hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated per-segment priors (docID ranges are disjoint, so
        the concat re-sorts trivially); segments without the prior fall
        back to the engine's absent-doc default at scoring time."""
        ids_parts, lp_parts = [], []
        for r in self.readers:
            try:
                i, l = r.load_prior(name, lo, hi)
            except FileNotFoundError:
                continue
            ids_parts.append(i)
            lp_parts.append(l)
        if not ids_parts:
            raise FileNotFoundError(f"no segment has a prior named {name!r}")
        ids = np.concatenate(ids_parts)
        lps = np.concatenate(lp_parts)
        order = np.argsort(ids, kind="stable")
        return ids[order], lps[order]

    def field_extents(self, field: str, doc_ids: list[int] | None = None,
                      doc_range: tuple[int, int] | None = None) -> pa.Table:
        tables = []
        for r in self.readers:
            try:
                tables.append(r.field_extents(field, doc_ids, doc_range))
            except FileNotFoundError:
                continue
        if not tables:
            raise FileNotFoundError("no segment has a fields file")
        # permissive: a pre-ordinal segment returns 4 columns, a new one 6
        return pa.concat_tables(tables, promote_options="permissive")


class Repository:
    """Directory of numbered segment indexes + deleted list + metadata."""

    META = "repository.json"

    def __init__(self, repo_dir: str):
        self.dir = Path(repo_dir)
        self.meta = json.loads((self.dir / self.META).read_text())
        self.cfg = IndexConfig.from_dict(self.meta["config"])

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, repo_dir: str, cfg: IndexConfig | None = None) -> "Repository":
        d = Path(repo_dir)
        d.mkdir(parents=True, exist_ok=True)
        (d / "segments").mkdir(exist_ok=True)
        meta = {
            "format_version": 1,
            "config": (cfg or IndexConfig()).to_dict(),
            "segments": [],
            "next_doc_id_base": 0,
            "next_segment": 0,
        }
        (d / cls.META).write_text(json.dumps(meta, indent=2))
        return cls(repo_dir)

    def _save(self) -> None:
        tmp = self.dir / (self.META + ".tmp")
        tmp.write_text(json.dumps(self.meta, indent=2))
        tmp.replace(self.dir / self.META)

    def segment_dirs(self) -> list[str]:
        return [str(self.dir / "segments" / s) for s in self.meta["segments"]]

    # -- adds ----------------------------------------------------------------

    def add(self, corpus: str | list[str]) -> dict:
        """Incremental add: build a new numbered segment over ``corpus`` with
        a disjoint docID range (the numbered-partial-index add,
        ref:src/Repository.cpp:754-820).  Resumable like any build."""
        seg_name = f"seg-{self.meta['next_segment']:05d}"
        seg_dir = self.dir / "segments" / seg_name
        manifest = build_index(
            corpus, str(seg_dir), self.cfg, resume=True,
            doc_id_base=self.meta["next_doc_id_base"],
        )
        self.meta["segments"].append(seg_name)
        self.meta["next_segment"] += 1
        self.meta["next_doc_id_base"] = manifest["max_doc_id"] + 1
        self._save()
        return manifest

    # -- reads ---------------------------------------------------------------

    def reader(self) -> MultiIndexReader | IndexReader:
        return MultiIndexReader(self.segment_dirs(),
                                deleted_path=str(self.dir / "deleted.parquet"))

    def build_length_prior(self, name: str = "length") -> None:
        """Build the length prior on every segment, normalized by the
        COLLECTION total (segment manifests already carry Σdl as
        total_terms), so multi-segment scoring is identical to a
        monolithic index's prior."""
        from .priors import build_length_prior

        total = 0
        for seg in self.segment_dirs():
            total += json.loads(
                (Path(seg) / "manifest.json").read_text())["total_terms"]
        for seg in self.segment_dirs():
            build_length_prior(seg, name, total=float(total))

    # -- deletes -------------------------------------------------------------

    def delete(self, doc_ids: list[int]) -> int:
        """Mark docs deleted (visible to every reader opened afterwards)."""
        path = self.dir / "deleted.parquet"
        prev = (pq.read_table(path).column("doc_id").to_numpy()
                if path.exists() else np.empty(0, np.int64))
        merged = np.unique(np.concatenate([prev, np.asarray(doc_ids, np.int64)]))
        tmp = path.with_suffix(".tmp")
        pq.write_table(pa.table({"doc_id": pa.array(merged, pa.int64())}), tmp)
        tmp.replace(path)
        return len(merged)

    def delete_docnos(self, docnos: list[str]) -> int:
        want = sorted(set(docnos))
        ids: list[int] = []
        for seg in self.segment_dirs():
            dset = pads.dataset(f"{seg}/docs", format="parquet")
            t = dset.to_table(filter=pads.field("docno").isin(want),
                              columns=["doc_id"])
            ids.extend(t.column("doc_id").to_pylist())
        return self.delete(ids)

    def deleted(self) -> np.ndarray:
        path = self.dir / "deleted.parquet"
        if not path.exists():
            return np.empty(0, np.int64)
        return pq.read_table(path).column("doc_id").to_numpy()

    # -- trim / compact ------------------------------------------------------

    def trim(self, max_segments: int = 1) -> None:
        """Fold the NEWEST segments together so at most ``max_segments``
        remain — the reference trims recent small partials and leaves older
        (large) indexes untouched (ref:src/Repository.cpp:754-812); docIDs
        are already disjoint so the merge needs no rebase."""
        if len(self.meta["segments"]) <= max_segments:
            return
        self._merge_segments(
            drop_deleted=False,
            names=self.meta["segments"][max(0, max_segments - 1):])

    def compact(self) -> None:
        """Merge all segments AND physically drop deleted docs, then clear
        the deleted list (ref:dumpindex compact)."""
        self._merge_segments(drop_deleted=True)
        p = self.dir / "deleted.parquet"
        if p.exists():
            p.unlink()

    def _merge_segments(self, drop_deleted: bool,
                        names: list[str] | None = None) -> None:
        """Merge the ``names`` segments (default: all) into one new segment;
        untouched segments keep their position ahead of it."""
        deleted = self.deleted() if drop_deleted else np.empty(0, np.int64)
        names = list(self.meta["segments"]) if names is None else list(names)
        kept = [s for s in self.meta["segments"] if s not in names]
        seg_dirs = [str(self.dir / "segments" / s) for s in names]
        out = self.dir / "segments" / f"seg-{self.meta['next_segment']:05d}"
        out_tmp = Path(str(out) + ".building")
        _build_merged(seg_dirs, out_tmp, self.cfg, deleted,
                      plan_fp=f"repo-merge:{':'.join(names)}:{len(deleted)}")
        out_tmp.replace(out)
        self.meta["segments"] = kept + [out.name]
        self.meta["next_segment"] += 1
        self._save()
        for s in names:
            shutil.rmtree(self.dir / "segments" / s, ignore_errors=True)



def compact_index(index_dir: str, out_dir: str) -> dict:
    """Compact a single index: rewrite it without its deleted docs and with
    recomputed collection statistics (``dumpindex compact``,
    ref:dumpindex/dumpindex.cpp, ref:src/Repository.cpp:1198-1215)."""
    reader = IndexReader(index_dir)
    deleted = reader.deleted if reader.deleted is not None else np.empty(0, np.int64)
    out_tmp = Path(str(out_dir) + ".building")
    m = _build_merged([index_dir], out_tmp, reader.cfg, deleted,
                      plan_fp=f"compact:{index_dir}:{len(deleted)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    out_tmp.replace(Path(out_dir))
    return m


def _build_merged(seg_dirs: list[str], out_tmp: Path, cfg: IndexConfig,
                  deleted: np.ndarray, plan_fp: str) -> dict:
    """Filter-copy docs/partials/direct/fields of every segment into
    ``out_tmp`` (dropping ``deleted`` docs), run the bucketed merge, and
    write a manifest with statistics recomputed from the kept docs."""
    deleted = np.sort(np.asarray(deleted, dtype=np.int64))
    shutil.rmtree(out_tmp, ignore_errors=True)
    (out_tmp / "partials").mkdir(parents=True)
    (out_tmp / "docs").mkdir()
    cfg_dict = cfg.to_dict()
    del_ref = ray.put(deleted)

    @ray.remote(num_cpus=1)
    def filter_copy(kind: str, src: str, dst: str) -> int:
        dele = ray.get(del_ref)
        t = pq.read_table(src)
        if kind == "partials":
            if len(dele):
                t = _filter_partials(t, dele)
            pq.write_table(t, dst, row_group_size=max(256, t.num_rows // 32))
            return t.num_rows
        if len(dele) and "doc_id" in t.column_names:
            ids = t.column("doc_id").to_numpy()
            keep = ~np.isin(ids, dele)
            t = t.filter(pa.array(keep))
        if kind == "docs" and "content" in t.column_names:
            # keep the content docstore's point-read layout (256-row
            # groups, stages/ingest.py) through trim/compact rewrites
            pq.write_table(t, dst, row_group_size=256)
        else:
            pq.write_table(t, dst)
        return t.num_rows

    tasks = []
    for i, seg in enumerate(seg_dirs):
        for sub in ("docs", "partials", "direct", "fields"):
            src_dir = Path(seg) / sub
            if not src_dir.exists():
                continue
            (out_tmp / sub).mkdir(exist_ok=True)
            for f in sorted(src_dir.glob("*.parquet")):
                kind = "partials" if sub == "partials" else "docs"
                tasks.append(filter_copy.remote(
                    kind, str(f), str(out_tmp / sub / f"s{i}-{f.name}")))
    ray.get(tasks)

    @ray.remote(num_cpus=1)
    def merge_task(bucket: int) -> dict:
        t = MergeWorker(str(out_tmp), cfg_dict, plan_fp)(
            pa.table({"bucket": pa.array([bucket], pa.int32())})
        )
        return t.to_pylist()[0] if t.num_rows else {}

    merge_records = ray.get([merge_task.remote(b) for b in range(cfg.n_buckets)])

    # statistics recomputed from the kept docs (post-compaction the
    # collection statistics exclude deleted docs, like the reference)
    doc_count = 0
    total_terms = 0
    max_doc_id = 0
    min_doc_id = None
    for f in sorted((out_tmp / "docs").glob("*.parquet")):
        t = pq.read_table(f, columns=["doc_id", "dl"])
        doc_count += t.num_rows
        if t.num_rows:
            total_terms += int(pa.compute.sum(t.column("dl")).as_py())
            ids = t.column("doc_id").to_numpy()
            max_doc_id = max(max_doc_id, int(ids.max()))
            min_doc_id = int(ids.min()) if min_doc_id is None else min(min_doc_id, int(ids.min()))
    field_stats: dict[str, dict[str, int]] = {}
    for seg in seg_dirs:  # summed as-built (field totals are refreshed by a
        # full rebuild; pre-rebuild they keep deleted docs' extents, the same
        # freshness contract the reference gives un-compacted statistics)
        m = json.loads((Path(seg) / "manifest.json").read_text())
        for fname, st in (m.get("field_stats") or {}).items():
            agg = field_stats.setdefault(
                fname, {"total_len": 0, "extent_count": 0, "doc_count": 0})
            for k, v in st.items():
                agg[k] += v
    manifest = {
        "format_version": 1,
        "config": cfg_dict,
        "doc_count": doc_count,
        "total_terms": total_terms,
        "max_doc_id": max_doc_id,
        "min_doc_id": min_doc_id or 0,
        "unique_terms": sum(r.get("n_terms", 0) for r in merge_records),
        "field_stats": field_stats,
        "compacted": bool(len(deleted)),
        "n_chunks": 0,
        "n_ingested": 0,
        "timings": {},
    }
    (out_tmp / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


def _filter_partials(t: pa.Table, deleted: np.ndarray) -> pa.Table:
    """Drop deleted docs from a partials table, vectorized.

    Detection is ONE flattened isin over every row's doc_ids; rows losing
    no docs pass through as a filter (the merge reducer re-sorts its
    bucket, so row order is free, ref:stages/postings.py merge_bucket);
    only rows that actually lose docs are rebuilt (list slices + pos_bytes
    byte-range slices via pos_byte_lens)."""
    if t.num_rows == 0:
        return t
    from ..stages.postings import _flatten_list_column

    flat, lengths = _flatten_list_column(t, "doc_ids")
    keep_flat = ~np.isin(flat, deleted)
    if keep_flat.all():
        return t
    offs = np.concatenate(([0], np.cumsum(lengths)))
    cum = np.concatenate(([0], np.cumsum(keep_flat)))
    kept_counts = cum[offs[1:]] - cum[offs[:-1]]
    full = kept_counts == lengths
    affected = (~full) & (kept_counts > 0)
    untouched = t.filter(pa.array(full))
    rows = np.flatnonzero(affected)
    if not len(rows):
        return untouched
    tf_flat = _flatten_list_column(t, "tfs")[0]
    dl_flat = _flatten_list_column(t, "dls")[0]
    blens_flat, blens_lengths = _flatten_list_column(t, "pos_byte_lens")
    boffs = np.concatenate(([0], np.cumsum(blens_lengths)))
    sub = t.take(pa.array(rows, pa.int64()))
    new_ids, new_tfs, new_dls = [], [], []
    new_first, new_last = [], []
    new_payloads, new_blens = [], []
    for ri, i in enumerate(rows.tolist()):
        a, b = offs[i], offs[i + 1]
        keep = keep_flat[a:b]
        kept_ids = flat[a:b][keep]
        new_ids.append(kept_ids.tolist())
        new_tfs.append(tf_flat[a:b][keep].tolist())
        new_dls.append(dl_flat[a:b][keep].tolist())
        new_first.append(int(kept_ids[0]))
        new_last.append(int(kept_ids[-1]))
        blens = blens_flat[boffs[i]:boffs[i + 1]]
        if len(blens):
            payload = sub.column("pos_bytes")[ri].as_py()
            starts = np.concatenate(([0], np.cumsum(blens)))
            new_payloads.append(b"".join(
                payload[starts[j]:starts[j + 1]] for j in np.nonzero(keep)[0]))
            new_blens.append(blens[keep].tolist())
        else:
            new_payloads.append(sub.column("pos_bytes")[ri].as_py())
            new_blens.append([])
    from ..stages.postings import PARTIALS_SCHEMA

    def _set(tbl: pa.Table, name: str, arr: pa.Array) -> pa.Table:
        return tbl.set_column(tbl.column_names.index(name), name, arr)

    sub = _set(sub, "doc_ids", pa.array(new_ids, pa.list_(pa.int64())))
    sub = _set(sub, "tfs", pa.array(new_tfs, PARTIALS_SCHEMA.field("tfs").type))
    sub = _set(sub, "dls", pa.array(new_dls, PARTIALS_SCHEMA.field("dls").type))
    sub = _set(sub, "first_doc", pa.array(new_first, pa.int64()))
    sub = _set(sub, "last_doc", pa.array(new_last, pa.int64()))
    sub = _set(sub, "pos_bytes", pa.array(new_payloads,
                                          PARTIALS_SCHEMA.field("pos_bytes").type))
    sub = _set(sub, "pos_byte_lens",
               pa.array(new_blens, PARTIALS_SCHEMA.field("pos_byte_lens").type))
    return pa.concat_tables([untouched, sub.cast(PARTIALS_SCHEMA)])
