"""Repository lifecycle — incremental adds, deletion, trim/merge, compact.

The reference keeps a repository of NUMBERED partial indexes plus an active
in-memory one: ``addDocument`` fills the memory index, ``_trimIndexes``/
``_merge`` fold older partial indexes together under a write lock, a
``DeletedDocumentList`` bitmap masks deleted docs until ``compact`` rewrites
the index without them (ref:src/Repository.cpp:754-1045,
ref:src/DeletedDocumentList.cpp, ref:dumpindex/dumpindex.cpp delete/compact).

Ray analogue: every ``add()`` is a normal (parallel, resumable) segment
build with a disjoint docID range (``build_index(doc_id_base=…)``); queries
run over all segments through one ``IndexReader`` opened on every segment
dir (global statistics are the segment sums, so scores are identical to a
single merged index);
``trim()`` folds the newest segments into one through the offline merge's
copy step (``merge.write_merged``) and the build's own merge phase, so
trim and compaction bound reducer fan-in and declare merge memory exactly
like a build; ``delete()`` appends to the repository's deleted list, which
every scorer masks rank-safely; ``compact()`` = trim + physically dropping
deleted docs in that copy step (statistics recomputed, like the
reference's compacted repository).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import IndexConfig
from .build import build_index, sum_field_stats, write_manifest
from .merge import write_merged
from .query import IndexReader


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

    def reader(self) -> IndexReader:
        return IndexReader(self.segment_dirs(),
                           deleted_path=str(self.dir / "deleted.parquet"))

    def build_length_prior(self, name: str = "length") -> None:
        """Build the length prior on every segment, normalized by the
        COLLECTION total (Σdl, the reader's total_terms), so multi-segment
        scoring is identical to a monolithic index's prior."""
        from .priors import build_length_prior

        total = self.reader().total_terms
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
        return self.delete(self.reader().doc_ids_of(docnos).tolist())

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
    """Copy the segments into ``out_tmp`` without the ``deleted`` docs (no
    rebase: segment docIDs are already disjoint), run the build's merge
    phase, and write a manifest with statistics recomputed from the kept
    docs."""
    shutil.rmtree(out_tmp, ignore_errors=True)
    unique_terms, timings = write_merged(
        seg_dirs, out_tmp, cfg, [0] * len(seg_dirs), deleted, plan_fp)

    # statistics recomputed from the kept docs (post-compaction the
    # collection statistics exclude deleted docs, like the reference)
    doc_count = total_terms = 0
    lo, hi = [], []
    for f in sorted((out_tmp / "docs").glob("*.parquet")):
        t = pq.read_table(f, columns=["doc_id", "dl"])
        if t.num_rows:
            doc_count += t.num_rows
            total_terms += int(pa.compute.sum(t.column("dl")).as_py())
            ids = t.column("doc_id").to_numpy()
            lo.append(int(ids.min()))
            hi.append(int(ids.max()))
    # field totals are summed as-built (refreshed by a full rebuild;
    # pre-rebuild they keep deleted docs' extents, the same freshness
    # contract the reference gives un-compacted statistics)
    field_stats = sum_field_stats(
        json.loads((Path(seg) / "manifest.json").read_text()).get("field_stats")
        for seg in seg_dirs)
    return write_manifest(
        out_tmp, cfg, doc_count=doc_count, total_terms=total_terms,
        min_doc_id=min(lo, default=0), max_doc_id=max(hi, default=0),
        unique_terms=unique_terms, field_stats=field_stats, timings=timings,
        compacted=bool(len(deleted)), n_chunks=0, n_ingested=0)
