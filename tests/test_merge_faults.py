"""Fault injection for the shared merge phase (``build.merge_partials``):
the worker running the docno-map task, or one ``MergeWorker`` bucket,
dies mid-task after leaving torn output behind; Ray reruns the task, and
``merge_indexes`` and ``compact_index`` must still write ``postings/``,
``dictionary/`` and ``docnos/`` byte-identical to an unfaulted run."""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SUBS = ("postings", "dictionary", "docnos")


def _bytes(index_dir: Path) -> dict[str, bytes]:
    return {f"{sub}/{p.name}": p.read_bytes() for sub in SUBS
            for p in sorted((index_dir / sub).iterdir())}


def _docno_map_dies_once(marker: Path):
    """``write_docno_map`` whose first run leaves a torn ``.tmp`` and
    kills its worker."""
    from indri_5_5_ray.stages.postings import write_docno_map

    def crash_once(index_dir: str) -> int:
        if not marker.exists():
            marker.touch()
            os.makedirs(f"{index_dir}/docnos", exist_ok=True)
            Path(f"{index_dir}/docnos/docnos.arrow.tmp").write_bytes(b"torn")
            os._exit(1)
        return write_docno_map(index_dir)

    return crash_once


def _merge_worker_dies_once(marker: Path):
    """``MergeWorker`` whose first run of bucket 1 leaves a stale postings
    file and a torn ``.tmp`` (no dictionary slice, no lineage record) and
    kills its worker."""
    from indri_5_5_ray.stages.postings import MergeWorker

    class CrashOnce(MergeWorker):
        def __call__(self, batch: pa.Table) -> pa.Table:
            if batch.column("bucket").to_pylist() == [1] and not marker.exists():
                marker.touch()
                p = Path(self.out_dir, "postings", "postings-00001.arrow")
                p.parent.mkdir(parents=True, exist_ok=True)
                p.write_bytes(b"stale")
                Path(f"{p}.tmp").write_bytes(b"torn")
                os._exit(1)
            return MergeWorker.__call__(self, batch)

    return CrashOnce


@pytest.fixture(scope="module")
def sources(built_index, tmp_path_factory):
    """(index with a deleted list, clean merge_indexes output, clean
    compact_index output)."""
    from indri_5_5_ray.pipelines.merge import merge_indexes
    from indri_5_5_ray.pipelines.repository import compact_index

    d = tmp_path_factory.mktemp("merge_faults")
    victim = d / "victim"
    shutil.copytree(built_index[0], victim)
    pq.write_table(pa.table({"doc_id": pa.array([3, 64, 65, 200], pa.int64())}),
                   victim / "deleted.parquet")
    merge_indexes([built_index[0], str(victim)], str(d / "merged"), resume=False)
    compact_index(str(victim), str(d / "compacted"))
    return victim, d / "merged", d / "compacted"


@pytest.mark.parametrize("target", ["docno_map", "merge_worker"])
@pytest.mark.parametrize("writer", ["merge_indexes", "compact_index"])
def test_merge_phase_task_death_reruns_to_identical_bytes(
        built_index, sources, tmp_path, monkeypatch, writer, target):
    import indri_5_5_ray.pipelines.build as build
    from indri_5_5_ray.pipelines.merge import merge_indexes
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.repository import compact_index

    victim, merged, compacted = sources
    marker = tmp_path / "died"
    if target == "docno_map":
        monkeypatch.setattr(build, "write_docno_map", _docno_map_dies_once(marker))
    else:
        monkeypatch.setattr(build, "MergeWorker", _merge_worker_dies_once(marker))
    out = tmp_path / "out"
    if writer == "merge_indexes":
        merge_indexes([built_index[0], str(victim)], str(out), resume=False)
        want = merged
    else:
        compact_index(str(victim), str(out))
        want = compacted
    assert marker.exists()  # the first attempt really died mid-task
    assert _bytes(out) == _bytes(want)
    r = IndexReader(str(out))
    assert r.docnos([0, r.manifest["max_doc_id"]]).null_count == 0
