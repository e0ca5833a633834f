"""Build determinism, golden-shard equivalence, and kill -9 resume.

FIXTURES.md §4/§8: the same corpus must produce byte-identical postings
shards on every build (clean, rebuilt, or killed-and-resumed), and a rerun
must skip completed partitions (lineage hits).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest


def _index_fingerprint(index_dir: str) -> dict[str, str]:
    """sha256 of the *logical content* of every postings/docnos (Arrow IPC)
    and dictionary/docs (parquet) file — decoded rows, not file bytes, since
    parquet metadata embeds timestamps."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    out = {}
    for sub, pattern in (("postings", "*.arrow"), ("dictionary", "*.parquet"),
                         ("docs", "*.parquet"), ("docnos", "*.arrow")):
        files = sorted(Path(index_dir, sub).glob(pattern))
        assert files, f"no {pattern} files in {sub}/"
        for f in files:
            t = (pa.ipc.open_file(f).read_all() if f.suffix == ".arrow"
                 else pq.read_table(f))
            h = hashlib.sha256()
            for col in sorted(t.column_names):
                h.update(col.encode())
                for chunk in t.column(col).chunks:
                    h.update(str(chunk.to_pylist()).encode())
            out[f"{sub}/{f.name}"] = h.hexdigest()
    return out


def test_build_is_deterministic(small_corpus_dir, tmp_path):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    cfg = IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key="sha256")
    m1 = build_index(small_corpus_dir, str(tmp_path / "a"), cfg, resume=False)
    m2 = build_index(small_corpus_dir, str(tmp_path / "b"), cfg, resume=False)
    assert m1["doc_count"] == m2["doc_count"]
    fp1 = _index_fingerprint(str(tmp_path / "a"))
    fp2 = _index_fingerprint(str(tmp_path / "b"))
    assert fp1 == fp2  # golden-shard equivalence, every shard


KILL_SCRIPT = r"""
import sys, ray
ray.init(address="local", num_cpus=4, include_dashboard=False)
from indri_5_5_ray.config import IndexConfig
from indri_5_5_ray.pipelines.build import build_index
cfg = IndexConfig(max_chunk_docs=32, n_buckets=4, dedup_key="sha256")
build_index(sys.argv[1], sys.argv[2], cfg, resume=True)
print("BUILD_DONE")
"""


@pytest.mark.timeout(600)
def test_kill9_resume_produces_identical_index(small_corpus_dir, tmp_path):
    """SIGKILL the build mid-ingest; the resumed build must (a) skip the
    chunks that committed lineage and (b) produce an index byte-identical
    to an uninterrupted build."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.state.lineage import all_records

    clean_dir = str(tmp_path / "clean")
    cfg = IndexConfig(max_chunk_docs=32, n_buckets=4, dedup_key="sha256")
    build_index(small_corpus_dir, clean_dir, cfg, resume=False)
    want_fp = _index_fingerprint(clean_dir)

    killed_dir = str(tmp_path / "killed")
    script = tmp_path / "kill_build.py"
    script.write_text(KILL_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent)
    env.pop("RAY_ADDRESS", None)
    p = subprocess.Popen(
        [sys.executable, str(script), small_corpus_dir, killed_dir],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    # wait until some ingest lineage exists, then SIGKILL the whole group
    deadline = time.time() + 240
    while time.time() < deadline:
        recs = [r for r in all_records(killed_dir) if r["stage"] == "ingest"]
        if len(recs) >= 2:
            break
        if p.poll() is not None:
            break
        time.sleep(0.25)
    if p.poll() is None:
        os.killpg(os.getpgid(p.pid), signal.SIGKILL)
        p.wait(timeout=30)
    done_before = {r["partition_id"] for r in all_records(killed_dir) if r["stage"] == "ingest"}
    assert not (Path(killed_dir) / "manifest.json").exists() or done_before, (
        "build finished before it could be killed — corpus too small for the test"
    )

    # resume in a fresh subprocess (our own Ray session must not be reused)
    out = subprocess.run(
        [sys.executable, str(script), small_corpus_dir, killed_dir],
        env=env, capture_output=True, text=True, timeout=500,
    )
    assert "BUILD_DONE" in out.stdout, out.stderr[-2000:]

    assert (Path(killed_dir) / "manifest.json").exists()
    got_fp = _index_fingerprint(killed_dir)
    assert got_fp == want_fp

    m_clean = json.loads((Path(clean_dir) / "manifest.json").read_text())
    m_killed = json.loads((Path(killed_dir) / "manifest.json").read_text())
    for key in ("doc_count", "total_terms", "unique_terms", "max_doc_id"):
        assert m_clean[key] == m_killed[key]
