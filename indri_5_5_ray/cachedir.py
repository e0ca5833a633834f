"""Content-keyed build-once cache directories.

One definition of the ritual that the derived-table builders share
(synthetic media table, synthetic WARC archives, PageRank scores, and
every ``functions.exchange.bucket_exchange`` spill — dup groups, n-gram
and LM stats, near-dup pairs): build into a FRESH tmp dir, write a completion marker
last, atomically rename into the content-keyed final name, and discard
the tmp copy when a concurrent builder won the rename race (the winner's
dir is complete by construction, so the loser simply reuses it).

Keys embed the source's identity (realpath + st_mtime_ns + size + a
version tag), so a changed input or a changed layout never reuses stale
bytes — the same discipline as ``stages.postings.cached_dataset`` and
the build's corpus_sig.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Callable


def source_key(path: str, version: str) -> str:
    """Cache key for a derived table: basename + nanosecond mtime + size +
    layout version of the source file."""
    st = os.stat(path)
    name = os.path.basename(os.path.realpath(os.path.dirname(path)))
    return f"{name}-{st.st_mtime_ns}-{st.st_size}-{version}"


def ensure_cached_dir(base: str, key: str, build: Callable[[str], None],
                      marker: str = "_COMPLETE") -> str:
    """Return ``base/key``, building it once via ``build(tmp_dir)``.

    ``build`` populates the tmp dir; the marker file is written AFTER the
    build returns (unless the build wrote it itself, e.g. a meta.json that
    carries content), so a dir observed under its final name is always
    complete.  Concurrent builders race on the rename; losers remove their
    tmp copy and share the winner's."""
    final = f"{base}/{key}"
    if os.path.exists(f"{final}/{marker}"):
        return final
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{key}.tmp-", dir=base)
    build(tmp)
    if not os.path.exists(f"{tmp}/{marker}"):
        with open(f"{tmp}/{marker}", "w") as f:
            f.write("ok")
    try:
        os.rename(tmp, final)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # lost the race; reuse winner
    return final
