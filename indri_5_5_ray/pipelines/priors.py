"""Document priors — the ``makeprior`` + ``#prior(name)`` path.

The reference builds per-document log-prior tables offline (``makeprior/``,
``PriorFactory`` ref:src/PriorFactory.cpp) and applies them at query time via
``PriorNode`` (ref:src/InferenceNetworkBuilder.cpp:788,
``PriorListIterator`` ref:src/Repository.cpp:506-514).

Here a prior is a parquet table ``priors/<name>.parquet`` (doc_id,
log_prior) under the index directory, built by a Ray pipeline over the doc
table; ``StructuredQueryEngine`` resolves ``#prior(name)`` to a per-doc
log-prior belief (documents absent from the table get log(1/N)).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data


def build_length_prior(index_dir: str, name: str = "length",
                       total: float | None = None) -> str:
    """Example prior: P(d) ∝ dl (longer docs more likely a priori) — the
    LengthPrior of the reference (ref:include/indri/QuerySpec.hpp:3222).
    Built distributed over the docs table.  ``total`` overrides the
    normalizer — a multi-segment repository passes the COLLECTION total so
    per-segment priors agree with a monolithic build."""
    ds = ray.data.read_parquet(f"{index_dir}/docs", columns=["doc_id", "dl"])
    if total is None:
        from ray.data.aggregate import Sum

        total = ds.aggregate(Sum("dl", alias_name="total"))["total"]

    def f(batch: pa.Table) -> pa.Table:
        dl = batch.column("dl").to_numpy().astype(np.float64)
        lp = np.log(np.maximum(dl, 1.0) / float(total))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "log_prior": pa.array(lp, pa.float64())})

    import os
    import shutil
    from pathlib import Path

    os.makedirs(f"{index_dir}/priors", exist_ok=True)
    out_dir = f"{index_dir}/priors/{name}"
    shutil.rmtree(out_dir, ignore_errors=True)
    # a legacy single-file prior of the same name would shadow the new
    # directory in load_prior — remove it so the rebuild takes effect
    Path(f"{index_dir}/priors/{name}.parquet").unlink(missing_ok=True)
    # partitioned write straight from the workers (no driver concat) — the
    # docs table is doc_id-ordered per file, so row-group stats let
    # load_prior prune to a candidate doc range at query time
    ds.map_batches(f, batch_format="pyarrow").write_parquet(out_dir)
    return out_dir


def write_prior_table(index_dir: str, name: str, doc_ids, log_priors) -> str:
    """Write an externally-supplied prior (the makeprior ingestion path)."""
    import os

    out_dir = f"{index_dir}/priors"
    os.makedirs(out_dir, exist_ok=True)
    t = pa.table({"doc_id": pa.array(doc_ids, pa.int64()),
                  "log_prior": pa.array(log_priors, pa.float64())})
    pq.write_table(t.sort_by("doc_id"), f"{out_dir}/{name}.parquet")
    return f"{out_dir}/{name}.parquet"


def load_prior(index_dir: str, name: str,
               lo: int | None = None, hi: int | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Load a prior as sorted (doc_ids, log_priors).  Accepts both layouts
    (single ``<name>.parquet`` file or a ``<name>/`` directory of parts);
    ``lo``/``hi`` bound the doc_id range read (``stages.postings.read_range``,
    row-group pruned), so a sharded query only pays for its shard's
    slice."""
    from pathlib import Path

    from ..stages.postings import read_range

    p = Path(index_dir) / "priors" / f"{name}.parquet"
    if not p.exists():
        p = Path(index_dir) / "priors" / name
        if not p.exists():
            raise FileNotFoundError(f"no prior named {name!r} in {index_dir}")
    t = read_range(str(p), "doc_id", lo, hi, columns=["doc_id", "log_prior"])
    ids = t.column("doc_id").to_numpy()
    lps = t.column("log_prior").to_numpy()
    order = np.argsort(ids, kind="stable")
    return ids[order], lps[order]
