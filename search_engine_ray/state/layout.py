"""The on-disk layout of a built index: where each store lives and the
readers the query side needs from it.

A served index is read driver-side, with no cluster round trip: the
search engine, the HTTP server, the CLI reads, the statistics and the
delta writes (``pipelines/delta.py``) all find their files here. This
module imports no Ray, so none of those paths loads Ray; the build
pipelines (``pipelines/build.py``, ``pipelines/phrase_aux.py``) import
their paths from here and re-export them.

Layout under ``out_dir``:

- ``stageA/``              stage-A analysis checkpoints (flat postings,
                           doc rows) and their ``_manifests/``;
- ``docs/``                the docid-sorted doc store;
- ``lemma_dict/lemma_dict.parquet``  the lemma-sorted dictionary;
- ``index/``               the ``lemma_h``-sorted posting blocks;
- ``build.json``           the build manifest;
- ``convs.parquet``        the conv rank map, once compaction wrote it;
- ``stop.flag``            a pending cooperative build stop;
- ``delta/gen-NNNN/``      incremental re-index generations;
- ``phrase_aux/`` + ``phrase_aux.json``  the hot-bigram aux phrase index.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.encode import binary_column_buffers
from . import codec
from .columns import read_table, to_arrow, to_numpy
from .manifest import load_json


def stage_a_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "stageA")


def docs_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "docs")


def lemma_dict_path(out_dir: str) -> str:
    return os.path.join(out_dir, "lemma_dict", "lemma_dict.parquet")


def index_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "index")


def build_manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "build.json")


def stop_flag_path(out_dir: str) -> str:
    return os.path.join(out_dir, "stop.flag")


def request_stop(out_dir: str) -> dict:
    """Ask a running build on ``out_dir`` to stop at the next
    cooperative checkpoint (between analyzer batches / partitions /
    stages). The flag lives under the index out_dir, which is shared
    storage on a real cluster — every analyzer actor sees it. Returns a
    reference-style response dict."""
    if not os.path.isdir(out_dir):
        return {"result": False, "error": f"no index dir at {out_dir}"}
    with open(stop_flag_path(out_dir), "w") as f:
        f.write("stop")
    return {"result": True, "error": None}


def _load_sorted_convs(out_dir: str) -> pa.Array:
    """conv rank map: the compaction-written sidecar when present (ranks
    must outlive doc rows — a conv re-indexed to zero turns keeps its
    rank), else derived from the written doc store (docs/ is
    docid-sorted, so unique conv_ids in order ARE the rank order)."""
    sidecar = os.path.join(out_dir, "convs.parquet")
    if os.path.exists(sidecar):
        return read_table(sidecar).column("conv_id").combine_chunks()
    t = read_table(docs_dir(out_dir), columns=["conv_id"])
    return pc.unique(t.column("conv_id").combine_chunks())


# ---- delta generations (pipelines/delta.py writes them) ----

def delta_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "delta")


def list_generations(out_dir: str) -> list[dict]:
    """Delta generation manifests, ascending generation order."""
    d = delta_dir(out_dir)
    if not os.path.isdir(d):
        return []
    out = []
    for name in sorted(os.listdir(d)):
        m = load_json(os.path.join(d, name, "manifest.json"))
        if m and m.get("state") == "DONE":
            m["_dir"] = os.path.join(d, name)
            out.append(m)
    return sorted(out, key=lambda m: m["generation"])


# ---- hot-bigram aux phrase index (pipelines/phrase_aux.py builds it) ----

AUX_VERSION = "1"


def aux_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "phrase_aux")


def aux_manifest_path(out_dir: str) -> str:
    # sibling of the parquet dir (a JSON inside it would break the
    # pyarrow dataset reads in read_pair)
    return os.path.join(out_dir, "phrase_aux.json")


def _build_json_md5(out_dir: str) -> str:
    with open(build_manifest_path(out_dir), "rb") as f:
        return hashlib.md5(f.read()).hexdigest()


def load_aux(out_dir: str) -> dict | None:
    """Engine-side loader: the aux index, or None when absent or STALE
    (build.json rewritten since the aux build — compact, rebuild)."""
    mp = aux_manifest_path(out_dir)
    m = load_json(mp)
    if not m or m.get("version") != AUX_VERSION:
        return None
    try:
        if m["build_json_md5"] != _build_json_md5(out_dir):
            return None
    except OSError:
        return None
    return m


def read_pair(out_dir: str, pair_id: int, where=None):
    """Point-read + decode one pair's full adjacency list (its rows of
    the aux row groups ``where``, ``(path, row group)`` pairs; default
    every one) -> ``(docids, cnts, starts)`` (entry i owns
    ``starts[cum(cnts)[i]: cum(cnts)[i+1]]``; docids may repeat across
    fragmented block rows — each cell is self-contained)."""
    if where is None:
        d = aux_dir(out_dir)
        paths = [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
        where = [(p, g) for p in paths for g in range(pq.ParquetFile(p).metadata.num_row_groups)]
    parts = []
    for p, g in where:
        rg = pq.ParquetFile(p).read_row_group(g, use_threads=False)
        keep = np.flatnonzero(to_numpy(rg.column("pair_id")) == pair_id)
        parts.append(rg.take(to_arrow(keep, pa.int64())))
    if not parts:
        return tuple(np.empty(0, np.int64) for _ in range(3))
    t = pa.concat_tables(parts)
    order = np.argsort(to_numpy(t.column("first_docid")), kind="stable")
    t = t.take(to_arrow(order, pa.int64())).combine_chunks()
    n = to_numpy(t.column("n")).astype(np.int64)
    cum_n = np.concatenate(([0], np.cumsum(n)))
    gd, go = binary_column_buffers(t.column("gaps"))
    docids = np.empty(int(cum_n[-1]), np.int64)
    # decode per block: gaps reset at block starts
    all_gaps = codec.varint_decode(gd[go[0] : go[-1]], int(cum_n[-1])) if len(n) else np.empty(0, np.uint64)
    cum = np.cumsum(all_gaps, dtype=np.uint64).view(np.int64)
    seg = cum_n[:-1]
    if len(n):
        corr = cum[seg] - all_gaps[seg].astype(np.int64)
        docids = cum - np.repeat(corr, n)
    cd, co = binary_column_buffers(t.column("cnts"))
    cnts = codec.varint_decode(cd[co[0] : co[-1]], int(cum_n[-1])).view(np.int64) if len(n) else np.empty(0, np.int64)
    # starts: per-DOC cells concatenated per block; decode the whole
    # stream with per-doc segments (cnts), absolute-first per doc
    sdta, so = binary_column_buffers(t.column("starts"))
    total = int(cnts.sum())
    raw = codec.varint_decode(sdta[so[0] : so[-1]], total) if total else np.empty(0, np.uint64)
    cum_s = np.cumsum(raw, dtype=np.uint64).view(np.int64)
    seg_start = np.concatenate(([0], np.cumsum(cnts)))[:-1]
    if total:
        corr = cum_s[seg_start] - raw[seg_start].astype(np.int64)
        starts = cum_s - np.repeat(corr, cnts)
    else:
        starts = np.empty(0, np.int64)
    return docids, cnts, starts
