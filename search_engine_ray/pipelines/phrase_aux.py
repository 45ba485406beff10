"""Hot-bigram auxiliary phrase index — the classic next-word /
phrase-index trick (Williams, Zobel & Bahle 2004, "Fast Phrase
Querying with Combined Indexes"): precompute the adjacency result for
the hottest term PAIRS so a worst-case hot-hot phrase query stops being
positions-bound.

A phrase over two ~2M-posting terms costs ~2.1 s at sf1 (measured,
BENCH/BASELINE.md) because adjacency must decode and intersect the
positions of BOTH full posting lists.  But the set of pairs that can be
hot-hot is tiny — both members must come from the head of the term
frequency distribution — so indexing the top ``top_pairs`` bigrams
among the top ``top_terms`` hottest lemmas (budget recorded in the aux
manifest) caps the worst case at a point lookup.

Build plan (one bounded pass, no corpus-sized driver state):

1. hot set = top ``top_terms`` lemmas by cf from the stage-D dictionary
   (vocabulary-sized driver read, broadcast once).
2. ONE map over stage A's posting rows: filter to hot lemmas, decode
   their position blobs (the same self-contained varint cells stage C
   block-slices), attach docids via the broadcast conv-rank map, and
   emit ``(pair_id, docid, start)`` for every ADJACENT hot-hot position
   pair.  Batches are read one-block-per-file: stage A writes whole
   analyzer batches (whole docs) per file, so adjacency never straddles
   a batch boundary.
3. pair totals: an in-map count partial + one groupby over <=
   ``top_terms^2`` keys; the driver keeps the top ``top_pairs`` pairs.
4. kept rows sort by ``(pair_id, docid, start)`` (a bounded exchange —
   hot-hot ADJACENCY rows only, orders of magnitude smaller than the
   hot terms' postings) and block-encode with the index codec: per
   <=128-doc block, delta-varint docid gaps, per-doc start counts, and
   per-doc delta-varint start positions (absolute first — each cell
   self-contained, exactly the stage-A position-cell convention).

The aux manifest pins the md5 of ``build.json`` at build time; the
engine ignores the aux index if the build manifest has been rewritten
since (compact / rebuild). Under LIVE delta generations the aux stays
active, composed per pair with the overlay
(``SearchEngine._aux_overlay``: tombstoned entries dropped, delta
adjacency appended — exact, pinned against the no-aux path by test);
compaction rebuilds the aux at its previous budget automatically
(override-aware, see :func:`build_phrase_aux`).

The engine's reader (``load_aux``, ``read_pair``) and the aux paths
live in the Ray-free ``state/layout.py``, re-exported here.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.aggregate import Sum

from ..docid import make_docid_attacher
from ..state import codec
from ..state.layout import (  # noqa: F401
    AUX_VERSION,
    _build_json_md5,
    aux_dir,
    aux_manifest_path,
    load_aux,
    read_pair,
)
from ..state.manifest import write_json_atomic
from ..stages.encode import _binary_cells, binary_column_buffers, decode_poss_range
from . import build as build_mod

AUX_BLOCK_DOCS = 128

AUX_SCHEMA = pa.schema(
    [
        ("pair_id", pa.int64()),
        ("first_docid", pa.int64()),
        ("last_docid", pa.int64()),
        ("n", pa.int32()),          # docs in block
        ("gaps", pa.binary()),       # delta-varint docids (first absolute)
        ("cnts", pa.binary()),       # varint starts-per-doc
        ("starts", pa.binary()),     # per-doc delta-varint start positions
    ]
)


def _hot_terms(out_dir: str, top_terms: int) -> list[str]:
    t = pq.read_table(
        build_mod.lemma_dict_path(out_dir), columns=["lemma", "cf"]
    )
    lem = t.column("lemma").to_pylist()
    cf = t.column("cf").to_numpy(zero_copy_only=False)
    order = sorted(range(len(lem)), key=lambda i: (-int(cf[i]), lem[i]))
    return [lem[i] for i in order[:top_terms]]


_PAIRS_EMPTY = pa.table(
    {
        "pair_id": pa.array([], pa.int64()),
        "docid": pa.array([], pa.int64()),
        "start": pa.array([], pa.int64()),
    }
)


def _emit_pairs(
    batch: pa.Table,
    hot_sorted: np.ndarray,
    hot_list: pa.Array,
    nh: int,
    attach=None,
    excl_convs: np.ndarray | None = None,
) -> pa.Table:
    """(pair_id, docid, start) adjacency rows of one whole-docs posting
    batch. ``attach`` maps (conv_id, turn_idx) -> docid when the batch
    has no docid column (the stage-A path); ``excl_convs`` (sorted
    conv_id array) drops rows of overridden conversations — their
    stage-A postings are STALE after a delete/update/compaction and are
    re-emitted from the override source instead."""
    if batch.num_rows == 0:
        return _PAIRS_EMPTY
    if excl_convs is not None and len(excl_convs):
        cv = np.asarray(batch.column("conv_id").to_pylist(), dtype=object)
        pos_ = np.searchsorted(excl_convs, cv)
        pos_c = np.minimum(pos_, len(excl_convs) - 1)
        batch = batch.filter(pa.array(excl_convs[pos_c] != cv))
        if batch.num_rows == 0:
            return _PAIRS_EMPTY
    m = pc.is_in(batch.column("lemma"), value_set=hot_list)
    b = batch.filter(m)
    if b.num_rows == 0:
        return _PAIRS_EMPTY
    if "docid" not in b.column_names:
        b = attach(b)
    tf = b.column("tf").combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
    npost = len(tf)
    cum_tf = np.concatenate(([0], np.cumsum(tf, dtype=np.int64)))
    pos = decode_poss_range(
        binary_column_buffers(b.column("pos")), cum_tf, 0, npost, tf
    )
    lem = b.column("lemma").combine_chunks()
    code = np.searchsorted(
        hot_sorted, np.asarray(lem.to_pylist(), dtype=object)
    ).astype(np.int64)
    docid = b.column("docid").combine_chunks().to_numpy(zero_copy_only=False)
    D = np.repeat(docid, tf)
    H = np.repeat(code, tf)
    order = np.lexsort((pos, D))
    Ds, Ps, Hs = D[order], pos[order], H[order]
    adj = (Ds[1:] == Ds[:-1]) & (Ps[1:] == Ps[:-1] + 1)
    if not adj.any():
        return _PAIRS_EMPTY
    a = Hs[:-1][adj]
    bb = Hs[1:][adj]
    return pa.table(
        {
            "pair_id": pa.array(a * nh + bb, pa.int64()),
            "docid": pa.array(Ds[:-1][adj], pa.int64()),
            "start": pa.array(Ps[:-1][adj], pa.int64()),
        }
    )


class _PairEmitter:
    """Actor-pool stage: hot set + conv-rank map land once per actor."""

    def __init__(self, hot_ref, convs_ref, excl_ref=None):
        hot = ray.get(hot_ref)
        self.hot_sorted = np.array(sorted(hot), dtype=object)
        self.hot_list = pa.array(sorted(hot), pa.string())
        self.nh = len(hot)
        self.attach = make_docid_attacher(convs_ref)
        self.excl = ray.get(excl_ref) if excl_ref is not None else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _emit_pairs(
            batch, self.hot_sorted, self.hot_list, self.nh,
            attach=self.attach, excl_convs=self.excl,
        )


def _encode_sorted(batch: pa.Table) -> pa.Table:
    """Block-encode a (pair_id, docid, start)-sorted batch. Pair runs
    split across sort blocks simply fragment into extra block rows
    (search merges by first_docid, the main-index convention); a doc
    split across rows stays correct because every cell is
    self-contained."""
    if batch.num_rows == 0:
        return AUX_SCHEMA.empty_table()
    pid = batch.column("pair_id").to_numpy(zero_copy_only=False)
    docid = batch.column("docid").to_numpy(zero_copy_only=False)
    start = batch.column("start").to_numpy(zero_copy_only=False)
    # per-(pair, doc) runs
    new_doc = np.concatenate(
        ([True], (pid[1:] != pid[:-1]) | (docid[1:] != docid[:-1]))
    )
    doc_start = np.flatnonzero(new_doc)
    doc_end = np.append(doc_start[1:], len(pid))
    cnt = (doc_end - doc_start).astype(np.int64)
    d_pid = pid[doc_start]
    d_docid = docid[doc_start]
    ndoc = len(doc_start)
    # per-pair runs over the doc-level arrays, chunked into blocks
    new_pair = np.concatenate(([True], d_pid[1:] != d_pid[:-1]))
    run_start = np.flatnonzero(new_pair)
    run_end = np.append(run_start[1:], ndoc)
    run_len = run_end - run_start
    nblk = (run_len + AUX_BLOCK_DOCS - 1) // AUX_BLOCK_DOCS
    rep_start = np.repeat(run_start, nblk)
    rep_end = np.repeat(run_end, nblk)
    within = (
        np.concatenate([np.arange(k) for k in nblk])
        if len(nblk)
        else np.empty(0, np.int64)
    )
    blk_start = rep_start + within * AUX_BLOCK_DOCS
    blk_end = np.minimum(blk_start + AUX_BLOCK_DOCS, rep_end)
    bounds = np.append(blk_start, ndoc)

    # docid gaps: delta with reset at block starts
    u = d_docid.astype(np.uint64)
    gaps = u.copy()
    gaps[1:] -= u[:-1]
    gaps[blk_start] = u[blk_start]
    nb_g = codec.varint_nbytes(gaps)
    cum_g = np.concatenate(([0], np.cumsum(nb_g)))
    gaps_cells = _binary_cells(codec.varint_encode(gaps), cum_g[bounds])
    # per-doc counts
    nb_c = codec.varint_nbytes(cnt)
    cum_c = np.concatenate(([0], np.cumsum(nb_c)))
    cnt_cells = _binary_cells(codec.varint_encode(cnt), cum_c[bounds])
    # starts: delta within doc, absolute first (the stage-A pos cell)
    sd = start.astype(np.uint64).copy()
    sd[1:] -= start[:-1].astype(np.uint64)
    sd[doc_start] = start[doc_start].astype(np.uint64)
    nb_s = codec.varint_nbytes(sd)
    cum_s = np.concatenate(([0], np.cumsum(nb_s)))
    cum_vals = np.concatenate(([0], np.cumsum(cnt)))
    start_cells = _binary_cells(
        codec.varint_encode(sd), cum_s[cum_vals[bounds]]
    )
    return pa.Table.from_arrays(
        [
            pa.array(d_pid[blk_start], pa.int64()),
            pa.array(d_docid[blk_start], pa.int64()),
            pa.array(d_docid[blk_end - 1], pa.int64()),
            pa.array((blk_end - blk_start).astype(np.int32), pa.int32()),
            gaps_cells,
            cnt_cells,
            start_cells,
        ],
        schema=AUX_SCHEMA,
    )


def build_phrase_aux(
    out_dir: str, top_terms: int = 48, top_pairs: int = 512
) -> dict:
    """Build the hot-bigram aux index for an existing positions build.
    Idempotent (rebuilds in place); returns the aux manifest.

    Stage-A postings are STALE for conversations the manifest's
    ``text_overrides`` names (delete/update/re-index folded by a
    compaction): those convs are EXCLUDED from the stage-A pass and
    re-emitted from their override text source via the delta analyzer
    (``delta._analyze_convs``), restricted to the docids still live in
    the compacted doc store. The override re-analysis is driver-side —
    the same documented reindexed-conv-sized bound as the delta
    pipeline itself; an index whose overrides approach corpus size
    should take a full rebuild (which resets stage A) instead."""
    m = build_mod.load_json(build_mod.build_manifest_path(out_dir))
    if not m:
        raise FileNotFoundError(f"no build manifest under {out_dir}")
    if not m["stats"].get("positions"):
        raise ValueError("phrase_aux needs a positions build")
    hot = _hot_terms(out_dir, top_terms)
    if len(hot) < 2:
        raise ValueError("phrase_aux: fewer than 2 terms in dictionary")
    hot_sorted = sorted(hot)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    hot_ref = ray.put(hot)
    convs_ref = ray.put(build_mod._load_sorted_convs(out_dir))
    overrides = {
        str(k): list(v) for k, v in (m.get("text_overrides") or {}).items()
    }
    excl_ref = (
        ray.put(np.array(sorted(overrides), dtype=object)) if overrides else None
    )
    files = build_mod._stage_a_parquet(out_dir, "post")
    posts = rd.read_parquet(
        files,
        columns=["lemma", "conv_id", "turn_idx", "tf", "pos"],
        override_num_blocks=len(files),  # whole files: docs never split
    )
    pairs = posts.map_batches(
        _PairEmitter,
        fn_constructor_args=(hot_ref, convs_ref, excl_ref),
        batch_format="pyarrow",
        batch_size=None,
        concurrency=(1, max(2, ncpu // 2)),
        max_restarts=0,
    )
    if overrides:
        extra = _override_pairs(out_dir, overrides, hot_sorted)
        if extra.num_rows:
            pairs = pairs.union(rd.from_arrow(extra))
    pairs = pairs.materialize()  # consumed twice: totals + encode

    def count_partial(b: pa.Table) -> pa.Table:
        g = b.select(["pair_id"]).group_by(["pair_id"]).aggregate([([], "count_all")])
        return g.rename_columns(["pair_id", "n"])

    totals_tabs = [
        t
        for t in ray.get(
            pairs.map_batches(count_partial, batch_format="pyarrow")
            .groupby("pair_id")
            .aggregate(Sum("n", alias_name="n"))
            .materialize().to_arrow_refs()
        )
        if t.num_rows
    ]
    nh = len(hot_sorted)
    if not totals_tabs:
        kept: list[tuple[int, int]] = []
    else:
        tt = pa.concat_tables(totals_tabs)
        tp = tt.column("pair_id").to_numpy(zero_copy_only=False)
        tn = tt.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((tp, -tn))[:top_pairs]
        kept = [(int(tp[i]), int(tn[i])) for i in order]
    kept_ids = np.sort(np.array([p for p, _ in kept], np.int64))
    d = build_mod._fresh_dir(aux_dir(out_dir))
    if len(kept_ids):
        keep_ref = ray.put(kept_ids)

        def keep(b: pa.Table) -> pa.Table:
            ks = ray.get(keep_ref)
            v = b.column("pair_id").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(ks, v)
            pos[pos == len(ks)] = 0
            return b.filter(pa.array(ks[pos] == v))

        (
            pairs.map_batches(keep, batch_format="pyarrow")
            .sort(["pair_id", "docid", "start"])
            .map_batches(_encode_sorted, batch_format="pyarrow", batch_size=None)
            .write_parquet(d, row_group_size=4096)
        )
    manifest = {
        "version": AUX_VERSION,
        "top_terms": top_terms,
        "top_pairs": top_pairs,
        "n_hot_terms": nh,
        "hot_terms_sorted": hot_sorted,
        "pairs": [
            {
                "pair_id": p,
                "a": hot_sorted[p // nh],
                "b": hot_sorted[p % nh],
                "total": n,
            }
            for p, n in kept
        ],
        "bytes": build_mod._dir_stats(d)["bytes"],
        "build_json_md5": _build_json_md5(out_dir),
    }
    write_json_atomic(aux_manifest_path(out_dir), manifest)
    return manifest


def _override_pairs(
    out_dir: str, overrides: dict[str, list[str]], hot_sorted: list[str]
) -> pa.Table:
    """Adjacency rows for overridden conversations, re-analyzed from
    their CURRENT text source and restricted to live docids (dropped
    turns stay dropped). Grouped by identical source-path tuples — one
    pruned read + one analyzer pass per group."""
    from ..config import TURN_BITS
    from . import delta as delta_mod

    convs_np = np.asarray(
        build_mod._load_sorted_convs(out_dir).to_pylist(), dtype=object
    )
    hs = np.array(hot_sorted, dtype=object)
    hl = pa.array(hot_sorted, pa.string())
    groups: dict[tuple, list[str]] = {}
    for cid, pths in overrides.items():
        groups.setdefault(tuple(pths), []).append(cid)
    parts = []
    for pths, cids in groups.items():
        cids = sorted(cids)
        ranks = np.searchsorted(convs_np, np.asarray(cids, dtype=object))
        absent = [c for c, r in zip(cids, ranks)
                  if r == len(convs_np) or convs_np[r] != c]
        if absent:
            # a searchsorted rank of an absent conv is ANOTHER conv's:
            # its rows would land in that conv's docid range
            raise ValueError(
                f"text overrides name conversations absent from the base: {absent[:5]}")
        rank_of = {c: int(r) for c, r in zip(cids, ranks)}
        # DNF-pruned read, capped at 1024 disjuncts (the _load_deltas /
        # _base_old_counts convention — a thousand-way filter expression
        # costs more than the scan it prunes); past the cap read the
        # full docid column and mask driver-side
        if len(ranks) <= 1024:
            filters = [
                [("docid", ">=", int(r) << TURN_BITS),
                 ("docid", "<", (int(r) + 1) << TURN_BITS)]
                for r in ranks
            ]
            keep = (
                pq.read_table(
                    build_mod.docs_dir(out_dir), columns=["docid"],
                    filters=filters,
                )
                .column("docid")
                .to_numpy(zero_copy_only=False)
            )
        else:
            allid = (
                pq.read_table(build_mod.docs_dir(out_dir), columns=["docid"])
                .column("docid")
                .to_numpy(zero_copy_only=False)
            )
            rk = np.sort(np.asarray(ranks, np.int64))
            pos = np.searchsorted(rk, allid >> TURN_BITS)
            posc = np.minimum(pos, len(rk) - 1)
            keep = allid[rk[posc] == (allid >> TURN_BITS)]
        postings, _docs, _n, _l = delta_mod._analyze_convs(
            list(pths), cids, rank_of,
            keep_docids=np.sort(keep.astype(np.int64)),
        )
        t = _emit_pairs(postings, hs, hl, len(hot_sorted))
        if t.num_rows:
            parts.append(t)
    return pa.concat_tables(parts) if parts else _PAIRS_EMPTY
