"""Delta-generation compaction — fold the LSM overlay back into the base.

The reference's only way to absorb accumulated single-page upserts into
the primary structures is a full truncate-and-rebuild
(``/root/reference/src/main/java/searchengine/services/indexation/
IndexationServiceImpl.java:64-79`` re-crawls every site). Here the
incremental path (pipelines/delta.py) appends immutable generations that
the query engine merges on read; this module is the missing third
lifecycle step: **merge base + generations into a new base WITHOUT
re-analyzing the corpus**. At 100 TB that is the difference between a
decode -> mask -> splice -> re-encode pass over the (already tokenized,
compressed) index and re-running stage A over every raw document —
analysis dominates the build, so compaction is roughly an
index-sized-IO operation, not a corpus-sized-CPU one.

Semantics (must equal the overlay, which equals a full rebuild):

- later generations win per conversation; the winner's tombstone range
  masks base postings/docs,
- corpus stats (N, total_len, avgdl) take the exact adjusted values,
- block-max weights are re-derived at encode time from the effective
  avgdl (no inflation factor survives compaction),
- scope codes are cleanly renumbered to the merged ``roles``/``tools``
  lists — exactly what a full rebuild would produce. Base postings
  remap old code -> new code through a LUT of size |old code space|
  (O(#roles x #tools), corpus-size-independent); no doc-store join.

Two physical plans (both Ray-Data-native):

``mode="minor"`` (default) — shuffle-free segment merge. The base index
files are globally (lemma_h, docid)-sorted with disjoint key spans,
tombstoning only REMOVES keys, and the winning-generation postings are
delta-sized; so each delta posting routes (driver-side, against per-file
first keys) to the one file whose span covers it, and every file
decodes, masks, splices its slice and re-encodes LOCALLY in a
file-granular map (``from_items(files) -> map_batches``). Zero
all-to-all exchanges, zero broadcasts. Per-lemma block rows across
files keep disjoint docid ranges — the fragmented-run layout query
readers already merge by ``first_docid``. Clustering/blocking drifts
with each fold.

``mode="major"`` — global re-sort (the defragmenter, one all-to-all):

  read_parquet(index blocks) ──map_batches──► decode + tombstone-mask
                                              -> flat (lemma_h, docid, tf)
  union(latest-generation postings)
  sort([lemma_h, docid]) ──map_batches──► stage-C block encoder
                                              (vocab + dl broadcasts)
  write_parquet(new index)

The doc store merges the same way per mode (segment splice vs filter +
union + docid sort) and the lemma dictionary comes from the shared
stage-D aggregate in both. Artifacts are
prepared under ``<out>/compact-tmp/`` and swapped in under a journal
(PREPARED -> SWAPPING -> done/absent); a crash mid-swap is repaired by
``compact(out_dir, resume=True)`` (idempotent per-artifact swap), and
``SearchEngine`` refuses to load a half-swapped index.

Snippet text for re-indexed conversations keeps coming from the
generation's input files: compaction records ``text_overrides``
(conv_id -> paths) in the build manifest, which the query engine loads
whether or not any generation remains.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..state.manifest import load_json, write_json_atomic
from ..stages.encode import (
    INDEX_SCHEMA,
    decode_block_range,
    binary_column_buffers,
    make_block_encoder,
    scope_code_space,
    scope_codes_of,
)
from . import build as build_mod
from . import delta as delta_mod


def journal_path(out_dir: str) -> str:
    return os.path.join(out_dir, "compact.journal.json")


def _tmp_root(out_dir: str) -> str:
    return os.path.join(out_dir, "compact-tmp")


def _latest_per_conv(gens: list[dict]) -> dict[str, dict]:
    """Ascending generations -> winning (range, dir, input_paths) per conv
    (mirrors search.SearchEngine._load_deltas)."""
    latest: dict[str, dict] = {}
    for g in gens:
        for cid, rng in zip(g["conv_ids"], g["tombstones"]):
            latest[cid] = {
                "range": tuple(rng),
                "dir": g["_dir"],
                "input_paths": g.get("input_paths"),
            }
    return latest


def _read_latest(latest: dict[str, dict], name: str) -> pa.Table:
    """Concatenated winning-generation rows of ``name`` (docs/postings),
    each conv's rows filtered to its own docid range (a generation file
    may contain rows for convs whose later re-index superseded it)."""
    parts = []
    for info in latest.values():
        lo, hi = info["range"]
        t = pq.read_table(os.path.join(info["dir"], f"{name}.parquet"))
        ids = t.column("docid").to_numpy()
        t = t.filter(pa.array((ids >= lo) & (ids < hi)))
        if t.num_rows:
            parts.append(t)
    return pa.concat_tables(parts) if parts else None


def _make_block_flattener(
    tomb_starts: np.ndarray,
    tomb_ends: np.ndarray,
    scope_lut: np.ndarray,
    carry_dl_scope: bool,
    carry_lemma: bool,
    carry_pos: bool = False,
):
    """map_batches fn: index block rows -> surviving flat posting rows.

    One vectorized varint pass per column over the whole batch (the
    binary cells of consecutive block rows are contiguous in the Arrow
    data buffer), tombstone masking via two searchsorted's against the
    winning ranges, scope renumbering via ``scope_lut[old_code]``.
    ``carry_pos`` re-emits each posting's position blob (the per-value
    byte lengths of the decoded deltas locate posting boundaries INSIDE
    the block cell, so blobs are re-sliced from the original bytes —
    decode-free round-trip)."""

    def flatten(batch: pa.Table) -> pa.Table:
        nblk = batch.num_rows
        fields = [
            ("lemma_h", pa.int64()),
            ("docid", pa.int64()),
            ("tf", pa.int32()),
        ]
        if carry_lemma:
            fields.insert(0, ("lemma", pa.string()))
        if carry_pos:
            fields.append(("pos", pa.binary()))
        if carry_dl_scope:
            fields += [("doc_len", pa.int32()), ("scope_code", pa.int32())]
        empty = pa.table(
            {n: pa.array([], t) for n, t in fields}
        )
        if nblk == 0:
            return empty
        n = batch.column("n").combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
        cum_n = np.concatenate(([0], np.cumsum(n)))
        docid, tf, dl, sc = decode_block_range(
            binary_column_buffers(batch.column("gaps")),
            binary_column_buffers(batch.column("tfs")),
            binary_column_buffers(batch.column("dls")),
            cum_n,
            0,
            nblk,
            scps_buf=binary_column_buffers(batch.column("scps")),
        )
        h = batch.column("lemma_h").combine_chunks().to_numpy(zero_copy_only=False)
        post_idx = np.repeat(np.arange(nblk), n)
        keep = np.ones(len(docid), bool)
        if len(tomb_starts):
            idx = np.searchsorted(tomb_starts, docid, side="right") - 1
            idxc = np.clip(idx, 0, len(tomb_starts) - 1)
            keep = ~((idx >= 0) & (docid < tomb_ends[idxc]))
        cols = {
            "lemma_h": pa.array(h[post_idx][keep], pa.int64()),
            "docid": pa.array(docid[keep], pa.int64()),
            "tf": pa.array(tf[keep].astype(np.int32), pa.int32()),
        }
        if carry_lemma:
            lem = batch.column("lemma").combine_chunks()
            cols = {
                "lemma": lem.take(pa.array(post_idx[keep], pa.int64())),
                **cols,
            }
        if carry_pos:
            from ..state import codec
            from ..stages.encode import _binary_cells

            pd_, po_ = binary_column_buffers(batch.column("poss"))
            pbytes = pd_[po_[0] : po_[-1]].tobytes()
            total = int(tf.sum())
            deltas = codec.varint_decode(pbytes, total)
            nb = codec.varint_nbytes(deltas)
            val_bounds = np.concatenate(([0], np.cumsum(tf, dtype=np.int64)))
            byte_off = np.concatenate(([0], np.cumsum(nb)))[val_bounds]
            blobs = _binary_cells(pbytes, byte_off.astype(np.int64))
            cols["pos"] = blobs.filter(pa.array(keep))
        if carry_dl_scope:
            cols["doc_len"] = pa.array(dl[keep].astype(np.int32), pa.int32())
            cols["scope_code"] = pa.array(
                scope_lut[sc[keep]].astype(np.int32), pa.int32()
            )
        return pa.table(cols)

    return flatten


def _scope_remap_lut(
    old_roles: list[str], old_tools: list[str],
    new_roles: list[str], new_tools: list[str],
) -> np.ndarray:
    """old dense scope code -> new dense scope code. The code formula
    multiplies the role index by (n_tools+1), so ANY change to the tool
    list renumbers every pair — hence a clean remap, not an append."""
    old_space = scope_code_space(old_roles, old_tools)
    nt_old, nt_new = len(old_tools) + 1, len(new_tools) + 1
    codes = np.arange(old_space, dtype=np.int64)
    r_old, t_old = codes // nt_old, codes % nt_old
    # value-by-old-index lookup ('' at index 0 on both axes). A role/tool
    # present in the old manifest may be ABSENT from the compacted doc
    # store (a delta tombstoned the last conversation using it): its old
    # codes are dead — they can never appear in surviving postings — so
    # they remap to the empty-value code 0 rather than crashing every
    # compaction retry with .index ValueError.
    r_vals = np.array([""] + old_roles, dtype=object)[r_old]
    t_vals = np.array([""] + old_tools, dtype=object)[t_old]
    r_of = {v: i + 1 for i, v in enumerate(new_roles)}
    t_of = {v: i + 1 for i, v in enumerate(new_tools)}
    r_new = np.array([r_of.get(v, 0) for v in r_vals], np.int64)
    t_new = np.array([t_of.get(v, 0) for v in t_vals], np.int64)
    return r_new * nt_new + t_new


def _assign_to_segments(
    starts_h: np.ndarray, starts_d: np.ndarray, dh: np.ndarray, dd: np.ndarray
) -> np.ndarray:
    """For each delta key (dh, dd), the index of the last segment whose
    composite start key (starts_h, starts_d) is <= it — lexicographic
    searchsorted over the (sorted, possibly duplicate-h) segment starts.
    Keys before segment 0 clip to 0 (they prepend there)."""
    n = len(starts_h)
    idx = np.searchsorted(starts_h, dh, side="right") - 1
    # fix-up where segments START at exactly dh: order within the equal-h
    # run is decided by start docid (a hot lemma can span many segments)
    eq = (idx >= 0) & (starts_h[np.clip(idx, 0, n - 1)] == dh)
    for i in np.flatnonzero(eq):
        lo = np.searchsorted(starts_h, dh[i], side="left")
        hi = idx[i] + 1
        idx[i] = lo - 1 + np.searchsorted(starts_d[lo:hi], dd[i], side="right")
    return np.clip(idx, 0, n - 1)


def _slice_bounds(assign: np.ndarray, n_seg: int) -> np.ndarray:
    """Contiguous [lo, hi) slice per segment from a sorted assignment
    array (delta rows are key-sorted, assignment is monotone)."""
    return np.searchsorted(assign, np.arange(n_seg + 1))


def _merge_docs_segments(
    out_dir: str,
    docs_tmp: str,
    delta_docs,
    tomb_starts: np.ndarray,
    tomb_ends: np.ndarray,
    doc_cols: list[str],
) -> None:
    """Shuffle-free doc-store merge: the base doc files are globally
    docid-sorted with disjoint spans, tombstoning only removes rows, and
    the winning-generation docs are delta-sized — so each delta row is
    routed to the one file whose span covers its docid (footer stats,
    no data read) and every file merges independently. Zero all-to-all;
    output file order preserves the global docid order."""
    files = sorted(
        os.path.join(build_mod.docs_dir(out_dir), f)
        for f in os.listdir(build_mod.docs_dir(out_dir))
        if f.endswith(".parquet")
    )
    # skip zero-row files (a base docs part emptied by a prior fold has
    # no row groups — min() over an empty generator would crash here the
    # way _merge_index_segments already guards)
    starts, kept = [], []
    for f in files:
        md = pq.ParquetFile(f).metadata
        if md.num_rows == 0:
            continue
        ci = md.schema.to_arrow_schema().get_field_index("docid")
        starts.append(
            min(md.row_group(g).column(ci).statistics.min for g in range(md.num_row_groups))
        )
        kept.append(f)
    files = kept
    if not files:
        # the normal path's write_parquet creates docs_tmp; this one must
        os.makedirs(docs_tmp, exist_ok=True)
        if delta_docs is not None and delta_docs.num_rows:
            d = delta_docs.select(doc_cols)
            d = d.take(pc.sort_indices(d.column("docid")))
            pq.write_table(
                d, os.path.join(docs_tmp, "docs-00000.parquet"),
                row_group_size=build_mod.DOCS_ROW_GROUP_ROWS,
            )
        else:  # degenerate: no surviving docs at all — keep schema
            pq.write_table(
                pq.read_table(
                    build_mod.docs_dir(out_dir), columns=doc_cols
                ).slice(0, 0),
                os.path.join(docs_tmp, "docs-00000.parquet"),
            )
        return
    order = np.argsort(np.array(starts, np.int64), kind="stable")
    files = [files[i] for i in order]
    starts = np.array(starts, np.int64)[order]

    if delta_docs is not None:
        delta_docs = delta_docs.select(doc_cols)
        d_ids = delta_docs.column("docid").to_numpy()
        assign = np.clip(np.searchsorted(starts, d_ids, side="right") - 1, 0, len(files) - 1)
        bounds = _slice_bounds(assign, len(files))
        delta_ref = ray.put(delta_docs)
    else:
        bounds = np.zeros(len(files) + 1, np.int64)
        delta_ref = None

    items = [
        {"path": p, "lo": int(bounds[i]), "hi": int(bounds[i + 1])}
        for i, p in enumerate(files)
    ]

    def merge_one(batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            t = pq.read_table(row["path"]).select(doc_cols)
            ids = t.column("docid").to_numpy()
            if len(tomb_starts):
                idx = np.searchsorted(tomb_starts, ids, side="right") - 1
                idxc = np.clip(idx, 0, len(tomb_starts) - 1)
                keep = ~((idx >= 0) & (ids < tomb_ends[idxc]))
                t = t.filter(pa.array(keep))
            if row["hi"] > row["lo"]:
                d = ray.get(delta_ref).slice(row["lo"], row["hi"] - row["lo"])
                t = pa.concat_tables([t, d])
                t = t.take(pc.sort_indices(t.column("docid")))
            out.append(t)
        return pa.concat_tables(out)

    rd.from_items(items, override_num_blocks=max(1, len(items))).map_batches(
        merge_one, batch_format="pyarrow", batch_size=None
    ).write_parquet(docs_tmp, row_group_size=build_mod.DOCS_ROW_GROUP_ROWS)


def _merge_index_segments(
    out_dir: str,
    index_tmp: str,
    delta_flat,  # pa.Table with (lemma, lemma_h, docid, tf, doc_len, scope_code), key-sorted, or None
    tomb_starts: np.ndarray,
    tomb_ends: np.ndarray,
    scope_lut: np.ndarray,
    avgdl: float,
    k1: float,
    b: float,
    block_size: int,
    with_pos: bool = False,
) -> None:
    """Shuffle-free index merge (LSM minor compaction, the segment-merge
    shape of a Lucene merge): the base index files are globally
    (lemma_h, docid)-sorted with disjoint key spans, tombstoning only
    removes postings, and the winning-generation postings are
    delta-sized — so each file decodes, masks, splices its assigned
    delta slice and re-encodes LOCALLY (block maxima re-derive from the
    effective avgdl). Per-lemma block rows across files keep disjoint
    docid ranges, which is exactly the fragmented-run layout query
    readers already merge by first_docid. Zero all-to-all, zero
    broadcasts; clustering/blocking drifts with each fold — mode=major
    re-sorts globally to defragment."""
    d = build_mod.index_dir(out_dir)
    files = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )
    firsts = []
    for f in files:
        pf = pq.ParquetFile(f)
        if pf.metadata.num_rows == 0:
            firsts.append(None)
            continue
        rg = pf.read_row_group(0, columns=["lemma_h", "first_docid"])
        firsts.append((rg.column("lemma_h")[0].as_py(), rg.column("first_docid")[0].as_py()))
    pairs = sorted(
        (k, f) for k, f in zip(firsts, files) if k is not None
    )
    files = [f for _, f in pairs]
    starts_h = np.array([k[0] for k, _ in pairs], np.int64)
    starts_d = np.array([k[1] for k, _ in pairs], np.int64)

    if delta_flat is not None and delta_flat.num_rows and files:
        assign = _assign_to_segments(
            starts_h,
            starts_d,
            delta_flat.column("lemma_h").to_numpy(),
            delta_flat.column("docid").to_numpy(),
        )
        bounds = _slice_bounds(assign, len(files))
        delta_ref = ray.put(delta_flat)
    else:
        bounds = np.zeros(len(files) + 1, np.int64)
        delta_ref = ray.put(delta_flat) if delta_flat is not None else None

    flatten = _make_block_flattener(
        tomb_starts, tomb_ends, scope_lut, carry_dl_scope=True,
        carry_lemma=True, carry_pos=with_pos,
    )
    encode = make_block_encoder(avgdl or 1.0, k1, b, block_size)
    read_cols = ["lemma", "lemma_h", "n", "gaps", "tfs", "dls", "scps"]
    if with_pos:
        read_cols.append("poss")
    items = [
        {"path": p, "lo": int(bounds[i]), "hi": int(bounds[i + 1])}
        for i, p in enumerate(files)
    ]

    def merge_one(batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            flat = flatten(pq.read_table(row["path"], columns=read_cols))
            if row["hi"] > row["lo"]:
                dslice = ray.get(delta_ref).slice(row["lo"], row["hi"] - row["lo"])
                flat = pa.concat_tables([flat, dslice])
                keys = np.lexsort(
                    (
                        flat.column("docid").to_numpy(),
                        flat.column("lemma_h").to_numpy(),
                    )
                )
                flat = flat.take(pa.array(keys, pa.int64()))
            out.append(encode(flat.combine_chunks()))
        return pa.concat_tables(out) if out else INDEX_SCHEMA.empty_table()

    if not files:
        # degenerate empty base: the whole new index is the delta
        os.makedirs(index_tmp, exist_ok=True)
        t = encode(delta_flat) if delta_flat is not None else INDEX_SCHEMA.empty_table()
        pq.write_table(t, os.path.join(index_tmp, "part-0.parquet"),
                       row_group_size=build_mod.INDEX_ROW_GROUP_ROWS)
        return
    rd.from_items(items, override_num_blocks=len(items)).map_batches(
        merge_one, batch_format="pyarrow", batch_size=None
    ).write_parquet(index_tmp, row_group_size=build_mod.INDEX_ROW_GROUP_ROWS)


def _swap_in(out_dir: str, entries: list[dict]) -> None:
    """Idempotent artifact swap: for each {tmp, final}, retire the old
    final and move tmp into place. Re-runnable after a crash at any
    point (a missing tmp with an existing final means that entry already
    swapped)."""
    for e in entries:
        tmp, final = e["tmp"], e["final"]
        if not os.path.exists(tmp):
            if os.path.exists(final):
                continue  # this entry already swapped
            raise FileNotFoundError(f"compaction artifact lost: {tmp}")
        old = final + ".old"
        if os.path.exists(old):
            shutil.rmtree(old) if os.path.isdir(old) else os.remove(old)
        if os.path.exists(final):
            os.replace(final, old) if not os.path.isdir(final) else os.rename(final, old)
        os.replace(tmp, final) if not os.path.isdir(tmp) else os.rename(tmp, final)
        if os.path.exists(old):
            shutil.rmtree(old) if os.path.isdir(old) else os.remove(old)


def compact(out_dir: str, *, resume: bool = False, mode: str = "minor") -> dict:
    """Merge all delta generations into a new base index. Returns a
    reference-style response dict ``{"result", "error", "generations"}``.

    ``mode="minor"`` (default) is the shuffle-free segment merge: every
    base file decodes, masks, splices its routed delta slice and
    re-encodes locally — zero all-to-all exchanges, zero broadcasts; the
    physical clustering/blocking drifts with each fold. ``mode="major"``
    re-sorts the full flat posting stream globally (one all-to-all),
    restoring the rebuild's exact clustering — run it occasionally to
    defragment. Both produce logically identical indexes (decoded
    content equality pinned by test).

    ``resume=True`` finishes an interrupted swap (journal state
    SWAPPING) without re-running the merge."""
    jp = journal_path(out_dir)
    journal = load_json(jp)
    if journal and journal.get("state") == "SWAPPING":
        if not resume:
            return {
                "result": False,
                "error": "interrupted compaction swap; rerun with resume=True",
                "generations": None,
            }
        _swap_in(out_dir, journal["entries"])
        write_json_atomic(
            build_mod.build_manifest_path(out_dir), journal["manifest"]
        )
        shutil.rmtree(delta_mod.delta_dir(out_dir), ignore_errors=True)
        _drop_stale_aux(out_dir)
        _gc_sources(
            out_dir, journal["manifest"].get("text_overrides") or {}
        )
        shutil.rmtree(_tmp_root(out_dir), ignore_errors=True)
        os.remove(jp)
        return {
            "result": True,
            "error": None,
            "generations": journal["n_gens"],
            # the journaled budget lets the crash-resume fold the aux
            # forward exactly like the uninterrupted path
            **_fold_aux_forward(out_dir, journal.get("aux")),
        }

    m = load_json(build_mod.build_manifest_path(out_dir))
    if not m:
        return {"result": False, "error": "no build manifest", "generations": None}
    gens = delta_mod.list_generations(out_dir)
    if not gens:
        return {"result": True, "error": None, "generations": 0}
    latest = _latest_per_conv(gens)
    ranges = sorted(info["range"] for info in latest.values())
    tomb_starts = np.array([r[0] for r in ranges], np.int64)
    tomb_ends = np.array([r[1] for r in ranges], np.int64)

    cfgm = m["config"]
    k1, b, block_size = cfgm["k1"], cfgm["b"], cfgm["block_size"]
    old_roles = m["stats"].get("roles", [])
    old_tools = m["stats"].get("tools", [])

    tmp = _tmp_root(out_dir)
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    docs_tmp = os.path.join(tmp, "docs")
    index_tmp = os.path.join(tmp, "index")
    dict_tmp = os.path.join(tmp, "lemma_dict.parquet")
    convs_tmp = os.path.join(tmp, "convs.parquet")

    # conv-rank sidecar: ranks are embedded in every surviving docid, so
    # they must outlive the doc store rows that currently imply them (a
    # conv re-indexed to zero turns keeps its rank for future deltas)
    convs_sorted = build_mod._load_sorted_convs(out_dir)
    pq.write_table(pa.table({"conv_id": convs_sorted}), convs_tmp)

    # ---- new doc store: base minus tombstones, plus winning-gen docs ----
    doc_cols = ["conv_id", "turn_idx", "role", "doc_len", "tool", "ts", "docid"]
    delta_docs = _read_latest(latest, "docs")
    if delta_docs is not None:
        delta_docs = delta_docs.take(
            pc.sort_indices(delta_docs.column("docid"))
        ).combine_chunks()

    if mode == "minor":
        _merge_docs_segments(
            out_dir, docs_tmp, delta_docs, tomb_starts, tomb_ends, doc_cols
        )
    else:

        def _doc_filter(batch: pa.Table) -> pa.Table:
            ids = batch.column("docid").to_numpy()
            idx = np.searchsorted(tomb_starts, ids, side="right") - 1
            idxc = np.clip(idx, 0, len(tomb_starts) - 1)
            keep = ~((idx >= 0) & (ids < tomb_ends[idxc]))
            return batch.filter(pa.array(keep)).select(doc_cols)

        docs_ds = rd.read_parquet(build_mod.docs_dir(out_dir)).map_batches(
            _doc_filter, batch_format="pyarrow", batch_size=None
        )
        if delta_docs is not None:
            docs_ds = docs_ds.union(rd.from_arrow(delta_docs.select(doc_cols)))
        docs_ds.sort("docid").write_parquet(
            docs_tmp, row_group_size=build_mod.DOCS_ROW_GROUP_ROWS)

    # merged stats from the new doc store (same derivation as a rebuild).
    # n_docs comes from parquet footers (no data read); below the dl
    # broadcast threshold the SAME single driver read feeds both stats
    # and the broadcast; above it, stats are map-side partial aggregates
    # (one tiny row per block back to the driver) — nothing corpus-sized
    # on the driver in either regime.
    import pyarrow.dataset as pads

    n_docs = pads.dataset(docs_tmp).count_rows()
    broadcast_dl = n_docs <= int(os.environ.get("GRAFT_COMPACT_BCAST_MAX", 200_000_000))
    dt = None
    if broadcast_dl:
        dt = pq.read_table(docs_tmp, columns=["docid", "doc_len", "role", "tool"])
        total_len = int(pc.sum(dt.column("doc_len")).as_py() or 0)
        role_u = pc.unique(dt.column("role").combine_chunks()).to_pylist()
        tool_u = pc.unique(dt.column("tool").combine_chunks()).to_pylist()
    else:
        def _stat_partial(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "len": pa.array(
                        [int(pc.sum(batch.column("doc_len")).as_py() or 0)], pa.int64()
                    ),
                    "roles": pa.array(
                        [pc.unique(batch.column("role").combine_chunks()).to_pylist()],
                        pa.list_(pa.string()),
                    ),
                    "tools": pa.array(
                        [pc.unique(batch.column("tool").combine_chunks()).to_pylist()],
                        pa.list_(pa.string()),
                    ),
                }
            )

        parts = pa.concat_tables(
            ref
            for ref in rd.read_parquet(docs_tmp, columns=["doc_len", "role", "tool"])
            .map_batches(_stat_partial, batch_format="pyarrow", batch_size=None)
            .iter_batches(batch_format="pyarrow")
        )
        total_len = int(pc.sum(parts.column("len")).as_py() or 0)
        role_u = pc.unique(parts.column("roles").combine_chunks().flatten()).to_pylist()
        tool_u = pc.unique(parts.column("tools").combine_chunks().flatten()).to_pylist()
    new_roles = sorted(x for x in role_u if x)
    new_tools = sorted(x for x in tool_u if x)
    avgdl = (total_len / n_docs) if n_docs else 0.0
    scope_lut = _scope_remap_lut(old_roles, old_tools, new_roles, new_tools)

    delta_posts = _read_latest(latest, "postings")
    # positions survive the fold only if the base index has them AND
    # every winning-generation posting carries a blob (a pre-positions
    # generation would leave holes) — otherwise the folded index is
    # valid but phrase-disabled
    with_pos = bool(m["stats"].get("positions")) and (
        delta_posts is None
        or (
            "pos" in delta_posts.column_names
            and delta_posts.column("pos").null_count == 0
        )
    )

    if mode == "minor":
        delta_flat = None
        if delta_posts is not None:
            dp = build_mod._attach_lemma_hash(delta_posts)
            dd_ids = delta_docs.column("docid").to_numpy()
            dd_codes = scope_codes_of(
                delta_docs.column("role").combine_chunks(),
                delta_docs.column("tool").combine_chunks(),
                new_roles, new_tools,
            )
            pos = np.searchsorted(dd_ids, dp.column("docid").to_numpy())
            dcols = {
                "lemma": dp.column("lemma"),
                "lemma_h": dp.column("lemma_h"),
                "docid": dp.column("docid"),
                "tf": dp.column("tf").cast(pa.int32()),
            }
            if with_pos:
                dcols["pos"] = dp.column("pos")
            dcols["doc_len"] = dp.column("doc_len").cast(pa.int32())
            dcols["scope_code"] = pa.array(dd_codes[pos].astype(np.int32), pa.int32())
            delta_flat = pa.table(dcols)
            keys = np.lexsort(
                (delta_flat.column("docid").to_numpy(),
                 delta_flat.column("lemma_h").to_numpy())
            )
            delta_flat = delta_flat.take(pa.array(keys, pa.int64())).combine_chunks()
        _merge_index_segments(
            out_dir, index_tmp, delta_flat, tomb_starts, tomb_ends,
            scope_lut, avgdl, k1, b, block_size, with_pos=with_pos,
        )
        return _finish(
            out_dir, jp, m, gens, latest, tmp, docs_tmp, index_tmp, dict_tmp,
            convs_tmp, n_docs, total_len, avgdl, new_roles, new_tools, mode,
            positions=with_pos,
        )

    # ---- vocabulary broadcast (lemma_h -> lemma) ------------------------
    # the base index's block rows already carry BOTH columns, so the
    # base vocab needs zero hashing (a block-count-sized 2-column read);
    # only novel lemmas from winning-gen postings are hashed (delta-sized)
    bt = pq.read_table(build_mod.index_dir(out_dir), columns=["lemma_h", "lemma"])
    h_all = bt.column("lemma_h").to_numpy()
    lem_all = bt.column("lemma").combine_chunks()
    if delta_posts is not None:
        dh = build_mod._attach_lemma_hash(delta_posts.select(["lemma"]))
        h_all = np.concatenate([h_all, dh.column("lemma_h").to_numpy()])
        lem_all = pa.concat_arrays(
            [lem_all, dh.column("lemma").combine_chunks()]
        )
    order = np.argsort(h_all, kind="stable")
    h_ord = h_all[order]
    first = np.concatenate(([True], np.diff(h_ord) != 0))
    h_sorted = h_ord[first]
    lem_arr = lem_all
    lem_by_h = lem_arr.take(pa.array(order[first], pa.int64()))
    lem_sorted = np.asarray(lem_by_h.to_pylist(), dtype=object)
    # collision = one hash carrying two distinct lemma strings (the
    # first-per-hash pick above would otherwise lose one of them)
    dup_h = h_ord[~first]
    dup_lem = lem_arr.take(pa.array(order[~first], pa.int64()))
    collision = bool(
        len(dup_h)
        and np.any(
            np.asarray(dup_lem.to_pylist(), dtype=object)
            != lem_sorted[np.searchsorted(h_sorted, dup_h)]
        )
    )
    vocab_ref = ray.put((h_sorted, lem_sorted))

    # ---- dl/scope side: broadcast below the build threshold (reusing
    # the stats read above), else the columns ride the shuffle (decoded
    # dls + LUT-remapped scps)
    dl_ref = None
    if broadcast_dl:
        dl_ref = ray.put(
            (
                dt.column("docid").to_numpy(),
                dt.column("doc_len").to_numpy(zero_copy_only=False).astype(np.int32),
                scope_codes_of(
                    dt.column("role").combine_chunks(),
                    dt.column("tool").combine_chunks(),
                    new_roles, new_tools,
                ).astype(np.int32),
            )
        )

    # ---- flat posting stream: decoded base blocks ∪ winning-gen rows ----
    flat_cols = ["lemma_h", "docid", "tf"]
    if collision:
        flat_cols = ["lemma"] + flat_cols
    if with_pos:
        flat_cols.append("pos")
    if not broadcast_dl:
        flat_cols += ["doc_len", "scope_code"]
    read_cols = ["lemma", "lemma_h", "n", "gaps", "tfs", "dls", "scps"]
    if with_pos:
        read_cols.append("poss")
    base_flat = rd.read_parquet(build_mod.index_dir(out_dir), columns=read_cols).map_batches(
        _make_block_flattener(
            tomb_starts, tomb_ends, scope_lut,
            carry_dl_scope=not broadcast_dl, carry_lemma=collision,
            carry_pos=with_pos,
        ),
        batch_format="pyarrow",
        # bounded decode expansion (~128 postings per block row): 32k
        # block rows ≈ 4M postings ≈ 200 MB of decoded int64 per task
        batch_size=32_768,
    ).map_batches(lambda t: t.select(flat_cols), batch_format="pyarrow", batch_size=None)

    flat = base_flat
    if delta_posts is not None:
        dp = build_mod._attach_lemma_hash(delta_posts)
        cols = {
            "lemma_h": dp.column("lemma_h"),
            "docid": dp.column("docid"),
            "tf": dp.column("tf").cast(pa.int32()),
        }
        if collision:
            cols = {"lemma": dp.column("lemma"), **cols}
        if with_pos:
            cols["pos"] = dp.column("pos")
        if not broadcast_dl:
            # per-posting scope via the winning-gen doc rows (delta-sized)
            dd_ids = delta_docs.column("docid").to_numpy()
            o = np.argsort(dd_ids, kind="stable")
            dd_codes = scope_codes_of(
                delta_docs.column("role").combine_chunks(),
                delta_docs.column("tool").combine_chunks(),
                new_roles, new_tools,
            )[o]
            pos = np.searchsorted(dd_ids[o], dp.column("docid").to_numpy())
            cols["doc_len"] = dp.column("doc_len").cast(pa.int32())
            cols["scope_code"] = pa.array(dd_codes[pos].astype(np.int32), pa.int32())
        flat = flat.union(rd.from_arrow(pa.table(cols)))

    (
        flat.sort(["lemma_h", "docid"])
        .map_batches(
            make_block_encoder(
                avgdl or 1.0, k1, b, block_size,
                vocab_ref=vocab_ref, dl_ref=dl_ref,
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
        .write_parquet(index_tmp, row_group_size=build_mod.INDEX_ROW_GROUP_ROWS)
    )

    return _finish(
        out_dir, jp, m, gens, latest, tmp, docs_tmp, index_tmp, dict_tmp,
        convs_tmp, n_docs, total_len, avgdl, new_roles, new_tools, mode,
        positions=with_pos,
    )


def _finish(
    out_dir, jp, m, gens, latest, tmp, docs_tmp, index_tmp, dict_tmp,
    convs_tmp, n_docs, total_len, avgdl, new_roles, new_tools, mode,
    positions=False,
) -> dict:
    """Lemma dictionary (shared stage-D aggregate) + journaled swap —
    identical for both merge modes."""
    n_lemmas, n_postings = build_mod.write_lemma_dict(index_tmp, dict_tmp)

    stats = dict(m["stats"])
    stats.update(
        n_docs=n_docs,
        total_len=total_len,
        avgdl=avgdl,
        roles=new_roles,
        tools=new_tools,
        n_lemmas=n_lemmas,
        n_postings=n_postings,
        positions=bool(positions),
    )
    overrides = dict(m.get("text_overrides") or {})
    # persist generation-resident text sources (update-by-query stores
    # its transformed slice as <gen>/source.parquet) into the durable
    # <out>/sources/ dir BEFORE the delta dir is deleted below —
    # otherwise post-compaction snippets/re-analyses of those convs
    # chase a path that no longer exists (FileNotFoundError)
    ddir = os.path.abspath(delta_mod.delta_dir(out_dir))
    src_dir = os.path.join(out_dir, "sources")
    # filenames carry the COMPACTION CYCLE: generation numbering
    # restarts at gen-0001 after every compaction (the delta dir is
    # wiped), so a bare gen-relative name would collide across cycles
    # and a later fold would overwrite an earlier conv's persisted
    # source while its carried-forward override still points there
    cycle = len(m.get("compactions") or [])
    persisted: dict[str, str] = {}
    for cid, info in latest.items():
        if not info["input_paths"]:
            continue
        paths = []
        for p in info["input_paths"]:
            ap = os.path.abspath(p)
            if ap.startswith(ddir + os.sep):
                dst = persisted.get(ap)
                if dst is None:
                    dst = os.path.join(
                        src_dir,
                        f"c{cycle:04d}-"
                        + "-".join(os.path.relpath(ap, ddir).split(os.sep)),
                    )
                    os.makedirs(src_dir, exist_ok=True)
                    shutil.copy2(ap, dst)
                    persisted[ap] = dst
                paths.append(dst)
            else:
                paths.append(p)
        overrides[cid] = paths
    manifest = dict(m)
    manifest["stats"] = stats
    manifest["text_overrides"] = overrides
    manifest["compactions"] = (m.get("compactions") or []) + [
        {"generations": [g["generation"] for g in gens], "convs": len(latest), "mode": mode}
    ]
    entries = [
        {"tmp": docs_tmp, "final": build_mod.docs_dir(out_dir)},
        {"tmp": index_tmp, "final": build_mod.index_dir(out_dir)},
        {"tmp": dict_tmp, "final": build_mod.lemma_dict_path(out_dir)},
        {"tmp": convs_tmp, "final": os.path.join(out_dir, "convs.parquet")},
    ]
    # capture the pre-compaction aux budget BEFORE the journal is
    # written (load_aux md5-checks against the CURRENT build.json) and
    # record it IN the journal, so a crash-resume can still fold the
    # aux forward — the pre-crash manifest is gone by resume time
    from . import phrase_aux as _aux_mod

    old_aux = _aux_mod.load_aux(out_dir)
    aux_budget = (
        {"top_terms": int(old_aux["top_terms"]),
         "top_pairs": int(old_aux["top_pairs"])}
        if old_aux is not None and manifest["stats"].get("positions")
        else None
    )
    write_json_atomic(
        jp,
        {
            "state": "SWAPPING",
            "entries": entries,
            "manifest": manifest,
            "n_gens": len(gens),
            "aux": aux_budget,
        },
    )
    if os.environ.get("GRAFT_COMPACT_CRASH") == "mid_swap":
        _swap_in(out_dir, entries[:1])  # torn state for the recovery test
        raise RuntimeError("injected compaction crash mid-swap")
    _swap_in(out_dir, entries)
    write_json_atomic(build_mod.build_manifest_path(out_dir), manifest)
    shutil.rmtree(delta_mod.delta_dir(out_dir), ignore_errors=True)
    _drop_stale_aux(out_dir)
    _gc_sources(out_dir, overrides)
    shutil.rmtree(tmp, ignore_errors=True)
    os.remove(jp)
    return {
        "result": True,
        "error": None,
        "generations": len(gens),
        **_fold_aux_forward(out_dir, aux_budget),
    }


def _gc_sources(out_dir: str, overrides: dict) -> None:
    """GC superseded persisted sources: a conv whose override was
    replaced this cycle leaves its previous cycle's file unreferenced —
    without this, repeated update->compact cycles grow <out>/sources
    without bound. Runs on BOTH the normal and the crash-resume path."""
    src_dir = os.path.join(out_dir, "sources")
    if not os.path.isdir(src_dir):
        return
    referenced = {
        os.path.abspath(p) for ps in (overrides or {}).values() for p in ps
    }
    for f in os.listdir(src_dir):
        fp = os.path.join(src_dir, f)
        if os.path.abspath(fp) not in referenced:
            try:
                os.remove(fp)
            except OSError:
                pass


def _drop_stale_aux(out_dir: str) -> None:
    """The hot-bigram aux reflects the PRE-compaction base; the
    rewritten build.json already invalidates it (md5 guard) — this
    reclaims the dead bytes."""
    from . import phrase_aux as _aux_mod

    shutil.rmtree(_aux_mod.aux_dir(out_dir), ignore_errors=True)
    try:
        os.remove(_aux_mod.aux_manifest_path(out_dir))
    except OSError:
        pass


def _fold_aux_forward(out_dir: str, aux_budget: dict | None) -> dict:
    """Rebuild the aux against the compacted base at its previous
    budget (override-aware — stale stage-A convs re-emit from persisted
    sources). Failure is non-fatal (queries fall back to the exact
    positional path) but NOT silent: the result carries the outcome and
    the error is logged, so a lost aux is operator-visible."""
    if not aux_budget:
        return {}
    from . import phrase_aux as _aux_mod

    try:
        _aux_mod.build_phrase_aux(
            out_dir,
            top_terms=int(aux_budget["top_terms"]),
            top_pairs=int(aux_budget["top_pairs"]),
        )
        return {"aux_rebuilt": True, "aux_error": None}
    except Exception as e:  # noqa: BLE001 — aux loss must not fail the fold
        err = f"{type(e).__name__}: {e}"
        import logging

        logging.getLogger(__name__).warning(
            "compaction succeeded but the phrase-aux rebuild failed "
            "(%s) — hot-hot phrase queries take the exact path until "
            "a manual `phrase-aux` rebuild", err,
        )
        return {"aux_rebuilt": False, "aux_error": err}
