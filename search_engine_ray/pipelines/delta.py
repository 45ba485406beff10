"""Incremental single-conversation re-index — the analog of
``POST /api/indexPage`` (SURVEY.md §3.3).

Reference flow (``/root/reference/src/main/java/searchengine/services/
indexation/IndexationServiceImpl.java:66-79,119-131``): validate the URL
is inside a configured site (reject otherwise), then re-fetch and
re-analyze just that page on a spawned thread, upserting its postings.
Here the unit is a *conversation* (all its turns), and the design is
LSM-style: each re-index appends a **delta generation** under
``<out_dir>/delta/gen-NNNN/`` containing

- ``postings.parquet`` — the conversation's fresh flat postings,
- ``docs.parquet``     — its fresh doc rows (docid, role, doc_len),
- ``manifest.json``    — lineage: conv_ids, tombstoned docid ranges,
  old/new turn counts and token masses (the exact corpus-stat
  adjustments), analyzer version, generation number.

The base index files are never rewritten (resume/lineage stays intact);
the query engine overlays deltas at read time (``search.SearchEngine``):
tombstoned docid ranges mask stale base postings, affected lemmas are
merged-on-read, and N/avgdl/df are adjusted exactly — so search over
base+delta is **rank-identical** to a full rebuild of the modified
corpus (verified in tests/test_delta.py). A full ``build_index`` run is
the compaction path.

Docid stability: a conversation keeps its dense conv_rank, so only
EXISTING conversations can be re-indexed (a brand-new conv_id would
shift every later rank — that is a rebuild, and the request is rejected
the way the reference rejects an out-of-scope URL,
``IndexationServiceImpl.java:133-149``).

The slice is tiny (one conversation ≪ one block), so analysis runs
driver-side with the same analyzer module — the analog of the
reference's single raw Thread, below cluster-work granularity.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from .. import analyzer
from ..config import TURN_BITS
from ..docid import make_docids
from ..state import layout
from ..state.layout import delta_dir, list_generations  # noqa: F401
from ..state.manifest import load_json, write_json_atomic


def _base_old_counts(out_dir: str, ranges: list[tuple[int, int]]) -> tuple[int, int]:
    """(old_turns, old_len) of the tombstoned ranges vs the immutable
    base doc store (pruned range read per conv at scale; column read
    here). Informational lineage — the overlay and compaction both
    recompute exact stats from base + winning-generation docs."""
    dtab = pq.read_table(
        layout.docs_dir(out_dir),
        columns=["docid", "doc_len"],
        # row-group-pruned to the tombstoned ranges (docid-sorted
        # store); full-column fallback past 1024 ranges — the
        # search.py _load_deltas convention
        **(
            {"filters": [
                [("docid", ">=", int(lo)), ("docid", "<", int(hi))]
                for lo, hi in ranges
            ]}
            if 0 < len(ranges) <= 1024
            else {}
        ),
    )
    base_docids = dtab.column("docid").to_numpy()
    base_dl = dtab.column("doc_len").to_numpy()
    old_turns = old_len = 0
    for lo, hi in ranges:
        a, b = np.searchsorted(base_docids, lo), np.searchsorted(base_docids, hi)
        old_turns += int(b - a)
        old_len += int(base_dl[a:b].sum())
    return old_turns, old_len


def _read_slice(
    paths: list[str],
    conv_ids: list[str],
    rank_of: dict[str, int],
    keep_docids: np.ndarray | None = None,
) -> tuple[pa.Table, np.ndarray]:
    """Filter-pushdown read of ``conv_ids`` from ``paths``, canonically
    sorted, optionally restricted to ``keep_docids`` (sorted int64 — the
    delete/update survivor set). -> (slice_tbl, docid)."""
    src = pads.dataset(paths)
    slice_tbl = src.to_table(
        filter=pads.field("conv_id").isin(conv_ids),
        columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"],
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    conv_col = slice_tbl.column("conv_id").to_pylist()
    turn_np = slice_tbl.column("turn_idx").to_numpy(zero_copy_only=False)
    rank_arr = np.array([rank_of[c] for c in conv_col], np.int64)
    docid = make_docids(rank_arr, turn_np)
    if keep_docids is not None:
        # survivors only: a dropped turn's text stays in the source files
        # (delete never rewrites inputs) — it is simply not re-emitted
        pos = np.searchsorted(keep_docids, docid)
        posc = np.clip(pos, 0, max(len(keep_docids) - 1, 0))
        keep = (
            (keep_docids[posc] == docid)
            if len(keep_docids)
            else np.zeros(len(docid), bool)
        )
        slice_tbl = slice_tbl.filter(pa.array(keep))
        docid = docid[keep]
    return slice_tbl, docid


def _analyze_convs(
    paths: list[str],
    conv_ids: list[str],
    rank_of: dict[str, int],
    keep_docids: np.ndarray | None = None,
    slice_tbl: pa.Table | None = None,
    docid: np.ndarray | None = None,
):
    """Fresh analysis of ``conv_ids`` — read from ``paths`` unless a
    pre-built (slice_tbl, docid) pair is given (the update-by-query
    path, which transforms text before analysis).
    -> (postings, docs, n_rows, new_len)."""
    if slice_tbl is None:
        slice_tbl, docid = _read_slice(paths, conv_ids, rank_of, keep_docids)

    got = analyzer.analyze_batch(slice_tbl.column("text"), {})
    post_doc_idx, lemmas, tf, doc_len = got[:4]
    pos_deltas = got[4] if len(got) > 4 else None
    from ..stages.analyze import encode_pos_cells

    postings = pa.table(
        {
            "lemma": pa.array(lemmas, pa.string()),
            "docid": pa.array(docid[post_doc_idx], pa.int64()),
            "tf": pa.array(tf, pa.int32()),
            # per-posting position blobs (phrase queries survive the
            # delta overlay / compaction fold)
            "pos": (
                encode_pos_cells(pos_deltas, tf)
                if pos_deltas is not None
                else pa.nulls(len(post_doc_idx), pa.binary())
            ),
            "doc_len": pa.array(doc_len[post_doc_idx].astype(np.int32), pa.int32()),
        }
    )
    docs = pa.table(
        {
            "docid": pa.array(docid, pa.int64()),
            "conv_id": slice_tbl.column("conv_id"),
            "turn_idx": slice_tbl.column("turn_idx"),
            "role": slice_tbl.column("role"),
            "doc_len": pa.array(doc_len.astype(np.int32), pa.int32()),
            "tool": slice_tbl.column("tool"),
            "ts": slice_tbl.column("ts"),
        }
    )
    return postings, docs, int(slice_tbl.num_rows), int(doc_len.sum())


def _write_generation(
    out_dir: str,
    conv_ids: list[str],
    ranges: list[tuple[int, int]],
    postings: pa.Table,
    docs: pa.Table,
    paths: list[str],
    new_turns: int,
    new_len: int,
    extra: dict | None = None,
    source_tbl: pa.Table | None = None,
) -> int:
    """Append one DONE delta generation atomically (tmp dir + rename).
    ``source_tbl`` (update-by-query): the transformed conv slice is
    stored INSIDE the generation as ``source.parquet`` and becomes the
    generation's text source (``input_paths``) — snippets and later
    re-analyses of these convs read the transformed text."""
    old_turns, old_len = _base_old_counts(out_dir, ranges)
    gens = list_generations(out_dir)
    gen = (gens[-1]["generation"] + 1) if gens else 1
    gdir = os.path.join(delta_dir(out_dir), f"gen-{gen:04d}")
    tmp = gdir + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    pq.write_table(postings.sort_by([("lemma", "ascending"), ("docid", "ascending")]),
                   os.path.join(tmp, "postings.parquet"))
    pq.write_table(docs, os.path.join(tmp, "docs.parquet"))
    if source_tbl is not None:
        pq.write_table(source_tbl, os.path.join(tmp, "source.parquet"))
        paths = [os.path.join(gdir, "source.parquet")]
    manifest = {
        "generation": gen,
        "conv_ids": list(conv_ids),
        "tombstones": [list(r) for r in ranges],
        "old_turns": old_turns,
        "old_len": old_len,
        "new_turns": new_turns,
        "new_len": new_len,
        "analyzer_version": analyzer.ANALYZER_VERSION,
        "input_paths": list(paths),  # snippet/text source for these convs
        "state": "DONE",
        **(extra or {}),
    }
    write_json_atomic(os.path.join(tmp, "manifest.json"), manifest)
    if os.path.exists(gdir):
        shutil.rmtree(gdir)
    os.replace(tmp, gdir)
    return gen


def reindex_conversations(
    out_dir: str,
    conv_ids: list[str],
    input_paths: list[str] | None = None,
) -> dict:
    """Re-analyze ``conv_ids`` from ``input_paths`` (default: the build's
    inputs) and append one delta generation. Returns a reference-style
    response dict: ``{"result": bool, "error": str|None, "generation":
    int|None}``."""
    m = load_json(layout.build_manifest_path(out_dir))
    if not m:
        return {"result": False, "error": "no build manifest", "generation": None}
    paths = input_paths or m["config"]["input_paths"]

    convs = layout._load_sorted_convs(out_dir)
    convs_np = np.asarray(convs.to_pylist(), dtype=object)
    ranks = np.searchsorted(convs_np, np.asarray(conv_ids, dtype=object))
    for cid, r in zip(conv_ids, ranks):
        if r >= len(convs_np) or convs_np[r] != cid:
            # reference: out-of-scope page -> {"result": false, error}
            return {
                "result": False,
                "error": f"conversation {cid!r} not in index (full rebuild required)",
                "generation": None,
            }

    ranges = [(int(r) << TURN_BITS, (int(r) + 1) << TURN_BITS) for r in ranks]
    rank_of = {c: int(r) for c, r in zip(conv_ids, ranks)}
    postings, docs, new_turns, new_len = _analyze_convs(paths, conv_ids, rank_of)
    gen = _write_generation(
        out_dir, conv_ids, ranges, postings, docs, paths, new_turns, new_len
    )
    return {"result": True, "error": None, "generation": gen}


def _resolve_matches(
    out_dir: str,
    query_text: str,
    scope: str | None,
    conjunctive: bool,
    skip_missing_lemmas: bool = False,
):
    """Shared delete/update front half: overlay matching set -> affected
    conversations grouped by their CURRENT text source, with each conv's
    live docid set. Returns ``(early_response, None)`` for error/no-op
    cases, else ``(None, (matched, rank_of, groups, live_parts))``.

    ``skip_missing_lemmas`` replaces the reference's shard-LOCAL
    missing-lemma refusal with union semantics: absent lemmas are
    dropped from the plan instead of emptying the match (the sharded
    delete router uses this AFTER establishing global presence — a
    shard missing one term of a disjunctive query must still delete its
    matches of the present terms, exactly like the federated matching
    set). Conjunctive stays exact: a shard missing any lemma can hold
    no conjunctive match, so it no-ops."""
    from ..search import SearchEngine

    if not load_json(layout.build_manifest_path(out_dir)):
        return {"result": False, "error": "no build manifest"}, None
    eng = SearchEngine(out_dir)
    if not eng.valid_scope(scope):
        return {"result": False, "error": "bad_scope"}, None
    terms, err = eng.plan(query_text)
    if err == "empty_query":
        return {"result": False, "error": "empty_query"}, None
    if err and skip_missing_lemmas:
        lemmas = list(dict.fromkeys(eng._analyzer.analyze_query(query_text)))
        present = []
        for lem in lemmas:
            df = eng._df_of(lem)
            if df is None and eng._has_deltas and lem in eng._delta_lemma:
                df = 0
            if df is not None:
                present.append((lem, df))
        if eng._has_deltas and present:
            blocks = eng._term_blocks([t[0] for t in present])
            present = [(lem, int(blocks[lem]["cum_n"][-1])) for lem, _ in present]
            present = [(l, d) for l, d in present if d > 0]
        if not present or (conjunctive and len(present) < len(lemmas)):
            return {"result": True, "error": None}, None
        terms = sorted(present, key=lambda t: (t[1], t[0]))
        err = None
    if err or not terms:  # missing lemma -> nothing matches (reference rule)
        return {"result": True, "error": None}, None
    matched, _sc = eng._matching_set(terms, scope, conjunctive)
    if matched.size == 0:
        return {"result": True, "error": None}, None
    matched = np.sort(matched.astype(np.int64))

    convs_np = np.asarray(layout._load_sorted_convs(out_dir).to_pylist(), dtype=object)
    ranks = np.unique(matched >> TURN_BITS).astype(np.int64)
    conv_ids = [str(convs_np[int(r)]) for r in ranks]
    rank_of = {c: int(r) for c, r in zip(conv_ids, ranks)}

    # current live docids per conv: winning generation docs if the conv
    # was re-indexed/deleted/updated before, else the base doc-store
    # range — prior deletes stay deleted, prior updates stay transformed
    latest: dict[str, dict] = {}
    for g in list_generations(out_dir):
        for cid, rng in zip(g["conv_ids"], g["tombstones"]):
            latest[cid] = {"range": tuple(rng), "dir": g["_dir"],
                           "input_paths": g.get("input_paths")}
    base_ids = pq.read_table(
        layout.docs_dir(out_dir), columns=["docid"]
    ).column("docid").to_numpy()
    m = load_json(layout.build_manifest_path(out_dir))
    default_paths = tuple(m["config"]["input_paths"])

    # one generation per distinct text source (a generation's
    # input_paths is its convs' snippet/text source — mixing sources in
    # one generation would serve stale text)
    groups: dict[tuple, list[str]] = {}
    live_parts: dict[str, np.ndarray] = {}
    for cid, r in rank_of.items():
        lo, hi = r << TURN_BITS, (r + 1) << TURN_BITS
        info = latest.get(cid)
        if info is not None:
            ids = pq.read_table(
                os.path.join(info["dir"], "docs.parquet"), columns=["docid"]
            ).column("docid").to_numpy()
            ids = ids[(ids >= lo) & (ids < hi)]
            key = tuple(info["input_paths"] or default_paths)
        else:
            a, b = np.searchsorted(base_ids, lo), np.searchsorted(base_ids, hi)
            ids = base_ids[a:b]
            key = default_paths
        live_parts[cid] = np.sort(ids.astype(np.int64))
        groups.setdefault(key, []).append(cid)
    return None, (matched, rank_of, groups, live_parts)


def delete_by_query(
    out_dir: str,
    query_text: str,
    scope: str | None = None,
    conjunctive: bool = False,
    skip_missing_lemmas: bool = False,
) -> dict:
    """Delete every turn matching ``query_text`` from the index — the
    Elasticsearch ``_delete_by_query`` lifecycle operation (the reference
    has only truncate-all, ``SURVEY.md §2.1 S7``; this is its surgical
    sibling). No base file is rewritten: each affected conversation gets
    a delta generation carrying its SURVIVING turns only (re-analyzed
    from the conversation's current text source), with the standard
    whole-conv tombstone range masking the stale base rows — so search
    over base+delete-generation is rank-identical to a full rebuild of
    the corpus minus the matched turns (tests/test_delete.py), the
    overlay machinery needs zero changes, and the next compaction folds
    the delete away like any re-index. Matching semantics are exactly
    the search engine's matching set (disjunctive by default,
    ``conjunctive=True`` for AND, optional ``scope``, any missing lemma
    -> zero matches — the reference's rule), computed on the overlay so
    deletes stack on prior deltas/deletes.

    At scale the matched-docid set is conversation-bounded per
    generation (the delete rewrites only affected convs' postings, never
    the corpus); a corpus-sized delete is a rebuild, and callers should
    treat it as one.

    -> {"result", "error", "deleted" (turns), "generations": [int, ...]}
    """
    resp, st = _resolve_matches(out_dir, query_text, scope, conjunctive,
                                skip_missing_lemmas=skip_missing_lemmas)
    if resp is not None:
        return {**resp, "deleted": 0, "generations": []}
    matched, rank_of, groups, live_parts = st

    deleted = 0
    gens_out: list[int] = []
    for key, cids in groups.items():
        live = np.concatenate([live_parts[c] for c in cids])
        live.sort()
        hit = live[np.isin(live, matched)]
        keep = np.setdiff1d(live, matched, assume_unique=True)
        deleted += int(hit.size)
        postings, docs, new_turns, new_len = _analyze_convs(
            list(key), cids, rank_of, keep_docids=keep
        )
        ranges = [(rank_of[c] << TURN_BITS, (rank_of[c] + 1) << TURN_BITS) for c in cids]
        gens_out.append(
            _write_generation(
                out_dir, cids, ranges, postings, docs, list(key),
                new_turns, new_len,
                extra={"op": "delete_by_query", "query": query_text,
                       "scope": scope, "conjunctive": bool(conjunctive),
                       "deleted_turns": int(hit.size)},
            )
        )
    return {"result": True, "error": None, "deleted": deleted, "generations": gens_out}


def update_by_query(
    out_dir: str,
    query_text: str,
    pattern: str,
    replacement: str,
    scope: str | None = None,
    conjunctive: bool = False,
    skip_missing_lemmas: bool = False,
) -> dict:
    """Regex-rewrite every turn matching ``query_text`` IN THE INDEX —
    the Elasticsearch ``_update_by_query`` lifecycle operation (with a
    painless-script analog of ``regexp_replace(text, pattern,
    replacement)``): the retroactive-redaction primitive a training-data
    pipeline needs when PII or a leaked secret is found in an
    already-built index. Matching semantics are delete_by_query's
    (overlay matching set, scope, missing-lemma rule); each affected
    conversation is re-read from its CURRENT text source, its matched
    turns' text is rewritten through pyarrow's RE2
    ``replace_substring_regex`` (global), the whole conversation is
    re-analyzed from the transformed text, and the TRANSFORMED SLICE IS
    STORED INSIDE THE GENERATION (``source.parquet``) as its text source
    — so snippets serve rewritten text, later deletes/updates of these
    convs start from the rewritten state, and compaction folds the
    update like any re-index. Search over base+update-generation is
    rank-identical to a full rebuild over the rewritten corpus
    (tests/test_update.py); the SQL oracle applies the same RE2
    rewrite to the same matched set (``oracle.updated_src_sql``).

    Same scale contract as delete: per-generation work is
    conversation-bounded; a corpus-sized rewrite is a rebuild.

    -> {"result", "error", "updated" (turns), "generations": [int, ...]}
    """
    resp, st = _resolve_matches(out_dir, query_text, scope, conjunctive,
                                skip_missing_lemmas=skip_missing_lemmas)
    if resp is not None:
        return {**resp, "updated": 0, "generations": []}
    matched, rank_of, groups, live_parts = st

    updated = 0
    gens_out: list[int] = []
    for key, cids in groups.items():
        live = np.concatenate([live_parts[c] for c in cids])
        live.sort()
        slice_tbl, docid = _read_slice(list(key), cids, rank_of, keep_docids=live)
        hit_mask = np.isin(docid, matched)
        updated += int(hit_mask.sum())
        orig = slice_tbl.column("text").combine_chunks()
        rewritten = pc.replace_substring_regex(
            pc.fill_null(orig, ""), pattern, replacement
        )
        # non-matched rows keep their ORIGINAL (possibly null) text
        new_text = pc.if_else(pa.array(hit_mask), rewritten, orig)
        slice_tbl = slice_tbl.set_column(
            slice_tbl.schema.get_field_index("text"), "text", new_text
        )
        postings, docs, new_turns, new_len = _analyze_convs(
            list(key), cids, rank_of, slice_tbl=slice_tbl, docid=docid
        )
        ranges = [(rank_of[c] << TURN_BITS, (rank_of[c] + 1) << TURN_BITS) for c in cids]
        gens_out.append(
            _write_generation(
                out_dir, cids, ranges, postings, docs, list(key),
                new_turns, new_len,
                extra={"op": "update_by_query", "query": query_text,
                       "pattern": pattern, "replacement": replacement,
                       "scope": scope, "conjunctive": bool(conjunctive),
                       "updated_turns": int(hit_mask.sum())},
                source_tbl=slice_tbl,
            )
        )
    return {"result": True, "error": None, "updated": updated, "generations": gens_out}
