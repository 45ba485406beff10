"""Sharded index builds — the multi-index lifecycle at cluster scale.

At 10^12 turns one index artifact is operationally wrong: builds must
parallelize across machines, fail and resume per shard, and serve
before every shard is rebuilt. This module closes the loop the
federated query side (`federate.py`) opened:

    corpus ──(ONE distributed hash-split pass)──► shard corpora
           ──(per-shard build_index, each itself resumable)──► shard indexes
           ──(FederatedEngine)──► bit-identical serving vs a monolithic build

The split is a single Ray Data pass: a `map_batches` stage assigns
``shard = md5(conv_id) % n_shards`` on each batch's conv DICTIONARY
(unique conv_ids — the docid-attacher device, no per-row Python in the
hot path) and `write_parquet(partition_cols=["shard"])` lands every
shard's rows under its own ``shard=<i>/`` directory — hash partitioning
by conversation, the same key every later stage (docids, deltas,
compaction) already groups by, so a conversation never straddles
shards. Per-shard builds then run the standard `build_index` (lineage
manifests make each independently resumable; a DONE shard is skipped on
re-run — kill the job after shard 0 and only shards 1..N-1 build).

Scale note: the split pass streams (no driver materialization) and the
per-shard builds are the same jobs a real cluster would run one per
node group; `n_shards` is the unit of build parallelism AND of blast
radius — a failed build loses one shard's progress, a corrupted index
quarantines one shard.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from ..config import BuildConfig
from ..sources.transcripts import TRANSCRIPT_COLUMNS, read_transcripts
from ..state.manifest import load_json
from . import build as build_mod


def shard_of(conv_id: str, n_shards: int) -> int:
    """The shard assignment rule: full-digest md5 mod n — deterministic
    across runs, machines and partitionings."""
    return int(hashlib.md5(conv_id.encode()).hexdigest(), 16) % n_shards


def _make_shard_assigner(n_shards: int):
    """map_batches fn adding the int32 ``shard`` column; md5 runs once
    per UNIQUE conv in the batch (conversations are contiguous-ish in
    real transcript data, so the dictionary is tiny vs rows)."""

    def assign(batch: pa.Table) -> pa.Table:
        d = batch.column("conv_id").combine_chunks().dictionary_encode()
        uniq = d.dictionary.to_pylist()
        lut = np.array([shard_of(c, n_shards) for c in uniq], np.int32)
        codes = d.indices.to_numpy(zero_copy_only=False)
        return batch.append_column("shard", pa.array(lut[codes], pa.int32()))

    return assign


def split_corpus(input_paths, out_dir: str, n_shards: int) -> list[str]:
    """ONE distributed pass: corpus -> ``out_dir/shard=<i>/*.parquet``.
    Returns the per-shard directories (missing dirs -> empty shards are
    legal: a shard with no conversations simply has no corpus dir and
    gets no index)."""
    ds = read_transcripts(input_paths, columns=TRANSCRIPT_COLUMNS)
    ds.map_batches(
        _make_shard_assigner(n_shards), batch_format="pyarrow"
    ).write_parquet(out_dir, partition_cols=["shard"])
    return [
        os.path.join(out_dir, f"shard={i}")
        for i in range(n_shards)
        if os.path.isdir(os.path.join(out_dir, f"shard={i}"))
    ]


def reindex_sharded(
    out_root: str,
    n_shards: int,
    conv_ids: list[str],
    input_paths: list[str] | None = None,
) -> dict:
    """Sharded single-conversation upsert: route each conversation to
    its owning shard by the split rule and append a delta generation
    THERE — the other shards are untouched (the blast-radius property
    again: an upsert touches exactly the shards that own the convs).
    Federated serving reflects the deltas immediately (delta-shard
    federation is pinned rank-identical to a monolithic rebuild).
    -> {'result', 'generations': {shard_id: gen}, 'error'}"""
    from . import delta as delta_mod

    groups: dict[int, list[str]] = {}
    for c in conv_ids:
        groups.setdefault(shard_of(c, n_shards), []).append(c)
    gens: dict[int, int] = {}
    for sid, convs in sorted(groups.items()):
        out = os.path.join(out_root, f"idx{sid}")
        r = delta_mod.reindex_conversations(out, convs, input_paths)
        if not r["result"]:
            return {"result": False, "generations": gens,
                    "error": f"shard {sid}: {r['error']}"}
        gens[sid] = r["generation"]
    return {"result": True, "generations": gens, "error": None}


def delete_by_query_sharded(out_root: str, n_shards: int, query_text: str,
                            scope: str | None = None,
                            conjunctive: bool = False) -> dict:
    """Sharded delete-by-query with UNION matching semantics: the
    missing-lemma rule evaluates against the federation dictionary (a
    lemma absent from EVERY shard empties the delete, the monolithic
    rule), then each shard deletes its matches of its PRESENT terms
    (``skip_missing_lemmas`` — a shard missing one term of a
    disjunctive query still deletes its matches of the others, exactly
    the federated matching set; conjunctive shards missing any lemma
    no-op). Matching sets are disjoint by construction, so the union of
    per-shard deletes IS the monolithic delete — pinned by test against
    a monolithic delete + rebuild. -> {'result', 'deleted' (total),
    'per_shard': {shard_id: n}, 'error'}"""
    from ..federate import FederatedEngine
    from . import delta as delta_mod

    outs = [
        os.path.join(out_root, f"idx{i}") for i in range(n_shards)
        if os.path.isdir(os.path.join(out_root, f"idx{i}"))
    ]
    if not outs:
        return {"result": False, "deleted": 0, "per_shard": {},
                "error": "no shard indexes"}
    _terms, err = FederatedEngine(outs).plan(query_text)
    if err == "empty_query":
        return {"result": False, "deleted": 0, "per_shard": {},
                "error": "empty_query"}
    if err:  # a lemma absent from every shard -> the monolithic no-op
        return {"result": True, "deleted": 0, "per_shard": {}, "error": None}
    total = 0
    per: dict[int, int] = {}
    for out in outs:
        sid = int(os.path.basename(out)[3:])
        r = delta_mod.delete_by_query(out, query_text, scope=scope,
                                      conjunctive=conjunctive,
                                      skip_missing_lemmas=True)
        if not r["result"] and r["error"] == "bad_scope":
            continue  # the scope value does not occur in this shard
        if not r["result"]:
            return {"result": False, "deleted": total, "per_shard": per,
                    "error": f"shard {sid}: {r['error']}"}
        if r.get("deleted"):
            per[sid] = int(r["deleted"])
            total += int(r["deleted"])
    return {"result": True, "deleted": total, "per_shard": per, "error": None}


def update_by_query_sharded(out_root: str, n_shards: int, query_text: str,
                            pattern: str, replacement: str,
                            scope: str | None = None,
                            conjunctive: bool = False) -> dict:
    """Sharded update-by-query: the delete router's union matching
    semantics applied to the regex-rewrite lifecycle op — every shard
    rewrites ITS matches of its present terms (retroactive redaction
    across the whole sharded corpus in one call). -> {'result',
    'updated' (total), 'per_shard': {shard_id: n}, 'error'}"""
    from ..federate import FederatedEngine
    from . import delta as delta_mod

    outs = [
        os.path.join(out_root, f"idx{i}") for i in range(n_shards)
        if os.path.isdir(os.path.join(out_root, f"idx{i}"))
    ]
    if not outs:
        return {"result": False, "updated": 0, "per_shard": {},
                "error": "no shard indexes"}
    _terms, err = FederatedEngine(outs).plan(query_text)
    if err == "empty_query":
        return {"result": False, "updated": 0, "per_shard": {},
                "error": "empty_query"}
    if err:
        return {"result": True, "updated": 0, "per_shard": {}, "error": None}
    total = 0
    per: dict[int, int] = {}
    for out in outs:
        sid = int(os.path.basename(out)[3:])
        r = delta_mod.update_by_query(out, query_text, pattern, replacement,
                                      scope=scope, conjunctive=conjunctive,
                                      skip_missing_lemmas=True)
        if not r["result"] and r["error"] == "bad_scope":
            continue
        if not r["result"]:
            return {"result": False, "updated": total, "per_shard": per,
                    "error": f"shard {sid}: {r['error']}"}
        if r.get("updated"):
            per[sid] = int(r["updated"])
            total += int(r["updated"])
    return {"result": True, "updated": total, "per_shard": per, "error": None}


def compact_sharded(out_root: str, n_shards: int, *, resume: bool = False,
                    mode: str = "minor") -> dict:
    """Fold every shard's delta generations into its base — shards with
    no generations no-op (compact's own contract). Each shard compacts
    independently (the crash-journaled swap is per shard), so a failure
    quarantines one shard and ``resume=True`` finishes it. -> {'result',
    'compacted': [shard ids with generations folded], 'error'}"""
    from . import compact as compact_mod
    from . import delta as delta_mod

    done: list[int] = []
    for sid in range(n_shards):
        out = os.path.join(out_root, f"idx{sid}")
        if not os.path.isdir(out):
            continue
        had = bool(delta_mod.list_generations(out))
        r = compact_mod.compact(out, resume=resume, mode=mode)
        if not r["result"]:
            return {"result": False, "compacted": done,
                    "error": f"shard {sid}: {r.get('error')}"}
        if had:
            done.append(sid)
    return {"result": True, "compacted": done, "error": None}


def split_shards(
    out_root: str,
    n_shards: int,
    dest_root: str,
    factor: int = 2,
    n_partitions: int = 2,
    concurrency: int = 2,
    resume: bool = True,
) -> dict:
    """Split every shard by ``factor`` (the Elasticsearch ``_split``
    index API at the deployment level): n_shards -> n_shards*factor
    under ``dest_root``, with the global routing rule staying
    ``md5(conv) % new_n`` — a CONSISTENT refinement, because
    ``m % N == i`` implies ``m % (N*f) ∈ {i, i+N, …, i+(f-1)N}``, so
    each old shard's stored corpus slice maps exactly onto ``f`` new
    shards and the split reads ONLY that slice (blast radius = one
    shard; never a full-corpus pass — the property that makes resharding
    survivable at 10^12 turns). Per old shard: one Ray Data re-split
    pass over its ``corpus/shard=<i>`` files with the new-n assigner,
    then independent new-shard builds (DONE-skip resume at both levels,
    like ``build_sharded``). Old shards must be generation-free (ES
    requires the split source read-only) — compact first.
    -> {'result', 'n_shards' (new), 'shard_outs', 'built', 'error'}"""
    if n_shards < 1 or int(factor) < 2:
        return {"result": False, "n_shards": 0, "shard_outs": [],
                "built": [], "error": "bad_factor"}
    from . import delta as delta_mod

    factor = int(factor)
    new_n = n_shards * factor
    old_corpus = os.path.join(out_root, "corpus")
    for i in range(n_shards):
        old_out = os.path.join(out_root, f"idx{i}")
        if os.path.isdir(old_out) and delta_mod.list_generations(old_out):
            return {"result": False, "n_shards": 0, "shard_outs": [],
                    "built": [],
                    "error": f"shard {i} has pending delta generations"
                             " — compact before splitting"}
    dest_corpus = os.path.join(dest_root, "corpus")
    for i in range(n_shards):
        sd = os.path.join(old_corpus, f"shard={i}")
        if not os.path.isdir(sd):
            continue  # empty shard: nothing to re-split
        children = [os.path.join(dest_corpus, f"shard={i + t * n_shards}")
                    for t in range(factor)]
        if resume and any(os.path.isdir(c) for c in children):
            continue  # this shard's re-split already landed
        files = sorted(
            os.path.join(sd, f) for f in os.listdir(sd)
            if f.endswith(".parquet")
        )
        split_corpus(files, dest_corpus, new_n)
    shard_outs, built = [], []
    for j in range(new_n):
        sd = os.path.join(dest_corpus, f"shard={j}")
        if not os.path.isdir(sd):
            continue
        out = os.path.join(dest_root, f"idx{j}")
        m = load_json(build_mod.build_manifest_path(out))
        if not (resume and m and m.get("state") == "DONE"):
            files = sorted(
                os.path.join(sd, f) for f in os.listdir(sd)
                if f.endswith(".parquet")
            )
            build_mod.build_index(BuildConfig(
                input_paths=files, out_dir=out,
                n_partitions=n_partitions, concurrency=concurrency,
            ))
            built.append(j)
        shard_outs.append(out)
    return {"result": True, "n_shards": new_n, "shard_outs": shard_outs,
            "built": built, "error": None}


def shrink_shards(
    out_root: str,
    n_shards: int,
    dest_root: str,
    factor: int = 2,
    n_partitions: int = 2,
    concurrency: int = 2,
    resume: bool = True,
) -> dict:
    """Merge shards by ``factor`` (the Elasticsearch ``_shrink`` index
    API): n_shards -> n_shards/factor (factor must divide n_shards),
    routing stays ``md5(conv) % new_n``. Because ``new_n | N``,
    ``m % N == i`` already implies ``m % new_n == i % new_n`` — child
    ``j``'s corpus is EXACTLY the union of parents ``{j, j+new_n, …}``,
    so the shrink needs NO re-split pass at all: parent slice files
    hardlink (copy-fallback) into the child corpus dirs and each child
    builds from them (DONE-skip resume per child). Generation-free
    source guard, like ``split_shards`` (ES read-only rule).
    -> {'result', 'n_shards' (new), 'shard_outs', 'built', 'error'}"""
    factor = int(factor)
    if n_shards < 1 or factor < 2 or n_shards % factor != 0:
        return {"result": False, "n_shards": 0, "shard_outs": [],
                "built": [], "error": "bad_factor"}
    from . import delta as delta_mod

    new_n = n_shards // factor
    old_corpus = os.path.join(out_root, "corpus")
    for i in range(n_shards):
        old_out = os.path.join(out_root, f"idx{i}")
        if os.path.isdir(old_out) and delta_mod.list_generations(old_out):
            return {"result": False, "n_shards": 0, "shard_outs": [],
                    "built": [],
                    "error": f"shard {i} has pending delta generations"
                             " — compact before shrinking"}
    dest_corpus = os.path.join(dest_root, "corpus")
    shard_outs, built = [], []
    for j in range(new_n):
        parents = [os.path.join(old_corpus, f"shard={j + t * new_n}")
                   for t in range(factor)]
        parents = [p for p in parents if os.path.isdir(p)]
        if not parents:
            continue  # all parents empty: empty child
        cd = os.path.join(dest_corpus, f"shard={j}")
        if not (resume and os.path.isdir(cd)):
            os.makedirs(cd, exist_ok=True)
            for t, p in enumerate(parents):
                for f in sorted(os.listdir(p)):
                    if not f.endswith(".parquet"):
                        continue
                    dst = os.path.join(cd, f"p{t}-{f}")
                    try:
                        os.link(os.path.join(p, f), dst)
                    except OSError:
                        import shutil

                        shutil.copy2(os.path.join(p, f), dst)
        out = os.path.join(dest_root, f"idx{j}")
        m = load_json(build_mod.build_manifest_path(out))
        if not (resume and m and m.get("state") == "DONE"):
            files = sorted(
                os.path.join(cd, f) for f in os.listdir(cd)
                if f.endswith(".parquet")
            )
            build_mod.build_index(BuildConfig(
                input_paths=files, out_dir=out,
                n_partitions=n_partitions, concurrency=concurrency,
            ))
            built.append(j)
        shard_outs.append(out)
    return {"result": True, "n_shards": new_n, "shard_outs": shard_outs,
            "built": built, "error": None}


def build_sharded(
    input_paths,
    out_root: str,
    n_shards: int = 2,
    n_partitions: int = 2,
    concurrency: int = 2,
    resume: bool = True,
) -> dict:
    """Split + per-shard builds. Idempotent at both levels: the split
    is skipped when every shard dir already exists, and a shard whose
    build manifest is DONE is skipped (the resumability contract —
    re-running after a mid-job kill finishes only the missing work).
    -> {'result', 'shard_outs': [index dirs], 'built': [shard ids that
    actually built this call], 'error'}"""
    if n_shards < 1:
        return {"result": False, "shard_outs": [], "built": [],
                "error": "bad_shards"}
    corpus_dir = os.path.join(out_root, "corpus")
    have = [
        os.path.join(corpus_dir, f"shard={i}")
        for i in range(n_shards)
        if os.path.isdir(os.path.join(corpus_dir, f"shard={i}"))
    ]
    shard_dirs = have if (resume and have) else split_corpus(
        input_paths, corpus_dir, n_shards
    )
    shard_outs, built = [], []
    for sd in shard_dirs:
        sid = int(os.path.basename(sd).split("=", 1)[1])
        out = os.path.join(out_root, f"idx{sid}")
        m = load_json(build_mod.build_manifest_path(out))
        if not (resume and m and m.get("state") == "DONE"):
            files = sorted(
                os.path.join(sd, f) for f in os.listdir(sd)
                if f.endswith(".parquet")
            )
            build_mod.build_index(BuildConfig(
                input_paths=files, out_dir=out,
                n_partitions=n_partitions, concurrency=concurrency,
            ))
            built.append(sid)
        shard_outs.append(out)
    return {"result": True, "shard_outs": shard_outs, "built": built,
            "error": None}
