"""The index build — the analog of ``GET /api/startIndexing``.

Reference lifecycle (SURVEY.md §3.1): controller -> thread-per-site ->
ForkJoin crawl -> per-page analyze -> row-at-a-time lemma/posting upserts
into MySQL under two global mutexes
(``/root/reference/src/main/java/searchengine/services/indexation/IndexationServiceImpl.java:88-106``,
``EntitySaver.java:35-109``). Here the same computation is four Ray Data
stages over zero-copy Arrow, each a durable checkpoint with lineage
manifests (the upgrade of the reference's 3-state site status machine,
``model/Status.java:3-5``):

  A. analyze   read_parquet(part) -> map_batches(AnalyzerActor pool)
               -> stageA/part-NNN parquet  (flat postings + doc rows),
               one resumable partition per input-file group — the unit
               of checkpoint/resume (north rule).
  B. docs      doc rows -> broadcast dense conv-rank -> docid
               -> sort(docid) -> docs/ parquet; global N, avgdl.
  C. index     postings + docid -> sort(['lemma','docid'])  (THE shuffle:
               the range-partitioned k-way merge; hot-lemma skew is
               split across range partitions automatically)
               -> map_batches(block encoder) -> index/ parquet. The
               encoder emits per-block partial aggregates (n, Σtf,
               max tf) alongside the compressed payloads.
  D. dict      lemma_dict (df, cf, max_tf, dense lemma_id) derived by
               aggregating the per-block partials from stage C's block
               metadata — a ~block_size-fold smaller input than the
               naive postings groupby, so the dictionary costs one
               column-pruned metadata scan instead of a second
               all-to-all shuffle (map-side pre-aggregation taken to
               its limit: the "partials" are already durable).

Every stage writes its own manifest; ``resume=True`` skips any stage /
partition whose lineage key (input files+sizes, analyzer+codec versions,
semantic params) matches a DONE manifest. Outputs are deterministic
functions of the lineage key, so a resumed build is identical to an
uninterrupted one.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.aggregate import Count, Sum

from ..analyzer import ANALYZER_VERSION
from ..config import BuildConfig
from ..docid import make_docid_attacher
from ..stages.analyze import AnalyzerActor
from ..stages.encode import make_block_encoder, scope_codes_of
from ..state.manifest import (
    STATE_DONE,
    STATE_FAILED,
    PartitionTracker,
    lineage_key,
    load_json,
    write_json_atomic,
)
# the on-disk layout lives in a Ray-free module so the query side can
# read an index without importing Ray; re-exported for build callers
from ..state.layout import (  # noqa: F401
    _load_sorted_convs,
    build_manifest_path,
    docs_dir,
    index_dir,
    lemma_dict_path,
    request_stop,
    stage_a_dir,
    stop_flag_path,
)

CODEC_VERSION = "7"  # 7: per-posting token-position stream (poss) in index blocks
_VERSIONS = {"analyzer": ANALYZER_VERSION, "codec": CODEC_VERSION}

ANALYSIS_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]

# rows per parquet row group of each key-sorted store, written the same by
# the build and by compaction. The query engine reads every store one row
# group at a time, located by the groups' footer key bounds
# (SearchEngine._groups), so a row group is the unit of a cold read.
INDEX_ROW_GROUP_ROWS = 16_384  # index block rows (~0.5 KB of payload each)
DOCS_ROW_GROUP_ROWS = 65_536   # doc-store rows, docid-sorted
DICT_ROW_GROUP_ROWS = 65_536   # lemma-dictionary rows, lemma-sorted


def partition_input_files(paths: list[str], n_partitions: int | None) -> list[list[str]]:
    """Deterministic round-robin file grouping -> stage-A resume units.
    ``None`` -> one partition per ~256 MiB of input (see BuildConfig)."""
    files = sorted(paths)
    if n_partitions is None:
        total = sum(os.path.getsize(f) for f in files)
        n_partitions = (total >> 28) + 1
    n = min(n_partitions, len(files)) or 1
    return [files[i::n] for i in range(n)]


class BuildStopped(RuntimeError):
    """A cooperative stop (``request_stop``) interrupted the build.
    In-flight stage-A partitions are marked FAILED; the build resumes
    cleanly with ``resume=True`` (the reference's ``stopIndexing``
    semantics, ``IndexationServiceImpl.java:52-63`` — a flag checked
    cooperatively, not a kill)."""


def clear_stop(out_dir: str) -> None:
    try:
        os.remove(stop_flag_path(out_dir))
    except FileNotFoundError:
        pass


def _fresh_dir(d: str) -> str:
    if os.path.exists(d):
        shutil.rmtree(d)
    os.makedirs(d, exist_ok=True)
    return d


def _dir_stats(d: str) -> dict:
    rows = bytes_ = 0
    for root, _, names in os.walk(d):
        for f in names:
            p = os.path.join(root, f)
            if f.endswith(".parquet"):
                rows += pq.ParquetFile(p).metadata.num_rows
                bytes_ += os.path.getsize(p)
    return {"rows": rows, "bytes": bytes_}


def _stage_a_parquet(out_dir: str, kind: str | None = None) -> list[str]:
    """Stage-A parquet files; ``kind`` ('post' | 'doc') selects one side
    of the hive split (part-NNN/kind=post|doc/), None returns both."""
    base = stage_a_dir(out_dir)
    out = []
    kinds = ("post", "doc") if kind is None else (kind,)
    for part in sorted(os.listdir(base)):
        pd_ = os.path.join(base, part)
        if not (part.startswith("part-") and os.path.isdir(pd_)):
            continue
        for kd in kinds:
            kdir = os.path.join(pd_, f"kind={kd}")
            if os.path.isdir(kdir):
                out.extend(
                    os.path.join(kdir, f)
                    for f in sorted(os.listdir(kdir))
                    if f.endswith(".parquet")
                )
    return out


def _read_blocks_for(paths: list[str], ncpu: int) -> int:
    """Output-block count for an internal parquet read: Ray's default
    splitter derives block count from row groups and oversplits small
    stage outputs badly (measured 210 blocks for a 39 MB stage-A read
    at sf0.1 — the sort downstream then pays ~2.5x wall in pure task
    scheduling). Measured sweet spots (sf0.1@32cpu, sf1@2/8cpu):

    - preferred block size ~40 MB in-memory (disk/10 MB at the measured
      ~4x parquet decode factor) — big enough that scheduling is noise,
      small enough that sort/encode waves stay balanced;
    - floor 2 blocks/cpu so every core gets sort/encode work;
    - the preferred size yields to a 12-blocks/cpu ceiling on SMALL
      boxes (a 2-cpu leg pays more for 46 read tasks than it gains in
      wave balance), but the ceiling itself yields to a ~64 MB-memory
      per-block safety bound at scale — at 100 TB on thousands of
      cores the bytes terms dominate both ends, so block size stays in
      the 40-64 MB band no matter how the cluster grows."""
    import os as _os

    try:
        disk = sum(_os.path.getsize(p) for p in paths)
    except OSError:
        return 2 * ncpu
    preferred = disk // (10 << 20) + 1
    ceiling = max(12 * ncpu, disk // (16 << 20) + 1)
    return max(2 * ncpu, min(preferred, ceiling))


def read_flat_postings(out_dir: str, columns: list[str] | None = None,
                       ncpu: int | None = None) -> rd.Dataset:
    """Flat postings dataset (lemma, conv_id, turn_idx, tf[, doc_len]) —
    the oracle-checkable analog of the reference's ``indexes`` table.
    Reads ONLY the postings side of the stage-A split (no filter, no
    decode of the other row kind). ``ncpu`` opts into size-aware block
    sizing (:func:`_read_blocks_for`) for exchange-bound consumers."""
    paths = _stage_a_parquet(out_dir, "post")
    kw = {}
    if ncpu:
        kw["override_num_blocks"] = _read_blocks_for(paths, ncpu)
    return rd.read_parquet(
        paths,
        columns=columns or ["lemma", "conv_id", "turn_idx", "tf", "doc_len"],
        **kw,
    )


def read_doc_rows(out_dir: str, columns: list[str] | None = None,
                  ncpu: int | None = None) -> rd.Dataset:
    paths = _stage_a_parquet(out_dir, "doc")
    kw = {}
    if ncpu:
        kw["override_num_blocks"] = _read_blocks_for(paths, ncpu)
    return rd.read_parquet(
        paths,
        columns=columns or ["conv_id", "turn_idx", "role", "doc_len", "tool", "ts"],
        **kw,
    )


# per-worker-process lemma -> 63-bit hash memo (vocabulary-sized; the
# same surviving lemmas recur in every batch, so md5 runs once per term
# per process, not once per term per batch)
_LEMMA_H_MEMO: dict[str, int] = {}


def _attach_lemma_hash(batch: pa.Table) -> pa.Table:
    """Vectorized lemma_h: hash only the batch's UNIQUE lemmas (via
    dictionary encode, memoized per process) and broadcast through the
    codes."""
    from ..analyzer import lemma_hash64

    d = batch.column("lemma").combine_chunks().dictionary_encode()
    memo = _LEMMA_H_MEMO
    get = memo.get
    uniq = d.dictionary.to_pylist()
    uniq_h = np.empty(len(uniq), np.int64)
    for i, s in enumerate(uniq):
        h = get(s)
        if h is None:
            h = lemma_hash64(s)
            memo[s] = h
        uniq_h[i] = h
    codes = d.indices.to_numpy(zero_copy_only=False)
    return batch.append_column("lemma_h", pa.array(uniq_h[codes], pa.int64()))


def make_lemma_rank_attacher(vocab_ref):
    """Minimized-exchange sort key: the int32 dense vocabulary RANK of
    each lemma (rank order == lemma_h order, since the broadcast vocab
    is hash-sorted and collision-free on this path). Hashes only the
    batch's UNIQUE lemmas (memoized per process), one searchsorted into
    the broadcast hash array, broadcast through the dictionary codes."""

    def attach(batch: pa.Table) -> pa.Table:
        from ..analyzer import lemma_hash64
        from ..stages.encode import _resolve

        vh, _vlem = _resolve(vocab_ref)
        d = batch.column("lemma").combine_chunks().dictionary_encode()
        uniq = d.dictionary.to_pylist()
        memo = _LEMMA_H_MEMO
        uniq_h = np.empty(len(uniq), np.int64)
        for i, s in enumerate(uniq):
            h = memo.get(s)
            if h is None:
                h = lemma_hash64(s)
                memo[s] = h
            uniq_h[i] = h
        pos = np.searchsorted(vh, uniq_h)
        pos_c = np.minimum(pos, max(len(vh) - 1, 0))
        if len(pos) and not (vh[pos_c] == uniq_h).all():
            raise ValueError("lemma missing from broadcast vocabulary")
        codes = d.indices.to_numpy(zero_copy_only=False)
        return batch.append_column(
            "lemma_r", pa.array(pos_c[codes].astype(np.int32), pa.int32())
        )

    return attach


def make_scope_coder(roles: list[str], tools: list[str]):
    """map_batches fn: (role, tool) columns -> int32 ``scope_code``
    (the oversized-corpus regime where the doc-side broadcast doesn't
    fit — the code rides the stage-C shuffle instead)."""

    def code(batch: pa.Table) -> pa.Table:
        sc = scope_codes_of(
            batch.column("role").combine_chunks(),
            batch.column("tool").combine_chunks(),
            roles, tools,
        )
        return batch.append_column("scope_code", pa.array(sc.astype(np.int32), pa.int32()))

    return code


def _vocab_from_parquet_dictionaries(files: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Driver-side vocabulary: read the lemma column dictionary-encoded —
    the parquet dictionary PAGES are per-row-group unique sets, so only
    int32 codes + tiny dictionaries materialize (a possible superset of
    the live vocabulary is harmless: restore lookups only probe present
    hashes and collision detection on a superset is conservative).
    Returns (lemma_h sorted asc, lemma) aligned arrays."""
    from ..analyzer import lemma_hash64

    t = pq.read_table(files, columns=["lemma"], read_dictionary=["lemma"])
    parts = []
    for chunk in t.column("lemma").chunks:
        if isinstance(chunk, pa.DictionaryArray):
            parts.append(chunk.dictionary)
        else:  # writer fell back to plain encoding for this row group
            parts.append(pc.unique(chunk))
    uniq = pc.unique(pa.concat_arrays(parts)) if parts else pa.array([], pa.string())
    uniq = uniq.drop_null()
    lem_np = np.asarray(uniq.to_pylist(), dtype=object)
    memo = _LEMMA_H_MEMO
    get = memo.get
    h = np.empty(len(lem_np), np.int64)
    for i, s in enumerate(lem_np):
        v = get(s)
        if v is None:
            v = lemma_hash64(s)
            memo[s] = v
        h[i] = v
    order = np.argsort(h, kind="stable")
    return h[order], lem_np[order]


def build_rank_table(input_paths: list[str]) -> rd.Dataset:
    """Distributed dense rank of conv_ids (docid.py's scale path for
    corpora whose conv list exceeds the broadcast budget): map-side
    unique -> dedupe groupby -> range sort -> per-block ranks assigned
    from a driver-side prefix sum of BLOCK COUNTS only (the driver never
    holds a conv_id). Rank assignment is the one op the Dataset API
    cannot express (it needs each block's global row offset), so it runs
    as raw Ray tasks over the sorted blocks — documented fallback (c).
    Returns a Dataset of (conv_id, conv_rank), rank order == sorted
    conv_id order (the same ranks the broadcast path assigns)."""
    uniq = (
        rd.read_parquet(input_paths, columns=["conv_id"])
        .map_batches(
            lambda b: pa.table({"conv_id": pc.unique(b.column("conv_id").combine_chunks())}),
            batch_format="pyarrow",
            batch_size=None,
        )
        .groupby("conv_id")
        .aggregate(Count(alias_name="_n"))
        .select_columns(["conv_id"])
        .sort("conv_id")
        .materialize()
    )
    refs, sizes = [], []
    for bundle in uniq.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            refs.append(ref)
            sizes.append(meta.num_rows)
    offs = np.concatenate(([0], np.cumsum(sizes)[:-1])) if sizes else np.empty(0, np.int64)

    @ray.remote
    def _rank_block(tbl: pa.Table, off: int) -> pa.Table:
        return tbl.append_column(
            "conv_rank", pa.array(np.arange(off, off + tbl.num_rows), pa.int64())
        )

    return rd.from_arrow_refs(
        [_rank_block.remote(r, int(o)) for r, o in zip(refs, offs)]
    )


def attach_docids_join(ds: rd.Dataset, rank_ds: rd.Dataset, ncpu: int) -> rd.Dataset:
    """Join-based docid attach — the beyond-broadcast path: a hash join
    on conv_id against the distributed rank table instead of a ray.put
    lookup array. The rank table covers every conv of the same input by
    construction, so the inner join drops nothing."""
    joined = ds.join(
        rank_ds,
        join_type="inner",
        num_partitions=max(2 * ncpu, 2),
        on=("conv_id",),
    )

    def fin(batch: pa.Table) -> pa.Table:
        from ..docid import make_docids

        docid = make_docids(
            batch.column("conv_rank").to_numpy(zero_copy_only=False),
            batch.column("turn_idx").combine_chunks().to_numpy(zero_copy_only=False),
        )
        return batch.drop_columns(["conv_rank"]).append_column(
            "docid", pa.array(docid, pa.int64())
        )

    return joined.map_batches(fin, batch_format="pyarrow", batch_size=None)


def _sized(ds: rd.MaterializedDataset, ncpu: int) -> rd.Dataset:
    """Widen a materialized sort input when it has too few blocks for
    the cluster (Ray's SortMap parallelism == input block count)."""
    if ds.num_blocks() < 2 * ncpu:
        return ds.repartition(2 * ncpu).materialize()
    return ds


def _settle_fsspec_http_import() -> None:
    """ray.data's ``_is_http_filesystem`` re-attempts ``from
    fsspec.implementations.http import HTTPFileSystem`` on every path
    resolution and only catches ``ModuleNotFoundError``. With aiohttp
    absent the failed import is rolled back each time, and two Dataset
    executions resolving paths concurrently can race the partial import,
    surfacing a plain ``ImportError`` that escapes ray's handler. Cache a
    minimal stub module once, on the main thread, so the import becomes
    race-free (the class is only ever used as an isinstance target)."""
    try:
        import fsspec.implementations.http  # noqa: F401
    except ModuleNotFoundError:
        import sys
        import types

        import fsspec.implementations

        mod = types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # pragma: no cover - isinstance target only
            pass

        mod.HTTPFileSystem = HTTPFileSystem
        sys.modules["fsspec.implementations.http"] = mod
        fsspec.implementations.http = mod


def build_index(
    cfg: BuildConfig,
    fail_after_partition: int | None = None,
    fail_at_stage: str | None = None,
) -> dict:
    """Run (or resume) the full build; returns the build manifest dict.

    ``fail_after_partition`` injects a crash after stage-A partition i;
    ``fail_at_stage`` ('b_mid' | 'c_mid' | 'd_mid') injects a crash
    AFTER the stage's output files are written but BEFORE its lineage
    manifest commits — the worst torn state a real failure can leave.
    Both are used by the resume tests (SURVEY.md §5.6): a resumed build
    must produce identical logical content.
    """

    def _inject(point: str) -> None:
        if fail_at_stage == point:
            raise RuntimeError(f"injected failure at {point}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    # a NEW build run supersedes any stale stop request (the reference's
    # startIndexing-after-stopIndexing flow); test hooks can re-arm it
    # mid-run via extra["stop_after_batches"]
    clear_stop(cfg.out_dir)

    def _check_stop(where: str) -> None:
        if os.path.exists(stop_flag_path(cfg.out_dir)):
            raise BuildStopped(f"stop requested ({where}); resume with resume=True")
    _settle_fsspec_http_import()
    # pluggable analyzer (protocols.Analyzer): the module path + ITS
    # version enter every lineage key, so a resumed build never mixes
    # analyzer implementations or versions
    amod = cfg.extra.get("analyzer_module")
    if amod:
        import importlib

        _amodule = importlib.import_module(amod)
        _aver = _amodule.ANALYZER_VERSION
        versions = {"analyzer": f"{amod}:{_aver}", "codec": CODEC_VERSION}
        # a pluggable analyzer without positions builds a valid
        # (phrase-disabled) index rather than failing
        positions = cfg.store_positions and getattr(_amodule, "HAS_POSITIONS", False)
    else:
        versions = dict(_VERSIONS)
        positions = cfg.store_positions
    t0 = time.monotonic()
    timings: dict[str, float] = {}
    parts = partition_input_files(cfg.input_paths, cfg.n_partitions)
    a_params = {"batch_size": cfg.batch_size, "stage": "A"}

    # ---------------- stage A: analyze (per-partition checkpoints) -----
    tracker = PartitionTracker(os.path.join(stage_a_dir(cfg.out_dir), "_manifests"), build_id="A")
    n_skipped = 0

    def _run_part(i: int, files: list[str], overlap: int = 1) -> None:
        pid = f"part-{i:03d}"
        key = lineage_key(files, versions, a_params)
        _check_stop(f"before stage-A {pid}")
        tp = time.monotonic()
        part_dir = _fresh_dir(os.path.join(stage_a_dir(cfg.out_dir), pid))
        conc = cfg.concurrency
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        if conc is None:  # auto-size: see BuildConfig.concurrency
            part_bytes = sum(os.path.getsize(f) for f in files)
            # cap the pool at HALF the cores divided by the number of
            # overlapped partition executions: the read/decompress/write
            # tasks feeding and draining each pool need the rest
            # (measured at sf0.5/32cpu: 16 actors 5.1s, 30 actors 17.1s
            # — a near-full pool starves its own IO; a full pool
            # deadlocks outright)
            conc = max(1, min(max(1, ncpu // (2 * overlap)), (part_bytes >> 22) + 1))
        elif conc * overlap * 2 > ncpu:
            # an EXPLICIT concurrency obeys the same safety bound: overlap
            # x conc actors with no cores left for reads/writes is the
            # outright-deadlock mode (reproduced: concurrency=4, overlap=2,
            # 8 cpus, and concurrency=2 at 2 cpus without overlap — the
            # stage-A datasets stall at spin-up forever)
            conc = max(1, ncpu // (2 * overlap))
        try:
            ds = rd.read_parquet(files, columns=ANALYSIS_COLUMNS)
            ds = ds.map_batches(
                AnalyzerActor,
                fn_constructor_kwargs=(
                    {"stop_path": stop_flag_path(cfg.out_dir)}
                    | ({"kill_after_batches": cfg.extra["kill_after_batches"]}
                       if "kill_after_batches" in cfg.extra else {})
                    | ({"stop_after_batches": cfg.extra["stop_after_batches"]}
                       if "stop_after_batches" in cfg.extra else {})
                    | ({"analyzer_module": amod} if amod else {})
                ),
                batch_format="pyarrow",
                batch_size=cfg.batch_size,
                concurrency=conc,
                # no actor restarts: fault tolerance is the per-partition
                # checkpoint manifest (a lost actor fails the partition,
                # which resume recomputes) — also silences ray#53727's
                # restart-will-fail warning on every build
                max_restarts=0,
            )
            # min_rows_per_file: without it every map task emits its own
            # ~2k-row file per kind (hundreds of 100KB files per
            # partition) and downstream passes pay per-file open costs.
            # stage_a_compression (extra): parquet codec for the stage-A
            # intermediates — snappy default; zstd trades analyzer-side
            # CPU for smaller downstream re-reads (A/B in BASELINE.md)
            ds.write_parquet(
                part_dir, partition_cols=["kind"], min_rows_per_file=500_000,
                **(
                    {"compression": cfg.extra["stage_a_compression"]}
                    if "stage_a_compression" in cfg.extra
                    else {}
                ),
            )
        except Exception as e:
            tracker.mark(pid, key, STATE_FAILED, input_files=files)
            if os.path.exists(stop_flag_path(cfg.out_dir)):
                # the failure was the cooperative stop firing inside the
                # analyzer pool: surface the clean signal, FAILED
                # manifest already makes the partition resumable
                raise BuildStopped(
                    f"stop requested (stage-A {pid} aborted); resume with resume=True"
                ) from e
            raise
        metrics = _dir_stats(part_dir) | {"wall_s": round(time.monotonic() - tp, 3)}
        tracker.mark(pid, key, STATE_DONE, input_files=files, metrics=metrics)

    # Each partition is its own streaming Dataset execution with a
    # DONE/FAILED lineage manifest (the resume unit). A BOUNDED number
    # run concurrently (driver threads; each execution's actor pool is
    # sized down by the overlap factor) so one partition's tail — last
    # straggler batch, manifest write, next spin-up — overlaps the
    # next's ramp. Overlap stays 1 at low CPU counts, where concurrent
    # executions can starve each other in Ray Data's local scheduler
    # (measured round 1), and under failure injection (deterministic
    # ordering for the resume tests).
    overlap = cfg.extra.get("stage_a_overlap")
    if overlap is None:
        ncpu0 = int(ray.cluster_resources().get("CPU", 8))
        overlap = 2 if (len(parts) > 1 and ncpu0 >= 8) else 1
    todo = []
    for i, files in enumerate(parts):
        if cfg.resume and tracker.is_done(f"part-{i:03d}", lineage_key(files, versions, a_params)):
            n_skipped += 1
            continue
        todo.append((i, files))
    if overlap <= 1 or fail_after_partition is not None or len(todo) <= 1:
        for i, files in todo:
            _run_part(i, files)
            if fail_after_partition is not None and i >= fail_after_partition:
                raise RuntimeError(f"injected failure after stage-A partition {i}")
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=int(overlap)) as ex:
            futs = [ex.submit(_run_part, i, files, int(overlap)) for i, files in todo]
            for f in futs:
                f.result()  # re-raises the first partition failure
    timings["stage_a_s"] = round(time.monotonic() - t0, 3)
    _check_stop("after stage A")

    stage_a_files = _stage_a_parquet(cfg.out_dir)
    # Shuffle width for the two sorts: enough blocks to use every core,
    # few enough that the all-to-all exchange (nblocks^2 fetches) stays
    # cheap. Sized from real bytes (stage-A output) with a ~128 MiB
    # per-block ceiling so it scales to arbitrarily large inputs.
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    down_key = lineage_key(
        stage_a_files,
        versions,
        {"block_size": cfg.block_size, "k1": cfg.k1, "b": cfg.b,
         "positions": positions},
    )
    tracker_s = PartitionTracker(os.path.join(cfg.out_dir, "_manifests"), build_id="BCD")

    # ---------------- stage B: docids + doc store ----------------------
    tb = time.monotonic()
    stats: dict = {}
    prior = load_json(build_manifest_path(cfg.out_dir))
    docs_files = _stage_a_parquet(cfg.out_dir, "doc")
    post_files = _stage_a_parquet(cfg.out_dir, "post")
    docs_bytes = sum(os.path.getsize(f) for f in docs_files)
    post_bytes = sum(os.path.getsize(f) for f in post_files)
    # conv-rank strategy: broadcast lookup array (ray.put once, zero
    # shuffle) while the conv list fits a worker heap; beyond that the
    # distributed dense-rank table + a hash join on conv_id (docid.py's
    # scale path). Row estimate from parquet footers only.
    est_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in cfg.input_paths)
    use_join_docids = bool(cfg.extra.get("force_join_docids")) or (
        est_rows > cfg.broadcast_convs_max
    )
    rank_ds = None
    convs_ref = None
    docs_pending = None  # (thread, err-list) when the doc-store write overlaps stage C
    dl_ref_mem = None
    if cfg.resume and tracker_s.is_done("docs", down_key) and prior:
        stats = dict(prior["stats"])
        if use_join_docids:
            rank_ds = build_rank_table(cfg.input_paths).materialize()
        else:
            convs_ref = ray.put(_load_sorted_convs(cfg.out_dir))
    elif not use_join_docids and docs_bytes <= cfg.driver_small_docs_bytes:
        # small-doc-side plan: one pyarrow pass driver-side replaces
        # three Dataset executions (unique scan, sort shuffle, aggregate)
        # whose fixed spin-up dominates when the doc store is small (the
        # doc side is ~1-2% of stage-A bytes thanks to the kind split).
        # Identical output schema/stats as the distributed path.
        #
        # Round-4 restructure: the WHOLE pass (full-column read, docid
        # attach, sort, write, stats, dl broadcast) runs in a driver
        # THREAD overlapped with stage C's vocab + materialize phases —
        # stage C only needs the conv-rank map up front, which a skinny
        # conv_id-column read supplies in ~1% of the pass (the doc files
        # are conv-dictionary-encoded). The thread's results (stats, dl
        # broadcast) are joined right before the encoder is created;
        # measured ~5-8s of fixed driver time off the critical path at
        # every cpu count. The lineage manifest still commits inside
        # the thread — a crash mid-C leaves stage B unmarked, so resume
        # recomputes it (correct, merely extra work).
        import pyarrow.dataset as pads

        conv_col = pads.dataset(docs_files).to_table(columns=["conv_id"])
        d_enc0 = conv_col.column("conv_id").combine_chunks().dictionary_encode()
        order0 = pc.sort_indices(d_enc0.dictionary)
        convs_sorted = d_enc0.dictionary.take(order0)
        convs_ref = ray.put(convs_sorted.cast(pa.string()))
        # captured by NAME distinct from stage C's `d` rebinding — the
        # thread must never see the index dir (a latent closure race in
        # the pre-round-4 layout, made deterministic by the overlap)
        docs_d = _fresh_dir(docs_dir(cfg.out_dir))

        def _docs_pass() -> tuple[dict, tuple]:
            tD = pads.dataset(docs_files).to_table(
                columns=["conv_id", "turn_idx", "role", "doc_len", "tool", "ts"],
            )
            # dense conv ranks without per-row Python: dictionary-encode
            # the column (C kernel), rank only the UNIQUE conv_ids,
            # broadcast through the codes
            d_enc = tD.column("conv_id").combine_chunks().dictionary_encode()
            order = pc.sort_indices(d_enc.dictionary).to_numpy(zero_copy_only=False)
            rank_of_code = np.empty(len(order), np.int64)
            rank_of_code[order] = np.arange(len(order))
            from ..docid import make_docids

            codes = d_enc.indices.to_numpy(zero_copy_only=False)
            rank = rank_of_code[codes]
            docid = make_docids(
                rank, tD.column("turn_idx").to_numpy(zero_copy_only=False)
            )
            tD = tD.append_column(
                "docid", pa.array(docid, pa.int64())
            ).sort_by("docid")
            dls = tD.column("doc_len").to_numpy(zero_copy_only=False)
            stats_d = {
                "n_docs": tD.num_rows,
                "n_convs": int(len(convs_sorted)),
                "total_len": int(dls.sum()),
                "avgdl": (float(dls.sum()) / tD.num_rows) if tD.num_rows else 0.0,
                "roles": sorted(
                    x for x in pc.unique(tD.column("role").combine_chunks()).to_pylist() if x
                ),
                "tools": sorted(
                    x for x in pc.unique(tD.column("tool").combine_chunks()).to_pylist() if x
                ),
            }
            # raw arrays for the encoder's (docid, doc_len, scope) side;
            # ray.put happens on the MAIN thread at join
            dl_tuple = (
                tD.column("docid").to_numpy(),
                tD.column("doc_len").to_numpy(zero_copy_only=False).astype(np.int32),
                scope_codes_of(
                    tD.column("role").combine_chunks(),
                    tD.column("tool").combine_chunks(),
                    stats_d["roles"], stats_d["tools"],
                ).astype(np.int32),
            )
            # bounded row groups: the query engine gathers per-doc fields
            # from the row groups that hold them, located by the docid
            # sort key's footer stats (SearchEngine._doc_rows)
            pq.write_table(
                tD, os.path.join(docs_d, "docs.parquet"),
                row_group_size=DOCS_ROW_GROUP_ROWS,
            )
            _inject("b_mid")
            tracker_s.mark(
                "docs", down_key, STATE_DONE, metrics=_dir_stats(docs_d)
            )
            return stats_d, dl_tuple

        if fail_at_stage == "b_mid":
            # synchronous so the injection tests see the torn state
            stats, _dl_tuple = _docs_pass()
            dl_ref_mem = ray.put(_dl_tuple)
        else:
            import threading

            _docs_err: list[BaseException] = []
            _docs_out: list[tuple] = []

            def _docs_pass_guarded():
                try:
                    _docs_out.append(_docs_pass())
                except BaseException as e:  # re-raised at join
                    _docs_err.append(e)

            docs_pending = (
                threading.Thread(target=_docs_pass_guarded),
                _docs_err,
                _docs_out,
            )
            docs_pending[0].start()
            stats = None  # joined before the stage-C encoder needs it
    else:
        tu = time.monotonic()
        n_convs = None
        if use_join_docids:
            # distributed dense rank + hash join (no conv list anywhere
            # driver-side); see build_rank_table
            rank_ds = build_rank_table(cfg.input_paths).materialize()
            n_convs = rank_ds.count()
        else:
            # conv ranks from the ORIGINAL input (column-pruned conv_id
            # read — much cheaper than re-scanning stage-A output); small
            # side, see docid.py scale note. Map-side-combine distinct:
            # per-batch pc.unique (C kernel), tiny per-batch results
            # concatenated driver-side — no shuffle at all (ds.unique()
            # pays a full groupby exchange for the same answer)
            uniq_parts = rd.read_parquet(cfg.input_paths, columns=["conv_id"]).map_batches(
                lambda b: pa.table({"conv_id": pc.unique(b.column("conv_id").combine_chunks())}),
                batch_format="pyarrow",
                batch_size=None,
            )
            all_u = pa.concat_tables(
                [t for t in ray.get(uniq_parts.materialize().to_arrow_refs()) if t.num_rows]
            )
            convs = sorted(pc.unique(all_u.column("conv_id").combine_chunks()).to_pylist())
            convs_ref = ray.put(pa.array(convs, pa.string()))
            n_convs = len(convs)
        timings["b_unique_s"] = round(time.monotonic() - tu, 3)
        d = _fresh_dir(docs_dir(cfg.out_dir))
        # materialize before the sort: a lazy sort input is executed
        # TWICE (boundary-sampling pass + shuffle pass); the materialized
        # copy lives in the object store (spills to disk if needed) and
        # halves the upstream cost (measured ~1.5x on stage C at sf1)
        tm = time.monotonic()
        docs_raw = read_doc_rows(cfg.out_dir, ncpu=ncpu)
        docs_with_ids = (
            attach_docids_join(docs_raw, rank_ds, ncpu)
            if use_join_docids
            else docs_raw.map_batches(
                make_docid_attacher(convs_ref), batch_format="pyarrow", batch_size=None
            )
        )
        docs_in = _sized(docs_with_ids.materialize(), ncpu)
        timings["b_mat_s"] = round(time.monotonic() - tm, 3)
        ts_ = time.monotonic()
        docs_in.sort("docid").write_parquet(d, row_group_size=DOCS_ROW_GROUP_ROWS)
        timings["b_sort_s"] = round(time.monotonic() - ts_, 3)
        ta_ = time.monotonic()
        agg = rd.read_parquet(d, columns=["doc_len"]).aggregate(
            Count(alias_name="n_docs"), Sum("doc_len", alias_name="total_len")
        )
        n_docs = int(agg["n_docs"])
        # valid scope values (site-list analog) recorded at build time so
        # the query engine never hardcodes them. Dictionary-encoded
        # low-cardinality columns — a column-pruned driver read here; at
        # 10^12 docs fold into the same Ray aggregate above.
        sc = pq.read_table(d, columns=["role", "tool"])
        roles = sorted(
            x for x in pc.unique(sc.column("role").combine_chunks()).to_pylist() if x
        )
        tools = sorted(
            x for x in pc.unique(sc.column("tool").combine_chunks()).to_pylist() if x
        )
        stats = {
            "n_docs": n_docs,
            "n_convs": int(n_convs),
            "total_len": int(agg["total_len"] or 0),
            "avgdl": (float(agg["total_len"]) / n_docs) if n_docs else 0.0,
            "roles": roles,
            "tools": tools,
        }
        timings["b_agg_s"] = round(time.monotonic() - ta_, 3)
        _inject("b_mid")
        tracker_s.mark("docs", down_key, STATE_DONE, metrics=_dir_stats(d))
    timings["stage_b_s"] = round(time.monotonic() - tb, 3)

    # ---------------- stage C: sorted compressed index -----------------
    _check_stop("before stage C")
    tc = time.monotonic()
    if not (cfg.resume and tracker_s.is_done("index", down_key)):
        d = _fresh_dir(index_dir(cfg.out_dir))

        # n_docs == the exact input row count (one doc row per turn),
        # so the broadcast decision never waits on the overlapped
        # stage-B thread
        broadcast_dl = (
            stats["n_docs"] if stats is not None else est_rows
        ) <= cfg.broadcast_dl_max_docs

        def _resolve_dl_ref():
            # called AFTER the stage-B join point: stats is populated
            if not broadcast_dl:
                return None
            if dl_ref_mem is not None:
                return dl_ref_mem  # built by the stage-B driver pass
            dt = pq.read_table(
                docs_dir(cfg.out_dir), columns=["docid", "doc_len", "role", "tool"]
            )
            return ray.put(
                (
                    dt.column("docid").to_numpy(),
                    dt.column("doc_len").to_numpy(zero_copy_only=False).astype(np.int32),
                    scope_codes_of(
                        dt.column("role").combine_chunks(),
                        dt.column("tool").combine_chunks(),
                        stats["roles"], stats["tools"],
                    ).astype(np.int32),
                )
            )

        sort_cols = ["lemma_h", "docid", "tf"]
        read_cols = ["lemma", "conv_id", "turn_idx", "tf"]
        if positions:
            # per-posting position blobs ride the exchange as opaque
            # bytes (~avg_tf bytes/posting); the encoder block-slices
            # them without decode
            sort_cols.append("pos")
            read_cols.append("pos")
        if not broadcast_dl:
            # oversized-corpus fallback: doc_len and the int32 scope code
            # ride the shuffle (stage A stamps role/tool on posting rows)
            sort_cols.extend(["doc_len", "scope_code"])
            read_cols.extend(["doc_len", "role", "tool"])

        # The vocabulary (lemma_h -> lemma broadcast; the exchange ships
        # NO strings, the encoder restores them) — ALWAYS built before
        # the materialize so the materialized sort input never carries
        # the string (measured: a with-lemma materialize + sort-side
        # projection cost 6x at sf2). Small inputs: read it driver-side
        # off stage A's parquet dictionary pages (~ms). Large inputs: a
        # map-side-combine unique pass over the (dictionary-encoded)
        # parquet lemma column. A detected 63-bit hash collision would
        # make two lemmas indistinguishable in the string-free exchange —
        # handled by falling back to carrying the string through the
        # shuffle (the encoder splits runs by exact string).
        def _finish_vocab(h_sorted: np.ndarray, lem_sorted: np.ndarray):
            collision = bool(
                len(h_sorted) > 1 and (np.diff(h_sorted.astype(np.int64)) == 0).any()
            ) or bool(cfg.extra.get("force_lemma_in_shuffle"))
            return ray.put((h_sorted.astype(np.int64), lem_sorted)), collision

        tv = time.monotonic()
        if post_bytes <= cfg.driver_small_post_bytes:
            vocab_ref, collision = _finish_vocab(
                *_vocab_from_parquet_dictionaries(post_files)
            )
        else:
            # distributed DICTIONARY-PAGE vocabulary: stage A's lemma
            # column is parquet-dictionary-encoded, so each file's
            # unique set already sits in its dictionary pages — one Ray
            # task per file group runs the same read the driver path
            # uses (read_dictionary: C-speed code decode, NO per-row
            # string materialization) and returns a vocab-sized
            # (hash, lemma) pair. This replaced a read_parquet +
            # map_batches(unique) string pass that measured 10x slower
            # (10.7 s -> ~1 s at sf1/8cpus: batch string materialization
            # + per-batch re-encode dominated it). Driver merge is
            # n_groups x vocab — vocab-scale, the honest small side.
            vocab_task = ray.remote(num_cpus=1)(_vocab_from_parquet_dictionaries)
            n_groups = max(1, min(len(post_files), ncpu * 2))
            groups = [g for g in
                      (post_files[i::n_groups] for i in range(n_groups)) if g]
            parts = ray.get([vocab_task.remote(g) for g in groups])
            h_all = (np.concatenate([p[0] for p in parts])
                     if parts else np.empty(0, np.int64))
            lem_all = (np.concatenate([p[1] for p in parts])
                       if parts else np.empty(0, object))
            # dedupe identical (lemma, hash) pairs by LEMMA — a 63-bit
            # collision (two lemmas, one hash) must keep BOTH rows so
            # _finish_vocab still detects it
            d_enc = pa.array(lem_all, pa.string()).dictionary_encode()
            codes = d_enc.indices.to_numpy(zero_copy_only=False)
            _, first = np.unique(codes, return_index=True)
            h_u = h_all[first]
            lem_u = lem_all[first]
            order = np.argsort(h_u, kind="stable")
            vocab_ref, collision = _finish_vocab(h_u[order], lem_u[order])
        timings["c_vocab_s"] = round(time.monotonic() - tv, 3)
        if collision:
            sort_cols.insert(0, "lemma")
        else:
            # minimized exchange (the all-to-all is the one truly
            # non-scaling resource on a shared interconnect): the int32
            # dense vocabulary RANK replaces the int64 hash as the sort
            # key (rank order == hash order, so the physical sort is
            # identical and the encoder indexes the broadcast vocab
            # directly), and with positions on the tf column is DROPPED
            # from the exchange entirely — tf == the varint value count
            # of the posting's pos cell, recomputed by the encoder with
            # one vectorized terminator-byte scan. 24 B/posting -> 12 B
            # (+ positions), measured ~45% fewer exchange bytes.
            sort_cols[sort_cols.index("lemma_h")] = "lemma_r"
            if positions:
                sort_cols.remove("tf")
                read_cols.remove("tf")
        mat_cols = sort_cols

        # ONE scan of stage A: attach docid + lemma_h, materialize the
        # exchange payload (plus the lemma string only when the Ray-side
        # vocabulary pass still needs it — it is projected away before
        # the exchange either way)
        tm = time.monotonic()
        posts_raw = read_flat_postings(cfg.out_dir, columns=read_cols, ncpu=ncpu)
        posts_with_ids = (
            attach_docids_join(posts_raw, rank_ds, ncpu)
            if use_join_docids
            else posts_raw.map_batches(
                make_docid_attacher(convs_ref), batch_format="pyarrow", batch_size=None
            )
        )
        if not broadcast_dl:
            if stats is None:
                # the shuffled scope-code regime needs roles/tools up
                # front — join the overlapped stage-B pass early (only
                # reachable with a forced-low broadcast_dl bound; the
                # true oversized regime never takes the small-docs plan)
                th, err, out = docs_pending
                th.join()
                if err:
                    raise err[0]
                stats, _dl_tuple0 = out[0]
                dl_ref_mem = ray.put(_dl_tuple0)
                docs_pending = None
            posts_with_ids = posts_with_ids.map_batches(
                make_scope_coder(stats["roles"], stats["tools"]),
                batch_format="pyarrow",
                batch_size=None,
            )
        attach_key = (
            _attach_lemma_hash
            if collision
            else make_lemma_rank_attacher(vocab_ref)
        )
        post_lazy = (
            posts_with_ids
            .map_batches(attach_key, batch_format="pyarrow", batch_size=None)
            .select_columns(mat_cols)
        )
        if cfg.extra.get("no_c_materialize"):
            post_in = post_lazy  # experiment: sort executes input twice
        else:
            post_in = _sized(
                post_lazy.materialize(),  # sort input is otherwise executed twice
                ncpu,
            )
        timings["c_mat_s"] = round(time.monotonic() - tm, 3)

        # ---- stage-B join point: the overlapped doc pass must have
        # finished before the encoder needs avgdl / the dl broadcast
        if stats is None:
            th, err, out = docs_pending
            tj = time.monotonic()
            th.join()
            if err:
                raise err[0]
            stats, _dl_tuple = out[0]
            dl_ref_mem = ray.put(_dl_tuple)
            docs_pending = None  # landed; the tail join is a no-op
            timings["b_join_wait_s"] = round(time.monotonic() - tj, 3)
        dl_ref = _resolve_dl_ref()

        sort_in = post_in
        ts_ = time.monotonic()
        (
            sort_in
            # integer range exchange: (lemma_r|lemma_h, docid) sorts ~6x
            # faster than (lemma:string, docid), ships 12-20 B/posting
            # (no strings; doc_len broadcast-restored and — minimized
            # path — tf recomputed at encode), and clusters index files
            # by lemma hash order for query-side row-group pruning
            # (lemma_r is rank-in-hash-order, so the clustering is
            # identical on both paths)
            .sort(["lemma_h" if collision else "lemma_r", "docid"])
            .map_batches(
                make_block_encoder(
                    stats["avgdl"] or 1.0, cfg.k1, cfg.b, cfg.block_size,
                    vocab_ref=vocab_ref, dl_ref=dl_ref,
                ),
                batch_format="pyarrow",
                batch_size=None,  # encode whole sorted blocks: the fns are
                # fully vectorized; Ray's default 1024-row batches would
                # add ~80x call overhead and fragment posting runs
            )
            # small row groups: block rows are heavyweight (~0.5 KB of
            # binary payload each) and queries read via lemma_h row-group
            # stats — default ~1M-row groups make a hot-term lookup
            # decode the whole file (measured 13 s cold at sf1); 16k-row
            # groups give ~8 MB pruning granularity
            .write_parquet(d, row_group_size=INDEX_ROW_GROUP_ROWS)
        )
        timings["c_sort_enc_s"] = round(time.monotonic() - ts_, 3)
        _inject("c_mid")
        tracker_s.mark("index", down_key, STATE_DONE, metrics=_dir_stats(d))
    timings["stage_c_s"] = round(time.monotonic() - tc, 3)

    # ---------------- stage D: lemma dictionary from block metadata ----
    if stats is None and docs_pending is not None:
        # stage C was resume-skipped before the normal join point
        th, err = docs_pending[0], docs_pending[1]
        th.join()
        if err:
            raise err[0]
        stats = docs_pending[2][0][0]
        docs_pending = None
    td = time.monotonic()
    if not (cfg.resume and tracker_s.is_done("lemma_dict", down_key) and prior):
        n_lem, n_post = write_lemma_dict(index_dir(cfg.out_dir), lemma_dict_path(cfg.out_dir))
        stats["n_lemmas"] = n_lem
        stats["n_postings"] = n_post
        _inject("d_mid")
        tracker_s.mark("lemma_dict", down_key, STATE_DONE, metrics={"rows": n_lem})
    else:
        stats.setdefault("n_lemmas", prior["stats"]["n_lemmas"])
        stats.setdefault("n_postings", prior["stats"]["n_postings"])
    timings["stage_d_s"] = round(time.monotonic() - td, 3)
    if docs_pending is not None:  # overlapped doc pass must land
        th, err = docs_pending[0], docs_pending[1]
        th.join()
        if err:
            raise err[0]
        if stats is None and len(docs_pending) > 2 and docs_pending[2]:
            stats = docs_pending[2][0][0]  # stage C was resumed/skipped
    timings["total_s"] = round(time.monotonic() - t0, 3)

    stats["positions"] = bool(positions)
    manifest = {
        "build_key": down_key,
        "versions": versions,
        "config": {
            "input_paths": sorted(cfg.input_paths),
            "n_partitions": cfg.n_partitions,
            "batch_size": cfg.batch_size,
            "analyzer_module": amod,
            "block_size": cfg.block_size,
            "k1": cfg.k1,
            "b": cfg.b,
        },
        "stats": stats,
        "timings": timings,
        "stage_a_skipped": n_skipped,
        "state": STATE_DONE,
    }
    write_json_atomic(build_manifest_path(cfg.out_dir), manifest)
    return manifest


def write_lemma_dict(index_d: str, dict_path: str) -> tuple[int, int]:
    """Stage D: lemma dictionary from block-level partial aggregates —
    a column-pruned scan of index-block metadata (block_size x smaller
    than the postings); vocabulary ≪ corpus, so the dense sorted
    lemma_id is assigned in the calling process. The query engine
    reads it one lemma-sorted row group at a time. At ≫10^8 vocab
    switch to the block-offset dense-rank described in docid.py. Shared
    by the full build and delta-generation compaction. Returns
    (n_lemmas, n_postings)."""
    meta = pq.read_table(index_d, columns=["lemma", "n", "block_cf", "block_max_tf"])
    tbl = pa.TableGroupBy(meta, "lemma").aggregate(
        [("n", "sum"), ("block_cf", "sum"), ("block_max_tf", "max")]
    )
    tbl = tbl.rename_columns(["lemma", "df", "cf", "max_tf"])
    tbl = tbl.take(pc.sort_indices(tbl.column("lemma"))).combine_chunks()
    tbl = tbl.set_column(1, "df", tbl.column("df").cast(pa.int64()))
    tbl = tbl.set_column(3, "max_tf", tbl.column("max_tf").cast(pa.int32()))
    tbl = tbl.append_column("lemma_id", pa.array(np.arange(tbl.num_rows), pa.int64()))
    os.makedirs(os.path.dirname(dict_path), exist_ok=True)
    # bounded row groups: the query engine reads the lemma-sorted
    # dictionary one row group at a time — a df lookup decodes the one
    # group whose lemma bounds hold the lemma, a prefix or pattern the
    # groups of its literal-prefix range (SearchEngine._groups("dict"),
    # read by SearchEngine._vocab)
    pq.write_table(tbl, dict_path, row_group_size=DICT_ROW_GROUP_ROWS)
    return tbl.num_rows, int(pc.sum(tbl.column("df")).as_py() or 0)
