"""Deduplication operators for training-data pipelines over the
``documents`` table: exact (hash groupby), n-gram Jaccard (exact
near-dup), MinHash+LSH (approximate near-dup, the scale path), SimHash,
and embedding-cosine near-dup.

Scale notes (each op documents its shuffle):
- exact: ONE hash-partition groupby on the md5 key (text never shipped
  twice — only (hash, id) rows shuffle).
- ngram_jaccard: explodes shingles (|corpus| x shingles rows) and
  self-joins via a shingle groupby — exact but quadratic in hot-shingle
  group size; per-group pair emission is capped (``max_group``) and the
  cap is a documented parameter, because the honest scale path is LSH
  below.
- minhash_lsh: vectorized signatures per batch (token-md5 memo + numpy
  shingle mixing + reduceat minima — no per-doc Python), explode to
  (band, band_key) rows, ONE groupby on the band key, candidate pairs
  verified with exact Jaccard DISTRIBUTED (union + two groupbys: attach
  each doc's shingle set to its pair references, then pair up) — no
  driver-side candidate or text materialization, linear in corpus size:
  the 100 TB path.
- simhash: vectorized 64-bit signatures per batch; candidate pairs via
  4x16-bit band grouping (pigeonhole: Hamming distance <= 3 guarantees
  an identical band, so recall is EXACT), verified by vectorized XOR
  popcount; pair dedup is a Dataset groupby (no pandas).
- embedding: exact all-pairs vs a broadcast normalized matrix (bounded
  corpus, documented), plus an IVF-bucketed variant
  (:func:`embedding_dup_pairs_ivf`) whose only shuffle is a cell
  groupby — the scale path.
- dup_clusters: collapses ANY of the pair sets above into connected
  components (hash-min label propagation over the edge list, two
  groupbys per round, scalar-sum convergence) and picks one canonical
  doc per cluster — the keep/drop step a dedup pipeline actually ends
  with.
"""

from __future__ import annotations

from search_engine_ray.functions import actor_pool

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Min

SHINGLE_K = 3
JACCARD_THRESHOLD = 0.6
NUM_PERM = 64
LSH_BANDS = 16  # 16 bands x 4 rows: ~Jaccard 0.5 knee
SIMHASH_BITS = 64
SIMHASH_MAX_HAMMING = 3
EMBEDDING_COSINE_THRESHOLD = 0.4
_MERSENNE = (1 << 61) - 1
_MIX_P = np.uint64(0x9E3779B97F4A7C15)  # odd golden-ratio multiplier


def _md5_col(texts) -> pa.Array:
    """md5 hex digest per string — Arrow column in, Arrow column out.

    No Arrow md5 kernel exists, so one hashlib call per row is
    unavoidable; what this avoids is materializing a Python ``str`` +
    re-encoding per row (the old ``to_pylist()`` call-site path):
    digests are computed from zero-copy memoryview slices of the
    column's UTF-8 data buffer (nulls = empty string, matching
    ``md5(coalesce(text, ''))`` on the oracle side). Measured ~2.1x
    end-to-end at the call sites (the digest itself dominates; the win
    is skipping the str materialization pass) — the one remaining
    per-row Python pass in a corpus-sized hot map (exact_dedup,
    corpus_prep)."""
    if isinstance(texts, list):  # legacy/test convenience
        return pa.array(
            [hashlib.md5((t or "").encode()).hexdigest() for t in texts],
            pa.string(),
        )
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    arr = pc.fill_null(texts, "")
    bufs = arr.buffers()
    odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    off = np.frombuffer(bufs[1], odt)[
        arr.offset : arr.offset + len(arr) + 1
    ].tolist()  # python ints: numpy scalar extraction dominates otherwise
    mv = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    md5 = hashlib.md5
    return pa.array(
        [md5(mv[a:b]).hexdigest() for a, b in zip(off, off[1:])],
        pa.string(),
    )


# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(ds: rd.Dataset, id_col: str = "doc_id", text_col: str = "text") -> rd.Dataset:
    """Keep-first exact dedup: one row per distinct text with the
    minimum id and the copy count. Only (hash, id) rows shuffle."""

    def add_hash(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col),
                "h": _md5_col(batch.column(text_col)),
            }
        )

    return (
        ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Min(id_col, alias_name=id_col), Count(alias_name="n_copies"))
        .select_columns([id_col, "n_copies"])
    )


def exact_dedup_sql(src: str, id_col: str = "doc_id") -> str:
    """DuckDB oracle for :func:`exact_dedup` (same md5-of-utf8 key)."""
    return (
        f"SELECT CAST(min({id_col}) AS BIGINT) AS {id_col}, "
        f"CAST(count(*) AS BIGINT) AS n_copies "
        f"FROM {src} GROUP BY md5(coalesce(text, ''))"
    )


# ---------------------------------------------------------------------------
# Vectorized tokenization / shingle hashing (shared infrastructure)
# ---------------------------------------------------------------------------

# per-worker-process token -> md5-uint64 memo: the Zipfian vocabulary
# recurs in every batch, so md5 runs once per unique token per process
_TOKEN_H_MEMO: dict[str, int] = {}


def _flat_word_tokens(texts) -> tuple[np.ndarray, pa.Array]:
    """Vectorized ``[a-z0-9]+`` tokenization over an Arrow string column
    (the dedup analog of ``analyzer.flatten_tokens`` — NO stopword /
    min-length filter, matching ``regexp_extract_all`` in the SQL
    oracle). Returns (doc_idx:int64[N], tokens)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    if pa.types.is_null(texts.type):  # an all-null block types as null
        return np.empty(0, np.int64), pa.array([], pa.string())
    arr = pc.fill_null(texts, "")
    arr = pc.utf8_lower(arr)
    arr = pc.replace_substring_regex(arr, "[^a-z0-9]+", " ")
    toks = pc.split_pattern(arr, " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    keep = pc.greater(pc.utf8_length(flat), 0)
    keep_np = keep.to_numpy(zero_copy_only=False)
    return doc_idx[keep_np], flat.filter(keep)


def _token_hash_array(flat: pa.Array) -> np.ndarray:
    """uint64 md5-prefix hash per token occurrence — md5 only of the
    batch's UNIQUE tokens (memoized per process), broadcast through
    dictionary codes. Identical per-token values to the scalar
    ``int.from_bytes(md5(tok)[:8], 'little')`` (the SQL-expressible
    form, see :func:`simhash_sql`)."""
    d = flat.dictionary_encode()
    uniq = d.dictionary.to_pylist()
    memo = _TOKEN_H_MEMO
    get = memo.get
    uniq_h = np.empty(len(uniq), np.uint64)
    for i, s in enumerate(uniq):
        h = get(s)
        if h is None:
            h = int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")
            memo[s] = h
        uniq_h[i] = h
    codes = d.indices.to_numpy(zero_copy_only=False)
    return uniq_h[codes]


def _doc_shingle_sets(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc SET of k-gram shingle hashes, fully vectorized.

    Shingle hash = multiplicative fold of the k token md5-hashes
    (``((h0*P)^h1)*P^h2``, uint64 wraparound) — set semantics match
    string shingles up to negligible 64-bit collisions, so Jaccard over
    these hashes equals Jaccard over shingle strings.
    Returns (doc_idx:int64[M], shingle_h:uint64[M]) unique per doc,
    sorted by (doc_idx, shingle_h)."""
    doc_idx, flat = _flat_word_tokens(texts)
    h = _token_hash_array(flat)
    n = len(h)
    if n < k:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    m = n - k + 1
    valid = doc_idx[:m] == doc_idx[k - 1 :]
    s = h[:m].copy()
    for j in range(1, k):
        s = (s * _MIX_P) ^ h[j : m + j]
    sd, sh = doc_idx[:m][valid], s[valid]
    order = np.lexsort((sh, sd))
    sd, sh = sd[order], sh[order]
    keep = np.concatenate(([True], (sd[1:] != sd[:-1]) | (sh[1:] != sh[:-1])))
    return sd[keep], sh[keep]


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard near-dup
# ---------------------------------------------------------------------------

def _shingles_of(text: str, k: int = SHINGLE_K) -> set[str]:
    import re

    toks = re.findall(r"[a-z0-9]+", (text or "").lower())
    return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}


def _shingle_rows(batch: pa.Table, id_col: str, k: int) -> pa.Table:
    ids, sh = [], []
    for i, t in zip(batch.column(id_col).to_pylist(), batch.column("text").to_pylist()):
        for s in _shingles_of(t, k):
            ids.append(i)
            sh.append(s)
    return pa.table({id_col: pa.array(ids, batch.schema.field(id_col).type),
                     "shingle": pa.array(sh, pa.string())})


def ngram_jaccard_pairs(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    k: int = SHINGLE_K,
    threshold: float = JACCARD_THRESHOLD,
    max_group: int = 1000,
) -> pa.Table:
    """Exact near-dup pairs with k-gram Jaccard >= threshold.

    shingle-explode -> groupby(shingle HASH BUCKET) -> pairs ->
    groupby(pair) count -> jaccard vs broadcast per-doc shingle sizes.
    Grouping by a bounded bucket of the shingle hash instead of the raw
    shingle keeps the shuffle semantics identical (co-located equal
    shingles) while cutting per-group Python dispatch from
    |unique shingles| calls to ``n_buckets`` calls — inside a bucket,
    shingle runs are found with one dictionary-encode + argsort and
    multi-doc runs emit their pairs vectorized (measured 33s -> ~3s at
    5k docs / 32 cpus). Shingle groups larger than ``max_group`` docs
    are dropped (a shingle shared by thousands of docs contributes no
    discriminative pairs); at 100 TB use :func:`minhash_lsh_pairs`
    instead.
    """
    n_buckets = 1024
    # materialize: consumed by BOTH the sizes aggregate and the pair
    # pipeline, and Ray re-executes lazy shuffle inputs (same gotcha as
    # the build's stage-C materialize, measured there too)
    shingles = ds.map_batches(
        lambda b: _shingle_rows(b, id_col, k), batch_format="pyarrow"
    ).materialize()
    sizes_tbl = (
        shingles.groupby(id_col).aggregate(Count(alias_name="n_sh")).to_pandas()
    )
    sizes_ref = ray.put(dict(zip(sizes_tbl[id_col], sizes_tbl["n_sh"])))

    def add_bucket(batch: pa.Table) -> pa.Table:
        d = batch.column("shingle").combine_chunks().dictionary_encode()
        uniq = d.dictionary.to_pylist()
        uh = np.fromiter(
            (int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little") for s in uniq),
            np.uint64,
            len(uniq),
        )
        codes = d.indices.to_numpy(zero_copy_only=False)
        bucket = (uh % np.uint64(n_buckets)).astype(np.int64)[codes]
        return batch.append_column("bucket", pa.array(bucket, pa.int64()))

    def emit_pairs(group: pa.Table) -> pa.Table:
        d = group.column("shingle").combine_chunks().dictionary_encode()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ids_all = group.column(id_col).to_numpy(zero_copy_only=False)
        order = np.argsort(codes, kind="stable")
        sc, si = codes[order], ids_all[order]
        starts = np.flatnonzero(np.concatenate(([True], sc[1:] != sc[:-1])))
        ends = np.concatenate((starts[1:], [len(sc)]))
        outa: list[np.ndarray] = []
        outb: list[np.ndarray] = []
        for run in np.flatnonzero(ends - starts >= 2):
            ids = np.unique(si[starts[run] : ends[run]])
            if len(ids) < 2 or len(ids) > max_group:
                continue
            a, b = np.triu_indices(len(ids), k=1)
            outa.append(ids[a])
            outb.append(ids[b])
        if not outa:
            return pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})
        return pa.table(
            {"doc_a": pa.array(np.concatenate(outa), pa.int64()),
             "doc_b": pa.array(np.concatenate(outb), pa.int64())}
        )

    raw_pairs = (
        shingles.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(emit_pairs, batch_format="pyarrow")
        .materialize()  # chained lazy shuffles re-execute their input
    )
    pair_counts = raw_pairs.groupby(["doc_a", "doc_b"]).aggregate(
        Count(alias_name="inter")
    )

    def finish(batch: pa.Table) -> pa.Table:
        sizes = ray.get(sizes_ref)
        a = batch.column("doc_a").to_numpy(zero_copy_only=False)
        b = batch.column("doc_b").to_numpy(zero_copy_only=False)
        inter = batch.column("inter").to_numpy(zero_copy_only=False).astype(np.float64)
        na = np.array([sizes[x] for x in a], np.float64)
        nb = np.array([sizes[x] for x in b], np.float64)
        j = inter / (na + nb - inter)
        keep = j >= threshold
        return pa.table(
            {
                "doc_a": pa.array(a[keep], pa.int64()),
                "doc_b": pa.array(b[keep], pa.int64()),
                "jaccard": pa.array(np.floor(j[keep] * 1e6 + 0.5) / 1e6, pa.float64()),
            }
        )

    out = pair_counts.map_batches(finish, batch_format="pyarrow")
    tabs = [t for t in ray.get(out.materialize().to_arrow_refs()) if t.num_rows]
    if not tabs:
        return pa.table(
            {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
             "jaccard": pa.array([], pa.float64())}
        )
    t = pa.concat_tables(tabs)
    return t.take(pc.sort_indices(t, sort_keys=[("doc_a", "ascending"), ("doc_b", "ascending")]))


def ngram_jaccard_sql(src: str, id_col: str = "doc_id",
                      k: int = SHINGLE_K, threshold: float = JACCARD_THRESHOLD) -> str:
    """DuckDB oracle: same shingling, exact all-pairs Jaccard."""
    parts = " || ' ' || ".join(f"t[i+{j}]" for j in range(1, k))
    return f"""
WITH toks AS (
    SELECT {id_col}, regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS t
    FROM {src}
),
sh AS (
    SELECT DISTINCT {id_col}, t[i] || ' ' || {parts} AS shingle
    FROM toks, UNNEST(range(1, len(t) - {k - 2})) AS r(i)
    WHERE len(t) >= {k}
),
sizes AS (SELECT {id_col}, count(*) AS n FROM sh GROUP BY {id_col}),
inter AS (
    SELECT a.{id_col} AS doc_a, b.{id_col} AS doc_b, count(*) AS c
    FROM sh a JOIN sh b USING (shingle)
    WHERE a.{id_col} < b.{id_col}
    GROUP BY 1, 2
)
SELECT doc_a, doc_b, round(c * 1.0 / (na.n + nb.n - c), 6) AS jaccard
FROM inter
JOIN sizes na ON na.{id_col} = doc_a
JOIN sizes nb ON nb.{id_col} = doc_b
WHERE c * 1.0 / (na.n + nb.n - c) >= {threshold}
"""


# ---------------------------------------------------------------------------
# MinHash + LSH (the 100 TB near-dup path)
# ---------------------------------------------------------------------------

def _perm_params(num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


class MinHasher:
    """Actor-pool stage: permutation params built once per actor;
    per-batch FULLY VECTORIZED signatures -> (id, band, band_key) rows.
    No per-doc Python: shingle hashes via :func:`_doc_shingle_sets`,
    per-permutation minima via one ``np.minimum.reduceat`` over the
    batch's flat shingle array, band keys via a uint64 fold."""

    def __init__(self, id_col: str = "doc_id", num_perm: int = NUM_PERM,
                 bands: int = LSH_BANDS, k: int = SHINGLE_K):
        self.id_col = id_col
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.k = k
        self.a, self.b = _perm_params(num_perm)

    def signatures(self, texts) -> np.ndarray:
        """-> uint64[num_perm, n_docs]; empty docs get the fill value."""
        n = len(texts)
        sd, sh = _doc_shingle_sets(texts, self.k)
        sig = np.full((self.num_perm, n), np.uint64(_MERSENNE))
        if not len(sd):
            return sig
        hv = sh % np.uint64(_MERSENNE)
        # (a*h + b) mod p for all perms x shingles (uint64 wraparound
        # multiply — deterministic, same arithmetic as the scalar form)
        vals = (self.a[:, None] * hv[None, :]) % np.uint64(_MERSENNE)
        vals = (vals + self.b[:, None]) % np.uint64(_MERSENNE)
        starts = np.flatnonzero(np.diff(sd, prepend=-1))
        present = sd[starts]
        sig[:, present] = np.minimum.reduceat(vals, starts, axis=1)
        return sig

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = self.signatures(batch.column("text"))
        n = sig.shape[1]
        r = self.rows_per_band
        # band key: uint64 fold of the band's r signature rows
        seg = sig.reshape(self.bands, r, n)
        key = seg[:, 0, :].copy()
        for j in range(1, r):
            key = (key * _MIX_P) ^ seg[:, j, :]
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                self.id_col: pa.array(np.tile(ids, self.bands)),
                "band": pa.array(
                    np.repeat(np.arange(self.bands, dtype=np.int32), n), pa.int32()
                ),
                "band_key": pa.array(key.reshape(-1).view(np.int64), pa.int64()),
            }
        )


def _pair_schema() -> pa.Table:
    return pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
                     "jaccard": pa.array([], pa.float64())})


def minhash_lsh_pairs(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    num_perm: int = NUM_PERM,
    bands: int = LSH_BANDS,
    k: int = SHINGLE_K,
    threshold: float = JACCARD_THRESHOLD,
    concurrency=None, max_restarts=0,
    max_group: int = 5000,
) -> pa.Table:
    """Candidate pairs from LSH band collisions, verified with EXACT
    Jaccard — the verify is DISTRIBUTED end-to-end: candidate pair
    references and per-doc shingle sets meet in a doc-keyed groupby
    (attach), then a pair-keyed groupby computes exact Jaccard of the
    two sets. Nothing corpus- or candidate-sized is materialized on the
    driver; the returned table is the final (output-sized) pair list.

    Shuffles: band groupby (candidates) + pair-dedup groupby + doc
    groupby (attach) + pair groupby (verify) — all hash exchanges over
    candidate-scale rows. Band groups larger than ``max_group`` docs are
    dropped (documented cap: such a band key is degenerate — e.g. the
    all-empty-docs signature — and would emit O(group²) pairs).
    """
    sig_rows = ds.map_batches(
        MinHasher,
        fn_constructor_kwargs={"id_col": id_col, "num_perm": num_perm, "bands": bands, "k": k},
        batch_format="pyarrow",
        # None -> CPU-proportional at CALL time (a def-time actor_pool()
        # default would freeze the pre-ray.init floor at import)
        concurrency=concurrency or actor_pool(),
        max_restarts=0,
    )

    # Group by a bounded hash bucket of (band, band_key) rather than the
    # raw key: identical co-location semantics, but per-group Python
    # dispatch drops from |distinct band keys| (≈ bands x n_docs) calls
    # to n_buckets calls; inside a bucket, key runs are found with one
    # lexsort and multi-doc runs emit their pairs vectorized.
    n_buckets = 1024

    def add_bucket(batch: pa.Table) -> pa.Table:
        band = batch.column("band").to_numpy(zero_copy_only=False).astype(np.uint64)
        key = batch.column("band_key").to_numpy(zero_copy_only=False).view(np.uint64)
        mix = (key * _MIX_P) ^ band
        return batch.append_column(
            "bucket", pa.array((mix % np.uint64(n_buckets)).astype(np.int64), pa.int64())
        )

    def emit_pairs(group: pa.Table) -> pa.Table:
        band = group.column("band").to_numpy(zero_copy_only=False).astype(np.int64)
        key = group.column("band_key").to_numpy(zero_copy_only=False)
        ids_all = group.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((key, band))
        b_s, k_s, i_s = band[order], key[order], ids_all[order]
        brk = np.concatenate(([True], (b_s[1:] != b_s[:-1]) | (k_s[1:] != k_s[:-1])))
        starts = np.flatnonzero(brk)
        ends = np.concatenate((starts[1:], [len(b_s)]))
        outa: list[np.ndarray] = []
        outb: list[np.ndarray] = []
        for run in np.flatnonzero(ends - starts >= 2):
            ids = np.unique(i_s[starts[run] : ends[run]])
            if len(ids) < 2 or len(ids) > max_group:
                continue
            a, b = np.triu_indices(len(ids), k=1)
            outa.append(ids[a])
            outb.append(ids[b])
        if not outa:
            return pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})
        return pa.table(
            {"doc_a": pa.array(np.concatenate(outa), pa.int64()),
             "doc_b": pa.array(np.concatenate(outb), pa.int64())}
        )

    cand = (
        sig_rows.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(emit_pairs, batch_format="pyarrow")
        .materialize()  # chained lazy shuffles re-execute their input
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="n_bands"))
        .select_columns(["doc_a", "doc_b"])
    )
    verified = _verify_pairs_distributed(ds, cand, id_col, k, threshold)
    tabs = [t for t in ray.get(verified.materialize().to_arrow_refs()) if t.num_rows]
    if not tabs:
        return _pair_schema()
    t = pa.concat_tables(tabs)
    return t.take(pc.sort_indices(t, sort_keys=[("doc_a", "ascending"), ("doc_b", "ascending")]))


_ATTACH_SCHEMA = pa.schema(
    [
        ("key", pa.int64()),        # doc id this row is grouped by
        ("doc_a", pa.int64()),      # pair reference (null on shingle rows)
        ("doc_b", pa.int64()),
        ("side", pa.int8()),        # 0: key==doc_a, 1: key==doc_b, -1: shingle row
        ("sh", pa.list_(pa.int64())),
    ]
)


def _verify_pairs_distributed(
    ds: rd.Dataset, cand: rd.Dataset, id_col: str, k: int, threshold: float
) -> rd.Dataset:
    """Exact-Jaccard verify of candidate pairs without any driver-side
    materialization: (1) union pair-reference rows (one per pair side)
    with per-doc shingle-set rows, (2) groupby doc -> every pair
    reference picks up its doc's shingle set, (3) groupby pair -> the
    two sets meet, Jaccard = |∩|/|∪| via a sorted-array intersection."""

    def pair_refs(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy(zero_copy_only=False)
        b = batch.column("doc_b").to_numpy(zero_copy_only=False)
        n = len(a)
        return pa.Table.from_arrays(
            [
                pa.array(np.concatenate([a, b]), pa.int64()),
                pa.array(np.concatenate([a, a]), pa.int64()),
                pa.array(np.concatenate([b, b]), pa.int64()),
                pa.array(
                    np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)]), pa.int8()
                ),
                pa.nulls(2 * n, pa.list_(pa.int64())),
            ],
            schema=_ATTACH_SCHEMA,
        )

    def shingle_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        sd, sh = _doc_shingle_sets(batch.column("text"), k)
        counts = np.bincount(sd, minlength=batch.num_rows)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(sh.view(np.int64), pa.int64())
        )
        n = len(ids)
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.nulls(n, pa.int64()),
                pa.nulls(n, pa.int64()),
                pa.array(np.full(n, -1, np.int8), pa.int8()),
                lists,
            ],
            schema=_ATTACH_SCHEMA,
        )

    refs = cand.map_batches(pair_refs, batch_format="pyarrow").materialize()

    # Only docs referenced by some candidate pair need a shingle row:
    # broadcast the candidate doc-id set (candidate-sized, orders of
    # magnitude below the corpus) and prune the corpus BEFORE shingling
    # — cuts the attach shuffle and its per-doc group dispatch from
    # |corpus| to |docs in candidates|.
    cd_tabs = [t for t in ray.get(refs.select_columns(["key"]).materialize().to_arrow_refs()) if t.num_rows]
    cand_ids = (
        np.unique(np.concatenate([t.column("key").to_numpy(zero_copy_only=False) for t in cd_tabs]))
        if cd_tabs
        else np.empty(0, np.int64)
    )
    cand_ref = ray.put(cand_ids)

    def prune(batch: pa.Table) -> pa.Table:
        keys = ray.get(cand_ref)
        if not len(keys):
            return batch.slice(0, 0)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(keys, ids), 0, len(keys) - 1)
        return batch.filter(pa.array(keys[pos] == ids))

    docs = ds.map_batches(prune, batch_format="pyarrow").map_batches(
        shingle_rows, batch_format="pyarrow"
    )

    def attach(group: pa.Table) -> pa.Table:
        side = group.column("side").to_numpy(zero_copy_only=False)
        sh_rows = np.flatnonzero(side == -1)
        ref_rows = np.flatnonzero(side >= 0)
        if not len(ref_rows):
            return _ATTACH_SCHEMA.empty_table()
        sh = (
            group.column("sh").take(pa.array(sh_rows[:1]))
            if len(sh_rows)
            else pa.array([[]], pa.list_(pa.int64()))
        )
        out = group.take(pa.array(ref_rows))
        reps = pa.chunked_array([sh] * len(ref_rows)) if len(ref_rows) else sh
        return out.set_column(out.schema.get_field_index("sh"), "sh", reps)

    def verify(group: pa.Table) -> pa.Table:
        side = group.column("side").to_numpy(zero_copy_only=False)
        lists = group.column("sh")
        sa = sb = None
        for i in range(group.num_rows):
            v = lists[i].as_py() or []
            if side[i] == 0:
                sa = np.asarray(v, np.int64)
            else:
                sb = np.asarray(v, np.int64)
        if sa is None or sb is None:
            return _pair_schema()
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        union = len(sa) + len(sb) - inter
        j = inter / union if union else 0.0
        if j < threshold:
            return _pair_schema()
        return pa.table(
            {
                "doc_a": group.column("doc_a").slice(0, 1),
                "doc_b": group.column("doc_b").slice(0, 1),
                "jaccard": pa.array([np.floor(j * 1e6 + 0.5) / 1e6], pa.float64()),
            }
        )

    return (
        refs.union(docs)
        .groupby("key")
        .map_groups(attach, batch_format="pyarrow")
        .groupby(["doc_a", "doc_b"])
        .map_groups(verify, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

class SimHasher:
    """Actor-pool stage: per-batch VECTORIZED 64-bit SimHash over token
    md5 hashes weighted by tf (token hashes memoized per process; bit
    accumulation via one ``np.add.reduceat`` over the batch's unique
    (doc, token) rows). Values are identical to the scalar definition
    ``Σ_tok tf · (±1 per bit of md5_64(tok))`` — which is what
    :func:`simhash_sql` expresses for the oracle."""

    def __init__(self, id_col: str = "doc_id"):
        self.id_col = id_col

    def signatures(self, texts) -> np.ndarray:
        n = len(texts)
        doc_idx, flat = _flat_word_tokens(texts)
        h = _token_hash_array(flat)
        sigs = np.zeros(n, np.uint64)
        if not len(h):
            return sigs
        order = np.lexsort((h, doc_idx))
        d, hh = doc_idx[order], h[order]
        new = np.concatenate(([True], (d[1:] != d[:-1]) | (hh[1:] != hh[:-1])))
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(d)))
        du, hu = d[starts], hh[starts]
        bits = ((hu[:, None] >> np.arange(SIMHASH_BITS, dtype=np.uint64)[None, :]) & 1).astype(
            np.int64
        )
        contrib = (bits * 2 - 1) * counts[:, None]
        doc_starts = np.flatnonzero(np.concatenate(([True], du[1:] != du[:-1])))
        acc = np.add.reduceat(contrib, doc_starts, axis=0)
        present = du[doc_starts]
        sigs[present] = (
            (acc > 0).astype(np.uint64) << np.arange(SIMHASH_BITS, dtype=np.uint64)
        ).sum(axis=1)
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = self.signatures(batch.column("text"))
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "simhash": pa.array(sigs.view(np.int64), pa.int64()),
            }
        )


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array."""
    return np.unpackbits(x.view(np.uint8)).reshape(len(x), 8 * 8).sum(axis=1).astype(np.int32) \
        if len(x) else np.empty(0, np.int32)


def simhash_pairs(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    max_hamming: int = SIMHASH_MAX_HAMMING,
    concurrency=None, max_restarts=0,
    max_group: int = 5000,
) -> pa.Table:
    """Near-dup pairs with SimHash Hamming distance <= max_hamming.
    Candidates via 4x16-bit band collision (pigeonhole: distance <= 3
    guarantees one identical band, so recall is EXACT — the op equals
    brute-force all-pairs and :func:`simhash_sql` is a true oracle),
    verified by vectorized XOR popcount; pair dedup is a Dataset
    groupby (Min over the identical hamming values). Band groups larger
    than ``max_group`` docs are capped (documented: a degenerate 16-bit
    band — e.g. all-empty docs at simhash 0 — would emit O(group²)
    pairs; cap only trades recall on that pathological key)."""
    sigs = ds.map_batches(
        SimHasher, fn_constructor_kwargs={"id_col": id_col},
        batch_format="pyarrow", concurrency=concurrency or actor_pool(),
        max_restarts=0,
    )

    def band_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        s = batch.column("simhash").to_numpy(zero_copy_only=False).view(np.uint64)
        out_i, out_b, out_k, out_s = [], [], [], []
        for bnd in range(4):
            seg = (s >> np.uint64(16 * bnd)) & np.uint64(0xFFFF)
            out_i.append(ids)
            out_b.append(np.full(len(ids), bnd, np.int32))
            out_k.append(seg.astype(np.int64))
            out_s.append(s.view(np.int64))
        return pa.table(
            {
                id_col: pa.array(np.concatenate(out_i)),
                "band": pa.array(np.concatenate(out_b), pa.int32()),
                "band_key": pa.array(np.concatenate(out_k), pa.int64()),
                "simhash": pa.array(np.concatenate(out_s), pa.int64()),
            }
        )

    def emit_pairs(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        sh = group.column("simhash").to_numpy(zero_copy_only=False)
        order = np.argsort(ids)
        ids, sh = ids[order], sh[order]
        uniq, first = np.unique(ids, return_index=True)
        sh = sh[first]
        if len(uniq) < 2 or len(uniq) > max_group:
            return pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int32())})
        a, b = np.triu_indices(len(uniq), k=1)
        x = sh[a].view(np.uint64) ^ sh[b].view(np.uint64)
        ham = _popcount64(x)
        keep = ham <= max_hamming
        return pa.table(
            {
                "doc_a": pa.array(uniq[a[keep]], pa.int64()),
                "doc_b": pa.array(uniq[b[keep]], pa.int64()),
                "hamming": pa.array(ham[keep], pa.int32()),
            }
        )

    pairs = (
        sigs.map_batches(band_rows, batch_format="pyarrow")
        .groupby(["band", "band_key"])
        .map_groups(emit_pairs, batch_format="pyarrow")
        # Dataset-native pair dedup: duplicate (a, b) rows from multiple
        # colliding bands carry the same hamming — Min collapses them
        .groupby(["doc_a", "doc_b"])
        .aggregate(Min("hamming", alias_name="hamming"))
    )
    tabs = [t for t in ray.get(pairs.materialize().to_arrow_refs()) if t.num_rows]
    if not tabs:
        return pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
                         "hamming": pa.array([], pa.int64())})
    t = pa.concat_tables(tabs)
    t = t.set_column(2, "hamming", t.column("hamming").cast(pa.int32()))
    return t.take(pc.sort_indices(t, sort_keys=[("doc_a", "ascending"), ("doc_b", "ascending")]))


def simhash_sql(src: str, id_col: str = "doc_id",
                max_hamming: int = SIMHASH_MAX_HAMMING) -> str:
    """DuckDB oracle for :func:`simhash_pairs`. SimHash is fully
    deterministic and the 4-band candidate generation has EXACT recall
    for distance <= 3 (pigeonhole), so brute-force all-pairs SQL over
    the same signature definition is a true oracle. The signature is
    rebuilt in SQL from scratch: token md5 -> little-endian uint64 ->
    per-bit ±tf sums -> sign bits."""
    def nib(pos: int) -> str:
        return f"(strpos('0123456789abcdef', substr(m, {pos}, 1)) - 1)"

    hexpr = " + ".join(
        f"CAST({nib(2 * j + 1)} * 16 + {nib(2 * j + 2)} AS HUGEINT) * {1 << (8 * j)}"
        for j in range(8)
    )
    return f"""
WITH toks AS (
    SELECT {id_col},
           unnest(regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+')) AS tok
    FROM {src}
),
tf AS (
    SELECT {id_col}, tok, count(*) AS tf FROM toks GROUP BY {id_col}, tok
),
th AS (
    SELECT {id_col}, tf, ({hexpr}) AS h
    FROM (SELECT {id_col}, tf, md5(tok) AS m FROM tf)
),
bitsum AS (
    SELECT {id_col}, b.bit,
           sum(CASE WHEN (h // CAST(power(2, b.bit) AS HUGEINT)) % 2 = 1
                    THEN tf ELSE -tf END) AS s
    FROM th, (SELECT unnest(range(64)) AS bit) b
    GROUP BY {id_col}, b.bit
),
sig AS (
    SELECT {id_col},
           sum(CASE WHEN s > 0 THEN CAST(power(2, bit) AS HUGEINT) ELSE 0 END) AS sim
    FROM bitsum GROUP BY {id_col}
),
allsig AS (
    SELECT d.{id_col}, coalesce(s.sim, 0) AS sim
    FROM {src} d LEFT JOIN sig s USING ({id_col})
),
pairs AS (
    SELECT a.{id_col} AS doc_a, b.{id_col} AS doc_b,
           bit_count(xor(CAST(a.sim AS UBIGINT), CAST(b.sim AS UBIGINT))) AS hamming
    FROM allsig a JOIN allsig b ON a.{id_col} < b.{id_col}
)
SELECT doc_a, doc_b, CAST(hamming AS INT) AS hamming
FROM pairs WHERE hamming <= {max_hamming}
"""


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup
# ---------------------------------------------------------------------------

def _ids_matrix(ds: rd.Dataset, id_col: str, vec_col: str) -> tuple[np.ndarray, np.ndarray]:
    """Driver-side (ids, L2-normalized float64 matrix) via zero-copy
    arrow refs (no pandas)."""
    from search_engine_ray.functions.veccol import vec_matrix as _vm

    tabs = [t for t in ray.get(ds.select_columns([id_col, vec_col]).materialize().to_arrow_refs()) if t.num_rows]
    ids = np.concatenate([t.column(id_col).to_numpy(zero_copy_only=False) for t in tabs])
    mat = np.concatenate([_vm(t.column(vec_col)) for t in tabs])
    mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    return ids, mat


def embedding_dup_pairs(
    ds: rd.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = EMBEDDING_COSINE_THRESHOLD,
) -> pa.Table:
    """EXACT pairs with cosine >= threshold: the full normalized matrix
    is broadcast once with ray.put (the exact variant is inherently
    O(n²) — bounded-corpus operator, documented); each batch computes
    its rows' similarities against it (numpy matmul), vectorized pair
    extraction per batch. For the 100 TB path use
    :func:`embedding_dup_pairs_ivf` (cell-bucketed, approximate)."""
    ids, mat = _ids_matrix(ds, id_col, vec_col)
    ref = ray.put((ids, mat))

    class PairFinder:
        def __init__(self):
            self.ids, self.mat = ray.get(ref)
            order = np.argsort(self.ids)
            self.sorted_ids = self.ids[order]
            self.row_of = order

        def __call__(self, batch: pa.Table) -> pa.Table:
            bids = batch.column(id_col).to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.sorted_ids, bids)
            rows = self.row_of[pos]
            sims = self.mat[rows] @ self.mat.T  # (nb, n)
            keep = sims >= threshold
            keep &= self.ids[None, :] > bids[:, None]  # a < b, no self
            r, c = np.nonzero(keep)
            return pa.table(
                {
                    "vec_a": pa.array(bids[r], pa.int64()),
                    "vec_b": pa.array(self.ids[c], pa.int64()),
                    "cosine": pa.array(
                        np.floor(sims[r, c] * 1e6 + 0.5) / 1e6, pa.float64()
                    ),
                }
            )

    out = ds.select_columns([id_col]).map_batches(
        PairFinder, batch_format="pyarrow", concurrency=actor_pool(), max_restarts=0
    )
    tbl = pa.concat_tables([t for t in ray.get(out.materialize().to_arrow_refs()) if t.num_rows] or
                           [pa.table({"vec_a": pa.array([], pa.int64()),
                                      "vec_b": pa.array([], pa.int64()),
                                      "cosine": pa.array([], pa.float64())})])
    return tbl.take(pc.sort_indices(tbl, sort_keys=[("vec_a", "ascending"), ("vec_b", "ascending")]))


def embedding_dup_pairs_ivf(
    ds: rd.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = EMBEDDING_COSINE_THRESHOLD,
    nlist: int = 16,
    nassign: int = 4,
) -> pa.Table:
    """IVF-bucketed near-dup pairs — the scale path: every vector is
    assigned to its ``nassign`` nearest of ``nlist`` coarse centroids
    (one map pass, centroids broadcast), pairs are found ALL-PAIRS
    WITHIN EACH CELL (``groupby(cell).map_groups``) and deduped by a
    pair groupby. Only cell-local O(|cell|²) work + two hash shuffles —
    no broadcast matrix. Approximate: a pair split across all shared
    cells is missed; ``nassign`` > 1 trades compute for recall
    (recall vs :func:`embedding_dup_pairs` is asserted in tests).
    At scale grow ``nlist`` ∝ n/target_cell_size so per-cell work stays
    bounded; the shuffle stays one hash exchange regardless."""
    from .similarity import train_centroids

    cents = train_centroids(ds, vec_col, nlist, id_col=id_col)
    cref = ray.put(cents)

    class CellAssign:
        def __init__(self):
            self.cents = ray.get(cref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_numpy(zero_copy_only=False)
            mat = np.stack(batch.column(vec_col).to_pylist()).astype(np.float64)
            mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
            top = np.argsort(-(mat @ self.cents.T), axis=1)[:, :nassign]
            n, d = mat.shape
            return pa.table(
                {
                    "cell": pa.array(top.reshape(-1).astype(np.int32), pa.int32()),
                    id_col: pa.array(np.repeat(ids, nassign), pa.int64()),
                    "v": pa.FixedSizeListArray.from_arrays(
                        pa.array(np.repeat(mat, nassign, axis=0).reshape(-1), pa.float64()), d
                    ),
                }
            )

    def cell_pairs(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        uniq, first = np.unique(ids, return_index=True)
        if len(uniq) < 2:
            return pa.table({"vec_a": pa.array([], pa.int64()), "vec_b": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        mat = np.stack(group.column("v").to_pylist())[first]
        sims = mat @ mat.T
        a, b = np.triu_indices(len(uniq), k=1)
        keep = sims[a, b] >= threshold
        return pa.table(
            {
                "vec_a": pa.array(uniq[a[keep]], pa.int64()),
                "vec_b": pa.array(uniq[b[keep]], pa.int64()),
                "cosine": pa.array(
                    np.floor(sims[a[keep], b[keep]] * 1e6 + 0.5) / 1e6, pa.float64()
                ),
            }
        )

    pairs = (
        ds.select_columns([id_col, vec_col])
        .map_batches(CellAssign, batch_format="pyarrow", concurrency=actor_pool(), max_restarts=0)
        .groupby("cell")
        .map_groups(cell_pairs, batch_format="pyarrow")
        .groupby(["vec_a", "vec_b"])
        .aggregate(Min("cosine", alias_name="cosine"))
    )
    tabs = [t for t in ray.get(pairs.materialize().to_arrow_refs()) if t.num_rows]
    if not tabs:
        return pa.table({"vec_a": pa.array([], pa.int64()), "vec_b": pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})
    t = pa.concat_tables(tabs)
    return t.take(pc.sort_indices(t, sort_keys=[("vec_a", "ascending"), ("vec_b", "ascending")]))


def embedding_dup_sql(src: str, id_col: str = "vec_id", vec_col: str = "embedding",
                      threshold: float = EMBEDDING_COSINE_THRESHOLD) -> str:
    """DuckDB oracle for :func:`embedding_dup_pairs` (float64 cosine on
    the CASTed list, same rounding and threshold)."""
    return f"""
WITH e AS (SELECT {id_col}, CAST({vec_col} AS DOUBLE[]) AS v FROM {src})
SELECT a.{id_col} AS vec_a, b.{id_col} AS vec_b,
       round(list_cosine_similarity(a.v, b.v), 6) AS cosine
FROM e a JOIN e b ON a.{id_col} < b.{id_col}
WHERE list_cosine_similarity(a.v, b.v) >= {threshold}
"""

def semantic_dedup(
    ds: rd.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    k: int = 8,
    threshold: float = EMBEDDING_COSINE_THRESHOLD,
    centroids: "np.ndarray | None" = None,
) -> pa.Table:
    """SemDeDup (Abbas et al. 2023): semantic near-dup removal that
    makes embedding dedup tractable at corpus scale by scoping the
    quadratic cosine comparison to k-means CLUSTERS — all-pairs only
    WITHIN a cluster (cross-cluster near-dups are, by construction of
    the clustering, rare enough to ignore; that approximation is the
    whole point of the method). Pipeline, every stage already oracled
    on its own:

    1. assign — :func:`~.similarity.kmeans_assign`'s rule (one
       broadcast matmul map, argmax cosine, ties to the lowest
       cluster; inlined so the same map carries the vector into the
       groupby). Default centroids = :func:`~.similarity.
       seed_centroids`, the deterministic SQL-recomputable choice —
       pass fitted :func:`~.similarity.kmeans_fit` centroids for the
       production shape, same downstream semantics.
    2. pairs — ``groupby(cluster).map_groups``: per cluster one
       normalized matmul, emit a<b pairs with UNROUNDED float64
       cosine >= threshold (the dedup-precedent compare). At 10^12
       vectors k scales with n (SemDeDup uses ~100k clusters) so the
       per-cluster frame stays bounded — the shuffle ships each
       vector exactly once.
    3. collapse — :func:`dup_clusters` connected components,
       keep = the min-id canonical doc per component.

    -> pa.Table(doc_id, cluster_id, keep) for every doc in a pair
    (docs in no pair are implicitly kept — the dup_clusters
    contract), sorted by doc_id."""
    from .similarity import _normalize, seed_centroids

    if centroids is None:
        centroids = seed_centroids(ds, k, id_col, vec_col)
    cref = ray.put(_normalize(np.asarray(centroids, np.float64)))
    vecs = ds.select_columns([id_col, vec_col])

    # assignment rule identical to kmeans_assign (argmax cosine, first
    # max == lowest cluster id — pinned equal by test); inlined here so
    # ONE map both assigns and carries the vector into the groupby
    def _with_vec(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        mat = _normalize(
            np.stack(batch.column(vec_col).to_pylist()).astype(np.float64)
        )
        sims = mat @ ray.get(cref).T
        cl = np.argmax(sims, axis=1)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "cluster": pa.array(cl.astype(np.int32), pa.int32()),
            vec_col: batch.column(vec_col),
        })

    def _cluster_pairs(group: pa.Table) -> pa.Table:
        from .similarity import _normalize

        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        mat = _normalize(
            np.stack(group.column(vec_col).to_pylist()).astype(np.float64)
        )
        sims = mat @ mat.T
        keep = sims >= threshold
        keep &= ids[None, :] > ids[:, None]  # a < b, no self
        r, c = np.nonzero(keep)
        return pa.table({
            "doc_a": pa.array(ids[r], pa.int64()),
            "doc_b": pa.array(ids[c], pa.int64()),
        })

    pairs = (
        vecs.map_batches(_with_vec, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(_cluster_pairs, batch_format="pyarrow")
    )
    labs = dup_clusters(pairs)
    return labs.sort_by([("doc_id", "ascending")])


def semantic_dedup_sql(
    src: str,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    k: int = 8,
    threshold: float = EMBEDDING_COSINE_THRESHOLD,
) -> str:
    """DuckDB twin of :func:`semantic_dedup` (seed centroids = the
    ``id < k`` vectors, the same rule kmeans_assign_sql pins): assign
    by max cosine (ties -> lowest cluster), within-cluster a<b pairs
    over the unrounded float64 cosine, then the shared recursive-CTE
    component closure."""
    pairs_sql = f"""
WITH e0 AS (SELECT {id_col}, CAST({vec_col} AS DOUBLE[]) AS v FROM {src}),
c0 AS (SELECT {id_col} AS cluster, v AS cv FROM e0 WHERE {id_col} < {k}),
s0 AS (
    SELECT e0.{id_col}, c0.cluster,
           list_cosine_similarity(c0.cv, e0.v) AS cos
    FROM e0 CROSS JOIN c0
),
asg AS (
    SELECT {id_col}, cluster FROM (
        SELECT {id_col}, cluster,
               row_number() OVER (
                   PARTITION BY {id_col} ORDER BY cos DESC, cluster
               ) AS rn
        FROM s0
    ) WHERE rn = 1
)
SELECT a.{id_col} AS doc_a, b.{id_col} AS doc_b
FROM asg a
JOIN asg b ON a.cluster = b.cluster AND a.{id_col} < b.{id_col}
JOIN e0 ea ON ea.{id_col} = a.{id_col}
JOIN e0 eb ON eb.{id_col} = b.{id_col}
WHERE list_cosine_similarity(ea.v, eb.v) >= {threshold}
"""
    return dup_clusters_sql(f"SELECT * FROM ({pairs_sql})")


# ---------------------------------------------------------------------------
# Near-dup cluster collapse (connected components over dup pairs)
# ---------------------------------------------------------------------------

DUP_CLUSTERS_DRIVER_MAX_EDGES = 1_000_000


def dup_clusters(
    pairs,
    col_a: str = "doc_a",
    col_b: str = "doc_b",
    max_iters: int = 50,
    driver_max_edges: int = DUP_CLUSTERS_DRIVER_MAX_EDGES,
) -> pa.Table:
    """Collapse dup *pairs* into clusters: connected components via
    hash-min label propagation, the step after any pair producer
    (:func:`ngram_jaccard_pairs`, :func:`minhash_lsh_pairs`, ...) in a
    training-data dedup pipeline — keep one canonical doc per cluster.

    Returns ``(doc_id, cluster_id, keep)`` for every doc appearing in a
    pair, ``cluster_id`` = min doc id of its component, ``keep`` = is
    the canonical doc. Docs in no pair are implicitly kept.

    Scale shape: the iteration state is the EDGE list + one label row
    per touched doc — never the corpus. Each round is two groupbys over
    |E|+|V| rows (re-key label to edge sources, then min per target);
    no joins, no broadcasts, no driver-side graph. Hash-min propagates
    the component minimum one hop per round, so rounds = component
    diameter — near-dup clusters are shallow (stars/cliques around a
    template), so this converges in a handful of rounds; convergence is
    detected by a scalar ``sum(label)`` aggregate (labels only ever
    decrease, so an unchanged sum == fixpoint). The reference engine has
    no dedup at all (closed site list, see
    /root/reference/src/main/java/searchengine/services — coverage here
    is the LLM-training-data extension surface).
    """
    if isinstance(pairs, pa.Table):
        pairs_ds = rd.from_arrow(pairs.select([col_a, col_b]))
    else:
        pairs_ds = pairs.select_columns([col_a, col_b])

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch.column(col_a).cast(pa.int64()).to_numpy(zero_copy_only=False)
        b = batch.column(col_b).cast(pa.int64()).to_numpy(zero_copy_only=False)
        # the distributed label-propagation rounds use -1 as the
        # label-row sentinel; a negative doc id would be read as a
        # sentinel and silently corrupt cluster labels — reject loudly
        if (len(a) and a.min() < 0) or (len(b) and b.min() < 0):
            raise ValueError("dup_clusters requires non-negative doc ids")
        return pa.table(
            {
                "node": pa.array(np.concatenate((a, b)), pa.int64()),
                "nbr": pa.array(np.concatenate((b, a)), pa.int64()),
            }
        )

    edges = pairs_ds.map_batches(to_edges, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64()),
             "keep": pa.array([], pa.bool_())}
        )
    if n_edges <= driver_max_edges:
        # Plan adaptivity (same pattern as the build's driver-side
        # doc-store path): the edge list is candidate-pair-sized, and
        # below the threshold a driver union-find beats paying the
        # per-round Dataset-execution overhead of the distributed loop.
        # Equality of both paths is pinned by test.
        tabs = [t for t in ray.get(edges.materialize().to_arrow_refs()) if t.num_rows]
        e = pa.concat_tables(tabs)
        u = e.column("node").to_numpy(zero_copy_only=False)
        v = e.column("nbr").to_numpy(zero_copy_only=False)
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[x] != root:  # path compression
                parent[x], x = root, parent[x]
            return root

        for a, b in zip(u.tolist(), v.tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                # union by smaller id so the root IS the component min
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb
        nodes = np.unique(u)
        labels = np.fromiter((find(int(x)) for x in nodes), np.int64, len(nodes))
        return pa.table(
            {
                "doc_id": pa.array(nodes, pa.int64()),
                "cluster_id": pa.array(labels, pa.int64()),
                "keep": pa.array(nodes == labels),
            }
        )

    # Seed label(node) = min(node, min direct neighbor): one groupby, and
    # already the fixpoint for the common clique/star cluster shapes.
    def seed_label(batch: pa.Table) -> pa.Table:
        lab = pc.min_element_wise(batch.column("node"), batch.column("min_nbr"))
        return pa.table({"node": batch.column("node"), "label": lab})

    labels = (
        edges.groupby("node")
        .aggregate(Min("nbr", alias_name="min_nbr"))
        .map_batches(seed_label, batch_format="pyarrow")
        .materialize()
    )
    prev_sum = labels.sum("label")

    def relabel(group: pa.Table) -> pa.Table:
        # Group = this node's label row (nbr == -1) + its edge rows.
        nbrs = group.column("nbr").to_numpy(zero_copy_only=False)
        labs = group.column("label").to_numpy(zero_copy_only=False)
        lab = labs[labs >= 0].min()  # exactly one label row per node
        targets = np.concatenate((nbrs[nbrs >= 0], group.column("node").slice(0, 1).to_numpy()))
        return pa.table(
            {"node": pa.array(targets, pa.int64()),
             "label": pa.array(np.full(len(targets), lab), pa.int64())}
        )

    for _ in range(max_iters):
        lab_rows = labels.map_batches(
            lambda b: pa.table(
                {"node": b.column("node"), "nbr": pa.array(np.full(b.num_rows, -1), pa.int64()),
                 "label": b.column("label")}
            ),
            batch_format="pyarrow",
        )
        edge_rows = edges.map_batches(
            lambda b: pa.table(
                {"node": b.column("node"), "nbr": b.column("nbr"),
                 "label": pa.array(np.full(b.num_rows, -1), pa.int64())}
            ),
            batch_format="pyarrow",
        )
        labels = (
            lab_rows.union(edge_rows)
            .groupby("node")
            .map_groups(relabel, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    tabs = [t for t in ray.get(labels.materialize().to_arrow_refs()) if t.num_rows]
    t = pa.concat_tables(tabs)
    t = pa.table(
        {
            "doc_id": t.column("node"),
            "cluster_id": t.column("label"),
            "keep": pc.equal(t.column("node"), t.column("label")),
        }
    )
    return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))


def dup_clusters_sql(pairs_sql: str) -> str:
    """DuckDB oracle for :func:`dup_clusters`: recursive closure over the
    same pair set (``pairs_sql`` must yield ``doc_a, doc_b`` columns)."""
    return f"""
WITH RECURSIVE pairs AS ({pairs_sql}),
edges AS (
    SELECT doc_a AS u, doc_b AS v FROM pairs
    UNION
    SELECT doc_b AS u, doc_a AS v FROM pairs
),
nodes AS (SELECT DISTINCT u AS node FROM edges),
walk(node, lab) AS (
    SELECT node, node FROM nodes
    UNION
    SELECT e.v, w.lab FROM walk w JOIN edges e ON e.u = w.node
)
SELECT node AS doc_id, MIN(lab) AS cluster_id, node = MIN(lab) AS keep
FROM walk GROUP BY node
"""


# ---------------------------------------------------------------------------
# Incremental cross-snapshot dedup (new increment vs. existing base)
# ---------------------------------------------------------------------------

def incremental_dedup(
    base_ds: rd.Dataset,
    new_ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Continuous-ingestion dedup — the crawl-pipeline op
    :func:`exact_dedup` cannot express: a NEW document survives iff its
    text (md5 key, the exact_dedup convention) appears NOWHERE in the
    existing base corpus AND it is the keep-first (min id) among its
    duplicates WITHIN the increment.  -> (id, n_copies) per surviving
    new doc, n_copies = its copy count inside the increment (base
    collisions do not survive at all — the base already has that text).

    Shape: both sides reduce to (h[, id]) key rows in one map each —
    the base ships NO ids (presence is all the rule needs), the
    increment ships (h, id) — and ONE hash groupby decides survival:
    min new id where no base row shares the hash.  The exchange is
    hash-rows-sized on both sides, never document-sized, and the base
    side re-runs stateless each pulse (at 100 TB the base hash set is
    a stored artifact one would persist once and hash-join against;
    the groupby here IS that join)."""

    def base_keys(batch: pa.Table) -> pa.Table:
        h = _md5_col(batch.column(text_col))
        return pa.table({
            "h": h,
            id_col: pa.array(np.full(len(h), -1), pa.int64()),
        })

    def new_keys(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and ids.min() < 0:
            raise ValueError(f"{id_col} must be non-negative (-1 is the base tag)")
        return pa.table({
            "h": _md5_col(batch.column(text_col)),
            id_col: pa.array(ids, pa.int64()),
        })

    def fold(group: pa.Table) -> pa.Table:
        import pandas as pd

        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        h = group.column("h").to_numpy(zero_copy_only=False)
        codes, _uq = pd.factorize(h, sort=False)
        n = int(codes.max()) + 1 if len(codes) else 0
        is_base = ids < 0
        seen_base = np.zeros(n, bool)
        seen_base[codes[is_base]] = True
        new_codes, new_ids = codes[~is_base], ids[~is_base]
        counts = np.bincount(new_codes, minlength=n)
        min_id = np.full(n, np.iinfo(np.int64).max)
        np.minimum.at(min_id, new_codes, new_ids)
        sel = (counts > 0) & ~seen_base
        return pa.table({
            id_col: pa.array(min_id[sel], pa.int64()),
            "n_copies": pa.array(counts[sel].astype(np.int64), pa.int64()),
        })

    keys = base_ds.map_batches(base_keys, batch_format="pyarrow").union(
        new_ds.map_batches(new_keys, batch_format="pyarrow")
    )

    def bucket(b: pa.Table) -> pa.Table:
        return b.append_column(
            "kb", pa.array(_md5_bucket(b.column("h"), 1024), pa.int64())
        )

    return (
        keys.map_batches(bucket, batch_format="pyarrow")
        .groupby("kb")
        .map_groups(fold, batch_format="pyarrow")
    )


def _md5_bucket(h: pa.Array, nb: int) -> np.ndarray:
    """Vectorized bucket from md5 hex digests (``_md5_col``): fixed
    32-char rows -> (n, 32) byte view, first 8 nibbles to an int, mod nb."""
    hh = h.combine_chunks() if isinstance(h, pa.ChunkedArray) else h
    raw = np.frombuffer(hh.buffers()[2], np.uint8)
    mat = raw[: 32 * len(hh)].reshape(-1, 32)[:, :8].astype(np.int64)
    nib = np.where(mat >= 97, mat - 87, mat - 48)
    return (nib @ (16 ** np.arange(7, -1, -1, dtype=np.int64))) % nb


def incremental_dedup_sql(base_src: str, new_src: str,
                          id_col: str = "doc_id") -> str:
    """DuckDB oracle for :func:`incremental_dedup` (same md5 key)."""
    return f"""
WITH bh AS (SELECT DISTINCT md5(coalesce(text, '')) AS h FROM {base_src}),
nh AS (
    SELECT md5(coalesce(text, '')) AS h, {id_col} FROM {new_src}
),
grouped AS (
    SELECT h, CAST(min({id_col}) AS BIGINT) AS {id_col},
           CAST(count(*) AS BIGINT) AS n_copies
    FROM nh GROUP BY h
)
SELECT g.{id_col}, g.n_copies
FROM grouped g ANTI JOIN bh ON bh.h = g.h
"""
