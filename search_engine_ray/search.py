"""Query engine — the analog of ``GET /api/search`` (SURVEY.md §3.2).

Reference flow (``/root/reference/src/main/java/searchengine/services/search/SearchServiceImpl.java:35-101``):
analyze query -> dictionary lookup df-ascending -> candidate retrieval ->
score -> sort desc -> offset/limit. The reference's query-independent
relevance (page Σtf / global max Σtf,
``repositories/IndexRepository.java:14-20``) is kept as the parity scorer
(``mode='reference'``); the default scorer is real BM25 top-k over the
compressed block index with **block-max pruning** (north rule).

Block-max evaluation here is the windowed exact variant of block-max
WAND: docid space is partitioned into windows at every block boundary of
every query term, so each window's full document scores are computable
locally (every posting of a doc falls in exactly one window). Windows
are processed in descending upper-bound order (UB = Σ_t idf_t·(k1+1)·
bmw_block) and evaluation stops at the first window whose UB is strictly
below the current top-k threshold — pruning is lossless: a skipped
window cannot contain a doc scoring ≥ threshold, and ties (UB ==
threshold) are still processed so the deterministic tie-break
(score DESC, docid ASC) == (score DESC, conv_id ASC, turn_idx ASC) holds
exactly. Skip pointers = the per-block ``first_docid``/``last_docid``
metadata consumed via ``np.searchsorted``.

Reference semantics preserved:
- any query lemma absent from the dictionary -> empty result
  (``SearchServiceImpl.java:57-64``);
- empty analyzed query -> empty result with an error flag (:45-48);
- scope filter (``role``, the ``site`` analog, :41-44);
- ``mode='reference'`` additionally drops df >= 250 lemmas and
  intersects candidates conjunctively rarest-first (:155-178).

Everything in this module runs in the calling process: the lemma
dictionary, the index and the doc store are key-sorted Parquet, read
through one row-group directory per store (footer min/max of each row
group's key), so a query reads only the row groups covering its lemmas
and docs — no cluster round-trip, matching the reference's
single-request query path.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import re
import sys
import threading
from collections import Counter, OrderedDict
from typing import Iterator, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import analyzer
from .config import DEFAULT_PAGE_SIZE, REFERENCE_DF_CUTOFF, TURN_BITS

# reciprocal-rank-fusion constant (order_by='rrf'): the standard k=60
# from Cormack/Clarke/Büttcher (2009), the Elasticsearch default
RRF_K = 60
from .docid import make_docid_attacher, split_docids
from .stages.encode import (
    INDEX_SCHEMA,
    binary_column_buffers,
    decode_block_range,
    decode_gaps_range,
    decode_poss_range,
    decode_scps_range,
    scope_code_space,
)
from .state import layout
from .state.columns import numpy_dtype, read_table, to_arrow, to_numpy, to_table
from .state.manifest import load_json


def _decode_pos_blobs(blobs, tf: np.ndarray) -> np.ndarray:
    """Flat absolute positions from per-posting delta+varint blobs
    (``tf`` values per blob) — the delta-generation postings side."""
    from .state import codec

    buf = b"".join(b or b"" for b in blobs)
    total = int(tf.sum())
    deltas = codec.varint_decode(buf, total)
    cum = np.cumsum(deltas, dtype=np.uint64).view(np.int64)
    seg = np.concatenate(([0], np.cumsum(tf, dtype=np.int64)))[:-1]
    corr = cum[seg] - deltas[seg].astype(np.int64)
    return cum - np.repeat(corr, tf)


_QUOTE_RE = re.compile(r'"([^"]*)"')


def decay_params(decay, ts_us_fn) -> tuple | None:
    """Validate a ``search(decay=...)`` spec and fold its shape constant
    to one float64 — ``(shape, origin_f, c1, off_s)`` — or None when
    malformed (the caller's ``bad_decay``). Shared by the single-index
    engine and the federated fan-out (the constants are GLOBAL, so a
    per-shard multiply merges exactly)."""
    if not isinstance(decay, dict):
        return None
    try:
        origin_us = ts_us_fn(decay["origin"])
        scale_s = float(decay["scale"])
        rate = float(decay.get("rate", 0.5))
        off_s = float(decay.get("offset", 0.0))
        shape = decay.get("shape", "gauss")
    except (KeyError, TypeError, ValueError):
        return None
    if (origin_us is None or not scale_s > 0.0 or not 0.0 < rate < 1.0
            or off_s < 0.0 or shape not in ("gauss", "exp", "linear")):
        return None
    c1 = (-(scale_s * scale_s) / math.log(rate) if shape == "gauss"
          else math.log(rate) / scale_s if shape == "exp"
          else scale_s / (1.0 - rate))
    return (shape, float(origin_us), c1, off_s)


def decay_factor(tss: np.ndarray, decay_t: tuple) -> np.ndarray:
    """The per-doc decay multiplier for epoch-µs timestamps ``tss`` —
    x in SECONDS (float64) with the exact op order the SQL twin
    mirrors: abs(ts_f - origin_f)/1e6, minus offset, clamp, shape."""
    shape, origin_f, c1, off_s = decay_t
    x = np.abs(tss.astype(np.float64) - origin_f) / 1e6
    x = np.maximum(x - off_s, 0.0)
    if shape == "gauss":
        return np.exp(-(x * x) / c1)
    if shape == "exp":
        return np.exp(c1 * x)
    return np.maximum((c1 - x) / c1, 0.0)


def parse_agg_ranges(ranges, field: str, ts_us_fn):
    """Validate/normalize a range-aggregation spec: [(from, to) | {'from':
    , 'to':}] with None = open side, from < to, ts bounds via the shared
    ISO/epoch-µs normalizer. -> list[(lo, hi)] ints-or-None, or None if
    malformed (the caller's ``bad_ranges``). Shared by the single-index
    and federated engines."""
    bounds: list[tuple[int | None, int | None]] = []
    try:
        for r in ranges:
            if isinstance(r, dict):
                r = (r.get("from"), r.get("to"))
            if not isinstance(r, (list, tuple)) or len(r) != 2:
                return None
            lo, hi = (
                None if v is None
                else int(ts_us_fn(v)) if field == "ts"
                else int(v)
                for v in r
            )
            if lo is not None and hi is not None and lo >= hi:
                return None
            bounds.append((lo, hi))
    except (TypeError, ValueError):
        return None
    return bounds


def parse_boolean_query(text: str) -> tuple[list[str], str, str]:
    """Search-box boolean syntax -> (quoted phrases, loose-term text,
    NOT-term text). Double-quoted segments are exact-phrase constraints;
    bare tokens prefixed ``-`` are NOT terms; everything else is loose
    disjunctive text. ``-"..."`` (negated phrases) is not supported —
    the minus binds to bare tokens only."""
    phrases = [m.group(1) for m in _QUOTE_RE.finditer(text or "")]
    rest = _QUOTE_RE.sub(" ", text or "").split()
    exclude = " ".join(t[1:] for t in rest if t.startswith("-") and len(t) > 1)
    loose = " ".join(t for t in rest if not (t.startswith("-") and len(t) > 1))
    return phrases, loose, exclude


def _levenshtein_capped(a: str, b: str, cap: int) -> int:
    """Banded Levenshtein with early exit; returns cap+1 when exceeded.
    Matches DuckDB's ``levenshtein`` (unit insert/delete/substitute)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > cap:
        return cap + 1
    if la == 0 or lb == 0:
        return max(la, lb)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        ca = a[i - 1]
        cur = [i] + [0] * lb
        lo = cap + 1
        for j in range(1, lb + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ca != b[j - 1]),
            )
            if cur[j] < lo:
                lo = cur[j]
        if lo > cap:
            return cap + 1
        prev = cur
    return prev[lb]


def _lev(a: str, b: str) -> int:
    """Exact unbounded Levenshtein (unit costs) — the dist column's
    contract; DuckDB's ``levenshtein`` is the same DP."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _suggest_scan(tok: str, vocab_items, max_dist: int) -> list[tuple[str, int, int]]:
    """(lemma, df, dist) rows within max_dist of tok — ``suggest``'s
    sweep over one dictionary row group's items."""
    out = []
    lt = len(tok)
    for lemma, df in vocab_items:
        if abs(len(lemma) - lt) > max_dist:
            continue
        d = _levenshtein_capped(tok, lemma, max_dist)
        if d <= max_dist:
            out.append((lemma, int(df), int(d)))
    return out


def _take_pos_groups(pos_flat: np.ndarray, tf: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Segmented gather: select posting-position groups ``idx`` (in that
    order) from a flat position array grouped by per-posting counts
    ``tf``. Pure numpy — the overlay's filter/reorder primitive."""
    starts = np.concatenate(([0], np.cumsum(tf, dtype=np.int64)))[:-1]
    cnt = np.asarray(tf, np.int64)[idx]
    tot = int(cnt.sum())
    out_off = np.concatenate(([0], np.cumsum(cnt)))[:-1]
    within = np.arange(tot, dtype=np.int64) - np.repeat(out_off, cnt)
    return pos_flat[np.repeat(starts[idx], cnt) + within]


def _pair_adjacency(
    di_a: np.ndarray, tf_a: np.ndarray, pos_a: np.ndarray,
    di_b: np.ndarray, tf_b: np.ndarray, pos_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact bigram adjacency of two posting lists -> the aux-payload
    triple ``(docids, cnts, starts)``: docs containing lemma A at some
    position p AND lemma B at p+1, with the per-doc start positions.
    Inputs are docid-ascending postings with flat positions (tf values
    per posting) — the shape both the delta overlay and the decoded
    base term share. Vectorized: one docid intersect, one segmented
    gather per side, one key intersect ((doc_idx << 32) | position)."""
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
    common = np.intersect1d(di_a, di_b, assume_unique=True)
    if not len(common):
        return empty
    shift = np.int64(1) << np.int64(32)
    ia = np.searchsorted(di_a, common)
    ib = np.searchsorted(di_b, common)
    pa_ = _take_pos_groups(pos_a, tf_a, ia)
    pb_ = _take_pos_groups(pos_b, tf_b, ib)
    tfa = np.asarray(tf_a, np.int64)[ia]
    tfb = np.asarray(tf_b, np.int64)[ib]
    ca = np.repeat(np.arange(len(common), dtype=np.int64), tfa)
    cb = np.repeat(np.arange(len(common), dtype=np.int64), tfb)
    ka = ca * shift + pa_
    okb = pb_ >= 1  # B at position 0 can't follow anything
    kb = cb[okb] * shift + (pb_[okb] - np.int64(1))
    inter = np.intersect1d(ka, kb, assume_unique=True)
    if not len(inter):
        return empty
    uniq, ucnt = np.unique(inter >> np.int64(32), return_counts=True)
    return (
        common[uniq],
        ucnt.astype(np.int64),
        (inter & (shift - np.int64(1))).astype(np.int64),
    )


class _Vocab(dict):
    """One decoded lemma-dictionary row group: lemma -> df, in lemma
    order, for point lookups; beside it the group's sorted columns for
    range scans: ``lemmas`` (the same key strings in an object array,
    which ``np.searchsorted`` bisects), ``arrow`` (the Arrow ``lemma``
    column, for vectorized pattern passes) and ``df``. ``nbytes`` is
    what it holds resident: its hash table, its key strings, the df
    ints CPython does not share (it caches -5..256) and the columns."""

    __slots__ = ("nbytes", "lemmas", "arrow", "df")

    def __init__(self, t: pa.Table):
        # (the dict shares its key strings with ``lemmas``)
        self.arrow = t.column("lemma").combine_chunks()
        self.lemmas = to_numpy(self.arrow)
        self.df = df = to_numpy(t.column("df"))
        super().__init__(zip(self.lemmas.tolist(), df.tolist()))
        self.nbytes = (sys.getsizeof(self) + sum(map(sys.getsizeof, self))
                       + sum(map(sys.getsizeof, df[df > 256].tolist()))
                       + self.lemmas.nbytes + self.arrow.get_total_buffer_size()
                       + df.nbytes)


def _nbytes(x) -> int:
    """Resident size of a cache payload: its arrays' bytes (a numpy view
    counts its span, an Arrow array its buffers), a dictionary group's
    ``nbytes``, a string's length, 8 per other scalar."""
    if isinstance(x, (np.ndarray, _Vocab)):
        return x.nbytes
    if isinstance(x, (pa.Array, pa.ChunkedArray)):
        return x.get_total_buffer_size()
    if isinstance(x, (str, bytes)):
        return len(x)
    if isinstance(x, (tuple, list, dict)):
        return sum(_nbytes(v) for v in (x.values() if isinstance(x, dict) else x))
    return 8


# the kinds of payload that are whole decoded index row groups: a query
# needs one only at a lemma's first touch, so together they hold at most
# a quarter of the budget and cannot crowd out the block entries and
# decoded streams every warm query reads
_GROUP_KINDS = ("index", "poss")


class PayloadCache:
    """An engine's one store of read and decoded index payloads: an LRU
    over ``(kind, ...)`` keys holding at most ``max_bytes`` behind one
    lock, so threads serving one engine share it safely. A payload is
    computed OUTSIDE the lock: two threads missing the same key both
    compute it and the second insert wins (the values are identical).
    A payload larger than the budget is returned without being cached;
    ``_GROUP_KINDS`` payloads past a quarter of it are evicted first."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.bytes = 0
        self._lru: OrderedDict = OrderedDict()  # key -> (payload, nbytes)
        self._lock = threading.Lock()

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._lru

    def _hit(self, key):
        with self._lock:
            hit = self._lru.get(key)
            if hit is not None:
                self._lru.move_to_end(key)
            return hit

    def peek(self, key):
        """The cached payload of ``key`` (now most recently used), or None."""
        hit = self._hit(key)
        return None if hit is None else hit[0]

    def put(self, key, payload):
        """Cache ``payload`` under ``key``, evicting least recently used
        entries past the budget. -> ``payload``."""
        n = _nbytes(payload)
        if n <= self.max_bytes:
            with self._lock:
                old = self._lru.pop(key, None)
                self.bytes += n - (old[1] if old else 0)
                self._lru[key] = (payload, n)
                if key[0] in _GROUP_KINDS:
                    self._trim_groups()
                while self.bytes > self.max_bytes:
                    self.bytes -= self._lru.popitem(last=False)[1][1]
        return payload

    def _trim_groups(self) -> None:
        """Evict ``_GROUP_KINDS`` payloads, least recently used first,
        until together they hold at most a quarter of the budget (the
        lock held)."""
        held = [(k, n) for k, (_, n) in self._lru.items() if k[0] in _GROUP_KINDS]
        over = sum(n for _, n in held) - self.max_bytes // 4
        for k, n in held:
            if over <= 0:
                break
            del self._lru[k]
            self.bytes -= n
            over -= n

    def get(self, key, compute):
        """The payload of ``key``, from the cache or ``compute()``."""
        hit = self._hit(key)
        return self.put(key, compute()) if hit is None else hit[0]

    def stats(self) -> dict[str, tuple[int, int]]:
        """kind -> (entries, bytes) of what is resident."""
        out: dict[str, tuple[int, int]] = {}
        with self._lock:
            for key, (_, n) in self._lru.items():
                e, b = out.get(key[0], (0, 0))
                out[key[0]] = (e + 1, b + n)
        return out


# the key-sorted parquet stores an engine reads by row group, located by
# their footers' key bounds (SearchEngine._groups): store -> (the files'
# directory, or the one file, under the index directory; the sort key)
_STORES = {
    "docs": (layout.docs_dir, "docid"),
    "dict": (layout.lemma_dict_path, "lemma"),
    "index": (layout.index_dir, "lemma_h"),
    "aux": (layout.aux_dir, "pair_id"),
}


def _store_files(out_dir: str, store: str) -> list[str]:
    """The parquet files of ``store`` (``_STORES``) under ``out_dir``."""
    path = _STORES[store][0](out_dir)
    if path.endswith(".parquet"):
        return [path]
    return [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".parquet")]


# the doc-store columns the per-doc reader (SearchEngine._doc_rows) decodes
_DOC_COLUMNS = ("docid", "doc_len", "ts", "role", "tool")


def _decode_doc_group(t: pa.Table) -> dict:
    """One doc-store row group as gather-ready arrays: ``docid``,
    ``doc_len`` and epoch-µs ``ts`` as int64; ``role`` and ``tool`` as
    str object arrays (null as ""), gathered by numpy indexing."""
    out = {c: to_numpy(t.column(c).cast(pa.int64())) for c in ("docid", "doc_len", "ts")}
    for c in ("role", "tool"):
        d = t.column(c).combine_chunks().dictionary_encode()
        # a null's index is the "" appended to the dictionary
        out[c] = np.array(d.dictionary.to_pylist() + [""], object)[
            to_numpy(d.indices, fill=len(d.dictionary))]
    return out


# the index columns a block entry is cut from (SearchEngine._read_index);
# the binary ones are varint streams, one cell per block
_BLOCK_COLUMNS = ("first_docid", "last_docid", "n", "bmw", "block_cf",
                  "gaps", "tfs", "dls", "scps")
_INDEX_BINARY = ("gaps", "tfs", "dls", "scps", "poss")
# the columns of a decoded index row group: the block columns and the
# lemma_h sort key a lemma's rows are found by (``poss`` is a payload
# of its own, read only for positions)
_INDEX_COLUMNS = ("lemma", "lemma_h") + _BLOCK_COLUMNS


def _decode_index_group(t: pa.Table) -> dict:
    """One index row group as arrays to cut block entries from: the
    numeric columns as numpy, each binary column as (data, offsets)
    (``binary_column_buffers``), and ``lemma`` as int codes into
    ``names``, the Arrow array of the group's distinct lemmas."""
    h = to_numpy(t.column("lemma_h"))
    if (h[1:] < h[:-1]).any():
        raise ValueError("index row group is not lemma_h-sorted")
    d = t.column("lemma").combine_chunks().dictionary_encode()
    out = {"lemma_h": h, "lemma": to_numpy(d.indices), "names": d.dictionary}
    for c in _BLOCK_COLUMNS:
        col = t.column(c)
        out[c] = binary_column_buffers(col) if c in _INDEX_BINARY else to_numpy(col)
    return out


def _binary_rows(buf: tuple, rows) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` (a slice or ascending indices) of a binary column
    held as (data, offsets), copied into a contiguous (data, offsets)."""
    data, offs = buf
    if isinstance(rows, slice):
        a, b = offs[rows.start], offs[rows.stop]
        return data[a:b].copy(), offs[rows.start:rows.stop + 1] - a
    lens = offs[rows + 1] - offs[rows]
    new = np.concatenate(([0], np.cumsum(lens)))
    return data[np.repeat(offs[rows] - new[:-1], lens) + np.arange(new[-1])], new


def _join_rows(col: str, parts: list):
    """One index column of a lemma from its per-group ``parts``, in
    order: numpy arrays, or (data, offsets) for a binary column."""
    if len(parts) == 1:
        return parts[0]
    if col not in _INDEX_BINARY:
        return np.concatenate([np.empty(0, numpy_dtype(INDEX_SCHEMA.field(col).type))] + parts)
    base = np.cumsum([0] + [len(d) for d, _ in parts])
    return (np.concatenate([np.empty(0, np.uint8)] + [d for d, _ in parts]),
            np.concatenate([[0]] + [o[1:] + b for (_, o), b in zip(parts, base)]).astype(np.int64))


# the decodable streams of a posting list; a counting read asks
# ``_decoded`` for fewer
STREAMS = ("docid", "tf", "dl", "scope")
DOCIDS = ("docid",)
DOCIDS_SCOPES = ("docid", "scope")


# registered ranking strategies (protocols.Scorer) — the formal scorer
# extension seam (reference analog: the SearchService interface,
# ``services/search/SearchService.java:5-15``). The built-in MODES are
# handled natively; ``search(mode=<name>)`` dispatches to a registered
# scorer for any other mode.
SCORERS: dict[str, object] = {}
# the modes ``search`` implements itself; registered scorers add more
MODES = ("bm25", "reference", "phrase", "phrase_prefix", "prefix", "wildcard",
         "regexp", "fuzzy", "near", "auto")


class Query(NamedTuple):
    """Every ``SearchEngine.search`` argument, in its order and with its
    default. ``Aggregations._search_params`` returns it normalized: the
    page as ints, ts bounds as epoch-µs ints, ``boosts`` keyed by lemma,
    ``decay`` folded by ``decay_params``, ``rescore`` as (phrase lemmas,
    window, query weight, rescore weight), ``negative_boost`` a float."""

    query_text: str
    scope: str | None = None
    offset: int = 0
    limit: int = DEFAULT_PAGE_SIZE
    mode: str = "bm25"
    method: str = "blockmax"
    conjunctive: bool = False
    with_snippets: bool | str = False
    near_window: int = 8
    in_order: bool = False
    within_first: int | None = None
    fuzzy_dist: int = 1
    min_match: int | None = None
    exclude: str | None = None
    ts_min: object = None
    ts_max: object = None
    collapse: int | None = None
    order_by: str = "score"
    search_after: tuple | list | None = None
    synonyms: dict | None = None
    boosts: dict | None = None
    decay: dict | tuple | None = None
    rescore: dict | tuple | None = None
    negative: str | None = None
    negative_boost: float = 0.5

    @property
    def filtered(self) -> bool:
        """Whether a doc-level filter or score rewrite applies: these
        work on a mode's full match set."""
        return (self.exclude is not None or self.ts_min is not None
                or self.ts_max is not None or self.collapse is not None
                or self.order_by != "score" or self.search_after is not None
                or self.decay is not None or self.negative is not None)


def _in_range(v, lo, hi=math.inf) -> bool:
    """Whether ``v`` is a number in [lo, hi]; False, not an exception,
    for a value that does not compare."""
    try:
        return bool(lo <= v <= hi)
    except (TypeError, ValueError):
        return False


def register_scorer(name: str):
    """Decorator: register a ``(engine, terms, k, scope, conjunctive) ->
    (ids, scores, count)`` ranking strategy under ``mode=name``."""

    def deco(fn):
        SCORERS[name] = fn
        return fn

    return deco


def _in_ranges(x: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Bool mask over ``x``: which values fall in one of the sorted,
    disjoint ``[starts[i], ends[i])`` ranges."""
    if not len(starts):
        return np.zeros(len(x), bool)
    i = np.searchsorted(starts, x, side="right") - 1
    return (i >= 0) & (x < ends[np.maximum(i, 0)])


def _n_matching(parts) -> int:
    """Matching docs over all parts (each doc lives in exactly one)."""
    return sum(len(ids) for _, ids, _ in parts)


def _n_common(a, b) -> int:
    """Docs in both of two part lists over the same engines."""
    return sum(
        int(np.isin(x, y, assume_unique=True).sum())
        for (_, x, _), (_, y, _) in zip(a, b)
    )


def _jlh_rank(fg, bg, n_fg: float, n_docs: float):
    """``significant_terms``' ranking rule: every lemma, by the JLH score
    ``(fg% - bg%) * (fg% / bg%)`` DESC, fg% = fg / ``n_fg`` (the matching
    docs) and bg% = bg / ``n_docs`` — one division per rate, the op
    sequence the SQL oracle mirrors. -> (keep mask, ascending key,
    [score])."""
    fgp = fg / n_fg
    bgp = bg / n_docs
    score = (fgp - bgp) * (fgp / bgp)
    return np.ones(len(fg), bool), -score, [score]


def _rare_rank(max_doc_count: int, fg, bg, n_fg: float, n_docs: float):
    """``rare_terms``' ranking rule: the lemmas whose live df ``bg`` is at
    most ``max_doc_count``, by bg ASC. -> (keep mask, ascending key, no
    extra column)."""
    return bg <= max_doc_count, bg, []


def _top_terms(rank, k: int, lem, fg, bg) -> list:
    """The top ``k`` of the term rows ``(lem, fg, bg)`` with fg > 0 that
    ``rank(fg, bg)`` keeps, by its key ASC then lemma ASC. -> [lemma,
    fg, bg, *the rule's extra columns]."""
    m = fg > 0
    lem, fg, bg = lem[m], fg[m], bg[m]
    keep, key, extra = rank(fg, bg)
    sel = np.flatnonzero(keep)[np.lexsort((lem[keep], key[keep]))][:k]
    return [c[sel] for c in (lem, fg, bg, *extra)]


def _rows_resp(schema: pa.Schema, rows, count: int, **extra) -> dict:
    """A success response whose data is ``rows``, tuples in ``schema``
    column order (``_cols_resp``)."""
    return _cols_resp(schema, zip(*rows), count, **extra)


def _cols_resp(schema: pa.Schema, cols, count: int, **extra) -> dict:
    """A success response whose data is the table of ``schema`` with
    ``cols``, one column per field (``columns.to_table``); ``extra``
    holds the surface's other keys."""
    return {"result": True, "count": int(count), **extra,
            "data": to_table(schema, cols), "error": None}


class Aggregations:
    """The query surfaces one index and a shard federation share, written
    once: ``search`` argument validation, the scope → plan → matching-set
    preamble and the matching-set aggregations.

    A subclass provides ``plan(query_text)`` -> (df-ascending terms,
    error), ``valid_scope(scope)``, ``_analyzer`` and ``_parts(terms,
    scope, conjunctive, exclude, ts_min, ts_max)``: the matching set as a
    list of parts ``(engine, ascending unique docids, dense scope
    codes)``, docids and codes in that engine's own spaces. A
    ``SearchEngine`` yields one part; a ``FederatedEngine`` one per shard,
    in shard order. Shards partition the docs and the conversations, so
    the aggregations merge parts by three laws: per-part counts sum,
    distinct-value sets union, and distinct-conversation counts sum."""

    MAX_RANK_VALUES = 100
    MAX_AGG_RANGES = 100
    MAX_AGG_FILTERS = 100        # the ES adjacency_matrix default cap
    CARDINALITY_FIELDS = ("conv", "role", "tool", "day", "doc_len", "ts")

    @staticmethod
    def _ts_us(v) -> int | None:
        """Normalize a ts bound to int64 epoch microseconds: int passes
        through, ISO-8601 strings and datetimes are interpreted as UTC
        when naive (the corpus ts column is tz-naive UTC)."""
        if v is None:
            return None
        if isinstance(v, (int, np.integer)):
            return int(v)
        from datetime import datetime, timedelta, timezone

        if isinstance(v, str):
            v = datetime.fromisoformat(v)  # ValueError -> caller's bad_ts
        if not isinstance(v, datetime):
            raise ValueError(f"unsupported ts bound {v!r}")
        if v.tzinfo is None:
            v = v.replace(tzinfo=timezone.utc)
        # INTEGER epoch-µs: float64 timestamp() rounds ~1% of
        # microsecond values 1 µs low, breaking the inclusive-bound /
        # oracle-exact contract at the boundary (measured 2489/200000
        # round-trip mismatches) — timedelta floor-division is exact
        return (v - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(
            microseconds=1
        )

    def _resp(self, count: int = 0, error: str | None = None,
              schema: pa.Schema | None = None, **extra) -> dict:
        """A response without rows: ``error``, or a success that carries
        only ``count``. ``data`` is an empty table of ``schema`` (the
        search result's by default); ``extra`` holds the surface's other
        keys."""
        return {
            "result": error is None,
            "count": count,
            "data": to_table(schema or RESULT_SCHEMA),
            "error": error,
            **extra,
        }

    def _planned(self, query_text: str, scope: str | None, **shape):
        """The scope → plan preamble. -> (terms, None), or (None, the
        response: bad_scope, empty_query, or the empty success of a
        missing lemma). ``shape`` is the surface's ``_resp`` schema and
        extra keys."""
        if not self.valid_scope(scope):
            return None, self._resp(error="bad_scope", **shape)
        terms, err = self.plan(query_text)
        if err:
            return None, self._resp(
                error=None if err == "no_results" else err, **shape)
        return terms, None

    def _matched(self, query_text: str, scope: str | None,
                 conjunctive: bool = False, exclude: str | None = None,
                 ts_min=None, ts_max=None, **shape):
        """``_planned`` plus the ts bounds and the matching set. -> (terms,
        parts, None) when some doc matches, else (None, None, the
        response: a preamble error, bad_ts, or the empty success)."""
        terms, resp = self._planned(query_text, scope, **shape)
        if resp is None:
            try:
                ts_min, ts_max = self._ts_us(ts_min), self._ts_us(ts_max)
            except (ValueError, TypeError, OverflowError):
                return None, None, self._resp(error="bad_ts", **shape)
            parts = self._parts(terms, scope, conjunctive, exclude, ts_min, ts_max)
            if _n_matching(parts):
                return terms, parts, None
            resp = self._resp(**shape)
        return None, None, resp

    def _search_params(self, q: Query):
        """Step 1 of ``search``: validate ``q`` and normalize it (see
        ``Query``). -> (error, None) or (None, the normalized Query)."""
        mode = q.mode
        if not self.valid_scope(q.scope):
            return "bad_scope", None
        if not isinstance(mode, str) or (mode not in MODES and mode not in SCORERS):
            return "unknown_mode", None
        if q.search_after is not None and (
            q.offset != 0 or q.order_by != "score"
            or not isinstance(q.search_after, (tuple, list))
            or len(q.search_after) != 3
        ):
            return "bad_cursor", None
        if q.collapse is not None and not _in_range(q.collapse, 1):
            return "bad_collapse", None
        if q.order_by not in ("score", "ts_desc", "ts_asc", "rrf"):
            return "bad_order", None
        # page sanity: Python slicing makes ids[-1:] the LAST row, so a
        # negative offset would silently return a wrong page as success
        try:
            offset, limit = int(q.offset), int(q.limit)
        except (TypeError, ValueError):
            return "bad_page", None
        if offset < 0 or limit < 0:
            return "bad_page", None
        # ts bounds validate ONCE up front — garbage must be a bad_ts
        # response, not an exception escaping to the HTTP layer — and
        # pass down as exact int epoch-µs
        try:
            ts_min, ts_max = self._ts_us(q.ts_min), self._ts_us(q.ts_max)
        except (ValueError, TypeError, OverflowError):
            return "bad_ts", None
        q = q._replace(offset=offset, limit=limit, ts_min=ts_min, ts_max=ts_max)
        # every built-in mode filters its full match set; a registered
        # scorer returns only its top-k, so a filter there is refused
        # rather than silently applied to k docs
        if (q.min_match is not None and mode != "bm25") or (
                mode not in MODES and q.filtered):
            return "bad_filter_mode", None
        if q.synonyms is not None and mode != "bm25":
            return "bad_synonyms", None
        if q.negative is not None:
            # boosting query (the ES `boosting` compound): docs matching
            # the negative query stay IN the result set but their score
            # is multiplied by negative_boost in [0, 1] — demotion, the
            # middle ground exclude= can't express. The negative side
            # must analyze to >= 1 token (ES rejects an empty negative
            # body); absent-lemma negatives demote nothing (exclude's
            # no-op rule, NOT the missing-lemma rule — the negative side
            # is a filter, not the query).
            try:
                q = q._replace(negative_boost=float(q.negative_boost))
            except (TypeError, ValueError):
                return "bad_negative", None
            if (not isinstance(q.negative, str)
                    or not (0.0 <= q.negative_boost <= 1.0)
                    or not self._analyzer.analyze_query(q.negative)):
                return "bad_negative", None
        if q.boosts is not None:
            # query-time term boosting (the Lucene term^w weight):
            # analyzer-normalize the keys, require positive finite
            # factors; bm25 mode only (a boost rewrites idf, which the
            # reference scorer and positional modes do not carry)
            if mode != "bm25":
                return "bad_boosts", None
            norm_boosts: dict[str, float] = {}
            for key, w in q.boosts.items():
                try:
                    w = float(w)
                except (TypeError, ValueError):
                    return "bad_boosts", None
                if not (w > 0.0 and math.isfinite(w)):
                    return "bad_boosts", None
                klems = self._analyzer.analyze_query(str(key))
                if len(klems) != 1:
                    return "bad_boosts", None
                norm_boosts[klems[0]] = w
            q = q._replace(boosts=norm_boosts)
        if q.decay is not None:
            # function-score recency decay: validate + fold the shape
            # constant to ONE float64 driver-side (the SQL twin inlines
            # the same repr-round-tripped constant)
            q = q._replace(decay=decay_params(q.decay, self._ts_us))
            if q.decay is None:
                return "bad_decay", None
        if q.rescore is not None:
            # two-phase rescore (bm25 only, no filter or rewrite): the
            # rescore query is an ORDERED phrase whose exact-match BM25
            # is the phase-two signal
            rescore = q.rescore
            if (mode != "bm25" or not isinstance(rescore, dict)
                    or q.min_match is not None or q.filtered
                    or q.boosts is not None or q.synonyms is not None):
                return "bad_rescore", None
            if not self.has_positions:
                return "no_positions", None
            try:
                rq = str(rescore["query"])
                window = int(rescore.get("window", 50))
                qw = float(rescore.get("query_weight", 1.0))
                rw = float(rescore.get("rescore_weight", 1.0))
            except (KeyError, TypeError, ValueError):
                return "bad_rescore", None
            if (window < 1 or window < offset + limit
                    or not (math.isfinite(qw) and math.isfinite(rw))):
                return "bad_rescore", None
            analyze_phrase = getattr(self._analyzer, "analyze_phrase", None)
            rphrase = analyze_phrase(rq) if analyze_phrase is not None else None
            if not rphrase:
                return "bad_rescore", None
            q = q._replace(rescore=(rphrase, window, qw, rw))
        # SpanFirstQuery composes with the phrase span only (a
        # single-term phrase IS the classic term form)
        if q.within_first is not None and (
                mode != "phrase" or not isinstance(q.within_first, int)
                or q.within_first < 1):
            return "bad_within_first", None
        if mode == "fuzzy" and not _in_range(q.fuzzy_dist, 0, 3):
            return "bad_fuzzy_dist", None
        if mode == "near" and not _in_range(q.near_window, 1):
            return "bad_window", None
        if q.min_match is not None and not _in_range(q.min_match, 1):
            return "bad_min_match", None
        if mode != "bm25" and mode in MODES:
            # conjunctive and method shape the bm25 term route only
            q = q._replace(conjunctive=False, method="blockmax")
        return None, q

    # ---------------- matching-set aggregations ------------------------

    def facets(
        self,
        query_text: str,
        scope: str | None = None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
        by=("role", "tool"),
    ) -> dict:
        """Faceted navigation over the reference's site-filter analog:
        per-role and per-tool document counts over the FULL matching set
        (not just the returned page) — the grouped generalization of the
        exact result count (G6). Uses the same gaps+scps decode as the
        scoped counting path: a doc's scope code is a doc property, so
        the first posting seen for each unique doc carries its (role,
        tool); counts are a bincount over the dense code space and the
        code->value decode is O(#roles x #tools), never corpus-sized.
        Composes with the other filtering surfaces: ``exclude`` NOT
        terms and inclusive ``ts_min``/``ts_max`` bounds apply to the
        matching set before grouping (pinned equal to the search-path
        filters by test). Per-part counts sum per (facet, value).

        ``by`` selects the groupings: any subset of 'role', 'tool' and
        'day' (a comma-joined string is accepted). 'day' is the date
        histogram — matching-doc counts per UTC calendar day
        (``floor(epoch_us / 86_400e6)``, rendered YYYY-MM-DD), the
        Elasticsearch ``date_histogram`` shape; its per-doc ts lookup
        rides the same two-regime path as the ts-range filter
        (forward-index searchsorted below the enrichment threshold, a
        row-group-pruned (docid, ts) read above it — at 10^12 docs a
        standing date facet should instead ride a build-time date
        partition key, same note as the ts filter).

        -> {'result': bool, 'count': int (matching docs), 'data':
        pa.Table(facet, value, n_docs), 'error': str|None}. ``value`` ==
        '' groups docs with no tool (every doc has a role in practice).
        """
        if isinstance(by, str):
            by = tuple(v.strip() for v in by.split(",") if v.strip())
        by = tuple(by)
        if not by or not set(by) <= {"role", "tool", "day"}:
            return self._resp(error="bad_facet", schema=FACETS_SCHEMA)
        _, parts, resp = self._matched(
            query_text, scope, conjunctive, exclude, ts_min, ts_max,
            schema=FACETS_SCHEMA)
        if resp:
            return resp
        counts: Counter = Counter()
        for eng, ids, codes in parts:
            if "role" in by or "tool" in by:
                pairs = eng._code_pairs()
                per_code = np.bincount(codes, minlength=len(pairs)).tolist()
                for (role, tool), n in zip(pairs, per_code):
                    if n:
                        counts["role", role] += n
                        counts["tool", tool] += n
            if "day" in by:
                days, n = np.unique(eng._field_values(ids, "day"),
                                    return_counts=True)
                for d, c in zip(days.astype("datetime64[D]").astype(str),
                                n.tolist()):
                    counts["day", str(d)] += c
        rows = sorted((f, v, n) for (f, v), n in counts.items() if f in by)
        return _rows_resp(FACETS_SCHEMA, rows, _n_matching(parts))

    def histogram(
        self,
        query_text: str,
        field: str = "doc_len",
        interval: int = 10,
        scope: str | None = None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
    ) -> dict:
        """Fixed-interval numeric bucket counts over the FULL matching
        set (the Elasticsearch ``histogram`` aggregation; on ``ts`` it
        is the fixed-interval ``date_histogram`` — the calendar-day
        variant lives in ``facets(by=('day',))``). ``bucket = (v //
        interval) * interval`` — pure integer math, so every count is
        hash-exact; empty buckets are omitted (ES ``min_doc_count=1``
        semantics). The bucket is a per-doc function, so per-part bucket
        counts sum. Composes with every filtering surface. -> {'result',
        'count', 'data': pa.Table(bucket, n_docs), 'error'}"""
        if field not in ("doc_len", "ts"):
            return self._resp(error="bad_field", schema=HISTOGRAM_SCHEMA)
        if not isinstance(interval, int) or interval <= 0:
            return self._resp(error="bad_interval", schema=HISTOGRAM_SCHEMA)
        _, parts, resp = self._matched(
            query_text, scope, conjunctive, exclude, ts_min, ts_max,
            schema=HISTOGRAM_SCHEMA)
        if resp:
            return resp
        counts: Counter = Counter()
        for eng, ids, _ in parts:
            buckets, n = np.unique(
                (eng._field_values(ids, field) // interval) * interval,
                return_counts=True)
            counts.update(dict(zip(buckets.tolist(), n.tolist())))
        return _rows_resp(HISTOGRAM_SCHEMA, sorted(counts.items()),
                          _n_matching(parts))

    def range_agg(
        self,
        query_text: str,
        ranges,
        field: str = "doc_len",
        scope: str | None = None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
    ) -> dict:
        """Arbitrary-boundary bucket counts over the FULL matching set
        (the Elasticsearch ``range`` aggregation; on ``ts`` it is
        ``date_range`` with ISO/epoch-µs bounds). Each range is
        ``(from_, to)`` — from INCLUSIVE, to EXCLUSIVE, either side
        open with ``None`` (ES half-open semantics: a value on a shared
        boundary lands in exactly one of two adjacent buckets).
        Overlapping ranges are legal and count independently (ES
        allows them). ALL requested buckets are emitted IN REQUEST
        ORDER, zero or not (ES emits every range); ``ridx`` pins the
        order through the driver's column-sorted hash. Cost per part:
        one sort of its values + two ``searchsorted`` probes per range;
        per-part range counts sum. Composes with every filtering
        surface. -> {'result', 'count', 'data': pa.Table(ridx, key,
        range_from, range_to, n_docs), 'error'}"""
        if field not in ("doc_len", "ts"):
            return self._resp(error="bad_field", schema=RANGE_AGG_SCHEMA)
        if not isinstance(ranges, (list, tuple)) or not ranges \
                or len(ranges) > self.MAX_AGG_RANGES:
            return self._resp(error="bad_ranges", schema=RANGE_AGG_SCHEMA)
        bounds = parse_agg_ranges(ranges, field, self._ts_us)
        if bounds is None:
            return self._resp(error="bad_ranges", schema=RANGE_AGG_SCHEMA)
        _, parts, resp = self._matched(
            query_text, scope, conjunctive, exclude, ts_min, ts_max,
            schema=RANGE_AGG_SCHEMA)
        if resp:
            return resp
        counts = [0] * len(bounds)
        for eng, ids, _ in parts:
            v = np.sort(eng._field_values(ids, field))
            for i, (lo, hi) in enumerate(bounds):
                a = 0 if lo is None else int(np.searchsorted(v, lo, "left"))
                b = len(v) if hi is None else int(np.searchsorted(v, hi, "left"))
                counts[i] += max(0, b - a)
        rows = [
            (i, f"{'*' if lo is None else lo}-{'*' if hi is None else hi}",
             lo, hi, counts[i])
            for i, (lo, hi) in enumerate(bounds)
        ]
        return _rows_resp(RANGE_AGG_SCHEMA, rows, _n_matching(parts))

    def percentile_ranks(
        self,
        query_text: str,
        values,
        field: str = "doc_len",
        scope: str | None = None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
    ) -> dict:
        """Inverse percentiles over the FULL matching set (the
        Elasticsearch ``percentile_ranks`` aggregation): for each probe
        value, how many matching docs' ``field`` values are <= it —
        one vectorized ``searchsorted`` per part, and per-part tallies
        sum. The driver-hashed frame is INTEGER-ONLY (value, n_le,
        n_docs): the percent itself (``pct`` in the response rows) is
        100*n_le/n, whose 6-dp rounding CAN land an exact half-tie (e.g.
        100/512 = 0.1953125), where numpy (half-even) and DuckDB
        (half-away) legitimately disagree — so the float is a derived
        convenience, never a compared column. ``field`` is doc_len or ts
        (probe values in epoch-µs / ISO / datetime for ts). Composes
        with all the filtering surfaces.
        -> {'result', 'count', 'data': pa.Table(value, n_le, n_docs,
        pct), 'error'}"""
        if field not in ("doc_len", "ts"):
            return self._resp(error="bad_field", schema=PRANKS_SCHEMA)
        if not isinstance(values, (list, tuple)) or not values \
                or len(values) > self.MAX_RANK_VALUES:
            return self._resp(error="bad_values", schema=PRANKS_SCHEMA)
        try:
            vals = [
                int(self._ts_us(v)) if field == "ts" else int(v)
                for v in values
            ]
        except (TypeError, ValueError):
            return self._resp(error="bad_values", schema=PRANKS_SCHEMA)
        _, parts, resp = self._matched(
            query_text, scope, conjunctive, exclude, ts_min, ts_max,
            schema=PRANKS_SCHEMA)
        if resp:
            return resp
        probes = np.array(sorted(set(vals)), np.int64)
        n_le = sum(
            np.searchsorted(np.sort(eng._field_values(ids, field)), probes,
                            side="right").astype(np.int64)
            for eng, ids, _ in parts
        )
        n = _n_matching(parts)
        pct = np.round(100.0 * n_le / n, 6)
        rows = [(v, c, n, p) for v, c, p in
                zip(probes.tolist(), n_le.tolist(), pct.tolist())]
        return _rows_resp(PRANKS_SCHEMA, rows, n)

    def cardinality(
        self,
        query_text: str,
        fields=("conv",),
        scope: str | None = None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
    ) -> dict:
        """Distinct-value counts over the FULL matching set (the
        Elasticsearch ``cardinality`` aggregation, exact): per field,
        ``n_distinct`` = COUNT(DISTINCT value) among matching docs.
        Fields: ``conv`` (conversations), ``role``/``tool`` (dense
        scope-code decode — ``''`` is a value, matching SQL's
        COUNT(DISTINCT) over the stored empty string), ``day`` (UTC
        epoch-day of ts), ``doc_len``, ``ts``. Conversations are
        part-disjoint, so their per-part counts sum; every other field
        unions the parts' distinct values (decoded, never part-local
        codes). Exactness is cheap here because the values ride the
        same matching-set-sized frames ``metrics``/``facets`` use; ES
        defaults to HLL approximation — at corpus-sized standing
        aggregations the repo's HLL sibling is
        ``text_analysis.distinct_hll`` (same sketch, register-merge).
        Composes with every filtering surface. -> {'result', 'count',
        'data': pa.Table(field, n_distinct, n_docs), 'error'}"""
        if isinstance(fields, str):
            fields = tuple(v.strip() for v in fields.split(",") if v.strip())
        fields = tuple(fields)
        if not fields or not set(fields) <= set(self.CARDINALITY_FIELDS):
            return self._resp(error="bad_field", schema=CARDINALITY_SCHEMA)
        _, parts, resp = self._matched(
            query_text, scope, conjunctive, exclude, ts_min, ts_max,
            schema=CARDINALITY_SCHEMA)
        if resp:
            return resp
        n = _n_matching(parts)
        rows = sorted((f, self._n_distinct(parts, f), n) for f in set(fields))
        return _rows_resp(CARDINALITY_SCHEMA, rows, n)

    @staticmethod
    def _n_distinct(parts, field: str) -> int:
        """Distinct ``field`` values over the parts, by the merge laws
        ``cardinality`` names."""
        if field == "conv":
            return sum(len(np.unique(split_docids(ids)[0])) for _, ids, _ in parts)
        if field in ("role", "tool"):
            axis = int(field == "tool")
            values: set[str] = set()
            for eng, _, codes in parts:
                pairs = eng._code_pairs()
                values.update(pairs[c][axis] for c in np.unique(codes).tolist())
            return len(values)
        return len(np.unique(np.concatenate(
            [np.unique(eng._field_values(ids, field)) for eng, ids, _ in parts]
        )))

    def filters_agg(
        self,
        filters: dict[str, str],
        query_text: str | None = None,
        scope: str | None = None,
        conjunctive: bool = False,
    ) -> dict:
        """Named-filter bucket counts (the Elasticsearch ``filters``
        aggregation): each entry of ``filters`` is an independent query
        over this view; its bucket counts the docs matching it — ALL
        named buckets are emitted, zero or not (ES semantics), in key
        order. With ``query_text`` the buckets count within the BASE
        query's matching set (|filter ∩ base| — the agg-under-a-query
        shape ES runs it in); a doc lives in one part, so the
        intersection is per part and sums. ``scope``/``conjunctive``
        apply to every matching set. A filter whose text analyzes to
        nothing is ``bad_filter`` (ES rejects an empty filter body); a
        filter whose lemmas are absent from the corpus counts 0.
        Matching sets ride the memoized gaps-only decode — lemmas shared
        between filters (or with the base) decode once per view.
        -> {'result', 'count' (base matching docs; 0 with no base),
        'data': pa.Table(key, n_docs), 'error'}"""
        if not isinstance(filters, dict) or not filters:
            return self._resp(error="bad_filter", schema=FILTERS_AGG_SCHEMA)
        if len(filters) > self.MAX_AGG_FILTERS:
            return self._resp(error="too_many_filters", schema=FILTERS_AGG_SCHEMA)
        if not self.valid_scope(scope):
            return self._resp(error="bad_scope", schema=FILTERS_AGG_SCHEMA)
        base = None
        if query_text is not None:
            terms, err = self.plan(query_text)
            if err == "empty_query":
                return self._resp(error="empty_query", schema=FILTERS_AGG_SCHEMA)
            base = self._parts([] if err else terms, scope, conjunctive)
        rows = []
        for key in sorted(filters):
            terms, err = self.plan(str(filters[key]))
            if err == "empty_query":
                return self._resp(error="bad_filter", schema=FILTERS_AGG_SCHEMA)
            parts = self._parts([] if err else terms, scope, conjunctive)
            rows.append((key, _n_matching(parts) if base is None
                         else _n_common(parts, base)))
        return _rows_resp(FILTERS_AGG_SCHEMA, rows,
                          0 if base is None else _n_matching(base))

    def adjacency_matrix(
        self,
        filters: dict[str, str],
        scope: str | None = None,
        conjunctive: bool = False,
    ) -> dict:
        """Filter co-occurrence counts (the Elasticsearch
        ``adjacency_matrix`` aggregation): one bucket per named filter
        and one per pair ``a&b`` (a < b, the ES key separator) counting
        docs matching BOTH — the upper-triangular intersection matrix.
        Buckets with zero docs are omitted entirely (ES semantics —
        the response carries only occurring cells). Matching sets are
        ascending-unique docid arrays, so each intersection is one
        vectorized ``np.isin`` per part over already-decoded frames; a
        doc lives in one part, so cells sum over parts.
        -> {'result', 'count' (docs in the union), 'data':
        pa.Table(key, n_docs), 'error'}"""
        if not isinstance(filters, dict) or not filters:
            return self._resp(error="bad_filter", schema=FILTERS_AGG_SCHEMA)
        if len(filters) > self.MAX_AGG_FILTERS:
            return self._resp(error="too_many_filters", schema=FILTERS_AGG_SCHEMA)
        if any("&" in k for k in filters):
            return self._resp(error="bad_filter", schema=FILTERS_AGG_SCHEMA)
        if not self.valid_scope(scope):
            return self._resp(error="bad_scope", schema=FILTERS_AGG_SCHEMA)
        sets = {}
        for key in sorted(filters):
            terms, err = self.plan(str(filters[key]))
            if err == "empty_query":
                return self._resp(error="bad_filter", schema=FILTERS_AGG_SCHEMA)
            sets[key] = self._parts([] if err else terms, scope, conjunctive)
        keys = sorted(sets)
        rows = [(k, n) for k in keys if (n := _n_matching(sets[k]))]
        rows += [
            (f"{a}&{b}", n)
            for i, a in enumerate(keys) for b in keys[i + 1:]
            if (n := _n_common(sets[a], sets[b]))
        ]
        union = sum(
            len(np.unique(np.concatenate([ids for _, ids, _ in same])))
            for same in zip(*sets.values())  # one engine's part per filter
        )
        return _rows_resp(FILTERS_AGG_SCHEMA, sorted(rows), union)


class SearchEngine(Aggregations):
    """Loaded-once query-side state (the analog of the reference's
    singleton services + cached global scalar, ``SearchServiceImpl.java:25,147-153``
    — but computed at build time and persisted in the manifest)."""

    def __init__(self, out_dir: str, transcripts_paths: list[str] | None = None):
        self.out_dir = out_dir
        jp = os.path.join(out_dir, "compact.journal.json")
        if os.path.exists(jp) and (load_json(jp) or {}).get("state") == "SWAPPING":
            raise RuntimeError(
                f"index at {out_dir} has a half-swapped compaction; run "
                "pipelines.compact.compact(out_dir, resume=True) first"
            )
        m = load_json(layout.build_manifest_path(out_dir))
        if not m:
            raise FileNotFoundError(f"no build manifest under {out_dir}")
        self.manifest = m
        # query analysis uses the SAME analyzer module the index was
        # built with (protocols.Analyzer; rank-identity requires it)
        amod = m["config"].get("analyzer_module")
        if amod:
            import importlib

            self._analyzer = importlib.import_module(amod)
        else:
            self._analyzer = analyzer
        # token-level rules for the expansion surfaces (suggest / prefix /
        # wildcard / fuzzy / analyze) and highlighting come from the BOUND
        # analyzer (a custom module folds, filters and lemmatizes its own
        # way); a module that lacks any of them is refused, never
        # silently completed with the default module's
        mod = self._analyzer
        missing = [a for a in ("normalize_text", "lemmatize_token", "_STOPSET",
                               "MIN_TOKEN_LEN") if not hasattr(mod, a)]
        if missing:
            raise TypeError(f"analyzer module {mod.__name__} lacks "
                            f"{', '.join(missing)} (protocols.Analyzer)")
        self._norm_text = mod.normalize_text
        self._lemmatize_token = mod.lemmatize_token
        self._stopset = mod._STOPSET
        self._min_token_len = int(mod.MIN_TOKEN_LEN)
        self.k1: float = m["config"]["k1"]
        self.b: float = m["config"]["b"]
        self.n_docs: int = m["stats"]["n_docs"]
        self.avgdl: float = m["stats"]["avgdl"] or 1.0
        self.transcripts_paths = transcripts_paths or m["config"]["input_paths"]
        # compaction-recorded per-conv text sources (re-indexed convs read
        # snippet text from their generation's inputs even after the
        # generation itself is folded into the base); live delta
        # generations update on top of this in _load_deltas
        self._delta_text_paths: dict[str, list[str]] = dict(
            m.get("text_overrides") or {}
        )
        # text source file -> its docid locator (_text_locator)
        self._text_locs: dict[str, tuple] = {}
        # open parquet files of every store and text source (_parquet),
        # the row-group directory of each key-sorted store (_groups) and
        # the sorted conversation list (_conv_list), each loaded on first
        # use
        self._pfs: dict[str, pq.ParquetFile] = {}
        self._dirs: dict[str, tuple] = {}
        self._convs: pa.Array | None = None
        # every payload read or decoded per query — decoded index and
        # poss row groups, block entries, decoded chunks and positions,
        # aux and on-demand pair lists, decoded lemma-dictionary,
        # doc-store and text row groups — lives here, byte-bounded
        self._cache = PayloadCache(self.CACHE_MAX_BYTES)
        index_files = _store_files(out_dir, "index")
        self._poss_in_schema = bool(index_files) and (
            "poss" in self._parquet(index_files[0]).schema_arrow.names)
        # scope filtering is per-posting: every block carries a scope-code
        # stream (doc-level (role, tool) -> dense code, a pure function of
        # the manifest's roles/tools lists) — no driver-side scope docid
        # list at ANY corpus size. _scope_luts caches scope -> bool LUT.
        self._scope_luts: dict[str, np.ndarray] = {}
        self._extra_pairs: dict[tuple[str, str], int] = {}  # delta-only (role, tool)
        self._ref_max_relevance: float | None = None
        # hot-bigram aux phrase index (pipelines/phrase_aux.py):
        # (lemma_a, lemma_b) -> pair_id for the precomputed adjacency
        # lists; empty when absent or stale (build.json md5 mismatch)
        self._aux_pairs: dict[tuple[str, str], int] = {}
        try:
            _am = layout.load_aux(out_dir)
            if _am:
                self._aux_pairs = {
                    (p["a"], p["b"]): int(p["pair_id"]) for p in _am["pairs"]
                }
        except (OSError, KeyError, ValueError):
            self._aux_pairs = {}
        self._load_deltas()

    # the byte budget of the engine cache (read at construction). A row
    # group whose decoded columns exceed a quarter of it is read uncached
    # on every touch (_row_group), so one huge row group (pyarrow's
    # default is 1 Mi rows) cannot flush the postings; the decoded index
    # row groups together keep to a quarter too (PayloadCache).
    CACHE_MAX_BYTES = 256 << 20
    # an unindexed hot-hot bigram's full adjacency list is built and
    # cached once the pair's combined postings reach this size (below it
    # the exact path is already fast). Tests shrink it to exercise the
    # path at toy scale.
    PAIR_CACHE_MIN_COST = 200_000

    def _build_pair_cache(
        self, a: str, b: str, blocks: dict, data: dict
    ) -> tuple:
        """Full adjacency list of (a, b) from the (possibly overlaid)
        decoded postings — identical payload shape to an aux pair —
        cached as an on-demand pair and returned. Per engine: a new
        engine (new manifest or deltas) starts cold, so nothing needs
        invalidating."""
        docid_a, tf_a, _dl_a, _sc_a = data[a]
        docid_b, tf_b, _dl_b, _sc_b = data[b]
        pos_a = self._term_positions_full(blocks[a], tf_a)
        pos_b = self._term_positions_full(blocks[b], tf_b)
        payload = _pair_adjacency(docid_a, tf_a, pos_a, docid_b, tf_b, pos_b)
        return self._cache.put(("pair", (a, b)), payload)

    def _aux_pair(self, pr: tuple[str, str]):
        """One aux pair's (docids, cnts, starts), composed with the delta
        overlay when generations are live."""
        def read():
            pid = self._aux_pairs[pr]
            got = layout.read_pair(self.out_dir, pid, self._groups_meeting("aux", pid, pid))
            return self._aux_overlay(pr, got) if self._has_deltas else got

        return self._cache.get(("aux", pr), read)

    def _aux_overlay(self, pr: tuple[str, str], payload: tuple) -> tuple:
        """Compose one BASE aux pair list with live delta generations —
        the merge-on-read the posting overlay (``_overlay_delta``) does
        for single terms, applied to a precomputed bigram adjacency:

        1. DROP entries of tombstoned docids. Relying on the candidate
           intersection is NOT enough: a re-indexed conv re-populates
           the SAME docid range with new content, so a stale aux entry
           could collide with a live delta docid and assert adjacency
           the new text no longer has.
        2. APPEND the pair's adjacency computed exactly from the delta
           overlay's pre-decoded positions (``_delta_lemma``) — a doc is
           wholly base- or delta-resident, so adjacency never straddles
           the two, and the delta side is reindexed-conv-sized work.

        Only reached when ``_delta_positions_ok`` (the phrase path's own
        precondition), so both delta lemmas carry positions."""
        d_e, cnts, starts = payload
        if len(d_e):
            keep = self._tomb_keep_mask(d_e)
            if not keep.all():
                starts = _take_pos_groups(starts, cnts, np.flatnonzero(keep))
                d_e, cnts = d_e[keep], cnts[keep]
        da = self._delta_lemma.get(pr[0])
        db = self._delta_lemma.get(pr[1])
        if da is None or db is None or da[4] is None or db[4] is None:
            return d_e, cnts, starts
        d2, c2, s2 = _pair_adjacency(
            da[0], da[1], da[4], db[0], db[1], db[4]
        )
        if not len(d2):
            return d_e, cnts, starts
        # no docid collides between the two parts: delta docs live only
        # inside tombstoned ranges, whose base entries were dropped above
        return (
            np.concatenate([d_e, d2]),
            np.concatenate([cnts, c2]),
            np.concatenate([starts, s2]),
        )

    # ---------------- incremental delta overlay (S4 / SURVEY §3.3) ----

    def _load_deltas(self) -> None:
        """Overlay state for incremental re-index generations (LSM-style
        merge-on-read; see pipelines/delta.py). With no deltas this is a
        no-op and every query path is untouched. With deltas, N / avgdl /
        per-term df are adjusted EXACTLY, stale base postings are masked
        by tombstoned docid ranges, and affected lemmas merge base+delta
        postings at block load — so search over base+delta is
        rank-identical to a full rebuild of the modified corpus."""
        gens = layout.list_generations(self.out_dir)
        self._has_deltas = bool(gens)
        # the factor that keeps stored block-max bounds bounds once the
        # scoring avgdl exceeds the one they were built with (set at the
        # end of this method, and by FederatedEngine)
        self._bmw_scale = 1.0
        if not gens:
            return
        latest: dict[str, dict] = {}
        for g in gens:  # ascending: later generations win per conv
            for cid, rng in zip(g["conv_ids"], g["tombstones"]):
                latest[cid] = {
                    "range": tuple(rng),
                    "dir": g["_dir"],
                    "input_paths": g.get("input_paths"),
                }
        self._delta_text_paths.update(
            {cid: info["input_paths"] for cid, info in latest.items() if info["input_paths"]}
        )
        ranges = sorted(info["range"] for info in latest.values())
        self._tomb_starts = np.array([r[0] for r in ranges], np.int64)
        self._tomb_ends = np.array([r[1] for r in ranges], np.int64)
        # per-conv old counts vs the immutable base doc store: only the
        # row groups a tombstoned docid range meets are read, each
        # decoded once, through the engine cache as ``_doc_rows`` reads
        # them — a full docid/doc_len column pull is corpus-sized at
        # 100 TB
        n_eff, len_eff = self.n_docs, int(self.manifest["stats"]["total_len"])
        for lo, hi, (p, g) in zip(*self._groups("docs")):
            if self._tombed(lo, hi):
                grp = self._row_group("docs", p, g, _DOC_COLUMNS, _decode_doc_group)
                gone = _in_ranges(grp["docid"], self._tomb_starts, self._tomb_ends)
                n_eff -= int(gone.sum())
                len_eff -= int(grp["doc_len"][gone].sum())
        by_gen: dict[str, list[tuple[int, int]]] = {}
        for info in latest.values():
            by_gen.setdefault(info["dir"], []).append(info["range"])
        d_docid, d_tf, d_dl, d_lemma, d_pos = [], [], [], [], []
        # positions survive the overlay only if EVERY generation carries
        # them (a pre-positions generation would leave holes)
        self._delta_positions_ok = bool(self.manifest["stats"].get("positions"))
        dd_docid, dd_role, dd_dl, dd_tool, dd_ts = [], [], [], [], []

        def live_rows(t: pa.Table, starts, ends) -> pa.Table:
            keep = _in_ranges(to_numpy(t.column("docid")), starts, ends)
            return t.take(to_arrow(np.flatnonzero(keep), pa.int64()))

        # each live generation's two files are read once; its rows of
        # the conversations it still serves are one range mask
        for gdir, rngs in by_gen.items():
            rngs.sort()
            starts = np.array([r[0] for r in rngs], np.int64)
            ends = np.array([r[1] for r in rngs], np.int64)
            docs = live_rows(read_table(os.path.join(gdir, "docs.parquet")), starts, ends)
            n_eff += docs.num_rows
            dd_docid.append(to_numpy(docs.column("docid")))
            dd_role.extend(docs.column("role").to_pylist())
            dd_dl.append(to_numpy(docs.column("doc_len")))
            len_eff += int(dd_dl[-1].sum())
            dd_tool.extend(docs.column("tool").to_pylist())
            dd_ts.append(to_numpy(docs.column("ts")))
            posts = live_rows(read_table(os.path.join(gdir, "postings.parquet")), starts, ends)
            d_lemma.extend(posts.column("lemma").to_pylist())
            d_docid.append(to_numpy(posts.column("docid")))
            d_tf.append(to_numpy(posts.column("tf")))
            d_dl.append(to_numpy(posts.column("doc_len")))
            if "pos" in posts.column_names and posts.column("pos").null_count == 0:
                d_pos.extend(posts.column("pos").to_pylist())
            else:  # pre-positions or positionless-analyzer generation
                self._delta_positions_ok = False
        # delta postings grouped per lemma, docid-ascending
        self._delta_lemma: dict[str, tuple] = {}
        if d_lemma:
            lem_arr = np.asarray(d_lemma, dtype=object)
            docid = np.concatenate(d_docid).astype(np.int64)
            tf = np.concatenate(d_tf).astype(np.int64)
            dl = np.concatenate(d_dl).astype(np.int64)
            order = np.lexsort((docid, lem_arr))
            lem_arr, docid, tf, dl = lem_arr[order], docid[order], tf[order], dl[order]
            with_pos = self._delta_positions_ok and len(d_pos) == len(lem_arr)
            pos_blobs = (
                np.asarray(d_pos, dtype=object)[order] if with_pos else None
            )
            bounds = np.flatnonzero(
                np.concatenate(([True], lem_arr[1:] != lem_arr[:-1]))
            )
            for i, s in enumerate(bounds):
                e = bounds[i + 1] if i + 1 < len(bounds) else len(lem_arr)
                pos_flat = (
                    _decode_pos_blobs(pos_blobs[s:e], tf[s:e]) if with_pos else None
                )
                self._delta_lemma[lem_arr[s]] = (docid[s:e], tf[s:e], dl[s:e], pos_flat)
        # the delta doc rows, docid-ascending, keyed like the doc store's
        # columns (_doc_rows gathers from both the same way). Delta docs
        # may carry (role, tool) pairs unseen at base-build time — those
        # get codes appended after the base code space (_pair_code, in
        # generation order), so base block codes never renumber. Delta
        # postings inherit their doc's code by binary search (delta
        # volume is reindexed-conv-sized).
        codes = np.fromiter(
            (self._pair_code(r, t) for r, t in zip(dd_role, dd_tool)),
            np.int64, count=len(dd_role),
        )

        def cat(parts: list) -> np.ndarray:
            return np.concatenate(parts).astype(np.int64) if parts else np.empty(0, np.int64)

        docid = cat(dd_docid)
        order = np.argsort(docid, kind="stable")
        dd = self._delta_docs = {
            "docid": docid[order],
            "doc_len": cat(dd_dl)[order],
            "ts": cat(dd_ts)[order],
            "role": np.array([r or "" for r in dd_role], object)[order],
            "tool": np.array([t or "" for t in dd_tool], object)[order],
        }
        codes = codes[order]
        for lem, (di, tfv, dlv, posf) in list(self._delta_lemma.items()):
            sc = codes[np.searchsorted(dd["docid"], di)]
            self._delta_lemma[lem] = (di, tfv, dlv, sc, posf)
        # exact corpus-stat adjustments + a safe block-max inflation for
        # unaffected lemmas. Their stored bmw used the base avgdl; the
        # weight tf/(tf + k1*(1-b+b*dl/avgdl)) INCREASES when avgdl grows
        # (the dl term shrinks), and (A+x)/(A+y) <= x/y for A >= 0 bounds
        # the growth: w_eff <= w_base * avgdl_eff/avgdl_base. Scaling by
        # that ratio keeps pruning lossless; if avgdl shrank, stored
        # bounds already over-estimate and no inflation is needed.
        avgdl_base = self.avgdl
        self.n_docs = n_eff
        self.avgdl = (len_eff / n_eff) if n_eff else 1.0
        self._bmw_scale = max(1.0, self.avgdl / avgdl_base) if avgdl_base else 1.0

    def _tomb_keep_mask(self, docid: np.ndarray) -> np.ndarray:
        return ~_in_ranges(docid, self._tomb_starts, self._tomb_ends)

    def _tombed(self, lo: int, hi: int) -> bool:
        """Whether a tombstoned docid range meets ``[lo, hi]``."""
        i = np.searchsorted(self._tomb_ends, lo, side="right")
        return i < len(self._tomb_starts) and int(self._tomb_starts[i]) <= hi

    def _overlay_delta(self, lem: str, bl: dict) -> dict:
        """Merge-on-read for one lemma's freshly read block entry ``bl``
        (its poss stream read here when positions are kept): mask
        tombstoned base postings, splice in delta postings, rebuild
        synthetic block metadata with the effective avgdl. Untouched
        lemmas only get the bmw scale. -> the entry to publish (built
        before it is cached, so a concurrent query never sees the
        base-only postings; an evicted entry is rebuilt here on its next
        read)."""
        delta = self._delta_lemma.get(lem)
        affected = delta is not None
        if not affected and len(bl["first"]):
            affected = self._tombed(int(bl["first"][0]), int(bl["last"][-1]))
        if not affected:
            if self._bmw_scale > 1.0:
                bl["bmw"] = bl["bmw"] * self._bmw_scale
            return bl
        nb = len(bl["n"])
        docid, tf, dl, sc = decode_block_range(
            bl["gaps"], bl["tfs"], bl["dls"], bl["cum_n"], 0, nb, scps_buf=bl["scps"]
        )
        want_pos = bool(
            self.manifest["stats"].get("positions")
        ) and self._delta_positions_ok and self._poss_in_schema
        pos_flat = (
            decode_poss_range(self._poss_rows(bl["where"]), bl["cum_cf"], 0, nb, tf)
            if want_pos and len(docid) else None
        )
        if len(docid):
            keep = self._tomb_keep_mask(docid)
            if pos_flat is not None:
                pos_flat = _take_pos_groups(pos_flat, tf, np.flatnonzero(keep))
            docid, tf, dl, sc = docid[keep], tf[keep], dl[keep], sc[keep]
        if delta is not None:
            dpos = delta[4]
            cat_tf = np.concatenate([tf, delta[1]])
            if want_pos and dpos is not None:
                cat_pos = np.concatenate([pos_flat if pos_flat is not None else np.empty(0, np.int64), dpos])
            else:
                cat_pos = None
            docid = np.concatenate([docid, delta[0]])
            dl = np.concatenate([dl, delta[2]])
            sc = np.concatenate([sc, delta[3]])
            order = np.argsort(docid, kind="stable")
            if cat_pos is not None:
                pos_flat = _take_pos_groups(cat_pos, cat_tf, order)
            else:
                pos_flat = None
            docid, dl, sc = docid[order], dl[order], sc[order]
            tf = cat_tf[order]
        return self._synth_blocks(docid, tf, dl, sc, pos_flat)

    def _synth_blocks(
        self,
        docid: np.ndarray,
        tf: np.ndarray,
        dl: np.ndarray,
        sc: np.ndarray,
        pos_flat: np.ndarray | None = None,
    ) -> dict:
        """Block dict equivalent to a freshly-encoded term: synthetic
        skip metadata over the merged flat arrays it keeps (``flat`` =
        (docid, tf, dl, scope code); ``pos_flat`` = positions, tf values
        per posting) — ``_decoded`` slices them, no varint payloads."""
        bs = int(self.manifest["config"]["block_size"])
        n = len(docid)
        nblk = (n + bs - 1) // bs
        starts = np.arange(nblk, dtype=np.int64) * bs
        ends = np.minimum(starts + bs, n)
        w = tf.astype(np.float64) / (
            tf + self.k1 * (1.0 - self.b + self.b * dl.astype(np.float64) / self.avgdl)
        )
        bmw = np.maximum.reduceat(w, starts) if nblk else np.empty(0, np.float64)
        return {
            "first": docid[starts] if n else np.empty(0, np.int64),
            "last": docid[ends - 1] if n else np.empty(0, np.int64),
            "n": (ends - starts).astype(np.int32),
            "cum_n": np.concatenate(([0], ends)).astype(np.int64),
            "bmw": bmw,
            "flat": (docid, tf, dl, sc),
            "pos_flat": pos_flat,
        }

    # ---------------- planning (J2/T1) --------------------------------

    def _df_of(self, lem: str) -> int | None:
        """df of one lemma (None = absent), from the one dictionary row
        group whose lemma bounds can hold it."""
        return next((d[lem] for d in self._vocab(lem, lem) if lem in d), None)

    def idf(self, df: int) -> float:
        return math.log1p((self.n_docs - df + 0.5) / (df + 0.5))

    def _held_terms(self, lemmas) -> list[tuple[str, int]]:
        """(lemma, dictionary df) for each of ``lemmas`` this index holds,
        in input order. A lemma only a delta generation holds gets df 0
        until ``_live_terms`` counts its postings."""
        held = []
        for lem in lemmas:
            df = self._df_of(lem)
            if df is None and self._has_deltas and lem in self._delta_lemma:
                df = 0
            if df is not None:
                held.append((lem, df))
        return held

    def _live_terms(self, terms) -> list[tuple[str, int]]:
        """Overlay-exact (lemma, df) terms in plan order (df ASC, lemma
        ASC). With live delta generations the dictionary df is stale for
        the lemmas a generation touched, so each df becomes the lemma's
        merged posting count and lemmas left with no posting drop out."""
        if self._has_deltas and terms:
            blocks = self._term_blocks([lem for lem, _ in terms])
            terms = [(lem, int(blocks[lem]["cum_n"][-1])) for lem, _ in terms]
            terms = [t for t in terms if t[1]]
        return sorted(terms, key=lambda t: (t[1], t[0]))

    def plan(self, query_text: str) -> tuple[list[tuple[str, int]], str | None]:
        """-> (terms df-ascending then lemma lexical, error_flag)."""
        lemmas = self._analyzer.analyze_query(query_text)
        if not lemmas:
            return [], "empty_query"
        # reference: any missing lemma -> no results
        held = self._held_terms(lemmas)
        if len(held) < len(lemmas):
            return [], "no_results"
        terms = self._live_terms(held)
        if len(terms) < len(held):
            return [], "no_results"
        return terms, None

    # ---------------- posting access (J3, partition-pruned) -----------

    def _index_group(self, path: str, g: int) -> dict:
        """Index row group ``g`` of ``path``, decoded once and cached as
        ``("index", path, g)`` (``_decode_index_group``)."""
        return self._row_group("index", path, g, _INDEX_COLUMNS, _decode_index_group)

    def _poss_group(self, path: str, g: int) -> tuple:
        """The ``poss`` stream of index row group ``g`` of ``path`` as
        (data, offsets), cached as ``("poss", path, g)``: read only when
        positions are."""
        return self._row_group("poss", path, g, ("poss",),
                               lambda t: binary_column_buffers(t.column(0)))

    def _read_index(self, lemmas: list[str]) -> dict:
        """lemma -> its index rows, first_docid-ascending: the
        ``_BLOCK_COLUMNS`` as arrays of its own, copied out of the index
        row groups whose ``lemma_h`` bounds hold the lemma's hash (no
        rows = empty arrays), and ``where``, the ``(path, row group,
        rows)`` they came from (``_poss_rows``). Each group is decoded
        at most once per call, whether or not the engine cache keeps it
        (``_row_group``). In each group a searchsorted on ``lemma_h``
        finds the hash's rows, of which only exact lemma matches are
        kept (hashes may collide); a lemma that crosses a group bound
        joins its slices. Copies, so evicting a group frees it whatever
        entries were cut from it."""
        held = {}  # (path, group) -> decoded group, for this call
        out = {}
        for lem in lemmas:
            h = analyzer.lemma_hash64(lem)
            pieces = []  # (path, group, decoded group, rows)
            for p, g in self._groups_meeting("index", h, h):
                grp = held.get((p, g))
                if grp is None:
                    grp = held[p, g] = self._index_group(p, g)
                hs = grp["lemma_h"]
                a, b = int(np.searchsorted(hs, h, "left")), int(np.searchsorted(hs, h, "right"))
                codes = grp["lemma"][a:b]
                code = next((c for c in np.unique(codes).tolist()
                             if grp["names"][c].as_py() == lem), None)
                if code is not None:
                    rows = (slice(a, b) if (codes == code).all()
                            else a + np.flatnonzero(codes == code))
                    pieces.append((p, g, grp, rows))
            # groups hold disjoint first_docid runs of the lemma
            pieces.sort(key=lambda x: int(x[2]["first_docid"][x[3]][0]))
            rows = {c: _join_rows(c, [grp[c][r].copy() if c not in _INDEX_BINARY
                                      else _binary_rows(grp[c], r) for _, _, grp, r in pieces])
                    for c in _BLOCK_COLUMNS}
            rows["where"] = [(p, g, r) for p, g, _, r in pieces]
            out[lem] = rows
        return out

    def _poss_rows(self, where: list) -> tuple:
        """The ``poss`` stream of a lemma's index rows ``where`` (from
        ``_read_index``) as one (data, offsets), copied out of the cached
        ``poss`` row groups."""
        return _join_rows("poss", [_binary_rows(self._poss_group(p, g), r) for p, g, r in where])

    def _block_entry(self, lem: str, rows: dict) -> dict:
        """The published block entry of one lemma from its index rows
        (``_read_index``): skip metadata and raw varint buffers, the
        delta overlay applied."""
        n = rows["n"]
        entry = {
            "lemma": lem,
            "first": rows["first_docid"],
            "last": rows["last_docid"],
            "n": n,
            "cum_n": np.concatenate(([0], np.cumsum(n, dtype=np.int64))),
            # cumulative per-block POSITION counts (= Σtf): the
            # slicing key of the poss stream (phrase queries)
            "cum_cf": np.concatenate(([0], np.cumsum(rows["block_cf"], dtype=np.int64))),
            "bmw": rows["bmw"].astype(np.float64),
            "gaps": rows["gaps"],
            "tfs": rows["tfs"],
            "dls": rows["dls"],
            "scps": rows["scps"],
            "where": rows["where"],
        }
        if not self._has_deltas:
            if self._bmw_scale > 1.0:
                entry["bmw"] = entry["bmw"] * self._bmw_scale
            return entry
        return self._overlay_delta(lem, entry)

    def _term_blocks(self, lemmas: list[str]) -> dict[str, dict]:
        """lemma -> its block entry, through the engine cache; a missing
        entry is cut from its index row groups (``_read_index``). An
        entry the delta overlay rewrites folds its positions in at block
        load (``_overlay_delta``); otherwise positions are read apart, by
        ``_term_positions_full``, for phrase and near queries only."""
        out = {lem: self._cache.peek(("blocks", lem)) for lem in lemmas}
        missing = [lem for lem, got in out.items() if got is None]
        if missing:
            for lem, rows in self._read_index(missing).items():
                out[lem] = self._cache.put(("blocks", lem), self._block_entry(lem, rows))
        return out

    _DECODE_CHUNK = 128  # blocks per cached decode unit

    def _decoded(self, bl: dict, lo: int = 0, hi: int | None = None,
                 streams: tuple[str, ...] = STREAMS) -> tuple:
        """The ``streams`` (names from ``STREAMS``, in the order asked) of
        blocks ``lo``..``hi`` (exclusive; default the whole term) of one
        block entry — every posting read goes through here. A raw entry
        decodes in chunk units of ``_DECODE_CHUNK`` blocks, each ONE
        vectorized varint pass per stream over a contiguous buffer slice,
        cached per (lemma, chunk); a whole multi-chunk term is also kept
        concatenated, since hot terms are re-read whole by every warm
        query. A cached all-stream decode serves a docid-only or
        docid+scope request. A delta-overlaid entry keeps its merged
        arrays, so its ranges are slices."""
        nb = len(bl["n"])
        hi = nb if hi is None else min(hi, nb)
        if hi <= lo:
            return tuple(np.empty(0, np.int64) for _ in streams)
        cum = bl["cum_n"]
        flat = bl.get("flat")
        if flat is not None:
            ps, pe = int(cum[lo]), int(cum[hi])
            return tuple(flat[STREAMS.index(x)][ps:pe] for x in streams)
        ch = self._DECODE_CHUNK
        chunks = range(lo // ch, (hi - 1) // ch + 1)
        lem = bl["lemma"]
        if lo == 0 and hi == nb and len(chunks) > 1:
            return self._streams(("term", lem), streams, lambda st: tuple(
                np.concatenate(c) for c in zip(*(self._chunk(bl, ci, st) for ci in chunks))
            ))
        parts = []
        for ci in chunks:
            a = ci * ch
            got = self._chunk(bl, ci, streams)
            ps, pe = int(cum[max(lo, a)] - cum[a]), int(cum[min(hi, a + ch)] - cum[a])
            parts.append(tuple(x[ps:pe] for x in got))
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(c) for c in zip(*parts))

    def _chunk(self, bl: dict, ci: int, streams: tuple[str, ...]) -> tuple:
        """The ``streams`` of decode chunk ``ci`` of a raw block entry."""
        def decode(st):
            ch, cum = self._DECODE_CHUNK, bl["cum_n"]
            a, b = ci * ch, min((ci + 1) * ch, len(bl["n"]))
            if "tf" in st or "dl" in st:
                got = decode_block_range(
                    bl["gaps"], bl["tfs"], bl["dls"], cum, a, b, scps_buf=bl["scps"]
                )
            else:  # counting: the tf/dl varint passes are skipped
                got = (decode_gaps_range(bl["gaps"], cum, a, b), None, None,
                       decode_scps_range(bl["scps"], cum, a, b) if "scope" in st else None)
            return tuple(got[STREAMS.index(x)] for x in st)

        return self._streams(("chunk", bl["lemma"], ci), streams, decode)

    def _streams(self, key: tuple, streams: tuple[str, ...], compute) -> tuple:
        """``streams`` of the decode cached under ``key`` + streams: from
        a cached all-stream decode when there is one, else from the cache
        or ``compute(streams)``."""
        if streams != STREAMS:
            full = self._cache.peek(key + (STREAMS,))
            if full is not None:
                return tuple(full[STREAMS.index(x)] for x in streams)
        return self._cache.get(key + (streams,), lambda: compute(streams))

    def _scoped_docids(self, bl: dict, lut: np.ndarray | None) -> np.ndarray:
        """A term's full docid list, masked to the scope LUT ``lut`` (or
        None) — the counting read: tf/dl are never decoded."""
        if lut is None:
            return self._decoded(bl, streams=DOCIDS)[0]
        docid, sc = self._decoded(bl, streams=DOCIDS_SCOPES)
        return docid[lut[sc]]

    # ---------------- scope (site-analog) filter ----------------------

    @staticmethod
    def _parse_scope(scope: str) -> tuple[str, str]:
        """'user' -> ('role', 'user'); 'tool:tool-search' -> ('tool',
        'tool-search'). The reference's ``site`` filter maps to role,
        optionally tool (SURVEY §1.2; ``SearchServiceImpl.java:41-44``)."""
        if scope.startswith("tool:"):
            return "tool", scope[len("tool:"):]
        return "role", scope

    def _pair_code(self, role: str | None, tool: str | None) -> int:
        """Dense scope code of a (role, tool) pair: the base formula over
        the manifest's roles/tools lists, or an appended code for pairs
        first seen in a delta generation (base block codes never
        renumber)."""
        roles = self.manifest["stats"].get("roles", [])
        tools = self.manifest["stats"].get("tools", [])
        r, t = role or "", tool or ""
        ri = 0 if r == "" else (roles.index(r) + 1 if r in roles else None)
        ti = 0 if t == "" else (tools.index(t) + 1 if t in tools else None)
        if ri is not None and ti is not None:
            return ri * (len(tools) + 1) + ti
        pair = (r, t)
        c = self._extra_pairs.get(pair)
        if c is None:
            c = scope_code_space(roles, tools) + len(self._extra_pairs)
            self._extra_pairs[pair] = c
        return c

    def _scope_lut(self, scope: str) -> np.ndarray:
        """Scope value -> bool lookup table over the dense scope-code
        space; per-posting filtering is ``lut[scope_codes]``. O(#role x
        #tool values) — independent of corpus size (the 10^12-doc answer
        to the reference's site filter: no scope docid list ever
        materializes)."""
        lut = self._scope_luts.get(scope)
        if lut is None:
            col, value = self._parse_scope(scope)
            roles = self.manifest["stats"].get("roles", [])
            tools = self.manifest["stats"].get("tools", [])
            nt = len(tools) + 1
            base = scope_code_space(roles, tools)
            lut = np.zeros(base + len(self._extra_pairs), bool)
            if col == "role":
                if value in roles:
                    rc = roles.index(value) + 1
                    lut[rc * nt : (rc + 1) * nt] = True
            else:
                if value in tools:
                    tc = tools.index(value) + 1
                    lut[tc:base:nt] = True
            for (r, t), c in self._extra_pairs.items():
                lut[c] = (r == value) if col == "role" else (t == value)
            self._scope_luts[scope] = lut
        return lut

    def valid_scope(self, scope: str | None) -> bool:
        """Scope validity is derived from the BUILT index (manifest
        scope-value lists + any delta additions), never hardcoded — a
        corpus with arbitrary role values stays scopable."""
        if scope is None:
            return True
        col, value = self._parse_scope(scope)
        known = set(self.manifest["stats"].get(col + "s", ()))
        if self._has_deltas:
            known.update(v for v in self._delta_docs[col] if v)
        return value in known

    # ---------------- BM25 scorers ------------------------------------

    def _bm25(self, idf, tf, dl):
        """The BM25 term weight ``idf*(tf*(k1+1))/(tf+k1*(1-b+b*dl/avgdl))``
        at ``tf`` and ``dl`` (arrays or scalars, taken as float64). Every
        scorer and ``explain`` compute it here, in this one operation
        order, so their float64 scores agree bit for bit."""
        k1, b = self.k1, self.b
        tf, dl = np.asarray(tf, np.float64), np.asarray(dl, np.float64)
        return idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / self.avgdl))

    def _contributions(self, term_data, lut):
        """Per term (fixed df-asc order): (docid, float64 contribution).
        ``lut`` is the scope bool LUT (or None): per-posting filtering on
        the decoded scope-code stream."""
        for idf, (docid, tf, dl, sc) in term_data:
            if lut is not None:
                keep = lut[sc]
                docid, tf, dl = docid[keep], tf[keep], dl[keep]
            yield docid, self._bm25(idf, tf, dl)

    @staticmethod
    def _aggregate(doc_parts, contrib_parts, conjunctive: bool, n_terms: int,
                   min_match: int | None = None):
        """Sum contributions per docid in fixed term order. Stable
        (radix) argsort keeps each doc's contributions in concatenation
        order == term order, and ``np.add.reduceat`` sums them left to
        right — the same deterministic float64 summation order as a
        bincount, at radix-sort speed on int64 keys."""
        if not doc_parts:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        ids = np.concatenate(doc_parts)
        if not len(ids):
            return np.empty(0, np.int64), np.empty(0, np.float64)
        contribs = np.concatenate(contrib_parts)
        order = np.argsort(ids, kind="stable")
        sids = ids[order]
        sc = contribs[order]
        # group boundaries via bool not_equal (no int64 diff allocation —
        # measured ~3x cheaper on multi-million-row hot unions)
        neq = np.empty(len(sids), bool)
        neq[0] = True
        np.not_equal(sids[1:], sids[:-1], out=neq[1:])
        starts = np.flatnonzero(neq)
        uniq = sids[starts]
        scores = np.add.reduceat(sc, starts)
        if conjunctive or min_match:
            cnt = np.diff(np.append(starts, len(sids)))
            need = n_terms if conjunctive else int(min_match)
            keep = cnt >= need
            return uniq[keep], scores[keep]
        return uniq, scores

    @staticmethod
    def _topk(ids: np.ndarray, scores: np.ndarray, k: int):
        """Top-k by (score DESC, docid ASC) without sorting the full
        array: an O(n) partition finds the k-th largest score, every doc
        at-or-above it survives (ties included, so the docid tie-break
        stays exact), and only the survivors are lexsorted. On all-hot
        queries the result set is ~n_docs and a full lexsort dominated
        the warm query (~0.5 s at sf1); this is ~10x cheaper."""
        n = len(ids)
        if n <= k or k == 0:
            sel = np.lexsort((ids, -scores))[:k]
            return ids[sel], scores[sel]
        kth = np.partition(scores, n - k)[n - k]
        cand = np.flatnonzero(scores >= kth)
        sel = cand[np.lexsort((ids[cand], -scores[cand]))[:k]]
        return ids[sel], scores[sel]

    @staticmethod
    def _collapse_per_conv(ids: np.ndarray, scores: np.ndarray, m: int):
        """Field collapsing: keep each conversation's top-``m`` turns by
        (score DESC, turn_idx ASC). ``ids`` arrive docid-sorted (the
        exhaustive scorer's output), so conversations are contiguous
        runs — one lexsort re-orders within runs by score, a boundary
        scan numbers each turn's within-conversation rank, survivors
        restore docid order for the downstream top-k tie-break."""
        if not len(ids):
            return ids, scores
        cr = ids >> np.int64(TURN_BITS)
        o = np.lexsort((ids, -scores, cr))
        crs = cr[o]
        neq = np.empty(len(crs), bool)
        neq[0] = True
        np.not_equal(crs[1:], crs[:-1], out=neq[1:])
        starts = np.flatnonzero(neq)
        occ = np.arange(len(o)) - np.repeat(
            starts, np.diff(np.append(starts, len(o)))
        )
        keep = np.sort(o[occ < m])
        return ids[keep], scores[keep]

    @staticmethod
    def _union_count(parts: list[np.ndarray]) -> int:
        """|union| of docid arrays via radix sort (no quicksort unique)."""
        if not parts:
            return 0
        allv = np.concatenate(parts)
        if not len(allv):
            return 0
        s = np.sort(allv, kind="stable")
        return int(1 + np.count_nonzero(np.diff(s)))

    def score_exhaustive(self, terms, scope=None, conjunctive=False,
                         min_match: int | None = None,
                         boosts: dict | None = None):
        """Brute-force vectorized scorer (the oracle form: decode every
        posting of every query term, fixed-order float64 sums).
        ``min_match`` keeps only docs containing at least that many
        DISTINCT query terms (Lucene minimum-should-match semantics;
        ``conjunctive`` == min_match = n_terms). ``boosts`` is a
        query-time per-lemma multiplicative weight (the Lucene
        ``term^w`` boost): applied as a pre-scaled idf — ONE float64
        multiply per term before any posting work, so a boost of 1.0 is
        an exact no-op (x*1.0 == x bit-for-bit)."""
        blocks = self._term_blocks([t[0] for t in terms])
        lut = self._scope_lut(scope) if scope else None
        term_data = []
        for lem, df in terms:
            bl = blocks[lem]
            idf = self.idf(df)
            if boosts and lem in boosts:
                idf = idf * float(boosts[lem])
            term_data.append((idf, self._decoded(bl)))
        doc_parts, contrib_parts = [], []
        for docid, contrib in self._contributions(term_data, lut):
            doc_parts.append(docid)
            contrib_parts.append(contrib)
        return self._aggregate(
            doc_parts, contrib_parts, conjunctive, len(terms), min_match=min_match
        )

    # The exact bm25 route (``score_blockmax``). The constants come from
    # the per-shape timings in BENCH/BASELINE.md ("The exact bm25
    # route"): candidate-driven MaxScore beats term-at-a-time once the
    # other terms hold >= 16x the candidate terms' postings (it loses
    # below 8x); the windowed evaluation beats it only on one term, once
    # its df reaches ~1,024 postings per window of the first group (a
    # scoped query also pays a full count pass, so it needs twice that).
    _CAND_DRIVER_MAX = 32768  # max Σdf of candidate-driving terms
    _CAND_REST_RATIO = 16  # min Σdf of the other terms / the candidate terms'
    _WINDOWED_DF_PER_WINDOW = 1024
    _WINDOW_GROUP_MIN = 16  # windows in the first group, at least k
    _WINDOW_GROUP_MAX = 512  # windows per group, at most
    # relative slack on a summed block-max bound before it is compared
    # with a score: the bound and the score of one posting are computed
    # in different operation orders and may differ in the last ulp
    _UB_SLACK = 1.0 + 2.0 ** -40

    def _scoring_inputs(self, terms, scope):
        """([(idf, block entry)] in ``terms`` order, the scope LUT or
        None): what the exact evaluators read."""
        blocks = self._term_blocks([t[0] for t in terms])
        term_list = [(self.idf(df), blocks[lem]) for lem, df in terms]
        return term_list, (self._scope_lut(scope) if scope else None)

    def _contrib_at(self, bl: dict, cand: np.ndarray, idf: float):
        """Per-candidate BM25 contribution of ONE term: the block span
        holding the (sorted) candidates is read in one ``_decoded`` call
        (the whole-term entry, zero-copy, once the span crosses decode
        chunks: joining the chunks would copy nearly the whole term),
        then candidates are matched by one binary search. -> (the
        candidates holding the term, their float64 contributions), in
        ``cand`` order."""
        lo = int(np.searchsorted(bl["last"], cand[0])) if len(cand) else 0
        hi = int(np.searchsorted(bl["first"], cand[-1], side="right")) if len(cand) else 0
        if hi > lo and (hi - 1) // self._DECODE_CHUNK != lo // self._DECODE_CHUNK:
            lo, hi = 0, None
        d, tf, dl, _sc = self._decoded(bl, lo, hi)
        if not len(d):
            return cand[:0], np.empty(0, np.float64)
        pos = np.minimum(np.searchsorted(d, cand), len(d) - 1)
        hit = d[pos] == cand
        return cand[hit], self._bm25(idf, tf[pos[hit]], dl[pos[hit]])

    def _score_candidate_driven(self, terms, term_list, k, lut):
        """MaxScore-style essential-terms evaluation -> (ids, scores,
        count), or None when it does not apply. When the rare
        (df-ascending prefix) terms' postings fit a small candidate set
        and the remaining terms' summed upper bound cannot reach the
        candidate top-k threshold, every result doc must contain a rare
        term — so scoring the candidates fully (sparse block lookups
        into the hot terms) IS the exact answer, and the hot posting
        lists are never weight-decoded. The windowed evaluation cannot
        prune this query shape: a rare term's single block spans nearly
        the whole docid space, so every window's bound includes the rare
        upper bound."""
        total = sum(df for _, df in terms)
        n_drv, cum_df = 0, 0
        for _, df in terms[:-1]:
            c = cum_df + df
            if c > self._CAND_DRIVER_MAX or total - c < self._CAND_REST_RATIO * c:
                break
            cum_df, n_drv = c, n_drv + 1
        if n_drv == 0:
            return None
        k1 = self.k1
        rest = term_list[n_drv:]
        bound_rest = self._UB_SLACK * sum(
            idf * (k1 + 1.0) * float(bl["bmw"].max(initial=0.0)) for idf, bl in rest
        )
        drv_ids = [self._scoped_docids(bl, lut) for _, bl in term_list[:n_drv]]
        cand = np.unique(np.concatenate(drv_ids)) if drv_ids else np.empty(0, np.int64)
        if len(cand) < k:
            return None  # top-k could include rest-only docs: no bound
        # full scores at candidates, summed by _aggregate in the fixed
        # df-ascending term order: bit-identical to the exhaustive scorer
        doc_parts, contrib_parts = [], []
        for t, (idf, bl) in enumerate(term_list):
            if t < n_drv:
                docid, tf, dl, _sc = self._decoded(bl)
                pos = np.searchsorted(docid, cand)
                pos_c = np.clip(pos, 0, max(len(docid) - 1, 0))
                hit = docid[pos_c] == cand if len(docid) else np.zeros(len(cand), bool)
                d, w = cand[hit], self._bm25(idf, tf[pos_c[hit]], dl[pos_c[hit]])
            else:
                d, w = self._contrib_at(bl, cand, idf)
            doc_parts.append(d)
            contrib_parts.append(w)
        _, score = self._aggregate(doc_parts, contrib_parts, False, len(term_list))
        sel = np.lexsort((cand, -score))[:k]
        threshold = score[sel][-1]
        if bound_rest >= threshold:
            return None  # a rest-only doc could reach the top-k
        # exact count = |union| over the rest terms' docids (gaps, +scope
        # codes when scoped); with one rest term that is |rest| + |cand|
        # - |cand ∩ rest|, one binary search instead of a sort
        parts = [self._scoped_docids(bl, lut) for _, bl in rest]
        if len(parts) == 1:
            r = parts[0]
            pos = np.minimum(np.searchsorted(r, cand), max(len(r) - 1, 0))
            common = int(np.count_nonzero(r[pos] == cand)) if len(r) else 0
            return cand[sel], score[sel], len(r) + len(cand) - common
        return cand[sel], score[sel], self._union_count([cand] + parts)

    def _blocks_of(self, bl: dict, blk: np.ndarray) -> tuple:
        """(docid, tf, dl, scope code) of the sorted, distinct blocks
        ``blk`` of one term, gathered from its cached whole-term decode."""
        streams = self._decoded(bl)
        cum = bl["cum_n"]
        lo = cum[blk]
        n = cum[blk + 1] - lo
        if len(blk) == 1:
            s = slice(int(lo[0]), int(lo[0] + n[0]))
            return tuple(x[s] for x in streams)
        idx = np.arange(int(n.sum()), dtype=np.int64) + np.repeat(lo - (np.cumsum(n) - n), n)
        return tuple(x[idx] for x in streams)

    def _score_windowed(self, terms, term_list, k, lut, conjunctive):
        """Windowed exact block-max evaluation -> (ids, scores, count), or
        None when the threshold stops pruning (the caller then scores
        term-at-a-time). Windows split the docid space at every block
        start of every term, so within a window each term has at most one
        block, and a window's bound is the sum of those blocks' bounds.
        Windows are evaluated best bound first, in groups that double
        from ``max(k, _WINDOW_GROUP_MIN)`` windows to
        ``_WINDOW_GROUP_MAX``. A group reads only its windows' blocks
        and masks them to its windows: every posting of a doc falls in
        exactly one window, so group scores are complete doc scores.
        Pruning is lossless: a group is entered only while its best
        bound reaches the running k-th score, and within it only windows
        whose bound reaches it are evaluated (ties included, so the
        docid tie-break stays exact)."""
        k1 = self.k1
        starts = np.unique(np.concatenate([bl["first"] for _, bl in term_list]))
        W = len(starts)
        ends = np.append(starts[1:], np.iinfo(np.int64).max)
        wub = np.zeros(W, np.float64)
        covers = []  # per term: (its block index per window, alive mask)
        for idf, bl in term_list:
            j = np.searchsorted(bl["first"], starts, side="right") - 1
            j = np.clip(j, 0, len(bl["first"]) - 1)
            alive = (bl["first"][j] <= starts) & (bl["last"][j] >= starts)
            wub += np.where(alive, idf * (k1 + 1.0) * bl["bmw"][j], 0.0)
            covers.append((j, alive))
        wub *= self._UB_SLACK
        order = np.argsort(-wub, kind="stable")
        neg_desc = -wub[order]  # ascending: binary-searchable bounds
        top_ids, top_scores = np.empty(0, np.int64), np.empty(0, np.float64)
        threshold = -np.inf
        count_ids: list[np.ndarray] = []
        processed_all = True
        g0, size = 0, max(k, self._WINDOW_GROUP_MIN)
        while g0 < W:
            grp = order[g0 : g0 + size]
            g0 += len(grp)
            size = min(2 * size, self._WINDOW_GROUP_MAX)
            if len(top_scores) >= k:
                if wub[grp[0]] < threshold:
                    processed_all = False
                    break
                kept = grp[wub[grp] >= threshold]
                if len(kept) < len(grp):
                    processed_all = False
                grp = kept
                # the WAND worst case: near-uniform bounds, so the
                # threshold skips almost nothing and every group re-reads
                # most of the postings — scoring term-at-a-time is
                # cheaper. Windows are bound-sorted, so the windows the
                # threshold cannot skip are one binary search away.
                remaining = W - g0
                alive = int(np.searchsorted(neg_desc, -threshold, side="right")) - g0
                if remaining > self._WINDOW_GROUP_MAX and alive > 0.9 * remaining:
                    return None
            gs = np.sort(grp)  # window order == docid order
            s_sorted, e_sorted = starts[gs], ends[gs]
            term_data = []
            for (idf, bl), (jarr, alive) in zip(term_list, covers):
                blk = np.unique(jarr[gs][alive[gs]])
                if not len(blk):
                    continue
                docid, tf, dl, sc = self._blocks_of(bl, blk)
                m = _in_ranges(docid, s_sorted, e_sorted)  # the group's windows
                term_data.append((idf, (docid[m], tf[m], dl[m], sc[m])))
            doc_parts, contrib_parts = [], []
            for docid, contrib in self._contributions(term_data, lut):
                doc_parts.append(docid)
                contrib_parts.append(contrib)
            ids, scores = self._aggregate(doc_parts, contrib_parts, conjunctive, len(terms))
            count_ids.append(ids)
            # merge into the running top-k by (score DESC, docid ASC)
            top_ids, top_scores = self._topk(np.concatenate([top_ids, ids]),
                                             np.concatenate([top_scores, scores]), k)
            if len(top_scores) >= k:
                threshold = top_scores[-1]
        if len(terms) == 1 and lut is None and not conjunctive:
            # one unscoped term: its live postings, no decode (not the
            # planned df, which a federation sums over its shards)
            count = int(term_list[0][1]["cum_n"][-1])
        elif processed_all:
            count = self._union_count(count_ids)
        else:
            count = self._exact_count(term_list, lut, conjunctive)
        return top_ids, top_scores, count

    def score_blockmax(self, terms, k, scope=None, conjunctive=False):
        """The exact bm25 top-k -> (docids, scores, count): the top-k by
        (score DESC, docid ASC) and the exact match count (the union of
        the term postings within scope; their intersection when
        ``conjunctive``). One rule picks the evaluator from the query's
        shape. Every evaluator sums a doc's term weights in the same
        fixed df-ascending term order (``_aggregate``), so all return
        the same page, float64 scores and count:

        1. candidate-driven MaxScore (``_score_candidate_driven``): the
           rarest terms drive (Σdf <= ``_CAND_DRIVER_MAX``, the other
           terms holding >= ``_CAND_REST_RATIO`` times their postings)
           and the other terms' summed bound stays below the
           candidates' k-th score;
        2. windowed block-max (``_score_windowed``): one term whose df
           reaches ``_WINDOWED_DF_PER_WINDOW`` per window of the first
           group (twice that when scoped), where the block bounds skip
           all but a few blocks;
        3. term-at-a-time ``score_exhaustive`` + ``_topk``: every other
           shape, and whenever an evaluator above declines (its bound
           does not separate, or the threshold stops pruning).
        """
        term_list, lut = self._scoring_inputs(terms, scope)
        if k and not conjunctive and len(terms) > 1:
            got = self._score_candidate_driven(terms, term_list, k, lut)
            if got is not None:
                return got
        per_window = self._WINDOWED_DF_PER_WINDOW * (1 if lut is None else 2)
        if k and len(terms) == 1 and terms[0][1] >= per_window * max(k, self._WINDOW_GROUP_MIN):
            got = self._score_windowed(terms, term_list, k, lut, conjunctive)
            if got is not None:
                return got
        ids, scores = self.score_exhaustive(terms, scope, conjunctive)
        return *self._topk(ids, scores, k), len(ids)

    def _exact_count(self, term_list, lut, conjunctive) -> int:
        """Exact result count (G6) via a gaps(+scps when scoped) union
        pass — tf/dl never decoded."""
        parts = [self._scoped_docids(bl, lut) for _, bl in term_list]
        if not parts:
            return 0
        if conjunctive:
            inter = parts[0]
            for p in parts[1:]:
                inter = np.intersect1d(inter, p, assume_unique=True)
            return int(len(inter))
        return self._union_count(parts)

    # ---------------- timestamp-range filter ----------------------------

    def _ts_of_ids(self, ids: np.ndarray) -> np.ndarray:
        """Epoch-µs ts per (live) docid (``_doc_rows``). At 10^12 docs a
        standing time predicate should instead ride the BUILD as a
        partition key (date-sharded index segments pruned at plan
        time); this engine-side filter is the exact generic fallback."""
        return self._doc_rows(ids, ("ts",))[1]

    def _dl_of_ids(self, ids: np.ndarray) -> np.ndarray:
        """doc_len per (live) docid (``_doc_rows``)."""
        return self._doc_rows(ids, ("doc_len",))[1]

    def _field_values(self, ids: np.ndarray, field: str) -> np.ndarray:
        """int64 values of ``field`` per (live) docid: ``doc_len``,
        epoch-µs ``ts``, or ``day`` (the UTC epoch-day of ts)."""
        v = (self._dl_of_ids(ids) if field == "doc_len"
             else self._ts_of_ids(ids)).astype(np.int64)
        return v // 86_400_000_000 if field == "day" else v

    def metrics(
        self,
        query_text: str,
        scope: str | None = None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
        fields=("doc_len", "ts"),
        percentiles=(50, 90, 99),
    ) -> dict:
        """Stats + exact percentiles aggregation over the FULL matching
        set (the Elasticsearch ``stats`` / ``percentiles`` aggregations
        on a query): per field, (n_docs, min, max, avg, p50, p90, p99)
        of the matching docs' values. Fields: ``doc_len`` (indexed
        token count) and ``ts`` (epoch-µs). All outputs are EXACT
        integers: percentile = nearest-rank, the value at 1-based rank
        ``(q*n + 99) // 100`` of the ascending values, and ``v_avg`` is
        the floor mean over the EXACT big-integer sum (epoch-µs sums
        overflow int64 — the engine accumulates chunked Python ints,
        the oracle sums HUGEINT; a float mean would instead inherit
        engine-specific summation-order rounding). ES defaults to
        t-digest approximation for percentiles; exactness is cheap here
        because the values ride the same matching-set-sized driver
        frame ``facets`` already uses — at corpus-sized standing
        aggregations swap in a fixed-width histogram sketch, the same
        note as the HLL cardinality sibling. Composes with all the
        filtering surfaces.

        -> {'result', 'count', 'data': pa.Table(field, n_docs, v_min,
        v_max, v_avg, p50, p90, p99), 'error'}"""
        if isinstance(fields, str):
            fields = tuple(v.strip() for v in fields.split(",") if v.strip())
        fields = tuple(fields)
        if not fields or not set(fields) <= {"doc_len", "ts"}:
            return self._resp(error="bad_field", schema=METRICS_SCHEMA)
        try:
            percentiles = tuple(int(q) for q in percentiles)
        except (TypeError, ValueError):
            return self._resp(error="bad_percentiles", schema=METRICS_SCHEMA)
        if len(percentiles) != 3 or any(not 1 <= q <= 100 for q in percentiles):
            # the schema holds exactly p50/p90/p99; q=0 would index v[-1]
            # (the MAX labelled as p0), q>100 would IndexError — validate
            # like the sibling surfaces
            return self._resp(error="bad_percentiles", schema=METRICS_SCHEMA)
        _, parts, resp = self._matched(
            query_text, scope, conjunctive, exclude, ts_min, ts_max,
            schema=METRICS_SCHEMA)
        if resp:
            return resp
        [(_, uniq, _)] = parts
        rows = []
        for field in fields:
            v = np.sort(self._field_values(uniq, field))
            n = len(v)
            # exact big-int sum: chunked int64 partials of (v - base)
            # with the chunk size derived from the VALUE SPAN so a
            # chunk sum can never reach 2^62 — a fixed 10k chunk wraps
            # silently once the span passes ~9.2e14 (a ts span of ~29
            # years) and numpy does not raise
            base = int(v[0])
            span = int(v[-1]) - base
            chunk = 10_000 if span == 0 else max(
                1, min(10_000, (1 << 62) // span)
            )
            total = base * n + sum(
                int((v[i: i + chunk] - base).sum())
                for i in range(0, n, chunk)
            )
            pcts = [int(v[(q * n + 99) // 100 - 1]) for q in percentiles]
            rows.append((field, n, base, int(v[-1]), total // n, *pcts))
        return _rows_resp(METRICS_SCHEMA, sorted(rows), len(uniq))

    MAX_MGET = 1024

    def mget(self, docs) -> dict:
        """Batch point fetch (the Elasticsearch ``_mget`` API): one row
        per requested (conv_id, turn_idx) IN REQUEST ORDER, each either
        found=True with the doc's enrichment columns and CURRENT text
        (overlay-aware — update-by-query rewrites and delta re-indexes
        included, tombstoned docs are not found; the termvectors
        aliveness rule) or found=False with the echoed key and nulls
        (ES echoes the _id of misses). Cost: one docid resolve + one
        batched enrichment lookup + one point text read per found doc —
        nothing corpus-sized. -> {'result', 'count' (found docs),
        'data': pa.Table(conv_id, turn_idx, found, role, tool, ts,
        text), 'error'}"""
        if not isinstance(docs, (list, tuple)) or not docs \
                or len(docs) > self.MAX_MGET:
            return self._resp(error="bad_docs", schema=MGET_SCHEMA)
        pairs = []
        for d in docs:
            if isinstance(d, dict):
                d = (d.get("conv_id"), d.get("turn_idx"))
            if (not isinstance(d, (list, tuple)) or len(d) != 2
                    or not isinstance(d[0], str)):
                return self._resp(error="bad_docs", schema=MGET_SCHEMA)
            try:
                pairs.append((d[0], int(d[1])))
            except (TypeError, ValueError):
                return self._resp(error="bad_docs", schema=MGET_SCHEMA)
        dids = [self._cursor_docid(c, t) for c, t in pairs]
        cand = np.array(sorted({int(x) for x in dids if x is not None}),
                        np.int64)
        found_ids = cand[self._alive(cand)]
        meta: dict[int, tuple] = {}
        if len(found_ids):
            enr = self._enrich(found_ids, np.zeros(len(found_ids)), [], False)
            texts = self._texts(found_ids, enr.column("conv_id").to_pylist())
            for did, role, tool, ts, x in zip(
                    found_ids, enr.column("role").to_pylist(), enr.column("tool").to_pylist(),
                    to_numpy(enr.column("ts")).tolist(), texts):
                meta[int(did)] = (role, tool, ts, x or "")
        rows = []
        n_found = 0
        for (c, t), did in zip(pairs, dids):
            if did is None or int(did) not in meta:
                rows.append((c, t, False, None, None, None, None))
                continue
            rows.append((c, t, True, *meta[int(did)]))  # ts as epoch µs
            n_found += 1
        return _rows_resp(MGET_SCHEMA, rows, n_found)

    def matrix_stats(
        self,
        query_text: str,
        scope: str | None = None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
    ) -> dict:
        """Covariance/correlation between doc_len and ts over the FULL
        matching set (the Elasticsearch ``matrix_stats`` aggregation on
        two fields — "do longer turns cluster later?"). The
        driver-hashed frame carries EXACT INTEGER cores only: n and the
        sums of x, y, x², y², x·y over values SHIFTED by the matching
        set's own minima (covariance/correlation are shift-invariant,
        and shifting keeps the squared epoch-µs sums finite — raw ts²
        sums overflow even HUGEINT at corpus counts). The quadratic
        sums exceed int64, so they travel as DECIMAL STRINGS (exact on
        both engines — a float column would round and a BIGINT would
        overflow); the engine accumulates chunked Python ints (the
        ``metrics`` device). The derived ``cov``/``corr`` floats ride
        the response only (pytest-pinned), never the hash — the
        percentile_ranks precedent.
        -> {'result', 'count', 'data': pa.Table(n_docs, sum_x, sum_y,
        sum_xx, sum_yy, sum_xy, cov, corr), 'error'}"""
        _, parts, resp = self._matched(
            query_text, scope, conjunctive, exclude, ts_min, ts_max,
            schema=MATRIX_STATS_SCHEMA)
        if resp:
            return resp
        [(_, uniq, _)] = parts
        x = self._field_values(uniq, "doc_len")
        y = self._field_values(uniq, "ts")
        x = x - x.min()
        y = y - y.min()
        n = len(x)

        def exact_dot(u: np.ndarray, v: np.ndarray) -> int:
            # arbitrary-precision Σ u_i·v_i: squared shifted-µs values
            # exceed int64, so the products are Python ints (tolist
            # materializes ints once; matching-set-sized driver work —
            # the same cost class as metrics' percentile sort)
            return sum(a * b for a, b in zip(u.tolist(), v.tolist()))

        sx, sy = int(x.sum()), int(y.sum())
        sxx = exact_dot(x, x)
        syy = exact_dot(y, y)
        sxy = exact_dot(x, y)
        # derived floats: ONE fixed op sequence, response-only
        mean_x, mean_y = sx / n, sy / n
        cov = sxy / n - mean_x * mean_y
        var_x = sxx / n - mean_x * mean_x
        var_y = syy / n - mean_y * mean_y
        denom = math.sqrt(var_x) * math.sqrt(var_y)
        corr = cov / denom if denom > 0 else 0.0
        return _rows_resp(MATRIX_STATS_SCHEMA, [(
            n, sx, sy, str(sxx), str(syy), str(sxy), round(cov, 6), round(corr, 6))], n)

    def extended_stats(
        self,
        query_text: str,
        scope: str | None = None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
    ) -> dict:
        """Extended-stats aggregation over the matching set (the
        Elasticsearch ``extended_stats`` shape: count/min/max/avg/sum/
        sum_of_squares/variance/std_deviation + the avg±2σ bounds) for
        BOTH integer fields (doc_len, epoch-µs ts), one row per field.
        The driver-hashed frame carries EXACT INTEGER cores only —
        n/vmin/vmax plus SHIFT-BY-MIN sum and square-sum (variance is
        shift-invariant and shifting keeps squared-µs sums inside
        HUGEINT; the square sums travel as DECIMAL STRINGS, the
        ``matrix_stats`` device) — while avg/variance/std/bounds ride
        the response only (the percentile_ranks precedent). Composes
        with every filtering surface via the shared ``_matching_set``
        frame; the delta overlay folds through ``_dl_of_ids`` /
        ``_ts_of_ids`` like ``metrics``."""
        _, parts, resp = self._matched(
            query_text, scope, conjunctive, exclude, ts_min, ts_max,
            schema=EXT_STATS_SCHEMA)
        if resp:
            return resp
        [(_, uniq, _)] = parts
        n = len(uniq)
        rows = []
        for field in ("doc_len", "ts"):
            vals = self._field_values(uniq, field)
            vmin, vmax = int(vals.min()), int(vals.max())
            sh = vals - vmin
            s = int(sh.sum(dtype=object)) if n else 0
            # arbitrary-precision Σ v², the matrix_stats exact_dot device
            ss = sum(a * a for a in sh.tolist())
            mean_sh = s / n
            var = ss / n - mean_sh * mean_sh
            std = math.sqrt(var) if var > 0 else 0.0
            avg = vmin + mean_sh
            rows.append((field, n, vmin, vmax, str(s), str(ss), round(avg, 6),
                         round(var, 6), round(std, 6), round(avg + 2.0 * std, 6),
                         round(avg - 2.0 * std, 6)))
        return _rows_resp(EXT_STATS_SCHEMA, rows, n)

    DIS_MAX_MAX_QUERIES = 8

    def dis_max(
        self,
        queries: list[str],
        tie_breaker: float = 0.0,
        scope: str | None = None,
        offset: int = 0,
        limit: int = DEFAULT_PAGE_SIZE,
    ) -> dict:
        """Disjunction-max compound query (Lucene DisjunctionMaxQuery /
        the Elasticsearch ``dis_max`` compound): every subquery is a
        standard disjunctive BM25 query evaluated on the exhaustive
        frame; a doc's combined score is ``best_sub + tie_breaker *
        (sum of its OTHER sub scores)`` — ``tie_breaker=0`` is the pure
        best-field max, ``tie_breaker=1`` degenerates to the plain sum
        of sub scores. The matching set is the UNION of the subquery
        matching sets (the exact pre-pagination count).

        Missing-lemma semantics are PER SUBQUERY: a sub containing any
        corpus-absent lemma matches nothing (the reference rule applied
        to that sub alone — ES: that clause simply has no matches) and
        the other subs still contribute; a subquery that analyzes to no
        lemmas at all is ``bad_dis_max`` (ES rejects an empty clause
        body). Per-sub scores are the engine's exact BM25 float64s and
        the combine accumulates sums in subquery order; the SQL twin's
        SUM order is unspecified, so the driver-compared score column
        is round-6 (the ``search_boosted`` 6-dp protocol)."""
        if (
            not isinstance(queries, (list, tuple))
            or not 1 <= len(queries) <= self.DIS_MAX_MAX_QUERIES
            or not all(isinstance(q, str) for q in queries)
        ):
            return self._resp(error="bad_dis_max")
        try:
            tb = float(tie_breaker)
        except (TypeError, ValueError):
            return self._resp(error="bad_dis_max")
        if not (0.0 <= tb <= 1.0) or tb != tb:
            return self._resp(error="bad_dis_max")
        if not self.valid_scope(scope):
            return self._resp(error="bad_scope")
        sub_frames: list[tuple[np.ndarray, np.ndarray]] = []
        all_terms: dict[str, int] = {}
        for qt in queries:
            terms, err = self.plan(qt or "")
            if err == "empty_query":
                return self._resp(error="bad_dis_max")
            if err:
                continue  # this sub matches nothing; others still count
            ids_i, scores_i = self.score_exhaustive(terms, scope)
            if len(ids_i):
                sub_frames.append((ids_i, scores_i))
            for lem, df in terms:
                all_terms.setdefault(lem, df)
        if not sub_frames:
            return self._resp(count=0)
        ids = np.concatenate([f[0] for f in sub_frames])
        sc = np.concatenate([f[1] for f in sub_frames])
        order = np.argsort(ids, kind="stable")
        sids, ssc = ids[order], sc[order]
        neq = np.empty(len(sids), bool)
        neq[0] = True
        np.not_equal(sids[1:], sids[:-1], out=neq[1:])
        starts = np.flatnonzero(neq)
        uniq = sids[starts]
        sums = np.add.reduceat(ssc, starts)
        maxs = np.maximum.reduceat(ssc, starts)
        score = maxs + tb * (sums - maxs)
        top_ids, top_sc = self._topk(uniq, score, offset + limit)
        top_ids, top_sc = top_ids[offset:], top_sc[offset:]
        terms_sorted = sorted(all_terms.items(), key=lambda t: (t[1], t[0]))
        tbl = self._enrich(top_ids, top_sc, terms_sorted, False)
        return {"result": True, "count": int(len(uniq)), "data": tbl, "error": None}

    def top_hits(
        self,
        query_text: str,
        by: str = "role",
        per_group: int = 3,
        scope: str | None = None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
    ) -> dict:
        """Top hits per bucket (the Elasticsearch ``top_hits``
        sub-aggregation under a ``terms`` bucket): the ``per_group``
        best-scoring matching turns for EVERY value of ``by`` ('role'
        or 'tool') in one pass — \"show me the best match per role\".
        Scores are the exhaustive BM25 frame (same float64 summation
        order as the oracle); the matching set and its per-doc scope
        codes come from the shared ``_matching_set`` frame, so every
        filtering surface composes; grouping is a vectorized lexsort +
        boundary scan (the ``_collapse_per_conv`` device generalized to
        arbitrary group keys). Ties (score DESC, conv_id, turn_idx);
        groups ascending. -> {'result', 'count' (matching docs),
        'data': pa.Table(group, grank, conv_id, turn_idx, role, tool,
        ts, score), 'error'}"""
        if by not in ("role", "tool"):
            return self._resp(error="bad_group", schema=TOP_HITS_SCHEMA)
        try:
            per_group = int(per_group)
        except (TypeError, ValueError):
            return self._resp(error="bad_per_group", schema=TOP_HITS_SCHEMA)
        if per_group < 1:
            return self._resp(error="bad_per_group", schema=TOP_HITS_SCHEMA)
        terms, parts, resp = self._matched(
            query_text, scope, conjunctive, exclude, ts_min, ts_max,
            schema=TOP_HITS_SCHEMA)
        if resp:
            return resp
        [(_, uniq, codes)] = parts
        ids2, scores2 = self.score_exhaustive(terms, scope, conjunctive)
        scores_u = scores2[np.searchsorted(ids2, uniq)]
        pairs = self._code_pairs()
        vals = np.array([p[0 if by == "role" else 1] for p in pairs], object)[codes]
        guniq, ginv = np.unique(vals, return_inverse=True)
        o = np.lexsort((uniq, -scores_u, ginv))
        gs = ginv[o]
        neq = np.empty(len(gs), bool)
        neq[0] = True
        np.not_equal(gs[1:], gs[:-1], out=neq[1:])
        starts = np.flatnonzero(neq)
        occ = np.arange(len(o)) - np.repeat(
            starts, np.diff(np.append(starts, len(o)))
        )
        sel = occ < int(per_group)
        osel = o[sel]
        tbl = self._enrich(uniq[osel], scores_u[osel], terms, False)
        return _cols_resp(TOP_HITS_SCHEMA, [vals[osel], occ[sel] + 1, *tbl.columns], len(uniq))

    def explain(self, query_text: str, conv_id: str, turn_idx: int) -> dict:
        """Score breakdown for ONE document (the Elasticsearch
        ``_explain`` API): per query term, in plan order (df-ascending
        then lemma), the tuple (lemma, df, tf, dl, idf, weight) where
        ``weight`` is the exact BM25 contribution —

            idf = ln(1 + (N - df + 0.5)/(df + 0.5))
            weight = idf * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))

        (0.0 where the doc lacks the term) — and ``total`` is the
        float64 sum in that same order, bit-identical to the exhaustive
        scorer and therefore to ``search()``'s score for this doc.
        Decodes only the query terms' postings (overlay-folded), one
        searchsorted per term; the doc's existence is validated against
        the live doc store (overlay-aware). -> {'result', 'count' (1|0),
        'data': pa.Table(lemma, df, tf, dl, idf, weight), 'total',
        'error'}"""
        terms, resp = self._planned(query_text, None, schema=EXPLAIN_SCHEMA,
                                    total=0.0)
        if resp:
            return resp
        did = self._cursor_docid(conv_id, turn_idx)
        ids = np.array([] if did is None else [did], np.int64)
        if not self._alive(ids).any():
            return self._resp(error="not_found", schema=EXPLAIN_SCHEMA, total=0.0)
        dl = float(self._dl_of_ids(ids)[0])
        blocks = self._term_blocks([t[0] for t in terms])
        rows, total = [], 0.0
        for lem, df in terms:
            d, tf_arr, _dl, _sc = self._decoded(blocks[lem])
            pos = int(np.searchsorted(d, did))
            tf = int(tf_arr[pos]) if pos < len(d) and d[pos] == did else 0
            idf = self.idf(df)
            w = float(self._bm25(idf, tf, dl)) if tf else 0.0
            total += w
            rows.append((lem, int(df), tf, int(dl), idf, w))
        return _rows_resp(EXPLAIN_SCHEMA, rows, 1, total=float(total))

    def rank_eval(
        self,
        query_text: str,
        scope: str | None = None,
        k: int = 10,
        rating_of=None,
    ) -> dict:
        """Ranked-retrieval evaluation for ONE query (the Elasticsearch
        ``_rank_eval`` API): score the SERVED top-k page (the real
        ``search()`` path, block-max and all) against a rated judgment
        set and report the classic metrics. The judgment set is the
        query's full matching set (the candidate pool an assessor would
        be shown) graded by ``rating_of`` — default grade
        ``(turn_idx + len(conv_id)) % 3`` in {0,1,2}, a deterministic
        pseudo-assessor both this engine and the SQL oracle can compute
        exactly. All hash-compared outputs are INTEGERS (gain
        ``2^rating - 1`` per doc, the standard graded-relevance gain);
        the float conveniences (precision@k, recall@k, MRR) are derived
        from them and returned alongside, never compared:

        - ``n_hits``      — retrieved rows (≤ k)
        - ``n_rel``       — judged-relevant docs (rating > 0) in the pool
        - ``n_rel_ret``   — of those, how many the page retrieved
        - ``first_rel_rank`` — 1-based rank of the first relevant hit
          (0 = none); MRR = 1/first_rel_rank
        - ``gain_top``    — Σ gain over the retrieved page
        - ``gain_ideal``  — Σ gain over the k best-rated pool docs (the
          DCG numerator pair without the log discount, which would drag
          float summation order into the comparison; ties at the cut
          share a rating, so the sum needs no tie-break)

        Cost: one served search + the matching-set frame ``facets``
        already carries (gaps+scps decode, no tf/dl pass) + an
        O(#convs) sidecar length pass — nothing corpus-row-sized on the
        driver beyond the documented matching-set regime.
        -> {'result', 'count' (pool size), 'data': 1-row pa.Table,
        'precision', 'recall', 'mrr', 'error'}"""
        shape = {"schema": RANK_EVAL_SCHEMA,
                 "precision": 0.0, "recall": 0.0, "mrr": 0.0}
        if k <= 0:
            return self._resp(error="bad_k", **shape)
        _, parts, resp = self._matched(query_text, scope, **shape)
        if resp:
            return resp
        [(_, uniq, _)] = parts
        convs = self._conv_list()
        conv_len = to_numpy(pc.utf8_length(convs)).astype(np.int64)
        conv_rank, turn = split_docids(uniq)
        if rating_of is None:
            pool_rating = (turn.astype(np.int64) + conv_len[conv_rank]) % 3
        else:
            pool_rating = np.asarray(
                rating_of(convs.take(to_arrow(conv_rank, pa.int64())), turn), np.int64
            )
        pool_gain = (np.int64(1) << pool_rating) - 1
        n_rel = int((pool_rating > 0).sum())
        top = np.sort(pool_gain)[::-1][:k]
        gain_ideal = int(top.sum())
        served = self.search(query_text, scope=scope, limit=k)
        if not served["result"]:
            return self._resp(error=served["error"], **shape)
        hits = served["data"]
        turns = to_numpy(hits.column("turn_idx"))
        if rating_of is None:
            hit_rating = (turns.astype(np.int64) + to_numpy(
                pc.utf8_length(hits.column("conv_id"))).astype(np.int64)) % 3
        else:
            hit_rating = np.asarray(rating_of(hits.column("conv_id"), turns), np.int64)
        gain_top = int(((np.int64(1) << hit_rating) - 1).sum())
        rel_ranks = np.flatnonzero(hit_rating > 0)
        n_rel_ret = int(len(rel_ranks))
        first_rel = int(rel_ranks[0]) + 1 if n_rel_ret else 0
        return _rows_resp(
            RANK_EVAL_SCHEMA,
            [(k, hits.num_rows, n_rel, n_rel_ret, first_rel, gain_top, gain_ideal)],
            len(uniq), precision=n_rel_ret / k, recall=n_rel_ret / n_rel if n_rel else 0.0,
            mrr=1.0 / first_rel if first_rel else 0.0)

    def analyze(self, text: str) -> dict:
        """Analysis introspection (the Elasticsearch ``_analyze`` API):
        run arbitrary text through the index's OWN analyzer chain and
        return one row per SURVIVING token — (pos, token, lemma) where
        ``pos`` is the surviving-token ordinal, the exact coordinate
        the positional index stores (phrase/near queries match on it).
        Pure per-call compute, no index access beyond the analyzer
        module binding. -> {'result', 'count', 'data': pa.Table(pos,
        token, lemma), 'error'}"""
        toks = [
            t for t in self._norm_text(text or "").split()
            if len(t) >= self._min_token_len and t not in self._stopset
        ]
        lems = [(self._analyzer.analyze_query(t) or [t])[0] for t in toks]
        return _cols_resp(ANALYZE_SCHEMA, [range(len(toks)), toks, lems], len(toks))

    def termvectors(self, conv_id: str, turn_idx: int) -> dict:
        """Per-document term statistics (the Elasticsearch
        ``_termvectors`` API with ``term_statistics=true``): one row per
        distinct lemma of the document's CURRENT text — (lemma, tf, df,
        dl) sorted by lemma. tf and dl come from re-analyzing the
        overlay-aware text source with the index's own analyzer (the ES
        behavior for non-stored fields; its per-document ``analyze``, the
        scalar twin of the batch path the build runs), so they always
        reflect the served index view — update-by-query rewrites and delta
        re-indexes included; df is the overlay-exact merged posting
        count (the query planner's rule). Cost: one point text read +
        one single-doc analyzer pass + one dictionary lookup per
        distinct lemma — nothing corpus-sized. -> {'result', 'count'
        (1|0), 'data': pa.Table(lemma, tf, df, dl), 'error'}"""
        did = self._cursor_docid(conv_id, turn_idx)
        ids = np.array([] if did is None else [did], np.int64)
        if not self._alive(ids).any():
            return self._resp(error="not_found", schema=TERMVECTORS_SCHEMA)
        tfs = self._analyzer.analyze(self._texts(ids, [conv_id])[0] or "")
        lemmas = sorted(tfs)
        if self._has_deltas:
            blocks = self._term_blocks(lemmas)
            dfs = [int(blocks[x]["cum_n"][-1]) for x in lemmas]
        else:
            dfs = [int(self._df_of(x) or 0) for x in lemmas]
        dl = sum(tfs.values())
        return _rows_resp(TERMVECTORS_SCHEMA,
                          [(x, tfs[x], df, dl) for x, df in zip(lemmas, dfs)], 1)

    def export(
        self,
        query_text: str,
        dest: str,
        scope: str | None = None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
        columns: list[str] | None = None,
        slice_id: int | None = None,
        slice_max: int | None = None,
    ) -> dict:
        """Matching-set export (the Elasticsearch scroll + reindex
        shape): stream EVERY turn whose doc matches the query to
        partitioned Parquet under ``dest`` — the corpus-slice
        extraction a training-data pipeline runs after retrieval-style
        filtering ("give me all turns mentioning X as a dataset").

        ``slice_id``/``slice_max`` (both or neither; ``0 <= id < max``,
        ``max >= 2``) select ONE slice of the matching set — the ES
        *sliced scroll*: membership is ``docid % slice_max ==
        slice_id``, a pure function of the deterministic docid, so the
        S slices are disjoint, their union is exactly the full export,
        and each can run (or RE-run, after a failure) in its own
        process with no coordination — the resumable-parallel-extract
        primitive for corpus-sized exports. Per-slice counts are
        near-uniform because docids stripe conversations' turns across
        residues.

        The matching docids come from the overlay-folded postings
        (gaps+scps decode — the ``facets`` frame, matching-set-sized);
        the text/metadata rows are then scanned DISTRIBUTED from the
        generation-correct text sources with a map-side broadcast
        semi-join (the sorted id set rides ONE ``ray.put``; membership
        is a C-level searchsorted per batch — no shuffle, no driver
        materialization of the exported text, Ray's streaming executor
        writes as it scans). Re-indexed conversations read from their
        delta generation's sources, so exported text == served text;
        tombstoned docs are absent from the overlay-folded matching
        set. Scale note: the broadcast id set is matching-set-sized —
        at a corpus-sized matching set swap the broadcast for a hash
        semi-join against a docid-keyed Dataset (the build's stage-C
        exchange shape); same documented threshold regime as the other
        matching-set surfaces. ``columns`` projects the exported schema
        (the ES reindex ``_source`` filtering — column pruning starts
        at the read, so dropped columns never leave storage); conv_id
        and turn_idx are always read for the semi-join and included in
        the output. -> {'result', 'count', 'path', 'error'};
        refuses an existing non-empty ``dest`` (the snapshot guard)."""
        import ray

        from .sources.transcripts import TRANSCRIPT_COLUMNS, read_transcripts

        if columns is None:
            columns = list(TRANSCRIPT_COLUMNS)
        else:
            if not set(columns) <= set(TRANSCRIPT_COLUMNS):
                return {**self._resp(error="bad_columns"), "path": dest}
            columns = ["conv_id", "turn_idx"] + [
                c for c in TRANSCRIPT_COLUMNS
                if c in columns and c not in ("conv_id", "turn_idx")
            ]
        if os.path.exists(dest) and (
            not os.path.isdir(dest) or os.listdir(dest)
        ):
            return {**self._resp(error="dest_exists"), "path": dest}
        if (slice_id is None) != (slice_max is None):
            return {**self._resp(error="bad_slice"), "path": dest}
        if slice_max is not None and not (
            isinstance(slice_id, int) and isinstance(slice_max, int)
            and slice_max >= 2 and 0 <= slice_id < slice_max
        ):
            return {**self._resp(error="bad_slice"), "path": dest}
        _, parts, resp = self._matched(
            query_text, scope, conjunctive, exclude, ts_min, ts_max, path=dest)
        if resp:
            return resp
        [(_, uniq, _)] = parts
        if slice_max is not None:
            uniq = uniq[(uniq % slice_max) == slice_id]
        if not len(uniq):
            return self._resp(path=dest)
        convs = self._conv_list()
        conv_rank, _turn = split_docids(uniq)
        dpaths = getattr(self, "_delta_text_paths", {})
        groups: dict[tuple, list[int]] = {}
        if dpaths:
            id_convs = convs.take(to_arrow(conv_rank, pa.int64())).to_pylist()
            for did, c in zip(uniq, id_convs):
                key = tuple(dpaths.get(c) or self.transcripts_paths)
                groups.setdefault(key, []).append(int(did))
        else:
            groups[tuple(self.transcripts_paths)] = [int(x) for x in uniq]
        convs_ref = ray.put(convs)
        parts = []
        for paths, ids in groups.items():
            ids_ref = ray.put(np.sort(np.array(ids, np.int64)))

            def member(batch: pa.Table, ref=ids_ref) -> pa.Table:
                ids_sorted = ray.get(ref)
                d = to_numpy(batch.column("docid"))
                pos = np.searchsorted(ids_sorted, d)
                pos[pos >= len(ids_sorted)] = 0
                keep = ids_sorted[pos] == d
                return batch.filter(to_arrow(keep, pa.bool_())).drop_columns(["docid"])

            ds = (
                read_transcripts(list(paths), columns=columns)
                .map_batches(
                    make_docid_attacher(convs_ref), batch_format="pyarrow"
                )
                .map_batches(member, batch_format="pyarrow")
            )
            parts.append(ds)
        out = parts[0]
        for ds in parts[1:]:
            out = out.union(ds)
        os.makedirs(dest, exist_ok=True)
        out.write_parquet(dest)
        return {"result": True, "count": int(len(uniq)), "path": dest,
                "error": None}

    # ---------------- NOT-term exclusion --------------------------------

    def _exclusion_docids(self, exclude_text: str) -> np.ndarray | None:
        """Sorted unique docids containing ANY lemma of ``exclude_text``
        (the NOT side of a boolean query). None = exclusion analyzes to
        nothing (pure stopwords/punct) and the query runs unmodified;
        lemmas absent from the corpus exclude nothing (no reference
        missing-lemma semantics here — NOT of an absent term is a no-op,
        mirroring the SQL ``NOT EXISTS``). Gaps-only decode (tf/dl varint
        passes skipped), same cost shape as scoring the excluded terms."""
        lemmas = self._analyzer.analyze_query(exclude_text)
        if not lemmas:
            return None
        present = [lem for lem, _ in self._held_terms(dict.fromkeys(lemmas))]
        if not present:
            return np.empty(0, np.int64)
        blocks = self._term_blocks(present)
        parts = [
            self._decoded(blocks[lem], streams=DOCIDS)[0]
            for lem in present
        ]
        allv = np.concatenate(parts)
        if not len(allv):
            return allv
        return np.unique(allv)

    # ---------------- faceted result counts -----------------------------

    def _code_pairs(self) -> list[tuple[str, str]]:
        """Dense scope code -> (role, tool) decode table: the inverse of
        ``_pair_code``. O(#roles x #tools + #delta pairs) — independent
        of corpus size (same scale argument as ``_scope_lut``)."""
        roles = self.manifest["stats"].get("roles", [])
        tools = self.manifest["stats"].get("tools", [])
        nt = len(tools) + 1
        pairs = [
            ("" if ri == 0 else roles[ri - 1], "" if ti == 0 else tools[ti - 1])
            for ri in range(len(roles) + 1)
            for ti in range(nt)
        ]
        extra = sorted(self._extra_pairs.items(), key=lambda kv: kv[1])
        pairs.extend(p for p, _ in extra)
        return pairs

    def _matching_set(
        self,
        terms: list[tuple[str, int]],
        scope: str | None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unique matching docids (ascending) + each doc's dense scope
        code, after ALL the composable filtering surfaces (scope LUT,
        conjunctive floor, NOT-term exclusion, inclusive ts bounds) —
        the shared matching frame behind ``facets`` and
        ``significant_terms``. Gaps+scps decode only (no tf/dl varint
        pass); a doc's scope code rides the first posting seen for it.
        ``ts_min``/``ts_max`` are epoch-µs ints."""
        blocks = self._term_blocks([t[0] for t in terms])
        lut = self._scope_lut(scope) if scope else None
        d_parts, s_parts = [], []
        for lem, _df in terms:
            bl = blocks[lem]
            docid, sc = self._decoded(bl, streams=DOCIDS_SCOPES)
            if lut is not None:
                keep = lut[sc]
                docid, sc = docid[keep], sc[keep]
            d_parts.append(docid)
            s_parts.append(sc)
        ids = np.concatenate(d_parts) if d_parts else np.empty(0, np.int64)
        if not len(ids):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        scs = np.concatenate(s_parts)
        order = np.argsort(ids, kind="stable")
        sids = ids[order]
        neq = np.empty(len(sids), bool)
        neq[0] = True
        np.not_equal(sids[1:], sids[:-1], out=neq[1:])
        starts = np.flatnonzero(neq)
        codes = scs[order][starts]
        uniq = sids[starts]
        if conjunctive:
            cnt = np.diff(np.append(starts, len(sids)))
            keep = cnt >= len(terms)
            codes, uniq = codes[keep], uniq[keep]
        keep, _ = self._filter_docs(uniq, None, exclude, ts_min, ts_max)
        return uniq[keep], codes[keep]

    def _filter_docs(self, ids: np.ndarray, scores: np.ndarray | None = None,
                     exclude: str | None = None, ts_min=None, ts_max=None,
                     decay_t: tuple | None = None, negative: str | None = None,
                     negative_boost: float = 0.5):
        """The docid filter mask and the per-doc score rewrites every
        route shares. Over docid-sorted ``ids``, drop the docs holding
        any ``exclude`` lemma and the docs whose ts falls outside the
        INCLUSIVE epoch-µs ``ts_min``/``ts_max`` bounds; then multiply each kept doc's score by its recency
        ``decay_t`` factor (``decay_params``) and, when it holds any
        ``negative`` lemma, by ``negative_boost`` (both are per-doc
        multiplies, so they commute; the SQL twins run the same ops). A
        doc's lemmas and ts live in the one index that owns it, so a
        shard applies all of this exactly as one index over the union.
        -> (bool keep mask over ``ids``, the kept docs' rewritten scores;
        None without ``scores``)."""
        keep = np.ones(len(ids), bool)
        if exclude is not None and len(ids):
            excl = self._exclusion_docids(exclude)
            if excl is not None and len(excl):
                keep &= ~np.isin(ids, excl)
        if ts_min is not None or ts_max is not None:
            live = np.flatnonzero(keep)
            tss = self._ts_of_ids(ids[live])
            if ts_min is not None:
                keep[live[tss < ts_min]] = False
            if ts_max is not None:
                keep[live[tss > ts_max]] = False
        if scores is None:
            return keep, None
        ids, scores = ids[keep], scores[keep]
        if decay_t is not None and len(ids):
            scores = scores * decay_factor(self._ts_of_ids(ids), decay_t)
        if negative is not None and len(ids):
            neg = self._exclusion_docids(negative)
            if neg is not None and len(neg):
                scores = np.where(np.isin(ids, neg), scores * negative_boost, scores)
        return keep, scores

    def _parts(self, terms, scope, conjunctive=False, exclude=None,
               ts_min=None, ts_max=None) -> list[tuple]:
        """The matching set as this index's one aggregation part."""
        return [(self, *self._matching_set(
            terms, scope, conjunctive, exclude, ts_min, ts_max))]

    MAX_PIPELINE_BUCKETS = 65_536  # the ES search.max_buckets default

    def histogram_pipeline(
        self,
        query_text: str,
        field: str = "doc_len",
        interval: int = 10,
        window: int = 3,
        scope: str | None = None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
    ) -> dict:
        """Pipeline aggregations over the fixed-interval histogram (the
        Elasticsearch ``cumulative_sum`` / ``derivative`` / ``moving_fn``
        bucket post-transforms): the sparse histogram is first
        GAP-FILLED to the full min..max bucket axis with zero counts
        (ES pipeline aggs require ``min_doc_count=0`` for exactly this
        reason), then per bucket:

        - ``cum_docs`` — running sum of counts (cumulative_sum),
        - ``deriv`` — count minus the previous bucket's (derivative;
          NULL on the first bucket, matching ES emitting none),
        - ``mavg`` — trailing-window mean INCLUDING the current bucket
          (moving_fn unweightedAvg with the window clamped at the
          axis start), rounded to 6 dp. The rounded value is
          tie-free for any window < 128: a half-tie at the 6th
          decimal needs the reduced denominator divisible by 2^7, so
          engine/SQL round-half direction can never diverge.

        Bounded by ``MAX_PIPELINE_BUCKETS`` filled buckets (the ES
        ``search.max_buckets`` guard — a microsecond-interval ts
        histogram would otherwise materialize an unbounded axis).
        -> {'result', 'count', 'data': pa.Table(bucket, n_docs,
        cum_docs, deriv, mavg), 'error'}"""
        if not isinstance(window, int) or not 1 <= window < 128:
            return self._resp(error="bad_window", schema=HISTOGRAM_PIPELINE_SCHEMA)
        base = self.histogram(query_text, field=field, interval=interval,
                              scope=scope, conjunctive=conjunctive,
                              exclude=exclude, ts_min=ts_min, ts_max=ts_max)
        if not base["data"].num_rows:
            return self._resp(base["count"], base["error"], HISTOGRAM_PIPELINE_SCHEMA)
        bu = to_numpy(base["data"].column("bucket"))
        n_axis = (int(bu[-1]) - int(bu[0])) // interval + 1
        if n_axis > self.MAX_PIPELINE_BUCKETS:
            return self._resp(error="too_many_buckets", schema=HISTOGRAM_PIPELINE_SCHEMA)
        axis = bu[0] + np.arange(n_axis, dtype=np.int64) * interval
        filled = np.zeros(n_axis, np.int64)
        filled[(bu - bu[0]) // interval] = to_numpy(base["data"].column("n_docs"))
        cum = np.cumsum(filled)
        shifted = np.zeros(n_axis, np.int64)
        if n_axis > window:
            shifted[window:] = cum[:-window]
        win_sum = cum - shifted
        width = np.minimum(np.arange(1, n_axis + 1), window)
        mavg = np.round(win_sum / width, 6)
        deriv = [None, *np.diff(filled).tolist()]  # null on the first bucket
        return _cols_resp(HISTOGRAM_PIPELINE_SCHEMA, [axis, filled, cum, deriv, mavg],
                          base["count"])

    def facets_composite(
        self,
        query_text: str,
        scope: str | None = None,
        conjunctive: bool = False,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
        size: int = 10,
        after: tuple | list | None = None,
    ) -> dict:
        """Paginated multi-source bucket aggregation (the Elasticsearch
        ``composite`` aggregation): the (role, tool) PAIR buckets that
        actually occur in the FULL matching set, in the deterministic
        composite key order (role ASC, tool ASC), one page of ``size``
        buckets per call, resuming STRICTLY AFTER the ``after`` key —
        the aggregation analog of ``search_after``, the shape that lets
        a consumer stream an unbounded bucket space page by page
        without deep-offset re-aggregation. Unlike ``facets`` (two
        independent one-source groupings), composite emits occurring
        pairs. Same cost shape as ``facets``: a bincount over the dense
        scope-code space + an O(#roles x #tools) decode — the bucket
        space never exceeds the code space, so pagination here is an
        API contract, not a memory need (at 10^12 docs with
        high-cardinality sources the per-page cut is what keeps the
        response bounded). Composes with every filtering surface.
        -> {'result', 'count' (matching docs), 'data': pa.Table(role,
        tool, n_docs), 'after_key': (role, tool) | None, 'error'}"""
        if size <= 0:
            return self._resp(error="bad_size", schema=COMPOSITE_SCHEMA, after_key=None)
        if after is not None and (
            not isinstance(after, (tuple, list)) or len(after) != 2
        ):
            # a malformed resume key must be an error response, not an
            # IndexError (the bad_cursor convention)
            return self._resp(error="bad_after", schema=COMPOSITE_SCHEMA, after_key=None)
        _, parts, resp = self._matched(
            query_text, scope, conjunctive, exclude, ts_min, ts_max,
            schema=COMPOSITE_SCHEMA, after_key=None)
        if resp:
            return resp
        [(_, uniq, codes)] = parts
        pairs = self._code_pairs()
        per_code = np.bincount(codes, minlength=len(pairs))
        buckets = sorted(
            (pairs[c][0], pairs[c][1], int(per_code[c]))
            for c in np.flatnonzero(per_code)
        )
        if after is not None:
            ak = (str(after[0]), str(after[1]))
            buckets = [b for b in buckets if (b[0], b[1]) > ak]
        page = buckets[:size]
        return _rows_resp(COMPOSITE_SCHEMA, page, len(uniq), after_key=(
            (page[-1][0], page[-1][1]) if len(page) == size else None))

    def _fg_bg_grouped(self, uniq: np.ndarray):
        """ONE distributed Ray Data scan of the CURRENT index segments
        -> a grouped Dataset of exact (lemma, fg, bg) rows: fg = the
        lemma's LIVE postings inside the broadcast matching-docid set
        ``uniq`` (ray.put once, zero-copy per batch), bg = the lemma's
        LIVE df (overlay tombstone ranges ride as a second broadcast and
        mask stale base postings on BOTH counts). Each batch decodes its
        gaps stream only (tf/dl/poss column-pruned out of the read) and
        emits vocabulary-bounded partials into one groupby. Lemmas the
        overlay TOUCHES (``_delta_lemma``) are not corrected here — the
        caller must skip them in its final map and fold them driver-side
        via ``_touched_fg_bg`` (delta-sized work). Shared by
        ``significant_terms`` and ``rare_terms`` — the matching-set
        term-aggregation family."""
        import ray
        import ray.data as rd
        from ray.data.aggregate import Sum

        m_ref = ray.put(np.ascontiguousarray(uniq))
        overlay = self._has_deltas
        tomb_ref = (
            ray.put((np.ascontiguousarray(self._tomb_starts),
                     np.ascontiguousarray(self._tomb_ends)))
            if overlay else None
        )
        touched = sorted(self._delta_lemma) if overlay else []

        def fg_partials(batch: pa.Table) -> pa.Table:
            import ray as _ray

            from search_engine_ray.stages.encode import (
                binary_column_buffers,
                decode_gaps_range,
            )

            n = to_numpy(batch.column("n")).astype(np.int64)
            if not len(n):
                return to_table(_FG_BG_SCHEMA)
            cum = np.concatenate(([0], np.cumsum(n)))
            docids = decode_gaps_range(
                binary_column_buffers(batch.column("gaps")), cum, 0, len(n)
            )
            m = _ray.get(m_ref)  # zero-copy plasma view, shared per node
            pos = np.searchsorted(m, docids)
            member = np.zeros(len(docids), bool)
            inb = pos < len(m)
            member[inb] = m[pos[inb]] == docids[inb]
            ts, te = _ray.get(tomb_ref) if tomb_ref is not None else (None, None)
            if ts is not None and len(ts):
                # overlay: count LIVE postings only — stale base postings
                # of re-indexed/deleted conversations are masked by the
                # broadcast tombstone ranges (the _tomb_keep_mask rule)
                idx = np.searchsorted(ts, docids, side="right") - 1
                idxc = np.clip(idx, 0, len(ts) - 1)
                live = ~((idx >= 0) & (docids < te[idxc]))
                member &= live
                bg = np.add.reduceat(live.astype(np.int64), cum[:-1])
            else:
                bg = n
            fg = np.add.reduceat(member.astype(np.int64), cum[:-1])
            t = to_table(_FG_BG_SCHEMA, [batch.column("lemma"), fg, bg])
            g = t.group_by("lemma").aggregate([("fg", "sum"), ("bg", "sum")])
            return g.rename_columns(["lemma", "fg", "bg"])

        ds = (
            rd.read_parquet(
                layout.index_dir(self.out_dir), columns=["lemma", "n", "gaps"]
            )
            .map_batches(fg_partials, batch_format="pyarrow")
            .groupby("lemma")
            .aggregate(Sum("fg", alias_name="fg"), Sum("bg", alias_name="bg"))
        )
        return ds, touched

    def _touched_fg_bg(self, touched: list[str], uniq: np.ndarray):
        """Exact (lemma, fg, bg) rows for overlay-touched lemmas from
        their merged (overlay-folded) posting decode — delta-sized lemma
        set, df-bounded work per lemma (the frames the query path
        memoizes). Lemmas with no live postings are dropped."""
        if not touched:
            return []
        blocks = self._term_blocks(touched)
        rows = []
        for lem in touched:
            bl = blocks[lem]
            d = self._decoded(bl, streams=DOCIDS)[0]
            if not len(d):
                continue
            p2 = np.searchsorted(uniq, d)
            inb2 = p2 < len(uniq)
            fg_v = int((uniq[p2[inb2]] == d[inb2]).sum())
            rows.append((lem, fg_v, len(d)))
        return rows

    def significant_terms(
        self,
        query_text: str,
        scope: str | None = None,
        conjunctive: bool = False,
        k: int = 10,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
    ) -> dict:
        """Significant-terms aggregation (the Elasticsearch
        ``significant_terms`` shape): vocabulary lemmas most
        OVERREPRESENTED in the query's matching set vs the whole-corpus
        background, ranked by the JLH score ``(fg% - bg%) * (fg% / bg%)``
        (fg% = fg_docs / |matching set|, bg% = df / n_docs), ties broken
        (score DESC, lemma ASC); the query's own lemmas are excluded.

        Foreground counts come from ONE distributed Ray Data scan of the
        CURRENT index segments: each batch of posting blocks decodes its
        gaps stream only (the counting decode — tf/dl/poss untouched and
        column-pruned out of the read), marks members of the broadcast
        matching-docid set with one searchsorted, per-block member
        counts fold by ``reduceat`` (encoder invariant: every block has
        n >= 1), and the batch emits vocabulary-bounded (lemma, fg, bg)
        partials into ONE groupby — bg = Σ block n IS the lemma's df, so
        no dictionary broadcast and nothing corpus-sized anywhere.
        Per-block partial top-k keeps the driver merge at k rows per
        grouped block. The matching-docid set is the documented
        broadcast side (``ray.put`` once, zero-copy ``ray.get`` per
        batch); a standing significant-terms surface over corpus-sized
        matching sets should semi-join on a docid-bucketed key instead.

        Delta overlays fold exactly: the base-segment scan carries the
        tombstone ranges as a second broadcast and counts only LIVE
        postings (both fg membership and the per-block df partial), so
        re-indexed conversations' stale base postings never contribute;
        lemmas the overlay touches (``_delta_lemma``) are excluded from
        the distributed top-k and re-scored driver-side from their
        merged (overlay-folded) posting decode — delta-sized work, the
        same frames the query path already memoizes. Results are pinned
        identical to a fresh rebuild of the modified corpus. Composes
        with the other filtering surfaces like ``facets``.

        -> {'result', 'count' (matching docs), 'data':
        pa.Table(rank, lemma, fg_docs, bg_docs, score), 'error'}
        """
        return self._term_agg(SIG_TERMS_SCHEMA, _jlh_rank, query_text, scope,
                              conjunctive, k, exclude, ts_min, ts_max)

    def rare_terms(
        self,
        query_text: str,
        scope: str | None = None,
        conjunctive: bool = False,
        k: int = 10,
        max_doc_count: int = 10,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
    ) -> dict:
        """Rare-terms aggregation (the Elasticsearch ``rare_terms``
        bucket): vocabulary lemmas occurring in the query's matching
        set whose GLOBAL (live) df is at most ``max_doc_count`` —
        long-tail terms ordinary ``terms`` buckets bury — ranked
        (bg ASC, lemma ASC), top-``k``; the query's own lemmas are
        excluded. Rides the same ONE-distributed-scan frame as
        ``significant_terms`` (``_fg_bg_grouped``): per-block gaps-only
        decode, broadcast matching set, vocabulary-bounded partials
        into one groupby, per-block partial top-k, tombstone-masked
        with overlay-touched lemmas folded driver-side — so the delta
        overlay is exact. Composes with the filtering surfaces like
        ``facets``. All compared columns are integers.

        -> {'result', 'count' (matching docs), 'data':
        pa.Table(rank, lemma, fg_docs, bg_docs), 'error'}"""
        if k < 1 or max_doc_count < 1:
            return self._resp(error="bad_k" if k < 1 else "bad_max_doc_count",
                              schema=RARE_TERMS_SCHEMA)
        return self._term_agg(RARE_TERMS_SCHEMA, functools.partial(_rare_rank, int(max_doc_count)),
                              query_text, scope, conjunctive, k, exclude, ts_min, ts_max)

    def _term_agg(self, schema: pa.Schema, rank, query_text: str, scope, conjunctive,
                  k: int, exclude, ts_min, ts_max) -> dict:
        """The one body of the matching-set term aggregations: the top
        ``k`` vocabulary lemmas of the query's matching set by ``rank``
        (``_top_terms``) over the exact (lemma, fg, bg) rows of
        ``_fg_bg_grouped`` and ``_touched_fg_bg``, the query's own lemmas
        excluded. Each grouped block keeps its own top ``k``; the driver
        ranks their union with the overlay-touched lemmas' rows by the
        same rule. -> the response whose data, of ``schema``, is (rank,
        lemma, fg_docs, bg_docs, *the rule's extra columns)."""
        terms, parts, resp = self._matched(
            query_text, scope, conjunctive, exclude, ts_min, ts_max, schema=schema)
        if resp:
            return resp
        [(_, uniq, _)] = parts
        grouped, touched_all = self._fg_bg_grouped(uniq)
        qlems = {t[0] for t in terms}
        touched = sorted(set(touched_all) - qlems)
        skip = to_arrow(sorted(qlems | set(touched)), pa.string())
        top = functools.partial(_top_terms, functools.partial(
            rank, n_fg=float(len(uniq)), n_docs=float(self.n_docs)), int(k))

        def block_top(batch: pa.Table) -> pa.Table:
            keep = ~to_numpy(pc.is_in(batch.column("lemma"), value_set=skip))
            cols = (to_numpy(batch.column(c))[keep] for c in _FG_BG_SCHEMA.names)
            return to_table(_FG_BG_SCHEMA, top(*cols)[:3])

        rows = self._touched_fg_bg(touched, uniq)
        cols = [[np.array([r[i] for r in rows], t)]
                for i, t in enumerate((object, np.int64, np.int64))]
        for b in grouped.map_batches(block_top, batch_format="pyarrow").iter_batches(
                batch_size=None, batch_format="pyarrow"):
            if b.num_rows:
                for c, name in zip(cols, _FG_BG_SCHEMA.names):
                    c.append(to_numpy(b.column(name)))
        ranked = top(*(np.concatenate(c) for c in cols))
        return _cols_resp(schema, [np.arange(1, len(ranked[0]) + 1), *ranked], len(uniq))

    def _alive(self, ids: np.ndarray) -> np.ndarray:
        """Bool mask over docids: which are docs of the served view
        (``_doc_rows``)."""
        return self._doc_rows(ids)[0]

    def _conv_list(self) -> pa.Array:
        """The sorted conversation list — a docid's conv rank indexes it
        (the compaction sidecar when present, layout._load_sorted_convs)
        — loaded once per engine."""
        if self._convs is None:
            self._convs = layout._load_sorted_convs(self.out_dir)
        return self._convs

    def _parquet(self, path: str) -> pq.ParquetFile:
        """One open ParquetFile per store or text source file (its footer
        parsed once)."""
        pf = self._pfs.get(path)
        if pf is None:
            pf = self._pfs[path] = pq.ParquetFile(path)
        return pf

    def _row_group(self, kind: str, path: str, g: int, columns, decode):
        """Row group ``g`` of parquet file ``path``, its ``columns`` read
        and shaped by ``decode(table)``, cached as ``(kind, path, g)``
        (``dict`` for the lemma dictionary, ``index`` and ``poss`` for
        the posting index, ``docs`` for the doc store, ``text`` for text
        sources): none changes under an engine, so a
        delta generation's files get their own keys. A miss decodes
        outside the cache lock; a row group above a quarter of the
        budget is returned uncached."""
        key = (kind, path, g)
        got = self._cache.peek(key)
        if got is None:
            got = decode(self._parquet(path).read_row_group(g, columns=list(columns)))
            if _nbytes(got) <= self._cache.max_bytes // 4:
                self._cache.put(key, got)
        return got

    def _groups(self, store: str) -> tuple[list, list, list]:
        """The row-group directory of one key-sorted store (``_STORES``):
        ``(lo, hi, where)``, the min and max key and the ``(path, row
        group)`` of each non-empty row group, ascending by min key —
        read once per engine from the footers' statistics. A writer
        drops a string bound longer than its statistics size (4 KiB in
        parquet-cpp), which pyarrow then reads as None or "": such a
        group's bounds come from its key column instead."""
        got = self._dirs.get(store)
        if got is None:
            key = _STORES[store][1]
            rgs = []
            for p in _store_files(self.out_dir, store):
                pf = self._parquet(p)
                ci = pf.schema_arrow.get_field_index(key)
                for g in range(pf.metadata.num_row_groups):
                    if pf.metadata.row_group(g).num_rows:
                        st = pf.metadata.row_group(g).column(ci).statistics
                        if st is None or not st.has_min_max or "" in (st.min, st.max):
                            mm = pc.min_max(pf.read_row_group(g, columns=[key]).column(0))
                            lo, hi = mm["min"].as_py(), mm["max"].as_py()
                        else:
                            lo, hi = st.min, st.max
                        rgs.append((lo, hi, p, g))
            rgs.sort()
            got = self._dirs[store] = ([r[0] for r in rgs], [r[1] for r in rgs],
                                       [r[2:] for r in rgs])
        return got

    def _groups_meeting(self, store: str, lo, hi) -> list[tuple[str, int]]:
        """``(path, row group)`` of each row group of ``store`` whose key
        bounds meet the key range ``[lo, hi]``, in directory order."""
        los, his, where = self._groups(store)
        n = bisect.bisect_right(los, hi)
        return [w for h, w in zip(his[:n], where) if h >= lo]

    def _vocab(self, lo: str | None = None, hi: str | None = None) -> Iterator[_Vocab]:
        """The decoded lemma-dictionary row groups (lemma -> df, in lemma
        order) whose lemma bounds meet ``[lo, hi]``, every group when
        ``lo`` is None — one at a time, so a sweep holds one group that
        the cache cannot."""
        where = self._groups("dict")[2] if lo is None else self._groups_meeting("dict", lo, hi)
        return (self._row_group("dict", p, g, ("lemma", "df"), _Vocab) for p, g in where)

    def _doc_rows(self, ids: np.ndarray, fields=()) -> tuple:
        """Per-doc fields of any docids, in their order: ``(present,
        *values)``. ``present`` marks the docs of the served view — in
        the doc store and not tombstoned, or in a delta generation; each
        of ``fields`` (``doc_len`` and epoch-µs ``ts`` as int64,
        ``role`` and ``tool`` as str with null as "") is 0 or "" where
        absent. One gather at every index size: a searchsorted over
        the row groups' first docids finds each docid's row group, whose
        decoded columns come from the engine cache (``_row_group``);
        delta rows then win over the tombstone-masked base rows."""
        ids = np.asarray(ids, np.int64)
        present = np.zeros(len(ids), bool)
        out = [np.zeros(len(ids), np.int64 if f in ("doc_len", "ts") else object)
               for f in fields]
        for o in out:
            if o.dtype == object:
                o.fill("")  # (np.full costs several times more on k rows)

        def gather(cols: dict, rows) -> None:  # rows: indices or a slice of ids
            d, want = cols["docid"], ids[rows]
            pos = np.searchsorted(d, want)
            hit = d.take(pos, mode="clip") == want
            if not hit.all():
                rows, pos = np.arange(len(ids))[rows][hit], pos[hit]
            present[rows] = True
            for f, o in zip(fields, out):
                o[rows] = cols[f][pos]

        firsts, _, where = self._groups("docs")
        # a docid below the first group's min maps to that group, which
        # does not hold it
        gi = np.maximum(np.searchsorted(firsts, ids, "right") - 1, 0)
        # slices of ids while they are kept whole and in row-group order
        # (sorted docids), else index arrays grouped by row group
        rows = np.flatnonzero(self._tomb_keep_mask(ids)) if self._has_deltas else None
        gs = gi if rows is None else gi[rows]
        if (gs[1:] < gs[:-1]).any():
            order = np.argsort(gs, kind="stable")
            rows, gs = (order if rows is None else rows[order]), gs[order]
        cuts = ([] if not len(gs) or gs[0] == gs[-1]
                else (np.flatnonzero(gs[1:] != gs[:-1]) + 1).tolist())
        for s, e in zip([0, *cuts], [*cuts, len(gs)] if len(gs) and where else []):
            gather(self._row_group("docs", *where[gs[s]], _DOC_COLUMNS, _decode_doc_group),
                   slice(s, e) if rows is None else rows[s:e])
        if self._has_deltas and len(self._delta_docs["docid"]):
            gather(self._delta_docs, slice(None))
        return (present, *out)

    def _cursor_docid(self, conv_id, turn_idx) -> int | None:
        """(conv_id, turn_idx) -> docid for the search_after cursor, or
        None when the conversation is unknown / turn_idx out of range.
        Resolves the conv rank in the sorted conversation list
        (``_conv_list``; rank order == sorted conv_id order, so at 10^12
        docs the lookup becomes a row-group-pruned read of the same
        sorted sidecar instead of a full load — one string per
        conversation is the documented small side everywhere else
        too)."""
        try:
            turn_idx = int(turn_idx)
        except (TypeError, ValueError):
            return None
        if not 0 <= turn_idx < (1 << TURN_BITS):
            return None
        convs = self._conv_list()
        conv_id = str(conv_id)
        # binary search over the sorted list (UTF-8 byte order == code
        # point order, so str comparison agrees with the sort)
        lo = bisect.bisect_left(convs, conv_id, key=lambda v: v.as_py())
        if lo == len(convs) or convs[lo].as_py() != conv_id:
            return None
        return (lo << TURN_BITS) | turn_idx

    def _text_locator(self, path: str) -> tuple:
        """(open ParquetFile, docids, row groups, rows) for one text source
        file: docid-sorted numpy arrays giving where each turn's row sits,
        built from the file's conv_id/turn_idx columns on first touch
        (16 B per turn). A (conv_id, turn_idx) written twice keeps its
        LAST row. Rows of conversations outside the base have no docid
        and are left out (re-indexing keeps conv ranks, delta.py). Built
        in full before one dict store publishes it: handler threads share
        the engine and must never see half a locator."""
        loc = self._text_locs.get(path)
        if loc is not None:
            return loc
        pf = self._parquet(path)
        t = pf.read(columns=["conv_id", "turn_idx"], use_threads=False)
        rank = to_numpy(pc.index_in(t.column("conv_id"), value_set=self._conv_list()),
                        fill=-1).astype(np.int64)
        turn = to_numpy(t.column("turn_idx"), fill=-1).astype(np.int64)
        row = np.flatnonzero((rank >= 0) & (turn >= 0) & (turn < (1 << TURN_BITS)))
        docids = (rank[row] << TURN_BITS) | turn[row]
        order = np.argsort(docids, kind="stable")
        docids, row = docids[order], row[order]
        last = np.append(docids[1:] != docids[:-1], True)
        docids, row = docids[last], row[last]
        starts = np.cumsum([0] + [pf.metadata.row_group(g).num_rows
                                  for g in range(pf.num_row_groups)])
        rg = np.searchsorted(starts, row, "right") - 1
        loc = (pf, docids, rg.astype(np.int32), (row - starts[rg]).astype(np.int32))
        self._text_locs[path] = loc
        return loc

    def _texts(self, ids: np.ndarray, conv_ids: list[str]) -> list[str | None]:
        """The text of each doc ``ids[i]`` (of conversation
        ``conv_ids[i]``), or None where its source holds no such turn.
        Re-indexed conversations read their delta generation's input
        files, everything else the build's, so the text always matches
        the CURRENT index view; over several files the last one holding
        a turn wins. A point read: the docids are looked up in each
        file's locator, and the ``text`` column of each row group
        holding them comes from the engine cache (``_text_column``), so
        a repeat touch decodes nothing."""
        ids = np.asarray(ids, np.int64)
        dpaths = self._delta_text_paths
        groups: dict[tuple, list[int]] = {}
        for i, c in enumerate(conv_ids):
            groups.setdefault(tuple(dpaths.get(c) or self.transcripts_paths), []).append(i)
        where: dict[int, tuple[str, int, int]] = {}  # i -> (path, row group, row)
        for paths, idx in groups.items():
            want = ids[idx]
            for p in paths:
                _pf, docids, rgs, rows = self._text_locator(p)
                if not len(docids):
                    continue
                pos = np.minimum(np.searchsorted(docids, want), len(docids) - 1)
                for j in np.flatnonzero(docids[pos] == want):
                    where[idx[j]] = (p, int(rgs[pos[j]]), int(rows[pos[j]]))
        reads: dict[tuple[str, int], list[tuple[int, int]]] = {}
        for i, (p, g, r) in where.items():
            reads.setdefault((p, g), []).append((i, r))
        out: list[str | None] = [None] * len(ids)
        for (p, g), hits in reads.items():
            col = self._text_column(p, g)
            vals = col.take(to_arrow([r for _, r in hits], pa.int32())).to_pylist()
            for (i, _), x in zip(hits, vals):
                out[i] = x or ""
        return out

    def _text_column(self, path: str, g: int) -> pa.Array:
        """Row group ``g`` of text source file ``path``: its decoded
        ``text`` column (``_row_group``, cached as ``("text", path,
        g)``)."""
        return self._row_group("text", path, g, ("text",),
                               lambda t: t.column(0).combine_chunks())

    MLT_MAX_TERMS = 25

    def more_like_this(
        self,
        conv_id: str,
        turn_idx: int,
        scope: str | None = None,
        offset: int = 0,
        limit: int = DEFAULT_PAGE_SIZE,
        max_terms: int = MLT_MAX_TERMS,
    ) -> dict:
        """More-like-this (the Elasticsearch ``more_like_this`` shape):
        rank documents similar to one probe turn. The probe's analyzed
        lemma sequence yields per-lemma tf; each corpus-present lemma is
        weighted ``tf * idf`` (the BM25 idf, ``ln(1+(N-df+0.5)/(df+0.5))``
        — one consistent idf across the engine) and the top
        ``max_terms`` by (weight DESC, lemma ASC) become a standard
        disjunctive BM25 query, with the probe turn itself excluded
        from the results and the exact count.

        Term selection reflects tf over the probe's analyzed token
        stream — identical to the indexed tf, so the SQL oracle derives
        the same selection from its analyzer CTEs. Routed through the
        exhaustive scorer (MLT is a discovery surface, not the hot
        path; block-max applies unchanged if needed — the selected
        terms are ordinary dictionary terms). With a live delta overlay
        the df lookups reflect the BASE dictionary (the suggest/fuzzy
        boundary: a probe lemma first introduced by a delta generation
        is skipped until compaction), while the selected terms' postings
        and df DO fold through the overlay.

        -> the standard search response; ``error='not_found'`` when the
        probe (conv_id, turn_idx) has no text in the current view."""
        if not self.valid_scope(scope):
            return self._resp(error="bad_scope")
        src = self._cursor_docid(conv_id, turn_idx)
        text = None if src is None else self._texts([src], [conv_id])[0]
        if text is None:
            return self._resp(error="not_found")
        analyze_phrase = getattr(self._analyzer, "analyze_phrase", None)
        seq = (
            analyze_phrase(text)
            if analyze_phrase is not None
            else self._analyzer.analyze_query(text)
        )
        if not seq:
            return self._resp(count=0)
        weighted = []
        for lem, tf in Counter(seq).items():
            df = self._df_of(lem)
            if df:
                weighted.append((-tf * self.idf(df), lem, df))
        weighted.sort()
        sel = [(lem, df) for _w, lem, df in weighted[:max_terms]]
        if not sel:
            return self._resp(count=0)
        terms = self._live_terms(sel)
        if not terms:
            return self._resp(count=0)
        ids, scores = self.score_exhaustive(terms, scope, False)
        if len(ids):
            keep = ids != src
            ids, scores = ids[keep], scores[keep]
        count = len(ids)
        ids, scores = self._topk(ids, scores, offset + limit)
        ids, scores = ids[offset:], scores[offset:]
        tbl = self._enrich(ids, scores, terms, False)
        return {"result": True, "count": int(count), "data": tbl, "error": None}

    def search_conversations(
        self,
        query_text: str,
        scope: str | None = None,
        offset: int = 0,
        limit: int = DEFAULT_PAGE_SIZE,
        conjunctive: bool = False,
    ) -> dict:
        """Conversation-level ranking: group the turn-level BM25 matching
        set by conversation and rank conversations by their best turn's
        score (max-passage aggregation — the standard passage-to-document
        rule), carrying the matching-turn count and the best turn's
        index. The analog of grouping the reference's page results by
        site; Elasticsearch ships the same shape as a ``top_hits``
        collapse.

        Evaluation rides the exhaustive scorer's sorted full matching
        set: docid order IS (conv_id, turn_idx) order, so grouping is a
        boundary scan (``reduceat`` max / count per contiguous conv run
        — no shuffle, no hash map) and the best turn is the FIRST
        turn-index position achieving the group max (deterministic at
        exact float ties; both engines compute bit-identical sums for
        identical (tf, dl) turn pairs, so the tie-break agrees).
        Conversation tie-break: (score DESC, conv_id ASC) — conv_rank
        ascending is conv_id-lexicographic by construction (docid.py).

        -> {'result', 'count' (matching CONVERSATIONS), 'data':
        pa.Table(conv_id, n_turns, best_turn_idx, score), 'error'}.
        Missing-lemma semantics match every other mode (any absent query
        lemma -> zero results)."""
        err, q = self._search_params(Query(query_text, scope, offset, limit))
        if err:
            return self._resp(error=err, schema=CONV_RESULT_SCHEMA)
        offset, limit = q.offset, q.limit
        terms, resp = self._planned(query_text, scope, schema=CONV_RESULT_SCHEMA)
        if resp:
            return resp
        ids, scores = self.score_exhaustive(terms, scope, conjunctive)
        if not len(ids):
            return self._resp(schema=CONV_RESULT_SCHEMA)
        cr = ids >> np.int64(TURN_BITS)
        neq = np.empty(len(cr), bool)
        neq[0] = True
        np.not_equal(cr[1:], cr[:-1], out=neq[1:])
        starts = np.flatnonzero(neq)
        counts = np.diff(np.append(starts, len(cr)))
        cmax = np.maximum.reduceat(scores, starts)
        is_max = scores == np.repeat(cmax, counts)
        pos = np.where(is_max, np.arange(len(cr), dtype=np.int64), len(cr))
        best_pos = np.minimum.reduceat(pos, starts)
        count = len(starts)
        k = offset + limit
        win_rank, win_scores = self._topk(cr[starts], cmax, k)
        gi = np.searchsorted(cr[starts], win_rank)
        win_rank, win_scores, gi = win_rank[offset:], win_scores[offset:], gi[offset:]
        best_doc = ids[best_pos[gi]]
        et = self._enrich(best_doc, win_scores, terms, False)
        return _cols_resp(CONV_RESULT_SCHEMA, [et.column("conv_id"), counts[gi],
                                               et.column("turn_idx"), et.column("score")], count)

    # ---------------- reference-parity scorer (G3/G4, D4, J4) ----------

    def _max_relevance(self) -> float:
        """Global max per-doc Σtf — the reference's cached denominator
        (``SearchServiceImpl.java:25,147-153``; ``IndexRepository.java:14-16``).
        doc_len == Σtf per doc, so this is max(doc_len) over the served
        view: per doc-store row group the footer's doc_len maximum
        (exact for int columns written by arrow; no data read), or, where
        the footer lacks it or a tombstoned range meets the group, the
        max over the group's live docs decoded through the engine cache
        (``_doc_rows``' payload), then the delta docs'."""
        if self._ref_max_relevance is None:
            m = int(self._delta_docs["doc_len"].max(initial=0)) if self._has_deltas else 0
            for lo, hi, (p, g) in zip(*self._groups("docs")):
                pf = self._parquet(p)
                st = pf.metadata.row_group(g).column(
                    pf.schema_arrow.get_field_index("doc_len")).statistics
                torn = self._has_deltas and self._tombed(lo, hi)
                if st is not None and st.has_min_max and not torn:
                    m = max(m, int(st.max))
                    continue
                grp = self._row_group("docs", p, g, _DOC_COLUMNS, _decode_doc_group)
                dls = grp["doc_len"][self._tomb_keep_mask(grp["docid"])] if torn else grp["doc_len"]
                m = max(m, int(dls.max(initial=0)))
            self._ref_max_relevance = float(m or 1)
        return self._ref_max_relevance

    # ---------------- prefix (wildcard) term expansion -----------------

    PREFIX_MIN_LEN = 2
    PREFIX_MAX_EXPANSION = 32
    FUZZY_MAX_EXPANSION = 16

    def expand_prefix(self, prefix: str, max_expansion: int = PREFIX_MAX_EXPANSION):
        """Vocabulary lemmas starting with ``prefix`` (analyzer-folded),
        capped at ``max_expansion`` by (df DESC, lemma ASC) — the
        wildcard-query expansion step. The lemma-sorted dictionary makes
        the prefix a contiguous key range: only the row groups it meets
        are scanned (``_expand``). Returns [(lemma, df), ...]."""
        toks = self._norm_text(prefix or "").split()
        if not toks or len(toks[0]) < self.PREFIX_MIN_LEN:
            return []
        return self._expand(toks[0], None, max_expansion)

    WILDCARD_MAX_EXPANSION = 32

    def expand_wildcard(self, pattern: str,
                        max_expansion: int = WILDCARD_MAX_EXPANSION):
        """Vocabulary lemmas matching a Lucene-style wildcard pattern
        (``*`` any run, ``?`` one char; anchored over the whole lemma),
        capped at ``max_expansion`` by (df DESC, lemma ASC) — the same
        rewrite cap rule as ``expand_prefix``, over the dictionary row
        groups of the pattern's literal prefix (a leading wildcard scans
        every group — bounded by the dictionary, never the corpus).
        Returns ``[(lemma, df), ...]``, or None for an unparseable /
        under-literal pattern (``analyzer.wildcard_parse``'s guard)."""
        parsed = analyzer.wildcard_parse(pattern)
        return None if parsed is None else self._expand(parsed[1], parsed[0], max_expansion)

    REGEXP_MAX_EXPANSION = 32

    def expand_regexp(self, pattern: str,
                      max_expansion: int = REGEXP_MAX_EXPANSION):
        """Vocabulary lemmas matching a Lucene-RegexpQuery-style
        pattern (anchored over the whole lemma), capped at
        ``max_expansion`` by (df DESC, lemma ASC) — ``expand_wildcard``
        with another parser (a pattern opening with syntax or holding a
        ``|`` scans every dictionary group). Returns ``[(lemma, df), ...]``, or None for
        an invalid pattern (``analyzer.regexp_parse``'s charset/RE2-
        compile guard)."""
        parsed = analyzer.regexp_parse(pattern)
        return None if parsed is None else self._expand(parsed[1], parsed[0], max_expansion)

    def _expand(self, lit: str, rx: str | None, max_expansion: int) -> list[tuple[str, int]]:
        """(lemma, df) of the dictionary lemmas that start with ``lit``
        and, when ``rx`` is given, match it over the whole lemma (one
        vectorized RE2 pass per row group), capped at ``max_expansion``
        by (df DESC, lemma ASC). Only the row groups of ``lit``'s key
        range are read, and in each only the sorted slice of that range;
        every lemma of every group when ``lit`` is empty."""
        hi = lit + chr(0x10FFFF)
        hits = []
        for d in self._vocab(lit, hi) if lit else self._vocab():
            a, b = np.searchsorted(d.lemmas, [lit, hi]) if lit else (0, len(d))
            idx = np.arange(a, b)
            if rx is not None and b > a:
                m = pc.match_substring_regex(d.arrow.slice(a, b - a), "^(?:" + rx + ")$")
                idx = a + np.flatnonzero(to_numpy(m))
            hits += zip(d.lemmas[idx].tolist(), d.df[idx].tolist())
        hits.sort(key=lambda r: (-r[1], r[0]))
        return hits[:max_expansion]

    def complete(self, prefix: str, k: int = 10) -> dict:
        """Completion suggester (the Elasticsearch suggest-as-you-type
        shape, df-weighted): the top-``k`` vocabulary lemmas starting
        with the analyzer-folded prefix, ranked (df DESC, lemma ASC) —
        a public surface over ``expand_prefix``'s contiguous
        lemma-sorted dictionary range (only the row groups it meets are
        read).
        -> {'result', 'count' (matches before the cap), 'data':
        pa.Table(lemma, df), 'error'}"""
        if k <= 0:
            return self._resp(error="bad_k", schema=COMPLETE_SCHEMA)
        toks = self._norm_text(prefix or "").split()
        if not toks or len(toks[0]) < self.PREFIX_MIN_LEN:
            return self._resp(error="short_prefix", schema=COMPLETE_SCHEMA)
        hits = self.expand_prefix(prefix, max_expansion=1 << 30)
        return _rows_resp(COMPLETE_SCHEMA, hits[:k], len(hits))

    # ---------------- fuzzy term suggestions (did-you-mean) -----------

    def suggest(self, term: str, max_dist: int = 2, k: int = 5) -> pa.Table:
        """Vocabulary terms within ``max_dist`` edits of ``term`` (after
        the analyzer's charset fold), ranked (distance ASC, df DESC,
        lemma ASC), top-``k`` — the did-you-mean primitive the reference
        lacks entirely. One in-process sweep over every dictionary row
        group (banded Levenshtein with a length prefilter — |len diff|
        > max_dist can never match), each group decoded once per engine
        while the cache holds it.

        Returns ``(suggestion, df, dist)``. Suggestions reflect the BASE
        dictionary: delta-only lemmas join at the next compaction, and a
        lemma whose every posting was tombstoned by a live delta may
        still be suggested with its stale df until then (a vocabulary
        hint, not a result set — searching it simply returns 0 docs;
        drift is bounded by the delta volume)."""
        toks = self._norm_text(term or "").split()
        rows = ([r for d in self._vocab() for r in _suggest_scan(toks[0], d.items(), max_dist)]
                if toks else [])
        rows.sort(key=lambda r: (r[2], -r[1], r[0]))
        return to_table(SUGGEST_SCHEMA, zip(*rows[:k]))

    def suggest_query(self, query_text: str, max_dist: int = 2) -> dict:
        """Whole-query did-you-mean (the Elasticsearch phrase-suggester
        shape, one candidate per token): normalize + stopword/length
        filter the raw query with the index's analyzer rules, then per
        surviving token — if its LEMMA is in the dictionary the token
        needs no rescue (the lemma is the suggestion, its own df rides
        along); otherwise the ``suggest`` rule picks the best
        vocabulary candidate by (distance ASC, df DESC, lemma ASC)
        within ``max_dist`` edits of the normalized token; a token with
        no candidate at all keeps itself (dist -1, df 0 — visible but
        unfixable). ``dist`` is always the EXACT unbounded edit
        distance between suggestion and token (an inflected present
        token legitimately shows dist > 0: 'running' -> lemma 'run').
        ``corrected`` joins the suggestions in token order — feed it
        back to ``search``. Base-dictionary semantics like ``suggest``
        (delta drift bounded, documented there). -> {'result',
        'corrected', 'changed': bool, 'count' (surviving tokens),
        'data': pa.Table(pos, token, suggestion, df, dist), 'error'}"""
        toks = [
            t for t in self._norm_text(query_text or "").split()
            if len(t) >= self._min_token_len and t not in self._stopset
        ]
        if not toks:
            return self._resp(error="empty_query", schema=SUGGEST_QUERY_SCHEMA,
                              corrected="", changed=False)
        rows = []
        for pos, tok in enumerate(toks):
            lem = self._lemmatize_token(tok)
            df = self._df_of(lem)
            if df is not None:
                rows.append((pos, tok, lem, int(df), _lev(lem, tok)))
                continue
            cand = self.suggest(tok, max_dist=max_dist, k=1)
            if cand.num_rows:
                rows.append((
                    pos, tok,
                    cand.column("suggestion")[0].as_py(),
                    int(cand.column("df")[0].as_py()),
                    _lev(cand.column("suggestion")[0].as_py(), tok),
                ))
            else:
                rows.append((pos, tok, tok, 0, -1))
        return _rows_resp(SUGGEST_QUERY_SCHEMA, rows, len(rows),
                          corrected=" ".join(r[2] for r in rows),
                          changed=any(r[1] != r[2] for r in rows))

    # ---------------- phrase queries (positions) -----------------------

    @property
    def has_positions(self) -> bool:
        """Phrase queries need the per-posting position stream — built
        into the index when ``BuildConfig.store_positions`` (default)
        and the analyzer emits positions; with live delta generations
        every generation must carry them too."""
        if not self.manifest["stats"].get("positions", False):
            return False
        return (not self._has_deltas) or self._delta_positions_ok

    def _term_positions_full(self, bl: dict, tf_full: np.ndarray) -> np.ndarray:
        """Flat absolute positions of a term's FULL posting list
        (``tf_full`` = the already-decoded tf stream; posting i owns
        ``pos[cumsum(tf)[i] : cumsum(tf)[i+1]]``). Cached per term — ONE
        varint pass over the term's rows of the poss stream, cut from the
        cached ``poss`` row groups (``_poss_rows``). A delta-overlaid
        entry keeps its merged positions."""
        if "flat" in bl:
            return bl["pos_flat"]
        return self._cache.get(("pos", bl["lemma"]), lambda: decode_poss_range(
            self._poss_rows(bl["where"]), bl["cum_cf"], 0, len(bl["n"]), tf_full))

    def score_phrase(self, phrase: list[str], k: int, scope: str | None = None,
                     within_first: int | None = None,
                     last_alts: list[str] | None = None):
        """Exact phrase match + BM25 ranking: a doc matches iff the
        phrase lemmas appear at CONSECUTIVE positions of its
        surviving-token sequence (the generalization of the reference's
        only adjacency-aware code, the snippet best-window scan —
        ``services/search/SnippetCreator.java:84-102``), followed by one
        of ``last_alts`` when given (match-phrase-prefix); matches are
        ranked by BM25 over the phrase's distinct lemmas with the
        standard (score DESC, docid ASC) tie-break.

        Returns ``(ids, scores, count)`` or ``None`` for no-results
        (a phrase lemma absent from the corpus)."""
        got = self._phrase_matches(phrase, scope, within_first, last_alts)
        if got is None:
            return None
        matched, terms, data = got
        score = self._bm25_at(terms, data, matched, present=True)
        ids, scores = self._topk(matched, score, len(matched) if k is None else k)
        return ids, scores, len(matched)

    def _bm25_at(self, terms, data, matched: np.ndarray, present: bool = False):
        """BM25 sum over ``terms`` at the sorted docids ``matched``
        (df-asc term order — the deterministic summation order of every
        mode). ``present=True`` asserts matched ⊆ each term's posting
        list (phrase AND guarantees it); otherwise absent terms add 0.0
        (a float64 no-op)."""
        score = np.zeros(len(matched), np.float64)
        for lem, df in sorted(terms, key=lambda t: (t[1], t[0])):
            docid, tf, dl, _sc = data[lem]
            if not len(docid):
                continue
            pidx = np.searchsorted(docid, matched)
            sel = slice(None)
            if not present:
                pidx = np.clip(pidx, 0, len(docid) - 1)
                sel = np.flatnonzero(docid[pidx] == matched)
                pidx = pidx[sel]
            score[sel] += self._bm25(self.idf(df), tf[pidx], dl[pidx])
        return score

    def _term_data(self, lemmas, extra=()):
        """The positional modes' decode preamble -> (terms, blocks, data)
        for the distinct ``lemmas``: ``terms`` their (lemma, live df),
        ``blocks`` the term blocks of ``lemmas`` and ``extra``, ``data``
        each term's full (docid, tf, dl, scope code) decode, read through
        the engine cache. None when a lemma is absent (reference
        missing-lemma semantics)."""
        distinct = list(dict.fromkeys(lemmas))
        terms = self._held_terms(distinct)
        if len(terms) < len(distinct):
            return None
        blocks = self._term_blocks(distinct + list(extra))
        if self._has_deltas:
            terms = [(lem, int(blocks[lem]["cum_n"][-1])) for lem, _ in terms]
            if any(df == 0 for _, df in terms):
                return None
        return terms, blocks, {lem: self._decoded(blocks[lem]) for lem, _ in terms}

    @staticmethod
    def _and_candidates(terms, data, lut) -> np.ndarray:
        """Sorted docids holding every term, intersected rarest first
        and masked to the scope LUT ``lut`` (or None)."""
        cand = None
        for lem, _df in sorted(terms, key=lambda t: (t[1], t[0])):
            docid, _tf, _dl, sc = data[lem]
            d = docid[lut[sc]] if lut is not None else docid
            cand = d if cand is None else np.intersect1d(cand, d, assume_unique=True)
            if not len(cand):
                break
        return cand

    def _auto_matches(self, phrases: list[list[str]], loose: list[str],
                      scope: str | None = None):
        """Match side of mode='auto' with quoted phrases: the docs
        matching EVERY phrase. ``terms`` are all distinct positive
        lemmas (phrase + loose), the loose ones adding 0.0 where absent
        (phrases act as FILTERS, loose terms as ranking signals —
        Lucene's quoted-clause semantics). -> ``_phrase_matches``'s
        shape, or None when a positive lemma is absent."""
        matched, terms, data = None, {}, {}
        for ph in phrases:
            got = self._phrase_matches(ph, scope)
            if got is None:
                return None
            m, pterms, pdata = got
            terms.update(pterms)
            data.update(pdata)
            matched = m if matched is None else np.intersect1d(
                matched, m, assume_unique=True)
            if not len(matched):
                break
        if loose:
            got = self._term_data(loose)
            if got is None:
                return None
            terms.update(got[0])
            data.update(got[2])
        return matched, sorted(terms.items(), key=lambda t: (t[1], t[0])), data

    def _phrase_matches(self, phrase: list[str], scope: str | None = None,
                        within_first: int | None = None,
                        last_alts: list[str] | None = None):
        """Match side of the phrase operator: ``(matched_docids, terms,
        data)`` with ``matched`` sorted, ``terms`` = distinct (lemma,
        effective df), ``data`` = full per-lemma decodes (cached — callers
        scoring afterwards pay no second varint pass). ``None`` = a phrase lemma is absent (reference
        missing-lemma semantics). Evaluation is slot-at-a-time set
        intersection: docid AND-intersection first (rarest term first —
        candidates shrink before any position work), then per-slot
        position keys ``(cand_idx << 32) | (pos - slot_offset)``
        intersected across slots; positions decode ONLY for the
        intersected candidates' postings.

        ``within_first`` (Lucene SpanFirstQuery): the matched phrase
        span must END within the doc's first N surviving-token
        positions — start + len(phrase) <= N, one vectorized mask over
        the already-intersected start-position keys (zero extra decode
        work; the low 32 key bits ARE the start positions).

        ``last_alts`` (the Elasticsearch ``match_phrase_prefix`` /
        Lucene MultiPhraseQuery rewrite): the phrase must be followed by
        ANY of these lemmas at the next position. The slot FILTERS and
        does not score, so typing one more prefix character never
        re-ranks the already-typed words. A dead alternative drops out;
        only an absent FIXED lemma means no results."""
        alts = [a for a in (last_alts or []) if a not in phrase]
        got = self._term_data(phrase, extra=alts)
        if got is None:
            return None
        terms, blocks, data = got
        alive_alts: list[str] = []
        if last_alts is not None:
            # the final slot matches ANY of the alternative lemmas
            # (match_phrase_prefix's expansion set). Dead alternatives
            # (overlay-tombstoned) drop silently — unlike a missing
            # FIXED lemma, one dead expansion doesn't kill the query.
            for lem in dict.fromkeys(last_alts):
                bl = blocks[lem]
                if self._has_deltas and int(bl["cum_n"][-1]) == 0:
                    continue
                if lem not in data:
                    data[lem] = self._decoded(bl)
                alive_alts.append(lem)

        lut = self._scope_lut(scope) if scope else None
        empty = (np.empty(0, np.int64), terms, data)
        shift = np.int64(1) << np.int64(32)
        df_of = dict(terms)
        # hot-bigram aux (pipelines/phrase_aux.py): adjacent slot pairs
        # with a precomputed adjacency list become ONE pseudo slot keyed
        # at the LEFT offset with the pair's start positions — exact,
        # because "a@p and b@p+1" is precisely the pair entry, and
        # intersecting its (cand_idx, start - j) keys with the other
        # slots' keys enforces the rest of the phrase. Greedy
        # left-to-right cover; under live delta generations each pair
        # list is composed with the overlay (_aux_overlay: tombstoned
        # entries dropped, delta adjacency appended) — exact, pinned
        # against the no-aux path by test.
        covered: set[int] = set()
        pseudo: list[tuple[int, int, tuple]] = []  # (df_rank, j, payload)
        pos_ok = not self._has_deltas or self._delta_positions_ok
        if pos_ok:
            jj = 0
            while jj + 1 < len(phrase):
                pr = (phrase[jj], phrase[jj + 1])
                payload = (self._aux_pair(pr) if pr in self._aux_pairs
                           else self._cache.peek(("pair", pr)))
                if payload is None:
                    jj += 1
                    continue
                pseudo.append((len(payload[0]), jj, payload))
                covered.update((jj, jj + 1))
                jj += 2
        if (
            pos_ok
            and not covered
            and len(phrase) == 2
            and scope is None
            and last_alts is None
            and df_of[phrase[0]] + df_of[phrase[1]] >= self.PAIR_CACHE_MIN_COST
        ):
            # unindexed hot-hot bigram: an UNSCOPED query's adjacency
            # work below is the full pair intersection anyway — do it
            # ONCE as the complete pair list, cache it, and serve this
            # query from the payload. SCOPED queries never trigger the
            # build (a selective scope bounds the exact path's work far
            # below full-pair cost) but DO serve from a cached payload
            # via the cover loop above (payloads are scope-agnostic;
            # the full-cover shortcut applies the scope mask).
            payload = self._build_pair_cache(
                phrase[0], phrase[1], blocks, data
            )
            pseudo.append((len(payload[0]), 0, payload))
            covered.update((0, 1))

        # candidate docids: AND over distinct lemmas, scope-masked.
        # When pseudo units cover EVERY slot, the smallest payload's
        # docids already are a complete candidate superset (each match
        # contains that pair adjacently), so the full-posting-list AND
        # pre-intersection — the dominant cost of a warm cached hot-hot
        # query (a 2x|postings| sort) — is skipped; scope masks via one
        # member lemma's per-posting codes (scope is doc-level).
        if pseudo and len(covered) == len(phrase):
            smallest = min(pseudo, key=lambda u: (u[0], u[1]))
            cand = np.unique(smallest[2][0])
            if lut is not None and len(cand):
                docid0, _t0, _d0, sc0 = data[phrase[smallest[1]]]
                cand = cand[lut[sc0[np.searchsorted(docid0, cand)]]]
        else:
            cand = self._and_candidates(terms, data, lut)
        if not len(cand):
            return empty
        if last_alts is not None:
            # shrink candidates to docs containing SOME alternative
            # before any position work (the fixed slots' AND precedent);
            # cand is already scope-masked by the fixed slots, so the
            # union needs no LUT pass of its own
            if not alive_alts:
                return empty
            union = np.unique(np.concatenate([data[a][0] for a in alive_alts]))
            cand = np.intersect1d(cand, union, assume_unique=True)
            if not len(cand):
                return empty

        # adjacency: per slot j, keys (cand_idx << 32) | (pos - j).
        # Slots evaluate in ASCENDING-df order (intersection is
        # commutative over slots), and the candidate set SHRINKS after
        # every slot — a hot slot then gathers/keys positions only for
        # docs still alive after the rare slots, so a rare+hot phrase
        # pays rare-sized position work, not hot-sized (hot-hot phrases
        # are inherently positions-bound; measured at sf1 in
        # BENCH/BASELINE.md).
        slot_order = sorted(
            (j for j in range(len(phrase)) if j not in covered),
            key=lambda j: (df_of[phrase[j]], j),
        )
        units: list[tuple[int, int, tuple | None]] = sorted(
            [(df_of[phrase[j]], j, None) for j in slot_order]
            + [(rank, j, payload) for rank, j, payload in pseudo],
            key=lambda u: (u[0], u[1]),
        )
        cur = None
        for _rank, j, payload in units:
            if payload is None:
                lem = phrase[j]
                docid, tf, _dl, _sc = data[lem]
                pos_flat = self._term_positions_full(blocks[lem], tf)
                pidx = np.searchsorted(docid, cand)  # cand ⊆ docid by AND
                p = _take_pos_groups(pos_flat, tf, pidx)
                cnt = tf[pidx].astype(np.int64)
                cidx = np.repeat(np.arange(len(cand), dtype=np.int64), cnt)
            else:
                d_e, cnts, starts = payload
                if not len(cand):
                    return empty
                pidx = np.searchsorted(cand, d_e)
                pidx_c = np.minimum(pidx, len(cand) - 1)
                mask = cand[pidx_c] == d_e
                sel = np.flatnonzero(mask)
                if not len(sel):
                    return empty
                p = _take_pos_groups(starts, cnts, sel)
                cnt = cnts[sel]
                cidx = np.repeat(pidx_c[sel].astype(np.int64), cnt)
            ok = p >= j
            keys = cidx[ok] * shift + (p[ok] - np.int64(j))
            if payload is not None:
                # fragmented aux block rows can repeat a docid; keys
                # stay distinct (distinct starts) but arrive unsorted
                keys = np.unique(keys)
            cur = keys if cur is None else np.intersect1d(cur, keys, assume_unique=True)
            if not len(cur):
                return empty
            alive = np.unique(cur >> np.int64(32))
            if len(alive) < len(cand):  # shrink + remap key doc-indices
                cur = (
                    np.searchsorted(alive, cur >> np.int64(32)) * shift
                    + (cur & (shift - 1))
                )
                cand = cand[alive]
        if last_alts is not None:
            # the alternatives slot evaluates LAST — after every fixed
            # slot has shrunk the candidates, each alternative gathers
            # positions only for still-alive docs (a broad expansion
            # pays shrunk-candidate position work, not expansion-df
            # work). Keys across alternatives are naturally disjoint
            # (one lemma per position), unioned and sorted once.
            j = np.int64(len(phrase))
            alt_parts = []
            for lem in alive_alts:
                docid, tf, _dl, _sc = data[lem]
                if not len(docid):
                    continue
                pidx = np.searchsorted(docid, cand)
                pc_ = np.clip(pidx, 0, len(docid) - 1)
                hit = np.flatnonzero(docid[pc_] == cand)
                if not len(hit):
                    continue
                sel = pc_[hit]
                pos_flat = self._term_positions_full(blocks[lem], tf)
                p = _take_pos_groups(pos_flat, tf, sel)
                cnt = tf[sel].astype(np.int64)
                cidx = np.repeat(hit.astype(np.int64), cnt)
                ok = p >= j
                alt_parts.append(cidx[ok] * shift + (p[ok] - j))
            if not alt_parts:
                return empty
            keys = np.unique(np.concatenate(alt_parts))
            if cur is None:
                cur = keys
            else:
                cur = np.intersect1d(cur, keys, assume_unique=True)
            if not len(cur):
                return empty
        if within_first is not None:
            keep = (cur & (shift - 1)) <= np.int64(within_first - len(phrase))
            cur = cur[keep]
            if not len(cur):
                return empty
        matched = cand[np.unique(cur >> np.int64(32))]
        return matched, terms, data

    def _near_matches(
        self, lemmas: list[str], window: int, scope: str | None = None,
        in_order: bool = False,
    ):
        """Match side of mode='near': a doc matches iff EVERY
        distinct query lemma occurs within some ``window`` consecutive
        surviving-token positions (unordered — the slop generalization
        of the phrase operator; window = len(lemmas) admits any
        permutation-adjacent cluster).

        ``in_order=True`` (Lucene SpanNearQuery in_order): the lemmas
        must additionally appear in the GIVEN sequence order — a doc
        matches iff some strictly-increasing position chain p_0 < p_1 <
        ... < p_{m-1} follows ``lemmas`` with p_{m-1} <= p_0+window-1
        (``lemmas`` is then the ordered, duplicate-keeping sequence).
        The matcher is the greedy smallest-next chain, exact because
        taking the minimal valid next occurrence always preserves
        feasibility (it maximizes the remaining window); ordered
        matching with window == len(lemmas) and no repeats degenerates
        toward phrase (adjacent == a chain of consecutive positions).

        Exactness argument for the anchor scan: if a window ``[w, w+W-1]``
        covers one occurrence of every lemma, then anchoring at the
        MINIMUM chosen occurrence ``p* >= w`` also works (every chosen
        occurrence lies in ``[p*, w+W-1] ⊆ [p*, p*+W-1]``), and ``p*``
        is some lemma's occurrence — so testing every candidate-doc
        occurrence as an anchor and asking each lemma for an occurrence
        in ``[anchor, anchor+W-1]`` (one global searchsorted per lemma
        over doc-major position keys) is exact and fully vectorized.

        -> ``_phrase_matches``'s shape, or None for no-results."""
        got = self._term_data(lemmas)
        if got is None:
            return None
        terms, blocks, data = got
        cand = self._and_candidates(terms, data, self._scope_lut(scope) if scope else None)
        empty = (np.empty(0, np.int64), terms, data)
        if len(lemmas) == 1 or (not in_order and len(terms) == 1) or not len(cand):
            return cand, terms, data  # one lemma: any occurrence is its own window
        shift = np.int64(1) << np.int64(32)
        term_keys: dict[str, np.ndarray] = {}
        for lem, _df in terms:
            docid, tf, _dl, _sc = data[lem]
            pos_flat = self._term_positions_full(blocks[lem], tf)
            pidx = np.searchsorted(docid, cand)
            p = _take_pos_groups(pos_flat, tf, pidx)
            cnt = tf[pidx].astype(np.int64)
            cidx = np.repeat(np.arange(len(cand), dtype=np.int64), cnt)
            term_keys[lem] = cidx * shift + p  # doc-major, sorted
        if in_order:
            # greedy smallest-next chain from every occurrence of
            # the FIRST sequence lemma; key arithmetic keeps the
            # doc prefix, so nxt <= hi simultaneously enforces
            # same-doc and within-window; ok is AND-sticky (a dead
            # chain never revives on garbage cur values)
            anchors = term_keys[lemmas[0]]
            ok = np.ones(len(anchors), bool)
            hi = anchors + np.int64(window - 1)
            cur = anchors
            for lem in lemmas[1:]:
                tk = term_keys[lem]
                idx = np.searchsorted(tk, cur, side="right")
                idxc = np.clip(idx, 0, max(len(tk) - 1, 0))
                nxt = tk[idxc]
                ok &= (idx < len(tk)) & (nxt <= hi)
                if not ok.any():
                    return empty
                cur = nxt
        else:
            anchors = np.sort(np.concatenate(list(term_keys.values())))
            ok = np.ones(len(anchors), bool)
            hi = anchors + np.int64(window - 1)
            for lem, _df in terms:
                tk = term_keys[lem]
                lo = np.searchsorted(tk, anchors)
                loc = np.clip(lo, 0, max(len(tk) - 1, 0))
                ok &= (lo < len(tk)) & (tk[loc] <= hi)
                if not ok.any():
                    return empty
        return cand[np.unique(anchors[ok] >> np.int64(32))], terms, data

    def score_reference(self, terms, scope=None):
        """Reference semantics: drop df>=250 lemmas (D4; all dropped ->
        'too frequent' error), conjunctive AND over the rest (J4),
        relevance = doc Σtf / max doc Σtf (G3/G4) — query-independent.
        -> (ascending docids, relevances, None) or (None, None, error)."""
        kept = [(l, df) for l, df in terms if df < REFERENCE_DF_CUTOFF]
        if not kept:
            return None, None, "too_frequent"
        blocks = self._term_blocks([t[0] for t in kept])
        data = {lem: self._decoded(blocks[lem]) for lem, _ in kept}
        inter = self._and_candidates(kept, data, self._scope_lut(scope) if scope else None)
        # dl per surviving doc via binary search into one term's decode —
        # doc_len is term-independent, no dict build
        docid, _tf, dl, _sc = data[kept[0][0]]
        rel = dl[np.searchsorted(docid, inter)].astype(np.float64) / self._max_relevance()
        return inter, rel, None

    # ---------------- public API (S8 analog) ---------------------------

    def search(
        self,
        query_text: str,
        scope: str | None = None,
        offset: int = 0,
        limit: int = DEFAULT_PAGE_SIZE,
        mode: str = "bm25",
        method: str = "blockmax",
        conjunctive: bool = False,
        with_snippets: bool | str = False,
        near_window: int = 8,
        in_order: bool = False,
        within_first: int | None = None,
        fuzzy_dist: int = 1,
        min_match: int | None = None,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
        collapse: int | None = None,
        order_by: str = "score",
        search_after: tuple | list | None = None,
        synonyms: dict | None = None,
        boosts: dict | None = None,
        decay: dict | None = None,
        rescore: dict | None = None,
        negative: str | None = None,
        negative_boost: float = 0.5,
    ) -> dict:
        """-> {'result': bool, 'count': int, 'data': pa.Table, 'error': str|None}

        ``data`` columns: (conv_id, turn_idx, role, tool, ts, score
        [, snippet | highlighted]); ``count`` is the exact number of
        matching turns after every filter. Every query runs one fixed
        pipeline:

        1. **Validate** (``_search_params``): every argument, into one
           normalized ``Query``; a bad one answers its ``bad_*`` code.
        2. **Source** (``_source``): what ``mode`` matches.
           - A TERM SET of (lemma, df): ``bm25`` (the query lemmas, or
             their ``synonyms`` expansion {word: [synonym, ...]}, absent
             expansion lemmas dropped), ``prefix`` / ``wildcard`` /
             ``regexp`` / ``fuzzy`` (``fuzzy_dist`` edits per token)
             vocabulary expansions, ``auto`` without quoted phrases.
           - A FULL MATCH SET scored by the mode: ``phrase`` (consecutive
             lemmas; ``within_first`` = the span ends within the first N
             tokens), ``phrase_prefix`` (the last token is a prefix),
             ``near`` (all lemmas within ``near_window`` tokens;
             ``in_order``), ``auto`` with "quoted phrases" (AND filters;
             loose words score; -tokens join ``exclude``), ``reference``
             (the reference engine's relevance).
           Any query lemma absent from the corpus means no results.
        3. **Rank.** A term set with no doc-level filter takes the
           exact routed scorer, ``score_blockmax``: candidate-driven
           MaxScore, windowed block-max or term-at-a-time, whichever the
           query's shape favours, all with the same page and scores
           (``method='exhaustive'`` forces term-at-a-time); ``min_match`` (at least M distinct lemmas) and
           ``boosts`` ({word: factor} scaling idf) are bm25 term-route
           options that score exhaustively. A registered scorer
           (``register_scorer``) and ``rescore`` rank their own top-k.
           Every full set — a match set, or a filtered term set scored
           exhaustively — then runs one tail over its docid-sorted
           (ids, scores):
           - filter mask and score rewrites (``_filter_docs``):
             ``exclude`` drops docs holding any of its lemmas;
             ``ts_min``/``ts_max`` (int epoch-µs, ISO-8601 or datetime)
             keep ts in the inclusive range; ``decay`` = {"origin",
             "scale" (s), "shape": gauss|exp|linear, "rate", "offset"}
             multiplies by the ES function-score decay of the ts
             distance; ``negative`` multiplies the docs holding any of
             its lemmas by ``negative_boost`` in [0, 1];
           - ``collapse``: at most N turns per conversation, by (score
             DESC, turn_idx ASC);
           - ``search_after`` = (score, conv_id, turn_idx), the last row
             of the previous page: keep rows strictly after it (offset 0,
             score order); ``count`` stays the full count;
           - ``order_by``: 'score', 'ts_desc' / 'ts_asc' (rank by ts;
             ``score`` stays BM25) or 'rrf' (reciprocal-rank fusion,
             k=60, of the score and ts-descending rankings; ``score`` is
             the fused value);
           - top ``offset + limit`` by (key DESC, docid ASC).
           A registered scorer refuses every doc-level filter and
           ``min_match`` outside bm25 is refused (``bad_filter_mode``);
           ``synonyms``, ``boosts`` and ``rescore`` are bm25-only.
           ``rescore`` = {"query", "window", "query_weight",
           "rescore_weight"} re-ranks the block-max top-``window`` by
           ``qw*bm25 + rw*phrase_bm25`` (ES rescore; window >= offset +
           limit, no filter or rewrite).
        4. **Page and enrich** (``_enrich``): rows from ``offset`` on,
           joined to the doc store; ``with_snippets`` True adds a
           240-char best-window ``snippet``, "full" the whole text with
           query words in <b></b> (``highlighted``).

        ``scope`` is a role value or ``"tool:<name>"``; it masks every
        source.
        """
        err, q = self._search_params(Query(
            query_text, scope, offset, limit, mode, method, conjunctive,
            with_snippets, near_window, in_order, within_first, fuzzy_dist,
            min_match, exclude, ts_min, ts_max, collapse, order_by,
            search_after, synonyms, boosts, decay, rescore, negative,
            negative_boost))
        if err is None:
            resp, q, terms, full = self._source(q)
            if resp is not None:
                return resp
            err, ids, scores, count = self._rank(q, terms, full, q.offset + q.limit)
        if err:
            return self._resp(error=err)
        tbl = self._enrich(ids[q.offset:], scores[q.offset:], terms, q.with_snippets)
        return {"result": True, "count": int(count), "data": tbl, "error": None}

    def _source(self, q: Query):
        """Step 2 of ``search``: what the mode matches. -> (response, q,
        terms, full). A refusal or an empty success comes back as
        ``response`` and ends the query. Otherwise ``terms`` are (lemma,
        df) pairs and ``full`` is None for a TERM SET, or the FULL MATCH
        SET (ascending docids, float64 scores) the mode scored itself.
        ``q`` comes back rewritten for auto: its -tokens join
        ``exclude``, and without phrases it is bm25 over its loose
        text."""
        mode, text = q.mode, q.query_text

        def stop(**resp):
            return self._resp(**resp), q, [], None

        def term_set(terms):
            terms = self._live_terms(terms)
            return (None, q, terms, None) if terms else stop(count=0)

        if mode in ("prefix", "wildcard", "regexp"):
            # Lucene's multi-term rewrite: the pattern expands to at most
            # *_MAX_EXPANSION vocabulary lemmas by (df DESC, lemma ASC)
            exp = getattr(self, f"expand_{mode}")(text)
            if exp is None:
                return stop(error="bad_pattern")
            toks = self._norm_text(text or "").split()
            if mode == "prefix" and (not toks or len(toks[0]) < self.PREFIX_MIN_LEN):
                return stop(error="empty_query")
            return term_set(exp)
        if mode == "fuzzy":
            # Lucene FuzzyQuery rewrite: each charset-folded (not
            # lemmatized) token expands to at most FUZZY_MAX_EXPANSION
            # lemmas within fuzzy_dist edits by suggest()'s (dist ASC,
            # df DESC, lemma ASC) rule. Under a delta overlay the
            # expansion reflects the BASE dictionary (suggest's
            # boundary); the expanded terms' df and postings fold
            # through the overlay.
            toks = self._norm_text(text or "").split()
            if not toks:
                return stop(error="empty_query")
            seen: dict[str, int] = {}
            for tok in toks:
                t = self.suggest(tok, max_dist=q.fuzzy_dist, k=self.FUZZY_MAX_EXPANSION)
                for lem, df in zip(t.column("suggestion").to_pylist(),
                                   t.column("df").to_pylist()):
                    seen.setdefault(lem, int(df))
            return term_set(list(seen.items()))
        analyze_phrase = getattr(self._analyzer, "analyze_phrase", None)
        if mode in ("phrase", "phrase_prefix", "near") and not self.has_positions:
            return stop(error="no_positions")
        if mode in ("phrase", "phrase_prefix"):
            if analyze_phrase is None:
                return stop(error="no_positions")
            toks, alts = (text or "").split(), None
            if mode == "phrase_prefix":
                # ES match_phrase_prefix: the LAST whitespace token is a
                # prefix expanding by mode 'prefix''s rule; a single
                # token is mode 'prefix''s job
                if len(toks) < 2:
                    return stop(error="bad_query")
                text = " ".join(toks[:-1])
            phrase = analyze_phrase(text)
            if not phrase:
                return stop(error="empty_query")
            if mode == "phrase_prefix":
                last = self._norm_text(toks[-1]).split()
                if not last or len(last[0]) < self.PREFIX_MIN_LEN:
                    return stop(error="empty_query")
                alts = [lem for lem, _ in self.expand_prefix(last[0])]
                if not alts:
                    return stop(count=0)
            got = self._phrase_matches(phrase, q.scope, q.within_first, alts)
        elif mode == "near":
            # in_order matches the ORDERED, duplicate-keeping lemma
            # sequence, which the sorted-dedup analyze_query would lose
            if q.in_order and analyze_phrase is None:
                return stop(error="no_positions")
            lemmas = (analyze_phrase(text) if q.in_order
                      else self._analyzer.analyze_query(text))
            if not lemmas:
                return stop(error="empty_query")
            got = self._near_matches(lemmas, q.near_window, q.scope, q.in_order)
        elif mode == "auto":
            # search-box syntax (parse_boolean_query): "quoted phrases"
            # are AND filters, -tokens NOT terms, the rest loose BM25 text
            phrases_raw, loose_text, excl_text = parse_boolean_query(text)
            if excl_text:
                q = q._replace(exclude=excl_text if q.exclude is None
                               else f"{q.exclude} {excl_text}")
            phrases = []
            for p in phrases_raw:
                ph = analyze_phrase(p) if analyze_phrase is not None else None
                if ph is None and p.strip():
                    return stop(error="no_positions")
                if ph:
                    phrases.append(ph)
            if phrases and not self.has_positions:
                return stop(error="no_positions")
            loose = self._analyzer.analyze_query(loose_text) if loose_text else []
            if not phrases and not loose:
                return stop(error="empty_query")
            if not phrases:
                return self._source(q._replace(query_text=loose_text, mode="bm25"))
            got = self._auto_matches(phrases, loose, q.scope)
        elif q.synonyms is not None:
            # query-time synonym expansion (the Lucene SynonymQuery
            # "expand" rewrite): both mapping sides analyzer-normalized,
            # each query lemma expands to itself + its synonyms
            lemmas = self._analyzer.analyze_query(text)
            if not lemmas:
                return stop(error="empty_query")
            norm_map: dict[str, list[str]] = {}
            for key, vals in q.synonyms.items():
                klems = self._analyzer.analyze_query(str(key))
                if len(klems) != 1:
                    return stop(error="bad_synonyms")
                exp = []
                for v in vals if isinstance(vals, (list, tuple)) else (vals,):
                    exp.extend(self._analyzer.analyze_query(str(v)))
                norm_map[klems[0]] = exp
            seen = {}
            for lem in lemmas:
                seen.setdefault(lem)
                for s in norm_map.get(lem, ()):
                    seen.setdefault(s)
            return term_set(self._held_terms(seen))
        else:
            terms, err = self.plan(text)
            if err:
                return stop(error=None if err == "no_results" else err)
            if mode != "reference":
                return None, q, terms, None
            ids, rel, err = self.score_reference(terms, q.scope)
            return (stop(error=err) if err else (None, q, terms, (ids, rel)))
        if got is None:
            return stop(count=0)
        matched, terms, data = got
        return None, q, terms, (matched, self._bm25_at(
            terms, data, matched, present=mode != "auto"))

    def _rank(self, q: Query, terms, full, k: int):
        """Step 3 of ``search`` -> (error, top-k ids, scores, count).
        ``full`` None: ``terms`` are a term set, ranked by a registered
        scorer, the rescore, or — with no filter — ``score_blockmax``;
        otherwise the exhaustive scorer makes them a full set. A full set
        runs the one tail: filter mask and score rewrites, collapse,
        cursor, order, top-k."""
        if full is None:
            if q.mode not in MODES:
                return None, *SCORERS[q.mode](self, terms, k, q.scope, q.conjunctive)
            if q.rescore is not None:
                return None, *self._rescored(q, terms, k)
            if (q.method == "blockmax" and not q.filtered and q.min_match is None
                    and q.boosts is None):
                return None, *self.score_blockmax(terms, k, q.scope, q.conjunctive)
            if q.min_match is not None and q.min_match > len(terms):
                return None, np.empty(0, np.int64), np.empty(0, np.float64), 0
            full = self.score_exhaustive(terms, q.scope, q.conjunctive,
                                         min_match=q.min_match, boosts=q.boosts)
        ids, scores = full
        keep, scores = self._filter_docs(ids, scores, q.exclude, q.ts_min, q.ts_max,
                                         q.decay, q.negative, q.negative_boost)
        ids = ids[keep]
        if q.collapse is not None:
            ids, scores = self._collapse_per_conv(ids, scores, q.collapse)
        count = len(ids)
        if q.search_after is not None:
            # keep rows STRICTLY AFTER the cursor in the (score DESC,
            # docid ASC) total order. The cursor score is the engine's
            # own float64 from the previous page (JSON round-trips it
            # exactly), so equality at the boundary is bit-exact; ties
            # resolve on the docid.
            s0, conv0, turn0 = q.search_after
            d0 = self._cursor_docid(conv0, turn0)
            try:
                s0 = float(s0)
            except (TypeError, ValueError):
                d0 = None
            if d0 is None:
                return "bad_cursor", None, None, 0
            keep = (scores < s0) | ((scores == s0) & (ids > d0))
            ids, scores = ids[keep], scores[keep]
        if q.order_by in ("ts_desc", "ts_asc"):
            # top-k on the ts key (exact in float64 — epoch-µs < 2^53),
            # ties by docid ASC == (conv_id, turn_idx) ASC; scores
            # re-attach to the winners by position (ids stay
            # docid-sorted through every step above)
            tss = self._ts_of_ids(ids).astype(np.float64)
            sel_ids, _ = self._topk(ids, tss if q.order_by == "ts_desc" else -tss, k)
            return None, sel_ids, scores[np.searchsorted(ids, sel_ids)], count
        if q.order_by == "rrf":
            # reciprocal-rank fusion (the Elasticsearch RRF retriever):
            # fused = 1/(K + r_rel) + 1/(K + r_ts), dense 1-based ranks
            # with docid-ASC ties. Ranks are integers and each term is
            # ONE IEEE division — bit-identical to the SQL oracle.
            n = len(ids)
            tss = self._ts_of_ids(ids).astype(np.float64)
            rel = np.empty(n, np.int64)
            rel[np.lexsort((ids, -scores))] = np.arange(1, n + 1)
            rec = np.empty(n, np.int64)
            rec[np.lexsort((ids, -tss))] = np.arange(1, n + 1)
            scores = 1.0 / (RRF_K + rel) + 1.0 / (RRF_K + rec)
        return None, *self._topk(ids, scores, k), count

    def _rescored(self, q: Query, terms, k: int):
        """Two-phase rescore -> (top-k ids, scores, count). Phase one is
        ``score_blockmax``'s top-``window`` (the full count rides along);
        phase two adds ``rw`` × the rescore phrase's BM25 at the window
        docs holding the phrase (one searchsorted into its match set) to
        ``qw`` × the phase-one score. Nothing beyond the window is
        rescored."""
        rphrase, window, qw, rw = q.rescore
        ids, scores, count = self.score_blockmax(terms, window, q.scope, q.conjunctive)
        final = qw * scores
        got = self._phrase_matches(rphrase, q.scope)
        if got is not None and len(ids) and len(got[0]):
            matched, pterms, pdata = got
            order = np.argsort(ids)
            sids = ids[order]
            pos = np.clip(np.searchsorted(matched, sids), 0, len(matched) - 1)
            hit = matched[pos] == sids
            if hit.any():
                add = np.zeros(len(sids), np.float64)
                add[hit] = rw * self._bm25_at(pterms, pdata, sids[hit], present=True)
                final[order] += add
        return *self._topk(ids, final, k), count

    def msearch(self, requests: list[dict]) -> list[dict]:
        """Multi-search (the Elasticsearch ``_msearch`` batch surface):
        run a list of search requests against ONE engine view and
        return one standard ``search()`` response per request,
        order-preserving. Line-level error semantics: an invalid
        request yields its error response IN PLACE and the batch never
        aborts (the ES per-line failure shape). Each request is a
        kwargs dict with ``query`` plus any ``search()`` parameter; a
        line without ``query`` or with any other key is ``bad_request``.
        Batch amortization is structural: term block decodes (in the
        engine cache, with the doc-store row groups), scope LUTs and the
        conversation list are kept per engine, so lemmas shared across the batch decode once while
        they fit the cache budget."""
        allowed = {"query", *Query._fields[1:]}
        out = []
        for req in requests:
            if not isinstance(req, dict) or "query" not in req or not set(req) <= allowed:
                out.append(self._resp(error="bad_request"))
                continue
            kw = dict(req)
            out.append(self.search(kw.pop("query"), **kw))
        return out

    def _enrich(self, ids: np.ndarray, scores: np.ndarray, terms,
                with_snippets: bool | str) -> pa.Table:
        """J6: the k winners' (conv_id, role, tool, ts) — one gather of
        their doc rows (``_doc_rows``) and conv ranks (``_conv_list``),
        the analog of the reference enriching every result with site
        url/name/title (``SearchServiceImpl.java:117-133``). With snippets the winners'
        text is a docid point read of the transcripts parquet
        (``_texts``): the ``text`` column of each row group holding a
        winner, decoded once and then served from the engine cache.
        ``create_snippets`` (True) or ``highlight_full`` ("full") runs
        per row with the index analyzer's token rules, each word's
        lemma computed once per call."""
        conv_rank, turn_idx = split_docids(ids)
        _, roles, tools, tss = self._doc_rows(ids, ("role", "tool", "ts"))
        conv_ids = self._conv_list().take(to_arrow(conv_rank, pa.int64()))
        cols = {
            "conv_id": conv_ids,
            "turn_idx": to_arrow(turn_idx, pa.int32()),
            "role": to_arrow(roles, pa.string()),
            "tool": to_arrow(tools, pa.string()),
            "ts": to_arrow(tss, pa.timestamp("us")),
            "score": to_arrow(scores, pa.float64()),
        }
        tbl = pa.table(cols)
        if with_snippets and len(ids):
            # True -> 240-char best-window snippet (the reference's
            # SnippetCreator presentation rule); "full" -> ES highlight
            # with number_of_fragments=0 (the whole cleaned field
            # highlighted — a pure per-word function, SQL-twin-able)
            from .functions.snippets import create_snippets, highlight_full

            texts = [x or "" for x in self._texts(ids, conv_ids.to_pylist())]
            lemmas = {t[0] for t in terms}
            rules = {"lemmatize": functools.lru_cache(None)(self._lemmatize_token),
                     "stopset": self._stopset, "min_len": self._min_token_len}
            if with_snippets == "full":
                vals = [highlight_full(x, lemmas, **rules) for x in texts]
                tbl = tbl.append_column("highlighted", to_arrow(vals, pa.string()))
            else:
                snips = [create_snippets(x, lemmas, **rules) for x in texts]
                tbl = tbl.append_column("snippet", to_arrow(snips, pa.string()))
        return tbl


FACETS_SCHEMA = pa.schema(
    [("facet", pa.string()), ("value", pa.string()), ("n_docs", pa.int64())]
)

TOP_HITS_SCHEMA = pa.schema(
    [
        ("group", pa.string()),
        ("grank", pa.int32()),
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
        ("score", pa.float64()),
    ]
)

METRICS_SCHEMA = pa.schema(
    [
        ("field", pa.string()),
        ("n_docs", pa.int64()),
        ("v_min", pa.int64()),
        ("v_max", pa.int64()),
        ("v_avg", pa.int64()),
        ("p50", pa.int64()),
        ("p90", pa.int64()),
        ("p99", pa.int64()),
    ]
)

SIG_TERMS_SCHEMA = pa.schema(
    [
        ("rank", pa.int32()),
        ("lemma", pa.string()),
        ("fg_docs", pa.int64()),
        ("bg_docs", pa.int64()),
        ("score", pa.float64()),
    ]
)

RARE_TERMS_SCHEMA = pa.schema(
    [
        ("rank", pa.int32()),
        ("lemma", pa.string()),
        ("fg_docs", pa.int64()),
        ("bg_docs", pa.int64()),
    ]
)

CONV_RESULT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("n_turns", pa.int64()),
        ("best_turn_idx", pa.int32()),
        ("score", pa.float64()),
    ]
)

ANALYZE_SCHEMA = pa.schema(
    [
        ("pos", pa.int32()),
        ("token", pa.string()),
        ("lemma", pa.string()),
    ]
)

SUGGEST_SCHEMA = pa.schema(
    [
        ("suggestion", pa.string()),
        ("df", pa.int64()),
        ("dist", pa.int32()),
    ]
)

# the (lemma, fg, bg) term rows of the matching-set term aggregations
# (SearchEngine._fg_bg_grouped)
_FG_BG_SCHEMA = pa.schema([("lemma", pa.string()), ("fg", pa.int64()), ("bg", pa.int64())])

RESULT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
        ("score", pa.float64()),
    ]
)

COMPLETE_SCHEMA = pa.schema(
    [
        ("lemma", pa.string()),
        ("df", pa.int64()),
    ]
)

HISTOGRAM_SCHEMA = pa.schema(
    [
        ("bucket", pa.int64()),
        ("n_docs", pa.int64()),
    ]
)

CARDINALITY_SCHEMA = pa.schema(
    [
        ("field", pa.string()),
        ("n_distinct", pa.int64()),
        ("n_docs", pa.int64()),
    ]
)

RANGE_AGG_SCHEMA = pa.schema(
    [
        ("ridx", pa.int64()),
        ("key", pa.string()),
        ("range_from", pa.int64()),
        ("range_to", pa.int64()),
        ("n_docs", pa.int64()),
    ]
)

MGET_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("found", pa.bool_()),
        ("role", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
        ("text", pa.string()),
    ]
)

EXT_STATS_SCHEMA = pa.schema(
    [
        ("field", pa.string()),
        ("n_docs", pa.int64()),
        ("vmin", pa.int64()),
        ("vmax", pa.int64()),
        ("sum_shift", pa.string()),
        ("sumsq_shift", pa.string()),
        ("avg", pa.float64()),
        ("variance", pa.float64()),
        ("std_deviation", pa.float64()),
        ("std_upper", pa.float64()),
        ("std_lower", pa.float64()),
    ]
)

MATRIX_STATS_SCHEMA = pa.schema(
    [
        ("n_docs", pa.int64()),
        ("sum_x", pa.int64()),
        ("sum_y", pa.int64()),
        ("sum_xx", pa.string()),
        ("sum_yy", pa.string()),
        ("sum_xy", pa.string()),
        ("cov", pa.float64()),
        ("corr", pa.float64()),
    ]
)

PRANKS_SCHEMA = pa.schema(
    [
        ("value", pa.int64()),
        ("n_le", pa.int64()),
        ("n_docs", pa.int64()),
        ("pct", pa.float64()),
    ]
)

FILTERS_AGG_SCHEMA = pa.schema(
    [
        ("key", pa.string()),
        ("n_docs", pa.int64()),
    ]
)

HISTOGRAM_PIPELINE_SCHEMA = pa.schema(
    [
        ("bucket", pa.int64()),
        ("n_docs", pa.int64()),
        ("cum_docs", pa.int64()),
        ("deriv", pa.int64()),
        ("mavg", pa.float64()),
    ]
)

SUGGEST_QUERY_SCHEMA = pa.schema(
    [
        ("pos", pa.int32()),
        ("token", pa.string()),
        ("suggestion", pa.string()),
        ("df", pa.int64()),
        ("dist", pa.int32()),
    ]
)

COMPOSITE_SCHEMA = pa.schema(
    [
        ("role", pa.string()),
        ("tool", pa.string()),
        ("n_docs", pa.int64()),
    ]
)

TERMVECTORS_SCHEMA = pa.schema(
    [
        ("lemma", pa.string()),
        ("tf", pa.int64()),
        ("df", pa.int64()),
        ("dl", pa.int64()),
    ]
)

RANK_EVAL_SCHEMA = pa.schema(
    [
        ("k", pa.int64()),
        ("n_hits", pa.int64()),
        ("n_rel", pa.int64()),
        ("n_rel_ret", pa.int64()),
        ("first_rel_rank", pa.int64()),
        ("gain_top", pa.int64()),
        ("gain_ideal", pa.int64()),
    ]
)

EXPLAIN_SCHEMA = pa.schema(
    [
        ("lemma", pa.string()),
        ("df", pa.int64()),
        ("tf", pa.int64()),
        ("dl", pa.int64()),
        ("idf", pa.float64()),
        ("weight", pa.float64()),
    ]
)
