"""Text-analysis operators for training-data pipelines over the
``documents`` table: token counting, quality scoring, language ID,
document fingerprinting. All are stateless vectorized ``map_batches``
transforms (Arrow in / Arrow out). The SQL-expressible ones (token
counts, quality features, md5 fingerprint) have DuckDB oracles generated
from the SAME regex/constant tables (both engines use RE2, so the
patterns behave identically); language ID and the rolling hash are
rows-only checked + unit-tested.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

WS_TOKEN_REGEX = r"\S+"
WORD_REGEX = r"[a-z0-9]+"
ALNUM_CHAR_REGEX = r"[a-z0-9]"
PUNCT_CHAR_REGEX = r"[.,;:!?]"

# frozen per-language stopword profiles for the language heuristic
LANG_PROFILES: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "to", "in", "is", "that", "it", "for", "with", "was", "on"),
    "es": ("de", "la", "que", "el", "en", "los", "del", "las", "por", "con", "una", "es"),
    "de": ("der", "die", "und", "das", "von", "den", "mit", "ist", "des", "ein", "im", "nicht"),
    "fr": ("de", "la", "le", "les", "des", "est", "une", "dans", "que", "pour", "qui", "sur"),
}

QUALITY_STOPWORDS: tuple[str, ...] = LANG_PROFILES["en"]
STOPWORD_REGEX = r"\b(" + "|".join(QUALITY_STOPWORDS) + r")\b"

QUALITY_ROUND = 6
FP_HASH_BASE = 1_000_003  # odd multiplier; fold is mod 2^64 (uint64 wrap)


def _lower(batch: pa.Table, text_col: str) -> pa.Array:
    return pc.utf8_lower(pc.fill_null(batch.column(text_col).combine_chunks(), ""))


def _round6(x: np.ndarray) -> np.ndarray:
    """Round-half-away-from-zero at 6 decimals (DuckDB ``round``
    semantics; ``np.round`` is half-even and disagrees on exact .5s)."""
    return np.floor(x * 10.0**QUALITY_ROUND + 0.5) / 10.0**QUALITY_ROUND


def _count(arr: pa.Array, pattern: str) -> pa.Array:
    return pc.count_substring_regex(arr, pattern)


def token_counts(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Adds ``n_ws_tokens`` (whitespace-delimited) and ``n_word_tokens``
    (regex ``[a-z0-9]+`` over lowercased text — BPE-ish word
    pre-tokenization count)."""
    low = _lower(batch, text_col)
    return batch.append_column(
        "n_ws_tokens", _count(low, WS_TOKEN_REGEX).cast(pa.int64())
    ).append_column("n_word_tokens", _count(low, WORD_REGEX).cast(pa.int64()))


def quality_features(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Length / punctuation / stopword-ratio quality features + a
    composite ``quality_score`` in [0, 1]."""
    low = _lower(batch, text_col)
    n_chars = pc.utf8_length(low).cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)
    n_words = _count(low, WORD_REGEX).cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)
    n_alnum = _count(low, ALNUM_CHAR_REGEX).cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)
    n_punct = _count(low, PUNCT_CHAR_REGEX).cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)
    n_stop = _count(low, STOPWORD_REGEX).cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)

    denom_c = np.maximum(n_chars, 1.0)
    denom_w = np.maximum(n_words, 1.0)
    mean_word_len = _round6(n_alnum / denom_w)
    alpha_ratio = _round6(n_alnum / denom_c)
    punct_ratio = _round6(n_punct / denom_c)
    stop_ratio = _round6(n_stop / denom_w)
    score = _round6(
        0.3 * (n_alnum / denom_c)
        + 0.3 * (1.0 - n_punct / denom_c)
        + 0.2 * (1.0 - n_stop / denom_w)
        + 0.2 * np.minimum(n_words / 100.0, 1.0)
    )
    out = batch
    for name, arr in (
        ("n_chars", n_chars.astype(np.int64)),
        ("n_words", n_words.astype(np.int64)),
        ("mean_word_len", mean_word_len),
        ("alpha_ratio", alpha_ratio),
        ("punct_ratio", punct_ratio),
        ("stop_ratio", stop_ratio),
        ("quality_score", score),
    ):
        col = pa.array(arr)
        if name in out.column_names:  # input may carry e.g. its own n_chars
            out = out.set_column(out.column_names.index(name), name, col)
        else:
            out = out.append_column(name, col)
    return out


def quality_features_sql(src: str, id_col: str = "doc_id") -> str:
    """DuckDB mirror of :func:`quality_features` (same regexes, RE2)."""
    low = "lower(coalesce(text, ''))"
    n_chars, n_words = f"length({low})", f"len(regexp_extract_all({low}, '{WORD_REGEX}'))"
    n_alnum = f"len(regexp_extract_all({low}, '{ALNUM_CHAR_REGEX}'))"
    n_punct = f"len(regexp_extract_all({low}, '{PUNCT_CHAR_REGEX}'))"
    n_stop = f"len(regexp_extract_all({low}, '{STOPWORD_REGEX}'))"
    dc, dw = f"greatest({n_chars}, 1)", f"greatest({n_words}, 1)"
    r = QUALITY_ROUND
    return f"""
SELECT {id_col},
       CAST({n_chars} AS BIGINT) AS n_chars,
       CAST({n_words} AS BIGINT) AS n_words,
       round({n_alnum} * 1.0 / {dw}, {r}) AS mean_word_len,
       round({n_alnum} * 1.0 / {dc}, {r}) AS alpha_ratio,
       round({n_punct} * 1.0 / {dc}, {r}) AS punct_ratio,
       round({n_stop} * 1.0 / {dw}, {r}) AS stop_ratio,
       round(0.3 * ({n_alnum} * 1.0 / {dc})
           + 0.3 * (1.0 - {n_punct} * 1.0 / {dc})
           + 0.2 * (1.0 - {n_stop} * 1.0 / {dw})
           + 0.2 * least({n_words} / 100.0, 1.0), {r}) AS quality_score
FROM {src}
"""


# ---------------------------------------------------------------------------
# Gopher quality rules (Rae et al. 2021, "Scaling Language Models:
# Methods, Analysis & Insights from Training Gopher", App. A1.1)
# ---------------------------------------------------------------------------

# the paper's published document-filter thresholds, verbatim
GOPHER_MIN_WORDS = 50
GOPHER_MAX_WORDS = 100_000
GOPHER_MIN_MEAN_WORD_LEN = 3.0
GOPHER_MAX_MEAN_WORD_LEN = 10.0
GOPHER_MAX_SYMBOL_RATIO = 0.1       # '#' or '...' per word
GOPHER_MAX_BULLET_RATIO = 0.9       # lines starting with a bullet
GOPHER_MAX_ELLIPSIS_RATIO = 0.3     # lines ending with an ellipsis
GOPHER_MIN_ALPHA_WORD_RATIO = 0.8   # words containing >= 1 letter
GOPHER_MIN_STOP_HITS = 2            # distinct required stop words present
# the paper's 8-word required-stopword list
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")

_GOPHER_BULLET_RE = r"(?m)^[ \t]*[-*•‣▪]"
_GOPHER_ELLIPSIS_RE = r"(?m)(\.\.\.|…)$"
_GOPHER_ALPHA_WORD_RE = r"\S*[a-zA-Z]\S*"


def gopher_rules(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher document-quality rules (Rae et al. 2021 App. A1.1) — the
    published-threshold filter family a web-scale training pipeline
    runs before any model-based scoring. One zero-shuffle vectorized
    map (RE2 count kernels + integer arithmetic); every ratio is ONE
    division of exact integer counts, so the SQL twin's doubles match
    bitwise and the keep flags compare exactly (flags evaluate on the
    UNROUNDED ratios; the emitted ratio columns are round-6 like the
    other quality features).

    Words are whitespace tokens (the paper's convention); mean word
    length = non-whitespace chars / words; symbols are ``#`` and
    non-overlapping ``...``; bullets/ellipses are per-LINE rules
    ((?m) anchors); stop hits count DISTINCT members of the paper's
    8-word list present as whole words."""
    txt = pc.fill_null(batch.column(text_col).combine_chunks(), "")
    low = pc.utf8_lower(txt)

    def cnt(arr, pattern):
        return _count(arr, pattern).cast(pa.int64()).to_numpy(zero_copy_only=False)

    n_words = cnt(txt, WS_TOKEN_REGEX)
    nonws_chars = (
        pc.utf8_length(pc.replace_substring_regex(txt, r"\s", ""))
        .cast(pa.int64()).to_numpy(zero_copy_only=False)
    )
    n_symbols = cnt(txt, "#") + cnt(txt, r"\.\.\.")
    # 1 + newline count ('' is one line) — a LITERAL count, not an
    # empty-match '(?m)^' scan (empty-match counting is the one spot
    # where regex engines legitimately disagree)
    n_lines = cnt(txt, r"\n") + 1
    n_bullet = cnt(txt, _GOPHER_BULLET_RE)
    n_ellipsis = cnt(txt, _GOPHER_ELLIPSIS_RE)
    n_alpha_words = cnt(txt, _GOPHER_ALPHA_WORD_RE)
    stop_hits = np.zeros(len(txt), np.int64)
    for w in GOPHER_STOPWORDS:
        stop_hits += (
            pc.match_substring_regex(low, rf"\b{w}\b")
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )

    dw = np.maximum(n_words, 1).astype(np.float64)
    dl = np.maximum(n_lines, 1).astype(np.float64)
    mean_wl = nonws_chars * 1.0 / dw
    symbol_ratio = n_symbols * 1.0 / dw
    bullet_ratio = n_bullet * 1.0 / dl
    ellipsis_ratio = n_ellipsis * 1.0 / dl
    alpha_ratio = n_alpha_words * 1.0 / dw
    keep = (
        (n_words >= GOPHER_MIN_WORDS)
        & (n_words <= GOPHER_MAX_WORDS)
        & (mean_wl >= GOPHER_MIN_MEAN_WORD_LEN)
        & (mean_wl <= GOPHER_MAX_MEAN_WORD_LEN)
        & (symbol_ratio < GOPHER_MAX_SYMBOL_RATIO)
        & (bullet_ratio < GOPHER_MAX_BULLET_RATIO)
        & (ellipsis_ratio < GOPHER_MAX_ELLIPSIS_RATIO)
        & (alpha_ratio > GOPHER_MIN_ALPHA_WORD_RATIO)
        & (stop_hits >= GOPHER_MIN_STOP_HITS)
    )
    out = batch
    for name, arr in (
        ("n_words", pa.array(n_words)),
        ("mean_word_len", pa.array(_round6(mean_wl))),
        ("symbol_ratio", pa.array(_round6(symbol_ratio))),
        ("bullet_ratio", pa.array(_round6(bullet_ratio))),
        ("ellipsis_ratio", pa.array(_round6(ellipsis_ratio))),
        ("alpha_word_ratio", pa.array(_round6(alpha_ratio))),
        ("n_stop_hits", pa.array(stop_hits)),
        ("gopher_keep", pa.array(keep)),
    ):
        if name in out.column_names:
            out = out.set_column(out.column_names.index(name), name, arr)
        else:
            out = out.append_column(name, arr)
    return out


def gopher_rules_sql(src: str, id_col: str = "doc_id") -> str:
    """DuckDB mirror of :func:`gopher_rules` — same RE2 patterns, same
    single-division op order (integer counts * 1.0 / greatest(n, 1)),
    keep flags on the unrounded ratios."""
    txt = "coalesce(text, '')"
    low = f"lower({txt})"
    n_words = f"len(regexp_extract_all({txt}, '{WS_TOKEN_REGEX}'))"
    nonws = f"length(regexp_replace({txt}, '\\s', '', 'g'))"
    n_sym = (
        f"(len(regexp_extract_all({txt}, '#'))"
        f" + len(regexp_extract_all({txt}, '\\.\\.\\.')))"
    )
    n_lines = f"(1 + len(regexp_extract_all({txt}, '\\n')))"
    n_bullet = f"len(regexp_extract_all({txt}, '{_GOPHER_BULLET_RE}'))"
    n_ellipsis = f"len(regexp_extract_all({txt}, '{_GOPHER_ELLIPSIS_RE}'))"
    n_alpha = f"len(regexp_extract_all({txt}, '{_GOPHER_ALPHA_WORD_RE}'))"
    stop_hits = " + ".join(
        f"CAST(regexp_matches({low}, '\\b{w}\\b') AS BIGINT)"
        for w in GOPHER_STOPWORDS
    )
    dw, dl = f"greatest({n_words}, 1)", f"greatest({n_lines}, 1)"
    r = QUALITY_ROUND
    keep = (
        f"({n_words} >= {GOPHER_MIN_WORDS} AND {n_words} <= {GOPHER_MAX_WORDS}"
        f" AND {nonws} * 1.0 / {dw} >= {GOPHER_MIN_MEAN_WORD_LEN}"
        f" AND {nonws} * 1.0 / {dw} <= {GOPHER_MAX_MEAN_WORD_LEN}"
        f" AND {n_sym} * 1.0 / {dw} < {GOPHER_MAX_SYMBOL_RATIO}"
        f" AND {n_bullet} * 1.0 / {dl} < {GOPHER_MAX_BULLET_RATIO}"
        f" AND {n_ellipsis} * 1.0 / {dl} < {GOPHER_MAX_ELLIPSIS_RATIO}"
        f" AND {n_alpha} * 1.0 / {dw} > {GOPHER_MIN_ALPHA_WORD_RATIO}"
        f" AND ({stop_hits}) >= {GOPHER_MIN_STOP_HITS})"
    )
    return f"""
SELECT {id_col},
       CAST({n_words} AS BIGINT) AS n_words,
       round({nonws} * 1.0 / {dw}, {r}) AS mean_word_len,
       round({n_sym} * 1.0 / {dw}, {r}) AS symbol_ratio,
       round({n_bullet} * 1.0 / {dl}, {r}) AS bullet_ratio,
       round({n_ellipsis} * 1.0 / {dl}, {r}) AS ellipsis_ratio,
       round({n_alpha} * 1.0 / {dw}, {r}) AS alpha_word_ratio,
       CAST({stop_hits} AS BIGINT) AS n_stop_hits,
       {keep} AS gopher_keep
FROM {src}
"""


def token_counts_sql(src: str, id_col: str = "doc_id") -> str:
    low = "lower(coalesce(text, ''))"
    return (
        f"SELECT {id_col}, "
        f"CAST(len(regexp_extract_all({low}, '{WS_TOKEN_REGEX}')) AS BIGINT) AS n_ws_tokens, "
        f"CAST(len(regexp_extract_all({low}, '{WORD_REGEX}')) AS BIGINT) AS n_word_tokens "
        f"FROM {src}"
    )


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

# per-worker-process token -> md5-uint64 memo for the rolling hash
_FP_TOKEN_MEMO: dict[str, int] = {}


def fingerprint(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Adds ``fp_md5`` (md5 hex of whitespace-normalized lowercase text —
    byte-identical to DuckDB's ``md5()``) and ``fp_roll`` (64-bit
    polynomial rolling hash over whitespace tokens — the
    streaming-friendly content fingerprint; rows-only checked).

    fp_roll is FULLY VECTORIZED: token md5s run once per unique token per
    process (memo), the polynomial fold ``h = Σ t_j·B^(n-1-j)`` (uint64
    wraparound) is one power-table gather + one ``np.add.reduceat``."""
    low = _lower(batch, text_col)
    norm = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(low, r"\s+", " ")
    )
    md5s = [hashlib.md5(t.encode()).hexdigest() for t in norm.to_pylist()]

    n = batch.num_rows
    toks = pc.split_pattern(norm, " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    keep = pc.greater(pc.utf8_length(flat), 0)
    keep_np = keep.to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)[keep_np]
    flat = flat.filter(keep)
    rolls = np.zeros(n, np.uint64)
    if len(flat):
        d = flat.dictionary_encode()
        uniq = d.dictionary.to_pylist()
        memo = _FP_TOKEN_MEMO
        get = memo.get
        uniq_h = np.empty(len(uniq), np.uint64)
        for i, s in enumerate(uniq):
            h = get(s)
            if h is None:
                h = int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")
                memo[s] = h
            uniq_h[i] = h
        th = uniq_h[d.indices.to_numpy(zero_copy_only=False)]
        # exponent of each token = tokens-after-it within its doc
        starts = np.flatnonzero(np.diff(doc_idx, prepend=-1))
        seg_len = np.diff(np.append(starts, len(doc_idx)))
        ends = np.repeat(np.cumsum(seg_len), seg_len)
        exp = ends - 1 - np.arange(len(doc_idx))
        maxlen = int(seg_len.max())
        pw = np.concatenate(
            ([np.uint64(1)], np.full(maxlen - 1, FP_HASH_BASE, np.uint64))
        ).cumprod()
        acc = np.add.reduceat(th * pw[exp], starts)
        rolls[doc_idx[starts]] = acc
    return batch.append_column("fp_md5", pa.array(md5s, pa.string())).append_column(
        "fp_roll", pa.array(rolls.view(np.int64), pa.int64())
    )


def fingerprint_sql(src: str, id_col: str = "doc_id") -> str:
    norm = "trim(regexp_replace(lower(coalesce(text, '')), '\\s+', ' ', 'g'))"
    return f"SELECT {id_col}, md5({norm}) AS fp_md5 FROM {src}"


# ---------------------------------------------------------------------------
# Winnowing fingerprints (Schleimer, Wilkerson & Aiken 2003 — MOSS)
# ---------------------------------------------------------------------------

WINNOW_K = 4  # k-gram length (word tokens)
WINNOW_W = 4  # winnowing window (guarantee threshold t = w + k - 1)


def winnow_fingerprints(
    ds,
    k: int = WINNOW_K,
    w: int = WINNOW_W,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken
    2003, "Winnowing: Local Algorithms for Document Fingerprinting" —
    the MOSS selector): md5 keys over word-token k-grams; in every
    window of ``w`` consecutive k-gram hashes select the MINIMUM (ties
    -> the RIGHTMOST occurrence, the paper's robust-winnowing rule),
    deduplicated — any two documents sharing a token run of length
    >= w + k - 1 are GUARANTEED to share a selected fingerprint, and
    the density is ~2/(w+1) of all grams. A doc with fewer than ``w``
    k-grams (but >= 1) emits its single global-min gram so short docs
    stay fingerprintable.

    Returns rows (id, pos, fp): 0-based k-gram start position over the
    doc's word tokens + the full md5 hex key. One zero-shuffle
    vectorized map (each row IS a document, so windows never cross
    batch boundaries); the window minimum compares the first 16 hex
    nibbles as uint64 — the SQL twin orders by ``substring(h, 1, 16)``,
    the identical total preorder on fixed-width lowercase hex, with the
    same rightmost tie-break, so even prefix collisions mirror.

    Scale: selected fingerprints are the INPUT the corpus-level dedup
    ops consume (bucket-groupby on fp — exact_dedup's shape); this op
    itself ships nothing."""
    from .dedup import _flat_word_tokens, _md5_col

    k_, w_ = int(k), int(w)
    if k_ < 1 or w_ < 1:
        raise ValueError("winnow_fingerprints requires k >= 1 and w >= 1")

    def rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        doc_idx, flat = _flat_word_tokens(batch.column(text_col))
        m = len(doc_idx)
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "fp": pa.array([], pa.string()),
            }
        )
        if m < k_:
            return empty
        span = m - k_ + 1
        valid = doc_idx[:span] == doc_idx[k_ - 1 :]
        if not valid.any():
            return empty
        sel_mask = pa.array(valid)
        joined = pc.binary_join_element_wise(
            *(flat.slice(j, span).filter(sel_mask) for j in range(k_)), " "
        )
        h = _md5_col(joined)
        hh = h.combine_chunks() if isinstance(h, pa.ChunkedArray) else h
        # first 16 nibbles -> uint64 comparison key (mirrors the twin's
        # substring(h, 1, 16) lexicographic order exactly)
        raw = np.frombuffer(hh.buffers()[2], np.uint8)
        mat = raw[: 32 * len(hh)].reshape(-1, 32)[:, :16].astype(np.uint64)
        nib = np.where(mat >= 97, mat - 87, mat - 48)
        hk = nib @ (np.uint64(16) ** np.arange(15, -1, -1, dtype=np.uint64))
        gdoc = doc_idx[:span][valid]  # batch-local doc index per gram
        # gram position within its doc = global token offset - doc start
        tok_starts = np.flatnonzero(np.diff(doc_idx, prepend=-1))
        first_tok = np.full(len(ids), -1, np.int64)
        first_tok[doc_idx[tok_starts]] = tok_starts
        gpos = np.flatnonzero(valid) - first_tok[gdoc]

        n = len(hk)
        seg_starts = np.flatnonzero(np.diff(gdoc, prepend=-1))
        seg_len = np.diff(np.append(seg_starts, n))
        selected = []
        if n >= w_:
            win = np.lib.stride_tricks.sliding_window_view(hk, w_)
            wvalid = gdoc[: n - w_ + 1] == gdoc[w_ - 1 :]
            if wvalid.any():
                # rightmost min: argmin over the REVERSED window
                idx = w_ - 1 - np.argmin(win[:, ::-1], axis=1)
                sel = np.arange(n - w_ + 1, dtype=np.int64) + idx
                selected.append(np.unique(sel[wvalid]))
        short = seg_len < w_
        if short.any():
            # short docs: the single global-min gram, rightmost tie
            mins = np.minimum.reduceat(hk, seg_starts)
            eq = hk == np.repeat(mins, seg_len)
            pos_or = np.where(eq, np.arange(n, dtype=np.int64), -1)
            last_eq = np.maximum.reduceat(pos_or, seg_starts)
            selected.append(last_eq[short])
        if not selected:
            return empty
        sel = np.unique(np.concatenate(selected))
        return pa.table(
            {
                id_col: pa.array(ids[gdoc[sel]], pa.int64()),
                "pos": pa.array(gpos[sel], pa.int64()),
                "fp": hh.take(pa.array(sel)),
            }
        )

    return ds.map_batches(rows, batch_format="pyarrow")


def winnow_fingerprints_sql(
    src: str, k: int = WINNOW_K, w: int = WINNOW_W, id_col: str = "doc_id"
) -> str:
    """DuckDB twin of :func:`winnow_fingerprints`: chained-lead k-gram
    text (the dup_window_ratio device) + the SAME md5 key; window
    membership by a positional self-join, full windows only (HAVING
    count = w), winner = row_number() over (ORDER BY substring(h,1,16)
    ASC, pos DESC) — the engine's uint64-prefix key and rightmost
    tie-break; short docs (< w grams) contribute their global min by
    the same rank rule."""
    leads = " || ' ' || ".join(
        f"lead(tok, {j}) OVER (PARTITION BY {id_col} ORDER BY i)"
        for j in range(1, k)
    )
    gram_text = f"tok || ' ' || {leads}" if k > 1 else "tok"
    return f"""
WITH toks AS (
    SELECT {id_col},
           unnest(regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}')) AS tok,
           generate_subscripts(regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}'), 1) AS i
    FROM {src}
),
grams AS (
    SELECT {id_col}, CAST(i - 1 AS BIGINT) AS pos, md5({gram_text}) AS h
    FROM toks QUALIFY h IS NOT NULL
),
gcnt AS (SELECT {id_col}, count(*) AS ng FROM grams GROUP BY {id_col}),
pairs AS (
    SELECT g1.{id_col} AS {id_col}, g1.pos AS s, g2.pos AS pos, g2.h AS h
    FROM grams g1
    JOIN grams g2 ON g2.{id_col} = g1.{id_col}
        AND g2.pos BETWEEN g1.pos AND g1.pos + {w - 1}
),
fullw AS (
    SELECT {id_col}, s FROM pairs GROUP BY {id_col}, s HAVING count(*) = {w}
),
winner AS (
    SELECT p.{id_col}, p.pos, p.h,
           row_number() OVER (
               PARTITION BY p.{id_col}, p.s
               ORDER BY substring(p.h, 1, 16) ASC, p.pos DESC
           ) AS rn
    FROM pairs p JOIN fullw f ON f.{id_col} = p.{id_col} AND f.s = p.s
),
short_sel AS (
    SELECT g.{id_col}, g.pos, g.h,
           row_number() OVER (
               PARTITION BY g.{id_col}
               ORDER BY substring(g.h, 1, 16) ASC, g.pos DESC
           ) AS rn
    FROM grams g JOIN gcnt c ON c.{id_col} = g.{id_col}
    WHERE c.ng < {w}
)
SELECT DISTINCT {id_col}, pos, h AS fp FROM winner WHERE rn = 1
UNION
SELECT {id_col}, pos, h AS fp FROM short_sel WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Language ID (n-gram/stopword heuristic) — rows-only oracle
# ---------------------------------------------------------------------------

def langid_sql(src: str, id_col: str = "doc_id") -> str:
    """DuckDB mirror of :class:`LangId` — the heuristic is pure regex
    counting, so the SAME profile tables generate an exact oracle
    (argmax tie-break = profile declaration order, mirroring the
    first-max-wins Python loop; float divisions are identical IEEE
    ops on identical integers)."""
    low = "lower(coalesce(text, ''))"
    n_words = f"greatest(len(regexp_extract_all({low}, '{WORD_REGEX}')), 1)"
    scores = {
        lang: f"(len(regexp_extract_all({low}, '\\b({'|'.join(ws)})\\b')) * 1.0 / {n_words})"
        for lang, ws in LANG_PROFILES.items()
    }
    m = "greatest(" + ", ".join(f"s_{lang}" for lang in LANG_PROFILES) + ")"
    first_max = " ".join(
        f"WHEN s_{lang} = m THEN '{lang}'" for lang in LANG_PROFILES
    )
    score_cols = ", ".join(f"{expr} AS s_{lang}" for lang, expr in scores.items())
    return f"""
WITH s AS (
    SELECT {id_col}, lang,
           len(regexp_extract_all({low}, '[一-鿿]')) AS n_cjk,
           greatest(length({low}), 1) AS n_chars,
           {score_cols}
    FROM {src}
),
sm AS (SELECT *, {m} AS m FROM s)
SELECT {id_col}, lang,
       CASE WHEN n_cjk > 0.2 * n_chars THEN 'zh'
            WHEN m < 0.05 THEN 'unknown'
            {first_max}
            ELSE 'unknown' END AS lang_pred
FROM sm
"""


class LangId:
    """Actor-pool language classifier: profile patterns built once per
    actor (``__init__``), FULLY VECTORIZED scoring per batch — one
    ``pc.count_substring_regex`` pass (RE2, C level) per language plus
    CJK/word-count passes; the per-row work is a numpy argmax. Scores
    each language by standalone-stopword hit rate; 'zh' by CJK char
    ratio. Exact SQL oracle: :func:`langid_sql` (generated from the same
    profiles — both sides run RE2 on identical patterns)."""

    CJK_REGEX = r"[一-鿿]"
    MIN_SCORE = 0.05
    CJK_RATIO = 0.2

    def __init__(self):
        self.patterns = {
            lang: r"\b(" + "|".join(ws) + r")\b" for lang, ws in LANG_PROFILES.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        low = _lower(batch, "text")
        n_chars = np.maximum(
            pc.utf8_length(low).to_numpy(zero_copy_only=False).astype(np.float64), 1.0
        )
        n_cjk = _count(low, self.CJK_REGEX).to_numpy(zero_copy_only=False)
        n_words = np.maximum(
            _count(low, WORD_REGEX).to_numpy(zero_copy_only=False).astype(np.float64), 1.0
        )
        langs = list(self.patterns)
        scores = np.stack(
            [
                _count(low, p).to_numpy(zero_copy_only=False) / n_words
                for p in self.patterns.values()
            ]
        )  # (n_langs, n)
        best = np.argmax(scores, axis=0)  # first max wins (profile order)
        best_s = scores[best, np.arange(scores.shape[1])]
        lang_arr = np.asarray(langs, dtype=object)[best]
        lang_arr[best_s < self.MIN_SCORE] = "unknown"
        lang_arr[n_cjk > self.CJK_RATIO * n_chars] = "zh"
        return batch.append_column(
            "lang_pred", pa.array(lang_arr, pa.string())
        )


# ---------------------------------------------------------------------------
# Corpus-wide n-gram counts (LM-stats / contamination-check primitive)
# ---------------------------------------------------------------------------

NGRAM_N = 2
NGRAM_MIN_COUNT = 5


def ngram_count_rows(batch: pa.Table, n: int = NGRAM_N,
                     text_col: str = "text") -> pa.Table:
    """Map-side PARTIAL n-gram counts for one batch: vectorized
    tokenization (shared with the dedup shingler), window validity by
    doc-index equality, gram strings via one ``binary_join_element_wise``
    call, partials via ``value_counts`` — no per-row Python. Emitting
    (ngram, partial_count) instead of occurrences shrinks the shuffle by
    the in-batch repetition factor (large, for Zipfian text)."""
    from .dedup import _flat_word_tokens

    doc_idx, flat = _flat_word_tokens(batch.column(text_col))
    empty = pa.table({"ngram": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
    m = len(doc_idx) - n + 1
    if m <= 0:
        return empty
    valid = np.ones(m, bool)
    for j in range(1, n):
        valid &= doc_idx[j : m + j] == doc_idx[:m]
    if not valid.any():
        return empty
    parts = [flat.slice(j, m) for j in range(n)]
    grams = pc.binary_join_element_wise(*parts, " ").filter(pa.array(valid))
    vc = grams.value_counts()
    return pa.table(
        {"ngram": vc.field("values"), "n": vc.field("counts").cast(pa.int64())}
    )


def ngram_counts(ds, n: int = NGRAM_N, min_count: int = NGRAM_MIN_COUNT,
                 text_col: str = "text"):
    """Corpus-wide n-gram counts >= ``min_count``: in-map partial counts
    then ONE groupby(ngram) sum — the pre-aggregated shuffle shape. The
    count floor is applied post-aggregate (a map), so rare-gram rows
    never ship twice."""
    import ray.data as rd  # noqa: F401  (Dataset-level op)
    from ray.data.aggregate import Sum

    partials = ds.map_batches(
        lambda b: ngram_count_rows(b, n, text_col), batch_format="pyarrow"
    )
    total = partials.groupby("ngram").aggregate(Sum("n", alias_name="n"))
    return total.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("n"), pa.scalar(min_count))),
        batch_format="pyarrow",
    )


def ngram_counts_sql(src: str, n: int = NGRAM_N,
                     min_count: int = NGRAM_MIN_COUNT) -> str:
    """DuckDB oracle for :func:`ngram_counts` (same tokenizer regex,
    same windowing as the shingle SQL)."""
    joins = "".join(f" || ' ' || t[i+{j}]" for j in range(1, n))
    return f"""
WITH toks AS (
    SELECT regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}') AS t
    FROM {src}
),
g AS (
    SELECT t[i]{joins} AS ngram
    FROM toks, UNNEST(range(1, len(t) - {n - 2})) AS r(i)
    WHERE len(t) >= {n}
)
SELECT ngram, CAST(count(*) AS BIGINT) AS n
FROM g GROUP BY ngram HAVING count(*) >= {min_count}
"""


# ---------------------------------------------------------------------------
# Cardinality: exact distinct-token count + HyperLogLog scale sibling
# ---------------------------------------------------------------------------

HLL_P = 12  # 4096 registers: sigma = 1.04/sqrt(2^p) ~ 1.6% relative error

# per-worker-process token -> md5-64bit memo (the fingerprint pattern)
_HLL_TOKEN_MEMO: dict[str, int] = {}


def distinct_tokens(ds, text_col: str = "text") -> pa.Table:
    """EXACT corpus-distinct word-token count (the ES ``cardinality``
    aggregation at precision = exact): in-map block-deduped partial
    counts feed one groupby(token) — the same pre-aggregated exchange
    :func:`ngram_counts` uses, the honest cost of exactness (the
    vocabulary shuffles once) — and the group COUNT is taken
    distributed (``Dataset.count`` over the grouped rows); nothing
    vocabulary-sized returns to the driver. -> 1-row
    pa.Table(n_distinct). :func:`hll_distinct_tokens` is the
    constant-memory approximate sibling for when the vocabulary itself
    is too large to shuffle."""
    n = ngram_counts(ds, n=1, min_count=1, text_col=text_col).count()
    return pa.table({"n_distinct": pa.array([int(n)], pa.int64())})


def distinct_tokens_sql(src: str) -> str:
    return f"""
WITH toks AS (
    SELECT regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}') AS t
    FROM {src}
)
SELECT CAST(count(DISTINCT t[i]) AS BIGINT) AS n_distinct
FROM toks, UNNEST(range(1, len(t) + 1)) AS r(i)
"""


def _hll_hash(tokens: list[str]) -> np.ndarray:
    """md5-64bit per token, memoized per worker process (block-unique
    inputs, so the loop is vocabulary- not occurrence-sized)."""
    memo = _HLL_TOKEN_MEMO
    out = np.empty(len(tokens), np.uint64)
    for i, t in enumerate(tokens):
        h = memo.get(t)
        if h is None:
            h = int(hashlib.md5(t.encode()).hexdigest()[:16], 16)
            if len(memo) < 4_000_000:  # bound worker memory
                memo[t] = h
        out[i] = h
    return out


def hll_registers(ds, p: int = HLL_P, text_col: str = "text"):
    """HyperLogLog register table over the corpus word tokens (Flajolet
    et al. 2007) — the constant-memory distinct-count sketch every
    analytics engine ships (ES ``cardinality``, Redis PFCOUNT): register
    ``b`` holds the max over tokens hashing to bucket ``b`` of
    (1 + leading-zero count of the remaining 64-p hash bits).

    DETERMINISTIC (md5-based, no RNG): the same corpus yields the same
    registers at any parallelism, and the DuckDB oracle reproduces the
    register table EXACTLY — an approximate sketch whose sketch state is
    exact-checkable. Shape: each block emits its nonzero (bucket, rank)
    partials from block-unique tokens; ONE groupby(bucket) max folds
    them (<= 2^p rows, parameter-bounded like the DSIR histogram);
    nothing vocabulary-sized shuffles — that is the point vs
    :func:`distinct_tokens`. -> Dataset of (bucket, register), nonzero
    registers only, bucket-ascending after sort."""
    from ray.data.aggregate import Max

    m = 1 << p
    wbits = 64 - p
    wmask = np.uint64((1 << wbits) - 1)

    def partials(batch: pa.Table) -> pa.Table:
        from .dedup import _flat_word_tokens

        _doc_idx, flat = _flat_word_tokens(batch.column(text_col))
        toks = pc.unique(flat).to_pylist()
        if not toks:
            return pa.table(
                {"bucket": pa.array([], pa.int64()),
                 "register": pa.array([], pa.int64())}
            )
        h = _hll_hash(toks)
        idx = (h >> np.uint64(wbits)).astype(np.int64)
        w = h & wmask
        # rank = leading zeros of the wbits-wide remainder + 1
        #      = wbits - bit_length(w) + 1   (w == 0 -> wbits + 1)
        bl = np.zeros(len(w), np.int64)
        nz = w > 0
        bl[nz] = np.floor(np.log2(w[nz].astype(np.float64))).astype(np.int64) + 1
        # float log2 can round UP at 2^k - 1 boundaries (bl would then
        # overshoot bit_length by 1): exact check 2^(bl-1) <= w
        shift = np.maximum(bl - 1, 0).astype(np.uint64)
        too_big = nz & (bl > 0) & ((np.uint64(1) << shift) > w)
        bl[too_big] -= 1
        rank = wbits - bl + 1
        regs = np.zeros(m, np.int64)
        np.maximum.at(regs, idx, rank)
        nzb = np.flatnonzero(regs)
        return pa.table(
            {
                "bucket": pa.array(nzb.astype(np.int64), pa.int64()),
                "register": pa.array(regs[nzb], pa.int64()),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Max("register", alias_name="register"))
        .sort("bucket")
    )


def hll_registers_sql(src: str, p: int = HLL_P) -> str:
    """DuckDB oracle for :func:`hll_registers` — same md5-64bit hash,
    same bucket/rank split; ``length(bin(w)) == bit_length(w)`` exactly
    (integer, no float log), nonzero registers only."""
    wbits = 64 - p
    wspace = 1 << wbits
    return f"""
WITH toks AS (
    SELECT regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}') AS t
    FROM {src}
),
tok AS (
    SELECT DISTINCT t[i] AS tok
    FROM toks, UNNEST(range(1, len(t) + 1)) AS r(i)
),
h AS (
    SELECT ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h FROM tok
),
ranked AS (
    SELECT CAST(h // {wspace} AS BIGINT) AS bucket,
           CAST({wbits} - CASE WHEN h % {wspace} = 0 THEN 0
                ELSE length(bin(h % {wspace})) END + 1 AS BIGINT) AS rank
    FROM h
)
SELECT bucket, CAST(max(rank) AS BIGINT) AS register
FROM ranked GROUP BY bucket ORDER BY bucket
"""


def hll_estimate(registers: pa.Table, p: int = HLL_P) -> float:
    """Standard HLL estimator over a (bucket, register) table (nonzero
    rows): alpha_m bias correction + small-range linear counting (the
    64-bit hash makes large-range correction unnecessary below ~2^57
    distinct). Driver-side scalar math over <= 2^p rows."""
    m = 1 << p
    regs = np.zeros(m, np.float64)
    if registers.num_rows:
        regs[registers.column("bucket").to_numpy()] = (
            registers.column("register").to_numpy().astype(np.float64)
        )
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


# ---------------------------------------------------------------------------
# Per-doc TF-IDF top-k keywords
# ---------------------------------------------------------------------------

KEYWORDS_K = 5
# Max vocabulary the df table may broadcast from the calling process;
# above it tfidf_keywords switches to the term-keyed join path (no
# vocabulary-sized object in one process anywhere).
TFIDF_BROADCAST_MAX_TERMS = 2_000_000


def tfidf_keywords(ds, k: int = KEYWORDS_K, id_col: str = "doc_id",
                   text_col: str = "text",
                   broadcast_max_terms: int = TFIDF_BROADCAST_MAX_TERMS):
    """Top-``k`` TF-IDF keywords per document: ``tf * ln(N / df)`` with
    the deterministic (score DESC, term ASC) tiebreak.

    Shape: two passes over the raw documents. Pass 1 computes per-doc
    term frequencies IN-MAP (one ``value_counts`` over doc-salted
    grams — no per-doc Python) and shuffles only the distinct
    (doc, term) rows into the df groupby. The df table is
    vocabulary-sized, orders of magnitude below the corpus (Heaps'
    law), so below ``broadcast_max_terms`` it returns to the driver and
    broadcasts (an ENFORCED threshold). Pass 2 then RECOMPUTES tf inside
    the map and selects each doc's top-k in the same invocation —
    re-tokenizing is one vectorized pass, and it buys boundary-safety:
    a doc's rows can never straddle blocks (no reliance on Ray's
    block-splitting behavior), and nothing doc-count-sized leaves the
    workers except the k winners per doc.

    Above the threshold (web-scale vocabularies) nothing returns to the
    driver: df attaches to the tf rows via a term-bucket groupby (equal
    terms co-locate; per-group work is one vectorized factorize +
    bincount per BUCKET, not per term) and per-doc top-k runs in a
    second doc-bucket groupby. Both paths are pinned equal by test at a
    forced low threshold.
    """
    import ray
    import ray.data as rd  # noqa: F401
    from ray.data.aggregate import Count

    def tf_rows(batch: pa.Table) -> pa.Table:
        from .dedup import _flat_word_tokens

        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        doc_idx, flat = _flat_word_tokens(batch.column(text_col))
        if len(doc_idx) == 0:
            return pa.table(
                {id_col: pa.array([], pa.int64()), "term": pa.array([], pa.string()),
                 "tf": pa.array([], pa.int64())}
            )
        # count (doc, term) occurrences via value_counts on salted grams
        salted = pc.binary_join_element_wise(
            pa.array(ids[doc_idx].astype("U"), pa.string()), flat, "\x00"
        )
        vc = salted.value_counts()
        both = vc.field("values").to_pylist()
        did, term = zip(*(s.split("\x00", 1) for s in both))
        return pa.table(
            {
                id_col: pa.array(np.asarray(did, dtype=np.int64), pa.int64()),
                "term": pa.array(term, pa.string()),
                "tf": vc.field("counts").cast(pa.int64()),
            }
        )

    n_docs = ds.count()
    df_agg = (
        ds.map_batches(tf_rows, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Count(alias_name="df"))
        .materialize()
    )
    if df_agg.count() > broadcast_max_terms:
        return _tfidf_topk_joined(ds, tf_rows, n_docs, k, id_col)
    df_tbl = df_agg.to_pandas()
    df_ref = ray.put(dict(zip(df_tbl["term"], df_tbl["df"].astype(np.int64))))

    def topk(raw: pa.Table) -> pa.Table:
        batch = tf_rows(raw)
        df_of = ray.get(df_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        terms = batch.column("term").to_pylist()
        tf = batch.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        df = np.array([df_of[t] for t in terms], np.float64)
        score = tf * np.log(n_docs / df)
        # per-doc rank: lexsort by (doc asc, score desc, term asc)
        order = np.lexsort((np.asarray(terms, object), -score, ids))
        sid = ids[order]
        starts = np.flatnonzero(np.concatenate(([True], sid[1:] != sid[:-1])))
        rank = np.arange(len(sid)) - np.repeat(starts, np.diff(np.concatenate((starts, [len(sid)]))))
        keep = order[rank < k]
        return pa.table(
            {
                id_col: pa.array(ids[keep], pa.int64()),
                "term": pa.array(np.asarray(terms, object)[keep], pa.string()),
                "tfidf": pa.array(_round6(score[keep]), pa.float64()),
            }
        )

    return ds.map_batches(topk, batch_format="pyarrow", batch_size=None)


def _tfidf_topk_joined(ds, tf_rows_fn, n_docs: int, k: int, id_col: str):
    """The no-broadcast tfidf path for vocabularies too large to pull to
    the driver: attach df by co-locating equal terms (bucketed term
    groupby — same bounded-bucket pattern as the dedup pair emitters),
    then select per-doc top-k in a doc-bucket groupby. Two shuffles of
    (doc, term, tf) rows, nothing driver-sized anywhere."""
    import pandas as pd

    nb = 1024

    def add_tb(batch: pa.Table) -> pa.Table:
        d = batch.column("term").combine_chunks().dictionary_encode()
        uniq = d.dictionary.to_pylist()
        uh = np.fromiter(
            (int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little") for s in uniq),
            np.uint64, len(uniq),
        )
        tb = (uh % np.uint64(nb)).astype(np.int64)[
            d.indices.to_numpy(zero_copy_only=False)
        ]
        return batch.append_column("tb", pa.array(tb, pa.int64()))

    def attach_df(group: pa.Table) -> pa.Table:
        codes, uniq = pd.factorize(
            group.column("term").to_numpy(zero_copy_only=False), sort=False
        )
        df = np.bincount(codes, minlength=len(uniq))[codes]
        return pa.table(
            {
                id_col: group.column(id_col),
                "term": group.column("term"),
                "tf": group.column("tf"),
                "df": pa.array(df.astype(np.int64), pa.int64()),
            }
        )

    scored_rows = (
        ds.map_batches(tf_rows_fn, batch_format="pyarrow")
        .map_batches(add_tb, batch_format="pyarrow")
        .groupby("tb")
        .map_groups(attach_df, batch_format="pyarrow")
        .materialize()  # chained lazy shuffles re-execute their inputs
    )

    def add_db(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return batch.append_column(
            "db", pa.array((ids % nb).astype(np.int64), pa.int64())
        )

    def doc_topk(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        terms = group.column("term").to_pylist()
        tf = group.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        df = group.column("df").to_numpy(zero_copy_only=False).astype(np.float64)
        score = tf * np.log(n_docs / df)
        order = np.lexsort((np.asarray(terms, object), -score, ids))
        sid = ids[order]
        starts = np.flatnonzero(np.concatenate(([True], sid[1:] != sid[:-1])))
        rank = np.arange(len(sid)) - np.repeat(
            starts, np.diff(np.concatenate((starts, [len(sid)])))
        )
        keep = order[rank < k]
        return pa.table(
            {
                id_col: pa.array(ids[keep], pa.int64()),
                "term": pa.array(np.asarray(terms, object)[keep], pa.string()),
                "tfidf": pa.array(_round6(score[keep]), pa.float64()),
            }
        )

    return (
        scored_rows.map_batches(add_db, batch_format="pyarrow")
        .groupby("db")
        .map_groups(doc_topk, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# Intra-document repetition (Gopher-style duplicate-n-gram quality rule)
# ---------------------------------------------------------------------------

REPETITION_N = 2


def repetition_features(batch: pa.Table, n: int = REPETITION_N,
                        id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Per-doc duplicate-n-gram ratio — the repetition quality signal a
    training-data pipeline gates on (boilerplate/looping text shows a
    high fraction of repeated n-grams): ``(doc_id, n_ngrams,
    n_distinct_ngrams, dup_ngram_ratio = 1 - distinct/total)``. Docs
    with fewer than ``n`` tokens report zeros. Pure zero-shuffle
    vectorized map: tokenization shared with the dedup shingler, gram
    distinctness via one factorize over doc-salted gram codes."""
    import pandas as pd

    from .dedup import _flat_word_tokens

    ids = batch.column(id_col)
    nd = batch.num_rows
    doc_idx, flat = _flat_word_tokens(batch.column(text_col))
    total = np.zeros(nd, np.int64)
    distinct = np.zeros(nd, np.int64)
    m = len(doc_idx) - n + 1
    if m > 0:
        valid = doc_idx[: m] == doc_idx[n - 1 :]
        if valid.any():
            parts = [flat.slice(j, m) for j in range(n)]
            args: list = []
            for j, p in enumerate(parts):
                if j:
                    args.append(" ")
                args.append(p)
            grams = pc.binary_join_element_wise(*args, "")
            w_doc = doc_idx[:m][valid]
            g = grams.filter(pa.array(valid)).to_numpy(zero_copy_only=False)
            codes, _u = pd.factorize(g, sort=False)
            total += np.bincount(w_doc, minlength=nd)
            key = w_doc * np.int64(len(_u)) + codes
            ukey = np.unique(key)
            distinct += np.bincount(ukey // len(_u), minlength=nd)
    ratio = np.zeros(nd, np.float64)
    nz = total > 0
    ratio[nz] = _round6(1.0 - distinct[nz] / total[nz].astype(np.float64))
    return pa.table(
        {
            id_col: ids,
            "n_ngrams": pa.array(total, pa.int64()),
            "n_distinct_ngrams": pa.array(distinct, pa.int64()),
            "dup_ngram_ratio": pa.array(ratio, pa.float64()),
        }
    )


def repetition_features_sql(src: str, n: int = REPETITION_N,
                            id_col: str = "doc_id") -> str:
    """DuckDB oracle for :func:`repetition_features` (n=2 only: the gram
    is built with one ``lead`` window over the ordinal token sequence)."""
    if n != 2:
        raise ValueError("SQL oracle implemented for n=2 (the default)")
    return f"""
WITH toks AS (
    SELECT {id_col},
           unnest(regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}')) AS tok,
           generate_subscripts(regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}'), 1) AS i
    FROM {src}
),
grams AS (
    SELECT {id_col},
           tok || ' ' || lead(tok) OVER (PARTITION BY {id_col} ORDER BY i) AS gram
    FROM toks
),
g2 AS (SELECT {id_col}, gram FROM grams WHERE gram IS NOT NULL),
agg AS (
    SELECT d.{id_col},
           CAST(count(g.gram) AS BIGINT) AS n_ngrams,
           CAST(count(DISTINCT g.gram) AS BIGINT) AS n_distinct_ngrams
    FROM {src} d LEFT JOIN g2 g USING ({id_col})
    GROUP BY d.{id_col}
)
SELECT {id_col}, n_ngrams, n_distinct_ngrams,
       CASE WHEN n_ngrams = 0 THEN 0.0
            ELSE round(1.0 - n_distinct_ngrams * 1.0 / n_ngrams, {QUALITY_ROUND})
       END AS dup_ngram_ratio
FROM agg
"""


def tfidf_keywords_sql(src: str, k: int = KEYWORDS_K,
                       id_col: str = "doc_id") -> str:
    """DuckDB oracle for :func:`tfidf_keywords` (same tokenizer, same
    score, same tiebreak)."""
    return f"""
WITH toks AS (
    SELECT {id_col}, unnest(regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}')) AS term
    FROM {src}
),
tf AS (SELECT {id_col}, term, count(*) AS tf FROM toks GROUP BY 1, 2),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
nn AS (SELECT count(*) AS n FROM {src}),
scored AS (
    SELECT tf.{id_col}, tf.term,
           round(tf.tf * ln(nn.n * 1.0 / df.df), {QUALITY_ROUND}) AS tfidf,
           row_number() OVER (
               PARTITION BY tf.{id_col}
               ORDER BY tf.tf * ln(nn.n * 1.0 / df.df) DESC, tf.term ASC
           ) AS rk
    FROM tf JOIN df USING (term), nn
)
SELECT {id_col}, term, tfidf FROM scored WHERE rk <= {k}
"""


# ---------------------------------------------------------------------------
# Train-vs-eval n-gram contamination check (decontamination primitive)
# ---------------------------------------------------------------------------

CONTAM_N = 3
CONTAM_THRESHOLD = 0.5


def _distinct_doc_grams(batch: pa.Table, n: int, id_col: str, text_col: str):
    """Vectorized distinct (doc, n-gram) pairs for one batch: returns
    (doc_row_idx:int64[M], gram_dictionary:pa.Array, gram_code:int64[M])."""
    from .dedup import _flat_word_tokens

    doc_idx, flat = _flat_word_tokens(batch.column(text_col))
    m = len(doc_idx) - n + 1
    if m <= 0:
        return np.empty(0, np.int64), pa.array([], pa.string()), np.empty(0, np.int64)
    valid = np.ones(m, bool)
    for j in range(1, n):
        valid &= doc_idx[j : m + j] == doc_idx[:m]
    grams = pc.binary_join_element_wise(*[flat.slice(j, m) for j in range(n)], " ")
    grams = grams.filter(pa.array(valid))
    gdoc = doc_idx[:m][valid]
    d = grams.dictionary_encode()
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    width = np.int64(len(d.dictionary) + 1)
    keys = np.unique(gdoc * width + codes)
    return keys // width, d.dictionary, keys % width


def ngram_contamination(
    train_ds,
    eval_ds,
    n: int = CONTAM_N,
    threshold: float = CONTAM_THRESHOLD,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Per-train-doc n-gram overlap against an evaluation set — the
    decontamination primitive (flag training docs whose distinct-n-gram
    overlap fraction with any benchmark text reaches ``threshold``).

    Shape: the eval side is benchmark-sized by definition (orders of
    magnitude below the training corpus), so its DISTINCT gram set is
    collected once and broadcast (``ray.put``); the train side is ONE
    pure map — per batch, distinct (doc, gram) pairs are built
    vectorized, membership is a single dictionary-level ``pc.is_in``
    (each unique gram tested once per batch), and per-doc tallies are
    two ``bincount`` calls. Zero shuffles. Docs with no n-gram (fewer
    than ``n`` tokens) are not emitted, mirroring the SQL.

    The threshold compare uses the unrounded ``hits/grams`` ratio —
    both engines divide the same two integers, so the verdict is exact;
    the emitted ``overlap_frac`` is rounded to 6 decimals like every
    other ratio column.
    """
    import ray

    # eval gram set: distinct per batch in-map, distinct-of-distincts here
    ev_parts = eval_ds.map_batches(
        lambda b: pa.table(
            {"g": _distinct_doc_grams(b, n, id_col, text_col)[1]}
        ),
        batch_format="pyarrow",
    )
    tabs = [t for t in ray.get(ev_parts.materialize().to_arrow_refs()) if t.num_rows]
    ev_grams = (
        pc.unique(pa.concat_tables(tabs).column("g").combine_chunks())
        if tabs
        else pa.array([], pa.string())
    )
    ev_ref = ray.put(ev_grams)

    def per_doc(batch: pa.Table) -> pa.Table:
        ev = ray.get(ev_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        udoc, gdict, ucode = _distinct_doc_grams(batch, n, id_col, text_col)
        if len(udoc) == 0:
            return pa.table(
                {id_col: pa.array([], pa.int64()),
                 "n_grams": pa.array([], pa.int64()),
                 "n_hits": pa.array([], pa.int64()),
                 "overlap_frac": pa.array([], pa.float64()),
                 "contaminated": pa.array([], pa.bool_())}
            )
        hit_dict = pc.is_in(gdict, value_set=ev).to_numpy(zero_copy_only=False)
        docs, first = np.unique(udoc, return_index=True)
        n_grams = np.diff(np.concatenate((first, [len(udoc)])))
        n_hits = np.add.reduceat(hit_dict[ucode].astype(np.int64), first)
        frac = n_hits / n_grams
        return pa.table(
            {
                id_col: pa.array(ids[docs], pa.int64()),
                "n_grams": pa.array(n_grams.astype(np.int64), pa.int64()),
                "n_hits": pa.array(n_hits.astype(np.int64), pa.int64()),
                "overlap_frac": pa.array(_round6(frac), pa.float64()),
                "contaminated": pa.array(frac >= threshold),
            }
        )

    return train_ds.map_batches(per_doc, batch_format="pyarrow", batch_size=None)


def ngram_contamination_sql(
    train_src: str,
    eval_src: str,
    n: int = CONTAM_N,
    threshold: float = CONTAM_THRESHOLD,
    id_col: str = "doc_id",
) -> str:
    """DuckDB oracle for :func:`ngram_contamination` (same tokenizer,
    same distinct-gram window, same unrounded threshold compare)."""
    joins = "".join(f" || ' ' || t[i+{j}]" for j in range(1, n))
    return f"""
WITH tr_toks AS (
    SELECT {id_col}, regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}') AS t
    FROM {train_src}
),
ev_toks AS (
    SELECT regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}') AS t
    FROM {eval_src}
),
trg AS (
    SELECT DISTINCT {id_col}, t[i]{joins} AS gram
    FROM tr_toks, UNNEST(range(1, len(t) - {n - 2})) AS r(i)
    WHERE len(t) >= {n}
),
evg AS (
    SELECT DISTINCT t[i]{joins} AS gram
    FROM ev_toks, UNNEST(range(1, len(t) - {n - 2})) AS r(i)
    WHERE len(t) >= {n}
),
per AS (
    SELECT {id_col},
           count(*) AS n_grams,
           count(*) FILTER (WHERE gram IN (SELECT gram FROM evg)) AS n_hits
    FROM trg GROUP BY {id_col}
)
SELECT {id_col},
       CAST(n_grams AS BIGINT) AS n_grams,
       CAST(n_hits AS BIGINT) AS n_hits,
       round(n_hits * 1.0 / n_grams, {QUALITY_ROUND}) AS overlap_frac,
       n_hits * 1.0 / n_grams >= {threshold} AS contaminated
FROM per
"""

# ---------------------------------------------------------------------------
# PII / URL redaction (training-data scrubbing)
# ---------------------------------------------------------------------------
# A standard pre-training cleaning stage the reference has no analog for
# (its only text transform is the HTML cleaner,
# ``services/indexation/EntitySaver.java:69-70``): replace URL / email /
# IPv4 / phone spans with typed placeholder tokens and count what was
# hit. Pure zero-shuffle vectorized map (RE2 via pyarrow.compute); the
# DuckDB oracle nests ``regexp_replace(..., 'g')`` in the SAME fixed
# order over the SAME patterns, so the check is byte-exact. Patterns are
# applied sequentially URL -> EMAIL -> IP -> PHONE (an email inside a
# URL is consumed by the URL pass — identical in both engines); counts
# are taken per pattern on the ORIGINAL text, so overlapping spans count
# under every pattern they match (again identical by construction).

REDACT_PATTERNS: tuple[tuple[str, str, str], ...] = (
    # (count column, RE2 pattern, replacement token)
    ("n_urls", r"https?://[^\s]+", "<URL>"),
    ("n_emails", r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}", "<EMAIL>"),
    ("n_ips", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("n_phones", r"\+\d{7,15}", "<PHONE>"),
)


def redact(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Adds ``clean_text`` (placeholders substituted, fixed pattern
    order) and one ``n_*`` count column per :data:`REDACT_PATTERNS`
    entry. Patterns are lowercase-only for email/URL hosts — text is
    matched as-is (NOT lowercased) so redaction preserves the
    surrounding document bytes; uppercase PII variants are out of scope
    and documented here."""
    raw = pc.fill_null(batch.column(text_col).combine_chunks(), "")
    clean = raw
    for col, pat, tok in REDACT_PATTERNS:
        batch = batch.append_column(col, _count(raw, pat).cast(pa.int64()))
        clean = pc.replace_substring_regex(clean, pat, tok)
    return batch.append_column("clean_text", clean)


def redact_sql(src: str, id_col: str = "doc_id", text_expr: str = "text") -> str:
    """DuckDB mirror of :func:`redact` over ``text_expr`` (both engines
    RE2; replacement nesting order == REDACT_PATTERNS order)."""
    raw = f"coalesce({text_expr}, '')"
    clean = raw
    counts = []
    for col, pat, tok in REDACT_PATTERNS:
        counts.append(
            f"CAST(len(regexp_extract_all({raw}, '{pat}')) AS BIGINT) AS {col}"
        )
        clean = f"regexp_replace({clean}, '{pat}', '{tok}', 'g')"
    return (
        f"SELECT {id_col}, {', '.join(counts)}, {clean} AS clean_text FROM {src}"
    )


# ---------------------------------------------------------------------------
# Bigram language-model quality score (CCNet-style perplexity filtering)
# ---------------------------------------------------------------------------

LM_ALPHA = 0.5
# Max (unigram + bigram) model size the counts may broadcast through the
# driver — the same enforced bound as TFIDF_BROADCAST_MAX_TERMS; above
# it lm_score switches to the gram-keyed join path (nothing driver-sized
# anywhere). CCNet prunes its KenLM the same way at web scale.
LM_BROADCAST_MAX_GRAMS = 2_000_000


def _lm_term_rows(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Per-doc LM term multiplicities for one batch — the map-side
    partial of the joined path and the vectorization backbone of the
    broadcast path. Emits (doc, gram, mult, kind) rows with kind:
    0 = bigram numerator (+mult * ln(c2[gram] + a)),
    1 = context denominator (-mult * ln(c1[gram] + a*V)),
    2 = first-token numerator (+ln(c1[gram] + a)); the per-doc constant
    -ln(N + a*V) for the first token attaches at aggregation. One
    value_counts per kind over doc-salted grams — no per-row Python."""
    from .dedup import _flat_word_tokens

    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    doc_idx, flat = _flat_word_tokens(batch.column(text_col))
    empty = pa.table(
        {
            id_col: pa.array([], pa.int64()),
            "gram": pa.array([], pa.string()),
            "mult": pa.array([], pa.int64()),
            "kind": pa.array([], pa.int8()),
        }
    )
    m = len(doc_idx)
    if m == 0:
        return empty
    ids_str = pa.array(ids[doc_idx].astype("U"), pa.string())
    out_id, out_gram, out_mult, out_kind = [], [], [], []

    def emit(salted: pa.Array, kind: int) -> None:
        vc = salted.value_counts()
        both = vc.field("values").to_pylist()
        did, gram = zip(*(s.split("\x00", 1) for s in both))
        out_id.append(np.asarray(did, dtype=np.int64))
        out_gram.append(pa.array(gram, pa.string()))
        out_mult.append(vc.field("counts").cast(pa.int64()).to_numpy(zero_copy_only=False))
        out_kind.append(np.full(len(both), kind, np.int8))

    # first token of each doc (kind 2, mult always 1)
    is_first = np.ones(m, bool)
    is_first[1:] = doc_idx[1:] != doc_idx[:-1]
    fsel = pa.array(is_first)
    emit(pc.binary_join_element_wise(ids_str.filter(fsel), flat.filter(fsel), "\x00"), 2)
    # bigram windows valid within one doc (kinds 0 and 1)
    if m >= 2:
        w = m - 1
        valid = pa.array(doc_idx[1:] == doc_idx[:w])
        prev, cur = flat.slice(0, w), flat.slice(1, w)
        bi = pc.binary_join_element_wise(prev, cur, " ")
        sal = pc.binary_join_element_wise(ids_str.slice(0, w), bi, "\x00").filter(valid)
        if len(sal):
            emit(sal, 0)
            emit(
                pc.binary_join_element_wise(
                    ids_str.slice(0, w), prev, "\x00"
                ).filter(valid),
                1,
            )
    return pa.table(
        {
            id_col: pa.array(np.concatenate(out_id), pa.int64()),
            "gram": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in out_gram]),
            "mult": pa.array(np.concatenate(out_mult), pa.int64()),
            "kind": pa.array(np.concatenate(out_kind), pa.int8()),
        }
    )


def lm_score(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    alpha: float = LM_ALPHA,
    broadcast_max_grams: int = LM_BROADCAST_MAX_GRAMS,
):
    """Per-document add-alpha bigram language-model score — the
    perplexity-style quality signal CCNet/Gopher-class pipelines filter
    on, with the LM trained on the corpus itself (self-perplexity):

        lp(doc) = ln p(t0) + sum_i ln p(t_i | t_{i-1}),
        p(t0) = (c1[t0]+a) / (N+a*V),
        p(v|u) = (c2[u v]+a) / (c1[u]+a*V)

    over the shared ``[a-z0-9]+`` token stream (no stopword filter —
    the LM wants function words). Returns a Dataset of (id, n_tokens,
    avg_logprob = round6(lp/T); empty docs score 0.0 with T=0).

    Shape: unigram+bigram counts via :func:`ngram_counts` (in-map
    partials, one groupby each); N and V are scalar aggregates. Below
    ``broadcast_max_grams`` the model broadcasts once (``ray.put``) and
    scoring is ONE pure map — per-batch lookups run over each batch's
    DICTIONARY (unique grams), not token occurrences. Above it, nothing
    returns to the driver: per-doc (gram, mult, kind) partials attach
    counts in a gram-bucket groupby and fold in a doc groupby (the
    tfidf joined-path pattern); both paths pinned equal by test at a
    forced low threshold."""
    import ray
    from ray.data.aggregate import Sum

    # ONE counting pass over the corpus: unigram and bigram partials
    # share a groupby because their key spaces are disjoint (bigram keys
    # contain a space, unigram keys cannot) — the model splits back out
    # of the vocabulary-sized aggregate, not the corpus.
    def gram_rows(b: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [ngram_count_rows(b, 1, text_col), ngram_count_rows(b, 2, text_col)]
        )

    counts = (
        ds.map_batches(gram_rows, batch_format="pyarrow")
        .groupby("ngram")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    def _side(want_bigrams: bool):
        def pick(b: pa.Table) -> pa.Table:
            has_space = pc.match_substring(b.column("ngram"), " ")
            return b.filter(has_space if want_bigrams else pc.invert(has_space))

        return counts.map_batches(pick, batch_format="pyarrow").materialize()

    uni, bi = _side(False), _side(True)
    v = uni.count()
    n_total = int(uni.sum("n")) if v else 0
    if v + bi.count() > broadcast_max_grams:
        return _lm_score_joined(ds, uni, bi, n_total, v, alpha, id_col, text_col)
    c1 = ray.put(dict(zip(*(uni.to_pandas()[c] for c in ("ngram", "n")))))
    c2 = ray.put(dict(zip(*(bi.to_pandas()[c] for c in ("ngram", "n")))))

    def _lookup(arr: pa.Array, counts: dict) -> np.ndarray:
        d = arr.combine_chunks().dictionary_encode() if isinstance(arr, pa.ChunkedArray) else arr.dictionary_encode()
        uniq = d.dictionary.to_pylist()
        cu = np.fromiter((counts.get(g, 0) for g in uniq), np.float64, len(uniq))
        return cu[d.indices.to_numpy(zero_copy_only=False)]

    def score(batch: pa.Table) -> pa.Table:
        from .dedup import _flat_word_tokens

        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        c1d, c2d = ray.get(c1), ray.get(c2)
        doc_idx, flat = _flat_word_tokens(batch.column(text_col))
        m = len(doc_idx)
        lp = np.zeros(len(ids), np.float64)
        ntok = np.bincount(doc_idx, minlength=len(ids)).astype(np.int64)
        if m:
            cu = _lookup(flat, c1d)
            is_first = np.ones(m, bool)
            is_first[1:] = doc_idx[1:] != doc_idx[:-1]
            contrib = np.empty(m, np.float64)
            contrib[is_first] = np.log(
                (cu[is_first] + alpha) / (n_total + alpha * v)
            )
            if m >= 2:
                w = m - 1
                valid = doc_idx[1:] == doc_idx[:w]
                bi_g = pc.binary_join_element_wise(flat.slice(0, w), flat.slice(1, w), " ")
                cb = _lookup(bi_g, c2d)
                rest = np.flatnonzero(~is_first)
                contrib[rest] = np.log(
                    (cb[rest - 1] + alpha) / (cu[rest - 1] + alpha * v)
                )
            np.add.at(lp, doc_idx, contrib)
        avg = np.divide(lp, ntok, out=np.zeros_like(lp), where=ntok > 0)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "avg_logprob": pa.array(_round6(avg), pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def _lm_score_joined(ds, uni, bi, n_total: int, v: int, alpha: float,
                     id_col: str, text_col: str):
    """No-broadcast lm_score: per-doc (gram, mult, kind) partials UNION
    the (gram, count) model rows into ONE gram-bucket groupby that
    attaches counts (bigram keys contain a space, unigram keys cannot —
    disjoint key spaces), then a doc-bucket groupby folds the per-doc
    sum. Two bounded-bucket shuffles, nothing driver-sized."""
    import pandas as pd
    import ray.data as rd

    nb = 1024

    def _bucket_of(arr: pa.Array) -> np.ndarray:
        d = arr.combine_chunks().dictionary_encode() if isinstance(arr, pa.ChunkedArray) else arr.dictionary_encode()
        uniq = d.dictionary.to_pylist()
        uh = np.fromiter(
            (int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little") for s in uniq),
            np.uint64, len(uniq),
        )
        return (uh % np.uint64(nb)).astype(np.int64)[
            d.indices.to_numpy(zero_copy_only=False)
        ]

    def term_rows(batch: pa.Table) -> pa.Table:
        t = _lm_term_rows(batch, id_col, text_col)
        return t.append_column("gb", pa.array(_bucket_of(t.column("gram")), pa.int64()))

    def model_rows(batch: pa.Table) -> pa.Table:
        # kind 3 = model row; mult carries the corpus count
        return pa.table(
            {
                id_col: pa.array(np.full(len(batch), -1, np.int64), pa.int64()),
                "gram": batch.column("ngram"),
                "mult": batch.column("n").cast(pa.int64()),
                "kind": pa.array(np.full(len(batch), 3, np.int8), pa.int8()),
                "gb": pa.array(_bucket_of(batch.column("ngram")), pa.int64()),
            }
        )

    terms = ds.map_batches(term_rows, batch_format="pyarrow")
    model = uni.union(bi).map_batches(model_rows, batch_format="pyarrow")

    def attach(group: pa.Table) -> pa.Table:
        kind = group.column("kind").to_numpy(zero_copy_only=False)
        mult = group.column("mult").to_numpy(zero_copy_only=False)
        grams = group.column("gram").to_numpy(zero_copy_only=False)
        is_model = kind == 3
        codes, uniq = pd.factorize(grams, sort=False)
        c_of = np.zeros(len(uniq), np.float64)
        c_of[codes[is_model]] = mult[is_model]
        c = c_of[codes[~is_model]]
        k = kind[~is_model]
        m = mult[~is_model].astype(np.float64)
        term = np.where(
            k == 0, m * np.log(c + alpha),
            np.where(
                k == 1, -m * np.log(c + alpha * v),
                np.log(c + alpha) - np.log(n_total + alpha * v),
            ),
        )
        ids = group.column(id_col).to_numpy(zero_copy_only=False)[~is_model]
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "n_tokens": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
                "term": pa.array(term, pa.float64()),
            }
        )

    partial = (
        terms.union(model).groupby("gb").map_groups(attach, batch_format="pyarrow")
        .materialize()
    )

    def tok_counts(batch: pa.Table) -> pa.Table:
        from .dedup import _flat_word_tokens

        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        doc_idx, _ = _flat_word_tokens(batch.column(text_col))
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "n_tokens": pa.array(
                    np.bincount(doc_idx, minlength=len(ids)).astype(np.int64), pa.int64()
                ),
                "term": pa.array(np.zeros(len(ids), np.float64), pa.float64()),
            }
        )

    base = ds.map_batches(tok_counts, batch_format="pyarrow")

    def add_db(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        t = batch.select([id_col, "n_tokens", "term"])
        return t.append_column("db", pa.array((ids % nb).astype(np.int64), pa.int64()))

    def fold(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        term = group.column("term").to_numpy(zero_copy_only=False)
        ntok = group.column("n_tokens").to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(ids, sort=True)
        lp = np.zeros(len(uniq), np.float64)
        # deterministic fold: sum per doc in sorted-term order so the
        # reduction is block-layout independent
        order = np.lexsort((term, codes))
        np.add.at(lp, codes[order], term[order])
        nt = np.zeros(len(uniq), np.int64)
        np.maximum.at(nt, codes, ntok)
        avg = np.divide(lp, nt, out=np.zeros_like(lp), where=nt > 0)
        return pa.table(
            {
                id_col: pa.array(uniq.astype(np.int64), pa.int64()),
                "n_tokens": pa.array(nt, pa.int64()),
                "avg_logprob": pa.array(_round6(avg), pa.float64()),
            }
        )

    return (
        base.union(partial)
        .map_batches(add_db, batch_format="pyarrow")
        .groupby("db")
        .map_groups(fold, batch_format="pyarrow")
    )


def lm_score_sql(src: str, id_col: str = "doc_id",
                 alpha: float = LM_ALPHA) -> str:
    """DuckDB oracle for :func:`lm_score` (same tokenizer regex, same
    add-alpha bigram model, same first-token unigram term)."""
    return f"""
WITH toks AS (
    SELECT {id_col} AS did,
           regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}') AS t
    FROM {src}
),
occ AS (
    SELECT did, t[i] AS tok, i
    FROM toks, UNNEST(range(1, len(t) + 1)) AS r(i)
),
uni AS (SELECT tok, count(*) AS c FROM occ GROUP BY tok),
tot AS (
    SELECT (SELECT count(*) FROM occ) AS n_tok,
           (SELECT count(*) FROM uni) AS v
),
big AS (
    SELECT o1.did, o1.i, o1.tok AS w1, o2.tok AS w2
    FROM occ o1 JOIN occ o2 ON o2.did = o1.did AND o2.i = o1.i + 1
),
bigc AS (SELECT w1, w2, count(*) AS c FROM big GROUP BY w1, w2),
contrib AS (
    SELECT o.did,
           CASE WHEN o.i = 1
                THEN ln((u.c + {alpha}) / (t.n_tok + {alpha} * t.v))
                ELSE ln((bc.c + {alpha}) / (up.c + {alpha} * t.v)) END AS lp
    FROM occ o
    JOIN uni u ON u.tok = o.tok
    LEFT JOIN big b ON b.did = o.did AND b.i = o.i - 1
    LEFT JOIN bigc bc ON bc.w1 = b.w1 AND bc.w2 = b.w2
    LEFT JOIN uni up ON up.tok = b.w1
    CROSS JOIN tot t
),
agg AS (SELECT did, count(*) AS n_tokens, sum(lp) AS s FROM contrib GROUP BY did)
SELECT d.{id_col} AS {id_col},
       CAST(coalesce(a.n_tokens, 0) AS BIGINT) AS n_tokens,
       round(coalesce(a.s / a.n_tokens, 0.0), 6) AS avg_logprob
FROM {src} d LEFT JOIN agg a ON a.did = d.{id_col}
"""


# ---------------------------------------------------------------------------
# DSIR importance weights (hashed n-gram log-likelihood ratio)
# ---------------------------------------------------------------------------

DSIR_BUCKETS = 10_000
DSIR_ALPHA = 0.5
DSIR_TARGET_FRACTION = 0.1
DSIR_TARGET_SEED = 11

# per-worker-process gram -> 32-bit md5 prefix memo (vocabulary-bounded:
# the same grams recur in every batch, so md5 runs once per gram per
# process — the _LEMMA_H_MEMO pattern)
_DSIR_HASH_MEMO: dict[str, int] = {}


def _bucket_of(grams: pa.Array, buckets: int) -> np.ndarray:
    """Vectorized hashed-feature bucket: int(md5(gram)[:8], 16) % buckets
    — hash only the batch's UNIQUE grams (dictionary encode, memoized per
    process) and broadcast through the codes. The SQL twin is
    ``('0x' || substr(md5(gram), 1, 8))::UBIGINT % buckets``."""
    if isinstance(grams, pa.ChunkedArray):
        grams = grams.combine_chunks()
    if not len(grams):
        return np.empty(0, np.int64)
    d = grams.dictionary_encode()
    memo = _DSIR_HASH_MEMO
    get = memo.get
    uniq = d.dictionary.to_pylist()
    h = np.empty(len(uniq), np.int64)
    for i, g in enumerate(uniq):
        v = get(g)
        if v is None:
            v = int(hashlib.md5(g.encode()).hexdigest()[:8], 16)
            memo[g] = v
        h[i] = v
    return (h % buckets)[d.indices.to_numpy(zero_copy_only=False)]


def _dsir_features(texts, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """(doc_idx, bucket) of each doc's hashed unigram AND bigram features
    over the shared ``[a-z0-9]+`` stream — the DSIR feature space (word
    uni+bigrams hashed into a fixed bucket count)."""
    from .dedup import _flat_word_tokens

    doc_idx, flat = _flat_word_tokens(texts)
    m = len(doc_idx)
    if m == 0:
        return doc_idx, np.empty(0, np.int64)
    parts_i = [doc_idx]
    parts_b = [_bucket_of(flat, buckets)]
    if m >= 2:
        w = m - 1
        valid = doc_idx[1:] == doc_idx[:w]
        if valid.any():
            sel = pa.array(valid)
            bi = pc.binary_join_element_wise(
                flat.slice(0, w).filter(sel), flat.slice(1, w).filter(sel), " "
            )
            parts_i.append(doc_idx[:w][valid])
            parts_b.append(_bucket_of(bi, buckets))
    return np.concatenate(parts_i), np.concatenate(parts_b)


def dsir_weights(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    buckets: int = DSIR_BUCKETS,
    alpha: float = DSIR_ALPHA,
    target_fraction: float = DSIR_TARGET_FRACTION,
    target_seed: int = DSIR_TARGET_SEED,
):
    """DSIR importance weights (Data Selection via Importance
    Resampling, Xie et al. 2023): score every raw document by the
    log-likelihood ratio of a TARGET hashed-n-gram bag-of-words model
    over the RAW model — the domain-mixing signal training-data
    pipelines resample on (keep raw docs that look like the curated
    target). Features are word unigrams + bigrams hashed into a FIXED
    bucket count; the target split is the deterministic md5-threshold
    sample (:func:`sampling.sample_hash` predicate, so the oracle
    reproduces it exactly) and raw is the full corpus:

        lr(b)  = ln((c_tgt[b]+a) / (T_tgt+a*B)) - ln((c_raw[b]+a) / (T_raw+a*B))
        w(doc) = avg over the doc's feature occurrences of lr(bucket)

    Returns a Dataset of (id, n_feats, dsir_logratio = round6(avg);
    featureless docs score 0.0 with n_feats 0).

    Shape: ONE counting pass over the corpus (per-batch bincount
    partials -> one bucket groupby; target membership is the same pure
    digest predicate, so both histograms share the pass), the B-row
    histogram returns to the driver (bucket-count-bounded BY
    CONSTRUCTION — B is a parameter, never data-sized — this is hashing
    the unbounded vocabulary INTO a fixed model size, the paper's own
    scale device), the per-bucket log-ratio vector broadcasts once via
    ``ray.put``, and scoring is ONE pure map. No shuffle touches
    anything corpus-sized at any corpus scale."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .sampling import _digests, _hex_threshold

    thresh = _hex_threshold(target_fraction)
    b_count = int(buckets)

    def hist_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        doc_idx, bkt = _dsir_features(batch.column(text_col), b_count)
        is_t = pc.less(
            _digests(target_seed, ids.to_pylist()), pa.scalar(thresh)
        ).to_numpy(zero_copy_only=False)
        n_raw = np.bincount(bkt, minlength=b_count)
        n_tgt = (
            np.bincount(bkt[is_t[doc_idx]], minlength=b_count)
            if len(bkt)
            else np.zeros(b_count, np.int64)
        )
        nz = np.flatnonzero(n_raw)
        return pa.table(
            {
                "bucket": pa.array(nz.astype(np.int64), pa.int64()),
                "n_raw": pa.array(n_raw[nz].astype(np.int64), pa.int64()),
                "n_tgt": pa.array(n_tgt[nz].astype(np.int64), pa.int64()),
            }
        )

    hist = (
        ds.map_batches(hist_rows, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n_raw", alias_name="n_raw"), Sum("n_tgt", alias_name="n_tgt"))
        .to_pandas()  # <= buckets rows: parameter-bounded, never data-sized
    )
    c_raw = np.zeros(b_count, np.float64)
    c_tgt = np.zeros(b_count, np.float64)
    if len(hist):
        bidx = hist["bucket"].to_numpy().astype(np.int64)
        c_raw[bidx] = hist["n_raw"].to_numpy().astype(np.float64)
        c_tgt[bidx] = hist["n_tgt"].to_numpy().astype(np.float64)
    t_raw, t_tgt = float(c_raw.sum()), float(c_tgt.sum())
    # the exact op sequence the SQL oracle mirrors: one division per
    # rate, ln each, subtract — IEEE-identical per bucket
    lr = np.log((c_tgt + alpha) / (t_tgt + alpha * b_count)) - np.log(
        (c_raw + alpha) / (t_raw + alpha * b_count)
    )
    lr_ref = ray.put(lr)

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        doc_idx, bkt = _dsir_features(batch.column(text_col), b_count)
        v = ray.get(lr_ref)  # zero-copy plasma view, shared per node
        acc = np.zeros(len(ids), np.float64)
        nf = np.bincount(doc_idx, minlength=len(ids)).astype(np.int64)
        if len(bkt):
            np.add.at(acc, doc_idx, v[bkt])
        avg = np.divide(acc, nf, out=np.zeros_like(acc), where=nf > 0)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "n_feats": pa.array(nf, pa.int64()),
                "dsir_logratio": pa.array(_round6(avg), pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def dsir_weights_sql(
    src: str,
    id_col: str = "doc_id",
    buckets: int = DSIR_BUCKETS,
    alpha: float = DSIR_ALPHA,
    target_fraction: float = DSIR_TARGET_FRACTION,
    target_seed: int = DSIR_TARGET_SEED,
) -> str:
    """DuckDB oracle for :func:`dsir_weights` (same tokenizer regex, same
    md5 bucket hash, same md5-threshold target split, same smoothing)."""
    from .sampling import _HEX_DIGITS, _hex_threshold

    thresh = _hex_threshold(target_fraction)
    return f"""
WITH toks AS (
    SELECT {id_col} AS did,
           regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}') AS t
    FROM {src}
),
occ AS (
    SELECT did, t[i] AS tok, i
    FROM toks, UNNEST(range(1, len(t) + 1)) AS r(i)
),
feat AS (
    SELECT did, tok AS gram FROM occ
    UNION ALL
    SELECT o1.did, o1.tok || ' ' || o2.tok AS gram
    FROM occ o1 JOIN occ o2 ON o2.did = o1.did AND o2.i = o1.i + 1
),
fb AS (
    SELECT did,
           CAST(('0x' || substr(md5(gram), 1, 8))::UBIGINT % {buckets} AS BIGINT) AS b
    FROM feat
),
tgt AS (
    SELECT {id_col} AS did FROM {src}
    WHERE substr(md5('{target_seed}:' || CAST({id_col} AS VARCHAR)), 1, {_HEX_DIGITS}) < '{thresh}'
),
hist AS (
    SELECT b, count(*) AS n_raw,
           count(*) FILTER (WHERE did IN (SELECT did FROM tgt)) AS n_tgt
    FROM fb GROUP BY b
),
tot AS (SELECT sum(n_raw) AS t_raw, sum(n_tgt) AS t_tgt FROM hist),
lr AS (
    SELECT b,
           ln((n_tgt + {alpha}) / (t.t_tgt + {alpha} * {buckets}))
           - ln((n_raw + {alpha}) / (t.t_raw + {alpha} * {buckets})) AS lr
    FROM hist CROSS JOIN tot t
),
agg AS (
    SELECT fb.did, count(*) AS n_feats, sum(l.lr) AS s
    FROM fb JOIN lr l ON l.b = fb.b
    GROUP BY fb.did
)
SELECT d.{id_col} AS {id_col},
       CAST(coalesce(a.n_feats, 0) AS BIGINT) AS n_feats,
       round(coalesce(a.s / a.n_feats, 0.0), 6) AS dsir_logratio
FROM {src} d LEFT JOIN agg a ON a.did = d.{id_col}
"""


DSIR_RESAMPLE_K = 100
DSIR_RESAMPLE_SEED = 77


def dsir_resample(
    ds,
    k: int = DSIR_RESAMPLE_K,
    id_col: str = "doc_id",
    text_col: str = "text",
    seed: int = DSIR_RESAMPLE_SEED,
    **dsir_kwargs,
) -> "pa.Table":
    """Gumbel-top-k importance resampling — the SELECTION step of DSIR
    (Xie et al. 2023): drawing k docs without replacement with
    probability proportional to ``exp(log_w)`` is exactly taking the
    top k of ``log_w + Gumbel noise`` (the Gumbel-top-k trick, Vieira
    2014). The noise is DETERMINISTIC — ``u(doc) = (md5_60bit("{seed}:
    {id}") + 0.5) / 16^15`` and ``g = -ln(-ln(u))`` — so the draw is
    reproducible across runs, partitionings, cluster sizes and engines
    (sampling.py's md5-threshold device, graduated from Bernoulli
    membership to a full priority draw), and the DuckDB oracle
    reproduces the SELFSAME sample. ``log_w`` is the per-doc
    ``dsir_logratio`` (round6 on both sides).

    Shape: :func:`dsir_weights`' one counting pass + one scoring map,
    then a per-block partial top-k keyed on the noisy priority — only k
    rows per block reach the driver merge, nothing corpus-sized
    anywhere. Ties (key DESC, id ASC).

    -> pa.Table(rank, <id_col>, dsir_logratio, resample_key)."""
    from .sampling import _HEX_DIGITS, _digests

    space = float(16 ** _HEX_DIGITS)  # 2^60, exactly representable
    scored = dsir_weights(ds, id_col=id_col, text_col=text_col, **dsir_kwargs)

    def keyed_topk(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        lw = batch.column("dsir_logratio").to_numpy(zero_copy_only=False)
        hexes = _digests(seed, ids.tolist()).to_pylist()
        v = np.array([int(h, 16) for h in hexes], np.uint64).astype(np.float64)
        u = (v + 0.5) / space
        key = lw + (-np.log(-np.log(u)))
        order = np.lexsort((ids, -key))[: int(k)]
        return pa.table(
            {
                id_col: pa.array(ids[order], pa.int64()),
                "dsir_logratio": pa.array(lw[order], pa.float64()),
                "resample_key": pa.array(key[order], pa.float64()),
            }
        )

    parts = scored.map_batches(keyed_topk, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(
        ["resample_key", id_col], ascending=[False, True]
    ).head(int(k))
    n = len(parts)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, n + 1, dtype=np.int32), pa.int32()),
            id_col: pa.array(parts[id_col].to_numpy().astype(np.int64), pa.int64()),
            "dsir_logratio": pa.array(
                parts["dsir_logratio"].to_numpy(), pa.float64()
            ),
            "resample_key": pa.array(
                _round6(parts["resample_key"].to_numpy()), pa.float64()
            ),
        }
    )


def dsir_resample_sql(
    src: str,
    k: int = DSIR_RESAMPLE_K,
    id_col: str = "doc_id",
    seed: int = DSIR_RESAMPLE_SEED,
    **dsir_kwargs,
) -> str:
    """DuckDB oracle for :func:`dsir_resample`: the dsir_weights oracle
    as a CTE, the SAME md5-uniform -> Gumbel transform, the same
    (key DESC, id ASC) top-k."""
    from .sampling import _HEX_DIGITS

    space = int(16 ** _HEX_DIGITS)
    w = dsir_weights_sql(src, id_col=id_col, **dsir_kwargs)
    return f"""
WITH w AS ({w}),
keyed AS (
    SELECT {id_col}, dsir_logratio,
           dsir_logratio + (-ln(-ln(
               (('0x' || substr(md5('{seed}:' || CAST({id_col} AS VARCHAR)),
                 1, {_HEX_DIGITS}))::UBIGINT + 0.5) / {space}.0
           ))) AS key
    FROM w
),
ranked AS (
    SELECT *, row_number() OVER (ORDER BY key DESC, {id_col}) AS rank FROM keyed
)
SELECT CAST(rank AS INT) AS rank, {id_col}, dsir_logratio,
       round(key, 6) AS resample_key
FROM ranked WHERE rank <= {k}
"""


# ---------------------------------------------------------------------------
# PMI collocations (corpus-level bigram association mining)
# ---------------------------------------------------------------------------

PMI_MIN_COUNT = 5
PMI_TOP_K = 20


def pmi_collocations(
    ds,
    text_col: str = "text",
    k: int = PMI_TOP_K,
    min_count: int = PMI_MIN_COUNT,
):
    """Top-k bigram collocations by pointwise mutual information — the
    classic corpus-analytics signal for multiword expressions (Church &
    Hanks 1990):

        pmi(w1 w2) = ln( (c12/N2) / ((c1/N1) * (c2/N1)) )

    over the shared ``[a-z0-9]+`` occurrence stream, keeping bigrams
    with ``c12 >= min_count`` (the standard noise floor — a hapax pair
    of two hapax words maximizes raw PMI). Ties (pmi DESC, bigram ASC).
    -> pa.Table(rank, bigram, n_pair, n_w1, n_w2, pmi).

    Shape — NOTHING vocabulary-sized ever returns to the driver: ONE
    counting pass feeds one groupby (unigram and bigram partials share
    it — disjoint key spaces), totals are scalar aggregates, and the
    unigram marginals attach without any broadcast: each thresholded
    bigram emits TWO half-rows keyed by its slot word, unigram lookup
    rows ride the same bounded-bucket groupby (the lm_score joined-path
    pattern), a bigram groupby recombines the halves, and scoring +
    per-block partial top-k leaves a k-row driver merge."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    def gram_rows(b: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [ngram_count_rows(b, 1, text_col), ngram_count_rows(b, 2, text_col)]
        )

    counts = (
        ds.map_batches(gram_rows, batch_format="pyarrow")
        .groupby("ngram")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    def _side(want_bigrams: bool):
        def pick(b: pa.Table) -> pa.Table:
            has_space = pc.match_substring(b.column("ngram"), " ")
            return b.filter(has_space if want_bigrams else pc.invert(has_space))

        return counts.map_batches(pick, batch_format="pyarrow").materialize()

    uni, bi = _side(False), _side(True)
    if not uni.count():
        return pa.table(
            {
                "rank": pa.array([], pa.int32()),
                "bigram": pa.array([], pa.string()),
                "n_pair": pa.array([], pa.int64()),
                "n_w1": pa.array([], pa.int64()),
                "n_w2": pa.array([], pa.int64()),
                "pmi": pa.array([], pa.float64()),
            }
        )
    n1 = float(uni.sum("n"))
    n2 = float(bi.sum("n")) if bi.count() else 0.0
    nb = 1024

    def _gb(arr) -> np.ndarray:
        d = arr.combine_chunks().dictionary_encode() if isinstance(arr, pa.ChunkedArray) else arr.dictionary_encode()
        uq = d.dictionary.to_pylist()
        uh = np.fromiter(
            (int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little") for s in uq),
            np.uint64, len(uq),
        )
        return (uh % np.uint64(nb)).astype(np.int64)[
            d.indices.to_numpy(zero_copy_only=False)
        ]

    def half_rows(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater_equal(batch.column("n"), min_count))
        if not b.num_rows:
            return pa.table(
                {
                    "key": pa.array([], pa.string()),
                    "bigram": pa.array([], pa.string()),
                    "c12": pa.array([], pa.int64()),
                    "slot": pa.array([], pa.int8()),
                    "c": pa.array([], pa.int64()),
                    "kind": pa.array([], pa.int8()),
                    "gb": pa.array([], pa.int64()),
                }
            )
        words = pc.split_pattern(b.column("ngram"), " ")
        w1 = pc.list_element(words, 0)
        w2 = pc.list_element(words, 1)
        c12 = b.column("n").cast(pa.int64())
        parts = []
        for slot, key in ((0, w1), (1, w2)):
            parts.append(
                pa.table(
                    {
                        "key": key,
                        "bigram": b.column("ngram"),
                        "c12": c12,
                        "slot": pa.array(np.full(b.num_rows, slot, np.int8), pa.int8()),
                        "c": pa.array(np.zeros(b.num_rows, np.int64), pa.int64()),
                        "kind": pa.array(np.zeros(b.num_rows, np.int8), pa.int8()),
                    }
                )
            )
        t = pa.concat_tables(parts).combine_chunks()
        return t.append_column("gb", pa.array(_gb(t.column("key")), pa.int64()))

    def lookup_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        t = pa.table(
            {
                "key": batch.column("ngram"),
                "bigram": pa.array([""] * n, pa.string()),
                "c12": pa.array(np.zeros(n, np.int64), pa.int64()),
                "slot": pa.array(np.zeros(n, np.int8), pa.int8()),
                "c": batch.column("n").cast(pa.int64()),
                "kind": pa.array(np.ones(n, np.int8), pa.int8()),
            }
        )
        return t.append_column("gb", pa.array(_gb(t.column("key")), pa.int64()))

    def attach(group: pa.Table) -> pa.Table:
        kind = group.column("kind").to_numpy(zero_copy_only=False)
        keys = group.column("key").to_numpy(zero_copy_only=False)
        cs = group.column("c").to_numpy(zero_copy_only=False)
        is_lut = kind == 1
        codes, uq = pd.factorize(keys, sort=False)
        c_of = np.zeros(len(uq), np.int64)
        c_of[codes[is_lut]] = cs[is_lut]
        half = ~is_lut
        att = c_of[codes[half]]
        slot = group.column("slot").to_numpy(zero_copy_only=False)[half]
        return pa.table(
            {
                "bigram": pa.array(
                    group.column("bigram").to_numpy(zero_copy_only=False)[half],
                    pa.string(),
                ),
                "c12": pa.array(
                    group.column("c12").to_numpy(zero_copy_only=False)[half], pa.int64()
                ),
                "c1": pa.array(np.where(slot == 0, att, 0), pa.int64()),
                "c2": pa.array(np.where(slot == 1, att, 0), pa.int64()),
            }
        )

    halves = bi.map_batches(half_rows, batch_format="pyarrow")
    luts = uni.map_batches(lookup_rows, batch_format="pyarrow")
    joined = (
        halves.union(luts)
        .groupby("gb")
        .map_groups(attach, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(
            Max("c12", alias_name="c12"),
            Sum("c1", alias_name="c1"),
            Sum("c2", alias_name="c2"),
        )
    )

    _empty_scored = pa.schema(
        [
            ("bigram", pa.string()),
            ("c12", pa.int64()),
            ("c1", pa.int64()),
            ("c2", pa.int64()),
            ("pmi", pa.float64()),
        ]
    ).empty_table()

    def score_topk(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return _empty_scored
        c12 = batch.column("c12").to_numpy(zero_copy_only=False).astype(np.float64)
        c1 = batch.column("c1").to_numpy(zero_copy_only=False).astype(np.float64)
        c2 = batch.column("c2").to_numpy(zero_copy_only=False).astype(np.float64)
        # the exact op sequence the SQL oracle mirrors
        pmi = np.log((c12 / n2) / ((c1 / n1) * (c2 / n1)))
        big = batch.column("bigram").to_numpy(zero_copy_only=False)
        sel = np.lexsort((big, -pmi))[:k]
        return pa.table(
            {
                "bigram": pa.array(big[sel], pa.string()),
                "c12": pa.array(
                    batch.column("c12").to_numpy(zero_copy_only=False)[sel], pa.int64()
                ),
                "c1": pa.array(
                    batch.column("c1").to_numpy(zero_copy_only=False)[sel], pa.int64()
                ),
                "c2": pa.array(
                    batch.column("c2").to_numpy(zero_copy_only=False)[sel], pa.int64()
                ),
                "pmi": pa.array(pmi[sel], pa.float64()),
            }
        )

    parts = joined.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    if parts.empty:  # nothing above the min_count floor
        parts = _empty_scored.to_pandas()
    parts = parts.sort_values(
        ["pmi", "bigram"], ascending=[False, True], kind="mergesort"
    ).head(k)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(parts) + 1, dtype=np.int32), pa.int32()),
            "bigram": pa.array(parts["bigram"].tolist(), pa.string()),
            "n_pair": pa.array(parts["c12"].to_numpy().astype(np.int64), pa.int64()),
            "n_w1": pa.array(parts["c1"].to_numpy().astype(np.int64), pa.int64()),
            "n_w2": pa.array(parts["c2"].to_numpy().astype(np.int64), pa.int64()),
            "pmi": pa.array(_round6(parts["pmi"].to_numpy()), pa.float64()),
        }
    )


def pmi_collocations_sql(
    src: str, k: int = PMI_TOP_K, min_count: int = PMI_MIN_COUNT
) -> str:
    """DuckDB oracle for :func:`pmi_collocations` (same tokenizer regex,
    same totals, same score op order)."""
    return f"""
WITH toks AS (
    SELECT regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}') AS t
    FROM {src}
),
occ AS (
    SELECT row_number() OVER () AS did, t FROM toks
),
o AS (
    SELECT did, t[i] AS tok, i
    FROM occ, UNNEST(range(1, len(t) + 1)) AS r(i)
),
uni AS (SELECT tok AS g, count(*) AS c FROM o GROUP BY tok),
n1 AS (SELECT count(*) AS n FROM o),
big AS (
    SELECT o1.tok AS w1, o2.tok AS w2, count(*) AS c12
    FROM o o1 JOIN o o2 ON o2.did = o1.did AND o2.i = o1.i + 1
    GROUP BY 1, 2
),
n2 AS (SELECT sum(c12) AS n FROM big),
scored AS (
    SELECT w1 || ' ' || w2 AS bigram, c12, u1.c AS c1, u2.c AS c2,
           ln((c12 * 1.0 / n2.n) / ((u1.c * 1.0 / n1.n) * (u2.c * 1.0 / n1.n))) AS pmi
    FROM big
    JOIN uni u1 ON u1.g = w1
    JOIN uni u2 ON u2.g = w2
    CROSS JOIN n1 CROSS JOIN n2
    WHERE c12 >= {min_count}
),
ranked AS (
    SELECT bigram, c12, c1, c2, pmi,
           row_number() OVER (ORDER BY pmi DESC, bigram) AS rank
    FROM scored
)
SELECT CAST(rank AS INT) AS rank, bigram,
       CAST(c12 AS BIGINT) AS n_pair, CAST(c1 AS BIGINT) AS n_w1,
       CAST(c2 AS BIGINT) AS n_w2, round(pmi, 6) AS pmi
FROM ranked WHERE rank <= {k}
"""


# ---------------------------------------------------------------------------
# Streaming regex scan (the non-indexed grep fallback)
# ---------------------------------------------------------------------------


def regex_scan(ds, patterns: dict[str, str], text_col: str = "text",
               keep_cols: tuple[str, ...] = ("conv_id", "turn_idx")):
    """Grep-style streaming scan: rows whose ``text_col`` contains a
    match of each RE2 pattern — the non-indexed fallback query every
    engine ships for predicates the inverted index can't serve
    (substring/regex search). One ``map_batches`` pass, zero shuffle;
    per-pattern matching is pyarrow's C++ RE2 kernel (compiled once per
    call inside the kernel), so the scan streams at any corpus size.
    ``patterns`` maps query_id -> pattern; DuckDB's ``regexp_matches``
    is RE2 too, so the oracle is semantics-identical down to flags like
    ``(?i)``. -> Dataset(query_id, *keep_cols)."""
    items = sorted(patterns.items())

    def match(batch: pa.Table) -> pa.Table:
        text = batch.column(text_col)
        if pa.types.is_null(text.type):  # an all-null block types as null
            text = pa.array([""] * batch.num_rows, pa.string())
        else:
            text = pc.fill_null(text, "")
        outs = []
        for qid, pat in items:
            b = batch.filter(pc.match_substring_regex(text, pat))
            outs.append(
                pa.table(
                    {
                        "query_id": pa.array([qid] * b.num_rows, pa.string()),
                        **{c: b.column(c) for c in keep_cols},
                    }
                )
            )
        return pa.concat_tables(outs)

    return ds.map_batches(match, batch_format="pyarrow")


def regex_scan_sql(src: str, patterns: dict[str, str],
                   keep_cols: tuple[str, ...] = ("conv_id", "turn_idx")) -> str:
    """DuckDB oracle for :func:`regex_scan` (RE2 on both sides)."""
    cols = ", ".join(keep_cols)
    parts = [
        f"SELECT '{qid}' AS query_id, {cols} FROM {src} "
        f"WHERE regexp_matches(coalesce(text, ''), '{pat.replace(chr(39), chr(39) * 2)}')"
        for qid, pat in sorted(patterns.items())
    ]
    return "\nUNION ALL\n".join(parts)


# ---------------------------------------------------------------------------
# Exact heavy hitters (two-pass Misra-Gries: candidates, then recount)
# ---------------------------------------------------------------------------

HH_TOP_K = 20
HH_CANDIDATES = 256      # Misra-Gries parameter k' (per-block summary size)
HH_MAX_CANDIDATES = 65_536  # merged-candidate cap before the full fallback


def heavy_hitters(
    ds,
    k: int = HH_TOP_K,
    text_col: str = "text",
    n_candidates: int = HH_CANDIDATES,
):
    """EXACT top-k most frequent word tokens in two bounded-memory
    passes — the classic sketch-then-recount shape (Misra-Gries 1982)
    that avoids a vocabulary-sized groupby at any corpus size:

    Pass 1: each block compresses its exact token counts into a
    Misra-Gries(k') summary — keep the k' largest, subtract the
    (k'+1)-th largest, clip at zero — so per-block error <= n_block/(k'+1)
    and summed error <= N/(k'+1); ONE groupby folds the summaries (they
    are k'-rows-per-block, never corpus-sized) and every positive-weight
    token becomes a candidate. Any token with true count > N/(k'+1) is
    guaranteed to survive.

    Pass 2: the candidate list broadcasts (``ray.put``) and each block
    emits EXACT candidate counts (one ``index_in`` + bincount); one tiny
    groupby sums them. The result is certified exact when the k-th
    candidate count exceeds N/(k'+1) (no non-candidate can displace it);
    otherwise — or when skew floods the merged candidate set past
    ``HH_MAX_CANDIDATES`` — the operator falls back to the full
    groupby top-k, which is always correct (the documented skew escape
    hatch). Both paths return identical tables by construction.

    -> pa.Table(rank, token, n)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .dedup import _flat_word_tokens

    # " " cannot be a [a-z0-9]+ token — it carries the per-block total
    TOTAL_KEY = " "

    def summaries(batch: pa.Table) -> pa.Table:
        _, flat = _flat_word_tokens(batch.column(text_col))
        m = len(flat)
        if m == 0:
            return pa.table(
                {"token": pa.array([], pa.string()), "w": pa.array([], pa.int64())}
            )
        vc = flat.value_counts()
        toks = vc.field("values")
        cnt = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(cnt) > n_candidates:
            # MG compression: subtract the (k'+1)-th largest, clip at 0
            kth1 = np.partition(cnt, len(cnt) - n_candidates - 1)[
                len(cnt) - n_candidates - 1
            ]
            w = cnt - kth1
            keep = w > 0
            toks, w = toks.filter(pa.array(keep)), w[keep]
        else:
            w = cnt
        return pa.table(
            {
                "token": pa.concat_arrays(
                    [toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks,
                     pa.array([TOTAL_KEY], pa.string())]
                ),
                "w": pa.array(np.concatenate([w, [m]]), pa.int64()),
            }
        )

    merged = (
        ds.map_batches(summaries, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("w", alias_name="w"))
        .to_pandas()  # <= blocks x k' rows, k'-bounded in practice
    )
    if merged.empty:
        return pa.table(
            {
                "rank": pa.array([], pa.int32()),
                "token": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
    total_mask = merged["token"] == TOTAL_KEY
    n_total = int(merged.loc[total_mask, "w"].sum())
    cands = merged.loc[~total_mask, "token"].tolist()
    bound = n_total / (n_candidates + 1)

    def _finish(tokens: np.ndarray, counts: np.ndarray) -> pa.Table:
        sel = np.lexsort((tokens, -counts))[:k]
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(sel) + 1, dtype=np.int32), pa.int32()),
                "token": pa.array(tokens[sel], pa.string()),
                "n": pa.array(counts[sel], pa.int64()),
            }
        )

    if len(cands) <= HH_MAX_CANDIDATES:
        cand_ref = ray.put(pa.array(sorted(cands), pa.string()))

        def recount(batch: pa.Table) -> pa.Table:
            cset = ray.get(cand_ref)
            _, flat = _flat_word_tokens(batch.column(text_col))
            if not len(flat):
                return pa.table(
                    {"i": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
                )
            idx = pc.index_in(flat, value_set=cset)
            iv = idx.to_numpy(zero_copy_only=False)
            iv = iv[~np.isnan(iv)].astype(np.int64) if iv.dtype.kind == "f" else iv[
                idx.is_valid().to_numpy(zero_copy_only=False)
            ]
            n = np.bincount(iv, minlength=len(cset))
            nz = np.flatnonzero(n)
            return pa.table(
                {
                    "i": pa.array(nz.astype(np.int64), pa.int64()),
                    "n": pa.array(n[nz].astype(np.int64), pa.int64()),
                }
            )

        exact = (
            ds.map_batches(recount, batch_format="pyarrow")
            .groupby("i")
            .aggregate(Sum("n", alias_name="n"))
            .to_pandas()
        )
        cand_sorted = np.asarray(sorted(cands), dtype=object)
        counts = np.zeros(len(cand_sorted), np.int64)
        if len(exact):
            counts[exact["i"].to_numpy().astype(np.int64)] = exact["n"].to_numpy()
        out = _finish(cand_sorted, counts)
        kth = int(out.column("n")[-1].as_py()) if out.num_rows else 0
        if kth > bound:
            # certified: every non-candidate has count <= N/(k'+1) by
            # the MG guarantee, so none can displace the k-th
            return out
        # certification failed (flat distributions): the guarantee
        # can't rule out a non-candidate displacing the top-k
    # full fallback — always correct
    def token_rows(batch: pa.Table) -> pa.Table:
        return ngram_count_rows(batch, 1, text_col).rename_columns(["token", "n"])

    grouped = (
        ds.map_batches(token_rows, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
    )

    def block_topk(batch: pa.Table) -> pa.Table:
        toks = batch.column("token").to_numpy(zero_copy_only=False)
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        sel = np.lexsort((toks, -n))[:k]
        return pa.table(
            {
                "token": pa.array(toks[sel], pa.string()),
                "n": pa.array(n[sel], pa.int64()),
            }
        )

    parts = grouped.map_batches(block_topk, batch_format="pyarrow").to_pandas()
    return _finish(
        parts["token"].to_numpy().astype(object), parts["n"].to_numpy().astype(np.int64)
    )


def heavy_hitters_sql(src: str, k: int = HH_TOP_K) -> str:
    """DuckDB oracle for :func:`heavy_hitters` (same tokenizer, exact
    global counts, same (n DESC, token ASC) tie rule)."""
    return f"""
WITH toks AS (
    SELECT regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}') AS t
    FROM {src}
),
occ AS (SELECT unnest(t) AS tok FROM toks),
cnt AS (SELECT tok, count(*) AS n FROM occ GROUP BY tok),
ranked AS (
    SELECT tok, n, row_number() OVER (ORDER BY n DESC, tok) AS rank FROM cnt
)
SELECT CAST(rank AS INT) AS rank, tok AS token, CAST(n AS BIGINT) AS n
FROM ranked WHERE rank <= {k}
"""


# ---------------------------------------------------------------------------
# Cross-document duplicated-window detection (exact substring-dup signal)
# ---------------------------------------------------------------------------

DUPWIN_W = 5


def dup_window_ratio(
    ds,
    window: int = DUPWIN_W,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Exact duplicated-window detection ACROSS documents — the signal
    behind exact substring deduplication (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"), at a
    fixed window length: a W-token window is DUPLICATED when its md5
    key occurs >= 2 times anywhere in the corpus (any document,
    including its own). Per document: (id, n_windows, n_dup_windows,
    dup_window_ratio) — the per-doc fraction of duplicated spans a
    dedup pipeline would cut or downweight.

    Shape: one tokenize pass emits window rows (md5-hex key, key
    bucket, doc, 1) plus a per-doc window-count row riding the same
    unified schema (kind flag); ONE bucket groupby computes global
    per-key totals entirely within each group (keys are
    bucket-contained by construction) and folds them to per-doc dup
    partials; ONE doc groupby sums. This op is inherently the heavy
    exchange of exact substring dedup (~one row per corpus token — the
    known cost of the method, suffix-array-scale work); MinHash /
    SimHash in ``functions/dedup.py`` are its cheap approximate
    siblings, and both stages here move only pre-shaped fixed-width
    rows, never documents."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .dedup import _flat_word_tokens, _md5_col

    nb = 1024
    w_ = int(window)

    def win_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        doc_idx, flat = _flat_word_tokens(batch.column(text_col))
        m = len(doc_idx)
        n_win_doc = np.zeros(len(ids), np.int64)
        parts_kb, parts_h, parts_doc, parts_mult, parts_kind = [], [], [], [], []
        if m >= w_:
            span = m - w_ + 1
            valid = doc_idx[:span] == doc_idx[w_ - 1 :]
            if valid.any():
                sel = pa.array(valid)
                joined = pc.binary_join_element_wise(
                    *(flat.slice(j, span).filter(sel) for j in range(w_)), " "
                )
                h = _md5_col(joined)
                docs_local = doc_idx[:span][valid]
                np.add.at(n_win_doc, docs_local, 1)
                # vectorized bucket from the hex digests: fixed 32-char
                # rows -> (n, 32) byte view, first 8 nibbles to an int
                hh = h.combine_chunks() if isinstance(h, pa.ChunkedArray) else h
                raw = np.frombuffer(hh.buffers()[2], np.uint8)
                mat = raw[: 32 * len(hh)].reshape(-1, 32)[:, :8].astype(np.int64)
                nib = np.where(mat >= 97, mat - 87, mat - 48)
                hb = (nib @ (16 ** np.arange(7, -1, -1, dtype=np.int64))) % nb
                parts_kb.append(hb)
                parts_h.append(h)
                parts_doc.append(ids[docs_local])
                parts_mult.append(np.ones(len(hb), np.int64))
                parts_kind.append(np.zeros(len(hb), np.int8))
        # per-doc window-count rows (every doc, including zero-window)
        parts_kb.append((ids % nb).astype(np.int64))
        parts_h.append(pa.array([""] * len(ids), pa.string()))
        parts_doc.append(ids)
        parts_mult.append(n_win_doc)
        parts_kind.append(np.ones(len(ids), np.int8))
        return pa.table(
            {
                "kb": pa.array(np.concatenate(parts_kb), pa.int64()),
                "h": pa.concat_arrays(
                    [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p
                     for p in parts_h]
                ),
                "doc": pa.array(np.concatenate(parts_doc), pa.int64()),
                "mult": pa.array(np.concatenate(parts_mult), pa.int64()),
                "kind": pa.array(np.concatenate(parts_kind), pa.int8()),
            }
        )

    def fold_bucket(group: pa.Table) -> pa.Table:
        import pandas as pd

        kind = group.column("kind").to_numpy(zero_copy_only=False)
        doc = group.column("doc").to_numpy(zero_copy_only=False)
        mult = group.column("mult").to_numpy(zero_copy_only=False)
        is_win = kind == 0
        out_doc = [doc[~is_win]]
        out_nw = [mult[~is_win]]
        out_nd = [np.zeros(int((~is_win).sum()), np.int64)]
        if is_win.any():
            h = group.column("h").to_numpy(zero_copy_only=False)[is_win]
            codes, _uq = pd.factorize(h, sort=False)
            tot = np.bincount(codes, weights=mult[is_win]).astype(np.int64)
            dup = tot[codes] >= 2
            dcodes, duq = pd.factorize(doc[is_win][dup], sort=False)
            nd = np.zeros(len(duq), np.int64)
            np.add.at(nd, dcodes, mult[is_win][dup])
            out_doc.append(duq.astype(np.int64))
            out_nw.append(np.zeros(len(duq), np.int64))
            out_nd.append(nd)
        return pa.table(
            {
                id_col: pa.array(np.concatenate(out_doc), pa.int64()),
                "n_windows": pa.array(np.concatenate(out_nw), pa.int64()),
                "n_dup_windows": pa.array(np.concatenate(out_nd), pa.int64()),
            }
        )

    def ratio(batch: pa.Table) -> pa.Table:
        nw = batch.column("n_windows").to_numpy(zero_copy_only=False).astype(np.float64)
        nd = batch.column("n_dup_windows").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        r = np.divide(nd, nw, out=np.zeros_like(nd), where=nw > 0)
        return batch.append_column(
            "dup_window_ratio", pa.array(_round6(r), pa.float64())
        )

    return (
        ds.map_batches(win_rows, batch_format="pyarrow")
        .groupby("kb")
        .map_groups(fold_bucket, batch_format="pyarrow")
        .groupby(id_col)
        .aggregate(
            Sum("n_windows", alias_name="n_windows"),
            Sum("n_dup_windows", alias_name="n_dup_windows"),
        )
        .map_batches(ratio, batch_format="pyarrow")
    )


def dup_window_ratio_sql(
    src: str, window: int = DUPWIN_W, id_col: str = "doc_id"
) -> str:
    """DuckDB oracle for :func:`dup_window_ratio` (same tokenizer, the
    window text built with chained ``lead`` — a window crossing the doc
    end concatenates NULL and drops — and the SAME md5 key, so even a
    hypothetical digest collision is mirrored)."""
    leads = " || ' ' || ".join(
        f"lead(tok, {j}) OVER (PARTITION BY {id_col} ORDER BY i)"
        for j in range(1, window)
    )
    return f"""
WITH toks AS (
    SELECT {id_col},
           unnest(regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}')) AS tok,
           generate_subscripts(regexp_extract_all(lower(coalesce(text, '')), '{WORD_REGEX}'), 1) AS i
    FROM {src}
),
wins AS (
    SELECT {id_col}, md5(tok || ' ' || {leads}) AS h FROM toks
),
w2 AS (SELECT {id_col}, h FROM wins WHERE h IS NOT NULL),
hc AS (SELECT h, count(*) AS c FROM w2 GROUP BY h),
agg AS (
    SELECT d.{id_col},
           CAST(count(w.h) AS BIGINT) AS n_windows,
           CAST(count(CASE WHEN hc.c >= 2 THEN 1 END) AS BIGINT) AS n_dup_windows
    FROM {src} d
    LEFT JOIN w2 w USING ({id_col})
    LEFT JOIN hc ON hc.h = w.h
    GROUP BY d.{id_col}
)
SELECT {id_col}, n_windows, n_dup_windows,
       CASE WHEN n_windows = 0 THEN 0.0
            ELSE round(n_dup_windows * 1.0 / n_windows, {QUALITY_ROUND})
       END AS dup_window_ratio
FROM agg
"""


# ---------------------------------------------------------------------------
# Corpus-wide line-level dedup (the RefinedWeb / CCNet line-dedup transform)
# ---------------------------------------------------------------------------

LINE_DEDUP_MIN_CHARS = 15
_LINE_KEY_BITS = 32


def line_dedup(
    ds,
    min_chars: int = LINE_DEDUP_MIN_CHARS,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Corpus-wide line-level deduplication — the REWRITE transform of
    RefinedWeb / CCNet line dedup (Penedo 2023 §3.3; CCNet's
    paragraph-hash dedup, Wenzek 2020): a newline-delimited line
    PARTICIPATES when ``len(line) >= min_chars``; among all corpus
    occurrences of the same line (md5 key — the same exact-key
    convention as ``exact_dedup``), only the globally-FIRST
    (doc_id ASC, line_idx ASC) survives, and every other occurrence is
    cut from its document. Short lines never dedup (cutting every
    ``''`` or ``Yes.`` corpus-wide would shred documents — CCNet's
    length floor). Docs whose every line is cut survive as empty text
    (the caller's quality gate drops them — composition, not policy).
    -> Dataset(id, text, n_lines, n_kept).

    Shape — two LINE-sized exchanges; document text shuffles once:
    (1) one explode map emits (bucket, h, key) for participating lines
    only, ``key = doc_id << 32 | line_idx`` in one int64 (doc_id must
    fit 31 bits, line_idx 32 — validated loudly, the dup_clusters
    sentinel rule); a 1024-way md5-bucket groupby finds, per h, every
    occurrence EXCEPT the min key (one lexsort inside the bucket; keys
    are bucket-contained by construction) and emits only DROP rows —
    state proportional to duplicated lines, not the corpus;
    (2) drops + docs ride one tagged-union doc-bucket groupby and each
    doc rewrites by masking its dropped line indices (one split + join
    per doc — per-doc sequential string work, the BPE-encode note).
    Nothing corpus-sized ever sits on the driver."""
    from .dedup import _md5_bucket, _md5_col

    nb = 1024
    mc = int(min_chars)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= (1 << 31)):
            raise ValueError(
                f"{id_col} outside [0, 2**31) — cannot pack line keys")
        txt = pc.fill_null(batch.column(text_col), "")
        lines = pc.split_pattern(txt, "\n")
        lines = (
            lines.combine_chunks() if isinstance(lines, pa.ChunkedArray)
            else lines
        )
        flat = lines.flatten()
        off = lines.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(off)
        if len(flat) and int(counts.max()) >= (1 << _LINE_KEY_BITS):
            raise ValueError("line_idx outside [0, 2**32) — cannot pack")
        doc_idx = np.repeat(np.arange(len(ids)), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1])) \
            if len(counts) else np.empty(0, np.int64)
        line_idx = np.arange(len(flat), dtype=np.int64) - starts[doc_idx]
        keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) >= mc
        sel = pa.array(keep)
        part = flat.filter(sel)
        h = _md5_col(part)
        key = (ids[doc_idx[keep]] << _LINE_KEY_BITS) | line_idx[keep]
        return pa.table({
            "kb": pa.array(_md5_bucket(h, nb), pa.int64()),
            "h": h,
            "key": pa.array(key, pa.int64()),
        })

    def fold_bucket(group: pa.Table) -> pa.Table:
        import pandas as pd

        h = group.column("h").to_numpy(zero_copy_only=False)
        key = group.column("key").to_numpy(zero_copy_only=False)
        codes, _uq = pd.factorize(h, sort=False)
        order = np.lexsort((key, codes))
        first = np.empty(len(order), bool)
        first[0:1] = True
        np.not_equal(codes[order][1:], codes[order][:-1], out=first[1:])
        dropped = key[order][~first]
        return pa.table({
            id_col: pa.array(dropped >> _LINE_KEY_BITS, pa.int64()),
            "li": pa.array(dropped & ((1 << _LINE_KEY_BITS) - 1), pa.int64()),
        })

    def tag_drop(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "db": pa.array(ids % nb, pa.int64()),
            id_col: batch.column(id_col),
            "li": batch.column("li"),
            text_col: pa.array([None] * len(batch), pa.string()),
        })

    def tag_doc(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "db": pa.array(ids % nb, pa.int64()),
            id_col: pa.array(ids, pa.int64()),
            "li": pa.array(np.full(len(ids), -1), pa.int64()),
            text_col: pc.fill_null(batch.column(text_col), ""),
        })

    def rewrite(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        li = group.column("li").to_numpy(zero_copy_only=False)
        txt = group.column(text_col)
        is_doc = li < 0
        drops: dict[int, list[int]] = {}
        for d, x in zip(ids[~is_doc].tolist(), li[~is_doc].tolist()):
            drops.setdefault(d, []).append(x)
        out_id, out_t, out_nl, out_nk = [], [], [], []
        for j in np.flatnonzero(is_doc).tolist():
            d = int(ids[j])
            lines = (txt[j].as_py() or "").split("\n")
            cut = set(drops.get(d, ()))
            kept = [x for i, x in enumerate(lines) if i not in cut]
            out_id.append(d)
            out_t.append("\n".join(kept))
            out_nl.append(len(lines))
            out_nk.append(len(kept))
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            text_col: pa.array(out_t, pa.string()),
            "n_lines": pa.array(out_nl, pa.int64()),
            "n_kept": pa.array(out_nk, pa.int64()),
        })

    drops_ds = (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby("kb")
        .map_groups(fold_bucket, batch_format="pyarrow")
        .map_batches(tag_drop, batch_format="pyarrow")
    )
    docs_ds = ds.map_batches(tag_doc, batch_format="pyarrow")
    return (
        docs_ds.union(drops_ds)
        .groupby("db")
        .map_groups(rewrite, batch_format="pyarrow")
    )


def lineify_words(ds, n: int = 8, text_col: str = "text"):
    """Deterministic line-ification: re-join each doc's
    space-separated words into newline-delimited lines of ``n`` words
    (the pre-step that gives the single-line synthetic documents a
    line structure for :func:`line_dedup`; SQL twin
    :func:`lineify_words_rel`). Zero-shuffle map; the per-doc chunk
    join is per-doc sequential string work."""
    nn = int(n)

    def fn(batch: pa.Table) -> pa.Table:
        txt = pc.fill_null(batch.column(text_col), "")
        out = []
        for t in txt.to_pylist():
            w = t.split(" ")
            out.append("\n".join(
                " ".join(w[i: i + nn]) for i in range(0, len(w), nn)
            ))
        i = batch.schema.get_field_index(text_col)
        return batch.set_column(i, text_col, pa.array(out, pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow")


def lineify_words_rel(src: str, n: int = 8, id_col: str = "doc_id") -> str:
    """SQL relation (id, text) where each doc's words are re-joined
    into newline-delimited lines of ``n`` words — the deterministic
    line-ification the driver query applies to the single-line
    documents corpus before line dedup (both engines share it)."""
    return f"""(
    WITH w AS (
        SELECT {id_col},
               unnest(string_split(coalesce(text, ''), ' ')) AS word,
               generate_subscripts(string_split(coalesce(text, ''), ' '), 1) AS i
        FROM {src}
    ),
    l AS (
        SELECT {id_col}, (i - 1) // {int(n)} AS line_idx,
               string_agg(word, ' ' ORDER BY i) AS line
        FROM w GROUP BY 1, 2
    )
    SELECT {id_col}, string_agg(line, chr(10) ORDER BY line_idx) AS text
    FROM l GROUP BY 1
)"""


def line_dedup_sql(
    src: str,
    min_chars: int = LINE_DEDUP_MIN_CHARS,
    id_col: str = "doc_id",
) -> str:
    """DuckDB oracle for :func:`line_dedup`: the same split / md5-key /
    keep-globally-first (doc ASC, line_idx ASC) / rejoin pipeline in
    SQL — ``row_number() OVER (PARTITION BY md5(line))`` is the
    keep-first rule; short lines get rn=1 unconditionally (they never
    participate). ``src`` is any (id, text) relation — compose with
    :func:`lineify_words_rel` for the single-line documents corpus."""
    return f"""
WITH lines AS (
    SELECT {id_col},
           unnest(string_split(coalesce(text, ''), chr(10))) AS line,
           generate_subscripts(string_split(coalesce(text, ''), chr(10)), 1) - 1
               AS line_idx
    FROM {src}
),
ranked AS (
    SELECT *,
           CASE WHEN length(line) >= {int(min_chars)}
                THEN row_number() OVER (
                    PARTITION BY md5(line) ORDER BY {id_col}, line_idx)
                ELSE 1 END AS rn
    FROM lines
),
kept AS (SELECT * FROM ranked WHERE rn = 1),
agg AS (
    SELECT {id_col},
           string_agg(line, chr(10) ORDER BY line_idx) AS text,
           CAST(count(*) AS BIGINT) AS n_kept
    FROM kept GROUP BY 1
),
nl AS (
    SELECT {id_col}, CAST(count(*) AS BIGINT) AS n_lines
    FROM lines GROUP BY 1
)
SELECT n.{id_col}, coalesce(a.text, '') AS text, n.n_lines,
       coalesce(a.n_kept, 0) AS n_kept
FROM nl n LEFT JOIN agg a ON a.{id_col} = n.{id_col}
"""


# ---------------------------------------------------------------------------
# Corpus-wide duplicated-span removal (the ExactSubstr rewrite transform)
# ---------------------------------------------------------------------------

SPAN_DEDUP_W = 8


def span_dedup(
    ds,
    window: int = SPAN_DEDUP_W,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Corpus-wide duplicated-SPAN removal — the REWRITE transform of
    exact substring deduplication (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better": remove every repeated
    >=50-BPE-token span, keeping one occurrence; ``window`` here is the
    word-token analog, the suffix-array length floor): a W-token
    window is DUPLICATED when its md5 key (the ``dup_window_ratio``
    gram convention — tokens joined with a single space) occurs >= 2
    times anywhere in the corpus; among all occurrences of the same
    key only the globally-FIRST (doc ASC, pos ASC) survives, and every
    other occurrence marks its W token positions dropped.  A token
    position is cut iff ANY non-first duplicated window covers it —
    overlapping duplicate runs collapse to the first window's tokens
    exactly as the suffix-array method collapses a repeated region to
    one copy.  Tokens are the SPACE-SPLIT word stream and the output
    text is the space-rejoin of kept tokens — a lossless round trip
    for arbitrary input (split('' )/' '.join invert each other even on
    empty strings and runs of spaces), so an undeduped doc comes back
    byte-identical.  -> Dataset(id, text, n_tokens, n_kept).

    Shape — identical to :func:`line_dedup`, two WINDOW-sized
    exchanges, document text shuffles once: (1) one explode map emits
    (bucket, h, key) per FULL window only, ``key = doc_id << 32 |
    pos`` (doc_id validated into 31 bits, pos 32 — the dup_clusters
    loud-sentinel rule); a 1024-way md5-bucket groupby keeps, per h,
    every occurrence EXCEPT the min key and emits only DROP
    window-starts — state proportional to duplicated windows, not the
    corpus; (2) drops + docs ride one tagged-union doc-bucket groupby
    and each doc masks the union of its dropped [pos, pos+W) ranges
    (per-doc sequential string work, the BPE-encode note).  Nothing
    corpus-sized ever sits on the driver.  This is the transform
    sibling of :func:`dup_window_ratio` (the per-doc signal) and
    :func:`line_dedup` (the line-granular rewrite)."""
    from .dedup import _md5_bucket, _md5_col

    w_ = int(window)
    if w_ < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    nb = 1024

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= (1 << 31)):
            raise ValueError(
                f"{id_col} outside [0, 2**31) — cannot pack span keys")
        txt = pc.fill_null(batch.column(text_col), "")
        toks = pc.split_pattern(txt, " ")
        toks = (
            toks.combine_chunks() if isinstance(toks, pa.ChunkedArray)
            else toks
        )
        flat = toks.flatten()
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(off)
        if len(flat) and int(counts.max()) >= (1 << _LINE_KEY_BITS):
            raise ValueError("token pos outside [0, 2**32) — cannot pack")
        m = len(flat)
        doc_idx = np.repeat(np.arange(len(ids)), counts)
        if m < w_:
            return pa.table({
                "kb": pa.array([], pa.int64()),
                "h": pa.array([], pa.string()),
                "key": pa.array([], pa.int64()),
            })
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = np.arange(m, dtype=np.int64) - starts[doc_idx]
        span = m - w_ + 1
        # a window is FULL iff its first and last token share a doc
        valid = doc_idx[:span] == doc_idx[w_ - 1:]
        sel = pa.array(valid)
        joined = pc.binary_join_element_wise(
            *(flat.slice(j, span).filter(sel) for j in range(w_)), " "
        )
        h = _md5_col(joined)
        key = (ids[doc_idx[:span][valid]] << _LINE_KEY_BITS) | pos[:span][valid]
        return pa.table({
            "kb": pa.array(_md5_bucket(h, nb), pa.int64()),
            "h": h,
            "key": pa.array(key, pa.int64()),
        })

    def fold_bucket(group: pa.Table) -> pa.Table:
        import pandas as pd

        h = group.column("h").to_numpy(zero_copy_only=False)
        key = group.column("key").to_numpy(zero_copy_only=False)
        codes, _uq = pd.factorize(h, sort=False)
        order = np.lexsort((key, codes))
        first = np.empty(len(order), bool)
        first[0:1] = True
        np.not_equal(codes[order][1:], codes[order][:-1], out=first[1:])
        dropped = key[order][~first]
        return pa.table({
            id_col: pa.array(dropped >> _LINE_KEY_BITS, pa.int64()),
            "ws": pa.array(dropped & ((1 << _LINE_KEY_BITS) - 1), pa.int64()),
        })

    def tag_drop(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "db": pa.array(ids % nb, pa.int64()),
            id_col: batch.column(id_col),
            "ws": batch.column("ws"),
            text_col: pa.array([None] * len(batch), pa.string()),
        })

    def tag_doc(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "db": pa.array(ids % nb, pa.int64()),
            id_col: pa.array(ids, pa.int64()),
            "ws": pa.array(np.full(len(ids), -1), pa.int64()),
            text_col: pc.fill_null(batch.column(text_col), ""),
        })

    def rewrite(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        ws = group.column("ws").to_numpy(zero_copy_only=False)
        txt = group.column(text_col)
        is_doc = ws < 0
        drops: dict[int, list[int]] = {}
        for d, s in zip(ids[~is_doc].tolist(), ws[~is_doc].tolist()):
            drops.setdefault(d, []).append(s)
        out_id, out_t, out_nt, out_nk = [], [], [], []
        for j in np.flatnonzero(is_doc).tolist():
            d = int(ids[j])
            toks = (txt[j].as_py() or "").split(" ")
            n = len(toks)
            starts_d = drops.get(d)
            if starts_d:
                cut = np.zeros(n, bool)
                for s in starts_d:
                    cut[s:s + w_] = True
                kept = [t for t, c in zip(toks, cut) if not c]
            else:
                kept = toks
            out_id.append(d)
            out_t.append(" ".join(kept))
            out_nt.append(n)
            out_nk.append(len(kept))
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            text_col: pa.array(out_t, pa.string()),
            "n_tokens": pa.array(out_nt, pa.int64()),
            "n_kept": pa.array(out_nk, pa.int64()),
        })

    drops_ds = (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby("kb")
        .map_groups(fold_bucket, batch_format="pyarrow")
        .map_batches(tag_drop, batch_format="pyarrow")
    )
    docs_ds = ds.map_batches(tag_doc, batch_format="pyarrow")
    return (
        docs_ds.union(drops_ds)
        .groupby("db")
        .map_groups(rewrite, batch_format="pyarrow")
    )


def span_dedup_sql(
    src: str, window: int = SPAN_DEDUP_W, id_col: str = "doc_id"
) -> str:
    """DuckDB oracle for :func:`span_dedup`: the same space-split
    token stream, the same chained-``lead`` window text and md5 key
    (a window crossing the doc end concatenates NULL and drops — the
    engine's full-window mask), ``row_number() OVER (PARTITION BY h
    ORDER BY doc, pos)`` as the keep-globally-first rule, dropped
    window-starts expanded to positions with ``range(window)``, and
    the space-rejoin of surviving tokens."""
    w_ = int(window)
    if w_ < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    leads = " || ' ' || ".join(
        f"lead(word, {j}) OVER (PARTITION BY {id_col} ORDER BY i)"
        for j in range(1, w_)
    )
    return f"""
WITH toks AS (
    SELECT {id_col},
           unnest(string_split(coalesce(text, ''), ' ')) AS word,
           generate_subscripts(string_split(coalesce(text, ''), ' '), 1) - 1
               AS i
    FROM {src}
),
wins AS (
    SELECT {id_col}, i, md5(word || ' ' || {leads}) AS h FROM toks
),
ranked AS (
    SELECT {id_col}, i,
           row_number() OVER (PARTITION BY h ORDER BY {id_col}, i) AS rn
    FROM wins WHERE h IS NOT NULL
),
dropw AS (SELECT {id_col}, i FROM ranked WHERE rn > 1),
droppos AS (
    SELECT DISTINCT {id_col}, dropw.i + r.j AS i
    FROM dropw CROSS JOIN range({w_}) AS r(j)
),
kept AS (
    SELECT t.{id_col}, t.word, t.i
    FROM toks t
    ANTI JOIN droppos d ON d.{id_col} = t.{id_col} AND d.i = t.i
),
agg AS (
    SELECT {id_col}, string_agg(word, ' ' ORDER BY i) AS text,
           CAST(count(*) AS BIGINT) AS n_kept
    FROM kept GROUP BY 1
),
nt AS (
    SELECT {id_col}, CAST(count(*) AS BIGINT) AS n_tokens
    FROM toks GROUP BY 1
)
SELECT n.{id_col}, coalesce(a.text, '') AS text, n.n_tokens,
       coalesce(a.n_kept, 0) AS n_kept
FROM nt n LEFT JOIN agg a ON a.{id_col} = n.{id_col}
"""


# ---------------------------------------------------------------------------
# Feature-hashing document vectors (the hashing trick)
# ---------------------------------------------------------------------------

HASH_EMBED_DIM = 64


def hash_embed(
    ds,
    dim: int = HASH_EMBED_DIM,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Feature-hashing document vectors (Weinberger et al. 2009 — the
    model-free embedding a 100 TB pipeline can afford for every doc):
    each token occurrence adds ``sign`` to coordinate ``h % dim``,
    where ``h`` is the md5-prefix uint64 token hash (the simhash
    device, bit-identical in SQL) and ``sign = +1 if (h // dim) % 2
    else -1`` — the signed variant that makes coordinates unbiased.
    -> long-form Dataset(id, dim, val int64): one row per (doc,
    coordinate) that received AT LEAST one token (val may be 0 when
    signs cancel — presence, not value, decides emission, matching the
    SQL GROUP BY exactly).  SimHash is the sign-compressed sibling;
    this keeps magnitudes for cosine work.

    Zero-shuffle fully-vectorized map: tokenize, memoized token
    hashes, one flat-key ``np.add.at`` accumulation per batch — no
    per-row Python, nothing exchanged."""
    from .dedup import _flat_word_tokens, _token_hash_array

    dm = int(dim)
    if dm < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        doc_idx, flat = _flat_word_tokens(batch.column(text_col))
        if len(doc_idx) == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "dim": pa.array([], pa.int64()),
                "val": pa.array([], pa.int64()),
            })
        h = _token_hash_array(flat)
        d = (h % np.uint64(dm)).astype(np.int64)
        sign = np.where((h // np.uint64(dm)) % np.uint64(2) == 1, 1, -1)
        key = doc_idx * dm + d
        n_keys = len(ids) * dm
        acc = np.zeros(n_keys, np.int64)
        cnt = np.zeros(n_keys, np.int64)
        np.add.at(acc, key, sign)
        np.add.at(cnt, key, 1)
        nz = np.flatnonzero(cnt)
        return pa.table({
            id_col: pa.array(ids[nz // dm], pa.int64()),
            "dim": pa.array(nz % dm, pa.int64()),
            "val": pa.array(acc[nz], pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def hash_embed_sql(src: str, dim: int = HASH_EMBED_DIM,
                   id_col: str = "doc_id") -> str:
    """DuckDB oracle for :func:`hash_embed`: the same tokenizer, the
    same md5 -> little-endian-uint64 nibble arithmetic (the simhash_sql
    device), the same ``h % dim`` coordinate and ``(h // dim) % 2``
    sign, one GROUP BY."""
    dm = int(dim)
    if dm < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")

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
th AS (
    SELECT {id_col}, ({hexpr}) AS h
    FROM (SELECT {id_col}, md5(tok) AS m FROM toks)
)
SELECT {id_col}, CAST(h % {dm} AS BIGINT) AS dim,
       CAST(sum(CASE WHEN (h // {dm}) % 2 = 1 THEN 1 ELSE -1 END) AS BIGINT)
           AS val
FROM th GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Unicode/whitespace text normalization (the pre-dedup canonicalizer)
# ---------------------------------------------------------------------------

_CTRL_REGEX = "[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f\\x7f]"


def normalize_text(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Canonical text normalization — the step every hash-keyed dedup
    wants FIRST (two byte-different spellings of the same string are
    different md5 keys): Unicode NFC composition (é as e+combining
    acute == precomposed é; canonical only — NFKC's lossy compatibility
    folds are deliberately NOT applied), control-character strip
    (C0 minus tab/newline/CR, plus DEL), whitespace-run collapse to one
    space, trim.  -> (id, text, n_before, n_after int64 codepoint
    counts).

    NFC is the one per-row Python pass (no Arrow kernel exists; the
    ``_md5_col`` precedent) and short-circuits via
    ``unicodedata.is_normalized`` — ASCII corpora pay a scan, not a
    rebuild; the strip/collapse/trim stages are vectorized RE2
    kernels.  The SQL twin shares every stage (DuckDB
    ``nfc_normalize`` implements the same stable canonical
    composition; regexps are RE2-class on both engines)."""
    import unicodedata

    def fn(batch: pa.Table) -> pa.Table:
        txt = pc.fill_null(batch.column(text_col).combine_chunks(), "")
        n_before = pc.utf8_length(txt).cast(pa.int64())
        is_norm = unicodedata.is_normalized
        norm = unicodedata.normalize
        vals = [
            t if is_norm("NFC", t) else norm("NFC", t)
            for t in txt.to_pylist()
        ]
        arr = pa.array(vals, pa.string())
        arr = pc.replace_substring_regex(arr, _CTRL_REGEX, "")
        arr = pc.replace_substring_regex(arr, "\\s+", " ")
        arr = pc.utf8_trim_whitespace(arr)
        return pa.table({
            id_col: batch.column(id_col),
            text_col: arr,
            "n_before": n_before,
            "n_after": pc.utf8_length(arr).cast(pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def normalize_text_sql(src: str, id_col: str = "doc_id") -> str:
    """DuckDB oracle for :func:`normalize_text`: ``nfc_normalize`` +
    the same RE2 strip/collapse + trim, codepoint lengths via
    ``length`` (both engines count codepoints, not bytes)."""
    expr = (
        "trim(regexp_replace(regexp_replace("
        f"nfc_normalize(coalesce(text, '')), '{_CTRL_REGEX}', '', 'g'), "
        "'\\s+', ' ', 'g'))"
    )
    return f"""
SELECT {id_col},
       {expr} AS text,
       CAST(length(coalesce(text, '')) AS BIGINT) AS n_before,
       CAST(length({expr}) AS BIGINT) AS n_after
FROM {src}
"""


# ---------------------------------------------------------------------------
# Corpus drift — Jensen-Shannon divergence between two corpus slices
# (the ingest-monitoring primitive: "did today's crawl change the
# token distribution?")
# ---------------------------------------------------------------------------

JS_Q = 1_000_000  # per-token log-ratio quantization (the NB device)


def corpus_js_divergence(
    a, b, text_col: str = "text"
):
    """Jensen-Shannon divergence (natural log) between the word-unigram
    distributions of two corpora — the distribution-drift monitor a
    continuous-ingestion pipeline runs between snapshots (JS, not KL:
    symmetric, bounded by ln 2, and DEFINED when a token appears on
    one side only, so no smoothing constant to tune).

    Plan: each side's blocks emit (token, n) partial counts (the
    ngram_counts shape, in-batch repetition folded before the
    exchange), tagged onto one unified (token, n_a, n_b) schema; ONE
    vocabulary groupby sums both sides; a post-groupby map computes
    each token's contribution VECTORIZED and the final fold is a
    6-scalar distributed aggregate — nothing vocabulary-sized ever
    returns to the driver.

    Exactness device: with A, B the total token counts,
    ``ln(p_i/m_i) = ln(2*a_i*B / (a_i*B + b_i*A))`` — a ratio of exact
    int64s, so both engines take the SAME double through ``ln``,
    quantize it ``floor(x*1e6 + 0.5)`` (the NB rule), weight by the
    int64 count, and sum exactly; the two final divisions by A and B
    happen once, identically, in both engines.  int64 headroom: the
    weighted sum is bounded by A * 35e6 — safe through ~2.6e11 total
    tokens per side; production would fold in decimal128.

    Output (one row): total/distinct token counts per side, the shared
    vocabulary size, and ``js`` in nats.
    """
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .dedup import _flat_word_tokens

    def side(ds, is_a: bool):
        def f(batch: pa.Table) -> pa.Table:
            _, flat = _flat_word_tokens(batch.column(text_col))
            vc = flat.value_counts() if len(flat) else None
            tok = vc.field("values") if vc is not None else pa.array([], pa.string())
            n = (
                vc.field("counts").cast(pa.int64())
                if vc is not None
                else pa.array([], pa.int64())
            )
            z = pa.array(np.zeros(len(tok), np.int64), pa.int64())
            return pa.table(
                {"token": tok, "n_a": n if is_a else z, "n_b": z if is_a else n}
            )

        return ds.map_batches(f, batch_format="pyarrow")

    merged = (
        side(a, True)
        .union(side(b, False))
        .groupby("token")
        .aggregate(Sum("n_a", alias_name="n_a"), Sum("n_b", alias_name="n_b"))
        .materialize()  # consumed twice: totals, then the term fold
    )
    tot = merged.aggregate(
        Sum("n_a", alias_name="A"), Sum("n_b", alias_name="B")
    )
    A, B = int(tot["A"] or 0), int(tot["B"] or 0)
    if A == 0 or B == 0:
        raise ValueError(
            f"corpus_js_divergence: empty side (A={A}, B={B}) — JS "
            "against an empty distribution is not meaningful"
        )

    def terms(t: pa.Table) -> pa.Table:
        na = t.column("n_a").to_numpy(zero_copy_only=False)
        nb = t.column("n_b").to_numpy(zero_copy_only=False)
        y = na * B + nb * A  # > 0: every token appears somewhere
        qa = np.zeros(len(na), np.int64)
        qb = np.zeros(len(nb), np.int64)
        ma = na > 0
        qa[ma] = np.floor(
            np.log(2.0 * na[ma] * B / y[ma]) * JS_Q + 0.5
        ).astype(np.int64)
        mb = nb > 0
        qb[mb] = np.floor(
            np.log(2.0 * nb[mb] * A / y[mb]) * JS_Q + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "wa": pa.array(na * qa, pa.int64()),
                "wb": pa.array(nb * qb, pa.int64()),
                "va": pa.array(ma.astype(np.int64), pa.int64()),
                "vb": pa.array(mb.astype(np.int64), pa.int64()),
                "vs": pa.array((ma & mb).astype(np.int64), pa.int64()),
            }
        )

    s = merged.map_batches(terms, batch_format="pyarrow").aggregate(
        Sum("wa", alias_name="wa"), Sum("wb", alias_name="wb"),
        Sum("va", alias_name="va"), Sum("vb", alias_name="vb"),
        Sum("vs", alias_name="vs"),
    )
    js = 0.5 * (int(s["wa"] or 0) / A + int(s["wb"] or 0) / B) / JS_Q
    return rd.from_arrow(
        pa.table(
            {
                "tokens_a": pa.array([A], pa.int64()),
                "tokens_b": pa.array([B], pa.int64()),
                "vocab_a": pa.array([int(s["va"] or 0)], pa.int64()),
                "vocab_b": pa.array([int(s["vb"] or 0)], pa.int64()),
                "vocab_shared": pa.array([int(s["vs"] or 0)], pa.int64()),
                "js": pa.array([js], pa.float64()),
            }
        )
    )


def corpus_js_divergence_sql(a_src: str, b_src: str) -> str:
    """DuckDB oracle for :func:`corpus_js_divergence` — the identical
    integer ratio through ``ln``, the identical quantization, the
    identical final divisions."""
    q = JS_Q

    def counts(src: str) -> str:
        return f"""
    SELECT tok AS token, CAST(count(*) AS BIGINT) AS n
    FROM (SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                           '{WORD_REGEX}')) AS tok
          FROM {src}) GROUP BY tok"""

    return f"""
WITH ca AS ({counts(a_src)}),
cb AS ({counts(b_src)}),
m AS (
    SELECT coalesce(ca.token, cb.token) AS token,
           coalesce(ca.n, 0) AS n_a, coalesce(cb.n, 0) AS n_b
    FROM ca FULL OUTER JOIN cb ON ca.token = cb.token
),
tot AS (SELECT SUM(n_a) AS A, SUM(n_b) AS B FROM m),
t AS (
    SELECT
      CASE WHEN n_a > 0 THEN n_a * CAST(floor(
        ln(2.0 * n_a * tot.B / (n_a * tot.B + n_b * tot.A)) * {q} + 0.5
      ) AS BIGINT) ELSE 0 END AS wa,
      CASE WHEN n_b > 0 THEN n_b * CAST(floor(
        ln(2.0 * n_b * tot.A / (n_a * tot.B + n_b * tot.A)) * {q} + 0.5
      ) AS BIGINT) ELSE 0 END AS wb,
      CASE WHEN n_a > 0 THEN 1 ELSE 0 END AS va,
      CASE WHEN n_b > 0 THEN 1 ELSE 0 END AS vb,
      CASE WHEN n_a > 0 AND n_b > 0 THEN 1 ELSE 0 END AS vs
    FROM m, tot
)
SELECT CAST(tot.A AS BIGINT) AS tokens_a, CAST(tot.B AS BIGINT) AS tokens_b,
       CAST(SUM(va) AS BIGINT) AS vocab_a, CAST(SUM(vb) AS BIGINT) AS vocab_b,
       CAST(SUM(vs) AS BIGINT) AS vocab_shared,
       0.5 * (CAST(SUM(wa) AS BIGINT) * 1.0 / tot.A
              + CAST(SUM(wb) AS BIGINT) * 1.0 / tot.B) / {q} AS js
FROM t, tot GROUP BY tot.A, tot.B
"""


# ---------------------------------------------------------------------------
# Zipf's-law fit over the corpus token frequency distribution
# ---------------------------------------------------------------------------

ZIPF_MAX_RANK = 1000


def zipf_fit(ds, text_col: str = "text",
             max_rank: int = ZIPF_MAX_RANK) -> pa.Table:
    """OLS fit of ``ln(freq) ~ ln(rank)`` over the corpus's top
    ``max_rank`` word frequencies — the Zipf exponent (Zipf 1949;
    natural language slopes ~ -1), the one-number corpus-health
    readout that flags template spam (flat head, slope >> -1) and
    boilerplate floods (cliff head, slope << -1) that per-document
    quality scores cannot see.

    The scale insight IS the plan: the regression depends on the
    count HISTOGRAM alone, never on token identities — tokens sharing
    a count occupy a contiguous rank run and contribute identical
    ``ln(freq)``, so which token holds which rank inside a run cannot
    change the (x, y) pair multiset (the same argument that makes the
    twin's row_number assignment-free).  Stage 1 is the
    :func:`ngram_counts` vocabulary exchange (unigram counts); stage 2
    ships only (count, multiplicity) rows — O(distinct counts), ~
    sqrt(corpus) for Zipfian text; the driver fold walks rank runs
    intersected with [1, max_rank], so driver work is bounded by
    ``max_rank``, not vocabulary.

    Exactness: ``x = floor(ln(rank) * 1e6 + 0.5)`` and ``y =
    floor(ln(count) * 1e6 + 0.5)`` (the NB rule — ln of identical
    doubles), moments fold as Python bigints mirrored by HUGEINT, and
    slope/intercept are the identical single-cast float expressions
    both engines.  Fewer than 2 distinct x emit NULL slope.
    """
    import math

    import ray
    from ray.data.aggregate import Sum

    counts = (
        ds.map_batches(
            lambda b: ngram_count_rows(b, 1, text_col),
            batch_format="pyarrow",
        )
        .groupby("ngram")
        .aggregate(Sum("n", alias_name="n"))
    )

    def hist_partial(b: pa.Table) -> pa.Table:
        vc = b.column("n").value_counts()
        return pa.table(
            {
                "c": vc.field("values").cast(pa.int64()),
                "m": vc.field("counts").cast(pa.int64()),
            }
        )

    hist = (
        counts.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("c")
        .aggregate(Sum("m", alias_name="m"))
    )
    tabs = [t for t in ray.get(hist.materialize().to_arrow_refs()) if t.num_rows]
    empty = pa.table(
        {
            "n_ranks": pa.array([0], pa.int64()),
            "slope": pa.array([None], pa.float64()),
            "intercept": pa.array([None], pa.float64()),
        }
    )
    if not tabs:
        return empty
    t = pa.concat_tables(tabs)
    cs = t.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
    ms = t.column("m").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(-cs)
    cs, ms = cs[order], ms[order]
    n_r = 0
    sx = sy = sxy = sxx = 0
    start = 1
    for c, m in zip(cs, ms):
        a, b = start, start + int(m) - 1
        start += int(m)
        if a > max_rank:
            break
        b = min(b, max_rank)
        ranks = np.arange(a, b + 1, dtype=np.float64)
        x = np.floor(np.log(ranks) * 1e6 + 0.5).astype(np.int64)
        y = int(np.floor(math.log(float(c)) * 1e6 + 0.5))
        k = b - a + 1
        xs = int(x.sum())
        n_r += k
        sx += xs
        sy += k * y
        sxy += y * xs
        sxx += int((x * x).sum())
    den = n_r * sxx - sx * sx
    if n_r < 2 or den == 0:
        return pa.table(
            {
                "n_ranks": pa.array([n_r], pa.int64()),
                "slope": pa.array([None], pa.float64()),
                "intercept": pa.array([None], pa.float64()),
            }
        )
    slope = float(n_r * sxy - sx * sy) / float(den)
    intercept = (float(sy) - slope * float(sx)) / n_r
    return pa.table(
        {
            "n_ranks": pa.array([n_r], pa.int64()),
            "slope": pa.array([slope], pa.float64()),
            "intercept": pa.array([intercept], pa.float64()),
        }
    )


def zipf_fit_sql(src: str, max_rank: int = ZIPF_MAX_RANK) -> str:
    """DuckDB oracle for :func:`zipf_fit` — explicit ranks via
    row_number (assignment-free within tie runs because tied counts
    share y), the same quantized logs, the same HUGEINT moments and
    single-cast finishes."""
    return f"""
WITH toks AS (
    SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                     '{WORD_REGEX}')) AS tok
    FROM {src}
),
cnt AS (SELECT tok, CAST(count(*) AS BIGINT) AS c FROM toks GROUP BY tok),
ranked AS (
    SELECT c, row_number() OVER (ORDER BY c DESC, tok ASC) AS r FROM cnt
),
sel AS (
    SELECT CAST(floor(ln(CAST(r AS DOUBLE)) * 1000000.0 + 0.5)
                AS BIGINT) AS x,
           CAST(floor(ln(CAST(c AS DOUBLE)) * 1000000.0 + 0.5)
                AS BIGINT) AS y
    FROM ranked WHERE r <= {max_rank}
),
m AS (
    SELECT CAST(count(*) AS BIGINT) AS n,
           SUM(CAST(x AS HUGEINT)) AS sx, SUM(CAST(y AS HUGEINT)) AS sy,
           SUM(CAST(x AS HUGEINT) * y) AS sxy,
           SUM(CAST(x AS HUGEINT) * x) AS sxx
    FROM sel
),
s AS (
    SELECT n,
           CASE WHEN n >= 2
                 AND (CAST(n AS HUGEINT) * sxx - sx * sx) != 0
                THEN CAST(CAST(n AS HUGEINT) * sxy - sx * sy AS DOUBLE)
                     / CAST(CAST(n AS HUGEINT) * sxx - sx * sx AS DOUBLE)
           END AS slope,
           sx, sy
    FROM m
)
SELECT n AS n_ranks, slope,
       CASE WHEN slope IS NOT NULL
            THEN (CAST(sy AS DOUBLE) - slope * CAST(sx AS DOUBLE)) / n
       END AS intercept
FROM s
"""


def hapax_stats(ds, text_col: str = "text") -> pa.Table:
    """Hapax legomena statistics of the corpus vocabulary: how many
    word types occur exactly once (hapax), exactly twice (dis), and
    their share of the vocabulary — the lexical-growth readout (a
    healthy natural corpus runs ~40-60% hapax; deduplicated boilerplate
    collapses it, OCR noise inflates it) and Good-Turing smoothing's
    N1/N2 inputs.

    Plan: the :func:`zipf_fit` stages — the unigram vocabulary
    exchange, then a (count, multiplicity) histogram exchange of
    O(distinct counts) rows; the driver reads exactly three integers
    off it.  ``hapax_rate = float(hapax) / float(vocab)`` is one
    identical float division of exact int64s.
    """
    import ray
    from ray.data.aggregate import Sum

    counts = (
        ds.map_batches(
            lambda b: ngram_count_rows(b, 1, text_col),
            batch_format="pyarrow",
        )
        .groupby("ngram")
        .aggregate(Sum("n", alias_name="n"))
    )

    def hist_partial(b: pa.Table) -> pa.Table:
        vc = b.column("n").value_counts()
        return pa.table(
            {
                "c": vc.field("values").cast(pa.int64()),
                "m": vc.field("counts").cast(pa.int64()),
            }
        )

    hist = (
        counts.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("c")
        .aggregate(Sum("m", alias_name="m"))
    )
    tabs = [t for t in ray.get(hist.materialize().to_arrow_refs()) if t.num_rows]
    vocab = hapax = dis = 0
    if tabs:
        t = pa.concat_tables(tabs)
        for c, m in zip(
            t.column("c").to_numpy(zero_copy_only=False),
            t.column("m").to_numpy(zero_copy_only=False),
        ):
            vocab += int(m)
            if c == 1:
                hapax = int(m)
            elif c == 2:
                dis = int(m)
    rate = float(hapax) / float(vocab) if vocab else None
    return pa.table(
        {
            "vocab": pa.array([vocab], pa.int64()),
            "hapax": pa.array([hapax], pa.int64()),
            "dis": pa.array([dis], pa.int64()),
            "hapax_rate": pa.array([rate], pa.float64()),
        }
    )


def hapax_stats_sql(src: str) -> str:
    """DuckDB oracle for :func:`hapax_stats` — the same tokenizer,
    counts and single float division."""
    return f"""
WITH toks AS (
    SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                     '{WORD_REGEX}')) AS tok
    FROM {src}
),
cnt AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok)
SELECT CAST(count(*) AS BIGINT) AS vocab,
       CAST(count(*) FILTER (c = 1) AS BIGINT) AS hapax,
       CAST(count(*) FILTER (c = 2) AS BIGINT) AS dis,
       CASE WHEN count(*) > 0
            THEN CAST(count(*) FILTER (c = 1) AS DOUBLE)
                 / CAST(count(*) AS DOUBLE)
       END AS hapax_rate
FROM cnt
"""


# ---------------------------------------------------------------------------
# Vocabulary overlap between corpus slices (Jaccard matrix)
# ---------------------------------------------------------------------------

OVERLAP_MAX_SLICES = 64


def vocab_overlap(ds, slice_col: str = "lang",
                  text_col: str = "text") -> pa.Table:
    """Pairwise vocabulary Jaccard between corpus slices (languages,
    sources, snapshots) — the corpus-diff readout
    (:func:`corpus_js_divergence` compares two slices by token MASS;
    this compares every pair by token SETS: "how much vocabulary do
    the English and German slices actually share").  Output one row
    per slice pair (a < b) that shares at least one token: exact
    intersection and union sizes and their ratio.

    The plan is market-basket co-occurrence with the roles flipped:
    each TOKEN is a basket and the slices it appears in are the
    items.  In-map distinct (slice, token) partials, ONE
    ``groupby(token)`` exchange (the vocabulary exchange — the honest
    cost of exact set semantics), each token emits its slice-pair and
    diagonal rows (bounded by |slices|^2, with ``OVERLAP_MAX_SLICES``
    refused loudly — quadratic in SLICES, not tokens), and a final
    tiny (a, b) groupby sums.  Union falls out of the diagonal:
    ``|A u B| = |A| + |B| - inter`` — exact ints; ``jaccard =
    float(inter) / float(union)`` is one identical float division.
    """
    import ray
    import ray.data as rd  # noqa: F401
    from ray.data.aggregate import Sum

    from .dedup import _flat_word_tokens

    def partial(b: pa.Table) -> pa.Table:
        doc_idx, flat = _flat_word_tokens(b.column(text_col))
        sl = b.column(slice_col).take(pa.array(doc_idx))
        t = pa.table({"s": sl, "tok": flat})
        out = t.group_by(["s", "tok"]).aggregate([])
        return out

    def per_tok(g: pa.Table) -> pa.Table:
        sl = np.unique(np.asarray(g.column("s").to_pylist(), dtype=object))
        k = len(sl)
        if k > OVERLAP_MAX_SLICES:
            raise ValueError(
                f"vocab_overlap: {k} slices exceed "
                f"OVERLAP_MAX_SLICES={OVERLAP_MAX_SLICES}"
            )
        ii, jj = np.triu_indices(k, 1)
        a = np.concatenate([sl, sl[ii]])
        b = np.concatenate([sl, sl[jj]])
        return pa.table(
            {
                "a": pa.array(a, pa.string()),
                "b": pa.array(b, pa.string()),
                "n": pa.array(np.ones(len(a), np.int64), pa.int64()),
            }
        )

    def pair_partial(b: pa.Table) -> pa.Table:
        out = b.group_by(["a", "b"]).aggregate([("n", "sum")])
        return out.rename_columns(["a", "b", "n"])

    agg = (
        ds.select_columns([slice_col, text_col])
        .map_batches(
            lambda t: partial(t.replace_schema_metadata(None)),
            batch_format="pyarrow",
        )
        .groupby("tok")
        .map_groups(per_tok, batch_format="pyarrow")
        .map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Sum("n", alias_name="n"))
    )
    tabs = [t for t in ray.get(agg.materialize().to_arrow_refs()) if t.num_rows]
    empty = pa.table(
        {
            "slice_a": pa.array([], pa.string()),
            "slice_b": pa.array([], pa.string()),
            "inter": pa.array([], pa.int64()),
            "uni": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )
    if not tabs:
        return empty
    t = pa.concat_tables(tabs)
    sizes: dict = {}
    inters: dict = {}
    for a, b, n in zip(
        t.column("a").to_pylist(),
        t.column("b").to_pylist(),
        t.column("n").to_pylist(),
    ):
        if a == b:
            sizes[a] = int(n)
        else:
            inters[(a, b)] = int(n)
    rows = []
    for (a, b), i in sorted(inters.items()):
        u = sizes[a] + sizes[b] - i
        rows.append((a, b, i, u, float(i) / float(u)))
    if not rows:
        return empty
    return pa.table(
        {
            "slice_a": pa.array([r[0] for r in rows], pa.string()),
            "slice_b": pa.array([r[1] for r in rows], pa.string()),
            "inter": pa.array([r[2] for r in rows], pa.int64()),
            "uni": pa.array([r[3] for r in rows], pa.int64()),
            "jaccard": pa.array([r[4] for r in rows], pa.float64()),
        }
    )


def vocab_overlap_sql(src: str, slice_col: str = "lang") -> str:
    """DuckDB oracle for :func:`vocab_overlap` — the same tokenizer,
    the same a < b pair order, the same single float division."""
    return f"""
WITH tk AS (
    SELECT DISTINCT {slice_col} AS s,
           unnest(regexp_extract_all(lower(coalesce(text, '')),
                                     '{WORD_REGEX}')) AS tok
    FROM {src}
),
sz AS (SELECT s, CAST(count(*) AS BIGINT) AS n FROM tk GROUP BY s),
i AS (
    SELECT a.s AS sa, b.s AS sb, CAST(count(*) AS BIGINT) AS inter
    FROM tk a JOIN tk b ON a.tok = b.tok AND a.s < b.s
    GROUP BY 1, 2
)
SELECT i.sa AS slice_a, i.sb AS slice_b, i.inter,
       CAST(za.n + zb.n - i.inter AS BIGINT) AS uni,
       CAST(i.inter AS DOUBLE)
       / CAST(za.n + zb.n - i.inter AS DOUBLE) AS jaccard
FROM i JOIN sz za ON i.sa = za.s JOIN sz zb ON i.sb = zb.s
ORDER BY 1, 2
"""


def lang_confusion(ds, text_col: str = "text",
                   declared_col: str = "lang") -> pa.Table:
    """Declared-vs-detected language confusion matrix — the metadata
    QA readout ("how often does the upstream lang tag disagree with
    what the text looks like"): one row per (declared, detected) pair
    with the exact count.  Mislabeled-language rows are a classic
    silent training-data poison; the matrix's off-diagonal is the
    triage list.

    Composition: the :class:`LangId` actor stage (profiles built once
    per actor, RE2-vectorized scoring) followed by in-map (declared,
    detected) count partials and ONE groupby over the |langs|^2
    domain — nothing row-sized past the detector.  Exact integer
    counts; the detector itself is exactly mirrored by
    :func:`langid_sql`, so the composed twin is exact too.
    """
    import ray
    import ray.data as rd  # noqa: F401
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        scored = LangId()(b)
        t = pa.table(
            {
                "lang": scored.column(declared_col),
                "lang_pred": scored.column("lang_pred"),
            }
        )
        out = t.group_by(["lang", "lang_pred"]).aggregate([([], "count_all")])
        return out.rename_columns(["lang", "lang_pred", "n"])

    agg = (
        ds.map_batches(
            lambda t: partial(t.replace_schema_metadata(None)),
            batch_format="pyarrow",
        )
        .groupby(["lang", "lang_pred"])
        .aggregate(Sum("n", alias_name="n"))
    )
    tabs = [t for t in ray.get(agg.materialize().to_arrow_refs()) if t.num_rows]
    if not tabs:
        return pa.table(
            {
                "lang": pa.array([], pa.string()),
                "lang_pred": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
    t = pa.concat_tables(tabs).combine_chunks()
    return t.sort_by(
        [("lang", "ascending"), ("lang_pred", "ascending")]
    ).select(["lang", "lang_pred", "n"])


def lang_confusion_sql(src: str) -> str:
    """DuckDB oracle for :func:`lang_confusion` — the langid twin
    aggregated over the same pair domain."""
    return f"""
SELECT lang, lang_pred, CAST(count(*) AS BIGINT) AS n
FROM ({langid_sql(src)})
GROUP BY lang, lang_pred
ORDER BY lang, lang_pred
"""


# ---------------------------------------------------------------------------
# Compression-ratio quality signal (zlib compressibility)
# ---------------------------------------------------------------------------

COMPRESS_LEVEL = 6


def compress_ratio(ds, id_col: str = "doc_id",
                   text_col: str = "text"):
    """Per-document zlib compression ratio — the compressibility
    quality signal the big corpus pipelines run (boilerplate, keyword
    stuffing and template spam compress far below natural prose;
    random noise barely compresses at all): ``ratio_q =
    round(1e6 * compressed_bytes / raw_bytes)`` per doc, in ppm.

    DETERMINISTIC but not SQL-expressible (no zlib in the oracle
    engine): zlib with a FIXED level is a pure function of the bytes,
    so the output is exactly reproducible across runs, block layouts
    and machines (pinned by test) — the rows-only oracle class, like
    the IVF/PQ family.  Zero-shuffle map; per-doc ratio is one C
    call + integer arithmetic; empty docs emit NULL (no bytes, no
    ratio).
    """
    import zlib

    def score(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pylist()
        nb, rq = [], []
        for t in texts:
            raw = (t or "").encode("utf-8")
            if not raw:
                nb.append(0)
                rq.append(None)
                continue
            comp = zlib.compress(raw, COMPRESS_LEVEL)
            nb.append(len(raw))
            rq.append(int(len(comp) * 1_000_000 // len(raw)))
        return pa.table(
            {
                id_col: b.column(id_col),
                "n_bytes": pa.array(nb, pa.int64()),
                "ratio_q": pa.array(rq, pa.int64()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        lambda t: score(t.replace_schema_metadata(None)),
        batch_format="pyarrow",
    )
