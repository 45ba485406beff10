"""Deterministic text analyzer shared by the engine, the DuckDB oracle and tests.

This is the analog of the reference's morphology service
(``/root/reference/src/main/java/searchengine/services/morphology/LemmaFinderImpl.java``):

- ``LemmaFinderImpl.arrayContainsRussianWords`` (:111-118): lowercase,
  charset fold (every char outside the word charset -> space), whitespace
  split.  Here the charset is ``[a-z0-9]`` (transcript text is mostly
  English/ASCII; anything else folds to a separator on BOTH the engine and
  the SQL-oracle side, so parity holds).
- ``LemmaFinderImpl.isWrongWord/hasParticleProperty`` (:92-109): the
  particle filter becomes a frozen stopword list + a min-token-length rule.
- ``LemmaFinderImpl.collectLemmas`` (:19-39): first-normal-form
  lemmatization becomes a deterministic ordered suffix-rule list
  (first-match-wins, no iteration) so the exact same transform is
  expressible as a DuckDB ``CASE`` expression (``lemma_case_sql``) — the
  correctness gate compares the Ray pipeline against SQL generated from the
  *same rule data*, so the two can never drift.

Everything here is pure (no Ray imports) and cheap to import on workers.
The vectorized batch path (``flatten_tokens`` + ``lemmatize_unique``) is
used by the actor-pool stage in ``stages/analyze.py``; the scalar path
(``analyze``) is used for queries and golden tests (the analog of the
reference's ``getLemmaSet``, LemmaFinderImpl.java:42-58).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .state.columns import to_arrow

# Bump whenever tokenization/lemmatization semantics change: baked into
# partition manifests so a resumed build never mixes analyzer versions.
# 2: analyze_batch additionally emits per-posting token positions
#    (0-based index into the doc's SURVIVING token sequence) — the
#    physical basis of phrase queries.
ANALYZER_VERSION = "2"

# Module-level capability flag checked by the build (protocols.Analyzer):
# a pluggable analyzer without positions still builds a valid index, just
# with phrase queries disabled for it.
HAS_POSITIONS = True

# Word charset: chars outside this fold to a separator (reference charset
# was [а-я], LemmaFinderImpl.java:115; generalized for transcript text).
NON_WORD_REGEX = r"[^a-z0-9]+"

MIN_TOKEN_LEN = 2

# Frozen stop list — the analog of the reference's particle-tag drop
# (МЕЖД/ПРЕДЛ/СОЮЗ, LemmaFinderImpl.java:13,92-109). Deterministic and
# shipped with the package; shared verbatim with the SQL oracle.
STOPWORDS: tuple[str, ...] = (
    "the", "a", "an", "and", "or", "of", "to", "in", "is", "it", "that",
    "this", "with", "for", "as", "on", "at", "by", "be", "are", "was",
    "were", "from", "not", "but", "have", "has", "had", "you", "he", "she",
    "we", "they", "do", "does", "did", "will", "would", "can", "could",
    "into", "if", "then", "than", "so", "no", "its", "their", "them",
    "his", "her", "our", "us", "me", "my", "your",
)
_STOPSET = frozenset(STOPWORDS)

# Ordered first-match-wins suffix rules: (suffix, replacement,
# min_stem_len, excluded_token_endings). A token matches a rule iff it
# ends with `suffix`, len(token) >= min_stem_len + len(suffix), and does
# not end with any excluded ending; the FIRST matching rule applies and
# no further rules are tried. This mirrors the reference's
# "first normal form" determinism (getNormalForms(word).get(0),
# LemmaFinderImpl.java:26-31) with a rule table instead of a dictionary.
LEMMA_RULES: tuple[tuple[str, str, int, tuple[str, ...]], ...] = (
    ("ies", "y", 2, ()),
    ("ing", "", 4, ()),
    ("ed", "", 4, ()),
    ("es", "", 3, ()),
    ("s", "", 3, ("ss", "us", "is")),
)


# ---------------------------------------------------------------------------
# Scalar path (queries, golden tests, snippets)
# ---------------------------------------------------------------------------

def normalize_text(text: str) -> str:
    """Lowercase + fold every non-[a-z0-9] char to a space."""
    import re

    return re.sub(NON_WORD_REGEX, " ", text.lower())


def tokenize(text: str) -> list[str]:
    """Charset-fold + split + min-length + stopword filter (no lemmatize)."""
    out = []
    for tok in normalize_text(text).split():
        if len(tok) >= MIN_TOKEN_LEN and tok not in _STOPSET:
            out.append(tok)
    return out


def lemmatize_token(tok: str) -> str:
    for suffix, repl, min_stem, excluded in LEMMA_RULES:
        if (
            tok.endswith(suffix)
            and len(tok) >= min_stem + len(suffix)
            and not any(tok.endswith(e) for e in excluded)
        ):
            return tok[: len(tok) - len(suffix)] + repl
    return tok


WILDCARD_MIN_LITERALS = 2


def wildcard_parse(pattern: str) -> tuple[str, str] | None:
    """Parse a Lucene-style wildcard term pattern (``*`` = any run of
    chars, ``?`` = exactly one char) into ``(re2_regex, literal_prefix)``.
    Literal characters pass through the same charset fold as
    ``normalize_text`` (lowercase; anything outside ``[a-z0-9]`` other
    than the two wildcard metachars folds to a token break) so
    ``Run-*`` matches the same vocabulary as a query for ``run``
    would reach. Only the first folded token is used (a term-level
    operator, like prefix). The regex is UNANCHORED — callers anchor
    for full-term matching (the engine wraps ``^(?:...)$``, the SQL
    twin uses DuckDB ``regexp_full_match``; both are RE2, so the
    semantics are identical by construction). ``literal_prefix`` is
    the run of literal chars before the first metachar — the
    lemma-sorted dictionary range prune, empty for a leading
    wildcard. Returns None when no token survives the fold or fewer
    than ``WILDCARD_MIN_LITERALS`` literal chars remain (the
    ``a*``-style full-vocabulary scans Lucene's MIN_PREFIX guards
    against)."""
    import re

    # NON_WORD_REGEX with the wildcard metachars carved out of the fold
    folded = re.sub(r"[^a-z0-9*?]+", " ", (pattern or "").lower())
    toks = folded.split()
    if not toks:
        return None
    tok = toks[0]
    if sum(1 for c in tok if c not in "*?") < WILDCARD_MIN_LITERALS:
        return None
    # literal chars are [a-z0-9] by construction: no escaping needed
    rx = "".join(".*" if c == "*" else "." if c == "?" else c for c in tok)
    i = 0
    while i < len(tok) and tok[i] not in "*?":
        i += 1
    return rx, tok[:i]


REGEXP_ALLOWED = frozenset("abcdefghijklmnopqrstuvwxyz0123456789"
                           ".*+?()[]{}|^$-,\\")


def regexp_parse(pattern: str) -> tuple[str, str] | None:
    """Parse a Lucene-RegexpQuery-style term pattern into
    ``(re2_regex, literal_prefix)``. The pattern matches the WHOLE
    lemma (callers anchor: the engine wraps ``^(?:...)$``, the SQL
    twin uses DuckDB ``regexp_full_match`` — both RE2, so semantics
    are identical by construction, the same argument as
    ``wildcard_parse``). The pattern is lowercased (the analyzer's
    charset fold); beyond that it is used verbatim, restricted to a
    conservative charset both RE2 deployments treat identically
    (letters/digits + ``. * + ? ( ) [ ] { } | ^ $ - , \\``) — anything
    else (whitespace, unicode, ``/`` delimiters) rejects rather than
    silently folding, because a regexp is syntax, not text.
    ``literal_prefix`` is the leading run of plain ``[a-z0-9]`` chars
    not modified by a following quantifier — the lemma-sorted
    dictionary range prune (empty when the pattern starts with
    syntax, or holds a ``|``, which may alternate the whole pattern:
    ``ab|cd`` matches ``cd``). Returns None (the engine's
    ``bad_pattern``) when the charset check or the RE2 compile fails,
    or when the pattern is empty. Lucene's ``a*``-style full-dictionary scans are allowed —
    the scan is bounded by the dictionary, never the corpus — matching
    RegexpQuery, which has no MIN_PREFIX guard."""
    p = (pattern or "").lower()
    if not p or any(c not in REGEXP_ALLOWED for c in p):
        return None
    try:
        # the authoritative RE2 compile check: the exact kernel the
        # engine's expansion scan uses (a non-empty probe array —
        # the kernel skips compilation entirely on empty input)
        pc.match_substring_regex(to_arrow(["x"], pa.string()), "^(?:" + p + ")$")
    except Exception:
        return None
    i = 0
    while i < len(p) and (p[i].isalnum() and p[i].isascii()):
        # a literal is prefix-safe only if the NEXT char doesn't
        # quantify it (`ab*` must prune on 'a', not 'ab')
        if i + 1 < len(p) and p[i + 1] in "*+?{":
            break
        i += 1
    return p, ("" if "|" in p else p[:i])


def analyze(text: str) -> dict[str, int]:
    """Per-document lemma -> tf map (reference ``collectLemmas``)."""
    counts: dict[str, int] = {}
    for tok in tokenize(text):
        lemma = lemmatize_token(tok)
        counts[lemma] = counts.get(lemma, 0) + 1
    return counts


def analyze_query(text: str) -> list[str]:
    """Deduped query lemmas (reference ``getLemmaSet``), sorted for
    determinism; query planning re-sorts df-ascending."""
    return sorted({lemmatize_token(t) for t in tokenize(text)})


def analyze_phrase(text: str) -> list[str]:
    """ORDERED lemma sequence (duplicates kept) for phrase queries: the
    phrase matches a document iff these lemmas appear at consecutive
    positions of its surviving-token sequence. Stopwords/short tokens
    are dropped from the phrase exactly as they are from documents, so
    "the red fox" matches any doc where lemma 'red' directly precedes
    lemma 'fox' — the documented (and oracle-shared) semantics."""
    return [lemmatize_token(t) for t in tokenize(text)]


def lemma_hash64(lemma: str) -> int:
    """Stable 63-bit lemma hash (md5 prefix) — the integer primary sort
    key of the physical index. Sorting postings by (lemma_h, docid)
    instead of (lemma:string, docid) makes the stage-C range exchange an
    integer sort (~6x faster at 40M rows); a rare 63-bit collision only
    fragments two lemmas' posting runs into interleaved (still
    docid-ascending, still disjoint) block rows, which query-time readers
    already merge by first_docid. Also the query-side row-group pruning
    key: index files are lemma_h-clustered, so parquet min/max stats on
    lemma_h give point lookups."""
    import hashlib

    return int.from_bytes(hashlib.md5(lemma.encode()).digest()[:8], "little") & (
        (1 << 63) - 1
    )


# ---------------------------------------------------------------------------
# Vectorized batch path (used by the actor-pool map_batches stage)
# ---------------------------------------------------------------------------

def flatten_tokens(texts: pa.Array | pa.ChunkedArray):
    """Vectorized tokenize over an Arrow string column.

    Returns ``(doc_idx: np.int64[nt], tokens: pa.StringArray[nt])`` where
    ``doc_idx`` maps each surviving token to its row in ``texts``. All
    string work is pyarrow.compute kernels (zero-copy from the object
    store); no per-row Python.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    arr = pc.fill_null(texts, "")
    arr = pc.utf8_lower(arr)
    arr = pc.replace_substring_regex(arr, NON_WORD_REGEX, " ")
    toks = pc.split_pattern(arr, " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    keep = pc.and_(
        pc.greater_equal(pc.utf8_length(flat), MIN_TOKEN_LEN),
        pc.invert(pc.is_in(flat, value_set=pa.array(STOPWORDS))),
    )
    keep_np = keep.to_numpy(zero_copy_only=False)
    return doc_idx[keep_np], flat.filter(keep)


def lemmatize_unique(tokens: np.ndarray, memo: dict[str, str]) -> np.ndarray:
    """Lemmatize an array of *unique* surface forms, memoized across
    batches (the memo lives in the analyzer actor, loaded-once state)."""
    out = np.empty(len(tokens), dtype=object)
    get = memo.get
    for i, tok in enumerate(tokens):
        lemma = get(tok)
        if lemma is None:
            lemma = lemmatize_token(tok)
            memo[tok] = lemma
        out[i] = lemma
    return out


def analyze_batch(texts: pa.Array | pa.ChunkedArray, memo: dict[str, str]):
    """Vectorized ``collectLemmas`` over a batch of documents.

    Returns ``(post_doc_idx, post_lemmas, post_tf, doc_len, pos_deltas)``:
    - ``post_doc_idx: int64[np]`` — row index into the batch per posting;
    - ``post_lemmas: object[np]`` — lemma string per posting;
    - ``post_tf: int32[np]`` — term frequency within the document;
    - ``doc_len: int32[n]`` — surviving-token count per document (0 for
      empty/whitespace-only text — those docs emit no postings);
    - ``pos_deltas: uint64[Σtf]`` — per-posting token positions (0-based
      index into the doc's surviving-token sequence), delta-encoded
      WITHIN each posting (first value absolute), concatenated in
      posting order — ``post_tf`` gives the per-posting value counts.
      The physical basis of phrase queries.

    The heavy lifting is arrow kernels + np.unique on integer codes; the
    only Python loop is over *unique* surface forms (memoized), which is
    tiny relative to token count.
    """
    import pandas as pd

    n = len(texts)
    doc_idx, flat = flatten_tokens(texts)
    nt = len(doc_idx)
    if nt == 0:
        return (
            np.empty(0, np.int64),
            np.empty(0, object),
            np.empty(0, np.int32),
            np.zeros(n, np.int32),
            np.empty(0, np.uint64),
        )
    surf = flat.to_numpy(zero_copy_only=False)
    codes, uniques = pd.factorize(surf, sort=False)
    lemma_of_unique = lemmatize_unique(np.asarray(uniques, dtype=object), memo)
    lcodes_u, lemma_uniques = pd.factorize(lemma_of_unique, sort=False)
    lemma_codes = lcodes_u[codes]
    nl = len(lemma_uniques)
    key = doc_idx * np.int64(nl) + lemma_codes
    ukey, tf = np.unique(key, return_counts=True)
    post_doc_idx = ukey // nl
    post_lemmas = np.asarray(lemma_uniques, dtype=object)[ukey % nl]
    doc_len = np.bincount(doc_idx, minlength=n).astype(np.int32)

    # positions: doc_idx is nondecreasing (flatten preserves row order),
    # so token position within its doc = index minus the doc's run start.
    run_starts = np.flatnonzero(
        np.concatenate(([True], doc_idx[1:] != doc_idx[:-1]))
    )
    run_lens = np.diff(np.concatenate((run_starts, [nt])))
    tok_pos = np.arange(nt, dtype=np.int64) - np.repeat(run_starts, run_lens)
    # stable sort by posting key groups each posting's positions in
    # ascending order; np.unique's sorted ukey order matches exactly.
    order = np.argsort(key, kind="stable")
    pos_sorted = tok_pos[order]
    pos_deltas = pos_sorted.astype(np.uint64)
    pos_deltas[1:] -= pos_sorted[:-1].astype(np.uint64)
    post_starts = np.concatenate(([0], np.cumsum(tf)))[:-1]
    pos_deltas[post_starts] = pos_sorted[post_starts]

    return post_doc_idx, post_lemmas, tf.astype(np.int32), doc_len, pos_deltas


# ---------------------------------------------------------------------------
# SQL oracle generation — SQL is generated from the SAME rule tables above
# ---------------------------------------------------------------------------

def _sql_quote(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def lemma_case_sql(col: str) -> str:
    """DuckDB CASE expression equivalent to ``lemmatize_token``."""
    whens = []
    for suffix, repl, min_stem, excluded in LEMMA_RULES:
        conds = [
            f"{col} LIKE {_sql_quote('%' + suffix)}",
            f"length({col}) >= {min_stem + len(suffix)}",
        ]
        for e in excluded:
            conds.append(f"{col} NOT LIKE {_sql_quote('%' + e)}")
        expr = f"substr({col}, 1, length({col}) - {len(suffix)})"
        if repl:
            expr = f"{expr} || {_sql_quote(repl)}"
        whens.append(f"WHEN {' AND '.join(conds)} THEN {expr}")
    return "CASE " + " ".join(whens) + f" ELSE {col} END"


def stopword_sql_list() -> str:
    return ", ".join(_sql_quote(w) for w in STOPWORDS)


def postings_ctes_sql(source_rel: str, key_cols: tuple[str, ...] = ("conv_id", "turn_idx")) -> str:
    """CTE chain ``__toks -> __lem -> __postings`` over ``source_rel``.

    ``__postings`` has columns ``(lemma, *key_cols, tf)`` and is the exact
    SQL mirror of the engine's flat-postings output; tf is INT32 to match
    the engine schema.
    """
    keys = ", ".join(key_cols)
    return f"""
__toks AS (
    SELECT {keys},
           unnest(string_split(trim(regexp_replace(lower(coalesce(text, '')),
                  '{NON_WORD_REGEX}', ' ', 'g')), ' ')) AS tok
    FROM {source_rel}
),
__lem AS (
    SELECT {keys}, {lemma_case_sql('tok')} AS lemma
    FROM __toks
    WHERE length(tok) >= {MIN_TOKEN_LEN} AND tok NOT IN ({stopword_sql_list()})
),
__postings AS (
    SELECT lemma, {keys}, CAST(count(*) AS INT) AS tf
    FROM __lem GROUP BY ALL
)"""
