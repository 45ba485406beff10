"""Test plugin: a custom protocols.Analyzer module — the default chain
WITHOUT the stopword filter (so 'the' becomes an indexed lemma)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from search_engine_ray import analyzer as base

ANALYZER_VERSION = "test-keep-stopwords-1"
# the token-level rules the engine's snippets and expansion surfaces read
# (protocols.Analyzer): the default module's, with no stopword filter
normalize_text = base.normalize_text
lemmatize_token = base.lemmatize_token
MIN_TOKEN_LEN = base.MIN_TOKEN_LEN
_STOPSET = frozenset()


def tokenize(text: str) -> list[str]:
    return [
        t for t in base.normalize_text(text).split()
        if len(t) >= base.MIN_TOKEN_LEN
    ]


def analyze(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for tok in tokenize(text):
        lemma = base.lemmatize_token(tok)
        counts[lemma] = counts.get(lemma, 0) + 1
    return counts


def analyze_query(text: str) -> list[str]:
    return sorted({base.lemmatize_token(t) for t in tokenize(text)})


def analyze_batch(texts, memo):
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    arr = pc.fill_null(texts, "")
    arr = pc.utf8_lower(arr)
    arr = pc.replace_substring_regex(arr, base.NON_WORD_REGEX, " ")
    toks = pc.split_pattern(arr, " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    keep = pc.greater_equal(pc.utf8_length(flat), base.MIN_TOKEN_LEN)
    keep_np = keep.to_numpy(zero_copy_only=False)
    doc_idx, flat = doc_idx[keep_np], flat.filter(keep)
    if len(doc_idx) == 0:
        return (np.empty(0, np.int64), np.empty(0, object),
                np.empty(0, np.int32), np.zeros(n, np.int32))
    import pandas as pd

    surf = flat.to_numpy(zero_copy_only=False)
    codes, uniques = pd.factorize(surf, sort=False)
    lem_u = base.lemmatize_unique(np.asarray(uniques, dtype=object), memo)
    lcodes_u, lem_uniques = pd.factorize(lem_u, sort=False)
    lemma_codes = lcodes_u[codes]
    nl = len(lem_uniques)
    key = doc_idx * np.int64(nl) + lemma_codes
    ukey, tf = np.unique(key, return_counts=True)
    return (
        ukey // nl,
        np.asarray(lem_uniques, dtype=object)[ukey % nl],
        tf.astype(np.int32),
        np.bincount(doc_idx, minlength=n).astype(np.int32),
    )
