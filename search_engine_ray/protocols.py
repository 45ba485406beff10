"""Formal user-extension surface (SURVEY.md §2.10).

The reference exposes plain Java interfaces as its extension points —
``LemmaFinder`` (``/root/reference/src/main/java/searchengine/services/
morphology/LemmaFinder.java:6-10``), ``SearchService``
(``services/search/SearchService.java:5-15``) — wired by Spring. Here the
same two seams are explicit:

1. **Analyzer** — a module implementing this protocol can replace the
   built-in analyzer for a build: pass its import path as
   ``BuildConfig.extra["analyzer_module"]``. The analyzer actors import
   it once per worker process, its ``ANALYZER_VERSION`` is baked into
   every partition's lineage key (a resumed build never mixes analyzer
   versions), and the build manifest records the module path so
   ``SearchEngine`` analyzes queries with the SAME module —
   rank-identity holds for any analyzer as long as engine and oracle
   share it.

2. **Scorer** — ``search.register_scorer(name)`` registers a ranking
   strategy callable; ``SearchEngine.search(mode=name)`` dispatches to
   it. The built-in modes (``search.MODES``) are fixed; custom scorers
   receive the engine instance (posting reads, corpus stats) and own
   their semantics. A scorer reads postings the way the built-in ones
   do: ``engine._term_blocks(lemmas)`` -> lemma -> block entry, then
   ``engine._decoded(entry, lo=0, hi=None, streams=search.STREAMS)``
   -> the named streams (any of ``"docid"``, ``"tf"``, ``"dl"``,
   ``"scope"``, in the order asked) of blocks ``lo``..``hi``, default the whole term.
   Both read through the engine's one byte-bounded, locked cache, so a
   scorer may run on concurrent server threads; ``streams=("docid",)``
   skips the tf/dl decode for counting. A built-in mode hands its FULL match
   set to ``search``'s one filter tail, so every doc-level filter
   (``exclude``, ``ts_min``/``ts_max``, ``collapse``, ``order_by``,
   ``search_after``, ``decay``, ``negative``) composes with it; a scorer
   returns only its top-k, so ``search`` refuses those filters for it
   (``bad_filter_mode``) rather than apply them to k docs.

Everything else is plain Ray Data — users splice their own
``map_batches`` stages before/after any pipeline stage.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np
import pyarrow as pa


@runtime_checkable
class Analyzer(Protocol):
    """Structural contract for a pluggable analyzer MODULE (the default
    implementation is :mod:`search_engine_ray.analyzer`; modules satisfy
    this protocol with plain top-level functions)."""

    #: bumped whenever tokenization/lemmatization semantics change —
    #: part of every stage-A partition's lineage key
    ANALYZER_VERSION: str
    #: the token rules ``SearchEngine`` reads from the bound module for
    #: highlighting and its expansion surfaces (suggest, prefix,
    #: wildcard, fuzzy, analyze): dropped stopwords and the shortest
    #: kept token. An engine over an index built with a module that
    #: lacks any of these four names refuses it with a TypeError.
    _STOPSET: frozenset[str]
    MIN_TOKEN_LEN: int

    def normalize_text(self, text: str) -> str:
        """Case/character folding applied before tokenization."""
        ...

    def lemmatize_token(self, tok: str) -> str:
        """One normalized token's lemma."""
        ...

    def analyze_batch(
        self, texts: pa.Array | pa.ChunkedArray, memo: dict[str, str]
    ) -> tuple[np.ndarray, ...]:
        """Vectorized per-batch analysis: ``(post_doc_idx, post_lemmas,
        post_tf, doc_len[, pos_deltas])`` — see ``analyzer.analyze_batch``.
        The optional 5th element (per-posting delta-encoded token
        positions, tf values per posting) enables phrase queries; a
        module that emits it should set ``HAS_POSITIONS = True`` at
        module level. A 4-tuple analyzer still builds a valid
        (phrase-disabled) index."""
        ...

    def analyze_query(self, text: str) -> list[str]:
        """Deduped, deterministically ordered query lemmas."""
        ...

    def analyze(self, text: str) -> dict[str, int]:
        """Scalar per-document lemma -> tf map (golden tests, deltas)."""
        ...


class Scorer(Protocol):
    """Ranking-strategy callable registered via
    ``search.register_scorer``: ``(engine, terms, k, scope, conjunctive)
    -> (docids desc-by-score, float64 scores, exact count)`` — the top-k
    of the plan's (lemma, df) ``terms`` within ``scope``. ``search``
    pages and enriches the result; it takes no doc-level filter."""

    def __call__(
        self,
        engine,
        terms: list[tuple[str, int]],
        k: int,
        scope: str | None,
        conjunctive: bool,
    ) -> tuple[np.ndarray, np.ndarray, int]: ...
