"""Snippet creation + highlighting — post-top-k presentation stage.

Reference analog: ``SnippetCreator.createSnippet``
(``/root/reference/src/main/java/searchengine/services/search/SnippetCreator.java:22-102``):
re-analyze the document text, wrap every surface form whose lemma is in
the query in ``<b></b>`` (``formatWordIfIsInQuery``, :40-58), pick the
window with the most bold words (``findStartIndexInText``, :84-102), cut
to 240 chars keeping tags balanced (``cutSnippet``, :61-82; length
constant :19). Runs over ≤k result rows only — plain Python is fine
here (never a cluster hop), exactly like the reference's per-result loop
(``SearchServiceImpl.java:117-133``).
"""

from __future__ import annotations

import re

from .. import analyzer
from ..config import SNIPPET_LEN

_WORD_RE = re.compile(r"[A-Za-z0-9]+")


def highlight(
    text: str,
    query_lemmas: set[str],
    lemmatize=analyzer.lemmatize_token,
    stopset=analyzer._STOPSET,
    min_len: int = analyzer.MIN_TOKEN_LEN,
) -> str:
    """Wrap every word whose lemma is in ``query_lemmas`` in <b></b>
    (the reference's collectLemmasAndWords + formatWordIfIsInQuery,
    ``LemmaFinderImpl.java:61-84``, ``SnippetCreator.java:40-58``).
    ``lemmatize``/``stopset``/``min_len`` are the index analyzer's
    token rules (the default module's unless given)."""

    def repl(m: re.Match) -> str:
        w = m.group(0)
        tok = w.lower()
        if len(tok) >= min_len and tok not in stopset:
            if lemmatize(tok) in query_lemmas:
                return f"<b>{w}</b>"
        return w

    return _WORD_RE.sub(repl, text)


def _clean(text: str) -> str:
    """M8: collapse whitespace/newlines (no HTML in transcripts, so the
    tag-stripping half of ``SearchServiceImpl.java:125-129`` is a no-op)."""
    return re.sub(r"\s+", " ", text or "").strip()


def create_snippets(
    text: str, query_lemmas: set[str], max_len: int = SNIPPET_LEN, **rules
) -> str:
    """Best-window snippet of ``max_len`` chars with balanced <b> tags;
    ``rules`` are :func:`highlight`'s token rules."""
    marked = highlight(_clean(text), query_lemmas, **rules)
    if len(marked) <= max_len:
        return marked
    # find the window of max_len raw chars containing the most <b> openings
    positions = [m.start() for m in re.finditer("<b>", marked)]
    if not positions:
        return marked[:max_len]
    best_start, best_n = 0, -1
    for p in positions:
        # window starting at the sentence-ish boundary before p
        start = marked.rfind(" ", 0, max(0, p - 40)) + 1
        n = sum(1 for q in positions if start <= q < start + max_len)
        if n > best_n:
            best_start, best_n = start, n
    snip = marked[best_start : best_start + max_len]
    # keep tags balanced (reference cutSnippet semantics)
    if snip.count("<b>") > snip.count("</b>"):
        last = snip.rfind("<b>")
        snip = snip[:last].rstrip()
    snip = re.sub(r"^[^<A-Za-z0-9]+", "", snip)
    return snip


def highlight_full(text: str, query_lemmas: set[str], **rules) -> str:
    """ES ``highlight`` with ``number_of_fragments: 0``: the WHOLE
    cleaned field highlighted — no best-window cut, so the output is a
    pure per-word function (clean, then wrap every query-lemma word)
    and SQL-twin-able exactly (the window cut in
    :func:`create_snippets` is presentation-layer, pytest-pinned);
    ``rules`` are :func:`highlight`'s token rules."""
    return highlight(_clean(text), query_lemmas, **rules)
