"""DuckDB oracle SQL generators.

Every SQL string here is generated from the SAME rule tables the engine
executes (``analyzer.LEMMA_RULES``/``STOPWORDS`` via
``analyzer.postings_ctes_sql``) and the same BM25 constants, so the Ray
pipeline and the SQL oracle cannot drift — the correctness strategy
SURVEY.md §5 describes. Used by ``__ray_entry__.oracle_sql()`` (the
driver's correctness gate) and by the pytest suite.
"""

from __future__ import annotations

from . import analyzer, datagen


def transcripts_rel(sf_tag: str) -> str:
    d = datagen.transcripts_dir(sf_tag)
    return f"read_parquet('{d}/*.parquet')"


def flat_postings_sql(src: str) -> str:
    return (
        f"WITH {analyzer.postings_ctes_sql(src)} "
        "SELECT lemma, conv_id, turn_idx, tf FROM __postings"
    )


def lemma_dict_sql(src: str) -> str:
    return (
        f"WITH {analyzer.postings_ctes_sql(src)} "
        "SELECT lemma, CAST(count(*) AS BIGINT) AS df, "
        "CAST(sum(tf) AS BIGINT) AS cf, CAST(max(tf) AS INT) AS max_tf "
        "FROM __postings GROUP BY lemma"
    )


def doc_stats_sql(src: str) -> str:
    return (
        f"WITH {analyzer.postings_ctes_sql(src)} "
        "SELECT t.conv_id, t.turn_idx, CAST(count(p.lemma) AS INT) AS doc_len "
        f"FROM {src} t LEFT JOIN __lem p "
        "ON t.conv_id = p.conv_id AND t.turn_idx = p.turn_idx "
        "GROUP BY t.conv_id, t.turn_idx"
    )


def corpus_stats_sql(src: str) -> str:
    return (
        f"WITH {analyzer.postings_ctes_sql(src)} "
        f"SELECT CAST((SELECT count(*) FROM {src}) AS BIGINT) AS n_docs, "
        f"CAST((SELECT count(DISTINCT conv_id) FROM {src}) AS BIGINT) AS n_convs, "
        "CAST((SELECT count(*) FROM __lem) AS BIGINT) AS total_len, "
        "CAST((SELECT count(DISTINCT lemma) FROM __postings) AS BIGINT) AS n_lemmas, "
        "CAST((SELECT count(*) FROM __postings) AS BIGINT) AS n_postings, "
        f"round((SELECT count(*) FROM __lem) * 1.0 / (SELECT count(*) FROM {src}), 9) AS avgdl"
    )


def role_stats_sql(src: str) -> str:
    return f"SELECT role, CAST(count(*) AS BIGINT) AS n_docs FROM {src} GROUP BY role"


def transcripts_roundtrip_sql(src: str) -> str:
    """Per-row invariant oracle: the corpus itself under stable order."""
    return f"SELECT conv_id, turn_idx, role, text, tool, ts FROM {src}"


def _queries_values(queries: list[dict]) -> tuple[str, str]:
    """-> (qmeta VALUES rel, qlemma VALUES rel) with lemmas pre-analyzed
    by the shared analyzer module (the oracle side of M5 — query
    analysis itself is pinned by the golden analyzer tests)."""
    metas, lems = [], []
    for q in queries:
        lemmas = analyzer.analyze_query(q["query_text"])
        scope = "NULL" if q["scope"] is None else f"'{q['scope']}'"
        metas.append(
            f"('{q['query_id']}', {scope}, {q['k']}, {len(lemmas)})"
        )
        for lem in lemmas:
            lems.append(f"('{q['query_id']}', '{lem}')")
    qmeta = "(VALUES " + ", ".join(metas) + ") qm(query_id, scope, k, n_terms)"
    qlem = (
        "(VALUES " + ", ".join(lems) + ") ql(query_id, lemma)"
        if lems
        else "(SELECT NULL AS query_id, NULL AS lemma WHERE 1=0) ql"
    )
    return qmeta, qlem


def bm25_topk_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """Per-query BM25 top-k with the engine's exact semantics: any
    missing lemma -> query yields no rows; scope filter on role;
    deterministic tie-break (score DESC, conv_id, turn_idx); score
    rounded to 6 dp (float64 summation order in SQL is unspecified, so
    the hash-compared column is the rounded value; full-precision
    rank-identity is pinned by the pytest oracle instead)."""
    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def bm25_topk_highlight_sql(src: str, queries: list[dict],
                            k1: float = 1.2, b: float = 0.75) -> str:
    """:func:`bm25_topk_sql` + a ``highlighted`` column per hit — the
    ES ``highlight`` (``number_of_fragments: 0``) twin: the hit's text
    cleaned (``\\s+`` collapsed to one space, trimmed — both engines
    RE2-class ASCII whitespace; the synthetic corpus carries no unicode
    whitespace), then EVERY maximal ``[A-Za-z0-9]+`` word run whose
    lowercased form is >= MIN_TOKEN_LEN chars, not a stopword, and
    lemmatizes into the query's analyzed lemma set is wrapped in
    ``<b></b>``.  Reconstruction is the exact word/separator
    interleave: ``regexp_extract_all`` gives the word runs,
    ``str_split_regex`` by the same pattern gives the n+1 separators,
    and an ordered ``string_agg`` re-zips them — byte-lossless for
    arbitrary text, so the compared column is the engine's
    ``highlight_full`` output verbatim."""
    from .analyzer import MIN_TOKEN_LEN, lemma_case_sql, stopword_sql_list

    base = bm25_topk_sql(src, queries, k1=k1, b=b)
    _, qlem_rel = _queries_values(queries)
    wr = "[A-Za-z0-9]+"
    return f"""
WITH hits AS ({base}),
qlem AS (SELECT * FROM {qlem_rel}),
htext AS (
    SELECT h.query_id, h.rank, h.conv_id, h.turn_idx, h.score,
           trim(regexp_replace(coalesce(s.text, ''), '\\s+', ' ', 'g')) AS ct
    FROM hits h JOIN {src} s
      ON s.conv_id = h.conv_id AND s.turn_idx = h.turn_idx
),
hwords AS (
    SELECT query_id, conv_id, turn_idx,
           unnest(regexp_extract_all(ct, '{wr}')) AS w,
           generate_subscripts(regexp_extract_all(ct, '{wr}'), 1) AS j
    FROM htext
),
hseps AS (
    SELECT query_id, conv_id, turn_idx,
           unnest(str_split_regex(ct, '{wr}')) AS s,
           generate_subscripts(str_split_regex(ct, '{wr}'), 1) AS j
    FROM htext
),
pieces AS (
    SELECT query_id, conv_id, turn_idx, 2 * j - 1 AS ord, s AS piece
    FROM hseps
    UNION ALL
    SELECT hw.query_id, hw.conv_id, hw.turn_idx, 2 * hw.j AS ord,
           CASE WHEN length(lower(hw.w)) >= {MIN_TOKEN_LEN}
                 AND lower(hw.w) NOT IN ({stopword_sql_list()})
                 AND EXISTS (
                     SELECT 1 FROM qlem ql
                     WHERE ql.query_id = hw.query_id
                       AND ql.lemma = {lemma_case_sql('lower(hw.w)')}
                 )
                THEN '<b>' || hw.w || '</b>' ELSE hw.w END AS piece
    FROM hwords hw
),
assembled AS (
    SELECT query_id, conv_id, turn_idx,
           string_agg(piece, '' ORDER BY ord) AS highlighted
    FROM pieces GROUP BY 1, 2, 3
)
SELECT t.query_id, t.rank, t.conv_id, t.turn_idx, t.score,
       coalesce(a.highlighted, '') AS highlighted
FROM htext t
LEFT JOIN assembled a
  ON a.query_id = t.query_id AND a.conv_id = t.conv_id
 AND a.turn_idx = t.turn_idx
"""


def dis_max_topk_sql(src: str, probes: list[dict],
                     k1: float = 1.2, b: float = 0.75) -> str:
    """Disjunction-max twin (Lucene DisjunctionMaxQuery / ES
    ``dis_max``): per (probe, sub) the standard BM25 skeleton with the
    PER-SUB missing-lemma gate (a sub with any absent lemma matches
    nothing; the others still contribute), combined per doc as
    ``max(s) + tie_breaker * (sum(s) - max(s))`` over the union of the
    sub matching sets. ``tie_breaker`` is inlined repr-round-tripped
    (the decay-constant rule); the compared score column is round-6
    (SQL SUM order across subs is unspecified — the boosted 6-dp
    protocol)."""
    metas, subs, lems = [], [], []
    for p in probes:
        pid = p["query_id"]
        scope = "NULL" if p["scope"] is None else analyzer._sql_quote(p["scope"])
        tb = float(p["tie_breaker"])
        metas.append(
            f"({analyzer._sql_quote(pid)}, {scope}, {p['k']}, {tb!r})"
        )
        for si, qt in enumerate(p["queries"]):
            lemmas = analyzer.analyze_query(qt or "")
            subs.append(f"({analyzer._sql_quote(pid)}, {si}, {len(lemmas)})")
            for lem in lemmas:
                lems.append(
                    f"({analyzer._sql_quote(pid)}, {si}, {analyzer._sql_quote(lem)})"
                )
    if not metas or not lems:
        return (
            "SELECT CAST(NULL AS VARCHAR) AS query_id, CAST(NULL AS INT) AS rank, "
            "CAST(NULL AS VARCHAR) AS conv_id, CAST(NULL AS INT) AS turn_idx, "
            "CAST(NULL AS DOUBLE) AS score WHERE 1=0"
        )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM (VALUES {', '.join(metas)}) qm(query_id, scope, k, tb)),
qsub AS (SELECT * FROM (VALUES {', '.join(subs)}) qs(query_id, sub_idx, n_terms)),
qlem AS (SELECT * FROM (VALUES {', '.join(lems)}) ql(query_id, sub_idx, lemma)),
qterm AS (
    SELECT ql.query_id, ql.sub_idx, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
sub_ok AS (
    SELECT qs.query_id, qs.sub_idx
    FROM qsub qs
    WHERE qs.n_terms > 0
      AND qs.n_terms = (
          SELECT count(*) FROM qterm t
          WHERE t.query_id = qs.query_id AND t.sub_idx = qs.sub_idx
      )
),
scored_sub AS (
    SELECT t.query_id, t.sub_idx, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM sub_ok s
    JOIN qterm t ON t.query_id = s.query_id AND t.sub_idx = s.sub_idx
    JOIN qmeta qm ON qm.query_id = s.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE qm.scope IS NULL OR r.role = qm.scope
    GROUP BY t.query_id, t.sub_idx, p.conv_id, p.turn_idx
),
combined AS (
    SELECT s.query_id, s.conv_id, s.turn_idx,
           max(s.score) + qm.tb * (sum(s.score) - max(s.score)) AS score
    FROM scored_sub s JOIN qmeta qm ON qm.query_id = s.query_id
    GROUP BY s.query_id, s.conv_id, s.turn_idx, qm.tb
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM combined
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qmeta q WHERE q.query_id = r.query_id)
"""


def phrase_topk_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """Per-query PHRASE top-k oracle: a doc matches iff the query's
    lemma sequence (shared ``analyzer.analyze_phrase``) appears at
    consecutive positions of the doc's surviving-token sequence —
    positions come from an ordinal-preserving unnest + row_number over
    the SAME charset-fold/stopword/lemma rules as the engine; scoring is
    the standard BM25 over the phrase's distinct lemmas (global df),
    restricted to matching docs; ties (score DESC, conv_id, turn_idx)."""
    match_branches = []
    qterm_rows = []
    qmeta_rows = []
    for q in queries:
        phrase = analyzer.analyze_phrase(q["query_text"])
        if not phrase:
            continue
        qid = q["query_id"]
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        qmeta_rows.append(f"({analyzer._sql_quote(qid)}, {scope}, {q['k']})")
        for lem in dict.fromkeys(phrase):
            qterm_rows.append(
                f"({analyzer._sql_quote(qid)}, {analyzer._sql_quote(lem)})"
            )
        joins, conds = [], [f"p0.lemma = {analyzer._sql_quote(phrase[0])}"]
        for j, lem in enumerate(phrase[1:], start=1):
            joins.append(
                f"JOIN __plem p{j} ON p{j}.conv_id = p0.conv_id "
                f"AND p{j}.turn_idx = p0.turn_idx AND p{j}.pos = p0.pos + {j} "
                f"AND p{j}.lemma = {analyzer._sql_quote(lem)}"
            )
        match_branches.append(
            f"SELECT DISTINCT {analyzer._sql_quote(qid)} AS query_id, "
            f"p0.conv_id, p0.turn_idx FROM __plem p0 {' '.join(joins)} "
            f"WHERE {' AND '.join(conds)}"
        )
    return _positional_topk_sql(src, match_branches, qmeta_rows, qterm_rows, k1, b)


def phrase_prefix_topk_sql(src: str, queries: list[dict],
                           max_expansion: int = 32,
                           k1: float = 1.2, b: float = 0.75) -> str:
    """Match-phrase-prefix twin (ES ``match_phrase_prefix``): the
    PHRASE oracle's consecutive-position chain whose FINAL slot matches
    ANY lemma of the last token's LIKE expansion — ranked (df DESC,
    lemma ASC) and capped at ``max_expansion``, the engine's exact
    ``expand_prefix`` rule, computed IN SQL over the same dictionary
    (``prefix_topk_sql``'s expansion CTE). Scoring is BM25 over the
    fixed distinct lemmas only (the prefix slot filters — the engine's
    documented auto-mode phrase-as-filter precedent, ``_auto_matches``)."""
    match_branches: list[str] = []
    qterm_rows: list[str] = []
    qmeta_rows: list[str] = []
    pfx_rows: list[str] = []
    for q in queries:
        toks = (q["query_text"] or "").split()
        if len(toks) < 2:
            continue
        phrase = analyzer.analyze_phrase(" ".join(toks[:-1]))
        norm = analyzer.normalize_text(toks[-1]).split()
        if not phrase or not norm or len(norm[0]) < 2:
            continue  # mirror the engine's bad_query / empty_query guards
        qid = q["query_id"]
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        qmeta_rows.append(f"({analyzer._sql_quote(qid)}, {scope}, {q['k']})")
        for lem in dict.fromkeys(phrase):
            qterm_rows.append(
                f"({analyzer._sql_quote(qid)}, {analyzer._sql_quote(lem)})"
            )
        pfx_rows.append(
            f"({analyzer._sql_quote(qid)}, {analyzer._sql_quote(norm[0])})"
        )
        joins, conds = [], [f"p0.lemma = {analyzer._sql_quote(phrase[0])}"]
        for j, lem in enumerate(phrase[1:], start=1):
            joins.append(
                f"JOIN __plem p{j} ON p{j}.conv_id = p0.conv_id "
                f"AND p{j}.turn_idx = p0.turn_idx AND p{j}.pos = p0.pos + {j} "
                f"AND p{j}.lemma = {analyzer._sql_quote(lem)}"
            )
        jl = len(phrase)
        joins.append(
            f"JOIN __plem p{jl} ON p{jl}.conv_id = p0.conv_id "
            f"AND p{jl}.turn_idx = p0.turn_idx AND p{jl}.pos = p0.pos + {jl} "
            f"JOIN __ppexp e ON e.query_id = {analyzer._sql_quote(qid)} "
            f"AND e.lemma = p{jl}.lemma"
        )
        match_branches.append(
            f"SELECT DISTINCT {analyzer._sql_quote(qid)} AS query_id, "
            f"p0.conv_id, p0.turn_idx FROM __plem p0 {' '.join(joins)} "
            f"WHERE {' AND '.join(conds)}"
        )
    extra = ""
    if pfx_rows:
        extra = f"""__ppfx AS (
    SELECT * FROM (VALUES {', '.join(pfx_rows)}) px(query_id, prefix)
),
__ppexp AS (
    SELECT query_id, lemma FROM (
        SELECT px.query_id, d.lemma,
               row_number() OVER (
                   PARTITION BY px.query_id ORDER BY d.df DESC, d.lemma
               ) AS rk
        FROM __ppfx px JOIN dict d ON d.lemma LIKE px.prefix || '%'
    ) WHERE rk <= {max_expansion}
)"""
    return _positional_topk_sql(
        src, match_branches, qmeta_rows, qterm_rows, k1, b, extra_ctes=extra
    )


def span_first_topk_sql(src: str, queries: list[dict],
                        k1: float = 1.2, b: float = 0.75) -> str:
    """Span-first twin (Lucene SpanFirstQuery over the phrase span):
    the PHRASE oracle's consecutive-position chain with the extra
    start bound ``p0.pos + m <= N`` (the span must END within the
    doc's first N surviving tokens; pos is 0-based, matching the
    engine's position coordinate). Each probe carries its ``n``."""
    match_branches = []
    qterm_rows = []
    qmeta_rows = []
    for q in queries:
        phrase = analyzer.analyze_phrase(q["query_text"])
        if not phrase:
            continue
        qid = q["query_id"]
        n = int(q["n"])
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        qmeta_rows.append(f"({analyzer._sql_quote(qid)}, {scope}, {q['k']})")
        for lem in dict.fromkeys(phrase):
            qterm_rows.append(
                f"({analyzer._sql_quote(qid)}, {analyzer._sql_quote(lem)})"
            )
        joins = []
        conds = [
            f"p0.lemma = {analyzer._sql_quote(phrase[0])}",
            f"p0.pos <= {n - len(phrase)}",
        ]
        for j, lem in enumerate(phrase[1:], start=1):
            joins.append(
                f"JOIN __plem p{j} ON p{j}.conv_id = p0.conv_id "
                f"AND p{j}.turn_idx = p0.turn_idx AND p{j}.pos = p0.pos + {j} "
                f"AND p{j}.lemma = {analyzer._sql_quote(lem)}"
            )
        match_branches.append(
            f"SELECT DISTINCT {analyzer._sql_quote(qid)} AS query_id, "
            f"p0.conv_id, p0.turn_idx FROM __plem p0 {' '.join(joins)} "
            f"WHERE {' AND '.join(conds)}"
        )
    return _positional_topk_sql(src, match_branches, qmeta_rows, qterm_rows, k1, b)


def near_topk_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """Per-query NEAR (proximity) top-k oracle: a doc matches iff EVERY
    distinct query lemma occurs within some ``window`` consecutive
    surviving-token positions (each query dict carries its ``window``).
    Anchor semantics mirror the engine exactly: some occurrence ``a`` of
    any query lemma has, for every lemma, an occurrence in
    ``[a.pos, a.pos + window - 1]``. Scoring = BM25 over the distinct
    lemmas at matching docs, same frame as the phrase oracle."""
    match_branches = []
    qterm_rows = []
    qmeta_rows = []
    for q in queries:
        lemmas = analyzer.analyze_query(q["query_text"])
        if not lemmas:
            continue
        qid = q["query_id"]
        w = int(q.get("window", 8))
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        qmeta_rows.append(f"({analyzer._sql_quote(qid)}, {scope}, {q['k']})")
        for lem in lemmas:
            qterm_rows.append(
                f"({analyzer._sql_quote(qid)}, {analyzer._sql_quote(lem)})"
            )
        in_list = ", ".join(analyzer._sql_quote(l) for l in lemmas)
        exists = [
            (
                f"EXISTS (SELECT 1 FROM __plem t{i} WHERE t{i}.conv_id = a.conv_id "
                f"AND t{i}.turn_idx = a.turn_idx AND t{i}.lemma = {analyzer._sql_quote(lem)} "
                f"AND t{i}.pos BETWEEN a.pos AND a.pos + {w - 1})"
            )
            for i, lem in enumerate(lemmas)
        ]
        match_branches.append(
            f"SELECT DISTINCT {analyzer._sql_quote(qid)} AS query_id, "
            f"a.conv_id, a.turn_idx FROM __plem a "
            f"WHERE a.lemma IN ({in_list}) AND {' AND '.join(exists)}"
        )
    return _positional_topk_sql(src, match_branches, qmeta_rows, qterm_rows, k1, b)


def near_ordered_topk_sql(src: str, queries: list[dict], k1: float = 1.2,
                          b: float = 0.75) -> str:
    """Ordered-proximity (SpanNear in_order) top-k oracle: a doc
    matches iff the query's ORDERED lemma sequence (shared
    ``analyzer.analyze_phrase`` — duplicates kept) appears at strictly
    increasing positions within a ``window``-token span. The match is
    a nested-EXISTS chain anchored at every occurrence of the first
    lemma (existential == the engine's greedy smallest-next chain:
    taking the minimal valid next occurrence preserves feasibility);
    scoring is BM25 over the DISTINCT lemmas at matching docs, the
    shared positional frame."""
    match_branches = []
    qterm_rows = []
    qmeta_rows = []
    for q in queries:
        phrase = analyzer.analyze_phrase(q["query_text"])
        if not phrase:
            continue
        qid = q["query_id"]
        w = int(q.get("window", 8))
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        qmeta_rows.append(f"({analyzer._sql_quote(qid)}, {scope}, {q['k']})")
        for lem in dict.fromkeys(phrase):
            qterm_rows.append(
                f"({analyzer._sql_quote(qid)}, {analyzer._sql_quote(lem)})"
            )

        def chain(j: int, prev: str) -> str:
            cond = (
                f"t{j}.conv_id = a.conv_id AND t{j}.turn_idx = a.turn_idx "
                f"AND t{j}.lemma = {analyzer._sql_quote(phrase[j])} "
                f"AND t{j}.pos > {prev}.pos AND t{j}.pos <= a.pos + {w - 1}"
            )
            inner = chain(j + 1, f"t{j}") if j + 1 < len(phrase) else ""
            return (f"EXISTS (SELECT 1 FROM __plem t{j} WHERE {cond}"
                    f"{' AND ' + inner if inner else ''})")

        head = f"a.lemma = {analyzer._sql_quote(phrase[0])}"
        if len(phrase) > 1:
            head += " AND " + chain(1, "a")
        match_branches.append(
            f"SELECT DISTINCT {analyzer._sql_quote(qid)} AS query_id, "
            f"a.conv_id, a.turn_idx FROM __plem a WHERE {head}"
        )
    return _positional_topk_sql(src, match_branches, qmeta_rows, qterm_rows, k1, b)


def _positional_topk_sql(
    src: str,
    match_branches: list[str],
    qmeta_rows: list[str],
    qterm_rows: list[str],
    k1: float,
    b: float,
    extra_ctes: str = "",
) -> str:
    """Shared skeleton of the position-based oracles (phrase / near):
    positions CTE + per-query match branches + BM25 scoring frame.
    ``extra_ctes`` (optional, comma-terminated handled here) is spliced
    AFTER the ``dict`` CTE so expansion CTEs can rank by global df
    (phrase_prefix's LIKE expansion)."""
    if not match_branches:
        return (
            "SELECT CAST(NULL AS VARCHAR) AS query_id, CAST(NULL AS INT) AS rank, "
            "CAST(NULL AS VARCHAR) AS conv_id, CAST(NULL AS INT) AS turn_idx, "
            "CAST(NULL AS DOUBLE) AS score WHERE 1=0"
        )
    matches = " UNION ALL ".join(match_branches)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
__ptoks AS (
    SELECT conv_id, turn_idx, unnest(toks) AS tok,
           generate_subscripts(toks, 1) AS i
    FROM (SELECT conv_id, turn_idx,
                 string_split(trim(regexp_replace(lower(coalesce(text, '')),
                     '{analyzer.NON_WORD_REGEX}', ' ', 'g')), ' ') AS toks
          FROM {src})
),
__plem AS (
    SELECT conv_id, turn_idx, {analyzer.lemma_case_sql('tok')} AS lemma,
           row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY i) - 1 AS pos
    FROM __ptoks
    WHERE length(tok) >= {analyzer.MIN_TOKEN_LEN}
      AND tok NOT IN ({analyzer.stopword_sql_list()})
),
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
{extra_ctes + (',' if extra_ctes else '')}
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM (VALUES {', '.join(qmeta_rows)}) qm(query_id, scope, k)),
qterm AS (SELECT * FROM (VALUES {', '.join(qterm_rows)}) qt(query_id, lemma)),
matches AS ({matches}),
scored AS (
    SELECT m.query_id, m.conv_id, m.turn_idx,
           sum(ln(1 + (c.n_docs - d.df + 0.5) / (d.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM matches m
    JOIN qmeta qm ON qm.query_id = m.query_id
    JOIN roles r ON r.conv_id = m.conv_id AND r.turn_idx = m.turn_idx
    JOIN qterm t ON t.query_id = m.query_id
    JOIN dict d ON d.lemma = t.lemma
    JOIN __postings p ON p.lemma = t.lemma
        AND p.conv_id = m.conv_id AND p.turn_idx = m.turn_idx
    JOIN doclen dl ON dl.conv_id = m.conv_id AND dl.turn_idx = m.turn_idx
    CROSS JOIN corpus c
    WHERE qm.scope IS NULL OR r.role = qm.scope
    GROUP BY m.query_id, m.conv_id, m.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qmeta q WHERE q.query_id = r.query_id)
"""


def rescore_topk_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """Two-phase rescore oracle: phase one is the standard BM25
    skeleton (missing-lemma qok gate) ranked per query and cut at the
    rescore ``window``; phase two recomputes each window doc's final
    score as ``qw*bm25 + rw*COALESCE(phrase_bm25, 0)``, where
    ``phrase_bm25`` is the exact-adjacency BM25 of the rescore query's
    lemma sequence (the phrase oracle's ordinal-preserving position
    CTE, restricted to window docs), then re-ranks and cuts at ``k``.
    A rescore-phrase lemma absent from the corpus simply produces no
    match rows — base order scaled by ``qw``, the engine's exact
    fallback. The multiply-referenced CTEs are MATERIALIZED: ``win``
    feeds both pscored and finals, and DuckDB otherwise re-inlines the
    whole scoring chain per reference (measured 10x at sf0.001)."""
    metas, lrows, prrows, branches = [], [], [], []
    for q in queries:
        lemmas = analyzer.analyze_query(q["query_text"])
        phrase = analyzer.analyze_phrase(q["rescore"])
        if not phrase:
            continue
        qid = analyzer._sql_quote(q["query_id"])
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        metas.append(
            f"({qid}, {scope}, {q['k']}, {len(lemmas)}, {int(q['window'])}, "
            f"{float(q.get('query_weight', 1.0))!r}, "
            f"{float(q.get('rescore_weight', 1.0))!r})"
        )
        for lem in lemmas:
            lrows.append(f"({qid}, {analyzer._sql_quote(lem)})")
        for lem in dict.fromkeys(phrase):
            prrows.append(f"({qid}, {analyzer._sql_quote(lem)})")
        joins = []
        for j, lem in enumerate(phrase[1:], start=1):
            joins.append(
                f"JOIN __plem p{j} ON p{j}.conv_id = p0.conv_id "
                f"AND p{j}.turn_idx = p0.turn_idx AND p{j}.pos = p0.pos + {j} "
                f"AND p{j}.lemma = {analyzer._sql_quote(lem)}"
            )
        branches.append(
            f"SELECT DISTINCT {qid} AS query_id, p0.conv_id, p0.turn_idx "
            f"FROM __plem p0 {' '.join(joins)} "
            f"WHERE p0.lemma = {analyzer._sql_quote(phrase[0])}"
        )
    if not metas:
        return (
            "SELECT CAST(NULL AS VARCHAR) AS query_id, CAST(NULL AS INT) AS rank, "
            "CAST(NULL AS VARCHAR) AS conv_id, CAST(NULL AS INT) AS turn_idx, "
            "CAST(NULL AS DOUBLE) AS score WHERE 1=0"
        )
    qmeta = (
        "(VALUES " + ", ".join(metas)
        + ") qm(query_id, scope, k, n_terms, win, qw, rw)"
    )
    qlem = (
        "(VALUES " + ", ".join(lrows) + ") ql(query_id, lemma)"
        if lrows
        else "(SELECT NULL AS query_id, NULL AS lemma WHERE 1=0) ql"
    )
    prlem = "(VALUES " + ", ".join(prrows) + ") pr(query_id, lemma)"
    matches = " UNION ALL ".join(branches)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
__ptoks AS (
    SELECT conv_id, turn_idx, unnest(toks) AS tok,
           generate_subscripts(toks, 1) AS i
    FROM (SELECT conv_id, turn_idx,
                 string_split(trim(regexp_replace(lower(coalesce(text, '')),
                     '{analyzer.NON_WORD_REGEX}', ' ', 'g')), ' ') AS toks
          FROM {src})
),
__plem AS MATERIALIZED (
    SELECT conv_id, turn_idx, {analyzer.lemma_case_sql('tok')} AS lemma,
           row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY i) - 1 AS pos
    FROM __ptoks
    WHERE length(tok) >= {analyzer.MIN_TOKEN_LEN}
      AND tok NOT IN ({analyzer.stopword_sql_list()})
),
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
prlem AS (SELECT * FROM {prlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.* FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
scored AS MATERIALIZED (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
win AS MATERIALIZED (
    SELECT * FROM (
        SELECT s.*, row_number() OVER (
            PARTITION BY s.query_id ORDER BY s.score DESC, s.conv_id, s.turn_idx
        ) AS base_rank
        FROM scored s
    ) JOIN qok q USING (query_id)
    WHERE base_rank <= q.win
),
pmatch AS ({matches}),
pscored AS MATERIALIZED (
    SELECT w.query_id, w.conv_id, w.turn_idx,
           sum(ln(1 + (c.n_docs - d.df + 0.5) / (d.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM win w
    JOIN pmatch m ON m.query_id = w.query_id
        AND m.conv_id = w.conv_id AND m.turn_idx = w.turn_idx
    JOIN prlem t ON t.query_id = w.query_id
    JOIN dict d ON d.lemma = t.lemma
    JOIN __postings p ON p.lemma = t.lemma
        AND p.conv_id = w.conv_id AND p.turn_idx = w.turn_idx
    JOIN doclen dl ON dl.conv_id = w.conv_id AND dl.turn_idx = w.turn_idx
    CROSS JOIN corpus c
    GROUP BY w.query_id, w.conv_id, w.turn_idx
),
finals AS (
    SELECT w.query_id, w.conv_id, w.turn_idx,
           w.qw * w.score + w.rw * COALESCE(p.score, 0.0) AS score
    FROM win w
    LEFT JOIN pscored p ON p.query_id = w.query_id
        AND p.conv_id = w.conv_id AND p.turn_idx = w.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM finals
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def auto_topk_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """Boolean search-box oracle (mode='auto'): the generator parses
    each raw query with the ENGINE'S parser (quoted phrases / -NOT
    tokens / loose text), so syntax and analysis cannot drift.
    Candidates = INTERSECT of the phrase match sets (or the loose-lemma
    union when no phrases), minus NOT EXISTS of the exclusion lemmas;
    scoring = BM25 over all distinct positive lemmas at the candidates
    (a loose lemma absent from a doc contributes nothing — same as the
    engine's add-0). The qok gate mirrors missing-lemma semantics: any
    positive lemma absent from the corpus -> no rows for that query."""
    from .search import parse_boolean_query

    qmeta_rows, qterm_rows, branches = [], [], []
    for q in queries:
        qid = analyzer._sql_quote(q["query_id"])
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        phrases_raw, loose_text, excl_text = parse_boolean_query(q["query_text"])
        phrases = [p for p in (analyzer.analyze_phrase(x) for x in phrases_raw) if p]
        loose = analyzer.analyze_query(loose_text) if loose_text else []
        excl = analyzer.analyze_query(excl_text) if excl_text else []
        pos = list(dict.fromkeys([l for ph in phrases for l in ph] + loose))
        if not pos:
            continue
        qmeta_rows.append(f"({qid}, {scope}, {q['k']}, {len(pos)})")
        for lem in pos:
            qterm_rows.append(f"({qid}, {analyzer._sql_quote(lem)})")
        sels = []
        for ph in phrases:
            joins = []
            for j, lem in enumerate(ph[1:], start=1):
                joins.append(
                    f"JOIN __plem p{j} ON p{j}.conv_id = p0.conv_id "
                    f"AND p{j}.turn_idx = p0.turn_idx AND p{j}.pos = p0.pos + {j} "
                    f"AND p{j}.lemma = {analyzer._sql_quote(ph[j])}"
                )
            sels.append(
                f"SELECT DISTINCT p0.conv_id, p0.turn_idx FROM __plem p0 "
                f"{' '.join(joins)} WHERE p0.lemma = {analyzer._sql_quote(ph[0])}"
            )
        if not sels:
            in_list = ", ".join(analyzer._sql_quote(l) for l in loose)
            sels.append(
                f"SELECT DISTINCT conv_id, turn_idx FROM __postings "
                f"WHERE lemma IN ({in_list})"
            )
        base = " INTERSECT ".join(f"({s})" for s in sels)
        notp = ""
        if excl:
            xin = ", ".join(analyzer._sql_quote(l) for l in excl)
            notp = (
                " WHERE NOT EXISTS (SELECT 1 FROM __postings e "
                "WHERE e.lemma IN (" + xin + ") AND e.conv_id = m.conv_id "
                "AND e.turn_idx = m.turn_idx)"
            )
        branches.append(
            f"SELECT {qid} AS query_id, m.conv_id, m.turn_idx "
            f"FROM ({base}) m{notp}"
        )
    if not branches:
        return (
            "SELECT CAST(NULL AS VARCHAR) AS query_id, CAST(NULL AS INT) AS rank, "
            "CAST(NULL AS VARCHAR) AS conv_id, CAST(NULL AS INT) AS turn_idx, "
            "CAST(NULL AS DOUBLE) AS score WHERE 1=0"
        )
    matches = " UNION ALL ".join(branches)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
__ptoks AS (
    SELECT conv_id, turn_idx, unnest(toks) AS tok,
           generate_subscripts(toks, 1) AS i
    FROM (SELECT conv_id, turn_idx,
                 string_split(trim(regexp_replace(lower(coalesce(text, '')),
                     '{analyzer.NON_WORD_REGEX}', ' ', 'g')), ' ') AS toks
          FROM {src})
),
__plem AS (
    SELECT conv_id, turn_idx, {analyzer.lemma_case_sql('tok')} AS lemma,
           row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY i) - 1 AS pos
    FROM __ptoks
    WHERE length(tok) >= {analyzer.MIN_TOKEN_LEN}
      AND tok NOT IN ({analyzer.stopword_sql_list()})
),
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM (VALUES {', '.join(qmeta_rows)}) qm(query_id, scope, k, n_terms)),
qlem AS (SELECT * FROM (VALUES {', '.join(qterm_rows)}) ql(query_id, lemma)),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k FROM qmeta qm
    WHERE qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matches AS ({matches}),
scored AS (
    SELECT q.query_id, m.conv_id, m.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN matches m ON m.query_id = q.query_id
    JOIN roles r ON r.conv_id = m.conv_id AND r.turn_idx = m.turn_idx
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
        AND p.conv_id = m.conv_id AND p.turn_idx = m.turn_idx
    JOIN doclen dl ON dl.conv_id = m.conv_id AND dl.turn_idx = m.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, m.conv_id, m.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def conv_topk_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """Conversation-level ranking oracle: per-turn BM25 over the full
    matching set (same scored frame as :func:`bm25_topk_sql`), grouped
    by conversation — conv score = max turn score (max-passage), plus
    the matching-turn count and the best turn's index (row_number over
    (score DESC, turn_idx) per conversation, the engine's exact-tie
    rule). Conversation rank tie-break: (score DESC, conv_id)."""
    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
conv AS (
    SELECT query_id, conv_id, max(score) AS score, count(*) AS n_turns
    FROM scored GROUP BY query_id, conv_id
),
best AS (
    SELECT query_id, conv_id, turn_idx,
           row_number() OVER (
               PARTITION BY query_id, conv_id ORDER BY score DESC, turn_idx
           ) AS rn
    FROM scored
),
ranked AS (
    SELECT c.query_id, c.conv_id, c.score, c.n_turns, bt.turn_idx AS best_turn_idx,
           row_number() OVER (
               PARTITION BY c.query_id ORDER BY c.score DESC, c.conv_id
           ) AS rank
    FROM conv c
    JOIN best bt ON bt.query_id = c.query_id AND bt.conv_id = c.conv_id AND bt.rn = 1
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id,
       CAST(n_turns AS BIGINT) AS n_turns,
       CAST(best_turn_idx AS INT) AS best_turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def bm25_collapse_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """Field-collapsing oracle: per-turn BM25 over the full matching
    set, then at most ``m`` turns per conversation survive — chosen per
    conversation by (score DESC, turn_idx), the engine's collapse rule —
    before the global top-k rank over (score DESC, conv_id, turn_idx).
    ``m`` comes per query (``collapse`` key)."""
    metas, lems = [], []
    for q in queries:
        lemmas = analyzer.analyze_query(q["query_text"])
        scope = "NULL" if q["scope"] is None else f"'{q['scope']}'"
        metas.append(
            f"('{q['query_id']}', {scope}, {q['k']}, {len(lemmas)}, {q['collapse']})"
        )
        for lem in lemmas:
            lems.append(f"('{q['query_id']}', '{lem}')")
    qmeta = "(VALUES " + ", ".join(metas) + ") qm(query_id, scope, k, n_terms, m)"
    qlem = (
        "(VALUES " + ", ".join(lems) + ") ql(query_id, lemma)"
        if lems
        else "(SELECT NULL AS query_id, NULL AS lemma WHERE 1=0) ql"
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k, qm.m
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
collapsed AS (
    SELECT query_id, conv_id, turn_idx, score
    FROM (
        SELECT query_id, conv_id, turn_idx, score,
               row_number() OVER (
                   PARTITION BY query_id, conv_id ORDER BY score DESC, turn_idx
               ) AS rn
        FROM scored
    ) s
    WHERE rn <= (SELECT m FROM qok q WHERE q.query_id = s.query_id)
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM collapsed
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def bm25_order_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """Timestamp-ordered search oracle: the standard scored frame, but
    rank = row_number over (dirn * epoch_us(ts) DESC, conv_id, turn_idx)
    with dirn = +1 for ts_desc / -1 for ts_asc per query — the engine's
    exact ts key and docid tie-break. BM25 score is carried (rounded),
    not ranked on."""
    metas, lems = [], []
    for q in queries:
        lemmas = analyzer.analyze_query(q["query_text"])
        scope = "NULL" if q["scope"] is None else f"'{q['scope']}'"
        dirn = 1 if q["order_by"] == "ts_desc" else -1
        metas.append(
            f"('{q['query_id']}', {scope}, {q['k']}, {len(lemmas)}, {dirn})"
        )
        for lem in lemmas:
            lems.append(f"('{q['query_id']}', '{lem}')")
    qmeta = "(VALUES " + ", ".join(metas) + ") qm(query_id, scope, k, n_terms, dirn)"
    qlem = "(VALUES " + ", ".join(lems) + ") ql(query_id, lemma)"
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role, ts FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k, qm.dirn
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx, any_value(r.ts) AS ts,
           any_value(q.dirn) AS dirn,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, ts, score,
           row_number() OVER (
               PARTITION BY query_id
               ORDER BY dirn * epoch_us(ts) DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx, ts,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def rrf_topk_sql(src: str, queries: list[dict], rrf_k: int = 60,
                 k1: float = 1.2, b: float = 0.75) -> str:
    """Hybrid relevance+recency oracle (``order_by='rrf'``):
    reciprocal-rank fusion of the BM25 ranking and the ts-descending
    ranking of the same matching set — fused = 1/(K + r_rel) +
    1/(K + r_ts) with docid-ASC (== (conv_id, turn_idx)-ASC) rank ties;
    each term is one IEEE division of exact integers, so the fused
    doubles are bit-identical to the engine's."""
    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role, ts FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx, any_value(r.ts) AS ts,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
fused AS (
    SELECT query_id, conv_id, turn_idx,
           1.0 / ({rrf_k} + row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ))
           + 1.0 / ({rrf_k} + row_number() OVER (
               PARTITION BY query_id ORDER BY epoch_us(ts) DESC, conv_id, turn_idx
           )) AS fscore
    FROM scored
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, fscore,
           row_number() OVER (
               PARTITION BY query_id ORDER BY fscore DESC, conv_id, turn_idx
           ) AS rank
    FROM fused
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(fscore, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def bm25_counts_sql(src: str, queries: list[dict]) -> str:
    """Exact pre-pagination result counts (G6): per query, |union| of
    matching docs (within scope); 0 when any query lemma is missing
    (reference semantics — the engine's ``count`` field)."""
    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matched AS (
    SELECT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY 1, 2, 3
),
counts AS (SELECT query_id, count(*) AS n FROM matched GROUP BY query_id)
SELECT qm.query_id, CAST(coalesce(c.n, 0) AS BIGINT) AS n_results
FROM qmeta qm LEFT JOIN counts c USING (query_id)
"""


def bm25_exclude_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """NOT-term exclusion oracle: standard BM25 top-k (same skeleton as
    ``bm25_topk_sql``) minus docs containing ANY analyzed lemma of the
    query's ``exclude_text`` (``NOT EXISTS`` over the postings — an
    exclude lemma absent from the corpus excludes nothing, mirroring the
    engine's no-op semantics for missing NOT terms). Per-query
    ``conjunctive`` composes via a match-count floor (``need`` =
    n_terms, else 1)."""
    metas, lrows, xrows = [], [], []
    for q in queries:
        lemmas = analyzer.analyze_query(q["query_text"])
        qid = analyzer._sql_quote(q["query_id"])
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        need = len(lemmas) if q.get("conjunctive") else 1
        metas.append(f"({qid}, {scope}, {q['k']}, {len(lemmas)}, {need})")
        for lem in lemmas:
            lrows.append(f"({qid}, {analyzer._sql_quote(lem)})")
        for lem in dict.fromkeys(analyzer.analyze_query(q.get("exclude_text") or "")):
            xrows.append(f"({qid}, {analyzer._sql_quote(lem)})")
    qmeta = (
        "(VALUES " + ", ".join(metas) + ") qm(query_id, scope, k, n_terms, need)"
    )
    qlem = (
        "(VALUES " + ", ".join(lrows) + ") ql(query_id, lemma)"
        if lrows
        else "(SELECT NULL AS query_id, NULL AS lemma WHERE 1=0) ql"
    )
    qexcl = (
        "(VALUES " + ", ".join(xrows) + ") qx(query_id, lemma)"
        if xrows
        else "(SELECT NULL AS query_id, NULL AS lemma WHERE 1=0) qx"
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qexcl AS (SELECT * FROM {qexcl}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k, qm.need
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE (q.scope IS NULL OR r.role = q.scope)
      AND NOT EXISTS (
          SELECT 1 FROM qexcl x
          JOIN __postings e ON e.lemma = x.lemma
              AND e.conv_id = p.conv_id AND e.turn_idx = p.turn_idx
          WHERE x.query_id = q.query_id
      )
    GROUP BY q.query_id, p.conv_id, p.turn_idx, q.need
    HAVING count(*) >= q.need
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def bm25_ts_range_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """Timestamp-range-filtered BM25 top-k oracle: the standard skeleton
    with per-query INCLUSIVE ts bounds (NULL bound = unbounded side).
    The engine interprets the same ISO strings as naive-UTC epoch-µs, so
    the predicate is bit-identical on both sides."""
    metas, lrows = [], []
    for q in queries:
        lemmas = analyzer.analyze_query(q["query_text"])
        qid = analyzer._sql_quote(q["query_id"])
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        lo = "NULL" if q.get("ts_min") is None else f"TIMESTAMP '{q['ts_min']}'"
        hi = "NULL" if q.get("ts_max") is None else f"TIMESTAMP '{q['ts_max']}'"
        metas.append(f"({qid}, {scope}, {q['k']}, {len(lemmas)}, {lo}, {hi})")
        for lem in lemmas:
            lrows.append(f"({qid}, {analyzer._sql_quote(lem)})")
    qmeta = (
        "(VALUES " + ", ".join(metas)
        + ") qm(query_id, scope, k, n_terms, ts_min, ts_max)"
    )
    qlem = (
        "(VALUES " + ", ".join(lrows) + ") ql(query_id, lemma)"
        if lrows
        else "(SELECT NULL AS query_id, NULL AS lemma WHERE 1=0) ql"
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
meta AS (SELECT conv_id, turn_idx, role, ts FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k, qm.ts_min, qm.ts_max
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE (q.scope IS NULL OR r.role = q.scope)
      AND (q.ts_min IS NULL OR r.ts >= q.ts_min)
      AND (q.ts_max IS NULL OR r.ts <= q.ts_max)
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def facets_sql(src: str, queries: list[dict]) -> str:
    """Faceted result counts: per query, matching-doc counts grouped by
    role and by tool (empty string = no tool) — the grouped
    generalization of ``bm25_counts_sql``. Same matching semantics:
    union of docs containing any query lemma, any missing lemma -> no
    rows for that query, scope filter on role."""
    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
meta AS (
    SELECT conv_id, turn_idx, coalesce(role, '') AS role,
           coalesce(tool, '') AS tool FROM {src}
),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matched AS (
    SELECT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY 1, 2, 3
),
withmeta AS (
    SELECT m.query_id, r.role, r.tool
    FROM matched m JOIN meta r
      ON r.conv_id = m.conv_id AND r.turn_idx = m.turn_idx
)
SELECT query_id, 'role' AS facet, role AS value,
       CAST(count(*) AS BIGINT) AS n_docs
FROM withmeta GROUP BY 1, 3
UNION ALL
SELECT query_id, 'tool' AS facet, tool AS value,
       CAST(count(*) AS BIGINT) AS n_docs
FROM withmeta GROUP BY 1, 3
"""


def _agg_filter_queries(probes: list[dict]) -> list[dict]:
    """Flatten filters-agg / adjacency probes into ONE ordinary query
    set (query_id = '<probe>##<key>'; the base query is '##base') so
    the standard matched-set CTE machinery applies unchanged."""
    out = []
    for p in probes:
        if p.get("base") is not None:
            out.append({"query_id": f"{p['probe_id']}##base",
                        "query_text": p["base"], "scope": p["scope"], "k": 0})
        for key in sorted(p["filters"]):
            out.append({"query_id": f"{p['probe_id']}##{key}",
                        "query_text": p["filters"][key],
                        "scope": p["scope"], "k": 0})
    return out


_MATCHED_CTE = """
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matched AS (
    SELECT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY 1, 2, 3
)"""


def filters_agg_sql(src: str, probes: list[dict]) -> str:
    """Filters-aggregation twin (the ES ``filters`` agg): per probe,
    one count per named filter bucket — ALL named buckets emitted,
    zero included — optionally intersected with the probe's base
    query's matching set. Matching semantics shared with
    ``facets_sql`` (union of docs containing any lemma, all lemmas
    must exist, scope on role)."""
    qmeta, qlem = _queries_values(_agg_filter_queries(probes))
    prows = ", ".join(
        f"({analyzer._sql_quote(p['probe_id'])}, {analyzer._sql_quote(k)}, "
        f"{analyzer._sql_quote(p['probe_id'] + '##' + k)}, "
        + (f"{analyzer._sql_quote(p['probe_id'] + '##base')})"
           if p.get("base") is not None else "NULL)")
        for p in probes for k in sorted(p["filters"])
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),{_MATCHED_CTE},
pairs AS (SELECT * FROM (VALUES {prows}) pr(pid, key, fid, bid)),
cnt AS (
    SELECT pr.pid, pr.key, CAST(count(*) AS BIGINT) AS n
    FROM pairs pr
    JOIN matched f ON f.query_id = pr.fid
    WHERE pr.bid IS NULL OR EXISTS (
        SELECT 1 FROM matched b WHERE b.query_id = pr.bid
          AND b.conv_id = f.conv_id AND b.turn_idx = f.turn_idx)
    GROUP BY 1, 2
)
SELECT pr.pid AS probe_id, pr.key, coalesce(c.n, 0) AS n_docs
FROM pairs pr LEFT JOIN cnt c ON c.pid = pr.pid AND c.key = pr.key
"""


def adjacency_matrix_sql(src: str, probes: list[dict]) -> str:
    """Adjacency-matrix twin (the ES ``adjacency_matrix`` agg): per
    probe, one count per named filter plus one per ``a&b`` pair
    (upper-triangular intersection); zero buckets omitted entirely
    (inner-join counts never emit empty groups — ES semantics)."""
    qmeta, qlem = _queries_values(_agg_filter_queries(probes))
    srows, xrows = [], []
    for p in probes:
        keys = sorted(p["filters"])
        for i, a in enumerate(keys):
            srows.append(
                f"({analyzer._sql_quote(p['probe_id'])}, "
                f"{analyzer._sql_quote(a)}, "
                f"{analyzer._sql_quote(p['probe_id'] + '##' + a)})"
            )
            for b in keys[i + 1:]:
                xrows.append(
                    f"({analyzer._sql_quote(p['probe_id'])}, "
                    f"{analyzer._sql_quote(a + '&' + b)}, "
                    f"{analyzer._sql_quote(p['probe_id'] + '##' + a)}, "
                    f"{analyzer._sql_quote(p['probe_id'] + '##' + b)})"
                )
    singles = "(VALUES " + ", ".join(srows) + ") s1(pid, key, fid)"
    crosses = (
        "(VALUES " + ", ".join(xrows) + ") s2(pid, key, fa, fb)"
        if xrows
        else "(SELECT NULL AS pid, NULL AS key, NULL AS fa, NULL AS fb WHERE 1=0) s2"
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),{_MATCHED_CTE}
SELECT s1.pid AS probe_id, s1.key, CAST(count(*) AS BIGINT) AS n_docs
FROM {singles} JOIN matched f ON f.query_id = s1.fid
GROUP BY 1, 2
UNION ALL
SELECT s2.pid AS probe_id, s2.key, CAST(count(*) AS BIGINT) AS n_docs
FROM {crosses}
JOIN matched a ON a.query_id = s2.fa
JOIN matched b ON b.query_id = s2.fb
 AND b.conv_id = a.conv_id AND b.turn_idx = a.turn_idx
GROUP BY 1, 2
"""


def histogram_pipeline_sql(src: str, queries: list[dict],
                           window: int = 3) -> str:
    """Pipeline-aggregation twin over the fixed-interval histogram
    (the ES cumulative_sum / derivative / moving_fn shapes): the
    sparse histogram gap-fills to the min..max bucket axis with zero
    counts, then window functions — running sum, lag difference (NULL
    first), trailing-``window``-inclusive mean rounded to 6 dp (the
    engine docstring's tie-free argument makes the round direction
    irrelevant for window < 128)."""
    inner = histogram_sql(src, queries)
    ivals = ", ".join(
        f"({analyzer._sql_quote(q['query_id'])}, {int(q['interval'])})"
        for q in queries
    )
    return f"""
WITH hb AS ({inner}),
ivals AS (SELECT * FROM (VALUES {ivals}) iv(query_id, interval)),
rng AS (
    SELECT h.query_id, iv.interval,
           min(h.bucket) AS mn, max(h.bucket) AS mx
    FROM hb h JOIN ivals iv ON iv.query_id = h.query_id
    GROUP BY 1, 2
),
-- generate_series takes no lateral refs in DuckDB: fixed series,
-- cross-join + filter (the ES search.max_buckets bound = 65536)
nums AS (SELECT CAST(i AS BIGINT) AS i FROM generate_series(0, 65535) g(i)),
axis AS (
    SELECT r.query_id, r.mn + n.i * r.interval AS bucket
    FROM rng r CROSS JOIN nums n
    WHERE n.i <= (r.mx - r.mn) // r.interval
),
fill AS (
    SELECT a.query_id, a.bucket, coalesce(h.n_docs, 0) AS n_docs
    FROM axis a LEFT JOIN hb h
      ON h.query_id = a.query_id AND h.bucket = a.bucket
)
SELECT query_id, bucket, n_docs,
       CAST(sum(n_docs) OVER w AS BIGINT) AS cum_docs,
       n_docs - lag(n_docs) OVER w AS deriv,
       round(avg(n_docs * 1.0) OVER (
           PARTITION BY query_id ORDER BY bucket
           ROWS BETWEEN {int(window) - 1} PRECEDING AND CURRENT ROW), 6) AS mavg
FROM fill
WINDOW w AS (PARTITION BY query_id ORDER BY bucket)
"""


def significant_terms_sql(src: str, queries: list[dict]) -> str:
    """Significant-terms oracle: per query, the top-k lemmas by JLH
    score ``(fg% - bg%) * (fg% / bg%)`` over the matching set (same
    matching semantics as ``facets_sql``/``bm25_counts_sql``: union of
    docs containing any query lemma, scope on role, any missing lemma
    -> no rows), query lemmas excluded, ties (score DESC, lemma ASC).
    The score expression mirrors the engine's exact float64 op sequence
    (one division per rate, then subtract / divide / multiply)."""
    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (SELECT count(*) AS n_docs FROM {src}),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matched AS (
    SELECT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY 1, 2, 3
),
fgtot AS (SELECT query_id, count(*) AS n_fg FROM matched GROUP BY query_id),
fg AS (
    SELECT m.query_id, p.lemma, count(*) AS fg
    FROM matched m
    JOIN __postings p ON p.conv_id = m.conv_id AND p.turn_idx = m.turn_idx
    GROUP BY 1, 2
),
scored AS (
    SELECT f.query_id, f.lemma, f.fg, d.df AS bg,
           ((f.fg * 1.0 / t.n_fg) - (d.df * 1.0 / c.n_docs))
           * ((f.fg * 1.0 / t.n_fg) / (d.df * 1.0 / c.n_docs)) AS score
    FROM fg f
    JOIN dict d ON d.lemma = f.lemma
    JOIN fgtot t ON t.query_id = f.query_id
    CROSS JOIN corpus c
    WHERE NOT EXISTS (
        SELECT 1 FROM qterm qt
        WHERE qt.query_id = f.query_id AND qt.lemma = f.lemma
    )
),
ranked AS (
    SELECT query_id, lemma, fg, bg, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, lemma
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, lemma,
       CAST(fg AS BIGINT) AS fg_docs, CAST(bg AS BIGINT) AS bg_docs,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def rare_terms_sql(src: str, queries: list[dict]) -> str:
    """Rare-terms oracle: per query, the lemmas occurring in the
    matching set whose GLOBAL df <= the query's ``max_doc_count``,
    query lemmas excluded, ranked (df ASC, lemma ASC), top-k — the
    engine's exact rule over the same matching semantics as
    ``significant_terms_sql``. Every compared column is an integer."""
    metas, lems = [], []
    for q in queries:
        lemmas = analyzer.analyze_query(q["query_text"])
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        metas.append(
            f"({analyzer._sql_quote(q['query_id'])}, {scope}, {q['k']}, "
            f"{len(lemmas)}, {int(q['max_doc_count'])})"
        )
        for lem in lemmas:
            lems.append(
                f"({analyzer._sql_quote(q['query_id'])}, {analyzer._sql_quote(lem)})"
            )
    qmeta = (
        "(VALUES " + ", ".join(metas)
        + ") qm(query_id, scope, k, n_terms, maxdc)"
    )
    qlem = (
        "(VALUES " + ", ".join(lems) + ") ql(query_id, lemma)"
        if lems
        else "(SELECT NULL AS query_id, NULL AS lemma WHERE 1=0) ql"
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k, qm.maxdc FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matched AS (
    SELECT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY 1, 2, 3
),
fg AS (
    SELECT m.query_id, p.lemma, count(*) AS fg
    FROM matched m
    JOIN __postings p ON p.conv_id = m.conv_id AND p.turn_idx = m.turn_idx
    GROUP BY 1, 2
),
rare AS (
    SELECT f.query_id, f.lemma, f.fg, d.df AS bg
    FROM fg f
    JOIN dict d ON d.lemma = f.lemma
    JOIN qok q ON q.query_id = f.query_id
    WHERE d.df <= q.maxdc
      AND NOT EXISTS (
          SELECT 1 FROM qterm qt
          WHERE qt.query_id = f.query_id AND qt.lemma = f.lemma
      )
),
ranked AS (
    SELECT query_id, lemma, fg, bg,
           row_number() OVER (
               PARTITION BY query_id ORDER BY bg, lemma
           ) AS rank
    FROM rare
)
SELECT query_id, CAST(rank AS INT) AS rank, lemma,
       CAST(fg AS BIGINT) AS fg_docs, CAST(bg AS BIGINT) AS bg_docs
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def bm25_page_sql(src: str, queries: list[dict], offset: int) -> str:
    """Pagination oracle (T3): ranks strictly after ``offset`` from the
    same deterministic total order."""
    return (
        f"SELECT * FROM ({bm25_topk_sql(src, queries)}) WHERE rank > {offset}"
    )


def bm25_topk_enriched_sql(src: str, queries: list[dict]) -> str:
    """Enriched results (J6): the BM25 top-k joined back to the
    transcript row for role/tool/ts — the oracle for the engine's result
    projection (reference analog: site url/name/title per result,
    ``SearchServiceImpl.java:117-133``)."""
    inner = bm25_topk_sql(src, queries)
    return f"""
SELECT b.query_id, b.rank, b.conv_id, b.turn_idx,
       t.role, coalesce(t.tool, '') AS tool, t.ts, b.score
FROM ({inner}) b
JOIN {src} t ON t.conv_id = b.conv_id AND t.turn_idx = b.turn_idx
"""


def reference_topk_sql(src: str, queries: list[dict], df_cutoff: int = 250) -> str:
    """Reference-parity relevance (G3/G4 + D4 + J4): drop df>=cutoff
    lemmas, conjunctive AND over the rest, relevance = doc Σtf / global
    max doc Σtf, tie-break (relevance DESC, conv_id, turn_idx)."""
    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
maxrel AS (SELECT max(dl) AS m FROM doclen),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k,
           (SELECT count(*) FROM qterm t
             WHERE t.query_id = qm.query_id AND t.df < {df_cutoff}) AS n_kept
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
cand AS (
    SELECT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id AND t.df < {df_cutoff}
    JOIN __postings p ON p.lemma = t.lemma
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.n_kept > 0 AND (q.scope IS NULL OR r.role = q.scope)
    GROUP BY q.query_id, p.conv_id, p.turn_idx
    HAVING count(*) = (SELECT n_kept FROM qok x WHERE x.query_id = q.query_id)
),
scored AS (
    SELECT c.query_id, c.conv_id, c.turn_idx,
           dl.dl * 1.0 / (SELECT m FROM maxrel) AS relevance
    FROM cand c JOIN doclen dl
      ON dl.conv_id = c.conv_id AND dl.turn_idx = c.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, relevance,
           row_number() OVER (
               PARTITION BY query_id ORDER BY relevance DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(relevance, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def suggest_sql(src: str, queries: list[dict]) -> str:
    """Did-you-mean oracle: vocabulary (distinct corpus lemmas, same
    postings CTEs) within ``max_dist`` Levenshtein edits of each probe
    token (analyzer-normalized at SQL-build time, mirroring the engine),
    ranked (dist ASC, df DESC, lemma ASC) top-k. DuckDB's
    ``levenshtein`` is the unit-cost DP the engine's banded variant
    computes below its cap."""
    branches = []
    for q in queries:
        toks = analyzer.normalize_text(q["term"] or "").split()
        if not toks:
            continue
        tok = analyzer._sql_quote(toks[0])
        branches.append(
            f"SELECT {analyzer._sql_quote(q['query_id'])} AS query_id, "
            f"lemma, df, levenshtein(lemma, {tok}) AS dist, {q['k']} AS k "
            f"FROM dict WHERE levenshtein(lemma, {tok}) <= {int(q['max_dist'])}"
        )
    if not branches:
        return (
            "SELECT CAST(NULL AS VARCHAR) AS query_id, CAST(NULL AS INT) AS rank, "
            "CAST(NULL AS VARCHAR) AS suggestion, CAST(NULL AS BIGINT) AS df, "
            "CAST(NULL AS INT) AS dist WHERE 1=0"
        )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, CAST(count(*) AS BIGINT) AS df FROM __postings GROUP BY lemma),
cand AS ({' UNION ALL '.join(branches)}),
ranked AS (
    SELECT query_id, lemma, df, dist, k,
           row_number() OVER (
               PARTITION BY query_id ORDER BY dist, df DESC, lemma
           ) AS rk
    FROM cand
)
SELECT query_id, CAST(rk AS INT) AS rank, lemma AS suggestion, df,
       CAST(dist AS INT) AS dist
FROM ranked WHERE rk <= k
"""


def bm25_decay_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """Function-score recency-decay BM25 top-k oracle: the standard
    skeleton with each matching turn's summed BM25 score multiplied by
    its ts-distance decay factor. The shape constant (gauss 2σ²-style
    denominator / exp λ / linear L) and the epoch-µs origin are folded
    to ONE float64 each in Python — the SAME arithmetic the engine
    runs — and inlined via repr (shortest round-trip, so DuckDB parses
    the identical double); the factor expression mirrors the engine's
    op order exactly: x = greatest(abs(ts_f - origin_f)/1e6 - off, 0),
    then exp(-(x*x)/c) | exp(c*x) | greatest((c-x)/c, 0)."""
    import math as _math
    from datetime import datetime, timezone

    metas, lrows = [], []
    for q in queries:
        lemmas = analyzer.analyze_query(q["query_text"])
        qid = analyzer._sql_quote(q["query_id"])
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        dt = datetime.fromisoformat(q["origin"])
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        origin_f = float(int(dt.timestamp() * 1_000_000))
        scale_s, rate = float(q["scale"]), float(q.get("rate", 0.5))
        off_s = float(q.get("offset", 0.0))
        shape = q.get("shape", "gauss")
        c1 = (-(scale_s * scale_s) / _math.log(rate) if shape == "gauss"
              else _math.log(rate) / scale_s if shape == "exp"
              else scale_s / (1.0 - rate))
        metas.append(
            f"({qid}, {scope}, {q['k']}, {len(lemmas)}, "
            f"{analyzer._sql_quote(shape)}, {origin_f!r}, {c1!r}, {off_s!r})"
        )
        for lem in lemmas:
            lrows.append(f"({qid}, {analyzer._sql_quote(lem)})")
    qmeta = (
        "(VALUES " + ", ".join(metas)
        + ") qm(query_id, scope, k, n_terms, shape, origin_f, c1, off_s)"
    )
    qlem = (
        "(VALUES " + ", ".join(lrows) + ") ql(query_id, lemma)"
        if lrows
        else "(SELECT NULL AS query_id, NULL AS lemma WHERE 1=0) ql"
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
meta AS (SELECT conv_id, turn_idx, role, epoch_us(ts) AS ts_us FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.* FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
dx AS (
    SELECT s.query_id, s.conv_id, s.turn_idx, s.score, q.shape, q.c1,
           greatest(abs(CAST(m.ts_us AS DOUBLE) - q.origin_f) / 1000000.0
                    - q.off_s, 0.0) AS x
    FROM scored s
    JOIN qok q ON q.query_id = s.query_id
    JOIN meta m ON m.conv_id = s.conv_id AND m.turn_idx = s.turn_idx
),
decayed AS (
    SELECT query_id, conv_id, turn_idx,
           score * (CASE shape
                    WHEN 'gauss' THEN exp(-(x * x) / c1)
                    WHEN 'exp' THEN exp(c1 * x)
                    ELSE greatest((c1 - x) / c1, 0.0) END) AS score
    FROM dx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM decayed
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def bm25_boosting_sql(src: str, queries: list[dict], k1: float = 1.2,
                      b: float = 0.75) -> str:
    """Boosting-query (ES ``boosting`` compound) top-k oracle: the
    standard BM25 skeleton with each matching turn's summed score
    multiplied by ``negative_boost`` when the doc contains ANY analyzed
    lemma of the query's negative side (one CASE multiply — the
    engine's exact op), unchanged otherwise. Negative lemmas absent
    from the corpus demote nothing (the exclude no-op rule: the
    negative side joins through postings, so absent lemmas simply
    match no rows)."""
    metas, lrows, nrows = [], [], []
    for q in queries:
        lemmas = analyzer.analyze_query(q["query_text"])
        qid = analyzer._sql_quote(q["query_id"])
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        nb = float(q.get("negative_boost", 0.5))
        metas.append(f"({qid}, {scope}, {q['k']}, {len(lemmas)}, {nb!r})")
        for lem in lemmas:
            lrows.append(f"({qid}, {analyzer._sql_quote(lem)})")
        for lem in dict.fromkeys(analyzer.analyze_query(q["negative"])):
            nrows.append(f"({qid}, {analyzer._sql_quote(lem)})")
    qmeta = (
        "(VALUES " + ", ".join(metas)
        + ") qm(query_id, scope, k, n_terms, nb)"
    )
    qlem = (
        "(VALUES " + ", ".join(lrows) + ") ql(query_id, lemma)"
        if lrows
        else "(SELECT NULL AS query_id, NULL AS lemma WHERE 1=0) ql"
    )
    nlem = (
        "(VALUES " + ", ".join(nrows) + ") nl(query_id, lemma)"
        if nrows
        else "(SELECT NULL AS query_id, NULL AS lemma WHERE 1=0) nl"
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
meta AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
nlem AS (SELECT * FROM {nlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.* FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
negmatch AS (
    SELECT DISTINCT nl.query_id, p.conv_id, p.turn_idx
    FROM nlem nl JOIN __postings p ON p.lemma = nl.lemma
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
demoted AS (
    SELECT s.query_id, s.conv_id, s.turn_idx,
           s.score * (CASE WHEN n.conv_id IS NOT NULL THEN q.nb
                           ELSE 1.0 END) AS score
    FROM scored s
    JOIN qok q ON q.query_id = s.query_id
    LEFT JOIN negmatch n ON n.query_id = s.query_id
         AND n.conv_id = s.conv_id AND n.turn_idx = s.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM demoted
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def bm25_min_match_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """BM25 top-k with minimum-should-match: docs containing at least
    ``min_match`` DISTINCT query lemmas (each query dict carries its
    ``min_match``); scoring sums ONLY the matched terms' contributions —
    exactly the engine's exhaustive msm path. Missing-lemma and scope
    semantics identical to :func:`bm25_topk_sql`."""
    metas, lems = [], []
    for q in queries:
        lemmas = analyzer.analyze_query(q["query_text"])
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        metas.append(
            f"({analyzer._sql_quote(q['query_id'])}, {scope}, {q['k']}, "
            f"{len(lemmas)}, {int(q['min_match'])})"
        )
        for lem in lemmas:
            lems.append(f"({analyzer._sql_quote(q['query_id'])}, {analyzer._sql_quote(lem)})")
    qmeta = "(VALUES " + ", ".join(metas) + ") qm(query_id, scope, k, n_terms, m)"
    qlem = (
        "(VALUES " + ", ".join(lems) + ") ql(query_id, lemma)"
        if lems
        else "(SELECT NULL AS query_id, NULL AS lemma WHERE 1=0) ql"
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k, qm.m
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
      AND qm.m <= qm.n_terms
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
    HAVING count(*) >= min(q.m)
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def prefix_topk_sql(src: str, queries: list[dict], max_expansion: int = 32,
                    k1: float = 1.2, b: float = 0.75) -> str:
    """Prefix (wildcard) top-k oracle: each query's prefix expands to at
    most ``max_expansion`` vocabulary lemmas by (df DESC, lemma ASC) —
    the engine's exact expansion rule — then standard disjunctive BM25
    over the expansion terms."""
    metas = []
    for q in queries:
        toks = analyzer.normalize_text(q["query_text"] or "").split()
        if not toks:
            continue
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        metas.append(
            f"({analyzer._sql_quote(q['query_id'])}, "
            f"{analyzer._sql_quote(toks[0])}, {scope}, {q['k']})"
        )
    if not metas:
        return (
            "SELECT CAST(NULL AS VARCHAR) AS query_id, CAST(NULL AS INT) AS rank, "
            "CAST(NULL AS VARCHAR) AS conv_id, CAST(NULL AS INT) AS turn_idx, "
            "CAST(NULL AS DOUBLE) AS score WHERE 1=0"
        )
    qmeta = "(VALUES " + ", ".join(metas) + ") qm(query_id, prefix, scope, k)"
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
exp AS (
    SELECT query_id, lemma, df FROM (
        SELECT qm.query_id, d.lemma, d.df,
               row_number() OVER (
                   PARTITION BY qm.query_id ORDER BY d.df DESC, d.lemma
               ) AS rk
        FROM qmeta qm JOIN dict d ON d.lemma LIKE qm.prefix || '%'
    ) WHERE rk <= {max_expansion}
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qmeta q
    JOIN exp t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qmeta q WHERE q.query_id = r.query_id)
"""


def wildcard_topk_sql(src: str, queries: list[dict], max_expansion: int = 32,
                      k1: float = 1.2, b: float = 0.75) -> str:
    """Wildcard top-k oracle: each query's pattern (``*``/``?``
    metachars) expands to at most ``max_expansion`` vocabulary lemmas
    by (df DESC, lemma ASC) — the engine's exact rewrite-cap rule —
    then standard disjunctive BM25 over the expansion. The regex is
    built by the SHARED ``analyzer.wildcard_parse`` and matched with
    DuckDB ``regexp_full_match`` (RE2, the same engine as the pyarrow
    kernel the search side uses — identical semantics by
    construction). Unparseable patterns (the engine's ``bad_pattern``
    guard) are skipped, mirroring the wrapper's skip of non-result
    responses."""
    parsed = []
    for q in queries:
        w = analyzer.wildcard_parse(q["query_text"])
        if w is not None:
            parsed.append((q["query_id"], w[0], q["scope"], q["k"]))
    return _regex_rewrite_topk_sql(src, parsed, max_expansion, k1, b)


def regexp_topk_sql(src: str, queries: list[dict], max_expansion: int = 32,
                    k1: float = 1.2, b: float = 0.75) -> str:
    """Regexp top-k oracle (Lucene RegexpQuery rewrite): identical
    body to the wildcard twin — the anchored-RE2 dictionary rewrite,
    df-DESC capped at ``max_expansion``, then disjunctive BM25 — with
    the pattern validated/lowercased by the SHARED
    ``analyzer.regexp_parse``. Invalid patterns (the engine's
    ``bad_pattern`` guard) are skipped, mirroring the wrapper."""
    parsed = []
    for q in queries:
        w = analyzer.regexp_parse(q["query_text"])
        if w is not None:
            parsed.append((q["query_id"], w[0], q["scope"], q["k"]))
    return _regex_rewrite_topk_sql(src, parsed, max_expansion, k1, b)


def _regex_rewrite_topk_sql(src: str, parsed: list[tuple],
                            max_expansion: int, k1: float, b: float) -> str:
    """Shared body of the regex-rewrite query oracles (wildcard /
    regexp): ``parsed`` rows are (query_id, anchored-ready RE2 regex,
    scope|None, k) — the dictionary expands per query via DuckDB
    ``regexp_full_match`` with the engine's (df DESC, lemma ASC) cap,
    then standard disjunctive BM25 over the expansion."""
    metas = []
    for query_id, rx, scope_v, qk in parsed:
        scope = "NULL" if scope_v is None else analyzer._sql_quote(scope_v)
        metas.append(
            f"({analyzer._sql_quote(query_id)}, "
            f"{analyzer._sql_quote(rx)}, {scope}, {qk})"
        )
    if not metas:
        return (
            "SELECT CAST(NULL AS VARCHAR) AS query_id, CAST(NULL AS INT) AS rank, "
            "CAST(NULL AS VARCHAR) AS conv_id, CAST(NULL AS INT) AS turn_idx, "
            "CAST(NULL AS DOUBLE) AS score WHERE 1=0"
        )
    qmeta = "(VALUES " + ", ".join(metas) + ") qm(query_id, pat, scope, k)"
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
exp AS (
    SELECT query_id, lemma, df FROM (
        SELECT qm.query_id, d.lemma, d.df,
               row_number() OVER (
                   PARTITION BY qm.query_id ORDER BY d.df DESC, d.lemma
               ) AS rk
        FROM qmeta qm JOIN dict d ON regexp_full_match(d.lemma, qm.pat)
    ) WHERE rk <= {max_expansion}
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qmeta q
    JOIN exp t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qmeta q WHERE q.query_id = r.query_id)
"""


def fuzzy_topk_sql(src: str, queries: list[dict], max_expansion: int = 16,
                   k1: float = 1.2, b: float = 0.75) -> str:
    """Fuzzy (edit-distance) top-k oracle: each query token expands to
    at most ``max_expansion`` vocabulary lemmas within its Levenshtein
    budget, ranked (dist ASC, df DESC, lemma ASC) per token — the
    engine's exact suggest()-backed expansion rule — then standard
    disjunctive BM25 over the per-query DEDUPLICATED union of the
    expansions (a lemma reachable from two tokens scores once)."""
    metas, toks_rows = [], []
    for q in queries:
        toks = analyzer.normalize_text(q["query_text"] or "").split()
        if not toks:
            continue
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        metas.append(
            f"({analyzer._sql_quote(q['query_id'])}, {scope}, {q['k']}, "
            f"{int(q['dist'])})"
        )
        for tok in toks:
            toks_rows.append(
                f"({analyzer._sql_quote(q['query_id'])}, {analyzer._sql_quote(tok)})"
            )
    if not metas:
        return (
            "SELECT CAST(NULL AS VARCHAR) AS query_id, CAST(NULL AS INT) AS rank, "
            "CAST(NULL AS VARCHAR) AS conv_id, CAST(NULL AS INT) AS turn_idx, "
            "CAST(NULL AS DOUBLE) AS score WHERE 1=0"
        )
    qmeta = "(VALUES " + ", ".join(metas) + ") qm(query_id, scope, k, dist)"
    qtok = "(VALUES " + ", ".join(toks_rows) + ") qt(query_id, tok)"
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qtok AS (SELECT * FROM {qtok}),
exp AS (
    SELECT DISTINCT query_id, lemma, df FROM (
        SELECT qt.query_id, d.lemma, d.df,
               row_number() OVER (
                   PARTITION BY qt.query_id, qt.tok
                   ORDER BY levenshtein(d.lemma, qt.tok), d.df DESC, d.lemma
               ) AS rk
        FROM qtok qt
        JOIN qmeta qm ON qm.query_id = qt.query_id
        JOIN dict d ON levenshtein(d.lemma, qt.tok) <= qm.dist
    ) WHERE rk <= {max_expansion}
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qmeta q
    JOIN exp t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qmeta q WHERE q.query_id = r.query_id)
"""


def facets_day_sql(src: str, queries: list[dict]) -> str:
    """Date-histogram facet oracle: matching-doc counts per UTC calendar
    day (facet='day', value='YYYY-MM-DD') — the same matching semantics
    as :func:`facets_sql` (union of docs containing any query lemma,
    missing lemma -> no rows, scope filter on role); the day is the
    DATE truncation of the corpus's naive-UTC ``ts``, matching the
    engine's epoch-µs floor-division."""
    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
meta AS (
    SELECT conv_id, turn_idx, coalesce(role, '') AS role, ts FROM {src}
),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matched AS (
    SELECT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY 1, 2, 3
),
withmeta AS (
    SELECT m.query_id, r.ts
    FROM matched m JOIN meta r
      ON r.conv_id = m.conv_id AND r.turn_idx = m.turn_idx
)
SELECT query_id, 'day' AS facet,
       strftime(CAST(ts AS DATE), '%Y-%m-%d') AS value,
       CAST(count(*) AS BIGINT) AS n_docs
FROM withmeta GROUP BY 1, 3
"""


def mlt_topk_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """More-like-this oracle: the probe turn's per-lemma tf comes from
    the shared analyzer CTEs (identical to the indexed tf), each
    corpus lemma is weighted tf * ln(1+(n_docs-df+0.5)/(df+0.5)) — the
    engine's one idf — and the top ``max_terms`` by (weight DESC,
    lemma ASC) feed a standard disjunctive BM25, with the probe turn
    excluded from the ranked set."""
    metas = []
    for q in queries:
        scope = "NULL" if q["scope"] is None else analyzer._sql_quote(q["scope"])
        metas.append(
            f"({analyzer._sql_quote(q['query_id'])}, "
            f"{analyzer._sql_quote(q['conv_id'])}, {int(q['turn_idx'])}, "
            f"{int(q['max_terms'])}, {scope}, {q['k']})"
        )
    if not metas:
        return (
            "SELECT CAST(NULL AS VARCHAR) AS query_id, CAST(NULL AS INT) AS rank, "
            "CAST(NULL AS VARCHAR) AS conv_id, CAST(NULL AS INT) AS turn_idx, "
            "CAST(NULL AS DOUBLE) AS score WHERE 1=0"
        )
    qmeta = (
        "(VALUES " + ", ".join(metas)
        + ") qm(query_id, conv_id, turn_idx, max_terms, scope, k)"
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
ptf AS (
    SELECT qm.query_id, l.lemma, count(*) AS tf
    FROM qmeta qm JOIN __lem l
      ON l.conv_id = qm.conv_id AND l.turn_idx = qm.turn_idx
    GROUP BY 1, 2
),
sel AS (
    SELECT query_id, lemma, df FROM (
        SELECT p.query_id, p.lemma, d.df, qm.max_terms,
               row_number() OVER (
                   PARTITION BY p.query_id
                   ORDER BY p.tf * ln(1 + (c.n_docs - d.df + 0.5) / (d.df + 0.5)) DESC,
                            p.lemma
               ) AS rk
        FROM ptf p
        JOIN dict d ON d.lemma = p.lemma
        JOIN qmeta qm ON qm.query_id = p.query_id
        CROSS JOIN corpus c
    ) WHERE rk <= max_terms
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qmeta q
    JOIN sel t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE (q.scope IS NULL OR r.role = q.scope)
      AND NOT (p.conv_id = q.conv_id AND p.turn_idx = q.turn_idx)
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qmeta q WHERE q.query_id = r.query_id)
"""


def deleted_src_sql(src: str, probes: list[dict]) -> str:
    """Corpus-minus-deletes relation: ``src`` with every turn matching
    any delete probe removed — the SQL twin of
    ``pipelines/delta.delete_by_query``'s matching semantics (analyzed
    query lemmas, disjunctive containment, optional role scope, and the
    reference's any-missing-lemma -> that probe deletes nothing rule).
    Because delete never rewrites text, sequential engine deletes equal
    one union-of-matches exclusion over the original corpus, so the
    returned relation feeds any oracle above (e.g. ``bm25_topk_sql``)
    as its ``src``. The inner WITH re-derives the analyzer CTEs over the
    ORIGINAL corpus; DuckDB scopes it inside the parenthesized subquery,
    shadowing the caller's CTEs of the same names."""
    preds = []
    for p in probes:
        lemmas = analyzer.analyze_query(p["query_text"])
        if not lemmas:
            continue
        in_list = ", ".join(f"'{lem}'" for lem in lemmas)
        scope_pred = (
            f" AND s.role = '{p['scope']}'" if p.get("scope") else ""
        )
        preds.append(
            "((SELECT count(DISTINCT lemma) FROM __postings "
            f"WHERE lemma IN ({in_list})) = {len(lemmas)}"
            " AND EXISTS (SELECT 1 FROM __postings p "
            "WHERE p.conv_id = s.conv_id AND p.turn_idx = s.turn_idx "
            f"AND p.lemma IN ({in_list})){scope_pred})"
        )
    if not preds:
        return src
    cond = " OR ".join(preds)
    return (
        f"(WITH {analyzer.postings_ctes_sql(src)} "
        f"SELECT s.* FROM {src} s WHERE NOT ({cond}))"
    )


def percentile_ranks_sql(src: str, queries: list[dict]) -> str:
    """Inverse-percentiles twin (the ES ``percentile_ranks`` shape):
    per (query, probe value), the count of matching docs whose field
    value is <= the probe — integer compares only; the percent itself
    is deliberately absent (its 6-dp rounding can half-tie, see the
    engine docstring). Probes carry their own field and value list."""
    qmeta, qlem = _queries_values(queries)
    vrows = ", ".join(
        f"('{q['query_id']}', '{q['field']}', {int(v)})"
        for q in queries for v in q["values"]
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
meta AS (
    SELECT conv_id, turn_idx, coalesce(role, '') AS role,
           epoch_us(ts) AS ts_us
    FROM {src}
),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matched AS (
    SELECT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY 1, 2, 3
),
vals AS (
    SELECT m.query_id, 'doc_len' AS field, CAST(d.dl AS BIGINT) AS v
    FROM matched m JOIN doclen d
      ON d.conv_id = m.conv_id AND d.turn_idx = m.turn_idx
    UNION ALL
    SELECT m.query_id, 'ts' AS field, CAST(r.ts_us AS BIGINT) AS v
    FROM matched m JOIN meta r
      ON r.conv_id = m.conv_id AND r.turn_idx = m.turn_idx
),
probes AS (SELECT * FROM (VALUES {vrows}) pv(query_id, field, value))
SELECT p.query_id, CAST(p.value AS BIGINT) AS value,
       CAST(count(*) FILTER (v.v <= p.value) AS BIGINT) AS n_le,
       CAST(count(*) AS BIGINT) AS n_docs
FROM probes p JOIN vals v ON v.query_id = p.query_id AND v.field = p.field
GROUP BY 1, 2
"""


def matrix_stats_sql(src: str, queries: list[dict]) -> str:
    """Matrix-stats twin (the ES ``matrix_stats`` two-field shape):
    exact integer cores over SHIFT-BY-MIN doc_len/ts values of the
    matching set (covariance is shift-invariant; shifting keeps the
    squared-µs sums inside HUGEINT). The quadratic sums emit as
    DECIMAL STRINGS (a BIGINT overflows, a DOUBLE rounds); the derived
    cov/corr floats are response-only on the engine side and absent
    here — the percentile_ranks precedent."""
    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
meta AS (
    SELECT conv_id, turn_idx, coalesce(role, '') AS role,
           epoch_us(ts) AS ts_us
    FROM {src}
),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matched AS (
    SELECT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY 1, 2, 3
),
vals AS (
    SELECT m.query_id,
           CAST(d.dl AS BIGINT) AS xv, CAST(r.ts_us AS BIGINT) AS yv
    FROM matched m
    JOIN doclen d ON d.conv_id = m.conv_id AND d.turn_idx = m.turn_idx
    JOIN meta r ON r.conv_id = m.conv_id AND r.turn_idx = m.turn_idx
),
shifted AS (
    SELECT query_id,
           xv - min(xv) OVER (PARTITION BY query_id) AS x,
           yv - min(yv) OVER (PARTITION BY query_id) AS y
    FROM vals
)
SELECT query_id,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(x) AS BIGINT) AS sum_x,
       CAST(sum(y) AS BIGINT) AS sum_y,
       CAST(sum(CAST(x AS HUGEINT) * x) AS VARCHAR) AS sum_xx,
       CAST(sum(CAST(y AS HUGEINT) * y) AS VARCHAR) AS sum_yy,
       CAST(sum(CAST(x AS HUGEINT) * y) AS VARCHAR) AS sum_xy
FROM shifted GROUP BY 1
"""


def extended_stats_sql(src: str, queries: list[dict]) -> str:
    """Extended-stats twin (ES ``extended_stats`` per field): exact
    integer cores only — n/vmin/vmax + SHIFT-BY-MIN sum and square-sum
    as DECIMAL STRINGS (the matrix_stats device); the engine's derived
    avg/variance/std floats are response-only and absent here."""
    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
meta AS (
    SELECT conv_id, turn_idx, coalesce(role, '') AS role,
           epoch_us(ts) AS ts_us
    FROM {src}
),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matched AS (
    SELECT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY 1, 2, 3
),
vals AS (
    SELECT m.query_id,
           CAST(d.dl AS BIGINT) AS xv, CAST(r.ts_us AS BIGINT) AS yv
    FROM matched m
    JOIN doclen d ON d.conv_id = m.conv_id AND d.turn_idx = m.turn_idx
    JOIN meta r ON r.conv_id = m.conv_id AND r.turn_idx = m.turn_idx
),
shifted AS (
    SELECT query_id, xv, yv,
           xv - min(xv) OVER (PARTITION BY query_id) AS x,
           yv - min(yv) OVER (PARTITION BY query_id) AS y
    FROM vals
)
SELECT query_id, 'doc_len' AS field,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(min(xv) AS BIGINT) AS vmin, CAST(max(xv) AS BIGINT) AS vmax,
       CAST(CAST(sum(x) AS HUGEINT) AS VARCHAR) AS sum_shift,
       CAST(sum(CAST(x AS HUGEINT) * x) AS VARCHAR) AS sumsq_shift
FROM shifted GROUP BY query_id
UNION ALL
SELECT query_id, 'ts' AS field,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(min(yv) AS BIGINT) AS vmin, CAST(max(yv) AS BIGINT) AS vmax,
       CAST(CAST(sum(y) AS HUGEINT) AS VARCHAR) AS sum_shift,
       CAST(sum(CAST(y AS HUGEINT) * y) AS VARCHAR) AS sumsq_shift
FROM shifted GROUP BY query_id
"""


def metrics_sql(src: str, queries: list[dict],
                percentiles: tuple = (50, 90, 99)) -> str:
    """Stats + exact nearest-rank percentiles over the matching set
    (oracle for ``SearchEngine.metrics``): same matching semantics as
    :func:`facets_sql`, fields doc_len (count of __lem per doc) and ts
    (epoch-µs); percentile = value at 1-based rank ``(q*n + 99) // 100``
    of the ascending values and v_avg = floor(exact_sum / n) via a
    HUGEINT sum (epoch-µs sums overflow int64) — all integer math,
    identical to the engine."""
    qmeta, qlem = _queries_values(queries)
    pct_cases = ", ".join(
        f"CAST(max(CASE WHEN rn = ({q} * n + 99) // 100 THEN v END) AS BIGINT) AS p{q}"
        for q in percentiles
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
meta AS (
    SELECT conv_id, turn_idx, coalesce(role, '') AS role,
           epoch_us(ts) AS ts_us
    FROM {src}
),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matched AS (
    SELECT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY 1, 2, 3
),
vals AS (
    SELECT m.query_id, 'doc_len' AS field, CAST(d.dl AS BIGINT) AS v
    FROM matched m JOIN doclen d
      ON d.conv_id = m.conv_id AND d.turn_idx = m.turn_idx
    UNION ALL
    SELECT m.query_id, 'ts' AS field, CAST(r.ts_us AS BIGINT) AS v
    FROM matched m JOIN meta r
      ON r.conv_id = m.conv_id AND r.turn_idx = m.turn_idx
),
ranked AS (
    SELECT *, row_number() OVER (PARTITION BY query_id, field ORDER BY v) AS rn,
           count(*) OVER (PARTITION BY query_id, field) AS n
    FROM vals
)
SELECT query_id, field,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(min(v) AS BIGINT) AS v_min,
       CAST(max(v) AS BIGINT) AS v_max,
       CAST(sum(CAST(v AS HUGEINT)) // count(*) AS BIGINT) AS v_avg,
       {pct_cases}
FROM ranked GROUP BY query_id, field
"""


def top_hits_sql(src: str, queries: list[dict], by: str = "role",
                 per_group: int = 3, k1: float = 1.2, b: float = 0.75) -> str:
    """Top hits per bucket (oracle for ``SearchEngine.top_hits``): the
    BM25 scored frame partitioned by the group value, row_number with
    the engine's tie-break, ``per_group`` rows kept per bucket."""
    qmeta, qlem = _queries_values(queries)
    gcol = "coalesce(r.role, '')" if by == "role" else "coalesce(r.tool, '')"
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
meta AS (SELECT conv_id, turn_idx, role, tool FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx, {gcol} AS grp,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY 1, 2, 3, 4
),
ranked AS (
    SELECT query_id, grp, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id, grp
               ORDER BY score DESC, conv_id, turn_idx
           ) AS grank
    FROM scored
)
SELECT query_id, grp AS "group", CAST(grank AS INT) AS grank,
       conv_id, turn_idx, round(score, 6) AS score
FROM ranked WHERE grank <= {per_group}
"""


def explain_sql(src: str, probes: list[dict],
                k1: float = 1.2, b: float = 0.75) -> str:
    """Per-probe per-term BM25 breakdown (the ES ``_explain`` API): for
    each (query, conv, turn) probe one row per query lemma in plan
    order (df ASC, lemma ASC) with (df, tf, dl, idf, weight) — tf and
    weight 0 where the doc lacks the term. Probes with any lemma absent
    from the corpus yield no rows (the engine's no_results rule), as do
    unknown (conv, turn) docs (not_found). 6-dp rounding on the floats
    (idf/weight are single expressions but ``ln(1+x)`` vs ``log1p``
    differ in the last bits — the established protocol; full-precision
    identity vs the scorer is pinned by pytest)."""
    metas, lems = [], []
    for p in probes:
        lemmas = analyzer.analyze_query(p["query_text"])
        metas.append(
            f"('{p['query_id']}', '{p['conv_id']}', {p['turn_idx']}, {len(lemmas)})"
        )
        for lem in lemmas:
            lems.append(f"('{p['query_id']}', '{lem}')")
    qmeta = (
        "(VALUES " + ", ".join(metas) + ") qm(query_id, conv_id, turn_idx, n_terms)"
    )
    qlem = "(VALUES " + ", ".join(lems) + ") ql(query_id, lemma)"
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.*
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
      AND EXISTS (SELECT 1 FROM {src} s
                  WHERE s.conv_id = qm.conv_id AND s.turn_idx = qm.turn_idx)
),
docdl AS (
    SELECT q.query_id, COALESCE(d.dl, 0) AS dl
    FROM qok q LEFT JOIN doclen d
      ON d.conv_id = q.conv_id AND d.turn_idx = q.turn_idx
),
rows_ AS (
    SELECT q.query_id, t.lemma, t.df,
           COALESCE(p.tf, 0) AS tf, dd.dl,
           ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5)) AS idf,
           CASE WHEN p.tf IS NULL THEN 0.0
                ELSE ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
                     * (p.tf * ({k1} + 1.0))
                     / (p.tf + {k1} * (1.0 - {b} + {b} * dd.dl / c.avgdl))
           END AS weight
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN docdl dd ON dd.query_id = q.query_id
    LEFT JOIN __postings p
      ON p.lemma = t.lemma AND p.conv_id = q.conv_id AND p.turn_idx = q.turn_idx
    CROSS JOIN corpus c
)
SELECT query_id,
       CAST(row_number() OVER (
           PARTITION BY query_id ORDER BY df, lemma) AS INT) AS rank,
       lemma, CAST(df AS BIGINT) AS df, CAST(tf AS BIGINT) AS tf,
       CAST(dl AS BIGINT) AS dl,
       round(idf, 6) AS idf, round(weight, 6) AS weight
FROM rows_
"""


def updated_src_sql(src: str, probes: list[dict]) -> str:
    """Corpus-after-updates relation: ``src`` with each update probe's
    matched turns rewritten by its RE2 ``regexp_replace(text, pattern,
    replacement, 'g')`` — the SQL twin of
    ``pipelines/delta.update_by_query``. Probes fold SEQUENTIALLY (each
    probe's matching runs the analyzer CTEs over the PREVIOUS probe's
    output relation, exactly like the engine re-matching the rewritten
    overlay); non-matched rows keep their original (possibly NULL)
    text. Feeds any oracle above as its ``src``."""
    out = src
    for p in probes:
        lemmas = analyzer.analyze_query(p["query_text"])
        if not lemmas:
            continue
        in_list = ", ".join(f"'{lem}'" for lem in lemmas)
        scope_pred = (
            f" AND s.role = '{p['scope']}'" if p.get("scope") else ""
        )
        matched = (
            "((SELECT count(DISTINCT lemma) FROM __postings "
            f"WHERE lemma IN ({in_list})) = {len(lemmas)}"
            " AND EXISTS (SELECT 1 FROM __postings p "
            "WHERE p.conv_id = s.conv_id AND p.turn_idx = s.turn_idx "
            f"AND p.lemma IN ({in_list})){scope_pred})"
        )
        out = (
            f"(WITH {analyzer.postings_ctes_sql(out)} "
            "SELECT s.conv_id, s.turn_idx, s.role, "
            f"CASE WHEN {matched} THEN regexp_replace(coalesce(s.text, ''), "
            f"'{p['pattern']}', '{p['replacement']}', 'g') "
            "ELSE s.text END AS text, s.tool, s.ts "
            f"FROM {out} s)"
        )
    return out


def rank_eval_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """Ranked-retrieval evaluation twin (the ES ``_rank_eval`` shape):
    per query, integer metrics of the BM25 top-k page (the ``ranked``
    CTE shared with ``bm25_topk_sql`` — rank identity is already pinned
    there) against the deterministic pseudo-assessor grading
    ``(turn_idx + length(conv_id)) % 3`` over the query's full matching
    set. ``gain_ideal`` sums the k best pool gains ordered by rating
    DESC only — ties at the cut share a rating, so the subset sum is
    tie-insensitive and no float discount enters the comparison."""
    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5))
               * (p.tf * ({k1} + 1.0))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
),
rated AS (
    SELECT query_id, conv_id, turn_idx,
           (turn_idx + length(conv_id)) % 3 AS rating
    FROM scored
),
ideal AS (
    SELECT query_id, rating,
           row_number() OVER (PARTITION BY query_id ORDER BY rating DESC) AS rn
    FROM rated
),
pool AS (
    SELECT i.query_id,
           count(*) FILTER (WHERE i.rating > 0) AS n_rel,
           coalesce(sum(CASE WHEN i.rn <= q.k
                             THEN (CAST(1 AS BIGINT) << i.rating) - 1
                             ELSE 0 END), 0) AS gain_ideal
    FROM ideal i JOIN qok q ON q.query_id = i.query_id
    GROUP BY i.query_id
),
hr AS (
    SELECT h.query_id, h.rank, rt.rating
    FROM ranked h
    JOIN qok q ON q.query_id = h.query_id
    JOIN rated rt ON rt.query_id = h.query_id
        AND rt.conv_id = h.conv_id AND rt.turn_idx = h.turn_idx
    WHERE h.rank <= q.k
),
perq AS (
    SELECT query_id,
           count(*) AS n_hits,
           count(*) FILTER (WHERE rating > 0) AS n_rel_ret,
           coalesce(min(rank) FILTER (WHERE rating > 0), 0) AS first_rel_rank,
           sum((CAST(1 AS BIGINT) << rating) - 1) AS gain_top
    FROM hr GROUP BY query_id
)
SELECT p.query_id, CAST(q.k AS BIGINT) AS k,
       CAST(p.n_hits AS BIGINT) AS n_hits,
       CAST(l.n_rel AS BIGINT) AS n_rel,
       CAST(p.n_rel_ret AS BIGINT) AS n_rel_ret,
       CAST(p.first_rel_rank AS BIGINT) AS first_rel_rank,
       CAST(p.gain_top AS BIGINT) AS gain_top,
       CAST(l.gain_ideal AS BIGINT) AS gain_ideal
FROM perq p
JOIN pool l ON l.query_id = p.query_id
JOIN qok q ON q.query_id = p.query_id
"""


def termvectors_sql(src: str, probes: list[dict]) -> str:
    """Per-document term statistics twin (the ES ``_termvectors``
    shape): for each probe (conv_id, turn_idx), every distinct lemma of
    the doc with its tf (this doc), df (corpus) and dl (this doc) from
    the shared analyzer CTEs. Probes naming unknown docs simply join to
    nothing — the engine's not_found rows are skipped by the wrapper."""
    vals = ", ".join(
        f"('{p['query_id']}', '{p['conv_id']}', {int(p['turn_idx'])})"
        for p in probes
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
probes AS (SELECT * FROM (VALUES {vals}) pr(query_id, conv_id, turn_idx))
SELECT pr.query_id, p.lemma, CAST(p.tf AS BIGINT) AS tf,
       CAST(d.df AS BIGINT) AS df, CAST(dl.dl AS BIGINT) AS dl
FROM probes pr
JOIN __postings p ON p.conv_id = pr.conv_id AND p.turn_idx = pr.turn_idx
JOIN dict d ON d.lemma = p.lemma
JOIN doclen dl ON dl.conv_id = pr.conv_id AND dl.turn_idx = pr.turn_idx
"""


def export_sql(src: str, queries: list[dict]) -> str:
    """Matching-set export twin (the ES scroll/reindex shape): every
    source row whose doc matches the query (any-lemma disjunction,
    optional role scope, the engine's missing-lemma -> empty rule),
    with its full transcript columns."""
    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matchd AS (
    SELECT DISTINCT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
)
SELECT m.query_id, s.conv_id, s.turn_idx, s.role, s.tool, s.ts, s.text
FROM matchd m
JOIN {src} s ON s.conv_id = m.conv_id AND s.turn_idx = m.turn_idx
"""


def export_sliced_sql(src: str, queries: list[dict], slices: int) -> str:
    """Sliced-export twin (the ES *sliced scroll*): the full export row
    set PLUS each row's slice assignment ``docid % slices``, where the
    docid is recomputed in SQL from its public formula — ``(dense rank
    of conv_id over the WHOLE corpus's distinct conv_ids, 0-based) *
    2^TURN_BITS + turn_idx`` (docid.py:33; the rank is over ALL corpus
    conversations, matching or not — the build assigns ranks before any
    query exists). Checking slice_id per row pins disjointness AND the
    exact membership function, not just the union."""
    from .config import TURN_BITS

    qmeta, qlem = _queries_values(queries)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
convs AS (
    SELECT conv_id,
           dense_rank() OVER (ORDER BY conv_id) - 1 AS crank
    FROM (SELECT DISTINCT conv_id FROM {src})
),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
qterm AS (
    SELECT ql.query_id, ql.lemma
    FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matchd AS (
    SELECT DISTINCT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
)
SELECT m.query_id,
       (c.crank * {1 << TURN_BITS} + s.turn_idx) % {int(slices)} AS slice_id,
       s.conv_id, s.turn_idx, s.role, s.tool, s.ts, s.text
FROM matchd m
JOIN {src} s ON s.conv_id = m.conv_id AND s.turn_idx = m.turn_idx
JOIN convs c ON c.conv_id = m.conv_id
"""


def composite_sql(src: str, queries: list[dict]) -> str:
    """Composite-aggregation twin (the ES ``composite`` shape): per
    query, the occurring (role, tool) pair buckets of the matching set
    in composite key order (role ASC, tool ASC), strictly after the
    probe's ``after`` key, capped at the probe's page size (rides the
    qmeta ``k`` column). DuckDB's row-value comparison mirrors the
    engine's tuple compare exactly."""
    qmeta, qlem = _queries_values(queries)
    afters = ", ".join(
        "('{qid}', {has}, '{ar}', '{at}')".format(
            qid=q["query_id"],
            has=1 if q.get("after") else 0,
            ar=(q.get("after") or ("", ""))[0],
            at=(q.get("after") or ("", ""))[1],
        )
        for q in queries
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
meta AS (
    SELECT conv_id, turn_idx, coalesce(role, '') AS role,
           coalesce(tool, '') AS tool FROM {src}
),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
afters AS (SELECT * FROM (VALUES {afters}) af(query_id, has_after, after_role, after_tool)),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matched AS (
    SELECT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY 1, 2, 3
),
buckets AS (
    SELECT m.query_id, r.role, r.tool, CAST(count(*) AS BIGINT) AS n_docs
    FROM matched m JOIN meta r
      ON r.conv_id = m.conv_id AND r.turn_idx = m.turn_idx
    GROUP BY 1, 2, 3
),
filtered AS (
    SELECT b.* FROM buckets b JOIN afters a ON a.query_id = b.query_id
    WHERE a.has_after = 0 OR (b.role, b.tool) > (a.after_role, a.after_tool)
),
paged AS (
    SELECT f.*, row_number() OVER (
        PARTITION BY query_id ORDER BY role, tool
    ) AS rn
    FROM filtered f
)
SELECT p.query_id, p.role, p.tool, p.n_docs
FROM paged p JOIN qok q ON q.query_id = p.query_id
WHERE p.rn <= q.k
"""


def suggest_query_sql(src: str, queries: list[dict]) -> str:
    """Whole-query did-you-mean twin (the ES phrase-suggester shape):
    tokenization/stopword filtering happens HERE at build time with the
    same analyzer module the engine uses; per surviving token the
    candidate set is (exact-lemma row) UNION (vocabulary within
    max_dist edits of the normalized token), ranked (exact-lemma first,
    dist ASC, df DESC, lemma ASC) take 1. Tokens with no candidate at
    all emit nothing (the engine's dist = -1 rows are dropped by the
    wrapper)."""
    branches = []
    for q in queries:
        toks = [
            t for t in analyzer.normalize_text(q["query_text"] or "").split()
            if len(t) >= analyzer.MIN_TOKEN_LEN and t not in analyzer._STOPSET
        ]
        for pos, tok in enumerate(toks):
            lem = analyzer.lemmatize_token(tok)
            qt = analyzer._sql_quote(tok)
            ql = analyzer._sql_quote(lem)
            branches.append(
                f"SELECT {analyzer._sql_quote(q['query_id'])} AS query_id, "
                f"{pos} AS pos, {qt} AS token, lemma, df, "
                f"CASE WHEN lemma = {ql} THEN 0 ELSE 1 END AS not_exact, "
                f"levenshtein(lemma, {qt}) AS dist "
                f"FROM dict WHERE lemma = {ql} "
                f"OR levenshtein(lemma, {qt}) <= {int(q.get('max_dist', 2))}"
            )
    if not branches:
        return (
            "SELECT CAST(NULL AS VARCHAR) AS query_id, CAST(NULL AS INT) AS pos, "
            "CAST(NULL AS VARCHAR) AS token, CAST(NULL AS VARCHAR) AS suggestion, "
            "CAST(NULL AS BIGINT) AS df, CAST(NULL AS INT) AS dist WHERE 1=0"
        )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, CAST(count(*) AS BIGINT) AS df FROM __postings GROUP BY lemma),
cand AS ({' UNION ALL '.join(branches)}),
ranked AS (
    SELECT query_id, pos, token, lemma, df, dist,
           row_number() OVER (
               PARTITION BY query_id, pos
               ORDER BY not_exact, dist, df DESC, lemma
           ) AS rk
    FROM cand
)
SELECT query_id, CAST(pos AS INT) AS pos, token, lemma AS suggestion,
       df, CAST(dist AS INT) AS dist
FROM ranked WHERE rk = 1
"""


def bm25_boosted_sql(src: str, queries: list[dict], k1: float = 1.2, b: float = 0.75) -> str:
    """Query-time term-boosting twin (the Lucene ``term^w`` weight):
    the standard BM25 top-k skeleton with each term's contribution
    multiplied by its per-(query, lemma) boost FIRST — the SQL
    parenthesization ``((ln(...) * boost) * tf_part) / denom`` mirrors
    the engine's pre-scaled-idf op order exactly, and coalesce(1.0)
    keeps unboosted terms bitwise-identical to the plain oracle. Boost
    keys are analyzer-normalized at build time like the synonyms
    mapping."""
    qmeta, qlem = _queries_values(queries)
    brows = []
    for q in queries:
        for key, w in (q.get("boosts") or {}).items():
            klems = analyzer.analyze_query(str(key))
            if len(klems) == 1:
                brows.append(
                    f"('{q['query_id']}', '{klems[0]}', {float(w)!r})"
                )
    boosts = (
        "(VALUES " + ", ".join(brows) + ") bs(query_id, lemma, boost)"
        if brows
        else "(SELECT NULL AS query_id, NULL AS lemma, "
             "CAST(NULL AS DOUBLE) AS boost WHERE 1=0) bs"
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
corpus AS (
    SELECT count(*) AS n_docs,
           (SELECT count(*) FROM __lem) * 1.0 / count(*) AS avgdl
    FROM {src}
),
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, count(*) AS dl FROM __lem GROUP BY conv_id, turn_idx
),
roles AS (SELECT conv_id, turn_idx, role FROM {src}),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
boosts AS (SELECT * FROM {boosts}),
qterm AS (
    SELECT ql.query_id, ql.lemma, d.df,
           coalesce(bs.boost, 1.0) AS boost
    FROM qlem ql
    JOIN dict d ON ql.lemma = d.lemma
    LEFT JOIN boosts bs ON bs.query_id = ql.query_id AND bs.lemma = ql.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope, qm.k
    FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
scored AS (
    SELECT q.query_id, p.conv_id, p.turn_idx,
           sum(((ln(1 + (c.n_docs - t.df + 0.5) / (t.df + 0.5)) * t.boost)
                * (p.tf * ({k1} + 1.0)))
               / (p.tf + {k1} * (1.0 - {b} + {b} * dl.dl / c.avgdl))) AS score
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN doclen dl ON dl.conv_id = p.conv_id AND dl.turn_idx = p.turn_idx
    JOIN roles r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    CROSS JOIN corpus c
    WHERE q.scope IS NULL OR r.role = q.scope
    GROUP BY q.query_id, p.conv_id, p.turn_idx
),
ranked AS (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
               PARTITION BY query_id ORDER BY score DESC, conv_id, turn_idx
           ) AS rank
    FROM scored
)
SELECT query_id, CAST(rank AS INT) AS rank, conv_id, turn_idx,
       round(score, 6) AS score
FROM ranked r
WHERE rank <= (SELECT k FROM qok q WHERE q.query_id = r.query_id)
"""


def histogram_sql(src: str, queries: list[dict]) -> str:
    """Fixed-interval histogram twin (the ES ``histogram`` /
    fixed-interval ``date_histogram`` shape): per query, matching-doc
    counts grouped by ``(v // interval) * interval`` over doc_len or
    epoch-µs ts — pure integer math on both sides. Probes carry their
    own field and interval."""
    qmeta, qlem = _queries_values(queries)
    frows = ", ".join(
        f"('{q['query_id']}', '{q['field']}', {int(q['interval'])})"
        for q in queries
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, CAST(count(*) AS BIGINT) AS dl
    FROM __lem GROUP BY conv_id, turn_idx
),
meta AS (
    SELECT conv_id, turn_idx, role, epoch_us(ts) AS ts_us FROM {src}
),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
fields AS (SELECT * FROM (VALUES {frows}) fl(query_id, field, interval)),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matchd AS (
    SELECT DISTINCT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
),
vals AS (
    SELECT m.query_id, f.interval,
           CASE WHEN f.field = 'doc_len' THEN coalesce(dl.dl, 0)
                ELSE mt.ts_us END AS v
    FROM matchd m
    JOIN fields f ON f.query_id = m.query_id
    LEFT JOIN doclen dl ON dl.conv_id = m.conv_id AND dl.turn_idx = m.turn_idx
    JOIN meta mt ON mt.conv_id = m.conv_id AND mt.turn_idx = m.turn_idx
)
SELECT query_id, (v // interval) * interval AS bucket,
       CAST(count(*) AS BIGINT) AS n_docs
FROM vals GROUP BY 1, 2
"""


def cardinality_sql(src: str, queries: list[dict]) -> str:
    """Exact-cardinality twin (the ES ``cardinality`` aggregation):
    per (query, field), COUNT(DISTINCT value) over the matching set —
    conv_id / role / tool (the stored ``''`` counts as a value on both
    sides) / UTC epoch-day / doc_len / epoch-µs ts. Values compare as
    VARCHAR (the CASE union type); distinctness is unaffected because
    each field's int->text map is injective."""
    qmeta, qlem = _queries_values(queries)
    frows = ", ".join(
        f"('{q['query_id']}', '{f}')"
        for q in queries for f in q["fields"].split(",")
    )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, CAST(count(*) AS BIGINT) AS dl
    FROM __lem GROUP BY conv_id, turn_idx
),
meta AS (
    SELECT conv_id, turn_idx, role, tool, epoch_us(ts) AS ts_us FROM {src}
),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
fields AS (SELECT * FROM (VALUES {frows}) fl(query_id, field)),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matchd AS (
    SELECT DISTINCT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
),
counts AS (
    SELECT query_id, CAST(count(*) AS BIGINT) AS n_docs
    FROM matchd GROUP BY 1
),
vals AS (
    SELECT m.query_id, f.field,
           CASE f.field
                WHEN 'conv' THEN m.conv_id
                WHEN 'role' THEN mt.role
                WHEN 'tool' THEN mt.tool
                WHEN 'day' THEN CAST(mt.ts_us // 86400000000 AS VARCHAR)
                WHEN 'doc_len' THEN CAST(coalesce(dl.dl, 0) AS VARCHAR)
                ELSE CAST(mt.ts_us AS VARCHAR) END AS v
    FROM matchd m
    JOIN fields f ON f.query_id = m.query_id
    LEFT JOIN doclen dl ON dl.conv_id = m.conv_id AND dl.turn_idx = m.turn_idx
    JOIN meta mt ON mt.conv_id = m.conv_id AND mt.turn_idx = m.turn_idx
)
SELECT v.query_id, v.field,
       CAST(count(DISTINCT v.v) AS BIGINT) AS n_distinct,
       c.n_docs
FROM vals v JOIN counts c ON c.query_id = v.query_id
GROUP BY 1, 2, 4
"""


def range_agg_sql(src: str, queries: list[dict]) -> str:
    """Range-aggregation twin (the ES ``range`` / ``date_range``
    shape): per query, matching-doc counts per half-open [from, to)
    bucket over doc_len or epoch-µs ts — from inclusive, to exclusive,
    NULL = open side. EVERY requested bucket emits (zero or not) for
    queries whose lemmas all exist (the engine's all-buckets rule);
    ``ridx`` carries the request order through the hash. Probes carry
    their own field and integer bounds."""
    qmeta, qlem = _queries_values(queries)
    frows = ", ".join(
        f"('{q['query_id']}', '{q['field']}')" for q in queries
    )
    rrows = []
    for q in queries:
        for i, (lo, hi) in enumerate(q["ranges"]):
            lo_s = "CAST(NULL AS BIGINT)" if lo is None else str(int(lo))
            hi_s = "CAST(NULL AS BIGINT)" if hi is None else str(int(hi))
            key = f"{'*' if lo is None else int(lo)}-" \
                  f"{'*' if hi is None else int(hi)}"
            rrows.append(f"('{q['query_id']}', {i}, '{key}', {lo_s}, {hi_s})")
    ranges_rel = ", ".join(rrows)
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, count(*) AS df FROM __postings GROUP BY lemma),
doclen AS (
    SELECT conv_id, turn_idx, CAST(count(*) AS BIGINT) AS dl
    FROM __lem GROUP BY conv_id, turn_idx
),
meta AS (
    SELECT conv_id, turn_idx, role, epoch_us(ts) AS ts_us FROM {src}
),
qmeta AS (SELECT * FROM {qmeta}),
qlem AS (SELECT * FROM {qlem}),
fields AS (SELECT * FROM (VALUES {frows}) fl(query_id, field)),
rngs AS (
    SELECT * FROM (VALUES {ranges_rel}) rr(query_id, ridx, key, rfrom, rto)
),
qterm AS (
    SELECT ql.query_id, ql.lemma FROM qlem ql JOIN dict d ON ql.lemma = d.lemma
),
qok AS (
    SELECT qm.query_id, qm.scope FROM qmeta qm
    WHERE qm.n_terms > 0
      AND qm.n_terms = (SELECT count(*) FROM qterm t WHERE t.query_id = qm.query_id)
),
matchd AS (
    SELECT DISTINCT q.query_id, p.conv_id, p.turn_idx
    FROM qok q
    JOIN qterm t ON t.query_id = q.query_id
    JOIN __postings p ON p.lemma = t.lemma
    JOIN meta r ON r.conv_id = p.conv_id AND r.turn_idx = p.turn_idx
    WHERE q.scope IS NULL OR r.role = q.scope
),
vals AS (
    SELECT m.query_id,
           CASE WHEN f.field = 'doc_len' THEN coalesce(dl.dl, 0)
                ELSE mt.ts_us END AS v
    FROM matchd m
    JOIN fields f ON f.query_id = m.query_id
    LEFT JOIN doclen dl ON dl.conv_id = m.conv_id AND dl.turn_idx = m.turn_idx
    JOIN meta mt ON mt.conv_id = m.conv_id AND mt.turn_idx = m.turn_idx
),
counts AS (
    SELECT r.query_id, r.ridx, CAST(count(*) AS BIGINT) AS n
    FROM rngs r
    JOIN vals v ON v.query_id = r.query_id
       AND (r.rfrom IS NULL OR v.v >= r.rfrom)
       AND (r.rto IS NULL OR v.v < r.rto)
    GROUP BY 1, 2
)
SELECT r.query_id, CAST(r.ridx AS BIGINT) AS ridx, r.key,
       r.rfrom AS range_from, r.rto AS range_to,
       coalesce(c.n, 0) AS n_docs
FROM rngs r
JOIN qok q ON q.query_id = r.query_id
JOIN (SELECT query_id FROM vals GROUP BY 1) nz ON nz.query_id = r.query_id
LEFT JOIN counts c ON c.query_id = r.query_id AND c.ridx = r.ridx
"""


def analyze_sql(probes: list[dict]) -> str:
    """Analysis-introspection twin (the ES ``_analyze`` shape): the
    probe texts run through the SQL analyzer chain — DuckDB lower/RE2
    fold/split + the generated suffix-rule CASE — independently of the
    engine's Arrow kernels; ``pos`` is the surviving-token ordinal (the
    positional index coordinate). Needs no source relation at all."""
    vals = ", ".join(
        f"({analyzer._sql_quote(p['query_id'])}, {analyzer._sql_quote(p['text'])})"
        for p in probes
    )
    return f"""
WITH probes AS (SELECT * FROM (VALUES {vals}) p(query_id, txt)),
s AS (
    SELECT query_id,
           string_split(trim(regexp_replace(lower(txt),
               '{analyzer.NON_WORD_REGEX}', ' ', 'g')), ' ') AS toks
    FROM probes
),
nums AS (
    -- DuckDB's generate_series takes no lateral refs: a fixed 1..512
    -- series cross-joined then length-filtered (probe texts are short)
    SELECT CAST(i AS INT) AS i FROM generate_series(1, 512) g(i)
),
tok AS (
    SELECT query_id, n.i AS raw_i, toks[n.i] AS tok
    FROM s CROSS JOIN nums n
    WHERE n.i <= len(toks)
),
surv AS (
    SELECT query_id, tok,
           CAST(row_number() OVER (
               PARTITION BY query_id ORDER BY raw_i
           ) - 1 AS INT) AS pos
    FROM tok
    WHERE length(tok) >= {analyzer.MIN_TOKEN_LEN}
      AND tok NOT IN ({analyzer.stopword_sql_list()})
)
SELECT query_id, pos, tok AS token, {analyzer.lemma_case_sql('tok')} AS lemma
FROM surv
"""


def complete_sql(src: str, probes: list[dict]) -> str:
    """Completion-suggester twin: per probe prefix (analyzer-folded at
    build time, sub-minimum prefixes skipped — the engine's
    short_prefix guard), the top-k dictionary lemmas in the contiguous
    prefix range ranked (df DESC, lemma ASC)."""
    from .search import SearchEngine

    branches = []
    for p in probes:
        toks = analyzer.normalize_text(p["prefix"] or "").split()
        if not toks or len(toks[0]) < SearchEngine.PREFIX_MIN_LEN:
            continue
        pre = analyzer._sql_quote(toks[0])
        branches.append(
            f"SELECT {analyzer._sql_quote(p['query_id'])} AS query_id, "
            f"lemma, df, {int(p['k'])} AS k "
            f"FROM dict WHERE lemma LIKE {pre[:-1]}%' "
        )
    if not branches:
        return (
            "SELECT CAST(NULL AS VARCHAR) AS query_id, "
            "CAST(NULL AS VARCHAR) AS lemma, CAST(NULL AS BIGINT) AS df "
            "WHERE 1=0"
        )
    return f"""
WITH {analyzer.postings_ctes_sql(src)},
dict AS (SELECT lemma, CAST(count(*) AS BIGINT) AS df FROM __postings GROUP BY lemma),
cand AS ({' UNION ALL '.join(branches)}),
ranked AS (
    SELECT query_id, lemma, df, k,
           row_number() OVER (
               PARTITION BY query_id ORDER BY df DESC, lemma
           ) AS rk
    FROM cand
)
SELECT query_id, lemma, df FROM ranked WHERE rk <= k
"""
