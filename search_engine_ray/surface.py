"""The read surface, declared once: every read endpoint of the engine (the
analog of the reference's ``ApiController`` REST API) is one ``Endpoint``
in ``ENDPOINTS``. An entry names the engine method (as a string, so
importing this module imports no engine), its HTTP path, its CLI
subcommand, each parameter and the response keys. ``server.py`` answers
the ``HTTP`` routes and ``__main__.py`` generates one subcommand per
``CLI`` name; both go through ``answer``, so every request parameter is
read by one converter in one place.

A parameter (``P``) carries the engine keyword ``kw``, its query-string
names ``http`` (aliases: the first present wins), its CLI ``--flag`` or
positional name ``cli``, and ``conv``, which turns the raw value (a
string; True for a CLI switch; a list for a repeated parameter) into the
engine's value. An absent parameter is not passed, so the engine's own
default applies, unless the parameter declares a ``default`` or a
``required`` refusal code.

The surface answers a request itself only where the engine cannot:
a value that does not convert (``bad_request``), JSON that does not
decode (``bad_docs``, ``bad_ranges``, ``bad_filters``, ``bad_body``), a
missing required parameter (``empty_query``, ``not_found``,
``bad_values``), and a conversation-grouped search given a parameter that
grouping does not take (``bad_group``). Every other check is the engine's.

A route may hold a base endpoint and variants (``/api/search`` with
``group=conv``, CLI ``histogram --pipeline``): a variant runs when its
``switch`` is on, and refuses with its ``refuse`` code any parameter of
the route it does not take, rather than ignore it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

MISSING = object()


class Refused(Exception):
    """A request the surface answers itself, before the engine runs."""

    def __init__(self, error: str):
        super().__init__(error)
        self.error = error


def on(v) -> bool:
    """A switch: a CLI flag (True) or an HTTP ``1``/``true``."""
    return v is True or v in ("1", "true")


def kv(s: str) -> dict | None:
    """``k=v;k2=v2`` -> {k: v, k2: v2}; None when empty. Values stay
    strings: the engine validates them (``bad_decay``, ``bad_rescore``)."""
    out = {}
    for part in s.split(";"):
        key, eq, val = part.partition("=")
        if eq:
            out[key.strip()] = val.strip()
    return out or None


def synonyms(s: str) -> dict | None:
    """``key=v1|v2;key2=v3`` -> {key: [v1, v2], key2: [v3]}."""
    m = kv(s)
    return m and {k: [x.strip() for x in v.split("|") if x.strip()]
                  for k, v in m.items()}


def boosts(s: str) -> dict | None:
    """``term=2.5;other=0.5`` -> {term: 2.5, other: 0.5}; a weight that is
    not a number stays a string, so the engine answers ``bad_boosts``."""
    def num(v):
        try:
            return float(v)
        except ValueError:
            return v

    m = kv(s)
    return m and {k: num(v) for k, v in m.items()}


def json_arg(error: str, kind=object) -> Callable:
    """A JSON-valued parameter; undecodable (or not a ``kind``) -> ``error``."""
    def conv(v):
        try:
            got = json.loads(v)
        except ValueError:
            raise Refused(error) from None
        if not isinstance(got, kind):
            raise Refused(error)
        return got

    return conv


def comma_list(s: str) -> list[str]:
    return [v.strip() for v in s.split(",") if v.strip()]


def cursor(v) -> tuple:
    """``score,conv_id,turn_idx`` over HTTP; three CLI words."""
    return tuple(v.split(",", 2) if isinstance(v, str) else v)


def int_pair(s: str) -> tuple[int, int]:
    try:
        i, n = (int(v) for v in s.split(","))
    except ValueError:
        raise Refused("bad_slice") from None
    return i, n


@dataclass(frozen=True, eq=False)
class Param:
    kw: str
    http: tuple[str, ...]
    cli: str
    conv: Callable
    flag: bool = False            # a CLI store_true switch
    nargs: int | str | None = None
    default: object = MISSING
    required: str | None = None   # refusal code when absent or empty
    body: bool = False            # HTTP: the POST body; CLI: '-' reads stdin
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.cli.lstrip("-").replace("-", "_")


def P(kw: str, http=None, cli: str | None = None, conv=None, **opts) -> Param:
    """A parameter; ``http`` defaults to ``kw``, ``cli`` to ``--kw``."""
    http = (kw,) if http is None else (http,) if isinstance(http, str) else http
    cli = "--" + kw.replace("_", "-") if cli is None else cli
    conv = conv or (on if opts.get("flag") else str)
    return Param(kw, tuple(http), cli, conv, **opts)


@dataclass(frozen=True, eq=False)
class Endpoint:
    method: str
    http: str | None
    cli: str
    params: tuple[Param, ...]
    help: str = ""
    keys: tuple[str, ...] = ("count", "error", "data")
    switch: Param | None = None
    refuse: str = "bad_request"
    prepare: Callable[[dict], None] | None = None
    index: str = "out"   # CLI: --out | "alias" (--out or --alias) | "outs" (shards)
    ray: bool = False    # CLI: the engine method runs a Ray Data job

    @property
    def verb(self) -> str:
        return "POST" if any(p.body for p in self.params) else "GET"


def E(method: str, http: str | None, cli: str, *params: Param, **opts) -> Endpoint:
    return Endpoint(method, http, cli, params, **opts)


def _composite_after(kw: dict) -> None:
    role, tool = kw.pop("after_role", None), kw.pop("after_tool", "")
    if role is not None:
        kw["after"] = (role, tool)


def _export_slice(kw: dict) -> None:
    if "slice" in kw:
        kw["slice_id"], kw["slice_max"] = kw.pop("slice")


# ---- parameter groups ----------------------------------------------------

QUERY = P("query_text", "query", "query", required="empty_query")
SCOPE = P("scope", ("site", "scope"), help="a role value or tool:<name>")
CONJ = P("conjunctive", flag=True)
FILTERS = (
    P("exclude", help="NOT terms: drop docs containing any of these lemmas"),
    P("ts_min", help="inclusive ISO-8601 / epoch-us lower bound on the turn ts"),
    P("ts_max", help="inclusive upper bound on the turn ts"),
)
MATCHING = (SCOPE, CONJ, *FILTERS)   # what every matching-set aggregation takes
PAGE = (P("offset", conv=int), P("limit", conv=int))
CONV = P("conv_id", "conv", "conv_id", required="not_found")
TURN = P("turn_idx", "turn", "turn_idx", int, default=0)
FIELD = P("field", help="doc_len or ts")
HISTOGRAM = (QUERY, FIELD, P("interval", conv=int), *MATCHING)
SNIPPETS = P("with_snippets", "snippets", "--snippets",
             lambda v: "full" if v == "full" else on(v), flag=True)
DECAY = P("decay", conv=kv, help="recency decay 'origin=ISO;scale=SECONDS"
          "[;shape=gauss|exp|linear][;rate=0.5][;offset=0]' (ES function_score)")
NEGATIVE = (P("negative", help="demote docs containing any of these lemmas"),
            P("negative_boost", conv=float, help="demotion factor in [0, 1] (default 0.5)"))
FILTERS_JSON = P("filters", conv=json_arg("bad_filters"), cli="filters",
                 required="bad_filters", help="JSON object {key: query text}")

ENDPOINTS = (
    E("search", "/api/search", "search", QUERY, SCOPE, *PAGE,
      P("mode", help="bm25 | reference | phrase | phrase_prefix | near | prefix"
        " | wildcard | regexp | fuzzy | auto"),
      P("method", help="blockmax (the exact scorer the query's shape favours)"
        " | exhaustive (term-at-a-time)"), CONJ, SNIPPETS,
      P("with_snippets", (), "--highlight", lambda v: "full", flag=True,
        help="the whole cleaned text with query words in <b></b>"),
      P("near_window", "window", conv=int, help="near mode: token-window width"),
      P("in_order", flag=True, help="near mode: lemmas in query order"),
      P("within_first", conv=int, help="phrase mode: match ends within the first N tokens"),
      P("fuzzy_dist", "fuzzy", conv=int, help="fuzzy mode: edits per token (0-3)"),
      P("min_match", conv=int, help="keep docs holding at least M query lemmas"),
      *FILTERS, *NEGATIVE,
      P("collapse", conv=int, help="at most N turns per conversation"),
      P("order_by", "order", help="score | ts_desc | ts_asc | rrf"),
      P("search_after", "after", "--after", cursor, nargs=3,
        help="SCORE CONV_ID TURN_IDX: the last row of the previous page"),
      P("synonyms", conv=synonyms, help="'key=v1|v2;key2=v3' (bm25 mode)"),
      P("boosts", "boost", "--boost", boosts, help="'term=2.5;other=0.5' (bm25 mode)"),
      DECAY,
      P("rescore", conv=kv, help="'query=PHRASE[;window=50][;query_weight=1]"
        "[;rescore_weight=1]' (ES rescore)"),
      index="alias", help="ranked turns for a query (BM25 and the other modes)"),
    E("search_conversations", "/api/search", "search", QUERY, SCOPE, *PAGE, CONJ,
      switch=P("group", "group", "--group-by-conv",
               lambda v: v is True or v in ("conv", "conversation"), flag=True,
               help="rank CONVERSATIONS by their best matching turn"),
      refuse="bad_group", index="alias"),
    E("search", None, "fsearch", QUERY, SCOPE, *PAGE, CONJ, SNIPPETS, DECAY,
      *FILTERS, *NEGATIVE, index="outs",
      help="federated search over shard indexes (bit-identical to one index)"),
    E("msearch", "/api/msearch", "msearch",
      P("requests", (), "requests", json_arg("bad_body", list), body=True,
        default=(), help="JSON array of search-request dicts ('-' reads stdin)"),
      help="multi-search (ES _msearch): one response per request, errors in place"),
    E("more_like_this", "/api/mlt", "mlt", CONV, TURN, SCOPE, *PAGE,
      P("max_terms", conv=int),
      help="more-like-this: turns similar to one turn (its top tf-idf lemmas)"),
    E("facets", "/api/facets", "facets", QUERY, *MATCHING,
      P("by", help="comma-joined groupings: role, tool, day"),
      help="per-role/tool/day matching-doc counts over the full result set"),
    E("metrics", "/api/metrics", "metrics", QUERY, *MATCHING, P("fields"),
      help="stats + exact percentiles of doc_len / ts (ES stats/percentiles)"),
    E("cardinality", "/api/cardinality", "cardinality", QUERY, *MATCHING,
      P("fields", help="conv, role, tool, day, doc_len, ts"),
      help="exact distinct-value counts over the matching set (ES cardinality)"),
    E("top_hits", "/api/tophits", "tophits", QUERY, P("by", help="role or tool"),
      P("per_group", conv=int), *MATCHING,
      help="the best-scoring matching turns per role/tool bucket (ES top_hits)"),
    E("dis_max", "/api/disMax", "dismax",
      P("queries", "q", "queries", list, nargs="+", default=()),
      P("tie_breaker", "tie"), SCOPE, *PAGE,
      help="disjunction-max compound query (ES dis_max)"),
    E("explain", "/api/explain", "explain", QUERY, CONV, TURN,
      keys=("count", "error", "total", "data"),
      help="per-term BM25 breakdown for one document (ES _explain)"),
    E("complete", "/api/complete", "complete", P("prefix", cli="prefix", default=""),
      P("k", conv=int), help="completion suggester: top-k lemmas for a prefix"),
    E("analyze", "/api/analyze", "analyze", P("text", cli="text", default=""),
      help="(pos, token, lemma) per surviving token of the analyzer (ES _analyze)"),
    E("histogram", "/api/histogram", "histogram", *HISTOGRAM,
      help="fixed-interval bucket counts over the matching set (ES histogram)"),
    E("histogram_pipeline", "/api/histogramPipeline", "histogram", *HISTOGRAM,
      P("window", conv=int, help="moving-average window (with --pipeline)"),
      switch=P("pipeline", (), flag=True,
               help="cumulative_sum / derivative / moving-avg over the buckets"),
      help="pipeline aggregations over the gap-filled histogram"),
    E("mget", "/api/mget", "mget",
      P("docs", conv=json_arg("bad_docs"), cli="docs", required="bad_docs",
        help="JSON array of [conv_id, turn_idx] pairs"),
      help="batch point fetch (ES _mget); misses echo the key, found=false"),
    E("range_agg", "/api/rangeAgg", "rangeagg", QUERY,
      P("ranges", conv=json_arg("bad_ranges"), cli="ranges", required="bad_ranges",
        help="JSON array of [from, to]: null = open side, to exclusive"),
      FIELD, *MATCHING, help="custom-boundary bucket counts (ES range agg)"),
    E("matrix_stats", "/api/matrixStats", "matrixstats", QUERY, *MATCHING,
      help="doc_len x ts covariance/correlation (ES matrix_stats)"),
    E("extended_stats", "/api/extendedStats", "extstats", QUERY, *MATCHING,
      help="per-field n/min/max/avg/variance/std bounds (ES extended_stats)"),
    E("percentile_ranks", "/api/percentileRanks", "pranks", QUERY,
      P("values", conv=comma_list, required="bad_values", help="comma-separated probes"),
      FIELD, *MATCHING, help="inverse percentiles (ES percentile_ranks)"),
    E("filters_agg", "/api/filtersAgg", "filtersagg", FILTERS_JSON,
      P("query_text", "query", "--base", help="count within this query's matches"),
      SCOPE, CONJ, help="named-filter bucket counts (ES filters agg)"),
    E("adjacency_matrix", "/api/adjacencyMatrix", "adjmatrix", FILTERS_JSON,
      SCOPE, CONJ, help="filter co-occurrence counts (ES adjacency_matrix)"),
    E("suggest_query", "/api/didYouMean", "didyoumean", QUERY,
      P("max_dist", conv=int),
      keys=("corrected", "changed", "count", "error", "data"),
      help="whole-query did-you-mean (ES phrase suggester)"),
    E("facets_composite", "/api/composite", "composite", QUERY, *MATCHING,
      P("size", conv=int), P("after_role"), P("after_tool"),
      prepare=_composite_after, keys=("count", "error", "after_key", "data"),
      help="paged (role, tool) buckets in key order (ES composite)"),
    E("export", "/api/export", "export", QUERY,
      P("dest", required="empty_query", help="new directory for the parquet"),
      *MATCHING, P("columns", (), conv=list, nargs="+", help="project the schema"),
      P("slice", (), conv=int_pair, help="I,MAX: only docs with docid mod MAX == I"),
      prepare=_export_slice, keys=("count", "path", "error"), ray=True,
      help="stream every matching turn to partitioned parquet (ES scroll + reindex)"),
    E("termvectors", "/api/termvectors", "termvectors", CONV, TURN,
      help="per-document term statistics (ES _termvectors)"),
    E("rank_eval", "/api/rankEval", "rankeval", QUERY, SCOPE, P("k", conv=int),
      keys=("count", "error", "precision", "recall", "mrr", "data"),
      help="served top-k vs pseudo-assessor grading (ES _rank_eval)"),
    E("significant_terms", "/api/significant", "sigterms", QUERY, *MATCHING,
      P("k", "limit", "--limit", int), ray=True,
      help="lemmas overrepresented in the matching set (JLH score)"),
    E("rare_terms", "/api/rareTerms", "rareterms", QUERY, *MATCHING,
      P("k", "limit", "--limit", int), P("max_doc_count", conv=int), ray=True,
      help="long-tail lemmas of the matching set, df ascending (ES rare_terms)"),
)

# routes: the base endpoint first, then its switched variants
HTTP: dict[tuple[str, str], list[Endpoint]] = {}
CLI: dict[str, list[Endpoint]] = {}
for _ep in ENDPOINTS:
    if _ep.http:
        HTTP.setdefault((_ep.verb, _ep.http), []).append(_ep)
    CLI.setdefault(_ep.cli, []).append(_ep)


def kwargs(params, raw: Callable) -> dict:
    """The engine keywords of ``params``; ``raw(p)`` is the request's raw
    value of ``p`` or MISSING. Raises Refused."""
    kw = {}
    for p in params:
        try:
            v = raw(p)
            if p.required and (v is MISSING or v == ""):
                raise Refused(p.required)
            if v is not MISSING:
                kw[p.kw] = p.conv(v)
            elif p.default is not MISSING:
                kw[p.kw] = p.default
        except (ValueError, TypeError):
            raise Refused("bad_request") from None
    return kw


def parse(eps: list[Endpoint], raw: Callable) -> tuple[Endpoint, dict]:
    """-> (the endpoint of the route ``eps`` this request selects, its
    engine keywords). Raises Refused."""
    ep = eps[0]
    for variant in eps[1:]:
        v = raw(variant.switch)
        if v is not MISSING and variant.switch.conv(v):
            ep = variant
    if ep is not eps[0]:
        taken = set(ep.params)
        if any(raw(p) is not MISSING for e in eps for p in e.params if p not in taken):
            raise Refused(ep.refuse)
    kw = kwargs(ep.params, raw)
    if ep.prepare:
        ep.prepare(kw)
    return ep, kw


def encode(ep: Endpoint, resp) -> dict:
    """The JSON payload of an engine response."""
    if isinstance(resp, list):  # msearch: one standard response per request
        return {"result": True, "responses": [encode(ep, r) for r in resp]}
    return {"result": resp["result"],
            **{k: resp[k].to_pylist() if k == "data" else resp[k] for k in ep.keys}}


def answer(eps: list[Endpoint], engine: Callable, raw: Callable) -> dict:
    """Parse, call, encode: the payload answering one request on the route
    ``eps``. ``engine(ep)`` opens the engine (it may raise Refused)."""
    try:
        ep, kw = parse(eps, raw)
        eng = engine(ep)
    except Refused as r:
        return {"result": False, "error": r.error}
    return encode(ep, getattr(eng, ep.method)(**kw))
