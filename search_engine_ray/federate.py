"""Federated search: one query over independently built shard indexes.

At 10^12 turns the corpus is split by conversation into SHARDS, each
built (and re-indexed, compacted, ...) on its own, and a query fans out
to every shard and merges. The property that makes this safe:

    **federated(shards) is BIT-IDENTICAL to one index built over the
    union of the shards' corpora** — same counts, same rows, same
    float64 BM25 scores, same tie-breaks.

It holds because every score input is global before any shard scores a
posting:

- ``N = Σ n_docs_i`` and ``avgdl = (Σ total_len_i) / N`` — the shard
  manifests store ``total_len`` as an exact integer, so the merged
  division is the very float64 op the monolithic build performs. Each
  shard engine takes both once, at construction.
- per-term ``df = Σ df_i`` over each shard's overlay-exact df (delta
  generations fold per shard before the sum), and ``plan`` orders the
  terms (df ASC, lemma ASC) on the merged dfs, so each shard sums a
  doc's contributions in the monolithic order.
- the reference's missing-lemma rule applies to the FEDERATION: a lemma
  absent from every shard empties the result; a lemma absent from some
  shards contributes nothing there (their docs lack it).

Everything else is the single-index code, fanned out and merged:

- ``search`` ranks each shard with its routed exact scorer
  (``score_blockmax``); under a filter it scores exhaustively and
  filters and rewrites the scores with the shard's own ``_filter_docs``
  (a doc's lemmas and ts live in the one shard that owns it). It merges the
  per-shard top-(offset+limit) prefixes in the total order (score DESC,
  conv_id ASC, turn_idx ASC). Prefixes suffice because shards partition
  the docs. Arguments are validated by the single-index code.
- the aggregations are ``search.Aggregations``, written once over
  matching-set parts; ``_parts`` yields one part per shard and the
  merge laws are documented there.
- ``mget``, ``complete`` and ``suggest`` merge the shards' answers.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

from .config import DEFAULT_PAGE_SIZE
from .search import (COMPLETE_SCHEMA, MGET_SCHEMA, SUGGEST_SCHEMA, Aggregations, Query,
                     SearchEngine, _cols_resp, _rows_resp)
from .state.columns import to_arrow, to_numpy, to_table


class FederatedEngine(Aggregations):
    """Search over multiple independent shard indexes with merged global
    statistics. Shards must share the analyzer module and BM25
    parameters (validated at construction — scoring parity is undefined
    otherwise)."""

    def __init__(self, out_dirs: list[str]):
        if not out_dirs:
            raise ValueError("FederatedEngine needs at least one shard")
        self.shards = [SearchEngine(d) for d in out_dirs]
        s0 = self.shards[0]
        for s in self.shards[1:]:
            if s.manifest["config"].get("analyzer_module") != s0.manifest[
                "config"
            ].get("analyzer_module") or (s.k1, s.b) != (s0.k1, s0.b):
                raise ValueError(
                    "shards disagree on analyzer/BM25 config — "
                    "federated scoring would be undefined"
                )
        self._analyzer = s0._analyzer
        self.n_docs = sum(s.n_docs for s in self.shards)
        total_len = 0
        for s in self.shards:
            if s._has_deltas:
                # the overlay-corrected length sum: avgdl was computed as
                # len_eff / n_eff with len_eff an exact int; float64
                # round-trips integers < 2^52 exactly, so this recovers it
                total_len += int(round(s.avgdl * s.n_docs))
            else:
                total_len += int(s.manifest["stats"]["total_len"])
        # the monolithic build's own division (build.py stage B):
        # avgdl = float(total_len) / n_docs
        self.avgdl = (float(total_len) / self.n_docs) if self.n_docs else 1.0
        # every shard scores with the federation's N and avgdl (idf and
        # length normalization are global). Set once, never per query,
        # so concurrent queries share no mutable scoring state. A shard's
        # stored block-max bounds assume its own avgdl: scaled by the
        # avgdl growth they stay bounds (SearchEngine._load_deltas), so
        # shards also take the routed exact scorer.
        for s in self.shards:
            s._bmw_scale *= max(1.0, self.avgdl / s.avgdl)
            s.n_docs, s.avgdl = self.n_docs, self.avgdl

    def valid_scope(self, scope: str | None) -> bool:
        return scope is None or any(s.valid_scope(scope) for s in self.shards)

    def plan(self, query_text: str) -> tuple[list[tuple[str, int]], str | None]:
        """The federation's query plan: (terms df-ascending then lemma,
        error), each df the sum of the shards' overlay-exact dfs.
        ``SearchEngine.plan`` over the union's dictionary."""
        lemmas = self._analyzer.analyze_query(query_text)
        if not lemmas:
            return [], "empty_query"
        dfs: Counter = Counter()
        for s in self.shards:
            dfs.update(dict(s._live_terms(s._held_terms(lemmas))))
        if len(dfs) < len(set(lemmas)):
            return [], "no_results"
        return sorted(dfs.items(), key=lambda t: (t[1], t[0])), None

    def _fan_out(self, terms, scope, conjunctive):
        """(shard, the merged-df ``terms`` it holds) per shard, in shard
        order. A lemma a shard lacks is lacked by all its docs, so it adds
        nothing there (no shard-local missing-lemma rule). The terms are
        empty where the shard cannot match: it lacks the scope value, or
        (conjunctive) any term."""
        for s in self.shards:
            held = {lem for lem, _ in s._held_terms([lem for lem, _ in terms])}
            sterms = [t for t in terms if t[0] in held]
            if not s.valid_scope(scope) or (conjunctive and len(sterms) < len(terms)):
                sterms = []
            yield s, sterms

    def _parts(self, terms, scope, conjunctive=False, exclude=None,
               ts_min=None, ts_max=None) -> list[tuple]:
        """One matching-set part per shard, in shard order (empty where
        the shard cannot match)."""
        none = np.empty(0, np.int64)
        return [
            (s, *s._matching_set(sterms, scope, conjunctive, exclude,
                                 ts_min, ts_max))
            if sterms else (s, none, none)
            for s, sterms in self._fan_out(terms, scope, conjunctive)
        ]

    def search(
        self,
        query_text: str,
        scope: str | None = None,
        offset: int = 0,
        limit: int = DEFAULT_PAGE_SIZE,
        conjunctive: bool = False,
        with_snippets: bool = False,
        decay: dict | None = None,
        exclude: str | None = None,
        ts_min=None,
        ts_max=None,
        negative: str | None = None,
        negative_boost: float = 0.5,
    ) -> dict:
        """Fan-out BM25 search, rank- and score-identical to one index
        over the shards' combined corpus: each shard ranks with the
        routed exact scorer (``score_blockmax``), or exhaustively under
        a filter. -> the single-index ``search()`` response; the
        arguments mean what they mean there and are validated by the
        same code."""
        err, q = self._search_params(Query(
            query_text, scope, offset, limit, exclude=exclude, ts_min=ts_min,
            ts_max=ts_max, decay=decay, negative=negative,
            negative_boost=negative_boost))
        if err:
            return self._resp(error=err)
        offset, limit = q.offset, q.limit
        terms, err = self.plan(query_text)
        if err:
            return self._resp(error=None if err == "no_results" else err)
        count, pages = 0, []
        for s, sterms in self._fan_out(terms, scope, conjunctive):
            if not sterms:
                continue
            if q.filtered:
                ids, scores = s.score_exhaustive(sterms, scope, conjunctive)
                keep, scores = s._filter_docs(ids, scores, q.exclude, q.ts_min, q.ts_max,
                                              q.decay, q.negative, q.negative_boost)
                ids = ids[keep]
                n = len(ids)
                top_ids, top_scores = s._topk(ids, scores, offset + limit)
            else:
                top_ids, top_scores, n = s.score_blockmax(sterms, offset + limit, scope,
                                                          conjunctive)
            count += n
            if len(top_ids):
                pages.append(s._enrich(top_ids, top_scores, terms, with_snippets))
        if not pages:
            return self._resp(count=count)
        merged = pa.concat_tables(pages)
        conv = np.asarray(merged.column("conv_id").to_pylist(), dtype=np.str_)
        turn = to_numpy(merged.column("turn_idx"))
        score = to_numpy(merged.column("score"))
        order = np.lexsort((turn, conv, -score))[offset: offset + limit]
        return {"result": True, "count": count,
                "data": merged.take(to_arrow(order, pa.int64())), "error": None}

    def mget(self, docs) -> dict:
        """Federated batch point fetch: each (conv_id, turn_idx) lives
        in exactly ONE shard (the conv-hash split), so every shard runs
        the same request and a row is found iff its owner found it —
        the merge keeps, per request slot, the found row if any shard
        produced one (at most one can). Request order, miss echoing and
        the bad_docs guards are the single-index rules, applied once at
        the federation level by the first shard's validator."""
        per_shard = [s.mget(docs) for s in self.shards]
        if not per_shard[0]["result"]:
            return per_shard[0]
        found = np.array([to_numpy(r["data"].column("found")) for r in per_shard])
        n = found.shape[1]
        # per slot, the row of the first shard that found it, else shard 0's
        rows = found.argmax(axis=0) * n + np.arange(n)
        tbl = pa.concat_tables([r["data"] for r in per_shard]).take(to_arrow(rows, pa.int64()))
        return _cols_resp(MGET_SCHEMA, tbl.columns, int(found.any(axis=0).sum()))

    def complete(self, prefix: str, k: int = 10) -> dict:
        """Federated completion suggester: per-shard prefix ranges merge
        by summing df per lemma — exact, because a lemma's global df is
        the sum of its per-shard dfs over a disjoint corpus partition —
        then the monolithic (df DESC, lemma ASC) cut. Pinned identical
        to one index over the union."""
        agg: Counter = Counter()
        err = None
        for s in self.shards:
            r = s.complete(prefix, k=1 << 30)
            if not r["result"]:
                err = r["error"]
                continue
            for row in r["data"].to_pylist():
                agg[row["lemma"]] += row["df"]
        if not agg and err:
            return self._resp(error=err, schema=COMPLETE_SCHEMA)
        hits = sorted(agg.items(), key=lambda r: (-r[1], r[0]))
        return _rows_resp(COMPLETE_SCHEMA, hits[:k], len(hits))

    def suggest(self, term: str, max_dist: int = 2, k: int = 5):
        """Federated did-you-mean: per-shard candidate sweeps merge by
        summing df per suggestion (dist is a pure string property, so
        any shard's dist for a lemma is THE dist), then the monolithic
        (dist ASC, df DESC, lemma ASC) cut. Pinned identical to one
        index over the union."""
        agg: dict[str, tuple[int, int]] = {}
        for s in self.shards:
            t = s.suggest(term, max_dist=max_dist, k=1 << 30)
            for row in t.to_pylist():
                df0, _ = agg.get(row["suggestion"], (0, row["dist"]))
                agg[row["suggestion"]] = (df0 + row["df"], row["dist"])
        rows = sorted(
            ((lem, df, dist) for lem, (df, dist) in agg.items()),
            key=lambda r: (r[2], -r[1], r[0]),
        )[:k]
        return to_table(SUGGEST_SCHEMA, zip(*rows))
