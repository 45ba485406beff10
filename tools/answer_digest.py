"""Digest the engine's answers over a perfbench seed's query pool.

Prints one sha256 per answer set, so that two commits' answers compare
with one command on each:

- ``search``, ``search_snippets``, ``search_full``: every pool query's
  search body with snippets off, ``1`` (best-window snippets) and
  ``full`` (the whole field highlighted);
- ``mget``: the pages' winners plus unknown docs, in batches;
- ``termvectors``: each pool query's top hit, plus an unknown doc;
- ``vocabulary``: the dictionary readers over the pool's lemmas —
  ``expand_prefix``, ``expand_wildcard`` (a leading ``*`` too),
  ``expand_regexp`` (an alternation of the whole pattern too),
  ``complete`` and prefix/wildcard/regexp search
  bodies for every lemma, ``suggest``, ``suggest_query`` and fuzzy
  search bodies for every ``FUZZY_EVERY``-th (a suggestion sweep reads
  the whole dictionary). No perfbench workload drives these paths.

A body is the JSON the HTTP server sends for the response
(``json.dumps(..., default=str)`` of the encoded payload), so equal
digests mean byte-identical responses. The seed directory is one that
``perfbench/run.py`` prepared (``.perfbench_cache/seed-<seed>-<digest>/``):
its query pool and index are read, nothing is written. The benchmark's
``inputs`` and ``client`` modules supply the pool and each query's
search arguments.

The engine is the first ``search_engine_ray`` on the import path, this
checkout's when none is set, so one seed directory can serve two
checkouts:

    python tools/answer_digest.py .perfbench_cache/seed-1001-<digest>
    PYTHONPATH=../parent python tools/answer_digest.py .perfbench_cache/seed-1001-<digest>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.append(ROOT)

import client  # noqa: E402
import inputs  # noqa: E402

MGET_BATCH = 500
UNKNOWN = ("conv-unknown", 0)
FUZZY_EVERY = 8


def body(resp) -> bytes:
    if isinstance(resp, dict):
        resp = {k: v.to_pylist() if k == "data" else v for k, v in resp.items()}
    elif hasattr(resp, "to_pylist"):
        resp = resp.to_pylist()
    return json.dumps(resp, default=str).encode()


def vocabulary(eng, pool):
    """The bodies of the dictionary readers over the pool's lemmas."""
    lemmas = sorted({lem for q in pool for lem in eng._analyzer.analyze_query(q["query_text"])})
    for i, lem in enumerate(lemmas):
        pre, typo = lem[:4], lem[:-1]
        yield from (body(eng.expand_prefix(pre)), body(eng.expand_prefix(typo)),
                    body(eng.expand_wildcard(pre + "*")),
                    body(eng.expand_wildcard("*" + lem[-3:])),
                    body(eng.expand_wildcard(lem[:2] + "?" + lem[3:])),
                    body(eng.expand_regexp(pre + "[a-z]+")),
                    body(eng.expand_regexp(".*" + lem[-2:])),
                    body(eng.expand_regexp(f"{lem}|{typo}[a-z]")),
                    body(eng.complete(pre, k=10)))
        for q, mode in ((pre, "prefix"), (pre + "*", "wildcard"), (pre + ".+", "regexp")):
            yield body(eng.search(q, mode=mode, limit=10))
        if i % FUZZY_EVERY == 0:
            yield from (body(eng.suggest(typo)), body(eng.suggest_query(f"{typo} {lem}")),
                        body(eng.search(typo, mode="fuzzy", limit=10)))


def digest(bodies) -> str:
    h = hashlib.sha256()
    n = 0
    for b in bodies:
        h.update(len(b).to_bytes(8, "little") + b)
        n += 1
    return f"{h.hexdigest()}  ({n} bodies)"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("seed_dir", help="a prepared perfbench seed directory")
    args = ap.parse_args()
    from search_engine_ray.search import SearchEngine

    meta = inputs.load(args.seed_dir)
    eng = SearchEngine(inputs.fixture_dir(args.seed_dir))
    pool = meta["pool"]
    pages = [eng.search(q["query_text"], **client.search_kwargs(q, False)) for q in pool]
    out = {"search": digest(body(r) for r in pages)}
    for name, snippets in (("search_snippets", True), ("search_full", "full")):
        out[name] = digest(body(eng.search(q["query_text"], **client.search_kwargs(q, snippets)))
                           for q in pool)
    hits = [(r["conv_id"], r["turn_idx"]) for p in pages for r in p["data"].to_pylist()]
    docs = list(dict.fromkeys(hits)) + [UNKNOWN]
    out["mget"] = digest(body(eng.mget(docs[i:i + MGET_BATCH]))
                         for i in range(0, len(docs), MGET_BATCH))
    tops = [p["data"].to_pylist()[0] for p in pages if p["data"].num_rows]
    out["termvectors"] = digest(
        body(eng.termvectors(c, t))
        for c, t in [(r["conv_id"], r["turn_idx"]) for r in tops] + [UNKNOWN])
    out["vocabulary"] = digest(vocabulary(eng, pool))
    for name, d in out.items():
        print(f"{name:16} {d}")


if __name__ == "__main__":
    main()
