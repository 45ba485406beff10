"""Cold-start probe of the posting read: what a fresh engine's first
queries cost, and how much of it is ``SearchEngine._read_index``.

Draws ``QUERIES`` seeded BM25 queries of 1 to 3 lemmas, each lemma
uniform over the dictionary's lemmas with df >= ``MIN_DF``, and runs
them in ``BATCHES`` equal batches, each on a fresh ``SearchEngine``
(empty engine cache; the files stay in the OS page cache, and the
first batch also pays the process's first-query imports). It prints,
per batch, the mean cold query time; over all queries, the median and
the share of the time spent in ``_read_index``; then a warm table: each
batch's queries re-run on its now-warm engine, ``WARM_RUNS`` times,
a query's best run kept, the mean per class in ms. A query's class is
the df share of its hottest lemma: rare < 1%, mid 1-5%, hot 5-25%,
ultra >= 25% of the docs, and its lemma count.

    python tools/cold_probe.py /path/to/index
    PYTHONPATH=../parent python tools/cold_probe.py /path/to/index

The last line of output is the result as JSON.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

# a PYTHONPATH checkout wins over this one
sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from search_engine_ray.search import SearchEngine  # noqa: E402

# df share of the docs from which a lemma is mid, hot, ultra
CLASSES = ((0.25, "ultra"), (0.05, "hot"), (0.01, "mid"), (0.0, "rare"))
QUERIES, BATCHES, SEED, MIN_DF, K, WARM_RUNS = 90, 3, 0, 2, 10, 3


def draw_queries(out_dir: str) -> list[tuple[str, str]]:
    """``QUERIES`` seeded (query text, class) pairs over ``out_dir``'s
    dictionary, read by an engine of its own."""
    eng = SearchEngine(out_dir)
    pool = sorted((lem, df) for v in eng._vocab() for lem, df in v.items() if df >= MIN_DF)
    rng = random.Random(SEED)
    out = []
    for _ in range(QUERIES):
        picked = rng.sample(pool, rng.randint(1, 3))
        share = max(df for _, df in picked) / eng.n_docs
        cls = next(name for lo, name in CLASSES if share >= lo)
        out.append((" ".join(lem for lem, _ in picked), f"{cls}, {len(picked)} lemmas"))
    return out


def run_batch(out_dir: str, queries) -> tuple[list, float, list]:
    """One fresh engine answers ``queries`` cold, then ``WARM_RUNS``
    more times. -> (cold seconds per query, seconds inside
    ``_read_index``, best warm seconds per query)."""
    eng = SearchEngine(out_dir)
    inside = [0.0]
    read = eng._read_index

    def timed(*a, **kw):
        t = time.perf_counter()
        try:
            return read(*a, **kw)
        finally:
            inside[0] += time.perf_counter() - t

    eng._read_index = timed
    cold = []
    for text, _ in queries:
        t = time.perf_counter()
        eng.search(text, limit=K)
        cold.append(time.perf_counter() - t)
    # re-reads after an eviction in the warm runs are not cold time
    del eng._read_index
    warm = [float("inf")] * len(queries)
    for _ in range(WARM_RUNS):
        for i, (text, _) in enumerate(queries):
            t = time.perf_counter()
            eng.search(text, limit=K)
            warm[i] = min(warm[i], time.perf_counter() - t)
    return cold, inside[0], warm


def main(out_dir: str) -> dict:
    queries = draw_queries(out_dir)
    size = -(-len(queries) // BATCHES)
    batches = [queries[i:i + size] for i in range(0, len(queries), size)]
    cold, inside, warm = [], 0.0, []
    means = []
    for b in batches:
        c, r, w = run_batch(out_dir, b)
        cold += c
        inside += r
        warm += w
        means.append(1e3 * statistics.mean(c))
        print(f"batch of {len(b)}: cold mean {means[-1]:.2f} ms")
    by_class: dict[str, list[float]] = {}
    for (_, cls), w in zip(queries, warm):
        by_class.setdefault(cls, []).append(1e3 * w)
    res = {
        "batch_means_ms": [round(m, 3) for m in means],
        "median_ms": round(1e3 * statistics.median(cold), 3),
        "read_index_share": round(inside / sum(cold), 3),
        "warm_ms": {c: [len(v), round(statistics.mean(v), 3)] for c, v in sorted(by_class.items())},
    }
    print(f"cold median {res['median_ms']} ms; _read_index {100 * res['read_index_share']:.0f}% of it")
    print("| class | queries | warm mean ms |\n|---|---|---|")
    for c, (n, ms) in res["warm_ms"].items():
        print(f"| {c} | {n} | {ms} |")
    print(json.dumps(res))
    return res


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} INDEX_DIR")
    main(sys.argv[1])
