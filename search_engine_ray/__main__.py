"""CLI — the operational surface of the engine (the analog of the
reference's REST API, ``ApiController.java:20-47``). Every command prints
one JSON line; ``python -m search_engine_ray <command> -h`` shows its
arguments.

Read commands are generated from ``surface.ENDPOINTS``, the table the
HTTP server (``server.py``) answers from, so each takes the same
parameters as its HTTP twin and prints the same JSON:

    search (GET /api/search; --group-by-conv = &group=conv), fsearch
    (shard indexes, no HTTP twin), msearch (POST /api/msearch), mlt
    (/api/mlt), facets, metrics, cardinality, tophits, dismax (/api/disMax),
    explain, complete, analyze, histogram (--pipeline =
    /api/histogramPipeline), mget, rangeagg (/api/rangeAgg), matrixstats
    (/api/matrixStats), extstats (/api/extendedStats), pranks
    (/api/percentileRanks), filtersagg (/api/filtersAgg), adjmatrix
    (/api/adjacencyMatrix), didyoumean (/api/didYouMean), composite,
    export, termvectors, rankeval (/api/rankEval), sigterms
    (/api/significant), rareterms (/api/rareTerms)

A read command exits 0 when its answer's ``result`` is true, else 1.

Build and operations commands:

    build        full index build (startIndexing); --resume, --shards N
    split/shrink reshard a sharded deployment (ES _split / _shrink)
    reindex      incremental per-conversation re-index (POST /api/indexPage)
    delete       delete-by-query (POST /api/deleteByQuery)
    update       update-by-query regex rewrite (POST /api/updateByQuery)
    compact      fold delta generations into the base (LSM merge)
    phrase-aux   build the hot-bigram auxiliary phrase index
    stats        index statistics (GET /api/statistics)
    suggest      did-you-mean term suggestions
    alias        set / rm / list index aliases (ES alias API)
    snapshot     manifest-pinned hardlink backup; restore verifies + copies
    follow       one follower-sync pulse from a leader index (ES CCR)
    reindex-query  ES _reindex with a query into a fresh index
    stop         cooperative build cancel (GET /api/stopIndexing)
    serve        the HTTP/JSON surface (``server.py``)

This module (a CLI entry point) OWNS the Ray session; library code never
calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import surface


def _init_ray() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _add_read(sub, name: str, eps: list) -> None:
    """One subcommand for a surface route: the union of its endpoints'
    parameters (and variant switches), plus how to name the index."""
    twins = ", ".join(dict.fromkeys(f"{ep.verb} {ep.http}" for ep in eps if ep.http))
    help_ = f"{eps[0].help} [{twins or 'no HTTP twin'}]"
    sp = sub.add_parser(name, help=help_, description=help_)
    params = [p for ep in eps for p in (ep.switch, *ep.params) if p is not None]
    for p in dict.fromkeys(params):
        if not p.cli.startswith("--"):
            sp.add_argument(p.cli, nargs=p.nargs, help=p.help)
        elif p.flag:
            sp.add_argument(p.cli, action="store_true", default=argparse.SUPPRESS,
                            help=p.help)
        else:
            sp.add_argument(p.cli, nargs=p.nargs, required=bool(p.required),
                            default=argparse.SUPPRESS, help=p.help)
    index = eps[0].index
    if index == "outs":
        sp.add_argument("--outs", required=True, help="comma-separated shard index dirs")
        return
    sp.add_argument("--out", required=index == "out")
    if index == "alias":
        sp.add_argument("--alias", help="serve via an alias from --registry")
        sp.add_argument("--registry", help="alias registry dir (with --alias)")


def _engine(a, ep):
    """Open the engine a read command names (raises surface.Refused)."""
    if ep.ray:
        _init_ray()
    if ep.index == "outs":
        from .federate import FederatedEngine

        return FederatedEngine([d for d in a.outs.split(",") if d])
    from .search import SearchEngine

    out = a.out
    if getattr(a, "alias", None) is not None:
        from .state.aliases import alias_resolve

        if not a.registry:
            raise surface.Refused("no_registry")
        out = alias_resolve(a.registry, a.alias)
        if out is None:
            raise surface.Refused("unknown_alias")
    if out is None:
        raise surface.Refused("no_out")
    return SearchEngine(out)


def _read(a, eps: list) -> int:
    def raw(p):
        v = getattr(a, p.dest, surface.MISSING)
        return sys.stdin.read() if p.body and v == "-" else v

    payload = surface.answer(eps, lambda ep: _engine(a, ep), raw)
    print(json.dumps(payload, default=str))
    return 0 if payload["result"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="search_engine_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="full index build (startIndexing analog)")
    b.add_argument("--input", nargs="+", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--partitions", type=int, default=8)
    b.add_argument("--resume", action="store_true")
    b.add_argument("--shards", type=int, default=1,
                   help="hash-split the corpus by conversation and build "
                        "one index per shard under OUT/idx<i> (serve with "
                        "fsearch --outs); 1 = a single monolithic index")

    for name, help_ in (
        ("split", "split every shard by a factor (ES _split): N -> N*factor "
                  "shards under DEST; source shards must be generation-free"),
        ("shrink", "merge shards by a factor (ES _shrink): N -> N/factor "
                   "shards under DEST; source shards must be generation-free"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--root", required=True, help="existing sharded deployment root")
        sp.add_argument("--shards", type=int, required=True, help="current shard count")
        sp.add_argument("--dest", required=True, help="new deployment root")
        sp.add_argument("--factor", type=int, default=2)
        sp.add_argument("--partitions", type=int, default=2)

    t = sub.add_parser("stats", help="index statistics (statistics analog)")
    t.add_argument("--out", required=True)

    r = sub.add_parser("reindex", help="incremental conv re-index (indexPage analog)")
    r.add_argument("--out", required=True)
    r.add_argument("--conv", nargs="+", required=True)
    r.add_argument("--input", nargs="*", default=None)
    r.add_argument("--shards", type=int, default=1,
                   help=">1: --out is a sharded-build root; each conv "
                        "routes to its owning shard's index")

    for name, help_ in (
        ("delete", "delete-by-query (ES _delete_by_query): tombstone every "
                   "matching turn via a delta generation"),
        ("update", "update-by-query (ES _update_by_query): regex-rewrite every "
                   "matching turn's text via a delta generation"),
    ):
        dq = sub.add_parser(name, help=help_)
        dq.add_argument("query")
        if name == "update":
            dq.add_argument("--pattern", required=True, help="RE2 pattern to rewrite")
            dq.add_argument("--replacement", required=True)
        dq.add_argument("--out", required=True)
        dq.add_argument("--scope", default=None)
        dq.add_argument("--conjunctive", action="store_true")
        dq.add_argument("--shards", type=int, default=1,
                        help=">1: --out is a sharded-build root; union "
                             "matching semantics across the shard indexes")

    c = sub.add_parser("compact", help="fold delta generations into the base index (LSM merge)")
    c.add_argument("--out", required=True)
    c.add_argument("--resume", action="store_true",
                   help="finish an interrupted compaction swap")
    c.add_argument("--mode", choices=["minor", "major"], default="minor",
                   help="minor = shuffle-free segment merge (default); "
                        "major = global re-sort that defragments blocking")
    c.add_argument("--shards", type=int, default=1,
                   help=">1: --out is a sharded-build root; every shard "
                        "folds independently")

    px = sub.add_parser("phrase-aux", help="build the hot-bigram auxiliary phrase index")
    px.add_argument("--out", required=True)
    px.add_argument("--terms", type=int, default=48,
                    help="hot-term budget (top by collection frequency)")
    px.add_argument("--pairs", type=int, default=512,
                    help="pair budget (top bigrams by occurrence count)")

    al = sub.add_parser("alias", help="index aliases (ES alias API): atomic "
                        "name->index swap")
    al.add_argument("action", choices=["set", "rm", "list"])
    al.add_argument("name", nargs="?", default=None)
    al.add_argument("target", nargs="?", default=None)
    al.add_argument("--registry", required=True)

    sg = sub.add_parser("suggest", help="did-you-mean term suggestions")
    sg.add_argument("term")
    sg.add_argument("--out", required=True)
    sg.add_argument("--max-dist", type=int, default=2)
    sg.add_argument("--limit", type=int, default=5)

    sn = sub.add_parser("snapshot", help="manifest-pinned index snapshot "
                        "(hardlink where possible; ES snapshot API)")
    sn.add_argument("--out", required=True)
    sn.add_argument("--dest", required=True)

    rs = sub.add_parser("restore", help="verify + materialize a snapshot at a fresh dir")
    rs.add_argument("--snap", required=True)
    rs.add_argument("--dest", required=True)

    rq = sub.add_parser("reindex-query", help="ES _reindex with a query: "
                        "matching turns into a fresh index")
    rq.add_argument("--input", required=True, nargs="+")
    rq.add_argument("--query", required=True)
    rq.add_argument("--dest", required=True)
    rq.add_argument("--scope", default=None)
    rq.add_argument("--partitions", type=int, default=None)

    fl = sub.add_parser("follow", help="one incremental follower-sync pulse "
                        "from a leader index (ES cross-cluster replication)")
    fl.add_argument("--leader", required=True)
    fl.add_argument("--dest", required=True)

    st = sub.add_parser("stop", help="cooperative build cancel (stopIndexing analog)")
    st.add_argument("--out", required=True)

    sv = sub.add_parser("serve", help="HTTP/JSON surface over a built index")
    sv.add_argument("--out", required=True)
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8080)

    for name, eps in surface.CLI.items():
        _add_read(sub, name, eps)
    return p


def main(argv: list[str] | None = None) -> int:
    a = build_parser().parse_args(argv)
    if a.cmd in surface.CLI:
        return _read(a, surface.CLI[a.cmd])

    if a.cmd == "build":
        _init_ray()
        from .config import BuildConfig
        from .pipelines.build import BuildStopped, build_index

        if a.shards > 1:
            from .pipelines.shard import build_sharded

            r = build_sharded(
                list(a.input), a.out, n_shards=a.shards,
                n_partitions=a.partitions, resume=True,
            )
            print(json.dumps({k: r[k] for k in ("result", "shard_outs", "built", "error")}))
            return 0 if r["result"] else 1
        try:
            m = build_index(
                BuildConfig(
                    input_paths=list(a.input),
                    out_dir=a.out,
                    n_partitions=a.partitions,
                    resume=a.resume,
                )
            )
        except BuildStopped as e:
            print(json.dumps({"state": "STOPPED", "error": str(e)}))
            return 1
        print(json.dumps({"state": m["state"], "stats": m["stats"], "timings": m["timings"]}))
    elif a.cmd in ("split", "shrink"):
        _init_ray()
        from .pipelines import shard

        fn = shard.split_shards if a.cmd == "split" else shard.shrink_shards
        r = fn(a.root, a.shards, a.dest, factor=a.factor, n_partitions=a.partitions)
        print(json.dumps({k: r[k] for k in
                          ("result", "n_shards", "shard_outs", "built", "error")}))
        return 0 if r["result"] else 1
    elif a.cmd == "alias":
        from .state import aliases as al_mod

        if a.action == "list":
            print(json.dumps({"result": True,
                              "aliases": al_mod.alias_list(a.registry)}))
        elif not a.name or (a.action == "set" and not a.target):
            print(json.dumps({"result": False, "error": "bad_args"}))
            return 1
        elif a.action == "set":
            print(json.dumps(al_mod.alias_set(a.registry, a.name, a.target)))
        else:
            print(json.dumps(al_mod.alias_delete(a.registry, a.name)))
    elif a.cmd == "stats":
        from .stats import statistics

        print(json.dumps(statistics(a.out)))
    elif a.cmd == "reindex":
        if a.shards > 1:
            from .pipelines.shard import reindex_sharded

            print(json.dumps(reindex_sharded(
                a.out, a.shards, list(a.conv), input_paths=a.input)))
        else:
            from .pipelines.delta import reindex_conversations

            print(json.dumps(reindex_conversations(
                a.out, list(a.conv), input_paths=a.input)))
    elif a.cmd in ("delete", "update"):
        rewrite = (a.pattern, a.replacement) if a.cmd == "update" else ()
        kw = {"scope": a.scope, "conjunctive": a.conjunctive}
        if a.shards > 1:
            from .pipelines import shard

            fn = (shard.update_by_query_sharded if rewrite
                  else shard.delete_by_query_sharded)
            print(json.dumps(fn(a.out, a.shards, a.query, *rewrite, **kw)))
        else:
            from .pipelines import delta

            fn = delta.update_by_query if rewrite else delta.delete_by_query
            print(json.dumps(fn(a.out, a.query, *rewrite, **kw)))
    elif a.cmd == "compact":
        _init_ray()
        if a.shards > 1:
            from .pipelines.shard import compact_sharded

            print(json.dumps(compact_sharded(
                a.out, a.shards, resume=a.resume, mode=a.mode)))
        else:
            from .pipelines.compact import compact

            print(json.dumps(compact(a.out, resume=a.resume, mode=a.mode)))
    elif a.cmd == "phrase-aux":
        _init_ray()
        from .pipelines.phrase_aux import build_phrase_aux

        m = build_phrase_aux(a.out, top_terms=a.terms, top_pairs=a.pairs)
        print(json.dumps({"pairs": len(m["pairs"]), "bytes": m["bytes"]}))
    elif a.cmd == "suggest":
        from .search import SearchEngine

        t = SearchEngine(a.out).suggest(a.term, max_dist=a.max_dist, k=a.limit)
        print(json.dumps({"suggestions": t.to_pylist()}))
    elif a.cmd == "snapshot":
        from .pipelines.snapshot import snapshot

        print(json.dumps(snapshot(a.out, a.dest)))
    elif a.cmd == "restore":
        from .pipelines.snapshot import restore

        print(json.dumps(restore(a.snap, a.dest)))
    elif a.cmd == "follow":
        from .pipelines.snapshot import follow

        print(json.dumps(follow(a.leader, a.dest)))
    elif a.cmd == "reindex-query":
        _init_ray()
        import glob as _glob

        from .pipelines.reindex import reindex_by_query

        paths = [p for pat in a.input for p in sorted(_glob.glob(pat)) or [pat]]
        print(json.dumps(reindex_by_query(
            paths, a.query, a.dest, scope=a.scope, n_partitions=a.partitions)))
    elif a.cmd == "stop":
        from .state.layout import request_stop

        print(json.dumps(request_stop(a.out)))
    elif a.cmd == "serve":
        from .server import serve

        serve(a.out, host=a.host, port=a.port)
    return 0


if __name__ == "__main__":
    sys.exit(main())
