"""CLI smoke (the REST-surface analog, SURVEY §2.1 S8): build, search,
stats, reindex subcommands end-to-end in a subprocess that owns its own
Ray session."""

import json
import os
import subprocess
import sys


def _run(args, cwd="/root/repo"):
    r = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", *args],
        capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, RAY_DEDUP_LOGS="0"),
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    return json.loads(r.stdout.strip().splitlines()[-1])


def test_cli_build_search_stats(tiny_corpus, tmp_path):
    out = str(tmp_path / "cliidx")
    m = _run(["build", "--input", *tiny_corpus, "--out", out, "--partitions", "2"])
    assert m["state"] == "DONE" and m["stats"]["n_docs"] > 0

    from search_engine_ray import datagen

    r = _run(["search", datagen.stem(0), "--out", out, "--limit", "3", "--snippets"])
    assert r["result"] and r["count"] > 0 and len(r["data"]) == 3
    row = r["data"][0]
    assert {"conv_id", "turn_idx", "role", "tool", "ts", "score", "snippet"} <= set(row)

    s = _run(["stats", "--out", out])
    assert s["total"]["docs"] == m["stats"]["n_docs"]
    assert set(s["per_scope"]) == set(m["stats"]["roles"])

    f = _run(["facets", datagen.stem(0), "--out", out])
    assert f["result"] and f["count"] == r["count"]
    assert sum(x["n_docs"] for x in f["data"] if x["facet"] == "role") == f["count"]

    fd = _run(["facets", datagen.stem(0), "--out", out, "--by", "day"])
    assert fd["result"] and fd["count"] == r["count"]
    assert sum(x["n_docs"] for x in fd["data"]) == fd["count"]
    assert all(x["facet"] == "day" for x in fd["data"])

    fz = _run(["search", datagen.stem(4000)[:-1], "--out", out,
               "--mode", "fuzzy", "--fuzzy-dist", "1", "--limit", "3"])
    assert fz["result"] and fz["count"] > 0

    wc = _run(["search", datagen.stem(0)[:4] + "*", "--out", out,
               "--mode", "wildcard", "--limit", "3"])
    assert wc["result"] and wc["count"] > 0

    rx = _run(["search", datagen.stem(0)[:4] + "[a-z]+", "--out", out,
               "--mode", "regexp", "--limit", "3"])
    assert rx["result"] and rx["count"] == wc["count"]

    # aliases: atomic name->index swap (ES alias API); search rides the
    # alias, a swap to a manifest-less dir refuses, rm + unknown error
    import pathlib

    reg = str(pathlib.Path(out).parent / "reg")
    av = _run(["alias", "set", "serving", out, "--registry", reg])
    assert av["result"] and av["previous"] is None
    ra = _run(["search", datagen.stem(0), "--alias", "serving",
               "--registry", reg, "--limit", "3"])
    assert ra["result"] and ra["count"] == r["count"]
    assert ra["data"] == [
        {k: v for k, v in row.items() if k != "snippet"} for row in r["data"][:3]
    ]
    lst = _run(["alias", "list", "--registry", reg])
    assert list(lst["aliases"]) == ["serving"]
    bad = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "alias", "set", "x",
         str(out) + "_nope", "--registry", reg],
        capture_output=True, text=True, cwd="/root/repo", timeout=120,
    )
    assert json.loads(bad.stdout.strip().splitlines()[-1])["error"] == "no_index"
    rm = _run(["alias", "rm", "serving", "--registry", reg])
    assert rm["result"] and rm["previous"] == os.path.abspath(out)
    gone = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "search", "x",
         "--alias", "serving", "--registry", reg],
        capture_output=True, text=True, cwd="/root/repo", timeout=120,
    )
    assert json.loads(gone.stdout.strip().splitlines()[-1])["error"] == "unknown_alias"

    sfq = _run(["search", datagen.stem(0), "--out", out, "--mode", "phrase",
                "--within-first", "4", "--limit", "3"])
    sfp = _run(["search", datagen.stem(0), "--out", out, "--mode", "phrase",
                "--limit", "3"])
    assert sfq["result"] and 0 < sfq["count"] <= sfp["count"]

    ngq = _run(["search", datagen.stem(0), "--out", out, "--negative",
                datagen.stem(120), "--negative-boost", "1.0", "--limit", "3"])
    assert ngq["result"] and ngq["count"] == r["count"]
    assert ngq["data"] == [
        {k: v for k, v in row.items() if k != "snippet"} for row in r["data"][:3]
    ]

    mgr = _run(["mget", '[["conv-00000000", 0], ["conv-99999999", 0]]',
                "--out", out])
    assert mgr["result"] and mgr["count"] == 1
    assert mgr["data"][0]["found"] and not mgr["data"][1]["found"]
    assert mgr["data"][0]["text"]

    rga = _run(["rangeagg", datagen.stem(0), '[[null, 12], [12, null]]',
                "--out", out])
    assert rga["result"] and len(rga["data"]) == 2
    assert sum(x["n_docs"] for x in rga["data"]) == rga["count"]

    mxs = _run(["matrixstats", datagen.stem(0), "--out", out])
    assert mxs["result"] and mxs["data"][0]["n_docs"] == mxs["count"]
    assert -1.0 <= mxs["data"][0]["corr"] <= 1.0

    prk = _run(["pranks", datagen.stem(0), "--out", out,
                "--values", "0,16,10000"])
    assert prk["result"] and prk["data"][0]["n_le"] == 0
    assert prk["data"][-1]["n_le"] == prk["count"]

    import json as _json

    flt = _json.dumps({"h": datagen.stem(0), "n": "wqxqzq"})
    fa = _run(["filtersagg", flt, "--out", out])
    assert fa["result"] and {x["key"] for x in fa["data"]} == {"h", "n"}
    am = _run(["adjmatrix", _json.dumps({"a": datagen.stem(0),
                                         "b": datagen.stem(1)}), "--out", out])
    assert am["result"] and any("&" in x["key"] for x in am["data"])
    hp = _run(["histogram", datagen.stem(0), "--out", out,
               "--pipeline", "--window", "3", "--interval", "8"])
    assert hp["result"] and hp["data"][0]["deriv"] is None
    assert hp["data"][-1]["cum_docs"] == hp["count"]

    dk = _run(["search", datagen.stem(0), "--out", out, "--limit", "3",
               "--decay", "origin=2026-01-02T00:00:00;scale=86400;shape=exp"])
    assert dk["result"] and dk["count"] == r["count"]

    rsq = f"query={datagen.stem(0)} {datagen.stem(1)};window=50;rescore_weight=2"
    rc = _run(["search", datagen.stem(0), "--out", out, "--limit", "3",
               "--rescore", rsq])
    assert rc["result"] and rc["count"] == r["count"]

    no = _run(["search", f"{datagen.stem(0)} {datagen.stem(1)}", "--out", out,
               "--mode", "near", "--near-window", "4", "--in-order",
               "--limit", "3"])
    nu = _run(["search", f"{datagen.stem(0)} {datagen.stem(1)}", "--out", out,
               "--mode", "near", "--near-window", "4", "--limit", "3"])
    assert no["result"] and 0 < no["count"] <= nu["count"]

    last = r["data"][-1]
    cu = _run(["search", datagen.stem(0), "--out", out, "--limit", "3",
               "--after", repr(last["score"]), last["conv_id"], str(last["turn_idx"])])
    of = _run(["search", datagen.stem(0), "--out", out, "--limit", "3", "--offset", "3"])
    assert cu["result"] and [
        (x["conv_id"], x["turn_idx"]) for x in cu["data"]
    ] == [(x["conv_id"], x["turn_idx"]) for x in of["data"]]

    probe = r["data"][0]
    ml = _run(["mlt", probe["conv_id"], str(probe["turn_idx"]), "--out", out,
               "--limit", "3"])
    assert ml["result"] and ml["count"] > 0
    assert all(
        (x["conv_id"], x["turn_idx"]) != (probe["conv_id"], probe["turn_idx"])
        for x in ml["data"]
    )

    # synonym expansion: absent term rescued by a mapped present one
    sy = _run(["search", "wqxqzq", "--out", out, "--limit", "3",
               "--synonyms", f"wqxqzq={datagen.stem(0)}"])
    assert sy["result"] and sy["count"] == r["count"]

    mx = _run(["metrics", datagen.stem(0), "--out", out])
    assert mx["result"] and mx["count"] == r["count"]
    assert {x["field"] for x in mx["data"]} == {"doc_len", "ts"}
    dl = next(x for x in mx["data"] if x["field"] == "doc_len")
    assert dl["v_min"] <= dl["p50"] <= dl["p90"] <= dl["p99"] <= dl["v_max"]
    assert dl["n_docs"] == mx["count"]

    cd = _run(["cardinality", datagen.stem(0), "--out", out,
               "--fields", "conv,role"])
    assert cd["result"] and cd["count"] == r["count"]
    assert [x["field"] for x in cd["data"]] == ["conv", "role"]
    assert all(0 < x["n_distinct"] <= cd["count"] for x in cd["data"])

    th = _run(["tophits", datagen.stem(0), "--out", out, "--per-group", "2"])
    assert th["result"] and th["count"] == r["count"]
    for g in {x["group"] for x in th["data"]}:
        ranks = [x["grank"] for x in th["data"] if x["group"] == g]
        assert ranks == list(range(1, len(ranks) + 1)) and len(ranks) <= 2

    xc, xt = r["data"][0]["conv_id"], r["data"][0]["turn_idx"]
    xp = _run(["explain", datagen.stem(0), xc, str(xt), "--out", out])
    assert xp["result"] and xp["count"] == 1
    assert xp["total"] == r["data"][0]["score"]
    assert xp["data"] and all(x["tf"] >= 0 for x in xp["data"])

    co = _run(["complete", datagen.stem(0)[:4], "--out", out, "--k", "5"])
    assert co["result"] and co["data"]
    dfs = [x["df"] for x in co["data"]]
    assert dfs == sorted(dfs, reverse=True)

    az = _run(["analyze", "The Quick FOXES ran!", "--out", out])
    assert az["result"] and [x["token"] for x in az["data"]] == \
        ["quick", "foxes", "ran"]

    hg = _run(["histogram", datagen.stem(0), "--out", out, "--interval", "16"])
    assert hg["result"] and sum(x["n_docs"] for x in hg["data"]) == hg["count"]

    bq = f"{datagen.stem(10)} {datagen.stem(11)}"
    b1 = _run(["search", bq, "--out", out, "--limit", "5",
               "--boost", f"{datagen.stem(11)}=1.0"])
    b0 = _run(["search", bq, "--out", out, "--limit", "5"])
    assert b1["result"] and b1["data"] == b0["data"]  # 1.0 = exact no-op

    dy = _run(["didyoumean", f"{datagen.stem(0)[:-1]}x {datagen.stem(11)}",
               "--out", out])
    assert dy["result"] and dy["changed"]
    assert datagen.stem(0) in dy["corrected"]

    cpg = _run(["composite", datagen.stem(0), "--out", out, "--size", "2"])
    assert cpg["result"] and len(cpg["data"]) <= 2
    if cpg["after_key"]:
        cp2 = _run(["composite", datagen.stem(0), "--out", out, "--size", "2",
                    "--after-role", cpg["after_key"][0],
                    "--after-tool", cpg["after_key"][1]])
        assert cp2["result"]
        assert all((x["role"], x["tool"]) > tuple(cpg["after_key"])
                   for x in cp2["data"])

    xd = str(tmp_path / "exported")
    xr = _run(["export", datagen.stem(0), "--out", out, "--dest", xd])
    assert xr["result"] and xr["count"] == r["count"]
    import pyarrow.dataset as pads
    assert pads.dataset(xd).count_rows() == xr["count"]

    tv = _run(["termvectors", xc, str(xt), "--out", out])
    assert tv["result"] and tv["count"] == 1
    assert sum(x["tf"] for x in tv["data"]) == tv["data"][0]["dl"]

    rv = _run(["rankeval", datagen.stem(0), "--out", out, "--k", "5"])
    assert rv["result"] and rv["count"] == r["count"]
    row = rv["data"][0]
    assert row["k"] == 5 and row["n_hits"] <= 5
    assert rv["precision"] == row["n_rel_ret"] / 5

    sg = _run(["sigterms", datagen.stem(0), "--out", out, "--limit", "5"])
    assert sg["result"] and sg["count"] == r["count"]
    assert sg["data"] and len(sg["data"]) <= 5
    assert {"rank", "lemma", "fg_docs", "bg_docs", "score"} <= set(sg["data"][0])

    rt = _run(["rareterms", datagen.stem(0), "--out", out,
               "--max-doc-count", "20", "--limit", "5"])
    assert rt["result"] and rt["count"] == r["count"]
    assert all(x["bg_docs"] <= 20 for x in rt["data"])

    import json as _json
    ms = _run(["msearch", _json.dumps([
        {"query": datagen.stem(0), "limit": 3},
        {"bad": "line"},
    ]), "--out", out])
    assert ms["result"] and len(ms["responses"]) == 2
    assert ms["responses"][0]["count"] == r["count"]
    assert ms["responses"][1]["error"] == "bad_request"

    conv = r["data"][0]["conv_id"]
    d = _run(["reindex", "--out", out, "--conv", conv])
    assert d["result"] and d["generation"] == 1
    r2 = _run(["search", datagen.stem(0), "--out", out, "--limit", "3"])
    assert r2["result"]

    # update-by-query: rewrite a term's surface forms in matching turns
    upd = datagen.stem(44)
    ucount = _run(["search", upd, "--out", out, "--limit", "1"])["count"]
    assert ucount > 0
    ur = _run(["update", upd, "--out", out,
               "--pattern", r"(?i)\b" + upd + r"\w*",
               "--replacement", "xclitok"])
    assert ur["result"] and ur["updated"] == ucount and ur["generations"]
    assert _run(["search", upd, "--out", out, "--limit", "1"])["count"] == 0
    assert _run(["search", "xclitok", "--out", out, "--limit", "1"])["count"] == ucount

    # delete-by-query stacks a generation on the reindex and empties the
    # probe's matching set (ES _delete_by_query parity)
    probe2 = datagen.stem(40)
    dcount = _run(["search", probe2, "--out", out, "--limit", "1"])["count"]
    assert dcount > 0
    dl = _run(["delete", probe2, "--out", out])
    assert dl["result"] and dl["deleted"] == dcount and dl["generations"]
    r3 = _run(["search", probe2, "--out", out, "--limit", "1"])
    assert r3["result"] and r3["count"] == 0


def test_cli_group_by_conv_rejects_turn_parameters(tiny_index, capsys):
    """--group-by-conv refuses a search flag conversation grouping does
    not take (bad_group, exit 1) and passes --conjunctive through."""
    from search_engine_ray import datagen
    from search_engine_ray.__main__ import main

    out, hot = tiny_index["out_dir"], datagen.stem(0)
    for extra in (["--ts-min", "2026-01-02"], ["--exclude", datagen.stem(1)],
                  ["--snippets"], ["--mode", "phrase"]):
        assert main(["search", hot, "--out", out, "--group-by-conv", *extra]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "result": False, "error": "bad_group"}
    q = f"{hot} {datagen.stem(1)}"
    assert main(["search", q, "--out", out, "--group-by-conv"]) == 0
    anyterm = json.loads(capsys.readouterr().out)
    assert main(["search", q, "--out", out, "--group-by-conv", "--conjunctive"]) == 0
    both = json.loads(capsys.readouterr().out)
    assert both["result"] and 0 < both["count"] < anyterm["count"]
    assert {"conv_id", "n_turns", "best_turn_idx", "score"} <= set(both["data"][0])
