"""The read-surface table (surface.py), shared by the HTTP server and the
CLI: every keyword it passes is a parameter of the named engine method,
every HTTP endpoint has its CLI subcommand and the reverse, and both
surfaces answer the same request with the same JSON."""

from __future__ import annotations

import inspect
import json
import threading
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest

from search_engine_ray import datagen, surface
from search_engine_ray.__main__ import main
from search_engine_ray.federate import FederatedEngine
from search_engine_ray.search import SearchEngine
from search_engine_ray.server import make_server


def test_table_keywords_are_engine_parameters():
    for ep in surface.ENDPOINTS:
        cls = FederatedEngine if ep.index == "outs" else SearchEngine
        sig = inspect.signature(getattr(cls, ep.method)).parameters
        kw = {p.kw: ("a", "b") for p in ep.params}
        if ep.prepare:
            ep.prepare(kw)
        assert set(kw) <= set(sig) - {"self"}, (ep.cli, ep.method)
        # a parameter the method cannot default is always passed
        needed = {n for n, s in sig.items() if n != "self" and s.default is s.empty}
        always = {p.kw for p in ep.params
                  if p.required or p.default is not surface.MISSING}
        assert needed <= always, (ep.cli, ep.method)


def test_every_endpoint_has_both_surfaces(capsys):
    for ep in surface.ENDPOINTS:
        # only the shard fan-out has no server (one server serves one index)
        assert (ep.http is None) == (ep.index == "outs"), ep.method
        with pytest.raises(SystemExit) as e:
            main([ep.cli, "--help"])
        assert e.value.code == 0, ep.cli
    capsys.readouterr()


@pytest.fixture(scope="module")
def http(tiny_index):
    srv = make_server(tiny_index["out_dir"], port=0)
    th = threading.Thread(target=srv.serve_forever, daemon=True)
    th.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()
    srv.server_close()


def test_server_answers_every_table_route(http):
    """No table route is a 404: with no parameters each is refused or
    answered by the engine."""
    for (verb, path) in surface.HTTP:
        req = urllib.request.Request(http + path, method=verb)
        try:
            with urllib.request.urlopen(req) as r:
                code = r.status
        except urllib.error.HTTPError as e:
            code = e.code
        assert code in (200, 400), (verb, path, code)


def test_http_and_cli_answer_alike(http, tiny_index, capsys):
    out = tiny_index["out_dir"]
    hot, other = datagen.stem(0), datagen.stem(1)
    docs = '[["conv-00000000", 0], ["conv-99999999", 0]]'
    ranges = '[[null, 12], [12, null]]'
    cases = [
        (f"/api/search?query={hot}&limit=4&site=user&exclude={other}&snippets=1",
         ["search", hot, "--limit", "4", "--scope", "user", "--exclude", other,
          "--snippets"]),
        (f"/api/search?query={hot}+{other}&group=conv&conjunctive=1&limit=3",
         ["search", f"{hot} {other}", "--group-by-conv", "--conjunctive",
          "--limit", "3"]),
        (f"/api/facets?query={hot}&by=role,tool,day&ts_min=2026-01-05",
         ["facets", hot, "--by", "role,tool,day", "--ts-min", "2026-01-05"]),
        (f"/api/metrics?query={hot}+{other}&conjunctive=1&fields=doc_len",
         ["metrics", f"{hot} {other}", "--conjunctive", "--fields", "doc_len"]),
        (f"/api/mget?docs={quote(docs)}", ["mget", docs]),
        (f"/api/rangeAgg?query={hot}&ranges={quote(ranges)}&exclude={other}",
         ["rangeagg", hot, ranges, "--exclude", other]),
        (f"/api/composite?query={hot}&size=2&conjunctive=1&after_role=assistant",
         ["composite", hot, "--size", "2", "--conjunctive", "--after-role",
          "assistant"]),
        (f"/api/search?query={hot}&mode=phrase&within_first=0",
         ["search", hot, "--mode", "phrase", "--within-first", "0"]),
        (f"/api/mget?docs=notjson", ["mget", "notjson"]),
    ]
    for path, argv in cases:
        try:
            with urllib.request.urlopen(http + path) as r:
                over_http = json.loads(r.read())
        except urllib.error.HTTPError as e:
            over_http = json.loads(e.read())
        code = main([*argv, "--out", out])
        over_cli = json.loads(capsys.readouterr().out)
        assert over_cli == over_http, path
        assert code == (0 if over_http["result"] else 1), path
