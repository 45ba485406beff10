"""HTTP/JSON serving layer (server.py — the reference ApiController
analog): search, statistics, indexPage (live reload), stopIndexing."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import logging

import pytest

from search_engine_ray import datagen, server
from search_engine_ray.search import SearchEngine
from search_engine_ray.server import make_server


@pytest.fixture(scope="module")
def served(ray_session, tiny_index, tmp_path_factory):
    import shutil

    # serve a COPY: the indexPage test appends a delta generation and
    # must not mutate the session-shared index
    out = str(tmp_path_factory.mktemp("served-idx"))
    shutil.copytree(tiny_index["out_dir"], out, dirs_exist_ok=True)
    srv = make_server(out, port=0)  # ephemeral port
    th = threading.Thread(target=srv.serve_forever, daemon=True)
    th.start()
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    yield base, out
    srv.shutdown()
    srv.server_close()


def _get(url: str):
    with urllib.request.urlopen(url) as r:
        return r.status, json.loads(r.read())


def _err(url: str):
    """-> (status, error) of a request that must fail."""
    try:
        urllib.request.urlopen(url)
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())["error"]
    raise AssertionError("expected an HTTP error")


def test_search_endpoint(served):
    base, _ = served
    hot = datagen.stem(0)
    code, got = _get(f"{base}/api/search?query={hot}&limit=3&snippets=1")
    assert code == 200 and got["result"] and got["count"] > 0
    assert len(got["data"]) == 3
    assert {"conv_id", "turn_idx", "role", "score", "snippet"} <= set(got["data"][0])
    # boosting query: a demoted result set has the same count
    code, ng = _get(f"{base}/api/search?query={hot}&limit=3"
                    f"&negative={datagen.stem(120)}&negative_boost=0.5")
    assert code == 200 and ng["result"] and ng["count"] == got["count"]
    # scope + phrase mode round-trip the query params
    code, got = _get(f"{base}/api/search?query={hot}+{datagen.stem(1)}&mode=phrase&limit=2")
    assert code == 200 and got["result"] and got["count"] > 0
    # fuzzy mode + edit budget round-trip (deletion typo of a mid stem)
    typo = datagen.stem(4000)[:-1]
    code, got = _get(f"{base}/api/search?query={typo}&mode=fuzzy&fuzzy=1&limit=3")
    assert code == 200 and got["result"] and got["count"] > 0
    # wildcard mode round-trips (the metachars are URL-safe enough for
    # a bare query param: * is unreserved, ? only terminates the PATH)
    code, got = _get(f"{base}/api/search?query={hot[:4]}*&mode=wildcard&limit=3")
    assert code == 200 and got["result"] and got["count"] > 0
    # regexp mode round-trips (class brackets URL-encoded)
    code, got = _get(
        f"{base}/api/search?query={hot[:4]}%5Ba-z%5D%2B&mode=regexp&limit=3")
    assert code == 200 and got["result"] and got["count"] > 0
    # function-score decay round-trips (the ; and = are URL-encoded)
    dec = "origin%3D2026-01-02T00%3A00%3A00%3Bscale%3D86400%3Bshape%3Dexp"
    code, got = _get(f"{base}/api/search?query={hot}&limit=3&decay={dec}")
    assert code == 200 and got["result"] and got["count"] > 0
    # two-phase rescore round-trips
    rsq = f"query%3D{hot}%20{datagen.stem(1)}%3Bwindow%3D50"
    code, got = _get(f"{base}/api/search?query={hot}&limit=3&rescore={rsq}")
    assert code == 200 and got["result"] and got["count"] > 0
    # ordered proximity round-trips &in_order=1
    code, got = _get(f"{base}/api/search?query={hot}+{datagen.stem(1)}"
                     f"&mode=near&window=4&in_order=1&limit=3")
    assert code == 200 and got["result"] and got["count"] > 0
    # cursor pagination round-trips &after=score,conv,turn == offset page 2
    code, p1 = _get(f"{base}/api/search?query={hot}&limit=3")
    lastrow = p1["data"][-1]
    after = f"{lastrow['score']!r},{lastrow['conv_id']},{lastrow['turn_idx']}"
    code, got = _get(f"{base}/api/search?query={hot}&limit=3&after={after}")
    code, off = _get(f"{base}/api/search?query={hot}&limit=3&offset=3")
    assert code == 200 and got["result"]
    assert [(r["conv_id"], r["turn_idx"]) for r in got["data"]] == [
        (r["conv_id"], r["turn_idx"]) for r in off["data"]
    ]
    # more-like-this endpoint: probe excluded, standard result shape
    probe = got["data"][0] if got["data"] else p1["data"][0]
    code, ml = _get(f"{base}/api/mlt?conv={probe['conv_id']}&turn={probe['turn_idx']}&limit=3")
    assert code == 200 and ml["result"] and ml["count"] > 0
    assert all(
        (r["conv_id"], r["turn_idx"]) != (probe["conv_id"], probe["turn_idx"])
        for r in ml["data"]
    )
    # synonym expansion round-trips &synonyms= (absent term rescued)
    code, sy = _get(
        f"{base}/api/search?query=wqxqzq&limit=3&synonyms=wqxqzq%3D{hot}"
    )
    assert code == 200 and sy["result"] and sy["count"] == p1["count"]
    # field collapsing caps per-conversation rows
    code, got = _get(f"{base}/api/search?query={hot}&collapse=1&limit=50")
    assert code == 200 and got["result"]
    convs = [r["conv_id"] for r in got["data"]]
    assert len(convs) == len(set(convs))
    # conversation grouping returns the conv-level schema
    code, got = _get(f"{base}/api/search?query={hot}&group=conv&limit=3")
    assert code == 200 and got["result"] and got["count"] > 0
    assert {"conv_id", "n_turns", "best_turn_idx", "score"} <= set(got["data"][0])


def test_search_endpoint_bad_scope(served):
    base, _ = served
    try:
        urllib.request.urlopen(f"{base}/api/search?query={datagen.stem(0)}&site=nope")
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400
        assert json.loads(e.read())["error"] == "bad_scope"


def test_group_conv_rejects_turn_parameters(served):
    """group=conv ranks conversations with search_conversations, which
    takes scope, page and conjunctive only: any other search parameter
    is refused (bad_group), not silently dropped; conjunctive applies."""
    base, _ = served
    hot, other = datagen.stem(0), datagen.stem(1)
    for extra in (f"&exclude={other}", "&ts_min=2026-01-02", "&mode=phrase",
                  "&snippets=1", "&collapse=1", "&order=ts_desc"):
        assert _err(f"{base}/api/search?query={hot}&group=conv{extra}") == (
            400, "bad_group"), extra
    _, anyterm = _get(f"{base}/api/search?query={hot}+{other}&group=conv")
    code, both = _get(f"{base}/api/search?query={hot}+{other}&group=conv&conjunctive=1")
    assert code == 200 and both["result"] and 0 < both["count"] < anyterm["count"]
    assert {"conv_id", "n_turns", "best_turn_idx", "score"} <= set(both["data"][0])


def test_bad_parameter_is_400_and_server_fault_is_500(served, monkeypatch, caplog):
    """A parameter that does not convert is the client's fault (400
    bad_request); an exception inside the engine is the server's (500
    internal_error, traceback logged)."""
    base, _ = served
    hot = datagen.stem(0)
    assert _err(f"{base}/api/search?query={hot}&limit=ten") == (400, "bad_request")
    assert _err(f"{base}/api/histogram?query={hot}&interval=1.5") == (400, "bad_request")

    def boom(self, *args, **kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(SearchEngine, "facets", boom)
    with caplog.at_level(logging.ERROR, logger="search_engine_ray.server"):
        assert _err(f"{base}/api/facets?query={hot}") == (500, "internal_error")
    assert any(r.exc_info and "engine fault" in str(r.exc_info[1])
               for r in caplog.records)


def _addr(base: str) -> tuple[str, int]:
    host, port = base.rsplit("/", 1)[1].split(":")
    return host, int(port)


def _exchange(base: str, data: bytes) -> tuple[int, bytes]:
    """Send ``data`` on a fresh connection and read until the server
    closes it; -> (status, body)."""
    with socket.create_connection(_addr(base), timeout=10) as s:
        s.sendall(data)
        got = b""
        while chunk := s.recv(65536):
            got += chunk
    head, _, body = got.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def _workers(port: int) -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == f"search_engine_ray.server:{port}"]


def test_malformed_requests_answer_and_close(served):
    """A request refused before routing still gets a JSON answer, and the
    connection closes: a malformed request line 400, a request head past
    the bound 431, a method the server does not serve 501."""
    base, _ = served
    for data, want in (
        (b"NONSENSE\r\n\r\n", (400, "bad_request")),
        (b"GET /api/search?query=x HTTP/9.9\r\n\r\n", (400, "bad_request")),
        (b"GET /api/search?query=x HTTP/1.0\r\nX-Pad: " + b"a" * (server.HEAD_MAX + 10)
         + b"\r\n\r\n", (431, "headers_too_large")),
        (b"DELETE /api/search?query=x HTTP/1.0\r\n\r\n", (501, "unsupported_method")),
        (b"HEAD / HTTP/1.1\r\nHost: x\r\n\r\n", (501, "unsupported_method")),
    ):
        code, body = _exchange(base, data)
        assert (code, json.loads(body)["error"]) == want, data[:40]
    # a bare-LF request head is read like a CRLF one
    code, body = _exchange(base, b"GET /api/statistics HTTP/1.0\n\n")
    assert code == 200 and json.loads(body)["total"]["docs"] > 0


def test_msearch_invalid_content_length_is_bad_request(served):
    base, _ = served
    for length in (b"ten", b"-2"):
        code, body = _exchange(
            base, b"POST /api/msearch HTTP/1.0\r\nContent-Length: " + length + b"\r\n\r\n[]")
        assert (code, json.loads(body)["error"]) == (400, "bad_request"), length
    # a body split from its head across writes is read in full
    req = json.dumps([{"query": datagen.stem(0), "limit": 1}]).encode()
    with socket.create_connection(_addr(base), timeout=10) as s:
        s.sendall(b"POST /api/msearch HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(req))
        time.sleep(0.05)
        s.sendall(req)
        got = b""
        while chunk := s.recv(65536):
            got += chunk
    assert json.loads(got.partition(b"\r\n\r\n")[2])["responses"][0]["count"] > 0


def test_client_disconnect_frees_its_worker(served):
    """50 clients that leave mid-request (half of them with a reset) each
    free their worker: a normal query still answers, and the pool
    settles back to at most IDLE_WORKERS waiting workers."""
    base, _ = served
    for i in range(50):
        s = socket.create_connection(_addr(base), timeout=10)
        s.sendall(b"GET /api/search?query=x HTTP/1.0\r\nHost: ")
        if i % 2:
            s.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, b"\x01\0\0\0\0\0\0\0")
        s.close()
    code, got = _get(f"{base}/api/search?query={datagen.stem(0)}&limit=3")
    assert code == 200 and got["count"] > 0
    deadline = time.monotonic() + 10
    while len(_workers(_addr(base)[1])) > server.IDLE_WORKERS and time.monotonic() < deadline:
        time.sleep(0.05)
    assert 0 < len(_workers(_addr(base)[1])) <= server.IDLE_WORKERS


def test_idle_connections_do_not_stall_a_search(served):
    """Clients that connect and send nothing each hold a worker; the pool
    grows past them, so another client's search answers at once."""
    base, _ = served
    held = [socket.create_connection(_addr(base), timeout=10)
            for _ in range(server.IDLE_WORKERS + 2)]
    try:
        held[0].sendall(b"GET /api/search?query=")  # part of a request line
        with urllib.request.urlopen(
                f"{base}/api/search?query={datagen.stem(0)}&limit=3", timeout=10) as r:
            assert r.status == 200 and json.loads(r.read())["count"] > 0
    finally:
        for s in held:
            s.close()


def test_access_log_line_per_request(served, caplog):
    """One JSON line per request on search_engine_ray.server.access when
    INFO is on: path, status, latency, count and error."""
    base, _ = served
    hot = datagen.stem(0)
    name = "search_engine_ray.server.access"
    with caplog.at_level(logging.INFO, logger=name):
        ok = _exchange(base, f"GET /api/search?query={hot}&limit=2 HTTP/1.0\r\n\r\n".encode())
        bad = _exchange(base, b"GET /api/search?query= HTTP/1.0\r\n\r\n")
    lines = [json.loads(r.getMessage()) for r in caplog.records if r.name == name]
    assert [(x["path"], x["status"], x["error"]) for x in lines] == [
        ("/api/search", 200, None), ("/api/search", 400, "empty_query")]
    assert lines[0]["count"] == json.loads(ok[1])["count"] > 0
    assert lines[1]["count"] is None and bad[0] == 400
    assert all(x["latency_ms"] >= 0 for x in lines)
    # off (the default level): no line
    caplog.clear()
    _exchange(base, f"GET /api/search?query={hot} HTTP/1.0\r\n\r\n".encode())
    assert not [r for r in caplog.records if r.name == name]


def test_statistics_endpoint(served):
    base, _ = served
    code, got = _get(f"{base}/api/statistics")
    assert code == 200
    assert got["total"]["docs"] > 0 and got["per_scope"]


def test_significant_endpoint(served):
    """Significant-terms over live HTTP: standard row shape, query
    lemma excluded, count == the facets matching frame (the surface is
    overlay-aware, so later lifecycle tests don't disturb it)."""
    base, _ = served
    hot = datagen.stem(0)
    code, got = _get(f"{base}/api/significant?query={hot}&limit=5")
    assert code == 200 and got["result"] and got["count"] > 0
    assert got["data"] and len(got["data"]) <= 5
    assert {"rank", "lemma", "fg_docs", "bg_docs", "score"} <= set(got["data"][0])
    code, fc = _get(f"{base}/api/facets?query={hot}")
    assert got["count"] == fc["count"]
    # rare-terms endpoint: same matching frame, all bg under the ceiling
    code, rt = _get(f"{base}/api/rareTerms?query={hot}&max_doc_count=20&limit=5")
    assert code == 200 and rt["result"] and rt["count"] == fc["count"]
    assert all(x["bg_docs"] <= 20 for x in rt["data"])
    # msearch: JSON-array POST body, line-level errors in place
    body = json.dumps([
        {"query": hot, "limit": 2},
        {"nope": 1},
    ]).encode()
    req = urllib.request.Request(
        f"{base}/api/msearch", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as r:
        ms = json.loads(r.read())
    assert ms["result"] and len(ms["responses"]) == 2
    assert ms["responses"][0]["count"] == fc["count"]
    assert ms["responses"][1]["error"] == "bad_request"


def test_stop_indexing_endpoint(served):
    import os

    base, out = served
    code, got = _get(f"{base}/api/stopIndexing")
    assert code == 200 and got["result"]
    from search_engine_ray.pipelines import build

    assert os.path.exists(build.stop_flag_path(out))
    build.clear_stop(out)


def test_index_page_endpoint_reloads_engine(served):
    base, out = served
    # re-index an existing conversation from the build's own inputs
    conv = "conv-00000000"
    req = urllib.request.Request(f"{base}/api/indexPage?conv={conv}", method="POST")
    with urllib.request.urlopen(req) as r:
        got = json.loads(r.read())
    assert got["result"] and got["generation"] >= 1
    # served engine reloaded: statistics shows the generation
    _, st = _get(f"{base}/api/statistics")
    assert any(g["conv_ids"] == [conv] for g in st["delta_generations"])
    # unknown conv -> 400, reference-style error body
    req = urllib.request.Request(f"{base}/api/indexPage?conv=conv-zzz", method="POST")
    try:
        urllib.request.urlopen(req)
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400
        assert "rebuild" in json.loads(e.read())["error"]


def test_dashboard_page(served):
    """GET / serves the statistics-dashboard + search page (the
    reference templates/index.html analog)."""
    base, _ = served
    with urllib.request.urlopen(f"{base}/") as r:
        assert r.status == 200
        assert "text/html" in r.headers["Content-Type"]
        body = r.read().decode()
    assert "ray-transcript-search" in body and "/api/search" in body


def test_facets_endpoint(served):
    base, _ = served
    hot = datagen.stem(0)
    code, got = _get(f"{base}/api/facets?query={hot}")
    assert code == 200 and got["result"] and got["count"] > 0
    assert {"facet", "value", "n_docs"} <= set(got["data"][0])
    role_total = sum(r["n_docs"] for r in got["data"] if r["facet"] == "role")
    assert role_total == got["count"]
    code2, scoped = _get(f"{base}/api/facets?query={hot}&site=user")
    assert code2 == 200 and scoped["count"] <= got["count"]


def test_metrics_endpoint(served):
    base, _ = served
    hot = datagen.stem(0)
    code, got = _get(f"{base}/api/metrics?query={hot}")
    assert code == 200 and got["result"] and got["count"] > 0
    assert {x["field"] for x in got["data"]} == {"doc_len", "ts"}
    row = next(x for x in got["data"] if x["field"] == "ts")
    assert row["v_min"] <= row["p50"] <= row["p99"] <= row["v_max"]
    code, fc = _get(f"{base}/api/facets?query={hot}")
    assert got["count"] == fc["count"]


def test_cardinality_endpoint(served):
    base, _ = served
    hot = datagen.stem(0)
    code, got = _get(f"{base}/api/cardinality?query={hot}&fields=conv,tool")
    assert code == 200 and got["result"] and got["count"] > 0
    assert [x["field"] for x in got["data"]] == ["conv", "tool"]
    assert all(0 < x["n_distinct"] <= got["count"] for x in got["data"])
    try:
        _get(f"{base}/api/cardinality?query={hot}&fields=nope")
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400


def test_explain_endpoint(served):
    base, _ = served
    hot = datagen.stem(0)
    code, sr = _get(f"{base}/api/search?query={hot}&limit=1")
    assert code == 200 and sr["data"]
    conv, turn = sr["data"][0]["conv_id"], sr["data"][0]["turn_idx"]
    code, got = _get(f"{base}/api/explain?query={hot}&conv={conv}&turn={turn}")
    assert code == 200 and got["result"] and got["count"] == 1
    assert got["total"] == sr["data"][0]["score"]
    assert {"lemma", "df", "tf", "dl", "idf", "weight"} <= set(got["data"][0])
    try:
        _get(f"{base}/api/explain?query={hot}&conv=nope&turn=0")
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400
        assert json.loads(e.read())["error"] == "not_found"


def test_complete_endpoint(served):
    base, _ = served
    pre = datagen.stem(0)[:4]
    code, got = _get(f"{base}/api/complete?prefix={pre}&k=5")
    assert code == 200 and got["result"] and got["data"]
    assert all(x["lemma"].startswith(pre) for x in got["data"])
    try:
        _get(f"{base}/api/complete?prefix=w")
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400


def test_analyze_endpoint(served):
    base, _ = served
    code, got = _get(f"{base}/api/analyze?text=The%20Quick%20FOXES%20ran!")
    assert code == 200 and got["result"] and got["count"] == 3
    assert [x["lemma"] for x in got["data"]] == ["quick", "fox", "ran"]


def test_histogram_endpoint(served):
    base, _ = served
    hot = datagen.stem(0)
    code, got = _get(f"{base}/api/histogram?query={hot}&interval=16")
    assert code == 200 and got["result"] and got["count"] > 0
    assert sum(x["n_docs"] for x in got["data"]) == got["count"]
    assert all(x["bucket"] % 16 == 0 for x in got["data"])


def test_filter_agg_endpoints(served):
    base, _ = served
    import json as _json
    from urllib.parse import quote

    hot, other = datagen.stem(0), datagen.stem(1)
    flt = quote(_json.dumps({"h": hot, "o": other, "n": "wqxqzq"}))
    code, got = _get(f"{base}/api/filtersAgg?filters={flt}")
    assert code == 200 and got["result"]
    d = {x["key"]: x["n_docs"] for x in got["data"]}
    assert set(d) == {"h", "o", "n"} and d["n"] == 0 and d["h"] > 0
    code, got = _get(f"{base}/api/adjacencyMatrix?filters={flt}")
    assert code == 200 and got["result"]
    keys = {x["key"] for x in got["data"]}
    assert "h&o" in keys and "n" not in keys  # zero buckets omitted
    code, got = _get(
        f"{base}/api/histogramPipeline?query={hot}&interval=8&window=3")
    assert code == 200 and got["result"]
    assert got["data"][0]["deriv"] is None
    assert got["data"][-1]["cum_docs"] == got["count"]
    code, got = _get(
        f"{base}/api/search?query={hot}&mode=phrase&within_first=4&limit=3")
    assert code == 200 and got["result"] and got["count"] > 0
    assert _err(f"{base}/api/search?query={hot}&mode=phrase&within_first=0"
                ) == (400, "bad_within_first")
    from urllib.parse import quote as _quote

    docs = _quote('[["conv-00000000", 0], ["conv-99999999", 0]]')
    code, got = _get(f"{base}/api/mget?docs={docs}")
    assert code == 200 and got["result"] and got["count"] == 1
    assert got["data"][0]["found"] and not got["data"][1]["found"]
    rngs = _quote('[[null, 12], [12, null]]')
    code, got = _get(f"{base}/api/rangeAgg?query={hot}&ranges={rngs}")
    assert code == 200 and got["result"] and len(got["data"]) == 2
    assert sum(x["n_docs"] for x in got["data"]) == got["count"]
    code, got = _get(f"{base}/api/matrixStats?query={hot}")
    assert code == 200 and got["result"]
    assert got["data"][0]["n_docs"] == got["count"]
    code, got = _get(
        f"{base}/api/percentileRanks?query={hot}&values=0,16,10000")
    assert code == 200 and got["result"]
    assert got["data"][0]["n_le"] == 0
    assert got["data"][-1]["n_le"] == got["count"]
    try:
        _get(f"{base}/api/filtersAgg?filters=notjson")
        raise AssertionError("expected 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400
        assert not json.loads(e.read())["result"]


def test_didyoumean_endpoint(served):
    base, _ = served
    hot = datagen.stem(0)
    code, got = _get(f"{base}/api/didYouMean?query={hot}x%20{datagen.stem(11)}")
    assert code == 200 and got["result"] and got["changed"]
    assert hot in got["corrected"]
    assert {"pos", "token", "suggestion", "df", "dist"} <= set(got["data"][0])


def test_composite_endpoint(served):
    base, _ = served
    hot = datagen.stem(0)
    code, got = _get(f"{base}/api/composite?query={hot}&size=2")
    assert code == 200 and got["result"] and got["count"] > 0
    assert len(got["data"]) <= 2
    keys = [(x["role"], x["tool"]) for x in got["data"]]
    assert keys == sorted(keys)
    if got["after_key"]:
        ar, at = got["after_key"]
        code, nxt = _get(
            f"{base}/api/composite?query={hot}&size=2&after_role={ar}&after_tool={at}"
        )
        assert code == 200
        nkeys = [(x["role"], x["tool"]) for x in nxt["data"]]
        assert all(k > (ar, at) for k in nkeys)


def test_export_endpoint(served, tmp_path):
    base, _ = served
    hot = datagen.stem(0)
    dest = str(tmp_path / "srv_export")
    code, got = _get(f"{base}/api/export?query={hot}&dest={dest}")
    assert code == 200 and got["result"] and got["count"] > 0
    import pyarrow.dataset as pads
    assert pads.dataset(dest).count_rows() == got["count"]
    try:
        _get(f"{base}/api/export?query={hot}&dest={dest}")
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400
        assert json.loads(e.read())["error"] == "dest_exists"


def test_termvectors_endpoint(served):
    base, _ = served
    hot = datagen.stem(0)
    code, sr = _get(f"{base}/api/search?query={hot}&limit=1")
    conv, turn = sr["data"][0]["conv_id"], sr["data"][0]["turn_idx"]
    code, got = _get(f"{base}/api/termvectors?conv={conv}&turn={turn}")
    assert code == 200 and got["result"] and got["count"] == 1
    assert {"lemma", "tf", "df", "dl"} <= set(got["data"][0])
    assert any(x["lemma"] == hot for x in got["data"])
    try:
        _get(f"{base}/api/termvectors?conv=nope&turn=0")
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400
        assert json.loads(e.read())["error"] == "not_found"


def test_rank_eval_endpoint(served):
    base, _ = served
    hot = datagen.stem(0)
    code, got = _get(f"{base}/api/rankEval?query={hot}&k=5")
    assert code == 200 and got["result"] and got["count"] > 0
    row = got["data"][0]
    assert row["k"] == 5 and row["n_hits"] <= 5
    assert got["precision"] == row["n_rel_ret"] / 5
    assert row["gain_top"] <= row["gain_ideal"]
    try:
        _get(f"{base}/api/rankEval?query={hot}&scope=no-such-role")
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400


def test_tophits_endpoint(served):
    base, _ = served
    hot = datagen.stem(0)
    code, got = _get(f"{base}/api/tophits?query={hot}&per_group=2")
    assert code == 200 and got["result"] and got["count"] > 0
    groups = {x["group"] for x in got["data"]}
    assert groups  # at least one role bucket
    for g in groups:
        ranks = [x["grank"] for x in got["data"] if x["group"] == g]
        assert ranks == list(range(1, len(ranks) + 1)) and len(ranks) <= 2


def test_update_by_query_endpoint(served):
    """POST /api/updateByQuery (ES _update_by_query parity): matched
    turns' text is regex-rewritten, the old term stops matching, the
    replacement becomes searchable, and the served engine reloads.
    Runs late in the module — it mutates the served index."""
    base, _ = served
    probe = datagen.stem(43)
    _, before = _get(f"{base}/api/search?query={probe}&limit=1")
    assert before["count"] > 0
    pattern = urllib.parse.quote(r"(?i)\b" + probe + r"\w*")
    req = urllib.request.Request(
        f"{base}/api/updateByQuery?query={probe}&pattern={pattern}"
        f"&replacement=xupdhttp", method="POST"
    )
    with urllib.request.urlopen(req) as r:
        got = json.loads(r.read())
    assert got["result"] and got["updated"] == before["count"]
    _, after = _get(f"{base}/api/search?query={probe}&limit=1")
    assert after["count"] == 0
    _, neu = _get(f"{base}/api/search?query=xupdhttp&limit=1")
    assert neu["count"] == before["count"]


def test_delete_by_query_endpoint(served):
    """POST /api/deleteByQuery (ES _delete_by_query parity): matching
    turns disappear from search, the served engine reloads, and an
    empty/no-match query degrades gracefully. Runs LAST in the module —
    it tombstones real turns."""
    base, _ = served
    probe = datagen.stem(40)
    _, before = _get(f"{base}/api/search?query={probe}&limit=1")
    assert before["count"] > 0
    req = urllib.request.Request(
        f"{base}/api/deleteByQuery?query={probe}", method="POST"
    )
    with urllib.request.urlopen(req) as r:
        got = json.loads(r.read())
    assert got["result"] and got["deleted"] == before["count"]
    assert got["generations"]
    _, after = _get(f"{base}/api/search?query={probe}&limit=1")
    assert after["count"] == 0
    # no-match delete: result true, zero generations, engine untouched
    req = urllib.request.Request(
        f"{base}/api/deleteByQuery?query=wqxqzq", method="POST"
    )
    with urllib.request.urlopen(req) as r:
        got = json.loads(r.read())
    assert got["result"] and got["deleted"] == 0 and got["generations"] == []
    # empty query -> 400
    req = urllib.request.Request(f"{base}/api/deleteByQuery", method="POST")
    try:
        urllib.request.urlopen(req)
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400


def test_dis_max_endpoint(served):
    base, _ = served
    hot, second = datagen.stem(0), datagen.stem(1)
    code, got = _get(f"{base}/api/disMax?q={hot}&q={second}&tie=0.3&limit=5")
    assert code == 200 and got["result"] and got["count"] > 0
    assert len(got["data"]) <= 5
    assert {"conv_id", "turn_idx", "score"} <= set(got["data"][0])
    code2, single = _get(f"{base}/api/disMax?q={hot}&limit=5")
    assert code2 == 200 and single["result"]
    for bad_url in (f"{base}/api/disMax?q={hot}&tie=1.5",
                    f"{base}/api/disMax?tie=0.2"):
        try:
            urllib.request.urlopen(bad_url)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as e:
            assert e.code == 400
            assert json.loads(e.read())["error"] == "bad_dis_max"


def test_concurrent_queries_match_serial(tiny_index, monkeypatch):
    """Eight client threads against one server share one engine and its
    cache: every response — bm25, scoped, ts/exclude-filtered, phrase,
    prefix and fuzzy queries, with the on-demand pair path on — is
    byte-identical to a serial pass over a separate server. Both servers
    start cold, so the threads race on cache misses, inserts and
    evictions, and on reads through shared ParquetFile handles."""
    import hashlib
    import random
    import time

    monkeypatch.setattr(SearchEngine, "PAIR_CACHE_MIN_COST", 0)
    s = datagen.stem
    paths = []
    for i in (0, 1, 2, 3, 7, 40, 300, 2000):
        paths += [f"query={s(i)}&limit=10", f"query={s(i)}+{s(i + 1)}&limit=5&scope=user",
                  f"query={s(i)}&ts_min=2024-01-10T00:00:00&limit=5",
                  f"query={s(i)}+{s(3)}&exclude={s(1)}&limit=5",
                  f"query={s(i)[:4]}&mode=prefix&limit=5",
                  f"query={s(i)[:-1]}&mode=fuzzy&limit=5"]
    for a, b in ((0, 1), (1, 2), (0, 2), (2, 5), (3, 4)):
        paths += [f"query={s(a)}+{s(b)}&mode=phrase&limit=10",
                  f"query={s(a)}+{s(b)}&mode=phrase&limit=5&scope=user",
                  f"query={s(a)}+{s(b)}+{s(a)}&mode=phrase&limit=5"]

    def start():
        srv = make_server(tiny_index["out_dir"], port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        return srv, f"http://127.0.0.1:{srv.server_address[1]}/api/search?"

    def fetch(base, p):
        with urllib.request.urlopen(base + p) as r:
            return hashlib.sha256(r.read()).hexdigest()

    srv_a, base_a = start()
    srv_b, base_b = start()
    try:
        want = {p: fetch(base_a, p) for p in paths}  # cold serial pass
        t0 = time.perf_counter()
        for p in paths:
            fetch(base_a, p)
        serial_qps = len(paths) / (time.perf_counter() - t0)
        rounds, got, errors = 3, [], []

        def client(seed):
            order = paths * rounds
            random.Random(seed).shuffle(order)
            try:
                got.extend((p, fetch(base_b, p)) for p in order)
            except Exception as e:  # noqa: BLE001 — reported below
                errors.append(repr(e))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        conc_qps = len(got) / (time.perf_counter() - t0)
    finally:
        for srv in (srv_a, srv_b):
            srv.shutdown()
            srv.server_close()
    assert not errors, errors
    assert len(got) == 8 * rounds * len(paths)
    assert [p for p, h in got if h != want[p]] == []
    print(f"serial {serial_qps:.0f} q/s (warm), 8 threads {conc_qps:.0f} q/s")


def test_worker_that_started_ray_stays(monkeypatch):
    """Ray's node processes die with the thread that started them, so the
    worker whose request brought Ray up stays when the pool shrinks: here
    it finishes last, while IDLE_WORKERS others already wait, which makes
    any other worker exit."""
    up, slow_threads = [], []
    monkeypatch.setattr(server, "_ray_up", lambda: bool(up))
    release, release_last = threading.Event(), threading.Event()

    def handle(req):
        me = threading.current_thread()
        if req.url.path == "/init":
            up.append(me)
        else:
            slow_threads.append(me)
            (release_last if up and me is up[0] else release).wait(10)
        return 200, b"application/json", b"{}", None

    srv = server.Server(("127.0.0.1", 0), handle)
    port = srv.server_address[1]
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{port}"
    try:
        assert _exchange(base, b"GET /init HTTP/1.0\r\n\r\n")[0] == 200
        flood = [threading.Thread(target=_exchange, args=(base, b"GET /slow HTTP/1.0\r\n\r\n"))
                 for _ in range(server.IDLE_WORKERS + 4)]
        for t in flood:
            t.start()
        deadline = time.monotonic() + 10
        while len(slow_threads) < len(flood) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert up[0] in slow_threads  # every idle worker took a slow request
        release.set()
        while len(_workers(port)) > server.IDLE_WORKERS + 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        release_last.set()
        for t in flood:
            t.join(timeout=10)
        time.sleep(0.3)
        assert up[0].is_alive()
    finally:
        release.set()
        release_last.set()
        srv.shutdown()
        srv.server_close()
    assert not up[0].is_alive()


def test_worker_pool_under_load_then_shutdown_frees_the_port(tiny_index):
    """16 clients race the worker pool (a short switch interval forces
    interleavings): every request answers, and afterwards the idle count
    equals the live workers, at most IDLE_WORKERS. shutdown() then
    returns with workers waiting in accept() and one held in a request
    read; no worker thread is left and the port binds again."""
    import sys

    srv = make_server(tiny_index["out_dir"], port=0)
    port = srv.server_address[1]
    th = threading.Thread(target=srv.serve_forever, daemon=True)
    th.start()
    base = f"http://127.0.0.1:{port}"
    codes, errors = [], []

    def client():
        try:
            for _ in range(25):
                codes.append(_exchange(base, b"GET /api/search?query= HTTP/1.0\r\n\r\n")[0])
        except Exception as e:  # noqa: BLE001 — reported below
            errors.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client) for _ in range(16)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in clients), errors
    assert codes == [400] * 16 * 25
    deadline = time.monotonic() + 10
    while len(_workers(port)) != srv._idle and time.monotonic() < deadline:
        time.sleep(0.05)
    assert 0 < len(_workers(port)) == srv._idle <= server.IDLE_WORKERS

    held = socket.create_connection(("127.0.0.1", port), timeout=10)
    try:
        code, got = _get(f"{base}/api/search?query={datagen.stem(0)}&limit=1")
        assert code == 200 and got["count"] > 0
        stopper = threading.Thread(target=srv.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=10)
        assert not stopper.is_alive(), "shutdown() did not return"
        th.join(timeout=10)
        assert not th.is_alive()
        srv.server_close()
        assert _workers(port) == []
    finally:
        held.close()
    socket.create_server(("127.0.0.1", port)).close()
