"""Deterministic synthetic transcripts corpus + reference query set.

BASELINE.json's ``input_hint`` fixes the input shape: a Parquet table of
multi-turn conversation / agent transcripts with columns
``(conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us])``. The driver's testdata has no such table, so we
synthesize it deterministically (single integer seed, no wall-clock / RNG
entropy) at a scale matched to the driver's sf dirs:

    sf0.001 -> ~6k turns   (smoke)
    sf0.01  -> ~60k turns  (correctness vs DuckDB oracle)
    sf0.1   -> ~600k turns (bench + scaling)

Corpus properties exercise the engine per FIXTURES.md §1: Zipfian
vocabulary (~8k stems x inflection suffixes so the lemmatizer folds real
work), a handful of ultra-hot lemmas (hot-lemma salting + the reference's
df>=250 drop, SearchServiceImpl.java:169-178), rare singletons, empty
texts, punctuation/case/unicode noise.

The corpus is cached under ``/tmp/seray_data/v{N}/{tag}/transcripts`` as
multi-file Parquet (parallel reads produce >1 block); a ``_SUCCESS``
marker makes generation idempotent. The DuckDB oracle SQL reads the same
files via ``read_parquet``, so engine and oracle see identical bytes.
"""

from __future__ import annotations

import json
import os
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import analyzer

DATAGEN_VERSION = "1"
SEED = 42
BASE_DIR = os.environ.get("SERAY_DATA_DIR", "/tmp/seray_data")

# Resolved once per process. The driver's correctness gate must never
# die on tmp-dir state (round 2's CORRECTNESS artifact came back empty),
# so the configured base dir is probed for writability and falls back to
# a fresh tempdir. Consistency matters only within one process (the
# oracle SQL strings embed whatever path the queries() side used), so a
# memoized per-process resolution is exactly right.
_RESOLVED_BASE: str | None = None


def base_dir() -> str:
    global _RESOLVED_BASE
    if _RESOLVED_BASE is None:
        cand = BASE_DIR
        try:
            os.makedirs(cand, exist_ok=True)
            probe = os.path.join(cand, f".probe-{os.getpid()}")
            with open(probe, "w") as f:
                f.write("1")
            os.remove(probe)
        except OSError:
            import tempfile

            cand = tempfile.mkdtemp(prefix="seray_data_")
        _RESOLVED_BASE = cand
    return _RESOLVED_BASE
N_FILES = 8
MAX_TURNS_PER_CONV = 32
TS_BASE_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z in microseconds

TRANSCRIPTS_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

_SYLLABLES = (
    "ba be bo da de du ka ke ko la le lo ma me mo na ne no "
    "ra re ro sa se so ta te to va ve vo za zo"
).split()
N_STEMS = 8000
HOT_STEMS = 3          # ultra-hot lemmas (index 0..2)
HOT_MIX = 0.08         # probability a token draw is a hot stem
_SUFFIXES = ("", "s", "ed", "ing")
ROLES = ("user", "assistant", "tool", "system")
ROLE_P = (0.40, 0.40, 0.15, 0.05)
TOOLS = tuple(f"tool-{n}" for n in ("search", "calc", "browse", "shell", "db", "mail", "plot", "fs"))
_PUNCT = (",", ".", "!", "?", ";", ":", " —")
_NOISE = ("Ж", "é", "ü", "—", "🙂", "№")


def stem(i: int) -> str:
    s = _SYLLABLES
    return "w" + s[(i // (32 * 32)) % 32] + s[(i // 32) % 32] + s[i % 32]


def _foldable_suffixes() -> list[list[str]]:
    """Per-stem list of suffixes whose inflected form lemmatizes back to
    the stem's own lemma — keeps surface-form folding consistent."""
    out = []
    for i in range(N_STEMS):
        st = stem(i)
        base = analyzer.lemmatize_token(st)
        out.append([sfx for sfx in _SUFFIXES if analyzer.lemmatize_token(st + sfx) == base])
    return out


def sf_tag_of_dir(sf_dir: str) -> str:
    tag = os.path.basename(os.path.normpath(sf_dir))
    if not tag.startswith("sf"):
        raise ValueError(f"cannot infer scale factor from {sf_dir!r}")
    return tag


def n_turns_for_tag(tag: str) -> int:
    return max(200, int(round(float(tag[2:]) * 6_000_000)))


def transcripts_dir(tag: str) -> str:
    return os.path.join(base_dir(), f"v{DATAGEN_VERSION}", tag, "transcripts")


def transcripts_files(sf_dir_or_tag: str) -> list[str]:
    """Ensure the corpus for this scale exists; return its parquet paths.

    Accepts either a bare tag ('sf0.01') or a driver sf dir
    ('/root/testdata/sf0.01')."""
    tag = sf_dir_or_tag if "/" not in sf_dir_or_tag else sf_tag_of_dir(sf_dir_or_tag)
    d = generate(tag)
    return sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )


def generate(tag: str) -> str:
    """Idempotently generate the corpus for scale tag (e.g. 'sf0.01')."""
    d = transcripts_dir(tag)
    marker = os.path.join(d, "_SUCCESS")
    params = {"version": DATAGEN_VERSION, "seed": SEED, "n_turns": n_turns_for_tag(tag)}
    if os.path.exists(marker):
        try:
            n_parts = sum(1 for f in os.listdir(d) if f.endswith(".parquet"))
            if json.load(open(marker)) == params and n_parts == N_FILES:
                return d
        except Exception:
            pass
    tmp = d + ".tmp"
    if os.path.exists(tmp):
        import shutil

        shutil.rmtree(tmp)
    os.makedirs(tmp, exist_ok=True)
    tbl = _build_table(params["n_turns"])
    rows = tbl.num_rows
    per = (rows + N_FILES - 1) // N_FILES
    for i in range(N_FILES):
        sl = tbl.slice(i * per, per)
        pq.write_table(sl, os.path.join(tmp, f"part-{i:03d}.parquet"))
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        json.dump(params, f)
    os.makedirs(os.path.dirname(d), exist_ok=True)
    if os.path.exists(d):
        import shutil

        shutil.rmtree(d)
    os.replace(tmp, d)
    return d


def _build_table(n_turns: int) -> pa.Table:
    rng = np.random.default_rng(SEED)

    # --- conversations ------------------------------------------------
    lens = []
    total = 0
    while total < n_turns:
        draw = rng.geometric(0.18, size=4096)
        draw = np.clip(draw, 1, MAX_TURNS_PER_CONV)
        lens.append(draw)
        total += int(draw.sum())
    lens = np.concatenate(lens)
    cut = np.searchsorted(np.cumsum(lens), n_turns) + 1
    lens = lens[:cut]
    n = int(lens.sum())
    conv_num = np.repeat(np.arange(len(lens)), lens)
    turn_idx = (np.arange(n) - np.repeat(np.cumsum(lens) - lens, lens)).astype(np.int32)

    conv_ids = np.array([f"conv-{i:08d}" for i in range(len(lens))], dtype=object)[conv_num]
    roles = rng.choice(len(ROLES), size=n, p=ROLE_P)
    role_col = np.array(ROLES, dtype=object)[roles]
    tool_col = np.where(
        roles == 2, rng.choice(np.array(TOOLS, dtype=object), size=n), ""
    ).astype(object)
    ts = TS_BASE_US + conv_num.astype(np.int64) * 3_600_000_000 + turn_idx.astype(np.int64) * 60_000_000

    # --- token ids ----------------------------------------------------
    ntok = np.clip(rng.lognormal(2.55, 0.65, size=n).astype(np.int64), 0, 64)
    ntok[rng.random(n) < 0.01] = 0  # empty turns
    tot_tok = int(ntok.sum())

    ranks = np.arange(N_STEMS, dtype=np.float64)
    p = 1.0 / (ranks + 2.7) ** 1.07
    p /= p.sum()
    tok_stem = rng.choice(N_STEMS, size=tot_tok, p=p)
    hot_mask = rng.random(tot_tok) < HOT_MIX
    tok_stem[hot_mask] = rng.integers(0, HOT_STEMS, size=int(hot_mask.sum()))

    # --- surface forms (inflection + case/punct noise) ---------------
    foldable = _foldable_suffixes()
    stems = np.array([stem(i) for i in range(N_STEMS)], dtype=object)
    sfx_pick = rng.random(tot_tok)
    case_pick = rng.random(tot_tok)
    punct_pick = rng.random(tot_tok)
    punct_idx = rng.integers(0, len(_PUNCT), size=tot_tok)
    noise_mask = rng.random(tot_tok) < 0.004
    noise_idx = rng.integers(0, len(_NOISE), size=tot_tok)

    words = stems[tok_stem]  # object array of base stems
    out_tokens = np.empty(tot_tok, dtype=object)
    for j in range(tot_tok):
        w = words[j]
        fs = foldable[tok_stem[j]]
        k = int(sfx_pick[j] * 2 * len(fs))  # 50%: plain stem (k>=len)
        if k < len(fs):
            w = w + fs[k]
        c = case_pick[j]
        if c < 0.06:
            w = w.capitalize()
        elif c < 0.08:
            w = w.upper()
        if noise_mask[j]:
            w = w + " " + _NOISE[noise_idx[j]]
        if punct_pick[j] < 0.12:
            w = w + _PUNCT[punct_idx[j]]
        out_tokens[j] = w

    # --- assemble texts ----------------------------------------------
    starts = np.concatenate(([0], np.cumsum(ntok)))
    texts = np.empty(n, dtype=object)
    toks_list = out_tokens.tolist()
    for i in range(n):
        s, e = starts[i], starts[i + 1]
        texts[i] = " ".join(toks_list[s:e])

    return pa.Table.from_arrays(
        [
            pa.array(conv_ids, pa.string()),
            pa.array(turn_idx, pa.int32()),
            pa.array(role_col, pa.string()),
            pa.array(texts, pa.string()),
            pa.array(tool_col, pa.string()),
            pa.array(ts, pa.timestamp("us")),
        ],
        schema=TRANSCRIPTS_SCHEMA,
    )


DELTA_CONV = "conv-00000000"  # always present (conv ids are dense from 0)


def modified_corpus(tag: str) -> tuple[list[str], str]:
    """Deterministic modified copy of the corpus for the incremental
    re-index driver check: ``DELTA_CONV``'s turn texts are replaced with
    fixed strings (other rows byte-identical). Returns (files, conv_id).
    Cached idempotently beside the base corpus."""
    base_files = transcripts_files(tag)
    d = modified_corpus_dir(tag)
    marker = os.path.join(d, "_SUCCESS")
    params = {"version": DATAGEN_VERSION, "conv": DELTA_CONV}
    if os.path.exists(marker):
        try:
            got = sorted(
                os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
            )
            if json.load(open(marker)) == params and len(got) == len(base_files):
                return got, DELTA_CONV
        except Exception:
            pass
    import shutil

    import pyarrow.compute as pc

    tmp = d + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp, exist_ok=True)
    for f in base_files:
        t = pq.read_table(f)
        mask = pc.equal(t.column("conv_id"), DELTA_CONV).combine_chunks()
        m = mask.to_numpy(zero_copy_only=False)
        if m.any():
            turn = t.column("turn_idx").to_numpy(zero_copy_only=False)
            texts = t.column("text").to_pylist()
            for i in np.flatnonzero(m):
                texts[i] = (
                    f"{stem(3)} {stem(7)} {stem(7)} rewritten delta turn {int(turn[i])}"
                )
            t = t.set_column(
                t.schema.get_field_index("text"), "text", pa.array(texts, pa.string())
            )
        pq.write_table(t, os.path.join(tmp, os.path.basename(f)))
    with open(os.path.join(tmp, "_SUCCESS"), "w") as fh:
        json.dump(params, fh)
    if os.path.exists(d):
        shutil.rmtree(d)
    os.replace(tmp, d)
    return sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    ), DELTA_CONV


def modified_corpus_dir(tag: str) -> str:
    return os.path.join(base_dir(), f"v{DATAGEN_VERSION}", tag, "transcripts_mod")


# ---------------------------------------------------------------------------
# Reference query set (FIXTURES.md §2)
# ---------------------------------------------------------------------------

def reference_queries() -> list[dict]:
    """Fixed deterministic query set over the corpus vocabulary: single
    rare lemma, conjunctions, ultra-hot lemma, absent lemma (must return
    empty — SearchServiceImpl.java:57-64 semantics), inflected surface
    forms, scoped queries."""
    q = [
        (f"{stem(4000)}", None),                       # mid-frequency single
        (f"{stem(6500)}ed", None),                     # rare, inflected
        (f"{stem(120)} {stem(480)}", None),            # two-term conjunction-ish
        (f"{stem(0)}", None),                          # ultra-hot single
        (f"{stem(0)} {stem(5200)}", None),             # hot + rare
        ("wqxqzq", None),                              # absent from corpus -> empty
        (f"The {stem(300)}, and {stem(301)}!", None),  # stopwords + punctuation
        (f"{stem(777).upper()}", None),                # case folding
        (f"{stem(1500)}s", None),                      # plural folds to stem lemma
        (f"{stem(50)} {stem(51)} {stem(52)}", None),   # three terms
        (f"{stem(2048)}", "assistant"),                # scoped (role = site analog)
        (f"{stem(900)} {stem(901)}", "user"),          # scoped two-term
        (f"{stem(3333)}ing", None),                    # -ing inflection
        (f"{stem(1)} {stem(2)}", None),                # two hot lemmas
        (f"{stem(4100)} {stem(4100)}", None),          # repeated term dedups
        (f"7 {stem(2500)}", None),                     # short token dropped
    ]
    return [
        {"query_id": f"q-{i:04d}", "query_text": t, "scope": s, "k": 10}
        for i, (t, s) in enumerate(q)
    ]


def phrase_queries() -> list[dict]:
    """Fixed deterministic PHRASE query set: adjacency over hot bigrams,
    repeated lemmas, single-term degenerate, stopword/punct folding,
    inflected surface forms, an absent lemma (must return empty), a
    scoped phrase, and a trigram."""
    q = [
        (f"{stem(0)} {stem(1)}", None),             # hot bigram
        (f"{stem(0)} {stem(0)}", None),             # repeated lemma
        (f"{stem(4000)}", None),                    # single-term phrase
        (f"The {stem(1)}, {stem(2)}!", None),       # stopwords + punctuation
        (f"{stem(2)}s {stem(0)}ed", None),          # inflected surface forms
        (f"wqxqzq {stem(0)}", None),                # absent lemma -> empty
        (f"{stem(1)} {stem(0)}", "assistant"),      # scoped phrase
        (f"{stem(0)} {stem(1)} {stem(2)}", None),   # trigram
    ]
    return [
        {"query_id": f"p-{i:04d}", "query_text": t, "scope": s, "k": 10}
        for i, (t, s) in enumerate(q)
    ]


def near_queries() -> list[dict]:
    """Fixed deterministic NEAR (proximity) query set: every distinct
    lemma must occur within ``window`` consecutive surviving-token
    positions (unordered)."""
    q = [
        (f"{stem(0)} {stem(1)}", None, 4),               # hot pair, tight
        (f"{stem(0)} {stem(5200)}", None, 8),            # hot + rare
        (f"{stem(50)} {stem(51)} {stem(52)}", None, 6),  # three terms
        (f"{stem(4000)}", None, 3),                      # single term
        (f"wqxqzq {stem(0)}", None, 8),                  # absent -> empty
        (f"{stem(1)} {stem(2)}", "user", 5),             # scoped
    ]
    return [
        {"query_id": f"n-{i:04d}", "query_text": t, "scope": s, "k": 10, "window": w}
        for i, (t, s, w) in enumerate(q)
    ]


def percolate_queries() -> list[dict]:
    """Registered-query probes for the percolator: single-term, a
    conjunctive pair, scoped, inflected surface form, absent lemma
    (matches nothing), stopword-only (analyzes to nothing)."""
    q = [
        (stem(4000), None),
        (f"{stem(120)} {stem(480)}", None),
        (stem(2048), "assistant"),
        (f"{stem(1500)}s", None),
        ("wqxqzq", None),
        ("the and", None),
    ]
    return [
        {"query_id": f"pc-{i:04d}", "query_text": t, "scope": s}
        for i, (t, s) in enumerate(q)
    ]


def scan_patterns() -> dict[str, str]:
    """Fixed RE2 probes for the streaming regex scan: a word-boundary
    inflected form, a digit run, a case-insensitive literal, and an
    optional-suffix alternation."""
    return {
        "s-0000": rf"\b{stem(0)}ed\b",
        "s-0001": r"[0-9]{3,}",
        "s-0002": rf"(?i){stem(777).upper()}",
        "s-0003": rf"\b{stem(4000)}(s|ing)?\b",
    }


def synonym_queries() -> list[dict]:
    """Query-time synonym-expansion probes. ``oracle_text`` is the
    pre-expanded query whose analyzed lemma set equals the engine's
    expansion — every synonym word here EXISTS in the corpus because
    the shared BM25 oracle skeleton requires all lemmas present (the
    engine's drop-absent-expansion semantics are pinned by pytest)."""
    q = [
        # rare query joined by an ultra-hot synonym
        (stem(6500), {stem(6500): [stem(0)]},
         f"{stem(6500)} {stem(0)}", None),
        # one term of a pair expands two ways
        (f"{stem(4000)} {stem(120)}", {stem(4000): [stem(4001), stem(4002)]},
         f"{stem(4000)} {stem(120)} {stem(4001)} {stem(4002)}", None),
        # inflected mapping KEY folds through the analyzer to the lemma
        # (stem(120)+'s' lemmatizes back to stem(120)'s own base lemma)
        (f"{stem(120)}s", {f"{stem(120)}s": [stem(300)]},
         f"{stem(120)}s {stem(300)}", None),
        # scoped expansion
        (stem(2048), {stem(2048): [stem(2049)]},
         f"{stem(2048)} {stem(2049)}", "assistant"),
        # a mapping keyed on a lemma the query lacks is a no-op
        (stem(50), {stem(999): [stem(0)]}, stem(50), None),
    ]
    return [
        {"query_id": f"y-{i:04d}", "query_text": t, "synonyms": syn,
         "oracle_text": ot, "scope": s, "k": 10}
        for i, (t, syn, ot, s) in enumerate(q)
    ]


def sig_queries() -> list[dict]:
    """Fixed significant-terms probes: matching-set sizes from rare to
    ultra-hot, a two-term union, a scoped set, an absent lemma (must
    return empty), and an inflected surface form that folds to its
    stem's lemma."""
    q = [
        (f"{stem(4000)}", None),             # mid-frequency matching set
        (f"{stem(0)}", None),                # ultra-hot: fg ~ corpus-wide
        (f"{stem(120)} {stem(480)}", None),  # two-term union
        (f"{stem(2048)}", "assistant"),      # scoped (role = site analog)
        ("wqxqzq", None),                    # absent from corpus -> empty
        (f"{stem(1500)}s", None),            # plural folds to stem lemma
    ]
    return [
        {"query_id": f"g-{i:04d}", "query_text": t, "scope": s, "k": 10}
        for i, (t, s) in enumerate(q)
    ]


def rare_terms_queries() -> list[dict]:
    """Rare-terms probes: matching sets from mid-frequency to ultra-hot
    with df ceilings that actually admit long-tail lemmas, a tight
    ceiling on a hot set (mostly-empty result), a scoped probe, and an
    absent lemma (empty)."""
    q = [
        (f"{stem(4000)}", None, 20),
        (f"{stem(0)}", None, 10),
        (f"{stem(120)} {stem(480)}", None, 15),
        (f"{stem(0)}", None, 1),               # tight ceiling
        (f"{stem(2048)}", "assistant", 25),    # scoped
        ("wqxqzq", None, 10),                  # absent -> empty
    ]
    return [
        {"query_id": f"rt-{i:04d}", "query_text": t, "scope": s, "k": 10,
         "max_doc_count": m}
        for i, (t, s, m) in enumerate(q)
    ]


def delete_probes() -> list[dict]:
    """Fixed delete-by-query probes, applied SEQUENTIALLY (the second
    delete stacks on the first's generations): a mid-frequency unscoped
    delete, then a scoped one — both deterministic functions of the
    vocabulary so the SQL oracle can mirror the union-of-matches
    exclusion over the original corpus."""
    return [
        {"query_text": stem(300), "scope": None, "conjunctive": False},
        {"query_text": stem(2048), "scope": "user", "conjunctive": False},
    ]


def update_probes() -> list[dict]:
    """Fixed update-by-query probes, applied SEQUENTIALLY: rewrite every
    surface form of a mid-frequency stem (case-insensitive, word prefix)
    to a fresh token in all matching turns — the retroactive-redaction
    shape — then a scoped rewrite stacking on the first's generations."""
    s1, s2 = stem(320), stem(2049)
    return [
        {"query_text": s1, "scope": None, "conjunctive": False,
         "pattern": r"(?i)\b" + s1 + r"\w*", "replacement": "updtokena"},
        {"query_text": s2, "scope": "assistant", "conjunctive": False,
         "pattern": r"(?i)\b" + s2 + r"\w*", "replacement": "updtokenb"},
    ]


def suggest_queries() -> list[dict]:
    """Fixed did-you-mean probes: a one-char deletion of a real lemma,
    an exact hit, a substitution typo, a token far from the whole
    vocabulary, and an inflected surface form."""
    s4000, s777 = stem(4000), stem(777)
    probes = [
        s4000[:-1],                      # deletion typo
        stem(0),                         # exact (dist 0 ranks first)
        s777[:3] + "x" + s777[4:],       # substitution typo
        "zzqqxx",                        # far from everything
        stem(1500) + "s",                # inflected surface form
    ]
    return [
        {"query_id": f"s-{i:04d}", "term": t, "max_dist": 2, "k": 5}
        for i, t in enumerate(probes)
    ]


def min_match_queries() -> list[dict]:
    """Minimum-should-match query set: m of n distinct lemmas required."""
    q = [
        (f"{stem(50)} {stem(51)} {stem(52)}", None, 2),      # 2 of 3
        (f"{stem(0)} {stem(4100)} {stem(5200)}", None, 2),   # hot + rares
        (f"{stem(120)} {stem(480)}", None, 1),               # 1 of 2 == OR
        # mid-frequency stems: ultra-hot trios produce 6-dp rounded-score
        # ties whose full-precision order differs between engines (the
        # documented comparison-protocol boundary — same reason the
        # reference query set avoids rounded ties)
        (f"{stem(10)} {stem(11)} {stem(12)}", "assistant", 3),  # all 3, scoped
        (f"{stem(300)} {stem(301)} {stem(302)} {stem(303)}", None, 3),  # 3 of 4
    ]
    return [
        {"query_id": f"m-{i:04d}", "query_text": t, "scope": s, "k": 10, "min_match": m}
        for i, (t, s, m) in enumerate(q)
    ]


def prefix_queries() -> list[dict]:
    """Prefix (wildcard) query set over the stem syllable structure:
    broad and narrow prefixes, an exact-lemma prefix, a no-match
    prefix, and a scoped one."""
    q = [
        (stem(4000)[:5], None),     # narrow prefix around a mid stem
        (stem(0)[:4], None),        # broad prefix incl. the ultra-hot lemma
        (stem(6500), None),         # full-lemma prefix (matches inflections' stems)
        ("zz", None),               # no vocabulary match -> empty
        (stem(777)[:5], "user"),    # scoped prefix
    ]
    return [
        {"query_id": f"x-{i:04d}", "query_text": t, "scope": s, "k": 10}
        for i, (t, s) in enumerate(q)
    ]


def phrase_prefix_queries() -> list[dict]:
    """match_phrase_prefix probes (search-as-you-type): the LAST token
    is a prefix, the preceding tokens an exact phrase — hot bigram +
    broad prefix, phrase + narrow prefix, inflected fixed slot,
    full-lemma prefix, no-expansion prefix (count 0), absent fixed
    lemma (count 0), scoped, trigram-fixed chain, and stopword noise
    in the fixed part."""
    q = [
        (f"{stem(0)} {stem(1)[:4]}", None),            # hot + broad prefix
        (f"{stem(1)} {stem(4000)[:5]}", None),         # narrow prefix
        (f"{stem(2)}s {stem(0)[:4]}", None),           # inflected fixed slot
        (f"{stem(0)} {stem(6500)}", None),             # full-lemma prefix
        (f"{stem(0)} zz", None),                       # no expansion -> 0
        (f"wqxqzq {stem(0)[:4]}", None),               # absent fixed -> 0
        (f"{stem(1)} {stem(0)[:4]}", "assistant"),     # scoped
        (f"{stem(0)} {stem(1)} {stem(2)[:4]}", None),  # trigram fixed
        (f"The {stem(1)}, {stem(2)[:4]}", None),       # stopword + punct fold
    ]
    return [
        {"query_id": f"pp-{i:04d}", "query_text": t, "scope": s, "k": 10}
        for i, (t, s) in enumerate(q)
    ]


def dis_max_queries() -> list[dict]:
    """Disjunction-max probes: pure max (tb=0), mixed multi-term subs,
    tb=1 (degenerates to the plain sum), an absent-lemma sub (drops —
    the other sub still matches), a scoped probe, and three subs."""
    q = [
        ([stem(0), stem(1)], 0.0, None),                      # pure max
        ([f"{stem(0)} {stem(1)}", stem(2)], 0.3, None),       # multi-term sub
        ([stem(50), f"{stem(51)} {stem(52)}"], 1.0, None),    # tb=1 == sum
        ([stem(0), f"wqxqzq {stem(1)}"], 0.5, None),          # absent sub drops
        ([stem(1), stem(2)], 0.25, "user"),                   # scoped
        ([stem(0), stem(1), stem(2)], 0.1, None),             # three subs
    ]
    return [
        {"query_id": f"dm-{i:04d}", "queries": qs, "tie_breaker": tb,
         "scope": s, "k": 10}
        for i, (qs, tb, s) in enumerate(q)
    ]


def near_ordered_queries() -> list[dict]:
    """Ordered-proximity (SpanNear in_order) probes: a hot ordered
    pair vs its REVERSE (different match sets — the order constraint at
    work), a trigram, a repeated-lemma chain (strictly increasing
    positions of one lemma), a single-term degenerate, an absent lemma
    (empty), and a scoped probe."""
    q = [
        (f"{stem(0)} {stem(1)}", None, 4),
        (f"{stem(1)} {stem(0)}", None, 4),
        (f"{stem(50)} {stem(51)} {stem(52)}", None, 8),
        (f"{stem(0)} {stem(0)}", None, 5),
        (f"{stem(4000)}", None, 3),
        (f"wqxqzq {stem(0)}", None, 6),
        (f"{stem(0)} {stem(1)}", "user", 6),
    ]
    return [
        {"query_id": f"no-{i:04d}", "query_text": t, "scope": s, "k": 10,
         "window": w}
        for i, (t, s, w) in enumerate(q)
    ]


def span_first_queries() -> list[dict]:
    """Span-first (SpanFirstQuery) probes: a hot single-term at tight
    and loose bounds (the classic term form; n=1 keeps only docs that
    OPEN with the lemma), a hot bigram whose span must close early, a
    scoped probe, an infeasible bound (n < phrase length -> 0), and an
    absent lemma (empty)."""
    q = [
        (stem(0), 1, None),
        (stem(0), 8, None),
        (f"{stem(0)} {stem(1)}", 6, None),
        (stem(10), 4, "assistant"),
        (f"{stem(0)} {stem(1)}", 1, None),
        (f"wqxqzq", 5, None),
    ]
    return [
        {"query_id": f"sf-{i:04d}", "query_text": t, "n": n, "scope": s,
         "k": 10}
        for i, (t, n, s) in enumerate(q)
    ]


def rescore_queries() -> list[dict]:
    """Two-phase rescore probes: a hot-bigram phrase promoting exact
    adjacency inside a single-term base window, a reversed-order phrase
    (different match set), a single-term rescore phrase, an
    absent-lemma phrase (base order scaled by qw — the no-boost
    fallback), and a scoped probe with non-default weights."""
    q = [
        (stem(0), f"{stem(0)} {stem(1)}", 50, 1.0, 2.0, None),
        (f"{stem(0)} {stem(1)}", f"{stem(1)} {stem(0)}", 30, 1.0, 1.5, None),
        (stem(4000), f"{stem(4000)}", 20, 0.5, 3.0, None),
        (stem(0), f"wqxqzq {stem(0)}", 25, 1.0, 5.0, None),
        (stem(1), f"{stem(1)} {stem(2)}", 40, 2.0, 0.5, "assistant"),
    ]
    return [
        {
            "query_id": f"rs-{i:04d}",
            "query_text": t,
            "rescore": r,
            "window": w,
            "query_weight": qw,
            "rescore_weight": rw,
            "scope": s,
            "k": 10,
        }
        for i, (t, r, w, qw, rw, s) in enumerate(q)
    ]


def decay_queries() -> list[dict]:
    """Function-score recency-decay probes over the deterministic ts
    layout (TS_BASE 2026-01-01, conv_num*1h + turn_idx*1min): all three
    shapes, an offset plateau, a scoped probe, and a linear probe whose
    zero tail is actually reached (scale/(1-rate) spans less than the
    corpus) so score-0 ties exercise the docid tie-break."""
    q = [
        (stem(0), None, "gauss", "2026-01-02T00:00:00", 86400.0, 0.5, 0.0),
        (stem(4000), None, "exp", "2026-01-05T12:00:00", 259200.0, 0.3, 0.0),
        (stem(120), None, "linear", "2026-01-01T12:00:00", 43200.0, 0.5, 0.0),
        (stem(777), "user", "gauss", "2026-01-03T06:00:00", 172800.0, 0.5, 3600.0),
        (f"{stem(10)} {stem(11)}", None, "exp", "2026-01-01T00:00:00", 86400.0, 0.5, 7200.0),
    ]
    return [
        {
            "query_id": f"dk-{i:04d}",
            "query_text": t,
            "scope": s,
            "k": 10,
            "shape": sh,
            "origin": o,
            "scale": sc,
            "rate": r,
            "offset": off,
        }
        for i, (t, s, sh, o, sc, r, off) in enumerate(q)
    ]


def wildcard_queries() -> list[dict]:
    """Wildcard query set over the stem syllable structure: a
    trailing-star prefix shape, a single-char ``?`` hole, a LEADING
    wildcard (suffix match across the whole 32-way final-syllable
    class — exercises the df-DESC expansion cap), a metachar-free
    pattern (degenerates to an exact dictionary term), a scoped mixed
    pattern, and a no-match pattern."""
    s4000, s777, s50 = stem(4000), stem(777), stem(50)
    q = [
        (s4000[:3] + "*", None),                 # trailing star (prefix shape)
        (s4000[:3] + "?" + s4000[4:], None),     # ? hole mid-lemma
        ("*" + stem(6500)[-2:], None),           # leading wildcard, cap hit
        (s50, None),                             # no metachars -> exact term
        ("w?" + s777[2:4] + "*", "user"),        # scoped mixed ?/* (matches s777)
        ("zz*qq", None),                         # no vocabulary match -> empty
    ]
    return [
        {"query_id": f"wc-{i:04d}", "query_text": t, "scope": s, "k": 10}
        for i, (t, s) in enumerate(q)
    ]


def regexp_queries() -> list[dict]:
    """Regexp query set over the stem syllable structure: a char-class
    pattern (several sibling stems), an alternation, a ``{n}``
    quantifier repeat, dot holes, a syntax-leading pattern (no
    literal-prefix prune — full-dictionary scan), a scoped probe, a
    no-match pattern, and an alternation of the whole pattern (whose
    leading literal must not prune). The INVALID pattern (unbalanced
    class) is exercised by pytest's bad_pattern test, not here — the
    oracle skips it by construction so it would pin nothing."""
    s0, s777, s4000 = stem(0), stem(777), stem(4000)
    q = [
        (s0[:5] + "[bl][ae]", None),            # char class: stems 0/1/10/11...
        (f"w({s0[1:3]}|{s777[1:3]}){s777[3:]}", None),  # alternation
        ("w(" + s0[1:3] + "){2}" + s0[5:], None),       # {2} quantifier = stem 0
        (s4000[:2] + "." + s4000[3] + ".ba", None),     # dot holes (stem 4000 class)
        (".*" + stem(6500)[-3:], None),          # syntax-leading, suffix class
        (s777[:4] + ".la", "user"),              # scoped dot hole
        ("zz+q", None),                          # no vocabulary match -> empty
        (f"{s0}|{s777}", None),                  # alternation of the whole pattern
    ]
    return [
        {"query_id": f"rx-{i:04d}", "query_text": t, "scope": s, "k": 10}
        for i, (t, s) in enumerate(q)
    ]


def fuzzy_queries() -> list[dict]:
    """Fuzzy (edit-distance) query set: typo probes that expand against
    the dense stem vocabulary — deletion/substitution typos, a dist-0
    exact probe (identity with plain bm25 on a self-lemma stem), a
    two-token mix of typo + exact, a far-from-everything token (empty),
    and a scoped wider-budget probe."""
    s777 = stem(777)
    q = [
        (stem(4000)[:-1], None, 1),                    # deletion typo
        (s777[:3] + "x" + s777[4:], None, 1),          # substitution typo
        (stem(50), None, 0),                           # dist 0 == exact term
        (f"{stem(120)[:-1]} {stem(480)}", None, 1),    # typo + exact, two tokens
        ("zzqqxx", None, 1),                           # far from vocabulary -> empty
        (stem(1500)[:-1], "user", 2),                  # scoped, wider budget
    ]
    return [
        {"query_id": f"f-{i:04d}", "query_text": t, "scope": s, "k": 10, "dist": d}
        for i, (t, s, d) in enumerate(q)
    ]


def mlt_queries() -> list[dict]:
    """More-like-this probes: (conv, turn) pairs stable across every
    scale tag (the leading conversation draws share the seeded rng
    stream, so these convs/turns exist at all sfs), one scoped."""
    q = [
        ("conv-00000000", 0, None),
        ("conv-00000002", 0, None),
        ("conv-00000005", 1, None),
        ("conv-00000001", 0, "assistant"),
        ("conv-00000003", 0, None),
    ]
    return [
        {"query_id": f"l-{i:04d}", "conv_id": c, "turn_idx": t, "scope": s,
         "k": 10, "max_terms": 25}
        for i, (c, t, s) in enumerate(q)
    ]


def explain_queries() -> list[dict]:
    """Explain probes: (query, conv, turn) triples stable across scale
    tags (the leading conversation draws share the seeded rng stream,
    so these convs/turns exist at all sfs). Queries use corpus
    vocabulary so every lemma resolves; the probe doc need NOT match
    every term — tf=0 rows are the point of ``_explain``."""
    q = [
        (f"{stem(120)} {stem(480)}", "conv-00000000", 0),
        (f"{stem(0)}", "conv-00000002", 0),
        (f"{stem(0)} {stem(4000)}", "conv-00000005", 1),
        (f"The {stem(300)}, and {stem(301)}!", "conv-00000001", 0),
        (f"{stem(1)} {stem(2)} {stem(3)}", "conv-00000003", 0),
    ]
    return [
        {"query_id": f"x-{i:04d}", "query_text": t, "conv_id": c, "turn_idx": n}
        for i, (t, c, n) in enumerate(q)
    ]


def complete_probes() -> list[dict]:
    """Completion-suggester probes: a hot stem family prefix, a longer
    rarer prefix, the shared 'w' stem-alphabet prefix (big range, small
    k), a no-match prefix, and a sub-minimum prefix (skipped both
    sides)."""
    q = [
        (stem(0)[:4], 10),
        (stem(120)[:5], 10),
        ("wb", 5),
        ("zzqx", 10),
        ("w", 10),
    ]
    return [
        {"query_id": f"cp-{i:04d}", "prefix": p, "k": k}
        for i, (p, k) in enumerate(q)
    ]


def analyze_probes() -> list[dict]:
    """Analyze-API probes: fixed crafted texts exercising every
    analyzer rule — punctuation folding, case, stopwords, min-length,
    digits, suffix-rule lemmatization (plural/ing/ed), apostrophes,
    unicode fold, and whitespace-only (zero rows)."""
    texts = [
        "The Quick-Brown FOXES were running!!  42 times, OK?",
        f"{stem(120)}s and {stem(480)}ing; {stem(300)}ed...",
        "a an of to x y",                 # stopwords + sub-min-length only
        "don't  CAN'T  it's  o'clock",    # apostrophe folds to space
        "café naïve résumé",  # unicode folds at non-ascii
        "   ",
        "under_score.dot/slash:colon,comma",
    ]
    return [
        {"query_id": f"az-{i:04d}", "text": t}
        for i, t in enumerate(texts)
    ]


def histogram_queries() -> list[dict]:
    """Histogram probes: doc_len buckets of the ultra-hot set (fine and
    coarse intervals), a scoped doc_len histogram, a fixed 7-day ts
    histogram, and an absent lemma (empty)."""
    week_us = 7 * 86_400_000_000
    q = [
        (f"{stem(0)}", "doc_len", 8, None),
        (f"{stem(0)}", "doc_len", 64, None),
        (f"{stem(2048)}", "doc_len", 16, "assistant"),
        (f"{stem(4000)}", "ts", week_us, None),
        ("wqxqzq", "doc_len", 8, None),
    ]
    return [
        {"query_id": f"h-{i:04d}", "query_text": t, "field": f,
         "interval": n, "scope": s, "k": 10}
        for i, (t, f, n, s) in enumerate(q)
    ]


def cardinality_queries() -> list[dict]:
    """Cardinality probes: every field over the ultra-hot set, a
    scoped conv/day probe, a mid-term conv/tool probe, and an absent
    lemma (empty)."""
    q = [
        (stem(0), "conv,role,tool,day,doc_len,ts", None),
        (stem(2048), "conv,day", "assistant"),
        (stem(4000), "conv,tool", None),
        ("wqxqzq", "conv", None),
    ]
    return [
        {"query_id": f"c-{i:04d}", "query_text": t, "fields": f,
         "scope": s, "k": 10}
        for i, (t, f, s) in enumerate(q)
    ]


def filters_agg_queries() -> list[dict]:
    """Filters-aggregation probes: independent named buckets over
    hot/mid/absent terms (the absent one pins the always-emitted zero
    bucket), a base-query intersection probe, a scoped probe, and a
    multi-term (union-semantics) filter."""
    q = [
        ({"hot": stem(0), "mid": stem(4000), "none": "wqxqzq"}, None, None),
        ({"a": stem(0), "b": stem(1)}, stem(4000), None),
        ({"x": stem(10), "y": stem(11)}, None, "assistant"),
        ({"two": f"{stem(120)} {stem(480)}", "one": stem(120)}, None, None),
    ]
    return [
        {"probe_id": f"fa-{i:04d}", "filters": f, "base": b, "scope": s}
        for i, (f, b, s) in enumerate(q)
    ]


def adjacency_queries() -> list[dict]:
    """Adjacency-matrix probes: hot x hot (dense intersections), a
    disjoint-ish trio incl. an absent filter (omitted zero buckets),
    and a scoped pair."""
    q = [
        ({"a": stem(0), "b": stem(1), "c": stem(2)}, None),
        ({"p": stem(4000), "q": stem(4001), "z": "wqxqzq"}, None),
        ({"u": stem(10), "v": stem(11)}, "user"),
    ]
    return [
        {"probe_id": f"am-{i:04d}", "filters": f, "base": None, "scope": s}
        for i, (f, s) in enumerate(q)
    ]


def histogram_pipeline_queries() -> list[dict]:
    """Pipeline-agg probes: the histogram probes' doc_len shapes (fine
    interval — gaps exist to be zero-filled) plus a scoped one and a
    weekly ts axis; window 3 throughout (the tie-free regime)."""
    week_us = 7 * 86_400_000_000
    q = [
        (f"{stem(0)}", "doc_len", 8, None),
        (f"{stem(4000)}", "doc_len", 16, None),
        (f"{stem(2048)}", "doc_len", 16, "assistant"),
        (f"{stem(120)}", "ts", week_us, None),
    ]
    return [
        {"query_id": f"hp-{i:04d}", "query_text": t, "field": f,
         "interval": n, "scope": s, "k": 10}
        for i, (t, f, n, s) in enumerate(q)
    ]


def mget_probes() -> list[tuple[str, int]]:
    """_mget probes: present turns of dense-from-0 convs, an
    out-of-range turn (found=False), and an unknown conv
    (found=False) — request order is the response order."""
    return [
        ("conv-00000000", 0),
        ("conv-00000002", 1),
        ("conv-00000001", 0),
        ("conv-00000000", 9999),
        ("conv-99999999", 0),
    ]


def matrix_stats_queries() -> list[dict]:
    """Matrix-stats probes: the ultra-hot set (largest frame), a
    mid-frequency set, a two-term union, a scoped probe, and an
    absent lemma (empty)."""
    q = [
        (stem(0), None),
        (stem(4000), None),
        (f"{stem(120)} {stem(480)}", None),
        (stem(10), "assistant"),
        ("wqxqzq", None),
    ]
    return [
        {"query_id": f"mx-{i:04d}", "query_text": t, "scope": s, "k": 10}
        for i, (t, s) in enumerate(q)
    ]


def boosting_queries() -> list[dict]:
    """Boosting-query probes (ES `boosting`): demote a mid term under
    the hot query, crush (0.1) the hot term under a two-term query, an
    absent-lemma negative (no-op == plain bm25), nb=0 zeroing, a scoped
    probe, and nb=1.0 (bitwise no-op)."""
    q = [
        (stem(0), None, stem(120), 0.5),
        (f"{stem(120)} {stem(480)}", None, stem(0), 0.1),
        (stem(4000), None, "wqxqzq", 0.5),
        (stem(10), None, stem(11), 0.0),
        (stem(0), "assistant", stem(300), 0.25),
        (stem(120), None, stem(10), 1.0),
    ]
    return [
        {"query_id": f"ng-{i:04d}", "query_text": t, "scope": s,
         "negative": n, "negative_boost": nb, "k": 10}
        for i, (t, s, n, nb) in enumerate(q)
    ]


def range_agg_queries() -> list[dict]:
    """Range-aggregation probes: custom doc_len buckets over the hot
    set (incl. an OVERLAPPING and an open-ended range), a mid set, a
    date_range probe in epoch-µs (bounds as days past TS_BASE), a
    scoped count-all bucket, and an absent lemma (empty)."""
    day_us = 86_400_000_000
    base_us = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z epoch-µs
    q = [
        (stem(0), "doc_len",
         [(None, 8), (8, 16), (16, None), (4, 12)], None),
        (stem(4000), "doc_len", [(0, 10), (10, None)], None),
        (stem(120), "ts",
         [(None, base_us + day_us), (base_us + day_us, base_us + 3 * day_us),
          (base_us + 3 * day_us, None)], None),
        (stem(10), "doc_len", [(None, None)], "assistant"),
        ("wqxqzq", "doc_len", [(0, 10)], None),
    ]
    return [
        {"query_id": f"rg-{i:04d}", "query_text": t, "field": f,
         "ranges": r, "scope": s, "k": 10}
        for i, (t, f, r, s) in enumerate(q)
    ]


def percentile_ranks_queries() -> list[dict]:
    """Inverse-percentile probes: doc_len values straddling the
    distribution (incl. below-min -> 0 and above-max -> n), a scoped
    probe, a ts probe at mid-corpus (TS_BASE 2026-01-01 + days), and
    an absent lemma (empty)."""
    day_us = 86_400_000_000
    base_us = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z epoch-µs
    q = [
        (stem(0), "doc_len", [0, 8, 16, 32, 64, 10_000], None),
        (stem(4000), "doc_len", [12, 48], None),
        (stem(10), "doc_len", [16, 40], "assistant"),
        (stem(120), "ts", [base_us + d * day_us for d in (1, 3, 10)], None),
        ("wqxqzq", "doc_len", [10], None),
    ]
    return [
        {"query_id": f"pr-{i:04d}", "query_text": t, "field": f,
         "values": v, "scope": s, "k": 10}
        for i, (t, f, v, s) in enumerate(q)
    ]


def boost_queries() -> list[dict]:
    """Query-time term-boosting probes: upweight the rare term of a
    two-term query, downweight the hot one, a boost key that is not a
    query term (no-op), an inflected boost key folding to a query
    lemma, a 1.0 boost (bitwise no-op), and a scoped boosted query."""
    q = [
        (f"{stem(120)} {stem(480)}", None, {stem(480): 3.0}),
        (f"{stem(120)} {stem(480)}", None, {stem(120): 0.25}),
        (f"{stem(300)}", None, {stem(999): 5.0}),
        (f"{stem(1500)} {stem(301)}", None, {f"{stem(1500)}s": 2.5}),
        (f"{stem(10)} {stem(11)}", None, {stem(10): 1.0}),
        (f"{stem(2048)} {stem(50)}", "assistant", {stem(50): 4.0}),
    ]
    return [
        {"query_id": f"b-{i:04d}", "query_text": t, "scope": s,
         "k": 10, "boosts": bo}
        for i, (t, s, bo) in enumerate(q)
    ]


def suggest_query_probes() -> list[dict]:
    """Whole-query did-you-mean probes: deterministic typo mutations of
    corpus stems (char swap, char drop, trailing junk), a clean query
    (all dist 0), an inflected surface (present via its lemma), a
    stopword-laced query, and an unfixable token."""
    s120, s480, s300 = stem(120), stem(480), stem(300)
    q = [
        (f"{s120[:-1]} {s480}", 2),                 # dropped last char
        (f"{s120[0]}{s120[2]}{s120[1]}{s120[3:]} the {s300}", 2),  # swap + stopword
        (f"{s480}xq {s300}", 2),                     # trailing junk
        (f"{s120} {s480}", 2),                       # clean
        (f"{stem(1500)}s and {s300}", 1),            # plural folds to stem
        ("wqxqzqwq", 1),                             # unfixable at dist 1
    ]
    return [
        {"query_id": f"dq-{i:04d}", "query_text": t, "max_dist": d}
        for i, (t, d) in enumerate(q)
    ]


def composite_queries() -> list[dict]:
    """Composite-aggregation probes: page 1 and an after-resumed page
    of the ultra-hot matching set, an uncapped page, a scoped page, and
    an absent lemma (no rows). The after key is a constant that exists
    at every sf (strictly-after semantics need no existence anyway)."""
    q = [
        (f"{stem(0)}", None, 3, None),
        (f"{stem(0)}", None, 3, ("assistant", "")),
        (f"{stem(4000)}", None, 100, None),
        (f"{stem(2048)}", "assistant", 5, None),
        ("wqxqzq", None, 5, None),
    ]
    return [
        {"query_id": f"c-{i:04d}", "query_text": t, "scope": s,
         "k": k, "after": a}
        for i, (t, s, k, a) in enumerate(q)
    ]


def export_queries() -> list[dict]:
    """Matching-set export probes: a mid-frequency unscoped slice, a
    scoped slice, and a two-term union — bounded matching sets so the
    exported parquet stays test-sized at every sf tag."""
    q = [
        (f"{stem(4000)}", None),
        (f"{stem(2048)}", "assistant"),
        (f"{stem(120)} {stem(480)}", None),
    ]
    return [
        {"query_id": f"e-{i:04d}", "query_text": t, "scope": s, "k": 10}
        for i, (t, s) in enumerate(q)
    ]


def termvector_probes() -> list[dict]:
    """Term-vector probes: the explain set's (conv, turn) pairs (stable
    across scale tags — leading conversation draws share the seeded rng
    stream) plus turn 2 of the first conversation."""
    docs = [(p["conv_id"], p["turn_idx"]) for p in explain_queries()]
    docs.append(("conv-00000000", 2))
    return [
        {"query_id": f"tv-{i:04d}", "conv_id": c, "turn_idx": n}
        for i, (c, n) in enumerate(dict.fromkeys(docs))
    ]


def exclude_queries() -> list[dict]:
    """NOT-term exclusion query set: positive terms (mid-frequency to
    keep 6-dp rounded-score ties out of the comparison protocol, same
    boundary the min-match set documents) minus various NOT sides —
    rare, hot, absent (no-op), stopword-only (no-op), self (empties the
    result), multi-term, scoped, and conjunctive-composed."""
    q = [
        (f"{stem(4000)}", f"{stem(0)}", None, False),          # minus the ultra-hot lemma
        (f"{stem(120)} {stem(480)}", f"{stem(5200)}", None, False),  # minus a rare lemma
        (f"{stem(300)}", "wqxqzq", None, False),               # absent NOT -> plain search
        (f"{stem(301)}", "the and of", None, False),           # stopword NOT -> plain search
        (f"{stem(777)}", f"{stem(777)}", None, False),         # self-exclusion -> empty
        (f"{stem(10)} {stem(11)}", f"{stem(12)} {stem(13)}", None, False),  # multi NOT
        (f"{stem(2048)}", f"{stem(1)}", "assistant", False),   # scoped + NOT
        (f"{stem(50)} {stem(51)}", f"{stem(0)}ed", None, True),  # conjunctive + inflected NOT
    ]
    return [
        {
            "query_id": f"n-{i:04d}",
            "query_text": t,
            "exclude_text": x,
            "scope": s,
            "k": 10,
            "conjunctive": c,
        }
        for i, (t, x, s, c) in enumerate(q)
    ]


def ts_range_queries() -> list[dict]:
    """Timestamp-range query set over the corpus's deterministic ts
    layout (``ts = TS_BASE + conv_num*1h + turn_idx*1min``, TS_BASE =
    2026-01-01T00:00:00 naive UTC): bounded windows, one-sided bounds,
    an everything-window (== plain search), and a pre-corpus window
    (empty). ISO strings are interpreted naive-UTC by BOTH engines."""
    q = [
        (f"{stem(0)}", None, "2026-01-01T05:00:00", "2026-01-02T16:00:00"),
        (f"{stem(4000)}", None, "2026-01-01T00:00:00", None),   # everything
        (f"{stem(120)} {stem(480)}", None, None, "2026-01-03T00:00:00"),  # max only
        (f"{stem(300)}", None, "2026-01-02T00:00:00", None),    # min only
        (f"{stem(0)}", "user", "2026-01-01T03:00:00", "2026-01-04T00:00:00"),  # scoped
        (f"{stem(777)}", None, "2025-01-01T00:00:00", "2025-12-31T00:00:00"),  # pre-corpus -> empty
        (f"{stem(10)} {stem(11)}", None, "2026-01-01T07:30:00", "2026-01-02T02:15:30"),  # sub-minute bound
    ]
    return [
        {
            "query_id": f"t-{i:04d}",
            "query_text": t,
            "scope": s,
            "k": 10,
            "ts_min": lo,
            "ts_max": hi,
        }
        for i, (t, s, lo, hi) in enumerate(q)
    ]


def auto_queries() -> list[dict]:
    """Boolean search-box query set (mode='auto'): quoted phrases as
    AND filters, -tokens as NOT terms, loose text as disjunctive BM25
    signals — in every combination, plus missing-lemma and empty-result
    edges. Mid-frequency loose stems keep 6-dp rounded-score ties out
    of the comparison protocol."""
    q = [
        (f'"{stem(0)} {stem(1)}"', None),                       # phrase filter alone
        (f'"{stem(0)} {stem(1)}" {stem(4000)}', None),          # phrase + loose signal
        (f"{stem(120)} {stem(480)} -{stem(0)}", None),          # loose + NOT
        (f'"{stem(0)} {stem(1)}" -{stem(4100)}', None),         # phrase + NOT
        (f'"{stem(1)} {stem(2)}" "{stem(0)} {stem(1)}"', None), # two phrases AND
        (f'"wqxqzq {stem(0)}"', None),                          # missing phrase lemma -> none
        (f'"{stem(0)} {stem(1)}" {stem(300)}', "assistant"),    # scoped
        (f"{stem(300)} -wqxqzq", None),                         # NOT absent == plain
        (f'"{stem(4100)}" -{stem(4100)}', None),                # self-negation -> empty
    ]
    return [
        {"query_id": f"b-{i:04d}", "query_text": t, "scope": s, "k": 10}
        for i, (t, s) in enumerate(q)
    ]


def conv_queries() -> list[dict]:
    """Conversation-level (grouped) ranking query set: conversations
    ranked by their best matching turn (max-passage aggregation), with
    matching-turn counts. Mid-frequency stems keep 6-dp rounded-score
    ties out of the comparison protocol (the documented boundary)."""
    q = [
        (f"{stem(4000)}", None),                 # single mid-freq term
        (f"{stem(120)} {stem(480)}", None),      # disjunctive pair
        (f"{stem(300)} {stem(2048)}", "assistant"),  # scoped
        (f"{stem(50)} {stem(51)} {stem(52)}", None),  # three terms
        ("wqxqzq", None),                        # missing lemma -> none
    ]
    return [
        {"query_id": f"c-{i:04d}", "query_text": t, "scope": s, "k": 10}
        for i, (t, s) in enumerate(q)
    ]


def collapse_queries() -> list[dict]:
    """Field-collapsing query set: top-k with at most ``collapse`` turns
    per conversation (result diversification). Same mid-frequency-stem
    tie policy as the other filtering-surface sets."""
    q = [
        (f"{stem(4000)}", None, 1),              # strictest collapse
        (f"{stem(120)} {stem(480)}", None, 2),
        (f"{stem(300)}", "assistant", 1),        # scoped + collapse
        (f"{stem(2048)} {stem(2049)}", None, 3),
    ]
    return [
        {"query_id": f"g-{i:04d}", "query_text": t, "scope": s, "k": 10, "collapse": m}
        for i, (t, s, m) in enumerate(q)
    ]


def order_queries() -> list[dict]:
    """Timestamp-ordered result set ("latest matching turns"): ranking
    by ts instead of relevance, both directions, scoped and not. ts ties
    (minute-granularity synthetic data) break by (conv_id, turn_idx) in
    both engines, so any stem works — score is carried, not ranked on."""
    q = [
        (f"{stem(4000)}", None, "ts_desc"),
        (f"{stem(120)} {stem(480)}", None, "ts_desc"),
        (f"{stem(300)}", "assistant", "ts_desc"),
        (f"{stem(2048)}", None, "ts_asc"),
    ]
    return [
        {"query_id": f"o-{i:04d}", "query_text": t, "scope": s, "k": 10, "order_by": o}
        for i, (t, s, o) in enumerate(q)
    ]
