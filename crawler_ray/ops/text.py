"""Text-analysis operators over the ``documents`` table (training-data
pipeline building blocks): token counting, quality scoring, language-ID
heuristic, document fingerprinting.

All stages are vectorized ``map_batches`` bodies; the language/quality rules
are deliberately expressible in ANSI SQL so DuckDB can act as the exact
oracle (integer/string outputs only — see ops/relational.py note on float
sums). Ratios are emitted as FLOOR(100 * a / b) integers so both systems
round identically.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import ray.data as rd

_WORD = re.compile(r"[a-z]+")
_TOKEN = re.compile(r"\S+")
STOPWORDS = ("the", "a", "of", "and", "to")
# language marker words -> guess, first match wins; fallback 'other'
LANG_MARKERS = (("the", "en"), ("la", "es"), ("der", "de"), ("le", "fr"))


def _docs(sf_dir: str, columns=None):
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def token_counts(sf_dir: str):
    """Whitespace token count per document."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_tokens": df["text"].map(lambda t: len(_TOKEN.findall(t))).astype("int64"),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


TOKEN_COUNTS_SQL = r"""
SELECT doc_id, length(regexp_extract_all(text, '\S+')) AS n_tokens FROM documents
"""


# BPE-ish pre-tokenizer: the GPT-2 pattern's RE2-safe core (contraction
# suffixes | space?+letter-run | space?+digit-run | space?+other-run) —
# the original's trailing-space lookahead is dropped so the IDENTICAL
# pattern runs in Python re, RE2, and DuckDB. Applied to lowercased text.
BPE_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?[a-z]+| ?[0-9]+| ?[^\sa-z0-9']+"
_BPE = re.compile(BPE_PATTERN)


def bpe_pretokens(sf_dir: str):
    """Per-document BPE-style pre-token count (the unit an LLM tokenizer's
    merge stage consumes — the brief's 'BPE-ish regex' token counter).
    Same one-pass vectorized map_batches shape as token_counts."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_pretokens": df["text"]
                .map(lambda t: len(_BPE.findall(t.lower())))
                .astype("int64"),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


BPE_PRETOKENS_SQL = rf"""
SELECT doc_id,
       length(regexp_extract_all(lower(text), '{BPE_PATTERN.replace("'", "''")}')) AS n_pretokens
FROM documents
"""


def quality_scores(sf_dir: str):
    """Length / word / stopword-ratio quality features per document."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.lower().map(_WORD.findall)
        n_words = words.map(len)
        n_stop = words.map(lambda ws: sum(w in STOPWORDS for w in ws))
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_chars": df["text"].str.len().astype("int64"),
                "n_words": n_words.astype("int64"),
                "stop_pct": (100 * n_stop // n_words.clip(lower=1)).astype("int64"),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


QUALITY_SCORES_SQL = r"""
SELECT doc_id,
       length(text) AS n_chars,
       length(regexp_extract_all(lower(text), '[a-z]+')) AS n_words,
       CAST(FLOOR(100.0 * length(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
                                             x -> x IN ('the','a','of','and','to')))
                  / GREATEST(length(regexp_extract_all(lower(text), '[a-z]+')), 1))
            AS BIGINT) AS stop_pct
FROM documents
"""


def lang_id(sf_dir: str):
    """Marker-word language guess (first marker whose word occurs wins)."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.lower().map(lambda t: set(_WORD.findall(t)))

        def guess(ws: set) -> str:
            for marker, lang in LANG_MARKERS:
                if marker in ws:
                    return lang
            return "other"

        g = words.map(guess)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "lang_guess": g,
                "agrees": (g == df["lang"]).astype("int64"),
            }
        )

    return _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(f, batch_format="pandas")


LANG_ID_SQL = r"""
WITH w AS (SELECT doc_id, lang, regexp_extract_all(lower(text), '[a-z]+') AS ws FROM documents),
     g AS (SELECT doc_id, lang,
                  CASE WHEN list_contains(ws, 'the') THEN 'en'
                       WHEN list_contains(ws, 'la')  THEN 'es'
                       WHEN list_contains(ws, 'der') THEN 'de'
                       WHEN list_contains(ws, 'le')  THEN 'fr'
                       ELSE 'other' END AS lang_guess
           FROM w)
SELECT doc_id, lang_guess, CAST(lang_guess = lang AS BIGINT) AS agrees FROM g
"""


def fingerprints(sf_dir: str):
    """Content fingerprint: md5 of lower(trim(text)) — the exact-dedup key."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        fp = df["text"].map(
            lambda t: hashlib.md5(t.strip().lower().encode("utf-8")).hexdigest()
        )
        return pd.DataFrame({"doc_id": df["doc_id"], "fingerprint": fp})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


FINGERPRINTS_SQL = "SELECT doc_id, md5(lower(trim(text))) AS fingerprint FROM documents"


TOP_TOKENS_K = 50


def top_tokens(sf_dir: str):
    """Corpus-wide token frequency top-K: per-batch partial counts
    (combiner BEFORE the shuffle — the batch collapses to at most
    vocab-size rows), bucketed exact sum per token, per-bucket top-K,
    then a K x n_buckets driver merge. The canonical wide word-count
    shape: nothing crosses the wire but (token, partial_count) rows."""
    import numpy as np

    from .common import bucketed_group_apply

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        words = np.concatenate(
            [np.array(_WORD.findall(t.lower()), dtype=object) for t in df["text"]]
        ) if len(df) else np.array([], dtype=object)
        if not len(words):
            return pd.DataFrame(
                {"token": pd.Series([], dtype="object"),
                 "n": pd.Series([], dtype="int64")}
            )
        uniq, counts = np.unique(words, return_counts=True)
        return pd.DataFrame({"token": uniq, "n": counts.astype("int64")})

    def per_bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("token", as_index=False)["n"].sum()
        # local top-K is safe: every row of a token lives in one bucket
        return s.sort_values(["n", "token"], ascending=[False, True]).head(
            TOP_TOKENS_K
        )

    parts = _docs(sf_dir, ["text"]).map_batches(partial, batch_format="pandas")
    cand = bucketed_group_apply(parts, ["token"], per_bucket_topk)
    out = cand.to_pandas()  # <= n_buckets x K rows
    return (
        out.sort_values(["n", "token"], ascending=[False, True])
        .head(TOP_TOKENS_K)
        .reset_index(drop=True)
    )


TOP_TOKENS_SQL = f"""
SELECT token, COUNT(*) AS n
FROM (SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS token
      FROM documents)
GROUP BY token ORDER BY n DESC, token LIMIT {TOP_TOKENS_K}
"""


TFIDF_K = 3


def tfidf_top_terms(sf_dir: str, k: int = TFIDF_K):
    """Per-document top-k terms by tf-idf (score_e6 = tf * round_half_away
    (1e6 * ln(N/df))) — the classic two-sided text composition: per-doc
    term frequencies (one pass), corpus document frequencies (combiner +
    bucketed sum), a co-partitioned tf<-df join on token (tag, union, ONE
    bucketed shuffle — no vocabulary broadcast: at 100 TB the vocab is
    itself large), then a per-doc vectorized top-k keyed by doc_id.
    Integer-exact vs the SQL oracle: idf uses ``math.log`` (libm, the
    same C library DuckDB's ln calls) on the few DISTINCT df values and
    the same half-away rounding as the money columns; ties beyond
    (score, token) cannot occur since token is unique per doc."""
    import math

    from .common import bucketed_group_apply

    ds = _docs(sf_dir, ["doc_id", "text"])
    n_docs = ds.count()

    def tf_rows(df: pd.DataFrame) -> pd.DataFrame:
        out_doc, out_tok = [], []
        for d, t in zip(df["doc_id"], df["text"]):
            toks = _WORD.findall(t.lower())
            out_doc += [d] * len(toks)
            out_tok += toks
        x = pd.DataFrame({"doc_id": out_doc, "token": out_tok})
        if not len(x):
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "token": pd.Series([], dtype="object"),
                    "tf": pd.Series([], dtype="int64"),
                }
            )
        # a document is one row, never split across batches -> per-batch
        # (doc, token) counts ARE the exact per-doc term frequencies
        g = x.groupby(["doc_id", "token"], as_index=False).size()
        g.columns = ["doc_id", "token", "tf"]
        return g.astype({"doc_id": "int64", "tf": "int64"})

    # materialize: both union branches below consume tf — without pinning,
    # the tokenize+groupby stage executes twice per run (ADVICE r4)
    tf = ds.map_batches(tf_rows, batch_format="pandas").materialize()

    # document frequency: tf rows are distinct per (doc, token), so df is
    # a per-token row count — partial counts per batch, bucketed exact sum
    def df_partial(x: pd.DataFrame) -> pd.DataFrame:
        g = x.groupby("token", as_index=False).size()
        g.columns = ["token", "df"]
        g["doc_id"] = np.int64(-1)
        g["tf"] = np.int64(-1)
        return g[["doc_id", "token", "tf", "df"]].astype(
            {"df": "int64", "doc_id": "int64", "tf": "int64"}
        )

    def tag_tf(x: pd.DataFrame) -> pd.DataFrame:
        return x.assign(df=np.int64(-1))[["doc_id", "token", "tf", "df"]]

    both = tf.map_batches(tag_tf, batch_format="pandas").union(
        tf.map_batches(df_partial, batch_format="pandas")
    )

    def join_df(g: pd.DataFrame) -> pd.DataFrame:
        dfs = (
            g.loc[g["doc_id"] == -1]
            .groupby("token", as_index=False)["df"]
            .sum()
        )
        rows = g.loc[g["doc_id"] != -1, ["doc_id", "token", "tf"]]
        return rows.merge(dfs, on="token", how="inner")

    joined = bucketed_group_apply(both, ["token"], join_df)

    def per_doc_topk(g: pd.DataFrame) -> pd.DataFrame:
        # idf per DISTINCT df value with math.log (libm — bit-identical to
        # DuckDB's ln), half-away rounding like the money columns
        idf = {
            int(v): int(math.floor(1e6 * math.log(n_docs / v) + 0.5))
            for v in g["df"].unique()
        }
        g = g.assign(
            score_e6=(
                g["tf"].to_numpy()
                * np.array([idf[int(v)] for v in g["df"]], dtype=np.int64)
            )
        )
        g = g.sort_values(
            ["doc_id", "score_e6", "token"], ascending=[True, False, True]
        )
        out = g.groupby("doc_id", as_index=False).head(k)
        return out[["doc_id", "token", "tf", "score_e6"]].astype(
            {"doc_id": "int64", "tf": "int64", "score_e6": "int64"}
        )

    return bucketed_group_apply(joined, ["doc_id"], per_doc_topk)


TFIDF_SQL = f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS token
  FROM documents
), tf AS (
  SELECT doc_id, token, COUNT(*) AS tf FROM tok GROUP BY doc_id, token
), df AS (
  SELECT token, COUNT(*) AS df FROM tf GROUP BY token
), n AS (SELECT COUNT(*) AS n FROM documents),
scored AS (
  SELECT t.doc_id, t.token, t.tf,
         t.tf * CAST(ROUND(1000000 * ln(CAST(n.n AS DOUBLE) / d.df)) AS BIGINT)
           AS score_e6
  FROM tf t JOIN df d ON d.token = t.token CROSS JOIN n
), ranked AS (
  SELECT *, ROW_NUMBER() OVER (
    PARTITION BY doc_id ORDER BY score_e6 DESC, token
  ) AS rn FROM scored
)
SELECT doc_id, token, CAST(tf AS BIGINT) AS tf, score_e6
FROM ranked WHERE rn <= {TFIDF_K}
"""


def repetition_signals(sf_dir: str):
    """Gopher-style repetition quality signals per document (Rae et al.
    2021 §A1.1, adapted word-level because this corpus is single-line):
    ``dup_word_frac_e6`` = (n_words - n_unique_words) / n_words and
    ``top_bigram_frac_e6`` = count of the most frequent word bigram /
    total bigrams. Pure streaming map_batches (the quality_filter shape);
    fractions are floor(1e6 * x) with the identical float expression on
    both sides so the SQL compare is exact."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        dup, top = [], []
        for t in df["text"]:
            toks = np.array(_WORD.findall(t.lower()), dtype=object)
            nw = len(toks)
            if nw == 0:
                dup.append(0)
                top.append(0)
                continue
            nu = len(np.unique(toks))
            dup.append(int(np.floor(1_000_000.0 * (nw - nu) / nw)))
            if nw >= 2:
                bgs = toks[:-1] + " " + toks[1:]  # object-array elementwise
                _, c = np.unique(bgs, return_counts=True)
                top.append(int(np.floor(1_000_000.0 * int(c.max()) / (nw - 1))))
            else:
                top.append(0)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "dup_word_frac_e6": pd.Series(dup, dtype="int64"),
                "top_bigram_frac_e6": pd.Series(top, dtype="int64"),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


REPETITION_SQL = """
WITH tok AS (
  SELECT doc_id,
         generate_subscripts(regexp_extract_all(lower(text), '[a-z]+'), 1) AS i,
         unnest(regexp_extract_all(lower(text), '[a-z]+')) AS tok
  FROM documents
), words AS (
  SELECT doc_id, COUNT(*) AS nw, COUNT(DISTINCT tok) AS nu
  FROM tok GROUP BY doc_id
), bgc AS (
  SELECT a.doc_id, a.tok || ' ' || b.tok AS bg, COUNT(*) AS c
  FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.i = a.i + 1
  GROUP BY a.doc_id, bg
), bgm AS (
  SELECT doc_id, MAX(c) AS max_c, SUM(c) AS n_bg FROM bgc GROUP BY doc_id
)
SELECT w.doc_id,
       CAST(FLOOR(1000000.0 * (w.nw - w.nu) / w.nw) AS BIGINT) AS dup_word_frac_e6,
       CAST(COALESCE(FLOOR(1000000.0 * m.max_c / m.n_bg), 0) AS BIGINT) AS top_bigram_frac_e6
FROM words w LEFT JOIN bgm m ON m.doc_id = w.doc_id
"""


MIN_WORDS = 20
MAX_STOP_PCT = 60
MIN_CHARS = 80


def quality_filter(sf_dir: str):
    """C4-style rule-based quality gate: per-doc pass/fail per rule plus
    the final keep flag (docs kept iff every rule passes). Pure streaming
    map_batches — the canonical first stage of a training-data pipeline;
    rules share one tokenize pass per batch."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.lower().map(_WORD.findall)
        n_words = words.map(len).astype("int64")
        n_stop = words.map(lambda ws: sum(w in STOPWORDS for w in ws)).astype("int64")
        stop_pct = (100 * n_stop // n_words.clip(lower=1)).astype("int64")
        n_chars = df["text"].str.len().astype("int64")
        ok_len = (n_words >= MIN_WORDS).astype("int64")
        ok_stop = (stop_pct <= MAX_STOP_PCT).astype("int64")
        ok_chars = (n_chars >= MIN_CHARS).astype("int64")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "ok_len": ok_len,
                "ok_stop": ok_stop,
                "ok_chars": ok_chars,
                "keep": (ok_len & ok_stop & ok_chars).astype("int64"),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


QUALITY_FILTER_SQL = rf"""
WITH w AS (
  SELECT doc_id,
         length(text) AS n_chars,
         length(regexp_extract_all(lower(text), '[a-z]+')) AS n_words,
         length(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
                            x -> x IN ('the','a','of','and','to'))) AS n_stop
  FROM documents)
SELECT doc_id,
       CAST(n_words >= {MIN_WORDS} AS BIGINT) AS ok_len,
       CAST(CAST(FLOOR(100.0 * n_stop / GREATEST(n_words, 1)) AS BIGINT)
            <= {MAX_STOP_PCT} AS BIGINT) AS ok_stop,
       CAST(n_chars >= {MIN_CHARS} AS BIGINT) AS ok_chars,
       CAST(n_words >= {MIN_WORDS}
            AND CAST(FLOOR(100.0 * n_stop / GREATEST(n_words, 1)) AS BIGINT)
                <= {MAX_STOP_PCT}
            AND n_chars >= {MIN_CHARS} AS BIGINT) AS keep
FROM w
"""


SPLIT_TRAIN_PCT = 90


def dataset_split(sf_dir: str):
    """Deterministic train/validation split by content-independent key
    hash (md5 of the doc_id string, first byte mod 100): reproducible
    across runs and engines, no RNG, no shuffle — the standard way to
    split a 100 TB corpus without materializing an ordering."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        bucket = df["doc_id"].map(
            lambda d: hashlib.md5(str(int(d)).encode()).digest()[0] % 100
        ).astype("int64")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "split": pd.Series(
                    ["train" if b < SPLIT_TRAIN_PCT else "valid" for b in bucket],
                    index=df.index,
                ),
            }
        )

    return _docs(sf_dir, ["doc_id"]).map_batches(f, batch_format="pandas")


DATASET_SPLIT_SQL = f"""
SELECT doc_id,
       CASE WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 2))
                      AS INTEGER) % 100 < {SPLIT_TRAIN_PCT}
            THEN 'train' ELSE 'valid' END AS split
FROM documents
"""


# --- winnowing (rolling-hash) fingerprints -----------------------------
WINNOW_K = 8  # k-gram char length
WINNOW_W = 4  # window of consecutive k-gram hashes
_WINNOW_B = np.uint64(257)  # polynomial base (uint64 wraparound hash)


def _winnow_doc_hashes(arr: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """All k-gram rolling hashes of one byte array (uint64 wraparound)."""
    if len(arr) < WINNOW_K:
        return np.empty(0, dtype=np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(arr, WINNOW_K)
    return (win.astype(np.uint64) * powers).sum(axis=1, dtype=np.uint64)


def winnowing_fingerprints(sf_dir: str):
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken, the
    MOSS local dedup sketch): k-gram rolling hashes over the lowercased
    text, one fingerprint per window of ``WINNOW_W`` consecutive hashes —
    the RIGHTMOST minimal hash of each window — deduplicated per doc.
    Guarantees any shared substring of length >= k+w-1 between two
    documents yields at least one shared fingerprint, which is what makes
    it a near-dup PRE-FILTER at corpus scale (fingerprints are grouped by
    value downstream exactly like minhash band buckets).

    Per-doc work is two numpy sliding_window_view passes (hash, then
    windowed argmin) — no per-character Python.
    Short docs (fewer than w hashes but >= 1) contribute their single
    rightmost-minimal hash. Approximation-free and deterministic, but not
    SQL-expressible -> rows-only driver oracle; a scalar reference
    implementation cross-checks values in tests."""
    powers = _WINNOW_B ** np.arange(
        WINNOW_K - 1, -1, -1, dtype=np.uint64
    )  # B^(k-1)..B^0

    def f(df: pd.DataFrame) -> pd.DataFrame:
        doc_ids: list[np.ndarray] = []
        fps: list[np.ndarray] = []
        for did, text in zip(df["doc_id"].to_numpy(), df["text"].to_numpy()):
            arr = np.frombuffer(text.lower().encode(), dtype=np.uint8)
            h = _winnow_doc_hashes(arr, powers)
            if len(h) == 0:
                continue
            if len(h) < WINNOW_W:
                rev = h[::-1]
                sel = np.array([len(h) - 1 - int(np.argmin(rev))])
            else:
                wins = np.lib.stride_tricks.sliding_window_view(h, WINNOW_W)
                # rightmost minimal element of each window
                sel = (
                    np.arange(len(wins))
                    + (WINNOW_W - 1)
                    - np.argmin(wins[:, ::-1], axis=1)
                )
            u = np.unique(h[sel])
            fps.append(u)
            doc_ids.append(np.full(len(u), did, dtype=np.int64))
        if not fps:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype="int64"),
                    "fp": pd.Series(dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "doc_id": np.concatenate(doc_ids),
                # bit-cast to int64 for a parquet/SQL-friendly column
                "fp": np.concatenate(fps).view(np.int64),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


# --- Sequence packing (fixed-budget training-sequence binning) -----------
# The step between a cleaned corpus and an LLM training run: pack
# documents into fixed-token-capacity sequences so padding waste is
# bounded (first-fit-decreasing; Raffel et al. 2020 pack T5 batches this
# way). Packing is deliberately PER-BUCKET: documents hash into buckets
# (one packing task each) and bins never cross buckets — globally optimal
# packing is NP-hard and unnecessary, and this is the only shape that
# runs embarrassingly parallel at 100 TB. The partitioning assumption is
# therefore part of the contract: results depend on the bucket count
# (task granularity), not on Ray's batching, and are deterministic for a
# fixed CRAWLER_RAY_N_BUCKETS / cluster size.
PACK_CAP = 512  # whitespace tokens per training sequence at test scale


def _pack_sequences_ds(docs, cap: int = PACK_CAP):
    """Core of ``pack_sequences`` over any (doc_id, text) Dataset.

    Returns one row per document: (doc_id, n_tokens, bin_id, offset) —
    bin_id is the doc_id of the FIRST document placed in the bin (unique
    across buckets with no driver coordination), offset is the doc's
    token start within its sequence. Documents longer than ``cap`` get a
    bin of their own (offset 0), untruncated — the trainer decides how
    to split oversize docs. Within a bucket, docs are packed
    first-fit-decreasing on (n_tokens desc, doc_id), so output is a
    pure function of bucket membership."""
    from .common import bucketed_group_apply

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_tokens": df["text"]
                .map(lambda t: len(_TOKEN.findall(t)))
                .astype("int64"),
            }
        )

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["n_tokens", "doc_id"], ascending=[False, True]
        ).reset_index(drop=True)
        bin_ids: list[int] = []
        offsets: list[int] = []
        open_rem: list[int] = []  # remaining capacity per open bin
        open_key: list[int] = []
        for did, n in zip(g["doc_id"], g["n_tokens"]):
            placed = False
            if n <= cap:
                for j in range(len(open_rem)):
                    # strictly positive remaining: a FULL bin is closed —
                    # rem == 0 would admit zero-token docs at offset ==
                    # cap (review-found r5, both the oversize and the
                    # exactly-full variant)
                    if open_rem[j] >= n and open_rem[j] > 0:
                        bin_ids.append(open_key[j])
                        offsets.append(cap - open_rem[j])
                        open_rem[j] -= n
                        placed = True
                        break
            if not placed:
                bin_ids.append(int(did))
                offsets.append(0)
                if n < cap:
                    open_key.append(int(did))
                    open_rem.append(cap - int(n))
                # oversize and exactly-full bins are CLOSED singletons
        out = g.copy()
        out["bin_id"] = pd.Series(bin_ids, dtype="int64")
        out["offset"] = pd.Series(offsets, dtype="int64")
        return out

    return bucketed_group_apply(
        docs.map_batches(counts, batch_format="pandas"), ["doc_id"], pack
    )


def pack_sequences(sf_dir: str):
    """Sequence packing over the documents table (see
    ``_pack_sequences_ds`` for shape notes and the partitioning
    contract)."""
    return _pack_sequences_ds(_docs(sf_dir, ["doc_id", "text"]))


# --- Misra-Gries heavy hitters (mergeable frequent-items sketch) --------
MG_K = 4096  # counters per summary
HH_TOP = 50  # reported rows


def _mg_prune(tokens: np.ndarray, counts: np.ndarray, k: int):
    """Misra-Gries prune of a counter multiset to <= k entries: subtract
    the (k+1)-th largest count from all, drop non-positive. Returns
    (tokens, counts, deducted). Every prune decrements >= k+1 counters by
    the deduction, which is what bounds total deduction by N/(k+1) no
    matter how summaries are batched and merged (Agarwal et al. 2013,
    'Mergeable Summaries')."""
    if len(tokens) <= k:
        return tokens, counts, 0
    thr = np.partition(counts, -(k + 1))[-(k + 1)]
    kept = counts - thr
    keep = kept > 0
    return tokens[keep], kept[keep], int(thr)


def _token_heavy_hitters_ds(ds, k: int = MG_K, top: int = HH_TOP) -> pd.DataFrame:
    """Core of token_heavy_hitters over any (text) Dataset. A summary is
    rows (token, n) plus one sentinel row (token='', n=total deduction);
    '' can never collide with a real bigram ([a-z]+ words are nonempty).
    Merging summaries = groupby-sum (the sentinel errs add), then prune."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks: list[str] = []
        for t in df["text"]:
            ws = _WORD.findall(t.lower())
            toks.extend(a + " " + b for a, b in zip(ws, ws[1:]))
        if not toks:
            return pd.DataFrame(
                {"token": pd.Series([], dtype="object"),
                 "n": pd.Series([], dtype="int64")}
            )
        uniq, counts = np.unique(np.array(toks, dtype=object), return_counts=True)
        t_, c_, ded = _mg_prune(uniq, counts.astype(np.int64), k)
        return pd.DataFrame(
            {"token": np.append(t_, ""), "n": np.append(c_, ded).astype("int64")}
        )

    def mg_merge(df: pd.DataFrame) -> pd.DataFrame:
        err = int(df.loc[df["token"] == "", "n"].sum())
        g = (
            df[df["token"] != ""]
            .groupby("token", as_index=False)["n"]
            .sum()
        )
        t_, c_, ded = _mg_prune(
            g["token"].to_numpy(), g["n"].to_numpy(), k
        )
        return pd.DataFrame(
            {"token": np.append(t_, ""), "n": np.append(c_, err + ded).astype("int64")}
        )

    # one intermediate merge level (the tree rung: at 100 TB each merge
    # task folds ~batch_size summary rows; add levels as block count
    # grows), then a driver fold over <= tasks x (k+1) rows
    summaries = ds.map_batches(partial, batch_format="pandas").map_batches(
        mg_merge, batch_format="pandas", batch_size=64 * 1024
    )
    final = mg_merge(summaries.to_pandas())
    err = int(final.loc[final["token"] == "", "n"].sum())
    out = (
        final[final["token"] != ""]
        .sort_values(["n", "token"], ascending=[False, True])
        .head(top)
        .reset_index(drop=True)
        .rename(columns={"n": "est_count"})
    )
    out["max_undercount"] = np.int64(err)
    return out


def token_heavy_hitters(sf_dir: str):
    """Approximate corpus-wide frequent items over word BIGRAMS (frequent
    phrases) via the Misra-Gries mergeable sketch: each batch compresses
    its exact bigram counts to <= MG_K counters, summaries merge by
    groupby-sum + prune (one intermediate map_batches rung, then a tiny
    driver fold), and the top-HH_TOP survivors are reported with the
    global undercount bound (true count in [est, est + max_undercount],
    and max_undercount <= N/(MG_K+1) total).

    THE frequent-items shape at 100 TB — the count complement of the
    HyperLogLog distinct sketch: the driver only ever sees counter
    summaries, never token streams, and summary size is fixed at MG_K
    regardless of corpus size. At the test tiers the bigram vocabulary
    (~10^3) is below MG_K, so no prune fires and the sketch degenerates
    to EXACT counts — which is what makes a full SQL value oracle honest
    here (it pins the exact regime + merge plumbing; the pruning regime
    is pinned by the zipf-skew pytest asserting the mergeable-summaries
    bound with a deliberately small k)."""
    return _token_heavy_hitters_ds(_docs(sf_dir, ["text"]))


TOKEN_HH_SQL = f"""
WITH w AS (
  SELECT regexp_extract_all(lower(text), '[a-z]+') AS ws FROM documents
),
b AS (
  SELECT list_extract(ws, i) || ' ' || list_extract(ws, i + 1) AS token
  FROM (SELECT ws, unnest(generate_series(1, length(ws) - 1)) AS i FROM w)
),
c AS (SELECT token, COUNT(*) AS est_count FROM b GROUP BY token)
SELECT token, est_count, CAST(0 AS BIGINT) AS max_undercount
FROM c ORDER BY est_count DESC, token LIMIT {HH_TOP}
"""


# --- Test-set decontamination (word-n-gram overlap vs a held-out bench) --
# The classic LLM-training-data step (Brown et al. 2020, appendix C): flag
# training documents that share any n-word-gram with an evaluation set so
# they can be dropped before training. The "benchmark" here is the held-out
# slice doc_id % DECON_BENCH_MOD == 0 of the same documents table
# (deterministic, no external data); K=8 words per gram (GPT-3 used 13 —
# 8 fits this corpus's ~55-word synthetic docs and still means a full
# shared clause, not a stock phrase).
DECON_K = 8
DECON_BENCH_MOD = 7
_DECON_B = np.uint64(1099511628211)  # FNV prime, polynomial base
_DECON_POW = _DECON_B ** np.arange(DECON_K - 1, -1, -1, dtype=np.uint64)


def _word_gram_hashes(ws: list[str], k: int) -> np.ndarray:
    """uint64 polynomial hash of every k-word window (vectorized: one
    process-stable hash per word, then a sliding-window dot product in
    wrapping uint64 arithmetic). Hash equality is only a FILTER: every
    hit is confirmed by string equality against ALL bench grams that share
    the hash, so a collision costs an extra comparison, never a hit."""
    wh = pd.util.hash_array(np.asarray(ws, dtype=object)).astype(np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(wh, k)
    return (win * _DECON_POW).sum(axis=1, dtype=np.uint64)


def _decontaminate_ds(docs, bench_gram_cap: int = 20_000_000):
    """Core of ``decontaminate`` over any (doc_id, text) Dataset.

    Per-document contamination report: for every NON-bench document
    that shares at least one DECON_K-word-gram with the bench slice,
    emit (doc_id, hits = matching gram positions, distinct_grams =
    distinct matching gram strings).

    Scale shape: a REAL decontamination bench is external and tiny next
    to the corpus (benchmarks are MBs; the corpus is TBs), so the bench
    side is collected once on the driver, deduped, and broadcast via
    ``ray.put`` as ONE sorted uint64 hash array plus a hash->grams dict
    for exact confirmation — read by every scan task, never re-shipped
    per batch. The doc_id % DECON_BENCH_MOD slice used here is TEST-TIER
    scaffolding (no external data allowed), and it is corpus-
    proportional — so the broadcast build is guarded by a LOUD cap
    (``bench_gram_cap``): beyond it the operator raises rather than
    silently materializing a corpus-scale object on the driver, and the
    bucketed semi-join shape in ``ops/dedup._substring_dup_spans_ds`` is
    the documented drop-in for an oversized bench. The corpus-side scan
    is a single zero-shuffle ``map_batches`` pass: vectorized window
    hashing, ``sorted_isin`` membership, and a Python-level string
    confirm ONLY on hit positions (rare by construction). Nothing
    crosses the wire but the contaminated-doc report rows."""
    import ray

    from .common import sorted_isin

    def bench_grams(df: pd.DataFrame) -> pd.DataFrame:
        hs_all: list[np.ndarray] = []
        gs_all: list[str] = []
        for did, t in zip(df["doc_id"].to_numpy(), df["text"].to_numpy()):
            if did % DECON_BENCH_MOD != 0:
                continue
            ws = _WORD.findall(t.lower())
            if len(ws) < DECON_K:
                continue
            # every window, not one per hash: two distinct grams that
            # share a hash both stay (by_hash's sets dedupe repeats)
            hs = _word_gram_hashes(ws, DECON_K)
            hs_all.append(hs)
            gs_all.extend(
                " ".join(ws[i : i + DECON_K]) for i in range(len(hs))
            )
        if not hs_all:
            return pd.DataFrame(
                {"h": pd.Series([], dtype="int64"),
                 "g": pd.Series([], dtype="object")}
            )
        return pd.DataFrame(
            {"h": np.concatenate(hs_all).view(np.int64), "g": gs_all}
        )

    bench_ds = docs.map_batches(bench_grams, batch_format="pandas").materialize()
    n_bench = bench_ds.count()
    if n_bench > bench_gram_cap:
        raise ValueError(
            f"decontaminate bench side has {n_bench} grams > cap "
            f"{bench_gram_cap}: too large to broadcast — shrink the bench "
            "or use the bucketed semi-join shape "
            "(ops/dedup._substring_dup_spans_ds)"
        )
    bench = bench_ds.to_pandas()
    by_hash: dict[int, set] = {}
    for h, g in zip(bench["h"].to_numpy().view(np.uint64), bench["g"]):
        by_hash.setdefault(int(h), set()).add(g)
    sorted_h = np.unique(bench["h"].to_numpy().view(np.uint64))
    ref = ray.put((sorted_h, by_hash))

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "hits": pd.Series([], dtype="int64"),
                "distinct_grams": pd.Series([], dtype="int64"),
            }
        )
        sh, gm = ray.get(ref)
        if not len(sh):
            return empty
        # batch-level vectorization: per-doc hash_array calls dominate on
        # short docs, so hash the batch's CONCATENATED word stream once,
        # window-hash once, and mask out windows that cross doc boundaries
        word_lists: list[list[str]] = []
        doc_ids: list[int] = []
        for did, t in zip(df["doc_id"].to_numpy(), df["text"].to_numpy()):
            if did % DECON_BENCH_MOD == 0:
                continue
            ws = _WORD.findall(t.lower())
            if len(ws) < DECON_K:
                continue
            word_lists.append(ws)
            doc_ids.append(int(did))
        if not word_lists:
            return empty
        lens = np.array([len(w) for w in word_lists], dtype=np.int64)
        offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
        flat: list[str] = []
        for w in word_lists:
            flat.extend(w)
        wh = pd.util.hash_array(np.asarray(flat, dtype=object)).astype(np.uint64)
        win = np.lib.stride_tricks.sliding_window_view(wh, DECON_K)
        allh = (win * _DECON_POW).sum(axis=1, dtype=np.uint64)
        pos = np.arange(len(allh))
        doc_of = np.searchsorted(offs, pos, side="right") - 1
        valid = pos <= offs[doc_of] + lens[doc_of] - DECON_K
        hit_pos = np.flatnonzero(sorted_isin(sh, allh) & valid)
        acc: dict[int, list] = {}
        for p in hit_pos:
            d = int(doc_of[p])
            i = int(p - offs[d])
            g = " ".join(word_lists[d][i : i + DECON_K])
            if g in gm[int(allh[p])]:
                a = acc.setdefault(d, [0, set()])
                a[0] += 1
                a[1].add(g)
        if not acc:
            return empty
        rows = sorted(acc.items())
        return pd.DataFrame(
            {
                "doc_id": pd.Series([doc_ids[d] for d, _ in rows], dtype="int64"),
                "hits": pd.Series([a[0] for _, a in rows], dtype="int64"),
                "distinct_grams": pd.Series(
                    [len(a[1]) for _, a in rows], dtype="int64"
                ),
            }
        )

    return docs.map_batches(scan, batch_format="pandas")


def decontaminate(sf_dir: str):
    """Test-set decontamination over the documents table (see
    ``_decontaminate_ds`` for the full shape notes)."""
    return _decontaminate_ds(_docs(sf_dir, ["doc_id", "text"]))


# --- Bigram-LM log-probability scoring (CCNet-style quality signal) ------
# Wenzek et al. 2020 (CCNet) rank web documents by the perplexity of a
# KenLM n-gram model; low-probability documents are gibberish/boilerplate.
# Here the LM is a bigram model with add-one smoothing trained on the
# corpus itself: lp(w1 w2) = ln((c(w1,w2) + 1) / (c(w1,.) + V)) where
# c(w1,.) counts w1 as a bigram prefix and V is the distinct-word vocab.
# Scores are emitted as integer micro-nats (ROUND(1e6 * ln ...)) summed
# per document, so the DuckDB oracle matches bit-exactly (libm ln on
# identical doubles — the tfidf_top_terms precedent).


def _lm_logprob_ds(docs):
    """Core of ``lm_logprob`` over any (doc_id, text) Dataset.

    Per-document bigram-LM log-probability: (doc_id, n_bigrams,
    logprob_e6 = sum of per-bigram micro-nat log-probs).

    Scale shape: TRAINING is one combiner-before-shuffle pass (per-batch
    partial bigram counts, bucketed exact sum) whose output is
    VOCAB-bounded, not corpus-bounded — the count table is the model.
    SCORING broadcasts the model once via ``ray.put`` (exactly how CCNet
    ships its fixed pretrained KenLM to every worker) and runs one
    zero-shuffle ``map_batches`` pass: bigram log-probs are computed once
    per DISTINCT (c2, c1) pair (vocab-bounded dict, same trick as the
    tfidf idf table), then mapped over doc bigrams with hash lookups in
    C. At open-web vocabularies the table is pruned by count threshold
    before broadcast, like any production LM — the shape is unchanged.
    Docs with < 2 words have no bigrams and are absent, matching the
    SQL join semantics."""
    import math

    import ray

    from .common import bucketed_sum

    def bigram_partial(df: pd.DataFrame) -> pd.DataFrame:
        # ONE tokenize pass serves both the bigram counts and the vocab:
        # vocab-presence rows ride along as (token, "", 0) — "" can never
        # collide with a real [a-z]+ token (the Misra-Gries sentinel
        # precedent) — so one bucketed shuffle dedups/sums both
        b1: list[str] = []
        b2: list[str] = []
        vocab_set: set = set()
        for t in df["text"]:
            ws = _WORD.findall(t.lower())
            vocab_set.update(ws)
            b1.extend(ws[:-1])
            b2.extend(ws[1:])
        v = sorted(vocab_set)
        if not v:
            return pd.DataFrame(
                {"w1": pd.Series([], dtype="object"),
                 "w2": pd.Series([], dtype="object"),
                 "c2": pd.Series([], dtype="int64")}
            )
        g = (
            pd.DataFrame(
                {"w1": pd.Series(b1, dtype="object"),
                 "w2": pd.Series(b2, dtype="object")}
            )
            .groupby(["w1", "w2"], as_index=False)
            .size()
        )
        g.columns = ["w1", "w2", "c2"]
        return pd.concat(
            [
                g.astype({"c2": "int64"}),
                pd.DataFrame(
                    {"w1": v, "w2": [""] * len(v),
                     "c2": np.zeros(len(v), dtype=np.int64)}
                ),
            ],
            ignore_index=True,
        )

    # model: exact corpus bigram counts + vocab rows (vocab-bounded)
    lm_all = bucketed_sum(
        docs.map_batches(bigram_partial, batch_format="pandas"),
        ["w1", "w2"],
        ["c2"],
    ).to_pandas()
    vocab = int((lm_all["w2"] == "").sum())
    lm = lm_all[lm_all["w2"] != ""].reset_index(drop=True)
    c1 = lm.groupby("w1", as_index=False)["c2"].sum().rename(columns={"c2": "c1"})
    # pre-resolve the micro-nat log-prob of every DISTINCT (c2, c1) pair
    # with math.log (libm — bit-identical to DuckDB's ln; np.log's SIMD
    # path is NOT, which is why this is a table and not a vector op)
    pairs = (
        lm.merge(c1, on="w1")[["c2", "c1"]].drop_duplicates().reset_index(drop=True)
    )
    def _round_half_away(x: float) -> int:
        # DuckDB ROUND is half-AWAY-FROM-ZERO; floor(x+0.5) rounds
        # half-ties toward +inf, which differs on the NEGATIVE domain —
        # and every log-prob here is negative (review-found r5; the
        # tfidf floor(x+0.5) precedent only ever rounds idf >= 0)
        return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))

    pairs["lp"] = [
        _round_half_away(1e6 * math.log((a + 1) / (b + vocab)))
        for a, b in zip(pairs["c2"].astype(int), pairs["c1"].astype(int))
    ]
    pairs = pairs.astype({"c2": "int64", "c1": "int64", "lp": "int64"})
    ref = ray.put((lm, c1, pairs))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        lm_t, c1_t, lp_t = ray.get(ref)
        ids: list[int] = []
        b1: list[str] = []
        b2: list[str] = []
        for did, t in zip(df["doc_id"].to_numpy(), df["text"].to_numpy()):
            ws = _WORD.findall(t.lower())
            ids.extend([int(did)] * max(0, len(ws) - 1))
            b1.extend(ws[:-1])
            b2.extend(ws[1:])
        if not ids:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_bigrams": pd.Series([], dtype="int64"),
                    "logprob_e6": pd.Series([], dtype="int64"),
                }
            )
        x = pd.DataFrame({"doc_id": ids, "w1": b1, "w2": b2})
        # three C merges: bigram->c2, prefix->c1, (c2,c1)->lp; inner joins
        # are total (the model was trained on this corpus)
        x = (
            x.merge(lm_t, on=["w1", "w2"])
            .merge(c1_t, on="w1")
            .merge(lp_t, on=["c2", "c1"])
        )
        g = x.groupby("doc_id", as_index=False).agg(
            n_bigrams=("lp", "size"), logprob_e6=("lp", "sum")
        )
        return g.astype(
            {"doc_id": "int64", "n_bigrams": "int64", "logprob_e6": "int64"}
        )

    return docs.map_batches(score, batch_format="pandas")


def lm_logprob(sf_dir: str):
    """Bigram-LM log-probability scoring over the documents table (see
    ``_lm_logprob_ds`` for the full shape notes)."""
    return _lm_logprob_ds(_docs(sf_dir, ["doc_id", "text"]))


LM_LOGPROB_SQL = """
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS ws FROM documents
),
b AS (
  SELECT doc_id, list_extract(ws, i) AS w1, list_extract(ws, i + 1) AS w2
  FROM (SELECT doc_id, ws, unnest(generate_series(1, length(ws) - 1)) AS i
        FROM w)
),
c2 AS (SELECT w1, w2, COUNT(*) AS c2 FROM b GROUP BY w1, w2),
c1 AS (SELECT w1, COUNT(*) AS c1 FROM b GROUP BY w1),
v AS (
  SELECT COUNT(DISTINCT token) AS v
  FROM (SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS token
        FROM documents)
),
lp AS (
  SELECT b.doc_id,
         CAST(ROUND(1000000 * ln(
           CAST(c2.c2 + 1 AS DOUBLE) / (c1.c1 + v.v))) AS BIGINT) AS lp_e6
  FROM b JOIN c2 USING (w1, w2) JOIN c1 USING (w1) CROSS JOIN v
)
SELECT doc_id, COUNT(*) AS n_bigrams, CAST(SUM(lp_e6) AS BIGINT) AS logprob_e6
FROM lp GROUP BY doc_id ORDER BY doc_id
"""


DECONTAMINATE_SQL = f"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS ws FROM documents
),
g AS (
  SELECT doc_id, array_to_string(ws[i:i+{DECON_K - 1}], ' ') AS g
  FROM (SELECT doc_id, ws,
               unnest(generate_series(1, length(ws) - {DECON_K - 1})) AS i
        FROM w)
),
bench AS (SELECT DISTINCT g FROM g WHERE doc_id % {DECON_BENCH_MOD} = 0)
SELECT d.doc_id, COUNT(*) AS hits, COUNT(DISTINCT d.g) AS distinct_grams
FROM g d JOIN bench b USING (g)
WHERE d.doc_id % {DECON_BENCH_MOD} <> 0
GROUP BY d.doc_id ORDER BY d.doc_id
"""


QUERIES = {
    "token_counts": (token_counts, TOKEN_COUNTS_SQL),
    "bpe_pretokens": (bpe_pretokens, BPE_PRETOKENS_SQL),
    "top_tokens": (top_tokens, TOP_TOKENS_SQL),
    "tfidf_top_terms": (tfidf_top_terms, TFIDF_SQL),
    "repetition_signals": (repetition_signals, REPETITION_SQL),
    "quality_filter": (quality_filter, QUALITY_FILTER_SQL),
    "dataset_split": (dataset_split, DATASET_SPLIT_SQL),
    "quality_scores": (quality_scores, QUALITY_SCORES_SQL),
    "lang_id": (lang_id, LANG_ID_SQL),
    "fingerprints": (fingerprints, FINGERPRINTS_SQL),
    "winnowing_fingerprints": (winnowing_fingerprints, None),
    "token_heavy_hitters": (token_heavy_hitters, TOKEN_HH_SQL),
    "decontaminate": (decontaminate, DECONTAMINATE_SQL),
    "lm_logprob": (lm_logprob, LM_LOGPROB_SQL),
    "pack_sequences": (pack_sequences, None),
}
