"""Driver-gate rehearsal: run every queries() entry at sf0.001 and compare
SQL-oracled ones against DuckDB (row count + schema + order-insensitive
values), mirroring what the graft driver does at sf0.01."""

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF_DIR = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return c


def _to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


SQL_QUERIES = sorted(entrymod.oracle_sql())


@pytest.mark.parametrize("name", SQL_QUERIES)
def test_query_matches_oracle(ray_session, con, name):
    ray_result = _normalize(_to_pandas(entrymod.queries()[name](SF_DIR)))
    sql_result = _normalize(con.sql(entrymod.oracle_sql()[name]).df())
    assert list(ray_result.columns) == list(sql_result.columns), (
        f"{name}: column mismatch {list(ray_result.columns)} vs {list(sql_result.columns)}"
    )
    assert len(ray_result) == len(sql_result), f"{name}: row count"
    for col in ray_result.columns:
        a, b = ray_result[col], sql_result[col]
        if a.dtype.kind in "iu" or b.dtype.kind in "iu":
            assert a.astype("int64").equals(b.astype("int64")), f"{name}.{col}"
        elif a.dtype.kind == "f":
            assert (a - b).abs().max() < 1e-9, f"{name}.{col}"
        else:
            assert a.astype(str).equals(b.astype(str)), f"{name}.{col}"


# simhash graduated to a full SQL oracle in r2
ROWS_ONLY = [
    n for n in ("minhash_lsh_candidates", "minhash_verified_pairs",
                "dedup_keep_list_full", "embedding_dup_pairs_full",
                "events_unique_users_hll", "ann_lsh", "ann_ivf",
                "winnowing_fingerprints", "image_stats", "image_thumbnails",
                "phash_near_dups", "image_keep_list", "pack_sequences")
]


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_run(ray_session, name):
    df = _to_pandas(entrymod.queries()[name](SF_DIR))
    assert len(df) >= 0
    assert len(df.columns) >= 1  # keep-lists are single-column
    # determinism: second run identical
    df2 = _to_pandas(entrymod.queries()[name](SF_DIR))
    assert _normalize(df).equals(_normalize(df2)), f"{name} not deterministic"


def test_ops_bucket_count_invariance(ray_session, con, monkeypatch):
    """VERDICT r3 #8: the ops-layer bucket counts are now derived from
    cluster size (scaled_n_buckets) with one env knob; bucket count is
    task granularity, never semantics. Pin that: the same oracled queries
    produce identical (oracle-matching) results at two extreme settings."""
    from crawler_ray.ops.common import scaled_n_buckets

    for name in ("user_sessions", "events_hourly", "dedup_exact"):
        outs = []
        for nb in ("5", "64"):
            monkeypatch.setenv("CRAWLER_RAY_N_BUCKETS", nb)
            assert scaled_n_buckets() == int(nb)
            outs.append(_normalize(_to_pandas(entrymod.queries()[name](SF_DIR))))
        monkeypatch.delenv("CRAWLER_RAY_N_BUCKETS")
        assert outs[0].equals(outs[1]), f"{name}: bucket count changed results"
        sql = _normalize(con.sql(entrymod.oracle_sql()[name]).df())
        assert len(outs[0]) == len(sql), name


def test_range_and_sliding_window_have_teeth(ray_session):
    """Non-vacuity guards for the two round-4 window/join operators: an
    events x orders range join would pass its oracle trivially (orders
    are 1992-98, events 2024 — every count 0), which is why the range
    join is an orders SELF-join. Pin that both ops produce non-trivial
    structure so a vacuous rewrite can't sneak past the value oracle."""
    rep = _to_pandas(entrymod.queries()["order_repeats_30d"](SF_DIR))
    assert (rep["n_repeats"] > 0).sum() > 0, "range join is vacuous"
    sw = _to_pandas(entrymod.queries()["events_sliding_window"](SF_DIR))
    hourly = _to_pandas(entrymod.queries()["events_hourly"](SF_DIR))
    # 15-min hop x 1-h window: every event lands in 4 windows, so total
    # n quadruples the tumbling count; window count is ~4x hour count
    assert sw["n"].sum() == 4 * hourly["n"].sum()
    assert len(sw) > len(hourly)


def test_hll_distinct_error_bound(ray_session, con):
    """The HLL sketch's value oracle: per event_type, the distributed
    estimate must be within 5% of the exact COUNT(DISTINCT user_id)
    (2^12 registers -> 1.6% standard error; 5% is >3 sigma) — and the
    register-merge must be exact, i.e. the distributed estimate equals a
    single-pass local HLL of the same rows (max-merge is associative, so
    any partitioning gives bit-identical registers)."""
    got = _to_pandas(entrymod.queries()["events_unique_users_hll"](SF_DIR))
    want = con.sql(
        "SELECT event_type, COUNT(DISTINCT user_id) AS n FROM events "
        "GROUP BY event_type ORDER BY event_type"
    ).df()
    assert list(got["event_type"]) == list(want["event_type"])
    for et, est, exact in zip(
        got["event_type"], got["approx_users"], want["n"]
    ):
        assert abs(est - exact) / exact < 0.05, (et, est, exact)

    import pandas as pd

    from crawler_ray.ops.relational import events_unique_users_hll

    # partition-invariance: a second run re-partitions differently but
    # must produce the identical estimates (exact max-merge of registers)
    got2 = _to_pandas(events_unique_users_hll(SF_DIR))
    assert got.equals(got2)


def test_ivf_cell_scaling_rule():
    """VERDICT r3 #8 (second half): the IVF cell count derives from the
    table (FAISS 4*sqrt(N) bounded by >=32 rows/cell), keeps the toy
    floor at test tiers, and honors the env override; probe width tracks
    the cell count so the probed fraction stays roughly constant."""
    import os

    from crawler_ray.ops.similarity import IVF_NPROBE, ivf_cells, ivf_nprobe

    assert ivf_cells(500) == 16  # test tiers unchanged (cached keys stable)
    assert ivf_cells(50_000) == min(int(4 * 50_000**0.5), 50_000 // 32)
    assert ivf_cells(1_000_000_000) == int(4 * 1_000_000_000**0.5)
    assert ivf_nprobe(16) == IVF_NPROBE
    assert ivf_nprobe(4096) == 256
    os.environ["CRAWLER_RAY_IVF_CLUSTERS"] = "99"
    try:
        assert ivf_cells(500) == 99
    finally:
        del os.environ["CRAWLER_RAY_IVF_CLUSTERS"]


def test_ann_queries_on_zero_row_embeddings(ray_session, tmp_path):
    """On a 0-row embeddings.parquet (LIMIT 0 of sf0.001) the query matrix
    is typed and empty, and ann_topk / ann_lsh / ann_ivf return no rows
    with the columns and dtypes of the non-empty path."""
    import pyarrow.parquet as pq

    from crawler_ray.ops.similarity import _query_matrix, ann_ivf, ann_lsh, ann_topk

    duckdb.sql(
        f"COPY (SELECT * FROM read_parquet('{SF_DIR}/embeddings.parquet') LIMIT 0) "
        f"TO '{tmp_path}/embeddings.parquet' (FORMAT parquet)"
    )
    assert pq.read_metadata(tmp_path / "embeddings.parquet").num_rows == 0
    qm, qids = _query_matrix(str(tmp_path))
    assert (qm.shape, qm.dtype, qids.shape, qids.dtype) == ((0, 0), np.float64, (0,), np.int64)
    want = ann_topk(SF_DIR).dtypes
    for fn in (ann_topk, ann_lsh, ann_ivf):
        out = fn(str(tmp_path))
        assert len(out) == 0, fn.__name__
        assert out.dtypes.equals(want), fn.__name__


def test_ann_lsh_recall_vs_exact(ray_session):
    from crawler_ray.ops.similarity import RECALL_FLOOR

    exact = _to_pandas(entrymod.queries()["ann_topk"](SF_DIR))
    approx = _to_pandas(entrymod.queries()["ann_lsh"](SF_DIR))
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    recall = len(e & a) / len(e)
    assert recall >= RECALL_FLOOR, f"LSH recall below floor: {recall}"


def test_ann_lsh_reads_only_probed_partitions(ray_session):
    """The index must behave like an index: the probed partitions cover a
    strict fraction of the stored vectors (r1 streamed every row)."""
    import os

    import pyarrow.parquet as pq

    from crawler_ray.ops import similarity as sim

    qm, qids = sim._query_matrix(SF_DIR)
    stage = sim.LshIndexStage(dim=qm.shape[1])
    idx_dir, total = sim._ensure_lsh_index(SF_DIR)
    probed = set()
    for t in range(sim.N_TABLES):
        qb = stage.bucket_of(qm, t)
        for qi in range(len(qids)):
            for b in sim._probe_buckets(int(qb[qi])):
                probed.add((t, b))
    rows = 0
    for t, b in probed:
        d = os.path.join(idx_dir, f"t={t}", f"b={b}")
        if os.path.isdir(d):
            rows += sum(
                pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
                for f in os.listdir(d)
                if f.endswith(".parquet")
            )
    frac = rows / (total * sim.N_TABLES)
    assert frac < 0.6, f"probed fraction {frac:.2f} - not an index"


def test_ann_ivf_recall_vs_exact(ray_session):
    from crawler_ray.ops.similarity import IVF_RECALL_FLOOR

    exact = _to_pandas(entrymod.queries()["ann_topk"](SF_DIR))
    approx = _to_pandas(entrymod.queries()["ann_ivf"](SF_DIR))
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    recall = len(e & a) / len(e)
    assert recall >= IVF_RECALL_FLOOR, f"IVF recall below floor: {recall}"


def test_ann_ivf_reads_only_probed_cells(ray_session):
    """The IVF index must behave like an index: each query's IVF_NPROBE
    cells cover a strict fraction of the stored vectors (the union across
    all queries can legitimately approach 1.0 — the scale property is
    per-query rows touched, which is what a single lookup pays)."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ray.ops import similarity as sim

    qm, qids = sim._query_matrix(SF_DIR)
    idx_dir, total, cent = sim._ensure_ivf_index(SF_DIR)
    cell_rows = {}
    for c in range(sim.IVF_CLUSTERS):
        d = os.path.join(idx_dir, f"c={c}")
        cell_rows[c] = (
            sum(
                pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
                for f in os.listdir(d)
                if f.endswith(".parquet")
            )
            if os.path.isdir(d)
            else 0
        )
    assert sum(cell_rows.values()) == total
    qcells = np.argsort(-(qm @ cent.T), axis=1)[:, : sim.IVF_NPROBE]
    fracs = [
        sum(cell_rows[int(c)] for c in row) / max(1, total) for row in qcells
    ]
    mean_frac = float(np.mean(fracs))
    assert mean_frac < 0.6, f"mean per-query probed fraction {mean_frac:.2f} - not an index"


def test_minhash_lsh_recall_vs_exact_jaccard(ray_session):
    """Recall oracle for the LSH candidates (VERDICT r2 #3): over the
    exact n-gram-Jaccard ground-truth slice (doc_id < 200, J3 >= 0.3),
    observed recall must clear the floor the banding theory predicts.
    The expected catch probability of a pair with 5-byte-shingle Jaccard
    J5 under b=16 bands of r=4 rows is 1-(1-J5^4)^16; the floor is the
    mean expectation over the ground-truth pairs minus a 0.15 margin
    (hashing is deterministic, so 'observed' is a fixed quantity — the
    test pins it against the derived bound, not luck)."""
    import numpy as np

    from crawler_ray.ops.dedup import JACCARD_SLICE, N_BANDS, N_HASHES

    gt = _to_pandas(entrymod.queries()["ngram_jaccard_pairs"](SF_DIR))
    cand = _to_pandas(entrymod.queries()["minhash_lsh_candidates"](SF_DIR))
    got = set(zip(cand["a"].astype(int), cand["b"].astype(int)))

    import pyarrow.parquet as pq

    docs = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    docs = docs[docs["doc_id"] < JACCARD_SLICE].set_index("doc_id")["text"]

    def sh5(t: str) -> set:
        b = t.encode()
        return {b[i : i + 5] for i in range(max(1, len(b) - 4))}

    shingles = {int(i): sh5(t) for i, t in docs.items()}
    r = N_HASHES // N_BANDS
    exps, hits = [], 0
    for a, b in zip(gt["a"].astype(int), gt["b"].astype(int)):
        sa, sb = shingles[a], shingles[b]
        j5 = len(sa & sb) / len(sa | sb)
        exps.append(1.0 - (1.0 - j5**r) ** N_BANDS)
        hits += (a, b) in got
    assert exps, "ground-truth slice is empty - test web too small"
    recall = hits / len(exps)
    floor = float(np.mean(exps)) - 0.15
    assert recall >= floor, f"LSH recall {recall:.3f} below derived floor {floor:.3f}"


def test_hamming_bucket_collapse_matches_bruteforce():
    """ADVICE r3: the banded-Hamming enumerator collapses identical hashes
    before the O(k^2) pass. Adversarial input: one 500-member exact-dup
    clique (the case that OOMed triu before), plus near and far
    neighbors. Output must equal brute force exactly, with each pair
    emitted once across all bands (no Ray needed — pure bucket function)."""
    import numpy as np
    import pandas as pd

    from crawler_ray.ops.dedup import (
        _popcount64,
        expand_hash_bands,
        make_hamming_bucket_fn,
    )

    rng = np.random.default_rng(7)
    base = np.uint64(0x1234_5678_9ABC_DEF0)
    hashes = [base] * 500  # the planted clique
    for i in range(40):  # near neighbors: flip 1-3 bits
        h = int(base)
        for b in rng.choice(64, size=int(rng.integers(1, 4)), replace=False):
            h ^= 1 << int(b)
        hashes.append(np.uint64(h))
    hashes += list(rng.integers(0, 2**63, size=200, dtype=np.int64).astype(np.uint64))
    hashes = np.array(hashes, dtype=np.uint64)
    ids = rng.permutation(len(hashes)).astype(np.int64)  # non-sorted ids

    T, NB, BITS = 3, 4, 16
    expanded = expand_hash_bands(ids, hashes.view(np.int64), NB, BITS)
    # single bucket = all rows: exactly-once must hold across bands
    got = make_hamming_bucket_fn(NB, BITS, T)(expanded)
    got_pairs = list(zip(got["a"], got["b"], got["hamming"]))
    assert len(got_pairs) == len(set(got_pairs)), "duplicate emission"

    want = set()
    for i in range(len(ids)):
        x = hashes[i] ^ hashes[i + 1 :]
        hd = _popcount64(x)
        for j in np.flatnonzero(hd <= T):
            a, b = int(ids[i]), int(ids[i + 1 + j])
            want.add((min(a, b), max(a, b), int(hd[j])))
    assert set(got_pairs) == want
    assert len(want) >= 500 * 499 // 2  # the clique is actually in play


def test_hash_min_components_converges_or_raises(ray_session):
    """ADVICE r3: the BSP loop must iterate to convergence (a 12-node path
    has diameter 11 > the old cap of 8) and RAISE, not silently return
    partial labels, when the hard cap is hit."""
    import pandas as pd
    import ray.data as rd

    from crawler_ray.ops.dedup import hash_min_components

    n = 12
    e = pd.DataFrame(
        {
            "node": list(range(n - 1)) + list(range(1, n)),
            "peer": list(range(1, n)) + list(range(n - 1)),
        }
    ).astype("int64")
    seeds = pd.DataFrame({"node": range(n), "lbl": range(n)}).astype("int64")
    out = (
        hash_min_components(rd.from_pandas(e), rd.from_pandas(seeds))
        .to_pandas()
        .sort_values("node")
    )
    assert list(out["lbl"]) == [0] * n  # one component, min label everywhere

    with pytest.raises(RuntimeError, match="did not converge"):
        hash_min_components(
            rd.from_pandas(e), rd.from_pandas(seeds), max_iters=4
        )


def test_minhash_capped_bucket_emission_exact(ray_session):
    """Value oracle for the degenerate-bucket cap (ADVICE r3, medium):
    with max_bucket lowered so real buckets become degenerate, the
    candidate set must equal the brute-force expectation — every pair
    sharing >= 1 NON-degenerate band, emitted exactly once. The round-3
    rule lost any pair whose FIRST matching band was degenerate even when
    a later healthy band held it; the setup plants such 'rescued' pairs
    (asserted > 0 so the test has teeth)."""
    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ray.ops.dedup import _BH_COLS, MinHasher, N_BANDS, minhash_lsh_candidates

    MAXB = 3
    docs = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    one = MinHasher()(docs)
    one = one[one["band"] == 0].reset_index(drop=True)  # one row/doc, all bh cols
    bh = one[_BH_COLS].to_numpy()
    ids = one["doc_id"].to_numpy()
    sizes: dict[tuple[int, int], int] = {}
    for b in range(N_BANDS):
        for h in bh[:, b]:
            sizes[(b, int(h))] = sizes.get((b, int(h)), 0) + 1
    iu, ju = np.triu_indices(len(ids), 1)
    match = bh[iu] == bh[ju]
    expected = set()
    rescued = 0
    for p in np.flatnonzero(match.any(axis=1)):
        bands = np.flatnonzero(match[p])
        elig = [b for b in bands if sizes[(int(b), int(bh[iu[p], b]))] <= MAXB]
        if elig:
            a, b_ = int(ids[iu[p]]), int(ids[ju[p]])
            expected.add((min(a, b_), max(a, b_)))
            rescued += elig[0] != bands[0]
    assert rescued > 0, "setup has no rescued pairs - lower MAXB"

    got = _to_pandas(minhash_lsh_candidates(SF_DIR, max_bucket=MAXB))
    got_pairs = list(zip(got["a"].astype(int), got["b"].astype(int)))
    assert len(got_pairs) == len(set(got_pairs)), "pair emitted more than once"
    assert set(got_pairs) == expected


def _keep_list_from_edges_cte(con, edges: pd.DataFrame) -> list[int]:
    """DuckDB recursive-CTE keep list from a given verified edge set:
    exact content-hash keepers minus non-minimum connected-component
    members. The independent oracle for dedup_keep_list_full."""
    con.register("edges_df", edges)
    con.execute("CREATE OR REPLACE TEMP TABLE vedges AS SELECT * FROM edges_df")
    return [
        r[0]
        for r in con.execute(
            """
            WITH RECURSIVE sym AS (
              SELECT a AS node, b AS peer FROM vedges
              UNION ALL
              SELECT b AS node, a AS peer FROM vedges
            ), nodes AS (
              SELECT DISTINCT node FROM sym
            ), reach(src, dst) AS (
              SELECT node, node FROM nodes
              UNION
              SELECT r.src, e.peer FROM reach r JOIN sym e ON e.node = r.dst
            ), clusters AS (
              SELECT src AS doc_id, MIN(dst) AS cluster_id FROM reach GROUP BY src
            ), exact_keep AS (
              SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY md5(text)
            )
            SELECT k.doc_id FROM exact_keep k
            LEFT JOIN clusters c ON c.doc_id = k.doc_id
            WHERE c.doc_id IS NULL OR c.cluster_id = c.doc_id
            ORDER BY k.doc_id
            """
        ).fetchall()
    ]


def test_dedup_keep_list_full_vs_duckdb_cte(ray_session, con):
    """VERDICT r3 #1: the production composition (full-table LSH ->
    exact-Jaccard verification -> components -> keep list) must match a
    DuckDB recursive-CTE oracle computed from the Ray-VERIFIED edge set
    (LSH bounds recall, so the oracle consumes the same edges — the CTE
    independently recomputes components + exact keepers + composition)."""
    edges_df = _to_pandas(entrymod.queries()["minhash_verified_pairs"](SF_DIR))
    assert len(edges_df) > 0, "no verified edges at sf0.001 - web too small"
    # every verified edge clears the threshold by construction
    assert (edges_df["jac_e6"] >= 300_000).all()

    want = _keep_list_from_edges_cte(con, edges_df[["a", "b"]])
    got = sorted(
        _to_pandas(entrymod.queries()["dedup_keep_list_full"](SF_DIR))[
            "doc_id"
        ].tolist()
    )
    assert got == want
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert len(got) < n_docs  # near-dups were actually dropped


def test_verified_pairs_agree_with_exact_slice(ray_session):
    """Slice agreement (VERDICT r3 #1): verification is EXACT on whatever
    candidates LSH yields — restricted to the doc_id < JACCARD_SLICE
    slice, the verified edge set (pairs AND jac_e6 values) must equal
    (exact all-pairs slice edges) ∩ (LSH candidate pairs)."""
    from crawler_ray.ops.dedup import JACCARD_SLICE

    gt = _to_pandas(entrymod.queries()["ngram_jaccard_pairs"](SF_DIR))
    cand = _to_pandas(entrymod.queries()["minhash_lsh_candidates"](SF_DIR))
    ver = _to_pandas(entrymod.queries()["minhash_verified_pairs"](SF_DIR))

    cand_slice = {
        (a, b)
        for a, b in zip(cand["a"].astype(int), cand["b"].astype(int))
        if a < JACCARD_SLICE and b < JACCARD_SLICE
    }
    gt_vals = {
        (int(a), int(b)): int(j)
        for a, b, j in zip(gt["a"], gt["b"], gt["jac_e6"])
    }
    want = {(p, gt_vals[p]) for p in cand_slice if p in gt_vals}
    got = {
        ((int(a), int(b)), int(j))
        for a, b, j in zip(ver["a"], ver["b"], ver["jac_e6"])
        if int(a) < JACCARD_SLICE and int(b) < JACCARD_SLICE
    }
    assert got == want
    assert len(want) > 0, "no verified slice edges - test has no teeth"


def test_dedup_keep_list_full_anti_join_on_high_dup_corpus(ray_session, tmp_path):
    """VERDICT r3 #2: a planted ~50%-dup corpus routed through the
    bucketed anti-join path (broadcast_cap=0) must produce the identical
    keep list to the broadcast path AND match the DuckDB CTE oracle."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawler_ray.ops.dedup import dedup_keep_list_full, minhash_verified_pairs

    rng = np.random.default_rng(11)
    words = [f"tok{i:03d}" for i in range(400)]
    texts, ids = [], []
    base_texts = [
        " ".join(rng.choice(words, size=60)) for _ in range(100)
    ]
    did = 0
    for t in base_texts:
        texts.append(t)
        ids.append(did)
        did += 1
        # ~50% of the corpus is a near-copy (one word changed) or exact copy
        r = rng.random()
        if r < 0.5:
            toks = t.split()
            toks[int(rng.integers(len(toks)))] = "MUTATED"
            texts.append(" ".join(toks) if r < 0.25 else t)
            ids.append(did)
            did += 1
    d = tmp_path / "highdup"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts}),
        d / "documents.parquet",
    )
    broadcast = sorted(
        _to_pandas(dedup_keep_list_full(str(d)))["doc_id"].tolist()
    )
    anti_join = sorted(
        _to_pandas(dedup_keep_list_full(str(d), broadcast_cap=0))["doc_id"].tolist()
    )
    assert anti_join == broadcast
    assert len(broadcast) < len(ids)  # the dups were dropped

    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    edges_df = _to_pandas(minhash_verified_pairs(str(d)))[["a", "b"]]
    assert _keep_list_from_edges_cte(c, edges_df) == broadcast


def test_embedding_dup_full_precision_and_recall(ray_session):
    """Ground truth for the full-table embedding near-dup path: exact
    numpy all-pairs cosine over the whole embeddings table. Precision
    must be exactly 1 (in-cell verification is exact — every emitted pair
    and its cos_e6 value recompute identically), recall >= 0.85 at the
    base threshold (multi-assignment P=4 measured 0.94; pairs missed are
    those sharing no top-P cell), and the slice restricted to the
    vec_id<300 SQL-oracle domain must be a subset of the oracle's pairs."""
    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ray.ops.dedup import EMB_DUP_T_E6

    got = _to_pandas(entrymod.queries()["embedding_dup_pairs_full"](SF_DIR))
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    ids = np.array(t["vec_id"].to_pylist())
    m = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    s = m @ m.T
    iu, ju = np.triu_indices(len(ids), 1)
    keep = s[iu, ju] >= EMB_DUP_T_E6 / 1e6
    a_, b_ = ids[iu[keep]], ids[ju[keep]]
    exact = {
        (int(x), int(y)): int(np.floor(1e6 * c))
        for x, y, c in zip(
            np.minimum(a_, b_), np.maximum(a_, b_), s[iu[keep], ju[keep]]
        )
    }
    gotp = {
        (int(a), int(b)): int(c)
        for a, b, c in zip(got["a"], got["b"], got["cos_e6"])
    }
    # precision 1: every emitted pair is a true pair with the exact value
    assert set(gotp) <= set(exact)
    for p, v in gotp.items():
        assert v == exact[p], p
    recall = len(gotp) / len(exact)
    assert recall >= 0.85, f"recall {recall:.3f} below floor"
    # slice agreement with the SQL-oracled bounded baseline's domain
    oracle_pairs = set(
        map(
            tuple,
            _to_pandas(entrymod.queries()["embedding_dup_pairs"](SF_DIR))[
                ["a", "b"]
            ].to_numpy(),
        )
    )
    slice_got = {p for p in gotp if p[0] < 300 and p[1] < 300}
    assert slice_got <= oracle_pairs


def test_image_thumbnails_match_spec_ground_truth(ray_session):
    """Value oracle for image_thumbnails (VERDICT r2 #4): recompute the
    8x8 block-mean thumbnail from the spec's ground-truth pixels (via the
    same encode/decode round trip the stage sees) for a sample of images
    and assert byte equality."""
    import numpy as np

    from crawler_ray.codecs import decode_image, encode_image
    from crawler_ray.ops.multimodal import corpus_for_sf, image_thumbnails
    from crawler_ray.webgen import WebSpec
    import pyarrow.parquet as pq

    got = _to_pandas(image_thumbnails(SF_DIR)).set_index("image_id")["thumb"]
    corpus = corpus_for_sf(SF_DIR)
    n = pq.ParquetFile(corpus).metadata.num_rows
    spec = WebSpec(n, max(8, n // 25), seed=42)

    def block_mean_thumb(px: np.ndarray) -> bytes:
        h, w, _ = px.shape
        ys = (np.arange(9) * h) // 8
        xs = (np.arange(9) * w) // 8
        t = np.zeros((8, 8, 3), dtype=np.uint8)
        for i in range(8):
            for j in range(8):
                t[i, j] = px[
                    ys[i] : max(ys[i + 1], ys[i] + 1),
                    xs[j] : max(xs[j + 1], xs[j] + 1),
                ].mean(axis=(0, 1))
        return t.tobytes()

    for i in range(0, n, max(1, n // 64)):  # ~64-image sample
        px = decode_image(encode_image(spec.pixels_of(i), spec.fmt_of(i)))
        assert bytes(got.loc[spec.image_id(i)]) == block_mean_thumb(px), i


def test_image_stats_matches_spec_ground_truth(ray_session):
    """Value oracle for image_stats: recompute per-format counts/means
    from the deterministic WebSpec directly (the corpus is not a DuckDB
    view, so the driver only rows-checks this one)."""
    import numpy as np

    from crawler_ray.ops.multimodal import corpus_for_sf, image_stats
    from crawler_ray.webgen import WebSpec
    import json
    import pyarrow.parquet as pq
    import os

    got = _to_pandas(image_stats(SF_DIR)).set_index("fmt").sort_index()
    corpus = corpus_for_sf(SF_DIR)
    pf = pq.ParquetFile(corpus)
    n = pf.metadata.num_rows
    # corpus_for_sf derives (n_pages, n_hosts) the same way every time
    spec = WebSpec(n, max(8, n // 25), seed=42)
    from crawler_ray.codecs import decode_image, encode_image, perceptual_hash

    want: dict[str, list] = {}
    for i in range(n):
        px = spec.pixels_of(i)
        fmt = spec.fmt_of(i)
        decoded = decode_image(encode_image(px, fmt))  # what the stage sees
        b = int(decoded.astype(np.float64).mean() * 100) // 1
        w = want.setdefault(fmt, [0, 0, 0])
        w[0] += 1
        w[1] += b
        w[2] += int(perceptual_hash(decoded) == perceptual_hash(px))
    for fmt, (cnt, bsum, okn) in want.items():
        assert int(got.loc[fmt, "n"]) == cnt, fmt
        assert int(got.loc[fmt, "brightness_sum_e2"]) == bsum, fmt
        assert int(got.loc[fmt, "n_phash_ok"]) == okn, fmt


def test_crawl_queries_match_oracle(ray_session):
    """The crawl_* queries() entries vs the single-threaded oracle at the
    same (spec, seeds, policy) — a direct value oracle for the driver's
    rows-only rows."""
    import __ray_entry__ as em
    from crawler_ray.fetchsim import FetchPolicy
    from crawler_ray.oracle import run_oracle
    from crawler_ray.state.seen import STATUS_CODES
    from crawler_ray.urlkit import IncludePatterns
    from crawler_ray.webgen import WebSpec

    n_pages, n_hosts = em._crawl_params(SF_DIR)
    spec = WebSpec(n_pages, n_hosts, seed=42)
    policy = FetchPolicy(include=IncludePatterns(domain_patterns=frozenset([".test"])))
    golden = run_oracle(spec, policy, [spec.url_of(i) for i in range(8)])

    docs = em._crawl_docs(SF_DIR)
    assert set(docs["url"]) == {d["url"] for d in golden.crawled}

    order = em._crawl_order(SF_DIR)
    got = list(zip(order["round"].to_pylist(), order["host"].to_pylist(),
                   order["seq"].to_pylist(), order["url"].to_pylist()))
    assert got == sorted(golden.order)

    seen = em._crawl_seen(SF_DIR)
    got_seen = dict(zip(seen["url"].to_pylist(), seen["status"].to_pylist()))
    want_seen = {u: STATUS_CODES[st] for u, st in golden.seen.items()}
    assert got_seen == want_seen


def test_median_histogram_selection_adversarial(ray_session, tmp_path):
    """Exercise every path of the iterative histogram selection: width-1
    direct answers (all-equal and two-value groups), the collect path,
    and multi-level recursion (a group whose values concentrate in one
    bucket at the first level)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawler_ray.ops.relational import median_price_by_priority

    rng = np.random.default_rng(5)
    groups, prices = [], []
    # all-equal: every refinement level has one occupied bucket -> width-1
    groups += ["EQ"] * 101
    prices += [42.0] * 101
    # two distinct values, even count: quantile_disc(0.5) = lower value
    groups += ["TWO"] * 100
    prices += [1.0] * 50 + [9.0] * 50
    # heavy concentration: 99% of mass in a 1-cent range inside a huge span
    groups += ["SKEW"] * 1000
    prices += list(np.where(rng.random(1000) < 0.99, 500.0, 5_000_000.0))
    # generic continuous
    groups += ["GEN"] * 999
    prices += list(rng.uniform(10, 99_999, size=999).round(2))
    # dense integers spanning > N_BUCKETS cents (ADVICE r3 high): every
    # integer cent 0..10000 occupied, so a floored (non-ceil) bucket lower
    # bound readmits exactly one already-counted value and shifts the
    # selected rank (returned 4999 instead of 5000 before the fix)
    groups += ["DENSE"] * 10001
    prices += [i / 100.0 for i in range(10001)]
    d = tmp_path / "medtest"
    d.mkdir()
    pq.write_table(
        pa.table(
            {"o_orderpriority": groups, "o_totalprice": prices}
        ),
        d / "orders.parquet",
    )
    got = (
        median_price_by_priority(str(d))
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW orders AS SELECT * FROM read_parquet('{d}/orders.parquet')"
    )
    want = (
        con.execute(entrymod.oracle_sql()["median_price_by_priority"])
        .fetchdf()
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )
    assert list(got["o_orderpriority"]) == list(want["o_orderpriority"])
    assert list(got["median_cents"]) == list(want["median_cents"])

    # the generalized multi-quantile selector must survive the same
    # adversarial distributions at every quantile
    from crawler_ray.ops.relational import price_quantiles_by_priority

    gq = (
        price_quantiles_by_priority(str(d))
        .sort_values(["o_orderpriority", "q_pct"])
        .reset_index(drop=True)
    )
    wq = (
        con.execute(entrymod.oracle_sql()["price_quantiles_by_priority"])
        .fetchdf()
        .sort_values(["o_orderpriority", "q_pct"])
        .reset_index(drop=True)
    )
    assert list(gq["value_cents"]) == list(wq["value_cents"])
    assert list(gq["q_pct"]) == list(wq["q_pct"])


def test_winnowing_fingerprints_vs_scalar_reference(ray_session):
    """Value oracle for the rows-only winnowing op: an independent scalar
    implementation of Schleimer/Wilkerson/Aiken winnowing (per-character
    Python loop, no numpy) must produce the identical (doc_id, fp) set;
    plus the winnowing guarantee: two docs sharing a substring of length
    >= k+w-1 share at least one fingerprint."""
    import numpy as np

    from crawler_ray.ops.text import WINNOW_K, WINNOW_W, winnowing_fingerprints

    def scalar_fps(text: str) -> set[int]:
        data = text.lower().encode()
        n = len(data)
        if n < WINNOW_K:
            return set()
        hs = []
        for i in range(n - WINNOW_K + 1):
            h = 0
            for b in data[i : i + WINNOW_K]:
                h = (h * 257 + b) % (1 << 64)
            hs.append(h)
        if len(hs) < WINNOW_W:
            best = min(range(len(hs)), key=lambda i: (hs[i], -i))
            # rightmost minimal
            best = max(i for i in range(len(hs)) if hs[i] == hs[best])
            return {hs[best]}
        out = set()
        for s in range(len(hs) - WINNOW_W + 1):
            w = hs[s : s + WINNOW_W]
            m = min(w)
            out.add(w[len(w) - 1 - w[::-1].index(m)])
        return out

    got = _to_pandas(winnowing_fingerprints(SF_DIR))
    got_sets: dict[int, set[int]] = {}
    for did, g in got.groupby("doc_id"):
        got_sets[int(did)] = set(g["fp"].to_numpy().astype(np.int64).view(np.uint64))
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    checked = 0
    for did, text in zip(docs["doc_id"].to_pylist()[:80], docs["text"].to_pylist()[:80]):
        want = scalar_fps(text)
        assert got_sets.get(did, set()) == want, did
        checked += 1
    assert checked == 80

    # guarantee property on synthetic docs sharing a k+w-1 substring
    shared = "zqxjvkwpbf" * 3  # 30 chars >= k+w-1 = 11
    a = scalar_fps("prefix one " + shared + " tail alpha")
    b = scalar_fps("completely different head " + shared)
    assert a & b


def test_phash_near_dups_exact_vs_bruteforce(ray_session):
    """The banded phash search is EXACT (pigeonhole recall 1): its pair
    set must equal a brute-force all-pairs Hamming scan, and every
    planted image duplicate (webgen dup_of ground truth) within the
    threshold must be found."""
    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ray.ops.dedup import _popcount64
    from crawler_ray.ops.multimodal import (
        PHASH_HAMMING_T,
        corpus_for_sf,
        phash_near_dups,
    )
    from crawler_ray.webgen import WebSpec

    got = phash_near_dups(SF_DIR)
    got_pairs = set(zip(got["a"], got["b"]))

    t = pq.read_table(corpus_for_sf(SF_DIR), columns=["image_id", "phash"])
    pid = np.array([int(s[3:]) for s in t["image_id"].to_pylist()])
    ph = t["phash"].to_numpy().astype(np.uint64)
    order = np.argsort(pid)
    pid, ph = pid[order], ph[order]
    want = set()
    for i in range(len(pid)):
        x = ph[i] ^ ph[i + 1 :]
        hd = _popcount64(x)
        for j in np.flatnonzero(hd <= PHASH_HAMMING_T):
            want.add((int(pid[i]), int(pid[i + 1 + j])))
    assert got_pairs == want
    assert len(want) > 50  # the planted structure is actually present

    # planted ground truth: every dup_of pair within threshold is found
    spec = WebSpec(n_pages=len(pid), n_hosts=max(8, len(pid) // 25), seed=42)
    planted_found = planted_close = 0
    ph_by_id = dict(zip(pid.tolist(), ph.tolist()))
    for i in pid.tolist():
        b = spec.dup_of(i)
        if b is None:
            continue
        d = bin(ph_by_id[i] ^ ph_by_id[b]).count("1")
        if d <= PHASH_HAMMING_T:
            planted_close += 1
            if (min(i, b), max(i, b)) in got_pairs:
                planted_found += 1
    assert planted_close > 50 and planted_found == planted_close


def test_image_keep_list_vs_union_find(ray_session):
    """Ground truth for the image dedup deliverable: union-find over the
    brute-force phash pair set; keep = every page except non-minimum
    cluster members."""
    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ray.ops.dedup import _popcount64
    from crawler_ray.ops.multimodal import (
        PHASH_HAMMING_T,
        corpus_for_sf,
        image_keep_list,
    )

    t = pq.read_table(corpus_for_sf(SF_DIR), columns=["image_id", "phash"])
    pid = np.array(sorted(int(s[3:]) for s in t["image_id"].to_pylist()))
    ph = t["phash"].to_numpy().astype(np.uint64)[
        np.argsort([int(s[3:]) for s in t["image_id"].to_pylist()])
    ]
    parent = {int(p): int(p) for p in pid}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(pid)):
        x = ph[i] ^ ph[i + 1 :]
        for j in np.flatnonzero(_popcount64(x) <= PHASH_HAMMING_T):
            a, b = find(int(pid[i])), find(int(pid[i + 1 + j]))
            if a != b:
                parent[max(a, b)] = min(a, b)
    roots: dict[int, int] = {}
    for p in pid.tolist():
        roots.setdefault(find(p), p)  # pid ascending -> first seen is min
    expected = sorted(p for p in pid.tolist() if find(p) == p or roots[find(p)] == p)

    got = sorted(_to_pandas(image_keep_list(SF_DIR))["page_id"].tolist())
    assert got == expected
    assert len(got) < len(pid)  # something was actually dropped
    # anti-join path (broadcast_cap=0 forces it): identical output
    got_aj = sorted(
        _to_pandas(image_keep_list(SF_DIR, broadcast_cap=0))["page_id"].tolist()
    )
    assert got_aj == expected


def test_gram_codes_exactly_match_char_grams():
    """The vectorized uint64 gram encoding (r5, VERDICT r4 #4) must be a
    drop-in for the string-set path: identical gram counts and identical
    pairwise intersection counts (the two quantities Jaccard uses)."""
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from crawler_ray.ops.dedup import _char_grams, _gram_codes

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(max_size=64),
        # include lone surrogates (surrogateescape-decoded inputs): the
        # encoding uses surrogatepass so these must not crash (r5 review)
        st.text(alphabet="abcde \U0001f600é" + "𐏿", max_size=64),
    )
    def check(t1, t2):
        g1, g2 = _char_grams(t1), _char_grams(t2)
        c1, c2 = _gram_codes(t1), _gram_codes(t2)
        assert c1.size == len(g1) and c2.size == len(g2)
        assert np.intersect1d(c1, c2, assume_unique=True).size == len(g1 & g2)

    check()
    # lone surrogate (surrogateescape-decoded input) must not crash and
    # must count identically (r5 review: encoding uses surrogatepass)
    t = "ab\ud800cd\ud800ab"
    assert _gram_codes(t).size == len(_char_grams(t))


def test_hash_min_components_self_seed_matches_explicit(ray_session):
    """labels=None (r5 self-seed from the symmetric edge set) must produce
    the same labels as explicit lbl(node)=node seeds for every node that
    has an edge — on a graph with multiple components, chains, and a
    clique."""
    import numpy as np
    import ray.data as rd

    from crawler_ray.ops.dedup import hash_min_components

    rng = np.random.RandomState(7)
    # three structures: a 40-chain, a 15-clique, 30 random pairs
    chain = [(i, i + 1) for i in range(100, 140)]
    clique = [(200 + i, 200 + j) for i in range(15) for j in range(i + 1, 15)]
    pairs = [(int(a), int(b)) for a, b in rng.randint(300, 400, size=(30, 2)) if a != b]
    raw = chain + clique + pairs
    e = pd.DataFrame(
        {
            "node": [a for a, b in raw] + [b for a, b in raw],
            "peer": [b for a, b in raw] + [a for a, b in raw],
        }
    ).astype("int64")
    nodes = np.unique(e["node"])
    seeds = pd.DataFrame({"node": nodes, "lbl": nodes}).astype("int64")

    explicit = (
        hash_min_components(rd.from_pandas(e), rd.from_pandas(seeds))
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    self_seeded = (
        hash_min_components(rd.from_pandas(e))
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(explicit, self_seeded)


def test_substring_dup_spans_vs_scalar_reference(ray_session):
    """Hand-crafted corpus exercising what the synthetic data doesn't
    (its planted dups are whole-doc, so every oracle span starts at 0):
    cross-doc partial overlap, a within-doc repeat, a too-short doc, and
    span-merge adjacency. Verified against a pure-Python set reference."""
    import numpy as np
    import ray.data as rd

    from crawler_ray.ops.dedup import SPAN_K, _substring_dup_spans_ds

    rng = np.random.RandomState(11)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))

    def uniq(n):  # random text; accidental 40-gram dup odds ~ 26^-40
        return "".join(rng.choice(letters, n))

    shared = uniq(60)
    rep = uniq(45)
    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                uniq(200) + shared + uniq(50),          # shared at [200,260)
                uniq(100) + shared + uniq(80),          # shared at [100,160)
                uniq(50) + rep + uniq(30) + rep + uniq(20),  # within-doc
                uniq(SPAN_K - 1),                       # too short: no rows
            ],
        }
    )

    # scalar reference: count every k-gram, mark >=2 positions, merge
    from collections import Counter

    counts = Counter()
    for t in docs["text"]:
        for i in range(len(t) - SPAN_K + 1):
            counts[t[i : i + SPAN_K]] += 1
    expected = []
    for did, t in zip(docs["doc_id"], docs["text"]):
        dup_pos = [
            i
            for i in range(len(t) - SPAN_K + 1)
            if counts[t[i : i + SPAN_K]] >= 2
        ]
        start = prev = None
        for p in dup_pos:
            if start is None:
                start = prev = p
            elif p - prev <= SPAN_K:
                prev = p
            else:
                expected.append((did, start, prev + SPAN_K))
                start = prev = p
        if start is not None:
            expected.append((did, start, prev + SPAN_K))

    got = (
        _substring_dup_spans_ds(rd.from_pandas(docs))
        .to_pandas()
        .sort_values(["doc_id", "span_start"])
        .reset_index(drop=True)
    )
    exp = (
        pd.DataFrame(expected, columns=["doc_id", "span_start", "span_end"])
        .astype("int64")
        .sort_values(["doc_id", "span_start"])
        .reset_index(drop=True)
    )
    # sanity on the fixture itself: spans where planted, none for doc 3
    assert (0, 200, 260) in expected and (1, 100, 160) in expected
    assert (2, 50, 95) in expected and (2, 125, 170) in expected
    assert not any(d == 3 for d, _, _ in expected)
    pd.testing.assert_frame_equal(got, exp)


def test_pca_eigen_matches_full_numpy(ray_session):
    """pca_eigen (driver eigh over the distributed int64 covariance
    sketch) must match PCA computed directly on the whole embedding
    matrix — same scaled values, population covariance, numpy reference."""
    import numpy as np
    import pyarrow.parquet as pq

    from crawler_ray.ops.similarity import pca_eigen

    w, v = pca_eigen(SF_DIR, k=8)

    t = pq.read_table(f"{SF_DIR}/embeddings.parquet", columns=["embedding"])
    m = np.asarray(t["embedding"].combine_chunks().flatten()).reshape(len(t), -1)
    m = m.astype(np.float64) * 1e6
    m = (np.floor(np.abs(m) + 0.5) * np.sign(m)) / 1e6  # same rounding
    cov = np.cov(m, rowvar=False, bias=True)
    wr, vr = np.linalg.eigh(cov)
    wr, vr = wr[::-1][:8], vr[:, ::-1][:, :8].T
    flip = np.sign(vr[np.arange(len(vr)), np.abs(vr).argmax(axis=1)])
    vr = vr * flip[:, None]

    assert np.allclose(w, wr, rtol=1e-9, atol=1e-15)
    assert np.allclose(np.abs(v), np.abs(vr), atol=1e-7)  # sign-fixed basis
    assert w[0] > 0 and np.all(np.diff(w) <= 1e-12)  # descending, nonneg top


def test_heavy_hitters_mergeable_bound_under_skew(ray_session):
    """The pruning regime of the Misra-Gries sketch (never reached at the
    test tiers, where vocab < MG_K): zipf-skewed corpus, deliberately
    tiny k, multiple blocks so per-batch prunes AND the merge rung fire.
    Asserts the mergeable-summaries contract: est <= true <= est + err,
    total err <= N/(k+1), and every bigram with true count > err
    survives into the merged summary."""
    import collections

    import numpy as np
    import ray.data as rd

    from crawler_ray.ops.text import _token_heavy_hitters_ds

    rng = np.random.RandomState(3)
    # pure-letter vocab: the engine tokenizes with [a-z]+, so digits
    # would collapse every word to 'tok'
    vocab = np.array(
        [
            "tok" + chr(97 + i // 676) + chr(97 + i // 26 % 26) + chr(97 + i % 26)
            for i in range(2000)
        ],
        dtype=object,
    )
    docs = []
    for _ in range(200):
        ranks = rng.zipf(1.5, size=60)
        words = vocab[np.minimum(ranks - 1, len(vocab) - 1)]
        docs.append(" ".join(words))
    df = pd.DataFrame({"text": docs})

    true = collections.Counter()
    n_bigrams = 0
    for t in docs:
        ws = t.split()
        for a, b in zip(ws, ws[1:]):
            true[a + " " + b] += 1
            n_bigrams += 1

    k = 64
    out = _token_heavy_hitters_ds(
        rd.from_pandas(df).repartition(8), k=k, top=10_000
    )
    assert len(out) <= k
    err = int(out["max_undercount"].iloc[0])
    assert 0 < err <= n_bigrams // (k + 1), (err, n_bigrams // (k + 1))
    for tok, est in zip(out["token"], out["est_count"]):
        assert est <= true[tok] <= est + err, (tok, est, true[tok], err)
    survivors = set(out["token"])
    for tok, cnt in true.items():
        if cnt > err:
            assert tok in survivors, (tok, cnt, err)
    # the true top bigram must rank first
    top_true = max(true.items(), key=lambda kv: (kv[1], kv[0]))[0]
    assert out["token"].iloc[0] == top_true


def test_substring_dup_spans_semi_join_path(ray_session):
    """broadcast_cap=0 forces the bucketed co-partitioned semi-join path
    (the high-dup-corpus shape); output must equal the broadcast path."""
    import ray.data as rd

    from crawler_ray.ops.dedup import _substring_dup_spans_ds

    docs = rd.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    a = _normalize(_substring_dup_spans_ds(docs, broadcast_cap=0).to_pandas())
    b = _normalize(
        _substring_dup_spans_ds(docs, broadcast_cap=2_000_000).to_pandas()
    )
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_decontaminate_planted_ground_truth(ray_session):
    """Hand-built corpus with known gram overlap vs the bench slice
    (doc_id % DECON_BENCH_MOD == 0). Pins: hit counting per position,
    distinct-gram counting, repeated-gram handling, bench-doc exclusion,
    and the <K-words no-gram edge."""
    import ray.data as rd

    from crawler_ray.ops.text import DECON_BENCH_MOD, _decontaminate_ds

    assert DECON_BENCH_MOD == 7  # doc ids below assume the %7 slice
    w = "alpha bravo charlie delta echo foxtrot golf hotel india juliet".split()
    sentence = " ".join(w)  # 10 words -> 3 overlapping 8-grams
    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3, 4, 7],
            "text": [
                sentence,                      # bench doc (0 % 7 == 0)
                sentence,                      # full copy -> 3 hits, 3 distinct
                "zulu " + " ".join(w[:8]),     # one 8-gram copied -> 1 hit
                " ".join(w[:7]) + " xray",     # only 7 shared words -> no hit
                " ".join(w[:8] + w[:8]),       # same gram twice -> 2 hits, 1 distinct
                sentence,                      # bench doc (7 % 7 == 0): excluded
            ],
        }
    )
    out = (
        _decontaminate_ds(rd.from_pandas(docs))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    expected = pd.DataFrame(
        {
            "doc_id": pd.Series([1, 2, 4], dtype="int64"),
            "hits": pd.Series([3, 1, 2], dtype="int64"),
            "distinct_grams": pd.Series([3, 1, 1], dtype="int64"),
        }
    )
    pd.testing.assert_frame_equal(out, expected)


def test_decontaminate_keeps_colliding_bench_grams(ray_session, monkeypatch):
    """Two distinct bench grams that share a 64-bit hash must both stay
    matchable. The collision is forced through the word tokenizer: its
    words are a str subclass whose ``encode`` (what pandas' word hash
    reads) maps "alpha" and "beta" to the same bytes, so "alpha b..h" and
    "beta b..h" hash alike in the bench and scan tasks while their strings
    differ. A bench side that keeps one gram per hash loses the second
    and misses doc 2."""
    import re

    import ray.data as rd

    import crawler_ray.ops.text as text_mod

    class Word(str):
        def encode(self, *a, **k):
            if self in ("alpha", "beta"):
                return b"alpha"
            return str.encode(self, *a, **k)

    class Tokenizer:
        def findall(self, t):
            return [Word(w) for w in re.findall(r"[a-z]+", t)]

    monkeypatch.setattr(text_mod, "_WORD", Tokenizer())
    tail = "bravo charlie delta echo foxtrot golf hotel"
    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                f"alpha {tail} beta {tail}",  # bench doc: both colliding grams
                f"alpha {tail}",              # the first gram
                f"beta {tail}",               # the second gram, same hash
                f"india {tail}",              # shares 7 words only
            ],
        }
    )
    out = (
        text_mod._decontaminate_ds(rd.from_pandas(docs))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 2]
    assert out["hits"].tolist() == [1, 1]
    assert out["distinct_grams"].tolist() == [1, 1]


def test_lm_logprob_hand_computed(ray_session):
    """Two-doc corpus with hand-derived bigram-LM scores. Corpus:
    'a b a b' and 'a c' -> c2 = {(a,b):2, (b,a):1, (a,c):1},
    prefix c1 = {a:3, b:1}, V = 3. Per-bigram micro-nats:
    (a,b): ln(3/6), (b,a): ln(2/4) (both -693147), (a,c): ln(2/6)
    (-1098612). Pins smoothing arithmetic, prefix-vs-unigram counting,
    the V definition, and half-away rounding."""
    import math

    import ray.data as rd

    from crawler_ray.ops.text import _lm_logprob_ds

    docs = pd.DataFrame({"doc_id": [10, 20], "text": ["a b a b", "a c"]})
    out = (
        _lm_logprob_ds(rd.from_pandas(docs))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    half = int(math.floor(1e6 * math.log(0.5) + 0.5))       # -693147
    third = int(math.floor(1e6 * math.log(1 / 3) + 0.5))    # -1098612
    expected = pd.DataFrame(
        {
            "doc_id": pd.Series([10, 20], dtype="int64"),
            "n_bigrams": pd.Series([3, 1], dtype="int64"),
            "logprob_e6": pd.Series([3 * half, third], dtype="int64"),
        }
    )
    pd.testing.assert_frame_equal(out, expected)


def test_quantile_sketch_compaction_bound():
    """Small-k compaction regime: the sketch's self-certified rank-error
    bound (err = sum of 2^l over compactions) must hold for every
    reported quantile, on adversarial orderings (sorted ascending,
    descending, and hash-shuffled), including after a summary-row
    merge round-trip. No Ray needed — pure sketch semantics."""
    import math

    from crawler_ray.ops.relational import _QuantileSketch

    n, k = 10_000, 64
    base = np.arange(n, dtype=np.int64) * 3 + 7
    shuffled = base[np.argsort((base * 2654435761) % (1 << 31))]
    for data in (base, base[::-1].copy(), shuffled):
        sk = _QuantileSketch(k)
        for chunk in np.array_split(data, 13):
            sk.add(chunk)
        # merge round-trip: serialize, fold into a fresh sketch
        rows = sk.to_rows()
        sk2 = _QuantileSketch(k)
        sk2.merge_rows(rows["level"].to_numpy(), rows["value"].to_numpy())
        for s in (sk, sk2):
            assert s.err > 0  # compaction actually fired at this k
            assert s.err <= 4 * n * 14 // k  # sanity cap: O(n log / k)
            srt = np.sort(data)
            for pct, val in s.quantiles((1, 10, 25, 50, 75, 90, 99)):
                target = max(1, math.ceil(pct / 100 * n))
                true_rank = int(np.searchsorted(srt, val, side="right"))
                assert abs(true_rank - target) <= s.err, (
                    f"pct {pct}: rank {true_rank} vs {target}, err {s.err}"
                )


def test_quantile_sketch_exact_regime_partition_invariant():
    """With k >= n no compaction fires: err == 0 and the reported values
    equal the exact ceil(q*n) order statistics regardless of batching."""
    import math

    from crawler_ray.ops.relational import _QuantileSketch

    vals = (np.arange(999, dtype=np.int64) * 17) % 4999
    srt = np.sort(vals)
    results = []
    for n_chunks in (1, 7, 31):
        sk = _QuantileSketch(1 << 12)
        for chunk in np.array_split(vals, n_chunks):
            sk.add(chunk)
        assert sk.err == 0
        qs = sk.quantiles((10, 50, 90))
        for pct, v in qs:
            assert v == srt[max(1, math.ceil(pct / 100 * len(vals))) - 1]
        results.append(qs)
    assert results[0] == results[1] == results[2]


def test_quantile_sketch_fuzz_bound_and_weight():
    """Property fuzz of the compactor sketch: for arbitrary int arrays,
    capacities, and chunkings — including a serialize/merge round-trip —
    the certified rank-error bound holds for every decile and retained
    weight equals the ingested count (quantiles() raises otherwise)."""
    import math

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from crawler_ray.ops.relational import _QuantileSketch

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=800),
        st.integers(4, 48),
        st.integers(1, 9),
    )
    def check(xs, k, n_chunks):
        data = np.array(xs, dtype=np.int64)
        sk = _QuantileSketch(k)
        for chunk in np.array_split(data, min(n_chunks, len(data))):
            if len(chunk):
                sk.add(chunk)
        rows = sk.to_rows()
        sk2 = _QuantileSketch(k)
        sk2.merge_rows(rows["level"].to_numpy(), rows["value"].to_numpy())
        srt = np.sort(data)
        n = len(data)
        for s in (sk, sk2):
            for pct, val in s.quantiles(range(10, 100, 10)):
                target = max(1, math.ceil(pct / 100 * n))
                lo = int(np.searchsorted(srt, val, side="left")) + 1
                hi = int(np.searchsorted(srt, val, side="right"))
                # val occupies ranks [lo, hi]; nearest distance to target
                dist = 0 if lo <= target <= hi else min(
                    abs(target - lo), abs(target - hi)
                )
                assert dist <= s.err, (
                    f"pct {pct}: val ranks [{lo},{hi}] vs target {target}, "
                    f"err {s.err}"
                )

    check()


def test_pack_sequences_invariants(ray_session, con):
    """Bucket-agnostic invariants of the FFD sequence packer: every doc
    appears exactly once; every bin fits the capacity unless it holds a
    single oversize doc; within each bin, offsets are the running token
    sum in placement order."""
    from crawler_ray.ops.text import PACK_CAP

    out = _to_pandas(entrymod.queries()["pack_sequences"](SF_DIR))
    n_docs = con.sql("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert len(out) == n_docs
    assert out["doc_id"].is_unique
    for bin_id, g in out.groupby("bin_id"):
        g = g.sort_values("offset")
        total = int(g["n_tokens"].sum())
        if total > PACK_CAP:
            assert len(g) == 1, f"oversize bin {bin_id} has {len(g)} docs"
        assert (
            g["offset"].to_numpy()
            == np.concatenate([[0], np.cumsum(g["n_tokens"].to_numpy())[:-1]])
        ).all(), f"bin {bin_id}: offsets not the running token sum"
        assert bin_id in set(g["doc_id"]), "bin_id must be a member doc"


def test_pack_sequences_ffd_half_full_bound(ray_session, monkeypatch):
    """With ONE bucket (global FFD) at most one non-oversize bin may be
    at-most-half full — the classic first-fit waste bound that keeps
    padding bounded at training time."""
    from crawler_ray.ops.text import PACK_CAP, pack_sequences

    monkeypatch.setenv("CRAWLER_RAY_N_BUCKETS", "1")
    out = _to_pandas(pack_sequences(SF_DIR))
    fills = out.groupby("bin_id")["n_tokens"].sum()
    non_oversize = fills[fills <= PACK_CAP]
    assert (non_oversize <= PACK_CAP).all()
    assert int((non_oversize * 2 <= PACK_CAP).sum()) <= 1, (
        "FFD left more than one half-empty bin"
    )


def test_pack_sequences_oversize_bin_closed(ray_session):
    """Review-found r5: an oversize doc's bin must never accept later
    docs — with a zero-token doc in the same bucket, the oversize bin
    previously stayed open (rem clamped to 0) and absorbed it."""
    import ray.data as rd

    from crawler_ray.ops.text import PACK_CAP, _pack_sequences_ds

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["w " * (PACK_CAP + 88), "   ", "a b c"],
        }
    )
    out = (
        _pack_sequences_ds(rd.from_pandas(docs))
        .to_pandas()
        .set_index("doc_id")
    )
    assert out.loc[1, "bin_id"] == 1 and out.loc[1, "offset"] == 0
    # the oversize bin holds ONLY doc 1
    assert (out["bin_id"] == 1).sum() == 1
    # the empty doc packs with doc 3 (or its own bin), never at offset cap
    assert (out["offset"] < PACK_CAP).all()


def test_pack_sequences_fuzz_invariants():
    """Property fuzz of the FFD pack body (no Ray): arbitrary token
    counts, including zeros and oversizes — exactly-once, capacity on
    multi-doc bins, running-sum offsets, oversize bins singleton."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from crawler_ray.ops.text import PACK_CAP, _pack_sequences_ds

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.integers(0, PACK_CAP * 2), min_size=1, max_size=120
        )
    )
    def check(counts):
        import ray.data as rd

        docs = pd.DataFrame(
            {
                "doc_id": np.arange(len(counts), dtype=np.int64),
                "text": ["w " * c for c in counts],
            }
        )
        out = _pack_sequences_ds(rd.from_pandas(docs)).to_pandas()
        assert len(out) == len(counts) and out["doc_id"].is_unique
        assert (out["n_tokens"].to_numpy() == np.array(counts)[out["doc_id"]]).all()
        for _bin, g in out.groupby("bin_id"):
            g = g.sort_values("offset")
            if int(g["n_tokens"].sum()) > PACK_CAP:
                assert len(g) == 1
            assert (
                g["offset"].to_numpy()
                == np.concatenate([[0], np.cumsum(g["n_tokens"].to_numpy())[:-1]])
            ).all()

    check()


def test_pack_sequences_exactly_full_bin_closed(ray_session):
    """Review-found r5 (second variant): a bin filled to exactly cap
    must close — a zero-token doc previously joined it at offset==cap."""
    import ray.data as rd

    from crawler_ray.ops.text import PACK_CAP, _pack_sequences_ds

    docs = pd.DataFrame(
        {"doc_id": [1, 2], "text": ["w " * PACK_CAP, "   "]}
    )
    out = (
        _pack_sequences_ds(rd.from_pandas(docs))
        .to_pandas()
        .set_index("doc_id")
    )
    assert (out["bin_id"] == 1).sum() == 1  # full bin stays a singleton
    assert out.loc[2, "offset"] == 0  # empty doc opens its own bin


def test_decontaminate_bench_cap_raises(ray_session):
    """The bench-side broadcast build must fail LOUDLY past the cap
    instead of materializing a corpus-scale object on the driver."""
    import ray.data as rd

    from crawler_ray.ops.text import _decontaminate_ds

    docs = rd.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    with pytest.raises(ValueError, match="too large to broadcast"):
        _decontaminate_ds(docs, bench_gram_cap=10)
