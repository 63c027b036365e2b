"""Task-shape contracts: a crawl's outputs do not depend on how a round is
cut into tasks.

- A grid of fetch-shard and seen-shard counts over one web, with the
  rows-per-task constant turned down so fetch and docs tasks both fold,
  must reproduce the single-threaded oracle: read order, the seen set
  replayed from ``seen_delta``, and the stored-doc keys. Each fetch
  task's docs land in one docs part.
- ``SeenHost.combined_round`` (one call for all of a host's shards) must
  write one frontier and one delta file holding, per shard, the rows a
  one-shard call on that shard's own metas writes.
- ``read_crawled`` of a run with no docs has the non-empty schema.
- Host 0 runs in the driver: only the actor hosts are kept free of
  pandas, and the driver can still import it.
"""

import glob
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

import crawler_ray.pipelines.crawl as crawl_mod
from crawler_ray.fetchsim import FetchPolicy
from crawler_ray.oracle import run_oracle
from crawler_ray.pipelines.crawl import CrawlConfig, crawl, read_crawled, read_order
from crawler_ray.stages.fetch import META_SCHEMA, combined_round
from crawler_ray.state.seen import (
    IN_PROGRESS,
    STATUS_NAMES,
    SeenHost,
    SeenShardLocal,
    make_shards,
    seen_hosts,
)
from crawler_ray.urlkit import IncludePatterns, url_hash
from crawler_ray.webgen import ensure_web_sharded

N_PAGES, N_HOSTS = 300, 12

FETCH = (1, 3, 16)
SEEN = (1, 3, 6, 8)
# every (fetch, seen) pair: 12 crawls
GRID = [(n_fetch, n_seen) for n_seen in SEEN for n_fetch in FETCH]


@pytest.fixture(scope="module")
def web(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("web"))
    return ensure_web_sharded(N_PAGES, N_HOSTS, seed=5, cache_dir=cache)


@pytest.fixture(scope="module")
def policy():
    return FetchPolicy(include=IncludePatterns(domain_patterns=frozenset([".test"])))


def _replay_seen(run_dir: str) -> dict[str, str]:
    seen: dict[str, str] = {}
    for rdir in sorted(glob.glob(os.path.join(run_dir, "round_*"))):
        for f in sorted(glob.glob(os.path.join(rdir, "seen_delta", "*.parquet"))):
            t = pq.read_table(f, columns=["url", "status"])
            for u, c in zip(t["url"].to_pylist(), t["status"].to_pylist()):
                if c == 0:
                    seen.pop(u, None)
                else:
                    seen[u] = STATUS_NAMES[c]
    return seen


def test_shard_shapes_match_oracle(ray_session, web, policy, tmp_path, monkeypatch):
    # 4 rows per task: 300-page rounds fold fetch and docs tasks alike
    monkeypatch.setattr(crawl_mod, "ROWS_PER_TASK", 4)
    spec, corpus = web
    seeds = [spec.url_of(i) for i in range(3)]
    golden = run_oracle(spec, policy, seeds)
    want_order = sorted(golden.order)
    want_docs = sorted(
        (d["url"], d["round"], d["host"], d["seq"]) for d in golden.crawled
    )
    for shape in GRID:
        n_fetch, n_seen = shape
        run_dir = str(tmp_path / "-".join(map(str, shape)))
        shards = make_shards(n_seen, 1 << 10)
        crawl(
            CrawlConfig(
                spec=spec, corpus_path=corpus, seeds=seeds, policy=policy,
                run_dir=run_dir, n_fetch_shards=n_fetch, n_seen_shards=n_seen,
                seen_capacity_per_shard=1 << 10,
            ),
            shards=shards,
        )
        # a whole crawl leaves the actor seen hosts without pandas (host
        # 0 runs in this process, which may import what it likes)
        assert not any(ray.get([
            h.__ray_call__.remote(lambda _: "pandas" in sys.modules)
            for h in seen_hosts(shards)[1:]
        ])), shape
        order = read_order(run_dir)
        got_order = list(
            zip(*(order[c].to_pylist() for c in ("round", "host", "seq", "url")))
        )
        assert got_order == want_order, shape
        assert _replay_seen(run_dir) == golden.seen, shape
        docs = pa.concat_tables(
            pq.read_table(f, columns=["url", "round", "host", "seq"])
            for f in glob.glob(os.path.join(run_dir, "round_*", "docs", "*.parquet"))
        )
        got_docs = sorted(
            zip(*(docs[c].to_pylist() for c in ("url", "round", "host", "seq")))
        )
        assert got_docs == want_docs, shape
        # docs tasks fold over fetch tasks: a round has at most
        # min(MAX_DOCS_TASKS, fetch tasks) docs parts, and each fetch
        # task's docs (worker_id names its lead shard) lie in exactly one
        # part; a round writes one seen delta file per seen host and at
        # most one frontier file per seen host
        n_hosts = len(seen_hosts(shards))
        for rdir in glob.glob(os.path.join(run_dir, "round_*")):
            n_order = len(os.listdir(os.path.join(rdir, "order")))
            parts = glob.glob(os.path.join(rdir, "docs", "*.parquet"))
            assert len(parts) <= min(crawl_mod.MAX_DOCS_TASKS, n_order), shape
            part_of: dict[str, set] = {}
            for f in parts:
                for w in pq.read_table(f, columns=["worker_id"])["worker_id"].to_pylist():
                    part_of.setdefault(w, set()).add(f)
            assert all(len(v) == 1 for v in part_of.values()), shape
            assert len(os.listdir(os.path.join(rdir, "seen_delta"))) == n_hosts, shape
        for fdir in glob.glob(os.path.join(run_dir, "frontier_*")):
            assert len(os.listdir(fdir)) <= n_hosts, shape


def _meta_batch(rows: list[tuple]) -> pa.RecordBatch:
    return pa.RecordBatch.from_pylist(
        [dict(zip(META_SCHEMA.names, r)) for r in rows], schema=META_SCHEMA
    )


def _rows(path: str) -> list[tuple]:
    t = pq.read_table(path)
    return list(zip(*(t[c].to_pylist() for c in t.column_names)))


def test_host_combined_equals_per_shard(ray_session, tmp_path):
    """One combined call for a host owning shards 1 and 4 of 6 writes one
    frontier and one delta file, both named by shard 1. Per shard, its
    delta rows are those of a one-shard call on that shard's own metas,
    and the frontier rows are the union of the one-shard calls'."""
    n_seen, own, n_fetch, rnd = 6, [1, 4], 3, 2
    rng = np.random.default_rng(0)
    urls = [f"http://h{k % 5}.test/p{k}" for k in range(400)]
    urls = [u for u in urls if url_hash(u) % n_seen in own]
    hashes = {u: url_hash(u) for u in urls}
    # pre-state: a third of the URLs already known (in progress)
    known = urls[::3]
    # three fetch tasks' metas: terminal mutations of known URLs, then
    # candidate links, some repeated across tasks (within-round dedup)
    tasks = []
    for t in range(3):
        rows = []
        for seq, u in enumerate(known[t::3]):
            p_host = f"h{t}.test"
            rows.append((u, "", p_host, seq, 0, 0))
            rows.append((u, "", p_host, seq, 1, int(rng.choice([2, 3]))))
        for idx, k in enumerate(rng.choice(len(urls), size=60)):
            u = urls[k]
            rows.append(
                (u, u.split("/")[2], f"h{t}.test", idx // 7, idx, IN_PROGRESS)
            )
        tasks.append(_meta_batch([r + (hashes[r[0]],) for r in rows]))

    inserts = []
    for i in own:
        mine = [u for u in known if hashes[u] % n_seen == i]
        inserts.append((i, mine, np.array([hashes[u] for u in mine], np.uint64)))

    host_dir = str(tmp_path / "host")
    host = SeenHost.remote(own, 1 << 10, n_seen)
    ray.get([
        host.call.remote(i, "check_and_insert", us, hs) for i, us, hs in inserts
    ])
    host_stats = ray.get(
        host.combined_round.remote(
            n_fetch, host_dir, rnd, os.path.join(host_dir, "next"), *tasks
        )
    )
    # the seen host runs the round-end phase without pandas
    assert not ray.get(host.__ray_call__.remote(lambda _: "pandas" in sys.modules))
    rel = sorted(
        os.path.relpath(f, host_dir)
        for f in glob.glob(os.path.join(host_dir, "**", "*.parquet"), recursive=True)
    )
    assert rel == [
        "next/from_00001.parquet", "round_00002/seen_delta/shard-00001.parquet",
    ]
    host_delta = pq.read_table(os.path.join(host_dir, rel[1]))
    assert host_stats["shard"] == 1

    frontier, n_new = [], 0
    for i, us, hs in inserts:
        local = SeenShardLocal(i, 1 << 10)
        local.check_and_insert(us, hs)
        d = str(tmp_path / f"shard{i}")
        metas = [m.filter(m["uhash"].to_numpy() % n_seen == i) for m in tasks]
        st = combined_round(
            {i: local}, n_seen, n_fetch, d, rnd, os.path.join(d, "next"), metas
        )
        n_new += st["n_new"]
        mine = host_delta.filter(pc.equal(host_delta["shard"], i))
        own_rows = _rows(os.path.join(d, f"round_00002/seen_delta/shard-{i:05d}.parquet"))
        assert own_rows and list(zip(*mine.to_pydict().values())) == own_rows, i
        frontier += _rows(os.path.join(d, f"next/from_{i:05d}.parquet"))
    assert host_stats["n_new"] == n_new > 0
    assert sorted(_rows(os.path.join(host_dir, rel[0]))) == sorted(frontier)


def test_driver_host_leaves_pandas_importable(tmp_path):
    """The no-pandas import hook is for actor hosts only: a driver that
    had not loaded pandas can still import it after ``make_shards``
    built host 0 in it."""
    code = (
        "import sys, ray\n"
        "ray.init(address='local', num_cpus=1, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from crawler_ray.state.seen import make_shards\n"
        "assert 'pandas' not in sys.modules\n"
        "shards = make_shards(2, 1 << 10)\n"
        "assert ray.get(shards[1].counts.remote())['total'] == 0\n"
        "import pandas\n"
        "ray.shutdown()\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": root}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=str(tmp_path), env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]


def test_read_crawled_empty_schema_matches(ray_session, web, policy, tmp_path):
    spec, corpus = web
    base = dict(spec=spec, corpus_path=corpus, policy=policy, limit=5)
    crawl(CrawlConfig(seeds=[spec.url_of(0)], run_dir=str(tmp_path / "a"), **base))
    # no seed passes the include gate: the run stores nothing
    crawl(CrawlConfig(seeds=["http://x.example/"], run_dir=str(tmp_path / "b"), **base))
    full = read_crawled(str(tmp_path / "a"))
    empty = read_crawled(str(tmp_path / "b"))
    assert full.count() == 5 and empty.count() == 0
    assert empty.schema().base_schema == full.schema().base_schema
    # the crawl order's empty fallback carries the written files' schema
    order_full, order_empty = read_order(str(tmp_path / "a")), read_order(str(tmp_path / "b"))
    assert order_full.num_rows > 0 and order_empty.num_rows == 0
    assert order_empty.schema == order_full.schema
