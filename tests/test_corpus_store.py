"""MmapShardCorpus: the Lance-equivalent random-access corpus store.

Covers the lazy parquet -> uncompressed Arrow IPC conversion, ordered
cross-shard ``take_pages`` against the generator's own rows, the
missing-id error path, the rejection of anything but a sharded corpus
directory (by ``open_corpus`` and by ``crawl()``), and engine/oracle
parity when the crawl's docs sink reads payloads through the store.
"""

import os

import pyarrow as pa
import pytest

from crawler_ray.fetchsim import FetchPolicy
from crawler_ray.oracle import run_oracle
from crawler_ray.pipelines.crawl import CrawlConfig, crawl, read_crawled
from crawler_ray.sources.corpus import MmapShardCorpus, open_corpus
from crawler_ray.urlkit import IncludePatterns
from crawler_ray.webgen import CORPUS_SCHEMA, ensure_web, ensure_web_sharded

N_PAGES, N_HOSTS, N_SHARDS = 1200, 48, 8


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("shardedweb"))


@pytest.fixture(scope="module")
def sharded_web(cache):
    return ensure_web_sharded(N_PAGES, N_HOSTS, N_SHARDS, seed=11, cache_dir=cache)


@pytest.fixture(scope="module")
def policy():
    return FetchPolicy(include=IncludePatterns(domain_patterns=frozenset([".test"])))


def test_open_corpus_serves_sharded_dir_through_mmap(sharded_web):
    _, path = sharded_web
    assert isinstance(open_corpus(path), MmapShardCorpus)


def test_open_corpus_rejects_flat_file(sharded_web, cache):
    # the flat parquet ensure_web_sharded partitions (already in the cache)
    _, flat = ensure_web(N_PAGES, N_HOSTS, seed=11, cache_dir=cache)
    with pytest.raises(ValueError, match="sharded corpus"):
        open_corpus(flat)


def test_crawl_rejects_flat_corpus_before_round_0(sharded_web, cache, policy, tmp_path):
    spec, flat = ensure_web(N_PAGES, N_HOSTS, seed=11, cache_dir=cache)
    run_dir = tmp_path / "run"
    cfg = CrawlConfig(
        spec=spec, corpus_path=flat, seeds=[spec.url_of(0)], policy=policy,
        run_dir=str(run_dir),
    )
    with pytest.raises(ValueError, match="sharded corpus"):
        crawl(cfg)
    # rejected before anything is written: no round, frontier or config
    assert not run_dir.exists()


def test_take_pages_matches_generator_rows(sharded_web):
    spec, path = sharded_web
    # ids spanning several shards, deliberately unsorted with a duplicate
    ids = [7, 411, 3, 1199, 411, 500, 42]
    got = MmapShardCorpus(path).take_pages(ids)
    assert got.schema.equals(CORPUS_SCHEMA)
    want = pa.Table.from_pylist([spec.corpus_row(p) for p in ids], schema=CORPUS_SCHEMA)
    assert got.to_pylist() == want.to_pylist()
    # conversion is lazy: only the touched shards materialised .arrow
    n_arrow = len([f for f in os.listdir(path) if f.endswith(".arrow")])
    assert 0 < n_arrow <= N_SHARDS


def test_take_pages_missing_id_raises(sharded_web):
    _, path = sharded_web
    with pytest.raises(KeyError):
        MmapShardCorpus(path).take_pages([N_PAGES + 5])


def test_sharded_crawl_matches_oracle(ray_session, sharded_web, policy, tmp_path):
    spec, corpus_path = sharded_web
    seeds = [spec.url_of(i) for i in range(6)]
    cfg = CrawlConfig(
        spec=spec,
        corpus_path=corpus_path,
        seeds=seeds,
        policy=policy,
        run_dir=str(tmp_path / "run"),
        n_fetch_shards=4,
        n_seen_shards=2,
        verify_payload=True,  # per-row pixel/caption invariant inline
    )
    summary = crawl(cfg)
    golden = run_oracle(spec, policy, seeds)
    docs = read_crawled(str(tmp_path / "run")).to_pandas()
    assert set(docs["url"]) == {d["url"] for d in golden.crawled}
    assert summary.stored == len(golden.crawled)
    # payload columns came through the mmap store: captions match the spec
    cap = {d["url"]: spec.caption_of(d["page_id"]) for d in golden.crawled}
    assert all(cap[u] == c for u, c in zip(docs["url"], docs["caption"]))
