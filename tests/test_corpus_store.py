"""MmapCorpus: the Lance-equivalent random-access corpus store.

Covers ordered ``take_pages`` against the generator's own rows (one
record batch, and several under a small batch budget), one-chunk result
columns, the empty take, a read-only corpus, the missing-id error path,
the rejection of anything but a corpus file (by ``open_corpus`` and by
``crawl()``), and engine/oracle parity when the crawl's docs sink reads
payloads through the store without writing under the corpus path.
"""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import crawler_ray.sources.corpus as corpus_mod
from crawler_ray.fetchsim import FetchPolicy
from crawler_ray.oracle import run_oracle
from crawler_ray.pipelines.crawl import CrawlConfig, crawl, read_crawled
from crawler_ray.sources.corpus import MmapCorpus, open_corpus
from crawler_ray.urlkit import IncludePatterns
from crawler_ray.webgen import CORPUS_SCHEMA, ensure_web, ensure_web_sharded

N_PAGES, N_HOSTS = 1200, 48


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("web"))


@pytest.fixture(scope="module")
def corpus_web(cache):
    return ensure_web_sharded(N_PAGES, N_HOSTS, seed=11, cache_dir=cache)


@pytest.fixture(scope="module")
def policy():
    return FetchPolicy(include=IncludePatterns(domain_patterns=frozenset([".test"])))


def _rows(spec, ids) -> list[dict]:
    return pa.Table.from_pylist(
        [spec.corpus_row(p) for p in ids], schema=CORPUS_SCHEMA
    ).to_pylist()


def _one_chunk(t: pa.Table) -> bool:
    # the docs parquet bytes depend on the payload's chunking
    return all(c.num_chunks == 1 for c in t.columns)


def test_open_corpus_serves_corpus_file_through_mmap(corpus_web):
    _, path = corpus_web
    assert os.path.isfile(path)
    assert isinstance(open_corpus(path), MmapCorpus)
    assert pa.ipc.open_file(path).num_record_batches == 1


def test_open_corpus_rejects_flat_file(corpus_web, cache):
    # the flat parquet ensure_web_sharded reads (already in the cache)
    _, flat = ensure_web(N_PAGES, N_HOSTS, seed=11, cache_dir=cache)
    with pytest.raises(ValueError, match="not a corpus file"):
        open_corpus(flat)
    with pytest.raises(ValueError, match="not a corpus file"):
        open_corpus(cache)  # a directory, as the old sharded layout was


def test_crawl_rejects_flat_corpus_before_round_0(corpus_web, cache, policy, tmp_path):
    spec, flat = ensure_web(N_PAGES, N_HOSTS, seed=11, cache_dir=cache)
    run_dir = tmp_path / "run"
    cfg = CrawlConfig(
        spec=spec, corpus_path=flat, seeds=[spec.url_of(0)], policy=policy,
        run_dir=str(run_dir),
    )
    with pytest.raises(ValueError, match="not a corpus file"):
        crawl(cfg)
    # rejected before anything is written: no round, frontier or config
    assert not run_dir.exists()


def test_take_pages_matches_generator_rows(corpus_web):
    spec, path = corpus_web
    # deliberately unsorted, with a duplicate
    ids = [7, 411, 3, 1199, 411, 500, 42]
    got = MmapCorpus(path).take_pages(ids)
    assert got.schema.equals(CORPUS_SCHEMA)
    assert _one_chunk(got)
    assert got.to_pylist() == _rows(spec, ids)


def test_take_pages_across_batches(corpus_web, tmp_path, monkeypatch):
    spec, _ = corpus_web
    budget = 1 << 18
    monkeypatch.setattr(corpus_mod, "BATCH_BYTES", budget)
    _, path = ensure_web_sharded(N_PAGES, N_HOSTS, seed=11, cache_dir=str(tmp_path))
    reader = pa.ipc.open_file(path)
    batches = [reader.get_batch(i) for i in range(reader.num_record_batches)]
    assert len(batches) >= 3
    sizes = [pc.sum(pc.binary_length(b.column("bytes"))).as_py() for b in batches]
    assert max(sizes) <= budget
    starts = np.cumsum([0] + [b.num_rows for b in batches])
    assert starts[-1] == N_PAGES
    # unsorted, a duplicate, and rows from at least three batches
    ids = [N_PAGES - 1, 7, int(starts[1]), 600, 7, int(starts[2]) - 1, 0, 411]
    assert len(set(np.searchsorted(starts, ids, "right"))) >= 3
    got = MmapCorpus(path).take_pages(ids)
    assert got.schema.equals(CORPUS_SCHEMA)
    assert _one_chunk(got)
    assert got.to_pylist() == _rows(spec, ids)
    assert MmapCorpus(path).take_pages([]).schema.equals(CORPUS_SCHEMA)
    with pytest.raises(KeyError):
        MmapCorpus(path).take_pages([3, N_PAGES])


def test_take_pages_empty(corpus_web):
    got = MmapCorpus(corpus_web[1]).take_pages([])
    assert got.num_rows == 0 and got.schema.equals(CORPUS_SCHEMA)


def test_read_only_corpus_serves_takes(corpus_web, tmp_path):
    spec, path = corpus_web
    ro = tmp_path / "ro"
    ro.mkdir()
    ro_path = str(ro / os.path.basename(path))
    shutil.copyfile(path, ro_path)
    os.chmod(ro_path, 0o444)
    ro.chmod(0o555)
    try:
        got = open_corpus(ro_path).take_pages([5, 1000])
        assert got.to_pylist() == _rows(spec, [5, 1000])
        assert os.listdir(ro) == [os.path.basename(path)]
    finally:
        ro.chmod(0o755)


def test_take_pages_missing_id_raises(corpus_web):
    _, path = corpus_web
    with pytest.raises(KeyError):
        MmapCorpus(path).take_pages([N_PAGES + 5])


def test_sharded_crawl_matches_oracle(ray_session, corpus_web, policy, tmp_path):
    spec, corpus_path = corpus_web
    before = sorted(os.listdir(os.path.dirname(corpus_path))), os.stat(corpus_path)
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
    # the crawl wrote nothing under the corpus path
    listing, st = before
    assert sorted(os.listdir(os.path.dirname(corpus_path))) == listing
    assert os.stat(corpus_path).st_mtime_ns == st.st_mtime_ns
