"""Unit tests: cuckoo/bloom filters, seen-shard logic, WARC entry layout,
and the kill-after-round-k resume path (byte-identical outputs)."""

import glob
import os

import numpy as np
import pytest

from crawler_ray.state.filters import BloomFilter, CuckooFilter
from crawler_ray.state.seen import COMPLETED, IN_PROGRESS, SeenShardLocal
from crawler_ray.warc import warc_entry


def _keys(n, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 2**63, size=n, dtype=np.int64).astype(np.uint64)


def test_bloom_no_false_negatives():
    bf = BloomFilter(10_000, 0.01)
    keys = _keys(10_000)
    bf.add_many(keys)
    assert bf.contains_many(keys).all()


def test_bloom_false_positive_rate_reasonable():
    bf = BloomFilter(10_000, 0.01)
    bf.add_many(_keys(10_000, seed=1))
    fp = bf.contains_many(_keys(20_000, seed=2)).mean()
    assert fp < 0.05


def test_cuckoo_membership():
    cf = CuckooFilter(10_000)
    keys = _keys(5_000, seed=3)
    cf.add_many(keys)
    assert not cf.degraded
    assert cf.contains_many(keys).all()  # no false negatives
    other = _keys(20_000, seed=4)
    assert cf.contains_many(other).mean() < 0.02  # 16-bit fp -> low fpr


def test_cuckoo_batch_insert_conflicts_and_duplicates():
    """The vectorized add_many (round 4) resolves same-bucket conflicts
    within a batch first-wins with losers retrying the next slot; keys
    whose both buckets fill fall back to displacement. No false negatives
    under any of it: duplicate keys in one batch, many batches landing in
    the same buckets, incremental single adds interleaved with batches,
    and near-capacity load must all keep every added key a member."""
    import numpy as np

    cf = CuckooFilter(10_000)
    keys = _keys(6_000, seed=7)
    dup_batch = np.concatenate([keys[:500], keys[:500], keys[:500]])
    cf.add_many(dup_batch)  # duplicates in one batch
    for i in range(500, 1000):  # singleton batches (old sequential shape)
        cf.add_many(keys[i : i + 1])
    cf.add_many(keys[1000:])  # one big batch with conflicts
    assert not cf.degraded
    assert cf.contains_many(keys).all()
    # near-capacity: displacement fallback engages without losing keys
    cf2 = CuckooFilter(2_000)
    k2 = _keys(1_900, seed=8)
    cf2.add_many(k2)
    if not cf2.degraded:
        assert cf2.contains_many(k2).all()


@pytest.mark.parametrize(
    "capacity,n,batch,seed,digest",
    [
        (100, 300, 300, 11, "82f6f3f6bdf6f7094bda28c8ecc9e3951c3d09c04a4c444ac4bd0e590f49372a"),
        (1024, 3072, 500, 12, "6086dfde8f0580c48656c94b3a20a97a63f2f22ae4384b13b962910718e49ad6"),
    ],
)
def test_cuckoo_saturating_insert_is_pinned(capacity, n, batch, seed, digest):
    """A seeded insert past capacity leaves the same table bytes and the
    same degradation point as the numpy-kick implementation it replaced
    (digests computed with that implementation)."""
    import hashlib

    cf = CuckooFilter(capacity)
    keys = _keys(n, seed=seed)
    for lo in range(0, n, batch):
        cf.add_many(keys[lo : lo + batch])
    assert cf.degraded
    assert hashlib.sha256(cf.table.tobytes()).hexdigest() == digest


def test_cuckoo_degrades_not_corrupts():
    cf = CuckooFilter(256)
    keys = _keys(2_000, seed=5)
    cf.add_many(keys)  # way over capacity -> must degrade, not crash
    assert cf.degraded


def _urls_and_hashes(n, prefix="http://h.test/"):
    from crawler_ray.urlkit import url_hash

    urls = [f"{prefix}{i}" for i in range(n)]
    return urls, np.array([url_hash(u) for u in urls], dtype=np.uint64)


def _statuses(s):
    """url -> status of every URL a shard holds, read through its public
    ``full_table``."""
    t = s.full_table()
    return dict(zip(t["url"].to_pylist(), t["status"].to_pylist()))


def test_seen_shard_round_protocol():
    s = SeenShardLocal(0, capacity=1 << 12)
    urls, hs = _urls_and_hashes(100)
    ok = s.check_and_insert(urls, hs)
    assert all(ok)
    ok2 = s.check_and_insert(urls, hs)
    assert not any(ok2)  # all already in-progress
    assert [_statuses(s).get(u, 0) for u in urls[:5]] == [IN_PROGRESS] * 5
    s.apply_mutations(urls[:50], hs[:50], [COMPLETED] * 50)
    assert [_statuses(s).get(u, 0) for u in urls[:3]] == [COMPLETED] * 3
    # a delete op makes a URL insertable again (sub-fetch quirk path)
    s.apply_mutations(urls[60:61], hs[60:61], [0])
    assert _statuses(s).get(urls[60], 0) == 0
    assert s.check_and_insert(urls[60:61], hs[60:61]) == [True]


def test_seen_shard_delta_restore_roundtrip():
    a = SeenShardLocal(0)
    urls, hs = _urls_and_hashes(50)
    a.check_and_insert(urls, hs)
    a.apply_mutations(urls[:20], hs[:20], [COMPLETED] * 20)
    delta = a.snapshot_delta()
    b = SeenShardLocal(0)
    b.restore(delta.select(["url", "status"]))
    assert _statuses(b) == _statuses(a)


def test_snapshot_hashes_mirrors_status():
    """The guard snapshot (sorted url-hash array) must track the status
    dict through every mutation path: insert, terminal overwrite,
    delete-op, re-insert, and delta restore."""
    from crawler_ray.urlkit import url_hash

    s = SeenShardLocal(0, capacity=1 << 12)
    urls, hs = _urls_and_hashes(80)

    def expect():
        want = np.sort(
            np.array([url_hash(u) for u in _statuses(s)], dtype=np.uint64)
        )
        got = s.snapshot_hashes()
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    s.check_and_insert(urls, hs)
    expect()
    s.apply_mutations(urls[:30], hs[:30], [COMPLETED] * 30)
    expect()  # overwrites add no duplicate hashes
    s.apply_mutations(urls[30:40], hs[30:40], [0] * 10)  # deletes
    expect()
    s.check_and_insert(urls[35:45], hs[35:45])  # half re-inserts
    expect()
    b = SeenShardLocal(0)
    b.restore(s.snapshot_delta().select(["url", "status"]))
    assert np.array_equal(b.snapshot_hashes(), s.snapshot_hashes())


def test_degraded_seen_shard_has_no_false_negatives():
    """Filled to 3x its capacity, the cuckoo degrades and stops taking
    inserts; the bloom answers from then on and must still know every URL
    ever inserted, in whatever batches they arrived."""
    cap = 1 << 10
    s = SeenShardLocal(0, capacity=cap)
    urls, hs = _urls_and_hashes(3 * cap)
    for lo in range(0, len(urls), 500):  # degrades mid-batch, then stays
        assert all(s.check_and_insert(urls[lo : lo + 500], hs[lo : lo + 500]))
    assert s.cuckoo.degraded
    assert not any(s.check_and_insert(urls, hs))
    statuses = _statuses(s)
    assert [statuses.get(u, 0) for u in urls] == [IN_PROGRESS] * len(urls)
    table = s.cuckoo.table.copy()
    s.check_and_insert(*_urls_and_hashes(100, "http://other.test/"))
    assert np.array_equal(s.cuckoo.table, table)  # read-only once degraded


def test_restore_matches_production_replay():
    """``restore`` of delta tables that delete and re-add URLs leaves the
    same status and guard snapshot as applying the same rows, in order,
    through ``apply_mutations`` — and its filters miss no live URL."""
    import pyarrow as pa

    urls, hs = _urls_and_hashes(60)
    rounds = [
        [(u, IN_PROGRESS) for u in urls[:40]],
        [(u, COMPLETED) for u in urls[:10]]
        + [(u, 0) for u in urls[10:25]]
        + [(urls[50], 0)]  # delete of a URL never seen
        + [(u, IN_PROGRESS) for u in urls[40:60]],
        [(u, IN_PROGRESS) for u in urls[15:20]]  # re-adds after delete
        + [(u, 0) for u in urls[5:8]]
        + [(u, 3) for u in urls[5:7]],  # deleted, then failed
    ]
    replay = SeenShardLocal(0, capacity=1 << 12)
    restored = SeenShardLocal(0, capacity=1 << 12)
    hash_of = dict(zip(urls, hs))
    for rows in rounds:
        ru = [u for u, _ in rows]
        replay.apply_mutations(ru, np.array([hash_of[u] for u in ru]), [c for _, c in rows])
        restored.restore(
            pa.table({"url": pa.array(ru), "status": pa.array([c for _, c in rows], pa.int8())})
        )
    assert _statuses(restored) == _statuses(replay)
    assert np.array_equal(restored.snapshot_hashes(), replay.snapshot_hashes())
    live = list(_statuses(restored))
    assert not any(restored.check_and_insert(live, np.array([hash_of[u] for u in live])))


def test_make_shards_packs_shards_into_cpu_hosts(ray_session):
    """One handle per shard over min(shards, CPUs) hosts; host h owns
    shards i = h (mod hosts). Host 0 runs in the driver and cannot be
    pickled; hosts 1..3 are actors whose handles work inside a task."""
    import pickle

    import ray
    from ray.actor import ActorHandle

    from crawler_ray.state.seen import make_shards, seen_hosts

    shards = make_shards(8, 1 << 10)
    n_hosts = min(8, int(ray.cluster_resources()["CPU"]))
    assert len(shards) == 8
    assert len({s.host for s in shards}) == n_hosts == 4
    assert all(s.host == shards[i % n_hosts].host for i, s in enumerate(shards))
    hosts = seen_hosts(shards)
    assert not isinstance(hosts[0], ActorHandle)
    assert all(isinstance(h, ActorHandle) for h in hosts[1:])
    urls, hs = _urls_and_hashes(64)
    by_shard = [[i for i in range(64) if hs[i] % 8 == m] for m in range(8)]
    ray.get([
        shards[m].check_and_insert.remote([urls[i] for i in ix], hs[ix])
        for m, ix in enumerate(by_shard)
    ])
    totals = [c["total"] for c in ray.get([s.counts.remote() for s in shards])]
    assert totals == [len(ix) for ix in by_shard]

    @ray.remote
    def actor_totals(handles):
        return [c["total"] for c in ray.get([h.counts.remote() for h in handles])]

    on_actors = [s for s in shards if s.host is not hosts[0]]
    assert ray.get(actor_totals.remote(on_actors)) == [
        len(ix) for m, ix in enumerate(by_shard) if m % n_hosts
    ]
    # a pickled driver host would run on a copy of its shards' state
    with pytest.raises(TypeError):
        pickle.dumps(shards[0])
    with pytest.raises(TypeError):
        actor_totals.remote(shards)


@pytest.mark.parametrize("n_shards", [1, 3, 8])
def test_guard_snapshot_is_the_union_of_shard_snapshots(ray_session, n_shards):
    """The round's guard array (one ``snapshot_hashes`` call per host,
    merged) equals the sorted union of every shard's snapshot after
    inserts, terminal ops, deletes and re-inserts through the shard
    handles, at 1, 3 and 4 hosts; membership holds for live URLs only."""
    import ray

    from crawler_ray.state.seen import (
        FAILED, guard_snapshot, in_snapshot, make_shards, seen_hosts,
    )

    shards = make_shards(n_shards, 1 << 10)
    hosts = seen_hosts(shards)
    assert len(hosts) == min(n_shards, 4)
    urls, hs = _urls_and_hashes(200)

    def per_shard(method, ix, *op):
        """One ``method`` call per shard with the rows of ``ix`` it owns."""
        refs = []
        for m, s in enumerate(shards):
            rows = [i for i in ix if hs[i] % n_shards == m]
            if not rows:
                continue
            args = ([urls[i] for i in rows], hs[rows], *([o] * len(rows) for o in op))
            refs.append(getattr(s, method).remote(*args))
        ray.get(refs)

    per_shard("check_and_insert", range(150))
    per_shard("apply_mutations", range(0, 60), COMPLETED)
    per_shard("apply_mutations", range(60, 70), FAILED)
    per_shard("apply_mutations", range(40, 100), 0)  # deletes
    per_shard("check_and_insert", range(90, 100))  # re-inserts
    live = [*range(40), *range(90, 150)]
    gone = [*range(40, 90), *range(150, 200)]  # deleted, never seen

    guard = ray.get(guard_snapshot(hosts))
    union = np.concatenate(ray.get([s.snapshot_hashes.remote() for s in shards]))
    assert guard.dtype == np.uint64
    assert np.array_equal(guard, np.sort(union))
    assert np.array_equal(guard, np.sort(hs[live]))
    assert all(in_snapshot(guard, int(hs[i])) for i in live)
    assert not any(in_snapshot(guard, int(hs[i])) for i in gone)


def test_rebuild_shards_reads_per_shard_and_per_host_deltas(ray_session, tmp_path):
    """One run whose early rounds hold one delta file per seen shard and
    whose later rounds hold one per host of a 3-host layout, restored in
    a 4-host session: every shard's table equals a plain-dict replay of
    the same files, row by row, in order."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from crawler_ray.pipelines.checkpoint import rebuild_shards
    from crawler_ray.pipelines.crawl import CrawlConfig

    n_seen = 6
    urls, hs = _urls_and_hashes(90)
    shard_of = {u: int(h) % n_seen for u, h in zip(urls, hs)}
    rng = np.random.default_rng(3)
    rounds = []
    for rnd in range(4):
        # in-progress inserts, then terminal statuses and deletes of a
        # sample (a URL may appear twice in one round: order matters)
        rows = [(u, IN_PROGRESS) for u in urls[rnd * 20 : rnd * 20 + 30]]
        for k in rng.choice(len(urls), size=25):
            rows.append((urls[k], int(rng.choice([0, COMPLETED, 3]))))
        rounds.append(rows)

    def write(path, rows):
        pq.write_table(pa.table({
            "url": pa.array([u for u, _ in rows], pa.string()),
            "status": pa.array([c for _, c in rows], pa.int8()),
            "shard": pa.array([shard_of[u] for u, _ in rows], pa.int32()),
        }), path)

    files_by_round = []
    for rnd, rows in enumerate(rounds):
        ddir = tmp_path / f"round_{rnd:05d}" / "seen_delta"
        ddir.mkdir(parents=True)
        if rnd < 2:  # one file per seen shard
            groups = {i: [i] for i in range(n_seen)}
        else:  # one file per host of 3, host h owning shards i = h (mod 3)
            groups = {h: list(range(h, n_seen, 3)) for h in range(3)}
        for lead, own in groups.items():
            write(
                ddir / f"shard-{lead:05d}.parquet",
                [r for i in own for r in rows if shard_of[r[0]] == i],
            )
        files_by_round.append(sorted(ddir.glob("*.parquet")))

    want = [dict() for _ in range(n_seen)]
    for files in files_by_round:
        for f in files:
            t = pq.read_table(f)
            for u, c in zip(t["url"].to_pylist(), t["status"].to_pylist()):
                if c == 0:
                    want[shard_of[u]].pop(u, None)
                else:
                    want[shard_of[u]][u] = c

    cfg = CrawlConfig(
        spec=None, corpus_path="", seeds=[], policy=None, run_dir=str(tmp_path),
        n_seen_shards=n_seen, seen_capacity_per_shard=1 << 10,
    )
    shards = rebuild_shards(cfg, 3)
    assert len({s.host for s in shards}) == 4  # the session's CPUs
    got = ray.get([s.full_table.remote() for s in shards])
    for i, t in enumerate(got):
        assert list(zip(t["url"].to_pylist(), t["status"].to_pylist())) == list(
            want[i].items()
        ), i
    assert sum(map(len, want)) > 30


def test_resume_at_one_seen_shard_is_byte_identical(ray_session, tmp_path):
    """n_seen_shards=1: the one seen host is the driver's. A crawl killed
    in round 3 and resumed from its checkpoint ends byte-identical to an
    undisturbed run."""
    from crawler_ray.fetchsim import FetchPolicy
    from crawler_ray.pipelines.checkpoint import committed_rounds, resume_crawl
    from crawler_ray.pipelines.crawl import CrawlConfig, crawl, read_crawled, read_order
    from crawler_ray.urlkit import IncludePatterns
    from crawler_ray.webgen import ensure_web_sharded

    spec, corpus = ensure_web_sharded(250, 10, seed=7, cache_dir=str(tmp_path / "web"))
    policy = FetchPolicy(include=IncludePatterns(domain_patterns=frozenset([".test"])))
    seeds = [spec.url_of(i) for i in range(3)]
    base = dict(spec=spec, corpus_path=corpus, seeds=seeds, policy=policy, n_seen_shards=1)
    crawl(CrawlConfig(run_dir=str(tmp_path / "a"), **base))

    def kill_in_round_3(rnd, shards):
        if rnd == 3:
            raise RuntimeError("killed")

    cfg_b = CrawlConfig(run_dir=str(tmp_path / "b"), fault_hook=kill_in_round_3, **base)
    with pytest.raises(RuntimeError, match="killed"):
        crawl(cfg_b)
    assert committed_rounds(str(tmp_path / "b")) == [0, 1]
    cfg_b.fault_hook = None
    resume_crawl(cfg_b)

    assert read_order(str(tmp_path / "a")).equals(read_order(str(tmp_path / "b")))
    da = read_crawled(str(tmp_path / "a")).to_pandas().sort_values(["round", "host", "seq"])
    db = read_crawled(str(tmp_path / "b")).to_pandas().sort_values(["round", "host", "seq"])
    assert list(da["url"]) == list(db["url"])
    assert [bytes(x) for x in da["content"]] == [bytes(x) for x in db["content"]]
    for name in ("seen_delta", "order"):
        files = {
            side: sorted(glob.glob(str(tmp_path / side / "round_*" / name / "*.parquet")))
            for side in "ab"
        }
        assert [os.path.relpath(f, tmp_path / "a") for f in files["a"]] == [
            os.path.relpath(f, tmp_path / "b") for f in files["b"]
        ]
        for x, y in zip(files["a"], files["b"]):
            with open(x, "rb") as f1, open(y, "rb") as f2:
                assert f1.read() == f2.read(), x


def test_warc_entry_layout():
    entry = warc_entry(["http://h.test/landed", "http://h.test/requested"], b"BODY")
    text = entry.decode()
    # WarcDocument.hs:17-45: version line, 3 length variants, record id =
    # LAST of chain, type response, uncompressed
    assert text.startswith("WARC/1.0\r\n")
    assert "Content-Length: 4\r\n" in text
    assert "Original-Content-Length: 4\r\n" in text
    assert "Uncompressed-Content-Length: 4\r\n" in text
    assert "WARC-Record-ID: http://h.test/requested\r\n" in text
    assert "WARC-Target-URI: http://h.test/requested\r\n" in text
    assert "WARC-Type: response\r\n" in text
    assert entry.endswith(b"BODY\r\n\r\n")


def test_resume_equals_straight_through(ray_session, tmp_path):
    """Kill after round 2, resume, compare everything byte-for-byte."""
    import pyarrow.parquet as pq

    from crawler_ray.fetchsim import FetchPolicy
    from crawler_ray.pipelines.checkpoint import committed_rounds, resume_crawl
    from crawler_ray.pipelines.crawl import CrawlConfig, crawl, read_crawled, read_order
    from crawler_ray.urlkit import IncludePatterns
    from crawler_ray.webgen import ensure_web_sharded

    spec, corpus = ensure_web_sharded(250, 10, seed=7, cache_dir=str(tmp_path / "web"))
    policy = FetchPolicy(include=IncludePatterns(domain_patterns=frozenset([".test"])))
    seeds = [spec.url_of(i) for i in range(3)]

    base = dict(spec=spec, corpus_path=corpus, seeds=seeds, policy=policy)
    cfg_a = CrawlConfig(run_dir=str(tmp_path / "a"), **base)
    crawl(cfg_a)

    cfg_b = CrawlConfig(run_dir=str(tmp_path / "b"), max_rounds=2, **base)
    crawl(cfg_b)
    assert committed_rounds(str(tmp_path / "b")) == [0, 1]
    cfg_b.max_rounds = 50
    resume_crawl(cfg_b)

    assert read_order(str(tmp_path / "a")).equals(read_order(str(tmp_path / "b")))
    da = read_crawled(str(tmp_path / "a")).to_pandas().sort_values(["round", "host", "seq"])
    db = read_crawled(str(tmp_path / "b")).to_pandas().sort_values(["round", "host", "seq"])
    assert list(da["url"]) == list(db["url"])
    assert [bytes(x) for x in da["content"]] == [bytes(x) for x in db["content"]]


def test_actor_death_recovers_byte_identical(ray_session, tmp_path):
    """Kill a live seen-shard actor mid-crawl (round 2); run_with_recovery
    must rebuild shards from the last committed round and finish with
    results byte-identical to an undisturbed run — a lost node costs a
    round retry, not the job."""
    import ray

    from crawler_ray.fetchsim import FetchPolicy
    from crawler_ray.pipelines.checkpoint import run_with_recovery
    from crawler_ray.pipelines.crawl import (
        CrawlConfig,
        crawl,
        read_crawled,
        read_order,
    )
    from crawler_ray.urlkit import IncludePatterns
    from crawler_ray.webgen import ensure_web_sharded

    spec, corpus = ensure_web_sharded(250, 10, seed=7, cache_dir=str(tmp_path / "web"))
    policy = FetchPolicy(include=IncludePatterns(domain_patterns=frozenset([".test"])))
    seeds = [spec.url_of(i) for i in range(3)]
    base = dict(spec=spec, corpus_path=corpus, seeds=seeds, policy=policy)

    cfg_a = CrawlConfig(run_dir=str(tmp_path / "a"), **base)
    crawl(cfg_a)

    killed = []

    def kill_once(rnd, shards):
        if rnd == 2 and not killed:
            killed.append(rnd)
            ray.kill(shards[1].host, no_restart=True)

    cfg_b = CrawlConfig(run_dir=str(tmp_path / "b"), fault_hook=kill_once, **base)
    summary = run_with_recovery(cfg_b)
    assert killed == [2]
    assert summary.frontier_exhausted or summary.rounds > 0

    assert read_order(str(tmp_path / "a")).equals(read_order(str(tmp_path / "b")))
    da = read_crawled(str(tmp_path / "a")).to_pandas().sort_values(["round", "host", "seq"])
    db = read_crawled(str(tmp_path / "b")).to_pandas().sort_values(["round", "host", "seq"])
    assert list(da["url"]) == list(db["url"])
    assert [bytes(x) for x in da["content"]] == [bytes(x) for x in db["content"]]


def test_resume_of_quota_completed_run_is_a_noop(ray_session, tmp_path):
    """Review-found r5: resuming a quota-completed run previously executed
    one full extra round (fetching the whole frontier, trimming every doc
    to room 0) before the quota check fired — leaving order artifacts an
    undisturbed run never produces. Resume must change NOTHING."""
    from crawler_ray.fetchsim import FetchPolicy
    from crawler_ray.pipelines.checkpoint import committed_rounds, resume_crawl
    from crawler_ray.pipelines.crawl import CrawlConfig, crawl, read_order
    from crawler_ray.urlkit import IncludePatterns
    from crawler_ray.webgen import ensure_web_sharded

    spec, corpus = ensure_web_sharded(250, 10, seed=7, cache_dir=str(tmp_path / "web"))
    policy = FetchPolicy(include=IncludePatterns(domain_patterns=frozenset([".test"])))
    seeds = [spec.url_of(i) for i in range(3)]
    cfg = CrawlConfig(
        run_dir=str(tmp_path / "q"), spec=spec, corpus_path=corpus,
        seeds=seeds, policy=policy, limit=10,
    )
    s1 = crawl(cfg)
    assert s1.quota_reached and s1.stored == 10
    order_before = read_order(str(tmp_path / "q"))
    rounds_before = committed_rounds(str(tmp_path / "q"))

    s2 = resume_crawl(cfg)
    assert s2.stored == 10
    assert s2.rounds == 0  # no extra round ran
    assert committed_rounds(str(tmp_path / "q")) == rounds_before
    assert read_order(str(tmp_path / "q")).equals(order_before)


def test_stale_stop_consumed_on_natural_exit(ray_session, tmp_path):
    """Review-found r5: a stop sentinel dropped as the crawl exhausted was
    left behind and silently halted a FUTURE resume before its injections
    were applied. The finalizer must consume it."""
    import os

    from crawler_ray.fetchsim import FetchPolicy
    from crawler_ray.pipelines.checkpoint import resume_crawl
    from crawler_ray.pipelines.crawl import CrawlConfig, crawl
    from crawler_ray.urlkit import IncludePatterns
    from crawler_ray.webgen import ensure_web_sharded

    spec, corpus = ensure_web_sharded(250, 10, seed=7, cache_dir=str(tmp_path / "web"))
    policy = FetchPolicy(include=IncludePatterns(domain_patterns=frozenset([".test"])))
    cfg = CrawlConfig(
        run_dir=str(tmp_path / "s"), spec=spec, corpus_path=corpus,
        seeds=[spec.url_of(0)], policy=policy,
    )
    run_dir = str(tmp_path / "s")
    os.makedirs(os.path.join(run_dir, "inject"), exist_ok=True)
    # drop the stop BEFORE the run: consumed at round 0, halted=True
    with open(os.path.join(run_dir, "inject", "stop"), "w"):
        pass
    s1 = crawl(cfg)
    assert s1.halted
    # run to exhaustion, then drop a stop AFTER the crawl has exited: the
    # finalizer of the NEXT resume (entered via injections) must not be
    # poisoned by it. Simulate by dropping stop + a seed injection.
    s2 = resume_crawl(cfg)
    assert s2.frontier_exhausted and not s2.halted
    stop_f = os.path.join(run_dir, "inject", "stop")
    with open(stop_f, "w"):
        pass
    s3 = resume_crawl(cfg)  # exits on exhaustion; must consume stale stop
    assert not os.path.exists(stop_f), "stale stop sentinel left behind"
    with open(os.path.join(run_dir, "inject", "r5seeds.urls"), "w") as f:
        f.write(spec.url_of(5) + "\n")
    s4 = resume_crawl(cfg)
    assert not s4.halted  # injections applied, not silently halted
    # the injection was consumed (applied), not left pending behind a halt
    import glob

    assert not glob.glob(os.path.join(run_dir, "inject", "*.urls"))
