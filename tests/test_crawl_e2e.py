"""End-to-end: Ray crawl engine vs single-threaded oracle.

Parity gates (SURVEY.md §5): final seen-set equality, canonical
(round, host, seq) crawl-order equality, stored-doc set equality, per-row
payload invariant (decoded pixels + caption vs corpus), politeness
(each host's fetches in one task per round), quota, determinism across
shard counts.
"""

import collections
import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import crawler_ray.pipelines.crawl as crawl_mod
from crawler_ray.codecs import decode_image, encode_image, psnr
from crawler_ray.fetchsim import FetchPolicy
from crawler_ray.oracle import run_oracle
from crawler_ray.pipelines.crawl import CrawlConfig, crawl, read_crawled, read_order
from crawler_ray.sources.corpus import open_corpus
from crawler_ray.state.seen import STATUS_NAMES, make_shards, seen_hosts
from crawler_ray.urlkit import IncludePatterns
from crawler_ray.webgen import WebSpec, ensure_web_sharded

import ray

N_PAGES, N_HOSTS = 300, 12


@pytest.fixture(scope="module")
def web(tmp_path_factory):
    cache = tmp_path_factory.mktemp("web")
    spec, corpus_path = ensure_web_sharded(N_PAGES, N_HOSTS, seed=42, cache_dir=str(cache))
    return spec, corpus_path


@pytest.fixture(scope="module")
def policy():
    return FetchPolicy(include=IncludePatterns(domain_patterns=frozenset([".test"])))


def _run_engine(web, policy, tmp, seeds, limit=None, **kw):
    spec, corpus_path = web
    cfg = CrawlConfig(
        spec=spec,
        corpus_path=corpus_path,
        seeds=seeds,
        policy=policy,
        run_dir=str(tmp),
        limit=limit,
        **kw,
    )
    shards = make_shards(cfg.n_seen_shards, cfg.seen_capacity_per_shard)
    summary = crawl(cfg, shards=shards)
    seen = {}
    for t in ray.get([s.full_table.remote() for s in shards]):
        for u, c in zip(t["url"].to_pylist(), t["status"].to_pylist()):
            seen[u] = STATUS_NAMES[c]
    return summary, seen


def test_engine_matches_oracle(ray_session, web, policy, tmp_path):
    spec, _ = web
    seeds = [spec.url_of(i) for i in range(4)]
    golden = run_oracle(spec, policy, seeds)
    summary, seen = _run_engine(web, policy, tmp_path / "run", seeds)

    assert seen == golden.seen

    order = read_order(str(tmp_path / "run"))
    got = list(
        zip(
            order["round"].to_pylist(),
            order["host"].to_pylist(),
            order["seq"].to_pylist(),
            order["url"].to_pylist(),
        )
    )
    want = sorted(golden.order)
    assert got == want

    docs = read_crawled(str(tmp_path / "run")).to_pandas()
    want_docs = {(d["url"], d["round"], d["host"], d["seq"]) for d in golden.crawled}
    got_docs = set(zip(docs["url"], docs["round"], docs["host"], docs["seq"]))
    assert got_docs == want_docs
    # redirect chains match
    gold_chain = {d["url"]: d["redirect_chain"] for d in golden.crawled}
    for _, row in docs.iterrows():
        assert list(row["redirect_chain"]) == gold_chain[row["url"]]


def test_one_seen_shard_runs_in_the_driver(ray_session, web, policy, tmp_path):
    """At n_seen_shards=1 the only seen host is the driver's own: the crawl
    starts no seen actor and still matches the oracle."""
    from ray.actor import ActorHandle

    spec, corpus_path = web
    seeds = [spec.url_of(i) for i in range(4)]
    golden = run_oracle(spec, policy, seeds)
    cfg = CrawlConfig(
        spec=spec, corpus_path=corpus_path, seeds=seeds, policy=policy,
        run_dir=str(tmp_path / "run"), n_seen_shards=1,
    )
    shards = make_shards(1, cfg.seen_capacity_per_shard)
    hosts = seen_hosts(shards)
    assert len(hosts) == 1
    assert not any(isinstance(h, ActorHandle) for h in hosts)
    summary = crawl(cfg, shards=shards)

    (t,) = ray.get([s.full_table.remote() for s in shards])
    seen = {
        u: STATUS_NAMES[c]
        for u, c in zip(t["url"].to_pylist(), t["status"].to_pylist())
    }
    assert seen == golden.seen
    order = read_order(cfg.run_dir)
    got = list(
        zip(*(order[c].to_pylist() for c in ("round", "host", "seq", "url")))
    )
    assert got == sorted(golden.order)
    assert summary.stored == len(golden.crawled)


def test_payload_invariant(ray_session, web, policy, tmp_path):
    """input_hint: decoded-pixel allclose (PSNR>=40 lossy) + caption eq."""
    spec, _ = web
    seeds = [spec.url_of(0)]
    _run_engine(web, policy, tmp_path / "run", seeds, limit=40)
    docs = read_crawled(str(tmp_path / "run")).to_pandas()
    assert len(docs) == 40
    for _, row in docs.iterrows():
        pid = int(row["image_id"][3:])
        expect = spec.pixels_of(pid)
        got = decode_image(row["image_bytes"])
        if row["fmt"] == "jpeg":
            assert psnr(expect, got) >= 40.0
        else:
            assert np.array_equal(expect, got)
        assert row["caption"] == spec.caption_of(pid)
        assert row["phash"] is not None
        # the body the fetch shipped is the page it stored
        assert row["content"] == spec.render_page(pid, spec.caption_of(pid)).encode()


def test_inline_verify_payload_column(ray_session, web, policy, tmp_path):
    """verify_payload=True: the docs sink's BATCHED invariant (shape-
    grouped PSNR / exact pixels / phash, stages/fetch.py) must agree with
    the per-image formulation — every stored doc gets payload_ok=1 on an
    untampered corpus, covering all three formats."""
    spec, _ = web
    seeds = [spec.url_of(i) for i in range(4)]
    _run_engine(web, policy, tmp_path / "run", seeds, verify_payload=True)
    docs = read_crawled(str(tmp_path / "run")).to_pandas()
    assert len(docs) > 50
    assert set(docs["fmt"]) == {"bmp", "png", "jpeg"}  # all codecs hit
    assert (docs["payload_ok"] == 1).all()
    # cross-check a sample against the per-image reference formulation
    from crawler_ray.codecs import perceptual_hash

    for _, row in docs.head(24).iterrows():
        pid = int(row["image_id"][3:])
        expect = spec.pixels_of(pid)
        got = decode_image(row["image_bytes"])
        ok = (
            (psnr(expect, got) >= 40.0 if row["fmt"] == "jpeg"
             else np.array_equal(expect, got))
            and row["caption"] == spec.caption_of(pid)
            and perceptual_hash(expect) == row["phash"]
        )
        assert ok == bool(row["payload_ok"])


class _TamperedCorpus:
    """A corpus handle whose ``take_pages`` rewrites the payload row of
    each page in ``edits`` (page id -> function of the row dict)."""

    def __init__(self, store, edits):
        self.store, self.edits = store, edits

    def take_pages(self, page_ids):
        t = self.store.take_pages(page_ids)
        rows = t.to_pylist()
        for row, p in zip(rows, page_ids):
            if p in self.edits:
                self.edits[p](row)
        return pa.Table.from_pylist(rows, schema=t.schema)


def _flip_pixel(row):
    px = decode_image(row["bytes"]).copy()
    px[0, 0, 0] ^= 0x01
    row["bytes"] = encode_image(px, row["fmt"])


def _jpeg_noise(row):
    px = decode_image(row["bytes"]).astype(np.int16)
    px += np.where(np.indices(px.shape).sum(axis=0) % 2, 24, -24).astype(np.int16)
    row["bytes"] = encode_image(np.clip(px, 0, 255).astype(np.uint8), "jpeg")


def _recaption(row):
    row["caption"] += " (edited)"


def _flip_phash_bit(row):
    row["phash"] ^= 1


def _truncate(row):
    row["bytes"] = row["bytes"][:20]


def _half_size(row):
    row["bytes"] = encode_image(decode_image(row["bytes"])[::2, ::2].copy(), row["fmt"])


def _write_docs(spec, corpus_path, run_dir, monkeypatch, edits, *groups):
    """write_docs_group in-process over docs returns holding the pages of
    each of ``groups``; the written part's payload_ok by page id, or None
    when no part is written."""
    from crawler_ray.stages import fetch as stages_fetch
    from crawler_ray.urlkit import get_domain

    monkeypatch.setitem(
        stages_fetch._CORPUS_CACHE, corpus_path,
        _TamperedCorpus(open_corpus(corpus_path), edits),
    )
    ctx = {"spec": spec, "corpus_path": corpus_path, "run_dir": str(run_dir),
           "verify_payload": True}
    tbls = [
        stages_fetch.docs_table([
            {
                "url": spec.url_of(p), "redirect_chain": [spec.url_of(p)],
                "worker_id": "shard-0", "round": 0,
                "host": get_domain(spec.url_of(p)), "seq": k, "hops": 0,
                "page_id": p,
                "content": spec.render_page(p, spec.caption_of(p)).encode(),
            }
            for k, p in enumerate(pids)
        ])
        for pids in groups
    ]
    out = stages_fetch.write_docs_group(0, ctx, 0, *tbls)
    path = os.path.join(str(run_dir), "round_00000", "docs", "part-00000.parquet")
    if not os.path.exists(path):
        assert out["n"] == 0
        return None
    t = pq.read_table(path)
    assert out["n"] == t.num_rows
    pids = [int(i[3:]) for i in t["image_id"].to_pylist()]
    assert pids == [p for g in groups for p in g]  # written as handed over
    for p, body in zip(pids, t["content"].to_pylist()):
        assert body == spec.render_page(p, spec.caption_of(p)).encode()
    return dict(zip(pids, t["payload_ok"].to_pylist()))


def test_verify_fails_tampered_payloads(web, tmp_path, monkeypatch):
    """The sink's verify marks payload_ok=0 on exactly the rows whose
    payload was tampered with — a flipped lossless pixel byte, JPEG noise
    below 40 dB, a changed caption, one flipped phash bit, a png and a
    jpeg payload cut to 20 bytes, a payload encoded at half its row's
    size — and 1 on the rest; 0-row and 1-row inputs included. An
    unreadable payload fails its own row, not the docs task."""
    spec, corpus_path = web
    pids = list(range(24))
    pngs = [p for p in pids if spec.fmt_of(p) == "png"]
    jpegs = [p for p in pids if spec.fmt_of(p) == "jpeg"]
    lossless, jpeg = pngs[0], jpegs[0]
    cut_png, cut_jpeg, resized = pngs[1], jpegs[1], pngs[2]
    tampered = (lossless, jpeg, cut_png, cut_jpeg, resized)
    rest = [p for p in pids if p not in tampered]
    edits = {
        lossless: _flip_pixel, jpeg: _jpeg_noise,
        rest[0]: _recaption, rest[1]: _flip_phash_bit,
        cut_png: _truncate, cut_jpeg: _truncate, resized: _half_size,
    }
    cut = _TamperedCorpus(open_corpus(corpus_path), edits).take_pages([cut_png, cut_jpeg])
    for data in cut["bytes"].to_pylist():
        with pytest.raises(ValueError):
            decode_image(data)
    noisy = _TamperedCorpus(open_corpus(corpus_path), edits).take_pages([jpeg])
    assert psnr(spec.pixels_of(jpeg), decode_image(noisy["bytes"][0].as_py())) < 40.0

    # two docs returns, as from two fetch tasks of a round
    ok = _write_docs(
        spec, corpus_path, tmp_path / "all", monkeypatch, edits,
        pids[:10], pids[10:],
    )
    assert ok == {p: int(p not in edits) for p in pids}
    assert _write_docs(
        spec, corpus_path, tmp_path / "none", monkeypatch, edits, [], []
    ) is None
    for p in (rest[2], *tampered, rest[0], rest[1]):
        assert _write_docs(
            spec, corpus_path, tmp_path / f"one_{p}", monkeypatch, edits, [p]
        ) == {p: int(p not in edits)}


def test_determinism_across_shard_counts(ray_session, web, policy, tmp_path):
    """Metamorphic: different fetch/seen shard counts -> identical outputs."""
    spec, _ = web
    seeds = [spec.url_of(i) for i in range(3)]
    s1, seen1 = _run_engine(
        web, policy, tmp_path / "a", seeds, n_fetch_shards=4, n_seen_shards=2,
    )
    s2, seen2 = _run_engine(
        web, policy, tmp_path / "b", seeds, n_fetch_shards=32, n_seen_shards=16,
    )
    # more than 32 fetch shards: two shards share each lineage row group
    s3, seen3 = _run_engine(
        web, policy, tmp_path / "c", seeds, n_fetch_shards=48, n_seen_shards=4,
    )
    assert seen1 == seen2 == seen3
    o1 = read_order(str(tmp_path / "a"))
    for other in ("b", "c"):
        o2 = read_order(str(tmp_path / other))
        assert o1["url"].to_pylist() == o2["url"].to_pylist()
        assert o1["seq"].to_pylist() == o2["seq"].to_pylist()


def test_quota_matches_oracle(ray_session, web, policy, tmp_path):
    spec, _ = web
    seeds = [spec.url_of(i) for i in range(3)]
    golden = run_oracle(spec, policy, seeds, limit=25)
    summary, _ = _run_engine(web, policy, tmp_path / "run", seeds, limit=25)
    assert summary.stored == 25
    docs = read_crawled(str(tmp_path / "run")).to_pandas()
    assert set(docs["url"]) == {d["url"] for d in golden.crawled}


def test_politeness_no_host_overlap(ray_session, web, policy, tmp_path, monkeypatch):
    """At most one in-flight fetch per host (the reference's one-thread-
    per-domain invariant, PoliteQueue.hs:34-64), checked structurally:
    with rounds cut into several fetch tasks, every host's order rows of
    a round lie in exactly one task's order part, with seqs 0..n-1. A
    task fetches its rows one at a time and a round is a barrier, so no
    two fetches of a host overlap in time."""
    monkeypatch.setattr(crawl_mod, "ROWS_PER_TASK", 4)
    spec, _ = web
    seeds = [spec.url_of(i) for i in range(4)]
    _run_engine(web, policy, tmp_path / "run", seeds)
    rdirs = sorted(glob.glob(str(tmp_path / "run" / "round_*")))
    assert rdirs
    n_multi_task = 0
    for rdir in rdirs:
        parts = sorted(glob.glob(os.path.join(rdir, "order", "*.parquet")))
        n_multi_task += len(parts) > 1
        seqs_of: dict[str, list] = {}
        part_of: dict[str, set] = {}
        for f in parts:
            t = pq.read_table(f, columns=["host", "seq"])
            for h, q in zip(t["host"].to_pylist(), t["seq"].to_pylist()):
                seqs_of.setdefault(h, []).append(q)
                part_of.setdefault(h, set()).add(f)
        for h, seqs in seqs_of.items():
            assert len(part_of[h]) == 1, (rdir, h)
            assert sorted(seqs) == list(range(len(seqs))), (rdir, h)
    assert n_multi_task >= 2  # the check saw rounds of several tasks


def test_checkpoint_artifacts_exist(ray_session, web, policy, tmp_path):
    spec, _ = web
    _run_engine(web, policy, tmp_path / "run", [spec.url_of(0)], max_rounds=2)
    rdirs = sorted(glob.glob(str(tmp_path / "run" / "round_*")))
    assert rdirs
    for rdir in rdirs:
        assert os.path.exists(os.path.join(rdir, "MANIFEST.json"))
        assert glob.glob(os.path.join(rdir, "seen_delta", "*.parquet"))
    assert os.path.exists(str(tmp_path / "run" / "RUN_MANIFEST.json"))


def test_run_manifest_reports_driver_cpu(ray_session, web, policy, tmp_path):
    """RUN_MANIFEST.json carries the driver's CPU seconds from crawl()
    entry to the manifest write."""
    import json

    spec, _ = web
    _run_engine(web, policy, tmp_path / "run", [spec.url_of(0)], max_rounds=2)
    with open(tmp_path / "run" / "RUN_MANIFEST.json") as f:
        manifest = json.load(f)
    assert manifest["driver_cpu_s"] >= 0
