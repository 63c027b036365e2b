"""Quota boundary/trim semantics and the runtime control surface
(Service.hs addUrl / addUrlIncludePattern as run_dir/inject files), plus
the ADVICE-r1 crash-rerun cleanup guarantee."""

import glob
import json
import os

import pytest

from crawler_ray.fetchsim import FetchPolicy
from crawler_ray.oracle import run_oracle
from crawler_ray.pipelines.checkpoint import committed_rounds, resume_crawl
from crawler_ray.pipelines.crawl import CrawlConfig, crawl, read_crawled, read_order
from crawler_ray.urlkit import IncludePatterns
from crawler_ray.webgen import ensure_web_sharded

N_PAGES, N_HOSTS = 300, 12


@pytest.fixture(scope="module")
def web(tmp_path_factory):
    cache = tmp_path_factory.mktemp("web")
    return ensure_web_sharded(N_PAGES, N_HOSTS, seed=42, cache_dir=str(cache))


@pytest.fixture(scope="module")
def policy():
    return FetchPolicy(include=IncludePatterns(domain_patterns=frozenset([".test"])))


def _cfg(web, policy, run_dir, seeds, **kw):
    spec, corpus = web
    return CrawlConfig(
        spec=spec, corpus_path=corpus, seeds=seeds, policy=policy,
        run_dir=str(run_dir), **kw,
    )


def test_quota_exact_boundary(ray_session, web, policy, tmp_path):
    """ADVICE r1: when a round lands EXACTLY on the limit the engine must
    stop (oracle.py:157 breaks on stored_total >= limit), not run extra
    rounds. Find a limit that a round boundary hits exactly."""
    spec, _ = web
    seeds = [spec.url_of(i) for i in range(3)]
    free = run_oracle(spec, policy, seeds)
    per_round: dict[int, int] = {}
    for d in free.crawled:
        per_round[d["round"]] = per_round.get(d["round"], 0) + 1
    # cumulative stored after round 1 = an exactly-reachable limit
    limit = per_round.get(0, 0) + per_round.get(1, 0)
    assert limit > 0
    golden = run_oracle(spec, policy, seeds, limit=limit)
    summary = crawl(_cfg(web, policy, tmp_path / "run", seeds, limit=limit))
    assert summary.quota_reached and summary.stored == limit
    # engine ran exactly the rounds the oracle ran
    assert summary.rounds == golden.rounds
    docs = read_crawled(str(tmp_path / "run")).to_pandas()
    assert set(docs["url"]) == {d["url"] for d in golden.crawled}


def test_quota_trim_inside_large_round(ray_session, web, policy, tmp_path):
    """Quota crossing mid-round: the two-pass trim must keep exactly the
    canonical (host, seq) prefix, preserve the per-shard docs file layout,
    and leave untouched files byte-identical."""
    spec, _ = web
    seeds = [spec.url_of(i) for i in range(4)]
    free = run_oracle(spec, policy, seeds)
    per_round: dict[int, int] = {}
    for d in free.crawled:
        per_round[d["round"]] = per_round.get(d["round"], 0) + 1
    big_round = max(per_round, key=per_round.get)
    before = sum(n for r, n in per_round.items() if r < big_round)
    limit = before + per_round[big_round] // 2  # crosses inside big_round
    golden = run_oracle(spec, policy, seeds, limit=limit)
    summary = crawl(_cfg(web, policy, tmp_path / "run", seeds, limit=limit))
    assert summary.stored == limit
    docs = read_crawled(str(tmp_path / "run")).to_pandas()
    assert len(docs) == limit
    assert set(docs["url"]) == {d["url"] for d in golden.crawled}
    # layout: still one docs file per (touched) docs group
    files = glob.glob(str(tmp_path / "run" / "round_*" / "docs" / "part-*.parquet"))
    assert files


def test_crash_rerun_leaves_no_stale_docs(ray_session, web, policy, tmp_path):
    """ADVICE r1 #2: a crash after the trim but before the manifest must
    not duplicate rows on rerun. Simulate by deleting the final round's
    MANIFEST (the crash window) and resuming."""
    spec, _ = web
    seeds = [spec.url_of(i) for i in range(3)]
    cfg = _cfg(web, policy, tmp_path / "run", seeds, limit=25)
    crawl(cfg)
    docs_before = read_crawled(str(tmp_path / "run")).to_pandas()
    last = committed_rounds(str(tmp_path / "run"))[-1]
    os.remove(str(tmp_path / "run" / f"round_{last:05d}" / "MANIFEST.json"))
    os.remove(str(tmp_path / "run" / "RUN_MANIFEST.json"))
    summary = resume_crawl(cfg)
    assert summary.stored == 25
    docs_after = read_crawled(str(tmp_path / "run")).to_pandas()
    assert len(docs_after) == 25 == len(docs_before)
    assert sorted(docs_after["url"]) == sorted(docs_before["url"])


def test_inject_urls_revive_and_extend(ray_session, web, policy, tmp_path):
    """run_dir/inject/*.urls (Service.hs addUrl): seeds dropped between
    runs are consumed at the next round boundary and revive an exhausted
    frontier; the consumed file is renamed."""
    spec, _ = web
    run = tmp_path / "run"
    # crawl a single seed to exhaustion within a few rounds
    seed0 = [spec.url_of(0)]
    cfg = _cfg(web, policy, run, seed0)
    s1 = crawl(cfg)
    urls_before = set(read_crawled(str(run)).to_pandas()["url"])
    # drop a new seed file and resume: frontier is exhausted, injection
    # revives it
    os.makedirs(run / "inject", exist_ok=True)
    extra = next(
        spec.url_of(i) for i in range(N_PAGES)
        if spec.url_of(i) not in urls_before and spec.kind_of(i) == "plain"
        and not spec.is_private(i)
    )
    with open(run / "inject" / "extra.urls", "w") as f:
        f.write(extra + "\n")
    s2 = resume_crawl(cfg)
    urls_after = set(read_crawled(str(run)).to_pandas()["url"])
    assert extra in urls_after
    assert urls_after > urls_before
    assert os.path.exists(run / "inject" / "extra.urls.consumed")


def test_inject_patterns_widen_include(ray_session, web, tmp_path):
    """run_dir/inject/*.patterns (Service.hs addUrlIncludePattern): a
    pattern file widens the URL include set for subsequent rounds."""
    spec, _ = web
    # restrictive policy: only non-private pages crawl (include by infix)
    narrow = FetchPolicy(
        include=IncludePatterns(url_patterns=frozenset(["/page/0"]))
    )
    run = tmp_path / "run"
    cfg = _cfg(web, narrow, run, [spec.url_of(0)], max_rounds=6)
    crawl(cfg)
    before = set(read_order(str(run))["url"].to_pylist())
    os.makedirs(run / "inject", exist_ok=True)
    with open(run / "inject" / "widen.patterns", "w") as f:
        f.write(".test\n")
    with open(run / "inject" / "more.urls", "w") as f:
        f.write(spec.url_of(1) + "\n")
    resume_crawl(cfg)
    after = set(read_order(str(run))["url"].to_pylist())
    assert after > before  # the widened include let new URLs through


def test_inject_patterns_survive_second_resume(ray_session, web, tmp_path):
    """ADVICE r2 (high): a pattern widening must persist across a LATER
    resume — resume_crawl restarts from cfg.policy (the original narrow
    set), so the widened set must be restored from inject_log, not live
    only in the process that consumed the file."""
    spec, _ = web
    narrow = FetchPolicy(
        include=IncludePatterns(url_patterns=frozenset(["/page/0"]))
    )
    run = tmp_path / "run"
    cfg = _cfg(web, narrow, run, [spec.url_of(0)], max_rounds=6)
    crawl(cfg)
    os.makedirs(run / "inject", exist_ok=True)
    with open(run / "inject" / "widen.patterns", "w") as f:
        f.write(".test\n")
    with open(run / "inject" / "more.urls", "w") as f:
        f.write(spec.url_of(1) + "\n")
    resume_crawl(cfg)
    after_first = set(read_order(str(run))["url"].to_pylist())
    docs_first = sorted(read_crawled(str(run)).to_pandas()["url"])
    # crash the last committed round and resume AGAIN in "fresh process"
    # state (resume_crawl rebuilds everything from cfg + run_dir): the
    # rerun must still apply the widened include set
    last = committed_rounds(str(run))[-1]
    os.remove(str(run / f"round_{last:05d}" / "MANIFEST.json"))
    os.remove(str(run / "RUN_MANIFEST.json"))
    resume_crawl(cfg)
    after_second = set(read_order(str(run))["url"].to_pylist())
    docs_second = sorted(read_crawled(str(run)).to_pandas()["url"])
    assert after_second == after_first
    assert docs_second == docs_first


def test_inject_urls_survive_commit_window_crash(ray_session, web, policy, tmp_path):
    """ADVICE r2 (medium): seeds consumed at round k live only in
    frontier_k until round k-1's deferred MANIFEST commits; a crash in
    that window makes the resume rerun round k-1, whose rmtree deletes
    frontier_k (including the injected rows). The inject_log replay must
    restore them."""
    spec, _ = web
    run = tmp_path / "run"
    cfg = _cfg(web, policy, run, [spec.url_of(0)])
    crawl(cfg)
    urls_before = set(read_crawled(str(run)).to_pandas()["url"])
    extra = next(
        spec.url_of(i) for i in range(N_PAGES)
        if spec.url_of(i) not in urls_before and spec.kind_of(i) == "plain"
        and not spec.is_private(i)
    )
    os.makedirs(run / "inject", exist_ok=True)
    with open(run / "inject" / "late.urls", "w") as f:
        f.write(extra + "\n")
    resume_crawl(cfg)
    docs_good = sorted(read_crawled(str(run)).to_pandas()["url"])
    assert extra in docs_good
    # the round that consumed the injection, from its log entry name
    ilog = sorted(glob.glob(str(run / "inject_log" / "r*-late.urls")))
    assert len(ilog) == 1
    k = int(os.path.basename(ilog[0])[1:6])
    # simulate the crash window: rounds k-1 and k uncommitted (k-1's
    # manifest commit was deferred into round k and never happened)
    for r in (k - 1, k):
        mf = run / f"round_{r:05d}" / "MANIFEST.json"
        if os.path.exists(mf):
            os.remove(mf)
    if os.path.exists(run / "RUN_MANIFEST.json"):
        os.remove(run / "RUN_MANIFEST.json")
    resume_crawl(cfg)  # reruns k-1: its rmtree wipes frontier_k first
    docs_after = sorted(read_crawled(str(run)).to_pandas()["url"])
    assert extra in docs_after
    assert docs_after == docs_good


def test_stop_verb_halts_and_resumes_exactly(ray_session, web, policy, tmp_path):
    """run_dir/inject/stop (Service.hs:79-80): consumed at the round
    boundary — halt with the frontier intact; resume completes the crawl
    identically to an uninterrupted run."""
    spec, _ = web
    seeds = [spec.url_of(i) for i in range(3)]
    golden = crawl(_cfg(web, policy, tmp_path / "golden", seeds))
    docs_golden = sorted(
        read_crawled(str(tmp_path / "golden")).to_pandas()["url"]
    )

    run = tmp_path / "run"
    cfg = _cfg(web, policy, run, seeds, max_rounds=2)
    crawl(cfg)  # simulate a crawl in flight, stopped after 2 rounds
    os.makedirs(run / "inject", exist_ok=True)
    open(run / "inject" / "stop", "w").close()
    cfg_full = _cfg(web, policy, run, seeds)  # lift the round cap
    s2 = resume_crawl(cfg_full)  # sees the sentinel at its first boundary
    assert s2.halted and not s2.frontier_exhausted
    assert os.path.exists(run / "inject" / "stop.consumed")
    from crawler_ray.pipelines.crawl import read_status

    st = read_status(str(run))  # live status surface (Service.hs status)
    assert st["state"] == "halted" and st["queue_size"] > 0
    n_docs_at_stop = len(read_crawled(str(run)).to_pandas())
    s3 = resume_crawl(cfg_full)
    assert not s3.halted and s3.frontier_exhausted
    docs_final = sorted(read_crawled(str(run)).to_pandas()["url"])
    assert docs_final == docs_golden
    assert len(docs_final) >= n_docs_at_stop
    assert golden.stored == len(docs_golden)


def test_status_surface_tracks_run(ray_session, web, policy, tmp_path):
    """STATUS.json (Service.hs:50-63 status/queueSize): refreshed at every
    round boundary; terminal state recorded at exit."""
    from crawler_ray.pipelines.crawl import read_status

    spec, _ = web
    run = tmp_path / "run"
    assert read_status(str(run)) is None
    s = crawl(_cfg(web, policy, run, [spec.url_of(i) for i in range(3)]))
    st = read_status(str(run))
    assert st["state"] == "exhausted"
    assert st["queue_size"] == 0
    assert st["stored"] == s.stored
    assert st["fetched"] == s.fetched
    # quota runs end in state=quota
    run2 = tmp_path / "run2"
    crawl(_cfg(web, policy, run2, [spec.url_of(i) for i in range(3)], limit=10))
    assert read_status(str(run2))["state"] == "quota"


def test_manifest_carries_cookie_state(ray_session, web, tmp_path):
    spec, _ = web
    from crawler_ray.configs import parse_form_instructions

    user, pw = spec.credentials()
    policy = FetchPolicy(
        include=IncludePatterns(domain_patterns=frozenset([".test"])),
        form_instructions=parse_form_instructions(
            f"Label=l\nUrlRegex=/page/\nFormActionRegex=/submitLogin\n"
            f"username={user}\npassword={pw}\n"
        ),
    )
    run = tmp_path / "run"
    summary = crawl(_cfg(web, policy, run, [spec.url_of(i) for i in range(4)]))
    if summary.cookies:
        last = committed_rounds(str(run))[-1]
        with open(run / f"round_{last:05d}" / "MANIFEST.json") as f:
            m = json.load(f)
        assert m["cookies"] == summary.cookies
