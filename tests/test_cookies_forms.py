"""Cookie jar + real form submission (round-2 features, SURVEY §2 M14/T3
and the fidelity half of S7): engine-vs-oracle parity with login-gated
session hosts, observable credential dependence, resume-carried cookies,
and the small fetch-fidelity fixes (redirect cap, Content-Length reject,
lazy form-action derelativisation)."""

import shutil

import pytest
import ray

from crawler_ray.configs import parse_form_instructions
from crawler_ray.fetchsim import FetchPolicy, process_url, simulate_fetch
from crawler_ray.formlogic import select_form_options
from crawler_ray.html import Form
from crawler_ray.oracle import run_oracle
from crawler_ray.pipelines.checkpoint import resume_crawl
from crawler_ray.pipelines.crawl import CrawlConfig, crawl, read_crawled, read_order
from crawler_ray.state.seen import STATUS_NAMES, make_shards
from crawler_ray.urlkit import IncludePatterns
from crawler_ray.webgen import WebSpec, ensure_web_sharded

# fixture chosen so a session host (2) has BOTH a public form page (329,
# seeded) and a link-reachable /private/ page -> the login's effect on the
# crawl is directly observable
N_PAGES, N_HOSTS, WEB_SEED = 500, 12, 1
FORM_SEED_PAGE = 329


@pytest.fixture(scope="module")
def web(tmp_path_factory):
    cache = tmp_path_factory.mktemp("web")
    return ensure_web_sharded(N_PAGES, N_HOSTS, seed=WEB_SEED, cache_dir=str(cache))


def _login_policy(spec, with_instructions=True):
    instr = {}
    if with_instructions:
        user, pw = spec.credentials()
        instr = parse_form_instructions(
            f"Label=login\nUrlRegex=/page/\nFormActionRegex=/submitLogin\n"
            f"username={user}\npassword={pw}\n"
        )
    return FetchPolicy(
        include=IncludePatterns(domain_patterns=frozenset([".test"])),
        form_instructions=instr,
    )


def _run(web, policy, run_dir, seeds, **kw):
    spec, corpus = web
    cfg = CrawlConfig(
        spec=spec, corpus_path=corpus, seeds=seeds, policy=policy,
        run_dir=str(run_dir), **kw,
    )
    shards = make_shards(cfg.n_seen_shards, cfg.seen_capacity_per_shard)
    summary = crawl(cfg, shards=shards)
    seen = {}
    for t in ray.get([s.full_table.remote() for s in shards]):
        for u, c in zip(t["url"].to_pylist(), t["status"].to_pylist()):
            seen[u] = STATUS_NAMES[c]
    return summary, seen


def test_cookie_crawl_matches_oracle(ray_session, web, tmp_path):
    """Full parity with login/session semantics active: seen set, stored
    docs, and the final shared-cookie list all match the oracle."""
    spec, _ = web
    policy = _login_policy(spec)
    seeds = [spec.url_of(FORM_SEED_PAGE)] + [spec.url_of(i) for i in range(4)]
    golden = run_oracle(spec, policy, seeds)
    summary, seen = _run(web, policy, tmp_path / "run", seeds)
    assert seen == golden.seen
    assert summary.cookies == golden.cookies
    assert summary.cookies, "session host never logged in - fixture too small"
    docs = read_crawled(str(tmp_path / "run")).to_pandas()
    assert set(docs["url"]) == {d["url"] for d in golden.crawled}


def test_dropping_cookies_changes_the_crawl(ray_session, web, tmp_path):
    """The behavior VERDICT r1 flagged as missing: outcomes must DEPEND on
    credentials + cookie persistence. Without instructions no session
    cookie is issued, gated pages 404, and strictly fewer docs store."""
    spec, _ = web
    seeds = [spec.url_of(FORM_SEED_PAGE)] + [spec.url_of(i) for i in range(4)]
    with_c = run_oracle(spec, _login_policy(spec, True), seeds)
    without_c = run_oracle(spec, _login_policy(spec, False), seeds)
    assert with_c.cookies and not without_c.cookies
    urls_with = {d["url"] for d in with_c.crawled}
    urls_without = {d["url"] for d in without_c.crawled}
    assert urls_with != urls_without
    gated = [
        u for u in urls_with - urls_without
        if "/private/" in u and spec.is_session_host(
            int(u.split("host")[1].split(".")[0])
        )
    ]
    assert gated, "no session-gated page observable in the diff"
    # engine agrees with the no-cookie oracle too
    _, seen = _run(web, _login_policy(spec, False), tmp_path / "run", seeds)
    assert seen == without_c.seen


def test_wrong_credentials_issue_no_cookie(web):
    spec, _ = web
    user, _pw = spec.credentials()
    instr = parse_form_instructions(
        f"Label=login\nUrlRegex=/page/\nFormActionRegex=/submitLogin\n"
        f"username={user}\npassword=WRONG\n"
    )
    policy = FetchPolicy(
        include=IncludePatterns(domain_patterns=frozenset([".test"])),
        form_instructions=instr,
    )
    golden = run_oracle(
        spec, policy,
        [spec.url_of(FORM_SEED_PAGE)] + [spec.url_of(i) for i in range(4)],
    )
    assert golden.cookies == {}


def test_cookies_survive_resume(ray_session, web, tmp_path):
    """Kill after 3 rounds, resume: identical output to straight-through —
    in particular the session cookie issued in an early round must gate
    later rounds identically (cookie list restored from the manifest)."""
    spec, corpus = web
    policy = _login_policy(spec)
    seeds = [spec.url_of(FORM_SEED_PAGE)] + [spec.url_of(i) for i in range(4)]
    base = dict(spec=spec, corpus_path=corpus, seeds=seeds, policy=policy)
    crawl(CrawlConfig(run_dir=str(tmp_path / "a"), **base))
    cfg_b = CrawlConfig(run_dir=str(tmp_path / "b"), max_rounds=3, **base)
    crawl(cfg_b)
    cfg_b.max_rounds = 50
    summary_b = resume_crawl(cfg_b)
    golden = run_oracle(spec, policy, seeds)
    assert summary_b.cookies == golden.cookies
    assert read_order(str(tmp_path / "a")).equals(read_order(str(tmp_path / "b")))
    da = read_crawled(str(tmp_path / "a")).to_pandas()
    db = read_crawled(str(tmp_path / "b")).to_pandas()
    assert set(da["url"]) == set(db["url"])


def test_form_submission_transmits_params(web):
    """The chain sub-fetch sends the merged params (Request.hs:33): a
    correct POST to /submitLogin sets the host's session cookie in the
    response."""
    spec, _ = web
    policy = _login_policy(spec)
    sess_host = next(h for h in range(N_HOSTS) if spec.is_session_host(h))
    form_page = next(
        i for i in range(N_PAGES)
        if spec.kind_of(i) == "form" and spec.host_of(i) == sess_host
        and not spec.is_private(i)
    )
    out = process_url(spec, policy, spec.url_of(form_page), lambda u: False)
    assert out.status == "stored"
    assert spec.session_cookie(sess_host) in out.shared_cookies


def test_redirect_cap_off_by_one(web):
    """Fetch.hs:58 'go _ 0 _' errors when the counter reaches zero: at
    most max_redirects-1 follows succeed (ADVICE r1)."""
    spec, _ = web
    redirect_page = next(i for i in range(N_PAGES) if spec.kind_of(i) == "redirect")
    chain, _t = spec.redirect_chain(redirect_page)
    hops = len(chain) - 1
    pol_tight = FetchPolicy(
        include=IncludePatterns(domain_patterns=frozenset([".test"])),
        max_redirects=hops,  # == follows -> must fail (counter hits 0)
    )
    fr = simulate_fetch(spec, pol_tight, spec.url_of(redirect_page))
    assert not fr.ok and "redirect" in fr.error.lower()
    pol_ok = FetchPolicy(
        include=IncludePatterns(domain_patterns=frozenset([".test"])),
        max_redirects=hops + 1,
    )
    assert simulate_fetch(spec, pol_ok, spec.url_of(redirect_page)).ok


def test_content_length_reject(web):
    """HttpUtil.hs:12-25 checkSize: a body above the cap FAILS the fetch
    (round 1 merely truncated it)."""
    spec, _ = web
    page = next(i for i in range(N_PAGES) if spec.kind_of(i) == "plain")
    policy = FetchPolicy(
        include=IncludePatterns(domain_patterns=frozenset([".test"])),
        max_content_length=10,
    )
    fr = simulate_fetch(spec, policy, spec.url_of(page))
    assert not fr.ok and "Content-Length" in fr.error


def test_form_action_laziness():
    """ADVICE r1: with no instruction whose UrlRegex matches the page, an
    un-derelativisable form action returns None instead of raising (the
    reference's error thunk is never forced)."""
    instr = parse_form_instructions(
        "Label=x\nUrlRegex=/elsewhere/\nFormActionRegex=/submit\n"
    )
    bad_form = Form(action="http://", method="post", inputs=[])
    assert select_form_options(instr, "http://h.test/page/1", [bad_form]) is None
    # but a URL-matching instruction still forces the thunk -> error
    instr2 = parse_form_instructions(
        "Label=x\nUrlRegex=/page/\nFormActionRegex=/submit\n"
    )
    with pytest.raises(ValueError):
        select_form_options(instr2, "http://h.test/page/1", [bad_form])
