"""Workload inputs, derived from (workload, seed) alone.

For every run the benchmark generates the synthetic web from the seed in
its own cache, computes the single-threaded oracle's golden result
(untimed) and writes a plan for the session process. The engine only
ever sees the generated web, the seed URLs and the crawl parameters.
"""

from __future__ import annotations

import collections
import glob
import json
import os
import pickle
import shutil
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_PATH = os.path.join(HERE, "workloads.json")
# seeds whose webs stay cached; older ones are pruned so a long series of
# seeds does not fill the disk
KEEP_CACHED_WEBS = 6
# the synthetic web's hosts all end in .test
INCLUDE_DOMAINS = frozenset({".test"})


def load_config() -> dict:
    with open(CONFIG_PATH) as f:
        return json.load(f)


def policy():
    """The crawl's fetch policy: every host of the synthetic web."""
    from crawler_ray.fetchsim import FetchPolicy
    from crawler_ray.urlkit import IncludePatterns

    return FetchPolicy(include=IncludePatterns(domain_patterns=INCLUDE_DOMAINS))


def web_shape(wl: dict) -> tuple[int, int]:
    n_pages = wl["n_pages"]
    return n_pages, max(4, n_pages // wl["pages_per_host"])


def build_web(wl: dict, seed: int, cache_dir: str):
    """(spec, corpus_path). Each seed's webs live in their own
    subdirectory of ``cache_dir``."""
    from crawler_ray.webgen import ensure_web_sharded

    n_pages, n_hosts = web_shape(wl)
    seed_dir = os.path.join(cache_dir, f"seed{seed}")
    os.makedirs(seed_dir, exist_ok=True)
    os.utime(seed_dir)  # most recently used: kept by the pruning below
    spec, corpus_path = ensure_web_sharded(
        n_pages, n_hosts, wl["n_fetch_shards"], seed=seed, cache_dir=seed_dir
    )
    by_age = sorted(glob.glob(os.path.join(cache_dir, "seed*")), key=os.path.getmtime)
    for old in by_age[:-KEEP_CACHED_WEBS]:
        shutil.rmtree(old, ignore_errors=True)
    return spec, corpus_path


def golden_of(res) -> dict:
    """The parts of an OracleResult the gate compares, in plain types."""
    return {
        "order": sorted(res.order),
        "seen": dict(res.seen),
        "crawled": sorted(
            (d["url"], d["round"], d["host"], d["seq"]) for d in res.crawled
        ),
        "page_ids": [d["page_id"] for d in res.crawled],
    }


def _resume_quota(full, offset: int) -> tuple[int, int]:
    """(checkpoint stop round, stored-doc quota). The checkpoint stops
    just before the peak round, so the resumed call starts by reading the
    largest frontier from its lineage files and carries most of the URLs
    (the tail after the peak is small and varies widely between seeds).
    The quota is crossed, mid-round, in a round at most ``offset`` rounds
    after the peak that stored at least two docs."""
    per_round = collections.Counter(r for r, *_ in full.order)
    stored = collections.Counter(d["round"] for d in full.crawled)
    peak = max(sorted(per_round), key=lambda r: per_round[r])
    late = [
        r for r in range(peak + 1, min(peak + offset, full.rounds - 1) + 1)
        if stored[r] >= 2
    ]
    if not late:
        raise ValueError("web has no late round to cross a quota in")
    cross = late[-1]
    limit = sum(stored[r] for r in range(cross)) + stored[cross] // 2
    return max(0, peak - 1), limit


def make_plan(
    name: str, seed: int, work_dir: str, run_dir: str, cfg: dict | None = None
) -> dict:
    """Generate the inputs of one run and return the session's plan. The
    golden result is pickled next to the plan (run_dir is this run's own
    scratch directory, written only by this program). ``cfg`` defaults to
    workloads.json."""
    from crawler_ray.oracle import run_oracle

    cfg = cfg or load_config()
    if name not in cfg["workloads"]:
        raise SystemExit(f"unknown workload {name!r}")
    wl = dict(cfg["workloads"][name])
    if "base" in wl:
        wl = {**cfg["workloads"][wl["base"]], **wl}
    spec, corpus_path = build_web(
        wl, seed, os.path.join(work_dir, "cache")
    )
    pol = policy()
    seeds = [spec.url_of(i) for i in range(wl["n_seeds"])]

    t0 = time.perf_counter()
    full = run_oracle(spec, pol, seeds)
    oracle_s = time.perf_counter() - t0
    limit = None
    stop_round = None
    golden_res = full
    if "quota_round_offset" in wl:
        stop_round, limit = _resume_quota(full, wl["quota_round_offset"])
        golden_res = run_oracle(spec, pol, seeds, limit=limit)
    capacity = wl.get("seen_capacity_per_shard")
    if "seen_saturation" in wl:
        capacity = max(
            1, len(full.seen) // (wl["seen_saturation"] * wl["n_seen_shards"])
        )

    golden_path = os.path.join(run_dir, "golden.pkl")
    with open(golden_path, "wb") as f:
        pickle.dump(golden_of(golden_res), f)
    return {
        "workload": name,
        "seed": seed,
        "n_pages": spec.n_pages,
        "n_hosts": spec.n_hosts,
        "corpus_path": corpus_path,
        "seeds": seeds,
        "limit": limit,
        "stop_round": stop_round,
        "verify_payload": wl["verify_payload"],
        "n_fetch_shards": wl["n_fetch_shards"],
        "n_seen_shards": wl["n_seen_shards"],
        "seen_capacity_per_shard": capacity,
        "golden_path": golden_path,
        "run_dir": run_dir,
        "work_dir": work_dir,
        "golden_urls": len(golden_res.order),
        "oracle_urls": len(full.order),
        "oracle_s": oracle_s,
    }
