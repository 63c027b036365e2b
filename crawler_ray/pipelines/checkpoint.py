"""Checkpoint / resume: rebuild seen shards from per-round deltas and
continue the crawl at the first uncommitted round.

The reference has NO persistence — all state is STM, a kill loses the crawl
(SURVEY.md §4 'Checkpoint / resume'). The north rule requires exact
mid-crawl resume with per-partition lineage. Layout written by
pipelines.crawl:

    run_dir/
      frontier_0000k/from_<h>.parquet  round-k input frontier, one file per
                                       seen host h (its lowest shard id)
      round_00000/
        docs/part-<group>.parquet      stored docs (one per docs task)
        order/part-<lead>.parquet      canonical (host, seq) processing log
        logs/part-<lead>.parquet       warning/error stream
        seen_delta/shard-<h>.parquet   seen host h's delta, rows by ``shard``
        MANIFEST.json                  commit record {round, stats, complete}
      RUN_MANIFEST.json                end-of-run summary

A round is durable iff its MANIFEST.json exists (written atomically last).
Resume: replay every committed round's seen deltas into fresh seen shards
(in round order — later statuses overwrite earlier ones, exactly the order
the live run applied them), then restart the loop at the first uncommitted
round with its already-written input frontier. Partially-written artifacts
of the uncommitted round are overwritten by the rerun (atomic per-file
replace), so a crash at ANY point yields a byte-identical final run.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..state.seen import SEEN_DELTA_SCHEMA, make_shards
from .crawl import CrawlConfig, CrawlSummary, crawl


def committed_rounds(run_dir: str) -> list[int]:
    out = []
    for mf in sorted(glob.glob(os.path.join(run_dir, "round_*", "MANIFEST.json"))):
        with open(mf) as f:
            m = json.load(f)
        if m.get("complete"):
            out.append(m["round"])
    return sorted(out)


def rebuild_shards(cfg: CrawlConfig, upto_round: int):
    """Fresh seen shards restored from deltas of rounds [0, upto_round].
    Each delta file is split by its ``shard`` column, keeping row order,
    so a file of one seen host's shards and one of a single shard (runs
    written before the per-host layout) restore alike."""
    shards = make_shards(cfg.n_seen_shards, cfg.seen_capacity_per_shard)
    for rnd in range(upto_round + 1):
        ddir = os.path.join(cfg.run_dir, f"round_{rnd:05d}", "seen_delta")
        refs = []
        for f in sorted(glob.glob(os.path.join(ddir, "shard-*.parquet"))):
            t = pq.read_table(f, columns=SEEN_DELTA_SCHEMA.names)
            sid = t["shard"].to_numpy()
            for shard_id in np.unique(sid):
                part = t.filter(pa.array(sid == shard_id)).drop_columns(["shard"])
                # one record batch: a pa.Table argument would make the seen
                # host import pandas to deserialize it (state/seen.py SeenHost)
                batch = part.combine_chunks().to_batches()[0]
                refs.append(shards[int(shard_id)].restore.remote(batch))
        ray.get(refs)
    return shards


def run_with_recovery(cfg: CrawlConfig, max_round_retries: int = 2) -> CrawlSummary:
    """Driver-level fault recovery: a lost seen host actor (hosts 1..;
    host 0 lives in the driver and goes down with it), fetch task or
    node aborts only the round in flight. Catch the Ray-level failure,
    rebuild FRESH seen shards from the last committed round's deltas
    (``resume_crawl``), and continue — rounds are deterministic and
    commits are atomic (one-round deferred), so a retried round is
    byte-identical to an undisturbed one. With per-round commits this
    bounds the cost of losing a node to re-running at most two rounds,
    instead of restarting a 10^10-URL job.

    Note: the returned summary's ``fetched`` counts from the last resume
    point (the durable artifacts under ``run_dir`` are the full record)."""
    import ray.exceptions as rex

    attempts = 0
    while True:
        try:
            return resume_crawl(cfg)
        except rex.RayError:
            attempts += 1
            if attempts > max_round_retries:
                raise


def resume_crawl(cfg: CrawlConfig) -> CrawlSummary:
    """Continue (or finish) a crawl from its last committed round."""
    rounds = committed_rounds(cfg.run_dir)
    if not rounds:
        return crawl(cfg)
    last = rounds[-1]
    shards = rebuild_shards(cfg, last)
    stored = 0
    cookies: dict = {}
    for rnd in rounds:
        with open(os.path.join(cfg.run_dir, f"round_{rnd:05d}", "MANIFEST.json")) as f:
            m = json.load(f)
        stored += m["stats"]["stored"]
        cookies = m.get("cookies", cookies)  # last committed round's list
    next_frontier = os.path.join(cfg.run_dir, f"frontier_{last + 1:05d}")
    return crawl(
        cfg,
        shards=shards,
        start_round=last + 1,
        start_frontier_path=next_frontier,
        stored_so_far=stored,
        cookies0=cookies,
    )
