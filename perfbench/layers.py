"""Per-layer measurements for the traced run.

Everything here is measured from outside the engine: spans around the
benchmark's own calls into each module's public functions, the phase
timings the engine already writes to ``RUN_MANIFEST.json``, and micro
cases that call a layer's public functions on inputs taken from the same
workload (the URLs the oracle visited, the pages it rendered, the run's
own seen deltas and frontier files).
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import statistics
import time
import tracemalloc

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# micro cases run on at most this many inputs, each pass repeated
SAMPLE = 400
REPEATS = 3


class Spans:
    """In-memory span recorder: (name, start, end, parent index, run id).
    Spans are written out once, at the end of the run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.rows: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.rows)
        self.rows.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.rows[idx][2] = time.perf_counter()

    def wrap(self, module, attr: str, keep: list | None = None):
        """Replace ``module.attr`` by a spanned call; returns an undo.
        With ``keep``, every return value is appended to it."""
        orig = getattr(module, attr)

        def spanned(*a, **kw):
            with self.span(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"):
                out = orig(*a, **kw)
            if keep is not None:
                keep.append(out)
            return out

        setattr(module, attr, spanned)
        return lambda: setattr(module, attr, orig)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        child = [0.0] * len(self.rows)
        for name, t0, t1, parent, _ in self.rows:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for i, (name, t0, t1, _p, _r) in enumerate(self.rows):
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [
                        dict(zip(("name", "start", "end", "parent", "run"), r))
                        for r in self.rows
                    ],
                    "self_s": self.self_times(),
                },
                f,
                indent=1,
            )


def span_cost_s(n: int = 4000) -> float:
    """Cost of recording one span, for the overhead estimate."""
    probe = Spans("probe")
    t0 = time.perf_counter()
    for _ in range(n):
        with probe.span("x"):
            pass
    return (time.perf_counter() - t0) / n


def _union_len(spans: list) -> float:
    total, end = 0.0, None
    for a, b in sorted(spans):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def manifest_metrics(run_dir: str, call_wall_s: float) -> dict[str, float]:
    """Critical path and per-layer task time, copied from the engine's
    RUN_MANIFEST.json; the fetch wait is the phase wall minus the union
    of the fetch task spans."""
    with open(os.path.join(run_dir, "RUN_MANIFEST.json")) as f:
        rs = json.load(f)["round_stats"]

    def total(key, sub=None):
        return float(sum((r[sub] if sub else r)[key] for r in rs))

    wait = sum(
        max(0.0, r["sec_fetch"] - _union_len(r["fetch_spans"])) for r in rs
    )
    out = {
        "crawl.rounds": float(len(rs)),
        "crawl.round0_s": float(rs[0]["sec_round"]),
        "crawl.fetch_phase_s": total("sec_fetch"),
        "crawl.barrier_s": total("sec_combined"),
        "crawl.outside_rounds_s": call_wall_s - total("sec_round"),
        "crawl.fetch_wait_s": wait,
    }
    for key in ("t_read", "t_proc", "t_cpu", "t_meta"):
        out[f"fetch.{key[2:]}_s"] = total(key, "fetch_phases")
    for key in ("t_read", "t_mut", "t_cand", "t_write", "t_delta"):
        out[f"combined.{key[2:]}_s"] = total(key, "comb_phases")
    for key in ("t_take", "t_verify", "t_render", "t_write"):
        out[f"docs.{key[2:]}_s"] = total(key, "docs_phases")
    return out


def _per_item_us(fn, items, repeats: int = REPEATS) -> float:
    """Median over passes of one pass's time per item, in microseconds."""
    passes = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for it in items:
            fn(it)
        passes.append(time.perf_counter() - t0)
    return statistics.median(passes) / len(items) * 1e6


def _call_ms(fn, repeats: int = REPEATS) -> float:
    passes = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        passes.append(time.perf_counter() - t0)
    return statistics.median(passes) * 1e3


def _sample(seq: list, n: int = SAMPLE) -> list:
    step = max(1, len(seq) // n)
    return seq[::step][:n]


def frontier_metrics(run_dir: str, n_fetch_shards: int, scratch: str) -> dict:
    """The frontier write/partition/read functions, called on the run's
    largest frontier (the concatenation of its lineage files)."""
    from crawler_ray.stages.fetch import (
        partition_frontier_groups,
        read_frontier_group,
        write_frontier_shards,
    )

    dirs = sorted(glob.glob(os.path.join(run_dir, "frontier_*")))
    sizes = [
        sum(pq.ParquetFile(f).metadata.num_rows for f in glob.glob(f"{d}/*.parquet"))
        for d in dirs
    ]
    big = dirs[int(np.argmax(sizes))]
    shards = list(range(n_fetch_shards))
    table = read_frontier_group(big, shards)
    out_dir = os.path.join(scratch, "frontier_probe")
    return {
        "stages.write_frontier_shards_ms": _call_ms(
            lambda: write_frontier_shards(table, out_dir, n_fetch_shards, "probe")
        ),
        "stages.partition_frontier_groups_ms": _call_ms(
            lambda: partition_frontier_groups(table, n_fetch_shards)
        ),
        "stages.read_frontier_group_ms": _call_ms(
            lambda: read_frontier_group(big, shards)
        ),
    }


def micro_metrics(spec, policy, golden: dict, corpus_path: str) -> dict:
    """µs per call of the hot primitives on the workload's own inputs."""
    from crawler_ray.codecs import decode_image, perceptual_hash, psnr
    from crawler_ray.fetchsim import process_url
    from crawler_ray.html import scan_page
    from crawler_ray.sources.corpus import open_corpus
    from crawler_ray.urlkit import canonicalise, derelativise, url_hash

    urls = _sample([u for *_k, u in golden["order"]])
    seen = set(golden["seen"])
    pids = _sample(golden["page_ids"])
    bodies = [spec.render_page(p, spec.caption_of(p)) for p in pids]
    pairs = []
    for p, body in zip(pids, bodies):
        pairs.extend((spec.url_of(p), h) for h in scan_page(body)[0])
    pairs = _sample(pairs)

    out = {
        "fetchsim.process_url_us": _per_item_us(
            lambda u: process_url(spec, policy, u, seen.__contains__), urls
        ),
        "webgen.render_page_us": _per_item_us(
            lambda p: spec.render_page(p, spec.caption_of(p)), pids
        ),
        "html.scan_page_us": _per_item_us(scan_page, bodies),
        "urlkit.canonicalise_us": _per_item_us(canonicalise, urls),
        "urlkit.derelativise_us": _per_item_us(lambda a: derelativise(*a), pairs),
        "urlkit.url_hash_us": _per_item_us(url_hash, urls),
    }
    corpus = open_corpus(corpus_path)
    out["corpus.take_pages_us"] = _call_ms(lambda: corpus.take_pages(pids)) * 1e3 / len(pids)
    payload = corpus.take_pages(pids)
    datas = payload["bytes"].to_pylist()
    decoded = [decode_image(d) for d in datas]
    truths = [spec.pixels_of(p) for p in pids]
    out["codecs.decode_image_us"] = _per_item_us(decode_image, datas)
    pairs_px = list(zip(truths, decoded))
    out["codecs.psnr_us"] = _per_item_us(lambda ab: psnr(*ab), pairs_px)
    out["codecs.phash_us"] = _per_item_us(perceptual_hash, truths)
    return out


def _shard0_urls(golden: dict, n_shards: int) -> tuple[list[str], np.ndarray]:
    """The URLs (and hashes) seen shard 0 holds at the end of the crawl,
    so an in-process shard carries the same load as one engine shard."""
    from crawler_ray.urlkit import url_hash

    pairs = [(u, url_hash(u)) for u in sorted(golden["seen"])]
    pairs = [(u, h) for u, h in pairs if h % n_shards == 0]
    return [u for u, _ in pairs], np.array([h for _, h in pairs], dtype=np.uint64)


def seen_metrics(golden: dict, capacity: int, n_shards: int) -> dict:
    """An in-process seen shard holding shard 0's share of the URL set."""
    from crawler_ray.state.seen import COMPLETED, SeenShardLocal

    urls, hashes = _shard0_urls(golden, n_shards)
    n = len(urls)

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    t0 = time.perf_counter()
    shard = SeenShardLocal(0, capacity)
    shard.check_and_insert(urls, hashes)
    insert_s = time.perf_counter() - t0
    held = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()

    t0 = time.perf_counter()
    shard.apply_mutations(urls, hashes, [COMPLETED] * n)
    mut_s = time.perf_counter() - t0
    return {
        "seen.check_and_insert_us": insert_s / n * 1e6,
        "seen.apply_mutations_us": mut_s / n * 1e6,
        "seen.snapshot_hashes_ms": _call_ms(shard.snapshot_hashes),
        "seen.bytes_per_url": held / n,
    }


def filter_metrics(golden: dict, capacity: int, n_shards: int) -> dict:
    """Cuckoo and bloom filters at one shard's load and capacity, plus a
    cuckoo filled to three times its capacity."""
    from crawler_ray.state.filters import BloomFilter, CuckooFilter

    _urls, keys = _shard0_urls(golden, n_shards)
    n = len(keys)

    def add_us(make):
        passes = []
        for _ in range(REPEATS):
            f = make()
            t0 = time.perf_counter()
            f.add_many(keys)
            passes.append(time.perf_counter() - t0)
        return statistics.median(passes) / n * 1e6, f

    cuckoo_us, cuckoo = add_us(lambda: CuckooFilter(capacity))
    sat_us, _ = add_us(lambda: CuckooFilter(max(1, n // 3)))
    bloom_us, bloom = add_us(lambda: BloomFilter(max(1024, capacity)))
    return {
        "filters.cuckoo_add_us": cuckoo_us,
        "filters.cuckoo_add_saturated_us": sat_us,
        "filters.cuckoo_contains_us": _call_ms(lambda: cuckoo.contains_many(keys)) * 1e3 / n,
        "filters.bloom_add_us": bloom_us,
        "filters.bloom_contains_us": _call_ms(lambda: bloom.contains_many(keys)) * 1e3 / n,
    }


def restore_us_per_row(run_dir: str, capacity: int) -> float:
    """In-process ``SeenShardLocal.restore`` of shard 0's seen-delta rows,
    round by round, as a resume replays them."""
    from crawler_ray.state.seen import SeenShardLocal

    files = sorted(
        glob.glob(os.path.join(run_dir, "round_*", "seen_delta", "shard-00000.parquet"))
    )
    tables = [pq.read_table(f, columns=["url", "status"]) for f in files]
    shard = SeenShardLocal(0, capacity)
    t0 = time.perf_counter()
    for t in tables:
        shard.restore(t)
    return (time.perf_counter() - t0) / sum(t.num_rows for t in tables) * 1e6


def calib_ms() -> float:
    """A fixed pure-Python CPU probe: ambient load shows here, not in code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3
