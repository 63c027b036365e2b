"""Corpus store: indexed ``take`` over the image+caption table.

The north rule stores the corpus in Lance and fetch actors do key lookups
(``lance.take``) rather than scans (SURVEY.md §2.5 J4). This container has
no ``lance`` wheel, so the one store is ``MmapShardCorpus``: the sharded
corpus directory ``webgen.ensure_web_sharded`` builds, each shard served
as a memory-mapped uncompressed Arrow IPC file. A Lance-backed store waits
until the wheel is in the environment. The ``.arrow`` files are written
beside the parquet shards on first touch, so a read-only corpus directory
needs them already present.

This is per-process state: open once per worker process (stages/fetch.py
``_corpus``; reference analogue: the shared HTTP ``Manager``,
/root/reference/src/Crawl.hs:42-44), never per batch.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


class MmapShardCorpus:
    """Random-access corpus over memory-mapped uncompressed Arrow IPC.

    Parquet cannot do Lance's ``take``: one foreign row costs a full
    row-group decompress (~0.5-1 ms, measured ~300 us/doc = ~260 core-s
    per 1M-page crawl even with co-partitioned takes). The equivalent is a
    one-time conversion of each shard to an UNCOMPRESSED Arrow IPC file
    served through ``pa.memory_map``:

    - a take binary-searches a zero-copy int64 ``page_id`` index and
      gathers only the requested rows — the OS faults in only the touched
      pages (Lance's access pattern);
    - the mapped pages live in the OS page cache, SHARED by every worker
      process on the node — unlike per-process parquet row-group caches
      (32 workers, one corpus in memory, not 32);
    - no pinned-actor state and no routing by shard: a short-lived docs
      task on any worker takes rows from any shard out of the same warm
      pages (a pinned-table actor per group of shards measured 15-20%
      SLOWER end-to-end on a 32-CPU box — 32 extra resident processes
      oversubscribe the node).

    Conversion is lazy per shard (first toucher converts, atomic rename),
    which also parallelises it for free — the tasks that first touch a
    shard convert it, instead of one process converting all 256.
    """

    def __init__(self, dir_path: str):
        from ..webgen import WebSpec, shard_of_host

        with open(os.path.join(dir_path, "meta.json")) as f:
            meta = json.load(f)
        self._spec = WebSpec(meta["n_pages"], meta["n_hosts"], meta["seed"])
        self._shard_of_host = np.array(
            [shard_of_host(h, meta["n_shards"]) for h in range(meta["n_hosts"])],
            dtype=np.int64,
        )
        self._dir = dir_path
        self._tables: dict[int, tuple[pa.Table, np.ndarray]] = {}

    def _shard(self, s: int):
        hit = self._tables.get(s)
        if hit is None:
            path = ensure_ipc_shard(self._dir, s)
            t = pa.ipc.open_file(pa.memory_map(path)).read_all()
            # zero-copy view of the mmap'd sorted-key column
            pids = t["page_id"].chunk(0).to_numpy(zero_copy_only=True)
            hit = (t.drop_columns(["page_id"]), pids)
            self._tables[s] = hit
        return hit

    def take_pages(self, page_ids) -> pa.Table:
        """Rows for the given page ids (ints), in request order; a missing
        id raises KeyError."""
        pids = np.asarray(page_ids, dtype=np.int64)
        hosts = np.array([self._spec.host_of(int(p)) for p in pids])
        shards = self._shard_of_host[hosts]
        order = np.argsort(shards, kind="stable")
        out_pos = np.empty(len(pids), dtype=np.int64)
        tables = []
        off = 0
        for s in np.unique(shards):
            sel = order[shards[order] == s]
            t, keys = self._shard(int(s))
            want = pids[sel]
            j = np.searchsorted(keys, want)
            bad = (j >= len(keys)) | (keys[np.minimum(j, len(keys) - 1)] != want)
            if bad.any():
                raise KeyError(f"img{want[bad][0]:08d}")
            tables.append(t.take(pa.array(j)))
            out_pos[sel] = off + np.arange(len(sel))
            off += len(sel)
        big = tables[0] if len(tables) == 1 else pa.concat_tables(tables)
        # request index k's row sits at concatenated position out_pos[k]
        if len(tables) == 1 and (out_pos == np.arange(len(pids))).all():
            return big
        return big.take(pa.array(out_pos))


def ensure_ipc_shard(dir_path: str, shard: int) -> str:
    """Path of shard ``shard``'s uncompressed Arrow IPC file, converting
    from the parquet shard on first touch. Concurrent converters are safe:
    both produce identical bytes and ``os.replace`` is atomic."""
    path = os.path.join(dir_path, f"shard_{shard:05d}.arrow")
    if os.path.exists(path):
        return path
    t = pq.read_table(os.path.join(dir_path, f"shard_{shard:05d}.parquet"))
    # sorted int64 take index (files are sorted by image_id = "img%08d",
    # lexicographic == numeric order at fixed width)
    pids = pa.array(
        [int(k[3:]) for k in t["image_id"].to_pylist()], pa.int64()
    )
    t = t.append_column("page_id", pids).combine_chunks()
    tmp = f"{path}.tmp.{os.getpid()}"
    with pa.OSFile(tmp, "wb") as f, pa.ipc.new_file(f, t.schema) as w:
        w.write_table(t)
    os.replace(tmp, path)
    return path


def corpus_shards(path: str) -> int:
    """Shard count of the sharded corpus directory ``path`` (its
    ``meta.json``); ValueError for anything else, such as the flat
    parquet file ``webgen.ensure_web`` builds."""
    meta = os.path.join(path, "meta.json")
    if not os.path.isfile(meta):
        raise ValueError(
            f"not a sharded corpus directory (no meta.json): {path}; "
            "build one with webgen.ensure_web_sharded"
        )
    with open(meta) as f:
        return json.load(f)["n_shards"]


def open_corpus(path: str) -> MmapShardCorpus:
    corpus_shards(path)  # rejects anything but a sharded corpus directory
    return MmapShardCorpus(path)
