"""Corpus store: indexed ``take`` over the image+caption table.

The north rule stores the corpus in Lance and fetch actors do key lookups
(``lance.take``) rather than scans (SURVEY.md §2.5 J4). This container has
no ``lance`` wheel, so the one store is ``MmapCorpus``: ONE uncompressed
Arrow IPC file (``write_corpus``, built once by
``webgen.ensure_web_sharded``), served through a memory map. A
Lance-backed store waits until the wheel is in the environment. A crawl
only reads the file, so a read-only corpus serves takes.

This is per-process state: open once per worker process (stages/fetch.py
``_corpus``; reference analogue: the shared HTTP ``Manager``,
/root/reference/src/Crawl.hs:42-44), never per batch.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# a record batch's ``bytes`` column stays within this many bytes (binary
# offsets are int32). At about 4.6 KB of image bytes a page, webs up to
# ~200k pages are one batch; only a larger one (bench.py's default 10^6
# pages) pays the per-batch routing in ``take_pages``
BATCH_BYTES = 1 << 30


def write_corpus(flat_path: str, path: str) -> None:
    """Write the corpus file ``path`` from the flat corpus parquet
    ``flat_path`` (rows in ``image_id`` order): the same rows plus an int64
    ``page_id`` take key. A new record batch starts only where the current
    one's ``bytes`` column would pass ``BATCH_BYTES``. Concurrent writers
    are safe: they produce identical bytes and ``os.replace`` is atomic."""
    pf = pq.ParquetFile(flat_path)
    schema = pf.schema_arrow.append(pa.field("page_id", pa.int64()))
    tmp = f"{path}.tmp.{os.getpid()}"
    pending: list[pa.Table] = []
    size = 0
    with pa.OSFile(tmp, "wb") as f, pa.ipc.new_file(f, schema) as w:
        for rg in range(pf.metadata.num_row_groups):
            t = pf.read_row_group(rg)
            # image_id = "img%08d": the sorted int64 take key
            pids = pc.cast(pc.utf8_slice_codeunits(t["image_id"], 3), pa.int64())
            t = t.append_column("page_id", pids)
            lo = 0
            for k, n in enumerate(pc.binary_length(t["bytes"]).to_pylist()):
                if size and size + n > BATCH_BYTES:
                    pending.append(t.slice(lo, k - lo))
                    w.write_table(pa.concat_tables(pending).combine_chunks())
                    pending, size, lo = [], 0, k
                size += n
            pending.append(t.slice(lo))
        w.write_table(pa.concat_tables(pending).combine_chunks())
    os.replace(tmp, path)


def corpus_reader(path: str) -> pa.ipc.RecordBatchFileReader:
    """Reader over the memory-mapped corpus file ``path``; ValueError for
    anything else, such as the flat parquet ``webgen.ensure_web`` builds."""
    try:
        reader = pa.ipc.open_file(pa.memory_map(path))
    except (OSError, pa.ArrowInvalid) as e:
        raise ValueError(
            f"not a corpus file: {path}; build one with webgen.ensure_web_sharded"
        ) from e
    if reader.schema.names[-1:] != ["page_id"]:
        raise ValueError(f"not a corpus file (no page_id column): {path}")
    return reader


class MmapCorpus:
    """Random-access corpus over one memory-mapped uncompressed Arrow IPC
    file.

    Parquet cannot do Lance's ``take``: one foreign row costs a full
    row-group decompress (~0.5-1 ms, measured ~300 us/doc = ~260 core-s
    per 1M-page crawl). Through ``pa.memory_map`` instead:

    - a take binary-searches a zero-copy int64 ``page_id`` key and gathers
      only the requested rows — the OS faults in only the touched pages
      (Lance's access pattern);
    - the mapped pages live in the OS page cache, SHARED by every worker
      process on the node — unlike per-process parquet row-group caches
      (32 workers, one corpus in memory, not 32);
    - no pinned-actor state and no routing: a short-lived docs task on
      any worker takes any rows out of the same warm pages (a
      pinned-table actor per group of shards measured 15-20% SLOWER
      end-to-end on a 32-CPU box — 32 extra resident processes
      oversubscribe the node).
    """

    def __init__(self, path: str):
        reader = corpus_reader(path)
        batches = [reader.get_batch(i) for i in range(reader.num_record_batches)]
        # zero-copy view of the mmap'd key column when the file is one batch
        keys = [b.column("page_id").to_numpy() for b in batches]
        self._keys = keys[0] if len(keys) == 1 else np.concatenate(keys)
        self._starts = np.cumsum([0] + [b.num_rows for b in batches])
        self._batches = [b.drop_columns(["page_id"]) for b in batches]

    def take_pages(self, page_ids) -> pa.Table:
        """Rows for the given page ids (ints), in request order, each
        column one chunk; a missing id raises KeyError."""
        pids = np.asarray(page_ids, dtype=np.int64)
        keys = self._keys
        j = np.searchsorted(keys, pids)
        bad = (j >= len(keys)) | (keys[np.minimum(j, len(keys) - 1)] != pids)
        if bad.any():
            raise KeyError(f"img{pids[bad][0]:08d}")
        if len(self._batches) == 1:
            return pa.Table.from_batches([self._batches[0].take(j)])
        # above the budget: one take per batch that holds rows, then back
        # to request order (a take over the whole chunked table would
        # concatenate every batch first)
        which = np.searchsorted(self._starts, j, "right") - 1
        order = np.argsort(which, kind="stable")
        held, first = np.unique(which[order], return_index=True)
        parts = [
            self._batches[b].take(rows - self._starts[b])
            for b, rows in zip(held, np.split(j[order], first[1:]))
        ]
        got = pa.Table.from_batches(parts, schema=self._batches[0].schema)
        # request k's row sits at position argsort(order)[k] of the parts
        return got.take(np.argsort(order))


def open_corpus(path: str) -> MmapCorpus:
    return MmapCorpus(path)
