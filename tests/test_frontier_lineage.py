"""Frontier lineage files: write_frontier_shards -> read_frontier_group.

The lineage file is the only way frontier rows reach the next round's fetch
tasks, so every requested shard's rows must come back exactly once and no
other shard's rows may leak in — for plain and folded shard lists, for
files in the older one-row-group-per-shard layout, and for files written
without column statistics (whose row groups must be read, never skipped).
"""

import collections

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from crawler_ray.stages.fetch import (
    FRONTIER_SCHEMA,
    read_frontier_group,
    write_frontier_shards,
)
from crawler_ray.urlkit import url_hash


def _frontier(n_rows: int, n_hosts: int, seed: int) -> pa.Table:
    rng = np.random.Generator(np.random.PCG64(seed))
    hosts = [f"h{int(i)}-{seed}.test" for i in rng.integers(0, n_hosts, n_rows)]
    return pa.table(
        {
            "url": [f"http://{h}/p{seed}-{j}" for j, h in enumerate(hosts)],
            "host": hosts,
            "p_host": [f"parent{j % 7}.test" for j in range(n_rows)],
            "p_seq": pa.array(rng.integers(0, 50, n_rows), pa.int64()),
            "link_idx": pa.array(np.arange(n_rows) % 11, pa.int32()),
        },
        schema=FRONTIER_SCHEMA,
    )


def _rows_by_shard(tables, n_fetch_shards):
    by_shard = collections.defaultdict(list)
    for t in tables:
        for row in zip(*(t[c].to_pylist() for c in FRONTIER_SCHEMA.names)):
            by_shard[url_hash(row[1]) % n_fetch_shards].append(row)
    return by_shard


def _write_old_layout(table, path, n_fetch_shards, **write_kw):
    """The earlier writer: one row group per non-empty fetch shard."""
    shard = np.array([url_hash(h) % n_fetch_shards for h in table["host"].to_pylist()])
    order = np.argsort(shard, kind="stable")
    t = table.take(pa.array(order, pa.int64())).append_column(
        "shard", pa.array(shard[order], pa.int32())
    )
    bounds = np.searchsorted(shard[order], np.arange(n_fetch_shards + 1))
    with pq.ParquetWriter(path, t.schema, **write_kw) as w:
        for s in range(n_fetch_shards):
            if bounds[s + 1] > bounds[s]:
                w.write_table(t.slice(bounds[s], bounds[s + 1] - bounds[s]))


def _shard_lists(n_fetch_shards):
    """Single shards, the way the driver folds shards into tasks, and an
    unordered list with a repeat."""
    lists = [[0], [n_fetch_shards - 1], list(range(n_fetch_shards))]
    for n_tasks in (3, 7):
        lists += [list(range(g, n_fetch_shards, n_tasks)) for g in range(n_tasks)]
    lists.append([n_fetch_shards - 1, 5, 2, 5])
    return lists


@pytest.mark.parametrize("n_fetch_shards", [16, 48, 256])
def test_frontier_roundtrip_reads_each_shard_once(tmp_path, n_fetch_shards):
    d = str(tmp_path / "frontier")
    tables = [_frontier(1500, 400, seed) for seed in (1, 2)]
    tables.append(_frontier(0, 1, 3))  # an empty writer still writes a file
    for k, t in enumerate(tables):
        write_frontier_shards(t, d, n_fetch_shards, f"from_{k:05d}")
    # a file in the older layout, and one with no column statistics
    old = _frontier(600, 150, 4)
    _write_old_layout(old, f"{d}/old_layout.parquet", n_fetch_shards)
    nostats = _frontier(600, 150, 5)
    _write_old_layout(
        nostats, f"{d}/no_stats.parquet", n_fetch_shards, write_statistics=False
    )
    tables += [old, nostats]

    for k in range(2):
        md = pq.ParquetFile(f"{d}/from_{k:05d}.parquet").metadata
        assert 0 < md.num_row_groups <= 32
        if n_fetch_shards <= 32:  # one row group per non-empty shard
            assert md.num_row_groups == len(_rows_by_shard(tables[k : k + 1], n_fetch_shards))
    md = pq.ParquetFile(f"{d}/no_stats.parquet").metadata
    assert md.row_group(0).column(5).statistics is None

    want = _rows_by_shard(tables, n_fetch_shards)
    for shards in _shard_lists(n_fetch_shards):
        got = read_frontier_group(d, shards)
        expect = sorted(r for s in set(shards) for r in want.get(s, []))
        if not expect:
            assert got is None
            continue
        assert got.schema.names == FRONTIER_SCHEMA.names
        rows = sorted(zip(*(got[c].to_pylist() for c in FRONTIER_SCHEMA.names)))
        assert rows == expect
