"""Sharded URL-seen state: cuckoo/bloom-fronted exact sets in seen hosts.

The reference keeps three STM containers (in-progress / completed / failed,
/root/reference/src/Types.hs:34-36) mutated atomically by every worker
(Crawl.hs:194-212). Distributed equivalent (SURVEY.md §2.4 T2): shard =
``url_hash % num_shards``. Each shard keeps ONE per-URL structure, an
exact dict url -> ``url_hash << 2 | status``, fronted by a cuckoo filter
so the common negative — "never seen this URL" — is answered from the
filter without touching the dict. The guard snapshot (``snapshot_hashes``)
is derived from the dict's values. Once the cuckoo degrades (a full table
evicted a fingerprint) it is read-only, and a bloom filter is built in
that moment from the dict's hashes; it takes every later new key and
answers instead. Before degradation no bloom exists.

The shards live in ``min(num_shards, cluster CPUs)`` hosts: host h owns
shards i ≡ h (mod hosts). Ray starts at most one worker process per CPU
at a time, so one actor per shard only queued process spawns (and held
~150 MB each); a host runs one call at a time, which keeps every shard's
mailbox order. Host 0 runs in the driver process and hosts 1.. are
``SeenHost`` actors, bodies of one class: a one-host seen tier (one CPU)
has no parallelism to pay a process spawn for, and at P CPUs the driver,
otherwise blocked in ``ray.get`` at the barrier, does one host's share.
The driver's host has the actor-handle call surface (``host.m.remote``
runs ``m`` at once on resolved arguments and returns an ObjectRef), so
program order is its mailbox order and callers need no second path. It
cannot be pickled: a copy in a task would run on a copy of its state.
``make_shards`` returns one ``SeenShard`` handle per shard with the
actor-handle call surface; ``seen_hosts`` recovers the hosts from those
handles.

Round protocol (matches the oracle's mutation convention, oracle.py):
- at round start ``guard_snapshot`` makes one ``snapshot_hashes`` call per
  host (after its previous ``combined_round``, by mailbox order) and
  publishes their union as ONE sorted url-hash array, a top-level
  argument of every fetch task;
- during a round's fetch phase the shards are READ-ONLY: the meta-refresh
  trap guard is one binary search in that array (``in_snapshot``); a
  hash lives in one shard only (``uhash % n_seen_shards``), so the union
  answers as that shard would;
- at round end each host gets ONE ``combined_round`` call with
  every fetch task's meta batch for its shards; it sorts them once and,
  for each shard in id order, applies terminal mutations
  (``apply_mutations``), then candidate inserts (``check_and_insert``),
  then writes ONE frontier file and ONE delta file for all its shards. A
  seen shard is a routing key and filter boundary; the host is the writer.

An actor host never imports pandas (``_NoPandas``, installed only in
actor processes, never in the driver): pyarrow would load it on first
use, and Ray's pa.Table deserializer through ray.air, so everything sent
to a host travels as record batches.

Checkpointing: ``snapshot_delta`` returns rows added/changed since the last
snapshot, tagged with the shard id (the host's per-round delta parquet,
split by shard and replayed in round order by ``restore``).
"""

from __future__ import annotations

import importlib.abc
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np
import pyarrow as pa
import ray

from .filters import BloomFilter, CuckooFilter

# seen-delta files (round_*/seen_delta/shard-*.parquet): one row per
# mutation since the last snapshot, tagged with its seen shard
SEEN_DELTA_SCHEMA = pa.schema(
    [("url", pa.string()), ("status", pa.int8()), ("shard", pa.int32())]
)

IN_PROGRESS = 1
COMPLETED = 2
FAILED = 3

STATUS_NAMES = {IN_PROGRESS: "in_progress", COMPLETED: "completed", FAILED: "failed"}
STATUS_CODES = {v: k for k, v in STATUS_NAMES.items()}


class SeenShardLocal:
    """The shard logic, actor-free (unit-testable; the oracle equivalence
    test runs it in-process)."""

    def __init__(self, shard_id: int, capacity: int = 1 << 17):
        self.shard_id = shard_id
        # the exact tier, the one per-URL structure: url -> hash << 2 | status.
        # One int keeps the hash that ``snapshot_hashes`` and a bloom built
        # at degradation need (74 B/URL at 100k URLs, against 80 for a
        # status dict plus a hash set and 94 for a (status, hash) tuple).
        self._seen: dict[str, int] = {}
        self._capacity = capacity
        self.cuckoo = CuckooFilter(capacity)
        self.bloom: BloomFilter | None = None  # built when the cuckoo degrades
        self._delta: list[tuple[str, int]] = []

    # -- internal -------------------------------------------------------
    def _maybe_in(self, hashes: np.ndarray) -> np.ndarray:
        if self.bloom is not None:  # the cuckoo degraded and may have lost keys
            return self.bloom.contains_many(hashes)
        return self.cuckoo.contains_many(hashes)

    def _hashes(self) -> np.ndarray:
        return np.array([v >> 2 for v in self._seen.values()], dtype=np.uint64)

    def _add_to_filters(self, new_hashes: list) -> None:
        """Filter membership is order-insensitive, so new keys go in as ONE
        batch (a 1-element add_many per URL measured ~100us/row). Callers
        update ``_seen`` first, so the insert that degrades the cuckoo
        builds the bloom from every live key, this batch's included. A key
        deleted earlier is absent from ``_seen`` and goes into the bloom
        when it comes back; until then the exact tier answers "new" for it
        whatever a filter says."""
        if not new_hashes:
            return
        arr = np.asarray(new_hashes, dtype=np.uint64)
        if self.bloom is not None:
            self.bloom.add_many(arr)
            return
        self.cuckoo.add_many(arr)
        if self.cuckoo.degraded:
            self.bloom = BloomFilter(max(1024, self._capacity), 0.01)
            self.bloom.add_many(self._hashes())

    # -- round API ------------------------------------------------------
    def apply_mutations(self, urls: list[str], hashes: np.ndarray, ops: list[int]) -> None:
        """Replay per-outcome terminal mutations in the canonical
        (host, seq, op_idx) order the caller sorted them into (oracle.py's
        convention; ADVICE r1). op 0 = UNCONDITIONAL delete (S.delete
        in-progress, Crawl.hs:173 — the oracle pops whatever status the URL
        has); op COMPLETED/FAILED = set that status."""
        new_hashes = []
        for u, h, op in zip(urls, np.asarray(hashes, np.uint64).tolist(), ops):
            if op == 0:
                if self._seen.pop(u, None) is not None:
                    self._delta.append((u, 0))
                # filters may keep a stale 'maybe'; the exact dict decides
            else:
                if u not in self._seen:
                    new_hashes.append(h)
                op = int(op)
                self._seen[u] = h << 2 | op
                self._delta.append((u, op))
        self._add_to_filters(new_hashes)

    def check_and_insert(self, urls: list[str], hashes: np.ndarray) -> list[bool]:
        """insertIfNotDone (Crawl.hs:194-201): True = newly inserted as
        in_progress (enqueue to frontier); False = already done."""
        out = []
        new_hashes = []
        hashes = hashes.astype(np.uint64)
        for u, h, m in zip(urls, hashes.tolist(), self._maybe_in(hashes).tolist()):
            if m and u in self._seen:
                out.append(False)
            else:
                if u not in self._seen:
                    new_hashes.append(h)
                self._seen[u] = h << 2 | IN_PROGRESS
                self._delta.append((u, IN_PROGRESS))
                out.append(True)
        self._add_to_filters(new_hashes)
        return out

    # -- checkpoint -----------------------------------------------------
    def snapshot_delta(self) -> pa.Table:
        rows = self._delta
        self._delta = []
        url, status, shard = SEEN_DELTA_SCHEMA
        return pa.Table.from_arrays(
            [
                pa.array([u for u, _ in rows], url.type),
                pa.array([c for _, c in rows], status.type),
                pa.array([self.shard_id] * len(rows), shard.type),
            ],
            schema=SEEN_DELTA_SCHEMA,
        )

    def restore(self, table: pa.Table | pa.RecordBatch) -> None:
        """Replay one delta table (a record batch when sent to a host). A
        URL absent from the exact tier at its row is hashed once and new to
        the filters (batched into one insert); a present one keeps its
        stored hash."""
        from ..urlkit import url_hash

        new_hashes = []
        for u, c in zip(table["url"].to_pylist(), table["status"].to_pylist()):
            if c == 0:
                self._seen.pop(u, None)
                continue
            v = self._seen.get(u)
            if v is None:
                h = url_hash(u)
                new_hashes.append(h)
                self._seen[u] = h << 2 | c
            else:
                self._seen[u] = v & ~3 | c
        self._add_to_filters(new_hashes)
        self._delta = []

    def snapshot_hashes(self) -> np.ndarray:
        """Sorted url-hash array of every currently-known URL, this
        shard's part of the guard snapshot (``guard_snapshot``). Hash-keyed
        like the filters: a 64-bit blake2b collision (odds ~n^2/2^64) could
        flip one guard answer; the exact dict decides every mutation."""
        return np.sort(self._hashes())

    def counts(self) -> dict[str, int]:
        statuses = [v & 3 for v in self._seen.values()]
        return {
            "total": len(statuses),
            **{name: statuses.count(code) for code, name in STATUS_NAMES.items()},
            "cuckoo_degraded": int(self.cuckoo.degraded),
        }

    def full_table(self) -> pa.RecordBatch:
        return pa.record_batch(
            {
                "url": pa.array(list(self._seen.keys()), pa.string()),
                "status": pa.array([v & 3 for v in self._seen.values()], pa.int8()),
            }
        )


class _NoPandas(importlib.abc.MetaPathFinder):
    """Import hook: pandas is not installed, as far as this process sees."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "pandas":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


class _HostBody:
    """The seen shards ``shard_ids`` (of ``n_seen_shards``) in one process,
    addressed by id: the body of ``SeenHost`` and of the driver's host."""

    def __init__(self, shard_ids: list[int], capacity: int, n_seen_shards: int):
        # importing pandas cost ~0.6 s per host on round 0's barrier, and
        # nothing here uses it (module doc); host 0 shares the driver with
        # its caller, which may need pandas, so the hook is actor-only
        in_actor = ray.get_runtime_context().get_actor_id() is not None
        if in_actor and "pandas" not in sys.modules:
            sys.meta_path.insert(0, _NoPandas())
        self.shards = {i: SeenShardLocal(i, capacity) for i in shard_ids}
        self.n_seen_shards = n_seen_shards

    def call(self, shard_id: int, method: str, *args):
        return getattr(self.shards[shard_id], method)(*args)

    def snapshot_hashes(self) -> np.ndarray:
        """Sorted url hashes of every URL in any of this host's shards."""
        return np.sort(np.concatenate([s._hashes() for s in self.shards.values()]))

    def combined_round(
        self,
        n_fetch_shards: int,
        run_dir: str,
        round_idx: int,
        next_frontier_dir: str,
        *metas: pa.RecordBatch,
    ) -> dict:
        """The round-end phase of every shard this host owns
        (stages.fetch.combined_round), one META_SCHEMA batch per fetch task."""
        from ..stages.fetch import combined_round as _logic

        return _logic(
            self.shards, self.n_seen_shards, n_fetch_shards, run_dir,
            round_idx, next_frontier_dir, metas,
        )


# num_cpus=0 so hosts don't reserve scheduling slots away from the fetch
# pool; max_concurrency=1 runs one call at a time, in submission order
SeenHost = ray.remote(num_cpus=0, max_concurrency=1)(_HostBody)


@dataclass(frozen=True)
class _InlineMethod:
    fn: Any  # a bound method of the driver host's body

    def remote(self, *args):
        refs = [i for i, a in enumerate(args) if isinstance(a, ray.ObjectRef)]
        if refs:
            args = list(args)
            for i, v in zip(refs, ray.get([args[i] for i in refs])):
                args[i] = v
        return ray.put(self.fn(*args))


class _DriverHost:
    """Host 0: a ``_HostBody`` in the calling process with the actor-handle
    call surface. ``host.method.remote(*args)`` resolves ObjectRef
    arguments, runs the method at once and returns an ObjectRef to the
    result, so program order is its mailbox order. It cannot be pickled:
    a copy in a task would run on a copy of the shards' state."""

    def __init__(self, *args):
        self._body = _HostBody(*args)

    def __getattr__(self, name: str) -> _InlineMethod:
        if name.startswith("_"):
            raise AttributeError(name)
        return _InlineMethod(getattr(self._body, name))

    def __reduce__(self):
        raise TypeError(
            "seen host 0 runs in the driver and cannot leave it; pass "
            "ObjectRefs of its results instead of its shard handles"
        )


@dataclass(frozen=True)
class _ShardMethod:
    call: Any  # the host's ``call`` actor method
    shard_id: int
    name: str

    def remote(self, *args):
        return self.call.remote(self.shard_id, self.name, *args)


class SeenShard:
    """Handle to one shard in its host (``self.host``):
    ``shard.check_and_insert.remote(...)`` behaves as on an actor handle
    of a one-shard actor. Picklable when its host is an actor."""

    def __init__(self, host, shard_id: int):
        self.host = host
        self.shard_id = shard_id

    def __getattr__(self, name: str) -> _ShardMethod:
        if name.startswith("_") or not callable(getattr(SeenShardLocal, name, None)):
            raise AttributeError(name)
        return _ShardMethod(self.host.call, self.shard_id, name)


def make_shards(num_shards: int, capacity_per_shard: int = 1 << 17) -> list[SeenShard]:
    n_hosts = max(1, min(num_shards, int(ray.cluster_resources().get("CPU", 1))))
    hosts = [
        (_DriverHost if h == 0 else SeenHost.remote)(
            list(range(h, num_shards, n_hosts)), capacity_per_shard, num_shards
        )
        for h in range(n_hosts)
    ]
    return [SeenShard(hosts[i % n_hosts], i) for i in range(num_shards)]


def guard_snapshot(hosts: list) -> ray.ObjectRef:
    """Ref to the round's trap-guard snapshot: ONE sorted url-hash array
    of every shard. The actor hosts' calls go out first, so they run
    while host 0's runs inline; P > 1 arrays merge in one sort and put."""
    snaps = [h.snapshot_hashes.remote() for h in hosts[::-1]]
    if len(snaps) == 1:
        return snaps[0]
    merged = np.concatenate(ray.get(snaps))
    merged.sort()
    return ray.put(merged)


def in_snapshot(snapshot: np.ndarray, h: int) -> bool:
    """Whether url hash ``h`` is in a sorted guard snapshot."""
    j = int(np.searchsorted(snapshot, np.uint64(h)))
    return j < len(snapshot) and int(snapshot[j]) == h


def seen_hosts(shards: list[SeenShard]) -> list:
    """The distinct hosts behind ``shards`` (host 0 in the driver, then
    the actors), host h owning shards i ≡ h (mod len(hosts)) as
    ``make_shards`` lays them out."""
    hosts = []
    for s in shards:
        if s.host in hosts:
            break
        hosts.append(s.host)
    if any(s.host != hosts[i % len(hosts)] for i, s in enumerate(shards)):
        raise ValueError("seen shards are not laid out by make_shards")
    return hosts
