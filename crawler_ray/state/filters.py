"""Approximate-membership filters: cuckoo (primary) + bloom (fallback).

The north rule specifies a sharded cuckoo-filter URL-seen set with bloom
fallback. Both filters here are accelerators ONLY: a positive is always
confirmed against the shard's exact set (SURVEY.md §2.7 — "membership truth
stays exact per shard"), so false positives cannot corrupt the crawl; false
negatives are impossible (standard bloom/cuckoo property as long as the
cuckoo filter never evicts-to-loss, which we detect and flag). Neither
filter supports delete: a shard's deleted keys leave a stale "maybe" that
the exact set turns down. The seen shard builds its bloom only when its
cuckoo degrades, from the exact set's hashes (state/seen.py).

Vectorized over uint64 key arrays (numpy) — these sit on the hot dedup path;
the cuckoo's rare one-key displacement loop runs on Python ints.
"""

from __future__ import annotations

import numpy as np

_FP_BITS = 16  # cuckoo fingerprint width
_BUCKET_SLOTS = 4
_MAX_KICKS = 128
_U64 = (1 << 64) - 1


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64-style avalanche over uint64."""
    h = h.copy()
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return h


def _mix_int(h: int) -> int:
    """``_mix`` on one Python int (the displacement loop's scalar path)."""
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _U64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _U64
    return h ^ (h >> 33)


class BloomFilter:
    """Plain k-hash bloom over a numpy bit array."""

    def __init__(self, capacity: int, fp_rate: float = 0.01):
        m = int(-capacity * np.log(fp_rate) / (np.log(2) ** 2))
        self.m = max(64, m)
        self.k = max(1, int(round(self.m / capacity * np.log(2))))
        self.bits = np.zeros((self.m + 63) // 64, dtype=np.uint64)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        h1 = _mix(keys)
        h2 = _mix(keys ^ np.uint64(0x9E3779B97F4A7C15))
        ks = np.arange(self.k, dtype=np.uint64)[:, None]
        return (h1[None, :] + ks * h2[None, :]) % np.uint64(self.m)

    def add_many(self, keys: np.ndarray) -> None:
        pos = self._positions(keys).ravel()
        np.bitwise_or.at(self.bits, pos >> np.uint64(6), np.uint64(1) << (pos & np.uint64(63)))

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(keys)
        hit = (self.bits[(pos >> np.uint64(6))] >> (pos & np.uint64(63))) & np.uint64(1)
        return hit.all(axis=0).astype(bool)


class CuckooFilter:
    """Partial-key cuckoo filter (Fan et al., CoNEXT'14): 4-slot buckets,
    16-bit fingerprints, displacement with a kick limit. On insert
    overflow, ``degraded`` flips True and the caller should consult the
    bloom fallback / exact set instead of trusting negatives. A degraded
    filter is read-only: ``add_many`` returns at once, since every further
    insert into a full table would only evict another fingerprint."""

    def __init__(self, capacity: int):
        n_buckets = 1
        while n_buckets * _BUCKET_SLOTS < capacity * 1.3:
            n_buckets *= 2
        self.n_buckets = n_buckets
        self.table = np.zeros((n_buckets, _BUCKET_SLOTS), dtype=np.uint16)
        self.degraded = False
        self._rng = np.random.default_rng(0xC0FFEE)  # deterministic kicks

    def _fingerprint(self, keys: np.ndarray) -> np.ndarray:
        fp = (_mix(keys) & np.uint64(0xFFFF)).astype(np.uint16)
        fp[fp == 0] = 1  # 0 marks an empty slot
        return fp

    def _index1(self, keys: np.ndarray) -> np.ndarray:
        return (_mix(keys ^ np.uint64(0xDEADBEEF)) % np.uint64(self.n_buckets)).astype(np.int64)

    def _alt_index(self, idx: np.ndarray, fp: np.ndarray) -> np.ndarray:
        h = _mix(fp.astype(np.uint64))
        return ((idx.astype(np.uint64) ^ h) % np.uint64(self.n_buckets)).astype(np.int64)

    def add_many(self, keys: np.ndarray) -> None:
        """Batch insert, vectorized on the fast path (round 4: the per-key
        ``_add_one`` loop was the single hottest function on the crawl's
        round-end critical path — 56 % of combined-actor CPU in a cProfile
        of the 1M-page bench). Strategy: try bucket 1 then bucket 2, slot
        by slot, placing every pending key whose target slot is free;
        same-bucket conflicts within the batch resolve first-wins and the
        losers retry at the next slot. Only keys whose BOTH buckets are
        full (rare until high load factor) fall back to the sequential
        displacement loop. The resulting table layout can differ from
        sequential insertion order, which is semantically irrelevant: the
        filter is a one-sided accelerator and every positive is confirmed
        against the shard's exact dict. Stops at the moment the filter
        degrades: the caller answers from the bloom from then on."""
        if keys.size == 0 or self.degraded:
            return
        fps = self._fingerprint(keys)
        i1s = self._index1(keys)
        i2s = self._alt_index(i1s, fps)
        pending = np.arange(len(keys), dtype=np.int64)
        for target in (i1s, i2s):
            for s in range(_BUCKET_SLOTS):
                if not len(pending):
                    return
                t = target[pending]
                free = self.table[t, s] == 0
                if not free.any():
                    continue
                cand = pending[free]
                tc = t[free]
                uniq, first = np.unique(tc, return_index=True)
                self.table[uniq, s] = fps[cand[first]]
                placed = np.zeros(len(cand), dtype=bool)
                placed[first] = True
                pending = np.concatenate([pending[~free], cand[~placed]])
        for j in pending:  # both buckets full: displacement path
            self._add_one(int(i1s[j]), int(fps[j]))
            if self.degraded:
                return

    def _alt_index_int(self, i: int, fp: int) -> int:
        return (i ^ _mix_int(fp)) % self.n_buckets

    def _place(self, i: int, fp: int) -> bool:
        row = self.table[i].tolist()
        if 0 not in row:
            return False
        self.table[i, row.index(0)] = fp
        return True

    def _add_one(self, i1: int, fp: int) -> None:
        """One key into a full neighbourhood, on Python ints: 1-element
        numpy calls cost ~30 us per kick and a degrading insert makes 128."""
        if self._place(i1, fp) or self._place(self._alt_index_int(i1, fp), fp):
            return
        # displace
        i = i1
        for _ in range(_MAX_KICKS):
            slot = int(self._rng.integers(_BUCKET_SLOTS))
            fp, self.table[i, slot] = int(self.table[i, slot]), fp
            i = self._alt_index_int(i, fp)
            if self._place(i, fp):
                return
        self.degraded = True  # caller must not trust negatives anymore

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        fps = self._fingerprint(keys)
        i1 = self._index1(keys)
        i2 = self._alt_index(i1, fps)
        in1 = (self.table[i1] == fps[:, None]).any(axis=1)
        in2 = (self.table[i2] == fps[:, None]).any(axis=1)
        return in1 | in2
