"""Differential contract test: ``SeenShardLocal`` against a plain-dict
model over seeded random sequences of inserts, terminal mutations,
deletes and delta restores, at capacities on both sides of the point
where the cuckoo filter degrades."""

import random

import numpy as np
import pytest

from crawler_ray.state.seen import SeenShardLocal
from crawler_ray.urlkit import url_hash

POOL = [f"http://h{i % 7}.test/p/{i}" for i in range(600)]
HASH = {u: url_hash(u) for u in POOL}


def _hashes(urls):
    return np.array([HASH[u] for u in urls], dtype=np.uint64)


def _check(shard, model):
    t = shard.full_table()
    assert dict(zip(t["url"].to_pylist(), t["status"].to_pylist())) == model
    assert np.array_equal(shard.snapshot_hashes(), np.sort(_hashes(list(model))))
    counts = shard.counts()
    assert counts["total"] == len(model)
    for code, name in ((1, "in_progress"), (2, "completed"), (3, "failed")):
        assert counts[name] == sum(v == code for v in model.values())
    # the bloom exists exactly once the cuckoo has degraded
    assert (shard.bloom is None) == (not shard.cuckoo.degraded)
    # no false negatives: every live URL answers "already seen", which
    # leaves the shard unchanged
    live = list(model)
    assert not any(shard.check_and_insert(live, _hashes(live)))


def _run(seed, capacity):
    rng = random.Random(seed)
    shard = SeenShardLocal(0, capacity)
    replica = SeenShardLocal(0, capacity)  # fed only the snapshot deltas
    model, replica_model = {}, {}
    for _ in range(60):
        r = rng.random()
        if r < 0.5:
            batch = rng.sample(POOL, rng.randint(1, 60))
            want = [u not in model for u in batch]
            for u in batch:
                model.setdefault(u, 1)
            assert shard.check_and_insert(batch, _hashes(batch)) == want
        elif r < 0.85:
            urls = [rng.choice(POOL) for _ in range(rng.randint(1, 40))]
            ops = [rng.choice((0, 2, 3)) for _ in urls]
            for u, op in zip(urls, ops):
                if op == 0:
                    model.pop(u, None)
                else:
                    model[u] = op
            shard.apply_mutations(urls, _hashes(urls), ops)
        else:
            delta = shard.snapshot_delta().select(["url", "status"])
            shard.restore(delta)  # replaying its own delta changes nothing
            replica.restore(delta)
            replica_model = dict(model)
            _check(replica, replica_model)
        _check(shard, model)
    return shard.cuckoo.degraded


@pytest.mark.parametrize("capacity", [48, 256, 4096])
def test_seen_shard_matches_dict_model(capacity):
    degraded = [_run(seed, capacity) for seed in range(8)]
    if capacity == 48:
        assert all(degraded)
    if capacity == 4096:
        assert not any(degraded)
