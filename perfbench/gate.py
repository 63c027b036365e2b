"""Oracle-parity gate for one crawl run directory.

A run passes only if its artifacts reproduce the single-threaded oracle:
the canonical read order, the seen set rebuilt by replaying the run's own
seen-delta files in round order, the stored-doc set (quota applied), and
``payload_ok`` on every stored row when payload verification is on.
"""

from __future__ import annotations

import glob
import os

import pyarrow.parquet as pq
from crawler_ray.state.seen import STATUS_NAMES


def read_order_rows(run_dir: str) -> list[tuple]:
    from crawler_ray.pipelines.crawl import read_order

    t = read_order(run_dir)
    return list(
        zip(
            t["round"].to_pylist(),
            t["host"].to_pylist(),
            t["seq"].to_pylist(),
            t["url"].to_pylist(),
        )
    )


def replay_seen(run_dir: str) -> dict[str, str]:
    """The seen set as a resume would rebuild it: every round's deltas in
    round order, status 0 deleting the URL."""
    seen: dict[str, str] = {}
    for rdir in sorted(glob.glob(os.path.join(run_dir, "round_*"))):
        for f in sorted(glob.glob(os.path.join(rdir, "seen_delta", "*.parquet"))):
            t = pq.read_table(f, columns=["url", "status"])
            for u, c in zip(t["url"].to_pylist(), t["status"].to_pylist()):
                if c == 0:
                    seen.pop(u, None)
                else:
                    seen[u] = STATUS_NAMES[c]
    return seen


def stored_docs(run_dir: str, verify: bool) -> tuple[list[tuple], list[int]]:
    cols = ["url", "round", "host", "seq"] + (["payload_ok"] if verify else [])
    keys: list[tuple] = []
    oks: list[int] = []
    for f in sorted(glob.glob(os.path.join(run_dir, "round_*", "docs", "*.parquet"))):
        t = pq.read_table(f, columns=cols)
        keys.extend(
            zip(
                t["url"].to_pylist(),
                t["round"].to_pylist(),
                t["host"].to_pylist(),
                t["seq"].to_pylist(),
            )
        )
        if verify:
            oks.extend(t["payload_ok"].to_pylist())
    return keys, oks


def check(run_dir: str, golden: dict, verify: bool) -> list[str]:
    """Mismatch descriptions; an empty list means the run passed."""
    problems = []
    order = read_order_rows(run_dir)
    if order != golden["order"]:
        bad = next(
            (i for i, (a, b) in enumerate(zip(order, golden["order"])) if a != b),
            min(len(order), len(golden["order"])),
        )
        problems.append(
            f"read_order differs at row {bad} "
            f"({len(order)} rows, oracle {len(golden['order'])})"
        )
    seen = replay_seen(run_dir)
    if seen != golden["seen"]:
        diff = set(seen.items()) ^ set(golden["seen"].items())
        problems.append(f"replayed seen set differs in {len(diff)} entries")
    keys, oks = stored_docs(run_dir, verify)
    if sorted(keys) != golden["crawled"]:
        problems.append(
            f"stored docs differ ({len(keys)} stored, oracle "
            f"{len(golden['crawled'])})"
        )
    if verify and not all(ok == 1 for ok in oks):
        problems.append(f"{sum(ok != 1 for ok in oks)} rows with payload_ok != 1")
    return problems


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total
