"""Fetch + combined stages: host-sharded, politeness-preserving,
file-partitioned, driven as RAW Ray task fan-outs.

Frontier rows are partitioned by ``shard = url_hash(host) % n_fetch_shards``
(SURVEY.md §2.4 T1): every URL of a host lands in exactly ONE shard, each
shard is processed by ONE task sequentially, so the reference's structural
politeness invariant — at most one in-flight request per host at any time
(/root/reference/src/PoliteQueue.hs:34-64, one thread owns a domain) —
holds under data parallelism. Within a shard, rows are processed in
per-host FIFO discovery order; an optional ``politeness_delay`` enforces a
min interval between fetches to the same host (the reference has no timer;
concurrency cap 1 is its only budget).

Data exchange, round-2 layout (re-planned after measuring round 1):

- frontier (combined -> next round's fetch; ALSO the resume lineage):
  ONE parquet file per combined call with a ``shard`` column and one row
  group per frontier group of fetch shards (at most 32). It is the only
  frontier exchange: fetch task ``s`` reads just the row groups whose
  footer statistics cover its shards. The round-1 layout (one file per
  (fetch shard, seen shard) pair, ~8k tiny ext4 creates+renames per
  round) cost more core-seconds than the crawl's real work and caused
  journal-flush stalls.
- meta (fetch -> combined, intra-round only): Arrow record batches
  through the OBJECT STORE — fetch task ``s`` multi-returns (stats,
  docs, meta_h0 .. meta_h{P-1}) with ``num_returns=2+P``, P the number
  of seen HOSTS; host ``p`` (owning seen shards i ≡ p mod P) receives
  exactly the (2+p)-th return ref of every fetch task in one
  ``combined_round`` call (per-consumer granularity: a consumer
  deserializes only its own slice, never the whole exchange). No files:
  resume reruns an uncommitted round from its frontier files, so meta
  needs no durability.
- the docs return carries each stored doc's metadata (url/chain/host/
  seq/hops/page_id) AND its fetched body as a binary ``content`` column,
  so the docs task writes the body it is handed (~1 KB per doc through
  the object store) instead of re-rendering it from (spec, page_id):
  the re-render cost more sink CPU per doc than the bytes cost to ship
  at 4 CPUs, and at one CPU the sink shares the core with fetch.
- docs tasks fold over fetch tasks: docs task ``j`` of D takes the docs
  returns of a consecutive run of the round's fetch tasks, the same
  fold that groups fetch shards into tasks, and D follows the round's
  size (pipelines/crawl.py ``MAX_DOCS_TASKS``). A docs task takes its
  pages' payloads from the one mmap'd Arrow IPC corpus file, a binary
  search over the shared page cache (sources/corpus.py), so nothing
  routes docs by where a payload lives.
- docs / order / logs: one partition file per task per round; seen
  deltas: one file per seen HOST per round, beside its frontier file
  (checkpoint lineage + the payload sink; see ``combined_round``).
- trap-guard snapshot (seen -> fetch): ONE sorted url-hash array of the
  seen set per round (state/seen.py ``guard_snapshot``), a top-level
  task argument that Ray resolves zero-copy before the body runs: one
  object per seen shard, reached through a nested ``ray.get``, cost more
  driver, raylet and worker CPU per small round than its fetch bodies.

The per-round fan-outs are plain ``@ray.remote`` tasks (one per shard)
instead of Ray Data executions — the streaming-executor startup (~seconds
x 2 executions x rounds) was the dominant unscalable cost behind the
round-1 scaling-efficiency miss (VERDICT r1 #1); raw tasks cut the
per-round fixed cost to task dispatch (~ms).

Seen-set mutation convention (oracle.py; ADVICE r1 canonical-order fix):
each outcome emits its terminal mutations TAGGED with the outcome's
canonical key — stored: (host, seq, 0)=unconditional delete of the frontier
URL + (host, seq, j)=complete j-th chain element; failed: (host, seq, 0)=
mark failed. The combined call sorts all mutations of its seen host by
that key once and replays each shard's in order, exactly the oracle's
interleaving.

Per-worker-process state (the reference's shared HTTP ``Manager``,
Crawl.hs:42-44) lives in a module-level cache: the corpus handle is opened
once per Ray worker process and reused across tasks and rounds.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..fetchsim import process_url
from ..sources.corpus import open_corpus
from ..state.seen import IN_PROGRESS, in_snapshot
from ..urlkit import get_domain, url_hash

FRONTIER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("p_host", pa.string()),
        ("p_seq", pa.int64()),
        ("link_idx", pa.int32()),
    ]
)

# metadata rows exchanged fetch -> combined stage (one batch per seen host):
# ``op`` 0=delete, 2=completed, 3=failed rows are terminal mutations keyed
# by the outcome's canonical (p_host, p_seq, link_idx=op index); op
# IN_PROGRESS (1, the status insertIfNotDone writes) rows are candidate
# URLs keyed by discovery key.
META_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("p_host", pa.string()),
        ("p_seq", pa.int64()),
        ("link_idx", pa.int32()),
        ("op", pa.int8()),
        # blake2b url hash, computed ONCE here in the (parallel) fetch
        # task — the fetch already hashes every meta row for seen-shard
        # routing, and shipping the value saves the combined actors from
        # re-hashing the whole round's rows on the round-end critical
        # path (round 4; ~0.4 s per shard per crawl in the profile)
        ("uhash", pa.uint64()),
    ]
)

# crawl-order files (round_*/order/part-*.parquet): one row per processed
# frontier URL, in per-host seq order; read_order appends the round
ORDER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("seq", pa.int64()),
        ("detail", pa.string()),  # "<status>:<reason>"
    ]
)

# log files (round_*/logs/part-*.parquet): one row per href of a stored
# page that did not derelativise to a URL, written only when a task has any
LOGS_SCHEMA = pa.schema([("url", pa.string()), ("detail", pa.string())])

# stored-doc files (round_*/docs/part-*.parquet); write_docs_group appends
# an int8 ``payload_ok`` column when the run verifies payloads
DOCS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("redirect_chain", pa.list_(pa.string())),
        ("content", pa.binary()),
        ("worker_id", pa.string()),
        ("round", pa.int32()),
        ("host", pa.string()),
        ("seq", pa.int64()),
        ("hops", pa.int32()),
        ("image_id", pa.string()),
        ("image_bytes", pa.binary()),
        ("caption", pa.string()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("phash", pa.int64()),
    ]
)

# verify working-set bound: a docs task stacks at most this many decoded
# images (and their ground truths) at once, however many docs it writes
VERIFY_CHUNK_ROWS = 256

_CORPUS_CACHE: dict[str, object] = {}


def _corpus(path: str):
    """Per-worker-process corpus handle (opened once, reused across tasks)."""
    store = _CORPUS_CACHE.get(path)
    if store is None:
        store = open_corpus(path)
        _CORPUS_CACHE[path] = store
    return store


def _atomic_write(path: str, table: pa.Table) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def _host_shards(table: pa.Table, n_fetch_shards: int) -> np.ndarray:
    """Vectorized shard = url_hash(host) % n: hosts repeat heavily, so
    dictionary-encode once and hash only the UNIQUE hosts (VERDICT r2 #3 —
    the per-row Python url_hash loop ran in every combined actor every
    round)."""
    enc = pc.dictionary_encode(table["host"].combine_chunks())
    uniques = enc.dictionary.to_pylist()
    shard_of_unique = np.fromiter(
        (url_hash(h) % n_fetch_shards for h in uniques),
        dtype=np.int64,
        count=len(uniques),
    )
    return shard_of_unique[enc.indices.to_numpy(zero_copy_only=False)]


def _shard_sorted(
    table: pa.Table, n_fetch_shards: int
) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """(table stably sorted by shard, sorted shard column, bounds) where
    rows of shard s are slice [bounds[s], bounds[s+1])."""
    shard = _host_shards(table, n_fetch_shards)
    order = np.argsort(shard, kind="stable")
    sorted_shard = shard[order]
    bounds = np.searchsorted(sorted_shard, np.arange(n_fetch_shards + 1))
    return table.take(pa.array(order, pa.int64())), sorted_shard, bounds


def n_frontier_groups(n_fetch_shards: int) -> int:
    """Row groups per frontier lineage file: consecutive fetch shards share
    a group once there are more than 32, so a file has at most 32 row
    groups however many fetch shards a round has."""
    return min(32, n_fetch_shards)


def partition_frontier_groups(
    table: pa.Table, n_fetch_shards: int
) -> list[pa.Table]:
    """One table per frontier GROUP of consecutive fetch shards, sorted by
    shard, rows carrying their exact ``shard`` as a column."""
    taken, sorted_shard, bounds = _shard_sorted(table, n_fetch_shards)
    taken = taken.append_column("shard", pa.array(sorted_shard, pa.int32()))
    ng = n_frontier_groups(n_fetch_shards)
    gsize = -(-n_fetch_shards // ng)
    out = []
    for g in range(ng):
        lo = bounds[min(g * gsize, n_fetch_shards)]
        hi = bounds[min((g + 1) * gsize, n_fetch_shards)]
        out.append(taken.slice(lo, hi - lo))
    return out


def write_frontier_shards(
    table: pa.Table, frontier_dir: str, n_fetch_shards: int, origin: str
) -> None:
    """Partition frontier rows by host-hash fetch shard (the explicit
    'shuffle 1') into ONE file per writer with a ``shard`` column and one
    parquet row group per non-empty frontier group (at <= 32 fetch shards,
    one per shard). This file is the only way frontier rows reach the next
    round's fetch tasks, and it is also the resume lineage.

    Round-2 layout change: one file per origin instead of one per (shard,
    origin) pair — the old layout's n_fetch_shards x n_seen_shards tiny
    files per round (~8k creates + renames on ext4) cost more core-seconds
    than the crawl's real work and triggered journal-flush stalls."""
    os.makedirs(frontier_dir, exist_ok=True)
    groups = partition_frontier_groups(table, n_fetch_shards)
    path = os.path.join(frontier_dir, f"{origin}.parquet")
    tmp = f"{path}.tmp.{os.getpid()}"
    writer = pq.ParquetWriter(tmp, groups[0].schema)
    for g in groups:
        if g.num_rows:
            writer.write_table(g)
    writer.close()
    os.replace(tmp, path)


def read_frontier_group(frontier_dir: str, shards) -> pa.Table | None:
    """Rows of a GROUP of fetch shards across all frontier files. Each file
    is opened ONCE; only the row groups whose ``shard`` min/max in the
    footer statistics covers a requested shard are read, then filtered to
    the requested shards. A row group without statistics is read and
    filtered, never skipped, and files in the older one-row-group-per-shard
    layout read the same way. (A dataset scan with a ``shard in (...)``
    filter cost ~15 ms per file, more than a drain round's fetch work.)"""
    files = sorted(glob.glob(os.path.join(frontier_dir, "*.parquet")))
    want = np.unique(np.asarray(list(shards), dtype=np.int64))
    value_set = pa.array(want, pa.int32())
    parts = []
    for f in files:
        with pq.ParquetFile(f) as pf:
            col = pf.schema_arrow.get_field_index("shard")
            picked = []
            for i in range(pf.metadata.num_row_groups):
                st = pf.metadata.row_group(i).column(col).statistics
                if st is not None and st.has_min_max:
                    j = np.searchsorted(want, st.min)
                    if j == len(want) or want[j] > st.max:
                        continue
                picked.append(i)
            if not picked:
                continue
            t = pf.read_row_groups(picked)
        t = t.filter(pc.is_in(t["shard"], value_set=value_set))
        if t.num_rows:
            parts.append(t.drop_columns(["shard"]))
    if not parts:
        return None
    return pa.concat_tables(parts)


def docs_table(docs: list[dict]) -> pa.Table:
    """One docs return of a fetch task: the stored docs' metadata and
    fetched bodies, as ``write_docs_group`` takes them."""
    return pa.table(
        {
            "url": pa.array([d["url"] for d in docs], pa.string()),
            "redirect_chain": pa.array(
                [d["redirect_chain"] for d in docs], pa.list_(pa.string())
            ),
            "worker_id": pa.array([d["worker_id"] for d in docs], pa.string()),
            "round": pa.array([d["round"] for d in docs], pa.int32()),
            "host": pa.array([d["host"] for d in docs], pa.string()),
            "seq": pa.array([d["seq"] for d in docs], pa.int64()),
            "hops": pa.array([d["hops"] for d in docs], pa.int32()),
            "page_id": pa.array([d["page_id"] for d in docs], pa.int64()),
            "content": pa.array([d["content"] for d in docs], pa.binary()),
        }
    )


def fetch_shard(
    shards_of_task: range,
    ctx: dict,
    round_idx: int,
    frontier_dir: str,
    cookies: tuple,
    guard: np.ndarray,
) -> dict:
    """Process one GROUP of fetch shards' frontier rows (raw Ray task
    body). ``shards_of_task`` is a run of consecutive shard ids (often
    one): when a BFS-drain round's frontier is tiny, the driver folds
    many shards into few tasks so per-round latency is task dispatch for
    a handful of tasks, not n_fetch_shards.
    Folding is safe for politeness and determinism: hosts never span
    shards, per-host FIFO order and seq assignment are per-host, and
    outputs are keyed by the group's lead shard.

    ``ctx`` is the crawl-constant context (spec, policy, corpus_path,
    shard counts, run_dir, flags) put to the object store ONCE per crawl
    and shared by every task of every round. ``cookies`` is the
    round-start cookie snapshot (Crawl.hs:106). ``guard`` is the
    round-start trap-guard snapshot, the sorted hashes of every seen URL
    (state/seen.py ``guard_snapshot``), resolved by Ray at dispatch.

    The task's frontier rows are read from the ``frontier_dir`` lineage
    files the previous round's combined calls (or seeding, injection or a
    resume) wrote, one per seen host: each file is opened once and only
    the row groups that cover the task's shards are read
    (``read_frontier_group``).

    Returns a (2 + P)-tuple for Ray multi-return: a stats dict
    {shard, n_proc, n_docs, shared_cookies, n_guard (the task's guard
    lookups), phase timings}; one table of
    all the task's stored docs (metadata + fetched body, consumed by the
    ``write_docs_group`` call whose run of fetch tasks holds this one);
    then one META_SCHEMA record batch per seen host, rows routed by
    ``uhash % n_seen_shards % P`` (host p receives exactly the (2+p)-th
    return of every fetch task). Per-consumer
    granularity matters: a consumer deserializes only its own slice,
    never the whole exchange. The exchanges travel through the OBJECT
    STORE — intra-round intermediate state, not checkpoint lineage
    (resume reruns the round from its frontier files); as files they cost
    more than the crawl's real work.
    """
    _t_task = time.time()
    shard = shards_of_task[0]  # group lead: names this task's partition files
    spec = ctx["spec"]
    policy = ctx["policy"]
    n_seen_shards = ctx["n_seen_shards"]
    run_dir = ctx["run_dir"]
    politeness_delay = ctx["politeness_delay"]
    rdir = os.path.join(run_dir, f"round_{round_idx:05d}")
    order_dir = os.path.join(rdir, "order")
    logs_dir = os.path.join(rdir, "logs")
    for d in (order_dir, logs_dir):
        os.makedirs(d, exist_ok=True)

    n_seen_hosts = ctx["n_seen_hosts"]

    def _returns(stats: dict, docs: list[dict], meta_rows: list[tuple]):
        hs = [url_hash(row[0]) for row in meta_rows]
        by_host: dict[int, list[int]] = {}
        for j, h in enumerate(hs):
            by_host.setdefault(h % n_seen_shards % n_seen_hosts, []).append(j)
        # record batches, not tables: Ray deserializes a pa.Table through
        # ray.air, which imports pandas in the seen host (~0.6 s per host
        # process); a batch travels by pyarrow's own pickling
        batches = []
        for p in range(n_seen_hosts):
            rows = [meta_rows[j] + (hs[j],) for j in by_host.get(p, [])]
            cols = list(zip(*rows)) or [()] * len(META_SCHEMA)
            batches.append(
                pa.RecordBatch.from_arrays(
                    [pa.array(list(c), f.type) for f, c in zip(META_SCHEMA, cols)],
                    schema=META_SCHEMA,
                )
            )
        return (stats, docs_table(docs), *batches)

    # meta-refresh trap-guard reads (checkNotDone, Crawl.hs:138): one
    # binary search in the round-start snapshot, exact because the seen
    # set is frozen until the combined phase
    n_guard = 0

    def is_done(url: str) -> bool:
        nonlocal n_guard
        n_guard += 1
        return in_snapshot(guard, url_hash(url))

    group = read_frontier_group(frontier_dir, shards_of_task)
    if group is None:
        return _returns(
            {
                "shard": shard, "n_proc": 0, "n_docs": 0,
                "shared_cookies": [], "sec": time.time() - _t_task,
                "t_read": 0.0, "t_proc": 0.0, "t_docs": 0.0, "t_meta": 0.0,
                "n_guard": 0, "t0": _t_task, "t1": time.time(),
            },
            [],
            [],
        )
    _t_read = time.time() - _t_task

    # per-host FIFO: order by (host, candidate key); assign per-host seq
    host_col = group["host"].to_pylist()
    url_col = group["url"].to_pylist()
    _ph = group["p_host"].to_pylist()
    _ps = group["p_seq"].to_pylist()
    _li = group["link_idx"].to_pylist()
    order = sorted(
        range(group.num_rows),
        key=lambda i: (host_col[i], _ph[i], _ps[i], _li[i]),
    )

    _cpu0 = time.process_time()

    meta_rows: list[tuple] = []  # rows of META_SCHEMA
    docs: list[dict] = []
    order_rows: list[tuple] = []
    log_rows: list[tuple] = []
    shared_cookies: list[tuple] = []  # (host, seq, name, value)
    last_fetch_at: dict[str, float] = {}
    seq_counter: dict[str, int] = {}

    for i in order:
        host, url = host_col[i], url_col[i]
        seq = seq_counter.get(host, 0)
        seq_counter[host] = seq + 1
        if politeness_delay > 0:
            since = time.time() - last_fetch_at.get(host, 0.0)
            if since < politeness_delay:
                time.sleep(politeness_delay - since)
        out = process_url(spec, policy, url, is_done, cookies=cookies)
        last_fetch_at[host] = time.time()

        order_rows.append((url, host, seq, f"{out.status}:{out.reason}"))
        if out.status == "stored":
            # canonical mutation stream (oracle.py lines 99-106): pop the
            # frontier URL unconditionally, then complete the chain
            meta_rows.append((url, "", host, seq, 0, 0))
            for j, u in enumerate(out.completed):
                meta_rows.append((u, "", host, seq, j + 1, 2))
            for n, v in out.shared_cookies:
                shared_cookies.append((host, seq, n, v))
            for idx, link in enumerate(out.links):
                if not policy.include.accepts(link):
                    continue  # processNextUrl include gate (Crawl.hs:189)
                meta_rows.append(
                    (link, get_domain(link) or "", host, seq, idx, IN_PROGRESS)
                )
            for k, u, d in out.logs:
                log_rows.append((u, f"{k}: {d}"))
            docs.append(
                {
                    "url": url,
                    "redirect_chain": list(out.redirect_chain),
                    "worker_id": f"shard-{shard}",
                    "round": round_idx,
                    "host": host,
                    "seq": seq,
                    "hops": out.hops,
                    "page_id": out.page_id,
                    "content": out.body.encode(),
                }
            )
        elif out.status == "failed":
            meta_rows.append((url, "", host, seq, 0, 3))
            log_rows.append((url, f"error: {out.reason}"))
        # 'excluded' / 'meta_trap': stays in_progress; nothing emitted

    _t_proc = time.time() - _t_task - _t_read
    _t_cpu = time.process_time() - _cpu0
    _atomic_write(
        os.path.join(order_dir, f"part-{shard:05d}.parquet"),
        pa.Table.from_arrays(
            [
                pa.array([r[i] for r in order_rows], f.type)
                for i, f in enumerate(ORDER_SCHEMA)
            ],
            schema=ORDER_SCHEMA,
        ),
    )
    if log_rows:
        _atomic_write(
            os.path.join(logs_dir, f"part-{shard:05d}.parquet"),
            pa.Table.from_arrays(
                [
                    pa.array([r[i] for r in log_rows], f.type)
                    for i, f in enumerate(LOGS_SCHEMA)
                ],
                schema=LOGS_SCHEMA,
            ),
        )
    # t_docs = the order/logs parquet writes above (docs payloads are
    # written by write_docs_group, reported as docs_phases); t_meta =
    # building the docs + per-seen-host meta returns in _returns
    _t_docs = time.time() - _t_task - _t_read - _t_proc
    stats = {
        "shard": shard,
        "n_proc": len(order_rows),
        "n_docs": len(docs),
        "shared_cookies": shared_cookies,
        "sec": 0.0,  # patched below, after the return tables are built
        "t_read": _t_read,
        "t_proc": _t_proc,
        "t_docs": _t_docs,
        "t_meta": 0.0,  # patched below
        "n_guard": n_guard,
        "t_cpu": _t_cpu,
        "t0": _t_task,
        "t1": 0.0,  # patched below
        # which physical node ran this shard (multi-node evidence)
        "node": ray.get_runtime_context().get_node_id()[:8],
    }
    ret = _returns(stats, docs, meta_rows)
    # stats rides inside ret by reference: patch the construction phase in
    now = time.time()
    stats["t_meta"] = now - _t_task - _t_read - _t_proc - _t_docs
    stats["sec"] = now - _t_task
    stats["t1"] = now
    return ret


def write_docs_group(
    group: int,
    ctx: dict,
    round_idx: int,
    *docs_tbls: pa.Table,
) -> dict:
    """Attach image payload columns (one bulk corpus take — the J4 index
    lookup, SURVEY.md §2.5) to the stored docs and write this docs GROUP's
    partition file. ``docs_tbls`` are the docs returns of the group's run
    of consecutive fetch tasks: metadata plus the fetched body
    (``content``), written as handed over, in fetch-task order. Runs as
    its own raw task per group, submitted once the round's fetch phase
    has ended, so payload persistence overlaps the combined phase and the
    next round's fetch instead of sitting on the round barrier.

    The take is one binary search over the mmap'd corpus file's key
    column and one gather from the shared page cache
    (``sources.corpus``).

    Shipping the body costs ~1 KB of object-store traffic per doc; the
    re-render it replaces (``render_page(page_id, caption_of(page_id))``,
    which is what the fetch stored) cost more sink CPU than that, and at
    one CPU the sink runs on the fetch's core.

    With ``verify_payload`` the per-row invariant from BASELINE.json
    input_hint runs inline: decoded pixels vs ground truth (exact for
    lossless, PSNR >= 40 dB for lossy), caption equality, phash equality.
    A payload that fails to decode, or decodes to another size than its
    row's ``(h, w)``, gets ``payload_ok = 0`` and fails no other row.
    """
    _t0 = time.time()
    _cpu0 = time.process_time()
    nonempty = [t for t in docs_tbls if t.num_rows]
    if not nonempty:
        return {"n": 0, "t0": _t0, "t1": time.time()}
    docs_tbl = (
        nonempty[0] if len(nonempty) == 1 else pa.concat_tables(nonempty)
    )
    from ..codecs import decode_image, perceptual_hashes

    spec = ctx["spec"]
    corpus = _corpus(ctx["corpus_path"])
    docs_dir = os.path.join(
        ctx["run_dir"], f"round_{round_idx:05d}", "docs"
    )
    os.makedirs(docs_dir, exist_ok=True)

    page_ids = docs_tbl["page_id"].to_pylist()
    payload = corpus.take_pages(page_ids)
    _t_take = time.time()
    ok_col = None
    if ctx["verify_payload"]:
        # the per-row invariant, batched by (h, w, fmt): PSNR / equality /
        # phash run as one stacked numpy pass per shape group instead of
        # per image (tiny-array numpy call overhead measured ~250 us/doc
        # under 32-way load, >40% of the docs stage). Values are
        # bit-identical to the per-image formulation: integer sums are
        # exact and every corpus dim is a multiple of 8. Each
        # shape group runs in chunks of VERIFY_CHUNK_ROWS, so a task's
        # stacked-image memory stays bounded however many docs it holds;
        # every value is per image, so chunking changes none of them.
        datas = payload["bytes"].to_pylist()
        caps = payload["caption"].to_pylist()
        phs = payload["phash"].to_pylist()
        fmts = payload["fmt"].to_pylist()
        ws = payload["w"].to_pylist()
        hs = payload["h"].to_pylist()
        oks = np.zeros(len(page_ids), dtype=np.int8)
        by_shape: dict[tuple, list[int]] = {}
        for j, (h, w, fmt) in enumerate(zip(hs, ws, fmts)):
            by_shape.setdefault((h, w, fmt), []).append(j)
        chunks = [
            (shape, idxs[lo : lo + VERIFY_CHUNK_ROWS])
            for shape, idxs in by_shape.items()
            for lo in range(0, len(idxs), VERIFY_CHUNK_ROWS)
        ]

        def _decoded(j: int, shape: tuple) -> np.ndarray | None:
            try:
                px = decode_image(datas[j])
            except ValueError:
                return None
            return px if px.shape == shape else None

        for (h, w, fmt), idxs in chunks:
            # a row whose payload is unreadable keeps payload_ok = 0 and
            # stays out of its shape group's stack
            good = [(j, _decoded(j, (h, w, 3))) for j in idxs]
            good = [(j, px) for j, px in good if px is not None]
            if not good:
                continue
            idxs = [j for j, _ in good]
            decs = np.stack([px for _, px in good])
            truths = np.stack([spec.pixels_of(page_ids[j]) for j in idxs])
            if fmt == "jpeg":
                # |d| <= 255, so d*d fits in int32; the sums are exact
                d = truths.astype(np.int32) - decs
                mse = (d * d).sum(axis=(1, 2, 3), dtype=np.int64) / d[0].size
                with np.errstate(divide="ignore"):
                    pix_ok = np.where(
                        mse == 0, True,
                        10.0 * np.log10(255.0**2 / np.maximum(mse, 1e-300)) >= 40.0,
                    )
            else:
                pix_ok = (truths == decs).all(axis=(1, 2, 3))
            ph_t = perceptual_hashes(truths)
            for k, j in enumerate(idxs):
                oks[j] = int(
                    bool(pix_ok[k])
                    and caps[j] == spec.caption_of(page_ids[j])
                    and ph_t[k] == phs[j]
                )
        ok_col = pa.array(oks, pa.int8())
    _t_verify = time.time()
    cols = {
        **{n: docs_tbl[n] for n in docs_tbl.column_names},
        # one chunk: the parquet writer checks its page and dictionary
        # limits per write batch and each chunk starts a batch, so the
        # file bytes depend on the chunking, not only on the values
        "content": docs_tbl["content"].combine_chunks(),
        **{n: payload[n] for n in ("image_id", "caption", "w", "h", "fmt", "phash")},
        "image_bytes": payload["bytes"],
    }
    schema = DOCS_SCHEMA
    if ok_col is not None:
        schema = schema.append(pa.field("payload_ok", pa.int8()))
        cols["payload_ok"] = ok_col
    table = pa.Table.from_arrays([cols[n] for n in schema.names], schema=schema)
    _t_render = time.time()
    _atomic_write(os.path.join(docs_dir, f"part-{group:05d}.parquet"), table)
    _t1 = time.time()
    return {
        "n": table.num_rows, "t0": _t0, "t1": _t1,
        "t_take": _t_take - _t0, "t_verify": _t_verify - _t_take,
        "t_render": _t_render - _t_verify, "t_write": _t1 - _t_render,
        "t_cpu": time.process_time() - _cpu0,
    }


def combined_round(
    shards: dict,
    n_seen_shards: int,
    n_fetch_shards: int,
    run_dir: str,
    round_idx: int,
    next_frontier_dir: str,
    metas,
) -> dict:
    """Terminal + candidate phase for ONE seen host -- runs INSIDE the
    host's process (the driver for host 0, an actor for the rest;
    ``shards`` is its {shard_id: SeenShardLocal}; mutations are direct
    method calls: no blocked task slots, no actor round trips).

    ``metas`` (one META_SCHEMA batch per fetch task) are sorted ONCE into
    canonical (host, seq, op_idx) order; a row's seen shard is ``uhash %
    n_seen_shards``. Each shard, in id order, replays ALL its terminal
    mutations in that order (ADVICE r1 -- releases interleave with
    completions exactly as the oracle pops), then candidate
    insertIfNotDone with within-round dedup by minimal discovery key. A
    URL lives in one shard, so every shard sees the rows, in the order, a
    call of its own would.

    Survivors are written as ONE frontier file, one row group per
    frontier group of fetch shards (``write_frontier_shards``): the next
    round's fetch tasks read their rows from it, and it is the resume
    lineage. The shards' seen deltas go LAST into ONE delta file (rows
    tagged by ``shard``), so a committed round's delta reflects every
    mutation of the round. Both are named by the host's lowest shard id:
    a round writes 2P files, not two per seen shard. Returns the stats
    dict only.
    """
    _t_task = time.time()
    # thread CPU: host 0 shares the driver process with Ray's threads
    _cpu0 = time.thread_time()
    lead = min(shards)
    rdir = os.path.join(run_dir, f"round_{round_idx:05d}")
    delta_dir = os.path.join(rdir, "seen_delta")
    os.makedirs(next_frontier_dir, exist_ok=True)
    os.makedirs(delta_dir, exist_ok=True)

    nonempty = [m for m in metas if m.num_rows]
    n_new = 0
    prof = dict.fromkeys(("t_read", "t_mut", "t_cand", "t_write", "t_delta"), 0.0)
    last = [_t_task]

    def lap(key: str) -> None:
        now = time.time()
        prof[key], last[0] = now - last[0], now

    if nonempty:
        t = pa.Table.from_batches(nonempty).combine_chunks()
        ops = t["op"].to_numpy()
        is_mut = ops != IN_PROGRESS
        # vectorized canonical (p_host, p_seq, link_idx) order: np.unique
        # codes follow p_host's lex order, then one lexsort — only the
        # PER-URL relative order is semantic (mutations of distinct URLs
        # commute), and this reproduces the oracle's exactly
        _, ph_codes = np.unique(
            t["p_host"].to_numpy(zero_copy_only=False), return_inverse=True
        )
        order = np.lexsort(
            (t["link_idx"].to_numpy(), t["p_seq"].to_numpy(), ph_codes)
        )
        urls = t["url"].to_numpy(zero_copy_only=False)
        all_h = t["uhash"].to_numpy()
        sid = all_h % np.uint64(n_seen_shards)
        lap("t_read")

        mut_order = order[is_mut[order]]
        for i, state in sorted(shards.items()):
            rows = mut_order[sid[mut_order] == i]
            # terminal mutations durable before candidate inserts
            state.apply_mutations(urls[rows].tolist(), all_h[rows], ops[rows].tolist())
        lap("t_mut")

        # within-round dedup: first occurrence in canonical order wins
        cand_order = order[~is_mut[order]]
        _, first = np.unique(urls[cand_order], return_index=True)
        keep_order = cand_order[np.sort(first)]
        ok = np.zeros(len(keep_order), dtype=bool)
        for i, state in sorted(shards.items()):
            pos = np.flatnonzero(sid[keep_order] == i)
            rows = keep_order[pos]
            ok[pos] = state.check_and_insert(urls[rows].tolist(), all_h[rows])
        keep = keep_order[ok]
        n_new = len(keep)
        lap("t_cand")
        if n_new:
            sub = t.take(pa.array(keep, pa.int64())).select(
                ["url", "host", "p_host", "p_seq", "link_idx"]
            )
            write_frontier_shards(
                sub, next_frontier_dir, n_fetch_shards, f"from_{lead:05d}"
            )
        lap("t_write")

    # the host's checkpoint delta: every shard's rows, in shard-id order
    _atomic_write(
        os.path.join(delta_dir, f"shard-{lead:05d}.parquet"),
        pa.concat_tables([s.snapshot_delta() for _, s in sorted(shards.items())]),
    )
    lap("t_delta")
    return {"shard": lead, "n_new": n_new, "sec": time.time() - _t_task,
            "t0": _t_task, "t1": time.time(),
            "t_cpu": time.thread_time() - _cpu0, **prof}
