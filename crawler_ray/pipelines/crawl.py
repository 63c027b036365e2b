"""Round-based BFS crawl driver: the Ray-Data-native re-expression of the
reference's worker/monitor loops (/root/reference/src/Main.hs:22-68,
Crawl.hs:92-185).

Each round is two RAW-Ray-task fan-outs with file-partitioned exchange
(SURVEY.md §3.2, re-planned in round 2 for minimal per-round fixed cost):

    frontier_k/*.parquet  (written by round k-1's combined calls, one
        |                  file each, rows sorted by host-hash fetch shard
        |                  -> politeness, shuffle 1; one row group per
        |                  frontier group of fetch shards)
        v  one fetch TASK per shard, or per run of consecutive shards
        |  in a small round (per-host FIFO, sub-fetch chains, cookies
        |  snapshot in, order/logs written in place)
    per-seen-HOST Arrow meta batches via Ray multi-return (object-store
        |  exchange, shuffle 2 — no files; see stages/fetch.py)
        v  one combined call per seen host: one canonical sort of the
        |  host's rows, then each of its shards in id order (terminal
        |  mutations, candidate dedup + insertIfNotDone); host 0 runs
        |  in this driver process, hosts 1..P-1 are actors
    frontier_{k+1}/from_{h}.parquet + round_k/seen_delta/shard-{h}.parquet
        (one of each per seen host, h = the host's lowest shard id)
        + MANIFEST

Beside the barrier, D docs tasks per round (payload take + verify +
docs parquet) each take the docs returns of a run of consecutive fetch
tasks; they are submitted once the fetch phase ends.

A round's task counts follow its size, not the configured fan-out: with
R frontier rows a round starts n = min(n_fetch_shards, 128, R // 400)
fetch tasks (at least one; ``ROWS_PER_TASK`` = 400), D = min(32, n) docs
tasks (``MAX_DOCS_TASKS``), and makes one combined call per seen host:
P - 1 actor calls, submitted with the fetch tasks, and host 0's call in
the driver once the fetch phase ends. The counts are pure functions of
R, so a rerun or a resume regroups identically.

The frontier files are the only way frontier rows reach the next round,
and they are also the resume lineage: round 0, a resume, an injection
round and every later round read them the same way.

Termination: empty next frontier (with no pending injected seeds), or
stored-doc quota (Main.hs:61-68; quota fires when stored >= limit, matching
oracle.py's `stored_total >= limit` break), or max_rounds.

Scale discipline: both "shuffles" are explicit hash-partitioned exchanges
(shuffle 1 through files — the layout a 100 TB crawl needs for checkpoint
lineage anyway — shuffle 2 through the object store), so a round has no
Ray sort, no Ray Data executor spin-up (round 1's dominant fixed cost: two streaming-executor startups per round capped
scaling efficiency at 0.57; raw ray.remote fan-outs cut the per-round
driver cost to task dispatch + two small ray.gets), and no actor-pool
churn. The driver only ever sees per-shard counter rows and the (tiny)
shared-cookie updates. The ray.get between the stages is the fetch-phase
barrier that keeps the seen-set frozen while trap-guard lookups run
(oracle.py's round-snapshot convention) — it is semantically required, not
an implementation artifact. The quota trim of the crossing round is
two-pass: keys-only read to find the cutoff, then in-place filtering of
only the boundary files (payload bytes of fully-kept shards never move).

Runtime control surface (Service.hs:28-83 equivalents): drop files into
``run_dir/inject/`` between rounds — ``*.urls`` (one seed URL per line,
addUrl, Service.hs:65-69), ``*.patterns`` (one include pattern per line,
addUrlIncludePattern, Service.hs:71-74), and a ``stop`` sentinel
(Service.hs:79-80 HaltingStatus: finish the in-flight round, commit, and
exit with the frontier intact; a later resume continues exactly). URL and
pattern files are consumed at the next round boundary and revive an
exhausted frontier. Durability (ADVICE r2): each consumed file's content
is first copied to ``run_dir/inject_log/r<round>-<name>`` (atomic write,
BEFORE the ``.consumed`` rename), so a crash in the one-round-deferred
commit window — where a rerun's rmtree can erase the injected frontier
rows — replays the injection from the log; pattern widenings are restored
from the log on every resume.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..fetchsim import FetchPolicy
from ..sources.corpus import corpus_reader
from ..state.seen import guard_snapshot, make_shards, seen_hosts
from ..stages.fetch import (
    DOCS_SCHEMA,
    FRONTIER_SCHEMA,
    ORDER_SCHEMA,
    fetch_shard,
    write_docs_group,
    write_frontier_shards,
)
from ..urlkit import IncludePatterns, canonicalise, get_domain, url_hash
from ..webgen import WebSpec

# raw-task wrappers around the stage bodies; the combined stage runs as
# one combined_round call per seen host (state/seen.py)
_fetch_task = ray.remote(fetch_shard)
_docs_task = ray.remote(write_docs_group)

# frontier rows per fetch task: a round starts about frontier_rows /
# ROWS_PER_TASK fetch tasks (at most MAX_FETCH_TASKS), so a 50-URL drain
# round costs one fetch task and one docs task, not a full fan-out
ROWS_PER_TASK = 400
MAX_FETCH_TASKS = 128
# docs tasks per round: min(MAX_DOCS_TASKS, fetch tasks). Fewer, larger
# docs tasks cost less sink CPU per doc (verify on, 4-CPU box: 194 us at
# 150 docs per task, 111 us at 1,200), so a big round's 128 fetch tasks
# fold into 32 docs tasks rather than one each
MAX_DOCS_TASKS = 32


@dataclass
class CrawlConfig:
    spec: WebSpec
    corpus_path: str  # corpus file (webgen.ensure_web_sharded)
    seeds: list[str]
    policy: FetchPolicy
    run_dir: str
    limit: int | None = None
    max_rounds: int = 50
    n_fetch_shards: int = 16
    n_seen_shards: int = 8
    politeness_delay: float = 0.0
    # run the per-row payload invariant inline in the fetch stage
    verify_payload: bool = False
    seen_capacity_per_shard: int = 1 << 17
    # TEST-ONLY fault injection: called as fault_hook(round, shards) at
    # the top of every round so tests can kill a seen host actor
    # mid-crawl and exercise checkpoint.run_with_recovery. Never set in
    # production paths.
    fault_hook: object | None = None


@dataclass
class CrawlSummary:
    rounds: int = 0
    stored: int = 0
    fetched: int = 0
    run_dir: str = ""
    frontier_exhausted: bool = False
    quota_reached: bool = False
    halted: bool = False  # stop sentinel consumed (Service.hs HaltingStatus)
    round_stats: list[dict] = field(default_factory=list)
    cookies: dict = field(default_factory=dict)


def _np_u64(vals):
    return np.array(vals, dtype=np.uint64)


def _insert_new_urls(
    cfg: CrawlConfig, shards, urls: list[str], policy: FetchPolicy
) -> list[tuple[str, str, int]]:
    """processNextUrl over a URL list (Initialisation.hs:97-119 /
    Service.hs addUrl): canonicalise -> include gate -> insertIfNotDone.
    Returns surviving (url, host, list_idx) in list order."""
    rows = []
    seen_local = set()
    for idx, s in enumerate(urls):
        cu = canonicalise(s)
        if cu is None or not policy.include.accepts(cu):
            continue
        if cu in seen_local:
            continue
        seen_local.add(cu)
        rows.append((cu, get_domain(cu) or "", idx))
    if not rows:
        return []
    by_shard: dict[int, tuple[list, list]] = {}
    for cu, *_ in rows:
        h = url_hash(cu)
        us, hs = by_shard.setdefault(h % len(shards), ([], []))
        us.append(cu)
        hs.append(h)
    # one wave: every shard's insert in flight before the single get
    refs = {
        s: shards[s].check_and_insert.remote(us, _np_u64(hs))
        for s, (us, hs) in by_shard.items()
    }
    accepted: dict[str, bool] = {}
    for s, oks in zip(refs, ray.get(list(refs.values()))):
        accepted.update(zip(by_shard[s][0], oks))
    return [r for r in rows if accepted.get(r[0], False)]


def _frontier_table(rows: list[tuple[str, str, str, int, int]]) -> pa.Table:
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "host": pa.array([r[1] for r in rows], pa.string()),
            "p_host": pa.array([r[2] for r in rows], pa.string()),
            "p_seq": pa.array([r[3] for r in rows], pa.int64()),
            "link_idx": pa.array([r[4] for r in rows], pa.int32()),
        },
        schema=FRONTIER_SCHEMA,
    )


def _round_dir(run_dir: str, rnd: int) -> str:
    return os.path.join(run_dir, f"round_{rnd:05d}")


def _pending_injections(run_dir: str) -> list[str]:
    idir = os.path.join(run_dir, "inject")
    if not os.path.isdir(idir):
        return []
    return sorted(
        f
        for f in glob.glob(os.path.join(idir, "*"))
        if f.endswith(".urls") or f.endswith(".patterns")
    )


def _widen_patterns(policy: FetchPolicy, lines: list[str]) -> FetchPolicy:
    inc = policy.include
    return replace(
        policy,
        include=IncludePatterns(
            url_patterns=inc.url_patterns | frozenset(lines),
            domain_patterns=inc.domain_patterns,
        ),
    )


def _read_lines(path: str) -> list[str]:
    with open(path) as f:
        return [ln.strip() for ln in f if ln.strip()]


def _inject_log_dir(run_dir: str) -> str:
    return os.path.join(run_dir, "inject_log")


def _consume_injections(
    cfg: CrawlConfig, shards, policy: FetchPolicy, frontier_dir: str, tag: int
) -> tuple[FetchPolicy, int]:
    """Apply inject files for round ``tag``: seed URLs enter THIS round's
    frontier (p_host="" sorts them first, like round-0 seeds); include
    patterns extend the URL-pattern set for this and later rounds.

    Durability protocol (ADVICE r2 high+medium): each pending file's
    content is copied to ``inject_log/r<tag>-<name>`` with an atomic write
    BEFORE the ``.consumed`` rename, then ALL of this round's log entries
    are applied — fresh consumes and crash/resume replays take the same
    path. A rerun of this round (after a crash anywhere in the deferred
    one-round commit window, whose rmtree may have erased the injected
    frontier rows) re-applies from the log: seen-set membership inserts
    are re-run unconditionally (idempotent, and a resume's rebuilt state
    lacks this round's uncommitted inserts), while the frontier file is
    rewritten only if missing (when it survived, its rows were already
    counted from the lineage)."""
    pending = _pending_injections(cfg.run_dir)
    ilog = _inject_log_dir(cfg.run_dir)
    if pending:
        os.makedirs(ilog, exist_ok=True)
    for path in pending:
        dst = os.path.join(ilog, f"r{tag:05d}-{os.path.basename(path)}")
        tmp = f"{dst}.tmp.{os.getpid()}"
        with open(path) as src, open(tmp, "w") as out:
            out.write(src.read())
        os.replace(tmp, dst)
        os.replace(path, path + ".consumed")

    n_injected = 0
    logged = glob.glob(os.path.join(ilog, f"r{tag:05d}-*"))
    # config updates apply before new seeds at the same boundary, so an
    # injected URL is include-checked against the widened pattern set
    logged.sort(key=lambda p: (not p.endswith(".patterns"), p))
    for path in logged:
        lines = _read_lines(path)
        if path.endswith(".patterns"):
            policy = _widen_patterns(policy, lines)
        else:
            stem = os.path.basename(path).rsplit(".", 1)[0]  # r00003-name
            origin = f"inject-{stem}"
            out_path = os.path.join(frontier_dir, f"{origin}.parquet")
            survivors = _insert_new_urls(cfg, shards, lines, policy)
            if survivors and not os.path.exists(out_path):
                rows = [
                    (cu, host, "", idx, 0) for cu, host, idx in survivors
                ]
                write_frontier_shards(
                    _frontier_table(rows), frontier_dir,
                    cfg.n_fetch_shards, origin,
                )
                n_injected += len(rows)
    return policy, n_injected


def crawl(
    cfg: CrawlConfig,
    shards=None,
    start_round: int = 0,
    start_frontier_path: str | None = None,
    stored_so_far: int = 0,
    cookies0: dict | None = None,
) -> CrawlSummary:
    """Run the BFS crawl; resumable via pipelines.checkpoint.resume_crawl.
    ``cfg.corpus_path`` must be a corpus file
    (``webgen.ensure_web_sharded``); anything else raises ValueError
    before the run directory is touched."""
    t_entry = time.time()
    cpu_entry = time.process_time()
    corpus_reader(cfg.corpus_path)  # raises on anything but a corpus file
    os.makedirs(cfg.run_dir, exist_ok=True)
    _check_run_config(cfg)
    summary = CrawlSummary(
        run_dir=cfg.run_dir, stored=stored_so_far, cookies=dict(cookies0 or {})
    )

    if shards is None:
        shards = make_shards(cfg.n_seen_shards, cfg.seen_capacity_per_shard)
    hosts = seen_hosts(shards)

    policy = cfg.policy
    # restore pattern widenings consumed by earlier rounds (ADVICE r2
    # high: injections must survive resume — cfg.policy is the ORIGINAL
    # narrow set). Union is idempotent, so the current round's consume
    # re-applying its own entry is harmless.
    for pth in sorted(
        glob.glob(os.path.join(_inject_log_dir(cfg.run_dir), "*.patterns"))
    ):
        policy = _widen_patterns(policy, _read_lines(pth))
    rnd = start_round
    if start_frontier_path is None:
        survivors = _insert_new_urls(cfg, shards, cfg.seeds, policy)
        rows = [(cu, host, "", idx, 0) for cu, host, idx in survivors]
        frontier_path = os.path.join(cfg.run_dir, "frontier_00000")
        os.makedirs(frontier_path, exist_ok=True)
        write_frontier_shards(
            _frontier_table(rows), frontier_path, cfg.n_fetch_shards, "seeds"
        )
        frontier_rows = len(rows)
    else:
        frontier_path = start_frontier_path
        frontier_rows = sum(
            pq.ParquetFile(f).metadata.num_rows
            for f in glob.glob(os.path.join(frontier_path, "*.parquet"))
        )

    # crawl-constant context shared by every task of every round: put ONCE
    # (broadcast), not re-serialized per task
    def _ctx_refs(pol: FetchPolicy):
        base = dict(
            spec=cfg.spec,
            policy=pol,
            corpus_path=cfg.corpus_path,
            n_seen_shards=cfg.n_seen_shards,
            n_seen_hosts=len(hosts),
            run_dir=cfg.run_dir,
            politeness_delay=cfg.politeness_delay,
            verify_payload=cfg.verify_payload,
        )
        return ray.put(base)

    ctx_ref = _ctx_refs(policy)
    t_first_round = None
    # (rdir, rnd, stats, next_path, cookies, docs_refs) awaiting manifest
    pending_commit: tuple | None = None

    while rnd < cfg.max_rounds and (
        frontier_rows or _pending_injections(cfg.run_dir)
    ):
        if cfg.limit is not None and summary.stored >= cfg.limit:
            # quota already satisfied (resume of a quota-completed run):
            # do NOT run another round — it would fetch the entire
            # remaining frontier, then trim every doc to room 0, leaving
            # order/delta artifacts and inflated counters an undisturbed
            # run never produces (review r5: byte-identical-resume
            # invariant)
            summary.quota_reached = True
            break
        # stop verb (Service.hs:79-80 HaltingStatus): checked at the round
        # boundary — the previous round is complete; commit what is
        # pending (after the loop) and exit with the frontier intact so a
        # resume continues exactly where the stop landed
        stop_f = os.path.join(cfg.run_dir, "inject", "stop")
        if os.path.exists(stop_f):
            os.replace(stop_f, stop_f + ".consumed")
            summary.halted = True
            break
        _t_round = time.time()
        if t_first_round is None:
            t_first_round = _t_round
        if cfg.fault_hook is not None:
            cfg.fault_hook(rnd, shards)
        rdir = _round_dir(cfg.run_dir, rnd)
        next_path = os.path.join(cfg.run_dir, f"frontier_{rnd + 1:05d}")
        # a crashed (uncommitted) attempt at this round may have left
        # partial artifacts under different names (ADVICE r1): start clean
        if os.path.isdir(rdir):
            shutil.rmtree(rdir)
        if os.path.isdir(next_path):
            shutil.rmtree(next_path)
        os.makedirs(rdir, exist_ok=True)

        # runtime URL/pattern injection (Service.hs addUrl/addUrlIncludePattern)
        new_policy, n_injected = _consume_injections(
            cfg, shards, policy, frontier_path, rnd
        )
        if new_policy is not policy:
            policy = new_policy
            ctx_ref = _ctx_refs(policy)
        frontier_rows += n_injected
        if frontier_rows == 0:
            # injections yielded nothing new: drop the empty round dir
            shutil.rmtree(rdir, ignore_errors=True)
            break

        # --- fetch stage: one raw task per fetch shard. Each task has
        #     2 + P returns: stats, one table of its stored docs, then
        #     one meta table per seen host (the fetch->combined
        #     exchange) — all via object store
        csnap = tuple(sorted(summary.cookies.items()))
        # BFS-drain rounds have tiny frontiers: fold shards into fewer
        # tasks (ROWS_PER_TASK URLs each) so a 50-URL round costs a
        # handful of task dispatches, not n_fetch_shards x 2. A folded
        # task takes a run of consecutive shards, which share frontier
        # row groups at > 32 fetch shards, so few tasks read each row
        # group (stages/fetch.py read_frontier_group). Grouping is a pure
        # function of frontier_rows, so reruns and resumes regroup
        # identically.
        # Upper cap MAX_FETCH_TASKS = 128: a 256-task round pays ~2.6 ms
        # driver submission and multi-return object creation PER TASK;
        # folding big rounds 256 -> 128 tasks halves that fixed cost
        # while per-task work (~1-3k URLs) still swamps skew. The cap is
        # a constant — NOT derived from the cluster size — so the job
        # stays bit-identical across cpu levels (scaling protocol) and
        # regroups identically on resume.
        n_groups = min(
            cfg.n_fetch_shards, MAX_FETCH_TASKS,
            max(1, frontier_rows // ROWS_PER_TASK),
        )
        task_shards = _fold(cfg.n_fetch_shards, n_groups)
        # round-start trap-guard snapshot: one sorted url-hash array of
        # the seen set after the previous round's combined phase and this
        # round's injections (host mailbox order). A top-level argument,
        # so Ray resolves it zero-copy before each fetch task runs
        guard_ref = guard_snapshot(hosts)
        fetch_rets = [
            _fetch_task.options(num_returns=2 + len(hosts)).remote(
                grp, ctx_ref, rnd, frontier_path, csnap, guard_ref,
            )
            for grp in task_shards
        ]
        # --- combined terminal+candidate stage: one combined_round call
        #     per seen host, fed every fetch task's meta ref for it. The
        #     actor hosts' calls are submitted immediately — those object
        #     refs ARE the fetch-phase barrier (no combined call can start
        #     before every fetch task finished, so the seen set stays
        #     frozen during the fetch phase). Host 0 runs in this process
        #     (state/seen.py): its call runs after the fetch phase, beside
        #     the actor hosts' calls. Each host writes its shards'
        #     survivors to one file in next_path and returns one stats
        #     dict.
        def _combined(p):
            return hosts[p].combined_round.remote(
                cfg.n_fetch_shards, cfg.run_dir, rnd, next_path,
                *[r[2 + p] for r in fetch_rets],
            )

        comb_rets = [_combined(p) for p in range(1, len(hosts))]

        stats1 = ray.get([r[0] for r in fetch_rets])
        _t_fetch = time.time() - _t_round
        # payload persistence (corpus take + verify + docs parquet): docs
        # task j takes the docs returns of the j-th of D consecutive runs
        # of fetch tasks, the fold task_shards uses. Submitted after the
        # fetch phase, so they take no CPU from this round's fetch tasks;
        # they run beside the combined phase and the next round's fetch,
        # and the round commits (below) only after they are durable
        docs_refs = [
            _docs_task.remote(j, ctx_ref, rnd, *[fetch_rets[i][1] for i in run])
            for j, run in enumerate(
                _fold(n_groups, min(MAX_DOCS_TASKS, n_groups))
            )
        ]
        comb_rets.insert(0, _combined(0))
        n_proc = sum(r["n_proc"] for r in stats1)
        n_docs = sum(r["n_docs"] for r in stats1)
        summary.fetched += n_proc

        # --- quota accounting (oracle.py:157 'stored_total >= limit';
        #     candidates still get inserted below — the oracle inserts them
        #     before breaking on quota too) ------------------------------
        stored_before = summary.stored
        new_total = stored_before + n_docs
        if cfg.limit is not None and new_total >= cfg.limit:
            if new_total > cfg.limit:
                ray.get(docs_refs)  # trim needs this round's docs durable
                _trim_round_docs(cfg, rnd, cfg.limit - stored_before)
            summary.stored = cfg.limit
            summary.quota_reached = True
        else:
            summary.stored = new_total

        # --- shared cookies, applied in canonical (host, seq) order
        #     (shareCookies at round end — the serialization oracle.py uses)
        for _host, _seq, name, val in sorted(
            t for r in stats1 for t in r["shared_cookies"]
        ):
            summary.cookies[name] = val

        stats2 = ray.get(comb_rets)  # one stats dict per seen host
        frontier_rows = sum(r["n_new"] for r in stats2)
        _t_combined = time.time() - _t_round - _t_fetch

        stored_this_round = summary.stored - stored_before
        f_secs = [r["sec"] for r in stats1]
        c_secs = [r["sec"] for r in stats2]
        stats = {
            "fetched": n_proc,
            "stored": stored_this_round,
            "frontier_next": frontier_rows,
            "sec_fetch": round(_t_fetch, 3),
            "sec_combined": round(_t_combined, 3),
            "sec_round": round(time.time() - _t_round, 3),
            # straggler diagnostics: per-task wall time sum/max per stage
            # (fetch per task; comb_task_* and comb_spans per seen host)
            "fetch_task_sum": round(sum(f_secs), 3),
            "fetch_task_max": round(max(f_secs), 3),
            "comb_task_sum": round(sum(c_secs), 3),
            "comb_task_max": round(max(c_secs), 3),
            "fetch_nodes": sorted({r.get("node", "") for r in stats1} - {""}),
            "fetch_phases": {
                k: round(sum(r.get(k, 0.0) for r in stats1), 4)
                for k in ("t_read", "t_proc", "t_docs", "t_meta", "n_guard", "t_cpu")
            },
            "fetch_spans": [
                (round(r["t0"], 3), round(r["t1"], 3)) for r in stats1
            ],
            "comb_spans": [
                (round(r["t0"], 3), round(r["t1"], 3)) for r in stats2
            ],
            "comb_phases": {
                k: round(sum(r.get(k, 0.0) for r in stats2), 4)
                for k in (
                    "t_read", "t_mut", "t_cand", "t_write", "t_delta", "t_cpu",
                )
            },
        }
        stats["round"] = rnd
        # append the SAME dict pending_commit holds — docs_spans is added
        # to it when the round commits, and must reach RUN_MANIFEST too
        summary.round_stats.append(stats)
        # commit of the PREVIOUS round: its docs tasks finished while this
        # round ran; a crash before a commit just reruns that round from
        # its frontier files (pipelines/checkpoint.py), so deferring the
        # manifest one round keeps resume exact while letting payload
        # writes overlap execution
        if pending_commit is not None:
            _commit_after_docs(*pending_commit)
        pending_commit = (
            rdir, rnd, stats, next_path, dict(summary.cookies), docs_refs
        )

        frontier_path = next_path
        _write_status(cfg.run_dir, "running", rnd, frontier_rows, summary)
        rnd += 1
        if summary.quota_reached:
            break

    if pending_commit is not None:
        _commit_after_docs(*pending_commit)

    if not summary.halted:
        # a stop dropped while the final round was in flight was never
        # consumed (the loop exited on exhaustion/quota first); left in
        # place it would silently halt a FUTURE resume at round 0, before
        # that resume's injections are applied (review r5). The crawl has
        # already stopped, so the sentinel's intent is satisfied.
        stale_stop = os.path.join(cfg.run_dir, "inject", "stop")
        if os.path.exists(stale_stop):
            os.replace(stale_stop, stale_stop + ".consumed")

    summary.rounds = rnd - start_round
    summary.frontier_exhausted = frontier_rows == 0
    state = (
        "halted" if summary.halted
        else "quota" if summary.quota_reached
        else "exhausted" if summary.frontier_exhausted
        else "max_rounds"
    )
    _write_status(cfg.run_dir, state, rnd - 1, frontier_rows, summary)
    # with no round run, all of the call was start-up
    _write_run_manifest(
        cfg, summary, (t_first_round or time.time()) - t_entry, cpu_entry
    )
    return summary


def _fold(n: int, k: int) -> list[range]:
    """``range(n)`` cut into ``k`` consecutive runs of near-equal size."""
    return [range(g * n // k, (g + 1) * n // k) for g in range(k)]


def _check_run_config(cfg) -> None:
    """Pin the run's IDENTITY-DEFINING config at first crawl() entry and
    REFUSE a resume under a different one (review r5): restoring seen
    deltas written with 8 shards into a 16-shard routing silently
    re-fetches done URLs (duplicate docs, non-byte-identical run), and a
    different web spec is a different universe entirely. Task granularity
    (fetch shards, hence fetch and docs task counts) and limits may
    legitimately change across resumes and are NOT pinned."""
    fp = {
        "n_seen_shards": cfg.n_seen_shards,
        "n_pages": cfg.spec.n_pages,
        "n_hosts": cfg.spec.n_hosts,
        "seed": cfg.spec.seed,
    }
    path = os.path.join(cfg.run_dir, "run_config.json")
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f)
        if prev != fp:
            raise ValueError(
                f"run_dir {cfg.run_dir} was created with {prev}; resuming "
                f"with {fp} would corrupt the seen set — use a fresh "
                "run_dir or restore the original settings"
            )
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(fp, f)
    os.replace(tmp, path)


def _write_status(run_dir: str, state: str, rnd: int, frontier_rows: int,
                  summary: CrawlSummary) -> None:
    """Live status surface (Service.hs:50-63 status/queueSize): refreshed
    at every round boundary while the crawl runs, not just at commit —
    readable by an operator mid-run. Atomic replace; no reader lock."""
    s = {
        "state": state,  # running | halted | quota | exhausted | max_rounds
        "round": rnd,
        "queue_size": frontier_rows,
        "stored": summary.stored,
        "fetched": summary.fetched,
        "cookies": len(summary.cookies),
    }
    path = os.path.join(run_dir, "STATUS.json")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(s, f)
    os.replace(tmp, path)


def read_status(run_dir: str) -> dict | None:
    """The last written live status of a run (None before round 0)."""
    try:
        with open(os.path.join(run_dir, "STATUS.json")) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def _commit_round(
    rdir: str, rnd: int, stats: dict, next_frontier_path: str, cookies: dict
) -> None:
    manifest = {
        "round": rnd,
        "stats": stats,
        "next_frontier": next_frontier_path,
        "cookies": dict(cookies),
        "complete": True,
    }
    path = os.path.join(rdir, "MANIFEST.json")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, path)


def _commit_after_docs(
    rdir: str, rnd: int, stats: dict, next_frontier_path: str, cookies: dict,
    docs_refs: list,
) -> None:
    """Deferred commit of a round: wait for its docs tasks, add their
    spans and phases to the round's stats, then write its manifest."""
    dstats = ray.get(docs_refs)
    stats["docs_spans"] = [
        (round(d["t0"], 3), round(d["t1"], 3)) for d in dstats
    ]
    stats["docs_phases"] = {
        k: round(sum(d.get(k, 0.0) for d in dstats), 4)
        for k in ("t_take", "t_verify", "t_render", "t_write", "t_cpu")
    }
    _commit_round(rdir, rnd, stats, next_frontier_path, cookies)


def _trim_round_docs(cfg: CrawlConfig, rnd: int, room: int) -> None:
    """Quota cut: keep the canonical-order (host, seq) prefix of this
    round's stored docs (deterministic version of Crawl.hs:181-183).

    Two-pass and payload-free (VERDICT r1 #7): pass 1 reads ONLY the
    (host, seq) key columns to rank rows; pass 2 rewrites just the files
    that straddle the cutoff — fully-kept files are untouched, fully-cut
    files are removed, so payload bytes of kept shards never move."""
    docs_dir = os.path.join(_round_dir(cfg.run_dir, rnd), "docs")
    if not os.path.isdir(docs_dir):
        return
    files = sorted(
        os.path.join(docs_dir, f)
        for f in os.listdir(docs_dir)
        if f.endswith(".parquet")
    )
    if not files:
        return
    room = max(0, room)
    # pass 1: keys only, one numpy lexsort (VERDICT r2 #3 — the Python
    # sorted()/`in kept` pair made the quota round O(rows) Python)
    tabs = [pq.read_table(f, columns=["host", "seq"]) for f in files]
    counts = [t.num_rows for t in tabs]
    keys = pa.concat_tables(tabs)
    _, host_codes = np.unique(
        keys["host"].combine_chunks().to_numpy(zero_copy_only=False),
        return_inverse=True,
    )
    seqs = keys["seq"].combine_chunks().to_numpy(zero_copy_only=False)
    order = np.lexsort((seqs, host_codes))
    kept_mask = np.zeros(len(host_codes), dtype=bool)
    kept_mask[order[:room]] = True
    # pass 2: rewrite only boundary files
    row_cursor = 0
    for f, n in zip(files, counts):
        mask = kept_mask[row_cursor : row_cursor + n]
        row_cursor += n
        n_keep = int(mask.sum())
        if n_keep == n:
            continue  # fully kept: payload untouched
        if n_keep == 0:
            os.remove(f)
            continue
        t = pq.read_table(f)
        t = t.take(pa.array(np.flatnonzero(mask), pa.int64()))
        tmp = f"{f}.tmp.{os.getpid()}"
        pq.write_table(t, tmp)
        os.replace(tmp, f)


def _write_run_manifest(
    cfg: CrawlConfig, summary: CrawlSummary, start_s: float, cpu_entry: float
) -> None:
    m = {
        "rounds": summary.rounds,
        # crawl() entry to its first round's start: the seen hosts it
        # makes (a resume restores them before the call), seeding
        "start_s": round(start_s, 3),
        # driver-process CPU (all threads, host 0's included) since entry
        "driver_cpu_s": round(time.process_time() - cpu_entry, 3),
        "stored": summary.stored,
        "fetched": summary.fetched,
        "quota_reached": summary.quota_reached,
        "frontier_exhausted": summary.frontier_exhausted,
        "halted": summary.halted,
        "cookies": dict(summary.cookies),
        "round_stats": summary.round_stats,
        "config": {
            "n_pages": cfg.spec.n_pages,
            "n_hosts": cfg.spec.n_hosts,
            "seed": cfg.spec.seed,
            "limit": cfg.limit,
            "n_fetch_shards": cfg.n_fetch_shards,
            "n_seen_shards": cfg.n_seen_shards,
        },
    }
    path = os.path.join(cfg.run_dir, "RUN_MANIFEST.json")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(m, f, indent=1)
    os.replace(tmp, path)


def read_crawled(run_dir: str):
    """All stored docs of a run as a Ray Dataset (streaming read)."""
    files = sorted(glob.glob(os.path.join(run_dir, "round_*", "docs", "*.parquet")))
    if not files:
        # full docs schema, typed and empty — a url-only fallback diverged
        # from the non-empty path's schema (review r5)
        return rd.from_arrow(DOCS_SCHEMA.empty_table())
    return rd.read_parquet(files)


def read_order(run_dir: str) -> pa.Table:
    """Canonical crawl order (round, host, seq, url) from checkpoints."""
    rows = []
    for rdir in sorted(glob.glob(os.path.join(run_dir, "round_*"))):
        rnd = int(os.path.basename(rdir).split("_")[1])
        files = sorted(glob.glob(os.path.join(rdir, "order", "*.parquet")))
        if not files:
            continue
        t = pa.concat_tables([pq.read_table(f) for f in files])
        t = t.append_column("round", pa.array([rnd] * t.num_rows, pa.int32()))
        rows.append(t)
    if not rows:
        # typed empty table — the bare-list fallback produced null-typed
        # columns, breaking schema-sensitive consumers on the empty-run
        # edge (review r5)
        return ORDER_SCHEMA.append(pa.field("round", pa.int32())).empty_table()
    out = pa.concat_tables(rows)
    return out.sort_by(
        [("round", "ascending"), ("host", "ascending"), ("seq", "ascending")]
    )
