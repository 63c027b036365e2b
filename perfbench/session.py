"""One Ray session running one workload, as a child process of run.py.

    python3 perfbench/session.py PLAN_JSON SECONDS TRACE

Set-up is sampled by starting the session several times. Then one client
submits one crawl call at a time (a closed loop) until the next call would
overrun SECONDS; every call is checked against the oracle before the next
starts. With TRACE=1 a single call runs with spans around the benchmark's
calls into the engine, followed by the per-layer measurements.

Each result goes to stdout as one line, ``BENCH <json>``.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import shutil
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import gate  # noqa: E402
import layers  # noqa: E402
import procstat  # noqa: E402
from workloads import policy  # noqa: E402

# the closed loop's one client gets one CPU: with more, the call times of
# one session spread several times as much
NUM_CPUS = 1
# a crawl or resume call that takes longer counts as failed
OP_TIMEOUT_S = 90
# set-up is sampled this many times per untraced run; setup_s is the median
SETUP_SAMPLES = 3
# Ray's socket paths must fit in 107 bytes; the session directory name and
# socket file add about 65 to the temp dir
MAX_RAY_TEMP_LEN = 40
# A fixed object store, so that neither its size nor the memory the session
# maps depends on how much memory the host had free at ray.init. The
# workloads' objects are small; 200 MB ran every workload without spilling.
OBJECT_STORE_BYTES = 512 << 20


def emit(kind: str, **data) -> None:
    print("BENCH " + json.dumps({"kind": kind, **data}), flush=True)


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: int):
    def _raise(_sig, _frame):
        raise OpTimeout(f"call exceeded {seconds} s")

    old = signal.signal(signal.SIGALRM, _raise)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _no_span(_name):
    return contextlib.nullcontext()


def set_worker_path() -> None:
    """Ray workers find the engine (and this module's functions) through
    PYTHONPATH, which they inherit at ray.init; sys.path does not reach
    them."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, HERE, os.environ.get("PYTHONPATH")) if p
    )


def _warm() -> int:
    import crawler_ray.codecs  # noqa: F401
    import crawler_ray.pipelines.crawl  # noqa: F401
    import crawler_ray.stages.fetch  # noqa: F401

    return os.getpid()


def ray_temp_dir(plan: dict) -> str | None:
    """Ray's session directory, inside the checkout. When the checkout's
    path is too long for Ray's socket paths, the directory is named through
    ``/proc/self/cwd``: every Ray process inherits the driver's working
    directory and resolves it there. None (Ray's default) only if even that
    is too long."""
    temp = os.path.join(plan["work_dir"], "ray")
    if len(temp) > MAX_RAY_TEMP_LEN:
        temp = os.path.join("/proc/self/cwd", os.path.relpath(temp))
    return temp if len(temp) <= MAX_RAY_TEMP_LEN else None


def plasma_dir(plan: dict) -> str | None:
    """None, for Ray's default /dev/shm, when it has room for the object
    store; otherwise a directory in the checkout, where Ray's own fallback
    would be /tmp."""
    shm = os.statvfs("/dev/shm") if os.path.isdir("/dev/shm") else None
    if shm and shm.f_bavail * shm.f_frsize >= 2 * OBJECT_STORE_BYTES:
        return None
    path = os.path.join(plan["work_dir"], "plasma")
    os.makedirs(path, exist_ok=True)
    return path


def start_session(plan: dict) -> float:
    """ray.init until a task worker has imported the engine, in seconds."""
    import ray

    kw = {"_temp_dir": ray_temp_dir(plan), "_plasma_directory": plasma_dir(plan)}
    t0 = time.perf_counter()
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        **{k: v for k, v in kw.items() if v},
    )
    ray.get(ray.remote(_warm).remote())
    return time.perf_counter() - t0


def crawl_config(plan: dict, run_dir: str, **over):
    from crawler_ray.pipelines.crawl import CrawlConfig
    from crawler_ray.webgen import WebSpec

    kw = dict(
        spec=WebSpec(plan["n_pages"], plan["n_hosts"], plan["seed"]),
        corpus_path=plan["corpus_path"],
        seeds=plan["seeds"],
        policy=policy(),
        run_dir=run_dir,
        limit=plan["limit"],
        n_fetch_shards=plan["n_fetch_shards"],
        n_seen_shards=plan["n_seen_shards"],
        seen_capacity_per_shard=plan["seen_capacity_per_shard"],
        verify_payload=plan["verify_payload"],
    )
    kw.update(over)
    return CrawlConfig(**kw)


def build_checkpoint(plan: dict) -> str:
    """Untimed: a run stopped by max_rounds just before its peak round."""
    from crawler_ray.pipelines.checkpoint import committed_rounds
    from crawler_ray.pipelines.crawl import crawl

    path = os.path.join(plan["run_dir"], "checkpoint")
    shutil.rmtree(path, ignore_errors=True)
    stop = plan["stop_round"]
    with deadline(OP_TIMEOUT_S):
        crawl(crawl_config(plan, path, max_rounds=stop + 1))
    got = committed_rounds(path)
    if got != list(range(stop + 1)):
        raise RuntimeError(f"checkpoint committed rounds {got}, want 0..{stop}")
    return path


def run_op(plan, golden, checkpoint, op_dir, span=_no_span, keep=False) -> dict:
    """One timed call plus its gate. Never raises: a call that raises,
    times out or mismatches the oracle comes back with ok=False."""
    from crawler_ray.pipelines.checkpoint import resume_crawl
    from crawler_ray.pipelines.crawl import crawl

    me = os.getpid()
    rec = {"ok": False}
    try:
        shutil.rmtree(op_dir, ignore_errors=True)
        if checkpoint:
            shutil.copytree(checkpoint, op_dir)
        cfg = crawl_config(plan, op_dir)
        n_procs = len(procstat.tree(me))
        cpu0 = procstat.tree_cpu_s(me)
        t0 = time.perf_counter()
        with procstat.PeakSampler(me) as peak:
            with deadline(OP_TIMEOUT_S), span(f"call.{plan['workload']}"):
                summary = resume_crawl(cfg) if checkpoint else crawl(cfg)
            rec["wall_s"] = time.perf_counter() - t0
            rec["cpu_s"] = procstat.tree_cpu_s(me) - cpu0
        rec["peak_rss_mb"] = peak.total_mb()
        rec["fetched"] = summary.fetched
        with span("gate"):
            rec["problems"] = gate.check(op_dir, golden, plan["verify_payload"])
        if rec["wall_s"] > OP_TIMEOUT_S:  # the alarm can be swallowed
            rec["problems"].append(f"call exceeded {OP_TIMEOUT_S} s")
        rec["bytes"] = gate.dir_bytes(op_dir)
        rec["ok"] = not rec["problems"] and summary.fetched > 0
        if not keep:
            procstat.settle(me, n_procs)
    except Exception as e:  # the loop must go on and count this call
        rec["error"] = f"{type(e).__name__}: {e}"
        rec["traceback"] = traceback.format_exc(limit=4)
    finally:
        if not keep:
            shutil.rmtree(op_dir, ignore_errors=True)
    return rec


def timed_loop(plan, golden, checkpoint, seconds: float) -> list[dict]:
    op_dir = os.path.join(plan["run_dir"], "op")
    t_loop = time.perf_counter()
    ops = []
    while True:
        used = time.perf_counter() - t_loop
        if ops and used + used / len(ops) > seconds:
            break
        rec = run_op(plan, golden, checkpoint, op_dir)
        ops.append(rec)
        emit("op", **rec)
    return ops


def traced_run(plan, golden, checkpoint) -> dict:
    """One spanned call, then every per-layer metric."""
    import ray
    import crawler_ray.pipelines.checkpoint as ckpt_mod
    import crawler_ray.pipelines.crawl as crawl_mod
    from crawler_ray.pipelines.checkpoint import committed_rounds, rebuild_shards
    from crawler_ray.state.seen import make_shards
    from crawler_ray.webgen import WebSpec, ensure_web_sharded

    name = plan["workload"]
    spans = layers.Spans(f"{name}-{plan['seed']}")
    handles: list = []
    undo = [
        spans.wrap(crawl_mod, "make_shards", handles),
        spans.wrap(crawl_mod, "write_frontier_shards"),
        spans.wrap(ckpt_mod, "make_shards", handles),
        spans.wrap(ckpt_mod, "rebuild_shards", handles),
        spans.wrap(ckpt_mod, "crawl"),
    ]
    op_dir = os.path.join(plan["run_dir"], "op")
    try:
        rec = run_op(plan, golden, checkpoint, op_dir, span=spans.span, keep=True)
    finally:
        for u in undo:
            u()
    emit("op", **rec)
    if not rec["ok"]:
        return {}
    n_call_spans = len(spans.rows) - 1  # everything but the gate span
    cap = plan["seen_capacity_per_shard"]
    m = layers.manifest_metrics(op_dir, rec["wall_s"])
    m["filters.degraded_shards"] = float(
        sum(c["cuckoo_degraded"] for c in ray.get([s.counts.remote() for s in handles[-1]]))
    )
    del handles[:]
    scratch = os.path.join(plan["run_dir"], "probe")
    with spans.span("frontier"):
        m.update(layers.frontier_metrics(op_dir, plan["n_fetch_shards"], scratch))
    with spans.span("checkpoint"):
        m["checkpoint.restore_us_per_row"] = layers.restore_us_per_row(op_dir, cap)
        rebuilt = [r for r in spans.rows if r[0] == "checkpoint.rebuild_shards"]
        if rebuilt:
            m["checkpoint.rebuild_shards_s"] = rebuilt[0][2] - rebuilt[0][1]
        else:
            cfg = crawl_config(plan, op_dir)
            t0 = time.perf_counter()
            shards = rebuild_shards(cfg, committed_rounds(op_dir)[-1])
            m["checkpoint.rebuild_shards_s"] = time.perf_counter() - t0
            del shards
    shutil.rmtree(op_dir, ignore_errors=True)
    with spans.span("seen.make_shards"):
        t0 = time.perf_counter()
        shards = make_shards(plan["n_seen_shards"], cap)
        ray.get([s.counts.remote() for s in shards])
        m["seen.make_shards_s"] = time.perf_counter() - t0
        del shards
    spec = WebSpec(plan["n_pages"], plan["n_hosts"], plan["seed"])
    with spans.span("micro"):
        m.update(layers.micro_metrics(spec, policy(), golden, plan["corpus_path"]))
        m.update(layers.seen_metrics(golden, cap, plan["n_seen_shards"]))
        m.update(layers.filter_metrics(golden, cap, plan["n_seen_shards"]))
    with spans.span("webgen"):
        t0 = time.perf_counter()
        ensure_web_sharded(
            plan["n_pages"], plan["n_hosts"], plan["n_fetch_shards"],
            seed=plan["seed"], cache_dir=os.path.join(scratch, "web"),
        )
        m["webgen.corpus_build_s"] = time.perf_counter() - t0
    shutil.rmtree(scratch, ignore_errors=True)
    m["oracle.urls_per_s"] = plan["oracle_urls"] / plan["oracle_s"]
    m["trace.overhead_pct"] = (
        n_call_spans * layers.span_cost_s() / rec["wall_s"] * 100.0
    )
    spans.dump(os.path.join(plan["work_dir"], "traces", f"{spans.run_id}.json"))
    return m


def main() -> int:
    plan_path, seconds, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    with open(plan_path) as f:
        plan = json.load(f)
    with open(plan["golden_path"], "rb") as f:
        golden = pickle.load(f)
    set_worker_path()
    import ray

    try:
        setups = []
        for i in range(1 if trace else SETUP_SAMPLES):
            if i:
                ray.shutdown()
            setups.append(start_session(plan))
        emit("setup", samples=setups, num_cpus=int(ray.cluster_resources()["CPU"]))
        checkpoint = None
        if plan["stop_round"] is not None:
            n_procs = len(procstat.tree(os.getpid()))
            try:
                checkpoint = build_checkpoint(plan)
                procstat.settle(os.getpid(), n_procs)
            except Exception as e:  # counted as the run's one failed call
                emit("op", ok=False, error=f"checkpoint: {type(e).__name__}: {e}")
                return 0
        if trace:
            emit("layers", metrics=traced_run(plan, golden, checkpoint))
        else:
            timed_loop(plan, golden, checkpoint, seconds)
    finally:
        ray.shutdown()
        # session logs and object store files of this run only
        for path in (ray_temp_dir(plan), os.path.join(plan["work_dir"], "plasma")):
            if path:
                shutil.rmtree(path, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
