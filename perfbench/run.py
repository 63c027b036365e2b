"""Crawl benchmark: one workload, one seed, one Ray session.

    python3 perfbench/run.py --workload wide_verify --seed 42 --seconds 24 --trace 0

Run from the root of a checkout. The synthetic web is generated from the
seed in ``.perfbench_work/cache`` and the oracle's golden result is
computed (both untimed); then a child process starts a Ray session with
one CPU and runs the workload as a closed loop with one client.
Every call is checked against the oracle; a call that raises, times out or
mismatches counts as failed and contributes no metrics.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones). Workloads and their parameters are in
``perfbench/workloads.json``; the metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import procstat

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
# a run must end within this; the child gets what remains after input
# generation, less a margin for shutting the session down
RUN_BUDGET_S = 175
KILL_MARGIN_S = 10
# Host speed: the median of calibration probes taken every PROBE_EVERY_S
# while the session runs (with one CPU, PROBES_AROUND probes before and
# after it instead). Time metrics are scaled to a host whose probe reads
# REF_CALIB_MS; see README.md, "Host speed".
PROBE_EVERY_S = 1.0
PROBES_AROUND = 5
REF_CALIB_MS = 30.0

END_TO_END = {
    "urls_per_s": "1/s",
    "cpu_s_per_kurl": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "run_dir_bytes_per_url": "B",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in ("crawl.rounds", "filters.degraded_shards"):
        return "count"
    if name.endswith("urls_per_s"):
        return "1/s"
    if name.endswith("bytes_per_url"):
        return "B"
    for suffix, unit in (("_us_per_row", "us"), ("_us", "us"), ("_ms", "ms"),
                         ("_s", "s"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name}")


def run_session(plan_path: str, seconds: int, trace: int, budget: float,
                log_path: str) -> tuple[list[dict], bool, list[float]]:
    """Run session.py; (its BENCH events, whether it had to be killed,
    host-speed probes). The child leads its own process
    group, so the whole Ray session can be killed on timeout; every
    process of the group is waited for.

    With two or more CPUs the session is confined to all but the last
    one, and the probe runs alone on that last CPU, so it follows the
    host's speed over the whole run without feeling the session's load.
    With one CPU the probe would share it with the session, so it runs
    only before the session starts and after it has ended."""
    import layers

    # Ray runs its workers at nice 15 by default, so any other busy process
    # on the host would starve the measured work; run them at the driver's.
    # Ray's memory monitor kills workers when the host's memory is nearly
    # full, which on a shared host other tenants' memory can cause; a killed
    # worker fails the call, so it is off.
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0", RAY_worker_niceness="0",
               RAY_memory_monitor_refresh_ms="0")
    cpus = sorted(os.sched_getaffinity(0))
    probe_during = len(cpus) > 1
    probes = [] if probe_during else [layers.calib_ms() for _ in range(PROBES_AROUND)]
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "session.py"), plan_path,
             str(seconds), str(trace)],
            stdout=subprocess.PIPE, stderr=log, text=True, cwd=ROOT, env=env,
            start_new_session=True,
        )
        if probe_during:
            # before the child starts Ray: every Ray process inherits this
            os.sched_setaffinity(proc.pid, cpus[:-1])
            os.sched_setaffinity(0, cpus[-1:])
        events: list[dict] = []

        def _read():
            for line in proc.stdout:
                if line.startswith("BENCH "):
                    events.append(json.loads(line[6:]))

        reader = threading.Thread(target=_read, daemon=True)
        reader.start()
        t_end = time.monotonic() + budget
        try:
            while proc.poll() is None and time.monotonic() < t_end:
                if probe_during:
                    probes.append(layers.calib_ms())
                try:
                    proc.wait(timeout=min(PROBE_EVERY_S, max(0.0, t_end - time.monotonic())))
                except subprocess.TimeoutExpired:
                    pass
        finally:
            os.sched_setaffinity(0, cpus)
        killed = proc.poll() is None
        if killed:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        reader.join(timeout=10)
    _reap_group(proc.pid)
    if not probe_during:
        probes += [layers.calib_ms() for _ in range(PROBES_AROUND)]
    return events, killed, probes


def _reap_group(pgid: int, wait_s: float = 15.0) -> None:
    """Stop any process the session left in its group and wait for it."""
    sig = signal.SIGTERM
    t_end = time.time() + wait_s
    while procstat.group(pgid):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        if time.time() > t_end:
            sig = signal.SIGKILL
        time.sleep(0.2)


def summarize(events: list[dict], killed: bool, plan: dict, trace: int,
              calib_ms: float) -> dict:
    ops = [e for e in events if e["kind"] == "op"]
    attempted = len(ops)
    failed = sum(not o["ok"] for o in ops)
    if killed or not ops:  # the call in flight when the session died
        attempted += 1
        failed += 1
    good = [o for o in ops if o["ok"]]
    setups = [s for e in events if e["kind"] == "setup" for s in e["samples"]]
    slow = calib_ms / REF_CALIB_MS  # above 1 on a host slower than the reference
    metrics: dict[str, float] = {}
    if trace:
        for e in events:
            if e["kind"] == "layers" and e["metrics"]:
                metrics = {**e["metrics"], "host.calib_ms": calib_ms}
    elif good and setups:
        metrics["urls_per_s"] = slow * statistics.median(
            o["fetched"] / o["wall_s"] for o in good
        )
        metrics["cpu_s_per_kurl"] = statistics.median(
            o["cpu_s"] / o["fetched"] * 1000.0 for o in good
        ) / slow
        metrics["setup_s"] = statistics.median(setups) / slow
        metrics["peak_rss_mb"] = statistics.median(o["peak_rss_mb"] for o in good)
        metrics["run_dir_bytes_per_url"] = statistics.median(
            o["bytes"] / plan["golden_urls"] for o in good
        )
    want = END_TO_END if not trace else metrics
    complete = bool(metrics) and all(k in metrics for k in want)
    return {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": END_TO_END.get(k) or unit_of(k)}
            for k, v in sorted(metrics.items())
        },
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 cfg: dict | None = None) -> tuple[dict, list[dict], float]:
    """Generate the inputs, run the session, check it; (result, session
    events, host-speed probe in ms)."""
    import layers
    import workloads

    t_start = time.time()
    run_dir = os.path.join(WORK, "runs", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        plan = workloads.make_plan(workload, seed, WORK, run_dir, cfg)
        plan_path = os.path.join(run_dir, "plan.json")
        with open(plan_path, "w") as f:
            json.dump(plan, f)
        log_path = os.path.join(run_dir, "session.log")
        budget = RUN_BUDGET_S - KILL_MARGIN_S - (time.time() - t_start)
        events, killed, probes = run_session(plan_path, seconds, trace, budget,
                                             log_path)
        calib = statistics.median(probes or [layers.calib_ms()])
        result = summarize(events, killed, plan, trace, calib)
        if result["failed"]:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            for e in events:
                if e["kind"] == "op" and not e["ok"]:
                    sys.stderr.write(json.dumps(e) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result, events, calib


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: workloads.json default_seed)")
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "crawler_ray", "__init__.py")):
        print("perfbench: no crawler_ray package next to perfbench/; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, HERE]
    import workloads

    seed = args.seed
    if seed is None:
        seed = workloads.load_config()["default_seed"]
    result, events, calib = run_workload(args.workload, seed, args.seconds,
                                         args.trace)

    setup = next((e for e in events if e["kind"] == "setup"), {})
    print(f"# workload={args.workload} seed={seed} trace={args.trace} "
          f"num_cpus={setup.get('num_cpus')} os.cpu_count={os.cpu_count()} "
          f"attempted={result['attempted']} failed={result['failed']}")
    when = ("while the session ran" if len(os.sched_getaffinity(0)) > 1
            else "before and after the session (one CPU)")
    print(f"# host.calib_ms={calib:.2f}, probed {when}: time metrics are "
          f"scaled by {calib / REF_CALIB_MS:.4f} to the {REF_CALIB_MS} ms "
          f"reference host")
    print(f"#   raw setup {', '.join(f'{x:.3f}' for x in setup.get('samples', []))} s")
    for e in events:
        if e["kind"] == "op" and e["ok"]:
            print(f"#   raw call {e['wall_s']:.3f} s  {e['fetched']} URLs  "
                  f"{e['cpu_s']:.2f} cpu-s")
    for k, v in result["metrics"].items():
        print(f"#   {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
