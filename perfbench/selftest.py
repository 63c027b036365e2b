"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny web goes through all three workloads once, end to end through
   run.py's runner; each run must pass the oracle gate with no failure.
   One traced run must report exactly the per-layer metrics, and the
   untraced ones exactly the end-to-end metrics, that BENCHMARK.json
   lists.
2. A planted mismatch: a resume_quota checkpoint is copied, one row of
   its read order is altered, and the resumed call must come out as a
   failed run in the runner's accounting.

Exits 0 when both hold.
"""

from __future__ import annotations

import copy
import glob
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def tiny_config() -> dict:
    cfg = copy.deepcopy(workloads.load_config())
    cfg["workloads"]["wide_verify"].update(n_pages=300, n_seeds=8)
    cfg["workloads"]["narrow_saturated"].update(n_pages=300)
    return cfg


def plant_mismatch(run_dir: str) -> None:
    """Swap the URLs of the first two rows of one read-order file."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    f = sorted(glob.glob(os.path.join(run_dir, "round_00000", "order", "*.parquet")))[0]
    t = pq.read_table(f)
    urls = t["url"].to_pylist()
    if len(urls) < 2:
        raise RuntimeError("round 0 order file too small to plant a mismatch")
    urls[0], urls[1] = urls[1], urls[0]
    t = t.set_column(t.schema.get_field_index("url"), "url", pa.array(urls, pa.string()))
    pq.write_table(t, f)


def planted_run(cfg: dict) -> dict:
    """In-process session: checkpoint, plant, resume, gate, summarize."""
    import pickle

    import ray
    import session

    run_dir = os.path.join(run.WORK, "runs", f"selftest-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    session.set_worker_path()
    try:
        plan = workloads.make_plan("resume_quota", SEED, run.WORK, run_dir, cfg)
        with open(plan["golden_path"], "rb") as f:
            golden = pickle.load(f)
        session.start_session(plan)
        ckpt = session.build_checkpoint(plan)
        bad = os.path.join(run_dir, "checkpoint_planted")
        shutil.copytree(ckpt, bad)
        plant_mismatch(bad)
        rec = session.run_op(plan, golden, bad, os.path.join(run_dir, "op"))
        rec["kind"] = "op"
        result = run.summarize([rec], False, plan, trace=0, calib_ms=0.0)
        return result | {"problems": rec.get("problems")}
    finally:
        ray.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)


def declared_metrics() -> tuple[set, set]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return (
        {m["name"] for m in bench["end_to_end"]},
        {m["name"] for m in bench["per_layer"]},
    )


def main() -> int:
    cfg = tiny_config()
    end_to_end, per_layer = declared_metrics()
    ok = True
    runs = [(name, 0) for name in cfg["workloads"]] + [("narrow_saturated", 1)]
    for name, trace in runs:
        result, _events, _calib = run.run_workload(name, SEED, 1, trace, cfg)
        names = set(result["metrics"])
        want = per_layer if trace else end_to_end
        good = result["correct"] and result["failed"] == 0 and names == want
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name} trace={trace}: attempted="
              f"{result['attempted']} failed={result['failed']} "
              f"missing={sorted(want - names)} extra={sorted(names - want)}")
    planted = planted_run(cfg)
    good = planted["failed"] == 1 and not planted["correct"] and planted["problems"]
    ok &= bool(good)
    print(f"{'PASS' if good else 'FAIL'} planted mismatch: failed="
          f"{planted['failed']} problems={planted['problems']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
