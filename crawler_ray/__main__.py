"""CLI entry point: ``python -m crawler_ray ...``.

Maps the reference crawler's option surface (/root/reference/src/
Initialisation.hs:28-36, Main.hs:22-38) onto the Ray engine:

  -u URL ...        seed URLs                    (Initialisation.hs:97-102)
  -uf FILE          seed-URL file                (Initialisation.hs:104-119)
  -i CSV            url include patterns         (Initialisation.hs:70-83)
  -if FILE          url include pattern file
  -d CSV            domain include patterns      (Initialisation.hs:85-89)
  -ff FILE          form instructions            (Initialisation.hs:138-178)
  -df FILE          href directions              (Directions.hs:45-67)
  -l N              crawl limit (stored docs)    (Main.hs:61-66)
  -wf DIR           also write WARC output       (Output.hs:23-53)

plus engine options (--run-dir, --resume, --pages, --hosts, --seed,
--fetch-shards, --seen-shards, --politeness-delay,
--no-robots, --num-cpus). The "web" is the deterministic synthetic corpus;
point ``fetch`` at a real HTTP client to crawl a live web.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="crawler_ray")
    p.add_argument("-u", dest="seeds", action="append", default=[], metavar="URL")
    p.add_argument("-uf", dest="seed_files", action="append", default=[], metavar="FILE")
    p.add_argument("-i", dest="url_patterns", default="", metavar="CSV")
    p.add_argument("-if", dest="url_pattern_file", default=None, metavar="FILE")
    p.add_argument("-d", dest="domain_patterns", default="", metavar="CSV")
    p.add_argument("-ff", dest="form_file", default=None, metavar="FILE")
    p.add_argument("-df", dest="directions_file", default=None, metavar="FILE")
    p.add_argument("-l", dest="limit", type=int, default=None)
    p.add_argument("-wf", dest="warc_dir", default=None, metavar="DIR")
    p.add_argument("--run-dir", default="/tmp/crawler_ray_run")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--pages", type=int, default=2000)
    p.add_argument("--hosts", type=int, default=80)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--fetch-shards", type=int, default=32)
    p.add_argument("--seen-shards", type=int, default=8)
    p.add_argument("--politeness-delay", type=float, default=0.0)
    p.add_argument("--no-robots", action="store_true")
    p.add_argument("--max-rounds", type=int, default=50)
    p.add_argument("--num-cpus", type=int, default=None)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .configs import (
        load_patterns_csv,
        load_patterns_file,
        parse_form_instructions,
        parse_href_directions,
    )
    from .fetchsim import FetchPolicy
    from .pipelines.checkpoint import resume_crawl
    from .pipelines.crawl import CrawlConfig, crawl, read_crawled
    from .urlkit import IncludePatterns
    from .webgen import ensure_web_sharded

    seeds = list(args.seeds)
    for f in args.seed_files:
        with open(f) as fh:
            seeds += [ln.strip() for ln in fh if ln.strip()]

    url_pats = set(load_patterns_csv(args.url_patterns))
    if args.url_pattern_file:
        with open(args.url_pattern_file) as fh:
            url_pats |= set(load_patterns_file(fh.read()))
    dom_pats = set(load_patterns_csv(args.domain_patterns))

    form_instructions = {}
    if args.form_file:
        with open(args.form_file) as fh:
            form_instructions = parse_form_instructions(fh.read())
    directions = ()
    if args.directions_file:
        with open(args.directions_file) as fh:
            directions = tuple(parse_href_directions(fh.read()))

    spec, corpus_path = ensure_web_sharded(args.pages, args.hosts, seed=args.seed)
    policy = FetchPolicy(
        include=IncludePatterns(
            url_patterns=frozenset(url_pats), domain_patterns=frozenset(dom_pats)
        ),
        form_instructions=form_instructions,
        directions=directions,
        robots_enabled=not args.no_robots,
    )
    cfg = CrawlConfig(
        spec=spec,
        corpus_path=corpus_path,
        seeds=seeds,
        policy=policy,
        run_dir=args.run_dir,
        limit=args.limit,
        max_rounds=args.max_rounds,
        n_fetch_shards=args.fetch_shards,
        n_seen_shards=args.seen_shards,
        politeness_delay=args.politeness_delay,
    )
    if not args.resume and os.path.isdir(args.run_dir):
        # a FRESH run replaces whatever run lived here: crawl() only
        # clears round dirs as it reaches them, so a shorter second run
        # would leave the first run's later rounds in place and
        # read_crawled/--resume would silently mix two runs' documents
        # (review r5)
        import glob as _glob
        import shutil as _shutil

        stale = _glob.glob(os.path.join(args.run_dir, "round_*")) + _glob.glob(
            os.path.join(args.run_dir, "frontier_*")
        )
        for p in stale + [
            os.path.join(args.run_dir, f)
            for f in ("STATUS.json", "RUN_MANIFEST.json", "run_config.json",
                      "inject")
            if os.path.exists(os.path.join(args.run_dir, f))
        ]:
            _shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)
        if stale:
            print(
                f"cleared previous run artifacts in {args.run_dir} "
                "(use --resume to continue a run)",
                file=sys.stderr,
            )
    summary = resume_crawl(cfg) if args.resume else crawl(cfg)

    if args.warc_dir:
        from .warc import write_warc

        n = write_warc(read_crawled(args.run_dir), args.warc_dir)
        print(f"wrote {n} WARC entries to {args.warc_dir}", file=sys.stderr)
    else:
        # no -wf: the reference streams the WARC records to STDOUT
        # (Output.hs:50-53, getSink Nothing = sinkHandle stdout); the JSON
        # summary moves to stderr in this mode
        from .warc import warc_entry

        out = sys.stdout.buffer
        for batch in read_crawled(args.run_dir).iter_batches(batch_format="pyarrow"):
            if "redirect_chain" not in batch.column_names:
                break  # empty crawl placeholder dataset
            for chain, content in zip(
                batch["redirect_chain"].to_pylist(), batch["content"].to_pylist()
            ):
                out.write(warc_entry(chain, content))
        out.flush()

    print(
        json.dumps(
            {
                "rounds": summary.rounds,
                "fetched": summary.fetched,
                "stored": summary.stored,
                "quota_reached": summary.quota_reached,
                "frontier_exhausted": summary.frontier_exhausted,
                "run_dir": summary.run_dir,
            }
        ),
        file=sys.stdout if args.warc_dir else sys.stderr,
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
