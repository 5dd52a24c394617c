"""Command-line interface: ``python -m repro <command>``.

Wraps the common workflows so a cohort study runs without writing
Python:

* ``generate`` — synthesize a population and save the event store;
* ``stats`` — summarize a store (optionally a query's sub-cohort);
* ``select`` — run a query, write matching patient ids as CSV;
* ``query`` — run a query, print the match count; ``--explain`` prints
  the planner's normalized tree with estimated selectivities and cache
  residency (``--repeat 2`` shows warm-cache hits); ``--lint`` runs the
  static analyzer first and refuses to evaluate a query with
  error-severity diagnostics (exit **4**);
* ``lint-query`` — statically analyze a query without evaluating it
  (no store required; ``--store`` checks names against a real store,
  ``--json`` emits machine-readable diagnostics);
* ``timeline`` — render the cohort timeline SVG for a query;
* ``overview`` — render the density overview SVG;
* ``export-web`` — batch-export personal timeline HTML pages;
* ``recognition`` — run the recognition-study model on a query's cohort;
* ``quarantine`` — inspect (``show``) or re-integrate (``replay``) the
  dead-letter store written during a resilient ingestion;
* ``shard`` — ``build`` a sharded on-disk store from a ``.npz``
  snapshot (``--replication R`` lands every segment as R token-verified
  replica copies), print its ``info``, ``verify`` every column
  checksum, ``fsck`` a full health report, ``repair`` damaged shards
  from a surviving peer replica, a flat snapshot or a sibling store
  (``--from``), ``scrub`` an incremental anti-entropy verify-and-heal
  pass (``--once`` for a full pass, ``--budget`` bytes per tick), or
  ``replicate`` an existing store up to a higher replication factor;
* ``sketch`` — ``build`` rebuilds missing/stale/corrupt per-segment
  cohort-sketch sidecars, ``info`` reports per-segment sketch health
  plus the folded whole-store summary.

``generate --stream`` generates batch-by-batch straight into a sharded
store directory (peak memory is one batch, so million-patient stores
fit), and ``query --density out.svg`` renders the aggregate-first
cohort density view from sketch folds alone.

Every command that reads a store accepts either a ``.npz`` snapshot or
a sharded store directory (detected automatically; ``query --shards``
asserts the input is sharded and ``--workers`` sizes the scatter-gather
pool).  ``--on-damage quarantine`` opens a damaged sharded store in
degraded mode instead of failing; a ``query`` that returns degraded
(partial) results exits with status **3** so scripts can tell "complete
answer" (0) from "answer missing quarantined shards" (3) from "error"
(1; argparse itself owns 2).  ``query --lint`` and ``lint-query`` exit
with status **4** when the static analyzer reports an error-severity
diagnostic, so CI can distinguish "query rejected by lint" from
runtime failures.

Example::

    python -m repro generate --patients 20000 --out study.npz
    python -m repro select study.npz "concept T90" --out cohort.csv
    python -m repro timeline study.npz "concept T90" --rows 200 --out fig.svg
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError

__all__ = ["main"]


def _add_query_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "query",
        help="query in the textual language, e.g. "
             "'concept T90 and atleast 2 category gp_contact'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PAsTAs cohort-visualization workbench (ICDE 2016 "
                    "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a population store")
    p.add_argument("--patients", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--full-fidelity", action="store_true",
                   help="emit raw registry records and run the full "
                        "integration pipeline (slower)")
    p.add_argument("--max-retries", type=int, default=3,
                   help="retries per transient source-read failure "
                        "(full-fidelity ingestion)")
    p.add_argument("--fail-fast", action="store_true",
                   help="abort on the first degraded source instead of "
                        "completing with the remaining ones")
    p.add_argument("--quarantine", default=None, metavar="JSONL",
                   help="dead-letter unparseable records to this JSONL "
                        "file for later replay")
    p.add_argument("--stream", action="store_true",
                   help="generate batch-by-batch straight into a sharded "
                        "store directory (--out); peak memory is one "
                        "batch, so E6 populations fit")
    p.add_argument("--batch-size", type=int, default=20_000,
                   help="patients per streamed batch (with --stream)")
    p.add_argument("--shards", type=int, default=4,
                   help="shard count for --stream (default 4)")
    p.add_argument("--out", required=True,
                   help="output .npz path (or directory with --stream)")

    def _add_on_damage(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--on-damage", choices=("fail", "quarantine"), default=None,
            dest="on_damage",
            help="for sharded stores: 'fail' refuses to open a damaged "
                 "store (default); 'quarantine' moves damaged shards "
                 "aside and serves degraded, partial results",
        )

    p = sub.add_parser("stats", help="summarize a store")
    p.add_argument("store", help="input .npz path")
    p.add_argument("--query", default=None)
    _add_on_damage(p)

    p = sub.add_parser("select", help="run a query, write ids as CSV")
    p.add_argument("store")
    _add_query_argument(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("query",
                       help="run a query, print the match count (and "
                            "optionally the evaluation plan)")
    p.add_argument("store")
    _add_query_argument(p)
    p.add_argument("--explain", action="store_true",
                   help="print the normalized plan with estimated "
                        "selectivities and cache residency")
    p.add_argument("--lint", action="store_true",
                   help="statically analyze the query first; refuse to "
                        "evaluate on error-severity diagnostics (exit 4), "
                        "print warnings to stderr and continue")
    p.add_argument("--repeat", type=int, default=1,
                   help="evaluate N times (N>1 demonstrates warm-cache "
                        "hits in --explain)")
    p.add_argument("--shards", action="store_true",
                   help="require the store argument to be a sharded "
                        "store directory (scatter-gather execution)")
    p.add_argument("--workers", type=int, default=None,
                   help="scatter-gather worker processes (default: "
                        "min(4, cpus); 1 forces serial)")
    p.add_argument("--density", default=None, metavar="SVG",
                   help="also render the cohort's aggregate-first density "
                        "view (sketch folds only, no row materialization) "
                        "to this SVG path")
    _add_on_damage(p)

    p = sub.add_parser("lint-query",
                       help="statically analyze a query without running "
                            "it (exit 4 on error-severity diagnostics)")
    _add_query_argument(p)
    p.add_argument("--store", default=None,
                   help="check system/category/source names against this "
                        "store (.npz or shard directory) instead of the "
                        "built-in vocabulary")
    p.add_argument("--json", action="store_true",
                   help="machine-readable diagnostics on stdout")

    p = sub.add_parser("timeline", help="render the cohort timeline SVG")
    p.add_argument("store")
    _add_query_argument(p)
    p.add_argument("--rows", type=int, default=200)
    p.add_argument("--align", default=None,
                   help="concept code to align on (e.g. T90)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("overview", help="render the density overview SVG")
    p.add_argument("store")
    p.add_argument("--query", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("export-web", help="batch-export personal timelines")
    p.add_argument("store")
    _add_query_argument(p)
    p.add_argument("--limit", type=int, default=100)
    p.add_argument("--simplified", action="store_true")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("recognition", help="run the recognition-study model")
    p.add_argument("store")
    _add_query_argument(p)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("compare", help="contrast a cohort vs the rest")
    p.add_argument("store")
    _add_query_argument(p)
    p.add_argument("--top", type=int, default=8)

    p = sub.add_parser("cohort-page", help="export an interactive cohort page")
    p.add_argument("store")
    _add_query_argument(p)
    p.add_argument("--rows", type=int, default=150)
    p.add_argument("--out", required=True)

    p = sub.add_parser("serve", help="serve the web workbench")
    p.add_argument("store")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000)
    p.add_argument("--workers", type=int, default=1,
                   help="pre-forked worker processes sharing the "
                        "listening socket; each holds its own store "
                        "handles and caches, and a crashed worker is "
                        "re-forked (default 1: in-process)")
    p.add_argument("--max-inflight", type=int, default=64,
                   dest="max_inflight", metavar="N",
                   help="admission-control bound per worker: beyond N "
                        "concurrently executing requests, excess "
                        "requests are shed with 429 Retry-After "
                        "instead of queueing (0 disables)")
    p.add_argument("--rate-limit", type=float, default=None,
                   dest="rate_limit", metavar="RPS",
                   help="per-client token-bucket rate limit in "
                        "requests/second (burst via --rate-burst; "
                        "default: no rate limiting)")
    p.add_argument("--rate-burst", type=int, default=20,
                   dest="rate_burst", metavar="N",
                   help="token-bucket burst capacity per client "
                        "(default 20)")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request wall-clock budget in seconds, "
                        "propagated into query execution "
                        "(503 on overrun)")
    p.add_argument("--degraded-mode", choices=("serve", "fail"),
                   default="serve",
                   help="what to serve while sources are degraded: "
                        "banner ('serve') or all-routes 503 ('fail')")
    _add_on_damage(p)

    p = sub.add_parser("sketch",
                       help="manage per-segment cohort sketch sidecars")
    ksub = p.add_subparsers(dest="sketch_command", required=True)
    k = ksub.add_parser("build",
                        help="rebuild missing/stale/corrupt sketch "
                             "sidecars from segment columns")
    k.add_argument("dir", help="sharded store directory")
    k.add_argument("--force", action="store_true",
                   help="rebuild every sidecar even if healthy")
    k = ksub.add_parser("info",
                        help="sketch health per segment plus the folded "
                             "whole-store summary")
    k.add_argument("dir", help="sharded store directory")
    k.add_argument("--json", action="store_true",
                   help="machine-readable summary on stdout")

    p = sub.add_parser("shard",
                       help="build, inspect or verify a sharded store")
    ssub = p.add_subparsers(dest="shard_command", required=True)
    s = ssub.add_parser("build",
                        help="partition a .npz store into shard segments")
    s.add_argument("store", help="input .npz path")
    s.add_argument("--out", required=True, help="output shard directory")
    s.add_argument("--shards", type=int, default=4,
                   help="number of shards (default 4)")
    s.add_argument("--partition", choices=("hash", "range"), default="hash",
                   help="patient-id hash (balanced, streamable) or "
                        "contiguous range (id locality)")
    s.add_argument("--replication", type=int, default=1,
                   help="replica copies per segment (default 1; >=2 "
                        "enables online read failover and anti-entropy "
                        "scrub repair)")
    s = ssub.add_parser("append",
                        help="land a .npz event batch as checksummed "
                             "delta segments (one atomic manifest bump; "
                             "readers never block)")
    s.add_argument("dir", help="shard directory")
    s.add_argument("batch", help=".npz event batch to append")
    s = ssub.add_parser("compact",
                        help="fold pending delta segments into fresh "
                             "base-segment generations (atomic install, "
                             "crash-safe)")
    s.add_argument("dir", help="shard directory")
    s.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    s = ssub.add_parser("info", help="summarize a sharded store")
    s.add_argument("dir", help="shard directory")
    s = ssub.add_parser("verify",
                        help="re-hash every column file against the "
                             "manifests (nonzero exit on any failure)")
    s.add_argument("dir", help="shard directory")
    s.add_argument("--json", action="store_true",
                   help="machine-readable per-shard report on stdout")
    s = ssub.add_parser("fsck",
                        help="full health report: every shard, every "
                             "column, quarantine state")
    s.add_argument("dir", help="shard directory")
    s.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    s = ssub.add_parser("repair",
                        help="salvage or rebuild damaged shards, then "
                             "re-verify (exit 0 only when clean)")
    s.add_argument("dir", help="shard directory")
    s.add_argument("--from", dest="source", default=None, metavar="SOURCE",
                   help="repair source: the flat .npz the store was "
                        "sharded from, or a sibling sharded-store "
                        "directory (salvageable shards need none)")
    s.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    s = ssub.add_parser("scrub",
                        help="incremental background verify of every "
                             "replica, healing damage from token-verified "
                             "peers (exit 0 only when clean)")
    s.add_argument("dir", help="shard directory")
    s.add_argument("--once", action="store_true",
                   help="run one full pass over the store instead of a "
                        "single byte-budgeted tick")
    s.add_argument("--budget", type=int, default=None, metavar="BYTES",
                   help="bytes to verify per tick (default: "
                        "ShardConfig.scrub_bytes_per_tick)")
    s.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    s = ssub.add_parser("replicate",
                        help="raise the replication factor of an existing "
                             "store in place (online; content tokens "
                             "unchanged)")
    s.add_argument("dir", help="shard directory")
    s.add_argument("--replication", type=int, required=True,
                   help="target replica copies per segment (>= current)")
    s.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")

    p = sub.add_parser("quarantine",
                       help="inspect or replay the dead-letter store")
    qsub = p.add_subparsers(dest="quarantine_command", required=True)
    q = qsub.add_parser("show", help="summarize quarantined records")
    q.add_argument("path", help="quarantine JSONL path")
    q = qsub.add_parser("replay",
                        help="re-integrate dead letters and merge them "
                             "into a store")
    q.add_argument("path", help="quarantine JSONL path")
    q.add_argument("--store", required=True,
                   help="base .npz store to merge the recovered events "
                        "into (also supplies demographics)")
    q.add_argument("--out", required=True, help="merged .npz output path")
    q.add_argument("--horizon", type=int, default=None,
                   help="extraction horizon day (default: last event "
                        "day in the base store)")
    return parser


def _load_workbench(path: str, workers: int | None = None,
                    on_damage: str | None = None):
    """A workbench over a ``.npz`` snapshot or a sharded store directory."""
    import os

    from repro.workbench import Workbench

    if os.path.isdir(path):
        from repro.config import ShardConfig

        shard_config = None
        if workers is not None or on_damage is not None:
            kwargs: dict = {}
            if workers is not None:
                kwargs["n_workers"] = workers
            if on_damage is not None:
                kwargs["on_damage"] = on_damage
            shard_config = ShardConfig(**kwargs)
        return Workbench.from_shards(path, shard_config=shard_config)
    from repro.io import load_store

    return Workbench.from_store(load_store(path))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout consumer (e.g. `head`) went away; not an error.
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        from repro.io import save_store

        if args.stream:
            if args.full_fidelity:
                print("error: --stream uses the fast generator; drop "
                      "--full-fidelity", file=sys.stderr)
                return 1
            from repro.simulate.stream import generate_streamed_store

            report = generate_streamed_store(
                args.patients, args.out, n_shards=args.shards,
                batch_size=args.batch_size, seed=args.seed,
            )
            print(f"streamed {report.n_patients:,} patients / "
                  f"{report.n_events:,} events in {report.n_batches} "
                  f"batch(es) into {report.n_shards} shard(s) at "
                  f"{args.out}")
            print(f"compactions: {report.compactions}, "
                  f"final revision {report.revision}")
            return 0

        if args.full_fidelity:
            from repro.config import ResilienceConfig
            from repro.simulate import generate_raw_sources
            from repro.sources.integrate import IntegrationPipeline

            quarantine = None
            if args.quarantine:
                from repro.resilience.quarantine import QuarantineStore

                quarantine = QuarantineStore(args.quarantine)
            raw = generate_raw_sources(args.patients, seed=args.seed)
            pipeline = IntegrationPipeline(
                horizon_day=raw.window.end_day,
                resilience=ResilienceConfig(
                    max_retries=args.max_retries,
                    fail_fast=args.fail_fast,
                ),
                quarantine=quarantine,
            )
            store, report = pipeline.run(
                raw.patients, raw.gp_claims, raw.hospital_episodes,
                raw.municipal_records, raw.specialist_claims,
            )
            print(f"integrated {report.loaded_events:,} events "
                  f"({report.failed_records} bad records)")
            if (report.is_degraded or report.failures_truncated
                    or report.quarantined):
                print(report.format_summary())
        else:
            from repro.simulate import generate_store_fast

            store, __ = generate_store_fast(args.patients, seed=args.seed)
        save_store(store, args.out)
        print(f"wrote {store.n_patients:,} patients / "
              f"{store.n_events:,} events to {args.out}")
        return 0

    if args.command == "lint-query":
        return _dispatch_lint_query(args)

    if args.command == "quarantine":
        return _dispatch_quarantine(args)

    if args.command == "shard":
        return _dispatch_shard(args)

    if args.command == "sketch":
        return _dispatch_sketch(args)

    if args.command == "serve":
        return _dispatch_serve(args)

    wb = _load_workbench(args.store,
                         workers=getattr(args, "workers", None),
                         on_damage=getattr(args, "on_damage", None))

    if args.command == "stats":
        ids = wb.select(args.query) if args.query else None
        print(wb.stats(ids).format_table())
        return 0

    if args.command == "query":
        from repro.errors import ShardFormatError

        if args.shards and not wb.is_sharded:
            raise ShardFormatError(
                args.store, "--shards requires a sharded store directory "
                            "(build one with `repro shard build`)"
            )
        if args.lint:
            diagnostics = wb.analyze(args.query)
            for diag in diagnostics:
                print(diag.format(), file=sys.stderr)
            if any(d.severity == "error" for d in diagnostics):
                print("query rejected by static analysis (not evaluated)",
                      file=sys.stderr)
                return 4
        repeats = max(1, args.repeat)
        for __ in range(repeats):
            ids = wb.select(args.query)
        print(f"{len(ids):,} of {wb.store.n_patients:,} patients match")
        if wb.is_sharded:
            executor = wb.engine.executor
            print(f"scatter-gather: {wb.store.n_shards} shards, "
                  f"{executor.mode} mode, {executor.n_workers} worker(s)")
        if args.explain:
            print()
            print(wb.explain(args.query))
        if args.density:
            scene = wb.cohort_density(args.query, drilldown=False)
            with open(args.density, "w", encoding="utf-8") as f:
                f.write(scene.svg_text)
            print(f"density view ({scene.n_groups} chapter(s) x "
                  f"{scene.n_buckets} bucket(s)) -> {args.density}")
        degradation = wb._shard_degradation() if wb.is_sharded else None
        if degradation is not None and degradation.is_degraded:
            # Partial answer: exit 3, distinct from success (0) and
            # errors (1), so scripts cannot mistake a degraded count
            # for a complete one.
            print(degradation.format_summary(), file=sys.stderr)
            return 3
        return 0

    if args.command == "select":
        import csv

        ids = wb.select(args.query)
        with open(args.out, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["patient_id"])
            writer.writerows([int(p)] for p in ids)
        print(f"{len(ids):,} patients -> {args.out}")
        return 0

    if args.command == "timeline":
        from repro.query.ast import Concept
        from repro.viz.timeline_view import TimelineConfig

        ids = wb.select(args.query)[: args.rows]
        if args.align:
            alignment = wb.align(Concept(args.align.upper()))
            scene = wb.timeline(ids, TimelineConfig(mode="aligned"),
                                alignment)
        else:
            scene = wb.timeline(ids)
        scene.save(args.out)
        print(f"{len(scene.rows)} rows, {scene.ink_marks:,} marks "
              f"-> {args.out}")
        return 0

    if args.command == "overview":
        ids = wb.select(args.query) if args.query else None
        scene = wb.overview(ids)
        scene.save(args.out)
        print(f"{scene.n_patients:,} patients, "
              f"{scene.n_row_buckets}x{scene.n_month_bins} grid "
              f"-> {args.out}")
        return 0

    if args.command == "export-web":
        ids = wb.select(args.query)[: args.limit]
        count = wb.export_timelines(ids, args.out_dir,
                                    simplified=args.simplified)
        print(f"{count} pages -> {args.out_dir}/")
        return 0

    if args.command == "compare":
        from repro.cohort.compare import compare_cohorts

        ids = wb.select(args.query)
        comparison = compare_cohorts(wb.store, ids)
        print(comparison.format_table(top=args.top))
        return 0

    if args.command == "cohort-page":
        from repro.viz.html_export import export_cohort_page

        ids = wb.select(args.query)[: args.rows]
        export_cohort_page(wb.store, [int(p) for p in ids], args.out,
                           title=f"Cohort: {args.query}")
        print(f"{len(ids)} rows -> {args.out}")
        return 0

    if args.command == "recognition":
        ids = wb.select(args.query)
        reference_day = int(wb.store.day.max())
        study = wb.recognition_study(ids, reference_day, seed=args.seed)
        print(f"cohort: {study.n_patients:,} patients")
        for outcome, value in study.as_percentages().items():
            print(f"  {outcome:<18} {value:5.1f} %")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _dispatch_serve(args: argparse.Namespace) -> int:
    """``serve``: in-process for ``--workers 1``, pre-forked beyond."""
    from repro.config import ServingConfig

    config = ServingConfig(
        workers=max(1, args.workers),
        max_inflight=args.max_inflight if args.max_inflight > 0 else None,
        rate_limit_rps=args.rate_limit,
        rate_limit_burst=args.rate_burst,
        request_deadline_s=args.deadline,
        degraded_mode=args.degraded_mode,
    )
    if config.workers > 1:
        from repro.serving.pool import ServingPool

        def factory():
            return _load_workbench(args.store, on_damage=args.on_damage)

        pool = ServingPool(factory, host=args.host, port=args.port,
                           workers=config.workers, config=config)
        pool.start()
        print(f"serving workbench at {pool.url} with "
              f"{config.workers} workers (Ctrl-C to stop)")
        try:
            import signal as _signal

            _signal.pause()
        except KeyboardInterrupt:
            pass
        finally:
            pool.shutdown()
        return 0

    from repro.webapp import WorkbenchServer

    wb = _load_workbench(args.store, on_damage=args.on_damage)
    server = WorkbenchServer(wb, host=args.host, port=args.port,
                             config=config)
    print(f"serving workbench at {server.url} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def _dispatch_lint_query(args: argparse.Namespace) -> int:
    import json

    from repro.query.analyze import AnalysisContext, analyze_query
    from repro.query.parser import parse_query

    expr = parse_query(args.query)
    if args.store is not None:
        wb = _load_workbench(args.store)
        context = AnalysisContext.from_store(wb.store)
    else:
        context = AnalysisContext.default()
    diagnostics = analyze_query(expr, context)
    if args.json:
        print(json.dumps([d.to_json() for d in diagnostics],
                         indent=1, sort_keys=True))
    elif diagnostics:
        for diag in diagnostics:
            print(diag.format())
    else:
        print("no diagnostics")
    return 4 if any(d.severity == "error" for d in diagnostics) else 0


def _dispatch_sketch(args: argparse.Namespace) -> int:
    from repro.shard import ShardedEventStore

    store = ShardedEventStore(args.dir)
    if args.sketch_command == "build":
        results = store.rebuild_sketches(force=args.force)
        for r in results:
            print(f"  {r['segment']}: rebuilt (was {r['status']})")
        if results:
            print(f"{len(results)} sidecar(s) rebuilt in {args.dir}")
        else:
            print(f"all sketch sidecars current in {args.dir}")
        return 0

    if args.sketch_command == "info":
        import json

        health = store.sketch_health()
        summary = store.store_sketch().summary()
        if args.json:
            print(json.dumps({"segments": health, "summary": summary},
                             indent=1, sort_keys=True))
            return 0 if all(h["status"] == "ok" for h in health) else 1
        bad = [h for h in health if h["status"] != "ok"]
        for h in health:
            print(f"  {h['segment']}: {h['status']}")
        print(f"whole-store sketch: {summary['n_patients']:,} patients / "
              f"{summary['n_events']:,} events, "
              f"{summary['nonzero_buckets']}/{summary['n_buckets']} "
              f"buckets populated, {len(summary['groups'])} chapter "
              f"group(s)")
        if bad:
            print(f"{len(bad)} sidecar(s) need a rebuild "
                  f"(run `repro sketch build {args.dir}`)",
                  file=sys.stderr)
        return 0 if not bad else 1
    return 1


def _dispatch_shard(args: argparse.Namespace) -> int:
    if args.shard_command == "build":
        from repro.config import ShardConfig
        from repro.io import load_store
        from repro.shard import write_sharded_store

        store = load_store(args.store)
        config = ShardConfig(replication=max(1, args.replication))
        manifest = write_sharded_store(
            store, args.out, n_shards=args.shards, partition=args.partition,
            config=config,
        )
        sizes = ", ".join(
            str(entry["n_patients"]) for entry in manifest["shards"]
        )
        replicas = (f", replication {manifest['replication']}"
                    if manifest.get("replication", 1) > 1 else "")
        print(f"wrote {manifest['n_shards']} {args.partition}-partitioned "
              f"shard(s) ({manifest['total_patients']:,} patients / "
              f"{manifest['total_events']:,} events{replicas}) "
              f"to {args.out}")
        print(f"patients per shard: {sizes}")
        return 0

    if args.shard_command == "append":
        from repro.io import load_store
        from repro.shard import DeltaWriter, pending_delta_stats

        batch = load_store(args.batch)
        manifest = DeltaWriter(args.dir).append(batch)
        stats = pending_delta_stats(manifest)
        print(f"appended {batch.n_events:,} event(s) / "
              f"{batch.n_patients:,} patient(s) to {args.dir} "
              f"(revision {stats['revision']})")
        print(f"pending: {stats['pending_deltas']} delta segment(s) / "
              f"{stats['delta_events']:,} delta event(s) across "
              f"{stats['shards_with_deltas']} shard(s)")
        return 0

    if args.shard_command == "compact":
        import json

        from repro.shard import Compactor, pending_delta_stats, \
            read_store_manifest

        report = Compactor(args.dir).compact()
        if args.json:
            print(json.dumps(report.to_json(), indent=1, sort_keys=True))
        elif not report.actions:
            print(f"{args.dir}: nothing to compact")
        else:
            print(report.format_summary())
            stats = pending_delta_stats(read_store_manifest(args.dir))
            print(f"revision {stats['revision']}, "
                  f"{stats['pending_deltas']} pending delta segment(s)")
        return 0

    if args.shard_command == "info":
        from repro.shard import pending_delta_stats, read_store_manifest

        manifest = read_store_manifest(args.dir)
        stats = pending_delta_stats(manifest)
        print(f"sharded store {args.dir}")
        print(f"  partition:  {manifest['partition']}")
        print(f"  shards:     {manifest['n_shards']}")
        print(f"  patients:   {manifest['total_patients']:,}")
        print(f"  events:     {manifest['total_events']:,}")
        print(f"  revision:   {stats['revision']}")
        if stats["pending_deltas"]:
            print(f"  pending:    {stats['pending_deltas']} delta "
                  f"segment(s) / {stats['delta_events']:,} delta event(s) "
                  f"on {stats['shards_with_deltas']} shard(s) "
                  f"(run shard compact)")
        for entry in manifest["shards"]:
            span = ("(empty)" if entry["patient_min"] is None else
                    f"ids {entry['patient_min']}..{entry['patient_max']}")
            generation = int(entry.get("generation") or 0)
            deltas = entry.get("deltas") or []
            extra = f" gen {generation}" if generation else ""
            if deltas:
                extra += f" +{len(deltas)} delta(s)"
            print(f"  {entry['name']}: {entry['n_patients']:,} patients / "
                  f"{entry['n_events']:,} events {span}{extra}")
        return 0

    if args.shard_command == "verify":
        import json

        from repro.shard import fsck_store, read_store_manifest

        manifest = read_store_manifest(args.dir)
        report = fsck_store(args.dir)
        if args.json:
            print(json.dumps(report.to_json(), indent=1, sort_keys=True))
        else:
            entries = {e["name"]: e for e in manifest["shards"]}
            for health in report.shards:
                if health.status == "ok":
                    entry = entries[health.name]
                    print(f"  {health.name}: ok "
                          f"({entry['n_events']:,} events)")
        # Damage goes to stderr (and the exit code) even with --json on
        # stdout, so a pipeline consuming the report still sees failures.
        for health in report.damaged:
            print(f"error: {health.name}: {health.status}: "
                  f"{health.detail}", file=sys.stderr)
        if report.ok and not args.json:
            print(f"verified {manifest['n_shards']} shard(s): "
                  f"all column checksums match")
        return 0 if report.ok else 1

    if args.shard_command == "fsck":
        import json

        from repro.shard import fsck_store

        report = fsck_store(args.dir)
        if args.json:
            print(json.dumps(report.to_json(), indent=1, sort_keys=True))
        else:
            print(report.format_summary())
        return 0 if report.ok else 1

    if args.shard_command == "repair":
        import json

        from repro.shard import fsck_store, repair_store

        report = repair_store(args.dir, source=args.source)
        post = fsck_store(args.dir)
        if args.json:
            payload = report.to_json()
            payload["verified_clean"] = post.ok
            print(json.dumps(payload, indent=1, sort_keys=True))
        else:
            print(report.format_summary())
            print("post-repair verification: "
                  + ("clean" if post.ok else "STILL DAMAGED"))
        for action in report.actions:
            if action.action == "unrepairable":
                print(f"error: {action.name}: {action.detail}",
                      file=sys.stderr)
        return 0 if report.ok and post.ok else 1

    if args.shard_command == "scrub":
        import json

        from repro.shard import Scrubber

        scrubber = Scrubber(args.dir)
        tick = (scrubber.run_once(args.budget) if args.once
                else scrubber.tick(args.budget))
        if args.json:
            payload = tick.to_json()
            payload["journal"] = scrubber.stats()
            print(json.dumps(payload, indent=1, sort_keys=True))
        else:
            print(tick.format_summary())
        unresolved = [u for u in tick.unrepaired if not u.get("resolved")]
        for u in unresolved:
            print(f"error: {u['segment']}: {u['reason']}", file=sys.stderr)
        return 0 if tick.clean and not unresolved else 1

    if args.shard_command == "replicate":
        import json

        from repro.shard import replicate_store

        manifest = replicate_store(args.dir, args.replication)
        if args.json:
            print(json.dumps({
                "path": args.dir,
                "replication": manifest.get("replication", 1),
                "revision": manifest.get("revision", 0),
                "n_shards": manifest.get("n_shards"),
            }, indent=1, sort_keys=True))
        else:
            print(f"{args.dir}: replication "
                  f"{manifest.get('replication', 1)} "
                  f"(revision {manifest.get('revision', 0)})")
        return 0

    raise AssertionError(f"unhandled shard command {args.shard_command!r}")


def _dispatch_quarantine(args: argparse.Namespace) -> int:
    from repro.resilience.quarantine import QuarantineStore

    quarantine = QuarantineStore(args.path)

    if args.quarantine_command == "show":
        by_source = quarantine.reasons_by_source()
        total = sum(len(reasons) for reasons in by_source.values())
        print(f"{total} quarantined record(s) in {args.path}")
        for source, reasons in sorted(by_source.items()):
            print(f"  {source}: {len(reasons)}")
            for reason in reasons[:5]:
                print(f"    - {reason}")
            if len(reasons) > 5:
                print(f"    ... and {len(reasons) - 5} more")
        return 0

    if args.quarantine_command == "replay":
        from repro.errors import EventModelError
        from repro.io import load_store, merge_stores, save_store
        from repro.sources.integrate import IntegrationPipeline, PatientRecord

        base = load_store(args.store)
        horizon = args.horizon
        if horizon is None:
            if base.n_events == 0:
                raise EventModelError(
                    "base store has no events; pass --horizon explicitly"
                )
            # Stored ends are exclusive: an interval truncated at the
            # extraction horizon carries end == horizon + 1.
            horizon = int(base.end.max()) - 1
        patients = [
            PatientRecord(int(pid), base.birth_day_of(int(pid)),
                          base.sex_of(int(pid)))
            for pid in base.patient_ids
        ]
        pipeline = IntegrationPipeline(horizon_day=horizon)
        replayed, report = quarantine.replay(pipeline, patients)
        merged = merge_stores(base, replayed, deduplicate_events=True)
        save_store(merged, args.out)
        print(f"replayed {len(quarantine)} dead letter(s): "
              f"{report.loaded_events:,} events recovered, "
              f"{report.failed_records} still failing")
        print(f"merged store: {merged.n_patients:,} patients / "
              f"{merged.n_events:,} events -> {args.out}")
        return 0

    raise AssertionError(
        f"unhandled quarantine command {args.quarantine_command!r}"
    )
