"""Command-line interface: ``cellspot``.

Subcommands:

- ``cellspot world``       -- generate a world and print its shape
- ``cellspot run``         -- run the pipeline and print headline results
- ``cellspot experiment X``-- regenerate one paper table/figure
- ``cellspot all``         -- regenerate every table and figure under
  fault isolation (``--checkpoint`` resumes a crashed run)
- ``cellspot datasets``    -- write BEACON / DEMAND datasets as JSONL
  (atomically: a killed run never leaves truncated files)
- ``cellspot validate``    -- strict-ingest dataset files and report
  every malformed line
- ``cellspot serve``       -- the online service: stream beacon events
  into windowed state and answer line-delimited JSON queries over
  stdin/stdout or a local socket
- ``cellspot query``       -- one-shot classification queries against
  an event file, a generated stream, or a service snapshot

All subcommands accept ``--scale`` and ``--seed``; ``--log-level``
enables structured logging on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.lab import Lab


def _positive_int(text: str) -> int:
    """argparse type: an integer strictly greater than zero.

    ``--workers 0`` or ``--shards -2`` used to slip through argparse
    and blow up deep inside the parallel runner; now the parser
    rejects them with a message that names the offending value.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid positive integer: {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0 (``--warmup 0`` is legal)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer: {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: a float strictly greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid number: {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}"
        )
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.005,
                        help="world scale factor (1.0 = paper scale)")
    parser.add_argument("--seed", type=int, default=0, help="world seed")
    parser.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="pipeline worker processes; sharded execution produces "
             "results identical to --workers 1 (default: 1)",
    )
    parser.add_argument(
        "--shards", type=_positive_int, default=None, metavar="K",
        help="prefix-hash shard count (default: one shard per worker)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="dataset cache directory; repeated runs with the same "
             "seed/scale skip dataset regeneration",
    )
    parser.add_argument(
        "--array-backend", default=None, metavar="NAME",
        choices=["auto", "numpy", "python"],
        help="columnar kernel backend (default: CELLSPOT_ARRAY_BACKEND "
             "env var, else auto-detect numpy); results are "
             "bit-identical on either backend",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=["debug", "info", "warning", "error"],
        help="enable structured logging on stderr at LEVEL",
    )
    _add_obs(parser)


def _add_obs(parser: argparse.ArgumentParser) -> None:
    """Observability flags; every subcommand gets them (repro.obs)."""
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the run's metric registry to FILE on exit (and on "
             "SIGUSR1): Prometheus text format, or JSON when FILE ends "
             "in .json",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the run's span tree to FILE as Chrome trace_event "
             "JSON (chrome://tracing, Perfetto)",
    )
    parser.add_argument(
        "--prof-sample", action="store_true",
        help="run the wall-clock sampling profiler (~100Hz stack "
             "sampler, <5%% overhead) and write flamegraph collapsed "
             "stacks + a Chrome trace",
    )
    parser.add_argument(
        "--prof-sample-out", default=None, metavar="FILE",
        help="collapsed-stack output path (a sibling FILE.trace.json "
             "Chrome trace is written too; default: profile.collapsed "
             "in the --checkpoint dir when one is given, else next to "
             "--metrics-out, else in the working directory)",
    )
    parser.add_argument(
        "--prof-sample-interval", type=_positive_float, default=0.01,
        metavar="SECONDS",
        help="seconds between stack samples (default: 0.01 = 100Hz)",
    )


def _prof_sample_out(args: argparse.Namespace) -> Path:
    """Resolve where ``--prof-sample`` collapsed stacks should land."""
    if getattr(args, "prof_sample_out", None):
        return Path(args.prof_sample_out)
    checkpoint = getattr(args, "checkpoint", None)
    if checkpoint:
        return Path(checkpoint) / "profile.collapsed"
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        return Path(metrics_out).with_name("profile.collapsed")
    return Path("profile.collapsed")


def _make_lab(args: argparse.Namespace) -> Lab:
    from repro.lab import Lab

    return Lab.create(
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
        shards=args.shards,
        cache_dir=args.cache_dir,
    )


def _cmd_world(args: argparse.Namespace) -> int:
    lab = _make_lab(args)
    world = lab.world
    subnets = world.subnets()
    cellular = [s for s in subnets if s.is_cellular]
    print(f"world(seed={args.seed}, scale={args.scale:g})")
    print(f"  ASes:            {len(world.topology.registry):,}")
    print(f"  cellular ASes:   {len(world.truth_cellular_asns()):,} (ground truth)")
    print(f"  subnets:         {len(subnets):,} "
          f"({len(cellular):,} cellular ground truth)")
    print(f"  countries:       {len(world.profiles)}")
    if args.audit:
        from repro.world.audit import audit_world

        findings = audit_world(world)
        if findings:
            print(f"  AUDIT: {len(findings)} invariant violations")
            for finding in findings[:20]:
                print(f"    [{finding.check}] {finding.detail}")
            return 1
        print("  audit: all invariants hold")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    lab = _make_lab(args)
    result = lab.result
    print(f"BEACON: {len(lab.beacons):,} subnets, {lab.beacons.total_hits:,} hits "
          f"({100 * lab.beacons.api_share():.1f}% with API data)")
    print(f"DEMAND: {len(lab.demand):,} subnets, {lab.demand.total_du:,.0f} DU")
    print(f"detected cellular /24: {result.cellular_subnet_count(4):,}")
    print(f"detected cellular /48: {result.cellular_subnet_count(6):,}")
    print(f"candidate ASes: {result.as_result.candidate_count:,}")
    for description, filtered, remaining in result.as_result.filter_summary():
        print(f"  - {description}: filtered {filtered}, remaining {remaining}")
    print(f"accepted cellular ASes: {result.cellular_as_count:,}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.base import EXPERIMENT_MODULES, get_runner

    try:
        runner = get_runner(args.id)
    except KeyError:
        print(f"unknown experiment {args.id!r}; choose from: "
              + ", ".join(EXPERIMENT_MODULES), file=sys.stderr)
        return 2
    lab = _make_lab(args)
    print(runner(lab).render())
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    """Regenerate everything under fault isolation.

    One raising / hanging experiment no longer kills the batch: every
    experiment gets an explicit outcome, a partial-results report is
    always rendered, and the exit code is nonzero exactly when an
    experiment failed or timed out.  With ``--checkpoint DIR`` the run
    is resumable: completed experiments are persisted (with a run
    manifest pinning seed/scale/dataset digests) and skipped on re-run.
    """
    from repro.analysis.report import render_table
    from repro.experiments.base import run_all_guarded
    from repro.obs.alerts import AlertRuleError
    from repro.runtime.checkpoint import CheckpointMismatch, CheckpointStore
    from repro.runtime.guard import GuardConfig, OutcomeStatus
    from repro.runtime.manifest import RunManifest, dataset_digest

    lab = _make_lab(args)
    store = None
    manifest = None
    try:
        scraper, alert_engine, _monitor = _build_telemetry(args)
    except AlertRuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.checkpoint:
        store = CheckpointStore(args.checkpoint)
        manifest = RunManifest.for_run(
            seed=args.seed,
            scale=args.scale,
            dataset_digests={
                "beacon": dataset_digest(lab.beacons),
                "demand": dataset_digest(lab.demand),
            },
            alert_log=args.alert_log,
        )
        try:
            manifest = store.bind(manifest)
        except CheckpointMismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.alert_log:
            # A resumed manifest keeps its identity fields but should
            # point at *this* run's alert log (informational only).
            manifest.alert_log = str(args.alert_log)
    guard = GuardConfig(timeout_s=args.timeout, retries=args.retries)
    if scraper is not None:
        scraper.start()
    try:
        outcomes = run_all_guarded(lab, guard, checkpoint=store)
    finally:
        if scraper is not None:
            _stop_telemetry(scraper)

    for outcome in outcomes.values():
        if outcome.ok:
            print(outcome.result.render())
            print()
        elif outcome.status is OutcomeStatus.SKIPPED:
            print(f"[{outcome.experiment_id}] skipped: {outcome.error}\n")
        else:
            print(f"[{outcome.experiment_id}] {outcome.status.value}: "
                  f"{outcome.error}\n")

    rows = [
        [
            outcome.experiment_id,
            outcome.status.value,
            f"{outcome.duration_s:.2f}s",
            ("all comparisons ok" if outcome.ok and outcome.result.all_ok
             else "DIVERGES" if outcome.ok
             else (outcome.error or "")),
        ]
        for outcome in outcomes.values()
    ]
    print(render_table(
        ["experiment", "status", "duration", "detail"], rows,
        title="run summary",
    ))
    ran = [o for o in outcomes.values() if o.status is not OutcomeStatus.SKIPPED]
    failures = [o for o in outcomes.values() if o.is_failure]
    skipped = len(outcomes) - len(ran)
    ok = sum(1 for o in ran if o.ok and o.result.all_ok)
    print(f"\n{ok}/{len(ran)} run experiments fully within tolerance; "
          f"{len(failures)} failed, {skipped} skipped via checkpoint")

    if store is not None and manifest is not None:
        if lab._result is not None:
            for stage, seconds in lab.result.stage_timings.items():
                manifest.record_timing(f"pipeline.{stage}", seconds)
        for outcome in outcomes.values():
            if outcome.status is not OutcomeStatus.SKIPPED:
                manifest.record_timing(
                    f"experiment.{outcome.experiment_id}", outcome.duration_s
                )
        store.save_manifest(manifest)
        print(f"checkpoint: {len(store.completed())}/{len(outcomes)} "
              f"experiments completed in {store.directory}")
    return 1 if failures else 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    """Export datasets atomically (tmp file + rename).

    A run killed mid-write leaves either the previous file or nothing
    -- never a truncated JSONL that a later load would trip over.
    """
    from repro.runtime.checkpoint import atomic_writer

    lab = _make_lab(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    beacon_path = out / "beacon.jsonl"
    demand_path = out / "demand.jsonl"
    with atomic_writer(beacon_path) as stream:
        count = lab.beacons.dump(stream)
    print(f"wrote {count:,} BEACON subnets to {beacon_path}")
    with atomic_writer(demand_path) as stream:
        count = lab.demand.dump(stream)
    print(f"wrote {count:,} DEMAND subnets to {demand_path}")
    if args.hits:
        from repro.cdn.beacon import BeaconConfig, BeaconGenerator

        hits_path = out / "hits.jsonl"
        config = BeaconConfig(
            month=lab.beacon_config.month,
            demand_hits=args.hit_volume,
            base_hits=args.base_hits,
        )
        with atomic_writer(hits_path) as stream:
            count = 0
            for hit in BeaconGenerator(lab.world, config).iter_hits():
                stream.write(hit.to_json())
                stream.write("\n")
                count += 1
        print(f"wrote {count:,} beacon hit events to {hits_path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Strict validation of exported dataset files.

    Ingests each file collecting *every* malformed line (rather than
    stopping at the first), prints a per-file error summary, and exits
    0 only when both files are clean.  Exit codes: 0 clean, 1
    validation errors, 2 unreadable file / unusable header.
    """
    from repro.datasets.beacon_dataset import BeaconDataset
    from repro.datasets.demand_dataset import DemandDataset
    from repro.runtime.policies import IngestPolicy
    from repro.runtime.quarantine import QuarantineSink

    targets = [
        ("BEACON", Path(args.beacon), BeaconDataset.load),
        ("DEMAND", Path(args.demand), DemandDataset.load),
    ]
    dirty = 0
    for label, path, loader in targets:
        if not path.is_file():
            print(f"{label} {path}: error: no such file", file=sys.stderr)
            return 2
        sink = None
        if args.quarantine_dir:
            sink = QuarantineSink(
                Path(args.quarantine_dir) / f"{path.stem}.quarantine.jsonl"
            )
            policy = IngestPolicy.quarantine(sink)
        else:
            policy = IngestPolicy.skip()
        try:
            with path.open() as stream:
                loader(stream, policy=policy)
        except ValueError as exc:
            print(f"{label} {path}: FATAL: {exc}", file=sys.stderr)
            return 2
        finally:
            if sink is not None:
                sink.close()
        stats = policy.stats
        print(f"{label} {path}: {stats.summary()}")
        for error in stats.errors[: args.max_errors]:
            print(f"  {error.describe()}")
        if len(stats.errors) > args.max_errors:
            print(f"  ... and {len(stats.errors) - args.max_errors} more")
        if sink is not None and sink.count:
            print(f"  quarantined {sink.count} lines to {sink.path}")
        if stats.rejected_lines:
            dirty += 1
    return 1 if dirty else 0


def _build_stream_engine(args: argparse.Namespace):
    """A (possibly snapshot-resumed) engine honouring the CLI knobs."""
    from repro.stream.engine import StreamEngine
    from repro.stream.windows import WindowPolicy

    policy = WindowPolicy(
        window_events=args.window_events, decay=args.decay
    )
    return StreamEngine.resume_or_start(args.snapshot, policy=policy)


def _event_source(args: argparse.Namespace, skip: int):
    """The beacon event iterator the CLI was pointed at.

    Returns ``(events, closer)``; ``closer()`` releases any file
    handle.  ``skip`` accepted events are discarded first (snapshot
    resume).  Returns ``(None, noop)`` when no source was requested.
    """
    from repro.runtime.policies import IngestPolicy
    from repro.stream.sources import (
        follow_jsonl,
        generated_events,
        jsonl_events,
        skip_events,
    )

    def _noop() -> None:
        return None

    policy = (
        IngestPolicy.skip() if args.on_error == "skip"
        else IngestPolicy.strict()
    )
    if args.generate:
        from repro.cdn.beacon import BeaconConfig

        lab = _make_lab(args)
        events = generated_events(
            lab.world,
            BeaconConfig(
                demand_hits=args.hit_volume, base_hits=args.base_hits
            ),
        )
        closer = _noop
    elif args.events == "-":
        events = jsonl_events(sys.stdin, policy=policy)
        closer = _noop
    elif args.events:
        if args.follow:
            events = follow_jsonl(args.events, policy=policy)
            closer = _noop
        else:
            handle = open(args.events)  # noqa: SIM115 -- closed by closer
            events = jsonl_events(handle, policy=policy)
            closer = handle.close
    else:
        return None, _noop
    if skip:
        events = skip_events(events, skip)
    return events, closer


def _make_service(args: argparse.Namespace, engine,
                  alert_engine=None, drift_monitor=None):
    from repro.lab import scaled_filter_config
    from repro.obs.metrics import global_registry
    from repro.serve.service import (
        CellSpotService,
        ServiceConfig,
        service_metrics,
    )

    demand = as_classes = filter_config = None
    if args.with_demand:
        lab = _make_lab(args)
        demand = lab.demand
        as_classes = lab.as_classes
        filter_config = scaled_filter_config(lab.beacon_config)
    return CellSpotService(
        engine=engine,
        demand=demand,
        as_classes=as_classes,
        filter_config=filter_config,
        ratio_spool_dir=getattr(args, "ratio_spool", None),
        config=ServiceConfig(
            snapshot_every_events=args.snapshot_every,
            ingest_batch=args.ingest_batch,
            max_pending=getattr(args, "max_pending", None),
            deadline_s=getattr(args, "deadline", None),
        ),
        snapshot_path=args.snapshot,
        # Serve counters land on the process-global registry, so one
        # --metrics-out dump covers the serving layer together with
        # the stream/ingest instrumentation underneath it.
        metrics=service_metrics(registry=global_registry()),
        alert_engine=alert_engine,
        drift_monitor=drift_monitor,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the online service (stdin/stdout or a local socket).

    Events stream in from ``--events FILE`` (optionally tailed with
    ``--follow``) or from the synthetic world (``--generate``); the
    request protocol is one JSON object per line.  With ``--snapshot``
    the window state is persisted atomically and a killed server
    resumes without duplicating or losing a single count.
    """
    from repro.obs.alerts import AlertRuleError
    from repro.stream.engine import SnapshotError

    if args.events and args.generate:
        print("error: --events and --generate are mutually exclusive",
              file=sys.stderr)
        return 2
    try:
        engine = _build_stream_engine(args)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    resumed = engine.events_consumed
    if resumed:
        print(f"resumed from snapshot: {resumed:,} events already "
              f"consumed, {engine.subnet_count():,} subnets",
              file=sys.stderr)
    try:
        scraper, alert_engine, drift_monitor = _build_telemetry(args)
    except AlertRuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.drill_leak:
        from repro.obs.resources import LeakDrill

        try:
            engine.leak_drill = LeakDrill.parse(args.drill_leak)
        except ValueError:
            print("error: --drill-leak wants BYTES:WINDOWS "
                  "(e.g. 4194304:20)", file=sys.stderr)
            return 2
    service = _make_service(
        args, engine, alert_engine=alert_engine, drift_monitor=drift_monitor
    )
    try:
        events, closer = _event_source(args, skip=resumed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import signal

    previous_sigterm = None

    def _graceful(_signum, _frame):
        # Drain accepted requests, write a final snapshot, exit 0.
        service.request_shutdown()

    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _graceful)
    except ValueError:
        pass  # not the main thread; SIGTERM keeps its default action
    if scraper is not None:
        scraper.start()
    try:
        if args.socket:
            answered = service.serve_socket(
                args.socket, events=events,
                max_connections=args.max_connections,
            )
        else:
            answered = service.serve_lines(
                sys.stdin, sys.stdout, events=events
            )
    except OSError as exc:
        # e.g. the socket path is owned by a live server.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        closer()
        if scraper is not None:
            _stop_telemetry(scraper)
        if previous_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, previous_sigterm)
            except ValueError:
                pass
    print(f"served {answered:,} requests; "
          f"{service.engine.events_consumed:,} events consumed, "
          f"{service.engine.windows_advanced:,} windows advanced",
          file=sys.stderr)
    if alert_engine is not None:
        counts = alert_engine.counts()
        print(f"alerting: {counts.get('firing', 0)} firing / "
              f"{len(alert_engine.rules)} rules, "
              f"{len(alert_engine.events)} transition(s) logged",
              file=sys.stderr)
    return 0


def _scale_source_spec(args: argparse.Namespace):
    """A picklable event-source spec for the plane's builder process."""
    if args.events and args.generate:
        raise ValueError("--events and --generate are mutually exclusive")
    if args.generate:
        return {
            "kind": "generate",
            "scale": args.scale,
            "seed": args.seed,
            "hit_volume": args.hit_volume,
            "base_hits": args.base_hits,
        }
    if args.events:
        return {
            "kind": "jsonl",
            "path": args.events,
            "follow": bool(args.follow),
            "on_error": args.on_error,
        }
    return None


def _cmd_serve_scale(args: argparse.Namespace) -> int:
    """Run the horizontal serving plane (asyncio front + N workers).

    The front answers the same line-delimited JSON protocol as
    ``cellspot serve`` over --socket (AF_UNIX) and/or --port (TCP);
    queries fan out to --workers processes, each serving from the
    latest mmap snapshot generation under --snapshot-dir.  With an
    event source (--events / --generate) a builder process ingests and
    publishes new generations; without one, the plane serves whatever
    the catalog already holds (e.g. a 'cellspot serve --ratio-spool'
    directory).
    """
    import asyncio
    import signal

    from repro.obs.alerts import AlertRuleError
    from repro.scale.plane import PlaneConfig, ServingPlane

    if not args.socket and args.port is None:
        print("error: serve-scale needs --socket and/or --port",
              file=sys.stderr)
        return 2
    try:
        source_spec = _scale_source_spec(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        scraper, alert_engine, _drift = _build_telemetry(args)
    except AlertRuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    drill = None
    if args.drill_slow_worker:
        try:
            slot_text, seconds_text = args.drill_slow_worker.split(":", 1)
            drill = (int(slot_text), float(seconds_text))
        except ValueError:
            print("error: --drill-slow-worker wants SLOT:SECONDS "
                  "(e.g. 0:0.005)", file=sys.stderr)
            return 2
    obs_dir = args.obs_dir
    if obs_dir is None and scraper is not None:
        # Telemetry is on: default the distributed-obs layer next to
        # the catalog so traces/federation come up with the scraper.
        obs_dir = str(Path(args.snapshot_dir) / "obs")
    try:
        config = PlaneConfig(
            workers=args.workers,
            max_pending=args.max_pending,
            deadline_s=args.deadline,
            min_api_hits=args.min_api_hits,
            startup_timeout_s=args.startup_timeout,
            obs_dir=obs_dir,
            obs_scrape_interval_s=args.scrape_interval,
            drill_slow_worker=drill,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plane = ServingPlane(
        args.snapshot_dir,
        config=config,
        alert_engine=alert_engine,
        source_spec=source_spec,
        builder_options={
            "window_events": args.window_events,
            "publish_every_windows": args.publish_every,
        },
    )
    if scraper is not None and obs_dir is not None:
        # Federation: fold the workers' freshest exported samples into
        # every front scrape as name{worker="N"} keys, so the offline
        # reader / alert engine / `cellspot top` see per-worker series.
        scraper.add_enricher(plane.federation_metrics)

    def _ready(_plane) -> None:
        where = []
        if args.socket:
            where.append(f"unix:{args.socket}")
        if args.port is not None:
            where.append(f"tcp:{args.host}:{args.port}")
        print(f"serving-scale: {args.workers} workers listening on "
              f"{' and '.join(where)}", file=sys.stderr, flush=True)

    async def _run() -> int:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, plane.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
        return await plane.serve(
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            ready_callback=_ready,
        )

    if scraper is not None:
        scraper.start()
    try:
        answered = asyncio.run(_run())
    except (TimeoutError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if scraper is not None:
            _stop_telemetry(scraper)
    print(f"served {answered:,} requests across "
          f"{plane.metrics.get('scale_worker_respawns_total').value:g} "
          f"respawns; {plane.metrics.get('scale_shed_total').value:,} shed",
          file=sys.stderr)
    if alert_engine is not None:
        counts = alert_engine.counts()
        print(f"alerting: {counts.get('firing', 0)} firing / "
              f"{len(alert_engine.rules)} rules, "
              f"{len(alert_engine.events)} transition(s) logged",
              file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Replay heavy-tailed query traffic against a serving plane.

    Queries are sampled from the latest snapshot generation under
    --snapshot-dir with probability proportional to demand hits, so
    the hottest subnets dominate (the CGN concentration shape).  Exit
    codes: 0 clean run, 1 client-side errors, 2 unusable arguments.
    """
    import asyncio

    from repro.scale.loadgen import (
        queries_from_catalog,
        run_loadgen,
        write_report,
    )

    if not args.socket and args.port is None:
        print("error: loadgen needs --socket and/or --port",
              file=sys.stderr)
        return 2
    try:
        queries = queries_from_catalog(
            args.snapshot_dir, args.queries, seed=args.seed
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = asyncio.run(
        run_loadgen(
            queries,
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            concurrency=args.concurrency,
            batch=args.batch,
            warmup=args.warmup,
            overload_queries=args.overload,
            overload_concurrency=args.overload_concurrency,
        )
    )
    if args.report:
        write_report(report, args.report)
    for phase in report["phases"]:
        p99 = phase["request_p99_s"]
        p99_text = f"{p99 * 1000:.3f}ms" if p99 is not None else "n/a"
        print(f"loadgen[{phase['name']}]: {phase['queries']:,} queries in "
              f"{phase['elapsed_s']:.3f}s = {phase['queries_per_s']:,.0f} q/s, "
              f"shed {phase['shed']:,}, request p99 {p99_text}",
              file=sys.stderr)
    totals = report["totals"]
    print(f"loadgen: {totals['queries']:,} queries total, "
          f"{totals['shed']:,} shed, {totals['errors']:,} errors",
          file=sys.stderr)
    return 0 if report["ok"] else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run a fault plan end-to-end and report injected vs. recovered.

    Exit codes: 0 every drill healed with identical output (or shed
    explicitly), 1 a drill diverged or failed to recover, 2 the plan
    file is unusable.
    """
    import json as json_module

    from repro.runtime.chaos import run_chaos
    from repro.runtime.checkpoint import atomic_writer
    from repro.runtime.faults import (
        FaultPlanError,
        default_fault_plan,
        load_fault_plan,
    )

    if args.plan:
        try:
            plan = load_fault_plan(args.plan)
        except FaultPlanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        plan = default_fault_plan()
    report = run_chaos(plan, state_dir=args.state_dir)
    print(report.render())
    if args.report:
        path = Path(args.report)
        with atomic_writer(path) as stream:
            json_module.dump(report.to_dict(), stream, indent=2)
        print(f"report written to {path}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_query(args: argparse.Namespace) -> int:
    """One-shot queries: drain the source, build the index, answer.

    Queries are IP addresses or CIDR blocks; ``-`` reads them from
    stdin (one per line).  Prints one JSON answer per query.  Exit
    codes: 0 all answered, 1 any malformed query, 2 unusable input.
    """
    import json as json_module

    from repro.stream.engine import SnapshotError

    if args.events and args.generate:
        print("error: --events and --generate are mutually exclusive",
              file=sys.stderr)
        return 2
    try:
        engine = _build_stream_engine(args)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service = _make_service(args, engine)
    try:
        events, closer = _event_source(args, skip=engine.events_consumed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if events is not None:
            service.drain(events)
    finally:
        closer()
    if engine.events_consumed == 0:
        print("error: no events: give --events FILE, --generate, or a "
              "--snapshot with state", file=sys.stderr)
        return 2
    queries = list(args.queries)
    if queries == ["-"]:
        queries = [line.strip() for line in sys.stdin if line.strip()]
    index = service.index()
    failures = 0
    for result in index.batch(queries):
        payload = result.to_dict()
        print(json_module.dumps(payload, separators=(",", ":")))
        if result.error is not None:
            failures += 1
    return 1 if failures else 0


def _render_resource_panel(sample: dict, path: Path) -> str:
    """The ``cellspot stats --resources`` section, or '' when absent.

    Reads the same sample as the metrics table, through the dashboard's
    health step, so the panel, the table and ``top`` cannot disagree.
    """
    from repro.analysis.report import render_table
    from repro.obs.dashboard import format_bytes, health_from_sample
    from repro.obs.timeseries import payload_scalar, split_metric_tag

    resources = health_from_sample(sample, str(path))["resources"]
    gc_by_gen = {}
    for key, payload in sample["m"].items():
        base, labels = split_metric_tag(key)
        if base == "process_gc_collections" and labels:
            gc_by_gen[next(iter(labels.values()))] = payload_scalar(payload)
    if not resources and not gc_by_gen:
        return ""
    rows = [
        [label, render(resources[key])]
        for key, label, render in (
            ("rss_bytes", "rss current", format_bytes),
            ("rss_peak_bytes", "rss peak", format_bytes),
            ("cpu_percent", "cpu", "{:.1f}%".format),
            ("open_fds", "open fds", "{:.0f}".format),
            ("threads", "threads", "{:.0f}".format),
        )
        if key in resources
    ]
    for gen in sorted(gc_by_gen):
        rows.append([f"gc gen{gen} collections",
                     f"{gc_by_gen[gen]:.0f}"])
    parts = [render_table(
        ["resource", "value"], rows, title=f"resources ({path})",
    )]
    stages = resources.get("stages")
    if stages:
        parts.append(render_table(
            ["stage", "rss peak"],
            [[row["stage"], format_bytes(row["rss_peak_bytes"])]
             for row in stages[:5]],
            title="top stages by peak-RSS watermark",
        ))
    return "\n\n".join(parts)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Summarize telemetry files a finished run left behind.

    Exit codes: 0 on success, 2 when no file was given or a file is
    missing/invalid -- strictness is the point, this doubles as the CI
    validity check for ``--metrics-out`` / ``--trace-out`` artifacts.
    """
    import json as json_module

    from repro.analysis.report import render_table

    if not args.metrics and not args.trace:
        print("error: nothing to summarize; give --metrics FILE and/or "
              "--trace FILE", file=sys.stderr)
        return 2
    if args.resources and not args.metrics:
        print("error: --resources needs --metrics FILE",
              file=sys.stderr)
        return 2
    if args.metrics:
        from repro.obs.dashboard import format_value
        from repro.obs.timeseries import decode_payload, load_metrics_dump

        path = Path(args.metrics)
        try:
            sample = load_metrics_dump(path)
        except (OSError, ValueError) as exc:
            print(f"error: metrics {path}: {exc}", file=sys.stderr)
            return 2
        rows = []
        for key, payload in sorted(sample["m"].items()):
            kind, value = decode_payload(payload)
            if kind == "histogram":
                count = value["count"]
                mean = value["sum"] / count if count else 0.0
                rows.append([
                    key, kind, format_value(count, 6),
                    f"mean={format_value(mean, 6)} "
                    f"p50={format_value(value['p50'], 6)} "
                    f"p99={format_value(value['p99'], 6)}",
                ])
            else:
                rows.append([key, kind, format_value(value, 6), ""])
        if not rows:
            print(f"error: metrics {path}: no metrics found",
                  file=sys.stderr)
            return 2
        print(render_table(
            ["metric", "type", "value", "detail"], rows,
            title=f"metrics ({path})",
        ))
        print()
        if args.resources:
            panel = _render_resource_panel(sample, path)
            if panel:
                print(panel)
            else:
                print(f"resources ({path}): no resource metrics in "
                      f"dump (run with telemetry on)")
            print()
    if args.trace:
        path = Path(args.trace)
        try:
            raw = json_module.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"error: trace {path}: {exc}", file=sys.stderr)
            return 2
        events = raw.get("traceEvents") if isinstance(raw, dict) else None
        if not isinstance(events, list):
            print(f"error: trace {path}: no traceEvents list",
                  file=sys.stderr)
            return 2
        complete = [
            event for event in events
            if isinstance(event, dict) and event.get("ph") == "X"
        ]
        other = raw.get("otherData", {})
        trace_id = other.get("trace_id", "-")
        print(f"trace {trace_id}: {len(complete)} spans "
              f"({other.get('dropped_spans', 0)} dropped)")
        complete.sort(key=lambda event: event.get("dur", 0), reverse=True)
        rows = [
            [
                event.get("name", "?"),
                f"{event.get('dur', 0) / 1000:.2f}ms",
                f"{event.get('ts', 0) / 1000:.2f}ms",
                ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(
                        (event.get("args") or {}).items()
                    )
                    if key not in ("span_id", "parent_id", "trace_id")
                )[:48],
            ]
            for event in complete[: args.top]
        ]
        print(render_table(
            ["span", "duration", "start", "attributes"], rows,
            title=f"slowest spans ({path})",
        ))
    return 0


def _add_stream_options(parser: argparse.ArgumentParser) -> None:
    """Event-source and window knobs shared by serve / query."""
    parser.add_argument(
        "--events", default=None, metavar="FILE",
        help="beacon hit JSONL to ingest ('-' for stdin; see "
             "'cellspot datasets --hits')",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="tail --events FILE as it grows (tail -f semantics)",
    )
    parser.add_argument(
        "--generate", action="store_true",
        help="ingest synthetic hit events from the world instead of a file",
    )
    parser.add_argument(
        "--hit-volume", type=_positive_int, default=100_000, metavar="N",
        help="demand-proportional hit budget for --generate "
             "(default: 100000)",
    )
    parser.add_argument(
        "--base-hits", type=float, default=5.0, metavar="F",
        help="per-subnet base hit rate for --generate (default: 5.0)",
    )
    parser.add_argument(
        "--window-events", type=_positive_int, default=10_000, metavar="N",
        help="events per tumbling window (default: 10000)",
    )
    parser.add_argument(
        "--decay", type=float, default=1.0,
        help="aggregate decay applied at each window close; 1.0 keeps "
             "exact batch-equal counts (default: 1.0)",
    )
    parser.add_argument(
        "--snapshot", default=None, metavar="FILE",
        help="snapshot file: resumed at startup when present, written "
             "atomically during the run",
    )
    parser.add_argument(
        "--on-error", choices=["strict", "skip"], default="strict",
        help="malformed event lines: raise (strict) or drop (skip)",
    )
    parser.add_argument(
        "--with-demand",
        action="store_true",
        help="attach the world's DEMAND dataset so answers carry AS "
             "dedicated/mixed verdicts and demand shares",
    )
    parser.add_argument(
        "--snapshot-every", type=_positive_int, default=50_000, metavar="N",
        help="snapshot the window state every N ingested events "
             "(default: 50000)",
    )
    parser.add_argument(
        "--ingest-batch", type=_positive_int, default=5_000, metavar="N",
        help="events pulled from the source between requests "
             "(default: 5000)",
    )


def _cmd_evolve(args: argparse.Namespace) -> int:
    """Run the monthly churn census (section 8 future work)."""
    from repro.analysis.report import render_table
    from repro.evolution import prefix_list_staleness, run_monthly_census

    lab = _make_lab(args)
    census = run_monthly_census(lab.world, months=args.months)
    rows = [
        [
            f"{index - 1} -> {index}",
            report.added,
            report.removed,
            report.stable,
            f"{report.jaccard:.2f}",
            f"{100 * report.stable_demand_fraction:.1f}%",
        ]
        for index, report in enumerate(census.reports(), start=1)
    ]
    print(render_table(
        ["months", "added", "removed", "stable", "jaccard",
         "stale-map demand coverage"],
        rows,
        title=f"cellular-map churn over {args.months} months",
    ))
    staleness = prefix_list_staleness(census)
    print(f"\na month-0 prefix list covers {100 * staleness:.1f}% of "
          f"month-{census.months[-1]} cellular demand")
    return 0


def _cmd_prefixlist(args: argparse.Namespace) -> int:
    """Export the aggregated cellular prefix list as CSV."""
    from repro.core.export import CellularPrefixList

    lab = _make_lab(args)
    result = lab.result
    prefix_list = CellularPrefixList.from_classification(
        result.classification, lab.demand, aggregate=not args.no_aggregate
    )
    path = Path(args.out)
    with path.open("w") as stream:
        rows = prefix_list.to_csv(stream)
    print(f"wrote {rows:,} prefixes to {path} "
          f"(covering {prefix_list.covered_addresses(4):,} IPv4 and "
          f"{prefix_list.covered_addresses(6):,} IPv6 addresses)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Write EXPERIMENTS.md: paper-vs-measured for every table/figure."""
    if args.health:
        return _report_health(args)
    from repro.experiments.base import run_all

    lab = _make_lab(args)
    results = run_all(lab)
    ok_count = sum(1 for result in results.values() if result.all_ok)
    lines = [
        "# EXPERIMENTS -- paper vs measured",
        "",
        "Generated by `cellspot report` "
        f"(world scale {args.scale:g}, seed {args.seed}).",
        "",
        "Each section regenerates one table or figure of *Cell Spotting*",
        "(IMC 2017) on the synthetic substrate and compares the measured",
        "values against the paper's published numbers.  Absolute counts",
        "scale with the world's `scale` parameter; every comparison row",
        "states the paper value, the measured value, and whether it lands",
        "inside the experiment's stated tolerance (the reproduction",
        "contract is shape/ordering, not testbed-exact numbers).",
        "",
        f"**Summary: {ok_count}/{len(results)} experiments fully within "
        "tolerance.**",
        "",
    ]
    for experiment_id, result in results.items():
        lines.append(f"## {experiment_id}: {result.title}")
        lines.append("")
        lines.append("```")
        lines.append(result.render())
        lines.append("```")
        lines.append("")
    Path(args.out).write_text("\n".join(lines))
    print(f"wrote {args.out} ({ok_count}/{len(results)} experiments ok)")
    return 0 if ok_count == len(results) else 1


def _fetch_health(args: argparse.Namespace):
    """A zero-arg health fetcher from --socket/--timeseries-dir/--metrics.

    Returns ``(fetch, live)``; ``fetch()`` yields a health dict or
    ``None`` when the source is gone, ``live`` says whether the source
    can change between polls (a serve socket or a growing time-series
    directory) or is a static one-shot file.
    """
    from repro.obs import dashboard

    if getattr(args, "socket", None):
        def source():
            return dashboard.query_socket(
                args.socket, "health", timeout=args.timeout
            )
        live = True
    elif getattr(args, "timeseries_dir", None):
        def source():
            return dashboard.health_from_timeseries(args.timeseries_dir)
        live = True
    elif getattr(args, "metrics", None):
        def source():
            return dashboard.health_from_metrics_dump(args.metrics)
        live = False
    else:
        return None, False

    def fetch():
        try:
            return source()
        except (OSError, ValueError):
            return None
    return fetch, live


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a serve session (curses-free).

    Polls a running ``cellspot serve --socket`` session's ``health``
    op once per ``--interval`` and repaints with plain ANSI escapes.
    Without a live session it degrades gracefully: ``--timeseries-dir``
    renders from the latest scrape (and keeps following it),
    ``--metrics`` renders one static frame from a ``--metrics-out``
    dump.
    """
    from repro.obs.dashboard import run_top

    fetch, live = _fetch_health(args)
    if fetch is None:
        print("error: give --socket PATH, --timeseries-dir DIR, or "
              "--metrics FILE", file=sys.stderr)
        return 2
    iterations = 1 if args.once else args.iterations
    if iterations is None and not live:
        iterations = 1  # static file: a repaint loop would show nothing new
    frames = run_top(
        fetch,
        sys.stdout,
        interval_s=args.interval,
        iterations=iterations,
        ansi=not args.no_ansi and iterations != 1,
    )
    if frames == 0:
        print("error: no health data (is the serve session up / the "
              "telemetry directory populated?)", file=sys.stderr)
        return 1
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    """Validate rule files and inspect alert logs / live rule states."""
    import json as json_module

    from repro.obs.alerts import (
        AlertRuleError,
        episodes,
        load_rules,
        read_alert_log,
    )

    if args.rules:
        try:
            rules = load_rules(args.rules)
        except AlertRuleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{args.rules}: {len(rules)} valid rule(s)")
        for rule in rules:
            print(f"  {rule.name}: {rule.condition()}")
        if not args.log and not args.socket:
            return 0

    if args.socket:
        from repro.obs.dashboard import query_socket

        try:
            payload = query_socket(args.socket, "alerts", timeout=args.timeout)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.json:
            print(json_module.dumps(payload, separators=(",", ":")))
            return 0
        for state in payload.get("rules", []):
            print(f"[{state['state']:>7}] {state['rule']}: "
                  f"{state['condition']} (value {state['value']})")
        if payload.get("note"):
            print(payload["note"])
        return 0

    if not args.log:
        print("error: give --log FILE, --socket PATH, or --rules FILE",
              file=sys.stderr)
        return 2
    try:
        events = read_alert_log(args.log)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        for episode in episodes(events, args.rule):
            print(json_module.dumps(episode, separators=(",", ":")))
        return 0
    if args.rule:
        events = [e for e in events if e.get("rule") == args.rule]
    for event in events:
        print(f"{event['ts']:.3f} {event['rule']}: "
              f"{event['from']} -> {event['to']} "
              f"(value {event['value']}, threshold {event['threshold']}, "
              f"trace {event.get('trace_id', '-')})")
    fired = [e for e in episodes(events, args.rule) if e["fired"]]
    print(f"{len(events)} transition(s), {len(fired)} firing episode(s)")
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    """Compare two perfbench result files; exit 1 on regression."""
    from repro.obs.benchdiff import (
        compare_results,
        load_directions,
        load_result,
        render_diff,
    )

    try:
        findings = compare_results(
            load_result(args.old),
            load_result(args.new),
            load_directions(),
            tolerance=args.tolerance,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_diff(findings, args.old, args.new))
    regressed = [f for f in findings if f["status"] == "regressed"]
    if regressed:
        print(f"error: {len(regressed)} figure(s) regressed beyond "
              f"{args.tolerance:.0%}", file=sys.stderr)
        return 1
    return 0


def _cmd_postmortem(args: argparse.Namespace) -> int:
    """Join front/worker/builder spans from an obs directory.

    Reads the observability directory a ``serve-scale --obs-dir`` run
    left behind, joins every process's span segments on the run
    ``trace_id``, folds in worker-death artifacts, and prints one
    timeline (or exports a Chrome trace).
    """
    import json as json_module

    from repro.obs.postmortem import (
        build_postmortem,
        render_text,
        to_chrome_trace,
    )
    from repro.runtime.checkpoint import atomic_write_text

    obs_dir = Path(args.obs_dir)
    if not obs_dir.is_dir():
        print(f"error: {obs_dir} is not a directory", file=sys.stderr)
        return 2
    postmortem = build_postmortem(obs_dir, trace_id=args.trace_id)
    if not postmortem["spans"] and (obs_dir / "obs").is_dir():
        # Lenient: accept the catalog dir a serve-scale run used and
        # descend into the obs/ directory it defaulted to.
        postmortem = build_postmortem(obs_dir / "obs", trace_id=args.trace_id)
    if not postmortem["spans"]:
        print(f"error: no spans under {obs_dir}"
              + (f" for trace {args.trace_id}" if args.trace_id else ""),
              file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps(postmortem, separators=(",", ":")))
    else:
        print(render_text(postmortem, limit=args.limit), end="")
    if args.chrome_out:
        payload = to_chrome_trace(postmortem)
        atomic_write_text(
            Path(args.chrome_out),
            json_module.dumps(payload, separators=(",", ":")) + "\n",
        )
        print(f"chrome trace: {args.chrome_out} "
              f"({len(payload['traceEvents'])} events)", file=sys.stderr)
    return 0


def _report_health(args: argparse.Namespace) -> int:
    """The ``cellspot report --health`` rollup (markdown or HTML)."""
    from repro.obs.alerts import read_alert_log
    from repro.obs.dashboard import render_health_report

    fetch, _live = _fetch_health(args)
    if fetch is None:
        print("error: --health needs --socket PATH, --timeseries-dir DIR, "
              "or --metrics FILE", file=sys.stderr)
        return 2
    health = fetch()
    if health is None:
        print("error: no health data from the requested source",
              file=sys.stderr)
        return 1
    events = []
    if args.alert_log:
        try:
            events = read_alert_log(args.alert_log)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    out = Path(args.out if args.out != "EXPERIMENTS.md" else "HEALTH.md")
    fmt = args.format or ("html" if out.suffix == ".html" else "markdown")
    out.write_text(render_health_report(health, events, fmt=fmt))
    print(f"wrote {out} ({fmt}; {len(events)} alert transition(s))")
    return 0


def _build_telemetry(args: argparse.Namespace):
    """(scraper, alert_engine, drift_monitor) from the telemetry flags.

    Telemetry is opt-in: with none of ``--timeseries-dir`` /
    ``--alert-rules`` / ``--alert-log`` set, everything is ``None``
    and the command runs exactly as before.  When only alerting is
    requested the backing time-series store lands in a temp directory
    (the scraper needs one; the samples are still useful for
    post-mortem reconstruction).

    Telemetry-on also attaches a
    :class:`~repro.obs.resources.ResourceSampler` as a pre-scrape
    collector, so every persisted sample carries fresh RSS/CPU/GC/fd
    readings and the memory-budget / rss-growth default rules have
    data to evaluate.
    """
    enabled = bool(
        getattr(args, "timeseries_dir", None)
        or getattr(args, "alert_rules", None)
        or getattr(args, "alert_log", None)
    )
    if not enabled:
        return None, None, None
    import tempfile

    from repro.obs.alerts import AlertEngine, default_rules, load_rules
    from repro.obs.health import CensusDriftMonitor
    from repro.obs.resources import ResourceSampler
    from repro.obs.timeseries import MetricScraper, TimeSeriesStore
    from repro.obs.trace import current_trace_id

    directory = args.timeseries_dir or tempfile.mkdtemp(prefix="cellspot-ts-")
    store = TimeSeriesStore(directory)
    scraper = MetricScraper(store, interval_s=args.scrape_interval)
    sampler = ResourceSampler()
    sampler.attach(scraper)
    scraper.resource_sampler = sampler
    rules = (
        load_rules(args.alert_rules) if args.alert_rules else default_rules()
    )
    engine = AlertEngine(
        rules, log_path=args.alert_log, trace_id=current_trace_id()
    )
    scraper.subscribe(engine.observe)
    return scraper, engine, CensusDriftMonitor()


def _stop_telemetry(scraper) -> None:
    """Final scrape, then detach the resource sampler's process hooks."""
    scraper.stop(final_scrape=True)
    sampler = getattr(scraper, "resource_sampler", None)
    if sampler is not None:
        sampler.uninstall()


def _add_telemetry_options(parser: argparse.ArgumentParser) -> None:
    """Continuous-telemetry knobs (time-series scraping + alerting)."""
    parser.add_argument(
        "--timeseries-dir", default=None, metavar="DIR",
        help="append fixed-interval metric samples to a bounded ring of "
             "JSONL segments under DIR ('cellspot top --timeseries-dir' "
             "renders them)",
    )
    parser.add_argument(
        "--alert-rules", default=None, metavar="FILE",
        help="TOML/JSON alert rule file (default: the built-in SLO rule "
             "set when alerting is enabled)",
    )
    parser.add_argument(
        "--alert-log", default=None, metavar="FILE",
        help="append alert state transitions (pending/firing/resolved) "
             "as JSONL, joined to the run's trace id",
    )
    parser.add_argument(
        "--scrape-interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between metric scrapes (default: 1.0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellspot",
        description="Cell Spotting (IMC 2017) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    world = subparsers.add_parser("world", help="generate and describe a world")
    world.add_argument("--audit", action="store_true",
                       help="run the world invariant audit")
    _add_common(world)
    world.set_defaults(func=_cmd_world)

    run = subparsers.add_parser("run", help="run the identification pipeline")
    _add_common(run)
    run.set_defaults(func=_cmd_run)

    exp = subparsers.add_parser("experiment", help="regenerate one table/figure")
    exp.add_argument("id", help="experiment id, e.g. table4 or fig7")
    _add_common(exp)
    exp.set_defaults(func=_cmd_experiment)

    everything = subparsers.add_parser("all", help="regenerate all tables/figures")
    everything.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="persist per-experiment completion + run manifest to DIR "
             "and resume from it on re-run",
    )
    everything.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-experiment wall-clock budget (default: unbounded)",
    )
    everything.add_argument(
        "--retries", type=int, default=1,
        help="retry attempts for transient experiment failures (default: 1)",
    )
    _add_telemetry_options(everything)
    _add_common(everything)
    everything.set_defaults(func=_cmd_all)

    datasets = subparsers.add_parser("datasets", help="export datasets as JSONL")
    datasets.add_argument("--out", default="datasets",
                          help="output directory (default: ./datasets)")
    datasets.add_argument(
        "--hits", action="store_true",
        help="also export per-hit beacon events (hits.jsonl) for "
             "'cellspot serve --events'",
    )
    datasets.add_argument(
        "--hit-volume", type=_positive_int, default=100_000, metavar="N",
        help="demand-proportional hit budget for --hits (default: 100000)",
    )
    datasets.add_argument(
        "--base-hits", type=float, default=5.0, metavar="F",
        help="per-subnet base hit rate for --hits (default: 5.0)",
    )
    _add_common(datasets)
    datasets.set_defaults(func=_cmd_datasets)

    validate = subparsers.add_parser(
        "validate", help="strict-ingest dataset files and report bad lines"
    )
    validate.add_argument("beacon", help="path to beacon.jsonl")
    validate.add_argument("demand", help="path to demand.jsonl")
    validate.add_argument(
        "--max-errors", type=int, default=20,
        help="per-file cap on printed error details (default: 20)",
    )
    validate.add_argument(
        "--quarantine-dir", default=None, metavar="DIR",
        help="also write rejected lines to DIR/<file>.quarantine.jsonl",
    )
    _add_obs(validate)  # no _add_common here; obs flags still apply
    validate.set_defaults(func=_cmd_validate)

    stats = subparsers.add_parser(
        "stats",
        help="summarize telemetry files from a finished run",
        description="Pretty-print a --metrics-out dump (Prometheus text "
                    "or JSON) and/or a --trace-out Chrome trace: metric "
                    "values, histogram quantiles, and the slowest spans.",
    )
    stats.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="metrics dump to summarize (.prom/.txt Prometheus text, "
             ".json JSON)",
    )
    stats.add_argument(
        "--trace", default=None, metavar="FILE",
        help="Chrome trace_event JSON to summarize",
    )
    stats.add_argument(
        "--top", type=_positive_int, default=15, metavar="N",
        help="spans shown in the slowest-span table (default: 15)",
    )
    stats.add_argument(
        "--resources", action="store_true",
        help="also render the resource panel (current/peak RSS, CPU%%, "
             "GC generation counts, top stages by peak-RSS watermark) "
             "from the same --metrics snapshot",
    )
    stats.set_defaults(func=_cmd_stats)

    report = subparsers.add_parser(
        "report",
        help="write EXPERIMENTS.md (paper vs measured) or a health rollup",
        description="Default mode regenerates EXPERIMENTS.md.  With "
                    "--health it instead writes a static telemetry "
                    "rollup (engine progress, census drift, alert "
                    "episodes) from a serve socket, a time-series "
                    "directory, or a --metrics-out dump.",
    )
    report.add_argument("--out", default="EXPERIMENTS.md",
                        help="output file (default: EXPERIMENTS.md; "
                             "--health defaults to HEALTH.md)")
    report.add_argument(
        "--health", action="store_true",
        help="write the telemetry health rollup instead of EXPERIMENTS.md",
    )
    report.add_argument(
        "--socket", default=None, metavar="PATH",
        help="health source: a live 'cellspot serve --socket' session",
    )
    report.add_argument(
        "--timeseries-dir", default=None, metavar="DIR",
        help="health source: a --timeseries-dir scrape directory",
    )
    report.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="health source: a --metrics-out dump",
    )
    report.add_argument(
        "--alert-log", default=None, metavar="FILE",
        help="include firing episodes from this alert transition log",
    )
    report.add_argument(
        "--format", choices=["markdown", "html"], default=None,
        help="rollup format (default: by --out extension)",
    )
    report.add_argument(
        "--timeout", type=float, default=2.0, metavar="SECONDS",
        help="socket timeout for --socket health fetches (default: 2.0)",
    )
    _add_common(report)
    report.set_defaults(func=_cmd_report)

    prefixlist = subparsers.add_parser(
        "prefixlist", help="export the cellular prefix list as CSV"
    )
    prefixlist.add_argument("--out", default="cellular_prefixes.csv")
    prefixlist.add_argument(
        "--no-aggregate", action="store_true",
        help="keep raw /24 and /48 entries instead of CIDR-aggregating",
    )
    _add_common(prefixlist)
    prefixlist.set_defaults(func=_cmd_prefixlist)

    evolve = subparsers.add_parser(
        "evolve", help="run the monthly churn census"
    )
    evolve.add_argument("--months", type=int, default=3)
    _add_common(evolve)
    evolve.set_defaults(func=_cmd_evolve)

    serve = subparsers.add_parser(
        "serve",
        help="run the online classification service",
        description="Stream beacon events into windowed state and "
                    "answer line-delimited JSON requests "
                    "({\"op\": \"query\", \"q\": \"192.0.2.17\"}) over "
                    "stdin/stdout or --socket.",
    )
    _add_stream_options(serve)
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve over a local AF_UNIX socket instead of stdin/stdout",
    )
    serve.add_argument(
        "--max-connections", type=_positive_int, default=None, metavar="N",
        help="stop after N socket connections (tests/smoke runs)",
    )
    serve.add_argument(
        "--max-pending", type=_positive_int, default=None, metavar="N",
        help="admission bound: shed requests queued beyond N with an "
             "explicit 'overloaded' response, on stdin and on each "
             "--socket connection (default: unbounded)",
    )
    serve.add_argument(
        "--deadline", type=_positive_float, default=None, metavar="SECONDS",
        help="per-request wall budget; batch items past it are "
             "answered 'overloaded' (default: none)",
    )
    serve.add_argument(
        "--drill-leak", default=None, metavar="BYTES:WINDOWS",
        help="drill: retain BYTES of heap ballast at every window "
             "close, released after WINDOWS closes -- exercises the "
             "rss-growth leak alert end to end (fires while the "
             "ballast accumulates, resolves after the release)",
    )
    serve.add_argument(
        "--ratio-spool", default=None, metavar="DIR",
        help="spool index rebuilds through mmap ratio snapshots in DIR "
             "(read-only page-shared rebuilds; generations double as "
             "serve-scale worker handoff points)",
    )
    _add_telemetry_options(serve)
    _add_common(serve)
    serve.set_defaults(func=_cmd_serve)

    serve_scale = subparsers.add_parser(
        "serve-scale",
        help="run the horizontal serving plane (front + N workers)",
        description="An asyncio front fans line-delimited JSON queries "
                    "out to worker processes serving immutable LPM "
                    "indexes built from shared mmap ratio snapshots; a "
                    "builder process ingests events and publishes new "
                    "snapshot generations without blocking readers.",
    )
    serve_scale.add_argument(
        "--snapshot-dir", required=True, metavar="DIR",
        help="snapshot generation catalog (created if missing)",
    )
    serve_scale.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve over a local AF_UNIX socket",
    )
    serve_scale.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="TCP bind address for --port (default: 127.0.0.1)",
    )
    serve_scale.add_argument(
        "--port", type=_positive_int, default=None, metavar="N",
        help="serve over TCP on this port",
    )
    serve_scale.add_argument(
        "--workers", type=_positive_int, default=4, metavar="N",
        help="query worker processes (default: 4)",
    )
    serve_scale.add_argument(
        "--max-pending", type=_positive_int, default=64, metavar="N",
        help="admission bound: concurrent query requests beyond N are "
             "refused with an explicit 'overloaded' response "
             "(default: 64)",
    )
    serve_scale.add_argument(
        "--deadline", type=_positive_float, default=0.25, metavar="SECONDS",
        help="per-request wall budget before an 'overloaded' shed "
             "(default: 0.25)",
    )
    serve_scale.add_argument(
        "--min-api-hits", type=_positive_int, default=1, metavar="N",
        help="minimum API hits for an indexed subnet (default: 1)",
    )
    serve_scale.add_argument(
        "--publish-every", type=_positive_int, default=1, metavar="N",
        help="builder publishes a new generation every N window "
             "advances (default: 1)",
    )
    serve_scale.add_argument(
        "--startup-timeout", type=_positive_float, default=120.0,
        metavar="SECONDS",
        help="wait this long for the first snapshot generation and "
             "worker sockets (default: 120)",
    )
    serve_scale.add_argument(
        "--events", default=None, metavar="FILE",
        help="beacon hit JSONL for the builder process",
    )
    serve_scale.add_argument(
        "--follow", action="store_true",
        help="tail --events FILE as it grows",
    )
    serve_scale.add_argument(
        "--generate", action="store_true",
        help="builder ingests synthetic hit events from the world",
    )
    serve_scale.add_argument(
        "--scale", type=float, default=0.005,
        help="world scale factor for --generate (default: 0.005)",
    )
    serve_scale.add_argument(
        "--seed", type=int, default=0, help="world seed for --generate"
    )
    serve_scale.add_argument(
        "--hit-volume", type=_positive_int, default=100_000, metavar="N",
        help="demand-proportional hit budget for --generate "
             "(default: 100000)",
    )
    serve_scale.add_argument(
        "--base-hits", type=float, default=5.0, metavar="F",
        help="per-subnet base hit rate for --generate (default: 5.0)",
    )
    serve_scale.add_argument(
        "--window-events", type=_positive_int, default=10_000, metavar="N",
        help="events per tumbling window (default: 10000)",
    )
    serve_scale.add_argument(
        "--on-error", choices=["strict", "skip"], default="strict",
        help="malformed event lines: raise (strict) or drop (skip)",
    )
    serve_scale.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="distributed observability root: cross-process trace "
             "segments, per-worker metric export, and worker death "
             "artifacts land here (default: <snapshot-dir>/obs when "
             "--timeseries-dir or alerting is on; omit both to run "
             "untraced)",
    )
    serve_scale.add_argument(
        "--drill-slow-worker", default=None, metavar="SLOT:SECONDS",
        help="drill: slow every query on worker SLOT's first "
             "incarnation by SECONDS (a respawn heals it) -- exercises "
             "the worker-latency-skew alert end to end",
    )
    _add_telemetry_options(serve_scale)
    serve_scale.set_defaults(func=_cmd_serve_scale)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="replay heavy-tailed query traffic against a serving plane",
        description="Samples queries from the latest snapshot generation "
                    "weighted by demand hits (heavy-tailed, like CGN "
                    "client concentration) and drives them through "
                    "warmup / throughput / overload phases.",
    )
    loadgen.add_argument(
        "--snapshot-dir", required=True, metavar="DIR",
        help="snapshot catalog to sample query traffic from",
    )
    loadgen.add_argument(
        "--socket", default=None, metavar="PATH",
        help="connect to an AF_UNIX serving plane socket",
    )
    loadgen.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="TCP host (default: 127.0.0.1)",
    )
    loadgen.add_argument(
        "--port", type=_positive_int, default=None, metavar="N",
        help="TCP port of the serving plane",
    )
    loadgen.add_argument(
        "--queries", type=_positive_int, default=10_000, metavar="N",
        help="queries in the throughput phase (default: 10000)",
    )
    loadgen.add_argument(
        "--seed", type=int, default=1, help="sampling seed (default: 1)"
    )
    loadgen.add_argument(
        "--concurrency", type=_positive_int, default=8, metavar="N",
        help="concurrent client connections (default: 8)",
    )
    loadgen.add_argument(
        "--batch", type=_positive_int, default=32, metavar="N",
        help="queries per request line (default: 32)",
    )
    loadgen.add_argument(
        "--warmup", type=_nonnegative_int, default=256, metavar="N",
        help="unmeasured warmup queries (default: 256)",
    )
    loadgen.add_argument(
        "--overload", type=_nonnegative_int, default=0, metavar="N",
        help="single-query overload burst size (0 = skip; provokes "
             "explicit sheds and the serving-plane-overload alert)",
    )
    loadgen.add_argument(
        "--overload-concurrency", type=_positive_int, default=64,
        metavar="N",
        help="connections for the overload burst (default: 64)",
    )
    loadgen.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the full phase report as JSON",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    chaos = subparsers.add_parser(
        "chaos",
        help="run a fault-injection drill and prove recovery",
        description="Activate a FaultPlan (TOML/JSON, or the built-in "
                    "smoke plan) against the executor, cache, stream, "
                    "and serve layers, and verify the self-healing "
                    "contract: census output bit-identical to the "
                    "fault-free run, or load shed explicitly.",
    )
    chaos.add_argument(
        "--plan", default=None, metavar="FILE",
        help="fault plan file (.toml or .json); default: the built-in "
             "smoke plan (one fault per healed layer)",
    )
    chaos.add_argument(
        "--report", default=None, metavar="FILE",
        help="also write the full chaos report as JSON to FILE",
    )
    chaos.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="cross-process fault ledger directory (default: a "
             "temporary directory)",
    )
    chaos.set_defaults(func=_cmd_chaos)

    query = subparsers.add_parser(
        "query",
        help="one-shot classification queries",
        description="Drain an event source, build the LPM index, and "
                    "answer each QUERY (IP address or CIDR block) as "
                    "one JSON line.",
    )
    query.add_argument(
        "queries", nargs="+", metavar="QUERY",
        help="IP address or CIDR block ('-' reads queries from stdin)",
    )
    _add_stream_options(query)
    _add_common(query)
    query.set_defaults(func=_cmd_query)

    top = subparsers.add_parser(
        "top",
        help="live terminal dashboard over a serve session",
        description="Repaint engine progress, ingest/query rates, "
                    "census drift scores, and alert states once per "
                    "--interval.  Sources, most to least live: a "
                    "serve --socket session, a --timeseries-dir scrape "
                    "directory, a static --metrics-out dump.",
    )
    top.add_argument(
        "--socket", default=None, metavar="PATH",
        help="poll a running 'cellspot serve --socket' session",
    )
    top.add_argument(
        "--timeseries-dir", default=None, metavar="DIR",
        help="render from the latest scrape in a --timeseries-dir "
             "directory (follows new samples)",
    )
    top.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="render one frame from a --metrics-out dump",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between repaints (default: 1.0)",
    )
    top.add_argument(
        "--iterations", type=_positive_int, default=None, metavar="N",
        help="stop after N frames (default: until the source goes away "
             "or Ctrl-C)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no ANSI clearing)",
    )
    top.add_argument(
        "--no-ansi", action="store_true",
        help="never emit ANSI escapes (frames separated by newlines)",
    )
    top.add_argument(
        "--timeout", type=float, default=2.0, metavar="SECONDS",
        help="socket timeout per poll (default: 2.0)",
    )
    top.set_defaults(func=_cmd_top)

    alerts = subparsers.add_parser(
        "alerts",
        help="validate alert rules and inspect alert logs",
        description="Three modes, composable: --rules FILE validates a "
                    "TOML/JSON rule file; --log FILE pretty-prints the "
                    "transition log and its firing episodes; --socket "
                    "PATH shows the live rule states of a serve "
                    "session.",
    )
    alerts.add_argument(
        "--rules", default=None, metavar="FILE",
        help="validate this TOML/JSON alert rule file",
    )
    alerts.add_argument(
        "--log", default=None, metavar="FILE",
        help="alert transition log (--alert-log) to inspect",
    )
    alerts.add_argument(
        "--socket", default=None, metavar="PATH",
        help="query a live serve session's alert states",
    )
    alerts.add_argument(
        "--rule", default=None, metavar="NAME",
        help="restrict --log output to one rule",
    )
    alerts.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON (episodes for --log, the raw "
             "payload for --socket)",
    )
    alerts.add_argument(
        "--timeout", type=float, default=2.0, metavar="SECONDS",
        help="socket timeout (default: 2.0)",
    )
    alerts.set_defaults(func=_cmd_alerts)

    bench_diff = subparsers.add_parser(
        "bench-diff",
        help="compare two perfbench result files",
        description="Compare every figure in two perfbench results of "
                    "one workload (.perfbench/results/*.json or "
                    "perfbench/baseline/<workload>.json).  Each figure's "
                    "direction comes from perfbench/layers.json, read "
                    "from the current directory; a figure moving more "
                    "than --tolerance in its bad direction regresses.  "
                    "Exit 1 on regression, 2 on unreadable input.",
    )
    bench_diff.add_argument("old", help="baseline perfbench result JSON")
    bench_diff.add_argument("new", help="candidate perfbench result JSON")
    bench_diff.add_argument(
        "--tolerance", type=float, default=0.10, metavar="FRACTION",
        help="relative regression tolerance (default: 0.10)",
    )
    bench_diff.set_defaults(func=_cmd_bench_diff)

    postmortem = subparsers.add_parser(
        "postmortem",
        help="join distributed spans from a serve-scale obs directory",
        description="Interleave front, worker, and builder spans from "
                    "an --obs-dir run on one monotonic clock, list "
                    "worker-death artifacts (each naming the request its "
                    "worker died holding, or last answered), and "
                    "optionally export a Chrome trace.",
    )
    postmortem.add_argument(
        "obs_dir", metavar="DIR",
        help="observability directory (or the catalog dir containing "
             "its obs/ default)",
    )
    postmortem.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="join this trace id (default: the dominant one)",
    )
    postmortem.add_argument(
        "--chrome-out", default=None, metavar="FILE",
        help="also write a Chrome trace_event JSON for chrome://tracing "
             "or Perfetto",
    )
    postmortem.add_argument(
        "--json", action="store_true",
        help="print the joined postmortem as one JSON object",
    )
    postmortem.add_argument(
        "--limit", type=_positive_int, default=None, metavar="N",
        help="show at most N spans in the text timeline",
    )
    postmortem.set_defaults(func=_cmd_postmortem)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "array_backend", None):
        from repro.columnar.backend import set_backend

        set_backend(args.array_backend)
    if getattr(args, "log_level", None):
        from repro.runtime.logging import configure_logging, set_run_id

        configure_logging(args.log_level)
        set_run_id()
    from repro.obs import observed_command

    prof_sample = bool(getattr(args, "prof_sample", False))
    with observed_command(
        args.command,
        metrics_out=getattr(args, "metrics_out", None),
        trace_out=getattr(args, "trace_out", None),
        prof_sample=prof_sample,
        prof_sample_out=_prof_sample_out(args) if prof_sample else None,
        prof_sample_interval_s=getattr(args, "prof_sample_interval", 0.01),
    ):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
