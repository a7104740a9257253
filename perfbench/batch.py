"""The census workload: ``cellspot all`` in this process.

Each pass builds a fresh lab and runs the 25 experiments in ``run_all``
order.  After the last pass the pipeline also runs sharded and from the
dataset cache: their results must equal the serial one, and their stage
timings are the ``parallel.*`` figures.
"""

from __future__ import annotations

import os

from common import (
    Run,
    TreeRss,
    dir_bytes,
    lookup_probe,
    median,
    now,
    peak_rss_bytes,
    pss_bytes,
    result_digest,
    results_equal,
    timed,
)

#: ``census`` is what ``cellspot all`` runs at its default scale.
CENSUS_SCALE = 0.005
#: Self-test scale: every code path, seconds per run.
TINY_SCALE = 0.001
#: Passes per run, each a fresh set-up (``setup_s`` is their median).
CENSUS_PASSES = 3
#: The passes that also run the whole census, ``run_all`` order; the
#: middle one only sets up and repeats, which keeps a run near a minute.
FULL_PASSES = (0, 2)
#: Serial ``CellSpotter.run`` repeats in each untraced pass.
PIPELINE_REPEATS = 3
#: In each untraced pass, the experiments faster than this run
#: ``SHORT_REPEATS`` more times on the same lab (they only read it), so
#: each one's fastest time is a best of several spread over the run:
#: the host's speed swings by up to 2x within seconds.
SHORT_EXPERIMENT_S = 1.0
SHORT_REPEATS = 5
#: Sharded arms: two workers over four prefix-hash shards.
WORKERS, SHARDS = 2, 4
#: Sampling interval of the shard pool's memory: its processes live for
#: one shard map, a few tenths of a second.
POOL_RSS_INTERVAL_S = 0.02
#: Queries for the in-process lookup probe of the traced half.
PROBE_QUERIES = 20_000


def _build_lab(run: Run, scale: float):
    """World plus datasets; returns (lab, seconds, per-layer seconds)."""
    from repro.lab import Lab

    parts = {}
    started = now()
    with run.layer("world.build"):
        parts["world.build_s"], lab = timed(Lab.create, scale=scale, seed=run.seed)
    with run.layer("cdn.beacons"):
        parts["cdn.beacons_s"], _ = timed(lambda: lab.beacons)
    with run.layer("cdn.demand"):
        parts["cdn.demand_s"], _ = timed(lambda: lab.demand)
    with run.layer("datasets.as_classes"):
        lab.as_classes
    with run.layer("dns.affinity"):
        parts["dns.affinity_s"], _ = timed(lambda: lab.affinity)
    return lab, now() - started, parts


def _run_experiments(run: Run, lab, only=None):
    """Every experiment (or those named in ``only``), in ``run_all``
    order.

    Returns (seconds, {id: seconds}, {ids within tolerance}).
    """
    from repro.experiments import load_all

    durations, within_tolerance = {}, set()
    started = now()
    for experiment_id, runner in load_all().items():
        if only is not None and experiment_id not in only:
            continue
        run.attempted += 1
        begun = now()
        try:
            with run.layer(f"experiments.{experiment_id}"):
                result = runner(lab)
        except Exception as exc:  # noqa: BLE001 -- counted, then fails the run
            run.failed += 1
            run.problems.append(f"{experiment_id} raised {exc!r}")
            continue
        durations[experiment_id] = now() - begun
        if result.all_ok:
            within_tolerance.add(experiment_id)
    return now() - started, durations, within_tolerance


def census(run: Run) -> None:
    from repro.experiments import EXPERIMENT_MODULES

    scale = TINY_SCALE if run.tiny else CENSUS_SCALE
    setups, digests, passes, totals, verdicts = [], [], [], [], []
    samples, pipeline_best = [], float("inf")
    for repeat in range(CENSUS_PASSES):
        if run.trace and repeat == CENSUS_PASSES - 1:
            run.start_tracing()
        lab, setup_s, parts = _build_lab(run, scale)
        setups.append(setup_s)
        with run.layer("core.pipeline"):
            result = lab.result
        run.attempted += 1
        digests.append(result_digest(result))
        if not run.tracing:
            pipeline_best = min(pipeline_best, _serial_repeats(run, lab, result))
        if repeat in FULL_PASSES:
            seconds, durations, within_tolerance = _run_experiments(run, lab)
            totals.append(seconds)
            passes.append(durations)
            verdicts.append(within_tolerance)
            samples.append(durations)
        if not run.tracing:
            short = {k for k, took in passes[0].items() if took < SHORT_EXPERIMENT_S}
            for _ in range(SHORT_REPEATS):
                _, again, ok_again = _run_experiments(run, lab, short)
                samples.append(again)
                run.check(ok_again == verdicts[0] & short,
                          "a repeated experiment changed its verdict")
    # The pool's processes are forked: Pss counts the parent's pages
    # they share once, where a sum of their VmHWM would count them in
    # every process.
    with TreeRss(os.getpid(), POOL_RSS_INTERVAL_S, read=pss_bytes) as pool_tree:
        _parallel_arms(run, lab, result)
    # Before and after the pool this process is the whole program.
    peak_mb = max(peak_rss_bytes(os.getpid()), pool_tree.peak) / 2**20
    run.check(
        len(set(digests)) == 1,
        f"pipeline digests differ across identical set-ups: {digests}",
    )
    oks = [len(ids) for ids in verdicts]
    run.check(len(set(oks)) == 1, f"experiments within tolerance differ: {oks}")
    expected = len(EXPERIMENT_MODULES)
    for durations in passes:
        run.check(len(durations) == expected,
                  f"{len(durations)} of {expected} experiments ran")
    run.notes.append(f"pipeline digest {digests[-1][:16]}")

    # The fastest full census, and each experiment's fastest run: the
    # host's slowdowns only ever add time.  An op is one table or figure.
    census_s = min(totals)
    best = {
        key: min(durations[key] for durations in samples if key in durations)
        for key in passes[0]
    }
    op_p50_s = median(list(best.values()))
    short_best = [took for took in best.values() if took < SHORT_EXPERIMENT_S]
    short_per_s = len(short_best) / sum(short_best)
    run.metrics.update(
        setup_s=median(setups),
        peak_rss_mb=peak_mb,
        op_p50_ms=op_p50_s * 1e3,
        ops_per_s=short_per_s,
    )
    run.detail("setup_s", median(setups))
    run.detail("peak_rss_mb", peak_mb)
    run.detail("census_s", census_s)
    run.detail("experiment_p50_ms", op_p50_s * 1e3)
    run.detail("short_experiments_per_s", short_per_s)
    run.detail("experiments_ok", oks[-1])
    run.detail("pipeline_s", pipeline_best)
    for name, seconds in parts.items():
        run.detail(name, seconds)
    for stage, seconds in result.stage_timings.items():
        run.detail(f"core.{stage}_s", seconds)
    for experiment_id, seconds in best.items():
        run.detail(f"experiments.{experiment_id}_s", seconds)
    if run.trace:
        run.detail("trace.overhead_ratio", totals[-1] / min(totals[:-1]))
        _columnar_probe(run, lab)
        lookup_probe(run, result.ratios, _queries(result.ratios.records(), run.seed))


def _serial_repeats(run: Run, lab, serial) -> float:
    """Fastest of ``PIPELINE_REPEATS`` serial ``CellSpotter.run`` calls
    over the lab's datasets, each checked equal to ``serial``."""
    data = (lab.beacons, lab.demand, lab.as_classes)
    fastest = float("inf")
    for _ in range(PIPELINE_REPEATS):
        seconds, again = timed(lab.spotter.run, *data)
        fastest = min(fastest, seconds)
        run.attempted += 1
        run.check(results_equal(serial, again), "repeated serial pipeline differs")
    return fastest


def _queries(records, seed: int):
    from repro.scale.loadgen import heavy_tail_queries

    return heavy_tail_queries(records, PROBE_QUERIES, seed=seed)


def _parallel_arms(run: Run, lab, serial) -> None:
    """The sharded and cache-fused pipelines over the last pass's
    datasets: checked equal to the serial result, timed by stage."""
    from repro.obs.metrics import global_registry
    from repro.parallel.cache import DatasetCache
    from repro.parallel.executor import ShardPlan
    from repro.parallel.pipeline import run_from_entry

    data = (lab.beacons, lab.demand, lab.as_classes)
    with run.layer("pipeline.sharded"):
        sharded_s, sharded = timed(
            lab.spotter.run, *data, workers=WORKERS, shards=SHARDS
        )
    cache = DatasetCache(run.dir / "cache")
    params = lab.cache_params()
    key = cache.key_for(params)
    with run.layer("parallel.cache_store"):
        store_s, _ = timed(cache.store, key, lab.beacons, lab.demand, params=params)

    def cached_run():
        entry = cache.fetch(key)
        if entry is None:
            raise RuntimeError("dataset cache entry vanished")
        return run_from_entry(
            lab.spotter, entry, lab.as_classes, plan=ShardPlan.plan(workers=WORKERS)
        )

    with run.layer("pipeline.cached"):
        cached_s, cached = timed(cached_run)
    run.attempted += 2
    run.check(results_equal(serial, sharded), "sharded result differs from serial")
    run.check(results_equal(serial, cached), "cached fused result differs from serial")

    run.detail("sharded_pipeline_s", sharded_s)
    run.detail("cached_pipeline_s", cached_s)
    run.detail("parallel.cache_store_s", store_s)
    run.detail("parallel.cache_bytes", dir_bytes(cache.entry_dir(key)))
    timings = sharded.stage_timings
    for stage in ("partition", "merge", "demand_map"):
        run.detail(f"parallel.{stage}_s", timings[stage])
    shard_secs = [v for k, v in timings.items() if k.startswith("spot.shard")]
    run.detail("parallel.shard_skew", max(shard_secs) / (sum(shard_secs) / len(shard_secs)))
    spot_spans = [s for s in run.tracer.spans() if s.name == "stage.spot_shards"]
    run.detail("parallel.spot_shards_s", spot_spans[-1].duration)
    wait = global_registry().get("shard_queue_wait_seconds")
    run.detail("parallel.queue_wait_s", wait.total / max(wait.count, 1))
    timings = cached.stage_timings
    for prefix in ("load_beacon", "load_demand"):
        run.detail(f"parallel.{prefix}_s", sum(
            v for k, v in timings.items() if k.startswith(prefix + ".")
        ))
    run.detail("parallel.fused_spot_s", timings["fused_spot"])


def _columnar_probe(run: Run, lab) -> None:
    """``spot_batch`` over the dataset's ``BeaconBatch``: the kernel
    each shard of the sharded arm runs."""
    from repro.columnar import ops
    from repro.columnar.backend import active_backend_name
    from repro.columnar.batch import BeaconBatch

    batch = BeaconBatch.from_dataset(lab.beacons, active_backend_name())
    with run.layer("probe.spot_batch"):
        seconds, _ = timed(
            ops.spot_batch, batch, lab.spotter.min_api_hits, lab.spotter.threshold
        )
    run.detail("columnar.spot_events_per_s", len(lab.beacons) / seconds)
