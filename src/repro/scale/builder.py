"""Builder process: drain the beacon stream, publish snapshot generations.

The builder is the only process in the serving plane that mutates
state.  It owns a :class:`~repro.stream.engine.StreamEngine`, folds
beacon events in, and every ``publish_every_windows`` window advances
freezes the current ratio table into a new
:class:`~repro.scale.snapshot.SnapshotCatalog` generation through
:meth:`~repro.scale.snapshot.SnapshotCatalog.publish_engine`, the step
``cellspot serve --ratio-spool`` publishes through too (plus one
final generation when the source drains, so short streams still
publish).  Workers pick the new generation up on their next poll --
copy-on-rebuild: queries are never blocked by ingestion.

Only exact window policies (``decay == 1.0``) can be published: mmap
snapshots store integer counts, and an exact drained stream equals the
batch aggregate -- which is what makes the plane's answers
byte-comparable to the single-process service.

The event-source spec is a plain (picklable) dict so the plane can
pass it across a process boundary::

    {"kind": "jsonl", "path": ..., "follow": bool, "on_error": "skip"}
    {"kind": "generate", "scale": 0.01, "seed": 1,
     "hit_volume": 200000, "base_hits": 40}
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.scale.snapshot import SnapshotCatalog


def event_source(spec: Dict) -> Iterator:
    """Materialize a beacon-event iterator from a picklable spec."""
    from repro.runtime.policies import IngestPolicy
    from repro.stream.sources import follow_jsonl, generated_events, jsonl_events

    kind = spec.get("kind")
    if kind == "jsonl":
        policy = (
            IngestPolicy.skip()
            if spec.get("on_error") == "skip"
            else IngestPolicy.strict()
        )
        if spec.get("follow"):
            return follow_jsonl(
                spec["path"],
                policy=policy,
                idle_polls=spec.get("idle_polls", 20),
            )
        # The handle lives as long as the generator: the builder
        # process exits when the source drains.
        handle = open(spec["path"])  # noqa: SIM115 -- generator-scoped
        return jsonl_events(handle, policy=policy)
    if kind == "generate":
        from repro.cdn.beacon import BeaconConfig
        from repro.lab import Lab

        lab = Lab.create(
            scale=spec.get("scale", 0.01), seed=spec.get("seed", 1)
        )
        return generated_events(
            lab.world,
            BeaconConfig(
                demand_hits=spec.get("hit_volume", 200_000),
                base_hits=spec.get("base_hits", 40),
            ),
        )
    raise ValueError(f"unknown event source kind {kind!r}")


def builder_main(
    catalog_dir: str,
    source_spec: Dict,
    window_events: int = 10_000,
    publish_every_windows: int = 1,
    min_api_hits: int = 1,
    keep_generations: int = 2,
    max_events: Optional[int] = None,
    obs_dir: Optional[str] = None,
    trace_id: Optional[str] = None,
) -> None:
    """Process entry point: ingest, publish, prune, exit on drain.

    With ``obs_dir`` every publish is recorded as a ``builder.publish``
    span -- stamped with the new generation number -- under the plane's
    run ``trace_id``, into ``<obs_dir>/builder`` span segments that
    ``cellspot postmortem`` joins with front and worker spans.
    """
    import time

    from repro.runtime.faults import mark_worker_process
    from repro.stream.engine import StreamEngine
    from repro.stream.windows import WindowPolicy

    mark_worker_process()
    policy = WindowPolicy(window_events=window_events, decay=1.0)
    engine = StreamEngine(policy=policy)
    catalog = SnapshotCatalog(catalog_dir)
    span_log = None
    if obs_dir is not None:
        from pathlib import Path

        from repro.obs.trace import SpanLog

        span_log = SpanLog(Path(obs_dir) / "builder", source="builder")

    published_at_window = -1

    def publish() -> None:
        nonlocal published_at_window
        started = time.perf_counter()
        info = catalog.publish_engine(
            engine, min_api_hits, keep=keep_generations
        )
        published_at_window = engine.windows_advanced
        if span_log is not None:
            try:
                span_log.record(
                    "builder.publish",
                    trace_id or "",
                    started=started,
                    duration=time.perf_counter() - started,
                    generation=info.number,
                    events=engine.events_consumed,
                    windows=engine.windows_advanced,
                )
            except Exception:  # noqa: BLE001 -- telemetry must not kill ingest
                pass

    events = event_source(source_spec)
    for hit in events:
        engine.ingest(hit)
        if (
            engine.windows_advanced - max(published_at_window, 0)
            >= publish_every_windows
            and engine.windows_advanced != published_at_window
        ):
            publish()
        if max_events is not None and engine.events_consumed >= max_events:
            break
    # Final generation: whatever is still in the open window counts
    # too (exact policy: drained stream == batch aggregate).
    if engine.events_consumed and (
        published_at_window != engine.windows_advanced
        or engine.state.window_fill
        or published_at_window < 0
    ):
        publish()
