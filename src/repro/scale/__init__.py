"""Horizontal serving plane (asyncio front + worker processes).

``repro.scale`` is the multi-process serving tier: an asyncio
front-end accepts the line-delimited JSON protocol of
:mod:`repro.serve.protocol` -- the one ``cellspot serve`` speaks --
over TCP or ``AF_UNIX`` and fans queries out to N worker processes,
whose query replies come from the same reply builder as the
single-process :class:`~repro.serve.service.CellSpotService`.
Workers never touch the stream engine -- each serves
longest-prefix-match lookups from an immutable
:class:`~repro.serve.index.ClassificationIndex` built over an mmap
:class:`~repro.columnar.mmaptable.MmapRatioTable` snapshot, so all
workers share one copy of the table through the OS page cache.

A builder process owns ingestion: it drains the beacon stream, and on
window advances publishes a new snapshot *generation* through
:class:`~repro.scale.snapshot.SnapshotCatalog` (write the table, then
atomically swap a pointer file).  Workers poll the pointer between
requests and swap to the new generation only after the replacement
index is fully built -- readers never block on a rebuild and never
observe a torn index.

Modules:

- :mod:`repro.scale.snapshot` -- generation catalog + swap-safe holder
- :mod:`repro.scale.worker`   -- worker process main loop
- :mod:`repro.scale.builder`  -- ingest/publish process main loop
- :mod:`repro.scale.plane`    -- the asyncio front (admission control,
  deadlines, worker respawn, graceful drain)
- :mod:`repro.scale.loadgen`  -- heavy-tailed load generator
"""
