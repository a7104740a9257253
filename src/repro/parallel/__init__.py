"""Parallel execution layer: shard, execute, merge -- identically.

The census-scale pipeline is embarrassingly parallel up to AS
identification: every record belongs to exactly one aggregation
prefix, so prefix-hash sharding (:mod:`repro.parallel.sharding`) cuts
the keyspace into disjoint partitions whose per-shard results merge
without reconciliation.  :mod:`repro.parallel.executor` runs the
shards -- in a process pool when the hardware has cores to offer, in
process otherwise -- and :mod:`repro.parallel.pipeline` reassembles
shard outputs in original dataset order so the merged result is
bit-identical to the serial pipeline's, a property the differential
test suite enforces for arbitrary worker x shard combinations.

:mod:`repro.parallel.cache` adds the second half of "fast repeated
runs": a digest-keyed on-disk cache of columnar dataset shards, which
:func:`repro.parallel.pipeline.run_from_entry` fuses straight into
pipeline results without rebuilding the datasets at all.
"""
