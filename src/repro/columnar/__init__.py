"""Columnar hot core: vectorized record-batch kernels with a proven twin.

The batch census paths run their per-row work as batch-at-a-time
columnar kernels: the sharded and cached pipelines
(:mod:`repro.parallel.pipeline`) classify each shard with one
``spot_batch`` call, prefix-hash partition with the vectorized shard
index, and restore dataset order with one argsort.  Per-hit ingest
is not columnar: the batch dataset and the stream's windows fold one
hit at a time (:func:`repro.datasets.beacon_dataset.fold_hit`).  Two
interchangeable backends implement one kernel surface:

:mod:`repro.columnar.kernels_np`
    numpy record-batch kernels -- lexsort grouping, ``reduceat``
    segment sums, vectorized FNV-1a shard hashing.

:mod:`repro.columnar.kernels_py`
    a pure-Python twin over :mod:`array`-module buffers, used when
    numpy is absent (and as the readable specification of what the
    numpy kernels must compute).

:mod:`repro.columnar.backend` picks between them (env
``CELLSPOT_ARRAY_BACKEND`` / ``--array-backend`` / auto-detect).  The
frozen per-row semantics live with the tests
(``tests/row_oracle.py``) as the third arm of the equivalence
contract: every kernel is property-tested to satisfy

    ``kernels_np == kernels_py == row-wise oracle``

down to the bit -- the test harness, not the benchmark, is what
licenses the speedup.  :mod:`repro.columnar.mmaptable` adds an
mmap-backed :class:`~repro.core.ratios.RatioTable` snapshot so pool
workers share read-only pages instead of pickling tables.
"""
