"""Partition-parallel execution: sharded columnar joins across a worker pool.

Architecture layer 7 (see ``docs/architecture.md``).  The subsystem
splits a query into disjoint shards by range-partitioning the
sorted code rows of the first global-order attribute — with a heavy-hitter
split in the spirit of Lemma 6.1 so skewed keys don't serialize — and fans
the shards out over a persistent ``multiprocessing`` worker pool:

* :mod:`repro.parallel.partition` plans the shards (code-range specs plus
  per-relation row bounds, all located by binary search on the sorted
  columns);
* :mod:`repro.parallel.pool` is the worker pool: the dictionary-encoded
  relations ship to each worker *once per database* as raw column-major
  int64 code buffers, adopted worker-side as read-only column views of the
  received bytes (plans and dictionaries likewise seed once), and each
  shard task — just per-relation row ranges — runs the serial
  driver-table entry over the worker-resident relations;
* :mod:`repro.parallel.engine` holds the ordered merge that reassembles
  per-shard outputs into one relation, and parallel FAQ.  The facade is
  :class:`repro.planner.QueryEngine` with ``workers=N``;
  ``ParallelQueryEngine`` is a subclass that keeps its older defaults
  (all cores, the ``generic`` driver).

Hard contract: for every driver and semiring, parallel output is
*bit-identical* to serial execution — the same sorted code rows, the same
exact ``Fraction`` annotations.  Parallelism only changes wall-clock time,
never results.
"""

from repro.parallel.engine import ParallelQueryEngine, parallel_faq_join
from repro.parallel.partition import ShardSpec, ShardTable, plan_shards, slice_bounds

__all__ = [
    "ParallelQueryEngine",
    "ShardSpec",
    "ShardTable",
    "parallel_faq_join",
    "plan_shards",
    "slice_bounds",
]
