"""Partition-parallel helpers of the one query engine, and parallel FAQ.

:class:`repro.planner.QueryEngine` with ``workers > 1`` range-partitions the
query on its first global-order attribute (:mod:`repro.parallel.partition`),
fans the shards out over a persistent worker pool
(:mod:`repro.parallel.pool`), and reassembles the sorted per-shard outputs
with :func:`_merge_shard_columns` — an ordered concatenation, since shard
ranges ascend and outputs are disjoint — into one relation that is
*bit-identical* to serial execution.  Every shard runs the serial
driver-table entry (:data:`repro.core.query_plans.DRIVERS`): a join
driver restricts its kernel's trie roots to the shard's row ranges (zero
copy); a plan driver runs on a database of the shard's slices, PANDA
drivers with the parent's precomputed :class:`~repro.planner.PandaPlan`
bundle.

Work accounting: every worker runs its shard under a scoped
:class:`~repro.relational.operators.WorkCounter` and reports the counts
home; the engine absorbs them into the *parent scope's* counter, so
``repro run --stats`` totals reflect all work performed.  Output-side work
(``tuples_emitted`` of the top-level join) is worker-count-independent —
it equals the output size; scan-side work may include per-shard overhead
(relations not anchored on the sharding attribute are probed by every
shard).
"""

from __future__ import annotations

from array import array
from contextlib import nullcontext
from typing import Iterable, Sequence

from repro.exceptions import PandaError, QueryError
from repro.parallel.partition import ShardTable, plan_shards, slice_bounds
from repro.parallel.pool import (
    WorkerPool,
    default_worker_count,
    pack_column_range,
    run_faq_task,
    semiring_reference,
    unpack_column_arrays,
)
from repro.planner.engine import QueryEngine
from repro.relational.backend import current_backend
from repro.relational.columns import append_column
from repro.relational.operators import current_counter
from repro.relational.relation import Relation

__all__ = ["ParallelQueryEngine", "parallel_faq_join"]


def _order_tables(relations: Sequence[Relation], order: tuple[str, ...]):
    """Each relation as a :class:`ShardTable` under the global order."""
    tables = []
    for relation in relations:
        attrs = tuple(v for v in order if v in relation.attributes)
        tables.append(ShardTable(attrs, relation.column_set(attrs)))
    return tables


def _merge_shard_columns(shards: Iterable[Sequence], arity: int) -> tuple:
    """Merge sorted per-shard output columns into the globally sorted columns.

    Shard specs ascend and their outputs are disjoint, so this is an
    ordered concatenation (empty shards contribute nothing); the boundary
    check turns any partition-planning bug into a loud failure instead of a
    silently unsorted result.
    """
    merged = tuple(array("q") for _ in range(arity))
    previous_last: tuple | None = None
    for columns in shards:
        if not columns or not len(columns[0]):
            continue
        first = tuple(column[0] for column in columns)
        if previous_last is not None and first <= previous_last:
            raise PandaError(
                "shard outputs overlap or arrived out of order — the "
                "partition plan violated its disjoint-ascending contract"
            )
        previous_last = tuple(column[-1] for column in columns)
        for target, column in zip(merged, columns):
            append_column(target, column)
    return merged


class ParallelQueryEngine(QueryEngine):
    """:class:`repro.planner.QueryEngine` under its pooled defaults.

    The same engine, kept for callers of this name with the defaults it
    always had: ``workers`` defaults to the machine's cores (capped at 8)
    and ``execute`` to the ``generic`` join.  New code should use
    ``QueryEngine(query, workers=N)``.
    """

    def __init__(
        self,
        query,
        constraints=None,
        planner=None,
        workers: int | None = None,
    ) -> None:
        if workers is None:
            workers = default_worker_count()
        super().__init__(query, constraints, planner, workers)

    def execute(self, database, driver: str = "generic", constraints=None):
        return super().execute(database, driver, constraints)


def parallel_faq_join(
    factors: Sequence,
    free: Iterable[str] = (),
    workers: int | None = None,
    pool: WorkerPool | None = None,
    name: str | None = None,
):
    """Parallel FAQ evaluation: ``⊕_{bound vars} ⊗_i factors[i]``.

    Shards on the first variable of the sorted global order, runs
    :func:`~repro.faq.annotated.sum_product` per shard in a worker, and
    ⊕-folds the shard results, concatenated in ascending shard order, with
    :func:`~repro.faq.annotated.fold_annotations`.  One worker, or a plan
    of one shard, runs ``sum_product`` in process — nothing is packed and
    the semiring need not be picklable.  Over exact domains (every stock
    semiring) the result is bit-identical to the in-process one: sharding
    only regroups an associative-commutative exact ⊕.

    Args:
        factors: :class:`~repro.faq.annotated.AnnotatedRelation` factors,
            all over one semiring.
        free: the output (free) variables; everything else is ⊕-ed out.
        workers: pool size (defaults to the machine's cores, capped at 8).
        pool: an existing :class:`WorkerPool` to reuse; a temporary pool is
            created (and torn down) when omitted and shards are shipped.
        name: output relation name.

    Raises:
        QueryError: on mixed semirings, or when shards must ship a semiring
            that is neither stock nor picklable.
    """
    from repro.faq.annotated import (
        first_appearance_schema,
        fold_annotations,
        sum_product,
    )

    factors = list(factors)
    if not factors:
        raise QueryError("parallel FAQ evaluation needs at least one factor")
    semiring = factors[0].semiring
    for factor in factors[1:]:
        if factor.semiring is not semiring:
            raise QueryError(
                f"factors mix semirings ({semiring} vs {factor.semiring})"
            )
    free = tuple(free)
    name = name or "⊕⊗(" + ",".join(f.name for f in factors) + ")"
    if workers is None:
        workers = default_worker_count()
    specs = []
    if workers > 1:
        order = tuple(sorted(set().union(*(f.attributes for f in factors))))
        # Each factor re-sorted under the global order (a fold of distinct
        # rows is a sort), for the shard planner and for slicing.
        sharded = [
            f.reordered(tuple(v for v in order if v in f.attributes))
            for f in factors
        ]
        tables = [ShardTable(f.schema, f.column_set) for f in sharded]
        specs = plan_shards(tables, order, workers * QueryEngine.OVERSHARD)
    if len(specs) <= 1:
        return sum_product(factors, free, name)[0]

    reference = semiring_reference(semiring)
    backend = current_backend()
    tasks = []
    for spec in specs:
        payload = []
        for factor, table in zip(sharded, tables):
            lo, hi = slice_bounds(table, order, spec)
            buffer = pack_column_range(table.column_set, lo, hi)
            payload.append((factor.name, table.attrs, buffer, factor.values[lo:hi]))
        tasks.append((reference, free, payload, backend))
    with WorkerPool(workers) if pool is None else nullcontext(pool) as active:
        active.ensure_started()
        results = active.map(run_faq_task, tasks)

    # Workers' factors follow the global order, so their rows arrive in
    # that schema; the fold re-sorts them into the first-appearance one.
    schema = first_appearance_schema([t.attrs for t in tables], free)
    columns = [array("q") for _ in schema]
    values: list = []
    counter = current_counter()
    for buffer, shard_values, counts in results:
        counter.absorb(counts)
        for column, part in zip(columns, unpack_column_arrays(buffer, len(schema))):
            append_column(column, part)
        values += shard_values
    out_schema = first_appearance_schema([f.schema for f in factors], free)
    columns = [columns[schema.index(a)] for a in out_schema]
    return fold_annotations(name, out_schema, columns, values, semiring)
