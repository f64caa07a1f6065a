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
from typing import Iterable, Sequence

from repro.exceptions import PandaError, QueryError
from repro.parallel.partition import ShardTable, plan_shards, slice_bounds
from repro.parallel.pool import (
    WorkerPool,
    default_worker_count,
    pack_column_range,
    run_faq_task,
    semiring_reference,
    unpack_columns,
)
from repro.planner.engine import QueryEngine
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
            target.extend(column)
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
        backend: str = "exact",
        planner=None,
        workers: int | None = None,
        execution_backend: str | None = None,
    ) -> None:
        if workers is None:
            workers = default_worker_count()
        super().__init__(
            query, constraints, backend, planner, workers, execution_backend
        )

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

    Shards on the first variable of the sorted global order, ⊗-joins and
    ⊕-marginalizes each shard in a worker, then ⊕-combines the shard
    results in ascending shard order.  Over exact domains (``Fraction`` /
    ``int`` / ``bool`` / ``min`` / ``max`` — every stock semiring) the
    result is bit-identical to the serial
    ``reduce(multiply).marginalize(free)``: sharding only regroups an
    associative-commutative exact ⊕.

    Args:
        factors: :class:`~repro.faq.annotated.AnnotatedRelation` factors,
            all over one semiring.
        free: the output (free) variables; everything else is ⊕-ed out.
        workers: pool size (defaults to the machine's cores, capped at 8).
        pool: an existing :class:`WorkerPool` to reuse; a temporary pool is
            created (and torn down) when omitted and ``workers > 1``.
        name: output relation name.
    """
    from repro.faq.annotated import AnnotatedRelation

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
    order = tuple(sorted(set().union(*(f.attributes for f in factors))))
    if workers is None:
        workers = default_worker_count()

    # Sort each factor's (code row, value) pairs under the global order once;
    # rows feed the shard planner, values stay index-aligned for slicing.
    shard_target = (
        workers * QueryEngine.OVERSHARD if workers > 1 else 1
    )
    factor_rows: list[list] = []
    factor_values: list[list] = []
    tables: list[ShardTable] = []
    from repro.relational.columns import ColumnSet

    for factor in factors:
        attrs = tuple(v for v in order if v in factor.attributes)
        positions = tuple(factor.schema.index(a) for a in attrs)
        pairs = sorted(
            ((tuple(row[p] for p in positions), value)
             for row, value in factor._data.items()),
            key=lambda pair: pair[0],
        )
        rows = [row for row, _ in pairs]
        values = [value for _, value in pairs]
        factor_rows.append(rows)
        factor_values.append(values)
        tables.append(ShardTable(attrs, ColumnSet(attrs, rows, presorted=True)))

    specs = plan_shards(tables, order, shard_target)
    reference = semiring_reference(semiring)
    tasks = []
    for spec in specs:
        payload = []
        for factor, table, rows, values in zip(
            factors, tables, factor_rows, factor_values
        ):
            lo, hi = slice_bounds(table, order, spec)
            payload.append(
                (
                    factor.name,
                    table.attrs,
                    pack_column_range(table.column_set, lo, hi),
                    values[lo:hi],
                )
            )
        tasks.append((reference, free, payload))

    own_pool = pool is None and workers > 1 and len(tasks) > 1
    if pool is None:
        pool = WorkerPool(workers)
    try:
        if len(tasks) > 1:
            pool.ensure_started()
        results = pool.map(run_faq_task, tasks)
    finally:
        if own_pool:
            pool.close()

    counter = current_counter()
    add = semiring.add
    zero = semiring.zero
    # Workers build factors under the order-restricted attrs, so their rows
    # arrive in the *worker* product-schema order; the serial result's
    # schema follows the factors' original attribute order.  Unpack under
    # the former, permute into the latter (usually the identity).
    worker_schema = _first_appearance_schema(
        [table.attrs for table in tables], free
    )
    out_schema = _first_appearance_schema(
        [factor.schema for factor in factors], free
    )
    permutation = tuple(worker_schema.index(a) for a in out_schema)
    identity = permutation == tuple(range(len(out_schema)))
    data: dict = {}
    for buffer, values, counts in results:
        counter.absorb(counts)
        if worker_schema:
            rows = unpack_columns(buffer, len(worker_schema))
        else:
            # Fully aggregated shards: the nullary row carries no codes, so
            # the buffer is empty — the values list is the row count.
            rows = [()] * len(values)
        for row, value in zip(rows, values):
            if not identity:
                row = tuple(row[p] for p in permutation)
            if row in data:
                value = add(data[row], value)
                if value == zero:
                    del data[row]
                    continue
            data[row] = value
    return AnnotatedRelation._from_codes(
        name or "⊕⊗(" + ",".join(f.name for f in factors) + ")",
        out_schema,
        semiring,
        data,
    )


def _first_appearance_schema(
    schemas, free: tuple[str, ...]
) -> tuple[str, ...]:
    """What ``reduce(multiply).marginalize(free)`` yields over ``schemas``.

    ⊗ appends each factor's fresh attributes in its own schema order, and
    ⊕-marginalization keeps the product order — i.e. first appearance across
    the factor sequence, filtered to the free variables.
    """
    schema: list[str] = []
    seen: set[str] = set()
    for factor_schema in schemas:
        for attr in factor_schema:
            if attr not in seen:
                seen.add(attr)
                schema.append(attr)
    keep = frozenset(free)
    return tuple(a for a in schema if a in keep)
