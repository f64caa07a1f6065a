""":class:`ParallelQueryEngine` — the sharded, pooled query-execution facade.

Same facade as :class:`repro.planner.QueryEngine` (construct per query, call
:meth:`~ParallelQueryEngine.execute` per database) plus ``workers=N``: the
engine range-partitions the query on its first global-order attribute
(:mod:`repro.parallel.partition`), fans the shards out over a persistent
worker pool (:mod:`repro.parallel.pool`), and reassembles the sorted
per-shard outputs — an ordered concatenation, since shard ranges ascend and
outputs are disjoint — into one relation that is *bit-identical* to serial
execution.

Four shard drivers mirror the serial execution strategies:

=============== ====================================================
``generic``     Generic Join per shard (``relational/wcoj.py``)
``leapfrog``    Leapfrog Triejoin per shard (``relational/leapfrog.py``)
``yannakakis``  bags of the planner-chosen tree decomposition per
                shard, then Yannakakis (``relational/yannakakis.py``)
``panda``       the full da-subw PANDA driver per shard, with the
                data-independent :class:`~repro.planner.PandaPlan` per
                isomorphism class precomputed by the parent planner and
                shipped to the workers
=============== ====================================================

With ``workers <= 1`` the ``generic``/``leapfrog`` drivers run in-process
through :func:`repro.relational.execution.execute_join`'s zero-copy
root-range restriction — no buffers, no pool — which is also the reference
implementation the property tests pin the multiprocess path against.

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

import hashlib
import os
import pickle
from array import array
from typing import Iterable, Sequence

from repro.core.constraints import ConstraintSet
from repro.exceptions import PandaError, QueryError
from repro.parallel.partition import ShardSpec, ShardTable, plan_shards, slice_bounds
from repro.parallel.pool import (
    WorkerPool,
    default_worker_count,
    pack_column_range,
    run_faq_task,
    run_shard_task,
    semiring_reference,
    unpack_column_arrays,
    unpack_columns,
)
from repro.planner.engine import EngineBase, check_driver, constraints_fingerprint
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


class ParallelQueryEngine(EngineBase):
    """Evaluate a full/Boolean CQ across a worker pool, bit-identically.

    Drop-in for :class:`repro.planner.QueryEngine` where the query is a full
    or Boolean conjunctive query: same constructor shape, same
    ``execute(database, driver)`` call, same :class:`PlanResult` result —
    plus ``workers=N`` and shard-level drivers.

    Example:
        >>> engine = ParallelQueryEngine(triangle_query(), workers=4)  # doctest: +SKIP
        >>> result = engine.execute(database)                          # doctest: +SKIP
        >>> result.relation == QueryEngine(...).execute(database).relation
    """

    #: Shards planned per worker.  Finer shards let the pool balance residual
    #: skew (the slowest shard bounds the wall-clock) at near-zero extra cost:
    #: whole-relation payloads are cached per worker, and slicing is C-speed.
    OVERSHARD = 2

    def __init__(
        self,
        query,
        constraints: ConstraintSet | None = None,
        backend: str = "exact",
        planner=None,
        workers: int | None = None,
        execution_backend: str | None = None,
    ) -> None:
        super().__init__(
            constraints,
            backend,
            planner,
            execution_backend,
            default_worker_count() if workers is None else workers,
        )
        self.query = query
        #: (constraints fingerprint, backend) -> shipped plan bundle.
        self._panda_bundles: dict = {}
        #: constraints fingerprint -> chosen decomposition bags.
        self._yannakakis_bags: dict = {}
        #: The currently bound database: ``(identity key, token, pinned
        #: column sets, {shard target: specs})``.  Pinning the column sets
        #: keeps their ids stable, so re-executing on the same database
        #: skips re-packing, re-digesting, and re-planning the shards.
        self._binding: tuple | None = None
        #: Atom bindings for the current database (pinned), so queries whose
        #: atom variables differ from the stored schemas don't re-relabel —
        #: and hence re-pack/re-digest — on every execute.
        self._bound_db: tuple | None = None
        #: Shipped dictionary value lists, rebuilt only when a dictionary
        #: grows (``((universe, lengths), {attr: values})``).
        self._dict_values: tuple | None = None

    @property
    def shipping_stats(self) -> dict:
        """The pool's cumulative wire cost (column bytes vs file refs).

        Zeros before the first pooled execute; file-backed relations keep
        ``column_bytes`` at zero across binds and rebinds — the invariant
        ``benchmarks/bench_out_of_core.py`` gates on.
        """
        if self._pool is None:
            return {"column_bytes": 0, "file_refs": 0}
        return self._pool.shipping_stats

    # -- internals -------------------------------------------------------------

    def _bind_atoms(self, database) -> list[Relation]:
        """The query's atoms bound against ``database`` (cached, pinned).

        Safe to cache: relations are immutable and ``Database.add`` only
        admits new names, so existing bindings never change under it.
        """
        cached = self._bound_db
        if cached is not None and cached[0] is database:
            return cached[1]
        relations = [atom.bind(database) for atom in self.query.body]
        self._bound_db = (database, relations)
        return relations

    def _database_state(self, tables) -> dict:
        """Per-database memo (token, payload, shard specs).

        Keyed by the identity of the bound relations' column sets; the sets
        are pinned in the binding so their ids cannot be reused while the
        memo lives.  One binding is kept — the engine's working database.
        """
        key = tuple((id(t.column_set), t.column_set.nrows) for t in tables)
        binding = self._binding
        if binding is None or binding[0] != key:
            binding = (key, tuple(t.column_set for t in tables), {})
            self._binding = binding
        return binding[2]

    def _resolve_constraints(self, database, constraints):
        if constraints is None:
            constraints = self.constraints
        if constraints is None:
            constraints = database.extract_cardinalities()
        return constraints

    def _yannakakis_extra(self, constraints: ConstraintSet) -> dict:
        from repro.core.query_plans import _best_decomposition

        key = (constraints_fingerprint(constraints), self.backend)
        bags = self._yannakakis_bags.get(key)
        if bags is None:
            # Constraints over attributes outside the query's variables (a
            # self-join database's raw schemas) cannot inform the bag choice;
            # with nothing usable left, fall back to the first enumerated
            # decomposition (deterministic, still exact — the choice only
            # affects speed).
            universe = frozenset(self.query.variable_set)
            usable = ConstraintSet(
                [c for c in constraints if c.y <= universe]
            )
            decompositions = self._query_decompositions()
            if len(usable) > 0:
                best = _best_decomposition(
                    self.planner,
                    self.query.hypergraph(),
                    usable,
                    decompositions,
                    self.backend,
                )
            else:
                best = decompositions[0]
            bags = tuple(best.bags)
            self._yannakakis_bags[key] = bags
        return {"bags": bags, "boolean": self.query.is_boolean}

    def _panda_extra(self, constraints: ConstraintSet) -> dict:
        """The per-shard PANDA payload: precomputed plans + dictionaries.

        The parent planner builds one :class:`~repro.planner.PandaPlan` per
        selector-image isomorphism class — pure LP/proof-sequence work, fully
        data-independent — and the bundle ships to the pool, where each
        worker seeds its planner once per fingerprint.
        """
        from repro.decompositions.selectors import selector_images
        from repro.relational.columns import Dictionary

        key = (constraints_fingerprint(constraints), self.backend)
        bundle = self._panda_bundles.get(key)
        if bundle is None:
            universe = tuple(sorted(self.query.variable_set))
            entries = []
            for image in selector_images(self._query_decompositions()):
                targets = tuple(sorted(image, key=lambda b: tuple(sorted(b))))
                plan = self.planner.plan_rule(
                    universe, targets, constraints, backend=self.backend
                )
                entries.append(
                    (universe, targets, constraints, self.backend, plan)
                )
            blob = pickle.dumps(entries)
            bundle = (blob, hashlib.sha1(blob).hexdigest())
            self._panda_bundles[key] = bundle
        blob, token = bundle
        universe = tuple(sorted(self.query.variable_set))
        # Dictionary value lists are append-only; rebuild the shipped copies
        # only when some dictionary actually grew.
        lengths = tuple(len(Dictionary.of(v)) for v in universe)
        cached_dicts = self._dict_values
        if cached_dicts is None or cached_dicts[0] != (universe, lengths):
            cached_dicts = (
                (universe, lengths),
                {v: list(Dictionary.of(v).values) for v in universe},
            )
            self._dict_values = cached_dicts
        return {
            "atom_vars": tuple(atom.variables for atom in self.query.body),
            "boolean": self.query.is_boolean,
            "query_name": self.query.name,
            "constraints": constraints,
            "backend": self.backend,
            "plans_blob": blob,
            "plans_token": token,
            "dict_values": cached_dicts[1],
            "parent_pid": os.getpid(),
        }

    # -- execution --------------------------------------------------------------

    def execute(
        self,
        database,
        driver: str = "generic",
        constraints: ConstraintSet | None = None,
    ):
        """Evaluate the query on one database across the worker pool.

        Returns the same :class:`~repro.core.query_plans.PlanResult` shape as
        the serial drivers; ``result.relation`` carries the same sorted code
        rows serial execution produces.
        """
        from repro.core.query_plans import PlanResult
        from repro.relational.backend import current_backend, scoped_backend

        check_driver(driver)
        query = self.query
        if not (query.is_full or query.is_boolean):
            raise QueryError(
                "the parallel engine covers full and Boolean conjunctive "
                "queries; project the full result instead"
            )
        constraints = self._resolve_constraints(database, constraints)
        order = tuple(sorted(query.variable_set))
        relations = self._bind_atoms(database)
        tables = _order_tables(relations, order)
        shard_target = (
            self.workers * self.OVERSHARD if self.workers > 1 else 1
        )
        state = self._database_state(tables)
        specs = state.get(("specs", shard_target))
        if specs is None:
            specs = plan_shards(tables, order, shard_target)
            state[("specs", shard_target)] = specs
        counter = current_counter()
        counter.partitions += 1

        if driver in ("generic", "leapfrog"):
            extra: dict = {"boolean": query.is_boolean}
        elif driver == "yannakakis":
            extra = self._yannakakis_extra(constraints)
        else:
            extra = self._panda_extra(constraints)

        with scoped_backend(self.execution_backend):
            # Resolve once in the parent and ship the concrete name, so an
            # engine-level override (or an enclosing ``scoped_backend``)
            # reaches the forked workers, whose environment only carries
            # ``REPRO_BACKEND``.
            extra["execution_backend"] = current_backend()
            if self.workers <= 1 and driver in ("generic", "leapfrog"):
                columns, boolean = self._execute_inline(
                    driver, relations, tables, order, specs
                )
            else:
                columns, boolean = self._execute_pooled(
                    driver, relations, tables, order, specs, extra
                )

        if query.is_boolean:
            relation = Relation(query.name, (), [()] if boolean else [])
            return PlanResult(relation=relation, boolean=boolean)
        relation = Relation.from_columns(query.name, order, columns)
        return PlanResult(relation=relation, boolean=not relation.is_empty())

    def _execute_inline(
        self, driver, relations, tables, order, specs: list[ShardSpec]
    ):
        """Single-worker path: zero-copy root-range shards, no pool, no IPC."""
        from repro.relational.leapfrog import leapfrog_triejoin
        from repro.relational.wcoj import generic_join

        join = generic_join if driver == "generic" else leapfrog_triejoin
        boolean = False
        shards = []
        for spec in specs:
            root_ranges = [
                slice_bounds(table, order, spec) for table in tables
            ]
            out = join(relations, order, root_ranges=root_ranges)
            boolean = boolean or not out.is_empty()
            shards.append(out.column_set(order).columns)
        return _merge_shard_columns(shards, len(order)), boolean

    def _execute_pooled(
        self, driver, relations, tables, order, specs: list[ShardSpec], extra: dict
    ):
        """Bind the database to the pool, fan row-range tasks out, merge.

        Shipping is content-addressed **per relation**
        (:meth:`~repro.relational.columns.ColumnSet.content_digest`): on the
        first bind the full payload seeds every worker, and a later rebind
        reships only the relations whose digests changed — an unchanged
        relation never travels again (see :class:`~repro.parallel.pool.
        WorkerPool`).  Shard tasks then carry only per-relation ``(lo, hi)``
        row ranges, executed over the resident relations through the
        zero-copy root-range restriction.
        """
        state = self._database_state(tables)
        tokens = state.get("tokens")
        if tokens is None:
            # Keys qualify the atom position so self-joins restricted to
            # different variable orders stay distinct resident entries.
            tokens = tuple(
                (
                    f"{relation.name}#{index}",
                    table.column_set.content_digest(),
                )
                for index, (relation, table) in enumerate(zip(relations, tables))
            )
            state["tokens"] = tokens
        entries = [
            (key, table.attrs, relation, digest)
            for (key, digest), relation, table in zip(tokens, relations, tables)
        ]
        pool = self._worker_pool()
        pool.ensure_database(tokens, entries)
        tasks = [
            (
                tokens,
                driver,
                order,
                tuple(slice_bounds(table, order, spec) for table in tables),
                extra,
            )
            for spec in specs
        ]
        results = pool.map(run_shard_task, tasks)
        counter = current_counter()
        arity = len(order)
        boolean = False
        shards = []
        for buffer, shard_boolean, counts in results:
            boolean = boolean or shard_boolean
            counter.absorb(counts)
            shards.append(unpack_column_arrays(buffer, arity))
        return _merge_shard_columns(shards, arity), boolean

    # -- FAQ -------------------------------------------------------------------

    def execute_faq(self, factors: Sequence, free: Iterable[str] = ()):
        """⊗-join annotated factors and ⊕-marginalize to ``free``, sharded.

        Delegates to :func:`parallel_faq_join` on this engine's pool; see
        there for the exactness contract.
        """
        return parallel_faq_join(
            factors,
            free,
            workers=self.workers,
            pool=self._worker_pool(),
        )


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
        workers * ParallelQueryEngine.OVERSHARD if workers > 1 else 1
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
