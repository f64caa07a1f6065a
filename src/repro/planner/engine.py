"""The planner: build PANDA plans once, cache them, execute them many times.

A :class:`PandaPlan` is what a PANDA invocation reads that does *not*
depend on the data: OBJ (the bound's value), the Shannon-flow inequality,
the Theorem 5.9 proof sequence with the per-step witness snapshots Case 4b
restarts from, and the degree constraints supporting each positive δ
coordinate.  The bound LP's solution only serves to build these and is not
kept.  Profiling shows this pipeline is ~50–80 % of a ``dasubw_plan`` run —
and it is identical across databases and across variable renamings of the
instance.

:class:`Planner` is the policy object threaded through
:mod:`repro.core.panda` and all of the :mod:`repro.core.query_plans` drivers:
it canonicalizes each planning request (:mod:`repro.planner.signature`),
serves cached plans re-keyed into the instance's variable names
(:mod:`repro.planner.cache`), and routes every bound query of a driver
through one shared :class:`~repro.planner.batch.BatchedBoundSolver` per
``(universe, constraints)``.

:class:`QueryEngine` is the user-facing facade: construct it once for a
query, call :meth:`QueryEngine.execute` per database with any name of the
driver table; all planning work is reused across executions (and across
isomorphic sub-instances within one), and ``workers=N`` shards the same
drivers over a process pool.  :class:`EngineBase`, :func:`check_driver`
and :func:`pinned_cardinalities` are what it shares with the incremental,
serving and datalog engines.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.core.constraints import ConstraintSet, DegreeConstraint
from repro.exceptions import PandaError, QueryError
from repro.flows.inequality import FlowInequality, Witness, flow_from_bound
from repro.flows.proof_sequence import ProofStep, construct_proof_sequence
from repro.planner.batch import BatchedBoundSolver
from repro.planner.cache import PlanCache, PlanCacheStats
from repro.planner.signature import (
    rename_degree_constraint,
    rename_flow_inequality,
    rename_set,
    rename_step,
    rename_witness,
    rule_signature,
)

__all__ = [
    "EngineBase",
    "PandaPlan",
    "Planner",
    "QueryEngine",
    "build_panda_plan",
    "check_driver",
    "pinned_cardinalities",
    "rename_plan",
]

_ZERO = Fraction(0)

Pair = tuple[frozenset, frozenset]


@dataclass(frozen=True)
class PandaPlan:
    """The data-independent part of one PANDA invocation.

    Attributes:
        universe: the rule's variables, sorted.
        targets: the rule's target sets, in LP order.
        log_value: OBJ, the bound in log2 units; PANDA's budget is
            ``2^log_value``.
        ineq: the Shannon-flow inequality ``(λ, δ)`` of the bound's dual;
            None when the bound is zero (PANDA then returns the Lemma 4.1
            scan model and no proof sequence exists).
        steps: the proof sequence as ``(weight, step, witness snapshot)``
            triples — the snapshot is the evolved (σ, μ) Case 4b needs.
        supports: the degree constraint supporting each positive δ pair
            (§6.1 invariant 1); guards are resolved per database at
            execution time.
        constraints_key: fingerprint of the degree constraints the plan was
            built under (sorted ``(x_key, y_key, bound)`` triples) —
            ``panda()`` rejects a plan whose constraints do not match the
            call's, since a stale plan carries a wrong budget.
    """

    universe: tuple[str, ...]
    targets: tuple[frozenset, ...]
    log_value: Fraction
    ineq: FlowInequality | None
    steps: tuple[tuple[Fraction, ProofStep, Witness], ...]
    supports: Mapping[Pair, DegreeConstraint]
    constraints_key: tuple = ()


def constraints_fingerprint(constraints: ConstraintSet) -> tuple:
    """The order-insensitive identity of a degree-constraint set."""
    return tuple(sorted((c.x_key, c.y_key, c.bound) for c in constraints))


def build_panda_plan(
    universe: Sequence[str],
    targets: Sequence[frozenset],
    constraints: ConstraintSet,
    solver: BatchedBoundSolver | None = None,
) -> PandaPlan:
    """Solve the bound LP and construct the proof sequence — no caching.

    This is the single code path for plan construction; the
    :class:`Planner` wraps it with canonicalization and the plan cache, and
    a bare ``panda()`` call (no planner) uses it directly.

    Raises:
        PandaError: if a positive δ pair is supported only by a constraint
            with no integer origin (PANDA needs guarded degree constraints).
    """
    universe = tuple(universe)
    if solver is None:
        solver = BatchedBoundSolver(universe, constraints)
    fingerprint = constraints_fingerprint(constraints)
    bound = solver.solve(list(targets))
    if bound.log_value <= _ZERO:
        return PandaPlan(
            universe=universe,
            targets=tuple(bound.targets),
            log_value=bound.log_value,
            ineq=None,
            steps=(),
            supports={},
            constraints_key=fingerprint,
        )
    ineq, witness, log_rows = flow_from_bound(bound)
    supports: dict[Pair, DegreeConstraint] = {}
    for pair, row in log_rows.items():
        if row.origin is None:
            raise PandaError(
                f"constraint {row} has no integer origin; PANDA needs "
                "guarded degree constraints"
            )
        supports[pair] = row.origin
    witness_log: list[Witness] = []
    sequence = construct_proof_sequence(ineq, witness, witness_log=witness_log)
    steps = tuple(
        (ws.weight, ws.step, snapshot)
        for ws, snapshot in zip(sequence, witness_log)
    )
    return PandaPlan(
        universe=universe,
        targets=tuple(bound.targets),
        log_value=bound.log_value,
        ineq=ineq,
        steps=steps,
        supports=supports,
        constraints_key=fingerprint,
    )


def rename_plan(plan: PandaPlan, mapping: Mapping[str, str]) -> PandaPlan:
    """Translate every component of a plan through a variable bijection."""
    if all(old == new for old, new in mapping.items()):
        return plan
    return PandaPlan(
        universe=tuple(sorted(mapping[v] for v in plan.universe)),
        targets=tuple(rename_set(t, mapping) for t in plan.targets),
        log_value=plan.log_value,
        ineq=None if plan.ineq is None else rename_flow_inequality(plan.ineq, mapping),
        steps=tuple(
            (weight, rename_step(step, mapping), rename_witness(snapshot, mapping))
            for weight, step, snapshot in plan.steps
        ),
        supports={
            (rename_set(x, mapping), rename_set(y, mapping)): rename_degree_constraint(
                c, mapping
            )
            for (x, y), c in plan.supports.items()
        },
        constraints_key=tuple(
            sorted(
                (
                    tuple(sorted(mapping[v] for v in x_key)),
                    tuple(sorted(mapping[v] for v in y_key)),
                    bound,
                )
                for x_key, y_key, bound in plan.constraints_key
            )
        ),
    )


class Planner:
    """Plan provider with canonical-signature caching and batched bounds."""

    #: Retained bound solvers (each holds a full polymatroid program with its
    #: cloned-base LP rows): least-recently-used beyond this many are dropped,
    #: so a long-lived planner fed a stream of changing constraint sets stays
    #: bounded like its plan cache.
    MAX_SOLVERS = 32

    def __init__(self, cache: PlanCache | None = None) -> None:
        self.cache = cache if cache is not None else PlanCache()
        self._solvers: OrderedDict[tuple, BatchedBoundSolver] = OrderedDict()

    @property
    def stats(self) -> PlanCacheStats:
        return self.cache.stats

    def bound_solver(
        self,
        universe: Sequence[str],
        constraints: ConstraintSet,
        function_class: str = "polymatroid",
    ) -> BatchedBoundSolver:
        """The shared bound solver for this (universe, DC, class) triple."""
        key = (tuple(universe), constraints, function_class)
        solver = self._solvers.get(key)
        if solver is None:
            solver = BatchedBoundSolver(universe, constraints, function_class)
            self._solvers[key] = solver
            while len(self._solvers) > self.MAX_SOLVERS:
                self._solvers.popitem(last=False)
        else:
            self._solvers.move_to_end(key)
        return solver

    def plan_rule(
        self,
        universe: Sequence[str],
        targets: Iterable[frozenset],
        constraints: ConstraintSet,
    ) -> PandaPlan:
        """A plan for the disjunctive rule, from cache when possible.

        Cache keys are canonical signatures, so a hit may come from an
        isomorphic instance with different variable names; the stored plan is
        then re-keyed through the composed renaming before it is returned.
        """
        universe = tuple(universe)
        targets = tuple(targets)
        exact_key = self.cache.instance_key(universe, targets, constraints)
        instance_plan = self.cache.lookup_instance(exact_key)
        if instance_plan is not None:
            return instance_plan
        sig_key, canonical_to_instance = rule_signature(universe, targets, constraints)
        entry = self.cache.get(sig_key)
        if entry is not None:
            mapping = {
                stored: instance
                for stored, instance in zip(
                    entry.canonical_to_instance, canonical_to_instance
                )
            }
            plan = rename_plan(entry.plan, mapping)
        else:
            plan = build_panda_plan(
                universe,
                list(targets),
                constraints,
                solver=self.bound_solver(universe, constraints),
            )
            self.cache.put(sig_key, plan, canonical_to_instance)
        self.cache.store_instance(exact_key, plan, sig_key)
        return plan


def check_driver(driver: str):
    """The driver-table entry named ``driver``, or a typed error.

    Every engine calls this before it touches the database, the planner or
    a running broker; the message lists the table
    (:data:`repro.core.query_plans.DRIVERS`).
    """
    from repro.core.query_plans import DRIVERS

    entry = DRIVERS.get(driver)
    if entry is None:
        raise QueryError(
            f"unknown driver {driver!r}; pick from {'/'.join(DRIVERS)}"
        )
    return entry


def pinned_cardinalities(
    sized_atoms: Iterable[tuple], previous: ConstraintSet | None = None
) -> ConstraintSet:
    """Power-of-two-rounded cardinalities: stable plan keys under churn.

    ``sized_atoms`` pairs each body atom with the current size of its
    binding.  While no binding outgrows its bound in ``previous`` the
    *same* ``previous`` object is returned, so the planner's cache keeps
    serving the same data-independent plans across version bumps and only
    the guards re-resolve.  Otherwise every cardinality is re-rounded up to
    the next power of two — callers count that as a replan.  Bindings over
    one variable set (self-joins) share one constraint, the tightest:
    :class:`ConstraintSet` keeps the smallest bound per variable set.
    """
    sized = [(tuple(sorted(atom.variables)), size) for atom, size in sized_atoms]
    if previous is not None:
        bounds = {c.y_key: c.bound for c in previous}
        if all(size <= bounds[y] for y, size in sized):
            return previous
    return ConstraintSet(
        DegreeConstraint.make((), y, 1 << max(0, size - 1).bit_length())
        for y, size in sized
    )


class EngineBase:
    """What the engine facades share: fields and lifecycle.

    Plans always come from the exact LP (a float may propose a basis, only
    the exact certificate decides), so no engine takes an LP choice.  Nor
    does any engine take an execution backend: engines run on the caller's
    :func:`~repro.relational.backend.scoped_backend` (else
    ``REPRO_BACKEND`` / auto-detection), and pooled engines ship the
    resolved name so workers execute under the same backend.
    """

    def __init__(
        self,
        constraints: ConstraintSet | None,
        planner: Planner | None,
        workers: int = 1,
    ) -> None:
        self.constraints = constraints
        self.planner = planner if planner is not None else Planner()
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool = None

    @property
    def cache_stats(self) -> PlanCacheStats:
        return self.planner.stats

    def _worker_pool(self):
        if self._pool is None:
            from repro.parallel.pool import WorkerPool

            self._pool = WorkerPool(self.workers)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class QueryEngine(EngineBase):
    """Plan a query once; execute it against many databases, on N workers.

    ``execute(database, driver)`` takes every name of the driver table
    (:data:`repro.core.query_plans.DRIVERS`).  With ``workers=1`` the
    named serial driver runs in process.  With ``workers > 1`` the engine
    range-partitions the query on its first global-order attribute
    (:mod:`repro.parallel.partition`), fans the shards out over a
    persistent worker pool (:mod:`repro.parallel.pool`), where each shard
    runs the same driver-table entry, and concatenates the sorted shard
    outputs.  Either way the answer is the query's sorted code rows over
    its sorted variables — bit-identical across drivers and worker counts.

    Example:
        >>> engine = QueryEngine(cycle_query(4))        # doctest: +SKIP
        >>> first = engine.execute(database_monday)     # cold: plans + runs
        >>> second = engine.execute(database_tuesday)   # warm: plans cached
        >>> engine.cache_stats.hit_rate                 # doctest: +SKIP
        >>> with QueryEngine(cycle_query(4), workers=4) as pooled:  # doctest: +SKIP
        ...     assert pooled.execute(database_monday).relation == first.relation
    """

    #: Shards planned per worker.  Finer shards let the pool balance residual
    #: skew (the slowest shard bounds the wall-clock) at near-zero extra cost:
    #: whole-relation payloads are cached per worker, and slicing is C-speed.
    OVERSHARD = 2

    def __init__(
        self,
        query,
        constraints: ConstraintSet | None = None,
        planner: Planner | None = None,
        workers: int = 1,
    ) -> None:
        super().__init__(constraints, planner, workers)
        self.query = query
        #: (driver, constraints fingerprint) -> ``(joined, bundle)``.
        self._choices: dict = {}
        #: The query's atoms bound against the current database (pinned),
        #: so atoms whose variables differ from the stored schemas don't
        #: re-relabel — and hence re-pack/re-digest — on every execute.
        self._bound_db: tuple | None = None
        #: The current database's shard memo: ``(column-set identity key,
        #: pinned column sets, {"specs"/"tokens": ...})``.  Pinning the
        #: column sets keeps their ids stable while the memo lives.
        self._binding: tuple | None = None
        #: Shipped dictionary value lists, rebuilt only when a dictionary
        #: grows (``((universe, lengths), {attr: values})``).
        self._dict_values: tuple | None = None

    @property
    def shipping_stats(self) -> dict:
        """The pool's cumulative wire cost (column bytes vs file refs).

        Zeros before the first pooled execute; file-backed relations keep
        ``column_bytes`` at zero across binds and rebinds.
        """
        if self._pool is None:
            return {"column_bytes": 0, "file_refs": 0}
        return self._pool.shipping_stats

    def execute(
        self,
        database,
        driver: str = "dasubw",
        constraints: ConstraintSet | None = None,
    ):
        """Evaluate the query on one database with the named driver.

        Constraint resolution: an explicit ``constraints`` argument wins,
        then the engine-level constraints, then the cardinalities of the
        query's atom bindings
        (:func:`~repro.datalog.atoms.binding_cardinalities`).  Plans are
        cached across calls whenever the resolved constraints (and hence the
        bound LPs) coincide.
        """
        from repro.core.query_plans import check_query
        from repro.datalog.atoms import binding_cardinalities
        from repro.relational.relation import Relation

        entry = check_driver(driver)
        query = self.query
        check_query(query)
        if constraints is None:
            constraints = self.constraints
        if constraints is None:
            constraints = binding_cardinalities(query.body, database)
        if self.workers > 1:
            return self._execute_sharded(entry, database, constraints)
        result = entry.run(
            query,
            self._bind_atoms(database),
            constraints=constraints,
            decompositions=self._choice(entry, constraints)[0],
            planner=self.planner,
        )
        order = tuple(sorted(query.variable_set))
        if not query.is_boolean and result.relation.schema != order:
            result.relation = Relation.from_column_set(
                query.name, result.relation.column_set(order)
            )
        return result

    def _choice(self, entry, constraints: ConstraintSet) -> tuple:
        """``(joined, bundle)``: a plan entry's choice under ``constraints``
        (memoized per constraint set), ``(None, None)`` for a join.  A pooled
        engine's bundle, which its shards seed from, also holds the plan of
        every rule of a PANDA bag step.
        """
        if entry.rules is None:
            return None, None
        key = (entry.name, constraints_fingerprint(constraints))
        choice = self._choices.get(key)
        if choice is None:
            rules, joined = entry.rules(self.query, constraints, None, self.planner)
            bundle = None
            if self.workers > 1:
                universe = tuple(sorted(self.query.variable_set))
                plans = []
                if entry.runs_panda:
                    for targets in rules:
                        plan = self.planner.plan_rule(universe, targets, constraints)
                        plans.append((universe, targets, constraints, plan))
                blob = pickle.dumps((joined, plans))
                bundle = (blob, hashlib.sha1(blob).hexdigest())
            choice = self._choices[key] = (joined, bundle)
        return choice

    def _bind_atoms(self, database) -> list:
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
        """The memo of the database behind ``tables`` (one kept at a time)."""
        key = tuple((id(t.column_set), t.column_set.nrows) for t in tables)
        binding = self._binding
        if binding is None or binding[0] != key:
            binding = (key, tuple(t.column_set for t in tables), {})
            self._binding = binding
        return binding[2]

    # -- sharded execution ---------------------------------------------------------

    def _shard_plans(self, entry, constraints: ConstraintSet) -> dict:
        """What a plan driver's shards need besides their slices: the
        constraints and :meth:`_choice`'s bundle; PANDA orders heavy keys by
        decoded value, so its shards also get the dictionaries."""
        from repro.relational.columns import Dictionary

        blob, token = self._choice(entry, constraints)[1]
        extra = {"constraints": constraints, "plans_blob": blob, "plans_token": token}
        if entry.runs_panda:
            # Dictionary value lists are append-only; rebuild the shipped
            # copies only when some dictionary actually grew.
            universe = tuple(sorted(self.query.variable_set))
            lengths = tuple(len(Dictionary.of(v)) for v in universe)
            cached = self._dict_values
            if cached is None or cached[0] != (universe, lengths):
                cached = (
                    (universe, lengths),
                    {v: list(Dictionary.of(v).values) for v in universe},
                )
                self._dict_values = cached
            extra["dict_values"] = cached[1]
            extra["parent_pid"] = os.getpid()
        return extra

    def _execute_sharded(self, entry, database, constraints: ConstraintSet):
        """Bind the database to the pool, fan row-range tasks out, merge.

        Shipping is content-addressed **per relation**
        (:meth:`~repro.relational.columns.ColumnSet.content_digest`): on the
        first bind the full payload seeds every worker, and a later rebind
        reships only the relations whose digests changed (see
        :class:`~repro.parallel.pool.WorkerPool`).  Shard tasks then carry
        only per-relation ``(lo, hi)`` row ranges over the resident
        relations.
        """
        from repro.core.panda import PandaResult
        from repro.core.query_plans import PlanResult
        from repro.parallel.engine import _merge_shard_columns, _order_tables
        from repro.parallel.partition import plan_shards, slice_bounds
        from repro.parallel.pool import run_shard_task, unpack_column_arrays
        from repro.relational.backend import current_backend
        from repro.relational.operators import current_counter
        from repro.relational.relation import Relation

        query = self.query
        order = tuple(sorted(query.variable_set))
        relations = self._bind_atoms(database)
        tables = _order_tables(relations, order)
        state = self._database_state(tables)
        specs = state.get("specs")
        if specs is None:
            specs = state["specs"] = plan_shards(
                tables, order, self.workers * self.OVERSHARD
            )
        tokens = state.get("tokens")
        if tokens is None:
            # Keys qualify the atom position so self-joins restricted to
            # different variable orders stay distinct resident entries.
            tokens = state["tokens"] = tuple(
                (f"{relation.name}#{index}", table.column_set.content_digest())
                for index, (relation, table) in enumerate(zip(relations, tables))
            )
        counter = current_counter()
        counter.partitions += 1
        # Resolved once in the parent and shipped as the concrete name, so
        # the caller's ``scoped_backend`` reaches the forked workers, whose
        # environment only carries ``REPRO_BACKEND``.
        extra = {"query": query, "execution_backend": current_backend()}
        if entry.join is None:
            extra.update(self._shard_plans(entry, constraints))
        pool = self._worker_pool()
        pool.ensure_database(
            tokens,
            [
                (key, table.attrs, relation, digest)
                for (key, digest), relation, table in zip(tokens, relations, tables)
            ],
        )
        tasks = [
            (
                tokens,
                entry.name,
                tuple(slice_bounds(table, order, spec) for table in tables),
                extra,
            )
            for spec in specs
        ]
        boolean = False
        shards = []
        runs = []
        for buffer, shard_boolean, counts, shard_runs in pool.map(run_shard_task, tasks):
            boolean = boolean or shard_boolean
            counter.absorb(counts)
            shards.append(unpack_column_arrays(buffer, len(order)))
            runs.extend(PandaResult(None, *run) for run in shard_runs)
        if query.is_boolean:
            relation = Relation(query.name, (), [()] if boolean else [])
        else:
            relation = Relation.from_columns(
                query.name, order, _merge_shard_columns(shards, len(order))
            )
            boolean = not relation.is_empty()
        return PlanResult(relation=relation, boolean=boolean, panda_runs=runs)

    def execute_faq(self, factors, free: Iterable[str] = ()):
        """⊗-join annotated factors and ⊕-marginalize to ``free``, sharded.

        Delegates to :func:`repro.parallel.engine.parallel_faq_join` on this
        engine's pool; see there for the exactness contract.
        """
        from repro.parallel.engine import parallel_faq_join

        return parallel_faq_join(
            factors, free, workers=self.workers, pool=self._worker_pool()
        )
