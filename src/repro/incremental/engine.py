""":class:`IncrementalQueryEngine` — maintain query results as data changes.

The :class:`repro.planner.QueryEngine`-shaped facade of the IVM subsystem:
construct it per query, ``execute(database)`` once to bind and materialize,
then ``insert``/``delete``/``refresh`` instead of re-executing.  Between
refreshes the engine holds

* one :class:`~repro.incremental.delta.PredicateStore`: a log-structured
  :class:`~repro.incremental.delta.VersionedRelation` per base relation
  *and* per distinct atom binding (coded under the atom's variables, so
  self-joins each maintain their own binding);
* the materialized join view (canonical sorted code rows over the sorted
  global variable order — the same rows every driver produces);
* any registered FAQ views (⊕⊗ over the atoms' lifted factors).

A refresh commits the pending changes as one validated
:class:`~repro.incremental.delta.SignedDelta` batch per relation, then
maintains every view by the delta rule (:mod:`repro.incremental.ivm`) —
cost scales with the batch, not the database.  Plans stay warm across
versions: the engine pins power-of-two-rounded cardinality constraints, so
the planner's canonical-signature cache keeps serving the same
:class:`~repro.planner.PandaPlan` while sizes drift within a factor of two
(the plan is data-independent; only its guards re-resolve per database),
and re-pins — rebuilding plans — only when a relation outgrows its bound.

With ``workers > 1`` the delta-rule terms fan out over the
:mod:`repro.parallel` worker pool through the runner the datalog engine
uses too (:func:`~repro.incremental.ivm.run_delta_terms`): the binding
logs' *base* relations ship once per compaction epoch (per-binding
content-digest tokens), and each term task carries only the pending
delta runs it needs — tiny, signed, version-tagged buffers the workers
merge and cache — never the whole database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.constraints import ConstraintSet
from repro.exceptions import IncrementalError, QueryError
from repro.faq.annotated import AnnotatedRelation, sum_product
from repro.faq.semiring import Semiring
from repro.incremental.delta import PredicateStore, SignedDelta, VersionedRelation
from repro.incremental.ivm import (
    delta_factor,
    maintain_faq,
    maintain_join_rows,
    signed_join_delta,
    term_variable_order,
)
from repro.planner.engine import (
    EngineBase,
    QueryEngine,
    check_driver,
    pinned_cardinalities,
)
from repro.relational.relation import Relation

__all__ = ["IncrementalQueryEngine", "MaintainedEngine", "MaintenanceStats"]


@dataclass
class MaintenanceStats:
    """Counters describing the maintenance work performed so far."""

    batches: int = 0
    join_terms: int = 0
    delta_rows: int = 0
    faq_recomputes: int = 0
    compactions: int = 0
    pooled_batches: int = 0
    replans: int = 0
    view_rows_changed: int = 0
    extras: dict = field(default_factory=dict)


class _FaqView:
    """One registered FAQ view: factors + maintained result, versioned."""

    __slots__ = ("semiring", "free", "weights", "factors", "result")

    def __init__(self, semiring, free, weights, factors, result) -> None:
        self.semiring = semiring
        self.free = free
        self.weights = weights
        self.factors = factors
        self.result = result


class MaintainedEngine(EngineBase):
    """An engine that buffers inserts/deletes and applies them on refresh.

    The store (:meth:`_require_bound`), change buffer, batch validation
    and plan-warm from-scratch runs the incremental and datalog engines
    share.  Subclasses supply
    :meth:`_check_writable` (which names take changes) and a ``stats``
    object with a ``replans`` counter.
    """

    def __init__(self, constraints, planner, workers):
        super().__init__(constraints, planner, workers)
        self._store: PredicateStore | None = None
        self._pending: dict[str, tuple[list, list]] = {}
        #: key -> [single-worker engine, its pinned constraints]; dropped
        #: on :meth:`close`, hence on every re-bind.
        self._scratch: dict = {}

    def close(self) -> None:
        """Shut down the worker pool and the from-scratch engines (idempotent)."""
        super().close()
        for engine, _ in self._scratch.values():
            engine.close()
        self._scratch = {}

    def _require_bound(self) -> PredicateStore:
        """The bound store; raises until ``execute(database)`` has bound one."""
        if self._store is None:
            raise IncrementalError(
                "engine is not bound — call execute(database) first"
            )
        return self._store

    def _check_writable(self, name: str) -> None:
        """Raise unless the engine is bound and ``name`` accepts changes."""
        raise NotImplementedError

    def insert(self, name: str, rows: Iterable[tuple]) -> None:
        """Buffer tuple inserts against relation ``name`` (applied on refresh)."""
        self._buffer(name, rows, 0)

    def delete(self, name: str, rows: Iterable[tuple]) -> None:
        """Buffer tuple deletes against relation ``name`` (applied on refresh)."""
        self._buffer(name, rows, 1)

    def _buffer(self, name: str, rows: Iterable[tuple], side: int) -> None:
        self._check_writable(name)
        entry = self._pending.setdefault(name, ([], []))
        entry[side].extend(tuple(row) for row in rows)

    @property
    def has_pending_changes(self) -> bool:
        return any(ins or dels for ins, dels in self._pending.values())

    def discard_pending(self) -> None:
        """Drop the buffered (uncommitted) changes.

        A batch that fails validation on refresh (e.g. a delete of an
        absent row) stays buffered — nothing was applied — so the caller
        can either fix it with compensating ``insert``/``delete`` calls or
        discard it wholesale here.
        """
        self._pending = {}

    def _drain_pending(self, current: Callable[[str], Relation]) -> dict[str, SignedDelta]:
        """Validate and return the pending batch as per-relation deltas.

        ``current(name)`` is the relation each change list applies to.
        Validation happens before anything mutates: a
        :class:`~repro.exceptions.DeltaError` leaves everything untouched
        with the batch still buffered.
        """
        deltas: dict[str, SignedDelta] = {}
        for name in sorted(self._pending):
            inserts, deletes = self._pending[name]
            delta = SignedDelta.from_changes(current(name), inserts, deletes)
            if not delta.is_empty:
                deltas[name] = delta
        self._pending = {}
        return deltas

    def _from_scratch(self, key, query, database, driver: str, sized_atoms):
        """Run ``query`` on ``database`` from scratch, plan-warm.

        One single-worker :class:`~repro.planner.QueryEngine` per
        ``key`` shares this engine's planner.  It plans under the explicit
        engine-level constraints when there are any, otherwise under
        :func:`~repro.planner.engine.pinned_cardinalities` of ``sized_atoms``
        — the same data-independent plans while sizes drift within a factor
        of two, a re-pin counted in ``stats.replans``.
        """
        entry = self._scratch.get(key)
        if entry is None:
            engine = QueryEngine(query, planner=self.planner, workers=1)
            entry = self._scratch[key] = [engine, None]
        engine, previous = entry
        if self.constraints is not None:
            pinned = self.constraints
        else:
            pinned = pinned_cardinalities(sized_atoms, previous)
            if previous is not None and pinned is not previous:
                self.stats.replans += 1
        entry[1] = pinned
        return engine.execute(database, driver=driver, constraints=pinned)


class IncrementalQueryEngine(MaintainedEngine):
    """Keep a query's results exact under inserts and deletes.

    Example:
        >>> engine = IncrementalQueryEngine(triangle_query())   # doctest: +SKIP
        >>> first = engine.execute(database)       # bind + materialize
        >>> engine.insert("R", [(7, 8)])
        >>> engine.delete("S", [(1, 2)])
        >>> second = engine.refresh()              # delta-sized maintenance
        >>> second.relation == dasubw_plan(...).relation   # bit-identical

    Restrictions match :class:`repro.planner.QueryEngine`: the query must
    be a full or Boolean conjunctive query (the maintained view is the full
    join over the canonical sorted variable order — exactly the rows every
    driver emits, which is what makes one maintained view serve all of
    them).
    """

    def __init__(
        self,
        query,
        constraints: ConstraintSet | None = None,
        planner=None,
        workers: int = 1,
        compact_ratio: float | None = None,
        compact_min: int | None = None,
    ) -> None:
        from repro.core.query_plans import check_query

        check_query(query)
        super().__init__(constraints, planner, workers)
        self.query = query
        self.stats = MaintenanceStats()
        self._compact_ratio = compact_ratio
        self._compact_min = compact_min
        self._order = tuple(sorted(query.variable_set))

        self._keys = tuple(PredicateStore.binding_key(atom) for atom in query.body)
        self._source = None  # the Database the engine was bound to
        self._database = None  # the current (post-batch) Database
        self._view_rows: list | None = None
        self._view_relation: Relation | None = None
        self._faq_views: dict = {}

    # -- lifecycle ---------------------------------------------------------------

    @property
    def version(self) -> int:
        """Number of committed batches since binding."""
        return self.stats.batches

    # -- binding -----------------------------------------------------------------

    def bind(self, database) -> None:
        """Adopt ``database`` as version 0 (resets any previous binding)."""
        self.close()
        store = PredicateStore(self._compact_ratio, self._compact_min)
        for atom in self.query.body:
            if atom.name not in store:
                store.adopt(database[atom.name])
            store.register(atom)
        self._store = store
        self._source = database
        self._database = database
        self._pending = {}
        self._view_rows = None
        self._view_relation = None
        self._faq_views = {}
        self.stats = MaintenanceStats()

    def database(self):
        """The current :class:`~repro.relational.database.Database` view."""
        self._require_bound()
        return self._database

    def relation(self, name: str) -> Relation:
        """The current version of one base relation."""
        return self._require_bound().relation(name)

    @property
    def relation_names(self) -> tuple[str, ...]:
        """The base relation names the query references (atom order)."""
        self._require_bound()
        return tuple(dict.fromkeys(atom.name for atom in self.query.body))

    def relation_log(self, name: str) -> VersionedRelation:
        """The name-level log of one base relation.

        The serving layer's snapshot registry pins versions on these logs
        (:meth:`VersionedRelation.pin`) from its writer thread; everything
        else should treat the log as read-only and go through
        :meth:`insert`/:meth:`delete`/:meth:`refresh`.
        """
        return self._require_bound().versioned(name)

    def _bindings(self) -> list[Relation]:
        """The current binding of every query atom, in atom order."""
        store = self._require_bound()
        return [store.binding_by_key(key).current for key in self._keys]

    def _check_writable(self, name: str) -> None:
        if name not in self._require_bound():
            raise IncrementalError(
                f"relation {name!r} is not referenced by {self.query.name}"
            )

    # -- execution ---------------------------------------------------------------

    def execute(self, database=None, driver: str = "generic"):
        """Bind (first call) or refresh; returns a ``PlanResult``.

        Passing a *different* database re-binds from scratch; passing the
        bound database (or ``None``) applies any pending changes and serves
        the maintained view.
        """
        check_driver(driver)
        if database is not None and database not in (self._source, self._database):
            self.bind(database)
        elif self._store is None:
            if database is None:
                self._require_bound()
            self.bind(database)
        return self.refresh(driver=driver)

    def refresh(self, driver: str = "generic"):
        """Apply pending changes and return the (maintained) query result.

        The first call materializes the view with ``driver``; later calls
        maintain it by the delta rule, so the driver only determines how a
        recompute-from-scratch *would* run — the maintained rows are
        bit-identical for every driver by the engine contract.
        """
        from repro.core.query_plans import PlanResult

        self._require_bound()
        self._commit()
        if self._view_rows is None:
            self._materialize(driver)
        rows = self._view_rows
        if self.query.is_boolean:
            relation = Relation(self.query.name, (), [()] if rows else [])
            return PlanResult(relation=relation, boolean=bool(rows))
        return PlanResult(
            relation=self._view_relation, boolean=bool(rows)
        )

    # -- FAQ views ---------------------------------------------------------------

    def faq(
        self,
        semiring: Semiring,
        free: Sequence[str] = (),
        weights: Sequence[Callable[[tuple], object] | None] | None = None,
    ) -> AnnotatedRelation:
        """The maintained FAQ result ``⊕_{bound} ⊗ᵢ lift(Rᵢ)``.

        ``weights`` (aligned with the query atoms, fixed at first call)
        lift each atom's tuples to annotations; the default is the unit
        lifting.  Invertible-⊕ semirings (counting, Fraction) maintain by
        signed folds; the rest (Boolean, min-plus, max-product) recompute
        per batch — visible in ``stats.faq_recomputes``.
        """
        self._require_bound()
        self._commit()
        free = tuple(free)
        unknown = set(free) - set(self._order)
        if unknown:
            raise QueryError(
                f"free variables {sorted(unknown)} not in the query"
            )
        key = (semiring.name, free)
        view = self._faq_views.get(key)
        if view is None:
            if weights is not None and len(weights) != len(self.query.body):
                raise QueryError(
                    f"weights must align with the {len(self.query.body)} "
                    f"query atoms"
                )
            factors = self._lift_factors(semiring, weights)
            result = sum_product(factors, free)[0]
            view = _FaqView(semiring, free, weights, factors, result)
            self._faq_views[key] = view
        elif weights is not None and (
            view.weights is None or list(weights) != list(view.weights)
        ):
            # Weights are part of the view's definition and fixed at
            # registration; silently serving the old weighting would be a
            # wrong answer, not a cache hit.
            raise QueryError(
                f"FAQ view ({semiring.name}, free={free}) is already "
                f"registered with different weights — weights are fixed at "
                f"the first faq() call"
            )
        return view.result

    def _lift_factors(self, semiring, weights):
        factors = []
        for i, relation in enumerate(self._bindings()):
            weight = weights[i] if weights else None
            factors.append(
                AnnotatedRelation.from_relation(relation, semiring, weight)
            )
        return factors

    # -- the commit path -----------------------------------------------------------

    def _commit(self) -> bool:
        """Validate, apply, and maintain one batch; True if data changed.

        Validation happens before anything mutates: a
        :class:`~repro.exceptions.DeltaError` leaves every relation and
        view untouched with the batch still buffered (fix it or
        :meth:`discard_pending`).
        """
        store = self._require_bound()
        deltas = self._drain_pending(store.relation)
        if not deltas:
            return False

        # Compaction waits until maintenance is done so the pooled path
        # can still replay this batch's runs from the base.
        old, binding_deltas = store.apply(deltas)
        self._database = self._database.updated(
            [store.relation(name) for name in deltas]
        )

        self.stats.batches += 1
        self.stats.delta_rows += sum(len(d) for d in deltas.values())

        if self._view_rows is not None:
            pool = self._worker_pool if self.workers > 1 else None
            net, executed, pooled = signed_join_delta(
                self._order, self._keys, store, old, binding_deltas, pool
            )
            self.stats.join_terms += executed
            self.stats.pooled_batches += pooled
            rows = maintain_join_rows(self._view_rows, net)
            self.stats.view_rows_changed += len(net)
            self._install_view(rows)

        atom_deltas = [binding_deltas.get(key) for key in self._keys]
        for view in self._faq_views.values():
            self._maintain_faq_view(view, atom_deltas)

        self.stats.compactions += store.compact()
        return True

    def _install_view(self, rows: list) -> None:
        self._view_rows = rows
        if not self.query.is_boolean:
            self._view_relation = Relation.from_codes(
                self.query.name, self._order, rows,
                presorted=True, distinct=True,
            )

    def _maintain_faq_view(self, view, atom_deltas) -> None:
        semiring = view.semiring
        if semiring.invertible:
            delta_factors = []
            new_factors = []
            for i, (factor, delta) in enumerate(zip(view.factors, atom_deltas)):
                if delta is None or delta.is_empty:
                    delta_factors.append(None)
                    new_factors.append(factor)
                    continue
                weight = view.weights[i] if view.weights else None
                dF = delta_factor(delta, semiring, weight, name=f"d{factor.name}")
                delta_factors.append(dF)
                # lift(new) == lift(old) ⊕ dF: the weight function only runs
                # on delta rows, never on the unchanged bulk.
                new_factors.append(factor.combine(dF, name=factor.name))
            maintained = maintain_faq(
                view.result, view.factors, new_factors, delta_factors, view.free
            )
            view.factors = new_factors
            view.result = maintained
        else:
            view.factors = self._lift_factors(semiring, view.weights)
            view.result = sum_product(view.factors, view.free)[0]
            self.stats.faq_recomputes += 1

    # -- from-scratch runs ----------------------------------------------------------

    def _run_from_scratch(self, driver: str):
        """The query on the current data, through :meth:`_from_scratch`."""
        sized = [
            (atom, len(relation))
            for atom, relation in zip(self.query.body, self._bindings())
        ]
        return self._from_scratch(None, self.query, self._database, driver, sized)

    def _materialize(self, driver: str) -> None:
        """First materialization of the join view, with ``driver``."""
        if self.query.is_boolean:
            # Boolean drivers don't return rows; maintain the full join.
            from repro.relational.wcoj import generic_join

            joined = generic_join(self._bindings(), self._order)
            self._install_view(joined.code_rows)
        else:
            result = self._run_from_scratch(driver)
            self._view_relation = result.relation
            self._view_rows = result.relation.code_rows
        self._prewarm_term_orders()

    def _prewarm_term_orders(self) -> None:
        """Sort each binding under every delta-first term order, once.

        The delta-rule terms resolve the changed atom's variables first
        (:func:`term_variable_order`), which needs the *other* relations
        sorted under permuted orders.  Sorting here — at materialization,
        part of the one-time cost — means every later batch only pays the
        delta-sized merges that carry these orders forward
        (:func:`~repro.incremental.delta.advance_relation`), keeping
        steady-state maintenance free of O(N log N) work.
        """
        bindings = self._bindings()
        for i, atom in enumerate(self.query.body):
            t_order = term_variable_order(self._order, atom.variables)
            for j, relation in enumerate(bindings):
                if j == i:
                    continue
                attrs = tuple(v for v in t_order if v in relation.attributes)
                # Force the columns too: advance_relation only splices
                # columns that exist, and an order used exclusively on the
                # "old" side of the delta rule would otherwise re-transpose
                # from scratch every batch.
                relation.column_set(attrs).columns

    def recompute(self, driver: str = "generic"):
        """A from-scratch run on the current data (oracle / fallback path).

        Shares the engine's planner and pinned constraints, so repeated
        recomputes stay plan-warm; used by tests to pin the bit-identity
        contract and by callers that want to double-check a maintained view.
        """
        self._require_bound()
        self._commit()
        return self._run_from_scratch(driver)
