""":class:`DatalogEngine` — recursive programs as a maintained database.

The :class:`~repro.planner.QueryEngine`-shaped facade over
:mod:`repro.datalog.fixpoint`: construct it from a
:class:`~repro.datalog.fixpoint.DatalogProgram` (or program text),
``execute(database)`` once to stratify and run the semi-naïve fixpoint,
then ``insert``/``delete`` EDB facts and ``refresh()`` instead of
re-executing — only the strata affected by a batch re-run, and when the
batch is monotone for them (insert-only, no negation on a changed
predicate) they *continue* from their current fixpoint by seeding the
delta rounds with the batch itself, never touching the accumulated
derivations.

Rule bodies plan through the shared :class:`~repro.planner.Planner` with
power-of-two-pinned cardinality constraints, so each body plans exactly
once per isomorphism class and round-0 evaluations across refreshes are
cache hits (``cache_stats``).  Predicates live in the incremental engine's
:class:`~repro.incremental.delta.PredicateStore`, and each round's terms go
through its builder and runner (:mod:`repro.incremental.ivm`): with
``workers > 1`` they fan out over the :mod:`repro.parallel` worker pool —
bases ship once per compaction epoch, rounds ship only their (tiny) delta
runs.

The engine's contract is the repo-wide one: results are bit-identical to
:func:`~repro.datalog.fixpoint.evaluate_program_naive` for every driver,
execution backend, and worker count.  See ``docs/datalog.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.constraints import ConstraintSet
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.datalog.fixpoint import (
    DatalogProgram,
    FixpointStats,
    Stratum,
    run_stratum,
)
from repro.exceptions import DatalogError, IncrementalError
from repro.incremental.delta import PredicateStore, SignedDelta
from repro.incremental.engine import MaintainedEngine
from repro.planner.engine import check_driver
from repro.relational.database import Database
from repro.relational.relation import Relation

__all__ = ["DatalogEngine", "DatalogResult"]


@dataclass(frozen=True, eq=False)
class DatalogResult:
    """The fixpoint: one canonical relation per derived predicate.

    Relations carry sorted distinct code rows over the predicate's
    canonical schema — the same rows for every driver, backend, and worker
    count, and bit-identical to the naive oracle's.
    """

    relations: Mapping[str, Relation]

    def __getitem__(self, name: str) -> Relation:
        relation = self.relations.get(name)
        if relation is None:
            raise DatalogError(f"{name} is not a derived predicate")
        return relation

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.relations))

    def __iter__(self):
        return iter(self.names)


class DatalogEngine(MaintainedEngine):
    """Evaluate and incrementally maintain a stratified datalog program.

    Example:
        >>> engine = DatalogEngine(parse_program(text))    # doctest: +SKIP
        >>> result = engine.execute(database)  # stratify + fixpoint
        >>> engine.insert("edge", [("d", "e")])
        >>> result = engine.refresh()          # only affected strata re-run
        >>> result["path"]                     # canonical Relation

    The program is stratified at construction, so a non-stratifiable
    program fails before any data is touched.  ``insert``/``delete`` only
    accept base (EDB) predicates — derived content is the program's job.
    """

    def __init__(
        self,
        program: DatalogProgram | str,
        constraints: ConstraintSet | None = None,
        planner=None,
        workers: int = 1,
    ) -> None:
        if isinstance(program, str):
            from repro.datalog.parser import parse_program

            program = parse_program(program)
        self.program = program
        self.strata: tuple[Stratum, ...] = program.stratify()
        super().__init__(constraints, planner, workers)
        self.stats = FixpointStats()
        self._source = None
        self._materialized = False
        self._driver = "generic"

    # -- binding -----------------------------------------------------------------

    def bind(self, database: Database) -> None:
        """Adopt ``database`` as the EDB (resets any previous binding)."""
        self.close()
        arities: dict[str, int] = {}
        for rule in self.program.rules:
            for atom in (rule.head,) + rule.body + rule.negated:
                arities[atom.name] = atom.arity
        for name in self.program.edb_predicates:
            if name not in database:
                raise DatalogError(
                    f"base predicate {name} is missing from the database"
                )
            relation = database[name]
            if len(relation.schema) != arities[name]:
                raise DatalogError(
                    f"base predicate {name} has arity {len(relation.schema)} "
                    f"in the database but {arities[name]} in the program"
                )
        for name in self.program.idb_predicates:
            if name in database:
                raise DatalogError(
                    f"derived predicate {name} is already a database "
                    f"relation — rename one of them"
                )
        store = PredicateStore()
        for name in self.program.edb_predicates:
            store.adopt(database[name])
        for name in self.program.idb_predicates:
            store.adopt(
                Relation.from_codes(name, self.program.schema(name), [])
            )
        self._register_atoms(store)
        self._store = store
        self._source = database
        self._pending = {}
        self._materialized = False
        self.stats = FixpointStats()

    def _register_atoms(self, store: PredicateStore) -> None:
        for rule in self.program.rules:
            for atom in rule.body + rule.negated:
                store.register(atom)

    def relation(self, name: str) -> Relation:
        """The current version of any predicate (EDB or IDB)."""
        store = self._require_bound()
        if name not in store:
            raise DatalogError(f"unknown predicate {name}")
        return store.relation(name)

    def _check_writable(self, name: str) -> None:
        self._require_bound()
        if name not in self.program.edb_predicates:
            raise IncrementalError(
                f"{name!r} is not a base (EDB) predicate — derived facts "
                f"are the program's job"
            )

    # -- execution ---------------------------------------------------------------

    def execute(
        self, database: Database | None = None, driver: str = "generic"
    ) -> DatalogResult:
        """Bind (first call) or refresh; returns a :class:`DatalogResult`.

        Passing a *different* database re-binds from scratch; passing the
        bound database (or ``None``) applies any pending EDB changes
        through the affected strata and serves the maintained fixpoint.
        ``driver`` selects how round-0 rule bodies evaluate; delta rounds
        are driver-independent and the result is bit-identical regardless.
        """
        check_driver(driver)
        if database is not None and database is not self._source:
            self.bind(database)
        self._require_bound()
        self._driver = driver
        if not self._materialized:
            for stratum in self.strata:
                self._run_stratum(stratum)
            self._materialized = True
        else:
            self._commit()
        return self._result()

    def refresh(self, driver: str = "generic") -> DatalogResult:
        """Apply pending EDB changes and return the maintained fixpoint."""
        return self.execute(None, driver)

    def recompute(self, driver: str = "generic") -> DatalogResult:
        """A from-scratch fixpoint on the current data (fallback/oracle path).

        Applies any pending changes first, resets every derived predicate,
        and re-runs all strata.  Shares the planner and pinned constraints,
        so repeated recomputes stay plan-warm; tests use this to pin the
        continuation path's bit-identity.
        """
        check_driver(driver)
        store = self._require_bound()
        self._driver = driver
        deltas = self._drain_pending(store.relation)
        store.apply(deltas)
        self._reset_predicates(self.program.idb_predicates)
        for stratum in self.strata:
            self._run_stratum(stratum)
        self.stats.compactions += store.compact(sorted(deltas))
        self._materialized = True
        self.stats.recomputes += 1
        return self._result()

    def annotated(self, name: str, semiring, weight=None):
        """The fixpoint of one predicate lifted into ``semiring``.

        Set semantics throughout: each derived tuple is annotated once
        (via ``weight``, default the semiring's unit lifting), not once
        per derivation — derivation counting diverges on cyclic data.
        Lifted results inherit the bit-identity contract because the
        underlying relation does.
        """
        from repro.faq.annotated import AnnotatedRelation

        store = self._require_bound()
        if name not in self.program.idb_predicates:
            raise DatalogError(f"{name} is not a derived predicate")
        if not self._materialized:
            raise IncrementalError(
                "no fixpoint yet — call execute(database) first"
            )
        return AnnotatedRelation.from_relation(
            store.relation(name), semiring, weight
        )

    def _result(self) -> DatalogResult:
        store = self._require_bound()
        return DatalogResult(
            {
                name: store.relation(name)
                for name in self.program.idb_predicates
            }
        )

    # -- the fixpoint paths ----------------------------------------------------------

    def _run_stratum(self, stratum: Stratum, **seeding) -> dict[str, SignedDelta]:
        """One stratum to fixpoint over the store, planner path and executor."""
        return run_stratum(
            stratum, self.program, self._require_bound(), self.stats,
            evaluate_rule=self._evaluate_rule,
            pool=self._worker_pool if self.workers > 1 else None,
            **seeding,
        )

    def _commit(self) -> bool:
        """Apply one EDB batch through the affected strata; True if changed."""
        store = self._require_bound()
        deltas = self._drain_pending(store.relation)
        if not deltas:
            return False
        self.stats.batches += 1
        affected = self._affected_strata(frozenset(deltas))
        insert_only = all(delta.insert_only for delta in deltas.values())
        changed = set(deltas)
        for stratum in affected:
            changed.update(stratum.predicates)
        negation_hit = any(
            atom.name in changed
            for stratum in affected
            for rule in stratum.rules
            for atom in rule.negated
        )
        if insert_only and not negation_hit:
            # Monotone for every affected stratum: the current fixpoints
            # are valid under-approximations, so the batch seeds their
            # delta rounds directly — no derived tuple is recomputed.
            self._continue_strata(deltas, affected)
            self.stats.continuations += 1
        else:
            # Deletes (or negation over a changed predicate) can retract
            # derived tuples; affected strata reset and re-run.  The
            # affected set is downward-closed, so everything else keeps
            # its fixpoint untouched.
            self._recompute_strata(deltas, affected)
            self.stats.recomputes += 1
        self.stats.compactions += store.compact(sorted(deltas))
        return True

    def _affected_strata(self, changed: frozenset) -> list[Stratum]:
        """The strata reading a changed predicate, downward-closed, in order."""
        affected = []
        dirty = set(changed)
        for stratum in self.strata:
            if any(
                name in dirty
                for rule in stratum.rules
                for name in rule.body_predicates
            ):
                affected.append(stratum)
                dirty.update(stratum.predicates)
        return affected

    def _continue_strata(
        self, deltas: dict[str, SignedDelta], affected: list[Stratum]
    ) -> None:
        store = self._require_bound()
        # Announcements: changed predicate -> (net insert delta, the
        # pre-change binding relations).  Downstream strata consume them as
        # seed rounds; snapshots stay valid because a predicate is
        # quiescent between its announcement and every consumption.
        old, _ = store.apply(deltas)
        announced: dict[str, tuple[SignedDelta, dict]] = {
            name: (
                deltas[name],
                {key: old[key][0] for key in store.binding_keys(name)},
            )
            for name in sorted(deltas)
        }
        for stratum in affected:
            referenced = {
                name
                for rule in stratum.rules
                for name in rule.body_predicates
            }
            seeds: dict[str, SignedDelta] = {}
            seed_old: dict[tuple, Relation] = {}
            for name in sorted(announced):
                if name in referenced:
                    delta, snapshot = announced[name]
                    seeds[name] = delta
                    seed_old.update(snapshot)
            if not seeds:
                continue
            pre: dict[str, dict] = {
                name: {
                    key: store.binding_by_key(key).current
                    for key in store.binding_keys(name)
                }
                for name in stratum.predicates
            }
            fresh = self._run_stratum(stratum, seeds=seeds, seed_old=seed_old)
            for name in sorted(fresh):
                announced[name] = (fresh[name], pre[name])

    def _recompute_strata(
        self, deltas: dict[str, SignedDelta], affected: list[Stratum]
    ) -> None:
        store = self._require_bound()
        store.apply(deltas)
        reset = sorted(
            {name for stratum in affected for name in stratum.predicates}
        )
        self._reset_predicates(reset)
        for stratum in affected:
            self._run_stratum(stratum)

    def _reset_predicates(self, names: Sequence[str]) -> None:
        store = self._require_bound()
        for name in names:
            store.adopt(
                Relation.from_codes(name, self.program.schema(name), [])
            )
        # adopt() drops the name's binding logs; re-register every atom so
        # the delta rounds find their bindings (a no-op for live ones).
        self._register_atoms(store)

    # -- round-0 rule evaluation (planner path) ----------------------------------------

    def _evaluate_rule(self, state) -> Relation:
        """One rule's full positive body join on the current data.

        Empty inputs shortcut to the empty join — a recursive rule whose
        stratum predicate is still empty at round 0 never reaches the
        planner, so plans are built only for joins that can produce rows.
        A positive nullary atom is a Boolean guard: empty, it empties the
        rule; non-empty, it drops out of the planned body.
        """
        store = self._require_bound()
        rule = state.rule
        current: dict[str, Relation] = {}
        for atom in rule.body:
            current.setdefault(atom.name, store.relation(atom.name))
        if any(relation.is_empty() for relation in current.values()):
            return Relation.from_codes(rule.head.name, state.order, [])
        body = tuple(atom for atom in rule.body if atom.variables)
        if not body:
            return Relation.from_codes(rule.head.name, state.order, [()])
        # One scratch engine per rule, planned under its bindings' pinned
        # cardinalities: round-0 evaluations across refreshes are planner
        # cache hits instead of fresh plans.
        relations = {atom.name: current[atom.name] for atom in body}
        result = self._from_scratch(
            rule,
            ConjunctiveQuery.full(body, name=rule.head.name),
            Database(tuple(relations.values())),
            self._driver,
            [(atom, len(store.binding(atom).current)) for atom in body],
        )
        return result.relation
