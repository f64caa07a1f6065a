"""Recursive Datalog: stratification + semi-naïve fixpoint on the IVM kernels.

A :class:`DatalogProgram` is a set of rules ``head :- body`` (single-atom
heads, optionally negated body atoms).  Evaluation proceeds in two layers,
both documented in ``docs/datalog.md``:

* **Stratification** (:meth:`DatalogProgram.stratify`): the predicate
  dependency graph is condensed into strongly connected components
  (iterative Tarjan over sorted adjacency — deterministic), each SCC
  becomes one :class:`Stratum`, strata are ordered topologically, and a
  negated dependency *inside* an SCC (a negative cycle) is rejected with
  :class:`~repro.exceptions.DatalogError` — the classic stratified-negation
  condition: by the time a stratum runs, every negated predicate is final.

* **Semi-naïve fixpoint** (:func:`run_stratum`): the layer-8 delta rule

      d(R₁ ⋈ … ⋈ Rₖ) = Σᵢ R₁' ⋈ … ⋈ dRᵢ ⋈ … ⋈ Rₖ

  *is* semi-naïve evaluation's inner step.  Each round's newly derived
  tuples become an insert-only :class:`~repro.incremental.delta.SignedDelta`
  applied to the predicate's logs in the incremental engine's
  :class:`~repro.incremental.delta.PredicateStore`; every rule whose body
  references a changed predicate re-fires only through the delta terms
  :func:`~repro.incremental.ivm.delta_terms` builds and
  :func:`~repro.incremental.ivm.run_delta_terms` runs (in process, or on the
  worker pool) — delta-first variable orders, delta-scoped trie-root
  bounds, probe intersections — so a round costs what the round *derived*,
  not the accumulated database.  Because
  within-stratum deltas are insert-only over set relations, the delta-rule
  terms telescope to exactly the new body-join rows, each derived once.

:func:`evaluate_program_naive` is the independent oracle: full re-join of
every rule body per round until nothing changes.  The engine's bit-identity
contract (``tests/test_datalog_fixpoint.py``) pins semi-naïve == naive for
every driver and execution backend.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

from repro.datalog.atoms import Atom
from repro.exceptions import DatalogError
from repro.incremental.delta import PredicateStore, SignedDelta
from repro.incremental.ivm import delta_terms, run_delta_terms, term_rows
from repro.relational.columns import Dictionary, canonical_codes, concat_columns
from repro.relational.database import Database
from repro.relational.operators import difference, semijoin
from repro.relational.relation import Relation

__all__ = [
    "DatalogProgram",
    "DatalogRule",
    "FixpointStats",
    "Stratum",
    "evaluate_program_naive",
    "run_stratum",
]


@dataclass(frozen=True)
class DatalogRule:
    """One rule ``head :- body, !negated`` (single-atom head).

    Attributes:
        head: the derived atom; its predicate becomes an IDB predicate.
        body: the positive body atoms (at least one; exact duplicates
            collapse — they cannot change the join).
        negated: negated body atoms; stratified semantics (the negated
            predicate must be final before the rule's stratum runs).

    Safety: every head variable and every negated-atom variable must occur
    in some positive body atom, so the rule's bindings always come from the
    positive join and negation is a per-row filter.
    """

    head: Atom
    body: tuple[Atom, ...]
    negated: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(dict.fromkeys(self.body)))
        object.__setattr__(self, "negated", tuple(dict.fromkeys(self.negated)))
        if not self.body:
            raise DatalogError(
                f"rule for {self.head} needs at least one positive body atom"
            )
        positive = frozenset(
            v for atom in self.body for v in atom.variables
        )
        unsafe = [v for v in self.head.variables if v not in positive]
        if unsafe:
            raise DatalogError(
                f"unsafe rule {self}: head variable(s) {unsafe} do not occur "
                f"in any positive body atom"
            )
        for atom in self.negated:
            unsafe = [v for v in atom.variables if v not in positive]
            if unsafe:
                raise DatalogError(
                    f"unsafe rule {self}: negated atom {atom} binds {unsafe} "
                    f"outside the positive body"
                )

    @property
    def variable_order(self) -> tuple[str, ...]:
        """The canonical (sorted) order over the positive body variables."""
        return tuple(sorted({v for atom in self.body for v in atom.variables}))

    @property
    def body_predicates(self) -> tuple[str, ...]:
        """Distinct predicate names the body references (positive + negated)."""
        names = [a.name for a in self.body] + [a.name for a in self.negated]
        return tuple(dict.fromkeys(names))

    def __str__(self) -> str:
        parts = [str(atom) for atom in self.body]
        parts += [f"!{atom}" for atom in self.negated]
        return f"{self.head} :- {', '.join(parts)}"


@dataclass(frozen=True)
class Stratum:
    """One evaluation unit: an SCC of the predicate dependency graph.

    Attributes:
        index: position in the topological stratum order.
        predicates: the stratum's IDB predicates, sorted.
        rules: the rules deriving them, in program order.
        recursive: whether any rule's body references a stratum predicate
            (mutual recursion makes ``len(predicates) > 1``).
    """

    index: int
    predicates: tuple[str, ...]
    rules: tuple[DatalogRule, ...]
    recursive: bool

    @property
    def depends_on(self) -> tuple[str, ...]:
        """Predicates the stratum reads that it does not derive (sorted)."""
        inside = frozenset(self.predicates)
        names = {
            name
            for rule in self.rules
            for name in rule.body_predicates
            if name not in inside
        }
        return tuple(sorted(names))


@dataclass(frozen=True)
class DatalogProgram:
    """A validated rule set with consistent arities and named IDB schemas."""

    rules: tuple[DatalogRule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(dict.fromkeys(self.rules)))
        if not self.rules:
            raise DatalogError("a datalog program needs at least one rule")
        arities: dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head,) + rule.body + rule.negated:
                known = arities.get(atom.name)
                if known is None:
                    arities[atom.name] = atom.arity
                elif known != atom.arity:
                    raise DatalogError(
                        f"predicate {atom.name} used with arity {atom.arity} "
                        f"and {known} — arities must be consistent"
                    )

    @property
    def idb_predicates(self) -> tuple[str, ...]:
        """The derived (head) predicates, sorted."""
        return tuple(sorted({rule.head.name for rule in self.rules}))

    @property
    def edb_predicates(self) -> tuple[str, ...]:
        """The base predicates — referenced but never derived, sorted."""
        idb = frozenset(self.idb_predicates)
        names = {
            name
            for rule in self.rules
            for name in rule.body_predicates
            if name not in idb
        }
        return tuple(sorted(names))

    def schema(self, predicate: str) -> tuple[str, ...]:
        """The canonical attribute names of one IDB predicate.

        The first head occurrence (program order) names the columns; every
        other occurrence realigns by positional code translation, exactly
        like atom binding against a stored relation.
        """
        for rule in self.rules:
            if rule.head.name == predicate:
                return rule.head.variables
        raise DatalogError(f"{predicate} is not a derived predicate")

    def stratify(self) -> tuple[Stratum, ...]:
        """SCC-condense the dependency graph into topologically ordered strata.

        Raises :class:`DatalogError` when a negated dependency closes a
        cycle (the program is not stratifiable).
        """
        idb = frozenset(self.idb_predicates)
        successors: dict[str, list[str]] = {name: [] for name in sorted(idb)}
        for rule in self.rules:
            for name in rule.body_predicates:
                if name in idb and rule.head.name not in successors[name]:
                    successors[name].append(rule.head.name)
        components = _tarjan_components(successors)
        component_of = {
            name: index
            for index, component in enumerate(components)
            for name in component
        }
        for rule in self.rules:
            for atom in rule.negated:
                if atom.name not in idb:
                    continue
                if component_of[atom.name] == component_of[rule.head.name]:
                    cycle = ", ".join(
                        components[component_of[rule.head.name]]
                    )
                    raise DatalogError(
                        f"program is not stratifiable: {rule.head.name} "
                        f"depends on !{atom.name} inside the recursive "
                        f"component {{{cycle}}} (negative cycle)"
                    )
        strata = []
        for index, component in enumerate(components):
            inside = frozenset(component)
            rules = tuple(
                rule for rule in self.rules if rule.head.name in inside
            )
            recursive = any(
                name in inside
                for rule in rules
                for name in rule.body_predicates
            )
            strata.append(
                Stratum(
                    index=index,
                    predicates=component,
                    rules=rules,
                    recursive=recursive,
                )
            )
        return tuple(strata)

    def __str__(self) -> str:
        # Valid program text: ``parse_program(str(program))`` round-trips.
        return "\n".join(f"{rule}." for rule in self.rules)


def _tarjan_components(
    successors: Mapping[str, Sequence[str]]
) -> tuple[tuple[str, ...], ...]:
    """SCCs of a directed graph, in topological order of the condensation.

    Iterative Tarjan (no recursion-depth limit on deep derivation chains)
    over sorted roots and sorted adjacency, so the component order — and
    hence the stratum order — is a pure function of the program text.
    Tarjan emits each component after all components it reaches, i.e. in
    reverse topological order; reversing gives sources (dependencies)
    first, which is the evaluation order.
    """
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: dict[str, bool] = {}
    stack: list[str] = []
    emitted: list[tuple[str, ...]] = []
    counter = 0
    for root in sorted(successors):
        if root in index_of:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            children = sorted(successors[node])
            advanced = False
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index_of:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack.get(child):
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                emitted.append(tuple(sorted(component)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return tuple(reversed(emitted))


@dataclass
class FixpointStats:
    """Counters describing the fixpoint work performed so far.

    ``rounds`` counts delta rounds (a round that derives nothing terminates
    its stratum); ``full_evaluations`` counts round-0 rule joins (the only
    database-sized joins — everything after is delta-sized);
    ``delta_terms`` counts executed delta-rule terms; ``derived_rows`` the
    fresh IDB tuples.  ``continuations`` vs ``recomputes`` records how each
    refresh ran (monotone continuation vs per-stratum re-evaluation).
    """

    strata: int = 0
    rounds: int = 0
    full_evaluations: int = 0
    delta_terms: int = 0
    derived_rows: int = 0
    pooled_rounds: int = 0
    batches: int = 0
    continuations: int = 0
    recomputes: int = 0
    replans: int = 0
    compactions: int = 0
    extras: dict = field(default_factory=dict)


class _RuleState:
    """Per-rule evaluation state: orders, head projection, negated atoms."""

    __slots__ = (
        "rule", "order", "head_positions", "head_schema", "negation",
    )

    def __init__(self, rule: DatalogRule, program: DatalogProgram) -> None:
        self.rule = rule
        self.order = rule.variable_order
        self.head_positions = tuple(
            self.order.index(v) for v in rule.head.variables
        )
        self.head_schema = program.schema(rule.head.name)
        #: per negated atom: positions of its variables in ``order`` (lower
        #: strata are final by the time the rule's stratum runs, so the
        #: atom's binding holds the same content every round).
        self.negation: tuple[tuple[Atom, tuple[int, ...]], ...] = tuple(
            (atom, tuple(self.order.index(v) for v in atom.variables))
            for atom in rule.negated
        )

    def head_columns(self, columns: Sequence) -> tuple:
        """Project body bindings — aligned code columns under ``order`` —
        onto the head, coded under the predicate schema.

        Head column ``i`` is the picked column itself when
        ``head.variables[i]`` names the schema attribute (the first head
        occurrence defines the schema, so its own rules pay nothing), else
        re-coded into ``head_schema[i]``'s dictionary by
        :meth:`Dictionary.translate`.  Schema attributes are distinct, so
        each target dictionary interns in the rows' order.  The one head
        projection of round 0, the delta rounds and the naive oracle.
        """
        return tuple(
            columns[position]
            if source == target
            else Dictionary.of(source).translate(
                Dictionary.of(target), columns[position]
            )
            for position, source, target in zip(
                self.head_positions, self.rule.head.variables, self.head_schema
            )
        )


def _head_block(
    state: _RuleState, columns: Sequence, nrows: int, store: PredicateStore
) -> tuple | None:
    """One rule firing's head candidates: stratified negation, then the head
    projection, over ``nrows`` body bindings held as columns under
    ``state.order``.  ``None`` when no binding survives; the block of a
    nullary head is ``()`` — its one empty row.
    A negated atom removes the bindings it holds: ``bindings - (bindings ⋉
    atom)``, as :meth:`~repro.datalog.rule.DisjunctiveRule.is_model` does.
    """
    bindings = None
    for atom, positions in state.negation:
        present = store.binding(atom).current
        if not positions:
            # A nullary guard keeps every binding or none.
            nrows = 0 if len(present) else nrows
        elif nrows:
            if bindings is None:
                canonical = canonical_codes(state.order, columns)
                bindings = Relation.from_column_set(state.rule.head.name, canonical)
            bindings = difference(bindings, semijoin(bindings, present))
            nrows = len(bindings)
    if not nrows:
        return None
    if bindings is not None:
        columns = bindings.column_set(state.order).columns
    return state.head_columns(columns)


def _fresh_deltas(
    candidates: dict[str, list],
    store: PredicateStore,
    totals: dict[str, list],
    stats: FixpointStats,
) -> dict[str, SignedDelta]:
    """Turn a round's candidate head blocks into next round's insert deltas.

    Per predicate, the candidates become one sorted, distinct operand
    (:func:`canonical_codes`; a nullary predicate's is its one empty row),
    kept by one :func:`difference` against the predicate's **current
    version in the store**.
    """
    deltas: dict[str, SignedDelta] = {}
    for name in sorted(candidates):
        blocks = candidates[name]
        relation = store.relation(name)
        schema = relation.schema
        if schema:
            nrows = sum(len(block[0]) for block in blocks)
            canonical = canonical_codes(schema, concat_columns(blocks, nrows))
            candidate = Relation.from_column_set(name, canonical)
        else:
            candidate = Relation.from_codes(name, (), [()])
        fresh = difference(candidate, relation, name=name).column_set(schema)
        if not fresh.nrows:
            continue
        delta = SignedDelta(
            schema,
            fresh.materialized_rows,
            array("q", [1]) * fresh.nrows,
            columns=fresh.materialized_columns,
        )
        totals[name].append(delta)
        stats.derived_rows += len(delta)
        deltas[name] = delta
    return deltas


def run_stratum(
    stratum: Stratum,
    program: DatalogProgram,
    store: PredicateStore,
    stats: FixpointStats,
    evaluate_rule: Callable[[_RuleState], Relation] | None = None,
    pool: Callable[[], object] | None = None,
    seeds: Mapping[str, SignedDelta] | None = None,
    seed_old: Mapping[tuple, Relation] | None = None,
) -> dict[str, SignedDelta]:
    """Evaluate one stratum to fixpoint; returns each predicate's net new
    tuples as one insert-only :class:`SignedDelta`.

    Two entry modes:

    * **initial** (``seeds is None``): round 0 evaluates every rule's full
      positive body join via ``evaluate_rule`` (the engine routes this
      through the shared planner); the derivations seed the delta rounds.
    * **continuation** (``seeds`` given): the incoming deltas — EDB inserts
      or fresh tuples announced by lower strata, already applied to the
      store — seed the rounds directly, with ``seed_old`` providing the
      pre-delta binding relations for the delta rule's old side.  Sound
      exactly when the stratum is monotone in the changed predicates
      (insert-only, no affected negation): the current content is a valid
      under-approximation and the fixpoint continues from it.

    Every subsequent round applies the previous round's fresh tuples as an
    insert-only :class:`SignedDelta` (old side snapshotted just before),
    fires only the delta-rule terms of rules whose bodies changed, and
    terminates the moment a round derives nothing new.  "Already derived"
    is one :func:`difference` against the store's current versions; no
    side set of derived rows is built on entering a stratum.
    """
    states = [_RuleState(rule, program) for rule in stratum.rules]
    if evaluate_rule is None:
        evaluate_rule = partial(_evaluate_rule_inline, store=store)
    totals: dict[str, list] = {name: [] for name in stratum.predicates}
    stats.strata += 1

    if seeds is None:
        candidates: dict[str, list] = {}
        for state in states:
            joined = evaluate_rule(state)
            stats.full_evaluations += 1
            columns = joined.column_set(state.order).columns
            block = _head_block(state, columns, len(joined), store)
            if block is not None:
                candidates.setdefault(state.rule.head.name, []).append(block)
        pending = _fresh_deltas(candidates, store, totals, stats)
        external_old: Mapping[tuple, Relation] = {}
    else:
        pending = {
            name: delta
            for name, delta in sorted(seeds.items())
            if not delta.is_empty
        }
        external_old = dict(seed_old or {})

    while pending:
        stats.rounds += 1
        pending = _run_round(
            states, store, pending, external_old, totals, stats, pool
        )
        external_old = {}
        stats.compactions += store.compact(stratum.predicates)
    return {
        name: SignedDelta.merged(runs)
        for name, runs in sorted(totals.items())
        if runs
    }


def _evaluate_rule_inline(state: _RuleState, store: PredicateStore) -> Relation:
    """Planner-free round-0 evaluation (library fallback): one Generic Join."""
    from repro.relational.wcoj import generic_join

    relations = [store.binding(atom).current for atom in state.rule.body]
    if any(relation.is_empty() for relation in relations):
        return Relation.from_codes(state.rule.head.name, state.order, [])
    return generic_join(relations, state.order)


def _run_round(
    states: Sequence[_RuleState],
    store: PredicateStore,
    deltas: Mapping[str, SignedDelta],
    external_old: Mapping[tuple, Relation],
    totals: dict[str, list],
    stats: FixpointStats,
    pool: Callable[[], object] | None,
) -> dict[str, SignedDelta]:
    """One delta round: apply the incoming deltas, fire the affected terms."""
    announced = {
        name
        for name in deltas
        if any(key in external_old for key in store.binding_keys(name))
    }
    old, binding_deltas = store.apply(
        {name: delta for name, delta in deltas.items() if name not in announced}
    )
    for name in sorted(announced):
        # Announced delta: already applied upstream; the old side is the
        # retained snapshot (no version lift — its terms run in process).
        for key in store.binding_keys(name):
            old[key] = (external_old[key], None)
            binding_deltas[key] = deltas[name].relabeled(key[1])

    jobs: list[tuple] = []
    for state in states:
        body = state.rule.body
        if any(atom.name in deltas for atom in body):
            keys = [PredicateStore.binding_key(atom) for atom in body]
            for term in delta_terms(state.order, keys, store, old, binding_deltas):
                jobs.append((state, term))

    stats.delta_terms += len(jobs)
    results, pooled = run_delta_terms([term for _, term in jobs], store, pool)
    stats.pooled_rounds += pooled
    candidates: dict[str, list] = {}
    for (state, _), columns in zip(jobs, results):
        # A term over no variables has the one empty binding (``term_rows``).
        nrows = len(columns[0]) if columns else 1
        block = _head_block(state, columns, nrows, store)
        if block is not None:
            candidates.setdefault(state.rule.head.name, []).append(block)
    return _fresh_deltas(candidates, store, totals, stats)


# -- the naive oracle ---------------------------------------------------------------


def evaluate_program_naive(
    program: DatalogProgram, database: Database
) -> dict[str, Relation]:
    """Naive stratified evaluation: re-join every rule body until fixpoint.

    The independent oracle the bit-identity tests (and the benchmark's
    baseline arm) compare against: no deltas, no planner, no versioned
    storage — per round, every rule's full positive body join runs through
    Generic Join, negation filters, the head projection unions, and the
    stratum repeats while anything changed.  Results are canonical sorted
    code rows per predicate, exactly the semi-naïve engine's shape.
    """
    idb = frozenset(program.idb_predicates)
    for name in program.edb_predicates:
        if name not in database:
            raise DatalogError(
                f"base predicate {name} is missing from the database"
            )
    for name in program.idb_predicates:
        if name in database:
            raise DatalogError(
                f"derived predicate {name} is already a database relation"
            )
    current: dict[str, list] = {
        name: [] for name in program.idb_predicates
    }
    for stratum in program.stratify():
        states = [_RuleState(rule, program) for rule in stratum.rules]
        changed = True
        while changed:
            changed = False
            for state in states:
                rows = _naive_rule_rows(state, program, database, current, idb)
                if not rows:
                    continue
                known = set(current[state.rule.head.name])
                columns = state.head_columns(tuple(zip(*rows)))
                fresh = sorted(set(term_rows(columns)) - known)
                if fresh:
                    changed = True
                    merged = sorted(known.union(fresh))
                    current[state.rule.head.name] = merged
    return {
        name: Relation.from_codes(
            name, program.schema(name), rows, presorted=True, distinct=True
        )
        for name, rows in sorted(current.items())
    }


def _naive_rule_rows(
    state: _RuleState,
    program: DatalogProgram,
    database: Database,
    current: dict[str, list],
    idb: frozenset,
) -> list:
    """One rule's full positive body join + negation filter (oracle path)."""
    from repro.relational.wcoj import generic_join

    def bound(atom: Atom) -> Relation:
        if atom.name in idb:
            relation = Relation.from_codes(
                atom.name, program.schema(atom.name), current[atom.name],
                presorted=True, distinct=True,
            )
        else:
            relation = database[atom.name]
        if relation.schema == atom.variables:
            return relation
        return relation.relabeled(atom.name, atom.variables)

    relations = [bound(atom) for atom in state.rule.body]
    if any(relation.is_empty() for relation in relations):
        return []
    rows = generic_join(relations, state.order).code_rows
    for atom, positions in state.negation:
        present = bound(atom).key_set(atom.variables)
        rows = [
            row
            for row in rows
            if tuple(row[p] for p in positions) not in present
        ]
    return rows
