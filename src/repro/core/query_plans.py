"""PANDA-based query evaluation (Corollaries 7.10, 7.11, 7.13 / Theorem 1.9).

Three PANDA drivers plus the traditional baseline:

* :func:`panda_full_query` — a full (or Boolean) CQ at the degree-aware
  polymatroid bound DAPB (Cor. 7.10): single-target PANDA, then semijoin
  reduction with every input atom, which makes the superset exact;
* :func:`dafhtw_plan` — the best tree decomposition under degree constraints;
  every bag materialized by single-target PANDA, then Yannakakis (Cor. 7.11);
* :func:`dasubw_plan` — the adaptive algorithm of Cor. 7.13: one disjunctive
  rule per bag-selector image, PANDA on each, per-bag unions, semijoin
  reduction, then Yannakakis on every candidate decomposition, with results
  unioned (or OR-ed for Boolean queries);
* :func:`tree_decomposition_plan` — the non-adaptive baseline of Example
  1.10: pick ONE decomposition, materialize every bag by a worst-case-optimal
  join of the restricted atoms, then Yannakakis.  On the 4-cycle's worst-case
  instance this pays ``Θ(N²)`` while :func:`dasubw_plan` stays at
  ``O~(N^{3/2})``.

:data:`DRIVERS` is the driver table: every name ``QueryEngine.execute``,
the maintained engines and the CLI's ``--driver`` accept, with the serial
driver it runs.  Pooled shards run the same entries
(:mod:`repro.parallel.pool`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.core.constraints import ConstraintSet
from repro.core.panda import PandaResult, panda
from repro.datalog.atoms import Atom, binding_cardinalities
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.datalog.rule import DisjunctiveRule
from repro.decompositions.enumeration import tree_decompositions
from repro.decompositions.selectors import selector_images
from repro.decompositions.tree_decomposition import TreeDecomposition
from repro.exceptions import QueryError
from repro.relational.database import Database
from repro.relational.leapfrog import leapfrog_triejoin
from repro.relational.operators import project, semijoin, union
from repro.relational.relation import Relation
from repro.relational.wcoj import generic_join
from repro.relational.yannakakis import acyclic_boolean, acyclic_join, join_tree_from_bags

__all__ = [
    "DRIVERS",
    "Driver",
    "PlanResult",
    "check_query",
    "panda_full_query",
    "dafhtw_plan",
    "dasubw_plan",
    "proper_query_plan",
    "tree_decomposition_plan",
]


@dataclass
class PlanResult:
    """Outcome of a query plan.

    Attributes:
        relation: the query answer (empty-schema relation for Boolean).
        boolean: the Boolean answer (non-emptiness).
        panda_runs: the PANDA invocations performed, for inspection.
        decompositions_used: the tree decompositions joined at the end.
    """

    relation: Relation
    boolean: bool
    panda_runs: list[PandaResult] = field(default_factory=list)
    decompositions_used: list[TreeDecomposition] = field(default_factory=list)


def _new_planner():
    """A fresh per-call planner: plans are shared across the bags, selector
    images, and decompositions of this one driver invocation.  Pass an
    explicit planner (or use :class:`repro.planner.QueryEngine`) to also
    share plans across invocations and databases."""
    from repro.planner import Planner

    return Planner()


def _best_decomposition(
    planner,
    hypergraph,
    constraints: ConstraintSet,
    decompositions: Sequence[TreeDecomposition],
) -> TreeDecomposition:
    """The decomposition minimizing its worst bag's polymatroid bound.

    All bag LPs go through the planner's shared batched solver, so repeated
    bags (within and across driver calls) solve once.  Constraints over
    attributes outside the query's variables (a caller's constraints over
    stored schemas) cannot inform the choice; with none usable the first
    decomposition is taken — the choice only affects speed.
    """
    universe = frozenset(hypergraph.vertices)
    if not all(c.y <= universe for c in constraints):
        constraints = ConstraintSet(c for c in constraints if c.y <= universe)
        if not len(constraints):
            return decompositions[0]
    solver = planner.bound_solver(hypergraph.vertices, constraints)

    def bag_cost(bag: frozenset):
        return solver.solve(bag).log_value

    return min(decompositions, key=lambda td: max(bag_cost(b) for b in td.bags))


def check_query(query: ConjunctiveQuery) -> None:
    """Reject a query outside the drivers' reach: full or Boolean CQs only,
    over body atoms with variables (a nullary atom has no constraint)."""
    if not (query.is_full or query.is_boolean):
        raise QueryError(
            "the paper's drivers cover full and Boolean conjunctive queries "
            "(§8 sketches the general case); project the full result instead"
        )
    for atom in query.body:
        if not atom.variables:
            raise QueryError(f"nullary body atom {atom} is not supported")


def _boolean_result(query: ConjunctiveQuery, non_empty: bool) -> Relation:
    return Relation(query.name, (), [()] if non_empty else [])


def panda_full_query(
    query: ConjunctiveQuery,
    database: Database,
    constraints: ConstraintSet | None = None,
    planner=None,
    decompositions: Sequence[TreeDecomposition] | None = None,
) -> PlanResult:
    """Corollary 7.10: evaluate a full/Boolean CQ in ``O~(N + 2^{DAPB})``.

    ``decompositions`` is unused (one rule over all variables); it is
    accepted so every entry of :data:`DRIVERS` takes the same arguments.
    """
    check_query(query)
    if planner is None:
        planner = _new_planner()
    (targets,) = _full_target(query)
    rule = DisjunctiveRule(targets, query.body, name=query.name)
    result = panda(rule, database, constraints=constraints, planner=planner)
    table = result.model.tables[0]
    for atom in query.body:
        table = semijoin(table, atom.bind(database))
    answer = table.renamed(query.name)
    if query.is_boolean:
        return PlanResult(
            relation=_boolean_result(query, not answer.is_empty()),
            boolean=not answer.is_empty(),
            panda_runs=[result],
        )
    return PlanResult(relation=answer, boolean=not answer.is_empty(), panda_runs=[result])


def _bag_atoms(query: ConjunctiveQuery, bag: frozenset, database: Database) -> list[Relation]:
    """The restricted atoms ``Π_{F ∩ B}(R_F)`` of the bag query on ``H_B``."""
    relations = []
    for atom in query.body:
        overlap = atom.variable_set & bag
        if overlap:
            relations.append(project(atom.bind(database), overlap))
    return relations


def tree_decomposition_plan(
    query: ConjunctiveQuery,
    database: Database,
    decomposition: TreeDecomposition | None = None,
    constraints: ConstraintSet | None = None,
    decompositions: Sequence[TreeDecomposition] | None = None,
    planner=None,
) -> PlanResult:
    """The non-adaptive baseline: one decomposition, bags via Generic Join.

    This is the classic fhtw-style strategy (§2.1.3): each bag is fully
    materialized — worst-case ``N^{ρ*(bag)}`` — then Yannakakis finishes.
    When no ``decomposition`` is given, the degree-aware-fhtw-optimal one is
    chosen by its worst bag's polymatroid bound, with the bound LPs served
    by the planner's shared (and cached) batched solver.
    """
    check_query(query)
    if decomposition is None:
        if planner is None:
            planner = _new_planner()
        if constraints is None:
            constraints = binding_cardinalities(query.body, database)
        hypergraph = query.hypergraph()
        if decompositions is None:
            decompositions = tree_decompositions(hypergraph)
        decomposition = _best_decomposition(
            planner, hypergraph, constraints, decompositions
        )
    bag_tables = []
    for bag in decomposition.bags:
        atoms = _bag_atoms(query, bag, database)
        table = generic_join(atoms, name=f"T_{''.join(sorted(bag))}")
        bag_tables.append(table)
    tree = join_tree_from_bags(bag_tables)
    if query.is_boolean:
        answer = acyclic_boolean(tree)
        return PlanResult(
            relation=_boolean_result(query, answer),
            boolean=answer,
            decompositions_used=[decomposition],
        )
    joined = acyclic_join(tree, name=query.name)
    return PlanResult(
        relation=joined,
        boolean=not joined.is_empty(),
        decompositions_used=[decomposition],
    )


def dafhtw_plan(
    query: ConjunctiveQuery,
    database: Database,
    constraints: ConstraintSet | None = None,
    decompositions: Sequence[TreeDecomposition] | None = None,
    planner=None,
) -> PlanResult:
    """Corollary 7.11: evaluate at the degree-aware fractional hypertree width.

    Picks the decomposition minimizing the worst bag's polymatroid bound,
    materializes every bag with single-target PANDA, semijoin-reduces, and
    runs Yannakakis.
    """
    check_query(query)
    if planner is None:
        planner = _new_planner()
    if constraints is None:
        constraints = binding_cardinalities(query.body, database)
    hypergraph = query.hypergraph()
    if decompositions is None:
        decompositions = tree_decompositions(hypergraph)

    # Choose the da-fhtw-optimal decomposition by its worst bag bound.
    best = _best_decomposition(planner, hypergraph, constraints, decompositions)

    runs: list[PandaResult] = []
    bag_tables: list[Relation] = []
    for bag in best.bags:
        rule = DisjunctiveRule((bag,), query.body, name=f"P_{''.join(sorted(bag))}")
        result = panda(rule, database, constraints=constraints, planner=planner)
        runs.append(result)
        table = result.model.tables[0]
        for atom in query.body:
            if atom.variable_set <= bag:
                table = semijoin(table, atom.bind(database))
        bag_tables.append(table)

    tree = join_tree_from_bags(bag_tables)
    if query.is_boolean:
        answer = acyclic_boolean(tree)
        return PlanResult(
            relation=_boolean_result(query, answer),
            boolean=answer,
            panda_runs=runs,
            decompositions_used=[best],
        )
    joined = acyclic_join(tree, name=query.name)
    # Bags only see atoms fully inside them; a final semijoin sweep enforces
    # the straddling atoms.
    for atom in query.body:
        joined = semijoin(joined, atom.bind(database))
    return PlanResult(
        relation=joined.renamed(query.name),
        boolean=not joined.is_empty(),
        panda_runs=runs,
        decompositions_used=[best],
    )


def dasubw_plan(
    query: ConjunctiveQuery,
    database: Database,
    constraints: ConstraintSet | None = None,
    decompositions: Sequence[TreeDecomposition] | None = None,
    planner=None,
) -> PlanResult:
    """Corollary 7.13 / Theorem 1.9: evaluate at the degree-aware submodular width.

    For every bag-selector image ``B``, PANDA answers the disjunctive rule
    whose targets are the image's bags.  The per-bag tables are unioned across
    images, semijoin-reduced against all inputs, and finally every
    decomposition associated with some choice tuple is evaluated by Yannakakis
    and the results combined.

    Selector images of a symmetric query are heavily isomorphic (a cycle's
    images map onto each other under rotation), so the planner's canonical
    plan cache collapses the per-image LP + proof-sequence work to one build
    per isomorphism class.
    """
    check_query(query)
    if planner is None:
        planner = _new_planner()
    if constraints is None:
        constraints = binding_cardinalities(query.body, database)
    hypergraph = query.hypergraph()
    if decompositions is None:
        decompositions = tree_decompositions(hypergraph)

    # Step 1: one PANDA disjunctive rule per selector image.
    runs: list[PandaResult] = []
    produced: dict[frozenset, Relation] = {}
    for targets in _image_targets(query, constraints, decompositions, planner):
        rule = DisjunctiveRule(targets, query.body, name="P_image")
        result = panda(rule, database, constraints=constraints, planner=planner)
        runs.append(result)
        for table in result.model.tables:
            bag = table.attributes
            if bag in produced:
                produced[bag] = union(produced[bag], table, name=table.name)
            else:
                produced[bag] = table

    # Step 2: semijoin-reduce every bag table with every input relation.
    for bag, table in list(produced.items()):
        for atom in query.body:
            table = semijoin(table, atom.bind(database))
        produced[bag] = table

    # Step 3: evaluate the decompositions.  The paper iterates the choice
    # tuples of ∏_i B_i and locates each tuple's associated decomposition
    # (Claims 1/2 of Cor. 7.13) — a proof device that is exponential in the
    # number of selector images.  Evaluating *every* decomposition is an
    # equivalent superset: by Claim 2 each output tuple is fully contained in
    # some decomposition's bags, and each decomposition's (semijoin-reduced)
    # Yannakakis result is a subset of the true answer because every atom
    # fits inside one of its bags.  |TD| is a query-complexity quantity, so
    # the runtime bound of Theorem 1.9 is unaffected.
    #
    # ``selector_images`` returns only ⊆-minimal images, so a bag may appear
    # in no image at all and have no produced table.  Decompositions using
    # such a bag can be skipped soundly: the Claim 1 choice function can
    # always be drawn from the minimal sub-image, so every output tuple's
    # associated decomposition has all its bags among the produced ones.
    used: dict[frozenset, TreeDecomposition] = {
        td.bag_set: td
        for td in decompositions
        if all(bag in produced for bag in td.bags)
    }

    answer: Relation | None = None
    boolean = False
    for decomposition in used.values():
        bag_tables = [
            produced[bag].renamed(f"T_{''.join(sorted(bag))}")
            for bag in decomposition.bags
        ]
        tree = join_tree_from_bags(bag_tables)
        if query.is_boolean:
            boolean = boolean or acyclic_boolean(tree)
            if boolean:
                break
            continue
        part = acyclic_join(tree, name=query.name)
        for atom in query.body:
            part = semijoin(part, atom.bind(database))
        answer = part if answer is None else union(answer, part, name=query.name)

    if query.is_boolean:
        return PlanResult(
            relation=_boolean_result(query, boolean),
            boolean=boolean,
            panda_runs=runs,
            decompositions_used=list(used.values()),
        )
    if answer is None:
        answer = Relation(query.name, tuple(sorted(query.variable_set)))
    return PlanResult(
        relation=answer.renamed(query.name),
        boolean=not answer.is_empty(),
        panda_runs=runs,
        decompositions_used=list(used.values()),
    )


def proper_query_plan(
    query: ConjunctiveQuery,
    database: Database,
    constraints: ConstraintSet | None = None,
    decompositions: Sequence[TreeDecomposition] | None = None,
    planner=None,
) -> PlanResult:
    """§8: evaluate a *proper* CQ over free-connex decompositions.

    The §8 recipe for heads strictly between ∅ and all variables: restrict
    the Cor. 7.11 minimization to *free-connex* decompositions, materialize
    every bag with single-target PANDA, semijoin-reduce, then project bound
    variables away below the connex core by Boolean-semiring message passing
    (never above it, so intermediates stay bag- and output-bounded).

    Full and Boolean queries are the degenerate cases (every decomposition is
    free-connex for them) and are also accepted.

    Raises:
        DecompositionError: if no free-connex decomposition exists among the
            candidates.
    """
    from repro.datalog.atoms import Atom
    from repro.exceptions import DecompositionError
    from repro.faq.freeconnex import free_connex_decompositions, is_free_connex
    from repro.faq.plans import faq_decomposition_plan
    from repro.faq.query import FAQQuery
    from repro.faq.semiring import BOOLEAN

    head = tuple(query.head)
    hypergraph = query.hypergraph()
    if constraints is None:
        constraints = binding_cardinalities(query.body, database)
    if decompositions is None:
        decompositions = free_connex_decompositions(hypergraph, head)
    else:
        decompositions = [
            td for td in decompositions if is_free_connex(td, head)
        ]
    if not decompositions:
        raise DecompositionError(
            f"no free-connex decomposition for head {head}"
        )

    # da-fhtw-optimal free-connex decomposition by its worst bag bound.
    if planner is None:
        planner = _new_planner()
    best = _best_decomposition(planner, hypergraph, constraints, decompositions)

    # PANDA per bag + semijoin reduction (every atom has a home bag, so the
    # join of the reduced bag tables equals the full join exactly).
    runs: list[PandaResult] = []
    bag_tables: list[Relation] = []
    for index, bag in enumerate(best.bags):
        rule = DisjunctiveRule((bag,), query.body, name=f"P_{''.join(sorted(bag))}")
        result = panda(rule, database, constraints=constraints, planner=planner)
        runs.append(result)
        table = result.model.tables[0]
        for atom in query.body:
            if atom.variable_set <= bag:
                table = semijoin(table, atom.bind(database))
        bag_tables.append(table.renamed(f"B{index}"))

    # Project to the head along the free-connex structure: a Boolean-semiring
    # FAQ whose factors are the bag tables and whose decomposition is `best`.
    bag_db = Database(bag_tables)
    body = tuple(Atom(t.name, t.schema) for t in bag_tables)
    faq = FAQQuery(head, body, BOOLEAN, name=query.name)
    faq_plan = faq_decomposition_plan(faq, bag_db, decomposition=best)
    support = faq_plan.result.support()
    positions = tuple(support.schema.index(a) for a in head)
    answer = Relation(
        query.name, head, (tuple(row[p] for p in positions) for row in support)
    )
    return PlanResult(
        relation=answer,
        boolean=not answer.is_empty(),
        panda_runs=runs,
        decompositions_used=[best],
    )


# -- the driver table ----------------------------------------------------------------


def _image_targets(query, constraints, decompositions, planner) -> list:
    """dasubw's PANDA rules: one per bag-selector image (Cor. 7.13)."""
    return [
        tuple(sorted(image, key=lambda b: tuple(sorted(b))))
        for image in selector_images(decompositions)
    ]


def _bag_targets(query, constraints, decompositions, planner) -> list:
    """dafhtw's PANDA rules: one per bag of the chosen decomposition."""
    best = _best_decomposition(planner, query.hypergraph(), constraints, decompositions)
    return [(bag,) for bag in best.bags]


def _full_target(query, *_) -> list:
    """panda_full's one PANDA rule, over all the variables (Cor. 7.10)."""
    return [(frozenset(query.variable_set),)]


@dataclass(frozen=True)
class Driver:
    """One entry of the driver table.

    Every driver answers a full or Boolean conjunctive query with the same
    rows (the bit-identity contract); entries differ only in how.

    Attributes:
        name: the name ``execute(driver=...)`` and ``--driver`` take.
        plan: the serial plan driver, called as ``plan(query, database,
            constraints=, decompositions=, planner=)``.
        join: for a bare worst-case-optimal join instead, its kernel, run
            on the bound atoms; a pooled shard restricts the kernel's trie
            roots to its row ranges (zero copy) rather than slicing.
        targets: for a PANDA driver, the targets of the rules it solves, as
            ``targets(query, constraints, decompositions, planner)``; a
            pooled run plans them once in the parent and ships the plans,
            with the dictionaries PANDA decodes, to the workers.
    """

    name: str
    plan: Callable | None = None
    join: Callable | None = None
    targets: Callable | None = None

    def run(self, query, relations, ranges=None, **options) -> PlanResult:
        """Evaluate ``query`` on its atoms' bindings, in process.

        ``relations[i]`` is the binding of ``query.body[i]``.  ``ranges``
        (one ``(lo, hi)`` per relation, rows of its column set under the
        sorted variable order) restricts the run to one shard: a join
        restricts its trie roots, a plan driver runs on zero-copy slices.
        A plan driver sees a database holding exactly the bindings, each
        under its atom's name — self-join occurrences as ``name__i``.
        """
        order = tuple(sorted(query.variable_set))
        if self.join is not None:
            joined = self.join(relations, order, name=query.name, root_ranges=ranges)
            non_empty = not joined.is_empty()
            if query.is_boolean:
                joined = _boolean_result(query, non_empty)
            return PlanResult(relation=joined, boolean=non_empty)
        names = [atom.name for atom in query.body]
        atoms = []
        bound = []
        for index, (atom, relation) in enumerate(zip(query.body, relations)):
            if ranges is not None:
                attrs = tuple(v for v in order if v in relation.attributes)
                column_set = relation.column_set(attrs)
                lo, hi = ranges[index]
                if (lo, hi) != (0, column_set.nrows):
                    relation = Relation.from_column_set(
                        relation.name, column_set.restrict_range(lo, hi)
                    )
            name = atom.name if names.count(atom.name) == 1 else f"{atom.name}__{index}"
            atoms.append(Atom(name, relation.schema))
            bound.append(relation if relation.name == name else relation.renamed(name))
        return self.plan(
            replace(query, body=tuple(atoms)), Database(bound), **options
        )


#: The driver table, by name.  ``panda`` and ``yannakakis`` are the names
#: the pooled and maintained engines gave ``dasubw`` and
#: ``tree_decomposition``; the CLI's ``--driver`` takes all of them.
DRIVERS: dict[str, Driver] = {
    entry.name: entry
    for entry in (
        Driver("generic", join=generic_join),
        Driver("leapfrog", join=leapfrog_triejoin),
        Driver("yannakakis", plan=tree_decomposition_plan),
        Driver("panda", plan=dasubw_plan, targets=_image_targets),
        Driver("dasubw", plan=dasubw_plan, targets=_image_targets),
        Driver("dafhtw", plan=dafhtw_plan, targets=_bag_targets),
        Driver("panda_full", plan=panda_full_query, targets=_full_target),
        Driver("tree_decomposition", plan=tree_decomposition_plan),
    )
}
