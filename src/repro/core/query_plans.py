"""Query plans over tree decompositions (Corollaries 7.10, 7.11, 7.13 / Theorem 1.9).

Every plan driver is one recipe, :func:`_plan`: choose rules (each a tuple
of target bags) and the decompositions to join, fill the bags, then run
Yannakakis over the decompositions whose bags were all filled, the results
unioned (OR-ed when Boolean).  A driver is only its choice and its bag step
(its entry of :data:`DRIVERS`).  The choices:

* :func:`panda_full_query` (Cor. 7.10, DAPB): one rule over all the
  variables, joined as one bag;
* :func:`dafhtw_plan` (Cor. 7.11) and :func:`tree_decomposition_plan`: one
  rule per bag of the decomposition with the least worst-bag bound;
* :func:`dasubw_plan` (Cor. 7.13): one rule per bag-selector image, every
  candidate decomposition joined.

A bag step runs PANDA per rule and reduces each bag by every atom, or, for
the non-adaptive baseline of Example 1.10, Generic Join per bag (``Θ(N²)``
on the 4-cycle's worst case, where :func:`dasubw_plan` stays at
``O~(N^{3/2})``).  :func:`proper_query_plan` (§8) reuses the PANDA step on
a free-connex decomposition, then projects.  A caller's decomposition
must cover the query — the bag join enforces only atoms inside a bag — or
the plan raises :class:`~repro.exceptions.DecompositionError` before any
work.  Pooled shards run the same entries (:mod:`repro.parallel.pool`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

from repro.core.constraints import ConstraintSet
from repro.core.panda import PandaResult, panda
from repro.datalog.atoms import Atom, binding_cardinalities
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.datalog.rule import DisjunctiveRule
from repro.decompositions.enumeration import tree_decompositions
from repro.decompositions.selectors import selector_images
from repro.decompositions.tree_decomposition import TreeDecomposition
from repro.exceptions import DecompositionError, QueryError
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
    """A per-call planner, sharing plans within one driver call; pass one
    (or use :class:`repro.planner.QueryEngine`) to share them across calls."""
    from repro.planner import Planner

    return Planner()


@lru_cache(maxsize=64)
def _candidates(hypergraph) -> tuple[TreeDecomposition, ...]:
    """``TD(H)``, enumerated once per hypergraph, not per constraint set."""
    return tuple(tree_decompositions(hypergraph))


def _best_decomposition(planner, query, constraints, decompositions) -> TreeDecomposition:
    """The candidate (all of ``TD(H)`` when ``None``) minimizing its worst
    bag's polymatroid bound.

    A lone candidate (a pooled shard's: the parent's choice) solves nothing.
    Bag LPs go through the planner's shared batched solver.  Constraints
    outside the query's variables cannot inform the choice; with none usable
    the first decomposition is taken — the choice only affects speed.
    """
    hypergraph = query.hypergraph()
    if decompositions is None:
        decompositions = _candidates(hypergraph)
    if len(decompositions) == 1:
        return decompositions[0]
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


def _check_covers(query: ConjunctiveQuery, decompositions) -> None:
    """Reject a caller's decomposition that does not cover the query: the
    join of its bags would not enforce an atom inside none of them."""
    hypergraph = query.hypergraph()
    for decomposition in decompositions:
        if not decomposition.covers(hypergraph):
            raise DecompositionError(f"{decomposition} leaves an atom of {query} in no bag")


def _panda_bags(query, database, rules, constraints, planner) -> tuple[dict, list]:
    """PANDA's bag step, ``({bag: table}, runs)``: PANDA per rule, its tables
    unioned per bag, every bag reduced by every atom."""
    runs: list[PandaResult] = []
    produced: dict[frozenset, Relation] = {}
    for targets in rules:
        rule = DisjunctiveRule(targets, query.body)
        result = panda(rule, database, constraints=constraints, planner=planner)
        runs.append(result)
        for table in result.model.tables:
            bag = table.attributes
            old = produced.get(bag)
            produced[bag] = table if old is None else union(old, table, name=table.name)
    atoms = [atom.bind(database) for atom in query.body]
    for bag, table in list(produced.items()):
        for atom in atoms:
            table = semijoin(table, atom)
        produced[bag] = table
    return produced, runs


def _generic_bags(query, database, rules, *_) -> tuple[dict, list]:
    """The baseline's bag step (§2.1.3): each bag ``B`` fully materialized,
    worst-case ``N^{ρ*(B)}``, by Generic Join over ``Π_{F ∩ B}(R_F)``."""
    produced = {
        bag: generic_join(
            [project(atom.bind(database), atom.variable_set & bag)
             for atom in query.body if atom.variable_set & bag]
        )
        for targets in rules
        for bag in targets
    }
    return produced, []


def _join_bags(query, decompositions, produced: dict, runs: list) -> PlanResult:
    """Yannakakis over every decomposition whose bags were all produced,
    the results unioned (OR-ed for a Boolean query).

    Each is a subset of the answer: every atom lies inside a bag of a
    covering decomposition, and every bag table is reduced by it.  For
    dasubw the union is the answer: the paper locates each choice tuple's
    decomposition (Claims 1/2 of Cor. 7.13), a proof device exponential in
    the number of images; joining them all is an equivalent superset.  A
    bag in no ⊆-minimal image has no table, and skipping its decompositions
    is sound: the Claim 1 choice can be drawn from the minimal sub-image.
    """
    used: dict[frozenset, TreeDecomposition] = {
        td.bag_set: td
        for td in decompositions
        if all(bag in produced for bag in td.bags)
    }
    answer: Relation | None = None
    boolean = False
    for decomposition in used.values():
        tree = join_tree_from_bags(
            produced[bag].renamed(f"T_{''.join(sorted(bag))}")
            for bag in decomposition.bags
        )
        if query.is_boolean:
            boolean = acyclic_boolean(tree)
            if boolean:
                break
        else:
            part = acyclic_join(tree, name=query.name)
            answer = part if answer is None else union(answer, part, name=query.name)
    if query.is_boolean:
        answer = _boolean_result(query, boolean)
    else:
        if answer is None:
            answer = Relation(query.name, tuple(sorted(query.variable_set)))
        boolean = not answer.is_empty()
    return PlanResult(answer, boolean, runs, list(used.values()))


def _plan(rules_of, bags_of, query, database, constraints, decompositions, planner) -> PlanResult:
    """The one plan driver: ``rules_of(query, constraints, decompositions,
    planner)`` names the rules and the decompositions joined, ``bags_of``
    fills the rules' bags."""
    check_query(query)
    if decompositions is not None:
        _check_covers(query, decompositions)
    if planner is None:
        planner = _new_planner()
    if constraints is None:
        constraints = binding_cardinalities(query.body, database)
    rules, joined = rules_of(query, constraints, decompositions, planner)
    produced, runs = bags_of(query, database, rules, constraints, planner)
    return _join_bags(query, joined, produced, runs)


def _full_rules(query, *_) -> tuple[list, list]:
    """panda_full's one rule, over all the variables (Cor. 7.10), joined as
    one bag: reducing it by every atom makes PANDA's superset exact."""
    everything = frozenset(query.variable_set)
    return [(everything,)], [TreeDecomposition((everything,))]


def _bag_rules(query, constraints, decompositions, planner) -> tuple[list, list]:
    """dafhtw's and the baseline's rules: one per bag of the candidate
    minimizing its worst bag bound (Cor. 7.11), the one joined."""
    best = _best_decomposition(planner, query, constraints, decompositions)
    return [(bag,) for bag in best.bags], [best]


def _image_rules(query, constraints, decompositions, planner) -> tuple[list, list]:
    """dasubw's rules: one per bag-selector image (Cor. 7.13), every
    candidate joined.  A symmetric query's images are isomorphic, so the
    plan cache builds one plan per isomorphism class."""
    if decompositions is None:
        decompositions = _candidates(query.hypergraph())
    rules = [
        tuple(sorted(image, key=lambda b: tuple(sorted(b))))
        for image in selector_images(decompositions)
    ]
    return rules, decompositions


def panda_full_query(
    query, database, constraints=None, decompositions=None, planner=None
) -> PlanResult:
    """Corollary 7.10: evaluate a full/Boolean CQ in ``O~(N + 2^{DAPB})``."""
    return _plan(_full_rules, _panda_bags, query, database, constraints, decompositions, planner)


def dafhtw_plan(
    query, database, constraints=None, decompositions=None, planner=None
) -> PlanResult:
    """Corollary 7.11: evaluate at the degree-aware fractional hypertree width."""
    return _plan(_bag_rules, _panda_bags, query, database, constraints, decompositions, planner)


def dasubw_plan(
    query, database, constraints=None, decompositions=None, planner=None
) -> PlanResult:
    """Corollary 7.13 / Theorem 1.9: evaluate at the degree-aware submodular width."""
    return _plan(_image_rules, _panda_bags, query, database, constraints, decompositions, planner)


def tree_decomposition_plan(
    query: ConjunctiveQuery,
    database: Database,
    decomposition: TreeDecomposition | None = None,
    constraints: ConstraintSet | None = None,
    decompositions: Sequence[TreeDecomposition] | None = None,
    planner=None,
) -> PlanResult:
    """The non-adaptive baseline: one decomposition, bags via Generic Join.

    With no ``decomposition`` given, the candidate with the least worst-bag
    polymatroid bound is taken (the bound LPs go through the planner).
    """
    candidates = decompositions if decomposition is None else [decomposition]
    return _plan(_bag_rules, _generic_bags, query, database, constraints, candidates, planner)


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
        DecompositionError: if a given decomposition does not cover the
            query, or no free-connex decomposition exists among the
            candidates.
    """
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
        _check_covers(query, decompositions)
        decompositions = [td for td in decompositions if is_free_connex(td, head)]
    if not decompositions:
        raise DecompositionError(f"no free-connex decomposition for head {head}")

    # da-fhtw-optimal free-connex decomposition by its worst bag bound; its
    # reduced PANDA bag tables join to the full join exactly.
    if planner is None:
        planner = _new_planner()
    best = _best_decomposition(planner, query, constraints, decompositions)
    produced, runs = _panda_bags(
        query, database, [(bag,) for bag in best.bags], constraints, planner
    )
    bag_tables = [
        produced[bag].renamed(f"B{index}") for index, bag in enumerate(best.bags)
    ]

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
    return PlanResult(answer, not answer.is_empty(), runs, [best])


# -- the driver table ----------------------------------------------------------------


@dataclass(frozen=True)
class Driver:
    """One entry of the driver table.

    Every driver answers a full or Boolean conjunctive query with the same
    rows (the bit-identity contract); entries differ only in how.

    Attributes:
        name: the name ``execute(driver=...)`` and ``--driver`` take.
        join: for a bare worst-case-optimal join, its kernel, run on the
            bound atoms; a pooled shard restricts the kernel's trie roots
            to its row ranges (zero copy) rather than slicing.
        rules: for a plan driver instead, its choice ``rules(query,
            constraints, decompositions, planner)``, which returns the
            rules (each a tuple of target bags) and the decompositions
            Yannakakis joins.  An engine calls it once per constraint set
            and passes every run the joined decompositions as candidates,
            so no run, serial or pooled, solves a bound LP to re-choose.
        bags: its bag step ``bags(query, database, rules, constraints,
            planner) -> ({bag: table}, panda_runs)``: PANDA per rule, or
            Generic Join per bag.
    """

    name: str
    join: Callable | None = None
    rules: Callable | None = None
    bags: Callable | None = None

    @property
    def runs_panda(self) -> bool:
        """Whether the bag step is PANDA's (its shards need plans and dictionaries)."""
        return self.bags is _panda_bags

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
        query = replace(query, body=tuple(atoms))
        return _plan(self.rules, self.bags, query, Database(bound), **options)


#: The driver table, by name.  ``panda`` and ``yannakakis`` are the names
#: the pooled and maintained engines gave ``dasubw`` and
#: ``tree_decomposition``; the CLI's ``--driver`` takes all of them.
DRIVERS: dict[str, Driver] = {
    entry.name: entry
    for entry in (
        Driver("generic", join=generic_join),
        Driver("leapfrog", join=leapfrog_triejoin),
        Driver("yannakakis", rules=_bag_rules, bags=_generic_bags),
        Driver("panda", rules=_image_rules, bags=_panda_bags),
        Driver("dasubw", rules=_image_rules, bags=_panda_bags),
        Driver("dafhtw", rules=_bag_rules, bags=_panda_bags),
        Driver("panda_full", rules=_full_rules, bags=_panda_bags),
        Driver("tree_decomposition", rules=_bag_rules, bags=_generic_bags),
    )
}
