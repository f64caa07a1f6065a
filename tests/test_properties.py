"""Hypothesis property-based tests on core data structures and invariants."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import agm_log_bound, log_size_bound
from repro.core import Hypergraph, cardinality
from repro.core.constraints import ConstraintSet
from repro.core.panda import panda
from repro.core.query_plans import dasubw_plan
from repro.core.setfunctions import SetFunction
from repro.datalog.atoms import Atom
from repro.datalog.rule import DisjunctiveRule
from repro.flows import (
    FlowInequality,
    construct_proof_sequence,
    flow_from_bound,
    verify_witness,
)
from repro.flows.proof_sequence import ProofSequence, WeightedStep
from repro.instances.families import cycle_query, path_rule
from repro.planner import Planner, PlanCache
from repro.relational import (
    Database,
    Relation,
    generic_join,
    heavy_light_partition,
    natural_join,
    project,
    semijoin,
    union,
)
from repro.relational.backend import scoped_backend

F = Fraction

# -- strategies ---------------------------------------------------------------------

VARS3 = ("A", "B", "C")
VARS4 = ("A", "B", "C", "D")


@st.composite
def coverage_functions(draw, universe=VARS4, ground=6):
    """Random coverage polymatroids (see conftest for the classical argument)."""
    weights = [draw(st.integers(min_value=0, max_value=8)) for _ in range(ground)]
    mapping = {}
    for v in universe:
        subset = draw(
            st.sets(st.integers(min_value=0, max_value=ground - 1), min_size=1)
        )
        mapping[v] = subset

    def h(s):
        covered = set()
        for v in s:
            covered |= mapping[v]
        return F(sum(weights[g] for g in covered))

    return SetFunction.from_callable(universe, h)


@st.composite
def binary_relations(draw, a="A", b="B", max_rows=25, domain=6):
    rows = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=domain - 1),
                st.integers(min_value=0, max_value=domain - 1),
            ),
            max_size=max_rows,
        )
    )
    return Relation(f"R_{a}{b}", (a, b), rows)


# -- set-function properties ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(coverage_functions())
def test_coverage_functions_are_polymatroids(h):
    assert h.is_polymatroid()
    assert h.is_subadditive()


@settings(max_examples=40, deadline=None)
@given(coverage_functions(universe=VARS3))
def test_submodularity_closed_under_sum_and_scaling(h):
    assert (h + h).is_submodular()
    assert h.scaled(F(3, 2)).is_polymatroid()


@settings(max_examples=30, deadline=None)
@given(coverage_functions())
def test_shearer_style_flow_inequality_on_polymatroids(h):
    """The Example 1.6 Shannon-flow inequality holds on every polymatroid."""
    f = frozenset
    ineq = FlowInequality(
        VARS4,
        {f(("A", "B", "C")): F(1, 2), f(("B", "C", "D")): F(1, 2)},
        {
            (f(), f(("A", "B"))): F(1, 2),
            (f(), f(("B", "C"))): F(1, 2),
            (f(), f(("C", "D"))): F(1, 2),
        },
    )
    assert ineq.holds_on(h)


@settings(max_examples=30, deadline=None)
@given(coverage_functions(universe=VARS3))
def test_entropy_triangle_flow(h):
    """h(ABC) <= 1/2 (h(AB) + h(BC) + h(AC)) — Shearer on the triangle."""
    f = frozenset
    ineq = FlowInequality(
        VARS3,
        {f(VARS3): F(1)},
        {
            (f(), f(("A", "B"))): F(1, 2),
            (f(), f(("B", "C"))): F(1, 2),
            (f(), f(("A", "C"))): F(1, 2),
        },
    )
    assert ineq.holds_on(h)


# -- relational algebra properties ----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(binary_relations("A", "B"), binary_relations("B", "C"))
def test_join_commutative_on_content(r, s):
    assert natural_join(r, s) == natural_join(s, r)


@settings(max_examples=40, deadline=None)
@given(binary_relations("A", "B"), binary_relations("B", "C"))
def test_generic_join_matches_hash_join(r, s):
    if r.is_empty() or s.is_empty():
        assert len(natural_join(r, s)) == 0 or not (r.is_empty() or s.is_empty())
        return
    assert generic_join([r, s]) == natural_join(r, s)


@settings(max_examples=40, deadline=None)
@given(
    binary_relations("A", "B"),
    binary_relations("B", "C"),
    binary_relations("A", "C"),
)
def test_triangle_generic_join_agm_bound(r, s, t):
    """|R ⋈ S ⋈ T| <= sqrt(|R||S||T|) (the AGM bound, instance-level)."""
    if r.is_empty() or s.is_empty() or t.is_empty():
        return
    out = generic_join([r, s, t])
    agm = math.sqrt(len(r) * len(s) * len(t))
    assert len(out) <= agm + 1e-9


@settings(max_examples=40, deadline=None)
@given(binary_relations("A", "B"))
def test_projection_size_never_grows(r):
    assert len(project(r, ("A",))) <= len(r)


@settings(max_examples=40, deadline=None)
@given(binary_relations("A", "B"), binary_relations("B", "C"))
def test_semijoin_subset_of_left(r, s):
    reduced = semijoin(r, s)
    assert set(reduced.tuples) <= set(r.tuples)


@settings(max_examples=40, deadline=None)
@given(binary_relations("A", "B"), binary_relations("A", "B"))
def test_union_is_superset(r, s):
    u = union(r, s)
    assert len(u) >= max(len(r), len(s))
    assert len(u) <= len(r) + len(s)


@settings(max_examples=40, deadline=None)
@given(binary_relations("A", "B"))
def test_partition_is_exact_cover_with_product_bound(r):
    if r.is_empty():
        return
    pieces = heavy_light_partition(r, ("A",))
    combined = []
    for piece in pieces:
        combined.extend(piece.relation.tuples)
        assert piece.x_count * piece.y_degree <= len(r)
    assert len(combined) == len(r)
    assert set(combined) == set(r.tuples)


# -- uniform entropy properties -------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(binary_relations("A", "B"))
def test_uniform_entropy_is_near_polymatroid(r):
    """Empirical entropies satisfy monotonicity/submodularity up to rounding."""
    if r.is_empty():
        return
    from repro.entropy import uniform_entropy

    h = uniform_entropy(r)
    # Entropies here have tiny universes; exact checks hold because the
    # rational approximation error is far below the entropy gaps involved.
    assert h.is_nonnegative()
    assert h(("A", "B")) >= h(("A",)) - F(1, 10**6)
    assert h(("A",)) + h(("B",)) >= h(("A", "B")) - F(1, 10**6)


# -- the paper's guarantees as properties --------------------------------------------

FOUR_CYCLE = cycle_query(4)
PATH_RULE = path_rule()  # Example 1.4: T123 ∨ T234 :- R12, R23, R34
#: One planner for all examples: relation sizes come from a two-value menu,
#: so the cardinality constraints (and with them the plans) repeat.
PLANNER = Planner()


@st.composite
def hub_skewed_instances(draw, body):
    """Edge lists for the binary atoms of ``body`` in which a few hub nodes
    carry a large share of the endpoints — the skew Lemma 6.1 partitions on."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    size = draw(st.sampled_from((90, 320)))
    hubs = draw(st.integers(min_value=1, max_value=3))
    hub_share = draw(st.sampled_from((0.2, 0.5, 0.8)))
    domain = size // 3

    def endpoint():
        return rng.randrange(hubs if rng.random() < hub_share else domain)

    instance = []
    for atom in body:
        edges = set()
        while len(edges) < size:
            edges.add((endpoint(), endpoint()))
        instance.append((atom.name, atom.variables, sorted(edges)))
    return instance


def _assert_within_budget(run):
    """Theorem 1.7: no PANDA intermediate exceeds ``2^OBJ`` (the model unions
    one table per Lemma 6.1 branch, hence the theorem's polylog factor)."""
    assert run.stats.max_intermediate <= run.budget
    assert run.model.max_size <= run.budget * max(1, run.stats.branches)


def _assert_output_within_bound(body, database, constraints):
    """``|Q(D)| <= 2^LogSizeBound`` for the full query over ``body`` (Eq. 7)."""
    output = generic_join([atom.bind(database) for atom in body])
    universe = tuple(sorted(output.attributes))
    bound = log_size_bound(universe, frozenset(universe), constraints)
    assert len(output) <= 2.0 ** float(bound.log_value) * (1 + 1e-9)
    return output


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"])
@settings(max_examples=12, deadline=None)
@given(instance=hub_skewed_instances(FOUR_CYCLE.body))
def test_four_cycle_dasubw_respects_budget_and_bound(backend, instance):
    with scoped_backend(backend):
        database = Database([Relation(*relation) for relation in instance])
        constraints = database.extract_cardinalities()
        result = dasubw_plan(
            FOUR_CYCLE, database, constraints=constraints, planner=PLANNER
        )
        output = _assert_output_within_bound(FOUR_CYCLE.body, database, constraints)
    # Corollary 7.13: the adaptive plan computes the query.
    assert result.relation == output
    assert result.panda_runs
    for run in result.panda_runs:
        _assert_within_budget(run)


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"])
@settings(max_examples=12, deadline=None)
@given(instance=hub_skewed_instances(PATH_RULE.body))
def test_three_path_rule_respects_budget_and_bound(backend, instance):
    with scoped_backend(backend):
        database = Database([Relation(*relation) for relation in instance])
        constraints = database.extract_cardinalities()
        run = panda(PATH_RULE, database, constraints=constraints, planner=PLANNER)
        _assert_output_within_bound(PATH_RULE.body, database, constraints)
    _assert_within_budget(run)
    assert run.stats.partitions  # the N^{3/2} budget forces a Lemma 6.1 split
    assert PATH_RULE.is_model(run.model, database)


# -- the paper as properties: bounds, witnesses and proof sequences (ROADMAP 5c) -----


@st.composite
def cardinality_instances(draw, max_vars=5):
    """A random hypergraph on ≤ ``max_vars`` variables, every variable covered,
    with a random (mostly non-power-of-two) cardinality per distinct edge."""
    n = draw(st.integers(min_value=2, max_value=max_vars))
    universe = tuple(f"V{i}" for i in range(n))
    edges = draw(
        st.lists(
            st.frozensets(st.sampled_from(universe), min_size=1, max_size=3),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    uncovered = set(universe).difference(*edges)
    if uncovered:
        edges.append(frozenset(uncovered))
    sizes = {edge: draw(st.integers(min_value=2, max_value=300)) for edge in edges}
    return universe, sizes


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"])
@settings(max_examples=25, deadline=None)
@given(instance=cardinality_instances())
def test_cardinality_bound_is_agm_with_a_replayable_proof(backend, instance):
    universe, sizes = instance
    hypergraph = Hypergraph.from_edges(sorted(sizes, key=sorted))
    constraints = ConstraintSet(
        [cardinality(tuple(sorted(edge)), size) for edge, size in sizes.items()]
    )
    with scoped_backend(backend):
        bound = log_size_bound(universe, frozenset(universe), constraints)
        # Proposition 3.2: the polymatroid bound under cardinalities is AGM.
        assert bound.log_value == agm_log_bound(hypergraph, sizes)
    # The dual is a Shannon-flow witness, re-verified in exact arithmetic.
    inequality, witness, _ = flow_from_bound(bound)
    verify_witness(inequality, witness)
    # Theorem 5.9: the proof sequence replays step by step to its target.
    construct_proof_sequence(inequality, witness).verify(inequality)


@st.composite
def rule_instances(draw):
    """A random disjunctive rule on 3–5 variables: one atom per hyperedge
    (every variable covered), random rows per atom, one or two targets."""
    n = draw(st.integers(min_value=3, max_value=5))
    universe = tuple(f"V{i}" for i in range(n))
    edges = draw(
        st.lists(
            st.frozensets(st.sampled_from(universe), min_size=1, max_size=3),
            min_size=2,
            max_size=5,
            unique=True,
        )
    )
    uncovered = set(universe).difference(*edges)
    if uncovered:
        edges.append(frozenset(uncovered))
    atoms = []
    for edge in edges:
        variables = tuple(sorted(edge))
        rows = draw(
            st.sets(
                st.tuples(*[st.integers(0, 4)] * len(variables)),
                min_size=2,
                max_size=24,
            )
        )
        atoms.append((variables, sorted(rows)))
    targets = draw(
        st.lists(
            st.frozensets(st.sampled_from(universe), min_size=1),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    return universe, atoms, targets


NAME_POOL = ("A", "B", "C", "D", "E", "V0", "V1", "V2", "V3", "V4")
#: Shared by every example, and large enough that nothing is evicted in a
#: run, so the second naming of each example is always a cache hit.
RENAMING_PLANNER = Planner(PlanCache(maxsize=100_000))


@settings(max_examples=50, deadline=None)
@given(
    instance=rule_instances(),
    namings=st.lists(st.permutations(NAME_POOL), min_size=2, max_size=2),
)
def test_every_planned_rule_proves_its_inequality(instance, namings):
    """Every plan the planner hands out — fresh or a renamed cache hit — holds
    what PANDA reads: its proof sequence proves its inequality (Theorem 5.9),
    each positive δ is supported by one of the call's constraints (§6.1
    invariant 1), OBJ is the bound, and PANDA runs within ``2^OBJ``."""
    universe, atoms, targets = instance
    for renamed, names in enumerate(namings):
        mapping = dict(zip(universe, names))
        body = tuple(
            Atom(f"R{i}", tuple(mapping[v] for v in variables))
            for i, (variables, _) in enumerate(atoms)
        )
        database = Database(
            [
                Relation(atom.name, atom.variables, rows)
                for atom, (_, rows) in zip(body, atoms)
            ]
        )
        rule = DisjunctiveRule(
            tuple(frozenset(mapping[v] for v in t) for t in targets), body, name="P"
        )
        universe_r = tuple(sorted(rule.variable_set))
        constraints = database.extract_cardinalities()
        hits = RENAMING_PLANNER.stats.hits
        plan = RENAMING_PLANNER.plan_rule(universe_r, rule.targets, constraints)
        if renamed:
            assert RENAMING_PLANNER.stats.hits == hits + 1

        assert plan.log_value == log_size_bound(
            universe_r, list(rule.targets), constraints
        ).log_value
        if plan.ineq is None:
            assert plan.log_value == 0 and plan.steps == ()
        else:
            sequence = ProofSequence(
                [WeightedStep(weight, step) for weight, step, _ in plan.steps]
            )
            sequence.verify(plan.ineq)
            call_constraints = {(c.x_key, c.y_key, c.bound) for c in constraints}
            for pair, value in plan.ineq.delta.items():
                if value > 0:
                    support = plan.supports[pair]
                    assert (support.x, support.y) == pair
                    key = (support.x_key, support.y_key, support.bound)
                    assert key in call_constraints

        run = panda(rule, database, constraints=constraints, plan=plan)
        assert rule.is_model(run.model, database)
        assert run.log_value == plan.log_value
        # ``budget`` renders 2^OBJ in floats, and PANDA's budget checks allow
        # 10^-6 in log2 units for rationalized non-power-of-two bounds.
        ceiling = run.budget * (1 + 1e-6)
        assert run.stats.max_intermediate <= ceiling
        for table in run.model.tables:
            # A model table is the union of one table per Lemma 6.1 branch,
            # each within 2^OBJ (the polylog factor of Theorem 1.7) ...
            if len(table) > ceiling * max(1, run.stats.branches):
                # ... unless Algorithm 1's base case handed back an input
                # relation over the target as it is, paid for by the O(N) term.
                (source,) = [r for r in database if r.attributes == table.attributes]
                assert table.schema == source.schema
                assert sorted(table.tuples) == sorted(source.tuples)
