"""Tests for the §8 FAQ-SS extension: semirings, annotated relations,
free-connex decompositions, InsideOut, and decomposition plans."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import parse_query
from repro.decompositions import tree_decompositions
from repro.exceptions import DecompositionError, QueryError, SchemaError
from repro.faq import (
    BOOLEAN,
    COUNTING,
    FRACTION,
    MAX_PRODUCT,
    MIN_PLUS,
    AnnotatedRelation,
    FAQQuery,
    Semiring,
    connex_core,
    faq_decomposition_plan,
    free_connex_decompositions,
    is_free_connex,
    variable_elimination,
)
from repro.instances import cycle_query, random_database
from repro.relational import Database, Relation

SEMIRINGS = [BOOLEAN, COUNTING, MIN_PLUS, MAX_PRODUCT]


def faq_from_text(text, semiring, free=None):
    query = parse_query(text)
    if free is not None:
        from repro.datalog.conjunctive import ConjunctiveQuery

        query = ConjunctiveQuery(tuple(free), query.body, query.name)
    return FAQQuery.from_conjunctive(query, semiring)


def path3_db(n=12, domain=5, seed=0):
    schema = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))]
    return random_database(schema, size=n, domain=domain, seed=seed)


def weights_for(db, semiring, seed=0):
    """Deterministic small integer weights, valid in every stock semiring."""
    rng = random.Random(seed)
    out = {}
    for relation in db:
        out[relation.name] = {
            row: semiring.product([semiring.one] * rng.randint(1, 3))
            if semiring is BOOLEAN
            else rng.randint(1, 4)
            for row in relation
        }
    return out


class TestSemirings:
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_axioms_on_samples(self, semiring):
        samples = {
            "boolean": [False, True],
            "counting": [0, 1, 2, 5, 7],
            "min-plus": [math.inf, 0, 1, 3, 10],
            "max-product": [0.0, 1.0, 0.5, 2.0],
        }[semiring.name]
        semiring.check_axioms(samples)

    def test_axiom_checker_catches_bad_semiring(self):
        broken = Semiring("broken", 0, 1, lambda a, b: a + b + 1, lambda a, b: a * b)
        with pytest.raises(ValueError):
            broken.check_axioms([0, 1, 2])

    def test_sum_and_product_identities(self):
        assert COUNTING.sum([]) == 0
        assert COUNTING.product([]) == 1
        assert MIN_PLUS.sum([]) == math.inf
        assert MIN_PLUS.product([3, 4]) == 7
        assert BOOLEAN.sum([False, True]) is True

    def test_idempotence_flags(self):
        assert BOOLEAN.idempotent_add
        assert MIN_PLUS.idempotent_add
        assert not COUNTING.idempotent_add


class TestAnnotatedRelation:
    def test_zero_annotations_dropped(self):
        rel = AnnotatedRelation("R", ("A",), COUNTING, {(1,): 0, (2,): 5})
        assert len(rel) == 1
        assert rel.annotation((1,)) == 0
        assert rel.annotation((2,)) == 5

    def test_duplicate_rows_aggregate(self):
        rel = AnnotatedRelation(
            "R", ("A",), COUNTING, [((1,), 2), ((1,), 3)].__iter__()
        ) if False else AnnotatedRelation("R", ("A",), COUNTING, {(1,): 2})
        assert rel.annotation((1,)) == 2

    def test_from_relation_lifts_with_ones(self):
        base = Relation.from_pairs("R", "A", "B", [(1, 2), (3, 4)])
        lifted = AnnotatedRelation.from_relation(base, COUNTING)
        assert len(lifted) == 2
        assert lifted.annotation((1, 2)) == 1

    def test_multiply_matches_relational_join_on_boolean(self):
        r = Relation.from_pairs("R", "A", "B", [(1, 2), (2, 3)])
        s = Relation.from_pairs("S", "B", "C", [(2, 5), (3, 6), (9, 9)])
        from repro.relational.operators import natural_join

        expected = natural_join(r, s)
        got = AnnotatedRelation.from_relation(r, BOOLEAN).multiply(
            AnnotatedRelation.from_relation(s, BOOLEAN)
        )
        assert got.support() == expected

    def test_multiply_multiplies_annotations(self):
        r = AnnotatedRelation("R", ("A", "B"), COUNTING, {(1, 2): 3})
        s = AnnotatedRelation("S", ("B", "C"), COUNTING, {(2, 7): 5})
        out = r.multiply(s)
        assert out.annotation((1, 2, 7)) == 15

    def test_multiply_rejects_mixed_semirings(self):
        r = AnnotatedRelation("R", ("A",), COUNTING, {(1,): 1})
        s = AnnotatedRelation("S", ("A",), BOOLEAN, {(1,): True})
        with pytest.raises(SchemaError):
            r.multiply(s)

    def test_marginalize_sums_collapsing_tuples(self):
        rel = AnnotatedRelation(
            "R", ("A", "B"), COUNTING, {(1, 2): 3, (1, 5): 4, (2, 2): 1}
        )
        out = rel.marginalize(["A"])
        assert out.annotation((1,)) == 7
        assert out.annotation((2,)) == 1

    def test_marginalize_to_scalar(self):
        rel = AnnotatedRelation("R", ("A",), MIN_PLUS, {(1,): 4, (2,): 9})
        assert rel.marginalize([]).scalar() == 4

    def test_scalar_requires_empty_schema(self):
        rel = AnnotatedRelation("R", ("A",), COUNTING, {(1,): 1})
        with pytest.raises(SchemaError):
            rel.scalar()

    def test_equality_is_schema_order_insensitive(self):
        a = AnnotatedRelation("X", ("A", "B"), COUNTING, {(1, 2): 3})
        b = AnnotatedRelation("Y", ("B", "A"), COUNTING, {(2, 1): 3})
        assert a == b

    def test_min_plus_cancellation_never_happens_but_zero_sum_drops(self):
        # Counting: +2 and annotation 0 on construction drops the row.
        rel = AnnotatedRelation("R", ("A", "B"), COUNTING, {(1, 1): 2, (1, 2): -2})
        out = rel.marginalize(["A"])
        assert out.annotation((1,)) == 0
        assert len(out) == 0


class TestFAQQueryNaive:
    def test_boolean_matches_conjunctive_query(self):
        db = path3_db()
        cq = parse_query("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)")
        faq = faq_from_text("Q() :- R(A,B), S(B,C), T(C,D)", BOOLEAN)
        expected = len(cq.evaluate_naive(db)) > 0
        assert faq.evaluate_naive(db).scalar() == expected

    def test_counting_matches_join_size(self):
        db = path3_db()
        cq = parse_query("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)")
        faq = faq_from_text("Q() :- R(A,B), S(B,C), T(C,D)", COUNTING)
        assert faq.evaluate_naive(db).scalar() == len(cq.evaluate_naive(db))

    def test_group_by_counts(self):
        db = Database(
            [
                Relation.from_pairs("R", "A", "B", [(1, 1), (1, 2), (2, 1)]),
                Relation.from_pairs("S", "B", "C", [(1, 1), (1, 2), (2, 1)]),
            ]
        )
        faq = faq_from_text("Q(A) :- R(A,B), S(B,C)", COUNTING)
        out = faq.evaluate_naive(db)
        # A=1: B=1 gives 2 C's, B=2 gives 1 C => 3; A=2: B=1 gives 2.
        assert out.annotation((1,)) == 3
        assert out.annotation((2,)) == 2

    def test_min_plus_shortest_two_hop(self):
        db = Database(
            [
                Relation.from_pairs("R", "A", "B", [(0, 1), (0, 2)]),
                Relation.from_pairs("S", "B", "C", [(1, 9), (2, 9)]),
            ]
        )
        weights = {
            "R": {(0, 1): 5, (0, 2): 1},
            "S": {(1, 9): 1, (2, 9): 10},
        }
        faq = faq_from_text("Q(A,C) :- R(A,B), S(B,C)", MIN_PLUS)
        out = faq.evaluate_naive(db, annotations=weights)
        assert out.annotation((0, 9)) == 6  # min(5+1, 1+10)

    def test_missing_weight_is_query_error(self):
        db = Database([Relation.from_pairs("R", "A", "B", [(1, 2), (1, 3)])])
        faq = faq_from_text("Q(A) :- R(A,B)", COUNTING)
        with pytest.raises(QueryError, match=r"R .*\(1, 3\)"):
            faq.evaluate_naive(db, annotations={"R": {(1, 2): 5}})

    def test_oracle_calls_neither_kernel(self, monkeypatch):
        """The oracle shares no code with the evaluators it checks."""
        import repro.faq.annotated as annotated

        db = Database(
            [
                Relation.from_pairs("R", "A", "B", [(0, 1), (0, 2), (3, 2)]),
                Relation.from_pairs("S", "B", "C", [(1, 9), (2, 9), (2, 4)]),
            ]
        )
        weights = {"R": {(0, 1): 5, (0, 2): 0, (3, 2): 2}}
        faq = faq_from_text("Q(A,C) :- R(A,B), S(B,C)", COUNTING)
        expected = variable_elimination(faq, db, annotations=weights).result

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle ran an FAQ kernel")

        monkeypatch.setattr(annotated, "fold_annotations", refuse)
        monkeypatch.setattr(annotated, "sum_product", refuse)
        out = faq.evaluate_naive(db, annotations=weights)
        assert out == expected
        assert out.code_items() == expected.code_items()
        assert sorted(out.items()) == [((0, 9), 5), ((3, 4), 2), ((3, 9), 2)]

    def test_free_variables_must_occur(self):
        with pytest.raises(QueryError):
            FAQQuery(("Z",), parse_query("Q(A,B) :- R(A,B)").body, COUNTING)


class TestFreeConnex:
    def test_full_query_always_connex(self):
        h = cycle_query(4).hypergraph()
        for td in tree_decompositions(h):
            assert is_free_connex(td, h.vertices)

    def test_boolean_always_connex(self):
        h = cycle_query(4).hypergraph()
        for td in tree_decompositions(h):
            assert connex_core(td, ()) == frozenset()

    def test_four_cycle_adjacent_pair_connex_exists(self):
        h = cycle_query(4).hypergraph()
        tds = free_connex_decompositions(h, ("A1", "A2"))
        assert tds
        for td in tds:
            core = connex_core(td, ("A1", "A2"))
            assert core is not None
            union = frozenset().union(*(td.bags[i] for i in core))
            assert union == frozenset(("A1", "A2"))

    def test_opposite_pair_connex_exists(self):
        h = cycle_query(4).hypergraph()
        tds = free_connex_decompositions(h, ("A1", "A3"))
        assert tds

    def test_triangle_with_one_free(self):
        h = parse_query("Q(A) :- R(A,B), S(B,C), T(A,C)").hypergraph()
        tds = free_connex_decompositions(h, ("A",))
        assert tds
        for td in tds:
            assert is_free_connex(td, ("A",))

    def test_generic_td_can_fail_connexity(self):
        """The single-bag TD of R(x, f1, f2) absorbs the free bag."""
        from repro.decompositions.tree_decomposition import TreeDecomposition

        td = TreeDecomposition.from_bags([("X", "F1", "F2")])
        assert not is_free_connex(td, ("F1", "F2"))
        td2 = TreeDecomposition.from_bags([("X", "F1", "F2"), ("F1", "F2")])
        assert is_free_connex(td2, ("F1", "F2"))

    def test_bad_order_rejected(self):
        from repro.faq.freeconnex import free_connex_decomposition_from_order

        h = parse_query("Q(A) :- R(A,B)").hypergraph()
        with pytest.raises(DecompositionError):
            free_connex_decomposition_from_order(h, ("A",), ("A", "B"))


class TestVariableElimination:
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_matches_naive_on_path(self, semiring):
        db = path3_db(seed=3)
        faq = faq_from_text("Q(A,D) :- R(A,B), S(B,C), T(C,D)", semiring)
        weights = None if semiring is BOOLEAN else weights_for(db, semiring, 3)
        expected = faq.evaluate_naive(db, annotations=weights)
        got = variable_elimination(faq, db, annotations=weights)
        assert got.result == expected

    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_matches_naive_on_cycle_scalar(self, semiring):
        schema = [
            (f"R{i}{(i % 4) + 1}", (f"A{i}", f"A{(i % 4) + 1}"))
            for i in range(1, 5)
        ]
        db = random_database(schema, size=16, domain=5, seed=7)
        cq = cycle_query(4, boolean=True)
        faq = FAQQuery.from_conjunctive(cq, semiring)
        expected = faq.evaluate_naive(db)
        got = variable_elimination(faq, db)
        assert got.result == expected

    def test_explicit_order_and_trace(self):
        db = path3_db(seed=5)
        faq = faq_from_text("Q(A,D) :- R(A,B), S(B,C), T(C,D)", COUNTING)
        run = variable_elimination(faq, db, order=("B", "C"))
        assert run.order == ("B", "C")
        assert run.result == faq.evaluate_naive(db)
        assert run.bags  # the trace recorded elimination bags
        assert run.induced_width >= 1

    def test_wrong_order_rejected(self):
        db = path3_db()
        faq = faq_from_text("Q(A,D) :- R(A,B), S(B,C), T(C,D)", COUNTING)
        with pytest.raises(QueryError):
            variable_elimination(faq, db, order=("B",))
        with pytest.raises(QueryError):
            variable_elimination(faq, db, order=("B", "C", "A"))

    def test_path_elimination_stays_within_bags(self):
        """On the 3-path the min-degree order keeps bags binary/ternary."""
        db = path3_db(n=30, domain=9, seed=11)
        faq = faq_from_text("Q(A,D) :- R(A,B), S(B,C), T(C,D)", COUNTING)
        run = variable_elimination(faq, db)
        assert run.induced_width <= 2


class TestDecompositionPlan:
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_matches_naive_on_path_group_by(self, semiring):
        db = path3_db(seed=13)
        faq = faq_from_text("Q(A,D) :- R(A,B), S(B,C), T(C,D)", semiring)
        weights = None if semiring is BOOLEAN else weights_for(db, semiring, 13)
        expected = faq.evaluate_naive(db, annotations=weights)
        plan = faq_decomposition_plan(faq, db, annotations=weights)
        assert plan.result == expected

    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_matches_naive_on_cycle_count(self, semiring):
        schema = [
            (f"R{i}{(i % 4) + 1}", (f"A{i}", f"A{(i % 4) + 1}"))
            for i in range(1, 5)
        ]
        db = random_database(schema, size=20, domain=6, seed=17)
        faq = FAQQuery.from_conjunctive(cycle_query(4, boolean=True), semiring)
        expected = faq.evaluate_naive(db)
        plan = faq_decomposition_plan(faq, db)
        assert plan.result == expected
        assert plan.core == frozenset()

    def test_full_join_plan(self):
        db = path3_db(seed=19)
        faq = faq_from_text("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)", COUNTING)
        plan = faq_decomposition_plan(faq, db)
        assert plan.result == faq.evaluate_naive(db)

    def test_rejects_non_connex_decomposition(self):
        from repro.decompositions.tree_decomposition import TreeDecomposition

        db = Database([Relation("R", ("X", "F1", "F2"), [(1, 2, 3)])])
        faq = FAQQuery(
            ("F1", "F2"),
            parse_query("Q(F1,F2) :- R(X,F1,F2)").body,
            COUNTING,
        )
        bad = TreeDecomposition.from_bags([("X", "F1", "F2")])
        with pytest.raises(DecompositionError):
            faq_decomposition_plan(faq, db, decomposition=bad)

    def test_explicit_connex_decomposition_used(self):
        from repro.decompositions.tree_decomposition import TreeDecomposition

        db = Database([Relation("R", ("X", "F1", "F2"), [(1, 2, 3), (4, 2, 5)])])
        faq = FAQQuery(
            ("F1", "F2"),
            parse_query("Q(F1,F2) :- R(X,F1,F2)").body,
            COUNTING,
        )
        td = TreeDecomposition.from_bags([("X", "F1", "F2"), ("F1", "F2")])
        plan = faq_decomposition_plan(faq, db, decomposition=td)
        assert plan.result == faq.evaluate_naive(db)
        assert plan.result.annotation((2, 3)) == 1

    def test_message_counter_and_intermediates(self):
        db = path3_db(seed=23)
        faq = faq_from_text("Q(A) :- R(A,B), S(B,C), T(C,D)", COUNTING)
        plan = faq_decomposition_plan(faq, db)
        assert plan.messages >= 1
        assert plan.max_intermediate >= len(plan.result)


def star_path_db(n):
    """The Example 1.10-style worst case for the 3-path: the full join is N²."""
    return Database(
        [
            Relation.from_pairs("R", "A", "B", [(i, 0) for i in range(n)]),
            Relation.from_pairs("S", "B", "C", [(0, i) for i in range(n)]),
            Relation.from_pairs("T", "C", "D", [(i, i) for i in range(n)]),
        ]
    )


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_plan_intermediates_linear_on_star_path(n):
    """§8: the free-connex plan materializes N rows where the join has N²."""
    from repro.relational import generic_join

    db = star_path_db(n)
    faq = faq_from_text("Q(A) :- R(A,B), S(B,C), T(C,D)", COUNTING)
    plan = faq_decomposition_plan(faq, db)
    assert plan.max_intermediate == n
    assert len(generic_join(list(db))) == n * n
    assert plan.result == faq.evaluate_naive(db)
    assert sorted(plan.result.items()) == [((a,), n) for a in range(n)]


def hub_path_db(seed):
    """A 3-path whose factors have ≥ 256 rows each, every one skewed onto
    one hub value of its join variable (past the ``vectorize`` gate, so the
    join runs its numpy frontier on the vectorized backend)."""
    rng = random.Random(seed)

    def skewed(hub_side, count, hub_count):
        rows = {(i, 0) if hub_side else (0, i) for i in range(hub_count)}
        while len(rows) < count:
            rows.add((rng.randrange(1, 48), rng.randrange(1, 48)))
        return sorted(rows)

    return Database(
        [
            Relation.from_pairs("R", "A", "B", skewed(True, 300, 90)),
            Relation.from_pairs("S", "B", "C", skewed(False, 280, 40)),
            Relation.from_pairs("T", "C", "D", skewed(False, 260, 30)),
        ]
    )


HUB_WEIGHTS = {
    "boolean": lambda rng: True,
    "counting": lambda rng: rng.randint(1, 4),
    "fraction": lambda rng: Fraction(rng.randint(1, 4), rng.randint(1, 3)),
    "min-plus": lambda rng: rng.randint(0, 9),
    "max-product": lambda rng: rng.choice([0.25, 0.5, 1.0, 2.0]),
}


@pytest.fixture(scope="module")
def two_worker_pool():
    from repro.parallel.pool import WorkerPool

    with WorkerPool(2) as pool:
        yield pool


@pytest.mark.parametrize("free", [(), ("A",), ("A", "D")], ids=str)
@pytest.mark.parametrize(
    "semiring", [BOOLEAN, COUNTING, FRACTION, MIN_PLUS, MAX_PRODUCT],
    ids=lambda s: s.name,
)
def test_evaluators_agree_past_the_gate(semiring, free, two_worker_pool):
    """Every evaluator equals the oracle on factors past the ``vectorize``
    gate, and ⊗ counts exactly the work of the join over the supports."""
    from repro.parallel import parallel_faq_join
    from repro.relational import generic_join, scoped_work_counter

    db = hub_path_db(seed=41)
    rng = random.Random(41)
    weights = {
        relation.name: {row: HUB_WEIGHTS[semiring.name](rng) for row in
                        sorted(relation.tuples)}
        for relation in db
    }
    faq = FAQQuery(
        free, parse_query("Q(A,D) :- R(A,B), S(B,C), T(C,D)").body, semiring
    )
    expected = faq.evaluate_naive(db, annotations=weights)
    assert variable_elimination(faq, db, annotations=weights).result == expected
    assert faq_decomposition_plan(faq, db, annotations=weights).result == expected

    factors = faq.bind(db, weights)
    with scoped_work_counter() as join_work:
        joined = generic_join([factor.support() for factor in factors])
    assert len(joined) >= 256
    for workers, pool in ((1, None), (2, two_worker_pool)):
        with scoped_work_counter() as work:
            result = parallel_faq_join(factors, free, workers=workers, pool=pool)
        assert result == expected, workers
        assert work.tuples_emitted == join_work.tuples_emitted, workers


@st.composite
def random_faq_instance(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    size = draw(st.integers(min_value=1, max_value=20))
    domain = draw(st.integers(min_value=2, max_value=6))
    free_choice = draw(st.sampled_from([(), ("A",), ("A", "D"), ("B", "C")]))
    semiring = draw(st.sampled_from(SEMIRINGS))
    return seed, size, domain, free_choice, semiring


@settings(max_examples=30, deadline=None)
@given(random_faq_instance())
def test_property_three_evaluators_agree(instance):
    """naive ≡ InsideOut ≡ decomposition plan on random path queries."""
    seed, size, domain, free, semiring = instance
    db = path3_db(n=size, domain=domain, seed=seed)
    faq = FAQQuery(free, parse_query("Q(A,D) :- R(A,B), S(B,C), T(C,D)").body,
                   semiring)
    weights = None if semiring is BOOLEAN else weights_for(db, semiring, seed)
    expected = faq.evaluate_naive(db, annotations=weights)
    assert variable_elimination(faq, db, annotations=weights).result == expected
    assert faq_decomposition_plan(faq, db, annotations=weights).result == expected


class TestFreeConnexWidths:
    """§8: Def. 7.6 widths with min over free-connex decompositions only."""

    def _setup(self, n=16):
        from repro.core.constraints import ConstraintSet, cardinality

        h = cycle_query(4).hypergraph()
        cons = ConstraintSet(
            cardinality(e, n)
            for e in [("A1", "A2"), ("A2", "A3"), ("A3", "A4"), ("A4", "A1")]
        )
        return h, cons

    def test_restriction_loses_adaptivity_on_opposite_pair(self):
        from fractions import Fraction

        from repro.faq import free_connex_dasubw
        from repro.widths import degree_aware_subw

        h, cons = self._setup()
        assert degree_aware_subw(h, cons) == Fraction(6)  # 3/2 · log 16
        # Only one decomposition is {A1,A3}-connex: adaptivity is lost.
        assert free_connex_dasubw(h, ("A1", "A3"), cons) == Fraction(8)

    def test_adjacent_pair_preserves_both_decompositions(self):
        from fractions import Fraction

        from repro.faq import free_connex_dafhtw, free_connex_dasubw

        h, cons = self._setup()
        assert free_connex_dasubw(h, ("A1", "A2"), cons) == Fraction(6)
        assert free_connex_dafhtw(h, ("A1", "A2"), cons) == Fraction(8)

    def test_widths_dominate_unrestricted(self):
        from repro.faq import free_connex_dafhtw, free_connex_dasubw
        from repro.widths import degree_aware_fhtw, degree_aware_subw

        h, cons = self._setup()
        for free in [("A1",), ("A1", "A2"), ("A1", "A3")]:
            assert free_connex_dafhtw(h, free, cons) >= degree_aware_fhtw(h, cons)
            assert free_connex_dasubw(h, free, cons) >= degree_aware_subw(h, cons)

    def test_no_connex_family_raises(self):
        from repro.decompositions.tree_decomposition import TreeDecomposition
        from repro.faq import free_connex_dasubw

        h, cons = self._setup()
        bad = TreeDecomposition.from_bags([("A1", "A2", "A3"), ("A1", "A3", "A4")])
        with pytest.raises(DecompositionError):
            free_connex_dasubw(h, ("A1", "A3"), cons, decompositions=[bad])
