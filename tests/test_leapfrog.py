"""Tests for Leapfrog Triejoin ([47]; the second WCOJ baseline of §2.1.1)."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QueryError
from repro.instances import skew_triangle, triangle_query
from repro.relational import (
    Relation,
    binary_join_plan,
    generic_join,
    leapfrog_triejoin,
)
from repro.relational.leapfrog import _leapfrog_intersection
from repro.relational.operators import scoped_work_counter


def triangle_relations(n, d, seed):
    rng = random.Random(seed)
    make = lambda name, a, b: Relation.from_pairs(  # noqa: E731
        name, a, b, [(rng.randrange(d), rng.randrange(d)) for _ in range(n)]
    )
    return [make("R", "A", "B"), make("S", "B", "C"), make("T", "A", "C")]


class TestLeapfrogIntersection:
    def test_basic(self):
        assert _leapfrog_intersection([[1, 3, 5], [3, 5, 7]]) == [3, 5]

    def test_disjoint(self):
        assert _leapfrog_intersection([[1, 2], [3, 4]]) == []

    def test_single_list_passthrough(self):
        assert _leapfrog_intersection([[2, 4, 6]]) == [2, 4, 6]

    def test_empty_operand(self):
        assert _leapfrog_intersection([[1, 2], []]) == []

    def test_three_way(self):
        lists = [[1, 4, 6, 9], [2, 4, 9, 12], [4, 5, 9]]
        assert _leapfrog_intersection(lists) == [4, 9]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=15),
            min_size=1,
            max_size=4,
        )
    )
    def test_property_matches_set_intersection(self, raw):
        lists = [sorted(set(values)) for values in raw]
        expected = set(lists[0])
        for values in lists[1:]:
            expected &= set(values)
        assert _leapfrog_intersection(lists) == sorted(expected)


class TestLeapfrogTriejoin:
    def test_matches_generic_join_on_triangle(self):
        rels = triangle_relations(30, 6, seed=1)
        assert leapfrog_triejoin(rels) == generic_join(rels)

    def test_respects_variable_order_schema(self):
        rels = triangle_relations(10, 4, seed=2)
        out = leapfrog_triejoin(rels, variable_order=("C", "A", "B"))
        assert out.schema == ("C", "A", "B")
        assert out == generic_join(rels)

    def test_rejects_bad_variable_order(self):
        rels = triangle_relations(5, 3, seed=3)
        with pytest.raises(QueryError):
            leapfrog_triejoin(rels, variable_order=("A", "B"))

    def test_rejects_empty_input(self):
        with pytest.raises(QueryError):
            leapfrog_triejoin([])

    def test_single_relation_identity(self):
        rel = Relation.from_pairs("R", "A", "B", [(1, 2), (3, 4)])
        assert leapfrog_triejoin([rel]) == rel

    def test_cross_product_via_disjoint_attrs(self):
        r = Relation("R", ("A",), [(1,), (2,)])
        s = Relation("S", ("B",), [(5,), (6,)])
        out = leapfrog_triejoin([r, s])
        assert len(out) == 4

    def test_empty_relation_gives_empty_join(self):
        rels = triangle_relations(10, 4, seed=4)
        rels[1] = Relation("S", ("B", "C"), [])
        assert len(leapfrog_triejoin(rels)) == 0

    def test_agm_compliance_on_tight_triangle(self):
        """Work stays near N^{3/2} on the AGM-tight instance [47, Thm 3.4]."""
        k = 16  # N = k² tuples per relation
        grid = [(i, j) for i in range(k) for j in range(k)]
        rels = [
            Relation.from_pairs("R", "A", "B", grid),
            Relation.from_pairs("S", "B", "C", grid),
            Relation.from_pairs("T", "A", "C", grid),
        ]
        n = k * k
        with scoped_work_counter() as counter:
            out = leapfrog_triejoin(rels)
        assert len(out) == k ** 3  # == N^{3/2}: AGM-tight output
        assert generic_join(rels) == out
        # A binary plan would touch ~N² = k⁴ tuples; LFTJ stays near k³.
        assert counter.tuples_scanned <= 8 * k ** 3

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_property_agrees_with_generic_join(self, n, d, seed):
        rels = triangle_relations(n, d, seed)
        assert leapfrog_triejoin(rels) == generic_join(rels)

    def test_four_cycle_agreement(self):
        rng = random.Random(9)
        rels = [
            Relation.from_pairs(
                f"R{i}", f"A{i}", f"A{i % 4 + 1}",
                [(rng.randrange(5), rng.randrange(5)) for _ in range(20)],
            )
            for i in range(1, 5)
        ]
        assert leapfrog_triejoin(rels) == generic_join(rels)


def test_worst_case_optimal_work_slopes():
    """§2.1.1 on work counters: Generic Join [43] and Leapfrog Triejoin [47]
    stay below the AGM exponent 1.5 on the skew triangle (output Θ(N)),
    where every binary plan is quadratic because each pairwise join has
    Θ(N²) tuples.  (Both emit exactly N^{3/2} tuples on the AGM-tight
    triangle: ``test_agm_compliance_on_tight_triangle``.)
    """
    sizes = [32, 64, 128, 256]  # m; relation sizes are 2m - 1
    joins = (generic_join, leapfrog_triejoin, binary_join_plan)
    work = {join: [] for join in joins}
    for m in sizes:
        relations = [atom.bind(skew_triangle(m)) for atom in triangle_query().body]
        outputs = []
        for join in joins:
            with scoped_work_counter() as counter:
                outputs.append(join(relations))
                work[join].append(counter.total)
        assert outputs[0] == outputs[1] == outputs[2]

    def slope(counts):
        logs = [math.log(m) for m in sizes], [math.log(c) for c in counts]
        return statistics.linear_regression(*logs).slope

    assert slope(work[generic_join]) < 1.5
    assert slope(work[leapfrog_triejoin]) < 1.5
    assert slope(work[binary_join_plan]) > 1.8
