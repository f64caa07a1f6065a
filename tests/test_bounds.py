"""Tests for the size-bound machinery: edge covers, polymatroid LPs, gaps.

These tests pin the paper's concrete numbers:

* Example 1.2 (a)/(b)/(c): 4-cycle bounds ``N²``, ``D·N^{3/2}``, ``N^{3/2}``;
* Example 1.4/1.6: the disjunctive 3-path bound ``N^{3/2}`` with λ = (½, ½);
* Proposition 3.2: AGM = polymatroid bound under cardinality constraints;
* Theorem 1.3: polymatroid bound 4·logN vs ZY-outer < 4·logN on the ZY query;
* Lemma 4.5: the 15-target rule's polymatroid bound 4·logN vs entropic < 4.
"""

from fractions import Fraction

import pytest

from repro.bounds import (
    agm_log_bound,
    constraints_to_log,
    edge_dominated_constraints,
    fractional_edge_cover,
    fractional_edge_cover_number,
    integral_edge_cover_log_bound,
    log_size_bound,
    polymatroid_vs_entropic_gap,
    vertex_log_bound,
)
from repro.core import Hypergraph, cardinality, functional_dependency
from repro.core.constraints import ConstraintSet, DegreeConstraint
from repro.exceptions import LPError
from repro.instances import (
    lemma_4_5_constraints,
    lemma_4_5_rule,
    zhang_yeung_query,
)

F = Fraction
N = 16  # power of two: everything exact; logN = 4

FOUR_CYCLE_EDGES = [("A1", "A2"), ("A2", "A3"), ("A3", "A4"), ("A1", "A4")]
VARS4 = ("A1", "A2", "A3", "A4")


def _four_cycle():
    return Hypergraph.from_edges(FOUR_CYCLE_EDGES)


def _cc(n=N):
    return ConstraintSet([cardinality(e, n) for e in FOUR_CYCLE_EDGES])


class TestEdgeCovers:
    def test_rho_star_cycle(self):
        assert fractional_edge_cover_number(_four_cycle()) == 2

    def test_rho_star_triangle(self):
        h = Hypergraph.from_edges([("A", "B"), ("B", "C"), ("A", "C")])
        assert fractional_edge_cover_number(h) == F(3, 2)

    def test_agm_log_bound(self):
        sizes = {frozenset(e): N for e in FOUR_CYCLE_EDGES}
        assert agm_log_bound(_four_cycle(), sizes) == 8  # N^2

    def test_agm_uses_sizes(self):
        sizes = {frozenset(e): N for e in FOUR_CYCLE_EDGES}
        sizes[frozenset(("A1", "A2"))] = 1
        # Cover with the cheap edge as much as possible.
        value = agm_log_bound(_four_cycle(), sizes)
        assert value < 8

    def test_integral_cover_at_least_fractional(self):
        h = Hypergraph.from_edges([("A", "B"), ("B", "C"), ("A", "C")])
        sizes = {e: N for e in h.edges}
        integral = integral_edge_cover_log_bound(h, sizes)
        fractional = agm_log_bound(h, sizes)
        assert integral >= fractional
        assert integral == 8  # two edges needed integrally

    def test_vertex_bound_dominates(self):
        h = _four_cycle()
        sizes = {e: N for e in h.edges}
        assert vertex_log_bound(h, N) >= agm_log_bound(h, sizes)

    def test_cover_weights_returned(self):
        value, cover = fractional_edge_cover(_four_cycle())
        assert sum(cover.values()) == 2
        assert value == 2

    def test_uncovered_vertex_rejected(self):
        from repro.exceptions import QueryError

        h = Hypergraph(("A", "B"), (frozenset(("A",)),))
        with pytest.raises(QueryError):
            fractional_edge_cover_number(h)


class TestExample12:
    """The paper's running 4-cycle bounds (Example 1.2 / Appendix A)."""

    def test_bound_a_cardinalities(self):
        b = log_size_bound(VARS4, frozenset(VARS4), _cc())
        assert b.log_value == 8  # N^2

    def test_bound_b_degree(self):
        d = 2  # D = 2 <= sqrt(N) = 4
        dc = _cc().with_constraints(
            [
                DegreeConstraint.make(("A1",), ("A1", "A2"), d),
                DegreeConstraint.make(("A2",), ("A1", "A2"), d),
            ]
        )
        b = log_size_bound(VARS4, frozenset(VARS4), dc)
        assert b.log_value == 7  # D * N^{3/2} -> 1 + 6

    def test_bound_c_fds(self):
        dc = _cc().with_constraints(
            [
                functional_dependency(("A1",), ("A2",)),
                functional_dependency(("A2",), ("A1",)),
            ]
        )
        b = log_size_bound(VARS4, frozenset(VARS4), dc)
        assert b.log_value == 6  # N^{3/2}

    def test_dual_certificate_matches(self):
        b = log_size_bound(VARS4, frozenset(VARS4), _cc())
        assert b.dual_certificate_value() == b.log_value

    def test_optimal_h_is_feasible(self):
        b = log_size_bound(VARS4, frozenset(VARS4), _cc())
        h = b.optimal_set_function(VARS4)
        assert h.is_polymatroid()
        assert h.satisfies(_cc())


class TestProposition32:
    """AGM = polymatroid bound under cardinality constraints."""

    @pytest.mark.parametrize(
        "edges",
        [
            [("A", "B"), ("B", "C"), ("A", "C")],
            [("A", "B"), ("B", "C"), ("C", "D")],
            [("A", "B", "C"), ("C", "D"), ("A", "D")],
        ],
    )
    def test_agm_equals_polymatroid_bound(self, edges):
        h = Hypergraph.from_edges(edges)
        sizes = {frozenset(e): N for e in edges}
        cc = ConstraintSet([cardinality(e, N) for e in edges])
        agm = agm_log_bound(h, sizes)
        poly = log_size_bound(
            h.vertices, frozenset(h.vertices), cc
        ).log_value
        assert agm == poly

    def test_modular_equals_polymatroid_under_cc(self):
        # Lemma 3.1: the modularization lemma.
        h = Hypergraph.from_edges([("A", "B"), ("B", "C"), ("A", "C")])
        cc = ConstraintSet([cardinality(e, N) for e in h.edges])
        poly = log_size_bound(h.vertices, frozenset(h.vertices), cc).log_value
        modular = log_size_bound(
            h.vertices, frozenset(h.vertices), cc, function_class="modular"
        ).log_value
        assert poly == modular

    def test_subadditive_is_weaker(self):
        # SAn relaxes Γn, so its bound can only be larger (Eq. 43 = integral).
        h = Hypergraph.from_edges([("A", "B"), ("B", "C"), ("A", "C")])
        cc = ConstraintSet([cardinality(e, N) for e in h.edges])
        poly = log_size_bound(h.vertices, frozenset(h.vertices), cc).log_value
        subadd = log_size_bound(
            h.vertices, frozenset(h.vertices), cc, function_class="subadditive"
        ).log_value
        assert subadd >= poly
        sizes = {e: N for e in h.edges}
        assert subadd == integral_edge_cover_log_bound(h, sizes)


class TestDisjunctiveBounds:
    def test_example_14_bound(self):
        cc = ConstraintSet(
            [cardinality(e, N) for e in [("A1", "A2"), ("A2", "A3"), ("A3", "A4")]]
        )
        targets = [frozenset(("A1", "A2", "A3")), frozenset(("A2", "A3", "A4"))]
        b = log_size_bound(VARS4, targets, cc)
        assert b.log_value == 6  # N^{3/2}
        assert b.lambda_weights[targets[0]] == F(1, 2)
        assert b.lambda_weights[targets[1]] == F(1, 2)
        assert sum(b.lambda_weights.values()) == 1

    def test_single_target_equals_full_query(self):
        cc = _cc()
        as_rule = log_size_bound(VARS4, [frozenset(VARS4)], cc)
        as_query = log_size_bound(VARS4, frozenset(VARS4), cc)
        assert as_rule.log_value == as_query.log_value

    def test_disjunction_never_exceeds_single_target(self):
        cc = _cc()
        targets = [frozenset(("A1", "A2", "A3")), frozenset(("A2", "A3", "A4"))]
        disjunctive = log_size_bound(VARS4, targets, cc).log_value
        single = log_size_bound(VARS4, targets[0], cc).log_value
        assert disjunctive <= single

    def test_scipy_backend_agrees(self):
        cc = _cc()
        targets = [frozenset(("A1", "A2", "A3")), frozenset(("A2", "A3", "A4"))]
        exact = log_size_bound(VARS4, targets, cc).log_value
        approx = log_size_bound(VARS4, targets, cc, backend="scipy").log_value
        assert exact == approx


class TestTargetForms:
    """Any one set is one target; a bare variable name is refused.

    Triangle with |R| = |S| = |T| = 100: the one-target bound is 100^{3/2}
    (log ≈ 9.97); read as three single-variable targets it would be 100.
    """

    UNIVERSE = ("A", "B", "C")

    def _cc(self):
        return ConstraintSet(
            [cardinality(e, 100) for e in [("A", "B"), ("B", "C"), ("A", "C")]]
        )

    def test_plain_set_is_one_target(self):
        expected = log_size_bound(self.UNIVERSE, frozenset(self.UNIVERSE), self._cc())
        assert expected.log_value > F(9)
        for target in (set(self.UNIVERSE), {"A": 1, "B": 1, "C": 1}.keys()):
            result = log_size_bound(self.UNIVERSE, target, self._cc())
            assert result.log_value == expected.log_value
            assert result.targets == (frozenset(self.UNIVERSE),)

    def test_batched_solver_reads_targets_the_same_way(self):
        from repro.planner.batch import BatchedBoundSolver

        solver = BatchedBoundSolver(self.UNIVERSE, self._cc())
        expected = log_size_bound(self.UNIVERSE, frozenset(self.UNIVERSE), self._cc())
        assert solver.solve(set(self.UNIVERSE)).log_value == expected.log_value

    @pytest.mark.parametrize("targets", [("A", "B", "C"), ["A"], ("AB",)])
    def test_variable_names_raise(self, targets):
        with pytest.raises(LPError, match="variable name"):
            log_size_bound(self.UNIVERSE, targets, self._cc())

    def test_empty_target_list_raises(self):
        with pytest.raises(LPError, match="at least one target"):
            log_size_bound(self.UNIVERSE, [], self._cc())


class TestTheorem13Gap:
    """Polymatroid vs entropic on the Zhang–Yeung query (Theorem 1.3)."""

    def test_gap_exists(self):
        query, constraints = zhang_yeung_query(2)  # logN = 1
        universe = tuple(sorted(query.variable_set))
        gap = polymatroid_vs_entropic_gap(
            universe, frozenset(universe), constraints
        )
        assert gap.polymatroid.log_value == 4
        assert gap.zy_outer.log_value < 4
        # The paper's hand-derived certificate gives 43/11; the LP over all
        # instantiations can only be tighter.
        assert gap.zy_outer.log_value <= F(43, 11)
        assert gap.has_gap

    def test_gap_scales_with_log_n(self):
        query, constraints = zhang_yeung_query(4)  # logN = 2
        universe = tuple(sorted(query.variable_set))
        poly = log_size_bound(universe, frozenset(universe), constraints)
        assert poly.log_value == 8  # 4 * logN


class TestLemma45Gap:
    """The 15-target disjunctive rule (Eq. 65) under uniform cardinalities."""

    def test_polymatroid_bound_is_4_log_n(self):
        rule = lemma_4_5_rule()
        constraints = lemma_4_5_constraints(2)  # logN = 1, |R_i| <= 8
        universe = tuple(sorted(rule.variable_set))
        bound = log_size_bound(
            universe, list(rule.targets), constraints, backend="scipy"
        )
        assert bound.log_value == 4

    def test_entropic_outer_bound_below_4(self):
        rule = lemma_4_5_rule()
        constraints = lemma_4_5_constraints(2)
        universe = tuple(sorted(rule.variable_set))
        zy = log_size_bound(
            universe,
            list(rule.targets),
            constraints,
            function_class="polymatroid+zy",
            backend="scipy",
        )
        # Paper: entropic <= 330/85 < 4; the all-instantiation LP is tighter
        # than or equal to the paper's certificate.
        assert zy.log_value < 4


class TestNormalizedConstraints:
    def test_edge_dominated_rows(self):
        h = _four_cycle()
        rows = edge_dominated_constraints(h)
        assert len(rows) == 4
        assert all(row.log_bound == 1 for row in rows)

    def test_constraints_to_log_preserves_origin(self):
        cc = _cc()
        rows = constraints_to_log(cc)
        assert all(row.origin is not None for row in rows)
