"""End-to-end integration tests crossing all subsystems."""

import math
from fractions import Fraction

import pytest

from repro.bounds import log_size_bound
from repro.core.constraints import ConstraintSet, cardinality
from repro.core.panda import panda
from repro.core.query_plans import dafhtw_plan, dasubw_plan, panda_full_query
from repro.datalog import DisjunctiveRule, parse_query
from repro.decompositions import tree_decompositions, selector_images
from repro.flows import construct_proof_sequence, flow_from_bound
from repro.instances import (
    GroupSystem,
    Subspace,
    cycle_query,
    random_database,
)
from repro.relational import Database, Relation
from repro.widths import degree_aware_subw, submodular_width


class TestFiveCyclePipeline:
    """The 5-cycle stresses TD enumeration (5 decompositions, Catalan C_3)."""

    @pytest.fixture(scope="class")
    def db(self):
        schema = [
            (f"R{i + 1}{(i + 1) % 5 + 1}", (f"A{i + 1}", f"A{(i + 1) % 5 + 1}"))
            for i in range(5)
        ]
        return random_database(schema, size=24, domain=8, seed=42)

    def test_subw_value(self):
        q = cycle_query(5)
        assert submodular_width(q.hypergraph()) == Fraction(5, 3)

    def test_full_query_via_panda(self, db):
        q = cycle_query(5)
        oracle = q.evaluate_naive(db)
        assert panda_full_query(q, db).relation == oracle

    def test_dafhtw_plan(self, db):
        q = cycle_query(5)
        oracle = q.evaluate_naive(db)
        assert dafhtw_plan(q, db).relation == oracle

    def test_boolean_dasubw(self, db):
        q = cycle_query(5, boolean=True)
        oracle = len(q.evaluate_naive(db)) > 0
        # The Cor. 7.13 machinery is sound for any non-empty decomposition
        # subset (the Claim 2 argument is internal to the chosen set); the
        # full 5-TD set spawns ~200 selector images, so restrict to two for
        # test speed.
        tds = tree_decompositions(q.hypergraph())[:2]
        result = dasubw_plan(q, db, decompositions=tds)
        assert result.boolean == oracle

    def test_selector_image_count(self):
        q = cycle_query(5)
        tds = tree_decompositions(q.hypergraph())
        images = selector_images(tds)
        # 5 decompositions of 3 bags each; images are deduplicated.
        assert 5 <= len(images) <= 3**5


class TestThreeTargetRule:
    """A disjunctive rule with three targets over the 4-cycle body."""

    RULE = DisjunctiveRule(
        (
            frozenset(("A1", "A2", "A3")),
            frozenset(("A2", "A3", "A4")),
            frozenset(("A1", "A3", "A4")),
        ),
        cycle_query(4).body,
        name="P3",
    )

    def test_bound_and_model(self, rng):
        from _helpers import four_cycle_database

        db = four_cycle_database(rng, 32)
        result = panda(self.RULE, db)
        assert self.RULE.is_model(result.model, db)
        # Three overlapping targets relax the bound vs any single target.
        single = log_size_bound(
            ("A1", "A2", "A3", "A4"),
            frozenset(("A1", "A2", "A3")),
            db.extract_cardinalities(),
        )
        assert result.log_value <= single.log_value

    def test_proof_sequence_roundtrip(self, rng):
        from _helpers import four_cycle_database

        db = four_cycle_database(rng, 32)
        bound = log_size_bound(
            ("A1", "A2", "A3", "A4"),
            list(self.RULE.targets),
            db.extract_cardinalities(),
        )
        ineq, witness, _ = flow_from_bound(bound)
        sequence = construct_proof_sequence(ineq, witness)
        sequence.verify(ineq)


class TestGroupSystemEndToEnd:
    """Group system -> database -> PANDA -> model vs entropy certificate."""

    def test_triangle_group_system(self):
        # G = F_3^2 with A = x, B = y, C = x + y: the AGM-tight-style triangle.
        p = 3
        gs = GroupSystem(
            p,
            2,
            {
                "A": Subspace.coordinates(p, 2, [0]),
                "B": Subspace.coordinates(p, 2, [1]),
                "C": Subspace.kernel_of_functional(p, 2, [1, 1]),
            },
        )
        db = Database(
            [
                gs.relation(("A", "B"), name="R"),
                gs.relation(("B", "C"), name="S"),
                gs.relation(("A", "C"), name="T"),
            ]
        )
        q = parse_query("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")
        out = q.evaluate_naive(db)
        # Each binary relation is the full p×p grid (any two of x, y, x+y are
        # independent), so this is exactly the AGM-tight triangle: output
        # p³ = (p²)^{3/2} = AGM bound.
        assert len(out) == p**3
        for relation in db:
            assert len(relation) == p * p
        # The system's own entropy profile is the uniform-over-G one, h(ABC)
        # = 2·log p — a lower-bound certificate within the entropic region.
        h = gs.entropy()
        assert float(2 ** float(h(("A", "B", "C")))) == pytest.approx(p * p)
        result = panda_full_query(q, db)
        assert result.relation == out


class TestStatisticsDrivenPipeline:
    """Extract constraints from data, then bound and evaluate with them."""

    def test_extracted_constraints_tighten_bound(self, rng):
        from _helpers import four_cycle_database

        db = four_cycle_database(rng, 48, domain=8)
        q = cycle_query(4)
        variables = tuple(sorted(q.variable_set))
        cc_bound = log_size_bound(
            variables, frozenset(variables), db.extract_cardinalities()
        )
        full_stats = db.extract_degree_constraints()
        dc_bound = log_size_bound(
            variables, frozenset(variables), full_stats, backend="scipy"
        )
        # Non-power-of-two sizes make log2 rationalization inexact at ~1e-9;
        # compare with a tolerance far above that noise floor.
        assert dc_bound.log_value <= cc_bound.log_value + Fraction(1, 1000)
        actual = len(q.evaluate_naive(db))
        assert actual <= dc_bound.value * (1 + 1e-9)

    def test_da_subw_with_extracted_stats(self, rng):
        from _helpers import four_cycle_database

        db = four_cycle_database(rng, 32, domain=8)
        q = cycle_query(4)
        h = q.hypergraph()
        stats = db.extract_degree_constraints()
        cc = db.extract_cardinalities()
        assert degree_aware_subw(h, stats, backend="scipy") <= degree_aware_subw(
            h, cc, backend="scipy"
        )


class TestDeterminism:
    """The whole pipeline is deterministic: same inputs, same outputs."""

    def test_panda_deterministic(self, rng):
        from _helpers import path3_database
        from repro.instances import path_rule

        db = path3_database(rng, 40)
        rule = path_rule()
        first = panda(rule, db)
        second = panda(rule, db)
        assert [t.tuples for t in first.model.tables] == [
            t.tuples for t in second.model.tables
        ]
        assert first.proof_sequence_length == second.proof_sequence_length

    def test_bound_deterministic(self):
        cc = ConstraintSet(
            cardinality(e, 16)
            for e in [("A1", "A2"), ("A2", "A3"), ("A3", "A4"), ("A1", "A4")]
        )
        values = {
            log_size_bound(
                ("A1", "A2", "A3", "A4"),
                frozenset(("A1", "A2", "A3", "A4")),
                cc,
            ).log_value
            for _ in range(3)
        }
        assert len(values) == 1
