"""Tests for the PANDA algorithm (Algorithm 1 / Theorem 1.7)."""

import math

import pytest

from repro.core.constraints import ConstraintSet, DegreeConstraint, cardinality
from repro.core.panda import panda
from repro.datalog import parse_rule
from repro.exceptions import PandaError
from repro.instances import instance_a, instance_b, instance_c, path_rule
from repro.relational import Database, Relation

from _helpers import four_cycle_database, path3_database


RULE_14 = parse_rule(
    "T123(A1,A2,A3) | T234(A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4)"
)


class TestExample14:
    def test_model_valid_on_random_instances(self, rng):
        for trial in range(3):
            db = path3_database(rng, 48)
            result = panda(RULE_14, db)
            assert RULE_14.is_model(result.model, db)

    def test_intermediates_within_budget(self, rng):
        db = path3_database(rng, 64)
        result = panda(RULE_14, db)
        assert result.stats.max_intermediate <= result.budget + 1e-9

    def test_bound_value(self, rng):
        db = path3_database(rng, 64)
        # With |R| <= 64 the bound is N^{3/2} = 2^9.
        cc = ConstraintSet(
            [
                cardinality(("A1", "A2"), 64),
                cardinality(("A2", "A3"), 64),
                cardinality(("A3", "A4"), 64),
            ]
        )
        result = panda(RULE_14, db, constraints=cc)
        assert result.log_value == 9
        assert RULE_14.is_model(result.model, db)

    def test_worst_case_path_instance(self):
        n = 64
        db = Database(
            [
                Relation.from_pairs("R12", "A1", "A2", [(i, 0) for i in range(n)]),
                Relation.from_pairs("R23", "A2", "A3", [(0, i) for i in range(n)]),
                Relation.from_pairs("R34", "A3", "A4", [(i, 0) for i in range(n)]),
            ]
        )
        result = panda(RULE_14, db)
        assert RULE_14.is_model(result.model, db)
        # The body join has N^2 tuples but the model stays within N^{3/2}·polylog.
        body = RULE_14.body_join(db)
        assert len(body) == n * n
        assert result.model.max_size <= result.budget * (
            2 * math.log2(n) + 2
        )

    def test_statistics_populated(self, rng):
        db = path3_database(rng, 48)
        result = panda(RULE_14, db)
        assert result.proof_sequence_length > 0
        assert result.stats.steps_executed > 0
        assert result.stats.base_cases >= 1


class TestFullQueryRules:
    def test_four_cycle_full_rule(self, rng):
        rule = parse_rule(
            "T(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"
        )
        db = four_cycle_database(rng, 48)
        result = panda(rule, db)
        assert rule.is_model(result.model, db)
        # Single-target model must contain the body join's projection.
        body = rule.body_join(db)
        table = result.model.tables[0]
        assert {body.key_of(row, table.schema) for row in body} <= table.tuples

    def test_triangle_rule(self, rng):
        rule = parse_rule("T(A,B,C) :- R(A,B), S(B,C), U(A,C)")
        rows = lambda: {(rng.randrange(8), rng.randrange(8)) for _ in range(30)}
        db = Database(
            [
                Relation.from_pairs("R", "A", "B", rows()),
                Relation.from_pairs("S", "B", "C", rows()),
                Relation.from_pairs("U", "A", "C", rows()),
            ]
        )
        result = panda(rule, db)
        assert rule.is_model(result.model, db)

    def test_degree_constrained_run(self):
        # Appendix A instance (b): degree-bounded R12 band.
        n, d = 64, 2
        db = instance_b(n, d)
        rule = parse_rule(
            "T(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"
        )
        constraints = db.extract_cardinalities().with_constraints(
            [
                DegreeConstraint.make(("A1",), ("A1", "A2"), d),
                DegreeConstraint.make(("A2",), ("A1", "A2"), d),
            ]
        )
        result = panda(rule, db, constraints=constraints)
        assert rule.is_model(result.model, db)


class TestAppendixAInstances:
    def test_instance_a_output_matches_bound(self):
        n = 16
        db = instance_a(n)
        rule = parse_rule(
            "T(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"
        )
        result = panda(rule, db)
        # AGM bound N^2 and the instance realizes it exactly.
        body = rule.body_join(db)
        assert len(body) == n * n
        assert result.budget >= n * n

    def test_instance_c_fd_bound(self):
        n = 64
        db = instance_c(n)
        k = int(math.isqrt(n))
        rule = parse_rule(
            "T(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"
        )
        body = rule.body_join(db)
        assert len(body) == k**3  # N^{3/2} output

    def test_instance_b_output(self):
        n, d = 64, 2
        db = instance_b(n, d)
        k = int(math.isqrt(n))
        rule = parse_rule(
            "T(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"
        )
        body = rule.body_join(db)
        assert len(body) == d * k**3  # D * N^{3/2}


class TestPandaEdgeCases:
    def test_degenerate_zero_bound_falls_back_to_scan_model(self):
        rule = parse_rule("T(A) :- R(A)")
        db = Database([Relation("R", ("A",), [(1,)])])
        result = panda(rule, db)  # |R| = 1 gives OBJ = 0
        assert result.log_value == 0
        assert rule.is_model(result.model, db)
        assert result.model.max_size <= 1

    def test_unguarded_constraint_raises(self):
        db = Database(
            [
                Relation.from_pairs("R12", "A1", "A2", [(1, 2), (3, 4)]),
                Relation.from_pairs("R23", "A2", "A3", [(2, 5), (4, 6)]),
                Relation.from_pairs("R34", "A3", "A4", [(5, 7), (6, 8)]),
            ]
        )
        lying = ConstraintSet(
            [
                cardinality(("A1", "A2"), 1),  # false: |R12| = 2
                cardinality(("A2", "A3"), 4),
                cardinality(("A3", "A4"), 4),
            ]
        )
        with pytest.raises(PandaError):
            panda(RULE_14, db, constraints=lying)

    def test_empty_relation_model(self):
        db = Database(
            [
                Relation.from_pairs("R12", "A1", "A2", [(1, 2), (2, 2)]),
                Relation.from_pairs("R23", "A2", "A3", []),
                Relation.from_pairs("R34", "A3", "A4", [(1, 2), (2, 2)]),
            ]
        )
        cc = ConstraintSet(
            [
                cardinality(("A1", "A2"), 2),
                cardinality(("A2", "A3"), 2),
                cardinality(("A3", "A4"), 2),
            ]
        )
        result = panda(RULE_14, db, constraints=cc)
        assert RULE_14.is_model(result.model, db)


class TestCase4bRestarts:
    def test_worst_case_triggers_restart_and_stays_valid(self):
        n = 64
        db = Database(
            [
                Relation.from_pairs("R12", "A1", "A2", [(i, 0) for i in range(n)]),
                Relation.from_pairs("R23", "A2", "A3", [(0, i) for i in range(n)]),
                Relation.from_pairs("R34", "A3", "A4", [(i, 0) for i in range(n)]),
            ]
        )
        result = panda(RULE_14, db)
        assert result.stats.restarts >= 1
        assert RULE_14.is_model(result.model, db)

    def test_restart_instances_across_skews(self, rng):
        n = 32
        shapes = [
            ([(i, 0) for i in range(n)], [(0, i) for i in range(n)], [(i, i) for i in range(n)]),
            ([(i, i) for i in range(n)], [(i, 0) for i in range(n)], [(0, i) for i in range(n)]),
            ([(0, i) for i in range(n)], [(i, 0) for i in range(n)], [(0, i) for i in range(n)]),
        ]
        for r12, r23, r34 in shapes:
            db = Database(
                [
                    Relation.from_pairs("R12", "A1", "A2", r12),
                    Relation.from_pairs("R23", "A2", "A3", r23),
                    Relation.from_pairs("R34", "A3", "A4", r34),
                ]
            )
            result = panda(RULE_14, db)
            assert RULE_14.is_model(result.model, db)
