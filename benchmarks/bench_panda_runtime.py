"""E13 — Theorem 1.7: PANDA's intermediates never exceed the budget 2^OBJ.

Paper claims: PANDA computes a model in O~(N + polylog·2^OBJ), where
OBJ = LogSizeBound_{Γn∩H_DC}.  The bench runs PANDA over a family of rules ×
instance shapes and asserts, for every run, (i) the model is valid, (ii) all
intermediate relations are within 2^OBJ, (iii) the model's tables stay within
polylog·2^OBJ.
"""

import math

from repro.core.constraints import ConstraintSet, DegreeConstraint
from repro.core.panda import panda
from repro.datalog import parse_rule
from repro.instances import instance_b_fullsize, path_rule
from repro.relational import Database, Relation

from _bench_utils import print_table


def _skew_db(n: int, pattern: str) -> Database:
    shapes = {
        "uniform": lambda: [(i, i % int(math.isqrt(n))) for i in range(n)],
        "star": lambda: [(i, 0) for i in range(n)],
        "costar": lambda: [(0, i) for i in range(n)],
    }
    maker = shapes[pattern]
    return Database(
        [
            Relation.from_pairs("R12", "A1", "A2", shapes["star"]()),
            Relation.from_pairs("R23", "A2", "A3", shapes["costar"]()),
            Relation.from_pairs("R34", "A3", "A4", maker()),
        ]
    )


def test_panda_budget_compliance(benchmark):
    rows = []
    rule = path_rule()
    for n in (32, 64, 128):
        for pattern in ("uniform", "star", "costar"):
            db = _skew_db(n, pattern)
            result = panda(rule, db)
            assert rule.is_model(result.model, db)
            assert result.stats.max_intermediate <= result.budget + 1e-9
            polylog = max(1.0, 2 * math.log2(n))
            assert result.model.max_size <= result.budget * polylog
            rows.append(
                [n, pattern, f"{result.budget:.0f}",
                 result.stats.max_intermediate, result.model.max_size,
                 result.stats.restarts]
            )
    print_table(
        "Theorem 1.7: PANDA budget compliance across instance shapes",
        ["N", "shape", "2^OBJ", "max intermediate", "model size", "restarts"],
        rows,
    )

    benchmark(lambda: panda(rule, _skew_db(64, "uniform")))


def test_panda_degree_constraints_shrink_budget(benchmark):
    """Degree constraints reduce OBJ and PANDA exploits them (Ex. 1.2(b)).

    ``R12`` is full-size (``|R12| = N``) but degree-``D``-bounded, so the
    degree constraints carry information the cardinalities do not: the bound
    drops from the AGM ``N**2`` to ``D*N^{3/2}`` (Example 1.2(b)).
    """
    n, d = 64, 2
    db = instance_b_fullsize(n, d)
    rule = parse_rule(
        "T(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"
    )
    plain = panda(rule, db)
    with_dc = panda(
        rule,
        db,
        constraints=db.extract_cardinalities().with_constraints(
            [
                DegreeConstraint.make(("A1",), ("A1", "A2"), d),
                DegreeConstraint.make(("A2",), ("A1", "A2"), d),
            ]
        ),
    )
    print_table(
        "Degree constraints shrink the PANDA budget (instance (b), N=64, D=2)",
        ["constraints", "OBJ (log2)", "budget"],
        [
            ["cardinalities only", str(plain.log_value), f"{plain.budget:.0f}"],
            ["+ degree bounds", str(with_dc.log_value), f"{with_dc.budget:.0f}"],
        ],
    )
    assert with_dc.log_value < plain.log_value
    assert rule.is_model(with_dc.model, db)

    benchmark(lambda: panda(rule, db, constraints=db.extract_cardinalities()))
