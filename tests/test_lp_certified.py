"""The certified LP path: a float Bland replay proposes, exact arithmetic checks.

On the vectorized backend :func:`repro.lp.simplex.solve_max_sparse` replays
the exact simplex's pivot rule in float64 (:mod:`repro.lp.proposer`) and
certifies the proposed primal/dual pair in ``Fraction``; the rational simplex
runs only when that fails.  These tests pin that the bound LPs of the paper's
cycles and of the ledger's planning workload are certified with no exact
pivot, and that the certified answer is the simplex's answer field by field —
so witnesses, proof sequences and PANDA counters cannot move between the two
backends.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.bounds.polymatroid import PolymatroidProgram, constraints_to_log
from repro.core import Hypergraph, cardinality
from repro.core.constraints import ConstraintSet, DegreeConstraint
from repro.decompositions.enumeration import tree_decompositions
from repro.decompositions.selectors import selector_images
from repro.lp import proposer
from repro.lp.simplex import _certify, solve_max_sparse
from repro.planner.signature import rule_signature
from repro.relational.backend import have_numpy, scoped_backend

requires_numpy = pytest.mark.skipif(not have_numpy(), reason="numpy not installed")

SRC = Path(__file__).resolve().parents[1] / "src"

F = Fraction


def _cycle(length: int, size: int):
    variables = [f"A{i}" for i in range(1, length + 1)]
    edges = [(variables[i], variables[(i + 1) % length]) for i in range(length)]
    return Hypergraph.from_edges(edges), ConstraintSet(
        [cardinality(edge, size) for edge in edges]
    )


def _example_1_2_degree():
    """Example 1.2 (b): the 4-cycle with N = 16 and degree bound D = 2."""
    hypergraph, constraints = _cycle(4, 16)
    return hypergraph, constraints.with_constraints(
        [
            DegreeConstraint.make(("A1",), ("A1", "A2"), 2),
            DegreeConstraint.make(("A2",), ("A1", "A2"), 2),
        ]
    )


INSTANCES = {
    # plan_cold's 40-row 5-cycle and its planner.plan6 probe's 6-cycle:
    # log2(40) right-hand sides, the ~10^9-denominator case.
    "cycle5_plan_cold": lambda: _cycle(5, 40),
    "cycle6_plan6": lambda: _cycle(6, 40),
    "cycle4_example_1_2_degree": _example_1_2_degree,
}


def _bound_models(hypergraph, constraints):
    """The full-query bound LP plus one per bag-selector image (dasubw's rules),
    one per canonical signature — the LPs a cold planner solves."""
    universe = tuple(sorted(hypergraph.vertices))
    program = PolymatroidProgram(universe, constraints_to_log(constraints))
    target_lists = [[frozenset(universe)]] + [
        sorted(image, key=lambda bag: tuple(sorted(bag)))
        for image in selector_images(tree_decompositions(hypergraph))
    ]
    distinct = {
        rule_signature(universe, targets, constraints)[0]: targets
        for targets in target_lists
    }
    return [
        program._build([program.varmap.mask_of(t) for t in targets])
        for targets in distinct.values()
    ]


@requires_numpy
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_bound_lps_certified_with_the_simplex_answer(instance):
    models = _bound_models(*INSTANCES[instance]())
    assert len(models) > 1
    for model in models:
        with scoped_backend("interpreted"):
            exact = model.maximize()
        with scoped_backend("vectorized"):
            certified = model.maximize()
        assert exact.pivots > 0
        assert certified.pivots == 0
        assert certified.objective == exact.objective
        assert certified.values == exact.values
        assert certified.duals == exact.duals


@requires_numpy
def test_dasubw_op_imports_no_scipy_optimize():
    script = (
        "import sys\n"
        "from repro.datalog import parse_query\n"
        "from repro.planner import QueryEngine\n"
        "from repro.relational import Database, Relation\n"
        "q = parse_query('Q(A,B,C) :- R(A,B), S(B,C), T(A,C)')\n"
        "rows = [(i, (3 * i + 1) % 7) for i in range(20)]\n"
        "db = Database([Relation(n, s, rows) for n, s in "
        "[('R', ('A', 'B')), ('S', ('B', 'C')), ('T', ('A', 'C'))]])\n"
        "QueryEngine(q).execute(db, 'dasubw')\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC), "REPRO_BACKEND": "vectorized"},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "False"


class TestCertificate:
    """``_certify`` accepts exactly the optimal pairs; a rejected proposal
    falls back to the rational simplex.

    The LP is ``max 2x₀ + 3x₁`` under three rows, optimum 13 at
    ``x = (2, 3)``, ``y = (1/5, 7/5, 0)``.  Each rejected pair breaks one
    check and passes the other four.
    """

    ROWS = [{0: F(3), 1: F(1)}, {0: F(1), 1: F(2)}, {0: F(1), 1: F(1)}]
    B = [F(9), F(8), F(5)]
    C = [F(2), F(3)]
    X = [F(2), F(3)]
    Y = [F(1, 5), F(7, 5), F(0)]

    def _optimum(self):
        with scoped_backend("interpreted"):
            return solve_max_sparse(self.ROWS, self.B, self.C)

    def test_optimal_pair_is_certified(self):
        exact = self._optimum()
        assert (list(exact.x), list(exact.y)) == (self.X, self.Y)
        certified = _certify(self.ROWS, self.B, self.C, self.X, self.Y)
        assert certified == exact
        assert certified.pivots == 0

    @pytest.mark.parametrize(
        "x, y",
        [
            pytest.param(X, [F(2, 5), F(9, 5), F(-1)], id="negative_y"),
            pytest.param(X, [F(13, 9), F(0), F(0)], id="dual_infeasible"),
            pytest.param([F(5), F(1)], Y, id="primal_infeasible"),
            pytest.param([F(0), F(0)], Y, id="duality_gap"),
        ],
    )
    def test_non_optimal_pairs_are_rejected(self, x, y):
        assert _certify(self.ROWS, self.B, self.C, x, y) is None

    def test_negative_x_is_rejected(self):
        # max x₀ + x₁ : x₀ + x₁ <= 2; (-1, 3) meets the row and the objective.
        rows, b, c = [{0: F(1), 1: F(1)}], [F(2)], [F(1), F(1)]
        assert _certify(rows, b, c, [F(-1), F(3)], [F(1)]) is None

    @requires_numpy
    def test_rejected_proposal_runs_the_simplex(self, monkeypatch):
        monkeypatch.setattr(
            proposer, "propose", lambda rows, b, c: ([F(0)] * len(c), list(self.Y))
        )
        with scoped_backend("vectorized"):
            result = solve_max_sparse(self.ROWS, self.B, self.C)
        exact = self._optimum()
        assert result == exact
        assert result.pivots == exact.pivots > 0
