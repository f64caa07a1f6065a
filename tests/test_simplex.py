"""Tests for the exact rational simplex solver.

The edge cases and the randomized checks run on both execution backends: on
``"vectorized"`` a float replay of the simplex's pivots proposes the optimum
and an exact certificate accepts it (``pivots == 0``), and anything it cannot
certify falls back to the rational simplex; on ``"interpreted"`` the simplex
always runs.  Both arms must give the same result or the same exception type.
"""

from fractions import Fraction

import pytest

import repro.relational.backend as backend_module
from repro.exceptions import InfeasibleError, LPError, UnboundedError
from repro.lp.simplex import solve_max
from repro.relational.backend import have_numpy, scoped_backend

F = Fraction

ARMS = ("interpreted", "vectorized")


@pytest.fixture(params=ARMS)
def arm(request):
    """Run the test under each execution backend."""
    with scoped_backend(request.param):
        yield request.param


def _exact(a, b, c):
    with scoped_backend("interpreted"):
        return solve_max(a, b, c)



class TestBasicSolves:
    def test_single_variable(self):
        result = solve_max([[F(1)]], [F(5)], [F(1)])
        assert result.objective == 5
        assert result.x == (F(5),)
        assert result.y == (F(1),)

    def test_two_variable_symmetric(self):
        result = solve_max(
            [[F(1), F(2)], [F(2), F(1)]], [F(4), F(4)], [F(1), F(1)]
        )
        assert result.objective == F(8, 3)
        assert result.x == (F(4, 3), F(4, 3))

    def test_fractional_data(self):
        result = solve_max([[F(1, 2)]], [F(3, 4)], [F(2)])
        assert result.objective == F(3)

    def test_zero_objective(self):
        result = solve_max([[F(1)]], [F(5)], [F(0)])
        assert result.objective == 0

    def test_binding_vs_slack_constraint(self):
        # The second constraint is never binding.
        result = solve_max(
            [[F(1)], [F(1)]], [F(2), F(10)], [F(1)]
        )
        assert result.objective == 2
        assert result.y[0] == 1
        assert result.y[1] == 0

    def test_multiple_optima_still_optimal_value(self):
        result = solve_max(
            [[F(1), F(1)]], [F(1)], [F(1), F(1)]
        )
        assert result.objective == 1


class TestDuality:
    def test_strong_duality_holds(self):
        a = [[F(3), F(1)], [F(1), F(2)], [F(1), F(1)]]
        b = [F(9), F(8), F(5)]
        c = [F(2), F(3)]
        result = solve_max(a, b, c)
        dual = sum(bi * yi for bi, yi in zip(b, result.y))
        assert dual == result.objective

    def test_dual_feasibility(self):
        a = [[F(3), F(1)], [F(1), F(2)], [F(1), F(1)]]
        b = [F(9), F(8), F(5)]
        c = [F(2), F(3)]
        result = solve_max(a, b, c)
        for j in range(2):
            col = sum(a[i][j] * result.y[i] for i in range(3))
            assert col >= c[j]

    def test_dual_nonnegative(self):
        result = solve_max(
            [[F(1), F(-1)], [F(-1), F(1)], [F(1), F(1)]],
            [F(1), F(1), F(3)],
            [F(1), F(1)],
        )
        assert all(y >= 0 for y in result.y)


@pytest.mark.usefixtures("arm")
class TestEdgeCases:
    def test_unbounded_raises(self):
        with pytest.raises(UnboundedError):
            solve_max([[F(-1)]], [F(1)], [F(1)])

    def test_infeasible_raises(self):
        # x <= -1 with x >= 0 is infeasible.
        with pytest.raises(InfeasibleError):
            solve_max([[F(1)]], [F(-1)], [F(1)])

    def test_negative_rhs_feasible_phase1(self):
        # -x <= -2 means x >= 2; with x <= 5 the optimum of max x is 5.
        # A negative right-hand side needs phase 1: no proposal, the exact
        # simplex runs on both arms.
        result = solve_max([[F(-1)], [F(1)]], [F(-2), F(5)], [F(1)])
        assert result.objective == 5
        assert result.pivots > 0
        assert result == _exact([[F(-1)], [F(1)]], [F(-2), F(5)], [F(1)])

    def test_negative_rhs_minimization_encoding(self):
        # min x s.t. x >= 2 encoded as max -x with -x <= -2.
        result = solve_max([[F(-1)]], [F(-2)], [F(-1)])
        assert result.objective == -2
        assert result.pivots > 0

    def test_dimension_mismatch(self):
        with pytest.raises(LPError):
            solve_max([[F(1), F(2)]], [F(1)], [F(1)])

    def test_no_constraints_zero_cost(self):
        result = solve_max([], [], [F(0), F(-1)])
        assert result.objective == 0

    def test_no_constraints_positive_cost_unbounded(self):
        with pytest.raises(UnboundedError):
            solve_max([], [], [F(1)])

    def test_degenerate_pivoting_terminates(self):
        # Classic degenerate LP (Beale-like); Bland's rule must terminate.
        a = [
            [F(1, 4), F(-8), F(-1), F(9)],
            [F(1, 2), F(-12), F(-1, 2), F(3)],
            [F(0), F(0), F(1), F(0)],
        ]
        b = [F(0), F(0), F(1)]
        c = [F(3, 4), F(-20), F(1, 2), F(-6)]
        result = solve_max(a, b, c)
        assert result.objective == F(5, 4)
        assert result == _exact(a, b, c)  # objective, x and y


class TestRandomizedDuality:
    def test_random_lps_satisfy_strong_duality(self, rng, arm):
        certified = 0
        for _ in range(25):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = [
                [F(rng.randint(0, 6)) for _ in range(n)] for _ in range(m)
            ]
            # Ensure boundedness: every variable capped.
            for j in range(n):
                if all(a[i][j] == 0 for i in range(m)):
                    a[0][j] = F(1)
            b = [F(rng.randint(1, 20)) for _ in range(m)]
            c = [F(rng.randint(0, 5)) for _ in range(n)]
            result = solve_max(a, b, c)
            dual = sum(bi * yi for bi, yi in zip(b, result.y))
            assert dual == result.objective
            # Primal feasibility.
            for i in range(m):
                assert sum(a[i][j] * result.x[j] for j in range(n)) <= b[i]
            # The same optimal vertex and duals as the exact simplex.
            exact = _exact(a, b, c)
            assert result == exact  # objective, x and y
            certified += exact.pivots > 0 and result.pivots == 0
        if arm == "vectorized" and have_numpy():
            assert certified > 0


class TestMissingNumpy:
    def test_vectorized_without_numpy_runs_the_exact_simplex(self, monkeypatch):
        a = [[F(3), F(1)], [F(1), F(2)], [F(1), F(1)]]
        b = [F(9), F(8), F(5)]
        c = [F(2), F(3)]
        expected = _exact(a, b, c)
        monkeypatch.setattr(backend_module, "_numpy", None)
        monkeypatch.setattr(backend_module, "_numpy_checked", True)
        with scoped_backend("vectorized"):
            result = solve_max(a, b, c)
        assert result.pivots == expected.pivots > 0
        assert result == expected
