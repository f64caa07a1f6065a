"""Named-variable linear-program builder.

All LPs in the paper are naturally indexed by *sets of query variables* (the
coordinates of a set function ``h``) and by *constraint identities* (a degree
constraint, an elemental submodularity, a monotonicity).  This module provides
a small modelling layer that lets the bound/width/flow code build LPs over
hashable variable and constraint names, solve them with either the exact
rational simplex or the scipy backend, and read primal/dual values back by
name.

Example:
    >>> from fractions import Fraction
    >>> m = LPModel()
    >>> m.add_variable("x", objective=1)
    >>> m.add_variable("y", objective=1)
    >>> m.add_le_constraint("cap", {"x": 1, "y": 2}, Fraction(4))
    >>> sol = m.maximize()
    >>> sol.objective
    Fraction(4, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

from repro.exceptions import LPError
from repro.lp import simplex

__all__ = ["LPModel", "LPSolution"]


@dataclass(frozen=True)
class LPSolution:
    """Solution of a named LP.

    Attributes:
        objective: optimal objective value.
        values: optimal value of each named variable.
        duals: optimal dual value of each named constraint (``>= 0``; duals of
            ``<=`` rows of a maximization).
        pivots: exact simplex pivots performed: 0 when the float proposal
            was certified (vectorized backend) and for the scipy backend.
    """

    objective: Fraction
    values: dict[Hashable, Fraction]
    duals: dict[Hashable, Fraction]
    pivots: int = 0

    def nonzero_duals(self) -> dict[Hashable, Fraction]:
        """Return only the constraints with a strictly positive dual value."""
        return {name: v for name, v in self.duals.items() if v > 0}


class LPModel:
    """A maximization LP ``max c'x : Ax <= b, x >= 0`` over named entities.

    Variables and constraints are identified by arbitrary hashable names
    (frozensets of query variables, constraint dataclasses, strings...).
    Insertion order is preserved, which makes solutions deterministic.
    """

    def __init__(self) -> None:
        self._var_index: dict[Hashable, int] = {}
        self._objective: list[Fraction] = []
        self._con_names: list[Hashable] = []
        self._con_seen: set[Hashable] = set()
        self._con_rows: list[dict[int, Fraction]] = []
        self._con_rhs: list[Fraction] = []

    # -- construction ---------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._var_index)

    @property
    def num_constraints(self) -> int:
        return len(self._con_names)

    def variables(self) -> list[Hashable]:
        """Return variable names in insertion order."""
        return list(self._var_index)

    def add_variable(self, name: Hashable, objective: Fraction | int = 0) -> None:
        """Register a non-negative variable with the given objective weight."""
        if name in self._var_index:
            raise LPError(f"duplicate variable {name!r}")
        self._var_index[name] = len(self._objective)
        self._objective.append(Fraction(objective))

    def has_variable(self, name: Hashable) -> bool:
        return name in self._var_index

    def set_objective(self, name: Hashable, coefficient: Fraction | int) -> None:
        """Overwrite the objective coefficient of an existing variable."""
        self._objective[self._require(name)] = Fraction(coefficient)

    def add_le_constraint(
        self,
        name: Hashable,
        coefficients: Mapping[Hashable, Fraction | int],
        rhs: Fraction | int,
    ) -> None:
        """Add ``sum coefficients[v] * v <= rhs`` (zero coefficients dropped)."""
        if name in self._con_seen:
            raise LPError(f"duplicate constraint {name!r}")
        row: dict[int, Fraction] = {}
        var_index = self._var_index
        for var, coef in coefficients.items():
            if not coef:
                continue
            # Fractions are immutable: reuse caller-held instances (the LP
            # builders feed cached per-universe-size rows) instead of
            # re-allocating one Fraction per coefficient.
            value = coef if type(coef) is Fraction else Fraction(coef)
            try:
                row[var_index[var]] = value
            except KeyError:
                raise LPError(f"unknown variable {var!r}") from None
        self._con_names.append(name)
        self._con_seen.add(name)
        self._con_rows.append(row)
        self._con_rhs.append(rhs if type(rhs) is Fraction else Fraction(rhs))

    def clone(
        self,
        prefix_constraints: Iterable[
            tuple[Hashable, Mapping[Hashable, Fraction | int], Fraction | int]
        ] = (),
    ) -> "LPModel":
        """A copy of the model, optionally with constraints *prepended*.

        The copy shares this model's (immutable-by-convention) row dicts, so
        cloning a large base model costs list copies only — the batched bound
        solvers build the class/degree rows once per universe and clone per
        target set.  ``prefix_constraints`` rows (``(name, coefficients,
        rhs)``) are inserted *before* the existing rows, preserving the row
        order the exact simplex pivots on; their names must not collide with
        existing constraint names.
        """
        out = LPModel.__new__(LPModel)
        out._var_index = dict(self._var_index)
        out._objective = list(self._objective)
        out._con_names = []
        out._con_seen = set()
        out._con_rows = []
        out._con_rhs = []
        for name, coefficients, rhs in prefix_constraints:
            if name in self._con_seen:
                raise LPError(f"duplicate constraint {name!r}")
            out.add_le_constraint(name, coefficients, rhs)
        out._con_names.extend(self._con_names)
        out._con_seen.update(self._con_seen)
        out._con_rows.extend(self._con_rows)
        out._con_rhs.extend(self._con_rhs)
        return out

    def _require(self, name: Hashable) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise LPError(f"unknown variable {name!r}") from None

    # -- solving --------------------------------------------------------------------

    def maximize(self, backend: str = "exact") -> LPSolution:
        """Solve the model.

        Args:
            backend: ``"exact"`` for the rational simplex (exact optimum and
                duals); ``"scipy"`` for the HiGHS float backend (fast, used by
                the large width LPs).

        Returns:
            The :class:`LPSolution`.
        """
        if backend == "exact":
            return self._maximize_exact()
        if backend == "scipy":
            from repro.lp.scipy_backend import maximize_with_scipy

            return maximize_with_scipy(self)
        raise LPError(f"unknown backend {backend!r}")

    def _maximize_exact(self) -> LPSolution:
        result = simplex.solve_max_sparse(
            self._con_rows, self._con_rhs, self._objective
        )
        values = {name: result.x[j] for name, j in self._var_index.items()}
        duals = {
            name: result.y[i] for i, name in enumerate(self._con_names)
        }
        return LPSolution(result.objective, values, duals, pivots=result.pivots)

    # -- introspection (used by the scipy backend and tests) -------------------------

    def dense_data(
        self,
    ) -> tuple[list[list[Fraction]], list[Fraction], list[Fraction]]:
        """Return ``(A, b, c)`` in dense form with variables in insertion order."""
        n = len(self._objective)
        a = []
        for row in self._con_rows:
            dense = [Fraction(0)] * n
            for j, coef in row.items():
                dense[j] = coef
            a.append(dense)
        return a, list(self._con_rhs), list(self._objective)

    def sparse_data(
        self,
    ) -> tuple[list[dict[int, Fraction]], list[Fraction], list[Fraction]]:
        """Return ``(rows, b, c)`` with rows as ``{column: coefficient}`` dicts.

        The row dicts are the model's internal storage — treat them as
        read-only (the exact backend shares them the same way; copying
        thousands of 2^n-column rows per solve would double assembly cost).
        """
        return (self._con_rows, list(self._con_rhs), list(self._objective))

    def constraint_names(self) -> list[Hashable]:
        return list(self._con_names)

    def check_feasible(
        self, values: Mapping[Hashable, Fraction], tolerance: Fraction = Fraction(0)
    ) -> bool:
        """Check whether a named assignment satisfies all constraints."""
        index_to_name = {j: v for v, j in self._var_index.items()}
        for row, rhs in zip(self._con_rows, self._con_rhs):
            total = sum(
                (coef * Fraction(values.get(index_to_name[j], 0)) for j, coef in row.items()),
                Fraction(0),
            )
            if total > rhs + tolerance:
                return False
        return True


def lp_from_rows(
    rows: Iterable[tuple[Hashable, Mapping[Hashable, Fraction], Fraction]],
    objective: Mapping[Hashable, Fraction],
) -> LPModel:
    """Convenience constructor: build a model from constraint rows.

    Variables are created on first use (in objective order first).
    """
    model = LPModel()
    for var, coef in objective.items():
        model.add_variable(var, coef)
    for name, coeffs, rhs in rows:
        for var in coeffs:
            if not model.has_variable(var):
                model.add_variable(var, 0)
        model.add_le_constraint(name, coeffs, rhs)
    return model
