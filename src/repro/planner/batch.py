"""Batched bound solves over one shared :class:`PolymatroidProgram`.

``dasubw_plan`` runs one bound LP per selector image and ``dafhtw_plan`` one
per candidate bag — all over the *same* universe and degree constraints.
Before the planner landed, every one of those calls rebuilt the full LP
(elemental submodularity/monotonicity rows plus degree rows) from scratch.
:class:`BatchedBoundSolver` holds a single program per ``(universe, DC,
function class)``: the shared rows are assembled once and cloned per target
set (see :meth:`LPModel.clone <repro.lp.model.LPModel.clone>`), and solved
target sets are memoized so textually repeated bound queries are free.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import Iterable, Sequence

from repro.bounds.polymatroid import (
    BoundResult,
    LogConstraint,
    PolymatroidProgram,
    constraints_to_log,
    target_sets,
)
from repro.core.constraints import ConstraintSet, DegreeConstraint

__all__ = ["BatchedBoundSolver"]


class BatchedBoundSolver:
    """Solve many bound queries against one shared polymatroid program.

    Target order is preserved exactly as given (LP row order determines the
    exact dual witness, and callers — notably ``panda()`` — expect the same
    pivot sequence a from-scratch build would produce); the memo key is the
    ordered target tuple.
    """

    def __init__(
        self,
        universe: Sequence[str],
        constraints: ConstraintSet | Iterable[DegreeConstraint | LogConstraint],
        function_class: str = "polymatroid",
    ) -> None:
        rows: list[LogConstraint] = []
        for constraint in constraints:
            if isinstance(constraint, LogConstraint):
                rows.append(constraint)
            else:
                rows.extend(constraints_to_log([constraint]))
        self.program = PolymatroidProgram(universe, rows, function_class)
        self._results: dict[tuple, BoundResult] = {}

    @property
    def solves(self) -> int:
        """Number of distinct LPs actually solved (memo misses)."""
        return len(self._results)

    def solve(self, targets: Sequence[AbstractSet] | AbstractSet) -> BoundResult:
        """``max_h min_B h(B)`` for the target set, memoized (exact LP)."""
        target_list = target_sets(targets)
        key = tuple(tuple(sorted(t)) for t in target_list)
        result = self._results.get(key)
        if result is None:
            result = self.program.maximize(target_list)
            self._results[key] = result
        return result
