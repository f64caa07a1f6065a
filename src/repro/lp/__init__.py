"""Linear-programming substrate (architecture layer 2 — ``docs/architecture.md``).

Two backends behind one modelling interface:

* :mod:`repro.lp.simplex` — exact rational two-phase simplex (primal + dual),
  the source of truth for Shannon-flow witnesses and PANDA budgets; on the
  vectorized backend it first certifies, in exact arithmetic, the optimum
  that :mod:`repro.lp.proposer`'s float replay of its pivots proposes;
* :mod:`repro.lp.scipy_backend` — HiGHS float backend for the larger width
  LPs that only need values.

Use :class:`repro.lp.model.LPModel` to build LPs over named variables.
"""

from repro.lp.model import LPModel, LPSolution
from repro.lp.simplex import SimplexResult, solve_max

__all__ = ["LPModel", "LPSolution", "SimplexResult", "solve_max"]
