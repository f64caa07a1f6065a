"""Floating-point LP backend (scipy / HiGHS).

The exact rational simplex in :mod:`repro.lp.simplex` is the source of truth
for everything that feeds PANDA (witnesses, proof sequences).  Width
computations over larger hypergraphs (e.g. the Example 7.4 family, where the
set-function LP has ``2^n - 1`` variables) do not need exact duals, only
values; for those this module wraps :func:`scipy.optimize.linprog`.

Dual values are recovered from HiGHS marginals and rationalized with a small
denominator limit, because every LP in this package has a rational optimum
with small denominators (Cramer bound of Proposition B.13).
"""

from __future__ import annotations

from fractions import Fraction

try:  # optional extra: `pip install repro-panda[lp]`
    import numpy as np
    from scipy import sparse
    from scipy.optimize import linprog
except ImportError:  # pragma: no cover - exercised only without the extra
    np = sparse = linprog = None

from repro.exceptions import InfeasibleError, LPError, UnboundedError
from repro.lp.model import LPModel, LPSolution
from repro.lp.proposer import rationalize

__all__ = ["maximize_with_scipy", "rationalize"]


def maximize_with_scipy(model: LPModel) -> LPSolution:
    """Solve ``max c'x : Ax <= b, x >= 0`` with HiGHS and rationalize."""
    if linprog is None:
        raise LPError(
            "the floating-point LP backend needs numpy and scipy "
            "(pip install repro-panda[lp]); use backend='exact' instead"
        )
    a_rows, b, c = model.sparse_data()
    n = len(c)
    m = len(b)
    if n == 0:
        return LPSolution(Fraction(0), {}, {name: Fraction(0) for name in model.constraint_names()})
    c_vec = np.array([float(v) for v in c])
    b_vec = np.array([float(v) for v in b])
    if m:
        # Assemble the sparse rows straight into COO triplets — the model
        # stores {column: coefficient} dicts, so no dense detour is needed.
        row_idx: list[int] = []
        col_idx: list[int] = []
        data: list[float] = []
        for i, row in enumerate(a_rows):
            for j, coef in row.items():
                row_idx.append(i)
                col_idx.append(j)
                data.append(float(coef))
        a_mat = sparse.coo_matrix(
            (data, (row_idx, col_idx)), shape=(m, n)
        ).tocsr()
        result = linprog(
            -c_vec, A_ub=a_mat, b_ub=b_vec, bounds=(0, None), method="highs"
        )
    else:
        result = linprog(-c_vec, bounds=(0, None), method="highs")
    if result.status == 2:
        raise InfeasibleError("scipy/HiGHS reports infeasible")
    if result.status == 3:
        raise UnboundedError("scipy/HiGHS reports unbounded")
    if result.status != 0:
        raise LPError(f"scipy/HiGHS failed with status {result.status}: {result.message}")

    objective = rationalize(-float(result.fun))
    values = {
        name: rationalize(float(result.x[j]))
        for name, j in zip(model.variables(), range(n))
    }
    if m:
        marginals = result.ineqlin.marginals
        duals = {
            name: rationalize(max(0.0, -float(marginals[i])))
            for i, name in enumerate(model.constraint_names())
        }
    else:
        duals = {}
    return LPSolution(objective, values, duals)
