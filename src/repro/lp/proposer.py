"""Float basis proposal for the exact simplex (the numpy arm of layer 2).

:func:`propose` replays :mod:`repro.lp.simplex`'s own pivot rule on one dense
float64 tableau of ``max c'x : Ax <= b, x >= 0``, started from the slack
basis: the entering column is the smallest index with a negative reduced
cost (Bland), and the leaving row has the minimum ratio, ties broken by the
smallest basis index.  It therefore ends on the basis the exact simplex would
end on, at a fraction of the cost, and hands over a primal/dual pair *as
Fractions*.  Nothing here is trusted: :func:`repro.lp.simplex.solve_max_sparse`
certifies the pair in exact arithmetic and runs the rational simplex whenever
the certificate fails, so no float ever reaches a witness value.

The dual ``y`` is rationalized from the slack reduced costs.  The primal is
not: right-hand sides are log₂ cardinalities with ~10⁹ denominators, so a
rationalized ``x`` is almost never exact.  Instead, for every distinct non-zero
right-hand side ``v`` the structural basic columns are solved, over the rows
whose slack is nonbasic, against the indicator of ``v``; each solution has the
small denominators of a 0/±1 basis and is rationalized, and
``x = Σ v·z_v`` is formed exactly.

numpy is optional (the ``fast`` extra); the solver imports this module only
when :func:`repro.relational.backend.current_backend` reads ``"vectorized"``,
which already implies numpy is importable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

try:  # optional extra: `pip install repro-panda[fast]`
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without the extra
    np = None

__all__ = ["propose", "rationalize"]

#: Denominator cap when converting float LP output back to Fractions.  The
#: optima encountered in this package (widths, bound exponents) have tiny
#: denominators; 10^6 leaves a huge safety margin while suppressing float fuzz.
_DENOMINATOR_LIMIT = 10**6

#: Magnitude below which a reduced cost, pivot coefficient or ratio gap is
#: float noise.  Tableau entries of the repo's LPs are small rationals, so
#: real gaps sit many orders of magnitude above it.
_TOLERANCE = 1e-9

#: Pivot cap, per row plus column, past which the replay gives up.
_PIVOTS_PER_DIMENSION = 10


def rationalize(value: float, limit: int = _DENOMINATOR_LIMIT) -> Fraction:
    """Convert a float to a nearby small-denominator Fraction."""
    return Fraction(value).limit_denominator(limit)


def propose(
    rows: Sequence[Mapping[int, Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> tuple[list[Fraction], list[Fraction]] | None:
    """Propose an optimal ``(x, y)`` for ``max c'x : Ax <= b, x >= 0``.

    Returns ``None`` when numpy is missing, when some ``b < 0`` (the exact
    solver's phase 1 would be needed), on an unbounded column, on a singular
    basis solve, or when the pivot cap is hit.  The caller must certify any
    returned pair before trusting it.
    """
    m, n = len(rows), len(c)
    if np is None or any(v < 0 for v in b):
        return None
    a = np.zeros((m, n))
    for i, row in enumerate(rows):
        for j, coef in row.items():
            a[i, j] = float(coef)
    # The condensed (Tucker) tableau: row i reads
    # ``x[basic[i]] + Σ_s tableau[i, s] · x[nonbasic[s]] = rhs[i]`` and the
    # objective ``z + Σ_s reduced[s] · x[nonbasic[s]] = z0``, so ``reduced``
    # holds the exact solver's reduced costs of the nonbasic columns.
    tableau = a.copy()
    rhs = np.array([float(v) for v in b])
    reduced = np.array([-float(v) for v in c])
    basic = np.arange(n, n + m)
    nonbasic = np.arange(n)
    for _ in range(_PIVOTS_PER_DIMENSION * (n + m)):
        negative = np.flatnonzero(reduced < -_TOLERANCE)
        if not len(negative):
            break
        col = negative[np.argmin(nonbasic[negative])]
        column = tableau[:, col].copy()
        candidates = np.flatnonzero(column > _TOLERANCE)
        if not len(candidates):
            return None
        ratios = rhs[candidates] / column[candidates]
        best = ratios.min()
        ties = candidates[ratios <= best + _TOLERANCE * (1 + abs(best))]
        row = ties[np.argmin(basic[ties])]
        pivot = column[row]
        pivot_row = tableau[row] / pivot
        pivot_rhs = rhs[row] / pivot
        tableau -= np.outer(column, pivot_row)
        tableau[:, col] = -column / pivot
        tableau[row] = pivot_row
        tableau[row, col] = 1.0 / pivot
        rhs -= column * pivot_rhs
        rhs[row] = pivot_rhs
        entering = reduced[col]
        reduced -= entering * pivot_row
        reduced[col] = -entering / pivot
        basic[row], nonbasic[col] = nonbasic[col], basic[row]
    else:
        return None
    y = [Fraction(0)] * m
    tight = []
    for label, value in zip(nonbasic.tolist(), reduced.tolist()):
        if label >= n:
            y[label - n] = rationalize(value)
            tight.append(label - n)
    x = [Fraction(0)] * n
    structural = [j for j in basic.tolist() if j < n]
    if structural:
        tight.sort()
        levels: dict[Fraction, list[float]] = {}
        for k, i in enumerate(tight):
            if b[i]:
                levels.setdefault(b[i], [0.0] * len(tight))[k] = 1.0
        if levels:
            try:
                z = np.linalg.solve(
                    a[np.ix_(tight, structural)], np.array(list(levels.values())).T
                )
            except np.linalg.LinAlgError:
                return None
            for k, level in enumerate(levels):
                for j, value in zip(structural, z[:, k].tolist()):
                    x[j] += level * rationalize(value)
    return x, y
