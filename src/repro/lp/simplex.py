"""Exact rational simplex solver (sparse, integer-pivoting tableau).

The paper's machinery (Shannon-flow witnesses, proof sequences, PANDA budgets)
requires *exact rational* primal and dual solutions of linear programs: the
proof-sequence construction of Theorem 5.9 manipulates dual coordinates with a
common denominator ``D``, and Definition 5.7's non-negativity conditions are
meaningless under floating-point noise.  This module therefore implements a
two-phase primal simplex with Bland's anti-cycling rule whose every decision
is made in exact arithmetic.

The solver handles the canonical form

    maximize    c' x
    subject to  A x <= b
                x >= 0

with arbitrary-sign ``b`` (phase 1 introduces artificial variables for rows
whose slack basis would be infeasible).  On success it reports the exact
optimal objective, an optimal basic primal solution ``x``, and the associated
dual solution ``y`` (one value per constraint row, ``y >= 0``), read off the
reduced costs of the slack columns.  Strong duality ``c'x = b'y`` is asserted
before returning.

**Representation.**  The LPs solved here are mask-indexed set-function
programs: elemental Shannon rows carry at most four nonzero coefficients among
``2^n`` columns, so rows are stored sparsely as ``{column: int}`` dicts.  To
avoid :class:`~fractions.Fraction` object overhead in the pivot inner loop,
each row ``i`` is kept as an integer numerator vector ``N_i`` with a single
positive integer denominator ``D_i`` (``row == N_i / D_i`` exactly).  Pivoting
on ``(r, c)`` with ``p = N_r[c]`` updates ``N_k <- N_k * p - N_k[c] * N_r``
and ``D_k <- D_k * p`` followed by a gcd reduction — pure machine-integer
arithmetic, no intermediate rounding anywhere.

Pivot *selection* (Bland's smallest-index entering column on reduced-cost
signs; minimum-ratio leaving row via cross-multiplication with a smallest
basis-index tie-break) compares exactly the same rational quantities as a
plain Fraction tableau, so the pivot sequence — and hence the reported
optimal basis, primal values, and duals — is identical to the historical
dense rational implementation, just much faster.

**Certified proposals.**  On the vectorized backend
:func:`solve_max_sparse` first takes a primal/dual pair from
:mod:`repro.lp.proposer` (a float64 replay of these same Bland pivots) and
accepts it only if :func:`_certify` proves it optimal in exact arithmetic;
otherwise the simplex runs as above.  Either way the returned values are
exact, and the certificate lives here so RL-EXACT covers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from repro.exceptions import InfeasibleError, LPError, UnboundedError
from repro.relational.backend import current_backend

__all__ = ["SimplexResult", "solve_max", "solve_max_sparse"]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class SimplexResult:
    """Exact optimal solution of ``max c'x : Ax <= b, x >= 0``.

    Attributes:
        objective: the optimal objective value ``c'x``.
        x: optimal primal solution, one value per structural variable.
        y: optimal dual solution, one value per constraint row.  ``y`` is
            feasible for the dual ``min b'y : A'y >= c, y >= 0`` and satisfies
            strong duality ``b'y == objective``.
        pivots: number of exact simplex pivots performed (both phases);
            0 when a certified float proposal answered the LP.
    """

    objective: Fraction
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    pivots: int = field(default=0, compare=False)


class _Tableau:
    """Sparse integer-pivoting simplex tableau (see module docstring).

    Column layout: ``n`` structural variables, then ``m`` slacks, then any
    artificial variables appended by phase 1.  Row ``i`` represents the exact
    rational row ``nums[i] / dens[i]`` with ``dens[i] > 0``; the column basic
    in row ``i`` (``basis[i]``) always has real value 1, i.e.
    ``nums[i][basis[i]] == dens[i]``.
    """

    def __init__(
        self,
        rows: Sequence[Mapping[int, Fraction]],
        b: Sequence[Fraction],
        n: int,
    ):
        self.m = len(rows)
        self.n = n
        self.nums: list[dict[int, int]] = []
        self.dens: list[int] = []
        self.rhs: list[int] = []
        self.basis: list[int] = []
        self.pivots = 0
        for i in range(self.m):
            coeffs = {j: Fraction(v) for j, v in rows[i].items() if v}
            rhs = Fraction(b[i])
            if coeffs:
                den = lcm(
                    rhs.denominator,
                    *(v.denominator for v in coeffs.values()),
                )
            else:
                den = rhs.denominator
            num = {j: int(v * den) for j, v in coeffs.items()}
            num[self.n + i] = den  # slack column, real coefficient 1
            self.nums.append(num)
            self.dens.append(den)
            self.rhs.append(int(rhs * den))
            self.basis.append(self.n + i)
        self.ncols = self.n + self.m

    # -- real-value accessors --------------------------------------------------------

    def real_rhs(self, i: int) -> Fraction:
        return Fraction(self.rhs[i], self.dens[i])

    # -- elementary row operations -------------------------------------------------

    def _pivot(self, row: int, col: int) -> None:
        """Make ``col`` basic in ``row`` by exact integer Gaussian elimination."""
        nums = self.nums
        pivot_row = nums[row]
        p = pivot_row[col]
        pivot_items = list(pivot_row.items())
        pivot_rhs = self.rhs[row]
        for i in range(self.m):
            if i == row:
                continue
            target = nums[i]
            f = target.get(col)
            if not f:
                continue
            # The whole row is rescaled by p (its denominator becomes D*p),
            # then the pivot row is subtracted at its nonzero columns.
            target = {j: v * p for j, v in target.items()}
            for j, pv in pivot_items:
                value = target.get(j, 0) - f * pv
                if value:
                    target[j] = value
                else:
                    target.pop(j, None)
            nums[i] = target
            self.rhs[i] = self.rhs[i] * p - f * pivot_rhs
            den = self.dens[i] * p
            if den < 0:
                den = -den
                nums[i] = target = {j: -v for j, v in target.items()}
                self.rhs[i] = -self.rhs[i]
            # gcd-reduce once entries outgrow a machine word; reducing on
            # every pivot costs more gcd calls than the big-int ops it saves.
            if den.bit_length() > 64:
                g = gcd(den, self.rhs[i])
                for v in target.values():
                    if g == 1:
                        break
                    g = gcd(g, v)
                if g > 1:
                    den //= g
                    self.rhs[i] //= g
                    nums[i] = {j: v // g for j, v in target.items()}
            self.dens[i] = den
        # The pivot row itself is renormalized so ``col`` has real value 1:
        # new real row = old row / real_pivot, i.e. numerators unchanged with
        # denominator ``p`` (the old row denominator cancels exactly).
        if p < 0:
            nums[row] = {j: -v for j, v in pivot_row.items()}
            self.rhs[row] = -pivot_rhs
            p = -p
        g = gcd(p, self.rhs[row])
        for v in nums[row].values():
            if g == 1:
                break
            g = gcd(g, v)
        if g > 1:
            self.dens[row] = p // g
            self.rhs[row] //= g
            nums[row] = {j: v // g for j, v in nums[row].items()}
        else:
            self.dens[row] = p
        self.basis[row] = col
        self.pivots += 1

    # -- the core optimizer ---------------------------------------------------------

    def optimize(self, cost: list[int], allowed: int) -> tuple[list[int], int]:
        """Run primal simplex with Bland's rule on columns ``< allowed``.

        Args:
            cost: *integer* objective coefficients (maximization), length
                ``>= allowed``; callers pre-scale rational objectives.
            allowed: number of leading columns eligible to enter the basis.

        Returns:
            ``(zbar, scale)`` where ``zbar[j] / scale`` is the exact reduced
            cost ``c_B B^{-1} A_j - c_j`` at optimum (``scale > 0``, so signs
            are directly readable from ``zbar``).

        Raises:
            UnboundedError: if an entering column has no blocking row.
        """
        while True:
            zbar, scale = self._reduced_costs(cost)
            entering = -1
            for j in range(allowed):
                if zbar[j] < 0:
                    entering = j  # Bland: smallest index with negative zbar.
                    break
            if entering < 0:
                return zbar, scale
            leaving = self._ratio_test(entering)
            if leaving < 0:
                raise UnboundedError(
                    f"objective unbounded along column {entering}"
                )
            self._pivot(leaving, entering)

    def _reduced_costs(self, cost: list[int]) -> tuple[list[int], int]:
        """Compute ``zbar[j] = scale * (c_basis . B^-1 A_j - cost[j])`` exactly.

        ``scale`` is the lcm of the denominators of rows with a costed basic
        variable, so the returned vector is integral with positive scale.
        """
        ncost = len(cost)
        scale = 1
        for i in range(self.m):
            basic = self.basis[i]
            if basic < ncost and cost[basic]:
                scale = lcm(scale, self.dens[i])
        zbar = [-cost[j] * scale if j < ncost else 0 for j in range(self.ncols)]
        for i in range(self.m):
            basic = self.basis[i]
            cb = cost[basic] if basic < ncost else 0
            if not cb:
                continue
            mult = cb * (scale // self.dens[i])
            for j, v in self.nums[i].items():
                zbar[j] += mult * v
        return zbar, scale

    def _ratio_test(self, col: int) -> int:
        """Bland-compatible minimum-ratio test; returns the leaving row.

        The candidate ratio of row ``i`` is ``rhs[i] / nums[i][col]`` (the
        row denominator cancels); candidates need real coefficient > 0, and
        comparisons cross-multiply with positive denominators.
        """
        best_row = -1
        best_num = 0  # ratio numerator (rhs) of current best
        best_coef = 0  # ratio denominator (positive pivot coefficient)
        for i in range(self.m):
            coef = self.nums[i].get(col, 0)
            if coef <= 0:
                continue
            num = self.rhs[i]
            if best_row < 0:
                better = True
                tie = False
            else:
                lhs = num * best_coef
                rhs = best_num * coef
                better = lhs < rhs
                tie = lhs == rhs
            if better or (tie and self.basis[i] < self.basis[best_row]):
                best_row = i
                best_num = num
                best_coef = coef
        return best_row

    # -- phase 1 --------------------------------------------------------------------

    def make_feasible(self) -> None:
        """Restore ``rhs >= 0`` via artificial variables and a phase-1 solve."""
        negative_rows = [i for i in range(self.m) if self.rhs[i] < 0]
        if not negative_rows:
            return
        # Flip infeasible rows and give each an artificial basic column.
        art_cols: list[int] = []
        for i in negative_rows:
            self.nums[i] = {j: -v for j, v in self.nums[i].items()}
            self.rhs[i] = -self.rhs[i]
        for i in negative_rows:
            col = self.ncols + len(art_cols)
            art_cols.append(col)
            self.nums[i][col] = self.dens[i]  # real coefficient 1
            self.basis[i] = col
        self.ncols += len(art_cols)
        # Phase 1: maximize -(sum of artificials).
        phase1_cost = [0] * self.ncols
        for col in art_cols:
            phase1_cost[col] = -1
        self.optimize(phase1_cost, allowed=self.ncols)
        art_set = set(art_cols)
        infeasibility = sum(
            (self.real_rhs(i) for i in range(self.m) if self.basis[i] in art_set),
            _ZERO,
        )
        if infeasibility != _ZERO:
            raise InfeasibleError("phase 1 terminated with positive artificials")
        # Drive any degenerate artificial out of the basis.
        limit = self.n + self.m
        for i in range(self.m):
            if self.basis[i] not in art_set:
                continue
            candidates = [j for j in self.nums[i] if j < limit and self.nums[i][j]]
            if candidates:
                self._pivot(i, min(candidates))
            # A fully zero row is redundant; its artificial stays basic at 0,
            # which is harmless for phase 2 (cost 0, never entering).
        # Truncate artificial columns.
        for i in range(self.m):
            row = self.nums[i]
            for j in [j for j in row if j >= limit]:
                del row[j]
        self.ncols = limit


def _certify(
    rows: Sequence[Mapping[int, Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
    x: Sequence[Fraction],
    y: Sequence[Fraction],
) -> SimplexResult | None:
    """The optimality certificate of a proposed primal/dual pair, exactly.

    ``x`` and ``y`` are optimal iff ``y >= 0``, ``A'y >= c``, ``x >= 0``,
    ``Ax <= b`` and ``c'x == b'y`` (weak duality closes the gap).  Returns
    the pair as a :class:`SimplexResult` with ``pivots=0`` (no exact pivot
    ran), or ``None`` when any check fails.
    """
    if any(v < 0 for v in y) or any(v < 0 for v in x):
        return None
    dual_slack = [-v for v in c]  # A'y - c
    for i, yi in enumerate(y):
        if yi:
            for j, coef in rows[i].items():
                dual_slack[j] += coef * yi
    if any(v < 0 for v in dual_slack):
        return None
    for i, row in enumerate(rows):
        if sum((coef * x[j] for j, coef in row.items() if x[j]), _ZERO) > b[i]:
            return None
    objective = sum((c[j] * v for j, v in enumerate(x) if v), _ZERO)
    if sum((b[i] * yi for i, yi in enumerate(y) if yi), _ZERO) != objective:
        return None
    return SimplexResult(objective, tuple(x), tuple(y), pivots=0)


def solve_max_sparse(
    rows: Sequence[Mapping[int, Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> SimplexResult:
    """Solve ``max c'x : Ax <= b, x >= 0`` exactly from sparse constraint rows.

    Args:
        rows: one ``{column index: coefficient}`` mapping per constraint; the
            number of structural variables is ``len(c)``.
        b: right-hand sides, one per row.
        c: objective coefficients (defines the column count).

    Returns:
        A :class:`SimplexResult` with exact optimal primal and dual solutions.

    Raises:
        InfeasibleError: if no ``x >= 0`` satisfies ``Ax <= b``.
        UnboundedError: if the objective is unbounded above.
        LPError: on dimension mismatches.
    """
    m = len(rows)
    n = len(c)
    if len(b) != m:
        raise LPError(f"b has length {len(b)}, expected {m}")
    for i, row in enumerate(rows):
        for j in row:
            if not 0 <= j < n:
                raise LPError(f"row {i} references column {j}, expected 0..{n - 1}")
    c_frac = [Fraction(v) for v in c]
    if m == 0:
        # No constraints: optimum is 0 iff c <= 0, else unbounded.
        if any(v > _ZERO for v in c_frac):
            raise UnboundedError("no constraints and a positive cost coefficient")
        return SimplexResult(_ZERO, tuple(_ZERO for _ in range(n)), ())

    b_frac = [Fraction(v) for v in b]
    if current_backend() == "vectorized":
        from repro.lp.proposer import propose

        proposal = propose(rows, b_frac, c_frac)
        if proposal is not None:
            certified = _certify(rows, b_frac, c_frac, *proposal)
            if certified is not None:
                return certified
    tableau = _Tableau(rows, b_frac, n)
    tableau.make_feasible()
    # Scale the objective to integers; positive scaling preserves every
    # reduced-cost sign, so pivoting is unaffected and duals divide it out.
    c_scale = lcm(1, *(v.denominator for v in c_frac)) if c_frac else 1
    cost = [int(v * c_scale) for v in c_frac] + [0] * tableau.m
    zbar, zscale = tableau.optimize(cost, allowed=tableau.ncols)

    x = [_ZERO] * n
    objective = _ZERO
    for i in range(tableau.m):
        col = tableau.basis[i]
        if col < n:
            value = tableau.real_rhs(i)
            x[col] = value
            objective += c_frac[col] * value
    # Dual values are the reduced costs of the slack columns.
    dual_den = c_scale * zscale
    y = tuple(Fraction(zbar[n + i], dual_den) for i in range(m))
    # Sanity: strong duality must hold exactly.
    dual_objective = sum((b_frac[i] * y[i] for i in range(m)), _ZERO)
    if dual_objective != objective:
        raise LPError(
            "strong duality violated: primal "
            f"{objective} != dual {dual_objective} (solver bug)"
        )
    return SimplexResult(objective, tuple(x), y, pivots=tableau.pivots)


def solve_max(
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> SimplexResult:
    """Solve ``max c'x : Ax <= b, x >= 0`` exactly from a dense matrix.

    Args:
        a: constraint matrix with ``m`` rows and ``n`` columns (any values
            convertible to :class:`~fractions.Fraction`).
        b: right-hand sides, length ``m``.
        c: objective coefficients, length ``n``.

    Returns:
        A :class:`SimplexResult` with exact optimal primal and dual solutions.

    Raises:
        InfeasibleError: if no ``x >= 0`` satisfies ``Ax <= b``.
        UnboundedError: if the objective is unbounded above.
        LPError: on dimension mismatches.
    """
    n = len(c)
    for i, row in enumerate(a):
        if len(row) != n:
            raise LPError(f"row {i} has length {len(row)}, expected {n}")
    rows = [
        {j: Fraction(v) for j, v in enumerate(row) if Fraction(v)} for row in a
    ]
    return solve_max_sparse(rows, b, c)
