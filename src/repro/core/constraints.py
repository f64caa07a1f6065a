"""Degree, cardinality, and functional-dependency constraints (Def. 1.1, 2.10).

A *degree constraint* is a triple ``(X, Y, N_{Y|X})`` with ``X ⊂ Y ⊆ [n]``,
asserting that in some guard relation ``R_F`` (``Y ⊆ F``) every ``X``-tuple
has at most ``N_{Y|X}`` distinct ``Y``-extensions:

    deg_F(A_Y | A_X) = max_t |Π_{A_Y}(σ_{A_X = t}(R_F))|  <=  N_{Y|X}.

Special cases:

* cardinality constraint ``|R_F| <= N_F``       — ``X = ∅, Y = F``;
* functional dependency ``A_X -> A_Y``          — ``N_{X∪Y|X} = 1``.

All LP work happens in log₂-space; :func:`log2_fraction` converts ``N`` to an
exact rational when ``N`` is a power of two (the benchmarks use power-of-two
sizes precisely so the whole pipeline stays exact) and to a tight rational
approximation otherwise.  The approximation never threatens *correctness*:
Shannon-flow validity depends only on dual feasibility, which is independent
of the objective coefficients (see Prop. 5.4 and DESIGN.md §4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from repro.exceptions import ConstraintError

__all__ = [
    "DegreeConstraint",
    "ConstraintSet",
    "cardinality",
    "functional_dependency",
    "log2_fraction",
]

#: Denominator cap for non-power-of-two log approximations.
_LOG_DENOMINATOR_LIMIT = 10**9


@lru_cache(maxsize=4096)
def log2_fraction(n: int) -> Fraction:
    """Return ``log2(n)`` as a Fraction (exact when ``n`` is a power of two).

    Cached: PANDA's budget checks evaluate the same guard bounds thousands of
    times per run, and ``limit_denominator`` is not cheap.

    Raises:
        ConstraintError: if ``n < 1``.
    """
    if n < 1:
        raise ConstraintError(f"bounds must be >= 1, got {n}")
    if n & (n - 1) == 0:
        return Fraction(n.bit_length() - 1)
    return Fraction(math.log2(n)).limit_denominator(_LOG_DENOMINATOR_LIMIT)


@dataclass(frozen=True, order=True)
class DegreeConstraint:
    """A degree constraint ``(X, Y, N_{Y|X})``.

    ``order=True`` sorts constraints deterministically (by the sorted-key
    fields below), which keeps LP row order — and hence simplex pivots and
    proof sequences — reproducible.

    Attributes:
        x_key: sorted tuple of the conditioning variables ``X``.
        y_key: sorted tuple of the determined variables ``Y``.
        bound: the integer bound ``N_{Y|X} >= 1``.
    """

    x_key: tuple[str, ...]
    y_key: tuple[str, ...]
    bound: int

    def __post_init__(self) -> None:
        x, y = frozenset(self.x_key), frozenset(self.y_key)
        if tuple(sorted(self.x_key)) != self.x_key or tuple(sorted(self.y_key)) != self.y_key:
            raise ConstraintError("x_key/y_key must be sorted tuples; use .make()")
        if not x < y:
            raise ConstraintError(
                f"degree constraint needs X ⊂ Y, got X={sorted(x)} Y={sorted(y)}"
            )
        if self.bound < 1:
            raise ConstraintError(f"bound must be >= 1, got {self.bound}")

    @classmethod
    def make(cls, x: Iterable[str], y: Iterable[str], bound: int) -> "DegreeConstraint":
        """Build a constraint from arbitrary iterables of variable names."""
        return cls(tuple(sorted(set(x))), tuple(sorted(set(y))), bound)

    # -- views ----------------------------------------------------------------

    @property
    def x(self) -> frozenset:
        """The conditioning set ``X`` (empty for cardinality constraints)."""
        return frozenset(self.x_key)

    @property
    def y(self) -> frozenset:
        """The determined set ``Y``."""
        return frozenset(self.y_key)

    @property
    def log_bound(self) -> Fraction:
        """``n_{Y|X} = log2 N_{Y|X}`` as an (exact when possible) rational."""
        return log2_fraction(self.bound)

    @property
    def is_cardinality(self) -> bool:
        """True for ``(∅, F, N_F)`` constraints."""
        return not self.x_key

    @property
    def is_functional_dependency(self) -> bool:
        """True for degree bound 1, i.e. the FD ``A_X -> A_Y``."""
        return self.bound == 1

    def __str__(self) -> str:
        x = ",".join(self.x_key) or "∅"
        y = ",".join(self.y_key)
        return f"deg({y}|{x}) <= {self.bound}"


def cardinality(variables: Iterable[str], bound: int) -> DegreeConstraint:
    """Cardinality constraint ``|R_F| <= bound`` on the atom over ``variables``."""
    return DegreeConstraint.make((), variables, bound)


def functional_dependency(x: Iterable[str], y: Iterable[str]) -> DegreeConstraint:
    """The FD ``A_X -> A_Y`` as the degree constraint ``(X, X∪Y, 1)``."""
    x_set = frozenset(x)
    y_set = frozenset(y) | x_set
    return DegreeConstraint.make(x_set, y_set, 1)


class ConstraintSet:
    """An ordered collection ``DC`` of degree constraints.

    Duplicate ``(X, Y)`` pairs are allowed on input but only the smallest
    bound per pair is kept: larger bounds are dominated both in the LP (only
    the tightest row can be binding) and in PANDA (a guard for the tightest
    bound guards the looser ones).
    """

    def __init__(self, constraints: Iterable[DegreeConstraint] = ()) -> None:
        best: dict[tuple[tuple[str, ...], tuple[str, ...]], DegreeConstraint] = {}
        for constraint in constraints:
            key = (constraint.x_key, constraint.y_key)
            current = best.get(key)
            if current is None or constraint.bound < current.bound:
                best[key] = constraint
        self._constraints: tuple[DegreeConstraint, ...] = tuple(
            sorted(best.values())
        )

    # -- container protocol -----------------------------------------------------

    def __iter__(self) -> Iterator[DegreeConstraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __contains__(self, constraint: DegreeConstraint) -> bool:
        return constraint in self._constraints

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return self._constraints == other._constraints

    def __hash__(self) -> int:
        return hash(self._constraints)

    # -- queries ------------------------------------------------------------------

    def variables(self) -> frozenset:
        """All variables mentioned by some constraint."""
        out: set[str] = set()
        for constraint in self._constraints:
            out |= constraint.y
        return frozenset(out)

    def closure(self) -> frozenset:
        """The variables the constraints bound: the closure of ∅ under the
        ``X -> Y`` pairs.

        The constraints bound ``h`` on every subset of the closure.  On any
        other set, ``h(S) = t·[S ⊄ closure]`` is a polymatroid that meets
        every constraint for every ``t``, so the bound there is infinite.
        """
        closed: frozenset = frozenset()
        grown = True
        while grown:
            grown = False
            for constraint in self._constraints:
                if constraint.x <= closed and not constraint.y <= closed:
                    closed |= constraint.y
                    grown = True
        return closed

    def lookup(self, x: frozenset, y: frozenset) -> DegreeConstraint | None:
        """Return the (tightest) constraint with exactly this ``(X, Y)``, if any."""
        for constraint in self._constraints:
            if constraint.x == x and constraint.y == y:
                return constraint
        return None

    def cardinalities(self) -> "ConstraintSet":
        """The sub-collection of cardinality constraints."""
        return ConstraintSet(c for c in self._constraints if c.is_cardinality)

    def only_cardinalities(self) -> bool:
        return all(c.is_cardinality for c in self._constraints)

    def with_constraint(self, constraint: DegreeConstraint) -> "ConstraintSet":
        """A new set with one more constraint (tightest-per-pair kept)."""
        return ConstraintSet((*self._constraints, constraint))

    def with_constraints(self, extra: Iterable[DegreeConstraint]) -> "ConstraintSet":
        return ConstraintSet((*self._constraints, *extra))

    def scaled(self, k: int) -> "ConstraintSet":
        """The scaled-up constraints ``DC × k`` of §4.2 (all bounds to the k-th power).

        The paper multiplies log-bounds by ``k``; on integer bounds that is
        raising ``N`` to the ``k``-th power.
        """
        return ConstraintSet(
            DegreeConstraint(c.x_key, c.y_key, c.bound**k) for c in self._constraints
        )

    def max_finite_bound(self) -> int:
        """``N`` of Eq. (27): the largest bound among the constraints (or 1)."""
        return max((c.bound for c in self._constraints), default=1)

    def __str__(self) -> str:
        return "{" + "; ".join(str(c) for c in self._constraints) + "}"

    def __repr__(self) -> str:
        return f"ConstraintSet({list(self._constraints)!r})"
