"""Polymatroid (and relaxed/strengthened) size bounds via linear programming.

This module realizes ``LogSizeBound_F(P)`` of Eq. (7) for the function classes
of Figure 3:

* ``F = Γn ∩ H_DC``   — the *polymatroid bound* (Eq. 9), via elemental Shannon
  inequalities;
* ``F = Γn ∩ H_DC ∩ ZY`` — the Zhang–Yeung-tightened outer bound on the
  *entropic bound* (Eq. 8), the device of Theorem 1.3;
* ``F = SAn ∩ H_DC``  — the subadditive relaxation (Prop. 3.2, Eq. 43);
* ``F = Mn ∩ H_DC``   — the modular restriction (Lemma 3.1, Prop. 7.3).

For a single target ``B`` the bound is a plain LP ``max h(B)``; for a
disjunctive rule with targets ``B`` the maximin objective ``max min_B h(B)``
is linearized as ``max w : w <= h(B)`` (Eq. 71), and the dual values of the
``w``-rows are exactly the λ-weights of Lemma 5.2/5.3.  The dual values of the
degree-constraint, submodularity, and monotonicity rows are the ``(δ, σ, μ)``
that witness the Shannon-flow inequality (Prop. 5.4) consumed by
:mod:`repro.flows`.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from repro.core.constraints import ConstraintSet, DegreeConstraint
from repro.core.hypergraph import Hypergraph
from repro.core.setfunctions import SetFunction, elemental_inequality_mask_rows
from repro.core.varmap import VarMap
from repro.exceptions import LPError
from repro.lp import LPModel

__all__ = [
    "LogConstraint",
    "BoundResult",
    "PolymatroidProgram",
    "log_size_bound",
    "constraints_to_log",
    "edge_dominated_constraints",
    "vertex_dominated_constraints",
    "target_sets",
    "FUNCTION_CLASSES",
]

FUNCTION_CLASSES = ("polymatroid", "polymatroid+zy", "subadditive", "modular")


@dataclass(frozen=True, order=True)
class LogConstraint:
    """A log-space degree constraint row ``h(Y) - h(X) <= log_bound``.

    Attributes:
        x_key / y_key: sorted variable tuples for ``X ⊂ Y``.
        log_bound: ``n_{Y|X}`` as an exact rational.
        origin: the integer-bound :class:`DegreeConstraint` it came from, if
            any (ED/VD normalizations have no integer origin).
    """

    x_key: tuple[str, ...]
    y_key: tuple[str, ...]
    log_bound: Fraction
    origin: DegreeConstraint | None = field(default=None, compare=False)

    @property
    def x(self) -> frozenset:
        return frozenset(self.x_key)

    @property
    def y(self) -> frozenset:
        return frozenset(self.y_key)

    @property
    def pair(self) -> tuple[frozenset, frozenset]:
        return (self.x, self.y)

    def __str__(self) -> str:
        x = ",".join(self.x_key) or "∅"
        return f"h({','.join(self.y_key)}|{x}) <= {self.log_bound}"


def constraints_to_log(
    constraints: ConstraintSet | Iterable[DegreeConstraint],
) -> list[LogConstraint]:
    """Convert integer degree constraints to log-space rows."""
    return [
        LogConstraint(c.x_key, c.y_key, c.log_bound, origin=c) for c in constraints
    ]


def edge_dominated_constraints(
    hypergraph: Hypergraph, scale: Fraction = Fraction(1)
) -> list[LogConstraint]:
    """The normalized ``scale · ED`` constraints ``h(F) <= scale`` (Def. 2.4)."""
    return [
        LogConstraint((), tuple(sorted(edge)), Fraction(scale))
        for edge in hypergraph.distinct_edges()
    ]


def vertex_dominated_constraints(
    hypergraph: Hypergraph, scale: Fraction = Fraction(1)
) -> list[LogConstraint]:
    """The normalized ``scale · VD`` constraints ``h({v}) <= scale``."""
    return [
        LogConstraint((), (v,), Fraction(scale)) for v in hypergraph.vertices
    ]


def target_sets(targets: Sequence[AbstractSet] | AbstractSet) -> list[frozenset]:
    """The target list of a bound LP: any one set is a single target.

    A plain ``set`` is one target exactly like a ``frozenset``; otherwise
    ``targets`` is a sequence of variable sets.  A bare variable name in that
    sequence (``("A", "B")``) would be silently read as the set of its
    characters, so it raises instead.

    Raises:
        LPError: on an empty target list or a ``str`` element.
    """
    if isinstance(targets, AbstractSet):
        return [frozenset(targets)]
    target_list = []
    for target in targets:
        if isinstance(target, str):
            raise LPError(
                f"target {target!r} is a variable name, not a set of "
                "variables; pass one set for a single target"
            )
        target_list.append(frozenset(target))
    if not target_list:
        raise LPError("at least one target required")
    return target_list


@lru_cache(maxsize=None)
def _elemental_lp_rows(
    n: int,
) -> tuple[tuple[tuple, dict[int, Fraction], Fraction], ...]:
    """The Γn class rows as ready-to-add LP constraints, cached per size.

    Coefficient dicts carry shared Fraction instances, so repeated LP builds
    over any ``n``-variable universe add rows without converting or hashing
    anything per coefficient.
    """
    zero = Fraction(0)
    rows = []
    for kind, i_mask, j_mask, coeffs in elemental_inequality_mask_rows(n):
        name = ("submod" if kind == "submodularity" else "mono", i_mask, j_mask)
        rows.append((name, {m: Fraction(c) for m, c in coeffs}, zero))
    return tuple(rows)


@dataclass(frozen=True)
class BoundResult:
    """The value and certificates of a ``LogSizeBound`` LP.

    Attributes:
        log_value: the optimal ``max_h min_B h(B)`` in log2 units.
        h_values: an optimal (relaxed-class) set function, by subset.
        lambda_weights: λ_B per target (Lemma 5.2); ``{B: 1}`` for one target.
        delta: dual values ``δ_{Y|X}`` keyed by ``(X, Y)`` pairs.
        sigma: dual values ``σ_{I,J}`` of the (elemental) submodularity rows.
        mu: dual values ``μ_{X,Y}`` of the (elemental) monotonicity rows.
        constraint_for_pair: the :class:`LogConstraint` behind each δ key.
        targets: the target sets, in LP order.
    """

    log_value: Fraction
    h_values: dict[frozenset, Fraction]
    lambda_weights: dict[frozenset, Fraction]
    delta: dict[tuple[frozenset, frozenset], Fraction]
    sigma: dict[tuple[frozenset, frozenset], Fraction]
    mu: dict[tuple[frozenset, frozenset], Fraction]
    constraint_for_pair: dict[tuple[frozenset, frozenset], LogConstraint]
    targets: tuple[frozenset, ...]

    @property
    def value(self) -> float:
        """The bound itself, ``2^{log_value}``."""
        if self.log_value.denominator == 1:
            return float(2 ** self.log_value)  # reprolint: allow(RL-EXACT) -- presentation: float rendering of the exact bound; log_value stays the exact Fraction
        return 2.0 ** float(self.log_value)  # reprolint: allow(RL-EXACT) -- presentation: float rendering of the exact bound; log_value stays the exact Fraction

    def optimal_set_function(self, universe: Sequence[str]) -> SetFunction:
        """The optimal ``h`` as a :class:`SetFunction`."""
        return SetFunction(
            tuple(universe), {s: v for s, v in self.h_values.items() if s}
        )

    def dual_certificate_value(self) -> Fraction:
        """``sum δ_{Y|X} · n_{Y|X}`` — must equal ``log_value`` (strong duality)."""
        total = Fraction(0)
        for pair, coefficient in self.delta.items():
            if coefficient:
                total += coefficient * self.constraint_for_pair[pair].log_bound
        return total


class PolymatroidProgram:
    """Builder/solver for set-function LPs over a fixed universe and class."""

    def __init__(
        self,
        universe: Sequence[str],
        log_constraints: Iterable[LogConstraint],
        function_class: str = "polymatroid",
    ) -> None:
        if function_class not in FUNCTION_CLASSES:
            raise LPError(
                f"unknown function class {function_class!r}; pick from {FUNCTION_CLASSES}"
            )
        self.universe = tuple(universe)
        self.varmap = VarMap.of(self.universe)
        self.function_class = function_class
        self.log_constraints = list(log_constraints)
        full = frozenset(self.universe)
        for constraint in self.log_constraints:
            if not constraint.y <= full:
                raise LPError(
                    f"constraint {constraint} outside universe {self.universe}"
                )
        #: base models (all rows except the per-solve target rows/objective),
        #: built lazily once per (maximin?) flavour and cloned per solve —
        #: batched bound queries over the same program share every class and
        #: degree-constraint row instead of rebuilding them per LP.
        self._bases: dict[bool, LPModel] = {}

    # -- model construction -----------------------------------------------------------
    #
    # LP variables are subset *masks* (ints), one per non-empty subset in
    # canonical size-lexicographic order; constraint names carry masks too.
    # The frozenset-facing results are reassembled in :meth:`maximize`.

    def _base_model(self, maximin: bool) -> LPModel:
        base = self._bases.get(maximin)
        if base is None:
            vm = self.varmap
            base = LPModel()
            if maximin:
                base.add_variable("w", objective=1)
            for mask in vm.subset_masks():
                if mask:
                    base.add_variable(mask, objective=0)
            self._add_class_rows(base)
            one = Fraction(1)
            for constraint in self.log_constraints:
                y_mask = vm.mask_of(constraint.y)
                x_mask = vm.mask_of(constraint.x)
                coeffs: dict = {y_mask: one}
                if x_mask:
                    coeffs[x_mask] = -one
                base.add_le_constraint(
                    ("dc", x_mask, y_mask), coeffs, constraint.log_bound
                )
            self._bases[maximin] = base
        return base

    def _build(self, targets: Sequence[int]) -> LPModel:
        maximin = len(targets) > 1
        if maximin:
            # Target rows prepended so the row order (targets, class rows,
            # degree rows) — and hence the exact simplex pivot sequence —
            # matches a from-scratch build exactly.
            return self._base_model(True).clone(
                prefix_constraints=[
                    (("target", target), {"w": 1, target: -1}, 0)
                    for target in targets
                ]
            )
        model = self._base_model(False).clone()
        model.set_objective(targets[0], 1)
        return model

    def _add_class_rows(self, model: LPModel) -> None:
        if self.function_class in ("polymatroid", "polymatroid+zy"):
            for name, coeffs, rhs in _elemental_lp_rows(self.varmap.n):
                model.add_le_constraint(name, coeffs, rhs)
            if self.function_class == "polymatroid+zy":
                from repro.entropy.nonshannon import zhang_yeung_mask_rows

                for tup, coeffs in zhang_yeung_mask_rows(self.varmap):
                    model.add_le_constraint(("zy", tup), coeffs, 0)
        elif self.function_class == "subadditive":
            self._add_subadditive_rows(model)
        elif self.function_class == "modular":
            self._add_modular_rows(model)

    def _add_subadditive_rows(self, model: LPModel) -> None:
        """Monotonicity (single-element steps) + subadditivity (disjoint pairs)."""
        vm = self.varmap
        masks = [m for m in vm.subset_masks() if m]
        order = {m: i for i, m in enumerate(masks)}
        for mask in masks:
            rest = vm.full_mask & ~mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                model.add_le_constraint(
                    ("mono", mask, mask | bit), {mask: 1, mask | bit: -1}, 0
                )
        for x in masks:
            for y in masks:
                if x & y or order[x] > order[y]:
                    continue
                model.add_le_constraint(
                    ("subadd", x, y), {x | y: 1, x: -1, y: -1}, 0
                )

    def _add_modular_rows(self, model: LPModel) -> None:
        """``h(S) = sum_v h({v})`` via paired inequalities."""
        minus_one = Fraction(-1)
        one = Fraction(1)
        for mask in self.varmap.subset_masks():
            if mask.bit_count() < 2:
                continue
            singles = {bit: minus_one for bit in self.varmap.bits(mask)}
            model.add_le_constraint(
                ("modular+", mask), {mask: one, **singles}, 0
            )
            singles_pos = {bit: one for bit in self.varmap.bits(mask)}
            model.add_le_constraint(
                ("modular-", mask), {mask: minus_one, **singles_pos}, 0
            )

    # -- solving ------------------------------------------------------------------------

    def maximize(
        self,
        targets: Sequence[AbstractSet] | AbstractSet,
        backend: str = "exact",
    ) -> BoundResult:
        """Compute ``max_{h in F ∩ H} min_{B in targets} h(B)``.

        Args:
            targets: one target set or a sequence of target sets (read by
                :func:`target_sets`).
            backend: ``"exact"`` or ``"scipy"``.
        """
        vm = self.varmap
        target_list = target_sets(targets)
        model = self._build([vm.mask_of(t) for t in target_list])
        solution = model.maximize(backend=backend)

        h_values = {
            vm.set_of(s): v
            for s, v in solution.values.items()
            if isinstance(s, int)
        }
        h_values[frozenset()] = Fraction(0)

        delta: dict[tuple[frozenset, frozenset], Fraction] = {}
        sigma: dict[tuple[frozenset, frozenset], Fraction] = {}
        mu: dict[tuple[frozenset, frozenset], Fraction] = {}
        lambda_weights: dict[frozenset, Fraction] = {}
        constraint_for_pair: dict[tuple[frozenset, frozenset], LogConstraint] = {
            c.pair: c for c in self.log_constraints
        }
        for name, value in solution.duals.items():
            kind = name[0]
            if kind == "dc":
                delta[(vm.set_of(name[1]), vm.set_of(name[2]))] = value
            elif kind == "submod":
                sigma[(vm.set_of(name[1]), vm.set_of(name[2]))] = value
            elif kind == "mono":
                mu[(vm.set_of(name[1]), vm.set_of(name[2]))] = value
            elif kind == "target":
                lambda_weights[vm.set_of(name[1])] = value
        if len(target_list) == 1:
            lambda_weights = {target_list[0]: Fraction(1)}
        return BoundResult(
            log_value=solution.objective,
            h_values=h_values,
            lambda_weights=lambda_weights,
            delta=delta,
            sigma=sigma,
            mu=mu,
            constraint_for_pair=constraint_for_pair,
            targets=tuple(target_list),
        )


def log_size_bound(
    universe: Sequence[str],
    targets: Sequence[AbstractSet] | AbstractSet,
    constraints: ConstraintSet | Iterable[DegreeConstraint] | Iterable[LogConstraint],
    function_class: str = "polymatroid",
    backend: str = "exact",
) -> BoundResult:
    """``LogSizeBound_{F ∩ H_DC}`` (Eq. 7) — the module's main entry point.

    Args:
        universe: the query variables.
        targets: target set(s) — ``[n]`` for a full CQ, the head sets ``B``
            for a disjunctive rule (read by :func:`target_sets`).
        constraints: degree constraints (integer or log-space).
        function_class: one of :data:`FUNCTION_CLASSES`.
        backend: LP backend.
    """
    rows: list[LogConstraint] = []
    for constraint in constraints:
        if isinstance(constraint, LogConstraint):
            rows.append(constraint)
        else:
            rows.append(
                LogConstraint(
                    constraint.x_key,
                    constraint.y_key,
                    constraint.log_bound,
                    origin=constraint,
                )
            )
    program = PolymatroidProgram(universe, rows, function_class)
    return program.maximize(targets, backend=backend)
