"""Set functions on ``2^[n]`` and the Figure 3 hierarchy — mask-indexed kernel.

The paper works with non-negative, monotone set functions ``h`` with
``h(∅) = 0`` and distinguishes (Definition 2.1/2.2, Figure 3)

    Mn ⊆ Γ*n ⊆ cl(Γ*n) ⊆ Γn ⊆ SAn
    modular ⊆ entropic ⊆ ... ⊆ polymatroids ⊆ subadditive.

**Mask representation.**  A :class:`SetFunction` over a universe of ``n``
variables stores its ``2^n`` exact rational values in a flat list indexed by
*subset mask*: variable ``i`` of the universe (interning order, see
:class:`repro.core.varmap.VarMap`) contributes bit ``1 << i``, so the subset
``{A_0, A_2}`` lives at index ``0b101``.  Every lookup is O(1) list indexing,
set algebra (``∪ ∩ −``) is integer bit arithmetic, and the Figure 3 membership
predicates (``is_submodular`` et al.) loop over ``range(2^n)`` with popcount
tricks instead of hashing frozensets.  The frozenset-accepting public API is
retained as thin adapters — ``h(("A", "B"))``, ``h(frozenset("AB"))`` and the
mask form ``h[mask]`` all hit the same array.

Elemental Shannon inequalities (the finite description of Γn used by every LP
in this package) are generated by :func:`elemental_inequalities`; their
mask-keyed coefficient rows are produced once per universe *size* and cached
(:func:`elemental_inequality_mask_rows`), so repeated LP builds over the same
``n`` share row structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.hypergraph import Hypergraph
from repro.core.varmap import VarMap, _canonical_masks
from repro.exceptions import ReproError

__all__ = [
    "SetFunction",
    "ElementalInequality",
    "elemental_inequalities",
    "elemental_inequality_mask_rows",
]

_ZERO = Fraction(0)


class SetFunction:
    """An exact set function ``h : 2^U -> Q`` with ``h(∅) = 0`` enforced.

    Values live in a flat list indexed by subset mask (see module docstring).
    Instances are immutable in spirit: mutate via the ``with_*`` constructors.
    """

    __slots__ = ("universe", "_vm", "_table", "_int_cache")

    def __init__(
        self,
        universe: Iterable[str],
        values: Mapping[frozenset, Fraction],
    ) -> None:
        self.universe: tuple[str, ...] = tuple(universe)
        self._vm = VarMap.of(self.universe)
        size = self._vm.size
        table: list[Fraction | None] = [None] * size
        table[0] = _ZERO
        for subset, value in values.items():
            try:
                mask = self._vm.mask_of(subset)
            except KeyError:
                raise ReproError(
                    f"subset {sorted(subset)} outside universe {self.universe}"
                ) from None
            if not 0 <= mask <= self._vm.full_mask:
                # mask_of passes int keys through untouched; reject masks that
                # would alias other table entries via negative/overflow index.
                raise ReproError(
                    f"mask {mask} outside universe {self.universe}"
                )
            value = Fraction(value)
            if mask == 0 and value != _ZERO:
                raise ReproError("set functions must satisfy h(∅) = 0")
            table[mask] = value
        missing = [m for m in range(size) if table[m] is None]
        if missing:
            raise ReproError(
                f"set function undefined on {len(missing)} subsets, e.g. "
                f"{sorted(self._vm.set_of(missing[0]))}"
            )
        self._table: list[Fraction] = table  # type: ignore[assignment]
        self._int_cache: list[int] | None | bool = False  # False = not computed

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def from_mask_table(
        cls, universe: Iterable[str], table: Sequence[Fraction]
    ) -> "SetFunction":
        """Fast trusted constructor from a complete mask-indexed table."""
        self = object.__new__(cls)
        self.universe = tuple(universe)
        self._vm = VarMap.of(self.universe)
        if len(table) != self._vm.size:
            raise ReproError(
                f"mask table has {len(table)} entries, expected {self._vm.size}"
            )
        if table[0] != _ZERO:
            raise ReproError("set functions must satisfy h(∅) = 0")
        self._table = list(table)
        self._int_cache = False
        return self

    @classmethod
    def from_callable(
        cls, universe: Iterable[str], fn: Callable[[frozenset], Fraction]
    ) -> "SetFunction":
        """Tabulate ``fn`` over the powerset of ``universe``."""
        vm = VarMap.of(tuple(universe))
        table = [
            _ZERO if mask == 0 else Fraction(fn(vm.set_of(mask)))
            for mask in range(vm.size)
        ]
        return cls.from_mask_table(vm.names, table)

    @classmethod
    def from_mask_callable(
        cls, universe: Iterable[str], fn: Callable[[int], Fraction]
    ) -> "SetFunction":
        """Tabulate a mask-native callable over all ``2^n`` masks."""
        vm = VarMap.of(tuple(universe))
        table = [
            _ZERO if mask == 0 else Fraction(fn(mask)) for mask in range(vm.size)
        ]
        return cls.from_mask_table(vm.names, table)

    @classmethod
    def modular(
        cls, weights: Mapping[str, Fraction]
    ) -> "SetFunction":
        """The modular function ``h(S) = sum_{v in S} weights[v]``."""
        universe = tuple(sorted(weights))
        vm = VarMap.of(universe)
        table = [_ZERO] * vm.size
        for mask in range(1, vm.size):
            low = mask & -mask
            table[mask] = table[mask ^ low] + Fraction(
                weights[universe[low.bit_length() - 1]]
            )
        return cls.from_mask_table(universe, table)

    @classmethod
    def uniform(cls, universe: Iterable[str], per_vertex: Fraction) -> "SetFunction":
        """``h(S) = per_vertex * |S|`` — e.g. the ``|F|/2 * log N`` function of Ex. 7.8."""
        weight = Fraction(per_vertex)
        vm = VarMap.of(tuple(universe))
        table = [weight * mask.bit_count() for mask in range(vm.size)]
        return cls.from_mask_table(vm.names, table)

    @classmethod
    def from_closure_table(
        cls,
        universe: Iterable[str],
        closed_sets: Mapping[frozenset, Fraction],
    ) -> "SetFunction":
        """The Figure 5 / Figure 6 construction.

        Given values on the *closed sets* of a closure operator, extend by
        ``h(Z) = h(Z+)`` where ``Z+`` is the smallest closed superset of ``Z``.
        The closed sets must be closed under intersection and include the full
        universe, so smallest closed supersets are well defined.
        """
        vm = VarMap.of(tuple(universe))
        closed = {vm.mask_of(k): Fraction(v) for k, v in closed_sets.items()}
        if vm.full_mask not in closed:
            raise ReproError("closure table must define the full universe")
        closed_masks = tuple(closed)

        table = [_ZERO] * vm.size
        for mask in range(1, vm.size):
            meet = vm.full_mask
            for c in closed_masks:
                if mask & ~c == 0:
                    meet &= c
            if meet not in closed:
                raise ReproError(
                    f"closure table is not intersection-closed at "
                    f"{sorted(vm.set_of(mask))}"
                )
            table[mask] = closed[meet]
        return cls.from_mask_table(vm.names, table)

    # -- access ---------------------------------------------------------------------

    @property
    def varmap(self) -> VarMap:
        """The universe's interned name ↔ bit-position map."""
        return self._vm

    def __call__(self, subset: Iterable[str] | int) -> Fraction:
        """Evaluate ``h`` on a subset (iterable of names, or a bit mask)."""
        if isinstance(subset, int):
            if subset < 0:
                # Negative masks would alias other entries via Python's
                # negative list indexing; oversized ones raise IndexError.
                raise IndexError(f"subset mask must be non-negative, got {subset}")
            return self._table[subset]
        return self._table[self._vm.mask_of(subset)]

    def __getitem__(self, mask: int) -> Fraction:
        """Mask-native O(1) lookup: ``h[mask]``."""
        if mask < 0:
            raise IndexError(f"subset mask must be non-negative, got {mask}")
        return self._table[mask]

    def conditional(
        self, y: Iterable[str] | int, x: Iterable[str] | int
    ) -> Fraction:
        """``h(Y|X) = h(Y) - h(X)`` (the polymatroid-analog of cond. entropy)."""
        return self(y) - self(x)

    def items(self) -> Iterator[tuple[frozenset, Fraction]]:
        """Yield ``(subset, value)`` pairs in mask order (∅ first)."""
        vm = self._vm
        return ((vm.set_of(mask), v) for mask, v in enumerate(self._table))

    def mask_items(self) -> Iterator[tuple[int, Fraction]]:
        """Yield ``(mask, value)`` pairs in mask order."""
        return iter(enumerate(self._table))

    def mask_table(self) -> tuple[Fraction, ...]:
        """The full value table, indexed by mask."""
        return tuple(self._table)

    # -- algebra ----------------------------------------------------------------------

    def scaled(self, factor: Fraction) -> "SetFunction":
        """``factor * h`` (the paper's ``s · h``)."""
        factor = Fraction(factor)
        return SetFunction.from_mask_table(
            self.universe, [v * factor for v in self._table]
        )

    def restrict(self, subset: Iterable[str]) -> "SetFunction":
        """The marginal restriction of ``h`` to a sub-universe."""
        keep = self._vm.mask_of(subset)
        sub = tuple(
            v for i, v in enumerate(self.universe) if keep >> i & 1
        )
        table = self._table
        sub_vm = VarMap.of(sub)
        # Expand each sub-universe mask into the corresponding full mask.
        bit_map = [1 << self._vm.index[v] for v in sub]
        expanded = [0] * sub_vm.size
        for mask in range(1, sub_vm.size):
            low = mask & -mask
            expanded[mask] = expanded[mask ^ low] | bit_map[low.bit_length() - 1]
        return SetFunction.from_mask_table(
            sub, [table[expanded[m]] for m in range(sub_vm.size)]
        )

    def __add__(self, other: "SetFunction") -> "SetFunction":
        if self.universe != other.universe:
            raise ReproError("cannot add set functions on different universes")
        return SetFunction.from_mask_table(
            self.universe,
            [a + b for a, b in zip(self._table, other._table)],
        )

    # -- Figure 3 membership predicates -------------------------------------------------

    def _comparison_table(self) -> list:
        """The value table scaled to machine integers when that fits.

        All membership predicates only *compare sums* of values, which is
        invariant under scaling by the common denominator.  When the lcm of
        denominators stays below a machine word the predicates run on plain
        ints (roughly an order of magnitude faster than Fraction arithmetic);
        otherwise the exact Fractions are used unchanged.
        """
        cached = self._int_cache
        if cached is not False:
            return self._table if cached is None else cached
        den = 1
        for v in self._table:
            d = v.denominator
            den = den // gcd(den, d) * d
            if den > 1 << 62:
                self._int_cache = None
                return self._table
        scaled = [int(v.numerator * (den // v.denominator)) for v in self._table]
        self._int_cache = scaled
        return scaled

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self._comparison_table())

    def is_monotone(self) -> bool:
        """``h(X) <= h(Y)`` whenever ``X ⊆ Y`` (checked on single-element drops)."""
        table = self._comparison_table()
        for mask in range(1, len(table)):
            value = table[mask]
            rest = mask
            while rest:
                bit = rest & -rest
                if table[mask ^ bit] > value:
                    return False
                rest ^= bit
        return True

    def is_modular(self) -> bool:
        """``h(S) = sum_{v in S} h({v})``."""
        table = self._comparison_table()
        for mask in range(1, len(table)):
            low = mask & -mask
            # Peel one element: h is modular iff h(S) = h(S−v) + h({v})
            # everywhere (induction on |S|), so any mismatch falsifies it.
            if mask != low and table[mask] != table[mask ^ low] + table[low]:
                return False
        return True

    def is_subadditive(self) -> bool:
        """``h(X ∪ Y) <= h(X) + h(Y)`` for all pairs."""
        table = self._comparison_table()
        size = len(table)
        for x in range(size):
            hx = table[x]
            for y in range(x, size):
                if table[x | y] > hx + table[y]:
                    return False
        return True

    def is_submodular(self) -> bool:
        """Elemental check: ``h(S∪i) + h(S∪j) >= h(S∪ij) + h(S)``.

        Elemental submodularities imply all submodularities for functions
        with ``h(∅) = 0`` (Yeung [49]), so this is a complete test.
        """
        table = self._comparison_table()
        n = self._vm.n
        bits = [1 << i for i in range(n)]
        for s in range(len(table)):
            hs = table[s]
            for a in range(n):
                i = bits[a]
                if s & i:
                    continue
                h_si = table[s | i]
                for b in range(a + 1, n):
                    j = bits[b]
                    if s & j:
                        continue
                    if h_si + table[s | j] < table[s | i | j] + hs:
                        return False
        return True

    def is_polymatroid(self) -> bool:
        """Non-negative, monotone, submodular, ``h(∅) = 0`` (paper's Γn)."""
        return self.is_nonnegative() and self.is_monotone() and self.is_submodular()

    # -- domination (Definition 2.4) -------------------------------------------------

    def is_edge_dominated(
        self, hypergraph: Hypergraph, scale: Fraction = Fraction(1)
    ) -> bool:
        """``h(F) <= scale`` for every edge ``F`` (the set ``scale · ED``)."""
        bound = Fraction(scale)
        table = self._table
        vm = self._vm
        return all(table[vm.mask_of(edge)] <= bound for edge in hypergraph.edges)

    def is_vertex_dominated(self, scale: Fraction = Fraction(1)) -> bool:
        """``h({v}) <= scale`` for every vertex (the set ``scale · VD``)."""
        bound = Fraction(scale)
        table = self._table
        return all(table[1 << i] <= bound for i in range(self._vm.n))

    def satisfies(self, constraints) -> bool:
        """``h ∈ H_DC``: every degree constraint's log-bound is respected."""
        return all(
            self.conditional(c.y, c.x) <= c.log_bound for c in constraints
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFunction):
            return NotImplemented
        return self.universe == other.universe and self._table == other._table

    def __repr__(self) -> str:
        top = self._table[self._vm.full_mask]
        return f"SetFunction(universe={self.universe}, h(V)={top})"


@dataclass(frozen=True)
class ElementalInequality:
    """One elemental Shannon inequality, as LP row data ``coeffs . h <= 0``.

    Two kinds (Yeung [49]):

    * monotonicity  ``h([n] - {i}) - h([n]) <= 0``;
    * submodularity ``h(S∪ij) + h(S) - h(S∪i) - h(S∪j) <= 0``
      (written with the paper's ``I = S∪i, J = S∪j``).

    Attributes:
        kind: ``"monotonicity"`` or ``"submodularity"``.
        coefficients: map from subset to coefficient (empty set omitted).
        i: for submodularities, the pair set ``I``; for monotonicities ``X``.
        j: for submodularities, the pair set ``J``; for monotonicities ``Y``.
    """

    kind: str
    coefficients: tuple[tuple[frozenset, int], ...]
    i: frozenset
    j: frozenset

    def as_dict(self) -> dict[frozenset, int]:
        return dict(self.coefficients)


@lru_cache(maxsize=None)
def elemental_inequality_mask_rows(
    n: int,
) -> tuple[tuple[str, int, int, tuple[tuple[int, int], ...]], ...]:
    """The elemental inequalities over ``n`` bit positions, as mask rows.

    Returns a cached tuple of ``(kind, i_mask, j_mask, coeffs)`` entries where
    ``coeffs`` maps subset masks to integer coefficients (``coeffs · h <= 0``;
    the empty set is omitted).  The rows depend only on the universe *size*,
    so one generation is shared by every LP over any ``n``-variable universe.

    Row order matches :func:`elemental_inequalities`: the ``n`` monotonicities
    first, then submodularities by base set ``S`` in size-lexicographic order.
    """
    full = (1 << n) - 1
    rows: list[tuple[str, int, int, tuple[tuple[int, int], ...]]] = []
    for pos in range(n):
        smaller = full ^ (1 << pos)
        coeffs: list[tuple[int, int]] = []
        if smaller:
            coeffs.append((smaller, 1))
        coeffs.append((full, -1))
        rows.append(("monotonicity", smaller, full, tuple(coeffs)))
    for s in _canonical_masks(n):
        for a in range(n):
            i_bit = 1 << a
            if s & i_bit:
                continue
            for b in range(a + 1, n):
                j_bit = 1 << b
                if s & j_bit:
                    continue
                i_mask = s | i_bit
                j_mask = s | j_bit
                union = s | i_bit | j_bit
                coeffs = [(union, 1), (i_mask, -1), (j_mask, -1)]
                if s:
                    coeffs.append((s, 1))
                rows.append(("submodularity", i_mask, j_mask, tuple(coeffs)))
    return tuple(rows)


def elemental_inequalities(universe: Iterable[str]) -> Iterator[ElementalInequality]:
    """Generate the elemental inequalities describing Γn over ``universe``.

    These ``n + n(n-1)/2 · 2^{n-2}`` inequalities generate all Shannon-type
    inequalities, so optimizing over them equals optimizing over Γn, while
    keeping the LP polynomial in ``2^n`` instead of ``4^n``.

    This is the frozenset adapter over the cached mask rows
    (:func:`elemental_inequality_mask_rows`); LP builders use the mask rows
    directly.
    """
    vm = VarMap.of(tuple(universe))
    for kind, i_mask, j_mask, coeffs in elemental_inequality_mask_rows(vm.n):
        yield ElementalInequality(
            kind,
            tuple((vm.set_of(mask), coef) for mask, coef in coeffs),
            vm.set_of(i_mask),
            vm.set_of(j_mask),
        )
