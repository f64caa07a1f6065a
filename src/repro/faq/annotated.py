"""Semiring-annotated relations (K-relations) for FAQ evaluation (§8).

An :class:`AnnotatedRelation` is a finite map from tuples over a schema to
non-``zero`` semiring values — the "factors" of an FAQ query — stored as
its support's canonical :class:`~repro.relational.columns.ColumnSet`
(schema order, sorted, distinct) plus a ``values`` list aligned to those
rows.  Over the Boolean semiring the FAQ operations degrade to the ordinary
join and projection, which the tests exploit as an oracle bridge.

FAQ over K-relations is the natural join of the factors' supports with the
annotations multiplied, then a group-by ⊕ (Green–Karvounarakis–Tannen,
"Provenance semirings", PODS'07).  Two kernels compute exactly that, and
every operation here is one of them: :func:`sum_product`, the one ⊗ (the
one join, a gather, a multiply), and :func:`fold_annotations`, the one ⊕.
Sorts and searches read only code rows; annotation values are only added,
multiplied and compared with ``zero``, so ``Fraction``, complex or
provenance annotations stay exact and need not be orderable.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import SchemaError
from repro.faq.semiring import Semiring
from repro.relational.columns import ColumnSet, Dictionary, append_column
from repro.relational.relation import Relation

__all__ = [
    "AnnotatedRelation",
    "first_appearance_schema",
    "fold_annotations",
    "sum_product",
]


class AnnotatedRelation:
    """A finite map ``tuples over schema -> semiring values``.

    Attributes:
        name: display name.
        semiring: the annotation domain.
        column_set: the support's canonical column set (do not mutate).
        values: the non-``zero`` annotations, aligned with its rows.
    """

    __slots__ = ("name", "semiring", "column_set", "values", "_support")

    def __init__(
        self,
        name: str,
        schema: Iterable[str],
        semiring: Semiring,
        annotations: Mapping[tuple, object] | Iterable[tuple] = (),
    ) -> None:
        schema = tuple(schema)
        if len(set(schema)) != len(schema):
            raise SchemaError(f"duplicate attributes in schema {schema}")
        encoders = [Dictionary.of(attr).encode for attr in schema]
        items = (
            annotations.items()
            if isinstance(annotations, Mapping)
            else ((row, semiring.one) for row in annotations)
        )
        coded, values = [], []
        for row, value in items:
            row = tuple(row)
            if len(row) != len(schema):
                raise SchemaError(
                    f"tuple {row} has arity {len(row)}, schema {schema} "
                    f"expects {len(schema)}"
                )
            coded.append(tuple([enc(v) for enc, v in zip(encoders, row)]))
            values.append(value)
        columns = list(zip(*coded)) or [()] * len(schema)
        folded = fold_annotations(name, schema, columns, values, semiring)
        self.name, self.semiring, self._support = name, semiring, None
        self.column_set, self.values = folded.column_set, folded.values

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_column_set(
        cls, name: str, column_set: ColumnSet, values: list, semiring: Semiring
    ) -> "AnnotatedRelation":
        """Adopt a canonical column set and its aligned non-``zero`` values."""
        out = cls.__new__(cls)
        out.name, out.semiring, out._support = name, semiring, None
        out.column_set, out.values = column_set, values
        return out

    @classmethod
    def from_relation(
        cls, relation: Relation, semiring: Semiring, weight=None
    ) -> "AnnotatedRelation":
        """Lift a set relation: every tuple annotated ``one`` (or ``weight(t)``).

        With the default unit weight the relation's canonical column set is
        adopted as it is and the relation itself is the support — no copy,
        and its cached sort orders serve every later join.
        """
        canonical = relation.column_set(relation.schema)
        if weight is None:
            out = cls.from_column_set(
                relation.name, canonical, [semiring.one] * len(relation), semiring
            )
            out._support = relation
            return out
        values = [weight(relation.decode_row(row)) for row in canonical.rows]
        return fold_annotations(
            relation.name, relation.schema, canonical.columns, values, semiring
        )

    # -- basic protocol -----------------------------------------------------------

    @property
    def schema(self) -> tuple[str, ...]:
        return self.column_set.attrs

    @property
    def attributes(self) -> frozenset:
        return frozenset(self.schema)

    def __len__(self) -> int:
        return self.column_set.nrows

    def __iter__(self) -> Iterator[tuple]:
        return map(self.support().decode_row, self.column_set.rows)

    def items(self) -> list[tuple[tuple, object]]:
        """Decoded ``(tuple, value)`` pairs (adapter boundary)."""
        return list(zip(self, self.values))

    def code_items(self) -> list[tuple[tuple, object]]:
        """``(code row, value)`` pairs in canonical order: the exact
        representation, for bit-identity checks."""
        return list(zip(self.column_set.rows, self.values))

    def annotation(self, row: tuple) -> object:
        """The value of ``row`` (``zero`` for absent tuples)."""
        row = tuple(row)
        if len(row) == len(self.schema):
            coded = self.support().encode_key(self.schema, row)
            if coded is not None:
                at, found = self.column_set.find_row(coded)
                if found:
                    return self.values[at]
        return self.semiring.zero

    def __eq__(self, other: object) -> bool:
        """Value equality over the same attribute set (order-insensitive).

        Shared dictionaries make code equality coincide with value equality,
        so the comparison never decodes.
        """
        if not isinstance(other, AnnotatedRelation):
            return NotImplemented
        if self.attributes != other.attributes:
            return False
        at = [other.schema.index(attr) for attr in self.schema]
        theirs = {tuple([row[i] for i in at]): v for row, v in other.code_items()}
        return dict(self.code_items()) == theirs

    def __hash__(self):  # pragma: no cover - mutable-map semantics
        raise TypeError("AnnotatedRelation is not hashable")

    def support(self) -> Relation:
        """The underlying set relation (tuples with non-zero annotation)."""
        if self._support is None:
            self._support = Relation.from_column_set(self.name, self.column_set)
        return self._support

    def scalar(self) -> object:
        """The value of a nullary (fully aggregated) result."""
        if self.schema:
            raise SchemaError(
                f"scalar() needs an empty schema, have {self.schema}"
            )
        return self.values[0] if self.values else self.semiring.zero

    # -- FAQ operations -----------------------------------------------------------

    def _columns_in(self, attrs: Sequence[str]) -> list:
        columns = self.column_set.columns if attrs else ()
        return [columns[self.schema.index(attr)] for attr in attrs]

    def reordered(self, schema: Sequence[str]) -> "AnnotatedRelation":
        """The same map under a permuted ``schema`` (re-sorted by the fold)."""
        if tuple(schema) == self.schema:
            return self
        return fold_annotations(
            self.name, schema, self._columns_in(schema), self.values, self.semiring
        )

    def multiply(
        self, other: "AnnotatedRelation", name: str | None = None
    ) -> "AnnotatedRelation":
        """The ⊗-join: :func:`sum_product` of the two, keeping every variable.

        The output schema is ``self.schema`` followed by ``other``'s fresh
        attributes.
        """
        name = name or f"({self.name}⊗{other.name})"
        return sum_product([self, other], self.attributes | other.attributes, name)[0]

    def combine(
        self, *others: "AnnotatedRelation", name: str | None = None
    ) -> "AnnotatedRelation":
        """Pointwise ⊕ with ``others`` (same attribute set; schemas realigned).

        The signed-fold application step of incremental FAQ maintenance
        (:mod:`repro.incremental.ivm`): ``others`` are typically deltas whose
        annotations live in the ⊕-group (inserted mass positive, deleted
        mass ⊕-inverted), and combining folds them into this relation exactly
        — entries whose sum reaches ``zero`` drop out of the support, so a
        maintained result never carries phantom zero-annotated tuples.
        """
        _one_semiring([self, *others])
        columns = [array("q") for _ in self.schema]
        values: list = []
        for part in (self, *others):
            if part.attributes != self.attributes:
                raise SchemaError(
                    f"combine needs equal attribute sets, got {self.schema} "
                    f"vs {part.schema}"
                )
            for column, theirs in zip(columns, part._columns_in(self.schema)):
                append_column(column, theirs)
            values += part.values
        name = name or "⊕".join([self.name, *(other.name for other in others)])
        return fold_annotations(name, self.schema, columns, values, self.semiring)

    def marginalize(
        self, keep: Iterable[str], name: str | None = None
    ) -> "AnnotatedRelation":
        """⊕-out every attribute not in ``keep`` (the FAQ ``Σ`` operator);
        the kept attributes stay in schema order."""
        keep_set = frozenset(keep)
        if not keep_set <= self.attributes:
            raise SchemaError(
                f"cannot keep {sorted(keep_set)}: schema is {self.schema}"
            )
        attrs = tuple(a for a in self.schema if a in keep_set)
        return fold_annotations(
            name or f"Σ[{self.name}]",
            attrs,
            self._columns_in(attrs),
            self.values,
            self.semiring,
        )

    def __str__(self) -> str:
        return (
            f"{self.name}({', '.join(self.schema)}) over {self.semiring}: "
            f"{len(self)} tuples"
        )


# -- the ⊕ kernel ----------------------------------------------------------------


def fold_annotations(
    name: str,
    attrs: Sequence[str],
    columns: Sequence,
    values: list,
    semiring: Semiring,
) -> AnnotatedRelation:
    """The one ⊕: ``values`` summed per distinct code row of ``columns``.

    ``columns`` are aligned code columns over ``attrs`` (unsorted,
    duplicates allowed) and ``values`` their annotations.  Rows are
    stable-sorted on their keys (Python's sort over row indices) and each
    equal-key run is added left to right; runs summing to ``zero`` are
    dropped.  Nullary keys form one run.
    """
    attrs = tuple(attrs)
    rows = list(zip(*columns)) if attrs else [()] * len(values)
    add, zero = semiring.add, semiring.zero
    keys, sums = [], []
    for i in sorted(range(len(rows)), key=rows.__getitem__):
        if keys and rows[i] == keys[-1]:
            sums[-1] = add(sums[-1], values[i])
        else:
            keys.append(rows[i])
            sums.append(values[i])
    kept = [at for at, total in enumerate(sums) if total != zero]
    column_set = ColumnSet(attrs, [keys[at] for at in kept], presorted=True)
    return AnnotatedRelation.from_column_set(
        name, column_set, [sums[at] for at in kept], semiring
    )


# -- the ⊗ kernel ----------------------------------------------------------------


def _one_semiring(factors: Sequence[AnnotatedRelation]) -> Semiring:
    semiring = factors[0].semiring
    mixed = [factor.semiring for factor in factors if factor.semiring is not semiring]
    if mixed:
        raise SchemaError(f"cannot mix semirings ({semiring} vs {mixed[0]})")
    return semiring


def first_appearance_schema(schemas, keep: Iterable[str]) -> tuple[str, ...]:
    """The attributes of ``schemas`` in first-appearance order, filtered to
    ``keep`` — the output schema of :func:`sum_product`."""
    keep = frozenset(keep)
    appearing = dict.fromkeys(attr for schema in schemas for attr in schema)
    return tuple(attr for attr in appearing if attr in keep)


def sum_product(
    factors: Sequence[AnnotatedRelation],
    keep: Iterable[str],
    name: str | None = None,
) -> tuple[AnnotatedRelation, int]:
    """``⊕_{vars ∖ keep} ⊗ factors``, and the number of product rows folded.

    One :func:`~repro.relational.wcoj.generic_join` of the supports under
    sorted variables (charging the work counter like any join); per factor,
    each output row's annotation index by ``find_row``; the annotations
    multiplied left to right in factor order, so they round as a chain of
    pairwise ⊗ would (a nullary factor multiplies in at its position); then
    :func:`fold_annotations` to ``keep``, in :func:`first_appearance_schema`.
    """
    from repro.relational.wcoj import generic_join

    factors = list(factors)
    semiring = _one_semiring(factors)
    keep = frozenset(keep)
    variables = frozenset().union(*(factor.attributes for factor in factors))
    if not keep <= variables:
        raise SchemaError(f"cannot keep {sorted(keep - variables)}: in no factor")
    schema = first_appearance_schema([factor.schema for factor in factors], keep)
    name = name or "⊕⊗(" + ",".join(factor.name for factor in factors) + ")"
    if any(len(factor) == 0 for factor in factors):
        return fold_annotations(name, schema, [()] * len(schema), [], semiring), 0

    joined = generic_join([factor.support() for factor in factors], name=name)
    order, n = joined.schema, len(joined)
    columns = joined.column_set(order).columns

    values = None
    for factor in factors:
        if factor.schema:
            index = _gather(factor, [columns[order.index(a)] for a in factor.schema])
            picked = map(factor.values.__getitem__, index)
        else:
            picked = repeat(factor.values[0], n)
        values = list(picked if values is None else map(semiring.mul, values, picked))
    kept = [columns[order.index(a)] for a in schema]
    return fold_annotations(name, schema, kept, values, semiring), n


def _gather(factor: AnnotatedRelation, probe: list) -> list:
    """The row index in ``factor`` of every row of the ``probe`` columns
    (each a row of ``factor``'s support, so every search hits)."""
    find_row = factor.column_set.find_row
    return [find_row(row)[0] for row in zip(*probe)]
