"""The delta-rule maintenance kernels (joins and FAQ ⊕-folds).

Join maintenance uses the classic delta-rule expansion over the signed
relational algebra: with ``Rⱼ' = Rⱼ + dRⱼ``,

    d(R₁ ⋈ … ⋈ Rₖ)  =  Σᵢ  R₁' ⋈ … ⋈ Rᵢ₋₁' ⋈ dRᵢ ⋈ Rᵢ₊₁ ⋈ … ⋈ Rₖ

— new versions left of the delta, old versions right of it, so the terms
telescope exactly.  Every relation here is a *set* relation and the result
is a **full** join, so each output row has exactly one derivation (its
projections onto the atom schemas), every term contributes each row with
multiplicity ±1, and the net signed count per row over all terms is
``+1`` (row enters), ``-1`` (row leaves) or ``0``.  So the terms' output
columns fold into one :class:`~repro.incremental.delta.SignedDelta`
(:func:`signed_join_delta`), and the maintained view is an ordinary
:class:`~repro.relational.relation.Relation` advanced by it with
:func:`~repro.incremental.delta.advance_relation` — the same strict,
delta-sized splice every base relation's log takes.  No row tuple is built
between a term's join output and the view.

Each term runs through the ordinary
:func:`~repro.relational.execution.execute_join` driver with the delta's
sign-split rows as one input and the delta's (tiny) first-variable code span
as trie-root bounds for the other relations
(:func:`~repro.relational.execution.delta_root_ranges`), so term cost scales
with the delta, not the database.

Both maintained engines — :class:`~repro.incremental.IncrementalQueryEngine`
and recursive datalog's rounds — share one pipeline for this: bindings live
in a :class:`~repro.incremental.delta.PredicateStore`, :func:`delta_terms`
builds a body's terms from it and :func:`run_delta_terms` runs them, in
process or through the worker pool.

FAQ maintenance is the same expansion in the annotation semiring: the delta
factor ``dFᵢ`` carries inserted mass positively and deleted mass ⊕-inverted,
each term ⊗-multiplies through and ⊕-marginalizes, and the old result
absorbs the terms by signed ⊕-folds
(:meth:`~repro.faq.annotated.AnnotatedRelation.combine`).  That requires ⊕
to be a group operation — ``semiring.subtract`` — which the counting and
Fraction semirings have; min/max/or do not, and
:func:`maintain_faq` returns ``None`` so the caller recomputes instead.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.exceptions import IncrementalError
from repro.faq.annotated import AnnotatedRelation, fold_annotations, sum_product
from repro.faq.semiring import Semiring
from repro.incremental.delta import PredicateStore, SignedDelta
from repro.relational.columns import concat_columns
from repro.relational.execution import delta_root_ranges, execute_join
from repro.relational.relation import Relation

__all__ = [
    "DeltaTerm",
    "delta_factor",
    "delta_terms",
    "execute_delta_term",
    "maintain_faq",
    "probe_intersection",
    "run_delta_terms",
    "signed_join_delta",
    "term_rows",
    "term_variable_order",
]


def probe_intersection(active: list, counter) -> list[int]:
    """Inner-level intersection by probing, sized to the *smallest* node.

    Generic Join's hash intersection materializes every active node's key
    set, and the leapfrog walks every active key list — fine when the join
    touches each node a few times, but a delta term visits a big relation's
    nodes once, anchored on a tiny delta, so materializing a
    database-sized root key set to intersect it with five delta keys would
    dominate the whole maintenance batch.  Here only the node with the
    smallest *row span* (an O(1) bound) materializes its key list; every
    other node answers membership by one binary search on its sorted
    column (:meth:`~repro.relational.trie.SortedTrieIterator.contains_child`).
    The charged cost is the candidate count — the same smallest-set
    charging argument as Generic Join.
    """
    driver = active[0]
    best = driver.child_span()
    for iterator in active[1:]:
        span = iterator.child_span()
        if span < best:
            driver, best = iterator, span
    candidates = driver.child_keys()
    counter.tuples_scanned += len(candidates)
    if len(active) == 2:
        other = active[1] if driver is active[0] else active[0]
        contains = other.contains_child
        return [code for code in candidates if contains(code)]
    out = []
    for code in candidates:
        for iterator in active:
            if iterator is not driver and not iterator.contains_child(code):
                break
        else:
            out.append(code)
    return out


def term_variable_order(
    order: tuple[str, ...], delta_attrs
) -> tuple[str, ...]:
    """The delta-first variable order of one delta-rule term.

    Resolving the delta's attributes *first* is what makes a term's cost
    delta-sized: the top trie levels then enumerate the delta's (tiny) key
    sets, and every other relation only ever extends bindings the delta
    admits.  Under the canonical order a delta not containing the first
    variable would instead enumerate the full first-level candidate set —
    database-sized work for a one-row change.  Both halves keep the
    canonical (sorted) relative order, so term orders are deterministic;
    the term's output rows are permuted back to the canonical order before
    they meet the maintained view.
    """
    inside = frozenset(delta_attrs)
    first = tuple(v for v in order if v in inside)
    return first + tuple(v for v in order if v not in inside)


class DeltaTerm(NamedTuple):
    """One delta-rule term, ready to run in process or on the pool.

    ``relations`` are its inputs — new versions left of ``index``, the
    sign-split delta relation at ``index``, old versions right — and
    ``keys`` the binding keys behind them.  ``versions`` lifts each
    non-delta input for the pool's resident-base protocol (``None`` at the
    delta position); a ``versions`` of ``None`` marks a term whose old side
    is a retained snapshot with no version lift, which runs in process.
    """

    order: tuple[str, ...]
    keys: tuple
    index: int
    sign: int
    relations: list
    versions: tuple | None


def delta_terms(
    order: tuple[str, ...],
    keys: Sequence[tuple],
    store: PredicateStore,
    old: Mapping[tuple, tuple],
    deltas: Mapping[tuple, SignedDelta],
) -> Iterator[DeltaTerm]:
    """Yield one body's non-empty delta-rule terms.

    ``keys`` are the body's binding keys in atom order, ``store`` holds
    their current bindings, ``old[key]`` is a changed binding's pre-apply
    ``(relation, version or None)`` and ``deltas[key]`` its delta.  Each
    changed binding yields one term per sign its delta carries, so an
    insert-only delta builds no negative relation.
    """
    logs = [store.binding_by_key(key) for key in keys]
    olds = [old.get(key, (log.current, log.version)) for key, log in zip(keys, logs)]
    for i, key in enumerate(keys):
        delta = deltas.get(key)
        if delta is None or delta.is_empty:
            continue
        lifts = [log.version for log in logs[:i]] + [None]
        lifts += [version for _, version in olds[i + 1 :]]
        versions = None if None in lifts[i + 1 :] else tuple(lifts)
        for sign in (1,) if delta.insert_only else (1, -1):
            delta_relation = delta.relation(sign, f"d{key[0]}")
            if delta_relation.is_empty():
                continue
            relations = [log.current for log in logs[:i]] + [delta_relation]
            relations += [relation for relation, _ in olds[i + 1 :]]
            yield DeltaTerm(order, tuple(keys), i, sign, relations, versions)


def execute_delta_term(
    relations: Sequence[Relation],
    order: tuple[str, ...],
    delta_index: int,
) -> tuple:
    """Run one delta-rule term; its output comes back as code columns.

    One code column per variable of ``order``, picked from the buffers
    the join produced: the term's distinct bindings, in no particular row
    order (they are sorted under the delta-first order), nothing re-tupled.

    The single term protocol both the serial path (:func:`run_delta_terms`)
    and the pooled workers (:func:`repro.parallel.pool.run_delta_term_task`)
    execute — one definition, so serial and pooled maintenance cannot drift
    apart: the delta-first variable order, the delta-scoped trie-root
    ranges, the probe intersection at every level, and the pick back into
    ``order`` all live here.
    """
    delta_attrs = relations[delta_index].schema
    t_order = term_variable_order(order, delta_attrs)
    ranges = delta_root_ranges(relations, t_order, delta_index)
    term = execute_join(
        relations, t_order, "dQ", probe_intersection, ranges,
        leaf_intersect=probe_intersection,
    )
    columns = term.column_set(t_order).columns
    return tuple(columns[t_order.index(v)] for v in order)


def term_rows(columns: tuple) -> Iterable[tuple]:
    """One term's column output as code tuples; a term over no variables
    has exactly the empty binding, which no column can carry."""
    return zip(*columns) if columns else [()]


def run_delta_terms(
    terms: Sequence[DeltaTerm],
    store: PredicateStore,
    pool: Callable[[], object] | None = None,
) -> tuple[list[tuple], bool]:
    """Run delta-rule terms; one column tuple per term, and whether pooled.

    Serially, one :func:`execute_delta_term` each, unless ``pool`` (a
    worker-pool factory) is given and more than one term carries version
    lifts: those go through :func:`~repro.parallel.pool.map_delta_terms`
    with their binding logs resident under binding-keyed tokens — distinct
    for every binding of a self-join — and the rest run here alongside.
    """
    pooled = [term for term in terms if term.versions is not None] if pool else []
    if len(pooled) <= 1:
        return [execute_delta_term(t.relations, t.order, t.index) for t in terms], False
    from repro.parallel.pool import map_delta_terms

    token_of = {
        key: f"{key[0]}|{'.'.join(key[1])}"
        for key in sorted({key for term in pooled for key in term.keys})
    }
    outputs = iter(
        map_delta_terms(
            pool(),
            {token: store.binding_by_key(key) for key, token in token_of.items()},
            [
                (
                    term.order,
                    tuple(token_of[key] for key in term.keys),
                    term.versions,
                    term.index,
                    term.relations[term.index],
                )
                for term in pooled
            ],
        )
    )
    return [
        next(outputs)
        if term.versions is not None
        else execute_delta_term(term.relations, term.order, term.index)
        for term in terms
    ], True


def signed_join_delta(
    order: tuple[str, ...],
    keys: Sequence[tuple],
    store: PredicateStore,
    old: Mapping[tuple, tuple],
    deltas: Mapping[tuple, SignedDelta],
    pool: Callable[[], object] | None = None,
) -> tuple[SignedDelta, int, bool]:
    """The net signed change of the full join, the term count, and whether
    the terms ran on the pool.

    Builds the body's terms (:func:`delta_terms`), runs them
    (:func:`run_delta_terms`) and folds their output columns, each row
    signed by its term, into one :class:`SignedDelta` over ``order``
    (:meth:`SignedDelta.sorted_from`: rows whose contributions cancel across
    terms drop out, a net outside ``±1`` raises).  The count only includes
    terms whose sign-split delta was non-empty, so ``stats.join_terms``
    agrees between serial and pooled runs.
    """
    terms = list(delta_terms(order, keys, store, old, deltas))
    blocks, pooled = run_delta_terms(terms, store, pool)
    signs = array("q")
    for term, columns in zip(terms, blocks):
        signs.extend(array("q", [term.sign]) * len(columns[0]))
    columns = concat_columns(blocks, len(signs))
    return SignedDelta.sorted_from(order, columns, signs), len(terms), pooled


# -- FAQ maintenance ----------------------------------------------------------------


def delta_factor(
    delta: SignedDelta,
    semiring: Semiring,
    weight: Callable[[tuple], object] | None = None,
    name: str = "dF",
) -> AnnotatedRelation:
    """The annotated delta factor ``dFᵢ``: inserted mass ⊕, deleted mass ⊖.

    ``weight`` maps a *decoded* value tuple to its annotation (defaults to
    ``semiring.one``, the unit lifting).  Requires an invertible ⊕ — deleted
    rows carry ``⊖weight`` so the ⊗/⊕ algebra telescopes exactly.
    """
    if not semiring.invertible:
        raise IncrementalError(
            f"semiring {semiring} has non-invertible ⊕; delta factors "
            f"need subtraction (recompute instead)"
        )
    one = semiring.one
    if weight is None:
        negative_one = semiring.negate(one)
        values = [one if sign > 0 else negative_one for sign in delta.signs]
    else:
        values = [
            weight(row) if sign > 0 else semiring.negate(weight(row))
            for row, sign in delta.decoded()
        ]
    return fold_annotations(name, delta.attrs, delta.code_columns(), values, semiring)


def maintain_faq(
    old_result: AnnotatedRelation,
    old_factors: Sequence[AnnotatedRelation],
    new_factors: Sequence[AnnotatedRelation],
    delta_factors: Sequence[AnnotatedRelation | None],
    free: tuple[str, ...],
) -> AnnotatedRelation | None:
    """Maintain ``⊕_{bound} ⊗ᵢ Fᵢ`` through one batch of factor deltas.

    Returns the maintained result — ``old ⊕ Σᵢ (F₁'⊗…⊗dFᵢ⊗…⊗Fₖ)
    marginalized to ``free`` — or ``None`` when ⊕ is not invertible, in
    which case the caller must recompute from the new factors.  Each term
    is one :func:`~repro.faq.annotated.sum_product` of ``[dFᵢ, new…, old…]``
    (every product row extends a row of the tiny delta factor), and one
    ⊕-fold absorbs all terms into the old result.
    """
    semiring = old_result.semiring
    if not semiring.invertible:
        return None
    terms = [
        [delta, *reversed(new_factors[:i]), *old_factors[i + 1 :]]
        for i, delta in enumerate(delta_factors)
        if delta is not None and len(delta)
    ]
    if not terms:
        return old_result
    contributions = [sum_product(term, free)[0] for term in terms]
    return old_result.combine(*contributions, name=old_result.name)
