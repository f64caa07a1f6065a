"""The shared execution driver both WCOJ baselines run on.

Generic Join (:mod:`repro.relational.wcoj`) and Leapfrog Triejoin
(:mod:`repro.relational.leapfrog`) differ only in *how they intersect the
active trie levels at inner depths*; everything else — the per-depth
iterator plan, the node-token memoization, the fused block leaves, the
C-speed emission — is common machinery and lives here, in a module neutral
to both algorithms:

* :func:`global_variable_order` validates/normalizes the variable order;
* :func:`level_plan` builds one shared
  :class:`~repro.relational.trie.SortedTrieIterator` per relation and the
  per-depth active/descend lists;
* :func:`set_intersection` is the hash-set intersection charging the
  smallest candidate set (Generic Join's mechanism, and the leaf-block
  intersection for both algorithms);
* :func:`execute_join` is the recursion itself, parameterized by the
  inner-level intersection.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import QueryError
from repro.relational.backend import current_backend
from repro.relational.operators import current_counter
from repro.relational.relation import Relation

__all__ = [
    "delta_root_ranges",
    "execute_join",
    "global_variable_order",
    "level_plan",
    "set_intersection",
]


def delta_root_ranges(
    relations: Sequence[Relation],
    order: tuple[str, ...],
    delta_index: int,
) -> list[tuple[int, int] | None] | None:
    """Root bounds restricting a delta-rule join term to the delta's key span.

    ``relations[delta_index]`` is the (tiny) delta relation of one term of
    the delta-rule expansion d(R₁⋈…⋈Rₖ) = Σᵢ R₁'⋈…⋈dRᵢ⋈…⋈Rₖ.  When the
    delta mentions the first variable of the global order, every output
    binding's ``order[0]`` code lies inside the delta's code span on that
    variable, so each relation anchored on ``order[0]`` can bound its trie
    root to that span — two binary searches per relation, the same zero-copy
    restriction the partition-parallel shards use
    (:class:`~repro.relational.trie.SortedTrieIterator` root bounds).

    Returns ``None`` (no restriction possible) when the delta is empty or
    does not contain ``order[0]``.
    """
    if not order:
        return None
    v0 = order[0]
    delta = relations[delta_index]
    if v0 not in delta.attributes:
        return None
    delta_attrs = tuple(v for v in order if v in delta.attributes)
    delta_column = delta.column_set(delta_attrs)
    if not delta_column.nrows:
        return None
    v0_column = delta_column.columns[0]
    code_lo, code_hi = v0_column[0], v0_column[-1] + 1
    ranges: list[tuple[int, int] | None] = []
    for index, relation in enumerate(relations):
        if index == delta_index or v0 not in relation.attributes:
            ranges.append(None)
            continue
        attrs = tuple(v for v in order if v in relation.attributes)
        ranges.append(relation.column_set(attrs).code_range(code_lo, code_hi))
    return ranges


def global_variable_order(
    relations: Sequence[Relation], variable_order: Sequence[str] | None
) -> tuple[str, ...]:
    """Validate and normalize the shared variable resolution order."""
    all_vars: set[str] = set()
    for relation in relations:
        all_vars |= relation.attributes
    if variable_order is None:
        return tuple(sorted(all_vars))
    order = tuple(variable_order)
    if set(order) != all_vars:
        raise QueryError(
            f"variable order {order} does not cover variables {sorted(all_vars)}"
        )
    return order


def level_plan(
    relations: Sequence[Relation],
    order: tuple[str, ...],
    root_ranges: Sequence[tuple[int, int] | None] | None = None,
) -> tuple[list, list]:
    """Per-depth iterator plan shared by both WCOJ baselines.

    Returns ``(active_at, descend_at)``: for each depth, the shared trie
    iterators whose relation contains that variable, and the subset whose
    attribute list continues past it (only those must ``open_at``/``up``
    around the recursive call — an iterator positioned on its last attribute
    contributes candidates from where it already stands).

    ``root_ranges`` optionally bounds each relation's iterator root to a row
    range of its order-restricted column set (``None`` entries mean the full
    relation) — the zero-copy shard restriction of :mod:`repro.parallel`.

    Raises:
        QueryError: if some variable appears in no relation.
    """
    entries = []
    for index, relation in enumerate(relations):
        attrs = tuple(v for v in order if v in relation.attributes)
        bounds = root_ranges[index] if root_ranges is not None else None
        entries.append((attrs, relation.trie_iterator(attrs, bounds=bounds)))
    active_at: list[list] = []
    descend_at: list[list] = []
    for var in order:
        active = [it for attrs, it in entries if var in attrs]
        if not active:
            raise QueryError(f"variable {var!r} appears in no relation")
        active_at.append(active)
        descend_at.append(
            [it for attrs, it in entries if attrs and var in attrs and attrs[-1] != var]
        )
    return active_at, descend_at


def set_intersection(active: list, counter) -> list[int]:
    """Sorted intersection of the active iterators' child key sets.

    The per-node cost is charged as the smallest candidate set — the Generic
    Join charging argument — and the intersection itself runs at C speed on
    the cached per-node frozensets.
    """
    if len(active) == 2:
        first = active[0].child_key_set()
        second = active[1].child_key_set()
        if len(first) > len(second):
            first, second = second, first
        counter.tuples_scanned += len(first)
        return sorted(first & second)
    key_sets = [iterator.child_key_set() for iterator in active]
    smallest = min(key_sets, key=len)
    counter.tuples_scanned += len(smallest)
    return sorted(
        smallest.intersection(*[s for s in key_sets if s is not smallest])
    )


def execute_join(
    relations: Sequence[Relation],
    variable_order: Sequence[str] | None,
    name: str,
    inner_intersect,
    root_ranges: Sequence[tuple[int, int] | None] | None = None,
    leaf_intersect=None,
) -> Relation:
    """The recursion both WCOJ baselines share over the trie iterators.

    ``inner_intersect(active, counter)`` supplies the algorithm-specific
    intersection of two-or-more active levels at *inner* depths (Generic
    Join: hash-set intersection iterating the smallest candidate set;
    Leapfrog Triejoin: the §3.1 leapfrog over the sorted key runs).
    Everything else is common machinery:

    * ``active_at[d]`` / ``descend_at[d]`` from :func:`level_plan`;
    * per-depth memos keyed by the active iterators' node tokens, so each
      distinct combination of trie nodes is intersected exactly once (the
      columnar analogue of the dict-trie engines' bound-prefix memo);
    * leaf levels (nothing to descend into) always intersect whole blocks
      over the cached key sets and emit them with C-speed prefix concats,
      with the leaf fused into its parent loop and memoized by
      ``(value, pre-descent node tokens)`` — a leaf active's node is a
      function of its standing node and the value being opened, so repeated
      combinations skip the descent altogether.

    The recursion enumerates bindings in ascending code order, so the output
    rows arrive sorted and duplicate-free.  ``root_ranges`` restricts each
    relation's trie root to a row range (see :func:`level_plan`): with every
    relation containing the first variable bounded to one code range, the
    call computes exactly that shard of the join — the serial building block
    of :class:`repro.planner.QueryEngine`'s pooled shards.

    ``leaf_intersect`` overrides the leaf-block intersection (default: the
    whole-block hash-set intersection).  The delta-maintenance terms pass
    their probe intersection here too — a term touches each leaf node once,
    so materializing its cached key set would never pay off.

    When the ``"vectorized"`` backend is active
    (:mod:`repro.relational.backend`), the whole recursion delegates to the
    numpy block executor (:mod:`repro.relational.vectorized`): every
    intersection passed here (hash-set, leapfrog, delta-probe) computes the
    same candidate set, which the block kernel computes by one
    smallest-span-driver probe — same sorted code rows, same emitted totals,
    block-sized scan charges.
    """
    order = global_variable_order(relations, variable_order)
    if current_backend() == "vectorized":
        from repro.relational.vectorized import vectorized_execute_join

        return vectorized_execute_join(relations, order, name, root_ranges)
    active_at, descend_at = level_plan(relations, order, root_ranges)

    counter = current_counter()
    out_rows: list[tuple] = []
    binding: list[int] = []
    last = len(order) - 1
    memos: list[dict] = [{} for _ in order]
    if leaf_intersect is None:
        leaf_intersect = set_intersection

    def matches_at(depth: int) -> list[int]:
        active = active_at[depth]
        if len(active) == 1:
            candidates = active[0].child_keys()
            counter.tuples_scanned += len(candidates)
            return candidates
        if len(active) == 2:
            # Explicit pair instead of tuple(generator): same value, but the
            # generator protocol costs ~2-3x on this per-node hot path.
            token = (active[0].node_token(), active[1].node_token())
        else:
            token = tuple(iterator.node_token() for iterator in active)
        memo = memos[depth]
        cached = memo.get(token)
        if cached is not None:
            counter.tuples_scanned += len(cached)
            return cached
        if depth == last:
            matched = leaf_intersect(active, counter)
        else:
            matched = inner_intersect(active, counter)
        memo[token] = matched
        return matched

    def leaf_block(leaf_active: list) -> list[int]:
        if len(leaf_active) == 1:
            matched = leaf_active[0].child_keys()
            counter.tuples_scanned += len(matched)
            return matched
        return leaf_intersect(leaf_active, counter)

    def recurse(depth: int) -> None:
        matched = matches_at(depth)
        if depth == last:
            prefix = tuple(binding)
            out_rows.extend(map(prefix.__add__, zip(matched)))
            counter.tuples_emitted += len(matched)
            return
        descend = descend_at[depth]
        if depth + 1 == last:
            base = tuple(binding)
            leaf_active = active_at[last]
            static_tokens = tuple(it.node_token() for it in leaf_active)
            memo = memos[last]
            for value in matched:
                key = (value,) + static_tokens
                leaf_matched = memo.get(key)
                if leaf_matched is None:
                    for iterator in descend:
                        iterator.open_at(value)
                    leaf_matched = leaf_block(leaf_active)
                    for iterator in descend:
                        iterator.up()
                    memo[key] = leaf_matched
                else:
                    counter.tuples_scanned += len(leaf_matched)
                prefix = base + (value,)
                out_rows.extend(map(prefix.__add__, zip(leaf_matched)))
                counter.tuples_emitted += len(leaf_matched)
            return
        for value in matched:
            for iterator in descend:
                iterator.open_at(value)
            binding.append(value)
            recurse(depth + 1)
            binding.pop()
            for iterator in descend:
                iterator.up()

    if last >= 0:
        recurse(0)
    else:
        out_rows.append(())
        counter.tuples_emitted += 1
    return Relation.from_codes(name, order, out_rows, presorted=True, distinct=True)
