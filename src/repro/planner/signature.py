"""Canonical plan signatures and variable-renaming utilities.

A PANDA plan — the bound's value, its Shannon-flow inequality, and the
proof sequence built from it — depends only on ``(universe, targets, degree
constraints)``, never on the data.  Two instances that differ by a variable
renaming (and by atom/constraint order) therefore share a plan up to that
renaming: every bag of a cycle query, for example, is isomorphic to every
other bag under a rotation.

:func:`rule_signature` computes a *canonical signature* of an instance on the
PR 1 mask kernel: subsets become masks under the universe's :class:`VarMap`,
and a canonical bit permutation is chosen so that isomorphic instances map to
the identical signature key.  The permutation search is pruned by an
isomorphism-invariant per-bit profile (which targets/constraints a bit
participates in, by size and bound), so only bits that are genuinely
interchangeable are permuted; universes larger than
:data:`MAX_CANONICAL_SEARCH` variables fall back to the identity labelling
(exact-match caching only — still sound, just less sharing).

The ``rename_*`` helpers translate every plan component (flow inequalities,
witnesses, proof steps, supporting degree constraints) through a variable
bijection; :class:`repro.planner.cache.PlanCache` hits use them to re-key a
stored plan into the requesting instance's variable names.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Mapping, Sequence

from repro.core.constraints import DegreeConstraint
from repro.core.varmap import VarMap
from repro.flows.inequality import FlowInequality, Witness
from repro.flows.proof_sequence import ProofStep

__all__ = [
    "MAX_CANONICAL_SEARCH",
    "rule_signature",
    "rename_set",
    "rename_pair_dict",
    "rename_witness",
    "rename_flow_inequality",
    "rename_step",
    "rename_degree_constraint",
]

#: Beyond this universe size the canonical permutation search is skipped and
#: the identity labelling used instead (sound; caching then only matches
#: instances with identical variable names).
MAX_CANONICAL_SEARCH = 7


def _remap_mask(mask: int, perm: Sequence[int]) -> int:
    """Apply a bit permutation (``perm[i]`` = new position of bit ``i``)."""
    out = 0
    while mask:
        bit = mask & -mask
        out |= 1 << perm[bit.bit_length() - 1]
        mask ^= bit
    return out


def _encode(
    perm: Sequence[int],
    target_masks: Sequence[int],
    constraint_items: Sequence[tuple[int, int, int]],
) -> tuple:
    targets = tuple(sorted(_remap_mask(m, perm) for m in target_masks))
    constraints = tuple(
        sorted(
            (_remap_mask(x, perm), _remap_mask(y, perm), bound)
            for x, y, bound in constraint_items
        )
    )
    return (targets, constraints)


def _bit_profile(
    bit: int,
    target_masks: Sequence[int],
    constraint_items: Sequence[tuple[int, int, int]],
) -> tuple:
    """An isomorphism-invariant description of one bit's incidences."""
    probe = 1 << bit
    in_targets = tuple(
        sorted((mask.bit_count(), 1 if mask & probe else 0) for mask in target_masks)
    )
    in_constraints = tuple(
        sorted(
            (
                x.bit_count(),
                y.bit_count(),
                bound,
                1 if x & probe else 0,
                1 if y & probe else 0,
            )
            for x, y, bound in constraint_items
        )
    )
    return (in_targets, in_constraints)


def _minimizing_permutation(
    n: int,
    target_masks: Sequence[int],
    constraint_items: Sequence[tuple[int, int, int]],
) -> tuple[int, ...]:
    """The bit permutation whose encoding is lexicographically least.

    Bits are first partitioned by :func:`_bit_profile`; only bits sharing a
    profile are interchangeable, so the search space is the product of the
    per-class factorials rather than ``n!``.
    """
    classes: dict[tuple, list[int]] = {}
    for bit in range(n):
        classes.setdefault(
            _bit_profile(bit, target_masks, constraint_items), []
        ).append(bit)
    ordered = [classes[key] for key in sorted(classes)]
    # Class ``k`` occupies the slot range right after class ``k-1``.
    slot_ranges: list[range] = []
    start = 0
    for members in ordered:
        slot_ranges.append(range(start, start + len(members)))
        start += len(members)

    best_encoding: tuple | None = None
    best_perm: tuple[int, ...] | None = None
    for arrangement in _class_arrangements(ordered):
        perm = [0] * n
        for members, slots in zip(arrangement, slot_ranges):
            for bit, slot in zip(members, slots):
                perm[bit] = slot
        encoding = _encode(perm, target_masks, constraint_items)
        if best_encoding is None or encoding < best_encoding:
            best_encoding = encoding
            best_perm = tuple(perm)
    assert best_perm is not None
    return best_perm


def _class_arrangements(classes: list[list[int]]):
    """All ways to order the members within every profile class."""
    if not classes:
        yield []
        return
    head, *tail = classes
    for rest in _class_arrangements(tail):
        for ordering in permutations(head):
            yield [list(ordering), *rest]


def rule_signature(
    universe: Sequence[str],
    targets: Iterable[frozenset],
    constraints: Iterable[DegreeConstraint],
) -> tuple[tuple, tuple[str, ...]]:
    """The canonical signature of a ``(targets, hypergraph, DC)`` instance.

    The hypergraph is implicit in the constraint set: every guarded degree
    constraint names its edge through ``Y`` (cardinality constraints are the
    edges themselves), which is exactly the structure the bound LP sees.

    Returns:
        ``(key, canonical_to_instance)`` where ``key`` is hashable, equal
        across instances that differ only by a variable renaming and by
        target/constraint order, and ``canonical_to_instance[p]`` is the
        instance variable at canonical position ``p`` (the witness of the
        canonicalization, used to translate cached plans between instances).
    """
    universe = tuple(universe)
    vm = VarMap.of(universe)
    n = vm.n
    target_masks = sorted(vm.mask_of(t) for t in targets)
    constraint_items = sorted(
        (vm.mask_of(c.x), vm.mask_of(c.y), c.bound) for c in constraints
    )
    if n > MAX_CANONICAL_SEARCH:
        perm: tuple[int, ...] = tuple(range(n))
    else:
        perm = _minimizing_permutation(n, target_masks, constraint_items)
    encoding = _encode(perm, target_masks, constraint_items)
    key = (n, *encoding)
    canonical_to_instance = tuple(
        universe[bit] for bit in sorted(range(n), key=lambda b: perm[b])
    )
    return key, canonical_to_instance


# -- renaming -------------------------------------------------------------------


def rename_set(subset: frozenset, mapping: Mapping[str, str]) -> frozenset:
    return frozenset(mapping[v] for v in subset)


def rename_pair_dict(values: Mapping, mapping: Mapping[str, str]) -> dict:
    return {
        (rename_set(x, mapping), rename_set(y, mapping)): v
        for (x, y), v in values.items()
    }


def rename_witness(witness: Witness, mapping: Mapping[str, str]) -> Witness:
    return Witness(
        rename_pair_dict(witness.sigma, mapping),
        rename_pair_dict(witness.mu, mapping),
    )


def rename_flow_inequality(
    ineq: FlowInequality, mapping: Mapping[str, str]
) -> FlowInequality:
    return FlowInequality(
        tuple(sorted(mapping[v] for v in ineq.universe)),
        {rename_set(b, mapping): w for b, w in ineq.lam.items()},
        rename_pair_dict(ineq.delta, mapping),
    )


def rename_step(step: ProofStep, mapping: Mapping[str, str]) -> ProofStep:
    return ProofStep(
        step.kind,
        rename_set(step.first, mapping),
        rename_set(step.second, mapping),
    )


def rename_degree_constraint(
    constraint: DegreeConstraint, mapping: Mapping[str, str]
) -> DegreeConstraint:
    return DegreeConstraint(
        tuple(sorted(mapping[v] for v in constraint.x_key)),
        tuple(sorted(mapping[v] for v in constraint.y_key)),
        constraint.bound,
    )
