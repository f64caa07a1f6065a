"""Poly-sized proof sequences via max-flow (Appendix B.2: Def. B.9, Lemma B.10,
Theorem B.12 / Algorithm 3).

Algorithm 2 (:mod:`repro.flows.flow_network`) pushes one augmenting path per
iteration.  Algorithm 3 batches: it builds the *extended* flow network
``G¯(λ, δ, σ, μ)`` of Definition B.9 —

* nodes ``2^[n]``, one node ``T_{I,J}`` per positive submodularity multiplier,
  and a sink ``T̄``;
* up arcs ``(X, Y)`` of capacity ``δ_{Y|X}``, down arcs ``(Y, X)`` of infinite
  capacity, arcs ``I -> T_{I,J} -> T̄`` of capacity ``σ_{I,J}``, and arcs
  ``(B, T̄)`` of capacity ``λ_B`` —

computes a maximum flow with Edmonds–Karp, decomposes it into source-to-sink
paths, and interprets every path as a run of proof steps:

* an up arc ``(X, Y)`` emits the composition ``c_{X,Y}``,
* a down arc ``(Y, X)`` emits the decomposition ``d_{Y,X}``,
* an arc into ``T_{I,J}`` emits ``d_{I,I∩J}`` then the submodularity
  ``s_{I,J}``, converting ``σ_{I,J}`` into fresh up-arc capacity
  ``δ_{I∪J|J}`` (plus the split-off ``δ_{I∩J|∅}``) for the next round,
* an arc ``(B, T̄)`` pays ``λ_B``.

Every arc traversal is one of the Theorem 5.9 induction moves, so the
remaining ``(λ, δ, σ, μ)`` stays a valid witness between rounds, and
Lemma B.10 (max flow ``>= ‖λ‖₁``, proved by min-cut) guarantees progress:
each round retires flow value of ``λ``- or ``σ``-mass, so the number of
rounds is bounded by the (Corollary B.7-normalized) witness norms.

Substitution note (recorded in DESIGN.md): the paper first rewrites the
witness so that ``2‖σ‖₁ + ‖δ‖₁ <= n³·‖λ‖₁`` (Corollary B.7, via the
Lemma B.5 variable-conditioning lift).  We apply the implemented part of that
pipeline — tightening plus the Lemma B.3 conditioned-μ reduction
(:mod:`repro.flows.witness_reduction`) — and *measure* the achieved norms
instead of guaranteeing the n³ constant; the construction itself is
unchanged and its per-round behaviour matches Algorithm 3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable

from repro.exceptions import ProofSequenceError, WitnessError
from repro.flows.inequality import FlowInequality, Witness, verify_witness
from repro.flows.proof_sequence import (
    COMPOSITION,
    DECOMPOSITION,
    SUBMODULARITY,
    ProofSequence,
    ProofStep,
)
from repro.flows.witness_reduction import reduce_conditioned_mu

__all__ = [
    "ExtendedFlowNetwork",
    "MaxFlowResult",
    "construct_via_max_flow",
]

_ZERO = Fraction(0)
_EMPTY = frozenset()

#: Sink node of the extended network.
SINK = "T̄"

Pair = tuple[frozenset, frozenset]
Node = Hashable  # frozenset | ("sigma", Pair) | SINK


@dataclass
class MaxFlowResult:
    """A feasible maximum flow of an :class:`ExtendedFlowNetwork`.

    Attributes:
        value: the flow value (``= min cut``).
        flow: net flow per arc ``(u, v)``; only positive entries are kept.
    """

    value: Fraction
    flow: dict[tuple[Node, Node], Fraction] = field(default_factory=dict)


class ExtendedFlowNetwork:
    """The network ``G¯(λ, δ, σ, μ)`` of Definition B.9.

    Node set: the *relevant* subsets of the universe (every set appearing in
    ``λ``/``δ``/``σ`` together with σ meets and joins — down arcs to other
    subsets can never extend a source-sink path, see Lemma B.10's cut
    argument), one ``("sigma", (I, J))`` relay per positive ``σ_{I,J}``, and
    the sink :data:`SINK`.
    """

    def __init__(
        self,
        lam: dict[frozenset, Fraction],
        delta: dict[Pair, Fraction],
        sigma: dict[Pair, Fraction],
    ) -> None:
        self.lam = {k: v for k, v in lam.items() if v > _ZERO}
        self.delta = {k: v for k, v in delta.items() if v > _ZERO}
        self.sigma = {k: v for k, v in sigma.items() if v > _ZERO}
        self.capacity: dict[tuple[Node, Node], Fraction] = {}
        self._build()

    def _build(self) -> None:
        relevant: set[frozenset] = {_EMPTY}
        relevant.update(self.lam)
        for (x, y) in self.delta:
            relevant.update((x, y))
        for (i, j) in self.sigma:
            relevant.update((i, j, i & j, i | j))

        finite_total = (
            sum(self.delta.values(), _ZERO)
            + sum(self.sigma.values(), _ZERO)
            + sum(self.lam.values(), _ZERO)
        )
        #: Effective infinity: exceeds any possible flow value.
        self.infinite = finite_total + 1

        # Up arcs: capacity δ_{Y|X}.
        for (x, y), value in self.delta.items():
            self._add((x, y), value)
        # Down arcs: infinite capacity, only into relevant subsets.
        for upper in relevant:
            for lower in relevant:
                if lower < upper:
                    self._add((upper, lower), self.infinite)
        # Submodularity relays I -> T_{I,J} -> T̄ and J -> T_{I,J}.
        for (i, j), value in self.sigma.items():
            relay = ("sigma", (i, j))
            self._add((i, relay), self.infinite)
            self._add((j, relay), self.infinite)
            self._add((relay, SINK), value)
        # Target arcs (B, T̄) of capacity λ_B.
        for b, value in self.lam.items():
            self._add((b, SINK), value)

    def _add(self, arc: tuple[Node, Node], capacity: Fraction) -> None:
        self.capacity[arc] = self.capacity.get(arc, _ZERO) + capacity

    # -- Edmonds–Karp ----------------------------------------------------------------

    def max_flow(self) -> MaxFlowResult:
        """Maximum ∅ → T̄ flow via Edmonds–Karp (BFS augmenting paths)."""
        flow: dict[tuple[Node, Node], Fraction] = {}
        adjacency: dict[Node, list[Node]] = {}
        for (u, v) in self.capacity:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)  # residual back-arc

        def residual(u: Node, v: Node) -> Fraction:
            return (
                self.capacity.get((u, v), _ZERO)
                - flow.get((u, v), _ZERO)
                + flow.get((v, u), _ZERO)
            )

        total = _ZERO
        while True:
            parents: dict[Node, Node] = {_EMPTY: _EMPTY}
            queue: deque[Node] = deque([_EMPTY])
            while queue and SINK not in parents:
                u = queue.popleft()
                for v in adjacency.get(u, ()):
                    if v not in parents and residual(u, v) > _ZERO:
                        parents[v] = u
                        queue.append(v)
            if SINK not in parents:
                break
            # Bottleneck along the path.
            path: list[tuple[Node, Node]] = []
            node = SINK
            while node != _EMPTY:
                prev = parents[node]
                path.append((prev, node))
                node = prev
            bottleneck = min(residual(u, v) for (u, v) in path)
            for (u, v) in path:
                # Cancel against reverse flow first.
                back = flow.get((v, u), _ZERO)
                if back >= bottleneck:
                    flow[(v, u)] = back - bottleneck
                else:
                    if back > _ZERO:
                        flow[(v, u)] = _ZERO
                    flow[(u, v)] = flow.get((u, v), _ZERO) + bottleneck - back
            total += bottleneck
        positive = {arc: v for arc, v in flow.items() if v > _ZERO}
        return MaxFlowResult(value=total, flow=positive)

    def check_lemma_b10(self) -> MaxFlowResult:
        """Lemma B.10: the max flow is at least ``‖λ‖₁``.

        Raises:
            WitnessError: if the bound fails (the state is not a valid
                witness).
        """
        result = self.max_flow()
        lam_norm = sum(self.lam.values(), _ZERO)
        if result.value < lam_norm:
            raise WitnessError(
                f"Lemma B.10 violated: max flow {result.value} < "
                f"‖λ‖₁ = {lam_norm}"
            )
        return result


def _decompose(
    network: ExtendedFlowNetwork, result: MaxFlowResult
) -> list[tuple[list[tuple[Node, Node]], Fraction]]:
    """Split a feasible flow into ∅ → T̄ paths, cancelling cycles on the way."""
    flow = dict(result.flow)
    outgoing: dict[Node, list[Node]] = {}
    for (u, v), value in flow.items():
        if value > _ZERO:
            outgoing.setdefault(u, []).append(v)

    def next_arc(u: Node) -> Node | None:
        for v in outgoing.get(u, ()):
            if flow.get((u, v), _ZERO) > _ZERO:
                return v
        return None

    paths: list[tuple[list[tuple[Node, Node]], Fraction]] = []
    while True:
        if next_arc(_EMPTY) is None:
            break
        # Walk from the source following positive flow.
        walk: list[Node] = [_EMPTY]
        positions = {_EMPTY: 0}
        while walk[-1] != SINK:
            nxt = next_arc(walk[-1])
            if nxt is None:
                raise ProofSequenceError(
                    "flow decomposition stuck (conservation violated)"
                )
            if nxt in positions:
                # Cycle: cancel it and restart the walk.
                start = positions[nxt]
                cycle = [
                    (walk[k], walk[k + 1]) for k in range(start, len(walk) - 1)
                ] + [(walk[-1], nxt)]
                bottleneck = min(flow[arc] for arc in cycle)
                for arc in cycle:
                    flow[arc] -= bottleneck
                walk = [_EMPTY]
                positions = {_EMPTY: 0}
                continue
            positions[nxt] = len(walk)
            walk.append(nxt)
        arcs = [(walk[k], walk[k + 1]) for k in range(len(walk) - 1)]
        bottleneck = min(flow[arc] for arc in arcs)
        for arc in arcs:
            flow[arc] -= bottleneck
        paths.append((arcs, bottleneck))
    return paths


def _emit_path(
    sequence: ProofSequence,
    lam: dict[frozenset, Fraction],
    delta: dict[Pair, Fraction],
    sigma: dict[Pair, Fraction],
    arcs: list[tuple[Node, Node]],
    amount: Fraction,
) -> None:
    """Interpret one decomposed path as proof steps (Algorithm 3 lines 11-29)."""

    def bump(table: dict, key, change: Fraction) -> None:
        value = table.get(key, _ZERO) + change
        if value < _ZERO:
            raise ProofSequenceError(
                f"max-flow push drove {key} negative ({value})"
            )
        if value == _ZERO:
            table.pop(key, None)
        else:
            table[key] = value

    for (u, v) in arcs:
        if v == SINK:
            if isinstance(u, tuple) and u[0] == "sigma":
                continue  # accounted at the relay hop below
            # (B, T̄): pay λ_B out of the δ_{B|∅} mass parked at B.
            bump(lam, u, -amount)
            bump(delta, (_EMPTY, u), -amount)
        elif isinstance(v, tuple) and v[0] == "sigma":
            i, j = v[1]
            first = u  # the side the flow arrived on (I or J)
            second = j if first == i else i
            meet = first & second
            if meet:
                sequence.append(amount, ProofStep(DECOMPOSITION, first, meet))
                bump(delta, (_EMPTY, meet), amount)
            sequence.append(amount, ProofStep(SUBMODULARITY, first, second))
            bump(delta, (_EMPTY, first), -amount)
            bump(delta, (second, first | second), amount)
            bump(sigma, (i, j), -amount)
        elif v < u:  # down arc
            if v != _EMPTY:
                sequence.append(amount, ProofStep(DECOMPOSITION, u, v))
                bump(delta, (v, u), amount)
                bump(delta, (_EMPTY, v), amount)
            bump(delta, (_EMPTY, u), -amount)
        else:  # up arc (u ⊂ v) of capacity δ_{v|u}
            if u != _EMPTY:
                sequence.append(amount, ProofStep(COMPOSITION, u, v))
                bump(delta, (_EMPTY, u), -amount)
            bump(delta, (u, v), -amount)
            bump(delta, (_EMPTY, v), amount)


def construct_via_max_flow(
    ineq: FlowInequality,
    witness: Witness,
    max_rounds: int = 10_000,
    reduce_witness: bool = True,
) -> ProofSequence:
    """Algorithm 3: proof sequence through rounds of batched max flow.

    Args:
        ineq: the Shannon-flow inequality ``⟨λ, h⟩ <= ⟨δ, h⟩`` to prove.
        witness: a valid witness.
        max_rounds: safety cap on Edmonds–Karp rounds.
        reduce_witness: run the B.1 normalization first (recommended; mirrors
            Algorithm 3 line 4).

    Returns:
        A verified :class:`ProofSequence`.  With ``reduce_witness=False`` it
        is a mechanical rewriting of ``ineq``'s own δ bag; with the default
        normalization it rewrites the B.1-dominated bag ``δ'`` (and therefore
        proves ``⟨λ, h⟩ <= ⟨δ', h⟩ <= ⟨δ, h⟩``, Lemma B.11's expansion back to
        the literal δ bag being a pure-bookkeeping prefix we do not emit).
    """
    verify_witness(ineq, witness)
    if reduce_witness:
        work_ineq, work_witness = reduce_conditioned_mu(ineq, witness)
    else:
        work_ineq, work_witness = ineq, witness

    lam = dict(work_ineq.lam)
    delta = dict(work_ineq.delta)
    sigma = dict(work_witness.sigma)
    sequence = ProofSequence()

    rounds = 0
    while any(v > _ZERO for v in lam.values()):
        rounds += 1
        if rounds > max_rounds:
            raise ProofSequenceError(
                f"max-flow construction exceeded {max_rounds} rounds"
            )
        network = ExtendedFlowNetwork(lam, delta, sigma)
        result = network.check_lemma_b10()
        if result.value <= _ZERO:
            raise ProofSequenceError(
                "max flow vanished with λ outstanding (invalid witness state)"
            )
        progressed = False
        for arcs, amount in _decompose(network, result):
            _emit_path(sequence, lam, delta, sigma, arcs, amount)
            progressed = True
        if not progressed:
            raise ProofSequenceError("positive max flow decomposed to no paths")

    # The emitted steps were applied to our working δ; re-verify end to end
    # against the inequality whose bag we actually rewrote.
    sequence.verify(work_ineq)
    return sequence
