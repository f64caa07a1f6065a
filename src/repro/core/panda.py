"""PANDA — Proof-Assisted eNtropic Degree-Aware rule evaluation (Algorithm 1).

PANDA computes a *model* of a disjunctive datalog rule ``P`` within the time
predicted by the polymatroid bound (Eq. 9)::

    O~( N + poly(log N) · 2^{LogSizeBound_{Γn ∩ H_DC}(P)} ).

The pipeline (§6):

1. solve the maximin bound LP; its dual gives λ (Lemma 5.2) and a Shannon-flow
   inequality ``⟨λ, h⟩ <= ⟨δ, h⟩`` with witness ``(σ, μ)`` (Prop. 5.4);
2. build a proof sequence (Theorem 5.9);
3. interpret each proof step as a relational operation:

   ========================  =======================================
   submodularity  s_{I,J}    bookkeeping only (re-associate support)
   monotonicity   m_{X,Y}    projection ``Π_X`` of the guard
   decomposition  d_{Y,X}    Lemma 6.1 heavy/light partition, one
                             recursive branch per piece, union results
   composition    c_{X,Y}    the join ``Π_X(R) ⋈ Π_W(S)`` **if** its
                             static size bound fits the budget
                             (Case 4a), else the Lemma 5.11 truncation
                             + restart (Case 4b)
   ========================  =======================================

Invariants maintained per §6.1 (checked at every recursive call):

1. *degree support* — every positive ``δ_{Y|X}`` is supported by a degree
   constraint ``(Z, W, N_{W|Z})`` with ``Z ⊆ X``, ``W ⊆ Y``, ``W−Z = Y−X``,
   guarded by a live relation;
2. ``0 < ‖λ‖₁ <= 1``;
3. the potential ``Σ n(δ_{Y|X}) <= ‖λ‖₁ · OBJ``;
4. every supported ``δ_{Y|∅}`` has ``n_{Y|∅} <= OBJ``.

**Witness snapshots.**  Case 4b needs a witness of the inequality that remains
*mid-execution*.  :func:`repro.flows.construct_proof_sequence` records, per
emitted step, the evolved ``(σ_i, μ_i)`` of the Theorem 5.9 induction; a short
flow-conservation argument (each emitted move and each silent λ-payment /
surplus-discard preserves ``inflow(Z) − λ_Z`` contributions appropriately)
shows that this snapshot witnesses ``⟨λ, h⟩ <= ⟨δ_i, h⟩`` for PANDA's own
``δ_i``, which dominates the induction's working δ coordinate-wise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from repro.core.constraints import ConstraintSet, log2_fraction
from repro.core.varmap import VarMap
from repro.datalog.atoms import binding_cardinalities
from repro.datalog.rule import DisjunctiveRule, TargetModel
from repro.exceptions import PandaError
from repro.flows.inequality import FlowInequality, Witness
from repro.flows.proof_sequence import (
    COMPOSITION,
    DECOMPOSITION,
    MONOTONICITY,
    SUBMODULARITY,
    ProofStep,
    construct_proof_sequence,
    truncate,
)
from repro.relational.database import Database
from repro.relational.operators import (
    heavy_light_partition,
    natural_join,
    project,
    union,
)
from repro.relational.relation import Relation

__all__ = ["PandaResult", "PandaStats", "Support", "panda"]

_ZERO = Fraction(0)
_EMPTY = frozenset()
#: Case 4b restarts one PANDA run may take before it gives up.
_MAX_RESTARTS = 10_000

Pair = tuple[frozenset, frozenset]


@dataclass(frozen=True)
class Support:
    """The degree constraint supporting a positive δ coordinate (§6.1 inv. 1).

    Attributes:
        z: the constraint's conditioning set ``Z ⊆ X``.
        w: the constraint's determined set ``W ⊆ Y`` with ``W − Z = Y − X``.
        bound: ``N_{W|Z}``.
        guard: the live relation guarding the constraint.
    """

    z: frozenset
    w: frozenset
    bound: int
    guard: Relation

    @property
    def log_bound(self) -> Fraction:
        return log2_fraction(max(1, self.bound))

    def validate_for(self, pair: Pair) -> None:
        x, y = pair
        if not (self.z <= x and self.w <= y and self.w - self.z == y - x):
            raise PandaError(
                f"support (Z={sorted(self.z)}, W={sorted(self.w)}) does not "
                f"support δ pair (X={sorted(x)}, Y={sorted(y)})"
            )


@dataclass
class PandaStats:
    """Execution statistics (used by benchmarks and invariant tests)."""

    joins: int = 0
    projections: int = 0
    partitions: int = 0
    branches: int = 0
    restarts: int = 0
    steps_executed: int = 0
    base_cases: int = 0
    max_intermediate: int = 0
    intermediate_sizes: list = field(default_factory=list)

    def record_relation(self, relation: Relation) -> None:
        size = len(relation)
        self.intermediate_sizes.append(size)
        if size > self.max_intermediate:
            self.max_intermediate = size


@dataclass
class PandaResult:
    """Everything PANDA produced for one rule evaluation.

    ``model`` is ``None`` on a run a pooled shard reported: its tables are
    part of the merged answer, and tables do not travel home (RL-POOLSHIP).
    """

    model: TargetModel | None
    log_value: Fraction
    stats: PandaStats
    proof_sequence_length: int

    @property
    def budget(self) -> float:
        """``2^{OBJ}`` — every intermediate relation is at most this large."""
        return 2.0 ** float(self.log_value)  # reprolint: allow(RL-EXACT) -- presentation: float rendering of the exact bound; the exact Fraction stays in log_value


@dataclass
class _Branch:
    """One recursive PANDA subproblem."""

    relations: list[Relation]
    delta: dict[Pair, Fraction]
    lam: dict[frozenset, Fraction]
    supports: dict[Pair, Support]
    steps: list  # list[(Fraction, ProofStep, Witness)]
    depth: int


class _PandaEngine:
    """Recursive executor of Algorithm 1 for a fixed rule and budget."""

    def __init__(
        self,
        universe: tuple[str, ...],
        targets: tuple[frozenset, ...],
        budget_log: Fraction,
    ) -> None:
        self.universe = universe
        self.targets = targets
        self.budget_log = budget_log
        self.stats = PandaStats()
        #: slack absorbing log2 rationalization of non-power-of-two bounds.
        self.budget_slack = Fraction(1, 1_000_000)
        #: the mask kernel's interning map: every subset frozenset used as a
        #: δ/support dict key is canonicalized through it, so equal keys are
        #: the *same* object (cached hash, identity-fast comparisons).
        self.varmap = VarMap.of(universe)

    # -- helpers ----------------------------------------------------------------------

    def _intern(self, subset: frozenset) -> frozenset:
        vm = self.varmap
        return vm.set_of(vm.mask_of(subset))

    def intern_step(self, step: ProofStep) -> ProofStep:
        """Re-key a proof step's set parameters through the interning map."""
        return ProofStep(
            step.kind, self._intern(step.first), self._intern(step.second)
        )

    def _unconditioned_table(self, support: Support) -> Relation:
        """The guard restricted to exactly ``W`` attributes (for X = ∅ pairs)."""
        if support.guard.attributes == support.w:
            return support.guard
        table = project(support.guard, support.w)
        self.stats.projections += 1
        self.stats.record_relation(table)
        return table

    def _put_support(
        self, supports: dict[Pair, Support], pair: Pair, candidate: Support
    ) -> None:
        """Install a support, keeping the smaller bound on conflict (§6.1)."""
        candidate.validate_for(pair)
        current = supports.get(pair)
        if current is None or candidate.bound < current.bound:
            supports[pair] = candidate

    def _assert_invariants(self, branch: _Branch) -> None:
        lam_norm = sum(branch.lam.values(), _ZERO)
        if not (_ZERO < lam_norm <= 1):
            raise PandaError(f"invariant 2 violated: ‖λ‖ = {lam_norm}")
        potential = _ZERO
        for pair, value in branch.delta.items():
            if value <= _ZERO:
                continue
            support = branch.supports.get(pair)
            if support is None:
                raise PandaError(f"invariant 1 violated: δ{pair} unsupported")
            support.validate_for(pair)
            potential += value * support.log_bound
            if pair[0] == _EMPTY and support.log_bound > self.budget_log + self.budget_slack:
                raise PandaError(
                    f"invariant 4 violated: n({sorted(pair[1])}|∅) = "
                    f"{support.log_bound} > OBJ = {self.budget_log}"
                )
        if potential > lam_norm * self.budget_log + self.budget_slack:
            raise PandaError(
                f"invariant 3 violated: potential {potential} > "
                f"‖λ‖·OBJ = {lam_norm * self.budget_log}"
            )

    # -- the recursion ------------------------------------------------------------------

    def run(self, branch: _Branch) -> dict[frozenset, Relation]:
        """Execute one subproblem; returns produced tables by target."""
        self._assert_invariants(branch)

        # Base case (lines 1-2): a relation whose attribute set is a target.
        for relation in branch.relations:
            if relation.attributes in self.targets:
                self.stats.base_cases += 1
                return {relation.attributes: relation}

        if not branch.steps:
            return self._finalize(branch)

        weight, step, witness = branch.steps[0]
        rest = branch.steps[1:]
        self.stats.steps_executed += 1

        if step.kind == SUBMODULARITY:
            return self._case_submodularity(branch, weight, step, rest)
        if step.kind == MONOTONICITY:
            return self._case_monotonicity(branch, weight, step, rest)
        if step.kind == DECOMPOSITION:
            return self._case_decomposition(branch, weight, step, rest)
        if step.kind == COMPOSITION:
            return self._case_composition(branch, weight, step, witness, rest)
        raise PandaError(f"unknown proof step kind {step.kind!r}")

    def _finalize(self, branch: _Branch) -> dict[frozenset, Relation]:
        """Materialize a target table once the proof sequence is spent.

        At exhaustion ``δ_ℓ >= λ`` (Definition 5.7 (4)), so some target ``B``
        with ``λ_B > 0`` has ``δ_{B|∅} >= λ_B > 0`` and therefore (invariant 1)
        an unconditioned support whose guard ``R`` satisfies ``B ⊆ attrs(R)``
        and ``|Π_B(R)| <= N_{B|∅} <= 2^OBJ`` (invariant 4).  Every composition
        and partition step keeps each live table a superset of the projection
        of the branch's body tuples, so ``Π_B(R)`` covers the branch — a valid
        target table within budget.
        """
        for target in self.targets:
            if branch.lam.get(target, _ZERO) <= _ZERO:
                continue
            pair = (_EMPTY, target)
            if branch.delta.get(pair, _ZERO) < branch.lam[target]:
                continue
            support = branch.supports.get(pair)
            if support is None:
                continue
            table = self._unconditioned_table(support)
            return {target: table}
        raise PandaError(
            "proof sequence exhausted without reaching a target "
            "(theory violation)"
        )

    # -- Case 1: submodularity (bookkeeping only) -----------------------------------------

    def _case_submodularity(
        self, branch: _Branch, weight: Fraction, step: ProofStep, rest: list
    ) -> dict[frozenset, Relation]:
        i, j = step.first, step.second
        consumed = (i & j, i)
        produced = (j, i | j)
        delta = _apply(branch.delta, step, weight)
        supports = dict(branch.supports)
        support = branch.supports.get(consumed)
        if support is None:
            raise PandaError(f"submodularity step without support at {consumed}")
        # W − Z = I − I∩J = (I∪J) − J, so the same constraint supports the
        # produced coordinate (Fig. 8 (b)).
        self._put_support(supports, produced, support)
        return self.run(
            _Branch(branch.relations, delta, branch.lam, supports, rest, branch.depth)
        )

    # -- Case 2: monotonicity (projection) -------------------------------------------------

    def _case_monotonicity(
        self, branch: _Branch, weight: Fraction, step: ProofStep, rest: list
    ) -> dict[frozenset, Relation]:
        x, y = step.first, step.second
        support = branch.supports.get((_EMPTY, y))
        if support is None:
            raise PandaError(f"monotonicity step without support at (∅, {sorted(y)})")
        table = self._unconditioned_table(support)
        delta = _apply(branch.delta, step, weight)
        supports = dict(branch.supports)
        relations = list(branch.relations)
        if x != _EMPTY:
            projection = project(table, x, name=f"Π{{{','.join(sorted(x))}}}")
            self.stats.projections += 1
            self.stats.record_relation(projection)
            relations.append(projection)
            self._put_support(
                supports,
                (_EMPTY, x),
                Support(_EMPTY, x, max(1, len(projection)), projection),
            )
        return self.run(
            _Branch(relations, delta, branch.lam, supports, rest, branch.depth)
        )

    # -- Case 3: decomposition (heavy/light partition + branching) ---------------------------

    def _case_decomposition(
        self, branch: _Branch, weight: Fraction, step: ProofStep, rest: list
    ) -> dict[frozenset, Relation]:
        y, x = step.first, step.second
        support = branch.supports.get((_EMPTY, y))
        if support is None:
            raise PandaError(f"decomposition step without support at (∅, {sorted(y)})")
        table = self._unconditioned_table(support)
        delta = _apply(branch.delta, step, weight)

        if x == _EMPTY:
            # Degenerate split h(Y) -> h(∅) + h(Y|∅): pure bookkeeping; the
            # produced (∅, Y) coordinate keeps the same support.
            supports = dict(branch.supports)
            return self.run(
                _Branch(branch.relations, delta, branch.lam, supports, rest, branch.depth)
            )

        pieces = heavy_light_partition(table, x)
        self.stats.partitions += 1
        results: dict[frozenset, Relation] = {}
        for piece in pieces:
            self.stats.branches += 1
            self.stats.record_relation(piece.relation)
            supports = dict(branch.supports)
            self._put_support(
                supports,
                (_EMPTY, x),
                Support(_EMPTY, x, max(1, piece.x_count), piece.relation),
            )
            self._put_support(
                supports,
                (x, y),
                Support(x, y, max(1, piece.y_degree), piece.relation),
            )
            sub = _Branch(
                branch.relations + [piece.relation],
                dict(delta),
                branch.lam,
                supports,
                rest,
                branch.depth + 1,
            )
            for target, relation in self.run(sub).items():
                if target in results:
                    results[target] = union(
                        results[target], relation, name=relation.name
                    )
                else:
                    results[target] = relation
        if not pieces:
            # Empty guard: nothing to cover in this branch.
            return {}
        return results

    # -- Case 4: composition (join or truncate+restart) ---------------------------------------

    def _case_composition(
        self,
        branch: _Branch,
        weight: Fraction,
        step: ProofStep,
        witness: Witness,
        rest: list,
    ) -> dict[frozenset, Relation]:
        x, y = step.first, step.second
        support_x = branch.supports.get((_EMPTY, x))
        support_cond = branch.supports.get((x, y))
        if support_x is None or support_cond is None:
            raise PandaError(
                f"composition step without supports at (∅,{sorted(x)}) / "
                f"({sorted(x)},{sorted(y)})"
            )
        joined_log = support_x.log_bound + support_cond.log_bound
        if joined_log <= self.budget_log + self.budget_slack:
            return self._case_4a(
                branch, weight, step, rest, support_x, support_cond
            )
        return self._case_4b(branch, weight, step, witness)

    def _case_4a(
        self,
        branch: _Branch,
        weight: Fraction,
        step: ProofStep,
        rest: list,
        support_x: Support,
        support_cond: Support,
    ) -> dict[frozenset, Relation]:
        x, y = step.first, step.second
        left = self._unconditioned_table(support_x)
        right = project(support_cond.guard, support_cond.w) if (
            support_cond.guard.attributes != support_cond.w
        ) else support_cond.guard
        joined = natural_join(
            left, right, name=f"T{{{','.join(sorted(y))}}}"
        )
        self.stats.joins += 1
        self.stats.record_relation(joined)
        if joined.attributes != y:
            raise PandaError(
                f"composition produced schema {sorted(joined.attributes)}, "
                f"expected {sorted(y)}"
            )
        delta = _apply(branch.delta, step, weight)
        supports = dict(branch.supports)
        self._put_support(
            supports, (_EMPTY, y), Support(_EMPTY, y, max(1, len(joined)), joined)
        )
        return self.run(
            _Branch(
                branch.relations + [joined],
                delta,
                branch.lam,
                supports,
                rest,
                branch.depth,
            )
        )

    def _case_4b(
        self,
        branch: _Branch,
        weight: Fraction,
        step: ProofStep,
        witness: Witness,
    ) -> dict[frozenset, Relation]:
        if self.stats.restarts >= _MAX_RESTARTS:
            raise PandaError(f"exceeded {_MAX_RESTARTS} Case 4b restarts")
        self.stats.restarts += 1
        x, y = step.first, step.second
        # δ'' = δ + w·c_{X,Y}; composition preserves inflow, so the recorded
        # witness snapshot remains valid.
        delta2 = _apply(branch.delta, step, weight)
        ineq2 = FlowInequality(self.universe, dict(branch.lam), delta2)
        truncated_ineq, truncated_witness = truncate(ineq2, witness, y, weight)
        if truncated_ineq.lam_norm <= _ZERO:
            raise PandaError(
                "Case 4b truncation annihilated λ (contradicts Prop. 6.2)"
            )
        witness_log: list[Witness] = []
        sequence = construct_proof_sequence(
            truncated_ineq, truncated_witness, witness_log=witness_log
        )
        steps = [
            (ws.weight, self.intern_step(ws.step), snap)
            for ws, snap in zip(sequence, witness_log)
        ]
        supports = {
            pair: branch.supports[pair]
            for pair in truncated_ineq.delta
            if pair in branch.supports
        }
        missing = [p for p in truncated_ineq.delta if p not in supports]
        if missing:
            raise PandaError(f"restart lost supports for {missing}")
        return self.run(
            _Branch(
                branch.relations,
                dict(truncated_ineq.delta),
                dict(truncated_ineq.lam),
                supports,
                steps,
                branch.depth,
            )
        )


def _apply(delta: dict[Pair, Fraction], step: ProofStep, weight: Fraction) -> dict[Pair, Fraction]:
    """``δ + weight · step`` with non-negativity enforcement."""
    out = dict(delta)
    for pair, coef in step.vector().items():
        value = out.get(pair, _ZERO) + weight * coef
        if value < _ZERO:
            raise PandaError(
                f"proof step {step} drives δ{pair} negative ({value})"
            )
        if value == _ZERO:
            out.pop(pair, None)
        else:
            out[pair] = value
    return out


def panda(
    rule: DisjunctiveRule,
    database: Database,
    constraints: ConstraintSet | None = None,
    planner=None,
    plan=None,
) -> PandaResult:
    """Evaluate a disjunctive datalog rule with PANDA (Theorem 1.7).

    The bound LP is always solved exactly (a float may propose the basis,
    only the exact certificate decides), so the dual witness and the proof
    sequence built from it are exact rationals; there is no LP choice.

    Args:
        rule: the rule ``P`` to compute a model of.
        database: the input database; must guard every constraint.
        constraints: degree constraints ``DC``.  Defaults to the
            cardinalities of the body atoms' bindings
            (:func:`~repro.datalog.atoms.binding_cardinalities`).
        planner: an optional :class:`repro.planner.Planner`; when given, the
            bound LP and proof sequence come from its plan cache (shared
            across bags/images/databases) instead of being rebuilt.
        plan: an optional precomputed :class:`repro.planner.PandaPlan` for
            exactly this (rule, constraints); overrides ``planner``.

    Returns:
        A :class:`PandaResult` whose ``model`` is a valid model of ``P`` with
        every table of size at most ``2^{OBJ}``.

    Raises:
        PandaError: if the database violates a constraint, if a supplied plan
            does not match the rule, or the bound is degenerate (zero — every
            feasible polymatroid pins some target to a single tuple, a case
            the paper does not treat algorithmically).
    """
    from repro.planner.engine import build_panda_plan, constraints_fingerprint

    if constraints is None:
        constraints = binding_cardinalities(rule.body, database)
    universe = tuple(sorted(rule.variable_set))

    if plan is None:
        if planner is not None:
            plan = planner.plan_rule(universe, rule.targets, constraints)
        else:
            plan = build_panda_plan(universe, list(rule.targets), constraints)
    if plan.universe != universe or set(plan.targets) != set(rule.targets):
        raise PandaError(
            f"plan is for {plan.universe}/{sorted(map(sorted, plan.targets))}, "
            f"not this rule's {universe}/{sorted(map(sorted, rule.targets))}"
        )
    if plan.constraints_key != constraints_fingerprint(constraints):
        raise PandaError(
            "plan was built under different degree constraints than this "
            "call's; its budget and proof sequence do not apply — replan"
        )

    if plan.ineq is None:
        # Degenerate bound: every feasible polymatroid pins some target to a
        # single tuple, so Lemma 5.2's positive-optimum requirement fails.
        # The inputs are then tiny/heavily constrained; fall back to the
        # Lemma 4.1 scan model (all tables of size |P(D)| <= 1 ... the bound
        # guarantees a 1-tuple model exists but gives no proof sequence).
        model = rule.scan_model(database)
        return PandaResult(
            model=model,
            log_value=plan.log_value,
            stats=PandaStats(),
            proof_sequence_length=0,
        )
    ineq = plan.ineq

    # Resolve guards for the initial supports (degree-support invariant) —
    # the only data-dependent planning step, re-run per database.
    supports: dict[Pair, Support] = {}
    for pair, origin in plan.supports.items():
        guard = database.find_guard(origin)
        if guard is None:
            raise PandaError(f"database does not guard {origin}")
        supports[pair] = Support(origin.x, origin.y, origin.bound, guard)

    engine = _PandaEngine(universe, tuple(rule.targets), budget_log=plan.log_value)
    steps = [
        (weight, engine.intern_step(step), snap)
        for weight, step, snap in plan.steps
    ]
    base_relations = [atom.bind(database) for atom in rule.body]
    root = _Branch(
        relations=base_relations,
        delta=dict(ineq.delta),
        lam=dict(ineq.lam),
        supports=supports,
        steps=steps,
        depth=0,
    )
    produced = engine.run(root)

    tables = []
    for target in rule.targets:
        attrs = tuple(sorted(target))
        if target in produced:
            # Share the columnar storage; only the display name changes.
            tables.append(produced[target].renamed(f"T_{''.join(attrs)}"))
        else:
            tables.append(Relation(f"T_{''.join(attrs)}", attrs, ()))
    model = TargetModel(tuple(tables))
    return PandaResult(
        model=model,
        log_value=plan.log_value,
        stats=engine.stats,
        proof_sequence_length=len(plan.steps),
    )
