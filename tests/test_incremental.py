"""The incremental subsystem: signed deltas, log-structured storage, IVM.

The hard contract under test (the ISSUE-5 bit-identity gate): after every
randomized insert/delete batch, every maintained result is *bit-identical*
to a from-scratch recompute on the current data — the same canonical sorted
code rows across the generic/leapfrog/yannakakis/panda drivers, the same
exact annotations in the counting/Fraction FAQ semirings.  Non-invertible
semirings (min-plus, Boolean, max-product) must fall back to recompute and
still agree.  Plus the delta edge cases: absent deletes rejected,
insert/delete cancellation, dictionary growth mid-stream, compaction
equivalence, and the pool's per-relation digest shipping.
"""

import random
from array import array
from fractions import Fraction
from functools import reduce

import pytest

from _helpers import stable_seed

from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.exceptions import DeltaError, IncrementalError
from repro.faq.annotated import AnnotatedRelation
from repro.faq.semiring import BOOLEAN, COUNTING, FRACTION, MAX_PRODUCT, MIN_PLUS
from repro.incremental import IncrementalQueryEngine, SignedDelta, VersionedRelation
from repro.incremental.delta import advance_relation
from repro.incremental.ivm import signed_join_delta
from repro.relational import Database, Relation, generic_join, scoped_work_counter
from repro.relational.backend import have_numpy, scoped_backend
from repro.relational.columns import apply_signed_rows
from repro.relational.execution import delta_root_ranges

QUERIES = {
    "triangle": [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))],
    "four_cycle": [
        ("R1", ("A", "B")),
        ("R2", ("B", "C")),
        ("R3", ("C", "D")),
        ("R4", ("D", "A")),
    ],
    "path": [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))],
}


def make_query(name: str, boolean: bool = False) -> ConjunctiveQuery:
    atoms = tuple(Atom(rel, attrs) for rel, attrs in QUERIES[name])
    if boolean:
        return ConjunctiveQuery.boolean(atoms, name=name)
    return ConjunctiveQuery.full(atoms, name=name)


def random_rows(rng: random.Random, n: int, domain: int = 30) -> set:
    return {
        (rng.randrange(domain), rng.randrange(domain)) for _ in range(n)
    }


def make_database(query, rng, size=120, domain=30) -> Database:
    return Database(
        [
            Relation(atom.name, atom.variables, random_rows(rng, size, domain))
            for atom in query.body
        ]
    )


def oracle_rows(engine: IncrementalQueryEngine):
    """From-scratch Generic Join on the engine's current database."""
    database = engine.database()
    order = tuple(sorted(engine.query.variable_set))
    bindings = [atom.bind(database) for atom in engine.query.body]
    return generic_join(bindings, order).code_rows


def random_batch(engine, rng, name, inserts=8, deletes=5, domain=30):
    current = set(engine.relation(name).tuples)
    engine.insert(name, random_rows(rng, inserts, domain) - current)
    pool = sorted(current)
    if len(pool) >= deletes:
        engine.delete(name, rng.sample(pool, deletes))


class TestSignedDelta:
    def _relation(self, rows=((1, 2), (3, 4), (5, 6))):
        return Relation("R", ("A", "B"), rows)

    def test_delete_of_absent_row_rejected(self):
        relation = self._relation()
        with pytest.raises(DeltaError):
            SignedDelta.from_changes(relation, deletes=[(7, 8)])

    def test_delete_of_unseen_value_rejected(self):
        relation = self._relation()
        with pytest.raises(DeltaError):
            SignedDelta.from_changes(relation, deletes=[("never", "seen")])

    def test_insert_delete_cancellation_is_empty(self):
        relation = self._relation()
        delta = SignedDelta.from_changes(
            relation, inserts=[(9, 9)], deletes=[(9, 9)]
        )
        assert delta.is_empty
        assert len(delta) == 0

    def test_insert_of_present_row_is_noop(self):
        relation = self._relation()
        delta = SignedDelta.from_changes(relation, inserts=[(1, 2)])
        assert delta.is_empty

    def test_present_row_insert_delete_pair_also_cancels(self):
        """Cancellation is presence-independent: the row stays put."""
        relation = self._relation()
        delta = SignedDelta.from_changes(
            relation, inserts=[(1, 2)], deletes=[(1, 2)]
        )
        assert delta.is_empty

    def test_duplicate_requests_collapse(self):
        relation = self._relation()
        delta = SignedDelta.from_changes(
            relation, inserts=[(9, 9), (9, 9)], deletes=[(1, 2), (1, 2)]
        )
        assert len(delta) == 2
        assert sorted(delta.decoded()) == [((1, 2), -1), ((9, 9), 1)]

    def test_dictionary_growth_only_in_delta(self):
        relation = self._relation()
        delta = SignedDelta.from_changes(relation, inserts=[("new", "codes")])
        assert [s for s in delta.signs] == [1]
        updated = Relation.from_codes(
            "R",
            relation.schema,
            apply_signed_rows(relation.code_rows, delta.rows, delta.signs),
            presorted=True,
            distinct=True,
        )
        rebuilt = Relation("R2", ("A", "B"), set(relation.tuples) | {("new", "codes")})
        assert updated == rebuilt

    def test_arity_mismatch_rejected(self):
        relation = self._relation()
        with pytest.raises(DeltaError):
            SignedDelta.from_changes(relation, inserts=[(1, 2, 3)])

    def test_relabel_translates_codes(self):
        relation = self._relation()
        delta = SignedDelta.from_changes(
            relation, inserts=[(10, 20)], deletes=[(1, 2)]
        )
        relabeled = delta.relabeled(("X", "Y"))
        assert relabeled.attrs == ("X", "Y")
        assert sorted(relabeled.decoded()) == sorted(delta.decoded())


class TestApplySignedRows:
    def test_strict_merge_rejects_inconsistencies(self):
        rows = [(1,), (3,)]
        with pytest.raises(DeltaError):
            apply_signed_rows(rows, [(1,)], [1])  # insert of present
        with pytest.raises(DeltaError):
            apply_signed_rows(rows, [(2,)], [-1])  # delete of absent

    def test_merge_applies_in_order(self):
        rows = [(1,), (3,), (5,)]
        merged = apply_signed_rows(rows, [(0,), (3,), (6,)], [1, -1, 1])
        assert merged == [(0,), (1,), (5,), (6,)]


MERGE_ATTRS = ("wa", "wb", "wc")
MERGE_SHAPES = (
    "insert_only", "delete_only", "mixed", "empty_base", "before_base",
    "after_base", "one_position",
)


def merge_case(arity: int, shape: str, size: int = 300):
    """``(base rows, delta rows, signs)``: ``size`` delta rows of ``shape``."""
    rng = random.Random(stable_seed("merge", arity, shape, size))
    width = {1: 4000, 2: 60, 3: 16}[arity]
    universe = sorted(
        {tuple(rng.randrange(width) for _ in range(arity)) for _ in range(3000)}
    )
    lifted = [(row[0] + 10 * width,) + row[1:] for row in universe]
    if shape == "empty_base":
        return [], universe[:size], [1] * size
    if shape == "before_base":
        return lifted, universe[:size], [1] * size
    if shape == "after_base":
        return universe, lifted[:size], [1] * size
    if shape == "one_position":
        # Every insert lands between the same two neighbouring base rows.
        middle = len(universe) // 2
        gap = universe[middle : middle + size]
        return universe[:middle] + universe[middle + size :], gap, [1] * size
    picked = sorted(rng.sample(range(len(universe)), size))
    delta = [universe[i] for i in picked]
    if shape == "insert_only":
        signs = [1] * size
    elif shape == "delete_only":
        signs = [-1] * size
    else:
        signs = [rng.choice((1, -1)) for _ in range(size)]
    absent = {row for row, sign in zip(delta, signs) if sign > 0}
    return [row for row in universe if row not in absent], delta, signs


def advanced_orders(backend: str, arity: int, base, delta_rows, signs):
    """Advance a relation holding every full order: all orders' contents,
    the merge arm each order took, and which orders came out columns-only.

    The arm is observed at its entry, not read off the result's form (past
    the gate an order is born columns-only whichever arm later merges into
    it): the interpreted arm asks ``signed_merge_plan`` for a splice plan,
    the numpy arm keys base and delta by one two-operand ``pack_keys``.
    """
    import itertools
    from unittest import mock

    from repro.incremental import delta as delta_module
    from repro.relational import vectorized

    arms = []
    real_plan, real_pack = delta_module.signed_merge_plan, vectorized.pack_keys

    def plan_arm(*args, **kwargs):
        arms.append("plan")
        return real_plan(*args, **kwargs)

    def numpy_arm(*operands):
        if len(operands) == 2:
            arms.append("numpy")
        return real_pack(*operands)

    attrs = MERGE_ATTRS[:arity]
    with scoped_backend(backend):
        relation = Relation.from_codes("W", attrs, base, presorted=True, distinct=True)
        for order in itertools.permutations(attrs):
            relation.column_set(order).columns
        with (
            mock.patch.object(delta_module, "signed_merge_plan", plan_arm),
            mock.patch.object(vectorized, "pack_keys", numpy_arm),
        ):
            out = advance_relation(relation, SignedDelta(attrs, delta_rows, signs))
        lazy = [out.column_set(attrs)._rows is None]
        lazy += [column_set._rows is None for _, column_set in out.cached_full_orders()]
        assert len(lazy) == len(arms) == len(list(itertools.permutations(attrs)))
        contents = {
            order: (
                list(out.column_set(order).rows),
                [bytes(column) for column in out.column_set(order).columns],
                out.column_set(order).content_digest(),
            )
            for order in itertools.permutations(attrs)
        }
    return contents, arms, lazy


@pytest.mark.skipif(not have_numpy(), reason="the numpy arm needs numpy")
class TestSignedMergeArms:
    """The numpy arm of the signed merge ≡ the interpreted arm, bit for bit."""

    @pytest.mark.parametrize("shape", MERGE_SHAPES)
    @pytest.mark.parametrize("arity", (1, 2, 3))
    def test_arms_agree_on_every_cached_order(self, arity, shape):
        base, delta, signs = merge_case(arity, shape)
        interpreted, arms, lazy = advanced_orders(
            "interpreted", arity, base, delta, signs
        )
        assert set(arms) == {"plan"} and not any(lazy)  # rows and columns spliced
        vectorized, arms, lazy = advanced_orders("vectorized", arity, base, delta, signs)
        assert set(arms) == {"numpy"} and all(lazy)  # columns only
        assert vectorized == interpreted
        expected = sorted(
            (set(base) | {r for r, s in zip(delta, signs) if s > 0})
            - {r for r, s in zip(delta, signs) if s < 0}
        )
        assert interpreted[MERGE_ATTRS[:arity]][0] == expected

    @pytest.mark.parametrize("size", (255, 256, 257))
    def test_gate_straddle(self, size):
        base, delta, signs = merge_case(2, "mixed", size)
        interpreted, _, _ = advanced_orders("interpreted", 2, base, delta, signs)
        vectorized, arms, _ = advanced_orders("vectorized", 2, base, delta, signs)
        assert vectorized == interpreted
        assert arms == ["numpy" if size >= 256 else "plan"] * 2

    def test_sparse_codes_take_the_rerank_path(self):
        """Codes ~2^40 apart at arity 3 overflow the mixed-radix key."""
        base, delta, signs = merge_case(3, "mixed")
        spread = lambda rows: [tuple(code << 40 for code in row) for row in rows]
        interpreted, _, _ = advanced_orders(
            "interpreted", 3, spread(base), spread(delta), signs
        )
        vectorized, arms, lazy = advanced_orders(
            "vectorized", 3, spread(base), spread(delta), signs
        )
        assert set(arms) == {"numpy"} and all(lazy) and vectorized == interpreted

    @pytest.mark.parametrize("arity", (1, 2, 3))
    @pytest.mark.parametrize("flip", ("insert_present", "delete_absent"))
    def test_strict_violation_is_the_same_error(self, arity, flip):
        base, delta, signs = merge_case(arity, "mixed")
        wanted = -1 if flip == "insert_present" else 1
        hits = [i for i, sign in enumerate(signs) if sign == wanted]
        for i in (hits[len(hits) // 2], hits[-1]):  # the first one is named
            signs[i] = -wanted
        messages = []
        for backend in ("interpreted", "vectorized"):
            with pytest.raises(DeltaError) as caught:
                advanced_orders(backend, arity, base, delta, signs)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert str(delta[hits[len(hits) // 2]]) in messages[0]
        assert flip.replace("_", " of ")[:9] in messages[0]

    @pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
    def test_versioned_log_replays_through_either_arm(self, backend):
        base, delta, signs = merge_case(2, "mixed")
        with scoped_backend(backend):
            relation = Relation.from_codes("W", MERGE_ATTRS[:2], base)
            log = VersionedRelation(relation, compact_min=10**9)
            log.apply(SignedDelta(MERGE_ATTRS[:2], delta, signs))
            small = [row for row in log.current.code_rows[:5]]
            log.apply(SignedDelta(MERGE_ATTRS[:2], small, [-1] * 5))
            assert log.snapshot(1).code_rows == advance_relation(
                relation, log.runs[0]
            ).code_rows
            assert log.current.code_rows == sorted(
                set(log.snapshot(1).code_rows) - set(small)
            )

    @pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
    def test_relabeled_delta_and_relation_agree_across_arms(self, backend):
        rng = random.Random(stable_seed("relabel-arms"))
        rows = sorted({(rng.randrange(900), rng.randrange(900)) for _ in range(700)})
        relation = Relation("RL", ("rl_a", "rl_b"), rows)
        delta = SignedDelta.from_changes(
            relation, inserts=[(v + 1000, v) for v in range(300)],
            deletes=rows[:100],
        )
        with scoped_backend(backend):
            relabeled = delta.relabeled(("rl_x", "rl_y"))
            bound = relation.relabeled("RL2", ("rl_x", "rl_y"))
        assert relabeled.attrs == ("rl_x", "rl_y")
        assert relabeled.rows == sorted(relabeled.rows)
        assert sorted(relabeled.decoded()) == sorted(delta.decoded())
        assert all(type(code) is int for row in relabeled.rows[:3] for code in row)
        assert bound.tuples == relation.tuples
        assert bound.code_rows == sorted(bound.code_rows)
        reordered = delta.reordered(("rl_b", "rl_a"))
        assert reordered.rows == sorted(reordered.rows)
        assert sorted(
            ((b, a), sign) for (a, b), sign in zip(delta.rows, delta.signs)
        ) == list(zip(reordered.rows, reordered.signs))

    @pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
    @pytest.mark.parametrize("size", (255, 256, 700))
    def test_column_built_delta_equals_row_built(self, size, backend):
        """A delta adopted as ``array('q')`` columns — off the pool wire, out
        of the fixpoint — derives its rows lazily and is the row-built delta
        in every view, down to the ``DeltaError`` text."""
        from array import array

        a, b, x, y = (f"cb{size}_{backend}_{v}" for v in "abxy")
        rng = random.Random(stable_seed("column-built", size))
        data = set()
        while len(data) < size + 200:
            data.add((rng.randrange(4000), rng.randrange(4000)))
        with scoped_backend(backend):
            relation = Relation("CB", (a, b), sorted(data))
            rows = relation.code_rows[100 : 100 + size]
            signs = [rng.choice((1, -1)) for _ in rows]

            def column_built():
                delta = SignedDelta(
                    (a, b), None, signs,
                    columns=[array("q", column) for column in zip(*rows)],
                )
                assert delta.column_set.materialized_rows is None
                assert len(delta) == size and not delta.is_empty
                return delta

            def views(make):
                reordered, relabeled = make().reordered((b, a)), make().relabeled((x, y))
                for delta in (make(), reordered, relabeled):
                    assert all(type(code) is int for code in delta.rows[0])
                return (
                    make().rows, list(make().signs),
                    reordered.attrs, reordered.rows, list(reordered.signs),
                    relabeled.attrs, relabeled.rows, list(relabeled.signs),
                    make().relation(1, "d").code_rows,
                    make().relation(-1, "d").code_rows,
                )

            expected = views(lambda: SignedDelta((a, b), list(rows), signs))
            with pytest.raises(DeltaError) as row_built:
                advance_relation(relation, SignedDelta((a, b), list(rows), signs))
            assert f"insert of already-present row {rows[signs.index(1)]}" == str(
                row_built.value
            )
            assert views(column_built) == expected
            with pytest.raises(DeltaError) as lazy:
                advance_relation(relation, column_built())
            assert str(lazy.value) == str(row_built.value)

    @pytest.mark.parametrize("rows", (255, 256, 700))
    def test_partial_rename_keeps_one_dictionary(self, rows):
        """(a, b) -> (a, c): column 0 keeps its dictionary (the identity
        translation), column 1 does not — on both sides of the gate."""
        from repro.relational.columns import Dictionary

        rng = random.Random(stable_seed("partial-rename", rows))
        data = set()
        while len(data) < rows:
            data.add((rng.randrange(5000), rng.randrange(5000)))
        seen = {}
        for backend in ("interpreted", "vectorized"):
            a, b, c = (f"pr{rows}_{backend}_{x}" for x in "abc")
            with scoped_backend(backend):
                relation = Relation("PR", (a, b), sorted(data))
                delta = SignedDelta((a, b), list(relation.code_rows), [1] * rows)
                bound = relation.relabeled("PR2", (a, c))
                moved = delta.relabeled((a, c))
            assert bound.schema == (a, c) and bound.tuples == relation.tuples
            assert bound.code_rows == sorted(bound.code_rows)
            assert all(type(code) is int for code in bound.code_rows[0])
            assert moved.rows == bound.code_rows
            seen[backend] = (
                bound.code_rows,
                [bytes(col) for col in bound.column_set((a, c)).columns],
                Dictionary.of(c).values,
            )
        assert seen["interpreted"] == seen["vectorized"]

    @pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
    def test_triangle_self_join_binds_past_the_gate(self, backend):
        """E(A,B),E(B,C),E(A,C) over one stored E(A,B): every non-identity
        binding keeps one column's dictionary and re-codes the other."""
        rng = random.Random(stable_seed("triangle-self-join"))
        edges = {(rng.randrange(40), rng.randrange(40)) for _ in range(700)}
        attrs = tuple(f"tsj_{backend}_{x}" for x in "ABC")
        a, b, c = attrs
        database = Database([Relation("E", (a, b), edges)])
        atoms = [Atom("E", (a, b)), Atom("E", (b, c)), Atom("E", (a, c))]
        with scoped_backend(backend):
            assert len(database["E"]) >= 256
            bound = [atom.bind(database) for atom in atoms]
            joined = generic_join(bound, attrs)
        assert [r.schema for r in bound] == [(a, b), (b, c), (a, c)]
        assert all(r.tuples == database["E"].tuples for r in bound)
        assert set(joined.tuples) == {
            (x, y, z) for x, y in edges for y2, z in edges
            if y2 == y and (x, z) in edges
        }


class TestVersionedRelation:
    def test_compaction_equivalence(self):
        """Merged base ≡ a relation rebuilt from scratch at that version."""
        rng = random.Random(stable_seed("compaction"))
        relation = Relation("R", ("A", "B"), random_rows(rng, 100))
        versioned = VersionedRelation(relation, compact_min=10**9)
        contents = set(relation.tuples)
        for _ in range(6):
            inserts = random_rows(rng, 10) - contents
            deletes = set(rng.sample(sorted(contents), 6))
            delta = SignedDelta.from_changes(
                versioned.current, inserts, deletes
            )
            versioned.apply(delta, compact=False)
            contents = (contents | inserts) - deletes
        assert versioned.pending_rows > 0
        before = versioned.current.code_rows
        versioned.compact()
        assert versioned.runs == []
        assert versioned.base_version == versioned.version
        scratch = Relation("R_scratch", ("A", "B"), contents)
        assert versioned.base.code_rows == list(before)
        assert versioned.base == scratch
        assert versioned.base.code_rows == scratch.code_rows

    def test_auto_compaction_threshold(self):
        # Threshold = max(compact_min, base * ratio) = max(4, 3) = 4 here.
        relation = Relation("R", ("A", "B"), [(i, i) for i in range(12)])
        versioned = VersionedRelation(relation, compact_min=4)
        delta = SignedDelta.from_changes(
            versioned.current, inserts=[(100, 1), (101, 1)]
        )
        versioned.apply(delta)
        assert versioned.pending_rows == 2  # below threshold, log kept
        delta = SignedDelta.from_changes(
            versioned.current, inserts=[(102, 1), (103, 1)]
        )
        versioned.apply(delta)
        assert versioned.pending_rows == 0  # compacted
        assert len(versioned.base) == 16

    def test_runs_since_window(self):
        relation = Relation("R", ("A",), [(i,) for i in range(5)])
        versioned = VersionedRelation(relation, compact_min=10**9)
        for value in (10, 11, 12):
            versioned.apply(
                SignedDelta.from_changes(versioned.current, [(value,)]),
                compact=False,
            )
        assert len(versioned.runs_since(0)) == 3
        assert len(versioned.runs_since(2)) == 1
        with pytest.raises(IncrementalError):
            versioned.runs_since(5)


class TestDeltaRootRanges:
    # Fresh attribute names: the per-attribute dictionaries are shared
    # process-wide, and these tests reason about concrete code values
    # (value i interned i-th, so code == value).

    def test_ranges_bound_anchored_relations(self):
        base = Relation("R", ("IVA", "IVB"), [(i, 0) for i in range(50)])
        other = Relation("S", ("IVB", "IVC"), [(0, i) for i in range(10)])
        delta = Relation("dR", ("IVA", "IVB"), [(20, 0), (22, 0)])
        order = ("IVA", "IVB", "IVC")
        ranges = delta_root_ranges([base, delta, other], order, 1)
        lo, hi = ranges[0]
        assert (lo, hi) == (20, 23)  # rows with the IVA code in [20, 23)
        assert ranges[1] is None  # the delta itself is unrestricted
        assert ranges[2] is None  # S does not contain IVA

    def test_no_restriction_without_first_variable(self):
        base = Relation("R", ("IVA", "IVB"), [(i, 0) for i in range(10)])
        delta = Relation("dS", ("IVB", "IVC"), [(0, 1)])
        ranges = delta_root_ranges([base, delta], ("IVA", "IVB", "IVC"), 1)
        assert ranges is None

    def test_restriction_narrows_the_walked_trie(self):
        """Root bounds confine the base's trie walk to the delta's key span.

        The per-node charging already bills the smallest candidate set, so
        the win shows up in *materialization*: without bounds the base's
        root node interns every distinct first-attribute key; with bounds
        only the delta-spanned slice is ever touched.
        """
        rows = [(i, i % 7) for i in range(4000)]
        base = Relation("R", ("IVD", "IVE"), rows)
        delta = Relation("dR", ("IVD", "IVE"), [(17, 3)])
        order = ("IVD", "IVE")
        ranges = delta_root_ranges([base, delta], order, 1)
        lo, hi = ranges[0]
        assert hi - lo == 1  # one matching base row
        # The assertions below inspect the *interpreted* trie walk's key
        # cache; the vectorized backend keeps its own numpy node cache and
        # never touches this one, so pin the backend under test.
        with scoped_backend("interpreted"):
            with scoped_work_counter():
                restricted = generic_join(
                    [base, delta], order, root_ranges=ranges
                )
            assert len(restricted) == 1
            keys_cache, _ = base.column_set(order).trie_caches()
            assert keys_cache  # the bounded walk materialized some nodes...
            assert all(len(keys) <= hi - lo for keys in keys_cache.values())
            # ...whereas an unbounded walk pays the full 4000-key root node.
            with scoped_work_counter():
                generic_join([base, delta], order)
            assert any(len(keys) == 4000 for keys in keys_cache.values())


class TestJoinMaintenance:
    @pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
    @pytest.mark.parametrize("nrows", (3, 300))
    def test_net_multiplicities_validated(self, backend, nrows):
        """Two terms both inserting one row is a net of +2: an IVM bug."""
        column = array("q", range(nrows)) + array("q", [1])
        with scoped_backend(backend), pytest.raises(IncrementalError, match="net multiplicity 2 "):
            SignedDelta.sorted_from(("nm_a",), [column], array("q", [1]) * (nrows + 1))

    @pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
    @pytest.mark.parametrize("nrows", (3, 300))
    def test_opposite_terms_cancel(self, backend, nrows):
        """Equal rows sum their signs; a row at net 0 leaves the batch."""
        column = array("q", reversed(range(nrows))) + array("q", [0, nrows])
        signs = array("q", [1]) * nrows + array("q", [-1, -1])
        with scoped_backend(backend):
            net = SignedDelta.sorted_from(("nc_a",), [column], signs)
        assert net.rows == [(i,) for i in range(1, nrows + 1)]
        assert list(net.signs) == [1] * (nrows - 1) + [-1]

    def test_cross_term_cancellation_leaves_the_view(self):
        """Inserting R(a, b) while deleting S(b, c) with T(a, c) present: the
        R term adds (a, b, c) and the S term removes it, so the view, whose
        rows never held it, stays put."""
        query = make_query("triangle")
        database = Database(
            [
                Relation("R", ("A", "B"), [(1, 1)]),
                Relation("S", ("B", "C"), [(2, 3), (1, 1)]),
                Relation("T", ("A", "C"), [(1, 3), (1, 1)]),
            ]
        )
        engine = IncrementalQueryEngine(query)
        before = engine.execute(database).relation.code_rows
        engine.insert("R", [(1, 2)])
        engine.delete("S", [(2, 3)])
        after = engine.refresh()
        assert engine.stats.join_terms == 2
        assert engine.stats.view_rows_changed == 0
        assert after.relation.code_rows == before == oracle_rows(engine)
        engine.close()

    @staticmethod
    def _past_the_gate(backend):
        """A path view of 600 rows, then one commit that deletes 300 of them
        and inserts 400; returns the maintained view and the stats."""
        query = make_query("path")
        with scoped_backend(backend), IncrementalQueryEngine(query) as engine:
            engine.execute(
                Database(
                    [
                        Relation("R", ("A", "B"), [(i, i) for i in range(600)]),
                        Relation("S", ("B", "C"), [(i, i) for i in range(1000)]),
                        Relation("T", ("C", "D"), [(i, 0) for i in range(1000)]),
                    ]
                )
            )
            engine.delete("R", [(i, i) for i in range(300)])
            engine.insert("R", [(i, i) for i in range(600, 1000)])
            view = engine.refresh().relation
            stats = engine.stats
        return view, (stats.join_terms, stats.delta_rows, stats.view_rows_changed)

    @pytest.mark.skipif(not have_numpy(), reason="the numpy arm needs numpy")
    def test_commit_past_the_gate_stays_on_columns(
        self, monkeypatch, no_large_row_transpose
    ):
        view, stats = self._past_the_gate("vectorized")
        assert view.column_set(view.schema).materialized_rows is None
        assert stats == (2, 700, 700)
        expected, expected_stats = self._past_the_gate("interpreted")
        assert stats == expected_stats
        assert view.column_set(view.schema).columns == (
            expected.column_set(expected.schema).columns
        )
        monkeypatch.undo()  # lifts the transpose guard
        assert view.code_rows == expected.code_rows
        assert view.tuples == expected.tuples == {(i, i, i, 0) for i in range(300, 1000)}

    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    def test_signed_join_delta_matches_recompute(self, query_name):
        rng = random.Random(stable_seed("net", query_name))
        query = make_query(query_name)
        order = tuple(sorted(query.variable_set))
        database = make_database(query, rng)
        engine = IncrementalQueryEngine(query)
        engine.execute(database)
        for _ in range(4):
            for atom in query.body:
                random_batch(engine, rng, atom.name)
            maintained = engine.refresh()
            assert maintained.relation.code_rows == oracle_rows(engine)
        engine.close()


DRIVERS = ("generic", "leapfrog", "yannakakis", "panda")


class TestBitIdentityGate:
    """ISSUE-5 acceptance: maintained ≡ recomputed, across drivers/semirings."""

    @pytest.mark.parametrize("query_name", ("triangle", "four_cycle"))
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_randomized_batches_all_drivers(self, query_name, driver):
        rng = random.Random(stable_seed("gate", query_name, driver))
        query = make_query(query_name)
        database = make_database(query, rng, size=80, domain=20)
        engine = IncrementalQueryEngine(query, compact_min=48)
        first = engine.execute(database, driver=driver)
        assert first.relation.code_rows == oracle_rows(engine)
        for _ in range(3):
            for atom in query.body:
                random_batch(engine, rng, atom.name, inserts=10, deletes=6,
                             domain=20)
            maintained = engine.refresh(driver=driver)
            # Maintained rows == this driver's own from-scratch run.
            scratch = engine.recompute(driver=driver)
            assert maintained.relation.code_rows == scratch.relation.code_rows
            assert maintained.relation.code_rows == oracle_rows(engine)
            assert maintained.boolean == scratch.boolean
        engine.close()

    def test_boolean_query_maintained(self):
        rng = random.Random(stable_seed("boolean"))
        query = make_query("triangle", boolean=True)
        database = make_database(query, rng, size=60, domain=15)
        engine = IncrementalQueryEngine(query)
        result = engine.execute(database)
        assert result.relation.schema == ()
        for _ in range(3):
            for atom in query.body:
                random_batch(engine, rng, atom.name, domain=15)
            maintained = engine.refresh()
            assert maintained.boolean is bool(oracle_rows(engine))
        engine.close()

    @pytest.mark.parametrize("workers", (2, 4))
    def test_pooled_delta_terms_bit_identical(self, workers):
        rng = random.Random(stable_seed("pooled", workers))
        query = make_query("triangle")
        database = make_database(query, rng, size=150, domain=25)
        engine = IncrementalQueryEngine(
            query, workers=workers, compact_min=60
        )
        engine.execute(database)
        for _ in range(4):
            for atom in query.body:
                random_batch(engine, rng, atom.name, inserts=12, deletes=8,
                             domain=25)
            maintained = engine.refresh()
            assert maintained.relation.code_rows == oracle_rows(engine)
        assert engine.stats.pooled_batches > 0
        assert engine.stats.compactions > 0  # pool baseline recycled too
        # One relation's log overflows on its own, so a lone compaction
        # sits between two pooled batches: the second finds one moved base
        # among resident ones (the pool's reship path, not a full recycle).
        pooled = engine.stats.pooled_batches
        first, second = (atom.name for atom in query.body[:2])
        for grow in (150, 5):
            compacted = engine.relation_log(first).base_version
            random_batch(engine, rng, first, inserts=grow, deletes=0, domain=25)
            random_batch(engine, rng, second, inserts=3, deletes=2, domain=25)
            maintained = engine.refresh()
            assert maintained.relation.code_rows == oracle_rows(engine)
            moved = engine.relation_log(first).base_version > compacted
            assert moved == (grow == 150)
            assert engine.relation_log(second).runs  # still on its old base
        assert engine.stats.pooled_batches == pooled + 2
        engine.close()


class TestLargeBatches:
    """Batches past the ``vectorize`` gate: the merges run as array merges
    (in the parent and, replayed from shipped runs, in the pool workers) and
    everything stays bit-identical to the serial interpreted engine."""

    def _run(self, workers: int, backend: str):
        rng = random.Random(stable_seed("large-batches"))
        query = make_query("triangle")
        database = make_database(query, rng, size=1500, domain=60)
        results = []
        # One scope covers the parent's joins and log merges and ships to
        # the pool workers.
        with scoped_backend(backend), IncrementalQueryEngine(
            query, workers=workers, compact_min=10**9
        ) as engine:
            engine.execute(database)
            engine.faq(COUNTING, free=("A",))
            for _ in range(3):
                for atom in query.body:
                    random_batch(
                        engine, rng, atom.name, inserts=420, deletes=300, domain=60
                    )
                maintained = engine.refresh()
                assert maintained.relation.code_rows == oracle_rows(engine)
                counted = engine.faq(COUNTING, free=("A",))
                results.append(
                    (
                        list(maintained.relation.code_rows),
                        counted.code_items(),
                        [
                            engine.relation_log(atom.name).current.column_set(
                                atom.variables
                            ).content_digest()
                            for atom in query.body
                        ],
                    )
                )
            stats = engine.stats
            assert stats.delta_rows >= 3 * 3 * 256  # every batch is past the gate
            counts = (stats.join_terms, stats.delta_rows, stats.compactions)
            assert (stats.pooled_batches > 0) == (workers > 1)
        return results, counts

    @pytest.mark.skipif(not have_numpy(), reason="the numpy arm needs numpy")
    def test_columns_only_versions_validate_and_merge_untransposed(
        self, no_row_transpose
    ):
        rows = {(i, (7 * i) % 1000) for i in range(2000)}
        relation = Relation("CV", ("cv_a", "cv_b"), sorted(rows))
        with scoped_backend("vectorized"):
            relation.column_set(relation.schema).columns
            log = VersionedRelation(relation, compact_min=10**9)
            for step in range(3):
                inserts = {(5000 + 400 * step + i, i) for i in range(400)}
                deletes = set(sorted(rows)[: 300])
                delta = SignedDelta.from_changes(log.current, inserts, deletes)
                assert len(delta) == 700
                log.apply(delta)
                rows = (rows | inserts) - deletes
                assert log.current.column_set(relation.schema)._rows is None
            with pytest.raises(DeltaError):
                SignedDelta.from_changes(log.current, deletes=[(0, 0)])
            columns = log.current.column_set(relation.schema).columns
        decode = relation.decode_row
        assert {decode(row) for row in zip(*columns)} == rows

    def test_pooled_and_vectorized_match_serial_interpreted(self):
        expected = self._run(1, "interpreted")
        assert self._run(1, "vectorized") == expected
        assert self._run(2, "vectorized") == expected
        assert self._run(2, "interpreted") == expected


class TestFaqMaintenance:
    def _oracle(self, engine, semiring, free, weights):
        database = engine.database()
        bindings = [atom.bind(database) for atom in engine.query.body]
        factors = [
            AnnotatedRelation.from_relation(
                relation, semiring, weights[i] if weights else None
            )
            for i, relation in enumerate(bindings)
        ]
        product = reduce(lambda a, b: a.multiply(b), factors)
        return product.marginalize(free)

    @pytest.mark.parametrize("semiring", (COUNTING, FRACTION),
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("free", ((), ("A",)), ids=("scalar", "group-A"))
    def test_invertible_semirings_maintained_exactly(self, semiring, free):
        rng = random.Random(stable_seed("faq", semiring.name, free))
        query = make_query("triangle")
        database = make_database(query, rng, size=90, domain=20)
        engine = IncrementalQueryEngine(query, compact_min=48)
        engine.execute(database)
        weight = (
            (lambda row: Fraction(1, 1 + (row[0] % 7)))
            if semiring is FRACTION
            else (lambda row: 1 + ((row[0] + row[1]) % 5))
        )
        weights = [weight, None, weight]
        maintained = engine.faq(semiring, free=free, weights=weights)
        assert maintained == self._oracle(engine, semiring, free, weights)
        for batch in range(4):
            for atom in query.body:
                random_batch(engine, rng, atom.name, domain=20)
            engine.refresh()
            maintained = engine.faq(semiring, free=free)
            oracle = self._oracle(engine, semiring, free, weights)
            assert maintained == oracle, batch
            # Exactness down to the representation, not just ==.
            assert maintained.code_items() == oracle.code_items()
        assert engine.stats.faq_recomputes == 0
        engine.close()

    def test_conflicting_weights_for_registered_view_rejected(self):
        from repro.exceptions import QueryError

        rng = random.Random(stable_seed("faq-weights"))
        query = make_query("triangle")
        engine = IncrementalQueryEngine(query)
        engine.execute(make_database(query, rng, size=20))
        first_weights = [lambda row: 2, None, None]
        engine.faq(COUNTING, weights=first_weights)
        engine.faq(COUNTING)  # weights omitted: serves the registered view
        engine.faq(COUNTING, weights=first_weights)  # identical: fine
        with pytest.raises(QueryError):
            engine.faq(COUNTING, weights=[lambda row: 3, None, None])
        engine.close()

    @pytest.mark.parametrize("semiring", (BOOLEAN, MIN_PLUS, MAX_PRODUCT),
                             ids=lambda s: s.name)
    def test_non_invertible_semirings_fall_back_to_recompute(self, semiring):
        rng = random.Random(stable_seed("faq-fallback", semiring.name))
        query = make_query("triangle")
        database = make_database(query, rng, size=60, domain=15)
        engine = IncrementalQueryEngine(query)
        engine.execute(database)
        assert not semiring.invertible
        engine.faq(semiring)
        batches = 3
        for _ in range(batches):
            for atom in query.body:
                random_batch(engine, rng, atom.name, domain=15)
            engine.refresh()
            maintained = engine.faq(semiring)
            assert maintained.scalar() == self._oracle(
                engine, semiring, (), None
            ).scalar()
        assert engine.stats.faq_recomputes == batches
        engine.close()

    def test_subtract_axioms(self):
        for semiring in (COUNTING, FRACTION):
            assert semiring.invertible
            samples = (
                [0, 1, 2, 5] if semiring is COUNTING
                else [Fraction(0), Fraction(1), Fraction(2, 3)]
            )
            semiring.check_axioms(samples)
            for a in samples:
                for b in samples:
                    assert semiring.subtract(semiring.add(a, b), b) == a
            assert semiring.negate(samples[1]) == semiring.subtract(
                semiring.zero, samples[1]
            )


class TestEngineBehavior:
    def test_unbound_refresh_raises(self):
        engine = IncrementalQueryEngine(make_query("triangle"))
        with pytest.raises(IncrementalError):
            engine.refresh()
        with pytest.raises(IncrementalError):
            engine.insert("R", [(1, 2)])

    def test_unknown_relation_rejected(self):
        rng = random.Random(stable_seed("unknown"))
        query = make_query("triangle")
        engine = IncrementalQueryEngine(query)
        engine.execute(make_database(query, rng, size=10))
        with pytest.raises(IncrementalError):
            engine.insert("NOPE", [(1, 2)])
        engine.close()

    def test_cancelling_batch_is_a_noop(self):
        rng = random.Random(stable_seed("cancel"))
        query = make_query("triangle")
        engine = IncrementalQueryEngine(query)
        first = engine.execute(make_database(query, rng, size=40))
        engine.insert("R", [(777, 888)])
        engine.delete("R", [(777, 888)])
        second = engine.refresh()
        assert engine.version == 0  # the empty batch did not commit
        assert second.relation.code_rows == first.relation.code_rows
        engine.close()

    def test_projected_query_rejected(self):
        atoms = (Atom("R", ("A", "B")), Atom("S", ("B", "C")))
        query = ConjunctiveQuery(head=("A",), body=atoms, name="proj")
        from repro.exceptions import QueryError

        with pytest.raises(QueryError):
            IncrementalQueryEngine(query)

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize(
        "name, bindings",
        [
            ("path2", (("A", "B"), ("B", "C"))),
            ("triangle", (("A", "B"), ("B", "C"), ("A", "C"))),
        ],
    )
    def test_self_join_maintains_each_binding(self, name, bindings, workers):
        """Every binding of one relation keeps its own log — and, pooled,
        its own resident token — through batches and compactions."""

        def run(workers):
            rng = random.Random(stable_seed("selfjoin", name))
            query = ConjunctiveQuery.full(
                tuple(Atom("E", variables) for variables in bindings), name=name
            )
            database = Database(
                [Relation("E", ("X", "Y"), random_rows(rng, 80, 20))]
            )
            views = []
            with IncrementalQueryEngine(
                query, workers=workers, compact_min=24
            ) as engine:
                engine.execute(database)
                for _ in range(4):
                    random_batch(engine, rng, "E", domain=20)
                    maintained = engine.refresh()
                    assert maintained.relation.code_rows == oracle_rows(engine)
                    views.append(maintained.relation.code_rows)
            return views, engine.stats

        views, stats = run(workers)
        assert stats.compactions > 0
        assert (stats.pooled_batches > 0) == (workers > 1)
        if workers > 1:
            serial_views, serial_stats = run(1)
            assert views == serial_views
            assert stats.compactions == serial_stats.compactions

    def test_plan_reuse_across_versions(self):
        """Version bumps keep hitting the same cached PANDA plans."""
        rng = random.Random(stable_seed("planreuse"))
        query = make_query("triangle")
        engine = IncrementalQueryEngine(query)
        engine.execute(make_database(query, rng, size=64), driver="panda")
        for _ in range(3):
            # Churn without net growth: delete as many as inserted.
            for atom in query.body:
                current = sorted(engine.relation(atom.name).tuples)
                fresh = random_rows(rng, 6) - set(current)
                engine.insert(atom.name, fresh)
                engine.delete(atom.name, rng.sample(current, len(fresh)))
            engine.refresh(driver="panda")
            engine.recompute(driver="panda")
        assert engine.stats.replans == 0
        engine.close()

    def test_failed_batch_stays_buffered_until_discarded(self):
        rng = random.Random(stable_seed("discard"))
        query = make_query("triangle")
        engine = IncrementalQueryEngine(query)
        first = engine.execute(make_database(query, rng, size=30))
        engine.delete("R", [(12345, 67890)])  # absent: will be rejected
        with pytest.raises(DeltaError):
            engine.refresh()
        assert engine.version == 0  # nothing applied
        with pytest.raises(DeltaError):
            engine.refresh()  # still buffered
        engine.discard_pending()
        after = engine.refresh()
        assert after.relation.code_rows == first.relation.code_rows
        engine.close()

    def test_rebind_resets_state(self):
        rng = random.Random(stable_seed("rebind"))
        query = make_query("triangle")
        engine = IncrementalQueryEngine(query)
        engine.execute(make_database(query, rng, size=30))
        engine.insert("R", [(999, 999)])
        other = make_database(query, rng, size=30)
        result = engine.execute(other)
        assert engine.version == 0
        assert not engine.has_pending_changes
        assert result.relation.code_rows == oracle_rows(engine)
        engine.close()


class TestPerRelationDigests:
    def test_unchanged_relations_not_repacked_on_rebind(self):
        """Rebinding with one changed relation reships only that relation."""
        from repro.parallel import pool as pool_module
        from repro.planner import QueryEngine

        rng = random.Random(stable_seed("digests"))
        query = make_query("triangle")
        database = make_database(query, rng, size=60, domain=15)

        packed_keys = []
        original = pool_module._pack_entry

        def spying_pack(attrs, relation):
            packed_keys.append(relation.name)
            return original(attrs, relation)

        pool_module._pack_entry = spying_pack
        try:
            with QueryEngine(query, workers=2) as engine:
                first = engine.execute(database, driver="generic")
                baseline_packs = list(packed_keys)
                assert len(baseline_packs) == 3  # full payload once
                packed_keys.clear()
                engine.execute(database, driver="generic")
                assert packed_keys == []  # warm: nothing reships
                # Change one relation only.
                changed = database.updated(
                    [
                        Relation(
                            "R", ("A", "B"),
                            set(database["R"].tuples) | {(998, 999)},
                        )
                    ]
                )
                second = engine.execute(changed, driver="generic")
                assert packed_keys.count("S") == 0
                assert packed_keys.count("T") == 0
                assert packed_keys.count("R") >= 1
                oracle = generic_join(
                    [atom.bind(changed) for atom in query.body],
                    tuple(sorted(query.variable_set)),
                )
                assert second.relation.code_rows == oracle.code_rows
                assert first.boolean and second.boolean
        finally:
            pool_module._pack_entry = original

    def test_content_digest_tracks_rows(self):
        left = Relation("R", ("A", "B"), [(1, 2), (3, 4)])
        right = Relation("S", ("A", "B"), [(1, 2), (3, 4)])
        assert (
            left.column_set(("A", "B")).content_digest()
            == right.column_set(("A", "B")).content_digest()
        )
        bigger = Relation("R", ("A", "B"), [(1, 2), (3, 4), (5, 6)])
        assert (
            bigger.column_set(("A", "B")).content_digest()
            != left.column_set(("A", "B")).content_digest()
        )
