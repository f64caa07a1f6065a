"""Both arms of every relational operator, side by side.

The contract under test (ROADMAP Architecture layers 5 and 9): each operator
of :mod:`repro.relational.operators` has one interpreted and one column
(numpy) path, and the two agree bit for bit — same schema order, same
canonical code rows, same ``tuples_scanned`` / ``tuples_emitted`` / ``joins``
/ ``partitions``.  Operands are rebuilt per arm (relations cache sort orders
and key sets on first use), over the axes the column path branches on: the
number of shared attributes, permuted schemas, empty operands, sizes on both
sides of the row gate, hub skew, and code ranges too wide for a mixed-radix
key.
"""

import random

import pytest

from _helpers import stable_seed

from repro.relational import (
    Relation,
    difference,
    heavy_light_partition,
    natural_join,
    project,
    scoped_work_counter,
    semijoin,
    union,
)
from repro.relational.backend import _VEC_MIN_ROWS as GATE
from repro.relational.backend import scoped_backend

np = pytest.importorskip("numpy", reason="the column path needs numpy")

from repro.relational.vectorized import pack_keys  # noqa: E402

#: (left schema, right schema) by number of shared attributes; the right
#: side lists its shared attributes in a different order than the left.
SCHEMAS = {
    0: (("A", "B"), ("C", "D")),
    1: (("A", "B"), ("B", "C")),
    2: (("A", "B", "C"), ("C", "B", "D")),
    3: (("A", "B", "C", "D"), ("D", "E", "B", "A")),
}

#: (left rows, right rows): empty sides, totals on both sides of the gate,
#: one side far larger than the other, and both well above it.
SIZES = [
    (0, 2 * GATE),
    (2 * GATE, 0),
    (GATE // 2 - 1, GATE // 2),
    (GATE // 2, GATE // 2),
    (GATE - 1, 2 * GATE),
    (GATE, 9),
    (3 * GATE, 2 * GATE),
]


#: Value domain by arity: room for the largest operand, small enough that
#: operands overlap and join.
DOMAIN = {1: 900, 2: 40, 3: 12, 4: 7}


def random_rows(rng, arity, count, domain=None):
    domain = domain or DOMAIN[arity]
    assert count <= domain**arity
    rows = set()
    while len(rows) < count:
        rows.add(tuple(rng.randrange(domain) for _ in range(arity)))
    return sorted(rows)


def on_both_arms(call, *operands):
    """``call`` on fresh copies of ``(name, schema, rows)`` operands under
    each backend: ``[(result, counters), (result, counters)]``."""
    outcomes = []
    for backend in ("interpreted", "vectorized"):
        relations = [Relation(*operand) for operand in operands]
        with scoped_backend(backend), scoped_work_counter() as counter:
            result = call(*relations)
        outcomes.append((result, counter.as_dict()))
    return outcomes


def assert_same_relation(outcomes):
    (slow, slow_counts), (fast, fast_counts) = outcomes
    assert fast.schema == slow.schema
    assert fast.name == slow.name
    assert fast.code_rows == slow.code_rows
    assert fast_counts == slow_counts
    return slow


@pytest.mark.parametrize("sizes", SIZES)
@pytest.mark.parametrize("k", sorted(SCHEMAS))
@pytest.mark.parametrize("op", [natural_join, semijoin])
def test_join_and_semijoin_match_for_every_key_width(op, k, sizes):
    rng = random.Random(stable_seed("joins", op.__name__, k, *sizes))
    left_schema, right_schema = SCHEMAS[k]
    if k == 0 and op is natural_join:
        sizes = tuple(min(size, 40) for size in sizes)  # a cross product
        left_schema, right_schema = ("A", "B", "E"), ("C", "D", "F")
    left_rows = random_rows(rng, len(left_schema), sizes[0])
    right_rows = random_rows(rng, len(right_schema), sizes[1])
    out = assert_same_relation(
        on_both_arms(
            op, ("L", left_schema, left_rows), ("R", right_schema, right_rows)
        )
    )
    shared = [a for a in left_schema if a in right_schema]
    right_keys = {
        tuple(row[right_schema.index(a)] for a in shared) for row in right_rows
    }
    matching = [
        row
        for row in left_rows
        if tuple(row[left_schema.index(a)] for a in shared) in right_keys
    ]
    if op is semijoin:
        assert sorted(out.tuples) == matching
    else:
        assert sorted(set(project(out, left_schema).tuples)) == matching


def test_cross_product_above_the_gate_matches():
    rng = random.Random(stable_seed("cross"))
    left = ("L", ("A", "B"), random_rows(rng, 2, GATE))
    right = ("R", ("C",), random_rows(rng, 1, 5))
    out = assert_same_relation(on_both_arms(natural_join, left, right))
    assert len(out) == GATE * 5


@pytest.mark.parametrize("op", [natural_join, semijoin])
@pytest.mark.parametrize("unit", [[], [()]])
def test_nullary_operand_beside_a_large_one(op, unit):
    rng = random.Random(stable_seed("nullary"))
    big = ("R", ("A", "B"), random_rows(rng, 2, 2 * GATE))
    assert_same_relation(on_both_arms(op, ("L", (), unit), big))
    out = assert_same_relation(on_both_arms(op, big, ("L", (), unit)))
    assert len(out) == (2 * GATE if unit else 0)


@pytest.mark.parametrize("sizes", SIZES)
@pytest.mark.parametrize(
    "right_schema", [("A", "B", "C"), ("C", "A", "B"), ("B", "C", "A")]
)
@pytest.mark.parametrize("op", [union, difference])
def test_union_and_difference_match_under_permuted_schemas(op, right_schema, sizes):
    rng = random.Random(stable_seed("sets", op.__name__, *right_schema, *sizes))
    left_schema = ("A", "B", "C")
    left_rows = random_rows(rng, 3, sizes[0])
    right_rows = random_rows(rng, 3, sizes[1])
    out = assert_same_relation(
        on_both_arms(
            op, ("L", left_schema, left_rows), ("R", right_schema, right_rows)
        )
    )
    realigned = {
        tuple(row[right_schema.index(a)] for a in left_schema)
        for row in right_rows
    }
    expected = set(left_rows) | realigned if op is union else set(left_rows) - realigned
    assert set(out.tuples) == expected


@pytest.mark.parametrize("size", [0, 1, GATE - 1, GATE, 4 * GATE])
@pytest.mark.parametrize(
    "attrs", [(), ("A",), ("C",), ("C", "A"), ("B", "C"), ("A", "B", "C")]
)
def test_project_matches(attrs, size):
    rng = random.Random(stable_seed("project", *attrs, size))
    rows = random_rows(rng, 3, size)
    out = assert_same_relation(
        on_both_arms(lambda r: project(r, attrs), ("T", ("A", "B", "C"), rows))
    )
    assert out.schema == tuple(a for a in ("A", "B", "C") if a in attrs)


def order_builds(make, order):
    """``make().column_set(order)`` under each backend, asserted equal in
    digest, rows and column bytes; per arm, whether the set was born
    columns-only (the argsort arm) rather than as row tuples."""
    built = []
    for backend in ("interpreted", "vectorized"):
        with scoped_backend(backend):
            column_set = make().column_set(order)
            built.append(
                (
                    column_set._rows is None,
                    column_set.content_digest(),
                    column_set.rows,
                    [bytes(column) for column in column_set.columns],
                )
            )
    assert built[0][1:] == built[1][1:]
    assert built[0][2] == sorted(built[0][2])
    return built[0][0], built[1][0]


def test_non_canonical_order_builds_match():
    rng = random.Random(stable_seed("orders"))
    rows = random_rows(rng, 3, 3 * GATE)
    for order in [("C", "A", "B"), ("B",), ("C", "B"), ("A", "B", "C")]:
        order_builds(lambda: Relation("T", ("A", "B", "C"), rows), order)


@pytest.mark.parametrize("size", [GATE - 1, GATE, GATE + 1])
@pytest.mark.parametrize("order", [("C", "A", "B"), ("C", "A")])
def test_order_build_straddles_the_gate(order, size):
    rng = random.Random(stable_seed("order-gate", size))
    rows = random_rows(rng, 3, size)
    arms = order_builds(lambda: Relation("T", ("A", "B", "C"), rows), order)
    assert arms == (False, size >= GATE)


@pytest.mark.parametrize("order", [("B", "C", "A"), ("C", "A")])
def test_order_build_with_sparse_codes_reranks(order):
    """Codes ~2^40 apart overflow a mixed-radix key of even two attributes."""
    rng = random.Random(stable_seed("order-sparse"))
    rows = [tuple(code << 40 for code in row) for row in random_rows(rng, 3, 3 * GATE)]
    assert (max(map(max, rows)) + 1) ** 2 >= 1 << 63
    make = lambda: Relation.from_codes("T", ("A", "B", "C"), rows)  # noqa: E731
    assert order_builds(make, order) == (False, True)


@pytest.mark.parametrize("order", [("B",), ("C", "A")])
def test_partial_orders_past_the_gate_are_born_columns(order):
    """Duplicates under the projection survive the argsort arm too."""
    rng = random.Random(stable_seed("order-partial", *order))
    rows = random_rows(rng, 3, 3 * GATE)
    make = lambda: Relation("T", ("A", "B", "C"), rows)  # noqa: E731
    assert order_builds(make, order) == (False, True)


def test_nullary_order_stays_on_the_row_arm():
    rng = random.Random(stable_seed("order-partial"))
    rows = random_rows(rng, 3, 3 * GATE)
    make = lambda: Relation("T", ("A", "B", "C"), rows)  # noqa: E731
    assert order_builds(make, ()) == (False, False)


def test_full_order_of_a_csv_born_relation_no_row_transpose(tmp_path, no_row_transpose):
    """A columns-only relation past the gate gets its permutation as columns."""
    from repro.relational.columns import Dictionary
    from repro.relational.io import load_relation_csv

    rng = random.Random(stable_seed("order-csv"))
    rows = random_rows(rng, 3, 3 * GATE)
    path = tmp_path / "T.csv"
    path.write_text("A,B,C\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
    built = []
    for backend in ("interpreted", "vectorized"):
        with scoped_backend(backend):
            column_set = load_relation_csv(path).column_set(("C", "A", "B"))
            built.append(
                (
                    column_set.content_digest(),
                    [bytes(column) for column in column_set.columns],
                    list(zip(*column_set.columns)),
                )
            )
    assert built[0] == built[1]
    codes = built[0][2]
    values = [Dictionary.of(attr).values for attr in ("C", "A", "B")]
    decoded = [tuple(v[code] for v, code in zip(values, row)) for row in codes]
    assert codes == sorted(codes)
    assert sorted(decoded) == sorted((c, a, b) for a, b, c in rows)


# -- Lemma 6.1 ------------------------------------------------------------------------


def hub_skewed_rows(rng, hubs, hub_degree, light, domain):
    """Rows over (A, B, C): ``hubs`` values of A with ``hub_degree`` rows
    each, the other A values with 1-3 rows — every log-degree bucket from
    the lightest to the hubs' is populated."""
    values = list(range(domain))
    rng.shuffle(values)  # code order (first appearance) != value order
    degrees = [hub_degree] * hubs + [rng.randint(1, 3) for _ in range(light)]
    rows = [
        (a, b, c)
        for a, degree in zip(values, degrees)
        for b, c in random_rows(rng, 2, degree, domain)
    ]
    rng.shuffle(rows)
    return rows


def partition_fingerprint(pieces):
    return [
        (
            piece.relation.name,
            piece.relation.schema,
            piece.relation.code_rows,
            piece.x_count,
            piece.y_degree,
        )
        for piece in pieces
    ]


@pytest.mark.parametrize(
    "shape",
    [(0, 0, 40, 60), (3, 40, 60, 90), (6, 70, 200, 300), (2, 300, GATE, 400)],
)
@pytest.mark.parametrize("x", [(), ("A",), ("B",), ("A", "C"), ("C", "B")])
def test_partition_matches_on_hub_skew(x, shape):
    rng = random.Random(stable_seed("partition", *x, *shape))
    rows = hub_skewed_rows(rng, *shape)
    (slow, slow_counts), (fast, fast_counts) = on_both_arms(
        lambda r: heavy_light_partition(r, x), ("T", ("A", "B", "C"), rows)
    )
    assert partition_fingerprint(fast) == partition_fingerprint(slow)
    assert fast_counts == slow_counts
    assert slow_counts["partitions"] == 1
    assert slow_counts["tuples_scanned"] == slow_counts["tuples_emitted"] == len(rows)
    covered = [row for piece in slow for row in piece.relation.tuples]
    assert sorted(covered) == sorted(rows)
    for piece in slow:
        assert piece.x_count * piece.y_degree <= len(rows)
        assert piece.x_count == piece.relation.distinct_keys(x)
        assert piece.y_degree == piece.relation.degree(("A", "B", "C"), x)


def test_partition_halving_splits_on_decoded_values():
    """A bucket whose ``x_count * y_degree`` exceeds ``|T|`` is halved along
    the *values* of X; both arms must cut at the same value."""
    rng = random.Random(stable_seed("halving"))
    groups = list(range(1000, 1000 + GATE))
    rng.shuffle(groups)
    rows = [(a, b) for a in groups for b in range(4)]
    rows += [(5000, b) for b in range(7)]  # same bucket, nearly twice the degree
    (slow, _), (fast, _) = on_both_arms(
        lambda r: heavy_light_partition(r, ("A",)), ("T", ("A", "B"), rows)
    )
    assert partition_fingerprint(fast) == partition_fingerprint(slow)
    assert len(slow) == 2
    low, high = sorted(slow, key=lambda piece: min(piece.relation.tuples))
    assert max(low.relation.tuples)[0] < min(high.relation.tuples)[0]
    for piece in slow:
        assert piece.x_count * piece.y_degree <= len(rows)


def test_empty_relation_has_no_pieces():
    for (pieces, counts) in on_both_arms(
        lambda r: heavy_light_partition(r, ("A",)), ("T", ("A", "B"), [])
    ):
        assert pieces == []
        assert counts["partitions"] == 0


# -- composite keys -------------------------------------------------------------------


def sparse_code_rows(rng, arity, count):
    """Code rows whose every column spans ~2^40: any two columns overflow a
    mixed-radix int64 key, so packing must re-rank."""
    codes = list(range(12)) + [(1 << 40) + i for i in range(12)]
    rows = set()
    while len(rows) < count:
        rows.add(tuple(rng.choice(codes) for _ in range(arity)))
    return sorted(rows)


def from_codes(name, schema, rows):
    return Relation.from_codes(name, schema, list(rows), presorted=True, distinct=True)


@pytest.mark.parametrize("k", [2, 3])
def test_pack_keys_reranks_instead_of_overflowing(k):
    rng = random.Random(stable_seed("pack", k))
    left = sparse_code_rows(rng, k, 300)
    right = sparse_code_rows(rng, k, 200)
    left_key, right_key = pack_keys(
        [np.array(column, dtype=np.int64) for column in zip(*left)],
        [np.array(column, dtype=np.int64) for column in zip(*right)],
    )
    keyed = sorted(zip(left_key.tolist() + right_key.tolist(), left + right))
    assert [row for _, row in keyed] == sorted(left + right)
    assert len({key for key, _ in keyed}) == len(set(left + right))


def test_pack_keys_is_plain_mixed_radix_when_it_fits():
    (keys,) = pack_keys([np.array([0, 1, 1]), np.array([4, 0, 9])])
    assert keys.tolist() == [4, 10, 19]


@pytest.mark.parametrize("op", [natural_join, semijoin, union, difference])
def test_operators_match_on_sparse_codes(op):
    rng = random.Random(stable_seed("sparse", op.__name__))
    if op in (union, difference):
        schemas = (("A", "B", "C"), ("B", "C", "A"))
    else:
        schemas = SCHEMAS[2]
    left = sparse_code_rows(rng, 3, 2 * GATE - 40)
    right = sparse_code_rows(rng, 3, 2 * GATE - 60)
    outcomes = []
    for backend in ("interpreted", "vectorized"):
        with scoped_backend(backend), scoped_work_counter() as counter:
            result = op(
                from_codes("L", schemas[0], left), from_codes("R", schemas[1], right)
            )
        outcomes.append((result, counter.as_dict()))
    out = assert_same_relation(outcomes)
    assert 0 < len(out)
