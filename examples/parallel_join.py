"""Partition-parallel joins: shard a skewed query, merge bit-identical results.

Walkthrough of the `repro.parallel` subsystem:

1. build a skewed triangle instance (one hub key carries 30% of the rows);
2. inspect the shard plan — contiguous code ranges on the first variable,
   with the hub split further on the second variable (the Lemma 6.1-style
   heavy-hitter test), so skew doesn't serialize onto one worker;
3. run the same query serially and through :class:`QueryEngine` with ``workers=N``
   at several worker counts and drivers, checking every result is
   *bit-identical* (same sorted code rows — parallelism changes wall-clock,
   never results);
4. do the same for an aggregate (FAQ) query over the counting semiring with
   exact ``Fraction`` weights.

Run with::

    PYTHONPATH=src python examples/parallel_join.py
"""

import time
from fractions import Fraction
from functools import reduce

from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.faq.annotated import AnnotatedRelation
from repro.faq.semiring import COUNTING
from repro.parallel import parallel_faq_join, plan_shards
from repro.parallel.engine import _order_tables
from repro.planner import QueryEngine
from repro.relational import Database, Relation, generic_join, scoped_work_counter


def skewed_rows(n: int, hub_share: float = 0.3):
    """~n pairs where key 0 is a heavy hub carrying ``hub_share`` of them."""
    hub = {(0, j) for j in range(int(n * hub_share))}
    tail = {
        (1 + (i * 7919) % (2 * n), (i * 31) % (n // 10))
        for i in range(n - len(hub))
    }
    return sorted(hub | tail)


def main() -> None:
    n = 20_000
    rows = skewed_rows(n)
    query = ConjunctiveQuery.full(
        (Atom("R", ("A", "B")), Atom("S", ("B", "C")), Atom("T", ("A", "C"))),
        name="triangle",
    )
    database = Database(
        [Relation(atom.name, atom.variables, rows) for atom in query.body]
    )
    order = tuple(sorted(query.variable_set))
    relations = [atom.bind(database) for atom in query.body]

    print(f"skewed triangle: {len(rows)} tuples/relation, "
          f"hub key 0 holds {sum(1 for a, _ in rows if a == 0)} rows")

    # -- 1. the shard plan ---------------------------------------------------
    specs = plan_shards(_order_tables(relations, order), order, shards=4)
    print(f"\nshard plan for 4 shards ({len(specs)} specs):")
    for spec in specs:
        kind = f"heavy: A={spec.v0[0]}, B in [{spec.v1[0]}, {spec.v1[1]})" \
            if spec.is_heavy else f"light: A in [{spec.v0[0]}, {spec.v0[1]})"
        print(f"  shard {spec.index}: {kind}")

    # -- 2. serial vs parallel, bit-identical --------------------------------
    start = time.perf_counter()
    serial = generic_join(relations, order)
    serial_s = time.perf_counter() - start
    print(f"\nserial generic join: {len(serial)} rows in {serial_s:.3f}s")

    for workers in (1, 2, 4):
        with QueryEngine(query, workers=workers) as engine:
            for driver in ("generic", "leapfrog", "yannakakis"):
                with scoped_work_counter() as counter:
                    start = time.perf_counter()
                    result = engine.execute(database, driver=driver)
                    elapsed = time.perf_counter() - start
                identical = result.relation.code_rows == serial.code_rows
                assert identical
                print(f"  workers={workers} driver={driver:<10} "
                      f"{elapsed:.3f}s  bit-identical={identical}  "
                      f"work={counter.total}")

    # -- 3. parallel FAQ: exact Fraction weights -----------------------------
    weights = {
        (a, b): Fraction(1, 1 + (a + b) % 7) for a, b in rows[: n // 2]
    }
    factors = [
        AnnotatedRelation(atom.name, atom.variables, COUNTING, weights)
        for atom in query.body
    ]
    serial_faq = reduce(lambda x, y: x.multiply(y), factors).marginalize(("A",))
    parallel_faq = parallel_faq_join(factors, ("A",), workers=4)
    assert parallel_faq == serial_faq
    assert parallel_faq.code_items() == serial_faq.code_items()
    sample = serial_faq.items()[:3]
    print(f"\nFAQ ⊕⊗ over counting semiring: {len(serial_faq)} groups, "
          f"parallel ≡ serial (exact Fractions); sample: {sample}")


if __name__ == "__main__":
    main()
