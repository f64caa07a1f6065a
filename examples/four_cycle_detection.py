#!/usr/bin/env python3
"""Cycle detection in graphs: adaptive vs single-decomposition evaluation.

The motivating workload of Example 1.10: given a directed graph, decide
whether it contains a 4-cycle.  Alon–Yuster–Zwick solve this in O(N^{3/2});
every *single* tree-decomposition plan is Θ(N²) on some input, while PANDA's
adaptive (submodular-width) plan matches N^{3/2} up to polylog factors.

This example measures machine-independent work (tuples scanned + emitted) on
the paper's worst-case family and on random graphs, and prints the scaling
table.

Run:  python examples/four_cycle_detection.py
"""

import math
import random

from repro.core.query_plans import dasubw_plan, tree_decomposition_plan
from repro.datalog import parse_query
from repro.decompositions import tree_decompositions
from repro.instances import instance_a
from repro.relational import Database, Relation, scoped_work_counter

QUERY = parse_query("Q() :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)")


def random_graph_instance(n: int, seed: int) -> Database:
    """One random edge relation used in all four atom positions."""
    rng = random.Random(seed)
    domain = max(4, int(math.isqrt(n)) * 2)
    edges = set()
    while len(edges) < n:
        edges.add((rng.randrange(domain), rng.randrange(domain)))
    return Database(
        [
            Relation.from_pairs("R12", "A1", "A2", edges),
            Relation.from_pairs("R23", "A2", "A3", edges),
            Relation.from_pairs("R34", "A3", "A4", edges),
            Relation.from_pairs("R41", "A4", "A1", edges),
        ]
    )


def measure(plan_fn, *args) -> tuple[bool, int]:
    with scoped_work_counter() as counter:
        result = plan_fn(*args)
    return result.boolean, counter.total


def main() -> None:
    decompositions = tree_decompositions(QUERY.hypergraph())

    print("Worst-case family (Example 1.10): R12=R34=[N]x[1], R23=R41=[1]x[N]")
    print(f"{'N':>6} {'N^1.5':>9} {'N^2':>9} {'adaptive':>10} "
          f"{'best-TD':>10} {'ratio':>7}")
    for n in (16, 32, 64, 128):
        db = instance_a(n)
        answer, adaptive_work = measure(dasubw_plan, QUERY, db)
        td_work = min(
            measure(tree_decomposition_plan, QUERY, db, td)[1]
            for td in decompositions
        )
        print(
            f"{n:>6} {int(n**1.5):>9} {n * n:>9} {adaptive_work:>10} "
            f"{td_work:>10} {td_work / adaptive_work:>7.1f}"
        )

    print()
    print("Random graphs (answers must agree):")
    print(f"{'N':>6} {'cycle?':>7} {'adaptive':>10} {'single-TD':>10}")
    for n in (32, 64, 128):
        db = random_graph_instance(n, seed=n)
        answer, adaptive_work = measure(dasubw_plan, QUERY, db)
        td_answer, td_work = measure(
            tree_decomposition_plan, QUERY, db, decompositions[0]
        )
        assert answer == td_answer, "plans disagree!"
        print(f"{n:>6} {str(answer):>7} {adaptive_work:>10} {td_work:>10}")

    print()
    print("Takeaway: on adversarial inputs the adaptive plan's advantage grows")
    print("like sqrt(N), exactly the fhtw-vs-subw gap 2 vs 3/2 in the exponent.")


if __name__ == "__main__":
    main()
