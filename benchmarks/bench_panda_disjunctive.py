"""E2 — Example 1.4 / 1.8 / Figure 1: PANDA on the 3-path disjunctive rule.

Paper claims: the rule

    T123(A1,A2,A3) ∨ T234(A2,A3,A4) <- R12, R23, R34     (|R| <= N)

has polymatroid bound N^{3/2} and PANDA computes a model in O~(N^{3/2}),
even on the worst-case instance whose body join has N² tuples.  The bench
sweeps N on that instance and fits the work exponent, which should sit near
1.5 (plus the log factor from the heavy/light partitions) — far below 2.
"""

from repro.core.panda import panda
from repro.instances import path_rule
from repro.relational import Database, Relation, scoped_work_counter

from _bench_utils import loglog_slope, print_table

RULE = path_rule()


def _worst_case(n: int) -> Database:
    return Database(
        [
            Relation.from_pairs("R12", "A1", "A2", [(i, 0) for i in range(n)]),
            Relation.from_pairs("R23", "A2", "A3", [(0, i) for i in range(n)]),
            Relation.from_pairs("R34", "A3", "A4", [(i, 0) for i in range(n)]),
        ]
    )


def test_panda_path_rule_scaling(benchmark):
    sizes = [32, 64, 128, 256]
    works = []
    rows = []
    for n in sizes:
        db = _worst_case(n)
        with scoped_work_counter() as counter:
            result = panda(RULE, db)
        work = counter.total
        works.append(work)
        assert RULE.is_model(result.model, db)
        assert result.budget == n**1.5
        assert result.stats.max_intermediate <= result.budget
        rows.append(
            [n, int(n**1.5), n * n, work, result.stats.restarts,
             result.stats.max_intermediate]
        )
    slope = loglog_slope(sizes, works)
    print_table(
        "Example 1.4/1.8: PANDA work on the worst-case 3-path instance",
        ["N", "N^1.5", "N^2 (body)", "PANDA work", "restarts", "max intermediate"],
        rows,
    )
    print(f"fitted work exponent: {slope:.2f}  (paper: 1.5 + o(1); naive: 2.0)")
    assert slope < 1.8, f"PANDA work scales like N^{slope:.2f}, expected ~N^1.5"

    benchmark(lambda: panda(RULE, _worst_case(128)))
