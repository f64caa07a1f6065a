"""E3 — Example 1.10 / Figure 2: Boolean 4-cycle, adaptive vs single-TD.

Paper claims: fhtw(C4) = 2, so every single tree-decomposition plan takes
Θ(N²) on its adversarial instance; subw(C4) = 3/2, and PANDA's adaptive plan
answers in O~(N^{3/2}) on *every* instance.  The bench runs both plans over
both adversarial instances (one per decomposition) and sweeps N.
"""

from repro.core.query_plans import dasubw_plan, tree_decomposition_plan
from repro.datalog import parse_query
from repro.decompositions import tree_decompositions
from repro.instances import instance_a, instance_a_transposed
from repro.relational import scoped_work_counter

from _bench_utils import loglog_slope, print_table

QUERY = parse_query("Q() :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)")
DECOMPOSITIONS = tree_decompositions(QUERY.hypergraph())


def _measure(plan, *args) -> int:
    with scoped_work_counter() as counter:
        result = plan(*args)
    assert result.boolean  # every adversarial instance contains 4-cycles
    return counter.total


def test_boolean_4cycle_adaptive_vs_single_td(benchmark):
    sizes = [32, 64, 128]
    adaptive_works, td_works = [], []
    rows = []
    for n in sizes:
        instances = [instance_a(n), instance_a_transposed(n)]
        adaptive = max(_measure(dasubw_plan, QUERY, db) for db in instances)
        per_td = [
            max(_measure(tree_decomposition_plan, QUERY, db, td) for db in instances)
            for td in DECOMPOSITIONS
        ]
        adaptive_works.append(adaptive)
        td_works.append(min(per_td))
        rows.append([n, int(n**1.5), n * n, adaptive, min(per_td)])
        assert min(per_td) >= n * n, "each TD must pay N² on its bad instance"
        assert adaptive < min(per_td)
    print_table(
        "Example 1.10: Boolean 4-cycle, worst work over adversarial instances",
        ["N", "N^1.5", "N^2", "adaptive (subw) work", "best single-TD work"],
        rows,
    )
    adaptive_slope = loglog_slope(sizes, adaptive_works)
    td_slope = loglog_slope(sizes, td_works)
    print(
        f"exponents: adaptive {adaptive_slope:.2f} (paper 1.5), "
        f"single-TD {td_slope:.2f} (paper 2.0)"
    )
    assert adaptive_slope < 1.8
    assert td_slope > 1.85

    benchmark(lambda: dasubw_plan(QUERY, instance_a(64)))
