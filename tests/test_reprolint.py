"""Fixture tests for ``tools/reprolint`` — every rule fires and every
allowlist/pragma path passes.

Fixtures are inline source strings linted under *virtual* repo-relative
paths (rule scoping is purely path-based), so a violation pattern lives in
a string literal here without tripping the self-lint run over ``tests/``.
The integration test at the bottom runs the real CLI over the real tree
and asserts it is clean — the blocking-CI contract.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from reprolint.engine import lint_source  # noqa: E402
from reprolint.rules import ALL_RULES, RULE_CODES  # noqa: E402


def lint(source: str, path: str):
    return lint_source(textwrap.dedent(source), path)


def codes(source: str, path: str) -> list:
    return [d.code for d in lint(source, path)]


EXACT_PATH = "src/repro/flows/example.py"


class TestRLExact:
    def test_float_call_fires_in_scope(self):
        assert codes("x = float(y)\n", EXACT_PATH) == ["RL-EXACT"]

    def test_each_scope_root_is_covered(self):
        for path in (
            "src/repro/flows/proof_sequence.py",
            "src/repro/core/panda.py",
            "src/repro/lp/simplex.py",
            "src/repro/bounds/polymatroid.py",
            "src/repro/planner/engine.py",
        ):
            assert codes("x = float(y)\n", path) == ["RL-EXACT"]

    def test_float_literal_in_arithmetic_fires(self):
        assert codes("x = y * 2.0\n", EXACT_PATH) == ["RL-EXACT"]
        assert codes("ok = y > 0.5\n", EXACT_PATH) == ["RL-EXACT"]

    def test_float_literal_outside_arithmetic_passes(self):
        # A bare default or data value is not arithmetic on a proof path.
        assert codes("TOLERANCE = 0.5\n", EXACT_PATH) == []

    def test_lossy_math_fires_exact_math_passes(self):
        assert codes("import math\nx = math.log2(n)\n", EXACT_PATH) == ["RL-EXACT"]
        assert codes("from math import sqrt\n", EXACT_PATH) == ["RL-EXACT"]
        assert codes("from math import gcd, lcm\nx = gcd(a, b)\n", EXACT_PATH) == []
        assert codes("import math\nx = math.gcd(a, b)\n", EXACT_PATH) == []

    def test_literal_division_fires_fraction_division_passes(self):
        assert codes("x = y / 2\n", EXACT_PATH) == ["RL-EXACT"]
        assert codes("x = 1 / y\n", EXACT_PATH) == ["RL-EXACT"]
        assert codes("x = num / den\n", EXACT_PATH) == []
        assert codes("x = y // 2\n", EXACT_PATH) == []

    def test_out_of_scope_module_passes(self):
        assert codes("x = float(y) * 2.0\n", "src/repro/cli.py") == []
        assert codes("x = float(y)\n", "src/repro/lp/scipy_backend.py") == []

    def test_pragma_with_reason_suppresses(self):
        source = (
            "x = float(y)  "
            "# reprolint: allow(RL-EXACT) -- presentation boundary\n"
        )
        assert codes(source, EXACT_PATH) == []

    def test_pragma_without_reason_is_an_error(self):
        source = "x = float(y)  # reprolint: allow(RL-EXACT)\n"
        got = codes(source, EXACT_PATH)
        assert "RL-PRAGMA" in got and "RL-EXACT" in got


class TestRLNumpy:
    def test_module_level_unguarded_fires(self):
        assert codes("import numpy\n", "src/repro/relational/wcoj.py") == [
            "RL-NUMPY"
        ]
        assert codes("from scipy import sparse\n", "src/repro/lp/model.py") == [
            "RL-NUMPY"
        ]

    def test_function_scoped_passes(self):
        source = """\
        def kernel():
            import numpy
            return numpy
        """
        assert codes(source, "src/repro/relational/wcoj.py") == []

    def test_try_import_error_guard_passes(self):
        source = """\
        try:
            import numpy as np
        except ImportError:
            np = None
        """
        assert codes(source, "src/repro/relational/trie.py") == []

    def test_type_checking_guard_passes(self):
        source = """\
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            import numpy
        """
        assert codes(source, "src/repro/relational/wcoj.py") == []

    def test_backend_modules_allowlisted(self):
        assert codes("import numpy as np\n", "src/repro/relational/vectorized.py") == []
        assert codes("import numpy\n", "src/repro/relational/backend.py") == []

    def test_unrelated_guard_does_not_excuse(self):
        source = """\
        try:
            import numpy
        except ValueError:
            numpy = None
        """
        assert codes(source, "src/repro/relational/wcoj.py") == ["RL-NUMPY"]


HASHORD_PATH = "src/repro/planner/example.py"


class TestRLHashord:
    def test_for_loop_over_set_fires(self):
        assert codes("for x in set(xs):\n    f(x)\n", HASHORD_PATH) == [
            "RL-HASHORD"
        ]

    def test_comprehension_over_set_literal_fires(self):
        assert codes("out = [f(x) for x in {a, b}]\n", HASHORD_PATH) == [
            "RL-HASHORD"
        ]

    def test_list_of_set_fires_sorted_passes(self):
        assert codes("rows = list(set(rows))\n", HASHORD_PATH) == ["RL-HASHORD"]
        assert codes("rows = sorted(set(rows))\n", HASHORD_PATH) == []

    def test_order_insensitive_consumers_pass(self):
        source = """\
        n = len(set(xs))
        total = sum(set(xs))
        hit = x in set(xs)
        lo = min(set(xs))
        """
        assert codes(source, HASHORD_PATH) == []

    def test_set_iteration_outside_canonical_modules_passes(self):
        assert codes("for x in set(xs):\n    f(x)\n", "src/repro/cli.py") == []

    def test_serving_modules_in_set_scope(self):
        # The serving layer publishes snapshots whose rows feed canonical
        # output, so it lives inside the set-order scope.
        assert codes(
            "for x in set(xs):\n    f(x)\n", "src/repro/serving/server.py"
        ) == ["RL-HASHORD"]
        assert codes(
            "rows = list({a, b})\n", "src/repro/serving/snapshot.py"
        ) == ["RL-HASHORD"]

    def test_datalog_modules_in_set_scope(self):
        # Fixpoint rounds turn candidate-row sets into canonical deltas;
        # an unsorted consumption would leak hash order into results.
        assert codes(
            "for x in set(xs):\n    f(x)\n", "src/repro/datalog/fixpoint.py"
        ) == ["RL-HASHORD"]
        assert codes(
            "fresh = sorted(candidates - known)\n",
            "src/repro/datalog/fixpoint.py",
        ) == []

    def test_hash_sort_key_fires_everywhere(self):
        assert codes("ys = sorted(xs, key=hash)\n", "tests/test_x.py") == [
            "RL-HASHORD"
        ]
        assert codes("xs.sort(key=id)\n", "src/repro/core/panda.py") == [
            "RL-HASHORD"
        ]
        assert codes(
            "y = min(xs, key=lambda v: hash(v))\n", "benchmarks/bench_x.py"
        ) == ["RL-HASHORD"]

    def test_hash_seeded_rng_fires(self):
        # The PR 4 bug class: PYTHONHASHSEED-dependent "randomized" data.
        assert codes(
            "rng = random.Random(hash((name, 7)))\n", "tests/test_x.py"
        ) == ["RL-HASHORD"]
        assert codes("random.seed(hash(key))\n", "tests/test_x.py") == [
            "RL-HASHORD"
        ]

    def test_stable_seed_passes(self):
        assert codes(
            "rng = random.Random(zlib.crc32(key.encode()))\n", "tests/test_x.py"
        ) == []

    def test_content_sort_key_passes(self):
        assert codes(
            "ys = sorted(xs, key=lambda v: (len(v), v))\n", HASHORD_PATH
        ) == []


POOL_PATH = "src/repro/parallel/engine.py"


class TestRLPoolship:
    def test_lambda_fires(self):
        assert codes("out = pool.map(lambda t: t, tasks)\n", POOL_PATH) == [
            "RL-POOLSHIP"
        ]

    def test_bound_method_fires(self):
        source = "out = self._pool.map(self._run_one, tasks)\n"
        assert codes(source, POOL_PATH) == ["RL-POOLSHIP"]

    def test_unknown_local_name_fires(self):
        source = """\
        def go(pool, tasks):
            def inner(task):
                return task
            return pool.map(inner, tasks)
        """
        assert codes(source, POOL_PATH) == ["RL-POOLSHIP"]

    def test_imported_task_function_passes(self):
        source = """\
        from repro.parallel.pool import run_shard_task

        def go(pool, tasks):
            return pool.map(run_shard_task, tasks)
        """
        assert codes(source, POOL_PATH) == []

    def test_function_scoped_import_passes(self):
        # incremental/engine.py imports its task entry inside the method.
        source = """\
        def go(self, tasks):
            from repro.parallel.pool import run_delta_term_task

            return self._pool.map(run_delta_term_task, tasks)
        """
        assert codes(source, "src/repro/incremental/engine.py") == []

    def test_payload_embedding_column_set_fires(self):
        source = """\
        from repro.parallel.pool import run_shard_task

        def go(pool, relation, attrs):
            return pool.map(run_shard_task, [relation.column_set(attrs)])
        """
        assert codes(source, POOL_PATH) == ["RL-POOLSHIP"]

    def test_payload_naming_dictionary_fires(self):
        source = """\
        from repro.parallel.pool import run_shard_task
        from repro.relational.columns import Dictionary

        def go(pool, name):
            return pool.map(run_shard_task, [Dictionary(name)])
        """
        assert codes(source, POOL_PATH) == ["RL-POOLSHIP"]

    def test_non_pool_receivers_ignored(self):
        assert codes("out = executor.map(lambda t: t, tasks)\n", POOL_PATH) == []
        assert codes("out = map(lambda t: t, tasks)\n", POOL_PATH) == []

    def test_pool_module_itself_allowlisted(self):
        source = "out = self._pool.map(lambda t: t, tasks)\n"
        assert codes(source, "src/repro/parallel/pool.py") == []


class TestRLBackend:
    SCOPED = """\
        from repro.relational.backend import scoped_backend

        def execute(self):
            with scoped_backend(self.backend):
                return run()
        """

    def test_engine_entering_a_scope_fires(self):
        for path in ("src/repro/planner/engine.py", "src/repro/datalog/engine.py"):
            assert codes(self.SCOPED, path) == ["RL-BACKEND"]
        attribute = "with backend.scoped_backend('interpreted'):\n    pass\n"
        assert codes(attribute, "src/repro/cli.py") == ["RL-BACKEND"]

    def test_context_and_serving_threads_allowed(self):
        for path in (
            "src/repro/relational/backend.py",
            "src/repro/serving/server.py",
        ):
            assert codes(self.SCOPED, path) == []

    def test_pool_task_entry_points_only(self):
        source = """\
            def run_shard_task(task):
                with scoped_backend(task[3]):
                    return run()

            def ensure_database(self):
                with scoped_backend("vectorized"):
                    return run()
            """
        got = lint(source, "src/repro/parallel/pool.py")
        assert [(d.code, d.line) for d in got] == [("RL-BACKEND", 6)]

    def test_tests_and_benchmarks_may_scope(self):
        assert codes(self.SCOPED, "tests/test_engine.py") == []
        assert codes(self.SCOPED, "benchmarks/e2e/workloads.py") == []


class TestRLPragmaAndEngine:
    def test_bare_noqa_fires(self):
        assert codes("x = 1  # noqa\n", "src/repro/cli.py") == ["RL-PRAGMA"]

    def test_coded_noqa_passes(self):
        assert codes("f = lambda: 0  # noqa: E731\n", "src/repro/cli.py") == []

    def test_noqa_in_docstring_ignored(self):
        source = '"""Lines with ``# noqa`` are exempt."""\n'
        assert codes(source, "src/repro/cli.py") == []

    def test_unused_pragma_is_an_error(self):
        source = "x = 1  # reprolint: allow(RL-EXACT) -- stale reason\n"
        got = lint(source, EXACT_PATH)
        assert [d.code for d in got] == ["RL-PRAGMA"]
        assert "unused suppression" in got[0].message

    def test_unknown_code_in_pragma_is_an_error(self):
        source = "x = 1  # reprolint: allow(RL-BOGUS) -- whatever\n"
        assert codes(source, EXACT_PATH) == ["RL-PRAGMA"]

    def test_malformed_pragma_is_an_error(self):
        source = "x = 1  # reprolint: allowing everything\n"
        assert codes(source, EXACT_PATH) == ["RL-PRAGMA"]

    def test_rl_pragma_cannot_suppress_itself(self):
        source = "x = 1  # reprolint: allow(RL-PRAGMA) -- nope\n"
        assert codes(source, EXACT_PATH) == ["RL-PRAGMA"]

    def test_multi_code_pragma_suppresses_both(self):
        source = (
            "import numpy\nx = float(numpy.pi)  "
            "# reprolint: allow(RL-EXACT, RL-NUMPY) -- fixture\n"
        )
        # The module-level numpy import on line 1 still fires; the float()
        # on the pragma line is suppressed (the numpy code is unused ->
        # engine reports it).
        got = codes(source, EXACT_PATH)
        assert got == ["RL-NUMPY", "RL-PRAGMA"]

    def test_syntax_error_reported_not_raised(self):
        got = lint("def broken(:\n", "src/repro/cli.py")
        assert [d.code for d in got] == ["RL-SYNTAX"]

    def test_rule_registry_names_are_unique_and_documented(self):
        assert len(set(RULE_CODES)) == len(RULE_CODES)
        for rule in ALL_RULES:
            assert rule.code.startswith("RL-")
            assert rule.rationale


class TestTreeIsClean:
    def test_cli_run_over_real_tree_is_clean_and_writes_json(self, tmp_path):
        """The acceptance contract: the blocking CI invocation exits 0."""
        report = tmp_path / "reprolint.json"
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "reprolint" / "run.py"),
                "src",
                "tests",
                "benchmarks",
                "tools",
                "--json",
                str(report),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(report.read_text())
        assert payload["tool"] == "reprolint"
        assert payload["diagnostics"] == []
        assert payload["files"] > 100
