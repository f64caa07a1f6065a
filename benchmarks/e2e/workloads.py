"""The seven workloads: what one operation is, and which layer calls it is made of.

Runs inside the workload subprocess (``run.py --child``).  Every layer is
measured from outside, by timing calls into its public functions; sizes,
op counts, drivers, backends and worker counts are constants of the
classes below, never options.

Each workload provides

* ``setup()`` — everything before the first op can start (timed as ``setup_s``);
* ``cold()`` — the first operation of the process, right after ``setup()``;
* ``op(i)`` — the warm operation, checked against the oracle's answer;
* ``traced_op(i, tr)`` — the same operation with a span around every public
  call, plus (where the public API allows it) a *replay* of the op decomposed
  into its layer calls;
* ``probes(tr)`` — the per-layer metrics this workload owns.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import gen

__all__ = ["WORKLOADS", "Workload", "matches"]

WORKERS = 2  # = nproc of the reference box; the cap for pools and readers
READS_PER_WRITE = 9  # the 90/10 serving mix
SERIAL_BATCHES = 20  # change batches the serial IVM probe applies (fixed: counts repeat)
PROBE_SAMPLES = 3


def decoded(relation) -> list:
    """Decoded rows with columns in sorted-attribute order (the oracle's)."""
    schema = relation.schema
    perm = [schema.index(attr) for attr in sorted(schema)]
    rows = relation.tuples
    if perm != sorted(perm):
        rows = [tuple(row[i] for i in perm) for row in rows]
    return rows


def matches(rows, answer: dict) -> bool:
    return len(rows) == answer["rows"] and gen.digest_rows(rows) == answer["digest"]


def traced_matches(tr, relation, answer: dict) -> bool:
    with tr.span("relational.decode"):
        rows = decoded(relation)
    with tr.span("bench.verify"):
        return matches(rows, answer)


def fresh_database(database):
    """The same code rows as new relations: no cached order, index or decode."""
    from repro.relational import Database, Relation

    return Database(
        [
            Relation.from_codes(r.name, r.schema, r.code_rows, presorted=True, distinct=True)
            for r in database
        ]
    )


def timed(tr, name: str, fn, samples: int = PROBE_SAMPLES) -> tuple:
    """``(median wall-clock, last result)`` of ``fn()`` over ``samples`` spans
    called ``name``."""
    for _ in range(samples):
        with tr.span(name):
            result = fn()
    return median(tr.durations(name)[-samples:]), result


def bag_rules(query, decompositions) -> list:
    """One disjunctive rule per bag-selector image, as ``dasubw_plan`` builds them."""
    from repro.datalog.rule import DisjunctiveRule
    from repro.decompositions.selectors import selector_images

    return [
        DisjunctiveRule(
            tuple(sorted(image, key=lambda bag: tuple(sorted(bag)))), query.body, name="P_image"
        )
        for image in selector_images(decompositions)
    ]


def load_batches(directory: Path) -> list:
    """``[{relation: (inserts, deletes)}]`` from one feed sub-directory per batch."""
    from repro.relational.io import iter_change_feed

    return [
        {name: (inserts, deletes) for name, _, inserts, deletes in iter_change_feed(batch)}
        for batch in sorted(directory.iterdir())
    ]


class Workload:
    ops = 0  # warm operations per subprocess (a run is run.PROCESSES subprocesses)
    has_replay = False  # traced_op also replays the op as separate layer calls

    def __init__(self, inputs: Path, meta: dict) -> None:
        self.inputs = inputs
        self.meta = meta
        self.answer = meta.get("answer")
        self.engine = None
        self._scratch: list[Path] = []

    def setup(self) -> None:
        """Everything before the first op can start: load, build the engine."""
        raise NotImplementedError

    def cold(self) -> bool:
        """The first operation of this process: nothing is bound, planned or cached."""
        return self.op(0)

    def op(self, i: int) -> bool:
        raise NotImplementedError

    def traced_op(self, i: int, tr) -> bool:
        raise NotImplementedError

    def probes(self, tr) -> dict:
        raise NotImplementedError

    def scratch(self, name: str) -> Path:
        """An empty scratch directory under ``benchmarks/out`` (see ``cleanup``)."""
        path = gen.out_root() / "e2e_scratch" / f"{self.inputs.name}-{name}-{os.getpid()}"
        shutil.rmtree(path, ignore_errors=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._scratch.append(path)
        return path

    def cleanup(self) -> None:
        if self.engine is not None and hasattr(self.engine, "close"):
            self.engine.close()
        for path in self._scratch:
            shutil.rmtree(path, ignore_errors=True)


# -- 1. tri_wcoj ---------------------------------------------------------------------


class TriWcoj(Workload):
    ops = 24
    has_replay = True

    def setup(self) -> None:
        from repro.datalog import parse_query
        from repro.parallel import ParallelQueryEngine
        from repro.relational.io import load_database_dir

        self.query = parse_query(self.meta["query"])
        self.order = tuple(sorted(self.query.variable_set))
        self.db = load_database_dir(self.inputs / "csv")
        self.engine = ParallelQueryEngine(self.query, workers=1)

    def op(self, i: int) -> bool:
        result = self.engine.execute(self.db, "generic")
        return matches(decoded(result.relation), self.answer)

    def _bindings(self, database) -> list:
        return [atom.bind(database) for atom in self.query.body]

    def traced_op(self, i: int, tr) -> bool:
        from repro.relational import generic_join

        with tr.span("op"):
            with tr.span("parallel.execute"):
                result = self.engine.execute(self.db, "generic")
            ok = traced_matches(tr, result.relation, self.answer)
        with tr.span("replay"):
            with tr.span("datalog.bind"):
                bindings = self._bindings(self.db)
            with tr.span("relational.columns.order"):
                for relation in bindings:
                    attrs = tuple(v for v in self.order if v in relation.attributes)
                    _ = relation.column_set(attrs).columns
            with tr.span("relational.vectorized.join"):
                joined = generic_join(bindings, self.order)
            ok = traced_matches(tr, joined, self.answer) and ok
        return ok

    def probes(self, tr) -> dict:
        from repro.faq.annotated import AnnotatedRelation
        from repro.faq.semiring import COUNTING
        from repro.relational import Database, Relation, generic_join, scoped_work_counter
        from repro.relational.backend import scoped_backend
        from repro.relational.storage import save_database_dir

        out = {"relational.vectorized.join_s": tr.p50("relational.vectorized.join")}
        plain = [(r.name, r.schema, sorted(r.tuples)) for r in self.db]
        out["relational.columns.encode_s"], _ = timed(
            tr,
            "relational.columns.encode",
            lambda: Database([Relation(name, schema, rows) for name, schema, rows in plain]),
        )

        def build_orders():
            for relation in fresh_database(self.db):
                _ = relation.column_set(tuple(reversed(relation.schema))).columns

        out["relational.columns.order_build_s"], _ = timed(
            tr, "relational.columns.order_build", build_orders
        )
        bindings = self._bindings(self.db)
        with scoped_backend("interpreted"):
            out["relational.execution.interp_join_s"], _ = timed(
                tr, "relational.execution.interp_join", lambda: generic_join(bindings, self.order)
            )
        with scoped_work_counter() as counter:
            generic_join(bindings, self.order)
        out["relational.join.tuples_scanned"] = counter.tuples_scanned
        out["relational.join.tuples_emitted"] = counter.tuples_emitted
        out["relational.join.scanned_per_out"] = counter.tuples_scanned / max(
            1, counter.tuples_emitted
        )
        factors = [AnnotatedRelation.from_relation(r, COUNTING) for r in bindings]
        out["faq.count_s"], count = timed(
            tr, "faq.count", lambda: self.engine.execute_faq(factors).scalar(), samples=1
        )
        if count != self.answer["rows"]:
            raise AssertionError(f"FAQ count {count} != oracle {self.answer['rows']}")
        store = self.scratch("cli")
        save_database_dir(self.db, store)
        command = [sys.executable, "-m", "repro", "run", self.meta["query"]]
        command += ["--data-dir", str(store), "--driver", "generic", "--limit", "0"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
        out["cli.run_s"], _ = timed(
            tr,
            "cli.run",
            lambda: subprocess.run(command, check=True, stdout=subprocess.DEVNULL, env=env),
        )
        return out


# -- 2. cyc4_panda -------------------------------------------------------------------


def within_budget(result) -> bool:
    """Theorem 1.7: no PANDA intermediate exceeds the ``2^OBJ`` budget."""
    return all(run.stats.max_intermediate <= run.budget for run in result.panda_runs)


class Cyc4Panda(Workload):
    ops = 3
    has_replay = True

    def setup(self) -> None:
        from repro.datalog import parse_query
        from repro.planner import QueryEngine
        from repro.relational.io import load_database_dir

        self.query = parse_query(self.meta["query"])
        self.db = load_database_dir(self.inputs / "csv")
        self.engine = QueryEngine(self.query)

    def op(self, i: int) -> bool:
        result = self.engine.execute(self.db, "dasubw")
        return matches(decoded(result.relation), self.answer) and within_budget(result)

    def traced_op(self, i: int, tr) -> bool:
        with tr.span("op"):
            with tr.span("planner.execute"):
                result = self.engine.execute(self.db, "dasubw")
            ok = traced_matches(tr, result.relation, self.answer) and within_budget(result)
        with tr.span("replay"):
            ok = traced_matches(tr, self._replay(tr), self.answer) and ok
        return ok

    def _replay(self, tr):
        """Corollary 7.13 step by step — the calls ``dasubw_plan`` makes."""
        from repro.core.panda import panda
        from repro.decompositions.enumeration import tree_decompositions
        from repro.relational import semijoin, union
        from repro.relational.yannakakis import acyclic_join, join_tree_from_bags

        query, database = self.query, self.db
        with tr.span("decompositions.enumerate"):
            decompositions = tree_decompositions(query.hypergraph())
            rules = bag_rules(query, decompositions)
        with tr.span("relational.database.extract_cardinalities"):
            constraints = database.extract_cardinalities()
        produced: dict = {}
        for rule in rules:
            with tr.span("core.panda"):
                run = panda(rule, database, constraints=constraints, planner=self.engine.planner)
            with tr.span("relational.operators.union"):
                for table in run.model.tables:
                    bag = table.attributes
                    produced[bag] = (
                        union(produced[bag], table, name=table.name) if bag in produced else table
                    )
        atoms = [atom.bind(database) for atom in query.body]
        with tr.span("relational.operators.semijoin"):
            for bag, table in list(produced.items()):
                for atom in atoms:
                    table = semijoin(table, atom)
                produced[bag] = table
        answer = None
        for decomposition in decompositions:
            if not all(bag in produced for bag in decomposition.bags):
                continue
            with tr.span("relational.yannakakis"):
                tables = [
                    produced[bag].renamed(f"T_{''.join(sorted(bag))}")
                    for bag in decomposition.bags
                ]
                part = acyclic_join(join_tree_from_bags(tables), name=query.name)
            with tr.span("relational.operators.semijoin"):
                for atom in atoms:
                    part = semijoin(part, atom)
            with tr.span("relational.operators.union"):
                answer = part if answer is None else union(answer, part, name=query.name)
        return answer

    def probes(self, tr) -> dict:
        from repro.core.panda import panda
        from repro.datalog import parse_rule
        from repro.datalog.atoms import Atom
        from repro.planner.engine import build_panda_plan
        from repro.relational import (
            difference,
            heavy_light_partition,
            natural_join,
            project,
            semijoin,
            union,
        )
        from repro.relational.io import load_database_dir

        out = {}
        # Operators, on the workload's own relations.  Operands are rebuilt per
        # sample: relations cache key sets and sorted orders on first use.
        r12, r23, r34 = (self.db[name] for name in ("R12", "R23", "R34"))
        j123 = natural_join(r12, r23)
        j234 = natural_join(r23, r34).relabeled("J234", j123.schema)
        closing = Atom("R41", ("A3", "A1")).bind(self.db)  # two shared attributes
        single = lambda relation: fresh_database([relation])[relation.name]  # noqa: E731
        cases = {
            "natural_join": lambda: natural_join(single(r12), single(r23)),
            "semijoin": lambda: semijoin(single(j123), single(closing)),
            "union": lambda: union(single(j123), single(j234)),
            "difference": lambda: difference(single(j123), single(j234)),
            "partition": lambda: heavy_light_partition(single(j123), ("A2",)),
            "project": lambda: project(single(j123), ("A1", "A3")),
        }
        for name, call in cases.items():
            out[f"relational.operators.{name}_s"], _ = timed(
                tr, f"relational.operators.{name}", call
            )
        # PANDA alone, plan precomputed: operator time on the 3-path rule.
        rule = parse_rule(self.meta["path3_rule"])
        database = load_database_dir(self.inputs / "path3")
        constraints = database.extract_cardinalities()
        universe = tuple(sorted(rule.variable_set))
        plan = build_panda_plan(universe, list(rule.targets), constraints)
        out["core.panda.run_s"], run = timed(
            tr, "core.panda.run", lambda: panda(rule, database, constraints=constraints, plan=plan)
        )
        if run.stats.max_intermediate > run.budget:
            raise AssertionError("PANDA intermediate exceeds its budget (Theorem 1.7)")
        out["core.panda.max_intermediate_rows"] = run.stats.max_intermediate
        out["core.panda.budget_rows"] = run.budget
        out["core.panda.restarts"] = run.stats.restarts
        out["core.panda.partitions"] = run.stats.partitions
        # Plan-cache hit rate of warm ops (the cold op did every miss).
        before = self.engine.cache_stats.as_dict()
        self.op(0)
        after = self.engine.cache_stats.as_dict()
        hits, misses = after["hits"] - before["hits"], after["misses"] - before["misses"]
        out["planner.cache_hit_rate"] = hits / max(1, hits + misses)
        return out


# -- 3. plan_cold --------------------------------------------------------------------


class PlanCold(Workload):
    ops = 16
    has_replay = True

    def setup(self) -> None:
        from repro.datalog import parse_query
        from repro.relational.io import load_database_dir

        self.query = parse_query(self.meta["query"])
        self.db = load_database_dir(self.inputs / "csv")

    def op(self, i: int) -> bool:
        from repro.planner import QueryEngine

        result = QueryEngine(self.query).execute(self.db, "dasubw")
        return matches(decoded(result.relation), self.answer) and within_budget(result)

    def traced_op(self, i: int, tr) -> bool:
        from repro.core.query_plans import dasubw_plan
        from repro.decompositions.enumeration import tree_decompositions
        from repro.planner import Planner, QueryEngine

        with tr.span("op"):
            with tr.span("planner.execute"):
                result = QueryEngine(self.query).execute(self.db, "dasubw")
            ok = traced_matches(tr, result.relation, self.answer) and within_budget(result)
        with tr.span("replay"):
            with tr.span("decompositions.enumerate"):
                decompositions = tree_decompositions(self.query.hypergraph())
                rules = bag_rules(self.query, decompositions)
            with tr.span("relational.database.extract_cardinalities"):
                constraints = self.db.extract_cardinalities()
            planner = Planner()
            universe = tuple(sorted(self.query.variable_set))
            with tr.span("planner.plan_rule"):
                for rule in rules:
                    planner.plan_rule(universe, rule.targets, constraints)
            with tr.span("core.query_plans.dasubw"):
                result = dasubw_plan(
                    self.query,
                    self.db,
                    constraints=constraints,
                    decompositions=decompositions,
                    planner=planner,
                )
            ok = traced_matches(tr, result.relation, self.answer) and ok
        return ok

    def probes(self, tr) -> dict:
        from repro.bounds import log_size_bound
        from repro.bounds.polymatroid import PolymatroidProgram, constraints_to_log
        from repro.datalog import parse_query
        from repro.decompositions.enumeration import tree_decompositions
        from repro.flows import construct_proof_sequence, flow_from_bound
        from repro.planner import QueryEngine
        from repro.planner.engine import build_panda_plan
        from repro.relational.io import load_database_dir
        from repro.widths.degree_aware import degree_aware_subw

        out = {}
        hypergraph = self.query.hypergraph()
        constraints = self.db.extract_cardinalities()
        universe = tuple(sorted(self.query.variable_set))
        targets = list(bag_rules(self.query, tree_decompositions(hypergraph))[0].targets)

        out["bounds.polymatroid_s"], bound = timed(
            tr, "bounds.polymatroid", lambda: log_size_bound(universe, targets, constraints)
        )
        # The exact simplex alone, on the LP the polymatroid program builds.
        # `_build` is the one private call of the benchmark: the model has no
        # public accessor, and rebuilding its rows here would measure a copy.
        program = PolymatroidProgram(universe, constraints_to_log(constraints))
        model = program._build([program.varmap.mask_of(t) for t in targets])
        out["lp.solve_s"], solution = timed(tr, "lp.solve", model.maximize)
        out["lp.pivots"] = solution.pivots

        def prove():
            inequality, witness, _ = flow_from_bound(bound)
            return construct_proof_sequence(inequality, witness)

        out["flows.proof_sequence_s"], sequence = timed(tr, "flows.proof_sequence", prove)
        out["flows.proof_steps"] = len(sequence)
        out["planner.plan_s"], _ = timed(
            tr, "planner.plan", lambda: build_panda_plan(universe, targets, constraints)
        )
        out["widths.da_subw_s"], _ = timed(
            tr, "widths.da_subw", lambda: degree_aware_subw(hypergraph, constraints), samples=1
        )
        six = parse_query(self.meta["cycle6"]["query"])
        out["decompositions.enumerate_s"], found = timed(
            tr, "decompositions.enumerate6", lambda: tree_decompositions(six.hypergraph())
        )
        out["decompositions.count"] = len(found)
        database = load_database_dir(self.inputs / "csv6")
        out["planner.plan6_s"], result = timed(
            tr, "planner.plan6", lambda: QueryEngine(six).execute(database, "dasubw"), samples=1
        )
        if not matches(decoded(result.relation), self.meta["cycle6"]["answer"]):
            raise AssertionError("6-cycle answer differs from the oracle's")
        return out


# -- 4. serve_mixed ------------------------------------------------------------------


class ServeMixed(Workload):
    ops = 24  # every process applies the same first batches of the feed

    def setup(self) -> None:
        from repro.datalog import parse_query
        from repro.relational.io import load_database_dir
        from repro.serving import ServingEngine

        self.query = parse_query(self.meta["query"])
        self.db = load_database_dir(self.inputs / "csv")
        self.plan = load_batches(self.inputs / "feed")
        self.epochs = self.meta["epochs"]
        self.engine = ServingEngine(self.query, readers=WORKERS)

    def cold(self) -> bool:
        """Bind, materialize the view, start the broker."""
        result = self.engine.execute(self.db)
        return matches(decoded(result.relation), self.epochs[0])

    @staticmethod
    def _read(snapshot) -> tuple:
        rows = decoded(snapshot.result().relation)
        return snapshot.epoch, len(rows), gen.digest_rows(rows)

    def _reads_ok(self, reads, cycle: int) -> bool:
        return all(
            epoch in (cycle, cycle + 1)
            and (count, digest) == (self.epochs[epoch]["rows"], self.epochs[epoch]["digest"])
            for epoch, count, digest in reads
        )

    def op(self, i: int) -> bool:
        write = self.engine.submit(self.plan[i])
        reads = [self.engine.read(self._read).result() for _ in range(READS_PER_WRITE)]
        write.result()
        return self._reads_ok(reads, i)

    def traced_op(self, i: int, tr) -> bool:
        with tr.span("op"):
            done = []
            submitted = time.perf_counter()
            write = self.engine.submit(self.plan[i])
            write.add_done_callback(lambda _: done.append(time.perf_counter()))
            reads = []
            for _ in range(READS_PER_WRITE):
                with tr.span("serving.read"):
                    reads.append(self.engine.read(self._read).result())
            with tr.span("serving.wait_write"):
                write.result()
            tr.add("serving.commit", submitted, done[0] if done else time.perf_counter())
        return self._reads_ok(reads, i)

    def probes(self, tr) -> dict:
        from repro.incremental import IncrementalQueryEngine

        commits = sorted(tr.durations("serving.commit"))
        reads = sorted(tr.durations("serving.read"))
        metrics = self.engine.metrics()
        out = {
            "serving.commit_p50_s": median(commits),
            "serving.commit_p90_s": commits[int(0.9 * (len(commits) - 1))],
            "serving.read_p50_s": median(reads),
            "serving.read_p99_s": reads[int(0.99 * (len(reads) - 1))],
            "serving.epoch_lag_max": metrics["epoch_spread"]["max"],
            "serving.reads_shed": metrics["admission"]["reads_shed"],
            "serving.writes_shed": metrics["admission"]["writes_shed"],
        }
        # The same batches applied serially, no broker, no reader threads.
        with IncrementalQueryEngine(self.query) as engine:
            with tr.span("incremental.materialize"):
                engine.execute(fresh_database(self.db))
            out["incremental.materialize_s"] = tr.durations("incremental.materialize")[-1]
            batches = self.plan[:SERIAL_BATCHES]
            for batch in batches:
                for name, (inserts, deletes) in sorted(batch.items()):
                    engine.insert(name, inserts)
                    engine.delete(name, deletes)
                with tr.span("incremental.refresh"):
                    result = engine.refresh()
            if not matches(decoded(result.relation), self.epochs[len(batches)]):
                raise AssertionError("serial IVM view differs from the oracle's")
            refreshes = tr.durations("incremental.refresh")
            out["incremental.refresh_p50_s"] = median(refreshes)
            out["incremental.refresh_max_s"] = max(refreshes)
            stats = engine.stats
            out["incremental.join_terms"] = stats.join_terms
            out["incremental.delta_rows"] = stats.delta_rows
            out["incremental.compactions"] = stats.compactions
            out["incremental.replans"] = stats.replans
            out["incremental.recompute_s"], _ = timed(
                tr, "incremental.recompute", engine.recompute, samples=1
            )
        out["serving.broker_overhead_s"] = (
            out["serving.commit_p50_s"] - out["incremental.refresh_p50_s"]
        )
        return out


# -- 5. tc_fixpoint ------------------------------------------------------------------


class TcFixpoint(Workload):
    ops = 2

    def setup(self) -> None:
        from repro.datalog import DatalogEngine, parse_program
        from repro.relational.io import load_database_dir

        self.db = load_database_dir(self.inputs / "csv")
        self.engine = DatalogEngine(parse_program((self.inputs / "program.dl").read_text()))

    def cold(self) -> bool:
        return matches(decoded(self.engine.execute(self.db)["path"]), self.answer)

    def op(self, i: int) -> bool:
        return matches(decoded(self.engine.recompute()["path"]), self.answer)

    def traced_op(self, i: int, tr) -> bool:
        with tr.span("op"):
            with tr.span("datalog.recompute"):
                result = self.engine.recompute()
            return traced_matches(tr, result["path"], self.answer)

    def probes(self, tr) -> dict:
        from dataclasses import asdict

        before = asdict(self.engine.stats)
        with tr.span("datalog.recompute"):
            self.engine.recompute()
        stats = {
            key: value - before[key]
            for key, value in asdict(self.engine.stats).items()
            if isinstance(value, int)
        }
        out = {
            "datalog.round_s": tr.p50("datalog.recompute") / max(1, stats["rounds"]),
            "datalog.rounds": stats["rounds"],
            "datalog.delta_terms": stats["delta_terms"],
            "datalog.derived_rows": stats["derived_rows"],
            "datalog.replans": stats["replans"],
        }
        # The IVM use of the same engine: insert-only batches continue the fixpoint.
        for batch, answer in zip(load_batches(self.inputs / "bridges"), self.meta["bridged"]):
            inserts, _ = batch["edge"]
            self.engine.insert("edge", inserts)
            with tr.span("datalog.continue"):
                result = self.engine.refresh()
            if not matches(decoded(result["path"]), answer):
                raise AssertionError("continued fixpoint differs from the oracle's closure")
        out["datalog.continue_p50_s"] = tr.p50("datalog.continue")
        return out


# -- 6. ingest_csv -------------------------------------------------------------------


class IngestCsv(Workload):
    ops = 3

    def setup(self) -> None:
        import repro.relational.storage  # noqa: F401  (the import is the set-up)

        self.tuples = 3 * self.meta["tuples"]
        self.target = self.scratch("db")

    def _check(self, database) -> bool:
        return sum(len(relation) for relation in database) == self.tuples

    def op(self, i: int) -> bool:
        from repro.relational.io import load_database_dir
        from repro.relational.storage import open_database_dir, save_database_dir

        shutil.rmtree(self.target, ignore_errors=True)
        database = load_database_dir(self.inputs / "csv")
        save_database_dir(database, self.target)
        return self._check(open_database_dir(self.target))

    def traced_op(self, i: int, tr) -> bool:
        from repro.datalog import parse_query
        from repro.relational import generic_join
        from repro.relational.io import load_database_dir
        from repro.relational.storage import open_database_dir, save_database_dir

        shutil.rmtree(self.target, ignore_errors=True)
        with tr.span("op"):
            with tr.span("relational.io.csv_load"):
                database = load_database_dir(self.inputs / "csv")
            with tr.span("relational.storage.save"):
                save_database_dir(database, self.target)
            with tr.span("relational.storage.open"):
                reopened = open_database_dir(self.target)
        # Reopened relations must also answer the query the CSVs answer.
        query = parse_query(self.meta["query"])
        joined = generic_join([atom.bind(reopened) for atom in query.body])
        return self._check(reopened) and matches(decoded(joined), self.answer)

    def probes(self, tr) -> dict:
        stored = sum(f.stat().st_size for f in self.target.rglob("*") if f.is_file())
        return {
            "relational.io.csv_load_s": tr.p50("relational.io.csv_load"),
            "relational.storage.save_s": tr.p50("relational.storage.save"),
            "relational.storage.open_s": tr.p50("relational.storage.open"),
            "relational.storage.bytes_per_tuple": stored / self.tuples,
        }


# -- 7. pool_mmap --------------------------------------------------------------------


class PoolMmap(Workload):
    ops = 6

    def setup(self) -> None:
        from repro.datalog import parse_query
        from repro.parallel import ParallelQueryEngine
        from repro.relational.io import load_database_dir
        from repro.relational.storage import open_database_dir, save_database_dir

        self.query = parse_query(self.meta["query"])
        self.store = self.scratch("db")
        save_database_dir(load_database_dir(self.inputs / "csv"), self.store)
        self.db = open_database_dir(self.store)
        self.engine = ParallelQueryEngine(self.query, workers=WORKERS)

    def op(self, i: int) -> bool:
        result = self.engine.execute(self.db, "generic")
        return matches(decoded(result.relation), self.answer)

    def traced_op(self, i: int, tr) -> bool:
        with tr.span("op"):
            with tr.span("parallel.execute"):
                result = self.engine.execute(self.db, "generic")
            return traced_matches(tr, result.relation, self.answer)

    def probes(self, tr) -> dict:
        from repro.parallel import ParallelQueryEngine
        from repro.parallel.partition import ShardTable, plan_shards, slice_bounds
        from repro.relational import generic_join
        from repro.relational.storage import open_database_dir

        out = {"relational.decode_s": tr.p50("relational.decode")}
        shipping = self.engine.shipping_stats
        out["parallel.ship_column_bytes"] = shipping["column_bytes"]
        out["parallel.ship_file_refs"] = shipping["file_refs"]
        pooled = tr.p50("parallel.execute")
        out["parallel.pool_spawn_s"] = tr.durations("cold")[-1] - tr.p50("op")

        order = tuple(sorted(self.query.variable_set))
        relations = [atom.bind(self.db) for atom in self.query.body]
        tables = [
            ShardTable(attrs, relation.column_set(attrs))
            for relation in relations
            for attrs in [tuple(v for v in order if v in relation.attributes)]
        ]
        target = WORKERS * ParallelQueryEngine.OVERSHARD
        out["parallel.shard_plan_s"], specs = timed(
            tr, "parallel.shard_plan", lambda: plan_shards(tables, order, target)
        )
        out["parallel.shards"] = len(specs)
        # Each shard joined on its own: the largest one sets the pooled time.
        sizes = []
        for spec in specs:
            ranges = [slice_bounds(table, order, spec) for table in tables]
            with tr.span("parallel.shard_join"):
                sizes.append(len(generic_join(relations, order, root_ranges=ranges)))
        if sum(sizes) != self.answer["rows"]:
            raise AssertionError(f"shards emit {sum(sizes)} rows, oracle {self.answer['rows']}")
        out["parallel.shard_skew"] = max(sizes) / (sum(sizes) / len(sizes))
        with ParallelQueryEngine(self.query, workers=1) as serial:
            database = open_database_dir(self.store)
            serial.execute(database, "generic")
            inline, _ = timed(
                tr, "parallel.execute_w1", lambda: serial.execute(database, "generic")
            )
        out["parallel.speedup_w2"] = inline / pooled
        return out


WORKLOADS = {
    "tri_wcoj": TriWcoj,
    "cyc4_panda": Cyc4Panda,
    "plan_cold": PlanCold,
    "serve_mixed": ServeMixed,
    "tc_fixpoint": TcFixpoint,
    "ingest_csv": IngestCsv,
    "pool_mmap": PoolMmap,
}
