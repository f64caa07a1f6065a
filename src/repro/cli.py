"""Command-line interface: ``python -m repro <command> ...``.

Seven commands expose the paper's pipeline on user queries and CSV data
(full per-command reference: ``docs/cli.md``):

* ``bound``  — output-size bounds (AGM / polymatroid / entropic-outer) of a
  query or disjunctive rule under declared constraints;
* ``widths`` — classical and degree-aware width parameters;
* ``proof``  — the Shannon-flow inequality behind the bound and a verified
  proof sequence for it;
* ``ingest`` — persist a directory of CSV relations as a *persisted
  database directory* (digest-named int64 column artifacts + dictionary
  files + manifest; see :mod:`repro.relational.storage`) for instant
  mmap-backed cold starts;
* ``run``    — evaluate a query (PANDA da-subw driver) or a disjunctive rule
  (PANDA) over a directory of CSV relations (``--data``) or a persisted
  database directory (``--data-dir``);
* ``datalog`` — evaluate a recursive (optionally stratified-negation)
  datalog program to fixpoint semi-naïvely (:mod:`repro.datalog.fixpoint`),
  with optional change feeds maintained through the affected strata only;
* ``serve``  — materialize a query once, then apply change-feed batches
  (``<relation>.changes.csv`` files with a ``+``/``-`` op column): with
  ``--apply-deltas`` the result is maintained incrementally
  (:mod:`repro.incremental`), otherwise each batch recomputes from scratch
  — run both to see what delta maintenance buys.

Constraint syntax, shared by all commands:

* ``--size R12=64``            cardinality ``|R12| <= 64``;
* ``--fd A1:A2``               functional dependency ``A1 -> A2``;
* ``--degree A1>A1,A2=3``      ``deg(A1A2 | A1) <= 3``.

Example::

    python -m repro bound "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)" \\
        --size R=64 --size S=64 --size T=64
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from repro.bounds import log_size_bound
from repro.core.constraints import (
    ConstraintSet,
    DegreeConstraint,
    cardinality,
    functional_dependency,
)
from repro.datalog import parse_query, parse_rule
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.exceptions import ReproError
from repro.core.query_plans import DRIVERS
from repro.relational.backend import resolve_backend

__all__ = ["main", "build_parser"]


def _add_constraint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--size", action="append", default=[], metavar="REL=N",
        help="cardinality constraint |REL| <= N (repeatable)",
    )
    parser.add_argument(
        "--fd", action="append", default=[], metavar="X:Y",
        help="functional dependency X -> Y; comma-separate variables",
    )
    parser.add_argument(
        "--degree", action="append", default=[], metavar="X>Y=N",
        help="degree constraint deg(Y|X) <= N; comma-separate variables",
    )


def _add_engine_args(
    parser: argparse.ArgumentParser, limit: bool = False, changes: bool = False
) -> None:
    """The argument block ``run``, ``datalog`` and ``serve`` share.

    ``limit`` adds ``--out``/``--limit`` (commands that print result rows),
    ``changes`` adds ``--changes`` (commands that apply change feeds).
    """
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--data", help="directory of CSV relations (header = schema)"
    )
    source.add_argument(
        "--data-dir", dest="data_dir",
        help="persisted database directory (see `repro ingest`): relations "
             "open as mmap-backed columns, no CSV parse, instant cold start",
    )
    if changes:
        parser.add_argument(
            "--changes",
            help="directory of <relation>.changes.csv feeds (header op,...; "
                 "rows '+,v1,v2' insert / '-,v1,v2' delete), one batch per "
                 "file, applied in sorted filename order",
        )
    if limit:
        parser.add_argument("--out", help="directory to write result CSVs")
        parser.add_argument(
            "--limit", type=_int_at_least(0), default=20,
            help="max rows to print per result relation without --out",
        )
    parser.add_argument(
        "--driver", default=None, choices=tuple(DRIVERS),
        help="execution strategy (results are bit-identical regardless; "
             "default generic, and dasubw for `run` at --workers 1)",
    )
    parser.add_argument(
        "--workers", type=_int_at_least(1), default=1, metavar="N",
        help="fan work out over N worker processes: range shards when "
             "evaluating or recomputing, delta-join terms when maintaining "
             "(results bit-identical to serial)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="report maintenance/fixpoint, plan-cache and tuple-level work "
             "totals (worker counts aggregated back into the parent)",
    )


def _int_at_least(low: int):
    """An argparse ``type``: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _split_vars(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _int_value(flag: str, item: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ReproError(
            f"{flag} {item}: size {value!r} is not an integer"
        ) from None


def _parse_constraints(args, query, targets) -> ConstraintSet:
    """The ``--size`` / ``--fd`` / ``--degree`` constraints on ``query``.

    Rejects constraints under which no target has a finite bound (no
    target inside :meth:`ConstraintSet.closure`), naming the variables the
    constraints leave unbounded; an empty ``targets`` skips the check.
    """
    constraints = []
    atoms_by_name = {atom.name: atom for atom in query.body}
    for item in args.size:
        name, _, value = item.partition("=")
        if name not in atoms_by_name:
            raise ReproError(f"--size {item}: no atom named {name!r}")
        constraints.append(
            cardinality(
                atoms_by_name[name].variables, _int_value("--size", item, value)
            )
        )
    for item in args.fd:
        left, _, right = item.partition(":")
        constraints.append(
            functional_dependency(_split_vars(left), _split_vars(right))
        )
    for item in args.degree:
        spec, _, value = item.partition("=")
        left, _, right = spec.partition(">")
        x = _split_vars(left)
        y = _split_vars(right)
        bound = _int_value("--degree", item, value)
        constraints.append(
            DegreeConstraint.make(x, tuple(sorted(set(x) | set(y))), bound)
        )
    constraint_set = ConstraintSet(constraints)
    closure = constraint_set.closure()
    if targets and not any(target <= closure for target in targets):
        unbounded = sorted(frozenset().union(*targets) - closure)
        raise ReproError(
            f"the bound is infinite: no --size, --fd or --degree constraint "
            f"bounds {', '.join(unbounded)}"
        )
    return constraint_set


def _parse_statement(text: str):
    """A CQ or a disjunctive rule, depending on the head."""
    if "|" in text.split(":-")[0]:
        return parse_rule(text)
    return parse_query(text)


def _targets_of(statement) -> list[frozenset]:
    if isinstance(statement, ConjunctiveQuery):
        if statement.is_boolean or statement.is_full:
            return [frozenset(statement.variable_set)]
        return [frozenset(statement.head)]
    return list(statement.targets)


def _log2_display(value: Fraction) -> str:
    """Render ``2^value``, showing the decimal log2 with the exact fraction.

    A raw ``2^1079882313/81269242`` reads like ``(2^1079882313)/81269242``
    and hides the magnitude; print the decimal exponent and parenthesize the
    exact rational (omitted when it already is an integer).  Exponents at or
    beyond the IEEE-double range (``2^1024`` overflows, as do wide joins
    over big declared cardinalities) keep the ``2^x`` form — the power is
    never materialized as a float.
    """
    if value.denominator == 1:
        head = f"2^{value.numerator}"
    else:
        try:
            head = f"2^{float(value):.6f} (= 2^({value}))"
        except OverflowError:
            # The *exponent* itself exceeds float range; exact form only.
            return f"2^({value})"
    if value >= 1024:
        return head
    return f"{head} = {2.0 ** float(value):,.0f}"


def cmd_bound(args) -> int:
    statement = _parse_statement(args.statement)
    targets = _targets_of(statement)
    constraints = _parse_constraints(args, statement, targets)
    variables = tuple(sorted(statement.variable_set))
    bound = log_size_bound(variables, targets, constraints)
    print(f"statement:        {statement}")
    print(f"variables:        {', '.join(variables)}")
    print(f"polymatroid bound (log2): {bound.log_value}")
    print(f"output size bound:        {_log2_display(bound.log_value)}")
    if args.entropic:
        from repro.bounds.entropic import entropic_outer_bound

        outer = entropic_outer_bound(variables, targets, constraints)
        print(f"entropic outer bound (ZY, log2): {outer.log_value}")
        if outer.log_value < bound.log_value:
            print("  -> polymatroid bound is NOT tight here (Theorem 1.3 regime)")
    return 0


def cmd_widths(args) -> int:
    from repro.widths import (
        degree_aware_fhtw,
        degree_aware_subw,
        fractional_hypertree_width,
        generalized_hypertree_width,
        submodular_width,
        treewidth,
    )

    statement = parse_query(args.statement)
    # Degree-aware widths run only under declared constraints; then every
    # variable sits in some bag, so each one needs a finite bound.
    declared = args.size or args.fd or args.degree
    constraints = _parse_constraints(
        args, statement, [frozenset(statement.variable_set)] if declared else []
    )
    hypergraph = statement.hypergraph()
    print(f"query:   {statement}")
    print(f"tw + 1:  {treewidth(hypergraph) + 1}")
    print(f"ghtw:    {generalized_hypertree_width(hypergraph)}")
    print(f"fhtw:    {fractional_hypertree_width(hypergraph)}")
    print(f"subw:    {submodular_width(hypergraph)}")
    if len(constraints) > 0:
        print(f"da-fhtw: {degree_aware_fhtw(hypergraph, constraints)}  (log2 units)")
        print(f"da-subw: {degree_aware_subw(hypergraph, constraints)}  (log2 units)")
    return 0


def cmd_proof(args) -> int:
    from repro.flows import construct_proof_sequence, flow_from_bound

    statement = _parse_statement(args.statement)
    targets = _targets_of(statement)
    constraints = _parse_constraints(args, statement, targets)
    variables = tuple(sorted(statement.variable_set))
    bound = log_size_bound(variables, targets, constraints)
    ineq, witness, _ = flow_from_bound(bound)

    def fmt(s):
        return "{" + ",".join(sorted(s)) + "}" if s else "∅"

    lam = " + ".join(
        f"{w}·h({fmt(b)})"
        for b, w in sorted(ineq.lam.items(), key=lambda kv: sorted(kv[0]))
    )
    delta = " + ".join(
        f"{w}·h({fmt(y)}|{fmt(x)})"
        for (x, y), w in sorted(
            ineq.delta.items(), key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1]))
        )
    )
    print(f"bound (log2):   {bound.log_value}")
    print(f"Shannon-flow inequality:  {lam}  <=  {delta}")
    sequence = construct_proof_sequence(ineq, witness)
    sequence.verify(ineq)
    print(f"proof sequence ({len(sequence)} steps, verified):")
    for ws in sequence:
        print(f"  {ws}")
    return 0


def _load_database(args):
    """The statement's database: CSV directory or persisted directory.

    ``--data`` streams CSV relations onto the heap; ``--data-dir`` opens a
    persisted database directory with mmap-backed columns and lazy
    dictionaries (cold start touches metadata only).
    """
    if getattr(args, "data_dir", None):
        from repro.relational.storage import open_database_dir

        return open_database_dir(args.data_dir)
    from repro.relational.io import load_database_dir

    return load_database_dir(args.data)


def cmd_ingest(args) -> int:
    from repro.relational.io import load_database_dir
    from repro.relational.storage import save_database_dir

    database = load_database_dir(args.data)
    save_database_dir(database, args.out)
    total = 0
    for relation in sorted(database, key=lambda r: r.name):
        digest = relation.column_set(relation.schema).content_digest()
        print(
            f"  {relation.name}{relation.schema}: {len(relation)} tuples "
            f"-> {digest[:12]}..."
        )
        total += len(relation)
    print(f"ingested {total} tuples into {args.out}")
    return 0


def _print_rows(relation, limit: int) -> None:
    for row in sorted(relation, key=repr)[:limit]:
        print("  " + ", ".join(map(str, row)))
    if len(relation) > limit:
        print(f"  ... ({len(relation) - limit} more)")


def _print_stats(maintenance=None, cache=None, counter=None, faq=False, note="") -> None:
    """The ``--stats`` tail: maintenance counters, plan cache, tuple-level work."""
    if maintenance is not None:
        print(
            f"maintenance: {maintenance.batches} batch(es), "
            f"{maintenance.join_terms} delta term(s), "
            f"{maintenance.delta_rows} delta row(s), "
            f"{maintenance.compactions} compaction(s)"
            + (f", {maintenance.faq_recomputes} FAQ recompute(s)" if faq else "")
        )
    if cache is not None:
        print(f"plan cache: {cache}")
    if counter is not None:
        print(
            f"work: {counter.tuples_scanned} scanned, "
            f"{counter.tuples_emitted} emitted ({counter.total} total{note})"
        )


def _describe(statement, result) -> str:
    """The one-line size of a query result: Boolean answer or row count."""
    if statement.is_boolean:
        return f"{result.boolean}"
    return f"{len(result.relation)} rows"


def _timed(call, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    return result, time.perf_counter() - start


def _materialize(engine, statement, database, driver, note="") -> None:
    """The first ``execute`` of a served query, timed and announced."""
    result, seconds = _timed(engine.execute, database, driver=driver)
    print(
        f"materialized {statement.name}: {_describe(statement, result)} "
        f"({seconds:.3f}s, driver {driver}{note})"
    )


def _align_feed(relation, feed_schema, rows):
    """Realign change-feed rows onto the relation's schema by column name.

    A feed whose header merely permutes the relation's attributes is
    accepted (values are reassigned by name); anything else — missing,
    extra, or renamed columns — is an error rather than a silent positional
    misassignment.
    """
    feed_schema = tuple(feed_schema)
    if feed_schema == relation.schema:
        return rows
    if sorted(feed_schema) != sorted(relation.schema):
        raise ReproError(
            f"change feed columns {feed_schema} do not match relation "
            f"{relation.name}{relation.schema}"
        )
    positions = tuple(feed_schema.index(a) for a in relation.schema)
    return [tuple(row[p] for p in positions) for row in rows]


def _aligned_feeds(args, relation_of):
    """The ``--changes`` batches, realigned onto their relations' schemas.

    Batches stream one file at a time (a long feed never materializes up
    front).  Yields ``(label, name, inserts, deletes)`` with ``label`` the
    ``batch N [name +i/-d]`` prefix every arm prints.
    """
    from repro.relational.io import iter_change_feed

    feeds = iter_change_feed(args.changes) if args.changes else ()
    for index, (name, schema, inserts, deletes) in enumerate(feeds):
        relation = relation_of(name)
        yield (
            f"batch {index} [{name} +{len(inserts)}/-{len(deletes)}]",
            name,
            _align_feed(relation, schema, inserts),
            _align_feed(relation, schema, deletes),
        )


def _atom_relation(statement, current):
    """``relation_of`` for feeds that must name one of the query's atoms."""
    atoms = {atom.name for atom in statement.body}

    def relation_of(name):
        if name not in atoms:
            raise ReproError(f"change feed {name!r} does not match a query atom")
        return current(name)

    return relation_of


def cmd_run(args) -> int:
    from pathlib import Path

    from repro.core.panda import panda
    from repro.core.query_plans import proper_query_plan
    from repro.datalog.rule import DisjunctiveRule
    from repro.planner import Planner, QueryEngine
    from repro.relational.io import save_relation_csv
    from repro.relational.operators import scoped_work_counter

    statement = _parse_statement(args.statement)
    database = _load_database(args)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    planner = Planner()
    disjunctive = isinstance(statement, DisjunctiveRule)

    conjunctive = not disjunctive and (statement.is_full or statement.is_boolean)
    parallel = args.workers > 1 or args.driver is not None
    if parallel and not conjunctive:
        print(
            "note: --workers/--driver apply to full/Boolean conjunctive "
            "queries; running this statement serially",
            file=sys.stderr,
        )
        parallel = False

    with scoped_work_counter() as counter:
        if disjunctive:
            result = panda(statement, database, planner=planner)
        elif conjunctive:
            default = "generic" if args.workers > 1 else "dasubw"
            with QueryEngine(
                statement, planner=planner, workers=args.workers
            ) as engine:
                plan = engine.execute(database, driver=args.driver or default)
        else:
            plan = proper_query_plan(statement, database, planner=planner)

    if disjunctive:
        print(f"PANDA: budget 2^OBJ = {result.budget:,.0f}, "
              f"max intermediate {result.stats.max_intermediate}, "
              f"{result.stats.restarts} restart(s)")
        for table in result.model.tables:
            print(f"  {table.name}: {len(table)} tuples")
            if out_dir:
                save_relation_csv(table, out_dir / f"{table.name}.csv")
    elif statement.is_boolean:
        print(f"{statement.name}: {plan.boolean}")
    else:
        print(f"{statement.name}: {len(plan.relation)} tuples "
              f"({len(plan.panda_runs)} PANDA run(s))")
        if out_dir:
            save_relation_csv(plan.relation, out_dir / f"{statement.name}.csv")
            print(f"written to {out_dir / (statement.name + '.csv')}")
        else:
            _print_rows(plan.relation, args.limit)
    if args.stats:
        _print_stats(
            cache=f"{planner.stats} ({len(planner.cache)} plan(s) cached)",
            counter=counter,
            note=f", {args.workers} worker(s)" if parallel else "",
        )
    return 0


def cmd_datalog(args) -> int:
    from pathlib import Path

    from repro.datalog.engine import DatalogEngine
    from repro.datalog.parser import load_program
    from repro.relational.io import save_relation_csv
    from repro.relational.operators import scoped_work_counter

    program = load_program(args.program)
    database = _load_database(args)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    driver = args.driver or "generic"

    def describe(result) -> None:
        for name in result.names:
            print(f"  {name}: {len(result[name])} tuples")

    with scoped_work_counter() as counter, DatalogEngine(
        program, workers=args.workers
    ) as engine:
        recursive = sum(1 for stratum in engine.strata if stratum.recursive)
        print(
            f"{len(program.rules)} rule(s), {len(engine.strata)} "
            f"stratum(-a) ({recursive} recursive)"
        )
        result, seconds = _timed(engine.execute, database, driver=driver)
        print(
            f"fixpoint in {seconds:.3f}s "
            f"({engine.stats.rounds} delta round(s), driver {driver})"
        )
        describe(result)
        for label, name, inserts, deletes in _aligned_feeds(args, engine.relation):
            engine.insert(name, inserts)
            engine.delete(name, deletes)
            result, seconds = _timed(engine.refresh, driver=driver)
            print(f"{label}: maintained in {seconds:.3f}s")
            describe(result)
        if out_dir:
            for name in result.names:
                save_relation_csv(result[name], out_dir / f"{name}.csv")
            print(f"written to {out_dir}")
        else:
            for name in result.names:
                print(f"{name}:")
                _print_rows(result[name], args.limit)
        if args.stats:
            s = engine.stats
            print(
                f"fixpoint: {s.strata} stratum run(s), {s.rounds} round(s), "
                f"{s.full_evaluations} full join(s), {s.delta_terms} delta "
                f"term(s), {s.derived_rows} derived row(s), "
                f"{s.continuations} continuation(s), "
                f"{s.recomputes} recompute(s), {s.compactions} compaction(s)"
            )
            _print_stats(cache=engine.cache_stats, counter=counter)
    return 0


def _serve_concurrent(args, statement, database, driver) -> int:
    """The ``serve --concurrent`` arm: mixed read/write traffic via the broker.

    Each change-feed batch becomes one write; around every write the loop
    issues ``reads_per_write`` snapshot reads (a 90/10 read-heavy mix).
    Writes that hit backpressure retry after the advertised delay; shed
    reads are dropped (and counted in the metrics) like a real client
    racing admission control.
    """
    from repro.exceptions import OverloadError
    from repro.serving import ServingEngine

    reads_per_write = 9  # 90/10 read/write mix

    with ServingEngine(
        statement, readers=args.readers, workers=args.workers
    ) as engine:
        _materialize(
            engine, statement, database, driver,
            note=f", {engine.readers} reader(s) + 1 writer",
        )
        writes = []
        reads = []
        serve_start = time.perf_counter()
        for label, name, inserts, deletes in _aligned_feeds(
            args, _atom_relation(statement, database.__getitem__)
        ):
            while True:
                try:
                    future = engine.submit({name: (inserts, deletes)})
                    break
                except OverloadError as overload:
                    time.sleep(overload.retry_after)
            writes.append((label, future))
            for _ in range(reads_per_write):
                try:
                    reads.append(engine.read())
                except OverloadError:
                    pass  # shed reads are counted in the metrics
        for label, future in writes:
            receipt = future.result()
            print(
                f"{label}: epoch {receipt.epoch} committed in "
                f"{receipt.latency:.3f}s"
            )
        for future in reads:
            future.result()
        elapsed = time.perf_counter() - serve_start
        final = engine.read().result()
        print(
            f"served {statement.name}: {_describe(statement, final)} at epoch "
            f"{engine.current_epoch} ({len(writes)} batch(es), "
            f"{len(reads) + 1} read(s))"
        )
        if args.stats:
            metrics = engine.metrics()
            latency = metrics["read_latency"]
            spread = metrics["epoch_spread"]
            admission = metrics["admission"]
            rate = len(writes) / elapsed if elapsed > 0 else 0.0
            print(
                f"reads: {latency['count']} served "
                f"({admission['reads_shed']} shed), "
                f"p50 {latency['p50'] * 1000:.1f}ms, "
                f"p99 {latency['p99'] * 1000:.1f}ms, "
                f"max {latency['max'] * 1000:.1f}ms"
            )
            print(
                f"writes: {len(writes)} batch(es) in {elapsed:.3f}s "
                f"({rate:.1f} batches/s sustained, "
                f"{admission['writes_shed']} shed)"
            )
            print(
                f"snapshot epochs: spread mean {spread['mean']:.2f}, "
                f"max {spread['max']:.0f} (current {engine.current_epoch})"
            )
            _print_stats(maintenance=engine.stats, cache=engine.cache_stats)
    return 0


def cmd_serve(args) -> int:
    from repro.incremental import SignedDelta, VersionedRelation
    from repro.relational.operators import scoped_work_counter

    statement = parse_query(args.statement)
    if not (statement.is_full or statement.is_boolean):
        raise ReproError(
            "serve maintains full/Boolean conjunctive queries; "
            "project the full result instead"
        )
    database = _load_database(args)
    driver = args.driver or "generic"
    if args.concurrent:
        return _serve_concurrent(args, statement, database, driver)
    if args.apply_deltas:
        from repro.incremental import IncrementalQueryEngine as Engine
    else:
        from repro.planner import QueryEngine as Engine

    with scoped_work_counter() as counter:
        with Engine(statement, workers=args.workers) as engine:
            _materialize(engine, statement, database, driver)
            if args.apply_deltas:
                verb = "maintained"
                current = engine.relation

                def apply(name, inserts, deletes):
                    engine.insert(name, inserts)
                    engine.delete(name, deletes)
                    return _timed(engine.refresh, driver=driver)

            else:
                versioned = {
                    atom.name: VersionedRelation(database[atom.name])
                    for atom in statement.body
                }
                verb = "recomputed"

                def current(name):
                    return versioned[name].current

                def apply(name, inserts, deletes):
                    nonlocal database
                    log = versioned[name]
                    log.apply(SignedDelta.from_changes(log.current, inserts, deletes))
                    database = database.updated([log.current])
                    return _timed(engine.execute, database, driver=driver)

            for label, name, inserts, deletes in _aligned_feeds(
                args, _atom_relation(statement, current)
            ):
                result, seconds = apply(name, inserts, deletes)
                print(
                    f"{label}: {_describe(statement, result)} {verb} in "
                    f"{seconds:.3f}s"
                )
            if args.stats and args.apply_deltas:
                _print_stats(
                    maintenance=engine.stats, cache=engine.cache_stats, faq=True
                )
        if args.stats:
            _print_stats(counter=counter)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PANDA & friends: size bounds, widths, proof sequences, "
                    "and query evaluation (PODS 2017 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="output-size bounds of a query/rule")
    p_bound.add_argument("statement", help="CQ or disjunctive rule text")
    _add_constraint_args(p_bound)
    p_bound.add_argument(
        "--entropic", action="store_true",
        help="also compute the Zhang-Yeung entropic outer bound",
    )
    p_bound.set_defaults(func=cmd_bound)

    p_widths = sub.add_parser("widths", help="width parameters of a query")
    p_widths.add_argument("statement", help="CQ text")
    _add_constraint_args(p_widths)
    p_widths.set_defaults(func=cmd_widths)

    p_proof = sub.add_parser(
        "proof", help="Shannon-flow inequality + proof sequence for the bound"
    )
    p_proof.add_argument("statement", help="CQ or disjunctive rule text")
    _add_constraint_args(p_proof)
    p_proof.set_defaults(func=cmd_proof)

    p_ingest = sub.add_parser(
        "ingest",
        help="persist a CSV directory as a database directory (digest-named "
             "column artifacts + manifest) for instant mmap cold starts",
    )
    p_ingest.add_argument("--data", required=True,
                          help="directory of CSV relations (header = schema)")
    p_ingest.add_argument("--out", required=True,
                          help="persisted database directory to write")
    p_ingest.set_defaults(func=cmd_ingest)

    p_run = sub.add_parser("run", help="evaluate a query/rule over CSV data")
    p_run.add_argument("statement", help="CQ or disjunctive rule text")
    _add_engine_args(p_run, limit=True)
    p_run.set_defaults(func=cmd_run)

    p_datalog = sub.add_parser(
        "datalog",
        help="evaluate a recursive datalog program to fixpoint "
             "(semi-naïve; change feeds maintain only affected strata)",
    )
    p_datalog.add_argument(
        "--program", required=True,
        help="program file: '.'-separated rules with '#'/'%%' line comments "
             "and '!'/'not' stratified negation (see docs/datalog.md)",
    )
    _add_engine_args(p_datalog, limit=True, changes=True)
    p_datalog.set_defaults(func=cmd_datalog)

    p_serve = sub.add_parser(
        "serve",
        help="materialize a query, then apply change-feed batches "
             "(incrementally with --apply-deltas, else recomputing)",
    )
    p_serve.add_argument("statement", help="full/Boolean CQ text")
    _add_engine_args(p_serve, changes=True)
    p_serve.add_argument(
        "--apply-deltas", action="store_true",
        help="maintain the materialized result by delta joins instead of "
             "recomputing each batch from scratch (bit-identical results)",
    )
    p_serve.add_argument(
        "--concurrent", action="store_true",
        help="serve a mixed read/write workload concurrently: one writer "
             "thread maintains the view through the IVM path while "
             "--readers threads answer snapshot-pinned reads (MVCC: every "
             "read is bit-identical to a frozen copy at its pinned epoch); "
             "--stats reports p50/p99 read latency, sustained batches/sec, "
             "and snapshot-epoch spread",
    )
    p_serve.add_argument(
        "--readers", type=_int_at_least(1), default=4, metavar="N",
        help="reader threads for --concurrent (default 4)",
    )
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A bad REPRO_BACKEND fails every subcommand up front, not only
        # those whose inputs grow past the vectorize gate.
        resolve_backend(None)
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away; exit quietly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
