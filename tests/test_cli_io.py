"""Tests for the CSV I/O layer and the ``python -m repro`` CLI."""

import csv
import random

import pytest

from _helpers import stable_seed

from repro.cli import main
from repro.exceptions import ReproError, SchemaError
from repro.relational import Database, Relation
from repro.relational.io import (
    load_database_dir,
    load_relation_csv,
    save_relation_csv,
)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def cycle_dir(tmp_path):
    edges = [
        ("R12", ("A1", "A2")),
        ("R23", ("A2", "A3")),
        ("R34", ("A3", "A4")),
        ("R41", ("A4", "A1")),
    ]
    import random

    rng = random.Random(1)
    for name, header in edges:
        rows = [(rng.randrange(4), rng.randrange(4)) for _ in range(12)]
        write_csv(tmp_path / f"{name}.csv", header, rows)
    return tmp_path


class TestCsvIO:
    def test_roundtrip(self, tmp_path):
        rel = Relation("R", ("A", "B"), [(1, 2), (3, 4)])
        save_relation_csv(rel, tmp_path / "R.csv")
        back = load_relation_csv(tmp_path / "R.csv")
        assert back == rel
        assert back.name == "R"

    def test_integer_coercion_per_column(self, tmp_path):
        write_csv(tmp_path / "M.csv", ("A", "B"), [(1, "x"), (2, "y")])
        rel = load_relation_csv(tmp_path / "M.csv")
        assert (1, "x") in rel
        assert (2, "y") in rel

    def test_mixed_column_stays_text(self, tmp_path):
        write_csv(tmp_path / "M.csv", ("A",), [("1",), ("x",)])
        rel = load_relation_csv(tmp_path / "M.csv")
        assert ("1",) in rel  # not coerced: column has a non-integer

    def test_empty_file_rejected(self, tmp_path):
        (tmp_path / "E.csv").write_text("")
        with pytest.raises(SchemaError):
            load_relation_csv(tmp_path / "E.csv")

    def test_ragged_rows_rejected(self, tmp_path):
        (tmp_path / "B.csv").write_text("A,B\n1\n")
        with pytest.raises(SchemaError):
            load_relation_csv(tmp_path / "B.csv")

    def test_load_database_dir(self, cycle_dir):
        db = load_database_dir(cycle_dir)
        assert sorted(db.names()) == ["R12", "R23", "R34", "R41"]

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            load_database_dir(tmp_path)


def reference_ints(cells):
    """``cells`` as ints when each is the canonical text of one, else as is."""
    try:
        values = [int(cell) for cell in cells]
    except ValueError:
        return list(cells)
    return values if all(str(v) == c for v, c in zip(values, cells)) else list(cells)


def reference_load(path, dictionaries):
    """The row-at-a-time loader ``load_relation_csv`` replaced: every cell is
    staged per row, each column's distinct cells are coerced (all or none),
    translated into ``dictionaries`` in first-appearance order, and the code
    rows re-tupled, deduplicated and sorted."""
    header, staging, code_rows = None, [], []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row:
                continue
            if header is None:
                header = tuple(column.strip() for column in row)
                staging = [{} for _ in header]
                continue
            code_rows.append(
                tuple(column.setdefault(cell, len(column)) for column, cell in zip(staging, row))
            )
    translations = []
    for dictionary, cells in zip(dictionaries, staging):
        values = reference_ints(list(cells))
        translations.append([dictionary.encode(value) for value in values])
    rows = {tuple(t[code] for t, code in zip(translations, row)) for row in code_rows}
    return header, sorted(rows)


def reference_feed(header, rows):
    """The row-wise change-feed split ``load_changes_csv`` replaced: each
    column coerced to ints all or none, rows re-tupled and routed by op."""
    columns = [reference_ints(cells) for cells in list(zip(*rows))[1:]]
    inserts, deletes = [], []
    for row, values in zip(rows, zip(*columns) if columns else [()] * len(rows)):
        (inserts if row[0] == "+" else deletes).append(values)
    return header[1:], inserts, deletes


class TestColumnarLoader:
    """``load_relation_csv`` encodes a column at a time; it must equal the
    row-wise reference in code rows, dictionary values and digest on both
    sides of the ``backend.vectorize`` gate."""

    @staticmethod
    def cell(rng, position):
        value = rng.randrange(-3, 40)
        if position == 0:  # "5" and "05" stay two text cells
            return f"{value:03d}" if value >= 0 and rng.random() < 0.3 else str(value)
        if position == 1:
            return f"v{value}"  # a text column
        if position == 2:
            return str(value)  # a canonical integer column
        return f" {value}" if rng.random() < 0.2 else str(value)

    @pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
    @pytest.mark.parametrize("arity", (1, 2, 3, 4))
    @pytest.mark.parametrize("nrows", (0, 255, 256, 257))
    def test_matches_row_wise_reference(self, tmp_path, backend, arity, nrows):
        from repro.relational.backend import scoped_backend
        from repro.relational.columns import ColumnSet, Dictionary

        rng = random.Random(stable_seed("loader", backend, arity, nrows))
        header = tuple(f"ld_{backend}_{arity}_{nrows}_{i}" for i in range(arity))
        lines = [",".join(header)]
        for _ in range(nrows):
            lines.append(",".join(self.cell(rng, i) for i in range(arity)))
            if rng.random() < 0.05:
                lines.append("")  # blank lines are skipped
        path = tmp_path / "R.csv"
        path.write_text("\n".join(lines) + "\n")
        references = [Dictionary(attr) for attr in header]
        for live, reference in zip((Dictionary.of(a) for a in header), references):
            live.encode(7), reference.encode(7)  # pre-interned values keep codes
        _, expected = reference_load(path, references)
        with scoped_backend(backend):
            relation = load_relation_csv(path)
            canonical = relation.column_set(header)
            digest = canonical.content_digest()
        assert relation.schema == header
        assert relation.code_rows == expected
        for attr, reference in zip(header, references):
            assert Dictionary.of(attr).values == reference.values
        assert digest == ColumnSet(header, expected, presorted=True).content_digest()

    @pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
    def test_padded_integers_stay_distinct_text(self, tmp_path, backend):
        from repro.relational.backend import scoped_backend
        from repro.relational.columns import Dictionary

        header = (f"pi_{backend}_A", f"pi_{backend}_B")
        cells = ["5", "05", " 5", "7"] * 70  # 280 rows: past the numpy gate
        write_csv(tmp_path / "P.csv", header, [(c, i % 3) for i, c in enumerate(cells)])
        with scoped_backend(backend):
            relation = load_relation_csv(tmp_path / "P.csv")
        assert sorted(Dictionary.of(header[0]).values) == [" 5", "05", "5", "7"]
        assert sorted(relation.tuples) == [
            (cell, b) for cell in (" 5", "05", "5", "7") for b in range(3)
        ]

    @pytest.mark.parametrize(
        "cells",
        (["01", "1"], ["1_0", "10"], [" 7", "7"], ["+7", "7"], ["-0", "0"]),
    )
    def test_non_canonical_integer_cells_never_merge(self, tmp_path, cells):
        header = ("nc_A",)
        write_csv(tmp_path / "N.csv", header, [(c,) for c in cells])
        assert sorted(load_relation_csv(tmp_path / "N.csv").tuples) == sorted(
            (c,) for c in cells
        )

    def test_canonical_integer_column_loads_as_ints(self, tmp_path):
        write_csv(tmp_path / "C.csv", ("ci_A",), [("-12",), ("0",), ("7",), ("-1",)])
        assert sorted(load_relation_csv(tmp_path / "C.csv").tuples) == [
            (-12,), (-1,), (0,), (7,)
        ]

    def test_ragged_row_names_first_offender(self, tmp_path):
        from repro.relational.columns import Dictionary

        (tmp_path / "B.csv").write_text("rr_A,rr_B\n1,2\n3\n4,5,6\n")
        with pytest.raises(SchemaError) as raised:
            load_relation_csv(tmp_path / "B.csv")
        assert str(raised.value) == (
            f"{tmp_path / 'B.csv'}:3: row ['3'] does not match header ('rr_A', 'rr_B')"
        )
        assert len(Dictionary.of("rr_A")) == 0

    def test_header_only_file_is_empty_and_interns_nothing(self, tmp_path):
        from repro.relational.columns import Dictionary

        (tmp_path / "H.csv").write_text("ho_A,ho_B\n\n")
        relation = load_relation_csv(tmp_path / "H.csv")
        assert relation.schema == ("ho_A", "ho_B") and len(relation) == 0
        assert len(Dictionary.of("ho_A")) == len(Dictionary.of("ho_B")) == 0

    def test_duplicate_header_interns_nothing(self, tmp_path):
        from repro.relational.columns import Dictionary

        before = len(Dictionary.of("dh_A"))
        (tmp_path / "D.csv").write_text("dh_A,dh_A\n1,2\n")
        with pytest.raises(SchemaError, match="duplicate attributes"):
            load_relation_csv(tmp_path / "D.csv")
        assert len(Dictionary.of("dh_A")) == before

    def test_feed_and_relation_coerce_alike(self, tmp_path):
        from repro.relational.io import load_changes_csv

        columns = {
            "canonical": ["5", "-3", "0", "17"],
            "padded": ["05", "5", " 5", "-3"],
            "mixed": ["1", "x", "05"],
        }
        for label, cells in columns.items():
            write_csv(tmp_path / f"{label}.csv", (f"co_{label}",), [(c,) for c in cells])
            write_csv(
                tmp_path / f"{label}.changes.csv",
                ("op", f"co_{label}"),
                [("+", c) for c in cells],
            )
            relation = load_relation_csv(tmp_path / f"{label}.csv")
            _, inserts, deletes = load_changes_csv(tmp_path / f"{label}.changes.csv")
            assert deletes == [] and relation.tuples == frozenset(inserts)
        assert sorted(load_relation_csv(tmp_path / "canonical.csv").tuples) == [
            (-3,), (0,), (5,), (17,)
        ]
        assert load_changes_csv(tmp_path / "padded.changes.csv")[1] == [
            ("05",), ("5",), (" 5",), ("-3",)
        ]
        assert load_changes_csv(tmp_path / "mixed.changes.csv")[1] == [("1",), ("x",), ("05",)]

    @pytest.mark.parametrize("width", (1, 3))
    @pytest.mark.parametrize("nrows", (0, 40))
    def test_feed_matches_row_wise_reference(self, tmp_path, width, nrows):
        from repro.relational.io import load_changes_csv

        rng = random.Random(stable_seed("feed", width, nrows))
        header = ("op",) + tuple(f"fd_{i}" for i in range(width))
        rows = [
            (rng.choice("+-"),) + tuple(self.cell(rng, i) for i in range(width))
            for _ in range(nrows)
        ]
        write_csv(tmp_path / "R.changes.csv", header, rows)
        assert load_changes_csv(tmp_path / "R.changes.csv") == reference_feed(header, rows)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("\n", "is empty"),
            ("A,B\n+,1,2\n", "must start with 'op'"),
            ("op,A\n+,1\n-,1,2\n", "does not match header"),
            ("op,A\n+,1\n*,2\n", "op column must be"),
        ],
    )
    def test_malformed_feed_rejected(self, tmp_path, text, message):
        from repro.relational.io import load_changes_csv

        (tmp_path / "R.changes.csv").write_text(text)
        with pytest.raises(SchemaError, match=message):
            load_changes_csv(tmp_path / "R.changes.csv")


class TestInputErrorsNameTheLine:
    """``repro datalog`` input errors name ``file:line``: the header is line
    1, blank lines count, and a rule's error names the line it starts on."""

    PROGRAM = "path(x,y) :- edge(x,y).\npath(x,z) :- edge(x,y), path(y,z).\n"

    def _error(self, tmp_path, capsys, data=None, feed=None, program=PROGRAM):
        (tmp_path / "d").mkdir()
        (tmp_path / "ch").mkdir()
        (tmp_path / "d" / "edge.csv").write_text(data or "A,B\n1,2\n2,3\n")
        (tmp_path / "ch" / "edge.changes.csv").write_text(feed or "op,A,B\n+,3,4\n")
        (tmp_path / "p.dl").write_text(program)
        code = main([
            "datalog", "--program", str(tmp_path / "p.dl"),
            "--data", str(tmp_path / "d"), "--changes", str(tmp_path / "ch"),
        ])
        assert code == 2
        return capsys.readouterr().err.strip()

    def test_short_csv_row(self, tmp_path, capsys):
        err = self._error(tmp_path, capsys, data="A,B\n1,2\n\n3\n")
        path = tmp_path / "d" / "edge.csv"
        assert err == f"error: {path}:4: row ['3'] does not match header ('A', 'B')"

    def test_short_feed_row(self, tmp_path, capsys):
        err = self._error(tmp_path, capsys, feed="op,A,B\n+,3,4\n+,5\n")
        path = tmp_path / "ch" / "edge.changes.csv"
        assert err == (
            f"error: {path}:3: row ['+', '5'] does not match header ('op', 'A', 'B')"
        )

    def test_bad_op_cell(self, tmp_path, capsys):
        err = self._error(tmp_path, capsys, feed="op,A,B\n+,3,4\n-,1,2\n*,5,6\n")
        path = tmp_path / "ch" / "edge.changes.csv"
        assert err == f"error: {path}:4: op column must be '+' or '-', got '*'"

    def test_garbled_program(self, tmp_path, capsys):
        program = "path(x,y) :- edge(x,y).\n# closure\npath(x,z) :-\n  edge(x,y), path(y,z.\n"
        err = self._error(tmp_path, capsys, program=program)
        path = tmp_path / "p.dl"
        assert err == f"error: {path}:3: unbalanced parentheses in 'edge(x,y), path(y,z'"

    def test_library_parse_names_the_line(self):
        from repro.datalog import parse_program
        from repro.exceptions import DatalogError

        with pytest.raises(DatalogError, match=r"^line 2: unsafe rule"):
            parse_program("p(x) :- e(x).\np(y) :- e(x).")


class TestLog2Display:
    """``_log2_display`` must never overflow materializing ``2^x``."""

    def test_small_integer_exponent_shows_size(self):
        from fractions import Fraction

        from repro.cli import _log2_display

        assert _log2_display(Fraction(10)) == "2^10 = 1,024"

    def test_small_fractional_exponent_shows_decimal_and_exact(self):
        from fractions import Fraction

        from repro.cli import _log2_display

        got = _log2_display(Fraction(7, 2))
        assert got.startswith("2^3.500000 (= 2^(7/2))")
        assert got.endswith("= 11")

    def test_huge_integer_exponent_keeps_symbolic_form(self):
        # Wide joins over big declared cardinalities: 2^2000 overflows an
        # IEEE double; the old code raised OverflowError here.
        from fractions import Fraction

        from repro.cli import _log2_display

        assert _log2_display(Fraction(2000)) == "2^2000"

    def test_huge_fractional_exponent_keeps_symbolic_form(self):
        from fractions import Fraction

        from repro.cli import _log2_display

        assert _log2_display(Fraction(4001, 2)) == "2^2000.500000 (= 2^(4001/2))"

    def test_exponent_beyond_float_range_keeps_exact_form(self):
        from fractions import Fraction

        from repro.cli import _log2_display

        huge = Fraction(10**400, 3)
        assert _log2_display(huge) == f"2^({huge})"

    def test_bound_command_survives_huge_bounds(self, capsys):
        # End to end: |R| = 2^2000 per relation pushes the triangle bound
        # to 2^3000 — far beyond float range, the command must still print.
        size = str(2**2000)
        rc = main([
            "bound", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
            "--size", f"R={size}", "--size", f"S={size}", "--size", f"T={size}",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2^3000" in out


class TestCliBound:
    def test_triangle_bound(self, capsys):
        rc = main([
            "bound", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
            "--size", "R=64", "--size", "S=64", "--size", "T=64",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "polymatroid bound (log2): 9" in out

    def test_degree_constraint_syntax(self, capsys):
        rc = main([
            "bound",
            "Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)",
            "--size", "R12=64", "--size", "R23=64",
            "--size", "R34=64", "--size", "R41=64",
            "--degree", "A1>A2=2", "--degree", "A2>A1=2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        # Example 1.2(b): D·N^{3/2} = 2^10.
        assert "(log2): 10" in out

    def test_fd_syntax(self, capsys):
        rc = main([
            "bound",
            "Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)",
            "--size", "R12=64", "--size", "R23=64",
            "--size", "R34=64", "--size", "R41=64",
            "--fd", "A1:A2", "--fd", "A2:A1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        # Example 1.2(c): N^{3/2} = 2^9.
        assert "(log2): 9" in out

    def test_unknown_relation_errors(self, capsys):
        rc = main([
            "bound", "Q(A,B) :- R(A,B)", "--size", "NOPE=4",
        ])
        assert rc == 2
        assert "no atom named" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, item",
        [("--size", "R=abc"), ("--size", "R"), ("--degree", "A>B=x")],
    )
    def test_non_integer_size_errors(self, capsys, flag, item):
        rc = main(["bound", "Q(A,B) :- R(A,B)", flag, item])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{flag} {item}:" in err and "not an integer" in err

    @pytest.mark.parametrize(
        "command, sizes, unbounded",
        [
            ("bound", ["--size", "R=10"], "C"),
            ("proof", ["--size", "R=10"], "C"),
            ("widths", ["--size", "R=10"], "C"),
            ("bound", [], "A, B, C"),
            ("bound", ["--size", "T=10", "--degree", "B>C=4"], "B"),
        ],
    )
    def test_unbounded_variables_named(self, capsys, command, sizes, unbounded):
        """Outside the closure of ∅ under the constraints the bound is
        infinite; the error names what is left uncovered, not LP internals."""
        rc = main([command, "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", *sizes])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "error: the bound is infinite: no --size, --fd or --degree "
            f"constraint bounds {unbounded}\n"
        )

    @pytest.mark.parametrize(
        "statement, constraints, log2",
        [
            # An FD chain closes what the cardinalities leave open.
            (
                "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
                ["--size", "R=64", "--fd", "B:C"],
                "6",
            ),
            # Only the head needs covering for a proper CQ.
            ("Q(A) :- R(A,B), S(B,C)", ["--size", "R=64"], "6"),
            # One covered target bounds a disjunctive rule.
            (
                "Q(A1,A2,A3) | Q2(A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4)",
                ["--size", "R12=16", "--size", "R23=16"],
                "8",
            ),
        ],
    )
    def test_closure_covered_bounds_are_finite(self, capsys, statement, constraints, log2):
        rc = main(["bound", statement, *constraints])
        assert rc == 0
        assert f"polymatroid bound (log2): {log2}\n" in capsys.readouterr().out

    def test_entropic_flag(self, capsys):
        rc = main([
            "bound", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
            "--size", "R=64", "--size", "S=64", "--size", "T=64",
            "--entropic",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "entropic outer bound" in out


class TestCliWidths:
    def test_four_cycle_widths(self, capsys):
        rc = main([
            "widths",
            "Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "subw:    3/2" in out
        assert "fhtw:    2" in out


class TestCliProof:
    def test_proof_sequence_printed(self, capsys):
        rc = main([
            "proof", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
            "--size", "R=64", "--size", "S=64", "--size", "T=64",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Shannon-flow inequality" in out
        assert "verified" in out


class TestCliRun:
    def test_boolean_query(self, cycle_dir, capsys):
        rc = main([
            "run",
            "Q() :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)",
            "--data", str(cycle_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.strip() in ("Q: True", "Q: False")

    def test_full_query_against_oracle(self, cycle_dir, capsys, tmp_path):
        from repro.datalog import parse_query

        out_dir = tmp_path / "out"
        rc = main([
            "run",
            "Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)",
            "--data", str(cycle_dir),
            "--out", str(out_dir),
        ])
        assert rc == 0
        produced = load_relation_csv(out_dir / "Q.csv")
        db = load_database_dir(cycle_dir)
        oracle = parse_query(
            "Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)"
        ).evaluate_naive(db)
        assert produced == oracle

    @pytest.mark.parametrize("command", ["run", "datalog"])
    @pytest.mark.parametrize("limit", ["-1", "x"])
    def test_bad_limit_rejected_at_parse_time(self, tmp_path, capsys, command, limit):
        write_csv(tmp_path / "R.csv", ("A", "B"), [(1, 2), (3, 4)])
        (tmp_path / "q.dl").write_text("Q(A,B) :- R(A,B).\n")
        program = {"run": ["Q(A,B) :- R(A,B)"], "datalog": ["--program", str(tmp_path / "q.dl")]}
        with pytest.raises(SystemExit) as exit_info:
            main([command, *program[command], "--data", str(tmp_path), "--limit", limit])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert "argument --limit:" in captured.err

    @pytest.mark.parametrize("workers", ["-4", "0", "x"])
    def test_bad_workers_rejected_at_parse_time(self, tmp_path, capsys, workers):
        write_csv(tmp_path / "R.csv", ("A", "B"), [(1, 2), (3, 4)])
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "Q(A,B) :- R(A,B)", "--data", str(tmp_path), "--workers", workers])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert "argument --workers:" in captured.err

    @pytest.mark.parametrize("readers", ["-3", "0", "x"])
    def test_bad_readers_rejected_at_parse_time(self, tmp_path, capsys, readers):
        write_csv(tmp_path / "R.csv", ("A", "B"), [(1, 2), (3, 4)])
        (tmp_path / "changes").mkdir()
        with pytest.raises(SystemExit) as exit_info:
            main([
                "serve", "Q(A,B) :- R(A,B)", "--data", str(tmp_path),
                "--changes", str(tmp_path / "changes"), "--concurrent",
                "--readers", readers, "--stats",
            ])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert "argument --readers:" in captured.err

    def test_bad_backend_env_rejected_whatever_the_input_size(
        self, tmp_path, capsys, monkeypatch
    ):
        """A bad ``REPRO_BACKEND`` fails before any subcommand runs: a 2-row
        ingest, below the vectorize gate, exits 2 and writes nothing."""
        data = tmp_path / "data"
        data.mkdir()
        write_csv(data / "R.csv", ("A", "B"), [(1, 2), (3, 4)])
        out = tmp_path / "out"
        monkeypatch.setenv("REPRO_BACKEND", "simd")
        assert main(["ingest", "--data", str(data), "--out", str(out)]) == 2
        assert "REPRO_BACKEND 'simd'" in capsys.readouterr().err
        assert not out.exists()

    def test_backend_flag_is_gone(self, tmp_path, capsys):
        write_csv(tmp_path / "R.csv", ("A", "B"), [(1, 2), (3, 4)])
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "Q(A,B) :- R(A,B)", "--data", str(tmp_path),
                  "--backend", "vectorized"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, -3])
    @pytest.mark.parametrize("make", ["engine", "pool", "serving"])
    def test_counts_below_one_rejected_by_constructors(self, make, count):
        """A worker or reader count below 1 is an error naming the parameter,
        never silently clamped to 1."""
        from repro.datalog import parse_query
        from repro.parallel.pool import WorkerPool
        from repro.planner import QueryEngine
        from repro.serving import ServingEngine

        query = parse_query("Q(A,B) :- R(A,B)")
        build, parameter = {
            "engine": (lambda: QueryEngine(query, workers=count), "workers"),
            "pool": (lambda: WorkerPool(count), "workers"),
            "serving": (lambda: ServingEngine(query, readers=count), "readers"),
        }[make]
        with pytest.raises(ReproError, match=f"{parameter} must be >= 1, got {count}"):
            build()

    def test_limit_zero_prints_only_the_count(self, tmp_path, capsys):
        write_csv(tmp_path / "R.csv", ("A", "B"), [(1, 2), (3, 4)])
        rc = main(["run", "Q(A,B) :- R(A,B)", "--data", str(tmp_path), "--limit", "0"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["  ... (2 more)"]

    def test_run_keeps_distinct_padded_rows(self, tmp_path, capsys):
        (tmp_path / "R.csv").write_text("A,B\n01,7\n1,7\n1_0,8\n10,8\n")
        (tmp_path / "S.csv").write_text("B,C\n7,1\n8,1\n")
        rc = main(["run", "Q(A,B,C) :- R(A,B), S(B,C)", "--data", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0].startswith("Q: 4 tuples")
        assert sorted(lines[1:]) == sorted(
            ["  01, 7, 1", "  1, 7, 1", "  1_0, 8, 1", "  10, 8, 1"]
        )

    def test_proper_query(self, cycle_dir, capsys):
        rc = main([
            "run",
            "Q(A1,A3) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)",
            "--data", str(cycle_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tuples" in out

    def test_disjunctive_rule_writes_model(self, cycle_dir, tmp_path, capsys):
        out_dir = tmp_path / "model"
        rc = main([
            "run",
            "T1(A1,A2,A3) | T2(A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4)",
            "--data", str(cycle_dir),
            "--out", str(out_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PANDA" in out
        t1 = load_relation_csv(out_dir / "T_A1A2A3.csv")
        t2 = load_relation_csv(out_dir / "T_A2A3A4.csv")
        # Model property: every body tuple projects into some target.
        from repro.datalog import parse_query

        db = load_database_dir(cycle_dir)
        body = parse_query(
            "B(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4)"
        ).evaluate_naive(db)
        for row in body:
            mapping = dict(zip(body.schema, row))
            in_t1 = tuple(mapping[a] for a in t1.schema) in t1
            in_t2 = tuple(mapping[a] for a in t2.schema) in t2
            assert in_t1 or in_t2


class TestServeCommand:
    def _triangle_dir(self, tmp_path):
        import random

        rng = random.Random(5)
        rows = {(rng.randrange(8), rng.randrange(8)) for _ in range(30)}
        for name, header in (
            ("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C")),
        ):
            write_csv(tmp_path / f"{name}.csv", header, sorted(rows))
        return tmp_path

    def _feed(self, tmp_path, header, rows):
        changes = tmp_path / "changes"
        changes.mkdir(exist_ok=True)
        with open(changes / "R.changes.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        return changes

    def test_serve_arms_agree(self, tmp_path, capsys):
        data = self._triangle_dir(tmp_path)
        changes = self._feed(
            tmp_path, ("op", "A", "B"), [("+", 9, 9), ("-", *sorted(
                load_relation_csv(data / "R.csv").tuples)[0])],
        )
        statement = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
        args = ["serve", statement, "--data", str(data), "--changes", str(changes)]
        assert main(args + ["--apply-deltas"]) == 0
        incremental = capsys.readouterr().out
        assert main(args) == 0
        recompute = capsys.readouterr().out
        import re

        counts = lambda text: re.findall(r"batch \d+ .*?: (\d+) rows", text)  # noqa: E731
        assert counts(incremental) == counts(recompute) != []

    def test_serve_realigns_permuted_feed_header(self, tmp_path, capsys):
        data = self._triangle_dir(tmp_path)
        changes = self._feed(tmp_path, ("op", "B", "A"), [("+", 7, 3)])
        rc = main([
            "serve", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
            "--data", str(data), "--changes", str(changes), "--apply-deltas",
        ])
        assert rc == 0
        capsys.readouterr()
        # The same feed expressed in relation order must agree exactly.
        self._feed(tmp_path, ("op", "A", "B"), [("+", 3, 7)])
        assert main([
            "serve", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
            "--data", str(data), "--changes", str(changes),
        ]) == 0

    def test_serve_rejects_mismatched_feed_columns(self, tmp_path, capsys):
        data = self._triangle_dir(tmp_path)
        changes = self._feed(tmp_path, ("op", "X", "A"), [("+", 1, 2)])
        rc = main([
            "serve", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
            "--data", str(data), "--changes", str(changes), "--apply-deltas",
        ])
        assert rc == 2
        assert "do not match relation" in capsys.readouterr().err

    @pytest.mark.parametrize("arm", ([], ["--apply-deltas"], ["--concurrent"]))
    def test_serve_rejects_feed_for_unknown_relation(self, tmp_path, capsys, arm):
        data = self._triangle_dir(tmp_path)
        changes = self._feed(tmp_path, ("op", "A", "B"), [("+", 1, 2)])
        (changes / "R.changes.csv").rename(changes / "X.changes.csv")
        rc = main([
            "serve", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)",
            "--data", str(data), "--changes", str(changes), *arm,
        ])
        assert rc == 2
        assert "'X' does not match a query atom" in capsys.readouterr().err
