"""A small text syntax for conjunctive queries, disjunctive rules, and programs.

Grammar (whitespace-insensitive)::

    cq      :=  NAME '(' vars? ')' ':-' atoms
    rule    :=  head_disjunct ('|' head_disjunct)* ':-' atoms
    atoms   :=  atom (',' atom)*
    atom    :=  NAME '(' vars ')'
    vars    :=  VAR (',' VAR)*
    program :=  clause ('.' clause)* '.'?
    clause  :=  atom ':-' literals          -- one datalog rule
    literals:=  literal (',' literal)*
    literal :=  atom | '!' atom | 'not' atom

Examples::

    parse_query("Q(A1,A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4), R41(A4,A1)")
    parse_rule("T123(A1,A2,A3) | T234(A2,A3,A4) :- R12(A1,A2), R23(A2,A3), R34(A3,A4)")
    parse_program('''
        # transitive closure (docs/datalog.md)
        path(x,y) :- edge(x,y).
        path(x,z) :- path(x,y), edge(y,z).
    ''')

Boolean queries are written with an empty head: ``Q() :- ...``.  Program
text may carry ``#`` or ``%`` line comments; rules end with ``.`` (the last
one may omit it).  Negated body atoms are written ``!reach(x,y)`` or
``not reach(x,y)`` and follow stratified semantics
(:meth:`~repro.datalog.fixpoint.DatalogProgram.stratify`).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.datalog.rule import DisjunctiveRule
from repro.exceptions import DatalogError, QueryError

__all__ = [
    "load_program",
    "parse_atom",
    "parse_datalog_rule",
    "parse_program",
    "parse_query",
    "parse_rule",
]

_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)\s*")


def parse_atom(text: str) -> Atom:
    """Parse a single atom like ``R12(A1, A2)``."""
    match = _ATOM_RE.fullmatch(text)
    if not match:
        raise QueryError(f"cannot parse atom: {text!r}")
    name, inner = match.group(1), match.group(2)
    variables = tuple(v.strip() for v in inner.split(",") if v.strip())
    return Atom(name, variables)


def _split_atoms(text: str) -> list[str]:
    """Split a comma-separated atom list (commas inside parens don't count)."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise QueryError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise QueryError(f"unbalanced parentheses in {text!r}")
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _split_head_body(text: str) -> tuple[str, str]:
    if ":-" not in text:
        raise QueryError(f"missing ':-' in {text!r}")
    head, body = text.split(":-", 1)
    if not body.strip():
        raise QueryError(f"empty body in {text!r}")
    return head.strip(), body.strip()


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a conjunctive query; the head atom's name becomes the query name."""
    head_text, body_text = _split_head_body(text)
    head_atoms = _split_atoms(head_text)
    if len(head_atoms) != 1:
        raise QueryError(f"conjunctive query needs exactly one head atom: {text!r}")
    match = _ATOM_RE.fullmatch(head_atoms[0])
    if not match:
        raise QueryError(f"cannot parse head: {head_atoms[0]!r}")
    name = match.group(1)
    head_vars = tuple(
        v.strip() for v in match.group(2).split(",") if v.strip()
    )
    body = tuple(parse_atom(part) for part in _split_atoms(body_text))
    return ConjunctiveQuery(head_vars, body, name)


def parse_rule(text: str, name: str = "P") -> DisjunctiveRule:
    """Parse a disjunctive rule; ``|`` (or ``∨``) separates head disjuncts."""
    head_text, body_text = _split_head_body(text)
    disjunct_texts = re.split(r"\||∨", head_text)
    targets = []
    for disjunct in disjunct_texts:
        atom = parse_atom(disjunct)
        targets.append(atom.variable_set)
    body = tuple(parse_atom(part) for part in _split_atoms(body_text))
    return DisjunctiveRule(tuple(targets), body, name)


# -- recursive programs (docs/datalog.md) -------------------------------------------


def parse_datalog_rule(text: str):
    """Parse one datalog rule ``head :- literals`` (``!``/``not`` negate).

    Returns a :class:`~repro.datalog.fixpoint.DatalogRule`; safety (every
    head and negated variable bound by a positive atom) is validated by its
    constructor, so a bad rule fails here with a clear
    :class:`~repro.exceptions.DatalogError`.
    """
    from repro.datalog.fixpoint import DatalogRule

    head_text, body_text = _split_head_body(text)
    head_atoms = _split_atoms(head_text)
    if len(head_atoms) != 1:
        raise DatalogError(
            f"a datalog rule needs exactly one head atom: {text!r}"
        )
    head = parse_atom(head_atoms[0])
    positive: list[Atom] = []
    negated: list[Atom] = []
    for part in _split_atoms(body_text):
        literal = part.strip()
        if literal.startswith("!"):
            negated.append(parse_atom(literal[1:]))
        elif re.match(r"not\s*\(", literal) is None and literal.startswith(
            "not "
        ):
            negated.append(parse_atom(literal[4:]))
        else:
            positive.append(parse_atom(literal))
    return DatalogRule(head, tuple(positive), tuple(negated))


def _strip_comments(text: str) -> str:
    """Drop ``#`` and ``%`` line comments (no string literals to protect)."""
    lines = []
    for line in text.splitlines():
        cut = len(line)
        for marker in ("#", "%"):
            found = line.find(marker)
            if found != -1 and found < cut:
                cut = found
        lines.append(line[:cut])
    return "\n".join(lines)


def parse_program(text: str):
    """Parse a whole datalog program into a validated, stratifiable form.

    ``text`` is a sequence of rules separated by ``.`` (the final period is
    optional), with ``#``/``%`` line comments.  Returns a
    :class:`~repro.datalog.fixpoint.DatalogProgram`; exact duplicate rules
    collapse (idempotence), and arity consistency is validated across every
    predicate occurrence.  A malformed rule's error names the line it
    starts on (``line 3: ...``).
    """
    return _parse_program(text, "line ")


def load_program(path):
    """Parse the program in the UTF-8 file ``path`` (:func:`parse_program`);
    a malformed rule's error names ``path:line``."""
    path = Path(path)
    return _parse_program(path.read_text(encoding="utf-8"), f"{path}:")


def _parse_program(text: str, where: str):
    from repro.datalog.fixpoint import DatalogProgram

    rules = []
    line = 1  # the line each statement starts on
    for chunk in _strip_comments(text).split("."):
        statement = chunk.strip()
        first = line + chunk[: len(chunk) - len(chunk.lstrip())].count("\n")
        line += chunk.count("\n")
        if not statement:
            continue
        try:
            rules.append(parse_datalog_rule(statement))
        except QueryError as error:
            raise type(error)(f"{where}{first}: {error}") from error
    if not rules:
        raise DatalogError("the program text contains no rules")
    return DatalogProgram(tuple(rules))
