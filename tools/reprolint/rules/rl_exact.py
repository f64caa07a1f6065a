"""RL-EXACT — the exactness contract of the proof/witness modules.

Every witness and proof-sequence path must be ``fractions.Fraction`` end to
end (ROADMAP "Exactness contract"): the bounds are the paper's product, and
a float sneaking into a dual value or a proof step silently turns an exact
degree-aware bound into an approximation — the worst regression class this
repo has.  Inside the scoped modules this rule flags:

* ``float(...)`` calls;
* float literals used in arithmetic or comparisons;
* ``math.*`` uses and ``from math import``s of anything but the exact
  integer functions (``gcd``/``lcm``/``isqrt``/``comb``/``perm``/
  ``factorial``/``floor``/``ceil``/``prod``) — everything else in ``math``
  computes in C doubles;
* true division with a numeric-literal operand (``x / 2`` is exact only if
  ``x`` is already a Fraction; ``Fraction(x, 2)`` is exact always).

Presentation boundaries — the ``2^x`` float renderings of an exact bound on
result dataclasses — are genuine exceptions and carry per-line
``# reprolint: allow(RL-EXACT) -- ...`` pragmas instead of weakening the
rule's scope.
"""

from __future__ import annotations

import ast
from typing import Iterable

from reprolint.base import Diagnostic, FileContext, Rule

SCOPE_PREFIXES = ("src/repro/flows/", "src/repro/bounds/", "src/repro/planner/")
SCOPE_FILES = ("src/repro/core/panda.py", "src/repro/lp/simplex.py")

#: Parent node types in which a float literal counts as "arithmetic".
_ARITHMETIC_PARENTS = (ast.BinOp, ast.UnaryOp, ast.Compare, ast.AugAssign)

#: math functions that are exact integer (or Fraction-safe) arithmetic.
_EXACT_MATH = (
    "gcd", "lcm", "isqrt", "comb", "perm", "factorial", "floor", "ceil", "prod",
)


def _is_number(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


class ExactRule(Rule):
    code = "RL-EXACT"
    rationale = (
        "proof/witness paths are Fraction end to end; no float(), float "
        "literals in arithmetic, math.*, or literal-operand true division "
        "in flows/, core/panda.py, lp/simplex.py, bounds/, planner/"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith(SCOPE_PREFIXES) or path in SCOPE_FILES

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "float":
                    yield self.diag(
                        ctx, node, "float() call in an exact-arithmetic module"
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.partition(".")[0] == "math":
                    for alias in node.names:
                        if alias.name not in _EXACT_MATH:
                            yield self.diag(
                                ctx,
                                node,
                                f"from math import {alias.name} in an "
                                "exact-arithmetic module (computes in C "
                                "doubles)",
                            )
            elif isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "math"
                    and node.attr not in _EXACT_MATH
                ):
                    yield self.diag(
                        ctx,
                        node,
                        f"math.{node.attr} in an exact-arithmetic module "
                        "(computes in C doubles)",
                    )
            elif isinstance(node, ast.Constant) and type(node.value) is float:
                if isinstance(ctx.parent(node), _ARITHMETIC_PARENTS):
                    yield self.diag(
                        ctx,
                        node,
                        f"float literal {node.value!r} in arithmetic "
                        "(use Fraction)",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if _is_number(node.left) or _is_number(node.right):
                    yield self.diag(
                        ctx,
                        node,
                        "true division with a numeric-literal operand "
                        "(int/int is lossy; use Fraction)",
                    )
