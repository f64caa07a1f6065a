"""RL-BACKEND — the execution backend is one context, not a knob.

The interpreted and numpy arms are bit-identical, so the backend is an
execution detail the *caller* picks once with ``scoped_backend`` (or the
``REPRO_BACKEND`` process default).  Library code that enters its own
scope overrides that caller — the engine-level ``execution_backend=``
knob did exactly this, silently running numpy kernels under an
interpreted caller.  Inside ``src/repro/`` a ``scoped_backend(...)`` call
is therefore allowed only where the caller's choice must be re-entered
because a context variable does not cross the boundary:

* ``relational/backend.py`` — the context itself;
* ``parallel/pool.py``'s task entry points — worker processes enter the
  name the parent resolved and shipped with the task;
* ``serving/server.py`` — the broker's writer and reader threads enter
  the name captured when serving started.
"""

from __future__ import annotations

import ast
from typing import Iterable

from reprolint.base import Diagnostic, FileContext, Rule

SCOPE = "src/repro/"

#: File -> the functions a call may sit in (``None``: anywhere in the file).
ALLOWED = {
    "src/repro/relational/backend.py": None,
    "src/repro/parallel/pool.py": (
        "run_shard_task",
        "run_delta_term_task",
        "run_faq_task",
    ),
    "src/repro/serving/server.py": None,
}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class BackendScopeRule(Rule):
    code = "RL-BACKEND"
    rationale = (
        "the execution backend is the caller's one context: scoped_backend() "
        "is entered only in relational/backend.py, the pool's task entry "
        "points and serving/server.py"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith(SCOPE) and ALLOWED.get(path, ()) is not None

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        entry_points = ALLOWED.get(ctx.path, ())
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _called_name(node) != "scoped_backend":
                continue
            if any(
                isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
                and ancestor.name in entry_points
                for ancestor in ctx.ancestors(node)
            ):
                continue
            yield self.diag(
                ctx,
                node,
                "scoped_backend() outside the context's boundaries overrides "
                "the caller's backend; run on the caller's context instead",
            )
