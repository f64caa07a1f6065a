"""reprolint — the repo-specific AST invariant linter.

Machine-checks the contracts the ROADMAP states in prose: exact-Fraction
proof paths (RL-EXACT), the stdlib-only base install (RL-NUMPY),
hash-order determinism (RL-HASHORD), the pool shipping contract
(RL-POOLSHIP), and suppression hygiene (RL-PRAGMA).

Run it from the repo root::

    python tools/reprolint/run.py src tests benchmarks tools

See ``tools/reprolint/README.md`` for the rule table, the pragma format,
and the how-to-add-a-rule checklist.
"""

from __future__ import annotations
