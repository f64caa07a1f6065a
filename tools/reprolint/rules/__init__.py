"""The rule registry: every shipped rule, instantiated once.

Adding a rule = adding a module here with a :class:`~reprolint.base.Rule`
subclass and listing it in :data:`ALL_RULES` (see ``tools/reprolint/
README.md`` for the checklist, including the mandatory fixture tests in
``tests/test_reprolint.py``).
"""

from __future__ import annotations

from reprolint.rules.rl_backend import BackendScopeRule
from reprolint.rules.rl_exact import ExactRule
from reprolint.rules.rl_hashord import HashOrderRule
from reprolint.rules.rl_numpy import NumpyScopeRule
from reprolint.rules.rl_poolship import PoolShipRule
from reprolint.rules.rl_pragma import PragmaRule

ALL_RULES = (
    ExactRule(),
    NumpyScopeRule(),
    HashOrderRule(),
    PoolShipRule(),
    BackendScopeRule(),
    PragmaRule(),
)

RULE_CODES = tuple(rule.code for rule in ALL_RULES)

__all__ = ["ALL_RULES", "RULE_CODES"]
