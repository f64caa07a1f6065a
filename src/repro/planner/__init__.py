"""Planner subsystem: plan once, execute many (see :mod:`repro.planner.engine`).

Architecture layer 6 (see ``docs/architecture.md``).  Contract: plans
are data-independent and renaming-invariant — one plan per isomorphism
class, identical results with or without a cache hit.

Layers: :mod:`~repro.planner.signature` (renaming-invariant canonical
signatures on the mask kernel), :mod:`~repro.planner.cache` (bounded LRU
plan cache with hit/miss statistics), :mod:`~repro.planner.batch` (bound
solves sharing one polymatroid program per universe/constraints), and
:mod:`~repro.planner.engine` (the :class:`Planner` policy object and the
:class:`QueryEngine` facade over every driver of the driver table, serial
or sharded over a worker pool).
"""

from repro.planner.batch import BatchedBoundSolver
from repro.planner.cache import PlanCache, PlanCacheStats
from repro.planner.engine import (
    PandaPlan,
    Planner,
    QueryEngine,
    build_panda_plan,
    rename_plan,
)
from repro.planner.signature import rule_signature

__all__ = [
    "BatchedBoundSolver",
    "PandaPlan",
    "PlanCache",
    "PlanCacheStats",
    "Planner",
    "QueryEngine",
    "build_panda_plan",
    "rename_plan",
    "rule_signature",
]
