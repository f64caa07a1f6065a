"""Incremental view maintenance (IVM) over the columnar engine.

Every lower layer assumes a static database: one inserted tuple invalidates
content digests and forces a full recompute of every join and FAQ result.
This subsystem — architecture layer 8, see ``docs/architecture.md`` —
keeps materialized results *exact* under tuple inserts and deletes at
delta-sized cost (and is the inner loop of recursive datalog's
semi-naïve fixpoint, ``docs/datalog.md``):

* :mod:`repro.incremental.delta` — a change batch as a signed,
  dictionary-encoded delta (sorted code rows + ±multiplicity) and the
  log-structured :class:`VersionedRelation` (base column set + pending delta
  runs, merged by the sorted-run machinery, compacted past a threshold);
* :mod:`repro.incremental.ivm` — the delta-rule expansion
  d(R₁⋈…⋈Rₖ) = Σᵢ R₁'⋈…⋈dRᵢ⋈…⋈Rₖ, each term executed through the shared
  :func:`~repro.relational.execution.execute_join` driver with the delta's
  (tiny) key range as trie-root bounds, plus signed ⊕-folds maintaining FAQ
  annotations in ⊕-invertible semirings (non-invertible ones recompute);
* :mod:`repro.incremental.engine` — :class:`IncrementalQueryEngine`, the
  :class:`repro.planner.QueryEngine`-shaped facade with
  ``insert``/``delete``/``refresh``, planner-cached plans reused across
  versions, and optional fan-out of delta terms over the
  :mod:`repro.parallel` worker pool (only changed buffers ship).

Hard contract: after every batch, every maintained result is *bit-identical*
to a from-scratch recompute on the current data — the same canonical sorted
code rows, the same exact ``Fraction`` annotations.
"""

from repro.incremental.delta import SignedDelta, VersionedRelation
from repro.incremental.engine import IncrementalQueryEngine
from repro.incremental.ivm import (
    delta_factor,
    maintain_faq,
    signed_join_delta,
)

__all__ = [
    "IncrementalQueryEngine",
    "SignedDelta",
    "VersionedRelation",
    "delta_factor",
    "maintain_faq",
    "signed_join_delta",
]
