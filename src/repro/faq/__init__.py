"""FAQ / aggregate queries over one semiring (§8, FAQ-SS [2, 5]).

Architecture layer 5 (see ``docs/architecture.md``), on the columnar
relational engine; contract: semiring results are exact and
bit-identical to hash-based evaluation — ⊕-folds only reorder exact
(``Fraction``/``int``/``bool``/min/max) aggregations.

The paper's results "extend straightforwardly to proper conjunctive queries
and to aggregate queries (in the sense of FAQ-queries over one semiring)";
this subpackage carries out that extension:

* :mod:`repro.faq.semiring` — commutative semirings and the stock instances
  (Boolean, counting, min-plus/tropical, max-product);
* :mod:`repro.faq.annotated` — semiring-annotated relations (K-relations)
  on column sets, with one ⊗ kernel (``sum_product``) and one ⊕ fold;
* :mod:`repro.faq.query` — the FAQ-SS query ``φ(A_F) = ⊕_{A_{[n]−F}} ⊗_F
  R_F`` with a brute-force oracle;
* :mod:`repro.faq.freeconnex` — free-connex tree decompositions (the §8
  restriction of the Minimax/Maximin width minimization);
* :mod:`repro.faq.elimination` — InsideOut-style variable elimination;
* :mod:`repro.faq.plans` — the §8 da-fhtw evaluation: PANDA-computed bags on
  a free-connex decomposition, then message passing.
"""

from repro.faq.annotated import AnnotatedRelation
from repro.faq.elimination import EliminationResult, variable_elimination
from repro.faq.freeconnex import (
    connex_core,
    free_connex_decompositions,
    is_free_connex,
)
from repro.faq.plans import FaqPlanResult, faq_decomposition_plan
from repro.faq.query import FAQQuery
from repro.faq.widths import free_connex_dafhtw, free_connex_dasubw
from repro.faq.semiring import (
    BOOLEAN,
    COUNTING,
    FRACTION,
    MAX_PRODUCT,
    MIN_PLUS,
    Semiring,
)

__all__ = [
    "AnnotatedRelation",
    "BOOLEAN",
    "COUNTING",
    "EliminationResult",
    "FAQQuery",
    "FaqPlanResult",
    "FRACTION",
    "MAX_PRODUCT",
    "MIN_PLUS",
    "Semiring",
    "connex_core",
    "faq_decomposition_plan",
    "free_connex_dafhtw",
    "free_connex_dasubw",
    "free_connex_decompositions",
    "is_free_connex",
    "variable_elimination",
]
