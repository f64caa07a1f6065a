"""Relational engine substrate.

Architecture layer 5 (see ``docs/architecture.md``), also housing the
layer-9 vectorized backend (:mod:`~repro.relational.vectorized`,
selected via :mod:`~repro.relational.backend`) and the layer-10
persisted mmap storage (:mod:`~repro.relational.storage`).  Contract:
relations are canonical sorted code rows over shared per-attribute
dictionaries, identical for every join algorithm, backend, and storage
medium.

Columnar, dictionary-encoded in-memory relations
(:class:`~repro.relational.relation.Relation` over
:mod:`~repro.relational.columns`), the shared sorted-trie iterator every
join algorithm drives (:mod:`~repro.relational.trie`), database instances,
the relational operators PANDA uses (join / semijoin / project / union /
Lemma 6.1 heavy-light partition), Yannakakis' acyclic-join algorithm, and
the two worst-case-optimal baselines (Generic Join and Leapfrog Triejoin).
"""

from repro.relational.columns import ColumnSet, Dictionary
from repro.relational.database import Database
from repro.relational.operators import (
    WorkCounter,
    current_counter,
    difference,
    heavy_light_partition,
    natural_join,
    project,
    scoped_work_counter,
    select_equal,
    semijoin,
    union,
)
from repro.relational.relation import Relation
from repro.relational.storage import (
    ColumnStore,
    LazyDictionary,
    open_database_dir,
    save_database_dir,
)
from repro.relational.trie import SortedTrieIterator, leapfrog_search
from repro.relational.leapfrog import leapfrog_triejoin
from repro.relational.wcoj import binary_join_plan, generic_join
from repro.relational.yannakakis import (
    JoinTree,
    acyclic_boolean,
    acyclic_join,
    full_reduce,
    join_tree_from_bags,
)

__all__ = [
    "ColumnSet",
    "ColumnStore",
    "Database",
    "Dictionary",
    "JoinTree",
    "LazyDictionary",
    "Relation",
    "SortedTrieIterator",
    "WorkCounter",
    "acyclic_boolean",
    "acyclic_join",
    "binary_join_plan",
    "current_counter",
    "difference",
    "full_reduce",
    "generic_join",
    "leapfrog_search",
    "leapfrog_triejoin",
    "heavy_light_partition",
    "join_tree_from_bags",
    "natural_join",
    "open_database_dir",
    "project",
    "save_database_dir",
    "scoped_work_counter",
    "select_equal",
    "semijoin",
    "union",
]
