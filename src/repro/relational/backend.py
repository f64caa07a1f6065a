"""Runtime selection of the join-execution backend.

Two backends execute the code-domain hot paths (trie intersection, leapfrog
seeks, block leaves):

* ``"interpreted"`` — the pure-Python driver in
  :mod:`repro.relational.execution`, always available;
* ``"vectorized"`` — the numpy block-at-a-time kernels in
  :mod:`repro.relational.vectorized`, used when numpy is importable and
  **bit-identical** to the interpreted driver (same sorted code rows, same
  emitted totals; see ROADMAP Architecture layer 9 for the contract).

The backend is one context, not a query parameter: no engine, driver or
CLI flag takes it.  Selection, in decreasing precedence:

1. the caller's :func:`scoped_backend` context — carried across the two
   boundaries the engines cross: pool tasks ship :func:`current_backend`
   and their workers enter it (:mod:`repro.parallel.pool`), and the
   serving broker enters the backend it captured at start on its writer
   and reader threads (:mod:`repro.serving.server`);
2. the ``REPRO_BACKEND`` environment variable, the process default;
3. the default, ``"vectorized"`` when numpy is present else ``"interpreted"``.

Requesting ``"vectorized"`` without numpy degrades gracefully to the
interpreted driver — the base install carries no third-party dependency
(numpy ships under the ``fast`` extra: ``pip install repro-panda[fast]``).
Only int64 code-domain execution ever vectorizes; exact-``Fraction``
annotation/witness/proof paths never route through this module.  The one
float computation the vectorized backend adds is the LP *proposal*
(:mod:`repro.lp.proposer`): a float replay of the exact simplex's pivots
whose answer :mod:`repro.lp.simplex` certifies in ``Fraction`` before use,
falling back to the rational simplex — so witness values never pass
through float on either backend.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

from repro.exceptions import QueryError

__all__ = [
    "BACKENDS",
    "current_backend",
    "have_numpy",
    "resolve_backend",
    "scoped_backend",
    "vectorize",
]

#: The recognized backend names.
BACKENDS = ("interpreted", "vectorized")

#: Inputs at least this many rows large route to the numpy kernels when the
#: vectorized backend is active (below it the ndarray overhead loses).
_VEC_MIN_ROWS = 256

_BACKEND_VAR: ContextVar = ContextVar("repro_backend", default=None)

_numpy = None
_numpy_checked = False


def have_numpy() -> bool:
    """Whether numpy is importable (checked once, cached)."""
    global _numpy, _numpy_checked
    if not _numpy_checked:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy = numpy
        _numpy_checked = True
    return _numpy is not None


def resolve_backend(name: str | None) -> str:
    """Validate ``name`` (``None``: ``REPRO_BACKEND``, else the default)
    without the numpy fallback."""
    source = "execution backend"
    if name is None:
        name = os.environ.get("REPRO_BACKEND") or None
        source = "REPRO_BACKEND"
    if name is None:
        return "vectorized" if have_numpy() else "interpreted"
    if name not in BACKENDS:
        raise QueryError(f"unknown {source} {name!r}; expected one of {BACKENDS}")
    return name


def current_backend() -> str:
    """The backend joins execute on *right now*, after the numpy fallback.

    ``"vectorized"`` is only ever returned when numpy is actually
    importable; a vectorized request on a numpy-less install silently runs
    interpreted (same outputs, just slower) rather than failing.
    """
    name = _BACKEND_VAR.get()
    if name is None:
        name = resolve_backend(None)
    if name == "vectorized" and not have_numpy():
        return "interpreted"
    return name


def vectorize(nrows: int) -> bool:
    """The one gate of the column path: is the vectorized backend active and
    is ``nrows`` — the input size the caller documents — worth an ndarray?

    Every relational operator and the run-count scans ask this same
    question, so an input is either on the numpy arm everywhere or nowhere.
    """
    return nrows >= _VEC_MIN_ROWS and current_backend() == "vectorized"


@contextmanager
def scoped_backend(name: str):
    """Pin the backend for the duration of the context.

    Context variables stay with their thread and process, so the pool's
    task entry points and the serving broker's threads re-enter the name
    their caller resolved; nothing else in the library enters one.
    """
    token = _BACKEND_VAR.set(resolve_backend(name))
    try:
        yield
    finally:
        _BACKEND_VAR.reset(token)
