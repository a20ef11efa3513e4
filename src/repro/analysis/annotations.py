"""Runtime-visible markers consumed by the ``repro.lint`` static checkers.

These are deliberately zero-cost at runtime: each decorator only stamps a
dunder attribute and returns its argument unchanged, so decorating a hot
function (or aliasing it, as ``LayerPlan.__call__ = LayerPlan.gemm`` does)
changes nothing about how it executes.  The static checkers in
``repro.analysis.checkers`` find the *decorator syntax* in the AST — the
attributes exist only so runtime introspection and tests can agree with
the linter about what is tagged.

This module must stay import-free (stdlib ``typing`` only) because every
runtime module imports it; a heavyweight import here would tax cold-start
of every process that imports the runtime.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["hot_path", "cross_process"]

_F = TypeVar("_F", bound=Callable)
_C = TypeVar("_C", bound=type)


def hot_path(fn: _F) -> _F:
    """Mark ``fn`` as serving-hot: the ``hot-path`` checker forbids lock
    construction, wall-clock reads (``time.time``), printing, logging, and
    I/O inside it.  Monotonic clocks (``time.perf_counter``) and *using*
    an existing lock (``with self._lock:``) remain allowed."""
    fn.__hot_path__ = True
    return fn


def cross_process(cls: _C) -> _C:
    """Mark ``cls`` as shipped across the worker pipe: the
    ``cross-process`` checker requires every field to be transitively
    picklable by construction (primitives, containers of primitives,
    ndarrays, or classes that define ``__getstate__``/``__setstate__``)."""
    cls.__cross_process__ = True
    return cls
