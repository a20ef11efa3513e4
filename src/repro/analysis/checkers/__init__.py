"""Built-in checkers.  Importing this package registers all of them with
:mod:`repro.analysis.core`'s registry (each module's ``@register_checker``
runs at import time)."""

from repro.analysis.checkers import (  # noqa: F401
    errors,
    hotpath,
    locks,
    pickles,
)
