"""The table of every ``REPRO_*`` environment knob: name → default.

Every environment variable the reproduction reads is named here exactly
once, with the raw value assumed when it is unset, and is read only
through :func:`get_flag` / :func:`get_str`, so a knob's default lives in
one place.  The drift tests (``tests/unit/test_knobs.py``) fail on any
undeclared ``REPRO_*`` name in the tree, on any ``os.environ`` read of
one outside this module, and on a README/EXPERIMENTS knob table that
does not name exactly these knobs.

This module sits below every layer (it imports only the stdlib), so the
kernel, the parallel layer and the checks package can all consume it
without creating import cycles.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

#: Values (lower-cased, stripped) that turn a flag knob off.
FALSE_WORDS = ("", "0", "false", "off", "no")

#: Knob name → raw value assumed when unset, sorted by name.
#: ``REPRO_CHAOS`` is a flag (the chaos-order sanitizer of
#: :mod:`repro.parallel.runner`); ``REPRO_SANITIZE`` selects the
#: shadow-oracle sanitizer's mode (:mod:`repro.checks.sanitizer`).
KNOBS: Dict[str, str] = {
    "REPRO_CHAOS": "",
    "REPRO_SANITIZE": "",
}


def knob_names() -> Tuple[str, ...]:
    """Every declared knob name, sorted."""
    return tuple(KNOBS)


def get_str(name: str) -> str:
    """A knob's raw value (its declared default when unset).

    An undeclared ``name`` raises :class:`KeyError`.
    """
    return os.environ.get(name, KNOBS[name])


def get_flag(name: str) -> bool:
    """A flag knob's effective value (:data:`FALSE_WORDS` disable)."""
    return get_str(name).strip().lower() not in FALSE_WORDS
