"""Correctness tooling: the runtime sanitizer.

The reproduction's central guarantees — byte-identical serial-vs-parallel
schedules and run-reports, per-node verdict agreement (the
paper's Propositions 2-3 and the VPT of Definition 5), the distributed
DCC's locality and Theorems 5 and 6 — are checked on the running code:
the examples' byte-diff under two hash seeds, the schedule-invariance
and reproducible-defaults tests, the recorded schedule pins, the
exact-k-ball and stray-message tests of the runtime and the sanitizer
below.  Mutable defaults and bare excepts are ruff's (B006, E722).

:mod:`repro.checks.sanitizer` shadow-checks live runs under
``REPRO_SANITIZE=1`` (for example ``REPRO_SANITIZE=1 repro-coverage
fig2``): every fresh CSR-kernel verdict is recomputed on the dict
oracle and engine cache hits are compared against fresh recomputes.
Violations surface through the obs tracer and raise by default.  Its pool-side
counterpart is the ``REPRO_CHAOS`` order sanitizer in
:mod:`repro.parallel.runner`, which adversarially permutes
completion/consumption order while CI asserts schedules stay
byte-identical.
"""

from repro.checks.sanitizer import (
    Sanitizer,
    SanitizerError,
    current_sanitizer,
    disable_sanitizer,
    enable_sanitizer,
)

__all__ = [
    "Sanitizer",
    "SanitizerError",
    "current_sanitizer",
    "disable_sanitizer",
    "enable_sanitizer",
]
