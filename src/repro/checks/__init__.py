"""Correctness tooling: the determinism linter and the runtime sanitizer.

The reproduction's central guarantees — byte-identical serial-vs-parallel
schedules, associative metric merges, per-node verdict agreement (the
paper's Propositions 2-3 and the VPT of Definition 5) — are invariants of
the *code*, not of any one test.  This package enforces them twice over:

* **Statically** — :mod:`repro.checks.engine` walks source files with an
  AST rule registry (:mod:`repro.checks.rules`) that flags the
  nondeterminism classes known to break the reproduction: unseeded RNGs,
  unordered ``set`` iteration feeding ordering-sensitive sinks, wall
  clock in deterministic paths, layering violations (``obs`` inside the
  kernel), mutable default arguments, bare excepts, and public entry
  points without a ``seed`` plumb-through.  Findings can be suppressed
  inline with ``# repro: allow[RULE]``; ``repro-check`` reports the
  rest.
* **Dynamically** — :mod:`repro.checks.sanitizer` shadow-checks live
  runs (``REPRO_SANITIZE=1`` or ``repro-coverage --sanitize``): every
  fresh CSR-kernel verdict is recomputed on the dict oracle, engine
  cache hits are compared against fresh recomputes, and parallel metric
  merges are re-associated and compared.  Violations surface through the
  obs tracer and raise by default.

Three more rule families run beside the determinism rules.  The
locality rules (:mod:`repro.checks.locality`, REPRO21x) prove the
runtime's per-node decision paths read only their own view and inbox.
The protocol pass (:mod:`repro.checks.protocol`, REPRO202/205) extracts
the send/handle contract from ``runtime/``.  The pool-hygiene rules
(:mod:`repro.checks.concurrency`, REPRO30x) keep only compact data
crossing pool boundaries, keep module-level state fork-safe and keep
every ``REPRO_*`` read in the declared knob registry
(:mod:`repro.knobs`).  Their dynamic counterpart is the ``REPRO_CHAOS``
order sanitizer in :mod:`repro.parallel.runner`, which adversarially
permutes completion/consumption order while CI asserts schedules stay
byte-identical.

``repro-check`` (:mod:`repro.checks.runner`) runs every rule in one
pass with one exit code.  The floods' behaviour under every inbox order
and the paper's radii (the ``k``-ball, the ``m``-hop MIS separation, the
halo band, the flood TTLs) have no static rule: tests of
:mod:`repro.topology.radii` and of the running floods, schedules and
shard plans guard them.
"""

import importlib
from typing import Any

# ``import repro`` reaches this package through the runtime sanitizer
# (``core.criterion`` imports ``checks.sanitizer``), so the AST linter's
# modules load only when one of their names is first asked for.
_EXPORTS = {
    "CONCURRENCY_RULES": "concurrency",
    "concurrency_rules": "concurrency",
    "Finding": "engine",
    "LintEngine": "engine",
    "Rule": "engine",
    "apply_suppressions": "engine",
    "lint_paths": "engine",
    "render_json": "engine",
    "render_text": "engine",
    "default_locality_rules": "locality",
    "ProtocolContract": "protocol",
    "extract_contract": "protocol",
    "DEFAULT_RULES": "rules",
    "all_rules": "rules",
    "Sanitizer": "sanitizer",
    "SanitizerError": "sanitizer",
    "check_merge_associativity": "sanitizer",
    "current_sanitizer": "sanitizer",
    "disable_sanitizer": "sanitizer",
    "enable_sanitizer": "sanitizer",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = sorted(_EXPORTS)
