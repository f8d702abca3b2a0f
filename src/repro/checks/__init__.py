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
  kernel), mutable default arguments, bare excepts, float accumulation
  inside mergeable metrics, and public entry points without a ``seed``
  plumb-through.  Findings can be suppressed inline with
  ``# repro: allow[RULE]`` or parked in a committed baseline; the
  ``repro-lint`` CLI (:mod:`repro.checks.cli`) reports the rest.
* **Dynamically** — :mod:`repro.checks.sanitizer` shadow-checks live
  runs (``REPRO_SANITIZE=1`` or ``repro-coverage --sanitize``): every
  fresh CSR-kernel verdict is recomputed on the dict oracle, engine
  cache hits are compared against fresh recomputes, and parallel metric
  merges are re-associated and compared.  Violations surface through the
  obs tracer and raise by default.

A second front, ``repro-verify`` (:mod:`repro.checks.verify_cli`),
verifies the *distributed protocol* rather than determinism: contract
extraction over ``runtime/`` (:mod:`repro.checks.protocol`, REPRO20x),
locality flow analysis (:mod:`repro.checks.locality`, REPRO21x), and
bounded model checking of the extracted contract over all delivery
interleavings on small graphs (:mod:`repro.checks.model`, REPRO22x).

A third front, ``repro-race`` (:mod:`repro.checks.race_cli`), verifies
the *process-parallel layer's ownership and lifecycle contracts*
(:mod:`repro.checks.concurrency`, REPRO30x): the pool-boundary
channel audit (only compact picklable data crosses), the
fork-inheritance discipline for module-level state, and the declared
knob registry (:mod:`repro.knobs`).  Its dynamic counterpart is the
``REPRO_CHAOS`` order sanitizer in :mod:`repro.parallel.runner`, which
adversarially permutes completion/consumption order while CI asserts
schedules stay byte-identical.
"""

from repro.checks.concurrency import CONCURRENCY_RULES, concurrency_rules
from repro.checks.engine import (
    Baseline,
    Finding,
    LintEngine,
    Rule,
    apply_suppressions,
    lint_paths,
    render_json,
    render_text,
)
from repro.checks.locality import default_locality_rules
from repro.checks.model import ModelReport, check_model, graph_catalog
from repro.checks.protocol import (
    ProtocolContract,
    check_constants,
    extract_contract,
)
from repro.checks.rules import DEFAULT_RULES, all_rules
from repro.checks.sanitizer import (
    Sanitizer,
    SanitizerError,
    check_merge_associativity,
    current_sanitizer,
    disable_sanitizer,
    enable_sanitizer,
)

__all__ = [
    "Baseline",
    "CONCURRENCY_RULES",
    "DEFAULT_RULES",
    "Finding",
    "LintEngine",
    "ModelReport",
    "ProtocolContract",
    "Rule",
    "Sanitizer",
    "SanitizerError",
    "all_rules",
    "apply_suppressions",
    "check_constants",
    "check_merge_associativity",
    "check_model",
    "concurrency_rules",
    "current_sanitizer",
    "default_locality_rules",
    "disable_sanitizer",
    "enable_sanitizer",
    "extract_contract",
    "graph_catalog",
    "lint_paths",
    "render_json",
    "render_text",
]
